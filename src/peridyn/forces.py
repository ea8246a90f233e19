"""Bond forces, the semi-discrete spatial operator, and bond damage.

The operator maps a packed state array Y = [u | v] of shape (N, 2*dim) to
its time derivative: du/dt = v and dv/dt = (sum of pairwise bond forces
times neighbor volume, plus body force) / rho.  Velocity-constraint layers
override du/dt with the prescribed velocity and zero the acceleration.

Evaluation can be restricted to a subset of target points (a "view"): the
multi-time-step scheme advances the coarse and fine subdomains separately
and must not pay for force sums outside the active subdomain.  The two
sides partition the domain, so an operator split into them holds the bond
data once: its full view is the union of the two sides' row blocks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (HORIZON_TOL, GeometryError, NeighborList, PointCloud,
                       _concat_ranges, _in_boxes, _norm)

# Relative collapse guard for the nonlinear law's division by |xi + eta|.
COLLAPSE_TOL = 1e-12


class SimulationError(RuntimeError):
    """Raised for non-physical states encountered during a run."""


class InstabilityError(SimulationError):
    """Non-finite field detected; carries the offending point and time, and
    the stage and last good step that the stepper sets as it re-raises."""

    def __init__(self, point: int, t: float, stage: int | None = None,
                 last_good_step: int | None = None):
        super().__init__(point, t)
        self.point = point
        self.t = t
        self.stage = stage
        self.last_good_step = last_good_step

    def __str__(self) -> str:
        msg = f"non-finite rate at point {self.point}, t={self.t:.6e}"
        if self.stage is not None:
            msg += f", RK stage {self.stage + 1}"
        if self.last_good_step is not None:
            msg += f" (last good step: {self.last_good_step})"
        return msg


@dataclass
class Material:
    """Elastic constants; the micro-modulus is derived from E and the
    horizon by calibrate_alpha.  Bond-based peridynamics fixes Poisson's
    ratio by dimension, 1/3 in 2D (plane stress) and 1/4 in 3D, so it is
    no constant of the material."""

    E: float
    rho: float

    def validate(self):
        if not (np.isfinite(self.E) and self.E > 0):
            raise ValueError("elastic modulus must be positive and finite, "
                             f"got {self.E}")
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValueError("density must be positive and finite, "
                             f"got {self.rho}")


@dataclass
class FieldState:
    """Displacement and velocity fields at one time level."""

    u: np.ndarray
    v: np.ndarray
    t: float

    def packed(self) -> np.ndarray:
        return np.hstack([self.u, self.v])

    @staticmethod
    def from_packed(y: np.ndarray, t: float) -> "FieldState":
        dim = y.shape[1] // 2
        return FieldState(u=y[:, :dim].copy(), v=y[:, dim:].copy(), t=t)


@dataclass
class Loading:
    """A body-force layer or a velocity-constraint layer.

    ``indices`` are the affected points; ``value`` is the force density
    (N/m^3) or the prescribed velocity (m/s) per component, constant in
    time.
    """

    kind: str  # "body_force_layer" | "velocity_constraint"
    indices: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        if self.kind not in ("body_force_layer", "velocity_constraint"):
            raise ValueError(f"unknown loading kind {self.kind!r}")
        if len(self.indices) == 0:
            raise ValueError("loading layer is empty")


def calibrate_alpha(material: Material, delta: float, dim: int,
                    thickness: float | None = None) -> float:
    """Micro-modulus from energy equivalence with classical elasticity:
    9E/(pi delta^3 d) in 2D, 12E/(pi delta^4) in 3D.
    """
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"horizon must be positive and finite, got {delta}")
    if dim == 2:
        if thickness is None or not (np.isfinite(thickness) and thickness > 0):
            raise ValueError("2D calibration requires a positive and finite "
                             f"thickness, got {thickness}")
        return 9.0 * material.E / (np.pi * delta ** 3 * thickness)
    if dim == 3:
        return 12.0 * material.E / (np.pi * delta ** 4)
    raise ValueError(f"dim must be 2 or 3, got {dim}")


def bond_stretch(deformed_norm, xi_norm):
    """Relative bond elongation s = (|xi + eta| - |xi|) / |xi| from the
    deformed length |xi + eta| and the cached |xi|."""
    return (deformed_norm - xi_norm) / xi_norm


class BondCollapseError(SimulationError):
    """Deformed bonds shrank to (numerically) zero length; ``collapsed``
    flags them, in the shape of the component arrays passed to the force
    kernel."""

    def __init__(self, collapsed: np.ndarray):
        self.collapsed = collapsed
        super().__init__(f"{int(np.count_nonzero(collapsed))} deformed "
                         "bond(s) collapsed to zero length")


# The kernels below act on bonds held as component arrays: vec[k] and eta[k]
# are the k-th components of the bond's static vector and its relative
# displacement, all of one shape.  Each returns (scale, direction):
# component k of a bond's pairwise force is scale * direction[k].


def bond_factor(xi, xi_norm, alpha, out=None):
    """The linear law's rank-1 bond factor q = sqrt(alpha / |xi|^3) xi.

    ``xi`` is (dim, ...) and ``xi_norm`` its length; ``out`` may be
    ``xi``.  The linearized force alpha (xi (x) xi / |xi|^3) eta of an
    alive bond is then (q . eta) q.
    """
    scale = xi_norm ** 3
    np.divide(alpha, scale, out=scale)
    np.sqrt(scale, out=scale)
    return np.multiply(xi, scale, out=out)


def pairwise_force_linear(q, eta, alive=None):
    """Linearized pairwise force mu (q . eta) q from the bond factor q.

    The dot product is summed in component order, in place in ``eta[0]``
    (the other components of ``eta`` are overwritten too).  ``alive``, the
    bond flags as 0.0/1.0, is None when every bond is alive.
    """
    dot = eta[0]
    dot *= q[0]
    for q_k, e_k in zip(q[1:], eta[1:]):
        e_k *= q_k
        dot += e_k
    if alive is not None:
        dot *= alive
    return dot, q


def pairwise_force_nonlinear(xi, eta, xi_norm, coef):
    """Nonlinear pairwise force coef * s * (xi + eta)/|xi + eta|, with coef
    the per-bond factor alpha * mu.

    The deformed vectors xi + eta are formed in place in the array ``eta``.
    Raises BondCollapseError if a deformed bond collapses to (numerically)
    zero length, which indicates a non-physical state.
    """
    deformed = np.add(xi, eta, out=eta)
    ndef = _norm(deformed)
    collapsed = ndef < COLLAPSE_TOL * xi_norm
    if np.any(collapsed):
        raise BondCollapseError(collapsed)
    return coef * bond_stretch(ndef, xi_norm) / ndef, deformed


def _slot_sums(scale: np.ndarray, direction: np.ndarray, out=None):
    """out[k] = the sum of scale * direction[k] over the slots of (slot,
    row) arrays, one slot after another, for every component k at once;
    returns ``out``, a new (dim, row) array when it is None.

    einsum adds the slots of each row in order when there are several
    rows, rounding each product first (numpy builds for an x86-64 baseline
    without FMA do not fuse them; the bitwise tests would show a build that
    does).  For a single row it sums the contiguous slots in unrolled
    partial sums; cumsum is sequential always.
    """
    if scale.shape[1] > 1:
        return np.einsum("sr,ksr->kr", scale, direction, out=out)
    sums = np.cumsum(scale * direction, axis=1)[:, -1]
    if out is None:
        return sums
    out[...] = sums
    return out


# The size unit of the bond work: the damage checks go in chunks of this
# many half-bonds, and a view's row block holds at most 3 * _BLOCK_SLOTS
# doubles in its (dim, slot, row) displacements, so 22,500 padded slots in
# 2D and 15,000 in 3D (see make_view), and its temporaries in rates stay in
# the L2 cache.  A 2D component array passes 128 KiB, glibc's default mmap
# threshold, but glibc raises its threshold past an array's size when it
# frees the first one, so later calls reuse heap memory instead of mapping
# fresh pages.
_BLOCK_SLOTS = 15_000

# A block mirrors (see _Block) only if it copies this many dot products:
# its copies and cross-bond pass cost a few numpy calls, about this many
# computed slots (plate2d's fine view, one block copying 1,230, ran 32%
# slower mirrored; 2-core VM, numpy 2.4).
_MIRROR_MIN = 4_000


@dataclass
class _Block:
    """Some rows of a view, as padded (slot, row) bond arrays.

    A row's slots hold its bonds in ascending neighbor order, in two groups
    of M and C slots: its ``low`` bonds to lower neighbors, then the rest,
    computed from the neighbors ``nbr``.  Under the linear law the first
    group copies its dot products q . eta from a ``rates`` call's buffer
    (see ``_View``) at ``mirror``: the partner bond's, which a lower
    neighbor in the view evaluated, or, for a ``cross`` bond to a point
    outside the view, the block's own.  The block writes its dot products
    there from ``at`` on (None: the view copies none): the second
    group's, then the cross bonds'.
    ``vec`` holds q (``bond_factor``) under the linear law and xi under the
    nonlinear one, whose ``length`` holds |xi|.  ``low`` is 0, and every
    slot computed, under the nonlinear law and in a block that would copy
    fewer than _MIRROR_MIN dot products.  A group pads its rows to its widest with force-free bonds: a copy of the
    buffer's +0.0, or the row itself as neighbor (so eta = 0) and xi = e0,
    of length 1.  ``bonds`` recomputes the slots' bond ids from each row's
    CSR start.

    ``flags`` caches the flags of the computed bonds as 0.0/1.0, in the
    buffer's order, as of the list's ``version``: None while all are alive,
    so intact blocks skip the multiplication.  A copy carries its partner's
    flag: both directions of a bond break together.
    """

    rows: np.ndarray    # (R,) global point ids
    low: np.ndarray     # (R,) bonds to lower neighbors per row
    mirror: np.ndarray  # (M, R) dot buffer positions, intp
    nbr: np.ndarray     # (C, R) neighbor points, intp for the gathers
    cross: np.ndarray   # (3, K) bond id, neighbor and row, intp
    cross_vec: np.ndarray  # (dim, K) the cross bonds' factors q
    at: int | None      # buffer position of the computed dot products
    vec: np.ndarray     # (dim, M + C, R) q (linear law) or xi (nonlinear)
    length: np.ndarray | None  # (C, R) |xi| (nonlinear law only)
    flags: np.ndarray | None = None
    version: int = -1   # nbrs.version that flags was gathered at

    def bonds(self, nbrs: NeighborList) -> np.ndarray:
        """(M + C, R) bond ids of the slots; pads hold bond 0."""
        return _slot_bonds(nbrs, self.rows, self.low, len(self.mirror),
                           len(self.nbr))[0]

    def alive(self, nbrs: NeighborList) -> np.ndarray | None:
        """The computed bonds' flags (see ``flags``), refreshed when mu
        changed."""
        if self.version != nbrs.version:
            own = _slot_bonds(nbrs, self.rows, self.low, 0, len(self.nbr))[0]
            mu = np.take(nbrs.mu, np.concatenate([own.ravel(),
                                                  self.cross[0]]))
            self.flags = None if mu.all() else mu.astype(float)
            self.version = nbrs.version
        return self.flags


def _slot_bonds(nbrs: NeighborList, rows: np.ndarray, low, m: int, c: int):
    """(m + c, R) bond ids of rows' slots from their CSR starts: m slots of
    each row's ``low`` first bonds, then c of the rest, with the pads
    (slots past a group's bonds) set to bond 0; and the pad mask."""
    start = nbrs.offsets[rows]
    split = start + low
    slot = np.arange(m + c)[:, None]
    lower = slot < m
    bond = np.where(lower, start + slot, split + (slot - m))
    pad = bond >= np.where(lower, split, nbrs.offsets[rows + 1])
    bond[pad] = 0
    return bond, pad


@dataclass
class _View:
    """Bond-level slice of the neighbor list restricted to target rows, and
    how ``rates`` evaluates it, laid out when the view is made.

    ``steps`` holds per block the block, its rows' columns of the (dim, N)
    displacements and the columns of the view's (dim, R) force array that
    take its sums; each is a slice when contiguous.  A view from
    ``make_view`` holds its rows ascending, and its blocks tile them in
    order, so a block's sums go to its own positions among the view's rows.
    The union view of a partition (``PDOperator.partition``) holds every
    point and the two sides' blocks, each writing its sums at its global
    rows, so its rates are the full view's, in global order.  ``sel``
    selects the view's rows of the state and the body force.  The steps
    hold no array of their own: their selectors are slices or the blocks'
    row arrays.  Under the linear law a call's buffer holds +0.0 and the
    dot products the blocks compute, ``n_dots`` in all (0: no buffer); the
    union's sides use one buffer in turn.
    """

    rows: np.ndarray            # global point indices, ascending
    n_bonds: int                # bonds of the view's rows
    n_dots: int                 # length of a call's dot buffer
    steps: list                 # (block, source, dest); none if no bonds
    sel: slice | np.ndarray
    constrained_local: np.ndarray
    v_prescribed: np.ndarray
    offsets: np.ndarray = field(repr=False)  # the neighbor list's, shared

    @property
    def blocks(self) -> list:
        """The view's _Block row blocks, in evaluation order."""
        return [blk for blk, *_ in self.steps]

    @functools.cached_property
    def bond_sel(self) -> np.ndarray | range:
        """Bond ids, grouped by row in CSR order; a view over every point
        sets range(n_bonds).  Built on first access: rates never reads
        them."""
        return _concat_ranges(self.offsets[self.rows],
                              self.offsets[self.rows + 1])


def _selector(rows: np.ndarray) -> slice | np.ndarray:
    """``rows`` as a slice when they run contiguously upwards, else as
    they are."""
    if len(rows) and np.all(np.diff(rows) == 1):
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def _eta(blk: _Block, u: np.ndarray, rows, out=None) -> np.ndarray:
    """Relative displacements u[nbr] - u[row] over a block's computed
    slots, (dim, C, R), from the (dim, N) displacements ``u``, into ``out``
    if given; ``rows`` selects the block's rows (a slice or their ids)."""
    # "clip" leaves ``out`` unbuffered and, all indices in range, each value
    eta = np.take(u, blk.nbr, axis=1, out=out, mode="clip")
    # np.take gathers columns several times faster than fancy indexing
    eta -= u[:, None, rows] if isinstance(rows, slice) \
        else np.take(u, rows, axis=1)[:, None]
    return eta


class PDOperator:
    """The semi-discrete spatial operator for one cloud + material + loading.

    The operator owns its neighbor list ``nbrs``: a copy of the given one
    that shares its read-only topology but holds its own bond flags,
    ``version``, split and damage table, so checks go through ``op.nbrs``.
    Between steps only the flags change, written by the damage update,
    and the blocks' flag caches follow them.

    The full view, over every point, is built on first use.  ``partition``
    replaces it with the union of the two sides' views, sharing their
    blocks, so a split operator holds its bond data once.  The full view
    and the split last one run: ``drop_run_caches`` drops them.
    """

    def __init__(self, cloud: PointCloud, nbrs: NeighborList,
                 material: Material, loadings=(), law: str = "linear"):
        if law not in ("linear", "nonlinear"):
            raise ValueError(f"unknown force law {law!r}")
        material.validate()
        self.cloud = cloud
        self.nbrs = replace(nbrs, mu=nbrs.mu.copy())
        self.material = material
        self.law = law
        self.alpha = calibrate_alpha(material, nbrs.delta, cloud.dim,
                                     cloud.thickness)
        n, dim = cloud.n_points, cloud.dim

        # (n, dim) rows of a component-major array, the layout rates reads
        self.body = np.zeros((dim, n)).T
        constrained = np.zeros(n, dtype=bool)
        v_presc = np.zeros((n, dim))
        for load in loadings:
            value = np.asarray(load.value, dtype=float)
            if value.shape != (dim,):
                raise ValueError(
                    f"loading value must have {dim} components, got {value.shape}")
            if load.kind == "body_force_layer":
                self.body[load.indices] += value
            else:
                overlap = constrained[load.indices]
                if np.any(overlap):
                    raise GeometryError(
                        "velocity-constraint layers overlap at point "
                        f"{load.indices[np.flatnonzero(overlap)[0]]}")
                constrained[load.indices] = True
                v_presc[load.indices] = value
        self.constrained_mask = constrained
        self.v_prescribed_full = v_presc
        self._full_view = None

    def make_view(self, rows: np.ndarray) -> _View:
        """Precompute the bond slice for evaluating rates at ``rows`` only,
        as the fewest row blocks of equal row counts (give or take one)
        whose (dim, slot, row) arrays hold at most 3 * _BLOCK_SLOTS
        doubles, at the view's widest slot groups.  The blocks tile the
        rows in order, so a dot product a block copies (see _Block) is
        evaluated in an earlier block or earlier in the same one: bond
        i -> j and its partner j -> i have the same, bit for bit, as q and
        eta both negate exactly."""
        rows = np.asarray(rows, dtype=np.int64)
        off = self.nbrs.offsets
        counts = off[rows + 1] - off[rows]
        n_bonds = int(counts.sum())
        steps, n_dots = [], 1
        if n_bonds:
            low = self._lower_counts(rows, counts)
            width = int(low.max() + np.maximum(counts - low, 1).max())
            per = max(1, 3 * _BLOCK_SLOTS // (self.cloud.dim * width))
            n_blocks = -(-len(rows) // per)
            ends = (np.arange(n_blocks + 1) * len(rows) // n_blocks).tolist()
            outside = np.ones(self.cloud.n_points, dtype=bool)
            outside[rows] = False
            # the dot product of a computed slot of bond b of view row j
            # sits at b * stride[j] + base[j], set by j's block
            stride = np.zeros(self.cloud.n_points, dtype=np.int64)
            base = np.zeros_like(stride)
            pos = [np.ascontiguousarray(p) for p in self.nbrs.positions.T]
            for lo, hi in zip(ends, ends[1:]):
                blk = self._block(rows[lo:hi], low[lo:hi], n_dots, pos,
                                  outside, stride, base)
                n_dots += blk.nbr.size + blk.cross.shape[1]
                steps.append((blk, _selector(blk.rows), slice(lo, hi)))
        if not any(len(blk.mirror) for blk, *_ in steps):
            n_dots = 0  # nothing copies, so no block keeps its dot products
            for blk, *_ in steps:
                blk.at = None
        return self._view(rows, n_bonds, n_dots, steps)

    def _lower_counts(self, rows, counts) -> np.ndarray:
        """Each row's bonds to lower neighbors under the linear law (0 under
        the nonlinear one), counted in chunks of _BLOCK_SLOTS slots."""
        low = np.zeros(len(rows), dtype=np.int64)
        per = max(1, _BLOCK_SLOTS // int(counts.max()))
        for lo in range(0, len(rows) if self.law == "linear" else 0, per):
            chunk = slice(lo, lo + per)
            bond, pad = _slot_bonds(self.nbrs, rows[chunk], 0, 0,
                                    int(counts[chunk].max()))
            below = self.nbrs.neighbors[bond] < rows[chunk]
            low[chunk] = (below & ~pad).sum(axis=0)
        return low

    def _view(self, rows, n_bonds, n_dots, steps) -> _View:
        """The view of ``rows`` that ``steps`` evaluate."""
        cons = np.flatnonzero(self.constrained_mask[rows])
        return _View(rows=rows, n_bonds=n_bonds, n_dots=n_dots, steps=steps,
                     sel=_selector(rows), constrained_local=cons,
                     v_prescribed=self.v_prescribed_full[rows[cons]],
                     offsets=self.nbrs.offsets)

    def _block(self, rows, low, at, pos, outside, stride, base) -> _Block:
        nbrs, n_rows = self.nbrs, len(rows)
        m = int(low.max())
        c = max(int((nbrs.offsets[rows + 1] - nbrs.offsets[rows] - low)
                    .max()), 1)
        bond, pad = _slot_bonds(nbrs, rows, low, m, c)
        nbr = nbrs.neighbors[bond].astype(np.intp)
        np.copyto(nbr, rows, where=pad)
        below = nbr[:m]
        cross = outside[below]  # a pad's neighbor is its row, in the view
        n_cross = int(np.count_nonzero(cross))
        if m and np.count_nonzero(~pad[:m]) - n_cross < _MIRROR_MIN:
            return self._block(rows, np.zeros_like(low), at, pos, outside,
                               stride, base)
        stride[rows] = n_rows
        base[rows] = at + np.arange(n_rows) \
            - (nbrs.offsets[rows] + low) * n_rows
        mirror = np.take(nbrs.partner, bond[:m]) * stride[below]
        mirror += base[below]
        mirror[pad[:m]] = 0
        mirror[cross] = np.arange(n_cross) + (at + c * n_rows)
        # xi = x_j - x_i from the position components ``pos``, and |xi| by
        # _norm, bit for bit the neighbor list's derived xi and xi_norm
        xi = np.empty((len(pos),) + nbr.shape)
        for xi_k, pos_k in zip(xi, pos):
            np.take(pos_k, nbr, out=xi_k)
            xi_k -= pos_k[rows]
        xi[0][pad] = 1.0  # a pad's x_j - x_i is +0.0: make it e0
        length = _norm(xi)
        if self.law == "linear":
            bond_factor(xi, length, self.alpha, out=xi)
            length = None
        return _Block(
            rows=rows, low=low, mirror=mirror.astype(np.intp),
            nbr=nbr[m:].copy() if m else nbr,
            cross=np.stack([bond[:m][cross], below[cross],
                            np.broadcast_to(rows, below.shape)[cross]]),
            cross_vec=xi[:, :m][:, cross], at=at, vec=xi, length=length)

    def _pair_forces(self, blk: _Block, u: np.ndarray, rows, dots):
        """The block's (scale, direction) under the operator's law, from
        the (dim, N) displacements ``u``; under the linear law through the
        call's buffer ``dots`` (see _Block)."""
        alive = blk.alive(self.nbrs)
        own = None if alive is None else \
            alive[:blk.nbr.size].reshape(blk.nbr.shape)
        if self.law == "nonlinear":
            coef = self.alpha if own is None else self.alpha * own
            return pairwise_force_nonlinear(blk.vec, _eta(blk, u, rows),
                                            blk.length, coef)
        m, (c, n_rows) = len(blk.mirror), blk.nbr.shape
        held = eta = None
        if m:  # the dot products share one array with eta: eta[0] is dot[m:]
            held = np.empty((m + len(u) * c) * n_rows)
            eta = held[m * n_rows:].reshape(len(u), c, n_rows)
        dot, _ = pairwise_force_linear(blk.vec[:, m:], _eta(blk, u, rows, eta),
                                       own)
        if m:
            dot = held[:(m + c) * n_rows].reshape(m + c, n_rows)
        if blk.at is None:
            return dot, blk.vec
        stop = blk.at + blk.nbr.size
        dots[blk.at:stop] = dot[m:].ravel()
        if blk.cross.shape[1]:
            _, j, i = blk.cross
            eta = np.take(u, j, axis=1)
            eta -= np.take(u, i, axis=1)
            dots[stop:stop + len(j)] = pairwise_force_linear(
                blk.cross_vec, eta,
                None if alive is None else alive[blk.nbr.size:])[0]
        if m:
            np.take(dots, blk.mirror, out=dot[:m], mode="clip")
        return dot, blk.vec

    @property
    def full_view(self) -> _View:
        """The view over every point: built on first use, or the union of
        the two sides of the latest ``partition``, until the end of the run
        (``drop_run_caches``)."""
        if self._full_view is None:
            view = self.make_view(np.arange(self.cloud.n_points))
            view.bond_sel = range(view.n_bonds)
            self._full_view = view
        return self._full_view

    def partition(self, rows_a: np.ndarray, rows_b: np.ndarray) -> tuple:
        """The views of two row sets that partition the points, and the
        bond masks of the two sides: side b holds every bond with an end
        in ``rows_b``, side a the rest.

        The full view becomes their union, replacing any earlier one: the
        two views' own blocks, each writing at its global rows, so the bond
        data is held once and ``rates(y, t)`` keeps returning every row in
        global order, bit for bit.  The masks are read-only and kept as
        ``nbrs.bond_sides``, which split the damage table (see
        ``update_damage``); a new split drops the old table.  The split
        lasts one run, as the full view does (``drop_run_caches``).
        """
        n = self.cloud.n_points
        rows = np.concatenate([rows_a, rows_b])
        if len(rows) != n or np.any(np.bincount(rows, minlength=n) != 1):
            raise ValueError("row sets do not partition the points")
        # free the old split's blocks and damage table before the new exist
        self._full_view = self.nbrs.damage_table = None
        views = self.make_view(rows_a), self.make_view(rows_b)
        full = self._view(np.arange(n, dtype=np.int64), self.nbrs.n_bonds,
                          max(view.n_dots for view in views),
                          [(blk, src, src) for view in views
                           for blk, src, _ in view.steps])
        full.bond_sel = range(full.n_bonds)
        self._full_view = full
        in_b = np.zeros(n, dtype=bool)
        in_b[rows_b] = True
        side_b = np.repeat(in_b, self.nbrs.counts())
        side_b |= in_b[self.nbrs.neighbors]
        side_a = ~side_b
        side_a.flags.writeable = side_b.flags.writeable = False
        self.nbrs.bond_sides = (side_a, side_b)
        return views + self.nbrs.bond_sides

    def drop_run_caches(self):
        """Drop what a run derives and an idle operator need not hold: the
        full view and its blocks' flag caches, the split (``bond_sides``)
        and the damage table with its skin state.  An idle operator then
        holds its topology and bond flags only; the next check or ``rates``
        call rebuilds what it needs."""
        self.nbrs.damage_table = self.nbrs.bond_sides = None
        if self._full_view is not None:
            for blk in self._full_view.blocks:
                blk.flags, blk.version = None, -1
        self._full_view = None

    def rates(self, y: np.ndarray, t: float, view: _View | None = None) -> np.ndarray:
        """d/dt of the packed state at the view's rows.

        Neighbor values are read from the full array ``y``; only the target
        rows are written.  Per-point sums run in ascending neighbor order,
        so results are reproducible bit-for-bit.  The bonds are evaluated
        one row block at a time, so the temporaries stay in cache, by the
        view's steps: one slot sum per block for every component, written
        in place or, in a union view, scattered.  The returned array is new
        on every call.

        A row's rates do not depend on the view or block that holds it.
        Pad slots add +0.0 after a group of a row's bonds, and the slot sum
        of a block of several rows starts from +0.0; either can only turn a
        -0.0 partial sum into +0.0, and adding the body force (never -0.0)
        turns a -0.0 force sum into +0.0 too.  With ``view`` None this is
        the full view.
        """
        if view is None:
            view = self.full_view
        dim = self.cloud.dim
        # one (dim, N) copy: np.take gathers from contiguous components far
        # faster than from the strided y[:, :dim]; the values are the same
        u = y[:, :dim].T.copy()
        # component-major, so a block's sums land in contiguous slices
        force = np.zeros((dim, len(view.rows)))
        dots = None
        if view.n_dots:
            dots = np.empty(view.n_dots)
            dots[0] = 0.0  # what mirrored pads copy
        # the lowest collapsed bond: a union view's blocks run out of order
        collapsed = self.nbrs.n_bonds
        # overflow/NaN propagate silently here; the trap below names them
        with np.errstate(over="ignore", invalid="ignore"):
            for blk, rows, dest in view.steps:
                try:
                    scale, direction = self._pair_forces(blk, u, rows, dots)
                except BondCollapseError as err:
                    collapsed = min(collapsed, int(
                        blk.bonds(self.nbrs)[err.collapsed].min()))
                    continue
                if isinstance(dest, slice):
                    _slot_sums(scale, direction, force[:, dest])
                else:
                    # a scatter per component: a 2D one is several times
                    # slower
                    sums = _slot_sums(scale, direction)
                    for force_k, sums_k in zip(force, sums):
                        force_k[dest] = sums_k
            if collapsed < self.nbrs.n_bonds:
                raise SimulationError(
                    f"bond {self.nbrs.bond_i[collapsed]} -> "
                    f"{self.nbrs.neighbors[collapsed]} "
                    f"collapsed to zero length at t={t:.6e}")
            force *= self.cloud.volume_per_point
            body = self.body.T
            if isinstance(view.sel, slice):
                force += body[:, view.sel]
                velocity = y[view.sel, dim:]
            else:
                force += np.take(body, view.sel, axis=1)
                # np.take(..., axis=0) gathers whole rows about ten times
                # faster than fancy indexing does; the values are the same
                velocity = np.take(y, view.sel, axis=0)[:, dim:]
            force /= self.material.rho
        # one column at a time: a transposing copy is about three times
        # slower
        out = np.empty((len(view.rows), 2 * dim))
        for k, accel in enumerate(force):
            out[:, k] = velocity[:, k]
            out[:, dim + k] = accel
        if len(view.constrained_local):
            out[view.constrained_local, :dim] = view.v_prescribed
            out[view.constrained_local, dim:] = 0.0
        if not np.isfinite(out).all():
            bad = np.flatnonzero(~np.isfinite(out).all(axis=1))[0]
            raise InstabilityError(point=int(view.rows[bad]), t=t)
        return out


# The damage check's Verlet skin (Verlet 1967; Plimpton 1995, "Fast
# parallel algorithms for short-range molecular dynamics").  A refresh
# tests every half-bond of a side and watches those within the skin of
# breaking; later checks test only the watched ones while a bound on how far
# any bond's deformed vector moved since the refresh stays under the skin.
# The skin is this fraction of s0 * min|xi|: under 1, so an undeformed
# body watches no bond (each slack is then about s0 |xi|), and close to 1,
# since a wider skin refreshes less often.  The bound carries a rounding
# margin of this many machine epsilons times max|x| + max|u| + max|u_ref|
# + (1 + s0) max|xi|; the last term bounds the deformed length of every
# unwatched half-bond, whose length plus the skin stays short of breaking.
# The rounding of p = x + u, of the deformed vectors and their lengths (at
# the refresh and at the check), of a length plus the skin and of the box
# of u - u_ref adds up to under 20 eps of that sum.
_SKIN_FRACTION = 0.9
_SKIN_ROUNDING = 32 * np.finfo(float).eps


@dataclass
class _Side:
    """One side of the half-bond table: its half-bonds ``ids`` (ascending),
    their lengths |xi| (bit for bit the list's ``xi_norm``) and ``points``,
    the ends of its half-bonds (ascending); and the state of its latest
    refresh: the displacements then at ``points``, their largest
    component, and the watched half-bonds (ids, intp ends i and j,
    lengths |xi|)."""

    ids: np.ndarray     # int32 bond ids
    length: np.ndarray  # float64 |xi|
    points: np.ndarray
    u_ref: np.ndarray | None = None  # (dim, len(points))
    u_ref_max: float = 0.0
    watch: tuple = ()
    checks: int = 0
    refreshes: int = 0


@dataclass
class _HalfBonds:
    """Every bond once, towards its higher point index, as one ``_Side``
    per side of the list's ``bond_sides`` (one side when it has none):
    12 B per half-bond.  A refresh derives the ends of a chunk of them
    (``_chunk_lengths``).

    The skin state, over every side: ``skin`` (_SKIN_FRACTION * s0 *
    min|xi|) and ``reach`` (max|x| + (1 + s0) max|xi|, the static part of
    the rounding margin)."""

    s0: float
    skin: float
    reach: float
    sides: list


def _chunk_lengths(nbrs: NeighborList, ids: np.ndarray, coords: list):
    """The two ends (intp) of the bonds ``ids`` and their lengths |c_j -
    c_i| in ``coords``, one contiguous array per component: the positions
    give |xi|, bit for bit the list's ``xi_norm``, and p = x + u the
    deformed lengths.  A bond's far end is its neighbor, and its source
    the neighbor of its reversed bond."""
    ids = ids.astype(np.intp)
    back = np.take(nbrs.partner, ids).astype(np.intp)
    i = np.take(nbrs.neighbors, back).astype(np.intp)
    j = np.take(nbrs.neighbors, ids).astype(np.intp)
    return i, j, _norm([np.take(c, j) - np.take(c, i) for c in coords])


def _nonzero32(mask: np.ndarray) -> np.ndarray:
    """np.flatnonzero(mask) as int32, found in chunks of _BLOCK_SLOTS, so
    that no int64 array spans the result."""
    ids = np.empty(np.count_nonzero(mask), dtype=np.int32)
    at = 0
    for lo in range(0, len(mask), _BLOCK_SLOTS):
        part = np.flatnonzero(mask[lo:lo + _BLOCK_SLOTS])
        ids[at:at + len(part)] = part + lo
        at += len(part)
    return ids


def _half_bonds(nbrs: NeighborList, s0: float) -> _HalfBonds:
    """The list's half-bond table at s0, one side per mask of
    ``nbrs.bond_sides``, each with no refresh.  Every side's ids are found
    before the bool masks are freed, then each side's lengths and ends in
    chunks of _BLOCK_SLOTS bonds: no temporary mask outlives the ids.

    Raises ValueError unless s0 is positive and finite: a NaN or infinite
    s0 breaks no bond, and at s0 <= 0 every bond breaks at rest."""
    if not (np.isfinite(s0) and s0 > 0):
        raise ValueError(f"critical stretch s0 must be positive and finite, "
                         f"got {s0}")
    half = nbrs.neighbors > nbrs.bond_i
    ids = [_nonzero32(half & mask) for mask in nbrs.bond_sides or [True]]
    del half
    # np.take copies a strided source whole on every call
    pos = [np.ascontiguousarray(p) for p in nbrs.positions.T]
    sides = []
    for side_ids in ids:
        length = np.empty(len(side_ids))
        ends = np.zeros(nbrs.n_points, dtype=bool)
        for lo in range(0, len(side_ids), _BLOCK_SLOTS):
            chunk = slice(lo, lo + _BLOCK_SLOTS)
            i, j, length[chunk] = _chunk_lengths(nbrs, side_ids[chunk], pos)
            ends[i] = ends[j] = True
        sides.append(_Side(ids=side_ids, length=length,
                           points=np.flatnonzero(ends)))
    held = [side.length for side in sides if len(side.ids)]
    longest = max((length.max() for length in held), default=0.0)
    shortest = min((length.min() for length in held), default=0.0)
    reach = np.abs(nbrs.positions).max(initial=0.0) + (1.0 + s0) * longest
    return _HalfBonds(s0=s0, skin=_SKIN_FRACTION * s0 * shortest,
                      reach=float(reach), sides=sides)


def update_damage(nbrs: NeighborList, u: np.ndarray, s0: float,
                  bond_mask: np.ndarray | None = None) -> int:
    """Break every alive bond whose stretch reaches s0 (s >= s0, inclusive).

    Both directions of a bond break together; flags never reset.  Returns
    the number of newly broken (undirected) bonds.  ``bond_mask`` limits the
    check to one side of the split that ``PDOperator.partition`` made: it
    must be one of ``nbrs.bond_sides``, by identity, and any other mask
    raises ValueError.

    The list keeps one half-bond table, ``nbrs.damage_table``, with one
    side per mask of ``nbrs.bond_sides``, rebuilt when s0 changes (a new
    partition or the run's end drops it).  A side's mask checks that side,
    no mask every side.

    Each undirected bond is evaluated once, in its direction towards the
    higher point index.  The reversed bond's deformed vector is the exact
    negation, so checking it would change nothing.  The test is the
    stretch formula, ``bond_stretch(|p_j - p_i|, |xi|) >= s0`` with
    p = x + u, on the lengths the table holds.

    Each side keeps a Verlet skin (``_check_side``): most checks test only
    the half-bonds that were near breaking at the side's latest refresh,
    with the same test, and so make the same decisions as a test of every
    half-bond.  The stretch rises with the deformed length under rounding
    too, so a half-bond that the skin's growth of its length at the
    refresh would not break cannot break while the drift bound, rounding
    margin included, stays under the skin.
    """
    sides = nbrs.bond_sides or ()
    if bond_mask is not None and not any(bond_mask is m for m in sides):
        raise ValueError("bond_mask must be one of the bond masks of the "
                         "operator's partition (nbrs.bond_sides)")
    table = nbrs.damage_table
    if table is None or table.s0 != s0:
        table = nbrs.damage_table = _half_bonds(nbrs, s0)
    checked = table.sides
    if bond_mask is not None:
        checked = [checked[0 if bond_mask is sides[0] else 1]]
    return _break_bonds(nbrs, np.concatenate(
        [_check_side(nbrs, table, side, u) for side in checked]))


def _check_side(nbrs: NeighborList, table: _HalfBonds, side: _Side,
                u: np.ndarray) -> np.ndarray:
    """The ids of the side's half-bonds whose stretch reaches s0.

    While ``_drift`` stays under the skin, no half-bond that was more than
    the skin from breaking at the latest refresh can have reached it, so
    only the watched ones are tested.  Otherwise (and at the first check)
    the side refreshes: every half-bond is tested and the watch list and
    the reference displacements are rebuilt.
    """
    side.checks += 1
    if side.u_ref is not None and _drift(table, side, u) < table.skin:
        ids, i, j, length = side.watch
        # p_j - p_i as the refresh computes it, at the watched ends only;
        # fancy indexing reads the strided columns without copying them
        deformed = [(x_k[j] + u_k[j]) - (x_k[i] + u_k[i])
                    for x_k, u_k in zip(nbrs.positions.T, u.T)]
        return ids[bond_stretch(_norm(deformed), length) >= table.s0]
    side.refreshes += 1
    p = [nbrs.positions[:, k] + u[:, k] for k in range(u.shape[1])]
    empty = np.empty(0, dtype=np.intp)
    hits = [np.empty(0, dtype=np.int32)]
    watch = [(hits[0], empty, empty, np.empty(0))]
    for lo in range(0, len(side.ids), _BLOCK_SLOTS):
        chunk = slice(lo, lo + _BLOCK_SLOTS)
        ids, length = side.ids[chunk], side.length[chunk]
        # Broken bonds are evaluated and watched too; _break_bonds skips
        # them.
        i, j, grown = _chunk_lengths(nbrs, ids, p)
        hits.append(ids[bond_stretch(grown, length) >= table.s0])
        # watched: the half-bonds that a growth of their length by the skin
        # breaks
        grown += table.skin
        near = np.flatnonzero(bond_stretch(grown, length) >= table.s0)
        watch.append((ids[near], i[near], j[near], length[near]))
    side.watch = tuple(map(np.concatenate, zip(*watch)))
    side.u_ref = np.stack([u_k[side.points] for u_k in u.T])
    side.u_ref_max = float(np.abs(side.u_ref).max(initial=0.0))
    return np.concatenate(hits)


def _drift(table: _HalfBonds, side: _Side, u: np.ndarray) -> float:
    """An upper bound on how far any of the side's deformed bond vectors
    moved since its latest refresh, rounding margin included.

    Over the side's points, component k of u - u_ref lies in [lo_k, hi_k].
    Both ends of a half-bond are side points, so component k of its change
    (u_j - u_j,ref) - (u_i - u_i,ref) lies within hi_k - lo_k, and the box's
    diagonal |hi - lo| bounds it: a rigid motion of the side costs nothing.
    NaN (a non-finite u) reads as no bound, and the side refreshes.  A side
    with no half-bonds has no points and reads 0.
    """
    if not len(side.points):
        return 0.0
    du = np.stack([u_k[side.points] for u_k in u.T])
    du -= side.u_ref
    lo, hi = du.min(axis=1), du.max(axis=1)
    scale = table.reach + 2.0 * side.u_ref_max + max(-lo.min(), hi.max())
    return _norm(hi - lo) + _SKIN_ROUNDING * scale


def _break_bonds(nbrs: NeighborList, ids: np.ndarray) -> int:
    """Break the bonds ``ids`` in both directions; returns the number of
    undirected bonds that were alive before.  The one writer of the
    read-only ``nbrs.mu``: it bumps ``nbrs.version`` when a flag changes."""
    if len(ids) == 0:
        return 0
    both = np.union1d(ids, nbrs.partner[ids])
    newly = both[nbrs.mu[both]]
    if len(newly):
        nbrs.mu.flags.writeable = True
        try:
            nbrs.mu[newly] = False
        finally:
            nbrs.mu.flags.writeable = False
        nbrs.version += 1
    return len(newly) // 2


def break_precrack_bonds(cloud: PointCloud, nbrs: NeighborList,
                         segment) -> int:
    """Cut every bond whose open segment crosses the (closed) crack segment.

    2D only.  Returns the number of undirected bonds broken.  Only the bonds
    of points near the segment are tested: a crossing bond is no longer than
    the horizon, so both its ends lie within it of the crossing point.
    """
    if cloud.dim != 2:
        raise ValueError("pre-cracks are only supported in 2D")
    c = np.asarray(segment[0], dtype=float)
    d = np.asarray(segment[1], dtype=float)
    # twice the neighbor build's reach: the factor absorbs rounding
    margin = 2.0 * nbrs.delta * (1.0 + HORIZON_TOL)
    near = np.flatnonzero(_in_boxes(cloud.positions, [
        (np.minimum(c, d) - margin, np.maximum(c, d) + margin)]))
    start, stop = nbrs.offsets[near], nbrs.offsets[near + 1]
    ids = _concat_ranges(start, stop)
    a = cloud.positions[np.repeat(near, stop - start)]
    b = cloud.positions[nbrs.neighbors[ids]]

    def cross(o, p, q):
        return (p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1]) \
            - (p[..., 1] - o[..., 1]) * (q[..., 0] - o[..., 0])

    d1 = cross(c, d, a)
    d2 = cross(c, d, b)
    d3 = cross(a, b, c)
    d4 = cross(a, b, d)
    # Bond endpoints strictly on opposite sides of the crack line (open bond
    # segment), crossing point within the closed crack segment.
    hits = (d1 * d2 < 0.0) & (d3 * d4 <= 0.0)
    return _break_bonds(nbrs, ids[hits & nbrs.mu[ids]])


def damage_index(nbrs: NeighborList) -> np.ndarray:
    """Volume-weighted fraction of broken bonds per point, in [0, 1].

    With uniform point volumes this is 1 - (alive bonds / total bonds).
    Points without bonds report 0.
    """
    counts = nbrs.counts().astype(float)
    # the flags are bool: these are integer counts
    total = np.concatenate(([0], np.cumsum(nbrs.mu)))
    alive = total[nbrs.offsets[1:]] - total[nbrs.offsets[:-1]]
    phi = np.zeros(nbrs.n_points)
    has = counts > 0
    phi[has] = 1.0 - alive[has] / counts[has]
    return phi
