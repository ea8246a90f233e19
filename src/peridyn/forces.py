"""Bond forces, the semi-discrete spatial operator, and bond damage.

The operator maps a packed state array Y = [u | v] of shape (N, 2*dim) to
its time derivative: du/dt = v and dv/dt = (sum of pairwise bond forces
times neighbor volume, plus body force) / rho.  Velocity-constraint layers
override du/dt with the prescribed velocity and zero the acceleration.

Evaluation can be restricted to a subset of target points (a "view"): the
multi-time-step scheme advances the coarse and fine subdomains separately
and must not pay for force sums outside the active subdomain.  A view is
only its rows: every view reads one bond table per operator, and a compiled
loop (``_bonds.c``) sums each row's bonds in CSR order.  It also builds that
table and the damage check's from the positions, by + - * / and sqrt only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (_LIB, HORIZON_TOL, GeometryError, NeighborList,
                       PointCloud, _concat_ranges, _in_boxes)

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
    9E/(pi delta^3 d) in 2D, 12E/(pi delta^4) in 3D, the powers as
    products.
    """
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"horizon must be positive and finite, got {delta}")
    cube = delta * delta * delta
    if dim == 2:
        if thickness is None or not (np.isfinite(thickness) and thickness > 0):
            raise ValueError("2D calibration requires a positive and finite "
                             f"thickness, got {thickness}")
        return 9.0 * material.E / (np.pi * cube * thickness)
    if dim == 3:
        return 12.0 * material.E / (np.pi * (cube * delta))
    raise ValueError(f"dim must be 2 or 3, got {dim}")


def bond_stretch(deformed_norm, xi_norm):
    """Relative bond elongation s = (|xi + eta| - |xi|) / |xi| from the
    deformed length |xi + eta| and the cached |xi|."""
    return (deformed_norm - xi_norm) / xi_norm


# The compiled rates (``_bonds.c``) take the index of the law here.
_LAWS = ("linear", "nonlinear")


@dataclass
class _View:
    """The target rows at which ``rates`` evaluates, in their order, as
    read-only int64 ids; ``n_bonds`` counts their bonds."""

    rows: np.ndarray            # global point indices
    n_bonds: int                # bonds of the view's rows
    offsets: np.ndarray = field(repr=False)  # the neighbor list's, shared

    @functools.cached_property
    def bond_sel(self) -> np.ndarray | range:
        """Bond ids, grouped by row in CSR order; a view over every point
        sets range(n_bonds).  Built on first access: rates never reads
        them."""
        return _concat_ranges(self.offsets[self.rows],
                              self.offsets[self.rows + 1])


class PDOperator:
    """The semi-discrete spatial operator for one cloud + material + loading.

    The operator owns its neighbor list ``nbrs``: a copy of the given one
    that shares its read-only topology but holds its own bond flags,
    ``version``, split and damage table, so checks go through ``op.nbrs``.
    Between steps only the flags change, written by the damage update;
    ``rates`` reads them on every call.

    The full view, over every point, and the bond table that ``rates``
    reads (``bond_table``) are built on first use and last one run, as the
    split does: ``drop_run_caches`` drops them.
    """

    def __init__(self, cloud: PointCloud, nbrs: NeighborList,
                 material: Material, loadings=(), law: str = "linear"):
        if law not in _LAWS:
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
        # one run's kernel inputs: (arrays, leading arguments), see
        # _kernel_args
        self._kernel = None

    def make_view(self, rows: np.ndarray) -> _View:
        """The view that evaluates rates at ``rows`` only, in their order;
        it holds its own read-only copy of them."""
        rows = np.array(rows, dtype=np.int64)
        n = self.cloud.n_points
        if rows.ndim != 1 or (len(rows) and not (
                rows.min() >= 0 and rows.max() < n)):
            raise ValueError(f"view rows must be point ids in [0, {n})")
        rows.flags.writeable = False
        off = self.nbrs.offsets
        return _View(rows=rows, n_bonds=int((off[rows + 1] - off[rows]).sum()),
                     offsets=off)

    @property
    def full_view(self) -> _View:
        """The view over every point: built on first use, until the end of
        the run (``drop_run_caches``)."""
        if self._full_view is None:
            view = self.make_view(np.arange(self.cloud.n_points))
            view.bond_sel = range(view.n_bonds)
            self._full_view = view
        return self._full_view

    @property
    def bond_table(self) -> np.ndarray | None:
        """What ``rates`` reads per bond, in CSR order: the linear law's
        bond factor q = sqrt(alpha / |xi|^3) xi as (dim, n_bonds), or xi
        then |xi| as (dim + 1, n_bonds) under the nonlinear one; built by
        a run's first ``rates`` call (``peridyn_bond_table``), None before
        it."""
        return None if self._kernel is None else self._kernel[0][0]

    def partition(self, rows_a: np.ndarray, rows_b: np.ndarray) -> tuple:
        """The views of two row sets that partition the points, and the
        bond masks of the two sides: side b holds every bond with an end
        in ``rows_b``, side a the rest.

        The masks are read-only and kept as ``nbrs.bond_sides``, which
        split the damage table (see ``update_damage``); a new split drops
        the old table.  The split lasts one run (``drop_run_caches``).
        """
        n = self.cloud.n_points
        rows = np.concatenate([rows_a, rows_b])
        if len(rows) != n or np.any(np.bincount(rows, minlength=n) != 1):
            raise ValueError("row sets do not partition the points")
        self.nbrs.damage_table = None
        views = self.make_view(rows_a), self.make_view(rows_b)
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
        full view, the bond table, the split (``bond_sides``) and the
        damage table with its skin state.  An idle operator then holds its
        topology and bond flags only; the next check or ``rates`` call
        rebuilds what it needs."""
        self.nbrs.damage_table = self.nbrs.bond_sides = None
        self._full_view = self._kernel = None

    def _kernel_args(self) -> tuple:
        """The arguments of the run's kernel calls that come before the
        view's: built on a run's first call, with the bond table, and held
        with the arrays they point into, so no address outlives its
        array.  The flags and the state are read per call."""
        if self._kernel is None:
            nbrs, cloud = self.nbrs, self.cloud
            # the lowest collapsed bond goes to ``collapsed``
            held = (np.empty((cloud.dim + (self.law == "nonlinear"),
                              nbrs.n_bonds)),
                    np.empty(1, dtype=np.int64),
                    np.ascontiguousarray(nbrs.offsets, dtype=np.int64),
                    np.ascontiguousarray(nbrs.neighbors, dtype=np.int32),
                    np.ascontiguousarray(self.body.T), self.constrained_mask,
                    self.v_prescribed_full)
            table, collapsed, off, nbr, body, cons, v_presc = held
            head = (_LAWS.index(self.law), cloud.dim, cloud.n_points,
                    nbrs.n_bonds, off.ctypes.data, nbr.ctypes.data)
            x = np.ascontiguousarray(nbrs.positions, dtype=np.float64)
            _LIB.peridyn_bond_table(*head, x.ctypes.data, self.alpha,
                                    table.ctypes.data)
            self._kernel = held, (
                *head, table.ctypes.data, body.ctypes.data, cons.ctypes.data,
                v_presc.ctypes.data, cloud.volume_per_point,
                self.material.rho, self.alpha, COLLAPSE_TOL,
                collapsed.ctypes.data)
        return self._kernel[1]

    def rates(self, y: np.ndarray, t: float, view: _View | None = None) -> np.ndarray:
        """d/dt of the packed state at the view's rows.

        Neighbor values are read from the full array ``y``; only the target
        rows are written.  Each row sums its bonds in ascending neighbor
        order in the compiled loop (``_bonds.c``), so a row's rates are the
        same, bit for bit, in any view.  The returned array is new on every
        call.  With ``view`` None this is the full view.

        Raises SimulationError naming the lowest bond of the view whose
        deformed length collapsed (nonlinear law), else InstabilityError
        naming the view's first row with a non-finite rate; ValueError for
        a state that is not (N, 2 * dim).
        """
        if view is None:
            view = self.full_view
        args = self._kernel_args()
        dim = self.cloud.dim
        y = np.ascontiguousarray(y, dtype=float)
        if y.shape != (self.cloud.n_points, 2 * dim):
            raise ValueError(f"state must be ({self.cloud.n_points}, "
                             f"{2 * dim}), got {y.shape}")
        mu = np.ascontiguousarray(self.nbrs.mu, dtype=bool)
        out = np.empty((len(view.rows), 2 * dim))
        bad = _LIB.peridyn_rates(*args, view.rows.ctypes.data, len(view.rows),
                                 mu.ctypes.data, y.ctypes.data,
                                 out.ctypes.data)
        collapsed = int(self._kernel[0][1][0])
        if collapsed >= 0:
            nbrs = self.nbrs
            i = np.searchsorted(nbrs.offsets, collapsed, side="right") - 1
            raise SimulationError(
                f"bond {i} -> {nbrs.neighbors[collapsed]} "
                f"collapsed to zero length at t={t:.6e}")
        if bad >= 0:
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
    component, and the watched half-bonds (int32 ids and ends i and j,
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
    12 B per half-bond.  A refresh derives their ends from ``offsets`` and
    ``neighbors``.

    The skin state, over every side: ``skin`` (_SKIN_FRACTION * s0 *
    min|xi|) and ``reach`` (max|x| + (1 + s0) max|xi|, the static part of
    the rounding margin)."""

    s0: float
    skin: float
    reach: float
    sides: list


def _half_bonds(nbrs: NeighborList, s0: float) -> _HalfBonds:
    """The list's half-bond table at s0, one side per mask of
    ``nbrs.bond_sides``, each with no refresh, built in ``_bonds.c`` by
    two passes over the list: one counts the side's half-bonds, so that
    its arrays have their size, the other fills them.

    Raises ValueError unless s0 is positive and finite: a NaN or infinite
    s0 breaks no bond, and at s0 <= 0 every bond breaks at rest."""
    if not (np.isfinite(s0) and s0 > 0):
        raise ValueError(f"critical stretch s0 must be positive and finite, "
                         f"got {s0}")
    off = np.ascontiguousarray(nbrs.offsets, dtype=np.int64)
    nbr = np.ascontiguousarray(nbrs.neighbors, dtype=np.int32)
    x = np.ascontiguousarray(nbrs.positions, dtype=np.float64)
    sides, spans = [], []
    for mask in nbrs.bond_sides or [None]:
        head = (x.shape[1], nbrs.n_points, off.ctypes.data, nbr.ctypes.data,
                x.ctypes.data, None if mask is None else mask.ctypes.data)
        ids = np.empty(_LIB.peridyn_half_bonds(*head, *[None] * 4),
                       dtype=np.int32)
        length, span = np.empty(len(ids)), np.empty(2)
        ends = np.zeros(nbrs.n_points, dtype=np.uint8)
        _LIB.peridyn_half_bonds(*head, *(a.ctypes.data for a in (
            ids, length, ends, span)))
        sides.append(_Side(ids=ids, length=length,
                           points=np.flatnonzero(ends)))
        if len(ids):
            spans.append(span)
    longest = max((span[1] for span in spans), default=0.0)
    shortest = min((span[0] for span in spans), default=0.0)
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
    raises ValueError, as does a ``u`` that is not (N, dim).

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
    the half-bonds that a growth of their length by the skin would have
    broken at the side's latest refresh.  The stretch rises with the
    length under rounding too, so no other half-bond can break while the
    drift bound, rounding margin included, stays under the skin.
    """
    sides = nbrs.bond_sides or ()
    if bond_mask is not None and not any(bond_mask is m for m in sides):
        raise ValueError("bond_mask must be one of the bond masks of the "
                         "operator's partition (nbrs.bond_sides)")
    u = _displacements(nbrs, u)
    table = nbrs.damage_table
    if table is None or table.s0 != s0:
        table = nbrs.damage_table = _half_bonds(nbrs, s0)
    checked = table.sides
    if bond_mask is not None:
        checked = [checked[0 if bond_mask is sides[0] else 1]]
    return _break_bonds(nbrs, np.concatenate(
        [_check_side(nbrs, table, side, u) for side in checked]))


def _displacements(nbrs: NeighborList, u) -> np.ndarray:
    """``u``, (N, dim) or a ValueError, as float64 rows of unit inner stride:
    the solver's ``y[:, :dim]`` is read in place, anything else converted."""
    u = np.asarray(u)
    if u.shape != nbrs.positions.shape:
        raise ValueError(f"displacement must be {nbrs.positions.shape}, "
                         f"got {u.shape}")
    if u.dtype == np.float64 and u.flags.aligned and u.strides[1] == 8 \
            and u.strides[0] % 8 == 0:
        return u
    return np.ascontiguousarray(u, dtype=np.float64)


def _check_side(nbrs: NeighborList, table: _HalfBonds, side: _Side,
                u: np.ndarray) -> np.ndarray:
    """The ids of the side's half-bonds whose stretch reaches s0, found in
    ``_bonds.c``: of the watched ones while ``_drift`` stays under the skin,
    else (and at the first check) of all, by a refresh, which rebuilds the
    watch list and the reference displacements."""
    side.checks += 1
    x = np.ascontiguousarray(nbrs.positions, dtype=np.float64)
    head = (u.shape[1], x.ctypes.data, u.ctypes.data, u.strides[0] // 8,
            table.s0)
    if side.u_ref is not None and _drift(table, side, u) < table.skin:
        hits = np.empty(len(side.watch[0]), dtype=np.int32)
        return hits[:_LIB.peridyn_watched(*head, len(hits), *(
            a.ctypes.data for a in (*side.watch, hits)))]
    side.refreshes += 1
    # room for every half-bond: pages that are never written cost no memory
    n = len(side.ids)
    watch = (*(np.empty(n, dtype=np.int32) for _ in range(3)), np.empty(n))
    hits, n_hits = np.empty(n, dtype=np.int32), np.empty(1, dtype=np.int64)
    off = np.ascontiguousarray(nbrs.offsets, dtype=np.int64)
    nbr = np.ascontiguousarray(nbrs.neighbors, dtype=np.int32)
    n_watch = _LIB.peridyn_refresh(
        *head, table.skin, off.ctypes.data, nbr.ctypes.data, n,
        *(a.ctypes.data for a in (side.ids, side.length, *watch, hits,
                                  n_hits)))
    side.watch = tuple(a[:n_watch].copy() for a in watch)
    side.u_ref = np.stack([u_k[side.points] for u_k in u.T])
    side.u_ref_max = float(np.abs(side.u_ref).max(initial=0.0))
    return hits[:n_hits[0]]


def _drift(table: _HalfBonds, side: _Side, u: np.ndarray) -> float:
    """A bound on how far any of the side's deformed bond vectors moved
    since its latest refresh, rounding margin included: the diagonal of the
    box of u - u_ref over the side's points, the ends of its half-bonds, so
    a rigid motion costs nothing.  NaN (a non-finite u) reads as no bound;
    a side with no points reads 0."""
    return _LIB.peridyn_drift(
        u.shape[1], u.ctypes.data, u.strides[0] // 8, len(side.points),
        side.points.ctypes.data, side.u_ref.ctypes.data, side.u_ref_max,
        table.reach, _SKIN_ROUNDING)


def _break_bonds(nbrs: NeighborList, ids: np.ndarray) -> int:
    """Break the bonds ``ids`` in both directions; returns the number of
    undirected bonds that were alive before.  The one writer of the
    read-only ``nbrs.mu``: it bumps ``nbrs.version`` when a flag changes."""
    if len(ids) == 0:
        return 0
    both = np.concatenate([ids, nbrs.partner[ids]])
    newly = np.unique(both[nbrs.mu[both]])  # most hits are broken already
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
