"""Material-point grids, horizon neighbor lists, and subdomain classification.

The spatial substrate is a uniform lattice of material points with one
volume per point (dx^2 * thickness in 2D, dx^3 in 3D).  Each point interacts
with every other point within the horizon radius ``delta``; the neighbor
list holds the bond topology and the per-bond alive flags ``mu`` that the
damage model mutates.  A bond's reference vector is ``x_j - x_i`` of the
cloud's positions, so consumers derive the geometry where they need it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Fractional slack on the horizon test so lattice points lying exactly on the
# horizon sphere (delta = m*dx configurations) are not lost to rounding.
HORIZON_TOL = 1e-12

# Extent/dx mismatch tolerated by build_grid, as a fraction of the extent.
GRID_FIT_TOL = 5e-3

# Subdomain labels: fine interior, fine boundary layer, coarse boundary
# layer, coarse interior.
LABEL_F = 0
LABEL_FI = 1
LABEL_CI = 2
LABEL_C = 3


class GeometryError(ValueError):
    """Raised for invalid grids, horizons, or selections."""


@dataclass
class PointCloud:
    """Uniform lattice of material points.

    positions has shape (N, dim) in meters; ``volume_per_point`` is the
    common cell volume (m^3).  ``thickness`` is the out-of-plane depth in 2D
    and None in 3D.  The points do not move: ``vtk_head`` keeps the static
    text of their VTK snapshots once ``io.write_vtk`` has formatted it.
    """

    dim: int
    positions: np.ndarray
    spacing: float
    volume_per_point: float
    thickness: float | None = None
    vtk_head: str | None = field(default=None, init=False, repr=False,
                                 compare=False)

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]


@dataclass
class NeighborList:
    """Horizon neighborhoods in CSR layout: topology and bond flags only.

    The bonds of point i occupy ``offsets[i]:offsets[i+1]``; bond b runs
    from that point to ``neighbors[b]``, and a point's bonds are sorted by
    ascending neighbor index (this fixes the force summation order).
    ``partner[b]`` is the index of the reversed bond, so symmetric damage
    updates are O(1).  ``mu`` is True for alive bonds and False once broken;
    both directions of a bond break together, and bonds never heal.

    Each per-bond array exists once, at the narrowest width: ``neighbors``
    and ``partner`` are int32 (``build_neighbor_list`` refuses counts that
    do not fit), ``mu`` is bool, and ``positions`` is a reference to the
    cloud's array, not a copy.  ``bond_i``, ``xi`` and ``xi_norm`` are
    derived on every access, bit for bit as the build would compute them;
    they are for setup and checks, never for a per-step path.

    ``mu`` is read-only: the damage model (``forces._break_bonds``) is its
    one writer, and it bumps ``version`` on every change, so caches derived
    from ``mu`` know when to refresh.  ``bond_sides`` holds the two
    read-only bond masks of its operator's partition for one run (each
    ``forces.PDOperator`` owns a copy), and ``damage_table`` the half-bond
    table of ``forces.update_damage``, one side per mask.
    """

    delta: float
    offsets: np.ndarray
    neighbors: np.ndarray
    partner: np.ndarray
    positions: np.ndarray = field(repr=False)
    mu: np.ndarray = field(default=None)  # type: ignore[assignment]
    version: int = field(default=0, init=False)
    bond_sides: tuple | None = field(default=None, init=False, repr=False)
    damage_table: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.mu is None:
            self.mu = np.ones(len(self.neighbors), dtype=bool)
        self.mu.flags.writeable = False

    @property
    def n_points(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_bonds(self) -> int:
        return len(self.neighbors)

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the list owns: the topology and the flags,
        not the cloud's positions and not the damage tables."""
        return sum(a.nbytes for a in (self.offsets, self.neighbors,
                                      self.partner, self.mu))

    @property
    def bond_i(self) -> np.ndarray:
        """The point each bond starts at (derived, int32)."""
        return np.repeat(np.arange(self.n_points, dtype=np.int32),
                         self.counts())

    @property
    def xi(self) -> np.ndarray:
        """(bonds, dim) reference bond vectors ``x_j - x_i`` (derived)."""
        diff = self.positions[self.neighbors]
        diff -= self.positions[self.bond_i]
        return diff

    @property
    def xi_norm(self) -> np.ndarray:
        """Reference bond lengths |xi| (derived)."""
        return _norm(self.xi.T)

    def neighbors_of(self, i: int) -> np.ndarray:
        return self.neighbors[self.offsets[i]:self.offsets[i + 1]]

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)


@dataclass
class SubdomainLabels:
    """Four-way partition of the cloud driven by the fine-region boxes.

    A point is fine when it lies in any fine box; it is interior to its side
    (F or C) exactly when every neighbor shares the side, otherwise it lands
    in the corresponding boundary layer (FI or CI).
    """

    labels: np.ndarray

    @property
    def fine_mask(self) -> np.ndarray:
        return self.labels <= LABEL_FI

    @property
    def coarse_mask(self) -> np.ndarray:
        return self.labels >= LABEL_CI

    def indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    @property
    def omega_hat_f(self) -> np.ndarray:
        """Points advanced with the fine step (F plus FI)."""
        return np.flatnonzero(self.fine_mask)

    @property
    def omega_hat_c(self) -> np.ndarray:
        """Points advanced with the coarse step (C plus CI)."""
        return np.flatnonzero(self.coarse_mask)

    @property
    def bar_f(self) -> np.ndarray:
        """Fine side plus its coarse boundary layer (scoped-error region)."""
        return np.flatnonzero(self.fine_mask | (self.labels == LABEL_CI))

    @property
    def bar_c(self) -> np.ndarray:
        """Coarse side plus its fine boundary layer (scoped-error region)."""
        return np.flatnonzero(self.coarse_mask | (self.labels == LABEL_FI))


def build_grid(box, dx: float, thickness: float | None = None) -> PointCloud:
    """Lay out points at the cell centers of a uniform lattice over ``box``.

    ``box`` is a (min_corner, max_corner) pair; its length fixes the
    dimension (2 or 3).  ``dx`` must tile every extent to within 0.5%.
    ``thickness`` is required in 2D and ignored in 3D.
    """
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1 or len(lo) not in (2, 3):
        raise GeometryError("box must be a (min, max) pair of 2D or 3D corners")
    dim = len(lo)
    extents = hi - lo
    shown = tuple(map(float, extents))  # the messages print plain floats
    if not np.all(np.isfinite(extents) & (extents > 0)):
        raise GeometryError("box extents must be positive and finite, "
                            f"got {shown}")
    if not (np.isfinite(dx) and dx > 0):
        raise GeometryError(f"spacing must be positive and finite, got {dx}")
    counts = np.rint(extents / dx).astype(int)
    if np.any(counts < 1):
        raise GeometryError(f"spacing {dx} exceeds box extents {shown}")
    misfit = np.abs(counts * dx - extents)
    if np.any(misfit > GRID_FIT_TOL * extents):
        raise GeometryError(
            f"spacing {dx} does not tile extents {shown} "
            f"(misfit {tuple(map(float, misfit))} exceeds 0.5%)")

    axes = [lo[k] + (np.arange(counts[k]) + 0.5) * dx for k in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    positions = np.column_stack([m.ravel() for m in mesh])

    if dim == 2:
        if thickness is None or not (np.isfinite(thickness)
                                     and thickness > 0):
            raise GeometryError("2D grids require a positive, finite "
                                f"thickness, got {thickness}")
        volume = dx * dx * thickness
    else:
        thickness = None
        volume = dx * dx * dx
    return PointCloud(dim=dim, positions=positions, spacing=dx,
                      volume_per_point=volume, thickness=thickness)


def _norm(d):
    """Euclidean length from components, bit for bit np.linalg.norm: the
    square root of the squares summed in component order, as
    np.linalg.norm(..., axis=1) adds them."""
    sq = d[0] * d[0]
    for c in d[1:]:
        sq += c * c
    return np.sqrt(sq)


def _concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenate arange(starts[k], stops[k]) for all k, vectorized."""
    lengths = stops - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    first = np.repeat(starts, lengths)
    reset = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return first + (np.arange(total, dtype=np.int64) - reset)


# Candidate pairs generated at a time by build_neighbor_list, about 100 B
# of temporaries each.  A desk preset's cell offset fits in one chunk (at
# most 92k candidates, on crack2d); the paper-scale crack's splits in nine.
_BUILD_CANDIDATES = 1 << 18

# Bonds whose neighbor and partner ids build_neighbor_list derives at a
# time from its sorted keys: int64 temporaries of 512 KiB each.
_DERIVE_BONDS = 1 << 16

# Largest point or bond count the int32 neighbor list can index.
INDEX_MAX = int(np.iinfo(np.int32).max)


def check_index_range(n_points: int, n_bonds: int) -> None:
    """Raise GeometryError unless every point and bond id fits int32."""
    if n_points > INDEX_MAX or n_bonds > INDEX_MAX:
        raise GeometryError(
            f"{n_points} points and {n_bonds} bonds: the neighbor list "
            f"indexes both with int32, at most {INDEX_MAX} each")


def _chunks(sizes: np.ndarray, limit: int) -> list:
    """Slices that split consecutive items into runs of about ``limit``
    total size: a run ends at the last item whose running total stays
    within the next multiple of ``limit``, so it exceeds ``limit`` by less
    than one item's size."""
    total = np.cumsum(sizes)
    if total[-1] <= limit:
        return [slice(None)]
    cuts = np.searchsorted(total, np.arange(limit, total[-1], limit),
                           side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [len(sizes)]))).tolist()
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def build_neighbor_list(cloud: PointCloud, delta: float) -> NeighborList:
    """Find all pairs within the horizon using uniform cell binning.

    Cost is O(N * neighbors): points are binned into cells of edge >= delta
    and pairs are generated only between adjacent cells.  Points exactly on
    the horizon sphere are kept (relative slack HORIZON_TOL).

    Memory scales with the bonds kept: each cell offset's candidate pairs
    are generated over chunks of source points, about _BUILD_CANDIDATES at
    a time, and checked against the horizon as they are generated; only
    the accepted ones are collected, each as one int64 key i*n + j, and a
    chunk's temporaries are freed before the next chunk's exist.  A sort of
    the keys orders the bonds, ``offsets`` and ``neighbors`` are read off
    the sorted keys, and a second sort, by neighbor, finds ``partner``.  A
    cloud whose point or bond count does not fit int32 raises
    GeometryError.
    """
    if not np.isfinite(delta):
        raise GeometryError(f"horizon must be finite, got {delta}")
    if delta < cloud.spacing:
        raise GeometryError(
            f"horizon {delta} is degenerate: smaller than spacing {cloud.spacing}")
    pos = cloud.positions
    n = cloud.n_points
    dim = cloud.dim
    check_index_range(n, 0)
    reach = delta * (1.0 + HORIZON_TOL)

    cell_size = reach * (1.0 + 1e-9)
    cells = np.floor((pos - pos.min(axis=0)) / cell_size).astype(np.int64)
    dims = cells.max(axis=0) + 1
    cell_id = np.ravel_multi_index(cells.T, dims)
    order = np.argsort(cell_id, kind="stable")
    sorted_ids = cell_id[order]
    uniq_ids, uniq_starts = np.unique(sorted_ids, return_index=True)
    uniq_stops = np.append(uniq_starts[1:], n)
    comps = [np.ascontiguousarray(p) for p in pos.T]

    parts = []
    n_bonds = 0
    offsets_nd = np.stack(np.meshgrid(*([np.arange(-1, 2)] * dim),
                                      indexing="ij"), axis=-1).reshape(-1, dim)
    for off in offsets_nd:
        target = cells + off
        valid = np.all((target >= 0) & (target < dims), axis=1)
        src = np.flatnonzero(valid)
        tgt_id = np.ravel_multi_index(target[src].T, dims)
        del target, valid
        loc = np.searchsorted(uniq_ids, tgt_id)
        found = (loc < len(uniq_ids))
        found[found] &= uniq_ids[loc[found]] == tgt_id[found]
        src = src[found]
        if not len(src):
            continue
        loc = loc[found]
        starts, stops = uniq_starts[loc], uniq_stops[loc]
        for chunk in _chunks(stops - starts, _BUILD_CANDIDATES):
            bi = np.repeat(src[chunk], stops[chunk] - starts[chunk])
            bj = order[_concat_ranges(starts[chunk], stops[chunk])]
            # offsets and chunks run in a fixed order, so the first
            # coincident pair found is the first among all candidates;
            # _norm of the components is np.linalg.norm(pos[bj] - pos[bi],
            # axis=1) bit for bit
            dist = _norm([np.take(p, bj) - np.take(p, bi) for p in comps])
            other = bi != bj
            coincident = (dist == 0.0) & other
            if np.any(coincident):
                k = np.flatnonzero(coincident)[0]
                raise GeometryError(
                    f"points {bi[k]} and {bj[k]} coincide; zero-length bonds are not allowed")
            keep = dist <= reach
            keep &= other
            del dist, other
            n_bonds += int(np.count_nonzero(keep))
            check_index_range(n, n_bonds)
            key = bi[keep]
            key *= n
            key += bj[keep]
            parts.append(key)
            del bi, bj, keep

    # the keys i*n + j are unique, so sorting them gives the (i, j) order;
    # each offset's keys come as one ascending run, and the stable sort
    # merges runs
    keys = np.concatenate(parts) if parts else np.empty(0, np.int64)
    del parts
    keys.sort(kind="stable")
    offsets = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    spans = [slice(lo, min(lo + _DERIVE_BONDS, n_bonds))
             for lo in range(0, n_bonds, _DERIVE_BONDS)]
    neighbors = np.empty(n_bonds, dtype=np.int32)
    for span in spans:
        neighbors[span] = keys[span] % n
    del keys

    # sorted by (j, bond id), and so by (j, i), the bonds list each bond's
    # reverse in bond order when the relation is symmetric: that is the
    # partner.  The key j * n_bonds + b fits int64, as both fit int32.
    by_j = neighbors.astype(np.int64)
    by_j *= n_bonds
    for span in spans:
        by_j[span] += np.arange(span.start, span.stop)
    by_j.sort()
    partner = np.empty(n_bonds, dtype=np.int32)
    for span in spans:
        partner[span] = by_j[span] % n_bonds
    del by_j
    nbrs = NeighborList(delta=delta, offsets=offsets, neighbors=neighbors,
                        partner=partner, positions=pos)
    bond_i = nbrs.bond_i
    for span in spans:
        found = partner[span]
        if not (np.array_equal(np.take(neighbors, found), bond_i[span])
                and np.array_equal(np.take(bond_i, found), neighbors[span])):
            raise GeometryError(
                "neighbor relation is not symmetric (internal error)")
    return nbrs


def _in_boxes(positions: np.ndarray, boxes) -> np.ndarray:
    """Closed-box membership of each position in any of the boxes."""
    inside = np.zeros(len(positions), dtype=bool)
    for lo, hi in boxes:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        inside |= np.all((positions >= lo) & (positions <= hi), axis=1)
    return inside


def classify_subdomains(cloud: PointCloud, nbrs: NeighborList,
                        fine_boxes) -> SubdomainLabels:
    """Partition points into F / FI / CI / C from the fine-region boxes.

    Horizon containment is decided on the discrete neighbor list: a point is
    interior to its side exactly when every neighbor lies on the same side.
    An empty box list labels everything C.
    """
    fine = _in_boxes(cloud.positions, fine_boxes)
    # each point's fine neighbors, differenced from a running count over
    # the bonds; int32 holds it, as the bond count fits int32
    total = np.zeros(nbrs.n_bonds + 1, dtype=np.int32)
    np.cumsum(np.take(fine, nbrs.neighbors), out=total[1:])
    n_fine = total[nbrs.offsets[1:]] - total[nbrs.offsets[:-1]]
    has_fine_nbr = n_fine > 0
    has_coarse_nbr = n_fine < nbrs.counts()
    labels = np.full(cloud.n_points, LABEL_C, dtype=np.int8)
    labels[~fine & has_fine_nbr] = LABEL_CI
    labels[fine] = LABEL_F
    labels[fine & has_coarse_nbr] = LABEL_FI
    return SubdomainLabels(labels=labels)


def select_layer(cloud: PointCloud, region) -> np.ndarray:
    """Indices of points inside the closed axis-aligned ``region`` box.

    An empty selection raises: a loading or constraint layer that grabs no
    points is a configuration bug, not a benign no-op.
    """
    lo, hi = region
    idx = np.flatnonzero(_in_boxes(cloud.positions, [(lo, hi)]))
    if len(idx) == 0:
        raise GeometryError(f"layer {lo}..{hi} selects no points")
    return idx
