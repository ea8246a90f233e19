"""Material-point grids, horizon neighbor lists, and subdomain classification.

The spatial substrate is a uniform lattice of material points with one
volume per point (dx^2 * thickness in 2D, dx^3 in 3D).  Each point interacts
with every other point within the horizon radius ``delta``; the neighbor
list holds the bond topology and the per-bond alive flags ``mu`` that the
damage model mutates.  A bond's reference vector is ``x_j - x_i`` of the
cloud's positions, and its length is computed by ``_bonds.c`` alone, which
builds the list and the bond and damage tables from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _bonds

# Fractional slack on the horizon test so lattice points lying exactly on the
# horizon sphere (delta = m*dx configurations) are not lost to rounding.
HORIZON_TOL = 1e-12

# Extent/dx mismatch tolerated by build_grid, as a fraction of the extent.
GRID_FIT_TOL = 5e-3

# Largest point or bond count the int32 neighbor list can index.
INDEX_MAX = int(np.iinfo(np.int32).max)

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
    derived on every access, bit for bit the vectors and lengths of
    ``_bonds.c``, which decide the bonds; they are for setup and checks,
    never for a per-step path.

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
    with np.errstate(over="ignore"):  # a count past any float is inf
        counts = np.rint(extents / dx)
        n_points = float(np.prod(counts))
    if np.any(counts < 1):
        raise GeometryError(f"spacing {dx} exceeds box extents {shown}")
    if n_points > INDEX_MAX:
        raise GeometryError(
            f"spacing {dx} lays out {n_points:.3g} points over extents "
            f"{shown}, more than the int32 neighbor list indexes, {INDEX_MAX}")
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
    """Euclidean length from components, bit for bit np.linalg.norm and
    ``bond_vector`` of ``_bonds.c``: the square root of the squares summed
    in component order, as np.linalg.norm(..., axis=1) adds them."""
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


# The compiled loops of _bonds.c, of this module and of forces.
_LIB = _bonds.load()


def check_index_range(n_points: int, n_bonds: int) -> None:
    """Raise GeometryError unless every point and bond id fits int32."""
    if n_points > INDEX_MAX or n_bonds > INDEX_MAX:
        raise GeometryError(
            f"{n_points} points and {n_bonds} bonds: the neighbor list "
            f"indexes both with int32, at most {INDEX_MAX} each")


def _bin(pos: np.ndarray, reach: float) -> tuple:
    """The binning that ``_bonds.c`` reads: each point's coordinates in a
    grid of cells of edge >= reach with an empty outer layer, the grid's
    shape, the occupied cells' ascending row-major ids, and ``start`` and
    ``order``, which list cell c's points in order[start[c]:start[c+1]]."""
    cells = 1 + np.floor((pos - pos.min(axis=0))
                         / (reach * (1.0 + 1e-9))).astype(np.int64)
    dims = cells.max(axis=0) + 2
    cell_id = np.ravel_multi_index(cells.T, dims)
    order = np.argsort(cell_id, kind="stable")
    ids, starts = np.unique(cell_id[order], return_index=True)
    return cells, dims, ids, np.append(starts, len(pos)), order


def build_neighbor_list(cloud: PointCloud, delta: float) -> NeighborList:
    """Find all pairs within the horizon using uniform cell binning.

    Cost is O(N * neighbors): points are binned into cells of edge >= delta
    and pairs are generated only between adjacent cells.  Points exactly on
    the horizon sphere are kept (relative slack HORIZON_TOL).  numpy bins
    the points; ``_bonds.c`` counts the bonds, so that the list is allocated
    at its size, then fills it.  Coincident points, and a point or bond
    count past int32, raise GeometryError.
    """
    if not np.isfinite(delta):
        raise GeometryError(f"horizon must be finite, got {delta}")
    if delta < cloud.spacing:
        raise GeometryError(
            f"horizon {delta} is degenerate: smaller than spacing {cloud.spacing}")
    pos = cloud.positions
    if pos.ndim != 2 or pos.shape[1] not in (2, 3):
        raise GeometryError(f"positions must be (N, 2) or (N, 3): {pos.shape}")
    n = cloud.n_points
    reach = delta * (1.0 + HORIZON_TOL)
    binning = [np.ascontiguousarray(a, dtype=np.int64)
               for a in _bin(pos, reach)]
    x = np.ascontiguousarray(pos, dtype=np.float64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    pair = np.empty(2, dtype=np.int64)
    head = (pos.shape[1], n, len(binning[2]), reach,
            *(a.ctypes.data for a in (x, *binning, offsets)))
    if _LIB.peridyn_neighbors(*head, None, None, pair.ctypes.data):
        raise GeometryError(f"points {pair[0]} and {pair[1]} coincide; "
                            "zero-length bonds are not allowed")
    check_index_range(n, int(offsets[-1]))
    neighbors = np.empty(offsets[-1], dtype=np.int32)
    partner = np.empty(offsets[-1], dtype=np.int32)
    if _LIB.peridyn_neighbors(*head, neighbors.ctypes.data,
                              partner.ctypes.data, None):
        raise GeometryError(
            "neighbor relation is not symmetric (internal error)")
    return NeighborList(delta=delta, offsets=offsets, neighbors=neighbors,
                        partner=partner, positions=pos)


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
