import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peridyn import geometry
from peridyn.app import preset_config
from peridyn.geometry import (
    GeometryError, HORIZON_TOL, INDEX_MAX, LABEL_C, LABEL_CI, LABEL_F,
    LABEL_FI, PointCloud, _concat_ranges, _norm, build_grid,
    build_neighbor_list, check_index_range, classify_subdomains,
    select_layer,
)
from tests.test_forces import make_cloud


def row_cloud(n=10, dx=1.0):
    """Points at x = 0..n-1 on the y = 0 line."""
    pos = np.zeros((n, 2))
    pos[:, 0] = np.arange(n) * dx
    return PointCloud(dim=2, positions=pos, spacing=dx, volume_per_point=1.0)


def brute_force_neighbors(positions, delta):
    """O(N^2) oracle for the horizon relation."""
    n = len(positions)
    out = []
    for i in range(n):
        d = np.linalg.norm(positions - positions[i], axis=1)
        out.append(set(np.flatnonzero((d <= delta * (1 + 1e-12)) &
                                      (np.arange(n) != i))))
    return out


def all_candidates_builder(cloud, delta):
    """The neighbor-list builder as it was: every cell-pair candidate is
    generated with its bond vector and length first, then the horizon, self
    and coincident-point checks run over all of them.  Returns the arrays
    the list once stored, int64 indices and bond geometry included."""
    if delta < cloud.spacing:
        raise GeometryError(
            f"horizon {delta} is degenerate: smaller than spacing {cloud.spacing}")
    pos = cloud.positions
    n = cloud.n_points
    dim = cloud.dim
    reach = delta * (1.0 + HORIZON_TOL)

    cell_size = reach * (1.0 + 1e-9)
    cells = np.floor((pos - pos.min(axis=0)) / cell_size).astype(np.int64)
    dims = cells.max(axis=0) + 1
    cell_id = np.ravel_multi_index(cells.T, dims)
    order = np.argsort(cell_id, kind="stable")
    sorted_ids = cell_id[order]
    uniq_ids, uniq_starts = np.unique(sorted_ids, return_index=True)
    uniq_stops = np.append(uniq_starts[1:], n)

    pair_i = []
    pair_j = []
    offsets_nd = np.stack(np.meshgrid(*([np.arange(-1, 2)] * dim),
                                      indexing="ij"), axis=-1).reshape(-1, dim)
    for off in offsets_nd:
        target = cells + off
        valid = np.all((target >= 0) & (target < dims), axis=1)
        src = np.flatnonzero(valid)
        if not len(src):
            continue
        tgt_id = np.ravel_multi_index(target[src].T, dims)
        loc = np.searchsorted(uniq_ids, tgt_id)
        found = (loc < len(uniq_ids))
        found[found] &= uniq_ids[loc[found]] == tgt_id[found]
        src = src[found]
        loc = loc[found]
        starts, stops = uniq_starts[loc], uniq_stops[loc]
        pair_i.append(np.repeat(src, stops - starts))
        pair_j.append(order[_concat_ranges(starts, stops)])

    bi = np.concatenate(pair_i) if pair_i else np.empty(0, np.int64)
    bj = np.concatenate(pair_j) if pair_j else np.empty(0, np.int64)

    diff = pos[bj] - pos[bi]
    dist = np.linalg.norm(diff, axis=1)
    coincident = (dist == 0.0) & (bi != bj)
    if np.any(coincident):
        k = np.flatnonzero(coincident)[0]
        raise GeometryError(
            f"points {bi[k]} and {bj[k]} coincide; zero-length bonds are not allowed")
    keep = (dist <= reach) & (bi != bj)
    bi, bj, diff, dist = bi[keep], bj[keep], diff[keep], dist[keep]

    sort = np.lexsort((bj, bi))
    bi, bj, diff, dist = bi[sort], bj[sort], diff[sort], dist[sort]

    counts = np.bincount(bi, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    keys = bi * np.int64(n) + bj
    partner = np.searchsorted(keys, bj * np.int64(n) + bi)
    if not np.array_equal(keys[partner], bj * np.int64(n) + bi):
        raise GeometryError("neighbor relation is not symmetric (internal error)")

    return SimpleNamespace(offsets=offsets, neighbors=bj, bond_i=bi,
                           xi=diff, xi_norm=dist, partner=partner,
                           mu=np.ones(len(bj)))


def assert_same_bytes(cloud, delta):
    """build_neighbor_list equals the all-candidates builder: the offsets
    and the derived bond geometry byte for byte, the int32 index arrays
    and the bool flags by value; returns the list."""
    got = build_neighbor_list(cloud, delta)
    want = all_candidates_builder(cloud, delta)
    for name in ("offsets", "xi", "xi_norm"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    for name, dtype in (("neighbors", np.int32), ("bond_i", np.int32),
                        ("partner", np.int32), ("mu", bool)):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == dtype, name
        assert np.array_equal(a, b), name
    assert got.positions is cloud.positions
    return got


class TestBuildGrid:
    def test_full_scale_plate_mesh(self):
        cloud = build_grid(((0, 0), (1, 0.5)), 0.01, thickness=0.01)
        assert cloud.n_points == 100 * 50
        assert cloud.volume_per_point == pytest.approx(1e-6)
        assert cloud.dim == 2
        assert np.all(cloud.positions > (0, 0))
        assert np.all(cloud.positions < (1, 0.5))

    def test_single_cell(self):
        cloud = build_grid(((0, 0), (1, 1)), 1.0, thickness=1.0)
        assert cloud.n_points == 1
        np.testing.assert_allclose(cloud.positions, [[0.5, 0.5]])
        assert cloud.volume_per_point == 1.0

    def test_3d_volumes_sum_to_box(self):
        cloud = build_grid(((0, 0, 0), (1, 1, 1)), 0.5)
        assert cloud.n_points == 8
        assert cloud.volume_per_point == pytest.approx(0.125)
        assert cloud.n_points * cloud.volume_per_point == pytest.approx(1.0)

    def test_rejects_bad_spacing(self):
        with pytest.raises(GeometryError):
            build_grid(((0, 0), (1, 1)), -0.1, thickness=1.0)
        with pytest.raises(GeometryError, match="tile"):
            build_grid(((0, 0), (1, 1)), 0.3, thickness=1.0)

    @pytest.mark.parametrize("box, dx, message", [
        (((0, 0), (1.25, 1.0)), 0.5,
         "spacing 0.5 does not tile extents (1.25, 1.0) "
         "(misfit (0.25, 0.0) exceeds 0.5%)"),
        (((0, 0), (1, 1)), 2.0, "spacing 2.0 exceeds box extents (1.0, 1.0)"),
        (((0, 0), (np.inf, 1)), 0.5,
         "box extents must be positive and finite, got (inf, 1.0)"),
    ], ids=["misfit", "too-coarse", "infinite"])
    def test_spacing_messages_print_plain_numbers(self, box, dx, message):
        with pytest.raises(GeometryError) as err:
            build_grid(box, dx, thickness=1.0)
        assert str(err.value) == message

    def test_2d_requires_thickness(self):
        with pytest.raises(GeometryError, match="thickness"):
            build_grid(((0, 0), (1, 1)), 0.5)


class TestNeighborList:
    def test_row_neighbors(self):
        cloud = row_cloud()
        nbrs = build_neighbor_list(cloud, 2.0)
        assert set(nbrs.neighbors_of(3)) == {1, 2, 4, 5}
        oracle = brute_force_neighbors(cloud.positions, 2.0)
        for i in range(cloud.n_points):
            assert set(nbrs.neighbors_of(i)) == oracle[i]

    def test_minimal_horizon_axis_neighbors(self):
        for box, dx, thick, dim in ((((0, 0), (1, 1)), 0.1, 0.1, 2),
                                    (((0, 0, 0), (1, 1, 1)), 0.25, None, 3)):
            cloud = build_grid(box, dx, thickness=thick)
            nbrs = build_neighbor_list(cloud, dx)
            assert nbrs.counts().max() == 2 * dim

    def test_horizon_ratio_interior_count(self):
        # delta = 3.015 dx keeps the m = 3 shell: disk count for
        # i^2 + j^2 <= 3.015^2 is 28 (brute-force offset enumeration).
        count = sum(1 for i in range(-4, 5) for j in range(-4, 5)
                    if 0 < i * i + j * j <= 3.015 ** 2)
        assert count == 28
        cloud = build_grid(((0, 0), (1, 1)), 0.05, thickness=0.01)
        nbrs = build_neighbor_list(cloud, 3.015 * 0.05)
        assert nbrs.counts().max() == 28

    def test_exact_horizon_shell_included(self):
        cloud = row_cloud()
        nbrs = build_neighbor_list(cloud, 3.0)  # points at exactly 3 dx
        assert set(nbrs.neighbors_of(5)) == {2, 3, 4, 6, 7, 8}

    def test_matches_brute_force_on_random_clouds(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n = rng.integers(20, 200)
            pos = rng.uniform(0, 3, size=(n, 2))
            cloud = PointCloud(dim=2, positions=pos, spacing=0.01,
                               volume_per_point=1.0)
            delta = rng.uniform(0.3, 1.2)
            nbrs = build_neighbor_list(cloud, delta)
            oracle = brute_force_neighbors(pos, delta)
            for i in range(n):
                assert set(nbrs.neighbors_of(i)) == oracle[i]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.3, 1.5))
    def test_symmetry_property(self, seed, delta):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 2, size=(60, 2))
        cloud = PointCloud(dim=2, positions=pos, spacing=0.01,
                           volume_per_point=1.0)
        nbrs = build_neighbor_list(cloud, delta)
        pairs = set(zip(nbrs.bond_i.tolist(), nbrs.neighbors.tolist()))
        assert all((j, i) in pairs for i, j in pairs)
        # partner map inverts bonds
        assert np.array_equal(nbrs.bond_i, nbrs.neighbors[nbrs.partner])
        assert np.array_equal(nbrs.neighbors, nbrs.bond_i[nbrs.partner])

    def test_bond_cache_consistency(self):
        cloud = build_grid(((0, 0), (1, 1)), 0.1, thickness=0.1)
        nbrs = build_neighbor_list(cloud, 0.3)
        xi = cloud.positions[nbrs.neighbors] - cloud.positions[nbrs.bond_i]
        np.testing.assert_array_equal(nbrs.xi, xi)
        assert np.all(nbrs.xi_norm > 0)
        assert np.all(nbrs.xi_norm <= 0.3 * (1 + 1e-12))
        assert np.all(nbrs.mu == 1.0)

    def test_degenerate_horizon_rejected(self):
        with pytest.raises(GeometryError, match="degenerate"):
            build_neighbor_list(row_cloud(), 0.5)

    def test_coincident_points_rejected(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        cloud = PointCloud(dim=2, positions=pos, spacing=0.5,
                           volume_per_point=1.0)
        with pytest.raises(GeometryError, match="coincide"):
            build_neighbor_list(cloud, 1.5)


class TestNorm:
    """The solver's one length helper: the build's horizon test and the
    row blocks' |xi| both rest on it matching np.linalg.norm exactly."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3]), st.data())
    def test_matches_linalg_norm_bit_for_bit(self, dim, data):
        # rows of one magnitude, from 1e-150 to 1e150, whose components
        # lie within a few decades of each other, so the order of the sum
        # shows in the rounding
        mantissa = st.floats(-10.0, 10.0)
        row = st.integers(-150, 150).flatmap(lambda e: st.tuples(*[
            st.builds(lambda m, k: m * 10.0 ** (e + k), mantissa,
                      st.integers(-2, 2))] * dim))
        x = np.array(data.draw(st.lists(row, min_size=1, max_size=40)),
                     dtype=float)
        want = np.linalg.norm(x, axis=1)
        got = _norm(np.ascontiguousarray(x.T))
        assert got.tobytes() == want.tobytes()
        assert _norm(x.T).tobytes() == want.tobytes()


class TestStreamedBuild:
    """The neighbor list is built offset by offset, over chunks of source
    points, keeping only accepted pairs; every array must equal the
    all-candidates builder's."""

    @pytest.mark.parametrize("box, dx, ratio", [
        (((0, 0), (1.3, 0.7)), 0.05, 3.0),
        (((0, 0), (1.3, 0.7)), 0.05, 3.3),
        (((-0.2, 0.1), (0.5, 1.6)), 0.1, 2.05),
        (((0, 0), (0.05, 0.05)), 5e-4, 3.0),
        (((0, 0, 0), (0.6, 0.4, 0.3)), 0.05, 3.0),
        (((0, 0, 0), (0.6, 0.4, 0.3)), 0.05, 2.7),
        (((0, 0, 0), (0.3, 0.9, 0.2)), 0.1, 1.6),
    ])
    def test_grids_match_all_candidates_builder(self, box, dx, ratio):
        thickness = 0.01 if len(box[0]) == 2 else None
        cloud = build_grid(box, dx, thickness=thickness)
        nbrs = assert_same_bytes(cloud, ratio * dx)
        assert nbrs.n_bonds > 0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_clouds_match_all_candidates_builder(self, dim):
        rng = np.random.default_rng(7 + dim)
        for _ in range(4):
            n = int(rng.integers(50, 400))
            extent = rng.uniform(0.5, 3.0, size=dim)
            cloud = make_cloud(rng.uniform(0.0, 1.0, size=(n, dim)) * extent,
                               spacing=0.01)
            assert_same_bytes(cloud, rng.uniform(0.2, 0.8))

    def test_horizon_shell_within_tolerance(self):
        # points 3 apart: kept while 3 <= delta * (1 + HORIZON_TOL)
        cloud = row_cloud()
        inside = assert_same_bytes(cloud, 3.0 / (1.0 + 0.5 * HORIZON_TOL))
        assert 8 in set(inside.neighbors_of(5))
        outside = assert_same_bytes(cloud, 3.0 / (1.0 + 2.0 * HORIZON_TOL))
        assert set(outside.neighbors_of(5)) == {3, 4, 6, 7}

    def test_coincident_error_names_first_candidate(self):
        # three coincident pairs in different cells
        pos = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 2.0], [3.0, 0.0],
                        [0.0, 0.0], [1.0, 2.0], [2.0, 1.0]])
        cloud = make_cloud(pos, spacing=0.01)
        with pytest.raises(GeometryError) as want:
            all_candidates_builder(cloud, 1.2)
        with pytest.raises(GeometryError) as got:
            build_neighbor_list(cloud, 1.2)
        assert "coincide" in str(got.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("chunk", [1, 37, 1000])
    def test_chunked_candidates_match_all_candidates_builder(
            self, chunk, monkeypatch):
        # chunks of one point, of fewer candidates than one point has, and
        # of many points; the first coincident pair is still the one named.
        # The sorted keys are turned into neighbors and partners over as
        # many bonds at a time, so that runs over many chunks too.
        monkeypatch.setattr(geometry, "_BUILD_CANDIDATES", chunk)
        monkeypatch.setattr(geometry, "_DERIVE_BONDS", chunk)
        for box, dx, ratio in ((((0, 0), (1.3, 0.7)), 0.05, 3.3),
                               (((0, 0, 0), (0.6, 0.4, 0.3)), 0.1, 2.7)):
            cloud = build_grid(box, dx, thickness=0.01 if len(box[0]) == 2
                               else None)
            assert assert_same_bytes(cloud, ratio * dx).n_bonds > 0
        pos = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 2.0], [3.0, 0.0],
                        [0.0, 0.0], [1.0, 2.0], [2.0, 1.0]])
        cloud = make_cloud(pos, spacing=0.01)
        with pytest.raises(GeometryError) as want:
            all_candidates_builder(cloud, 1.2)
        with pytest.raises(GeometryError) as got:
            build_neighbor_list(cloud, 1.2)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("chunk", [1, 37, 1 << 16])
    def test_asymmetric_relation_refused(self, chunk, monkeypatch):
        # a length that depends on the bond's direction keeps the pairs on
        # the horizon shell one way only: the partner check must refuse it
        monkeypatch.setattr(geometry, "_DERIVE_BONDS", chunk)
        norm = geometry._norm
        monkeypatch.setattr(geometry, "_norm",
                            lambda d: norm(d) * np.where(d[0] > 0, 2.0, 1.0))
        cloud = build_grid(((0, 0), (1.3, 0.7)), 0.05, thickness=0.01)
        with pytest.raises(GeometryError, match="not symmetric"):
            build_neighbor_list(cloud, 3.0 * 0.05)

    @pytest.mark.parametrize("name", ["plate2d", "block3d", "crack2d"])
    def test_desk_presets_build_in_one_chunk(self, name, monkeypatch):
        # one candidate gather per cell offset: chunking costs the desk
        # presets nothing
        gathers = []
        concat = geometry._concat_ranges

        def counted(starts, stops):
            gathers.append(len(starts))
            return concat(starts, stops)

        monkeypatch.setattr(geometry, "_concat_ranges", counted)
        cfg = preset_config(name)
        g = cfg.geometry
        cloud = build_grid((g.box_min, g.box_max), g.dx, g.thickness)
        build_neighbor_list(cloud, cfg.delta)
        assert len(gathers) == 3 ** cloud.dim

    def test_desk_crack2d_peak_memory(self):
        # The kept list is 2.4 MiB and the build peaks at 6.9 MiB (the
        # int64 keys kept so far and the temporaries of a cell offset's 92k
        # candidates); the sorts and the derivation after them stay under
        # 6 MiB.  Kept as int32 pairs with two lexsorts, the build peaked
        # at 9.1 MiB; an earlier searchsorted partner search over int64
        # keys at 10.6; with int64 indices and stored bond geometry the
        # list was 14.7 MiB and the peak 20.7; the all-candidates build
        # peaked at 61.
        cfg = preset_config("crack2d")
        g = cfg.geometry
        cloud = build_grid((g.box_min, g.box_max), g.dx, g.thickness)
        tracemalloc.start()
        try:
            nbrs = build_neighbor_list(cloud, cfg.delta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nbrs.n_bonds == 272_836
        assert peak <= 10 * 2 ** 20

    @pytest.mark.parametrize("box, dx, ratio", [
        (((0, 0), (1.3, 0.7)), 0.05, 3.0),
        (((0, 0, 0), (0.6, 0.4, 0.3)), 0.05, 2.7),
    ])
    def test_list_holds_topology_and_flags_only(self, box, dx, ratio):
        # int32 neighbor and partner, bool flags, int64 offsets; the
        # positions are the cloud's own array
        cloud = build_grid(box, dx, thickness=0.01 if len(box[0]) == 2
                           else None)
        nbrs = build_neighbor_list(cloud, ratio * dx)
        held = [v for v in vars(nbrs).values() if isinstance(v, np.ndarray)
                and v is not cloud.positions]
        assert sum(a.nbytes for a in held) == nbrs.nbytes
        assert nbrs.nbytes == 9 * nbrs.n_bonds + 8 * (nbrs.n_points + 1)
        assert nbrs.positions is cloud.positions

    def test_index_range_guard(self):
        # the check needs only the counts, so counts past int32 cost nothing
        tracemalloc.start()
        try:
            check_index_range(INDEX_MAX, INDEX_MAX)
            for n_points, n_bonds in ((2 ** 31, 0), (10, 2 ** 31),
                                      (3 * 2 ** 31, 5 * 2 ** 31)):
                with pytest.raises(GeometryError) as err:
                    check_index_range(n_points, n_bonds)
                assert f"{n_points} points and {n_bonds} bonds" \
                    in str(err.value)
                assert "int32" in str(err.value)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16


class TestClassifySubdomains:
    def test_row_example(self):
        cloud = row_cloud()
        nbrs = build_neighbor_list(cloud, 2.0)
        labels = classify_subdomains(cloud, nbrs, [((-0.5, -1), (4.0, 1))])
        expected = {LABEL_F: {0, 1, 2}, LABEL_FI: {3, 4},
                    LABEL_CI: {5, 6}, LABEL_C: {7, 8, 9}}
        for label, idx in expected.items():
            assert set(labels.indices(label)) == idx

    def test_empty_fine_region_all_coarse(self):
        cloud = row_cloud()
        nbrs = build_neighbor_list(cloud, 2.0)
        labels = classify_subdomains(cloud, nbrs, [])
        assert np.all(labels.labels == LABEL_C)

    def test_whole_domain_fine(self):
        cloud = row_cloud()
        nbrs = build_neighbor_list(cloud, 2.0)
        labels = classify_subdomains(cloud, nbrs, [((-1, -1), (10, 1))])
        assert np.all(labels.labels == LABEL_F)

    def test_partition_and_band_properties(self):
        cloud = build_grid(((0, 0), (1, 1)), 0.05, thickness=0.01)
        nbrs = build_neighbor_list(cloud, 0.15)
        labels = classify_subdomains(cloud, nbrs, [((0.0, 0.0), (0.4, 1.0))])
        counts = [len(labels.indices(k)) for k in range(4)]
        assert sum(counts) == cloud.n_points
        assert all(c > 0 for c in counts)
        fine = labels.fine_mask
        for i in labels.indices(LABEL_FI):
            assert any(not fine[j] for j in nbrs.neighbors_of(i))
        for i in labels.indices(LABEL_F):
            assert all(fine[j] for j in nbrs.neighbors_of(i))
        for i in labels.indices(LABEL_CI):
            assert any(fine[j] for j in nbrs.neighbors_of(i))
        for i in labels.indices(LABEL_C):
            assert all(not fine[j] for j in nbrs.neighbors_of(i))

    def test_enlarging_fine_region_never_demotes(self):
        cloud = build_grid(((0, 0), (1, 1)), 0.05, thickness=0.01)
        nbrs = build_neighbor_list(cloud, 0.15)
        small = classify_subdomains(cloud, nbrs, [((0, 0), (0.35, 1))])
        large = classify_subdomains(cloud, nbrs, [((0, 0), (0.6, 1))])
        was_fine = small.fine_mask
        assert np.all(large.fine_mask[was_fine])


class TestSelectLayer:
    def test_row_prefix(self):
        cloud = row_cloud()
        assert set(select_layer(cloud, ((0, -1), (1, 1)))) == {0, 1}

    def test_full_scale_loaded_edge_column(self):
        cloud = build_grid(((0, 0), (1, 0.5)), 0.01, thickness=0.01)
        idx = select_layer(cloud, ((1 - 0.01, 0), (1, 0.5)))
        assert len(idx) == 50
        assert np.all(cloud.positions[idx, 0] > 0.99)

    def test_empty_selection_is_error(self):
        cloud = row_cloud()
        with pytest.raises(GeometryError, match="selects no points"):
            select_layer(cloud, ((100, 0), (101, 1)))
