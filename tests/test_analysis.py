import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from peridyn.analysis import (
    CR_SATURATED, l2_error, observed_order, reference_solution, scoped_errors,
)
from peridyn.app import Scenario
from peridyn.forces import FieldState
from peridyn.geometry import build_grid, build_neighbor_list, \
    classify_subdomains
from peridyn.integrator import tableau


class TestL2Error:
    def test_identical_fields(self):
        f = np.arange(5.0)
        assert l2_error(f, f) == 0.0

    def test_single_point(self):
        assert l2_error(np.array([4.0]), np.array([1.0])) == 3.0

    def test_euclidean(self):
        assert l2_error(np.array([3.0, 4.0]), np.zeros(2)) == 5.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            l2_error(np.zeros(3), np.zeros(4))

    def test_scoped_indices(self):
        f = np.array([1.0, 2.0, 3.0])
        assert l2_error(f, np.zeros(3), indices=np.array([2])) == 3.0

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, 8, elements=st.floats(-10, 10)),
           hnp.arrays(np.float64, 8, elements=st.floats(-10, 10)),
           hnp.arrays(np.float64, 8, elements=st.floats(-10, 10)))
    def test_norm_axioms(self, a, b, c):
        # zero iff equal
        assert (l2_error(a, b) == 0.0) == bool(np.array_equal(a, b))
        # triangle inequality
        assert l2_error(a, c) <= l2_error(a, b) + l2_error(b, c) + 1e-12


class TestObservedOrder:
    def test_ratio_eight_gives_three(self):
        assert observed_order([8e-5, 1e-5], [0.2, 0.1]) == [3.0]

    def test_ratio_sixteen_gives_four(self):
        assert observed_order([1.6e-4, 1e-5], [0.2, 0.1]) == [4.0]

    def test_synthetic_power_law_exact(self):
        for r in (1, 2, 3, 4):
            dts = [0.4 / 2 ** k for k in range(5)]
            errors = [2.7 * dt ** r for dt in dts]
            crs = observed_order(errors, dts)
            assert all(abs(cr - r) <= 1e-12 for cr in crs)

    def test_zero_error_saturates(self):
        crs = observed_order([1e-8, 0.0], [0.2, 0.1])
        assert crs == [CR_SATURATED] and math.isinf(crs[0])

    def test_requires_halving(self):
        with pytest.raises(ValueError, match="halve"):
            observed_order([1.0, 0.5], [0.3, 0.2])


class TestReferenceSolution:
    def test_reference_agrees_with_itself(self, mini_config):
        sc = Scenario(mini_config(n_steps=4))
        ref = reference_solution(sc, tableau(4), sc.cfg.time.dt)
        again = reference_solution(sc, tableau(4), sc.cfg.time.dt)
        assert np.array_equal(ref.u, again.u)

    def test_matches_matrix_exponential(self, mini_config):
        sc = Scenario(mini_config(n_steps=4))
        op = sc.fresh_operator()
        n = sc.cloud.n_points
        shape = (n, 4)
        columns = []
        base = op.rates(np.zeros(shape), 0.0).ravel()  # constant forcing
        for k in range(4 * n):
            e = np.zeros(4 * n)
            e[k] = 1.0
            columns.append(op.rates(e.reshape(shape), 0.0).ravel() - base)
        M = np.column_stack(columns)
        T = sc.final_time
        # y' = M y + base  ->  augmented exact solution
        aug = np.zeros((4 * n + 1, 4 * n + 1))
        aug[:-1, :-1] = M
        aug[:-1, -1] = base
        z0 = np.zeros(4 * n + 1)
        z0[-1] = 1.0
        exact = (scipy.linalg.expm(aug * T) @ z0)[:-1].reshape(shape)
        ref = reference_solution(sc, tableau(4), sc.cfg.time.dt / 64)
        assert np.linalg.norm(ref.packed() - exact) <= 1e-10 * \
            max(np.linalg.norm(exact), 1e-30)

    def test_cache_transparent(self, mini_config, tmp_path):
        sc = Scenario(mini_config(n_steps=4))
        fresh = reference_solution(sc, tableau(4), sc.cfg.time.dt / 4,
                                   cache_dir=tmp_path)
        cached = reference_solution(sc, tableau(4), sc.cfg.time.dt / 4,
                                    cache_dir=tmp_path)
        assert np.array_equal(fresh.u, cached.u)
        assert np.array_equal(fresh.v, cached.v)
        assert fresh.t == cached.t
        assert len(list(tmp_path.glob("ref_*.npy"))) == 1

    def test_reference_insensitivity(self, mini_config):
        # halving the reference step changes reported sweep errors < 1%
        sc = Scenario(mini_config(n_steps=8))
        dt = sc.cfg.time.dt
        op = sc.fresh_operator()
        from peridyn.integrator import upd_run
        sweep = upd_run(op, sc.initial_state(), dt, 8, tableau(4)).final
        errs = []
        for div in (8, 16):
            ref = reference_solution(sc, tableau(4), dt / div)
            errs.append(l2_error(sweep.u[:, 1], ref.u[:, 1]))
        assert abs(errs[0] - errs[1]) <= 0.01 * errs[1]

    def test_nondividing_reference_dt_rejected(self, mini_config):
        sc = Scenario(mini_config(n_steps=4))
        with pytest.raises(ValueError, match="divide"):
            reference_solution(sc, tableau(4), sc.final_time / 7.3)


class TestScopedErrors:
    SPLIT = [((0.6, 0.0), (1.0, 0.5))]
    WHOLE_PLATE = [((0.0, 0.0), (1.0, 0.5))]

    def grid_fixture(self, boxes):
        cloud = build_grid(((0, 0), (1, 0.5)), 0.1, thickness=0.01)
        nbrs = build_neighbor_list(cloud, 0.3)
        return cloud, classify_subdomains(cloud, nbrs, boxes)

    def make_states(self, n, seed=0):
        rng = np.random.default_rng(seed)
        a = FieldState(u=rng.normal(size=(n, 2)), v=np.zeros((n, 2)), t=0.0)
        b = FieldState(u=rng.normal(size=(n, 2)), v=np.zeros((n, 2)), t=0.0)
        return a, b

    @pytest.mark.parametrize("boxes", [[], WHOLE_PLATE])
    def test_one_sided_split_reports_all_only(self, boxes):
        # no fine box, or one that holds every point: a side is empty, so
        # the split has no scopes to report, and no warning is raised
        cloud, labels = self.grid_fixture(boxes)
        a, b = self.make_states(cloud.n_points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors = scoped_errors(a, b, labels)
        assert errors == {"all": l2_error(a.u[:, 1], b.u[:, 1])}

    def test_subadditivity(self):
        cloud, labels = self.grid_fixture(self.SPLIT)
        a, b = self.make_states(cloud.n_points)
        errors = scoped_errors(a, b, labels)
        assert list(errors) == ["all", "coarse", "fine"]
        e, e_c, e_f = errors.values()
        assert e <= e_c + e_f + 1e-12
        assert e_c <= e and e_f <= e  # scopes are subsets of all points

    def test_self_comparison_is_zero(self):
        cloud, labels = self.grid_fixture(self.SPLIT)
        a, _ = self.make_states(cloud.n_points)
        assert scoped_errors(a, a, labels) == \
            {"all": 0.0, "coarse": 0.0, "fine": 0.0}
