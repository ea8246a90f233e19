import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peridyn
from peridyn.app import Scenario, preset_config, run_scheme
from peridyn.forces import FieldState, InstabilityError, Loading, \
    Material, PDOperator, SimulationError, update_damage
from peridyn.geometry import build_grid, build_neighbor_list, \
    classify_subdomains
from peridyn.integrator import combine, rk_step, tableau, upd_run
from peridyn.mts import (
    Interpolant, MtsConfig, MtsPlan, OperatorHistory, TimingReport,
    _fi_ghost, assemble_f, build_interpolant, coarse_advance, cost_model,
    estimate_derivatives, fine_advance, matrix_A, mts_run, mts_step,
    startup_step,
)
from tests.conftest import write_mu
from tests.test_forces import make_cloud, random_state, unit_alpha_material


class TestCorrectionMatrices:
    def test_r4_matrix_as_printed(self):
        corr = matrix_A(4, 1.0)
        expected = np.array([
            [1 / 2, 1 / 6, 1 / 24],
            [1, -1 / 2, 1 / 6],
            [1, -3 / 2, 7 / 6],
        ])
        np.testing.assert_allclose(corr.A, expected, rtol=1e-15)

    def test_r4_printed_inverse_is_inverse(self):
        for dt in (1.0, 1e-3, 1e-8, 0.35):
            corr = matrix_A(4, dt)
            np.testing.assert_allclose(corr.A @ corr.gamma, np.eye(3),
                                       atol=1e-13)

    def test_r3_analytic_inverse(self):
        corr = matrix_A(3, 1.0)
        np.testing.assert_allclose(corr.gamma, [[6 / 5, 2 / 5],
                                                [12 / 5, -6 / 5]], rtol=1e-13)
        for dt in (1e-8, 1e-4, 1.0):
            corr = matrix_A(3, dt)
            np.testing.assert_allclose(corr.A @ corr.gamma, np.eye(2),
                                       atol=1e-13)

    def test_gamma_rows_scale_as_dt_powers(self):
        for r in (3, 4):
            g1 = matrix_A(r, 1.0).gamma
            for dt in (1e-6, 0.125):
                g = matrix_A(r, dt).gamma
                for j in range(r - 1):
                    np.testing.assert_allclose(g[j] * dt ** j, g1[j],
                                               rtol=1e-12)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            matrix_A(5, 1.0)
        with pytest.raises(ValueError):
            matrix_A(2, 1.0)


class TestAssembleF:
    def test_constant_rates(self):
        y_n = np.array([1.0, 2.0])
        L = np.array([0.5, -0.25])
        dt = 0.1
        y_np1 = y_n + dt * L + 0.003
        f = assemble_f(4, dt, y_n, y_np1, L, L, L)
        np.testing.assert_allclose(f[0], 0.003 / dt ** 2)
        np.testing.assert_array_equal(f[1], 0.0)
        np.testing.assert_array_equal(f[2], 0.0)

    def test_linear_rates_recover_slope(self):
        dt = 0.05
        m = np.array([2.0, -3.0])
        L = lambda t: m * t + 1.0
        f = assemble_f(4, dt, np.zeros(2), np.zeros(2),
                       L(0.0), L(-dt), L(-2 * dt))
        np.testing.assert_allclose(f[1], m)
        np.testing.assert_allclose(f[2], m)

    def test_quartic_trajectory_recovers_derivatives_exactly(self):
        # u = t^4: all Taylor series feeding A^4 terminate, so d = Gamma f
        # recovers (L', L'', L''') exactly (up to rounding).
        t_n = 0.7
        for dt in (0.2, 0.05):
            u = lambda t: t ** 4
            L = lambda t: 4 * t ** 3
            f = assemble_f(4, dt, np.array([u(t_n)]), np.array([u(t_n + dt)]),
                           np.array([L(t_n)]), np.array([L(t_n - dt)]),
                           np.array([L(t_n - 2 * dt)]))
            d = estimate_derivatives(matrix_A(4, dt), f)
            np.testing.assert_allclose(d[0], 12 * t_n ** 2, rtol=1e-9)
            np.testing.assert_allclose(d[1], 24 * t_n, rtol=1e-9)
            np.testing.assert_allclose(d[2], 24.0, rtol=1e-8)

    def test_cubic_trajectory_exact_for_r3(self):
        t_n = 0.7
        for dt in (0.2, 0.05):
            u = lambda t: t ** 3
            L = lambda t: 3 * t * t
            f = assemble_f(3, dt, np.array([u(t_n)]), np.array([u(t_n + dt)]),
                           np.array([L(t_n)]), np.array([L(t_n - dt)]))
            d = estimate_derivatives(matrix_A(3, dt), f)
            np.testing.assert_allclose(d[0], 6 * t_n, rtol=1e-10)
            np.testing.assert_allclose(d[1], 6.0, rtol=1e-9)

    def test_smooth_derivative_errors_shrink_under_refinement(self):
        t_n = 0.3
        u = np.sin
        L = np.cos
        errs = []
        for dt in (0.1, 0.05, 0.025):
            f = assemble_f(4, dt, np.array([u(t_n)]), np.array([u(t_n + dt)]),
                           np.array([L(t_n)]), np.array([L(t_n - dt)]),
                           np.array([L(t_n - 2 * dt)]))
            d = estimate_derivatives(matrix_A(4, dt), f)
            exact = np.array([-np.sin(t_n), -np.cos(t_n), np.sin(t_n)])
            errs.append(np.abs(d[:, 0] - exact))
        errs = np.array(errs)
        ratios = errs[:-1] / errs[1:]
        # expected orders ~(3, 2, 1); assert they at least shrink that fast
        assert np.all(ratios[:, 0] > 4.0)
        assert np.all(ratios[:, 1] > 3.0)
        assert np.all(ratios[:, 2] > 1.7)

    def test_missing_history_rejected(self):
        with pytest.raises(SimulationError, match="history"):
            assemble_f(4, 0.1, np.zeros(1), np.zeros(1), np.zeros(1),
                       np.zeros(1), None)


def manufactured_history(u, du, t_n, dt, depth=3):
    hist = OperatorHistory(dt)
    for k in reversed(range(depth)):
        t = t_n - k * dt
        hist.push(t, np.atleast_2d(du(t)))
    return hist


class TestInterpolant:
    def poly_traj(self, coeffs):
        def u(t):
            return np.array([[np.polyval(c, t) for c in coeffs]])

        def du(t):
            return np.array([[np.polyval(np.polyder(c), t) for c in coeffs]])

        return u, du

    def test_exact_at_anchor(self):
        u, du = self.poly_traj([[2.0, -1.0, 0.5], [1.0, 0.0, -2.0]])
        t_n, dt = 0.4, 0.125
        hist = manufactured_history(u, du, t_n, dt)
        interp = build_interpolant([0], u(t_n), u(t_n + dt), hist, 4, dt)
        np.testing.assert_array_equal(interp.evaluate(t_n), u(t_n))

    def test_linear_motion_reproduced(self):
        u, du = self.poly_traj([[3.0, 1.0], [-2.0, 0.25]])
        t_n, dt, K = 0.0, 0.2, 4
        for r in (3, 4):
            hist = manufactured_history(u, du, t_n, dt)
            interp = build_interpolant([0], u(t_n), u(t_n + dt), hist, r, dt)
            for k in range(K + 1):
                t = t_n + k * dt / K
                np.testing.assert_allclose(interp.evaluate(t), u(t),
                                           rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("r", [3, 4])
    def test_degree_r_minus_1_reproduction(self, r):
        rng = np.random.default_rng(19)
        coeffs = [rng.uniform(-2, 2, size=r).tolist() for _ in range(3)]
        u, du = self.poly_traj(coeffs)
        t_n, dt = 0.3, 0.04
        hist = manufactured_history(u, du, t_n, dt)
        interp = build_interpolant([0], u(t_n), u(t_n + dt), hist, r, dt)
        for k in range(9):
            t = t_n + k * dt / 8
            scale = np.abs(u(t)).max()
            assert np.abs(interp.evaluate(t) - u(t)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("r", [3, 4])
    def test_smooth_trajectory_order(self, r):
        u = lambda t: np.array([[np.sin(1.3 * t), np.cos(0.9 * t)]])
        du = lambda t: np.array([[1.3 * np.cos(1.3 * t),
                                  -0.9 * np.sin(0.9 * t)]])
        t_n = 0.5
        errs = []
        dts = [0.2 / 2 ** k for k in range(4)]
        for dt in dts:
            hist = manufactured_history(u, du, t_n, dt)
            interp = build_interpolant([0], u(t_n), u(t_n + dt), hist, r, dt)
            err = max(np.abs(interp.evaluate(t_n + k * dt / 8)
                             - u(t_n + k * dt / 8)).max() for k in range(9))
            errs.append(err)
        slopes = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(slopes >= r + 0.8)

    @pytest.mark.parametrize("r", [3, 4])
    def test_bits_of_the_out_of_place_sum(self, r):
        # the in-place accumulation gives y0 + tau L0 + sum_j
        # (tau^(j+2)/(j+2)!) d_j bit for bit, a -0.0 in y0 included
        rng = np.random.default_rng(r)
        dt = 0.37
        y0, L0 = rng.normal(size=(2, 5, 4))
        y0[1, 2] = -0.0
        L0[1, 2] = -1.5
        d = rng.normal(size=(r - 2, 5, 4))
        interp = Interpolant(t0=0.0, dt=dt, y0=y0, L0=L0, d=d)
        inv_fact = (0.5, 1.0 / 6.0)
        for tau in (0.0, dt / 3, dt):
            want = y0 + tau * L0
            power = tau
            for j in range(r - 2):
                power *= tau
                want = want + (inv_fact[j] * power) * d[j]
            assert interp(tau).tobytes() == want.tobytes()

    def test_window_guard(self):
        u, du = self.poly_traj([[1.0, 0.0]])
        hist = manufactured_history(u, du, 0.0, 0.1)
        interp = build_interpolant([0], u(0.0), u(0.1), hist, 3, 0.1)
        with pytest.raises(SimulationError, match="window"):
            interp.evaluate(0.2)
        with pytest.raises(SimulationError, match="window"):
            interp.evaluate(-0.05)


class TestOperatorHistory:
    def test_spacing_validation(self):
        hist = OperatorHistory(0.1)
        hist.push(0.0, np.zeros(2))
        hist.push(0.1, np.zeros(2))
        with pytest.raises(SimulationError, match="spacing"):
            hist.push(0.25, np.zeros(2))
        with pytest.raises(SimulationError, match="increase"):
            hist.push(0.05, np.zeros(2))

    @pytest.mark.parametrize("dt", [1e-5, 1.75e-8, 0.1])
    @pytest.mark.parametrize("t0", [0.0, 3.3e-3])
    def test_long_runs_keep_their_spacing(self, t0, dt):
        # the step loop's times t0 + step * dt carry rounding that grows
        # with t; only a spacing that is wrong by more than that raises
        hist = OperatorHistory(dt)
        values = np.zeros(1)
        for step in range(20_000):
            hist.push(t0 + step * dt, values)
        for step in (10, 10 ** 5, 10 ** 6):
            hist = OperatorHistory(dt)
            hist.push(t0 + step * dt, values)
            hist.push(t0 + (step + 1) * dt, values)
            for wrong in (2.0 * dt, 0.5 * dt, dt * (1.0 + 1e-6)):
                with pytest.raises(SimulationError, match="spacing"):
                    hist.push(hist.t_at(0) + wrong, values)

    def test_ring_depth(self):
        hist = OperatorHistory(1.0)
        for k in range(5):
            hist.push(float(k), np.full(1, k))
        assert len(hist) == 3
        assert hist.values(0)[0] == 4 and hist.values(2)[0] == 2
        assert hist.t_at(2) == 2.0


def smooth_plate(nx=16, ny=8, fine_frac=0.4):
    cloud = build_grid(((0, 0), (1.0, 0.5)), 1.0 / nx, thickness=0.01)
    nbrs = build_neighbor_list(cloud, 3.0 / nx)
    mat = unit_alpha_material(3.0 / nx, thickness=0.01, rho=1.0)
    layer = np.flatnonzero(cloud.positions[:, 0] > 1.0 - 1.5 / nx)
    load = Loading(kind="body_force_layer", indices=layer,
                   value=np.array([0.0, 5e-4]))
    op = PDOperator(cloud, nbrs, mat, loadings=[load])
    boxes = [((1.0 - fine_frac, 0.0), (1.0, 0.5))] if fine_frac else []
    labels = classify_subdomains(cloud, nbrs, boxes)
    y0 = np.zeros((cloud.n_points, 4))
    return op, labels, y0


class TestCoarseAdvance:
    def test_no_fine_boundary_reduces_to_plain_step(self):
        # two clusters farther apart than the horizon: the fine one has no
        # FI layer, so the coarse step needs no ghost values at all
        pos = [[float(i), 0.0] for i in range(5)] + \
              [[100.0 + i, 0.0] for i in range(5)]
        cloud = make_cloud(pos, thickness=1.0)
        nbrs = build_neighbor_list(cloud, 1.5)
        op = PDOperator(cloud, nbrs, unit_alpha_material(1.5))
        labels = classify_subdomains(cloud, nbrs, [((99.0, -1), (105.0, 1))])
        assert len(labels.indices(1)) == 0 and len(labels.indices(2)) == 0
        rng = np.random.default_rng(1)
        y = 0.01 * rng.normal(size=(10, 4))
        dt = 0.05
        hist = OperatorHistory(dt)
        for k in reversed(range(3)):
            hist.push(-k * dt, op.rates(y, 0.0))  # state frozen: rates equal
        plan = MtsPlan(op, MtsConfig(order=4, dt=dt, K=2, labels=labels))
        advanced = coarse_advance(plan, y, 0.0, hist)
        plain, _ = rk_step(plan.tab, y, op.rates, 0.0, dt)
        rows = labels.omega_hat_c
        assert np.array_equal(advanced[rows], plain[rows])

    @pytest.mark.parametrize("order", [3, 4])
    def test_all_coarse_step_equals_upd_step(self, order):
        op, labels, _ = smooth_plate(fine_frac=0.0)
        dt = 1e-3
        tab = tableau(order)
        # warm up two steps so history exists
        y = np.zeros((op.cloud.n_points, 4))
        hist = OperatorHistory(dt)
        hist.push(0.0, op.rates(y, 0.0))
        for m in range(2):
            y, _ = rk_step(tab, y, op.rates, m * dt, dt)
            hist.push((m + 1) * dt, op.rates(y, (m + 1) * dt))
        plan = MtsPlan(op, MtsConfig(order=order, dt=dt, K=1, labels=labels))
        stepped = mts_step(plan, y, 2 * dt, 3 * dt, hist, TimingReport())
        plain, _ = rk_step(tab, y, op.rates, 2 * dt, dt)
        assert np.array_equal(stepped, plain)

    @pytest.mark.parametrize("order", [3, 4])
    def test_corrected_step_matches_upd_to_high_order(self, order):
        # one corrected coarse step differs from one plain step only through
        # the ghost extrapolation: the gap must shrink as O(dt^{r+1})
        op, labels, y0 = smooth_plate()
        tab = tableau(order)
        gaps = []
        dts = [4e-3, 2e-3, 1e-3, 5e-4]
        for dt in dts:
            y = y0.copy()
            hist = OperatorHistory(dt)
            hist.push(0.0, op.rates(y, 0.0))
            for m in range(2):
                y, _ = rk_step(tab, y, op.rates, m * dt, dt)
                hist.push((m + 1) * dt, op.rates(y, (m + 1) * dt))
            plan = MtsPlan(op, MtsConfig(order=order, dt=dt, K=1,
                                         labels=labels))
            corrected = coarse_advance(plan, y, 2 * dt, hist)
            plain, _ = rk_step(tab, y, op.rates, 2 * dt, dt)
            ci = labels.indices(2)
            gaps.append(np.linalg.norm(corrected[ci] - plain[ci]))
        slopes = np.log2(np.array(gaps[:-1]) / gaps[1:])
        assert np.all(slopes >= order + 0.5)


class TestFineAdvance:
    def test_static_state_unchanged(self):
        op, labels, y0 = smooth_plate()
        # disable the load: a zero state is then stationary
        op.body[:] = 0.0
        dt = 1e-3
        hist = OperatorHistory(dt)
        for k in reversed(range(3)):
            hist.push(-k * dt, op.rates(y0, 0.0))
        for K in (1, 3, 8):
            plan = MtsPlan(op, MtsConfig(order=4, dt=dt, K=K, labels=labels))
            y_half = coarse_advance(plan, y0, 0.0, hist)
            interp = build_interpolant(labels.indices(2), y0, y_half, hist,
                                       4, dt)
            out = fine_advance(plan, y_half, interp, 0.0, hist)
            assert np.array_equal(out, y0)



class TestInPlaceContract:
    """coarse_advance returns one fresh array and fine_advance advances its
    argument in place; each writes only its own side's rows."""

    @staticmethod
    def stepped_plan(order, s0, fine_frac, K=3):
        op, labels, _ = smooth_plate(fine_frac=fine_frac)
        dt = 1e-3
        plan = MtsPlan(op, MtsConfig(order=order, dt=dt, K=K, labels=labels),
                       s0=s0)
        hist = OperatorHistory(dt)
        t_n = 9 * dt
        for back in (2, 1, 0):
            t = t_n - back * dt
            hist.push(t, op.rates(random_state(op, 10 + back), t))
        return plan, hist, t_n, random_state(op, 3)

    @pytest.mark.parametrize("fine_frac", [0.4, 0.0])
    @pytest.mark.parametrize("s0", [None, 0.05])
    @pytest.mark.parametrize("order", [3, 4])
    def test_coarse_advance_leaves_input_and_fine_rows(self, order, s0,
                                                       fine_frac):
        plan, hist, t_n, y_n = self.stepped_plan(order, s0, fine_frac)
        before = y_n.copy()
        y_half = coarse_advance(plan, y_n, t_n, hist)
        assert np.array_equal(y_n, before)
        assert np.array_equal(y_half[plan.rows_f], before[plan.rows_f])
        assert not np.array_equal(y_half[plan.rows_c], before[plan.rows_c])

    @pytest.mark.parametrize("fine_frac", [0.4, 0.0])
    @pytest.mark.parametrize("s0", [None, 0.05])
    @pytest.mark.parametrize("order", [3, 4])
    def test_fine_advance_leaves_coarse_rows(self, order, s0, fine_frac):
        plan, hist, t_n, y_n = self.stepped_plan(order, s0, fine_frac)
        y_half = coarse_advance(plan, y_n, t_n, hist)
        interp = build_interpolant(plan.idx_ci, y_n, y_half, hist, order,
                                   plan.config.dt)
        before = y_half.copy()
        out = fine_advance(plan, y_half, interp, t_n, hist)
        assert out is y_half
        assert np.array_equal(out[plan.rows_c], before[plan.rows_c])
        if len(plan.rows_f):
            assert not np.array_equal(out[plan.rows_f], before[plan.rows_f])

    def test_refuses_a_state_not_c_contiguous(self):
        # rows move as void records of the state's rows: an F-ordered
        # state would take single elements in place of rows
        plan, hist, t_n, y_n = self.stepped_plan(4, 0.05, 0.4)
        y_f = np.asfortranarray(y_n)
        with pytest.raises(ValueError, match="C-contiguous"):
            coarse_advance(plan, y_f, t_n, hist)
        y_half = coarse_advance(plan, y_n, t_n, hist)
        interp = build_interpolant(plan.idx_ci, y_n, y_half, hist, 4,
                                   plan.config.dt)
        y_half_f = np.asfortranarray(y_half)
        with pytest.raises(ValueError, match="C-contiguous"):
            fine_advance(plan, y_half_f, interp, t_n, hist)
        assert np.array_equal(y_half_f, y_half)

    @pytest.mark.parametrize("s0", [None, 0.05])
    @pytest.mark.parametrize("order", [3, 4])
    def test_fine_stage_failure_leaves_step_input(self, order, s0,
                                                  monkeypatch):
        plan, hist, t_n, y_n = self.stepped_plan(order, s0, 0.4)
        before = y_n.copy()
        # non-finite CI values make the first fine stage that reads them fail
        monkeypatch.setattr(Interpolant, "evaluate",
                            lambda self, t: np.full_like(self.y0, np.nan))
        with pytest.raises(InstabilityError) as err:
            mts_step(plan, y_n, t_n, t_n + plan.config.dt, hist,
                     TimingReport())
        assert err.value.stage == 1
        assert np.array_equal(y_n, before)
        assert len(hist) == 3 and hist.t_at(0) == t_n


class TestStartupAndRun:
    @staticmethod
    def two_startup_steps(op, y0, cfg):
        """The history and the states at t_1, t_2 from two startup steps."""
        plan = MtsPlan(op, cfg)
        hist = OperatorHistory(cfg.dt)
        hist.push(0.0, op.rates(y0, 0.0))
        states = [y0]
        for m in range(2):
            states.append(startup_step(plan, states[-1], m * cfg.dt,
                                       (m + 1) * cfg.dt, hist,
                                       TimingReport()))
        return hist, states[1:]

    def test_startup_k1_equals_two_upd_steps(self):
        op, labels, y0 = smooth_plate()
        dt = 1e-3
        cfg = MtsConfig(order=4, dt=dt, K=1, labels=labels)
        hist, coarse_states = self.two_startup_steps(op, y0, cfg)
        tab = tableau(4)
        y = y0.copy()
        for m in range(2):
            y, _ = rk_step(tab, y, op.rates, m * dt, dt)
        assert np.array_equal(coarse_states[-1], y)
        assert len(hist) == 3

    def test_startup_zero_data_zero_history(self):
        op, labels, y0 = smooth_plate()
        op.body[:] = 0.0
        cfg = MtsConfig(order=3, dt=1e-3, K=4, labels=labels)
        hist, states = self.two_startup_steps(op, y0, cfg)
        for back in range(3):
            np.testing.assert_array_equal(hist.values(back), 0.0)
        np.testing.assert_array_equal(states[-1], 0.0)

    def test_startup_checks_damage_on_whole_domain(self):
        op, labels, y0 = smooth_plate()
        cfg = MtsConfig(order=4, dt=1e-9, K=2, labels=labels)
        plan = MtsPlan(op, cfg, s0=0.01)
        y = y0.copy()
        y[:, :2] = 0.05 * op.cloud.positions  # every bond stretched 5%
        hist = OperatorHistory(cfg.dt)
        hist.push(0.0, op.rates(y, 0.0))
        startup_step(plan, y, 0.0, cfg.dt, hist, TimingReport())
        assert np.all(op.nbrs.mu == 0.0)  # coarse and fine bonds alike

    def test_total_simulated_time(self):
        op, labels, y0 = smooth_plate()
        cfg = MtsConfig(order=3, dt=1e-3, K=2, labels=labels)
        traj, timing = mts_run(op, FieldState.from_packed(y0, 0.0), cfg, 7,
                               s0=0.5)
        assert traj.final.t == pytest.approx(7e-3, rel=1e-12)
        # one startup step (r-2); one history push at t_0 and after every step
        assert timing.entries["startup"][0] == 1
        assert timing.entries["history"][0] == 8
        assert timing.entries["coarse"][0] == 6
        # with fracture on, each side's checks run inside its own phase
        assert set(timing.entries) == {"startup", "coarse", "interpolant",
                                       "fine", "history"}

    def test_reduction_identity_small(self):
        op, labels_empty, y0 = smooth_plate(fine_frac=0.0)
        dt = 1e-3
        cfg = MtsConfig(order=4, dt=dt, K=1, labels=labels_empty)
        state0 = FieldState.from_packed(y0, 0.0)
        traj_mts, _ = mts_run(op, state0, cfg, 12, record_every=1)
        traj_upd = upd_run(op, state0, dt, 12, tableau(4), record_every=1)
        assert len(traj_mts.states) == len(traj_upd.states)
        for sm, su in zip(traj_mts.states, traj_upd.states):
            assert sm.t == su.t
            assert np.array_equal(sm.u, su.u)
            assert np.array_equal(sm.v, su.v)

    def test_mts_tracks_fine_upd_within_coarse_error(self):
        op, labels, y0 = smooth_plate()
        dt, K, n = 2e-3, 4, 10
        state0 = FieldState.from_packed(y0, 0.0)
        mts_traj, _ = mts_run(op, state0, MtsConfig(order=4, dt=dt, K=K,
                                                    labels=labels), n)
        upd_fine = upd_run(op, state0, dt / K, n * K, tableau(4))
        upd_coarse = upd_run(op, state0, dt, n, tableau(4))
        ref = upd_run(op, state0, dt / 16, n * 16, tableau(4))
        diff = np.linalg.norm(mts_traj.final.u - upd_fine.final.u)
        coarse_err = np.linalg.norm(upd_coarse.final.u - ref.final.u)
        assert diff < coarse_err

    def test_error_monotone_in_k(self):
        op, labels, y0 = smooth_plate()
        dt, n = 2e-3, 10
        state0 = FieldState.from_packed(y0, 0.0)
        ref = upd_run(op, state0, dt / 32, n * 32, tableau(4))
        errors = []
        for K in (1, 2, 4, 8):
            traj, _ = mts_run(op, state0, MtsConfig(order=3, dt=dt, K=K,
                                                    labels=labels), n)
            errors.append(np.linalg.norm(traj.final.u - ref.final.u))
        assert all(a >= b for a, b in zip(errors, errors[1:]))


class TestRunScopedViews:
    """A run builds the full view and the split and drops them when it
    ends, also when it raises: an idle operator holds its topology and bond
    flags only, and its next run equals a run on a fresh operator with the
    same flags, bit for bit."""

    @staticmethod
    def run(scheme, op, labels, y0, s0, on_step=None):
        state0 = FieldState.from_packed(y0, 0.0)
        if scheme == "upd":
            return upd_run(op, state0, 1e-3, 6, tableau(4), s0=s0,
                           on_step=on_step)
        cfg = MtsConfig(order=4, dt=1e-3, K=2, labels=labels)
        return mts_run(op, state0, cfg, 6, s0=s0, on_step=on_step)[0]

    @pytest.mark.parametrize("s0", [None, 1e-8])
    @pytest.mark.parametrize("scheme", ["upd", "mts"])
    def test_views_last_one_run(self, scheme, s0):
        op, labels, y0 = smooth_plate()
        # a view that outlives the runs: it keeps evaluating, on the flags
        # of the moment
        kept = op.make_view(labels.omega_hat_f)
        z = np.random.default_rng(3).normal(scale=1e-3, size=y0.shape)
        before = op.rates(z, 0.0, kept)
        held = []

        def stop(step, t, y):
            held.append((op._full_view is not None,
                         op.nbrs.bond_sides is not None))
            if step == 4:
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            self.run(scheme, op, labels, y0, s0, stop)
        # the full view, and in an MTS run the split
        assert held[-1] == (True, scheme == "mts")
        assert op._full_view is None and op.nbrs.bond_sides is None
        assert op.nbrs.damage_table is None
        assert (s0 is None) == op.nbrs.mu.all()
        after = op.rates(z, 0.0, kept)
        made_now = op.rates(z, 0.0, op.make_view(labels.omega_hat_f))
        assert after.tobytes() == made_now.tobytes()
        assert (after.tobytes() == before.tobytes()) == (s0 is None)
        fresh, _, _ = smooth_plate()
        write_mu(fresh.nbrs, mu=op.nbrs.mu)
        again = self.run(scheme, op, labels, y0, s0)
        assert op._full_view is None and op.nbrs.bond_sides is None
        want = self.run(scheme, fresh, labels, y0, s0)
        assert len(again.states) == len(want.states)
        for got, expected in zip(again.states, want.states):
            assert got.u.tobytes() == expected.u.tobytes()
            assert got.v.tobytes() == expected.v.tobytes()
        assert np.array_equal(op.nbrs.mu, fresh.nbrs.mu)


# The coarse and fine advances as hand-written stage loops on scratch copies,
# kept here as the oracle for the in-place substep loop (mts._substeps over
# integrator.stages) that replaced them.

def hand_coarse_advance(plan, y_n, t_n, history):
    out = y_n.copy()
    rows = plan.rows_c
    tab = plan.tab
    dt = plan.config.dt
    dim = plan.op.cloud.dim
    ghost = _fi_ghost(plan, y_n, history)
    scratch = y_n.copy()
    y_rows = y_n[rows]
    rates = []
    for j in range(tab.r):
        if j == 0:
            rates.append(history.values(0)[rows])
            continue
        scratch[rows] = combine(y_rows, dt, tab.a[j, :j], rates)
        if ghost is not None:
            scratch[plan.idx_fi] = ghost(tab.c[j] * dt)
        rates.append(plan.op.rates(scratch, t_n + tab.c[j] * dt,
                                   view=plan.coarse_view))
    out[rows] = combine(y_rows, dt, tab.b, rates)
    # the coarse side's bonds have both ends coarse: its FI rows, still at
    # t_n, are not read
    update_damage(plan.op.nbrs, out[:, :dim], plan.s0,
                  bond_mask=plan.coarse_bond_mask)
    return out


def hand_fine_advance(plan, y_half, interp, t_n, history):
    rows = plan.rows_f
    tab = plan.tab
    K = plan.config.K
    dt_k = plan.config.dt / K
    ci = plan.idx_ci
    dim = plan.op.cloud.dim
    scratch = y_half.copy()
    y_cur = y_half[rows].copy()
    for k in range(K):
        t_k = t_n + k * dt_k
        rates = []
        for j in range(tab.r):
            stage_t = t_k + tab.c[j] * dt_k
            if k == 0 and j == 0:
                rates.append(history.values(0)[rows])
                continue
            scratch[rows] = y_cur if j == 0 \
                else combine(y_cur, dt_k, tab.a[j, :j], rates)
            scratch[ci] = interp.evaluate(stage_t)
            rates.append(plan.op.rates(scratch, stage_t, view=plan.fine_view))
        y_cur = combine(y_cur, dt_k, tab.b, rates)
        scratch[rows] = y_cur
        scratch[ci] = interp.evaluate(t_k + dt_k)
        update_damage(plan.op.nbrs, scratch[:, :dim], plan.s0,
                      bond_mask=plan.fine_bond_mask)
    y_half[rows] = y_cur
    return y_half


class TestSharedStageLoop:
    @pytest.mark.parametrize("order", [3, 4])
    def test_advances_match_hand_written_loops(self, order):
        op, labels, _ = smooth_plate()
        dt, K = 1e-3, 3
        plan = MtsPlan(op, MtsConfig(order=order, dt=dt, K=K, labels=labels),
                       s0=0.05)
        assert len(plan.idx_fi) and len(plan.idx_ci)
        hist = OperatorHistory(dt)
        t_n = 9 * dt  # far enough from 0 that t - t_n != tau in rounding
        for back in (2, 1, 0):
            t = t_n - back * dt
            hist.push(t, op.rates(random_state(op, 10 + back), t))
        y_n = random_state(op, 3)
        y_n[:, 2:] = 0.0  # at rest, so a one-ulp change in a force shows
        mu0 = op.nbrs.mu.copy()
        results = []
        for coarse, fine in ((hand_coarse_advance, hand_fine_advance),
                             (coarse_advance, fine_advance)):
            write_mu(op.nbrs, mu=mu0)
            y_half = coarse(plan, y_n, t_n, hist)
            interp = build_interpolant(plan.idx_ci, y_n, y_half, hist,
                                       order, dt)
            y_next = fine(plan, y_half.copy(), interp, t_n, hist)
            results.append((y_half, y_next, op.nbrs.mu.copy()))
        assert np.any(results[0][2] != mu0)  # bonds broke mid-advance
        for hand, shared in zip(*results):
            assert np.array_equal(hand, shared)

    def test_mts_instability_reports_stage_and_last_good_step(self):
        op, labels, y0 = smooth_plate()
        y = y0.copy()
        y[:, :2] = 1e-3 * np.random.default_rng(0).normal(size=(len(y), 2))
        cfg = MtsConfig(order=4, dt=1e3, K=2, labels=labels)  # far unstable
        with pytest.raises(InstabilityError, match="last good step") as err:
            mts_run(op, FieldState.from_packed(y, 0.0), cfg, 200)
        assert err.value.stage is not None
        assert err.value.last_good_step >= 2  # past the startup steps

    @pytest.mark.parametrize("n_steps, record_every, recorded", [
        (0, None, [0]), (0, 3, [0]), (7, 3, [0, 3, 6, 7]), (7, None, [0, 7])])
    def test_drivers_share_cadence_and_on_step(self, n_steps, record_every,
                                               recorded):
        op, labels, y0 = smooth_plate()
        dt = 1e-3
        state0 = FieldState.from_packed(y0, 0.0)
        seen = {"upd": [], "mts": []}
        upd = upd_run(op, state0, dt, n_steps, tableau(4),
                      record_every=record_every,
                      on_step=lambda step, t, y: seen["upd"].append((step, t)))
        mts, _ = mts_run(op, state0, MtsConfig(order=4, dt=dt, K=2,
                                               labels=labels), n_steps,
                         record_every=record_every,
                         on_step=lambda step, t, y: seen["mts"].append((step, t)))
        assert np.array_equal(upd.times(), mts.times())
        assert seen["upd"] == seen["mts"]
        assert seen["mts"] == [(step, step * dt)
                               for step in range(1, n_steps + 1)]
        assert np.array_equal(mts.times(), np.array(recorded) * dt)


def views_ratio(plan: MtsPlan) -> float:
    """The cost model's ratio from the bond counts of the plan's views."""
    r, K, b = plan.tab.r, plan.config.K, plan.op.nbrs.n_bonds
    return ((r - 1) * plan.coarse_view.n_bonds
            + (K * r - 1) * plan.fine_view.n_bonds + b) / (K * r * b)


class TestCostModel:
    def test_k1_without_fine_region_costs_what_upd_costs(self):
        op, labels, _ = smooth_plate(fine_frac=0)
        for order in (3, 4):
            config = MtsConfig(order=order, dt=1e-3, K=1, labels=labels)
            plan = MtsPlan(op, config)
            assert plan.fine_view.n_bonds == 0
            assert cost_model(op.nbrs, config) == 1.0

    def test_crack2d_preset(self):
        scenario = Scenario(preset_config("crack2d"))
        for K, want in ((2, 0.601), (4, 0.402), (8, 0.302)):
            assert cost_model(scenario.nbrs, scenario.mts_config(K=K)) == \
                pytest.approx(want, abs=1e-3)

    @pytest.mark.parametrize("order, K", [(3, 2), (4, 3)])
    def test_counts_the_bonds_a_coarse_step_evaluates(self, order, K,
                                                      monkeypatch):
        op, labels, _ = smooth_plate()
        dt = 1e-3
        plan = MtsPlan(op, MtsConfig(order=order, dt=dt, K=K, labels=labels),
                       s0=0.05)
        hist = OperatorHistory(dt)
        t_n = 9 * dt
        for back in (2, 1, 0):
            t = t_n - back * dt
            hist.push(t, op.rates(random_state(op, 20 + back), t))
        evaluated = []
        rates = PDOperator.rates

        def counting(self, y, t, view=None):
            evaluated.append((view or self.full_view).n_bonds)
            return rates(self, y, t, view)

        monkeypatch.setattr(PDOperator, "rates", counting)
        mts_step(plan, random_state(op, 3), t_n, t_n + dt, hist,
                 TimingReport())
        bonds = op.nbrs.n_bonds
        model = cost_model(op.nbrs, plan.config)
        assert model == views_ratio(plan)
        assert sum(evaluated) == \
            pytest.approx(model * K * order * bonds, rel=1e-12)

    @pytest.mark.parametrize("s0", [None, 0.05])
    @pytest.mark.parametrize("order, K", [(3, 2), (4, 3)])
    def test_counts_the_interpolant_evaluations_of_a_coarse_step(
            self, order, K, s0, monkeypatch):
        # the fine stages after the first read the CI layer through
        # Interpolant.evaluate, and so does each substep's damage check;
        # the coarse stages' FI ghost is an Interpolant called directly
        plan, hist, t_n, y_n = TestInPlaceContract.stepped_plan(order, s0,
                                                                0.4, K)
        assert len(plan.idx_fi) and len(plan.idx_ci)
        calls = []
        evaluate = Interpolant.evaluate

        def counting(self, t):
            calls.append(t)
            return evaluate(self, t)

        monkeypatch.setattr(Interpolant, "evaluate", counting)
        mts_step(plan, y_n, t_n, t_n + plan.config.dt, hist, TimingReport())
        assert len(calls) == K * order - 1 + (K if s0 is not None else 0)


def momentum_imbalance(op, final) -> float:
    """The larger relative error of the momentum balance rho V sum(v) =
    T V sum(b) and of its integral rho V sum(u) = T^2/2 V sum(b), for a
    run from rest with body forces only: internal forces cancel pair by
    pair, so a scheme that evaluates each bond once per stage keeps both."""
    rho, vol, T = op.material.rho, op.cloud.volume_per_point, final.t
    load = vol * op.body.sum(axis=0)
    return max(np.abs(total - expect).max() / np.abs(expect).max()
               for total, expect in (
                   (rho * vol * final.v.sum(axis=0), T * load),
                   (rho * vol * final.u.sum(axis=0), 0.5 * T * T * load)))


class TestMomentumBalance:
    """Desk plate2d, from rest under a body-force layer, to the preset's
    final time.  UPD keeps the balance to rounding.  MTS evaluates each
    interface bond twice, at different values, so its impulses need not
    cancel; the imbalance is a time-stepping error and falls at the
    scheme's order as dt halves."""

    @staticmethod
    def imbalances(order, scheme, halvings):
        cfg = preset_config("plate2d")
        cfg = dataclasses.replace(cfg, mts=dataclasses.replace(cfg.mts,
                                                               order=order))
        scenario = Scenario(cfg)
        dt, n = cfg.time.dt, cfg.time.n_steps
        found = []
        for h in (2 ** k for k in range(halvings + 1)):
            op = scenario.fresh_operator()
            traj, _ = run_scheme(scenario, op, scheme, dt / h, n * h, K=2)
            assert traj.final.t == pytest.approx(scenario.final_time)
            found.append(momentum_imbalance(op, traj.final))
        return found

    @pytest.mark.parametrize("order", [3, 4])
    def test_upd_keeps_the_balance(self, order):
        assert max(self.imbalances(order, "upd", 1)) <= 1e-12

    @pytest.mark.parametrize("order", [3, 4])
    def test_mts_imbalance_falls_at_the_order(self, order):
        # each halving divides it by at least 0.8 * 2^r, unless it is
        # already down to rounding
        found = self.imbalances(order, "mts", 2)
        assert found[0] > 1e-9
        for coarse, fine in zip(found, found[1:]):
            assert fine <= 1e-12 or coarse / fine >= 0.8 * 2 ** order


def energy(op, state) -> tuple:
    """(H, kinetic energy) of a state under the linear law with body forces
    only: H = 1/2 rho V sum |v|^2 - 1/2 V sum u . f(u) - V sum b . u, where
    f(u) = rho * accel - b is the internal force density (accel depends on
    u alone)."""
    rho, vol, dim = op.material.rho, op.cloud.volume_per_point, op.cloud.dim
    u, v = state.u, state.v
    force = rho * op.rates(state.packed(), state.t)[:, dim:] - op.body
    kinetic = 0.5 * rho * vol * np.sum(v * v)
    return kinetic - vol * np.sum(u * (0.5 * force + op.body)), kinetic


class TestEnergyBalance:
    """Desk plate2d, from rest under a body-force layer: the linear law
    without fracture conserves H, so its drift over the preset's run is a
    time-stepping error and falls at the scheme's order as dt halves."""

    @pytest.mark.parametrize("scheme, order", [("upd", 3), ("upd", 4),
                                               ("mts", 3), ("mts", 4)])
    def test_drift_falls_at_the_order(self, scheme, order):
        cfg = preset_config("plate2d")
        cfg = dataclasses.replace(cfg, mts=dataclasses.replace(cfg.mts,
                                                               order=order))
        scenario = Scenario(cfg)
        dt, n = cfg.time.dt, cfg.time.n_steps
        drifts = []
        for h in (1, 2, 4):
            op = scenario.fresh_operator()
            traj, _ = run_scheme(scenario, op, scheme, dt / h, n * h, K=2)
            (h0, _), (h1, kinetic) = (energy(op, s) for s in
                                      (traj.states[0], traj.final))
            drifts.append((abs(h1 - h0), kinetic))
        assert drifts[0][0] > 1e-9 * drifts[0][1]
        # each halving divides it by at least 0.8 * 2^r, unless it is
        # already under 1e-12 of the kinetic energy
        for (coarse, _), (fine, kinetic) in zip(drifts, drifts[1:]):
            assert fine <= 1e-12 * kinetic or coarse / fine >= 0.8 * 2 ** order


class TestStiffnessSymmetry:
    """Under the linear law, M a = (rates([a|0]) - rates(0))[:, dim:] on the
    free points is a symmetric operator: pair forces are antisymmetric and
    every point has the same volume and density.  A velocity layer drops
    its points, and a broken bond drops both of its directions, so neither
    breaks the symmetry.  The load-free stiffness is the same one the
    stability limit of explicit stepping is read from."""

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([2, 3]), horizon=st.floats(2.0, 3.5),
           velocity_layer=st.booleans(), broken=st.sampled_from([0.0, 0.2]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_load_free_stiffness_is_symmetric(self, dim, horizon,
                                              velocity_layer, broken, seed):
        rng = np.random.default_rng(seed)
        h = 1.0 / (12 if dim == 2 else 6)
        cloud = build_grid(((0.0,) * dim, (1.0,) + (0.5,) * (dim - 1)), h,
                           thickness=0.01 if dim == 2 else None)
        nbrs = build_neighbor_list(cloud, horizon * h)
        x = cloud.positions[:, 0]
        loads = [Loading(kind="body_force_layer",
                         indices=np.flatnonzero(x > 0.8),
                         value=rng.normal(size=dim))]
        free = np.ones(cloud.n_points, dtype=bool)
        if velocity_layer:
            free[x < 0.2] = False
            loads.append(Loading(kind="velocity_constraint",
                                 indices=np.flatnonzero(~free),
                                 value=rng.normal(size=dim)))
        op = PDOperator(cloud, nbrs, Material(E=1.0, rho=1.0),
                        loadings=loads, law="linear")
        pairs = np.flatnonzero(nbrs.bond_i < nbrs.neighbors)
        write_mu(op.nbrs, rng.choice(pairs, round(broken * len(pairs)),
                                     replace=False))
        y = np.zeros((cloud.n_points, 2 * dim))
        rate0 = op.rates(y, 0.0)

        def stiffness(a):
            y[free, :dim] = a
            return (op.rates(y, 0.0) - rate0)[free, dim:]

        # displacements of about 5% of the spacing, so no bond collapses
        a, b = (0.05 * h * rng.normal(size=(int(free.sum()), dim))
                for _ in range(2))
        ma, mb = stiffness(a), stiffness(b)
        assert np.linalg.norm(mb) > 0
        assert abs(np.sum(a * mb) - np.sum(b * ma)) <= \
            1e-13 * np.linalg.norm(a) * np.linalg.norm(mb)


# crack2d by MTS to coarse step 8; prints the SHA-256 of the final u, v and
# bond flags, one a line
CRACK_DIGESTS = """
import hashlib
from peridyn.app import Scenario, preset_config, run_scheme
scenario = Scenario(preset_config("crack2d"))
op = scenario.fresh_operator()
traj, _ = run_scheme(scenario, op, "mts", scenario.cfg.time.dt, 8)
for a in (traj.final.u, traj.final.v, op.nbrs.mu):
    print(hashlib.sha256(a.tobytes()).hexdigest())
"""


def numpy_dispatch() -> list:
    """The CPU features that numpy's build dispatches its loops to."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return list(__cpu_dispatch__)


class TestDispatchIndependence:
    def test_trajectory_bits_do_not_depend_on_cpu_dispatch(self, capsys):
        # a run in a process whose numpy may dispatch to none of its SIMD
        # loops and whose OpenBLAS takes its oldest x86-64 kernels (no FMA)
        # ends with the bits of a run in this process: every operation on
        # the trajectory path is one that IEEE 754 rounds correctly
        env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
                   NPY_DISABLE_CPU_FEATURES=" ".join(numpy_dispatch()),
                   PYTHONPATH=str(Path(peridyn.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", CRACK_DIGESTS],
                              env=env, capture_output=True, text=True,
                              timeout=600)
        assert done.returncode == 0, done.stderr
        exec(CRACK_DIGESTS, {})
        here = capsys.readouterr().out
        assert len(here.split()) == 3
        assert done.stdout == here
