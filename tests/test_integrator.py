import math

import numpy as np
import pytest
import scipy.linalg

from peridyn.forces import FieldState, InstabilityError, PDOperator
from peridyn.geometry import build_neighbor_list
from peridyn.integrator import (
    ButcherTableau, combine, rk_step, stages, tableau, tableau_rk3,
    tableau_rk4, upd_run,
)
from tests.test_forces import make_cloud, unit_alpha_material


def truncated_exp(z, r):
    return sum(z ** k / math.factorial(k) for k in range(r + 1))


class TestTableaus:
    def test_rk3_coefficients(self):
        tab = tableau_rk3()
        assert tab.c[1] == tab.a[1, 0] == pytest.approx(2 / 3)
        assert tab.b.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(tab.b, [0.25, 0.375, 0.375])

    def test_rk4_coefficients(self):
        tab = tableau_rk4()
        np.testing.assert_allclose(tab.c, [0, 0.5, 0.5, 1.0])
        np.testing.assert_allclose(tab.b, [1 / 6, 1 / 3, 1 / 3, 1 / 6])
        assert tab.b.sum() == pytest.approx(1.0, abs=1e-15)

    def test_row_sum_identities_exact(self):
        for tab in (tableau_rk3(), tableau_rk4()):
            assert np.max(np.abs(tab.c - tab.a.sum(axis=1))) <= 1e-15
            assert abs(tab.b.sum() - 1.0) <= 1e-15

    def test_validation_rejects_bad_tableaus(self):
        a = np.zeros((2, 2))
        a[0, 1] = 1.0  # upper triangle: not explicit
        with pytest.raises(ValueError, match="explicit"):
            ButcherTableau(a=a, b=np.array([0.5, 0.5]),
                           c=np.array([0.0, 0.0])).validate()
        with pytest.raises(ValueError, match="row-sum"):
            ButcherTableau(a=np.zeros((2, 2)), b=np.array([0.5, 0.5]),
                           c=np.array([0.0, 1.0])).validate()
        with pytest.raises(ValueError, match="sum to 1"):
            ButcherTableau(a=np.zeros((2, 2)), b=np.array([0.5, 0.4]),
                           c=np.array([0.0, 0.0])).validate()

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            tableau(5)


class TestRkStep:
    def test_zero_operator_keeps_state(self):
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        for tab in (tableau_rk3(), tableau_rk4()):
            out, rates = rk_step(tab, y, lambda s, t: np.zeros_like(s), 0.0, 0.1)
            np.testing.assert_array_equal(out, y)
            assert len(rates) == tab.r

    def test_exponential_growth_matches_taylor(self):
        # u' = u over one step equals the truncated exponential exactly
        for tab, r in ((tableau_rk3(), 3), (tableau_rk4(), 4)):
            for h in (0.1, 0.05, 1.0):
                y = np.array([1.0])
                out, _ = rk_step(tab, y, lambda s, t: s, 0.0, h)
                assert out[0] == pytest.approx(truncated_exp(h, r), rel=1e-15)

    def test_rk4_reference_value(self):
        out, _ = rk_step(tableau_rk4(), np.array([1.0]), lambda s, t: s,
                         0.0, 0.1)
        assert out[0] == pytest.approx(1.1051708333333333, rel=1e-15)

    def test_stability_polynomial(self):
        # u' = lam * u: the update factor is the order-r truncated exp
        for tab, r in ((tableau_rk3(), 3), (tableau_rk4(), 4)):
            for lam in (-2.0, 0.7, -0.31):
                for h in (0.2, 0.01):
                    out, _ = rk_step(tab, np.array([1.0]),
                                     lambda s, t: lam * s, 0.0, h)
                    assert out[0] == pytest.approx(truncated_exp(lam * h, r),
                                                   rel=1e-14)

    def test_rk3_integrates_quadratic_forcing_exactly(self):
        def rate(_, t):
            return np.array([3 * t * t - 2 * t + 1])

        def antiderivative(t):
            return t ** 3 - t ** 2 + t

        t0, h = 0.3, 0.17
        out, _ = rk_step(tableau_rk3(), np.array([antiderivative(t0)]),
                         rate, t0, h)
        assert out[0] == pytest.approx(antiderivative(t0 + h), rel=1e-14)

    def test_stage_index_attached_to_failures(self):
        def rate(s, t):
            if t > 0:
                raise InstabilityError(point=0, t=t)
            return np.zeros_like(s)

        with pytest.raises(InstabilityError, match="stage 2"):
            rk_step(tableau_rk4(), np.array([1.0]), rate, 0.0, 0.1)

    def test_known_stage0_rate_is_not_reevaluated(self):
        def rate(s, t):
            return np.sin(3.0 * t) - 0.7 * s

        y, t, h = np.array([0.3, -1.2]), 0.4, 0.05
        for tab in (tableau_rk3(), tableau_rk4()):
            plain, plain_rates = rk_step(tab, y, rate, t, h)
            calls = []

            def stage_rate(j, yj):
                calls.append(j)
                return rate(yj, t + tab.c[j] * h)

            out, rates = stages(tab, y, h, stage_rate, rate0=rate(y, t))
            assert calls == list(range(1, tab.r))
            assert np.array_equal(out, plain)
            assert all(np.array_equal(a, b) for a, b in zip(rates, plain_rates))


class TestCombine:
    @staticmethod
    def out_of_place(y, dt, coeffs, rates):
        """The sum with fresh temporaries: y + dt * (c_0 r_0 + c_1 r_1 ...)."""
        terms = [c * r for c, r in zip(coeffs, rates) if c != 0.0]
        if not terms:
            return y.copy()
        acc = terms[0]
        for term in terms[1:]:
            acc = acc + term
        return y + dt * acc

    @pytest.mark.parametrize("shape", [(7, 4), (5,), ()])
    def test_in_place_sum_matches_fresh_temporaries(self, shape):
        rng = np.random.default_rng(5)
        y = rng.normal(size=shape)
        rates = [rng.normal(size=shape) for _ in range(4)]
        for tab in (tableau_rk3(), tableau_rk4()):
            for coeffs in [tab.b] + [tab.a[j, :j] for j in range(tab.r)]:
                got = combine(y, 0.013, coeffs, rates)
                want = self.out_of_place(y, 0.013, coeffs, rates)
                assert got.shape == want.shape
                assert np.array_equal(got, want)
                assert got is not y

    def test_scalar_rates_broadcast_over_state(self):
        y = np.arange(6.0).reshape(3, 2)
        for rates in ([0.5, -2.0], [np.array(0.5), np.array(-2.0)]):
            got = combine(y, 0.1, [0.25, 0.75], rates)
            assert got.shape == y.shape
            assert np.array_equal(got, y + 0.1 * (0.25 * 0.5 + 0.75 * -2.0))


def two_point_system():
    cloud = make_cloud([[0.0, 0.0], [1.0, 0.0]], thickness=1.0)
    nbrs = build_neighbor_list(cloud, 1.5)
    op = PDOperator(cloud, nbrs, unit_alpha_material(1.5))
    y0 = np.array([[0.01, 0.0, 0.0, 0.0], [-0.01, 0.0, 0.0, 0.0]])
    return op, y0


def linear_system_matrix(op, shape):
    """Probe the (linear) operator to build its matrix for the expm oracle."""
    n = int(np.prod(shape))
    M = np.zeros((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        M[:, k] = op.rates(e.reshape(shape), 0.0).ravel()
    return M


class TestUpdRun:
    def test_zero_steps_returns_initial(self):
        op, y0 = two_point_system()
        state0 = FieldState.from_packed(y0, 0.0)
        traj = upd_run(op, state0, 0.1, 0, tableau_rk4())
        assert len(traj.states) == 1
        np.testing.assert_array_equal(traj.final.u, state0.u)

    @pytest.mark.parametrize("order", [3, 4])
    def test_error_order_against_matrix_exponential(self, order):
        op, y0 = two_point_system()
        M = linear_system_matrix(op, y0.shape)
        T = 2.0
        exact = (scipy.linalg.expm(M * T) @ y0.ravel()).reshape(y0.shape)
        errors = []
        dts = [0.25, 0.125, 0.0625, 0.03125]
        for dt in dts:
            traj = upd_run(op, FieldState.from_packed(y0, 0.0), dt,
                           round(T / dt), tableau(order))
            errors.append(np.linalg.norm(traj.final.packed() - exact))
        rates = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all(rates > order - 0.2) and np.all(rates < order + 0.2)

    def test_trajectory_recording_cadence(self):
        op, y0 = two_point_system()
        traj = upd_run(op, FieldState.from_packed(y0, 0.0), 0.1, 10,
                       tableau_rk4(), record_every=2)
        np.testing.assert_allclose(
            traj.times(), [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])

    def test_determinism_bit_identical(self):
        op, y0 = two_point_system()
        runs = []
        for _ in range(2):
            traj = upd_run(op, FieldState.from_packed(y0, 0.0), 0.05, 40,
                           tableau_rk3(), record_every=10)
            runs.append(np.stack([s.packed() for s in traj.states]))
        assert np.array_equal(runs[0], runs[1])

    def test_instability_reports_last_good_step(self):
        op, y0 = two_point_system()
        with pytest.raises(InstabilityError, match="last good step") as err:
            upd_run(op, FieldState.from_packed(y0 * 1e300, 0.0), 1e6, 100,
                    tableau_rk4())
        assert err.value.last_good_step is not None
