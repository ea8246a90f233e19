import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peridyn import forces
from peridyn.app import Scenario, preset_config
from peridyn.forces import (
    FieldState, InstabilityError, Loading, Material, PDOperator,
    SimulationError,
    bond_stretch, break_precrack_bonds,
    calibrate_alpha, damage_index, update_damage,
)
from peridyn.geometry import GeometryError, PointCloud, _norm, build_grid, \
    build_neighbor_list, classify_subdomains
from peridyn.integrator import rk_step, tableau, upd_run
from peridyn.mts import MtsConfig, MtsPlan, matrix_A, mts_run
from tests.conftest import write_mu


def make_cloud(positions, spacing=1.0, volume=1.0, thickness=None):
    pos = np.asarray(positions, dtype=float)
    return PointCloud(dim=pos.shape[1], positions=pos, spacing=spacing,
                      volume_per_point=volume, thickness=thickness)


def unit_alpha_material(delta, thickness=1.0, rho=1.0):
    """E chosen so the calibrated 2D micro-modulus is exactly 1."""
    E = np.pi * delta ** 3 * thickness / 9.0
    return Material(E=E, rho=rho)


class TestCalibrateAlpha:
    def test_full_scale_2d_value(self):
        mat = Material(E=1.92e11, rho=8000)
        alpha = calibrate_alpha(mat, 0.03, 2, thickness=0.01)
        assert alpha == pytest.approx(9 * 1.92e11 / (np.pi * 0.03 ** 3 * 0.01))
        assert alpha == pytest.approx(2.0372e18, rel=1e-4)

    def test_cancelling_constants(self):
        mat = Material(E=np.pi, rho=1.0)
        assert calibrate_alpha(mat, 1.0, 2, thickness=9.0) == pytest.approx(1.0)

    def test_full_scale_3d_value(self):
        mat = Material(E=2.0e11, rho=8000)
        alpha = calibrate_alpha(mat, 0.03, 3)
        assert alpha == pytest.approx(12 * 2.0e11 / (np.pi * 8.1e-7))

    def test_2d_needs_thickness(self):
        mat = Material(E=1.0, rho=1.0)
        with pytest.raises(ValueError, match="thickness"):
            calibrate_alpha(mat, 1.0, 2)


def _grid(dx=0.1, thickness=0.01):
    return build_grid(((0, 0), (1, 1)), dx, thickness=thickness)


def _alpha(delta=1.0, dim=2, thickness=1.0):
    mat = Material(E=1.0, rho=1.0)
    return calibrate_alpha(mat, delta, dim, thickness if dim == 2 else None)


def _pair_operator_parts(thickness=1.0):
    """A 2D cloud of two points, its neighbor list and a material."""
    cloud = make_cloud([[0.0, 0.0], [1.0, 0.0]], thickness=thickness)
    return cloud, build_neighbor_list(cloud, 1.5), unit_alpha_material(1.5)


@pytest.mark.parametrize("check, error, value", [
    (lambda: Material(E=np.nan, rho=1.0).validate(),
     ValueError, "nan"),
    (lambda: Material(E=1.0, rho=np.inf).validate(),
     ValueError, "inf"),
    (lambda: _grid(dx=np.nan), GeometryError, "nan"),
    (lambda: _grid(thickness=np.nan), GeometryError, "nan"),
    (lambda: build_grid(((0, 0), (1, np.inf)), 0.1, thickness=0.01),
     GeometryError, "inf"),
    (lambda: build_neighbor_list(_grid(), np.inf), GeometryError, "inf"),
    (lambda: build_neighbor_list(_grid(), np.nan), GeometryError, "nan"),
    (lambda: MtsConfig(order=4, dt=np.nan, K=2, labels=None).validate(),
     ValueError, "nan"),
    (lambda: matrix_A(4, np.nan), ValueError, "nan"),
    (lambda: matrix_A(3, np.inf), ValueError, "inf"),
    (lambda: rk_step(tableau(4), np.zeros(1), lambda y, t: y, 0.0, np.nan),
     ValueError, "nan"),
    (lambda: PDOperator(*_pair_operator_parts(thickness=np.nan)),
     ValueError, "nan"),
    (lambda: _alpha(delta=np.inf, dim=3), ValueError, "inf"),
    (lambda: _alpha(delta=np.nan), ValueError, "nan"),
    (lambda: _alpha(delta=-1.0, dim=3), ValueError, "-1.0"),
    (lambda: _alpha(delta=0.0), ValueError, "0.0"),
], ids=["E-nan", "rho-inf", "dx-nan", "thickness-nan", "box-inf", "delta-inf",
        "delta-nan", "MtsConfig-dt-nan", "matrix_A-dt-nan", "matrix_A-dt-inf",
        "rk_step-dt-nan", "alpha-thickness-nan", "alpha-delta-inf",
        "alpha-delta-nan", "alpha-delta-negative", "alpha-delta-zero"])
def test_refuses_non_finite_inputs(check, error, value):
    # NaN compares false, so a positivity test alone lets it through; each
    # guard says it wants a finite value and names the one it refuses (a
    # whole token: no word character before it, none after)
    with pytest.raises(error, match=rf"finite.*(?<!\w){re.escape(value)}\b"):
        check()


@pytest.mark.parametrize("build, problem", [
    (lambda: Loading(kind="pressure", indices=np.arange(2),
                     value=np.zeros(2)), "unknown loading kind 'pressure'"),
    (lambda: Loading(kind="body_force_layer", indices=np.arange(0),
                     value=np.zeros(2)), "loading layer is empty"),
    (lambda: PDOperator(*_pair_operator_parts(), law="cubic"),
     "unknown force law 'cubic'"),
    (lambda: PDOperator(*_pair_operator_parts(), loadings=[Loading(
        kind="body_force_layer", indices=np.arange(1), value=np.zeros(3))]),
     r"loading value must have 2 components, got \(3,\)"),
    (lambda: MtsConfig(order=5, dt=1e-3, K=1, labels=None).validate(),
     "order must be 3 or 4, got 5"),
], ids=["loading-kind", "loading-empty", "operator-law",
        "operator-load-length", "mts-order"])
def test_refuses_invalid_inputs(build, problem):
    with pytest.raises(ValueError, match=problem):
        build()


def stretch(xi, eta):
    """Stretch of one bond through the bond-array stretch function."""
    xi = np.asarray(xi, dtype=float)
    return bond_stretch(np.linalg.norm(xi + eta), np.linalg.norm(xi))


def all_stretches(nbrs, u):
    """Stretch of every bond of the list, broken ones included, by numpy:
    the damage test's formula, |p_j - p_i| with p = x + u, against the
    list's |xi|."""
    p = nbrs.positions + u
    deformed = np.linalg.norm(p[nbrs.neighbors] - p[nbrs.bond_i], axis=1)
    return bond_stretch(deformed, nbrs.xi_norm)


def pair_operator(law, xi, alpha):
    """An operator on two 2D points, x_1 - x_0 = xi, of unit volume and
    density, whose micro-modulus is alpha (to rounding)."""
    xi = np.asarray(xi, dtype=float)
    delta = 1.5 * np.linalg.norm(xi)
    cloud = make_cloud([np.zeros(2), xi], thickness=1.0)
    mat = Material(E=alpha * np.pi * delta ** 3 / 9.0, rho=1.0)
    return PDOperator(cloud, build_neighbor_list(cloud, delta), mat, law=law)


def force(law, xi, eta, alpha, alive=True):
    """The pairwise force of the bond 0 -> 1 of a pair_operator, with
    u_1 - u_0 = eta, as its rates give it: point 0's acceleration."""
    op = pair_operator(law, xi, alpha)
    if not alive:
        write_mu(op.nbrs, [0])
    y = np.zeros((2, 4))
    y[1, :2] = eta
    return op.rates(y, 0.0)[0, 2:]


class TestBondStretch:
    def test_collinear_extension(self):
        assert stretch((1, 0), (0.01, 0)) == pytest.approx(0.01)

    def test_undeformed(self):
        assert stretch((1, 0), (0, 0)) == 0.0

    def test_collinear_compression(self):
        assert stretch((1, 0), (-0.5, 0)) == pytest.approx(-0.5)


class TestPairwiseForces:
    """The force laws of one bond, through rates on two points."""

    def test_linear_annihilates_perpendicular(self):
        np.testing.assert_allclose(
            force("linear", (1, 0), (0, 1), 1.0), [0, 0])

    def test_linear_unit_bond(self):
        np.testing.assert_allclose(
            force("linear", (1, 0), (0.25, 0), 1.0), [0.25, 0])

    def test_linear_hand_value(self):
        # xi.eta = 7, |xi|^3 = 125: p = 2 * 7 * (3, 4)/125
        np.testing.assert_allclose(
            force("linear", (3, 4), (1, 1), 2.0), [0.336, 0.448])

    def test_per_bond_coefficient(self):
        # coef = alpha * mu per bond: a broken bond (mu = 0) carries no force
        for law in ("linear", "nonlinear"):
            for xi, eta, alive, want in (((1.0, 0), (0.25, 0), True, [0.5, 0]),
                                         ((0, 2.0), (0, 0.5), False, [0, 0])):
                np.testing.assert_allclose(
                    force(law, xi, eta, 2.0, alive), want, atol=1e-15)

    def test_nonlinear_zero_stretch(self):
        np.testing.assert_allclose(
            force("nonlinear", (1, 0), (0, 0), 1.0), [0, 0])

    def test_nonlinear_collinear(self):
        np.testing.assert_allclose(
            force("nonlinear", (1, 0), (0.01, 0), 1.0), [0.01, 0])

    def test_nonlinear_matches_linear_to_first_order(self):
        rng = np.random.default_rng(7)

        def gap(xi, eta):
            return np.linalg.norm(force("nonlinear", xi, eta, 1.0)
                                  - force("linear", xi, eta, 1.0))

        for _ in range(20):
            xi = rng.normal(size=2)
            xi /= np.linalg.norm(xi)
            direction = rng.normal(size=2)
            for eps in (1e-3, 1e-6):
                eta = eps * direction
                err = gap(xi, eta)
                half = gap(xi, eta / 2)
                assert err <= 5.0 * np.linalg.norm(eta) ** 2
                # quadratic remainder: halving eta shrinks the gap ~4x
                if err > 1e-13:
                    assert half <= 0.3 * err

    def test_nonlinear_collapse_rejected(self):
        with pytest.raises(SimulationError, match="collapsed"):
            force("nonlinear", (1.0, 0.0), (-1.0, 0.0), 1.0)


def three_point_row_op(law="linear"):
    cloud = make_cloud([[0, 0], [1, 0], [2, 0]], thickness=1.0)
    nbrs = build_neighbor_list(cloud, 1.5)
    mat = unit_alpha_material(1.5)
    return cloud, nbrs, PDOperator(cloud, nbrs, mat, law=law)


class TestApplyOperator:
    def test_zero_displacement_zero_acceleration(self):
        cloud, nbrs, op = three_point_row_op()
        rate = op.rates(np.zeros((3, 4)), 0.0)
        np.testing.assert_array_equal(rate[:, 2:], 0.0)
        np.testing.assert_array_equal(rate[:, :2], 0.0)

    def test_collapse_names_bond_and_time(self):
        cloud, nbrs, op = three_point_row_op(law="nonlinear")
        y = np.zeros((3, 4))
        y[1, 0] = -1.0  # point 1 moves onto point 0
        with pytest.raises(SimulationError,
                           match=r"bond 0 -> 1 collapsed .* t=2\.500000e-01"):
            op.rates(y, 0.25)

    def test_rigid_translation_is_force_free(self):
        cloud, nbrs, op = three_point_row_op()
        u = np.tile([0.3, -0.7], (3, 1))
        y = np.hstack([u, np.zeros((3, 2))])
        rate = op.rates(y, 0.0)
        np.testing.assert_array_equal(rate[:, 2:], 0.0)

    def test_three_point_row_forces(self):
        cloud, nbrs, op = three_point_row_op()
        u = np.array([[0.0, 0], [0.1, 0], [0.2, 0]])
        y = np.hstack([u, np.zeros((3, 2))])
        accel = op.rates(y, 0.0)[:, 2:]  # rho = 1, V = 1
        np.testing.assert_allclose(accel[:, 0], [0.1, 0.0, -0.1], atol=1e-15)
        np.testing.assert_allclose(accel[:, 1], 0.0, atol=1e-15)

    def test_du_dt_reports_velocity(self):
        cloud, nbrs, op = three_point_row_op()
        v = np.array([[1.0, 2], [3, 4], [5, 6]])
        y = np.hstack([np.zeros((3, 2)), v])
        rate = op.rates(y, 0.0)
        np.testing.assert_array_equal(rate[:, :2], v)

    def test_internal_forces_sum_to_zero(self):
        cloud = build_grid(((0, 0), (1, 1)), 0.1, thickness=0.1)
        nbrs = build_neighbor_list(cloud, 0.3)
        mat = unit_alpha_material(0.3, thickness=0.1)
        op = PDOperator(cloud, nbrs, mat)
        rng = np.random.default_rng(3)
        u = 0.01 * rng.normal(size=(cloud.n_points, 2))
        y = np.hstack([u, np.zeros_like(u)])
        accel = op.rates(y, 0.0)[:, 2:]
        total = np.abs(accel.sum(axis=0)).max()
        scale = np.abs(accel).sum()
        assert total <= 1e-12 * scale

    def test_operator_is_linear(self):
        cloud = build_grid(((0, 0), (0.5, 0.5)), 0.1, thickness=0.1)
        nbrs = build_neighbor_list(cloud, 0.2)
        op = PDOperator(cloud, nbrs, unit_alpha_material(0.2, thickness=0.1))
        rng = np.random.default_rng(11)
        y1 = rng.normal(size=(cloud.n_points, 4))
        y2 = rng.normal(size=(cloud.n_points, 4))
        a, b = 0.37, -1.42
        lhs = op.rates(a * y1 + b * y2, 0.0)
        rhs = a * op.rates(y1, 0.0) + b * op.rates(y2, 0.0)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_velocity_constraint_overrides_rates(self):
        cloud, nbrs, _ = three_point_row_op()
        mat = unit_alpha_material(1.5)
        load = Loading(kind="velocity_constraint", indices=np.array([0]),
                       value=np.array([0.05, -2.0]))
        op = PDOperator(cloud, nbrs, mat, loadings=[load])
        rng = np.random.default_rng(5)
        y = rng.normal(size=(3, 4))
        rate = op.rates(y, 0.0)
        assert rate[0, 0] == 0.05 and rate[0, 1] == -2.0
        np.testing.assert_array_equal(rate[0, 2:], 0.0)

    def test_body_force_layer(self):
        cloud, nbrs, _ = three_point_row_op()
        mat = unit_alpha_material(1.5, rho=2.0)
        load = Loading(kind="body_force_layer", indices=np.array([2]),
                       value=np.array([4.0, 0.0]))
        op = PDOperator(cloud, nbrs, mat, loadings=[load])
        y = np.zeros((3, 4))
        rate = op.rates(y, 0.0)
        np.testing.assert_allclose(rate[2, 2:], [2.0, 0.0])

    def test_instability_trap_names_point_and_time(self):
        cloud, nbrs, op = three_point_row_op()
        y = np.zeros((3, 4))
        y[1, 2] = np.nan  # velocity of point 1
        with pytest.raises(InstabilityError, match="point 1") as err:
            op.rates(y, 0.125)
        assert err.value.point == 1
        assert err.value.t == 0.125


def reference_rates(op, y, rows):
    """PDOperator.rates at ``rows`` by the formula, independent of the
    library's kernels: fancy-index gathers on the strided y[:, :dim],
    (bonds, dim) arrays from the list's xi and np.linalg.norm, one bincount
    per component over the local row positions, constraint overrides last.
    The linear law is mu (q . eta) q with q = sqrt(alpha / |xi|^3) xi, the
    cube a product and the dot summed in component order."""
    nbrs, dim = op.nbrs, op.cloud.dim
    u = y[:, :dim]
    bonds = [np.arange(nbrs.offsets[r], nbrs.offsets[r + 1]) for r in rows]
    bond_sel = np.concatenate(bonds)
    i_local = np.repeat(np.arange(len(rows)), [len(b) for b in bonds])
    xi, xi_norm = nbrs.xi[bond_sel], nbrs.xi_norm[bond_sel]
    eta = u[nbrs.neighbors[bond_sel]] - u[rows[i_local]]
    mu = nbrs.mu[bond_sel].astype(float)
    if op.law == "linear":
        q = np.sqrt(op.alpha / (xi_norm * xi_norm * xi_norm))[:, None] * xi
        dot = q[:, 0] * eta[:, 0]
        for k in range(1, dim):
            dot += q[:, k] * eta[:, k]
        p = (dot * mu)[:, None] * q
    else:
        coef = op.alpha * mu
        deformed = xi + eta
        ndef = np.linalg.norm(deformed, axis=1)
        stretch = (ndef - xi_norm) / xi_norm
        p = (coef * stretch / ndef)[:, None] * deformed
    force = np.empty((len(rows), dim))
    for k in range(dim):
        force[:, k] = np.bincount(i_local, weights=p[:, k],
                                  minlength=len(rows))
    out = np.empty((len(rows), 2 * dim))
    out[:, :dim] = y[rows, dim:]
    out[:, dim:] = (force * op.cloud.volume_per_point + op.body[rows]) \
        / op.material.rho
    cons = op.constrained_mask[rows]
    out[cons, :dim] = op.v_prescribed_full[rows[cons]]
    out[cons, dim:] = 0.0
    return out


def loaded_plan(law="linear", s0=None, n=16, dim=2, fine_x=(0.5, 1.0),
                split=True, bondless=False):
    """A 1 x 0.5 plate (or 1 x 0.5 x 0.5 block) of spacing 1/n and horizon
    3/n, with a body-force layer, a velocity-constraint layer, a fine
    region over the x-range ``fine_x`` (by default the right half) and an
    MtsPlan over it; with ``split`` False, no plan (None) splits the
    operator.  With ``bondless``, two points with no bonds follow the
    grid's, at x = -5 (in the constraint layer) and x = 5 (in the body
    force layer)."""
    h = 1.0 / n
    extent = (1.0,) + (0.5,) * (dim - 1)
    if dim == 2:
        cloud = build_grid(((0, 0), extent), h, thickness=0.01)
        mat = unit_alpha_material(3 * h, thickness=0.01)
    else:
        cloud = build_grid(((0, 0, 0), extent), h)
        mat = Material(E=1.0, rho=1.0)
    if bondless:
        far = np.full((2, dim), 0.25)
        far[:, 0] = (-5.0, 5.0)
        pos = np.vstack([cloud.positions, far])
        cloud = dataclasses.replace(cloud, positions=pos)
    nbrs = build_neighbor_list(cloud, 3 * h)
    x = cloud.positions[:, 0]
    loads = [Loading(kind="body_force_layer", indices=np.flatnonzero(x > 0.9),
                     value=np.array([0.3, -2.0, 0.7][:dim])),
             Loading(kind="velocity_constraint",
                     indices=np.flatnonzero(x < 0.1),
                     value=np.array([0.0, 0.25, -0.5][:dim]))]
    op = PDOperator(cloud, nbrs, mat, loadings=loads, law=law)
    if not split:
        return op, None
    fine_box = ((fine_x[0],) + (0.0,) * (dim - 1),
                (fine_x[1],) + extent[1:])
    labels = classify_subdomains(cloud, nbrs, [fine_box])
    plan = MtsPlan(op, MtsConfig(order=4, dt=1e-3, K=2, labels=labels), s0=s0)
    return op, plan


def random_state(op, seed):
    """A random packed state whose displacements are about 5% of the
    spacing, so no bond collapses."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(op.cloud.n_points, 2 * op.cloud.dim))
    y[:, :op.cloud.dim] *= 0.05 * op.cloud.spacing
    return y


class TestRatesBitIdentity:
    def assert_views_match(self, op, plan, y):
        views = {"full": op.full_view, "coarse": plan.coarse_view,
                 "fine": plan.fine_view}
        for name, view in views.items():
            got = op.rates(y, 0.5, view)
            want = reference_rates(op, y, view.rows)
            assert np.array_equal(got, want), name
        return views

    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_views_match_reference_formula(self, law):
        op, plan = loaded_plan(law)
        write_mu(op.nbrs, (0, 17, 400, 901))
        self.assert_views_match(op, plan, random_state(op, 19))

    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_views_spanning_row_blocks(self, law):
        # 3,200 points, 88,000 bonds
        op, plan = loaded_plan(law, n=80)
        write_mu(op.nbrs, (5, 40_000, 77_777))
        self.assert_views_match(op, plan, random_state(op, 29))

    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_3d_views_match_reference_formula(self, law):
        op, plan = loaded_plan(law, n=16, dim=3)
        write_mu(op.nbrs, (3, 5000, 44_444))
        self.assert_views_match(op, plan, random_state(op, 31))

    def test_single_row_view(self):
        # one row: its bonds must still be added one by one
        op, _ = loaded_plan()
        y = random_state(op, 37)
        for row in (0, 60, 127):
            rows = np.array([row])
            got = op.rates(y, 0.0, op.make_view(rows))
            assert np.array_equal(got, reference_rates(op, y, rows))

    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_one_row_block_matches_wide_block(self, law, dim, n):
        # a one-row view gives a row the bits it gets among all
        op, plan = loaded_plan(law, n=n, dim=dim)
        nbrs = op.nbrs
        write_mu(nbrs, (0, 17, 400, 901))
        y = random_state(op, 61)
        wide = op.rates(y, 0.5)
        broken = nbrs.bond_i[np.flatnonzero(~nbrs.mu)]
        for row in {0, int(broken[0]), int(broken[-1]),
                    int(plan.rows_f[0]), op.cloud.n_points - 1}:
            one = op.rates(y, 0.5, op.make_view(np.array([row])))
            assert one.tobytes() == wide[[row]].tobytes(), row

    def test_collapse_names_lowest_bond_past_first_block(self):
        op, _ = loaded_plan("nonlinear", n=80)
        nbrs = op.nbrs
        y = np.zeros((op.cloud.n_points, 4))
        # Move c onto a, so a -> c and c -> a collapse; a -> c is the last
        # bond of row a and c -> a an early bond of the later row c.
        # Another pair collapses further on; none in the first 1,000 rows.
        collapsed = []
        for a in (1030, 1900):
            c = nbrs.neighbors_of(a)[-1]
            y[c, :2] = op.cloud.positions[a] - op.cloud.positions[c]
            collapsed.append((a, c))
        deformed = nbrs.xi + y[nbrs.neighbors, :2] - y[nbrs.bond_i, :2]
        hit = np.linalg.norm(deformed, axis=1) < 1e-12 * nbrs.xi_norm
        first = np.flatnonzero(hit)[0]
        assert hit.sum() == 4
        assert (nbrs.bond_i[first], nbrs.neighbors[first]) == collapsed[0]
        with pytest.raises(SimulationError,
                           match=rf"bond {collapsed[0][0]} -> "
                                 rf"{collapsed[0][1]} collapsed"):
            op.rates(y, 0.0)


def row_by_row_rates(op, y, rows):
    """PDOperator.rates at ``rows``, one row at a time: each row's bond
    forces from the list's xi and |xi|, added bond by bond into a Python
    float from +0.0, then (sum * V + body) / rho; the constraint overrides
    last.  The linear law is mu (q . eta) q with q = sqrt(alpha / |xi|^3)
    xi, the nonlinear one alpha mu s (xi + eta) / |xi + eta|; the cube is a
    product, and dot products and squared lengths are summed in component
    order."""
    nbrs, dim = op.nbrs, op.cloud.dim
    out = np.empty((len(rows), 2 * dim))
    for q, i in enumerate(rows):
        bonds = np.arange(nbrs.offsets[i], nbrs.offsets[i + 1])
        xi, xi_norm = nbrs.xi[bonds], nbrs.xi_norm[bonds]
        eta = y[nbrs.neighbors[bonds], :dim] - y[i, :dim]
        mu = nbrs.mu[bonds].astype(float)
        if op.law == "linear":
            cube = xi_norm * xi_norm * xi_norm
            factor = np.sqrt(op.alpha / cube)[:, None] * xi
            dot = factor[:, 0] * eta[:, 0]
            for k in range(1, dim):
                dot += factor[:, k] * eta[:, k]
            p = (dot * mu)[:, None] * factor
        else:
            deformed = xi + eta
            square = deformed[:, 0] * deformed[:, 0]
            for k in range(1, dim):
                square += deformed[:, k] * deformed[:, k]
            length = np.sqrt(square)
            stretch = (length - xi_norm) / xi_norm
            p = (op.alpha * mu * stretch / length)[:, None] * deformed
        for k in range(dim):
            total = 0.0
            for term in p[:, k]:
                total += float(term)
            out[q, k] = y[i, dim + k]
            out[q, dim + k] = (total * op.cloud.volume_per_point
                               + op.body[i, k]) / op.material.rho
        if op.constrained_mask[i]:
            out[q, :dim] = op.v_prescribed_full[i]
            out[q, dim:] = 0.0
    return out


class TestRatesPlan:
    """rates evaluates every view by one loop over its rows, each summing
    its bonds in CSR order.  Every view kind must give the per-row
    formula's bits, and no returned array may share a workspace."""

    @settings(max_examples=24, deadline=None)
    @given(law=st.sampled_from(["linear", "nonlinear"]),
           dim=st.sampled_from([2, 3]),
           seed=st.integers(0, 2 ** 16), n_broken=st.integers(1, 40))
    def test_every_view_matches_row_by_row(self, law, dim, seed, n_broken):
        # the far bondless point at x = 5 is fine
        n = 8 if dim == 2 else 6
        op, plan = loaded_plan(law, n=n, dim=dim, fine_x=(0.5, 6.0),
                               bondless=True)
        bare, _ = loaded_plan(law, n=n, dim=dim, split=False, bondless=True)
        n = op.cloud.n_points
        bondless = np.array([n - 2, n - 1])
        rng = np.random.default_rng(seed)
        one = int(rng.integers(n - 2))
        # a box inside the plate: its rows have lower neighbors outside
        pos = op.cloud.positions
        box = np.flatnonzero(np.all((pos >= 0.2) & (pos <= 0.4), axis=1))
        views = {
            "full": (bare, bare.full_view), "split full": (op, None),
            "coarse": (op, plan.coarse_view),
            "fine": (op, plan.fine_view),
            "box": (op, op.make_view(box)),
            "one row": (op, op.make_view(np.array([one]))),
            "one bondless row": (op, op.make_view(bondless[1:])),
            "bondless": (op, op.make_view(bondless)),
            "scattered rows": (op, op.make_view(np.sort(
                rng.choice(n, n // 3, replace=False)))),
            "unsorted rows": (op, op.make_view(rng.permutation(n))),
        }
        assert bondless[0] in plan.rows_c and bondless[1] in plan.rows_f
        assert op.nbrs.counts()[bondless].sum() == 0
        states = random_state(op, seed), random_state(op, seed + 1)
        # first with every bond alive, then with breaks
        for broken in ((), rng.choice(op.nbrs.n_bonds, n_broken)):
            write_mu(op.nbrs, broken)
            write_mu(bare.nbrs, broken)
            for name, (o, view) in views.items():
                rows = np.arange(n) if view is None else view.rows
                first = o.rates(states[0], 0.5, view)
                kept = first.copy()
                second = o.rates(states[1], 0.5, view)
                # the MTS history keeps returned arrays
                assert first.tobytes() == kept.tobytes(), name
                assert not np.shares_memory(first, second), name
                for y, got in zip(states, (first, second)):
                    assert got.tobytes() == \
                        row_by_row_rates(o, y, rows).tobytes(), name

    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_any_layout_of_the_state(self, law):
        # a Fortran-ordered state and a column slice of a wider array give
        # the bits of the C-ordered state
        op, plan = loaded_plan(law)
        y = random_state(op, 73)
        wide = np.zeros((len(y), y.shape[1] + 3))
        wide[:, 1:1 + y.shape[1]] = y
        for view in (None, plan.coarse_view):
            want = op.rates(y, 0.5, view).tobytes()
            for layout in (np.asfortranarray(y), wide[:, 1:1 + y.shape[1]],
                           np.repeat(y, 2, axis=0)[::2]):
                assert op.rates(layout, 0.5, view).tobytes() == want

    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_rates_follow_a_new_flag_array(self, law):
        # write_mu(mu=...) copies a whole flag array in; rates reads the
        # flags of the moment on every call
        op, plan = loaded_plan(law)
        nbrs = op.nbrs
        y = random_state(op, 79)
        intact = op.rates(y, 0.5)
        mu = nbrs.mu.copy()
        mu[np.random.default_rng(5).choice(nbrs.n_bonds, 200)] = False
        mu &= mu[nbrs.partner]
        write_mu(nbrs, mu=mu)
        for view in (None, plan.fine_view):
            rows = np.arange(op.cloud.n_points) if view is None else view.rows
            got = op.rates(y, 0.5, view)
            assert got.tobytes() == reference_rates(op, y, rows).tobytes()
        assert not np.array_equal(op.rates(y, 0.5), intact)
        write_mu(nbrs, mu=np.ones(nbrs.n_bonds, dtype=bool))
        assert op.rates(y, 0.5).tobytes() == intact.tobytes()

    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_non_finite_displacement_of_a_bondless_point(self, law):
        # the unconstrained bondless point (x = 5) is reported in every
        # view that holds it; the constrained one (x = -5) takes its
        # prescribed velocity whatever its displacement
        op, plan = loaded_plan(law, fine_x=(0.5, 6.0), bondless=True)
        n, dim = op.cloud.n_points, op.cloud.dim
        free, held = n - 1, n - 2
        assert op.constrained_mask[held] and not op.constrained_mask[free]
        for value in (np.inf, np.nan):
            y = random_state(op, 83)
            y[free, :dim] = value
            for view in (None, plan.fine_view):
                with pytest.raises(InstabilityError) as err:
                    op.rates(y, 0.5, view)
                assert err.value.point == free
            y = random_state(op, 83)
            y[held, :dim] = value
            got = op.rates(y, 0.5)
            assert np.array_equal(got[held], np.r_[op.v_prescribed_full[held],
                                                   np.zeros(dim)])
            rest = np.arange(n) != held
            want = reference_rates(op, random_state(op, 83), np.arange(n))
            assert got[rest].tobytes() == want[rest].tobytes()

    def test_out_of_range_rows_and_misshapen_states_are_refused(self):
        # the compiled loop reads what it is given: a row id outside the
        # points or a state of another shape never reaches it
        op, _ = loaded_plan()
        n = op.cloud.n_points
        for rows in ([-1], [0, n], [[0, 1]]):
            with pytest.raises(ValueError, match="point ids"):
                op.make_view(rows)
        y = random_state(op, 7)
        for bad in (y[:-1], y[:, :3], y.ravel()):
            with pytest.raises(ValueError, match="state must be"):
                op.rates(bad, 0.0)

    def test_a_view_of_bondless_rows_reports_them_too(self):
        # a view with no bond at all checks its rows as any other view does
        op, plan = loaded_plan(bondless=True)
        n, dim = op.cloud.n_points, op.cloud.dim
        y = random_state(op, 83)
        y[n - 1, :dim] = np.inf
        for rows in ([n - 1], [n - 2, n - 1]):
            with pytest.raises(InstabilityError) as err:
                op.rates(y, 0.5, op.make_view(rows))
            assert err.value.point == n - 1

    def test_collapse_names_the_lowest_bond_of_the_view(self):
        # two collapsing pairs in a view whose rows run downwards: the
        # message names the lower bond, which the view reaches last
        op, _ = loaded_plan("nonlinear", n=40)
        nbrs = op.nbrs
        y = np.zeros((op.cloud.n_points, 4))
        for a in (300, 700):
            c = nbrs.neighbors_of(a)[-1]
            y[c, :2] = op.cloud.positions[a] - op.cloud.positions[c]
        c = nbrs.neighbors_of(300)[-1]
        view = op.make_view(np.arange(op.cloud.n_points)[::-1])
        with pytest.raises(SimulationError, match=rf"bond 300 -> {c} "
                                                  r"collapsed .* t=5\.0"):
            op.rates(y, 5.0, view)


def bare_grid_op(law, dim, n=8):
    """An unloaded operator on a 1 x 0.5 plate (or 1 x 0.5 x 0.5 block) of
    spacing 1/n and horizon 3/n."""
    h = 1.0 / n
    extent = (1.0,) + (0.5,) * (dim - 1)
    cloud = build_grid(((0.0,) * dim, extent), h,
                       thickness=0.01 if dim == 2 else None)
    mat = unit_alpha_material(3 * h, thickness=0.01) if dim == 2 \
        else Material(E=1.0, rho=1.0)
    return PDOperator(cloud, build_neighbor_list(cloud, 3 * h), mat, law=law)


class TestForceSymmetry:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_rigid_translation_is_exactly_force_free(self, law, dim):
        op = bare_grid_op(law, dim)
        write_mu(op.nbrs, (4, 100))
        y = np.zeros((op.cloud.n_points, 2 * dim))
        y[:, :dim] = np.array([0.3, -0.7, 0.11][:dim]) * op.cloud.spacing
        for rows in (None, np.arange(0, op.cloud.n_points, 3)):
            view = None if rows is None else op.make_view(rows)
            rate = op.rates(y, 0.0, view)
            assert np.all(rate[:, dim:] == 0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_pairwise_forces_are_antisymmetric(self, law, dim):
        # bond j -> i carries exactly the negated force of i -> j.  Each
        # sampled bond is the one alive bond of its two ends, so their
        # accelerations are its two directions' forces (a broken bond adds
        # a signed zero, and the body force add makes a zero sum +0.0)
        op = bare_grid_op(law, dim)
        nbrs = op.nbrs
        y = random_state(op, 59)
        bond_i = nbrs.bond_i
        forces_seen = []
        for b in np.random.default_rng(59).choice(nbrs.n_bonds, 40):
            mu = np.zeros(nbrs.n_bonds, dtype=bool)
            mu[[b, nbrs.partner[b]]] = True
            write_mu(nbrs, mu=mu)
            i, j = bond_i[b], nbrs.neighbors[b]
            f, back = op.rates(y, 0.0, op.make_view([i, j]))[:, dim:]
            assert np.array_equal(back, -f)
            nonzero = f != 0.0
            assert back[nonzero].tobytes() == (-f[nonzero]).tobytes()
            forces_seen.extend(nonzero)
        assert np.mean(forces_seen) > 0.5


class TestUnionView:
    """An MtsPlan splits its operator into coarse and fine views; the
    operator's full view stays one view over every point.  Every view
    reads the operator's one bond table, and the full view of a split
    operator must equal a separately built view over every point, bit for
    bit."""

    @staticmethod
    def whole(op):
        return op.make_view(np.arange(op.cloud.n_points))

    @staticmethod
    def edge_row(op, x):
        """The point nearest (x, 0[, 0]): an edge row with fewer bonds than
        an interior one."""
        target = np.array([x] + [0.0] * (op.cloud.dim - 1))
        return int(np.argmin(np.linalg.norm(op.cloud.positions - target,
                                            axis=1)))

    def test_partition_replaces_the_full_view(self):
        # a partition leaves the full view and its rates as they were
        op, plan = loaded_plan()
        bare = PDOperator(op.cloud, op.nbrs, op.material, law=op.law)
        assert bare._full_view is None
        view = bare.full_view
        assert bare.full_view is view
        assert view.bond_sel == range(op.nbrs.n_bonds)
        assert np.array_equal(view.rows, np.arange(op.cloud.n_points))
        y = random_state(bare, 29)
        before = bare.rates(y, 0.5)
        bare.partition(plan.rows_c, plan.rows_f)
        assert bare.full_view is view
        assert bare.rates(y, 0.5).tobytes() == before.tobytes()

    @pytest.mark.parametrize("dim, n", [(2, 16), (2, 80), (3, 16)])
    def test_union_shares_the_side_blocks(self, dim, n):
        # the full view and the sides read one bond table, which holds
        # each bond once; a view holds only its rows
        op, plan = loaded_plan(n=n, dim=dim)
        full = op.full_view
        assert full.bond_sel == range(op.nbrs.n_bonds)
        assert len(full.bond_sel) == len(plan.coarse_view.bond_sel) \
            + len(plan.fine_view.bond_sel)
        assert np.array_equal(full.rows, np.arange(op.cloud.n_points))
        assert op.bond_table is None
        y = random_state(op, 89)
        op.rates(y, 0.5)
        table = op.bond_table
        assert table.shape == (dim, op.nbrs.n_bonds)
        for view in (plan.coarse_view, plan.fine_view, full):
            op.rates(y, 0.5, view)
            assert op.bond_table is table
            assert not view.rows.flags.writeable

    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_union_of_interleaved_sides(self, law, dim, n):
        # sides of every other point: each side's rows are scattered
        op, _ = loaded_plan(law, n=n, dim=dim, split=False)
        write_mu(op.nbrs, (0, 17, 400, 901))
        y = random_state(op, 67)
        points = np.arange(op.cloud.n_points)
        views = op.partition(points[::2], points[1::2])[:2]
        got = op.rates(y, 0.5)
        assert got.tobytes() == op.rates(y, 0.5, self.whole(op)).tobytes()
        for view in views:
            assert op.rates(y, 0.5, view).tobytes() == \
                got[view.rows].tobytes()

    def test_partition_must_cover_each_point_once(self):
        op, plan = loaded_plan()
        with pytest.raises(ValueError, match="partition"):
            op.partition(plan.rows_c, plan.rows_f[1:])
        with pytest.raises(ValueError, match="partition"):
            op.partition(plan.rows_c, np.append(plan.rows_f, 0))

    @pytest.mark.parametrize("dim, n", [(2, 16), (2, 80), (3, 16)])
    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_rates_bit_identical(self, law, dim, n):
        op, plan = loaded_plan(law, n=n, dim=dim)
        nbrs = op.nbrs
        y = random_state(op, 47)
        # One edge row per side whose bond forces are all -0.0: all its
        # bonds are broken (coef 0), and each neighbor moves by -/+1% of
        # the bond so the signed zero of every bond's x-force is negative.
        # The sums start from +0.0, and the body force add makes any zero
        # sum +0.0.
        rows = [self.edge_row(op, 0.3), self.edge_row(op, 0.7)]
        for q in rows:
            bonds = np.arange(nbrs.offsets[q], nbrs.offsets[q + 1])
            write_mu(nbrs, bonds)
            sign = np.where(nbrs.xi[bonds, 0] >= 0.0, 1.0, -1.0)
            y[q, :dim] = 0.0
            y[nbrs.neighbors[bonds], :dim] = \
                -0.01 * sign[:, None] * nbrs.xi[bonds]
        write_mu(nbrs, (5, nbrs.n_bonds // 2, nbrs.n_bonds - 9))
        ref = reference_rates(op, y, np.arange(op.cloud.n_points))
        for q in rows:
            bonds = np.arange(nbrs.offsets[q], nbrs.offsets[q + 1])
            eta = y[nbrs.neighbors[bonds], :dim] - y[q, :dim]
            xi, xi_norm = nbrs.xi[bonds], nbrs.xi_norm[bonds]
            if law == "linear":
                q_k = xi.T * np.sqrt(op.alpha
                                     / (xi_norm * xi_norm * xi_norm))
                terms = (q_k * eta.T).sum(axis=0) * 0.0 * q_k[0]
            else:
                deformed = xi + eta
                ndef = np.linalg.norm(deformed, axis=1)
                terms = op.alpha * 0.0 * bond_stretch(ndef, xi_norm) \
                    / ndef * deformed[:, 0]
            assert np.all(terms == 0.0) and np.all(np.signbit(terms))
            assert nbrs.counts()[q] < nbrs.counts().max()
            one = op.rates(y, 0.5, op.make_view(np.array([q])))
            assert one.tobytes() == ref[[q]].tobytes()
            assert one[0, dim] == 0.0 and not np.signbit(one[0, dim])
        got = op.rates(y, 0.5)
        assert got.tobytes() == op.rates(y, 0.5, self.whole(op)).tobytes()
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("dim, n", [(2, 80), (3, 16)])
    @pytest.mark.parametrize("fine_x", [(0.5, 1.0), (0.0, 0.5)])
    def test_instability_names_the_same_point(self, dim, n, fine_x):
        op, plan = loaded_plan(n=n, dim=dim, fine_x=fine_x)
        whole = self.whole(op)
        y = random_state(op, 53)
        bad = [int(plan.rows_c[len(plan.rows_c) // 2]),
               int(plan.rows_f[len(plan.rows_f) // 2])]
        for rows in ([bad[0]], [bad[1]], bad):
            z = y.copy()
            z[rows, dim] = np.nan
            points = []
            for view in (None, whole):
                with pytest.raises(InstabilityError) as err:
                    op.rates(z, 0.25, view)
                points.append(err.value.point)
            assert points[0] == points[1] == min(rows)

    @pytest.mark.parametrize("dim, n", [(2, 80), (3, 16)])
    @pytest.mark.parametrize("fine_x", [(0.5, 1.0), (0.0, 0.5)])
    def test_collapse_names_the_same_bond(self, dim, n, fine_x):
        # in a split operator's full view and in a separately built one,
        # the lowest bond is taken over all
        op, plan = loaded_plan("nonlinear", n=n, dim=dim, fine_x=fine_x)
        nbrs, whole = op.nbrs, self.whole(op)
        pairs = []
        for side in (plan.rows_c, plan.rows_f):
            a = int(side[len(side) // 2])
            c = int(nbrs.neighbors_of(a)[-1])
            pairs.append((a, c))
        for chosen in ([pairs[0]], [pairs[1]], pairs):
            y = np.zeros((op.cloud.n_points, 2 * dim))
            for a, c in chosen:
                y[c, :dim] = op.cloud.positions[a] - op.cloud.positions[c]
            lowest = min(chosen)
            messages = []
            for view in (None, whole):
                with pytest.raises(SimulationError, match="collapsed") as err:
                    op.rates(y, 0.125, view)
                messages.append(str(err.value))
            assert messages[0] == messages[1]
            assert messages[0].startswith(f"bond {lowest[0]} -> ")


class TestCaches:
    """rates reads the bond flags on every call and update_damage caches
    one bond table per partition; both must follow every change to the
    flags."""

    @staticmethod
    def row_near(op, x):
        target = np.array([x] + [0.25] * (op.cloud.dim - 1))
        return int(np.argmin(np.linalg.norm(op.cloud.positions - target,
                                            axis=1)))

    @staticmethod
    def assert_views(op, plan, y):
        """rates equals the reference on every view."""
        for name, view in (("full", op.full_view),
                           ("coarse", plan.coarse_view),
                           ("fine", plan.fine_view)):
            got = op.rates(y, 0.5, view)
            assert np.array_equal(got, reference_rates(op, y, view.rows)), name

    @pytest.mark.parametrize("dim, n", [(2, 80), (3, 16)])
    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_rates_follow_breaks(self, law, dim, n):
        op, plan = loaded_plan(law, n=n, dim=dim)
        nbrs = op.nbrs
        y = random_state(op, 41)
        self.assert_views(op, plan, y)  # all bonds intact
        # one row on the coarse side and one on the fine side
        rows = [self.row_near(op, 0.25), self.row_near(op, 0.75)]
        write_mu(nbrs, [nbrs.offsets[r] + 2 for r in rows])
        self.assert_views(op, plan, y)
        before = op.rates(y, 0.5)
        write_mu(nbrs, [nbrs.offsets[r] + 5 for r in rows])
        self.assert_views(op, plan, y)  # a second break in the same rows
        assert not np.array_equal(op.rates(y, 0.5), before)

    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_rates_follow_flags_set_back_to_alive(self, law):
        op, plan = loaded_plan(law, n=40)
        nbrs = op.nbrs
        y = random_state(op, 67)
        intact = op.rates(y, 0.5)
        mu0 = nbrs.mu.copy()
        write_mu(nbrs, [nbrs.offsets[self.row_near(op, x)] + 3
                        for x in (0.25, 0.75)])
        self.assert_views(op, plan, y)
        assert op.rates(y, 0.5).tobytes() != intact.tobytes()
        write_mu(nbrs, mu=mu0)  # every bond alive again
        self.assert_views(op, plan, y)
        assert op.rates(y, 0.5).tobytes() == intact.tobytes()

    def test_mu_is_read_only(self, mini_config):
        op, _ = loaded_plan()
        nbrs = op.nbrs
        with pytest.raises(ValueError, match="read-only"):
            nbrs.mu[3] = 0.0
        version = nbrs.version
        write_mu(nbrs, [3])
        assert nbrs.version == version + 1
        write_mu(nbrs, [3])  # already broken: no change, no new version
        assert nbrs.version == version + 1
        with pytest.raises(ValueError, match="read-only"):
            nbrs.mu[:] = 1.0
        fresh = Scenario(mini_config()).fresh_operator().nbrs
        with pytest.raises(ValueError, match="read-only"):
            fresh.mu[0] = 0.0

    def test_fresh_operator_refuses_changed_scenario_flags(self, mini_config):
        # fresh operators copy the scenario's own flags, which therefore
        # must stay as assembled
        scenario = Scenario(mini_config())
        op = scenario.fresh_operator()
        write_mu(op.nbrs, [0])  # an operator's breaks are its own
        assert np.all(scenario.fresh_operator().nbrs.mu == 1.0)
        write_mu(scenario.nbrs, [0])
        with pytest.raises(SimulationError, match="bond flags changed"):
            scenario.fresh_operator()

    def test_mask_of_no_side_is_refused(self):
        # a damage check serves only the split of the operator's partition:
        # a copy of a side mask, or any mask on a list that no partition
        # split, raises and breaks nothing
        op, plan = loaded_plan(s0=0.25)
        nbrs = op.nbrs
        u = 0.5 * op.cloud.positions  # every bond stretches by about 0.5
        others = (plan.fine_bond_mask.copy(), plan.coarse_bond_mask.copy(),
                  np.ones(nbrs.n_bonds, dtype=bool))
        cloud = build_grid(((0, 0), (4, 4)), 1.0, thickness=1.0)
        bare = build_neighbor_list(cloud, 1.5)
        cases = [(nbrs, u, mask) for mask in others] + [
            (bare, 0.5 * cloud.positions, np.ones(bare.n_bonds, dtype=bool))]
        for target, disp, mask in cases:
            mu, version = target.mu.copy(), target.version
            with pytest.raises(ValueError, match="bond_sides"):
                update_damage(target, disp, 0.25, mask)
            assert np.array_equal(target.mu, mu)
            assert target.version == version
            assert target.damage_table is None
        # the sides themselves are served
        assert update_damage(nbrs, u, 0.25, plan.fine_bond_mask) > 0
        assert np.array_equal(~nbrs.mu, plan.fine_bond_mask)


def assert_sides_partition(nbrs):
    """The list's damage table holds one side per mask of
    ``nbrs.bond_sides`` (one side without a split): a side's ids are its
    mask's half-bonds as ascending int32, its lengths the bytes of the
    list's ``xi_norm`` at them and its points the ends of its half-bonds;
    merged, the sides' ids are every half-bond."""
    half = nbrs.neighbors > nbrs.bond_i
    masks = nbrs.bond_sides or (np.ones(nbrs.n_bonds, dtype=bool),)
    sides = nbrs.damage_table.sides
    assert len(sides) == len(masks)
    for side, mask in zip(sides, masks):
        assert side.ids.dtype == np.int32
        assert np.array_equal(side.ids, np.flatnonzero(half & mask))
        assert side.length.tobytes() == nbrs.xi_norm[side.ids].tobytes()
        assert np.array_equal(side.points, np.union1d(
            nbrs.bond_i[side.ids], nbrs.neighbors[side.ids]))
    merged = np.sort(np.concatenate([side.ids for side in sides]))
    assert np.array_equal(merged, np.flatnonzero(half))


class TestDamage:
    def grid_setup(self, s0=None):
        cloud = build_grid(((0, 0), (10, 10)), 1.0, thickness=1.0)
        nbrs = build_neighbor_list(cloud, 1.5)
        return cloud, nbrs

    def test_no_breaking_below_threshold(self):
        cloud, nbrs = self.grid_setup()
        u = 1e-4 * np.ones((cloud.n_points, 2))
        assert update_damage(nbrs, u, s0=0.01) == 0
        assert np.all(nbrs.mu == 1.0)

    def test_breaks_at_exact_threshold(self):
        # s0 = 0.5 is binary-exact; a collinear eta of 0.5 xi gives s == s0.
        cloud = make_cloud([[0, 0], [1, 0]])
        nbrs = build_neighbor_list(cloud, 1.0)
        u = np.array([[0.0, 0], [0.5, 0]])
        assert all_stretches(nbrs, u)[0] == 0.5
        assert update_damage(nbrs, u, s0=0.5) == 1
        assert np.all(nbrs.mu == 0.0)

    def test_just_below_threshold_survives(self):
        cloud = make_cloud([[0, 0], [1, 0]])
        nbrs = build_neighbor_list(cloud, 1.0)
        u = np.array([[0.0, 0], [0.5 - 1e-9, 0]])
        assert update_damage(nbrs, u, s0=0.5) == 0
        assert np.all(nbrs.mu == 1.0)

    def test_half_plane_separation_breaks_crossing_bonds(self):
        cloud, nbrs = self.grid_setup()
        u = np.where(cloud.positions[:, [0]] < 5.0, -0.05, 0.05) \
            * np.array([1.0, 0.0])
        s0 = 0.09
        # independent oracle: evaluate every bond stretch directly
        stretches = all_stretches(nbrs, u)
        expected = set(map(tuple, np.sort(np.column_stack(
            [nbrs.bond_i[stretches >= s0], nbrs.neighbors[stretches >= s0]]),
            axis=1).tolist()))
        broken = update_damage(nbrs, u, s0=s0)
        got = set(map(tuple, np.sort(np.column_stack(
            [nbrs.bond_i[nbrs.mu == 0], nbrs.neighbors[nbrs.mu == 0]]),
            axis=1).tolist()))
        assert got == expected
        assert broken == len(expected)
        # every broken bond crosses the interface x = 5
        x = cloud.positions[:, 0]
        for i, j in got:
            assert (x[i] - 5.0) * (x[j] - 5.0) < 0

    def check_half_bond_against_oracle(self, mask, n, dim, pairs, noise,
                                       partitioned=True):
        """update_damage against the all-bond oracle on loaded_plan(n, dim)
        with random displacements, plus one x-bond (a, c) per pair at
        exactly s == s0 (binary-exact: xi = 1/n and eta = 1/(2n)); in it
        the end named by ``moving`` moves.

        The plan's partition splits the damage table by its bond masks;
        with ``partitioned`` False no plan splits the operator, and only the
        unmasked check runs."""
        s0 = 0.5
        op, plan = loaded_plan(s0=s0, n=n, dim=dim, split=partitioned)
        nbrs = op.nbrs
        bond_mask = None if mask is None else getattr(plan, f"{mask}_bond_mask")
        write_mu(nbrs, (3, 250, 777))  # must stay uncounted
        rng = np.random.default_rng(23)
        u = noise * rng.normal(size=(op.cloud.n_points, dim))
        exact = []
        for a, c, moving in pairs:
            u[[a, c]] = 0.0
            if moving == "high":
                u[c, 0] = 0.5 / n
            else:
                u[a, 0] = -0.5 / n
            bond = nbrs.offsets[a] + np.searchsorted(nbrs.neighbors_of(a), c)
            exact += [bond, nbrs.partner[bond]]
        s = all_stretches(nbrs, u)
        assert np.all(s[exact] == s0)

        hit = (nbrs.mu > 0.0) & (s >= s0)
        if bond_mask is not None:
            hit &= bond_mask
        expected_mu = nbrs.mu.copy()
        expected_mu[hit] = 0.0
        expected_mu[nbrs.partner[hit]] = 0.0
        expected = int(np.sum(expected_mu != nbrs.mu)) // 2
        assert expected > 2  # the noise breaks bonds beyond the exact two

        assert update_damage(nbrs, u, s0, bond_mask) == expected
        assert np.array_equal(nbrs.mu, expected_mu)
        # over a partition, a coarse side and a fine side; without one,
        # one side of every half-bond
        assert_sides_partition(nbrs)
        if partitioned:
            assert nbrs.bond_sides[0] is plan.coarse_bond_mask

    @staticmethod
    def variants(check, masked):
        """Run ``check`` over a partition and, for the unmasked check
        (``masked`` False), on an operator that no plan split, each on a
        fresh operator."""
        for partitioned in (True,) if masked else (True, False):
            check(partitioned=partitioned)

    @pytest.mark.parametrize("mask", [None, "fine", "coarse"])
    def test_half_bond_check_matches_all_bond_oracle(self, mask):
        # Point (ix, iy) of the 16x8 plate is ix*8 + iy.  One exact bond in
        # the coarse half and one in the fine half; in the first the
        # higher-index end moves, in the second the lower.
        self.variants(lambda **kw: self.check_half_bond_against_oracle(
            mask, n=16, dim=2, noise=0.02,
            pairs=((2 * 8 + 3, 3 * 8 + 3, "high"),
                   (12 * 8 + 4, 13 * 8 + 4, "low")), **kw),
            masked=mask is not None)

    @pytest.mark.parametrize("mask", [None, "fine", "coarse"])
    def test_half_bond_check_matches_all_bond_oracle_3d(self, mask):
        # Point (ix, iy, iz) of the 8x4x4 block is (ix*4 + iy)*4 + iz.
        self.variants(lambda **kw: self.check_half_bond_against_oracle(
            mask, n=8, dim=3, noise=0.04,
            pairs=(((1 * 4 + 1) * 4 + 2, (2 * 4 + 1) * 4 + 2, "high"),
                   ((6 * 4 + 2) * 4 + 1, (7 * 4 + 2) * 4 + 1, "low")),
            **kw), masked=mask is not None)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("s0", [0.5, 0.25, 0.01])
    def test_squared_test_matches_the_stretch_formula(self, s0, dim):
        # The check breaks the bonds that the stretch formula on
        # np.linalg.norm of the same deformed vectors breaks.  Binary-exact
        # s0 get an x-bond at exactly s == s0.
        n = 8
        h = 1.0 / n
        op = bare_grid_op("linear", dim, n)
        nbrs, pos = op.nbrs, op.cloud.positions
        rng = np.random.default_rng(71)
        u = s0 * h * rng.normal(size=(op.cloud.n_points, dim))
        tie = None
        if s0 != 0.01:
            # point (ix, iy[, iz]) is ix*4 + iy in 2D, (ix*4 + iy)*4 + iz
            a = 2 * 4 + 1 if dim == 2 else (2 * 4 + 1) * 4 + 1
            c = a + 4 ** (dim - 1)  # the next point along x
            u[[a, c]] = 0.0
            u[c, 0] = s0 * h
            tie = nbrs.offsets[a] + np.searchsorted(nbrs.neighbors_of(a), c)
        p = pos + u
        deformed = p[nbrs.neighbors] - p[nbrs.bond_i]
        s = bond_stretch(np.linalg.norm(deformed, axis=1), nbrs.xi_norm)
        want = s >= s0
        assert 0 < want.sum() < len(want)
        if tie is not None:
            assert s[tie] == s0 and want[tie]
        assert update_damage(nbrs, u, s0) == want.sum() // 2
        assert np.array_equal(~nbrs.mu, want)

    def test_partition_masks_must_be_static_and_disjoint(self):
        # the partition derives the masks: read-only, complementary, and
        # the fine side holds every bond with a fine end
        op, plan = loaded_plan(s0=0.5)
        nbrs = op.nbrs
        coarse, fine = plan.coarse_bond_mask, plan.fine_bond_mask
        assert nbrs.bond_sides[0] is coarse and nbrs.bond_sides[1] is fine
        assert not coarse.flags.writeable and not fine.flags.writeable
        assert np.array_equal(coarse, ~fine)
        fine_end = plan.config.labels.fine_mask
        assert np.array_equal(fine, fine_end[nbrs.bond_i]
                              | fine_end[nbrs.neighbors])
        assert 0 < np.count_nonzero(fine) < nbrs.n_bonds
        # both ends matter: some fine bonds start at a coarse point
        assert np.any(fine & ~fine_end[nbrs.bond_i])
        # without fracture the plan keeps the same masks: only the checks
        # wait for s0
        _, plain = loaded_plan()
        assert plain.s0 is None
        assert np.array_equal(plain.coarse_bond_mask, coarse)
        assert np.array_equal(plain.fine_bond_mask, fine)

    @pytest.mark.parametrize("s0", [np.nan, np.inf, -np.inf, 0.0, -1.5])
    def test_refuses_a_critical_stretch_it_cannot_integrate(self, s0):
        # a NaN or infinite s0 would break no bond, and s0 <= 0 would break
        # bonds at rest: the check, and both drivers through it, raise
        # before building a table or breaking a bond
        op, plan = loaded_plan(s0=0.5)
        state0 = FieldState(u=np.zeros((op.cloud.n_points, 2)),
                            v=np.zeros((op.cloud.n_points, 2)), t=0.0)
        for check in (
                lambda: update_damage(op.nbrs, state0.u, s0),
                lambda: upd_run(op, state0, 1e-3, 2, tableau(4), s0=s0),
                lambda: mts_run(op, state0, plan.config, 2, s0=s0)):
            with pytest.raises(ValueError, match="s0"):
                check()
            assert op.nbrs.damage_table is None
        assert op.nbrs.mu.all()

    def test_bonds_never_heal(self):
        cloud = make_cloud([[0, 0], [1, 0]])
        nbrs = build_neighbor_list(cloud, 1.0)
        u = np.array([[0.0, 0], [0.6, 0]])
        update_damage(nbrs, u, s0=0.5)
        assert np.all(nbrs.mu == 0.0)
        assert update_damage(nbrs, np.zeros((2, 2)), s0=0.5) == 0
        assert np.all(nbrs.mu == 0.0)


class TestDamageInputs:
    """The compiled check reads ``u`` as float64 rows in place: any other
    dtype or layout is converted first, and a misshapen ``u`` is refused
    before any read."""

    S0 = 0.25

    @staticmethod
    def grid(dim):
        """A lattice of unit spacing and horizon 1.5, 6 x 5 (x 4) points."""
        box = ((0,) * dim, (6, 5, 4)[:dim])
        cloud = build_grid(box, 1.0, thickness=1.0 if dim == 2 else None)
        return cloud, build_neighbor_list(cloud, 1.5)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_misshapen_displacements_are_refused(self, dim):
        cloud, nbrs = self.grid(dim)
        n = cloud.n_points
        for shape in ((n - 1, dim), (n + 5, dim), (n, dim + 1), (n * dim,)):
            want = re.escape(f"({n}, {dim}), got {shape}")
            with pytest.raises(ValueError, match=want):
                update_damage(nbrs, np.full(shape, 10.0), self.S0)
            assert nbrs.mu.all() and nbrs.version == 0
            assert nbrs.damage_table is None

    @pytest.mark.parametrize("dim", [2, 3])
    def test_any_dtype_and_layout_gives_the_float64_result(self, dim):
        # float32, int and F-ordered displacements break what their
        # C-ordered float64 copy breaks, at a refresh and at a check that
        # tests the watched half-bonds only; integer moves of a unit
        # lattice break bonds
        cloud, _ = self.grid(dim)
        rng = np.random.default_rng(5)
        moves = rng.integers(0, 2, size=(cloud.n_points, dim))
        moves[rng.random(cloud.n_points) < 0.8] = 0
        for u in (0.3 * moves.astype(np.float32), moves,
                  np.asfortranarray(0.3 * moves)):
            counts = []
            for disp in (u, np.ascontiguousarray(u, dtype=np.float64)):
                _, nbrs = self.grid(dim)
                first = update_damage(nbrs, disp, self.S0)
                second = update_damage(nbrs, disp, self.S0)
                side = nbrs.damage_table.sides[0]
                assert (side.checks, side.refreshes) == (2, 1)
                counts.append((first, second, nbrs.mu.copy()))
            (got1, got2, got_mu), (want1, want2, want_mu) = counts
            assert (got1, got2) == (want1, want2) and want1 > 0
            assert np.array_equal(got_mu, want_mu)
            s = all_stretches(nbrs, np.asarray(u, dtype=np.float64))
            assert np.array_equal(~want_mu, s >= self.S0)

    def test_the_solver_view_is_read_in_place(self):
        # the solver passes y[:, :dim] of its (N, 2 dim) state: the check
        # reads it without a copy and breaks what a contiguous copy breaks
        cloud, _ = self.grid(2)
        y = np.zeros((cloud.n_points, 4))
        y[:, :2] = 0.3 * np.random.default_rng(8).integers(
            0, 2, size=(cloud.n_points, 2))
        view = y[:, :2]
        _, nbrs = self.grid(2)
        assert forces._displacements(nbrs, view) is view
        got = update_damage(nbrs, view, self.S0)
        _, twin = self.grid(2)
        assert got == update_damage(twin, view.copy(), self.S0) > 0
        assert np.array_equal(nbrs.mu, twin.mu)
        for other in (view.astype(np.float32), np.asfortranarray(view)):
            rows = forces._displacements(nbrs, other)
            assert rows.dtype == np.float64 and rows.flags.c_contiguous


def breaking_length(xi_norm, s0):
    """The least double l with bond_stretch(l, |xi|) >= s0, by nextafter
    steps from (1 + s0) |xi|: the stretch rises with l under rounding."""
    def breaks(length):
        return bond_stretch(length, xi_norm) >= s0

    length = (1.0 + s0) * xi_norm
    while not breaks(length):
        length = np.nextafter(length, np.inf)
    while breaks(np.nextafter(length, 0.0)):
        length = np.nextafter(length, 0.0)
    return length


def place_length(x, u, a, c, target):
    """Move u[c] (u[a] stays) so that the half-bond a -> c along x, computed
    as the damage check does, has |p_c - p_a| == target exactly: the
    x-offset falls just short and a small y-offset makes up the rest,
    which lands on every double near the target."""
    p_a = x[a] + u[a]
    for shrink in (1e-12, 2e-12, 3e-12, 5e-12, 8e-12):
        u[c, 0] = p_a[0] + target * (1.0 - shrink) - x[c, 0]
        d0 = (x[c, 0] + u[c, 0]) - p_a[0]
        u[c, 1] = p_a[1] + np.sqrt(target * target - d0 * d0) - x[c, 1]
        if _norm((x[c] + u[c]) - p_a) == target:
            return
    raise AssertionError("could not place the bond at the target length")


class TestDamageSides:
    """Each side of the damage table owns its half-bonds, on random clouds
    and random partitions."""

    @staticmethod
    def random_op(dim, seed):
        """150 points uniform in the unit square or cube, about 10
        neighbors each."""
        rng = np.random.default_rng(seed)
        pos = rng.random((150, dim))
        cloud = make_cloud(pos, spacing=0.08, volume=1.0 / 150,
                           thickness=0.01 if dim == 2 else None)
        mat = Material(E=1.0, rho=1.0)
        delta = 0.15 if dim == 2 else 0.25
        return PDOperator(cloud, build_neighbor_list(cloud, delta), mat), rng

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sides_partition_the_half_bonds(self, dim, seed):
        # a random split, and splits with an empty side b and an empty
        # side a; the split table's sides, merged, are the unsplit table,
        # with the same skin and reach
        op, rng = self.random_op(dim, seed)
        nbrs, n = op.nbrs, op.cloud.n_points
        unsplit = forces._half_bonds(dataclasses.replace(nbrs), 0.05)
        (whole,) = unsplit.sides
        in_b = rng.random(n) < 0.3
        everything, nothing = np.arange(n), np.empty(0, dtype=np.int64)
        for rows_a, rows_b in ((np.flatnonzero(~in_b), np.flatnonzero(in_b)),
                               (everything, nothing), (nothing, everything)):
            *_, mask_b = op.partition(rows_a, rows_b)
            update_damage(nbrs, np.zeros((n, dim)), 0.05, mask_b)
            assert_sides_partition(nbrs)
            table = nbrs.damage_table
            ids = np.concatenate([side.ids for side in table.sides])
            order = np.argsort(ids)
            assert np.array_equal(ids[order], whole.ids)
            assert np.concatenate([side.length for side in table.sides])[
                order].tobytes() == whole.length.tobytes()
            assert (table.skin, table.reach) == (unsplit.skin, unsplit.reach)
            empty = [side for side in table.sides if not len(side.ids)]
            assert all(len(side.points) == 0 for side in empty)
            assert len(empty) == (len(rows_a) == 0) + (len(rows_b) == 0)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_checks_match_the_numpy_oracle(self, dim, seed):
        # a random cloud holds points past the first whose every neighbor
        # has a higher index, so a half-bond can open its point's row: a
        # refresh finds each source by walking the offsets along the ids.
        # Growing random displacements, checked over a random split, break
        # what the numpy stretch of every bond breaks.
        op, rng = self.random_op(dim, seed)
        nbrs, n = op.nbrs, op.cloud.n_points
        rows = np.flatnonzero(nbrs.counts()[1:] > 0) + 1
        assert np.any(nbrs.neighbors[nbrs.offsets[rows]] > rows)
        in_b = rng.random(n) < 0.4
        *_, side_a, side_b = op.partition(np.flatnonzero(~in_b),
                                          np.flatnonzero(in_b))
        field = rng.normal(size=(n, dim))
        states = [2e-4 * k * field for k in range(12)]
        assert TestDamageSkin.replay(op, states, 0.05,
                                     (side_b, None, side_a)) > 0

    def test_operators_on_one_list_own_their_flags_and_split(self):
        # two operators built on one NeighborList, both split before either
        # checks: each plan's masks are its own operator's sides, and bonds
        # broken through one operator change neither the other's flags nor
        # the shared list's
        h = 1.0 / 16
        cloud = build_grid(((0, 0), (1, 0.5)), h, thickness=0.01)
        shared = build_neighbor_list(cloud, 3 * h)
        labels = classify_subdomains(cloud, shared, [((0.5, 0.0), (1, 0.5))])
        config = MtsConfig(order=4, dt=1e-3, K=2, labels=labels)
        ops = [PDOperator(cloud, shared, unit_alpha_material(3 * h, 0.01))
               for _ in range(2)]
        plans = [MtsPlan(op, config, s0=0.05) for op in ops]
        u = 0.1 * cloud.positions  # every bond stretched 10%
        first, second = ops
        fine, coarse = plans[0].fine_bond_mask, plans[1].coarse_bond_mask
        assert update_damage(first.nbrs, u, 0.05, fine) == fine.sum() // 2
        assert second.nbrs.mu.all() and shared.mu.all()
        assert update_damage(second.nbrs, u, 0.05, coarse) \
            == coarse.sum() // 2
        assert np.array_equal(first.nbrs.mu, ~fine)
        assert np.array_equal(second.nbrs.mu, ~coarse)
        assert shared.mu.all() and shared.version == 0
        assert shared.bond_sides is None and shared.damage_table is None


class TestDamageSkin:
    """Each side of the damage table keeps a Verlet skin: every check
    returns the count and leaves the flags and version that the numpy
    stretch of every bond (``all_stretches``) gives, while most checks test
    only the half-bonds that were near breaking at the side's latest
    refresh."""

    S0 = 0.05

    @staticmethod
    def jittered_op(dim, seed=3):
        """A lattice of spacing h = 1/24 (2D) or 1/8 (3D) with each point
        moved by up to 0.3 h per axis, and a horizon of 2 h."""
        n = 24 if dim == 2 else 8
        h = 1.0 / n
        rng = np.random.default_rng(seed)
        axes = np.meshgrid(*[np.arange(n) * h] * dim, indexing="ij")
        pos = np.stack(axes, axis=-1).reshape(-1, dim)
        pos += rng.uniform(-0.3 * h, 0.3 * h, size=pos.shape)
        cloud = make_cloud(pos, spacing=h, volume=h ** dim,
                           thickness=0.01 if dim == 2 else None)
        mat = unit_alpha_material(2 * h, thickness=0.01) if dim == 2 \
            else Material(E=1.0, rho=1.0)
        return PDOperator(cloud, build_neighbor_list(cloud, 2 * h), mat)

    @staticmethod
    def split(op):
        """Partition at x = 0.5; the masks to check with: none, then the
        two sides."""
        x = op.cloud.positions[:, 0]
        *_, side_a, side_b = op.partition(np.flatnonzero(x < 0.5),
                                          np.flatnonzero(x >= 0.5))
        return None, side_a, side_b

    @staticmethod
    def replay(op, states, s0, masks=(None,)):
        """Check each state under each mask in turn, each check against the
        numpy oracle: every alive bond of the mask whose ``all_stretches``
        reaches s0 breaks, with its reversed bond, and the version moves
        when a flag does; returns the bonds broken."""
        nbrs = op.nbrs
        total = 0
        for u in states:
            s = all_stretches(nbrs, u)
            for mask in masks:
                hit = nbrs.mu & (s >= s0)
                if mask is not None:
                    hit &= mask
                want_mu = nbrs.mu.copy()
                want_mu[hit] = False
                want_mu[nbrs.partner[hit]] = False
                want = int(np.count_nonzero(want_mu != nbrs.mu)) // 2
                version = nbrs.version + (want > 0)
                assert update_damage(nbrs, u, s0, mask) == want
                assert np.array_equal(nbrs.mu, want_mu)
                assert nbrs.version == version
                total += want
        return total

    @staticmethod
    def counts(nbrs):
        """(checks, refreshes), summed over the table's sides."""
        sides = nbrs.damage_table.sides
        return (sum(side.checks for side in sides),
                sum(side.refreshes for side in sides))

    @staticmethod
    def motion(op, name):
        """40 displacement states: a rotation by up to 0.008 rad about the
        centre of a cloud whose random distortion grows from 0.03 h to
        0.04 h per axis (rms), or its two halves (at x = 0.5) moving apart
        by up to 0.16 h."""
        x, h, dim = op.cloud.positions, op.cloud.spacing, op.cloud.dim
        field = h * np.random.default_rng(11).normal(size=x.shape)
        if name == "halves":
            apart = np.where(x[:, :1] < 0.5, -1.0, 1.0) * np.eye(dim)[0]
            return [0.002 * k * h * apart + 0.002 * field for k in range(40)]
        centre = x.mean(axis=0)
        states = []
        for k in range(40):
            cos, sin = np.cos(2e-4 * k), np.sin(2e-4 * k)
            rot = np.eye(dim)
            rot[:2, :2] = [[cos, -sin], [sin, cos]]
            states.append((x - centre + (0.03 + 2.5e-4 * k) * field)
                          @ rot.T + centre - x)
        return states

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("motion", ["rotation", "halves"])
    def test_matches_a_full_pass(self, motion, dim):
        # over a partition (no mask, then each side) and without one: the
        # breaks of the numpy oracle, with some checks refreshing and some
        # not
        for partitioned in (True, False):
            op = self.jittered_op(dim)
            masks = self.split(op) if partitioned else (None,)
            assert self.replay(op, self.motion(op, motion), self.S0,
                               masks) > 0
            checks, refreshes = self.counts(op.nbrs)
            assert 1 < refreshes < checks

    @staticmethod
    def numpy_drift(table, side, u):
        """The skin's drift bound by numpy: over the side's points,
        component k of u - u_ref lies in [lo_k, hi_k]; the bound is |hi -
        lo| plus _SKIN_ROUNDING times (reach + 2 max|u_ref|) + max(-min lo,
        max hi), NaN for a NaN in u - u_ref, and 0 for a side with no
        points."""
        if not len(side.points):
            return 0.0
        du = u[side.points].T - side.u_ref
        lo, hi = du.min(axis=1), du.max(axis=1)
        scale = table.reach + 2.0 * side.u_ref_max + max(-lo.min(), hi.max())
        return np.sqrt(sum(d * d for d in hi - lo)) \
            + forces._SKIN_ROUNDING * scale

    @pytest.mark.parametrize("dim", [2, 3])
    def test_the_bound_is_the_numpy_bound(self, dim):
        # bit for bit, over random references and displacements whose
        # boxes reach further below zero than above it or the other way,
        # with a side's points offset from the lattice; NaN for a NaN in u
        # or in the reference, and 0 for a side with no points
        op = self.jittered_op(dim)
        nbrs = op.nbrs
        x = op.cloud.positions
        self.split(op)
        update_damage(nbrs, np.zeros_like(x), self.S0)
        table = nbrs.damage_table
        rng = np.random.default_rng(13)
        for trial in range(40):
            for side in table.sides:
                scale = 10.0 ** rng.uniform(-9, 2)
                side.u_ref = scale * rng.normal(size=(dim, len(side.points)))
                side.u_ref_max = float(np.abs(side.u_ref).max())
                u = scale * rng.normal(size=x.shape) \
                    + rng.choice([-1.0, 1.0]) * 3.0 * scale
                if trial % 10 == 9:
                    u[side.points[trial % len(side.points)], 1] = np.nan
                want = self.numpy_drift(table, side, u)
                got = forces._drift(table, side,
                                    forces._displacements(nbrs, u))
                assert np.isnan(got) == np.isnan(want)
                assert np.isnan(want) or got == want
                side.u_ref[0, 0] = np.nan
                assert np.isnan(forces._drift(table, side, np.zeros_like(x)))
        empty = dataclasses.replace(table.sides[0], points=np.empty(
            0, dtype=np.int64), u_ref=np.empty((dim, 0)))
        assert forces._drift(table, empty, np.full_like(x, np.nan)) == 0.0

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("partitioned", [False, True])
    def test_refreshes_exactly_when_the_numpy_bound_says(self, partitioned,
                                                          dim):
        # on every check, each checked side refreshes exactly when the
        # numpy bound is not under the skin, and a refresh holds u at the
        # side's points as its reference and watches every half-bond it
        # breaks.  A NaN displacement breaks none of its bonds and makes
        # its sides refresh on that check and the next.
        op = self.jittered_op(dim)
        nbrs = op.nbrs
        masks = self.split(op) if partitioned else (None,)
        states = self.motion(op, "halves")
        states[21] = states[21].copy()
        states[21][7, 0] = np.nan
        seen, nan_checks = set(), set()
        for u in states:
            for mask in masks:
                table = nbrs.damage_table
                if table is None:  # the first check builds the table
                    self.replay(op, [u], self.S0, (mask,))
                    continue
                sides = nbrs.bond_sides or (None,)
                checked = [side for side, m in zip(table.sides, sides)
                           if mask is None or m is mask]
                # NaN now at a side point, or in the reference
                before = [(side.refreshes, self.numpy_drift(table, side, u),
                           np.isnan(u[side.points]).any(),
                           np.isnan(side.u_ref).any()) for side in checked]
                mu = nbrs.mu.copy()
                self.replay(op, [u], self.S0, (mask,))
                for side, (refreshes, bound, *nan) in zip(checked, before):
                    refreshed = not bound < table.skin
                    assert side.refreshes == refreshes + refreshed
                    seen.add(refreshed)
                    if any(nan):
                        assert np.isnan(bound) and refreshed
                        nan_checks.add(tuple(nan))
                    if refreshed:
                        assert side.u_ref.tobytes() == \
                            u[side.points].T.copy().tobytes()
                        broken = np.intersect1d(np.flatnonzero(mu & ~nbrs.mu),
                                                side.ids)
                        assert np.isin(broken, side.watch[0]).all()
        assert seen == {False, True}
        # the NaN state, and a later finite one against its reference
        assert {(True, False), (False, True)} <= nan_checks
        assert nbrs.mu[nbrs.offsets[7]:nbrs.offsets[8]].all()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_half_bonds_at_the_critical_stretch(self, dim):
        # three x-bonds a -> c of |xi| = h = 1/8 at s0 = 0.5: |p_c - p_a| is
        # 3h/2 exactly (s == s0), the double above it or the double below.
        # A refresh and a check of the watched half-bonds each break the
        # first two and keep the third, and every hit is watched.
        h, s0 = 1.0 / 8, 0.5
        box = ((0, 0), (1, 1)) if dim == 2 else ((0, 0, 0), (1, 1, 0.5))
        cloud = build_grid(box, h, thickness=0.01)
        x = cloud.positions
        targets = (1.5 * h, np.nextafter(1.5 * h, 1.0),
                   np.nextafter(1.5 * h, 0.0))
        pairs = []
        for start in ((0.1875, 0.1875), (0.6875, 0.1875), (0.4375, 0.6875)):
            start += (0.0625,) * (dim - 2)
            a = int(np.argmin(np.linalg.norm(x - start, axis=1)))
            c = int(np.argmin(np.linalg.norm(x - x[a] - h * np.eye(dim)[0],
                                             axis=1)))
            pairs.append((a, c))
        for watched in (False, True):
            nbrs = build_neighbor_list(cloud, 1.5 * h)
            bonds = [nbrs.offsets[a] + np.searchsorted(nbrs.neighbors_of(a), c)
                     for a, c in pairs]
            u = np.zeros_like(x)
            if watched:  # a refresh with every bond within the skin
                skin = forces._SKIN_FRACTION * s0 * nbrs.xi_norm.min()
                for a, c in pairs:
                    u[c, 0] = 0.5 * h - 0.5 * skin
                assert update_damage(nbrs, u, s0) == 0
                assert set(bonds) <= set(nbrs.damage_table.sides[0].watch[0])
            for (a, c), target in zip(pairs, targets):
                place_length(x, u, a, c, target)
            s = all_stretches(nbrs, u)
            assert [s[b] >= s0 for b in bonds] == [True, True, False]
            assert s[bonds[0]] == s0
            assert update_damage(nbrs, u, s0) == 2
            assert [nbrs.mu[b] for b in bonds] == [False, False, True]
            side = nbrs.damage_table.sides[0]
            assert (side.checks, side.refreshes) == (1 + watched, 1)
            assert set(bonds[:2]) <= set(side.watch[0])  # hits are watched

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rigid_translation(self, dim):
        # a rigid translation by 40 widths of the cloud costs no refresh:
        # the sides' boxes of u - u_ref do not grow.  One so large that
        # p = x + u rounds at a quarter of the spacing breaks bonds by
        # rounding alone; the rounding margin grows with |u| and makes that
        # check refresh.
        op = self.jittered_op(dim)
        masks = self.split(op)
        x, h = op.cloud.positions, op.cloud.spacing
        self.replay(op, [np.zeros_like(x)], self.S0, masks)
        before = self.counts(op.nbrs)
        self.replay(op, [np.full_like(x, 40.0)], self.S0, masks)
        checks, refreshes = self.counts(op.nbrs)
        assert checks > before[0] and refreshes == before[1]
        assert self.replay(op, [np.full_like(x, 2.0 ** 50 * h)], self.S0,
                           masks) > 0
        assert self.counts(op.nbrs)[1] > refreshes

    def test_bond_at_exactly_its_breaking_length(self):
        # a check that tests only the watched half-bonds breaks one whose
        # |p_j - p_i| is exactly its breaking length, and keeps one at the
        # double below it
        cloud = build_grid(((0, 0), (1, 0.5)), 1.0 / 8, thickness=0.01)
        op = PDOperator(cloud, build_neighbor_list(cloud, 1.5 / 8),
                        unit_alpha_material(1.5 / 8))
        x, s0, nbrs = cloud.positions, 0.25, op.nbrs
        bonds = []
        for start in ((0.1875, 0.1875), (0.6875, 0.3125)):
            a = int(np.argmin(np.linalg.norm(x - start, axis=1)))
            c = int(np.argmin(np.linalg.norm(x - x[a] - (0.125, 0.0),
                                             axis=1)))
            assert a < c  # the half-bond a -> c is in the table
            bond = nbrs.offsets[a] + np.searchsorted(nbrs.neighbors_of(a), c)
            bonds.append((a, c, bond,
                          breaking_length(nbrs.xi_norm[bond], s0)))
        u = np.zeros_like(x)
        skin = forces._SKIN_FRACTION * s0 * nbrs.xi_norm.min()
        # both bonds within the skin of breaking: the first check refreshes
        # and watches them
        for a, c, _, length in bonds:
            u[c, 0] = length - 0.5 * skin - (x[c, 0] - x[a, 0])
        self.replay(op, [u], s0)
        assert nbrs.damage_table.skin == skin
        watched = set(nbrs.damage_table.sides[0].watch[0].tolist())
        assert {bond for _, _, bond, _ in bonds} <= watched
        # about half the skin further: exactly the breaking length and the
        # double below
        for (a, c, _, length), target in zip(bonds, (1.0, 0.0)):
            place_length(x, u, a, c,
                         length if target else np.nextafter(length, 0.0))
        refreshes = self.counts(nbrs)[1]
        assert self.replay(op, [u], s0) == 1
        assert self.counts(nbrs)[1] == refreshes
        assert not nbrs.mu[bonds[0][2]] and nbrs.mu[bonds[1][2]]

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("s0", [0.01, 0.1, 1.0 / 3.0])
    def test_bonds_around_their_breaking_length(self, s0, dim):
        # an x-bond placed at each double from 3 below to 3 above its
        # breaking length, checked once by a refresh and once by a check
        # that tests only the watched half-bonds: each decision is the
        # stretch formula's, and only the bond itself can break
        h = 1.0 / 8
        box = ((0, 0), (1, 0.5)) if dim == 2 else ((0, 0, 0), (1, 0.5, 0.5))
        cloud = build_grid(box, h, thickness=0.01)
        x = cloud.positions
        a = int(np.argmin(np.linalg.norm(x - x.mean(axis=0), axis=1)))
        c = int(np.argmin(np.linalg.norm(x - x[a] - h * np.eye(dim)[0],
                                         axis=1)))
        assert a < c  # the half-bond a -> c is in the table
        nbrs = build_neighbor_list(cloud, 1.5 * h)
        bond = nbrs.offsets[a] + np.searchsorted(nbrs.neighbors_of(a), c)
        xi_norm = nbrs.xi_norm[bond]
        skin = forces._SKIN_FRACTION * s0 * nbrs.xi_norm.min()
        targets = [breaking_length(xi_norm, s0)]
        for _ in range(3):
            targets.insert(0, np.nextafter(targets[0], 0.0))
            targets.append(np.nextafter(targets[-1], np.inf))
        decisions = []
        for target in targets:
            want = bond_stretch(target, xi_norm) >= s0
            decisions.append(bool(want))
            for watched in (False, True):
                nbrs = build_neighbor_list(cloud, 1.5 * h)
                u = np.zeros_like(x)
                if watched:  # refresh with the bond within the skin
                    u[c, 0] = targets[3] - 0.5 * skin - (x[c, 0] - x[a, 0])
                    assert update_damage(nbrs, u, s0) == 0
                    assert bond in nbrs.damage_table.sides[0].watch[0]
                place_length(x, u, a, c, target)
                assert update_damage(nbrs, u, s0) == want
                assert nbrs.mu[bond] != want
                assert nbrs.mu.sum() == nbrs.n_bonds - 2 * want
                side = nbrs.damage_table.sides[0]
                assert (side.checks, side.refreshes) == (1 + watched, 1)
        assert decisions == [False] * 3 + [True] * 4

    def test_a_bound_just_under_the_skin_refreshes(self):
        # the bound is known only up to rounding: the x < 0.5 half moved
        # rigidly by half the skin costs no refresh; moved by the double
        # below the skin it reads a bound under the skin, and the margin
        # makes the check refresh.  A diagonal move whose components stay
        # under the skin but whose length does not refreshes too: the bound
        # is the box's diagonal, not its widest side.
        op = self.jittered_op(2)
        nbrs, x = op.nbrs, op.cloud.positions
        half = x[:, 0] < 0.5
        u = np.zeros_like(x)
        update_damage(nbrs, u, self.S0)
        skin = nbrs.damage_table.skin
        u[half, 0] = 0.5 * skin
        self.replay(op, [u], self.S0)
        assert self.counts(nbrs) == (2, 1)
        u[half, 0] = np.nextafter(skin, 0.0)
        self.replay(op, [u], self.S0)
        assert self.counts(nbrs) == (3, 2)
        u[half] += 0.75 * skin
        self.replay(op, [u], self.S0)
        assert self.counts(nbrs) == (4, 3)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_side_with_no_half_bonds(self, dim):
        # a partition into every row and none: the empty side has no
        # half-bonds and no points, and reads a bound of 0, so only its
        # first check refreshes; the other side still matches a full pass
        op = self.jittered_op(dim)
        n = op.cloud.n_points
        *_, side_a, side_b = op.partition(np.arange(n),
                                          np.empty(0, dtype=np.int64))
        masks = (None, side_a, side_b)
        assert self.replay(op, self.motion(op, "halves"), self.S0, masks) > 0
        full, empty = op.nbrs.damage_table.sides
        assert len(empty.points) == len(empty.ids) == len(empty.length) == 0
        assert_sides_partition(op.nbrs)
        assert (empty.checks, empty.refreshes) == (80, 1)
        assert 1 < full.refreshes < full.checks

    def test_a_refresh_moves_the_reference(self):
        # after a shear past the skin refreshes, checks of the same or a
        # nearby state measure from it and do not refresh
        op = self.jittered_op(2)
        nbrs, x = op.nbrs, op.cloud.positions
        shear = np.zeros_like(x)
        shear[:, 0] = 0.01 * x[:, 1]
        for u, refreshes in ((0.0 * shear, 1), (shear, 2), (shear, 2),
                             (1.001 * shear, 2)):
            self.replay(op, [u], self.S0)
            assert self.counts(nbrs)[1] == refreshes

    def test_a_new_partition_resets_the_state(self):
        # a bond on the left is past breaking while only the right side is
        # checked; once a new partition makes the left the checked side,
        # its first check breaks it
        op = self.jittered_op(2)
        nbrs, x = op.nbrs, op.cloud.positions
        left = np.flatnonzero(x[:, 0] < 0.5)
        right = np.flatnonzero(x[:, 0] >= 0.5)
        *_, side = op.partition(left, right)
        a = int(np.argmin(np.linalg.norm(x - (0.2, 0.5), axis=1)))
        c = nbrs.neighbors_of(a)[-1]
        u = np.zeros_like(x)
        u[c] = 0.2 * (x[c] - x[a])  # stretch 0.2 > S0
        assert self.replay(op, [u, u], self.S0, (side,)) == 0
        *_, side = op.partition(right, left)
        assert nbrs.damage_table is None
        assert self.replay(op, [u], self.S0, (side,)) > 0
        assert self.counts(nbrs) == (1, 1)
        assert not nbrs.mu[nbrs.offsets[a]
                           + np.searchsorted(nbrs.neighbors_of(a), c)]

    def test_a_new_s0_resets_the_state(self):
        # a table at another s0 starts with no refresh and no watch list
        op = self.jittered_op(2)
        nbrs = op.nbrs
        states = self.motion(op, "halves")
        self.replay(op, states[:30], 0.5)
        assert self.counts(nbrs)[1] >= 1
        table = nbrs.damage_table
        assert self.replay(op, states[30:31], self.S0) > 0
        assert nbrs.damage_table is not table
        assert self.counts(nbrs) == (1, 1)

    def test_table_layout(self):
        # 12 B per half-bond: each side's int32 ids and float64 lengths
        # |xi|, bit for bit the list's; split or not, the skin and reach
        # are taken over every side
        for split in (False, True):
            op = self.jittered_op(3)
            if split:
                self.split(op)
            update_damage(op.nbrs, np.zeros((op.cloud.n_points, 3)), self.S0)
            table = op.nbrs.damage_table
            assert len(table.sides) == 1 + split
            assert_sides_partition(op.nbrs)
            half_bonds = sum(len(side.ids) for side in table.sides)
            held = [a for side in table.sides for a in (side.ids, side.length)]
            assert sum(a.nbytes for a in held) == 12 * half_bonds
            xi_norm = op.nbrs.xi_norm
            assert table.skin == \
                forces._SKIN_FRACTION * self.S0 * xi_norm.min()
            assert table.reach == np.abs(op.cloud.positions).max() \
                + (1.0 + self.S0) * xi_norm.max()

    def test_crack2d(self):
        # a real MTS run refreshes each side on some checks, not all, and
        # drops the table when it ends; its states, amplified and with the
        # crack faces pulled apart, break the same bonds as a full pass
        scenario = Scenario(preset_config("crack2d"))
        op = scenario.fresh_operator()
        seen = []

        def on_step(step, t, y):
            seen.append([(side.checks, side.refreshes)
                         for side in op.nbrs.damage_table.sides])

        traj, _ = mts_run(op, scenario.initial_state(),
                          scenario.mts_config(), 12, s0=scenario.s0,
                          record_every=1, on_step=on_step)
        assert op.nbrs.damage_table is None and op.nbrs.bond_sides is None
        assert all(1 <= refreshes < checks for checks, refreshes in seen[-1])
        y = op.cloud.positions[:, 1]
        opening = np.where(y < 0.025, -1.0, 1.0)
        states = []
        for k, state in enumerate(traj.states):
            u = (1.0 + 0.5 * k) * state.u
            u[:, 1] += 3e-7 * k * opening
            states.append(u)
        # the run's split ended with it: the replay splits anew
        plan = MtsPlan(op, scenario.mts_config(), scenario.s0)
        masks = (None, plan.coarse_bond_mask, plan.fine_bond_mask)
        assert self.replay(op, states, scenario.s0, masks) > 0
        checks, refreshes = self.counts(op.nbrs)
        assert 1 < refreshes < checks

    @pytest.mark.parametrize("scheme", ["upd", "mts"])
    def test_runs_end_holding_only_bond_data(self, scheme):
        # after a run, also one that raised, the operator holds no damage
        # table, no full view, no split and no bond table; its topology
        # and flags stay
        op, plan = loaded_plan(s0=0.5)
        state0 = FieldState(u=np.zeros((op.cloud.n_points, 2)),
                            v=np.zeros((op.cloud.n_points, 2)), t=0.0)
        write_mu(op.nbrs, (3, 250))

        def run(on_step=None):
            if scheme == "upd":
                return upd_run(op, state0, 1e-3, 3, tableau(4), s0=0.5,
                               on_step=on_step)
            return mts_run(op, state0, plan.config, 3, s0=0.5,
                           on_step=on_step)

        def stop(step, t, y):
            assert op.nbrs.damage_table is not None
            assert op.bond_table is not None
            raise RuntimeError("stop")

        for on_step in (None, stop):
            try:
                run(on_step)
            except RuntimeError:
                pass
            assert op.nbrs.damage_table is None
            assert op._full_view is None and op.nbrs.bond_sides is None
            assert op.bond_table is None
            assert op.nbrs.mu.sum() == op.nbrs.n_bonds - 4
            y = random_state(op, 5)
            assert np.array_equal(op.rates(y, 0.0),
                                  reference_rates(op, y, np.arange(
                                      op.cloud.n_points)))


class TestPrecrack:
    def test_far_segment_breaks_nothing(self):
        cloud = build_grid(((0, 0), (2, 2)), 1.0, thickness=1.0)
        nbrs = build_neighbor_list(cloud, 1.0)
        assert break_precrack_bonds(cloud, nbrs, ((10, 10), (11, 10))) == 0

    def test_horizontal_crack_cuts_vertical_bonds(self):
        cloud = build_grid(((0, 0), (2, 2)), 1.0, thickness=1.0)
        nbrs = build_neighbor_list(cloud, 1.0)  # axis bonds only
        count = break_precrack_bonds(cloud, nbrs, ((-0.5, 1.0), (2.5, 1.0)))
        assert count == 2
        broken = np.flatnonzero(nbrs.mu == 0)
        for b in broken:
            xi = nbrs.xi[b]
            assert abs(xi[0]) < 1e-12 and abs(abs(xi[1]) - 1.0) < 1e-12

    def test_crack_tip_on_bond_counts_as_hit(self):
        cloud = build_grid(((0, 0), (2, 2)), 1.0, thickness=1.0)
        nbrs = build_neighbor_list(cloud, 1.0)
        # crack ends exactly on the open segment of the left vertical bond
        assert break_precrack_bonds(cloud, nbrs, ((0.0, 1.0), (0.5, 1.0))) == 1

    def test_center_crack_symmetric_under_reflection(self):
        cloud = build_grid(((0, 0), (0.05, 0.05)), 5e-4, thickness=0.01)
        nbrs = build_neighbor_list(cloud, 1.5e-3)
        break_precrack_bonds(cloud, nbrs, ((0.02, 0.025), (0.03, 0.025)))
        phi = damage_index(nbrs).reshape(100, 100)
        np.testing.assert_array_equal(phi, phi[:, ::-1])
        assert phi.max() > 0


def all_bond_precrack_mu(cloud, nbrs, segment):
    """The bond flags after the pre-crack, by the crossing predicate over
    every bond of the list (the cut as it was); ``nbrs`` is left as is."""
    c = np.asarray(segment[0], dtype=float)
    d = np.asarray(segment[1], dtype=float)
    a = cloud.positions[nbrs.bond_i]
    b = cloud.positions[nbrs.neighbors]

    def cross(o, p, q):
        return (p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1]) \
            - (p[..., 1] - o[..., 1]) * (q[..., 0] - o[..., 0])

    hits = (cross(c, d, a) * cross(c, d, b) < 0.0) \
        & (cross(a, b, c) * cross(a, b, d) <= 0.0)
    ids = np.flatnonzero(hits & (nbrs.mu > 0.0))
    mu = nbrs.mu.copy()
    mu[np.union1d(ids, nbrs.partner[ids])] = 0.0
    return mu


class TestNearCrackCut:
    """break_precrack_bonds tests only the bonds near the segment; the flags
    must equal the all-bond predicate's."""

    @staticmethod
    def assert_same_cut(cloud, nbrs, segment):
        want = all_bond_precrack_mu(cloud, nbrs, segment)
        before = np.count_nonzero(nbrs.mu == 0.0)
        count = break_precrack_bonds(cloud, nbrs, segment)
        assert nbrs.mu.tobytes() == want.tobytes()
        assert 2 * count == np.count_nonzero(want == 0.0) - before
        return count

    def test_crack2d_preset(self):
        cfg = preset_config("crack2d")
        g = cfg.geometry
        cloud = build_grid((g.box_min, g.box_max), g.dx, g.thickness)
        nbrs = build_neighbor_list(cloud, cfg.delta)
        assert self.assert_same_cut(cloud, nbrs, cfg.fracture.precrack) == 360

    @pytest.fixture
    def plate(self):
        cloud = build_grid(((0, 0), (1.5, 1.0)), 0.05, thickness=0.01)
        return cloud, 3.015 * 0.05

    def test_random_segments(self, plate):
        cloud, delta = plate
        rng = np.random.default_rng(11)
        total = 0
        for _ in range(25):
            nbrs = build_neighbor_list(cloud, delta)
            ends = rng.uniform(-0.3, 1.8, size=(2, 2))
            total += self.assert_same_cut(cloud, nbrs, (ends[0], ends[1]))
        assert total > 0

    def test_segment_tip_at_a_point(self, plate):
        cloud, delta = plate
        p = cloud.positions
        for tip, other in ((p[212], p[212] + (0.4, 0.13)),
                           (p[305], p[40]), (p[0], p[-1])):
            nbrs = build_neighbor_list(cloud, delta)
            assert self.assert_same_cut(cloud, nbrs, (tip, other)) > 0

    def test_segment_along_lattice_lines(self, plate):
        cloud, delta = plate
        row = cloud.positions[cloud.positions[:, 1] == cloud.positions[45, 1]]
        col = cloud.positions[cloud.positions[:, 0] == cloud.positions[45, 0]]
        for segment in ((row[3], row[17]), (col[2], col[-1]),
                        ((0.2, 0.5), (1.1, 0.5)),  # between two rows
                        (cloud.positions[0], cloud.positions[-1])):
            nbrs = build_neighbor_list(cloud, delta)
            assert self.assert_same_cut(cloud, nbrs, segment) > 0


class TestBondStorage:
    """The bond table and the damage tables derive the bond geometry from
    the positions, bit for bit from the neighbor list's derived xi and
    xi_norm, and no per-bond ids are kept beside the list's."""

    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 16)])
    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_block_geometry_matches_the_list(self, law, dim, n):
        # the linear law holds q = sqrt(alpha / |xi|^3) xi and no length,
        # the nonlinear law xi and |xi|, each as one row per component
        op, plan = loaded_plan(law, n=n, dim=dim)
        nbrs = op.nbrs
        xi, xi_norm = nbrs.xi, nbrs.xi_norm
        op.rates(random_state(op, 97), 0.0, plan.fine_view)
        table = op.bond_table
        assert table.flags.c_contiguous and table.dtype == np.float64
        if law == "linear":
            want = xi.T * np.sqrt(op.alpha / (xi_norm * xi_norm * xi_norm))
            assert table.tobytes() == want.tobytes()
        else:
            assert table[:dim].tobytes() == xi.T.copy().tobytes()
            assert table[dim].tobytes() == xi_norm.tobytes()

    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
    def test_damage_table_matches_the_list(self, dim, n):
        # one side per mask, coarse then fine: its ids and their lengths,
        # the bytes of the list's xi_norm (12 B per half-bond); built once
        # per s0, and no bond vectors and no ends are stored
        op, plan = loaded_plan(s0=0.5, n=n, dim=dim)
        nbrs = op.nbrs
        assert nbrs.damage_table is None
        u = np.zeros((op.cloud.n_points, dim))
        table = None
        for s0 in (0.5, 0.5, 0.25):
            update_damage(nbrs, u, s0, plan.fine_bond_mask)
            assert (nbrs.damage_table is table) == (table is not None
                                                    and table.s0 == s0)
            table = nbrs.damage_table
            assert table.s0 == s0
            assert all(a is b for a, b in zip(nbrs.bond_sides, (
                plan.coarse_bond_mask, plan.fine_bond_mask)))
            assert_sides_partition(nbrs)
            half = nbrs.neighbors > nbrs.bond_i
            for side, mask in zip(table.sides, nbrs.bond_sides):
                assert set(vars(side)) == {
                    "ids", "length", "points", "u_ref", "u_ref_max",
                    "watch", "checks", "refreshes"}
                # the side's half-bonds, ascending, with the list's lengths
                # to the bit, and the ends of its half-bonds as its points
                assert side.ids.dtype == np.int32
                assert np.array_equal(side.ids, np.flatnonzero(half & mask))
                assert side.length.tobytes() == \
                    nbrs.xi_norm[side.ids].tobytes()
                assert np.array_equal(side.points, np.union1d(
                    nbrs.bond_i[side.ids], nbrs.neighbors[side.ids]))
                assert len(side.ids) > 0
            lengths = np.concatenate([side.length for side in table.sides])
            assert table.skin == forces._SKIN_FRACTION * s0 * lengths.min()
            assert table.reach == np.abs(nbrs.positions).max() \
                + (1.0 + s0) * lengths.max()
            assert set(vars(table)) == {"s0", "skin", "reach", "sides"}
        update_damage(nbrs, u, 0.25)
        assert nbrs.damage_table is table  # the unmasked check shares it
        # a new split drops the table and refuses the old split's masks
        op.partition(plan.rows_f, plan.rows_c)
        assert nbrs.damage_table is None
        with pytest.raises(ValueError, match="bond_sides"):
            update_damage(nbrs, u, 0.25, plan.fine_bond_mask)
        update_damage(nbrs, u, 0.25, nbrs.bond_sides[1])
        assert_sides_partition(nbrs)
        # with no split, one side holds every half-bond
        op.drop_run_caches()
        update_damage(nbrs, u, 0.25)
        (side,) = nbrs.damage_table.sides
        assert np.array_equal(side.ids, np.flatnonzero(half))
        assert side.length.tobytes() == nbrs.xi_norm[side.ids].tobytes()

    def test_bond_sel_is_built_on_first_access(self):
        op, plan = loaded_plan()
        off = op.nbrs.offsets
        for view in (plan.coarse_view, plan.fine_view):
            assert "bond_sel" not in vars(view)
            sel = view.bond_sel
            assert vars(view)["bond_sel"] is sel
            want = np.concatenate([np.arange(off[r], off[r + 1])
                                   for r in view.rows])
            assert np.array_equal(sel, want)
            assert view.n_bonds == len(sel)


class TestBlockSize:
    @pytest.mark.parametrize("dim, n", [(2, 80), (3, 16)])
    def test_views_hold_at_most_block_slots(self, dim, n):
        # a view holds its row ids only, 8 B per row; the operator's bond
        # table 8 * dim B per bond under the linear law, whatever the views
        op, plan = loaded_plan(n=n, dim=dim)
        y = random_state(op, 101)
        for view in (op.full_view, plan.coarse_view, plan.fine_view):
            op.rates(y, 0.5, view)
            held = [v for v in vars(view).values()
                    if isinstance(v, np.ndarray) and v is not view.offsets]
            assert sum(a.nbytes for a in held) == 8 * len(view.rows)
        assert op.bond_table.nbytes == 8 * dim * op.nbrs.n_bonds


class TestDamageIndex:
    def test_all_alive(self):
        cloud = build_grid(((0, 0), (3, 3)), 1.0, thickness=1.0)
        nbrs = build_neighbor_list(cloud, 1.5)
        assert np.all(damage_index(nbrs) == 0.0)

    def test_all_broken(self):
        cloud = build_grid(((0, 0), (3, 3)), 1.0, thickness=1.0)
        nbrs = build_neighbor_list(cloud, 1.5)
        write_mu(nbrs, broken=np.arange(nbrs.n_bonds))
        assert np.all(damage_index(nbrs) == 1.0)

    def test_half_broken(self):
        cloud = make_cloud([[0, 0], [1, 0], [2, 0], [1, 1]])
        nbrs = build_neighbor_list(cloud, 1.0)
        # point 1 has bonds to 0, 2, 3: break 0 and... choose 2 of 4? use
        # a 4-neighbor point: center of a plus
        cloud = make_cloud([[0, 0], [2, 0], [1, 1], [1, -1], [1, 0]])
        nbrs = build_neighbor_list(cloud, 1.0)
        center = 4
        bonds = np.arange(nbrs.offsets[center], nbrs.offsets[center + 1])
        assert len(bonds) == 4
        write_mu(nbrs, broken=bonds[:2])
        assert damage_index(nbrs)[center] == pytest.approx(0.5)

    def test_matches_the_bond_sum(self):
        # alive counts from CSR segments equal the per-bond bincount bit for
        # bit, isolated points (no bonds) included
        pos = np.vstack([build_grid(((0, 0), (3, 2)), 0.25,
                                    thickness=1.0).positions, [[9.0, 9.0]]])
        nbrs = build_neighbor_list(make_cloud(pos, spacing=0.25), 0.6)
        rng = np.random.default_rng(5)
        write_mu(nbrs, broken=rng.choice(nbrs.n_bonds, 60, replace=False))
        counts = nbrs.counts()
        assert counts[-1] == 0
        alive = np.bincount(nbrs.bond_i, weights=nbrs.mu,
                            minlength=nbrs.n_points)
        want = np.zeros(nbrs.n_points)
        has = counts > 0
        want[has] = 1.0 - alive[has] / counts[has]
        assert damage_index(nbrs).tobytes() == want.tobytes()
        assert 0.0 < want.max() < 1.0
