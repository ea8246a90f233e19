import dataclasses
import re
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peridyn import forces
from peridyn.app import Scenario, preset_config
from peridyn.forces import (
    FieldState, InstabilityError, Loading, Material, PDOperator,
    SimulationError,
    bond_factor, bond_stretch, break_precrack_bonds,
    calibrate_alpha, damage_index, pairwise_force_linear,
    pairwise_force_nonlinear, update_damage,
)
from peridyn.geometry import GeometryError, PointCloud, build_grid, \
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
    """Stretch of every bond of the list, broken ones included."""
    eta = u[nbrs.neighbors] - u[nbrs.bond_i]
    return bond_stretch(np.linalg.norm(nbrs.xi + eta, axis=1), nbrs.xi_norm)


def bond_forces(kernel, xi, eta, coef):
    """(bonds, dim) pairwise forces of a force kernel with the per-bond
    factor coef = alpha * mu, fed with the component arrays of (bonds, dim)
    xi and eta: the linear law takes coef in its bond factor q."""
    xi_norm = np.linalg.norm(xi, axis=1)
    if kernel is pairwise_force_linear:
        scale, direction = kernel(bond_factor(xi.T, xi_norm, coef),
                                  eta.T.copy())
    else:
        scale, direction = kernel(xi.T, eta.T, xi_norm, coef)
    return np.stack([scale * d for d in direction], axis=1)


def force(kernel, xi, eta, alpha):
    """Force on one intact bond through a force kernel."""
    xi = np.array([xi], dtype=float)
    eta = np.array([eta], dtype=float)
    return bond_forces(kernel, xi, eta, alpha)[0]


class TestBondStretch:
    def test_collinear_extension(self):
        assert stretch((1, 0), (0.01, 0)) == pytest.approx(0.01)

    def test_undeformed(self):
        assert stretch((1, 0), (0, 0)) == 0.0

    def test_collinear_compression(self):
        assert stretch((1, 0), (-0.5, 0)) == pytest.approx(-0.5)


class TestPairwiseForces:
    def test_linear_annihilates_perpendicular(self):
        np.testing.assert_allclose(
            force(pairwise_force_linear, (1, 0), (0, 1), 1.0), [0, 0])

    def test_linear_unit_bond(self):
        np.testing.assert_allclose(
            force(pairwise_force_linear, (1, 0), (0.25, 0), 1.0), [0.25, 0])

    def test_linear_hand_value(self):
        # xi.eta = 7, |xi|^3 = 125: p = 2 * 7 * (3, 4)/125
        np.testing.assert_allclose(
            force(pairwise_force_linear, (3, 4), (1, 1), 2.0), [0.336, 0.448])

    def test_per_bond_coefficient(self):
        # coef = alpha * mu per bond: a broken bond (mu = 0) carries no force
        xi = np.array([[1.0, 0], [0, 2.0]])
        eta = np.array([[0.25, 0], [0, 0.5]])
        for kernel in (pairwise_force_linear, pairwise_force_nonlinear):
            p = bond_forces(kernel, xi, eta, np.array([2.0, 0.0]))
            np.testing.assert_allclose(p, [[0.5, 0], [0, 0]])

    def test_nonlinear_zero_stretch(self):
        np.testing.assert_allclose(
            force(pairwise_force_nonlinear, (1, 0), (0, 0), 1.0), [0, 0])

    def test_nonlinear_collinear(self):
        np.testing.assert_allclose(
            force(pairwise_force_nonlinear, (1, 0), (0.01, 0), 1.0), [0.01, 0])

    def test_nonlinear_matches_linear_to_first_order(self):
        rng = np.random.default_rng(7)

        def gap(xi, eta):
            return np.linalg.norm(force(pairwise_force_nonlinear, xi, eta, 1.0)
                                  - force(pairwise_force_linear, xi, eta, 1.0))

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
            force(pairwise_force_nonlinear, (1.0, 0.0), (-1.0, 0.0), 1.0)


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
    dot summed in component order."""
    nbrs, dim = op.nbrs, op.cloud.dim
    u = y[:, :dim]
    bonds = [np.arange(nbrs.offsets[r], nbrs.offsets[r + 1]) for r in rows]
    bond_sel = np.concatenate(bonds)
    i_local = np.repeat(np.arange(len(rows)), [len(b) for b in bonds])
    xi, xi_norm = nbrs.xi[bond_sel], nbrs.xi_norm[bond_sel]
    eta = u[nbrs.neighbors[bond_sel]] - u[rows[i_local]]
    mu = nbrs.mu[bond_sel].astype(float)
    if op.law == "linear":
        q = np.sqrt(op.alpha / xi_norm ** 3)[:, None] * xi
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
        op, plan = loaded_plan(law, n=80)
        write_mu(op.nbrs, (5, 40_000, 77_777))
        views = self.assert_views_match(op, plan, random_state(op, 29))
        for name, view in views.items():
            assert len(view.blocks) >= 2, name

    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_3d_views_match_reference_formula(self, law):
        op, plan = loaded_plan(law, n=16, dim=3)
        write_mu(op.nbrs, (3, 5000, 44_444))
        views = self.assert_views_match(op, plan, random_state(op, 31))
        assert len(views["full"].blocks) >= 2

    def test_single_row_view(self):
        # one row: the slot sum must still add the bonds one by one
        op, _ = loaded_plan()
        y = random_state(op, 37)
        for row in (0, 60, 127):
            rows = np.array([row])
            got = op.rates(y, 0.0, op.make_view(rows))
            assert np.array_equal(got, reference_rates(op, y, rows))

    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_one_row_block_matches_wide_block(self, law, dim, n):
        # the single-row slot sum gives a row the bits it gets among many
        op, plan = loaded_plan(law, n=n, dim=dim)
        nbrs = op.nbrs
        write_mu(nbrs, (0, 17, 400, 901))
        y = random_state(op, 61)
        wide = op.rates(y, 0.5)
        assert all(len(blk.rows) > 1 for blk in op.full_view.blocks)
        broken = nbrs.bond_i[np.flatnonzero(~nbrs.mu)]
        for row in {0, int(broken[0]), int(broken[-1]),
                    int(plan.rows_f[0]), op.cloud.n_points - 1}:
            one = op.rates(y, 0.5, op.make_view(np.array([row])))
            assert one.tobytes() == wide[[row]].tobytes(), row

    def test_collapse_names_lowest_bond_past_first_block(self):
        op, _ = loaded_plan("nonlinear", n=80)
        nbrs = op.nbrs
        # the first block's rows are the first of the view's
        first_block_end = len(op.full_view.blocks[0].rows)
        y = np.zeros((op.cloud.n_points, 4))
        # Move c onto a, so a -> c and c -> a collapse; a -> c is the last
        # slot of row a and c -> a an early slot of the later row c, in the
        # same block.  Another pair collapses further on.
        collapsed = []
        for a in (first_block_end + 30, first_block_end + 900):
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
    xi, the nonlinear one alpha mu s (xi + eta) / |xi + eta|; dot products
    and squared lengths are summed in component order."""
    nbrs, dim = op.nbrs, op.cloud.dim
    out = np.empty((len(rows), 2 * dim))
    for q, i in enumerate(rows):
        bonds = np.arange(nbrs.offsets[i], nbrs.offsets[i + 1])
        xi, xi_norm = nbrs.xi[bonds], nbrs.xi_norm[bonds]
        eta = y[nbrs.neighbors[bonds], :dim] - y[i, :dim]
        mu = nbrs.mu[bonds].astype(float)
        if op.law == "linear":
            factor = np.sqrt(op.alpha / xi_norm ** 3)[:, None] * xi
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
    """rates evaluates a view through its plan: one einsum per block of
    several rows, a cumsum per one-row block, sums written in place or,
    in a union view, scattered.  Every view kind must give the per-row
    formula's bits, and no returned array may share a workspace."""

    @settings(max_examples=24, deadline=None)
    @given(law=st.sampled_from(["linear", "nonlinear"]),
           dim=st.sampled_from([2, 3]),
           slots=st.sampled_from([forces._BLOCK_SLOTS, 300, 40]),
           seed=st.integers(0, 2 ** 16), n_broken=st.integers(1, 40))
    def test_every_view_matches_row_by_row(self, law, dim, slots, seed,
                                           n_broken):
        # blocks of `slots` padded slots: 40 makes every block one row; the
        # far bondless point at x = 5 is fine
        n = 8 if dim == 2 else 6
        with mock.patch.object(forces, "_BLOCK_SLOTS", slots):
            op, plan = loaded_plan(law, n=n, dim=dim, fine_x=(0.5, 6.0),
                                   bondless=True)
            bare, _ = loaded_plan(law, n=n, dim=dim, split=False,
                                  bondless=True)
            n = op.cloud.n_points
            bondless = np.array([n - 2, n - 1])
            rng = np.random.default_rng(seed)
            one = int(rng.integers(n - 2))
            views = {
                "full": (bare, None), "union": (op, None),
                "coarse": (op, plan.coarse_view),
                "fine": (op, plan.fine_view),
                "one row": (op, op.make_view(np.array([one]))),
                "one bondless row": (op, op.make_view(bondless[1:])),
                "bondless": (op, op.make_view(bondless)),
                "scattered rows": (op, op.make_view(np.sort(
                    rng.choice(n, n // 3, replace=False)))),
            }
        assert bondless[0] in plan.rows_c and bondless[1] in plan.rows_f
        assert op.nbrs.counts()[bondless].sum() == 0
        states = random_state(op, seed), random_state(op, seed + 1)
        # first with every bond alive (no flag caches), then with breaks
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
        assert any(blk.flags is not None for blk in op.full_view.blocks)
        assert any(blk.flags is not None for blk in bare.full_view.blocks)


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
        # bond j -> i carries exactly the negated force of i -> j; a zero
        # component may keep its sign (x_i - x_j is +0.0 when equal)
        op = bare_grid_op(law, dim)
        nbrs = op.nbrs
        u = random_state(op, 59)[:, :dim]
        xi, xi_norm = nbrs.xi.T, nbrs.xi_norm
        eta = (u[nbrs.neighbors] - u[nbrs.bond_i]).T.copy()
        if law == "linear":
            scale, direction = pairwise_force_linear(
                bond_factor(xi, xi_norm, op.alpha), eta)
        else:
            scale, direction = pairwise_force_nonlinear(
                xi, eta, xi_norm, op.alpha)
        f = np.stack([scale * d for d in direction], axis=1)
        back = f[nbrs.partner]
        assert np.array_equal(back, -f)
        nonzero = f != 0.0
        assert nonzero.mean() > 0.5
        assert back[nonzero].tobytes() == (-f[nonzero]).tobytes()


class TestUnionView:
    """An MtsPlan splits its operator into coarse and fine views, and the
    full view becomes their union.  It must equal a separately built view
    over every point, bit for bit."""

    @staticmethod
    def whole(op):
        return op.make_view(np.arange(op.cloud.n_points))

    @staticmethod
    def edge_row(op, x):
        """The point nearest (x, 0[, 0]): an edge row with fewer bonds than
        an interior one, so its blocks pad it."""
        target = np.array([x] + [0.0] * (op.cloud.dim - 1))
        return int(np.argmin(np.linalg.norm(op.cloud.positions - target,
                                            axis=1)))

    @staticmethod
    def assert_steps_write_own_rows(view):
        """Each step reads its block's rows of the state and writes its
        sums at the block's rows among the view's."""
        n = len(view.offsets) - 1
        for blk, src, dest in view.steps:
            assert np.array_equal(np.arange(n)[src], blk.rows)
            assert np.array_equal(view.rows[dest], blk.rows)

    def test_partition_replaces_the_full_view(self):
        op, plan = loaded_plan()
        self.assert_steps_write_own_rows(op.full_view)
        bare = PDOperator(op.cloud, op.nbrs, op.material, law=op.law)
        assert bare._full_view is None
        view = bare.full_view
        assert bare.full_view is view
        self.assert_steps_write_own_rows(view)
        assert view.bond_sel == range(op.nbrs.n_bonds)
        y = random_state(bare, 29)
        before = bare.rates(y, 0.5)
        # a partition replaces the existing full view by the union of its
        # sides, and the old blocks are freed
        old = [weakref.ref(blk) for blk in view.blocks]
        del view
        coarse, fine, *_ = bare.partition(plan.rows_c, plan.rows_f)
        full = bare.full_view
        self.assert_steps_write_own_rows(full)
        sides = coarse.blocks + fine.blocks
        assert len(full.blocks) == len(sides)
        assert all(a is b for a, b in zip(full.blocks, sides))
        assert all(ref() is None for ref in old)
        assert bare.rates(y, 0.5).tobytes() == before.tobytes()

    @pytest.mark.parametrize("dim, n", [(2, 16), (2, 80), (3, 16)])
    def test_union_shares_the_side_blocks(self, dim, n):
        op, plan = loaded_plan(n=n, dim=dim)
        full = op.full_view
        sides = plan.coarse_view.blocks + plan.fine_view.blocks
        assert len(full.blocks) == len(sides)
        assert all(a is b for a, b in zip(full.blocks, sides))
        assert full.bond_sel == range(op.nbrs.n_bonds)
        assert len(full.bond_sel) == len(plan.coarse_view.bond_sel) \
            + len(plan.fine_view.bond_sel)
        assert np.array_equal(full.rows, np.arange(op.cloud.n_points))

    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_union_of_interleaved_sides(self, law, dim, n):
        # sides of every other point: each side's blocks hold scattered
        # rows, so the union scatters every block's sums
        op, _ = loaded_plan(law, n=n, dim=dim, split=False)
        write_mu(op.nbrs, (0, 17, 400, 901))
        y = random_state(op, 67)
        points = np.arange(op.cloud.n_points)
        views = op.partition(points[::2], points[1::2])[:2]
        full = op.full_view
        self.assert_steps_write_own_rows(full)
        assert all(not isinstance(dest, slice) for *_, dest in full.steps)
        got = op.rates(y, 0.5)
        assert got.tobytes() == op.rates(y, 0.5, self.whole(op)).tobytes()
        for view in views:
            self.assert_steps_write_own_rows(view)
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
        # One edge row per side whose force sum is -0.0: all its bonds are
        # broken (coef 0), and each neighbor moves by -/+1% of the bond so
        # the signed zero of every bond's x-force is negative.  Padded in
        # the full views, the sum there is +0.0; in a one-row view, -0.0.
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
            xi, xi_norm = nbrs.xi[bonds].T, nbrs.xi_norm[bonds]
            if law == "linear":
                scale, direction = pairwise_force_linear(
                    bond_factor(xi, xi_norm, op.alpha), eta.T.copy(),
                    np.zeros(len(bonds)))
            else:
                scale, direction = pairwise_force_nonlinear(
                    xi, eta.T, xi_norm, 0.0)
            terms = scale * direction[0]
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
        # With the fine side on the left, the union runs the coarse blocks,
        # of higher bond ids, first: the lowest bond is taken over all.
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
    """rates caches the bond flags per row block and update_damage one bond
    table per partition; both must follow every change to the flags."""

    @staticmethod
    def row_near(op, x):
        target = np.array([x] + [0.25] * (op.cloud.dim - 1))
        return int(np.argmin(np.linalg.norm(op.cloud.positions - target,
                                            axis=1)))

    @staticmethod
    def assert_views(op, plan, y):
        """rates equals the reference on every view, and exactly the blocks
        holding a broken bond carry a cached flag array, equal to the
        slots' flags."""
        broken = np.flatnonzero(op.nbrs.mu == 0.0)
        for name, view in (("full", op.full_view),
                           ("coarse", plan.coarse_view),
                           ("fine", plan.fine_view)):
            got = op.rates(y, 0.5, view)
            assert np.array_equal(got, reference_rates(op, y, view.rows)), name
            for blk in view.blocks:
                bonds = blk.bonds(op.nbrs)
                cached = blk.flags is not None
                assert cached == np.isin(bonds, broken).any(), name
                assert not cached or np.array_equal(
                    blk.flags, op.nbrs.mu[bonds].astype(float)), name

    @pytest.mark.parametrize("dim, n", [(2, 80), (3, 16)])
    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_rates_follow_breaks(self, law, dim, n):
        op, plan = loaded_plan(law, n=n, dim=dim)
        nbrs = op.nbrs
        y = random_state(op, 41)
        self.assert_views(op, plan, y)  # all blocks intact
        # one row on the coarse side and one on the fine side
        rows = [self.row_near(op, 0.25), self.row_near(op, 0.75)]
        write_mu(nbrs, [nbrs.offsets[r] + 2 for r in rows])
        self.assert_views(op, plan, y)  # their blocks flip to cached
        before = op.rates(y, 0.5)
        write_mu(nbrs, [nbrs.offsets[r] + 5 for r in rows])
        self.assert_views(op, plan, y)  # a second break in cached blocks
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
        assert any(blk.flags is not None for blk in op.full_view.blocks)
        write_mu(nbrs, mu=mu0)  # every bond alive again
        self.assert_views(op, plan, y)
        assert all(blk.flags is None for blk in op.full_view.blocks)
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
                                       partitioned=True, slots=None,
                                       monkeypatch=None):
        """update_damage against the all-bond oracle on loaded_plan(n, dim)
        with random displacements, plus one x-bond (a, c) per pair at
        exactly s == s0 (binary-exact: xi = 1/n and eta = 1/(2n)); in it
        the end named by ``moving`` moves.

        The plan's partition splits the damage table by its bond masks;
        with ``partitioned`` False no plan splits the operator, and only the
        unmasked check runs.  ``slots`` sets the chunk length of the
        check."""
        s0 = 0.5
        op, plan = loaded_plan(s0=s0, n=n, dim=dim, split=partitioned)
        nbrs = op.nbrs
        if slots is not None:
            sides = (plan.coarse_bond_mask, plan.fine_bond_mask) \
                if partitioned else (np.ones(nbrs.n_bonds, dtype=bool),)
            assert min(m.sum() for m in sides) // 2 > 2 * slots
            monkeypatch.setattr(forces, "_BLOCK_SLOTS", slots)
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
    def variants(check, monkeypatch, masked):
        """Run ``check`` over a partition and, for the unmasked check
        (``masked`` False), on an operator that no plan split, in one
        chunk and in chunks of 29 bonds, each on a fresh operator."""
        for partitioned in (True,) if masked else (True, False):
            for slots in (None, 29):
                with monkeypatch.context() as patch:
                    check(partitioned=partitioned, slots=slots,
                          monkeypatch=patch)

    @pytest.mark.parametrize("mask", [None, "fine", "coarse"])
    def test_half_bond_check_matches_all_bond_oracle(self, mask, monkeypatch):
        # Point (ix, iy) of the 16x8 plate is ix*8 + iy.  One exact bond in
        # the coarse half and one in the fine half; in the first the
        # higher-index end moves, in the second the lower.
        self.variants(lambda **kw: self.check_half_bond_against_oracle(
            mask, n=16, dim=2, noise=0.02,
            pairs=((2 * 8 + 3, 3 * 8 + 3, "high"),
                   (12 * 8 + 4, 13 * 8 + 4, "low")), **kw), monkeypatch,
            masked=mask is not None)

    @pytest.mark.parametrize("mask", [None, "fine", "coarse"])
    def test_half_bond_check_matches_all_bond_oracle_3d(self, mask,
                                                        monkeypatch):
        # Point (ix, iy, iz) of the 8x4x4 block is (ix*4 + iy)*4 + iz.
        self.variants(lambda **kw: self.check_half_bond_against_oracle(
            mask, n=8, dim=3, noise=0.04,
            pairs=(((1 * 4 + 1) * 4 + 2, (2 * 4 + 1) * 4 + 2, "high"),
                   ((6 * 4 + 2) * 4 + 1, (7 * 4 + 2) * 4 + 1, "low")),
            **kw), monkeypatch, masked=mask is not None)

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
        if forces._norm((x[c] + u[c]) - p_a) == target:
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
    returns the count and leaves the flags and version that a stateless
    full pass would, while most checks test only the half-bonds that were
    near breaking at the side's latest refresh."""

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
        """Check each state under each mask in turn, each check against a
        stateless full pass on a twin of the list (whose table is dropped
        before every check); returns the bonds broken."""
        nbrs = op.nbrs
        twin = dataclasses.replace(nbrs, mu=nbrs.mu.copy())
        twin.bond_sides, twin.version = nbrs.bond_sides, nbrs.version
        total = 0
        for u in states:
            for mask in masks:
                twin.damage_table = None
                want = update_damage(twin, u, s0, mask)
                assert update_damage(nbrs, u, s0, mask) == want
                assert np.array_equal(nbrs.mu, twin.mu)
                assert nbrs.version == twin.version
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
    def test_matches_a_full_pass(self, motion, dim, monkeypatch):
        # over a partition (no mask, then each side) and without one, in
        # one chunk and in chunks of 29 half-bonds: the same breaks as a
        # full pass, with some checks refreshing and some not
        for partitioned in (True, False):
            for slots in (None, 29):
                with monkeypatch.context() as patch:
                    if slots is not None:
                        patch.setattr(forces, "_BLOCK_SLOTS", slots)
                    op = self.jittered_op(dim)
                    masks = self.split(op) if partitioned else (None,)
                    assert self.replay(op, self.motion(op, motion), self.S0,
                                       masks) > 0
                    checks, refreshes = self.counts(op.nbrs)
                    assert 1 < refreshes < checks

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
        # table, no full view, no split and no flag caches; its bond data
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
            raise RuntimeError("stop")

        for on_step in (None, stop):
            try:
                run(on_step)
            except RuntimeError:
                pass
            assert op.nbrs.damage_table is None
            assert op._full_view is None and op.nbrs.bond_sides is None
            # the blocks a upd run evaluated: the union of the plan's sides
            assert all(blk.flags is None and blk.version == -1
                       for blk in plan.coarse_view.blocks
                       + plan.fine_view.blocks)
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
    """Blocks and damage tables derive the bond geometry from the
    positions, bit for bit from the neighbor list's derived xi and
    xi_norm; their gather indices stay intp and no per-slot bond ids are
    kept."""

    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 16)])
    @pytest.mark.parametrize("law", ["linear", "nonlinear"])
    def test_block_geometry_matches_the_list(self, law, dim, n):
        # the linear law holds q = sqrt(alpha / |xi|^3) xi and no length,
        # the nonlinear law xi and |xi|; a pad's xi is e0, of length 1
        op, plan = loaded_plan(law, n=n, dim=dim)
        nbrs = op.nbrs
        xi, xi_norm = nbrs.xi, nbrs.xi_norm
        for view in (plan.coarse_view, plan.fine_view, op.make_view(
                np.arange(op.cloud.n_points))):
            for blk in view.blocks:
                assert blk.nbr.dtype == np.intp
                assert not hasattr(blk, "bond")
                bond, pad = forces._slot_bonds(nbrs, blk.rows, len(blk.nbr))
                assert np.array_equal(blk.bonds(nbrs), bond)
                assert np.array_equal(blk.nbr[~pad], nbrs.neighbors[bond][~pad])
                want = np.moveaxis(xi[bond], -1, 0)
                want[:, pad] = 0.0
                want[0][pad] = 1.0
                length = xi_norm[bond]
                length[pad] = 1.0
                if law == "linear":
                    want *= np.sqrt(op.alpha / length ** 3)
                    assert blk.length is None
                else:
                    assert blk.length.tobytes() == length.tobytes()
                assert blk.vec.tobytes() == want.tobytes()

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
            for side in table.sides:
                assert set(vars(side)) == {
                    "ids", "length", "points", "u_ref", "u_ref_max",
                    "watch", "checks", "refreshes"}
                for lo in range(0, len(side.ids), 37):  # what a chunk derives
                    chunk = side.ids[lo:lo + 37]
                    i, j, length = forces._chunk_lengths(
                        nbrs, chunk, list(nbrs.positions.T.copy()))
                    assert i.dtype == j.dtype == np.intp
                    assert np.array_equal(i, nbrs.bond_i[chunk])
                    assert np.array_equal(j, nbrs.neighbors[chunk])
                    assert length.tobytes() == nbrs.xi_norm[chunk].tobytes()
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
    def test_block_temporaries_under_mmap_threshold(self):
        # glibc maps allocations of 128 KiB and more by default
        assert forces._BLOCK_SLOTS * 8 < 128 * 1024

    @staticmethod
    def assert_blocks_bounded(view, limit):
        """Each row of the view lies in exactly one block, and a block holds
        at most ``limit`` slots unless it holds a single row.  (A union
        view's blocks do not tile its rows in order.)"""
        for blk in view.blocks:
            assert blk.nbr.size <= limit or len(blk.rows) == 1
        held = np.concatenate([blk.rows for blk in view.blocks])
        assert np.array_equal(np.sort(held), view.rows)

    @pytest.mark.parametrize("dim, n", [(2, 80), (3, 16)])
    def test_views_hold_at_most_block_slots(self, dim, n):
        op, plan = loaded_plan(n=n, dim=dim)
        for view in (op.full_view, plan.coarse_view, plan.fine_view):
            assert len(view.blocks) >= 2
            self.assert_blocks_bounded(view, forces._BLOCK_SLOTS)

    def test_row_wider_than_a_block(self, monkeypatch):
        # 28-bond rows against 10-slot blocks: one row per block, same bits
        op, plan = loaded_plan()
        y = random_state(op, 43)
        write_mu(op.nbrs, (0, 17, 400, 901))
        monkeypatch.setattr(forces, "_BLOCK_SLOTS", 10)
        for rows in (op.full_view.rows, plan.fine_view.rows):
            view = op.make_view(rows)
            assert all(len(blk.rows) == 1 for blk in view.blocks)
            self.assert_blocks_bounded(view, 10)
            got = op.rates(y, 0.5, view)
            assert np.array_equal(got, reference_rates(op, y, rows))


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
