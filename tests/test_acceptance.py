"""Acceptance suite: every shipped-behavior criterion at its stated
tolerance, one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy sweeps are
session-scoped fixtures shared between criteria; the whole suite runs in
roughly ten minutes on a laptop-class machine.
"""

import csv
import dataclasses
import time

import numpy as np
import pytest

import peridyn as pd
from peridyn.forces import damage_index, update_damage
from peridyn.geometry import build_neighbor_list
from peridyn.integrator import tableau, upd_run
from peridyn.mts import OperatorHistory, build_interpolant, matrix_A, mts_run

PLATE_DTS = [1.0e-5, 0.5e-5, 0.25e-5, 0.125e-5]
BLOCK_DTS = [1.0e-5, 0.5e-5, 0.25e-5]
K_LIST = [1, 2, 4, 8]


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def crs_by_key(rows, scope="all"):
    out = {}
    for row in rows:
        if row.scope == scope and row.cr is not None:
            out.setdefault(row.K, []).append(row.cr)
    return out


def errors_by_dt(rows, scope="all"):
    out = {}
    for row in rows:
        if row.scope == scope:
            out.setdefault(row.dt, {})[row.K] = row.error
    return out


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("refcache"))


@pytest.fixture(scope="session")
def plate_sweeps(cache_dir):
    sweeps = {}
    for order in (3, 4):
        cfg = pd.apply_overrides(pd.preset_config("plate2d"), order=order)
        sweeps[order] = pd.converge(cfg, PLATE_DTS, K_LIST,
                                    cache_dir=cache_dir)
    return sweeps


@pytest.fixture(scope="session")
def block_sweeps(cache_dir):
    sweeps = {}
    for order in (3, 4):
        cfg = pd.apply_overrides(pd.preset_config("block3d"), order=order)
        sweeps[order] = pd.converge(cfg, BLOCK_DTS, [1, 8],
                                    cache_dir=cache_dir)
    return sweeps


@pytest.fixture(scope="session")
def crack_runs():
    """UPD and MTS(K=2) crack runs plus the fine-step UPD baseline, with
    each run's final state and bond flags."""
    cfg = pd.preset_config("crack2d")
    scenario = pd.Scenario(cfg)
    dt, n_steps = cfg.time.dt, cfg.time.n_steps
    raw_dx = cfg.geometry.dx

    op_u = scenario.fresh_operator()
    pre_broken = (op_u.nbrs.mu == 0).copy()
    pos = scenario.cloud.positions
    midpoints = 0.5 * (pos[op_u.nbrs.bond_i] + pos[op_u.nbrs.neighbors])
    extents = []

    def track(step, t, y):
        if step % 50 == 0:
            new = (op_u.nbrs.mu == 0) & ~pre_broken
            if new.any():
                xs = midpoints[new, 0]
                extents.append((step, xs.min(), xs.max()))
            else:
                extents.append((step, np.nan, np.nan))

    t0 = time.perf_counter()
    upd_traj = upd_run(op_u, scenario.initial_state(), dt, n_steps,
                       tableau(cfg.mts.order), s0=scenario.s0, on_step=track)
    upd_seconds = time.perf_counter() - t0
    phi_upd = damage_index(op_u.nbrs)

    op_m = scenario.fresh_operator()
    t0 = time.perf_counter()
    mts_traj, _ = mts_run(op_m, scenario.initial_state(),
                          scenario.mts_config(K=2), n_steps, s0=scenario.s0)
    mts_seconds = time.perf_counter() - t0
    phi_mts = damage_index(op_m.nbrs)

    op_f = scenario.fresh_operator()
    t0 = time.perf_counter()
    fine_traj = upd_run(op_f, scenario.initial_state(), dt / 2, n_steps * 2,
                        tableau(cfg.mts.order), s0=scenario.s0)
    upd_fine_seconds = time.perf_counter() - t0

    return dict(cfg=cfg, scenario=scenario, dx=raw_dx, extents=extents,
                phi_upd=phi_upd, phi_mts=phi_mts, nbrs_upd=op_u.nbrs,
                midpoints=midpoints, pre_broken=pre_broken,
                mts_seconds=mts_seconds, upd_fine_seconds=upd_fine_seconds,
                upd_seconds=upd_seconds,
                finals={"upd": upd_traj.final, "mts": mts_traj.final,
                        "upd_fine": fine_traj.final},
                mu={"upd": op_u.nbrs.mu, "mts": op_m.nbrs.mu,
                    "upd_fine": op_f.nbrs.mu})


def test_criterion_1_mts3_temporal_order(plate_sweeps):
    crs = crs_by_key(plate_sweeps[3])
    worst = max(abs(cr - 3.0) for K in K_LIST for cr in crs[K])
    report(1, all(abs(cr - 3.0) <= 0.2 for K in K_LIST for cr in crs[K]),
           f"plate2d MTS3 CR within 3.0+-0.2 for K in {K_LIST} "
           f"(max deviation {worst:.3f})")


def test_criterion_2_mts4_temporal_order(plate_sweeps):
    crs = crs_by_key(plate_sweeps[4])
    worst = max(abs(cr - 4.0) for K in K_LIST for cr in crs[K])
    report(2, all(abs(cr - 4.0) <= 0.25 for K in K_LIST for cr in crs[K]),
           f"plate2d MTS4 CR within 4.0+-0.25 for K in {K_LIST} "
           f"(max deviation {worst:.3f})")


def test_criterion_3_k_monotonicity(plate_sweeps):
    # The MTS4 errors saturate at the coarse-correction floor for K >= 4
    # and jitter there by ~6e-4 relative; MTS3 is checked strictly and
    # MTS4 within a 0.2% saturation slack.
    ok = True
    detail = []
    for order, slack in ((3, 0.0), (4, 2e-3)):
        table = errors_by_dt(plate_sweeps[order])
        for dt, by_k in table.items():
            seq = [by_k[K] for K in K_LIST]
            if not all(b <= a * (1.0 + slack)
                       for a, b in zip(seq, seq[1:])):
                ok = False
                detail.append(f"MTS{order} dt={dt:g}: {seq}")
    report(3, ok, "L2 error non-increasing in K at every dt "
                  "(MTS3 strict, MTS4 within saturation slack)"
           + ("; violations: " + "; ".join(detail) if detail else ""))


def test_criterion_4_block3d_orders(block_sweeps):
    ok = True
    worst = 0.0
    for order in (3, 4):
        crs = crs_by_key(block_sweeps[order])
        for K in (1, 8):
            for cr in crs[K]:
                worst = max(worst, abs(cr - order))
                ok &= abs(cr - order) <= 0.25
    report(4, ok, f"block3d CR within r+-0.25 for r in (3,4), K in (1,8) "
                  f"(max deviation {worst:.3f})")


def test_criterion_5_reduction_identity():
    cfg = pd.preset_config("plate2d")
    cfg = dataclasses.replace(
        cfg, mts=dataclasses.replace(cfg.mts, K=1, fine_boxes=[]),
        time=dataclasses.replace(cfg.time, n_steps=50))
    scenario = pd.Scenario(cfg)
    tab = tableau(cfg.mts.order)
    mts_traj, _ = mts_run(scenario.fresh_operator(), scenario.initial_state(),
                          scenario.mts_config(K=1), 50, record_every=1)
    upd_traj = upd_run(scenario.fresh_operator(), scenario.initial_state(),
                       cfg.time.dt, 50, tab, record_every=1)
    same = len(mts_traj.states) == len(upd_traj.states)
    if same:
        for sm, su in zip(mts_traj.states, upd_traj.states):
            same &= sm.t == su.t
            same &= np.array_equal(sm.u, su.u) and np.array_equal(sm.v, su.v)
    report(5, same, "mts_run(K=1, no fine region) bit-identical to upd_run "
                    "over 50 plate2d steps")


def test_criterion_5_reduction_identity_with_fracture():
    # MTS checks damage through its partition's split, all bonds coarse and
    # none fine; UPD through the unsplit table.  Both must break the same
    # bonds at the same steps.
    n = 200
    cfg = pd.preset_config("crack2d")
    cfg = dataclasses.replace(
        cfg, mts=dataclasses.replace(cfg.mts, K=1, fine_boxes=[]),
        time=dataclasses.replace(cfg.time, n_steps=n))
    scenario = pd.Scenario(cfg)
    mts_op, upd_op = scenario.fresh_operator(), scenario.fresh_operator()
    mts_traj, _ = mts_run(mts_op, scenario.initial_state(),
                          scenario.mts_config(K=1), n, s0=scenario.s0)
    upd_traj = upd_run(upd_op, scenario.initial_state(), cfg.time.dt, n,
                       tableau(cfg.mts.order), s0=scenario.s0)
    mts_end, upd_end = mts_traj.final, upd_traj.final
    same = mts_end.t == upd_end.t and np.array_equal(mts_end.u, upd_end.u) \
        and np.array_equal(mts_end.v, upd_end.v) \
        and np.array_equal(mts_op.nbrs.mu, upd_op.nbrs.mu)
    broken = int(np.count_nonzero(scenario.nbrs.mu & ~upd_op.nbrs.mu)) // 2
    report(5, same and broken > 0,
           f"mts_run(K=1, no fine region) bit-identical to upd_run over {n} "
           f"crack2d steps with fracture ({broken} bonds broke beyond the "
           "pre-crack)")


def test_criterion_6_correction_matrices():
    ok = True
    worst = 0.0
    for dt in (1e-8, 1e-5, 0.35, 1.0):
        c4 = matrix_A(4, dt)
        worst = max(worst, np.abs(c4.A @ c4.gamma - np.eye(3)).max())
        c3 = matrix_A(3, dt)
        expected = np.array([[1.2, 0.4], [12 / (5 * dt), -6 / (5 * dt)]])
        scale = np.abs(expected).max()
        worst = max(worst, np.abs(c3.gamma - expected).max() / scale)
        ok &= np.abs(c4.A @ c4.gamma - np.eye(3)).max() <= 1e-13
        ok &= np.allclose(c3.gamma, expected, rtol=1e-13, atol=0.0)
    report(6, ok, f"A4*(A4)^-1 = I and (A3)^-1 analytic value to 1e-13 "
                  f"(worst residual {worst:.2e})")


def _poly_state(coeffs):
    def u(t):
        return np.array([[np.polyval(c, t) for c in coeffs]])

    def du(t):
        return np.array([[np.polyval(np.polyder(c), t) for c in coeffs]])

    return u, du


def _history(du, t_n, dt):
    hist = OperatorHistory(dt)
    for k in reversed(range(3)):
        hist.push(t_n - k * dt, du(t_n - k * dt))
    return hist


def test_criterion_7_interpolant_reproduction():
    rng = np.random.default_rng(99)
    ok = True
    worst_rel = 0.0
    for r in (3, 4):
        u, du = _poly_state([rng.uniform(-2, 2, size=r).tolist()
                             for _ in range(2)])
        t_n, dt = 0.25, 0.08
        interp = build_interpolant([0], u(t_n), u(t_n + dt),
                                   _history(du, t_n, dt), r, dt)
        for k in range(9):
            t = t_n + k * dt / 8
            rel = np.abs(interp.evaluate(t) - u(t)).max() \
                / max(np.abs(u(t)).max(), 1e-30)
            worst_rel = max(worst_rel, rel)
            ok &= rel <= 1e-12
    slopes_all = []
    for r in (3, 4):
        u = lambda t: np.array([[np.sin(1.3 * t), np.cos(0.9 * t)]])
        du = lambda t: np.array([[1.3 * np.cos(1.3 * t),
                                  -0.9 * np.sin(0.9 * t)]])
        errs = []
        for dt in [0.2 / 2 ** k for k in range(4)]:
            interp = build_interpolant([0], u(0.5), u(0.5 + dt),
                                       _history(du, 0.5, dt), r, dt)
            errs.append(max(np.abs(interp.evaluate(0.5 + k * dt / 8)
                                   - u(0.5 + k * dt / 8)).max()
                            for k in range(9)))
        slopes = np.log2(np.array(errs[:-1]) / errs[1:])
        slopes_all.append(slopes.min())
        ok &= bool(np.all(slopes >= r + 0.8))
    report(7, ok, f"degree r-1 trajectories reproduced to 1e-12 "
                  f"(worst {worst_rel:.1e}); smooth interpolant orders "
                  f">= r+0.8 (min slopes {slopes_all[0]:.2f}, "
                  f"{slopes_all[1]:.2f})")


def _dilate(mask):
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def test_criterion_8_crack_qualitative(crack_runs):
    cfg = crack_runs["cfg"]
    dx = crack_runs["dx"]
    phi_u = crack_runs["phi_upd"].reshape(100, 100)
    phi_m = crack_runs["phi_mts"].reshape(100, 100)

    # (a) symmetric under y-reflection to within one point layer
    sym_ok = True
    for phi in (phi_u, phi_m):
        mask = phi > 0.1
        mirror = mask[:, ::-1]
        sym_ok &= bool(np.all(~mask | _dilate(mirror)))
        sym_ok &= bool(np.all(~mirror | _dilate(mask)))

    # (b) broken zone emanates from the pre-crack tips: the newly broken
    # band grows monotonically outward from the pre-crack extent and stays
    # in the midline band
    extents = [e for e in crack_runs["extents"] if not np.isnan(e[1])]
    grow_ok = len(extents) >= 3
    spans = [(lo, hi) for _, lo, hi in extents]
    grow_ok &= all(b[0] <= a[0] + 1e-15 and b[1] >= a[1] - 1e-15
                   for a, b in zip(spans, spans[1:]))
    precrack = cfg.fracture.precrack
    grow_ok &= spans[-1][0] < precrack[0][0] - 3 * dx
    grow_ok &= spans[-1][1] > precrack[1][0] + 3 * dx
    nbrs = crack_runs["nbrs_upd"]
    broken_mid = crack_runs["midpoints"][nbrs.mu == 0]
    band_ok = bool(np.all(np.abs(broken_mid[:, 1] - 0.025) <= 3 * dx))

    # (c) MTS(K=2) and UPD damage fields differ at < 1% of points (a point
    # "differs" when its damage index moves by at least half a bond quantum)
    differ = np.abs(phi_m - phi_u) > 0.017
    frac = differ.mean()

    ok = sym_ok and grow_ok and band_ok and frac < 0.01
    report(8, ok, f"crack symmetric={sym_ok}, tip-driven growth={grow_ok}, "
                  f"midline band={band_ok}, MTS-vs-UPD differing points "
                  f"{100 * frac:.2f}% < 1%")


def test_criterion_9_speedup(crack_runs):
    ratio = crack_runs["mts_seconds"] / crack_runs["upd_fine_seconds"]
    fine_frac = len(crack_runs["scenario"].labels.omega_hat_f) \
        / crack_runs["scenario"].cloud.n_points
    report(9, fine_frac <= 0.25 and ratio < 1.0,
           f"MTS(K=2) {crack_runs['mts_seconds']:.1f}s vs UPD(dt/2) "
           f"{crack_runs['upd_fine_seconds']:.1f}s: ratio {ratio:.2f} < 1 "
           f"(fine region {100 * fine_frac:.0f}% of points)")


def test_criterion_12_mts_fine_step_accuracy(crack_runs):
    # The paper's claim: MTS(K) at the coarse dt reproduces UPD at dt/K.
    # Against UPD(dt/2), desk crack2d measured L2(u_y) = 1.2e-8 for MTS(K=2)
    # and 2.8e-5 for UPD(dt), about 2400x apart, with 0 and 39 broken bonds
    # differing.  A scheme with only coarse-step accuracy would sit near a
    # factor of 1.  A factor of 100 is far from both: it catches that
    # failure and still allows a 24x loss in the coupling's accuracy.
    factor = 100.0
    axis = crack_runs["scenario"].error_axis
    ref = crack_runs["finals"]["upd_fine"].u[:, axis]
    broken_ref = crack_runs["mu"]["upd_fine"] == 0.0
    err, bonds = {}, {}
    for name in ("mts", "upd"):
        err[name] = pd.l2_error(crack_runs["finals"][name].u[:, axis], ref)
        # undirected bonds whose broken state differs from the reference's
        bonds[name] = int(np.count_nonzero(
            (crack_runs["mu"][name] == 0.0) != broken_ref)) // 2
    ok = err["mts"] * factor <= err["upd"] and bonds["mts"] <= bonds["upd"]
    report(12, ok, f"against UPD(dt/2): L2(u_y) MTS(K=2) {err['mts']:.2e} "
                   f"vs UPD(dt) {err['upd']:.2e} (at least {factor:.0f}x "
                   f"closer); differing broken bonds {bonds['mts']} vs "
                   f"{bonds['upd']}")


def test_criterion_10_scoped_error_table(tmp_path):
    cfg = pd.preset_config("crack2d")
    cfg = dataclasses.replace(
        cfg, time=dataclasses.replace(cfg.time, n_steps=60),
        output=dataclasses.replace(cfg.output, cadence=0))
    dt = cfg.time.dt
    out_csv = str(tmp_path / "scoped.csv")
    rows = pd.converge(cfg, [2 * dt, dt], [2, 1], reference_dt=dt,
                       out_csv=out_csv)
    scopes = {r.scope for r in rows}
    shape_ok = scopes == {"all", "coarse", "fine"}
    zero_rows = [r for r in rows if r.K == 1 and r.dt == dt]
    zero_ok = len(zero_rows) == 3 and all(r.error == 0.0 for r in zero_rows)
    with open(out_csv, newline="") as fp:
        parsed = list(csv.DictReader(fp))
    report(10, shape_ok and zero_ok and len(parsed) == len(rows),
           f"converge emits (e, e_c, e_f) rows ({len(rows)} rows); "
           f"K=1 self-comparison row identically zero={zero_ok}")


def test_criterion_11_property_suites():
    rng = np.random.default_rng(1234)
    ok = True

    # neighbor symmetry on a random cloud
    from peridyn.geometry import PointCloud
    pos = rng.uniform(0, 2, size=(150, 2))
    cloud = PointCloud(dim=2, positions=pos, spacing=0.01,
                       volume_per_point=1.0)
    nbrs = build_neighbor_list(cloud, 0.4)
    pairs = set(zip(nbrs.bond_i.tolist(), nbrs.neighbors.tolist()))
    ok &= all((j, i) in pairs for i, j in pairs)

    # force antisymmetry: total internal force vanishes
    from tests.test_forces import unit_alpha_material
    from peridyn.forces import PDOperator
    grid = pd.build_grid(((0, 0), (1, 1)), 0.1, thickness=0.1)
    gn = build_neighbor_list(grid, 0.3)
    op = PDOperator(grid, gn, unit_alpha_material(0.3, thickness=0.1))
    u = 0.01 * rng.normal(size=(grid.n_points, 2))
    accel = op.rates(np.hstack([u, np.zeros_like(u)]), 0.0)[:, 2:]
    ok &= np.abs(accel.sum(axis=0)).max() <= 1e-12 * np.abs(accel).sum()

    # mu monotonicity across a straining run, on the operator's own flags
    total_mu = [op.nbrs.mu.sum()]
    for scale in (0.02, 0.05, 0.08, 0.05):
        stretch_u = grid.positions * scale
        update_damage(op.nbrs, stretch_u, s0=0.04)
        total_mu.append(op.nbrs.mu.sum())
    ok &= all(b <= a for a, b in zip(total_mu, total_mu[1:]))

    # tableau identities
    for order in (3, 4):
        tab = tableau(order)
        ok &= np.max(np.abs(tab.c - tab.a.sum(axis=1))) <= 1e-15
        ok &= abs(tab.b.sum() - 1.0) <= 1e-15

    # norm axioms on random fields
    for _ in range(20):
        a, b = rng.normal(size=(2, 40))
        ok &= pd.l2_error(a, b) >= 0.0
        ok &= pd.l2_error(a, a) == 0.0
        c = rng.normal(size=40)
        ok &= pd.l2_error(a, c) <= pd.l2_error(a, b) + pd.l2_error(b, c) + 1e-12

    report(11, ok, "randomized property battery (neighbor symmetry, force "
                   "antisymmetry, mu monotonicity, tableau identities, "
                   "norm axioms) with fixed seeds")
