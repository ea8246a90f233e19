"""The benchmark's workloads: their inputs, one timed round, output checks,
final-state hashes and the closed-form call counts of a traced round.

Each workload is a fixed preset of the library, so its inputs do not depend
on the benchmark seed.  The calls go through module attributes (``mts.mts_run``,
``pio.write_vtk``, ...) so that a Tracer's patches see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass

import numpy as np

from peridyn import app, forces, integrator, mts
from peridyn import io as pio

NAMES = ("crack-mts", "crack-upd", "plate-converge")

# Failures of one setup or round that count as a failed operation.
FAILURES = (forces.SimulationError, ValueError)

# The crack runs stop at coarse step 220 of the preset's 300 (t = 3.85 us):
# bonds start to break near step 185 and by step 220 the broken band has
# passed both pre-crack tips, while 22 runs of each workload still fit the
# benchmark's time budget.  The preset's snapshot cadence of 50 does not
# divide 220; 44 keeps six snapshots.  SHORT_* are the lengths of --short.
CRACK_STEPS = 220
CRACK_CADENCE = 44
SHORT_CRACK_STEPS = 8
PLATE_DTS = (1.0e-5, 0.5e-5)
SHORT_PLATE_STEPS = 4
K_LIST = (1, 2, 4, 8)

# Criteria 2 and 3 of the acceptance suite: order 4 +- 0.25, and the MTS4
# error may exceed the next-smaller K's by this saturation slack.
ORDER_TOL = 0.25
K_SLACK = 2e-3
MOMENTUM_RTOL = 1e-12
# Relative antisymmetry of u_y about the crack midline.
MIRROR_RTOL = 1e-12

COUNT_NAMES = (
    "forces.rates.full_calls", "forces.rates.coarse_calls",
    "forces.rates.fine_calls", "forces.update_damage.full_calls",
    "forces.update_damage.fine_calls", "forces.update_damage.coarse_calls",
    "integrator.rk_step_calls", "integrator.combine_calls",
    "mts.interpolant_evaluate_calls",
)


@dataclass
class Workload:
    name: str
    cfg: app.SimulationConfig
    setup_reps: int
    full_length: bool
    # calibration burst: points, bonds, index reach and repeats of a bond
    # sum the size of the workload's own (see calibration.py)
    burst: tuple
    dts: tuple = ()


@dataclass
class Outcome:
    """What a round leaves for the checks: the final state (crack) or the
    convergence rows plus the cached reference (plate)."""

    op: forces.PDOperator
    final: forces.FieldState | None = None
    rows: list | None = None
    reference: forces.FieldState | None = None


def make(name: str, short: bool = False) -> Workload:
    if name == "plate-converge":
        cfg = app.preset_config("plate2d")
        if short:
            cfg = app.validate_config(dataclasses.replace(
                cfg, time=dataclasses.replace(cfg.time,
                                              n_steps=SHORT_PLATE_STEPS)))
        return Workload(name, cfg, setup_reps=15, full_length=not short,
                        burst=(800, 20_276, 63, 15), dts=PLATE_DTS)
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    cfg = app.preset_config("crack2d")
    n_steps = SHORT_CRACK_STEPS if short else CRACK_STEPS
    cadence = SHORT_CRACK_STEPS // 2 if short else CRACK_CADENCE
    dt, scheme = cfg.time.dt, "mts"
    if name == "crack-upd":
        # The equal-resolution baseline: the fine step everywhere, to the
        # same final time, with snapshots at the same instants.
        dt, n_steps, cadence, scheme = dt / 2, 2 * n_steps, 2 * cadence, "upd"
    cfg = app.validate_config(dataclasses.replace(
        cfg, time=app.TimeSpec(dt=dt, n_steps=n_steps),
        mts=dataclasses.replace(cfg.mts, scheme=scheme),
        output=dataclasses.replace(cfg.output, cadence=cadence)))
    return Workload(name, cfg, setup_reps=5, full_length=not short,
                    burst=(10_000, 272_836, 303, 1))


def setup(w: Workload):
    """Assemble the Scenario and its operator: the work setup_s times."""
    scenario = app.Scenario(w.cfg)
    return scenario, scenario.fresh_operator()


def run_round(w: Workload, scenario, op, out_dir: str) -> Outcome:
    if w.name == "plate-converge":
        rows = app.converge(w.cfg, w.dts, K_LIST,
                            out_csv=os.path.join(out_dir, "convergence.csv"),
                            cache_dir=_cache_dir(out_dir))
        return Outcome(op=op, rows=rows)
    return Outcome(op=op, final=_run(scenario, op, out_dir))


def _cache_dir(out_dir):
    return os.path.join(out_dir, "refcache")


def _run(scenario, op, out_dir):
    """What `pd run` does once the scenario is assembled (app.run)."""
    cfg = scenario.cfg
    n_steps, cadence = cfg.time.n_steps, cfg.output.cadence

    def snapshot(step, state):
        pio.write_vtk(scenario.cloud, state, forces.damage_index(op.nbrs),
                      os.path.join(out_dir, f"snapshot_{step:06d}.vtk"))

    def on_step(step, t, y):
        if step == n_steps or step % cadence == 0:
            snapshot(step, forces.FieldState.from_packed(y, t))

    state0 = scenario.initial_state()
    snapshot(0, state0)
    if cfg.mts.scheme == "upd":
        timing = mts.TimingReport()
        with timing.phase("upd"):
            traj = integrator.upd_run(op, state0, cfg.time.dt, n_steps,
                                      integrator.tableau(cfg.mts.order),
                                      s0=scenario.s0, record_every=cadence,
                                      on_step=on_step)
    else:
        traj, timing = mts.mts_run(op, state0, scenario.mts_config(),
                                   n_steps, s0=scenario.s0,
                                   record_every=cadence, on_step=on_step)
    pio.write_timing(timing, os.path.join(out_dir, "timing.txt"))
    return traj.final


def collect(w: Workload, scenario, out: Outcome, out_dir: str):
    """Untimed after a round: read back the UPD reference that the plate
    sweep cached under out_dir, for the checks and the hashes."""
    if w.name != "plate-converge":
        return
    dt_ref = min(w.dts) / 16.0
    key = pio.reference_cache_key(scenario.canonical_text, w.cfg.mts.order,
                                  dt_ref)
    out.reference = pio.load_reference(
        pio.reference_cache_path(_cache_dir(out_dir), key))
    if out.reference is None:
        raise FileNotFoundError(f"no cached reference for dt {dt_ref!r}")


# ---------------------------------------------------------------------------
# checks: properties the method must have, not stored outputs

def check(w: Workload, scenario, out: Outcome) -> list:
    """Problems found in a round's outputs; empty when all checks hold."""
    if w.name == "plate-converge":
        return _check_plate(w, scenario, out)
    return _check_crack(w, scenario, out)


def _dilate(mask):
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def _check_crack(w, scenario, out):
    problems = []
    final, nbrs = out.final, out.op.nbrs
    cfg = scenario.cfg
    dx = cfg.geometry.dx
    shape = tuple(np.rint((np.subtract(cfg.geometry.box_max,
                                       cfg.geometry.box_min)) / dx).astype(int))

    for load in scenario.loadings:
        if load.kind != "velocity_constraint":
            continue
        expect = load.value * final.t
        if not (np.allclose(final.u[load.indices], expect, rtol=1e-12, atol=0)
                and np.all(final.v[load.indices] == load.value)):
            problems.append(f"constraint layer {load.value.tolist()} does "
                            f"not end at u = v*T")

    # mirror about the midline y = 0.025: the lattice row iy maps to ny-1-iy
    uy = final.u[:, 1].reshape(shape)
    asym = np.abs(uy + uy[:, ::-1]).max() / np.abs(uy).max()
    if asym > MIRROR_RTOL:
        problems.append(f"u_y not antisymmetric about y=0.025 "
                        f"(relative {asym:.2e})")
    phi = forces.damage_index(nbrs).reshape(shape)
    mask, mirror = phi > 0.1, (phi > 0.1)[:, ::-1]
    if not (np.all(~mask | _dilate(mirror)) and np.all(~mirror | _dilate(mask))):
        problems.append("damage not mirror-symmetric within one layer")

    pre = scenario.nbrs.mu == 0.0
    if np.any(nbrs.mu[pre] != 0.0):
        problems.append("a pre-crack bond healed")
    pos = scenario.cloud.positions
    mid = 0.5 * (pos[nbrs.bond_i] + pos[nbrs.neighbors])
    midline = 0.5 * (cfg.geometry.box_min[1] + cfg.geometry.box_max[1])
    broken = nbrs.mu == 0.0
    if np.any(np.abs(mid[broken, 1] - midline) > 3 * dx):
        problems.append("a broken bond lies farther than 3 dx from the midline")
    new = broken & ~pre
    if w.full_length:
        (tip_lo, _), (tip_hi, _) = cfg.fracture.precrack
        if not new.any():
            problems.append("no bond broke beyond the pre-crack")
        elif not (mid[new, 0].min() < tip_lo - dx
                  and mid[new, 0].max() > tip_hi + dx):
            problems.append(
                f"broken zone x in [{mid[new, 0].min():.5f}, "
                f"{mid[new, 0].max():.5f}] does not pass both tips by dx")
    return problems


def _check_plate(w, scenario, out):
    problems = []
    if w.full_length:
        for K in K_LIST:
            crs = [r.cr for r in out.rows
                   if r.scope == "all" and r.K == K and r.cr is not None]
            if not crs or any(abs(cr - 4.0) > ORDER_TOL for cr in crs):
                problems.append(f"K={K}: observed orders {crs} not 4+-0.25")
        for dt in w.dts:
            errs = [next(r.error for r in out.rows if r.scope == "all"
                         and r.dt == dt and r.K == K) for K in K_LIST]
            if any(b > a * (1.0 + K_SLACK) for a, b in zip(errs, errs[1:])):
                problems.append(f"dt={dt:g}: error grows with K: {errs}")

    # total momentum: internal forces cancel pairwise, so rho V sum(v) and
    # rho V sum(u) follow the body force exactly for a polynomial in t
    ref, op = out.reference, out.op
    rho, vol, T = op.material.rho, op.cloud.volume_per_point, ref.t
    load = vol * op.body.sum(axis=0)
    for name, total, expect in (
            ("v", rho * vol * ref.v.sum(axis=0), T * load),
            ("u", rho * vol * ref.u.sum(axis=0), 0.5 * T * T * load)):
        rel = np.abs(total - expect).max() / np.abs(expect).max()
        if rel > MOMENTUM_RTOL:
            problems.append(f"reference momentum balance on {name} off by "
                            f"{rel:.2e} relative")
    return problems


# ---------------------------------------------------------------------------
# hashes and closed-form counts

def _sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8")
                          .tobytes()).hexdigest()


def hashes(w: Workload, out: Outcome) -> dict:
    """SHA-256 of the final u, v and mu; for the convergence sweep, of the
    cached reference and of the error table, which every sweep run feeds."""
    if w.name == "plate-converge":
        table = [(r.dt, r.K, r.error, np.nan if r.cr is None else r.cr)
                 for r in out.rows]
        return {"u": _sha(out.reference.u), "v": _sha(out.reference.v),
                "mu": _sha(out.op.nbrs.mu), "errors": _sha(table)}
    return {"u": _sha(out.final.u), "v": _sha(out.final.v),
            "mu": _sha(out.op.nbrs.mu)}


def upd_counts(n: int, r: int, fracture: bool) -> dict:
    """Calls made by upd_run over n steps of an r-stage method."""
    return {"forces.rates.full_calls": n * r,
            "integrator.rk_step_calls": n,
            "integrator.combine_calls": n * r,
            "forces.update_damage.full_calls": n * fracture}


def mts_counts(n: int, r: int, K: int, fracture: bool) -> dict:
    """Calls made by mts_run over n coarse steps with a fine region whose
    boundary layers are both non-empty.  The first two steps are the
    whole-domain startup at dt/K; every step pushes one full-view rate."""
    s = min(n, 2)
    m = n - s
    return {"forces.rates.full_calls": 1 + s * (K * r + 1) + m,
            "forces.rates.coarse_calls": m * (r - 1),
            "forces.rates.fine_calls": m * (K * r - 1),
            "integrator.rk_step_calls": s * K,
            "integrator.combine_calls": s * K * r + m * (r + K * r),
            "forces.update_damage.full_calls": s * K * fracture,
            "forces.update_damage.fine_calls": m * K * fracture,
            "forces.update_damage.coarse_calls": m * fracture,
            "mts.interpolant_evaluate_calls": m * (K * r - 1 + K * fracture)}


def expected_counts(w: Workload) -> dict:
    """Closed-form call counts of one round of the workload."""
    cfg = w.cfg
    r, fracture = cfg.mts.order, cfg.fracture.enabled
    parts = []
    if w.name == "plate-converge":
        final_time = cfg.time.dt * cfg.time.n_steps
        parts.append(upd_counts(round(final_time / (min(w.dts) / 16)), r,
                                fracture))
        for dt in w.dts:
            n = round(final_time / dt)
            parts += [upd_counts(n, r, fracture) if K == 1
                      else mts_counts(n, r, K, fracture) for K in K_LIST]
    elif cfg.mts.scheme == "upd":
        parts.append(upd_counts(cfg.time.n_steps, r, fracture))
    else:
        parts.append(mts_counts(cfg.time.n_steps, r, cfg.mts.K, fracture))
    return {name: sum(p.get(name, 0) for p in parts) for name in COUNT_NAMES}
