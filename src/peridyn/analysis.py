"""Error norms, observed convergence orders, and reference solutions.

Temporal convergence is measured against a fine-step UPD reference on the
same mesh, so errors are pure time-integration errors.  References are
cached on disk (.npy) keyed by a hash of the scenario and the reference step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import io as pio
from .forces import FieldState
from .geometry import SubdomainLabels
from .integrator import ButcherTableau, upd_run

_DT_RATIO_TOL = 1e-12

# Marker for a saturated observed order (zero error in the denominator).
CR_SATURATED = math.inf


@dataclass
class ConvergenceRow:
    """One row of an error/order table: scope is 'all', 'coarse' or 'fine'."""

    dt: float
    K: int
    scope: str
    error: float
    cr: float | None = None


def l2_error(field: np.ndarray, reference: np.ndarray,
             indices: np.ndarray | None = None) -> float:
    """Absolute L2 error sqrt(sum (field - ref)^2) over the given points.

    Computed as m * sqrt(sum ((field - ref)/m)^2) with m = max |field - ref|,
    so tiny differences do not underflow to zero nor huge ones overflow.
    """
    field = np.asarray(field, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if field.shape != reference.shape:
        raise ValueError(
            f"shape mismatch: field {field.shape} vs reference {reference.shape}")
    diff = field - reference
    if indices is not None:
        diff = diff[indices]
    m = float(np.max(np.abs(diff))) if diff.size else 0.0
    if m == 0.0 or not math.isfinite(m):
        return m
    return float(m * np.sqrt(np.sum((diff / m) ** 2)))


def halving_violation(dts) -> str | None:
    """None when ``dts`` has at least two positive finite entries, each
    half the one before; else the complaint.  A bool is no step."""
    dts = list(dts)
    if len(dts) < 2:
        return f"need at least two dt entries, got {len(dts)}"
    bad = [dt for dt in dts if isinstance(dt, (bool, np.bool_))
           or not (math.isfinite(dt) and dt > 0)]
    if bad:
        return f"dt entries must be positive and finite numbers, got {bad[0]}"
    for prev, cur in zip(dts, dts[1:]):
        if abs(prev / cur - 2.0) > _DT_RATIO_TOL:
            return f"dt sequence must halve: {prev} -> {cur}"
    return None


def observed_order(errors, dts) -> list:
    """CR_m = log2(e_{m-1} / e_m) for a dt sequence halving at each entry.

    A zero error in a denominator yields the CR_SATURATED marker (the sweep
    bottomed out at rounding level).
    """
    errors = list(errors)
    dts = list(dts)
    if len(errors) != len(dts):
        raise ValueError(f"need one error per dt, got {len(errors)} errors "
                         f"for {len(dts)} dts")
    problem = halving_violation(dts)
    if problem:
        raise ValueError(problem)
    crs = []
    for e_prev, e_cur in zip(errors, errors[1:]):
        if e_cur == 0.0:
            crs.append(CR_SATURATED)
        elif e_prev == 0.0:
            crs.append(-CR_SATURATED)
        else:
            crs.append(math.log2(e_prev / e_cur))
    return crs


def step_count(final_time: float, dt: float, label: str = "dt") -> int:
    """The steps of size dt to ``final_time``: ValueError, naming dt by
    ``label``, unless they reach it to 1e-9 relative."""
    n = round(final_time / dt)
    if abs(n * dt - final_time) > 1e-9 * final_time:
        raise ValueError(f"{label} {dt!r} does not divide the final time "
                         f"{final_time!r}")
    return n


def reference_solution(scenario, tab: ButcherTableau, dt_ref: float,
                       cache_dir=None) -> FieldState:
    """UPD run at dt_ref to the scenario's final time; disk-cached.

    ``scenario`` is an assembled Scenario (see peridyn.app); the cache key
    combines the scenario's canonical serialization, the method order, and
    dt_ref, so cached and fresh references agree bit-for-bit.
    """
    n_ref = step_count(scenario.final_time, dt_ref, "reference dt")
    path = None
    if cache_dir is not None:
        key = pio.reference_cache_key(scenario.canonical_text, tab.r, dt_ref)
        path = pio.reference_cache_path(cache_dir, key)
        cached = pio.load_reference(path)
        if cached is not None:
            return cached

    op = scenario.fresh_operator()
    traj = upd_run(op, scenario.initial_state(), dt_ref, n_ref, tab,
                   s0=scenario.s0)
    final = traj.final
    if path is not None:
        pio.save_reference(path, final)
    return final


def scoped_errors(state: FieldState, reference: FieldState,
                  labels: SubdomainLabels, component: int = 1) -> dict:
    """{scope: L2 error} of one displacement component: "all" always, and
    "coarse" and "fine" when the split has points on both sides.

    The regions follow the overlapping definitions: the coarse scope is
    C + CI + FI and the fine scope is F + FI + CI, so boundary-layer points
    contribute to both.
    """
    field = state.u[:, component]
    ref = reference.u[:, component]
    errors = {"all": l2_error(field, ref)}
    if len(labels.omega_hat_c) and len(labels.omega_hat_f):
        errors["coarse"] = l2_error(field, ref, labels.bar_c)
        errors["fine"] = l2_error(field, ref, labels.bar_f)
    return errors
