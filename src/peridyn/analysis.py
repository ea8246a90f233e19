"""Error norms, observed convergence orders, and reference solutions.

Temporal convergence is measured against a fine-step UPD reference on the
same mesh, so errors are pure time-integration errors.  References are
cached on disk (.npy) keyed by a hash of the scenario and the reference step.
"""

from __future__ import annotations

import math
import warnings
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
    half the one before; else the complaint."""
    dts = list(dts)
    if len(dts) < 2:
        return f"need at least two dt entries, got {len(dts)}"
    bad = [dt for dt in dts if not (math.isfinite(dt) and dt > 0)]
    if bad:
        return f"dt entries must be positive and finite, got {bad[0]}"
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


def reference_solution(scenario, tab: ButcherTableau, dt_ref: float,
                       cache_dir=None) -> FieldState:
    """UPD run at dt_ref to the scenario's final time; disk-cached.

    ``scenario`` is an assembled Scenario (see peridyn.app); the cache key
    combines the scenario's canonical serialization, the method order, and
    dt_ref, so cached and fresh references agree bit-for-bit.
    """
    final_time = scenario.final_time
    n_ref = round(final_time / dt_ref)
    if abs(n_ref * dt_ref - final_time) > 1e-9 * final_time:
        raise ValueError(
            f"reference dt {dt_ref} does not divide final time {final_time}")

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
                  labels: SubdomainLabels, component: int = 1):
    """(e, e_c, e_f): whole-domain, coarse-region, fine-region L2 errors.

    The regions follow the overlapping definitions: the coarse scope is
    C + CI + FI and the fine scope is F + FI + CI, so boundary-layer points
    contribute to both.  An empty scope reports 0 with a warning.
    """
    field = state.u[:, component]
    ref = reference.u[:, component]
    e = l2_error(field, ref)
    out = [e]
    for name, idx in (("coarse", labels.bar_c), ("fine", labels.bar_f)):
        if len(idx) == 0:
            warnings.warn(f"{name} scope is empty; reporting 0", stacklevel=2)
            out.append(0.0)
        else:
            out.append(l2_error(field, ref, idx))
    return tuple(out)
