"""Explicit Runge-Kutta stepping: the stage loop and the step loop that
both schemes share, and the single-rate (UPD) driver.

The stepper is generic over the state shape: any float ndarray plus a rate
function ``rate(y, t) -> dy/dt`` works, which keeps the scalar-ODE oracles
in the test suite on the exact same code path as the PD runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forces import FieldState, InstabilityError, update_damage

_TABLEAU_TOL = 1e-15


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients of an explicit r-stage RK method (a strictly lower
    triangular)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def r(self) -> int:
        return len(self.b)

    def validate(self):
        r = self.r
        if self.a.shape != (r, r) or self.c.shape != (r,):
            raise ValueError("tableau shapes are inconsistent")
        if np.any(np.triu(self.a) != 0.0):
            raise ValueError("tableau is not explicit (a_jk != 0 for k >= j)")
        if np.max(np.abs(self.c - self.a.sum(axis=1))) > _TABLEAU_TOL:
            raise ValueError("row-sum condition c_j = sum_k a_jk violated")
        if abs(self.b.sum() - 1.0) > _TABLEAU_TOL:
            raise ValueError("weights do not sum to 1")
        return self


def tableau_rk3() -> ButcherTableau:
    """Third-order, three-stage method: c = (0, 2/3, 2/3), b = (1/4, 3/8, 3/8)."""
    a = np.zeros((3, 3))
    a[1, 0] = 2.0 / 3.0
    a[2, 1] = 2.0 / 3.0
    return ButcherTableau(a=a, b=np.array([0.25, 0.375, 0.375]),
                          c=np.array([0.0, 2.0 / 3.0, 2.0 / 3.0])).validate()


def tableau_rk4() -> ButcherTableau:
    """The classical fourth-order method."""
    a = np.zeros((4, 4))
    a[1, 0] = 0.5
    a[2, 1] = 0.5
    a[3, 2] = 1.0
    b = np.array([1.0, 2.0, 2.0, 1.0]) / 6.0
    return ButcherTableau(a=a, b=b, c=np.array([0.0, 0.5, 0.5, 1.0])).validate()


def tableau(order: int) -> ButcherTableau:
    if order == 3:
        return tableau_rk3()
    if order == 4:
        return tableau_rk4()
    raise ValueError(f"no shipped tableau of order {order}")


def combine(y, dt: float, coeffs, rates):
    """y + dt * sum_k coeffs[k] * rates[k], accumulated in stage order.

    Zero coefficients are skipped; both the plain stepper and the MTS
    subdomain advances call this, so their arithmetic is bit-identical.
    The sum accumulates in place in the first term's fresh array.
    """
    acc = None
    for coef, rate in zip(coeffs, rates):
        if coef == 0.0:
            continue
        if acc is None:
            acc = coef * rate
        else:
            acc += coef * rate
    if acc is None:
        return y.copy()
    acc *= dt
    acc += y  # a scalar acc (0-d rates) rebinds to a fresh array of y's shape
    return acc


def stages(tab: ButcherTableau, y, dt: float, stage_rate, rate0=None):
    """The stage loop of one RK step of size dt from y; returns (y_next,
    stage_rates).  ``stage_rate(j, y_j)`` is the rate at the j-th stage
    value (the caller owns the stage time); a known stage-0 rate comes in
    as ``rate0``.  Operator failures propagate with the stage attached.
    """
    rates = [] if rate0 is None else [rate0]
    for j in range(len(rates), tab.r):
        yj = y if j == 0 else combine(y, dt, tab.a[j, :j], rates)
        try:
            rates.append(stage_rate(j, yj))
        except InstabilityError as err:
            err.stage = j
            raise
    return combine(y, dt, tab.b, rates), rates


def rk_step(tab: ButcherTableau, y, rate_fn, t: float, dt: float):
    """One explicit RK step of ``rate_fn(y, t)``; returns (y_next,
    stage_rates)."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    return stages(tab, y, dt, lambda j, yj: rate_fn(yj, t + tab.c[j] * dt))


@dataclass
class Trajectory:
    """States recorded during a run (always includes initial and final)."""

    states: list

    @property
    def final(self) -> FieldState:
        return self.states[-1]

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])


def run_steps(advance, state0: FieldState, dt: float, n_steps: int,
              record_every: int | None = None, on_step=None) -> Trajectory:
    """The step loop both schemes share: ``advance(step, y, t_n, t_np1)``
    takes the packed state from t_n to t_np1.  ``record_every`` sets the
    snapshot cadence (None: initial and final only); ``on_step(step, t, y)``
    runs after each step.  Failures carry the last completed step.
    """
    y = state0.packed()
    t0 = state0.t
    states = [FieldState.from_packed(y, t0)]
    step = 0
    try:
        for step in range(1, n_steps + 1):
            t = t0 + step * dt
            y = advance(step, y, t0 + (step - 1) * dt, t)
            if on_step is not None:
                on_step(step, t, y)
            if record_every and step % record_every == 0 and step != n_steps:
                states.append(FieldState.from_packed(y, t))
    except InstabilityError as err:
        err.last_good_step = step - 1
        raise
    if n_steps > 0:
        states.append(FieldState.from_packed(y, t0 + n_steps * dt))
    return Trajectory(states=states)


def upd_step(op, tab: ButcherTableau, y, t: float, dt: float,
             s0: float | None):
    """One whole-domain RK step, then, when ``s0`` is given, a damage check
    of every bond from the end-of-step displacements."""
    y, _ = rk_step(tab, y, op.rates, t, dt)
    if s0 is not None:
        update_damage(op.nbrs, y[:, :op.cloud.dim], s0)
    return y


def upd_run(op, state0: FieldState, dt: float, n_steps: int,
            tab: ButcherTableau, s0: float | None = None,
            record_every: int | None = None, on_step=None) -> Trajectory:
    """Advance the whole domain with a single time step (the UPD baseline):
    upd_step under run_steps.  The operator's run caches are dropped when
    the run ends (``PDOperator.drop_run_caches``), so an idle operator
    holds only its bond data."""
    try:
        return run_steps(lambda _, y, t, __: upd_step(op, tab, y, t, dt, s0),
                         state0, dt, n_steps, record_every, on_step)
    finally:
        op.drop_run_caches()
