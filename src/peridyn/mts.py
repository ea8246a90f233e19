"""Multi-time-step orchestration: coarse step on the smooth subdomain, K
fine substeps on the discontinuity-bearing subdomain, coupled through the
internal boundary layers.

One coarse step from t_n to t_{n+1} runs three phases:

1. Advance the coarse side (C and CI points) with one RK step of size dt.
   Stage evaluations at CI points read neighbors in the fine boundary layer
   FI; those neighbor values at the stage times come from the Taylor
   ghost, an Interpolant whose derivative estimates are backward
   differences of the rates in the operator history.
2. Build, for every CI point, a degree-r Interpolant from the states at
   t_n and t_{n+1}, the rate at t_n, and derivative estimates d = Gamma f
   obtained from the correction matrices.
3. Advance the fine side (F and FI points) with K RK substeps of size dt/K;
   stage evaluations at FI points read their CI neighbors through the
   interpolant at the exact stage times.

Phases 1 and 3 run one substep loop in place on one full-domain array,
so a coarse step copies the state once.  With fracture on, each side
damage-checks its own bonds after each of its own substeps.

With K = 1 and a single (all-coarse) subdomain, every phase reduces to a
plain whole-domain step and the trajectory is bit-identical to the UPD
driver.
"""

from __future__ import annotations

import math
import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .forces import FieldState, SimulationError, update_damage
from .geometry import LABEL_CI, LABEL_FI, SubdomainLabels
from .integrator import run_steps, stages, tableau, upd_step

_SPACING_RTOL = 1e-12
_INV_FACT = (0.5, 1.0 / 6.0, 1.0 / 24.0)  # 1/2!, 1/3!, 1/4!


@dataclass
class MtsConfig:
    """Order, coarse step, refinement level, and the static subdomain labels."""

    order: int
    dt: float
    K: int
    labels: SubdomainLabels

    def validate(self):
        if self.order not in (3, 4):
            raise ValueError(f"order must be 3 or 4, got {self.order}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        problem = refinement_violation(self.K)
        if problem:
            raise ValueError(problem)
        return self


def refinement_violation(K) -> str | None:
    """The rule on the refinement level: None when K is an integer >= 1,
    else the complaint.  A float is refused even when it is whole, and a
    bool too: K counts substeps."""
    if isinstance(K, numbers.Integral) and not isinstance(K, bool) and K >= 1:
        return None
    return f"K must be an integer >= 1, got {K}"


@dataclass
class CorrectionMatrices:
    """The (r-1)x(r-1) Taylor-coefficient matrix A and its inverse Gamma.

    Gamma maps the stacked difference quantities f onto estimates of the
    first r-1 time derivatives of the rate operator.
    """

    A: np.ndarray
    gamma: np.ndarray


def matrix_A(r: int, dt: float) -> CorrectionMatrices:
    """Correction matrices for order r; Gamma entries are analytic.

    Row j of Gamma scales as dt^(1-j), making d = Gamma f dimensionally a
    vector of successive derivatives.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if r == 4:
        A = np.array([
            [0.5, dt / 6.0, dt * dt / 24.0],
            [1.0, -dt / 2.0, dt * dt / 6.0],
            [1.0, -1.5 * dt, 7.0 * dt * dt / 6.0],
        ])
        gamma = np.array([
            [8.0 / 9.0, 37.0 / 54.0, -7.0 / 54.0],
            [8.0 / (3.0 * dt), -13.0 / (9.0 * dt), 1.0 / (9.0 * dt)],
            [8.0 / (3.0 * dt * dt), -22.0 / (9.0 * dt * dt),
             10.0 / (9.0 * dt * dt)],
        ])
    elif r == 3:
        A = np.array([
            [0.5, dt / 6.0],
            [1.0, -dt / 2.0],
        ])
        gamma = np.array([
            [1.2, 0.4],
            [12.0 / (5.0 * dt), -6.0 / (5.0 * dt)],
        ])
    else:
        raise ValueError(f"correction matrices exist for r in {{3, 4}}, got {r}")
    return CorrectionMatrices(A=A, gamma=gamma)


def assemble_f(r: int, dt: float, y_n, y_np1, L_n, L_nm1, L_nm2=None):
    """Stack the difference quantities f feeding the derivative estimates.

    f1 = (U^{n+1} - U^n - dt L^n)/dt^2, f2 = (L^n - L^{n-1})/dt and, for
    r = 4, f3 = (L^{n-1} - L^{n-2})/dt.  Applies componentwise to arrays of
    any shape (the stacked displacement/velocity state included).
    """
    parts = [(y_np1 - y_n - dt * L_n) / (dt * dt), (L_n - L_nm1) / dt]
    if r == 4:
        if L_nm2 is None:
            raise SimulationError(
                "insufficient operator history for r=4 (needs L at n-2)")
        parts.append((L_nm1 - L_nm2) / dt)
    return np.stack(parts)


def estimate_derivatives(corr: CorrectionMatrices, f: np.ndarray) -> np.ndarray:
    """d = Gamma f: estimates of (L', L'', ...) stacked along axis 0."""
    return np.tensordot(corr.gamma, f, axes=(1, 0))


@dataclass
class Interpolant:
    """Per-point polynomial U^n + tau L^n + sum_j tau^j/j! d_{j-1} about t0,
    with d[j] an estimate of the (j+1)-th derivative of L.  On the CI layer
    it interpolates the coarse step on [t0, t0 + dt], where estimates from
    the correction matrices make it reproduce trajectories of degree <= r
    exactly and track smooth motions to O(dt^{r+1}); on the FI layer it is
    the Taylor ghost (``_fi_ghost``).
    """

    t0: float
    dt: float
    y0: np.ndarray
    L0: np.ndarray
    d: np.ndarray

    def __call__(self, tau: float) -> np.ndarray:
        """The polynomial at t0 + tau, unchecked: y0 + tau L0, then each
        term (tau^(j+2)/(j+2)!) d[j] in turn, accumulated in place in one
        fresh array (IEEE addition and multiplication commute, so these
        are the bits of the out-of-place sum)."""
        out = tau * self.L0
        out += self.y0
        term = np.empty_like(out)
        power = tau
        for j, d_j in enumerate(self.d):
            power *= tau
            out += np.multiply(_INV_FACT[j] * power, d_j, out=term)
        return out

    def evaluate(self, t: float) -> np.ndarray:
        tau = t - self.t0
        slack = 1e-9 * self.dt
        if tau < -slack or tau > self.dt + slack:
            raise SimulationError(
                f"interpolant evaluated at t={t!r} outside its validity "
                f"window [{self.t0!r}, {self.t0 + self.dt!r}]")
        return self(tau)


class OperatorHistory:
    """Ring buffer of the last three coarse-level rate evaluations."""

    def __init__(self, dt: float):
        self.dt = dt
        self._entries: list[tuple[float, np.ndarray]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, t: float, values: np.ndarray):
        if self._entries:
            t_prev = self._entries[-1][0]
            if t <= t_prev:
                raise SimulationError(
                    f"history time stamps must increase: {t_prev!r} -> {t!r}")
            # times t0 + step * dt are rounded: a few ulps of t, growing with t
            tol = _SPACING_RTOL * self.dt + 4.0 * math.ulp(t)
            if abs((t - t_prev) - self.dt) > tol:
                raise SimulationError(
                    f"history spacing {t - t_prev!r} deviates from dt={self.dt!r}")
        self._entries.append((t, values))
        if len(self._entries) > 3:  # order 4 reads L at n, n-1 and n-2
            self._entries.pop(0)

    def t_at(self, back: int = 0) -> float:
        return self._entries[-1 - back][0]

    def values(self, back: int = 0) -> np.ndarray:
        """Rates back steps behind the newest entry (0 = newest)."""
        return self._entries[-1 - back][1]


def _history_levels(history: OperatorHistory, r: int, idx) -> list:
    """The rates at t_n, t_{n-1}, ... (the r-1 levels order r reads) at the
    points ``idx``."""
    if len(history) < r - 1:
        raise SimulationError(
            f"insufficient operator history: have {len(history)}, "
            f"need {r - 1} (was startup skipped?)")
    return [np.take(history.values(back), idx, axis=0)
            for back in range(r - 1)]


def build_interpolant(indices, y_n, y_np1, history: OperatorHistory,
                      r: int, dt: float) -> Interpolant:
    """Interpolant for the CI points from the completed coarse step.

    ``y_n``/``y_np1`` are full-domain packed states; ``history`` must hold
    the rate at t_n (newest) plus r-2 older levels.
    """
    idx = np.asarray(indices, dtype=np.int64)
    levels = _history_levels(history, r, idx)
    y0 = np.take(y_n, idx, axis=0)
    f = assemble_f(r, dt, y0, np.take(y_np1, idx, axis=0), *levels)
    d = estimate_derivatives(matrix_A(r, dt), f)
    return Interpolant(t0=history.t_at(0), dt=dt, y0=y0, L0=levels[0], d=d)


class TimingReport:
    """Wall-clock accumulator per scheme phase (calls + seconds)."""

    def __init__(self):
        self.entries: dict[str, list] = {}

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            entry = self.entries.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += time.perf_counter() - start

    def seconds(self, name: str) -> float:
        return self.entries.get(name, [0, 0.0])[1]

    def rows(self):
        return [(name, calls, secs)
                for name, (calls, secs) in sorted(self.entries.items())]


class MtsPlan:
    """Static per-run data: subdomain row sets, operator views, bond masks.

    The coarse and fine rows partition the points, and the operator's
    partition derives the bond masks from them: the fine side holds every
    bond with a fine end.  The full view (history pushes, startup) is the
    union of the two views.  Each side's substeps check its mask when
    fracture is on (``s0`` given); without it no substep checks damage.
    """

    def __init__(self, op, config: MtsConfig, s0: float | None = None):
        config.validate()
        self.op = op
        self.config = config
        self.tab = tableau(config.order)
        self.s0 = s0
        labels = config.labels
        self.rows_c = labels.omega_hat_c
        self.rows_f = labels.omega_hat_f
        self.idx_fi = labels.indices(LABEL_FI)
        self.idx_ci = labels.indices(LABEL_CI)
        (self.coarse_view, self.fine_view, self.coarse_bond_mask,
         self.fine_bond_mask) = op.partition(self.rows_c, self.rows_f)


def cost_model(nbrs, config: MtsConfig) -> float:
    """The cost of an MTS coarse step over that of UPD at dt/K across the
    same interval, in bond evaluations, from the bond counts of the two
    sides' rows (the MtsPlan views' ``n_bonds``).

    An order-r coarse step evaluates the coarse view r-1 times (the first
    stage reads the history), the fine view K*r-1 times (likewise) and the
    full view once, for the history push: (r-1)*B_c + (K*r-1)*B_f + B.  UPD
    at dt/K evaluates the full view K*r times: K*r*B.  The r-2 startup
    steps and the damage checks are left out.
    """
    r, K = config.order, config.K
    b = nbrs.n_bonds
    if b == 0:
        return 1.0
    counts = nbrs.counts()
    b_c, b_f = (int(counts[rows].sum()) for rows in
                (config.labels.omega_hat_c, config.labels.omega_hat_f))
    return ((r - 1) * b_c + (K * r - 1) * b_f + b) / (K * r * b)


def _fi_ghost(plan: MtsPlan, y_n: np.ndarray, history: OperatorHistory):
    """The Taylor ghost Interpolant: ``ghost(tau)`` = FI values at t_n + tau.

    Derivatives of the rates come from backward differences over the
    history; order 4 uses the three-level second-order difference for L'
    so the ghost values stay O(dt^4) accurate.
    """
    fi = plan.idx_fi
    dt = plan.config.dt
    levels = _history_levels(history, plan.tab.r, fi)
    L0, L1 = levels[:2]
    if plan.tab.r == 3:
        d = ((L0 - L1) / dt,)
    else:
        L2 = levels[2]
        d = ((3.0 * L0 - 4.0 * L1 + L2) / (2.0 * dt),
             (L0 - 2.0 * L1 + L2) / (dt * dt))
    return Interpolant(t0=history.t_at(0), dt=dt,
                       y0=np.take(y_n, fi, axis=0), L0=L0, d=d)


def _substeps(plan: MtsPlan, y: np.ndarray, rows, view, layer, boundary,
              t_n: float, dt: float, n_sub: int, history: OperatorHistory,
              bond_mask):
    """Advance ``y[rows]`` in place by n_sub RK substeps of size dt from t_n.

    Each stage first sets the other side's boundary rows ``layer`` to
    ``boundary(t_k, tau)``, their value at t_k + tau (t_k starts the
    substep).  With fracture on, each substep ends with a damage check of
    the side's bonds, ``bond_mask``.  ``layer`` is restored on return, so
    only ``rows`` and the side's flags change.  ``y`` must be C-contiguous
    (``ValueError`` otherwise).
    """
    if not y.flags.c_contiguous:
        raise ValueError("the MTS state must be a C-contiguous array")
    if len(rows) == 0:
        return
    tab = plan.tab
    # Whole rows move as fixed-size void records: each row write is one put
    # through ``records``, a plain copy per row, and each gather one
    # np.take(..., axis=0); both are several times faster than fancy
    # indexing.  The values written are fresh C-contiguous rows.
    record = np.dtype((np.void, y.itemsize * y.shape[1]))
    records = y.view(record)
    saved = np.take(y, layer, axis=0)

    def set_layer(t_k, tau):
        if len(layer):
            records.put(layer, boundary(t_k, tau).view(record))

    y_rows = np.take(y, rows, axis=0)
    rate0 = np.take(history.values(0), rows, axis=0)
    for k in range(n_sub):
        t_k = t_n + k * dt

        def stage_rate(j, y_j):
            tau = tab.c[j] * dt
            records.put(rows, y_j.view(record))
            set_layer(t_k, tau)
            return plan.op.rates(y, t_k + tau, view=view)

        y_rows, _ = stages(tab, y_rows, dt, stage_rate,
                           rate0=rate0 if k == 0 else None)
        if plan.s0 is not None:
            records.put(rows, y_rows.view(record))
            set_layer(t_k, dt)
            update_damage(plan.op.nbrs, y[:, :plan.op.cloud.dim], plan.s0,
                          bond_mask=bond_mask)
    records.put(rows, y_rows.view(record))
    records.put(layer, saved.view(record))


def coarse_advance(plan: MtsPlan, y_n: np.ndarray, t_n: float,
                   history: OperatorHistory) -> np.ndarray:
    """One RK step of size dt on the coarse side (C plus CI rows).

    Returns a fresh full-domain array whose coarse rows hold t_{n+1} values
    and whose fine rows equal ``y_n``'s; the CI rows double as the predicted
    U^{n+1} the interpolant construction needs.  Stage evaluations at CI
    points see FI neighbors through the Taylor ghost extrapolator.  With
    fracture on, the bonds with both ends coarse are checked at the end.
    """
    y = y_n.copy(order="K")  # _substeps refuses a state not C-contiguous
    ghost = _fi_ghost(plan, y_n, history)
    _substeps(plan, y, plan.rows_c, plan.coarse_view, plan.idx_fi,
              lambda _t_k, tau: ghost(tau), t_n, plan.config.dt, 1, history,
              plan.coarse_bond_mask)
    return y


def fine_advance(plan: MtsPlan, y_half: np.ndarray, interp: Interpolant,
                 t_n: float, history: OperatorHistory) -> np.ndarray:
    """K RK substeps of size dt/K on the fine side (F plus FI rows).

    ``y_half`` is the coarse_advance result; its fine rows still hold t_n
    values and are advanced in place, and its coarse rows are left as they
    are.  CI neighbor values at every substep stage time come from the
    interpolant.  Bonds touching the fine side are damage-checked after
    each substep when fracture is on.
    """
    K = plan.config.K
    _substeps(plan, y_half, plan.rows_f, plan.fine_view, plan.idx_ci,
              lambda t_k, tau: interp.evaluate(t_k + tau), t_n,
              plan.config.dt / K, K, history, plan.fine_bond_mask)
    return y_half


def mts_step(plan: MtsPlan, y_n: np.ndarray, t_n: float, t_np1: float,
             history: OperatorHistory, timing: TimingReport) -> np.ndarray:
    """Full coarse step: coarse advance, interpolant, fine advance (each
    advance checks its side's bonds), then push the rates at t_{n+1}."""
    with timing.phase("coarse"):
        y_half = coarse_advance(plan, y_n, t_n, history)
    with timing.phase("interpolant"):
        interp = build_interpolant(plan.idx_ci, y_n, y_half, history,
                                   plan.tab.r, plan.config.dt)
    with timing.phase("fine"):
        y_next = fine_advance(plan, y_half, interp, t_n, history)
    with timing.phase("history"):
        history.push(t_np1, plan.op.rates(y_next, t_np1))
    return y_next


def startup_step(plan: MtsPlan, y_n: np.ndarray, t_n: float, t_np1: float,
                 history: OperatorHistory, timing: TimingReport) -> np.ndarray:
    """Startup coarse step, taken before the history holds r-1 levels: K
    whole-domain UPD steps at dt/K (no correction terms, every bond
    damage-checked), then push the rates at t_{n+1}."""
    op = plan.op
    dt_k = plan.config.dt / plan.config.K
    y = y_n
    with timing.phase("startup"):
        for k in range(plan.config.K):
            y = upd_step(op, plan.tab, y, t_n + k * dt_k, dt_k, plan.s0)
    with timing.phase("history"):
        history.push(t_np1, op.rates(y, t_np1))
    return y


def mts_run(op, state0: FieldState, config: MtsConfig, n_steps: int,
            s0: float | None = None, record_every: int | None = None,
            on_step=None):
    """r-2 startup_steps, then repeated mts_step until t_0 + n_steps * dt,
    under the step loop the UPD driver uses (integrator.run_steps).  With
    the rates at t_0, the startup leaves the r-1 history levels that the
    ghost extrapolator and the interpolant read.

    Returns (Trajectory, TimingReport).  The trajectory records the initial
    state, every record_every-th step, and the final state, with the UPD
    driver's cadence, so the two are directly comparable.  The operator's
    run caches are dropped when the run ends.
    """
    plan = MtsPlan(op, config, s0)  # validates config
    timing = TimingReport()
    history = OperatorHistory(config.dt)
    with timing.phase("history"):
        history.push(state0.t, op.rates(state0.packed(), state0.t))

    def advance(step, y, t_n, t_np1):
        step_fn = startup_step if step <= plan.tab.r - 2 else mts_step
        return step_fn(plan, y, t_n, t_np1, history, timing)

    try:
        traj = run_steps(advance, state0, config.dt, n_steps, record_every,
                         on_step)
    finally:
        op.drop_run_caches()
    return traj, timing
