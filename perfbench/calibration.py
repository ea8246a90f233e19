"""Machine-speed calibration of the end-to-end times.

On a shared machine the speed of one core drifts.  On a 2-core Intel Xeon
VM the time of one crack2d ``rates`` call moved by +-20% within seconds and
by a third between quarter hours; wall times of the same code spread 11-12%
over ten runs, and the median of ten plate runs moved 33% between two sets.
A fixed numpy kernel slows down with the machine, so the benchmark times a
burst of it between setups and every INTERVAL_S during a round, and reports
each time rescaled to the speed at which one burst takes REFERENCE_S:

    scaled = wall * REFERENCE_S / (mean burst time around the wall interval)

The kernel is the bond sum the library's force operator computes (gather
the displacement difference of each bond, dot it with the bond vector,
scatter-add per point with bincount) on synthetic bonds of the workload's
own size, repeated so that a burst lasts about REFERENCE_S: it slows down
with the machine as the workload does, memory-bound on the crack and
call-bound on the plate.  It does not use the library, so a change to the
library does not change it.  Burst time is excluded from the wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from peridyn import forces

# One burst takes about this long on the reference machine (2-core Intel
# Xeon VM, numpy 2.4, one thread) at its usual speed.
REFERENCE_S = 0.015
INTERVAL_S = 0.25
_SEED = 20240110


def _problem(rng, n_points, n_bonds, reach):
    i = np.sort(rng.integers(0, n_points, n_bonds))
    j = np.clip(i + rng.integers(-reach, reach + 1, n_bonds), 0, n_points - 1)
    return rng.normal(size=(n_points, 2)), i, j, rng.normal(size=(n_bonds, 2))


def _bond_sum(u, i, j, xi):
    coef = np.einsum("bd,bd->b", xi, u[j] - u[i])
    for k in range(2):
        np.bincount(i, weights=coef * xi[:, k], minlength=len(u))


@dataclass
class Interval:
    """A timed interval: wall seconds (bursts excluded) and the same time
    rescaled to the reference speed.  Filled in when the interval ends."""

    wall_s: float = 0.0
    scaled_s: float = 0.0


class Calibrator:
    """Bursts of ``repeats`` bond sums over ``n_bonds`` synthetic bonds of
    ``n_points`` points, each bond within ``reach`` indices of its source."""

    def __init__(self, n_points: int, n_bonds: int, reach: int, repeats: int):
        self._problem = _problem(np.random.default_rng(_SEED), n_points,
                                 n_bonds, reach)
        self._repeats = repeats

    def burst(self) -> float:
        """Run the kernel once; returns its seconds."""
        t0 = time.perf_counter()
        for _ in range(self._repeats):
            _bond_sum(*self._problem)
        return time.perf_counter() - t0

    @contextmanager
    def timed(self):
        """Time the body with bursts before, after and every INTERVAL_S in
        between; the in-between bursts run after a ``PDOperator.rates``
        call, the library call every workload makes throughout."""
        samples = [self.burst()]
        spent = 0.0
        due = time.perf_counter() + INTERVAL_S
        rates = forces.PDOperator.rates

        def calibrated_rates(*args, **kwargs):
            nonlocal spent, due
            out = rates(*args, **kwargs)
            now = time.perf_counter()
            if now >= due:
                samples.append(self.burst())
                spent += samples[-1]
                due = time.perf_counter() + INTERVAL_S
            return out

        interval = Interval()
        forces.PDOperator.rates = calibrated_rates
        t0 = time.perf_counter()
        try:
            yield interval
        finally:
            wall = time.perf_counter() - t0 - spent
            forces.PDOperator.rates = rates
        samples.append(self.burst())
        interval.wall_s = wall
        interval.scaled_s = wall * REFERENCE_S / float(np.mean(samples))


@contextmanager
def wall_timer():
    """Plain wall-clock timing of the body, without calibration."""
    interval = Interval()
    t0 = time.perf_counter()
    try:
        yield interval
    finally:
        interval.wall_s = interval.scaled_s = time.perf_counter() - t0
