"""Bond-based peridynamics with uniform and multi-time-step RK integration.

The library is organized around a meshfree point cloud (`geometry`), the
pairwise force operator and damage model (`forces`), explicit Runge-Kutta
tableaus and the single-rate driver (`integrator`), the multi-time-step
scheme (`mts`), convergence/error tooling (`analysis`), and scenario
configuration plus output writers (`app`, `io`).  The package namespace
holds the scenario-level entry points; everything else is imported from
its submodule.
"""

from . import io
from .analysis import l2_error
from .app import ConfigError, Scenario, apply_overrides, compare, converge, \
    preset_config
from .forces import InstabilityError, SimulationError, damage_index
from .geometry import build_grid
from .mts import mts_run

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "InstabilityError", "Scenario", "SimulationError",
    "apply_overrides", "build_grid", "compare", "converge", "damage_index",
    "io", "l2_error", "mts_run", "preset_config",
]
