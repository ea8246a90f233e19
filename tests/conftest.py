import numpy as np
import pytest

from peridyn.app import (
    FractureSpec, GeometrySpec, LoadSpec, MtsSpec, OutputSpec,
    SimulationConfig, TimeSpec,
)
from peridyn.forces import Material, _break_bonds


def write_mu(nbrs, broken=(), mu=None):
    """The tests' one way to change the read-only bond flags ``nbrs.mu``.

    ``broken`` bond ids break in both directions through the damage
    model's writer.  ``mu``, a whole flag array that may heal bonds, is
    copied in and bumps ``nbrs.version``, as the damage model would, so
    the operator's flag caches refresh.
    """
    _break_bonds(nbrs, np.asarray(broken, dtype=np.int64))
    if mu is not None:
        nbrs.mu.flags.writeable = True
        nbrs.mu[:] = mu
        nbrs.mu.flags.writeable = False
        nbrs.version += 1


@pytest.fixture
def mini_config():
    """A tiny (10x5) soft plate that runs in milliseconds."""
    def make(n_steps=8, dt=1e-5, scheme="mts", order=4, K=2,
             fine=True, cadence=0):
        return SimulationConfig(
            name="custom",
            geometry=GeometrySpec(box_min=(0.0, 0.0), box_max=(1.0, 0.5),
                                  dx=0.1, thickness=0.01),
            material=Material(E=1.92e9, nu=1.0 / 3.0, rho=8000.0),
            delta=0.3, law="linear",
            loads=[LoadSpec(kind="body_force",
                            box=((0.9, 0.0), (1.0, 0.5)),
                            value=(0.0, 2e10))],
            fracture=FractureSpec(enabled=False),
            time=TimeSpec(dt=dt, n_steps=n_steps),
            mts=MtsSpec(scheme=scheme, order=order, K=K,
                        fine_boxes=[((0.6, 0.0), (1.0, 0.5))] if fine else []),
            output=OutputSpec(directory="out", cadence=cadence,
                              formats=("vtk", "csv")),
            error_component="y")
    return make


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
