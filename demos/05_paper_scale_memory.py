"""Memory of the paper-scale crack: what an MTS run holds before it steps.

The paper-scale crack2d mesh has 250,000 points and about 7 M bonds, so
memory, not time, is the first ceiling there.  This script assembles
everything an MTS run holds (the Scenario, its operator and the MtsPlan),
makes one `rates` call per view (full, coarse, fine) and one damage check
per bond mask and one unmasked, and prints the peak resident set size
after each stage.

An MTS plan splits the operator into its coarse and fine views, and the
full view is their union, so the bond data is held once.  Likewise the
unmasked damage check runs over the two masks' bond tables.

It takes no time step: the paper-scale dt is far past the explicit
stability limit of the paper-scale mesh, so a run would blow up.

Run:  python demos/05_paper_scale_memory.py    (~30 s, about 1.2 GiB)
"""

import resource
import time

import numpy as np

import peridyn as pd
from peridyn.forces import update_damage
from peridyn.mts import MtsPlan


def peak_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stage(name, fn):
    start = time.perf_counter()
    result = fn()
    print(f"{name:<34} {time.perf_counter() - start:7.2f} s   "
          f"peak RSS {peak_mib():7.0f} MiB")
    return result


def main():
    cfg = pd.preset_config("crack2d", paper_scale=True)
    scenario = stage("Scenario", lambda: pd.Scenario(cfg))
    op = stage("operator", scenario.fresh_operator)
    plan = stage("MtsPlan", lambda: MtsPlan(op, scenario.mts_config(),
                                            scenario.s0))
    print(f"  {scenario.cloud.n_points} points, {op.nbrs.n_bonds} bonds; "
          f"coarse view {len(plan.coarse_view.bond_sel)} bonds, "
          f"fine view {len(plan.fine_view.bond_sel)}")

    y = scenario.initial_state().packed()
    for name, view in (("full", None), ("coarse", plan.coarse_view),
                       ("fine", plan.fine_view)):
        stage(f"rates, {name} view", lambda: op.rates(y, 0.0, view))

    u = np.ascontiguousarray(y[:, :scenario.cloud.dim])
    for name, mask in (("coarse", plan.coarse_bond_mask),
                       ("fine", plan.fine_bond_mask), ("unmasked", None)):
        stage(f"damage check, {name}",
              lambda: update_damage(op.nbrs, u, scenario.s0, mask))
    print(f"peak RSS: {peak_mib():.0f} MiB")


if __name__ == "__main__":
    main()
