"""Memory of the paper-scale crack: what an MTS run holds before it steps.

The paper-scale crack2d mesh has 250,000 points and about 7 M bonds, so
memory, not time, is the first ceiling there.  This script assembles
everything an MTS run holds (the Scenario, its operator and the MtsPlan),
makes one `rates` call per view (full, coarse, fine) and one damage check
per bond mask and one unmasked, and prints the peak resident set size
after each stage.  The unmasked check starts from a dropped table and
split, as the next run's first check does, so it times the build of an
unsplit table and a full pass over it.  It then prints
the bytes held by the neighbor list, the bond table that `rates` reads,
the views and the damage table with its skin state, and exits 1 when the
peak passes 512 MiB or a store passes its 2D byte budget: 9.5 B per bond
in the list, 8 * dim = 16 B per bond in the bond table and 14 B per
half-bond in the damage table and skin state.

Each per-bond array is held once: the neighbor list keeps the topology
(int32 neighbor and partner ids) and the bool bond flags, the bond table
the linear law's bond factor q (dim doubles), and a damage table entry
its bond id and its length |xi| (12 B); a refresh derives the bond's
ends.  A view holds only its row ids, and every view of the operator
reads its one bond table; likewise the neighbor list keeps one damage
table with one side per bond mask, each holding its own half-bonds, and
each check reads its side.  Each side keeps a Verlet skin: the ends of
its half-bonds, their displacements at its latest refresh and the
half-bonds it watches.

It takes no time step: the paper-scale dt is far past the explicit
stability limit of the paper-scale mesh, so a run would blow up.

Run:  python demos/05_paper_scale_memory.py    (~2 s, about 0.3 GiB)
"""

import resource
import sys
import time

import numpy as np

import peridyn as pd
from peridyn.forces import update_damage
from peridyn.mts import MtsPlan

PEAK_LIMIT_MIB = 512.0
# Bytes per bond and per half-bond, for the 2D crack.
BUDGETS = {"neighbor list": 9.5, "bond table": 16.0, "damage table": 14.0}


def peak_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stage(name, fn):
    start = time.perf_counter()
    result = fn()
    print(f"{name:<34} {time.perf_counter() - start:7.2f} s   "
          f"peak RSS {peak_mib():7.0f} MiB")
    return result


def array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds: directly, in a list or
    tuple, or in the objects such a list holds."""
    total = 0
    for value in vars(obj).values():
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(item, np.ndarray):
                total += item.nbytes
            elif hasattr(item, "__dict__"):
                total += array_bytes(item)
    return total


def main() -> int:
    cfg = pd.preset_config("crack2d", paper_scale=True)
    scenario = stage("Scenario", lambda: pd.Scenario(cfg))
    op = stage("operator", scenario.fresh_operator)
    plan = stage("MtsPlan", lambda: MtsPlan(op, scenario.mts_config(),
                                            scenario.s0))
    nbrs = op.nbrs
    print(f"  {scenario.cloud.n_points} points, {nbrs.n_bonds} bonds; "
          f"coarse view {plan.coarse_view.n_bonds} bonds, "
          f"fine view {plan.fine_view.n_bonds}")

    y = scenario.initial_state().packed()
    for name, view in (("full", None), ("coarse", plan.coarse_view),
                       ("fine", plan.fine_view)):
        stage(f"rates, {name} view", lambda: op.rates(y, 0.0, view))
    # what rates reads, before the unmasked check below drops it: the bond
    # table, and the views, which hold their row ids only
    table_bytes = op.bond_table.nbytes
    view_bytes = sum(view.rows.nbytes for view in (
        op.full_view, plan.coarse_view, plan.fine_view))

    u = np.ascontiguousarray(y[:, :scenario.cloud.dim])
    for name, mask in (("coarse", plan.coarse_bond_mask),
                       ("fine", plan.fine_bond_mask), ("unmasked", None)):
        if mask is None:
            # at u = 0 both skins hold: drop the run's table and split, so
            # that this check builds an unsplit table and refreshes it
            op.drop_run_caches()
        stage(f"damage check, {name}",
              lambda: update_damage(nbrs, u, scenario.s0, mask))

    # the damage table counts with its skin state: each side's points (the
    # ends of its half-bonds), their reference displacements and watch list
    table = nbrs.damage_table
    half_bonds = sum(len(side.ids) for side in table.sides)
    failed = []
    for name, held, per, unit in (
            ("neighbor list", nbrs.nbytes, nbrs.n_bonds, "bond"),
            ("bond table", table_bytes, nbrs.n_bonds, "bond"),
            ("views", view_bytes, scenario.cloud.n_points, "point"),
            ("damage table", array_bytes(table), half_bonds, "half-bond")):
        ratio = held / max(per, 1)
        budget = BUDGETS.get(name)
        note = "" if budget is None else f"   (budget {budget:.1f})"
        print(f"held by {name:<15} {held / 2 ** 20:7.1f} MiB   "
              f"{ratio:5.1f} B per {unit}{note}")
        if budget is not None and ratio > budget:
            failed.append(f"{name}: {ratio:.2f} B per {unit} exceeds "
                          f"the budget of {budget:.1f}")

    peak = peak_mib()
    print(f"peak RSS: {peak:.0f} MiB (limit {PEAK_LIMIT_MIB:.0f} MiB)")
    if peak > PEAK_LIMIT_MIB:
        failed.append("peak RSS exceeds the limit")
    for problem in failed:
        print(problem, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
