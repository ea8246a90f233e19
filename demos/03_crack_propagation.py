"""Dynamic crack growth from a pre-existing center crack.

A 0.05 m square plate carries a horizontal pre-crack of length 0.01 m.
Velocity layers at the top and bottom edges pull at +-20 m/s; bonds break
irreversibly once their stretch reaches s0 = 0.01.  The crack runs outward
from the two tips along the midline, and the damage field (volume fraction
of broken bonds per point) stays mirror-symmetric.

The multirate scheme puts the fine time step only on the band around the
crack path (20% of the points); everything else advances with the coarse
step.  The run writes legacy-VTK snapshots (load them into ParaView) and
prints a coarse ASCII picture of the final damage field.

The command-line equivalent is `pd run --config crack2d --out out_crack`.

Run:  python demos/03_crack_propagation.py [outdir]    (~7 s)
"""

import sys

import peridyn as pd


def ascii_damage_map(phi, nx=100, ny=100, cols=50, rows=25):
    grid = phi.reshape(nx, ny)
    shades = " .:*#@"
    lines = []
    for jr in range(rows - 1, -1, -1):
        ys = slice(jr * ny // rows, (jr + 1) * ny // rows)
        line = []
        for ic in range(cols):
            xs = slice(ic * nx // cols, (ic + 1) * nx // cols)
            cell = grid[xs, ys].max()
            line.append(shades[min(int(cell * (len(shades) - 1) + 0.5),
                                   len(shades) - 1)])
        lines.append("".join(line))
    return "\n".join(lines)


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "out_crack"
    cfg = pd.preset_config("crack2d")
    scenario = pd.Scenario(cfg)
    op = scenario.fresh_operator()
    print(f"running {cfg.time.n_steps} steps at dt = {cfg.time.dt:.2e} s "
          f"(K = {cfg.mts.K}, order {cfg.mts.order}) ...")
    traj, timing = pd.mts_run(op, scenario.initial_state(),
                              scenario.mts_config(), cfg.time.n_steps,
                              s0=scenario.s0)
    phi = pd.damage_index(op.nbrs)
    broken = int((op.nbrs.mu == 0).sum() // 2)
    print(f"final time {traj.final.t:.2e} s, {broken} broken bonds, "
          f"max damage {phi.max():.2f}")
    for name, calls, secs in timing.rows():
        print(f"  phase {name:<12} {calls:5d} calls  {secs:7.2f} s")

    import os
    os.makedirs(out_dir, exist_ok=True)
    snap = os.path.join(out_dir, "final.vtk")
    pd.io.write_vtk(scenario.cloud, traj.final, phi, snap)
    print(f"wrote {snap}")
    print("\nfinal damage field (the crack runs along the midline):\n")
    print(ascii_damage_map(phi))


if __name__ == "__main__":
    main()
