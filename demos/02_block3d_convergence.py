"""The same order study in 3D: a block loaded transversely on one face.

The fine-step region is a slab of thickness 2*delta at the loaded face;
the rest of the block advances with the coarse step.  The point of the
exercise: multirate coupling does not degrade the Runge-Kutta order in 3D
either.

Run:  python demos/02_block3d_convergence.py        (~50 s)
"""

import math

import peridyn as pd


def main():
    dts = [1.0e-5, 0.5e-5]
    for order in (3, 4):
        cfg = pd.apply_overrides(pd.preset_config("block3d"), order=order)
        rows = pd.converge(cfg, dts, [1, 8])
        print(f"\n=== 3D block, RK{order} ===")
        print(f"{'dt (s)':>12} {'K':>3} {'error':>12} {'order':>7}")
        for row in rows:
            if row.scope != "all":
                continue
            cr = "-" if row.cr is None else (
                "sat" if math.isinf(row.cr) else f"{row.cr:.2f}")
            print(f"{row.dt:12.3e} {row.K:3d} {row.error:12.4e} {cr:>7}")


if __name__ == "__main__":
    main()
