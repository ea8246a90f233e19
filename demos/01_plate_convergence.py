"""Temporal convergence of the multi-time-step scheme on a loaded plate.

A 2D plate (1 m x 0.5 m) is pulled transversely at one edge by a body-force
layer.  We sweep the coarse time step over successive halvings and, for
each refinement level K, measure the final-time L2 displacement error
against a fine-step single-rate (UPD) reference on the same mesh.  The
observed order tracks the Runge-Kutta order (3 or 4), and at fixed dt the
error drops as K grows until the coarse-region error floor is reached.

Run:  python demos/01_plate_convergence.py [--full]

--full sweeps four step sizes (a couple of minutes); the default two-level
sweep finishes in ~5 s.
"""

import argparse
import math

import peridyn as pd


def main():
    args = argparse.ArgumentParser()
    args.add_argument("--full", action="store_true",
                      help="sweep 4 step sizes instead of 2")
    opts = args.parse_args()

    dts = [1.0e-5 / 2 ** k for k in range(4 if opts.full else 2)]
    k_list = [1, 2, 4, 8]

    for order in (3, 4):
        cfg = pd.apply_overrides(pd.preset_config("plate2d"), order=order)
        rows = pd.converge(cfg, dts, k_list)
        print(f"\n=== RK{order}: L2 error of u_y vs UPD reference "
              f"(dt_ref = dt_min/16) ===")
        print(f"{'dt (s)':>12} {'K':>3} {'error':>12} {'order':>7}")
        for row in rows:
            if row.scope != "all":
                continue
            cr = "-" if row.cr is None else (
                "sat" if math.isinf(row.cr) else f"{row.cr:.2f}")
            print(f"{row.dt:12.3e} {row.K:3d} {row.error:12.4e} {cr:>7}")
        print("Reading guide: 'order' should settle near the RK order; "
              "within one dt block the error shrinks as K grows.")


if __name__ == "__main__":
    main()
