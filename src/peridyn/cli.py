"""The `pd` command line: run, converge, compare, validate.

Exit codes: 0 success, 2 configuration error, 3 numerical instability or
other solver failure (running out of memory included), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .app import ConfigError, PRESETS, apply_overrides, compare, converge, \
    parse_config, run, serialize_config
from .forces import SimulationError
from .geometry import GeometryError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _add_common(sub):
    sub.add_argument("--config", required=True,
                     help="config file path, or a preset name "
                          f"({', '.join(sorted(PRESETS))})")
    sub.add_argument("--paper-scale", action="store_true",
                     help="use the full-scale preset variants")
    sub.add_argument("--order", type=int, choices=(3, 4), default=None)
    sub.add_argument("--out", default=None, help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pd", description="bond-based peridynamics solver (UPD / MTS)")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="execute one simulation")
    _add_common(p_run)
    p_run.add_argument("--scheme", choices=("upd", "mts"), default=None)
    p_run.add_argument("--dt", type=float, default=None)
    p_run.add_argument("--K", type=int, default=None)

    p_conv = subs.add_parser("converge", help="dt x K error/order sweep")
    _add_common(p_conv)
    p_conv.add_argument("--dt-list", required=True,
                        help="comma-separated coarse steps, halving")
    p_conv.add_argument("--k-list", default="1,2,4,8",
                        help="comma-separated refinement levels")
    p_conv.add_argument("--reference-dt", type=float, default=None,
                        help="reference step (default: finest dt / 16)")

    p_cmp = subs.add_parser("compare",
                            help="time MTS(K) against UPD at dt/K")
    _add_common(p_cmp)
    p_cmp.add_argument("--K", type=int, default=None)

    p_val = subs.add_parser("validate", help="check a config and exit")
    _add_common(p_val)
    return parser


def _number_list(text: str, convert, option: str) -> list:
    """Parse a comma-separated option value; ConfigError on a bad entry."""
    try:
        return [convert(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(
            [f"{option}: expected comma-separated numbers, got {text!r}"]) \
            from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = apply_overrides(
            parse_config(args.config, paper_scale=args.paper_scale),
            **{name: getattr(args, name, None)
               for name in ("scheme", "order", "dt", "K", "out")})
        if args.command == "validate":
            sys.stdout.write(serialize_config(cfg))
            return EXIT_OK
        if args.command == "run":
            traj, _, paths = run(cfg)
            print(f"completed {cfg.time.n_steps} steps "
                  f"(t = {traj.final.t:.6e} s); wrote {len(paths)} artifacts")
            return EXIT_OK
        if args.command == "converge":
            dt_list = _number_list(args.dt_list, float, "--dt-list")
            k_list = _number_list(args.k_list, int, "--k-list")
            out_dir = cfg.output.directory
            out_csv = os.path.join(out_dir, "convergence.csv")
            rows = converge(cfg, dt_list, k_list,
                            reference_dt=args.reference_dt, out_csv=out_csv,
                            cache_dir=os.path.join(out_dir, "refcache"))
            print(f"wrote {len(rows)} rows to {out_csv}")
            return EXIT_OK
        if args.command == "compare":
            t_mts, t_upd, ratio, diff = compare(
                cfg, out_dir=cfg.output.directory)
            print(f"MTS {t_mts:.3f}s vs UPD(dt/K) {t_upd:.3f}s "
                  f"(ratio {ratio:.3f}); final L2 difference {diff:.3e}")
            return EXIT_OK
    except (ConfigError, GeometryError) as err:
        print(f"configuration error:\n{err}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as err:
        print(f"out of memory: {err or 'an allocation failed'}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"I/O failure: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
