"""Benchmark of the peridyn solver: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload crack-mts --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --hashes            # final-state SHA-256, anew
    python3 -m pytest perfbench/selftest.py      # fast self-test (--short)

Run from the repository root.  A run sets up the workload several times
(setup_s is the median), then repeats whole solve rounds until --seconds of
solving have been measured (a round longer than that runs once; run_s is
the median round).  Every round's outputs are checked.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 1 the run traces one setup and one round, checks the call
counts against their closed forms, and reports the per-layer metrics
instead.  See perfbench/README.md.
"""

# Single-threaded numerics: must precede every numpy import in this process
# and is inherited by the runs that --hashes starts.
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
RESULTS_DIR = HERE / "results"
CHILD_TIMEOUT_S = 170
_NAMES = ("crack-mts", "crack-upd", "plate-converge")  # = workloads.NAMES

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def _machine() -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            model = next((line.split(":", 1)[1].strip() for line in fp
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "numpy": numpy.__version__, "python": platform.python_version()}


def _emit(args, record: dict):
    """Print the record's lines, the JSON result last, and keep a copy."""
    print("machine " + json.dumps(record["machine"]))
    print("hashes " + json.dumps(record["hashes"]))
    for problem in record["problems"]:
        print("check failed: " + problem)
    for name, value in record["metrics"].items():
        print(f"metric {name} {value!r} {record['units'][name]}")
    RESULTS_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}{'-short' if args.short else ''}"
    path = RESULTS_DIR / f"{tag}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not record["problems"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": record["units"][name]}
                    for name, value in record["metrics"].items()}}))


class _Session:
    """Operations of one run: setups and rounds, with failures counted.
    ``timer`` is the context manager that times each of them."""

    def __init__(self, wl, workload, timer):
        self.wl = wl
        self.w = workload
        self.timer = timer
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def setup(self):
        """Returns ((scenario, op), Interval), or None when setup raised."""
        self.attempted += 1
        try:
            with self.timer() as interval:
                built = self.wl.setup(self.w)
        except self.wl.FAILURES as err:
            self.failed += 1
            print(f"setup failed: {err!r}", file=sys.stderr)
            return None
        return built, interval

    def round(self, scenario, op, tracer=None):
        """One timed round, then (untimed) its checks; returns
        (Interval, hashes), or None when the round raised."""
        self.attempted += 1
        OUT_DIR.mkdir(exist_ok=True)
        out_dir = tempfile.mkdtemp(prefix=f"{self.w.name}-", dir=OUT_DIR)
        try:
            if tracer is not None:
                tracer.install()
            try:
                with self.timer() as interval:
                    out = self.wl.run_round(self.w, scenario, op, out_dir)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            self.wl.collect(self.w, scenario, out, out_dir)
            self.problems += self.wl.check(self.w, scenario, out)
            return interval, self.wl.hashes(self.w, out)
        except self.wl.FAILURES as err:
            self.failed += 1
            print(f"round failed: {err!r}", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


def _plain_run(args, wl) -> int:
    from calibration import Calibrator

    w = wl.make(args.workload, short=args.short)
    session = _Session(wl, w, Calibrator(*w.burst).timed)
    setups, built = [], None
    for _ in range(w.setup_reps):
        done = session.setup()
        if done is not None:
            built, interval = done
            setups.append(interval)
    if built is None:
        print("every setup failed", file=sys.stderr)
        return 1
    scenario, op = built
    rounds, hashes, measured = [], None, 0.0
    while True:
        t0 = time.perf_counter()
        result = session.round(scenario, op)
        if result is None:
            measured += time.perf_counter() - t0
        else:
            rounds.append(result[0])
            hashes = result[1]
            measured += result[0].wall_s
        if measured >= args.seconds:
            break
        op = scenario.fresh_operator()
    if not rounds:
        print("every round failed", file=sys.stderr)
        return 1
    metrics = {
        "run_s": float(statistics.median(r.scaled_s for r in rounds)),
        "setup_s": float(statistics.median(iv.scaled_s for iv in setups)),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("wall run_s %r setup_s %r" % (
        statistics.median(r.wall_s for r in rounds),
        statistics.median(iv.wall_s for iv in setups)))
    _emit(args, {
        "workload": args.workload, "short": args.short, "seed": args.seed,
        "trace": 0, "machine": _machine(), "hashes": hashes,
        "problems": session.problems, "attempted": session.attempted,
        "failed": session.failed, "metrics": metrics,
        "units": dict(END_TO_END),
        "rounds": [vars(r) for r in rounds],
        "setups": [vars(iv) for iv in setups]})
    return 0


def _traced_run(args, wl) -> int:
    from calibration import wall_timer
    from tracer import LAYER_METRICS, Tracer

    w = wl.make(args.workload, short=args.short)
    session = _Session(wl, w, wall_timer)
    tracer = Tracer()
    tracer.install()
    try:
        done = session.setup()
    finally:
        tracer.uninstall()
    if done is None:
        return 1
    result = session.round(*done[0], tracer=tracer)
    if result is None:
        return 1
    interval, hashes = result

    problems = list(session.problems)
    for name, expect in wl.expected_counts(w).items():
        got = tracer.value(name)
        if got != expect:
            problems.append(f"{name}: traced {got}, closed form {expect}")
    for name in tracer.unexpected_spans():
        problems.append(f"unclassified span {name}")
    _emit(args, {
        "workload": args.workload, "short": args.short, "seed": args.seed,
        "trace": 1, "machine": _machine(), "hashes": hashes,
        "problems": problems, "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: tracer.value(name) for name, _, _ in LAYER_METRICS},
        "units": {name: unit for name, unit, _ in LAYER_METRICS},
        "traced_run_s": interval.wall_s})
    return 0


def _print_hashes(args) -> int:
    names = [args.workload] if args.workload else list(_NAMES)
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seconds", "1"]
        child = subprocess.run(cmd + (["--short"] if args.short else []),
                               capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return 1
        lines = child.stdout.splitlines()
        hashes = next(json.loads(line[len("hashes "):]) for line in lines
                      if line.startswith("hashes "))
        result = json.loads(lines[-1])
        status = "" if result["correct"] else "  (checks failed)"
        print(f"{name}{' (short)' if args.short else ''}: "
              + " ".join(f"{k}={v}" for k, v in hashes.items()) + status)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the workloads are fixed presets")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="solve time to measure; whole rounds only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="reduced lengths for the self-test; skips the "
                             "checks that need the full length")
    parser.add_argument("--hashes", action="store_true",
                        help="print the final-state hashes of each workload")
    args = parser.parse_args(argv)
    if not (args.hashes or args.workload):
        parser.error("--workload is required")
    if not (ROOT / "src" / "peridyn" / "__init__.py").is_file():
        print(f"peridyn sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.hashes:
        return _print_hashes(args)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    return _traced_run(args, wl) if args.trace else _plain_run(args, wl)


if __name__ == "__main__":
    sys.exit(main())
