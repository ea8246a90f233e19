"""Fast self-test of the benchmark (under a minute):

    python3 -m pytest perfbench/selftest.py

Each workload runs at reduced length (--short) untraced and traced, each in
a fresh process.  The traced run must reproduce the untraced final state
bit for bit and match the closed-form call counts; the closed forms must
give the counts of the full-length crack2d preset (300 coarse steps).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads as wl  # noqa: E402


def test_closed_forms_at_preset_length():
    mts = wl.mts_counts(300, 4, 2, fracture=True)
    assert (mts["forces.rates.full_calls"], mts["forces.rates.coarse_calls"],
            mts["forces.rates.fine_calls"]) == (317, 894, 2086)
    assert (mts["forces.update_damage.full_calls"],
            mts["forces.update_damage.fine_calls"],
            mts["forces.update_damage.coarse_calls"]) == (4, 596, 298)
    upd = wl.upd_counts(600, 4, fracture=True)
    assert (upd["forces.rates.full_calls"],
            upd["forces.update_damage.full_calls"]) == (2400, 600)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--short"],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    hashes = next(json.loads(line[len("hashes "):]) for line in lines
                  if line.startswith("hashes "))
    return json.loads(lines[-1]), hashes


@pytest.mark.parametrize("workload", wl.NAMES)
def test_short_run_traced_and_untraced(workload):
    plain, plain_hashes = _run(workload, trace=0)
    traced, traced_hashes = _run(workload, trace=1)
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0
    assert set(plain["metrics"]) == {"run_s", "setup_s", "peak_rss_mib"}
    assert traced_hashes == plain_hashes
    expected = wl.expected_counts(wl.make(workload, short=True))
    got = {name: traced["metrics"][name]["value"] for name in expected}
    assert got == expected
    assert "trace.overhead_s" in traced["metrics"]
