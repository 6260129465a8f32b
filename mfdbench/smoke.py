"""Smoke test of the benchmark itself, on tiny size ladders.

    python3 mfdbench/smoke.py

Checks that every run prints a result line with every declared metric and
its unit, that each workload's oracle passes a real output and fires on
the same output with one entry perturbed, and that the benchmark exits
non-zero without a result when the mfd sources are missing.
"""

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
os.environ["PYTHONPATH"] = str(ROOT / "src")  # for the cli-batch subprocesses

import workloads  # noqa: E402  (needs the paths above)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = ROOT / ".bench_build" / "mfdbench-smoke"


def run_bench(workload, trace, cwd_root=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd_root / "mfdbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd_root, capture_output=True, text=True, timeout=170)


def check_result_line(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: {proc.stderr}"
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    if not trace:
        for m in declared:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def check_oracle_fires(name):
    wl = workloads.WORKLOADS[name]()
    pool = list(itertools.islice(wl.stream(random.Random(3), True, str(SCRATCH / name)),
                                 4 * wl.round_size(True)))
    case = next(c for c in pool if c.get("categories", {"ok"}) == {"ok"})
    out = wl.run(case)
    extra = (wl.reference(case),) if hasattr(wl, "reference") else ()
    assert wl.check(case, out, *extra) is None, f"{name}: oracle rejects a correct output"
    bad = wl.corrupt(out)
    assert wl.check(case, bad, *extra) is not None, f"{name}: oracle misses a perturbed entry"
    if name == "exact-calculus":  # a short-cut Infeasible answer
        case = next(c for c in pool if c["feasible"])
        bad = dict(wl.run(case), strict=(
            "Infeasible", None, {"reason": "no solution of M pi = 1 inside [0,1]"}))
        assert wl.check(case, bad) is not None, "downward oracle misses a wrong Infeasible"
    if name == "cli-batch":  # a known defect forgives only its documented outcome
        case = next(c for c in pool if "m0_frac" in c.get("categories", ()))
        out = wl.run(case)
        assert wl.check(case, out) is not None, "m0_frac spec no longer fails"
        assert wl.known_defect(case, out), "documented m0_frac outcome not recognised"
        assert not wl.known_defect(case, dict(out, rc=3)), "known defect forgives any failure"
    if name == "loop-model":  # the relative-commutant oracle as well
        case = next(c for c in pool if c["kind"] == "commutant")
        bad = wl.corrupt(wl.run(case))
        assert wl.check(case, bad) is not None, "commutant oracle misses a perturbed entry"


def check_fails_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "mfdbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("tower-float", 0, cwd_root=bare)
    assert proc.returncode != 0, "benchmark succeeded without src/mfd"
    assert not proc.stdout.strip(), "benchmark printed a result without src/mfd"


def main():
    for w in SPEC["workloads"]:
        check_oracle_fires(w["name"])
        for trace in (0, 1):
            check_result_line(w["name"], trace)
        print(f"ok {w['name']}")
    check_fails_without_sources()
    print("ok fails without sources")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
