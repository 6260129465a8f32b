"""mfd benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 mfdbench/run.py --workload tower-float --seed 1 --seconds 17 --trace 0

With ``--trace 0`` the last line of stdout carries every end-to-end metric
of BENCHMARK.json, with ``--trace 1`` every per-layer metric.  The
workload runs in a fresh child process (worker.py) that imports mfd from
the checkout's ``src``; set-up time is measured here, in separate fresh
interpreters.  Failing cases are listed on stderr.  Build products and
generated inputs go to ``.bench_build/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from timing import interpreter_probe, run_process

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 165


def fail(message):
    print(f"mfdbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env.pop("MFD_TOLERANCE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Closed loop, one case at a time: BLAS may use at most every core
    # this process may run on.
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def setup_seconds(code, env, runs):
    """Wall times of `python3 -c code` in fresh interpreters, each right
    after a bare interpreter start that probes the host's speed, following
    one unmeasured run that fills the bytecode cache.

    Returns medians of (scaled import time, unscaled import time, unscaled
    bare start), in seconds."""
    probe = interpreter_probe(env)
    samples = []
    for k in range(runs + 1):
        bare = probe.sample()
        start = time.perf_counter()
        returncode, _, err = run_process([sys.executable, "-c", code], env=env,
                                         capture=True, limit_s=60)
        dt = time.perf_counter() - start
        if returncode != 0:
            fail(f"`python3 -c {code!r}` failed:\n{err.decode(errors='replace')}")
        if k:
            samples.append((dt * probe.scale(), dt, bare))
    return tuple(statistics.median(col) for col in zip(*samples))


def run_worker(args, env, workdir):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.tiny:
        cmd.append("--tiny")
    # A session of its own lets a timeout stop the worker's subprocesses too.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}")
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        fail("worker printed no result")
    return json.loads(lines[-1])


def layer_value(name, functions, extras):
    if name in extras:
        return extras[name]
    base, kind = name.rsplit(".", 1)
    if kind not in ("calls", "self_ms"):
        raise KeyError(name)
    return functions.get(base, {}).get(kind, 0)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small size ladders, for the smoke test")
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path.name} not found next to {HERE.name}/")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "mfd" / "__init__.py").is_file():
        fail("src/mfd not found: run from the root of an mfd checkout")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    env = child_env()
    workdir = ROOT / ".bench_build" / "mfdbench" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    target = "mfd.cli" if args.workload == "cli-batch" else "mfd"
    setup_s, setup_unscaled_s, bare_s = setup_seconds(f"import {target}", env, SETUP_RUNS)
    extra = {"cli.interp_ms": bare_s * 1e3}
    if args.trace:
        extra["cli.import_ms"] = (setup_unscaled_s if target == "mfd.cli" else
                                  setup_seconds("import mfd.cli", env, SETUP_RUNS)[1]) * 1e3
    result = run_worker(args, env, workdir)

    tally = result["tally"]
    if args.trace:
        functions = result["details"]["functions"]
        extras = dict(result["details"]["extras"], **extra)
        declared = spec["per_layer"]
        metrics = {m["name"]: {"value": layer_value(m["name"], functions, extras),
                               "unit": m["unit"]} for m in declared}
    else:
        values = dict(result["metrics"], setup_s=setup_s)
        unscaled = dict(result["details"]["unscaled"], setup_s=setup_unscaled_s)
        print("mfdbench: unscaled wall times: " +
              ", ".join(f"{k}={v:.6g}" for k, v in unscaled.items()), file=sys.stderr)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    if tally["failed"]:
        print(f"mfdbench: {tally['failed']} of {tally['attempted']} cases failed, "
              f"{tally['unexplained']} outside the known defects", file=sys.stderr)
    print(json.dumps({"correct": tally["unexplained"] == 0,
                      "attempted": tally["attempted"], "failed": tally["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
