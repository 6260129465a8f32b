"""Benchmark child process: runs one workload and prints one JSON line.

Started by run.py with mfd on PYTHONPATH.  Without --trace it runs cases
closed-loop (the next case starts when the previous one returned) until
the case time reaches --seconds, checking each output right after it,
outside the timed interval.  With --trace it runs a fixed number of cases
once untraced, then again with the layer tracer installed.
"""

import argparse
import itertools
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter

import workloads
from tracer import LAYERS, Tracer


def _rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def _percentile_ms(times, q):
    if len(times) < 2:
        return times[0] * 1e3
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1e3


class Tally:
    """Failed cases by reason, and whether each failure is a known defect."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.unexplained = 0
        self.reasons = Counter()

    def add(self, case, out, reason, reference=None):
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        known_defect = getattr(self.workload, "known_defect", None)
        known = known_defect is not None and known_defect(case, out, reference)
        if not known:
            self.unexplained += 1
        categories = ",".join(sorted(case.get("categories", ()))) or case.get("label", "")
        self.reasons[f"{'known' if known else 'NEW'} [{categories}] "
                     f"{case.get('label', '')}: {reason}"] += 1

    def summary(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "unexplained": self.unexplained, "reasons": dict(self.reasons)}


def _run_case(run, case):
    start = time.perf_counter()
    try:
        out, error = run(case), None
    except Exception as exc:  # noqa: BLE001 - an unexpected raise is a failed case
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    return out, error, time.perf_counter() - start


def timed(wl, stream, seconds, round_size):
    tally = Tally(wl)
    raw, scaled = [], []
    spent = 0.0
    probe = wl.speed_probe()
    wall_start = time.perf_counter()
    reference = getattr(wl, "reference", None)
    # Runs end on a round boundary, so every run sees whole rounds of the
    # size ladder and the percentiles do not move with where a run stopped.
    # The case time counted against --seconds is scaled, so the number of
    # rounds, and with it the mix of cases, does not follow the host's
    # speed.  The wall cap keeps the run well inside its time limit even when the
    # untimed oracle work (in-process reference runs) is slow.
    while (len(raw) % round_size or not raw or spent < seconds) and \
            time.perf_counter() - wall_start < seconds + 90:
        case = next(stream)
        probe.sample()  # the host's speed drifts within a second
        out, error, dt = _run_case(wl.run, case)
        raw.append(dt)
        scaled.append(dt * probe.scale())
        spent += scaled[-1]
        ref = reference(case) if reference and error is None else None
        if error is None:
            error = wl.check(case, out, ref) if reference else wl.check(case, out)
        tally.add(case, out, error, ref)
    own = _rss_mb(resource.RUSAGE_SELF)
    children = _rss_mb(resource.RUSAGE_CHILDREN)
    # For the command-line workload the measured processes are the cold
    # `mfd` subprocesses, not this worker.
    peak = children if isinstance(wl, workloads.CliBatch) else own
    ok = tally.attempted - tally.failed

    def latency(times):
        return {"case_p50_ms": statistics.median(times) * 1e3,
                "case_p90_ms": _percentile_ms(times, 90),
                "cases_per_s": ok / sum(times)}

    metrics = dict(latency(scaled), ok_ratio=ok / tally.attempted, peak_rss_mb=peak)
    return tally, metrics, {"unscaled": latency(raw)}


def traced(wl, cases_in, seconds, trace_out):
    run = getattr(wl, "run_traced", wl.run)
    cases, untraced_s = [], 0.0
    # A fixed number of cases, so that counts repeat exactly for a seed;
    # the time cap only binds if the program becomes several times slower.
    for case in cases_in:
        _, _, dt = _run_case(run, case)
        cases.append(case)
        untraced_s += dt
        if untraced_s >= seconds:
            break

    sums = Counter()
    residual_max = [0.0]

    def tower_trace(tr):
        sums["tower.iterations"] += tr.iterations
        residual_max[0] = max(residual_max[0], tr.residual)

    observers = {
        "tower.iterate_to_fixed_point": tower_trace,
        "loopbasis.build_loop_algebra": lambda pair: sums.update(
            {"loopbasis.n1_loops": len(pair.n1_loops)}),
        "loopbasis.pimsner_popa_basis": lambda basis: sums.update(
            {"loopbasis.basis_size": len(basis)}),
    }
    tracer = Tracer(observers)
    outputs = []
    traced_s = 0.0
    with tracer:
        for i, case in enumerate(cases):
            tracer.case_id = i
            out, error, dt = _run_case(run, case)
            traced_s += dt
            outputs.append((out, error))

    tally = Tally(wl)
    digits = 0
    report_bytes = 0
    for case, (out, error) in zip(cases, outputs):
        if error is None:
            error = wl.check(case, out)
        tally.add(case, out, error)
        if out is None:
            continue
        if isinstance(wl, workloads.CliBatch):
            report_bytes += len(out["stdout"].encode("utf-8"))
            try:
                digits = max(digits, workloads.denominator_digits(json.loads(out["stdout"])))
            except ValueError:
                pass
        else:
            digits = max(digits, workloads.denominator_digits(out))

    agg = tracer.aggregate()

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    phi_steps = calls("tower.phi_step") + sums["tower.iterations"]
    downward = calls("tower.downward_feasibility")
    extras = {
        "distortion.extend_per_phi":
            calls("distortion.extend_to_complete") / phi_steps if phi_steps else 0.0,
        "tower.iterations": sums["tower.iterations"],
        "tower.final_residual_max": residual_max[0],
        "lp.reach_ratio": calls("lp.solve_lp") / downward if downward else 0.0,
        "numbers.denominator_digits_max": digits,
        "loopbasis.n1_loops": sums["loopbasis.n1_loops"],
        "loopbasis.basis_size": sums["loopbasis.basis_size"],
        "cli.report_bytes": report_bytes,
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.cases": len(cases),
    }
    extras.update({f"{layer}.errors": tracer.errors[f"{layer}.errors"] for layer in LAYERS})
    extras["errors.NonConvergence"] = tracer.errors["errors.NonConvergence"]
    extras["errors.ValueError"] = tracer.errors["errors.ValueError"]

    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"cases": len(cases), "untraced_s": untraced_s, "traced_s": traced_s,
                   "functions": agg, "errors": dict(tracer.errors), "extras": extras,
                   "spans": tracer.spans}, fh)
    return tally, {}, {"functions": agg, "extras": extras}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]()
    stream = wl.stream(random.Random(args.seed), args.tiny, args.workdir)
    if args.trace:
        rounds = 1 if args.tiny else wl.TRACE_ROUNDS
        cases = list(itertools.islice(stream, rounds * wl.round_size(args.tiny)))
        trace_out = os.path.join(args.workdir, "trace.json")
        tally, metrics, details = traced(wl, cases, args.seconds, trace_out)
    else:
        tally, metrics, details = timed(wl, stream, args.seconds, wl.round_size(args.tiny))
    for reason, count in sorted(tally.reasons.items()):
        print(f"mfdbench: {count} x {reason}", file=sys.stderr)
    print(json.dumps({"tally": tally.summary(), "metrics": metrics, "details": details}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
