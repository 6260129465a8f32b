"""Command-line front end.

Input files are JSON documents describing an inclusion (see
docs/schema.md).  Every command prints a single report to stdout, JSON
by default, with all matrix entries rendered as strings: rationals as
"p/q", floats with 17 significant digits.  Exit codes: 0 success, 1
domain error (an MFDError, or an ArithmeticError when a double over- or
underflows mid-computation), 2 parse error or bad usage.

load_spec parses a file into a SpecFile, whose derived values (sigma,
the completed delta, its realizability verdict and the Markov trace pair)
are cached properties computed on first use, as the Perron data of D and
of the Jones matrix are on its inclusion.  Each cmd_* reads them, and
report-all is the other commands' sections over one SpecFile, so a run
solves each matrix once.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import core, distortion, loopbasis, markov, morita, tower
from .errors import MFDError, ParseError
from .numbers import format_scalar, parse_scalar, to_float

COMMANDS = ("perron", "extend", "markov-trace", "homogeneity", "tower",
            "downward", "morita-rescale", "realizable", "loopbasis-verify",
            "report-all")


# ---------------------------------------------------------------------------
# Input parsing.

@dataclass
class SpecFile:
    """A parsed spec; the values derived from it are computed on first use."""
    path: str
    digest: str
    mode: str
    tolerance: Optional[float]  # None: each routine's own default
    incl: object
    given_delta: object  # the spec's delta as parsed (DistortionMatrix), or None
    trace_A: object
    trace_B: object
    m0: object
    Lambda: object

    @cached_property
    def sigma(self):
        return core.standard_distortion(self.incl.perron)

    @cached_property
    def delta(self):
        """The distortion the commands use, completed with its potentials:
        the spec's delta, else the one of trace_A, else the standard one."""
        if self.given_delta is not None:
            return distortion.extend_to_complete(self.given_delta, self.incl.graph,
                                                 self.tolerance)
        if self.trace_A is not None:
            return markov.distortion_from_trace(self.trace_A, self.incl)
        return distortion.extend_to_complete(self.sigma, self.incl.graph, self.tolerance)

    @cached_property
    def realizability(self):
        """Unit column sums of Delta/delta: markov-trace's and realizable's verdict."""
        return morita.realizability_check(self.delta, self.incl, tol=self.tolerance)

    @cached_property
    def trace_pair(self):
        """The Markov trace pair of delta, whether or not T has unit column
        sums: homogeneity reads it for an unrealizable delta too."""
        return markov.markov_trace(self.incl, self.delta, require_normalized=False,
                                   tol=self.tolerance)


def _parse_entry(raw, mode, field, allow_null=False, positive=False):
    """A matrix entry: number, "p/q" / decimal string, or [p, q] pair;
    null only with allow_null (giving None), a number > 0 with positive."""
    if raw is None:
        if not allow_null:
            raise ParseError("null not allowed here", field=field)
        return None
    if isinstance(raw, list):
        if len(raw) != 2 or not all(isinstance(x, int) for x in raw):
            raise ParseError("a rational pair must be two integers", field=field)
        try:
            raw = Fraction(raw[0], raw[1])
        except ZeroDivisionError:
            raise ParseError("zero denominator", field=field)
    try:
        value = parse_scalar(raw, mode)
    except ValueError as exc:
        raise ParseError(str(exc), field=field)
    if positive and not value > 0:
        raise ParseError(f"expected a number > 0, got {format_scalar(value)}", field=field)
    return value


def _parse_matrix(raw, mode, field, allow_null=False, positive=False, shape=None):
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise ParseError("expected a non-empty nested array", field=field)
    out = []
    for i, row in enumerate(raw):
        if len(row) != len(raw[0]):
            raise ParseError(f"has {len(row)} entries, row 0 has {len(raw[0])}",
                             field=f"{field}[{i}]")
        out.append([_parse_entry(x, mode, f"{field}[{i}][{j}]", allow_null, positive)
                    for j, x in enumerate(row)])
    if shape is not None and (len(raw), len(raw[0])) != shape:
        raise ParseError(f"is {len(raw)}x{len(raw[0])}, D is {shape[0]}x{shape[1]}", field=field)
    return out


def _parse_vector(raw, mode, field, positive=False):
    if not isinstance(raw, list) or not raw:
        raise ParseError("expected a non-empty array", field=field)
    return [_parse_entry(x, mode, f"{field}[{k}]", positive=positive)
            for k, x in enumerate(raw)]


def _tolerance(value, field):
    """A comparison tolerance: a finite number >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ParseError(f"expected a finite number >= 0, got {value!r}", field=field)
    return value


def _count(value, field, least):
    """An entry of m0 or Lambda: an integer no smaller than `least`."""
    if value != int(value) or value < least:
        raise ParseError(f"expected an integer >= {least}, got {value}", field=field)
    return int(value)


def _json_float(text):
    """A JSON number with a fraction or exponent, as float.  One that is
    nonzero but rounds to 0.0 stays text, which parse_scalar refuses under
    the entry's field name."""
    value = float(text)
    return text if value == 0 and Decimal(text) else value


def load_spec(path, mode_override=None, tol_override=None):
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    digest = hashlib.sha256(blob).hexdigest()
    try:
        doc = json.loads(blob.decode("utf-8"), parse_float=_json_float)
    except ValueError as exc:  # bad UTF-8, bad JSON or an over-long integer
        raise ParseError(f"{path}: {exc}")
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")

    mode = mode_override or doc.get("number_mode", "rational")
    if mode not in ("rational", "float"):
        raise ParseError(f"must be 'rational' or 'float', got {mode!r}",
                         field="number_mode")
    if tol_override is not None:
        tolerance = tol_override
    elif "tolerance" in doc:
        try:
            tolerance = _tolerance(float(parse_scalar(doc["tolerance"], "float")), "tolerance")
        except ValueError as exc:
            raise ParseError(str(exc), field="tolerance")
    else:
        tolerance = None

    if "D" not in doc:
        raise ParseError("missing dimension matrix", field="D")
    D = _parse_matrix(doc["D"], mode, "D")
    shape = (len(D), len(D[0]))
    Delta = (_parse_matrix(doc["Delta"], mode, "Delta", shape=shape)
             if doc.get("Delta") is not None else None)
    incl = core.validate_inclusion(D, Delta)
    if "a" in doc and doc["a"] != incl.a:
        raise ParseError(f"{doc['a']} does not match D with {incl.a} rows", field="a")
    if "b" in doc and doc["b"] != incl.b:
        raise ParseError(f"{doc['b']} does not match D with {incl.b} columns", field="b")

    delta = None
    if doc.get("delta") is not None:
        rows = _parse_matrix(doc["delta"], mode, "delta", allow_null=True, positive=True,
                             shape=shape)
        delta = distortion.as_distortion(rows, incl.graph)

    trace_A = (_parse_vector(doc["trace_A"], mode, "trace_A", positive=True)
               if doc.get("trace_A") is not None else None)
    trace_B = (_parse_vector(doc["trace_B"], mode, "trace_B", positive=True)
               if doc.get("trace_B") is not None else None)
    if trace_A is not None and len(trace_A) != incl.a:
        raise ParseError("length differs from a", field="trace_A")
    if trace_B is not None and len(trace_B) != incl.b:
        raise ParseError("length differs from b", field="trace_B")

    m0 = None
    Lambda = None
    if doc.get("m0") is not None or doc.get("Lambda") is not None:
        if doc.get("m0") is None or doc.get("Lambda") is None:
            raise ParseError("must be given together with Lambda", field="m0")
        m0 = [_count(x, f"m0[{k}]", 1)
              for k, x in enumerate(_parse_vector(doc["m0"], "rational", "m0"))]
        Lambda = [[_count(x, f"Lambda[{i}][{j}]", 0) for j, x in enumerate(row)]
                  for i, row in enumerate(_parse_matrix(doc["Lambda"], "rational", "Lambda"))]
        if len(Lambda) != len(m0) or any(len(row) != len(Lambda[0]) for row in Lambda):
            raise ParseError(f"needs {len(m0)} rows of equal length, one per entry of m0",
                             field="Lambda")

    return SpecFile(path=path, digest=digest, mode=mode, tolerance=tolerance,
                    incl=incl, given_delta=delta, trace_A=trace_A, trace_B=trace_B,
                    m0=m0, Lambda=Lambda)


# ---------------------------------------------------------------------------
# Serialization.

def ser(x):
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, float, Fraction)):
        return format_scalar(x)
    if isinstance(x, dict):
        return {str(k): ser(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [ser(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return [ser(v) for v in sorted(x)]
    return str(x)


def dm_rows(dm):
    return [[dm.get(i, j) for j in range(dm.b)] for i in range(dm.a)]


def _table_lines(value, indent=""):
    lines = []
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.extend(_table_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}{k} = {v}")
    elif isinstance(value, list):
        if value and all(isinstance(r, list) for r in value):
            cells = [["." if x is None else str(x) for x in row] for row in value]
            widths = [max(len(cells[i][j]) for i in range(len(cells)))
                      for j in range(len(cells[0]))]
            for row in cells:
                lines.append(indent + "  ".join(c.rjust(w) for c, w in zip(row, widths)))
        else:
            for i, v in enumerate(value):
                if isinstance(v, (dict, list)):
                    lines.append(f"{indent}[{i}]:")
                    lines.extend(_table_lines(v, indent + "  "))
                else:
                    lines.append(f"{indent}[{i}] = {v}")
    else:
        lines.append(f"{indent}{value}")
    return lines


def emit(report, fmt):
    if fmt == "table":
        print("\n".join(_table_lines(report)))
    else:
        print(json.dumps(report, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# Command implementations.  Each returns (result, diagnostics).  The order
# in which a command reads the spec's derived values is the order of their
# errors: tower, report-all and morita-rescale without --rho read Perron
# data before delta, the others delta first.  Tuples need no list(): ser
# renders both as JSON arrays.

def cmd_perron(spec, args):
    perron = spec.incl.perron
    result = {"d": perron.d, "d_squared": perron.d_squared, "alpha": perron.alpha,
              "beta": perron.beta, "sigma": spec.sigma,
              "dual_functor": core.dual_functor_hom(perron)}
    return result, {}


def cmd_extend(spec, args):
    if spec.given_delta is None:
        raise ParseError("required by extend", field="delta")
    total = spec.delta
    ghom = distortion.extend_to_groupoid(total, tol=spec.tolerance)
    result = {"delta_complete": total.total, "eta": total.eta, "xi": total.xi,
              "groupoid_values": ghom.values}
    return result, {"objects": ghom.n}


def cmd_markov_trace(spec, args):
    if spec.realizability.failure is not None:
        raise spec.realizability.failure
    tm = markov.trace_matrices(spec.incl, spec.delta)
    tp = spec.trace_pair
    result = {"T": tm.T, "T_tilde": tm.T_tilde, "d_squared": tp.d_squared,
              "trace_A": tp.tr_A, "trace_B": tp.tr_B}
    return result, {}


def cmd_homogeneity(spec, args):
    report = tower.homogeneity_report(spec.incl, spec.delta, trace_pair=spec.trace_pair,
                                      tol=spec.tolerance)
    result = dict(report.flags)
    result["row_sums"] = list(report.row_sums)
    result["homogeneous"] = report.homogeneous
    return result, {"all_flags_agree": report.all_flags_agree}


def _phi_levels(spec, steps):
    """Report levels 0..steps of delta under Phi, and the last level."""
    current = spec.delta
    levels = [{"level": 0, "matrix": dm_rows(current)}]
    for n in range(1, steps + 1):
        current = tower.phi_step(current, spec.incl, spec.tolerance)
        levels.append({"level": n, "matrix": dm_rows(current)})
    return levels, current


def cmd_tower(spec, args):
    sigma, delta = tower.tower_limit(spec.incl), spec.delta
    diagnostics = {}
    if args.steps is not None:
        levels, current = _phi_levels(spec, args.steps)
        residual = tower.relative_residual(current, sigma)
        diagnostics["steps"] = args.steps
    else:
        tol = 1e-9 if spec.tolerance is None else spec.tolerance
        trace = tower.iterate_to_fixed_point(delta, spec.incl, tol=tol,
                                             max_iter=args.max_iter)
        levels = [{"level": lv.level // 2, "matrix": dm_rows(lv.matrix)}
                  for lv in trace.levels if lv.orientation == "even"]
        residual = trace.residual
        diagnostics["iterations"] = trace.iterations
        diagnostics["converged"] = trace.converged
    return {"levels": levels, "sigma": sigma, "residual_to_standard": residual}, diagnostics


def _downward_entry(res):
    entry = {"status": res.status}
    if res.pi is not None:
        entry["pi"] = res.pi
    if res.certificate is not None:
        entry["certificate"] = res.certificate
    return entry


def cmd_downward(spec, args):
    mode = "markov_tunnel" if args.markov_tunnel else "strict"
    entry = _downward_entry(tower.downward_feasibility(spec.incl, spec.delta, mode=mode,
                                                       tol=spec.tolerance))
    result = {"status": entry.pop("status"), "mode": mode, **entry}
    if result["status"] == "Feasible":
        result["gamma"] = dm_rows(tower.downward_distortion(spec.delta, result["pi"]))
    return result, {}


def cmd_morita_rescale(spec, args):
    if args.rho is not None:
        delta = spec.delta
        parts = [p.strip() for p in args.rho.split(",") if p.strip()]
        rho = [_parse_entry(p, spec.mode, "--rho", positive=True) for p in parts]
        if len(rho) != spec.incl.a:
            raise ParseError(f"needs {spec.incl.a} entries, got {len(rho)}", field="--rho")
        rescaled = morita.morita_distortion(delta, spec.incl, rho)
        result = {"rho": rho, "delta_rescaled": dm_rows(rescaled)}
    else:
        sigma, delta = tower.tower_limit(spec.incl), spec.delta
        weights = morita.rescale_to_standard(delta, spec.incl, tol=spec.tolerance)
        rescaled = morita.morita_distortion(delta, spec.incl, weights)
        dev = max(abs(to_float(rescaled.get(i, j)) - sigma[i][j]) / sigma[i][j]
                  for (i, j) in spec.incl.graph.edges)
        result = {"rho": weights.rho, "delta_rescaled": dm_rows(rescaled),
                  "residual_to_standard": dev}
    return result, {}


def cmd_realizable(spec, args):
    res = spec.realizability
    result = {"realizable": res.realizable, "eta": res.eta, "xi": res.xi}
    if res.violation is not None:
        result["violation"] = res.violation
    return result, {}


def cmd_loopbasis_verify(spec, args):
    if spec.m0 is None:
        raise ParseError("required by loopbasis-verify, together with Lambda",
                         field="m0")
    pair = loopbasis.build_loop_algebra(spec.m0, spec.Lambda)
    basis = loopbasis.pimsner_popa_basis(pair)
    report = loopbasis.verify_pp_identity(pair, basis)
    transfer = loopbasis.transfer_matrix(pair)
    dens = loopbasis.density_sequence(pair, 6 if args.steps is None else args.steps, basis)
    result = {
        "d_squared": pair.d_squared,
        "lambda0": list(pair.lambda0),
        "lambda1": list(pair.lambda1),
        "loop_counts": {"N0": len(pair.n0_loops), "N1": len(pair.n1_loops)},
        "watatani_deviation": report["watatani_deviation"],
        "pp_deviation": report["pp_deviation"],
        "ok": bool(report["watatani_ok"] and report["pp_ok"]),
        "transfer_matrix": [list(r) for r in transfer],
        "densities": [list(h) for h in dens.levels],
        "h_inf": list(dens.h_inf),
    }
    diagnostics = {"basis_size": report["basis_size"],
                   "recursion_deviation": format_scalar(dens.recursion_deviation)}
    return result, diagnostics


def cmd_report_all(spec, args):
    """The other commands' sections on one spec, each matrix solved once."""
    incl = spec.incl
    # Perron data, then delta, before any section is built: their errors come first.
    incl.perron
    delta = spec.delta
    sections = {}
    sections["validate"] = {
        "a": incl.a, "b": incl.b,
        "edges": len(incl.graph.edges),
        "connected": True,
    }
    sections["perron"], _ = cmd_perron(spec, args)
    if spec.given_delta is not None:
        sections["extend"], _ = cmd_extend(spec, args)
    try:
        sections["markov_trace"], _ = cmd_markov_trace(spec, args)
        ext = markov.check_extremal_inclusion(incl, delta, spec.trace_pair, tol=spec.tolerance)
        sections["extremality"] = {"E1": ext.e1, "E2": ext.e2, "E3": ext.e3,
                                   "extremal": ext.extremal}
    except MFDError as exc:
        sections["markov_trace"] = {"error": type(exc).__name__, "message": str(exc)}
        sections["extremality"] = None
    sections["homogeneity"], _ = cmd_homogeneity(spec, args)
    sections["downward"] = {mode: _downward_entry(tower.downward_feasibility(
        incl, delta, mode, spec.tolerance)) for mode in ("strict", "markov_tunnel")}
    sections["realizability"], _ = cmd_realizable(spec, args)

    phi_sigma = tower.phi_step(spec.sigma, incl, spec.tolerance)
    sections["standard_fixed_point_residual"] = tower.relative_residual(phi_sigma, spec.sigma)
    sections["tower_preview"] = _phi_levels(spec, 3)[0][1:]

    if spec.m0 is not None:
        same = tuple(map(tuple, spec.Lambda)) == incl.D  # then Lambda shares D's solve
        fdm = markov.finite_dim_markov(incl if same else spec.Lambda, spec.m0)
        sections["finite_dimensional"] = {
            "m0": spec.m0, "m1": fdm.m_B, "lambda0": fdm.lambda_A, "lambda1": fdm.lambda_B,
            "d_squared": fdm.d_squared,
            "super_extremal": markov.check_super_extremal_findim(spec.m0, spec.Lambda),
        }
    return sections, {"delta_source": ("explicit" if spec.given_delta is not None else
                                       "trace_A" if spec.trace_A is not None else "standard")}


DISPATCH = {
    "perron": cmd_perron,
    "extend": cmd_extend,
    "markov-trace": cmd_markov_trace,
    "homogeneity": cmd_homogeneity,
    "tower": cmd_tower,
    "downward": cmd_downward,
    "morita-rescale": cmd_morita_rescale,
    "realizable": cmd_realizable,
    "loopbasis-verify": cmd_loopbasis_verify,
    "report-all": cmd_report_all,
}


# ---------------------------------------------------------------------------
# Argument parsing and entry point.

def _add_common(p):
    p.add_argument("--input", required=True, help="JSON spec file")
    p.add_argument("--mode", choices=("rational", "float"), default=None,
                   help="number mode override")
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    p.add_argument("--max-iter", type=int, default=10 ** 4, dest="max_iter",
                   help="Phi steps allowed to tower before it gives up")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--steps", type=int, default=None, help="tower levels to compute")
    p.add_argument("--rho", default=None, help="comma-separated Morita weights")
    p.add_argument("--markov-tunnel", action="store_true", default=False,
                   dest="markov_tunnel")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mfd",
        description="Distortion calculus for finite-index multifactor inclusions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_common(sub.add_parser(name))
    batch = sub.add_parser("batch", help="run a command over a directory of spec files")
    _add_common(batch)
    batch.add_argument("--command", required=True, choices=COMMANDS,
                       dest="sub_command")
    return parser


def _env_tolerance():
    raw = os.environ.get("MFD_TOLERANCE")
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"MFD_TOLERANCE is not a number: {raw!r}")
    return _tolerance(value, "MFD_TOLERANCE")


def _check_args(args):
    """Reject option values that no command can use."""
    if args.tol is not None:
        _tolerance(args.tol, "--tol")
    if args.steps is not None and args.steps < 0:
        raise ParseError(f"expected an integer >= 0, got {args.steps}", field="--steps")
    if args.max_iter < 1:
        raise ParseError(f"expected an integer >= 1, got {args.max_iter}", field="--max-iter")


def run_single(command, args):
    tol = args.tol if args.tol is not None else _env_tolerance()
    spec = load_spec(args.input, mode_override=args.mode, tol_override=tol)
    result, diagnostics = DISPATCH[command](spec, args)
    flags = {k: v for k, v in vars(args).items()
             if k not in ("command",) and v is not None and v is not False}
    return {
        "command": command,
        "input_digest": spec.digest,
        "mode": spec.mode,
        "flags": ser(flags),
        "result": ser(result),
        "diagnostics": ser(diagnostics),
    }


def _error_payload(exc):
    payload = {}
    for k, v in vars(exc).items():
        try:
            payload[k] = ser(v)
        except Exception:
            payload[k] = str(v)
    return {"error": type(exc).__name__, "message": str(exc), "payload": payload}


def run_batch(args):
    directory = args.input
    if not os.path.isdir(directory):
        raise ParseError(f"not a directory: {directory}")
    names = sorted(n for n in os.listdir(directory) if n.endswith(".json"))
    reports = {}
    counts = {"total": 0, "ok": 0, "domain_error": 0, "parse_error": 0}
    for name in names:
        counts["total"] += 1
        sub_args = argparse.Namespace(**vars(args))
        sub_args.input = os.path.join(directory, name)
        try:
            reports[name] = run_single(args.sub_command, sub_args)
            counts["ok"] += 1
        except (MFDError, ArithmeticError) as exc:
            reports[name] = _error_payload(exc)
            counts["parse_error" if isinstance(exc, ParseError) else "domain_error"] += 1
    return {"command": "batch", "sub_command": args.sub_command,
            "summary": ser(counts), "reports": reports}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        if args.command == "batch":
            report = run_batch(args)
        else:
            report = run_single(args.command, args)
    except (MFDError, ArithmeticError) as exc:
        print(json.dumps(_error_payload(exc), sort_keys=True), file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1
    try:
        emit(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early: end quietly, stdout to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
