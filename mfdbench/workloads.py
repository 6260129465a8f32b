"""The four benchmark workloads: case streams, pipelines and oracles.

A workload yields an endless seeded stream of cases.  ``run`` takes one
case through the workload's whole pipeline and returns what the oracle
needs; ``check`` compares that output with an independent computation and
returns None or the reason the case failed; ``corrupt`` perturbs one entry
of an output so the smoke test can show that the oracle fires.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import sys
from fractions import Fraction

import numpy as np

import gen
import timing
import mfd  # layer functions are looked up on the package at call time,
#             so a traced run sees the tracer's wrappers
import mfd.cli


def _is_exact(x):
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _exact_values(obj):
    if isinstance(obj, dict):
        obj = obj.values()
    for x in obj:
        if isinstance(x, (tuple, list, dict)):
            yield from _exact_values(x)
        elif x is not None:
            yield x


def denominator_digits(obj):
    """Digits of the largest denominator among Fractions and "p/q" strings."""
    best = 0
    stack = [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, Fraction):
            best = max(best, len(str(x.denominator)) if x.denominator != 1 else 0)
        elif isinstance(x, str) and "/" in x:
            q = x.rsplit("/", 1)[1]
            if q.isdigit() and q != "1":
                best = max(best, len(q))
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
    return best


def _solves(M, pi):
    return all(sum(m * p for m, p in zip(row, pi)) == 1 for row in M)


def _rank(rows):
    """Rank of a matrix over the rationals, by exact elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _rounds(templates, make, rng):
    """Endless case stream: every round takes each template once, in an
    order shuffled per round, so any run sees the same mix of sizes."""
    while True:
        order = list(templates)
        rng.shuffle(order)
        for template in order:
            yield make(template, rng)


class _Ladder:
    """A workload whose stream cycles through a ladder of case templates."""

    speed_probe = staticmethod(timing.kernel_probe)

    def stream(self, rng, tiny, workdir):
        return _rounds(self.TINY if tiny else self.TEMPLATES, self._case, rng)

    def round_size(self, tiny):
        return len(self.TINY if tiny else self.TEMPLATES)


class TowerFloat(_Ladder):
    """Float Perron data, the tower to its fixed point, Markov trace, H2-H7."""

    name = "tower-float"
    TOL = 1e-9
    # Path graphs A_{2n} slow power iteration as n grows; random supports
    # of varied density put the time in the tower's distortion updates.
    # The tower on A_{2n} costs about n^3, so long paths (the "spectral"
    # rungs) stop at the Perron data: their fixed point is the standard
    # distortion, and perron_data takes most of their time.  Sizes form a
    # dense ladder so that the percentiles do not sit on a gap between two
    # far-apart case costs.
    TEMPLATES = tuple([("path", n) for n in range(2, 9)] +
                      [("random", n, (0.3, 0.5, 0.8)[n % 3]) for n in range(4, 17)] +
                      [("spectral", n) for n in (24, 32, 40, 48, 56, 64)])
    TINY = (("path", 3), ("random", 4, 0.5), ("spectral", 6))
    TRACE_ROUNDS = 4

    @staticmethod
    def _case(template, rng):
        if template[0] == "random":
            D = gen.connected_support(template[1], template[1], template[2], rng)
        else:
            D = gen.path_inclusion(template[1])
        eta, xi = gen.float_potentials(D, rng)
        Df = [[float(x) for x in row] for row in D]
        return {"label": "-".join(map(str, template)), "D": Df,
                "spectral": template[0] == "spectral",
                "delta0": gen.partial_distortion(Df, eta, xi)}

    def run(self, case):
        incl = mfd.validate_inclusion(case["D"])
        perron = mfd.perron_data(incl)
        if case["spectral"]:
            fixed, iterations, converged = mfd.standard_distortion(perron), 0, True
        else:
            trace = mfd.iterate_to_fixed_point(case["delta0"], incl, tol=self.TOL,
                                               perron=perron)
            fixed = trace.levels[-1].matrix
            iterations, converged = trace.iterations, trace.converged
        pair = mfd.markov_trace(incl, fixed, tol=1e-7)
        report = mfd.homogeneity_report(incl, fixed, trace_pair=pair, perron=perron, tol=1e-7)
        total = fixed if case["spectral"] else fixed.total
        return {"d": perron.d, "beta": list(perron.beta),
                "fixed": [list(r) for r in total],
                "iterations": iterations, "converged": converged,
                "markov_d_squared": pair.d_squared, "homogeneous": report.homogeneous}

    def check(self, case, out):
        D = np.array(case["D"])
        vals, vecs = np.linalg.eigh(D.T @ D)
        d2 = float(vals[-1])
        beta = np.abs(vecs[:, -1])
        beta /= np.linalg.norm(beta)
        alpha = D @ beta
        alpha /= np.linalg.norm(alpha)
        d = np.sqrt(d2)
        if abs(out["d"] ** 2 - d2) > 1e-10 * d2:
            return f"d^2 {out['d'] ** 2!r} differs from eigh {d2!r}"
        if float(np.max(np.abs(np.array(out["beta"]) - beta))) > 1e-8:
            return "beta differs from the eigh eigenvector"
        sigma = d * np.outer(1.0 / alpha, beta)
        residual = float(np.max(np.abs(np.array(out["fixed"]) - sigma) / sigma))
        if not out["converged"] or residual > self.TOL + 1e-10:
            return f"fixed point residual {residual!r} exceeds {self.TOL}"
        if abs(out["markov_d_squared"] - d2) > 1e-8 * d2:
            return "Markov index differs from d^2"
        if not out["homogeneous"]:
            return "fixed point is not homogeneous"
        return None

    @staticmethod
    def corrupt(out):
        bad = copy.deepcopy(out)
        bad["fixed"][0][0] *= 1 + 1e-6
        return bad


class ExactCalculus(_Ladder):
    """Exact extension, Phi steps, downward LPs, realizability and Morita."""

    name = "exact-calculus"
    PHI_STEPS = 6
    # Square supports mostly give a unique downward solve; wide (a < b)
    # supports leave it underdetermined, so the exact simplex runs.  Each
    # shape comes with each kind of potentials (see gen.rational_potentials)
    # once per round, so every run sees the same mix.
    SHAPES = tuple([(n, n, (0.3, 0.5, 0.8)[n % 3]) for n in range(2, 9)] +
                   [(a, b, (0.3, 0.5, 0.8)[(a + b + k) % 3])
                    for k, (a, b) in enumerate(
                        ((2, 3), (2, 4), (2, 5), (2, 5), (2, 6), (3, 4), (3, 5),
                         (3, 6), (3, 6), (4, 5), (4, 6), (3, 7), (4, 7), (4, 8),
                         (3, 9), (5, 8), (5, 9), (5, 10)))])
    TEMPLATES = tuple(shape + (kind,) for shape in SHAPES
                      for kind in ("realizable", "feasible", "free"))
    TINY = ((2, 2, 0.8, "realizable"), (2, 4, 0.6, "feasible"), (2, 2, 0.8, "free"))
    TRACE_ROUNDS = 2

    @staticmethod
    def _case(template, rng):
        a, b, density, kind = template
        D = gen.connected_support(a, b, density, rng)
        eta, xi, delta = gen.exact_distortion(D, rng, kind)
        rho = tuple(gen.rational(rng) for _ in range(a))
        rho2 = tuple(gen.rational(rng) for _ in range(a))
        return {"label": f"{a}x{b}-{kind}", "D": D, "eta": eta, "xi": xi, "delta": delta,
                "feasible": kind == "feasible", "rho": rho, "rho2": rho2,
                "gauge": gen.rational(rng)}

    def run(self, case):
        incl = mfd.validate_inclusion(case["D"])
        total = mfd.extend_to_complete(case["delta"], incl.graph)
        level = total
        for _ in range(self.PHI_STEPS):
            level = mfd.phi_step(level, incl)
        odd = mfd.basic_construction_distortion(level, incl)
        strict = mfd.downward_feasibility(incl, total, "strict")
        tunnel = mfd.downward_feasibility(incl, total, "markov_tunnel")
        real = mfd.realizability_check(total, incl)
        rescaled = mfd.morita_distortion(level, incl, case["rho"])
        return {"incl": incl, "level": level,
                "total": [list(r) for r in total.total],
                "phi": [list(r) for r in level.total],
                "odd": dict(odd.entries),
                "strict": (strict.status, strict.pi, strict.certificate),
                "tunnel": (tunnel.status, tunnel.pi, tunnel.certificate),
                "realizable": real.realizable,
                "morita": [list(r) for r in rescaled.total]}

    def check(self, case, out):
        D, eta, xi = case["D"], case["eta"], case["xi"]
        a, b = len(D), len(D[0])
        for key in ("total", "phi", "odd", "morita"):
            if not all(_is_exact(x) for x in _exact_values(out[key])):
                return f"{key} left exact arithmetic"
        for status, pi, _ in (out["strict"], out["tunnel"]):
            if pi is not None and not all(_is_exact(x) for x in pi):
                return "downward pi left exact arithmetic"
        if out["total"] != [[xi[j] / eta[i] for j in range(b)] for i in range(a)]:
            return "complete extension differs from xi_j / eta_i"
        e, x = list(eta), list(xi)
        for _ in range(self.PHI_STEPS):
            e = [sum(x[j] * D[i][j] for j in range(b)) for i in range(a)]
            x = [sum(e[i] * D[i][j] for i in range(a)) for j in range(b)]
            e, x = [v / e[0] for v in e], [v / e[0] for v in x]
        phi = [[x[j] / e[i] for j in range(b)] for i in range(a)]
        if out["phi"] != phi:
            return "Phi^k differs from the power map of D^T D on potentials"
        row = [sum(phi[i][k] * D[i][k] for k in range(b)) for i in range(a)]
        odd = {(j, i): row[i] / phi[i][j] for i in range(a) for j in range(b) if D[i][j]}
        if out["odd"] != odd:
            return "basic construction distortion differs"
        total = out["total"]
        M = [[total[i][j] * D[i][j] for j in range(b)] for i in range(a)]
        for mode in ("strict", "tunnel"):
            reason = self._check_downward(case, M, mode, *out[mode])
            if reason is not None:
                return f"{mode}: {reason}"
        if out["strict"][0] == "Feasible" and out["tunnel"][0] != "Feasible":
            return "strictly feasible but not feasible with zeros allowed"
        unit_columns = all(sum(Fraction(D[i][j]) / total[i][j] for i in range(a) if D[i][j]) == 1
                           for j in range(b))
        if out["realizable"] != unit_columns:
            return "realizability disagrees with unit column sums of D/delta"
        rho = case["rho"]
        col = [sum(rho[h] * D[h][j] / phi[h][j] for h in range(a) if D[h][j]) for j in range(b)]
        if out["morita"] != [[phi[i][j] * col[j] / rho[i] for j in range(b)] for i in range(a)]:
            return "Morita rescaling differs from its formula"
        incl, level = out["incl"], out["level"]
        scaled = mfd.morita_distortion(level, incl, [case["gauge"] * r for r in rho])
        if [list(r) for r in scaled.total] != out["morita"]:
            return "Morita rescaling is not gauge invariant"
        twice = mfd.morita_distortion(mfd.morita_distortion(level, incl, rho), incl, case["rho2"])
        once = mfd.morita_distortion(level, incl, [r * s for r, s in zip(rho, case["rho2"])])
        if twice.total != once.total:
            return "Morita rescalings do not compose"
        return None

    @staticmethod
    def _check_downward(case, M, mode, status, pi, certificate):
        """Check one downward answer: a solution must solve M pi = 1 in the
        box; an Infeasible answer must carry a certificate that holds."""
        b = len(M[0])
        if case["feasible"] and status != "Feasible":
            return f"{status} for a system feasible by construction"
        if status in ("Feasible", "MarkovTunnelOnly"):
            if not _solves(M, pi):
                return "M pi != 1"
            if status == "Feasible" and not all(0 < p <= 1 for p in pi):
                return "pi leaves (0,1]"
            if status == "MarkovTunnelOnly" and (
                    mode == "strict" or not all(0 <= p <= 1 for p in pi) or 0 not in pi):
                return "MarkovTunnelOnly without a zero entry in [0,1]"
            return None
        if status != "Infeasible":
            return f"unknown status {status!r}"
        reason = certificate.get("reason")
        rank = _rank(M)
        if reason == "linear system has no solution":
            return None if rank < _rank([row + [1] for row in M]) else \
                "claims M pi = 1 inconsistent, but [M | 1] has the rank of M"
        candidate = certificate.get("candidate_pi")
        if reason == "no solution of M pi = 1 inside [0,1]":
            # Only the LP reaches this answer; the feasible-by-construction
            # cases above catch a wrong one.
            return None if rank < b else "LP answer for a uniquely solvable system"
        if candidate is None or not _solves(M, candidate):
            return f"{reason!r}: candidate pi does not solve M pi = 1"
        if reason == "unique candidate leaves [0,1]":
            return None if rank == b and not all(0 <= p <= 1 for p in candidate) else \
                "candidate is not unique or stays in [0,1]"
        if reason in ("unique candidate has zero entries", "max-min entry over the box is zero"):
            unique = reason.startswith("unique")
            return None if (mode == "strict" and (rank == b) == unique and 0 in candidate and
                            all(0 <= p <= 1 for p in candidate)) else \
                f"{reason!r}: certificate does not hold"
        return f"unknown infeasibility reason {reason!r}"

    @staticmethod
    def corrupt(out):
        bad = dict(out)
        bad["phi"] = [list(r) for r in out["phi"]]
        bad["phi"][0][0] += Fraction(1, 1000)
        return bad


class LoopModel(_Ladder):
    """Loop algebras of finite-dimensional inclusions and relative commutants."""

    name = "loop-model"
    DENSITY_LEVELS = 6
    # Every (m0, Lambda) pair of the ladder except the two costliest, whose
    # Pimsner-Popa check takes most of a second each, plus three commutants.
    TEMPLATES = tuple([("pp", m0, L) for m0 in gen.LOOP_M0 for L in gen.LOOP_LAMBDA
                   if (m0, L) not in gen.LOOP_SKIP] +
                  [("commutant", k, l) for k, l in gen.COMMUTANT_KL])
    TINY = (("pp", (2, 2), gen.LOOP_LAMBDA[2]), ("commutant", 2, 2))
    TRACE_ROUNDS = 2

    @staticmethod
    def _case(rung, rng):
        if rung[0] == "commutant":
            return {"label": f"commutant-{rung[1]}x{rung[2]}", "kind": "commutant",
                    "k": rung[1], "l": rung[2]}
        m0, Lambda = gen.relabelled_loop_model(rung[1], rung[2], rng)
        return {"label": f"pp-{rung[1]}-{rung[2]}", "kind": "pp", "m0": m0,
                "Lambda": Lambda, "vec": tuple(rng.randint(1, 5) for _ in m0)}

    def run(self, case):
        if case["kind"] == "commutant":
            k, l = case["k"], case["l"]
            sub_gens, ambient_gens = gen.tensor_generators(k, l)
            basis = mfd.relative_commutant(mfd.matrix_algebra(k * l, sub_gens),
                                       mfd.matrix_algebra(k * l, ambient_gens))
            return {"commutant": [[list(r) for r in m] for m in basis]}
        pair = mfd.build_loop_algebra(case["m0"], case["Lambda"])
        basis = mfd.pimsner_popa_basis(pair)
        report = mfd.verify_pp_identity(pair, basis)
        transfer = mfd.central_transfer(pair, basis, case["vec"])
        dens = mfd.density_sequence(pair, self.DENSITY_LEVELS, basis)
        return {"watatani_ok": report["watatani_ok"], "pp_ok": report["pp_ok"],
                "transfer": list(transfer), "recursion_deviation": dens.recursion_deviation,
                "n1_loops": len(pair.n1_loops), "basis_size": len(basis),
                "d_squared": pair.d_squared}

    def check(self, case, out):
        if case["kind"] == "commutant":
            return self._check_commutant(case, out["commutant"])
        m0, L = case["m0"], case["Lambda"]
        k0, k1 = len(m0), len(L[0])
        if not (out["watatani_ok"] and out["pp_ok"]):
            return "Watatani or Pimsner-Popa identity fails"
        if not out["recursion_deviation"] <= 1e-9:
            return f"density recursion deviates by {out['recursion_deviation']!r}"
        LLt = [[sum(L[i][j] * L[h][j] for j in range(k1)) for h in range(k0)]
               for i in range(k0)]
        closed = [sum(Fraction(LLt[i][h] * m0[h], m0[i]) * case["vec"][h] for h in range(k0))
                  for i in range(k0)]
        if out["transfer"] != closed:
            return "central transfer differs from DimDiag^-1 Lambda Lambda^T DimDiag"
        m1 = [sum(m0[i] * L[i][j] for i in range(k0)) for j in range(k1)]
        if out["n1_loops"] != sum(m * m for m in m1):
            return "N1 loop count differs from sum of m1(j)^2"
        Lf = np.array(L, dtype=float)
        d2 = float(np.linalg.eigvalsh(Lf.T @ Lf)[-1])
        if abs(out["d_squared"] - d2) > 1e-10 * d2:
            return "index differs from the spectral radius of Lambda^T Lambda"
        return None

    @staticmethod
    def _check_commutant(case, basis):
        k, l = case["k"], case["l"]
        if len(basis) != l * l:
            return f"commutant has dimension {len(basis)}, expected {l * l}"
        sub_gens, _ = gen.tensor_generators(k, l)
        gens = [np.array(g, dtype=float) for g in sub_gens]
        gens += [g.T for g in gens]
        mats = [np.array([[float(x) for x in row] for row in m]) for m in basis]
        for m in mats:
            if any(np.max(np.abs(m @ g - g @ m)) > 1e-12 for g in gens):
                return "a commutant element does not commute with M_k (x) 1"
        if np.linalg.matrix_rank(np.array([m.ravel() for m in mats])) != l * l:
            return "commutant basis is linearly dependent"
        return None

    @staticmethod
    def corrupt(out):
        bad = copy.deepcopy(out)
        if "commutant" in bad:
            bad["commutant"][0][0][1] += 1
        else:
            bad["transfer"][0] += Fraction(1, 1000)
        return bad


# ---------------------------------------------------------------------------
# Command-line workload.

CLI_COMMANDS = mfd.cli.COMMANDS + ("batch",)



def documented_defect(category, command):
    """Outcomes the command-line tool gives today on a malformed spec of
    ``category`` instead of the ParseError that docs/schema.md prescribes
    (see DESIGN.md), or an empty set.  A failure is forgiven as a known
    defect only when its outcome is one of these; any other failure marks
    the run incorrect."""
    if category in ("nan_D", "inf_D"):
        return {"error:NonConvergence"}
    if category in ("nan_delta", "ragged"):
        return {"traceback:ValueError"}
    if category == "lambda_frac":
        return ({"traceback:ValueError"} if command in ("loopbasis-verify", "report-all")
                else {"ok"})
    if category == "m0_frac":
        return {"ok"}
    if category == "neg_tol":  # every tolerance test fails
        return {"markov-trace": {"error:ColumnNormalizationViolation"},
                "morita-rescale": {"error:CycleViolation"}}.get(command, {"ok"})
    return set()


def outcome(out):
    """"ok", "error:<type>" or "traceback:<type>" of one command run."""
    lines = out["stderr"].strip().splitlines()
    if "Traceback (most recent call last)" in out["stderr"]:
        last = next((ln for ln in reversed(lines) if ln and not ln[0].isspace()), "")
        return "traceback:" + last.split(":", 1)[0].rsplit(".", 1)[-1]
    if out["rc"] == 0:
        return "ok"
    try:
        return "error:" + json.loads(lines[-1])["error"]
    except (IndexError, KeyError, TypeError, ValueError):
        return f"exit {out['rc']}"


def expected_outcome(meta, command):
    """(allowed exit codes, expected error type or None) per docs/schema.md."""
    category = meta["category"]
    if category == "support_mismatch":
        return {1, 2}, None
    if category != "ok":
        return {2}, "ParseError"
    if command == "extend" and meta["source"] != "delta":
        return {2}, "ParseError"
    if command == "loopbasis-verify" and not meta["m0"]:
        return {2}, "ParseError"
    if command == "markov-trace" and not meta["realizable"]:
        return {1}, "ColumnNormalizationViolation"
    return {0}, None


def run_in_process(argv):
    """mfd.cli.main(argv) with captured output; an escaping exception
    stands for the traceback and exit code 1 of the command-line tool."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = mfd.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a traceback is the outcome
            rc = 1
            print(f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}",
                  file=err)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


class CliBatch:
    """Cold `python -m mfd.cli` subprocesses over generated spec files."""

    name = "cli-batch"
    BATCH_FILES = 4
    speed_probe = staticmethod(timing.interpreter_probe)
    TRACE_ROUNDS = 8  # 88 cases meet every malformed category

    @staticmethod
    def round_size(tiny):
        return len(CLI_COMMANDS)

    def stream(self, rng, tiny, workdir):
        os.makedirs(workdir, exist_ok=True)
        recent = []  # the last BATCH_FILES specs: the members of a batch case
        i = 0
        while True:
            doc, meta = gen.spec(i, rng)
            path = os.path.join(workdir, f"spec{i:05d}.json")
            gen.write_spec(path, doc)
            recent = (recent + [(doc, meta)])[-self.BATCH_FILES:]
            command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
            rnd = i // len(CLI_COMMANDS)
            case = {"index": i, "command": command, "label": command}
            if command == "batch":
                sub = CLI_COMMANDS[rnd % (len(CLI_COMMANDS) - 1)]
                directory = os.path.join(workdir, f"batch{i:05d}")
                gen.write_batch_dir(directory, [d for d, _ in recent])
                case.update(argv=["batch", "--input", directory, "--command", sub],
                            members=[m for _, m in recent], sub_command=sub,
                            categories={m["category"] for _, m in recent})
            else:
                argv = [command, "--input", path]
                if command == "tower" and rnd % 2 == 0:
                    argv += ["--steps", "3"]
                if command == "downward" and rnd % 2 == 1:
                    argv.append("--markov-tunnel")
                if command == "morita-rescale" and rnd % 2 == 0:
                    argv += ["--rho", ",".join(str(1 + (h % 3)) for h in range(meta["a"]))]
                case.update(argv=argv, meta=meta, path=path, categories={meta["category"]})
            yield case
            i += 1

    def run(self, case):
        rc, out, err = timing.run_process([sys.executable, "-m", "mfd.cli"] + case["argv"],
                                          capture=True)
        return {"rc": rc, "stdout": out.decode("utf-8", "replace"),
                "stderr": err.decode("utf-8", "replace")}

    @staticmethod
    def in_process(case):
        return run_in_process(case["argv"])

    # The traced run goes through mfd.cli.main in this process; the timed
    # run compares each subprocess with the same in-process call.
    run_traced = reference = in_process

    def check(self, case, out, reference=None, forgive=False):
        """None, or why the case failed.  With ``forgive`` a malformed spec
        may also give its documented defective outcome."""
        reason = self._check_outcome(case, out, forgive)
        if reason is None and reference is not None:
            if (reference["rc"], reference["stdout"]) != (out["rc"], out["stdout"]):
                reason = "subprocess output differs from an in-process mfd.cli.main run"
        return reason

    def known_defect(self, case, out, reference=None):
        """Whether a failed case shows a documented defect and nothing else."""
        return out is not None and self.check(case, out, reference, forgive=True) is None

    def _check_outcome(self, case, out, forgive):
        if case["command"] == "batch":
            return self._check_batch(case, out, forgive)
        if forgive and outcome(out) in documented_defect(case["meta"]["category"],
                                                         case["command"]):
            return None
        rc, stdout, stderr = out["rc"], out["stdout"], out["stderr"]
        if "Traceback (most recent call last)" in stderr:
            return "traceback instead of a JSON error"
        codes, error = expected_outcome(case["meta"], case["command"])
        if rc not in codes:
            return f"exit code {rc}, expected {sorted(codes)}"
        if rc != 0:
            try:
                payload = json.loads(stderr.strip().splitlines()[-1])
            except (IndexError, ValueError):
                return "no JSON error on stderr"
            if "error" not in payload or (error and payload["error"] != error):
                return f"error {payload.get('error')!r}, expected {error!r}"
            return "output on stdout for an error" if stdout else None
        try:
            report = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        with open(case["path"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if report.get("command") != case["command"] or report.get("input_digest") != digest:
            return "report header does not match the command and input"
        return self._check_result(case, report["result"])

    @staticmethod
    def _check_result(case, result):
        if case["command"] == "perron":
            with open(case["path"], encoding="utf-8") as fh:
                D = np.array(json.load(fh)["D"], dtype=float)
            d2 = float(np.linalg.eigvalsh(D.T @ D)[-1])
            if abs(float(result["d_squared"]) - d2) > 1e-9 * d2:
                return "perron d^2 differs from eigh"
        if case["command"] == "realizable" and result["realizable"] != case["meta"]["realizable"]:
            return "realizable flag differs from how the distortion was built"
        return None

    @staticmethod
    def _check_batch(case, out, forgive):
        """Each member's report must show its documented outcome, and the
        summary must count the members' reports."""
        sub, members = case["sub_command"], case["members"]
        defects = [documented_defect(m["category"], sub) for m in members]
        if forgive and outcome(out) == "traceback:ValueError" and \
                any("traceback:ValueError" in d for d in defects):
            return None  # a member's traceback ends the whole batch
        if out["rc"] != 0 or "Traceback (most recent call last)" in out["stderr"]:
            return f"batch ended with {outcome(out)}, expected exit code 0"
        try:
            report = json.loads(out["stdout"])
            reports = [report["reports"][f"spec{n}.json"] for n in range(len(members))]
        except (KeyError, TypeError, ValueError):
            return "batch stdout is not a report of every member"
        counts = {"total": len(members), "ok": 0, "domain_error": 0, "parse_error": 0}
        for n, (meta, member, defect) in enumerate(zip(members, reports, defects)):
            error = member.get("error")
            got = f"error:{error}" if error else "ok"
            counts["ok" if not error else
                   "parse_error" if error == "ParseError" else "domain_error"] += 1
            codes, expected = expected_outcome(meta, sub)
            rc = 0 if not error else 2 if error == "ParseError" else 1
            if (rc in codes and (expected is None or error == expected)) or \
                    (forgive and got in defect):
                continue
            return f"batch member {n} ({meta['category']}) gave {got}, expected exit {sorted(codes)}"
        summary = {k: int(v) for k, v in report.get("summary", {}).items()}
        if summary != counts:
            return f"batch summary {summary} does not count the member reports {counts}"
        return None

    @staticmethod
    def corrupt(out):
        bad = dict(out)
        if bad["stdout"]:
            bad["stdout"] = bad["stdout"].replace('"', "'", 1)
        else:
            bad["rc"] = 0 if bad["rc"] else 2
        return bad


WORKLOADS = {w.name: w for w in (TowerFloat, ExactCalculus, LoopModel, CliBatch)}
