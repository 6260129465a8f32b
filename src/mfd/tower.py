"""Tower dynamics for distortion matrices.

The basic construction turns an a x b distortion on incl into a b x a
one on incl.dual; doing it twice gives the order-two update Phi.  Both
read the Jones matrix Delta.  Iterating Phi from any totally defined
factorizable start converges to tower_limit, the standard distortion of
Delta, which is the standard distortion when Delta = D, and the fixed
points are exactly the homogeneous ones.  A distortion xi_j / eta_i is
a + b numbers, so the tower runs on them: one half-step, _half, builds
each level from the last one's potentials, gauged once or as ints when
exact, and the level builds its entries and total when they are read;
a basic construction of a delta without exact potentials keeps the entry
form.  The downward direction asks for a column vector pi with M pi = 1
where M_ij = delta_ij * Delta_ij; existence in (0,1]^b is the strict
feasibility question, existence in [0,1]^b the Markov-tunnel one.
"""

import copy
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import PerronData, standard_distortion
from .distortion import (DistortionMatrix, _complete, _int_potentials, as_distortion,
                         from_potentials)
from .errors import CycleViolation, NonConvergence, ZeroPi
from .lp import solve_lp
from .linear import solve
from .markov import TracePair, basic_construction_trace, markov_trace
from .numbers import DEFAULT_TOLERANCE, close, close_all, div, is_exact, to_float


def basic_construction_distortion(delta, incl):
    """Distortion of the next inclusion in the tower.

    delta is an a x b distortion for the InclusionData incl, whose Jones
    matrix Delta it reads.  The result is the b x a distortion of B in
    the basic construction, the inclusion incl.dual, defined on the
    transposed support:

        delta'_{ji} = (sum_k delta_ik Delta_ik) / delta_ij,

    which for exact potentials and an exact Delta is _half, the ints
    (c xi, xi C^T); otherwise the formula runs entrywise.
    """
    graph = incl.graph
    dm = as_distortion(delta, graph)
    if _int_potentials(dm) and incl.jones_ints:
        # edges in the entry form's order, not incl.dual's sorted one
        odd = _half(dm, incl, True, tuple((j, i) for (i, j) in graph.edges))
        odd.total = None
        return odd
    row_sum = graph.row_sums(dm.get(i, j) * incl.Delta[i][j] for (i, j) in graph.edges)
    entries = {(j, i): div(row_sum[i], dm.get(i, j)) for (i, j) in graph.edges}
    return DistortionMatrix(a=graph.b, b=graph.a, entries=entries)


def _up(xi, graph, M):
    """xi M^T.  A distortion xi_j / eta_i passes under the basic
    construction to xi'_i / eta'_j with eta' = xi and xi' = xi Delta^T."""
    return graph.row_sums(xi[j] * M[i][j] for (i, j) in graph.edges)


def _half(dm, incl, exact, edges):
    """One basic construction on potentials, the only code that builds a
    tower level: (xi, xi Delta^T) on edges through from_potentials, or when
    exact the ints (c q, q C^T) for dm's ints (p, q) and (c, C = c Delta)."""
    if exact:
        (c, C), q = incl.jones_ints, _int_potentials(dm)[1]
        return DistortionMatrix._of_ints([c * x for x in q], _up(q, incl.graph, C), edges)
    return from_potentials(dm.xi, _up(dm.xi, incl.graph, incl.Delta), edges)


def phi_step(delta, incl, tol=None):
    """One order-two tower step: _half on incl and then on incl.dual,
    the two basic constructions of iterate_to_fixed_point's loop.

    Works on the factorization potentials of delta, so delta must satisfy
    the cycle condition (checked within tol when delta carries no
    potentials): xi goes to xi Delta^T and then xi Delta^T Delta, as ints
    when xi and Delta are exact.  Returns a totally defined distortion;
    with rational inputs the output stays rational.
    """
    dm = _complete(delta, incl.graph, tol)
    exact = bool(_int_potentials(dm) and incl.jones_ints)
    odd = _half(dm, incl, exact, incl.dual.graph.edges)
    return _half(odd, incl.dual, exact, incl.graph.edges)


@dataclass
class TowerLevel:
    """One level of the tower.  Its matrix carries the potentials (eta, xi)
    and builds its entries and total when they are read."""
    level: int
    orientation: str  # "even" (a x b) or "odd" (b x a)
    matrix: DistortionMatrix


@dataclass
class TowerTrace:
    levels: list
    iterations: int  # completed Phi steps (pairs of basic constructions)
    residual: float
    converged: bool
    limit: list  # tower_limit(incl), the fixed point the residual is measured to


def _residual(eta, xi, sigma):
    """max |xi_j / eta_i - sigma_ij| / sigma_ij, each entry divided as a
    DistortionMatrix divides it, so that it is the entry of its total."""
    worst = 0.0
    for e, row in zip(eta, sigma):
        e = Fraction(e) if is_exact(e) else e
        for x, s in zip(xi, row):
            dev = abs(float(x / e) - s) / s
            if dev > worst:
                worst = dev
    return worst


def relative_residual(dm, sigma):
    """max |dm_ij - sigma_ij| / sigma_ij.  A matrix that carries its
    potentials is read from them by _residual.  Every entry of dm must be
    defined: an undefined one raises MissingEntry."""
    if dm.eta is not None and dm.xi is not None:
        return _residual(dm.eta, dm.xi, sigma)
    worst = 0.0
    for i in range(len(sigma)):
        for j in range(len(sigma[0])):
            s = sigma[i][j]
            val = dm.total[i][j] if dm.total is not None else dm.get(i, j)
            dev = abs(to_float(val) - s) / s
            if dev > worst:
                worst = dev
    return worst


def tower_limit(incl):
    """Fixed point of Phi, which sends potentials xi to xi Delta^T Delta:
    d beta_j / alpha_i for incl.jones_perron, the Perron data of Delta.
    When Delta = D this is the standard distortion."""
    return standard_distortion(incl.jones_perron)


def iterate_to_fixed_point(delta0, incl, tol=1e-9, max_iter=10 ** 4,
                           perron: Optional[PerronData] = None):
    """Iterate the tower dynamics until its fixed point is reached.

    Records every basic-construction half-step.  Only delta0 is checked
    against the cycle condition.  Each step is phi_step's two calls of
    _half, on the potentials alone: as ints when delta0 and Delta are
    exact, else gauged once per half-step; a level builds its entries and
    total only when they are read.  Convergence is the relative sup
    deviation of the even levels from the standard distortion of perron,
    the Perron data of Delta (incl.jones_perron when None), computed entry
    by entry from the potentials as relative_residual computes it; raises
    NonConvergence, with the last even level's residual, if max_iter Phi
    steps do not get within tol.
    """
    sigma = standard_distortion(incl.jones_perron if perron is None else perron)
    dm = _complete(delta0, incl.graph)
    levels = [TowerLevel(0, "even", dm)]
    residual = relative_residual(dm, sigma)
    if residual <= tol:
        return TowerTrace(levels=levels, iterations=0, residual=residual, converged=True,
                          limit=sigma)
    exact = bool(_int_potentials(dm) and incl.jones_ints)
    dual = incl.dual
    edges, edges_t = incl.graph.edges, dual.graph.edges
    for n in range(1, max_iter + 1):
        odd = _half(dm, incl, exact, edges_t)
        dm = _half(odd, dual, exact, edges)
        levels += [TowerLevel(2 * n - 1, "odd", odd), TowerLevel(2 * n, "even", dm)]
        residual = _residual(*(dm.ints or (dm.eta, dm.xi)), sigma)
        if residual <= tol:
            return TowerTrace(levels=levels, iterations=n, residual=residual,
                              converged=True, limit=sigma)
    raise NonConvergence(max_iter, residual=residual)


@dataclass
class HomogeneityReport:
    h2_row_sums: bool
    h3_fixed_point: bool
    h4_standard: bool
    h5_scalar_jones_trace: bool
    h6_trace_preserved: bool
    h7_super_extremal: bool
    row_sums: tuple = ()

    @property
    def flags(self):
        return {
            "H2_row_sums": self.h2_row_sums,
            "H3_fixed_point": self.h3_fixed_point,
            "H4_standard": self.h4_standard,
            "H5_scalar_jones_trace": self.h5_scalar_jones_trace,
            "H6_trace_preserved": self.h6_trace_preserved,
            "H7_super_extremal": self.h7_super_extremal,
        }

    @property
    def homogeneous(self):
        return all(self.flags.values())

    @property
    def all_flags_agree(self):
        vals = set(self.flags.values())
        return len(vals) == 1


def homogeneity_report(incl, delta, trace_pair: Optional[TracePair] = None,
                       perron: Optional[PerronData] = None, tol=None):
    """Evaluate the equivalent homogeneity conditions for (incl, delta).

    For a genuine distortion all six flags agree; they are reported
    separately so disagreement can flag numerical or modelling trouble.
    H2, H4 and H7 read the statistical dimensions: perron is D's
    (incl.perron when None).
    """
    if tol is None:
        tol = DEFAULT_TOLERANCE
    if perron is None:
        perron = incl.perron
    dm = as_distortion(delta, incl.graph)
    d2 = perron.d_squared

    edges = incl.graph.edges
    row_sums = incl.graph.row_sums(dm.get(i, j) * incl.D[i][j] for (i, j) in edges)
    jones_sums = incl.graph.row_sums(dm.get(i, j) * incl.Delta[i][j] for (i, j) in edges)
    h2 = all(close(s, d2, tol) for s in row_sums)

    try:
        phi = phi_step(dm, incl, tol)
        h3 = all(close(phi.get(i, j), dm.get(i, j), tol) for (i, j) in incl.graph.edges)
    except CycleViolation:
        h3 = False

    sigma = standard_distortion(perron)
    h4 = all(close(dm.get(i, j), sigma[i][j], tol) for (i, j) in incl.graph.edges)

    h5 = all(close(s, jones_sums[0], tol) for s in jones_sums)

    if trace_pair is None:
        trace_pair = markov_trace(incl, dm, require_normalized=False, tol=tol)
    tr2, _ = basic_construction_trace(trace_pair, incl, dm)
    h6 = close_all(tr2, trace_pair.tr_A, tol)

    alpha_sq = tuple(x * x for x in perron.alpha)
    beta_sq = tuple(x * x for x in perron.beta)
    h7 = close_all(trace_pair.tr_A, alpha_sq, tol) and close_all(trace_pair.tr_B, beta_sq, tol)

    return HomogeneityReport(h2_row_sums=h2, h3_fixed_point=h3, h4_standard=h4,
                             h5_scalar_jones_trace=h5, h6_trace_preserved=h6,
                             h7_super_extremal=h7, row_sums=tuple(row_sums))


@dataclass
class FeasibilityResult:
    status: str  # "Feasible" | "Infeasible" | "MarkovTunnelOnly"
    pi: Optional[tuple] = None
    certificate: Optional[dict] = None

    @property
    def feasible(self):
        return self.status == "Feasible"


def _classify_pi(pi, exact_inputs, tol):
    """Split candidate solution entries into negative / zero / interior / above-one."""
    zeros = []
    for j, x in enumerate(pi):
        if exact_inputs:
            if x < 0 or x > 1:
                return "out_of_box", []
            if x == 0:
                zeros.append(j)
        else:
            xf = float(x)
            if xf < -tol or xf > 1 + tol:
                return "out_of_box", []
            if abs(xf) <= tol:
                zeros.append(j)
    if zeros:
        return "boundary", zeros
    return "interior", []


def downward_feasibility(incl, delta, mode="strict", tol=None):
    """Decide whether a downward basic construction exists.

    Solves M pi = 1 with M_ij = delta_ij * Delta_ij, pi in (0,1]^b
    (mode "strict") or [0,1]^b with zeros allowed (mode "markov_tunnel").
    The linear algebra is exact over the rationals.  When the solution
    set x0 + span(N) is a ray or higher dimensional, an LP over the
    nullspace coordinates y (pi = x0 + N y) maximizes the smallest entry
    of pi over the box; it has 2b rows, and lp.solve_lp's answer is exact.
    Both modes read one answer, and differ only in how they read a solution
    with zero entries.  A DistortionMatrix keeps that answer for the last
    (incl, tol) it was asked with, so asking again in either mode solves
    nothing.
    """
    if mode not in ("strict", "markov_tunnel"):
        raise ValueError("mode must be 'strict' or 'markov_tunnel'")
    if tol is None:
        tol = DEFAULT_TOLERANCE
    dm = as_distortion(delta, incl.graph)
    memo = getattr(dm, "_downward", None)
    if memo is None or memo[0] is not incl or memo[1] != tol:
        memo = dm._downward = (incl, tol, _solve_downward(incl, dm, tol))
    result, strict_reason = memo[2]
    certificate = copy.deepcopy(result.certificate)
    if mode == "strict" and strict_reason is not None:
        return FeasibilityResult("Infeasible", certificate={
            "reason": strict_reason, "candidate_pi": result.pi, **certificate})
    return FeasibilityResult(result.status, result.pi, certificate)


def _solve_downward(incl, dm, tol):
    """The mode-free part of downward_feasibility: (result, strict_reason).
    A pi with zero entries comes as the markov_tunnel result with the reason
    strict mode refuses it; otherwise the reason is None."""
    a, b = incl.a, incl.b
    M = [[0] * b for _ in range(a)]
    exact_inputs = True
    for (i, j) in incl.graph.edges:
        v = dm.get(i, j) * incl.Delta[i][j]
        if not is_exact(v):
            exact_inputs = False
        M[i][j] = v
    kind, payload = solve(M, [1] * a)

    def _emit(pi_frac):
        if exact_inputs:
            return tuple(pi_frac)
        return tuple(float(x) for x in pi_frac)

    def _tunnel(pi, zeros, strict_reason):
        return (FeasibilityResult(status="MarkovTunnelOnly", pi=_emit(pi),
                                  certificate={"zero_columns": zeros}), strict_reason)

    if kind == "inconsistent":
        return FeasibilityResult(status="Infeasible",
                                 certificate={"reason": "linear system has no solution",
                                              "inconsistent_row": payload}), None
    if kind == "unique":
        pi = list(payload)
        box, zeros = _classify_pi(pi, exact_inputs, tol)
        if box == "out_of_box":
            return FeasibilityResult(status="Infeasible",
                                     certificate={"reason": "unique candidate leaves [0,1]",
                                                  "candidate_pi": _emit(pi)}), None
        if box == "boundary":
            return _tunnel(pi, zeros, "unique candidate has zero entries")
        return FeasibilityResult(status="Feasible", pi=_emit(pi)), None

    # Underdetermined: pi = x0 + N y, where N is the identity on the free
    # columns, so y >= 0 is pi_free >= 0.  Maximize t subject to
    # pi_j + s_j = 1 and t - pi_j + u_j = 0 with y, t, s, u >= 0; t >= 0
    # keeps pi >= 0, and t* is the best min_j pi_j over box solutions.
    # The slacks start the simplex; only rows where x0 leaves the box need
    # phase 1.
    x0, N = payload
    k = len(N)
    unit = [[int(i == j) for i in range(b)] for j in range(b)]
    zero = [0] * b
    A = ([[v[j] for v in N] + [0] + unit[j] + zero for j in range(b)] +
         [[-v[j] for v in N] + [1] + zero + unit[j] for j in range(b)])
    rhs = [1 - x for x in x0] + x0
    c = [0] * k + [-1] + [0] * (2 * b)  # maximize t
    status, x, _ = solve_lp(A, rhs, c)
    if status == "infeasible":
        return FeasibilityResult(
            status="Infeasible",
            certificate={"reason": "no solution of M pi = 1 inside [0,1]"}), None
    if status != "optimal":
        raise RuntimeError("unexpected LP status %r" % status)
    y, t_star = x[:k], x[k]
    pi = [x0[j] + sum(v[j] * w for v, w in zip(N, y)) for j in range(b)]
    if t_star > 0:
        return FeasibilityResult(status="Feasible", pi=_emit(pi)), None
    return _tunnel(pi, [j for j in range(b) if pi[j] == 0], "max-min entry over the box is zero")


def downward_distortion(delta, pi):
    """Distortion of the downward inclusion B_{-1} in A.

    gamma_ji = 1 / (pi_j delta_ij), defined wherever delta is.  Raises
    ZeroPi if a needed pi_j vanishes.
    """
    if not isinstance(delta, DistortionMatrix):
        raise TypeError("downward_distortion expects a DistortionMatrix; "
                        "use as_distortion first")
    used = set(range(delta.b)) if delta.total is not None else {j for (_, j) in delta.entries}
    for j in sorted(used):
        if pi[j] == 0:
            raise ZeroPi(j)
    entries = {(j, i): div(1, pi[j] * v) for (i, j), v in delta.entries.items()}
    total = None
    if delta.total is not None:
        total = tuple(tuple(div(1, pi[j] * delta.total[i][j]) for i in range(delta.a))
                      for j in range(delta.b))
    return DistortionMatrix(a=delta.b, b=delta.a, entries=entries, total=total)
