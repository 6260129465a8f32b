"""Markov traces, trace matrices, expectation coefficients, extremal tests.

The trace matrices of an inclusion are determined by the distortion and the
Jones matrix: T_ij = Jones_ij / delta_ij and Ttilde_ji = delta_ij * Jones_ij
on the support, zero elsewhere. The Markov trace pair is the Frobenius-Perron
eigendata of Ttilde T; its eigenvalue is the Markov index d^2.

A distortion factorizes as delta_ij = xi_j / eta_i (distortion.factorize),
and then Ttilde T = diag(xi) Jones^T Jones diag(xi)^-1. So d^2 is the Perron
eigenvalue of the symmetric Jones^T Jones and tr_B is proportional to
xi * v for its Perron vector v, which are Delta's Perron data d^2 and beta
(incl.jones_perron): the trace is read off the potentials.

Realizability and the distortion of a trace read the Jones matrix too.
Over the minimal central projections, sum_i tr(p_i q_j) = tr(q_j): T has
unit column sums, which is xi = eta Delta, and column_sum_violation is
the one test of it.  And tr_A = T tr_B with tr_B ~ xi * beta gives
tr_A ~ eta * alpha for the Perron data of Delta (incl.jones_perron), so
eta = tr_A / alpha and xi = eta Delta (distortion_from_trace).

A finite-dimensional inclusion N0 in N1 with multiplicity matrix Lambda
and dimension vector m_A is the inclusion D = Delta = Lambda with the
potentials (m_A, m_B = m_A Lambda), so finite_dim_markov validates it as
an inclusion, naming it Lambda in its errors, and reads incl.perron; its
trace matrices are trace_matrices at the distortion m_B(j) / m_A(i), which
gives T_ij = Lambda_ij m_A(i) / m_B(j) exactly.
"""

from .core import InclusionData, _Frozen, _coerce_matrix, _inclusion
from .distortion import (_complete, as_distortion, check_extremality, extend_to_complete,
                         from_potentials)
from .errors import (
    ColumnNormalizationViolation,
    MissingDistortionEntry,
    MissingEntry,
)
from .numbers import close, div


class TracePair(_Frozen):
    _fields = ("tr_A", "tr_B", "d_squared")

    def __init__(self, tr_A, tr_B, d_squared):
        vars(self).update(tr_A=tr_A, tr_B=tr_B, d_squared=d_squared)


class TraceMatrices(_Frozen):
    _fields = ("T", "T_tilde")  # a x b and b x a

    def __init__(self, T, T_tilde):
        vars(self).update(T=T, T_tilde=T_tilde)


class ExpectationCoefficients(_Frozen):
    # lambda_markov: support edge -> coefficient; lambda_minimal: a x b,
    # zero off the support by the formula itself
    _fields = ("lambda_markov", "lambda_minimal")

    def __init__(self, lambda_markov, lambda_minimal):
        vars(self).update(lambda_markov=lambda_markov, lambda_minimal=lambda_minimal)


def _coerce(incl, delta):
    try:
        return as_distortion(delta, incl.graph)
    except MissingEntry as exc:
        raise MissingDistortionEntry(exc.position) from exc


def _quotients(incl, delta):
    """T on the support: Delta_ij / delta_ij, one per edge in edges order."""
    return [div(incl.Delta[i][j], delta.get(i, j)) for (i, j) in incl.support]


def trace_matrices(incl, delta):
    delta = _coerce(incl, delta)
    T = [[0] * incl.b for _ in range(incl.a)]
    Tt = [[0] * incl.a for _ in range(incl.b)]
    for (i, j), t in zip(incl.support, _quotients(incl, delta)):
        T[i][j] = t
        Tt[j][i] = delta.get(i, j) * incl.Delta[i][j]
    return TraceMatrices(T=tuple(map(tuple, T)), T_tilde=tuple(map(tuple, Tt)))


def _first_bad_column(graph, quotients, tol):
    for j, total in enumerate(graph.col_sums(quotients)):
        if not close(total, 1, tol):
            return ColumnNormalizationViolation(j, total)
    return None


def column_sum_violation(incl, delta, tol=None):
    """The realizability test: None when every column sum of T,
    sum_i Delta_ij / delta_ij, is 1 (exactly, or within tol for floats),
    else the ColumnNormalizationViolation of the first column that is not."""
    return _first_bad_column(incl.graph, _quotients(incl, _coerce(incl, delta)), tol)


def markov_trace(incl, delta, require_normalized=True, tol=None):
    """Trace pair of the unique Markov trace.

    With delta_ij = xi_j / eta_i, d^2 is the Perron eigenvalue of
    Jones^T Jones with Perron vector v (incl.jones_perron's d_squared and
    beta), tr_B = xi * v normalized to a state
    and tr_A = T tr_B. xi is the potential delta carries, else the one
    factorize finds; a delta that fails the cycle condition is the
    distortion of no inclusion and raises CycleViolation. When delta is
    not realizable by any inclusion the column sums of T differ from 1;
    with require_normalized the violation is raised first, otherwise the
    trace pair is still returned for diagnostics.
    """
    delta = _coerce(incl, delta)
    quotients = _quotients(incl, delta)
    if require_normalized and (failure := _first_bad_column(incl.graph, quotients, tol)):
        raise failure
    xi = _complete(delta, incl.graph, tol).xi
    jones = incl.jones_perron
    w = [float(x) * b for x, b in zip(xi, jones.beta)]
    total = sum(w)
    tr_B = tuple(x / total for x in w)
    tr_A = incl.graph.row_sums([float(t) * tr_B[j] for (_, j), t in zip(incl.support, quotients)])
    return TracePair(tr_A=tuple(tr_A), tr_B=tr_B, d_squared=jones.d_squared)


class FiniteDimMarkov(_Frozen):
    _fields = ("lambda_A", "lambda_B", "d_squared", "m_A", "m_B")

    def __init__(self, lambda_A, lambda_B, d_squared, m_A, m_B):
        vars(self).update(lambda_A=lambda_A, lambda_B=lambda_B, d_squared=d_squared,
                          m_A=m_A, m_B=m_B)

    def __iter__(self):
        return iter((self.lambda_A, self.lambda_B, self.d_squared))


def finite_dim_markov(Lambda, m_A=None):
    """Markov trace vectors of a finite-dimensional inclusion from (m_A, Lambda).

    Lambda is a matrix of nonnegative integers, or an InclusionData whose D
    is one.  lambda_B is the Perron vector beta of Lambda^T Lambda
    (incl.perron) normalized by m_B . lambda_B = 1 with m_B = m_A Lambda;
    lambda_A = Lambda lambda_B, which then satisfies m_A . lambda_A = 1.
    """
    incl = (Lambda if isinstance(Lambda, InclusionData)
            else _inclusion(_coerce_matrix(Lambda, "Lambda")))
    L, a, b = incl.D, incl.a, incl.b
    for row in L:
        for x in row:
            if x != int(x):
                raise ValueError(f"multiplicity matrix entries must be integers: {x}")
    if m_A is None:
        m_A = tuple(1 for _ in range(a))
    else:
        m_A = tuple(m_A)
        if len(m_A) != a or any(m <= 0 for m in m_A):
            raise ValueError("m_A must be a positive vector of length a")
    m_B = tuple(sum(m_A[i] * L[i][j] for i in range(a)) for j in range(b))
    scale = sum(float(m) * x for m, x in zip(m_B, incl.perron.beta))
    lam_B = tuple(x / scale for x in incl.perron.beta)
    lam_A = tuple(incl.graph.row_sums([L[i][j] * lam_B[j] for i, j in incl.support]))
    return FiniteDimMarkov(lambda_A=lam_A, lambda_B=lam_B, d_squared=incl.perron.d_squared,
                           m_A=m_A, m_B=m_B)


def distortion_from_trace_matrix(incl, T):
    """Recover the total distortion from a trace matrix: delta = Jones/T on support."""
    entries = {}
    for i, j in incl.support:
        t = T[i][j]
        if not t > 0:
            raise MissingDistortionEntry((i, j))
        entries[(i, j)] = div(incl.Delta[i][j], t)
    return extend_to_complete(entries, incl.graph)


def expectation_coefficients(incl, delta, trace_pair):
    delta = as_distortion(delta, incl.graph)
    perron = incl.perron
    lam_markov = {}
    for i, j in incl.support:
        lam_markov[(i, j)] = float(div(incl.Delta[i][j], delta.get(i, j))) \
            * trace_pair.tr_B[j] / trace_pair.tr_A[i]
    lam_min = tuple(tuple(float(incl.D[i][j]) * perron.beta[j] / (perron.d * perron.alpha[i])
                          for j in range(incl.b))
                    for i in range(incl.a))
    return ExpectationCoefficients(lambda_markov=lam_markov, lambda_minimal=lam_min)


class ExtremalInclusionReport(_Frozen):
    _fields = ("e1", "e2", "e3")

    def __init__(self, e1, e2, e3):
        vars(self).update(e1=e1, e2=e2, e3=e3)

    @property
    def extremal(self):
        return self.e1


def check_extremal_inclusion(incl, delta, trace_pair, tol=None):
    """The three equivalent extremal-inclusion conditions.

    e1: the Markov expectation coefficients equal the minimal ones and the
        Jones matrix equals D (the expectation indices).
    e2: Jones == D and delta_ij = d (tr_B(j)/beta_j)(alpha_i/tr_A(i)).
    e3: Jones == D and the cycle condition holds.
    """
    delta = as_distortion(delta, incl.graph)
    ext = check_extremality(incl, delta, tol)
    d_eq = ext.jones_equals_statistical
    coeffs = expectation_coefficients(incl, delta, trace_pair)
    e1 = d_eq and all(close(coeffs.lambda_markov[e], coeffs.lambda_minimal[e[0]][e[1]], tol)
                      for e in incl.support)
    d, alpha, beta = incl.perron.d, incl.perron.alpha, incl.perron.beta
    tr_A, tr_B = trace_pair.tr_A, trace_pair.tr_B
    e2 = d_eq and all(close(float(delta.get(i, j)),
                            d * (tr_B[j] / beta[j]) * (alpha[i] / tr_A[i]), tol)
                      for i, j in incl.support)
    return ExtremalInclusionReport(e1=e1, e2=e2, e3=ext.extremal)


def distortion_from_trace(tr_A, incl):
    """delta_ij = (alpha_i / tr_A(i)) sum_h (tr_A(h) / alpha_h) Delta_hj, total.

    That is xi_j / eta_i for the potentials eta_i = tr_A(i) / alpha_i and
    xi = eta Delta, alpha from incl.jones_perron, the Perron data of Delta:
    a realizable delta whose Markov trace restricts to tr_A, built from its
    potentials directly.
    """
    alpha = incl.jones_perron.alpha
    tr_A = [float(x) for x in tr_A]
    eta = [tr_A[h] / alpha[h] for h in range(incl.a)]
    xi = [sum(eta[h] * float(incl.Delta[h][j]) for h in range(incl.a)) for j in range(incl.b)]
    return from_potentials(eta, xi, incl.graph.edges)


def check_super_extremal_findim(m0, Lambda, tol=None):
    """nu Lambda^T == d^2 mu with mu = m0, nu = m0 Lambda, d^2 = |nu|^2/|mu|^2."""
    L = [list(row) for row in Lambda]
    a, b = len(L), len(L[0])
    mu = list(m0)
    nu = [sum(mu[i] * L[i][j] for i in range(a)) for j in range(b)]
    d2 = div(sum(x * x for x in nu), sum(x * x for x in mu))
    lhs = [sum(nu[j] * L[i][j] for j in range(b)) for i in range(a)]
    return all(close(lhs[i], d2 * mu[i], tol) for i in range(a))


def basic_construction_trace(trace_pair, incl, delta):
    """Trace vector on the basic construction and the next trace matrix.

    tr2_i = d^-2 tr_A(i) sum_k delta_ik Jones_ik, and the trace matrix of the
    middle algebra inside the basic construction is
    T_ji = delta_ij Jones_ij / sum_k delta_ik Jones_ik on the transposed support.
    """
    delta = as_distortion(delta, incl.graph)
    s = incl.graph.row_sums(delta.get(i, k) * incl.Delta[i][k] for (i, k) in incl.support)
    tr2 = tuple(trace_pair.tr_A[i] * float(s[i]) / trace_pair.d_squared
                for i in range(incl.a))
    T_next = [[0] * incl.a for _ in range(incl.b)]
    for i, j in incl.support:
        T_next[j][i] = div(delta.get(i, j) * incl.Delta[i][j], s[i])
    return tr2, tuple(map(tuple, T_next))
