from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import linear_oracle
from conftest import (PHI, jones_inclusions, random_connected_edges, random_factorized_delta,
                      random_inclusion, scalars)
from mfd import core
from mfd.core import perron_data, standard_distortion, validate_inclusion
from mfd.distortion import as_distortion, check_extremality, extend_to_complete, from_potentials
from mfd.errors import (ColumnNormalizationViolation, CycleViolation,
                        DisconnectedSupport, MissingDistortionEntry,
                        NegativeEntry, NonConvergence)
from mfd.markov import (basic_construction_trace, check_extremal_inclusion,
                        check_super_extremal_findim, distortion_from_trace,
                        distortion_from_trace_matrix, expectation_coefficients,
                        finite_dim_markov, markov_trace, trace_matrices)
from mfd.tower import homogeneity_report


def F(p, q=1):
    return Fraction(p, q)


def test_trace_matrices_a4(a4_incl, a4_delta):
    tm = trace_matrices(a4_incl, a4_delta)
    assert tm.T == ((F(1, 2), 0), (F(1, 2), 1))
    assert tm.T_tilde == ((2, 2), (0, 1))


def test_trace_matrices_requires_support_entries(a4_incl):
    with pytest.raises(MissingDistortionEntry):
        trace_matrices(a4_incl, {(0, 0): 2, (1, 1): 1})


def test_markov_trace_a4(a4_incl, a4_delta):
    tp = markov_trace(a4_incl, a4_delta)
    assert abs(tp.d_squared - PHI ** 2) < 1e-10
    assert abs(tp.tr_A[0] - PHI ** -2) < 1e-12
    assert abs(tp.tr_A[1] - PHI ** -1) < 1e-12
    assert abs(tp.tr_B[0] - 2 * PHI ** -2) < 1e-12
    assert abs(tp.tr_B[1] - PHI ** -3) < 1e-12
    assert abs(sum(tp.tr_A) - 1) < 1e-12
    assert abs(sum(tp.tr_B) - 1) < 1e-12


def test_markov_trace_rejects_unnormalized(homog_incl):
    bad = as_distortion([[1], [1]], homog_incl.graph)
    with pytest.raises(ColumnNormalizationViolation):
        markov_trace(homog_incl, bad)
    # diagnostics mode still returns the spectral pair
    tp = markov_trace(homog_incl, bad, require_normalized=False)
    assert abs(tp.d_squared - 2) < 1e-12


def test_markov_trace_residual_check(monkeypatch, a4_incl, a4_delta):
    # a wrong eigenpair from the engine is refused with its residual
    monkeypatch.setattr(core, "_perron_eigenpair", lambda G: (0.0, [1.0, 0.0]))
    with pytest.raises(NonConvergence) as info:
        markov_trace(a4_incl, a4_delta)
    assert info.value.max_iter is None
    assert info.value.residual > 1e-10


@settings(max_examples=150, deadline=None)
@given(jones_inclusions(), st.randoms(use_true_random=False))
def test_markov_trace_reads_the_perron_data_of_delta(case, rnd):
    # d^2 and tr_B come from Delta's one solve, bit for bit what an explicit
    # eigen-solve of Jones^T Jones gives; when Delta = D that solve is D's.
    incl, exact = case
    event("exact" if exact else "float")
    event("Delta = D" if incl.Delta == incl.D else "Delta != D")
    delta = extend_to_complete(random_factorized_delta(rnd, incl, exact=exact)[0], incl.graph)
    tp = markov_trace(incl, delta, require_normalized=False)
    jones = core._solve_perron(incl.Delta, incl.graph)
    w = [float(x) * v for x, v in zip(delta.xi, jones.beta)]
    assert tp.d_squared == jones.d_squared
    assert tp.tr_B == tuple(x / sum(w) for x in w)
    if incl.Delta == incl.D:
        assert perron_data(incl).d_squared == jones.d_squared


def test_one_solve_serves_perron_trace_and_homogeneity(monkeypatch, a4_incl, a4_delta):
    calls = []
    solve = core._solve_perron
    monkeypatch.setattr(core, "_solve_perron", lambda M, graph: calls.append(M) or solve(M, graph))
    perron = perron_data(a4_incl)
    tp = markov_trace(a4_incl, a4_delta)
    homogeneity_report(a4_incl, a4_delta, trace_pair=tp, perron=perron)
    assert len(calls) == 1
    assert a4_incl.jones_perron is perron


def test_markov_trace_homog(homog_incl, homog_delta):
    tp = markov_trace(homog_incl, homog_delta)
    assert abs(tp.d_squared - 2) < 1e-12
    assert abs(tp.tr_A[0] - 0.5) < 1e-12 and abs(tp.tr_A[1] - 0.5) < 1e-12
    assert tp.tr_B == (1.0,)


def test_markov_trace_of_standard_distortion_is_normalized(rng):
    # sigma always yields column sums 1, hence a genuine Markov trace
    for _ in range(20):
        incl = random_inclusion(rng)
        perron = perron_data(incl)
        sigma = standard_distortion(perron)
        tp = markov_trace(incl, as_distortion(sigma, incl.graph), tol=1e-9)
        assert abs(tp.d_squared - perron.d_squared) < 1e-8 * perron.d_squared


def spectral_trace_oracle(incl, delta):
    """Oracle: the trace pair as the Frobenius-Perron eigendata of
    M = Ttilde T, tr_B summing to one, tr_A = T tr_B.  A general float eig
    of M loses digits when M is far from normal (potentials spread over
    decades), so its eigenpair is polished by one Newton step on
    M v = d2 v, sum v = 1, taken in exact arithmetic: the step squares the
    eig's error."""
    tm = trace_matrices(incl, delta)
    T = [[Fraction(x) for x in row] for row in tm.T]
    n = len(tm.T_tilde)
    M = [[sum(Fraction(t) * T[k][j] for k, t in enumerate(row)) for j in range(n)]
         for row in tm.T_tilde]
    vals, vecs = np.linalg.eig(np.array(M, dtype=float))
    k = int(np.argmax(vals.real))
    d2 = Fraction(float(vals[k].real))
    v = np.abs(vecs[:, k].real)
    v = [Fraction(float(x)) for x in v / v.sum()]
    # [M - d2, -v; 1, 0] (dv, dd) = -(M v - d2 v, sum v - 1)
    J = [[M[i][j] - (d2 if i == j else 0) for j in range(n)] + [-v[i]] for i in range(n)]
    J.append([1] * n + [0])
    rhs = [d2 * v[i] - sum(m * x for m, x in zip(M[i], v)) for i in range(n)] + [1 - sum(v)]
    kind, step = linear_oracle.solve(J, rhs)
    assert kind == "unique"
    tr_B = [x + dx for x, dx in zip(v, step)]
    tr_A = [sum(t * x for t, x in zip(row, tr_B)) for row in T]
    return float(d2 + step[n]), [float(x) for x in tr_A], [float(x) for x in tr_B]


@st.composite
def trace_cases(draw):
    """A connected inclusion (a, b <= 6) in either number mode, a Jones
    matrix equal to D or not, and a factorized delta = xi_j / eta_i that is
    realizable (xi = eta Jones, traced with require_normalized) or not,
    with or without its potentials."""
    incl, exact = draw(jones_inclusions())
    a, b = incl.a, incl.b
    eta = [draw(scalars(exact)) for _ in range(a)]
    realizable = draw(st.booleans())
    xi = ([sum(eta[i] * incl.Delta[i][j] for i in range(a)) for j in range(b)]
          if realizable else [draw(scalars(exact)) for _ in range(b)])
    rows = [[xi[j] / eta[i] if incl.D[i][j] else None for j in range(b)] for i in range(a)]
    delta = as_distortion(rows, incl.graph)
    if draw(st.booleans()):
        delta = extend_to_complete(delta, incl.graph)
    return incl, delta, realizable


@settings(max_examples=150, deadline=None)
@given(trace_cases())
def test_markov_trace_is_the_spectral_trace(case):
    # Ttilde T = diag(xi) Jones^T Jones diag(xi)^-1: the trace read off the
    # potentials is the Perron eigendata of Ttilde T
    incl, delta, require_normalized = case
    tp = markov_trace(incl, delta, require_normalized=require_normalized)
    d2, tr_A, tr_B = spectral_trace_oracle(incl, delta)
    assert tp.d_squared == pytest.approx(d2, rel=1e-12)
    assert tp.tr_A == pytest.approx(tuple(tr_A), rel=1e-12)
    assert tp.tr_B == pytest.approx(tuple(tr_B), rel=1e-12)


def test_finite_dim_markov_a4_doubled():
    fd = finite_dim_markov([[1, 0], [1, 1]], m_A=(1, 2))
    assert fd.m_B == (3, 2)
    assert abs(fd.d_squared - PHI ** 2) < 1e-12
    s = 2 + 3 * PHI
    assert abs(fd.lambda_B[0] - PHI / s) < 1e-12
    assert abs(fd.lambda_B[1] - 1 / s) < 1e-12
    assert abs(fd.lambda_A[0] - 1 / (1 + 2 * PHI)) < 1e-12
    assert abs(fd.lambda_A[1] - PHI / (1 + 2 * PHI)) < 1e-12
    # both normalizations hold
    assert abs(sum(m * x for m, x in zip(fd.m_A, fd.lambda_A)) - 1) < 1e-12
    assert abs(sum(m * x for m, x in zip(fd.m_B, fd.lambda_B)) - 1) < 1e-12
    lam_A, lam_B, d2 = fd
    assert lam_A == fd.lambda_A and lam_B == fd.lambda_B and d2 == fd.d_squared


def test_finite_dim_markov_validation():
    with pytest.raises(ValueError):
        finite_dim_markov([[1, 0.5]])
    with pytest.raises(ValueError):
        finite_dim_markov([[1, 1]], m_A=(1, 1))
    with pytest.raises(ValueError):
        finite_dim_markov([[1, 1]], m_A=(0,))
    with pytest.raises(NegativeEntry) as info:
        finite_dim_markov([[1, -1]])
    assert (info.value.position, info.value.value) == (("Lambda", 0, 1), -1)
    with pytest.raises(ValueError, match="^Lambda is ragged at row 1$"):
        finite_dim_markov([[1, 0], [1]])
    with pytest.raises(ValueError, match=r"^Lambda\[0\]\[1\] is not finite: inf$"):
        finite_dim_markov([[1.0, float("inf")]])


def test_finite_dim_markov_rejects_non_finite_entries():
    for x in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="not finite"):
            finite_dim_markov([[1.0, x]])


def test_finite_dim_markov_disconnected_support():
    # the same error, with the same components, as a disconnected D
    with pytest.raises(DisconnectedSupport) as info:
        finite_dim_markov([[1, 0], [0, 2]], m_A=(1, 1))
    assert info.value.components == [(frozenset({0}), frozenset({0})),
                                     (frozenset({1}), frozenset({1}))]


def test_finite_dim_markov_of_an_inclusion_reads_its_perron_data(a4_incl):
    assert finite_dim_markov(a4_incl, (1, 2)) == finite_dim_markov([[1, 0], [1, 1]], (1, 2))
    assert finite_dim_markov(a4_incl).d_squared is a4_incl.perron.d_squared


def closed_form_trace_matrices(m_A, Lambda):
    """Oracle: T_ij = Lambda_ij m_A(i) / m_B(j) and
    Ttilde_ji = Lambda_ij m_B(j) / m_A(i), with m_B = m_A Lambda."""
    a, b = len(Lambda), len(Lambda[0])
    m_B = [sum(m_A[i] * Lambda[i][j] for i in range(a)) for j in range(b)]
    T = tuple(tuple(F(Lambda[i][j] * m_A[i], m_B[j]) if Lambda[i][j] else 0
                    for j in range(b)) for i in range(a))
    Tt = tuple(tuple(F(Lambda[i][j] * m_B[j], m_A[i]) if Lambda[i][j] else 0
                     for i in range(a)) for j in range(b))
    return T, Tt


def potential_trace_matrices(m_A, Lambda):
    """The trace matrices of (m_A, Lambda): those of the inclusion D = Lambda
    at the distortion m_B(j) / m_A(i) of the potentials (m_A, m_B = m_A Lambda)."""
    incl = validate_inclusion(Lambda)
    m_B = [sum(m * x for m, x in zip(m_A, col)) for col in zip(*Lambda)]
    return trace_matrices(incl, from_potentials(m_A, m_B, incl.graph.edges))


def test_finite_dim_trace_matrices_exact():
    tm = potential_trace_matrices((1, 1), [[1, 0], [1, 1]])
    assert tm.T == ((F(1, 2), 0), (F(1, 2), 1))
    assert tm.T_tilde == ((2, 2), (0, 1))
    tm2 = potential_trace_matrices((1, 2), [[1, 0], [1, 1]])
    assert tm2.T == ((F(1, 3), 0), (F(2, 3), 1))
    assert tm2.T_tilde == ((3, F(3, 2)), (0, 1))
    assert (tm2.T, tm2.T_tilde) == closed_form_trace_matrices((1, 2), [[1, 0], [1, 1]])
    # column sums of T are exactly 1
    for j in range(2):
        assert sum(tm2.T[i][j] for i in range(2)) == 1


@st.composite
def finite_dim_inclusions(draw):
    """(m_A, Lambda): a connected nonnegative-integer Lambda (a, b <= 5) and
    a positive integer m_A."""
    a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    edges = random_connected_edges(draw(st.randoms(use_true_random=False)), a, b,
                                   extra=draw(st.integers(0, 4)))
    Lambda = [[0] * b for _ in range(a)]
    for i, j in edges:
        Lambda[i][j] = draw(st.integers(1, 4))
    return tuple(draw(st.integers(1, 5)) for _ in range(a)), Lambda


@settings(max_examples=150, deadline=None)
@given(finite_dim_inclusions())
def test_finite_dim_markov_is_the_explicit_solve(case):
    # the Perron vector of Lambda^T Lambda, normalized by m_B . v, bit for bit
    m_A, Lambda = case
    a, b = len(Lambda), len(Lambda[0])
    m_B = tuple(sum(m_A[i] * Lambda[i][j] for i in range(a)) for j in range(b))
    incl = validate_inclusion(Lambda)
    perron = core._solve_perron(incl.D, incl.graph)
    d2, v = perron.d_squared, perron.beta
    lam_B = tuple(x / sum(float(m) * y for m, y in zip(m_B, v)) for x in v)
    lam_A = tuple(float(sum(Lambda[i][j] * lam_B[j] for j in range(b))) for i in range(a))
    fdm = finite_dim_markov(Lambda, m_A)
    assert (fdm.lambda_A, fdm.lambda_B, fdm.d_squared) == (lam_A, lam_B, d2)
    assert (fdm.m_A, fdm.m_B) == (m_A, m_B)


@settings(max_examples=150, deadline=None)
@given(finite_dim_inclusions())
def test_finite_dim_trace_matrices_are_the_closed_form(case):
    m_A, Lambda = case
    tm = potential_trace_matrices(m_A, Lambda)
    assert (tm.T, tm.T_tilde) == closed_form_trace_matrices(m_A, Lambda)


def test_distortion_from_trace_matrix_exact(a4_incl, a4_delta):
    T = ((F(1, 2), 0), (F(1, 2), 1))
    dm = distortion_from_trace_matrix(a4_incl, T)
    assert dm.total == a4_delta.total == ((2, 1), (2, 1))
    with pytest.raises(MissingDistortionEntry):
        distortion_from_trace_matrix(a4_incl, ((0, 0), (F(1, 2), 1)))


def test_distortion_from_trace_vector(a4_incl, a4_delta):
    tp = markov_trace(a4_incl, a4_delta)
    dm = distortion_from_trace(tp.tr_A, a4_incl)
    for i in range(2):
        for j in range(2):
            assert abs(dm.get(i, j) - a4_delta.get(i, j)) < 1e-10


@settings(max_examples=150, deadline=None)
@given(jones_inclusions(), st.data())
def test_distortion_from_trace_has_that_markov_trace(case, data):
    # eta = tr_A / alpha and xi = eta Delta for the Perron data of Delta:
    # a realizable delta whose Markov trace restricts to tr_A on A
    incl, _ = case
    weights = data.draw(st.lists(st.floats(0.125, 8), min_size=incl.a, max_size=incl.a))
    tr_A = [w / sum(weights) for w in weights]
    delta = distortion_from_trace(tr_A, incl)
    tp = markov_trace(incl, delta, require_normalized=True)
    assert max(abs(x - y) for x, y in zip(tp.tr_A, tr_A)) <= 1e-12


def test_distortion_from_trace_carries_potentials_without_a_cycle_check(
        monkeypatch, tmp_path):
    # delta of trace_A is xi_j / eta_i with eta_i = tr_A(i) / alpha_i and
    # xi_j = sum_h eta_h Delta_hj, built from those potentials: no cycle check
    # runs, so the spec's tolerance 0 has nothing to refuse.
    import json

    from mfd import distortion
    from mfd.cli import load_spec

    checks = []
    real_check = distortion.check_cycle_condition
    monkeypatch.setattr(distortion, "check_cycle_condition",
                        lambda *args, **kwargs: checks.append(args) or real_check(*args, **kwargs))
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"D": [[1, 1], [1, 2]], "trace_A": ["1/3", "2/3"],
                                "tolerance": 0}))
    spec = load_spec(str(path))
    dm = spec.delta
    assert checks == []
    perron = spec.incl.perron
    eta = [tr / al for tr, al in zip((1 / 3, 2 / 3), perron.alpha)]
    xi = [eta[0] * 1 + eta[1] * 1, eta[0] * 1 + eta[1] * 2]
    assert dm.eta[0] == 1
    assert np.allclose(dm.eta, np.array(eta) / eta[0], rtol=1e-14)
    assert np.allclose(dm.xi, np.array(xi) / eta[0], rtol=1e-14)
    assert dm.total == tuple(tuple(x / e for x in dm.xi) for e in dm.eta)
    assert dm.entries == {(i, j): dm.total[i][j] for i in range(2) for j in range(2)}


def test_expectation_coefficients_a4(a4_incl, a4_delta):
    tp = markov_trace(a4_incl, a4_delta)
    co = expectation_coefficients(a4_incl, a4_delta, tp)
    expect = {(0, 0): 1.0, (1, 0): 1 / PHI, (1, 1): PHI ** -2}
    for edge, val in expect.items():
        assert abs(co.lambda_markov[edge] - val) < 1e-12
        assert abs(co.lambda_minimal[edge[0]][edge[1]] - val) < 1e-12
    assert co.lambda_minimal[0][1] == 0  # multiplicity factor kills (0,1)
    assert (0, 1) not in co.lambda_markov


def test_check_extremal_inclusion_a4(a4_incl, a4_delta):
    tp = markov_trace(a4_incl, a4_delta)
    rep = check_extremal_inclusion(a4_incl, a4_delta, tp, tol=1e-9)
    assert rep.e1 and rep.e2 and rep.e3
    assert rep.e1 == rep.e2 == rep.e3 and rep.extremal


def test_check_extremal_inclusion_jones_differs():
    incl = validate_inclusion([[1, 1]], Delta=[[1, 2]])
    delta = as_distortion([[1, 2]], incl.graph)
    tp = markov_trace(incl, delta)
    rep = check_extremal_inclusion(incl, delta, tp, tol=1e-9)
    assert not rep.e1 and not rep.e2 and not rep.e3
    assert rep.e1 == rep.e2 == rep.e3 and not rep.extremal


def test_check_extremal_inclusion_cycle_fails():
    # normalized columns but no factorization: the distortion of no inclusion,
    # so there is no Markov trace, and the inclusion is not extremal
    incl = validate_inclusion([[1, 1], [1, 1]])
    delta = as_distortion([[2, 4], [2, F(4, 3)]], incl.graph)
    with pytest.raises(CycleViolation):
        markov_trace(incl, delta)
    assert check_extremality(incl, delta, tol=1e-9).extremal is False


def test_check_extremal_inclusion_consistency_random(rng):
    # realizable factorized distortions with Jones == D are extremal in all
    # three senses
    for _ in range(15):
        incl = random_inclusion(rng, max_a=4, max_b=4)
        eta = [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(incl.a)]
        xi = [sum(eta[h] * incl.D[h][j] for h in range(incl.a))
              for j in range(incl.b)]
        rows = [[xi[j] / eta[i] if incl.D[i][j] else None
                 for j in range(incl.b)] for i in range(incl.a)]
        delta = as_distortion(rows, incl.graph)
        tp = markov_trace(incl, delta, tol=1e-9)
        rep = check_extremal_inclusion(incl, delta, tp, tol=1e-7)
        assert rep.e1 == rep.e2 == rep.e3
        assert rep.extremal


def test_super_extremal_findim():
    assert check_super_extremal_findim((1, 1), [[1], [1]])
    assert not check_super_extremal_findim((1, 2), [[1, 0], [1, 1]])
    # matrix inclusion of index 4: C in M_2 has m0=(1), Lambda=[[2]]
    assert check_super_extremal_findim((1,), [[2]])


def test_basic_construction_trace(homog_incl, homog_delta):
    tp = markov_trace(homog_incl, homog_delta)
    tr2, T_next = basic_construction_trace(tp, homog_incl, homog_delta)
    assert abs(tr2[0] - 0.5) < 1e-12 and abs(tr2[1] - 0.5) < 1e-12
    assert T_next == ((1.0, 1.0),) or T_next == ((1, 1),)


def test_basic_construction_trace_a4(a4_incl, a4_delta):
    tp = markov_trace(a4_incl, a4_delta)
    tr2, T_next = basic_construction_trace(tp, a4_incl, a4_delta)
    # row sums s = (2, 3); trace matrix lives on the transposed support
    assert T_next == ((1.0, F(2, 3)), (0, F(1, 3)))
    assert abs(sum(tr2) - 1) < 1e-12
