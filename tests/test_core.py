import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PHI, random_connected_edges, random_inclusion, scalars
from mfd import core
from mfd.core import (BipartiteGraph, dual_functor_hom, perron_data,
                      standard_distortion, validate_inclusion)
from mfd.errors import (DisconnectedSupport, NegativeEntry, NonConvergence,
                        SupportMismatch)
from mfd.numbers import close


def matrices_close(A, B, tol=None):
    """Same shape, and every pair of entries close (numbers.close)."""
    if len(A) != len(B):
        return False
    for ra, rb in zip(A, B):
        if len(ra) != len(rb):
            return False
        if not all(close(x, y, tol) for x, y in zip(ra, rb)):
            return False
    return True


def test_validate_basic(a4_incl):
    assert (a4_incl.a, a4_incl.b) == (2, 2)
    assert a4_incl.support == ((0, 0), (1, 0), (1, 1))
    assert a4_incl.D == a4_incl.Delta


def test_validate_rejects_negative():
    with pytest.raises(NegativeEntry) as info:
        validate_inclusion([[1, -1], [1, 1]])
    assert info.value.position == ("D", 0, 1)
    with pytest.raises(NegativeEntry) as info:
        validate_inclusion([[1, 1], [1, 1]], Delta=[[1, 1], [-1, 1]])
    assert info.value.position == ("Delta", 1, 0)


def test_validate_rejects_ragged():
    with pytest.raises(ValueError):
        validate_inclusion([[1, 1], [1]])


def test_validate_rejects_non_number():
    with pytest.raises(ValueError):
        validate_inclusion([[1, "x"]])
    with pytest.raises(ValueError):
        validate_inclusion([[1, True]])


def test_validate_rejects_non_finite():
    # named at the entry, not a NonConvergence of the Perron solve later
    with pytest.raises(ValueError, match=r"D\[0\]\[0\] is not finite: nan"):
        validate_inclusion([[float("nan")]])
    with pytest.raises(ValueError, match=r"Delta\[0\]\[1\] is not finite: -inf"):
        validate_inclusion([[1, 1]], Delta=[[1, float("-inf")]])
    # a Fraction beyond the float range is finite and stays exact
    big = F(10 ** 400)
    assert validate_inclusion([[big]]).D == ((big,),)


def test_validate_rejects_support_mismatch():
    with pytest.raises(SupportMismatch):
        validate_inclusion([[1, 0]], Delta=[[1, 1]])
    with pytest.raises(ValueError):
        validate_inclusion([[1, 1]], Delta=[[1]])


def test_validate_rejects_disconnected():
    with pytest.raises(DisconnectedSupport) as info:
        validate_inclusion([[1, 0], [0, 1]])
    assert len(info.value.components) == 2


def test_graph_tree_and_cycles():
    g = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert g.is_connected
    # spanning tree has a+b-1 edges, one fundamental cycle per extra edge
    assert len(g.tree_edges) == 3
    cycles = g.fundamental_cycles()
    assert len(cycles) == len(g.edges) - 3
    for cyc in cycles:
        assert len(cyc) % 2 == 0 and len(cyc) >= 4


def test_graph_of_and_support_sums():
    M = [[F(1, 2), 0, 3], [0, 0, 2.5]]
    g = BipartiteGraph.of(M)
    assert (g.a, g.b) == (2, 3)
    assert g.edges == ((0, 0), (0, 2), (1, 2))
    values = [M[i][j] for (i, j) in g.edges]
    rows, cols = g.row_sums(values), g.col_sums(values)
    assert rows == [F(7, 2), 2.5] and type(rows[0]) is F
    # an empty row or column sums to the exact 0 it starts from
    assert cols == [F(1, 2), 0, 5.5] and type(cols[1]) is int
    # the same terms in the same order as a dense loop that skips zeros
    rng = random.Random(7)
    for _ in range(50):
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.choice([0, 0, rng.random(), F(rng.randint(1, 9), rng.randint(1, 9))])
              for _ in range(b)] for _ in range(a)]
        g = BipartiteGraph.of(M)
        values = [M[i][j] for (i, j) in g.edges]
        dense_rows, dense_cols = [], []
        for i in range(a):
            s = 0
            for j in range(b):
                if M[i][j] != 0:
                    s = s + M[i][j]
            dense_rows.append(s)
        for j in range(b):
            s = 0
            for i in range(a):
                if M[i][j] != 0:
                    s = s + M[i][j]
            dense_cols.append(s)
        assert g.row_sums(values) == dense_rows
        assert g.col_sums(values) == dense_cols
        assert [type(x) for x in g.col_sums(values)] == [type(x) for x in dense_cols]


def test_graph_tree_support_has_no_cycles(a4_incl):
    assert a4_incl.graph.fundamental_cycles() == []


def test_perron_a4(a4_incl):
    p = perron_data(a4_incl)
    assert abs(p.d_squared - PHI ** 2) < 1e-12
    norm = math.sqrt(1 + PHI ** 2)
    assert abs(p.alpha[0] - 1 / norm) < 1e-12
    assert abs(p.alpha[1] - PHI / norm) < 1e-12
    assert abs(p.beta[0] - PHI / norm) < 1e-12
    assert abs(p.beta[1] - 1 / norm) < 1e-12


def test_perron_trivial():
    p = perron_data(validate_inclusion([[3]]))
    assert abs(p.d - 3) < 1e-14
    assert p.alpha == (1.0,) and p.beta == (1.0,)


def _eigh_oracle(D):
    Df = np.array(D, dtype=float)
    vals, vecs = np.linalg.eigh(Df.T @ Df)
    beta = np.abs(vecs[:, -1])
    return float(vals[-1]), beta / np.linalg.norm(beta)


def _path(n):
    """The path A_2n as an n x n inclusion; its spectral gap shrinks like 1/n^2."""
    return [[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)]


def test_perron_matches_numpy(rng):
    for _ in range(30):
        incl = random_inclusion(rng)
        p = perron_data(incl)
        Df = np.array([[float(x) for x in row] for row in incl.D])
        top = max(np.linalg.eigvalsh(Df.T @ Df))
        assert abs(p.d_squared - top) < 1e-9 * max(top, 1.0)
        # eigen equations in the row convention
        assert np.allclose(np.array(p.alpha) @ Df, p.d * np.array(p.beta),
                           atol=1e-10)
        assert np.allclose(np.array(p.beta) @ Df.T, p.d * np.array(p.alpha),
                           atol=1e-10)
        assert abs(np.linalg.norm(p.alpha) - 1) < 1e-12
        assert abs(np.linalg.norm(p.beta) - 1) < 1e-12
        assert all(x > 0 for x in p.alpha) and all(x > 0 for x in p.beta)
        d2, beta = _eigh_oracle(incl.D)
        assert abs(p.d_squared - d2) <= 1e-12 * d2
        assert float(np.max(np.abs(np.array(p.beta) - beta))) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 8, 16, 24, 32, 48, 64])
def test_perron_long_paths_match_eigh(n):
    d2, beta = _eigh_oracle(_path(n))
    p = perron_data(validate_inclusion(_path(n)))
    assert abs(p.d_squared - d2) <= 1e-12 * d2
    assert abs(p.d_squared - 4 * math.cos(math.pi / (2 * n + 1)) ** 2) <= 1e-12
    assert float(np.max(np.abs(np.array(p.beta) - beta))) <= 1e-10


def test_perron_residual_check(monkeypatch):
    # a solver answer that is not an eigenpair is refused, with its residual
    monkeypatch.setattr(core, "_perron_eigenpair", lambda G: (0.0, [1.0, 0.0]))
    with pytest.raises(NonConvergence) as info:
        perron_data(validate_inclusion([[1, 1], [1, 2]]))
    assert info.value.max_iter is None
    assert info.value.residual > 1e-10


def test_perron_refuses_an_overflowing_gram_matrix():
    with pytest.raises(NonConvergence) as info:
        perron_data(validate_inclusion([[1e155, 1], [1, 1]]))
    assert info.value.max_iter is None and math.isnan(info.value.residual)
    with pytest.raises(FloatingPointError):
        perron_data(validate_inclusion([[1e-200]]))


@st.composite
def supports(draw):
    """A connected support, square, wide or tall, with exact or float entries;
    or a path or cycle whose rows carry one weight up to a row k and another
    after it, so that the extreme ratios of a power step can tie."""
    n = draw(st.integers(1, 7))
    a, b = draw(st.sampled_from([(n, n), (n, n + 2), (n + 2, n)]))
    kind = draw(st.sampled_from(["rank one", "random", "chain"]))
    if kind == "rank one":  # the start vector is the Perron vector
        return [[1] * b for _ in range(a)]
    entry = draw(st.sampled_from([st.integers(1, 5), scalars(True), scalars(False)]))
    if kind == "random":
        edges = random_connected_edges(draw(st.randoms(use_true_random=False)), a, b,
                                       extra=draw(st.integers(0, a * b)))
        return [[draw(entry) if (i, j) in edges else 0 for j in range(b)] for i in range(a)]
    n, k, w = draw(st.integers(1, 12)), draw(st.integers(0, 12)), (draw(entry), draw(entry))
    edges = {(i, j % n) for i in range(n) for j in (i, i + 1)}
    if n > 1 and draw(st.booleans()):  # a path, not a cycle
        edges.discard((n - 1, 0))
    return [[w[i >= k] if (i, j) in edges else 0 for j in range(n)] for i in range(n)]


# G's extreme ratios sit at columns 2 and 6, whose neighbours in G share
# them, so a power step from the ones leaves the bracket [4, 16] as it is
_TIED_CYCLE = [[(1 if i < 4 else 2) * (j in (i, (i + 1) % 8)) for j in range(8)]
               for i in range(8)]


@settings(max_examples=300, deadline=None)
@given(supports())
@example(_TIED_CYCLE)
def test_perron_engine_matches_eigh(D):
    # Both solvers are backward stable: lam to a few eps of itself, and the
    # Perron vectors to eps lam / gap, the spectral gap amplifying the
    # backward error (Davis-Kahan).  The bound allows 64 of each.
    p = perron_data(validate_inclusion(D))
    Df = np.array([[float(x) for x in row] for row in D])
    vals, vecs = np.linalg.eigh(Df.T @ Df)
    lam = float(vals[-1])
    gap = lam - float(vals[-2]) if len(vals) > 1 else lam
    beta = np.abs(vecs[:, -1])
    alpha = Df @ beta / np.linalg.norm(Df @ beta)
    eps = 2.0 ** -52
    assert abs(p.d_squared - lam) <= 64 * eps * lam
    assert np.max(np.abs(np.array(p.beta) - beta)) <= 64 * eps * lam / gap
    assert np.max(np.abs(np.array(p.alpha) - alpha)) <= 64 * eps * lam / gap


def _ade():
    """(name, Coxeter number h, bipartite matrix) of A_2..A_40, D_4..D_29, E_6..E_8:
    rows the even vertices of the Dynkin diagram, columns the odd ones."""
    def matrix(n, edges):
        side = [0] * n
        for u, w in sorted(edges):
            side[w] = 1 - side[u]
        rows = [v for v in range(n) if side[v] == 0]
        cols = [v for v in range(n) if side[v] == 1]
        return [[int((r, c) in edges or (c, r) in edges) for c in cols] for r in rows]

    def chain(n):
        return {(k, k + 1) for k in range(n - 1)}
    yield from ((f"A{n}", n + 1, matrix(n, chain(n))) for n in range(2, 41))
    yield from ((f"D{n}", 2 * n - 2, matrix(n, chain(n - 1) | {(n - 3, n - 1)}))
                for n in range(4, 30))
    yield from ((f"E{n}", h, matrix(n, chain(n - 1) | {(2, n - 1)}))
                for n, h in ((6, 12), (7, 18), (8, 30)))


@pytest.mark.parametrize("name, h, D", list(_ade()), ids=[name for name, _, _ in _ade()])
def test_ade_graphs_have_d_2cos_pi_over_h(name, h, D):
    # Goodman, de la Harpe and Jones, Coxeter Graphs and Towers of Algebras:
    # the norm of an ADE graph with Coxeter number h is 2 cos(pi / h)
    d = 2 * math.cos(math.pi / h)
    assert abs(perron_data(validate_inclusion(D)).d - d) <= 2.3e-16 * d


@pytest.mark.parametrize("Delta", [None, [[2, 0], [1, 3]], [[F(1, 2), 0], [1, F(3, 2)]],
                                   [[0.5, 0.0], [1.0, 1.5]]])
def test_dual_is_the_transposed_inclusion(Delta):
    incl = validate_inclusion([[1, 0], [1, 1]], Delta)
    dual = incl.dual
    fresh = validate_inclusion(tuple(zip(*incl.D)), tuple(zip(*incl.Delta)))
    assert (dual.a, dual.b, dual.D, dual.Delta) == (fresh.a, fresh.b, fresh.D, fresh.Delta)
    assert dual.graph.edges == fresh.graph.edges == ((0, 0), (0, 1), (1, 1))
    assert (dual.Delta is dual.D) == (Delta is None)
    if fresh.jones_ints is None:
        assert dual.jones_ints is None
    else:
        assert (dual.jones_ints[0], [list(r) for r in dual.jones_ints[1]]) == fresh.jones_ints
    assert incl.dual is dual


def test_standard_distortion_a4(a4_incl):
    sigma = standard_distortion(perron_data(a4_incl))
    expect = [[PHI ** 2, PHI], [PHI, 1.0]]
    for i in range(2):
        for j in range(2):
            assert abs(sigma[i][j] - expect[i][j]) < 1e-12


def test_dual_functor_hom_a4(a4_incl):
    pi = dual_functor_hom(perron_data(a4_incl))
    expect = [[1 / PHI ** 2, 1.0], [1.0, PHI ** 2]]
    for i in range(2):
        for j in range(2):
            assert abs(pi[i][j] - expect[i][j]) < 1e-12


def test_standard_distortion_product_identity(rng):
    # sigma_ij * sigma_i'j' == sigma_ij' * sigma_i'j for every quadruple
    incl = random_inclusion(rng, max_a=4, max_b=4)
    sigma = standard_distortion(perron_data(incl))
    for i in range(incl.a):
        for i2 in range(incl.a):
            for j in range(incl.b):
                for j2 in range(incl.b):
                    lhs = sigma[i][j] * sigma[i2][j2]
                    rhs = sigma[i][j2] * sigma[i2][j]
                    assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)


def test_scalars_exact_and_close():
    assert matrices_close([[1.0, 2.0]], [[1.0, 2.0 + 1e-15]])
    assert not matrices_close([[1.0]], [[1.0], [2.0]])
    assert not matrices_close([[1.0, 2.0]], [[1.0]])


def test_random_supports_are_connected():
    rng = random.Random(4)
    for _ in range(50):
        incl = random_inclusion(rng)
        assert incl.graph.is_connected
        assert len(incl.graph.tree_edges) == incl.a + incl.b - 1
