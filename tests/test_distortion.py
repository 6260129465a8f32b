from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_factorized_delta, random_inclusion
from mfd.core import BipartiteGraph, validate_inclusion
from mfd.distortion import (DistortionMatrix, GroupoidHom, as_distortion,
                            check_cycle_condition, check_extremality,
                            extend_to_complete, extend_to_groupoid, factorize)
from mfd.errors import CycleViolation, DisconnectedSupport, MissingEntry
from mfd.numbers import close, is_exact


def F(p, q=1):
    return Fraction(p, q)


def check_extension_condition(rows, tol=None):
    """Oracle: every 2x2 minor of a total matrix vanishes,
    delta_ij * delta_i'j' == delta_ij' * delta_i'j; the first failing
    (i, j, i', j'), else None."""
    a, b = len(rows), len(rows[0])
    for i in range(a):
        for i2 in range(i + 1, a):
            for j in range(b):
                for j2 in range(j + 1, b):
                    lhs = rows[i][j] * rows[i2][j2]
                    rhs = rows[i][j2] * rows[i2][j]
                    if is_exact(lhs) and is_exact(rhs):
                        ok = lhs == rhs
                    else:
                        ok = close(lhs, rhs, tol)
                    if not ok:
                        return (i, j, i2, j2)
    return None


class NotGroupoidHom(AssertionError):
    pass


def square_groupoid_potential(values, tol=None):
    """Oracle: every triple composes, values_ij * values_jk == values_ik;
    returns the potential row values_0."""
    if isinstance(values, GroupoidHom):
        values = values.values
    rows = [list(r) for r in values]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("groupoid hom values must be square")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = rows[i][j] * rows[j][k]
                rhs = rows[i][k]
                if is_exact(lhs) and is_exact(rhs):
                    ok = lhs == rhs
                else:
                    ok = close(lhs, rhs, tol)
                if not ok:
                    raise NotGroupoidHom((i, j, k))
    return tuple(rows[0])


def brute_force_cycle_condition(delta, graph):
    """Oracle: enumerate every simple cycle by DFS and compare products."""
    adj = {}
    for i, j in graph.edges:
        adj.setdefault(("row", i), []).append(("col", j))
        adj.setdefault(("col", j), []).append(("row", i))

    cycles = []

    def walk(path, seen):
        v = path[-1]
        for w in adj[v]:
            if w == path[0] and len(path) >= 4:
                cycles.append(tuple(path))
            elif w not in seen:
                walk(path + [w], seen | {w})

    for start in sorted(adj):
        walk([start], {start})

    for cyc in cycles:
        left = right = F(1)
        n = len(cyc)
        for t in range(n):
            u, w = cyc[t], cyc[(t + 1) % n]
            if u[0] == "row":
                left *= F(delta.get(u[1], w[1]))
            else:
                right *= F(delta.get(w[1], u[1]))
        if left != right:
            return False
    return True


def test_as_distortion_forms():
    incl = validate_inclusion([[1, 1], [0, 1]])
    from_rows = as_distortion([[2, 1], [None, 3]], incl.graph)
    from_dict = as_distortion({(0, 0): 2, (0, 1): 1, (1, 1): 3}, incl.graph)
    assert from_rows.entries == from_dict.entries
    assert from_rows.support == [(0, 0), (0, 1), (1, 1)]
    assert from_rows.rows() == [[2, 1], [None, 3]]
    assert from_rows.get(0, 1) == 1
    assert not from_rows.has(1, 0)
    with pytest.raises(MissingEntry):
        from_rows.get(1, 0)


def test_as_distortion_rejects_bad_values():
    incl = validate_inclusion([[1, 1]])
    with pytest.raises(ValueError):
        as_distortion([[1, 0]], incl.graph)
    with pytest.raises(ValueError):
        as_distortion([[1, -2]], incl.graph)
    with pytest.raises(MissingEntry):
        as_distortion([[1, None]], incl.graph)
    with pytest.raises(ValueError):
        as_distortion([[1, 1], [1, 1]], incl.graph)
    with pytest.raises(TypeError):
        as_distortion({(0, 0): 1})


def test_total_matrix_detected():
    dm = as_distortion([[1, 2], [3, 4]])
    assert dm.total == ((1, 2), (3, 4))
    assert dm.get(0, 1) == 2


def test_cycle_condition_tree_support_always_holds(a4_incl, a4_delta):
    assert check_cycle_condition(a4_delta, a4_incl.graph)


def test_cycle_condition_violation():
    incl = validate_inclusion([[1, 1], [1, 2]])
    delta = as_distortion([[1, 1], [1, 2]], incl.graph)
    check = check_cycle_condition(delta, incl.graph)
    assert not check
    assert check.witness is not None
    assert check.left != check.right
    with pytest.raises(CycleViolation):
        factorize(delta, incl.graph)
    # A disconnected graph has no spanning tree to run the cycles on.
    graph = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
    delta = as_distortion({(0, 0): 1, (1, 1): 2}, graph)
    for check_of in (check_cycle_condition, factorize, extend_to_complete):
        with pytest.raises(DisconnectedSupport) as info:
            check_of(delta, graph)
        assert info.value.components == graph.components


def test_cycle_condition_matches_brute_force(rng):
    agree_true = agree_false = 0
    for _ in range(60):
        incl = random_inclusion(rng, max_a=4, max_b=4)
        if rng.random() < 0.5:
            delta, _, _ = random_factorized_delta(rng, incl)
        else:
            rows = [[F(rng.randint(1, 5), rng.randint(1, 5))
                     if incl.D[i][j] != 0 else None
                     for j in range(incl.b)] for i in range(incl.a)]
            delta = as_distortion(rows, incl.graph)
        fast = bool(check_cycle_condition(delta, incl.graph))
        slow = brute_force_cycle_condition(delta, incl.graph)
        assert fast == slow
        if fast:
            agree_true += 1
        else:
            agree_false += 1
    assert agree_true >= 5 and agree_false >= 5


def test_factorize_gauge_and_reconstruction(rng):
    for _ in range(40):
        incl = random_inclusion(rng)
        delta, _, _ = random_factorized_delta(rng, incl)
        eta, xi = factorize(delta, incl.graph)
        assert eta[0] == 1
        for (i, j) in incl.graph.edges:
            assert Fraction(xi[j], 1) / eta[i] == delta.get(i, j)


def test_extend_a4(a4_incl, a4_delta):
    assert a4_delta.total == ((2, 1), (2, 1))
    assert a4_delta.eta == (1, 1)
    assert a4_delta.xi == (2, 1)
    # the completed entry respects the product identity
    assert a4_delta.get(0, 1) * a4_delta.get(1, 0) == \
        a4_delta.get(0, 0) * a4_delta.get(1, 1)


def test_extend_unique(rng):
    # any total cycle-consistent matrix agreeing on support equals the extension
    for _ in range(20):
        incl = random_inclusion(rng, max_a=4, max_b=4)
        delta, eta, xi = random_factorized_delta(rng, incl)
        ext = extend_to_complete(delta, incl.graph)
        for i in range(incl.a):
            for j in range(incl.b):
                assert ext.get(i, j) == F(xi[j]) / F(eta[i])


def test_extension_condition():
    assert check_extension_condition([[1, 2], [3, 6]]) is None
    assert check_extension_condition([[1, 2], [3, 7]]) == (0, 0, 1, 1)


def test_groupoid_hom_a4(a4_delta):
    hom = extend_to_groupoid(a4_delta)
    assert hom.n == 4
    v = hom.values
    # even-even block: delta_00 / delta_10 and its inverse
    assert v[0][0] == 1 and v[1][1] == 1
    assert v[0][1] == 1 and v[1][0] == 1
    # odd-odd block: delta_01 / delta_00 and its inverse
    assert v[2][3] == F(1, 2) and v[3][2] == 2
    # cross blocks are delta and its reciprocals
    assert v[0][2] == 2 and v[2][0] == F(1, 2)
    assert v[1][3] == 1 and v[3][1] == 1
    assert hom.potential == v[0]


def test_groupoid_hom_is_cocycle(a4_delta):
    v = extend_to_groupoid(a4_delta).values
    n = len(v)
    for i in range(n):
        assert v[i][i] == 1
        for j in range(n):
            assert v[i][j] * v[j][i] == 1
            for k in range(n):
                assert v[i][j] * v[j][k] == v[i][k]


def test_groupoid_hom_requires_total():
    dm = DistortionMatrix(a=1, b=2, entries={(0, 0): 1})
    with pytest.raises(MissingEntry):
        extend_to_groupoid(dm)
    with pytest.raises(MissingEntry):
        extend_to_groupoid([[1, None]])


def test_groupoid_hom_rejects_inconsistent():
    with pytest.raises(CycleViolation):
        extend_to_groupoid([[1, 2], [3, 7]])


def test_square_groupoid_potential(a4_delta):
    hom = extend_to_groupoid(a4_delta)
    pot = square_groupoid_potential(hom)
    assert pot == (1, 1, 2, 1)
    with pytest.raises(NotGroupoidHom):
        square_groupoid_potential([[1, 2], [3, 1]])
    with pytest.raises(ValueError):
        square_groupoid_potential([[1, 2]])


def test_equivalences_on_random_data(rng):
    # cycle condition, factorization, extension, groupoid hom stand or fall
    # together
    for _ in range(30):
        incl = random_inclusion(rng, max_a=4, max_b=4)
        delta, _, _ = random_factorized_delta(rng, incl)
        assert check_cycle_condition(delta, incl.graph)
        ext = extend_to_complete(delta, incl.graph)
        assert check_extension_condition(ext.rows()) is None
        hom = extend_to_groupoid(ext)
        assert square_groupoid_potential(hom) == hom.values[0]


@st.composite
def total_matrices(draw):
    """A total a x b matrix xi_j / eta_i (a, b <= 6), in either number
    mode, with one entry scaled off the factorization half of the time."""
    exact = draw(st.booleans())
    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    num = (st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)) if exact
           else st.floats(0.125, 8))
    eta = [draw(num) for _ in range(a)]
    xi = [draw(num) for _ in range(b)]
    rows = [[xi[j] / eta[i] for j in range(b)] for i in range(a)]
    scaled = draw(st.booleans())
    if scaled:
        i, j = draw(st.integers(0, a - 1)), draw(st.integers(0, b - 1))
        factor = draw(st.sampled_from([F(2), F(1, 3), F(3, 2)]))
        rows[i][j] = rows[i][j] * (factor if exact else float(factor))
    return rows, eta, xi, scaled


@settings(max_examples=150, deadline=None)
@given(total_matrices())
def test_groupoid_extension_is_the_potentials(case):
    # cycle condition on the complete graph <=> every 2x2 minor vanishes
    # <=> extend_to_groupoid succeeds; its hom composes on every triple and
    # its potential is (eta, xi) in the gauge eta_0 = 1
    rows, eta, xi, scaled = case
    a, b = len(eta), len(xi)
    complete = BipartiteGraph(a, b, [(i, j) for i in range(a) for j in range(b)])
    cycle = bool(check_cycle_condition(as_distortion(rows), complete))
    minors = check_extension_condition(rows) is None
    try:
        hom = extend_to_groupoid(rows)
    except CycleViolation:
        hom = None
    assert cycle == minors == (hom is not None)
    if hom is None:
        return
    assert square_groupoid_potential(hom) == hom.values[0]
    for i in range(a):
        for j in range(b):
            assert close(hom.values[i][a + j], rows[i][j])
    if not scaled:
        expected = [x / eta[0] for x in eta + xi]
        if is_exact(eta[0]):
            assert hom.potential == tuple(expected)
        else:
            assert all(close(x, y) for x, y in zip(hom.potential, expected))


def test_extremality(a4_incl, a4_delta):
    rep = check_extremality(a4_incl, a4_delta)
    assert rep.extremal
    assert rep.jones_equals_statistical and rep.cycle_condition_holds

    jones_differs = validate_inclusion([[1, 1]], Delta=[[1, 2]])
    delta = as_distortion([[1, 2]], jones_differs.graph)
    rep2 = check_extremality(jones_differs, delta)
    assert not rep2.extremal
    assert not rep2.jones_equals_statistical
    assert rep2.cycle_condition_holds

    square = validate_inclusion([[1, 1], [1, 2]])
    bad = as_distortion([[1, 1], [1, 2]], square.graph)
    rep3 = check_extremality(square, bad)
    assert not rep3.extremal
    assert rep3.witness is not None
