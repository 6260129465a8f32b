import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linear_oracle
from conftest import PHI
from loop_oracle import (LoopElement, WrongAlgebraTag, _basis_blocks,
                         _central_vector, _sandwich_expectation,
                         central_projection, cond_expectation_N0, identity,
                         include_in_N1, loop, zero)
from loop_oracle import pimsner_popa_basis as oracle_basis
from mfd.errors import (InconsistentDimensions, InconsistentTraces,
                        NegativeEntry, NotCentral)
from mfd.loopbasis import (CommutingSquareData, _commutant, _pp_deviation,
                           basic_construction_square,
                           build_loop_algebra, central_transfer,
                           density_sequence, matrix_algebra,
                           nondegeneracy_check, pimsner_popa_basis,
                           relative_commutant, transfer_matrix,
                           verify_pp_identity)
from mfd.numbers import to_float


def F(p, q=1):
    return Fraction(p, q)


def trace_of_central(pair, vec):
    """tr0 of sum_i vec_i p_i."""
    return sum(to_float(vec[i]) * pair.m0[i] * pair.lambda0[i] for i in range(pair.k0))


@pytest.fixture(scope="module")
def a4_pair():
    return build_loop_algebra((1, 2), [[1, 0], [1, 1]])


@pytest.fixture(scope="module")
def a4_basis(a4_pair):
    return pimsner_popa_basis(a4_pair)


def close_elements(x, y, tol=1e-12):
    return (x - y).sup_coeff() <= tol


def test_build_a4_pair(a4_pair):
    p = a4_pair
    assert p.m0 == (1, 2) and p.m1 == (3, 2)
    assert (p.k0, p.k1) == (2, 2)
    assert abs(p.d_squared - PHI ** 2) < 1e-12
    assert len(p.eta_edges) == 3 and len(p.eps_edges) == 3
    assert len(p.n0_loops) == 1 ** 2 + 2 ** 2
    assert len(p.n1_loops) == 3 ** 2 + 2 ** 2
    s0 = 1 + 2 * PHI
    s1 = 2 + 3 * PHI
    assert abs(p.lambda0[0] - 1 / s0) < 1e-12
    assert abs(p.lambda0[1] - PHI / s0) < 1e-12
    assert abs(p.lambda1[0] - PHI / s1) < 1e-12
    assert abs(p.lambda1[1] - 1 / s1) < 1e-12


def test_build_rejects_bad_m0():
    with pytest.raises(NegativeEntry):
        build_loop_algebra((1, 0), [[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        build_loop_algebra((F(3, 2), 1), [[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        build_loop_algebra((1, 2), [[1.5, 0], [1, 1]])
    with pytest.raises(ValueError, match="ragged at row 1"):
        build_loop_algebra((1, 2), [[1, 0], [1]])


def test_loop_counts_match_dimensions():
    pair = build_loop_algebra((2, 1), [[1], [2]])
    assert pair.m1 == (4,)
    assert len(pair.n0_loops) == 2 ** 2 + 1 ** 2
    assert len(pair.n1_loops) == 4 ** 2
    assert abs(pair.d_squared - 5) < 1e-12


# The dict-of-loops oracle (tests/loop_oracle.py): its algebra is checked
# against the definitions here, then used as the reference for the
# package's block engine below.

def test_matrix_unit_multiplication_n0(a4_pair):
    h10 = ("eta", 1, 0)
    h11 = ("eta", 1, 1)
    x = loop(a4_pair, "N0", (h10, h11))
    y = loop(a4_pair, "N0", (h11, h10))
    assert (x * y).coeffs == {(h10, h10): 1}
    assert (y * x).coeffs == {(h11, h11): 1}
    assert (x * x).coeffs == {}
    assert x.adjoint().coeffs == y.coeffs
    assert ((x * y).adjoint() - y.adjoint() * x.adjoint()).coeffs == {}


def test_identity_and_projections(a4_pair):
    one0 = identity(a4_pair, "N0")
    assert abs(one0.trace() - 1) < 1e-12
    one1 = identity(a4_pair, "N1")
    assert abs(one1.trace() - 1) < 1e-12
    assert close_elements(one0 * one0, one0)
    assert close_elements(one1 * one1, one1)
    p0 = central_projection(a4_pair, 0)
    p1 = central_projection(a4_pair, 1)
    assert close_elements(p0 + p1, one0)
    assert (p0 * p1).coeffs == {}
    assert close_elements(p0 * p0, p0)


def test_algebra_tag_mismatch(a4_pair):
    x = identity(a4_pair, "N0")
    y = identity(a4_pair, "N1")
    with pytest.raises(WrongAlgebraTag):
        x + y
    with pytest.raises(WrongAlgebraTag):
        x * y
    with pytest.raises(WrongAlgebraTag):
        include_in_N1(y)
    with pytest.raises(WrongAlgebraTag):
        cond_expectation_N0(x)


def test_inclusion_is_unital_homomorphism(a4_pair):
    assert close_elements(include_in_N1(identity(a4_pair, "N0")),
                          identity(a4_pair, "N1"))
    for (a1, a2) in a4_pair.n0_loops:
        for (b1, b2) in a4_pair.n0_loops:
            x = loop(a4_pair, "N0", (a1, a2))
            y = loop(a4_pair, "N0", (b1, b2))
            assert close_elements(include_in_N1(x * y),
                                  include_in_N1(x) * include_in_N1(y))


def test_expectation_kronecker_rule(a4_pair):
    h = ("eta", 0, 0)
    e00 = ("eps", 0, 0, 0)
    e10 = ("eps", 1, 0, 0)
    h1 = ("eta", 1, 0)
    mixed = loop(a4_pair, "N1", (h, e00, e10, h1))
    assert cond_expectation_N0(mixed).coeffs == {}
    diag = loop(a4_pair, "N1", (h, e00, e00, h))
    out = cond_expectation_N0(diag)
    c = out.coeffs[(h, h)]
    # lambda1(0)/lambda0(0) happens to be exactly 1 for this pair
    assert abs(c - PHI * (1 + 2 * PHI) / (2 + 3 * PHI)) < 1e-12
    assert abs(c - 1) < 1e-12


def test_expectation_left_inverse_of_inclusion(a4_pair):
    for key in a4_pair.n0_loops:
        x = loop(a4_pair, "N0", key)
        assert close_elements(cond_expectation_N0(include_in_N1(x)), x)


def test_expectation_preserves_trace(a4_pair):
    for key in a4_pair.n1_loops:
        x = loop(a4_pair, "N1", key, coeff=F(3, 7))
        assert abs(cond_expectation_N0(x).trace() - x.trace()) < 1e-12


def test_expectation_bimodule_property(a4_pair):
    a = include_in_N1(central_projection(a4_pair, 0))
    b = include_in_N1(central_projection(a4_pair, 1))
    for key in a4_pair.n1_loops:
        x = loop(a4_pair, "N1", key)
        lhs = cond_expectation_N0(a * x * b)
        rhs = central_projection(a4_pair, 0) * cond_expectation_N0(x) \
            * central_projection(a4_pair, 1)
        assert close_elements(lhs, rhs)


def test_trace_is_tracial(a4_pair):
    keys = list(a4_pair.n1_loops)
    x = loop(a4_pair, "N1", keys[0]) + 2 * loop(a4_pair, "N1", keys[3])
    y = loop(a4_pair, "N1", keys[1]) + 3 * loop(a4_pair, "N1", keys[5])
    assert abs((x * y).trace() - (y * x).trace()) < 1e-12
    xx = x.adjoint() * x
    assert xx.trace() >= 0


def test_central_vector_rejections(a4_pair):
    h10 = ("eta", 1, 0)
    h11 = ("eta", 1, 1)
    assert _central_vector(a4_pair, central_projection(a4_pair, 0)) == (1, 0)
    off_diag = loop(a4_pair, "N0", (h10, h11))
    with pytest.raises(NotCentral):
        _central_vector(a4_pair, off_diag)
    partial = loop(a4_pair, "N0", (h10, h10))
    with pytest.raises(NotCentral):
        _central_vector(a4_pair, partial)
    with pytest.raises(WrongAlgebraTag):
        _central_vector(a4_pair, identity(a4_pair, "N1"))


def test_pp_basis_shape(a4_pair, a4_basis):
    assert len(a4_basis) == 7
    # 3 parallel-pair elements (summed over eta edges) and 4 cross-vertex
    # singletons
    loops = {}
    for members, stack in a4_basis.blocks:
        for n, x in zip(members, stack):
            loops[n] = loops.get(n, 0) + np.count_nonzero(x)
    assert sorted(loops) == list(range(7))
    assert sorted(loops.values()) == [1, 1, 1, 1, 1, 2, 2]


def test_pp_identity_a4(a4_pair, a4_basis):
    report = verify_pp_identity(a4_pair, a4_basis)
    assert report["basis_size"] == 7
    assert report["watatani_ok"] and report["pp_ok"]
    assert report["watatani_deviation"] <= 1e-12
    assert report["pp_deviation"] <= 1e-12
    assert abs(report["d_squared"] - PHI ** 2) < 1e-12


def test_pp_identity_other_pairs():
    trivial = build_loop_algebra((1,), [[1]])
    rep = verify_pp_identity(trivial, pimsner_popa_basis(trivial))
    assert rep["basis_size"] == 1
    assert rep["watatani_deviation"] == 0 and rep["pp_deviation"] == 0

    two_blocks = build_loop_algebra((1, 1), [[1], [1]])
    rep2 = verify_pp_identity(two_blocks, pimsner_popa_basis(two_blocks))
    assert rep2["basis_size"] == 4
    assert abs(rep2["d_squared"] - 2) < 1e-12
    assert rep2["watatani_ok"] and rep2["pp_ok"]

    wide = build_loop_algebra((2, 1), [[1], [2]])
    rep3 = verify_pp_identity(wide, pimsner_popa_basis(wide))
    assert rep3["watatani_ok"] and rep3["pp_ok"]


# Block-engine cross-checks against loop arithmetic.  The reference
# computes Phi(x) = sum_b b i(E(b* x)) on every N1 loop through
# LoopElement products; the engine runs on the same elements converted
# to blocks by the oracle.

ENGINE_PAIRS = [((1, 2), [[1, 0], [1, 1]]), ((2, 1), [[1], [2]]),
                ((2, 3), [[2, 1], [1, 1]]), ((2, 1), [[1, 1, 0], [0, 1, 2]])]


def reference_deviations(pair, basis):
    watatani = zero(pair, "N1")
    for b in basis:
        watatani = watatani + b * b.adjoint()
    wat = (watatani - pair.d_squared * identity(pair, "N1")).sup_coeff()
    pp = 0.0
    for key in pair.n1_loops:
        x = loop(pair, "N1", key)
        rebuilt = zero(pair, "N1")
        for b in basis:
            rebuilt = rebuilt + b * include_in_N1(cond_expectation_N0(b.adjoint() * x))
        pp = max(pp, (rebuilt - x).sup_coeff())
    return wat, pp


def reference_transfer_column(pair, basis, k):
    elem = include_in_N1(central_projection(pair, k))
    total = zero(pair, "N0")
    for b in basis:
        total = total + cond_expectation_N0(b.adjoint() * elem * b)
    firsts = [next(e for e in pair.eta_edges if e[1] == i) for i in range(pair.k0)]
    return [total.coeffs.get((e, e), 0) for e in firsts]


def perturbed(basis, n, key, delta):
    """The basis with delta added to the coefficient of loop key in element n."""
    out = list(basis)
    coeffs = dict(basis[n].coeffs)
    coeffs[key] = coeffs.get(key, 0) + delta
    out[n] = LoopElement(pair=basis[n].pair, algebra="N1", coeffs=coeffs)
    return out


def sorted_elements(stack):
    """The elements of a block stack, flattened and sorted lexicographically."""
    flat = stack.reshape(len(stack), -1)
    return flat[np.lexsort(flat.T[::-1])]


@pytest.mark.parametrize("m0, Lambda", ENGINE_PAIRS)
def test_block_basis_equals_oracle_basis(m0, Lambda):
    pair = build_loop_algebra(m0, Lambda)
    engine = pimsner_popa_basis(pair)
    oracle = _basis_blocks(pair, oracle_basis(pair))
    assert len(engine) == len(oracle)
    members = np.concatenate([m for m, _ in engine.blocks])
    assert np.array_equal(np.sort(members), np.arange(len(engine)))
    for (ma, a), (mb, b) in zip(engine.blocks, oracle.blocks, strict=True):
        assert len(ma) == len(a) and len(mb) == len(b)
        assert a.shape == b.shape
        assert np.array_equal(sorted_elements(a), sorted_elements(b))


@pytest.mark.parametrize("m0, Lambda", ENGINE_PAIRS)
def test_block_engine_matches_loop_products(m0, Lambda):
    pair = build_loop_algebra(m0, Lambda)
    basis = oracle_basis(pair)
    # The last variant adds a small loop of another block to basis[0], so
    # that one element spans two blocks when k1 > 1; its deviation then
    # comes mostly from Phi mapping one block into the other.
    block0 = next(iter(basis[0].coeffs))[1][2]
    other = next((k for k in pair.n1_loops if k[1][2] != block0), pair.n1_loops[0])
    variants = [basis, perturbed(basis, len(basis) // 2,
                                 next(iter(basis[len(basis) // 2].coeffs)), 1e-6),
                basis[1:], perturbed(basis, 0, other, 1e-3)]
    members = np.concatenate([m for m, _ in _basis_blocks(pair, variants[-1]).blocks])
    assert (len(np.unique(members)) < len(members)) == (pair.k1 > 1)
    for b in variants:
        report = verify_pp_identity(pair, _basis_blocks(pair, b))
        wat, pp = reference_deviations(pair, b)
        assert abs(report["watatani_deviation"] - wat) <= 1e-12
        assert abs(report["pp_deviation"] - pp) <= 1e-12
    blocks = _basis_blocks(pair, basis)
    T = transfer_matrix(pair)
    for k in range(pair.k0):
        e_k = tuple(1 if i == k else 0 for i in range(pair.k0))
        engine = blocks.sandwich[:, k]
        reference = reference_transfer_column(pair, basis, k)
        assert all(abs(x - y) <= 1e-12 for x, y in zip(engine, reference))
        one_vector = _sandwich_expectation(pair, blocks, e_k)
        assert all(abs(x - y) <= 1e-12 for x, y in zip(engine, one_vector))
        assert central_transfer(pair, blocks, e_k) == tuple(T[i][k] for i in range(pair.k0))


@pytest.mark.parametrize("m0, Lambda", ENGINE_PAIRS)
def test_pp_deviation_forms_cross_block_products_only_for_spanning_elements(
        monkeypatch, m0, Lambda):
    # One tensordot per pair (bottom vertex, top vertex) of the package
    # basis, whose elements each lie in one block; one per pair of top
    # vertices over a bottom vertex once an element spans two blocks
    # (which the perturbation cannot make happen when k1 = 1).
    pair = build_loop_algebra(m0, Lambda)
    tops = [sum(1 for x in row if x) for row in pair.Lambda]
    package = pimsner_popa_basis(pair).blocks
    basis = oracle_basis(pair)
    block0 = next(iter(basis[0].coeffs))[1][2]
    other = next((k for k in pair.n1_loops if k[1][2] != block0), pair.n1_loops[0])
    spanning = _basis_blocks(pair, perturbed(basis, 0, other, 1e-3)).blocks
    calls = []
    real = np.tensordot
    monkeypatch.setattr(np, "tensordot", lambda *a, **k: calls.append(1) or real(*a, **k))
    _pp_deviation(pair, package)
    assert len(calls) == sum(tops)
    calls.clear()
    _pp_deviation(pair, spanning)
    assert len(calls) == sum(t * t for t in tops)


@pytest.mark.parametrize("m0, Lambda", ENGINE_PAIRS)
def test_pp_check_fails_on_wrong_basis(m0, Lambda):
    pair = build_loop_algebra(m0, Lambda)
    basis = oracle_basis(pair)
    n = len(basis) - 1
    for wrong in (perturbed(basis, n, next(iter(basis[n].coeffs)), 1e-6), basis[:-1]):
        report = verify_pp_identity(pair, _basis_blocks(pair, wrong))
        assert not report["pp_ok"] and not report["watatani_ok"]


def test_non_central_sandwich_raises(a4_pair):
    # One matrix unit of block 0 from bottom vertex 0 to a path through the
    # two-dimensional bottom vertex 1: E(b* p_0 b) is a rank-one projection
    # in M_2, which is not central.
    key = (("eta", 0, 0), ("eps", 0, 0, 0), ("eps", 1, 0, 0), ("eta", 1, 0))
    basis = _basis_blocks(a4_pair, [loop(a4_pair, "N1", key)])
    with pytest.raises(NotCentral):
        central_transfer(a4_pair, basis, (1, 1))
    with pytest.raises(NotCentral):
        density_sequence(a4_pair, 1, basis)


def test_pp_identity_five_by_five():
    pair = build_loop_algebra((5, 5), [[3, 2], [2, 3]])
    assert len(pair.n1_loops) == 1250
    for basis in (pimsner_popa_basis(pair), _basis_blocks(pair, oracle_basis(pair))):
        assert len(basis) == 626
        report = verify_pp_identity(pair, basis)
        assert report["watatani_ok"] and report["pp_ok"]
        assert central_transfer(pair, basis, (1, 2)) == (37, 38)
        assert density_sequence(pair, 6, basis).recursion_deviation <= 1e-10


def test_pp_ladder_twenty():
    t0 = time.perf_counter()
    pair = build_loop_algebra((20, 20), [[1, 1], [1, 1]])
    basis = pimsner_popa_basis(pair)
    assert len(basis) == 1604
    report = verify_pp_identity(pair, basis)
    assert report["watatani_deviation"] <= 1e-10 and report["pp_deviation"] <= 1e-10
    assert density_sequence(pair, 6, basis).recursion_deviation <= 1e-12
    assert time.perf_counter() - t0 < 5.0


def test_transfer_matrix_exact(a4_pair):
    T = transfer_matrix(a4_pair)
    assert T == ((1, 2), (F(1, 2), 2))


def test_central_transfer_values(a4_pair, a4_basis):
    assert central_transfer(a4_pair, a4_basis, (1, 0)) == (1, F(1, 2))
    assert central_transfer(a4_pair, a4_basis, (1, 1)) == (3, F(5, 2))
    vec = _central_vector(a4_pair, central_projection(a4_pair, 0))
    assert central_transfer(a4_pair, a4_basis, vec) == (1, F(1, 2))
    with pytest.raises(InconsistentDimensions):
        central_transfer(a4_pair, a4_basis, (1, 2, 3))


def test_density_sequence_a4(a4_pair, a4_basis):
    seq = density_sequence(a4_pair, 20, basis=a4_basis)
    assert seq.levels[0] == (1.0, 1.0)
    d2 = a4_pair.d_squared
    assert abs(seq.levels[1][0] - 3 / d2) < 1e-12
    assert abs(seq.levels[1][1] - 2.5 / d2) < 1e-12
    assert seq.recursion_deviation <= 1e-10
    # densities stay positive and normalized at every level
    for h in seq.levels:
        assert all(x > 0 for x in h)
        assert abs(trace_of_central(a4_pair, h) - 1) < 1e-9
    s0 = 1 + 2 * PHI
    assert abs(seq.h_inf[0] - s0 / (2 + PHI)) < 1e-12
    assert abs(seq.h_inf[1] - s0 * PHI / (2 * (2 + PHI))) < 1e-12
    assert all(abs(a - b) < 1e-9 for a, b in zip(seq.levels[20], seq.h_inf))
    assert abs(trace_of_central(a4_pair, seq.h_inf) - 1) < 1e-12
    with pytest.raises(ValueError):
        density_sequence(a4_pair, -1, basis=a4_basis)


def test_matrix_algebra_presentation():
    e12 = [[0, 1], [0, 0]]
    pres = matrix_algebra(2, [e12])
    assert pres.n == 2
    assert len(pres.generators) == 2  # adjoint appended
    with pytest.raises(InconsistentDimensions):
        matrix_algebra(2, [[[1, 0]]])


def test_relative_commutant_diagonal_in_full():
    diag = matrix_algebra(2, [[[1, 0], [0, 0]]])
    full = matrix_algebra(2, [[[0, 1], [0, 0]]])
    basis = relative_commutant(diag, full)
    assert len(basis) == 2
    for m in basis:
        assert m[0][1] == 0 and m[1][0] == 0
    # orthogonal for the normalized trace inner product
    x, y = basis
    assert sum(x[i][j] * y[i][j] for i in range(2) for j in range(2)) == 0


def test_relative_commutant_full_in_full():
    full = matrix_algebra(2, [[[0, 1], [0, 0]]])
    basis = relative_commutant(full, full)
    assert len(basis) == 1
    m = basis[0]
    assert m[0][0] == m[1][1] and m[0][1] == 0 and m[1][0] == 0


def test_relative_commutant_flip_in_diagonal():
    flip = matrix_algebra(2, [[[0, 1], [1, 0]]])
    diag = matrix_algebra(2, [[[1, 0], [0, 0]]])
    basis = relative_commutant(flip, diag)
    assert len(basis) == 1
    m = basis[0]
    assert m[0][0] == m[1][1] and m[0][1] == 0 and m[1][0] == 0


def test_relative_commutant_float_branch():
    s = 1 / math.sqrt(2)
    hadamard = matrix_algebra(2, [[[s, s], [s, -s]]])
    diag = matrix_algebra(2, [[[1, 0], [0, 0]]])
    basis = relative_commutant(diag, hadamard)
    assert len(basis) == 1
    m = basis[0]
    assert abs(m[0][0] - m[1][1]) < 1e-9
    assert abs(m[0][1]) < 1e-9 and abs(m[1][0]) < 1e-9


def test_relative_commutant_size_mismatch():
    two = matrix_algebra(2, [[[0, 1], [0, 0]]])
    three = matrix_algebra(3, [[[0, 1, 0], [0, 0, 0], [0, 0, 0]]])
    with pytest.raises(InconsistentDimensions):
        relative_commutant(two, three)


def _unit(n, a, b):
    return [[1 if (r, c) == (a, b) else 0 for c in range(n)] for r in range(n)]


def _block_units(n, start, size):
    """The corner unit and the chain e_{a,a+1} of one diagonal block: they generate it."""
    return [_unit(n, start, start)] + [_unit(n, start + a, start + a + 1)
                                       for a in range(size - 1)]


def _tower_generators(m0, Lambda):
    """Generators of N0 in N1 = (+)_j M_m1(j) as block-diagonal matrix units.

    Block j holds Lambda_ij copies of M_m0(i), ordered by i, then copy.
    """
    k0, k1 = len(m0), len(Lambda[0])
    m1 = [sum(m0[i] * Lambda[i][j] for i in range(k0)) for j in range(k1)]
    n = sum(m1)
    starts = [sum(m1[:j]) for j in range(k1)]
    n1 = [g for j in range(k1) for g in _block_units(n, starts[j], m1[j])]
    copies = [[] for _ in range(k0)]  # first index of every copy of M_m0(i)
    for j in range(k1):
        pos = starts[j]
        for i in range(k0):
            for _ in range(Lambda[i][j]):
                copies[i].append(pos)
                pos += m0[i]
    n0 = []
    for i in range(k0):
        for g in _block_units(m0[i], 0, m0[i]):
            n0.append([[sum(g[r - c0][c - c0] for c0 in copies[i]
                            if 0 <= r - c0 < m0[i] and 0 <= c - c0 < m0[i])
                        for c in range(n)] for r in range(n)])
    return n, n0, n1, starts, m1


def _random_tower(seed):
    rng = random.Random(seed)
    while True:
        k0, k1 = rng.randint(1, 3), rng.randint(1, 3)
        m0 = [rng.randint(1, 3) for _ in range(k0)]
        Lambda = [[rng.randint(0, 2) for _ in range(k1)] for _ in range(k0)]
        if not all(any(row) for row in Lambda) or not all(any(col) for col in zip(*Lambda)):
            continue
        if sum(m0[i] * sum(Lambda[i]) for i in range(k0)) <= 8:
            return m0, Lambda


def _as_float(gens):
    return [[[float(x) for x in row] for row in g] for g in gens]


def _check_commutant(basis, n, sub_gens, blocks, exact):
    tol = 0 if exact else 1e-9
    for m in basis:
        for g in sub_gens:
            comm = [[sum(m[r][k] * g[k][c] - g[r][k] * m[k][c] for k in range(n))
                     for c in range(n)] for r in range(n)]
            assert max(abs(x) for row in comm for x in row) <= tol
        block_of = [j for j, (_, size) in enumerate(blocks) for _ in range(size)]
        assert all(abs(m[r][c]) <= tol for r in range(n) for c in range(n)
                   if block_of[r] != block_of[c])
    for a in range(len(basis)):
        for b in range(a):
            ip = sum(x * y for rx, ry in zip(basis[a], basis[b]) for x, y in zip(rx, ry))
            assert abs(ip) <= tol
    if exact:
        assert all(isinstance(x, (int, Fraction)) for m in basis for row in m for x in row)


def _dense_commutant(gens, n, exact):
    """_commutant with every row built densely: k = 0..n-1 at every (i, j)."""
    rows = {}
    for g in gens:
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[i * n + k] += g[k][j]
                    row[k * n + j] -= g[i][k]
                if any(row):
                    rows[tuple(row)] = None
    if not rows:
        return [[1 if p == q else 0 for q in range(n * n)] for p in range(n * n)]
    if exact:
        return linear_oracle.nullspace(list(rows))
    _, svals, vt = np.linalg.svd(np.array(list(rows), dtype=float))
    rank = int(sum(sv > 1e-10 * max(svals[0], 1.0) for sv in svals))
    return [list(v) for v in vt[rank:]]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.randoms(use_true_random=False), st.booleans())
def test_commutant_rows_from_nonzero_entries_equal_dense_rows(n, count, rnd, exact):
    values = [1, -1, 2, F(1, 2), F(-3, 2)]
    gens = [[[rnd.choice(values) if rnd.random() < 0.25 else 0 for _ in range(n)]
             for _ in range(n)] for _ in range(count)]
    if not exact:
        gens = _as_float(gens)
    got = _commutant(gens, n, exact)
    want = _dense_commutant(gens, n, exact)
    assert got == want
    assert [[type(x) for x in v] for v in got] == [[type(x) for x in v] for v in want]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_relative_commutant_of_random_tower(seed, exact):
    """dim(N0' cap N1) = sum_ij Lambda_ij^2 for N0 in N1 given by (m0, Lambda)."""
    m0, Lambda = _random_tower(seed)
    n, n0, n1, starts, m1 = _tower_generators(m0, Lambda)
    if not exact:
        n0, n1 = _as_float(n0), _as_float(n1)
    basis = relative_commutant(matrix_algebra(n, n0), matrix_algebra(n, n1))
    assert len(basis) == sum(x * x for row in Lambda for x in row)
    sub_gens = matrix_algebra(n, n0).generators
    _check_commutant(basis, n, sub_gens, list(zip(starts, m1)), exact)


@pytest.mark.parametrize("exact", [True, False])
def test_relative_commutant_in_scalars(exact):
    n = 4
    unit = [[int(r == c) for c in range(n)] for r in range(n)]
    ambient = matrix_algebra(n, [unit] if exact else _as_float([unit]))
    for sub in ([], [_unit(n, 0, 1)], [_unit(n, i, i) for i in range(n)]):
        basis = relative_commutant(matrix_algebra(n, sub), ambient)
        assert len(basis) == 1
        m = basis[0]
        assert all(abs(m[r][c] - (m[0][0] if r == c else 0)) <= 1e-12
                   for r in range(n) for c in range(n))
        assert m[0][0] != 0
        if exact:
            assert isinstance(m[0][0], (int, Fraction))


@pytest.mark.parametrize("exact", [True, False])
def test_relative_commutant_in_diagonal(exact):
    n = 4
    diag = [_unit(n, i, i) for i in range(n)]
    ambient = matrix_algebra(n, diag if exact else _as_float(diag))
    cases = (([], n), (diag[:2], n), ([_unit(n, 0, 1)], n - 1),
             (_block_units(n, 0, n), 1))
    for sub, dim in cases:
        basis = relative_commutant(matrix_algebra(n, sub), ambient)
        assert len(basis) == dim
        _check_commutant(basis, n, matrix_algebra(n, sub).generators,
                         [(i, 1) for i in range(n)], exact)


@pytest.mark.parametrize("exact", [True, False])
def test_relative_commutant_of_symmetric_matrix(exact):
    # a symmetric A with distinct eigenvalues: A' = span{1, A, A^2}, whose
    # nullspace basis is not orthogonal before Gram-Schmidt
    A = [[2, 1, 0], [1, 0, 1], [0, 1, 1]]
    full = _block_units(3, 0, 3)
    ambient = matrix_algebra(3, full if exact else _as_float(full))
    basis = relative_commutant(matrix_algebra(3, [A]), ambient)
    assert len(basis) == 3
    _check_commutant(basis, 3, [A], [(0, 3)], exact)


def spin_square():
    return CommutingSquareData(Lambda_top=((1,), (1,)), Lambda_bot=((1, 1),),
                               V0=((1, 1),), V1=((1,), (1,)), m_N0=(1,))


def test_nondegeneracy_spin_square():
    assert nondegeneracy_check(spin_square())


def test_nondegeneracy_degenerate_square():
    square = CommutingSquareData(Lambda_top=((2,),), Lambda_bot=((1,),),
                                 V0=((1,),), V1=((2,),), m_N0=(1,))
    assert not nondegeneracy_check(square)


def test_commuting_square_validation():
    with pytest.raises(InconsistentTraces):
        CommutingSquareData(Lambda_top=((1,), (1,)), Lambda_bot=((1, 1),),
                            V0=((1, 1), (1, 1)), V1=((1,), (1,)), m_N0=(1,))
    with pytest.raises(InconsistentTraces):
        CommutingSquareData(Lambda_top=((1,), (1,)), Lambda_bot=((1, 1),),
                            V0=((1, 1),), V1=((1,), (1,)), m_N0=(1, 1))
    with pytest.raises(InconsistentTraces, match="V1 shape"):
        CommutingSquareData(Lambda_top=((1,), (1,)), Lambda_bot=((1, 1),),
                            V0=((1, 1),), V1=((1,),), m_N0=(1,))
    bad_paths = CommutingSquareData(Lambda_top=((1,), (1,)),
                                    Lambda_bot=((1, 1),),
                                    V0=((1, 1),), V1=((1,), (2,)), m_N0=(1,))
    with pytest.raises(InconsistentTraces):
        nondegeneracy_check(bad_paths)
    # the paths agree, but V0 misses the second block of M0
    empty_block = CommutingSquareData(Lambda_top=((1,), (1,)), Lambda_bot=((1, 1),),
                                      V0=((2, 0),), V1=((1,), (1,)), m_N0=(1,))
    with pytest.raises(InconsistentTraces, match="nonpositive"):
        nondegeneracy_check(empty_block)
    # the paths agree, but no block of M1 lies over the second block of N1
    unseen = CommutingSquareData(Lambda_top=((1,),), Lambda_bot=((1, 1),),
                                 V0=((1,),), V1=((1,), (0,)), m_N0=(1,))
    with pytest.raises(InconsistentTraces, match="vanishes"):
        nondegeneracy_check(unseen)


def test_basic_construction_square_preserves_nondegeneracy():
    nxt = basic_construction_square(spin_square())
    assert nxt.Lambda_top == ((1, 1),)
    assert nxt.Lambda_bot == ((1,), (1,))
    assert nxt.m_N0 == (1, 1)
    assert nondegeneracy_check(nxt)
