import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import linear_oracle
from conftest import box_lp
from mfd.linear import mat_mul, mat_vec, nullspace, rref, solve, transpose, vec_mat
from mfd.lp import solve_lp


def F(p, q=1):
    return Fraction(p, q)


def test_matrix_helpers():
    A = [[1, 2], [3, 4]]
    assert transpose(A) == [[1, 3], [2, 4]]
    assert mat_vec(A, [1, 1]) == [3, 7]
    assert vec_mat([1, 1], A) == [4, 6]
    assert mat_mul(A, [[1, 0], [0, 1]]) == [[1, 2], [3, 4]]


def test_rref_rank():
    R, pivots = rref([[1, 2], [2, 4]])
    assert pivots == [0]
    assert R[1] == [0, 0]


def test_solve_unique():
    kind, x = solve([[2, 0], [2, 1]], [1, 1])
    assert kind == "unique"
    assert x == [F(1, 2), F(0)]


def test_solve_inconsistent():
    kind, row = solve([[1], [2]], [1, 1])
    assert kind == "inconsistent"


def test_solve_underdetermined():
    kind, (x0, basis) = solve([[1, 2]], [1])
    assert kind == "underdetermined"
    assert len(basis) == 1
    v = basis[0]
    assert x0[0] + 2 * x0[1] == 1
    assert v[0] + 2 * v[1] == 0


def test_solve_random_against_numpy():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        A = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        x_true = [F(rng.randint(-3, 3)) for _ in range(n)]
        b = mat_vec(A, x_true)
        kind, payload = solve(A, b)
        if kind == "unique":
            assert mat_vec(A, payload) == b
            rank = np.linalg.matrix_rank(np.array(A, dtype=float))
            assert rank == n
        elif kind == "underdetermined":
            x0, basis = payload
            assert mat_vec(A, x0) == b
            for v in basis:
                assert all(s == 0 for s in mat_vec(A, v))


def test_nullspace():
    basis = nullspace([[1, 1, 0], [0, 0, 1]])
    assert len(basis) == 1
    assert basis[0] == [F(-1), F(1), F(0)]


ENTRIES = {
    "int": st.sampled_from([0, 0, 0, 1, -1, 1, -1, 2, -3]),
    "fraction": st.sampled_from([0, 1, -1, 2]).map(Fraction) | st.fractions(-3, 3, max_denominator=5),
    "float": st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.0, 0.1]) | st.floats(-4, 4, width=32),
}
ENTRIES["mixed"] = st.one_of(*ENTRIES.values())


@st.composite
def linear_systems(draw):
    """(A, b): a small matrix of one entry kind with zero and repeated rows,
    and a right-hand side that is A x, or anything at all."""
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    A = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        shape = draw(st.sampled_from(["drawn", "drawn", "zero", "repeat"]))
        if shape == "zero":
            A[i] = [type(x)(0) for x in A[i]]
        elif shape == "repeat":
            A[i] = list(A[draw(st.integers(0, rows - 1))])
    if draw(st.booleans()):
        x = [draw(entry) for _ in range(cols)]
        b = [sum(Fraction(a) * Fraction(v) for a, v in zip(row, x)) for row in A]
    else:
        b = [draw(entry) for _ in range(rows)]
    return A, b


def _all_fractions(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_kernel_equals_the_dense_fraction_oracle(system):
    """rref, solve and nullspace agree with all-Fraction elimination, and
    every solution and nullspace vector has Fraction entries."""
    A, b = system
    A_copy = [list(row) for row in A]
    assert rref(A) == linear_oracle.rref(A)
    kind, payload = solve(A, b)
    assert (kind, payload) == linear_oracle.solve(A, b)
    if kind == "unique":
        assert _all_fractions([payload])
    elif kind == "underdetermined":
        assert _all_fractions([payload[0]] + payload[1])
    basis = nullspace(A)
    assert basis == linear_oracle.nullspace(A)
    assert _all_fractions(basis)
    assert A == A_copy


def test_unit_pivots_keep_int_rows():
    # Pivots of 1 and -1 leave an int matrix int; a pivot of 2 divides its row.
    R, pivots = rref([[1, 2, 0], [0, -1, 3]])
    assert R == [[1, 0, 6], [0, 1, -3]] and pivots == [0, 1]
    assert all(type(x) is int for row in R for x in row)
    R, _ = rref([[2, 1]])
    assert R == [[1, F(1, 2)]] and all(type(x) is Fraction for x in R[0])
    kind, x = solve([[1, 0], [0, -1]], [2, 3])
    assert kind == "unique" and x == [2, -3] and _all_fractions([x])


def test_lp_maxmin_example():
    status, x, value = solve_lp(*box_lp([[1, 2]]))
    assert status == "optimal"
    assert x[0] == F(1, 3) and x[1] == F(1, 3)
    assert value == F(-1, 3)


def test_lp_infeasible():
    # pi >= 0 with pi_1 + pi_2 = 1 and pi_1 + pi_2 = 3 cannot hold
    status, _, _ = solve_lp([[F(1), F(1)], [F(1), F(1)]], [F(1), F(3)],
                            [F(0), F(0)])
    assert status == "infeasible"


def test_lp_unbounded():
    status, _, _ = solve_lp([[F(1), F(-1)]], [F(0)], [F(-1), F(0)])
    assert status == "unbounded"


def test_lp_redundant_rows():
    status, x, _ = solve_lp([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)],
                            [F(-1), F(0)])
    assert status == "optimal"
    assert x[0] == F(1)


def test_lp_random_against_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(99)
    checked = 0
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(m, 5)
        A = [[F(rng.randint(0, 3)) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(1, 5)) for _ in range(m)]
        c = [F(rng.randint(-3, 3)) for _ in range(n)]
        status, x, value = solve_lp(A, b, c)
        res = scipy_opt.linprog(
            [float(v) for v in c],
            A_eq=[[float(v) for v in row] for row in A],
            b_eq=[float(v) for v in b],
            bounds=[(0, None)] * n, method="highs")
        if status == "optimal":
            assert res.status == 0
            assert abs(float(value) - res.fun) < 1e-8
            assert all(xi >= 0 for xi in x)
            assert mat_vec(A, x) == b
            checked += 1
        elif status == "infeasible":
            assert res.status == 2
        elif status == "unbounded":
            assert res.status == 3
    assert checked >= 5


def _with_slacks(A):
    """[A | I]: the slack of row i is a unit column on row i."""
    return [row + [F(int(i == k)) for k in range(len(A))] for i, row in enumerate(A)]


def test_lp_unit_column_start_against_scipy():
    # A x + s = b with b of either sign: the slack of each row with b >= 0
    # starts the basis, and phase 1 runs only on the rows the sign flips.
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(4242)
    statuses = set()
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = _with_slacks([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)])
        b = [F(rng.randint(-4, 5)) for _ in range(m)]
        c = [F(rng.randint(-3, 3)) for _ in range(n)] + [F(0)] * m
        status, x, value = solve_lp(A, b, c)
        res = scipy_opt.linprog([float(v) for v in c],
                                A_eq=[[float(v) for v in row] for row in A],
                                b_eq=[float(v) for v in b],
                                bounds=[(0, None)] * (n + m), method="highs")
        statuses.add(status)
        assert res.status == {"optimal": 0, "infeasible": 2, "unbounded": 3}[status]
        if status == "optimal":
            assert abs(float(value) - res.fun) < 1e-8
            assert all(xi >= 0 for xi in x)
            assert mat_vec(A, x) == b
    assert statuses == {"optimal", "infeasible", "unbounded"}


def _count_exact_pivots(monkeypatch):
    """Columns of the pivots that mfd.lp makes on an exact tableau."""
    import mfd.lp as lp

    pivots = []
    real_pivot = lp._pivot

    def pivot(T, basis, row, col):
        if not isinstance(T[row][col], float):
            pivots.append(col)
        real_pivot(T, basis, row, col)

    monkeypatch.setattr(lp, "_pivot", pivot)
    return lp, pivots


NO_PHASE_ONE_LP = (_with_slacks([[F(1), F(1)], [F(1), F(2)], [F(2), F(1)]]),
                   [F(4), F(6), F(6)], [F(-1), F(0), F(0), F(0), F(0)])


def test_lp_nonnegative_b_needs_no_phase_one(monkeypatch):
    # Every row has b >= 0 and a slack, so the slacks are the starting
    # basis of the exact simplex: one pivot reaches the optimum, where
    # artificials on all three rows would take at least three to leave the
    # basis.
    lp, pivots = _count_exact_pivots(monkeypatch)
    A, b, c = NO_PHASE_ONE_LP
    status, x, value = lp._exact(A, b, c)
    assert status == "optimal"
    assert x[0] == 3 and value == -3
    assert mat_vec(A, x) == [4, 6, 6]
    assert pivots == [0]


def test_lp_certified_optimum_makes_no_exact_pivot(monkeypatch):
    # The float pass proposes the optimal basis and the certificate proves
    # it with two exact solves, so the exact simplex never runs.
    _, pivots = _count_exact_pivots(monkeypatch)
    A, b, c = NO_PHASE_ONE_LP
    assert solve_lp(A, b, c) == linear_oracle.solve_lp(A, b, c)
    assert pivots == []


# Row 0 has no unit column, so phase 1 starts it on an artificial.
PHASE_ONE_LP = ([[F(1), F(1), F(0)], [F(1), F(2), F(1)]], [F(2), F(3)], [F(-1), F(0), F(0)])


def test_lp_float_pass_stopped_at_its_pivot_cap_falls_back(monkeypatch):
    # A cap of 0 stops the float pass at its first pivot: in phase 2 on
    # NO_PHASE_ONE_LP, in phase 1 on PHASE_ONE_LP.
    lp, pivots = _count_exact_pivots(monkeypatch)
    monkeypatch.setattr(lp, "_PIVOT_CAP", 0)
    for A, b, c in (NO_PHASE_ONE_LP, PHASE_ONE_LP):
        pivots.clear()
        assert solve_lp(A, b, c) == linear_oracle.solve_lp(A, b, c)
        assert pivots == [0]


def test_lp_unit_column_start_with_a_redundant_row():
    # Row 2 is -2 times row 1; after the sign flip neither has a unit
    # column, so both get artificials, and the one phase 1 cannot drive
    # out marks its row as redundant.
    A = [[F(1), F(1), F(1)], [F(1), F(-1), F(0)], [F(-2), F(2), F(0)]]
    status, x, value = solve_lp(A, [F(2), F(1), F(-2)], [F(-1), F(0), F(0)])
    assert status == "optimal"
    assert x == [F(3, 2), F(1, 2), F(0)]
    assert value == F(-3, 2)


def _downward_shape_lp(M):
    """The LP tower.downward_feasibility builds when M pi = 1 has a ray or
    more of solutions pi = x0 + N y: max t s.t. pi_j + s_j = 1 and
    t - pi_j + u_j = 0 over y, t, s, u >= 0, as (A, rhs, c) for min c.x."""
    a, b = len(M), len(M[0])
    kind, payload = solve(M, [1] * a)
    if kind != "underdetermined":
        return None
    x0, N = payload
    k = len(N)
    unit = [[int(i == j) for i in range(b)] for j in range(b)]
    A = ([[v[j] for v in N] + [0] + unit[j] + [0] * b for j in range(b)] +
         [[-v[j] for v in N] + [1] + [0] * b + unit[j] for j in range(b)])
    return A, [1 - x for x in x0] + x0, [0] * k + [-1] + [0] * (2 * b)


def _entries(kind):
    """M entries of one input mode.  "float" entries are made Fractions as
    downward_feasibility does; "near_tie" ones sit within 1e-12 of small
    integers, below the float pass's tolerance, so that a float basis can
    look optimal without being so."""
    if kind == "exact":
        return st.one_of(st.integers(0, 3), st.builds(F, st.integers(1, 9), st.integers(1, 9)))
    if kind == "float":
        return st.floats(0.125, 8).map(Fraction)
    return st.builds(lambda n, k: n + F(k, 10 ** 12), st.integers(0, 3), st.integers(-3, 3))


@st.composite
def downward_lps(draw):
    kind = draw(st.sampled_from(("exact", "float", "near_tie")))
    a = draw(st.integers(1, 4))
    b = draw(st.integers(a + 1, 7))
    M = [[draw(_entries(kind)) for _ in range(b)] for _ in range(a)]
    lp = _downward_shape_lp(M)
    assume(lp is not None)
    return lp


def _assert_same_as_exact_simplex(A, b, c):
    """Status and value == the reference simplex's, and x an exact optimum;
    where the optimum is unique that is the reference's x."""
    status, x, value = solve_lp(A, b, c)
    ref_status, ref_x, ref_value = linear_oracle.solve_lp(A, b, c)
    assert (status, value) == (ref_status, ref_value)
    if status == "optimal":
        assert all(v >= 0 for v in x) and mat_vec(A, x) == [F(v) for v in b]
        assert sum(F(ci) * xi for ci, xi in zip(c, x)) == value
        assert all(type(v) is Fraction for v in x) and type(value) is Fraction
    else:
        assert x is None and ref_x is None
    return x == ref_x


@settings(max_examples=300, deadline=None)
@given(downward_lps())
def test_lp_certified_answer_is_the_exact_simplex_answer(lp):
    _assert_same_as_exact_simplex(*lp)


@pytest.mark.parametrize("big", [F(10 ** 400), F(10 ** 300), F(1, 10 ** 400)])
def test_lp_entries_beyond_float_range_keep_the_exact_answer(big):
    # 10^400 overflows float(); 10^300 converts but overflows inside the
    # float pass; 10^-400 becomes 0.0.  The exact answer stands in each.
    for M in ([[1, big, 1]], [[big, 1, 2], [1, 1, big]], [[1, 2, 3, big]]):
        lp = _downward_shape_lp(M)
        assert lp is not None
        _assert_same_as_exact_simplex(*lp)


def _record_farkas(mp):
    """Every y that mfd.lp._farkas returns (None when it proves nothing)."""
    import mfd.lp as lp

    found = []
    real_farkas = lp._farkas

    def farkas(A, b, basis):
        found.append(real_farkas(A, b, basis))
        return found[-1]

    mp.setattr(lp, "_farkas", farkas)
    return lp, found


def _is_farkas_vector(A, b, y):
    """y A <= 0 < y b, in this test's own Fraction arithmetic."""
    y = [F(v) for v in y]
    columns = [[F(A[i][j]) for i in range(len(A))] for j in range(len(A[0]))]
    return (all(sum(yi * a for yi, a in zip(y, col)) <= 0 for col in columns) and
            sum(yi * F(bi) for yi, bi in zip(y, b)) > 0)


@settings(max_examples=100, deadline=None)
@given(downward_lps())
def test_lp_every_infeasible_answer_carries_a_farkas_vector(lp):
    # The float pass's phase-1 basis proves most infeasible answers; when
    # its vector fails the check, the exact simplex's final basis proves it.
    A, b, c = lp
    with pytest.MonkeyPatch.context() as mp:
        _, found = _record_farkas(mp)
        status, x, value = solve_lp(A, b, c)
    ref_status, _, ref_value = linear_oracle.solve_lp(A, b, c)
    assert (status, value) == (ref_status, ref_value)
    assert all(_is_farkas_vector(A, b, y) for y in found if y is not None)
    if status == "infeasible":
        assert found and found[-1] is not None and x is None


def test_lp_float_infeasible_without_a_farkas_vector_goes_exact(monkeypatch):
    # Column 0 is 1e-12, under the float pass's tolerance, so its phase 1
    # ends with the artificial at 1 and calls the LP infeasible.  That
    # basis gives y = (1), with y A = 1e-12 > 0: no proof, so the exact
    # simplex decides, and x = 10^12 is feasible and optimal.
    lp, found = _record_farkas(monkeypatch)
    exact_calls = []
    real_exact = lp._exact
    monkeypatch.setattr(lp, "_exact", lambda *args: exact_calls.append(args) or real_exact(*args))
    A, b, c = [[F(1, 10 ** 12)]], [F(1)], [F(0)]
    assert lp._simplex(A, b, c, float, lp._EPS)[0] == "infeasible"
    assert solve_lp(A, b, c) == ("optimal", [F(10 ** 12)], F(0))
    assert found == [None] and len(exact_calls) == 1
