import math
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import linear_oracle
from mfd import (InclusionData, as_distortion, extend_to_complete,
                 validate_inclusion)

PHI = (1 + math.sqrt(5)) / 2

# One line per acceptance criterion, printed in the terminal summary.
ACCEPTANCE_LINES = []


def record_acceptance(number, ok, description):
    ACCEPTANCE_LINES.append(
        f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def a4_incl():
    return validate_inclusion([[1, 0], [1, 1]])


@pytest.fixture
def a4_delta(a4_incl):
    partial = as_distortion([[2, None], [2, 1]], a4_incl.graph)
    return extend_to_complete(partial, a4_incl.graph)


@pytest.fixture
def homog_incl():
    return validate_inclusion([[1], [1]])


@pytest.fixture
def homog_delta(homog_incl):
    return extend_to_complete(as_distortion([[2], [2]], homog_incl.graph),
                              homog_incl.graph)


def random_connected_edges(rng, a, b, extra=2):
    """Random connected bipartite support: spanning tree plus extras."""
    edges = set()
    rows = list(range(a))
    cols = list(range(b))
    rng.shuffle(rows)
    rng.shuffle(cols)
    # chain through all vertices alternating sides
    reached_rows = [rows[0]]
    reached_cols = []
    pending_rows = rows[1:]
    pending_cols = cols[:]
    while pending_rows or pending_cols:
        if pending_cols and (not pending_rows or rng.random() < 0.5 or not reached_cols):
            j = pending_cols.pop()
            i = rng.choice(reached_rows)
            edges.add((i, j))
            reached_cols.append(j)
        else:
            i = pending_rows.pop()
            j = rng.choice(reached_cols) if reached_cols else None
            if j is None:
                pending_rows.append(i)
                continue
            edges.add((i, j))
            reached_rows.append(i)
    for _ in range(extra):
        edges.add((rng.randrange(a), rng.randrange(b)))
    return sorted(edges)


def scalars(exact):
    """Positive scalars of one number mode: p/q with 1 <= p, q <= 9, or
    floats in [1/8, 8]."""
    return (st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)) if exact
            else st.floats(0.125, 8))


@st.composite
def jones_inclusions(draw):
    """(incl, exact): a connected inclusion (a, b <= 6) in either number
    mode, whose Jones matrix is D or is drawn freely on D's support."""
    exact = draw(st.booleans())
    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    edges = random_connected_edges(draw(st.randoms(use_true_random=False)), a, b,
                                   extra=draw(st.integers(0, 4)))
    D = [[0] * b for _ in range(a)]
    for i, j in edges:
        D[i][j] = draw(st.integers(1, 3)) if exact else float(draw(st.integers(1, 3)))
    Delta = (None if draw(st.booleans()) else
             [[draw(scalars(exact)) if D[i][j] else 0 for j in range(b)] for i in range(a)])
    return validate_inclusion(D, Delta), exact


def random_inclusion(rng, max_a=6, max_b=6, max_mult=3):
    a = rng.randint(1, max_a)
    b = rng.randint(1, max_b)
    edges = random_connected_edges(rng, a, b, extra=rng.randint(0, 3))
    D = [[0] * b for _ in range(a)]
    for (i, j) in edges:
        D[i][j] = rng.randint(1, max_mult)
    return validate_inclusion(D)


def random_rational(rng, lo=1, hi=9):
    return Fraction(rng.randint(lo, hi), rng.randint(lo, hi))


def random_factorized_delta(rng, incl, exact=True):
    """delta_ij = xi_j / eta_i on the support, from random potentials."""
    if exact:
        eta = [random_rational(rng) for _ in range(incl.a)]
        xi = [random_rational(rng) for _ in range(incl.b)]
        rows = [[Fraction(xi[j]) / eta[i] if incl.D[i][j] != 0 else None
                 for j in range(incl.b)] for i in range(incl.a)]
    else:
        eta = [math.exp(rng.uniform(-1.5, 1.5)) for _ in range(incl.a)]
        xi = [math.exp(rng.uniform(-1.5, 1.5)) for _ in range(incl.b)]
        rows = [[xi[j] / eta[i] if incl.D[i][j] != 0 else None
                 for j in range(incl.b)] for i in range(incl.a)]
    return as_distortion(rows, incl.graph), eta, xi


def box_lp(M):
    """max t s.t. M pi = 1, pi + s = 1, pi - t - u = 0, vars >= 0: the
    downward LP over pi itself, with a + 2b rows and 4b + 1 variables, as
    (A, rhs, c) for min c.x; pi = x[:b], t* = x[b] = -value."""
    a = len(M)
    b = len(M[0])
    nvars = 2 * b + 1 + b
    A, rhs = [], []
    for i in range(a):
        row = [Fraction(0)] * nvars
        for j in range(b):
            row[j] = Fraction(M[i][j])
        A.append(row)
        rhs.append(Fraction(1))
    for j in range(b):
        row = [Fraction(0)] * nvars
        row[j] = Fraction(1)
        row[b + 1 + j] = Fraction(1)
        A.append(row)
        rhs.append(Fraction(1))
    for j in range(b):
        row = [Fraction(0)] * nvars
        row[j] = Fraction(1)
        row[b] = Fraction(-1)
        row[b + 1 + b + j] = Fraction(-1)
        A.append(row)
        rhs.append(Fraction(0))
    c = [Fraction(0)] * nvars
    c[b] = Fraction(-1)
    return A, rhs, c


def downward_lp_oracle(M):
    """The box LP of M solved by the reference exact simplex."""
    return linear_oracle.solve_lp(*box_lp(M))


@pytest.fixture
def rng():
    return random.Random(20260815)
