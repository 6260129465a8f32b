"""Exact two-phase simplex for tiny linear programs.

Minimizes c.x subject to A x = b, x >= 0, everything over Fraction. Bland's
rule everywhere, so cycling is impossible. Problem sizes in this package are a
few dozen variables at most. Every row operation is linear._pivot or
linear._reduce, shared with rref, which skip the zero entries that make up
most of the tableau.
"""

from fractions import Fraction

from .linear import _pivot as _eliminate, _reduce


def _pivot(T, basis, row, col):
    _eliminate(T, row, col)
    basis[row] = col


def _run(T, basis, ncols):
    """Bland-rule simplex on a canonical tableau. Last row = reduced costs."""
    m = len(T) - 1
    while True:
        col = next((j for j in range(ncols) if T[m][j] < 0), None)
        if col is None:
            return "optimal"
        row = None
        best = None
        for i in range(m):
            if T[i][col] > 0:
                ratio = T[i][ncols] / T[i][col]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best, row = ratio, i
        if row is None:
            return "unbounded"
        _pivot(T, basis, row, col)


def solve_lp(A, b, c):
    """Returns (status, x, value) with status optimal | infeasible | unbounded."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = []
    rhs = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]]
        r = Fraction(b[i])
        if r < 0:
            row = [-x for x in row]
            r = -r
        rows.append(row)
        rhs.append(r)

    # phase 1: one artificial variable per row
    total = n + m
    T = [rows[i] + [Fraction(1) if k == i else Fraction(0) for k in range(m)] + [rhs[i]]
         for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = [Fraction(0)] * (total + 1)
    for i in range(m):
        cost = [x - y for x, y in zip(cost, T[i])]
    for j in range(n, total):
        cost[j] += 1
    T.append(cost)
    _run(T, basis, total)
    if T[m][total] != 0:
        return "infeasible", None, None

    # drive artificials out; rows where that is impossible are redundant
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is not None:
                _pivot(T, basis, i, col)
    keep = [i for i in range(m) if basis[i] < n]
    body = [[T[i][j] for j in range(n)] + [T[i][total]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2 on the original objective
    obj = [Fraction(x) for x in c] + [Fraction(0)]
    for i, row in enumerate(body):
        if obj[basis[i]] != 0:
            obj = _reduce(obj, row, basis[i])
    T = body + [obj]
    status = _run(T, basis, n)
    if status == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i in range(len(basis)):
        x[basis[i]] = T[i][n]
    value = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
    return "optimal", x, value
