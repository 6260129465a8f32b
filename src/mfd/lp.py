"""Exact two-phase simplex for tiny linear programs.

Minimizes c.x subject to A x = b, x >= 0, everything over Fraction. Bland's
rule everywhere, so cycling is impossible. Problem sizes in this package are a
few dozen variables at most. After the rows are signed so that b >= 0, a
column that is a unit vector on its row starts the basis there (the slack of
a row that needed no sign flip); only the rows without one get an artificial
variable, so phase 1 works on those rows alone and is skipped when there are
none. Every row operation is linear._pivot or linear._reduce, shared with
rref, which skip the zero entries that make up most of the tableau; a pivot
row is not scaled when its pivot is 1, and only negated when it is -1.
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
    for i in range(m):
        row = [Fraction(x) for x in A[i]] + [Fraction(b[i])]
        rows.append([-x for x in row] if row[n] < 0 else row)

    # phase 1: unit columns start the basis, one artificial per other row
    basis = [None] * m
    for j in range(n):
        hits = [i for i in range(m) if rows[i][j]]
        if len(hits) == 1 and rows[hits[0]][j] == 1 and basis[hits[0]] is None:
            basis[hits[0]] = j
    missing = [i for i in range(m) if basis[i] is None]
    total = n + len(missing)
    for k, i in enumerate(missing):
        basis[i] = n + k
    T = [row[:n] + [Fraction(int(basis[i] == j)) for j in range(n, total)] + row[n:]
         for i, row in enumerate(rows)]
    cost = [Fraction(0)] * (total + 1)
    for i in missing:
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
