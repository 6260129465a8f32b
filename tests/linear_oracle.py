"""Dense all-Fraction elimination: the reference for mfd.linear and mfd.lp.

Every entry is made a Fraction before the first row operation, and every
pivot row is multiplied by the pivot's inverse, even when the pivot is 1.  The
package's kernel keeps integer entries as ints until a pivot other than
+-1 divides them; the reduced row echelon form is unique, so both must
return equal R, pivots, solutions and nullspace bases.  solve_lp is the exact
simplex alone, on this elimination, with no float pass: mfd.lp.solve_lp must
return its status and value, and its x wherever the optimum is unique.
"""
from fractions import Fraction


def _reduce(row, pivot_row, c):
    f = row[c]
    return [x - f * y if y else x for x, y in zip(row, pivot_row)]


def _pivot(R, r, c):
    inv = Fraction(1) / R[r][c]
    R[r] = [x * inv if x else x for x in R[r]]
    for i, row in enumerate(R):
        if i != r and row[c] != 0:
            R[i] = _reduce(row, R[r], c)


def rref(A):
    """Reduced row echelon form over Fraction: (R, pivot_columns)."""
    R = [[Fraction(x) for x in row] for row in A]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if R[i][c] != 0), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        _pivot(R, r, c)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def _free_basis(R, pivots, cols):
    pivot_set = set(pivots)
    basis = []
    for fcol in (c for c in range(cols) if c not in pivot_set):
        v = [Fraction(0)] * cols
        v[fcol] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -R[r][fcol]
        basis.append(v)
    return basis


def solve(A, b):
    """("unique", x) | ("underdetermined", (x0, basis)) | ("inconsistent", row)."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    aug = [[Fraction(x) for x in A[i]] + [Fraction(b[i])] for i in range(rows)]
    R, pivots = rref(aug)
    if cols in pivots:
        return "inconsistent", pivots.index(cols)
    x0 = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x0[c] = R[r][cols]
    basis = _free_basis(R, pivots, cols)
    if not basis:
        return "unique", x0
    return "underdetermined", (x0, basis)


def nullspace(A):
    """Basis of {x : A x = 0} over Fraction."""
    R, pivots = rref(A)
    return _free_basis(R, pivots, len(A[0]) if A else 0)


def _lp_pivot(T, basis, row, col):
    _pivot(T, row, col)
    basis[row] = col


def _lp_run(T, basis, ncols):
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
        _lp_pivot(T, basis, row, col)


def solve_lp(A, b, c):
    """The exact two-phase Bland simplex over Fraction, the reference for
    mfd.lp.solve_lp: min c.x s.t. A x = b, x >= 0, as (status, x, value)
    with status optimal | infeasible | unbounded.  Rows are signed so that
    b >= 0; a unit column on its row starts the basis there, and only the
    other rows get artificials."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]] + [Fraction(b[i])]
        rows.append([-x for x in row] if row[n] < 0 else row)

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
    _lp_run(T, basis, total)
    if T[m][total] != 0:
        return "infeasible", None, None

    # drive artificials out; rows where that is impossible are redundant
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is not None:
                _lp_pivot(T, basis, i, col)
    keep = [i for i in range(m) if basis[i] < n]
    body = [[T[i][j] for j in range(n)] + [T[i][total]] for i in keep]
    basis = [basis[i] for i in keep]

    obj = [Fraction(x) for x in c] + [Fraction(0)]
    for i, row in enumerate(body):
        if obj[basis[i]] != 0:
            obj = _reduce(obj, row, basis[i])
    T = body + [obj]
    if _lp_run(T, basis, n) == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i in range(len(basis)):
        x[basis[i]] = T[i][n]
    value = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
    return "optimal", x, value
