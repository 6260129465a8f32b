"""Exact dense linear algebra over the rationals.

All matrices are lists of lists, all vectors plain lists. Sizes here are tiny
(a, b <= ~20), so O(n^3) Gaussian elimination with exact pivoting is the right
tool. The float Perron problem has its own solver in core.

Elimination keeps int entries as ints until a pivot other than 1 or -1
divides its row, and makes every other entry (floats too) an exact Fraction;
R from rref may mix ints and Fractions, but solve and nullspace return
vectors of Fractions.
"""

from fractions import Fraction


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_vec(A, v):
    return [sum(row[k] * v[k] for k in range(len(v))) for row in A]


def vec_mat(v, A):
    n = len(A)
    cols = len(A[0]) if n else 0
    return [sum(v[i] * A[i][j] for i in range(n)) for j in range(cols)]


def mat_mul(A, B):
    Bt = transpose(B)
    return [[sum(x * y for x, y in zip(row, col)) for col in Bt] for row in A]


def _reduce(row, pivot_row, c):
    """row minus row[c] times pivot_row, whose entry c is 1; zero entries
    of pivot_row are skipped, so sparse rows cost what they hold."""
    f = row[c]
    return [x - f * y if y else x for x, y in zip(row, pivot_row)]


def _pivot(R, r, c):
    """Scale row r of R to a 1 in column c and clear column c from every
    other row: the one exact row operation of rref and the simplex."""
    p = R[r][c]
    if p != 1:
        inv = -1 if p == -1 else Fraction(1) / p
        R[r] = [x * inv if x else x for x in R[r]]
    for i, row in enumerate(R):
        if i != r and row[c]:
            R[i] = _reduce(row, R[r], c)


def rref(A):
    """Reduced row echelon form. Returns (R, pivot_columns).

    Entries other than ints are coerced to Fraction; A is not modified.
    """
    R = [[x if isinstance(x, int) else Fraction(x) for x in row] for row in A]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if R[i][c]), None)
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
    """Nullspace basis of the RREF (R, pivots) over its first cols columns."""
    pivot_set = set(pivots)
    basis = []
    for fcol in (c for c in range(cols) if c not in pivot_set):
        v = [Fraction(0)] * cols
        v[fcol] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = Fraction(-R[r][fcol])
        basis.append(v)
    return basis


def solve(A, b):
    """Solve A x = b exactly.

    Returns (kind, payload):
      ("unique", x)          one solution
      ("underdetermined", (x0, nullspace_basis))  affine solution set
      ("inconsistent", row)  witness row index of the RREF with 0 = nonzero
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    R, pivots = rref([list(A[i]) + [b[i]] for i in range(rows)])
    if cols in pivots:
        return "inconsistent", pivots.index(cols)
    x0 = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x0[c] = Fraction(R[r][cols])
    basis = _free_basis(R, pivots, cols)
    if not basis:
        return "unique", x0
    return "underdetermined", (x0, basis)


def nullspace(A):
    """Basis of {x : A x = 0}, exact."""
    R, pivots = rref(A)
    return _free_basis(R, pivots, len(A[0]) if A else 0)
