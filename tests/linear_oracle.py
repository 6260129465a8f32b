"""Dense all-Fraction elimination: the reference for mfd.linear.

Every entry is made a Fraction before the first row operation, and every
pivot row is multiplied by the pivot's inverse, even when the pivot is 1.  The
package's kernel keeps integer entries as ints until a pivot other than
+-1 divides them; the reduced row echelon form is unique, so both must
return equal R, pivots, solutions and nullspace bases.
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
