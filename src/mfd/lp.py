"""Linear programs for tiny problems: floats propose, exact arithmetic
certifies, and an exact simplex is the fallback.

solve_lp minimizes c.x subject to A x = b, x >= 0, and always answers
exactly.  One two-phase Bland-rule simplex serves both number types: rows
are signed so that b >= 0, a unit column on its row starts the basis there,
and only the other rows get an artificial for phase 1.  It runs first on a
float copy, comparing to within _EPS, only to choose a basis.  Exact solves
then prove its answer (the QSopt_ex approach: Applegate, Cook, Dash and
Espinoza, Oper. Res. Lett. 35, 2007): _certify an optimum, _farkas an
infeasible LP by a Farkas vector.  When the float pass ends unbounded, stops
at its pivot cap or cannot represent an entry, or the proof fails, the
simplex runs over Fraction, where Bland's rule cannot cycle.
"""

from fractions import Fraction

from .linear import _pivot as _eliminate, _reduce, solve

_EPS = 1e-9
_PIVOT_CAP = 10  # float pivots per phase, per row and column of A


def _pivot(T, basis, row, col):
    _eliminate(T, row, col)
    basis[row] = col


def _run(T, basis, ncols, eps=0, cap=None):
    """Bland-rule simplex on a canonical tableau. Last row = reduced costs.
    Values within eps count as zero or tied; it stops after cap pivots."""
    m = len(T) - 1
    pivots = 0
    while True:
        col = next((j for j in range(ncols) if T[m][j] < -eps), None)
        if col is None:
            return "optimal"
        if pivots == cap:
            return "capped"
        ratios = [(T[i][ncols] / T[i][col], i) for i in range(m) if T[i][col] > eps]
        if not ratios:
            return "unbounded"
        tie = min(r for r, _ in ratios) + eps
        _pivot(T, basis, min((i for r, i in ratios if r <= tie), key=basis.__getitem__), col)
        pivots += 1


def _simplex(A, b, c, num, eps=0, cap=None):
    """Two-phase simplex over the number type num: (status, basis, x); basis
    holds each kept row's basic column, or if infeasible phase 1's last basis,
    with n + i for row i's artificial."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = []
    for i in range(m):
        row = [num(x) for x in A[i]] + [num(b[i])]
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
    T = [row[:n] + [num(int(basis[i] == j)) for j in range(n, total)] + row[n:]
         for i, row in enumerate(rows)]
    cost = [num(0)] * (total + 1)
    for i in missing:
        cost = [x - y for x, y in zip(cost, T[i])]
    for j in range(n, total):
        cost[j] += 1
    T.append(cost)
    if _run(T, basis, total, eps, cap) == "capped":
        return "capped", None, None
    if abs(T[m][total]) > eps:
        return "infeasible", [j if j < n else n + missing[j - n] for j in basis], None

    # drive artificials out; rows where that is impossible are redundant
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if abs(T[i][j]) > eps), None)
            if col is not None:
                _pivot(T, basis, i, col)
    keep = [i for i in range(m) if basis[i] < n]
    body = [[T[i][j] for j in range(n)] + [T[i][total]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2 on the original objective
    obj = [num(x) for x in c] + [num(0)]
    for i, row in enumerate(body):
        if obj[basis[i]] != 0:
            obj = _reduce(obj, row, basis[i])
    T = body + [obj]
    status = _run(T, basis, n, eps, cap)
    if status != "optimal":
        return status, None, None
    x = [num(0)] * n
    for i, j in enumerate(basis):
        x[j] = T[i][n]
    return status, basis, x


def _dot(y, col):
    return sum(y[i] * a for i, a in col if y[i])


def _split(A, basis, covered=()):
    """(cols, unit, S): the nonzero entries (i, A_ij) of each column j, exact;
    the basic unit columns by their row, save on covered rows; the others."""
    cols = [[(i, v if isinstance(v, int) else Fraction(v)) for i, v in enumerate(col) if v]
            for col in zip(*A)]
    unit = {}
    for j in basis:
        col = cols[j]
        if len(col) == 1 and col[0][1] == 1 and col[0][0] not in unit and col[0][0] not in covered:
            unit[col[0][0]] = j
    return cols, unit, [j for j in basis if j not in unit.values()]


def _dual(A, cols, S, c, known):
    """The y with y A_j = c_j for j in S that equals known on its rows (as a
    basic unit column fixes its row's y outright), or None unless unique."""
    y = [known.get(i, 0) for i in range(len(A))]
    rest = [i for i in range(len(A)) if i not in known]
    kind, yS = solve([[A[i][j] for i in rest] for j in S], [c[j] - _dot(y, cols[j]) for j in S])
    if kind != "unique":
        return None
    for i, v in zip(rest, yS):
        y[i] = v
    return y


def _certify(A, b, c, basis):
    """("optimal", x, value) when basis is exactly optimal, else None.  A
    basic unit column (a slack) covers its own row; the other basic columns
    S must give a unique solution on the other rows, and so must the dual."""
    b, c = [Fraction(v) for v in b], [Fraction(v) for v in c]
    cols, slack, S = _split(A, basis)
    rest = [i for i in range(len(A)) if i not in slack]
    kind, xS = solve([[A[i][j] for j in S] for i in rest], [b[i] for i in rest])
    if kind != "unique" or any(v < 0 for v in xS):
        return None
    x = [Fraction(0)] * len(cols)
    r = list(b)  # b - A x, which is the slack's value on a slack row
    for j, v in zip(S, xS):
        x[j] = v
        for i, a in cols[j]:
            r[i] -= a * v
    if any(r[i] < 0 for i in slack):
        return None
    for i, j in slack.items():
        x[j] = r[i]
    y = _dual(A, cols, S, c, {i: c[j] for i, j in slack.items()})
    if y is None or any(c[j] < _dot(y, cols[j]) for j in set(range(len(cols))).difference(basis)):
        return None
    return "optimal", x, sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))


def _farkas(A, b, basis):
    """A y with y A <= 0 < y b exactly, which proves that no x >= 0 has
    A x = b, from a final phase-1 basis (see _simplex); else None.  It solves
    A_B^T y = c_B for the phase-1 cost: 0 on the columns of A, 1 on the
    artificial of row i, row i's unit column signed as b_i."""
    b, n = [Fraction(v) for v in b], len(A[0])
    known = {j - n: -1 if b[j - n] < 0 else 1 for j in basis if j >= n}
    cols, unit, S = _split(A, [j for j in basis if j < n], known)
    y = _dual(A, cols, S, [0] * n, {**known, **dict.fromkeys(unit, 0)})
    proved = y is not None and all(_dot(y, col) <= 0 for col in cols) and _dot(y, enumerate(b)) > 0
    return y if proved else None


def _exact(A, b, c):
    """The simplex over Fraction alone: (status, x, value); _farkas proves
    its infeasible answers from its final phase-1 basis, which is exact."""
    status, basis, x = _simplex(A, b, c, Fraction)
    if status == "infeasible" and _farkas(A, b, basis) is None:
        raise ArithmeticError("exact phase 1 ended infeasible without a Farkas vector")
    return status, x, None if x is None else sum(Fraction(ci) * xi for ci, xi in zip(c, x))


def solve_lp(A, b, c):
    """Returns (status, x, value) with status optimal | infeasible | unbounded."""
    try:
        status, basis, _ = _simplex(A, b, c, float, _EPS, _PIVOT_CAP * (len(A) + len(c)))
    except OverflowError:  # an entry beyond the float range
        status = None
    if status == "infeasible" and _farkas(A, b, basis) is not None:
        return "infeasible", None, None
    return (status == "optimal" and _certify(A, b, c, basis)) or _exact(A, b, c)
