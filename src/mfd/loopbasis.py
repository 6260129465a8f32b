"""Loop model of a finite-dimensional inclusion N0 in N1.

A two-layer Bratteli diagram with a base point: m0(i) "eta" edges from
the base point to bottom vertex i, Lambda_ij "eps" edges from i to top
vertex j.  Loops of length 2 span N0 = (+)_i M_m0(i) and loops of length
4 span N1 = (+)_j M_m1(j): the loop (h1, e1, e2, h2) is the matrix unit
of block t(e1) with row path (h1, e1) and column path (h2, e2).  The
Markov trace data are those of markov.finite_dim_markov, which validates
Lambda as the inclusion D = Delta = Lambda and reads its Perron data.
They and the Pimsner-Popa basis are floats; the closed-form transfer
matrix DimDiag^{-1} Lambda Lambda^T DimDiag is exact.

A family of N1 elements is a BlockBasis: one numpy stack per top vertex
j, of shape (elements with a loop in block j, m1(j), m1(j)), whose rows
and columns are the paths (h, e) with t(e) = j ordered by s(e), then e,
then h.  pimsner_popa_basis emits the basis in this form, and the
Watatani sum, the Pimsner-Popa identity, the central transfer and the
density recursion read it as it is.  The sandwich map x -> sum_b E(b* x b)
on the centre of N0 is linear, so it is computed once per basis as the
k0 x k0 matrix S and kept on the basis: the transfer is S vec and the
density recursion is h_m = S h_{m-1} / d^2.

The module also has small helpers for commuting-square nondegeneracy
and relative commutants of concrete matrix algebras.  An algebra is
presented by generators inside M_n; it is unital (the identity) and
closed under adjoints, so by the bicommutant theorem it equals its
double commutant.  The relative commutant N' cap M is therefore
{x : [x, g] = 0 for g in N's generators and in a basis of M'}, and a
basis of M' is itself the nullspace of the commutator map over M's
generators: two nullspaces of one map, exact or by SVD.

The diagonal dimension matrix diag(m0) is called DimDiag here; the name
Delta is reserved for Jones matrices elsewhere in the package.
"""
import math
from functools import cached_property

from .core import _Frozen, _Record
from .errors import (InconsistentDimensions, InconsistentTraces,
                     NegativeEntry, NotCentral)
from .linear import mat_mul, mat_vec, nullspace, transpose, vec_mat
from .markov import finite_dim_markov
from .numbers import div, is_exact, to_float

PP_TOLERANCE = 1e-10
CENTRAL_TOLERANCE = 1e-8


def _conj(x):
    return x.conjugate() if hasattr(x, "conjugate") else x


class LoopAlgebraPair(_Frozen):
    """Loop presentations of N0 and N1 with their Markov trace data."""

    _fields = ("m0", "Lambda", "m1",
               "eta_edges",  # ("eta", i, t): edge number t from the base point to i
               "eps_edges",  # ("eps", i, j, t): edge number t from i to j
               "lambda0", "lambda1", "d_squared",
               "n0_loops",  # (eta, eta') with equal targets
               "n1_loops")  # (eta, eps, eps', eta') forming a closed loop

    def __init__(self, m0, Lambda, m1, eta_edges, eps_edges, lambda0, lambda1, d_squared,
                 n0_loops, n1_loops):
        vars(self).update(m0=m0, Lambda=Lambda, m1=m1, eta_edges=eta_edges,
                          eps_edges=eps_edges, lambda0=lambda0, lambda1=lambda1,
                          d_squared=d_squared, n0_loops=n0_loops, n1_loops=n1_loops)

    @property
    def k0(self):
        return len(self.m0)

    @property
    def k1(self):
        return len(self.Lambda[0])


def _as_int(x, position):
    """x as an int; ValueError when that would change its value."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x:
        raise ValueError(f"non-integer entry {x!r} at {position}")
    return n


def build_loop_algebra(m0, Lambda):
    """Enumerate edges and loops and attach the Markov trace data.

    Entries of m0 and Lambda must be integers; anything else raises
    ValueError.
    """
    m0 = tuple(_as_int(x, ("m0", i)) for i, x in enumerate(m0))
    for i, v in enumerate(m0):
        if v <= 0:
            raise NegativeEntry(("m0", i), v)
    Lam = tuple(tuple(_as_int(x, ("Lambda", i, j)) for j, x in enumerate(row))
                for i, row in enumerate(Lambda))
    fdm = finite_dim_markov(Lam, m0)  # raises DisconnectedSupport
    k0 = len(m0)
    k1 = len(Lam[0])
    m1 = tuple(fdm.m_B)
    eta_edges = tuple(("eta", i, t) for i in range(k0) for t in range(m0[i]))
    eps_edges = tuple(("eps", i, j, t) for i in range(k0) for j in range(k1)
                      for t in range(Lam[i][j]))
    n0_loops = tuple((e, f) for e in eta_edges for f in eta_edges if e[1] == f[1])
    paths = [(e, f) for e in eta_edges for f in eps_edges if f[1] == e[1]]
    n1_loops = tuple((p[0], p[1], q[1], q[0]) for p in paths for q in paths
                     if p[1][2] == q[1][2])
    return LoopAlgebraPair(m0=m0, Lambda=Lam, m1=m1, eta_edges=eta_edges,
                           eps_edges=eps_edges,
                           lambda0=tuple(fdm.lambda_A), lambda1=tuple(fdm.lambda_B),
                           d_squared=fdm.d_squared,
                           n0_loops=n0_loops, n1_loops=n1_loops)


def _path_offsets(pair: LoopAlgebraPair):
    """offsets[i][j]: first row of block j that passes through bottom vertex i.

    Rows and columns of block j are the paths (h, e) with t(e) = j,
    ordered by s(e), then by e, then by h: the path
    (("eta", i, a), ("eps", i, j, t)) sits at offsets[i][j] + t m0(i) + a.
    """
    out = [[0] * pair.k1 for _ in range(pair.k0)]
    for j in range(pair.k1):
        start = 0
        for i in range(pair.k0):
            out[i][j] = start
            start += pair.Lambda[i][j] * pair.m0[i]
    return out


def _central_values(M, i):
    """The scalars c_h of the matrices M[h] = c_h I on bottom vertex i.

    Every entry must pass numbers.close at CENTRAL_TOLERANCE against
    M[h][0, 0] I: off the diagonal against 0, on it against M[h][0, 0].
    """
    import numpy as np
    c = M[:, 0, 0]
    target = c[:, None, None] * np.eye(M.shape[1])
    bound = CENTRAL_TOLERANCE * np.maximum(np.maximum(np.abs(M), np.abs(target)), 1.0)
    bad = np.argwhere(~(np.abs(M - target) <= bound))  # NaN is not close either
    if len(bad):
        h, a, b = bad[0]
        raise NotCentral(f"entry ({a}, {b}) of block {i} is {M[h, a, b]}, "
                         f"not {target[h, a, b]}, for the projection on {h}")
    return c


class BlockBasis(_Frozen):
    """A family of elements of N1, stored as one numpy stack per top vertex.

    blocks[j] is (members, stack): members holds the positions, in
    increasing order within range(len(basis)), of the elements with a
    loop in block j, and stack[k] is the m1(j) x m1(j) matrix of element
    members[k] there.
    """

    _fields = ("pair", "blocks", "size")
    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity

    def __init__(self, pair, blocks, size):
        vars(self).update(pair=pair, blocks=blocks, size=size)

    def __len__(self):
        return self.size

    @cached_property
    def sandwich(self):
        """S, k0 x k0: column h is the central vector of sum_b E(b* i(p_h) b).

        Block j of sum_b b* i(p_h) b is sum_b B^H P_h B with P_h the rows
        whose eps edge leaves h; E keeps the entries whose two paths share
        the eps edge, scaled by lambda1(j) / lambda0(i).  Every column is
        checked central (NotCentral otherwise), so by linearity S vec is
        the sandwich of every central element sum_h vec_h p_h.
        """
        import numpy as np
        pair = self.pair
        off = _path_offsets(pair)
        k0 = pair.k0
        total = [np.zeros((k0, m, m)) for m in pair.m0]  # total[i][h]
        for j, (_, B) in enumerate(self.blocks):
            for i in range(k0):
                n_e, m, s = pair.Lambda[i][j], pair.m0[i], off[i][j]
                if not n_e:
                    continue
                # rows first: Y[r] holds the entries (element, e, q) of row r
                Y = B[:, :, s:s + n_e * m].transpose(1, 0, 2).reshape(
                    pair.m1[j], len(B) * n_e, m)
                scale = pair.lambda1[j] / pair.lambda0[i]
                for h in range(k0):
                    X = Y[off[h][j]:off[h][j] + pair.Lambda[h][j] * pair.m0[h]].reshape(-1, m)
                    total[i][h] += scale * (X.conj().T @ X)
        return np.array([_central_values(total[i], i) for i in range(k0)])


def pimsner_popa_basis(pair: LoopAlgebraPair):
    """Explicit Pimsner-Popa basis of N1 over N0, as a BlockBasis.

    B1 has one element per ordered pair of parallel top edges e1, e2:
    i -> j, summed over all bottom edges into i, which is the tile
    c I_m0(i) of block j at rows e1 and columns e2 with
    c = sqrt(lambda0(i) / lambda1(j)).  B2 has one element per matrix
    unit of block j whose row and column pass through different bottom
    vertices, with coefficient sqrt(lambda0(s) / (m0(s) lambda1(j))) for
    s the bottom vertex of the column.  With these the Watatani sum is
    d^2 exactly.  Elements are numbered block by block, B1 before B2.
    """
    import numpy as np
    off = _path_offsets(pair)
    blocks = []
    first = 0
    for j in range(pair.k1):
        tiles = [(i, t1, t2) for i in range(pair.k0) for t1 in range(pair.Lambda[i][j])
                 for t2 in range(pair.Lambda[i][j])]
        src = np.repeat(np.arange(pair.k0),
                        [pair.Lambda[i][j] * pair.m0[i] for i in range(pair.k0)])
        rows, cols = np.nonzero(src[:, None] != src[None, :])
        coeff = np.array([math.sqrt(pair.lambda0[i] / (pair.m0[i] * pair.lambda1[j]))
                          for i in range(pair.k0)])
        stack = np.zeros((len(tiles) + len(rows), pair.m1[j], pair.m1[j]))
        for k, (i, t1, t2) in enumerate(tiles):
            m = pair.m0[i]
            h = np.arange(m)
            stack[k, off[i][j] + t1 * m + h, off[i][j] + t2 * m + h] = \
                math.sqrt(pair.lambda0[i] / pair.lambda1[j])
        stack[len(tiles) + np.arange(len(rows)), rows, cols] = coeff[src[cols]]
        blocks.append((np.arange(first, first + len(stack)), stack))
        first += len(stack)
    return BlockBasis(pair=pair, blocks=tuple(blocks), size=first)


def _through(stack, start, n_e, m):
    """Columns (h, e) of a block stack for the n_e parallel edges e leaving
    one bottom vertex with m eta edges, indexed [(p, e), element, h]."""
    nb, rows = stack.shape[:2]
    cols = stack[:, :, start:start + n_e * m].reshape(nb, rows, n_e, m)
    return cols.transpose(1, 2, 0, 3).reshape(rows * n_e, nb, m)


def _pp_deviation(pair: LoopAlgebraPair, blocks):
    """max |Phi(x) - x| over the matrix units x of N1, Phi(x) = sum_b b i(E(b* x)).

    For x at row r, column (g, e) of block j with e: i -> j, Phi(x) has
    R[(p, f), (r, e)] at row p, column (g, f) of block j' for every
    f: i -> j', and nothing elsewhere, where
    R = lambda1(j) / lambda0(i) sum_b sum_{h -> i} b[p, (h, f)] conj(b[r, (h, e)]).
    So Phi is the identity iff R is, over all pairs of blocks.  R sums over
    the elements in both blocks, so it is formed for j' != j only when some
    element has loops in two blocks.
    """
    import numpy as np
    off = _path_offsets(pair)
    members = [x for m, _ in blocks for x in m.tolist()]
    spanning = len(set(members)) < len(members)
    dev = 0.0
    for i in range(pair.k0):
        tops = [j for j in range(pair.k1) if pair.Lambda[i][j]]
        slabs = {j: _through(blocks[j][1], off[i][j], pair.Lambda[i][j], pair.m0[i])
                 for j in tops}
        for j in tops:
            for jp in tops if spanning else [j]:
                _, a, b = (np.intersect1d(blocks[jp][0], blocks[j][0], return_indices=True)
                           if spanning else (None, slice(None), slice(None)))
                R = pair.lambda1[j] / pair.lambda0[i] * np.tensordot(
                    slabs[jp][:, a], slabs[j][:, b].conj(), axes=([1, 2], [1, 2]))
                if jp == j:
                    R -= np.eye(len(R))
                dev = max(dev, float(np.abs(R).max()))
    return dev


def verify_pp_identity(pair: LoopAlgebraPair, basis: BlockBasis):
    """Check the Pimsner-Popa identity and the Watatani index sum.

    Returns a report with the maximal deviations of
    sum_b b i(E(b* x)) - x over all N1 loops x, and of
    sum_b b b* - d^2 1.  Both are computed on the blocks of the basis,
    one per top vertex.
    """
    import numpy as np
    watatani_dev = 0.0
    for j, (_, B) in enumerate(basis.blocks):
        W = np.tensordot(B, B.conj(), axes=([0, 2], [0, 2]))
        watatani_dev = max(watatani_dev,
                           float(np.abs(W - pair.d_squared * np.eye(pair.m1[j])).max()))
    pp_dev = _pp_deviation(pair, basis.blocks)

    return {
        "basis_size": len(basis),
        "d_squared": pair.d_squared,
        "watatani_deviation": watatani_dev,
        "pp_deviation": pp_dev,
        "tolerance": PP_TOLERANCE,
        "watatani_ok": watatani_dev <= PP_TOLERANCE,
        "pp_ok": pp_dev <= PP_TOLERANCE,
    }


def transfer_matrix(pair: LoopAlgebraPair):
    """DimDiag^{-1} Lambda Lambda^T DimDiag as exact entries."""
    LLt = mat_mul(pair.Lambda, transpose(pair.Lambda))
    k = pair.k0
    return tuple(tuple(div(LLt[i][h] * pair.m0[h], pair.m0[i]) for h in range(k))
                 for i in range(k))


def central_transfer(pair: LoopAlgebraPair, basis: BlockBasis, vec):
    """sum_b E(b* x b) for the central x = sum_i vec_i p_i, as a vector.

    Computed both as S vec, with S the sandwich map of the basis, and
    through the closed form DimDiag^{-1} Lambda Lambda^T DimDiag; the
    two must agree.  Returns the closed form.
    """
    import numpy as np
    vec = tuple(vec)
    if len(vec) != pair.k0:
        raise InconsistentDimensions(pair.k0, len(vec))
    closed = mat_vec(transfer_matrix(pair), vec)
    via_loops = basis.sandwich @ np.array([to_float(v) for v in vec])
    for i in range(pair.k0):
        if abs(via_loops[i] - to_float(closed[i])) > 1e-9 * max(1.0, abs(to_float(closed[i]))):
            raise RuntimeError(
                f"transfer mismatch on block {i}: loops {via_loops[i]} vs closed {closed[i]}")
    return tuple(closed)


class DensitySequence(_Record):
    _fields = ("levels", "h_inf", "recursion_deviation")  # levels: h_0 .. h_n on the centre

    def __init__(self, levels, h_inf, recursion_deviation):
        self.levels, self.h_inf, self.recursion_deviation = levels, h_inf, recursion_deviation


def density_sequence(pair: LoopAlgebraPair, n, basis: BlockBasis):
    """Densities of the iterated tower traces against tr0.

    h_0 is the all-ones vector and h_m = d^{-2} T h_{m-1} with T the
    central transfer matrix; the same sequence is recomputed through
    the Pimsner-Popa recursion h_m = d^{-2} S h_{m-1}, S the sandwich
    map of the basis, pimsner_popa_basis(pair), and the limit h_inf is
    DimDiag^{-1} lambda0 normalized to trace one.
    """
    import numpy as np
    if n < 0:
        raise ValueError("n must be nonnegative")
    T = transfer_matrix(pair)
    d2 = pair.d_squared
    levels = [tuple(1.0 for _ in range(pair.k0))]
    while len(levels) <= n:
        prev = levels[-1]
        levels.append(tuple(to_float(x) / d2 for x in mat_vec(T, prev)))

    deviation = 0.0
    if n:
        step = basis.sandwich / d2
        h_loop = np.array(levels[0])
        for m in range(1, n + 1):
            h_loop = step @ h_loop
            deviation = max(deviation, float(np.abs(h_loop - levels[m]).max()))

    norm = sum(l * l for l in pair.lambda0)
    h_inf = tuple(pair.lambda0[i] / (pair.m0[i] * norm) for i in range(pair.k0))
    return DensitySequence(levels=levels, h_inf=h_inf, recursion_deviation=deviation)


# ---------------------------------------------------------------------------
# Concrete matrix algebras and relative commutants.

class MatrixAlgebraPresentation(_Record):
    _fields = ("n", "generators")

    def __init__(self, n, generators):
        self.n, self.generators = n, generators


def _mat_adjoint(m):
    return tuple(tuple(_conj(m[j][i]) for j in range(len(m))) for i in range(len(m[0])))


def matrix_algebra(n, generators):
    """Package generators of a unital *-subalgebra of the n x n matrices.

    Adjoints of the generators are appended when missing; the unit is
    the identity matrix.
    """
    gens = [tuple(tuple(row) for row in g) for g in generators]
    for g in gens:
        if len(g) != n or any(len(row) != n for row in g):
            raise InconsistentDimensions(n, (len(g), len(g[0]) if g else 0))
    out = list(gens)
    for g in gens:
        ga = _mat_adjoint(g)
        if ga not in out:
            out.append(ga)
    return MatrixAlgebraPresentation(n=n, generators=out)


def _commutant(gens, n, exact):
    """Basis of {x : xg = gx for every g in gens}, as flat row-major vectors.

    Row (i, j) of the map x -> xg - gx has g[k][j] at position (i, k) and
    -g[i][k] at position (k, j) for the nonzero entries of g; all-zero and
    duplicate rows are dropped.  Exact mode takes the exact nullspace, float
    mode the right singular vectors below the SVD rank threshold.
    """
    rows = {}
    for g in gens:
        g_rows = [[(k, x) for k, x in enumerate(r) if x] for r in g]
        g_cols = [[(k, g[k][j]) for k in range(n) if g[k][j]] for j in range(n)]
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k, x in g_cols[j]:
                    row[i * n + k] += x
                for k, x in g_rows[i]:
                    row[k * n + j] -= x
                if any(row):
                    rows[tuple(row)] = None
    if not rows:
        return [[1 if p == q else 0 for q in range(n * n)] for p in range(n * n)]
    if exact:
        return nullspace(list(rows))
    import numpy as np
    _, svals, vt = np.linalg.svd(np.array(list(rows), dtype=float))
    rank = int(sum(sv > 1e-10 * max(svals[0], 1.0) for sv in svals))
    return [list(v) for v in vt[rank:]]


def relative_commutant(sub: MatrixAlgebraPresentation, ambient: MatrixAlgebraPresentation):
    """Basis of {x in alg(ambient) : [x, g] = 0 for all generators of sub}.

    Both presentations must share the ambient matrix size.  The ambient
    algebra is unital and closed under adjoints, so by the bicommutant
    theorem it equals its double commutant, and the result is the
    commutant of sub's generators together with a basis of ambient'.
    The computation is exact when every ambient entry is exact.  The
    result is orthogonal for the trace inner product <x, y> = tr(y^T x);
    entries are real.
    """
    if sub.n != ambient.n:
        raise InconsistentDimensions(ambient.n, sub.n)
    n = ambient.n

    def square(v):
        return tuple(tuple(v[i * n:(i + 1) * n]) for i in range(n))

    exact = all(is_exact(x) for g in ambient.generators for row in g for x in row)
    outer = [square(v) for v in _commutant(ambient.generators, n, exact)]
    ortho = []  # (vector, its squared norm)
    for v in _commutant(list(sub.generators) + outer, n, exact):
        for b, bb in ortho:
            ip = sum(x * y for x, y in zip(v, b) if x and y)
            if ip:
                c = div(ip, bb)
                v = [x - c * y for x, y in zip(v, b)]
        if any(x != 0 if exact else abs(x) > 1e-10 for x in v):
            ortho.append((v, sum(x * x for x in v if x)))
    return [square(v) for v, _ in ortho]


# ---------------------------------------------------------------------------
# Commuting-square nondegeneracy on Bratteli data.

class CommutingSquareData(_Frozen):
    """Inclusion matrices of a square of finite-dimensional algebras.

        N0 in N1   (Lambda_bot, k0 x k1)
        N0 in M0   (V0, k0 x l0)
        N1 in M1   (V1, k1 x l1)
        M0 in M1   (Lambda_top, l0 x l1)

    together with the dimension vector of N0.  The trace on everything
    is the Markov trace of M0 in M1 restricted along the inclusions.
    """

    _fields = ("Lambda_top", "Lambda_bot", "V0", "V1", "m_N0")

    def __init__(self, Lambda_top, Lambda_bot, V0, V1, m_N0):
        Lt, Lb, V0, V1 = (tuple(map(tuple, m)) for m in (Lambda_top, Lambda_bot, V0, V1))
        vars(self).update(Lambda_top=Lt, Lambda_bot=Lb, V0=V0, V1=V1, m_N0=tuple(m_N0))
        k0 = len(self.Lambda_bot)
        k1 = len(self.Lambda_bot[0])
        l0 = len(self.Lambda_top)
        l1 = len(self.Lambda_top[0])
        if len(self.V0) != k0 or len(self.V0[0]) != l0:
            raise InconsistentTraces("V0 shape does not match the corner algebras")
        if len(self.V1) != k1 or len(self.V1[0]) != l1:
            raise InconsistentTraces("V1 shape does not match the corner algebras")
        if len(self.m_N0) != k0:
            raise InconsistentTraces("dimension vector length differs from N0 vertex count")


def nondegeneracy_check(square: CommutingSquareData, tol=1e-10):
    """True iff the bottom inclusion inherits the full Markov index.

    The restriction of the top Markov trace to N1 is tested for being
    an eigenvector of Lambda_bot^T Lambda_bot at the top index d^2;
    smaller index means the square is degenerate.
    """
    lb = square.Lambda_bot
    lt = square.Lambda_top
    paths_via_N1 = mat_mul(lb, square.V1)
    paths_via_M0 = mat_mul(square.V0, lt)
    k0 = len(lb)
    l1 = len(lt[0])
    for i in range(k0):
        for j in range(l1):
            if paths_via_N1[i][j] != paths_via_M0[i][j]:
                raise InconsistentTraces(
                    f"path counts from N0 vertex {i} to M1 vertex {j} disagree")

    m_M0 = vec_mat(square.m_N0, square.V0)
    if any(x <= 0 for x in m_M0):
        raise InconsistentTraces("M0 dimension vector has a nonpositive entry")
    fdm = finite_dim_markov(lt, m_M0)
    d2 = fdm.d_squared
    lam_M1 = fdm.lambda_B
    lam_N1 = mat_vec(square.V1, lam_M1)
    if any(not x > 0 for x in lam_N1):
        raise InconsistentTraces("restricted trace vanishes on a block of N1")
    w = mat_vec(transpose(lb), mat_vec(lb, lam_N1))
    scale = max(abs(float(x)) for x in lam_N1)
    return all(abs(float(w[j]) - d2 * float(lam_N1[j])) <= tol * d2 * max(scale, 1.0)
               for j in range(len(lam_N1)))


def basic_construction_square(square: CommutingSquareData):
    """One basic-construction step applied to the whole square.

    The horizontal inclusions transpose; the left vertical becomes the
    old right vertical and the new right vertical reuses the old left
    one.  Meaningful for nondegenerate squares, where the data stays
    consistent.
    """
    return CommutingSquareData(
        Lambda_top=transpose(square.Lambda_top),
        Lambda_bot=transpose(square.Lambda_bot),
        V0=square.V1,
        V1=square.V0,
        m_N0=tuple(vec_mat(square.m_N0, square.Lambda_bot)),
    )
