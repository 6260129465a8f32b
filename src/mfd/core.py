"""Data model and spectral engine.

An inclusion is encoded by its statistical dimension matrix D and optional
Jones dimension matrix (defaulting to D) over a connected bipartite support
graph: rows are the central summands of the small algebra, columns those of
the big one. Frobenius-Perron data follows the row-vector convention
alpha D = d beta, beta D^T = d alpha with unit 2-norm vectors; they belong
to the inclusion, which solves D's (perron) and Delta's (jones_perron) on
first read and keeps them, solving G = M^T M in plain Python (_perron_eigenpair).

BipartiteGraph.of is the one place that turns a matrix's nonzero entries
into (sorted) edges.  One breadth-first search walks them on first read:
from ("row", 0) it gives connectivity and the spanning tree, and from each
unreached vertex the components.  Every support sum (basic construction, Phi, Morita
rescaling, realizability, the H2/H5 row sums, the basic-construction trace)
is row_sums or col_sums of one value per edge in that order: the same terms,
order and starting 0 as a dense loop that skips zeros, so exact values stay
exact and floats agree bit for bit.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import mul, sub, truediv

from .errors import (
    DisconnectedSupport,
    NegativeEntry,
    NonConvergence,
    SupportMismatch,
)
from .numbers import _clear_denominators


class BipartiteGraph:
    """Support graph with vertices ("row", i) and ("col", j): the BFS
    spanning tree rooted at ("row", 0), with parent pointers for path
    reconstruction, and the connected components, each on first read."""

    def __init__(self, a, b, edges):
        self.a = a
        self.b = b
        self.edges = tuple(sorted(edges))

    def __getattr__(self, name):  # the adjacency and the spanning tree, on first read
        if name not in ("_adj", "parent", "bfs_order", "tree_edges", "is_connected"):
            raise AttributeError(name)
        self._adj = adj = {("row", i): [] for i in range(self.a)}
        adj.update({("col", j): [] for j in range(self.b)})
        for i, j in self.edges:
            adj[("row", i)].append(("col", j))
            adj[("col", j)].append(("row", i))
        self.parent = {}
        self.bfs_order, self.tree_edges = self._bfs(("row", 0), self.parent)
        self.is_connected = len(self.bfs_order) == self.a + self.b
        return getattr(self, name)

    @classmethod
    def of(cls, matrix):
        """The graph of a matrix's nonzero entries."""
        a, b = len(matrix), len(matrix[0])
        return cls(a, b, [(i, j) for i in range(a) for j in range(b) if matrix[i][j] != 0])

    def row_sums(self, values):
        """Per-row sums, from 0, of one value per edge in edges order."""
        sums = [0] * self.a
        for (i, _), v in zip(self.edges, values):
            sums[i] = sums[i] + v
        return sums

    def col_sums(self, values):
        """Per-column sums, from 0, of one value per edge in edges order."""
        sums = [0] * self.b
        for (_, j), v in zip(self.edges, values):
            sums[j] = sums[j] + v
        return sums

    def _bfs(self, root, parent):
        """Breadth-first search from root over the vertices not yet in
        parent, entering each one's parent there: (vertex order, tree
        edges (i, j) in the order they are found)."""
        parent[root] = None
        order, tree = [root], []
        for v in order:  # order grows while it is walked
            for w in self._adj[v]:
                if w not in parent:
                    parent[w] = v
                    tree.append((v[1], w[1]) if v[0] == "row" else (w[1], v[1]))
                    order.append(w)
        return tuple(order), tuple(tree)

    @cached_property
    def components(self):
        """(rows, cols) of each connected component, in the order of their
        first vertex: rows, then columns."""
        seen, comps = {}, []
        for start in self._adj:
            if start not in seen:
                order, _ = self._bfs(start, seen)
                comps.append((frozenset(k for side, k in order if side == "row"),
                              frozenset(k for side, k in order if side == "col")))
        return comps

    def tree_path(self, u, v):
        """Vertex path from u to v inside the spanning tree."""
        def to_root(x):
            path = [x]
            while self.parent[x] is not None:
                x = self.parent[x]
                path.append(x)
            return path

        pu, pv = to_root(u), to_root(v)
        set_u = {x: k for k, x in enumerate(pu)}
        meet = next(x for x in pv if x in set_u)
        down = pv[: pv.index(meet)]
        return pu[: set_u[meet] + 1] + list(reversed(down))

    def fundamental_cycles(self):
        """One vertex cycle per non-tree edge; empty list on a tree support."""
        tree = set(self.tree_edges)
        cycles = []
        for i, j in self.edges:
            if (i, j) in tree:
                continue
            path = self.tree_path(("col", j), ("row", i))
            cycles.append(tuple(path))
        return cycles


@dataclass(frozen=True)
class InclusionData:
    a: int
    b: int
    D: tuple
    Delta: tuple
    graph: BipartiteGraph = field(compare=False)

    @property
    def support(self):
        return self.graph.edges

    @cached_property
    def perron(self):
        """Perron data of D, solved on first read."""
        return _solve_perron(self.D, self.graph)

    @cached_property
    def jones_perron(self):
        """Perron data of Delta: the same object as perron when Delta = D."""
        return self.perron if self.Delta == self.D else _solve_perron(self.Delta, self.graph)

    @cached_property
    def jones_ints(self):
        """(c, c Delta) as ints, c the least common denominator of Delta;
        None when Delta holds a float."""
        cleared = _clear_denominators([x for row in self.Delta for x in row])
        if cleared:
            c, flat = cleared
            return c, [flat[k:k + self.b] for k in range(0, len(flat), self.b)]

    @cached_property
    def dual(self):
        """B in B_1 of the basic construction: D^T and Delta^T on the
        support (j, i), and jones_ints (c, C^T) from (c, C) above."""
        Dt = tuple(zip(*self.D))
        Jt = Dt if self.Delta == self.D else tuple(zip(*self.Delta))
        graph = BipartiteGraph(self.b, self.a, [(j, i) for (i, j) in self.graph.edges])
        dual = InclusionData(a=self.b, b=self.a, D=Dt, Delta=Jt, graph=graph)
        ints = self.jones_ints
        vars(dual)["jones_ints"] = ints and (ints[0], list(zip(*ints[1])))
        return dual


@dataclass(frozen=True)
class PerronData:
    d: float
    alpha: tuple
    beta: tuple
    d_squared: float  # the Perron eigenvalue of M^T M, not d * d rounded


def _coerce_matrix(raw, name):
    if raw is None:
        raise ValueError(f"{name} is missing")
    rows = [list(r) for r in raw]
    if not rows or not rows[0]:
        raise ValueError(f"{name} is empty")
    width = len(rows[0])
    out = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{name} is ragged at row {i}")
        coerced = []
        for j, x in enumerate(row):
            if not isinstance(x, (int, float, Fraction)) or isinstance(x, bool):
                raise ValueError(f"{name}[{i}][{j}] is not a number: {x!r}")
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError(f"{name}[{i}][{j}] is not finite: {x!r}")
            if x < 0:
                raise NegativeEntry((name, i, j), x)
            coerced.append(x)
        out.append(tuple(coerced))
    return tuple(out)


def validate_inclusion(D, Delta=None):
    """Validate raw matrices into InclusionData.

    Checks shape, nonnegativity, the shared zero pattern of D and the Jones
    matrix, and connectivity of the bipartite support graph.
    """
    return _inclusion(_coerce_matrix(D, "D"),
                      None if Delta is None else _coerce_matrix(Delta, "Delta"))


def _inclusion(Dm, Jm=None):
    """validate_inclusion of coerced matrices, Jm None meaning Delta = D."""
    a, b = len(Dm), len(Dm[0])
    if Jm is None:
        Jm = Dm
    elif (len(Jm), len(Jm[0])) != (a, b):
        raise ValueError("D and Delta have different shapes")
    graph = BipartiteGraph.of(Dm)
    if Jm is not Dm:
        mismatch = set(graph.edges) ^ set(BipartiteGraph.of(Jm).edges)
        if mismatch:
            raise SupportMismatch(min(mismatch))
    if not graph.is_connected:
        raise DisconnectedSupport(graph.components)
    return InclusionData(a=a, b=b, D=Dm, Delta=Jm, graph=graph)


def _gram(M, edges):
    """G = M^T M by profile rows (f, [G_jf, ..., G_jl]), f..l the columns
    sharing a row of M with column j, summed row by row over the edges."""
    b, rows = len(M[0]), [[] for _ in M]
    for i, j in edges:
        rows[i].append((j, M[i][j]))
    G, span = [[0.0] * b for _ in range(b)], [[b, 0] for _ in range(b)]
    for row in rows:
        for j, x in row:
            g, s = G[j], span[j]
            s[0], s[1] = min(s[0], row[0][0]), max(s[1], row[-1][0] + 1)
            for k, y in row:
                g[k] += x * y
    return [(f, g[f:l]) for g, (f, l) in zip(G, span)]


def _gram_mul(G, v):
    return [sum(map(mul, r, v[f:])) for f, r in G]


def _shifted_solver(G, mu):
    """v -> (mu I - G)^-1 v by Cholesky on the profile of G; None unless mu I - G > 0."""
    L = []  # row j: (f, [L_jf, ..., L_j,j-1], L_jj)
    for j, (f, r) in enumerate(G):
        row = [-x for x in r[:j - f]]
        for k in range(f, j):
            fk, off, d = L[k]
            m = max(f, fk)
            row[k - f] = (row[k - f] - sum(map(mul, row[m - f:k - f], off[m - fk:]))) / d
        pivot = mu - r[j - f] - sum(map(mul, row, row))
        if not pivot > 0:
            return None
        L.append((f, row, math.sqrt(pivot)))

    def solve(v):
        y = []
        for j, (f, off, d) in enumerate(L):
            y.append((v[j] - sum(map(mul, off, y[f:j]))) / d)
        for j, (f, off, d) in reversed(list(enumerate(L))):
            y[j] = w = y[j] / d
            y[f:j] = map(sub, y[f:j], map(w.__mul__, off))
        return y
    return solve


def _perron_eigenpair(G):
    """Perron pair (lam, v) of G, v > 0 with unit 2-norm, lam the Rayleigh
    quotient.  For v > 0, lam is in the Collatz-Wielandt bracket [lo, hi]
    of the ratios (Gv)_j / v_j.  Power steps from the ones run while they
    narrow it 4x, then inverse steps at mu = hi, mu I - G being positive
    definite, keeping a factor while it narrows it 1000x a step, until it
    is 8 ulps wide (the rounding of the ratios) or a fresh factor's step
    stops narrowing it; any other step that does not narrow it refactors."""
    def unit(w):  # (v, Gv, lo, hi) for v = w / |w|, None unless v > 0
        norm = math.hypot(*w)
        v = list(map(truediv, w, repeat(norm))) if 0 < norm < math.inf else [0.0]
        if min(v) > 0:
            Gv = _gram_mul(G, v)
            ratios = list(map(truediv, Gv, v))
            return v, Gv, min(ratios), max(ratios)

    v, Gv, lo, hi = unit([1.0] * len(G))
    if not hi < math.inf:
        raise NonConvergence(None, residual=math.nan)
    power, fast = True, False
    for _ in range(100):
        if hi - lo <= 8 * math.ulp(hi):
            break
        if not (power or fast):
            solve = _shifted_solver(G, hi)
        step = unit(Gv) if power else solve and unit(solve(v))
        if not step or (width := step[3] - step[2]) >= hi - lo:
            if not (power or fast):  # a fresh factor's step: the rounding floor
                break
            power = fast = False  # a power step can tie the bracket's ends
            continue
        power, fast = power and hi - lo >= 4 * width, hi - lo >= 1000 * width
        v, Gv, lo, hi = step
    return math.fsum(map(mul, v, Gv)) / math.fsum(map(mul, v, v)), v


def _solve_perron(M, graph):
    """Frobenius-Perron data of a nonnegative matrix M with connected
    support graph: d and unit row vectors with alpha M = d beta.
    NonConvergence (max_iter None) if Gv overflows or max|Gv - lam v| >
    1e-10 max(lam, 1)."""
    M = [[float(x) for x in row] for row in M]
    G = _gram(M, graph.edges)
    lam, beta = _perron_eigenpair(G)
    residual = max(abs(g - lam * x) for g, x in zip(_gram_mul(G, beta), beta))
    if not residual <= 1e-10 * max(lam, 1.0):
        raise NonConvergence(None, residual=residual)
    if not lam > 0:  # M^T M underflowed, and 0 passes the residual check
        raise FloatingPointError("the Perron eigenvalue of M^T M underflows to 0")
    alpha = graph.row_sums([M[i][j] * beta[j] for i, j in graph.edges])
    norm = math.hypot(*alpha)
    return PerronData(d=math.sqrt(lam), alpha=tuple(x / norm for x in alpha),
                      beta=tuple(beta), d_squared=lam)


def perron_data(incl):
    """Frobenius-Perron data of D: incl.perron."""
    return incl.perron


def standard_distortion(perron):
    """sigma_ij = d beta_j / alpha_i, defined for every (i, j)."""
    return [[perron.d * bj / ai for bj in perron.beta] for ai in perron.alpha]


def dual_functor_hom(perron):
    """pi_ij = alpha_i^2 / beta_j^2."""
    return [[(ai * ai) / (bj * bj) for bj in perron.beta] for ai in perron.alpha]
