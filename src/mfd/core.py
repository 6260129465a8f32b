"""Data model and spectral engine.

An inclusion is encoded by its statistical dimension matrix D and optional
Jones dimension matrix (defaulting to D) over a connected bipartite support
graph: rows are the central summands of the small algebra, columns those of
the big one. Frobenius-Perron data follows the row-vector convention
alpha D = d beta, beta D^T = d alpha with unit 2-norm vectors; they belong
to the inclusion, which solves D's (perron) and Delta's (jones_perron) on
first read and keeps them.

BipartiteGraph.of is the one place that turns a matrix's nonzero entries
into (sorted) edges.  One breadth-first search walks them: from ("row", 0)
it gives connectivity and the spanning tree, and from each unreached vertex
the components.  Every support sum (basic construction, Phi, Morita
rescaling, realizability, the H2/H5 row sums, the basic-construction trace)
is row_sums or col_sums of one value per edge in that order: the same terms,
order and starting 0 as a dense loop that skips zeros, so exact values stay
exact and floats agree bit for bit.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

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
    reconstruction, and the connected components on first read."""

    def __init__(self, a, b, edges):
        self.a = a
        self.b = b
        self.edges = tuple(sorted(edges))
        adj = {("row", i): [] for i in range(a)}
        adj.update({("col", j): [] for j in range(b)})
        for i, j in self.edges:
            adj[("row", i)].append(("col", j))
            adj[("col", j)].append(("row", i))
        self._adj = adj
        self.parent = {}
        self.bfs_order, self.tree_edges = self._bfs(("row", 0), self.parent)
        self.is_connected = len(self.bfs_order) == a + b

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
        return _solve_perron(self.D)

    @cached_property
    def jones_perron(self):
        """Perron data of Delta: the same object as perron when Delta = D."""
        return self.perron if self.Delta == self.D else _solve_perron(self.Delta)

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


def _perron_eigenpair(M):
    """Top eigenpair of G = M^T M for a nonnegative a x b float matrix M with
    connected support: one eigh, one inverse-iteration step at the
    eigenvalue, v entrywise positive with unit 2-norm.  NonConvergence
    (max_iter None) if eigh fails or max|Gv - lam v| > 1e-10 max(lam, 1);
    that check stands for numpy's overflow warnings, which are silenced."""
    import numpy as np
    with np.errstate(all="ignore"):
        G = M.T @ M
        try:
            vals, vecs = np.linalg.eigh(G)
        except np.linalg.LinAlgError:
            raise NonConvergence(None) from None
        lam = float(vals[-1])
        v = np.abs(vecs[:, -1])
        v /= float(np.linalg.norm(v))
        try:
            w = np.abs(np.linalg.solve(G - (lam + 1e-14) * np.eye(len(v)), v))
            if np.all(w > 0) and np.all(np.isfinite(w)):
                v = w / float(np.linalg.norm(w))
                lam = float(v @ G @ v)
        except np.linalg.LinAlgError:
            pass
        residual = float(np.max(np.abs(G @ v - lam * v)))
    if not residual <= 1e-10 * max(lam, 1.0):
        raise NonConvergence(None, residual=residual)
    return lam, v


def _solve_perron(M):
    """Frobenius-Perron data of a nonnegative matrix M with connected
    support: d and unit row vectors with alpha M = d beta."""
    import numpy as np
    Mf = np.array([[float(x) for x in row] for row in M])
    lam, beta = _perron_eigenpair(Mf)
    if not lam > 0:  # M^T M underflowed, and 0 passes the residual check
        raise FloatingPointError("the Perron eigenvalue of M^T M underflows to 0")
    d = float(np.sqrt(lam))
    alpha = Mf @ beta / d
    alpha = np.abs(alpha) / float(np.linalg.norm(alpha))
    return PerronData(d=d, alpha=tuple(float(x) for x in alpha),
                      beta=tuple(float(x) for x in beta), d_squared=lam)


def perron_data(incl):
    """Frobenius-Perron data of D: incl.perron."""
    return incl.perron


def standard_distortion(perron):
    """sigma_ij = d beta_j / alpha_i, defined for every (i, j)."""
    return [[perron.d * bj / ai for bj in perron.beta] for ai in perron.alpha]


def dual_functor_hom(perron):
    """pi_ij = alpha_i^2 / beta_j^2."""
    return [[(ai * ai) / (bj * bj) for bj in perron.beta] for ai in perron.alpha]
