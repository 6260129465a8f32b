"""Partial distortion matrices, cycle condition, extension, groupoid homs.

A distortion assigns a positive scalar to every support edge. The cycle
condition (products around any support cycle agree in both alternating
directions) is equivalent to the existence of a factorization
delta_ij = xi_j / eta_i, to a unique extension to the complete bipartite
graph, and to an extension to a groupoid homomorphism on a+b objects. The
checks below run on fundamental cycles of the cached spanning tree, which
generate the cycle space.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import BipartiteGraph
from .errors import CycleViolation, DisconnectedSupport, MissingEntry, NonPositiveDistortion
from .numbers import DEFAULT_TOLERANCE, _clear_denominators, close, div, is_exact


class DistortionMatrix:
    """An a x b distortion: entries maps (i, j) on the parent support to its
    value; total is the complete matrix or None.  One that carries its
    potentials (eta, xi), or as an exact one the coprime ints (p, q) with
    delta_ij = q_j / p_i (_of_ints), builds total on first read, and its
    entries too when it is given its support edges in their place; ints
    give eta and xi, in the gauge eta_0 = 1, on first read as well."""

    ints = None

    def __init__(self, a, b, entries=None, total=None, eta=None, xi=None, edges=None):
        self.a, self.b, self.eta, self.xi, self.edges = a, b, eta, xi, edges
        if entries is not None:
            self.entries = entries
        if total is not None or eta is None:
            self.total = total

    @classmethod
    def _of_ints(cls, p, q, edges):
        """q_j / p_i on edges as the ints (p, q) over their gcd; __init__
        is skipped, so eta, xi, entries and total wait for __getattr__."""
        g, dm = math.gcd(*p, *q), cls.__new__(cls)
        dm.a, dm.b, dm.edges = len(p), len(q), edges
        dm.ints = ((tuple(p), tuple(q)) if g == 1 else
                   (tuple(x // g for x in p), tuple(x // g for x in q)))
        return dm

    def __getattr__(self, name):
        # Python calls this only while name is missing from the instance,
        # so get() reads plain attributes once they are built.
        if name in ("eta", "xi") and self.ints is not None:
            p0 = self.ints[0][0]
            self.eta, self.xi = (tuple(Fraction(x, p0) for x in v) for v in self.ints)
            return vars(self)[name]
        if name not in ("total", "entries") or (self.ints or self.eta) is None:
            raise AttributeError(name)
        # x / e is div(x, e) once e is a Fraction or a float: one type test
        # per row, not two per entry.
        eta, xi = self.ints or (self.eta, self.xi)
        eta = [Fraction(e) if is_exact(e) else e for e in eta]
        if name == "total":
            value = tuple(tuple(x / e for x in xi) for e in eta)
        else:
            value = {(i, j): xi[j] / eta[i] for (i, j) in self.edges}
        setattr(self, name, value)
        return value

    def get(self, i, j):
        if (i, j) in self.entries:
            return self.entries[(i, j)]
        if self.total is not None:
            return self.total[i][j]
        raise MissingEntry((i, j))

    def has(self, i, j):
        return (i, j) in self.entries or self.total is not None

    def rows(self):
        """Nested list view; None where undefined."""
        if self.total is not None:
            return [list(r) for r in self.total]
        return [[self.entries.get((i, j)) for j in range(self.b)]
                for i in range(self.a)]

    @property
    def support(self):
        return sorted(self.entries)


def _graph_of(obj):
    if isinstance(obj, BipartiteGraph):
        return obj
    raise TypeError(f"expected a BipartiteGraph, got {type(obj)!r}")


def as_distortion(data, shape_or_graph=None):
    """Coerce nested lists (None marking absent entries) or dicts.

    When a BipartiteGraph is supplied, every support edge must carry a
    positive value; extra defined entries are kept as part of a total matrix
    when no entry is missing anywhere.
    """
    if isinstance(data, DistortionMatrix):
        return data
    graph = _graph_of(shape_or_graph) if shape_or_graph is not None else None
    if isinstance(data, dict):
        if graph is None:
            raise TypeError("dict input needs a graph for its shape")
        entries = dict(data)
        a, b = graph.a, graph.b
        total = None
    else:
        rows = [list(r) for r in data]
        a, b = len(rows), len(rows[0])
        entries = {(i, j): rows[i][j]
                   for i in range(a) for j in range(b) if rows[i][j] is not None}
        total = tuple(tuple(r) for r in rows) if len(entries) == a * b else None
    for pos, v in entries.items():
        if not v > 0:
            raise NonPositiveDistortion(pos, v)
    if graph is not None:
        if (a, b) != (graph.a, graph.b):
            raise ValueError(f"shape {(a, b)} does not match graph {(graph.a, graph.b)}")
        for e in graph.edges:
            if e not in entries:
                raise MissingEntry(e)
        support_entries = {e: entries[e] for e in graph.edges}
        return DistortionMatrix(a=a, b=b, entries=support_entries, total=total)
    return DistortionMatrix(a=a, b=b, entries=entries, total=total)


@dataclass
class CycleCheck:
    holds: bool
    witness: Optional[tuple] = None
    left: Optional[object] = None
    right: Optional[object] = None

    def __bool__(self):
        return self.holds


def _cycle_products(delta, cycle):
    left = right = 1
    length = len(cycle)
    for t in range(length):
        u = cycle[t]
        w = cycle[(t + 1) % length]
        if u[0] == "row":
            left = left * delta.get(u[1], w[1])
        else:
            right = right * delta.get(w[1], u[1])
    return left, right


def check_cycle_condition(delta, graph, tol=None):
    """Products around every fundamental cycle must agree: exactly for
    exact values, else within tol scaled by the cycle length to absorb
    accumulated rounding.  A disconnected graph has no spanning tree and
    raises DisconnectedSupport."""
    graph = _graph_of(graph)
    if not graph.is_connected:
        raise DisconnectedSupport(graph.components)
    delta = as_distortion(delta, graph)
    base = DEFAULT_TOLERANCE if tol is None else tol
    for cycle in graph.fundamental_cycles():
        left, right = _cycle_products(delta, cycle)
        if not close(left, right, base * len(cycle)):
            return CycleCheck(holds=False, witness=cycle, left=left, right=right)
    return CycleCheck(holds=True)


def factorize(delta, graph, tol=None):
    """Weights (eta, xi) with delta_ij = xi_j / eta_i on every edge, eta_0 = 1.

    Built by tree-path products from the root; non-tree edges are then checked
    and a violating fundamental cycle is reported if they disagree.
    """
    graph = _graph_of(graph)
    delta = as_distortion(delta, graph)
    check = check_cycle_condition(delta, graph, tol)
    if not check:
        raise CycleViolation(check.witness, check.left, check.right)
    eta = [None] * graph.a
    xi = [None] * graph.b
    eta[0] = 1
    for v in graph.bfs_order[1:]:
        p = graph.parent[v]
        if v[0] == "col":
            i, j = p[1], v[1]
            xi[j] = delta.get(i, j) * eta[i]
        else:
            i, j = v[1], p[1]
            eta[i] = div(xi[j], delta.get(i, j))
    return tuple(eta), tuple(xi)


def extend_to_complete(delta, graph, tol=None):
    """Unique total extension xi_j / eta_i agreeing with delta on support:
    delta's entries with the potentials of factorize, which give the total
    when it is read."""
    graph = _graph_of(graph)
    delta = as_distortion(delta, graph)
    eta, xi = factorize(delta, graph, tol)
    entries = {e: delta.get(*e) for e in graph.edges}
    return DistortionMatrix(a=graph.a, b=graph.b, entries=entries, eta=eta, xi=xi)


def _complete(delta, graph, tol=None):
    """delta with its potentials (eta, xi): as given when it carries them,
    else through one cycle check and factorization."""
    dm = as_distortion(delta, graph)
    if dm.ints is None and (dm.eta is None or dm.xi is None):
        dm = extend_to_complete(dm, graph, tol)
    return dm


def _int_potentials(dm):
    """dm's potentials as ints (p, q) up to a factor; None when it carries
    none, or a float."""
    if dm.ints is not None or dm.eta is None:
        return dm.ints
    cleared = _clear_denominators(list(dm.eta) + list(dm.xi))
    return cleared and (cleared[1][:dm.a], cleared[1][dm.a:])


def from_potentials(eta, xi, edges):
    """The complete distortion xi_j / eta_i on ``edges``: its potentials
    under the gauge eta_0 = 1, from which it builds its entries and total
    when they are read.  Needs no cycle check: a distortion built from
    potentials satisfies the cycle condition."""
    # Dividing by a Fraction or a float keeps exact values exact, and after
    # the gauge every potential is one or the other.
    g = Fraction(eta[0]) if is_exact(eta[0]) else eta[0]
    return DistortionMatrix(a=len(eta), b=len(xi), eta=tuple(x / g for x in eta),
                            xi=tuple(x / g for x in xi), edges=edges)


@dataclass
class GroupoidHom:
    n: int
    values: tuple
    potential: Optional[tuple] = None


def extend_to_groupoid(delta, tol=None):
    """Extend a total distortion to a groupoid hom on a+b objects.

    Objects 0..a-1 are the row summands, a..a+b-1 the column summands. With
    the potentials lambda = (eta, xi) of delta (eta_0 = 1), the hom is
    values[x][y] = lambda_y / lambda_x: delta and 1/delta on the cross
    blocks, the forced ratios on the diagonal blocks. A total matrix that
    carries no potentials is factorized on the complete bipartite graph,
    whose fundamental cycles are the 2x2 minors through (0, 0); an
    inconsistent one raises CycleViolation.
    """
    dm = as_distortion(delta)
    if dm.eta is None:
        if dm.total is None:
            raise MissingEntry("total matrix required")
        complete = BipartiteGraph(dm.a, dm.b, [(i, j) for i in range(dm.a) for j in range(dm.b)])
        dm = extend_to_complete(dm, complete, tol)
    potential = tuple(dm.eta) + tuple(dm.xi)
    values = tuple(tuple(div(y, x) for y in potential) for x in potential)
    return GroupoidHom(n=len(potential), values=values, potential=potential)


@dataclass
class ExtremalityReport:
    jones_equals_statistical: bool
    cycle_condition_holds: bool
    witness: Optional[tuple] = None

    @property
    def extremal(self):
        return self.jones_equals_statistical and self.cycle_condition_holds


def check_extremality(incl, delta, tol=None):
    """D == Jones matrix entrywise, and the cycle condition on delta."""
    d_eq = all(close(incl.D[i][j], incl.Delta[i][j], tol)
               for i in range(incl.a) for j in range(incl.b))
    check = check_cycle_condition(delta, incl.graph, tol)
    return ExtremalityReport(jones_equals_statistical=d_eq,
                             cycle_condition_holds=check.holds,
                             witness=check.witness)
