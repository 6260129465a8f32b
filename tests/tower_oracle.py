"""Eager references for the tower and Morita maps.

The eager tower loop is the reference for mfd.tower.iterate_to_fixed_point
and for chains of phi_step: every half-step takes its product with the
Jones matrix in its own dense loop, builds its complete matrix with
from_potentials, and every even level is scored by a residual that reads
the matrix's total.  The package's loop keeps only the potentials and
scores them directly; the two must agree bit for bit: same levels, same
residuals, same stopping step.

morita_distortion and basic_construction_distortion are the entry forms
of those maps: they rebuild each entry from the entries of delta.  The
package, which takes int potentials where delta carries exact ones, must
give the same rationals there, and the same floats and entries elsewhere.
"""
from dataclasses import dataclass

from mfd.core import BipartiteGraph, InclusionData
from mfd.distortion import DistortionMatrix, _complete, as_distortion, from_potentials
from mfd.errors import NonConvergence
from mfd.morita import _weights
from mfd.numbers import div, to_float
from mfd.tower import TowerTrace, tower_limit


@dataclass
class EagerLevel:
    level: int
    matrix: DistortionMatrix
    orientation: str  # "even" (a x b) or "odd" (b x a)


def total_residual(dm, sigma):
    """max |dm_ij - sigma_ij| / sigma_ij, read from dm.total."""
    worst = 0.0
    for i in range(len(sigma)):
        for j in range(len(sigma[0])):
            s = sigma[i][j]
            val = dm.total[i][j] if dm.total is not None else dm.get(i, j)
            dev = abs(to_float(val) - s) / s
            if dev > worst:
                worst = dev
    return worst


def _sum(terms):
    """Left-to-right sum from 0, as BipartiteGraph.row_sums adds (sum()
    compensates float rounding from Python 3.12 on)."""
    total = 0
    for t in terms:
        total = total + t
    return total


def _up(xi, Delta):
    """xi Delta^T as a dense loop that skips zeros, so each sum takes its
    terms in support order."""
    return [_sum(xi[j] * Delta[i][j] for j in range(len(xi)) if Delta[i][j])
            for i in range(len(Delta))]


def _down(xi, Delta):
    """xi Delta, the same way."""
    return [_sum(xi[i] * Delta[i][j] for i in range(len(xi)) if Delta[i][j])
            for j in range(len(Delta[0]))]


def eager_levels(delta0, incl, sigma):
    """Endless stream of (level, residual) pairs, residual None on odd
    levels: level 0 is delta0 completed, and each later level is
    from_potentials of the previous level's potentials."""
    edges = incl.graph.edges
    edges_t = tuple(sorted((j, i) for (i, j) in edges))
    dm = _complete(delta0, incl.graph)
    yield EagerLevel(0, dm, "even"), total_residual(dm, sigma)
    n = 0
    while True:
        n += 1
        odd = from_potentials(dm.xi, _up(dm.xi, incl.Delta), edges_t)
        yield EagerLevel(2 * n - 1, odd, "odd"), None
        dm = from_potentials(odd.xi, _down(odd.xi, incl.Delta), edges)
        yield EagerLevel(2 * n, dm, "even"), total_residual(dm, sigma)


def eager_iterate(delta0, incl, tol=1e-9, max_iter=10 ** 4):
    """iterate_to_fixed_point with every level built as it is reached."""
    sigma = tower_limit(incl)
    stream = eager_levels(delta0, incl, sigma)
    level, residual = next(stream)
    levels = [level]
    if residual <= tol:
        return TowerTrace(levels=levels, iterations=0, residual=residual, converged=True,
                          limit=sigma)
    for n in range(1, max_iter + 1):
        levels.append(next(stream)[0])
        level, residual = next(stream)
        levels.append(level)
        if residual <= tol:
            return TowerTrace(levels=levels, iterations=n, residual=residual,
                              converged=True, limit=sigma)
    raise NonConvergence(max_iter, residual=residual)


def basic_construction_distortion(delta, jones):
    """Distortion of the next inclusion in the tower.

    delta is an a x b distortion for an inclusion with Jones matrix
    ``jones`` (a matrix, or an InclusionData whose Delta is used).  The
    result is the b x a distortion of B in the basic construction,
    defined on the transposed support:

        delta'_{ji} = (sum_k delta_ik Delta_ik) / delta_ij.
    """
    if isinstance(jones, InclusionData):
        Delta, graph = jones.Delta, jones.graph
    else:
        Delta, graph = jones, BipartiteGraph.of(jones)
    dm = as_distortion(delta, graph)
    row_sum = graph.row_sums(dm.get(i, j) * Delta[i][j] for (i, j) in graph.edges)
    entries = {(j, i): div(row_sum[i], dm.get(i, j)) for (i, j) in graph.edges}
    return DistortionMatrix(a=graph.b, b=graph.a, entries=entries)


def morita_distortion(delta, jones, rho):
    """Rescale a distortion by the weight vector rho.

    jones is the Jones matrix (or an InclusionData whose Delta is
    used).  The output is defined exactly where delta is and stays
    rational for rational inputs.
    """
    if isinstance(jones, InclusionData):
        Delta, graph = jones.Delta, jones.graph
    else:
        Delta, graph = jones, BipartiteGraph.of(jones)
    dm = as_distortion(delta, graph)
    a, b = graph.a, graph.b
    w = _weights(rho, a)
    col_sum = graph.col_sums(w[h] * div(Delta[h][j], dm.get(h, j)) for (h, j) in graph.edges)
    entries = {(i, j): dm.get(i, j) * div(col_sum[j], w[i]) for (i, j) in dm.entries}
    total = None
    if dm.total is not None:
        total = tuple(tuple(dm.total[i][j] * div(col_sum[j], w[i]) for j in range(b))
                      for i in range(a))
    return DistortionMatrix(a=a, b=b, entries=entries, total=total)
