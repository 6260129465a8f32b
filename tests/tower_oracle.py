"""The eager tower loop: the reference for mfd.tower.iterate_to_fixed_point.

Every half-step builds its complete matrix with from_potentials, and every
even level is scored by a residual that reads the matrix's total.  The
package's loop keeps only the potentials and scores them directly; the
two must agree bit for bit: same levels, same residuals, same stopping
step.
"""
from dataclasses import dataclass

from mfd.distortion import DistortionMatrix, _complete, from_potentials
from mfd.errors import NonConvergence
from mfd.numbers import to_float
from mfd.tower import TowerTrace, _down, _up, tower_limit


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
        odd = from_potentials(dm.xi, _up(dm.xi, incl), edges_t)
        yield EagerLevel(2 * n - 1, odd, "odd"), None
        dm = from_potentials(odd.xi, _down(odd.xi, incl), edges)
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
