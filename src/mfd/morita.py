"""Rescaling of distortions by Morita weights.

Cutting the bimodule by projections whose left dimensions are rho_i
changes the distortion by

    delta'_ij = delta_ij * rho_i^{-1} * sum_h rho_h Delta_hj / delta_hj.

Two weight vectors differing by a global constant give the same
rescaled distortion, and consecutive rescalings compose by entrywise
product.  Every image is realizable: sum_i Delta_ij / delta'_ij =
sum_i rho_i Delta_ij / (delta_ij s_j) = 1 for s_j = sum_h rho_h
Delta_hj / delta_hj, the unit column sums of markov.column_sum_violation.
rho_i = alpha_i / eta_i, alpha from the Perron data of Delta, lands on
the tower limit d beta_j / alpha_i.  On potentials the rescaling is
(rho * eta, (rho * eta) Delta); a delta without them, which need not
factorize, or a float keeps the entry form above.
"""

from dataclasses import dataclass

from .distortion import DistortionMatrix, _complete, _int_potentials, as_distortion
from .errors import ColumnNormalizationViolation, NegativeEntry
from .markov import column_sum_violation
from .numbers import _clear_denominators, div, to_float
from .tower import _up


@dataclass(frozen=True)
class MoritaWeights:
    rho: tuple

    def __post_init__(self):
        for i, r in enumerate(self.rho):
            if not r > 0:
                raise NegativeEntry(("rho", i), r)

    def __len__(self):
        return len(self.rho)

    def __getitem__(self, i):
        return self.rho[i]

    def compose(self, other):
        if len(other) != len(self):
            raise ValueError("weight vectors of different lengths")
        return MoritaWeights(tuple(x * y for x, y in zip(self.rho, other.rho)))


def _weights(rho, a):
    w = rho.rho if isinstance(rho, MoritaWeights) else tuple(rho)
    if len(w) != a:
        raise ValueError(f"expected {a} weights, got {len(w)}")
    return MoritaWeights(w).rho


def morita_distortion(delta, incl, rho):
    """Rescale a distortion by the weight vector rho.

    incl is the InclusionData whose Jones matrix Delta is used.  The
    output is defined exactly where delta is and stays rational for
    rational inputs.  When delta carries exact potentials, rho is exact and
    Delta is exact, it is the ints (rho * eta, (rho * eta) Delta), the
    product read by tower._up on incl.dual; otherwise the formula of the
    module docstring runs entry by entry.
    """
    Delta, graph = incl.Delta, incl.graph
    dm = as_distortion(delta, graph)
    a, b = graph.a, graph.b
    w = _weights(rho, a)
    ints = _int_potentials(dm)
    scaled = ints and _clear_denominators([r * x for r, x in zip(w, ints[0])])
    if scaled and incl.jones_ints:
        # With C = c Delta, p C = c p Delta: (c p, p C) is c (eta', xi').
        (c, Ct), p = incl.dual.jones_ints, scaled[1]
        out = DistortionMatrix._of_ints([c * x for x in p], _up(p, incl.dual.graph, Ct),
                                        dm.edges or tuple(dm.entries))
        if vars(dm).get("total", 0) is None:  # partial; vars() builds no lazy total
            out.total = None
        return out
    col_sum = graph.col_sums(w[h] * div(Delta[h][j], dm.get(h, j)) for (h, j) in graph.edges)
    entries = {(i, j): dm.get(i, j) * div(col_sum[j], w[i]) for (i, j) in dm.entries}
    total = None
    if dm.total is not None:
        total = tuple(tuple(dm.total[i][j] * div(col_sum[j], w[i]) for j in range(b))
                      for i in range(a))
    return DistortionMatrix(a=a, b=b, entries=entries, total=total)


@dataclass
class RealizabilityResult:
    realizable: bool
    eta: tuple = ()
    xi: tuple = ()
    violation: dict = None
    failure: ColumnNormalizationViolation = None

    def __bool__(self):
        return self.realizable


def realizability_check(delta, incl, tol=None):
    """Is delta the distortion of some Markov trace on incl?

    The test is markov.column_sum_violation, which reads xi = eta Delta on
    the potentials delta carries, else those one factorization finds (a
    CycleViolation propagates).  On failure, violation names the first
    failing column j with xi_j and eta_dot_D = (eta Delta)_j, and failure
    holds the column-sum error.
    """
    dm = _complete(delta, incl.graph, tol)
    eta, xi = dm.eta, dm.xi
    failure = column_sum_violation(incl, dm, tol)
    if failure is None:
        return RealizabilityResult(realizable=True, eta=eta, xi=xi)
    j = failure.column
    eta_Delta_j = sum(eta[h] * incl.Delta[h][j] for h in range(incl.a) if incl.Delta[h][j])
    return RealizabilityResult(realizable=False, eta=eta, xi=xi, failure=failure,
                               violation={"column": j, "xi": xi[j], "eta_dot_D": eta_Delta_j})


def rescale_to_standard(delta, incl, tol=None):
    """Weights rho with morita_distortion(delta, incl, rho) = tower_limit(incl).

    Works for any factorizable delta on the support of incl.  With
    delta_ij = xi_j / eta_i on its potentials and that limit
    sigma_ij = d beta_j / alpha_i for incl.jones_perron, the Perron data
    of Delta, delta/sigma factorizes as
    (xi_j / (d beta_j)) / (eta_i / alpha_i), so rho_i = alpha_i / eta_i
    does the job; in the gauge rho_0 = 1 it is
    rho_i = (alpha_i / alpha_0) (eta_0 / eta_i).  The potentials are
    those delta carries, else those one factorization finds; raises
    CycleViolation when delta does not factorize.
    """
    eta = _complete(delta, incl.graph, tol).eta
    alpha = incl.jones_perron.alpha
    return MoritaWeights(tuple(to_float(div(alpha[i] * eta[0], alpha[0] * eta[i]))
                               for i in range(incl.a)))
