"""Dict-of-loops algebra: the independent reference for mfd.loopbasis.

An element of N0 or N1 is a sparse dict from loops to coefficients, and
products, adjoints, the trace, the inclusion N0 -> N1 and the
conditional expectation onto N0 are written loop by loop from their
definitions.  The Pimsner-Popa basis is built element by element as
such dicts; _basis_blocks converts any list of N1 elements to the
package's BlockBasis, so the block engine can be run on it and compared
with loop products.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from mfd.errors import MFDError, NotCentral
from mfd.loopbasis import BlockBasis, LoopAlgebraPair
from mfd.numbers import close, to_float


class WrongAlgebraTag(MFDError):
    """An N0 element where an N1 element was needed, or the reverse."""

    def __init__(self, expected, got):
        self.expected = expected
        self.got = got
        super().__init__(f"expected element of {expected}, got {got}")


def _conj(x):
    return x.conjugate() if hasattr(x, "conjugate") else x


@dataclass
class LoopElement:
    """Sparse linear combination of loops in N0 or N1."""

    pair: LoopAlgebraPair
    algebra: str  # "N0" | "N1"
    coeffs: dict = field(default_factory=dict)

    def _require(self, other):
        if self.algebra != other.algebra:
            raise WrongAlgebraTag(self.algebra, other.algebra)

    def __add__(self, other):
        self._require(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = out.get(k, 0) + v
            if w == 0:
                out.pop(k, None)
            else:
                out[k] = w
        return LoopElement(pair=self.pair, algebra=self.algebra, coeffs=out)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        if isinstance(scalar, LoopElement):
            raise TypeError("use * with the left factor first")
        if scalar == 0:
            return zero(self.pair, self.algebra)
        return LoopElement(pair=self.pair, algebra=self.algebra,
                           coeffs={k: scalar * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, LoopElement):
            return other * self
        self._require(other)
        out = {}
        if self.algebra == "N0":
            for (a1, a2), u in self.coeffs.items():
                for (b1, b2), v in other.coeffs.items():
                    if a2 == b1:
                        key = (a1, b2)
                        w = out.get(key, 0) + u * v
                        if w == 0:
                            out.pop(key, None)
                        else:
                            out[key] = w
        else:
            for (h1, e1, e2, h2), u in self.coeffs.items():
                for (g1, f1, f2, g2), v in other.coeffs.items():
                    if h2 == g1 and e2 == f1:
                        key = (h1, e1, f2, g2)
                        w = out.get(key, 0) + u * v
                        if w == 0:
                            out.pop(key, None)
                        else:
                            out[key] = w
        return LoopElement(pair=self.pair, algebra=self.algebra, coeffs=out)

    def adjoint(self):
        out = {}
        if self.algebra == "N0":
            for (a1, a2), v in self.coeffs.items():
                out[(a2, a1)] = _conj(v)
        else:
            for (h1, e1, e2, h2), v in self.coeffs.items():
                out[(h2, e2, e1, h1)] = _conj(v)
        return LoopElement(pair=self.pair, algebra=self.algebra, coeffs=out)

    def trace(self):
        s = 0
        if self.algebra == "N0":
            for (a1, a2), v in self.coeffs.items():
                if a1 == a2:
                    s = s + v * self.pair.lambda0[a1[1]]
        else:
            for (h1, e1, e2, h2), v in self.coeffs.items():
                if h1 == h2 and e1 == e2:
                    s = s + v * self.pair.lambda1[e1[2]]
        return s

    def sup_coeff(self):
        return max((abs(to_float(v)) for v in self.coeffs.values()), default=0.0)


def zero(pair, algebra):
    return LoopElement(pair=pair, algebra=algebra, coeffs={})


def loop(pair, algebra, key, coeff=1):
    return LoopElement(pair=pair, algebra=algebra, coeffs={key: coeff})


def identity(pair, algebra):
    if algebra == "N0":
        coeffs = {(e, e): 1 for e in pair.eta_edges}
    else:
        coeffs = {(e, f, f, e): 1 for e in pair.eta_edges
                  for f in pair.eps_edges if f[1] == e[1]}
    return LoopElement(pair=pair, algebra=algebra, coeffs=coeffs)


def central_projection(pair, i):
    coeffs = {(e, e): 1 for e in pair.eta_edges if e[1] == i}
    return LoopElement(pair=pair, algebra="N0", coeffs=coeffs)


def include_in_N1(x: LoopElement, pair: LoopAlgebraPair = None):
    """Unital inclusion N0 -> N1: split each loop along all top edges."""
    pair = pair or x.pair
    if x.algebra != "N0":
        raise WrongAlgebraTag("N0", x.algebra)
    out = zero(pair, "N1")
    coeffs = out.coeffs
    for (a1, a2), v in x.coeffs.items():
        for f in pair.eps_edges:
            if f[1] == a1[1]:
                key = (a1, f, f, a2)
                coeffs[key] = coeffs.get(key, 0) + v
    return out


def cond_expectation_N0(x: LoopElement, pair: LoopAlgebraPair = None):
    """Trace-preserving conditional expectation N1 -> N0.

    Sends [eta1 eps1 eps2* eta2*] to 0 unless eps1 = eps2, and then to
    (lambda1(t(eps)) / lambda0(s(eps))) [eta1 eta2*].
    """
    pair = pair or x.pair
    if x.algebra != "N1":
        raise WrongAlgebraTag("N1", x.algebra)
    out = zero(pair, "N0")
    coeffs = out.coeffs
    for (h1, e1, e2, h2), v in x.coeffs.items():
        if e1 == e2:
            w = v * pair.lambda1[e1[2]] / pair.lambda0[e1[1]]
            key = (h1, h2)
            coeffs[key] = coeffs.get(key, 0) + w
    return out


def pimsner_popa_basis(pair: LoopAlgebraPair):
    """The Pimsner-Popa basis of N1 over N0 as a list of LoopElements.

    B1 has one element per ordered pair of parallel top edges, summed
    over all bottom edges into their common source; B2 has one element
    per loop whose two halves pass through different bottom vertices.
    Coefficients are sqrt(lambda0(s) / lambda1(t)) for B1 and
    sqrt(lambda0(s(eps2)) / (m0(s(eps2)) lambda1(t))) for B2.
    """
    basis = []
    for e1 in pair.eps_edges:
        for e2 in pair.eps_edges:
            if e1[1] == e2[1] and e1[2] == e2[2]:
                i, j = e1[1], e1[2]
                c = math.sqrt(pair.lambda0[i] / pair.lambda1[j])
                coeffs = {(h, e1, e2, h): c for h in pair.eta_edges if h[1] == i}
                basis.append(LoopElement(pair=pair, algebra="N1", coeffs=coeffs))
    for e1 in pair.eps_edges:
        for e2 in pair.eps_edges:
            if e1[2] == e2[2] and e1[1] != e2[1]:
                i2, j = e2[1], e2[2]
                c = math.sqrt(pair.lambda0[i2] / (pair.m0[i2] * pair.lambda1[j]))
                for h1 in pair.eta_edges:
                    if h1[1] != e1[1]:
                        continue
                    for h2 in pair.eta_edges:
                        if h2[1] != i2:
                            continue
                        basis.append(LoopElement(pair=pair, algebra="N1",
                                                 coeffs={(h1, e1, e2, h2): c}))
    return basis


def _basis_blocks(pair: LoopAlgebraPair, basis):
    """A list of elements of N1 as a BlockBasis, one stack per top vertex.

    Rows and columns of block j are the paths (h, e) with t(e) = j,
    ordered by s(e), then by e, then by h.
    """
    paths = sorted(((e, h) for e in pair.eps_edges for h in pair.eta_edges
                    if h[1] == e[1]), key=lambda p: (p[0][1], p[0][3], p[1][2]))
    row, count = {}, [0] * pair.k1
    for e, h in paths:
        row[(h, e)] = count[e[2]]
        count[e[2]] += 1

    entries = [[] for _ in range(pair.k1)]  # (position, row, column, value)
    for n, b in enumerate(basis):
        if b.algebra != "N1":
            raise WrongAlgebraTag("N1", b.algebra)
        for (h1, e1, e2, h2), v in b.coeffs.items():
            entries[e1[2]].append((n, row[(h1, e1)], row[(h2, e2)], v))
    dtype = complex if any(isinstance(v, complex) for b in basis
                           for v in b.coeffs.values()) else float
    blocks = []
    for j, ent in enumerate(entries):
        pos, r, c, v = zip(*ent) if ent else ((), (), (), ())
        members, slot = np.unique(np.array(pos, dtype=int), return_inverse=True)
        stack = np.zeros((len(members), pair.m1[j], pair.m1[j]), dtype)
        stack[slot, np.array(r, dtype=int), np.array(c, dtype=int)] = np.array(v, dtype)
        blocks.append((members, stack))
    return BlockBasis(pair=pair, blocks=tuple(blocks), size=len(basis))


def _central_vector(pair: LoopAlgebraPair, x: LoopElement, tol=None):
    """The coefficients of a central element of N0 on the minimal central
    projections; NotCentral unless x is central within tol."""
    if x.algebra != "N0":
        raise WrongAlgebraTag("N0", x.algebra)
    for (a1, a2), v in x.coeffs.items():
        if a1 != a2 and not close(v, 0, tol):
            raise NotCentral(f"off-diagonal loop ({a1}, {a2}) has coefficient {v}")
    out = []
    for i in range(pair.k0):
        vals = [x.coeffs.get((e, e), 0) for e in pair.eta_edges if e[1] == i]
        for v in vals[1:]:
            if not close(v, vals[0], tol):
                raise NotCentral(f"unequal coefficients on block {i}")
        out.append(vals[0])
    return tuple(out)


def _sandwich_expectation(pair: LoopAlgebraPair, basis: BlockBasis, vec):
    """sum_b E(b* i(x) b) for the central x = sum_i vec_i p_i, one vector at
    a time on the blocks: block j of sum_b b* i(x) b is
    sum_b B^H diag(w) B with w the value of x at the source of each row's
    eps edge, and E keeps the entries whose two paths share the eps edge.
    Raises NotCentral unless the result is central within 1e-8."""
    off = [[sum(pair.Lambda[h][j] * pair.m0[h] for h in range(i))
            for j in range(pair.k1)] for i in range(pair.k0)]
    total = [np.zeros((m, m)) for m in pair.m0]
    for j, (_, B) in enumerate(basis.blocks):
        w = np.repeat([float(vec[i]) for i in range(pair.k0)],
                      [pair.Lambda[i][j] * pair.m0[i] for i in range(pair.k0)])
        C = np.tensordot(B.conj() * w[:, None], B, axes=([0, 1], [0, 1]))
        for i in range(pair.k0):
            n_e, m, s = pair.Lambda[i][j], pair.m0[i], off[i][j]
            if n_e:
                sub = C[s:s + n_e * m, s:s + n_e * m].reshape(n_e, m, n_e, m)
                total[i] += pair.lambda1[j] / pair.lambda0[i] * np.einsum("ahak->hk", sub)
    coeffs = {}
    for i, t in enumerate(total):
        edges = [e for e in pair.eta_edges if e[1] == i]
        rows = t.tolist()
        coeffs.update(((g, h), rows[a][c]) for a, g in enumerate(edges)
                      for c, h in enumerate(edges))
    return _central_vector(pair, LoopElement(pair=pair, algebra="N0", coeffs=coeffs),
                           tol=1e-8)
