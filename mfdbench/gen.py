"""Seeded input generators for the mfd benchmark.

Every generator takes a ``random.Random`` and returns plain Python data, so
the same seed gives the same inputs.  Each one self-checks what it emits:
inclusions must pass ``validate_inclusion`` and exact distortions must
satisfy the cycle condition exactly.
"""

import json
import os
from fractions import Fraction

from mfd import check_cycle_condition, validate_inclusion


class GeneratorError(AssertionError):
    """A generator produced an input that fails its own self-check."""


def _checked_inclusion(D):
    try:
        return validate_inclusion(D)
    except Exception as exc:  # noqa: BLE001 - any rejection is a generator bug
        raise GeneratorError(f"generated inclusion does not validate: {exc}") from exc


def path_inclusion(n):
    """The path A_{2n}: n row and n column vertices, alternating, all 1s.

    Its spectral gap shrinks like 1/n^2, so power iteration slows with n.
    """
    D = [[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)]
    _checked_inclusion(D)
    return D


def connected_support(a, b, density, rng, max_entry=3):
    """Random a x b dimension matrix with a connected support.

    A random spanning tree of the complete bipartite graph guarantees
    connectivity; then a ``density`` share of the remaining positions,
    chosen at random, become edges too.  Fixing that count rather than
    drawing each edge keeps the work per case steady across seeds.
    Entries are integers in 1..max_entry.
    """
    rows, cols = list(range(a)), list(range(b))
    rng.shuffle(rows)
    rng.shuffle(cols)
    edges = set()
    placed = [("row", rows[0])]
    pending = [("row", r) for r in rows[1:]] + [("col", c) for c in cols]
    rng.shuffle(pending)
    # Attach each pending vertex to an already placed vertex of the other
    # side; retry order until every vertex found a partner.
    while pending:
        progress = False
        for v in list(pending):
            partners = [p for p in placed if p[0] != v[0]]
            if not partners:
                continue
            p = rng.choice(partners)
            i, j = (v[1], p[1]) if v[0] == "row" else (p[1], v[1])
            edges.add((i, j))
            placed.append(v)
            pending.remove(v)
            progress = True
        if not progress:
            raise GeneratorError("spanning tree construction stalled")
    free = [(i, j) for i in range(a) for j in range(b) if (i, j) not in edges]
    edges.update(rng.sample(free, round(density * len(free))))
    D = [[rng.randint(1, max_entry) if (i, j) in edges else 0 for j in range(b)]
         for i in range(a)]
    _checked_inclusion(D)
    return D


def rational(rng, lo=1, hi=9):
    return Fraction(rng.randint(lo, hi), rng.randint(lo, hi))


def rational_potentials(D, rng, kind):
    """Exact potentials (eta, xi) with eta_0 = 1, by ``kind``:

    - ``"realizable"``: xi = eta D, so the distortion xi_j / eta_i has unit
      column sums of D / delta;
    - ``"feasible"``: eta_i = sum_j D_ij xi_j pi_j for a drawn pi in
      (0,1]^b, so M pi = 1 with M_ij = D_ij xi_j / eta_i: the downward
      basic construction exists in both modes;
    - ``"free"``: xi drawn independently.
    """
    a, b = len(D), len(D[0])
    if kind == "feasible":
        xi = [rational(rng) for _ in range(b)]
        pi = []
        for _ in range(b):
            q = rng.randint(1, 9)
            pi.append(Fraction(rng.randint(1, q), q))
        eta = [sum(D[i][j] * xi[j] * pi[j] for j in range(b)) for i in range(a)]
        # Scaling eta and xi together keeps xi_j / eta_i, hence M and pi.
        eta, xi = [e / eta[0] for e in eta], [x / eta[0] for x in xi]
        M = [[D[i][j] * xi[j] / eta[i] for j in range(b)] for i in range(a)]
        if any(sum(M[i][j] * pi[j] for j in range(b)) != 1 for i in range(a)):
            raise GeneratorError("feasible potentials do not give M pi = 1")
        return eta, xi
    eta = [Fraction(1)] + [rational(rng) for _ in range(a - 1)]
    if kind == "realizable":
        xi = [sum(eta[i] * D[i][j] for i in range(a)) for j in range(b)]
    elif kind == "free":
        xi = [rational(rng) for _ in range(b)]
    else:
        raise GeneratorError(f"unknown potential kind {kind!r}")
    return eta, xi


def float_potentials(D, rng):
    a, b = len(D), len(D[0])
    eta = [1.0] + [rng.uniform(0.25, 4.0) for _ in range(a - 1)]
    xi = [rng.uniform(0.25, 4.0) for _ in range(b)]
    return eta, xi


def partial_distortion(D, eta, xi):
    """delta_ij = xi_j / eta_i on the support of D, None elsewhere."""
    return [[(xi[j] / eta[i]) if D[i][j] else None for j in range(len(D[0]))]
            for i in range(len(D))]


def exact_distortion(D, rng, kind):
    """A partial Fraction distortion that satisfies the cycle condition;
    ``kind`` as for ``rational_potentials``."""
    eta, xi = rational_potentials(D, rng, kind)
    delta = partial_distortion(D, eta, xi)
    incl = _checked_inclusion(D)
    if not check_cycle_condition(delta, incl.graph):
        raise GeneratorError("exact distortion violates the cycle condition")
    if not all(isinstance(x, Fraction) for row in delta for x in row if x is not None):
        raise GeneratorError("exact distortion has a non-Fraction entry")
    return eta, xi, delta


# ---------------------------------------------------------------------------
# Loop ladder.

LOOP_M0 = ((1, 2), (2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (3, 5), (4, 5),
           (5, 5))
LOOP_LAMBDA = (((1, 1), (1, 1)), ((2, 1), (1, 2)), ((1, 0), (1, 1)), ((1, 1), (0, 1)),
               ((2, 1), (1, 1)))
LOOP_SKIP = {((4, 5), ((2, 1), (1, 2))), ((5, 5), ((2, 1), (1, 2)))}
COMMUTANT_KL = ((2, 2), (2, 3), (3, 2))


def relabelled_loop_model(m0, Lambda, rng):
    """(m0, Lambda) with bottom and top vertices relabelled at random.

    Relabelling keeps the model isomorphic, so the work per case stays on
    its ladder rung while the concrete input changes with the seed.
    """
    rows = list(range(len(m0)))
    cols = list(range(len(Lambda[0])))
    rng.shuffle(rows)
    rng.shuffle(cols)
    m0 = tuple(m0[r] for r in rows)
    Lambda = tuple(tuple(Lambda[r][c] for c in cols) for r in rows)
    _checked_inclusion([list(r) for r in Lambda])
    return m0, Lambda


def _unit(n, i, j):
    return tuple(tuple(1 if (r, c) == (i, j) else 0 for c in range(n)) for r in range(n))


def _identity(n):
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def kron(A, B):
    m = len(B)
    n = len(A) * m
    return tuple(tuple(A[i // m][j // m] * B[i % m][j % m] for j in range(n))
                 for i in range(n))


def tensor_generators(k, l):
    """Generators of M_k (x) 1 and of M_k (x) M_l inside M_{kl}.

    Matrix units e_{i,i+1} generate M_n as a *-algebra together with their
    adjoints, which ``matrix_algebra`` appends.
    """
    left = [kron(_unit(k, i, i + 1), _identity(l)) for i in range(k - 1)]
    right = [kron(_identity(k), _unit(l, i, i + 1)) for i in range(l - 1)]
    return left, left + right


# ---------------------------------------------------------------------------
# Spec files for the command-line workload.

# Malformed categories of the input contract in docs/schema.md.  The order
# is fixed so that every seed meets them at the same case positions.
MALFORMED = ("nan_D", "nan_delta", "lambda_frac", "m0_frac", "ragged",
             "neg_tol", "support_mismatch", "inf_D")
MALFORMED_EVERY = 10  # spec k is malformed when k % 10 == 9

SPEC_SHAPES = ((2, 2), (3, 3), (2, 4), (4, 4), (3, 5), (5, 5), (4, 6), (6, 6),
               (3, 8), (8, 8))
SMALL_MODELS = (((1, 2), ((1, 0), (1, 1))), ((1, 1), ((1, 1), (1, 1))),
                ((2, 1), ((1, 1), (0, 1))))


def _encode(x, mode):
    if x is None:
        return None
    if mode == "float":
        return float(x)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def well_formed_spec(k, rng):
    """Spec number k: shape, mode and distortion source vary with k.

    Returns (doc, meta); meta records what the spec contains so that the
    oracle can derive the documented outcome of each command.
    """
    a, b = SPEC_SHAPES[k % len(SPEC_SHAPES)]
    mode = "rational" if (k // 2) % 2 == 0 else "float"
    source = ("delta", "trace_A", "standard")[k % 3]
    D = connected_support(a, b, 0.5, rng)
    doc = {"D": D, "number_mode": mode}
    meta = {"category": "ok", "mode": mode, "source": source, "a": a, "b": b,
            "realizable": True, "m0": False}
    if source == "delta":
        realizable = rng.random() < 0.5
        _, _, delta = exact_distortion(D, rng, "realizable" if realizable else "free")
        doc["delta"] = [[_encode(x, mode) for x in row] for row in delta]
        meta["realizable"] = realizable
    elif source == "trace_A":
        doc["trace_A"] = [_encode(rational(rng), mode) for _ in range(a)]
    if k % 4 == 1:
        m0, Lambda = SMALL_MODELS[(k // 4) % len(SMALL_MODELS)]
        doc["m0"] = list(m0)
        doc["Lambda"] = [list(r) for r in Lambda]
        meta["m0"] = True
    return doc, meta


def malformed_spec(category, rng):
    """A spec that violates the input contract in one way, by category."""
    D = connected_support(2, 3, 0.5, rng)
    nan, inf = float("nan"), float("inf")
    doc = {"D": D, "number_mode": "float"}
    i, j = next((i, j) for i in range(2) for j in range(3) if D[i][j])
    if category in ("nan_D", "inf_D"):
        D[i][j] = nan if category == "nan_D" else inf
    elif category == "nan_delta":
        eta, xi = float_potentials(D, rng)
        delta = partial_distortion(D, eta, xi)
        delta[i][j] = nan
        doc["delta"] = delta
    elif category == "lambda_frac":
        doc["m0"] = [1, 2]
        doc["Lambda"] = [[1.5, 0], [1, 1]]
    elif category == "m0_frac":
        doc["m0"] = ["3/2", 1]
        doc["Lambda"] = [[1, 0], [1, 1]]
    elif category == "ragged":
        D[1] = D[1][:-1]
    elif category == "neg_tol":
        doc["tolerance"] = -rng.choice((1e-9, 1e-6, 1e-3))
    elif category == "support_mismatch":
        Delta = [list(r) for r in D]
        Delta[i][j] = 0
        doc["Delta"] = Delta
    else:
        raise GeneratorError(f"unknown malformed category {category!r}")
    return doc, {"category": category, "mode": "float", "source": "standard",
                 "a": 2, "b": 3, "realizable": True, "m0": "m0" in doc}


def spec(k, rng):
    """Spec number k of the stream: about one in ten is malformed."""
    if k % MALFORMED_EVERY == MALFORMED_EVERY - 1:
        return malformed_spec(MALFORMED[(k // MALFORMED_EVERY) % len(MALFORMED)], rng)
    return well_formed_spec(k, rng)


def write_spec(path, doc):
    """Write a spec as JSON; NaN and Infinity use Python's JSON extension,
    which the command-line tool's parser accepts."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def write_batch_dir(directory, docs):
    os.makedirs(directory, exist_ok=True)
    for n, doc in enumerate(docs):
        write_spec(os.path.join(directory, f"spec{n}.json"), doc)
