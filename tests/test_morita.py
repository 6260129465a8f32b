from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tower_oracle
from conftest import PHI, jones_inclusions, random_factorized_delta, random_inclusion, scalars
from mfd.core import perron_data, standard_distortion, validate_inclusion
from mfd.distortion import as_distortion, extend_to_complete
from mfd.errors import CycleViolation, NegativeEntry
from mfd.markov import markov_trace, trace_matrices
from mfd.morita import (MoritaWeights, morita_distortion, realizability_check,
                        rescale_to_standard)
from mfd.numbers import close
from mfd.tower import basic_construction_distortion, phi_step, tower_limit


def F(p, q=1):
    return Fraction(p, q)


def test_weights_validation():
    w = MoritaWeights((1, F(3, 2)))
    assert len(w) == 2 and w[1] == F(3, 2)
    with pytest.raises(NegativeEntry):
        MoritaWeights((1, 0))
    with pytest.raises(NegativeEntry):
        MoritaWeights((1, -2))
    with pytest.raises(ValueError):
        w.compose(MoritaWeights((1,)))
    assert w.compose(MoritaWeights((2, 2))).rho == (2, 3)


def test_morita_distortion_a4(a4_incl, a4_delta):
    out = morita_distortion(a4_delta, a4_incl, (1, PHI))
    sigma = standard_distortion(perron_data(a4_incl))
    for i in range(2):
        for j in range(2):
            assert abs(out.get(i, j) - sigma[i][j]) < 1e-12


def test_morita_accepts_plain_jones_matrix(a4_incl, a4_delta):
    via_incl = morita_distortion(a4_delta, a4_incl, (1, 2))
    via_matrix = morita_distortion([[2, 1], [2, 1]], validate_inclusion(a4_incl.Delta), (1, 2))
    for i in range(2):
        for j in range(2):
            assert via_incl.get(i, j) == via_matrix.get(i, j)
    with pytest.raises(ValueError):
        morita_distortion([[2, 1]], validate_inclusion(a4_incl.Delta), (1, 2))
    with pytest.raises(ValueError):
        morita_distortion(a4_delta, a4_incl, (1, 2, 3))
    with pytest.raises(NegativeEntry):
        morita_distortion(a4_delta, a4_incl, (1, -1))


def test_morita_gauge_invariance(rng):
    for _ in range(15):
        incl = random_inclusion(rng, max_a=4, max_b=4)
        delta, _, _ = random_factorized_delta(rng, incl)
        rho = tuple(F(rng.randint(1, 5), rng.randint(1, 5))
                    for _ in range(incl.a))
        c = F(rng.randint(1, 7), rng.randint(1, 7))
        one = morita_distortion(delta, incl, rho)
        other = morita_distortion(delta, incl, tuple(c * r for r in rho))
        for e in incl.graph.edges:
            assert one.get(*e) == other.get(*e)


def test_morita_composition(rng):
    for _ in range(15):
        incl = random_inclusion(rng, max_a=4, max_b=4)
        delta, _, _ = random_factorized_delta(rng, incl)
        rho1 = MoritaWeights(tuple(F(rng.randint(1, 5), rng.randint(1, 5))
                                   for _ in range(incl.a)))
        rho2 = MoritaWeights(tuple(F(rng.randint(1, 5), rng.randint(1, 5))
                                   for _ in range(incl.a)))
        step = morita_distortion(morita_distortion(delta, incl, rho1),
                                 incl, rho2)
        joint = morita_distortion(delta, incl, rho1.compose(rho2))
        for e in incl.graph.edges:
            assert step.get(*e) == joint.get(*e)


def test_morita_constant_weights_is_identity(a4_incl, a4_delta):
    out = morita_distortion(a4_delta, a4_incl, (F(7, 3), F(7, 3)))
    for e in a4_incl.graph.edges:
        assert out.get(*e) == a4_delta.get(*e)


def test_realizability_a4(a4_incl, a4_delta):
    res = realizability_check(a4_delta, a4_incl)
    assert res and res.realizable
    assert res.eta == (1, 1) and res.xi == (2, 1)
    assert res.violation is None


def test_realizability_violation(a4_incl):
    flat = as_distortion([[1, None], [1, 1]], a4_incl.graph)
    res = realizability_check(flat, a4_incl)
    assert not res
    assert res.violation["column"] == 0
    assert res.violation["xi"] == 1 and res.violation["eta_dot_D"] == 2


def test_realizability_propagates_cycle_violation():
    incl = validate_inclusion([[1, 1], [1, 1]])
    bad = as_distortion([[1, 1], [1, 2]], incl.graph)
    with pytest.raises(CycleViolation):
        realizability_check(bad, incl)


def test_realizability_matches_column_sums(rng):
    # xi_j = sum_h eta_h D_hj holds iff every column sum of D/delta is 1
    hits = 0
    for _ in range(60):
        incl = random_inclusion(rng, max_a=4, max_b=4)
        delta, _, _ = random_factorized_delta(rng, incl)
        res = realizability_check(delta, incl)
        sums_ok = all(
            sum(F(incl.D[i][j]) / delta.get(i, j)
                for i in range(incl.a) if incl.D[i][j]) == 1
            for j in range(incl.b))
        assert bool(res) == sums_ok
        hits += bool(res)
    assert hits < 60  # random starts are rarely realizable


def test_morita_preserves_realizability(rng):
    # rescaling moves distortions around inside the realizable orbit
    for _ in range(15):
        incl = random_inclusion(rng, max_a=4, max_b=4)
        eta = [F(rng.randint(1, 5), rng.randint(1, 5))
               for _ in range(incl.a)]
        xi = [sum(eta[h] * incl.D[h][j] for h in range(incl.a))
              for j in range(incl.b)]
        rows = [[xi[j] / eta[i] if incl.D[i][j] else None
                 for j in range(incl.b)] for i in range(incl.a)]
        delta = as_distortion(rows, incl.graph)
        assert realizability_check(delta, incl)
        rho = tuple(F(rng.randint(1, 5), rng.randint(1, 5))
                    for _ in range(incl.a))
        moved = morita_distortion(delta, incl, rho)
        assert realizability_check(moved, incl)


def test_rescale_to_standard_a4(a4_incl, a4_delta):
    perron = perron_data(a4_incl)
    rho = rescale_to_standard(a4_delta, a4_incl)
    assert abs(rho[0] - 1) < 1e-12
    assert abs(rho[1] - PHI) < 1e-10
    sigma = standard_distortion(perron)
    back = morita_distortion(a4_delta, a4_incl, rho)
    for i in range(2):
        for j in range(2):
            assert abs(back.get(i, j) - sigma[i][j]) < 1e-10


def test_rescale_to_standard_random(rng):
    for _ in range(10):
        incl = random_inclusion(rng, max_a=4, max_b=4)
        delta, _, _ = random_factorized_delta(rng, incl)
        perron = perron_data(incl)
        sigma = standard_distortion(perron)
        rho = rescale_to_standard(delta, incl)
        back = morita_distortion(delta, incl, rho)
        for (i, j) in incl.graph.edges:
            s = sigma[i][j]
            assert abs(float(back.get(i, j)) - s) < 1e-9 * max(s, 1.0)


def test_rescale_to_standard_needs_factorizable():
    incl = validate_inclusion([[1, 1], [1, 1]])
    bad = as_distortion([[1, 1], [1, 2]], incl.graph)
    with pytest.raises(CycleViolation):
        rescale_to_standard(bad, incl)


@st.composite
def potential_cases(draw):
    """A connected inclusion (a, b <= 6) in either number mode, with a Jones
    matrix equal to D or not, and delta = xi_j / eta_i on its support, with
    or without its potentials: xi = eta Delta (realizable), xi = eta Delta
    off by a factor in one column, or xi drawn freely.  Returns
    (incl, delta, exact)."""
    incl, exact = draw(jones_inclusions())
    a, b = incl.a, incl.b
    eta = [draw(scalars(exact)) for _ in range(a)]
    xi = [sum(eta[i] * incl.Delta[i][j] for i in range(a)) for j in range(b)]
    kind = draw(st.sampled_from(["realizable", "one column off", "free"]))
    if kind == "one column off":
        j = draw(st.integers(0, b - 1))
        xi[j] = xi[j] * draw(st.sampled_from([F(1, 2), F(2, 3), F(3, 2), F(2)]))
    elif kind == "free":
        xi = [draw(scalars(exact)) for _ in range(b)]
    rows = [[xi[j] / eta[i] if incl.D[i][j] else None for j in range(b)] for i in range(a)]
    delta = as_distortion(rows, incl.graph)
    if draw(st.booleans()):
        delta = extend_to_complete(delta, incl.graph)
    return incl, delta, exact


@settings(max_examples=150, deadline=None)
@given(potential_cases())
def test_realizable_iff_unit_column_sums(case):
    # The realizable distortions are the proper subset whose trace matrix
    # T = Delta / delta has unit column sums.
    incl, delta, _ = case
    T = trace_matrices(incl, delta).T
    unit_sums = all(close(sum(row[j] for row in T), 1) for j in range(incl.b))
    assert realizability_check(delta, incl).realizable == unit_sums


@settings(max_examples=150, deadline=None)
@given(potential_cases(), st.data())
def test_morita_images_are_realizable(case, data):
    # sum_i Delta_ij / delta'_ij = 1 for every Morita image delta' of a
    # factorizable delta, whatever the weights
    incl, delta, exact = case
    rho = data.draw(st.lists(scalars(exact), min_size=incl.a, max_size=incl.a))
    moved = morita_distortion(delta, incl, rho)
    assert realizability_check(moved, incl).realizable
    markov_trace(incl, moved, require_normalized=True)


@settings(max_examples=150, deadline=None)
@given(potential_cases())
def test_rescale_to_standard_lands_on_tower_limit(case):
    # rho_i = alpha_i / eta_i for the Perron data of Delta maps delta to
    # d beta_j / alpha_i, the fixed point of Phi
    incl, delta, _ = case
    back = morita_distortion(delta, incl, rescale_to_standard(delta, incl))
    limit = tower_limit(incl)
    for (i, j) in incl.graph.edges:
        assert close(float(back.get(i, j)), limit[i][j], 1e-12)


def _same(got, want):
    """The same shape, entries (in order) and total, and the same value
    types: exact stays exact, and equal positive floats have equal bits."""
    assert (got.a, got.b) == (want.a, want.b)
    assert list(got.entries.items()) == list(want.entries.items())
    assert got.total == want.total
    assert [type(v) for v in got.entries.values()] == [type(v) for v in want.entries.values()]


@settings(max_examples=50, deadline=None)
@given(potential_cases(), st.data())
def test_potential_form_equals_entry_form(case, data):
    # Morita and the basic construction equal their entry forms in
    # tests/tower_oracle.py on a delta with or without potentials, on
    # phi_step's int potentials, on the partial int carrier of a basic
    # construction, and on a partial delta of free entries, which in
    # general fails the cycle condition and must still raise nothing
    incl, delta, exact = case
    rho = data.draw(st.lists(scalars(exact), min_size=incl.a, max_size=incl.a))
    free = as_distortion({e: data.draw(scalars(exact)) for e in incl.graph.edges}, incl.graph)
    phi = phi_step(delta, incl)
    assert (phi.ints is not None) == (morita_distortion(phi, incl, rho).ints is not None) == exact
    for dm in (delta, phi, free):
        _same(morita_distortion(dm, incl, rho), tower_oracle.morita_distortion(dm, incl, rho))
        _same(basic_construction_distortion(dm, incl),
              tower_oracle.basic_construction_distortion(dm, incl))
    odd = basic_construction_distortion(phi, incl)
    Delta_t = tuple(zip(*incl.Delta))
    rho_t = data.draw(st.lists(scalars(exact), min_size=incl.b, max_size=incl.b))
    for jones in (incl.dual, validate_inclusion(Delta_t)):
        _same(morita_distortion(odd, jones, rho_t),
              tower_oracle.morita_distortion(odd, jones, rho_t))
