import math
import random
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (downward_lp_oracle, jones_inclusions, random_connected_edges,
                      random_factorized_delta, random_inclusion, random_rational)
from mfd.core import BipartiteGraph, perron_data, standard_distortion, validate_inclusion
from mfd.distortion import as_distortion, extend_to_complete, from_potentials
from mfd.errors import CycleViolation, MissingEntry, NonConvergence, ZeroPi
from mfd.linear import solve
from mfd.markov import TracePair
from mfd.tower import (basic_construction_distortion, downward_distortion,
                       downward_feasibility, homogeneity_report,
                       iterate_to_fixed_point, phi_step, relative_residual,
                       tower_limit)
import tower_oracle
from tower_oracle import eager_iterate, eager_levels, total_residual


def F(p, q=1):
    return Fraction(p, q)


def fib_level(n):
    """Even tower level 2n of the start [[2,1],[2,1]] in closed form."""
    f = [1, 1]
    while len(f) < 2 * n + 3:
        f.append(f[-1] + f[-2])
    return ((F(f[2 * n + 2], f[2 * n]), F(f[2 * n + 1], f[2 * n])),
            (F(f[2 * n + 2], f[2 * n + 1]), F(1)))


def test_basic_construction_a4(a4_incl, a4_delta):
    nxt = basic_construction_distortion(a4_delta, a4_incl)
    assert (nxt.a, nxt.b) == (2, 2)
    assert nxt.entries == {(0, 0): 1, (0, 1): F(3, 2), (1, 1): 3}
    assert not nxt.has(1, 0)


def test_basic_construction_homogeneous_oscillation(homog_incl, homog_delta):
    # homogeneous delta maps to d^2/delta and back
    down = basic_construction_distortion(homog_delta, homog_incl)
    assert down.entries == {(0, 0): 1, (0, 1): 1}
    back = basic_construction_distortion(down, homog_incl.dual)
    assert back.entries == {(0, 0): 2, (1, 0): 2}


def test_phi_step_a4(a4_incl, a4_delta):
    nxt = phi_step(a4_delta, a4_incl)
    assert nxt.total == ((F(5, 2), F(3, 2)), (F(5, 3), 1))
    assert nxt.eta == (1, F(3, 2))
    assert nxt.xi == (F(5, 2), F(3, 2))


def test_phi_chain_builds_only_the_total_it_reads(a4_incl, a4_delta):
    chain = [a4_delta]
    for _ in range(6):
        chain.append(phi_step(chain[-1], a4_incl))
    assert chain[-1].total == fib_level(6)
    assert ["total" in vars(dm) for dm in chain] == [False] * 6 + [True]


def test_phi_step_equals_two_basic_constructions(a4_incl, a4_delta):
    odd = basic_construction_distortion(a4_delta, a4_incl)
    even = basic_construction_distortion(odd, a4_incl.dual)
    direct = phi_step(a4_delta, a4_incl)
    for (i, j) in a4_incl.graph.edges:
        assert even.get(i, j) == direct.get(i, j)


def test_phi_step_follows_the_jones_matrix():
    # D != Delta: both halves of Phi use the Jones matrix, as the basic
    # construction does
    incl = validate_inclusion([[1, 1], [1, 2]], [[2, 1], [1, 3]])
    ones = as_distortion([[1, 1], [1, 1]], incl.graph)
    odd = basic_construction_distortion(ones, incl)
    even = basic_construction_distortion(odd, incl.dual)
    direct = phi_step(ones, incl)
    assert direct.total == ((F(10, 3), 5), (F(5, 2), F(15, 4)))
    assert {e: direct.get(*e) for e in incl.graph.edges} == even.entries


def test_phi_step_checks_the_cycle_condition_within_tol():
    incl = validate_inclusion([[1, 1], [1, 1]])
    delta = as_distortion([[1.0, 1.0], [1.0, 1.00000005]], incl.graph)
    with pytest.raises(CycleViolation):
        phi_step(delta, incl)
    assert phi_step(delta, incl, tol=1e-5).total[0][0] == pytest.approx(2.0)


def test_phi_step_all_ones_reaches_fixed_point_in_one_step(rng):
    incl = validate_inclusion([[1, 1], [1, 1]])
    delta, _, _ = random_factorized_delta(rng, incl)
    nxt = phi_step(delta, incl)
    assert nxt.total == ((2, 2), (2, 2))
    again = phi_step(nxt, incl)
    assert again.total == nxt.total


def test_fibonacci_levels(a4_incl, a4_delta):
    dm = a4_delta
    for n in range(1, 6):
        dm = phi_step(dm, a4_incl)
        assert dm.total == fib_level(n)


def test_iterate_records_half_steps(a4_incl, a4_delta):
    trace = iterate_to_fixed_point(a4_delta, a4_incl, tol=1e-9)
    assert trace.converged
    assert trace.residual <= 1e-9
    assert trace.iterations <= 60
    assert len(trace.levels) == 2 * trace.iterations + 1
    assert trace.levels[0].orientation == "even"
    assert trace.levels[1].orientation == "odd"
    assert trace.levels[1].matrix.total == ((1, F(3, 2)), (2, 3))
    assert trace.levels[2].matrix.total == fib_level(1)
    # even levels approach the standard distortion monotonically here
    sigma = standard_distortion(perron_data(a4_incl))
    residuals = [relative_residual(lv.matrix, sigma)
                 for lv in trace.levels if lv.orientation == "even"]
    assert all(r2 < r1 for r1, r2 in zip(residuals, residuals[1:]))


def test_iterate_zero_iterations_at_standard(a4_incl):
    sigma = standard_distortion(perron_data(a4_incl))
    rows = [[sigma[i][j] if a4_incl.D[i][j] else None for j in range(2)]
            for i in range(2)]
    trace = iterate_to_fixed_point(rows, a4_incl, tol=1e-9)
    assert trace.iterations == 0 and trace.converged
    assert len(trace.levels) == 1


def test_iterate_reaches_the_jones_fixed_point():
    incl = validate_inclusion([[1, 1], [1, 2]], [[2, 1], [1, 3]])
    sigma = tower_limit(incl)
    assert sigma == standard_distortion(perron_data(validate_inclusion(incl.Delta)))
    assert sigma != standard_distortion(perron_data(incl))
    trace = iterate_to_fixed_point([[1.0, 1.0], [1.0, 1.0]], incl, tol=1e-9)
    assert trace.converged and trace.residual <= 1e-9
    assert relative_residual(trace.levels[-1].matrix, sigma) == trace.residual


def test_relative_residual_needs_every_entry(a4_incl):
    sigma = standard_distortion(perron_data(a4_incl))
    partial = as_distortion([[2, None], [2, 1]], a4_incl.graph)
    with pytest.raises(MissingEntry) as info:
        relative_residual(partial, sigma)
    assert info.value.position == (0, 1)


def test_iterate_nonconvergence(a4_incl, a4_delta):
    with pytest.raises(NonConvergence) as info:
        iterate_to_fixed_point(a4_delta, a4_incl, tol=1e-12, max_iter=1)
    # the exact residual of the last even level, level 2
    level2 = phi_step(a4_delta, a4_incl)
    assert level2.total == fib_level(1)
    assert info.value.residual == relative_residual(level2, tower_limit(a4_incl))
    assert info.value.residual == total_residual(level2, tower_limit(a4_incl))


def path_inclusion(n):
    """The path A_2n in float mode: n row and n column vertices."""
    return validate_inclusion([[1.0 if j in (i, i + 1) else 0.0 for j in range(n)]
                               for i in range(n)])


def test_iterate_builds_no_intermediate_matrix():
    incl = path_inclusion(8)
    start = [[1.0 if x else None for x in row] for row in incl.D]
    trace = iterate_to_fixed_point(start, incl, tol=1e-9)
    assert trace.converged and len(trace.levels) == 2 * trace.iterations + 1
    assert not any({"total", "entries"} & vars(lv.matrix).keys() for lv in trace.levels[1:])
    matrix = trace.levels[3].matrix
    total = matrix.total
    assert matrix.total is total
    assert total == tuple(tuple(x / e for x in matrix.xi) for e in matrix.eta)


def test_iterate_contracts_at_the_rate_of_the_jones_gram_matrix():
    # Phi sends xi to xi Delta^T Delta, so the residual contracts by
    # mu_2 / mu_1, the ratio of the top two eigenvalues of Delta^T Delta,
    # per step: the steps taken to 1e-9 from all ones on A_2n stay within
    # a factor 4/3 of log(1e-9) / log(mu_2 / mu_1).
    for n in range(2, 17):
        incl = path_inclusion(n)
        Delta = np.array(incl.Delta)
        mu = np.linalg.eigvalsh(Delta.T @ Delta)
        predicted = math.log(1e-9) / math.log(mu[-2] / mu[-1])
        start = [[1.0 if x else None for x in row] for row in incl.D]
        taken = iterate_to_fixed_point(start, incl, tol=1e-9).iterations
        assert 3 / 4 <= taken / predicted <= 4 / 3, (n, taken, predicted)


def _eager_or_error(delta, incl, tol, max_iter):
    try:
        return eager_iterate(delta, incl, tol=tol, max_iter=max_iter), None
    except NonConvergence as exc:
        return None, exc


@settings(max_examples=120, deadline=None)
@given(jones_inclusions(), st.randoms(use_true_random=False), st.integers(0, 24),
       st.one_of(st.sampled_from((0.0, 1e-9, 1e-4)), st.integers(0, 24)))
def test_iterate_equals_the_eager_loop(case, rnd, max_iter, tol_pick):
    # Both number modes, Delta = D or not.  An integer tol_pick k sets tol
    # to the exact residual of even level 2k, so the stop test is met with
    # equality there.
    incl, exact = case
    delta, _, _ = random_factorized_delta(rnd, incl, exact=exact)
    perron = incl.jones_perron
    if isinstance(tol_pick, int):
        stream = eager_levels(delta, incl, tower_limit(incl))
        residuals = [r for _, r in (next(stream) for _ in range(2 * tol_pick + 1))
                     if r is not None]
        tol = residuals[-1]
    else:
        tol = tol_pick
    ref, error = _eager_or_error(delta, incl, tol, max_iter)
    event("exact" if exact else "float")
    event("Delta = D" if incl.Delta == incl.D else "Delta != D")
    event("NonConvergence" if error is not None else
          "stops at tol" if ref.residual == tol else "converged")
    if error is not None:
        with pytest.raises(NonConvergence) as info:
            iterate_to_fixed_point(delta, incl, tol=tol, max_iter=max_iter, perron=perron)
        assert info.value.max_iter == error.max_iter
        assert info.value.residual == error.residual
        return
    trace = iterate_to_fixed_point(delta, incl, tol=tol, max_iter=max_iter, perron=perron)
    assert trace.converged and ref.converged
    assert trace.iterations == ref.iterations
    assert trace.residual == ref.residual
    assert trace.limit == ref.limit
    assert len(trace.levels) == len(ref.levels)
    for lv, want in zip(trace.levels, ref.levels):
        assert (lv.level, lv.orientation) == (want.level, want.orientation)
        assert lv.matrix.total == want.matrix.total
        assert lv.matrix.entries == want.matrix.entries
        assert (lv.matrix.eta, lv.matrix.xi) == (want.matrix.eta, want.matrix.xi)
    # n chained phi_step calls are even level 2n, to the bit
    dm = delta
    for lv in trace.levels[2::2]:
        dm = phi_step(dm, incl)
        assert (dm.eta, dm.xi) == (lv.matrix.eta, lv.matrix.xi)
        assert dm.total == lv.matrix.total


def test_homogeneity_a4_all_false(a4_incl, a4_delta):
    rep = homogeneity_report(a4_incl, a4_delta, tol=1e-9)
    assert rep.row_sums == (2, 3)
    assert not any(rep.flags.values())
    assert rep.all_flags_agree and not rep.homogeneous


def test_homogeneity_homog_all_true(homog_incl, homog_delta):
    rep = homogeneity_report(homog_incl, homog_delta, tol=1e-9)
    assert all(rep.flags.values())
    assert rep.homogeneous and rep.all_flags_agree
    assert set(rep.flags) == {"H2_row_sums", "H3_fixed_point", "H4_standard",
                              "H5_scalar_jones_trace", "H6_trace_preserved",
                              "H7_super_extremal"}


def test_homogeneity_standard_distortion_random(rng):
    for _ in range(10):
        incl = random_inclusion(rng, max_a=4, max_b=4)
        perron = perron_data(incl)
        sigma = standard_distortion(perron)
        rows = [[sigma[i][j] if incl.D[i][j] else None for j in range(incl.b)]
                for i in range(incl.a)]
        rep = homogeneity_report(incl, rows, perron=perron, tol=1e-8)
        assert rep.homogeneous, rep.flags


def test_homogeneity_h3_is_the_fixed_point_of_the_jones_tower():
    incl = validate_inclusion([[1, 1], [1, 2]], [[2, 1], [1, 3]])
    at_limit = homogeneity_report(incl, tower_limit(incl), tol=1e-9)
    assert at_limit.h3_fixed_point and at_limit.h5_scalar_jones_trace
    sigma = standard_distortion(perron_data(incl))
    for delta in (sigma, [[1, 1], [1, 1]]):
        assert not homogeneity_report(incl, delta, tol=1e-9).h3_fixed_point


def test_homogeneity_of_a_non_factorizable_delta_fails_h3():
    # phi_step raises CycleViolation, so H3 is False; markov_trace would
    # raise it first, so the trace pair is given
    incl = validate_inclusion([[1, 1], [1, 1]])
    delta = [[1, 1], [1, 2]]
    with pytest.raises(CycleViolation):
        phi_step(delta, incl)
    pair = TracePair(tr_A=(0.5, 0.5), tr_B=(0.5, 0.5), d_squared=4.0)
    assert not homogeneity_report(incl, delta, trace_pair=pair, tol=1e-9).h3_fixed_point


def test_downward_a4_level0(a4_incl, a4_delta):
    res = downward_feasibility(a4_incl, a4_delta, mode="strict")
    assert res.status == "Infeasible" and not res.feasible
    assert res.certificate["candidate_pi"] == (F(1, 2), 0)
    assert res.certificate["zero_columns"] == [1]
    tun = downward_feasibility(a4_incl, a4_delta, mode="markov_tunnel")
    assert tun.status == "MarkovTunnelOnly"
    assert tun.pi == (F(1, 2), 0)
    assert tun.certificate["zero_columns"] == [1]


def test_downward_a4_level2_feasible(a4_incl, a4_delta):
    level2 = phi_step(a4_delta, a4_incl)
    res = downward_feasibility(a4_incl, level2, mode="strict")
    assert res.feasible
    assert res.pi == (F(2, 5), F(1, 3))
    gamma = downward_distortion(level2, res.pi)
    assert gamma.total == ((1, F(3, 2)), (2, 3))
    # going back up recovers the level exactly
    up = basic_construction_distortion(gamma, a4_incl.dual)
    for (i, j) in a4_incl.graph.edges:
        assert up.get(i, j) == level2.get(i, j)


def test_downward_homog(homog_incl, homog_delta):
    res = downward_feasibility(homog_incl, homog_delta)
    assert res.feasible and res.pi == (F(1, 2),)


def test_downward_unique_out_of_box():
    incl = validate_inclusion([[1]])
    res = downward_feasibility(incl, as_distortion([[F(1, 2)]], incl.graph))
    assert res.status == "Infeasible"
    assert res.certificate["candidate_pi"] == (2,)


def test_downward_inconsistent():
    incl = validate_inclusion([[1], [2]])
    res = downward_feasibility(incl, as_distortion([[1], [1]], incl.graph))
    assert res.status == "Infeasible"
    assert "no solution" in res.certificate["reason"]


def test_downward_underdetermined_lp():
    incl = validate_inclusion([[1, 1]])
    res = downward_feasibility(incl, as_distortion([[1, 2]], incl.graph))
    assert res.feasible
    assert res.pi == (F(1, 3), F(1, 3))


def test_downward_underdetermined_tunnel_only():
    # pi_2 is forced to zero but the rest of the solution set is a segment
    incl = validate_inclusion([[1, 1, 0], [1, 1, 1]])
    delta = as_distortion([[1, 1, None], [1, 1, 4]], incl.graph)
    strict = downward_feasibility(incl, delta, mode="strict")
    assert strict.status == "Infeasible"
    tun = downward_feasibility(incl, delta, mode="markov_tunnel")
    assert tun.status == "MarkovTunnelOnly"
    assert 2 in tun.certificate["zero_columns"]
    assert tun.pi[0] + tun.pi[1] == 1 and tun.pi[2] == 0
    assert all(0 <= x <= 1 for x in tun.pi)


def test_downward_float_inputs(homog_incl):
    delta = as_distortion([[2.0], [2.0]], homog_incl.graph)
    res = downward_feasibility(homog_incl, delta)
    assert res.feasible
    assert res.pi == (0.5,)
    assert isinstance(res.pi[0], float)


def test_downward_distortion_zero_pi(a4_delta):
    with pytest.raises(ZeroPi) as info:
        downward_distortion(a4_delta, (F(1, 2), 0))
    assert info.value.column == 1
    with pytest.raises(TypeError):
        downward_distortion([[1, 1]], (1, 1))


def test_downward_upward_normalization_random(rng):
    # the recovered downward distortion always has unit Jones column sums
    checked = 0
    for _ in range(20):
        incl = random_inclusion(rng, max_a=3, max_b=3)
        delta, _, _ = random_factorized_delta(rng, incl)
        level = phi_step(phi_step(delta, incl), incl)
        res = downward_feasibility(incl, level, mode="strict")
        if not res.feasible:
            continue
        gamma = downward_distortion(level, res.pi)
        for i in range(incl.a):
            s = sum(Fraction(incl.Delta[i][j]) / gamma.get(j, i)
                    for j in range(incl.b) if incl.D[i][j])
            assert s == 1
        checked += 1
    assert checked >= 5


# ---------------------------------------------------------------------------
# The potentials engine against the recursion it replaced: two basic
# constructions per Phi step, each re-factorized through the cycle condition.

def reference_levels(delta0, incl):
    """Tower levels 0, 1, 2, ... without end, each half-step the entry-form
    basic construction of tests/tower_oracle.py."""
    graph = incl.graph
    graph_t = BipartiteGraph(incl.b, incl.a, [(j, i) for (i, j) in graph.edges])
    Delta_t = tuple(zip(*incl.Delta))
    dm = extend_to_complete(as_distortion(delta0, graph), graph)
    yield dm
    while True:
        odd = extend_to_complete(tower_oracle.basic_construction_distortion(dm, incl), graph_t)
        yield odd
        dm = extend_to_complete(tower_oracle.basic_construction_distortion(odd, Delta_t), graph)
        yield dm


def _random_case(seed, exact, jones):
    """A random inclusion (a, b <= 8) and delta on it.  jones is False
    (Delta = D), True (an int Delta on D's support) or "rational" (Delta_ij
    = k + 1/m, never an int)."""
    rng = random.Random(seed)
    incl = random_inclusion(rng, max_a=8, max_b=8)
    if jones:
        def entry():
            k = rng.randint(1, 3)
            return k + F(1, rng.randint(2, 5)) if jones == "rational" else k
        Delta = [[entry() if x else 0 for x in row] for row in incl.D]
        incl = validate_inclusion(incl.D, Delta)
    delta, _, _ = random_factorized_delta(rng, incl, exact=exact)
    return incl, delta


def _rel(x, y):
    return abs(x - y) / abs(y)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_iterate_matches_reference_recursion_float(seed, jones):
    incl, delta = _random_case(seed, exact=False, jones=jones)
    trace = iterate_to_fixed_point(delta, incl, tol=1e-9)
    # the fixed point of two basic constructions: the standard distortion
    # of the Jones matrix
    sigma = standard_distortion(perron_data(validate_inclusion(incl.Delta)))
    reference = reference_levels(delta, incl)
    levels = [next(reference)]
    while relative_residual(levels[-1], sigma) > 1e-9:
        levels += [next(reference), next(reference)]
    assert trace.iterations == (len(levels) - 1) // 2
    assert len(trace.levels) == len(levels)
    for k, (lv, ref) in enumerate(zip(trace.levels, levels)):
        assert lv.level == k and lv.orientation == ("even", "odd")[k % 2]
        assert (lv.matrix.a, lv.matrix.b) == (ref.a, ref.b)
        assert lv.matrix.support == ref.support
        for got, want in zip(lv.matrix.total, ref.total):
            assert max(map(_rel, got, want)) <= 1e-12
        assert max(map(_rel, lv.matrix.eta + lv.matrix.xi, ref.eta + ref.xi)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.sampled_from([False, True, "rational"]))
def test_phi_step_matches_reference_recursion_exact(seed, k, jones):
    incl, delta = _random_case(seed, exact=True, jones=jones)
    assert (incl.jones_ints[0] > 1) == (jones == "rational")
    levels = list(islice(reference_levels(delta, incl), 2 * k + 1))
    dm = delta
    for n in range(1, k + 1):
        dm = phi_step(dm, incl)
        ref = levels[2 * n]
        assert dm.total == ref.total
        assert (dm.eta, dm.xi) == (ref.eta, ref.xi)
        assert dm.entries == {e: ref.total[e[0]][e[1]] for e in incl.graph.edges}


@pytest.mark.parametrize("Delta", [None, [[2, 0], [1, 1]], [[F(1, 2), 0], [1, F(3, 2)]]])
def test_exact_phi_chain_stays_on_the_eager_levels(Delta):
    # 200 steps on int potentials over A_4, with Delta = D, an int Delta
    # under which unreduced ints would gain a factor 2 per step, and a
    # rational one: every level equals the eager chain of gauged
    # Fractions, and the ints it keeps have gcd 1
    incl = validate_inclusion([[1, 0], [1, 1]], Delta)
    dm = extend_to_complete(as_distortion([[2, None], [2, 1]], incl.graph), incl.graph)
    eager = eager_levels(dm, incl, tower_limit(incl))
    next(eager)
    for _ in range(200):
        next(eager)
        ref = next(eager)[0].matrix
        dm = phi_step(dm, incl)
        assert math.gcd(*dm.ints[0], *dm.ints[1]) == 1
        assert (dm.eta, dm.xi) == (ref.eta, ref.xi)
        assert dm.total == ref.total and dm.entries == ref.entries


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_float_phi_step_is_from_potentials_of_the_dense_products(seed, jones):
    # two half-steps, each a dense loop that skips zeros, whose sums take
    # the terms in support order, gauged by from_potentials: xi Delta^T,
    # and then the gauged odd xi times Delta.  The float path gives the
    # same bits
    incl, delta = _random_case(seed, exact=False, jones=jones)
    xi, Delta, a, b = extend_to_complete(delta, incl.graph).xi, incl.Delta, incl.a, incl.b
    up = [sum(xi[j] * Delta[i][j] for j in range(b) if Delta[i][j]) for i in range(a)]
    odd = from_potentials(xi, up, None).xi
    down = [sum(odd[i] * Delta[i][j] for i in range(a) if Delta[i][j]) for j in range(b)]
    want = from_potentials(odd, down, incl.graph.edges)
    got = phi_step(delta, incl)
    assert got.ints is None
    assert (got.eta, got.xi) == (want.eta, want.xi)
    assert got.total == want.total and got.entries == want.entries


def _wide_downward_case(seed, kind, exact):
    """Inclusion and delta of a wide system M pi = 1 (M = delta D, a < b <= 8)
    built from potentials delta_ij = xi_j / eta_i to have a solution inside
    (0,1]^b ("feasible"), box solutions that all vanish at column z
    ("tunnel"), or solutions that all have pi_z < 0 ("infeasible").

    For the last two, row 1 is row 0 plus the leaf column z = b - 1, and
    eta_i = sum_j D_ij xi_j pi_j for a pi in (0,1]^b except that row 1 has
    eta_1 = eta_0 ("tunnel": row 1 minus row 0 gives M_1z pi_z = 0) or
    eta_1 = eta_0 / 2 (row 1 minus twice row 0 gives M_1z pi_z = -1)."""
    rng = random.Random(seed)
    b = rng.randint(3, 8)
    a = rng.randint(2, b - 1)
    z = b - 1
    if kind == "feasible":
        edges = random_connected_edges(rng, a, b, extra=rng.randint(0, 4))
    else:
        # a connected support on rows {0, 2, ..., a - 1} and columns < z
        others = [0] + list(range(2, a))
        edges = [(others[i], j) for (i, j) in
                 random_connected_edges(rng, a - 1, b - 1, extra=rng.randint(0, 4))]
        edges += [(1, j) for (i, j) in edges if i == 0] + [(1, z)]
    D = [[0] * b for _ in range(a)]
    for (i, j) in edges:
        D[i][j] = rng.randint(1, 3)
    xi = [random_rational(rng) for _ in range(b)]
    pi = [F(rng.randint(1, 6), 6) for _ in range(b)]
    eta = [sum(D[i][j] * xi[j] * pi[j] for j in range(b)) for i in range(a)]
    if kind != "feasible":
        D[1][:z] = D[0][:z]
        eta[1] = eta[0] if kind == "tunnel" else eta[0] / 2
    num = (lambda x: x) if exact else float
    incl = validate_inclusion([[num(x) for x in row] for row in D])
    rows = [[num(xi[j] / eta[i]) if D[i][j] else None for j in range(b)] for i in range(a)]
    return incl, as_distortion(rows, incl.graph)


@settings(max_examples=160, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(("feasible", "tunnel", "infeasible")),
       st.booleans(), st.sampled_from(("strict", "markov_tunnel")))
def test_downward_lp_matches_the_box_formulation(seed, kind, exact, mode):
    # The LP in nullspace coordinates against the LP over pi itself (a + 2b
    # rows): same status, certificate reason and t* = max min pi, and an
    # answer that solves M pi = 1 inside the box with min pi = t*.
    incl, delta = _wide_downward_case(seed, kind, exact)
    res = downward_feasibility(incl, delta, mode=mode)
    M = [[Fraction(delta.get(i, j) * incl.D[i][j]) if incl.D[i][j] else F(0)
          for j in range(incl.b)] for i in range(incl.a)]
    reason = (res.certificate or {}).get("reason")
    if solve(M, [1] * incl.a)[0] == "inconsistent":  # float rounding only
        assert not exact and reason == "linear system has no solution"
        return
    status, x, value = downward_lp_oracle(M)
    if status == "infeasible":
        assert (res.status, reason) == ("Infeasible", "no solution of M pi = 1 inside [0,1]")
        assert res.pi is None
        assert kind == "infeasible" or not exact
        return
    t_star = -value
    if t_star > 0:
        assert (res.status, reason, res.pi is not None) == ("Feasible", None, True)
        assert kind == "feasible" or not exact
        pi = res.pi
    elif mode == "strict":
        assert (res.status, reason) == ("Infeasible", "max-min entry over the box is zero")
        pi = res.certificate["candidate_pi"]
    else:
        assert res.status == "MarkovTunnelOnly" and reason is None
        pi = res.pi
    if t_star == 0:
        assert kind == "tunnel" or not exact
        assert res.certificate["zero_columns"] == [j for j, p in enumerate(pi) if p == 0]
    assert all(0 <= p <= 1 for p in pi)
    if exact:
        assert min(pi) == t_star
        assert all(sum(m * p for m, p in zip(row, pi)) == 1 for row in M)
    else:
        assert min(pi) == float(t_star)
        assert all(abs(float(sum(m * Fraction(p) for m, p in zip(row, pi))) - 1) < 1e-9
                   for row in M)


def _count_downward_solves(monkeypatch):
    """Calls of the LP and of linear.solve (the system M pi = 1) in mfd.tower."""
    import mfd.tower as tower

    counts = dict.fromkeys(("solve_lp", "solve"), 0)
    for name in counts:
        def counted(*args, _real=getattr(tower, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(tower, name, counted)
    return counts


def test_downward_modes_share_one_solve_per_inclusion_and_tol(monkeypatch):
    # A wide tunnel case, so the answer needs the LP; strict refuses the
    # zero entry that markov_tunnel accepts, from the one solve.
    incl, delta = _wide_downward_case(1, "tunnel", True)
    counts = _count_downward_solves(monkeypatch)
    strict = downward_feasibility(incl, delta, mode="strict")
    tunnel = downward_feasibility(incl, delta, mode="markov_tunnel")
    assert counts == {"solve_lp": 1, "solve": 1}
    assert (strict.status, tunnel.status) == ("Infeasible", "MarkovTunnelOnly")
    assert downward_feasibility(incl, delta, mode="strict") == strict
    assert counts == {"solve_lp": 1, "solve": 1}
    # an equal but distinct inclusion, or another tol, solves again
    twin = validate_inclusion([list(row) for row in incl.D])
    assert downward_feasibility(twin, delta, mode="markov_tunnel") == tunnel
    assert counts == {"solve_lp": 2, "solve": 2}
    assert downward_feasibility(twin, delta, mode="strict", tol=1e-6) == strict
    assert counts == {"solve_lp": 3, "solve": 3}


def test_downward_answers_do_not_share_their_certificates():
    incl, delta = _wide_downward_case(1, "tunnel", True)
    fresh = {mode: downward_feasibility(incl, as_distortion(delta.rows(), incl.graph), mode)
             for mode in ("strict", "markov_tunnel")}
    for mode in ("strict", "markov_tunnel", "strict"):
        res = downward_feasibility(incl, delta, mode)
        assert res == fresh[mode]
        res.certificate["zero_columns"].append(99)
        res.certificate["reason"] = "mutated"
        res.status = "Feasible"
    for mode in fresh:
        assert downward_feasibility(incl, delta, mode) == fresh[mode]
