"""Acceptance gate: every criterion at its stated tolerance.

Each test computes its verdict, records one PASS/FAIL line for the
terminal summary, and then asserts, so a red criterion still reports.
"""

import random
import time
from fractions import Fraction

from conftest import (PHI, random_factorized_delta, random_inclusion,
                      record_acceptance)
from mfd.core import perron_data, standard_distortion, validate_inclusion
from mfd.distortion import as_distortion, extend_to_complete
from mfd.loopbasis import (build_loop_algebra, central_transfer,
                           density_sequence, pimsner_popa_basis,
                           transfer_matrix, verify_pp_identity)
from mfd.markov import (distortion_from_trace, distortion_from_trace_matrix,
                        markov_trace)
from mfd.morita import (MoritaWeights, morita_distortion, realizability_check,
                        rescale_to_standard)
from mfd.tower import (basic_construction_distortion, downward_distortion,
                       downward_feasibility, homogeneity_report,
                       iterate_to_fixed_point, phi_step)
from mfd.loopbasis import (CommutingSquareData, basic_construction_square,
                           nondegeneracy_check)


def F(p, q=1):
    return Fraction(p, q)


def a4():
    return validate_inclusion([[1, 0], [1, 1]])


def a4_distortion(incl):
    return extend_to_complete(as_distortion([[2, None], [2, 1]], incl.graph),
                              incl.graph)


def test_acceptance_1_a4_distortion_both_routes():
    t0 = time.perf_counter()
    incl = a4()
    expected = ((2, 1), (2, 1))

    T = ((F(1, 2), 0), (F(1, 2), 1))
    via_matrix = distortion_from_trace_matrix(incl, T)
    exact_ok = via_matrix.total == expected

    tp = markov_trace(incl, a4_distortion(incl))
    via_vector = distortion_from_trace(tp.tr_A, incl)
    vec_ok = all(abs(via_vector.get(i, j) - expected[i][j]) <= 1e-10
                 for i in range(2) for j in range(2))

    elapsed = time.perf_counter() - t0
    ok = exact_ok and vec_ok and elapsed < 1.0
    record_acceptance(1, ok, "A4 distortion from trace matrix (exact) and "
                             "trace vector (1e-10) in under 1s")
    assert exact_ok and vec_ok
    assert elapsed < 1.0


def test_acceptance_2_fibonacci_tower_levels():
    t0 = time.perf_counter()
    incl = a4()
    dm = a4_distortion(incl)
    f = [1, 1]
    while len(f) < 25:
        f.append(f[-1] + f[-2])
    ok = True
    first_level = None
    for n in range(1, 11):
        dm = phi_step(dm, incl)
        want = ((F(f[2 * n + 2], f[2 * n]), F(f[2 * n + 1], f[2 * n])),
                (F(f[2 * n + 2], f[2 * n + 1]), F(1)))
        if n == 1:
            first_level = dm.total
        ok = ok and dm.total == want
    level1_ok = first_level == ((F(5, 2), F(3, 2)), (F(5, 3), F(1)))
    elapsed = time.perf_counter() - t0
    ok = ok and level1_ok and elapsed < 1.0
    record_acceptance(2, ok, "Fibonacci ratio levels 1..10 bit-exact, "
                             "level 1 = [[5/2,3/2],[5/3,1]], under 1s")
    assert ok


def test_acceptance_3_random_tower_convergence():
    t0 = time.perf_counter()
    rng = random.Random(314159)
    ok = True
    worst_abs = 0.0
    worst_iters = 0
    for _ in range(100):
        incl = random_inclusion(rng, max_a=5, max_b=5)
        delta, _, _ = random_factorized_delta(rng, incl, exact=True)
        perron = perron_data(incl)
        sigma = standard_distortion(perron)
        sigma_max = max(max(row) for row in sigma)
        tol = min(1e-10, 5e-10 / sigma_max)
        trace = iterate_to_fixed_point(delta, incl, tol=tol, perron=perron)
        final = trace.levels[-1].matrix
        sup = max(abs(float(final.get(i, j)) - sigma[i][j])
                  for i in range(incl.a) for j in range(incl.b))
        worst_abs = max(worst_abs, sup)
        worst_iters = max(worst_iters, trace.iterations)
        ok = ok and trace.converged and sup <= 1e-9 and trace.iterations <= 60
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    record_acceptance(3, ok, "100 random factorizable starts reach the "
                             f"standard distortion (abs sup {worst_abs:.2e} "
                             f"<= 1e-9, max {worst_iters} iterations, "
                             f"{elapsed:.2f}s < 5s)")
    assert ok


def test_acceptance_4_downward_feasibility():
    incl = a4()
    level0 = a4_distortion(incl)
    strict0 = downward_feasibility(incl, level0, mode="strict")
    level0_ok = (strict0.status == "Infeasible" and
                 strict0.certificate["candidate_pi"] == (F(1, 2), 0))

    level2 = phi_step(level0, incl)
    res2 = downward_feasibility(incl, level2, mode="strict")
    level2_ok = res2.feasible and res2.pi == (F(2, 5), F(1, 3))

    gamma = downward_distortion(level2, res2.pi)
    up = basic_construction_distortion(gamma, incl.dual)
    upward_ok = all(up.get(i, j) == level2.get(i, j)
                    for (i, j) in incl.graph.edges)
    gamma_ok = gamma.total == ((1, F(3, 2)), (2, 3))

    ok = level0_ok and level2_ok and gamma_ok and upward_ok
    record_acceptance(4, ok, "downward construction: level 0 strictly "
                             "infeasible with candidate (1/2,0), level 2 "
                             "feasible with pi=(2/5,1/3), exact round trip")
    assert ok


def test_acceptance_5_homogeneity_equivalences():
    rng = random.Random(271828)
    ok = True
    for case in range(200):
        incl = random_inclusion(rng, max_a=4, max_b=4)
        perron = perron_data(incl)
        sigma = standard_distortion(perron)
        rows = [[sigma[i][j] if incl.D[i][j] else None
                 for j in range(incl.b)] for i in range(incl.a)]
        base = as_distortion(rows, incl.graph)
        if case % 4 == 0:
            rho = tuple([F(rng.randint(1, 5), rng.randint(1, 5))] * incl.a)
        else:
            rho = tuple(F(rng.randint(1, 5), rng.randint(1, 5))
                        for _ in range(incl.a))
        delta = morita_distortion(base, incl, rho)
        rep = homogeneity_report(incl, delta, perron=perron, tol=1e-8)
        constant = len(set(rho)) == 1
        ok = ok and rep.all_flags_agree and (rep.homogeneous == constant)
    record_acceptance(5, ok, "H2-H7 pairwise identical on 200 rescalings of "
                             "the standard distortion; all true iff the "
                             "weights are constant (tol 1e-8)")
    assert ok


def test_acceptance_6_morita_rescaling():
    incl = a4()
    delta = a4_distortion(incl)
    perron = perron_data(incl)
    rho = rescale_to_standard(delta, incl)
    rho_ok = abs(rho[0] - 1) <= 1e-10 and abs(rho[1] - PHI) <= 1e-10

    sigma = standard_distortion(perron)
    back = morita_distortion(delta, incl, rho)
    back_ok = all(abs(float(back.get(i, j)) - sigma[i][j]) <= 1e-10
                  for i in range(2) for j in range(2))

    rho1 = MoritaWeights((F(2, 3), F(5, 7)))
    rho2 = MoritaWeights((F(3, 4), F(9, 2)))
    c = F(11, 6)
    gauge_ok = all(
        morita_distortion(delta, incl, rho1).get(i, j) ==
        morita_distortion(delta, incl,
                          tuple(c * r for r in rho1.rho)).get(i, j)
        for (i, j) in incl.graph.edges)
    comp_ok = all(
        morita_distortion(morita_distortion(delta, incl, rho1),
                          incl, rho2).get(i, j) ==
        morita_distortion(delta, incl, rho1.compose(rho2)).get(i, j)
        for (i, j) in incl.graph.edges)

    ok = rho_ok and back_ok and gauge_ok and comp_ok
    record_acceptance(6, ok, "rescale to standard gives rho=(1,phi) within "
                             "1e-10 and maps back to sigma within 1e-10; "
                             "gauge invariance and composition exact")
    assert ok


def test_acceptance_7_realizability_equivalence():
    rng = random.Random(161803)
    ok = True
    realizable_seen = 0
    for case in range(500):
        incl = random_inclusion(rng, max_a=6, max_b=6)
        if case % 2 == 0:
            delta, _, _ = random_factorized_delta(rng, incl, exact=True)
        else:
            eta = [F(rng.randint(1, 7), rng.randint(1, 7))
                   for _ in range(incl.a)]
            xi = [sum(eta[h] * incl.D[h][j] for h in range(incl.a))
                  for j in range(incl.b)]
            rows = [[xi[j] / eta[i] if incl.D[i][j] else None
                     for j in range(incl.b)] for i in range(incl.a)]
            delta = as_distortion(rows, incl.graph)
        res = realizability_check(delta, incl)
        column_sums_one = all(
            sum(F(incl.D[i][j]) / delta.get(i, j)
                for i in range(incl.a) if incl.D[i][j]) == 1
            for j in range(incl.b))
        ok = ok and (res.realizable == column_sums_one)
        realizable_seen += res.realizable
    ok = ok and realizable_seen >= 200
    record_acceptance(7, ok, "500 random factorized distortions on connected "
                             "supports (a,b <= 6): potential condition agrees "
                             "exactly with unit column sums of D/delta")
    assert ok


def test_acceptance_8_loop_basis_suite():
    t0 = time.perf_counter()
    pair = build_loop_algebra((1, 2), [[1, 0], [1, 1]])
    basis = pimsner_popa_basis(pair)
    report = verify_pp_identity(pair, basis)
    basis_ok = report["basis_size"] == 7
    watatani_ok = report["watatani_deviation"] <= 1e-10
    pp_ok = len(pair.n1_loops) == 13 and report["pp_deviation"] <= 1e-10

    T = transfer_matrix(pair)
    transfer_ok = T == ((1, 2), (F(1, 2), 2))
    for k in range(pair.k0):
        e_k = tuple(1 if i == k else 0 for i in range(pair.k0))
        col = central_transfer(pair, basis, e_k)  # loop route checked inside
        transfer_ok = transfer_ok and all(
            abs(float(col[i]) - float(T[i][k])) <= 1e-10
            for i in range(pair.k0))

    seq = density_sequence(pair, 20, basis=basis)
    density_ok = (seq.recursion_deviation <= 1e-10 and
                  all(abs(a - b) <= 1e-9
                      for a, b in zip(seq.levels[20], seq.h_inf)))
    elapsed = time.perf_counter() - t0
    ok = (basis_ok and watatani_ok and pp_ok and transfer_ok and density_ok
          and elapsed < 5.0)
    record_acceptance(8, ok, "loop engine: 7 basis elements, Watatani sum "
                             "d^2 (1e-10), Pimsner-Popa identity on all 13 "
                             "loops (1e-10), transfer matrix both routes "
                             "(1e-10), densities reach h_inf (1e-9), under 5s")
    assert ok


def test_acceptance_9_commuting_squares():
    spin = CommutingSquareData(Lambda_top=((1,), (1,)), Lambda_bot=((1, 1),),
                               V0=((1, 1),), V1=((1,), (1,)), m_N0=(1,))
    spin_ok = nondegeneracy_check(spin)

    degenerate = CommutingSquareData(Lambda_top=((2,),), Lambda_bot=((1,),),
                                     V0=((1,),), V1=((2,),), m_N0=(1,))
    degenerate_ok = not nondegeneracy_check(degenerate)

    shifted = basic_construction_square(spin)
    shifted_ok = nondegeneracy_check(shifted)
    twice = basic_construction_square(shifted)
    twice_ok = nondegeneracy_check(twice)

    ok = spin_ok and degenerate_ok and shifted_ok and twice_ok
    record_acceptance(9, ok, "commuting squares: spin-model square "
                             "nondegenerate, scalar square of index 4 "
                             "degenerate, basic construction preserves "
                             "nondegeneracy")
    assert ok
