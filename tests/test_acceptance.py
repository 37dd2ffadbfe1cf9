"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Lines are collected in ACCEPTANCE_LINES and echoed in a terminal
summary section by the conftest hook, so they appear regardless of
capture settings.  Criterion 6 is split: the solver half is checked
as stated; the verify-at-1e-6 half is recorded as an expected failure,
because the reference C/D matrices are printed to 8 decimals and carry
a per-cell error of about 2e-5 — only their summed-squares objective
reaches the 1e-9 scale, so no rounding of the same matrices can pass a
1e-6 per-cell gate.
"""

import time
from itertools import combinations_with_replacement

import numpy as np
import pytest

from corrgen import (
    Correlation,
    SchmidtSpectrum,
    SolveSettings,
    SubsetSumInstance,
    alternate,
    build_classical_hardness_instance,
    build_quantum_hardness_instance,
    check_all,
    classical_fidelity,
    decide_classical_hardness_instance,
    factorization_to_purification,
    lambda_candidates_from_purifications,
    mutual_information,
    purification_to_factorization,
    schmidt_basis_protocol,
    schmidt_spectrum,
    shannon_entropy,
    subset_sum_oracle,
    verify,
)

from conftest import random_verified_factorization


ACCEPTANCE_LINES = []


def report(num, desc, ok):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} — {desc}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def test_criterion_01_example1():
    t0 = time.perf_counter()
    rep = check_all(SchmidtSpectrum([0.5, 0.5]), Correlation([[0.3, 0.0], [0.0, 0.7]]))
    elapsed = time.perf_counter() - t0
    ms = rep.record("min_schmidt")
    others_pass = all(
        r.satisfied for r in rep.records
        if r.name in ("renyi", "holevo", "mutual_information_baseline"))
    ok = (abs(ms.rhs - 0.3) <= 1e-9 and rep.verdict == "RULED_OUT"
          and others_pass and elapsed < 0.1)
    assert report(1, "example 1: min-Schmidt rhs 0.3, RULED_OUT, rest pass, <0.1s", ok)


def test_criterion_02_example2():
    P = Correlation(np.array([[1, 4], [4, 0]]) / 9)
    spec = SchmidtSpectrum([8 / 9, 1 / 9])
    rep = check_all(spec, P)
    ok = (abs(mutual_information(P) - 0.59) <= 0.005
          and abs(shannon_entropy(spec.lambdas) - 0.5033) <= 0.0005
          and not rep.record("holevo").satisfied
          and rep.record("min_schmidt").satisfied)
    assert report(2, "example 2: Holevo fails, min-Schmidt passes", ok)


def test_criterion_03_example3():
    from corrgen import v2_classical
    P = Correlation(np.array([[2, 6], [3, 0]]) / 11)
    spec = SchmidtSpectrum([0.9, 0.1])
    rep = check_all(spec, P)
    lhs = float(np.sum(spec.lambdas ** 2))
    rhs = 1 - v2_classical(P) ** 2 / 2
    ok = (abs(lhs - 0.82) <= 1e-15 and abs(rhs - 0.7769) <= 0.0005
          and not rep.record("v2").satisfied
          and rep.record("holevo").satisfied)
    assert report(3, "example 3: sum λ² = 0.82, V₂ fails, Holevo passes", ok)


def test_criterion_04_example4():
    from corrgen import check_fidelity_sum, check_v2
    P = Correlation(np.array([[2, 6], [3, 0]]) / 11)
    spec = SchmidtSpectrum([21 / 25, 4 / 25])
    fid = check_fidelity_sum(spec, P)
    v2 = check_v2(spec, P)
    ok = (abs(fid.lhs - 85 / 121) <= 1e-9
          and abs(fid.rhs - 457 / 625) <= 1e-12
          and not fid.satisfied
          and v2.satisfied and abs(v2.rhs - 0.7769) <= 0.0005)
    assert report(4, "example 4: fidelity sum fails, V₂ passes", ok)


def test_criterion_05_example5():
    from corrgen import check_fidelity_sum, check_min_schmidt
    P = Correlation(np.array([[4, 1, 1], [1, 1, 0], [1, 0, 1]]) / 10)
    spec = SchmidtSpectrum([0.5, 0.5])
    fid = check_fidelity_sum(spec, P)
    ms = check_min_schmidt(spec, P)
    ok = (abs(fid.lhs - 0.82) <= 1e-9 and fid.satisfied
          and abs(ms.rhs - 0.4) <= 1e-12 and not ms.satisfied)
    assert report(5, "example 5: fidelity sum 0.82 passes, min-Schmidt rhs 0.4 fails", ok)


ALG = Correlation(np.array([[1, 1], [1, 0]]) / 3)
ALG_LAM = np.array([1 / np.sqrt(5), 2 / np.sqrt(5)])


def test_criterion_06a_worked_factorization_solver():
    t0 = time.perf_counter()
    out = alternate(ALG, ALG_LAM, 2, SolveSettings(restarts=10))
    elapsed = time.perf_counter() - t0
    ok = out.converged and out.objective <= 1e-8 and elapsed < 60
    assert report(6, f"worked factorization: objective {out.objective:.2e} "
                     f"<= 1e-8 in {elapsed:.1f}s (< 60s)", ok)


@pytest.mark.xfail(
    strict=True,
    reason="the reference C/D matrices are printed to 8 decimals; their "
           "per-cell residual is ~2e-5, so a 1e-6 verify tolerance is "
           "unattainable for any faithful implementation")
def test_criterion_06b_reference_matrices_verify_at_1e6():
    C = np.array([
        [[0.26801401, 0.22523125], [0.22523125, 0.61132503]],
        [[0.17919958, -0.22523125], [-0.22523125, 0.28310216]],
    ])
    D = np.array([
        [[0.12072403, -0.26145645], [-0.26145645, 0.68499394]],
        [[0.32648956, 0.26145646], [0.26145646, 0.20943325]],
    ])
    from corrgen import DiagonalPsdFactorization
    res = verify(ALG, DiagonalPsdFactorization(C, D, ALG_LAM), tol=1e-6)
    report(6, f"reference-matrix verify at 1e-6 (residual {res.residual:.2e}; "
              "expected failure, see module docstring)", res.ok)
    assert res.ok


def test_criterion_07_lemma2_round_trip(rng):
    worst_table = worst_spec = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        F, P = random_verified_factorization(rng, n, m, k)
        bundle = factorization_to_purification(F)
        G = purification_to_factorization(bundle)
        worst_table = max(worst_table, float(np.max(np.abs(G.trace_table() - P.matrix))))
        lam = schmidt_spectrum(bundle.induced_state()).lambdas
        want = np.sort(F.squared_lambdas())[::-1]
        worst_spec = max(worst_spec, float(np.max(np.abs(lam - want))))
    ok = worst_table <= 1e-8 and worst_spec <= 1e-8
    assert report(7, f"Lemma-style round trip: table err {worst_table:.1e}, "
                     f"spectrum err {worst_spec:.1e} (both <= 1e-8)", ok)


def test_criterion_08_lambda_candidates():
    cands = lambda_candidates_from_purifications(ALG)
    ok = (len(cands) == 2
          and np.max(np.abs(cands[0] - [0.9342, 0.3568])) <= 5e-4
          and np.max(np.abs(cands[1] - [0.8165, 0.5774])) <= 5e-4)
    assert report(8, "Λ candidates (0.9342, 0.3568) and (0.8165, 0.5774)", ok)


def test_criterion_09_reduction_oracle_equivalence():
    t0 = time.perf_counter()
    count = mismatches = witness_failures = 0
    for r in range(1, 11):
        for items in combinations_with_replacement(range(1, 10), r):
            count += 1
            inst = SubsetSumInstance(items)
            oracle = subset_sum_oracle(inst)
            exact = decide_classical_hardness_instance(
                build_classical_hardness_instance(inst))
            if oracle.satisfiable != exact.satisfiable:
                mismatches += 1
            if oracle.satisfiable:
                q = build_quantum_hardness_instance(inst)
                chosen = set(oracle.witness)
                subset = [p for p, oi in enumerate(q.item_order) if oi in chosen]
                F = schmidt_basis_protocol(q.spectrum, subset)
                if not verify(q.target, F, tol=1e-9).ok:
                    witness_failures += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and witness_failures == 0 and elapsed < 300 and count > 2000
    assert report(9, f"reduction equivalence on {count} instances, "
                     f"{mismatches} mismatches, {witness_failures} bad witnesses, "
                     f"{elapsed:.0f}s (< 300s)", ok)


def test_criterion_10_soundness(rng):
    false_rejections = 0
    for _ in range(500):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        F, P = random_verified_factorization(rng, n, m, k)
        spec = SchmidtSpectrum(np.sort(F.squared_lambdas())[::-1])
        if check_all(spec, P).verdict == "RULED_OUT":
            false_rejections += 1
    ok = false_rejections == 0
    assert report(10, f"soundness: {false_rejections}/500 false rejections", ok)


def test_criterion_11_monotonicity(rng):
    # the history records f at the start point and after every step
    worst_drift = 0.0
    shortest = np.inf
    settings = SolveSettings(restarts=1, max_outer_iters=30)
    for run in range(50):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        k = int(rng.integers(1, 3))
        P = Correlation(rng.dirichlet(np.ones(n * m)).reshape(n, m))
        lam = np.sqrt(rng.dirichlet(np.ones(k)))
        out = alternate(P, lam, k, SolveSettings(
            restarts=1, max_outer_iters=30, rng_seed=settings.rng_seed + run))
        h = out.objective_history
        shortest = min(shortest, len(h))
        for a, b in zip(h, h[1:]):
            worst_drift = max(worst_drift, b - a)
    ok = worst_drift <= 1e-12 and shortest >= 2
    assert report(11, f"monotone objective: worst upward drift {worst_drift:.1e} "
                      f"over histories of >= {shortest} entries", ok)
