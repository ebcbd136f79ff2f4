"""End-to-end acceptance checks, one test per headline claim.

Each test prints a single pass/fail line with its sweep size and runtime;
every comparison underneath is exact, so these either pass or expose a real
discrepancy. Budgets are wall-clock guards for the stated sweeps.
"""

import random
import time

from distlab.abgroup import euler_regulator_check, random_regulator_pair
from distlab.arith import prime_to_p_part, primes_of
from distlab.cyclotomic import (
    character_product_full,
    character_product_minus,
    h_minus,
    l_value_crosscheck,
    smoothing_det,
    smoothing_det_minus,
)
from distlab.distribution import cohomology_check
from distlab.lcomplex import (
    KINDS,
    acyclicity_check,
    det_check,
    homotopy_check,
    index_formula_check,
)
from distlab.spectral import (
    degeneration_check,
    e2_page_check,
    index_values_check,
    splitting_check,
)
from distlab.stickelberger import (
    alpha_image_index_check,
    antisymmetrization_index_check,
    minus_ideal_index_check,
)

PAGE_LEVELS = (4, 8, 9, 12, 15, 16, 105)
INDEX_LEVELS = (4, 5, 7, 8, 9, 12, 15, 16, 21, 24)
MINUS_LEVELS = (5, 7, 8, 9, 11, 12, 13, 15, 16, 20, 21, 23, 24, 33, 35, 105)


def levels_up_to(bound):
    return [m for m in range(3, bound + 1) if m % 4 != 2]


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_tate_closed_forms():
    t0 = time.perf_counter()
    bad = [m for m in levels_up_to(200) if not cohomology_check(m)["ok"]]
    dt = time.perf_counter() - t0
    report(
        1,
        not bad and dt < 300,
        f"Tate groups of both quotients match closed forms for all "
        f"{len(levels_up_to(200))} levels m <= 200 in {dt:.1f}s"
        + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_2_acyclicity_h0_homotopies():
    t0 = time.perf_counter()
    bad = [
        m
        for m in levels_up_to(120)
        if not (acyclicity_check(m)["ok"] and homotopy_check(m)["ok"])
    ]
    dt = time.perf_counter() - t0
    report(
        2,
        not bad,
        f"acyclicity, degree-zero lattices, and all homotopy identities exact "
        f"for m <= 120 in {dt:.1f}s" + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_3_determinant_products():
    t0 = time.perf_counter()
    bad = [m for m in levels_up_to(60) if not det_check(m)["ok"]]
    pairs = sorted(
        {(p, prime_to_p_part(m, p)) for m in levels_up_to(60) for p in primes_of(m)}
    )
    bad_pairs = [
        (p, f)
        for p, f in pairs
        if smoothing_det(p, f) * character_product_full(p, f) != 1
        or smoothing_det_minus(p, f) * character_product_minus(p, f) != 1
    ]
    dt = time.perf_counter() - t0
    report(
        3,
        not bad and not bad_pairs,
        f"alternating determinant products (full and minus) for m <= 60 and the "
        f"character-product identity for {len(pairs)} (p, f) pairs in {dt:.1f}s"
        + (f"; failures {bad} {bad_pairs}" if bad or bad_pairs else ""),
    )


def test_criterion_4_second_pages():
    t0 = time.perf_counter()
    bad = []
    for m in PAGE_LEVELS:
        for kind in KINDS:
            if not e2_page_check(m, kind)["ok"]:
                bad.append((m, kind, "e2"))
            if not splitting_check(m, kind)["ok"]:
                bad.append((m, kind, "splitting"))
            if not degeneration_check(m, kind)["ok"]:
                bad.append((m, kind, "degeneration"))
    dt = time.perf_counter() - t0
    report(
        4,
        not bad,
        f"page-2 closed forms, degree-one splitting, and page-2/3/4 degeneration "
        f"at m in {PAGE_LEVELS} in {dt:.1f}s" + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_5_correction_invariants():
    t0 = time.perf_counter()
    bad = [m for m in levels_up_to(120) if not index_values_check(m)["ok"]]
    dt = time.perf_counter() - t0
    report(
        5,
        not bad,
        f"correction invariants of both differentials equal the closed forms "
        f"for m <= 120 in {dt:.1f}s" + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_6_index_formula():
    t0 = time.perf_counter()
    bad = [m for m in INDEX_LEVELS if not index_formula_check(m)["equal"]]
    rng = random.Random(20260816)
    bad_trials = []
    for t in range(100):
        CA, CB, lam = random_regulator_pair(rng)
        if not euler_regulator_check(CA, CB, lam)["equal"]:
            bad_trials.append(t)
    dt = time.perf_counter() - t0
    report(
        6,
        not bad and not bad_trials,
        f"index formula exact at m in {INDEX_LEVELS} and regulator "
        f"multiplicativity on 100 seeded random pairs in {dt:.1f}s"
        + (f"; failures {bad} trials {bad_trials}" if bad or bad_trials else ""),
    )


def test_criterion_7_minus_part_indices():
    t0 = time.perf_counter()
    assert h_minus(23) == 3
    assert minus_ideal_index_check(105)["expected"] == 2 * h_minus(105)
    bad = []
    for m in MINUS_LEVELS:
        if not minus_ideal_index_check(m)["ok"]:
            bad.append((m, "minus-ideal"))
        if not alpha_image_index_check(m)["ok"]:
            bad.append((m, "alpha-image"))
        if not antisymmetrization_index_check(m)["ok"]:
            bad.append((m, "antisymmetrization"))
    dt = time.perf_counter() - t0
    report(
        7,
        not bad and dt < 600,
        f"minus-part index equals 2^a h-minus (with the alpha-image and "
        f"antisymmetrization indices) at all {len(MINUS_LEVELS)} levels in {dt:.1f}s"
        + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_8_oracle_self_consistency():
    t0 = time.perf_counter()
    tested = sorted(set(levels_up_to(40)) | set(MINUS_LEVELS))
    bad = [m for m in tested if h_minus(m) < 1]
    bad_float = [
        m
        for m in levels_up_to(40)
        if not all(row["ok"] for row in l_value_crosscheck(m))
    ]
    dt = time.perf_counter() - t0
    report(
        8,
        not bad and not bad_float,
        f"h-minus integral and positive at {len(tested)} levels; float L(1, chi) "
        f"cross-check within 1e-6 for m <= 40 in {dt:.1f}s"
        + (f"; failures {bad} {bad_float}" if bad or bad_float else ""),
    )
