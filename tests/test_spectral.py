"""Tests for the involution double complexes and their filtration pages."""

import json
import sys
from argparse import Namespace
from collections import Counter
from pathlib import Path

import pytest

from dense import dense, mat_equal, zeros
from distlab import abgroup, cli, exact_linalg, spectral
from distlab.abgroup import BoundedComplex, FgAbGroup, JComplex, elementary_power, i_invariant
from distlab.distribution import universal_distribution, universal_predistribution
from distlab.exact_linalg import _transpose, hnf, kernel_basis, to_int
from distlab.lcomplex import (
    AVERAGE,
    DIFFERENCE,
    KINDS,
    acyclicity_check,
    build_jcomplex,
    differentials,
    involution,
    symbol_basis,
)
from distlab.spectral import (
    FULL,
    HALF,
    DoubleComplex,
    abutment_check,
    build_double,
    degeneration_check,
    e1_page_check,
    e1_row0_rank,
    e2_page_check,
    index_expected,
    index_page_product,
    index_values_check,
    page_homology_check,
    scaled_rows_check,
    splitting_check,
)


def _block(dc, src, tgt):
    """Dense view of the total differential's columns from the entries src to the entries tgt."""
    cols = dc._columns(src, tgt)
    return dense(_transpose(cols, sum(dc.rank(*pq) for pq in tgt)), len(cols))


def _delta(dc, p, q):
    return _block(dc, [(p, q)], [(p, q + 1)])


def _d(dc, p, q):
    return _block(dc, [(p, q)], [(p + 1, q)])


def _total_d(dc, n):
    return _block(dc, dc.total_entries(n), dc.total_entries(n + 1))


def test_total_differential_squares_to_zero():
    dc = build_double(12, DIFFERENCE, FULL)
    for p in range(-2, 0):
        for q in range(-2, 4):
            a = _delta(dc, p, q + 1) @ _delta(dc, p, q)
            assert mat_equal(a, zeros(*a.shape))
            b = _d(dc, p, q + 1) @ _delta(dc, p, q) + _delta(dc, p + 1, q) @ _d(dc, p, q)
            assert mat_equal(b, zeros(*b.shape))
    # The assembled total differential, over the whole window and one
    # degree past each end of it.
    for m in (8, 12, 21):
        for kind in KINDS:
            for variant in (HALF, FULL):
                dc = build_double(m, kind, variant)
                for n in range(dc.p_lo + dc.q_lo - 1, dc.q_hi + 2):
                    a = _total_d(dc, n + 1) @ _total_d(dc, n)
                    assert a.shape == (dc.total_rank(n + 2), dc.total_rank(n))
                    assert mat_equal(a, zeros(*a.shape)), (m, kind, variant, n)


def _failing_spectral_items(m):
    """Run the items of ``distlab spectral`` at level m in process; the names that fail."""
    records = cli._run_items(cli.suite_spectral(m, Namespace()))
    return [r["name"] for r in records if not r["pass"]]


@pytest.mark.parametrize("m", [5, 8, 12, 21])
def test_each_level_object_has_one_owner(m):
    """A level's complexes, quotients and fixed parts are built once and
    read by every check; after the checks have run on them in the CLI's
    order, they still agree with fresh, unshared builds."""
    for kind in KINDS:
        jc = build_jcomplex(m, kind)
        assert build_jcomplex(m, kind) is jc
        assert build_double(m, kind, HALF).jc is jc
        assert build_double(m, kind, FULL).jc is jc
        assert build_double(m, kind, HALF)._store is jc.pages
        assert jc.fixed_subcomplex() is jc.fixed_subcomplex()
        assert jc.complex.cohomology_data(0) is jc.complex.cohomology_data(0)
    assert universal_distribution(m) is universal_distribution(m)
    assert universal_predistribution(m) is universal_predistribution(m)

    assert acyclicity_check(m)["ok"]
    assert _failing_spectral_items(m) == []
    sb = symbol_basis(m)
    for kind in KINDS:
        jc = build_jcomplex(m, kind)
        fresh = JComplex(BoundedComplex(sb.ranks, differentials(m, kind)), involution(m))
        assert i_invariant(jc) == i_invariant(fresh)
        (fixed, bases), (fixed0, bases0) = jc.fixed_subcomplex(), fresh.fixed_subcomplex()
        assert fixed.ranks == fixed0.ranks
        for i in jc.complex.degrees():
            assert bases[i] == bases0[i]
            assert jc.complex.cohomology(i) == fresh.complex.cohomology(i)
            assert fixed.cohomology(i) == fixed0.cohomology(i)


def test_a_rebuilt_level_gets_one_complex_and_one_store():
    # build_jcomplex keeps 8 complexes, so five more levels evict level 5's
    half = build_double(5, DIFFERENCE, HALF)
    for m in (7, 8, 9, 12, 13):
        for kind in KINDS:
            build_jcomplex(m, kind)
    jc = build_jcomplex(5, DIFFERENCE)
    assert jc is not half.jc
    for variant in (HALF, FULL):
        dc = build_double(5, DIFFERENCE, variant)
        assert dc.jc is jc and dc._store is jc.pages


def test_index_invariant_is_kept_on_its_complex(monkeypatch):
    from distlab import abgroup

    values = {kind: i_invariant(build_jcomplex(12, kind)) for kind in KINDS}

    def refuse(*args):
        raise AssertionError("the index invariant was computed again")

    # the invariant's numerator is the odd Tate group of c on H^0
    monkeypatch.setattr(abgroup, "_tate_group", refuse)
    res = index_values_check(12)
    for kind in KINDS:
        assert i_invariant(build_jcomplex(12, kind)) == values[kind] == res[kind]["value"]


def test_interior_predicate():
    half = build_double(12, DIFFERENCE, HALF)
    full = build_double(12, DIFFERENCE, FULL)
    assert half.interior(0, 5, 2)
    assert not half.interior(0, 6, 1)  # numerator needs the row above
    assert not half.interior(0, 5, 3)
    assert full.interior(0, -3, 1)
    assert not full.interior(0, -4, 1)
    assert not full.interior(-1, -3, 1)


@pytest.mark.parametrize("m", [12, 21, 105])
def test_interior_cells_is_the_window_loop(m):
    for variant in (HALF, FULL):
        dc = build_double(m, DIFFERENCE, variant)
        for r in range(1, 5):
            want = [
                (p, q)
                for p in range(symbol_basis(m).lo, 1)
                for q in range(dc.q_lo, dc.q_hi + 1)
                if dc.interior(p, q, r)
            ]
            assert list(dc.interior_cells(r)) == want
            if variant == HALF:
                # the row-0 checks of the half variant ride on the same walk
                assert {p for p, q in want if q == 0} == set(range(dc.p_lo, 1))


def test_first_page_bottom_row_ranks():
    assert e1_row0_rank(12, 0) == 5
    assert e1_row0_rank(12, -1) == 3
    assert e1_row0_rank(12, -2) == 0
    assert e1_row0_rank(3, 0) == 1
    assert e1_row0_rank(3, -1) == 0


@pytest.mark.parametrize("m", [3, 4, 9, 12, 15])
@pytest.mark.parametrize("kind", KINDS)
def test_first_page_closed_forms(m, kind):
    assert e1_page_check(m, kind)["ok"]


@pytest.mark.parametrize("m", [3, 4, 8, 9, 12, 15, 16])
@pytest.mark.parametrize("kind", KINDS)
def test_second_page(m, kind):
    res = e2_page_check(m, kind)
    assert res["closed_forms"]
    assert res["row0_fixed_subcomplex"]
    assert res["stable_corner"]


def test_second_page_pinned_values():
    half = build_double(12, DIFFERENCE, HALF)
    assert half.e_term(0, 1, 2) == elementary_power(2, 1)
    assert half.e_term(-1, 1, 2) == elementary_power(2, 2)
    assert half.e_term(-2, 1, 2) == elementary_power(2, 1)
    assert half.e_term(-1, 2, 2).is_trivial
    two = build_double(16, AVERAGE, HALF)
    assert two.e_term(0, 1, 2) == FgAbGroup(0, (2,))
    assert two.e_term(-1, 3, 2) == FgAbGroup(0, (2,))
    assert two.e_term(0, 2, 2).is_trivial
    odd = build_double(15, AVERAGE, HALF)
    assert odd.e_term(0, 1, 2).is_trivial


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("variant", [HALF, FULL])
def test_pages_are_homology_of_previous(kind, variant):
    assert page_homology_check(12, kind, variant)["ok"]


def test_pages_are_homology_of_previous_three_primes_sample():
    # one deeper level keeps the slack-variable route honest at r = 3
    assert page_homology_check(30, DIFFERENCE, HALF)["ok"]


@pytest.mark.parametrize("m", [4, 9, 12, 16])
@pytest.mark.parametrize("kind", KINDS)
def test_full_variant_degenerates_at_page_two(m, kind):
    assert degeneration_check(m, kind)["ok"]


@pytest.mark.parametrize("m", [3, 4, 9, 12, 16])
@pytest.mark.parametrize("kind", KINDS)
def test_abutment_matches_degree_zero_cohomology(m, kind):
    res = abutment_check(m, kind)
    assert res["ok"], res


@pytest.mark.parametrize("m", [3, 4, 9, 12, 15, 16])
@pytest.mark.parametrize("kind", KINDS)
def test_degree_one_abutment_splits_into_page_terms(m, kind):
    assert splitting_check(m, kind)["ok"]


@pytest.mark.parametrize("m", [3, 4, 9, 12, 15, 16])
def test_scaled_fixed_rows_subcomplex(m):
    res = scaled_rows_check(m)
    assert res["column_exact"]
    assert res["maps_integral"]
    assert res["d_stable"]


def test_index_closed_forms():
    assert index_expected(4, DIFFERENCE) == 2
    assert index_expected(15, DIFFERENCE) == 2
    assert index_expected(105, DIFFERENCE) == 4
    assert index_expected(16, AVERAGE) == 2
    assert index_expected(15, AVERAGE) == 1


@pytest.mark.parametrize("m", [3, 4, 8, 9, 12, 15, 16, 24])
def test_index_invariants(m):
    assert index_values_check(m)["ok"]


@pytest.mark.parametrize("m", [4, 5, 8, 12, 15, 16, 21])
def test_index_invariants_as_page_products(m):
    res = index_values_check(m)
    assert res["ok"]
    for kind in KINDS:
        assert index_page_product(m, kind) == res[kind]["value"]


def test_verify_bundle():
    assert _failing_spectral_items(15) == []


# ---------------------------------------------------------------------------
# the shared page store: keys must name everything a result is built from


def _variants(m, kind):
    return [build_double(m, kind, variant) for variant in (HALF, FULL)]


def test_variants_of_a_level_share_complex_and_store():
    half, full = _variants(12, DIFFERENCE)
    assert half.jc is full.jc
    assert half._store is full._store
    assert build_double(12, DIFFERENCE, FULL, 4)._store is half._store
    assert (half.q_lo, full.q_lo, build_double(12, DIFFERENCE, FULL, 4).q_hi) == (0, -4, 4)
    assert build_double(12, AVERAGE, HALF)._store is not half._store
    own = DoubleComplex(half.jc, HALF)
    assert own._store is not half._store


@pytest.mark.parametrize("m", [5, 7, 8, 12, 21])
@pytest.mark.parametrize("kind", KINDS)
def test_shared_store_matches_an_emptied_store(m, kind):
    """Every cell of pages 1-4, interior or not, and every total degree of
    the window, read through the store both variants share, against the
    same call computed from scratch."""
    sb = symbol_basis(m)
    shared = _variants(m, kind)
    # fill the shared store from both variants before any comparison, so
    # that a key missing an ingredient returns another cell's result
    for r in range(1, 5):
        for dc in shared:
            for p in range(sb.lo, 1):
                for q in range(dc.q_lo, dc.q_hi + 1):
                    dc.e_term(p, q, r)
    for dc in shared:
        fresh = DoubleComplex(dc.jc, dc.variant, dc.q_hi)
        for r in range(1, 5):
            for p in range(sb.lo, 1):
                for q in range(dc.q_lo, dc.q_hi + 1):
                    fresh._store.clear()
                    assert dc.e_term(p, q, r) == fresh.e_term(p, q, r), (dc.variant, p, q, r)
        for n in range(dc.p_lo + dc.q_lo, dc.q_hi + 1):
            fresh._store.clear()
            assert dc.total_cohomology(n) == fresh.total_cohomology(n), (dc.variant, n)


def _staircase(dc, p, q, length):
    """The assembled staircase at (p, q) of this length and its component offsets."""
    src = [(p + i, q - i) for i in range(length)]
    offsets = [0]
    for pq in src:
        offsets.append(offsets[-1] + dc.rank(*pq))
    return _block(dc, src, [(a, b + 1) for a, b in src]), offsets


def _same_matrices(a, b):
    return len(a) == len(b) and all(
        x.shape == y.shape and mat_equal(x, y) for x, y in zip(a, b)
    )


@pytest.mark.parametrize("m", [8, 12, 60])
def test_equal_keys_give_equal_inputs(m):
    """Cells whose store keys agree are built from equal matrices, across
    both variants and both row parities; 60 is the first level whose page-4
    denominators reach three columns back."""
    sb = symbol_basis(m)
    seen: dict = {}
    across_variants = set()

    def record(key, mats, variant):
        if key in seen:
            mats0, variant0 = seen[key]
            assert _same_matrices(mats, mats0), key
            if variant != variant0:
                across_variants.add(key[0])
        else:
            seen[key] = (mats, variant)

    for kind in KINDS:
        jc = build_double(m, kind, HALF).jc
        for variant in (HALF, FULL):
            dc = DoubleComplex(jc, variant)
            for r in range(1, 5):
                for p in range(sb.lo, 1):
                    for q in range(dc.q_lo, dc.q_hi + 1):
                        record((kind, dc._stair(p, q, r)), _staircase(dc, p, q, r)[:1], variant)
                        mats = [_staircase(dc, p, q, r)[0], _delta(dc, p, q - 1), _d(dc, p - 1, q)]
                        if r >= 2:
                            mats.append(_staircase(dc, p - r + 1, q + r - 2, r - 1)[0])
                        record((kind,) + dc._e_key(p, q, r), mats, variant)
            for n in range(dc.p_lo + dc.q_lo, dc.q_hi + 1):
                record((kind,) + dc._total_key(n), [_total_d(dc, n), _total_d(dc, n - 1)], variant)
    assert across_variants == set(KINDS)


def _is_kernel_basis(rows, M):
    """Whether the sparse rows are a basis of the integral kernel of M.

    The oracle is the Smith kernel of the assembled matrix; the two
    lattices are compared through their Hermite forms."""
    c = M.shape[1]
    got = hnf(rows, c)
    return len(rows) == len(got) and got == hnf(kernel_basis(to_int(M), c), c)


@pytest.mark.parametrize("m", [5, 7, 8, 12, 15, 16, 20, 21, 60])
def test_zig_rows_are_a_basis_of_the_staircase_kernel(m):
    """The zig-zags solved one component at a time on the orbits of c span
    the kernel of the assembled staircase: the numerator and denominator
    staircases of every cell of pages 1-5, inside the window or at its
    edges, and the full staircases of the total complex, in both variants
    and for both kinds."""
    for kind in KINDS:
        jc = build_jcomplex(m, kind)
        for variant in (HALF, FULL):
            dc = DoubleComplex(jc, variant)
            seen = set()
            for r in range(1, 6):
                for p in range(dc.p_lo, 1):
                    for q in range(dc.q_lo, dc.q_hi + 1):
                        cells = [(p, q, r)] + ([(p - r + 1, q + r - 2, r - 1)] if r >= 2 else [])
                        for cell in cells:
                            if dc._stair(*cell) in seen:
                                continue  # equal keys, equal staircases
                            seen.add(dc._stair(*cell))
                            rows, offsets = dc._zig(*cell)
                            M, want = _staircase(dc, *cell)
                            assert offsets == want, (kind, variant, cell)
                            assert _is_kernel_basis(rows, M), (kind, variant, cell)
            for n in range(dc.p_lo + dc.q_lo - 1, dc.q_hi + 2):
                rows, offsets = dc._zig(dc.p_lo, n - dc.p_lo, 1 - dc.p_lo)
                assert offsets[-1] == dc.total_rank(n)
                assert _is_kernel_basis(rows, _total_d(dc, n)), (kind, variant, n)


def test_window_edges_take_the_constraint_route(monkeypatch):
    """Where the window clips a staircase, the conditions on the shorter
    kernel no longer vanish and one step calls the row kernel ``_kernel``:
    below the half variant's row 0 and above the top row of either variant."""
    calls = []
    kernel = spectral._kernel

    def counted(M, c):
        calls.append((len(M), c))
        return kernel(M, c)

    monkeypatch.setattr(spectral, "_kernel", counted)
    for variant, cell in ((HALF, (-1, 0, 2)), (HALF, (-2, 6, 2)), (FULL, (-2, 6, 2))):
        dc = DoubleComplex(build_jcomplex(12, DIFFERENCE), variant)
        before = len(calls)
        rows, _ = dc._zig(*cell)
        assert len(calls) == before + 1, (variant, cell)
        assert _is_kernel_basis(rows, _staircase(dc, *cell)[0]), (variant, cell)


def test_interior_zig_zags_need_no_smith_form(monkeypatch):
    """Pages 1-4 at 21 are solved on the orbits of c alone: no ``_kernel``
    call on any interior cell of the full variant, nor on any interior cell
    of the half variant whose staircase stays on the rows q >= 0 (below
    them the half variant is zero, an edge of its window)."""

    def refuse(M, c):
        raise AssertionError(f"_kernel on {len(M)} rows of width {c}")

    monkeypatch.setattr(spectral, "_kernel", refuse)
    built = skipped = 0
    for kind in KINDS:
        jc = build_jcomplex(21, kind)
        for variant in (HALF, FULL):
            dc = DoubleComplex(jc, variant)
            for r in range(1, 5):
                for p, q in dc.interior_cells(r):
                    if variant == HALF and q - min(r - 1, -p) < 0:
                        skipped += 1
                        continue
                    dc.e_term(p, q, r)
                    built += 1
    assert (built, skipped) == (284, 16)


def test_checks_read_coordinates_off_hermite_rows(monkeypatch):
    """A work contract that does not depend on load: at 21, the page,
    degeneration and abutment checks of both kinds never call
    ``solve_exact``, ``spectral`` builds no dense view, and it takes a
    Smith form (``_kernel``) only for the window-edge conditions of
    ``_extend`` (and in ``e_via_homology``, which these checks do not run)."""
    solves, kernel_from, quotients = [], Counter(), []
    solve, kernel, subquotient = exact_linalg.solve_exact, spectral._kernel, spectral.subquotient_group

    def counted_solve(*args):
        solves.append(args)
        return solve(*args)

    def counted_kernel(*args, **kwargs):
        kernel_from[sys._getframe(1).f_code.co_name] += 1
        return kernel(*args, **kwargs)

    def counted_subquotient(*args):
        quotients.append(args[2])
        return subquotient(*args)

    monkeypatch.setattr(exact_linalg, "solve_exact", counted_solve)
    monkeypatch.setattr(abgroup, "solve_exact", counted_solve)
    monkeypatch.setattr(spectral, "_kernel", counted_kernel)
    monkeypatch.setattr(spectral, "subquotient_group", counted_subquotient)
    # cold caches, so that every page and total group is computed here
    spectral._double.cache_clear()
    build_jcomplex.cache_clear()
    for kind in KINDS:
        for check in (e1_page_check, e2_page_check, degeneration_check, abutment_check):
            assert check(21, kind)["ok"], (check.__name__, kind)
    assert solves == []
    assert not hasattr(spectral, "_dense")
    assert set(kernel_from) <= {"_extend", "e_via_homology"}, kernel_from
    assert kernel_from["_extend"] and quotients


_GOLDEN = json.loads((Path(__file__).parent / "data" / "pages_golden.json").read_text())


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_pages_are_pinned(name):
    """Pages 1-4 on the whole window and the total cohomology in degrees
    -1..2, recorded before the page store was shared between variants;
    most of these cells are never read by the checks."""
    m, kind, variant = name.split("/")
    dc = build_double(int(m), kind, variant)
    want = _GOLDEN[name]
    got = {}
    for cell in want["pages"]:
        p, q, r = map(int, cell.split(","))
        got[cell] = str(dc.e_term(p, q, r))
    assert got == want["pages"]
    assert {n: str(dc.total_cohomology(int(n))) for n in want["total"]} == want["total"]
