"""Graded symbol complexes: structure, homotopy calculus, index identities."""

from fractions import Fraction
from math import lcm, prod

import numpy as np
import pytest

from dense import dense, eye, mat_equal, scaled, zeros
from distlab import abgroup, distribution, lcomplex
from distlab.abgroup import (
    BoundedComplex,
    JComplex,
    abstract_index_check,
    fixed_basis,
    fixed_restriction,
    i_invariant,
    theta_fixed,
)
from distlab.arith import multiplicative_order, prime_to_p_part, primes_of
from distlab.distribution import (
    negation_matrix,
    smoothing_check,
    smoothing_factor_scaled,
    universal_distribution,
    universal_predistribution,
)
from distlab.exact_linalg import Lattice, det_exact, hnf, kernel_basis, solve_exact, to_int
from distlab.lcomplex import (
    AVERAGE,
    DIFFERENCE,
    KINDS,
    AveragedLevel,
    acyclicity_check,
    build_complex,
    build_jcomplex,
    det_check,
    differentials,
    epsilon,
    homotopy_check,
    index_formula_check,
    intertwine_check,
    involution,
    level_inclusion_check,
    smoothing_blocks_scaled,
    symbol_basis,
)
from distlab.stickelberger import smoothing_minus_image_check


def test_symbol_basis_bookkeeping():
    sb = symbol_basis(12)
    assert sb.ranks == {0: 12, -1: 10, -2: 2}
    assert sb.blocks == {0: (1,), -1: (2, 3), -2: (6,)}
    # positions are consecutive within a degree, blocks in ascending order
    assert sb.position(2, 0) == 0
    assert sb.position(2, 5) == 5
    assert sb.position(3, 0) == 6
    assert sb.position(3, -1) == 9  # point index wraps modulo the block size
    assert list(sb.symbols(-2)) == [(6, 0), (6, 1)]


def test_epsilon_alternates_over_primes():
    assert epsilon(30, 2) == -1
    assert epsilon(30, 3) == 1
    assert epsilon(30, 5) == -1
    assert epsilon(15, 3) == -1
    assert epsilon(15, 5) == 1
    assert epsilon(15, 2) == 0


@pytest.mark.parametrize("m", [30, 420])
def test_complexes_validate_at_three_primes(m):
    for kind in KINDS:
        jc = build_jcomplex(m, kind)  # constructor checks d^2 = 0, c d = d c
        assert jc.complex.rank(0) == m
        ps = primes_of(m)
        assert jc.complex.rank(-len(ps)) == m // prod(ps)


def test_structural_checks_reject_violations():
    ranks = dict(symbol_basis(12).ranks)
    d = differentials(12, DIFFERENCE)
    d[-2][0][0] = d[-2][0].get(0, 0) + 1
    with pytest.raises(ValueError, match=r"^d\^2 != 0 between degrees -2 and 0: entry \(6, 0\) is 1$"):
        BoundedComplex(ranks, d)

    # A 3-cycle on the points 1, 2, 3 of the block of 3 (positions 7, 8, 9),
    # which negation pairs as {1, 3} and fixes at 2.
    C = build_complex(12, DIFFERENCE)
    c = involution(12)
    assert c[-1][6:] == [6, 9, 8, 7]
    c[-1][7:] = [8, 9, 7]
    with pytest.raises(ValueError, match="^involution at degree -1 does not square to 1$"):
        JComplex(C, c)

    # Swapping the pair {1, -1} = {1, 11} keeps c[0] an involution (it now
    # fixes both points) but breaks c d = d c into degree 0.
    c = involution(12)
    c[0][1], c[0][11] = c[0][11], c[0][1]
    assert all(c[0][j] == k for k, j in enumerate(c[0]))
    with pytest.raises(ValueError, match="^involution does not commute with d at degree -1: row 1 differs$"):
        JComplex(C, c)

    # Differentials and involutions are maps of free Z-modules.
    d = differentials(12, DIFFERENCE)
    d[-1][0][0] = Fraction(1, 2)
    with pytest.raises(ValueError, match="is not an integer"):
        BoundedComplex(ranks, d)
    c = involution(12)
    c[0][0] = Fraction(0)
    with pytest.raises(ValueError, match="is not an integer"):
        JComplex(C, c)


def _set(degree, k, value):
    def edit(c):
        c[degree][k] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda c: c[0].pop(), "^involution at degree 0 is not a permutation of 12 indices$"),
        (lambda c: c[-1].append(10), "^involution at degree -1 is not a permutation of 10 indices$"),
        (_set(0, 1, 2), "^involution at degree 0 is not a permutation of 12 indices$"),
        (_set(0, 1, 12), "^involution at degree 0 is not a permutation of 12 indices$"),
        (_set(-2, 1, -1), "^involution at degree -2 is not a permutation of 2 indices$"),
        (_set(0, 0, 0.0), "^involution at degree 0: entry 0.0 is not an integer$"),
        (_set(-2, 1, True), "^involution at degree -2: entry True is not an integer$"),
        (_set(-2, 0, np.int64(0)), "^involution at degree -2: entry .*0.* is not an integer$"),
        (lambda c: c.update({1: []}), "^involution at degree 1, outside the complex$"),
        (lambda c: c.update({-3: [0]}), "^involution at degree -3, outside the complex$"),
    ],
    ids=[
        "short",
        "long",
        "repeated_entry",
        "entry_past_the_rank",
        "negative_entry",
        "float_entry",
        "bool_entry",
        "numpy_int_entry",
        "degree_above",
        "degree_below",
    ],
)
def test_jcomplex_rejects_a_malformed_permutation(edit, message):
    c = involution(12)
    edit(c)
    with pytest.raises(ValueError, match=message):
        JComplex(build_complex(12, DIFFERENCE), c)


def test_jcomplex_fills_missing_degrees_with_the_identity():
    C = build_complex(12, AVERAGE)
    given = {-2: [0, 1]}
    jc = JComplex(C, given)
    assert jc.involution == {-2: [0, 1], -1: list(range(10)), 0: list(range(12))}
    assert given == {-2: [0, 1]}  # the caller's dict is left as it was
    jc = JComplex(C, involution(12))
    # c is read as its permutation: column k of the negation matrix is e_c(k)
    assert mat_equal(eye(12)[:, jc.involution[0]], dense(negation_matrix(12), 12))


@pytest.mark.parametrize("m", [3, 4, 9, 12, 16, 18])
def test_acyclic_with_degree_zero_quotients(m):
    assert acyclicity_check(m)["ok"]


def test_degree_zero_cohomology_injects_into_deeper_levels():
    assert level_inclusion_check(4, 3)["ok"]
    assert level_inclusion_check(5, 2)["ok"]


@pytest.mark.parametrize("m", [4, 9, 12, 30])
def test_homotopy_identities(m):
    r = homotopy_check(m)
    for kind in KINDS:
        assert all(r[kind].values()), (m, kind, r[kind])


def test_averaged_differential_matches_symbol_differential():
    # redundant with homotopy_check but pins the change-of-basis contract
    av = AveragedLevel(12, DIFFERENCE)
    d = differentials(12, DIFFERENCE)
    lhs = dense(d[-1], av.rank(-1)) @ dense(av.change[-1], av.rank(-1))
    rhs = dense(av.change[0], av.rank(0)) @ dense(av.full_d(-1), av.rank(-1))
    assert mat_equal(lhs, rhs)


@pytest.mark.parametrize("m", [12, 20, 27])
def test_smoothing_intertwines_and_commutes(m):
    assert intertwine_check(m)["ok"]


def _smoothing_blocks(m):
    """Per-degree smoothing operator as ``Fraction`` matrices."""
    return {i: dense(N, len(N), d) for i, (N, d) in smoothing_blocks_scaled(m).items()}


@pytest.mark.parametrize("m", [m for m in range(3, 41) if m % 4 != 2])
def test_smoothing_blocks_match_fraction_product(m):
    sb = symbol_basis(m)
    blocks = _smoothing_blocks(m)
    assert sorted(blocks) == list(range(sb.lo, 1))
    for i in range(sb.lo, 1):
        ref = zeros(sb.ranks[i], sb.ranks[i]) + Fraction(0)
        off = 0
        for g in sb.blocks[i]:
            s = m // g
            factors = [_fraction_factor(s, p) for p in sb.primes if g % p]
            blk = factors[0] if factors else eye(s)
            for F in factors[1:]:
                blk = F @ blk
            ref[off : off + s, off : off + s] = blk
            off += s
        assert mat_equal(blocks[i], ref), (m, i)
        assert all(type(x) is Fraction for x in blocks[i].flat)


def _fraction_factor(m, p):
    N, d = smoothing_factor_scaled(m, p)
    return dense(N, m, d)


def _perturb_top_factor(monkeypatch, request, m):
    """Make the degree-zero smoothing operator wrong by 1/p in one entry.

    The memoised products are dropped now and at teardown, as in
    ``test_distribution._perturb_factor``.
    """
    distribution._smoothing_product.cache_clear()
    request.addfinalizer(distribution._smoothing_product.cache_clear)
    p0 = primes_of(m)[0]
    real = distribution.smoothing_factor_scaled

    def perturbed(s, p):
        N, d = real(s, p)
        if (s, p) == (m, p0):
            N, d = [{j: x * p for j, x in row.items()} for row in N], d * p
            N[0][1] = N[0].get(1, 0) + d // p
        return N, d

    monkeypatch.setattr(distribution, "smoothing_factor_scaled", perturbed)


@pytest.mark.parametrize("m", [9, 12, 15])
def test_intertwine_check_sees_a_perturbed_entry(monkeypatch, request, m):
    _perturb_top_factor(monkeypatch, request, m)
    res = intertwine_check(m)
    assert not res["intertwines"] and not res["ok"]


def test_each_smoothing_product_is_built_once(monkeypatch, request):
    # intertwine_check and index_formula_check read every block of the
    # symbol operator, smoothing_check and smoothing_minus_image_check the
    # degree-zero one on level points: one memoised product per key serves all.
    distribution._smoothing_product.cache_clear()
    request.addfinalizer(distribution._smoothing_product.cache_clear)
    real, built = distribution.smoothing_factor_scaled, []

    def counting(s, p):
        built.append((s, p))
        return real(s, p)

    monkeypatch.setattr(distribution, "smoothing_factor_scaled", counting)
    m = 21
    assert intertwine_check(m)["ok"] and index_formula_check(m)["equal"]
    assert smoothing_check(m)["ok"] and smoothing_minus_image_check(m)["ok"]
    info = distribution._smoothing_product.cache_info()
    # one key per block g of 21: (21, (3, 7)), (7, (7,)), (3, (3,)) and (1, ())
    assert info.misses == info.currsize == 4
    assert info.hits == 4 + 1 + 1
    assert sorted(built) == [(3, 3), (7, 7), (21, 3), (21, 7)]
    N, _ = distribution.smoothing_scaled(m)
    with pytest.raises(TypeError):
        N[0][0] = 2  # the shared product cannot be changed by one caller
    with pytest.raises(TypeError):
        N[0] = {}


@pytest.mark.parametrize("m", [m for m in range(3, 61) if m % 4 != 2] + [105, 420])
def test_degree_zero_quotient_has_the_universal_rows(m):
    # Degree 0 is the top degree: the quotient's rows are in the level-m
    # point coordinates, and both presentations reduce to one Hermite form.
    quotients = {DIFFERENCE: universal_distribution, AVERAGE: universal_predistribution}
    for kind, universal in quotients.items():
        q = build_jcomplex(m, kind).complex.cohomology_data(0)[1]
        assert q.rows == universal(m).rows, (m, kind)


@pytest.mark.parametrize("m", [7, 8, 21, 105])
def test_index_invariant_reads_the_degree_zero_relations(m):
    # i_invariant presents H^0 by the degree-0 quotient's relations, which
    # are the Hermite rows of d(-1)^T it used to build for itself
    for kind in KINDS:
        C = build_jcomplex(m, kind).complex
        d = dense(C.d(-1), C.rank(-1))
        H = dense(hnf(to_int(d.T), C.rank(0)), C.rank(0))
        assert mat_equal(dense(C.cohomology_data(0)[1].rows, C.rank(0)), H), (m, kind)


@pytest.mark.parametrize("m", [9, 12, 15])
def test_index_formula_rejects_a_perturbed_operator(m):
    phi = _smoothing_blocks(m)
    phi[0][0, 1] += Fraction(1, primes_of(m)[0])
    phi = {i: scaled(block) for i, block in phi.items()}
    with pytest.raises(ValueError, match="^phi does not intertwine the differentials at degree -1$"):
        abstract_index_check(build_jcomplex(m, DIFFERENCE), build_jcomplex(m, AVERAGE), phi)


def test_index_formula_rejects_mismatched_complexes():
    # Levels 8 and 9 have the same degrees but different ranks.
    with pytest.raises(ValueError, match="^the two complexes have different ranks$"):
        abstract_index_check(
            build_jcomplex(9, DIFFERENCE), build_jcomplex(8, AVERAGE), smoothing_blocks_scaled(9)
        )
    # The identity, which an empty dict gives, commutes with every differential.
    C = build_complex(12, AVERAGE)
    trivial = JComplex(C)
    with pytest.raises(ValueError, match="^the two complexes carry different involutions$"):
        abstract_index_check(build_jcomplex(12, DIFFERENCE), trivial, smoothing_blocks_scaled(12))


def _negation(s):
    return [-k % s for k in range(s)]


def _restricted_negation(s):
    return fixed_restriction(negation_matrix(s), _negation(s), _negation(s))


def test_minus_pair_restriction_of_negation():
    R = _restricted_negation(5)
    assert R == [{0: -1}, {1: -1}]
    assert mat_equal(dense(R, 2), -np.array([[1, 0], [0, 1]], dtype=object))
    # even block size drops the self-negative midpoint
    R6 = _restricted_negation(6)
    assert len(R6) == 2 and all(j < 2 for row in R6 for j in row)
    assert _restricted_negation(2) == []


def test_minus_pair_restriction_entries():
    N, d = smoothing_factor_scaled(5, 2)
    F = dense(N, 5, d)
    R = dense(fixed_restriction(N, _negation(5), _negation(5)), 2, d)
    for b, k in enumerate([1, 2]):
        v = F[:, k] - F[:, 5 - k]
        assert v[0] == 0
        for a, i in enumerate([1, 2]):
            assert R[a, b] == v[i]
            assert v[5 - i] == -v[i]


# ---------------------------------------------------------------------------
# the orbit route to the (1+c)-fixed parts against the Smith route


def _fixed_subcomplex_by_smith(jc):
    """The fixed subcomplex by the Smith route: a Smith kernel of 1 + c per
    degree and a rational solve per differential, integral.  The bases are
    rows."""
    C = jc.complex
    bases = {i: kernel_basis(to_int(eye(C.rank(i)) + _c(jc, i)), C.rank(i)) for i in C.degrees()}
    diff = {}
    for i in range(C.lo, C.hi):
        src, tgt = (dense(bases[k], C.rank(k)) for k in (i, i + 1))
        diff[i] = [{} for _ in range(tgt.shape[0])]
        if src.shape[0] and tgt.shape[0]:
            d = dense(C.d(i), C.rank(i))
            X, e = solve_exact(to_int(tgt.T), to_int(d @ src.T), tgt.shape[0])
            assert e == 1
            diff[i] = X
    return BoundedComplex({i: len(B) for i, B in bases.items()}, diff), bases


def _c(jc, i):
    """The involution at degree i as a dense permutation matrix: column k is e_c(k)."""
    return eye(jc.complex.rank(i))[:, jc.involution[i]]


def _det_part_by_solve(bases, phi):
    """The determinant part of the index formula from rational solves on the
    Smith bases of ker(1 + c), each integral."""
    out = Fraction(1)
    for i, rows in bases.items():
        if rows:
            N, e = phi[i]
            B = dense(rows, len(N))
            R, d = solve_exact(to_int(B.T), to_int(dense(N, len(N)) @ B.T), len(rows))
            assert d == 1
            out *= abs(Fraction(det_exact(R, len(rows)), e ** len(rows))) ** ((-1) ** (i % 2))
    return out


ORBIT_LEVELS = [m for m in range(3, 61) if m % 4 != 2] + [105]


@pytest.mark.parametrize("m", ORBIT_LEVELS)
def test_orbit_route_matches_the_smith_route(m):
    phi = smoothing_blocks_scaled(m)
    for kind in KINDS:
        jc = build_jcomplex(m, kind)
        C, c = jc.complex, jc.involution
        for i in C.degrees():
            n, B = C.rank(i), dense(fixed_basis(c[i]), C.rank(i))
            assert Lattice(n, to_int(B)) == theta_fixed(to_int(_c(jc, i))), (m, kind, i)
            # the differential into degree i + 1 and phi within degree i
            for N, j in ((C.d(i), i + 1), (phi[i][0], i)):
                if j in c:
                    R = dense(fixed_restriction(N, c[i], c[j]), B.shape[0])
                    lhs = dense(N, n) @ B.T
                    assert mat_equal(lhs, dense(fixed_basis(c[j]), C.rank(j)).T @ R), (m, kind, i, j)
        fixed, _ = jc.fixed_subcomplex()
        oracle = _fixed_subcomplex_by_smith(jc)
        assert fixed.ranks == oracle[0].ranks
        for i in C.degrees():
            assert fixed.cohomology(i) == oracle[0].cohomology(i), (m, kind, i)
        smith = JComplex(C, c)
        # so that the invariant divides by the Smith-route subcomplex's groups
        smith._fixed = oracle
        assert i_invariant(smith) == i_invariant(jc), (m, kind)
        if kind == DIFFERENCE:
            det_part = _det_part_by_solve(oracle[1], phi)
    assert index_formula_check(m)["det_part"] == det_part


@pytest.mark.parametrize("m", [4, 9, 12, 15, 16, 24, 40])
def test_determinant_identities(m):
    r = det_check(m)
    assert r["ok"], r


@pytest.mark.parametrize(
    "m, i1, i2",
    [(3, 2, 1), (4, 2, 2), (9, 2, 1), (12, 2, 1), (15, 2, 1), (16, 2, 2)],
)
def test_index_formula(m, i1, i2):
    r = index_formula_check(m)
    assert r["equal"], r
    assert r["i_d1"] == i1
    assert r["i_d2"] == i2


def test_index_formula_sides_at_12():
    r = index_formula_check(12)
    assert r["lhs"] == Fraction(1, 4)
    assert r["det_part"] == Fraction(1, 2)


# Recorded at every level up to 60 from the route that saturated the whole
# image of the smoothing operator before cutting out its fixed part (35 and
# 55 did not finish there); 15 and 21 were first recorded from the
# Fraction-matrix implementation.
INDEX_FORMULA_PINNED = {
    3: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 3}",
    4: "{'lhs': Fraction(1, 1), 'rhs': Fraction(1, 1), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(2, 1), 'equal': True, 'level': 4}",
    5: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 5}",
    7: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 7}",
    8: "{'lhs': Fraction(1, 1), 'rhs': Fraction(1, 1), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(2, 1), 'equal': True, 'level': 8}",
    9: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 9}",
    11: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 11}",
    12: "{'lhs': Fraction(1, 4), 'rhs': Fraction(1, 4), 'det_part': Fraction(1, 2), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 12}",
    13: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 13}",
    15: "{'lhs': Fraction(3, 8), 'rhs': Fraction(3, 8), 'det_part': Fraction(3, 4), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 15}",
    16: "{'lhs': Fraction(1, 1), 'rhs': Fraction(1, 1), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(2, 1), 'equal': True, 'level': 16}",
    17: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 17}",
    19: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 19}",
    20: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 20}",
    21: "{'lhs': Fraction(9, 16), 'rhs': Fraction(9, 16), 'det_part': Fraction(9, 8), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 21}",
    23: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 23}",
    24: "{'lhs': Fraction(3, 8), 'rhs': Fraction(3, 8), 'det_part': Fraction(3, 4), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 24}",
    25: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 25}",
    27: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 27}",
    28: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 28}",
    29: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 29}",
    31: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 31}",
    32: "{'lhs': Fraction(1, 1), 'rhs': Fraction(1, 1), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(2, 1), 'equal': True, 'level': 32}",
    33: "{'lhs': Fraction(81, 176), 'rhs': Fraction(81, 176), 'det_part': Fraction(81, 88), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 33}",
    36: "{'lhs': Fraction(1, 3), 'rhs': Fraction(1, 3), 'det_part': Fraction(2, 3), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 36}",
    37: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 37}",
    39: "{'lhs': Fraction(243, 416), 'rhs': Fraction(243, 416), 'det_part': Fraction(243, 208), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 39}",
    40: "{'lhs': Fraction(5, 12), 'rhs': Fraction(5, 12), 'det_part': Fraction(5, 6), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 40}",
    41: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 41}",
    43: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 43}",
    44: "{'lhs': Fraction(4, 9), 'rhs': Fraction(4, 9), 'det_part': Fraction(8, 9), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 44}",
    45: "{'lhs': Fraction(25, 56), 'rhs': Fraction(25, 56), 'det_part': Fraction(25, 28), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 45}",
    47: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 47}",
    48: "{'lhs': Fraction(27, 80), 'rhs': Fraction(27, 80), 'det_part': Fraction(27, 40), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 48}",
    49: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 49}",
    51: "{'lhs': Fraction(729, 1544), 'rhs': Fraction(729, 1544), 'det_part': Fraction(729, 772), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 51}",
    52: "{'lhs': Fraction(8, 15), 'rhs': Fraction(8, 15), 'det_part': Fraction(16, 15), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 52}",
    53: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 53}",
    56: "{'lhs': Fraction(7, 16), 'rhs': Fraction(7, 16), 'det_part': Fraction(7, 8), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 56}",
    57: "{'lhs': Fraction(2187, 4144), 'rhs': Fraction(2187, 4144), 'det_part': Fraction(2187, 2072), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 57}",
    59: "{'lhs': Fraction(1, 2), 'rhs': Fraction(1, 2), 'det_part': Fraction(1, 1), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 59}",
    60: "{'lhs': Fraction(9, 32), 'rhs': Fraction(9, 32), 'det_part': Fraction(9, 8), "
    "'i_d1': Fraction(4, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 60}",
}


@pytest.mark.parametrize("m", sorted(INDEX_FORMULA_PINNED))
def test_index_formula_values_are_pinned(m):
    assert repr(index_formula_check(m)) == INDEX_FORMULA_PINNED[m]


@pytest.mark.parametrize("m", [35, 55, 63, 105])
def test_index_formula_left_side_is_the_closed_form(m):
    # The expected value of the smoothed minus image is the inverse product of
    # odd-character factors, evaluated without any lattice.
    r = index_formula_check(m)
    assert r["equal"], r
    assert r["lhs"] == smoothing_minus_image_check(m)["expected"]


# ---------------------------------------------------------------------------
# the sparse rows against the dense formulas they replaced


def _dense_differentials(m, kind):
    """The differentials as dense matrices, entry by entry."""
    sb = symbol_basis(m)
    out = {}
    for i in range(sb.lo, 0):
        D = zeros(sb.ranks[i + 1], sb.ranks[i])
        for col, (g, k) in enumerate(sb.symbols(i)):
            for p in primes_of(g):
                e, h = epsilon(g, p), g // p
                if kind == DIFFERENCE:
                    D[sb.position(h, k * p), col] += e
                for s in range(p):
                    D[sb.position(h, k + s * (m // g)), col] -= e
        out[i] = D
    return out


def _dense_involution(m, i):
    """Negation of the point coordinate in degree i, as a dense matrix."""
    sb = symbol_basis(m)
    c = zeros(sb.ranks[i], sb.ranks[i])
    for g, k in sb.symbols(i):
        c[sb.position(g, -k), sb.position(g, k)] = 1
    return c


def _two_cycles(perm):
    return [k for k, j in enumerate(perm) if k < j]


def _dense_fixed_restriction(N, src, tgt):
    """N on the rows e_k - e_c(k): entries N[i, k] - N[i, c(k)], by slicing."""
    ks = _two_cycles(src)
    return (N[:, ks] - N[:, [src[k] for k in ks]])[_two_cycles(tgt), :]


def _dense_smoothing_factor(m, p):
    """(N, d) with N / d = (1 - S_p/p)^(-1), summed into a dense matrix along each orbit."""
    f = prime_to_p_part(m, p)
    D = m // f * (p ** multiplicative_order(p, f) - 1)
    N = zeros(m, m)
    for k in range(m):
        path, pos, cur = [], {}, k
        while cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            cur = cur * p % m
        start = pos[cur]
        cl = len(path) - start
        on_cycle = p**cl * (D // (p**cl - 1))
        for j, node in enumerate(path):
            N[node, k] += (D if j < start else on_cycle) // p**j
    g = np.gcd.reduce([D, *N.flat])
    return N // g, D // g


def _dense_smoothing_blocks(m):
    """Per degree (N_i, d_i), each block a dense product of dense factors."""
    sb = symbol_basis(m)
    out = {}
    for i in range(sb.lo, 1):
        blocks = []
        for g in sb.blocks[i]:
            s = m // g
            N, d = eye(s), 1
            for p in sb.primes:
                if g % p:
                    F, e = _dense_smoothing_factor(s, p)
                    N, d = F @ N, d * e
            blocks.append((s, N, d))
        d = lcm(*[e for _, _, e in blocks])
        N = zeros(sb.ranks[i], sb.ranks[i])
        off = 0
        for s, blk, e in blocks:
            N[off : off + s, off : off + s] = blk * (d // e)
            off += s
        out[i] = (N, d)
    return out


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12, 21, 60, 105])
def test_rows_match_the_dense_formulas(m):
    sb = symbol_basis(m)
    c = involution(m)
    for kind in KINDS:
        d, want = differentials(m, kind), _dense_differentials(m, kind)
        assert sorted(d) == sorted(want) == list(range(sb.lo, 0))
        for i, D in want.items():
            assert mat_equal(dense(d[i], sb.ranks[i]), D), (kind, i)
            R = fixed_restriction(d[i], c[i], c[i + 1])
            want_R = _dense_fixed_restriction(D, c[i], c[i + 1])
            assert mat_equal(dense(R, len(_two_cycles(c[i]))), want_R), (kind, i)
    phi, want_phi = smoothing_blocks_scaled(m), _dense_smoothing_blocks(m)
    for i in range(sb.lo, 1):
        n, k = sb.ranks[i], len(_two_cycles(c[i]))
        # row r of c is e_c(r), as c is an involution
        assert mat_equal(dense([{j: 1} for j in c[i]], n), _dense_involution(m, i)), i
        (N, e), (W, f) = phi[i], want_phi[i]
        assert e == f and mat_equal(dense(N, n), W), i
        R = fixed_restriction(N, c[i], c[i])
        assert mat_equal(dense(R, k), _dense_fixed_restriction(W, c[i], c[i])), i
    for p in sorted(set(primes_of(m)) | {2, 3}):
        (N, e), (W, f) = smoothing_factor_scaled(m, p), _dense_smoothing_factor(m, p)
        assert e == f and mat_equal(dense(N, m), W), p


def test_complex_layer_builds_no_dense_view(monkeypatch, request):
    """A work contract that does not depend on load: at 21, building both
    complexes and running the smoothing, determinant and index checks on
    them builds no dense matrix in ``lcomplex``, and ``abgroup`` has no
    converter from a dense matrix to rows, so it turns none into rows."""
    for cache in (build_jcomplex, distribution._smoothing_product):
        cache.cache_clear()
        request.addfinalizer(cache.cache_clear)

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"lcomplex.{name} called")

        return call

    for name in ("zeros", "_rows", "_dense"):
        monkeypatch.setattr(lcomplex, name, refuse(name), raising=False)
    assert not hasattr(abgroup, "_rows") and not hasattr(abgroup, "_dense")
    for kind in KINDS:
        build_jcomplex(21, kind)
    assert intertwine_check(21)["ok"] and det_check(21)["ok"]
    assert index_formula_check(21)["equal"]
