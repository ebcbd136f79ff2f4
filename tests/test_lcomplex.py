"""Graded symbol complexes: structure, homotopy calculus, index identities."""

from fractions import Fraction
from math import prod

import numpy as np
import pytest

from distlab import distribution
from distlab.abgroup import BoundedComplex, JComplex, abstract_index_check
from distlab.arith import primes_of
from distlab.distribution import negation_matrix, smoothing_factor
from distlab.exact_linalg import _dense, eye, mat_equal, zeros
from distlab.lcomplex import (
    AVERAGE,
    DIFFERENCE,
    KINDS,
    AveragedLevel,
    _minus_pair_matrix,
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
    smoothing_blocks,
    symbol_basis,
)


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
    d[-2][0, 0] += 1
    with pytest.raises(ValueError, match=r"^d\^2 != 0 between degrees -2 and 0$"):
        BoundedComplex(ranks, d)

    C = build_complex(12, DIFFERENCE)
    c = involution(12)
    c[-2] = 2 * c[-2]
    with pytest.raises(ValueError, match="^involution at degree -2 does not square to 1$"):
        JComplex(C, c)

    # Swapping the columns of the pair {1, -1} keeps c[0] an involution
    # (it now fixes both points) but breaks c d = d c into degree 0.
    c = involution(12)
    c[0][:, [1, 11]] = c[0][:, [11, 1]]
    assert mat_equal(c[0] @ c[0], eye(12))
    with pytest.raises(ValueError, match="^involution does not commute with d at degree -1$"):
        JComplex(C, c)

    # Differentials and involutions are maps of free Z-modules.
    d = differentials(12, DIFFERENCE)
    d[-1][0, 0] = Fraction(1, 2)
    with pytest.raises(ValueError, match="is not an integer"):
        BoundedComplex(ranks, d)
    c = involution(12)
    c[0][0, 0] = Fraction(1, 2)
    with pytest.raises(ValueError, match="is not an integer"):
        JComplex(C, c)


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
    lhs = d[-1] @ av.change[-1]
    rhs = av.change[0] @ _dense(av.full_d(-1), av.rank(-1))
    assert mat_equal(lhs, rhs)


@pytest.mark.parametrize("m", [12, 20, 27])
def test_smoothing_intertwines_and_commutes(m):
    assert intertwine_check(m)["ok"]


@pytest.mark.parametrize("m", [m for m in range(3, 41) if m % 4 != 2])
def test_smoothing_blocks_match_fraction_product(m):
    sb = symbol_basis(m)
    blocks = smoothing_blocks(m)
    assert sorted(blocks) == list(range(sb.lo, 1))
    for i in range(sb.lo, 1):
        ref = zeros(sb.ranks[i], sb.ranks[i]) + Fraction(0)
        off = 0
        for g in sb.blocks[i]:
            s = m // g
            factors = [smoothing_factor(s, p) for p in sb.primes if g % p]
            blk = factors[0] if factors else eye(s)
            for F in factors[1:]:
                blk = F @ blk
            ref[off : off + s, off : off + s] = blk
            off += s
        assert mat_equal(blocks[i], ref), (m, i)
        assert all(type(x) is Fraction for x in blocks[i].flat)


def _perturb_top_factor(monkeypatch, m):
    """Make the degree-zero smoothing operator wrong by 1/p in one entry."""
    p0 = primes_of(m)[0]
    real = distribution.smoothing_factor

    def perturbed(s, p):
        F = real(s, p)
        if (s, p) == (m, p0):
            F[0, 1] += Fraction(1, p)
        return F

    monkeypatch.setattr(distribution, "smoothing_factor", perturbed)


@pytest.mark.parametrize("m", [9, 12, 15])
def test_intertwine_check_sees_a_perturbed_entry(monkeypatch, m):
    _perturb_top_factor(monkeypatch, m)
    res = intertwine_check(m)
    assert not res["intertwines"] and not res["ok"]


@pytest.mark.parametrize("m", [9, 12, 15])
def test_index_formula_rejects_a_perturbed_operator(m):
    phi = smoothing_blocks(m)
    phi[0][0, 1] += Fraction(1, primes_of(m)[0])
    with pytest.raises(ValueError, match="phi does not intertwine"):
        abstract_index_check(
            dict(symbol_basis(m).ranks),
            differentials(m, DIFFERENCE),
            differentials(m, AVERAGE),
            involution(m),
            phi,
        )


def test_minus_pair_restriction_of_negation():
    R = _minus_pair_matrix(negation_matrix(5))
    assert R.shape == (2, 2)
    assert mat_equal(R, -np.array([[1, 0], [0, 1]], dtype=object))
    # even block size drops the self-negative midpoint
    assert _minus_pair_matrix(negation_matrix(6)).shape == (2, 2)
    assert _minus_pair_matrix(negation_matrix(2)).shape == (0, 0)


def test_minus_pair_restriction_entries():
    F = smoothing_factor(5, 2)
    R = _minus_pair_matrix(F)
    for b, k in enumerate([1, 2]):
        v = F[:, k] - F[:, 5 - k]
        assert v[0] == 0
        for a, i in enumerate([1, 2]):
            assert R[a, b] == v[i]
            assert v[5 - i] == -v[i]


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


# Recorded from the Fraction-matrix implementation before the smoothing
# operator moved to scaled integer numerators.
INDEX_FORMULA_PINNED = {
    15: "{'lhs': Fraction(3, 8), 'rhs': Fraction(3, 8), 'det_part': Fraction(3, 4), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 15}",
    21: "{'lhs': Fraction(9, 16), 'rhs': Fraction(9, 16), 'det_part': Fraction(9, 8), "
    "'i_d1': Fraction(2, 1), 'i_d2': Fraction(1, 1), 'equal': True, 'level': 21}",
}


@pytest.mark.parametrize("m", sorted(INDEX_FORMULA_PINNED))
def test_index_formula_values_are_pinned(m):
    assert repr(index_formula_check(m)) == INDEX_FORMULA_PINNED[m]
