"""The shared level rule and the helpers that rely on it."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distlab.arith import _xgcd, crt, inverse_mod, validate_level
from distlab.cyclotomic import h_minus
from distlab.distribution import cohomology_check
from distlab.stickelberger import stickelberger_ideal


@pytest.mark.parametrize("m", [3, 4, 5, 8, 9, 12, 105, 420])
def test_valid_levels_pass(m):
    validate_level(m)


@pytest.mark.parametrize("m", [2, 6, 10, 30, -2])
def test_twice_odd_levels_are_rejected(m):
    with pytest.raises(ValueError, match="twice an odd number"):
        validate_level(m)


@pytest.mark.parametrize("m", [-3, 0, 1])
def test_small_levels_are_rejected(m):
    with pytest.raises(ValueError, match="out of range"):
        validate_level(m)


@pytest.mark.parametrize("m", [7.5, 8.0, Fraction(8), "8", True])
def test_non_int_levels_are_rejected(m):
    with pytest.raises(ValueError, match="is not an int"):
        validate_level(m)


@pytest.mark.parametrize("fn", [h_minus, cohomology_check, stickelberger_ideal])
@pytest.mark.parametrize("m", [1, 6])
def test_level_callers_share_the_rule(fn, m):
    with pytest.raises(ValueError, match="is twice an odd number|is out of range"):
        fn(m)


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))
def test_xgcd_bezout_identity(a, b):
    s, t = _xgcd(a, b)
    assert s * a + t * b == gcd(a, b)


@given(st.integers(-10**6, 10**6), st.integers(2, 10**6))
def test_inverse_mod_inverts_exactly_the_units(a, m):
    if gcd(a, m) == 1:
        x = inverse_mod(a, m)
        assert 0 <= x < m and a * x % m == 1
    else:
        with pytest.raises(ValueError, match="not invertible"):
            inverse_mod(a, m)


@given(st.lists(st.tuples(st.integers(-50, 50), st.sampled_from([1, 3, 4, 5, 7, 11, 13])),
                max_size=4, unique_by=lambda rm: rm[1]))
def test_crt_solves_every_congruence(pairs):
    x = crt(pairs)
    n = 1
    for r, m in pairs:
        assert (x - r) % m == 0
        n *= m
    assert 0 <= x < n
