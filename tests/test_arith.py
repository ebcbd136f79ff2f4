"""The shared level rule and the helpers that rely on it."""

import pytest

from distlab.arith import validate_level
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


@pytest.mark.parametrize("fn", [h_minus, cohomology_check, stickelberger_ideal])
@pytest.mark.parametrize("m", [1, 6])
def test_level_callers_share_the_rule(fn, m):
    with pytest.raises(ValueError, match="is twice an odd number|is out of range"):
        fn(m)
