"""Root-of-unity arithmetic, characters, B_1 values, class numbers."""

import cmath
import math
import operator
import random
from fractions import Fraction
from math import gcd
from operator import mul

import numpy as np
import pytest

from distlab import cyclotomic
from distlab.arith import (
    crt,
    divisors,
    euler_phi,
    factorize,
    inverse_mod,
    mobius,
    multiplicative_order,
    primitive_root,
    squarefree_divisors,
)
from distlab.cyclotomic import (
    L_VALUE_TOL,
    CycNum,
    DirichletChar,
    _digamma01,
    all_characters,
    bernoulli1,
    character_product_full,
    character_product_minus,
    cyclotomic_poly,
    h_minus,
    l_value_crosscheck,
    odd_characters,
    smoothing_det,
    smoothing_det_minus,
    unit_group,
)


def test_arith_helpers():
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert euler_phi(105) == 48
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert squarefree_divisors(12) == [1, 2, 3, 6]
    assert mobius(30) == -1 and mobius(12) == 0 and mobius(1) == 1
    assert multiplicative_order(3, 8) == 2
    assert primitive_root(9) == 2
    assert crt([(2, 3), (3, 5)]) == 8
    assert inverse_mod(3, 7) == 5
    with pytest.raises(ValueError):
        inverse_mod(6, 9)


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # degree phi(n), and evaluation at 1 is p for prime powers
    assert len(cyclotomic_poly(105)) == euler_phi(105) + 1
    assert sum(cyclotomic_poly(49)) == 7


def test_cycnum_field_arithmetic():
    z = CycNum.zeta_power(5, 1)
    assert (z**5).as_rational() == 1
    assert (1 - z).norm() == 5  # value of the minimal polynomial at 1
    # Galois twists are ring maps and compose multiplicatively
    a = 2 * z + z**3 * Fraction(1, 2)
    assert a.galois(2).galois(3) == a.galois(6 % 5)
    assert (a * a).galois(2) == a.galois(2) * a.galois(2)


def test_unit_group_structure():
    g = unit_group(40)  # 8 * 5: (-1, 5-part of 8, root mod 5)
    assert sorted(g.orders) == [2, 2, 4]
    assert len(g.units()) == euler_phi(40) == 16
    u = unit_group(12)
    assert u.orders == (2, 2)
    exps = u.exponents_of(11)
    assert exps == (1, 1)  # -1 is the product of both generators


def test_character_basics():
    chars = all_characters(12)
    assert len(chars) == 4
    odd = odd_characters(12)
    assert sorted(c.conductor for c in odd) == [3, 4]
    triv = DirichletChar(12, (0, 0))
    assert triv.conductor == 1 and triv.order == 1
    chi = next(c for c in odd if c.conductor == 4)
    assert chi.value_exponent(5) == 0  # trivial on the conductor-3 leg
    assert chi.value_exponent(6) is None
    assert chi.primitive_at_conductor().modulus == 4


def test_character_rejects_wrong_exponent_count():
    # (Z/15)^* has two generators; extra exponents must not be truncated away.
    with pytest.raises(ValueError):
        DirichletChar(15, [1, 1, 5, 7])
    with pytest.raises(ValueError):
        DirichletChar(15, [1])


def test_bernoulli_values():
    chi4 = next(c for c in odd_characters(4))
    assert bernoulli1(chi4).as_rational() == Fraction(-1, 2)
    chi3 = next(c for c in odd_characters(3))
    assert bernoulli1(chi3).as_rational() == Fraction(-1, 3)


def test_h_minus_trivial_range():
    for m in (3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 20, 21, 24, 33, 35):
        assert h_minus(m) == 1, m


def test_h_minus_classical_values():
    assert h_minus(23) == 3
    assert h_minus(29) == 8
    assert h_minus(31) == 9
    assert h_minus(37) == 37
    assert h_minus(39) == 2
    assert h_minus(40) == 1


@pytest.mark.parametrize("q, shown", [(Fraction(1, 7), "3/7"), (-1, "-3")])
def test_h_minus_raises_on_a_product_that_is_no_class_number(monkeypatch, q, shown):
    # h-minus(23) = 3 with Q = 1: a wrong corrector must not be truncated by int()
    monkeypatch.setattr(cyclotomic, "corrector_q", lambda m: q)
    with pytest.raises(ArithmeticError, match=rf"^h-minus\(23\) = {shown} is not a positive integer$"):
        h_minus(23)


def test_h_minus_rejects_redundant_levels():
    with pytest.raises(ValueError):
        h_minus(6)
    with pytest.raises(ValueError):
        h_minus(2)


def test_smoothing_det_matches_character_product():
    for f in (1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 24):
        for p in (2, 3, 5, 7):
            if gcd(p, f) != 1:
                continue
            assert character_product_full(p, f) * smoothing_det(p, f) == 1
            assert character_product_minus(p, f) * smoothing_det_minus(p, f) == 1


def test_smoothing_det_minus_branch():
    # order of 3 mod 8 is even but 3^(c/2) is not -1: the parity-only rule
    # would give 9/16 here, the character product forces 9/8
    assert smoothing_det_minus(3, 8) == Fraction(9, 8)
    assert character_product_minus(3, 8) == Fraction(8, 9)
    # honest even case: 2 has order 2 mod 3 with 2 = -1
    assert smoothing_det_minus(2, 3) == (1 + Fraction(1, 2)) ** -1


def test_l_value_float_crosscheck():
    for m in (4, 15, 23):
        assert all(r["ok"] for r in l_value_crosscheck(m))


# The float net as numpy's scalars compute it: the reference that the
# math/cmath port must reproduce bit for bit.


def _complex_value_numpy(x: CycNum) -> complex:
    z = np.exp(2j * np.pi / x.N)
    return complex(sum(float(c) * z**j for j, c in enumerate(x.coeffs)))


def _l_value_rows_numpy(m: int) -> list[dict]:
    out = []
    for chi in odd_characters(m):
        prim = chi.primitive_at_conductor()
        f = prim.modulus
        s = 0j
        for a in range(1, f):
            t = prim.value_exponent(a)
            if t is None:
                continue
            s += np.exp(2j * np.pi * float(t)) * _digamma01(a / f)
        lval = abs(-s / f)
        bval = np.pi * abs(_complex_value_numpy(bernoulli1(chi))) / np.sqrt(f)
        rel = abs(lval - bval) / bval
        out.append(
            {
                "conductor": f,
                "exponents": list(chi.exponents),
                "l_value": float(lval),
                "bernoulli_route": float(bval),
                "rel_err": float(rel),
                "ok": bool(rel <= L_VALUE_TOL),
            }
        )
    return out


@pytest.mark.skipif(
    cyclotomic._libm_cpow() is operator.pow,
    reason="numpy's powers from 100 on are the C library's cpow, which this platform does not reach",
)
def test_complex_value_is_numpy_bit_for_bit(monkeypatch):
    # every N up to 400, one nonzero coefficient per power of zeta; where
    # phi(N) > 100 (203 of them, from 103 on: 226, 256, 399, ...) the powers
    # past 99 take the C library's cpow, as numpy's do
    cpow, calls = cyclotomic._libm_cpow(), []

    def counted(z, w):
        calls.append(w)
        return cpow(z, w)

    monkeypatch.setattr(cyclotomic, "_libm_cpow", lambda: counted)
    bad = []
    for N in range(1, 401):
        rng = random.Random(N)
        x = CycNum(N, [Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 9))
                       for _ in range(euler_phi(N))])
        if repr(x.complex_value()) != repr(_complex_value_numpy(x)):
            bad.append(N)
    assert bad == []
    assert len(calls) == sum(euler_phi(N) - 100 for N in range(1, 401) if euler_phi(N) > 100)


class _NoCpow:
    """A C library handle without the cpow symbol."""


@pytest.mark.parametrize("refusal", ["no_handle", "no_symbol", "other_abi"])
def test_power_falls_back_to_python_without_cpow(monkeypatch, refusal):
    import ctypes
    import platform

    def no_handle(name):
        raise TypeError("no handle of the process")  # ctypes on Windows

    if refusal == "no_handle":
        monkeypatch.setattr(ctypes, "CDLL", no_handle)
    elif refusal == "no_symbol":
        monkeypatch.setattr(ctypes, "CDLL", lambda name: _NoCpow())
    else:
        monkeypatch.setattr(platform, "machine", lambda: "s390x")
    cyclotomic._libm_cpow.cache_clear()
    try:
        z = cmath.exp(2j * math.pi / 227)
        assert cyclotomic._power(z, 150) == z ** complex(150)
        # phi(227) = 226: the powers from 100 on take the fallback
        rng = random.Random(227)
        coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(226)]
        want = 0j
        for j, c in enumerate(coeffs):
            want += float(c) * cmath.exp(2j * math.pi * j / 227)
        assert abs(CycNum(227, coeffs).complex_value() - want) < 1e-9
    finally:
        cyclotomic._libm_cpow.cache_clear()


def test_l_value_rows_are_numpy_bit_for_bit():
    levels = [m for m in range(3, 65) if m % 4 != 2]
    bad = [m for m in levels if repr(l_value_crosscheck(m)) != repr(_l_value_rows_numpy(m))]
    assert bad == []


EULER_GAMMA = 0.57721566490153286061


def _gauss_digamma(m: int) -> dict[int, float]:
    """psi(r/m) for r prime to m by Gauss's digamma theorem, in stdlib floats:
    -gamma - ln 2m - (pi/2) cot(pi r/m) + 2 sum_{n < m/2} cos(2 pi n r/m) ln sin(pi n/m)."""
    cos = [math.cos(2 * math.pi * k / m) for k in range(m)]
    ns = range(1, (m + 1) // 2)
    log_sin = [math.log(math.sin(math.pi * n / m)) for n in ns]
    out = {}
    for r in range(1, m):
        if gcd(r, m) == 1:
            s = sum(map(mul, (cos[n * r % m] for n in ns), log_sin))
            cot = 1 / math.tan(math.pi * r / m)
            out[r] = -EULER_GAMMA - math.log(2 * m) - math.pi / 2 * cot + 2 * s
    return out


def test_digamma01_against_gauss_theorem():
    # every value r/m with m <= 400, each once in lowest terms
    worst = 0.0
    for m in range(2, 401):
        for r, psi in _gauss_digamma(m).items():
            worst = max(worst, abs(_digamma01(r / m) - psi) / max(1.0, abs(psi)))
    assert worst <= 1e-10


def test_digamma01_is_scipy_digamma_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    xs = [a / f for f in range(2, 1200) for a in range(1, f)]
    ref = special.digamma(xs).tolist()
    assert [x for x, y in zip(xs, ref) if _digamma01(x) != y] == []


@pytest.mark.parametrize("x", [0.0, 1.0, -0.5, 1.5])
def test_digamma01_rejects_arguments_outside_the_unit_interval(x):
    with pytest.raises(ValueError, match="not in \\(0, 1\\)"):
        _digamma01(x)


def test_zeta_power_tables_stay_bounded_over_a_sweep():
    from distlab import cyclotomic
    from distlab.distribution import exp_kernel_check

    for m in [m for m in range(3, 50) if m % 4 != 2][:30]:
        assert exp_kernel_check(m)["ok"], m
    info = cyclotomic._zeta_power_table.cache_info()
    assert info.maxsize is not None and info.currsize == info.maxsize
