"""Exact cyclotomic arithmetic: roots of unity, Dirichlet characters,
first generalized Bernoulli numbers, and the odd-part class number.

Numbers live in Q[x]/(Phi_N) with Fraction coefficients, so every identity
here is checked without floating point; the only float code is the explicit
digamma cross-check, which is never used as an oracle by the exact layer.
It runs on ``math`` and ``cmath`` and gives, bit for bit, the floats of
numpy's complex scalars (see ``CycNum.complex_value``), with no numpy.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .arith import (
    divisors,
    euler_phi,
    factorize,
    multiplicative_order,
    primitive_root,
    crt,
    validate_level,
)

# ---------------------------------------------------------------------------
# integer polynomials, ascending coefficients


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod_monic(a: list, m: list) -> tuple[list, list]:
    """Quotient and remainder of a by the monic polynomial m, exact."""
    a = list(a)
    dm = len(m) - 1
    q = [0] * max(len(a) - dm, 1)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c == 0:
            continue
        q[i - dm] = c
        a[i] = 0
        for j in range(dm):
            a[i - dm + j] -= c * m[j]
    return q, a[:dm]


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n):
        if d < n:
            q, r = _poly_divmod_monic(num, list(cyclotomic_poly(d)))
            if any(r):
                raise ArithmeticError(f"Phi_{d} leaves remainder {r} in x^{n} - 1")
            num = q
    return tuple(num)


# An n x phi(n) table per modulus: the reuse is within one level (the Galois
# orbits of h_minus, one exponential map), so a small bound keeps --m-max
# sweeps lean.
@lru_cache(maxsize=8)
def _zeta_power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_n for k = 0..n-1, each of length phi(n)."""
    phi = euler_phi(n)
    m = list(cyclotomic_poly(n))
    out = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(n):
        out.append(tuple(cur))
        cur = _poly_divmod_monic([0] + cur, m)[1]
        cur += [0] * (phi - len(cur))
    return tuple(out)


# ---------------------------------------------------------------------------
# the quotient ring Q(zeta_N)


class CycNum:
    """An element of Q[x]/(Phi_N), stored by its phi(N) Fraction coefficients."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs):
        phi = euler_phi(N)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != phi:
            raise ValueError("coefficient vector has the wrong length")
        self.N = N
        self.coeffs = tuple(cs)

    @classmethod
    def rational(cls, N: int, value) -> CycNum:
        phi = euler_phi(N)
        return cls(N, [Fraction(value)] + [Fraction(0)] * (phi - 1))

    @classmethod
    def zeta_power(cls, N: int, k: int, scale=1) -> CycNum:
        row = _zeta_power_table(N)[k % N]
        s = Fraction(scale)
        return cls(N, [s * c for c in row])

    def _coerce(self, other) -> CycNum:
        if isinstance(other, CycNum):
            if other.N != self.N:
                raise ValueError("mixed cyclotomic moduli")
            return other
        return CycNum.rational(self.N, other)

    def __add__(self, other):
        o = self._coerce(other)
        return CycNum(self.N, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return CycNum(self.N, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return CycNum(self.N, [-a for a in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, CycNum):
            s = Fraction(other)
            return CycNum(self.N, [s * a for a in self.coeffs])
        if other.N != self.N:
            raise ValueError("mixed cyclotomic moduli")
        prod = _poly_mul(list(self.coeffs), list(other.coeffs))
        rem = _poly_divmod_monic(prod, list(cyclotomic_poly(self.N)))[1]
        rem += [Fraction(0)] * (euler_phi(self.N) - len(rem))
        return CycNum(self.N, rem)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = CycNum.rational(self.N, 1)
        base = self
        k = int(k)
        if k < 0:
            raise ValueError("negative powers are not supported")
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.N, self.coeffs))

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return self.coeffs[0]

    def galois(self, t: int) -> CycNum:
        """Image under x -> x^t; t must be a unit modulo N."""
        if gcd(t, self.N) != 1:
            raise ValueError("galois twist needs a unit exponent")
        table = _zeta_power_table(self.N)
        phi = euler_phi(self.N)
        out = [Fraction(0)] * phi
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            row = table[(j * t) % self.N]
            for i in range(phi):
                if row[i]:
                    out[i] += c * row[i]
        return CycNum(self.N, out)

    def norm(self) -> Fraction:
        """Product of all Galois conjugates, always rational."""
        out = CycNum.rational(self.N, 1)
        for t in range(1, self.N + 1):
            if gcd(t, self.N) == 1:
                out = out * self.galois(t)
        return out.as_rational()

    def complex_value(self) -> complex:
        """The float value at zeta = exp(2 pi i / N): the sum of c_j zeta^j.

        Each operation is the one numpy's complex scalars would do, so the
        float is theirs: ``_power`` raises zeta as numpy does, and the
        terms are added one at a time, left to right.
        """
        z = cmath.exp(2j * math.pi / self.N)
        out = 0j
        for j, c in enumerate(self.coeffs):
            out += float(c) * _power(z, j)
        return out

    def __repr__(self):
        return f"CycNum(N={self.N}, {list(self.coeffs)})"


def _power(z: complex, j: int) -> complex:
    """z**j for j >= 0 as numpy's complex scalars compute it.

    Below 100 numpy multiplies by repeated squaring, as Python's ``**``
    does (Python up to j = 100); from 100 on it calls the C library's
    ``cpow``, and so does this.
    """
    return z**j if j < 100 else _libm_cpow()(z, complex(j))


@lru_cache(maxsize=1)
def _libm_cpow():
    """The C library's cpow as a function of two Python complexes, loaded on
    first use (the first level that needs it is 227).

    Where it cannot be called so (a machine other than x86-64 or AArch64,
    whose ABI may pass ``double complex`` otherwise; no C library handle in
    the process, as on Windows; no ``cpow`` symbol), Python's ``**`` stands
    in: the float net is compared with a tolerance, so only the last bits
    of its floats differ from numpy's there.
    """
    import ctypes
    import platform

    try:
        if platform.machine().lower() not in ("x86_64", "amd64", "aarch64", "arm64"):
            raise OSError(f"no two-double cpow ABI on {platform.machine()}")
        cpow = ctypes.CDLL(None).cpow
    except (OSError, TypeError, AttributeError):
        return operator.pow

    class Complex(ctypes.Structure):
        # two doubles: the layout and calling convention of C's double
        # complex on x86-64 (System V) and on AArch64
        _fields_ = [("re", ctypes.c_double), ("im", ctypes.c_double)]

    cpow.argtypes = (Complex, Complex)
    cpow.restype = Complex

    def call(z: complex, w: complex) -> complex:
        r = cpow(Complex(z.real, z.imag), Complex(w.real, w.imag))
        return complex(r.re, r.im)

    return call


# ---------------------------------------------------------------------------
# the unit group (Z/f)^* with a deterministic generator choice


class UnitGroup:
    """(Z/f)^* as an explicit product of cyclic factors.

    Generators: the smallest primitive root for each odd prime-power factor,
    -1 (and 5 when the exponent allows) for the 2-part, all lifted to units
    modulo f that are 1 on the other factors.  Discrete logs are tabulated,
    which is fine at the moduli this package sweeps.
    """

    def __init__(self, f: int):
        if f <= 0:
            raise ValueError("modulus must be positive")
        self.modulus = f
        gens: list[int] = []
        orders: list[int] = []
        for p, e in factorize(f):
            q = p**e
            rest = f // q
            if p == 2:
                if e == 1:
                    continue
                gens.append(crt([(q - 1, q), (1, rest)]))
                orders.append(2)
                if e >= 3:
                    gens.append(crt([(5, q), (1, rest)]))
                    orders.append(2 ** (e - 2))
            else:
                gens.append(crt([(primitive_root(q), q), (1, rest)]))
                orders.append(euler_phi(q))
        self.gens = tuple(gens)
        self.orders = tuple(orders)
        self.exponent = lcm(*orders) if orders else 1
        table: dict[int, tuple[int, ...]] = {}
        for exps in itertools.product(*(range(d) for d in orders)):
            u = 1 % f
            for g, k in zip(gens, exps):
                u = u * pow(g, k, f) % f
            table[u] = exps
        if len(table) != euler_phi(f):
            raise ArithmeticError(f"{len(table)} discrete logs mod {f}, want {euler_phi(f)}")
        self._dlog = table

    def units(self) -> list[int]:
        return sorted(self._dlog)

    def exponents_of(self, u: int) -> tuple[int, ...]:
        try:
            return self._dlog[u % self.modulus]
        except KeyError:
            raise ValueError(f"{u} is not a unit modulo {self.modulus}") from None


@lru_cache(maxsize=None)
def unit_group(f: int) -> UnitGroup:
    return UnitGroup(f)


# ---------------------------------------------------------------------------
# Dirichlet characters


class DirichletChar:
    """A character of (Z/f)^*, given by exponents against unit_group(f).gens.

    Values are exact: value_exponent(a) is the element t of Q/Z with
    chi(a) = e^(2 pi i t), or None when a shares a factor with the modulus.
    """

    __slots__ = ("modulus", "exponents")

    def __init__(self, modulus: int, exponents):
        g = unit_group(modulus)
        exponents = tuple(exponents)
        if len(exponents) != len(g.orders):
            raise ValueError("wrong number of exponents")
        for i, k in enumerate(exponents):
            if type(k) is not int:
                raise ValueError(f"exponent {i} is {k!r}, not an int")
        exps = tuple(k % d for k, d in zip(exponents, g.orders))
        self.modulus = modulus
        self.exponents = exps

    def __eq__(self, other):
        return (
            isinstance(other, DirichletChar)
            and self.modulus == other.modulus
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.modulus, self.exponents))

    def __repr__(self):
        return f"DirichletChar({self.modulus}, {self.exponents})"

    @property
    def order(self) -> int:
        g = unit_group(self.modulus)
        return lcm(*(d // gcd(k, d) for k, d in zip(self.exponents, g.orders))) if g.orders else 1

    def value_exponent(self, a: int) -> Fraction | None:
        if gcd(a, self.modulus) != 1:
            return None
        g = unit_group(self.modulus)
        exps = g.exponents_of(a)
        t = sum(Fraction(k * e, d) for k, e, d in zip(self.exponents, exps, g.orders))
        return t - (t.numerator // t.denominator)  # reduce into [0, 1)

    def value(self, a: int, N: int) -> CycNum:
        """chi(a) as an exact root of unity in Q[x]/(Phi_N); 0 for non-units."""
        t = self.value_exponent(a)
        if t is None:
            return CycNum.rational(N, 0)
        k = t * N
        if k.denominator != 1:
            raise ValueError("target ring does not contain this character value")
        return CycNum.zeta_power(N, int(k))

    def is_odd(self) -> bool:
        return self.value_exponent(-1) == Fraction(1, 2)

    @property
    def conductor(self) -> int:
        g = unit_group(self.modulus)
        for f in divisors(self.modulus):
            if all(
                self.value_exponent(u) == 0
                for u in g.units()
                if u % f == 1 % f
            ):
                return f
        raise AssertionError("unreachable")

    def primitive_at_conductor(self) -> DirichletChar:
        f = self.conductor
        g = unit_group(f)
        exps = []
        for gen, d in zip(g.gens, g.orders):
            a = gen
            while gcd(a, self.modulus) != 1:
                a += f
            t = self.value_exponent(a)
            k = t * d
            if k.denominator != 1:
                raise ArithmeticError(f"character does not descend to its conductor: exponent {k}")
            exps.append(int(k))
        return DirichletChar(f, exps)


def all_characters(f: int) -> list[DirichletChar]:
    """Every character modulo f, in lexicographic exponent order."""
    g = unit_group(f)
    return [
        DirichletChar(f, exps)
        for exps in itertools.product(*(range(d) for d in g.orders))
    ]


def odd_characters(f: int) -> list[DirichletChar]:
    return [chi for chi in all_characters(f) if chi.is_odd()]


# ---------------------------------------------------------------------------
# first Bernoulli numbers and the odd-part class number


def bernoulli1(chi: DirichletChar) -> CycNum:
    """B_1 of the primitive character attached to chi, in Q[x]/(Phi_order)."""
    prim = chi.primitive_at_conductor()
    f = prim.modulus
    N = chi.order
    out = CycNum.rational(N, 0)
    for a in range(1, f + 1):
        if gcd(a, f) == 1:
            t = prim.value_exponent(a)
            out = out + CycNum.zeta_power(N, int(t * N), scale=a)
    return out * Fraction(1, f)


def _galois_orbits(chars: list[DirichletChar]) -> list[list[DirichletChar]]:
    seen: set[tuple] = set()
    orbits = []
    for chi in chars:
        if chi.exponents in seen:
            continue
        N = chi.order
        orbit = []
        for t in range(1, N + 1):
            if gcd(t, N) != 1:
                continue
            tw = DirichletChar(chi.modulus, [t * k for k in chi.exponents])
            orbit.append(tw)
            seen.add(tw.exponents)
        if len(orbit) != euler_phi(N):
            raise ArithmeticError(f"Galois orbit of {len(orbit)} characters, want {euler_phi(N)}")
        orbits.append(orbit)
    return orbits


def corrector_w(m: int) -> int:
    """Number of roots of unity in the full cyclotomic field of level m."""
    return m if m % 2 == 0 else 2 * m


def corrector_q(m: int) -> int:
    """Unit index corrector: 1 at prime-power level, 2 otherwise."""
    return 1 if len(factorize(m)) <= 1 else 2


def h_minus(m: int) -> int:
    """Odd part of the class number of the level-m cyclotomic field.

    Computed as Q * w * prod over odd characters of (-B_1/2), with each
    Galois orbit contributing an exact field norm; the result must come out
    a positive integer, and ArithmeticError names any other value.
    """
    validate_level(m)
    total = Fraction(corrector_q(m) * corrector_w(m))
    for orbit in _galois_orbits(odd_characters(m)):
        rep = orbit[0]
        total *= (bernoulli1(rep) * Fraction(-1, 2)).norm()
    if total <= 0 or total.denominator != 1:
        raise ArithmeticError(f"h-minus({m}) = {total} is not a positive integer")
    return int(total)


# Boost's rational approximation of digamma on [1, 2] (digamma_imp_1_2),
# as Cephes ``psi`` runs it: psi(x) = g * Y + g * P(x - 1) / Q(x - 1) with
# g = x - root, the root split in three parts.  P and Q are highest first.
_PSI_ROOT = (
    1569415565.0 / 1073741824.0,
    (381566830.0 / 1073741824.0) / 1073741824.0,
    0.9016312093258695918615325266959189453125e-19,
)
_PSI_Y = 0.9955816268920898  # the float32 0.99558162689208984f, widened
_PSI_P = (
    -0.0020713321167745952, -0.045251321448739056, -0.28919126444774784,
    -0.65031853770896507, -0.32555031186804491, 0.25479851061131551,
)
_PSI_Q = (
    -0.55789841321675513e-6, 0.0021284987017821144, 0.054151797245674225,
    0.43593529692665969, 1.4606242909763515, 2.0767117023730469, 1.0,
)


def _horner(coef: tuple, x: float) -> float:
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _digamma01(x: float) -> float:
    """digamma(x) for 0 < x < 1, operation for operation as Cephes ``psi``.

    One step of psi(x) = psi(x + 1) - 1/x moves x into [1, 2], where the
    Boost rational form applies.  Every operation is an IEEE double one in
    the compiled routine's order, so the result is the same float.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"digamma argument {x!r} is not in (0, 1)")
    y = 0.0 - 1.0 / x
    x += 1.0
    g = x - _PSI_ROOT[0]
    g -= _PSI_ROOT[1]
    g -= _PSI_ROOT[2]
    t = x - 1.0  # not the x passed in: (x + 1) - 1 rounds differently
    r = _horner(_PSI_P, t) / _horner(_PSI_Q, t)
    return y + (g * _PSI_Y + g * r)


# The relative error that the float net allows between its two routes.
L_VALUE_TOL = 1e-6


def l_value_crosscheck(m: int) -> list[dict]:
    """Float sanity net for every odd character at level m.

    Compares |L(1, chi)| from the digamma series against pi*|B_1|/sqrt(f),
    up to a relative error of ``L_VALUE_TOL``; purely diagnostic, the exact
    layer never consumes these numbers.  The digamma values come from
    ``_digamma01``, a port of Cephes ``psi`` with Boost's
    ``digamma_imp_1_2`` on [1, 2], as the xsf special-function library
    compiles it.  Every float is the one numpy's scalars give for the
    same formula.
    """
    out = []
    for chi in odd_characters(m):
        prim = chi.primitive_at_conductor()
        f = prim.modulus
        s = 0j
        for a in range(1, f):
            t = prim.value_exponent(a)
            if t is None:
                continue
            s += cmath.exp(2j * math.pi * float(t)) * _digamma01(a / f)
        # numpy divides a complex by f as two products by 1.0 / f
        r = 1.0 / f
        lval = abs(complex(-s.real * r, -s.imag * r))
        bval = math.pi * abs(bernoulli1(chi).complex_value()) / math.sqrt(f)
        rel = abs(lval - bval) / bval
        out.append(
            {
                "conductor": f,
                "exponents": list(chi.exponents),
                "l_value": lval,
                "bernoulli_route": bval,
                "rel_err": rel,
                "ok": rel <= L_VALUE_TOL,
            }
        )
    return out


# ---------------------------------------------------------------------------
# local determinant factors of the smoothing operator


def _cosets(phi: int, c: int, f: int) -> int:
    """phi / c, the number of cosets of a subgroup of order c in (Z/f)^*."""
    if phi % c:
        raise ArithmeticError(f"subgroup order {c} does not divide #(Z/{f})^* = {phi}")
    return phi // c


def smoothing_det(p: int, f: int) -> Fraction:
    """det of the p-smoothing factor on the full rational algebra of (Z/f)^*."""
    if gcd(p, f) != 1:
        raise ValueError("p must be coprime to the conductor")
    c = multiplicative_order(p, f)
    return (1 - Fraction(1, p**c)) ** (-_cosets(euler_phi(f), c, f))


def smoothing_det_minus(p: int, f: int) -> Fraction:
    """det of the p-smoothing factor on the odd part of the algebra.

    The case split is on whether -1 lies in the cyclic group generated by p
    modulo f; splitting on the parity of the order alone gives the wrong
    value whenever the order is even but p^(order/2) is not -1.
    """
    if gcd(p, f) != 1:
        raise ValueError("p must be coprime to the conductor")
    if f <= 2:
        return Fraction(1)
    c = multiplicative_order(p, f)
    phi = euler_phi(f)
    if c % 2 == 0 and pow(p, c // 2, f) == f - 1:
        return (1 + Fraction(1, p ** (c // 2))) ** (-_cosets(phi, c, f))
    return (1 - Fraction(1, p**c)) ** (-_cosets(phi, 2 * c, f))


def character_product_full(p: int, f: int) -> Fraction:
    """prod over all characters mod f of (1 - chi(p)/p), exactly."""
    return _character_product(p, f, all_characters(f))


def character_product_minus(p: int, f: int) -> Fraction:
    """prod over odd characters mod f of (1 - chi(p)/p), exactly."""
    return _character_product(p, f, odd_characters(f))


def _character_product(p: int, f: int, chars) -> Fraction:
    N = unit_group(f).exponent
    out = CycNum.rational(N, 1)
    for chi in chars:
        out = out * (1 - chi.value(p, N) * Fraction(1, p))
    return out.as_rational()
