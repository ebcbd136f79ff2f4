"""Stickelberger lattices in the group ring and their minus-part indices.

The group ring of (Z/m)^* carries one fractional-part element for every
residue a mod m, with coefficient {a/m * t^{-1}} at the basis vector of t.
Their integral span meets Z[G] in the Stickelberger ideal; its minus part
sits inside the (1+c)-annihilator of Z[G] with finite index equal to the
relative class number up to an explicit power of 2.  The same fractional
parts, antisymmetrized, realize the degree-zero distribution classes as
group-ring vectors, and this module verifies every index identity along
that bridge exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .abgroup import fixed_basis, fixed_image_index, theta_fixed
from .arith import inverse_mod, primes_of, prime_to_p_part, validate_level
from .cyclotomic import (
    character_product_minus,
    corrector_q,
    corrector_w,
    h_minus,
    smoothing_det_minus,
)
from .distribution import (
    negation_matrix,
    smoothing_scaled,
    universal_distribution,
    universal_predistribution,
)
from .exact_linalg import Lattice, Row, _comb, _mul, _transpose, lattice_index, lattice_intersect
from .lcomplex import DIFFERENCE, build_jcomplex


@lru_cache(maxsize=64)
def units_of(m: int) -> tuple[int, ...]:
    return tuple(t for t in range(1, m) if gcd(t, m) == 1)


@dataclass(frozen=True)
class GroupRingElem:
    """Rational group-ring vector indexed by the units of Z/m in order."""

    m: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(units_of(self.m)):
            raise ValueError("coefficient count does not match the unit group")

    def __mul__(self, other: "GroupRingElem") -> "GroupRingElem":
        if not isinstance(other, GroupRingElem) or other.m != self.m:
            return NotImplemented
        units = units_of(self.m)
        idx = {t: i for i, t in enumerate(units)}
        out = [Fraction(0)] * len(units)
        for i, s in enumerate(units):
            if self.coeffs[i] == 0:
                continue
            for j, t in enumerate(units):
                out[idx[s * t % self.m]] += self.coeffs[i] * other.coeffs[j]
        return GroupRingElem(self.m, tuple(out))

    def conjugate(self) -> "GroupRingElem":
        units = units_of(self.m)
        idx = {t: i for i, t in enumerate(units)}
        return GroupRingElem(
            self.m, tuple(self.coeffs[idx[(self.m - t) % self.m]] for t in units)
        )


def theta_element(m: int, a: int = 1) -> GroupRingElem:
    """Fractional-part element: coefficient {a t^{-1} / m} at sigma_t.

    >>> theta_element(3).coeffs
    (Fraction(1, 3), Fraction(2, 3))
    >>> theta_element(5).coeffs
    (Fraction(1, 5), Fraction(3, 5), Fraction(2, 5), Fraction(4, 5))
    """
    validate_level(m)
    coeffs = tuple(
        Fraction((a * inverse_mod(t, m)) % m, m) for t in units_of(m)
    )
    return GroupRingElem(m, coeffs)


def _theta_scaled(m: int) -> list[Row]:
    """Numerators over m of the fractional-part elements for a = 1, ..., m-1,
    as sparse rows."""
    inverses = [inverse_mod(t, m) for t in units_of(m)]
    return [{i: x for i, u in enumerate(inverses) if (x := a * u % m)} for a in range(1, m)]


@dataclass(frozen=True)
class StickelbergerData:
    m: int
    S: Lattice
    R_minus: Lattice
    S_minus: Lattice


def minus_sublattice(m: int) -> Lattice:
    """Annihilator of 1+c inside the integral group ring, c: t -> -t."""
    n = len(units_of(m))
    return Lattice(n, fixed_basis(unit_translation(m, m - 1)))


# Memoised: every index check of a level reads the same ideal.  Its
# lattices' rows are shared with every caller, and none writes to them; an
# invalid level raises on every call.
@lru_cache(maxsize=16)
def stickelberger_ideal(m: int) -> StickelbergerData:
    """The ideal cut out by all fractional-part elements, with minus parts.

    Spanning over every residue a, not only the invertible ones, is what
    keeps each character component alive at composite levels; the span of
    the unit translates alone collapses whenever a prime factor is 1 modulo
    the conductor of an odd character (see principal_multiples_lattice).
    """
    validate_level(m)
    n = len(units_of(m))
    span = Lattice(n, _theta_scaled(m), m)
    S = lattice_intersect(span, Lattice(n, [{k: 1} for k in range(n)]))
    R_minus = minus_sublattice(m)
    S_minus = lattice_intersect(S, R_minus)
    return StickelbergerData(m, S, R_minus, S_minus)


def principal_multiples_lattice(m: int) -> Lattice:
    """Integral multiples of the single element theta: Z[G]theta meet Z[G]."""
    validate_level(m)
    n = len(units_of(m))
    # the numerators over m of theta_element(m, b), b a unit
    rows = [row for b, row in enumerate(_theta_scaled(m), 1) if gcd(b, m) == 1]
    return lattice_intersect(Lattice(n, rows, m), Lattice(n, [{k: 1} for k in range(n)]))


def definition_report(m: int) -> dict:
    """Compare the full fractional-part ideal against the principal variant.

    The report carries the minus-part ranks and, when the principal minus
    part still spans, the index ratio between the two candidates; a rank
    drop or a ratio other than 1 means the principal variant is not the
    ideal the index theorem is about.
    """
    data = stickelberger_ideal(m)
    principal = lattice_intersect(principal_multiples_lattice(m), data.R_minus)
    full_index = lattice_index(data.R_minus, data.S_minus)
    res = {
        "level": m,
        "full_minus_rank": data.S_minus.rank,
        "principal_minus_rank": principal.rank,
        "full_index": full_index,
        "principal_index": None,
        "ratio": None,
        "agree": False,
    }
    if principal.rank == data.R_minus.rank:
        pidx = lattice_index(data.R_minus, principal)
        res["principal_index"] = pidx
        res["ratio"] = pidx / full_index
        res["agree"] = pidx == full_index
    return res


# ---------------------------------------------------------------------------
# the antisymmetrized fractional-part map on distribution classes


def alpha_scaled(m: int) -> list[Row]:
    """Integer numerators N over 2m of the antisymmetrized fractional-part map,
    as one sparse row per unit over m columns.

    Column k of N / 2m is the group-ring vector of the antisymmetrized
    class of k/m, with entries 1/2 - {k t^{-1} / m}, so for k >= 1
    N[i, k] = m - 2 {k t_i^{-1} mod m}.  The columns of the two
    self-negative points (k = 0, and k = m/2 when present) vanish.
    """
    validate_level(m)
    inverses = [inverse_mod(t, m) for t in units_of(m)]
    return [{k: x for k in range(1, m) if (x := m - 2 * (k * u % m))} for u in inverses]


def alpha_lattice(m: int) -> Lattice:
    return Lattice(len(units_of(m)), _transpose(alpha_scaled(m), m), 2 * m)


def alpha_compat_check(m: int) -> dict:
    """Structural facts about the antisymmetrized map.

    It kills the distribution relations (so it is defined on classes), it
    is injective on the antisymmetrized part (full minus rank), and its
    image is spanned by the halved conjugate-differences of the
    fractional-part elements.
    """
    N = alpha_scaled(m)  # the map is N / 2m
    relations_killed = not any(_mul(N, build_jcomplex(m, DIFFERENCE).complex.d(-1)))
    n = len(units_of(m))
    lat = alpha_lattice(m)
    rank_ok = lat.rank == n // 2
    # numerators over 2m of (theta - conj theta) / 2; conjugation swaps
    # the columns t and -t
    neg = unit_translation(m, m - 1)
    rows = _theta_scaled(m)
    half_antisym = [_comb(1, row, -1, {neg[k]: x for k, x in row.items()}) for row in rows]
    span_ok = lat == Lattice(n, half_antisym, 2 * m)
    return {
        "level": m,
        "relations_killed": relations_killed,
        "rank_ok": rank_ok,
        "spans_antisymmetrized_ideal": span_ok,
        "ok": relations_killed and rank_ok and span_ok,
    }


# ---------------------------------------------------------------------------
# index identities


def _exponent_a(m: int) -> int:
    r = len(primes_of(m))
    return 0 if r == 1 else 2 ** (r - 2) - 1


def antisymmetrization_index_check(m: int) -> dict:
    """Index of the antisymmetrized image inside the full minus part.

    On the degree-zero distribution classes, (ker(1+c) : im(1-c)) is a
    power of 2 with exponent 2^(r-1).
    """
    validate_level(m)
    qu = universal_distribution(m)
    cu = qu.induced_on_free(negation_matrix(m))
    f = qu.free_rank
    minus = [_comb(1, {k: 1}, -1, row) for k, row in enumerate(cu)]  # the rows of 1 - cu
    got = lattice_index(theta_fixed(cu), Lattice(f, _transpose(minus, f)))
    r = len(primes_of(m))
    want = Fraction(2 ** (2 ** (r - 1)))
    return {"level": m, "value": got, "expected": want, "ok": got == want}


def alpha_image_index_check(m: int) -> dict:
    """Index of the antisymmetrized image lattice inside the integral minus part.

    Equals h-minus over w*Q, times 2^(2^(r-2)) when the level has several
    prime factors.
    """
    validate_level(m)
    got = lattice_index(stickelberger_ideal(m).R_minus, alpha_lattice(m))
    r = len(primes_of(m))
    want = Fraction(h_minus(m), corrector_w(m) * corrector_q(m))
    if r > 1:
        want *= 2 ** (2 ** (r - 2))
    return {"level": m, "value": got, "expected": want, "ok": got == want}


def alpha_ideal_index_check(m: int) -> dict:
    """The minus ideal sits inside the antisymmetrized image with index w."""
    validate_level(m)
    data = stickelberger_ideal(m)
    got = lattice_index(alpha_lattice(m), data.S_minus)
    want = Fraction(corrector_w(m))
    return {"level": m, "value": got, "expected": want, "ok": got == want}


def smoothing_minus_image_check(m: int) -> dict:
    """Index of the smoothed minus classes inside the average-side minus part.

    The closed form is 2^(-2^(r-2)) times the product over p | m of the
    inverse odd-character products of 1 - chi(p)/p at the p-free part of m
    (for several primes; 1/2 at odd prime powers and 1 at powers of two).
    The character products are evaluated two independent ways.
    """
    validate_level(m)
    # In degree zero the smoothing operator is N / d on the level points.
    got = fixed_image_index(
        universal_distribution(m),
        universal_predistribution(m),
        [-k % m for k in range(m)],
        *smoothing_scaled(m),
    )
    r = len(primes_of(m))
    if r > 1:
        want = Fraction(1, 2 ** (2 ** (r - 2)))
        alt = want
        for p in primes_of(m):
            f = prime_to_p_part(m, p)
            want /= character_product_minus(p, f)
            alt *= smoothing_det_minus(p, f)
    elif m % 2 == 0:
        want = alt = Fraction(1)
    else:
        want = alt = Fraction(1, 2)
    return {
        "level": m,
        "value": got,
        "expected": want,
        "ok": got == want and got == alt,
    }


def minus_ideal_index_check(m: int) -> dict:
    """Index of the minus ideal in the integral minus part: 2^a h-minus."""
    data = stickelberger_ideal(m)
    got = lattice_index(data.R_minus, data.S_minus)
    want = Fraction(2 ** _exponent_a(m) * h_minus(m))
    return {"level": m, "value": got, "expected": want, "ok": got == want}


def theta_norm_check(m: int) -> bool:
    """(1+c) theta is the norm element: {x} + {-x} = 1 off the integers."""
    theta = theta_element(m)
    return all(x + y == 1 for x, y in zip(theta.coeffs, theta.conjugate().coeffs))


def unit_translation(m: int, b: int) -> list[int]:
    """Multiplication by the unit b as a column permutation of the group ring.

    For a row matrix B of group-ring vectors, ``B[:, perm]`` is B @ P^T with
    P the permutation matrix sending the basis vector of t to that of b t.
    """
    units = units_of(m)
    idx = {t: i for i, t in enumerate(units)}
    perm = [0] * len(units)
    for t in units:
        perm[idx[b * t % m]] = idx[t]
    return perm


def group_stability_check(m: int) -> bool:
    """Each unit translate permutes the fractional-part span, so the ideal
    and its minus part are stable under the group action."""
    data = stickelberger_ideal(m)
    units = units_of(m)
    n = len(units)
    for b in units:
        # column j of B[:, perm] is column perm[j] of B
        where = {k: j for j, k in enumerate(unit_translation(m, b))}
        for lat in (data.S, data.S_minus):
            moved = [{where[k]: x for k, x in row.items()} for row in lat.rows]
            if Lattice(n, moved, lat.den) != lat:
                return False
    return True
