"""Small exact number-theory helpers shared across the package."""

from __future__ import annotations

from functools import lru_cache
from math import gcd


def validate_level(m: int) -> None:
    """Raise ValueError unless m is a level: at least 3, not twice an odd number.

    A level m = 2 mod 4 names the same cyclotomic layer as m / 2.
    """
    if m % 4 == 2:
        raise ValueError(
            f"level {m} is twice an odd number: that cyclotomic layer "
            f"coincides with level {m // 2}, so {m} is not a valid level"
        )
    if m < 3:
        raise ValueError(f"level {m} is out of range (need at least 3)")


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization ((p, multiplicity), ...) with primes increasing."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                e += 1
                n //= d
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def primes_of(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors, sorted."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def squarefree_divisors(n: int) -> list[int]:
    out = [1]
    for p in primes_of(n):
        out = out + [d * p for d in out]
    return sorted(out)


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return (-1) ** len(fac)


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def prime_to_p_part(n: int, p: int) -> int:
    return n // p_part(n, p)


def multiplicative_order(a: int, n: int) -> int:
    if n <= 0 or gcd(a, n) != 1:
        raise ValueError("order needs a unit modulo n")
    if n == 1:
        return 1
    k, x = 1, a % n
    while x != 1:
        x = x * a % n
        k += 1
    return k


def primitive_root(q: int) -> int:
    """Smallest primitive root modulo q; q must be 1, 2, 4 or an odd prime power."""
    if q in (1, 2):
        return 1
    if q == 4:
        return 3
    fac = factorize(q)
    if len(fac) != 1 or fac[0][0] == 2:
        raise ValueError(f"no primitive root modulo {q}")
    target = euler_phi(q)
    for g in range(2, q):
        if gcd(g, q) == 1 and multiplicative_order(g, q) == target:
            return g
    raise AssertionError("unreachable")


def crt(pairs: list[tuple[int, int]]) -> int:
    """Solve x = r (mod n) for pairwise coprime moduli; result mod the product."""
    x, n = 0, 1
    for r, m in pairs:
        if gcd(n, m) != 1:
            raise ValueError("crt moduli must be coprime")
        s, _ = _xgcd(n % m, m)
        x += n * ((r - x) * s % m)
        n *= m
    return x % n


def _xgcd(a: int, b: int) -> tuple[int, int]:
    """Return (s, t) with s*a + t*b == gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def inverse_mod(a: int, m: int) -> int:
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not invertible modulo {m}")
    return _xgcd(a % m, m)[0] % m
