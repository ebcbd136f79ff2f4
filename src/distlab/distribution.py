"""The universal distribution and predistribution at a fixed level.

Points of level m are the m-torsion of Q/Z, identified with Z^m through
[k/m] <-> k.  Averaging operators, the two relation lattices, their
quotients, the rational smoothing operator between them, and the exponential
comparison with the cyclotomic integer ring all live here.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd
from types import MappingProxyType
from typing import Sequence

from .abgroup import FgAbGroup, ZQuotient, _tate_pair, elementary_power
from .arith import (
    divisors,
    euler_phi,
    factorize,
    inverse_mod,
    multiplicative_order,
    prime_to_p_part,
    primes_of,
    validate_level,
)
from .exact_linalg import (
    Lattice,
    Row,
    _axpy,
    _kernel,
    _mul,
    _rank,
    _transpose,
    det_exact,
)

# ---------------------------------------------------------------------------
# averaging operators on level points


def mult_matrix(m: int, n: int) -> list[Row]:
    """The map [x] -> [n x] on level-m points, as m sparse rows."""
    M: list[Row] = [{} for _ in range(m)]
    for k in range(m):
        M[n * k % m][k] = 1
    return M


def x_matrix(m: int, n: int) -> list[Row]:
    """Sum over the n preimages of multiplication by n, level m/n -> level m.

    Column i is the element sum of [b] over n b = i/(m/n); all preimages
    exist inside level m exactly when n divides m, so anything else raises.
    As m sparse rows over m/n columns, row k is the unit row of k mod m/n.
    """
    if n <= 0 or m % n:
        raise ValueError("averaging needs n dividing the level")
    s = m // n
    return [{k % s: 1} for k in range(m)]


def y_matrix(m: int, n: int) -> list[Row]:
    """The difference-operator analogue of x_matrix, level m/n -> level m."""
    if n <= 0 or m % n:
        raise ValueError("averaging needs n dividing the level")
    fac = factorize(n)
    M: list[Row] = [{} for _ in range(m)]
    for d in divisors(n):
        coef = 1
        for p, e in fac:
            v = 0
            dd = d
            while dd % p == 0:
                v += 1
                dd //= p
            coef *= (-1) ** v * comb(e, v)
        # column i gains coef times column i * (n / d) of x_matrix(m, d)
        step = n // d
        for k, row in enumerate(x_matrix(m, d)):
            for j in row:
                if j % step == 0:
                    _axpy(M[k], {j // step: 1}, coef)
    return M


def negation_matrix(m: int) -> list[Row]:
    return mult_matrix(m, m - 1)


# ---------------------------------------------------------------------------
# the digit-restricted points and the standard bases


def restricted_point(k: int, m: int) -> bool:
    """Whether k/m avoids a maximal leading digit at every prime of m.

    Writing k/m = sum over p of n_p / p^e by partial fractions, the test is
    that the leading base-p digit of n_p never equals p - 1.
    """
    for p, e in factorize(m):
        q = p**e
        n_p = k * inverse_mod(m // q, q) % q
        if n_p // (q // p) == p - 1:
            return False
    return True


def restricted_points(m: int) -> list[int]:
    return [k for k in range(m) if restricted_point(k, m)]


def standard_basis(m: int, difference: bool = False) -> tuple[list[Row], list[tuple[int, int]]]:
    """The averaged restricted points as the m sparse rows of a matrix whose
    columns they are.

    Columns are X_n (or Y_n when difference is set) applied to restricted
    points of level m/n, over all divisors n of m; the count works out to
    exactly m and the matrix is expected to be unimodular.
    """
    cols = []
    index = []
    for n in divisors(m):
        A = _transpose(y_matrix(m, n) if difference else x_matrix(m, n), m // n)
        for i in restricted_points(m // n):
            cols.append(A[i])
            index.append((n, i))
    return _transpose(cols, m), index


def basis_check(m: int) -> dict:
    X, ix = standard_basis(m, difference=False)
    Y, iy = standard_basis(m, difference=True)
    return {
        "level": m,
        "count": len(ix),
        "count_ok": len(ix) == m and len(iy) == m,
        "x_unimodular": len(ix) == m and abs(det_exact(X, m)) == 1,
        "y_unimodular": len(iy) == m and abs(det_exact(Y, m)) == 1,
    }


# ---------------------------------------------------------------------------
# relation lattices and the two quotients


def _relation_rows(m: int, bare: bool, steps) -> list[Row]:
    """Sparse relation rows at level m, one per pair (n, a), n in steps, a < m/n.

    Each step n must be a divisor of m above 1; ValueError names any other.
    The level-(m/n) point a is the point n a of level m, and its n
    preimages are a + t m/n, the ones of column a of ``x_matrix(m, n)``.
    The bare (predistribution) row is their sum; the distribution row is
    [n a] minus that sum, in which [n a] cancels a preimage it equals.
    """
    rows = []
    sign = 1 if bare else -1
    for n in steps:
        if type(n) is not int or n <= 1 or m % n:
            raise ValueError(f"relation step {n!r} is not a divisor of {m} above 1")
        s = m // n
        for a in range(s):
            row = {a + t * s: sign for t in range(n)}
            if not bare:
                x = row.pop(a * n, 0) + 1
                if x:
                    row[a * n] = x
            rows.append(row)
    return rows


def _certified_rows(m: int, bare: bool) -> list[Row]:
    """The prime-step relation rows of level m, once every composite-step
    row is certified to lie in their span.

    With p the least prime of n and n' = n/p, the row of (n, a) must equal
    R_p(n' a) + sum over t < p of R_n'(a + t m/n), and the bare rows have
    no R_p term; by induction on n, each composite row then lies in the
    span.  ArithmeticError names the first row that differs.
    """
    rows = {n: _relation_rows(m, bare, [n]) for n in divisors(m)[1:]}
    for n, got in rows.items():
        p = primes_of(n)[0]
        for a, row in enumerate(got if p < n else ()):
            want = {} if bare else dict(rows[p][n // p * a])
            for t in range(p):
                _axpy(want, rows[n // p][a + t * (m // n)], 1)
            if want != row:
                kind = "predistribution" if bare else "distribution"
                raise ArithmeticError(f"{kind} relation at step n = {n}, a = {a} is not certified")
    return [row for p in primes_of(m) for row in rows[p]]


def distribution_relation_rows(m: int) -> list[Row]:
    """One sparse row per pair (n, a): [a] minus the sum of its n preimages."""
    return _relation_rows(m, False, divisors(m)[1:])


def predistribution_relation_rows(m: int) -> list[Row]:
    """One sparse row per pair (n, a): the bare preimage sum."""
    return _relation_rows(m, True, divisors(m)[1:])


def distribution_lattice(m: int) -> Lattice:
    return Lattice(m, universal_distribution(m).rows)


def predistribution_lattice(m: int) -> Lattice:
    return Lattice(m, universal_predistribution(m).rows)


def prime_step_relations_suffice(m: int) -> bool:
    """Relations at prime n already span the full relation lattice.

    The ``universal_*`` quotients rest on the certificate of
    ``_certified_rows``; this is the independent route, on Hermite rows.
    """
    return all(
        ZQuotient(m, _relation_rows(m, bare, divisors(m)[1:])).rows
        == ZQuotient(m, _relation_rows(m, bare, primes_of(m))).rows
        for bare in (False, True)
    )


# Memoised: the Tate groups and the Stickelberger checks of a level read
# the same quotient, built from the certified prime-step rows, and callers
# must not modify it.  The Tate groups read only its sparse Hermite rows;
# the Smith coordinates are built on first use, and the bound is small
# because each quotient that has them holds its n x n transforms.
@lru_cache(maxsize=8)
def universal_distribution(m: int) -> ZQuotient:
    return ZQuotient(m, _certified_rows(m, False))


@lru_cache(maxsize=8)
def universal_predistribution(m: int) -> ZQuotient:
    return ZQuotient(m, _certified_rows(m, True))


# ---------------------------------------------------------------------------
# Tate cohomology of the negation action


# Memoised: the cohomology check and every spectral page check of a level
# ask for the same four groups, and both parities of a quotient come from
# one call.  FgAbGroup is frozen, and a bad level raises on every call,
# since lru_cache stores no exception.
@lru_cache(maxsize=16)
def _free_tate(m: int, bare: bool) -> tuple[FgAbGroup, FgAbGroup]:
    """(even, odd) Tate groups of negation on the predistribution quotient
    (``bare``) or the distribution quotient of level m.

    The rank route of ``tate_pair`` reads the sparse Hermite relation rows
    and negation as its permutation columns, column k being e_(-k), so
    nothing dense is built; it raises ValueError if the quotient has 2- or
    3-torsion, where its rank formula fails.
    """
    validate_level(m)
    q = universal_predistribution(m) if bare else universal_distribution(m)
    return _tate_pair([{(-k) % m: 1} for k in range(m)], q.rows)


def _parity_index(parity: str) -> int:
    """Where a parity sits in the (even, odd) pair."""
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'odd' or 'even'")
    return int(parity == "odd")


def tate_distribution(m: int, parity: str) -> FgAbGroup:
    i = _parity_index(parity)
    return _free_tate(m, False)[i]


def tate_predistribution(m: int, parity: str) -> FgAbGroup:
    i = _parity_index(parity)
    return _free_tate(m, True)[i]


def cohomology_check(m: int) -> dict:
    """Both parities of both quotients against the closed forms.

    Expected: (Z/2)^(2^(r-1)) with r the number of primes of m for the
    distribution, and a single Z/2 exactly at two-power levels for the
    predistribution; levels twice an odd number are rejected upstream.
    """
    validate_level(m)
    r = len(factorize(m))
    expect_u = elementary_power(2, 2 ** (r - 1))
    expect_o = elementary_power(2, 1 if len(factorize(m)) == 1 and m % 2 == 0 else 0)
    got = {
        "u_odd": tate_distribution(m, "odd"),
        "u_even": tate_distribution(m, "even"),
        "o_odd": tate_predistribution(m, "odd"),
        "o_even": tate_predistribution(m, "even"),
    }
    return {
        "level": m,
        "primes": r,
        "u_expected": str(expect_u),
        "o_expected": str(expect_o),
        "u_odd": str(got["u_odd"]),
        "u_even": str(got["u_even"]),
        "o_odd": str(got["o_odd"]),
        "o_even": str(got["o_even"]),
        "ok": got["u_odd"] == expect_u
        and got["u_even"] == expect_u
        and got["o_odd"] == expect_o
        and got["o_even"] == expect_o,
    }


# ---------------------------------------------------------------------------
# the rational smoothing operator


def smoothing_factor_scaled(m: int, p: int) -> tuple[list[Row], int]:
    """(N, d) with N / d = (1 - S_p/p)^(-1) on level-m points, d least, N as sparse rows.

    Columns follow the forward orbit of multiplication by p, which is a tail
    into a cycle; the tail contributes single hits 1/p^j and the cycle
    contributes a closed geometric sum, p^cl / (p^cl - 1) times 1/p^j.
    With m = p^e f and o the order of p mod f, every tail is at most e
    steps long and every cycle length cl divides o, so D = p^e (p^o - 1)
    clears every denominator and each hit is a positive integer over D.
    N and d are those integers and D over their common divisor.
    """
    f = prime_to_p_part(m, p)
    o = multiplicative_order(p, f)
    D = m // f * (p**o - 1)
    N: list[Row] = [{} for _ in range(m)]
    for k in range(m):
        path = []
        pos = {}
        cur = k
        while cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            cur = cur * p % m
        start = pos[cur]
        cl = len(path) - start
        on_cycle = p**cl * (D // (p**cl - 1))
        for j, node in enumerate(path):  # the nodes of a path are distinct
            N[node][k] = (D if j < start else on_cycle) // p**j
    g = gcd(D, *(x for row in N for x in row.values()))
    return [{k: x // g for k, x in row.items()} for row in N], D // g


def smoothing_scaled(m: int, primes=None) -> tuple[Sequence[Row], int]:
    """(N, d) with N / d the product of the geometric factors at level m.

    The product runs over ``primes`` (default: every p | m).  N is the
    integer product of the scaled factors, as sparse rows, and d the
    product of their denominators.  It is memoised by (m, primes), so the
    degree-zero block of the symbol operator and the checks on level
    points read one N: a tuple of read-only rows.
    """
    return _smoothing_product(m, tuple(primes_of(m) if primes is None else primes))


# The bound holds every block of one level with up to five primes.
@lru_cache(maxsize=32)
def _smoothing_product(m: int, primes: tuple[int, ...]) -> tuple[Sequence[Row], int]:
    N, d = [{k: 1} for k in range(m)], 1
    for p in primes:
        F, e = smoothing_factor_scaled(m, p)
        N, d = _mul(F, N), d * e
    return tuple(MappingProxyType(row) for row in N), d  # shared by every caller


def smoothing_inverse_scaled(m: int) -> tuple[list[Row], int]:
    """(prod over p | m of (p I - S_p), prod over p | m of p), as sparse rows over an integer."""
    N, d = [{k: 1} for k in range(m)], 1
    for p in primes_of(m):
        F: list[Row] = [{k: p} for k in range(m)]
        for k in range(m):
            _axpy(F[p * k % m], {k: 1}, -1)  # S_p sends the point k to p k
        N, d = _mul(F, N), d * p
    return N, d


def smoothing_check(m: int) -> dict:
    """The operator really inverts the finite product, and it carries the
    one relation lattice into the rational span of the other.

    Both run on the sparse rows of the scaled numerators: N N' == d d' I,
    and the positive scalar d changes no rank."""
    N, d = smoothing_scaled(m)
    N_inv, d_inv = smoothing_inverse_scaled(m)
    inv_ok = _mul(N, N_inv) == [{k: d * d_inv} for k in range(m)]
    span_ok = True
    if m > 1:
        # the relations r go to N r, the rows r N^T
        carried = _mul(_relation_rows(m, False, divisors(m)[1:]), _transpose(N, m))
        pre = universal_predistribution(m).rows
        span_ok = _rank(pre + carried, m) == len(pre)
    return {"level": m, "inverse_ok": inv_ok, "relations_carried": span_ok,
            "ok": inv_ok and span_ok}


# ---------------------------------------------------------------------------
# comparison with the cyclotomic integers


def exp_map_matrix(m: int) -> list[Row]:
    """[k/m] -> (k-th power of a primitive root) in Z[x]/(level-m minimal poly),
    as phi(m) sparse rows over m columns."""
    from .cyclotomic import _zeta_power_table

    table = _zeta_power_table(m)
    cols = [{i: x for i, x in enumerate(table[k]) if x} for k in range(m)]
    return _transpose(cols, euler_phi(m))


def exp_kernel_check(m: int) -> dict:
    """The kernel of the exponential map is exactly the bare relation lattice,
    and the map is onto the full integer ring."""
    E = exp_map_matrix(m)
    phi = euler_phi(m)
    ker = Lattice(m, _kernel(E, m))
    onto = Lattice(phi, _transpose(E, m)) == Lattice(phi, [{i: 1} for i in range(phi)])
    same = ker == predistribution_lattice(m) if m > 1 else ker.rank == 0
    return {"level": m, "kernel_matches": same, "onto": onto, "ok": same and onto}
