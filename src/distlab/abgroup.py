"""Finitely generated abelian groups, bounded complexes, and regulators.

Every operator here is a list of sparse integer rows (``exact_linalg.Row``,
checked by ``_check_rows``), and a rational map is a pair (N, e): the rows
of its integer numerators over one positive denominator.  Each group
builder takes rows only.

Groups are kept in canonical form (free rank plus invariant-factor chain).
A ``ZQuotient`` carries the explicit Smith coordinates of a presentation
``Z^n / rowspan(relations)`` so that subgroups, induced maps, and fixed
parts can be pushed through presentations exactly; the Smith form is run
on first use of those coordinates, so a quotient read only through its
relation rows never pays for it.

The regulator of a rational isomorphism between commensurable groups, its
multiplicativity along complexes, Tate cohomology of an involution on a
presented group (by a Smith form in ``tate_group``, and from ranks over F_2
and F_3 in ``tate_pair``), and the index invariant of an involution acting
on an acyclic-away-from-zero complex all live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import prod
from types import MappingProxyType
from typing import Mapping, Sequence

from .exact_linalg import (
    Lattice,
    Row,
    _axpy,
    _check_rows,
    _comb,
    _coords,
    _hermite,
    _kernel,
    _mul,
    _rank,
    _smith,
    _transpose,
    det_exact,
    integral_preimage,
    lattice_index,
    solve_exact,
)

# A rational map N / e: integer numerator rows over a positive denominator.
Scaled = tuple[list[Row], int]


@dataclass(frozen=True)
class FgAbGroup:
    """A finitely generated abelian group in canonical form.

    >>> G = FgAbGroup.from_relations(3, [{0: 2}, {1: 3}])
    >>> G.free_rank, G.torsion
    (1, (6,))
    >>> str(G)
    'Z + Z/6'
    >>> FgAbGroup(0, (2, 4)).order()
    8
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for x in (self.free_rank, *self.torsion):
            if type(x) is not int:
                raise ValueError(f"free rank and torsion must be ints, got {x!r}")
        if self.free_rank < 0:
            raise ValueError(f"free rank must be non-negative, got {self.free_rank}")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion is not an invariant-factor chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("invariant factors must be at least 2")

    @classmethod
    def from_relations(cls, ngens: int, rows: list[Row]) -> "FgAbGroup":
        """The group Z^ngens modulo the sparse relation rows (checked, then copied)."""
        return _group(ngens, [dict(row) for row in _check_rows(rows, ngens)])

    @classmethod
    def from_invariants(cls, free_rank: int, factors) -> "FgAbGroup":
        """Canonicalize an arbitrary multiset of cyclic orders.

        An order 0 is a free summand.  The chain is the Smith form of the
        diagonal matrix of the orders.

        >>> FgAbGroup.from_invariants(0, [2, 3]).torsion
        (6,)
        >>> str(FgAbGroup.from_invariants(1, [4, 0, 6]))
        'Z^2 + Z/2 + Z/12'
        """
        orders = list(factors)
        if any(d < 0 for d in orders):
            raise ValueError(f"cyclic orders must be non-negative, got {orders}")
        G = _group(len(orders), [{i: d} for i, d in enumerate(orders) if d])
        return cls(free_rank + G.free_rank, G.torsion)

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        return None if self.free_rank else self.torsion_order()

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def torsion_order(self) -> int:
        return prod(self.torsion)

    def direct_sum(self, other: "FgAbGroup") -> "FgAbGroup":
        return FgAbGroup.from_invariants(
            self.free_rank + other.free_rank, self.torsion + other.torsion
        )

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _group(n: int, rows: list[Row]) -> FgAbGroup:
    """Z^n modulo the sparse relation rows, off their Smith diagonal (in place)."""
    facs = [d for d in _smith(rows, n)[0] if d]
    return FgAbGroup(n - len(facs), tuple(d for d in facs if d > 1))


def elementary_power(order: int, copies: int) -> FgAbGroup:
    """(Z/order)^copies, a convenient literal for expected values."""
    return FgAbGroup(0, (order,) * copies)


# ---------------------------------------------------------------------------
# Presentations with explicit coordinates


class ZQuotient:
    """Z^n modulo the row span of integer relations.

    The relations are sparse ``dict`` rows of ints on Z^n (checked, then
    copied).  ``rows`` holds their one canonical form, the nonzero Hermite
    rows: two presentations of one lattice get equal rows and equal
    coordinates.  As the rows are independent, ``group`` is their Smith
    form alone and ``free_rank`` is n minus their count.

    Tracks the Smith transform ``U @ rel.T @ V = D`` so the quotient gets
    explicit coordinates z = U Λ x: positions with d=1 are dead, d>1 are
    torsion coordinates, d=0 are free.  ``P`` projects onto the free
    coordinates and ``S`` is a section with P @ S = identity.  U, U^-1,
    P (f x n) and S (n x f) are sparse rows, built on the first read of
    ``P``, ``S``, ``induced_on_free``, ``U``, ``Uinv`` or ``dvec``.  U, P
    and S are kept, so they are read-only rows, shared by every reader of
    a memoised quotient; ``Uinv`` is built fresh on each read.
    """

    def __init__(self, n: int, relation_rows: list[Row]):
        self.n = n
        # copies, as the reduction works in place
        self.rows = _hermite([dict(row) for row in _check_rows(relation_rows, n)], n)

    @cached_property
    def _snf(self) -> tuple[tuple[Mapping[int, int], ...], list[Row], list[int]]:
        """(U, the columns of U^-1, d): the row transforms of the Smith form
        of the transposed relation rows and its diagonal, padded with zeros
        to length n."""
        d, U, Ui, _, _ = _smith(_transpose(self.rows, self.n), len(self.rows), u=True, u_inv=True)
        return _read_only(U), Ui, d + [0] * (self.n - len(d))

    @property
    def U(self) -> tuple[Mapping[int, int], ...]:
        return self._snf[0]

    @property
    def Uinv(self) -> list[Row]:
        return _transpose(self._snf[1], self.n)

    @property
    def dvec(self) -> list[int]:
        return self._snf[2]

    @cached_property
    def free_idx(self) -> list[int]:
        return [j for j, d in enumerate(self.dvec) if d == 0]

    @cached_property
    def group(self) -> FgAbGroup:
        return _group(self.n, [dict(row) for row in self.rows])

    @property
    def free_rank(self) -> int:
        return self.n - len(self.rows)

    @cached_property
    def P(self) -> tuple[Mapping[int, int], ...]:
        """Projection Z^n -> Z^f onto free coordinates: the rows of U there."""
        return tuple(self.U[j] for j in self.free_idx)

    @cached_property
    def S(self) -> tuple[Mapping[int, int], ...]:
        """Section Z^f -> Z^n of P: the columns of U^-1 there, as n rows."""
        return _read_only(_transpose([self._snf[1][j] for j in self.free_idx], self.n))

    def induced_on_free(self, C: list[Row]) -> list[Row]:
        """Rows of an endomorphism C on the free part, P C S.

        Well defined as soon as C maps the relation lattice into itself;
        the caller is expected to pass such an integral map.  C is given
        by its n sparse rows over n columns.
        """
        C = self._check_endomorphism(C)
        return _mul(_mul(self.P, C), self.S)

    def stabilizes(self, C: list[Row]) -> bool:
        """Does C, given by its n sparse rows, map the relation lattice into itself?"""
        C = self._check_endomorphism(C)
        # C moves relation r (a column) to C r, the row r C^T.
        piv = {min(h): i for i, h in enumerate(self.rows)}
        moved = _mul(self.rows, _transpose(C, self.n))
        return all(_coords(self.rows, v, piv) is not None for v in moved)

    def _check_endomorphism(self, C: list[Row]) -> list[Row]:
        if len(C) != self.n:
            raise ValueError(f"map has {len(C)} rows, want {self.n}")
        return _check_rows(C, self.n, "map")


def _read_only(rows: list[Row]) -> tuple[Mapping[int, int], ...]:
    return tuple(MappingProxyType(row) for row in rows)


def subquotient_group(num: list[Row], den: list[Row], n: int) -> FgAbGroup:
    """(Z-span of num) / (Z-span of den) for sparse rows over columns < n.

    ``_check_rows`` checks both.  The num rows must be independent and
    every den row an integral combination of them; ValueError names the
    first row that is not.  The group is read off the Smith diagonal of the
    den rows' coordinates in the Hermite basis of num, reduced on a copy.
    """
    num = _check_rows(num, n, "numerator")
    den = _check_rows(den, n, "denominator")
    k = len(num)
    H = _hermite([dict(row) for row in num], n)
    if len(H) < k:
        raise ValueError(f"numerator rows are dependent: rank {len(H)} of {k} rows")
    piv = {min(h): i for i, h in enumerate(H)}
    coords = []
    for i, v in enumerate(den):
        x = _coords(H, v, piv)
        if x is None:
            if _rank(H + [v], n) == len(H):
                where = "inside its rational span, not integral"
            else:
                where = "outside its rational span"
            raise ValueError(f"denominator row {i} is not in the numerator lattice: {where}")
        coords.append(x)
    return _group(k, coords)


def tate_group(C: list[Row], relation_rows: list[Row], degree_parity: str) -> FgAbGroup:
    """Tate cohomology of the order-2 action C on Z^n / relations.

    C is given by its n sparse rows over n columns and the relations by
    rows on Z^n; ``_check_action`` checks both.

    'odd'  -> ker(1+c) / im(1-c)
    'even' -> ker(1-c) / im(1+c)
    """
    if degree_parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    C, R = _check_action(C, relation_rows)
    return _tate_group(C, R, 1 if degree_parity == "odd" else -1)


def _tate_group(C: list[Row], R: list[Row], s: int) -> FgAbGroup:
    """``tate_group`` on checked rows: ker(1 + sC) / (im(1 - sC) + R), s = 1 for 'odd'."""
    n = len(C)
    num = integral_preimage([_comb(s, row, 1, {k: 1}) for k, row in enumerate(C)], R, n)
    den = [_comb(-s, col, 1, {k: 1}) for k, col in enumerate(_transpose(C, n))]
    return subquotient_group(num, den + R, n)


def _check_action(C: list[Row], relation_rows: list[Row]) -> tuple[list[Row], list[Row]]:
    """The checked rows of C and of the relations, or ValueError unless C
    (n rows over n columns) is an order-2 action on Z^n / relations: C^2 - 1
    maps Z^n, and C the relations, into the relation lattice."""
    n = len(C)
    C, R = _check_rows(C, n, "map"), _check_rows(relation_rows, n)
    L = Lattice(n, R)
    # the columns of C^2 - 1, as rows
    sq = _mul(C, C)
    for k, row in enumerate(sq):
        _axpy(row, {k: 1}, -1)
    if not L.contains(_transpose(sq, n)):
        raise ValueError(f"the map does not square to 1 on Z^{n} / relations")
    if not L.contains(_mul(R, _transpose(C, n))):
        raise ValueError("the map does not stabilize the relation lattice")
    return C, R


def _f2_gain(basis: dict[int, int], rows: list[int]) -> int:
    """Add F_2 rows (bit j = column j) to an echelon basis keyed by lowest bit.

    Returns how many of them were independent of the basis so far.  Each
    step must raise the row's lowest set bit, or ArithmeticError names it.
    """
    gained = 0
    for v in rows:
        last = 0
        while v:
            low = v & -v
            if low <= last:
                raise ArithmeticError(f"F_2 basis row at bit {last.bit_length() - 1} does not clear it")
            b = basis.get(low)
            if b is None:
                basis[low] = v
                gained += 1
                break
            v ^= b
            last = low
    return gained


def _f3_gain(basis: dict[int, tuple[int, int]], rows: list[tuple[int, int]]) -> int:
    """Add F_3 rows to an echelon basis keyed by lowest bit, as ``_f2_gain`` does.

    A row is two bit planes (ones, twos): bit j is set in the first where
    its entry at column j is 1 and in the second where it is 2, so -v
    swaps them.  Basis rows have leading entry 1.  Returns how many of the
    rows were independent of the basis so far, each step checked as there.
    """
    gained = 0
    for u, w in rows:
        last = 0
        while u | w:
            low = (u | w) & -(u | w)
            if low <= last:
                raise ArithmeticError(f"F_3 basis row at bit {last.bit_length() - 1} does not clear it")
            b = basis.get(low)
            if b is None:
                basis[low] = (u, w) if u & low else (w, u)
                gained += 1
                break
            # v - b if v leads with 1, v + b if with 2, in six bit operations
            x, y = b if w & low else b[::-1]
            t = (u | y) ^ (w | x)
            u, w = (w | y) ^ t, (u | x) ^ t
            last = low
    return gained


def tate_pair(C: list[Row], relation_rows: list[Row]) -> tuple[FgAbGroup, FgAbGroup]:
    """(even, odd) Tate cohomology of the order-2 action C on M = Z^n / relations.

    By Diederichsen and Reiner every Z[C2]-lattice is Z^a + Z_-^b +
    Z[C2]^r, so Ĥ^even = ker(1-c)/im(1+c) = (Z/2)^a and Ĥ^odd = (Z/2)^b,
    and rank_F2(1+c) = r, rank_F3(1+c) = a + r; 2 is a unit mod 3, so
    M/3M = im(1+c) + im(1-c) and b + r = dim M/3M - a - r.  On M each
    rank is rank_Fp([R; (1 + C)^T]) - rank_Fp(R): R is eliminated once
    per prime and the rows of (1 + C)^T are reduced against that echelon,
    as Python ints under XOR over F_2 and as pairs of bit-plane ints over
    F_3, so nothing dense is built.  Only the rows at the columns without
    a pivot are needed: with R those unit vectors span F_p^n, and C maps
    R into itself, so their images span the image of 1 + C modulo R.
    Agrees with ``tate_group``, the Smith route.

    The relation rows must be independent (a Hermite basis, say), and M
    must have no 2- or 3-torsion: unless R keeps its row count as its
    rank mod 2 and mod 3, ValueError names the prime.  Torsion of order
    prime to 6 has trivial Tate groups and leaves the ranks unchanged, so
    it is allowed.  C is given by its n sparse rows over n columns and the
    relations by rows on Z^n; ``_check_action`` checks both, and that C is
    an order-2 action on M, as ``tate_group`` does.
    """
    C, R = _check_action(C, relation_rows)
    return _tate_pair(_transpose(C, len(C)), R)


def _tate_pair(cols: list[Row], R: list[Row]) -> tuple[FgAbGroup, FgAbGroup]:
    """``tate_pair`` on sparse rows: cols[k] is column k of C, R the relation rows."""
    n = len(cols)

    def image(k: int) -> Row:
        # row k of (1 + C)^T, e_k + column k of C; a zero entry drops out mod p
        row = dict(cols[k])
        row[k] = row.get(k, 0) + 1
        return row

    def bits(rows: list[Row]) -> tuple[list[int], list[tuple[int, int]]]:
        # per row, the bits of its odd entries and its two F_3 bit planes
        odd, planes = [], []
        for row in rows:
            o = u = w = 0
            for j, x in row.items():
                if x & 1:
                    o |= 1 << j
                if x % 3 == 1:
                    u |= 1 << j
                elif x % 3:
                    w |= 1 << j
            odd.append(o)
            planes.append((u, w))
        return odd, planes

    R2, R3 = bits(R)
    f2: dict[int, int] = {}
    f3: dict[int, tuple[int, int]] = {}
    for p, got in ((2, _f2_gain(f2, R2)), (3, _f3_gain(f3, R3))):
        if got != len(R):
            raise ValueError(
                f"Z^{n} / relations has {p}-torsion (or dependent relation rows); "
                "the rank route needs neither"
            )
    free2 = [k for k in range(n) if 1 << k not in f2]
    free3 = [k for k in range(n) if 1 << k not in f3]
    r = _f2_gain(f2, bits([image(k) for k in free2])[0])
    a = _f3_gain(f3, bits([image(k) for k in free3])[1]) - r
    b = len(free3) - a - 2 * r  # dim M/3M = len(free3)
    return elementary_power(2, a), elementary_power(2, b)


def theta_fixed(C: list[Row]) -> Lattice:
    """Saturated kernel of 1 + C on the ambient free module, as a lattice.

    C is given by its n sparse rows over n columns."""
    n = len(C)
    plus = [_comb(1, row, 1, {k: 1}) for k, row in enumerate(_check_rows(C, n, "map"))]
    return Lattice(n, _kernel(plus, n))


# ---------------------------------------------------------------------------
# Bounded complexes


class BoundedComplex:
    """A cochain complex of free Z-modules on degrees [lo, hi].

    ``diff[i]`` and ``d(i)`` are d: X^i -> X^{i+1} as sparse integer rows
    acting on columns, rank(i+1) rows over columns < rank(i).  The ranks,
    each differential's degree, row count and rows (``_check_rows``) and
    then d^2 = 0 are validated at construction, each failure a ValueError
    naming where.  The complex is immutable after construction, so each
    degree's cohomology data is computed once and kept.
    """

    def __init__(self, ranks: Mapping[int, int], diff: Mapping[int, list[Row]]):
        self.ranks = dict(ranks)
        for i, r in self.ranks.items():
            if type(r) is not int or r < 0:
                raise ValueError(f"rank at degree {i} is {r!r}, want a non-negative int")
        self.lo = min(self.ranks)
        self.hi = max(self.ranks)
        self.diff = {}
        for i, rows in diff.items():
            if not self.lo <= i <= self.hi:
                raise ValueError(f"d at degree {i} is outside the degrees {self.lo} to {self.hi}")
            if len(rows) != self.rank(i + 1):
                raise ValueError(f"d at degree {i} has {len(rows)} rows, want {self.rank(i + 1)}")
            self.diff[i] = _check_rows(rows, self.rank(i), f"d at degree {i}")
        for i in range(self.lo, self.hi):
            for r, row in enumerate(_mul(self.d(i + 1), self.d(i))):
                if row:
                    j = min(row)
                    raise ValueError(
                        f"d^2 != 0 between degrees {i} and {i + 2}: entry ({r}, {j}) is {row[j]}"
                    )
        self._cohomology: dict[int, tuple[list[Row], ZQuotient]] = {}

    def rank(self, i: int) -> int:
        return self.ranks.get(i, 0)

    def d(self, i: int) -> list[Row]:
        if i in self.diff:
            return self.diff[i]
        return [{} for _ in range(self.rank(i + 1))]

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def cohomology_data(self, i: int) -> tuple[list[Row], ZQuotient]:
        """(Hermite basis rows of the saturated kernel, quotient by the image) at degree i."""
        if i not in self._cohomology:
            n = self.rank(i)
            K = _hermite(_kernel(self.d(i), n), n)
            piv = {min(h): t for t, h in enumerate(K)}
            rel = []  # the image columns in kernel coordinates
            for j, col in enumerate(_transpose(self.d(i - 1), self.rank(i - 1))):
                x = _coords(K, col, piv)
                if x is None:
                    raise ValueError(
                        f"column {j} of d at degree {i - 1} is not in the integral kernel"
                    )
                rel.append(x)
            self._cohomology[i] = K, ZQuotient(len(K), rel)
        return self._cohomology[i]

    def cohomology(self, i: int) -> FgAbGroup:
        _, q = self.cohomology_data(i)
        return q.group

    def is_exact_away_from(self, deg: int) -> bool:
        return all(self.cohomology(i).is_trivial for i in self.degrees() if i != deg)


def _two_cycles(perm: list[int]) -> list[int]:
    """The smaller index of each 2-cycle of the involution perm."""
    return [k for k, j in enumerate(perm) if k < j]


def fixed_basis(perm: list[int]) -> list[Row]:
    """Rows e_k - e_c(k), one per 2-cycle: a basis of the saturated ker(1 + c)."""
    return [{k: 1, perm[k]: -1} for k in _two_cycles(perm)]


def fixed_restriction(N: Sequence[Row], src: list[int], tgt: list[int]) -> list[Row]:
    """The rows N on ``fixed_basis`` rows, for N c_src = c_tgt N: entries N[i, k] - N[i, c(k)]."""
    return _mul([N[i] for i in _two_cycles(tgt)], _transpose(fixed_basis(src), len(src)))


@dataclass(eq=False)
class JComplex:
    """A bounded complex with an involution c commuting with the differential.

    ``involution[i][k]`` is the index of c(e_k), and c is read only as that
    permutation; missing degrees are filled in as the identity.  The fixed
    subcomplex and the index invariant are computed once and kept;
    ``pages`` holds the spectral pages built on it.  Equality is identity.
    """

    complex: BoundedComplex
    involution: dict[int, list[int]] = field(default_factory=dict)
    _fixed: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _i_invariant: Fraction | None = field(default=None, init=False, compare=False, repr=False)
    pages: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        C, given = self.complex, self.involution
        for i in set(given) - set(C.degrees()):
            raise ValueError(f"involution at degree {i}, outside the complex")
        self.involution = {i: given.get(i, list(range(C.rank(i)))) for i in C.degrees()}
        for i, perm in self.involution.items():
            for j in perm:
                if type(j) is not int:
                    raise ValueError(f"involution at degree {i}: entry {j!r} is not an integer")
            if sorted(perm) != list(range(C.rank(i))):
                raise ValueError(f"involution at degree {i} is not a permutation of {C.rank(i)} indices")
            if any(perm[j] != k for k, j in enumerate(perm)):
                raise ValueError(f"involution at degree {i} does not square to 1")
        # row k of c d is row c(k) of d, row k of d c is row k of d with columns moved by c
        for i in range(C.lo, C.hi):
            src, tgt, d = self.involution[i], self.involution[i + 1], C.d(i)
            for k, row in enumerate(d):
                if {src[j]: x for j, x in row.items()} != d[tgt[k]]:
                    raise ValueError(
                        f"involution does not commute with d at degree {i}: row {k} differs"
                    )

    def fixed_subcomplex(self) -> tuple[BoundedComplex, dict[int, list[Row]]]:
        """The annihilator of 1+c on its ``fixed_basis`` rows, and those rows."""
        if self._fixed is None:
            C, c = self.complex, self.involution
            bases = {i: fixed_basis(c[i]) for i in C.degrees()}
            diff = {i: fixed_restriction(C.d(i), c[i], c[i + 1]) for i in range(C.lo, C.hi)}
            ranks = {i: len(B) for i, B in bases.items()}
            self._fixed = BoundedComplex(ranks, diff), bases
        return self._fixed


# ---------------------------------------------------------------------------
# Regulators


def _check_scaled(lam: Scaled, n: int, name: str) -> Scaled:
    """The checked (N, e) of a rational n x n map N / e: n sparse integer
    rows over columns < n (``_check_rows``) and a positive integer
    denominator; each ValueError names the map."""
    N, e = lam
    if len(N) != n or any(type(j) is int and j >= n for row in N for j in row):
        raise ValueError(f"{name} is not {n} x {n}")
    if type(e) is not int or e < 1:
        raise ValueError(f"{name} has denominator {e!r}, want a positive integer")
    return _check_rows(N, n, name), e


def _abs_det(lam: Scaled, name: str) -> Fraction:
    """|det(N / e)| of a checked map, the covolume of its rows; ValueError names a singular one."""
    N, e = lam
    L = Lattice(len(N), N, e)
    if L.rank < len(N):
        raise ValueError(f"{name} is singular")
    return L.covolume


def regulator(A: FgAbGroup, B: FgAbGroup, lam: Scaled) -> Fraction:
    """Regulator of a rational isomorphism lam: R⊗A -> R⊗B.

    lam = (N, e) is the map N / e on the free parts, as ``_check_scaled``
    takes it.  Computed through the canonical free parts: |det lam|
    corrected by the torsion orders.  Independent of which finite-index
    free subgroups are used to define it; see the randomized property test.

    >>> regulator(FgAbGroup(1, (2,)), FgAbGroup(1), ([{0: 3}], 1))
    Fraction(3, 2)
    """
    if A.free_rank != B.free_rank:
        raise ValueError("ranks differ; no rational isomorphism exists")
    d = _abs_det(_check_scaled(lam, A.free_rank, "lambda"), "lambda")
    return d * B.torsion_order() / A.torsion_order()


def regulator_via_subgroups(A: FgAbGroup, B: FgAbGroup, lam: Scaled, rng) -> Fraction:
    """Evaluate the regulator from freshly chosen finite-index free subgroups.

    Draws random free subgroups A'' <= A, B'' <= B of full rank and a random
    isomorphism between them, then applies the defining formula
    |det(R(phi) ∘ lam)| * #(B/B'') / #(A/A'').  Always equals regulator().
    """
    r = A.free_rank
    N, e = lam

    def draw(G: FgAbGroup) -> tuple[list[Row], int]:
        # the rows of V, r x r and nonsingular, generate the free part of
        # G''; [V | W] adds a torsion part, W[i, j] < d_j
        while True:
            V = [{j: x for j in range(r) if (x := rng.randint(-3, 3))} for _ in range(r)]
            if _rank(V, r) == r:
                break
        rel = [{r + j: d} for j, d in enumerate(G.torsion)]
        for v in V:
            w = {r + j: x for j, d in enumerate(G.torsion) if (x := rng.randint(0, d - 1))}
            rel.append({**v, **w})
        Q = _group(r + len(G.torsion), rel)
        if not Q.is_finite:
            raise ValueError("subgroup is not finite index")
        return V, Q.order()

    VA, ordA = draw(A)
    VB, ordB = draw(B)
    g, _ = _random_unimodular(r, rng)
    # phi sends the j-th chosen generator of B'' to sum_i g[i, j] a_i, so
    # R(phi) = PA g PB^-1 with PA = VA^T and PB = VB^T, and PB^-1 = X / d.
    X, d = solve_exact(_transpose(VB, r), [{k: 1} for k in range(r)], r)
    rphi_lam = _mul(_mul(_mul(_transpose(VA, r), g), X), N)
    return Fraction(abs(det_exact(rphi_lam, r)), (d * e) ** r) * Fraction(ordB, ordA)


def _random_unimodular(n: int, rng) -> tuple[list[Row], list[Row]]:
    """(g, g^-1) as rows: g is the identity after 3n random row operations
    row_i += q row_j with i != j.  g^-1 is kept as columns, the way
    ``_smith`` keeps U^-1, so each operation updates one row of each."""
    g = [{k: 1} for k in range(n)]
    gi = [{k: 1} for k in range(n)]  # the columns of g^-1
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        if q:
            _axpy(g[i], g[j], q)
            _axpy(gi[j], gi[i], -q)
    return g, _transpose(gi, n)


def _induced_map_on_cohomology(
    CA: BoundedComplex, CB: BoundedComplex, lam_i: Scaled, i: int
) -> tuple[FgAbGroup, FgAbGroup, Scaled]:
    """(H^i(A), H^i(B), the map that lam_i = (N, e) induces on their free parts)."""
    (N, e), n = lam_i, CA.rank(i)
    KA, qA = CA.cohomology_data(i)
    KB, qB = CB.cohomology_data(i)
    # N maps ker d_A into ker d_B, whose Hermite rows span it saturated, so
    # the images of the rows of KA have integer coordinates in KB
    piv = {min(h): t for t, h in enumerate(KB)}
    cols = [_coords(KB, v, piv) for v in _mul(KA, _transpose(N, n))]
    lam_k = _transpose(cols, len(KB))  # kernel coordinates, kB x kA
    return qA.group, qB.group, (_mul(_mul(qB.P, lam_k), qA.S), e)


def euler_regulator_check(
    CA: BoundedComplex, CB: BoundedComplex, lam: Mapping[int, Scaled]
) -> dict:
    """Alternating product of degree-wise regulators vs cohomology regulators,
    reg(H^i(A), H^i(B), H^i(lam)).

    lam[i] = (N_i, e_i) is the map N_i / e_i in degree i, as
    ``regulator`` takes it.  The maps must commute with the differentials
    and be nonsingular; both products are exact rationals and must agree.
    """
    checked = {}
    for i in CA.degrees():
        if CA.rank(i) != CB.rank(i):
            raise ValueError("rank mismatch between the two complexes")
        checked[i] = _check_scaled(lam[i], CA.rank(i), f"lambda at degree {i}")
    for i in range(CA.lo, CA.hi):
        if not intertwines(CA.d(i), CB.d(i), checked[i], checked[i + 1]):
            raise ValueError("maps do not commute with the differentials")
    lhs = rhs = Fraction(1)
    for i in CA.degrees():  # every map is checked nonsingular first
        lhs *= _abs_det(checked[i], f"lambda at degree {i}") ** ((-1) ** (i % 2))
    for i in CA.degrees():
        rhs *= regulator(*_induced_map_on_cohomology(CA, CB, checked[i], i)) ** ((-1) ** (i % 2))
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


# ---------------------------------------------------------------------------
# The index invariant of an involution on an acyclic-away-from-0 complex


def i_invariant(jc: JComplex) -> Fraction:
    """#Ĥ^odd(c; H^0) over the parasitic finite parts, prod #H^i(fixed)^{±1}.

    The numerator #coker(H^0(fixed) -> ker(1+c) on H^0) is the odd Tate
    group ker(1+c) / (im(1-c) + L), finite as 2 kills it, for the fixed
    basis e_k - e_c(k) spans the columns of 1 - c.  Needs the complex
    rationally exact off degree 0 and finite fixed cohomology; kept on jc.
    """
    if jc._i_invariant is not None:
        return jc._i_invariant
    C = jc.complex
    for i in C.degrees():
        if i != 0 and not C.cohomology(i).is_finite:
            raise ValueError("complex is not rationally exact away from 0")
    if any(C.d(0)):
        raise ValueError("the index invariant needs d = 0 out of degree 0")
    # with d(0) = 0, H^0 is Z^n modulo the Hermite rows L of d(-1)^T, and c,
    # which the JComplex checked to commute with d, stabilizes them
    c = jc.involution[0]
    coker = _tate_group([{j: 1} for j in c], C.cohomology_data(0)[1].rows, 1)
    fixed, _ = jc.fixed_subcomplex()
    denom = Fraction(fixed.cohomology(0).torsion_order())
    for i in fixed.degrees():
        if i == 0:
            continue
        hi = fixed.cohomology(i)
        if not hi.is_finite:
            raise ValueError(f"fixed subcomplex has infinite cohomology at degree {i}")
        denom *= Fraction(hi.order()) ** ((-1) ** (i % 2))
    jc._i_invariant = Fraction(coker.order()) / denom
    return jc._i_invariant


def fixed_image_index(qa: ZQuotient, qb: ZQuotient, perm: list[int], N, d: int) -> Fraction:
    """The symbol (ker(1+c) of qb : phi(ker(1+c) of qa)) on free parts.

    phi = N / d, N given by its rows, maps the Z^n of qa to that of qb,
    carries relations into rational relations and commutes with the
    involution c(e_k) = e_perm[k] of both; on the free parts it is
    P_b N S_a / d and must be injective.  Then the image of the fixed part
    is the fixed part of the image, so nothing is saturated a second time.
    Each fixed lattice is ``theta_fixed`` of c induced on the free part.
    """
    c = [{j: 1} for j in perm]
    fa, fb = (theta_fixed(q.induced_on_free(c)) for q in (qa, qb))
    phibar = _mul(_mul(qb.P, N), qa.S)
    pushed = _mul(fa.rows, _transpose(phibar, qa.free_rank))
    return lattice_index(fb, Lattice(qb.free_rank, pushed, d))


def intertwines(d1: list[Row], d2: list[Row], src: Scaled, dst: Scaled) -> bool:
    """Whether (N'/e') d1 == d2 (N/e) for src = (N, e) and dst = (N', e'), all on rows.

    Compared cross-multiplied, e N' d1 == e' d2 N.
    """
    (N, e), (N1, e1) = src, dst
    a = [{j: e * x for j, x in r.items()} for r in _mul(N1, d1)]
    return a == [{j: e1 * x for j, x in r.items()} for r in _mul(d2, N)]


def commutes(N: Sequence[Row], perm: list[int]) -> bool:
    """Whether N c == c N for the involution c(e_k) = e_perm[k]: row perm[k] of N
    is row k with column j moved to perm[j]."""
    return all({perm[j]: x for j, x in row.items()} == N[perm[k]] for k, row in enumerate(N))


def abstract_index_check(
    j1: JComplex, j2: JComplex, phi: Mapping[int, Scaled]
) -> dict:
    """Index of the two fixed-part images against the local determinant data.

    The two complexes must share their ranks and their involution, end in
    degree 0 and be acyclic away from 0 with free H^0; phi must intertwine
    them (d2 ∘ phi = phi ∘ d1) and commute with the involution.  Returns
    the two sides of the identity and their parts.

    phi[i] = (N_i, e_i) is the map N_i / e_i in degree i: the sparse rows
    of its integer numerators over a positive denominator, checked by
    ``_check_scaled``, and every product below runs on the numerators.
    """
    C1, C2 = j1.complex, j2.complex
    if C1.ranks != C2.ranks:
        raise ValueError("the two complexes have different ranks")
    if j1.involution != j2.involution:
        raise ValueError("the two complexes carry different involutions")
    phi = {i: _check_scaled(phi[i], C1.rank(i), f"phi at degree {i}") for i in C1.degrees()}
    for i in C1.degrees():
        if i < C1.hi and not intertwines(C1.d(i), C2.d(i), phi[i], phi[i + 1]):
            raise ValueError(f"phi does not intertwine the differentials at degree {i}")
        if not commutes(phi[i][0], j1.involution[i]):
            raise ValueError(f"phi does not commute with the involution at degree {i}")
    for CC in (C1, C2):
        if not CC.is_exact_away_from(0):
            raise ValueError("complex is not integrally acyclic away from 0")
        if CC.cohomology(0).torsion:
            raise ValueError("H^0 is not torsion free")

    # Left side: the two fixed lattices inside H^0 of d2.  Degree 0 is the
    # top degree, so H^0 is Z^n0 modulo the image of the last differential.
    lhs = fixed_image_index(
        C1.cohomology_data(0)[1], C2.cohomology_data(0)[1], j1.involution[0], *phi[0]
    )

    det_part = Fraction(1)
    for i, (N, e) in phi.items():  # N_i commutes with c, so it restricts to ker(1 + c)
        R = fixed_restriction(N, j1.involution[i], j1.involution[i])
        det_part *= _abs_det((R, e), f"phi on the fixed part at degree {i}") ** ((-1) ** (i % 2))
    i1 = i_invariant(j1)
    i2 = i_invariant(j2)
    rhs = det_part / i1 * i2
    return {
        "lhs": lhs,
        "rhs": rhs,
        "det_part": det_part,
        "i_d1": i1,
        "i_d2": i2,
        "equal": lhs == rhs,
    }


# ---------------------------------------------------------------------------
# Random admissible pairs for the multiplicativity property


def random_complex(rng) -> BoundedComplex:
    """A random bounded complex of free groups of ranks 1 to 4 on degrees -2
    to 0, with honest d^2 = 0: d(-1) is random, and d(-2) = K^T X with X
    random and the rows of K a kernel basis of d(-1)."""

    def draw(r: int, c: int) -> list[Row]:
        # row-major, one draw per entry; the zeros are dropped
        return [{j: x for j in range(c) if (x := rng.randint(-2, 2))} for _ in range(r)]

    ranks = {i: rng.randint(1, 4) for i in (-2, -1, 0)}
    top = draw(ranks[0], ranks[-1])
    K = _kernel(top, ranks[-1])
    return BoundedComplex(ranks, {-1: top, -2: _mul(_transpose(K, ranks[-1]), draw(len(K), ranks[-2]))})


def random_regulator_pair(rng):
    """(A, B, lam): B a unimodular twin of A, lam commuting and nonsingular.

    lam has the shape g ∘ (a + d h + h d) for a degree-lowering random h,
    which commutes with the differentials automatically; cohomology usually
    carries torsion, so the multiplicativity identity is exercised
    non-trivially.  lam[i] is (N_i, e_i), as ``regulator`` takes it.
    """

    def sixfold() -> int:
        # 6 Fraction(randint(-2, 2), choice([1, 1, 2, 3])), an integer
        x = rng.randint(-2, 2)
        return x * (6 // rng.choice([1, 1, 2, 3]))

    while True:
        CA = random_complex(rng)
        g = {i: _random_unimodular(CA.rank(i), rng) for i in CA.degrees()}
        # g is unimodular, so B's differentials g d g^-1 are integral
        diffB = {i: _mul(_mul(g[i + 1][0], CA.d(i)), g[i][1]) for i in range(CA.lo, CA.hi)}
        CB = BoundedComplex(CA.ranks, diffB)
        # H[j] = 6 h[j], h[j]: degree j -> degree j-1, drawn row-major
        H = {
            j: [{k: x for k in range(CA.rank(j)) if (x := sixfold())} for _ in range(CA.rank(j - 1))]
            for j in range(CA.lo + 1, CA.hi + 1)
        }
        p, q = rng.choice([1, 2, 3, 5]), rng.choice([1, 1, 2])
        # with a = p / q, lam = g (6p + q (d H + H d)) / 6q
        lam = {}
        for i in CA.degrees():
            M = [{k: 6 * p} for k in range(CA.rank(i))]
            if i in H:  # d^{i-1} ∘ h_i
                for row, dh in zip(M, _mul(CA.d(i - 1), H[i])):
                    _axpy(row, dh, q)
            if i + 1 in H:  # h_{i+1} ∘ d^i
                for row, hd in zip(M, _mul(H[i + 1], CA.d(i))):
                    _axpy(row, hd, q)
            N = _mul(g[i][0], M)
            if _rank(N, len(N)) < len(N):
                break
            lam[i] = N, 6 * q
        else:
            return CA, CB, lam
