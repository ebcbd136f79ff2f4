"""Finitely generated abelian groups, bounded complexes, and regulators.

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
    IMat,
    QMat,
    Lattice,
    Row,
    _axpy,
    _bareiss,
    _check_rows,
    _comb,
    _coords,
    _dense,
    _det,
    _hermite,
    _kernel,
    _mul,
    _rows,
    _smith,
    _transpose,
    det_exact,
    eye,
    integral_preimage,
    inverse_exact,
    lattice_index,
    mat_equal,
    solve_exact,
    to_int,
    zeros,
)


@dataclass(frozen=True)
class FgAbGroup:
    """A finitely generated abelian group in canonical form.

    >>> G = FgAbGroup.from_relations(3, [[2, 0, 0], [0, 3, 0]])
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
        if self.free_rank < 0:
            raise ValueError(f"free rank must be non-negative, got {self.free_rank}")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion is not an invariant-factor chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("invariant factors must be at least 2")

    @classmethod
    def from_relations(cls, ngens: int, relations) -> "FgAbGroup":
        """The group Z^ngens modulo the rows of ``relations``."""
        import numpy as np

        rel = np.asarray(relations, dtype=object)
        _check_relations(rel, ngens)
        return _group(ngens, _rows(rel))

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
        if self.free_rank:
            return None
        return prod(self.torsion) if self.torsion else 1

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def torsion_order(self) -> int:
        return prod(self.torsion) if self.torsion else 1

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


def _check_relations(rel: IMat, n: int) -> None:
    """ValueError unless rel is a matrix of relation rows on Z^n."""
    if rel.ndim != 2:
        raise ValueError(f"relations must be a matrix, not of shape {rel.shape}")
    if rel.shape[1] != n:
        raise ValueError(f"relation rows have width {rel.shape[1]}, want {n}")


class ZQuotient:
    """Z^n modulo the row span of integer relations.

    The relations are given as a dense matrix of width n, or as sparse
    ``dict`` rows of ints (checked, then copied).  ``rows`` holds their one
    canonical form, the nonzero Hermite rows, sparse: two presentations of
    one lattice get equal rows and equal coordinates.  ``relations`` is a
    dense view built on first read.  As the rows are independent, ``group``
    is their Smith form alone and ``free_rank`` is n minus their count.

    Tracks the Smith transform ``U @ rel.T @ V = D`` so the quotient gets
    explicit coordinates z = U Λ x: positions with d=1 are dead, d>1 are
    torsion coordinates, d=0 are free.  ``P`` projects onto the free
    coordinates and ``S`` is a section with P @ S = identity.  U, U^-1,
    P (f x n) and S (n x f) are sparse rows, built on the first read of
    ``P``, ``S``, ``induced_on_free``, ``U``, ``Uinv`` or ``dvec``.  U, P
    and S are kept, so they are read-only rows, shared by every reader of
    a memoised quotient; ``Uinv`` is built fresh on each read.
    """

    def __init__(self, n: int, relation_rows: IMat | list[Row]):
        self.n = n
        if isinstance(relation_rows, list):
            # copies, as the reduction works in place
            rows = [dict(row) for row in _check_rows(relation_rows, n)]
        else:
            _check_relations(relation_rows, n)
            rows = _rows(relation_rows)
        self.rows = _hermite(rows, n)

    @cached_property
    def relations(self) -> IMat:
        """The relation rows as a dense n-column matrix."""
        return _dense(self.rows, self.n)

    @cached_property
    def _snf(self) -> tuple[tuple[Mapping[int, int], ...], list[Row], list[int]]:
        """(U, the columns of U^-1, d): the row transforms of the Smith form
        of relations.T and its diagonal, padded with zeros to length n."""
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


def _subquotient(num: list[Row], den: list[Row], n: int) -> FgAbGroup:
    """(Z-span of num) / (Z-span of den) for sparse rows over columns < n.

    The num rows must be independent and every den row an integral
    combination of them; ValueError names the first row that is not.  The
    group is read off the Smith diagonal of the den rows' coordinates in
    the Hermite basis of num, which is reduced in place.
    """
    k = len(num)
    H = _hermite(num, n)
    if len(H) < k:
        raise ValueError(f"numerator rows are dependent: rank {len(H)} of {k} rows")
    piv = {min(h): i for i, h in enumerate(H)}
    coords = []
    for i, v in enumerate(den):
        x = _coords(H, v, piv)
        if x is None:
            if len(_bareiss([dict(h) for h in H] + [dict(v)], n)[0]) == len(H):
                where = "inside its rational span, not integral"
            else:
                where = "outside its rational span"
            raise ValueError(f"denominator row {i} is not in the numerator lattice: {where}")
        coords.append(x)
    return _group(k, coords)


def subquotient_group(num_basis_rows: IMat, den_gen_rows: IMat) -> FgAbGroup:
    """The group (Z-span of num) / (Z-span of den), with den inside num.

    ``num_basis_rows`` must be linearly independent; den generators must be
    integral combinations of them (raises otherwise).
    """
    return _subquotient(_rows(num_basis_rows), _rows(den_gen_rows), num_basis_rows.shape[1])


def tate_group(C: IMat, relation_rows: IMat, degree_parity: str) -> FgAbGroup:
    """Tate cohomology of the order-2 action C on Z^n / relations.

    'odd'  -> ker(1+c) / im(1-c)
    'even' -> ker(1-c) / im(1+c)
    """
    import numpy as np

    n = C.shape[0]
    idm = eye(n)
    if degree_parity == "odd":
        f, g = idm + C, idm - C
    elif degree_parity == "even":
        f, g = idm - C, idm + C
    else:
        raise ValueError("parity must be 'odd' or 'even'")
    _check_action(C, relation_rows)
    num = integral_preimage(f, relation_rows)
    den = np.vstack([g.T, relation_rows])
    return subquotient_group(num, den)


def _check_action(C: IMat, relation_rows: IMat) -> None:
    """ValueError unless C is an order-2 action on Z^n / relations: C^2 - 1
    maps Z^n, and C the relations, into the relation lattice."""
    n = C.shape[0]
    if C.shape != (n, n):
        raise ValueError(f"map has shape {C.shape}, want a square matrix")
    _check_relations(relation_rows, n)
    R, c = _rows(relation_rows), _rows(C)
    L = Lattice(n, R)
    # the columns of C^2 - 1, as rows
    sq = _mul(c, c)
    for k, row in enumerate(sq):
        _axpy(row, {k: 1}, -1)
    if not L.contains(_transpose(sq, n)):
        raise ValueError(f"the map does not square to 1 on Z^{n} / relations")
    if not L.contains(_mul(R, _transpose(c, n))):
        raise ValueError("the map does not stabilize the relation lattice")


def _f2_gain(basis: dict[int, int], rows: list[int]) -> int:
    """Add F_2 rows (bit j = column j) to an echelon basis keyed by lowest bit.

    Returns how many of them were independent of the basis so far.
    """
    gained = 0
    for v in rows:
        while v:
            low = v & -v
            b = basis.get(low)
            if b is None:
                basis[low] = v
                gained += 1
                break
            v ^= b
    return gained


def _f3_gain(basis: dict[int, tuple[int, int]], rows: list[tuple[int, int]]) -> int:
    """Add F_3 rows to an echelon basis keyed by lowest bit, as ``_f2_gain`` does.

    A row is two bit planes (ones, twos): bit j is set in the first where
    its entry at column j is 1 and in the second where it is 2, so -v
    swaps them.  Basis rows have leading entry 1.  Returns how many of the
    rows were independent of the basis so far.
    """
    gained = 0
    for u, w in rows:
        while u | w:
            low = (u | w) & -(u | w)
            b = basis.get(low)
            if b is None:
                basis[low] = (u, w) if u & low else (w, u)
                gained += 1
                break
            # v - b if v leads with 1, v + b if with 2, in six bit operations
            x, y = b if w & low else b[::-1]
            t = (u | y) ^ (w | x)
            u, w = (w | y) ^ t, (u | x) ^ t
    return gained


def tate_pair(C: IMat, relation_rows: IMat) -> tuple[FgAbGroup, FgAbGroup]:
    """(even, odd) Tate cohomology of the order-2 action C on M = Z^n / relations.

    By Diederichsen and Reiner every Z[C2]-lattice is Z^a + Z_-^b +
    Z[C2]^r, so Ĥ^even = ker(1-c)/im(1+c) = (Z/2)^a and Ĥ^odd = (Z/2)^b,
    and the three counts are ranks over F_2 and F_3: rank_F2(1+c) = r,
    rank_F3(1+c) = a + r, rank_F3(1-c) = b + r.  On M each rank is
    rank_Fp([R; (1 ± C)^T]) - rank_Fp(R): R is eliminated once per prime
    and the rows of (1 ± C)^T are reduced against that echelon, as Python
    ints under XOR over F_2 and as pairs of bit-plane ints over F_3, so
    nothing dense is built.  Only the rows at the columns without a pivot
    are needed: with R those unit vectors span F_p^n, and C maps R into
    itself, so their images span the image of 1 ± C modulo R.  Agrees
    with ``tate_group``, the Smith route.

    The relation rows must be independent (a Hermite basis, say), and M
    must have no 2- or 3-torsion: unless R keeps its row count as its
    rank mod 2 and mod 3, ValueError names the prime.  Torsion of order
    prime to 6 has trivial Tate groups and leaves the ranks unchanged, so
    it is allowed.  The relation rows must have width n; ``_check_action``
    checks that C is an order-2 action on M, as ``tate_group`` does.
    """
    _check_action(C, relation_rows)
    return _tate_pair(_rows(C.T), _rows(relation_rows))


def _tate_pair(cols: list[Row], R: list[Row]) -> tuple[FgAbGroup, FgAbGroup]:
    """``tate_pair`` on sparse rows: cols[k] is column k of C, R the relation rows."""
    n = len(cols)

    def image(k: int, s: int) -> Row:
        # row k of (1 + s C)^T, that is e_k + s * column k of C; a zero
        # entry is dropped when the row is read mod p
        row = {j: s * x for j, x in cols[k].items()}
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
    r = _f2_gain(f2, bits([image(k, 1) for k in free2])[0])
    a = _f3_gain(dict(f3), bits([image(k, 1) for k in free3])[1]) - r
    b = _f3_gain(f3, bits([image(k, -1) for k in free3])[1]) - r
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
    acting on columns, rank(i+1) rows over columns < rank(i).  Each
    differential's degree, row count and rows (``_check_rows``) and then
    d^2 = 0 are validated at construction, each failure a ValueError
    naming where.  The complex is immutable after construction, so each
    degree's cohomology data is computed once and kept.
    """

    def __init__(self, ranks: Mapping[int, int], diff: Mapping[int, list[Row]]):
        self.ranks = dict(ranks)
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


def regulator(A: FgAbGroup, B: FgAbGroup, lam: QMat) -> Fraction:
    """Regulator of a rational isomorphism lam: R⊗A -> R⊗B.

    Computed through the canonical free parts: |det lam| corrected by the
    torsion orders.  Independent of which finite-index free subgroups are
    used to define it; see the randomized property test.

    >>> import numpy as np
    >>> regulator(FgAbGroup(1, (2,)), FgAbGroup(1), np.array([[3]], dtype=object))
    Fraction(3, 2)
    """
    if A.free_rank != B.free_rank:
        raise ValueError("ranks differ; no rational isomorphism exists")
    r = A.free_rank
    if lam.shape != (r, r):
        raise ValueError(f"lambda must be {r} x {r}")
    d = abs(det_exact(lam)) if r else Fraction(1)
    if d == 0:
        raise ValueError("lambda is singular")
    return d * B.torsion_order() / A.torsion_order()


def regulator_via_subgroups(
    A: FgAbGroup, B: FgAbGroup, lam: QMat, rng
) -> Fraction:
    """Evaluate the regulator from freshly chosen finite-index free subgroups.

    Draws random free subgroups A'' <= A, B'' <= B of full rank and a random
    isomorphism between them, then applies the defining formula
    |det(R(phi) ∘ lam)| * #(B/B'') / #(A/A'').  Always equals regulator().
    """
    import numpy as np

    r = A.free_rank

    def draw(G: FgAbGroup):
        t = len(G.torsion)
        while True:
            V = zeros(r, r)
            for i in range(r):
                for j in range(r):
                    V[i, j] = rng.randint(-3, 3)
            if r == 0 or det_exact(V) != 0:
                break
        W = zeros(r, t)
        for i in range(r):
            for j, d in enumerate(G.torsion):
                W[i, j] = rng.randint(0, d - 1)
        rel = zeros(t, r + t)
        for j, d in enumerate(G.torsion):
            rel[j, r + j] = d
        Q = FgAbGroup.from_relations(r + t, np.vstack([rel, np.hstack([V, W])]))
        if not Q.is_finite:
            raise ValueError("subgroup is not finite index")
        return V, Q.order()

    VA, ordA = draw(A)
    VB, ordB = draw(B)
    Mrand = _random_unimodular(r, rng)
    # phi sends the j-th chosen generator of B'' to sum_i M[i,j] a_i.
    PA, PB = VA.T, VB.T
    if r:
        rphi = PA @ Mrand @ inverse_exact(PB)
        dd = abs(det_exact(rphi @ lam))
    else:
        dd = Fraction(1)
    return dd * Fraction(ordB, ordA)


def _random_unimodular(n: int, rng) -> IMat:
    M = eye(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        M[i, :] += rng.randint(-2, 2) * M[j, :]
    return M


def _induced_map_on_cohomology(
    CA: BoundedComplex, CB: BoundedComplex, lam_i: QMat, i: int
):
    KA, qA = CA.cohomology_data(i)
    KB, qB = CB.cohomology_data(i)
    if not KA:
        return qA.group, qB.group, zeros(qB.free_rank, qA.free_rank)
    KA, KB = _dense(KA, CA.rank(i)), _dense(KB, CB.rank(i))
    imgs = lam_i @ KA.T
    lam_k = solve_exact(KB.T, imgs)  # kernel coordinates, kB x kA
    m_free = _dense(qB.P, qB.n) @ lam_k @ _dense(qA.S, qA.free_rank)
    return qA.group, qB.group, m_free


def cohomology_regulators(
    CA: BoundedComplex, CB: BoundedComplex, lam: Mapping[int, QMat]
) -> dict[int, Fraction]:
    """reg(H^i(A), H^i(B), H^i(lam)) for every degree."""
    out = {}
    for i in CA.degrees():
        HA, HB, mf = _induced_map_on_cohomology(CA, CB, lam.get(i), i)
        out[i] = regulator(HA, HB, mf)
    return out


def euler_regulator_check(
    CA: BoundedComplex, CB: BoundedComplex, lam: Mapping[int, QMat]
) -> dict:
    """Alternating product of degree-wise regulators vs cohomology regulators.

    The per-degree maps must commute with the differentials and be
    nonsingular; both products are exact rationals and must agree.
    """
    for i in CA.degrees():
        if CA.rank(i) != CB.rank(i):
            raise ValueError("rank mismatch between the two complexes")
        if i < CA.hi:
            left = _dense(CB.d(i), CB.rank(i)) @ lam[i]
            right = lam[i + 1] @ _dense(CA.d(i), CA.rank(i))
            if not mat_equal(left, right):
                raise ValueError("maps do not commute with the differentials")
    lhs = Fraction(1)
    for i in CA.degrees():
        if CA.rank(i):
            d = abs(det_exact(lam[i]))
            if d == 0:
                raise ValueError("degree-wise map is singular")
            lhs *= d ** ((-1) ** (i % 2))
    rhs = Fraction(1)
    for i, r in cohomology_regulators(CA, CB, lam).items():
        rhs *= r ** ((-1) ** (i % 2))
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


# ---------------------------------------------------------------------------
# The index invariant of an involution on an acyclic-away-from-0 complex


def i_invariant(jc: JComplex) -> Fraction:
    """#coker(H^0(fixed) -> H^0 fixed part) over the parasitic finite parts.

    Requires the ambient complex to be rationally exact away from degree 0;
    all auxiliary groups that the formula divides by must be finite.  The
    value is kept on the complex.
    """
    if jc._i_invariant is None:
        jc._i_invariant = _i_invariant(jc)
    return jc._i_invariant


def _i_invariant(jc: JComplex) -> Fraction:
    C = jc.complex
    for i in C.degrees():
        if i != 0 and not C.cohomology(i).is_finite:
            raise ValueError("complex is not rationally exact away from 0")
    if any(C.d(0)):
        raise ValueError("the index invariant needs d = 0 out of degree 0")
    # with d(0) = 0, H^0 is Z^n modulo the Hermite rows L of d(-1)^T; the x with
    # (1 + c) x in the span of L are the first n coordinates of ker [1 + c | -L^T]
    n, c = C.rank(0), jc.involution[0]
    L = C.cohomology_data(0)[1].rows
    W = [{k: 2} if c[k] == k else {k: 1, c[k]: 1} for k in range(n)]
    for t, row in enumerate(L):
        for j, x in row.items():
            W[j][n + t] = -x
    K = [{j: x for j, x in v.items() if j < n} for v in _kernel(W, n + len(L))]
    fixed, bases = jc.fixed_subcomplex()
    coker = _subquotient(K, bases[0] + L, n)
    if not coker.is_finite:
        raise ValueError("cokernel of the fixed-part comparison is infinite")
    h0 = fixed.cohomology(0)
    denom = Fraction(h0.torsion_order())
    for i in fixed.degrees():
        if i == 0:
            continue
        hi = fixed.cohomology(i)
        if not hi.is_finite:
            raise ValueError(f"fixed subcomplex has infinite cohomology at degree {i}")
        denom *= Fraction(hi.order()) ** ((-1) ** (i % 2))
    return Fraction(coker.order()) / denom


def fixed_image_index(qa: ZQuotient, qb: ZQuotient, perm: list[int], N, d: int) -> Fraction:
    """The symbol (ker(1+c) of qb : phi(ker(1+c) of qa)) on free parts.

    phi = N / d, N given by its rows, maps the Z^n of qa to that of qb,
    carries relations into rational relations and commutes with the
    involution c(e_k) = e_perm[k] of both; on the free parts it is
    P_b N S_a / d and must be injective.  Then the image of the fixed part
    is the fixed part of the image, so nothing is saturated a second time.
    """

    def fixed(q: ZQuotient) -> list[Row]:
        # kernel rows of 1 + P c S on the free part; column k of P c is column perm[k] of P
        Pc = [{perm[k]: x for k, x in row.items()} for row in q.P]
        plus = [_comb(1, row, 1, {k: 1}) for k, row in enumerate(_mul(Pc, q.S))]
        return _kernel(plus, q.free_rank)

    fa, fb = qa.free_rank, qb.free_rank
    phibar = _mul(_mul(qb.P, N), qa.S)
    pushed = _mul(fixed(qa), _transpose(phibar, fa))
    return lattice_index(Lattice(fb, fixed(qb)), Lattice(fb, pushed, d))


def intertwines(d1: list[Row], d2: list[Row], src: tuple, dst: tuple) -> bool:
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
    j1: JComplex, j2: JComplex, phi: Mapping[int, tuple[IMat, int]]
) -> dict:
    """Index of the two fixed-part images against the local determinant data.

    The two complexes must share their ranks and their involution, end in
    degree 0 and be acyclic away from 0 with free H^0; phi must intertwine
    them (d2 ∘ phi = phi ∘ d1) and commute with the involution.  Returns
    the two sides of the identity and their parts.

    phi[i] = (N_i, e_i) is the map N_i / e_i in degree i: the sparse rows
    of its integer numerators over a positive denominator, checked by
    ``_check_rows``, and every product below runs on the numerators.
    """
    C1, C2 = j1.complex, j2.complex
    if C1.ranks != C2.ranks:
        raise ValueError("the two complexes have different ranks")
    if j1.involution != j2.involution:
        raise ValueError("the two complexes carry different involutions")
    checked = {}
    for i in C1.degrees():
        n, (N, e) = C1.rank(i), phi[i]
        if len(N) != n or any(type(j) is int and j >= n for row in N for j in row):
            raise ValueError(f"phi at degree {i} is not {n} x {n}")
        checked[i] = _check_rows(N, n, f"phi at degree {i}"), e
    phi = checked
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
    for i in C1.degrees():  # N_i commutes with c, so it restricts to ker(1 + c)
        N, e = phi[i]
        R = fixed_restriction(N, j1.involution[i], j1.involution[i])
        det_part *= abs(Fraction(_det(R, len(R)), e ** len(R))) ** ((-1) ** (i % 2))
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


def random_complex(rng, degrees=(-2, -1, 0), max_rank: int = 4) -> BoundedComplex:
    """A random bounded complex of free groups with honest d^2 = 0: below the
    top, d(i) = K^T X with X random and the rows of K a kernel basis of d(i+1)."""

    def draw(r: int, c: int) -> list[Row]:
        # row-major, one draw per entry; the zeros are dropped
        return [{j: x for j in range(c) if (x := rng.randint(-2, 2))} for _ in range(r)]

    lo, hi = min(degrees), max(degrees)
    ranks = {i: rng.randint(1, max_rank) for i in range(lo, hi + 1)}
    diff = {hi - 1: draw(ranks[hi], ranks[hi - 1])}
    for i in range(hi - 2, lo - 1, -1):
        K = _kernel(diff[i + 1], ranks[i + 1])
        diff[i] = _mul(_transpose(K, ranks[i + 1]), draw(len(K), ranks[i]))
    return BoundedComplex(ranks, diff)


def random_regulator_pair(rng, max_rank: int = 4):
    """(A, B, lam): B a unimodular twin of A, lam commuting and nonsingular.

    lam has the shape g ∘ (a + d h + h d) for a degree-lowering random h,
    which commutes with the differentials automatically; cohomology usually
    carries torsion, so the multiplicativity identity is exercised
    non-trivially.
    """
    while True:
        CA = random_complex(rng, max_rank=max_rank)
        g = {i: _random_unimodular(CA.rank(i), rng) for i in CA.degrees()}
        # g is unimodular, so B's differentials g d g^-1 are integral
        diffB = {
            i: _mul(_mul(_rows(g[i + 1]), CA.d(i)), _rows(to_int(inverse_exact(g[i]))))
            for i in CA.degrees()
            if i != CA.hi
        }
        CB = BoundedComplex(CA.ranks, diffB)
        # h[j]: degree j -> degree j-1, shape (rank(j-1), rank(j)).
        h = {}
        for j in CA.degrees():
            if j == CA.lo:
                continue
            hj = zeros(CA.rank(j - 1), CA.rank(j))
            for a_ in range(hj.shape[0]):
                for b_ in range(hj.shape[1]):
                    hj[a_, b_] = Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2, 3]))
            h[j] = hj
        a = Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 1, 2]))
        lam = {}
        ok = True
        for i in CA.degrees():
            n = CA.rank(i)
            lam_i = a * eye(n)
            if i in h:  # d^{i-1} ∘ h_i
                lam_i = lam_i + _dense(CA.d(i - 1), CA.rank(i - 1)) @ h[i]
            if i + 1 in h:  # h_{i+1} ∘ d^i
                lam_i = lam_i + h[i + 1] @ _dense(CA.d(i), n)
            lam_i = g[i] @ lam_i
            if det_exact(lam_i) == 0:
                ok = False
                break
            lam[i] = lam_i
        if ok:
            return CA, CB, lam
