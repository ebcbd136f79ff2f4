"""Spectral sequences of the involution double complexes over a symbol complex.

From a bounded complex with involution c this module builds the double
complex whose columns resolve the order-2 action: entry (p, q) is a copy of
degree p, the horizontal map is the base differential, and the vertical map
is (-1)^p (1 + (-1)^q c).  Two variants exist: rows can start at zero (the
resolution picture) or extend periodically in both directions (the full
picture, stored on a finite row window).  Pages of the column filtration
are computed exactly as subquotients of the entry lattices via integral
zig-zags, and the checks at the bottom compare E_1, E_2, degeneration,
abutment, and the correction invariants against their predicted values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .abgroup import (
    FgAbGroup,
    JComplex,
    elementary_power,
    i_invariant,
    subquotient_group,
)
from .arith import euler_phi, factorize, primes_of
from .distribution import tate_distribution, tate_predistribution
from .exact_linalg import (
    Row,
    _axpy,
    _hermite,
    _kernel,
    _mul,
    _transpose,
)
from .lcomplex import DIFFERENCE, KINDS, build_jcomplex, symbol_basis

HALF = "half"
FULL = "full"
FULL_Q_LO = -4


class DoubleComplex:
    """Column filtration data of the involution double complex.

    Rows of the half variant vanish below zero; rows of the full variant
    are periodic and stored on the window [q_lo, q_hi], q_lo = FULL_Q_LO.
    Entries outside the window have rank zero, so results are only
    meaningful where the `interior` predicate grants enough stored rows.
    """

    def __init__(self, jc: JComplex, variant: str, q_hi: int = 6):
        if variant not in (HALF, FULL):
            raise ValueError("variant must be 'half' or 'full'")
        self.jc = jc
        self.base = jc.complex
        self.variant = variant
        self.q_lo = 0 if variant == HALF else FULL_Q_LO
        self.q_hi = q_hi
        self.p_lo = self.base.lo
        # Results keyed by the blocks they are built from (see _stair), so
        # instances over one JComplex may share it; build_double does.
        self._store: dict[tuple, object] = {}

    # -- entries and the two differentials

    def rank(self, p: int, q: int) -> int:
        if q < self.q_lo or q > self.q_hi:
            return 0
        return self.base.rank(p)

    def _sign(self, p: int, q: int) -> tuple[int, int]:
        """(sigma, s) with delta(p, q) = sigma (1 + s c)."""
        return (-1) ** (p % 2), (1 if q % 2 == 0 else -1)

    def _delta_cols(self, p: int, q: int) -> list[Row]:
        """The columns of the vertical map delta(p, q) out of (p, q) as sparse rows,
        read off the permutation c."""
        n = self.rank(p, q)
        if n == 0 or self.rank(p, q + 1) == 0:
            return [{} for _ in range(n)]
        sign, s = self._sign(p, q)
        cols = []
        for k, j in enumerate(self.jc.involution[p]):
            if j != k:
                cols.append({k: sign, j: sign * s})
            else:
                cols.append({k: 2 * sign} if s == 1 else {})
        return cols

    def _d_cols(self, p: int) -> list[Row]:
        """The columns of the base differential d(p) as sparse rows, built once."""
        key = ("dcols", p)
        if key not in self._store:
            self._store[key] = _transpose(self.base.d(p), self.base.rank(p))
        return self._store[key]

    def interior(self, p: int, q: int, r: int) -> bool:
        """Whether page r at (p, q) only needs rows the window stores.

        The numerator staircase reads rows up to q+1 and the denominator
        one reads up to q+r-1; below, truncation only matters in the full
        variant, where one spare row absorbs every staircase tail.
        """
        if q + max(r - 1, 1) > self.q_hi:
            return False
        if self.variant == FULL and p + q - 1 < self.q_lo:
            return False
        return True

    def interior_cells(self, r: int):
        """The cells (p, q) of page r that pass ``interior``, p-major with q ascending."""
        for p in range(self.p_lo, 1):
            for q in range(self.q_lo, self.q_hi + 1):
                if self.interior(p, q, r):
                    yield p, q

    # -- integral zig-zags of the column filtration

    def _stair(self, p: int, q: int, length: int) -> tuple:
        """What the staircase at (p, q) of this length is built from.

        delta(p, q) is fixed by p, q mod 2 and the ranks at (p, q) and
        (p, q+1), and d(p, q) by p and its two ranks, so equal keys give
        equal staircase matrices; window clipping shows up as a zero rank.
        """
        sizes = tuple(self.rank(p + i, q - i) for i in range(length))
        row_ranks = tuple(self.rank(p + i, q - i + 1) for i in range(length))
        return (p, q % 2, sizes, row_ranks)

    def _columns(self, src: list, tgt: list) -> list[Row]:
        """The columns of the total differential from the entries src to the entries tgt.

        One sparse row per column, blocks in the listed order on both sides:
        the columns of entry (p, q) carry d into (p+1, q) and delta into
        (p, q+1), each at the row offset of that entry in tgt if it is there.
        """
        at, off = {}, 0
        for pq in tgt:
            at[pq] = off
            off += self.rank(*pq)
        cols = []
        for p, q in src:
            blocks = [
                (at[to], blk)
                for to, blk in (((p + 1, q), self._d_cols(p)), ((p, q + 1), self._delta_cols(p, q)))
                if to in at and self.rank(*to)
            ]
            for k in range(self.rank(p, q)):
                col: Row = {}
                for o, blk in blocks:
                    col.update((o + j, x) for j, x in blk[k].items())
                cols.append(col)
        return cols

    def _zig(self, p: int, q: int, length: int) -> tuple[list[Row], list[int]]:
        """Integral kernel of the staircase at (p, q) of this length, plus offsets.

        The staircase has components x_i at (p+i, q-i), i < length, and the
        equations delta x_0 = 0 and delta x_i + d x_{i-1} = 0 in the entries
        (p+i, q-i+1).  Its kernel is returned as a basis of sparse rows over
        the concatenated components, component i in the columns
        offsets[i]:offsets[i+1]; it is built from the kernel one component
        shorter by ``_extend``, so the staircases of one cell share a store
        entry per length.
        """
        key = ("zig", self._stair(p, q, length))
        if key not in self._store:
            rows, offsets = self._zig(p, q, length - 1) if length > 1 else ([], [0])
            pl, ql = p + length - 1, q - length + 1
            self._store[key] = (
                self._extend(rows, offsets, pl, ql),
                offsets + [offsets[-1] + self.rank(pl, ql)],
            )
        return self._store[key]

    def _d_last(self, rows: list[Row], offsets: list[int], p: int) -> list[Row]:
        """d of the last component of each row, which sits in degree p."""
        lo = offsets[-2]
        last = [{j - lo: x for j, x in row.items() if j >= lo} for row in rows]
        return _mul(last, self._d_cols(p))

    def _extend(self, Y: list[Row], offsets: list[int], p: int, q: int) -> list[Row]:
        """The staircase kernel with a new last component x at (p, q).

        Y is the kernel without it.  A row (lambda Y, x) lies in the kernel
        when delta(p, q) x = -w, w = d of the last block of lambda Y.  As c
        permutes the basis, delta = sigma (1 + s c) is solved orbit by orbit:
        on a 2-cycle {a, b} (a < b), x_a = -sigma w_a and x_b = 0 once
        w_b = s w_a; on a fixed point f, x_f = -sigma w_f / 2 once w_f is
        even if s = 1, and x_f = 0 once w_f = 0 if s = -1.  Where the window
        clips (p, q) away but keeps (p, q+1), every w_j = 0 is required.  The
        allowed lambda are the integral kernel of the linear conditions
        (vacuous away from the window's edges, as d delta = -delta d), cut
        down by the parity conditions over F_2: each row that is independent
        mod 2 of the rows before it is doubled, and each other row is added to
        the rows that cancel it mod 2.  The kernel of delta, e_b - s e_a per
        2-cycle and e_f per fixed point if s = -1, completes the basis.
        """
        off = offsets[-1]
        n, t = self.rank(p, q), self.rank(p, q + 1)
        if t == 0:  # delta and d leave the window: x is free
            return Y + [{off + k: 1} for k in range(n)]
        W = self._d_last(Y, offsets, p - 1) if Y else []
        sign, s = self._sign(p, q)
        perm = self.jc.involution[p] if n else []
        # w_j enters the linear condition linear[j][0] with coefficient linear[j][1]
        linear: dict[int, tuple[int, int]] = {}
        ker: list[Row] = []
        if n == 0:
            linear = {j: (j, 1) for j in range(t)}
        for a, b in enumerate(perm):
            if a < b:
                linear[a], linear[b] = (a, -s), (a, 1)
                ker.append({off + a: -s, off + b: 1})
            elif a == b and s == -1:
                linear[a] = (a, 1)
                ker.append({off + a: 1})
        conds = []
        for w in W:
            cond: Row = {}
            for j, x in w.items():
                if j in linear:
                    i, u = linear[j]
                    cond[i] = cond.get(i, 0) + u * x
            conds.append({i: x for i, x in cond.items() if x})
        if any(conds):
            index = {i: k for k, i in enumerate(sorted(set().union(*conds)))}
            cols = [{index[i]: x for i, x in c.items()} for c in conds]
            K = _kernel(_transpose(cols, len(index)), len(cols))
            Y, W = _mul(K, Y), _mul(K, W)
        if s == 1 and n:
            Y, W = _even_rows(Y, W, [f for f, g in enumerate(perm) if f == g])
        rows = []
        for y, w in zip(Y, W):
            row = dict(y)
            for j, x in w.items():
                if j < perm[j]:
                    row[off + j] = -sign * x
                elif j == perm[j]:
                    row[off + j] = -sign * (x // 2)
            rows.append(row)
        return rows + ker

    def z_rows(self, p: int, q: int, r: int) -> list[Row]:
        """Hermite basis rows of the page-r numerator lattice at (p, q), sparse."""
        n = self.rank(p, q)
        if n == 0:
            return []
        rows, _ = self._zig(p, q, r)
        return _hermite([{j: x for j, x in row.items() if j < n} for row in rows], n)

    def b_rows(self, p: int, q: int, r: int) -> list[Row]:
        """Hermite rows of the page-r denominator lattice at (p, q), sparse."""
        n = self.rank(p, q)
        if n == 0:
            return []
        gens = self._delta_cols(p, q - 1)
        if r >= 2:
            rows, offsets = self._zig(p - r + 1, q + r - 2, r - 1)
            gens += self._d_last(rows, offsets, p - 1)
        return _hermite(gens, n)

    def _e_key(self, p: int, q: int, r: int) -> tuple:
        # z_rows reads the staircase at (p, q); b_rows the vertical map
        # into (p, q), d(p-1, q) and the staircase ending at (p-1, q).
        key = ("e", r, self._stair(p, q, r), self.rank(p, q - 1), self.rank(p - 1, q))
        if r >= 2:
            key += (self._stair(p - r + 1, q + r - 2, r - 1),)
        return key

    def e_term(self, p: int, q: int, r: int) -> FgAbGroup:
        key = self._e_key(p, q, r)
        if key not in self._store:
            Z = self.z_rows(p, q, r)
            B = self.b_rows(p, q, r) if Z else []
            self._store[key] = subquotient_group(Z, B, self.rank(p, q))
        return self._store[key]

    def e_via_homology(self, p: int, q: int, r: int) -> FgAbGroup:
        """Page r+1 at (p, q) through the induced page-r differential.

        Independent of e_term(p, q, r+1): the kernel of d_r is computed by
        allowing the zig-zag boundary to land in the target denominator,
        and the image of d_r is the extra part of the next denominator.
        """
        n = self.rank(p, q)
        if n == 0:
            return FgAbGroup(0, ())
        src = [(p + i, q - i) for i in range(r)]
        land = (p + r, q - r + 1)
        tgt = [(a, b + 1) for a, b in src] + [land]
        height = sum(self.rank(*pq) for pq in tgt)
        # the landing rows come last; each of its denominator rows is lifted
        lo = height - self.rank(*land)
        lift = [{lo + j: -x for j, x in b.items()} for b in self.b_rows(*land, r)]
        cols = self._columns(src, tgt) + lift
        ker = _kernel(_transpose(cols, height), len(cols))
        num = _hermite([{j: x for j, x in row.items() if j < n} for row in ker], n)
        return subquotient_group(num, self.b_rows(p, q, r + 1) if num else [], n)

    # -- the total complex on the stored window

    def total_entries(self, n: int) -> list[tuple[int, int]]:
        return [
            (p, n - p)
            for p in range(self.p_lo, 1)
            if self.rank(p, n - p) > 0
        ]

    def total_rank(self, n: int) -> int:
        return sum(self.rank(p, q) for p, q in self.total_entries(n))

    def total_accessible(self, n: int) -> bool:
        if n - self.p_lo + 1 > self.q_hi:
            return False
        if self.variant == FULL and n < self.q_lo + 2:
            return False
        return True

    def _total_key(self, n: int) -> tuple:
        # the total differential out of degree k is fixed by the entries of
        # total degrees k and k+1
        return ("total",) + tuple(
            tuple((p, q % 2, self.rank(p, q)) for p, q in self.total_entries(k))
            for k in (n - 1, n, n + 1)
        )

    def total_cohomology(self, n: int) -> FgAbGroup:
        key = self._total_key(n)
        if key not in self._store:
            # total degree n is the full staircase from (p_lo, n - p_lo)
            rows, offsets = self._zig(self.p_lo, n - self.p_lo, 1 - self.p_lo)
            image = self._columns(self.total_entries(n - 1), self.total_entries(n))
            self._store[key] = subquotient_group(rows, image, offsets[-1])
        return self._store[key]


def _even_rows(Y: list[Row], W: list[Row], fixed: list[int]) -> tuple[list[Row], list[Row]]:
    """A basis of the combinations of the rows (Y_i, W_i) whose W is even on ``fixed``.

    One F_2 elimination of the parities, pivots keyed by their lowest odd
    bit and each step checked as in ``abgroup._f2_gain``: a row independent
    mod 2 of the rows before it is doubled, and any other row is added to
    the earlier rows that cancel its parities.  The new rows are triangular
    over the old ones, so they are a basis of that index-2^rank sublattice.
    """
    bit = {f: 1 << k for k, f in enumerate(fixed)}
    pivots: dict[int, tuple[int, int]] = {}  # lowest bit -> (parities, rows used)
    Y2, W2 = [], []
    for i, w in enumerate(W):
        v = sum(bit[j] for j, x in w.items() if j in bit and x & 1)
        used = 1 << i
        last = 0
        while v:
            low = v & -v
            if low <= last:
                raise ArithmeticError(f"parity pivot at bit {last.bit_length() - 1} does not clear it")
            if low not in pivots:
                pivots[low] = (v, used)
                break
            pv, pu = pivots[low]
            v, used = v ^ pv, used ^ pu
            last = low
        if v:
            Y2.append({j: 2 * x for j, x in Y[i].items()})
            W2.append({j: 2 * x for j, x in w.items()})
            continue
        if used == 1 << i:  # already even
            Y2.append(Y[i])
            W2.append(w)
            continue
        y: Row = {}
        w2: Row = {}
        for k in range(used.bit_length()):
            if used >> k & 1:
                _axpy(y, Y[k], 1)
                _axpy(w2, W[k], 1)
        Y2.append(y)
        W2.append(w2)
    return Y2, W2


@lru_cache(maxsize=32)
def _double(jc: JComplex, variant: str, q_hi: int) -> DoubleComplex:
    dc = DoubleComplex(jc, variant, q_hi)
    dc._store = jc.pages
    return dc


def build_double(m: int, kind: str, variant: str, q_hi: int = 6) -> DoubleComplex:
    """Shared per-level instances so page caches survive across checks.

    Both variants and every row window of a level share the level's
    JComplex and the page store it carries, so each distinct block is
    computed once.  The instances are cached by the JComplex itself, so a
    level whose complex was evicted and rebuilt gets new instances on the
    new complex, never the old ones.
    """
    return _double(build_jcomplex(m, kind), variant, q_hi)


# build_double is a lookup in the cache of _double, so they share its counts.
build_double.cache_info = _double.cache_info


# ---------------------------------------------------------------------------
# predicted values


def _fixed_symbols_per_block(m: int) -> int:
    return 2 if m % 2 == 0 else 1


def e1_expected(m: int, p: int, q: int) -> FgAbGroup:
    """Page-1 entry of either variant at (p, q) with q != 0 in the half case.

    Odd rows collect one order-2 class per self-negative symbol; even rows
    vanish because doubling a self-negative symbol is a vertical boundary.
    """
    sb = symbol_basis(m)
    r = len(sb.primes)
    if q % 2 == 0:
        return FgAbGroup(0, ())
    return elementary_power(2, _fixed_symbols_per_block(m) * comb(r, -p))


def e1_row0_rank(m: int, p: int) -> int:
    """Free rank of the half-variant page-1 entry at (p, 0)."""
    sb = symbol_basis(m)
    fixed = _fixed_symbols_per_block(m)
    return sum((m // g - fixed) // 2 for g in sb.blocks[p])


def e2_expected(m: int, kind: str, p: int, q: int) -> FgAbGroup:
    """Closed form of the page-2 entry away from the row q = 0."""
    sb = symbol_basis(m)
    r = len(sb.primes)
    if q % 2 == 0:
        return FgAbGroup(0, ())
    if kind == DIFFERENCE:
        return elementary_power(2, comb(r, -p))
    is_two_power = len(factorize(m)) == 1 and m % 2 == 0
    if is_two_power and p in (0, -1):
        return FgAbGroup(0, (2,))
    return FgAbGroup(0, ())


def index_expected(m: int, kind: str) -> Fraction:
    """Predicted correction invariant of each differential at level m."""
    r = len(primes_of(m))
    if kind == DIFFERENCE:
        return Fraction(2) if r == 1 else Fraction(2 ** (2 ** (r - 2)))
    is_two_power = len(factorize(m)) == 1 and m % 2 == 0
    return Fraction(2) if is_two_power else Fraction(1)


def _tate_h0(m: int, kind: str, parity: str) -> FgAbGroup:
    if kind == DIFFERENCE:
        return tate_distribution(m, parity)
    return tate_predistribution(m, parity)


def _total_parity(n: int) -> str:
    # odd total degree pairs with ker(1-c)/im(1+c) on degree-zero cohomology
    return "even" if n % 2 else "odd"


# ---------------------------------------------------------------------------
# checks


def e1_page_check(m: int, kind: str) -> dict:
    """Page 1 of both variants against the counting of self-negative symbols."""
    ok = True
    for variant in (HALF, FULL):
        dc = build_double(m, kind, variant)
        for p, q in dc.interior_cells(1):
            if dc.variant == HALF and q == 0:
                want = FgAbGroup(e1_row0_rank(m, p), ())
            else:
                want = e1_expected(m, p, q)
            ok = ok and dc.e_term(p, q, 1) == want
    return {"level": m, "kind": kind, "ok": ok}


def e2_page_check(m: int, kind: str) -> dict:
    """Page 2 of both variants: closed forms off the zero row, the fixed
    subcomplex cohomology on it, and the free stable corner."""
    sb = symbol_basis(m)
    half = build_double(m, kind, HALF)
    full = build_double(m, kind, FULL)
    jc = half.jc
    fixed, bases = jc.fixed_subcomplex()
    closed = row0 = True
    for dc in (half, full):
        for p, q in dc.interior_cells(2):
            if dc.variant == HALF and q == 0:
                row0 = row0 and dc.e_term(p, q, 2) == fixed.cohomology(p)
            else:
                closed = closed and dc.e_term(p, q, 2) == e2_expected(m, kind, p, q)
    # the (0, 0) entry stabilizes one page after the columns run out and is
    # then the free image of the annihilator sublattice in degree-zero
    # cohomology
    r_stab = len(sb.primes) + 1
    q0 = jc.complex.cohomology_data(0)[1]
    img = _hermite(_mul(bases[0], _transpose(q0.P, q0.n)), q0.free_rank)
    corner = half.e_term(0, 0, r_stab)
    corner_ok = corner == FgAbGroup(len(img), ())
    ok = closed and row0 and corner_ok
    return {
        "level": m,
        "kind": kind,
        "closed_forms": closed,
        "row0_fixed_subcomplex": row0,
        "stable_corner": corner_ok,
        "ok": ok,
    }


def degeneration_check(m: int, kind: str) -> dict:
    """Pages 2, 3, 4 of the full variant agree wherever all three are stored."""
    full = build_double(m, kind, FULL)
    ok = True
    for p, q in full.interior_cells(4):
        e2 = full.e_term(p, q, 2)
        ok = ok and e2 == full.e_term(p, q, 3) == full.e_term(p, q, 4)
    return {"level": m, "kind": kind, "ok": ok}


# The last page whose differential page_homology_check takes homology of.
PAGE_RMAX = 3


def page_homology_check(m: int, kind: str, variant: str) -> dict:
    """Pages 2 to PAGE_RMAX + 1 are each the homology of the page before."""
    dc = build_double(m, kind, variant)
    ok = True
    for r in range(1, PAGE_RMAX + 1):
        for p, q in dc.interior_cells(r + 1):
            ok = ok and dc.e_term(p, q, r + 1) == dc.e_via_homology(p, q, r)
    return {"level": m, "kind": kind, "variant": variant, "ok": ok}


def abutment_check(m: int, kind: str) -> dict:
    """Total cohomology of both variants against degree-zero data.

    The half variant gives the annihilator sublattice in total degree zero
    and the two alternating order-2 quotients above it; the full variant is
    periodic with the same alternation, and vanishes in accessible negative
    degrees of the half picture.
    """
    half = build_double(m, kind, HALF)
    full = build_double(m, kind, FULL)
    res: dict = {"level": m, "kind": kind}
    ok = True
    free0 = FgAbGroup(euler_phi(m) // 2 if m > 2 else 0, ())
    got = half.total_cohomology(0)
    res["half_n0"] = got == free0
    got_m1 = half.total_cohomology(-1)
    res["half_negative"] = got_m1.is_trivial
    ok = ok and res["half_n0"] and res["half_negative"]
    for n in (1, 2):
        want = _tate_h0(m, kind, _total_parity(n))
        res[f"half_n{n}"] = half.total_cohomology(n) == want
        ok = ok and res[f"half_n{n}"]
    for n in (-1, 0, 1, 2):
        if not full.total_accessible(n):
            continue
        want = _tate_h0(m, kind, _total_parity(n))
        res[f"full_n{n}"] = full.total_cohomology(n) == want
        ok = ok and res[f"full_n{n}"]
    res["ok"] = ok
    return res


def splitting_check(m: int, kind: str) -> dict:
    """Total degree one of the abutment as the direct sum of page-2 terms."""
    sb = symbol_basis(m)
    half = build_double(m, kind, HALF)
    r = len(sb.primes)
    total = FgAbGroup(0, ())
    for q in range(1, r + 2):
        total = total.direct_sum(half.e_term(1 - q, q, 2))
    want = _tate_h0(m, kind, "even")
    return {"level": m, "kind": kind, "ok": total == want}


def scaled_rows_check(m: int) -> dict:
    """The doubled-fixed-symbol rows form a vertically exact subcomplex.

    Scaling every self-negative symbol by 2 on odd rows keeps both maps
    integral and makes each column exact, which is what lets the full
    variant collapse onto its parity-reduced quotient.  With s the scaling,
    plain row to scaled row is diag(s)^-1 (1 + c) and scaled row back to
    plain row is (1 - c) diag(s), both read off the permutation c.
    """
    sb = symbol_basis(m)
    jc = build_jcomplex(m, DIFFERENCE)
    scale = {
        p: [2 if (k == 0 or 2 * k == m // g) else 1 for g, k in sb.symbols(p)]
        for p in range(sb.lo, 1)
    }
    column_exact = maps_integral = d_stable = True
    for p in range(sb.lo, 1):
        n, c, s = sb.ranks[p], jc.involution[p], scale[p]
        plus = [{k: 2} if c[k] == k else {k: 1, c[k]: 1} for k in range(n)]
        if any(x % s[k] for k, row in enumerate(plus) for x in row.values()):
            maps_integral = False  # the check fails here; later degrees are skipped
            break
        m_even = [{j: x // s[k] for j, x in row.items()} for k, row in enumerate(plus)]
        m_odd = [{} if c[k] == k else {k: s[k], c[k]: -s[c[k]]} for k in range(n)]
        column_exact = column_exact and all(
            subquotient_group(_kernel(a, n), _transpose(b, n), n).is_trivial
            for a, b in ((m_even, m_odd), (m_odd, m_even))
        )
        if p < 0:  # d diag(s) must be divisible row by row by the next scaling
            d_stable = d_stable and not any(
                x * s[j] % scale[p + 1][i]
                for kind in KINDS
                for i, row in enumerate(build_jcomplex(m, kind).complex.d(p))
                for j, x in row.items()
            )
    return {
        "level": m,
        "column_exact": column_exact,
        "maps_integral": maps_integral,
        "d_stable": d_stable,
        "ok": column_exact and maps_integral and d_stable,
    }


def index_values_check(m: int) -> dict:
    """Correction invariants of both differentials against the closed forms."""
    res: dict = {"level": m}
    ok = True
    for kind in KINDS:
        got = i_invariant(build_jcomplex(m, kind))
        want = index_expected(m, kind)
        res[kind] = {"value": got, "expected": want, "match": got == want}
        ok = ok and got == want
    res["ok"] = ok
    return res


def index_page_product(m: int, kind: str) -> Fraction:
    """The correction invariant of ``kind`` re-derived from the pages: the
    alternating order product of the finite page-2 entries of the half
    variant over the region where total degree is non-positive."""
    half = build_double(m, kind, HALF)
    prod = Fraction(1)
    for p in range(symbol_basis(m).lo, 1):
        for q in range(1, -p + 1):
            order = half.e_term(p, q, 2).order()
            if order is None:
                raise ValueError(f"page entry E_2^({p},{q}) is infinite")
            prod *= Fraction(order) ** ((-1) ** ((p + q) % 2))
    return prod
