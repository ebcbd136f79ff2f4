"""Graded complexes of level symbols, their homotopy calculus, and the
determinant identities of the smoothing operator.

A symbol (g, x) at level m has g a squarefree divisor of m and x a point of
(g/m)Z/Z; its degree is minus the number of primes of g.  Two differentials
live on the same graded lattice: the difference flavor sends a symbol to its
coarsenings minus their preimage sums, the average flavor keeps only the
preimage sums.  Both make the lattice acyclic away from degree zero, where
they cut out the distribution and predistribution quotients respectively.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .abgroup import (
    BoundedComplex,
    JComplex,
    _abs_det,
    abstract_index_check,
    commutes,
    fixed_restriction,
    intertwines,
)
from .arith import prime_to_p_part, primes_of, squarefree_divisors
from .cyclotomic import smoothing_det, smoothing_det_minus
from .distribution import (
    smoothing_factor_scaled,
    smoothing_scaled,
    standard_basis,
    universal_distribution,
    universal_predistribution,
)
from .exact_linalg import Row, _axpy, _comb, _mul, _rank

DIFFERENCE = "difference"
AVERAGE = "average"
KINDS = (DIFFERENCE, AVERAGE)
QUOTIENT = {DIFFERENCE: universal_distribution, AVERAGE: universal_predistribution}


def epsilon(g: int, p: int) -> int:
    """Alternating sign of p inside g: (-1)^position with primes increasing."""
    ps = primes_of(g)
    if p not in ps:
        return 0
    return (-1) ** (ps.index(p) + 1)


class SymbolBasis:
    """Index bookkeeping for the level-m symbols, grouped by degree."""

    def __init__(self, m: int):
        self.m = m
        self.primes = primes_of(m)
        r = len(self.primes)
        self.lo = -r
        by_degree: dict[int, list[int]] = {i: [] for i in range(-r, 1)}
        for g in squarefree_divisors(m):
            by_degree[-len(primes_of(g))].append(g)
        self.blocks = {i: tuple(sorted(gs)) for i, gs in by_degree.items()}
        self.offset: dict[int, dict[int, int]] = {}
        self.ranks: dict[int, int] = {}
        for i, gs in self.blocks.items():
            off, table = 0, {}
            for g in gs:
                table[g] = off
                off += m // g
            self.offset[i] = table
            self.ranks[i] = off

    def degree_of(self, g: int) -> int:
        return -len(primes_of(g))

    def position(self, g: int, k: int) -> int:
        return self.offset[self.degree_of(g)][g] + k % (self.m // g)

    def symbols(self, i: int):
        for g in self.blocks[i]:
            for k in range(self.m // g):
                yield g, k


@lru_cache(maxsize=None)
def symbol_basis(m: int) -> SymbolBasis:
    return SymbolBasis(m)


def differentials(m: int, kind: str) -> dict[int, list[Row]]:
    """Per-degree sparse rows of the chosen differential in symbol coordinates."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    sb = symbol_basis(m)
    out: dict[int, list[Row]] = {}
    for i in range(sb.lo, 0):
        D: list[Row] = [{} for _ in range(sb.ranks[i + 1])]
        for col, (g, k) in enumerate(sb.symbols(i)):
            for p in primes_of(g):
                e = {col: epsilon(g, p)}
                h = g // p
                if kind == DIFFERENCE:
                    _axpy(D[sb.position(h, k * p)], e, 1)
                for s in range(p):
                    _axpy(D[sb.position(h, k + s * (m // g))], e, -1)
        out[i] = D
    return out


def involution(m: int) -> dict[int, list[int]]:
    """Negation of the point coordinate, block by block, as the permutation
    of each degree's symbols: entry k is the position of c of symbol k."""
    sb = symbol_basis(m)
    return {i: [sb.position(g, -k) for g, k in sb.symbols(i)] for i in range(sb.lo, 1)}


def build_complex(m: int, kind: str) -> BoundedComplex:
    sb = symbol_basis(m)
    return BoundedComplex(dict(sb.ranks), differentials(m, kind))


# The complex of one level, shared by every check on that level; JComplex and
# its BoundedComplex are immutable and keep their cohomology and fixed part.
# All reuse is within one level, so a small bound keeps --m-max sweeps lean.
@lru_cache(maxsize=8)
def build_jcomplex(m: int, kind: str) -> JComplex:
    return JComplex(build_complex(m, kind), involution(m))


def acyclicity_check(m: int) -> dict:
    """Negative degrees vanish and degree zero recovers the two quotients.

    Degree 0 is the top degree, so its quotient's rows are the Hermite rows
    of the image of d(-1) in the level-m points, as the universal ones are.
    """
    sb = symbol_basis(m)
    res: dict = {"level": m}
    ok = True
    for kind in KINDS:
        jc = build_jcomplex(m, kind)  # also validates d^2 = 0 and c d = d c
        C = jc.complex
        acyclic = all(C.cohomology(i).is_trivial for i in range(sb.lo, 0))
        same = C.cohomology_data(0)[1].rows == QUOTIENT[kind](m).rows
        free = not C.cohomology(0).torsion
        res[kind] = {"acyclic_below": acyclic, "h0_matches": same, "h0_free": free}
        ok = ok and acyclic and same and free
    res["ok"] = ok
    return res


def level_inclusion_check(m: int, mult: int) -> dict:
    """Degree-zero cohomology injects into any deeper level's."""
    M = m * mult
    emb: list[Row] = [{} for _ in range(M)]
    for k in range(m):
        emb[k * mult][k] = 1
    out: dict = {"level": m, "factor": mult}
    ok = True
    for kind in KINDS:
        qs, qb = QUOTIENT[kind](m), QUOTIENT[kind](M)
        induced = _mul(_mul(qb.P, emb), qs.S)
        out[kind] = _rank(induced, qs.free_rank) == qs.free_rank
        ok = ok and out[kind]
    out["ok"] = ok
    return out


# ---------------------------------------------------------------------------
# averaged coordinates and the homotopy calculus


def _plus(A: list[Row], B: list[Row], b: int = 1) -> list[Row]:
    """A + b * B, row by row; both must have the same number of rows."""
    return [_comb(1, x, b, y) for x, y in zip(A, B, strict=True)]


class AveragedLevel:
    """The averaged-symbol coordinates of one level and one flavor.

    Basis elements are triples (g, n, j): block g, averaging index n with
    n g dividing the level, and j running over the restricted points of
    level m/(n g).  The homotopy operators move only the (g, n) part, which
    keeps every operator one entry per source index.  Operators are lists
    of sparse integer rows, one row per target index holding
    {source index: coefficient}, so composition is ``_mul``.
    """

    def __init__(self, m: int, kind: str):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        self.m = m
        self.kind = kind
        self.sign = -1 if kind == AVERAGE else 1
        sb = symbol_basis(m)
        self.sb = sb
        self.index: dict[int, list[tuple[int, int, int]]] = {}
        self.pos: dict[int, dict[tuple[int, int, int], int]] = {}
        self.change: dict[int, list[Row]] = {}
        for i in range(sb.lo, 1):
            items: list[tuple[int, int, int]] = []
            P: list[Row] = []  # block diagonal, one standard basis per block
            for g in sb.blocks[i]:
                B, ix = standard_basis(m // g, difference=(kind == DIFFERENCE))
                off = len(P)
                P.extend({off + j: x for j, x in row.items()} for row in B)
                items.extend((g, n, j) for n, j in ix)
            self.index[i] = items
            self.pos[i] = {t: a for a, t in enumerate(items)}
            self.change[i] = P

    def rank(self, i: int) -> int:
        return self.sb.ranks.get(i, 0)

    def _build(self, i_src: int, i_tgt: int, rule) -> list[Row]:
        rows: list[Row] = [{} for _ in range(self.rank(i_tgt))]
        if i_src in self.index and i_tgt in self.index:
            tpos = self.pos[i_tgt]
            for a, trip in enumerate(self.index[i_src]):
                img = rule(trip)
                if img is not None:
                    rows[tpos[img[0]]][a] = img[1]
        return rows

    def step_down(self, p: int, i: int) -> list[Row]:
        """The p-part of the differential, degree i to i + 1."""

        def rule(trip):
            g, n, j = trip
            if g % p:
                return None
            return (g // p, n * p, j), self.sign * epsilon(g, p)

        return self._build(i, i + 1, rule)

    def step_up(self, p: int, i: int) -> list[Row]:
        """The p-homotopy, degree i to i - 1."""

        def rule(trip):
            g, n, j = trip
            if g % p == 0 or n % p:
                return None
            return (g * p, n // p, j), self.sign * epsilon(g * p, p)

        return self._build(i, i - 1, rule)

    def projector(self, p: int, i: int) -> list[Row]:
        return [
            {a: 1} if (n * g) % p else {}
            for a, (g, n, j) in enumerate(self.index.get(i, ()))
        ]

    def full_projector(self, i: int) -> list[Row]:
        return [
            {a: 1} if (g, n) == (1, 1) else {}
            for a, (g, n, j) in enumerate(self.index.get(i, ()))
        ]

    def full_d(self, i: int) -> list[Row]:
        out: list[Row] = [{} for _ in range(self.rank(i + 1))]
        for p in self.sb.primes:
            out = _plus(out, self.step_down(p, i))
        return out

    def staircase(self, i: int) -> list[Row]:
        """Sum over p of (product of earlier projectors) then the p-homotopy."""
        out: list[Row] = [{} for _ in range(self.rank(i - 1))]
        for a, p in enumerate(self.sb.primes):
            term = self.step_up(p, i)
            for q in self.sb.primes[:a]:
                term = _mul(term, self.projector(q, i))
            out = _plus(out, term)
        return out


def homotopy_check(m: int) -> dict:
    """All the operator identities behind acyclicity, both flavors.

    Checks, per degree: the per-prime anticommutators produce exactly the
    complementary projectors, projectors are commuting idempotents, the
    summed staircase homotopy contracts the identity onto the top projector,
    that projector kills everything except the plain degree-zero symbols,
    and the sparse differential matches the symbol-coordinate one.
    """
    sb = symbol_basis(m)
    res: dict = {"level": m}
    ok = True
    for kind in KINDS:
        av = AveragedLevel(m, kind)
        C = build_jcomplex(m, kind).complex
        anti = proj = stair = image = match = True
        degrees = range(sb.lo, 1)
        for i in degrees:
            n_i = av.rank(i)
            ident: list[Row] = [{a: 1} for a in range(n_i)]
            for p in sb.primes:
                for q in sb.primes:
                    lhs = _plus(
                        _mul(av.step_down(q, i - 1), av.step_up(p, i)),
                        _mul(av.step_up(p, i + 1), av.step_down(q, i)),
                    )
                    if p == q:
                        anti = anti and lhs == _plus(ident, av.projector(p, i), -1)
                    else:
                        anti = anti and not any(lhs)
                pi = av.projector(p, i)
                proj = proj and _mul(pi, pi) == pi
                for q in sb.primes:
                    qi = av.projector(q, i)
                    proj = proj and _mul(pi, qi) == _mul(qi, pi)
            full_pi = av.full_projector(i)
            lhs = _plus(
                _mul(av.full_d(i - 1), av.staircase(i)),
                _mul(av.staircase(i + 1), av.full_d(i)),
            )
            stair = stair and lhs == _plus(ident, full_pi, -1)
            chain = ident
            for p in sb.primes:
                chain = _mul(chain, av.projector(p, i))
            image = image and chain == full_pi and (i == 0 or not any(full_pi))
            if i < 0:
                sym = _mul(C.d(i), av.change[i])
                avg = _mul(av.change[i + 1], av.full_d(i))
                match = match and sym == avg
        res[kind] = {
            "anticommutators": anti,
            "projectors": proj,
            "staircase": stair,
            "projector_image": image,
            "differential_match": match,
        }
        ok = ok and anti and proj and stair and image and match
    res["ok"] = ok
    return res


# ---------------------------------------------------------------------------
# the smoothing operator on symbols, its determinants, the index formula


def smoothing_blocks_scaled(m: int) -> dict[int, tuple[list[Row], int]]:
    """Per-degree (N_i, d_i) with N_i / d_i the smoothing operator in degree i.

    On the block of g the operator averages over all primes of the level
    that do not divide g, acting on the point coordinate of level m/g.
    Each block is an integer product of scaled factors, as sparse rows
    moved to the block's offset; d_i is the least common multiple of the
    block denominators of degree i.
    """
    sb = symbol_basis(m)
    out = {}
    for i in range(sb.lo, 1):
        blocks = [smoothing_scaled(m // g, [p for p in sb.primes if g % p]) for g in sb.blocks[i]]
        d = lcm(*[e for _, e in blocks])
        N: list[Row] = []
        for blk, e in blocks:
            off, q = len(N), d // e
            N.extend({off + j: q * x for j, x in row.items()} for row in blk)
        out[i] = (N, d)
    return out


def intertwine_check(m: int) -> dict:
    """The smoothing operator carries one differential to the other and
    commutes with negation.

    On the scaled blocks N_i / d_i: d_avg N_i d_{i+1} == N_{i+1} d_diff d_i
    (cross-multiplied denominators), and N_i commutes with c."""
    phi = smoothing_blocks_scaled(m)
    jc = build_jcomplex(m, DIFFERENCE)
    C_diff, C_avg = jc.complex, build_jcomplex(m, AVERAGE).complex
    inter = all(
        intertwines(C_diff.d(i), C_avg.d(i), phi[i], phi[i + 1]) for i in range(C_diff.lo, 0)
    )
    comm = all(commutes(N, jc.involution[i]) for i, (N, _) in phi.items())
    return {"level": m, "intertwines": inter, "commutes_with_negation": comm,
            "ok": inter and comm}


def det_check(m: int) -> dict:
    """Alternating determinant of the smoothing operator, full and minus.

    The full product must equal the product over p | m of the local factor
    at the prime-to-p part; the minus product must equal the corresponding
    odd-part factors.  Determinants are taken block by block, one factor at
    a time, so nothing here consumes the closed forms being verified.
    """
    sb = symbol_basis(m)
    full = Fraction(1)
    minus = Fraction(1)
    for i in range(sb.lo, 1):
        sign = (-1) ** (i % 2)
        for g in sb.blocks[i]:
            s = m // g
            negation = [-k % s for k in range(s)]
            for p in sb.primes:
                if g % p == 0:
                    continue
                # the factor is N / d; N commutes with negation, and R is
                # N on the pairs e_k - e_{-k}
                N, d = smoothing_factor_scaled(s, p)
                full *= _abs_det((N, d), f"the smoothing factor at {p} on level {s}") ** sign
                R = fixed_restriction(N, negation, negation)
                minus *= _abs_det((R, d), f"its minus part at {p} on level {s}") ** sign
    expect_full = Fraction(1)
    expect_minus = Fraction(1)
    for p in sb.primes:
        f = prime_to_p_part(m, p)
        expect_full *= smoothing_det(p, f)
        expect_minus *= smoothing_det_minus(p, f)
    return {
        "level": m,
        "full": full,
        "full_expected": expect_full,
        "minus": minus,
        "minus_expected": expect_minus,
        "ok": full == expect_full and minus == expect_minus,
    }


def index_formula_check(m: int) -> dict:
    """The two fixed-part lattices in degree-zero cohomology against the
    determinant data and the two correction invariants."""
    res = abstract_index_check(
        build_jcomplex(m, DIFFERENCE), build_jcomplex(m, AVERAGE), smoothing_blocks_scaled(m)
    )
    res["level"] = m
    return res
