"""Exact integer and rational linear algebra on sparse integer rows.

One sparse form.  A ``Row`` is a ``dict`` from column to nonzero ``int``,
and a matrix is the list of its rows, acting on column vectors.  Every
object that ``distlab`` builds stays in this form end to end: ``_mul(A,
B)`` builds the rows of A @ B from ``_axpy(dst, src, q)`` over the
support of ``src``, and ``_transpose`` reads the columns, so identities
such as d^2 = 0 cost O(nnz).  Callers holding rows they built call the
row cores (``_smith``, ``_hermite``, ``_bareiss``, ``_kernel``, ``_rank``,
``_coords``, ``_mul``) directly.  Lattices and other
subgroup-like data are matrices whose *rows* generate.

One public API on checked rows.  ``hnf``, ``kernel_basis``,
``snf_with_inverses``, ``invariant_factors``, ``det_exact``,
``rank_exact`` and ``solve_exact`` take sparse rows and a width, check
them with ``_check_rows`` and run the row core on a copy, so the caller's
rows are never changed and each computation has one implementation;
``Lattice`` and ``integral_preimage`` check their rows the same way.
``to_int`` reads any 2-D integral matrix, nested sequences or a numpy
array, into rows by iterating it, so this module never imports numpy.

One rational representation.  A rational matrix A is handled as an integer
numerator over one positive denominator, (N, d) with N = d * A: every
rational map of the package (the smoothing maps, phi and the regulator
maps of ``abgroup``) is such a pair, with N sparse rows, and so is the
solution that ``solve_exact`` returns.  Products of rational matrices
multiply the numerators only and carry the denominators as one integer
each, so an identity A B == C D is tested as N_A N_B d_C d_D == N_C N_D
d_A d_B.  ``Lattice`` takes generators as (N, den), N sparse integer
rows, and stores them as integer Hermite rows over one denominator;
``Lattice.contains`` takes its vectors the same way.

One elimination core.  ``_smith`` and ``_hermite`` take these rows and
work in place.  ``_hermite`` returns the nonzero Hermite rows, and so
does ``hnf`` on checked rows.  The Smith pivot is the first least
nonzero |entry| of the trailing block in row-major order (Kannan-Bachem;
Cohen, §2.4): rows are scanned one at a time and a unit ends the search.
Once the pivot column is cleared it is p * e_t, so the column operations
touch the pivot row only, and column swaps are a relabelling.  The
transforms U, U^-1, V, V^-1 are sparse rows too, built only when asked
for.  ``snf_with_inverses`` builds all four,
``_kernel`` (and ``kernel_basis`` for checked rows) V only, and
``invariant_factors`` none; ``ZQuotient`` asks ``_smith`` for U and U^-1.

One fraction-free Gauss-Jordan.  ``_bareiss`` eliminates the same sparse
rows left to right (Bareiss 1968): every update is an exact division by
the previous pivot, so no ``Fraction`` is formed, and the pivot rows end
as d * [I | X].  ``_rank`` counts its pivots, the signed ``det_exact``
reads d and the sign of the row swaps, and ``solve_exact`` runs it on
[A | B] and returns (X, d) with A X = d B and the free variables zero.

One coordinate route.  ``_coords`` writes an integer vector in the basis
of Hermite rows by one triangular reduction over the vector's support,
lowest column first (Cohen, §2.4.3), or reports that it is not in their
Z-span.  ``Lattice.contains`` and every subquotient and cohomology group
of ``abgroup`` read their coordinates this way, so none of them solves.
``Lattice`` keeps its Hermite basis as integer rows over one
denominator; its ``covolume``, the pivots' product over den^rank, is the
package's one |det|, read by ``lattice_index`` and ``abgroup._abs_det``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm, prod
from operator import index

from .arith import _xgcd

# ---------------------------------------------------------------------------
# Sparse integer rows: the elimination core and the operator product

Row = dict  # column -> nonzero int; absent columns are zero


def to_int(A) -> list[Row]:
    """The rows of the 2-D integral matrix A as sparse ``int`` rows, zero
    entries dropped.

    A is read by iterating, as nested sequences or a numpy array alike, and
    its rows must have one length.  An entry is an integer (``int``, or a
    type with ``__index__`` such as a numpy integer) or an integral
    ``Fraction``; ValueError names the first other one.

    >>> to_int([[2, 0], [Fraction(4, 2), -1]])
    [{0: 2}, {0: 2, 1: -1}]
    """
    rows: list[Row] = []
    width = None
    for i, a in enumerate(A):
        try:
            a = list(a)
        except TypeError:
            raise ValueError(f"row {i} is a {type(a).__name__}, not a sequence") from None
        if width is None:
            width = len(a)
        elif len(a) != width:
            raise ValueError(f"row {i} has {len(a)} entries, want {width}")
        row: Row = {}
        for j, x in enumerate(a):
            if type(x) is not int:
                if isinstance(x, Fraction) and x.denominator == 1:
                    x = int(x.numerator)
                else:
                    try:
                        x = index(x)
                    except TypeError:
                        raise ValueError(f"entry {x!r} at {(i, j)} is not an integer") from None
            if x:
                row[j] = x
        rows.append(row)
    return rows


def _check_rows(rows: list[Row], n: int, name: str = "relation") -> list[Row]:
    """The sparse rows of ints on Z^n, zero entries dropped (other rows are
    not copied); ValueError names the first malformed one of the ``name`` rows.
    The rows come as a list or tuple, so a dense matrix, which may hide its
    width in zero rows, is refused whole."""
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"{name} rows are a {type(rows).__name__}, not a list of dict rows")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"{name} row {i} is a {type(row).__name__}, not a dict row")
        for j, x in row.items():
            if type(j) is not int or j < 0:
                raise ValueError(f"{name} row {i} has column {j!r}, want 0 to {n - 1}")
            if j >= n:
                raise ValueError(f"{name} rows have width {j + 1}, want {n}")
            if type(x) is not int:
                raise ValueError(f"{name} entry {x!r} at {(i, j)} is not an integer")
    # a zero entry is no pivot, and the row products expect none
    return [{j: x for j, x in row.items() if x} if 0 in row.values() else row for row in rows]


def _copy(rows: list[Row], c: int) -> list[Row]:
    """Fresh copies of the checked matrix rows over columns < c, for an in-place core."""
    return [dict(row) for row in _check_rows(rows, c, "matrix")]


def _axpy(dst: Row, src: Row, q: int) -> None:
    """dst += q * src for q != 0, over the support of src only."""
    for k, v in src.items():
        x = dst.get(k, 0) + q * v
        if x:
            dst[k] = x
        else:
            del dst[k]


def _comb(a: int, x: Row, b: int, y: Row) -> Row:
    """The new row a * x + b * y."""
    out = {k: a * v for k, v in x.items()} if a else {}
    if b:
        _axpy(out, y, b)
    return out


def _mul(A: list[Row], B: list[Row]) -> list[Row]:
    """The rows of A @ B: row i is the sum of A[i][k] * B[k], zeros dropped.

    The caller checks the shapes: every column of A must index a row of B.
    """
    out = []
    for a in A:
        row: Row = {}
        for k, x in a.items():
            _axpy(row, B[k], x)
        out.append(row)
    return out


def _transpose(A: list[Row], c: int) -> list[Row]:
    """The columns of the matrix with rows A and width c, as sparse rows."""
    out: list[Row] = [{} for _ in range(c)]
    for i, row in enumerate(A):
        for j, x in row.items():
            out[j][i] = x
    return out


# ---------------------------------------------------------------------------
# Smith normal form


def _smith(M: list[Row], c: int, *, u=False, u_inv=False, v=False, v_inv=False):
    """Smith form of the sparse integer rows M over columns < c, in place.

    Returns ``(d, U, Ui, V, Vi)``: the diagonal d of length min(r, c) and
    the transforms asked for, None for the others.  U and V^-1 are lists
    of rows; U^-1 and V are lists of columns, so that every elementary
    operation on any transform is an update of one of its sparse rows.
    The rows of M are reused and changed, so a caller holding them passes
    copies.
    """
    r = len(M)
    U = [{i: 1} for i in range(r)] if u else None
    Ui = [{i: 1} for i in range(r)] if u_inv else None
    V = [{i: 1} for i in range(c)] if v else None
    Vi = [{i: 1} for i in range(c)] if v_inv else None
    # Column swaps of M are lazy: its current column j is key phys[j] of
    # every row, and pos inverts phys.
    phys = list(range(c))
    pos = list(range(c))

    def row_op(i: int, t: int, q: int) -> None:
        # row_i += q * row_t, mirrored on U and U^-1 (M is done by the caller).
        if U is not None:
            _axpy(U[i], U[t], q)
        if Ui is not None:
            _axpy(Ui[t], Ui[i], -q)

    def col_op(j: int, t: int, q: int) -> None:
        # col_j += q * col_t, mirrored on V and V^-1.
        if V is not None:
            _axpy(V[j], V[t], q)
        if Vi is not None:
            _axpy(Vi[t], Vi[j], -q)

    def swap_rows(i: int, j: int) -> None:
        for T in (M, U, Ui):
            if T is not None:
                T[i], T[j] = T[j], T[i]

    def swap_cols(i: int, j: int) -> None:
        phys[i], phys[j] = phys[j], phys[i]
        pos[phys[i]], pos[phys[j]] = i, j
        for T in (V, Vi):
            if T is not None:
                T[i], T[j] = T[j], T[i]

    k = min(r, c)
    for t in range(k):
        # Pivot: the first least |entry| of the trailing block in row-major
        # order, which keeps coefficient growth down.  Rows from t on are
        # zero left of column t, so each row is scanned whole, and a unit
        # ends the search.
        best = None
        for i in range(t, r):
            row = M[i]
            if row:
                a = min(map(abs, row.values()))
                if best is None or a < best[0]:
                    best = (a, i, min(pos[j] for j, x in row.items() if x == a or x == -a))
                    if a == 1:
                        break
        if best is None:
            break
        _, i, j = best
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        while True:
            key = phys[t]
            piv = M[t]
            p = piv[key]
            # A row operation changes its own row only, so the rows to
            # clear can be listed up front.
            for i in [i for i in range(t + 1, r) if key in M[i]]:
                q = M[i][key] // p
                if q:
                    _axpy(M[i], piv, -q)
                    row_op(i, t, -q)
                if key in M[i]:
                    # The remainder is a strictly smaller pivot.
                    swap_rows(t, i)
                    break
            else:
                # Column t is now p * e_t, so a column operation against it
                # changes row t only.
                for j in sorted(pos[kk] for kk in piv if kk != key):
                    kk = phys[j]
                    x = piv[kk]
                    q = x // p
                    if q:
                        x -= q * p
                        if x:
                            piv[kk] = x
                        else:
                            del piv[kk]
                        col_op(j, t, -q)
                    if x:
                        swap_cols(t, j)
                        break
                else:
                    break
        if p < 0:
            piv[key] = -p
            for T in (U, Ui):
                if T is not None:
                    T[t] = {kk: -x for kk, x in T[t].items()}
    d = [M[t].get(phys[t], 0) for t in range(k)]
    # Enforce the divisibility chain d_i | d_{i+1}: on the block diag(a, b),
    # row_i += row_{i+1} gives [[a, b], [0, b]]; the unimodular column pair
    # [[s, -b/g], [t, a/g]] with s*a + t*b = g gives [[g, 0], [t*b, a*b/g]];
    # clearing t*b with row i leaves diag(g, lcm).
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a, b = d[i], d[i + 1]
            if a == 0 or b == 0 or b % a == 0:
                continue
            g = gcd(a, b)
            s, tt = _xgcd(a, b)
            row_op(i, i + 1, 1)
            if V is not None:
                V[i], V[i + 1] = _comb(s, V[i], tt, V[i + 1]), _comb(-(b // g), V[i], a // g, V[i + 1])
            if Vi is not None:
                Vi[i], Vi[i + 1] = _comb(a // g, Vi[i], b // g, Vi[i + 1]), _comb(-tt, Vi[i], s, Vi[i + 1])
            q = tt * b // g
            if q:
                row_op(i + 1, i, -q)
            d[i], d[i + 1] = g, a // g * b
            changed = True
    return d, U, Ui, V, Vi


def snf_with_inverses(rows: list[Row], c: int):
    """Smith normal form of the rows over columns < c: (d, U, U^-1, V, V^-1).

    All four transforms are rows, U and V unimodular with U A V = diag(d),
    where d has length min(r, c) and d1 | d2 | ...; the inverses are
    tracked along the same operations.
    """
    d, U, Ui, V, Vi = _smith(_copy(rows, c), c, u=True, u_inv=True, v=True, v_inv=True)
    return d, U, _transpose(Ui, len(rows)), _transpose(V, c), Vi


def invariant_factors(rows: list[Row], c: int) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, without transform bookkeeping."""
    return tuple(x for x in _smith(_copy(rows, c), c)[0] if x)


# ---------------------------------------------------------------------------
# Hermite normal form (row style)


def _hermite(M: list[Row], c: int) -> list[Row]:
    """Row Hermite form of sparse integer rows over columns < c, in place.

    Returns the nonzero Hermite rows: positive pivots, entries above each
    pivot reduced.  The rows wait in buckets by leading column, so a column
    touches only the rows that start there; its pivot is the least |entry|
    and, among those, the row with the fewest nonzeros.  The entries above
    the pivots are reduced once, bottom-up, after the echelon pass.  The
    rows of M are reused and changed; the row span is unchanged.
    """
    start: dict[int, list[Row]] = {}
    for row in M:
        if row:
            start.setdefault(min(row), []).append(row)
    H: dict[int, Row] = {}  # pivot column -> its row, in column order
    for col in range(c):
        rows = start.pop(col, None)
        if rows is None:
            continue
        while len(rows) > 1:
            piv = min(rows, key=lambda row: (abs(row[col]), len(row)))
            p = piv[col]
            rest = []
            for row in rows:
                if row is not piv:
                    _axpy(row, piv, -(row[col] // p))
                    if col in row:
                        rest.append(row)  # a remainder below |p|
                    elif row:
                        start.setdefault(min(row), []).append(row)
            rows = rest + [piv]
        piv = rows[0]
        H[col] = piv if piv[col] > 0 else {j: -x for j, x in piv.items()}
    # Bottom-up, each row is reduced against the rows below it, which are
    # reduced already, at its pivot columns lowest first: a row op at
    # column j changes only columns past j, and a reduced row is zero at
    # every unit pivot, so it can only add entries at the `wide` pivots.
    wide = {j for j, h in H.items() if h[j] > 1}
    for col in reversed(H):
        row = H[col]
        for j in sorted(j for j in wide.union(row) if j > col and j in H):
            q = row.get(j, 0) // H[j][j]
            if q:
                _axpy(row, H[j], -q)
    return list(H.values())


def hnf(rows: list[Row], c: int) -> list[Row]:
    """The nonzero rows of the row Hermite normal form of the rows over
    columns < c: positive pivots, entries above each pivot reduced."""
    return _hermite(_copy(rows, c), c)


def _coords(H: list[Row], v: Row, piv: dict[int, int]) -> Row | None:
    """The integer coordinates of v in the Hermite rows H, as a sparse row.

    piv maps the pivot column of each row of H to its index.  The support
    of v is walked lowest column first: its least column must be a pivot
    column and its entry there a multiple of the pivot, and subtracting
    that multiple of the row clears it, as the row is zero to the left.
    Returns None when v is not in the Z-span of H, either off its rational
    span or with a non-integral coordinate.  v is not changed.
    """
    v = dict(v)
    out: Row = {}
    while v:
        j = min(v)
        i = piv.get(j)
        if i is None:
            return None
        q, rem = divmod(v[j], H[i][j])
        if rem:
            return None
        _axpy(v, H[i], -q)
        out[i] = q
    return out


# ---------------------------------------------------------------------------
# Fraction-free Gauss-Jordan: determinant, rank, solving


def _bareiss(M: list[Row], c: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan (Bareiss) on sparse integer rows, over columns < c.

    Works in place and returns (pivot columns, d, sign).  Pivot columns
    are taken left to right; the pivot is the first row with the least
    nonzero |entry| (a unit ends the search), moved up by a swap and made
    positive by negating its row.  Every row with an entry a in the pivot
    column becomes (p * row - a * pivot_row) // prev; the others only
    change when the pivot value does, so systems with unit pivots cost
    O(nnz).  Each entry is then, up to sign, a minor of the input, and the
    divisions are exact.  On return M[k] is the pivot row of column piv[k]
    and the pivot rows are d * [I | X], d the last pivot; the rows past
    them are zero left of c.  sign is the parity of the swaps and
    negations, so for square M the determinant is sign * d at full rank.
    """
    r = len(M)
    piv: list[int] = []
    prev, sign = 1, 1
    for col in range(c):
        t = len(piv)
        if t == r:
            break
        best, least = None, 0
        for i in range(t, r):
            a = M[i].get(col)
            if a is not None and (best is None or abs(a) < least):
                best, least = i, abs(a)
                if least == 1:
                    break
        if best is None:
            continue
        if best != t:
            M[t], M[best] = M[best], M[t]
            sign = -sign
        top = M[t]
        p = top[col]
        if p < 0:
            top = M[t] = {j: -x for j, x in top.items()}
            p, sign = -p, -sign
        for i in range(r):
            if i == t:
                continue
            a = M[i].get(col)
            if a is not None:
                row = M[i] if p == 1 else {j: p * x for j, x in M[i].items()}
                _axpy(row, top, -a)
                M[i] = row if prev == 1 else {j: x // prev for j, x in row.items()}
            elif p != prev:
                M[i] = {j: x * p // prev for j, x in M[i].items()}
        prev = p
        piv.append(col)
    return piv, prev, sign


def _rank(M: list[Row], c: int) -> int:
    """The rank over Q of the integer rows M over columns < c; M is not changed."""
    return len(_bareiss([dict(row) for row in M], c)[0])


def det_exact(rows: list[Row], n: int) -> int:
    """The determinant of the n x n matrix with these rows, by fraction-free elimination."""
    M = _copy(rows, n)
    if len(M) != n:
        raise ValueError(f"matrix has {len(M)} rows, want {n}")
    piv, d, sign = _bareiss(M, n)
    return sign * d if len(piv) == n else 0


def rank_exact(rows: list[Row], c: int) -> int:
    """Rank over Q of the rows over columns < c: the pivots of the fraction-free elimination."""
    return _rank(_check_rows(rows, c, "matrix"), c)


def solve_exact(A: list[Row], B: list[Row], c: int) -> tuple[list[Row], int]:
    """Solve A Y = B exactly over the rationals, for A with rows over columns < c.

    B has one row per row of A, over any columns.  Returns (X, d) with
    A X = d B: the solution Y = X / d as c integer rows over the columns
    of B and its least positive denominator d, the free variables zero.
    Raises ValueError when the row counts differ or the system is
    inconsistent.
    """
    A = _check_rows(A, c, "A")
    B = _check_rows(B, inf, "B")
    if len(B) != len(A):
        raise ValueError(f"B has {len(B)} rows, want {len(A)}")
    M = [{**a, **{c + j: x for j, x in b.items()}} for a, b in zip(A, B)]
    piv, d, _ = _bareiss(M, c)
    # the rows past the pivots are zero left of c
    for row in M[len(piv) :]:
        if row:
            k = min(row) - c
            raise ValueError(f"inconsistent linear system: column {k} of B is not in the column span of A")
    X: list[Row] = [{} for _ in range(c)]
    for col, row in zip(piv, M):
        X[col] = {j - c: x for j, x in row.items() if j >= c}
    g = gcd(d, *(x for row in X for x in row.values()))
    if g > 1:
        X, d = [{j: x // g for j, x in row.items()} for row in X], d // g
    return X, d


def kernel_basis(rows: list[Row], c: int) -> list[Row]:
    """Saturated basis of {x : A x = 0} over Z, for A with these rows over
    columns < c, returned as rows.

    The basis is primitive: it spans ker(A) ∩ Z^c as a direct summand of
    Z^c, courtesy of the unimodular Smith transform.
    """
    return _kernel(_check_rows(rows, c, "matrix"), c)


def _kernel(M: list[Row], c: int) -> list[Row]:
    """``kernel_basis`` on the sparse integer rows M over columns < c; M is not changed."""
    d, _, _, V, _ = _smith([dict(row) for row in M], c, v=True)
    # The columns of V past the nonzero diagonal span the kernel.
    nz = sum(1 for x in d if x)
    return V[nz:]


# ---------------------------------------------------------------------------
# Lattices: finitely generated subgroups of Q^n of full rank in their span


class Lattice:
    """A finitely generated subgroup of Q^n, stored via a canonical basis.

    The rows of ``gens / den`` generate: ``gens`` is a list of sparse
    integer rows (checked by ``_check_rows``, then copied) and ``den`` a
    positive integer, so a caller holding a scaled matrix builds no
    ``Fraction`` entries.  The lattice is kept as one canonical form:
    ``den`` is its least common denominator and ``rows`` the Hermite form
    of ``den`` times it, as sparse integer rows.  Two equal lattices have
    equal forms, and ``basis`` is ``rows / den``.
    """

    __slots__ = ("ambient", "rows", "den")

    def __init__(self, ambient: int, gens: list[Row] | None = None, den: int = 1):
        _check_den(den)
        self.ambient = ambient
        rows = [dict(row) for row in _check_rows(gens or [], ambient, "generator")]
        # Over the least common denominator, as if gens / den were scaled.
        g = gcd(den, *(x for row in rows for x in row.values()))
        if g > 1:
            rows, den = [{j: x // g for j, x in row.items()} for row in rows], den // g
        self.rows, self.den = _hermite(rows, ambient), den

    @property
    def basis(self) -> list[Row]:
        """The canonical basis rows, sparse, with ``Fraction`` entries."""
        return [{j: Fraction(x, self.den) for j, x in row.items()} for row in self.rows]

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def covolume(self) -> Fraction:
        """The Hermite pivots' product over den^rank: |det| of a basis, on the pivot columns."""
        return Fraction(prod(row[min(row)] for row in self.rows), self.den**self.rank)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lattice)
            and self.ambient == other.ambient
            and self.den == other.den
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.rank))

    def __repr__(self) -> str:
        return f"Lattice(ambient={self.ambient}, rank={self.rank})"

    def contains(self, rows: list[Row], e: int = 1) -> bool:
        """True iff every row of ``rows / e`` lies in the lattice.

        ``rows`` are sparse integer rows, checked by ``_check_rows``, and
        ``e`` is a positive integer.
        """
        _check_den(e)
        R = _check_rows(rows, self.ambient, "vector")
        den = self.den
        piv = {min(h): i for i, h in enumerate(self.rows)}
        # x = n / e is in the lattice iff den * x is integral and has
        # integer coordinates in the integer basis.
        for v in R:
            if any(x * den % e for x in v.values()):
                return False
            if _coords(self.rows, {j: x * den // e for j, x in v.items()}, piv) is None:
                return False
        return True


def _check_den(den: int) -> None:
    if den < 1:
        raise ValueError(f"lattice denominator must be positive, got {den}")


def lattice_index(A: Lattice, B: Lattice) -> Fraction:
    """The symbol (A : B): |det M| where the basis of B is M @ basis of A.

    Requires both lattices to span the same rational subspace; generalizes
    the subgroup index #(A/B) to non-nested commensurable lattices.
    """
    if A.ambient != B.ambient or A.rank != B.rank or _rank(A.rows + B.rows, A.ambient) > A.rank:
        raise ValueError("lattices do not span the same subspace")
    # Lattices with one span have the same Hermite pivot columns, on which
    # each basis is triangular, so (A : B) is the ratio of the covolumes.
    return B.covolume / A.covolume


def _stacked(A: Lattice, B: Lattice) -> tuple[list[Row], int]:
    """(N, d): the two bases stacked, as integer rows N over d = lcm of the denominators."""
    if A.ambient != B.ambient:
        raise ValueError("ambient dimension mismatch")
    d = lcm(A.den, B.den)
    return [{j: x * (d // L.den) for j, x in row.items()} for L in (A, B) for row in L.rows], d


def lattice_sum(A: Lattice, B: Lattice) -> Lattice:
    return Lattice(A.ambient, *_stacked(A, B))


def lattice_intersect(A: Lattice, B: Lattice) -> Lattice:
    """Intersection, via the kernel of the stacked generator rows."""
    stacked, d = _stacked(A, B)
    if A.rank == 0 or B.rank == 0:
        return Lattice(A.ambient)
    # kernel rows (u | w) with u MA + w MB = 0; u MA generates the intersection
    ker = _kernel(_transpose(stacked, A.ambient), len(stacked))
    u = [{j: x for j, x in row.items() if j < A.rank} for row in ker]
    return Lattice(A.ambient, _mul(u, stacked[: A.rank]), d)


def integral_preimage(M: list[Row], gens: list[Row], n: int) -> list[Row]:
    """Hermite rows spanning {x in Z^n : M x in the Z-span of the gens rows}.

    M is given by its sparse rows over columns < n, and the gens rows have
    width len(M); ``_check_rows`` checks both.  The x are the first n
    coordinates of the integral kernel of [M | -gens^T].
    """
    W = [dict(row) for row in _check_rows(M, n, "map")]
    for t, row in enumerate(_check_rows(gens, len(W), "generator")):
        for j, x in row.items():
            W[j][n + t] = -x
    return _hermite([{j: x for j, x in v.items() if j < n} for v in _kernel(W, n + len(gens))], n)
