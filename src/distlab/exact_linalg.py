"""Exact integer and rational linear algebra on numpy object arrays.

Matrices are dense 2-D ``numpy`` arrays with ``dtype=object`` whose entries
are Python ``int`` or ``fractions.Fraction``, so every operation here is
exact.  Linear maps act on column vectors (``A @ x``); lattices and other
subgroup-like data are stored as matrices whose *rows* generate.

Provided tools: Smith and Hermite normal forms with transform matrices,
fraction-free determinants, saturated kernel bases, exact solving and
inversion, and a ``Lattice`` class with index / intersection / sum in the
sense of commensurable subgroups of Q^n.

Two solvers.  ``solve_integral`` writes integer vectors in an integer basis
without leaving Z: fraction-free Gauss-Jordan returns the integer
coordinates, or None when they are rational but not integral.  Subquotients
(``abgroup.subquotient_group``, ``BoundedComplex.cohomology_data``,
``JComplex.fixed_subcomplex``, ``ZQuotient.stabilizes`` and the spectral
total cohomology) use it.  ``solve_exact`` is Gauss-Jordan over ``Fraction``
for callers whose answer is rational: ``Lattice.coords_of``,
``inverse_exact``, and the induced maps and restricted determinants in
``abgroup``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Sequence

import numpy as np

# Type aliases for readability; both are numpy object arrays.
IMat = np.ndarray
QMat = np.ndarray


def imat(rows: Sequence[Sequence[int]]) -> IMat:
    """Build an integer object matrix from nested sequences."""
    a = np.array([[int(x) for x in row] for row in rows], dtype=object)
    if a.ndim == 1:
        a = a.reshape(len(rows), 0)
    return a


def qmat(rows: Sequence[Sequence]) -> QMat:
    """Build a rational object matrix, coercing entries to Fraction."""
    a = np.array([[Fraction(x) for x in row] for row in rows], dtype=object)
    if a.ndim == 1:
        a = a.reshape(len(rows), 0)
    return a


def eye(n: int) -> IMat:
    a = zeros(n, n)
    for i in range(n):
        a[i, i] = 1
    return a


def zeros(r: int, c: int) -> IMat:
    a = np.empty((r, c), dtype=object)
    a[...] = 0
    return a


def mat_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    return bool((a == b).all())


def is_integral(a: np.ndarray) -> bool:
    return all(Fraction(x).denominator == 1 for x in a.flat)


def _all_int(a: np.ndarray) -> bool:
    return set(map(type, a.flat)) <= {int}


def to_int(a: np.ndarray) -> IMat:
    """Coerce a matrix with integral entries to plain ints (a new array)."""
    if a.dtype == object and _all_int(a):
        return a.copy()
    out = np.empty(a.shape, dtype=object)
    for idx, x in np.ndenumerate(a):
        f = Fraction(x)
        if f.denominator != 1:
            raise ValueError(f"entry {x} at {idx} is not an integer")
        out[idx] = f.numerator
    return out


def common_denominator(a: np.ndarray) -> int:
    d = 1
    for x in a.flat:
        d = lcm(d, Fraction(x).denominator)
    return d


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SnfResult:
    """U @ A @ V == D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: IMat
    D: IMat
    V: IMat

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        k = min(self.D.shape)
        return tuple(self.D[i, i] for i in range(k) if self.D[i, i] != 0)


def _min_abs_pivot(M: IMat, t: int) -> tuple[int, int] | None:
    # Smallest nonzero |entry| in the trailing block keeps coefficient
    # growth down, which matters a lot for object-dtype arithmetic.
    sub = M[t:, t:]
    if sub.size == 0:
        return None
    best = None
    best_val = None
    for (i, j), x in np.ndenumerate(sub):
        if x != 0:
            ax = -x if x < 0 else x
            if best_val is None or ax < best_val:
                best, best_val = (i + t, j + t), ax
                if ax == 1:
                    break
    return best


class _Transform:
    """Accumulates elementary row or column operations and their inverses."""

    def __init__(self, n: int, rows: bool, want: bool, want_inv: bool):
        self.rows = rows
        self.M = eye(n) if want else None
        self.Minv = eye(n) if want_inv else None

    def swap(self, i: int, j: int) -> None:
        if self.M is not None:
            if self.rows:
                self.M[[i, j], :] = self.M[[j, i], :]
            else:
                self.M[:, [i, j]] = self.M[:, [j, i]]
        if self.Minv is not None:
            if self.rows:
                self.Minv[:, [i, j]] = self.Minv[:, [j, i]]
            else:
                self.Minv[[i, j], :] = self.Minv[[j, i], :]

    def add_multiple(self, i: int, j: int, q) -> None:
        # row_i += q * row_j  (or col_i += q * col_j)
        if self.M is not None:
            if self.rows:
                self.M[i, :] += q * self.M[j, :]
            else:
                self.M[:, i] += q * self.M[:, j]
        if self.Minv is not None:
            if self.rows:
                self.Minv[:, j] -= q * self.Minv[:, i]
            else:
                self.Minv[j, :] -= q * self.Minv[i, :]

    def negate(self, i: int) -> None:
        if self.M is not None:
            if self.rows:
                self.M[i, :] = -self.M[i, :]
            else:
                self.M[:, i] = -self.M[:, i]
        if self.Minv is not None:
            if self.rows:
                self.Minv[:, i] = -self.Minv[:, i]
            else:
                self.Minv[i, :] = -self.Minv[i, :]


def _smith(A: IMat, want_u: bool, want_v: bool, want_inv: bool = False):
    M = to_int(A)
    r, c = M.shape
    U = _Transform(r, True, want_u, want_inv)
    V = _Transform(c, False, want_v, want_inv)
    t = 0
    while True:
        piv = _min_abs_pivot(M, t)
        if piv is None:
            break
        i, j = piv
        if i != t:
            M[[t, i], :] = M[[i, t], :]
            U.swap(t, i)
        if j != t:
            M[:, [t, j]] = M[:, [j, t]]
            V.swap(t, j)
        while True:
            p = M[t, t]
            dirty = False
            for i in range(t + 1, r):
                if M[i, t] != 0:
                    q = M[i, t] // p
                    if q != 0:
                        M[i, :] -= q * M[t, :]
                        U.add_multiple(i, t, -q)
                    if M[i, t] != 0:
                        # Remainder is a strictly smaller pivot candidate.
                        M[[t, i], :] = M[[i, t], :]
                        U.swap(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, c):
                if M[t, j] != 0:
                    q = M[t, j] // p
                    if q != 0:
                        M[:, j] -= q * M[:, t]
                        V.add_multiple(j, t, -q)
                    if M[t, j] != 0:
                        M[:, [t, j]] = M[:, [j, t]]
                        V.swap(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            break
        if M[t, t] < 0:
            M[t, :] = -M[t, :]
            U.negate(t)
        t += 1
        if t >= min(r, c):
            break
    # Enforce the divisibility chain d_i | d_{i+1}.
    k = min(r, c)
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a, b = M[i, i], M[i + 1, i + 1]
            if b == 0 or a == 0:
                continue
            if b % a != 0:
                g = gcd(a, b)
                l = a // g * b
                # diag(a, b) -> diag(g, lcm) by unimodular ops; do it directly
                # and fix up transforms with the explicit 2x2 factors.
                #   [1 1; 0 1] * diag(a,b) * [x 1; y ...]  -- classic trick:
                # row_i += row_{i+1}; then clear with column ops.
                M[i, :] += M[i + 1, :]
                U.add_multiple(i, i + 1, 1)
                # Now row i is (a, b). Column-reduce the 2x2 block.
                # gcd combo: find s,t with s*a + t*b = g.
                s, tt = _xgcd(a, b)
                # col_i := s*col_i + t*col_{i+1} needs a unimodular pair;
                # use the standard block [[s, -b//g], [tt, a//g]].
                colp = M[:, i] * s + M[:, i + 1] * tt
                colq = M[:, i] * (-(b // g)) + M[:, i + 1] * (a // g)
                if V.M is not None:
                    vp = V.M[:, i] * s + V.M[:, i + 1] * tt
                    vq = V.M[:, i] * (-(b // g)) + V.M[:, i + 1] * (a // g)
                    V.M[:, i], V.M[:, i + 1] = vp, vq
                if V.Minv is not None:
                    wp = V.Minv[i, :] * (a // g) + V.Minv[i + 1, :] * (b // g)
                    wq = V.Minv[i, :] * (-tt) + V.Minv[i + 1, :] * s
                    V.Minv[i, :], V.Minv[i + 1, :] = wp, wq
                M[:, i], M[:, i + 1] = colp, colq
                # Clean the residual off-diagonal entries in the 2x2 block.
                q = M[i + 1, i] // M[i, i]
                if q != 0:
                    M[i + 1, :] -= q * M[i, :]
                    U.add_multiple(i + 1, i, -q)
                q = M[i, i + 1] // M[i, i]
                if q != 0:
                    M[:, i + 1] -= q * M[:, i]
                    V.add_multiple(i + 1, i, -q)
                if M[i + 1, i + 1] < 0:
                    M[i + 1, :] = -M[i + 1, :]
                    U.negate(i + 1)
                changed = True
    return M, U, V


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


def snf(A: IMat) -> SnfResult:
    """Smith normal form: returns (U, D, V) with U @ A @ V == D."""
    D, U, V = _smith(A, True, True)
    return SnfResult(U=U.M, D=D, V=V.M)


def snf_with_inverses(A: IMat):
    """Like snf() but also returns U^-1 and V^-1 (tracked, not re-solved)."""
    D, U, V = _smith(A, True, True, want_inv=True)
    return U.M, U.Minv, D, V.M, V.Minv


def invariant_factors(A: IMat) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, without transform bookkeeping."""
    D, _, _ = _smith(A, False, False)
    k = min(D.shape)
    return tuple(D[i, i] for i in range(k) if D[i, i] != 0)


# ---------------------------------------------------------------------------
# Hermite normal form (row style)


def hnf(A: IMat) -> IMat:
    """Row Hermite normal form: positive pivots, entries above reduced.

    Zero rows sink to the bottom; the row span is unchanged.
    """
    M = to_int(A)
    r, c = M.shape
    row = 0
    for col in range(c):
        if row >= r:
            break
        # Reduce all entries below `row` in this column to zero.
        while True:
            pivots = [i for i in range(row, r) if M[i, col] != 0]
            if not pivots:
                break
            i0 = min(pivots, key=lambda i: abs(M[i, col]))
            if i0 != row:
                M[[row, i0], :] = M[[i0, row], :]
            p = M[row, col]
            done = True
            for i in range(row + 1, r):
                if M[i, col] != 0:
                    q = M[i, col] // p
                    M[i, :] -= q * M[row, :]
                    if M[i, col] != 0:
                        done = False
            if done:
                break
        if M[row, col] == 0:
            continue
        if M[row, col] < 0:
            M[row, :] = -M[row, :]
        p = M[row, col]
        for i in range(row):
            q = M[i, col] // p
            if q != 0:
                M[i, :] -= q * M[row, :]
        row += 1
    return M


def hnf_nonzero(A: IMat) -> IMat:
    """HNF with zero rows dropped."""
    H = hnf(A)
    keep = [i for i in range(H.shape[0]) if any(x != 0 for x in H[i, :])]
    return H[keep, :] if keep else zeros(0, H.shape[1])


# ---------------------------------------------------------------------------
# Determinant, rank, solving


def det_exact(A: np.ndarray) -> Fraction:
    """Exact determinant via fraction-free Bareiss elimination."""
    r, c = A.shape
    if r != c:
        raise ValueError("determinant of a non-square matrix")
    if r == 0:
        return Fraction(1)
    scale = Fraction(1)
    M = np.empty((r, c), dtype=object)
    for i in range(r):
        d = lcm(*[Fraction(x).denominator for x in A[i, :]]) if c else 1
        scale *= d
        for j in range(c):
            f = Fraction(A[i, j]) * d
            M[i, j] = f.numerator
    sign = 1
    prev = 1
    for k in range(r - 1):
        if M[k, k] == 0:
            swap = next((i for i in range(k + 1, r) if M[i, k] != 0), None)
            if swap is None:
                return Fraction(0)
            M[[k, swap], :] = M[[swap, k], :]
            sign = -sign
        for i in range(k + 1, r):
            for j in range(k + 1, c):
                M[i, j] = (M[i, j] * M[k, k] - M[i, k] * M[k, j]) // prev
            M[i, k] = 0
        prev = M[k, k]
    return Fraction(sign * M[r - 1, r - 1], 1) / scale


def rank_exact(A: np.ndarray) -> int:
    M = np.array([[Fraction(x) for x in row] for row in A], dtype=object)
    if A.size == 0:
        return 0
    r, c = M.shape
    rank = 0
    row = 0
    for col in range(c):
        piv = next((i for i in range(row, r) if M[i, col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            M[[row, piv], :] = M[[piv, row], :]
        for i in range(row + 1, r):
            if M[i, col] != 0:
                M[i, :] -= (M[i, col] / M[row, col]) * M[row, :]
        rank += 1
        row += 1
        if row == r:
            break
    return rank


def solve_exact(A: np.ndarray, B: np.ndarray) -> QMat:
    """Solve A @ X = B exactly over the rationals.

    B may be a matrix or a single column reshaped as (n, 1).  Raises
    ValueError when the system is inconsistent; with a non-unique solution
    the free variables are set to zero.
    """
    r, c = A.shape
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    k = B.shape[1]
    M = np.empty((r, c + k), dtype=object)
    for i in range(r):
        for j in range(c):
            M[i, j] = Fraction(A[i, j])
        for j in range(k):
            M[i, c + j] = Fraction(B[i, j])
    pivots = []
    row = 0
    for col in range(c):
        piv = next((i for i in range(row, r) if M[i, col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            M[[row, piv], :] = M[[piv, row], :]
        M[row, :] = M[row, :] / M[row, col]
        for i in range(r):
            if i != row and M[i, col] != 0:
                M[i, :] -= M[i, col] * M[row, :]
        pivots.append(col)
        row += 1
        if row == r:
            break
    for i in range(row, r):
        if any(M[i, c + j] != 0 for j in range(k)):
            raise ValueError("inconsistent linear system")
    X = zeros(c, k)
    X[...] = Fraction(0)
    for rr, col in enumerate(pivots):
        for j in range(k):
            X[col, j] = M[rr, c + j]
    return X


def solve_integral(A: IMat, B: IMat) -> IMat | None:
    """The integer X with A @ X == B, for integer A with independent columns.

    Fraction-free Gauss-Jordan on [A | B] in the style of Bareiss: after
    the pivot step in column t every entry is, up to sign, a minor of order
    t+1 or t+2, and each division by the previous pivot is exact.  Rows
    with a zero in the pivot column only change when the pivot does, so
    sparse systems with unit pivots cost little.  The pivot rows end as
    d * [I | X] with d the last pivot, so one divisibility test by d
    decides integrality.  Returns None when the unique solution is
    rational but not integral; raises ValueError when the system is
    inconsistent or the columns of A are dependent.
    """
    r, c = A.shape
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    if B.shape[0] != r:
        raise ValueError("row count of B does not match A")
    M = np.hstack([to_int(A), to_int(B)])
    prev = 1
    for t in range(c):
        col = M[t:, t]
        # The smallest pivot keeps the selected minor, hence d, small.
        piv = min(
            (i for i in range(r - t) if col[i] != 0),
            key=lambda i: abs(col[i]),
            default=None,
        )
        if piv is None:
            raise ValueError("columns of A are dependent")
        if piv:
            M[[t, t + piv], :] = M[[t + piv, t], :]
        # Columns up to t are not read again (pivot rows hold p there).
        rest = M[:, t + 1 :]
        p = M[t, t]
        if p < 0:
            # Same as negating that row of [A | B] at the start.
            p = -p
            rest[t, :] = -rest[t, :]
        hit = M[:, t] != 0
        hit[t] = False
        if p != prev:
            miss = ~hit
            miss[t] = False
            rest[miss] = rest[miss] * p // prev
        if hit.any():
            rest[hit] = (rest[hit] * p - np.outer(M[hit, t], rest[t, :])) // prev
        prev = p
    if any(x != 0 for x in M[c:, c:].flat):
        raise ValueError("inconsistent linear system")
    DX = M[:c, c:]
    if any(x % prev for x in DX.flat):
        return None
    return DX // prev


def inverse_exact(A: np.ndarray) -> QMat:
    r, c = A.shape
    if r != c:
        raise ValueError("inverse of a non-square matrix")
    return solve_exact(A, eye(r))


def kernel_basis(A: np.ndarray) -> IMat:
    """Saturated basis of {x : A @ x = 0} over Z, returned as rows.

    Works for integer or rational A (row scaling does not change the
    kernel).  The basis is primitive: it spans ker(A) ∩ Z^n as a direct
    summand of Z^n, courtesy of the unimodular Smith transform.
    """
    r, c = A.shape
    if r == 0 or c == 0:
        return eye(c)
    if _all_int(A):
        M = A
    else:
        M = np.empty((r, c), dtype=object)
        for i in range(r):
            d = lcm(*[Fraction(x).denominator for x in A[i, :]])
            for j in range(c):
                f = Fraction(A[i, j]) * d
                M[i, j] = f.numerator
    D, _, V = _smith(M, False, True)
    k = min(D.shape)
    nz = sum(1 for i in range(k) if D[i, i] != 0)
    cols = list(range(nz, c))
    if not cols:
        return zeros(0, c)
    return V.M[:, cols].T.copy()


# ---------------------------------------------------------------------------
# Lattices: finitely generated subgroups of Q^n of full rank in their span


class Lattice:
    """A finitely generated subgroup of Q^n, stored via a canonical basis.

    The basis is the scaled Hermite form of the generators, so two equal
    lattices compare equal.  Rows generate.
    """

    __slots__ = ("ambient", "basis", "_den")

    def __init__(self, ambient: int, gens: np.ndarray | None = None):
        self.ambient = ambient
        if gens is None or gens.size == 0:
            gens = zeros(0, ambient)
        if gens.shape[1] != ambient:
            raise ValueError("generator width does not match ambient dimension")
        den = common_denominator(gens)
        scaled = np.empty(gens.shape, dtype=object)
        for idx, x in np.ndenumerate(gens):
            scaled[idx] = (Fraction(x) * den).numerator
        H = hnf_nonzero(scaled)
        # Keep the smallest denominator that still writes the basis exactly.
        g = 0
        for x in H.flat:
            g = gcd(g, x)
        if g and den > 1:
            shrink = gcd(g, den)
            if shrink > 1:
                H = H // shrink
                den //= shrink
        self._den = den
        self.basis = np.empty(H.shape, dtype=object)
        for idx, x in np.ndenumerate(H):
            self.basis[idx] = Fraction(x, den)

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lattice)
            and self.ambient == other.ambient
            and mat_equal(self.basis, other.basis)
        )

    def __hash__(self):
        return hash((self.ambient, self.rank))

    def __repr__(self) -> str:
        return f"Lattice(ambient={self.ambient}, rank={self.rank})"

    def spans_same_space(self, other: "Lattice") -> bool:
        if self.ambient != other.ambient or self.rank != other.rank:
            return False
        stacked = np.vstack([self.basis, other.basis])
        return rank_exact(stacked) == self.rank

    def coords_of(self, rows: np.ndarray) -> QMat:
        """Express given row vectors in this lattice's basis (exact)."""
        if rows.size == 0:
            return zeros(rows.shape[0], self.rank)
        return solve_exact(self.basis.T, rows.T).T

    def contains(self, row: np.ndarray) -> bool:
        try:
            coef = self.coords_of(row.reshape(1, -1))
        except ValueError:
            return False
        return is_integral(coef)


def image_lattice(A: np.ndarray) -> Lattice:
    """Lattice spanned by the rows of A."""
    return Lattice(A.shape[1], A)


def lattice_index(A: Lattice, B: Lattice) -> Fraction:
    """The symbol (A : B): |det M| where the basis of B is M @ basis of A.

    Requires both lattices to span the same rational subspace; generalizes
    the subgroup index #(A/B) to non-nested commensurable lattices.
    """
    if not A.spans_same_space(B):
        raise ValueError("lattices do not span the same subspace")
    M = A.coords_of(B.basis)
    d = det_exact(M)
    if d == 0:
        raise ValueError("degenerate coefficient matrix")
    return abs(d)


def lattice_sum(A: Lattice, B: Lattice) -> Lattice:
    if A.ambient != B.ambient:
        raise ValueError("ambient dimension mismatch")
    return Lattice(A.ambient, np.vstack([A.basis, B.basis]))


def lattice_intersect(A: Lattice, B: Lattice) -> Lattice:
    """Intersection, via the kernel of the stacked generator matrix."""
    if A.ambient != B.ambient:
        raise ValueError("ambient dimension mismatch")
    if A.rank == 0 or B.rank == 0:
        return Lattice(A.ambient)
    d = lcm(A._den, B._den)
    MA = np.empty(A.basis.shape, dtype=object)
    for idx, x in np.ndenumerate(A.basis):
        MA[idx] = (x * d).numerator
    MB = np.empty(B.basis.shape, dtype=object)
    for idx, x in np.ndenumerate(B.basis):
        MB[idx] = (x * d).numerator
    stacked = np.vstack([MA, MB])
    ker = kernel_basis(stacked.T)  # rows (u | w) with u@MA + w@MB = 0
    if ker.shape[0] == 0:
        return Lattice(A.ambient)
    u = ker[:, : MA.shape[0]]
    gens_scaled = u @ MA
    gens = np.empty(gens_scaled.shape, dtype=object)
    for idx, x in np.ndenumerate(gens_scaled):
        gens[idx] = Fraction(x, d)
    return Lattice(A.ambient, gens)


def integral_preimage(M: IMat, gens: IMat) -> IMat:
    """Rows generating {x in Z^n : M @ x in the Z-row-span of gens}."""
    n = M.shape[1]
    if gens.shape[0] == 0:
        return kernel_basis(M)
    W = np.hstack([M, -gens.T])
    ker = kernel_basis(W)
    if ker.shape[0] == 0:
        return zeros(0, n)
    return hnf_nonzero(ker[:, :n])


def is_unimodular(A: IMat) -> bool:
    return A.shape[0] == A.shape[1] and abs(det_exact(A)) == 1
