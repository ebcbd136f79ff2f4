"""Exact linear algebra: normal forms, kernels, lattices, on sparse rows.

The public functions take sparse integer rows; the oracles here are dense
numpy object matrices (``dense.py``) and sympy.
"""

import json
import random
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense import dense, eye, imat, mat_equal, qmat, scaled, zeros
from distlab.abgroup import FgAbGroup, subquotient_group
from distlab.distribution import distribution_relation_rows, negation_matrix
from distlab.exact_linalg import (
    Lattice,
    _comb,
    _coords,
    _hermite,
    _mul,
    _smith,
    _transpose,
    det_exact,
    hnf,
    integral_preimage,
    invariant_factors,
    kernel_basis,
    lattice_index,
    lattice_intersect,
    lattice_sum,
    rank_exact,
    snf_with_inverses,
    solve_exact,
    to_int,
)
from test_cli import REFUSE_NUMPY, _python


small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


# Mostly zero, like the relation and involution matrices of the workloads:
# unit pivots, row and column swaps, and now and then a non-unit diagonal
# that the divisibility-chain fix-up has to repair.
sparse_entries = st.sampled_from([0] * 14 + [1, -1] * 4 + [2, -2, 3, -3, 4, -4, 5, -5])
sparse_matrices = st.integers(min_value=1, max_value=12).flatmap(
    lambda r: st.integers(min_value=1, max_value=12).flatmap(
        lambda c: st.lists(
            st.lists(sparse_entries, min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
)
any_matrices = st.one_of(small_matrices, sparse_matrices)


def _int_rows(r: int, c: int, bound: int = 9):
    return st.lists(
        st.lists(st.integers(min_value=-bound, max_value=bound), min_size=c, max_size=c),
        min_size=r,
        max_size=r,
    )


@pytest.fixture(scope="module")
def normalforms():
    sympy = pytest.importorskip("sympy")
    return sympy, pytest.importorskip("sympy.matrices.normalforms")


def _lattice(n: int, A, den: int = 1) -> Lattice:
    """The lattice of the rows of the dense matrix A over den."""
    N, e = scaled(A)
    return Lattice(n, N, den * e)


def _contains(L: Lattice, A) -> bool:
    """Does L contain every row of the dense vector or matrix A?"""
    N, e = scaled(A.reshape(1, -1) if A.ndim == 1 else A)
    return L.contains(N, e)


def _snf(A):
    """The Smith form of the dense A by ``snf_with_inverses`` on its rows:
    (d, U, U^-1, D, V, V^-1), the transforms and D = diag(d) dense."""
    r, c = A.shape
    d, U, Ui, V, Vi = snf_with_inverses(to_int(A), c)
    assert len(d) == min(r, c)
    D = zeros(r, c)
    for i, x in enumerate(d):
        D[i, i] = x
    return d, dense(U, r), dense(Ui, r), D, dense(V, c), dense(Vi, c)


def _nonzero(d):
    return tuple(x for x in d if x)


def test_snf_known_example():
    A = imat([[2, 4], [1, 1]])
    d, U, _, D, V, _ = _snf(A)
    assert d == [1, 2]
    assert mat_equal(U @ A @ V, D)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_snf_properties(rows):
    A = imat(rows)
    r, c = A.shape
    d, U, _, D, V, _ = _snf(A)
    assert mat_equal(U @ A @ V, D)
    assert abs(det_exact(to_int(U), r)) == 1 and abs(det_exact(to_int(V), c)) == 1
    facs = _nonzero(d)
    for a, b in zip(facs, facs[1:]):
        assert b % a == 0
    if r == c:
        assert (prod(facs) if len(facs) == r else 0) == abs(det_exact(to_int(A), r))


@settings(max_examples=60, deadline=None)
@given(any_matrices)
def test_snf_inverses_track(rows):
    A = imat(rows)
    d, U, Uinv, D, V, Vinv = _snf(A)
    assert mat_equal(U @ Uinv, eye(A.shape[0]))
    assert mat_equal(Vinv @ V, eye(A.shape[1]))
    assert mat_equal(U @ A @ V, D)
    assert _nonzero(d) == invariant_factors(to_int(A), A.shape[1])


@settings(max_examples=60, deadline=None)
@given(any_matrices)
def test_snf_without_column_transforms(rows):
    A = imat(rows)
    d, U, Ui, V, Vi = _smith(to_int(A), A.shape[1], u=True, u_inv=True, v=True, v_inv=True)
    d2, U2, Ui2, V2, Vi2 = _smith(to_int(A), A.shape[1], u=True, u_inv=True)
    assert V2 is None and Vi2 is None
    assert U2 == U and Ui2 == Ui and d2 == d


# Recorded U, D and V for two involution matrices, a relation matrix, and
# a matrix (stored as "A") whose Smith form needs the divisibility-chain
# fix-up.  Callers keep coordinates from these transforms, so a changed
# pivot or operation order shows here even when the normal form is right.
SNF_GOLDEN = json.loads((Path(__file__).parent / "data" / "snf_golden.json").read_text())
GOLDEN_INPUTS = {
    "eye_plus_negation_15": lambda: eye(15) + dense(negation_matrix(15), 15),
    "eye_minus_negation_15": lambda: eye(15) - dense(negation_matrix(15), 15),
    "distribution_relation_rows_12": lambda: dense(distribution_relation_rows(12), 12),
}


@pytest.mark.parametrize("name", sorted(SNF_GOLDEN))
def test_snf_transforms_are_pinned(name):
    want = SNF_GOLDEN[name]
    A = imat(want["A"]) if "A" in want else GOLDEN_INPUTS[name]()
    assert list(A.shape) == want["shape"]
    d, U, _, _, V, _ = _snf(A)
    assert U.tolist() == want["U"]
    assert d == want["D"]
    assert V.tolist() == want["V"]


def test_hnf_examples():
    assert hnf(to_int([[2, 4], [1, 1]]), 2) == [{0: 1, 1: 1}, {1: 2}]
    assert hnf([{1: 3}], 2) == [{1: 3}]
    # zero rows are dropped, not padded back
    assert hnf([{}, {0: 2, 1: 0}, {0: -4}], 2) == [{0: 2}]


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_hnf_canonical_for_row_span(rows):
    A = imat(rows)
    c = A.shape[1]
    H = dense(hnf(to_int(A), c), c)
    # Row span is preserved: each is expressible in the other over Z.
    rng = random.Random(7)
    P = eye(A.shape[0])
    for _ in range(6):
        i, j = rng.randrange(A.shape[0]), rng.randrange(A.shape[0])
        if i != j:
            P[i, :] += rng.randint(-2, 2) * P[j, :]
    assert mat_equal(dense(hnf(to_int(P @ A), c), c), H)
    # pivots positive, entries above reduced
    for r in range(H.shape[0]):
        lead = next(j for j in range(H.shape[1]) if H[r, j] != 0)
        assert H[r, lead] > 0
        for rr in range(r):
            assert 0 <= H[rr, lead] < H[r, lead]


def test_det_bareiss_matches_cofactor():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        A = imat([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        assert det_exact(to_int(A), n) == _det_cofactor(A)


def _det_cofactor(A):
    n = A.shape[0]
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(A[0, 0])
    tot = Fraction(0)
    for j in range(n):
        if A[0, j] == 0:
            continue
        minor = np.delete(np.delete(A, 0, axis=0), j, axis=1)
        tot += (-1) ** j * A[0, j] * _det_cofactor(minor)
    return tot


def test_det_rational():
    # a rational matrix is (N, d): det(N / d) = det(N) / d^n
    N, d = scaled(qmat([[Fraction(1, 2), 1], [0, Fraction(2, 3)]]))
    assert (N, d) == ([{0: 3, 1: 6}, {1: 4}], 6)
    assert Fraction(det_exact(N, 2), d**2) == Fraction(1, 3)


def test_kernel_is_saturated():
    # multiples-of-2 trap: kernel of [[2, -2]] must contain (1,1), not just (2,2)
    K = kernel_basis([{0: 2, 1: -2}], 2)
    assert len(K) == 1
    assert abs(K[0][0]) == 1 and K[0][0] == K[0][1]


def test_kernel_swap_involution():
    # 1 + c for the coordinate swap on Z^2
    K = kernel_basis(to_int([[1, 1], [1, 1]]), 2)
    assert len(K) == 1
    assert sorted(K[0].values()) == [-1, 1]


@settings(max_examples=50, deadline=None)
@given(small_matrices)
def test_kernel_properties(rows):
    A = imat(rows)
    c = A.shape[1]
    K = kernel_basis(to_int(A), c)
    assert len(K) == c - rank_exact(to_int(A), c)
    if K:
        assert mat_equal(A @ dense(K, c).T, zeros(A.shape[0], len(K)))
        # saturation: invariant factors of the basis matrix are all 1
        assert set(invariant_factors(K, c)) <= {1}


def test_solve_and_inverse():
    A = to_int([[2, 1], [1, 1]])
    assert solve_exact(A, [{0: 1}, {}], 2) == ([{0: 1}, {0: -1}], 1)
    # the inverse is the solve against the identity
    X, d = solve_exact(A, [{0: 1}, {1: 1}], 2)
    assert mat_equal(imat([[2, 1], [1, 1]]) @ dense(X, 2), d * eye(2))
    assert solve_exact([{0: 2}], [{0: 1, 3: 3}], 1) == ([{0: 1, 3: 3}], 2)
    inconsistent = "^inconsistent linear system: column 0 of B is not in the column span of A$"
    with pytest.raises(ValueError, match=inconsistent):
        solve_exact(to_int([[1, 1], [1, 1]]), [{0: 1}, {}], 2)


def _pivots(H):
    """The pivot column of each Hermite row, mapped to its index."""
    return {min(h): i for i, h in enumerate(H)}


def test_coords_examples():
    H = _hermite(to_int([[2, 1], [0, 3], [0, 0]]), 2)  # rows (2, 1), (0, 3)
    piv = _pivots(H)
    assert _coords(H, {0: 4, 1: 5}, piv) == {0: 2, 1: 1}
    assert _coords(H, {1: -3}, piv) == {1: -1}
    assert _coords(H, {0: 1}, piv) is None  # half the first row: not integral
    assert _coords(H, {}, piv) == {}
    v = {0: 2, 1: 1}
    assert _coords(H, v, piv) == {0: 1} and v == {0: 2, 1: 1}  # v is not changed
    line = _hermite([{0: 1, 1: 1}], 2)
    assert _coords(line, {1: 1}, _pivots(line)) is None  # off the rational span
    assert _coords([], {}, {}) == {}
    assert _coords([], {0: 1}, {}) is None


@settings(max_examples=100, deadline=None)
@given(any_matrices, st.data())
def test_coords_against_rational_solve(rows, data):
    """``_coords`` in the Hermite rows H of a drawn matrix against
    ``solve_exact(H.T, v)``: integer coefficients are recovered, half of a
    row of 2H and a vector off the span give None, and a drawn vector gets
    coordinates exactly when its rational solution is integral."""
    A = to_int(rows)
    c = len(rows[0])
    H = _hermite(A, c)
    k, piv = len(H), _pivots(H)
    x = data.draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=k, max_size=k))
    x = {i: xi for i, xi in enumerate(x) if xi}
    assert _coords(H, _mul([x], H)[0], piv) == x
    H2 = [{j: 2 * y for j, y in h.items()} for h in H]
    for h in H:
        assert _coords(H2, h, piv) is None
    w = data.draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c))
    got = _coords(H, {j: y for j, y in enumerate(w) if y}, piv)
    try:
        X, d = solve_exact(_transpose(H, c), [{0: y} if y else {} for y in w], k)
    except ValueError:  # off the rational span
        assert got is None
        return
    if d == 1:
        assert got == {i: x[0] for i, x in enumerate(X) if x}
    else:
        assert got is None


@st.composite
def hermite_inputs(draw):
    """(rows, c): sparse rows over c columns as the relation builders make
    them, mostly unit entries with some negative and non-unit ones, plus
    zero rows, duplicates and integral combinations of earlier rows, in a
    shuffled order."""
    c = draw(st.integers(min_value=1, max_value=10))
    entry = st.sampled_from([1, -1, 1, -1, 2, -2, 3, -3, 6, -7])
    rows = draw(st.lists(st.dictionaries(st.integers(0, c - 1), entry, max_size=4), max_size=9))
    for i, j, q in draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(-3, 3)), max_size=4)):
        if rows:  # q = 0 duplicates a row, and i = j with q = -1 gives a zero row
            rows.append(_comb(1, rows[i % len(rows)], q, rows[j % len(rows)]))
    return draw(st.permutations(rows)), c


@settings(max_examples=200, deadline=None)
@given(hermite_inputs(), st.randoms())
def test_hermite_rows_are_reduced_and_span_the_input(case, rnd):
    """``_hermite`` against oracles that do not use it: the rows are in
    reduced echelon form, every input row has ``_coords`` in them, each of
    them is an integral ``solve_exact`` combination of independent inputs
    (and, in general, leaves the Smith invariants of the inputs unchanged),
    and any order of the input rows gives the same rows."""
    rows, c = case
    H = _hermite([dict(r) for r in rows], c)
    leads = [min(h) for h in H]
    assert leads == sorted(set(leads))
    for i, h in enumerate(H):
        assert h[leads[i]] > 0
        assert all(0 <= g.get(leads[i], 0) < h[leads[i]] for g in H[:i])
    piv = _pivots(H)
    assert all(_coords(H, r, piv) is not None for r in rows)
    if H and rank_exact(rows, c) == len(rows):
        assert solve_exact(_transpose(rows, c), _transpose(H, c), len(rows))[1] == 1
    for h in H:
        assert invariant_factors(rows + [h], c) == invariant_factors(rows, c)
    shuffled = rnd.sample(rows, len(rows))
    assert _hermite([dict(r) for r in shuffled], c) == H


rational_entries = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)
rational_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(rational_entries, min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
)




def _sympy_solve(sympy, A, B):
    """X with A @ X == B and the free variables zero, from sympy's rref of [A | B].

    None when the system is inconsistent (a pivot falls in the B columns).
    """
    c = A.shape[1]
    R, pivots = sympy.Matrix(np.hstack([A, B]).tolist()).rref()
    if any(p >= c for p in pivots):
        return None
    X = [[Fraction(0)] * B.shape[1] for _ in range(c)]
    for i, p in enumerate(pivots):
        for j in range(B.shape[1]):
            x = R[i, c + j]
            X[p][j] = Fraction(int(x.p), int(x.q))
    return X


@settings(max_examples=60, deadline=None)
@given(
    small_matrices,
    st.fractions().filter(lambda f: f.denominator != 1),
    st.randoms(),
)
def test_to_int_rejects_non_integral_fraction(rows, frac, rnd):
    A = imat(rows)
    got = to_int(A)
    assert mat_equal(dense(got, A.shape[1]), A)
    assert all(type(x) is int and x for row in got for x in row.values())
    Q = qmat(rows)
    assert to_int(Q) == got == to_int(rows)
    i, j = rnd.randrange(Q.shape[0]), rnd.randrange(Q.shape[1])
    Q[i, j] = frac
    message = rf"^entry Fraction\({frac.numerator}, {frac.denominator}\) at \({i}, {j}\) is not an integer$"
    with pytest.raises(ValueError, match=message):
        to_int(Q)


def test_to_int_reads_any_two_dimensional_matrix():
    assert to_int([]) == [] and to_int(zeros(0, 3)) == [] and to_int([[], []]) == [{}, {}]
    assert to_int(((0, Fraction(-6, 3)), [np.int8(5), True])) == [{1: -2}, {0: 5, 1: 1}]
    assert all(type(x) is int for row in to_int(np.array([[3, 2**40]])) for x in row.values())
    for bad, message in (
        ([[1, 0.5]], r"^entry 0\.5 at \(0, 1\) is not an integer$"),
        ([[1, 2.0]], r"^entry 2\.0 at \(0, 1\) is not an integer$"),
        (np.array([[1.0]]), r"^entry (np\.float64\(1\.0\)|1\.0) at \(0, 0\) is not an integer$"),
        ([[1, 2], [3]], "^row 1 has 1 entries, want 2$"),
        ([1, 2], "^row 0 is a int, not a sequence$"),
    ):
        with pytest.raises(ValueError, match=message):
            to_int(bad)


def test_numpy_integer_input_is_exact():
    # int64 entries must become Python ints before any elimination: Bareiss
    # on int64 overflows, and a numpy integer is never a plain int row entry.
    big = 2**40
    A = np.array([[big, 1], [1, big]])
    O = imat(A.tolist())
    assert det_exact(to_int(A), 2) == big * big - 1
    assert to_int(A) == to_int(O) and all(type(x) is int for row in to_int(A) for x in row.values())
    assert hnf(to_int(A), 2) == hnf(to_int(O), 2)
    assert kernel_basis(to_int(np.array([[2, 4]])), 2) == kernel_basis([{0: 2, 1: 4}], 2)
    assert _lattice(2, A) == _lattice(2, O)
    # the row API takes plain ints only
    # numpy 2 writes the repr as np.int64(2), numpy 1 as 2
    with pytest.raises(ValueError, match=r"^matrix entry (np\.int64\(2\)|2) at \(0, 0\) is not an integer$"):
        hnf([{0: np.int64(2)}], 1)


@settings(max_examples=60, deadline=None)
@given(rational_matrices, st.integers(min_value=1, max_value=12))
def test_lattice_from_scaled_generators(rows, den):
    A = qmat(rows)
    N, d = scaled(A)
    n = A.shape[1]
    # a denominator that is not the least gives the same lattice
    assert Lattice(n, N, d) == Lattice(n, [{j: 3 * x for j, x in row.items()} for row in N], 3 * d)
    assert _lattice(n, A, den) == _lattice(n, A * Fraction(1, den))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(rational_entries, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(rational_entries, min_size=n, max_size=n), min_size=n, max_size=n),
    )
))
def test_lattice_intersect_rational_full_rank(pair):
    MA, MB = (qmat(rows) for rows in pair)
    n = MA.shape[1]
    assume(det_exact(scaled(MA)[0], n) != 0 and det_exact(scaled(MB)[0], n) != 0)
    A, B = _lattice(n, MA), _lattice(n, MB)
    inter = lattice_intersect(A, B)
    assert inter.rank == n
    assert all(_contains(A, row) and _contains(B, row) for row in dense(inter.rows, n, inter.den))
    assert lattice_index(A, B) == lattice_index(A, inter) / lattice_index(B, inter)
    # the intersection is the largest common sublattice: (A+B : A) = (B : A∩B)
    assert lattice_index(lattice_sum(A, B), A) == lattice_index(B, inter)


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.data())
def test_kernel_basis_int_and_fraction_input_agree(rows, data):
    # a rational matrix with each row over its own denominator, scaled to
    # integer rows, has the kernel lattice of the integer matrix
    c = len(rows[0])
    dens = data.draw(st.lists(st.integers(1, 6), min_size=len(rows), max_size=len(rows)))
    N, _ = scaled(qmat([[Fraction(x, e) for x in row] for row, e in zip(rows, dens)]))
    assert hnf(kernel_basis(N, c), c) == hnf(kernel_basis(to_int(rows), c), c)


@settings(max_examples=30, deadline=None)
@given(small_matrices)
def test_normal_forms_take_integral_fractions(rows):
    A, Q = imat(rows), qmat(rows)
    c = A.shape[1]
    assert hnf(to_int(Q), c) == hnf(to_int(A), c)
    assert invariant_factors(to_int(Q), c) == invariant_factors(to_int(A), c)
    Q[0, 0] = Fraction(1, 2)
    with pytest.raises(ValueError):
        to_int(Q)
    # a Fraction is no row entry, integral or not
    with pytest.raises(ValueError):
        hnf([{0: Fraction(2)}], c)
    with pytest.raises(ValueError):
        invariant_factors([{0: Fraction(1, 2)}], c)


@settings(max_examples=100, deadline=None)
@given(any_matrices)
def test_snf_matches_sympy(normalforms, rows):
    sympy, nf = normalforms
    facs = nf.invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
    want = tuple(abs(int(d)) for d in facs if d != 0)
    assert _nonzero(_snf(imat(rows))[0]) == want
    assert invariant_factors(to_int(rows), len(rows[0])) == want


def _check_hermite_row_core(A):
    """The row core on A's sparse rows gives the public ``hnf``: nonzero
    rows only, and the caller's rows unchanged."""
    c = A.shape[1]
    rows = to_int(A)
    H = _hermite(to_int(A), c)
    assert all(H)  # nonzero rows only
    assert hnf(rows, c) == H and rows == to_int(A)
    return dense(H, c)


@settings(max_examples=100, deadline=None)
@given(any_matrices)
def test_hnf_matches_sympy(normalforms, rows):
    # sympy's HNF is column style with pivots at the bottom of each column;
    # reversing rows and columns turns it into the row style used here.
    sympy, nf = normalforms
    H = _check_hermite_row_core(imat(rows))
    assume(H.shape[0] > 0)
    W = nf.hermite_normal_form(sympy.Matrix(rows).T[::-1, :])[::-1, ::-1]
    assert W.T.tolist() == H.tolist()


@pytest.mark.parametrize("name", sorted(SNF_GOLDEN))
def test_hermite_row_core_on_golden_matrices(normalforms, name):
    sympy, nf = normalforms
    want = SNF_GOLDEN[name]
    A = imat(want["A"]) if "A" in want else GOLDEN_INPUTS[name]()
    H = _check_hermite_row_core(A)
    W = nf.hermite_normal_form(sympy.Matrix(A.tolist()).T[::-1, :])[::-1, ::-1]
    assert W.T.tolist() == H.tolist()


@settings(max_examples=100, deadline=None)
@given(st.one_of(any_matrices, rational_matrices))
def test_rank_matches_sympy(normalforms, rows):
    # a rational matrix by its scaled numerator, which has its rank
    sympy, _ = normalforms
    assert rank_exact(scaled(qmat(rows))[0], len(rows[0])) == sympy.Matrix(rows).rank()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.tuples(_int_rows(6, k, 3), _int_rows(k, 7, 3))
    )
)
def test_rank_of_low_rank_products(normalforms, pair):
    # B @ C has rank at most k: the elimination meets columns without a
    # pivot, and exact division by the previous pivot must survive them.
    sympy, _ = normalforms
    A = imat(pair[0]) @ imat(pair[1])
    assert rank_exact(to_int(A), 7) == sympy.Matrix(A.tolist()).rank() <= len(pair[1])


def _rational_rows(r: int, c: int):
    return st.lists(st.lists(rational_entries, min_size=c, max_size=c), min_size=r, max_size=r)


# (A, X, B, consistent): A is r x c, X is c x k and B is r x k, all rational.
rational_systems = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=3),
).flatmap(
    lambda t: st.tuples(
        _rational_rows(t[0], t[1]),
        _rational_rows(t[1], t[2]),
        _rational_rows(t[0], t[2]),
        st.booleans(),
    )
)


def _solve_scaled(A, B):
    """``solve_exact`` of the rational system A @ X = B, both sides over one
    common denominator, as the dense rational X."""
    c, k = A.shape[1], B.shape[1]
    N, _ = scaled(np.hstack([A, B]))
    X, d = solve_exact(
        [{j: x for j, x in row.items() if j < c} for row in N],
        [{j - c: x for j, x in row.items() if j >= c} for row in N],
        c,
    )
    assert d >= 1 and gcd(d, *(x for row in X for x in row.values())) == 1
    return dense(X, k, d)


@settings(max_examples=100, deadline=None)
@given(rational_systems)
def test_solve_exact_matches_sympy(normalforms, system):
    # Free variables zero; an inconsistent system raises.  With B = A @ X
    # the system is consistent, often with free variables.
    sympy, _ = normalforms
    rows, xrows, brows, consistent = system
    A = qmat(rows)
    B = A @ qmat(xrows) if consistent else qmat(brows)
    ref = _sympy_solve(sympy, A, B)
    if ref is None:
        with pytest.raises(ValueError, match="^inconsistent linear system"):
            _solve_scaled(A, B)
        return
    assert _solve_scaled(A, B).tolist() == ref


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(_rational_rows(n, n), st.booleans())
    )
)
def test_det_matches_sympy(normalforms, pair):
    sympy, _ = normalforms
    rows, dependent = pair
    if dependent and len(rows) > 1:
        rows[-1] = [Fraction(x) * Fraction(-3, 2) for x in rows[0]]
    want = sympy.Matrix(rows).det()
    n = len(rows)
    N, d = scaled(qmat(rows))
    got = det_exact(N, n)
    assert type(got) is int
    assert Fraction(got, d**n) == Fraction(int(want.p), int(want.q))


def test_solve_exact_rejects_row_count_mismatch():
    with pytest.raises(ValueError, match="^B has 3 rows, want 2$"):
        solve_exact([{0: 1}, {1: 1}], [{0: 1}, {}, {0: 5}], 2)
    with pytest.raises(ValueError, match="^B has 1 rows, want 2$"):
        solve_exact([{0: 1}, {1: 1}], [{0: 1}], 2)


# Each public function on a malformed matrix: the message names the rows.
MALFORMED = {
    "float_entry": ([{0: 1.0}], r"^matrix entry 1\.0 at \(0, 0\) is not an integer$"),
    "column_past_the_width": ([{0: 1}, {2: 1}], "^matrix rows have width 3, want 2$"),
    "negative_column": ([{-1: 1}], "^matrix row 0 has column -1, want 0 to 1$"),
    "dense_row": ([[1, 0]], "^matrix row 0 is a list, not a dict row$"),
    "dense_matrix": (np.array([[1, 0]]), "^matrix rows are a ndarray, not a list of dict rows$"),
}
ROW_API = {
    "hnf": lambda rows: hnf(rows, 2),
    "kernel_basis": lambda rows: kernel_basis(rows, 2),
    "snf_with_inverses": lambda rows: snf_with_inverses(rows, 2),
    "invariant_factors": lambda rows: invariant_factors(rows, 2),
    "rank_exact": lambda rows: rank_exact(rows, 2),
    "det_exact": lambda rows: det_exact(rows, 2),
}


@pytest.mark.parametrize("bad", sorted(MALFORMED))
@pytest.mark.parametrize("name", sorted(ROW_API))
def test_the_row_api_rejects_malformed_rows(name, bad):
    rows, message = MALFORMED[bad]
    with pytest.raises(ValueError, match=message):
        ROW_API[name](rows)


def test_solve_exact_and_det_exact_name_their_rows():
    with pytest.raises(ValueError, match=r"^A entry 0\.5 at \(1, 0\) is not an integer$"):
        solve_exact([{0: 1}, {0: 0.5}], [{}, {}], 1)
    with pytest.raises(ValueError, match="^A rows have width 2, want 1$"):
        solve_exact([{1: 1}], [{}], 1)
    with pytest.raises(ValueError, match=r"^B entry Fraction\(1, 2\) at \(0, 4\) is not an integer$"):
        solve_exact([{0: 1}], [{4: Fraction(1, 2)}], 1)
    with pytest.raises(ValueError, match="^B row 0 has column -1, want 0 to inf$"):
        solve_exact([{0: 1}], [{-1: 1}], 1)
    for rows in ([{0: 1}], [{0: 1}, {1: 1}, {}]):
        with pytest.raises(ValueError, match=f"^matrix has {len(rows)} rows, want 2$"):
            det_exact(rows, 2)
    assert det_exact([], 0) == 1 and det_exact([{0: 2, 1: 0}, {0: 1, 1: 3}], 2) == 6


@settings(max_examples=40, deadline=None)
@given(any_matrices)
def test_the_row_api_leaves_the_callers_rows_alone(rows):
    A = to_int(rows)
    r, c = len(A), len(rows[0])
    before = [dict(row) for row in A]
    hnf(A, c)
    kernel_basis(A, c)
    snf_with_inverses(A, c)
    invariant_factors(A, c)
    if rank_exact(A, c) == r:  # consistent for any right-hand side
        solve_exact(A, [{0: 1}] * r, c)
    if r == c:
        det_exact(A, c)
    assert A == before


NO_NUMPY_API = """
sys.meta_path.insert(0, RefuseNumpy())
from fractions import Fraction
from distlab import exact_linalg as el

A = el.to_int([[2, 4, 0], [1, 1, Fraction(3, 1)]])
assert A == [{0: 2, 1: 4}, {0: 1, 1: 1, 2: 3}]
assert el.hnf(A, 3) == [{0: 1, 1: 1, 2: 3}, {1: 2, 2: -6}]
assert el.kernel_basis(A, 3) == [{0: -6, 1: 3, 2: 1}]
d, U, Ui, V, Vi = el.snf_with_inverses(A, 3)
assert d == [1, 2] and el._mul(el._mul(U, A), V) == [{0: 1}, {1: 2}]
assert el.invariant_factors(A, 3) == (1, 2) and el.rank_exact(A, 3) == 2
assert el.det_exact([{0: 2, 1: 1}, {1: 3}], 2) == 6
# x = (3/2, -1/2, 0): 2x + 4y = 1 and x + y + 3z = 1
assert el.solve_exact(A, [{0: 1}, {0: 1}], 3) == ([{0: 3}, {0: -1}, {}], 2)
print('numpy' in sys.modules)
"""


def test_the_row_api_runs_without_numpy():
    proc = _python(REFUSE_NUMPY + NO_NUMPY_API)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.split() == [b"False"]


@settings(max_examples=60, deadline=None)
@given(any_matrices)
def test_kernel_basis_matches_sympy(normalforms, rows):
    sympy, nf = normalforms
    A = imat(rows)
    c = A.shape[1]
    K = kernel_basis(to_int(A), c)
    assert len(K) == c - sympy.Matrix(rows).rank()
    assert mat_equal(A @ dense(K, c).T, zeros(A.shape[0], len(K)))
    if K:
        # Saturated: K spans a direct summand of Z^c.
        facs = nf.invariant_factors(sympy.Matrix(dense(K, c).tolist()), domain=sympy.ZZ)
        assert [abs(int(d)) for d in facs] == [1] * len(K)


def test_sparse_product_matches_dense():
    rng = random.Random(5)
    shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1)]
    shapes += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(60)]
    for r, k, c in shapes:
        A, B = zeros(r, k), zeros(k, c)
        for M in (A, B):
            for idx in np.ndindex(M.shape):
                M[idx] = rng.choice([0, 0, 0, 1, -1, 1, -1, 2, -3])
        P = _mul(to_int(A), to_int(B))
        assert len(P) == r
        assert mat_equal(dense(P, c), A @ B), (A, B)
        assert all(x != 0 for row in P for x in row.values())
    # entries that cancel are dropped, not stored as zeros
    assert _mul(to_int([[1, 1], [2, 1]]), to_int([[1, 2], [-1, -2]])) == [{}, {0: 1, 1: 2}]


def test_lattice_index_integer_sublattice():
    Z2 = _lattice(2, eye(2))
    L = _lattice(2, imat([[3, 0], [0, 1]]))
    assert lattice_index(Z2, L) == 3
    assert lattice_index(L, Z2) == Fraction(1, 3)


def test_lattice_index_is_multiplicative():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(1, 4)
        mats = []
        for _ in range(3):
            while True:
                M = imat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                if det_exact(to_int(M), n) != 0:
                    mats.append(M)
                    break
        A, B, C = (_lattice(n, M) for M in mats)
        assert lattice_index(A, C) == lattice_index(A, B) * lattice_index(B, C)


def test_lattice_index_requires_same_span():
    A = _lattice(2, imat([[1, 0]]))
    B = _lattice(2, imat([[0, 1]]))
    with pytest.raises(ValueError):
        lattice_index(A, B)


def test_lattice_intersect_sum_known():
    A = _lattice(2, imat([[1, 0], [0, 2]]))
    B = _lattice(2, imat([[2, 0], [0, 1]]))
    assert lattice_intersect(A, B) == _lattice(2, imat([[2, 0], [0, 2]]))
    assert lattice_sum(A, B) == _lattice(2, eye(2))


def test_lattice_intersect_rational():
    A = _lattice(1, qmat([[Fraction(1, 2)]]))
    B = _lattice(1, qmat([[Fraction(1, 3)]]))
    assert lattice_intersect(A, B) == _lattice(1, imat([[1]]))
    assert lattice_sum(A, B) == _lattice(1, qmat([[Fraction(1, 6)]]))


def test_index_diamond_identity():
    # (A : A∩B) * (A∩B : B)  ==  (A : A+B) * (A+B : B) routes agree
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(1, 3)
        while True:
            MA = imat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            MB = imat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            if det_exact(to_int(MA), n) != 0 and det_exact(to_int(MB), n) != 0:
                break
        A, B = _lattice(n, MA), _lattice(n, MB)
        inter, total = lattice_intersect(A, B), lattice_sum(A, B)
        assert lattice_index(A, inter) == lattice_index(total, B)
        assert lattice_index(A, B) == lattice_index(A, inter) / lattice_index(B, inter)


@pytest.mark.parametrize("den", [0, -2])
def test_lattice_rejects_a_non_positive_denominator(den):
    # -2 would give Z/-2, whose index against Z read -1/2 and which compared
    # unequal to the same lattice over 2; 0 was kept as a zero denominator
    with pytest.raises(ValueError, match=f"^lattice denominator must be positive, got {den}$"):
        Lattice(1, [{0: 1}], den)
    assert lattice_index(Lattice(1, [{0: 1}]), Lattice(1, [{0: 1}], 2)) == Fraction(1, 2)


def test_integral_preimage():
    # {x : 2x in 6Z} = 3Z
    assert integral_preimage([{0: 2}], [{0: 6}], 1) == [{0: 3}]
    # no generators: the Hermite kernel; and the generator rows are checked
    assert integral_preimage([{0: 2, 1: 2}], [], 2) == [{0: 1, 1: -1}]
    with pytest.raises(ValueError, match="^generator rows have width 2, want 1$"):
        integral_preimage([{0: 2}], [{1: 6}], 1)


def test_image_lattice_and_contains():
    L = _lattice(2, imat([[2, 0], [0, 3]]))
    assert _contains(L, np.array([2, 3], dtype=object))
    assert not _contains(L, np.array([1, 0], dtype=object))


def test_contains_checks_every_row_and_the_width():
    L = _lattice(2, imat([[2, 0], [0, 3]]))
    assert _contains(L, imat([[2, 3], [4, -3], [0, 0]]))
    assert not _contains(L, imat([[2, 3], [1, 0]]))
    assert _contains(L, zeros(0, 2))
    # off the span: the reduction leaves a remainder past the last pivot
    assert not _contains(_lattice(2, imat([[1, 1]])), imat([[1, 0]]))
    assert not _contains(Lattice(2), imat([[0, 1]]))
    Q = _lattice(2, imat([[1, 1], [0, 2]]), 3)
    assert _contains(Q, qmat([[Fraction(1, 3), Fraction(1, 3)], [0, Fraction(-2, 3)]]))
    assert not _contains(Q, qmat([[Fraction(1, 3), 0]]))
    with pytest.raises(ValueError):
        _contains(_lattice(2, eye(2)), np.array([1, 0, 5], dtype=object))
    # rows have no width past their last entry, so the extra column holds one
    with pytest.raises(ValueError):
        _contains(L, imat([[2, 3, 1]]))


def test_lattice_takes_checked_rows():
    # sparse rows give the lattice of their dense matrix; an explicit zero
    # is dropped, not read as a pivot
    L = _lattice(2, imat([[2, 0], [0, 3]]))
    assert Lattice(2, [{0: 2, 1: 0}, {1: 3}]) == L
    assert Lattice(2, [{0: 1, 1: 1}], 3) == _lattice(2, qmat([[Fraction(1, 3), Fraction(1, 3)]]))
    assert L.contains([{0: 2, 1: 3}, {0: 4, 1: 0}, {}]) and not L.contains([{0: 1}])
    # vectors over a denominator, as the generators are
    assert L.contains([{0: 4, 1: 6}], 2) and not L.contains([{0: 2}], 2)
    for bad, message in (
        ([[2, 0]], "^generator row 0 is a list, not a dict row$"),
        ([{2: 1}], "^generator rows have width 3, want 2$"),
        ([{0: Fraction(1, 2)}], r"^generator entry Fraction\(1, 2\) at \(0, 0\) is not an integer$"),
    ):
        with pytest.raises(ValueError, match=message):
            Lattice(2, bad)
    with pytest.raises(ValueError, match="^vector rows have width 3, want 2$"):
        L.contains([{2: 1}])


# Inputs and results of the solves, ranks, determinants and lattice indices
# that ``verify --suite all --m-list 7,8,21`` and ``cohomology --m-list 111``
# make, deduplicated.  Entries are ints or "p/q" strings; a lattice is its
# ambient dimension and basis.
SOLVE_GOLDEN = json.loads((Path(__file__).parent / "data" / "solve_golden.json").read_text())


def _from_golden(m):
    a = zeros(*m["shape"])
    for i, row in enumerate(m["rows"]):
        a[i, :] = [Fraction(x) if isinstance(x, str) else x for x in row]
    return a


def _rank_golden(A):
    got = rank_exact(scaled(A)[0], A.shape[1])
    assert type(got) is int
    return got


def _det_golden(A):
    # det(N / d) = det(N) / d^n
    N, d = scaled(A)
    n = A.shape[1]
    got = det_exact(N, n)
    assert type(got) is int
    return Fraction(got, d**n)


# The rows functions take the recorded dense rational inputs through their
# scaled numerators.  The integral solves recorded under "solve_integral"
# are read through the coordinate route instead (the last test below).
SOLVES = {
    "solve_exact": _solve_scaled,
    "rank_exact": _rank_golden,
    "det_exact": _det_golden,
    "lattice_index": lattice_index,
}


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_solves_are_pinned(name):
    fn = SOLVES[name]
    for rec in SOLVE_GOLDEN[name]:
        if name == "lattice_index":
            args = [_lattice(a["ambient"], _from_golden(a["basis"])) for a in rec["args"]]
        else:
            args = [_from_golden(a) for a in rec["args"]]
        got = fn(*args)
        want = rec["out"]
        if isinstance(want, dict):
            assert list(got.shape) == want["shape"]
            assert got.tolist() == _from_golden(want).tolist()
        else:
            assert got == (Fraction(want) if isinstance(want, str) else want)


def test_subquotient_reads_the_pinned_integral_solves():
    """The integral systems num.T @ X == den.T of the same runs, pinned with
    their integer X: each den row has integer coordinates in the Hermite
    rows of num, and ``subquotient_group`` gives the group that X presents."""
    for rec in SOLVE_GOLDEN["solve_integral"]:
        A, B = (_from_golden(a) for a in rec["args"])
        X = _from_golden(rec["out"])
        n, k = A.shape
        H = _hermite(to_int(A.T), n)
        assert len(H) == k
        for v in to_int(B.T):
            x = _coords(H, v, _pivots(H))
            assert x is not None and _mul([x], H)[0] == v
        assert subquotient_group(to_int(A.T), to_int(B.T), n) == FgAbGroup.from_relations(k, to_int(X.T))
