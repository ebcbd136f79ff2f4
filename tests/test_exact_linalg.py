"""Exact linear algebra: normal forms, kernels, lattices."""

import json
import random
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distlab.abgroup import FgAbGroup, subquotient_group
from distlab.distribution import distribution_relation_rows, negation_matrix
from distlab.exact_linalg import (
    Lattice,
    _comb,
    _coords,
    _dense,
    _hermite,
    _mul,
    _rows,
    _smith,
    det_exact,
    eye,
    hnf,
    hnf_nonzero,
    imat,
    integral_preimage,
    inverse_exact,
    invariant_factors,
    is_integral,
    kernel_basis,
    lattice_index,
    lattice_intersect,
    lattice_sum,
    mat_equal,
    qmat,
    rank_exact,
    scaled,
    snf_with_inverses,
    solve_exact,
    to_int,
    unscaled,
    zeros,
)


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


# (A, X, B): A is r x c with r >= c, X is c x k, B is r x k, all small ints.
solve_systems = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=3),
).flatmap(
    lambda t: st.tuples(
        _int_rows(t[0] + t[1], t[0], 4),
        _int_rows(t[0], t[2]),
        _int_rows(t[0] + t[1], t[2]),
    )
)


@pytest.fixture(scope="module")
def normalforms():
    sympy = pytest.importorskip("sympy")
    return sympy, pytest.importorskip("sympy.matrices.normalforms")


def _lattice(n: int, A, den: int = 1) -> Lattice:
    """The lattice of the rows of the dense matrix A over den."""
    N, e = scaled(A)
    return Lattice(n, _rows(N), den * e)


def _contains(L: Lattice, A) -> bool:
    """Does L contain every row of the dense vector or matrix A?"""
    N, e = scaled(A.reshape(1, -1) if A.ndim == 1 else A)
    return L.contains(_rows(N), e)


def _diagonal(D):
    """The nonzero diagonal of a Smith form D."""
    return tuple(D[i, i] for i in range(min(D.shape)) if D[i, i] != 0)


def test_snf_known_example():
    U, _, D, V, _ = snf_with_inverses(imat([[2, 4], [1, 1]]))
    assert [D[0, 0], D[1, 1]] == [1, 2]
    assert mat_equal(U @ imat([[2, 4], [1, 1]]) @ V, D)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_snf_properties(rows):
    A = imat(rows)
    U, _, D, V, _ = snf_with_inverses(A)
    assert mat_equal(U @ A @ V, D)
    assert abs(det_exact(U)) == 1 and abs(det_exact(V)) == 1
    facs = _diagonal(D)
    for a, b in zip(facs, facs[1:]):
        assert b % a == 0
    # off-diagonal zero
    for (i, j), x in np.ndenumerate(D):
        if i != j:
            assert x == 0
    if A.shape[0] == A.shape[1]:
        assert (prod(facs) if len(facs) == A.shape[0] else 0) == abs(det_exact(A))


@settings(max_examples=60, deadline=None)
@given(any_matrices)
def test_snf_inverses_track(rows):
    A = imat(rows)
    U, Uinv, D, V, Vinv = snf_with_inverses(A)
    assert mat_equal(U @ Uinv, eye(A.shape[0]))
    assert mat_equal(Vinv @ V, eye(A.shape[1]))
    assert mat_equal(U @ A @ V, D)
    assert _diagonal(D) == invariant_factors(A)


@settings(max_examples=60, deadline=None)
@given(any_matrices)
def test_snf_without_column_transforms(rows):
    A = imat(rows)
    d, U, Ui, V, Vi = _smith(_rows(A), A.shape[1], u=True, u_inv=True, v=True, v_inv=True)
    d2, U2, Ui2, V2, Vi2 = _smith(_rows(A), A.shape[1], u=True, u_inv=True)
    assert V2 is None and Vi2 is None
    assert U2 == U and Ui2 == Ui and d2 == d


# Recorded U, D and V for two involution matrices, a relation matrix, and
# a matrix (stored as "A") whose Smith form needs the divisibility-chain
# fix-up.  Callers keep coordinates from these transforms, so a changed
# pivot or operation order shows here even when the normal form is right.
SNF_GOLDEN = json.loads((Path(__file__).parent / "data" / "snf_golden.json").read_text())
GOLDEN_INPUTS = {
    "eye_plus_negation_15": lambda: eye(15) + _dense(negation_matrix(15), 15),
    "eye_minus_negation_15": lambda: eye(15) - _dense(negation_matrix(15), 15),
    "distribution_relation_rows_12": lambda: _dense(distribution_relation_rows(12), 12),
}


@pytest.mark.parametrize("name", sorted(SNF_GOLDEN))
def test_snf_transforms_are_pinned(name):
    want = SNF_GOLDEN[name]
    A = imat(want["A"]) if "A" in want else GOLDEN_INPUTS[name]()
    assert list(A.shape) == want["shape"]
    U, _, D, V, _ = snf_with_inverses(A)
    assert U.tolist() == want["U"]
    assert [D[i, i] for i in range(min(A.shape))] == want["D"]
    assert V.tolist() == want["V"]


def test_hnf_examples():
    assert mat_equal(hnf(imat([[2, 4], [1, 1]])), imat([[1, 1], [0, 2]]))
    assert mat_equal(hnf(imat([[0, 3]])), imat([[0, 3]]))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_hnf_canonical_for_row_span(rows):
    A = imat(rows)
    H = hnf_nonzero(A)
    # Row span is preserved: each is expressible in the other over Z.
    rng = random.Random(7)
    P = eye(A.shape[0])
    for _ in range(6):
        i, j = rng.randrange(A.shape[0]), rng.randrange(A.shape[0])
        if i != j:
            P[i, :] += rng.randint(-2, 2) * P[j, :]
    assert mat_equal(hnf_nonzero(P @ A), H)
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
        assert det_exact(A) == _det_cofactor(A)


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
    A = qmat([[Fraction(1, 2), 1], [0, Fraction(2, 3)]])
    assert det_exact(A) == Fraction(1, 3)


def test_kernel_is_saturated():
    # multiples-of-2 trap: kernel of [[2, -2]] must contain (1,1), not just (2,2)
    K = kernel_basis(imat([[2, -2]]))
    assert K.shape == (1, 2)
    assert abs(K[0, 0]) == 1 and K[0, 0] == K[0, 1]


def test_kernel_swap_involution():
    # 1 + c for the coordinate swap on Z^2
    K = kernel_basis(imat([[1, 1], [1, 1]]))
    assert K.shape == (1, 2)
    assert sorted([K[0, 0], K[0, 1]]) == [-1, 1]


@settings(max_examples=50, deadline=None)
@given(small_matrices)
def test_kernel_properties(rows):
    A = imat(rows)
    K = kernel_basis(A)
    assert K.shape[0] == A.shape[1] - rank_exact(A)
    if K.shape[0]:
        assert mat_equal(A @ K.T, zeros(A.shape[0], K.shape[0]))
        # saturation: invariant factors of the basis matrix are all 1
        assert set(invariant_factors(K)) <= {1}


def test_solve_and_inverse():
    A = imat([[2, 1], [1, 1]])
    X = solve_exact(A, imat([[1], [0]]))
    assert X[0, 0] == 1 and X[1, 0] == -1
    assert mat_equal(A @ inverse_exact(A), eye(2))
    with pytest.raises(ValueError):
        solve_exact(imat([[1, 1], [1, 1]]), imat([[1], [0]]))


def _pivots(H):
    """The pivot column of each Hermite row, mapped to its index."""
    return {min(h): i for i, h in enumerate(H)}


def test_coords_examples():
    H = _hermite(_rows(imat([[2, 1], [0, 3], [0, 0]])), 2)  # rows (2, 1), (0, 3)
    piv = _pivots(H)
    assert _coords(H, {0: 4, 1: 5}, piv) == {0: 2, 1: 1}
    assert _coords(H, {1: -3}, piv) == {1: -1}
    assert _coords(H, {0: 1}, piv) is None  # half the first row: not integral
    assert _coords(H, {}, piv) == {}
    v = {0: 2, 1: 1}
    assert _coords(H, v, piv) == {0: 1} and v == {0: 2, 1: 1}  # v is not changed
    line = _hermite(_rows(imat([[1, 1]])), 2)
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
    A = imat(rows)
    c = A.shape[1]
    H = _hermite(_rows(A), c)
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
        X = solve_exact(_dense(H, c).T, imat([w]).T)
    except ValueError:  # off the rational span
        assert got is None
        return
    if is_integral(X):
        assert got == {i: int(X[i, 0]) for i in range(k) if X[i, 0]}
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
    A = _dense(rows, c)
    if H and rank_exact(A) == len(rows):
        assert is_integral(solve_exact(A.T, _dense(H, c).T))
    for h in H:
        assert invariant_factors(_dense(rows + [h], c)) == invariant_factors(A)
    shuffled = rnd.sample(rows, len(rows))
    assert _hermite([dict(r) for r in shuffled], c) == H


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
    assert mat_equal(got, A) and got is not A
    Q = qmat(rows)
    assert mat_equal(to_int(Q), A)
    Q[rnd.randrange(Q.shape[0]), rnd.randrange(Q.shape[1])] = frac
    with pytest.raises(ValueError):
        to_int(Q)


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


@settings(max_examples=100, deadline=None)
@given(rational_matrices)
def test_scaled_is_least_integer_numerator(rows):
    A = np.array(rows, dtype=object)
    N, d = scaled(A)
    assert d == lcm(*[Fraction(x).denominator for x in A.flat])
    assert N.shape == A.shape
    assert all(type(x) is int for x in N.flat)
    assert all(n == d * x for n, x in zip(N.flat, A.flat))
    back = unscaled(N, d)
    assert mat_equal(back, A)
    assert all(type(x) is Fraction for x in back.flat)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_scaled_int_input_is_a_copy_with_denominator_one(rows):
    A = imat(rows)
    N, d = scaled(A)
    assert d == 1 and N is not A and mat_equal(N, A)
    assert all(type(x) is int for x in N.flat)
    # integral Fractions scale to the same ints
    N2, d2 = scaled(qmat(rows))
    assert d2 == 1 and mat_equal(N2, A) and all(type(x) is int for x in N2.flat)


def test_numpy_integer_input_is_exact():
    # int64 entries must become Python ints before any elimination: Bareiss
    # on int64 overflows, and a numpy integer is never a plain int row entry.
    big = 2**40
    A = np.array([[big, 1], [1, big]])
    O = imat(A.tolist())
    assert det_exact(A) == big * big - 1
    assert mat_equal(to_int(A), O) and all(type(x) is int for x in to_int(A).flat)
    assert mat_equal(hnf(A), hnf(O))
    assert mat_equal(kernel_basis(np.array([[2, 4]])), kernel_basis(imat([[2, 4]])))
    assert _lattice(2, A) == _lattice(2, O)
    N, d = scaled(A)
    assert d == 1 and all(type(x) is int for x in N.flat)


def test_scaled_empty():
    N, d = scaled(zeros(0, 3))
    assert N.shape == (0, 3) and d == 1


@settings(max_examples=60, deadline=None)
@given(rational_matrices, st.integers(min_value=1, max_value=12))
def test_lattice_from_scaled_generators(rows, den):
    A = np.array(rows, dtype=object)
    N, d = scaled(A)
    n = A.shape[1]
    assert Lattice(n, _rows(N), d) == _lattice(n, A)
    assert _lattice(n, A, den) == _lattice(n, unscaled(N, d * den))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(rational_entries, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(rational_entries, min_size=n, max_size=n), min_size=n, max_size=n),
    )
))
def test_lattice_intersect_rational_full_rank(pair):
    MA, MB = (np.array(rows, dtype=object) for rows in pair)
    assume(det_exact(MA) != 0 and det_exact(MB) != 0)
    n = MA.shape[1]
    A, B = _lattice(n, MA), _lattice(n, MB)
    inter = lattice_intersect(A, B)
    assert inter.rank == n
    assert all(_contains(A, row) and _contains(B, row) for row in _dense(inter.basis, n))
    assert lattice_index(A, B) == lattice_index(A, inter) / lattice_index(B, inter)
    # the intersection is the largest common sublattice: (A+B : A) = (B : A∩B)
    assert lattice_index(lattice_sum(A, B), A) == lattice_index(B, inter)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_kernel_basis_int_and_fraction_input_agree(rows):
    assert mat_equal(kernel_basis(imat(rows)), kernel_basis(qmat(rows)))


@settings(max_examples=30, deadline=None)
@given(small_matrices)
def test_normal_forms_take_integral_fractions(rows):
    A, Q = imat(rows), qmat(rows)
    assert mat_equal(hnf(Q), hnf(A))
    assert invariant_factors(Q) == invariant_factors(A)
    Q[0, 0] = Fraction(1, 2)
    with pytest.raises(ValueError):
        hnf(Q)
    with pytest.raises(ValueError):
        invariant_factors(Q)


@settings(max_examples=100, deadline=None)
@given(any_matrices)
def test_snf_matches_sympy(normalforms, rows):
    sympy, nf = normalforms
    facs = nf.invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
    want = tuple(abs(int(d)) for d in facs if d != 0)
    assert _diagonal(snf_with_inverses(imat(rows))[2]) == want
    assert invariant_factors(imat(rows)) == want


def _check_hermite_row_core(A):
    """The row core on A's sparse rows gives the nonzero rows of the dense HNF."""
    r, c = A.shape
    H = _hermite(_rows(A), c)
    assert all(H)  # nonzero rows only
    assert _dense(H, c).tolist() == hnf_nonzero(A).tolist()
    assert _dense(H + [{}] * (r - len(H)), c).tolist() == hnf(A).tolist()


@settings(max_examples=100, deadline=None)
@given(any_matrices)
def test_hnf_matches_sympy(normalforms, rows):
    # sympy's HNF is column style with pivots at the bottom of each column;
    # reversing rows and columns turns it into the row style used here.
    sympy, nf = normalforms
    A = imat(rows)
    _check_hermite_row_core(A)
    H = hnf_nonzero(A)
    assume(H.shape[0] > 0)
    W = nf.hermite_normal_form(sympy.Matrix(rows).T[::-1, :])[::-1, ::-1]
    assert W.T.tolist() == H.tolist()


@pytest.mark.parametrize("name", sorted(SNF_GOLDEN))
def test_hermite_row_core_on_golden_matrices(normalforms, name):
    sympy, nf = normalforms
    want = SNF_GOLDEN[name]
    A = imat(want["A"]) if "A" in want else GOLDEN_INPUTS[name]()
    _check_hermite_row_core(A)
    W = nf.hermite_normal_form(sympy.Matrix(A.tolist()).T[::-1, :])[::-1, ::-1]
    assert W.T.tolist() == hnf_nonzero(A).tolist()


@settings(max_examples=100, deadline=None)
@given(st.one_of(any_matrices, rational_matrices))
def test_rank_matches_sympy(normalforms, rows):
    sympy, _ = normalforms
    assert rank_exact(qmat(rows)) == sympy.Matrix(rows).rank()


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
    assert rank_exact(A) == sympy.Matrix(A.tolist()).rank() <= len(pair[1])


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


@settings(max_examples=100, deadline=None)
@given(rational_systems)
def test_solve_exact_matches_sympy(normalforms, system):
    # Free variables zero; an inconsistent system raises.  With B = A @ X
    # the system is consistent, often with free variables.
    sympy, _ = normalforms
    rows, xrows, brows, consistent = system
    A = np.array(rows, dtype=object)
    B = A @ np.array(xrows, dtype=object) if consistent else np.array(brows, dtype=object)
    ref = _sympy_solve(sympy, A, B)
    if ref is None:
        with pytest.raises(ValueError):
            solve_exact(A, B)
        return
    got = solve_exact(A, B)
    assert got.tolist() == ref
    assert all(type(x) is Fraction for x in got.flat)


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
    got = det_exact(np.array(rows, dtype=object))
    assert type(got) is Fraction
    assert got == Fraction(int(want.p), int(want.q))


def test_solve_exact_rejects_row_count_mismatch():
    with pytest.raises(ValueError):
        solve_exact(eye(2), imat([[1], [0], [5]]))
    with pytest.raises(ValueError):
        solve_exact(eye(2), np.array([1, 0, 5], dtype=object))


@settings(max_examples=60, deadline=None)
@given(any_matrices)
def test_kernel_basis_matches_sympy(normalforms, rows):
    sympy, nf = normalforms
    A = imat(rows)
    K = kernel_basis(A)
    assert K.shape == (A.shape[1] - sympy.Matrix(rows).rank(), A.shape[1])
    assert mat_equal(A @ K.T, zeros(A.shape[0], K.shape[0]))
    if K.shape[0]:
        # Saturated: K spans a direct summand of Z^c.
        facs = nf.invariant_factors(sympy.Matrix(K.tolist()), domain=sympy.ZZ)
        assert [abs(int(d)) for d in facs] == [1] * K.shape[0]


def test_sparse_product_matches_dense():
    rng = random.Random(5)
    shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1)]
    shapes += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(60)]
    for r, k, c in shapes:
        A, B = zeros(r, k), zeros(k, c)
        for M in (A, B):
            for idx in np.ndindex(M.shape):
                M[idx] = rng.choice([0, 0, 0, 1, -1, 1, -1, 2, -3])
        P = _mul(_rows(A), _rows(B))
        assert len(P) == r
        assert mat_equal(_dense(P, c), A @ B), (A, B)
        assert all(x != 0 for row in P for x in row.values())
    # entries that cancel are dropped, not stored as zeros
    assert _mul(_rows(imat([[1, 1], [2, 1]])), _rows(imat([[1, 2], [-1, -2]]))) == [{}, {0: 1, 1: 2}]


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
                if det_exact(M) != 0:
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
            if det_exact(MA) != 0 and det_exact(MB) != 0:
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
    rows = integral_preimage([{0: 2}], [{0: 6}], 1)
    assert mat_equal(_dense(rows, 1), imat([[3]]))
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
# The function and the type of every entry of its result.  The integral
# solves recorded under "solve_integral" are read through the coordinate
# route instead (the last test below).
SOLVES = {
    "solve_exact": (solve_exact, Fraction),
    "rank_exact": (rank_exact, int),
    "det_exact": (det_exact, Fraction),
    "lattice_index": (lattice_index, Fraction),
}


def _from_golden(m):
    a = zeros(*m["shape"])
    for i, row in enumerate(m["rows"]):
        a[i, :] = [Fraction(x) if isinstance(x, str) else x for x in row]
    return a


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_solves_are_pinned(name):
    fn, kind = SOLVES[name]
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
            assert all(type(x) is kind for x in got.flat)
        else:
            assert type(got) is kind
            assert got == (Fraction(want) if isinstance(want, str) else want)


def test_subquotient_reads_the_pinned_integral_solves():
    """The integral systems num.T @ X == den.T of the same runs, pinned with
    their integer X: each den row has integer coordinates in the Hermite
    rows of num, and ``subquotient_group`` gives the group that X presents."""
    for rec in SOLVE_GOLDEN["solve_integral"]:
        A, B = (_from_golden(a) for a in rec["args"])
        X = _from_golden(rec["out"])
        n, k = A.shape
        H = _hermite(_rows(A.T), n)
        assert len(H) == k
        for v in _rows(B.T):
            x = _coords(H, v, _pivots(H))
            assert x is not None and _mul([x], H)[0] == v
        assert subquotient_group(_rows(A.T), _rows(B.T), n) == FgAbGroup.from_relations(k, _rows(X.T))
