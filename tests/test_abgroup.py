"""Groups in canonical form, Tate cohomology, regulators, index invariant."""

import copy
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense import dense, eye, imat, mat_equal, qmat, scaled, zeros
from distlab.abgroup import (
    BoundedComplex,
    FgAbGroup,
    JComplex,
    ZQuotient,
    _abs_det,
    _f2_gain,
    _f3_gain,
    _random_unimodular,
    abstract_index_check,
    commutes,
    elementary_power,
    euler_regulator_check,
    i_invariant,
    intertwines,
    random_regulator_pair,
    regulator,
    regulator_via_subgroups,
    subquotient_group,
    tate_group,
    tate_pair,
    theta_fixed,
)
from distlab.arith import factorize
from distlab.exact_linalg import (
    Lattice,
    _mul,
    _transpose,
    det_exact,
    hnf,
    integral_preimage,
    invariant_factors,
    kernel_basis,
    rank_exact,
    snf_with_inverses,
    solve_exact,
    to_int,
)


@pytest.mark.parametrize(
    "ngens, relations, message",
    [
        (2, to_int(eye(3)), "^relation rows have width 3, want 2$"),
        # a dense matrix is refused whole, so an empty one cannot hide its width
        (3, [[2, 0]], "^relation row 0 is a list, not a dict row$"),
        (3, zeros(0, 2), "^relation rows are a ndarray, not a list of dict rows$"),
        (3, [2, 0, 0], "^relation row 0 is a int, not a dict row$"),
    ],
    ids=["too_wide", "too_narrow", "empty_too_narrow", "one_row_unnested"],
)
def test_from_relations_rejects_malformed_relations(ngens, relations, message):
    with pytest.raises(ValueError, match=message):
        FgAbGroup.from_relations(ngens, relations)


def test_free_rank_is_non_negative():
    with pytest.raises(ValueError, match="^free rank must be non-negative, got -1$"):
        FgAbGroup(-1)
    # a float once built a group printed as Z^1.5
    for free, torsion in ((1.5, ()), (0, (2.0,)), (True, ()), (0, (2, Fraction(4)))):
        bad = re.escape(repr(free if type(free) is not int else torsion[-1]))
        with pytest.raises(ValueError, match=f"^free rank and torsion must be ints, got {bad}$"):
            FgAbGroup(free, torsion)
    assert FgAbGroup(0).order() == FgAbGroup(0).torsion_order() == 1
    assert FgAbGroup(0, (2, 4)).order() == 8 and FgAbGroup(1, (2,)).order() is None
    assert FgAbGroup.from_relations(2, []) == FgAbGroup(2)
    assert FgAbGroup.from_relations(2, [{0: 0, 1: 0}]) == FgAbGroup(2)
    assert FgAbGroup.from_invariants(3, []) == FgAbGroup(3)
    assert FgAbGroup.from_invariants(0, []) == FgAbGroup(0)


def test_canonical_form_basics():
    G = FgAbGroup.from_relations(3, to_int(imat([[2, 0, 0], [0, 3, 0]])))
    assert G == FgAbGroup(1, (6,))
    assert str(G) == "Z + Z/6"
    assert FgAbGroup.from_invariants(0, [2, 2, 3]).torsion == (2, 6)
    assert FgAbGroup(0, ()).is_trivial
    assert elementary_power(2, 3) == FgAbGroup(0, (2, 2, 2))


def _chain_by_prime_powers(free_rank, factors):
    """(free rank, invariant factors) of a multiset of cyclic orders, by hand:
    the k-th invariant factor from the top multiplies the k-th largest
    power of every prime."""
    by_prime = {}
    for d in factors:
        if d == 0:
            free_rank += 1
            continue
        for p, e in factorize(d):
            by_prime.setdefault(p, []).append(e)
    depth = max((len(v) for v in by_prime.values()), default=0)
    chain = []
    for k in range(depth):
        d = 1
        for p, exps in by_prime.items():
            exps_sorted = sorted(exps, reverse=True)
            if k < len(exps_sorted):
                d *= p ** exps_sorted[k]
        chain.append(d)
    return free_rank, tuple(d for d in reversed(chain) if d > 1)


ORDERS = [0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 27, 30, 36, 60, 64, 97]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), st.lists(st.sampled_from(ORDERS), max_size=6))
def test_from_invariants_matches_the_prime_power_rule(free_rank, factors):
    G = FgAbGroup.from_invariants(free_rank, factors)
    assert (G.free_rank, G.torsion) == _chain_by_prime_powers(free_rank, factors)


def test_from_invariants_rejects_a_negative_order():
    with pytest.raises(ValueError, match="non-negative"):
        FgAbGroup.from_invariants(0, [2, -3])


def test_direct_sum_renormalizes():
    A = FgAbGroup(1, (2,))
    B = FgAbGroup(0, (3,))
    assert A.direct_sum(B) == FgAbGroup(1, (6,))


def test_zquotient_coordinates():
    # Z^2 / <(2, 0)> = Z/2 + Z
    q = ZQuotient(2, [{0: 2}])
    assert q.group == FgAbGroup(1, (2,))
    P, S = dense(q.P, 2), dense(q.S, 1)
    assert (P @ S)[0, 0] == 1
    assert q.stabilizes(to_int(imat([[1, 0], [0, 1]])))
    assert not q.stabilizes(to_int(imat([[0, 1], [1, 0]])))


def test_stabilizes_with_dependent_relations():
    # Rows (2) and (3) generate all of Z; (1) is the combination 2*(-1) + 3*(1),
    # but the particular rational solution with a free variable set to 0 is 1/2.
    assert ZQuotient(1, [{0: 2}, {0: 3}]).stabilizes(to_int(imat([[1]])))
    assert ZQuotient(2, [{0: 2}, {0: 3}]).stabilizes(to_int(eye(2)))
    assert not ZQuotient(2, [{0: 2}, {0: 3}]).stabilizes(to_int(imat([[0, 1], [1, 0]])))


def test_zquotient_maps_must_be_square_of_its_rank():
    q = ZQuotient(2, [{0: 2}])
    for C in (eye(3), eye(1), imat([[1, 0]])):
        with pytest.raises(ValueError, match=r"^map has \d rows, want 2$"):
            q.stabilizes(to_int(C))
        with pytest.raises(ValueError, match=r"^map has \d rows, want 2$"):
            q.induced_on_free(to_int(C))
    with pytest.raises(ValueError, match=r"^map has 3 rows, want 2$"):
        ZQuotient(2, []).stabilizes(to_int(eye(3)))
    # the rows are checked: too wide, or holding a non-int entry
    with pytest.raises(ValueError, match="^map rows have width 3, want 2$"):
        q.stabilizes([{0: 1}, {2: 1}])
    with pytest.raises(ValueError, match=r"^map entry 1.0 at \(1, 1\) is not an integer$"):
        q.induced_on_free([{0: 1}, {1: 1.0}])
    # an explicit zero is dropped, not a pivot
    assert q.stabilizes([{0: 1, 1: 0}, {1: 1}])
    # an inconsistent system is an answer, not an error
    assert not q.stabilizes(to_int(imat([[0, 1], [1, 0]])))


def test_subquotient_group():
    num = to_int(imat([[1, 0], [0, 1]]))
    den = to_int(imat([[2, 0]]))
    assert subquotient_group(num, den, 2) == FgAbGroup(1, (2,))
    assert subquotient_group(to_int(imat([[1, 0], [0, 1]])), [], 2) == FgAbGroup(2, ())
    with pytest.raises(ValueError, match="denominator row 0 is not in the numerator lattice"):
        subquotient_group([{0: 2}], [{0: 1}], 2)


@pytest.mark.parametrize(
    "num, den, n, want",
    [
        ([{0: 2.0}], [{0: 4}], 1, r"^numerator entry 2.0 at \(0, 0\) is not an integer$"),
        ([{0: 1}, {1: 1}], [{0: 2, 1: 0}], 2, FgAbGroup(1, (2,))),
        ([{0: 1}, {2: 1}], [], 2, "^numerator rows have width 3, want 2$"),
        ([{0: 1}, {1: 1}], [{0: 2}, {2: 1}], 2, "^denominator rows have width 3, want 2$"),
    ],
    ids=["float_numerator", "zero_in_denominator", "numerator_past_n", "denominator_past_n"],
)
def test_subquotient_checks_its_rows(num, den, n, want):
    # these gave Z/2.0, a ZeroDivisionError, "dependent" and "not integral"
    if isinstance(want, FgAbGroup):
        assert subquotient_group(num, den, n) == want
        return
    with pytest.raises(ValueError, match=want):
        subquotient_group(num, den, n)


def test_subquotient_names_its_witness():
    with pytest.raises(ValueError, match=r"^numerator rows are dependent: rank 1 of 2 rows$"):
        subquotient_group(to_int(imat([[1, 2], [2, 4]])), [], 2)
    with pytest.raises(
        ValueError,
        match=r"^denominator row 1 is not in the numerator lattice: inside its rational span, not integral$",
    ):
        subquotient_group(to_int(imat([[2, 0], [0, 1]])), to_int(imat([[4, 1], [1, 0]])), 2)
    with pytest.raises(
        ValueError, match=r"^denominator row 2 is not in the numerator lattice: outside its rational span$"
    ):
        subquotient_group([{0: 1, 1: 1}], to_int(imat([[2, 2], [0, 0], [0, 1]])), 2)


# Non-Hermite rows with no zero entry, so that each builder hands the
# caller's own dicts to its checks; swap and flip are involutions of Z^2.
ROWS = [{0: 2, 1: 4}, {0: 3, 1: 5}]
SWAP = [{1: 1}, {0: 1}]
FLIP = [{0: 1}, {0: 2, 1: -1}]
ROW_BUILDERS = {
    "hnf": (hnf, (ROWS, 2)),
    "kernel_basis": (kernel_basis, ([{0: 2, 1: 4, 2: 1}, {0: 3, 1: 5}], 3)),
    "snf_with_inverses": (snf_with_inverses, (ROWS, 2)),
    "invariant_factors": (invariant_factors, (ROWS, 2)),
    "det_exact": (det_exact, (ROWS, 2)),
    "rank_exact": (rank_exact, (ROWS, 2)),
    "solve_exact": (solve_exact, (ROWS, [{0: 1}, {0: 1, 1: 2}], 2)),
    "integral_preimage": (integral_preimage, (ROWS, [{0: 2, 1: 2}], 2)),
    "Lattice": (Lattice, (2, ROWS)),
    "Lattice.contains": (Lattice(2, [{0: 1}, {1: 1}]).contains, (ROWS,)),
    "ZQuotient": (ZQuotient, (2, ROWS)),
    "FgAbGroup.from_relations": (FgAbGroup.from_relations, (2, ROWS)),
    "subquotient_group": (subquotient_group, (ROWS, [{0: 2, 1: 4}], 2)),
    "tate_group": (tate_group, (SWAP, [{0: 2, 1: 2}, {0: 3, 1: 3}], "odd")),
    "tate_pair": (tate_pair, (SWAP, [{0: -1, 1: -1}])),
    "theta_fixed": (theta_fixed, (FLIP,)),
}


@pytest.mark.parametrize("name", ROW_BUILDERS)
def test_every_row_builder_leaves_its_input_rows_alone(name):
    # subquotient_group once reduced its numerator rows in place:
    # ROWS came back as [{1: 2}, {0: 1, 1: 1}]
    fn, args = ROW_BUILDERS[name]
    args = copy.deepcopy(args)
    before = copy.deepcopy(args)
    fn(*args)
    assert args == before


@pytest.mark.parametrize(
    "gain, basis, rows, bit",
    [
        (_f2_gain, {1: 0b10}, [0b1], 0),  # stored under a bit it lacks
        (_f2_gain, {0b10: 0b11}, [0b10], 1),  # with a bit below its own
        (_f3_gain, {1: (0b10, 0)}, [(0b1, 0)], 0),
        (_f3_gain, {1: (0b1, 0b1)}, [(0b1, 0)], 0),  # entry 1 and 2 at one column
    ],
    ids=["f2_missing_bit", "f2_lower_bit", "f3_missing_bit", "f3_both_planes"],
)
def test_f2_and_f3_gain_refuse_a_corrupted_basis(gain, basis, rows, bit):
    # such a basis once kept the reduction looping forever
    p = 2 if gain is _f2_gain else 3
    with pytest.raises(ArithmeticError, match=f"^F_{p} basis row at bit {bit} does not clear it$"):
        gain(basis, rows)


def _drawn_matrix(data, r, c):
    """An r x c matrix of small ints, any of r and c zero."""
    A = zeros(r, c)
    for i in range(r):
        A[i, :] = data.draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=c, max_size=c))
    return A


def _coordinates(num, w):
    """The coordinates of the rows of w in the rows of num, solved over Q:
    (X, d) with num.T X == d w.T."""
    return solve_exact(to_int(num.T), to_int(w.T), num.shape[0])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subquotient_against_rational_solve(data):
    """``subquotient_group`` against the presentation by the den rows'
    coordinates in the num rows, solved over Q: equal groups for integral
    combinations of num, and a raise exactly when a drawn row's
    coordinates are missing or not integral."""
    n = data.draw(st.integers(min_value=1, max_value=5))
    k = data.draw(st.integers(min_value=0, max_value=n))
    num = _drawn_matrix(data, k, n)
    assume(rank_exact(to_int(num), n) == k)
    den = _drawn_matrix(data, data.draw(st.integers(min_value=0, max_value=4)), k) @ num
    X, d = _coordinates(num, den)
    assert d == 1
    want = FgAbGroup.from_relations(k, _transpose(X, den.shape[0]))
    assert subquotient_group(to_int(num), to_int(den), n) == want
    w = _drawn_matrix(data, 1, n)
    try:
        X, d = _coordinates(num, w)
        ok = d == 1
    except ValueError:  # off the rational span
        ok = False
    if ok:
        assert subquotient_group(to_int(num), to_int(w), n) == FgAbGroup.from_relations(k, _transpose(X, 1))
    else:
        with pytest.raises(ValueError, match="denominator row 0 is not in the numerator lattice"):
            subquotient_group(to_int(num), to_int(w), n)


def test_tate_of_swap_action():
    # c swaps the two coordinates of Z^2: free J-module, both groups vanish
    C = to_int(imat([[0, 1], [1, 0]]))
    assert tate_group(C, [], "odd").is_trivial
    assert tate_group(C, [], "even").is_trivial


def test_tate_of_trivial_action():
    C = to_int(eye(1))
    assert tate_group(C, [], "odd").is_trivial  # ker(2)/im(0)
    assert tate_group(C, [], "even") == FgAbGroup(0, (2,))  # Z/2Z


def test_tate_of_sign_action():
    C = [{0: -1}]
    assert tate_group(C, [], "odd") == FgAbGroup(0, (2,))
    assert tate_group(C, [], "even").is_trivial


# The three indecomposable Z[C2]-lattices: trivial, sign, and the group ring.
TRIVIAL, SIGN, REGULAR = imat([[1]]), imat([[-1]]), imat([[0, 1], [1, 0]])


def _block_diag(blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = zeros(n, n)
    off = 0
    for b in blocks:
        k = b.shape[0]
        out[off : off + k, off : off + k] = b
        off += k
    return out


def _reiner(a: int, b: int, r: int) -> np.ndarray:
    return _block_diag([TRIVIAL] * a + [SIGN] * b + [REGULAR] * r)


@pytest.mark.parametrize(
    "a, b, r", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (3, 0, 2), (0, 2, 3), (2, 3, 1)]
)
def test_tate_pair_on_direct_sums_of_indecomposables(a, b, r):
    # Z^a + Z_-^b + Z[C2]^r has even group (Z/2)^a and odd group (Z/2)^b.
    C = to_int(_reiner(a, b, r))
    want = (elementary_power(2, a), elementary_power(2, b))
    assert tate_pair(C, []) == want
    assert (tate_group(C, [], "even"), tate_group(C, [], "odd")) == want


@pytest.mark.parametrize("seed", range(6))
def test_tate_pair_on_disguised_quotients(seed):
    # M = (Z^a + Z_-^b + Z[C2]^r) + K modulo K, for K another such lattice,
    # written in a random basis g: C' = g C g^-1 and the relation columns
    # g e_j for the coordinates j of K.  M is free of every torsion.
    rng = random.Random(seed)
    a, b, r = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
    ka, kb, kr = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 2)
    C = _block_diag([_reiner(a, b, r), _reiner(ka, kb, kr)])
    n = C.shape[0]
    first = n - (ka + kb + 2 * kr)
    g, g_inv = (dense(rows, n) for rows in _random_unimodular(n, rng))
    assert mat_equal(g @ g_inv, eye(n))
    Cg = to_int(g @ C @ g_inv)
    rel = hnf(to_int(g[:, first:].T), n)
    want = (elementary_power(2, a), elementary_power(2, b))
    assert tate_pair(Cg, rel) == want
    assert (tate_group(Cg, rel, "even"), tate_group(Cg, rel, "odd")) == want


def _rank_mod3(rows: list[list[int]], n: int) -> int:
    """Rank over F_3 of integer rows of length n, by plain Gaussian elimination on lists."""
    M = [[x % 3 for x in row] for row in rows]
    rank = 0
    for col in range(n):
        i = next((i for i in range(rank, len(M)) if M[i][col]), None)
        if i is None:
            continue
        M[rank], M[i] = M[i], M[rank]
        top = [x * M[rank][col] % 3 for x in M[rank]]  # 1 and 2 are their own inverses
        for i in range(len(M)):
            if i != rank and M[i][col]:
                M[i] = [(x - M[i][col] * y) % 3 for x, y in zip(M[i], top)]
        M[rank] = top
        rank += 1
    return rank


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_f3_gain_against_plain_elimination(data):
    """The bit-plane F_3 echelon of ``_f3_gain`` gains exactly the rank of
    a plain mod-3 elimination, in two batches as ``_tate_pair`` feeds it,
    and a copy of the basis extends without touching the original."""
    n = data.draw(st.integers(1, 12))
    entries = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 4, -5]), min_size=n, max_size=n)
    rows = data.draw(st.lists(entries, max_size=10))
    k = data.draw(st.integers(0, len(rows)))
    planes = [
        tuple(sum(1 << j for j, x in enumerate(row) if x % 3 == y) for y in (1, 2)) for row in rows
    ]
    basis: dict[int, tuple[int, int]] = {}
    assert _f3_gain(basis, planes[:k]) == _rank_mod3(rows[:k], n)
    for low, (u, w) in basis.items():
        assert low == (u | w) & -(u | w) and u & low and not u & w
    before = dict(basis)
    assert _f3_gain(dict(basis), planes[k:]) == _rank_mod3(rows, n) - _rank_mod3(rows[:k], n)
    assert basis == before


@pytest.mark.parametrize("p", [2, 3])
def test_tate_pair_rejects_two_and_three_torsion(p):
    # Z/p, and Z[C2] + Z/p with the sign action on the torsion
    for C, rel in (
        (TRIVIAL, imat([[p]])),
        (_block_diag([REGULAR, SIGN]), imat([[0, 0, p]])),
    ):
        with pytest.raises(ValueError, match=f"has {p}-torsion"):
            tate_pair(to_int(C), to_int(rel))


def test_tate_pair_allows_torsion_prime_to_six():
    # Z + Z/5, Z_- + Z/5 and Z[C2] + Z/25, each torsion part with either sign:
    # odd torsion has trivial Tate groups, so only the lattice part counts.
    for free, want in ((TRIVIAL, (1, 0)), (SIGN, (0, 1)), (REGULAR, (0, 0))):
        for tors in (TRIVIAL, SIGN):
            for order in (5, 25):
                C = _block_diag([free, tors])
                n = C.shape[0]
                rel = zeros(1, n)
                rel[0, n - 1] = order
                C, rel = to_int(C), to_int(rel)
                got = tate_pair(C, rel)
                assert got == tuple(elementary_power(2, k) for k in want)
                assert got == (tate_group(C, rel, "even"), tate_group(C, rel, "odd"))


def test_tate_pair_rejects_dependent_relations():
    with pytest.raises(ValueError, match="dependent relation rows"):
        tate_pair(to_int(eye(2)), [{0: 1}, {0: 1}])


def _eager_smith(rel, n) -> tuple:
    """U, U^-1 (dense) and the padded diagonal, computed at once from the relation rows on Z^n."""
    d, U, Uinv, _, _ = snf_with_inverses(_transpose(rel, n), len(rel))
    return dense(U, n), dense(Uinv, n), d + [0] * (n - len(d))


@pytest.mark.parametrize("seed", range(4))
def test_lazy_smith_coordinates_match_an_eager_smith_form(seed):
    from distlab.distribution import universal_distribution, universal_predistribution

    rng = random.Random(seed)
    n = rng.randint(2, 6)
    rows = imat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))])
    m = (5, 8, 12, 21)[seed]
    cases = [
        (n, to_int(rows)),
        (2, [{0: 2}]),
        (m, universal_distribution(m).rows),
        (m, universal_predistribution(m).rows),
    ]
    for width, rel in cases:
        q = ZQuotient(width, rel)
        assert "_snf" not in vars(q)  # nothing is built before first use
        # the group is the Smith form of the independent rows, with no transforms
        assert q.group == FgAbGroup.from_relations(width, rel) and "_snf" not in vars(q)
        # the coordinates are those of the canonical rows, not of the given ones
        U, Uinv, dvec = _eager_smith(q.rows, width)
        free = [j for j in range(width) if dvec[j] == 0]
        P, S = dense(q.P, width), dense(q.S, len(free))
        assert P.shape == (len(free), width)
        assert "_snf" in vars(q)
        assert mat_equal(dense(q.U, width), U) and mat_equal(dense(q.Uinv, width), Uinv)
        assert q.dvec == dvec
        assert mat_equal(P, U[free, :]) and mat_equal(S, Uinv[:, free])
        assert q.group == FgAbGroup(len(free), tuple(d for d in dvec if d > 1))


def test_kept_smith_coordinates_are_read_only():
    # U, P and S are kept by a quotient that lru caches share, so no reader
    # may change them in place
    q = ZQuotient(3, [{0: 2, 1: 2}])
    for rows in (q.U, q.P, q.S):
        assert len(rows) > 0 and isinstance(rows, tuple)
        with pytest.raises(TypeError):
            rows[0][0] = 5
    assert q.P is q.P and q.S is q.S and q.P[0] is q.U[q.free_idx[0]]


def test_tate_pair_rejects_relations_of_another_width():
    # an empty relation matrix of width 2 is no presentation of Z^3: it is
    # refused whole, as every dense matrix is
    with pytest.raises(ValueError, match="^relation rows are a ndarray, not a list of dict rows$"):
        tate_pair(to_int(eye(3)), zeros(0, 2))
    with pytest.raises(ValueError, match="^relation rows have width 4, want 3$"):
        tate_pair(to_int(eye(3)), [{0: 2, 3: 1}])


SWAP = [{1: 1}, {0: 1}]


@pytest.mark.parametrize(
    "C, relations, message",
    [
        ([{0: 2}], [], r"^the map does not square to 1 on Z\^1 / relations$"),
        (SWAP, [{0: 1}], "^the map does not stabilize the relation lattice$"),
    ],
    ids=["not_of_order_two", "off_the_relations"],
)
def test_tate_routes_reject_a_map_that_is_no_action(C, relations, message):
    with pytest.raises(ValueError, match=message):
        tate_pair(C, relations)
    for parity in ("even", "odd"):
        with pytest.raises(ValueError, match=message):
            tate_group(C, relations, parity)


def test_tate_routes_take_an_order_two_action_on_the_quotient():
    # 4 is an involution on Z/5 though not on Z, and the swap fixes the
    # relation row (1, 1), so both are actions on their quotients
    for C, relations in (([{0: 4}], [{0: 5}]), (SWAP, [{0: 1, 1: 1}])):
        even, odd = tate_group(C, relations, "even"), tate_group(C, relations, "odd")
        assert tate_pair(C, relations) == (even, odd)


def test_tate_group_rejects_relations_of_another_width():
    for parity in ("even", "odd"):
        with pytest.raises(ValueError, match="^relation rows are a ndarray, not a list of dict rows$"):
            tate_group(to_int(eye(3)), zeros(0, 2), parity)
        with pytest.raises(ValueError, match="^relation rows have width 2, want 1$"):
            tate_group([{0: 1}], [{1: 1}], parity)


def test_zquotient_rejects_relations_of_another_width():
    # two empty rows of width 0 must not be dropped silently: a dense
    # matrix is refused whole
    with pytest.raises(ValueError, match="^relation rows are a ndarray, not a list of dict rows$"):
        ZQuotient(3, zeros(2, 0))
    with pytest.raises(ValueError, match="^relation rows have width 3, want 2$"):
        ZQuotient(2, to_int(imat([[1, 2, 3]])))
    with pytest.raises(ValueError, match="^relation rows are a ndarray, not a list of dict rows$"):
        ZQuotient(3, np.array([2, 0, 0], dtype=object))
    assert ZQuotient(3, []).group == FgAbGroup(3)


def test_zquotient_keeps_sparse_rows_and_a_dense_view():
    rel = imat([[2, 0, 4], [0, 0, 0], [0, 3, 0]])
    q = ZQuotient(3, to_int(rel))
    assert q.rows == [{0: 2, 2: 4}, {1: 3}]  # the Hermite rows: the zero row goes
    with pytest.raises(ValueError, match="not a list of dict rows"):
        ZQuotient(3, rel)  # the matrix itself is refused
    assert mat_equal(dense(q.rows, 3), imat([[2, 0, 4], [0, 3, 0]]))
    # the same rows given sparse: same rows, same group, and the list is copied
    given = [{0: 2, 2: 4}, {}, {1: 3}]
    p = ZQuotient(3, given)
    assert given == [{0: 2, 2: 4}, {}, {1: 3}]
    assert p.rows == q.rows and p.group == q.group == FgAbGroup(1, (6,))
    # above each pivot the entries are reduced; a multiple of a row adds nothing
    assert ZQuotient(2, to_int(imat([[2, 5], [0, 3], [4, 10]]))).rows == [{0: 2, 1: 2}, {1: 3}]
    # an explicit zero entry is dropped, not taken for a pivot
    assert ZQuotient(2, [{0: 0, 1: -2}]).rows == [{1: 2}]
    # integral Fractions become plain ints through to_int
    f = ZQuotient(2, to_int(qmat([[Fraction(4, 2), 0]])))
    assert f.rows == [{0: 2}] and type(f.rows[0][0]) is int
    with pytest.raises(ValueError, match="not an integer"):
        ZQuotient(2, [{0: Fraction(4, 2)}])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    entries=st.lists(st.lists(st.integers(-6, 6), min_size=5, max_size=5), max_size=4),
    rng=st.randoms(use_true_random=False),
)
def test_zquotient_rows_are_one_canonical_form(n, entries, rng):
    rel = imat([row[:n] for row in entries]) if entries else zeros(0, n)
    base = ZQuotient(n, to_int(rel))
    # the same lattice: unimodular row operations, then a zero row and a
    # duplicate row added and the rows shuffled
    mixed = _mul(_random_unimodular(len(entries), rng)[0], to_int(rel))
    given = mixed + [{}] + mixed[:1]
    rng.shuffle(given)
    snapshot = [dict(row) for row in given]
    q = ZQuotient(n, given)
    assert given == snapshot  # the caller's list is not reduced in place
    assert q.rows == base.rows
    assert q.group == base.group == FgAbGroup.from_relations(n, to_int(rel))
    assert q.free_rank == len(q.free_idx) == n - len(q.rows)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[2, 0, 0]], r"^relation row 0 is a list, not a dict row$"),
        ([{5: 1}], r"^relation rows have width 6, want 3$"),
        ([{0: 2}, {-1: 1}], r"^relation row 1 has column -1, want 0 to 2$"),
        ([{}, {1: Fraction(1, 2)}], r"^relation entry Fraction\(1, 2\) at \(1, 1\) is not an integer$"),
    ],
    ids=["dense_list_row", "column_past_the_width", "negative_column", "non_int_entry"],
)
def test_zquotient_checks_sparse_rows(rows, message):
    # as the dense path does, at construction and not at the first Smith form
    with pytest.raises(ValueError, match=message):
        ZQuotient(3, rows)


def test_tate_pair_needs_no_smith_coordinates():
    from distlab.distribution import negation_matrix, universal_distribution

    q = ZQuotient(60, universal_distribution(60).rows)
    assert tate_pair(negation_matrix(60), q.rows) == (elementary_power(2, 4),) * 2
    assert "_snf" not in vars(q)


def test_theta_fixed_lattice():
    # negation on 4 points of level 4: fixed part of 1+c is the odd pair
    C = zeros(4, 4)
    for k in range(4):
        C[(-k) % 4, k] = 1
    lat = theta_fixed(to_int(C))
    assert lat.rank == 1
    v = dense(lat.basis, 4)[0]
    assert v[0] == 0 and v[2] == 0 and {v[1], v[3]} == {1, -1}


def test_regulator_examples():
    # finite groups, empty matrix: ratio of orders
    A, B = FgAbGroup(0, (4,)), FgAbGroup(0, (2,))
    assert regulator(A, B, ([], 1)) == Fraction(1, 2)
    # Z + Z/2 -> Z by multiplication by 3
    assert regulator(FgAbGroup(1, (2,)), FgAbGroup(1), ([{0: 3}], 1)) == Fraction(3, 2)


def test_regulator_of_homomorphism_is_coker_over_ker():
    # f: Z -> Z, x -> 3x: coker Z/3, ker 0
    assert regulator(FgAbGroup(1), FgAbGroup(1), ([{0: 3}], 1)) == 3


def test_regulator_independent_of_subgroup_choice():
    rng = random.Random(5)
    A = FgAbGroup(2, (2, 6))
    B = FgAbGroup(2, (3,))
    lam = _phi([[Fraction(1, 2), 1], [0, 3]])
    expect = regulator(A, B, lam)
    for _ in range(20):
        assert regulator_via_subgroups(A, B, lam, rng) == expect


def test_regulator_chain_rule():
    rng = random.Random(9)
    for _ in range(10):
        A = FgAbGroup(2, (rng.choice([2, 3, 4]),))
        B = FgAbGroup(2, (rng.choice([2, 5]), rng.choice([10, 20])))
        Cg = FgAbGroup(2)
        lam = qmat([[rng.randint(1, 3), rng.randint(0, 2)], [0, rng.randint(1, 3)]])
        mu = qmat([[1, Fraction(rng.randint(0, 3), 2)], [0, 2]])
        assert regulator(A, Cg, _phi(mu @ lam)) == regulator(B, Cg, _phi(mu)) * regulator(A, B, _phi(lam))


@pytest.mark.parametrize(
    "r, lam, message",
    [
        (2, ([{0: 3}, {1: 1}, {2: 1}], 1), "^lambda is not 2 x 2$"),
        (2, ([{0: 3}, {1: 1.0}], 1), r"^lambda entry 1.0 at \(1, 1\) is not an integer$"),
        (2, ([{0: 3}, {2: 1}], 1), "^lambda is not 2 x 2$"),
        (2, ([{0: 3}, {1: 1}], 0), "^lambda has denominator 0, want a positive integer$"),
        (2, ([{0: 3}, {1: 1}], -2), "^lambda has denominator -2, want a positive integer$"),
        (2, ([{0: 3}, {1: 1}], 1.0), "^lambda has denominator 1.0, want a positive integer$"),
        (1, ([{}], 1), "^lambda is singular$"),
    ],
    ids=["row_count", "non_int_entry", "column_past_the_width", "zero_den", "negative_den", "float_den", "singular"],
)
def test_regulator_rejects_a_malformed_lambda(r, lam, message):
    with pytest.raises(ValueError, match=message):
        regulator(FgAbGroup(r, (2,)), FgAbGroup(r), lam)
    # the same map as lambda at degree 0 of two copies of 0 -> Z^r -> 0
    C = BoundedComplex({0: r}, {})
    with pytest.raises(ValueError, match=message.replace("lambda", "lambda at degree 0")):
        euler_regulator_check(C, C, {0: lam})


def test_euler_regulator_check_rejects_maps_off_the_differentials():
    C = _two_term([[1, 0], [0, 1]])
    good = {-1: ([{0: 1}, {1: 1}], 1), 0: ([{0: 1}, {1: 1}], 1)}
    assert euler_regulator_check(C, C, good)["equal"]
    with pytest.raises(ValueError, match="^maps do not commute with the differentials$"):
        euler_regulator_check(C, C, {**good, 0: ([{0: 2}, {1: 1}], 1)})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_abs_det_is_the_covolume_of_the_rows(data):
    """``_abs_det((N, e))`` reads |det(N / e)| off the Hermite pivots of the
    lattice the rows generate; the signed Bareiss ``det_exact`` is the
    reference.  N is block upper triangular under a random symmetric
    permutation, and half the draws repeat a multiple of one row in
    another, so singular maps are drawn too."""
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = sum(sizes)
    A = []
    for b, size in enumerate(sizes):  # the rows of block b are zero left of it
        lo = sum(sizes[:b])
        A += [{j: x for j in range(lo, n) if (x := data.draw(st.integers(-4, 4)))} for _ in range(size)]
    if data.draw(st.booleans()):
        i, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        A[i] = {j: 2 * x for j, x in A[k].items()} if i != k else {}
    perm = data.draw(st.permutations(range(n)))
    N = [{} for _ in range(n)]
    for i, row in enumerate(A):  # P A P^T
        N[perm[i]] = {perm[j]: x for j, x in row.items()}
    e = data.draw(st.integers(1, 6))
    want = det_exact(N, n)
    if want == 0:
        with pytest.raises(ValueError, match="^phi is singular$"):
            _abs_det((N, e), "phi")
    else:
        assert _abs_det((N, e), "phi") == Fraction(abs(want), e**n)
    # the denominator is no common factor of the rows here, so it counts
    assert _abs_det(([{0: 2, 1: 1}, {1: 3}], 4), "phi") == Fraction(6, 16)


@pytest.mark.parametrize("seed", range(3))
def test_regulator_via_subgroups_matches_on_random_maps(seed):
    # random groups and a random nonsingular rational lambda, 100 cases a seed
    rng = random.Random(seed)
    for _ in range(100):
        r = rng.randint(0, 3)
        A = FgAbGroup.from_invariants(r, [rng.choice([1, 2, 3, 4, 6]) for _ in range(rng.randint(0, 2))])
        B = FgAbGroup.from_invariants(r, [rng.choice([1, 2, 5, 10]) for _ in range(rng.randint(0, 2))])
        e = rng.randint(1, 4)
        N = [{j: x for j in range(r) if (x := rng.randint(-3, 3))} for _ in range(r)]
        if rank_exact(N, r) < r:
            continue
        assert regulator_via_subgroups(A, B, (N, e), rng) == regulator(A, B, (N, e))


def _two_term(dmat):
    # complex 0 -> Z^a -> Z^b -> 0 in degrees -1, 0
    d = imat(dmat)
    return BoundedComplex({-1: d.shape[1], 0: d.shape[0]}, {-1: to_int(d)})


def test_cohomology_of_two_term():
    C = _two_term([[2, 0], [0, 3]])
    assert C.cohomology(0) == FgAbGroup(0, (6,))
    assert C.cohomology(-1).is_trivial


def test_cohomology_names_the_column_outside_the_kernel():
    # d^2 = 0 is checked at construction; break it afterwards, so that
    # column 1 of d(-1) leaves the kernel of d(0)
    C = BoundedComplex({-1: 2, 0: 2, 1: 1}, {-1: [{0: 1}, {}], 0: [{}]})
    C.diff[-1] = [{0: 1}, {1: 1}]
    C.diff[0] = [{1: 1}]
    with pytest.raises(ValueError, match=r"^column 1 of d at degree -1 is not in the integral kernel$"):
        C.cohomology_data(0)


@pytest.mark.parametrize(
    "diff, message",
    [
        ({-1: [{0: 1}]}, "^d at degree -1 has 1 rows, want 2$"),
        ({-1: [{0: 1}, {2: 1}]}, "^d at degree -1 rows have width 3, want 2$"),
        ({-1: [{0: 1}, {-1: 1}]}, "^d at degree -1 row 1 has column -1, want 0 to 1$"),
        (
            {-1: [{0: 1}, {1: Fraction(1, 2)}]},
            r"^d at degree -1 entry Fraction\(1, 2\) at \(1, 1\) is not an integer$",
        ),
        ({-1: [{0: 1}, {1: 1.0}]}, r"^d at degree -1 entry 1.0 at \(1, 1\) is not an integer$"),
        ({-1: [[1, 0], [0, 1]]}, "^d at degree -1 row 0 is a list, not a dict row$"),
        ({1: []}, "^d at degree 1 is outside the degrees -1 to 0$"),
        ({-2: [{}, {}]}, "^d at degree -2 is outside the degrees -1 to 0$"),
    ],
    ids=[
        "row_count",
        "column_past_the_rank",
        "negative_column",
        "fraction_entry",
        "float_entry",
        "dense_row",
        "degree_above",
        "degree_below",
    ],
)
def test_bounded_complex_rejects_malformed_differentials(diff, message):
    with pytest.raises(ValueError, match=message):
        BoundedComplex({-1: 2, 0: 2}, diff)


@pytest.mark.parametrize(
    "ranks, message",
    [
        ({-1: 2, 0: -2}, "^rank at degree 0 is -2, want a non-negative int$"),
        ({-1: 2.0, 0: 2}, "^rank at degree -1 is 2.0, want a non-negative int$"),
        ({0: True}, "^rank at degree 0 is True, want a non-negative int$"),
    ],
    ids=["negative", "float", "bool"],
)
def test_bounded_complex_rejects_a_bad_rank(ranks, message):
    # a negative rank once gave the cohomology 0
    with pytest.raises(ValueError, match=message):
        BoundedComplex(ranks, {})


def test_bounded_complex_keeps_its_rows():
    d = [{0: 2, 1: 0}, {}]  # an explicit zero entry is dropped
    C = BoundedComplex({-1: 2, 0: 2}, {-1: d})
    assert C.d(-1) == [{0: 2}, {}] and C.d(0) == [] and C.d(-2) == [{}, {}]
    assert C.cohomology(0) == FgAbGroup(1, (2,)) and C.cohomology(-1) == FgAbGroup(1)


def test_jcomplex_names_the_first_row_off_the_involution():
    # at level 5 negation swaps the points 1 and 4; one entry of d moved
    # from 1 to 2 breaks c d = d c in row 1 and nowhere before it
    d = [{0: 1} if k else {} for k in range(5)]
    d[1][0] = 2
    C = BoundedComplex({-1: 1, 0: 5}, {-1: d})
    with pytest.raises(ValueError, match="^involution does not commute with d at degree -1: row 1 differs$"):
        JComplex(C, {0: [(-k) % 5 for k in range(5)], -1: [0]})


def test_euler_regulator_identity_fixed_example():
    # two copies of Z^2 -> Z^2 with the elementary divisors swapped; the
    # induced map on H^0 is zero, so ker and coker both contribute
    CA = _two_term([[2, 0], [0, 1]])
    CB = _two_term([[1, 0], [0, 2]])
    lam = {-1: _phi([[2, 0], [0, 1]]), 0: _phi([[1, 0], [0, 2]])}
    res = euler_regulator_check(CA, CB, lam)
    assert res["equal"]
    assert res["lhs"] == 1


def test_euler_regulator_identity_randomized():
    rng = random.Random(2024)
    for _ in range(25):
        CA, CB, lam = random_regulator_pair(rng)
        res = euler_regulator_check(CA, CB, lam)
        assert res["equal"], (res, CA.ranks)


def _lp_complex(p):
    """Level-p two-term lattice with negation involution (hand-built).

    Degree -1 basis: the single coarse point; degree 0 basis: k/p for
    k = 0..p-1.  The differential sends the coarse point to the sum of its
    preimages minus itself, and the self term cancels against k = 0.
    """
    d = [{0: 1} if k else {} for k in range(p)]
    C = BoundedComplex({-1: 1, 0: p}, {-1: d})
    return JComplex(C, {0: [(-k) % p for k in range(p)], -1: [0]})


def test_i_invariant_prime_level():
    # distribution-style differential at a prime level: invariant is 2
    jc = _lp_complex(3)
    assert i_invariant(jc) == 2
    jc5 = _lp_complex(5)
    assert i_invariant(jc5) == 2


def test_i_invariant_needs_d_zero_out_of_degree_zero():
    # H^0 is read as Z^n0 modulo the image of d(-1); with d(0) != 0 it is not
    C = BoundedComplex({0: 1, 1: 1}, {0: [{0: 1}]})
    with pytest.raises(ValueError, match="d = 0 out of degree 0"):
        i_invariant(JComplex(C))


def test_i_invariant_predistribution_prime_level():
    # predistribution-style differential: sum over preimages only
    p = 3
    d = [{0: 1} for _ in range(p)]
    C = BoundedComplex({-1: 1, 0: p}, {-1: d})
    jc = JComplex(C, {0: [(-k) % p for k in range(p)], -1: [0]})
    assert i_invariant(jc) == 1


def test_fixed_subcomplex_shapes():
    jc = _lp_complex(5)
    fixed, bases = jc.fixed_subcomplex()
    assert fixed.rank(0) == 2  # pairs [k] - [-k]
    assert fixed.rank(-1) == 0


@pytest.mark.parametrize("seed", range(20))
def test_sparse_intertwines_and_commutes_match_dense_products(seed):
    rng = random.Random(seed)
    a, b = rng.randint(0, 4), rng.randint(0, 4)

    def rand(r, c, lo=-2, hi=2):
        return imat([[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]).reshape(r, c)

    d1, d2, N, N1 = rand(b, a), rand(b, a), rand(a, a), rand(b, b)
    e, e1 = rng.randint(1, 3), rng.randint(1, 3)
    dense = mat_equal(N1 @ d1 * e, d2 @ N * e1)
    assert intertwines(to_int(d1), to_int(d2), (to_int(N), e), (to_int(N1), e1)) == dense
    # a true intertwiner: the identity (as eI / e) on the source, N1 on the target
    assert intertwines(to_int(d1), to_int(N1 @ d1), (to_int(eye(a) * e), e), (to_int(N1), 1))
    # a random involution: disjoint swaps of a shuffled index list
    perm, ks = list(range(a)), list(range(a))
    rng.shuffle(ks)
    for x, y in zip(ks[::2], ks[1::2]):
        if rng.random() < 0.7:
            perm[x], perm[y] = y, x
    c = eye(a)[:, perm]
    assert commutes(to_int(N), perm) == mat_equal(N @ c, c @ N)
    assert commutes(to_int(N), list(range(a))) and commutes(to_int(c), perm)
    assert commutes(to_int(N + c @ N @ c), perm)


def test_index_check_rejects_phi_off_the_involution_or_shape():
    # one degree, rank 2, the involution swaps the two basis vectors
    swap = JComplex(BoundedComplex({0: 2}, {}), {0: [1, 0]})
    with pytest.raises(ValueError, match="^phi does not commute with the involution at degree 0$"):
        abstract_index_check(swap, swap, {0: _phi([[1, 0], [0, 2]])})
    with pytest.raises(ValueError, match="^phi at degree 0 is not 2 x 2$"):
        abstract_index_check(swap, swap, {0: _phi([[1, 0, 0], [0, 1, 0], [0, 0, 1]])})
    with pytest.raises(ValueError, match="^phi at degree 0 is not 2 x 2$"):
        abstract_index_check(swap, swap, {0: ([{0: 1}, {2: 1}], 1)})
    assert abstract_index_check(swap, swap, {0: _phi([[2, 1], [1, 2]])})["equal"]


def test_index_check_reads_phi_as_checked_rows():
    swap = JComplex(BoundedComplex({0: 2}, {}), {0: [1, 0]})
    # an explicit zero is dropped before the involution test, not a mismatch
    assert abstract_index_check(swap, swap, {0: ([{0: 1, 1: 0}, {1: 1}], 1)})["equal"]
    with pytest.raises(ValueError, match=r"^phi at degree 0 entry 1.0 at \(1, 1\) is not an integer$"):
        abstract_index_check(swap, swap, {0: ([{0: 1}, {1: 1.0}], 1)})
    with pytest.raises(ValueError, match="^phi at degree 0 row 1 has column 'a', want 0 to 1$"):
        abstract_index_check(swap, swap, {0: ([{0: 1}, {"a": 1}], 1)})


def _phi(entries):
    """A rational map as (sparse rows of its numerators, denominator)."""
    return scaled(qmat(entries))
