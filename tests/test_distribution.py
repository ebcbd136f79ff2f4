"""Level points, averaging bases, the two quotients, smoothing, exp map."""

from fractions import Fraction

import numpy as np
import pytest

from dense import dense, eye, mat_equal, scaled, zeros
from distlab import abgroup, distribution
from distlab.abgroup import FgAbGroup, elementary_power, tate_group
from distlab.arith import divisors, euler_phi, primes_of
from distlab.distribution import (
    basis_check,
    cohomology_check,
    distribution_lattice,
    distribution_relation_rows,
    exp_kernel_check,
    exp_map_matrix,
    mult_matrix,
    negation_matrix,
    predistribution_lattice,
    predistribution_relation_rows,
    prime_step_relations_suffice,
    restricted_point,
    restricted_points,
    smoothing_check,
    smoothing_factor_scaled,
    smoothing_inverse_scaled,
    smoothing_scaled,
    tate_distribution,
    tate_predistribution,
    universal_distribution,
    universal_predistribution,
    x_matrix,
    y_matrix,
)
from distlab.exact_linalg import hnf, solve_exact, to_int


def _fraction(pair):
    """The rational matrix N / d of a pair (sparse square rows N, d)."""
    N, d = pair
    return dense(N, len(N), d)


def test_x_matrix_shape_and_columns():
    X = dense(x_matrix(12, 3), 4)
    assert X.shape == (12, 4)
    # preimages of 1/4 under *3 are 1/12, 5/12, 9/12
    assert [j for j in range(12) if X[j, 1]] == [1, 5, 9]
    with pytest.raises(ValueError):
        x_matrix(12, 5)


def test_y_matrix_prime_case():
    # for prime p the difference operator is the embedding minus the average
    m, p = 15, 3
    Y = dense(y_matrix(m, p), m // p)
    X = dense(x_matrix(m, p), m // p)
    for i in range(5):
        emb = zeros(m, 1)[:, 0]
        emb[i * p] = 1
        assert mat_equal((emb - X[:, i]).reshape(-1, 1), Y[:, i].reshape(-1, 1))


def test_y_matrix_prime_power():
    # (1 - X_2)^2 = 1 - 2 X_2 + X_4 on level 4; the embedded X_2 term hits
    # the even rows only while X_4 hits everything
    Y = dense(y_matrix(4, 4), 1)
    expect = zeros(4, 1)
    expect[0, 0] = 1 - 2 + 1
    expect[1, 0] = 1
    expect[2, 0] = -2 + 1
    expect[3, 0] = 1
    assert mat_equal(Y, expect)


def test_restricted_points_count():
    # the count at level m equals the unit count, at every divisor scale
    for m in (1, 2, 4, 9, 12, 30, 60):
        assert len(restricted_points(m)) == euler_phi(m)
    assert restricted_point(0, 1)
    assert not restricted_point(1, 2)  # 1/2 has leading digit 1 = 2 - 1


def test_standard_bases_unimodular():
    for m in (1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 30):
        r = basis_check(m)
        assert r["count_ok"] and r["x_unimodular"] and r["y_unimodular"], r


def test_relation_lattices():
    # level 4: both lattices have rank 2 = 4 - phi(4), and are saturated
    d = distribution_lattice(4)
    o = predistribution_lattice(4)
    assert d.rank == o.rank == 2
    assert universal_distribution(4).group == FgAbGroup(2)
    assert universal_predistribution(4).group == FgAbGroup(2)


@pytest.mark.parametrize("m", [8, 12, 60, 105])
def test_prime_step_relations_suffice(m):
    assert prime_step_relations_suffice(m)


def _cold_quotients(request):
    """Drop the memoised quotients and Tate groups now and at teardown, as
    ``_perturb_factor`` does, so that a patched builder reaches the
    quotients and no quotient built under it outlives the test."""
    caches = (
        distribution.universal_distribution,
        distribution.universal_predistribution,
        distribution._free_tate,
    )
    for f in caches:
        f.cache_clear()
        request.addfinalizer(f.cache_clear)


@pytest.mark.parametrize("step", [5, 1, 0, -3, 24])
def test_relation_rows_reject_bad_steps(step):
    # a non-divisor gave rows over the wrong points, and step 1 empty rows
    with pytest.raises(ValueError, match=rf"^relation step {step} is not a divisor of 12 above 1$"):
        distribution._relation_rows(12, False, [step])


@pytest.mark.parametrize("m", [12, 60])
def test_prime_step_check_sees_a_perturbed_prime_row(monkeypatch, m):
    # The check builds both quotients itself, so the memoised ones are
    # neither read nor changed.  Row 0 of the prime-step rows gains e_1.
    real = distribution._relation_rows

    def perturbed(level, bare, steps):
        rows = real(level, bare, steps)
        if tuple(steps) == primes_of(level):
            rows[0][1] = rows[0].get(1, 0) + 1
        return rows

    monkeypatch.setattr(distribution, "_relation_rows", perturbed)
    assert not prime_step_relations_suffice(m)


@pytest.mark.parametrize("bare, kind", [(False, "distribution"), (True, "predistribution")])
def test_certificate_names_a_perturbed_composite_row(monkeypatch, request, bare, kind):
    # The row of (n, a) = (12, 3) at level 60 gains e_0, off its support.
    _cold_quotients(request)
    real = distribution._relation_rows

    def perturbed(level, bare, steps):
        rows = real(level, bare, steps)
        if list(steps) == [12]:
            rows[3][0] = 1
        return rows

    monkeypatch.setattr(distribution, "_relation_rows", perturbed)
    quotient = universal_predistribution if bare else universal_distribution
    with pytest.raises(ArithmeticError, match=rf"^{kind} relation at step n = 12, a = 3 "):
        quotient(60)


@pytest.mark.parametrize("m", [60, 105])
def test_quotient_reduces_only_the_prime_step_rows(monkeypatch, request, m):
    """A work contract that does not depend on load: ``universal_distribution``
    hands the Hermite core the sum over p | m of m/p prime-step rows (62 of
    the 108 relation rows at 60, 71 of 87 at 105), and its rows are still
    those of every relation."""
    sizes = []
    real = abgroup._hermite

    def counted(M, c):
        sizes.append(len(M))
        return real(M, c)

    _cold_quotients(request)
    monkeypatch.setattr(abgroup, "_hermite", counted)
    rows = universal_distribution(m).rows
    assert sizes == [sum(m // p for p in primes_of(m))]
    assert rows == real(distribution._relation_rows(m, False, divisors(m)[1:]), m)


def test_quotients_are_free_of_unit_rank():
    for m in (3, 4, 9, 12, 15, 16):
        assert universal_distribution(m).group == FgAbGroup(euler_phi(m))
        assert universal_predistribution(m).group == FgAbGroup(euler_phi(m))


def test_negation_action_tate_groups():
    # the fast free-coordinate route agrees with the presented route
    for m in (3, 4, 9, 12):
        rel = distribution_relation_rows(m)
        for parity in ("odd", "even"):
            slow = tate_group(negation_matrix(m), rel, parity)
            assert tate_distribution(m, parity) == slow


def _stacked_relation_rows(m: int, bare: bool):
    """The relation rows stacked from the columns of x_matrix, as the dense route built them."""
    rows = []
    for n in divisors(m):
        if n == 1:
            continue
        X = dense(x_matrix(m, n), m // n)
        for i in range(m // n):
            row = X[:, i].copy()
            if not bare:
                row = -row
                row[(i * n) % m] += 1
            rows.append(row)
    return np.stack(rows, axis=0) if rows else zeros(0, m)


def test_sparse_relation_rows_match_the_dense_route():
    # Every valid level up to 200, both quotients: the rows built from the
    # index arithmetic, densified, are the stacked x_matrix rows, and the
    # quotients hold the Hermite rows of that matrix.
    bad = []
    for m in [1] + [m for m in range(3, 201) if m % 4 != 2]:
        for bare, relation_rows, quotient in (
            (False, distribution_relation_rows, universal_distribution),
            (True, predistribution_relation_rows, universal_predistribution),
        ):
            want = _stacked_relation_rows(m, bare)
            if not mat_equal(dense(relation_rows(m), m), want):
                bad.append((m, bare, "rows"))
            if not mat_equal(dense(quotient(m).rows, m), dense(hnf(to_int(want), m), m)):
                bad.append((m, bare, "hermite"))
    assert not bad


def test_rank_route_matches_smith_route_up_to_200():
    # Every valid level, both quotients, both parities, against tate_group
    # on the full presentation by the Hermite relation rows.
    bad = []
    for m in [m for m in range(3, 201) if m % 4 != 2]:
        C = negation_matrix(m)
        for q, tate in (
            (universal_distribution(m), tate_distribution),
            (universal_predistribution(m), tate_predistribution),
        ):
            for parity in ("even", "odd"):
                if tate(m, parity) != tate_group(C, q.rows, parity):
                    bad.append((m, tate.__name__, parity))
    assert not bad


def test_rank_route_at_four_primes():
    m = 420
    C = negation_matrix(m)
    u, o = universal_distribution(m).rows, universal_predistribution(m).rows
    # the three groups whose Smith route is fast at this level
    assert tate_distribution(m, "odd") == tate_group(C, u, "odd")
    assert tate_predistribution(m, "odd") == tate_group(C, o, "odd")
    assert tate_predistribution(m, "even") == tate_group(C, o, "even")
    assert tate_distribution(m, "even") == elementary_power(2, 8)


def test_tate_groups_build_no_smith_form(monkeypatch):
    from distlab import abgroup

    def refuse(*args, **kwargs):
        raise AssertionError("a Smith form was built")

    # fresh quotients, so that no Smith form built earlier is read
    monkeypatch.setattr(abgroup, "_smith", refuse)
    monkeypatch.setattr(distribution, "universal_distribution", universal_distribution.__wrapped__)
    monkeypatch.setattr(
        distribution, "universal_predistribution", universal_predistribution.__wrapped__
    )
    for bare in (False, True):
        assert len(distribution._free_tate.__wrapped__(60, bare)) == 2


def test_tate_groups_are_memoised():
    assert tate_distribution(12, "odd") is tate_distribution(12, "odd")
    assert tate_predistribution(12, "even") is tate_predistribution(12, "even")
    # lru_cache stores no exception: bad input raises on every call.
    for _ in range(2):
        for f in (tate_distribution, tate_predistribution):
            with pytest.raises(ValueError):
                f(7, "both")
            with pytest.raises(ValueError):
                f(-3, "odd")
            for m in (0, 1, 2, 6):
                with pytest.raises(ValueError, match=f"level {m} "):
                    f(m, "odd")
                with pytest.raises(ValueError, match=f"level {m} "):
                    f(m, "even")


def test_induced_on_free_rejects_a_non_square_map():
    q = universal_distribution(7)
    with pytest.raises(ValueError, match="^map has 6 rows, want 7$"):
        q.induced_on_free(negation_matrix(7)[:6])
    assert dense(q.induced_on_free(negation_matrix(7)), 6).shape == (6, 6)


def test_cohomology_closed_forms_small():
    for m in (3, 4, 5, 8, 9, 12, 15, 16, 45):
        assert cohomology_check(m)["ok"], m


def test_cohomology_check_rejects_bad_levels():
    with pytest.raises(ValueError):
        cohomology_check(6)


def test_smoothing_factor_geometric_series():
    # column of 1 at level 4, p = 2: orbit 1 -> 2 -> 0 -> 0 cycle
    F = _fraction(smoothing_factor_scaled(4, 2))
    assert F[1, 1] == 1
    assert F[2, 1] == Fraction(1, 2)
    assert F[0, 1] == Fraction(1, 4) * 2  # tail hit then the fixed cycle at 0
    # defining property, all levels
    for m, p in ((4, 2), (9, 3), (12, 2), (12, 3), (15, 5)):
        S = dense(mult_matrix(m, p), m)
        lhs = (eye(m) - S * Fraction(1, p)) @ _fraction(smoothing_factor_scaled(m, p))
        assert mat_equal(lhs, eye(m))


def _fraction_series(m: int, p: int):
    """(1 - S_p/p)^(-1) summed entry by entry in Fractions along each orbit."""
    M = zeros(m, m) + Fraction(0)
    for k in range(m):
        path, pos, cur = [], {}, k
        while cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            cur = cur * p % m
        start = pos[cur]
        cl = len(path) - start
        for j, node in enumerate(path):
            hit = Fraction(1, p**j)
            if j >= start:
                hit *= Fraction(p**cl, p**cl - 1)
            M[node, k] += hit
    return M


@pytest.mark.parametrize("m", [m for m in range(3, 41) if m % 4 != 2])
def test_smoothing_factor_numerators_match_fraction_series(m):
    # every prime of m, and a few primes prime to m (no tail, pure cycles)
    for p in sorted(set(primes_of(m)) | {2, 3, 5, 7}):
        N, d = smoothing_factor_scaled(m, p)
        ref_N, ref_d = scaled(_fraction_series(m, p))
        assert all(type(x) is int and x for row in N for x in row.values())
        assert d == ref_d and N == ref_N, (m, p)


def test_smoothing_inverse_and_relation_transport():
    for m in (1, 4, 9, 12, 24):
        assert smoothing_check(m)["ok"], m


def test_smoothing_against_direct_inverse():
    for m in (4, 9, 12):
        # the inverse of N' / d' is d' X / e for N' X = e I
        N_inv, d_inv = smoothing_inverse_scaled(m)
        X, e = solve_exact(N_inv, [{k: 1} for k in range(m)], m)
        assert mat_equal(_fraction(smoothing_scaled(m)), dense(X, m, e) * d_inv)


VALID_LEVELS = [m for m in range(3, 41) if m % 4 != 2]


def _fraction_product(factors, m):
    """Reference product F_k ... F_1 of Fraction matrices, multiplied as Fractions."""
    M = factors[0] if factors else eye(m) + Fraction(0)
    for F in factors[1:]:
        M = F @ M
    return M


@pytest.mark.parametrize("m", VALID_LEVELS)
def test_smoothing_builders_match_fraction_product(m):
    primes = primes_of(m)
    phi = _fraction(smoothing_scaled(m))
    factors = [_fraction(smoothing_factor_scaled(m, p)) for p in primes]
    assert mat_equal(phi, _fraction_product(factors, m))
    assert all(type(x) is Fraction for x in phi.flat)
    inverse = [eye(m) - dense(mult_matrix(m, p), m) * Fraction(1, p) for p in primes]
    assert mat_equal(_fraction(smoothing_inverse_scaled(m)), _fraction_product(inverse, m))


def _perturb_factor(monkeypatch, request, m0, p0):
    """Make the factor at (m0, p0) wrong by 1/p0 in one entry.

    The checks read the factor as integer numerators N over d, so the
    perturbation is made there: N / d + 1/p = (p N + d) / (p d) in one entry.
    The memoised products are dropped now, so that the perturbation reaches
    the checks, and again at teardown, so that no perturbed product outlives
    the test.
    """
    distribution._smoothing_product.cache_clear()
    request.addfinalizer(distribution._smoothing_product.cache_clear)
    real = distribution.smoothing_factor_scaled

    def perturbed(m, p):
        N, d = real(m, p)
        if (m, p) == (m0, p0):
            N, d = [{j: x * p for j, x in row.items()} for row in N], d * p
            N[0][1] = N[0].get(1, 0) + d // p
        return N, d

    monkeypatch.setattr(distribution, "smoothing_factor_scaled", perturbed)


@pytest.mark.parametrize("m", [9, 12, 15])
def test_smoothing_check_sees_a_perturbed_entry(monkeypatch, request, m):
    assert smoothing_check(m)["inverse_ok"]
    _perturb_factor(monkeypatch, request, m, primes_of(m)[-1])
    res = smoothing_check(m)
    assert not res["inverse_ok"] and not res["ok"]


def test_exp_map_kernel_and_image():
    for m in (1, 2, 3, 4, 8, 9, 12, 16, 30):
        assert exp_kernel_check(m)["ok"], m


def test_exp_map_small_example():
    # level 4: x^2 = -1 mod the minimal polynomial
    E = dense(exp_map_matrix(4), 4)
    assert E.shape == (2, 4)
    assert list(E[:, 0]) == [1, 0]
    assert list(E[:, 1]) == [0, 1]
    assert list(E[:, 2]) == [-1, 0]
    assert list(E[:, 3]) == [0, -1]
