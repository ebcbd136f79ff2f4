from argparse import Namespace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from dense import dense, eye, is_integral, mat_equal, scaled, zeros
from distlab import cli, stickelberger
from distlab.abgroup import theta_fixed
from distlab.arith import euler_phi
from distlab.cyclotomic import corrector_w
from distlab.exact_linalg import Lattice, lattice_index, to_int
from distlab.stickelberger import (
    GroupRingElem,
    alpha_compat_check,
    alpha_ideal_index_check,
    alpha_image_index_check,
    alpha_lattice,
    alpha_scaled,
    antisymmetrization_index_check,
    definition_report,
    group_stability_check,
    minus_ideal_index_check,
    minus_sublattice,
    principal_multiples_lattice,
    smoothing_minus_image_check,
    stickelberger_ideal,
    theta_element,
    theta_norm_check,
    unit_translation,
    units_of,
)


def test_theta_coefficients():
    assert theta_element(3).coeffs == (Fraction(1, 3), Fraction(2, 3))
    # indexed by units 1, 2, 3, 4: coefficient at sigma_t is {t^{-1}/5}
    assert theta_element(5).coeffs == (
        Fraction(1, 5),
        Fraction(3, 5),
        Fraction(2, 5),
        Fraction(4, 5),
    )
    assert theta_element(5, 2).coeffs == (
        Fraction(2, 5),
        Fraction(1, 5),
        Fraction(4, 5),
        Fraction(3, 5),
    )


@pytest.mark.parametrize("m", [1, 2, 6, 10])
def test_invalid_levels_rejected(m):
    with pytest.raises(ValueError):
        theta_element(m)
    # The memoised ideal stores no exception: it raises on every call.
    for _ in range(2):
        with pytest.raises(ValueError):
            stickelberger_ideal(m)


def test_convolution_translates_theta():
    m = 12
    units = units_of(m)
    for b in units:
        delta = [Fraction(0)] * len(units)
        delta[units.index(b)] = Fraction(1)
        prod = GroupRingElem(m, tuple(delta)) * theta_element(m)
        assert prod == theta_element(m, b)


@pytest.mark.parametrize("m", [3, 5, 8, 12, 21])
def test_theta_norm_identity(m):
    assert theta_norm_check(m)
    # the same identity through the group-ring product with 1 + c
    units = units_of(m)
    one_plus_c = [Fraction(0)] * len(units)
    one_plus_c[units.index(1)] += 1
    one_plus_c[units.index(m - 1)] += 1
    prod = GroupRingElem(m, tuple(one_plus_c)) * theta_element(m)
    assert all(x == 1 for x in prod.coeffs)


def test_theta_norm_check_sees_a_broken_element(monkeypatch):
    real = stickelberger.theta_element

    def broken(m, a=1):
        th = real(m, a)
        return GroupRingElem(m, (th.coeffs[0] + 1,) + th.coeffs[1:])

    monkeypatch.setattr(stickelberger, "theta_element", broken)
    assert not theta_norm_check(12)


@pytest.mark.parametrize("m", [3, 5, 8, 9, 12, 15, 21])
def test_ideal_ranks(m):
    data = stickelberger_ideal(m)
    phi = euler_phi(m)
    assert data.S.rank == phi // 2 + 1
    assert data.R_minus.rank == phi // 2
    assert data.S_minus.rank == phi // 2
    assert is_integral(dense(data.S.basis, phi))
    # contains of a matrix asks for every row
    assert data.R_minus.contains(data.S_minus.rows, data.S_minus.den)
    assert data.S.contains(data.S_minus.rows, data.S_minus.den)
    assert stickelberger_ideal(m) is data


@pytest.mark.parametrize("m", [7, 12, 15, 21])
def test_lattice_index_matches_sympy_coordinates(m):
    # (A : B) = |det M| for the coordinates M of the basis of B in that of
    # A, here solved by sympy instead of read from the Hermite pivots.
    sympy = pytest.importorskip("sympy")
    data = stickelberger_ideal(m)
    pairs = [
        (data.R_minus, data.S_minus),
        (data.S_minus, data.R_minus),
        (minus_sublattice(m), alpha_lattice(m)),
        (alpha_lattice(m), data.S_minus),
    ]
    for A, B in pairs:
        MA, MB = (sympy.Matrix(dense(L.basis, L.ambient).tolist()) for L in (A, B))
        coords, free = MA.T.gauss_jordan_solve(MB.T)
        assert free.shape[0] == 0
        want = abs(coords.T.det())
        assert lattice_index(A, B) == Fraction(int(want.p), int(want.q))


def test_alpha_small_column():
    A = dense(alpha_scaled(3), 3, 6)
    assert list(A[:, 1]) == [Fraction(1, 6), Fraction(-1, 6)]
    assert all(x == 0 for x in A[:, 0])


def test_alpha_even_level_middle_column_vanishes():
    A = dense(alpha_scaled(8), 8, 16)
    assert all(x == 0 for x in A[:, 4])


def _alpha_by_fractions(m):
    units = units_of(m)
    A = zeros(len(units), m)
    for k in range(1, m):
        for i, t in enumerate(units):
            A[i, k] = Fraction(1, 2) - Fraction(k * pow(t, -1, m) % m, m)
    return A


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12, 15, 21])
def test_alpha_numerators_over_twice_the_level(m):
    N = dense(alpha_scaled(m), m)
    assert all(type(x) is int for x in N.flat)
    ref = _alpha_by_fractions(m)
    assert mat_equal(dense(alpha_scaled(m), m, 2 * m), ref)
    assert mat_equal(N, ref * (2 * m))
    R, e = scaled(ref.T)
    assert alpha_lattice(m) == Lattice(len(units_of(m)), R, e)


@pytest.mark.parametrize("m", [5, 8, 12, 21])
def test_antisymmetrized_theta_rows_by_permutation(m):
    rows = dense(stickelberger._theta_scaled(m), len(units_of(m)))
    assert mat_equal(
        rows * Fraction(1, m),
        np.array([theta_element(m, a).coeffs for a in range(1, m)], dtype=object),
    )
    # t -> -t permutes the columns into those of the conjugate elements
    perm = unit_translation(m, m - 1)
    assert mat_equal(
        rows[:, perm] * Fraction(1, m),
        np.array([theta_element(m, a).conjugate().coeffs for a in range(1, m)], dtype=object),
    )


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 24, 35, 60, 105, 420])
def test_conjugation_matrix_sends_t_to_minus_t(m):
    units = units_of(m)
    idx = {t: i for i, t in enumerate(units)}
    C = zeros(len(units), len(units))
    for t in units:
        C[idx[m - t], idx[t]] = 1
    assert mat_equal(eye(len(units))[:, unit_translation(m, m - 1)], C)
    # the orbit basis of ker(1 + c) against the Smith kernel of 1 + C
    assert minus_sublattice(m) == theta_fixed(to_int(C))


@pytest.mark.parametrize("m", [7, 12])
def test_alpha_compat_check_sees_a_perturbed_numerator(monkeypatch, m):
    real = stickelberger.alpha_scaled

    def perturbed(level):
        N = real(level)
        N[0][1] = N[0].get(1, 0) + 1
        return N

    monkeypatch.setattr(stickelberger, "alpha_scaled", perturbed)
    res = alpha_compat_check(m)
    assert not res["relations_killed"]
    assert not res["ok"]


@pytest.mark.parametrize("m", [5, 7, 12])
def test_alpha_rank(m):
    assert alpha_lattice(m).rank == euler_phi(m) // 2


@pytest.mark.parametrize("m", [5, 9, 12, 15, 24])
def test_alpha_compatibility(m):
    assert alpha_compat_check(m)["ok"]


@pytest.mark.parametrize(
    "m,value",
    [(5, Fraction(1, 10)), (12, Fraction(1, 12)), (23, Fraction(3, 46))],
)
def test_minus_lattice_index_of_alpha_image(m, value):
    res = alpha_image_index_check(m)
    assert res["value"] == value
    assert res["ok"]


@pytest.mark.parametrize("m,value", [(5, 2), (12, 4), (105, 16)])
def test_antisymmetrization_index(m, value):
    res = antisymmetrization_index_check(m)
    assert res["value"] == value
    assert res["ok"]


@pytest.mark.parametrize("m", [5, 8, 9, 12, 15, 16, 24])
def test_alpha_image_contains_minus_ideal_with_index_w(m):
    out = alpha_ideal_index_check(m)
    assert out["value"] == corrector_w(m)
    assert out["ok"]


@pytest.mark.parametrize("m", [5, 8, 9, 12, 15, 16, 21, 24])
def test_smoothing_minus_image_index(m):
    assert smoothing_minus_image_check(m)["ok"]


@pytest.mark.parametrize("m,value", [(5, 1), (23, 3), (105, 26)])
def test_minus_ideal_index(m, value):
    res = minus_ideal_index_check(m)
    assert res["value"] == value
    assert res["ok"]


def test_definition_report_agreement_pattern():
    # principal multiples of the single element recover the full ideal
    # exactly at prime-power levels
    for m in (5, 8, 9, 16):
        assert definition_report(m)["agree"]
    for m in (12, 15):
        rep = definition_report(m)
        assert not rep["agree"]
        assert rep["ratio"] == 2
    rep = definition_report(21)
    assert not rep["agree"]
    assert rep["principal_index"] is None
    assert rep["principal_minus_rank"] == euler_phi(21) // 2 - 1


def test_principal_lattice_is_integral():
    lat = principal_multiples_lattice(15)
    assert is_integral(dense(lat.basis, lat.ambient))


@pytest.mark.parametrize("m", [9, 12])
def test_group_action_stability(m):
    assert group_stability_check(m)


@pytest.mark.parametrize("m", [7, 12, 15, 21])
def test_unit_translation_is_the_permutation_matrix(m):
    units = units_of(m)
    idx = {t: i for i, t in enumerate(units)}
    n = len(units)
    data = stickelberger_ideal(m)
    e1 = Lattice(n, [{0: 1}])
    for b in units:
        P = zeros(n, n)
        for t in units:
            P[idx[b * t % m], idx[t]] = 1
        perm = unit_translation(m, b)
        for lat in (data.S, data.S_minus):
            B = dense(lat.basis, n)
            assert mat_equal(B[:, perm], B @ P.T)
            N = dense(lat.rows, n)
            assert Lattice(n, to_int(N[:, perm]), lat.den) == Lattice(n, to_int(N @ P.T), lat.den)
        # a lattice that is not stable: the basis vector of the unit 1
        assert (Lattice(n, to_int(dense(e1.rows, n)[:, perm])) == e1) == (b == 1)


@pytest.mark.parametrize("m", [7, 12])
def test_group_stability_check_rejects_an_unstable_lattice(monkeypatch, m):
    n = len(units_of(m))
    e1 = Lattice(n, [{0: 1}])
    fake = SimpleNamespace(S=e1, S_minus=e1)
    monkeypatch.setattr(stickelberger, "stickelberger_ideal", lambda _: fake)
    assert not group_stability_check(m)


# Recorded from the Fraction-matrix implementation before the smoothing
# operator moved to scaled integer numerators.
SMOOTHED_MINUS_PINNED = {
    15: "{'level': 15, 'value': Fraction(3, 8), 'expected': Fraction(3, 8), 'ok': True}",
    21: "{'level': 21, 'value': Fraction(9, 16), 'expected': Fraction(9, 16), 'ok': True}",
}


@pytest.mark.parametrize("m", sorted(SMOOTHED_MINUS_PINNED))
def test_smoothing_minus_image_values_are_pinned(m):
    assert repr(smoothing_minus_image_check(m)) == SMOOTHED_MINUS_PINNED[m]


@pytest.mark.parametrize("m", [12, 21])
def test_verify_bundle(m):
    records = cli._run_items(cli.suite_stickelberger(m, Namespace()))
    assert [r["name"] for r in records if not r["pass"]] == []
