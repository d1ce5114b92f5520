"""Finite-group algebras: convolution, standard isomorphisms, census scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convalg import groupalg as ga
from convalg import weights as wt
from convalg.errors import (CharacterError, InvertibilityError,
                            ParameterError, SizeError)

HOM_TOL = 1e-12


# ------------------------------------------------------------------- groups


def test_cyclic_group_structure():
    G = ga.cyclic(6)
    assert G.order == 6
    assert G.identity == 0
    assert G.mul(4, 5) == 3
    assert G.inv(2) == 4
    assert G.inv(0) == 0


def test_symmetric3_is_nonabelian_of_order_six():
    G = ga.symmetric3()
    assert G.order == 6
    assert any(G.mul(a, b) != G.mul(b, a)
               for a in range(6) for b in range(6))


def test_group_json_round_trip():
    G = ga.symmetric3()
    back = ga.FiniteGroup.from_json(G.to_json())
    np.testing.assert_array_equal(back.table, G.table)
    assert back.name == G.name


def test_invalid_tables_rejected():
    with pytest.raises(ParameterError):
        ga.FiniteGroup(np.array([[0, 1]]))                    # not square
    with pytest.raises(ParameterError):
        ga.FiniteGroup(np.array([[0, 1], [1, 2]]))            # out of range
    with pytest.raises(ParameterError):
        ga.FiniteGroup(np.array([[0, 1], [1, 1]]))            # no inverse for 1
    bad = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])         # not associative
    with pytest.raises(ParameterError):
        ga.FiniteGroup(bad)


def test_builtin_group_names():
    assert ga.builtin_group("Z7").order == 7
    assert ga.builtin_group("S3").order == 6
    with pytest.raises(ParameterError):
        ga.builtin_group("Q8")


# -------------------------------------------------------------- convolution


def test_group_convolution_hand_oracle_z3():
    G = ga.cyclic(3)
    f = np.array([1.0, 2.0, 0.0], dtype=complex)
    g = np.array([0.0, 1.0, 3.0], dtype=complex)
    # (f*g)(x) = sum_y f(y) g(y^{-1} x)
    expected = np.array([
        f[0] * g[0] + f[1] * g[2] + f[2] * g[1],
        f[0] * g[1] + f[1] * g[0] + f[2] * g[2],
        f[0] * g[2] + f[1] * g[1] + f[2] * g[0],
    ])
    np.testing.assert_allclose(ga.convolve_group(f, g, G), expected,
                               atol=1e-14)


def test_delta_products_follow_the_table():
    G = ga.symmetric3()
    for a in range(6):
        for b in range(6):
            prod = ga.convolve_group(ga.delta_func(G, a), ga.delta_func(G, b), G)
            np.testing.assert_allclose(prod, ga.delta_func(G, G.mul(a, b)),
                                       atol=1e-14)


def test_identity_delta_is_unit():
    G = ga.symmetric3()
    rng = np.random.default_rng(0)
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    np.testing.assert_allclose(
        ga.convolve_group(f, ga.delta_func(G, G.identity), G), f, atol=1e-14)


@given(st.integers(2, 8), st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_group_convolution_is_associative(n, seed):
    G = ga.cyclic(n)
    rng = np.random.default_rng(seed)
    f, g, h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
               for _ in range(3))
    lhs = ga.convolve_group(ga.convolve_group(f, g, G), h, G)
    rhs = ga.convolve_group(f, ga.convolve_group(g, h, G), G)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_weighted_norm_group_hand_values():
    G = ga.cyclic(3)
    w = wt.tabulated(np.array([1.0, 2.0, 2.0]), group=G)
    f = np.array([3.0, -4.0, 0.0], dtype=complex)
    assert ga.weighted_norm_group(f, 1.0, w) == pytest.approx(11.0)
    assert ga.weighted_norm_group(f, 2.0, w) == pytest.approx(np.sqrt(73.0))


# --------------------------------------------------------------- characters


def test_cyclic_characters_are_multiplicative():
    n = 8
    G = ga.cyclic(n)
    for k in range(n):
        chi = ga.cyclic_character(n, k)
        for a in range(n):
            for b in range(n):
                assert chi[G.mul(a, b)] == pytest.approx(chi[a] * chi[b],
                                                         rel=1e-12)


def test_s3_sign_character():
    chi = ga.s3_sign_character()
    G = ga.symmetric3()
    assert set(np.round(chi.real).astype(int)) == {-1, 1}
    assert chi[G.identity] == 1.0
    for a in range(6):
        for b in range(6):
            assert chi[G.mul(a, b)] == pytest.approx(chi[a] * chi[b])


# ------------------------------------------------------------ automorphisms


def test_cyclic_automorphism_needs_coprime_multiplier():
    phi = ga.cyclic_automorphism(8, 3)
    assert phi[1] == 3
    with pytest.raises(ParameterError):
        ga.cyclic_automorphism(8, 2)


def test_inner_automorphism_preserves_the_law():
    G = ga.symmetric3()
    for g in range(6):
        phi = ga.inner_automorphism(G, g)
        for a in range(6):
            for b in range(6):
                assert phi[G.mul(a, b)] == G.mul(phi[a], phi[b])


# ------------------------------------------------------- standard iso maps


def test_standard_iso_z4_oracle():
    # gamma = i^x, phi = negation: T(d_1) = gamma(3) d_3 = i^3 d_3? no --
    # T f(h) = gamma(phi^-1 h) f(phi^-1 h); phi^-1(3) = 1, gamma(1) = i
    G = ga.cyclic(4)
    iso = ga.StandardIso(G, G, ga.cyclic_automorphism(4, 3),
                         ga.cyclic_character(4, 1))
    out = ga.apply_standard_iso(iso, ga.delta_func(G, 1))
    np.testing.assert_allclose(out, 1j * ga.delta_func(G, 3), atol=1e-14)


def test_standard_iso_matrix_agrees_with_apply():
    G = ga.symmetric3()
    iso = ga.StandardIso(G, G, ga.inner_automorphism(G, 2),
                         ga.s3_sign_character())
    T = ga.standard_iso_matrix(iso)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    np.testing.assert_allclose(T @ f, ga.apply_standard_iso(iso, f),
                               atol=1e-13)


def test_standard_iso_validation():
    G = ga.cyclic(4)
    with pytest.raises(ParameterError):
        ga.StandardIso(G, G, np.array([0, 0, 1, 2]),
                       ga.cyclic_character(4, 0))  # phi not a bijection
    with pytest.raises(ParameterError):
        ga.StandardIso(G, G, np.array([0, 2, 1, 3]),
                       ga.cyclic_character(4, 0))  # phi not a homomorphism
    gamma = ga.cyclic_character(4, 1).copy()
    gamma[2] = 0.0
    with pytest.raises(CharacterError):
        ga.StandardIso(G, G, ga.cyclic_automorphism(4, 1), gamma)
    with pytest.raises(CharacterError):
        ga.StandardIso(G, G, ga.cyclic_automorphism(4, 1),
                       np.ones(4) * 2.0)  # not multiplicative into units: 2*2 != 2
    with pytest.raises(ParameterError):
        ga.StandardIso(G, G, ga.cyclic_automorphism(4, 1),
                       ga.cyclic_character(4, 0), c=-1.0)


def test_standard_isos_are_homomorphisms():
    cases = []
    z6, z8, s3 = ga.cyclic(6), ga.cyclic(8), ga.symmetric3()
    cases.append(ga.StandardIso(z6, z6, ga.cyclic_automorphism(6, 5),
                                ga.cyclic_character(6, 2)))
    cases.append(ga.StandardIso(z8, z8, ga.cyclic_automorphism(8, 3),
                                ga.cyclic_character(8, 1)))
    cases.append(ga.StandardIso(s3, s3, ga.inner_automorphism(s3, 4),
                                ga.s3_sign_character()))
    for iso in cases:
        rep = ga.is_algebra_homomorphism(ga.standard_iso_matrix(iso),
                                         iso.source, iso.target, tol=HOM_TOL)
        assert rep.is_homomorphism
        assert rep.max_defect < HOM_TOL


def test_non_homomorphism_detected():
    G = ga.cyclic(4)
    T = np.eye(4, dtype=complex)
    T[0, 0] = 2.0
    rep = ga.is_algebra_homomorphism(T, G, G, tol=1e-10)
    assert not rep.is_homomorphism
    assert rep.max_defect > 0.5


# ------------------------------------------------------------ classification


def test_classify_identity_matrix():
    w = np.ones(5)
    rep = ga.classify_iso(np.eye(5, dtype=complex), 2.0, w, w)
    assert rep.bipositive and rep.isometric
    assert rep.norm == pytest.approx(1.0)
    assert rep.inverse_norm == pytest.approx(1.0)
    assert rep.cond == pytest.approx(1.0)
    assert rep.norms_exact


def test_classify_standard_iso_is_isometric_not_bipositive():
    G = ga.cyclic(5)
    iso = ga.StandardIso(G, G, ga.cyclic_automorphism(5, 2),
                         ga.cyclic_character(5, 1))
    w = np.ones(5)
    rep = ga.classify_iso(ga.standard_iso_matrix(iso), 2.0, w, w)
    assert rep.isometric and not rep.bipositive
    assert rep.norm == pytest.approx(1.0, rel=1e-12)


def test_bipositive_iff_trivial_character_on_z6():
    # entrywise-nonnegative standard isomorphisms are exactly the ones
    # with a positive real character
    G = ga.cyclic(6)
    w = np.ones(6)
    for a in (1, 5):
        for k in range(6):
            iso = ga.StandardIso(G, G, ga.cyclic_automorphism(6, a),
                                 ga.cyclic_character(6, k))
            rep = ga.classify_iso(ga.standard_iso_matrix(iso), 2.0, w, w)
            gamma_positive = bool(np.all(iso.gamma.real > 1 - 1e-12)
                                  & np.all(np.abs(iso.gamma.imag) < 1e-12))
            assert rep.bipositive == gamma_positive
            assert rep.isometric


def test_classify_rejects_singular_matrix():
    w = np.ones(3)
    with pytest.raises(InvertibilityError):
        ga.classify_iso(np.zeros((3, 3), dtype=complex), 2.0, w, w)


def test_classify_scaled_matrix_norms():
    w = np.ones(4)
    rep = ga.classify_iso(3.0 * np.eye(4, dtype=complex), 2.0, w, w)
    assert rep.norm == pytest.approx(3.0)
    assert rep.inverse_norm == pytest.approx(1.0 / 3.0)
    assert not rep.isometric


# ---------------------------------------------------------------- rigidity


def test_translation_rigidity_on_small_groups():
    for G in (ga.cyclic(2), ga.cyclic(5), ga.cyclic(9), ga.symmetric3()):
        rep = ga.translation_rigidity_check(G)
        assert rep.holds
        assert list(rep.admissible_x) == [G.identity]


# -------------------------------------------------------------- the census


def test_affine_permutations_give_standard_isos():
    n = 6
    F = np.fft.fft(np.eye(n), axis=0)
    for a, k in [(1, 0), (5, 2), (1, 3), (5, 5)]:
        sigma = (a * np.arange(n) + k) % n
        direct = np.fft.ifft(F[sigma, :], axis=0)
        via_iso = ga.standard_iso_matrix(ga.affine_standard_iso(n, a, k))
        np.testing.assert_allclose(direct, via_iso, atol=1e-12)


def test_is_affine_perm():
    assert ga.is_affine_perm(np.array([1, 2, 3, 4, 0]), 5)
    assert not ga.is_affine_perm(np.array([0, 2, 1, 3, 4]), 5)


def test_enumerate_z4_census():
    scan = ga.enumerate_l2_automorphisms(4)
    assert scan.total == 24
    assert scan.standard_count == 8       # a in {1,3}, k in {0..3}
    assert scan.nonstandard_count == 16
    assert scan.max_hom_defect < 1e-10
    assert scan.max_isometry_defect < 1e-10
    assert scan.nonstandard_example is not None
    sigma = np.array(scan.nonstandard_example_sigma)
    assert not ga.is_affine_perm(sigma, 4)
    d = scan.to_dict()
    assert d["n"] == 4 and d["total"] == 24


def test_enumerate_z5_census():
    scan = ga.enumerate_l2_automorphisms(5)
    assert scan.total == 120
    assert scan.standard_count == 20      # a in {1..4}, k in {0..4}
    assert scan.nonstandard_count == 100


def test_enumerate_size_cap():
    with pytest.raises(SizeError):
        ga.enumerate_l2_automorphisms(10)


def test_nonstandard_example_is_a_real_automorphism():
    scan = ga.enumerate_l2_automorphisms(4)
    T = np.array(scan.nonstandard_example)
    G = ga.cyclic(4)
    rep = ga.is_algebra_homomorphism(T, G, G, tol=1e-10)
    assert rep.is_homomorphism


# ------------------------------------------------------------ small norms


def test_small_norm_scan_values():
    rep3 = ga.small_norm_scan(3)
    assert rep3.all_below_threshold_standard
    assert rep3.min_nonstandard_norm is None      # every perm of Z_3 is affine
    rep4 = ga.small_norm_scan(4)
    assert rep4.min_nonstandard_norm == pytest.approx(1.7071067811865475,
                                                      rel=1e-12)
    assert rep4.max_standard_norm == pytest.approx(1.0, rel=1e-12)
    assert rep4.all_below_threshold_standard
    rep6 = ga.small_norm_scan(6)
    assert rep6.min_nonstandard_norm == pytest.approx(1.3660254037844386,
                                                      rel=1e-12)
    assert rep6.all_below_threshold_standard


def test_small_norm_scan_only_l1():
    with pytest.raises(ParameterError):
        ga.small_norm_scan(4, p=2.0)


def test_small_norm_scan_size_cap():
    with pytest.raises(SizeError):
        ga.small_norm_scan(9)
