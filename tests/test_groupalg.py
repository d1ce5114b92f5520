"""Finite-group algebras: convolution, standard isomorphisms, census scans."""

import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convalg import groupalg as ga
from convalg.errors import CharacterError, ParameterError, SizeError

HOM_TOL = 1e-12


def delta_func(G, a):
    """The point mass at the group element a."""
    f = np.zeros(G.order, dtype=np.complex128)
    f[a] = 1.0
    return f


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
            prod = ga.convolve_group(delta_func(G, a), delta_func(G, b), G)
            np.testing.assert_allclose(prod, delta_func(G, G.mul(a, b)),
                                       atol=1e-14)


def test_identity_delta_is_unit():
    G = ga.symmetric3()
    rng = np.random.default_rng(0)
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    np.testing.assert_allclose(
        ga.convolve_group(f, delta_func(G, G.identity), G), f, atol=1e-14)


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
    # gamma = i^x, phi = negation; (T f)(h) = gamma(phi^-1 h) f(phi^-1 h),
    # so T d_1 = gamma(1) d_{phi(1)} = i d_3
    G = ga.cyclic(4)
    iso = ga.StandardIso(G, G, ga.cyclic_automorphism(4, 3),
                         ga.cyclic_character(4, 1))
    out = ga.standard_iso_matrix(iso) @ delta_func(G, 1)
    np.testing.assert_allclose(out, 1j * delta_func(G, 3), atol=1e-14)


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


def test_standard_iso_refuses_a_nan_character():
    G = ga.cyclic(5)
    with pytest.raises(CharacterError):
        ga.StandardIso(G, G, range(5), [math.nan] * 5)


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
        rep = ga.is_algebra_homomorphism(ga.standard_iso_matrix(iso), iso.source, iso.target)
        assert rep.is_homomorphism
        assert rep.max_defect < HOM_TOL


def test_non_homomorphism_detected():
    G = ga.cyclic(4)
    T = np.eye(4, dtype=complex)
    T[0, 0] = 2.0
    rep = ga.is_algebra_homomorphism(T, G, G)
    assert not rep.is_homomorphism
    assert rep.max_defect > 0.5


def test_nan_entry_is_not_a_homomorphism():
    G = ga.cyclic(4)
    T = np.eye(4, dtype=complex)
    T[3, 3] = math.nan
    rep = ga.is_algebra_homomorphism(T, G, G)
    assert not rep.is_homomorphism
    assert math.isnan(rep.max_defect)


# ---------------------------------------------------------------- rigidity


def test_translation_rigidity_on_small_groups():
    for G in (ga.cyclic(2), ga.cyclic(5), ga.cyclic(9), ga.symmetric3()):
        assert ga.translation_rigidity_check(G)


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
    rows = np.array([[1, 2, 3, 4, 0], [0, 2, 1, 3, 4]])
    assert ga.affine_mask(rows, 5).tolist() == [True, False]


def _literal_affine(n):
    """The permutations j -> (a j + k) mod n with gcd(a, n) = 1, listed one by one."""
    return {tuple((a * j + k) % n for j in range(n))
            for a in range(n) if math.gcd(a, n) == 1 for k in range(n)}


@pytest.mark.parametrize("n", range(1, 8))
def test_affine_mask_matches_the_literal_definition(n):
    perms = list(itertools.permutations(range(n)))
    affine = _literal_affine(n)
    mask = ga.affine_mask(np.asarray(perms), n)
    assert mask.tolist() == [p in affine for p in perms]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
@pytest.mark.parametrize("n", range(1, 8))
def test_affine_mask_takes_unsigned_permutations(n, dtype):
    # (sigma(1) - sigma(0)) % n must not wrap around in the input's dtype
    perms = list(itertools.permutations(range(n)))
    affine = _literal_affine(n)
    mask = ga.affine_mask(np.asarray(perms, dtype=dtype), n)
    assert mask.tolist() == [p in affine for p in perms]


def _scan_fields(n):
    scan, rep = ga.enumerate_l2_automorphisms(n), ga.small_norm_scan(n)
    fields = asdict(scan)
    return fields.pop("nonstandard_example"), fields, asdict(rep)


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("entries", [lambda n: 1, lambda n: 10 ** 6, lambda n: 11 * n ** 3],
                         ids=["one-permutation", "large", "short-last-block"])
def test_scans_do_not_depend_on_the_block_size(monkeypatch, n, entries):
    example, census, norms = _scan_fields(n)
    monkeypatch.setattr(ga, "_BLOCK_ENTRIES", entries(n))
    assert math.factorial(n) % 11                         # blocks of 11 leave a short one
    blocked_example, blocked_census, blocked_norms = _scan_fields(n)
    assert np.array_equal(blocked_example, example)
    assert (blocked_census, blocked_norms) == (census, norms)


@pytest.mark.parametrize("n", range(1, 9))
def test_census_counts_every_permutation(n):
    scan = ga.enumerate_l2_automorphisms(n)
    phi = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
    assert scan.total == math.factorial(n)
    assert scan.standard_count == n * phi
    assert scan.nonstandard_count == scan.total - scan.standard_count
    assert scan.max_hom_defect <= 1e-10 and scan.max_isometry_defect <= 1e-10


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_nonstandard_example_is_the_first_non_affine_permutation(n):
    affine = _literal_affine(n)
    first = next(p for p in itertools.permutations(range(n)) if p not in affine)
    scan = ga.enumerate_l2_automorphisms(n)
    assert scan.nonstandard_example_sigma == first
    F = np.fft.fft(np.eye(n), axis=0)
    single = np.fft.ifft(F[np.asarray(first), :], axis=0)   # one matrix, no batch
    assert np.array_equal(scan.nonstandard_example, single)


def edit_the_last_permutation(monkeypatch, n, edit):
    """Apply ``edit`` to the scans' matrix of the last permutation of Z_n; returns block sizes."""
    last = tuple(range(n - 1, -1, -1))
    original = ga._fourier_conjugated
    perturbed = []

    def kernel(sigmas, F):
        T = original(sigmas, F)
        if tuple(sigmas[-1]) == last:
            edit(T[-1])
            perturbed.append(len(sigmas))
        return T

    monkeypatch.setattr(ga, "_fourier_conjugated", kernel)
    return perturbed


def test_enumerate_checks_the_last_permutation_of_the_last_block(monkeypatch):
    # scaling breaks T(d_a * d_b) = T d_a * T d_b
    perturbed = edit_the_last_permutation(monkeypatch, 6,
                                           lambda T: np.multiply(T, 1.0 + 1e-6, out=T))
    with pytest.raises(ParameterError):
        ga.enumerate_l2_automorphisms(6)
    assert len(perturbed) == 1 and perturbed[0] > 1   # one block, not one permutation


def test_enumerate_refuses_a_nan_in_the_last_block(monkeypatch):
    edit_the_last_permutation(monkeypatch, 6, lambda T: T.fill(math.nan))
    with pytest.raises(ParameterError, match="nan"):
        ga.enumerate_l2_automorphisms(6)


def test_enumerate_measures_the_isometry_defect_of_the_last_block(monkeypatch):
    # F^-1 D F T, D = diag(0, 1, ..., 1), drops one dual coordinate: still a
    # homomorphism, but T^H T - I gains the entries -conj(F[j, x]) F[j, y] / n
    n = 6
    F = np.fft.fft(np.eye(n), axis=0)
    E = np.linalg.inv(F) @ np.diag([0.0] + [1.0] * (n - 1)) @ F
    perturbed = edit_the_last_permutation(monkeypatch, n, lambda T: np.matmul(E, T.copy(), out=T))
    scan = ga.enumerate_l2_automorphisms(n)
    assert perturbed and scan.max_hom_defect <= ga.HOM_DEFECT_TOL
    assert abs(scan.max_isometry_defect - 1.0 / n) <= 1e-12


def test_small_norm_scan_refuses_a_nan_in_the_last_block(monkeypatch):
    edit_the_last_permutation(monkeypatch, 6, lambda T: T.fill(math.nan))
    with pytest.raises(ParameterError, match="nan"):
        ga.small_norm_scan(6)


def test_enumerate_z4_census():
    scan = ga.enumerate_l2_automorphisms(4)
    assert scan.total == 24
    assert scan.standard_count == 8       # a in {1,3}, k in {0..3}
    assert scan.nonstandard_count == 16
    assert scan.max_hom_defect < 1e-10
    assert scan.max_isometry_defect < 1e-10
    assert scan.nonstandard_example is not None
    assert not ga.affine_mask(np.array([scan.nonstandard_example_sigma]), 4)[0]
    d = asdict(scan)
    assert d["n"] == 4 and d["total"] == 24


def test_enumerate_z5_census():
    scan = ga.enumerate_l2_automorphisms(5)
    assert scan.total == 120
    assert scan.standard_count == 20      # a in {1..4}, k in {0..4}
    assert scan.nonstandard_count == 100


def test_enumerate_size_cap():
    with pytest.raises(SizeError):
        ga.enumerate_l2_automorphisms(10)
    with pytest.raises(SizeError):
        ga.enumerate_l2_automorphisms(0)


def test_nonstandard_example_is_a_real_automorphism():
    scan = ga.enumerate_l2_automorphisms(4)
    T = np.array(scan.nonstandard_example)
    G = ga.cyclic(4)
    rep = ga.is_algebra_homomorphism(T, G, G)
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


def test_small_norm_scan_size_cap():
    with pytest.raises(SizeError):
        ga.small_norm_scan(10)


def test_small_norm_scan_refuses_a_nan_threshold_before_its_first_block(monkeypatch):
    def no_blocks(n):
        raise AssertionError("a permutation block was drawn")
    monkeypatch.setattr(ga, "_dual_permutation_blocks", no_blocks)
    with pytest.raises(ParameterError):
        ga.small_norm_scan(4, threshold=float("nan"))


@pytest.mark.parametrize("n, expected", [(5, 1.894427190999916),
                                         (7, 2.0436550888948517),
                                         (8, 1.4142135623730951),
                                         (9, 1.5862568277145441)])
def test_small_norm_scan_pinned_minima(n, expected):
    rep = ga.small_norm_scan(n)
    assert rep.min_nonstandard_norm == pytest.approx(expected, rel=1e-12, abs=0)
    assert rep.max_standard_norm == pytest.approx(1.0, rel=1e-12)
    assert rep.all_below_threshold_standard


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_small_norm_scan_equals_the_per_permutation_loop(n):
    F = np.fft.fft(np.eye(n), axis=0)
    affine = _literal_affine(n)
    std, nonstd = [], []
    for p in itertools.permutations(range(n)):
        T = np.fft.ifft(F[np.asarray(p), :], axis=0)
        (std if p in affine else nonstd).append(float(np.max(np.sum(np.abs(T), axis=0))))
    rep = ga.small_norm_scan(n, threshold=1.5)
    assert rep.max_standard_norm == max(std)
    assert rep.min_nonstandard_norm == min(nonstd)
    assert rep.all_below_threshold_standard == (min(nonstd) >= 1.5)
