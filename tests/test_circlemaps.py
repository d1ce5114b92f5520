"""Circle maps: Blaschke factors, coefficients, powers, composition."""

import numpy as np
import pytest

from convalg import circlemaps as cm
from convalg import seqalg as sa
from convalg.errors import AccuracyError, ParameterError

SAMPLE_TOL = 1e-10
M_ORACLE = 4096


def circle(M):
    return np.exp(2j * np.pi * np.arange(M) / M)


def sampling_coeffs(phi, M=M_ORACLE):
    """DFT oracle for the Fourier coefficients of a map's boundary values."""
    return np.fft.fft(cm.map_values(phi, circle(M))) / M


# ------------------------------------------------------------------ basics


def test_blaschke_requires_r_inside_disk():
    cm.Blaschke(0.0)
    cm.Blaschke(-0.97)
    with pytest.raises(ParameterError):
        cm.Blaschke(1.0)
    with pytest.raises(ParameterError):
        cm.Blaschke(-1.3)


@pytest.mark.parametrize("r", [0.5j, 0.5 + 0j, np.complex128(0.0)])
def test_blaschke_refuses_a_complex_r(r):
    # also with a zero imaginary part: the type is refused, not the value
    with pytest.raises(ParameterError, match="must be real"):
        cm.Blaschke(r)


def test_maps_are_unimodular_on_the_circle():
    z = circle(1024)
    for phi in (cm.Blaschke(0.6), cm.Blaschke(-0.25), cm.Blaschke(0)):
        defect = np.max(np.abs(np.abs(cm.map_values(phi, z)) - 1.0))
        assert defect < 1e-12


def test_inverse_map_round_trip():
    z = circle(64)
    for r in (0.4, -0.7):
        phi, inv = cm.Blaschke(r), cm.Blaschke(-r)
        np.testing.assert_allclose(cm.map_values(inv, cm.map_values(phi, z)),
                                   z, atol=1e-12)


# ------------------------------------------------------------- coefficients


def test_blaschke_coefficients_hand_values():
    # (z - r)/(1 - r z) = -r + (1 - r^2) sum_{k>=1} r^{k-1} z^k
    c = cm.coeffs(cm.Blaschke(0.5), tol=1e-14)
    assert c.lo == 0
    assert c[0] == pytest.approx(-0.5)
    assert c[1] == pytest.approx(0.75)
    assert c[2] == pytest.approx(0.375)
    assert c[3] == pytest.approx(0.1875)


@pytest.mark.parametrize("r", [0.3, 0.5, 0.7, -0.45])
def test_blaschke_coefficients_match_sampling_oracle(r):
    c = cm.coeffs(cm.Blaschke(r), tol=1e-14)
    table = np.zeros(M_ORACLE, dtype=complex)
    table[c.indices() % M_ORACLE] = c.values
    np.testing.assert_allclose(table, sampling_coeffs(cm.Blaschke(r)),
                               atol=SAMPLE_TOL)


def test_blaschke_coefficients_are_float64_and_compositions_complex():
    phi = cm.Blaschke(-0.6)
    for seq in (cm.coeffs(phi), cm.coeffs(cm.Blaschke(0.0)), cm.derivative_coeffs(phi),
                cm.power_coeffs(phi, 5), cm.power_coeffs(phi, -5), cm.power_coeffs(phi, 0),
                cm.reflect_conj(cm.coeffs(phi)), sa.l1_trimmed(0, cm.coeffs(phi).values, 1e-3),
                sa.l1_trimmed(0, cm.coeffs(phi).values, 10.0)):
        assert seq.values.dtype == np.float64
    assert cm.compose_transform(sa.delta(2), phi).values.dtype == np.complex128
    assert sa.l1_trimmed(0, cm.coeffs(phi).values, 10.0).is_zero


def test_monomial_coefficients_are_a_single_delta():
    # b_0 is the monomial z
    assert cm.coeffs(cm.Blaschke(0)).same(sa.delta(1))


def test_derivative_coefficients_match_closed_form():
    for phi in (cm.Blaschke(0.5), cm.Blaschke(-0.3), cm.Blaschke(0)):
        dc = cm.derivative_coeffs(phi, tol=1e-12)
        z = circle(2048)
        err = np.max(np.abs(sa.gelfand_sample(dc, 2048)
                            - cm.derivative_values(phi, z)))
        assert err < 1e-10


def test_reflect_conj_realizes_reciprocal_on_the_circle():
    # on |z|=1, conj(f(z)) = (reflect_conj f)(z) since conj(z) = 1/z
    rng = np.random.default_rng(0)
    f = sa.TruncSeq(-3, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    g = cm.reflect_conj(f)
    z = circle(64)
    np.testing.assert_allclose(sa.gelfand_sample(g, 64),
                               np.conj(sa.gelfand_sample(f, 64)), atol=1e-12)


def test_reciprocal_coeffs_inverts_on_the_circle():
    for phi in (cm.Blaschke(0.5), cm.Blaschke(-0.2)):
        rec = cm.reflect_conj(cm.coeffs(phi, tol=1e-12))
        prod = sa.gelfand_sample(rec, 1024) * cm.map_values(phi, circle(1024))
        np.testing.assert_allclose(prod, np.ones(1024), atol=1e-10)


# -------------------------------------------------------------- map powers


def test_power_one_is_coeffs():
    c = cm.power_coeffs(cm.Blaschke(0.5), 1, tol=1e-12)
    assert sa.l1_diff(c, cm.coeffs(cm.Blaschke(0.5), tol=1e-14)) < 1e-11


def test_power_zero_is_unit():
    assert cm.power_coeffs(cm.Blaschke(0.3), 0).same(sa.delta(0))


@pytest.mark.parametrize("n", [2, 5, 17, -3, -8])
def test_power_coeffs_match_pointwise_powers(n):
    phi = cm.Blaschke(0.5)
    pc = cm.power_coeffs(phi, n, tol=1e-12)
    target = cm.map_values(phi, circle(M_ORACLE)) ** float(n)
    err = np.max(np.abs(sa.gelfand_sample(pc, M_ORACLE) - target))
    assert err < 1e-10


def test_monomial_power_coeffs_closed_form():
    # b_0 is the monomial z, and its powers come out exact
    assert cm.power_coeffs(cm.Blaschke(0), 5).same(sa.delta(5))


def test_negative_monomial_power():
    assert cm.power_coeffs(cm.Blaschke(0), -4).same(sa.delta(-4))


def test_each_trimmed_product_is_stored_once(monkeypatch):
    built = []
    post_init = sa.TruncSeq.__post_init__
    monkeypatch.setattr(sa.TruncSeq, "__post_init__", lambda self: (built.append(1), post_init(self)))
    phi = cm.Blaschke(0.5)
    assert len(list(cm.running_powers(phi, 50))) == 51
    assert len(built) == 52  # the base, phi^0 and one per product
    built.clear()
    cm.power_coeffs(phi, 500)
    assert len(built) == 14  # the base and 13 products


# -------------------------------------------------------------- composition


@pytest.mark.parametrize("cauchy_tol", [0.0, -1.0, float("nan"), float("inf")])
def test_compose_transform_refuses_a_bad_tolerance_before_any_grid(monkeypatch, cauchy_tol):
    def no_grid(*args):
        raise AssertionError("a grid was built")
    monkeypatch.setattr(cm, "_compose_once", no_grid)
    with pytest.raises(ParameterError, match="Cauchy tolerance"):
        cm.compose_transform(sa.delta(3), cm.Blaschke(0.5), cauchy_tol=cauchy_tol)


def test_compose_transform_refuses_an_undoublable_start_grid_before_any_grid(monkeypatch):
    # 41 terms start on a 256-point grid, which a 2^8-point cap cannot double
    def no_grid(*args):
        raise AssertionError("a grid was built")
    monkeypatch.setattr(cm, "_compose_once", no_grid)
    monkeypatch.setattr(cm, "MAX_LOG2_GRID", 8)
    f = sa.TruncSeq(-20, np.ones(41))
    with pytest.raises(AccuracyError, match="last difference inf"):
        cm.compose_transform(f, cm.Blaschke(0.5))


def test_compose_with_identity_map_is_identity():
    rng = np.random.default_rng(5)
    f = sa.TruncSeq(-6, rng.standard_normal(13) + 1j * rng.standard_normal(13))
    g = cm.compose_transform(f, cm.Blaschke(0))
    assert sa.l1_diff(f, g) < 1e-12


def test_compose_transform_matches_pointwise_composition():
    rng = np.random.default_rng(6)
    f = sa.TruncSeq(-5, rng.standard_normal(11))
    phi = cm.Blaschke(0.4)
    g = cm.compose_transform(f, phi, cauchy_tol=1e-11)
    z = circle(M_ORACLE)
    target = np.zeros(M_ORACLE, dtype=complex)
    w = cm.map_values(phi, z)
    for n, v in zip(f.indices(), f.values):
        target += v * w ** float(n)
    np.testing.assert_allclose(sa.gelfand_sample(g, M_ORACLE), target,
                               atol=1e-9)


def test_compose_agrees_with_power_pipeline():
    phi = cm.Blaschke(0.5)
    for n in (-7, 3, 12):
        a = cm.compose_transform(sa.delta(n), phi)
        b = cm.power_coeffs(phi, n, tol=1e-12)
        assert sa.l1_diff(a, b) < 1e-8


def test_compose_zero_sequence():
    assert cm.compose_transform(sa.TruncSeq(0, []), cm.Blaschke(0.3)).is_zero


def test_compose_group_law_inverse_blaschke():
    # composing with b_r then b_{-r} returns f
    rng = np.random.default_rng(7)
    f = sa.TruncSeq(-4, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    fwd = cm.compose_transform(f, cm.Blaschke(0.4))
    back = cm.compose_transform(fwd, cm.Blaschke(-0.4))
    assert sa.l1_diff(back, f) < 1e-7


def test_pipeline_agreement_at_envelope_edge():
    # the two power routes stay together out to n = +-50 at r = 0.6
    phi = cm.Blaschke(0.6)
    for n in (50, -50):
        a = cm.compose_transform(sa.delta(n), phi)
        b = cm.power_coeffs(phi, n, tol=1e-12)
        assert sa.l1_diff(a, b) < 1e-8

