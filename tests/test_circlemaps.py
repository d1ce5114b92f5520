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


def derivative_values(phi, z):
    """Closed-form oracle for the boundary values of b_r': (1 - r^2) / (1 - r z)^2."""
    return (1.0 - phi.r ** 2) / (1.0 - phi.r * z) ** 2


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
                            - derivative_values(phi, z)))
        assert err < 1e-10


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_derivative_coefficients_refuse_a_bad_tolerance(tol):
    # a negative tol never ended the cut-off loop; nan ended it at once
    with pytest.raises(ParameterError):
        cm.derivative_coeffs(cm.Blaschke(0.3), tol)


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
def test_compose_refuses_a_bad_tolerance_before_any_grid(monkeypatch, cauchy_tol):
    def no_grid(*args):
        raise AssertionError("a grid was built")
    monkeypatch.setattr(cm, "_compose_once", no_grid)
    with pytest.raises(ParameterError, match="Cauchy tolerance"):
        cm.compose(sa.delta(3), cm.Blaschke(0.5), cauchy_tol)


def test_compose_transform_refuses_an_undoublable_start_grid_before_any_grid(monkeypatch):
    # 41 terms at r = 0.5 are first certified to 1e-9 on 256 points, above a 2^7-point cap
    def no_grid(*args):
        raise AssertionError("a grid was built")
    monkeypatch.setattr(cm, "_compose_once", no_grid)
    monkeypatch.setattr(cm, "MAX_LOG2_GRID", 7)
    f = sa.TruncSeq(-20, np.ones(41))
    with pytest.raises(AccuracyError, match=r"no grid of at most 2\^7 points"):
        cm.compose_transform(f, cm.Blaschke(0.5))


def test_cauchy_grid_is_the_smallest_power_of_two_within_the_bound(monkeypatch):
    seen = []
    assert cm._cauchy_grid(lambda M: seen.append(M) or 1.0 / M, 0.01) == (128, 1.0 / 128)
    assert seen == [2, 4, 8, 16, 32, 64, 128]
    monkeypatch.setattr(cm, "MAX_LOG2_GRID", 6)
    assert cm._cauchy_grid(lambda M: 1.0 / M, 0.01) is None


def test_no_certified_grid_refuses_before_any_sample(monkeypatch):
    # the oversize probe (r = 0.99, n = 210) needs 2^16 points; under a 2^15 cap it
    # certifies nothing, and the composition's rounding allowance is above 1e-20 on
    # every grid, so neither samples the circle
    def no_fft(*args, **kwargs):
        raise AssertionError("a sample was transformed")
    monkeypatch.setattr(np.fft, "fft", no_fft)
    monkeypatch.setattr(np.fft, "irfft", no_fft)
    monkeypatch.setattr(cm, "MAX_LOG2_GRID", 15)
    assert cm.certified_support(cm.Blaschke(0.99), 210, 300, 1e-10) is None
    monkeypatch.setattr(cm, "MAX_LOG2_GRID", 20)
    with pytest.raises(AccuracyError, match=r"no grid of at most 2\^20 points"):
        cm.compose(sa.delta(3), cm.Blaschke(0.5), 1e-20)


@pytest.mark.parametrize("r, n, top, tol, hull", [
    (0.99, 210, 300, 1e-10, (0, 46711)), (-0.99, 210, 300, 1e-10, (0, 46711)),
    (0.999, 2, 4000, 1e-14, (0, 16652)), (0.9, 60, 60, 1e-10, (0, 1535)),
    (-0.7, 3, 12, 1e-10, (0, 81)), (0.5, 1, 4, 1e-10, (0, 33)),
])
def test_half_circle_sample_matches_the_full_circle_sample(monkeypatch, r, n, top, tol, hull):
    # the real coefficients make the samples conjugate-symmetric, so the irfft of the
    # half circle gives the conjugates of the full circle's FFT; the full sample, fed
    # through the same threshold, is the oracle
    half = []
    irfft = np.fft.irfft

    def recorded(a, M):
        half.append(irfft(a, M))
        return half[-1]

    monkeypatch.setattr(np.fft, "irfft", recorded)
    assert cm.certified_support(cm.Blaschke(r), n, top, tol) == hull
    M = len(half[0])
    t = 2.0 * np.pi * np.arange(M) / M
    phase = t + 2.0 * np.arctan2(r * np.sin(t), 1.0 - r * np.cos(t))
    full = np.fft.fft(np.exp(1j * n * phase)) / M
    assert np.abs(half[0] - full.conj()).max() <= 1e-13
    monkeypatch.setattr(np.fft, "irfft", lambda a, M: full)
    assert cm.certified_support(cm.Blaschke(r), n, top, tol) == hull


def test_compose_transform_samples_one_grid(monkeypatch):
    grids = []
    once = cm._compose_once
    monkeypatch.setattr(cm, "_compose_once", lambda f, phi, M: grids.append(M) or once(f, phi, M))
    for n in (25, -100, 400):
        cm.compose_transform(sa.delta(n), cm.Blaschke(0.5))
    assert grids == [512, 1024, 4096]


def test_compose_of_a_constant_is_the_constant():
    g, err = cm.compose(sa.delta(0, 2.5), cm.Blaschke(0.7), 1e-15)
    assert g.lo == 0 and g.values.tolist() == [2.5] and g.values.dtype == np.complex128
    assert err == 0.0


def test_compose_with_identity_map_is_identity():
    rng = np.random.default_rng(5)
    f = sa.TruncSeq(-6, rng.standard_normal(13) + 1j * rng.standard_normal(13))
    g = cm.compose_transform(f, cm.Blaschke(0))
    assert sa.l1_diff(f, g) < 1e-12


def test_compose_matches_pointwise_composition():
    rng = np.random.default_rng(6)
    f = sa.TruncSeq(-5, rng.standard_normal(11))
    phi = cm.Blaschke(0.4)
    g, err = cm.compose(f, phi, 1e-11)
    assert err <= 1e-11
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

