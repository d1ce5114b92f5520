"""Truncated sequences: convolution, norms, derivatives, circle sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convalg import seqalg as sa
from convalg import weights as wt
from convalg.errors import ParameterError, RangeError, SizeError

CONV_TOL = 1e-9

complex_ints = st.complex_numbers(
    min_magnitude=0, max_magnitude=8).map(lambda z: complex(round(z.real), round(z.imag)))


def seqs(max_len=24, lo_range=20, elements=None):
    if elements is None:
        elements = st.complex_numbers(min_magnitude=0, max_magnitude=1e3,
                                      allow_nan=False, allow_infinity=False)
    return st.builds(
        lambda lo, vals: sa.TruncSeq(lo, np.array(vals, dtype=complex)),
        st.integers(-lo_range, lo_range),
        st.lists(elements, min_size=1, max_size=max_len),
    )


# ----------------------------------------------------------------- TruncSeq


def test_trailing_and_leading_zeros_are_trimmed():
    f = sa.TruncSeq(-3, np.array([0.0, 0.0, 2.0, 0.0, 1.0, 0.0]))
    assert f.lo == -1 and f.hi == 1
    np.testing.assert_array_equal(f.values, np.array([2.0, 0.0, 1.0], dtype=complex))


def test_all_zero_collapses_to_canonical_zero():
    f = sa.TruncSeq(5, np.zeros(4))
    assert f.is_zero
    assert f.support_len == 0
    assert f.same(sa.TruncSeq(0, []))


def test_getitem_outside_window_is_zero():
    f = sa.delta(3, 2.0)
    assert f[3] == 2.0
    assert f[0] == 0.0
    assert f[-100] == 0.0


def test_addition_aligns_supports():
    f = sa.delta(-2, 1.0) + sa.delta(4, 3.0)
    assert f.lo == -2 and f.hi == 4
    assert f[-2] == 1.0 and f[4] == 3.0 and f[1] == 0.0


def test_subtraction_can_shrink_support():
    f = sa.delta(0) + sa.delta(1)
    g = f - sa.delta(1)
    assert g.same(sa.delta(0))


def test_scalar_multiplication():
    f = 2.0 * sa.delta(1) * 3.0
    assert f[1] == 6.0


@pytest.mark.parametrize("values, dtype", [
    ([1.0, 2.0], np.float64), ([1, 2], np.float64), (np.ones(2, dtype=np.float32), np.float64),
    ([1.0 + 0j, 2.0], np.complex128), ([1j], np.complex128)])
def test_real_values_are_stored_as_float64(values, dtype):
    assert sa.TruncSeq(0, values).values.dtype == dtype


def test_delta_keeps_the_dtype_of_its_value():
    assert sa.delta(3).values.dtype == np.float64
    assert sa.delta(3, 2.0).values.dtype == np.float64
    assert sa.delta(3, 1.0 + 0j).values.dtype == np.complex128
    assert sa.delta(3, 2j).values.dtype == np.complex128


def test_values_are_read_only():
    f = sa.delta(0)
    with pytest.raises(ValueError):
        f.values[0] = 5.0


# --------------------------------------------------------------- convolution


def test_convolution_hand_oracle():
    # (d_1 + 0.5 d_{-2})^2 = d_2 + 1.0 d_{-1} + 0.25 d_{-4}
    f = sa.delta(1) + sa.delta(-2, 0.5)
    g = sa.convolve(f, f)
    assert g.lo == -4 and g.hi == 2
    assert g[2] == pytest.approx(1.0)
    assert g[-1] == pytest.approx(1.0)
    assert g[-4] == pytest.approx(0.25)
    assert g[0] == 0.0


def test_delta_is_convolution_identity():
    f = sa.TruncSeq(-3, np.arange(1.0, 8.0))
    assert sa.convolve(f, sa.delta(0)).same(f)


def test_convolve_with_zero():
    f = sa.delta(2)
    assert sa.convolve(f, sa.TruncSeq(0, [])).is_zero


@given(seqs(), seqs())
@settings(max_examples=60, deadline=None)
def test_direct_and_fft_convolution_agree(f, g):
    a = sa.convolve(f, g, method="direct")
    b = sa.convolve(f, g, method="fft")
    assert sa.l1_diff(a, b) <= CONV_TOL * max(1.0, sa.l1_norm(a))


@given(seqs(max_len=12), seqs(max_len=12), seqs(max_len=12))
@settings(max_examples=40, deadline=None)
def test_convolution_is_associative(f, g, h):
    a = sa.convolve(sa.convolve(f, g), h)
    b = sa.convolve(f, sa.convolve(g, h))
    scale = max(1.0, sa.l1_norm(f) * sa.l1_norm(g) * sa.l1_norm(h))
    assert sa.l1_diff(a, b) <= 1e-9 * scale


def test_convolution_commutes():
    rng = np.random.default_rng(0)
    f = sa.TruncSeq(-5, rng.standard_normal(11))
    g = sa.TruncSeq(2, rng.standard_normal(7))
    assert sa.l1_diff(sa.convolve(f, g), sa.convolve(g, f)) < 1e-12


def _real_pair():
    rng = np.random.default_rng(3)
    return (sa.TruncSeq(-40, rng.standard_normal(700) / 700),
            sa.TruncSeq(5, rng.standard_normal(300) / 300))


@pytest.mark.parametrize("method", ["direct", "fft"])
def test_real_route_agrees_with_the_complex_route(method):
    f, g = _real_pair()
    real = sa.convolve(f, g, method)
    cplx = sa.convolve(sa.TruncSeq(f.lo, f.values + 0j), sa.TruncSeq(g.lo, g.values + 0j), method)
    assert real.values.dtype == np.float64 and cplx.values.dtype == np.complex128
    assert sa.l1_diff(real, cplx) <= 1e-12
    mixed = sa.convolve(f, sa.TruncSeq(g.lo, g.values + 0j), method)
    assert mixed.values.dtype == np.complex128
    assert sa.l1_diff(mixed, cplx) <= 1e-12


@pytest.mark.parametrize("complex_values", [False, True])
def test_self_convolution_transforms_once_and_equals_a_copy(monkeypatch, complex_values):
    f, _ = _real_pair()
    if complex_values:
        f = sa.TruncSeq(f.lo, f.values + 1j * f.values[::-1])
    copy = sa.TruncSeq(f.lo, f.values.copy())
    calls = []
    dft = sa._dft
    monkeypatch.setattr(sa, "_dft", lambda *args: calls.append(args) or dft(*args))
    square = sa.convolve(f, f, "fft")
    assert len(calls) == 1
    other = sa.convolve(f, copy, "fft")
    assert len(calls) == 3
    assert square.same(other) and square.values.dtype == f.values.dtype


def test_result_length_cap():
    big = sa.TruncSeq(0, np.ones((1 << 21) + 2))
    with pytest.raises(SizeError):
        sa.convolve(big, big)


def test_unknown_method_rejected():
    with pytest.raises(ParameterError):
        sa.convolve(sa.delta(0), sa.delta(0), method="karatsuba")
    with pytest.raises(ParameterError):  # also when a factor is zero
        sa.convolve(sa.TruncSeq(0, []), sa.delta(1), "bogus")


@pytest.mark.parametrize("budget", [-1.0, -1e-300, float("nan"), -float("inf")])
def test_convolve_refuses_a_budget_below_zero(budget):
    with pytest.raises(ParameterError):
        sa.convolve(sa.delta(0), sa.delta(0), budget=budget)


@pytest.mark.parametrize("method", ["direct", "fft"])
def test_convolve_budget_above_the_mass_gives_zero_in_the_operands_dtype(method):
    rng = np.random.default_rng(3)
    f, g = sa.TruncSeq(-4, rng.standard_normal(40)), sa.TruncSeq(2, rng.standard_normal(50))
    for a, b in ((f, g), (f * 1j, g)):
        mass = sa.l1_norm(sa.convolve(a, b, method))
        h = sa.convolve(a, b, method, budget=1.01 * mass)
        assert h.is_zero and h.values.dtype == np.result_type(a.values, b.values)


def test_convolve_budget_zero_is_the_uncut_product():
    rng = np.random.default_rng(4)
    f = sa.TruncSeq(-3, rng.standard_normal(30))
    g = sa.TruncSeq(5, rng.standard_normal(600) + 1j * rng.standard_normal(600))
    direct = np.convolve(f.values, g.values)
    assert sa.convolve(f, g, "direct", budget=0.0).same(sa.TruncSeq(f.lo + g.lo, direct))


def test_l1_trimmed_hand_values():
    vals = np.array([0.0, 1e-3, 2e-3, 1.0, 5e-4, 0.0])
    cut = sa.l1_trimmed(7, vals, 4e-3)  # each end may drop up to 2e-3
    assert cut.same(sa.TruncSeq(9, np.array([2e-3, 1.0])))
    assert sa.l1_trimmed(7, vals, 0.0).same(sa.TruncSeq(7, vals))
    assert sa.l1_trimmed(7, vals, 2.0).same(sa.TruncSeq(10, np.array([1.0])))
    assert sa.l1_trimmed(7, vals, 2.1).is_zero


def test_l1_trimmed_drops_the_most_it_may_at_each_end():
    rng = np.random.default_rng(5)
    for _ in range(50):
        vals = rng.standard_normal(int(rng.integers(1, 40))) * 10.0 ** rng.integers(-6, 1)
        budget = float(rng.uniform(0.0, 2.0 * np.abs(vals).sum()))
        cut = sa.l1_trimmed(0, vals, budget)
        if cut.is_zero:
            continue
        left, right = cut.lo, len(vals) - 1 - cut.hi
        mags = np.abs(vals)
        assert mags[:left].sum() <= budget / 2 and mags[:left + 1].sum() > budget / 2
        tail = mags[::-1]
        assert tail[:right].sum() <= budget / 2 and tail[:right + 1].sum() > budget / 2
        np.testing.assert_array_equal(cut.values, vals[left: len(vals) - right])


# -------------------------------------------------------------------- norms


def test_weighted_norm_hand_values():
    f = sa.delta(1) + sa.delta(-2)
    w = wt.polynomial(2.0)
    assert sa.weighted_norm(f, 1.0, w) == pytest.approx(5.0)
    assert sa.weighted_norm(f, 2.0, w) == pytest.approx(np.sqrt(17.0))


def test_weighted_norm_scale_safe_for_tiny_values():
    f = sa.delta(0, 1e-210) + sa.delta(1, 1e-210)
    n = sa.weighted_norm(f, 2.0, wt.constant())
    assert n == pytest.approx(np.sqrt(2.0) * 1e-210, rel=1e-12)


def test_weighted_norm_overflow_names_the_index():
    f = sa.delta(500)
    with pytest.raises(RangeError, match="500"):
        sa.weighted_norm(f, 1.0, wt.exppoly(10.0))


def test_weighted_norm_requires_p_at_least_one():
    with pytest.raises(ParameterError):
        sa.weighted_norm(sa.delta(0), 0.5, wt.constant())


def test_l1_norm_and_diff():
    f = sa.delta(0, 3.0) + sa.delta(2, -4.0)
    assert sa.l1_norm(f) == pytest.approx(7.0)
    assert sa.l1_diff(f, f) == 0.0


def test_young_bound_p2_via_algebra_constant():
    # ||f*g||_{2,w} <= C^(1/2) ||f|| ||g|| with C from the window constant
    rng = np.random.default_rng(9)
    w = wt.polynomial(2.0)
    C = wt.algebra_constant(w, 2.0, 40).constant
    for _ in range(20):
        f = sa.TruncSeq(int(rng.integers(-20, 1)), rng.standard_normal(12))
        g = sa.TruncSeq(int(rng.integers(-20, 1)), rng.standard_normal(15))
        lhs = sa.weighted_norm(sa.convolve(f, g), 2.0, w)
        rhs = np.sqrt(C) * sa.weighted_norm(f, 2.0, w) \
            * sa.weighted_norm(g, 2.0, w)
        assert lhs <= rhs * (1 + 1e-12)


def test_young_bound_p1_via_weak_submultiplicativity():
    # at p=1 the convolution inequality constant is the submult. max ratio
    rng = np.random.default_rng(10)
    w = wt.polynomial(2.0)
    C = wt.check_submultiplicative(w, window=40).max_ratio
    for _ in range(20):
        f = sa.TruncSeq(int(rng.integers(-20, 1)), rng.standard_normal(12))
        g = sa.TruncSeq(int(rng.integers(-20, 1)), rng.standard_normal(15))
        lhs = sa.weighted_norm(sa.convolve(f, g), 1.0, w)
        rhs = C * sa.weighted_norm(f, 1.0, w) * sa.weighted_norm(g, 1.0, w)
        assert lhs <= rhs * (1 + 1e-12)


# -------------------------------------------------------------- translation


@given(seqs(), st.integers(-40, 40))
@settings(max_examples=50, deadline=None)
def test_translate_shifts_support_exactly(f, x):
    g = sa.translate(f, x)
    if not f.is_zero:
        assert g.lo == f.lo + x
    np.testing.assert_array_equal(g.values, f.values)


def test_translate_is_convolution_by_delta():
    rng = np.random.default_rng(1)
    f = sa.TruncSeq(-4, rng.standard_normal(9))
    assert sa.l1_diff(sa.translate(f, 7), sa.convolve(f, sa.delta(7))) < 1e-12


@pytest.mark.parametrize("w", [wt.constant(), wt.subexp(0.7)])
@given(f=seqs(lo_range=10), x=st.integers(-15, 15))
@settings(max_examples=40, deadline=None)
def test_translation_norm_bound_for_submultiplicative_weights(w, f, x):
    # ||l_x f|| <= w(x) ||f|| holds whenever the weight is submultiplicative
    for p in (1.0, 2.0):
        lhs = sa.weighted_norm(sa.translate(f, x), p, w)
        rhs = w.eval(x) * sa.weighted_norm(f, p, w)
        assert lhs <= rhs * (1 + 1e-12)


# -------------------------------------------------- derivative, antiderivative


def test_formal_derivative_hand_oracle():
    # f = d_0 + 2 d_1 + 3 d_2  ->  f'_n = (n+1) f_{n+1}: f' = 2 d_0 + 6 d_1
    f = sa.TruncSeq(0, np.array([1.0, 2.0, 3.0]))
    g = sa.formal_derivative(f)
    assert g.lo == 0 and g.hi == 1
    assert g[0] == 2.0 and g[1] == 6.0


def test_formal_derivative_of_constant_is_zero():
    assert sa.formal_derivative(sa.delta(0, 4.0)).is_zero


def test_antiderivative_zeroes_the_constant_term():
    g = sa.TruncSeq(-2, np.array([4.0, 0.0, 5.0, 3.0]))
    f = sa.antiderivative(g)
    assert f[0] == 0.0
    assert f[-2] == pytest.approx(-2.0)
    assert f[1] == pytest.approx(3.0)


@given(seqs(max_len=16, elements=complex_ints))
@settings(max_examples=50, deadline=None)
def test_derivative_inverts_antiderivative(g):
    # d/dz of the antiderivative returns g with the constant term removed,
    # shifted down one index (g_n/n is not exact in floats, so use l1)
    lhs = sa.formal_derivative(sa.antiderivative(g))
    rhs = sa.translate(g - sa.delta(0, g[0]), -1)
    assert sa.l1_diff(lhs, rhs) <= 1e-13 * max(1.0, sa.l1_norm(g))


@given(seqs(max_len=10, elements=complex_ints),
       seqs(max_len=10, elements=complex_ints))
@settings(max_examples=50, deadline=None)
def test_leibniz_rule(f, g):
    # (f*g)' = f'*g + f*g', exactly on integer data with direct convolution
    lhs = sa.formal_derivative(sa.convolve(f, g, method="direct"))
    rhs = sa.convolve(sa.formal_derivative(f), g, method="direct") \
        + sa.convolve(f, sa.formal_derivative(g), method="direct")
    assert lhs.same(rhs)


# ----------------------------------------------------------- circle samples


def test_gelfand_sample_monomial():
    vals = sa.gelfand_sample(sa.delta(1), 4)
    np.testing.assert_allclose(vals, [1.0, 1j, -1.0, -1j], atol=1e-14)


def test_gelfand_sample_wraps_indices():
    np.testing.assert_allclose(sa.gelfand_sample(sa.delta(5), 4),
                               sa.gelfand_sample(sa.delta(1), 4), atol=1e-14)


def test_gelfand_sample_negative_index():
    vals = sa.gelfand_sample(sa.delta(-1), 4)
    np.testing.assert_allclose(vals, [1.0, -1j, -1.0, 1j], atol=1e-14)


def test_gelfand_transform_is_multiplicative():
    rng = np.random.default_rng(3)
    f = sa.TruncSeq(-4, rng.standard_normal(9))
    g = sa.TruncSeq(-2, rng.standard_normal(7))
    lhs = sa.gelfand_sample(sa.convolve(f, g), 32)
    rhs = sa.gelfand_sample(f, 32) * sa.gelfand_sample(g, 32)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_gelfand_sample_requires_positive_m():
    with pytest.raises(ParameterError):
        sa.gelfand_sample(sa.delta(0), 0)
