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


def _literal_post_init(lo, values):
    """(lo, values) as the scan-everything ``TruncSeq.__post_init__`` stored them."""
    vals = np.asarray(values)
    vals = vals.astype(np.complex128 if np.iscomplexobj(vals) else np.float64, copy=False)
    if vals.ndim != 1:
        raise ParameterError("coefficients must form a one-dimensional array")
    nz = np.nonzero(vals)[0]
    if len(nz) == 0:
        lo, vals = 0, vals[:0]
    else:
        lo = lo + int(nz[0])
        vals = vals[nz[0]: nz[-1] + 1].copy()
    return int(lo), vals


def _assert_stored_as_the_literal_scan(lo, values):
    want_lo, want = _literal_post_init(lo, values)
    before = np.array(values, copy=True)
    f = sa.TruncSeq(lo, values)
    assert f.lo == want_lo and type(f.lo) is int
    assert f.values.dtype == want.dtype and f.values.tobytes() == want.tobytes()
    assert not f.values.flags.writeable and f.values.flags.c_contiguous
    if isinstance(values, np.ndarray):
        assert not np.shares_memory(f.values, values)
        if values.flags.writeable and values.size:
            values[...] = 7
            assert f.values.tobytes() == want.tobytes()
            values[...] = before


NAN, INF = float("nan"), float("inf")
EDGE_VALUES = [
    [], [0.0], [-0.0], [NAN], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [1.0, 2.0, 0.0],
    [-0.0, 1.0, -0.0], [-0.0, 0.0, 5.0, 0.0, -0.0], [NAN, 0.0, 1.0], [0.0, NAN], [NAN, NAN],
    [INF, 0.0, -INF], [1e-320, 3.0, -1e-320], [1j, 0.0, 2j], [0j, 1j, 0j], [complex(-0.0, 0.0), 1j],
    [complex(0.0, -0.0), 3.0, 1j], [complex(NAN, 0.0), 0j], [1j, 2.0 + 0j], [3, 0, 4], [0, 5, 0],
    [True, False, True], [False, True], [False, False]]


@pytest.mark.parametrize("values", EDGE_VALUES)
@pytest.mark.parametrize("form", ["list", "float64", "complex128", "native", "reversed_view"])
def test_truncseq_stores_what_the_literal_scan_stored(values, form):
    if form == "list":
        given_values = list(values)
    elif form == "native":
        given_values = np.array(values)  # int64, bool, float64 or complex128 as written
    else:
        dtype = np.complex128 if form == "complex128" or np.iscomplexobj(values) else np.float64
        given_values = np.array(values, dtype=dtype)
        if form == "reversed_view":
            given_values = given_values[::-1]
    _assert_stored_as_the_literal_scan(-4, given_values)


@pytest.mark.parametrize("values", [
    np.array([1.0, 2.0], dtype=">f8"), np.array([0.0, 2.0, 0.0], dtype=">f8"),
    np.arange(1.0, 9.0)[::3], np.ones(3, dtype=np.float32), np.array([1, 2], dtype=np.uint8),
    np.array([1 + 1j, 2j], dtype=np.complex64), np.array([1.0, 2.0]).view(np.recarray)])
def test_truncseq_converts_other_arrays_as_the_literal_scan_did(values):
    _assert_stored_as_the_literal_scan(3, values)


@pytest.mark.parametrize("values", [np.ones((2, 2)), np.ones((2, 2), dtype=np.complex128),
                                    np.ones((1, 3)), [[1.0, 2.0]], np.float64(2.0),
                                    np.array(0.0), np.zeros((0, 2))])
def test_truncseq_refuses_what_is_not_one_dimensional(values):
    with pytest.raises(ParameterError, match="one-dimensional"):
        _literal_post_init(0, values)
    with pytest.raises(ParameterError, match="one-dimensional"):
        sa.TruncSeq(0, values)


end_values = st.sampled_from([0.0, -0.0, NAN, INF, 1.0, -2.5, 1e-310, 1j, complex(0.0, -0.0)])


@given(st.integers(-50, 50), end_values, end_values,
       st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=12),
       st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_truncseq_equals_the_literal_scan_on_random_arrays(lo, first, last, middle,
                                                          as_complex, one_value):
    values = [first] if one_value else [first, *middle, last]
    dtype = np.complex128 if as_complex or np.iscomplexobj(values) else np.float64
    _assert_stored_as_the_literal_scan(lo, np.array(values, dtype=dtype))


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


def _literal_l1_trimmed(lo, values, budget):
    """The two-``np.cumsum`` formula of ``l1_trimmed``, for budgets >= 0."""
    if budget <= 0.0:
        return sa.TruncSeq(lo, values)
    mags = np.abs(values)
    left = int(np.searchsorted(np.cumsum(mags), budget / 2.0, side="right"))
    right = int(np.searchsorted(np.cumsum(mags[::-1]), budget / 2.0, side="right"))
    return sa.TruncSeq(lo + left, values[left: len(mags) - right])


@pytest.mark.parametrize("complex_values", [False, True])
def test_l1_trimmed_equals_the_two_cumsum_formula_also_at_ties(complex_values):
    rng = np.random.default_rng(6)
    for _ in range(200):
        vals = rng.standard_normal(int(rng.integers(1, 60))) * 10.0 ** rng.integers(-8, 3)
        if complex_values:
            vals = vals + 1j * rng.standard_normal(len(vals))
        vals[rng.random(len(vals)) < 0.2] = 0.0
        mags = np.abs(vals)
        ties = [2.0 * np.cumsum(mags)[k] for k in rng.integers(0, len(vals), 2)]
        ties += [2.0 * np.cumsum(mags[::-1])[k] for k in rng.integers(0, len(vals), 2)]
        for budget in [0.0, 1e-300, float(rng.uniform(0.0, 2.5 * mags.sum())), *ties, np.inf]:
            got, want = sa.l1_trimmed(-7, vals, budget), _literal_l1_trimmed(-7, vals, budget)
            assert got.same(want) and got.values.dtype == want.values.dtype
            assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("budget", [float("nan"), -1.0, -1e-300, -float("inf")])
def test_l1_trimmed_refuses_a_budget_that_is_not_at_least_zero(budget):
    # a NaN budget used to pass the "<= 0" test and trim every coefficient away
    with pytest.raises(ParameterError, match="budget"):
        sa.l1_trimmed(0, np.array([1.0, 2.0]), budget)


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


@pytest.mark.parametrize("w", [wt.constant(), wt.polynomial(2.0), wt.exppoly(1.5)])
@pytest.mark.parametrize("values, bad", [([1.0, np.nan, 2.0], 1), ([np.nan], 0),
                                         ([1.0, 0.0, 2j, np.inf, complex(0.0, np.nan)], 4)])
def test_weighted_norm_refuses_a_nan_coefficient_by_its_index(w, values, bad):
    # it was reported as "weighted coefficient overflow"
    for p in (1.0, 2.0):
        with pytest.raises(ParameterError, match=f"coefficient {bad} is nan"):
            sa.weighted_norm(sa.TruncSeq(0, values), p, w)


@pytest.mark.parametrize("f", [sa.TruncSeq(10, [1e308]), sa.TruncSeq(-2, [1.0, -np.inf]),
                               sa.TruncSeq(0, [1.0, complex(1.5e308, 1.5e308)])])
def test_weighted_norm_reports_a_true_overflow_as_a_range_error(f):
    # the suite turns a RuntimeWarning into an error: the overflow must not warn first
    with pytest.raises(RangeError, match="coefficient overflow"):
        sa.weighted_norm(f, 2.0, wt.polynomial(2.0))


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
    # left translation (l_x f)(n) = f(n - x) is convolution by delta(x)
    g = sa.convolve(f, sa.delta(x))
    if not f.is_zero:
        assert g.lo == f.lo + x
    np.testing.assert_array_equal(g.values, f.values)
    assert g.values.dtype == f.values.dtype


def test_translate_is_convolution_by_delta():
    rng = np.random.default_rng(1)
    for f in (sa.TruncSeq(-4, rng.standard_normal(9)),
              sa.TruncSeq(3, rng.standard_normal(40) + 1j * rng.standard_normal(40))):
        for method in ("direct", "fft"):
            g = sa.convolve(f, sa.delta(7), method)
            assert g.lo == f.lo + 7 and g.values.dtype == f.values.dtype
            assert sa.l1_diff(g, sa.TruncSeq(f.lo + 7, f.values)) < 1e-12


@pytest.mark.parametrize("w", [wt.constant(), wt.subexp(0.7)])
@given(f=seqs(lo_range=10), x=st.integers(-15, 15))
@settings(max_examples=40, deadline=None)
def test_translation_norm_bound_for_submultiplicative_weights(w, f, x):
    # ||l_x f|| <= w(x) ||f|| holds whenever the weight is submultiplicative
    for p in (1.0, 2.0):
        lhs = sa.weighted_norm(sa.convolve(f, sa.delta(x)), p, w)
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
    rhs = sa.convolve(g - sa.delta(0, g[0]), sa.delta(-1))
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
