"""Composition operators: matrices, norms, blow-up and distortion runs."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from convalg import circlemaps as cm
from convalg import compops as co
from convalg import seqalg as sa
from convalg import weights as wt
from convalg.errors import (AccuracyError, AdmissibilityError, ParameterError,
                            RangeError, SizeError)

NORM_REL_TOL = 1e-10  # op_norm_l2 vs dense SVD
RATIO_REL_TOL = 1e-6  # frozen column ratios


def random_seq(rng, lo, hi):
    n = hi - lo + 1
    return sa.TruncSeq(lo, rng.standard_normal(n) + 1j * rng.standard_normal(n))


# ----------------------------------------------------- standard automorphisms


def test_standard_automorphism_hand_values():
    lam = 1j
    f = sa.delta(2, 3.0)
    direct = co.standard_automorphism(f, lam)
    assert sa.l1_diff(direct, sa.delta(2, 3.0 * lam ** 2)) < 1e-12
    reflected = co.standard_automorphism(f, lam, reflect=True)
    assert sa.l1_diff(reflected, sa.delta(-2, 3.0 * lam ** -2)) < 1e-12


def test_standard_automorphism_requires_unimodular_lambda():
    for lam in (0.9, float("nan"), complex(float("nan"), 1.0)):
        with pytest.raises(ParameterError):
            co.standard_automorphism(sa.delta(0), lam)


def test_standard_automorphism_is_isometric_and_multiplicative():
    rng = np.random.default_rng(7)
    lam = complex(np.exp(0.31j))
    for p in (1.0, 2.0, 3.0):
        for a in (1.0, 2.0):
            w = wt.polynomial(a)
            for reflect in (False, True):
                f = random_seq(rng, -12, 15)
                g = random_seq(rng, -9, 8)
                tf = co.standard_automorphism(f, lam, reflect)
                assert sa.weighted_norm(tf, p, w) == pytest.approx(
                    sa.weighted_norm(f, p, w), rel=1e-12)
                d = sa.l1_diff(
                    co.standard_automorphism(sa.convolve(f, g), lam, reflect),
                    sa.convolve(co.standard_automorphism(f, lam, reflect),
                                co.standard_automorphism(g, lam, reflect)))
                assert d < 1e-10


def test_reflection_is_an_involution():
    rng = np.random.default_rng(8)
    f = random_seq(rng, -5, 5)
    twice = co.standard_automorphism(
        co.standard_automorphism(f, 1.0, reflect=True), 1.0, reflect=True)
    assert sa.l1_diff(twice, f) < 1e-14


@pytest.mark.parametrize("lam", [1.0, -1.0])
@pytest.mark.parametrize("reflect", [False, True])
def test_standard_automorphism_at_real_lambda_is_an_exact_sign_flip(lam, reflect):
    f = sa.TruncSeq(-1000, np.random.default_rng(9).standard_normal(2001))
    g = sa.TruncSeq(-1000, f.values[::-1]) if reflect else f
    tf = co.standard_automorphism(f, lam, reflect)
    assert tf.values.dtype == np.float64
    assert tf.same(sa.TruncSeq(-1000, g.values * lam ** np.abs(g.indices())))


# ------------------------------------------------------------ matrix columns


def test_build_matrix_columns_are_map_powers():
    phi = cm.Blaschke(0.4)
    mat = co.build_matrix(phi, (-6, 6), tol=1e-12)
    assert mat.n_lo == -6 and mat.n_hi == 6
    for n in (-6, -1, 0, 3, 6):
        col = sa.TruncSeq(mat.m_lo, mat.entries[:, n - mat.n_lo])
        assert sa.l1_diff(col, cm.power_coeffs(phi, n, tol=1e-12)) < 1e-10


def test_monomial_matrix_is_a_phase_line():
    # b_0 is the monomial z: column n holds the single entry 1 on row n
    mat = co.build_matrix(cm.Blaschke(0), (-3, 3))
    assert (mat.m_lo, mat.m_hi) == (-3, 3)
    assert np.array_equal(mat.entries, np.eye(7))


def test_matrix_entry_cap():
    with pytest.raises(SizeError):
        co.build_matrix(cm.Blaschke(0.999), (-4000, 4000), tol=1e-14)


@pytest.mark.parametrize("r, n_range", [(0.5, (-20, 20)), (0.5, (3, 12)),
                                        (-0.7, (-12, -3)), (0.7, (-4, 9))])
def test_entry_cap_refuses_exactly_the_oversize_builds(monkeypatch, r, n_range):
    # the early refusal fires exactly when the finished matrix exceeds the cap
    full = co.build_matrix(cm.Blaschke(r), n_range)
    size = full.entries.size
    monkeypatch.setattr(co, "MAX_MATRIX_ENTRIES", size - 1)
    with pytest.raises(SizeError):
        co.build_matrix(cm.Blaschke(r), n_range)
    monkeypatch.setattr(co, "MAX_MATRIX_ENTRIES", size)
    capped = co.build_matrix(cm.Blaschke(r), n_range)
    assert (capped.m_lo, capped.m_hi) == (full.m_lo, full.m_hi)
    assert np.array_equal(capped.entries, full.entries)


@pytest.mark.parametrize("r", [0.3, 0.5, 0.9])
def test_inverse_map_matrix_is_the_sign_conjugate(r):
    # b_{-r}(z) = -b_r(-z), so C_{b_-r} = S C_{b_r} S for (Sf)(n) = (-1)^n f(n)
    N, tol = 50, 1e-10
    mat, neg = (co.build_matrix(cm.Blaschke(s), (-N, N), tol) for s in (r, -r))
    assert (neg.m_lo, neg.m_hi) == (mat.m_lo, mat.m_hi)
    signs = (-1.0) ** np.abs(np.arange(mat.m_lo, mat.m_hi + 1))
    conjugated = signs[:, None] * mat.entries * (-1.0) ** np.abs(np.arange(-N, N + 1))
    bound = cm.power_l1_bound(cm.Blaschke(r), N) * np.expm1(0.26 * tol)
    assert np.all(np.sum(np.abs(neg.entries - conjugated), axis=0) <= 2.0 * bound)


@pytest.mark.parametrize("r, n_range", [(0.5, (-40, 40)), (0.9, (0, 30)), (-0.3, (-25, -3)),
                                        (0.0, (-5, 5)), (0.7, (2, 2))])
def test_build_matrix_entries_are_column_major(r, n_range):
    mat = co.build_matrix(cm.Blaschke(r), n_range)
    assert mat.entries.flags.f_contiguous


@pytest.mark.parametrize("r, N", [(0.5, 500), (0.9, 250)])
def test_blaschke_matrices_have_exactly_real_entries(r, N):
    # the complex FFT route left imaginary parts of 3.0e-15 and 1.9e-15 here
    mat = co.build_matrix(cm.Blaschke(r), (-N, N))
    assert mat.entries.dtype == np.float64


@pytest.mark.parametrize("r", [0.3, 0.9])
def test_build_matrix_columns_equal_power_coeffs(r):
    # at r = 0.3 each column step is a direct convolution, at r = 0.9 an FFT one
    phi, N, tol = cm.Blaschke(r), 40, 1e-13
    mat = co.build_matrix(phi, (-N, N), tol)
    for n in range(-N, N + 1):
        col = sa.TruncSeq(mat.m_lo, mat.entries[:, n + N])
        assert sa.l1_diff(col, cm.power_coeffs(phi, n, tol)) <= 1e-12


@pytest.mark.parametrize("phi, n_range", [
    (cm.Blaschke(0.5), (-40, 40)),
    (cm.Blaschke(-0.7), (-12, -3)),  # no column n >= 0: the reflections of running powers
], ids=["b0.5", "b-0.7-negative-only"])
def test_negative_columns_are_exact_conjugate_reflections(phi, n_range):
    # 1/phi = conj(phi) on the circle: column -n holds conj(phi^n) on rows flipped
    mat = co.build_matrix(phi, n_range)
    powers = list(cm.running_powers(phi, max(map(abs, n_range)), 1e-10))
    for n in range(max(1, -mat.n_hi), -mat.n_lo + 1):
        p, expected = powers[n], np.zeros(mat.m_hi - mat.m_lo + 1, dtype=mat.entries.dtype)
        expected[-p.hi - mat.m_lo: -p.lo - mat.m_lo + 1] = np.conj(p.values[::-1])
        assert np.array_equal(mat.entries[:, -n - mat.n_lo], expected)
        if n <= mat.n_hi:
            assert mat.m_lo == -mat.m_hi
            assert np.array_equal(mat.entries[:, -n - mat.n_lo],
                                  np.conj(mat.entries[::-1, n - mat.n_lo]))


def test_running_product_transforms_its_base_once_per_fft_length(monkeypatch):
    calls = []
    dft = sa._dft
    monkeypatch.setattr(sa, "_dft", lambda *args: calls.append(args) or dft(*args))
    co.build_matrix(cm.Blaschke(0.9), (-60, 60))
    base = calls[0][0]  # the first FFT step transforms the base before the column
    base_lengths = [nfft for values, nfft, _ in calls if values is base]
    assert len(calls) > 2 * len(base_lengths) > 0
    assert base_lengths == sorted(set(nfft for _, nfft, _ in calls))


def test_monomial_columns_fill_their_rows_under_the_entry_cap(monkeypatch):
    # the monomial b_0 = z on columns 2..9 fills rows 2..9, one entry a column,
    # and rows 0 and 1 stay out because their columns are not requested
    phi = cm.Blaschke(0)
    full = co.build_matrix(phi, (2, 9))
    assert (full.m_lo, full.m_hi) == (2, 9)
    assert np.array_equal(full.entries, np.eye(8))
    with pytest.raises(SizeError):
        co.build_matrix(phi, (-3600, 3600))  # 7201 x 7201
    monkeypatch.setattr(co, "MAX_MATRIX_ENTRIES", full.entries.size - 1)
    with pytest.raises(SizeError):
        co.build_matrix(phi, (2, 9))


def count_steps(monkeypatch) -> list:
    """Record each running-product step (one right multiplication) from here on."""
    steps = []
    call = sa.RightMultiplier.__call__
    monkeypatch.setattr(sa.RightMultiplier, "__call__",
                        lambda self, *args, **kwargs: steps.append(1) or call(self, *args, **kwargs))
    return steps


@pytest.mark.parametrize("r", [0.99, -0.99])
def test_oversize_request_is_refused_before_the_first_power(monkeypatch, r):
    # the benchmark's oversize request, which the running check alone refuses after 169 steps
    steps, yields = count_steps(monkeypatch), []
    running = co.running_powers

    def counted(*args, **kwargs):
        for cur in running(*args, **kwargs):
            yields.append(1)
            yield cur

    monkeypatch.setattr(co, "running_powers", counted)
    with pytest.raises(SizeError, match="x601 entries"):
        co.build_matrix(cm.Blaschke(r), (-300, 300))
    assert steps == [] and yields == []


def test_r_near_one_request_is_refused_before_the_first_power(monkeypatch):
    # test_matrix_entry_cap's request; the grid of its probe comes from the Cauchy bound
    phi = cm.Blaschke(0.999)
    lo, hi = cm.certified_support(phi, 2, 4000, 1e-14)
    assert lo == 0 and (hi + 1) * 8001 > co.MAX_MATRIX_ENTRIES
    steps, yields = count_steps(monkeypatch), []
    running = co.running_powers

    def counted(*args, **kwargs):
        for cur in running(*args, **kwargs):
            yields.append(1)
            yield cur

    monkeypatch.setattr(co, "running_powers", counted)
    with pytest.raises(SizeError, match="x8001 entries"):
        co.build_matrix(phi, (-4000, 4000), tol=1e-14)
    assert steps == [] and yields == []


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_a_bad_tolerance_is_refused_before_the_sampled_column(tol):
    with pytest.raises(ParameterError, match="positive finite tolerance"):
        co.build_matrix(cm.Blaschke(0.99), (-300, 300), tol)


def test_small_cap_is_refused_by_the_sampled_column(monkeypatch):
    # the benchmark tests' small oversize request, under their cap of 1e5 entries
    monkeypatch.setattr(co, "MAX_MATRIX_ENTRIES", 100_000)
    steps = count_steps(monkeypatch)
    with pytest.raises(SizeError):
        co.build_matrix(cm.Blaschke(0.9), (-60, 60))
    assert steps == []


def sampled_column_by_loop(r, n_lo, n_hi, cap):
    """A scalar reference of the span prediction: (n, pos, neg) of the sampled column, or None."""
    alpha = (1.0 + abs(r)) / (1.0 - abs(r))
    bottom = 0 if n_lo <= 0 <= n_hi else min(abs(n_lo), abs(n_hi))
    for n in range(max(1, bottom), max(abs(n_lo), abs(n_hi)) + 1):
        pos, neg = n_lo <= n <= n_hi, n_lo <= -n <= n_hi
        span = 2 * math.floor(alpha * n) if pos and neg else \
            math.floor(alpha * n) - math.ceil(n / alpha)
        if span * (n_hi - n_lo + 1) > cap:
            return n, pos, neg
    return None


# the entry-cap requests of tools/outputs_digest.py (REFUSALS), then one-sided ranges; in the
# last three the sampled column lies past the first block of predicted spans
SAMPLED_COLUMN_REQUESTS = [(r, n_range, cap) for r in (0.5, -0.9, 0.99, 0.0)
                           for n_range in ((-60, 60), (5, 40), (-40, -5), (-20, 35))
                           for cap in (2_000, 20_000, 200_000)]
SAMPLED_COLUMN_REQUESTS += [(r, (-300, 300), co.MAX_MATRIX_ENTRIES) for r in (0.99, -0.99)]
SAMPLED_COLUMN_REQUESTS += [(0.9, (0, 300), 100_000), (-0.9, (-300, 0), 100_000),
                            (0.6, (7, 7), 20), (0.6, (-7, -7), 20), (0.2, (1, 40), 10**9),
                            (0.001, (1, 9000), 180_000), (-0.001, (-9000, -2), 180_000),
                            (0.001, (-6000, 6000), 120_010_000)]


@pytest.mark.parametrize("r, n_range, cap", SAMPLED_COLUMN_REQUESTS)
def test_sampled_column_is_the_first_predicted_over_the_cap(monkeypatch, r, n_range, cap):
    phi = cm.Blaschke(r)
    n_lo, n_hi = n_range
    top, tol = max(abs(n_lo), abs(n_hi)), 1e-10
    expected = sampled_column_by_loop(r, n_lo, n_hi, cap) if r else None
    probes, refused = [], False
    monkeypatch.setattr(co, "MAX_MATRIX_ENTRIES", cap)
    monkeypatch.setattr(co, "certified_support",
                        lambda *args: probes.append(args[1]) or cm.certified_support(*args))
    try:
        co._refuse_by_sample(phi, n_lo, n_hi, 0 if n_lo <= 0 <= n_hi else min(map(abs, n_range)),
                             top, tol)
    except SizeError:
        refused = True
    assert probes == ([] if expected is None else [expected[0]])
    rows = None if expected is None else cm.certified_support(phi, expected[0], top, tol)
    if rows is not None:
        n, pos, neg = expected
        lo, hi = rows if pos else (-rows[1], -rows[0])
        if pos and neg:
            lo, hi = min(lo, -hi), max(hi, -lo)
        assert refused == ((hi - lo + 1) * (n_hi - n_lo + 1) > cap)
    else:
        assert not refused


@pytest.mark.parametrize("r, n_range, tol", [
    (0.5, (-40, 40), 1e-10), (0.9, (-60, 60), 1e-10), (-0.7, (-12, -3), 1e-10),
    (0.3, (5, 30), 1e-10), (0.7, (-4, 9), 1e-10), (-0.95, (-20, 35), 1e-10),
    (0.1, (-100, 100), 1e-10), (0.99, (-30, 30), 1e-13), (-0.6, (-50, 10), 1e-6),
])
def test_certified_rows_are_nonzero_in_the_finished_matrix(r, n_range, tol):
    # the certified hull of each column lies inside the matrix rows, and its ends are nonzero
    phi = cm.Blaschke(r)
    mat = co.build_matrix(phi, n_range, tol)
    top = max(map(abs, n_range))
    certified = 0
    for n in range(n_range[0], n_range[1] + 1):
        rows = cm.certified_support(phi, abs(n), top, tol) if n else None
        if rows is None:
            continue
        lo, hi = rows if n > 0 else (-rows[1], -rows[0])
        assert mat.m_lo <= lo <= hi <= mat.m_hi
        col = mat.entries[:, n - mat.n_lo]
        assert col[lo - mat.m_lo] != 0.0 and col[hi - mat.m_lo] != 0.0
        certified += 1
    assert certified >= (mat.n_hi - mat.n_lo) // 2


def test_running_powers_from_a_start_are_the_tail_of_the_walk():
    phi = cm.Blaschke(0.6)
    whole = list(cm.running_powers(phi, 30))
    tail = list(cm.running_powers(phi, 30, start=12))
    assert len(tail) == 19 and all(a.same(b) for a, b in zip(tail, whole[12:]))


@pytest.mark.parametrize("n_range, m_lo, steps_taken", [
    ((100000, 100001), 100000, 1), ((-100001, -100000), -100001, 1), ((-2, 3), -2, 3)])
def test_monomial_columns_cost_one_step_a_column(monkeypatch, n_range, m_lo, steps_taken):
    # b_0^n = z^n is exact, so the walk starts at the first requested power
    steps = count_steps(monkeypatch)
    mat = co.build_matrix(cm.Blaschke(0), n_range)
    ncols = n_range[1] - n_range[0] + 1
    assert (mat.m_lo, mat.m_hi) == (m_lo, m_lo + ncols - 1)
    assert np.array_equal(mat.entries, np.eye(ncols))
    assert len(steps) == steps_taken


# ------------------------------------------------------------- column ratios


def test_unweighted_column_ratios_are_one():
    # |b_r| = 1 on the circle, so every power has unit l^2 norm (Parseval)
    w = wt.constant()
    for n in (-50, -7, 1, 13, 50):
        assert co.column_ratio(cm.Blaschke(0.5), w, 2.0, n) == pytest.approx(
            1.0, abs=1e-6)


def test_case1_column_ratios_frozen():
    w = wt.subexp(0.5)
    expected = {9: 13.51743308, 16: 28.88608715, 25: 61.38834136}
    for n, val in expected.items():
        assert co.column_ratio(cm.Blaschke(0.5), w, 1.0, n) == pytest.approx(
            val, rel=RATIO_REL_TOL)


def test_column_ratio_keeps_the_cauchy_factor_where_the_tail_underflows():
    # the geometric tail underflows to 0 at the rows cut-off; before, the bound
    # dropped its factor M(rho)^n of about e^15 and returned E = 0 at K = 3687,
    # a ratio 4.4e-6 off
    phi, w = cm.Blaschke(0.1), wt.polynomial(2.0)
    col, err = cm.weighted_power(phi, 3000, w, 5e-11)
    assert 0.0 < err <= 5e-11
    exact = sa.weighted_norm(cm.power_coeffs(phi, 3000, 1e-13), 2.0, w) / w.eval(3000)
    assert co.column_ratio(phi, w, 2.0, 3000) == pytest.approx(exact, rel=1e-12)


# ---------------------------------------------------------------- blow-up


def test_blowup_case1_rows():
    rows = co.blowup_experiment(1, r=0.5, ns=[9, 16, 25], p=1.0, gamma=0.5)
    ratios = [row.ratio for row in rows]
    assert ratios == sorted(ratios)
    alpha = 1.5 / 0.5
    for row in rows:
        assert row.k_n == int(np.floor(alpha * row.n))
        assert row.lower_bound_ratio <= row.ratio * (1 + 1e-12)
        assert row.model_value > 0
    d = asdict(rows[0])
    assert set(d) == {"n", "ratio", "model_value", "k_n",
                      "lower_bound_ratio", "cr_empirical"}


def test_blowup_case2_rows_and_admissibility():
    rows = co.blowup_experiment(2, r=0.3, ns=[5, 10], p=1.0, a=2.0)
    assert rows[0].ratio == pytest.approx(330.5030607, rel=RATIO_REL_TOL)
    assert rows[1].ratio == pytest.approx(14001.65575, rel=RATIO_REL_TOL)
    with pytest.raises(AdmissibilityError):
        co.blowup_experiment(2, r=0.6, ns=[5], p=1.0, a=2.0)
    with pytest.raises(AdmissibilityError):
        co.blowup_experiment(2, r=0.5, ns=[5], p=1.0, a=2.0)  # boundary r=1/a


def test_blowup_parameter_validation():
    with pytest.raises(ParameterError):
        co.blowup_experiment(1, r=0.5, ns=[5], p=1.0)          # gamma missing
    with pytest.raises(ParameterError):
        co.blowup_experiment(2, r=0.3, ns=[5], p=1.0)          # a missing
    with pytest.raises(ParameterError):
        co.blowup_experiment(3, r=0.3, ns=[5], p=1.0, a=2.0)   # unknown case


def recorded_calls(monkeypatch, name):
    calls = []
    fn = getattr(co, name)
    monkeypatch.setattr(co, name, lambda *args, **kwargs: calls.append(args) or fn(*args, **kwargs))
    return calls


def test_blowup_refuses_a_bad_grid_before_any_ratio(monkeypatch):
    calls = recorded_calls(monkeypatch, "_column")
    with pytest.raises(ParameterError):
        co.blowup_experiment(1, 0.5, [9, 16, 0], gamma=0.5)
    assert calls == []


@pytest.mark.parametrize("p", [0.5, float("nan")])
def test_blowup_refuses_a_bad_p_before_any_power(monkeypatch, p):
    calls = recorded_calls(monkeypatch, "weighted_power")
    with pytest.raises(ParameterError):
        co.blowup_experiment(1, 0.5, [9, 16], p=p, gamma=0.5)
    assert calls == []


def test_blowup_reads_c_kn_from_the_one_column_build(monkeypatch):
    calls = recorded_calls(monkeypatch, "weighted_power")
    power_calls = recorded_calls(monkeypatch, "power_coeffs")
    rows = co.blowup_experiment(2, r=0.3, ns=[5, 10], p=1.0, a=2.0)
    assert [args[1] for args in calls] == [5, 10] and power_calls == []
    col = cm.power_coeffs(cm.Blaschke(0.3), 10, 1e-13)
    assert rows[1].cr_empirical == pytest.approx(abs(col[rows[1].k_n]) * 10 ** (1 / 3), rel=1e-9)


def test_column_ratio_refuses_a_bad_p_or_tol():
    for p, tol in ((0.5, 1e-10), (float("nan"), 1e-10), (1.0, 0.0), (1.0, float("nan"))):
        with pytest.raises(ParameterError):
            co.column_ratio(cm.Blaschke(0.5), wt.subexp(0.5), p, 5, tol)


def test_column_ratio_is_even_in_n_under_symmetric_weights():
    for w in (wt.polynomial(2.0), wt.subexp(0.5), wt.exppoly(1.5)):
        for p in (1.0, 3.0):
            assert co.column_ratio(cm.Blaschke(0.4), w, p, -12) == pytest.approx(
                co.column_ratio(cm.Blaschke(0.4), w, p, 12), rel=1e-12)


# ------------------------------------------------------------ operator norm


def test_op_norm_matches_dense_svd():
    w = wt.polynomial(2.0)
    for r in (0.05, 0.2):
        phi = cm.Blaschke(r)
        norm = co.op_norm_l2(phi, w, 64)
        mat = co.build_matrix(phi, (-64, 64), tol=1e-12)
        n_idx = np.arange(mat.n_lo, mat.n_hi + 1)
        m_idx = np.arange(mat.m_lo, mat.m_hi + 1)
        dense = mat.entries * w.eval_array(m_idx)[:, None] \
            / w.eval_array(n_idx)[None, :]
        top = np.linalg.svd(dense, compute_uv=False)[0]
        assert norm == pytest.approx(top, rel=NORM_REL_TOL)


def test_op_norm_of_identity_map_is_one():
    assert co.op_norm_l2(cm.Blaschke(0), wt.polynomial(2.0), 32) \
        == pytest.approx(1.0, rel=1e-8)


def weighted_matrix(phi, w, N):
    mat = co.build_matrix(phi, (-N, N))
    return mat.entries * w.eval_array(np.arange(mat.m_lo, mat.m_hi + 1))[:, None] \
        / w.eval_array(np.arange(-N, N + 1))[None, :]


@pytest.mark.parametrize("r", [0.02, 0.2])
def test_op_norm_matches_full_svd_at_256(r):
    w = wt.polynomial(2.0)
    phi = cm.Blaschke(r)
    top = np.linalg.svd(weighted_matrix(phi, w, 256), compute_uv=False)[0]
    assert co.op_norm_l2(phi, w, 256) == pytest.approx(top, rel=1e-10)


@pytest.mark.parametrize("r", [0.02, 0.2])
def test_op_norm_forward_equals_inverse(r):
    # b_{-r}(z) = -b_r(-z), so C_{b_r} and C_{b_{-r}} have the same norm
    # on the symmetric weight
    w = wt.polynomial(2.0)
    fwd = co.op_norm_l2(cm.Blaschke(r), w, 256)
    inv = co.op_norm_l2(cm.Blaschke(-r), w, 256)
    assert fwd == pytest.approx(inv, rel=1e-12)


def weighted_quadrant(r, w, N):
    """The even block op_norm_l2 solves, column-major as build_matrix writes it."""
    mat = co.build_matrix(cm.Blaschke(r), (0, N))
    rows, cols = np.arange(mat.m_hi + 1), np.arange(N + 1)
    B = np.asfortranarray(mat.entries * w.eval_array(rows)[:, None] / w.eval_array(cols)[None, :])
    B[0, 1:] *= np.sqrt(2.0)
    return B


@pytest.mark.parametrize("r, w, N", [(0.1, wt.polynomial(2.0), 32), (-0.2, wt.polynomial(2.0), 32),
                                     (0.05, wt.polynomial(2.0), 128), (0.5, wt.constant(), 32),
                                     (-0.2, wt.constant(), 64)])
def test_op_norm_solves_the_row_major_weighted_quadrant(r, w, N):
    # the Gram product B^T B rounds by B's memory order: the solve takes the
    # quadrant in the column-major order build_matrix writes it
    B = weighted_quadrant(r, w, N)
    assert B.flags.f_contiguous
    assert co.op_norm_l2(cm.Blaschke(r), w, N) == co._top_singular_value(B)


# the distortion defaults, the unweighted-exact-norm inputs, and a Gram matrix of order 1e259
ORACLE_CASES = [(r, wt.polynomial(2.0), 256) for r in (0.02, 0.05, 0.1, 0.2)] \
    + [(0.3, wt.constant(), N) for N in (32, 128, 512)] + [(0.6, wt.exppoly(3.0), 60)]


@pytest.mark.parametrize("r, w, N", ORACLE_CASES)
def test_top_singular_value_matches_the_full_eigendecomposition(r, w, N):
    B = weighted_quadrant(r, w, N)
    # the oracle: ||B v|| for the top eigenvector of the full eigendecomposition of B^T B
    oracle = float(np.linalg.norm(B @ np.linalg.eigh(B.T @ B)[1][:, -1]))
    assert abs(co._top_singular_value(B) - oracle) <= 8 * np.spacing(oracle)


def test_a_solve_that_settles_on_the_second_eigenvector_is_refused(monkeypatch):
    # a genuine singular pair, so the residual passes; sigma^2 is the second Gram eigenvalue
    B = weighted_quadrant(0.2, wt.polynomial(2.0), 64)
    lams, V = np.linalg.eigh(B.T @ B)
    assert (lams[-1] - lams[-2]) / lams[-1] > 1e-6
    monkeypatch.setattr(np.linalg, "solve", lambda M, x: V[:, -2] * 3.0)
    with pytest.raises(AccuracyError, match="not the top Gram eigenvalue"):
        co._top_singular_value(B)


def test_op_norm_reports_an_overflowing_gram_matrix_as_a_range_error():
    # every weighted entry is finite, but B^T B is not; no RuntimeWarning comes first
    with pytest.raises(RangeError, match="Gram matrix"):
        co.op_norm_l2(cm.Blaschke(0.6), wt.exppoly(3.0), 100)


def test_top_singular_value_of_a_zero_matrix_and_of_the_identity():
    assert co._top_singular_value(np.zeros((5, 3), order="F")) == 0.0
    assert co._top_singular_value(np.eye(4, order="F")) == 1.0
    assert co._top_singular_value(np.eye(1, order="F")) == 1.0


def test_op_norm_raises_when_the_residual_check_fails(monkeypatch):
    monkeypatch.setattr(co, "NORM_RESIDUAL_TOL", 0.0)
    with pytest.raises(AccuracyError):
        co.op_norm_l2(cm.Blaschke(0.2), wt.polynomial(2.0), 32)


def test_op_norm_rejects_overflowing_weight():
    with pytest.raises(RangeError):
        co.op_norm_l2(cm.Blaschke(0.1), wt.exppoly(50.0), 300)


def test_op_norm_at_the_smallest_truncations():
    # at N = 0 the matrix is the 1 x 1 identity
    w = wt.polynomial(2.0)
    assert co.op_norm_l2(cm.Blaschke(0.3), w, 0) == 1.0
    assert co.op_norm_l2(cm.Blaschke(0.3), w, 1) == pytest.approx(1.7403135843503, abs=1e-12)


def recorded_eigvalsh_sizes(monkeypatch):
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(G):
        sizes.append(G.shape[0])
        return eigvalsh(G)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return sizes


def test_op_norm_solves_the_even_block_alone(monkeypatch):
    sizes = recorded_eigvalsh_sizes(monkeypatch)
    co.op_norm_l2(cm.Blaschke(0.2), wt.polynomial(2.0), 32)
    assert sizes == [33]


@pytest.mark.parametrize("w", [wt.polynomial(2.0), wt.subexp(0.5), wt.exppoly(1.5),
                               wt.constant()],
                         ids=["polynomial", "subexp", "exppoly", "constant"])
@pytest.mark.parametrize("r", [0.2, -0.2, 0.3, 0.6])
def test_op_norm_bounds_the_odd_block(r, w):
    # rows k >= 1 and columns n >= 1 are the odd block, a submatrix of the even one
    phi = cm.Blaschke(r)
    for N in (1, 32, 64):
        A = weighted_matrix(phi, w, N)
        odd = np.linalg.svd(A[A.shape[0] // 2 + 1:, N + 1:], compute_uv=False)[0]
        assert odd <= co.op_norm_l2(phi, w, N) * (1.0 + 1e-13)
    assert co.op_norm_l2(phi, w, 0) == 1.0


def test_op_norm_refuses_an_asymmetric_weight_before_any_solve(monkeypatch):
    # w(n) = exp(n / 100) on -100..100 covers the rows -79..79 of b_0.2 at N = 32
    w = wt.tabulated(np.exp(0.01 * np.arange(-100, 101)), lo=-100)
    sizes = recorded_eigvalsh_sizes(monkeypatch)
    with pytest.raises(ParameterError, match="even weight"):
        co.op_norm_l2(cm.Blaschke(0.2), w, 32)
    assert sizes == []


def test_op_norm_builds_the_nonnegative_columns_only(monkeypatch):
    calls = recorded_calls(monkeypatch, "build_matrix")
    co.op_norm_l2(cm.Blaschke(0.2), wt.polynomial(2.0), 32)
    assert calls == [(cm.Blaschke(0.2), (0, 32))]


@pytest.mark.parametrize("w", [wt.subexp(0.5), wt.exppoly(1.5), wt.constant()],
                         ids=["subexp", "exppoly", "constant"])
def test_split_op_norm_matches_full_svd(w):
    phi = cm.Blaschke(0.3)
    top = np.linalg.svd(weighted_matrix(phi, w, 64), compute_uv=False)[0]
    assert co.op_norm_l2(phi, w, 64) == pytest.approx(top, rel=1e-10)


# ------------------------------------------------------------- distortion


def test_distortion_experiment_small():
    w = wt.polynomial(2.0)
    reports = co.distortion_experiment(w, [0.05, 0.1], N=64)
    assert [rep.r for rep in reports] == [0.05, 0.1]
    for rep in reports:
        assert rep.distortion >= 1.0 - 1e-9
        assert rep.distortion == pytest.approx(rep.norm_fwd * rep.norm_inv,
                                               rel=1e-12)
        assert rep.nonstandard_witness
    assert reports[0].distortion < reports[1].distortion
    assert set(asdict(reports[0])) == {"r", "N", "norm_fwd", "norm_inv",
                                       "distortion", "nonstandard_witness"}


def test_distortion_inverts_through_inverse_map(monkeypatch):
    # one solve per r, at b_r; the inverse map b_{-r} has the same norm, C_{b_-r} = S C_{b_r} S
    calls = recorded_calls(monkeypatch, "op_norm_l2")
    rep = co.distortion_experiment(wt.polynomial(2.0), [0.1], N=16)[0]
    assert [args[0] for args in calls] == [cm.Blaschke(0.1)]
    assert rep.norm_inv == pytest.approx(
        co.op_norm_l2(cm.Blaschke(-0.1), wt.polynomial(2.0), 16), rel=1e-12, abs=0.0)


def test_distortion_refuses_a_bad_r_before_any_solve(monkeypatch):
    calls = recorded_calls(monkeypatch, "op_norm_l2")
    with pytest.raises(ParameterError):
        co.distortion_experiment(wt.polynomial(2.0), [0.1, 1.5], N=64)
    assert calls == []


def test_distortion_requires_polynomial_weight():
    with pytest.raises(ParameterError):
        co.distortion_experiment(wt.subexp(0.5), [0.05], N=32)


# -------------------------------------------------------------- chain rule


def test_chain_rule_residual_small():
    rng = np.random.default_rng(11)
    phi = cm.Blaschke(0.3)
    for _ in range(5):
        f = random_seq(rng, -15, 15)
        rep = co.chain_rule_check(f, phi, tol=1e-6)
        assert rep.residual_l1 < rep.tol
        assert rep.residual_l1 < 1e-6


def test_chain_rule_constant_sequence_is_exact():
    rep = co.chain_rule_check(sa.delta(0, 5.0), cm.Blaschke(0.4), tol=1e-12)
    assert rep.residual_l1 < rep.tol
    assert rep.residual_l1 < 1e-12


@pytest.mark.parametrize("r", [0.3, -0.6, 0.0])
def test_chain_rule_residual_is_within_its_bound(r):
    rng = np.random.default_rng(12)
    for _ in range(4):
        rep = co.chain_rule_check(random_seq(rng, -12, 9), cm.Blaschke(r))
        assert 0.0 < rep.residual_l1 <= rep.bound < rep.tol


def test_op_norm_truncation_stability():
    w = wt.polynomial(2.0)
    phi = cm.Blaschke(0.2)
    n32 = co.op_norm_l2(phi, w, 32)
    n64 = co.op_norm_l2(phi, w, 64)
    assert abs(n32 - n64) / n64 < 0.01
