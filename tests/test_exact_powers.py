"""Blaschke powers against an exact rational oracle.

b_r(z)^n = (z - r)^n (1 - r z)^(-n), so for n >= 1 the coefficient of z^k is

    c_k = sum_{j <= min(n, k)} C(n, j) (-r)^(n-j) C(n-1+k-j, k-j) r^(k-j),

which ``fractions.Fraction`` evaluates for rational r with no rounding at
all.  Negative powers are the conjugate reflections of the positive ones.
The oracle shares nothing with the FFT convolution of the production route
or with the circle-sampling oracle, so the gaps below are the true rounding
and truncation error of ``power_coeffs`` and ``build_matrix``.
"""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from convalg import circlemaps as cm
from convalg import compops as co
from convalg import seqalg as sa
from convalg import weights as wt
from convalg.errors import AccuracyError

TOL = 1e-13  # truncation budget of the production route
L1_GAP = 1e-12


def exact_power(r: Fraction, n: int, rows: int) -> list[Fraction]:
    """The exact coefficients c_0..c_rows of b_r^n, for n >= 1."""
    r_pow = [Fraction(1)]
    for _ in range(max(n, rows)):
        r_pow.append(r_pow[-1] * r)
    sign = [(-1) ** i for i in range(n + 1)]
    return [sum(comb(n, j) * sign[n - j] * r_pow[n - j] * comb(n - 1 + k - j, k - j) * r_pow[k - j]
                for j in range(min(n, k) + 1))
            for k in range(rows + 1)]


CASES = [(Fraction(3, 10), 200), (Fraction(1, 2), 300)]
IDS = ["r=3/10", "r=1/2"]


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def exact(request):
    """r with the exact columns 16 (rows 0..rows) and -16 (rows -rows..0), rounded to float."""
    r, rows = request.param
    col = sa.TruncSeq(0, np.array([float(c) for c in exact_power(r, 16, rows)]))
    return r, {16: col, -16: cm.reflect_conj(col)}


def test_oracle_hand_values():
    # b_r = -r + (1 - r^2) z + (1 - r^2) r z^2 + ...
    r = Fraction(1, 2)
    assert exact_power(r, 1, 3) == [-r, 1 - r * r, (1 - r * r) * r, (1 - r * r) * r * r]
    # b_r^2 = r^2 - 2 r (1 - r^2) z + ...
    assert exact_power(r, 2, 1) == [r * r, -2 * r * (1 - r * r)]


@pytest.mark.parametrize("n", [-16, 16])
def test_power_coeffs_match_the_exact_oracle(exact, n):
    r, cols = exact
    got = cm.power_coeffs(cm.Blaschke(float(r)), n, TOL)
    assert sa.l1_diff(got, cols[n]) <= L1_GAP


def test_build_matrix_columns_match_the_exact_oracle(exact):
    r, cols = exact
    mat = co.build_matrix(cm.Blaschke(float(r)), (-16, 16), TOL)
    for n, col in cols.items():
        got = sa.TruncSeq(mat.m_lo, mat.entries[:, n - mat.n_lo])
        assert sa.l1_diff(got, col) <= L1_GAP


def test_power_coeffs_keeps_its_l1_budget():
    # the error of one trim grows with the norms of the factors it is later multiplied
    # by (||b_r^m||_1 reaches 10.8 at m = 64); the budgets are scaled for that
    r, n = Fraction(1, 2), 64
    exact = sa.TruncSeq(0, np.array([float(c) for c in exact_power(r, n, 330)]))
    for tol in (1e-10, 1e-12):
        got = cm.power_coeffs(cm.Blaschke(float(r)), n, tol)
        assert got.lo >= 0 and got.hi <= 330
        assert sa.l1_diff(got, exact) <= tol
    assert sa.l1_norm(exact) <= cm.power_l1_bound(cm.Blaschke(0.5), n)


def test_build_matrix_columns_keep_the_running_product_bound():
    # a trim of one running power is carried into every later one; the columns stay
    # within beta(top) (e^(0.26 tol) - 1) of the exact powers, as build_matrix states
    r, N, tol = Fraction(1, 2), 64, 1e-10
    phi = cm.Blaschke(float(r))
    mat = co.build_matrix(phi, (-N, N), tol)
    bound = cm.power_l1_bound(phi, N) * np.expm1(0.26 * tol)
    for n in (16, 64):
        got = sa.TruncSeq(mat.m_lo, mat.entries[:, n - mat.n_lo])
        assert got.lo >= 0
        # 60 rows past the matrix hold the exact tail down to below 1e-20
        exact = sa.TruncSeq(0, np.array([float(c) for c in exact_power(r, n, mat.m_hi + 60)]))
        assert sa.l1_diff(got, exact) <= bound


# (r, n, weight, p, exact ratio ||b_r^n||_{p,w} / w(n) from all rows, or the error it raises)
RATIOS = [
    (Fraction(9, 10), 10, wt.subexp(0.5), 1.0, 53205.330442),
    (Fraction(3, 10), 10, wt.exppoly(2.0), 1.0, 14001.65575),
    (Fraction(3, 10), 25, wt.exppoly(2.0), 1.0, 1114322569),
    (Fraction(1, 2), 500, wt.constant(), 2.0, 1.0),
    (Fraction(1, 2), 10, wt.exppoly(2.0), 1.0, AccuracyError),  # a r = 1: not summable
    (Fraction(3, 5), 5, wt.exppoly(2.0), 1.0, AccuracyError),   # a r > 1
]


@pytest.mark.parametrize("r, n, w, p, expected", RATIOS,
                         ids=["case1-r9/10-n10", "case2-r3/10-n10", "case2-r3/10-n25",
                              "unit-r1/2-n500", "case2-r1/2-refused", "case2-r3/5-refused"])
def test_column_ratio_matches_the_exact_oracle_or_raises(r, n, w, p, expected):
    phi = cm.Blaschke(float(r))
    if expected is AccuracyError:
        with pytest.raises(AccuracyError):
            co.column_ratio(phi, w, p, n)
        return
    assert co.column_ratio(phi, w, p, n) == pytest.approx(expected, rel=1e-9)
    if w.family != wt.CONSTANT:
        # the rows the ratio reads are exact up to rounding
        col, err = cm.weighted_power(phi, n, w, 1e-10)
        rows = np.arange(col.lo, col.hi + 1)
        exact = np.array([float(c) for c in exact_power(r, n, col.hi)])
        assert col.lo == 0 and err <= 1e-10
        gap = np.sum(w.eval_array(rows) * np.abs(col.values - exact))
        assert gap <= 1e-12 * np.sum(w.eval_array(rows) * np.abs(exact))


@pytest.mark.parametrize("r, n, w", [(Fraction(3, 10), 10, wt.exppoly(2.0)),
                                     (Fraction(1, 2), 16, wt.subexp(0.5)),
                                     (Fraction(1, 2), 16, wt.polynomial(2.0))],
                         ids=["exppoly", "subexp", "polynomial"])
def test_cauchy_tail_bound_holds_against_the_exact_oracle(r, n, w):
    col, err = cm.weighted_power(cm.Blaschke(float(r)), n, w, 1e-10)
    rows = 3 * col.hi
    exact = exact_power(r, n, rows)
    k = np.arange(col.hi + 1, rows + 1)
    tail = np.sum(w.eval_array(k) * np.abs(np.array([float(c) for c in exact[col.hi + 1:]])))
    assert 0.0 < tail <= err <= 1e-10
