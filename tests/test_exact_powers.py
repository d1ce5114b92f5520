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
