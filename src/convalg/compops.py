"""Composition operators on weighted sequence spaces and experiments.

The operator C_phi sends a sequence f to the coefficient sequence of
f^ o phi.  Its matrix columns are the coefficient sequences of the
powers phi^n.  This module builds truncated matrices, measures column
norm ratios against several weights, runs the norm blow-up and
distortion experiments, and checks the derivative chain rule.

Each matrix column is within a stated l1 distance of the exact power
(``build_matrix``); ``op_norm_l2`` returns a lower bound of the norm of
the computed matrix up to rounding; ``column_ratio`` certifies its ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import weights as wt
from .circlemaps import (Blaschke, compose_transform, derivative_coeffs, power_coeffs,
                         power_l1_bound, running_powers, weighted_power)
from .errors import AccuracyError, AdmissibilityError, ParameterError, SizeError
from .seqalg import TruncSeq, convolve, formal_derivative, l1_diff, weighted_norm

MAX_MATRIX_ENTRIES = 50_000_000


# ---------------------------------------------------------------------
# standard automorphisms of the sequence algebra
# ---------------------------------------------------------------------


def standard_automorphism(f: TruncSeq, lam: complex, reflect: bool = False) -> TruncSeq:
    """(Tf)(n) = lam^n f(n), or lam^n f(-n) when ``reflect``.

    These are the isometric algebra automorphisms for every symmetric
    weight; powers of lam are taken through the phase so unimodularity
    is exact to rounding.
    """
    if abs(abs(complex(lam)) - 1.0) > 1e-12:
        raise ParameterError("lam must be unimodular")
    if f.is_zero:
        return f
    g = TruncSeq(-f.hi, f.values[::-1]) if reflect else f
    theta = np.angle(complex(lam))
    return TruncSeq(g.lo, g.values * np.exp(1j * theta * g.indices()))


# ---------------------------------------------------------------------
# truncated operator matrices
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense matrix of C_phi on columns n_lo..n_hi, rows m_lo..m_hi."""

    n_lo: int
    n_hi: int
    m_lo: int
    m_hi: int
    entries: np.ndarray  # shape (rows, cols), float64


def build_matrix(phi: Blaschke, n_range: tuple[int, int],
                 tol: float = 1e-10) -> OperatorMatrix:
    """Assemble the truncated matrix of C_phi over the given column range.

    Column n >= 0 is phi^n from ``running_powers(phi, top, tol)``, top =
    max |n|, so it is within beta (e^(0.26 tol) - 1), about 0.26 beta tol,
    of the exact power in l1, beta = ``power_l1_bound(phi, top)``.  Every
    entry is real.  Column -n is column n on reversed rows (1/phi =
    conj(phi) on the circle, and the coefficients are real), with the
    same bound.  A :class:`SizeError` is raised as soon as the row span
    of the columns built so far, times the column count, exceeds
    ``MAX_MATRIX_ENTRIES``: the row span of the finished matrix contains
    it, so the matrix would be refused anyway.
    """
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    if n_lo > n_hi:
        raise ParameterError("empty column range")
    ncols = n_hi - n_lo + 1
    powers: list[TruncSeq] = []
    m_lo, m_hi = math.inf, -math.inf
    for n, cur in enumerate(running_powers(phi, max(abs(n_lo), abs(n_hi)), tol)):
        powers.append(cur)
        if cur.is_zero:
            continue
        if n_lo <= n <= n_hi:
            m_lo, m_hi = min(m_lo, cur.lo), max(m_hi, cur.hi)
        if n_lo <= -n <= n_hi:
            m_lo, m_hi = min(m_lo, -cur.hi), max(m_hi, -cur.lo)
        if (m_hi - m_lo + 1) * ncols > MAX_MATRIX_ENTRIES:
            raise SizeError(f"matrix of at least {m_hi - m_lo + 1}x{ncols} "
                            "entries exceeds the size cap")
    M = np.zeros((m_hi - m_lo + 1, ncols))
    for n in range(n_lo, n_hi + 1):
        c = powers[abs(n)]
        if c.is_zero:
            continue
        if n >= 0:
            M[c.lo - m_lo: c.hi - m_lo + 1, n - n_lo] = c.values
        else:
            M[-c.hi - m_lo: -c.lo - m_lo + 1, n - n_lo] = c.values[::-1]
    return OperatorMatrix(n_lo, n_hi, m_lo, m_hi, M)


# ---------------------------------------------------------------------
# column norm ratios
# ---------------------------------------------------------------------


def column_ratio(phi: Blaschke, w: wt.Weight, p: float, n: int,
                 tol: float = 1e-10) -> float:
    """||C_phi delta_n||_{p,w} / ||delta_n||_{p,w}, certified to ``tol`` relatively.

    The column is built once by ``weighted_power`` with a bound E on its
    weighted l1 error, hence on its ||.||_{p,w} error, and the ratio is
    returned when E <= tol (||col||_{p,w} - E); else AccuracyError.
    """
    return _column(phi, w, p, n, tol)[1]


def _column(phi: Blaschke, w: wt.Weight, p: float, n: int, tol: float) -> tuple[TruncSeq, float]:
    """The column phi^n of ``column_ratio`` and its certified ratio."""
    if not (p >= 1.0 and 0.0 < tol < math.inf):
        raise ParameterError("column ratios need p >= 1 and a positive finite tolerance, "
                             f"got p = {p}, tol = {tol:g}")
    # the budget is at most tol ||col||_{p,w} / 2: ||col||_{p,w} >= (min w) ||col||_p, and
    # ||col||_p >= ||col||_2 = 1 for p <= 2, ||col||_p >= ||col||_inf >= 1 / ||col||_1 else
    l1 = 1.0 if p <= 2.0 else power_l1_bound(phi, abs(n))
    col, err = weighted_power(phi, n, w, tol * min(w.table or (1.0,)) / (2.0 * l1))
    norm = weighted_norm(col, p, w)
    if not err <= tol * (norm - err):
        raise AccuracyError(f"column {n}: error bound {err:.3g} exceeds {tol:g} "
                            f"of its norm {norm:.6g}")
    return col, norm / w.eval(n)


# ---------------------------------------------------------------------
# norm blow-up experiment
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class BlowupRow:
    """One grid point of the blow-up experiment."""

    n: int
    ratio: float
    model_value: float
    k_n: int
    lower_bound_ratio: float
    cr_empirical: float


def blowup_experiment(case: int, r: float, ns, p: float = 1.0,
                      gamma: float | None = None, a: float | None = None,
                      tol: float = 1e-10) -> list[BlowupRow]:
    """Growth of ||C_phi delta_n|| / ||delta_n|| for phi = Blaschke(r).

    Case 1 uses the weight exp(|n|^gamma) and the model value
    exp((alpha^gamma - 1) n^gamma) n^(-1/3); case 2 uses a^|n|(1+n^2)
    and a^((alpha-1) n) n^(-1/3), where alpha = (1+r)/(1-r).  Case 2
    requires r < 1/a, otherwise the columns leave the space and an
    :class:`AdmissibilityError` is raised.  Each row also records the
    single-coefficient lower bound w(k_n)|c(k_n)|/w(n) at k_n = [alpha n]
    and the empirical constant |c(k_n)| n^(1/3).
    """
    if not 0.0 <= r < 1.0:
        raise ParameterError(f"r must lie in [0, 1), got {r}")
    if case == 1:
        if gamma is None or not 0.0 < gamma < 1.0:
            raise ParameterError("case 1 needs 0 < gamma < 1")
        w = wt.subexp(gamma)
    elif case == 2:
        if a is None or not a > 1.0:
            raise ParameterError("case 2 needs a > 1")
        if not r < 1.0 / a:
            raise AdmissibilityError(
                f"case 2 needs r < 1/a = {1.0 / a:g}: the Blaschke coefficient "
                f"sequence is not summable against the weight at r = {r:g}")
        w = wt.exppoly(a)
    else:
        raise ParameterError(f"case must be 1 or 2, got {case}")
    ns = [int(n) for n in ns]
    if any(n < 1 for n in ns):
        raise ParameterError("grid indices must be positive")
    alpha = (1.0 + r) / (1.0 - r)
    phi = Blaschke(r)

    def one(n: int) -> BlowupRow:
        col, ratio = _column(phi, w, p, n, tol)
        k_n = math.floor(alpha * n)
        if case == 1:
            model = math.exp((alpha ** gamma - 1.0) * n ** gamma) * n ** (-1.0 / 3.0)
        else:
            model = a ** ((alpha - 1.0) * n) * n ** (-1.0 / 3.0)
        c_kn = abs(col[k_n])
        return BlowupRow(n, ratio, model, k_n, w.eval(k_n) * c_kn / w.eval(n), c_kn * n ** (1 / 3))

    return [one(n) for n in ns]


# ---------------------------------------------------------------------
# l2 operator norm by a dense symmetric solve
# ---------------------------------------------------------------------

NORM_RESIDUAL_TOL = 1e-10


def op_norm_l2(phi: Blaschke, w: wt.Weight, N: int) -> float:
    """Largest singular value of the weighted truncation of C_phi.

    Columns are the powers phi^n for |n| <= N from ``build_matrix`` at its
    default tolerance; the weighted matrix is A = D_out M D_in^{-1} with
    diagonal weights on the output window (the union of the column
    supports) and input window.  A is real.

    When its row window is -m..m and A[-k, -n] = A[k, n] exactly (a
    Blaschke map under any even weight), A commutes with the flip
    (Jf)(n) = f(-n) and maps even sequences to even ones and odd to odd.  Then A is orthogonally equivalent to the direct sum of two
    blocks: the even block on the orthonormal bases e_0, (e_n + e_-n)/sqrt 2,
    of size (m+1) x (N+1), and the odd block on (e_n - e_-n)/sqrt 2, of
    size m x N.  Each is solved on its own and the larger value returned;
    any other matrix is solved as a single block.

    Each block is B = P^T A Q, where the orthonormal columns of Q and P
    are its input and output bases (identities for a single block); A
    maps the span of Q into that of P, and A^T back.  The unit top
    eigenvector v of the Gram matrix B^T B (dense symmetric eigen-solve)
    gives sigma = ||B v|| = ||A Q v|| with Q v a unit vector, so the
    returned value never exceeds ||A|| up to rounding: it is a lower
    bound of the norm of the computed matrix, not of the exact truncation.
    The pair is checked by the residual ||B^T u - sigma v|| with u = B v /
    sigma, which equals the residual of the pair (P u, Q v) of A and so
    bounds the distance from sigma to a singular value of A (Golub & Van
    Loan, ch. 8); an :class:`AccuracyError` is raised when it exceeds
    ``NORM_RESIDUAL_TOL * sigma``.  A zero matrix has norm 0.
    """
    if N < 0:
        raise ParameterError("N must be nonnegative")
    mat = build_matrix(phi, (-N, N))
    rows_idx = np.arange(mat.m_lo, mat.m_hi + 1)
    cols_idx = np.arange(-N, N + 1)
    w_out = wt.check_range(w.eval_array(rows_idx), rows_idx, "on the output window")
    w_in = wt.check_range(w.eval_array(cols_idx), cols_idx, "on the input window")
    A = mat.entries
    m, symmetric_window = mat.m_hi, mat.m_lo == -mat.m_hi
    del mat
    A *= w_out[:, None]
    A /= w_in[None, :]
    if symmetric_window and np.array_equal(A, A[::-1, ::-1]):
        blocks = _flip_blocks(A, m, N)
    else:
        blocks = [A]
    del A
    # the odd block is empty at N = 0
    return max(_top_singular_value(B) for B in blocks if B.size)


def _flip_blocks(A: np.ndarray, m: int, N: int) -> list[np.ndarray]:
    """Even and odd blocks of a flip-symmetric A in the orthonormal bases."""
    # rows 0..m against columns n = 0..N and n = 0, -1, ..., -N
    plus, minus = A[m:, N:], A[m:, N::-1]
    even = plus + minus
    even[0] *= math.sqrt(0.5)
    even[:, 0] *= math.sqrt(0.5)
    even[0, 0] = plus[0, 0]  # e_0 to e_0: the entry itself, not 2 A[0, 0] sqrt(0.5)^2
    return [even, plus[1:, 1:] - minus[1:, 1:]]


def _top_singular_value(B: np.ndarray) -> float:
    """sigma = ||B v|| for the top eigenvector v of B^T B, residual-checked."""
    v = np.linalg.eigh(B.T @ B)[1][:, -1]
    Bv = B @ v
    sigma = float(np.linalg.norm(Bv))
    if sigma == 0.0:
        return 0.0
    residual = float(np.linalg.norm(B.T @ (Bv / sigma) - sigma * v))
    if not residual <= NORM_RESIDUAL_TOL * sigma:
        raise AccuracyError(
            f"singular pair residual {residual:.3g} exceeds {NORM_RESIDUAL_TOL:g} * sigma")
    return sigma


# ---------------------------------------------------------------------
# the distortion experiment
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class DistortionReport:
    """Distortion of the isomorphism induced by one Blaschke map."""

    r: float
    N: int
    norm_fwd: float
    norm_inv: float
    distortion: float
    nonstandard_witness: bool


def distortion_experiment(w: wt.Weight, r_list, N: int) -> list[DistortionReport]:
    """Distortion ||C_phi|| * ||C_phi^{-1}|| of the Blaschke isomorphisms.

    Requires the polynomial weight max(1, |n|^a) with integer a > 1.
    The inverse of C_phi is C_psi for psi = b_{-r}, the inverse of
    phi = b_r, and distortion >= 1 always; each report also notes the non-
    standardness witness (column 1 has at least two sizable entries).
    """
    if w.family != wt.POLYNOMIAL or w.param is None or \
            not float(w.param).is_integer() or not w.param > 1:
        raise ParameterError("the distortion experiment needs max(1,|n|^a) "
                             "with integer a > 1")
    rs = [float(r) for r in r_list]
    for r in rs:
        if not 0.0 <= r < 1.0:
            raise ParameterError(f"r must lie in [0, 1), got {r}")

    def one(r: float) -> DistortionReport:
        phi = Blaschke(r)
        nf = op_norm_l2(phi, w, N)
        ni = op_norm_l2(Blaschke(-r), w, N)
        dist = nf * ni
        if dist < 1.0 - 1e-9:
            raise AccuracyError(f"distortion {dist} fell below 1 at r = {r}")
        col1 = power_coeffs(phi, 1)
        witness = int(np.sum(np.abs(col1.values) > 1e-12)) >= 2 if r > 0 else False
        return DistortionReport(
            r=r, N=int(N), norm_fwd=nf, norm_inv=ni, distortion=dist,
            nonstandard_witness=witness)

    return [one(r) for r in rs]


# ---------------------------------------------------------------------
# chain rule check
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ChainRuleReport:
    residual_l1: float
    tol: float


def chain_rule_check(f: TruncSeq, phi: Blaschke, tol: float = 1e-6) -> ChainRuleReport:
    """l1 residual of (f^ o phi)' = (f^' o phi) * phi' at coefficient level.

    The left side is the formal derivative of the composed sequence; the
    right side is the composition of the derivative convolved with the
    coefficients of phi'.  Internal tolerances are tightened well below
    ``tol`` because differentiation amplifies tail indices.
    """
    ctol = min(tol * 1e-4, 1e-9)  # in this order a NaN tol stays NaN, which is refused
    lhs = formal_derivative(compose_transform(f, phi, cauchy_tol=ctol))
    rhs = convolve(compose_transform(formal_derivative(f), phi, cauchy_tol=ctol),
                   derivative_coeffs(phi, ctol))
    return ChainRuleReport(float(l1_diff(lhs, rhs)), tol)

