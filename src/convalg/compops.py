"""Composition operators on weighted sequence spaces and experiments.

C_phi sends f to the coefficients of f^ o phi; its matrix columns are
those of the powers phi^n.  This module builds truncated matrices,
measures column norm ratios against several weights, runs the norm
blow-up and distortion experiments (one norm per map, as C_{b_-r} is
S C_{b_r} S for (Sf)(n) = (-1)^n f(n)), and checks the chain rule.

Each matrix column is within a stated l1 distance of the exact power
(``build_matrix``); ``op_norm_l2``, under an even weight, solves the
even block read off the nonnegative quadrant of the matrix (the odd
block is its submatrix) and returns a lower bound of the norm of the
computed matrix up to rounding; ``column_ratio`` certifies its ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import weights as wt
from .circlemaps import (Blaschke, _composed, certified_support, coeffs, derivative_coeffs,
                         power_l1_bound, running_powers, weighted_power)
from .circlemaps import compose_transform, power_coeffs  # noqa: F401  perfbench's tracer wraps them
from .errors import AccuracyError, AdmissibilityError, ParameterError, SizeError
from .seqalg import TruncSeq, convolve, formal_derivative, l1_diff, l1_norm, weighted_norm

MAX_MATRIX_ENTRIES = 50_000_000


# ---------------------------------------------------------------------
# standard automorphisms of the sequence algebra
# ---------------------------------------------------------------------


def standard_automorphism(f: TruncSeq, lam: complex, reflect: bool = False) -> TruncSeq:
    """(Tf)(n) = lam^n f(n), or lam^n f(-n) when ``reflect``.

    These are the isometric algebra automorphisms for every symmetric
    weight; powers of lam are taken through the phase so unimodularity
    is exact to rounding, and they are exactly +-1 at lam = +-1.
    """
    if not abs(abs(complex(lam)) - 1.0) <= 1e-12:
        raise ParameterError("lam must be unimodular")
    if f.is_zero:
        return f
    g = TruncSeq(-f.hi, f.values[::-1]) if reflect else f
    if lam in (1, -1):
        return TruncSeq(g.lo, g.values * np.where(g.indices() % 2, lam.real, 1.0))
    return TruncSeq(g.lo, g.values * np.exp(1j * np.angle(complex(lam)) * g.indices()))


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
    same bound.

    A :class:`SizeError` is raised when the row span times the column
    count would exceed ``MAX_MATRIX_ENTRIES``, in two stages.  Before the
    first power, for r != 0, one column is sampled: the smallest |n| in
    range whose predicted span exceeds the cap, the predicted rows of
    column n >= 1 being ceil(n / alpha)..floor(alpha n), alpha = (1 + |r|)/(1 - |r|),
    reflected for -n.  ``certified_support`` gives the rows at which the
    running column is surely nonzero: sampled on the smallest grid whose
    aliasing tail is within the column's l1 error bound, its sample
    exceeds that tail plus the bound plus a rounding allowance of
    (top + 1) 2^-40.  The build is refused when the hull of those rows,
    reflected for -n, times the column count exceeds the cap.  The
    prediction only picks the column; it refuses nothing.  Otherwise, as
    the powers are built, it is refused as soon as the row span of the
    columns built so far, times the column count, exceeds the cap.  The
    row span of the finished matrix contains both, so every refused
    matrix would be over the cap.
    """
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    if n_lo > n_hi:
        raise ParameterError("empty column range")
    ncols = n_hi - n_lo + 1
    top = max(abs(n_lo), abs(n_hi))
    bottom = 0 if n_lo <= 0 <= n_hi else min(abs(n_lo), abs(n_hi))
    _refuse_by_sample(phi, n_lo, n_hi, bottom, top, tol)
    powers: list[TruncSeq] = []
    m_lo, m_hi = math.inf, -math.inf
    for n, cur in enumerate(running_powers(phi, top, tol, bottom), bottom):
        powers.append(cur)
        if cur.is_zero:
            continue
        if n_lo <= n <= n_hi:
            m_lo, m_hi = min(m_lo, cur.lo), max(m_hi, cur.hi)
        if n_lo <= -n <= n_hi:
            m_lo, m_hi = min(m_lo, -cur.hi), max(m_hi, -cur.lo)
        _check_size(m_hi - m_lo + 1, ncols)
    M = np.zeros((m_hi - m_lo + 1, ncols))
    for n in range(n_lo, n_hi + 1):
        c = powers[abs(n) - bottom]
        if c.is_zero:
            continue
        if n >= 0:
            M[c.lo - m_lo: c.hi - m_lo + 1, n - n_lo] = c.values
        else:
            M[-c.hi - m_lo: -c.lo - m_lo + 1, n - n_lo] = c.values[::-1]
    return OperatorMatrix(n_lo, n_hi, m_lo, m_hi, M)


def _check_size(nrows: int, ncols: int) -> None:
    if nrows * ncols > MAX_MATRIX_ENTRIES:
        raise SizeError(f"matrix of at least {nrows}x{ncols} entries exceeds the size cap")


def _refuse_by_sample(phi: Blaschke, n_lo: int, n_hi: int, bottom: int, top: int,
                      tol: float) -> None:
    """The first stage of ``build_matrix``'s refusal: one sampled column, no power built."""
    if phi.r == 0.0:
        return
    alpha = (1.0 + abs(phi.r)) / (1.0 - abs(phi.r))
    ncols = n_hi - n_lo + 1
    for n in range(max(1, bottom), top + 1):
        pos, neg = n_lo <= n <= n_hi, n_lo <= -n <= n_hi
        span = 2 * math.floor(alpha * n) if pos and neg else \
            math.floor(alpha * n) - math.ceil(n / alpha)
        if span * ncols > MAX_MATRIX_ENTRIES:
            break
    else:
        return
    rows = certified_support(phi, n, top, tol)
    if rows is None:
        return
    lo, hi = rows
    if not pos:
        lo, hi = -hi, -lo
    elif neg:
        lo, hi = min(lo, -hi), max(hi, -lo)
    _check_size(hi - lo + 1, ncols)


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

    The truncation is A = D_out M D_in^{-1}: M has the columns phi^n for
    |n| <= N (``build_matrix`` at its default tolerance) on the rows
    -m..m they reach, and the diagonal weights are w on those rows and on
    -N..N.  A is real.  The weight must be even there, w(-k) = w(k), or
    a :class:`ParameterError` is raised.

    Column -n is column n on reversed rows, so A[-k, -n] = A[k, n]: A
    commutes with the flip (Jf)(n) = f(-n) and is orthogonally equivalent
    to the direct sum of its even block, on the orthonormal bases e_0,
    (e_n + e_-n)/sqrt 2, and its odd block, on (e_n - e_-n)/sqrt 2.
    Column n >= 0 lives on the rows k >= 0 and column -n on the rows
    k <= 0, so both blocks are read off the quadrant Q of rows 0..m and
    columns 0..N, the only part built: the even block B is Q with row 0
    times sqrt 2 on the columns n >= 1 ((m+1) x (N+1); column 0 is e_0),
    and the odd block, Q without row and column 0, is B without them.
    A submatrix's norm never exceeds the matrix's (singular values
    interlace, R. C. Thompson 1972), so ||A|| = ||B||: B alone is solved.

    B = P^T A R, where the orthonormal columns of R and P are its input
    and output bases; A maps the span of R into that of P, and A^T back.
    The unit top eigenvector v of the Gram matrix B^T B (dense symmetric
    eigen-solve) gives sigma = ||B v|| = ||A R v|| with R v a unit
    vector, so the returned value never exceeds ||A|| up to rounding: it
    is a lower bound of the norm of the computed matrix, not of the exact
    truncation.  The pair is checked by the residual ||B^T u - sigma v||
    with u = B v / sigma, which equals the residual of the pair
    (P u, R v) of A and so bounds the distance from sigma to a singular
    value of A (Golub & Van Loan, ch. 8); an :class:`AccuracyError` is
    raised when it exceeds ``NORM_RESIDUAL_TOL * sigma``.  A zero matrix
    has norm 0.
    """
    if N < 0:
        raise ParameterError("N must be nonnegative")
    mat = build_matrix(phi, (0, N))
    A = mat.entries
    rows_idx, cols_idx = np.arange(mat.m_hi + 1), np.arange(N + 1)
    w_out = wt.check_range(w.eval_array(rows_idx), rows_idx, "on the output window")
    w_in = wt.check_range(w.eval_array(cols_idx), cols_idx, "on the input window")
    if not (np.array_equal(w.eval_array(-rows_idx), w_out)
            and np.array_equal(w.eval_array(-cols_idx), w_in)):
        raise ParameterError("op_norm_l2 needs an even weight, w(-k) = w(k), "
                             f"on the rows -{mat.m_hi}..{mat.m_hi} and columns -{N}..{N}")
    A *= w_out[:, None]
    A /= w_in[None, :]
    A[0, 1:] *= math.sqrt(2.0)
    return _top_singular_value(A)


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
    """Distortion of one Blaschke isomorphism; ``norm_inv`` is ``norm_fwd``, by symmetry."""

    r: float
    N: int
    norm_fwd: float
    norm_inv: float
    distortion: float
    nonstandard_witness: bool


def distortion_experiment(w: wt.Weight, r_list, N: int) -> list[DistortionReport]:
    """Distortion ||C_phi|| * ||C_phi^{-1}|| of the Blaschke isomorphisms.

    Requires the polynomial weight max(1, |n|^a) with integer a > 1.
    The inverse of C_phi, phi = b_r, is C_psi for psi(z) = b_{-r}(z) =
    -b_r(-z): psi^n has (-1)^(k+n) times the coefficient k of phi^n, so
    C_psi = S C_phi S for the isometry (Sf)(n) = (-1)^n f(n) of every
    weighted l^p.  S commutes with the weights, so ``op_norm_l2``'s matrix
    for psi is S A S for its A for phi, with the same singular values:
    one norm is solved per r (the ``distortion-monotone`` check solves
    both).  distortion >= 1 always; each report also notes the non-
    standardness witness (column 1, phi itself, has two sizable entries).
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
        norm = op_norm_l2(phi, w, N)
        dist = norm * norm
        if dist < 1.0 - 1e-9:
            raise AccuracyError(f"distortion {dist} fell below 1 at r = {r}")
        witness = int(np.sum(np.abs(coeffs(phi).values) > 1e-12)) >= 2 if r > 0 else False
        return DistortionReport(
            r=r, N=int(N), norm_fwd=norm, norm_inv=norm, distortion=dist,
            nonstandard_witness=witness)

    return [one(r) for r in rs]


# ---------------------------------------------------------------------
# chain rule check
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ChainRuleReport:
    residual_l1: float
    tol: float
    bound: float  # the residual is at most this, up to the rounding of l1_diff


def chain_rule_check(f: TruncSeq, phi: Blaschke, tol: float = 1e-6) -> ChainRuleReport:
    """l1 residual of (f^ o phi)' = (f^' o phi) * phi' at coefficient level, and a bound of it.

    The left side is the formal derivative of the composed sequence; the
    right side is the composition of the derivative convolved with the
    coefficients of phi'.  Internal tolerances are tightened well below
    ``tol`` because differentiation amplifies tail indices; the
    compositions' tolerance scales with the l1 norm of what they compose,
    as their rounding does.

    Each side is within a stated l1 distance of the exact derivative.
    The left side's is the composition's error under the weight 1 + |k|,
    which dominates the factor the derivative puts on row k.  The right
    side's is h d - H D, for h = H + e the composed derivative (l1 error
    at most e) and d the coefficients of phi' = D (l1 tail at most the
    internal tolerance t): at most e ||d||_1 + (||h||_1 + e) t, plus the
    product's rounding, allowed 64 u N ||h||_1 ||d||_1 for N terms and
    u = 2^-53 (an FFT's or a direct sum's alike).
    """
    ctol = min(tol * 1e-4, 1e-9)  # in this order a NaN tol stays NaN, which is refused
    df = formal_derivative(f)
    composed, lhs_err = _composed(f, phi, ctol * max(1.0, l1_norm(f)), wt.polynomial(1.0))
    lhs = formal_derivative(composed)
    h, h_err = _composed(df, phi, ctol * max(1.0, l1_norm(df)))
    d = derivative_coeffs(phi, ctol)
    rhs = convolve(h, d)
    h_norm, d_norm = l1_norm(h), l1_norm(d)
    bound = (lhs_err + h_err * d_norm + (h_norm + h_err) * ctol
             + 64.0 * 2.0 ** -53 * len(rhs.values) * h_norm * d_norm)
    return ChainRuleReport(float(l1_diff(lhs, rhs)), tol, bound)
