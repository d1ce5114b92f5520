"""Analytic self-maps of the unit circle and their Fourier calculus.

Two map families: rotations/reflections ``Monomial(lam, power)`` with
|lam| = 1, and the disk automorphisms ``Blaschke(r)`` given by
b_r(z) = (z - r) / (1 - r z) for real |r| < 1.  Both are unimodular on
the circle, so reciprocals come from index-reflected complex conjugation
of coefficient sequences.

Coefficient routines return :class:`~convalg.seqalg.TruncSeq` objects
within the l1 distance of the exact ones that each routine states.  A
Blaschke factor with real r has real coefficients, and they are stored and
multiplied as float64; monomials and compositions stay complex128.
``compose_transform`` implements the sampling pipeline: evaluate the
Laurent series of f after the map on a root-of-unity grid, inverse DFT,
and double the grid until the result is l1-Cauchy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .errors import AccuracyError, ParameterError
from .seqalg import TruncSeq, _RightMultiplier, convolve, delta, l1_diff, l1_trimmed, zero_seq
from .weights import CONSTANT, TABULATED, Weight, geometric_tail

MAX_LOG2_GRID = 20
MAX_SERIES_ROWS = 1 << 14
UNIT_TOL = 1e-12


@dataclass(frozen=True)
class Monomial:
    """z -> lam * z^power with |lam| = 1."""

    lam: complex
    power: int = 1

    def __post_init__(self) -> None:
        if abs(abs(complex(self.lam)) - 1.0) > UNIT_TOL:
            raise ParameterError(f"|lam| must be 1, got {abs(complex(self.lam))}")


@dataclass(frozen=True)
class Blaschke:
    """z -> (z - r) / (1 - r z) with real |r| < 1."""

    r: float

    def __post_init__(self) -> None:
        if not abs(self.r) < 1.0:
            raise ParameterError(f"|r| < 1 required, got {self.r}")


CircleMap = Union[Monomial, Blaschke]


def map_values(phi: CircleMap, z: np.ndarray) -> np.ndarray:
    """Evaluate the map on arbitrary complex points (no domain check)."""
    z = np.asarray(z, dtype=np.complex128)
    if isinstance(phi, Monomial):
        return phi.lam * z ** phi.power
    return (z - phi.r) / (1.0 - phi.r * z)


def derivative_values(phi: CircleMap, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    if isinstance(phi, Monomial):
        return phi.lam * phi.power * z ** (phi.power - 1)
    return (1.0 - phi.r ** 2) / (1.0 - phi.r * z) ** 2


def inverse_map(phi: CircleMap) -> CircleMap:
    """The compositional inverse on the circle, when one exists."""
    if isinstance(phi, Blaschke):
        return Blaschke(-phi.r)
    if phi.power == 1:
        return Monomial(1.0 / phi.lam, 1)
    if phi.power == -1:
        return phi
    raise ParameterError(f"z -> lam z^{phi.power} is not invertible on the circle")


# ---------------------------------------------------------------------
# coefficient sequences
# ---------------------------------------------------------------------


def coeffs(phi: CircleMap, tol: float = 1e-12) -> TruncSeq:
    """Fourier coefficients of the map itself, l1 tail below tol.

    For b_r these are -r at index 0 and (1 - r^2) r^(k-1) at k >= 1
    (geometric expansion of the Cauchy kernel); exact for monomials.
    Every Blaschke coefficient route starts here, so this is where a
    tolerance that is not positive and finite is refused.
    """
    if isinstance(phi, Monomial):
        return delta(phi.power, complex(phi.lam))
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"Blaschke coefficients need a positive finite tolerance, got {tol:g}")
    r = phi.r
    if r == 0.0:
        return delta(1)
    return _blaschke_rows(r, _geom_cutoff(abs(r), (1.0 - r * r) / (1.0 - abs(r)), tol))


def _blaschke_rows(r: float, K: int) -> TruncSeq:
    """The coefficients 0..K of b_r: -r, then (1 - r^2) r^(k-1)."""
    vals = np.empty(K + 1)
    vals[0] = -r
    vals[1:] = (1.0 - r * r) * r ** np.arange(0, K)
    return TruncSeq(0, vals)


def _geom_cutoff(x: float, scale: float, tol: float) -> int:
    """Smallest K >= 1 with scale * x^K <= tol (x in (0,1))."""
    if scale <= tol:
        return 1
    return max(1, math.ceil(math.log(tol / scale) / math.log(x)))


def derivative_coeffs(phi: CircleMap, tol: float = 1e-12) -> TruncSeq:
    """Coefficients of phi'; for b_r these are (1 - r^2)(k+1) r^k, k >= 0."""
    if isinstance(phi, Monomial):
        if phi.power == 0:
            return zero_seq()
        return delta(phi.power - 1, complex(phi.lam) * phi.power)
    r = phi.r
    if r == 0.0:
        return delta(0)
    x = abs(r)
    c = 1.0 - r * r
    K = 1
    # remainder sum_{k>K} (k+1) x^k = x^(K+1) ((K+2) - (K+1) x) / (1-x)^2
    while c * x ** (K + 1) * ((K + 2) - (K + 1) * x) / (1.0 - x) ** 2 > tol:
        K += 1
    ks = np.arange(0, K + 1)
    return TruncSeq(0, c * (ks + 1.0) * r ** ks)


def reflect_conj(f: TruncSeq) -> TruncSeq:
    """Index-reflected complex conjugate: the reciprocal of a unimodular series."""
    if f.is_zero:
        return f
    return TruncSeq(-f.hi, np.conj(f.values[::-1]))


# ---------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------


def weighted_power(phi: CircleMap, n: int, w: Weight, budget: float) -> tuple[TruncSeq, float]:
    """phi^n and a bound E <= ``budget`` of its error in the w-weighted l1 norm.

    That norm dominates every ||.||_{p,w} with p >= 1.  Monomials, b_0
    and n = 0 have exact columns (E = 0).  Under a constant or tabulated
    weight the column is ``power_coeffs`` at the l1 budget budget / sup w.
    The growing families are symmetric, so b_r^-n, the conjugate
    reflection of b_r^n, has the same bound as b_r^n from ``_power_rows``.
    """
    if isinstance(phi, Monomial) or phi.r == 0.0 or n == 0:
        return power_coeffs(phi, n), 0.0
    if w.family in (CONSTANT, TABULATED):
        return power_coeffs(phi, n, budget / max(w.table or (1.0,))), budget
    col, err = _power_rows(phi, abs(n), w, budget)
    return (reflect_conj(col) if n < 0 else col), err


def power_l1_bound(phi: CircleMap, m: int) -> float:
    """An upper bound of ||phi^k||_1 for every |k| <= m, nondecreasing in m; 1 for a monomial.

    Write c for the coefficients of f = b_r^m.  As |b_r| = 1 on the
    circle, ||c||_2 = 1, and z f'(z) - m f(z) = m f(z) (P(z) - 1) with P
    the Poisson kernel (1 - r^2)/|z - r|^2, whose mean square is
    (1 + r^2)/(1 - r^2); so sum (k - m)^2 |c_k|^2 = (m s)^2 with
    s = |r| sqrt(2/(1 - r^2)).  Cauchy-Schwarz against the weights
    1 + ((k - m)/(m s))^2, whose reciprocals sum to at most 1 + pi m s,
    gives ||c||_1 <= sqrt(2 (1 + pi m s)), also for b_r^-m, its conjugate reflection.
    """
    if isinstance(phi, Monomial):
        return 1.0
    return math.sqrt(2.0 * (1.0 + math.pi * m * abs(phi.r) * math.sqrt(2.0 / (1.0 - phi.r ** 2))))


def power_coeffs(phi: CircleMap, n: int, tol: float = 1e-10) -> TruncSeq:
    """Coefficients of phi^n (n may be negative), within ``tol`` <= 1 of the exact ones in l1.

    Negative powers use 1/phi = conj(phi) on the circle, i.e. the
    conjugate-reflected coefficient sequence, then |n|-fold convolution
    by binary powering, each product l1-trimmed.  Expanded, the computed
    result is b^n plus terms b^k (k <= |n|) times dropped pieces, so its
    l1 error is at most beta (V - 1), beta = ``power_l1_bound(phi, |n|)``
    and V <= exp(sum of j d) over the dropped pieces, of mass d, each held
    j times by the result.  The base expansion is held |n| times and gets
    tol / (4 |n| beta); each of the S products gets tol / (4 S j beta), so
    the late, long products, held once or twice, get the loosest trims.
    Then sum j d <= tol / (2 beta), and the error is at most tol, up to
    rounding.
    """
    n = int(n)
    if isinstance(phi, Monomial):
        return delta(phi.power * n, _unit_power(phi.lam, n))
    if n == 0:
        return delta(0)
    e = abs(n)
    beta = power_l1_bound(phi, e)
    base = coeffs(phi, tol / (4.0 * e * beta))
    if n < 0:
        base = reflect_conj(base)
    n_mults = e.bit_length() - 1 + bin(e).count("1") - 1
    return _binary_power(base, e, lambda f, g, held:
                         convolve(f, g, budget=tol / (4.0 * n_mults * held * beta)))


def running_powers(phi: CircleMap, top: int, tol: float = 1e-10) -> Iterator[TruncSeq]:
    """Yield phi^0, ..., phi^top, each within beta (e^(0.26 tol) - 1) of the exact power in l1.

    Monomial powers are exact.  A Blaschke power is the one before times
    the base expansion (l1 tail e0 = tol / (100 (top + 1)), its spectrum
    kept per FFT length), trimmed by at most s = tol / (4 top).  Each trim
    is carried into every later power; by the expansion of ``power_coeffs``,
    beta = ``power_l1_bound(phi, top)`` and n (e0 + s) <= 0.26 tol give the
    bound, about 0.26 beta tol, up to rounding.
    """
    if isinstance(phi, Monomial):
        for n in range(top + 1):
            yield power_coeffs(phi, n)
        return
    times_base = _RightMultiplier(coeffs(phi, tol / (100.0 * (top + 1.0))))
    step_budget = tol / (4.0 * max(1, top))
    cur = delta(0)
    yield cur
    for _ in range(top):
        cur = times_base(cur, budget=step_budget)
        yield cur


def _power_rows(phi: Blaschke, n: int, w: Weight, tail_tol: float) -> tuple[TruncSeq, float]:
    """Rows 0..K of b_r^n (n >= 1, r != 0), and E >= sum_{k>K} w(k) |c_k| with E <= tail_tol.

    b_r^n is analytic on |z| < 1/|r|, so Cauchy's estimate gives
    |c_k| <= rho^-k M(rho)^n for 1 <= rho < 1/|r|, with M(rho) =
    (rho - |r|)/(1 - |r| rho) its maximum on |z| = rho, and the rows beyond
    K hold at most M(rho)^n ``geometric_tail(w, 1/rho, K)``.  Each K is
    tried at the rho minimising rho^-K M(rho)^n, the root above 1 of
    |r| K rho^2 - (K (1 + r^2) - n (1 - r^2)) rho + |r| K = 0, which exists
    for K > n (1 + |r|)/(1 - |r|); K doubles from there until the bound
    holds, then bisects back.  :class:`AccuracyError` is raised past
    ``MAX_SERIES_ROWS`` rows.

    The rows come from products by direct convolution, each cut after row
    K; the rows kept depend only on rows 0..K of the factors, so nothing
    is lost.  A direct sum keeps the rounding error of a row small
    against the magnitudes it adds up, which fall geometrically in far
    rows.  An FFT spreads rounding noise evenly over all rows, and a
    growing weight magnifies it there.
    """
    x = abs(phi.r)

    def bound(K: int) -> float:
        b = K * (1.0 + x * x) - n * (1.0 - x * x)
        disc = b * b - 4.0 * (K * x) ** 2
        if not (b > 0.0 and disc > 0.0):
            return math.inf
        rho = (b + math.sqrt(disc)) / (2.0 * K * x)
        tail = geometric_tail(w, 1.0 / rho, K)
        if not 0.0 < tail < math.inf:
            return tail
        log_bound = n * math.log((rho - x) / (1.0 - x * rho)) + math.log(tail)
        return math.exp(log_bound) if log_bound < 700.0 else math.inf

    lo = math.floor(n * (1.0 + x) / (1.0 - x))
    hi = lo + 1
    while not bound(hi) <= tail_tol:
        if hi >= MAX_SERIES_ROWS:
            raise AccuracyError(f"no tail bound of b_{phi.r:g}^{n} below {tail_tol:.3g} "
                                f"within {MAX_SERIES_ROWS} rows under this weight")
        lo, hi = hi, min(2 * hi, MAX_SERIES_ROWS)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bound(mid) <= tail_tol else (mid, hi)

    def times(f: TruncSeq, g: TruncSeq, held: int) -> TruncSeq:
        h = convolve(f, g, "direct")
        return TruncSeq(h.lo, h.values[: max(0, hi + 1 - h.lo)])

    return _binary_power(_blaschke_rows(phi.r, hi), n, times), bound(hi)


def _binary_power(base: TruncSeq, e: int, times) -> TruncSeq:
    """base^e for e >= 1 by binary powering.

    ``times(f, g, j)`` forms the product f g, which base^e holds j times.
    """
    result: TruncSeq | None = None
    acc = base
    while e:
        if e & 1:
            result = acc if result is None else times(result, acc, 1)
        e >>= 1
        if e:
            acc = times(acc, acc, e)  # acc becomes the power that the result takes e times
    assert result is not None
    return result


def _unit_power(lam: complex, n: int) -> complex:
    """lam^n for |lam| = 1 via the phase, so the result stays unimodular."""
    return complex(np.exp(1j * n * np.angle(complex(lam))))


# ---------------------------------------------------------------------
# composition by circle sampling
# ---------------------------------------------------------------------


def _roots_of_unity(M: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(M) / M)


def _compose_once(f: TruncSeq, phi: CircleMap, M: int) -> TruncSeq:
    z = _roots_of_unity(M)
    w = map_values(phi, z)
    acc = np.zeros(M, dtype=np.complex128)
    for c in f.values[::-1]:  # Horner on the shifted polynomial
        acc = acc * w + c
    acc = acc * w ** f.lo
    coef = np.fft.fftshift(np.fft.fft(acc) / M)
    return TruncSeq(-(M // 2), coef)


def compose_transform(f: TruncSeq, phi: CircleMap, cauchy_tol: float = 1e-9) -> TruncSeq:
    """Coefficients of z -> f^(phi(z)), f^ the Laurent series of f.

    Samples on M-th roots of unity and doubles M until two successive
    grids agree within ``cauchy_tol`` in l1.  Raises
    :class:`AccuracyError` when the 2^20-point cap is hit first (before any
    grid when the start grid cannot be doubled), and
    :class:`ParameterError` before any grid for a tolerance that is not
    positive and finite.
    """
    if not 0.0 < cauchy_tol < math.inf:
        raise ParameterError("composition needs a positive finite Cauchy tolerance, "
                             f"got {cauchy_tol:g}")
    if f.is_zero:
        return f
    M = max(128, 1 << (4 * f.support_len - 1).bit_length())
    diff = math.inf
    if 2 * M <= (1 << MAX_LOG2_GRID):  # a start grid that cannot be doubled is never sampled
        prev = _compose_once(f, phi, M)
        while 2 * M <= (1 << MAX_LOG2_GRID):
            M *= 2
            cur = _compose_once(f, phi, M)
            diff = l1_diff(cur, prev)
            if diff < cauchy_tol:
                return l1_trimmed(cur.lo, cur.values, cauchy_tol / 100.0)
            prev = cur
    raise AccuracyError(
        f"composition did not become l1-Cauchy below {cauchy_tol:g} "
        f"by M = 2^{MAX_LOG2_GRID} (last difference {diff:g})")

