"""Blaschke self-maps of the unit circle and their Fourier calculus.

The maps are the disk automorphisms ``Blaschke(r)`` given by
b_r(z) = (z - r) / (1 - r z) for real |r| < 1; b_0 is the identity z, and
b_r has the inverse b_-r.  They are unimodular on the circle, so
reciprocals come from index-reflected complex conjugation of coefficient
sequences.  The standard automorphisms f -> lam^n f(+-n) are not
composition operators of these maps: ``compops.standard_automorphism``
computes them directly.

Coefficient routines return :class:`~convalg.seqalg.TruncSeq` objects
within the l1 distance of the exact ones that each routine states.  With
real r every coefficient is real, and they are stored and multiplied as
float64; compositions stay complex128.
``compose_transform`` implements the sampling pipeline: evaluate the
Laurent series of f after the map on a root-of-unity grid and transform
once.  Every circle sample, there and in ``certified_support``, takes its
grid from one rule, ``_cauchy_grid``: the smallest power of two whose
aliasing tail (the Cauchy bound ``_cauchy_tail``) plus a stated rounding
allowance is within the caller's bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Iterator

import numpy as np

from .errors import AccuracyError, ParameterError
from .seqalg import TruncSeq, _RightMultiplier, convolve, delta, l1_norm, l1_trimmed
from .weights import CONSTANT, TABULATED, Weight, constant, geometric_tail

MAX_LOG2_GRID = 20
MAX_SERIES_ROWS = 1 << 14


@dataclass(frozen=True)
class Blaschke:
    """z -> (z - r) / (1 - r z) with real |r| < 1; a complex-typed r is refused."""

    r: float

    def __post_init__(self) -> None:
        if not isinstance(self.r, Real):
            raise ParameterError(f"r must be real, got {self.r!r}")
        if not abs(self.r) < 1.0:
            raise ParameterError(f"|r| < 1 required, got {self.r}")


def map_values(phi: Blaschke, z: np.ndarray) -> np.ndarray:
    """Evaluate the map on arbitrary complex points (no domain check)."""
    z = np.asarray(z, dtype=np.complex128)
    return (z - phi.r) / (1.0 - phi.r * z)


def derivative_values(phi: Blaschke, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    return (1.0 - phi.r ** 2) / (1.0 - phi.r * z) ** 2


# ---------------------------------------------------------------------
# coefficient sequences
# ---------------------------------------------------------------------


def coeffs(phi: Blaschke, tol: float = 1e-12) -> TruncSeq:
    """Fourier coefficients of the map itself, l1 tail below tol.

    For b_r these are -r at index 0 and (1 - r^2) r^(k-1) at k >= 1
    (geometric expansion of the Cauchy kernel); exact for b_0.
    Every Blaschke coefficient route starts here or at
    ``derivative_coeffs``; both refuse a tolerance that is not positive
    and finite.
    """
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


def derivative_coeffs(phi: Blaschke, tol: float = 1e-12) -> TruncSeq:
    """Coefficients of phi'; for b_r these are (1 - r^2)(k+1) r^k, k >= 0."""
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"Blaschke coefficients need a positive finite tolerance, got {tol:g}")
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


def weighted_power(phi: Blaschke, n: int, w: Weight, budget: float) -> tuple[TruncSeq, float]:
    """phi^n and a bound E <= ``budget`` of its error in the w-weighted l1 norm.

    That norm dominates every ||.||_{p,w} with p >= 1.  b_0 and n = 0
    have exact columns (E = 0).  Under a constant or tabulated weight the
    column is ``power_coeffs`` at the l1 budget budget / sup w.
    The growing families are symmetric, so b_r^-n, the conjugate
    reflection of b_r^n, has the same bound as b_r^n from ``_power_rows``.
    """
    if phi.r == 0.0 or n == 0:
        return power_coeffs(phi, n), 0.0
    if w.family in (CONSTANT, TABULATED):
        return power_coeffs(phi, n, budget / max(w.table or (1.0,))), budget
    col, err = _power_rows(phi, abs(n), w, budget)
    return (reflect_conj(col) if n < 0 else col), err


def power_l1_bound(phi: Blaschke, m: int) -> float:
    """An upper bound of ||phi^k||_1 for every |k| <= m, nondecreasing in m.

    Write c for the coefficients of f = b_r^m.  As |b_r| = 1 on the
    circle, ||c||_2 = 1, and z f'(z) - m f(z) = m f(z) (P(z) - 1) with P
    the Poisson kernel (1 - r^2)/|z - r|^2, whose mean square is
    (1 + r^2)/(1 - r^2); so sum (k - m)^2 |c_k|^2 = (m s)^2 with
    s = |r| sqrt(2/(1 - r^2)).  Cauchy-Schwarz against the weights
    1 + ((k - m)/(m s))^2, whose reciprocals sum to at most 1 + pi m s,
    gives ||c||_1 <= sqrt(2 (1 + pi m s)), also for b_r^-m, its conjugate reflection.
    """
    return math.sqrt(2.0 * (1.0 + math.pi * m * abs(phi.r) * math.sqrt(2.0 / (1.0 - phi.r ** 2))))


def power_coeffs(phi: Blaschke, n: int, tol: float = 1e-10) -> TruncSeq:
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


def running_powers(phi: Blaschke, top: int, tol: float = 1e-10,
                   start: int = 0) -> Iterator[TruncSeq]:
    """Yield phi^start, ..., phi^top, each within beta (e^(0.26 tol) - 1) of the exact power in l1.

    Each power is the one before times the base expansion (l1 tail e0 =
    tol / (100 (top + 1)), its spectrum kept per FFT length), trimmed by
    at most s = tol / (4 top).  Each trim is carried into every later
    power; by the expansion of ``power_coeffs``,
    beta = ``power_l1_bound(phi, top)`` and n (e0 + s) <= 0.26 tol give the
    bound, about 0.26 beta tol, up to rounding.  The product starts at
    phi^0, or at b_0^start = z^start, which is exact.
    """
    times_base = _RightMultiplier(coeffs(phi, tol / (100.0 * (top + 1.0))))
    step_budget = tol / (4.0 * max(1, top))
    n = start if phi.r == 0.0 else 0
    cur = delta(n)
    while True:
        if n >= start:
            yield cur
        if n >= top:
            return
        cur = times_base(cur, budget=step_budget)
        n += 1


def certified_support(phi: Blaschke, n: int, top: int,
                      tol: float = 1e-10) -> tuple[int, int] | None:
    """First and last row k at which power n of ``running_powers(phi, top, tol)`` is surely nonzero.

    Needs r != 0, 1 <= n <= top and a positive finite tol, else
    :class:`ParameterError`; None when no row is certified or no grid of
    at most 2^MAX_LOG2_GRID points is.  On the circle
    b_r^n = e^(i n Theta), Theta(t) = t + 2 atan2(r sin t, 1 - r cos t).
    One FFT of its samples at M points gives c_k + sum_{j>=1} c_{k+jM}
    for k < M, as b_r^n is analytic, so each is within T(M - 1) =
    sum_{k>=M} |c_k| of the exact c_k (``_cauchy_tail`` under the constant
    weight).  The running power is within delta = beta (e^(0.26 tol) - 1)
    of the exact one in l1, beta = ``power_l1_bound(phi, top)``, and M is
    the smallest grid of ``_cauchy_grid`` with T(M - 1) <= delta.  The
    running power is nonzero at every k whose sample exceeds
    T(M - 1) + delta + (top + 1) 2^-40 in modulus.  The last term allows
    for rounding: 2^-40 per power covers 64 eps times log2 of any FFT
    length in the running products, and the |n|-fold phase with one FFT
    here.
    """
    if not (phi.r != 0.0 and 1 <= n <= top and 0.0 < tol < math.inf):
        raise ParameterError(f"a sampled column needs r != 0, 1 <= n <= top and a positive "
                             f"finite tolerance, got r = {phi.r}, n = {n}, top = {top}, tol = {tol:g}")
    x = abs(phi.r)
    delta = power_l1_bound(phi, top) * math.expm1(0.26 * tol)
    grid = _cauchy_grid(lambda M: _cauchy_tail(x, n, constant(), M - 1), delta)
    if grid is None:
        return None
    M, alias = grid
    t = 2.0 * np.pi * np.arange(M) / M
    phase = t + 2.0 * np.arctan2(phi.r * np.sin(t), 1.0 - phi.r * np.cos(t))
    sampled = np.abs(np.fft.fft(np.exp(1j * n * phase)) / M)
    rows = np.flatnonzero(sampled > alias + delta + (top + 1) * 2.0 ** -40)
    return (int(rows[0]), int(rows[-1])) if len(rows) else None


def _cauchy_grid(bound: Callable[[int], float], tol: float) -> tuple[int, float] | None:
    """The smallest power of two M <= 2^MAX_LOG2_GRID with ``bound(M)`` <= tol, and that bound.

    ``bound(M)`` is what the caller certifies of an M-point circle sample:
    an aliasing tail from ``_cauchy_tail``, infinite until the grid holds
    the bulk of the coefficients and geometric beyond, plus a stated
    rounding allowance, which grows with M.  None, before any sample is
    taken, when no grid up to the cap qualifies: an uncertified grid is
    never returned.
    """
    M = 2
    while M <= 1 << MAX_LOG2_GRID:
        err = bound(M)
        if err <= tol:
            return M, err
        M *= 2
    return None


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
        return _cauchy_tail(x, n, w, K)

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


def _cauchy_tail(x: float, n: int, w: Weight, K: int) -> float:
    """An upper bound of sum_{k>K} w(k) |c_k| for the coefficients c of b_r^n, |r| = x, n >= 0.

    The bound of ``_power_rows``: M(rho)^n ``geometric_tail(w, 1/rho, K)``
    at the rho minimising rho^-K M(rho)^n; inf when K <= n (1 + x)/(1 - x)
    or no tail is found.  The product is formed in logarithms, so M(rho)^n
    is never dropped where the tail underflows.  As M(rho) >= 1,
    the bound at this rho also holds for every power below n.  z^n (x = 0)
    and 1 (n = 0) have one coefficient, and their tail is exact.
    """
    if x == 0.0 or n == 0:
        return w.eval(n) if n > K else 0.0
    b = K * (1.0 + x * x) - n * (1.0 - x * x)
    disc = b * b - 4.0 * (K * x) ** 2
    if not (b > 0.0 and disc > 0.0):
        return math.inf
    rho = (b + math.sqrt(disc)) / (2.0 * K * x)
    log_bound = (n * math.log((rho - x) / (1.0 - x * rho))
                 + geometric_tail(w, 1.0 / rho, K, log=True))
    return math.exp(log_bound) if log_bound < 700.0 else math.inf


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


# ---------------------------------------------------------------------
# composition by circle sampling
# ---------------------------------------------------------------------


def _roots_of_unity(M: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(M) / M)


def _compose_once(f: TruncSeq, phi: Blaschke, M: int) -> TruncSeq:
    z = _roots_of_unity(M)
    w = map_values(phi, z)
    acc = np.zeros(M, dtype=np.complex128)
    for c in f.values[::-1]:  # Horner on the shifted polynomial
        acc = acc * w + c
    acc = acc * w ** f.lo
    coef = np.fft.fftshift(np.fft.fft(acc) / M)
    return TruncSeq(-(M // 2), coef)


def compose_transform(f: TruncSeq, phi: Blaschke, cauchy_tol: float = 1e-9) -> TruncSeq:
    """Coefficients of z -> f^(phi(z)), f^ the Laurent series of f, within 1.01 cauchy_tol in l1.

    One sample on the M-th roots of unity, the grid of ``_cauchy_grid``
    whose aliasing tail plus rounding allowance is at most ``cauchy_tol``
    (``_composed`` states both), then an l1 trim of ``cauchy_tol`` / 100.
    Raises :class:`AccuracyError` before any sample when no grid of at
    most 2^MAX_LOG2_GRID points qualifies, and :class:`ParameterError`
    before any grid for a tolerance that is not positive and finite.
    """
    g = _composed(f, phi, cauchy_tol)[0]
    return l1_trimmed(g.lo, g.values, cauchy_tol / 100.0)


def _composed(f: TruncSeq, phi: Blaschke, cauchy_tol: float,
              w: Weight | None = None) -> tuple[TruncSeq, float]:
    """The untrimmed sample of ``compose_transform``, and E >= sum_k w(k) |g_k - exact_k|.

    Without ``w`` E bounds the l1 error, which the grid is chosen for; a
    weight w must be symmetric and nondecreasing in |k|.
    f^ o b_r = sum_j f_j b_r^j.  Read on the window -M/2..M/2-1, the
    M-point sample of b_r^j misses each coefficient outside and adds it
    to one inside, nearer 0, so its weighted error is at most
    2 T_j(M/2 - 1) (``_cauchy_tail`` under w).  One call at J = max |j|
    bounds every |j| <= J, and negative powers are conjugate reflections,
    so the aliasing of the sample is at most 2 ||f||_1 T_J(M/2 - 1).  The
    rounding allowance is R = (8 J P + 8 log2 M) u sqrt(M) ||f||_1,
    u = 2^-53.  A sample is off by a multiple of J |b_r'(z)| u ||f||_1
    (the root of unity, the map value and its powers, and Horner's rule
    on at most 2 J + 1 terms), whose root mean square on the circle has
    P = ((1 + r^2)/(1 - r^2))^(1/2) for |b_r'|; the FFT adds a multiple
    of log2 M u times the samples' root mean square, at most ||f||_1; and
    sqrt(M) turns the l2 error of M coefficients into l1.  The factors 8
    are fixed against exact rational coefficients of b_r^n: at r = 0.5
    and n = +-2 ... +-400 the error is under 0.3 R.  The rounding falls
    inside the window, where w is at most w(M/2).
    """
    if not 0.0 < cauchy_tol < math.inf:
        raise ParameterError("composition needs a positive finite Cauchy tolerance, "
                             f"got {cauchy_tol:g}")
    if f.is_zero:
        return f, 0.0
    x, J, norm = abs(phi.r), max(-f.lo, f.hi), l1_norm(f)
    if J == 0:  # a constant composes to itself
        return TruncSeq(0, f.values.astype(np.complex128)), 0.0
    rms_slope = math.sqrt((1.0 + x * x) / (1.0 - x * x))

    def rounding(M: int) -> float:
        return (8.0 * J * rms_slope + 8.0 * math.log2(M)) * 2.0 ** -53 * math.sqrt(M) * norm

    grid = _cauchy_grid(lambda M: 2.0 * norm * _cauchy_tail(x, J, constant(), M // 2 - 1)
                        + rounding(M), cauchy_tol)
    if grid is None:
        raise AccuracyError(f"no grid of at most 2^{MAX_LOG2_GRID} points certifies the "
                            f"composition to {cauchy_tol:g} in l1")
    M, err = grid
    if w is not None:
        err = 2.0 * norm * _cauchy_tail(x, J, w, M // 2 - 1) + w.eval(M // 2) * rounding(M)
    return _compose_once(f, phi, M), err
