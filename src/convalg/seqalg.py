"""Finitely supported two-sided sequences and their algebra.

``TruncSeq`` stores coefficients on a contiguous index window of Z with
exact zeros trimmed from both ends; the empty window is the zero
sequence.  Real coefficients are stored as float64 and complex ones as
complex128, always in a read-only copy: a float64 or complex128 array
whose two end values are nonzero is only copied, any other input is
converted and scanned for its nonzero window first.  Convolution keeps
real data real (a real FFT when both factors are real), so the imaginary
parts of real sequences stay exactly zero.  A product may carry an
optional l1 budget, spent on its end coefficients before the product is
stored.  Convolution, weighted p-norms, the formal derivative/antiderivative
pair and sampling of the associated Laurent series at roots of unity
live here; translation by x is convolution by ``delta(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError, SizeError
from .weights import Weight

MAX_RESULT_LEN = 1 << 22


@dataclass(frozen=True, eq=False)
class TruncSeq:
    """Coefficients ``values[k]`` at indices ``lo + k``; exact-zero ends trimmed.

    ``values`` is float64 when the given values are real and complex128
    otherwise.
    """

    lo: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals, lo = self.values, self.lo
        if type(vals) is not np.ndarray or vals.dtype not in (np.float64, np.complex128):
            vals = np.asarray(vals)
            vals = vals.astype(np.complex128 if np.iscomplexobj(vals) else np.float64, copy=False)
        if vals.ndim != 1:
            raise ParameterError("coefficients must form a one-dimensional array")
        if not (len(vals) and vals[0] and vals[-1]):  # an exact-zero end (or no value): trim
            nz = np.nonzero(vals)[0]
            lo, vals = (0, vals[:0]) if len(nz) == 0 else (lo + int(nz[0]), vals[nz[0]: nz[-1] + 1])
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "lo", int(lo))
        object.__setattr__(self, "values", vals)

    @property
    def hi(self) -> int:
        """Last index of the support (lo - 1 for the zero sequence)."""
        return self.lo + len(self.values) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.values) == 0

    @property
    def support_len(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> complex:
        if self.lo <= n <= self.hi:
            return complex(self.values[n - self.lo])
        return 0.0 + 0.0j

    def indices(self) -> np.ndarray:
        return np.arange(self.lo, self.lo + len(self.values))

    def same(self, other: "TruncSeq") -> bool:
        """Exact equality of supports and coefficients."""
        return self.lo == other.lo and np.array_equal(self.values, other.values)

    def __add__(self, other: "TruncSeq") -> "TruncSeq":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        out = np.zeros(hi - lo + 1, dtype=np.result_type(self.values, other.values))
        out[self.lo - lo: self.lo - lo + len(self.values)] += self.values
        out[other.lo - lo: other.lo - lo + len(other.values)] += other.values
        return TruncSeq(lo, out)

    def __neg__(self) -> "TruncSeq":
        return TruncSeq(self.lo, -self.values)

    def __sub__(self, other: "TruncSeq") -> "TruncSeq":
        return self + (-other)

    def __mul__(self, c: complex) -> "TruncSeq":
        return TruncSeq(self.lo, self.values * c)

    __rmul__ = __mul__


def delta(n: int, value: complex = 1.0) -> TruncSeq:
    """The unit point mass at index n (scaled by ``value``, whose dtype it keeps)."""
    return TruncSeq(int(n), np.asarray([value]))


def l1_norm(f: TruncSeq) -> float:
    return float(np.sum(np.abs(f.values)))


def l1_diff(f: TruncSeq, g: TruncSeq) -> float:
    return l1_norm(f - g)


# ---------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------


def l1_trimmed(lo: int, values: np.ndarray, budget: float) -> TruncSeq:
    """``TruncSeq(lo, values)`` less end coefficients of l1 mass <= budget / 2 at each end.

    A budget that is not >= 0 (a NaN too) raises :class:`ParameterError`.
    """
    if not budget >= 0.0:
        raise ParameterError(f"an l1 budget must be >= 0, got {budget}")
    if budget == 0.0:
        return TruncSeq(lo, values)
    mags, half = np.abs(values), budget / 2.0
    left = int(mags.cumsum().searchsorted(half, side="right"))
    right = int(mags[::-1].cumsum().searchsorted(half, side="right"))
    return TruncSeq(lo + left, values[left: len(mags) - right])


def convolve(f: TruncSeq, g: TruncSeq, method: str = "auto", budget: float = 0.0) -> TruncSeq:
    """Convolution sum h(n) = sum_k f(k) g(n-k), less the ends ``l1_trimmed`` drops at ``budget``.

    ``method`` is "direct" (quadratic sum), "fft" (zero-padded DFT, a
    real one when both factors are real) or "auto"; the two explicit
    routes agree within 1e-9 absolutely and the direct route is exact on
    integer inputs.  ``convolve(f, f)`` transforms f once.  The l1 budget
    (default 0: no cut) is spent on the raw product before it is stored;
    one that is not >= 0 raises :class:`ParameterError` before any work.
    """
    if not budget >= 0.0:
        raise ParameterError(f"an l1 budget must be >= 0, got {budget}")
    return RightMultiplier(g)(f, method, budget)


class RightMultiplier:
    """f -> f * g for a fixed right factor g, which keeps g's spectrum.

    It keeps the spectrum of g at the last FFT length used, also for a
    left factor that is g itself, so a loop whose lengths only grow
    transforms g once per length.  Such a loop holds one multiplier;
    ``convolve`` makes one per call, so no spectrum outlives its caller.
    """

    def __init__(self, g: TruncSeq) -> None:
        self.g = g
        self._key: tuple[int, bool] | None = None
        self._spectrum: np.ndarray | None = None

    def _g_spectrum(self, nfft: int, real: bool) -> np.ndarray:
        if self._key != (nfft, real):
            self._key, self._spectrum = (nfft, real), _dft(self.g.values, nfft, real)
        return self._spectrum

    def __call__(self, f: TruncSeq, method: str = "auto", budget: float = 0.0) -> TruncSeq:
        if method not in ("auto", "direct", "fft"):
            raise ParameterError(f"unknown convolution method {method!r}")
        g = self.g
        if f.is_zero or g.is_zero:
            return TruncSeq(0, np.zeros(0, dtype=np.result_type(f.values, g.values)))
        out_len = len(f.values) + len(g.values) - 1
        if out_len > MAX_RESULT_LEN:
            raise SizeError(f"convolution support {out_len} exceeds {MAX_RESULT_LEN}")
        if method == "auto":
            short = out_len <= 512 or min(len(f.values), len(g.values)) <= 32
            method = "direct" if short else "fft"
        if method == "direct":
            out = np.convolve(f.values, g.values)
        else:
            nfft = 1 << (out_len - 1).bit_length()
            real = not (np.iscomplexobj(f.values) or np.iscomplexobj(g.values))
            G = self._g_spectrum(nfft, real)
            F = G if f is g else _dft(f.values, nfft, real)
            out = (np.fft.irfft(F * G, nfft) if real else np.fft.ifft(F * G))[:out_len]
        return l1_trimmed(f.lo + g.lo, out, budget)


def _dft(values: np.ndarray, nfft: int, real: bool) -> np.ndarray:
    """Zero-padded DFT of length nfft; the half spectrum of real values when ``real``."""
    return np.fft.rfft(values, nfft) if real else np.fft.fft(values, nfft)


# ---------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------


def weighted_norm(f: TruncSeq, p: float, w: Weight) -> float:
    """(sum |f(n)|^p w(n)^p)^(1/p), computed scale-safely.

    A NaN coefficient raises :class:`ParameterError`, an overflow :class:`RangeError`.
    """
    if not p >= 1.0:
        raise ParameterError(f"the norm exponent must satisfy p >= 1, got {p}")
    if f.is_zero:
        return 0.0
    wv = w.eval_array(f.indices())
    if not np.all(np.isfinite(wv)):
        bad = int(f.indices()[np.argmax(~np.isfinite(wv))])
        raise RangeError(f"weight overflow at index {bad}")
    with np.errstate(over="ignore"):  # an overflow is reported below
        t = np.abs(f.values) * wv
    m = float(np.max(t))
    if not np.isfinite(m):
        nan = np.isnan(f.values)
        if nan.any():
            raise ParameterError(f"coefficient {f.lo + int(np.argmax(nan))} is nan")
        raise RangeError("weighted coefficient overflow")
    if m == 0.0:
        return 0.0
    return m * float(np.sum((t / m) ** p)) ** (1.0 / p)


# ---------------------------------------------------------------------
# formal derivative / antiderivative
# ---------------------------------------------------------------------


def formal_derivative(f: TruncSeq) -> TruncSeq:
    """g(n) = (n+1) f(n+1): the coefficient sequence of d/dz of the series."""
    if f.is_zero:
        return f
    idx = f.indices()
    return TruncSeq(f.lo - 1, idx * f.values)


def antiderivative(g: TruncSeq) -> TruncSeq:
    """f with f(0) = 0 and f(n) = g(n)/n for n != 0.

    Then the series of ``formal_derivative(f)`` equals (g^(z) - g(0))/z.
    """
    if g.is_zero:
        return g
    idx = g.indices()
    vals = np.where(idx == 0, 0.0, g.values / np.where(idx == 0, 1, idx))
    return TruncSeq(g.lo, vals)


# ---------------------------------------------------------------------
# sampling the Laurent series at roots of unity
# ---------------------------------------------------------------------


def gelfand_sample(f: TruncSeq, M: int) -> np.ndarray:
    """Values sum_n f(n) z^n at the M-th roots of unity z_j = exp(2*pi*i*j/M).

    Computed by wrapping indices mod M and one inverse DFT; exact (up to
    rounding) whenever M exceeds the support span.
    """
    if M < 1:
        raise ParameterError("need at least one sampling point")
    wrapped = np.zeros(M, dtype=np.complex128)
    if not f.is_zero:
        np.add.at(wrapped, f.indices() % M, f.values)
    return M * np.fft.ifft(wrapped)
