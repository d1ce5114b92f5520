"""Reference values computed apart from convalg, with numpy alone.

Nothing here imports convalg: each function recomputes a quantity the
benchmark reads from the program by a different route, so a check that
compares the two can catch a wrong answer in either layer of the program.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def grid_size(r: float, n_max: int) -> int:
    """Power-of-two sampling grid that holds the support of b_r^n, |n| <= n_max.

    The coefficients of b_r^n are negligible beyond index
    (1+|r|)/(1-|r|) * |n| plus a tail of a few dozen decay lengths; the
    grid spans four times that, and never fewer than 2048 points.
    """
    r = abs(r)
    reach = (1.0 + r) / (1.0 - r) * n_max + 60.0 / (1.0 - r)
    return max(2048, 1 << math.ceil(math.log2(4.0 * reach)))


def blaschke_columns(r: float, ns, M: int) -> np.ndarray:
    """Coefficients of b_r^n for each n in ``ns``, rows indexed -M/2..M/2-1.

    b_r(z) = (z - r)/(1 - r z) is sampled on the M-th roots of unity, its
    powers are taken through the phase (|b_r| = 1 on the circle), and one
    FFT per column turns the samples into coefficients.
    """
    z = np.exp(2j * np.pi * np.arange(M) / M)
    theta = np.angle((z - r) / (1.0 - r * z))
    ns = np.asarray(ns, dtype=float)
    samples = np.exp(1j * theta[:, None] * ns[None, :])
    return np.fft.fftshift(np.fft.fft(samples, axis=0) / M, axes=0)


def weighted_sigma(r: float, N: int, a: float, M: int = 2048) -> float:
    """Top singular value of the weighted truncation of C_{b_r}, |n| <= N.

    Columns n = -N..N come from :func:`blaschke_columns`; row k is scaled
    by max(1, |k|^a) and column n divided by max(1, |n|^a).  Every row of
    the sampling grid is kept, so no coefficient mass is discarded.
    """
    ns = np.arange(-N, N + 1)
    cols = blaschke_columns(r, ns, M)
    ks = np.arange(-(M // 2), M // 2)
    w_out = np.maximum(1.0, np.abs(ks).astype(float) ** a)
    w_in = np.maximum(1.0, np.abs(ns).astype(float) ** a)
    A = cols * w_out[:, None] / w_in[None, :]
    return float(np.linalg.svd(A, compute_uv=False)[0])


def blaschke_column(r: float, n: int) -> tuple[int, np.ndarray]:
    """Coefficients of b_r^n on a grid of :func:`grid_size`, with their first index."""
    M = grid_size(r, abs(n))
    return -(M // 2), blaschke_columns(r, [n], M)[:, 0]


def euler_phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def min_nonstandard_l1_norm(n: int, chunk: int = 5040) -> float | None:
    """Smallest l1 operator norm of F^-1 P_sigma F over non-affine sigma.

    F is the explicit n-point DFT matrix, (P_sigma v)(j) = v(sigma(j)), and
    the l1 -> l1 norm is the largest column l1 norm.  The affine
    permutations j -> a j + k with gcd(a, n) = 1 are excluded; ``None``
    when every permutation is affine.  Permutations go through numpy in
    batches of ``chunk``.
    """
    j = np.arange(n)
    F = np.exp(-2j * np.pi * np.outer(j, j) / n)
    F_inv = F.conj() / n
    affine = {tuple(int(x) for x in (a * j + k) % n)
              for a in range(1, n + 1) if math.gcd(a, n) == 1 for k in range(n)}
    best = None
    perms = itertools.permutations(range(n))
    while block := list(itertools.islice(perms, chunk)):
        batch = [p for p in block if p not in affine]
        if batch:
            T = np.matmul(F_inv, F[np.asarray(batch)])
            low = float(np.abs(T).sum(axis=1).max(axis=1).min())
            best = low if best is None else min(best, low)
    return best
