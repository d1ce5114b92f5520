"""Convolution algebras of finite groups and their isomorphisms.

Groups are Cayley tables over elements 0..n-1.  Functions on a group
are plain complex arrays indexed by element.  The module provides the
convolution product, standard (weighted-permutation) isomorphisms built
from a character and a group isomorphism, an exhaustive homomorphism
check, the dual-permutation automorphisms of the cyclic group obtained
by conjugating a permutation with the DFT, and a scan of their l1
operator norms against the 1.2 threshold.
Both scans are exhaustive: all n! permutations (n <= 9) go through
batched numpy kernels in blocks, and none is sampled or skipped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CharacterError, ParameterError, SizeError


# ---------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its Cayley table table[a, b] = a*b."""

    table: np.ndarray
    name: str = "G"

    def __post_init__(self) -> None:
        t = np.asarray(self.table, dtype=np.intp)
        n = len(t)
        if t.shape != (n, n) or n == 0:
            raise ParameterError("the Cayley table must be square and nonempty")
        if np.any((t < 0) | (t >= n)):
            raise ParameterError("table entries must be element indices")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        ident = None
        rng = np.arange(n)
        for e in range(n):
            if np.array_equal(t[e], rng) and np.array_equal(t[:, e], rng):
                ident = e
                break
        if ident is None:
            raise ParameterError("the table has no two-sided identity")
        inv = np.full(n, -1, dtype=np.intp)
        for a in range(n):
            hits = np.nonzero(t[a] == ident)[0]
            if len(hits) != 1 or t[hits[0], a] != ident:
                raise ParameterError(f"element {a} lacks a two-sided inverse")
            inv[a] = hits[0]
        inv.setflags(write=False)
        # associativity: table[table[a,b], c] == table[a, table[b,c]]
        if not np.array_equal(t[t], t[:, t]):
            raise ParameterError("the Cayley table is not associative")
        object.__setattr__(self, "identity", int(ident))
        object.__setattr__(self, "inverses", inv)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])


def cyclic(n: int) -> FiniteGroup:
    """The cyclic group Z_n with addition mod n."""
    if n < 1:
        raise ParameterError("cyclic group order must be >= 1")
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, name=f"Z{n}")


def _s3_perms() -> list[tuple[int, ...]]:
    return sorted(itertools.permutations(range(3)))


def symmetric3() -> FiniteGroup:
    """The symmetric group on three letters, composition (p*q)(x) = p(q(x))."""
    perms = _s3_perms()
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.zeros((n, n), dtype=np.intp)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[x]] for x in range(3))]
    return FiniteGroup(table, name="S3")


def builtin_group(name: str) -> FiniteGroup:
    """Resolve 'Z<n>' (n <= 12) or 'S3' to a group instance."""
    if name == "S3":
        return symmetric3()
    if isinstance(name, str) and name[:1] == "Z" and name[1:].isdecimal():
        n = int(name[1:])
        if not 1 <= n <= 12:
            raise ParameterError(f"built-in cyclic groups cover Z1..Z12, got {name}")
        return cyclic(n)
    raise ParameterError(f"unknown built-in group {name!r}")


# ---------------------------------------------------------------------
# functions on a group
# ---------------------------------------------------------------------


def convolve_group(f: np.ndarray, g: np.ndarray, G: FiniteGroup) -> np.ndarray:
    """(f * g)(x) = sum_y f(y) g(y^{-1} x)."""
    f = np.asarray(f, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    if f.shape != (G.order,) or g.shape != (G.order,):
        raise ParameterError("functions must have one value per group element")
    shifted = g[G.table[G.inverses, :]]  # row y holds g(y^-1 x)
    return f @ shifted


def cyclic_character(n: int, k: int) -> np.ndarray:
    """The character x -> exp(2 pi i k x / n) of Z_n."""
    return np.exp(2j * np.pi * k * np.arange(n) / n)


def s3_sign_character() -> np.ndarray:
    """The sign character of the built-in S3 ordering."""
    out = []
    for p in _s3_perms():
        inversions = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        out.append((-1.0) ** inversions)
    return np.asarray(out, dtype=np.complex128)


def inner_automorphism(G: FiniteGroup, g: int) -> np.ndarray:
    """x -> g x g^{-1} as an index map."""
    return np.asarray([G.mul(G.mul(g, x), G.inv(g)) for x in range(G.order)],
                      dtype=np.intp)


def cyclic_automorphism(n: int, a: int) -> np.ndarray:
    """x -> a x mod n, requiring gcd(a, n) = 1."""
    if math.gcd(a, n) != 1:
        raise ParameterError(f"{a} is not a unit mod {n}")
    return (a * np.arange(n)) % n


# ---------------------------------------------------------------------
# standard isomorphisms
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class StandardIso:
    """A standard isomorphism: (Tf)(h) = gamma(phi^{-1} h) f(phi^{-1} h).

    ``phi`` is a group isomorphism source -> target (index map) and
    ``gamma`` a nonvanishing multiplicative character on the source.
    The general form carries a constant factor c from the Haar measures;
    with counting measure on both finite groups c = 1, so it is omitted.
    """

    source: FiniteGroup
    target: FiniteGroup
    phi: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        n = self.source.order
        phi = np.asarray(self.phi, dtype=np.intp)
        gamma = np.asarray(self.gamma, dtype=np.complex128)
        if self.target.order != n:
            raise ParameterError("groups must have equal order")
        if phi.shape != (n,) or sorted(phi.tolist()) != list(range(n)):
            raise ParameterError("phi must be a bijection of element indices")
        lhs = phi[self.source.table]
        rhs = self.target.table[phi[:, None], phi[None, :]]
        if not np.array_equal(lhs, rhs):
            raise ParameterError("phi does not preserve the group law")
        if gamma.shape != (n,):
            raise CharacterError("gamma must have one value per element")
        if not np.all(np.abs(gamma) >= 1e-300):
            raise CharacterError("gamma must be nonvanishing (and not NaN)")
        prod = gamma[self.source.table]
        outer = gamma[:, None] * gamma[None, :]
        if not np.max(np.abs(prod - outer)) <= 1e-12 * max(1.0, float(np.max(np.abs(outer)))):
            raise CharacterError("gamma is not multiplicative")
        phi.setflags(write=False)
        gamma.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "gamma", gamma)


def standard_iso_matrix(iso: StandardIso) -> np.ndarray:
    n = iso.source.order
    T = np.zeros((n, n), dtype=np.complex128)
    T[iso.phi, np.arange(n)] = iso.gamma
    return T


# ---------------------------------------------------------------------
# homomorphism defect
# ---------------------------------------------------------------------


HOM_DEFECT_TOL = 1e-10  # largest defect is_algebra_homomorphism and the census accept


@dataclass(frozen=True)
class HomReport:
    is_homomorphism: bool
    max_defect: float


def is_algebra_homomorphism(T: np.ndarray, G: FiniteGroup, H: FiniteGroup) -> HomReport:
    """Exhaustive check of T(delta_a * delta_b) = T delta_a * T delta_b, to ``HOM_DEFECT_TOL``.

    A NaN defect fails.
    """
    T = np.asarray(T, dtype=np.complex128)
    if T.shape != (H.order, G.order):
        raise ParameterError("matrix shape must be (|H|, |G|)")
    worst = float(np.max([np.abs(T[:, G.table[a, b]] - convolve_group(T[:, a], T[:, b], H))
                          for a in range(G.order) for b in range(G.order)]))
    return HomReport(worst <= HOM_DEFECT_TOL, worst)


def _hom_defect_cyclic(T: np.ndarray, pairs: tuple, work: tuple) -> float:
    """Largest homomorphism defect over a (B, n, n) stack of matrices on Z_n.

    T delta_a * T delta_b - T delta_{a+b} is the inverse DFT over j of
    V_a V_b - V_{a+b}, V_a the DFT of column a.  Pairs a > b are skipped:
    floating-point products commute, so their defects equal (b, a)'s.
    ``pairs`` and ``work`` come from ``_defect_workspace`` once per scan:
    the index arrays a, b and (a + b) mod n of the n(n+1)/2 pairs, and
    two complex buffers of n(n+1)/2 * B * n entries that every block
    reuses for the three pair gathers, the inverse DFT and the modulus.
    Beyond them a block allocates only V, n * B * n entries laid out
    (a, B, j) so that the gathers copy whole rows.
    """
    B, n = len(T), T.shape[-1]
    V = np.fft.fft(T.transpose(2, 0, 1), axis=-1)            # (a, B, j)
    a, b, s = pairs
    size = len(a) * B * n
    D, E = (w[:size].reshape(len(a), B, n) for w in work)
    np.take(V, a, axis=0, out=D, mode="clip")
    D *= np.take(V, b, axis=0, out=E, mode="clip")
    D -= np.take(V, s, axis=0, out=E, mode="clip")
    np.fft.ifft(D, axis=-1, out=E)
    return float(np.abs(E, out=work[0].view(np.float64)[:size].reshape(D.shape)).max())


def _defect_workspace(n: int) -> tuple[tuple, tuple]:
    """The pairs and the two work buffers of ``_hom_defect_cyclic``, for blocks of Z_n."""
    a, b = np.triu_indices(n)
    size = len(a) * _block_size(n) * n
    return (a, b, (a + b) % n), (np.empty(size, np.complex128), np.empty(size, np.complex128))


# ---------------------------------------------------------------------
# rigidity of scaled translations
# ---------------------------------------------------------------------


def translation_rigidity_check(G: FiniteGroup) -> bool:
    """Scaled translations f -> c * f(x^{-1} .) are never nontrivial automorphisms.

    Exact algebraic test: such an operator is multiplicative iff
    x(ab) = (xa)(xb) for all a, b (which forces x = e) and c^2 = c with
    c != 0 (which forces c = 1), whatever the weight and exponent.
    Returns whether x = e is the only element passing the first test.
    """
    t = G.table
    good = []
    for x in range(G.order):
        lhs = t[x][t]                      # x * (a b)
        rhs = t[np.ix_(t[x], t[x])]        # (x a) * (x b)
        if np.array_equal(lhs, rhs):
            good.append(x)
    return good == [G.identity]


# ---------------------------------------------------------------------
# dual-permutation automorphisms of Z_n
# ---------------------------------------------------------------------


# bound on B * n**3, B permutations per block: the census's two work buffers
# hold n(n+1)/2 * B * n complex entries each, about 440 KB at n = 7, 8 and 9
_BLOCK_ENTRIES = 49152


def check_scan_order(n: int) -> None:
    """Raise SizeError unless the scans below cover all n! permutations (1 <= n <= 9)."""
    if not 1 <= n <= 9:
        raise SizeError(f"factorial scans are capped at 1 <= n <= 9, got {n}")


def _block_size(n: int) -> int:
    return max(1, _BLOCK_ENTRIES // n ** 3)


def _fourier_conjugated(sigmas: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The (B, n, n) stack T_i = F^{-1} P_sigma F, sigma = sigmas[i], (P_sigma v)(j) = v(sigma(j)).

    ``F`` is the DFT matrix.  The stack is a transposed view of a
    contiguous (a, B, x) array: column a of every T_i is one contiguous
    row, so this inverse DFT and the defect's DFTs run along the last axis.
    """
    C = np.take(F.T, sigmas, axis=1)                          # C[a, i, j] = F[sigma_i(j), a]
    return np.fft.ifft(C, axis=-1, out=C).transpose(1, 2, 0)


def affine_mask(sigmas: np.ndarray, n: int) -> np.ndarray:
    """Which rows sigma of a (B, n) array are j -> (a j + k) mod n with gcd(a, n) = 1."""
    sigmas = np.asarray(sigmas, dtype=np.intp)
    if n == 1:
        return np.ones(len(sigmas), dtype=bool)
    k = sigmas[:, 0]
    a = (sigmas[:, 1] - k) % n
    line = (a[:, None] * np.arange(n) + k[:, None]) % n
    return (np.gcd(a, n) == 1) & np.all(sigmas == line, axis=1)


def _dual_permutation_blocks(n: int):
    """All n! permutations in lexicographic order as (sigmas, T, affine) blocks."""
    F = np.fft.fft(np.eye(n), axis=0)
    entries = itertools.chain.from_iterable(itertools.permutations(range(n)))
    step = _block_size(n) * n
    while (flat := np.fromiter(itertools.islice(entries, step), np.intp)).size:
        sigmas = flat.reshape(-1, n)
        yield sigmas, _fourier_conjugated(sigmas, F), affine_mask(sigmas, n)


def affine_standard_iso(n: int, a: int, k: int) -> StandardIso:
    """The standard form matching the dual permutation j -> a j + k on Z_n.

    Conjugating that permutation with the DFT yields pointwise
    multiplication by the character x -> exp(-2 pi i a^{-1} k x / n)
    composed with x -> a^{-1} x, i.e. the standard isomorphism with
    phi(y) = a y and gamma the (-k)-th character.
    """
    G = cyclic(n)
    return StandardIso(G, G, phi=cyclic_automorphism(n, a),
                       gamma=cyclic_character(n, -k))


@dataclass(frozen=True)
class AutomorphismScan:
    n: int
    total: int
    standard_count: int
    nonstandard_count: int
    max_hom_defect: float
    max_isometry_defect: float
    nonstandard_example_sigma: tuple[int, ...] | None
    nonstandard_example: np.ndarray | None


def enumerate_l2_automorphisms(n: int) -> AutomorphismScan:
    """All automorphisms F^{-1} P_sigma F of the convolution algebra of Z_n.

    Every dual permutation gives an l2-isometric algebra automorphism;
    the standard ones are exactly the affine permutations
    j -> a j + k with gcd(a, n) = 1 (n * phi(n) of them).  Verifies the
    homomorphism and isometry defects on all n! permutations; the example
    is the first non-affine one in lexicographic order.  A block whose
    homomorphism defect is above ``HOM_DEFECT_TOL``, or NaN, is refused.
    """
    check_scan_order(n)
    total = standard = 0
    max_def = max_iso = 0.0
    example = example_sigma = None
    pairs, work = _defect_workspace(n)
    eye = np.eye(n)
    for sigmas, T, affine in _dual_permutation_blocks(n):
        total += len(sigmas)
        standard += int(np.count_nonzero(affine))
        defect = _hom_defect_cyclic(T, pairs, work)
        if not defect <= HOM_DEFECT_TOL:
            raise ParameterError(f"homomorphism defect {defect:g} above {HOM_DEFECT_TOL:g}")
        max_def = max(max_def, defect)
        max_iso = max(max_iso, float(np.abs(T.conj().transpose(0, 2, 1) @ T - eye).max()))
        if example is None and not affine.all():
            i = int(np.argmin(affine))
            example, example_sigma = T[i].copy(), tuple(int(v) for v in sigmas[i])
    return AutomorphismScan(n, total, standard, total - standard, max_def,
                            max_iso, example_sigma, example)


@dataclass(frozen=True)
class SmallNormReport:
    n: int
    threshold: float
    min_nonstandard_norm: float | None
    max_standard_norm: float
    all_below_threshold_standard: bool


def small_norm_scan(n: int, threshold: float = 1.2) -> SmallNormReport:
    """l1 operator norms of the dual-permutation automorphisms of Z_n.

    The l1 -> l1 norm is exactly the maximal column l1 norm.  Standard
    (affine) automorphisms are phased permutations of the group domain
    and have norm 1; the scan reports the smallest nonstandard norm and
    whether every automorphism with norm below the threshold is standard.
    All n! permutations are scanned; a NaN threshold is refused first,
    and a NaN norm when its block is reached.
    """
    check_scan_order(n)
    if math.isnan(threshold):
        raise ParameterError("the norm threshold must be a number, got nan")
    min_nonstd, max_std = math.inf, 0.0
    for _, T, affine in _dual_permutation_blocks(n):
        norms = np.abs(T).sum(axis=1).max(axis=1)
        if np.isnan(norms).any():
            raise ParameterError("an l1 norm of the scan is nan")
        max_std = max(max_std, float(norms.max(initial=0.0, where=affine)))
        min_nonstd = min(min_nonstd, float(norms.min(initial=math.inf, where=~affine)))
    return SmallNormReport(n, threshold, None if min_nonstd == math.inf else min_nonstd,
                           max_std, min_nonstd >= threshold)
