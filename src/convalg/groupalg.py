"""Convolution algebras of finite groups and their isomorphisms.

Groups are Cayley tables over elements 0..n-1.  Functions on a group
are plain complex arrays indexed by element.  The module provides the
convolution product, weighted p-norms, standard (weighted-permutation)
isomorphisms built from a character and a group isomorphism, a
classifier for general matrices, the dual-permutation automorphisms of
the cyclic group obtained by conjugating a permutation with the DFT,
and a scan of their l1 operator norms against the 1.2 threshold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import weights as wt
from .errors import (CharacterError, InvertibilityError, ParameterError,
                     SizeError)


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

    def to_json(self) -> dict:
        return {"name": self.name, "table": self.table.tolist()}

    @staticmethod
    def from_json(d: dict) -> "FiniteGroup":
        return FiniteGroup(np.asarray(d["table"]), name=str(d.get("name", "G")))


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
    if name.startswith("Z"):
        n = int(name[1:])
        if not 1 <= n <= 12:
            raise ParameterError(f"built-in cyclic groups cover Z1..Z12, got {name}")
        return cyclic(n)
    raise ParameterError(f"unknown built-in group {name!r}")


# ---------------------------------------------------------------------
# functions on a group
# ---------------------------------------------------------------------


def delta_func(G: FiniteGroup, a: int) -> np.ndarray:
    f = np.zeros(G.order, dtype=np.complex128)
    f[a] = 1.0
    return f


def convolve_group(f: np.ndarray, g: np.ndarray, G: FiniteGroup) -> np.ndarray:
    """(f * g)(x) = sum_y f(y) g(y^{-1} x)."""
    f = np.asarray(f, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    if f.shape != (G.order,) or g.shape != (G.order,):
        raise ParameterError("functions must have one value per group element")
    shifted = g[G.table[G.inverses, :]]  # row y holds g(y^-1 x)
    return f @ shifted


def weighted_norm_group(f: np.ndarray, p: float, w) -> float:
    """(sum |f(x)|^p w(x)^p)^(1/p) with w a Weight or an array of values."""
    if not p >= 1.0:
        raise ParameterError(f"the norm exponent must satisfy p >= 1, got {p}")
    f = np.asarray(f, dtype=np.complex128)
    wv = _weight_values(w, len(f))
    t = np.abs(f) * wv
    m = float(np.max(t))
    if m == 0.0:
        return 0.0
    return m * float(np.sum((t / m) ** p)) ** (1.0 / p)


def _weight_values(w, order: int) -> np.ndarray:
    if isinstance(w, wt.Weight):
        return w.eval_array(np.arange(order))
    arr = np.asarray(w, dtype=float)
    if arr.shape != (order,):
        raise ParameterError("weight values must match the group order")
    return arr


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
    """A standard isomorphism: (Tf)(h) = c * gamma(phi^{-1} h) f(phi^{-1} h).

    ``phi`` is a group isomorphism source -> target (index map) and
    ``gamma`` a nonvanishing multiplicative character on the source.
    With counting measure on both sides the constant c is 1.
    """

    source: FiniteGroup
    target: FiniteGroup
    phi: np.ndarray
    gamma: np.ndarray
    c: float = 1.0

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
        if np.any(np.abs(gamma) < 1e-300):
            raise CharacterError("gamma must be nonvanishing")
        prod = gamma[self.source.table]
        outer = gamma[:, None] * gamma[None, :]
        if np.max(np.abs(prod - outer)) > 1e-12 * max(1.0, float(np.max(np.abs(outer)))):
            raise CharacterError("gamma is not multiplicative")
        if not self.c > 0:
            raise ParameterError("c must be positive")
        phi.setflags(write=False)
        gamma.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "gamma", gamma)


def apply_standard_iso(iso: StandardIso, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=np.complex128)
    phi_inv = np.empty(iso.source.order, dtype=np.intp)
    phi_inv[iso.phi] = np.arange(iso.source.order)
    return iso.c * iso.gamma[phi_inv] * f[phi_inv]


def standard_iso_matrix(iso: StandardIso) -> np.ndarray:
    n = iso.source.order
    T = np.zeros((n, n), dtype=np.complex128)
    T[iso.phi, np.arange(n)] = iso.c * iso.gamma
    return T


# ---------------------------------------------------------------------
# homomorphism defect and classification
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class HomReport:
    is_homomorphism: bool
    max_defect: float
    tol: float


def is_algebra_homomorphism(T: np.ndarray, G: FiniteGroup, H: FiniteGroup,
                            tol: float = 1e-10) -> HomReport:
    """Exhaustive check of T(delta_a * delta_b) = T delta_a * T delta_b."""
    T = np.asarray(T, dtype=np.complex128)
    if T.shape != (H.order, G.order):
        raise ParameterError("matrix shape must be (|H|, |G|)")
    worst = 0.0
    for a in range(G.order):
        Ta = T[:, a]
        for b in range(G.order):
            lhs = T[:, G.table[a, b]]
            rhs = convolve_group(Ta, T[:, b], H)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return HomReport(worst <= tol, worst, tol)


def _hom_defect_cyclic(T: np.ndarray, n: int) -> float:
    """Homomorphism defect on Z_n via the convolution theorem, vectorized."""
    U = np.fft.fft(T, axis=0)
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    lhs = U[:, table]                      # (n, n, n): j, a, b
    rhs = np.einsum("ja,jb->jab", U, U)
    return float(np.max(np.abs(np.fft.ifft(rhs - lhs, axis=0))))


@dataclass(frozen=True)
class ClassifyReport:
    """Structural flags of an invertible matrix between weighted group algebras."""

    bipositive: bool
    isometric: bool
    isometry_sampled: bool
    norm: float
    inverse_norm: float
    norms_exact: bool
    cond: float


def classify_iso(T: np.ndarray, p: float, w1, w2, tol: float = 1e-10,
                 n_samples: int = 64, seed: int = 0) -> ClassifyReport:
    """Classify T: bipositivity, isometry, norms, condition number.

    Norms are exact for p = 2 (weighted singular values); for other p
    only the columnwise lower bound is reported.  Isometry is certified
    exactly for weighted-permutation matrices and otherwise sampled on
    random vectors (then flagged as sampled).
    """
    T = np.asarray(T, dtype=np.complex128)
    n = T.shape[0]
    if T.shape != (n, n):
        raise ParameterError("classification needs a square matrix")
    wv1 = _weight_values(w1, n)
    wv2 = _weight_values(w2, n)
    s = np.linalg.svd(T, compute_uv=False)
    if s[-1] <= 1e-13 * s[0]:
        raise InvertibilityError("matrix is singular to working precision")
    cond = float(s[0] / s[-1])
    Tinv = np.linalg.inv(T)
    scale = float(np.max(np.abs(T)))

    def _nonneg(M: np.ndarray) -> bool:
        return bool(np.all(M.real >= -tol) and np.all(np.abs(M.imag) <= tol))

    bipositive = _nonneg(T) and _nonneg(Tinv)

    sig = np.abs(T) > tol * scale
    weighted_perm = bool(np.all(sig.sum(axis=0) <= 1) and np.all(sig.sum(axis=1) <= 1))
    col_norms = np.array([weighted_norm_group(T[:, a], p, wv2) for a in range(n)])
    col_ratios = col_norms / wv1
    sampled = False
    if weighted_perm:
        isometric = bool(np.max(np.abs(col_ratios - 1.0)) <= 1e-12)
    else:
        isometric = bool(np.max(np.abs(col_ratios - 1.0)) <= 1e-9)
        if isometric:
            rng = np.random.default_rng(seed)
            for _ in range(n_samples):
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                rv = weighted_norm_group(T @ v, p, wv2) / weighted_norm_group(v, p, wv1)
                if abs(rv - 1.0) > 1e-9:
                    isometric = False
                    break
            sampled = isometric
    if p == 2.0:
        sw = np.linalg.svd(T * wv2[:, None] / wv1[None, :], compute_uv=False)
        norm, inverse_norm = float(sw[0]), float(1.0 / sw[-1])
        exact = True
    else:
        inv_cols = np.array([weighted_norm_group(Tinv[:, a], p, wv1) for a in range(n)])
        norm = float(np.max(col_ratios))
        inverse_norm = float(np.max(inv_cols / wv2))
        exact = False
    return ClassifyReport(bipositive, isometric, sampled, norm, inverse_norm,
                          exact, cond)


# ---------------------------------------------------------------------
# rigidity of scaled translations
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class RigidityReport:
    holds: bool
    admissible_x: tuple[int, ...]


def translation_rigidity_check(G: FiniteGroup) -> RigidityReport:
    """Scaled translations f -> c * f(x^{-1} .) are never nontrivial automorphisms.

    Exact algebraic test: such an operator is multiplicative iff
    x(ab) = (xa)(xb) for all a, b (which forces x = e) and c^2 = c with
    c != 0 (which forces c = 1), whatever the weight and exponent.
    """
    t = G.table
    good = []
    for x in range(G.order):
        lhs = t[x][t]                      # x * (a b)
        rhs = t[np.ix_(t[x], t[x])]        # (x a) * (x b)
        if np.array_equal(lhs, rhs):
            good.append(x)
    return RigidityReport(good == [G.identity], tuple(good))


# ---------------------------------------------------------------------
# dual-permutation automorphisms of Z_n
# ---------------------------------------------------------------------


def _fourier_conjugated(sigma: np.ndarray, F: np.ndarray) -> np.ndarray:
    """T = F^{-1} P_sigma F where (P_sigma v)(j) = v(sigma(j))."""
    return np.fft.ifft(F[sigma, :], axis=0)


def is_affine_perm(sigma: np.ndarray, n: int) -> bool:
    """Whether sigma(j) = (a j + k) mod n with gcd(a, n) = 1."""
    if n == 1:
        return True
    k = int(sigma[0])
    a = int((sigma[1] - sigma[0]) % n)
    if math.gcd(a, n) != 1:
        return False
    return bool(np.array_equal(sigma, (a * np.arange(n) + k) % n))


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

    def to_dict(self) -> dict:
        ex = None
        if self.nonstandard_example is not None:
            ex = [[[float(v.real), float(v.imag)] for v in row]
                  for row in self.nonstandard_example]
        return {
            "n": self.n,
            "total": self.total,
            "standard_count": self.standard_count,
            "nonstandard_count": self.nonstandard_count,
            "max_hom_defect": self.max_hom_defect,
            "max_isometry_defect": self.max_isometry_defect,
            "nonstandard_example_sigma": list(self.nonstandard_example_sigma)
            if self.nonstandard_example_sigma is not None else None,
            "nonstandard_example": ex,
        }


def enumerate_l2_automorphisms(n: int, defect_tol: float = 1e-10) -> AutomorphismScan:
    """All automorphisms F^{-1} P_sigma F of the convolution algebra of Z_n.

    Every dual permutation gives an l2-isometric algebra automorphism;
    the standard ones are exactly the affine permutations
    j -> a j + k with gcd(a, n) = 1 (n * phi(n) of them).  Verifies the
    homomorphism and isometry defects exhaustively.
    """
    if not 1 <= n <= 9:
        raise SizeError("factorial enumeration is capped at n <= 9")
    F = np.fft.fft(np.eye(n), axis=0)
    eye = np.eye(n)
    total = 0
    standard = 0
    max_def = 0.0
    max_iso = 0.0
    example: np.ndarray | None = None
    example_sigma: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(n)):
        sigma = np.asarray(perm, dtype=np.intp)
        T = _fourier_conjugated(sigma, F)
        total += 1
        max_def = max(max_def, _hom_defect_cyclic(T, n))
        max_iso = max(max_iso, float(np.max(np.abs(T.conj().T @ T - eye))))
        if is_affine_perm(sigma, n):
            standard += 1
        elif example is None:
            example = T.copy()
            example_sigma = perm
    if max_def > defect_tol:
        raise ParameterError(f"homomorphism defect {max_def:g} above {defect_tol:g}")
    return AutomorphismScan(n, total, standard, total - standard, max_def,
                            max_iso, example_sigma, example)


@dataclass(frozen=True)
class SmallNormReport:
    n: int
    threshold: float
    min_nonstandard_norm: float | None
    max_standard_norm: float
    all_below_threshold_standard: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "threshold": self.threshold,
            "min_nonstandard_norm": self.min_nonstandard_norm,
            "max_standard_norm": self.max_standard_norm,
            "all_below_threshold_standard": self.all_below_threshold_standard,
        }


def small_norm_scan(n: int, p: float = 1.0, threshold: float = 1.2) -> SmallNormReport:
    """l1 operator norms of the dual-permutation automorphisms of Z_n.

    The l1 -> l1 norm is exactly the maximal column l1 norm.  Standard
    (affine) automorphisms are phased permutations of the group domain
    and have norm 1; the scan reports the smallest nonstandard norm and
    whether every automorphism with norm below the threshold is standard.
    """
    if not 1 <= n <= 8:
        raise SizeError("the norm scan is capped at n <= 8")
    if p != 1.0:
        raise ParameterError("only p = 1 is supported (exact column norms)")
    F = np.fft.fft(np.eye(n), axis=0)
    min_nonstd: float | None = None
    max_std = 0.0
    all_below_std = True
    for perm in itertools.permutations(range(n)):
        sigma = np.asarray(perm, dtype=np.intp)
        T = _fourier_conjugated(sigma, F)
        norm = float(np.max(np.sum(np.abs(T), axis=0)))
        if is_affine_perm(sigma, n):
            max_std = max(max_std, norm)
        else:
            min_nonstd = norm if min_nonstd is None else min(min_nonstd, norm)
            if norm < threshold:
                all_below_std = False
    return SmallNormReport(n, threshold, min_nonstd, max_std, all_below_std)
