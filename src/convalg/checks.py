"""The invariant checks, each defined once.

Every entry of :data:`CHECKS` is ``(module, name, fn)``: ``fn`` takes no
argument, owns its inputs and seed, raises on failure and returns a
one-line detail string on success.  ``convalg verify`` runs the table
through :func:`run`, and the acceptance tests run every entry.  Checks
fail by raising :class:`CheckFailure` (or a package error from the code
under test), never by ``assert``, so they still check under ``python -O``.
A check folds the deviations it collects once, through :func:`_worst`,
whose ``np.max`` keeps a NaN, so a NaN fails the check.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import circlemaps as cm
from . import compops as co
from . import groupalg as ga
from . import seqalg as sa
from . import weights as wt
from .errors import AdmissibilityError, ConvalgError, ParameterError


class CheckFailure(ConvalgError, AssertionError):
    """An invariant check found its condition false."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _worst(deviations, bound: float, what: str, strict: bool = True) -> float:
    """The largest of ``deviations``, required below ``bound`` (at most it, if not ``strict``).

    ``np.max`` carries a NaN through, and a NaN is within no bound.
    """
    worst = float(np.max(deviations))
    _require(worst < bound if strict else worst <= bound, f"{what} {worst:g}")
    return worst


def _random_seq(rng: np.random.Generator, lo: int, hi: int) -> sa.TruncSeq:
    n = hi - lo + 1
    return sa.TruncSeq(lo, rng.standard_normal(n) + 1j * rng.standard_normal(n))


# ---------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------


def submultiplicativity_families() -> str:
    """Submultiplicativity verdicts and constants of the four weight families."""
    sub = wt.check_submultiplicative(wt.subexp(0.5), window=40)
    _require(sub.submultiplicative and sub.max_excess <= 0.0,
             f"subexp(0.5) excess {sub.max_excess:g}")
    con = wt.check_submultiplicative(wt.constant(), window=40)
    _require(con.submultiplicative, "the constant weight is not submultiplicative")
    poly = wt.check_submultiplicative(wt.polynomial(2.0), window=40)
    _require(not poly.submultiplicative and abs(poly.max_ratio - 4.0) < 1e-12,
             f"polynomial(2) max ratio {poly.max_ratio:.17g}, expected 4")
    ep = wt.check_submultiplicative(wt.exppoly(2.0), window=40)
    _require(not ep.submultiplicative and ep.max_ratio <= 2.0 + 1e-12,
             f"exppoly(2) max ratio {ep.max_ratio:.17g}, expected at most 2")
    return "subexp exact; polynomial/exppoly weakly submultiplicative"


def algebra_constant() -> str:
    """The Hoelder algebra constant grows without weight and settles with one."""
    c20 = wt.algebra_constant(wt.constant(), 2.0, 20).constant
    c40 = wt.algebra_constant(wt.constant(), 2.0, 40).constant
    _require(c20 >= 41.0 and c40 >= 81.0 and c40 > c20,
             f"constant-weight C did not grow: {c20:g} -> {c40:g}")
    p50 = wt.algebra_constant(wt.polynomial(2.0), 2.0, 50).constant
    p100 = wt.algebra_constant(wt.polynomial(2.0), 2.0, 100).constant
    _require(p100 >= p50 and abs(p100 - p50) < 1e-6 * p100,
             f"polynomial C not settled: {p50:.10g} at 50, {p100:.10g} at 100")
    return f"constant-weight C grows ({c20:.0f} -> {c40:.0f}); polynomial C = {p100:.4f}"


# ---------------------------------------------------------------------
# seqalg
# ---------------------------------------------------------------------


def convolution_oracle() -> str:
    """Direct and DFT convolution agree within 1e-9 on 100 random pairs, within 5 s.

    On 20 more pairs, of small integers, the direct route equals the
    product summed in Python integers and the DFT route is within 1e-9 of it.
    """
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    gaps = []
    for _ in range(100):
        lo1 = int(rng.integers(-128, 0))
        lo2 = int(rng.integers(-128, 0))
        f = _random_seq(rng, lo1, lo1 + int(rng.integers(1, 256)))
        g = _random_seq(rng, lo2, lo2 + int(rng.integers(1, 256)))
        d = sa.convolve(f, g, "direct") - sa.convolve(f, g, "fft")
        gaps.append(np.max(np.abs(d.values), initial=0.0))
    for k in range(20):
        lo1, lo2 = (int(v) for v in rng.integers(-64, 64, 2))
        a, b = (rng.integers(-9, 10, int(rng.integers(1, 33))).astype(object) for _ in range(2))
        f, g = sa.TruncSeq(lo1, a), sa.TruncSeq(lo2, b)
        exact = sa.TruncSeq(lo1 + lo2, np.convolve(a, b))  # object arrays: Python integers
        _require(sa.convolve(f, g, "direct").same(exact),
                 f"direct route off the exact product of integer pair {k}")
        d = sa.convolve(f, g, "fft") - exact
        gaps.append(np.max(np.abs(d.values), initial=0.0))
    worst = _worst(gaps, 1e-9, "max abs deviation")
    elapsed = time.perf_counter() - start
    _require(elapsed < 5.0, f"took {elapsed:.1f} s")
    return f"max deviation {worst:.2e}; direct route exact on 20 integer pairs"


def derivative_identity() -> str:
    """The formal derivative of the antiderivative, sampled on the circle."""
    rng = np.random.default_rng(0)
    g = _random_seq(rng, -6, 9)
    f = sa.antiderivative(g)
    lhs = sa.gelfand_sample(sa.formal_derivative(f), 64)
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    rhs = (sa.gelfand_sample(g, 64) - g[0]) / z
    err = _worst(np.abs(lhs - rhs), 1e-12, "derivative identity residual")
    return f"max residual {err:.2e}"


# ---------------------------------------------------------------------
# circlemaps
# ---------------------------------------------------------------------


def blaschke_coefficients() -> str:
    """Closed-form Blaschke coefficients against a circle-sampling oracle."""
    M = 4096
    z = np.exp(2j * np.pi * np.arange(M) / M)
    errs = []
    for r in (0.3, 0.5, 0.7):
        c = cm.coeffs(cm.Blaschke(r), tol=1e-14)
        table = np.zeros(M, dtype=complex)
        table[c.indices() % M] = c.values
        oracle = np.fft.fft(cm.map_values(cm.Blaschke(r), z)) / M
        errs.append(np.max(np.abs(table - oracle)))
    return f"max deviation {_worst(errs, 1e-10, 'max error'):.2e}"


def power_pipeline_agreement() -> str:
    """Binary powering and the composition transform give the same powers, within their bounds."""
    gaps = []
    for n in (-7, -2, 2, 7, 15):
        a = cm.power_coeffs(cm.Blaschke(0.5), n, 1e-12)
        b, b_err = cm._composed(sa.delta(n), cm.Blaschke(0.5), 1e-9)
        gaps.append(sa.l1_diff(a, b))
        _require(gaps[-1] <= 1e-12 + b_err, f"n={n}: gap {gaps[-1]:g} exceeds the routes' "
                                            f"bounds 1e-12 + {b_err:g}")
    return f"max l1 gap {_worst(gaps, 1e-8, 'pipelines differ in l1 by'):.2e}"


# ---------------------------------------------------------------------
# compops
# ---------------------------------------------------------------------


def monomial_isometry() -> str:
    """The standard automorphisms f -> lam^n f(+-n) are isometric and multiplicative."""
    rng = np.random.default_rng(1)
    lam = complex(np.exp(0.61j))
    iso, hom = [], []
    for p in (1.0, 2.0, 3.0):
        for a in (1.0, 2.0):
            w = wt.polynomial(a)
            for _ in range(20):
                f = _random_seq(rng, -16, 14)
                g = _random_seq(rng, -10, 12)
                reflect = bool(rng.integers(0, 2))
                tf = co.standard_automorphism(f, lam, reflect)
                base = sa.weighted_norm(f, p, w)
                iso.append(abs(sa.weighted_norm(tf, p, w) - base) / base)
                hom.append(sa.l1_diff(
                    co.standard_automorphism(sa.convolve(f, g), lam, reflect),
                    sa.convolve(co.standard_automorphism(f, lam, reflect),
                                co.standard_automorphism(g, lam, reflect))))
    return (f"isometry {_worst(iso, 1e-12, 'isometry defect', strict=False):.2e}, "
            f"multiplicativity {_worst(hom, 1e-10, 'homomorphism defect'):.2e}")


def blowup_case1() -> str:
    """Column ratios blow up like exp(c sqrt(n)) under the subexponential weight."""
    ns = [9, 16, 25, 36, 49]
    rows = co.blowup_experiment(1, r=0.5, ns=ns, p=1.0, gamma=0.5)
    ratios = np.array([row.ratio for row in rows])
    _require(np.all(np.diff(ratios) > 0), f"not increasing: {ratios}")
    x = np.array(ns, dtype=float) ** 0.5
    y = np.log(ratios)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    r2 = 1.0 - np.sum((y - fitted) ** 2) / np.sum((y - np.mean(y)) ** 2)
    _require(slope > 0, f"slope {slope:g}")
    _require(r2 > 0.9, f"R^2 {r2:g}")
    return "ratios " + ", ".join(f"{v:.3g}" for v in ratios) + f"; R^2 {r2:.4f}"


def blowup_case2() -> str:
    """Geometric growth under a^|n|(1+n^2), and the cutoff r < 1/a."""
    ns = [5, 10, 15, 20, 25]
    rows = co.blowup_experiment(2, r=0.3, ns=ns, p=1.0, a=2.0)
    ratios = {row.n: row.ratio for row in rows}
    for n in (5, 10, 15, 20):
        _require(ratios[n + 5] / ratios[n] > 1.0, f"no growth at n={n}")
    try:
        co.blowup_experiment(2, r=0.6, ns=[5], p=1.0, a=2.0)
    except AdmissibilityError:
        pass
    else:
        raise CheckFailure("r = 0.6, a = 2 was not rejected")
    return ("certified ratios " + ", ".join(f"{v:.7g}" for v in ratios.values())
            + "; r=0.6 rejected")


def unweighted_contrast() -> str:
    """The same operator is bounded without the weight."""
    w = wt.constant()
    phi = cm.Blaschke(0.5)
    ratios = np.array([co.column_ratio(phi, w, 2.0, n) for n in range(-50, 51) if n != 0])
    _require(np.all((0.99 <= ratios) & (ratios <= 1.01)),
             f"ratios from {np.min(ratios):g} to {np.max(ratios):g}, not all in [0.99, 1.01]")
    return f"max |ratio - 1| {np.max(np.abs(ratios - 1.0)):.2e}"


def distortion_monotone() -> str:
    """Distortion grows in r and is small near the identity; ||C_{b_-r}|| = ||C_{b_r}||."""
    w = wt.polynomial(2.0)
    reports = co.distortion_experiment(w, [0.02, 0.05, 0.1, 0.2], N=256)
    d = [rep.distortion for rep in reports]
    _require(all(b > a for a, b in zip(d, d[1:])), f"not increasing: {d}")
    # d is increasing, so d[0] bounds them all from below
    _require(1.0 - 1e-9 <= d[0] <= 1.25, f"distortion(0.02) = {d[0]:g}")
    _require(all(rep.nonstandard_witness for rep in reports), "a distortion has no witness")
    gap = _worst([abs(co.op_norm_l2(cm.Blaschke(-rep.r), w, 256) - rep.norm_fwd) / rep.norm_fwd
                  for rep in reports], 1e-12, "||C_{b_-r}|| relative gap", strict=False)
    small = co.distortion_experiment(w, [0.02], N=512)[0]
    _worst([abs(reports[0].norm_fwd - small.norm_fwd) / small.norm_fwd],
           0.01, "N=256 vs 512 relative norm gap")
    return ("distortions " + " < ".join(f"{v:.4f}" for v in d)
            + f"; ||C_{{b_-r}}|| off ||C_{{b_r}}|| by {gap:.1e}")


def unweighted_exact_norm() -> str:
    """Truncated norms rise to the exact norm of C_{b_r} on L^2(T).

    On L^2(T), ||C_{b_r}|| = ((1 + r) / (1 - r))^(1/2), here (13/7)^(1/2)
    at r = 0.3; the truncated norms are lower bounds that increase in N.
    """
    exact = np.sqrt(13.0 / 7.0)
    norms = [co.op_norm_l2(cm.Blaschke(0.3), wt.constant(), N) for N in (32, 128, 512)]
    shown = ", ".join(f"{v:.17g}" for v in norms)
    _require(norms[0] < norms[1] < norms[2] <= exact * (1.0 + 1e-12),
             f"norms {shown} not increasing to at most {exact:.17g}")
    _require(exact - norms[2] < 1e-5, f"N=512 norm {norms[2]:.17g} is {exact - norms[2]:g} short")
    return (", ".join(f"{v:.6f}" for v in norms)
            + f" at N = 32, 128, 512; exact {exact:.6f}")


def chain_rule_verdict(seed: int, r: float, count: int, support: int,
                       tol: float) -> tuple[float, float, bool]:
    """Chain-rule residuals for Blaschke(r) on ``count`` random sequences on [-support, support].

    Returns the largest l1 residual, the largest share of its own bound
    a residual takes (0 for a zero residual), and the verdict: every
    residual at most its bound and the largest below ``tol`` (which
    :func:`compops.chain_rule_check` also takes).  A NaN residual fails.
    """
    if count < 1 or support < 0:
        raise ParameterError(f"need count >= 1 and support >= 0, got {count} and {support}")
    rng = np.random.default_rng(seed)
    phi = cm.Blaschke(r)
    reports = [co.chain_rule_check(_random_seq(rng, -support, support), phi, tol=tol)
               for _ in range(count)]
    residuals, bounds = np.array([(rep.residual_l1, rep.bound) for rep in reports]).T
    worst = float(np.max(residuals))
    passed = bool(worst < tol and np.all(residuals <= bounds))
    shares = np.divide(residuals, bounds, out=np.zeros(count), where=residuals != 0.0)
    return worst, float(np.max(shares)), passed


def chain_rule() -> str:
    """Derivative chain rule for Blaschke composition, each residual within its bound."""
    worst, share, passed = chain_rule_verdict(2, 0.3, count=20, support=20, tol=1e-6)
    _require(passed, f"max residual {worst:g} (tol 1e-6), {share:.2f} of its bound")
    return f"max l1 residual {worst:.2e}, at most {share:.2f} of its bound"


# ---------------------------------------------------------------------
# groupalg
# ---------------------------------------------------------------------


def standard_iso_homomorphism() -> str:
    """Standard group isomorphisms: exhaustive delta defects."""
    z6, z8, s3 = ga.cyclic(6), ga.cyclic(8), ga.symmetric3()
    sign, trivial = ga.s3_sign_character(), np.ones(6, dtype=complex)
    # (unit, character) pairs; gamma is non-real in all three Z_8 cases
    cases = [ga.StandardIso(z6, z6, ga.cyclic_automorphism(6, u), ga.cyclic_character(6, c))
             for u, c in ((1, 1), (5, 2), (5, 0))]
    cases += [ga.StandardIso(z8, z8, ga.cyclic_automorphism(8, u), ga.cyclic_character(8, c))
              for u, c in ((3, 1), (5, 3), (7, 2))]
    cases += [ga.StandardIso(s3, s3, ga.inner_automorphism(s3, x), gamma)
              for x, gamma in ((0, sign), (1, trivial), (4, sign), (1, sign))]
    _require(any(np.max(np.abs(iso.gamma.imag)) > 0.1 for iso in cases[3:6]),
             "no non-real character among the Z_8 cases")
    defects = [ga.is_algebra_homomorphism(ga.standard_iso_matrix(iso), iso.source,
                                          iso.target).max_defect for iso in cases]
    worst = _worst(defects, 1e-12, "defect", strict=False)
    return f"max defect {worst:.2e} over {len(cases)} isomorphisms"


def group_scan() -> str:
    """Automorphism census of Z_5, its standard label, and the small-norm scan, within 30 s.

    The census calls a dual permutation standard when ``affine_mask``
    marks it; the mask must mark exactly the n phi(n) = 20 maps
    j -> a j + k, and each of their matrices F^{-1} P_sigma F must be
    the standard form ``affine_standard_iso(5, a, k)``.
    """
    start = time.perf_counter()
    scan = ga.enumerate_l2_automorphisms(5)
    _require(scan.total == 120, f"total {scan.total}")
    _require(scan.standard_count == 20, f"standard {scan.standard_count}")
    _require(scan.max_isometry_defect < 1e-10,
             f"isometry defect {scan.max_isometry_defect:g}")
    _require(scan.nonstandard_example is not None, "no nonstandard example")
    n = 5
    sigmas = np.asarray(list(itertools.permutations(range(n))))
    affine = {(a, k): tuple((a * np.arange(n) + k) % n)
              for a in range(1, n) for k in range(n)}
    marked = {tuple(s) for s in sigmas[ga.affine_mask(sigmas, n)]}
    _require(marked == set(affine.values()),
             f"affine_mask marks {len(marked)} permutations, not the 20 affine ones")
    F = np.fft.fft(np.eye(n), axis=0)
    offsets = []
    for (a, k), sigma in affine.items():
        T = np.fft.ifft(F[list(sigma), :], axis=0)
        std = ga.standard_iso_matrix(ga.affine_standard_iso(n, a, k))
        offsets.append(np.max(np.abs(T - std)))
    worst = _worst(offsets, 1e-12, "affine dual permutation off its standard form by",
                   strict=False)
    mins = []
    for n in (3, 4, 5, 6):
        rep = ga.small_norm_scan(n, threshold=1.2)
        _require(rep.all_below_threshold_standard, f"crossed at n={n}")
        if rep.min_nonstandard_norm is not None:
            mins.append(rep.min_nonstandard_norm)
    elapsed = time.perf_counter() - start
    _require(elapsed < 30.0, f"took {elapsed:.1f} s")
    return (f"Z_5: 120 automorphisms, 20 standard, each its standard form to "
            f"{worst:.1e}; min nonstandard l1 norm {np.min(mins):.4f} for n <= 6")


def translation_rigidity() -> str:
    """Only the trivial twisted translation is multiplicative."""
    for G in (ga.cyclic(2), ga.cyclic(5), ga.symmetric3()):
        _require(ga.translation_rigidity_check(G), f"failed on {G.name}")
    return "only (1, e) survives on Z2, Z5, S3"


CHECKS: list[tuple[str, str, Callable[[], str]]] = [
    ("weights", "submultiplicativity-families", submultiplicativity_families),
    ("weights", "algebra-constant", algebra_constant),
    ("seqalg", "convolution-oracle", convolution_oracle),
    ("seqalg", "derivative-identity", derivative_identity),
    ("circlemaps", "blaschke-coefficients", blaschke_coefficients),
    ("circlemaps", "power-pipeline-agreement", power_pipeline_agreement),
    ("compops", "monomial-isometry", monomial_isometry),
    ("compops", "blowup-case1", blowup_case1),
    ("compops", "blowup-case2", blowup_case2),
    ("compops", "unweighted-contrast", unweighted_contrast),
    ("compops", "unweighted-exact-norm", unweighted_exact_norm),
    ("compops", "distortion-monotone", distortion_monotone),
    ("compops", "chain-rule", chain_rule),
    ("groupalg", "standard-iso-homomorphism", standard_iso_homomorphism),
    ("groupalg", "group-scan", group_scan),
    ("groupalg", "translation-rigidity", translation_rigidity),
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run(suite: str) -> list[CheckResult]:
    """Run the checks of one module (or ``"all"``), catching package errors."""
    results = []
    for module, name, fn in CHECKS:
        if suite not in ("all", module):
            continue
        label = f"{module}/{name}"
        try:
            results.append(CheckResult(label, True, fn()))
        except CheckFailure as exc:
            results.append(CheckResult(label, False, str(exc)))
        except ConvalgError as exc:
            results.append(CheckResult(label, False, f"{type(exc).__name__}: {exc}"))
    return results
