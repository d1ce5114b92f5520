"""Acceptance gate: twelve end-to-end checks at their stated tolerances.

Each test prints one ``[criterion-NN] PASS/FAIL`` line (visible with
``pytest -s``); the test names carry the same numbering so the standard
``pytest -v`` listing doubles as the pass/fail report.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from convalg import circlemaps as cm
from convalg import compops as co
from convalg import groupalg as ga
from convalg import seqalg as sa
from convalg import weights as wt
from convalg.errors import AdmissibilityError


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException as exc:
        print(f"[criterion-{num:02d}] FAIL - {label}: {exc}")
        raise
    print(f"[criterion-{num:02d}] PASS - {label}")


def random_seq(rng, lo, hi):
    n = hi - lo + 1
    return sa.TruncSeq(lo, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def test_criterion_01_convolution_oracle():
    with criterion(1, "direct vs DFT convolution on 100 random pairs"):
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            lo1 = int(rng.integers(-128, 0))
            lo2 = int(rng.integers(-128, 0))
            f = random_seq(rng, lo1, lo1 + int(rng.integers(1, 256)))
            g = random_seq(rng, lo2, lo2 + int(rng.integers(1, 256)))
            d = sa.convolve(f, g, "direct") - sa.convolve(f, g, "fft")
            if not d.is_zero:
                worst = max(worst, float(np.max(np.abs(d.values))))
        elapsed = time.perf_counter() - start
        assert worst < 1e-9, f"max abs deviation {worst:g}"
        assert elapsed < 5.0, f"took {elapsed:.1f} s"


def test_criterion_02_blaschke_coefficients():
    with criterion(2, "Blaschke coefficients vs circle-sampling oracle"):
        M = 4096
        z = np.exp(2j * np.pi * np.arange(M) / M)
        for r in (0.3, 0.5, 0.7):
            c = cm.coeffs(cm.Blaschke(r), tol=1e-14)
            table = np.zeros(M, dtype=complex)
            table[c.indices() % M] = c.values
            oracle = np.fft.fft(cm.map_values(cm.Blaschke(r), z)) / M
            err = float(np.max(np.abs(table - oracle)))
            assert err < 1e-10, f"r={r}: max error {err:g}"


def test_criterion_03_monomial_automorphism_isometry():
    with criterion(3, "monomial automorphisms are isometric and multiplicative"):
        rng = np.random.default_rng(1)
        lam = complex(np.exp(0.61j))
        for p in (1.0, 2.0, 3.0):
            for a in (1.0, 2.0):
                w = wt.polynomial(a)
                for _ in range(20):
                    f = random_seq(rng, -16, 14)
                    g = random_seq(rng, -10, 12)
                    reflect = bool(rng.integers(0, 2))
                    tf = co.standard_automorphism(f, lam, reflect)
                    base = sa.weighted_norm(f, p, w)
                    assert abs(sa.weighted_norm(tf, p, w) - base) <= 1e-12 * base
                    d = sa.l1_diff(
                        co.standard_automorphism(sa.convolve(f, g), lam, reflect),
                        sa.convolve(co.standard_automorphism(f, lam, reflect),
                                    co.standard_automorphism(g, lam, reflect)))
                    assert d < 1e-10, f"homomorphism defect {d:g}"


def test_criterion_04_group_iso_homomorphism():
    with criterion(4, "standard group isomorphisms: exhaustive delta defects"):
        z6, z8, s3 = ga.cyclic(6), ga.cyclic(8), ga.symmetric3()
        cases = [
            ga.StandardIso(z6, z6, ga.cyclic_automorphism(6, 1),
                           ga.cyclic_character(6, 1)),
            ga.StandardIso(z6, z6, ga.cyclic_automorphism(6, 5),
                           ga.cyclic_character(6, 2)),
            ga.StandardIso(z6, z6, ga.cyclic_automorphism(6, 5),
                           ga.cyclic_character(6, 0)),
            # gamma non-real on Z_8 in all three cases
            ga.StandardIso(z8, z8, ga.cyclic_automorphism(8, 3),
                           ga.cyclic_character(8, 1)),
            ga.StandardIso(z8, z8, ga.cyclic_automorphism(8, 5),
                           ga.cyclic_character(8, 3)),
            ga.StandardIso(z8, z8, ga.cyclic_automorphism(8, 7),
                           ga.cyclic_character(8, 2)),
            ga.StandardIso(s3, s3, ga.inner_automorphism(s3, 0),
                           ga.s3_sign_character()),
            ga.StandardIso(s3, s3, ga.inner_automorphism(s3, 1),
                           np.ones(6, dtype=complex)),
            ga.StandardIso(s3, s3, ga.inner_automorphism(s3, 4),
                           ga.s3_sign_character()),
        ]
        assert any(np.max(np.abs(iso.gamma.imag)) > 0.1 for iso in cases[3:6])
        for iso in cases:
            rep = ga.is_algebra_homomorphism(
                ga.standard_iso_matrix(iso), iso.source, iso.target, tol=1e-12)
            assert rep.is_homomorphism, f"defect {rep.max_defect:g}"


def test_criterion_05_blowup_subexponential_weight():
    with criterion(5, "column ratios blow up under the subexponential weight"):
        ns = [9, 16, 25, 36, 49]
        rows = co.blowup_experiment(1, r=0.5, ns=ns, p=1.0, gamma=0.5)
        ratios = np.array([row.ratio for row in rows])
        assert np.all(np.diff(ratios) > 0), f"not increasing: {ratios}"
        x = np.array(ns, dtype=float) ** 0.5
        y = np.log(ratios)
        slope, intercept = np.polyfit(x, y, 1)
        fitted = slope * x + intercept
        r2 = 1.0 - np.sum((y - fitted) ** 2) / np.sum((y - np.mean(y)) ** 2)
        assert slope > 0, f"slope {slope:g}"
        assert r2 > 0.9, f"R^2 {r2:g}"


def test_criterion_06_blowup_exponential_weight():
    with criterion(6, "geometric growth and the admissibility cutoff r < 1/a"):
        ns = [5, 10, 15, 20, 25]
        rows = co.blowup_experiment(2, r=0.3, ns=ns, p=1.0, a=2.0)
        ratios = {row.n: row.ratio for row in rows}
        for n in (5, 10, 15, 20):
            assert ratios[n + 5] / ratios[n] > 1.0, f"no growth at n={n}"
        with pytest.raises(AdmissibilityError):
            co.blowup_experiment(2, r=0.6, ns=[5], p=1.0, a=2.0)


def test_criterion_07_unweighted_contrast():
    with criterion(7, "the same operator is bounded without the weight"):
        w = wt.constant()
        phi = cm.Blaschke(0.5)
        for n in range(-50, 51):
            if n == 0:
                continue
            ratio = co.column_ratio(phi, w, 2.0, n)
            assert 0.99 <= ratio <= 1.01, f"n={n}: ratio {ratio}"


def test_criterion_08_distortion_small_r():
    with criterion(8, "distortion grows in r and is small near the identity"):
        w = wt.polynomial(2.0)
        reports = co.distortion_experiment(w, [0.02, 0.05, 0.1, 0.2],
                                           N=256, lam=1.0)
        d = [rep.distortion for rep in reports]
        assert all(b > a for a, b in zip(d, d[1:])), f"not increasing: {d}"
        assert d[0] <= 1.25, f"distortion(0.02) = {d[0]:g}"
        for rep in reports:
            assert rep.distortion >= 1.0 - 1e-9
            assert rep.nonstandard_witness, f"no witness at r={rep.r}"
        small = co.distortion_experiment(w, [0.02], N=512, lam=1.0)[0]
        ref = reports[0]
        assert abs(ref.norm_fwd - small.norm_fwd) / small.norm_fwd < 0.01
        assert abs(ref.norm_inv - small.norm_inv) / small.norm_inv < 0.01


def test_criterion_09_norm_bound_formula():
    with criterion(9, "closed-form norm bound: unit value and hand evaluation"):
        w = wt.polynomial(2.0)
        assert co.composition_norm_bound(0.0, w, 1.0) == 1.0
        val = co.composition_norm_bound(0.1, w, 1.0)
        assert abs(val - 1.3453) < 1e-3, f"got {val}"


def test_criterion_10_chain_rule():
    with criterion(10, "derivative chain rule for Blaschke composition"):
        rng = np.random.default_rng(2)
        phi = cm.Blaschke(0.3)
        for _ in range(20):
            f = random_seq(rng, -20, 20)
            rep = co.chain_rule_check(f, phi, tol=1e-6)
            assert rep.residual_l1 < 1e-6, f"residual {rep.residual_l1:g}"


def test_criterion_11_group_scan():
    with criterion(11, "automorphism census of Z_5 and the small-norm scan"):
        start = time.perf_counter()
        scan = ga.enumerate_l2_automorphisms(5)
        assert scan.total == 120, f"total {scan.total}"
        assert scan.standard_count == 20, f"standard {scan.standard_count}"
        assert scan.max_isometry_defect < 1e-10
        assert scan.nonstandard_example is not None
        for n in (3, 4, 5, 6):
            rep = ga.small_norm_scan(n, threshold=1.2)
            assert rep.all_below_threshold_standard, f"crossed at n={n}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_12_translation_rigidity():
    with criterion(12, "only the trivial twisted translation is multiplicative"):
        for G in (ga.cyclic(2), ga.cyclic(5), ga.symmetric3()):
            rep = ga.translation_rigidity_check(G)
            assert rep.holds, f"failed on {G.name}"
