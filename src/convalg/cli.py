"""Command-line driver for the experiments and the invariant suite.

Subcommands::

    verify        run named invariant checks, one pass/fail line each
    blowup        column-norm growth of a Blaschke composition operator
    distortion    forward/inverse norms against the closed-form bound
    group-scan    dual-permutation automorphisms of Z_n and their norms
    weights-check submultiplicativity scan and algebra constant
    chain-rule    derivative chain-rule residuals on random sequences

Exit status: 0 when every check passes (or the report was written), 1 on
a numeric failure or failed check, 2 on usage errors.  Reports embed the
invoking configuration and the package version; JSON output is
byte-deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from . import circlemaps as cm
from . import compops as co
from . import groupalg as ga
from . import seqalg as sa
from . import weights as wt
from .errors import (AccuracyError, AdmissibilityError, CharacterError,
                     DomainError, InvertibilityError, ParameterError,
                     RangeError, SingularityError, SizeError)

_NUMERIC_ERRORS = (AccuracyError, AdmissibilityError, CharacterError,
                   DomainError, InvertibilityError, ParameterError,
                   RangeError, SingularityError, SizeError)


# ---------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path: str, header: list[str], rows: list[dict], config: dict) -> None:
    lines = ["# config: " + json.dumps({"version": __version__, **config},
                                       sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(row[h]) for h in header))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, config: dict, payload: dict) -> None:
    doc = {"version": __version__, "config": config, **payload}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_report(args, header: list[str], rows: list[dict], config: dict) -> None:
    if args.out is None:
        return
    if args.format == "csv":
        write_csv(args.out, header, rows, config)
    else:
        write_json(args.out, config, {"rows": rows})
    print(f"wrote {args.format} report to {args.out}")


# ---------------------------------------------------------------------
# invariant checks for `verify`
# ---------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_seq(rng: np.random.Generator, lo: int, hi: int) -> sa.TruncSeq:
    n = hi - lo + 1
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return sa.TruncSeq(lo, vals)


def _chk_conv_oracle(seed: int) -> str:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(25):
        f = _random_seq(rng, int(rng.integers(-80, 0)), int(rng.integers(0, 80)))
        g = _random_seq(rng, int(rng.integers(-80, 0)), int(rng.integers(0, 80)))
        d = sa.convolve(f, g, "direct") - sa.convolve(f, g, "fft")
        if not d.is_zero:
            worst = max(worst, float(np.max(np.abs(d.values))))
    assert worst < 1e-9, f"direct and DFT convolution differ by {worst:g}"
    return f"max deviation {worst:.2e}"


def _chk_derivative_identity(seed: int) -> str:
    rng = np.random.default_rng(seed)
    g = _random_seq(rng, -6, 9)
    f = sa.antiderivative(g)
    lhs = sa.gelfand_sample(sa.formal_derivative(f), 64)
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    rhs = (sa.gelfand_sample(g, 64) - g[0]) / z
    err = float(np.max(np.abs(lhs - rhs)))
    assert err < 1e-12, f"derivative identity residual {err:g}"
    return f"max residual {err:.2e}"


def _chk_blaschke_coeffs(_seed: int) -> str:
    worst = 0.0
    M = 4096
    z = np.exp(2j * np.pi * np.arange(M) / M)
    for r in (0.3, 0.5, 0.7):
        sampled = np.fft.fft(cm.map_values(cm.Blaschke(r), z)) / M
        c = cm.coeffs(cm.Blaschke(r), 1e-14)
        table = np.zeros(M, dtype=np.complex128)
        table[c.indices() % M] = c.values
        worst = max(worst, float(np.max(np.abs(sampled - table))))
    assert worst < 1e-10, f"closed form vs sampling deviation {worst:g}"
    return f"max deviation {worst:.2e}"


def _chk_power_pipeline(_seed: int) -> str:
    worst = 0.0
    for n in (-7, -2, 2, 7, 15):
        a = co.power_coeffs(cm.Blaschke(0.5), n, 1e-12)
        b = cm.compose_transform(sa.delta(n), cm.Blaschke(0.5))
        worst = max(worst, sa.l1_diff(a, b))
    assert worst < 1e-8, f"pipelines differ by {worst:g} in l1"
    return f"max l1 gap {worst:.2e}"


def _chk_monomial_isometry(seed: int) -> str:
    rng = np.random.default_rng(seed)
    lam = complex(np.exp(1j * 0.73))
    worst_n, worst_m = 0.0, 0.0
    for p in (1.0, 2.0, 3.0):
        for a in (1.0, 2.0):
            w = wt.polynomial(a)
            for _ in range(5):
                f = _random_seq(rng, -15, 15)
                g = _random_seq(rng, -10, 12)
                for reflect in (False, True):
                    tf = co.standard_automorphism(f, lam, reflect)
                    rel = abs(sa.weighted_norm(tf, p, w) - sa.weighted_norm(f, p, w)) \
                        / sa.weighted_norm(f, p, w)
                    worst_n = max(worst_n, rel)
                    d = co.standard_automorphism(sa.convolve(f, g), lam, reflect) \
                        - sa.convolve(co.standard_automorphism(f, lam, reflect),
                                      co.standard_automorphism(g, lam, reflect))
                    if not d.is_zero:
                        worst_m = max(worst_m, float(np.max(np.abs(d.values))))
    assert worst_n < 1e-12, f"isometry defect {worst_n:g}"
    assert worst_m < 1e-10, f"multiplicativity defect {worst_m:g}"
    return f"isometry {worst_n:.2e}, multiplicativity {worst_m:.2e}"


def _chk_blowup_case1(_seed: int) -> str:
    rows = co.blowup_experiment(1, r=0.5, ns=[9, 16, 25], p=1.0, gamma=0.5)
    ratios = [row.ratio for row in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:])), f"not increasing: {ratios}"
    return "ratios " + ", ".join(f"{v:.3g}" for v in ratios)


def _chk_blowup_case2(_seed: int) -> str:
    rows = co.blowup_experiment(2, r=0.3, ns=[5, 10, 15], p=1.0, a=2.0)
    ratios = [row.ratio for row in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:])), f"not increasing: {ratios}"
    try:
        co.blowup_experiment(2, r=0.6, ns=[5], p=1.0, a=2.0)
    except AdmissibilityError:
        pass
    else:
        raise AssertionError("r = 0.6, a = 2 was not rejected")
    return "ratios " + ", ".join(f"{v:.3g}" for v in ratios) + "; r=0.6 rejected"


def _chk_unweighted_contrast(_seed: int) -> str:
    w = wt.constant()
    vals = [co.column_ratio(cm.Blaschke(0.5), w, 2.0, n)
            for n in range(-20, 21) if n != 0]
    lo, hi = min(vals), max(vals)
    assert 0.99 <= lo and hi <= 1.01, f"ratios drifted to [{lo}, {hi}]"
    return f"ratios within [{lo:.6f}, {hi:.6f}]"


def _chk_norm_bound_formula(_seed: int) -> str:
    w = wt.polynomial(2.0)
    assert co.composition_norm_bound(0.0, w, 1.0) == 1.0
    val = co.composition_norm_bound(0.1, w, 1.0)
    assert abs(val - 1.3453) < 1e-3, f"bound at r=0.1 came out {val}"
    return f"bound(0) = 1, bound(0.1) = {val:.5f}"


def _chk_distortion_light(_seed: int) -> str:
    w = wt.polynomial(2.0)
    reports = co.distortion_experiment(w, [0.05, 0.2], N=128, lam=1.0)
    d = [rep.distortion for rep in reports]
    assert d[0] < d[1], f"distortion not increasing: {d}"
    assert all(rep.distortion >= 1.0 - 1e-9 for rep in reports)
    assert all(rep.nonstandard_witness for rep in reports)
    return f"distortions {d[0]:.4f} < {d[1]:.4f}"


def _chk_chain_rule(seed: int) -> str:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        f = _random_seq(rng, -20, 20)
        rep = co.chain_rule_check(f, cm.Blaschke(0.3), tol=1e-6)
        worst = max(worst, rep.residual_l1)
    assert worst < 1e-6, f"chain-rule residual {worst:g}"
    return f"max l1 residual {worst:.2e}"


def _chk_standard_iso_hom(_seed: int) -> str:
    worst = 0.0
    cases = []
    z6, z8, s3 = ga.cyclic(6), ga.cyclic(8), ga.symmetric3()
    cases.append(ga.StandardIso(z6, z6, ga.cyclic_automorphism(6, 5),
                                ga.cyclic_character(6, 2)))
    cases.append(ga.StandardIso(z8, z8, ga.cyclic_automorphism(8, 3),
                                ga.cyclic_character(8, 1)))  # gamma non-real
    cases.append(ga.StandardIso(s3, s3, ga.inner_automorphism(s3, 1),
                                ga.s3_sign_character()))
    for iso in cases:
        rep = ga.is_algebra_homomorphism(ga.standard_iso_matrix(iso),
                                         iso.source, iso.target, tol=1e-12)
        worst = max(worst, rep.max_defect)
        assert rep.is_homomorphism
    assert worst < 1e-12
    return f"max defect {worst:.2e}"


def _chk_z5_automorphisms(_seed: int) -> str:
    scan = ga.enumerate_l2_automorphisms(5)
    assert scan.total == 120 and scan.standard_count == 20, \
        f"got {scan.total} total, {scan.standard_count} standard"
    assert scan.max_isometry_defect < 1e-10
    assert scan.nonstandard_example is not None
    return (f"120 automorphisms, 20 standard, defects "
            f"{scan.max_hom_defect:.1e}/{scan.max_isometry_defect:.1e}")


def _chk_small_norm(_seed: int) -> str:
    mins = []
    for n in (3, 4, 5):
        rep = ga.small_norm_scan(n)
        assert rep.all_below_threshold_standard, f"threshold crossed at n={n}"
        if rep.min_nonstandard_norm is not None:
            mins.append(rep.min_nonstandard_norm)
    return f"min nonstandard norm {min(mins):.4f}" if mins else "no nonstandard maps"


def _chk_rigidity(_seed: int) -> str:
    for G in (ga.cyclic(2), ga.cyclic(5), ga.symmetric3()):
        rep = ga.translation_rigidity_check(G)
        assert rep.holds, f"rigidity failed on {G.name}"
    return "only (1, e) survives on Z2, Z5, S3"


def _chk_submult_families(_seed: int) -> str:
    sub = wt.check_submultiplicative(wt.subexp(0.5), window=40)
    assert sub.submultiplicative and sub.max_excess <= 0.0
    con = wt.check_submultiplicative(wt.constant(), window=40)
    assert con.submultiplicative
    poly = wt.check_submultiplicative(wt.polynomial(2.0), window=40)
    assert not poly.submultiplicative and abs(poly.max_ratio - 4.0) < 1e-12
    ep = wt.check_submultiplicative(wt.exppoly(2.0), window=40)
    assert not ep.submultiplicative and ep.max_ratio <= 2.0 + 1e-12
    return "subexp exact; polynomial/exppoly weakly submultiplicative"


def _chk_algebra_constant(_seed: int) -> str:
    c20 = wt.algebra_constant(wt.constant(), 2.0, 20).constant
    c40 = wt.algebra_constant(wt.constant(), 2.0, 40).constant
    assert c20 >= 41.0 and c40 >= 81.0 and c40 > c20
    p50 = wt.algebra_constant(wt.polynomial(2.0), 2.0, 50).constant
    p100 = wt.algebra_constant(wt.polynomial(2.0), 2.0, 100).constant
    assert p100 >= p50 and abs(p100 - p50) < 1e-6 * p100
    return f"constant-weight C grows ({c20:.0f} -> {c40:.0f}); polynomial C = {p100:.4f}"


_CHECKS: list[tuple[str, str, Callable[[int], str]]] = [
    ("weights", "submultiplicativity-families", _chk_submult_families),
    ("weights", "algebra-constant", _chk_algebra_constant),
    ("seqalg", "convolution-oracle", _chk_conv_oracle),
    ("seqalg", "derivative-identity", _chk_derivative_identity),
    ("circlemaps", "blaschke-coefficients", _chk_blaschke_coeffs),
    ("circlemaps", "power-pipeline-agreement", _chk_power_pipeline),
    ("compops", "monomial-isometry", _chk_monomial_isometry),
    ("compops", "blowup-case1", _chk_blowup_case1),
    ("compops", "blowup-case2", _chk_blowup_case2),
    ("compops", "unweighted-contrast", _chk_unweighted_contrast),
    ("compops", "norm-bound-formula", _chk_norm_bound_formula),
    ("compops", "distortion-monotone", _chk_distortion_light),
    ("compops", "chain-rule", _chk_chain_rule),
    ("groupalg", "standard-iso-homomorphism", _chk_standard_iso_hom),
    ("groupalg", "z5-automorphism-census", _chk_z5_automorphisms),
    ("groupalg", "small-norm-scan", _chk_small_norm),
    ("groupalg", "translation-rigidity", _chk_rigidity),
]


def run_verify(suite: str, seed: int) -> list[CheckResult]:
    results = []
    for module, name, fn in _CHECKS:
        if suite != "all" and module != suite:
            continue
        try:
            detail = fn(seed)
            results.append(CheckResult(f"{module}/{name}", True, detail))
        except AssertionError as exc:
            results.append(CheckResult(f"{module}/{name}", False, str(exc)))
        except _NUMERIC_ERRORS as exc:
            results.append(CheckResult(f"{module}/{name}", False,
                                       f"{type(exc).__name__}: {exc}"))
    return results


# ---------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------


def _cmd_verify(args) -> int:
    results = run_verify(args.suite, args.seed)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
    n_pass = sum(res.passed for res in results)
    print(f"{n_pass}/{len(results)} checks passed")
    if args.out:
        config = {"suite": args.suite, "seed": args.seed}
        write_json(args.out, config, {"checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results]})
    return 0 if n_pass == len(results) else 1


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


_BLOWUP_HEADER = ["n", "ratio", "model_value", "k_n", "lower_bound_ratio",
                  "cr_empirical"]


def _cmd_blowup(args) -> int:
    ns = _parse_int_list(args.n)
    config = {"case": args.case, "r": args.r, "p": args.p, "n": ns,
              "gamma": args.gamma, "a": args.a, "tol": args.tol,
              "seed": args.seed}
    rows = co.blowup_experiment(args.case, r=args.r, ns=ns, p=args.p,
                                gamma=args.gamma, a=args.a, tol=args.tol)
    dicts = [row.to_dict() for row in rows]
    print(f"{'n':>6} {'ratio':>14} {'model':>14} {'k_n':>6} {'lower_bound':>14}")
    for row in rows:
        print(f"{row.n:>6} {row.ratio:>14.6g} {row.model_value:>14.6g} "
              f"{row.k_n:>6} {row.lower_bound_ratio:>14.6g}")
    _write_report(args, _BLOWUP_HEADER, dicts, config)
    return 0


_DISTORTION_HEADER = ["r", "N", "norm_fwd", "norm_inv", "distortion",
                      "norm_bound_fwd", "norm_bound_inv", "lambda_param",
                      "nonstandard_witness", "within_bound_product"]


def _cmd_distortion(args) -> int:
    rs = _parse_float_list(args.r)
    config = {"a": args.a, "r": rs, "N": args.N, "lambda": args.lam,
              "tol": args.tol}
    reports = co.distortion_experiment(wt.polynomial(args.a), rs, args.N,
                                       lam=args.lam, col_tol=args.tol)
    dicts = [rep.to_dict() for rep in reports]
    print(f"{'r':>8} {'norm_fwd':>12} {'norm_inv':>12} {'distortion':>12} {'bound_prod':>12}")
    for rep in reports:
        print(f"{rep.r:>8.4g} {rep.norm_fwd:>12.6g} {rep.norm_inv:>12.6g} "
              f"{rep.distortion:>12.6g} {rep.norm_bound_fwd * rep.norm_bound_inv:>12.6g}")
    _write_report(args, _DISTORTION_HEADER, dicts, config)
    return 0


def _cmd_group_scan(args) -> int:
    config = {"n": args.n, "norm_n": _parse_int_list(args.norm_n),
              "threshold": args.threshold}
    scan = ga.enumerate_l2_automorphisms(args.n)
    print(f"Z_{args.n}: {scan.total} dual-permutation automorphisms, "
          f"{scan.standard_count} standard (affine), "
          f"hom defect {scan.max_hom_defect:.2e}, "
          f"isometry defect {scan.max_isometry_defect:.2e}")
    norm_reports = []
    ok = True
    for m in config["norm_n"]:
        rep = ga.small_norm_scan(m, threshold=args.threshold)
        norm_reports.append(rep.to_dict())
        ok = ok and rep.all_below_threshold_standard
        label = "none" if rep.min_nonstandard_norm is None \
            else f"{rep.min_nonstandard_norm:.5f}"
        print(f"Z_{m}: min nonstandard l1 norm {label}; "
              f"all below {args.threshold} standard: {rep.all_below_threshold_standard}")
    if args.out:
        write_json(args.out, config, {"scan": scan.to_dict(),
                                      "norm_scans": norm_reports})
        print(f"wrote json report to {args.out}")
    return 0 if ok else 1


def _cmd_weights_check(args) -> int:
    text = args.weight
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    descriptor = json.loads(text)
    w = wt.from_descriptor(descriptor)
    config = {"weight": descriptor, "p": args.p, "window": args.window}
    sub = wt.check_submultiplicative(w, window=None if w.on_group else args.window)
    print(f"submultiplicative: {sub.submultiplicative} "
          f"(max excess {sub.max_excess:.6g} at {sub.argmax}, "
          f"max ratio {sub.max_ratio:.6g})")
    payload: dict = {"submultiplicative": {
        "verdict": sub.submultiplicative, "max_excess": sub.max_excess,
        "max_ratio": sub.max_ratio, "argmax": list(sub.argmax)}}
    if args.p > 1.0:
        alg = wt.algebra_constant(w, args.p, args.window)
        print(f"algebra constant C = {alg.constant:.8g} at n = {alg.argmax_n} "
              f"(q = {alg.q:g}, window {args.window}, tail bound {alg.tail_bound:.3g})")
        print(f"convolution norm bound C^(1/q) = {alg.constant ** (1.0 / alg.q):.8g}")
        payload["algebra_constant"] = {
            "constant": alg.constant, "argmax_n": alg.argmax_n, "q": alg.q,
            "tail_bound": alg.tail_bound}
    if args.out:
        write_json(args.out, config, payload)
        print(f"wrote json report to {args.out}")
    return 0


def _cmd_chain_rule(args) -> int:
    rng = np.random.default_rng(args.seed)
    config = {"r": args.r, "count": args.count, "support": args.support,
              "tol": args.tol, "seed": args.seed}
    worst = 0.0
    for _ in range(args.count):
        f = _random_seq(rng, -args.support, args.support)
        rep = co.chain_rule_check(f, cm.Blaschke(args.r), tol=args.tol)
        worst = max(worst, rep.residual_l1)
    ok = worst < args.tol
    print(f"{'PASS' if ok else 'FAIL'}  chain rule on {args.count} random "
          f"sequences: max l1 residual {worst:.3e} (tol {args.tol:g})")
    if args.out:
        write_json(args.out, config, {"max_residual": worst, "passed": ok})
    return 0 if ok else 1


# ---------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convalg",
        description="weighted convolution algebra laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--suite", default="all",
                   choices=["all", "weights", "seqalg", "circlemaps",
                            "compops", "groupalg"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write a JSON summary here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("blowup", help="column-norm growth experiment")
    p.add_argument("--case", type=int, required=True, choices=[1, 2])
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=None,
                   help="weight exponent for case 1 (0 < gamma < 1)")
    p.add_argument("--a", type=float, default=None,
                   help="weight base for case 2 (a > 1)")
    p.add_argument("--n", default="9,16,25,36,49", help="comma-separated grid")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("distortion", help="distortion of Blaschke isomorphisms")
    p.add_argument("--a", type=float, default=2.0, help="polynomial weight exponent")
    p.add_argument("--r", default="0.02,0.05,0.1,0.2")
    p.add_argument("--N", type=int, default=256, help="truncation half-width")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.set_defaults(func=_cmd_distortion)

    p = sub.add_parser("group-scan", help="automorphism census of Z_n")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--norm-n", default="3,4,5,6",
                   help="orders for the l1 norm scan")
    p.add_argument("--threshold", type=float, default=1.2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_group_scan)

    p = sub.add_parser("weights-check", help="weight diagnostics")
    p.add_argument("--weight", required=True,
                   help='JSON descriptor, e.g. {"family":"polynomial","a":2}; '
                        "@file reads it from a file")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--window", type=int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_weights_check)

    p = sub.add_parser("chain-rule", help="derivative chain-rule residuals")
    p.add_argument("--r", type=float, default=0.3)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--support", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_chain_rule)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
