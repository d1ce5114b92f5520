"""Command-line driver for the experiments and the invariant suite.

Subcommands::

    verify        run named invariant checks, one pass/fail line each
    blowup        column-norm growth of a Blaschke composition operator
    distortion    forward/inverse l2 norms of Blaschke isomorphisms
    group-scan    dual-permutation automorphisms of Z_n and their norms
    weights-check submultiplicativity scan and algebra constant
    chain-rule    derivative chain-rule residuals on random sequences

Exit status: 0 when every check passes (or the report was written), 1 on
a numeric failure, failed check or unwritable ``--out``, 2 on usage
errors.  Each handler returns its report and :func:`main` alone writes
``--out``, with the parsed options as the config and the package
version; reports are byte-deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, astuple, fields, is_dataclass

import numpy as np

from . import __version__
from . import checks
from . import compops as co
from . import groupalg as ga
from . import weights as wt
from .errors import ConvalgError, ParameterError


# ---------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------

# the row type of each subcommand whose report is a CSV table under --format csv
_CSV_ROWS = {"blowup": co.BlowupRow, "distortion": co.DistortionReport}


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _jsonable(obj):
    """``json.dumps`` hook: dataclasses as dicts, arrays as lists, complex entries as [re, im]."""
    if is_dataclass(obj):
        return asdict(obj)
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = np.stack([obj.real, obj.imag], axis=-1)
        return obj.tolist()
    raise TypeError(f"a report cannot hold a {type(obj).__name__}")


def _write_report(args, report: dict) -> None:
    """Write ``report`` to ``args.out`` with the parsed options as its config."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out", "format")}
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        lines = ["# config: " + json.dumps({"version": __version__, **config}, sort_keys=True),
                 ",".join(f.name for f in fields(_CSV_ROWS[args.command]))]
        lines += [",".join(map(_fmt, astuple(row))) for row in report["rows"]]
        text = "\n".join(lines) + "\n"
    else:
        doc = {"version": __version__, "config": config, **report}
        text = json.dumps(doc, sort_keys=True, indent=2, default=_jsonable) + "\n"
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {fmt} report to {args.out}")


# ---------------------------------------------------------------------
# subcommand handlers: each prints its table and returns (exit status, report)
# ---------------------------------------------------------------------


def _cmd_verify(args) -> tuple[int, dict]:
    results = checks.run(args.suite)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
    n_pass = sum(res.passed for res in results)
    print(f"{n_pass}/{len(results)} checks passed")
    return (0 if n_pass == len(results) else 1), {"checks": results}


def _comma_list(kind):
    """argparse type: one or more comma-separated values of ``kind``."""
    def parse(text: str) -> list:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise argparse.ArgumentTypeError("expected at least one value")
        return values
    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse names it in its error
    return parse


def _cmd_blowup(args) -> tuple[int, dict]:
    rows = co.blowup_experiment(args.case, r=args.r, ns=args.n, p=args.p,
                                gamma=args.gamma, a=args.a, tol=args.tol)
    print(f"{'n':>6} {'ratio':>14} {'model':>14} {'k_n':>6} {'lower_bound':>14}")
    for row in rows:
        print(f"{row.n:>6} {row.ratio:>14.6g} {row.model_value:>14.6g} "
              f"{row.k_n:>6} {row.lower_bound_ratio:>14.6g}")
    return 0, {"rows": rows}


def _cmd_distortion(args) -> tuple[int, dict]:
    reports = co.distortion_experiment(wt.polynomial(args.a), args.r, args.N)
    print(f"{'r':>8} {'norm_fwd':>12} {'norm_inv':>12} {'distortion':>12}")
    for rep in reports:
        print(f"{rep.r:>8.4g} {rep.norm_fwd:>12.6g} {rep.norm_inv:>12.6g} {rep.distortion:>12.6g}")
    return 0, {"rows": reports}


def _cmd_group_scan(args) -> tuple[int, dict]:
    for m in (args.n, *args.norm_n):
        ga.check_scan_order(m)
    # the norm scans refuse a NaN threshold, so they run before the census
    norm_reports = [ga.small_norm_scan(m, threshold=args.threshold) for m in args.norm_n]
    scan = ga.enumerate_l2_automorphisms(args.n)
    print(f"Z_{args.n}: {scan.total} dual-permutation automorphisms, "
          f"{scan.standard_count} standard (affine), "
          f"hom defect {scan.max_hom_defect:.2e}, "
          f"isometry defect {scan.max_isometry_defect:.2e}")
    for rep in norm_reports:
        label = "none" if rep.min_nonstandard_norm is None \
            else f"{rep.min_nonstandard_norm:.5f}"
        print(f"Z_{rep.n}: min nonstandard l1 norm {label}; "
              f"all below {args.threshold} standard: {rep.all_below_threshold_standard}")
    ok = all(rep.all_below_threshold_standard for rep in norm_reports)
    return (0 if ok else 1), {"scan": scan, "norm_scans": norm_reports}


def _cmd_weights_check(args) -> tuple[int, dict]:
    if not args.p >= 1.0:
        raise ParameterError(f"the norm exponent must satisfy p >= 1, got {args.p}")
    text = args.weight
    try:
        if text.startswith("@"):
            with open(text[1:]) as fh:
                text = fh.read()
        descriptor = json.loads(text)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read the weight descriptor: {exc}") from None
    args.weight = descriptor  # the report records the descriptor read, not the @file
    w = wt.from_descriptor(descriptor)
    sub = wt.check_submultiplicative(w, window=None if w.on_group else args.window)
    print(f"submultiplicative: {sub.submultiplicative} "
          f"(max excess {sub.max_excess:.6g}, max ratio {sub.max_ratio:.6g} at {sub.argmax})")
    report: dict = {"submultiplicative": {"verdict": sub.submultiplicative, "argmax": sub.argmax,
                                          "max_excess": sub.max_excess, "max_ratio": sub.max_ratio}}
    if args.p > 1.0:
        alg = wt.algebra_constant(w, args.p, args.window)
        print(f"algebra constant C = {alg.constant:.8g} at n = {alg.argmax_n} "
              f"(q = {alg.q:g}, window {args.window}, tail bound {alg.tail_bound:.3g})")
        print(f"convolution norm bound C^(1/q) = {alg.constant ** (1.0 / alg.q):.8g}")
        report["algebra_constant"] = alg
    return 0, report


def _cmd_chain_rule(args) -> tuple[int, dict]:
    worst = checks.chain_rule_residual(args.seed, args.r, args.count,
                                       args.support, args.tol)
    ok = worst < args.tol
    print(f"{'PASS' if ok else 'FAIL'}  chain rule on {args.count} random "
          f"sequences: max l1 residual {worst:.3e} (tol {args.tol:g})")
    return (0 if ok else 1), {"max_residual": worst, "passed": ok}


# ---------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convalg",
        description="weighted convolution algebra laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, metavar="FILE",
                     help="write the report, with its configuration, here")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", default="csv", choices=["csv", "json"])

    p = sub.add_parser("verify", parents=[out], help="run the invariant suite")
    p.add_argument("--suite", default="all",
                   choices=["all", *dict.fromkeys(m for m, _, _ in checks.CHECKS)])
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("blowup", parents=[out, table], help="column-norm growth experiment")
    p.add_argument("--case", type=int, required=True, choices=[1, 2])
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=None,
                   help="weight exponent for case 1 (0 < gamma < 1)")
    p.add_argument("--a", type=float, default=None,
                   help="weight base for case 2 (a > 1)")
    p.add_argument("--n", type=_comma_list(int), default="9,16,25,36,49",
                   help="comma-separated grid")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="relative error bound each ratio is certified to")
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("distortion", parents=[out, table],
                       help="distortion of Blaschke isomorphisms")
    p.add_argument("--a", type=float, default=2.0, help="polynomial weight exponent")
    p.add_argument("--r", type=_comma_list(float), default="0.02,0.05,0.1,0.2")
    p.add_argument("--N", type=int, default=256, help="truncation half-width")
    p.set_defaults(func=_cmd_distortion)

    p = sub.add_parser("group-scan", parents=[out], help="automorphism census of Z_n")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--norm-n", type=_comma_list(int), default="3,4,5,6",
                   help="orders for the l1 norm scan")
    p.add_argument("--threshold", type=float, default=1.2)
    p.set_defaults(func=_cmd_group_scan)

    p = sub.add_parser("weights-check", parents=[out], help="weight diagnostics")
    p.add_argument("--weight", required=True,
                   help='JSON descriptor, e.g. {"family":"polynomial","a":2}; '
                        "@file reads it from a file")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--window", type=int, default=100)
    p.set_defaults(func=_cmd_weights_check)

    p = sub.add_parser("chain-rule", parents=[out], help="derivative chain-rule residuals")
    p.add_argument("--r", type=float, default=0.3)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--support", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_chain_rule)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # refuse before the run, without opening (and truncating) the file
        if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ParameterError(f"the directory of --out {args.out} does not exist")
        status, report = args.func(args)
        if args.out is not None:
            _write_report(args, report)
        return status
    except (ConvalgError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
