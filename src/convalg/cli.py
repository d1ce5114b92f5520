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
import sys

from . import __version__
from . import checks
from . import compops as co
from . import groupalg as ga
from . import weights as wt
from .errors import ConvalgError


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
# subcommand handlers
# ---------------------------------------------------------------------


def _cmd_verify(args) -> int:
    results = checks.run(args.suite)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
    n_pass = sum(res.passed for res in results)
    print(f"{n_pass}/{len(results)} checks passed")
    if args.out:
        config = {"suite": args.suite}
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
              "gamma": args.gamma, "a": args.a, "tol": args.tol}
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
    for m in (args.n, *config["norm_n"]):
        ga.check_scan_order(m)
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
    config = {"r": args.r, "count": args.count, "support": args.support,
              "tol": args.tol, "seed": args.seed}
    worst = checks.chain_rule_residual(args.seed, args.r, args.count,
                                       args.support, args.tol)
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
                   choices=["all", *dict.fromkeys(m for m, _, _ in checks.CHECKS)])
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
    except ConvalgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
