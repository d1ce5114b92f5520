"""Benchmark for convalg: run one workload and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18

Run from the repository root.  convalg is imported from ``src/`` next to
this directory, never from an installed copy.  Each run:

1. imports convalg and builds the workload's inputs from ``--seed``, then
   repeats exactly that in ``SETUP_PROBES`` fresh processes and reports
   the median as ``setup_s`` (the first import in this process also
   fills the bytecode cache, so no probe pays for compiling);
2. runs whole rounds of the workload's operations, serially, until the
   timed operations add up to ``--seconds`` (at least one round).
   ``wall_s`` is the median round; each outcome is checked right after
   its call, outside the timed region;
3. reads the process's peak resident memory, then compares the kept
   digests with the reference values of ``oracles``.

With ``--trace 1`` untraced rounds alternate with rounds in which every
layer function is wrapped by a :class:`spans.Tracer`.  The per-layer
figures come from the traced rounds only; the spans are written to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those declared in ``BENCHMARK.json`` at the root.  An operation
fails when it raises (or, if it must be refused, when it is not refused
as required) or when its answer misses a check; a wrong answer also
makes ``correct`` false.  No thread pool is started and no ``jobs``
argument is passed, so only the BLAS threads run, at their default.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
NAMES = ("distortion", "columns", "oversize", "census")


def load(workload: str, seed: int):
    """Import convalg and build the operations; returns (workload, ops, import_s, setup_s)."""
    start = time.perf_counter()
    if not (SRC / "convalg" / "__init__.py").is_file():
        raise SystemExit(f"convalg sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import convalg
    if Path(convalg.__file__).resolve().parent != (SRC / "convalg").resolve():
        raise SystemExit(f"imported convalg from {convalg.__file__}, not from {SRC}")
    imported = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[workload]()
    ops = wl.ops(seed)
    return wl, ops, imported - start, time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> dict:
    """Time import and input construction in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_round(ops) -> tuple[float, list, list, list[bool]]:
    """Call every operation once; returns time, problems, digests and raised flags."""
    elapsed = 0.0
    problems, kept, raised = [], [], []
    for op in ops:
        start = time.perf_counter()
        try:
            value, exc = op.call(), None
        except Exception as err:  # recorded as a failed operation
            value, exc = None, err
        elapsed += time.perf_counter() - start
        refused = op.refusal is not None and isinstance(exc, op.refusal)
        if refused:
            found, digest = [], None
        elif exc is not None:
            found, digest = [f"raised {type(exc).__name__}: {exc}"], None
        elif op.refusal is not None:
            found, digest = [f"returned {type(value).__name__} instead of "
                             f"raising {op.refusal.__name__}"], None
        else:
            found, digest = op.check(value)
        raised.append(exc is not None and not refused)
        del value, exc
        problems.append(found)
        kept.append(digest)
    return elapsed, problems, kept, raised


def run_rounds(ops, seconds: float) -> list[tuple]:
    """Whole rounds until their timed operations add up to ``seconds``."""
    rounds = [run_round(ops)]
    while sum(r[0] for r in rounds) < seconds:
        rounds.append(run_round(ops))
    return rounds


def run_traced(args, ops) -> tuple[list[tuple], dict]:
    """Alternate untraced and traced rounds; derive the layer figures.

    Pairs run until the untraced rounds add up to half of ``--seconds``.
    ``trace.overhead_s`` is the median traced round minus the median
    untraced round.
    """
    import convalg
    import spans
    tracer = spans.Tracer()
    plain, traced = [], []
    while not plain or sum(r[0] for r in plain) < args.seconds / 2:
        plain.append(run_round(ops))
        with tracer.installed(convalg):
            traced.append(run_round(ops))
    layers = spans.summarize(tracer.spans, tracer.perms, len(traced))
    layers["trace.overhead_s"] = (statistics.median(r[0] for r in traced)
                                  - statistics.median(r[0] for r in plain))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{args.workload}-seed{args.seed}.json")
    return plain + traced, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time import and input construction, print them, exit")
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(args)

    wl, ops, import_s, setup_s = load(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0

    probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(p["setup_s"] for p in probes)
    import_s = statistics.median(p["import_s"] for p in probes)

    if args.trace:
        rounds, layers = run_traced(args, ops)
    else:
        rounds = run_rounds(ops, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall_s = statistics.median(r[0] for r in rounds)

    attempted = failed = 0
    wrong = []
    for _, problems, kept, raised in rounds:
        late = wl.verify(kept)
        for op, found, more, err in zip(ops, problems, late, raised):
            attempted += 1
            if found or more:
                failed += 1
                if not err:
                    wrong.append(f"{op.label}: {'; '.join(found + more)}")
    for line in wrong[:10]:
        print(f"WRONG {line}", file=sys.stderr)

    if args.trace:
        layers["compops.op_norm_l2.rel_gap"] = getattr(wl, "rel_gap", 0.0)
        layers["setup.import_s"] = import_s
        values, kind = layers, "per_layer"
    else:
        values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_mb}
        kind = "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"{args.workload}: {attempted} operations, {failed} failed, rounds of "
          + ", ".join(f"{r[0]:.3f}" for r in rounds) + " s", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print a table."""
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        figures = "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                            for k, v in result["metrics"].items())
        print(f"{name:<10} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  {figures}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
