"""Tests of the benchmark itself: small workloads pass, wrong answers do not.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import convalg  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from convalg import circlemaps, compops, groupalg  # noqa: E402


def small(cls, **sizes):
    wl = cls()
    for name, value in sizes.items():
        setattr(wl, name, value)
    return wl


def round_problems(wl, ops) -> list[str]:
    _, problems, kept, _ = run.run_round(ops)
    late = wl.verify(kept)
    return [p for found, more in zip(problems, late) for p in found + more]


SMALL = {
    "distortion": lambda: small(workloads.Distortion, R_VALUES=(0.05, 0.2), N=24),
    "columns": lambda: small(workloads.Columns, BUILDS=((0.5, 40), (0.9, 12)),
                             RATIO_N=15, COMPOSE_NS=(-30, 30), CHAIN_COUNT=3),
    "oversize": lambda: small(workloads.Oversize, R=0.9, N=60),
    "census": lambda: small(workloads.Census, ENUM_NS=(4, 5), SCAN_NS=(3, 4, 5)),
}


@pytest.fixture
def small_cap(monkeypatch):
    # (0.9, 60) needs about 2400 x 121 entries: over this cap, far below the real one
    monkeypatch.setattr(compops, "MAX_MATRIX_ENTRIES", 100_000)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_passes_its_checks(name, small_cap):
    wl = SMALL[name]()
    ops = wl.ops(seed=3)
    assert ops
    assert round_problems(wl, ops) == []


def test_distortion_sigma_off_by_1e3_is_caught():
    wl = SMALL["distortion"]()
    op = wl.ops(seed=0)[0]
    reports = op.call()
    assert op.check(reports)[0] == []
    rep, k = reports[0], 1 + 1e-3
    bad = [dataclasses.replace(rep, norm_fwd=rep.norm_fwd * k, norm_inv=rep.norm_inv * k,
                               distortion=rep.distortion * k * k)]
    found, kept = op.check(bad)
    assert found == []  # consistent in itself: only the oracle can see it
    assert any("above the oracle sigma" in p for p in wl.verify([kept])[0])
    found, kept = op.check([dataclasses.replace(rep, norm_fwd=rep.norm_fwd * k)])
    assert any("differ by more than 1e-4" in p for p in found)


def test_census_count_off_by_one_is_caught():
    wl = SMALL["census"]()
    op = next(o for o in wl.ops(seed=0) if o.label.startswith("enumerate"))
    scan = op.call()
    assert op.check(scan)[0] == []
    found, _ = op.check(dataclasses.replace(scan, total=scan.total + 1))
    assert any("total" in p for p in found)
    found, _ = op.check(dataclasses.replace(scan, standard_count=scan.standard_count - 1))
    assert any("standard_count" in p for p in found)


def test_census_min_norm_off_is_caught():
    wl = SMALL["census"]()
    op = next(o for o in wl.ops(seed=0) if o.label == "small_norm_scan n=5")
    rep = op.call()
    _, kept = op.check(rep)
    assert wl.verify([kept]) == [[]]
    _, kept = op.check(dataclasses.replace(rep, min_nonstandard_norm=rep.min_nonstandard_norm + 1e-9))
    assert wl.verify([kept])[0]


def test_refusal_that_returns_a_matrix_is_caught(small_cap, monkeypatch):
    wl = SMALL["oversize"]()
    ops = wl.ops(seed=0)
    _, problems, _, raised = run.run_round(ops)
    assert problems == [[]]
    monkeypatch.setattr(compops, "MAX_MATRIX_ENTRIES", 10 ** 12)
    _, problems, _, raised = run.run_round(ops)
    assert "instead of raising SizeError" in problems[0][0]
    assert raised == [False]  # a wrong answer, not an error


def test_other_exception_on_refusal_is_a_failure(monkeypatch):
    wl = SMALL["oversize"]()

    def boom(*args, **kwargs):
        raise MemoryError("out of memory")

    monkeypatch.setattr(compops, "build_matrix", boom)
    _, problems, _, raised = run.run_round(wl.ops(seed=0))
    assert "MemoryError" in problems[0][0]
    assert raised == [True]


def test_perturbed_column_is_caught():
    wl = SMALL["columns"]()
    op = wl.ops(seed=1)[0]
    mat = op.call()
    bad = dataclasses.replace(mat, entries=mat.entries.copy())
    bad.entries[:, :] *= 1 + 1e-7
    found, _ = op.check(bad)
    assert any("l2 norm" in p for p in found)
    assert any("sampling oracle" in p for p in found)


# ---------------------------------------------------------------------
# the oracles themselves
# ---------------------------------------------------------------------


def test_sampling_oracle_matches_closed_form_and_is_converged():
    r = 0.6
    M = oracles.grid_size(r, 40)
    cols = oracles.blaschke_columns(r, [1, 40], M)
    ks = np.arange(-(M // 2), M // 2)
    exact = np.where(ks == 0, -r, np.where(ks > 0, (1 - r * r) * r ** (ks - 1.0), 0.0))
    assert np.sum(np.abs(cols[:, 0] - exact)) < 1e-13
    finer = oracles.blaschke_columns(r, [40], 2 * M)[M // 2: M // 2 + M, 0]
    assert np.sum(np.abs(finer - cols[:, 1])) < 1e-12  # rounding, summed over the grid


def test_census_oracle_small_orders():
    assert oracles.min_nonstandard_l1_norm(3) is None
    for n in (4, 5):
        rep = groupalg.small_norm_scan(n)
        assert abs(oracles.min_nonstandard_l1_norm(n, chunk=7) - rep.min_nonstandard_norm) < 1e-12
    assert [oracles.euler_phi(n) for n in (1, 6, 7, 8)] == [1, 2, 6, 4]


# ---------------------------------------------------------------------
# tracing and the command line
# ---------------------------------------------------------------------


def test_tracer_records_nested_calls_and_restores_the_modules():
    originals = {m: getattr(getattr(convalg, m), "convolve") for m in ("seqalg", "circlemaps", "compops")}
    tracer = spans.Tracer()
    with tracer.installed(convalg):
        compops.column_ratio(circlemaps.Blaschke(0.5), convalg.weights.constant(), 2.0, 7)
        groupalg.small_norm_scan(4)
    for mod, fn in originals.items():
        assert getattr(getattr(convalg, mod), "convolve") is fn
    names = {s["id"]: s["name"] for s in tracer.spans}
    conv = [s for s in tracer.spans if s["name"] == "seqalg.convolve"]
    assert conv and all(names[s["parent"]] == "circlemaps.power_coeffs" for s in conv)
    fig = spans.summarize(tracer.spans, tracer.perms, rounds=1)
    assert fig["compops.column_ratio.calls"] == 1
    assert fig["groupalg.perms"] == math.factorial(4)
    assert fig["seqalg.convolve.out_len"] == sum(s["out_len"] for s in conv)


def test_summary_self_time_and_outermost_totals():
    spans_ = [
        {"id": 0, "name": "compops.op_norm_l2", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "compops.build_matrix", "parent": 0, "start": 1.0, "end": 3.0,
         "entries": 5},
        {"id": 2, "name": "compops.build_matrix", "parent": None, "start": 11.0, "end": 12.0,
         "error": "SizeError"},
    ]
    fig = spans.summarize(spans_, perms=0, rounds=2)
    assert fig["compops.op_norm_l2.self_s"] == pytest.approx(4.0)
    assert fig["compops.build_matrix.calls"] == 1.0
    assert fig["compops.build_matrix.s"] == pytest.approx(1.0)
    assert fig["compops.build_matrix.refuse_s"] == pytest.approx(0.5)
    assert fig["compops.build_matrix.mb"] == pytest.approx(16 * 5 / 1e6 / 2)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
