"""The benchmark's workloads still run against the current API.

Each small workload of ``perfbench/test_perfbench.py`` runs one round of
its operations through the workload's own ``check`` and ``verify``, so a
change that breaks a benchmark workload fails here, not only in a
benchmark run.  The benchmark's sizes, round helper and entry-cap fixture
are imported, not copied; nothing under ``perfbench/`` is changed.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from test_perfbench import SMALL, round_problems, small_cap  # noqa: E402,F401  (small_cap is a fixture)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_benchmark_workload_passes_its_checks(name, small_cap):
    wl = SMALL[name]()
    ops = wl.ops(seed=1)
    assert ops
    assert round_problems(wl, ops) == []
