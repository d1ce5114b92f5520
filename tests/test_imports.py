"""convalg runs on numpy alone: importing it loads no scipy module."""

import os
import subprocess
import sys
from pathlib import Path

import convalg

SRC = Path(convalg.__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    code = ("import sys, convalg, convalg.cli, convalg.checks; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=60)
    assert done.stdout.strip() == "[]"
