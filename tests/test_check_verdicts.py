"""Each invariant check fails on a NaN and on an error just above its tolerance.

A case puts a NaN, or an error just above the check's stated tolerance,
into the result of one function the check calls (its subject), and
asserts that :func:`convalg.checks.run` reports the check as failed,
with a detail naming the injected fault.  The subject is replaced in a
copy of the module's namespace that only ``convalg.checks`` sees, so the
code under the subject runs as it is.  A check whose subject returns a
verdict rather than a number gets a wrong verdict instead.

The checks' source keeps no ``assert`` (the checks must still check
under ``python -O``) and no builtin ``max`` or ``min`` (which drop a
NaN that comes second).
"""

import ast
import dataclasses
import itertools
import types
from pathlib import Path

import numpy as np
import pytest

from convalg import checks
from convalg import compops as co
from convalg import seqalg as sa

SRC = Path(__file__).resolve().parents[1] / "src" / "convalg"
NAN = float("nan")
EXACT_NORM = np.sqrt(13.0 / 7.0)  # of C_{b_0.3} on L^2(T), the unweighted-exact-norm target


def edit(change, call=None):
    """Replace a subject's result by ``change(result, *args)``, on each call or on call ``call``."""
    def wrap(fn):
        calls = itertools.count()

        def subject(*args, **kwargs):
            result = fn(*args, **kwargs)
            return change(result, *args) if call in (None, next(calls)) else result
        return subject
    return wrap


def plus(x, e):
    """``x`` with ``e`` added to its first entry: a sequence's first coefficient or an array's."""
    if isinstance(x, sa.TruncSeq):
        values = x.values.copy()
        values[0] += e
        return sa.TruncSeq(x.lo, values)
    x = np.array(x)
    x.flat[0] += e
    return x


def fields(**changes):
    """An edit that replaces these fields of a report."""
    return lambda rep, *args: dataclasses.replace(rep, **changes)


def scaled_every_other(factor):
    """A wrap that scales every second result: in monomial-isometry, the mapped sequence's norm."""
    def wrap(fn):
        calls = itertools.count()
        return lambda *args: fn(*args) * (factor if next(calls) % 2 else 1.0)
    return wrap


# (check, case, module name in checks, subject, wrap, a word of the failure detail)
CASES = [
    ("submultiplicativity-families", "nan", "wt", "check_submultiplicative",
     edit(fields(max_excess=NAN, max_ratio=NAN)), "nan"),
    ("submultiplicativity-families", "ratio+1.1e-12", "wt", "check_submultiplicative",
     edit(lambda rep, *args: dataclasses.replace(rep, max_ratio=rep.max_ratio + 1.1e-12)),
     "polynomial(2) max ratio"),
    ("algebra-constant", "nan", "wt", "algebra_constant", edit(fields(constant=NAN)), "nan"),
    ("algebra-constant", "C(100)*(1+1.1e-6)", "wt", "algebra_constant",
     edit(lambda rep, w, p, window: dataclasses.replace(rep, constant=rep.constant * (1 + 1.1e-6))
          if window == 100 else rep), "not settled"),
    ("convolution-oracle", "nan", "sa", "convolve",
     edit(lambda h, f, g, method="auto": plus(h, NAN) if method == "fft" else h), "nan"),
    ("convolution-oracle", "fft+1.1e-9", "sa", "convolve",
     edit(lambda h, f, g, method="auto": plus(h, 1.1e-9) if method == "fft" else h),
     "max abs deviation"),
    ("convolution-oracle", "all*(1+1e-9)", "sa", "convolve", edit(lambda h, *args: h * (1 + 1e-9)),
     "direct route off the exact product"),
    ("derivative-identity", "nan", "sa", "gelfand_sample", edit(lambda x, *args: plus(x, NAN)),
     "nan"),
    ("derivative-identity", "coefficient+1.1e-12", "sa", "formal_derivative",
     edit(lambda df, *args: plus(df, 1.1e-12)), "derivative identity residual"),
    ("blaschke-coefficients", "nan", "cm", "coeffs", edit(lambda c, *args: plus(c, NAN)), "nan"),
    ("blaschke-coefficients", "coefficient+1.1e-10", "cm", "coeffs",
     edit(lambda c, *args: plus(c, 1.1e-10)), "max error"),
    ("power-pipeline-agreement", "nan", "cm", "weighted_power",
     edit(lambda a, *args: (plus(a[0], NAN), a[1])), "nan"),
    # the binary power's own gap (up to 1.4e-13) could cancel 1.1 times the bound a_err + b_err,
    # where a_err = 1e-12
    ("power-pipeline-agreement", "coefficient+2*bound", "cm", "compose",
     edit(lambda b, *args: (plus(b[0], 2.0 * (1e-12 + b[1])), b[1])), "exceeds the routes' bounds"),
    ("monomial-isometry", "nan", "sa", "weighted_norm", edit(lambda x, *args: NAN), "nan"),
    ("monomial-isometry", "norm*(1+1.1e-12)", "sa", "weighted_norm",
     scaled_every_other(1 + 1.1e-12), "isometry defect"),
    ("monomial-isometry", "l1+1.1e-10", "sa", "l1_diff", edit(lambda d, *args: d + 1.1e-10),
     "homomorphism defect"),
    ("blowup-case1", "nan", "co", "blowup_experiment",
     edit(lambda rows, *args: [dataclasses.replace(rows[0], ratio=NAN), *rows[1:]]), "nan"),
    ("blowup-case2", "nan", "co", "blowup_experiment",
     edit(lambda rows, *args: [dataclasses.replace(rows[0], ratio=NAN), *rows[1:]], call=0),
     "no growth at n=5"),
    ("unweighted-contrast", "nan", "co", "column_ratio", edit(lambda x, *args: NAN), "nan"),
    ("unweighted-contrast", "ratio+1.1e-10", "co", "column_ratio",
     edit(lambda x, *args: x + 1.1e-10), "beyond its certificate"),
    ("unweighted-exact-norm", "nan", "co", "op_norm_l2", lambda fn: lambda *args: NAN, "nan"),
    ("unweighted-exact-norm", "N=512 short by 1.1e-5", "co", "op_norm_l2",
     lambda fn: lambda phi, w, N: EXACT_NORM - 1.1e-5 if N == 512 else fn(phi, w, N), "short"),
    ("distortion-monotone", "nan", "co", "distortion_experiment",
     lambda fn: lambda w, rs, N: [co.DistortionReport(r, N, NAN, NAN, NAN, True) for r in rs],
     "nan"),
    ("distortion-monotone", "N=512 norm*(1+0.011)", "co", "distortion_experiment",
     edit(lambda reps, *args: [dataclasses.replace(rep, norm_fwd=rep.norm_fwd * 1.011)
                               for rep in reps], call=1), "relative norm gap"),
    ("distortion-monotone", "norm(-r)*(1+1.1e-12)", "co", "op_norm_l2",
     lambda fn: lambda phi, w, N: fn(phi, w, N) * (1 + 1.1e-12 if phi.r < 0 else 1.0),
     "relative gap"),
    ("chain-rule", "nan", "co", "chain_rule_check", edit(fields(residual_l1=NAN), call=19), "nan"),
    ("chain-rule", "residual=1.1*bound", "co", "chain_rule_check",
     edit(lambda rep, *args: dataclasses.replace(rep, residual_l1=1.1 * rep.bound), call=19),
     "of its bound"),
    ("standard-iso-homomorphism", "nan", "ga", "standard_iso_matrix",
     edit(lambda T, *args: plus(T, NAN)), "nan"),
    ("standard-iso-homomorphism", "entry+1.1e-12", "ga", "standard_iso_matrix",
     edit(lambda T, *args: plus(T, 1.1e-12)), "defect"),
    ("group-scan", "nan", "ga", "standard_iso_matrix",
     edit(lambda T, *args: plus(T, NAN), call=19), "nan"),
    ("group-scan", "entry+1.1e-12", "ga", "standard_iso_matrix",
     edit(lambda T, *args: plus(T, 1.1e-12), call=19), "off its standard form"),
    ("translation-rigidity", "false-verdict", "ga", "translation_rigidity_check",
     edit(lambda ok, *args: False, call=1), "failed on Z5"),
]


def test_every_check_has_a_case():
    assert {case[0] for case in CASES} == {name for _, name, _ in checks.CHECKS}


@pytest.mark.parametrize("check, module, subject, wrap, word",
                         [(c, m, s, w, word) for c, _, m, s, w, word in CASES],
                         ids=[f"{c}-{label}" for c, label, *_ in CASES])
def test_check_fails_on_the_injected_fault(monkeypatch, check, module, subject, wrap, word):
    result = run_injected(monkeypatch, check, module, subject, wrap)
    assert not result.passed and word in result.detail, result.detail


def run_injected(monkeypatch, check, module, subject, wrap):
    """Run ``check`` alone with ``wrap`` around its subject; returns its result."""
    namespace = types.SimpleNamespace(**vars(getattr(checks, module)))
    setattr(namespace, subject, wrap(getattr(namespace, subject)))
    monkeypatch.setattr(checks, module, namespace)
    monkeypatch.setattr(checks, "CHECKS", [e for e in checks.CHECKS if e[1] == check])
    [result] = checks.run("all")
    return result


def test_the_ratio_failure_prints_the_ratio_in_full(monkeypatch):
    ratio = run_injected(monkeypatch, "submultiplicativity-families", "wt",
                         "check_submultiplicative",
                         edit(lambda rep, *args: dataclasses.replace(rep, max_ratio=4.0 + 1.1e-12)))
    assert float(ratio.detail.split("max ratio ")[1].split(",")[0]) == 4.0 + 1.1e-12, ratio.detail


@pytest.mark.parametrize("at_512_only", [True, False])
def test_the_exact_norm_failures_print_plain_numbers(monkeypatch, at_512_only):
    short = float(EXACT_NORM - 1.1e-5)
    norm = run_injected(monkeypatch, "unweighted-exact-norm", "co", "op_norm_l2",
                        lambda fn: lambda phi, w, N: short if N == 512 or not at_512_only
                        else fn(phi, w, N))
    if at_512_only:
        assert float(norm.detail.split("N=512 norm ")[1].split()[0]) == short, norm.detail
    else:
        assert norm.detail.startswith(f"norms {short!r}, {short!r}, {short!r} not"), norm.detail


@pytest.mark.parametrize("module", ["checks", "cli"])
def test_no_assert_and_no_builtin_max_or_min(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    folds = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("max", "min")]
    assert asserts == [] and folds == []
