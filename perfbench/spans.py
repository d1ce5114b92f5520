"""In-memory spans around convalg's layer functions, for the traced run.

A :class:`Tracer` replaces each layer function by a wrapper in every
module that binds the name (``seqalg.convolve`` is also bound in
``circlemaps`` and ``compops``, and ``op_norm_l2`` reaches
``build_matrix`` through the ``compops`` module globals), so nested calls
made inside the program are recorded too.  Each span keeps its name,
start, end, parent span and a few result attributes; the per-layer
metrics are derived from the spans after the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _convolve_attrs(result) -> dict:
    return {"out_len": result.support_len}


def _matrix_attrs(result) -> dict:
    return {"entries": int(result.entries.size)}


# (layer name, module names that bind it, attribute, result attributes)
LAYERS = (
    ("seqalg.convolve", ("seqalg", "circlemaps", "compops"), "convolve", _convolve_attrs),
    ("circlemaps.power_coeffs", ("circlemaps", "compops"), "power_coeffs", None),
    ("circlemaps.compose_transform", ("circlemaps", "compops"), "compose_transform", None),
    ("compops.build_matrix", ("compops",), "build_matrix", _matrix_attrs),
    ("compops.column_ratio", ("compops",), "column_ratio", None),
    ("compops.op_norm_l2", ("compops",), "op_norm_l2", None),
    ("groupalg.enumerate_l2_automorphisms", ("groupalg",), "enumerate_l2_automorphisms", None),
    ("groupalg.small_norm_scan", ("groupalg",), "small_norm_scan", None),
)

# Both census scans transform one permutation per call of this kernel.
PERM_KERNEL = ("groupalg", "_fourier_conjugated")


class Tracer:
    """Collects spans of one traced phase; not thread-safe (calls are serial)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.perms = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter()}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(result))
            return result
        return wrapper

    def count_perms(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.perms += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self, package):
        """Patch the layer functions of ``package`` (convalg) for the block."""
        saved = []
        try:
            for name, modules, attr, attrs in LAYERS:
                wrapped = self.wrap(name, getattr(getattr(package, modules[0]), attr), attrs)
                for mod_name in modules:
                    mod = getattr(package, mod_name)
                    saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, wrapped)
            mod = getattr(package, PERM_KERNEL[0])
            saved.append((mod, PERM_KERNEL[1], getattr(mod, PERM_KERNEL[1])))
            setattr(mod, PERM_KERNEL[1], self.count_perms(getattr(mod, PERM_KERNEL[1])))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"perms": self.perms, "spans": self.spans}, fh)


def summarize(spans: list[dict], perms: int, rounds: int) -> dict[str, float]:
    """Per-round layer figures from the spans of ``rounds`` traced rounds.

    A span's id is its index in ``spans``, as :meth:`Tracer.wrap` assigns it.

    ``.calls`` counts every call of a layer, ``.s`` sums the durations of
    its outermost calls (a layer nested in itself is not counted twice),
    ``.self_s`` subtracts the time covered by direct child spans.
    """
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    child_s: dict[int, float] = defaultdict(float)
    out_len = entries = 0
    build_s = refuse_s = 0.0
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        calls[name] += 1
        self_s[name] += dur - child_s[s["id"]]
        parent = s["parent"]
        while parent is not None and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent is None:
            total[name] += dur
        out_len += s.get("out_len", 0)
        entries += s.get("entries", 0)
        if name == "compops.build_matrix":
            if s.get("error") == "SizeError":
                refuse_s += dur
            elif "error" not in s:
                build_s += dur
    per = float(rounds)
    scan_s = total["groupalg.enumerate_l2_automorphisms"] + total["groupalg.small_norm_scan"]
    return {
        "compops.op_norm_l2.calls": calls["compops.op_norm_l2"] / per,
        "compops.op_norm_l2.self_s": self_s["compops.op_norm_l2"] / per,
        "compops.build_matrix.calls": calls["compops.build_matrix"] / per,
        "compops.build_matrix.s": build_s / per,
        "compops.build_matrix.entries": entries / per,
        "compops.build_matrix.mb": 16.0 * entries / 1e6 / per,
        "compops.build_matrix.refuse_s": refuse_s / per,
        "compops.column_ratio.calls": calls["compops.column_ratio"] / per,
        "compops.column_ratio.s": total["compops.column_ratio"] / per,
        "circlemaps.power_coeffs.calls": calls["circlemaps.power_coeffs"] / per,
        "circlemaps.power_coeffs.s": total["circlemaps.power_coeffs"] / per,
        "circlemaps.compose_transform.calls": calls["circlemaps.compose_transform"] / per,
        "circlemaps.compose_transform.s": total["circlemaps.compose_transform"] / per,
        "seqalg.convolve.calls": calls["seqalg.convolve"] / per,
        "seqalg.convolve.s": total["seqalg.convolve"] / per,
        "seqalg.convolve.out_len": out_len / per,
        "groupalg.enumerate_l2_automorphisms.s": total["groupalg.enumerate_l2_automorphisms"] / per,
        "groupalg.small_norm_scan.s": total["groupalg.small_norm_scan"] / per,
        "groupalg.perms": perms / per,
        "groupalg.perm_us": 1e6 * scan_s / perms if perms else 0.0,
    }
