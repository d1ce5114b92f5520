"""Print sha256 digests of the coefficient pipeline's outputs, as JSON.

Two trees compute the same numbers exactly when their digests match::

    PYTHONPATH=src python3 tools/outputs_digest.py

Each digest covers the raw bytes, dtype and index window of every
result in its group; ``refusals`` covers whether ``build_matrix`` raises
SizeError on each request of ``REFUSALS`` under its entry cap, so equal
digests there mean the same requests are refused, and ``support`` covers
the hull ``certified_support`` returns (or None) for each column that
those requests probe, ``op_norm_l2`` covers the norms at the
``distortion`` defaults and at the ``unweighted-exact-norm`` check's
inputs, and ``census`` covers every field of the automorphism census of
Z_n for n = 1..9 and the norms of the l1 small-norm scan for n = 3..9,
and ``verify`` covers the name, verdict and detail line of every check
``convalg verify`` runs.  ``all`` covers the groups together.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from convalg import checks
from convalg import circlemaps as cm
from convalg import compops as co
from convalg import groupalg as ga
from convalg import seqalg as sa
from convalg import weights as wt
from convalg.errors import SizeError

NS = [n for n in range(-500, 501) if n]
# (r, column range, entry cap): small caps around valid builds, and the default cap
REFUSALS = [(r, n_range, cap) for r in (0.5, -0.9, 0.99, 0.0)
            for n_range in ((-60, 60), (5, 40), (-40, -5), (-20, 35))
            for cap in (2_000, 20_000, 200_000)]
REFUSALS += [(r, (-300, 300), co.MAX_MATRIX_ENTRIES) for r in (0.99, -0.99)]


def _seq(f: sa.TruncSeq) -> bytes:
    return struct.pack("<q", f.lo) + str(f.values.dtype).encode() + f.values.tobytes()


def _census(n: int) -> bytes:
    scan = ga.enumerate_l2_automorphisms(n)
    head = struct.pack("<qqqqdd", scan.n, scan.total, scan.standard_count, scan.nonstandard_count,
                       scan.max_hom_defect, scan.max_isometry_defect)
    if scan.nonstandard_example is None:
        return head + b"none"
    ex = scan.nonstandard_example
    return (head + struct.pack(f"<{n}q", *scan.nonstandard_example_sigma)
            + str(ex.dtype).encode() + ex.tobytes())


def _norm_scan(n: int) -> bytes:
    rep = ga.small_norm_scan(n)
    low = b"none" if rep.min_nonstandard_norm is None else struct.pack("<d", rep.min_nonstandard_norm)
    return low + struct.pack("<d?", rep.max_standard_norm, rep.all_below_threshold_standard)


def _refuses(r: float, n_range: tuple[int, int], cap: int, hulls: list) -> bool:
    """Whether the request is refused; the hull of each probed column is appended to ``hulls``."""
    default, probe = co.MAX_MATRIX_ENTRIES, co.certified_support
    co.MAX_MATRIX_ENTRIES = cap
    co.certified_support = lambda *args: hulls.append(probe(*args)) or hulls[-1]
    try:
        co.build_matrix(cm.Blaschke(r), n_range)
        return False
    except SizeError:
        return True
    finally:
        co.MAX_MATRIX_ENTRIES, co.certified_support = default, probe


def groups() -> dict[str, list[bytes]]:
    b = cm.Blaschke(0.5)
    const, poly = wt.constant(), wt.polynomial(2.0)
    out: dict[str, list[bytes]] = {"build_matrix": []}
    for r, N in ((0.5, 500), (0.9, 250), (0.3, 800), (-0.7, 100)):
        m = co.build_matrix(cm.Blaschke(r), (-N, N))
        out["build_matrix"].append(struct.pack("<qq", m.m_lo, m.m_hi)
                                   + str(m.entries.dtype).encode() + m.entries.tobytes())
    out["power_coeffs"] = [_seq(cm.power_coeffs(b, n)) for n in NS]
    out["column_ratio"] = [struct.pack("<d", co.column_ratio(b, const, 2.0, n)) for n in NS]
    out["weighted_power"] = [_seq(col) + struct.pack("<d", err)
                             for w in (const, poly) for n in (-40, -7, 1, 9, 40)
                             for col, err in [cm.weighted_power(b, n, w, 1e-10)]]
    out["compose_transform"] = [_seq(cm.compose_transform(sa.delta(n), b))
                                for n in (-400, -25, 25, 400)]
    hulls: list = []
    out["refusals"] = [struct.pack("<?", _refuses(*req, hulls)) for req in REFUSALS]
    out["support"] = [b"none" if hull is None else struct.pack("<qq", *hull) for hull in hulls]
    out["op_norm_l2"] = [struct.pack("<d", co.op_norm_l2(cm.Blaschke(r), poly, 256))
                         for r in (0.02, -0.02, 0.05, -0.05, 0.1, -0.1, 0.2, -0.2)]
    out["op_norm_l2"] += [struct.pack("<d", co.op_norm_l2(cm.Blaschke(0.3), const, N))
                          for N in (32, 128, 512)]
    out["census"] = [_census(n) for n in range(1, 10)] + [_norm_scan(n) for n in range(3, 10)]
    out["verify"] = [json.dumps([res.name, res.passed, res.detail]).encode()
                     for res in checks.run("all")]
    return out


def main() -> None:
    digests = {}
    total = hashlib.sha256()
    for name, blobs in groups().items():
        h = hashlib.sha256()
        for blob in blobs:
            h.update(hashlib.sha256(blob).digest())
        digests[name] = h.hexdigest()
        total.update(h.digest())
    digests["all"] = total.hexdigest()
    print(json.dumps({"numpy": np.__version__, "sha256": digests}, indent=1))


if __name__ == "__main__":
    main()
