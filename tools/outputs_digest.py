"""Print sha256 digests of the coefficient pipeline's outputs, as JSON.

Two trees compute the same numbers exactly when their digests match::

    PYTHONPATH=src python3 tools/outputs_digest.py

Each digest covers the raw bytes, dtype and index window of every result
in its group; ``refusals`` covers whether ``build_matrix`` raises
SizeError on each request of ``REFUSALS`` under its entry cap, so equal
digests there mean the same requests are refused, and ``support`` covers
the hull ``certified_support`` returns (or None) for each column that
those requests probe and for each input of ``SUPPORT``, ``op_norm_l2``
covers the norms at the ``distortion`` defaults and at the
``unweighted-exact-norm`` check's inputs, ``products`` covers
``seqalg.convolve`` on the direct and FFT routes, real and complex, at
budgets 0, 1e-13 and above the product's mass, and ``l1_trimmed`` on
arrays with zero ends at tied budgets, ``chain_rule`` covers the residual
and the bound of ``chain_rule_check`` on the 20 sequences of the
``chain-rule`` check, whose bounds carry ``compose``'s weighted and plain
error bounds, ``distortion`` covers every field
of the four rows of ``convalg distortion`` at its defaults, ``census``
covers every field of the automorphism census of Z_n for n = 1..9 and
the norms of the l1 small-norm scan for n = 3..9, and ``verify`` covers
the name, verdict and detail line of every check ``convalg verify``
runs.  ``all`` covers the groups together.
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
# (r, n, top, tol) of certified_support: the oversize probes, test_matrix_entry_cap's, small grids
SUPPORT = [(0.99, 210, 300, 1e-10), (-0.99, 210, 300, 1e-10), (0.999, 2, 4000, 1e-14),
           (0.9, 60, 60, 1e-10), (-0.7, 3, 12, 1e-10), (0.5, 1, 4, 1e-10)]


def _seq(f: sa.TruncSeq) -> bytes:
    return struct.pack("<q", f.lo) + str(f.values.dtype).encode() + f.values.tobytes()


def _products() -> list[bytes]:
    rng = np.random.default_rng(30)
    decay = 0.7 ** np.arange(300)
    real = [sa.TruncSeq(-9, rng.standard_normal(40) * decay[:40]),
            sa.TruncSeq(4, rng.standard_normal(300) * decay[::-1]),
            sa.TruncSeq(-600, rng.standard_normal(900))]
    factors = real + [f * (0.5 - 2j) + sa.TruncSeq(f.lo, 1j * f.values[::-1]) for f in real]
    out = []
    for f in factors:
        for g in factors:
            above = 2.0 * sa.l1_norm(f) * sa.l1_norm(g)  # half of it is at least the product's mass
            out += [_seq(sa.convolve(f, g, method, budget)) for method in ("direct", "fft")
                    for budget in (0.0, 1e-13, above)]
    edges = [np.array(v) for v in ([0.0, 0.0, 1.0, 2.0, 0.0], [1.0, 1.0, 1.0, 1.0], [0.0],
                                   [-0.0, 3.0, 0.5, -0.0], [0j, 1j, 2.0, 0j], [2.0, 0.0, 0.0, 2.0])]
    edges += [rng.standard_normal(50) * 2.0 ** rng.integers(-30, 0, 50)]
    for vals in edges:
        sums = np.concatenate([np.cumsum(np.abs(vals)), np.cumsum(np.abs(vals[::-1]))])
        out += [_seq(sa.l1_trimmed(-3, vals, budget))
                for budget in (0.0, 1e-13, *(2.0 * sums), np.inf)]  # 2 * sums: ties
    return out


def _chain_rule() -> list[bytes]:
    # the inputs of checks.chain_rule: seed 2, r = 0.3, complex normal on [-20, 20]
    rng = np.random.default_rng(2)
    phi = cm.Blaschke(0.3)
    reports = [co.chain_rule_check(sa.TruncSeq(-20, rng.standard_normal(41)
                                               + 1j * rng.standard_normal(41)), phi, tol=1e-6)
               for _ in range(20)]
    return [struct.pack("<dd", rep.residual_l1, rep.bound) for rep in reports]


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
    hulls += [cm.certified_support(cm.Blaschke(r), n, top, tol) for r, n, top, tol in SUPPORT]
    out["support"] = [b"none" if hull is None else struct.pack("<qq", *hull) for hull in hulls]
    out["products"] = _products()
    out["chain_rule"] = _chain_rule()
    out["op_norm_l2"] = [struct.pack("<d", co.op_norm_l2(cm.Blaschke(r), poly, 256))
                         for r in (0.02, -0.02, 0.05, -0.05, 0.1, -0.1, 0.2, -0.2)]
    out["op_norm_l2"] += [struct.pack("<d", co.op_norm_l2(cm.Blaschke(0.3), const, N))
                          for N in (32, 128, 512)]
    out["distortion"] = [struct.pack("<dqddd?", rep.r, rep.N, rep.norm_fwd, rep.norm_inv,
                                     rep.distortion, rep.nonstandard_witness)
                         for rep in co.distortion_experiment(poly, [0.02, 0.05, 0.1, 0.2], 256)]
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
