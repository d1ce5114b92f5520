"""The four workloads: their inputs, their operations and the checks on them.

A workload turns a seed into a fixed list of operations (one round).
Each operation is a call into convalg's public API.  Its outcome is
checked in two stages, both outside the timed region:

* ``check`` runs right after the call, on the returned value.  It is
  cheap, allocates less than the call itself did, and keeps a small
  digest of the result;
* ``verify`` runs after the last timed round and after the peak memory
  reading, on the digests of one round.  It holds the comparisons with
  :mod:`oracles` whose reference values take more memory than the
  operations (a dense SVD, a batched permutation scan).  Those values
  are computed once per input and cached.

Both return a list of problems; an operation with any problem produced
a wrong answer.  Only ``convalg.<module>.<name>`` lookups at call time
reach the program, so the traced run sees every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles
from convalg import circlemaps, compops, groupalg, seqalg, weights
from convalg.errors import SizeError


def _no_check(value) -> tuple[list[str], Any]:
    return [], None


@dataclass(frozen=True)
class Op:
    """One call into the program.

    ``refusal`` names the exception the call must raise; when it is None
    the call must return, and ``check`` inspects the returned value.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], Any]] = _no_check
    refusal: type[BaseException] | None = None


class Workload:
    name: str

    def ops(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def verify(self, kept: list) -> list[list[str]]:
        """Problems per operation of one round, from its digests; none by default."""
        return [[] for _ in kept]


def _l1_gap(lo_a: int, a: np.ndarray, lo_b: int, b: np.ndarray) -> float:
    """l1 distance of two coefficient arrays starting at indices lo_a and lo_b."""
    lo = min(lo_a, lo_b)
    diff = np.zeros(max(lo_a + len(a), lo_b + len(b)) - lo, dtype=np.complex128)
    diff[lo_a - lo: lo_a - lo + len(a)] += a
    diff[lo_b - lo: lo_b - lo + len(b)] -= b
    return float(np.sum(np.abs(diff)))


def _column_norms(entries: np.ndarray, block: int = 64) -> np.ndarray:
    """l2 norm of every column, a block of columns at a time."""
    out = np.empty(entries.shape[1])
    for j in range(0, entries.shape[1], block):
        out[j: j + block] = np.sqrt(np.sum(np.abs(entries[:, j: j + block]) ** 2, axis=0))
    return out


# ---------------------------------------------------------------------
# distortion: l2 operator norms of the Blaschke isomorphisms
# ---------------------------------------------------------------------


class Distortion(Workload):
    """``convalg distortion`` at its defaults, one experiment call per r.

    The power iteration's start vector keeps its default seed 0: across
    start seeds the iteration count, and so the time, varies by a factor
    of two, which would show as spread between benchmark seeds instead
    of as a change in the program.  The benchmark seed only orders the
    calls.
    """

    name = "distortion"
    R_VALUES = (0.02, 0.05, 0.1, 0.2)
    N = 256
    A = 2.0

    def __init__(self) -> None:
        self._sigma: dict[float, float] = {}
        self.rel_gap = 0.0

    def ops(self, seed: int) -> list[Op]:
        rs = list(self.R_VALUES)
        random.Random(seed).shuffle(rs)
        w = weights.polynomial(self.A)
        return [Op(f"distortion r={r}",
                   lambda r=r: compops.distortion_experiment(w, [r], N=self.N),
                   lambda reports, r=r: self._check(r, reports))
                for r in rs]

    @staticmethod
    def _check(r: float, reports) -> tuple[list[str], Any]:
        if len(reports) != 1 or reports[0].r != r:
            return [f"expected one report at r={r}"], None
        rep = reports[0]
        problems = []
        if not rep.distortion >= 1.0:
            problems.append(f"distortion {rep.distortion!r} below 1")
        if abs(rep.norm_fwd - rep.norm_inv) > 1e-4 * max(rep.norm_fwd, rep.norm_inv):
            problems.append(f"norm_fwd {rep.norm_fwd!r} and norm_inv {rep.norm_inv!r} "
                            "differ by more than 1e-4")
        if not rep.nonstandard_witness:
            problems.append("no nonstandard witness")
        return problems, (r, rep.norm_fwd, rep.norm_inv, rep.distortion)

    def sigma(self, r: float) -> float:
        if r not in self._sigma:
            self._sigma[r] = oracles.weighted_sigma(r, self.N, self.A,
                                                    oracles.grid_size(r, self.N))
        return self._sigma[r]

    def verify(self, kept: list) -> list[list[str]]:
        problems: list[list[str]] = [[] for _ in kept]
        for i, (r, fwd, inv, _) in enumerate(kept):
            for label, norm, s in (("norm_fwd", fwd, self.sigma(r)),
                                   ("norm_inv", inv, self.sigma(-r))):
                if norm > s * (1.0 + 1e-9):
                    problems[i].append(f"{label} {norm!r} above the oracle sigma {s!r}")
                if norm < s * (1.0 - 1e-4):
                    problems[i].append(f"{label} {norm!r} below the oracle sigma {s!r} "
                                       "by more than 1e-4")
                self.rel_gap = max(self.rel_gap, (s - norm) / s)
        order = sorted(range(len(kept)), key=lambda i: kept[i][0])
        for prev, cur in zip(order, order[1:]):
            if not kept[cur][3] > kept[prev][3]:
                problems[cur].append(f"distortion at r={kept[cur][0]} does not exceed "
                                     f"the one at r={kept[prev][0]}")
        return problems


# ---------------------------------------------------------------------
# columns: the coefficient pipeline on valid sizes
# ---------------------------------------------------------------------


class Columns(Workload):
    """Valid builds, column ratios, blow-up rows, compositions, chain rule.

    The costs do not depend on the seed: it picks which built columns are
    compared with the sampling oracle and draws the chain-rule sequences.
    """

    name = "columns"
    BUILDS = ((0.5, 500), (0.9, 250), (0.3, 800))
    SAMPLED_COLUMNS = 3
    RATIO_R, RATIO_N = 0.5, 500
    BLOWUPS = ((1, 0.5, (9, 16, 25, 36, 49), {"gamma": 0.5}),
               (2, 0.3, (5, 10, 15, 20, 25), {"a": 2.0}))
    COMPOSE_R, COMPOSE_NS = 0.5, (-400, -100, -25, 25, 100, 400)
    CHAIN_R, CHAIN_COUNT, CHAIN_SUPPORT = 0.3, 20, 20

    def __init__(self) -> None:
        self._oracle: dict[tuple[float, int], tuple[int, np.ndarray]] = {}

    def ops(self, seed: int) -> list[Op]:
        rng = np.random.default_rng(seed)
        ops = []
        for r, N in self.BUILDS:
            picks = sorted(int(n) for n in rng.choice(np.arange(-N, N + 1),
                                                       self.SAMPLED_COLUMNS, replace=False))
            ops.append(Op(f"build_matrix r={r} N={N}",
                          lambda r=r, N=N: compops.build_matrix(circlemaps.Blaschke(r), (-N, N)),
                          lambda mat, r=r, N=N, picks=picks: self._check_matrix(r, N, picks, mat)))
        const = weights.constant()
        phi = circlemaps.Blaschke(self.RATIO_R)
        for n in range(-self.RATIO_N, self.RATIO_N + 1):
            if n:
                ops.append(Op(f"column_ratio n={n}",
                              lambda n=n: compops.column_ratio(phi, const, 2.0, n),
                              self._check_ratio))
        for case, r, ns, extra in self.BLOWUPS:
            ops.append(Op(f"blowup case={case}",
                          lambda case=case, r=r, ns=ns, extra=extra:
                          compops.blowup_experiment(case, r, ns, **extra),
                          lambda rows, ns=ns: self._check_blowup(ns, rows)))
        phi = circlemaps.Blaschke(self.COMPOSE_R)
        for n in self.COMPOSE_NS:
            ops.append(Op(f"compose_transform n={n}",
                          lambda n=n: (circlemaps.compose_transform(seqalg.delta(n), phi),
                                       circlemaps.power_coeffs(phi, n)),
                          self._check_compose))
        phi = circlemaps.Blaschke(self.CHAIN_R)
        for k in range(self.CHAIN_COUNT):
            lo = int(rng.integers(-self.CHAIN_SUPPORT, 1))
            vals = (rng.standard_normal(self.CHAIN_SUPPORT)
                    + 1j * rng.standard_normal(self.CHAIN_SUPPORT))
            f = seqalg.TruncSeq(lo, vals)
            ops.append(Op(f"chain_rule_check #{k}",
                          lambda f=f: compops.chain_rule_check(f, phi),
                          self._check_chain))
        return ops

    def _check_matrix(self, r, N, picks, mat) -> tuple[list[str], Any]:
        if (mat.n_lo, mat.n_hi) != (-N, N):
            return [f"columns {mat.n_lo}..{mat.n_hi}, expected {-N}..{N}"], None
        problems = []
        err = np.abs(_column_norms(mat.entries) - 1.0)
        if not np.max(err) <= 1e-8:
            problems.append(f"column {int(np.argmax(err)) - N} has l2 norm off 1 "
                            f"by {float(np.max(err)):.3g}")
        for n in picks:
            if (r, n) not in self._oracle:
                self._oracle[(r, n)] = oracles.blaschke_column(r, n)
            gap = _l1_gap(mat.m_lo, mat.entries[:, n + N], *self._oracle[(r, n)])
            if not gap <= 1e-8:
                problems.append(f"column {n} differs from the sampling oracle "
                                f"by {gap:.3g} in l1")
        return problems, None

    @staticmethod
    def _check_ratio(ratio) -> tuple[list[str], Any]:
        if not abs(ratio - 1.0) <= 1e-8:
            return [f"constant-weight ratio {ratio!r} is not 1"], None
        return [], None

    @staticmethod
    def _check_blowup(ns, rows) -> tuple[list[str], Any]:
        if [row.n for row in rows] != list(ns):
            return [f"rows for n={[row.n for row in rows]}, expected {list(ns)}"], None
        problems = [f"n={row.n}: lower bound {row.lower_bound_ratio!r} above ratio {row.ratio!r}"
                    for row in rows if not row.lower_bound_ratio <= row.ratio]
        problems += [f"ratio does not increase from n={a.n} to n={b.n}"
                     for a, b in zip(rows, rows[1:]) if not b.ratio > a.ratio]
        return problems, None

    @staticmethod
    def _check_compose(pair) -> tuple[list[str], Any]:
        f, g = pair
        gap = _l1_gap(f.lo, f.values, g.lo, g.values)
        if not gap <= 1e-8:
            return [f"compose_transform and power_coeffs differ by {gap:.3g} in l1"], None
        return [], None

    @staticmethod
    def _check_chain(rep) -> tuple[list[str], Any]:
        if not rep.residual_l1 < rep.tol:
            return [f"chain-rule residual {rep.residual_l1:.3g} not below {rep.tol:g}"], None
        return [], None


# ---------------------------------------------------------------------
# oversize: requests the entry cap must refuse
# ---------------------------------------------------------------------


class Oversize(Workload):
    """``build_matrix`` beyond ``MAX_MATRIX_ENTRIES``, refused with SizeError.

    The seed picks the sign of r; b_{-r} has the coefficients of b_r up
    to sign, so the work is the same either way.
    """

    name = "oversize"
    R, N = 0.99, 300

    def ops(self, seed: int) -> list[Op]:
        r = self.R if random.Random(seed).random() < 0.5 else -self.R
        return [Op(f"build_matrix r={r} N={self.N}",
                   lambda: compops.build_matrix(circlemaps.Blaschke(r), (-self.N, self.N)),
                   refusal=SizeError)]


# ---------------------------------------------------------------------
# census: dual-permutation automorphisms of Z_n
# ---------------------------------------------------------------------


class Census(Workload):
    """The automorphism census and the l1 small-norm scan; the seed orders the calls."""

    name = "census"
    ENUM_NS = (6, 7, 8)
    SCAN_NS = (3, 4, 5, 6, 7, 8)

    def __init__(self) -> None:
        self._min_norm: dict[int, float | None] = {}

    def ops(self, seed: int) -> list[Op]:
        ops = [Op(f"enumerate_l2_automorphisms n={n}",
                  lambda n=n: groupalg.enumerate_l2_automorphisms(n),
                  lambda scan, n=n: self._check_enum(n, scan))
               for n in self.ENUM_NS]
        ops += [Op(f"small_norm_scan n={n}",
                   lambda n=n: groupalg.small_norm_scan(n),
                   lambda rep, n=n: self._check_scan(n, rep))
                for n in self.SCAN_NS]
        random.Random(seed).shuffle(ops)
        return ops

    @staticmethod
    def _check_enum(n, scan) -> tuple[list[str], Any]:
        problems = []
        if scan.total != math.factorial(n):
            problems.append(f"total {scan.total} != {n}!")
        if scan.standard_count != n * oracles.euler_phi(n):
            problems.append(f"standard_count {scan.standard_count} != n*phi(n)")
        if scan.nonstandard_count != scan.total - scan.standard_count:
            problems.append("nonstandard_count is not total - standard_count")
        if not scan.max_hom_defect <= 1e-10:
            problems.append(f"homomorphism defect {scan.max_hom_defect:.3g}")
        if not scan.max_isometry_defect <= 1e-10:
            problems.append(f"isometry defect {scan.max_isometry_defect:.3g}")
        return problems, None

    @staticmethod
    def _check_scan(n, rep) -> tuple[list[str], Any]:
        if not abs(rep.max_standard_norm - 1.0) <= 1e-12:
            return [f"standard norm {rep.max_standard_norm!r} is not 1"], None
        return [], (n, rep.min_nonstandard_norm)

    def verify(self, kept: list) -> list[list[str]]:
        problems: list[list[str]] = [[] for _ in kept]
        for i, digest in enumerate(kept):
            if digest is None:
                continue
            n, got = digest
            if n not in self._min_norm:
                self._min_norm[n] = oracles.min_nonstandard_l1_norm(n)
            want = self._min_norm[n]
            if (got is None) != (want is None) or \
                    (want is not None and not abs(got - want) <= 1e-12):
                problems[i].append(f"n={n}: min nonstandard norm {got!r}, oracle {want!r}")
        return problems


WORKLOADS = {w.name: w for w in (Distortion, Columns, Oversize, Census)}
