"""Weight functions on Z and on finite groups.

A weight is a strictly positive function with value 1 at the identity.
Built-in families on Z (all symmetric, nondecreasing in |n|):

* ``constant``    -- 1 everywhere
* ``polynomial``  -- max(1, |n|^a), a >= 0
* ``subexp``      -- exp(|n|^g), 0 < g < 1
* ``exppoly``     -- a^|n| * (1 + n^2), a > 1
* ``tabulated``   -- explicit positive values on a finite index window
                     or on a finite group

Only ``constant`` and ``subexp`` are exactly submultiplicative; the
``polynomial`` and ``exppoly`` families satisfy the inequality up to the
factors 2^a and 2 respectively (worst pair (1, 1)), which is what
``check_submultiplicative`` reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DomainError, ParameterError, RangeError
from .groupalg import builtin_group

OVERFLOW_LIMIT = 1e300
SUBMULT_REL_TOL = 1e-12  # relative excess the submultiplicativity verdict allows
_PRODUCT_LIMIT = 1e306  # w(x) w(y) cap: 1e6 * OVERFLOW_LIMIT, well below the float maximum

CONSTANT = "constant"
POLYNOMIAL = "polynomial"
SUBEXP = "subexp"
EXPPOLY = "exppoly"
TABULATED = "tabulated"

_FAMILIES = (CONSTANT, POLYNOMIAL, SUBEXP, EXPPOLY, TABULATED)


@dataclass(frozen=True)
class Weight:
    """A weight function; build via the module-level constructors."""

    family: str
    param: float | None = None
    table: tuple[float, ...] | None = None
    lo: int = 0                 # first index of a tabulated window on Z
    group: Any = None           # FiniteGroup instance for group-domain weights

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ParameterError(f"unknown weight family {self.family!r}")

    # -- evaluation ----------------------------------------------------

    @property
    def on_group(self) -> bool:
        return self.group is not None

    def eval(self, x: int) -> float:
        """Weight value at a single point (group element index on groups)."""
        return float(self.eval_array(np.asarray([x]))[0])

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs)
        if self.group is not None:
            order = self.group.order
            if np.any((xs < 0) | (xs >= order)):
                raise DomainError(f"element index outside group of order {order}")
            if self.family == CONSTANT:
                return np.ones(xs.shape, dtype=float)
            vals = np.asarray(self.table, dtype=float)
            return vals[xs]
        if self.family == TABULATED:
            vals = np.asarray(self.table, dtype=float)
            idx = xs - self.lo
            if np.any((idx < 0) | (idx >= len(vals))):
                bad = int(xs.flat[np.argmax((idx < 0) | (idx >= len(vals)))])
                raise DomainError(f"index {bad} outside tabulated window")
            return vals[idx]
        n = np.abs(xs.astype(float))
        if self.family == CONSTANT:
            return np.ones(xs.shape, dtype=float)
        # overflow deliberately propagates as inf; callers guard against
        # values beyond OVERFLOW_LIMIT with check_range
        with np.errstate(over="ignore"):
            if self.family == POLYNOMIAL:
                return np.maximum(1.0, n ** self.param)
            if self.family == SUBEXP:
                return np.exp(n ** self.param)
            return self.param ** n * (1.0 + n * n)  # exppoly: a^|n| (1+n^2)


def check_range(values: np.ndarray, idx: np.ndarray, where: str) -> np.ndarray:
    """``values``, or RangeError when a weight value is not finite or exceeds OVERFLOW_LIMIT.

    ``idx`` holds the index of each value, for the message.
    """
    bad = ~np.isfinite(values) | (values > OVERFLOW_LIMIT)
    if np.any(bad):
        raise RangeError(f"weight overflow {where} at index {int(np.ravel(idx)[np.argmax(bad)])}")
    return values


def constant(group: Any = None) -> Weight:
    return Weight(CONSTANT, group=group)


def polynomial(a: float) -> Weight:
    if not a >= 0:
        raise ParameterError(f"polynomial weight needs a >= 0, got {a}")
    return Weight(POLYNOMIAL, param=float(a))


def subexp(gamma: float) -> Weight:
    if not 0.0 < gamma < 1.0:
        raise ParameterError(f"subexp weight needs 0 < gamma < 1, got {gamma}")
    return Weight(SUBEXP, param=float(gamma))


def exppoly(a: float) -> Weight:
    if not a > 1.0:
        raise ParameterError(f"exppoly weight needs a > 1, got {a}")
    return Weight(EXPPOLY, param=float(a))


def tabulated(values, group: Any = None, lo: int = 0) -> Weight:
    vals = tuple(float(v) for v in values)
    if any(not v > 0 for v in vals):
        raise ParameterError("tabulated weight values must be strictly positive")
    if group is not None:
        if len(vals) != group.order:
            raise ParameterError(
                f"need {group.order} values for group {group.name}, got {len(vals)}"
            )
        if abs(vals[group.identity] - 1.0) > 1e-12:
            raise ParameterError("weight at the group identity must equal 1")
        return Weight(TABULATED, table=vals, group=group)
    if not (lo <= 0 <= lo + len(vals) - 1):
        raise ParameterError("tabulated window on Z must contain index 0")
    if abs(vals[-lo] - 1.0) > 1e-12:
        raise ParameterError("weight at index 0 must equal 1")
    return Weight(TABULATED, table=vals, lo=int(lo))


# the keys each family reads besides "family" and "domain"; "lo" is optional
_DESCRIPTOR_KEYS = {CONSTANT: (), POLYNOMIAL: ("a",), SUBEXP: ("gamma",),
                    EXPPOLY: ("a",), TABULATED: ("values", "lo")}


def from_descriptor(d: dict) -> Weight:
    """Build a weight from a JSON descriptor {family, params, domain}.

    ``domain`` is ``"integers"`` (the default) or ``{"group": name}`` with
    a built-in group name; only constant and tabulated weights live on a
    group.  Descriptors come from outside the program, so a key the
    family does not read, or a value of the wrong JSON type, raises
    :class:`ParameterError` rather than being dropped or coerced.
    """
    if not isinstance(d, dict):
        raise ParameterError(f"a weight descriptor is a JSON object, got {d!r}")
    family = d.get("family")
    if not isinstance(family, str) or family not in _DESCRIPTOR_KEYS:
        raise ParameterError(f"unknown weight family {family!r}")
    domain = d.get("domain", "integers")
    keys = {"family", "domain", *_DESCRIPTOR_KEYS[family]}
    group = None
    if isinstance(domain, dict) and set(domain) == {"group"}:
        if family not in (CONSTANT, TABULATED):
            raise ParameterError(f"{family} weights live on the integers, not on a group")
        group = builtin_group(domain["group"])
        keys.discard("lo")
    elif domain != "integers":
        raise ParameterError(f'domain must be "integers" or {{"group": name}}, got {domain!r}')
    unread = sorted(set(d) - keys)
    if unread:
        raise ParameterError(f"{family} descriptor has keys it does not read: {unread}")
    missing = [k for k in _DESCRIPTOR_KEYS[family] if k != "lo" and k not in d]
    if missing:
        raise ParameterError(f"{family} descriptor lacks {missing}")
    if family == CONSTANT:
        return constant(group=group)
    if family == POLYNOMIAL:
        return polynomial(_checked(d["a"], (int, float), "a must be a number"))
    if family == SUBEXP:
        return subexp(_checked(d["gamma"], (int, float), "gamma must be a number"))
    if family == EXPPOLY:
        return exppoly(_checked(d["a"], (int, float), "a must be a number"))
    values = [_checked(v, (int, float), "values must be numbers")
              for v in _checked(d["values"], list, "values must be a list")]
    return tabulated(values, group=group,
                     lo=_checked(d.get("lo", 0), int, "lo must be an integer"))


def _checked(x, kinds, what: str):
    """``x`` when it is an instance of ``kinds`` other than a bool, else ParameterError."""
    if isinstance(x, bool) or not isinstance(x, kinds):
        raise ParameterError(f"{what}, got {x!r}")
    return x


# ---------------------------------------------------------------------
# submultiplicativity check
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class SubmultReport:
    """Result of an exhaustive submultiplicativity scan.

    ``max_excess`` is max of w(xy) - w(x)w(y); ``max_ratio`` is max of
    w(xy) / (w(x)w(y)), the weak-submultiplicativity constant on the
    window.  The verdict uses the relative tolerance ``SUBMULT_REL_TOL``
    so that families with exact integer arithmetic are judged exactly.
    """

    max_excess: float
    max_ratio: float
    argmax: tuple[int, int]  # pair attaining max_ratio
    submultiplicative: bool


def check_submultiplicative(w: Weight, window: int | None = None) -> SubmultReport:
    """Scan all pairs in the window (all group pairs on a finite group)."""
    if w.group is not None:
        G = w.group
        xs = np.arange(G.order)
        vals = w.eval_array(xs)
        prods = G.table  # (x, y) -> xy
        lhs = vals[prods]
    else:
        if window is None or window < 1:
            raise ParameterError("an integer window >= 1 is required on Z")
        xs = np.arange(-window, window + 1)
        vals = w.eval_array(xs)
        prods = xs[:, None] + xs[None, :]
        lhs = w.eval_array(prods)
    # lhs holds every value read: w(x) = w(x * identity)
    check_range(lhs, prods, "on the product window")
    # w(x) w(y) can overflow although both factors are at most OVERFLOW_LIMIT,
    # so it is formed only up to _PRODUCT_LIMIT and capped there.  A capped
    # pair holds, as w(xy) <= OVERFLOW_LIMIT, and attains neither maximum:
    # its ratio is below 1e-6, while the identity (w = 1) gives ratio 1.
    logs = np.log(vals)
    fits = logs[:, None] + logs[None, :] <= math.log(_PRODUCT_LIMIT)
    rhs = np.multiply(vals[:, None], vals[None, :], out=np.full(lhs.shape, _PRODUCT_LIMIT),
                      where=fits)
    excess = lhs - rhs
    ratio = lhs / rhs
    i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
    rel = (lhs - rhs) / np.maximum(1.0, rhs)
    ok = bool(np.max(rel) <= SUBMULT_REL_TOL)
    return SubmultReport(
        max_excess=float(np.max(excess)),
        max_ratio=float(ratio[i, j]),
        argmax=(int(xs[i]), int(xs[j])),
        submultiplicative=ok,
    )


# ---------------------------------------------------------------------
# reciprocal power sums and the algebra constant
# ---------------------------------------------------------------------


def recip_power_sum(w: Weight, q: float, upto: int = 4096) -> tuple[float, float]:
    """Return (partial, tail) with sum_{j>=1} w(j)^-q <= partial + tail.

    ``partial`` is the exact sum over 1..upto; ``tail`` is a closed-form
    overestimate of the remainder (inf when the series diverges).
    Only defined for the symmetric built-in families on Z.
    """
    if w.group is not None or w.family == TABULATED:
        raise ParameterError("reciprocal power sums need a built-in family on Z")
    js = np.arange(1, upto + 1)
    terms = w.eval_array(js) ** (-q)
    partial = float(np.sum(terms))
    B = float(upto)
    if w.family == CONSTANT:
        tail = math.inf
    elif w.family == POLYNOMIAL:
        s = w.param * q
        tail = B ** (1.0 - s) / (s - 1.0) if s > 1.0 else math.inf
    elif w.family == SUBEXP:
        # j^g >= (B^g + (j-B)^g)/2 for j > B, so with c = q/2 the remainder
        # is at most exp(-c B^g) sum_{i>=1} exp(-c i^g); the summand falls in
        # i, so that sum is at most int_0^inf exp(-c t^g) dt = Gamma(1+1/g) c^(-1/g).
        g, c = w.param, q / 2.0
        log_tail = math.lgamma(1.0 + 1.0 / g) - math.log(c) / g - c * B ** g
        tail = math.exp(log_tail) if log_tail < math.log(np.finfo(float).max) else math.inf
    else:  # exppoly
        a = w.param
        geo = a ** (-q * (B + 1.0)) / (1.0 - a ** (-q))
        tail = (1.0 + (B + 1.0) ** 2) ** (-q) * geo
    return partial, tail


def geometric_tail(w: Weight, x: float, K: int) -> float:
    """An upper bound of sum_{k>K} w(k) x^k for 0 < x < 1 and K >= 0; inf when none is found.

    For the built-in families on Z the ratio w(k+1)/w(k) does not grow
    for k >= 1, so the terms beyond K fall at least as fast as a geometric
    series of ratio q = x w(K+2)/w(K+1), and the sum is at most
    w(K+1) x^(K+1) / (1 - q) when q < 1.
    """
    if w.group is not None or w.family == TABULATED:
        raise ParameterError("geometric tails need a built-in family on Z")
    w1, w2 = w.eval(K + 1), w.eval(K + 2)
    q = x * w2 / w1
    if not q < 1.0:  # also an overflowing weight, where q is inf or nan
        return math.inf
    # in logarithms, so that x^(K+1) cannot underflow beside a large w(K+1)
    return math.exp(math.log(w1) + (K + 1) * math.log(x)) / (1.0 - q)


@dataclass(frozen=True)
class AlgebraConstantReport:
    """Best constant C with (w^-q * w^-q)(n) <= C w(n)^-q on the window."""

    constant: float
    argmax_n: int
    q: float
    tail_bound: float


def algebra_constant(w: Weight, p: float, window: int) -> AlgebraConstantReport:
    """Window estimate of the convolution-algebra constant for exponent p.

    The reported ``tail_bound`` overestimates what indices outside the
    window could add to any ratio (4 * sum_{j>=1} w(j)^-q for the
    monotone built-in families; 0 on finite groups).
    """
    if not p > 1.0:
        raise ParameterError(f"the algebra constant needs p > 1, got {p}")
    q = p / (p - 1.0)
    if w.group is not None:
        G = w.group
        vals = _recip_powers(w, np.arange(G.order), q)
        inv = G.inverses
        # (u * u)(x) = sum_y u(y) u(y^-1 x)
        conv = np.array([
            np.sum(vals * vals[G.table[inv, x]]) for x in range(G.order)
        ])
        ratios = conv / vals
        n_star = int(np.argmax(ratios))
        return AlgebraConstantReport(float(ratios[n_star]), n_star, q, 0.0)
    if window < 1:
        raise ParameterError("window must be >= 1")
    xs = np.arange(-window, window + 1)
    u = _recip_powers(w, xs, q)
    full = np.convolve(u, u)  # index n runs over [-2*window, 2*window]
    center = full[window: 3 * window + 1]  # restrict to |n| <= window
    ratios = center / u
    k = int(np.argmax(ratios))
    if w.family == TABULATED:
        tail = math.nan  # finite window; no family tail formula
    else:
        partial, t = recip_power_sum(w, q, upto=max(window, 256))
        tail = 4.0 * (partial + t)
    return AlgebraConstantReport(float(ratios[k]), int(xs[k]), q, tail)


def _recip_powers(w: Weight, xs: np.ndarray, q: float) -> np.ndarray:
    """w(x)^-q on ``xs``; RangeError where w overflows or the power underflows to 0."""
    u = check_range(w.eval_array(xs), xs, "on the window") ** (-q)
    if np.any(u == 0.0):
        raise RangeError(f"w^-q underflows to 0 at index {int(xs[np.argmax(u == 0.0)])}")
    return u
