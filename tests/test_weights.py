"""Weight families: evaluation, submultiplicativity, algebra constants."""

import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convalg import weights as wt
from convalg.errors import ParameterError, RangeError, SizeError
from convalg import groupalg as ga

EXACT = 1e-12
PI4_45 = np.pi ** 4 / 45.0


# ---------------------------------------------------------------- families


def test_polynomial_values():
    w = wt.polynomial(2.0)
    assert w.eval(0) == 1.0
    assert w.eval(1) == 1.0
    assert w.eval(-1) == 1.0
    assert w.eval(3) == 9.0
    assert w.eval(-7) == 49.0


def test_polynomial_zero_exponent_is_constant():
    w = wt.polynomial(0.0)
    xs = np.arange(-50, 51)
    np.testing.assert_array_equal(w.eval_array(xs), np.ones(101))


def test_subexp_values():
    w = wt.subexp(0.5)
    assert w.eval(0) == 1.0
    assert abs(w.eval(4) - np.e ** 2) < EXACT * np.e ** 2
    assert w.eval(9) == pytest.approx(np.exp(3.0), rel=EXACT)
    assert w.eval(-9) == w.eval(9)


def test_exppoly_values():
    w = wt.exppoly(2.0)
    assert w.eval(0) == 1.0
    assert w.eval(3) == 8.0 * 10.0
    assert w.eval(-3) == 80.0


def test_constant_weight():
    w = wt.constant()
    assert w.eval(123456) == 1.0
    assert w.eval(-1) == 1.0


def test_parameter_validation():
    with pytest.raises(ParameterError):
        wt.polynomial(-0.5)
    with pytest.raises(ParameterError):
        wt.subexp(0.0)
    with pytest.raises(ParameterError):
        wt.subexp(1.0)
    with pytest.raises(ParameterError):
        wt.exppoly(1.0)
    with pytest.raises(ParameterError):
        wt.exppoly(0.5)


def test_tabulated_validation():
    G = ga.cyclic(3)
    w = wt.tabulated(np.array([1.0, 2.0, 2.0]), group=G)
    assert w.eval(1) == 2.0
    with pytest.raises(ParameterError):
        wt.tabulated(np.array([1.0, -1.0, 2.0]), group=G)
    with pytest.raises(ParameterError):
        wt.tabulated(np.array([2.0, 1.0, 1.0]), group=G)  # w(e) != 1


@given(st.integers(-1000, 1000))
def test_eval_array_matches_eval(n):
    w = wt.subexp(0.7)
    assert w.eval_array(np.array([n]))[0] == pytest.approx(w.eval(n), rel=EXACT)


def test_exppoly_overflow_is_inf():
    w = wt.exppoly(10.0)
    assert np.isinf(w.eval_array(np.array([400]))[0])


# ------------------------------------------------- submultiplicativity scan


def test_constant_is_exactly_submultiplicative():
    rep = wt.check_submultiplicative(wt.constant(), window=50)
    assert rep.submultiplicative
    assert rep.max_excess <= 0.0
    assert rep.max_ratio == 1.0


@given(st.floats(0.1, 0.9))
@settings(max_examples=25, deadline=None)
def test_subexp_is_exactly_submultiplicative(gamma):
    # |m+n|^g <= |m|^g + |n|^g for 0 < g < 1, so no tolerance is needed
    rep = wt.check_submultiplicative(wt.subexp(gamma), window=60)
    assert rep.submultiplicative
    assert rep.max_excess <= 0.0


def test_polynomial_fails_submultiplicativity_at_unit_pair():
    # w(2) = 2^a exceeds w(1)^2 = 1: the scan must report it honestly
    rep = wt.check_submultiplicative(wt.polynomial(2.0), window=50)
    assert not rep.submultiplicative
    assert rep.max_ratio == pytest.approx(4.0, rel=EXACT)
    assert abs(rep.argmax[0]) == 1 and abs(rep.argmax[1]) == 1


def test_polynomial_excess_is_reported_at_its_own_pair():
    # the ratio peaks at 4 on (-1, -1), where the excess is only w(-2) - w(-1)^2 = 3;
    # the excess peaks at 201 = w(101) - w(1) w(100), on a pair such as (-1, -100)
    w = wt.polynomial(2.0)
    rep = wt.check_submultiplicative(w, window=100)
    x, y = rep.argmax_excess
    assert rep.max_excess == 201.0 == w.eval(x + y) - w.eval(x) * w.eval(y)
    assert sorted(map(abs, (x, y))) == [1, 100] and x * y > 0
    assert rep.argmax == (-1, -1)


def test_exppoly_is_weakly_submultiplicative_with_constant_two():
    # a^{|m+n|} factor is exact; (1+(m+n)^2) <= 2(1+m^2)(1+n^2)
    rep = wt.check_submultiplicative(wt.exppoly(2.0), window=50)
    assert not rep.submultiplicative
    assert rep.max_ratio <= 2.0 + EXACT
    assert rep.max_ratio == pytest.approx(1.25, rel=EXACT)  # attained at (1,1)


def test_group_weight_scan_uses_group_table():
    G = ga.cyclic(4)
    w = wt.tabulated(np.array([1.0, 3.0, 5.0, 3.0]), group=G)
    rep = wt.check_submultiplicative(w)
    assert rep.submultiplicative  # 5 <= 3*3, 3 <= 3*5, 1 <= 3*3 ...


def test_window_required_on_integers():
    with pytest.raises(ParameterError):
        wt.check_submultiplicative(wt.polynomial(2.0))


def test_window_cap_refuses_before_any_weight_is_read(monkeypatch):
    monkeypatch.setattr(wt, "MAX_WINDOW_PAIRS", 25)  # windows up to 2: 5^2 pairs
    w = wt.polynomial(2.0)
    assert wt.check_submultiplicative(w, window=2).max_ratio == 4.0
    assert wt.algebra_constant(w, 2.0, 2).constant > 1.0

    def no_eval(*args):
        raise AssertionError("a weight was evaluated")
    monkeypatch.setattr(wt.Weight, "eval_array", no_eval)
    with pytest.raises(SizeError, match="above the cap of 25"):
        wt.check_submultiplicative(w, window=3)
    with pytest.raises(SizeError, match="above the cap of 25"):
        wt.algebra_constant(w, 2.0, 3)


# -------------------------------------------------- reciprocal power sums


def test_recip_power_sum_polynomial_matches_zeta4():
    # sum_{j >= 1} max(1,|j|^2)^{-2} = zeta(4) = pi^4/90
    zeta4 = PI4_45 / 2.0
    partial, tail = wt.recip_power_sum(wt.polynomial(2.0), 2.0, upto=4096)
    assert partial <= zeta4 <= partial + tail
    assert partial + tail == pytest.approx(zeta4, rel=1e-9)


def test_recip_power_sum_constant_diverges():
    partial, tail = wt.recip_power_sum(wt.constant(), 2.0, upto=64)
    assert np.isinf(tail)


def test_recip_power_sum_exppoly_geometric_tail():
    partial, tail = wt.recip_power_sum(wt.exppoly(2.0), 1.0, upto=40)
    brute = sum(1.0 / (2.0 ** n * (1 + n * n)) for n in range(1, 400))
    # the containment is exact in real arithmetic; allow summation round-off
    eps = 16 * np.finfo(float).eps * brute
    assert partial - eps <= brute <= partial + tail + eps


# the original case first; the grid holds it too, so drop the repeat
SUBEXP_TAIL_CASES = list(dict.fromkeys([(0.5, 2.0, 50), *itertools.product(
    (0.3, 0.5, 0.9), (1.5, 2.0, 11.0), (50, 256))]))


@pytest.mark.parametrize("g, q, upto", SUBEXP_TAIL_CASES)
def test_recip_power_sum_subexp_tail_bounds_remainder(g, q, upto):
    w = wt.subexp(g)
    partial, tail = wt.recip_power_sum(w, q, upto=upto)
    terms = w.eval_array(np.arange(1, 10 ** 6 + 1)) ** (-q)
    # the same terms summed the same way: partial is exact, the rest is brute force
    assert partial == np.sum(terms[:upto])
    brute = partial + np.sum(terms[upto:])
    assert partial <= brute <= partial + tail


def test_recip_power_sum_subexp_tail_is_inf_where_the_bound_overflows():
    # Gamma(1 + 1/0.005) = 200! overflows a float
    partial, tail = wt.recip_power_sum(wt.subexp(0.005), 2.0, upto=256)
    assert np.isfinite(partial) and tail == np.inf


# ------------------------------------------------------- algebra constant


@pytest.mark.parametrize("w", [wt.constant(), wt.polynomial(2.0), wt.subexp(0.5)],
                         ids=["constant", "polynomial", "subexp"])
def test_geometric_tail_covers_the_summed_tail(w):
    # the terms beyond k = 400 are below 1e-100, so the bound must hold this sum up to rounding,
    # and it is within 1 % of it
    ks = np.arange(41, 400)
    summed = float(np.sum(w.eval_array(ks) * 0.5 ** ks))
    bound = math.exp(wt.geometric_tail(w, 0.5, 40))
    assert summed <= bound * (1.0 + 1e-14) and bound <= 1.01 * summed


def test_geometric_tail_in_logarithms_survives_the_underflow():
    # under the constant weight the bound is the exact sum 0.01^401 / 0.99, which underflows
    log_bound = wt.geometric_tail(wt.constant(), 0.01, 400)
    assert log_bound == pytest.approx(401 * math.log(0.01) - math.log(0.99), rel=1e-14)
    assert math.exp(log_bound) == 0.0


def test_algebra_constant_polynomial_frozen():
    rep = wt.algebra_constant(wt.polynomial(2.0), 2.0, 100)
    assert rep.q == 2.0
    assert rep.constant == pytest.approx(18.403633603327, rel=1e-9)
    assert abs(rep.argmax_n) == 2
    # window-stable: doubling the window does not move the constant
    rep2 = wt.algebra_constant(wt.polynomial(2.0), 2.0, 200)
    assert rep2.constant == pytest.approx(rep.constant, rel=1e-9)


def test_algebra_constant_unweighted_grows_linearly():
    # without a weight the convolution inequality has no finite constant
    c20 = wt.algebra_constant(wt.constant(), 2.0, 20)
    c40 = wt.algebra_constant(wt.constant(), 2.0, 40)
    assert c20.constant == pytest.approx(41.0, rel=EXACT)
    assert c40.constant == pytest.approx(81.0, rel=EXACT)
    assert np.isinf(c20.tail_bound)


def test_algebra_constant_requires_p_above_one():
    with pytest.raises(ParameterError):
        wt.algebra_constant(wt.polynomial(2.0), 1.0, 50)
    with pytest.raises(ParameterError):  # q = p / (p - 1) would be inf / inf = nan
        wt.algebra_constant(wt.polynomial(2.0), float("inf"), 50)


OVERFLOWING = [wt.exppoly(1e10),                # a^|n| overflows on the window
               wt.polynomial(np.inf),            # JSON reads 1e400 as inf
               wt.tabulated([1.0, np.inf, np.inf], group=ga.cyclic(3))]


@pytest.mark.parametrize("w", OVERFLOWING)
def test_submultiplicativity_scan_refuses_overflow(w):
    with pytest.raises(RangeError, match="weight overflow"):
        wt.check_submultiplicative(w, window=None if w.on_group else 100)


def test_submultiplicativity_scan_does_not_overflow_the_product():
    # w(100) w(100) = 1e400 overflows although w(100) = 1e200 is in range
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        rep = wt.check_submultiplicative(wt.polynomial(100.0), window=100)
    assert not rep.submultiplicative
    assert rep.max_ratio == 2.0 ** 100 and rep.argmax == (-1, -1)
    assert rep.max_excess == 1.704813829421526e+200


@pytest.mark.parametrize("w, p", [(w, 2.0) for w in OVERFLOWING] + [
    (wt.subexp(0.0005), 1.001)])                 # w^-q underflows to 0
def test_algebra_constant_refuses_values_out_of_range(w, p):
    with pytest.raises(RangeError):
        wt.algebra_constant(w, p, 100)


def test_algebra_constant_on_group_has_no_tail():
    G = ga.cyclic(5)
    w = wt.tabulated(np.array([1.0, 2.0, 4.0, 4.0, 2.0]), group=G)
    rep = wt.algebra_constant(w, 2.0, 0)
    assert rep.tail_bound == 0.0
    assert rep.constant > 0.0


# ------------------------------------------------------------- descriptors


# each line of README's "Weight descriptors" block, with the weight it builds
README_DESCRIPTORS = [
    ('{"family": "constant"}', wt.constant()),
    ('{"family": "polynomial", "a": 2.0}', wt.polynomial(2.0)),
    ('{"family": "subexp", "gamma": 0.5}', wt.subexp(0.5)),
    ('{"family": "exppoly", "a": 2.0}', wt.exppoly(2.0)),
    ('{"family": "tabulated", "values": [1.0, 2.0, 2.0], "domain": {"group": "Z3"}}',
     wt.tabulated([1.0, 2.0, 2.0], group=ga.cyclic(3))),
]


def test_readme_lists_these_descriptors():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Weight descriptors", 1)[1]
    block = block.split("```json\n", 1)[1].split("```", 1)[0]
    assert block.splitlines() == [line for line, _ in README_DESCRIPTORS]


def _assert_descriptor_builds(line, w):
    back = wt.from_descriptor(json.loads(line))
    assert back.family == w.family
    if w.on_group:
        assert back.group.name == w.group.name
        xs = np.arange(w.group.order)
    else:
        assert not back.on_group
        xs = np.arange(-20, 21)
    np.testing.assert_allclose(back.eval_array(xs), w.eval_array(xs), rtol=EXACT)


# the README's descriptor line for each family on Z builds that weight
@pytest.mark.parametrize("line, w", README_DESCRIPTORS[:4],
                         ids=["w0", "w1", "w2", "w3"])
def test_descriptor_round_trip(line, w):
    _assert_descriptor_builds(line, w)


# the README's Z3 descriptor builds a weight on Z3, not on Z
def test_descriptor_round_trip_tabulated_group():
    _assert_descriptor_builds(*README_DESCRIPTORS[4])


@pytest.mark.parametrize("d", [
    # the README's old group form: the top-level "group" was ignored, so it
    # built a weight on Z
    {"family": "tabulated", "values": [1.0, 2.0, 2.0], "lo": 0, "group": "Z3"},
    {"family": "polynomial", "a": 2.0, "gamma": 0.5},
    {"family": "constant", "a": 2.0},
    {"family": "tabulated", "values": [1.0, 2.0, 2.0], "lo": 0, "domain": {"group": "Z3"}},
    {"family": "polynomial", "a": 2.0, "domain": {"group": "Z3"}},
    {"family": "constant", "domain": {"group": "Z3", "order": 3}},
    {"family": "constant", "domain": "reals"},
    {"family": "subexp"},
    ["constant"],
    # malformed values from outside the program
    {"family": "constant", "domain": {"group": "Zx"}},
    {"family": "constant", "domain": {"group": 5}},
    {"family": "polynomial", "a": "2"},
    {"family": "subexp", "gamma": True},
    {"family": "tabulated", "values": "ab"},
    {"family": "tabulated", "values": [1.0, "2"]},
    {"family": "tabulated", "values": [2.0, 1.0], "lo": "x"},
    {"family": "tabulated", "values": [2.0, 1.0], "lo": -0.5},
])
def test_descriptor_rejects_unread_and_missing_keys(d):
    with pytest.raises(ParameterError):
        wt.from_descriptor(d)


def test_descriptor_rejects_unknown_family():
    with pytest.raises(ParameterError):
        wt.from_descriptor({"family": "gaussian", "a": 2.0})
