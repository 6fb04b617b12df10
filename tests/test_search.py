"""The shared searches: golden-section maximum (scalar and lockstep) and
sign bisection."""

import math

import numpy as np
import pytest

from spsqkd.search import bisect, golden_max, golden_max_lockstep


class TestGoldenMax:
    @pytest.mark.parametrize("peak", [0.0, 0.3, 0.5, 0.97])
    def test_finds_the_peak_of_a_parabola(self, peak):
        x = golden_max(lambda t: -(t - peak) ** 2, 0.0, 1.0, 1e-9)
        assert x == pytest.approx(peak, abs=1e-9)

    def test_finds_an_asymmetric_peak(self):
        # x exp(-x) peaks at 1, with unequal slopes on either side; its top
        # is flat to rounding within about sqrt(eps) of the peak
        x = golden_max(lambda t: t * math.exp(-t), 1e-6, 2.0, 1e-10)
        assert x == pytest.approx(1.0, abs=1e-7)

    def test_wide_tolerance_returns_the_midpoint_after_two_probes(self):
        probes = []

        def fn(t):
            probes.append(t)
            return -t

        assert golden_max(fn, 1.0, 3.0, 2.0) == 2.0
        assert len(probes) == 2

    def test_each_step_shrinks_the_bracket_by_the_golden_ratio(self):
        probes = []

        def fn(t):
            probes.append(t)
            return -abs(t - 0.2)

        tol = 1e-3
        x = golden_max(fn, 0.0, 1.0, tol)
        shrink = (math.sqrt(5.0) - 1.0) / 2.0
        steps = math.ceil(math.log(tol) / math.log(shrink))
        assert len(probes) == 2 + steps
        assert abs(x - 0.2) <= tol / 2


class TestGoldenMaxLockstep:
    # unimodal objectives with the peak at different places, one flat
    # (every comparison a tie) and one with a kink at its peak
    OBJECTIVES = (lambda t: -(t - 0.3) ** 2, lambda t: t * math.exp(-4.0 * t),
                  lambda t: 1.0, lambda t: -abs(t - 0.9871),
                  lambda t: -(t - 1e-3) ** 2)

    @pytest.mark.parametrize("lo, hi, tol", [(1e-3, 1.0 - 1e-3, 1e-4),
                                             (0.0, 1.0, 1e-9),
                                             (1e-6, 2.0, 1e-6),
                                             (1.0, 3.0, 2.0),
                                             (0.0, 1.0, 1e-300)])
    def test_probes_what_golden_max_probes(self, lo, hi, tol):
        fns = self.OBJECTIVES
        want_probes, want = [], []
        for fn in fns:
            seen = []
            want.append(golden_max(lambda t: seen.append(t) or fn(t),
                                   lo, hi, tol))
            want_probes.append(seen)
        got_probes = [[] for _ in fns]

        def batch(idx, x):
            assert idx.size == x.size
            for k, t in zip(idx.tolist(), x.tolist()):
                got_probes[k].append(t)
            return np.array([fns[k](t) for k, t in zip(idx.tolist(),
                                                       x.tolist())])

        got = golden_max_lockstep(batch, lo, hi, tol, len(fns))
        assert got.tolist() == want
        assert got_probes == want_probes

    def test_no_problems(self):
        def batch(idx, x):
            return x

        assert golden_max_lockstep(batch, 0.0, 1.0, 1e-3, 0).size == 0


class TestBisect:
    def test_finds_a_square_root(self):
        x = bisect(lambda t: t * t < 2.0, 1.0, 2.0, 1e-12)
        assert x == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_returns_the_midpoint_of_the_last_bracket(self):
        # [1, 2] -> [1, 1.5] -> [1.25, 1.5], which is no wider than 0.25
        probes = []

        def below(t):
            probes.append(t)
            return t * t < 2.0

        assert bisect(below, 1.0, 2.0, 0.25) == 1.375
        assert probes == [1.5, 1.25]

    def test_bracket_within_tolerance_is_not_probed(self):
        def below(t):
            raise AssertionError("probed")

        assert bisect(below, 4.0, 5.0, 1.0) == 4.5

    def test_predicate_true_everywhere_walks_to_the_upper_end(self):
        x = bisect(lambda t: True, 0.0, 1.0, 1e-6)
        assert 1.0 - 1e-6 < x < 1.0



def refuse(fn):
    def call(*args):
        raise AssertionError("a rejected input reached the function")

    return call


def capped(fn, calls=10_000):
    # fails the test where a search that never ends would hang it
    seen = []

    def call(*args):
        seen.append(None)
        if len(seen) > calls:
            raise AssertionError(f"more than {calls} calls")
        return fn(*args)

    return call


# each search of a problem whose answer is 0.3, its function passed
# through ``wrap``, over [lo, hi] (by default [0, 1])
SEARCHES = {
    "golden_max": lambda wrap, tol, lo=0.0, hi=1.0: golden_max(
        wrap(lambda t: -(t - 0.3) ** 2), lo, hi, tol),
    "golden_max_lockstep": lambda wrap, tol, lo=0.0, hi=1.0:
        golden_max_lockstep(wrap(lambda idx, x: -(x - 0.3) ** 2), lo, hi,
                            tol, 2)[1],
    "bisect": lambda wrap, tol, lo=0.0, hi=1.0: bisect(
        wrap(lambda t: t < 0.3), lo, hi, tol)}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("search", SEARCHES)
def test_a_tolerance_not_finite_and_positive_is_rejected_first(search, tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        SEARCHES[search](refuse, tol)


@pytest.mark.parametrize("tol", [1e-17, 1e-300])
@pytest.mark.parametrize("search", SEARCHES)
def test_a_tolerance_below_the_float_spacing_still_ends(search, tol):
    # 0.3's float spacing is 5.6e-17: the bracket stops where no float is
    # left to shrink it by, one spacing from the answer
    assert abs(SEARCHES[search](capped, tol) - 0.3) <= math.ulp(0.3)


@pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf),
                                    (1.0, 0.0), (math.nan, 1.0),
                                    (0.0, math.nan)],
                         ids=["-inf", "inf", "reversed", "nan-lo", "nan-hi"])
@pytest.mark.parametrize("search", SEARCHES)
def test_a_bracket_not_finite_and_ordered_is_rejected_first(search, lo, hi):
    with pytest.raises(ValueError, match="bounds must be finite with lo <= hi"):
        SEARCHES[search](refuse, 1e-3, lo, hi)


@pytest.mark.parametrize("search", SEARCHES)
def test_a_one_point_bracket_is_its_answer(search):
    assert SEARCHES[search](capped, 1e-3, 0.3, 0.3) == 0.3
