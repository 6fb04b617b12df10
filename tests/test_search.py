"""The shared searches: golden-section maximum (scalar and lockstep) and
sign bisection."""

import ast
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spsqkd
from spsqkd import analysis, protocols
from spsqkd.search import _GOLDEN, bisect, golden_max, golden_max_lockstep


def repeat_rule_golden_max(fn, lo, hi, tol):
    """``golden_max`` with its earlier stop rule, kept as the reference:
    it stops at the first state (bracket and inner points) that comes back
    after a step that kept its bracket.  Off the stop it does the same
    float operations, so the two probe the same points until the first
    stall."""
    a, b = lo, hi
    c = b - (b - a) * _GOLDEN
    d = a + (b - a) * _GOLDEN
    fc, fd = fn(c), fn(d)
    kept = set()
    while (b - a) > tol:
        left = fc > fd
        if (d == b) if left else (c == a):
            if (a, b, c, d) in kept:
                break
            kept.add((a, b, c, d))
        if left:
            b, d, fd = d, c, fc
            c = b - (b - a) * _GOLDEN
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _GOLDEN
            fd = fn(d)
    return 0.5 * (a + b)


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


# unimodal objectives with the peak at different places, one flat (every
# comparison a tie) and one with a kink at its peak
OBJECTIVES = (lambda t: -(t - 0.3) ** 2, lambda t: t * math.exp(-4.0 * t),
              lambda t: 1.0, lambda t: -abs(t - 0.9871),
              lambda t: -(t - 1e-3) ** 2)


def probes_of(search, fns, lo, hi, tol):
    """(answers, probed points) of ``search`` (a ``golden_max``) on each
    of ``fns`` over [lo, hi]."""
    answers, probes = [], []
    for fn in fns:
        seen = []
        answers.append(search(lambda t: seen.append(t) or fn(t), lo, hi, tol))
        probes.append(seen)
    return answers, probes


def lockstep_probes_of(fns, lo, hi, tol):
    """``probes_of`` for ``golden_max_lockstep`` over all ``fns`` at once."""
    probes = [[] for _ in fns]

    def batch(idx, x):
        assert idx.size == x.size
        for k, t in zip(idx.tolist(), x.tolist()):
            probes[k].append(t)
        return np.array([fns[k](t) for k, t in zip(idx.tolist(),
                                                   x.tolist())])

    return golden_max_lockstep(batch, lo, hi, tol, len(fns)).tolist(), probes


class TestGoldenMaxLockstep:
    @pytest.mark.parametrize("lo, hi, tol", [(1e-3, 1.0 - 1e-3, 1e-4),
                                             (0.0, 1.0, 1e-9),
                                             (1e-6, 2.0, 1e-6),
                                             (1.0, 3.0, 2.0),
                                             (0.0, 1.0, 1e-300)])
    def test_probes_what_golden_max_probes(self, lo, hi, tol):
        assert (lockstep_probes_of(OBJECTIVES, lo, hi, tol)
                == probes_of(golden_max, OBJECTIVES, lo, hi, tol))

    def test_no_problems(self):
        def batch(idx, x):
            return x

        assert golden_max_lockstep(batch, 0.0, 1.0, 1e-3, 0).size == 0


@st.composite
def brackets(draw):
    """(lo, hi) with lo < hi over many scales: two floats anywhere, or a
    float and one from 1 to 2^60 of its ulps above it."""
    lo = draw(st.floats(-1e300, 1e300))
    if draw(st.booleans()):
        hi = draw(st.floats(-1e300, 1e300))
    else:
        hi = lo + math.ulp(lo) * draw(st.floats(1.0, 2.0 ** 60))
    lo, hi = min(lo, hi), max(lo, hi)
    return lo, math.nextafter(hi, math.inf) if hi == lo else hi


class TestStopRule:
    """A golden section stops at its first stall, which needs a bracket
    below about 1.31 ulp of its ends: from a tolerance of 2 ulp on it
    probes what the search that stopped at a repeated state probed."""

    @given(bracket=brackets(), k=st.floats(2.0, 2.0 ** 40))
    @settings(max_examples=200, deadline=None)
    def test_from_two_ulp_on_nothing_moves(self, bracket, k):
        lo, hi = bracket
        tol = k * math.ulp(max(abs(lo), abs(hi)))
        # each objective over [0, 1] read over [lo, hi]
        fns = [lambda t, f=f: f((t - lo) / (hi - lo)) for f in OBJECTIVES]
        want = probes_of(repeat_rule_golden_max, fns, lo, hi, tol)
        assert probes_of(golden_max, fns, lo, hi, tol) == want
        assert lockstep_probes_of(fns, lo, hi, tol) == want

    def test_no_probe_after_the_first_stall(self):
        # at 1e-300 the bracket around 0.3 shrinks to a float or two; the
        # repeat rule went round the stall once more, two probes on
        fn = OBJECTIVES[0]
        (_,), (probes,) = probes_of(golden_max, [fn], 0.0, 1.0, 1e-300)
        (_,), (before,) = probes_of(repeat_rule_golden_max, [fn], 0.0, 1.0,
                                    1e-300)
        assert (len(probes), len(before)) == (79, 81)
        assert probes == before[:79]
        assert lockstep_probes_of([fn], 0.0, 1.0, 1e-300)[1] == [probes]

    def test_the_package_searches_lie_where_nothing_moved(self):
        # (lo, hi, tol) of each golden section the package runs: the
        # laser's mu (scalar and lockstep), the herald's t and the source
        # fit's log-drive, whose bracket lies within its grid
        searches = [(protocols._MU_LO, protocols._MU_HI, protocols._MU_TOL),
                    (1e-3, 1.0 - 1e-3, analysis.BS_TRANSMISSION_TOL),
                    (math.log(1e-6), math.log(1e6), 1e-10)]
        for lo, hi, tol in searches:
            assert tol >= 2.0 * math.ulp(max(abs(lo), abs(hi)))
        # a new call site is one this list does not yet cover
        package = Path(spsqkd.__file__).resolve().parent
        sites = Counter(
            path.stem for path in package.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("golden_max", "golden_max_lockstep"))
        assert sites == {"protocols": 2, "analysis": 1, "photon_source": 1}


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
