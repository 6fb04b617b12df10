"""Derived sweeps: maximal loss, gain maps, thresholds, optima."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spsqkd import analysis, protocols
from spsqkd.analysis import (
    GammaMap,
    dtb_rate_array_fn,
    dtb_rate_fn,
    gamma,
    gamma_map_dtb,
    gamma_vs_efficiency,
    hp_rate_array_fn,
    hp_rate_fn,
    hp_threshold,
    mcl,
    optimal_bs_transmission,
    skr_curve,
    wcs_curve_fn,
    wcs_mcl,
    wcs_rate_fn,
    wcs_tagged_rate_fn,
)
from spsqkd.channel_model import ChannelParams
from spsqkd.cli import load_channel
from spsqkd.errors import FitError, NoKeyError
from spsqkd.photon_source import (PhotonDistribution, apply_collection,
                                  apply_collection_array)
from spsqkd.search import bisect, golden_max

PERFECT = PhotonDistribution(0.0, 1.0, 0.0)
ETA_C_RANGE = r"eta_c must lie in \[0, 1\]"


def no_search(*args, **kwargs):
    raise AssertionError("a settings check must come before any search")


def ramp(cutoff_db: float):
    return lambda loss: max(0.0, 1e-3 * (1.0 - loss / cutoff_db))


class TestMcl:
    def test_linear_ramp_cutoff_is_found(self):
        assert mcl(ramp(33.7)) == pytest.approx(33.7, abs=0.01)

    def test_bracketing_contract(self):
        fn = ramp(33.7)
        m = mcl(fn)
        assert fn(m - 0.02) > 0.0
        assert fn(m + 0.02) == 0.0

    def test_tolerance_is_honored(self):
        assert mcl(ramp(12.34), tol_db=1e-6) == pytest.approx(12.34, abs=1e-6)

    def test_cutoffs_beyond_the_first_bracket_expand(self):
        assert mcl(ramp(140.0)) == pytest.approx(140.0, abs=0.01)

    def test_dead_protocol_raises(self):
        with pytest.raises(NoKeyError):
            mcl(lambda loss: 0.0)

    def test_unbounded_rate_raises(self):
        with pytest.raises(FitError):
            mcl(lambda loss: 1.0)

    def test_agrees_with_a_dense_scan(self, channel, sps1):
        fn = dtb_rate_fn(sps1, channel)
        grid = np.arange(41.0, 43.0, 1e-3)
        alive = grid[[fn(v) > 0.0 for v in grid]]
        assert mcl(fn) == pytest.approx(alive[-1], abs=0.02)


class TestMclTolerance:
    """The search takes a tolerance that is finite and at least 25/2^59 dB,
    the finest grid whose cap index fits int64, and rejects any other
    before the first rate call."""

    # before: -1 and -inf never returned, 0 and 1e-300 were a bare
    # OverflowError, 25/2^60 numpy's cast TypeError, and NaN or inf
    # searched a 25 dB grid
    @pytest.mark.parametrize("tol_db", [
        math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 25.0 / 2**60],
        ids=["nan", "inf", "-inf", "zero", "negative", "1e-300", "25/2^60"])
    def test_rejected_before_any_rate_call(self, tol_db):
        with pytest.raises(ValueError, match="tol_db must be finite"):
            mcl(no_search, tol_db=tol_db)
        with pytest.raises(ValueError, match="tol_db must be finite"):
            analysis._mcl_bracket(no_search, 3, tol_db)

    @pytest.mark.parametrize("tol_db, want", [
        (25.0 / 2**59, [29.999999999999996, 28.999999999999996,
                        27.999999999999996]),
        (analysis.MCL_TOL_DB, [30.0018310546875, 29.0008544921875,
                               27.9998779296875])],
        ids=["finest", "default"])
    def test_accepted_ends_search_as_before(self, tol_db, want):
        assert mcl(lambda loss: 30.0 - loss, tol_db=tol_db) == want[0]
        assert analysis._mcl_bracket(lambda idx, loss: 30.0 - loss - idx, 3,
                                     tol_db)[0].tolist() == want


def _mcl_or_no_key(search) -> float:
    """``search()``, with no key at 0 dB read as -inf (the least loss)."""
    try:
        return search()
    except NoKeyError:
        return -math.inf


class TestMclMonotoneInTheReceiver:
    """A better receiver never tolerates less loss."""

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=0.2),
           st.lists(st.floats(min_value=1e-2, max_value=1.0),
                    min_size=2, max_size=2),
           st.lists(st.floats(min_value=-9.0, max_value=-3.0),
                    min_size=2, max_size=2),
           st.floats(min_value=0.0, max_value=0.1))
    @settings(max_examples=50, deadline=None)
    def test_mcl_rises_with_eta_bob_and_falls_with_p_dc(self, a, b, c, etas,
                                                        log_p_dcs, e_d):
        p1, p2 = a, (1.0 - a) * b
        p3 = min(c, max(1.0 - p1 - p2, 0.0))
        d = PhotonDistribution(max(1.0 - p1 - p2 - p3, 0.0), p1, p2, p3)
        eta_lo, eta_hi = sorted(etas)
        p_dc_lo, p_dc_hi = sorted(10.0 ** u for u in log_p_dcs)

        def mcls(eta_bob, p_dc):
            ch = ChannelParams(loss_db=0.0, eta_bob=eta_bob, p_dc=p_dc, e_d=e_d)
            return (_mcl_or_no_key(lambda: mcl(dtb_rate_fn(d, ch))),
                    _mcl_or_no_key(lambda: wcs_mcl(ch)))

        base = mcls(eta_lo, p_dc_lo)
        for name, m0, m1, m2 in zip(("dtb", "wcs"), base,
                                    mcls(eta_hi, p_dc_lo),
                                    mcls(eta_lo, p_dc_hi)):
            assert m0 <= m1, (name, "eta_bob")
            assert m0 >= m2, (name, "p_dc")


class TestGoldenMaximalLosses:
    """High-precision pins of the five headline loss limits."""

    def test_weak_coherent_decoy_baseline(self, channel):
        assert wcs_mcl(channel) == pytest.approx(39.1571, abs=0.02)

    def test_decoy_state_on_the_brighter_source(self, channel, sps1):
        assert mcl(dtb_rate_fn(sps1, channel)) == pytest.approx(41.8732,
                                                               abs=0.02)

    def test_purification_on_the_pair_heavy_source(self, channel, sps2):
        assert mcl(hp_rate_fn(sps2, channel)) == pytest.approx(38.2416,
                                                              abs=0.02)

    def test_ideal_single_photon_reference(self, channel):
        assert mcl(dtb_rate_fn(PERFECT, channel)) == pytest.approx(45.3094,
                                                                   abs=0.02)

    def test_tagged_laser_reference(self, channel):
        assert mcl(wcs_tagged_rate_fn(channel)) == pytest.approx(38.0707,
                                                                 abs=0.02)


class TestLaserProbeCounts:
    """Deterministic costs of the laser MCL on the bundled channel: one mu
    search per optimized rate, 34 probes of the laser's sums per search (33
    by the golden section to 1e-6 on (0, 2], one at the optimum), one
    settings check per rate, and no ``yields`` call: Y_1 and e_1 come from
    the sums.  The tagged laser searches from zero loss, 15 rates.
    ``wcs_mcl`` takes 4 Newton steps on the closed-form laser for its hint,
    each an optimized rate and a fixed-mu rate for the slope (one probe and
    a settings check, no search), and then 2 rates of the series."""

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"searches": 0, "probes": 0, "closed_form_probes": 0,
                "checks": 0, "yields": 0}
        golden_max = protocols.golden_max
        check = protocols._check_settings
        yields = protocols.yields

        def search(*args):
            seen["searches"] += 1
            return golden_max(*args)

        def counted(sums_of, key):
            def series(channel):
                sums, y1, e1 = sums_of(channel)

                def probe(*args):
                    seen[key] += 1
                    return sums(*args)
                return probe, y1, e1
            return series

        def settings_check(*args):
            seen["checks"] += 1
            return check(*args)

        def counted_yields(*args, **kwargs):
            seen["yields"] += 1
            return yields(*args, **kwargs)

        monkeypatch.setattr(protocols, "golden_max", search)
        monkeypatch.setattr(protocols, "wcs_series",
                            counted(protocols.wcs_series, "probes"))
        monkeypatch.setattr(analysis, "_wcs_closed_form",
                            counted(analysis._wcs_closed_form,
                                    "closed_form_probes"))
        monkeypatch.setattr(protocols, "_check_settings", settings_check)
        monkeypatch.setattr(protocols, "yields", counted_yields)
        return seen

    @pytest.mark.parametrize(
        "search, searches, probes, closed_form_probes, checks", [
            (lambda ch: wcs_mcl(ch), 6, 68, 140, 10),
            (lambda ch: mcl(wcs_tagged_rate_fn(ch)), 15, 510, 0, 15)],
        ids=["decoy", "tagged"])
    def test_searches_and_probes(self, counts, search, searches, probes,
                                 closed_form_probes, checks):
        search(load_channel("channel"))
        assert counts == {"searches": searches, "probes": probes,
                          "closed_form_probes": closed_form_probes,
                          "checks": checks, "yields": 0}


class TestGammaAndCurve:
    def test_gain_is_a_difference_of_loss_limits(self):
        assert gamma(41.87, 39.16) == pytest.approx(2.71)
        assert gamma(10.0, 10.0) == 0.0

    def test_curve_samples_the_grid_and_carries_the_limit(self, channel):
        fn = wcs_rate_fn(channel)
        curve = skr_curve(fn, [0.0, 10.0, 20.0])
        assert [p[0] for p in curve.points] == [0.0, 10.0, 20.0]
        assert curve.points[0][1] == fn(0.0)
        assert curve.mcl_db == pytest.approx(wcs_mcl(channel), abs=0.02)

    def test_unsorted_grid_rejected(self, channel):
        with pytest.raises(ValueError):
            skr_curve(wcs_rate_fn(channel), [0.0, 10.0, 10.0])

    def test_without_key_each_rate_is_computed_once(self):
        seen = []

        def dead(loss: float) -> float:
            seen.append(loss)
            return 0.0

        curve = skr_curve(dead, [0.0, 1.0, 2.0])
        assert math.isnan(curve.mcl_db)
        assert curve.points == ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
        assert seen == [0.0, 1.0, 2.0, 0.0]  # the grid, then mcl's check

    def test_the_lockstep_laser_curve_equals_the_scalar_one(self, channel):
        losses = [0.0, 5.0, 20.0, 39.0, 39.5, 60.0]
        fn = wcs_rate_fn(channel, q_sift=0.4)
        curve = skr_curve(fn, losses, wcs_curve_fn(channel, q_sift=0.4))
        assert curve == skr_curve(fn, losses)
        assert curve.points[-1][1] == 0.0 < curve.points[-3][1]


def scalar_mcl(d: PhotonDistribution, channel: ChannelParams) -> float:
    """The per-point reference: NaN where mcl finds no key."""
    try:
        return mcl(dtb_rate_fn(d, channel))
    except NoKeyError:
        return math.nan


def lockstep_mcl(ds, channel: ChannelParams) -> np.ndarray:
    probs = np.array([d.as_tuple() for d in ds]).T
    return analysis._mcl_bracket(dtb_rate_array_fn(probs, channel), len(ds),
                                 analysis.MCL_TOL_DB)[0]


def same_floats(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


class TestMclLockstep:
    @given(st.floats(min_value=1e-3, max_value=1.0),
           st.floats(min_value=0.0, max_value=1e-3),
           st.floats(min_value=0.0, max_value=0.2),
           st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                              st.floats(min_value=0.0, max_value=1.0)),
                    min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_scalar_search_bit_for_bit(self, eta_bob, p_dc, e_d,
                                                  points):
        ch = ChannelParams(loss_db=0.0, eta_bob=eta_bob, p_dc=p_dc, e_d=e_d)
        ds = [PhotonDistribution(max(1.0 - a - (1.0 - a) * b, 0.0), a,
                                 (1.0 - a) * b) for a, b in points]
        ref = []
        for d in ds:
            try:
                ref.append(scalar_mcl(d, ch))
            except FitError:
                with pytest.raises(FitError):
                    lockstep_mcl(ds, ch)
                return
        assert same_floats(lockstep_mcl(ds, ch), ref)

    def test_generic_rate_functions(self):
        cutoffs = np.array([33.7, 140.0, 12.34, 0.004])

        def fn(idx, loss):
            return np.maximum(0.0, 1e-3 * (1.0 - loss / cutoffs[idx]))

        got = analysis._mcl_bracket(fn, cutoffs.size, analysis.MCL_TOL_DB)[0]
        assert got.tolist() == [mcl(ramp(c)) for c in cutoffs]

    def test_nan_rates_are_searched_as_mcl_searches_them(self):
        def fn(idx, loss):
            return np.where(idx == 0, math.nan, -1.0)

        got = analysis._mcl_bracket(fn, 2, analysis.MCL_TOL_DB)[0]
        assert math.isnan(got[1])
        assert got[0] == mcl(lambda loss: math.nan)

    def test_no_problems(self):
        assert analysis._mcl_bracket(lambda idx, loss: loss, 0,
                                     analysis.MCL_TOL_DB)[0].size == 0

    def test_cap_raises_where_the_scalar_search_does(self, sps1):
        # without dark counts or misalignment the rate never reaches zero
        clean = ChannelParams(loss_db=0.0, eta_bob=1.0, p_dc=0.0, e_d=0.0)
        with pytest.raises(FitError):
            mcl(dtb_rate_fn(sps1, clean))
        with pytest.raises(FitError):
            lockstep_mcl([sps1], clean)
        # one capped problem among finite ones fails the whole search
        with pytest.raises(FitError):
            analysis._mcl_bracket(lambda idx, loss: np.where(
                idx == 1, 1.0, np.maximum(0.0, 1.0 - loss / 30.0)), 3,
                analysis.MCL_TOL_DB)


def loop_mcl(skr_fn, tol_db: float = 0.01) -> float:
    """The MCL search as a plain scalar loop, the reference the shared
    lockstep search is held to: the zero-loss check, 25 dB brackets
    expanded up to the 200 dB cap, then ``bisect``."""
    if skr_fn(0.0) <= 0.0:
        raise NoKeyError("key rate is non-positive at zero channel loss")
    lo, hi = 0.0, 25.0
    while skr_fn(hi) > 0.0:
        lo, hi = hi, hi + 25.0
        if hi > 200.0:
            raise FitError("key rate still positive at 200.0 dB")
    return bisect(lambda loss_db: skr_fn(loss_db) > 0.0, lo, hi, tol_db)


def logged(skr_fn, log: list):
    """``skr_fn`` that appends the ``float.hex`` of each loss it is asked."""
    def rate(loss_db: float) -> float:
        log.append(float.hex(loss_db))
        return skr_fn(loss_db)
    return rate


RATES = st.sampled_from([1e-3, 1e-3, 0.0, -1.0, math.nan])


@st.composite
def sign_patterns(draw):
    """A rate over loss, piecewise constant between breakpoints, with its
    own value at exactly 0 dB: key below a cut-off that may lie past the
    cap, or any mix of key, no key and NaN."""
    if draw(st.booleans()):
        breaks = [draw(st.floats(min_value=0.0, max_value=260.0))]
        values = [1e-3, draw(st.sampled_from([0.0, -1.0, math.nan]))]
    else:
        breaks = sorted(draw(st.lists(st.floats(min_value=0.0,
                                                max_value=230.0),
                                      max_size=8)))
        values = draw(st.lists(RATES, min_size=len(breaks) + 1,
                               max_size=len(breaks) + 1))
    at_zero = draw(st.one_of(st.none(), RATES))

    def rate(loss_db: float) -> float:
        if loss_db == 0.0 and at_zero is not None:
            return at_zero
        return values[int(np.searchsorted(breaks, loss_db, side="right"))]
    return rate


def probes_and_result(search, skr_fn, tol_db: float):
    """The losses ``search`` asks ``skr_fn`` for, and its result's hex
    (or the error it raises)."""
    log = []
    try:
        result = float.hex(search(logged(skr_fn, log), tol_db))
    except (NoKeyError, FitError) as err:
        result = type(err)
    return log, result


class TestOneSearch:
    """``mcl`` and a lockstep ``_mcl_bracket`` are one search: each problem
    probes the losses the scalar loop probes, in the same order, and gets
    the same result, whatever the signs of the rate along the loss axis."""

    @given(st.lists(sign_patterns(), min_size=1, max_size=4),
           # 25/1024 dB: a tolerance that one bracket width equals
           st.sampled_from([0.01, 1e-5, 0.3, 25.0 / 1024]))
    @settings(max_examples=300, deadline=None)
    def test_probes_and_results_equal_the_scalar_loop(self, rates, tol_db):
        want = [probes_and_result(loop_mcl, r, tol_db) for r in rates]
        assert [probes_and_result(mcl, r, tol_db) for r in rates] == want
        logs = [[] for _ in rates]
        fns = [logged(r, log) for r, log in zip(rates, logs)]

        def rate_fn(idx, loss):
            return np.array([fns[i](x) for i, x in zip(idx.tolist(),
                                                       loss.tolist())])

        if any(result is FitError for _, result in want):
            with pytest.raises(FitError):
                analysis._mcl_bracket(rate_fn, len(rates), tol_db)
            return
        got = analysis._mcl_bracket(rate_fn, len(rates), tol_db)[0]
        assert logs == [log for log, _ in want]
        assert [NoKeyError if math.isnan(m) else float.hex(m)
                for m in got.tolist()] == [result for _, result in want]

    # the bundled receiver, then receivers from the benchmark's grids
    @pytest.mark.parametrize("eta_bob, p_dc, loop_rates", [
        (0.045, 2e-7, 15), (0.02, 2e-7, 15), (0.099, 2e-7, 15),
        (0.038, 1e-8, 16), (0.038, 1e-5, 14)],
        ids=["bundled", "eta_bob-0.02", "eta_bob-0.099", "p_dc-1e-8",
             "p_dc-1e-5"])
    def test_the_laser_costs_two_series_rates(
            self, monkeypatch, eta_bob, p_dc, loop_rates):
        # the closed-form laser's cut-off is the series': its grid loss has
        # key and the next has none, where the loop takes about fifteen
        channel = ChannelParams(0.0, eta_bob, p_dc, 0.033)
        log = []
        factory = analysis.wcs_rate_fn
        monkeypatch.setattr(analysis, "wcs_rate_fn",
                            lambda ch, **kw: logged(factory(ch, **kw), log))
        got = float.hex(wcs_mcl(channel))
        want_log, want = probes_and_result(loop_mcl, factory(channel), 0.01)
        assert len(want_log) == loop_rates and got == want
        step = grid_step(0.01)
        floor = float.fromhex(got) - 0.5 * step
        assert log == [float.hex(floor), float.hex(floor + step)]


NO_KEY = st.sampled_from([0.0, -1.0, math.nan])


@st.composite
def hinted_problems(draw):
    """(cut-off, rate above it, rate at exactly 0 dB, hint, whether the hint
    is snapped to the grid) of a rate whose key holds below the cut-off and
    nowhere above it, so its sign never increases along the loss axis: key
    past the cap, no key at zero, a NaN rate at zero (key there), or a
    cut-off anywhere between."""
    cutoff = draw(st.one_of(st.just(0.0),
                            st.floats(min_value=0.0, max_value=260.0)))
    # only a rate without key above zero may have key at zero alone
    at_zero = draw(st.sampled_from([None, math.nan] + (
        [1e-3, 0.0, -1.0] if cutoff == 0.0 else [])))
    hint = draw(st.one_of(
        st.just(math.nan), st.just(0.0),
        st.floats(min_value=-2.0, max_value=2.0).map(
            lambda d: max(cutoff + d, 0.0)),
        st.floats(min_value=0.0, max_value=200.0),
        st.floats(min_value=200.0, max_value=1e6, exclude_min=True)))
    return cutoff, draw(NO_KEY), at_zero, hint, draw(st.booleans())


def monotone_rate(cutoff: float, no_key: float, at_zero):
    def rate(loss_db: float) -> float:
        if loss_db == 0.0 and at_zero is not None:
            return at_zero
        return 1e-3 if loss_db < cutoff else no_key
    return rate


def grid_step(tol_db: float) -> float:
    """The step of the search's grid at ``tol_db``."""
    return analysis._mcl_bracket(lambda idx, loss: -np.ones(idx.size), 1,
                                 tol_db)[1]


class TestHintedSearch:
    """A hint moves only where ``_mcl_bracket`` starts: on a rate whose sign
    never increases along the loss axis, a hinted search finds the MCL the
    search without hints finds, and fails where it fails, probing only
    grid losses between 0 and 200 dB."""

    @given(st.lists(hinted_problems(), min_size=1, max_size=4),
           st.sampled_from([0.01, 1e-5, 0.3, 25.0 / 1024, 40.0]))
    # gallops down to 0 dB and finds no key there
    @example([(0.0, 0.0, None, 37.5, False)], 0.01)
    # key past the cap, found by gallops up from on and above the cap
    @example([(230.0, math.nan, None, 150.0, True),
              (230.0, 0.0, None, 1e6, False)], 0.01)
    # clamped at the cap 5 steps above its last key: widened upwards, its
    # bracket would reach past 200 dB
    @example([(199.9, 0.0, None, 197.65625, True)], 0.3)
    # one problem without a hint beside one clamped at 0 and one at the cap
    @example([(30.0, 0.0, None, math.nan, False),
              (1e-3, 0.0, None, 0.0, True),
              (199.99, -1.0, None, 250.0, False)], 1e-5)
    @settings(max_examples=300, deadline=None)
    def test_a_hint_changes_no_floor_and_no_error(self, problems, tol_db):
        rates = [monotone_rate(*p[:3]) for p in problems]
        log = []

        def rate_fn(idx, loss):
            log.extend(loss.tolist())
            return np.array([rates[i](x) for i, x in zip(idx.tolist(),
                                                         loss.tolist())])

        def mcls(hint):
            try:
                got = analysis._mcl_bracket(rate_fn, len(rates), tol_db, hint)
            except FitError:
                return FitError
            return [float.hex(m) for m in got[0].tolist()]

        step = grid_step(tol_db)
        want = mcls(None)
        log.clear()
        hints = np.array([np.floor(h / step) * step if snap else h
                          for *_, h, snap in problems])
        assert mcls(hints) == want
        assert log and all(0.0 <= x <= 200.0 and (x / step).is_integer()
                           for x in log)

    @given(st.lists(st.tuples(hinted_problems(), st.booleans()), min_size=2,
                    max_size=4),
           st.sampled_from([0.01, 1e-5, 0.3, 25.0 / 1024]))
    # a problem without a hint climbing 25 dB at a time beside hinted ones
    # galloping down and up, one of them from the cap
    @example([((80.0, 0.0, None, 10.0, False), True),
              ((80.0, 0.0, None, 10.0, False), False),
              ((3.0, -1.0, None, 150.0, True), False),
              ((199.0, math.nan, None, 1e6, False), False)], 0.01)
    # no key at zero beside a hint below its cut-off
    @example([((0.0, 0.0, 0.0, 5.0, False), True),
              ((42.0, 0.0, math.nan, 41.0, True), False)], 0.3)
    @settings(max_examples=200, deadline=None)
    def test_cold_and_hinted_problems_probe_as_if_alone(self, problems,
                                                        tol_db):
        # cold and hinted problems share the probe rounds of one call; each
        # still probes the losses it probes alone, and a problem without a
        # hint those of the plain loop
        rates = [monotone_rate(*p[:3]) for p, _ in problems]
        step = grid_step(tol_db)
        hints = [math.nan if cold else np.floor(h / step) * step if snap
                 else h for (*_, h, snap), cold in problems]

        def search(ids):
            logs = {i: [] for i in ids}

            def rate_fn(idx, loss):
                for k, x in zip(idx.tolist(), loss.tolist()):
                    logs[ids[k]].append(float.hex(x))
                return np.array([rates[ids[k]](x) for k, x in
                                 zip(idx.tolist(), loss.tolist())])
            try:
                got = analysis._mcl_bracket(rate_fn, len(ids), tol_db,
                                            np.array([hints[i] for i in ids]))
            except FitError:
                return FitError, logs
            return [float.hex(m) for m in got[0].tolist()], logs

        alone = [search([i]) for i in range(len(rates))]
        for i, (_, logs) in enumerate(alone):
            if math.isnan(hints[i]):
                assert logs[i] == probes_and_result(loop_mcl, rates[i],
                                                    tol_db)[0]
        together, logs = search(list(range(len(rates))))
        if any(result is FitError for result, _ in alone):
            assert together is FitError
            return
        assert together == [result[0] for result, _ in alone]
        assert logs == {i: alone[i][1][i] for i in range(len(rates))}


class TestRateCallGrouping:
    """How ``_mcl_bracket`` groups problems into rate calls, the kernels'
    fixed cost: one call per probe round over the problems still probing,
    then one per bisection round over the brackets at least twice that
    round's half width, the widest first."""

    # the half-resolution lattice's 91 points, cold, then the other 234
    # from their neighbours' MCLs
    @pytest.mark.parametrize("eta_c, columns", [
        (1.0, [91, 48, 46] + [48] * 12
         + [234, 120, 108, 72, 52, 35, 28, 16, 16, 11, 2, 13, 13, 13, 15, 24,
            29, 29, 41, 48, 65, 85, 110]),
        (0.8, [91, 63, 62] + [63] * 12
         + [234, 171, 130, 80, 54, 35, 21, 13, 7, 3, 23, 23, 23, 23, 26, 30,
            36, 44, 58, 77, 103, 135])])
    def test_the_gamma_map_search(self, monkeypatch, channel, eta_c, columns):
        seen = []
        kernel = analysis.skr_dtb_array

        def counted(probs, *args, **kwargs):
            seen.append(probs.shape[1])
            return kernel(probs, *args, **kwargs)

        monkeypatch.setattr(analysis, "skr_dtb_array", counted)
        gamma_map_dtb(channel, eta_c=eta_c, n=25)
        assert seen == columns
        # one cold search of all 325 points took 15 calls over these
        assert sum(columns) < {1.0: 2673, 0.8: 3595}[eta_c]

    def test_a_hinted_search_of_mixed_widths(self):
        # the hinted problems gallop to brackets 32 to 16,384 steps wide and
        # the cold one climbs to a 25 dB (4,096-step) one, so the
        # bisection's prefix grows from 1 problem to 3, 4 and 5
        cutoff = np.array([10.3, 40.7, 120.1, 5.5, 199.0])
        seen = []

        def rate_fn(idx, loss):
            seen.append(idx.size)
            return cutoff[idx] - loss

        m, step = analysis._mcl_bracket(
            rate_fn, cutoff.size, 0.01,
            np.array([10.0, math.nan, 100.0, 50.0, 0.0]))
        assert seen == [5, 5, 5, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3, 2, 1, 1, 1, 1,
                        3, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5]
        # the highest grid loss below each cut-off, plus half a step
        assert m.tolist() == ((np.ceil(cutoff / step) - 1.0) * step
                              + 0.5 * step).tolist()


def outcome(search) -> str | tuple[type, str]:
    """``search()``'s hex, or the type and message of what it raises."""
    try:
        return float.hex(search())
    except (NoKeyError, FitError, ValueError) as err:
        return type(err), str(err)


class TestHintedLaser:
    """``wcs_mcl`` starts its search from the closed-form laser's cut-off,
    found by Newton's method in transmittance; the search from zero loss
    over the same series rate is the oracle for every result and every
    error, with or without dark counts and at an optimized or fixed mu."""

    @given(st.floats(min_value=1e-3, max_value=1.0),
           st.one_of(st.just(0.0), st.floats(min_value=-9.0, max_value=-2.0)
                     .map(lambda u: 10.0 ** u)),
           # the decoy laser keeps no key from about e_d 0.11 on
           st.floats(min_value=0.0, max_value=0.2),
           st.floats(min_value=1e-3, max_value=1.0),
           st.floats(min_value=1.0, max_value=2.0),
           st.one_of(st.none(), st.floats(min_value=0.0, max_value=2.0,
                                          exclude_min=True)))
    # the receivers of every way out of the Newton hint, below (the errors
    # have their own cases further down)
    @example(0.045, 2e-7, 0.033, 0.5, 1.22, None)
    @example(0.045, 2e-7, 0.15, 0.5, 1.22, None)
    @example(1e-3, 0.0, 0.01, 0.5, 1.0, 1e-300)
    @example(0.045, 0.0, 0.033, 0.5, 1.22, None)
    @example(0.045, 0.0, 0.033, 0.5, 1.22, 0.5)
    @example(0.25, 0.0, 0.033, 0.25, 1.7, 0.8)
    @settings(max_examples=150, deadline=None)
    def test_the_hint_changes_no_mcl(self, eta_bob, p_dc, e_d, q_sift, f_ec,
                                     mu):
        ch = ChannelParams(0.0, eta_bob, p_dc, e_d)
        kw = {"q_sift": q_sift, "f_ec": f_ec}
        if mu is not None:
            kw["mu"] = mu
        assert (outcome(lambda: wcs_mcl(ch, **kw))
                == outcome(lambda: mcl(wcs_rate_fn(ch, **kw))))

    @pytest.mark.parametrize("eta_bob, p_dc, e_d, kw, hint", [
        (0.045, 2e-7, 0.033, {}, 39.158),
        (0.045, 2e-7, 0.15, {}, math.nan),
        (1e-3, 0.0, 0.01, {"f_ec": 1.0, "mu": 1e-300}, math.nan),
        # the search clamps this hint and the next one to the 200 dB cap
        (0.045, 0.0, 0.033, {}, math.inf),
        (0.045, 1e-24, 0.033, {}, 211.648),
        (0.25, 0.0, 0.033, {"q_sift": 0.25, "f_ec": 1.7, "mu": 0.8}, 19.720)],
        ids=["converged", "no-key-at-zero", "flat-slope", "x-not-positive",
             "past-the-cap", "eight-steps"])
    def test_the_newton_hint(self, eta_bob, p_dc, e_d, kw, hint):
        # NaN leaves the search cold; a step to x <= 0 is inf, and one past
        # the cap is returned as it is (212.17 dB unstopped); the last case
        # stops after 8 steps, 0.3 dB short of its cut-off at 20.01 dB,
        # where this dark-free receiver's rate is nearly flat in x
        got = analysis._closed_form_cutoff(
            ChannelParams(0.0, eta_bob, p_dc, e_d), **kw)
        assert got == pytest.approx(hint, abs=1e-3, nan_ok=True)

    @pytest.mark.parametrize("p_dc, kw", [(0.0, {}), (0.0, {"mu": 0.5}),
                                          (1e-24, {})],
                             ids=["dark-free", "dark-free-mu", "p_dc-1e-24"])
    def test_key_at_the_cap_costs_one_series_rate(self, monkeypatch, p_dc,
                                                  kw):
        # the hint lies at or past the cap, so the search probes the cap
        # first and fails there, where the loop expands 25 dB at a time
        channel = ChannelParams(0.0, 0.045, p_dc, 0.033)
        log = []
        factory = analysis.wcs_rate_fn
        monkeypatch.setattr(analysis, "wcs_rate_fn",
                            lambda ch, **k: logged(factory(ch, **k), log))
        with pytest.raises(FitError):
            wcs_mcl(channel, **kw)
        want_log, want = probes_and_result(loop_mcl, factory(channel, **kw),
                                           0.01)
        assert len(want_log) == 9 and want is FitError
        assert log == [float.hex(200.0)]

    @pytest.mark.parametrize("ch, kw, error", [
        (ChannelParams(0.0, 0.045, 2e-7, 0.5), {}, NoKeyError),
        (ChannelParams(0.0, 1.0, 0.0, 0.0), {}, FitError),
        (ChannelParams(0.0, 0.045, 2e-7, 0.033), {"q_sift": 1.5}, ValueError),
        (ChannelParams(0.0, 0.045, 2e-7, 0.033), {"f_ec": 0.9}, ValueError),
        (ChannelParams(0.0, 0.045, 2e-7, 0.033), {"mu": 3.0}, ValueError)],
        ids=["no-key", "key-at-the-cap", "q_sift", "f_ec", "mu"])
    def test_errors_are_the_cold_search_errors(self, ch, kw, error):
        want = outcome(lambda: mcl(wcs_rate_fn(ch, **kw)))
        assert want[0] is error
        assert outcome(lambda: wcs_mcl(ch, **kw)) == want


def scalar_hp_mcl(d: PhotonDistribution, channel: ChannelParams,
                  tol_db: float = 0.01, **kwargs) -> float:
    """The per-point heralded reference: NaN where mcl finds no key."""
    try:
        return mcl(hp_rate_fn(d, channel, **kwargs), tol_db=tol_db)
    except NoKeyError:
        return math.nan


class TestHpLockstep:
    @given(st.floats(min_value=1e-3, max_value=1.0),
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-3)),
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.3)),
           st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e-2)),
           st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                              st.floats(min_value=0.0, max_value=1.0),
                              st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
                              st.floats(min_value=0.0, max_value=1.0)),
                    min_size=1, max_size=5),
           st.sampled_from([0.01, 1e-5]))
    @settings(max_examples=80, deadline=None)
    def test_equals_the_scalar_search_bit_for_bit(self, eta_bob, p_dc, e_d,
                                                  p_dc_alice, points, tol_db):
        # a dark-free channel without misalignment keeps its key past the
        # cap (FitError); a noisy herald or a pair-free source has none (NaN)
        ch = ChannelParams(loss_db=0.0, eta_bob=eta_bob, p_dc=p_dc, e_d=e_d)
        ds = [PhotonDistribution(max(1.0 - a - (1.0 - a) * b, 0.0), a,
                                 (1.0 - a) * b) for a, b, _, _ in points]
        t = [t for _, _, t, _ in points]
        eta_d = [e for _, _, _, e in points]
        probs = np.array([d.as_tuple() for d in ds]).T
        fn = hp_rate_array_fn(probs, ch, t=np.array(t), eta_d=np.array(eta_d),
                              p_dc_alice=p_dc_alice)
        ref = []
        for d, tk, ek in zip(ds, t, eta_d):
            try:
                ref.append(scalar_hp_mcl(d, ch, tol_db, t=tk, eta_d=ek,
                                         p_dc_alice=p_dc_alice))
            except FitError:
                with pytest.raises(FitError):
                    analysis._mcl_bracket(fn, len(ds), tol_db)
                return
        assert same_floats(analysis._mcl_bracket(fn, len(ds), tol_db)[0], ref)

    def test_a_capped_problem_fails_the_search(self, sps2):
        clean = ChannelParams(loss_db=0.0, eta_bob=1.0, p_dc=0.0, e_d=0.0)
        with pytest.raises(FitError):
            mcl(hp_rate_fn(sps2, clean, p_dc_alice=1e-7))
        probs = np.array([sps2.as_tuple()]).T
        with pytest.raises(FitError):
            analysis._mcl_bracket(
                hp_rate_array_fn(probs, clean, p_dc_alice=1e-7), 1,
                analysis.MCL_TOL_DB)


def loop_zero_contour(gmap: GammaMap) -> tuple[np.ndarray, np.ndarray]:
    """``GammaMap.zero_contour`` as a loop over columns, the reference its
    array form is held to: each column's first upward zero crossing
    between consecutive finite entries, linearly interpolated."""
    p2_out, p1_out = [], []
    for j, p2v in enumerate(gmap.p2):
        col = gmap.gamma_db[:, j]
        ok = np.isfinite(col)
        if ok.sum() < 2:
            continue
        idx = np.flatnonzero(ok)
        vals = col[idx]
        sign_change = np.flatnonzero((vals[:-1] < 0.0) & (vals[1:] >= 0.0))
        if sign_change.size == 0:
            continue
        k = sign_change[0]
        i0, i1 = idx[k], idx[k + 1]
        g0, g1 = col[i0], col[i1]
        frac = -g0 / (g1 - g0)
        p1_out.append(gmap.p1[i0] + frac * (gmap.p1[i1] - gmap.p1[i0]))
        p2_out.append(p2v)
    return np.asarray(p2_out), np.asarray(p1_out)


GAINS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
                  st.floats(min_value=-5.0, max_value=5.0))


@st.composite
def gain_maps(draw) -> GammaMap:
    """A map of 0-6 rows and 0-6 columns over sorted axes, with NaN gaps,
    +-inf and signed zeros among its gains."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    axis = lambda n: np.sort(np.array(draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n)),
        dtype=float))
    gains = draw(st.lists(GAINS, min_size=rows * cols, max_size=rows * cols))
    return GammaMap(p1=axis(rows), p2=axis(cols),
                    gamma_db=np.array(gains, dtype=float).reshape(rows, cols),
                    wcs_mcl_db=0.0)


def same_arrays(a, b) -> bool:
    return all(x.dtype == y.dtype and x.shape == y.shape
               and x.tobytes() == y.tobytes() for x, y in zip(a, b))


@pytest.fixture(scope="module")
def small_map(channel) -> GammaMap:
    return gamma_map_dtb(channel, n=25)


class TestGammaMap:
    def test_shape_and_axes(self, small_map):
        assert small_map.gamma_db.shape == (25, 25)
        assert small_map.p1[0] == 0.0 and small_map.p1[-1] == 1.0

    def test_unphysical_corner_is_nan(self, small_map):
        assert math.isnan(small_map.gamma_db[-1, -1])  # p1 = p2 = 1

    def test_gain_grows_with_single_photon_weight(self, small_map):
        for j in range(25):
            col = small_map.gamma_db[:, j]
            col = col[np.isfinite(col)]
            # bisection jitter allows tiny inversions, nothing beyond it
            assert all(b >= a - 0.025 for a, b in zip(col, col[1:]))

    def test_pure_single_photon_corner_is_the_best_cell(self, small_map):
        top = np.nanmax(small_map.gamma_db)
        assert small_map.gamma_db[-1, 0] >= top - 0.025

    def test_contour_points_bracket_zero(self, small_map, channel):
        p2c, p1c = small_map.zero_contour()
        assert p2c.size > 0
        assert np.all(np.diff(p2c) > 0)
        fn = lambda p1, p2: mcl(dtb_rate_fn(
            PhotonDistribution(max(1 - p1 - p2, 0.0), p1, p2), channel))
        for p1v, p2v in zip(p1c[:3], p2c[:3]):
            below = fn(max(p1v - 0.06, 0.0), p2v)
            above = fn(min(p1v + 0.06, 1.0 - p2v), p2v)
            assert below <= small_map.wcs_mcl_db + 0.03
            assert above >= small_map.wcs_mcl_db - 0.03

    @given(gain_maps())
    # +inf is no crossing, though it is >= 0
    @example(GammaMap(np.array([0.0, 0.5, 1.0]), np.array([0.5]),
                      np.array([[-1.0], [math.inf], [2.0]]), 0.0))
    # a NaN gap between a loss and a gain, and -0.0 as the gain
    @example(GammaMap(np.array([0.0, 0.5, 1.0]), np.array([0.25, 0.75]),
                      np.array([[-1.0, -2.0], [math.nan, math.nan],
                                [-0.0, 3.0]]), 0.0))
    # no rows, one row, no columns
    @example(GammaMap(np.zeros(0), np.array([0.1, 0.2]), np.zeros((0, 2)),
                      0.0))
    @example(GammaMap(np.array([0.3]), np.array([0.1, 0.2]),
                      np.array([[-1.0, 1.0]]), 0.0))
    @example(GammaMap(np.array([0.0, 1.0]), np.zeros(0), np.zeros((2, 0)),
                      0.0))
    @settings(max_examples=300, deadline=None)
    def test_contour_equals_the_column_loop(self, gmap):
        assert same_arrays(gmap.zero_contour(), loop_zero_contour(gmap))

    def test_contour_of_the_map_equals_the_column_loop(self, small_map):
        assert same_arrays(small_map.zero_contour(),
                           loop_zero_contour(small_map))

    def test_contour_fit_matches_the_published_texture(self, channel):
        fit_map = gamma_map_dtb(channel, n=40)
        slope, intercept = fit_map.fit_zero_contour()
        assert 1.05 < slope < 1.25
        assert 0.15 < intercept < 0.24

    def test_attached_baseline_is_the_wcs_limit(self, small_map, channel):
        assert small_map.wcs_mcl_db == pytest.approx(wcs_mcl(channel),
                                                     abs=1e-12)

    @pytest.mark.parametrize("eta_c", [1.0, 0.8])
    def test_equals_the_per_point_scalar_search(self, channel, eta_c):
        gmap = gamma_map_dtb(channel, eta_c=eta_c, n=25)
        baseline = wcs_mcl(channel)
        ref = np.full((25, 25), np.nan)
        for i, p1 in enumerate(gmap.p1):
            for j, p2 in enumerate(gmap.p2):
                if p1 + p2 > 1.0 + 1e-12:
                    continue
                d = PhotonDistribution(max(1.0 - p1 - p2, 0.0), p1, p2)
                if eta_c < 1.0:
                    d = apply_collection(d, eta_c)
                ref[i, j] = scalar_mcl(d, channel) - baseline
        assert gmap.wcs_mcl_db == baseline
        assert np.isnan(gmap.gamma_db).sum() > 25 * 24 // 2
        assert same_floats(gmap.gamma_db, ref)

    @pytest.mark.parametrize("kwargs", [
        {"n": 1}, {"n": 0}, {"n": -3}, {"eta_c": 1.5}, {"eta_c": -0.1},
        {"eta_c": math.nan}, {"n": 2.5}, {"n": 2.0}, {"n": math.nan}])
    def test_bad_grid_or_collection_rejected(self, monkeypatch, channel,
                                             kwargs):
        monkeypatch.setattr(analysis, "_mcl_bracket", no_search)
        message = ETA_C_RANGE if "eta_c" in kwargs else "n >= 2"
        with pytest.raises(ValueError, match=message):
            gamma_map_dtb(channel, **kwargs)

    def test_baseline_uses_the_given_f_ec(self, channel):
        assert (gamma_map_dtb(channel, n=8, f_ec=1.0).wcs_mcl_db
                == wcs_mcl(channel, f_ec=1.0))

    @given(st.floats(min_value=1e-3, max_value=1.0),
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-3)),
           st.floats(min_value=0.0, max_value=0.2),
           st.floats(min_value=0.5, max_value=1.0),
           st.integers(min_value=2, max_value=41))
    @example(0.045, 2e-7, 0.033, 1.0, 2)
    @example(0.045, 2e-7, 0.033, 0.8, 3)
    # the benchmark's variant 7 receiver and collection efficiency
    @example(0.038 + 0.002 * 7, 2e-7, 0.033, 0.8 + 0.002 * 7, 41)
    @settings(max_examples=60, deadline=None)
    def test_equals_one_cold_search_of_every_point(self, eta_bob, p_dc, e_d,
                                                   eta_c, n):
        # the map hints half its points from the other half's MCLs; a
        # hint moves no bit of any gain, nor any error
        ch = ChannelParams(loss_db=0.0, eta_bob=eta_bob, p_dc=p_dc, e_d=e_d)

        def cold() -> np.ndarray:
            baseline = wcs_mcl(ch)
            p1, p2 = np.meshgrid(np.linspace(0.0, 1.0, n),
                                 np.linspace(0.0, 1.0, n), indexing="ij")
            inside = p1 + p2 <= 1.0 + 1e-12
            p1, p2 = p1[inside], p2[inside]
            probs = np.stack([np.maximum(1.0 - p1 - p2, 0.0), p1, p2,
                              np.zeros_like(p1)])
            if eta_c < 1.0:
                probs = apply_collection_array(probs, eta_c)
            out = np.full((n, n), np.nan)
            out[inside] = analysis._mcl_bracket(
                dtb_rate_array_fn(probs, ch), p1.size,
                analysis.MCL_TOL_DB)[0] - baseline
            return out

        try:
            want = cold()
        except (FitError, NoKeyError) as err:
            with pytest.raises(type(err), match=re.escape(str(err))):
                gamma_map_dtb(ch, eta_c=eta_c, n=n)
            return
        assert same_floats(gamma_map_dtb(ch, eta_c=eta_c, n=n).gamma_db, want)

    def test_deterministic(self, channel):
        a = gamma_map_dtb(channel, n=8)
        b = gamma_map_dtb(channel, n=8)
        assert np.array_equal(a.gamma_db, b.gamma_db, equal_nan=True)


class TestHpThreshold:
    def test_reference_detector_efficiency(self, channel):
        assert hp_threshold(0.9, channel) == pytest.approx(0.411, abs=0.01)

    def test_ideal_detector(self, channel):
        assert hp_threshold(1.0, channel) == pytest.approx(0.370, abs=0.01)

    def test_threshold_scales_inversely_with_detector_efficiency(self,
                                                                 channel):
        ref = hp_threshold(1.0, channel)
        for eta_d in (0.5, 0.75, 0.9):
            thr = hp_threshold(eta_d, channel)
            assert thr * eta_d == pytest.approx(ref, rel=0.05)

    @pytest.mark.parametrize("eta_d, t, p_dc_alice", [
        (0.5, 0.5, None), (0.73, 0.5, None), (1.0, 0.5, None),
        (0.9, 0.3, 1e-5), (0.9, 0.62, 1e-4)])
    def test_equals_the_scalar_scan_and_bisection(self, channel, eta_d, t,
                                                  p_dc_alice):
        reference = mcl(wcs_tagged_rate_fn(channel))

        def excess(p2: float) -> float:
            m = scalar_hp_mcl(PhotonDistribution(1.0 - p2, 0.0, p2), channel,
                              t=t, eta_d=eta_d, p_dc_alice=p_dc_alice)
            return m - reference if not math.isnan(m) else -math.inf

        lo, hi = None, None
        for p2 in np.linspace(0.02, 1.0, 50):
            if excess(p2) >= 0.0:
                hi = p2
                break
            lo = p2
        want = hi if lo is None else bisect(
            lambda p2: not excess(p2) >= 0.0, lo, hi, 1e-4)
        # a cold call searches the reference, a warm one reuses it
        for hits in (0, 1):
            assert hp_threshold(eta_d, channel, t=t,
                                p_dc_alice=p_dc_alice) == want
            assert analysis._reference_loss.cache_info().hits == hits

    def test_first_scan_point_and_no_crossing(self, channel):
        # at high misalignment the tagged laser barely has key, so a
        # noise-free herald beats it at the first scan point; a herald that
        # mostly fires on dark counts never does
        noisy = ChannelParams(loss_db=0.0, eta_bob=0.045, p_dc=2e-7, e_d=0.105)
        assert hp_threshold(1.0, noisy, p_dc_alice=0.0) == 0.02
        with pytest.raises(NoKeyError, match="two-photon"):
            hp_threshold(0.01, channel, p_dc_alice=0.05)

    def test_detector_efficiency_domain(self, channel):
        with pytest.raises(ValueError):
            hp_threshold(0.0, channel)
        with pytest.raises(ValueError):
            hp_threshold(1.2, channel)

    @pytest.mark.parametrize("t", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_a_herald_transmission_outside_0_1_fails_before_any_search(
            self, monkeypatch, channel, t):
        monkeypatch.setattr(analysis, "_mcl_bracket", no_search)
        with pytest.raises(ValueError, match=r"t must lie in \(0, 1\)"):
            hp_threshold(0.9, channel, t=t)

    @pytest.mark.parametrize("p_dc_alice", [2.0, -0.1, math.nan])
    def test_a_herald_dark_rate_outside_0_1_fails_before_any_search(
            self, monkeypatch, channel, p_dc_alice):
        monkeypatch.setattr(analysis, "_mcl_bracket", no_search)
        with pytest.raises(ValueError, match=r"p_dc must lie in \[0, 1\]"):
            hp_threshold(0.9, channel, p_dc_alice=p_dc_alice)
        assert analysis._reference_loss.cache_info().currsize == 0

    def test_key_at_the_cap_fails_the_scan(self, monkeypatch):
        # a reference that dies at 30 dB against a clean channel, where the
        # purified rate keeps its key past 200 dB
        monkeypatch.setattr(analysis, "wcs_tagged_rate_fn",
                            lambda channel, **kw: ramp(30.0))
        clean = ChannelParams(loss_db=0.0, eta_bob=1.0, p_dc=0.0, e_d=0.0)
        with pytest.raises(FitError, match="200.0 dB"):
            hp_threshold(0.9, clean, p_dc_alice=1e-7)


class TestHpThresholdCounts:
    """What one threshold costs: one tagged-laser MCL (15 mu searches on the
    bundled channel), one scan array call plus one at the cap when some scan
    point has key, and the bisection's probes; the purified MCL is never
    searched.  The reference is searched once per receiver and ``f_ec``:
    later calls on the same pair search no laser at all."""

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"searches": 0, "mu_searches": 0, "skr_hp_array": 0,
                "skr_hp": 0}

        def counted(module, name, key):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                seen[key] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        # every MCL search, by mcl, in lockstep or by the reference memo
        counted(analysis, "_mcl_bracket", "searches")
        for name in ("skr_hp_array", "skr_hp"):
            counted(analysis, name, name)
        counted(protocols, "golden_max", "mu_searches")
        return seen

    def test_a_bisected_float_threshold(self, counts, channel):
        hp_threshold(0.9, channel)
        assert counts == {"searches": 1, "mu_searches": 15,
                          "skr_hp_array": 2, "skr_hp": 8}

    def test_a_threshold_at_the_first_scan_point(self, counts):
        noisy = ChannelParams(loss_db=0.0, eta_bob=0.045, p_dc=2e-7, e_d=0.105)
        assert hp_threshold(1.0, noisy, p_dc_alice=0.0) == 0.02
        # this laser has no key at 25 dB: one bracket fewer to expand
        assert counts == {"searches": 1, "mu_searches": 14,
                          "skr_hp_array": 2, "skr_hp": 0}

    @staticmethod
    def threshold(channel, eta_d=0.9, loss_db=0.0, e_d=None, **herald):
        ch = ChannelParams(loss_db, channel.eta_bob, channel.p_dc,
                           channel.e_d if e_d is None else e_d)
        return hp_threshold(eta_d, ch, **herald)

    @pytest.mark.parametrize("second", [
        {"loss_db": 12.0}, {"eta_d": 0.7}, {"t": 0.4}, {"p_dc_alice": 1e-4}])
    def test_the_same_receiver_and_f_ec_share_the_reference(self, counts,
                                                            channel, second):
        self.threshold(channel)
        assert counts["searches"] == 1 and counts["mu_searches"] == 15
        counts.update(dict.fromkeys(counts, 0))
        self.threshold(channel, **second)
        assert counts["searches"] == 0 and counts["mu_searches"] == 0
        assert counts["skr_hp_array"] == 2

    @pytest.mark.parametrize("second", [{"e_d": 0.02}, {"f_ec": 1.1}])
    def test_another_receiver_or_f_ec_searches_its_own(self, counts, channel,
                                                       second):
        self.threshold(channel)
        counts.update(dict.fromkeys(counts, 0))
        self.threshold(channel, **second)
        assert counts["searches"] == 1 and counts["mu_searches"] == 15
        counts.update(dict.fromkeys(counts, 0))
        self.threshold(channel)
        assert counts["searches"] == 0 and counts["mu_searches"] == 0

    def test_a_reference_without_key_fails_every_call(self, counts, channel):
        # at e_d = 1/2 the laser has no key at zero loss
        for calls in (1, 2):
            with pytest.raises(NoKeyError, match="zero channel loss"):
                self.threshold(channel, e_d=0.5)
            assert (counts["searches"] == calls
                    and counts["mu_searches"] == calls)
        assert analysis._reference_loss.cache_info().currsize == 0


class TestOptimalBsTransmission:
    def test_noiseless_herald_sits_at_the_symmetric_point(self, channel):
        assert optimal_bs_transmission(0.3, 0.0, 0.9, channel) == 0.5
        got = optimal_bs_transmission([0.1, 0.3], 0.0, 0.9, channel)
        assert got.tolist() == [0.5, 0.5]

    def test_noisy_herald_shifts_the_optimum_above_one_half(self, channel):
        t_small = optimal_bs_transmission(0.05, 0.02, 0.9, channel, p1=0.458)
        t_large = optimal_bs_transmission(0.4, 0.02, 0.9, channel, p1=0.458)
        assert t_small > 0.52
        assert t_large == pytest.approx(0.5, abs=0.01)
        assert t_small > t_large

    def test_reported_optimum_is_an_interior_maximum(self, channel):
        t_star = optimal_bs_transmission(0.1, 5e-3, 0.9, channel, p1=0.458)
        d = PhotonDistribution(1.0 - 0.458 - 0.1, 0.458, 0.1)

        def m(t: float) -> float:
            return mcl(hp_rate_fn(d, channel, t=t, eta_d=0.9,
                                  p_dc_alice=5e-3), tol_db=1e-5)

        assert m(t_star) >= m(t_star - 0.05) - 1e-4
        assert m(t_star) >= m(t_star + 0.05) - 1e-4

    # the last case is a brighter receiver where the herald's dark counts,
    # t p1 p_dc, outweigh its genuine one-photon weight
    @pytest.mark.parametrize("p1, p_dc, eta_d, eta_bob", [
        (0.0, 2e-7, 0.9, None), (0.0, 5e-3, 0.6, None),
        (0.2, 2e-7, 0.9, None), (0.458, 0.02, 0.9, None),
        (0.458, 0.2, 0.05, None), (0.458, 0.2, 0.05, 0.5)])
    def test_sweep_equals_the_scalar_golden_section(self, channel, p1, p_dc,
                                                    eta_d, eta_bob):
        if eta_bob is not None:
            channel = ChannelParams(0.0, eta_bob, channel.p_dc, channel.e_d)
        p2s = [0.01, 0.05, 0.1, 0.2, 0.35, 0.5]

        def scalar(p2: float) -> float:
            d = PhotonDistribution(1.0 - p1 - p2, p1, p2)

            def objective(t: float) -> float:
                m = scalar_hp_mcl(d, channel, 1e-5, t=t, eta_d=eta_d,
                                  p_dc_alice=p_dc)
                return -1.0 if math.isnan(m) else m

            return golden_max(objective, 1e-3, 1.0 - 1e-3, 1e-4)

        want = [scalar(p2) for p2 in p2s]
        got = optimal_bs_transmission(p2s, p_dc, eta_d, channel, p1=p1)
        assert got.tolist() == want
        assert optimal_bs_transmission(p2s[2], p_dc, eta_d, channel,
                                       p1=p1) == want[2]

    def test_the_hint_moves_no_optimum(self, monkeypatch, channel):
        # the benchmark sweeps, each weight's MCL searched from zero loss
        p2s = [0.05 + 0.005 * k for k in range(91)]
        hinted = [optimal_bs_transmission(p2s, 2e-7, 0.9, channel, p1=p1)
                  for p1 in (0.0, 0.2)]
        search = analysis._mcl_bracket
        monkeypatch.setattr(analysis, "_mcl_bracket",
                            lambda fn, size, tol_db, hint=None: search(
                                fn, size, tol_db))
        for p1, want in zip((0.0, 0.2), hinted):
            got = optimal_bs_transmission(p2s, 2e-7, 0.9, channel, p1=p1)
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("p_dc", [2e-7, 0.0])
    def test_rows_without_key_have_no_optimum(self, channel, p_dc):
        # misalignment 0.2 leaves no key at any t; a row whose probes never
        # see key is NaN, not the right end of the bracket
        noisy = ChannelParams(0.0, channel.eta_bob, channel.p_dc, 0.2)
        got = optimal_bs_transmission([0.1, 0.3], p_dc, 0.9, noisy)
        assert np.isnan(got).all()
        assert math.isnan(optimal_bs_transmission(0.3, p_dc, 0.9, noisy))

    def test_a_noiseless_herald_costs_two_rate_calls(self, monkeypatch,
                                                      channel):
        # one call at zero loss for the weights with key, one at the cap;
        # the MCL search at t = 1/2 is the oracle for which weights keep key
        calls = []
        kernel = analysis.skr_hp_array

        def counted(*args, **kwargs):
            calls.append(np.asarray(args[2]).tolist())
            return kernel(*args, **kwargs)

        monkeypatch.setattr(analysis, "skr_hp_array", counted)
        p2s = np.arange(0.05, 0.5, 0.005)
        assert optimal_bs_transmission(p2s, 0.0, 0.9, channel).tolist() == (
            [0.5] * p2s.size)
        assert calls == [[0.0] * p2s.size, [200.0] * p2s.size]
        dark = ChannelParams(0.0, channel.eta_bob, 1e-3, channel.e_d)
        p2s = [0.1, 0.3, 1.0]
        keyed = [not math.isnan(scalar_hp_mcl(
                     PhotonDistribution(1.0 - p2, 0.0, p2), dark, 1e-5, t=0.5,
                     eta_d=0.9, p_dc_alice=0.0)) for p2 in p2s]
        assert keyed == [False, False, True]
        calls.clear()
        got = optimal_bs_transmission(p2s, 0.0, 0.9, dark)
        assert np.isnan(got[:2]).all() and got[2] == 0.5
        assert calls == [[0.0] * 3, [200.0]]

    def test_a_noiseless_herald_with_key_at_the_cap_fails(self):
        with pytest.raises(FitError, match="still positive at 200.0 dB"):
            optimal_bs_transmission(0.3, 0.0, 0.9,
                                    ChannelParams(0.0, 1.0, 0.0, 0.0))

    @pytest.mark.parametrize("eta_d", [0.0, -0.1, 1.1, math.nan])
    def test_herald_efficiency_outside_0_1_rejected(self, channel, eta_d):
        with pytest.raises(ValueError, match="eta_d must lie in"):
            optimal_bs_transmission([0.1, 0.3], 2e-7, eta_d, channel)

    def test_domain_checks(self, monkeypatch, channel):
        monkeypatch.setattr(analysis, "_mcl_bracket", no_search)
        with pytest.raises(ValueError, match=r"p_dc must lie in \[0, 1\]"):
            optimal_bs_transmission([0.1, 0.3], 2.0, 0.9, channel)
        with pytest.raises(ValueError):
            optimal_bs_transmission([0.1, 0.0], 1e-3, 0.9, channel)
        with pytest.raises(ValueError):
            optimal_bs_transmission([0.1, 0.6], 1e-3, 0.9, channel,
                                          p1=0.5)
        with pytest.raises(ValueError):
            optimal_bs_transmission(0.0, 1e-3, 0.9, channel)
        with pytest.raises(ValueError):
            optimal_bs_transmission(0.6, 1e-3, 0.9, channel, p1=0.5)
        with pytest.raises(ValueError, match=r"need p1 >= 0 and p1 \+ p2"):
            optimal_bs_transmission([0.1, 0.3], 1e-3, 0.9, channel,
                                    p1=math.nan)


def explicit_fit(ts, rs, t):
    """The hint rule of ``_nearest_quadratic`` for one column, written out
    point by point: the explicit polynomial through the nearest min(3, k)
    points with NaN residuals last (ties by row), or the nearest point's
    residual where it is not finite."""
    order = sorted(range(len(ts)), key=lambda i: (math.isnan(rs[i]),
                                                  abs(ts[i] - t), i))
    pts = [(np.float64(ts[i]), np.float64(rs[i])) for i in order[:3]]
    with np.errstate(all="ignore"):
        if len(pts) == 1:
            fit = pts[0][1]
        elif len(pts) == 2:
            (t0, r0), (t1, r1) = pts
            fit = r0 * (t - t1) / (t0 - t1) + r1 * (t - t0) / (t1 - t0)
        else:
            (t0, r0), (t1, r1), (t2, r2) = pts
            fit = (r0 * (t - t1) * (t - t2) / ((t0 - t1) * (t0 - t2))
                   + r1 * (t - t0) * (t - t2) / ((t1 - t0) * (t1 - t2))
                   + r2 * (t - t0) * (t - t1) / ((t2 - t0) * (t2 - t1)))
    return float(fit) if math.isfinite(fit) else float(pts[0][1])


def nearest_fit(ts, rs, t):
    """``_nearest_quadratic`` on (k, N) lists, as a list."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return analysis._nearest_quadratic(np.array(ts, dtype=float),
                                           np.array(rs, dtype=float),
                                           np.array(t, dtype=float)).tolist()


class TestNearestQuadratic:
    """``_nearest_quadratic``, the hint rule of ``optimal_bs_transmission``:
    per column, the polynomial through the nearest up-to-three probes with
    key, or the nearest one's residual alone where it is not finite."""

    def test_one_probe_is_its_own_residual(self):
        assert nearest_fit([[0.3, 0.5]], [[-2.0, math.nan]],
                           [0.7, 0.1]) == [-2.0, pytest.approx(math.nan,
                                                               nan_ok=True)]

    def test_two_probes_give_their_line(self):
        got = nearest_fit([[0.2, 0.2, 0.2], [0.6, 0.6, 0.6]],
                          [[1.0, math.nan, math.nan], [3.0, 3.0, math.nan]],
                          [0.4, 0.1, 0.5])
        # the line through both; the one with key alone; none with key
        assert got[0] == explicit_fit([0.2, 0.6], [1.0, 3.0], 0.4)
        assert got[0] == pytest.approx(2.0, rel=1e-15)
        assert got[1] == 3.0 and math.isnan(got[2])

    def test_three_probes_give_their_quadratic(self):
        # r = t^2 through t = 0.25, 0.5 and 1, at t = 0.75
        got = nearest_fit([[0.25], [0.5], [1.0]], [[0.0625], [0.25], [1.0]],
                          [0.75])
        assert got == [pytest.approx(0.5625, rel=1e-15)]

    def test_the_nearest_three_with_key_are_taken(self):
        # the farthest probe is left out, and so is the nearest one where
        # it has no key; a probe without key among only three leaves the
        # nearest one's residual
        ts = [[0.1, 0.1, 0.1], [0.4, 0.4, 0.4], [0.5, 0.5, 0.5],
              [0.9, 0.9, 0.9]]
        rs = [[5.0, 5.0, 5.0], [1.0, math.nan, 1.0], [2.0, 2.0, 2.0],
              [7.0, 7.0, 7.0]]
        got = nearest_fit(ts, rs, [0.6, 0.6, 0.6])
        assert got[:2] == [explicit_fit([0.4, 0.5, 0.9], [1.0, 2.0, 7.0], 0.6),
                           explicit_fit([0.1, 0.5, 0.9], [5.0, 2.0, 7.0], 0.6)]
        assert nearest_fit([[0.1], [0.4], [0.5]], [[5.0], [math.nan], [2.0]],
                           [0.6]) == [2.0]

    @pytest.mark.parametrize("ts, want", [
        ([[0.4], [0.4]], 1.0),               # two probes at one t
        ([[0.4], [0.4], [0.6]], 1.0),        # two of three at one t
        ([[0.3], [0.45], [0.45]], 2.0)])     # the nearest two at one t
    def test_coincident_probes_fall_back_to_the_nearest(self, ts, want):
        rs = [[1.0], [2.0], [3.0]][:len(ts)]
        assert nearest_fit(ts, rs, [0.45]) == [want]

    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda k: st.lists(st.tuples(
            st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=k, max_size=k),
            st.lists(st.one_of(st.just(math.nan), st.floats(-60.0, 60.0)),
                     min_size=k, max_size=k),
            st.floats(1e-3, 1.0 - 1e-3)), min_size=1, max_size=6)))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_explicit_polynomial_within_a_few_ulp(self, columns):
        ts = np.array([c[0] for c in columns]).T
        rs = np.array([c[1] for c in columns]).T
        t = [c[2] for c in columns]
        for got, (tc, rc, tt) in zip(nearest_fit(ts, rs, t), columns):
            want = explicit_fit(tc, rc, tt)
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert abs(got - want) <= 4 * np.spacing(abs(want))


class TestGammaVsEfficiency:
    def test_collection_sweep_crosses_break_even(self, channel, sps1):
        pts = dict(gamma_vs_efficiency("dtb", "eta_c", [0.25, 0.35, 0.7],
                                       sps1, channel))
        assert pts[0.25] < 0.0 < pts[0.35]
        assert pts[0.7] > 2.0

    def test_collection_loss_can_help_a_pair_heavy_source(self, channel,
                                                          sps2):
        pts = dict(gamma_vs_efficiency("dtb", "eta_c", [0.6, 1.0], sps2,
                                       channel))
        # losing one photon of a pair leaves a useful single, so moderate
        # collection loss raises the loss budget for this source
        assert pts[0.6] > pts[1.0] + 3.0

    def test_dead_points_are_reported_not_dropped(self, channel, sps1):
        pts = gamma_vs_efficiency("hp", "eta_c", [0.01, 1.0], sps1, channel)
        assert len(pts) == 2
        assert math.isnan(pts[0][1])
        assert math.isfinite(pts[1][1])

    def test_detector_axis_applies_to_the_herald(self, channel, sps2):
        pts = gamma_vs_efficiency("hp", "eta_d", [0.5, 0.9], sps2, channel)
        assert pts[1][1] > pts[0][1]

    def test_one_ulp_grid_overshoot_is_snapped(self, channel, sps1):
        overshoot = 1.0 + 1e-12
        pts = gamma_vs_efficiency("dtb", "eta_c", [overshoot], sps1, channel)
        assert pts[0][0] == 1.0
        assert math.isfinite(pts[0][1])

    def test_decoy_sweep_equals_the_per_point_scalar_search(self, channel,
                                                          sps1):
        values = [0.0, 0.2, 0.2825, 0.5, 1.0]
        baseline = wcs_mcl(channel)
        ref = [(v, scalar_mcl(apply_collection(sps1, v), channel) - baseline)
               for v in values]
        got = gamma_vs_efficiency("dtb", "eta_c", values, sps1, channel)
        assert all(type(g) is float for _, g in got)
        assert same_floats(got, ref)

    def test_baseline_uses_an_explicit_f_ec(self, channel, sps1):
        # explicit f_ec: both sides; None: hp's own 1 against the 1.22 laser
        for f_ec, f_wcs in ((1.0, 1.0), (None, 1.22)):
            got = gamma_vs_efficiency("hp", "eta_c", [1.0], sps1, channel,
                                      f_ec=f_ec)
            own = mcl(hp_rate_fn(sps1, channel, f_ec=1.0))
            assert got == [(1.0, own - wcs_mcl(channel, f_ec=f_wcs))]

    @pytest.mark.parametrize("axis, values", [
        ("eta_c", [0.01, 0.3, 0.7, 1.0]), ("eta_d", [0.0, 0.2, 0.55, 1.0])])
    def test_herald_sweep_equals_the_per_point_scalar_search(self, channel,
                                                             sps2, axis,
                                                             values):
        baseline = wcs_mcl(channel, f_ec=1.22)
        if axis == "eta_c":
            ref = [scalar_hp_mcl(apply_collection(sps2, v), channel)
                   for v in values]
        else:
            d = apply_collection(sps2, 0.8)
            ref = [scalar_hp_mcl(d, channel, eta_d=v) for v in values]
        got = gamma_vs_efficiency("hp", axis, values, sps2, channel,
                                  eta_c=0.8)
        assert all(type(g) is float for _, g in got)
        assert same_floats(got, [(v, m - baseline) for v, m in zip(values, ref)])

    def test_empty_sweep(self, channel, sps1):
        assert gamma_vs_efficiency("dtb", "eta_c", [], sps1, channel) == []

    @pytest.mark.parametrize("axis, herald, message", [
        ("eta_c", {"t": 0.0}, "t must"), ("eta_c", {"t": 1.0}, "t must"),
        ("eta_d", {"t": 0.0}, "t must"), ("eta_d", {"t": 1.0}, "t must"),
        ("eta_c", {"eta_d": 0.0}, "eta_d must"),
        ("eta_d", {"p_dc_alice": 2.0}, "p_dc must")])
    def test_herald_settings_outside_their_range_fail_before_any_search(
            self, monkeypatch, channel, sps2, axis, herald, message):
        # they gave all-NaN rows; a swept eta_d is not checked (0 is a
        # point of test_herald_sweep_equals_the_per_point_scalar_search)
        monkeypatch.setattr(analysis, "_mcl_bracket", no_search)
        with pytest.raises(ValueError, match=message):
            gamma_vs_efficiency("hp", axis, [0.5, 0.9], sps2, channel,
                                **herald)

    def test_validation(self, monkeypatch, channel, sps1):
        monkeypatch.setattr(analysis, "_mcl_bracket", no_search)
        for protocol in ("dtb", "hp"):
            with pytest.raises(ValueError, match=ETA_C_RANGE):
                gamma_vs_efficiency(protocol, "eta_c", [0.5, 1.5], sps1,
                                    channel)
        for values in ([0.5, 1.5], [-0.2]):
            with pytest.raises(ValueError, match=r"eta_d must lie in \[0,"):
                gamma_vs_efficiency("hp", "eta_d", values, sps1, channel)
        with pytest.raises(ValueError):
            gamma_vs_efficiency("laser", "eta_c", [1.0], sps1, channel)
        with pytest.raises(ValueError):
            gamma_vs_efficiency("dtb", "time", [1.0], sps1, channel)
        with pytest.raises(ValueError):
            gamma_vs_efficiency("dtb", "eta_d", [1.0], sps1, channel)
        for eta_c in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match=ETA_C_RANGE):
                gamma_vs_efficiency("hp", "eta_d", [0.9], sps1, channel,
                                    eta_c=eta_c)
            with pytest.raises(ValueError, match=ETA_C_RANGE):
                gamma_vs_efficiency("dtb", "eta_c", [eta_c], sps1, channel)
