"""Key-rate bounds: entropy, decoy inversion, the three protocol rates."""

import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import entropy as shannon_entropy

from spsqkd.analysis import mcl, wcs_rate_fn, wcs_tagged_rate_fn
from spsqkd.channel_model import (ChannelParams, ObservedRates, gain_and_qber,
                                  weighted_gains, yields, yields_array)
from spsqkd.errors import DegenerateDecoyError, InconsistentDataError, NoKeyError
from spsqkd.photon_source import (PhotonDistribution, hp_effective_array,
                                  hp_effective_distribution, hp_transform)
from spsqkd.protocols import (
    DecoySolution,
    SkrResult,
    _tagging_bound,
    binary_entropy,
    check_herald,
    skr_dtb,
    skr_dtb_array,
    skr_dtb_from_rates,
    skr_hp,
    skr_hp_array,
    skr_wcs_infinite_decoy,
    skr_wcs_infinite_decoy_array,
    skr_wcs_tagging_bound,
    solve_dtb,
)


# channel losses for the raise-as-a-loop tests: valid ones, and those that
# ChannelParams rejects
LOSSES = st.sampled_from([0.0, 3.0, 10.0, -1.0, math.nan, math.inf])


def h2(x: float) -> float:
    """Independent entropy oracle via scipy."""
    return float(shannon_entropy([x, 1.0 - x], base=2))


class TestBinaryEntropy:
    def test_endpoints_and_midpoint(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    @pytest.mark.parametrize("x", [0.01, 0.033, 0.11, 0.2, 0.48, 0.73])
    def test_matches_the_scipy_oracle(self, x):
        assert binary_entropy(x) == pytest.approx(h2(x), rel=1e-12)

    def test_eleven_percent_reference_value(self):
        # 40-digit decimal evaluation: 0.4999159581645279956...; an 11%
        # error rate costs almost exactly half a bit per sifted bit
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528,
                                                     rel=1e-13)

    def test_symmetry(self):
        for x in (0.1, 0.25, 0.4):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x),
                                                      rel=1e-14)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestSolveDtb:
    def make_observations(self, channel, signal_stats, decoy_stats):
        signal = gain_and_qber(signal_stats, channel)
        decoy = gain_and_qber(decoy_stats, channel)
        vacuum = ObservedRates(q=channel.p_dc, e=0.5)
        return signal, decoy, vacuum

    def test_round_trip_recovers_the_channel_yields(self, channel,
                                                    bare_signal, bare_decoy):
        ch = channel.with_loss(10.0)
        signal, decoy, vacuum = self.make_observations(ch, bare_signal,
                                                       bare_decoy)
        sol = solve_dtb(signal, decoy, vacuum, bare_signal, bare_decoy)
        ys = yields(ch)
        assert sol.y1 == pytest.approx(ys.y[1], rel=1e-12)
        assert sol.y2 == pytest.approx(ys.y[2], rel=1e-12)
        assert sol.e1 == pytest.approx(ys.e[1], rel=1e-12)
        assert sol.e2 == pytest.approx(ys.e[2], rel=1e-12)

    def test_vacuum_observation_passes_straight_through(self, channel,
                                                        bare_signal,
                                                        bare_decoy):
        vacuum = ObservedRates(q=3.3e-6, e=0.41)
        signal, decoy, _ = self.make_observations(channel.with_loss(5.0),
                                                  bare_signal, bare_decoy)
        sol = solve_dtb(signal, decoy, vacuum, bare_signal, bare_decoy)
        assert sol.y0 == 3.3e-6
        assert sol.e0 == 0.41

    def test_identical_intensities_cannot_be_separated(self, channel, sps1):
        signal, _, vacuum = self.make_observations(channel, sps1, sps1)
        with pytest.raises(DegenerateDecoyError):
            solve_dtb(signal, signal, vacuum, sps1, sps1)

    def test_proportional_statistics_are_degenerate_too(self, channel):
        a = PhotonDistribution(0.7, 0.2, 0.1)
        b = PhotonDistribution(0.1, 0.6, 0.3)
        sa, sb, vacuum = self.make_observations(channel.with_loss(3.0), a, b)
        with pytest.raises(DegenerateDecoyError):
            solve_dtb(sa, sb, vacuum, a, b)

    def test_unphysical_observations_are_flagged(self):
        stats_s = PhotonDistribution(0.5, 0.3, 0.2)
        stats_d = PhotonDistribution(0.8, 0.15, 0.05)
        vacuum = ObservedRates(q=0.0, e=0.5)
        with pytest.raises(InconsistentDataError):
            solve_dtb(ObservedRates(q=1.0, e=0.0), ObservedRates(q=0.0, e=0.0),
                      vacuum, stats_s, stats_d)

    def test_tolerance_widens_the_acceptance_band(self):
        stats_s = PhotonDistribution(0.3, 0.5, 0.2)
        stats_d = PhotonDistribution(0.6, 0.3, 0.1)
        vacuum = ObservedRates(q=0.0, e=0.5)
        # exact data would give y1 = 0.5, y2 = 0; the decoy gain is then
        # nudged so the solved y2 lands slightly negative
        signal = ObservedRates(q=0.25, e=0.0)
        decoy = ObservedRates(q=0.15 + 1e-6, e=0.0)
        with pytest.raises(InconsistentDataError):
            solve_dtb(signal, decoy, vacuum, stats_s, stats_d)
        sol = solve_dtb(signal, decoy, vacuum, stats_s, stats_d, tol=1e-3)
        assert sol.y2 == 0.0
        assert sol.e2 == 0.5
        assert sol.y1 == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf])
    def test_a_tolerance_not_at_least_zero_is_rejected_first(
            self, channel, bare_signal, bare_decoy, tol):
        # a solve with Y1 = -0.36, which a NaN band clamped to 0, and one
        # with Y1 = 0.0021 in [0, 1], which a negative band rejected
        vacuum = ObservedRates(q=2e-7, e=0.5)
        far = (ObservedRates(q=0.5, e=0.03), ObservedRates(q=0.001, e=0.03))
        near = self.make_observations(channel.with_loss(10.0), bare_signal,
                                      bare_decoy)[:2]
        for signal, decoy in (far, near):
            with pytest.raises(ValueError, match="^tol must be at least 0, "
                                                 f"not {tol!r}$"):
                solve_dtb(signal, decoy, vacuum, bare_signal, bare_decoy,
                          tol=tol)

    def test_zero_and_infinite_tolerances_are_accepted(self, channel,
                                                        bare_signal,
                                                        bare_decoy):
        vacuum = ObservedRates(q=2e-7, e=0.5)
        signal, decoy = ObservedRates(q=0.5, e=0.03), ObservedRates(q=0.001,
                                                                    e=0.03)
        with pytest.raises(InconsistentDataError, match="Y1 = -0.359964"):
            solve_dtb(signal, decoy, vacuum, bare_signal, bare_decoy, tol=0.0)
        sol = solve_dtb(signal, decoy, vacuum, bare_signal, bare_decoy,
                        tol=math.inf)
        assert (sol.y1, sol.e1, sol.y2) == (0.0, 0.5, 1.0)
        signal, decoy, _ = self.make_observations(channel.with_loss(10.0),
                                                  bare_signal, bare_decoy)
        exact = solve_dtb(signal, decoy, vacuum, bare_signal, bare_decoy,
                          tol=0.0)
        assert 0.0 < exact.y1 < 1.0

    def test_three_photon_statistics_rejected(self, channel, bare_signal):
        d3 = PhotonDistribution(0.69, 0.2, 0.1, 0.01)
        signal, decoy, vacuum = self.make_observations(channel, bare_signal,
                                                       bare_signal)
        with pytest.raises(ValueError):
            solve_dtb(signal, decoy, vacuum, d3, bare_signal)

    @given(st.floats(min_value=0.0, max_value=45.0),
           st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=0.0, max_value=1e-3),
           st.floats(min_value=0.0, max_value=0.2))
    @settings(max_examples=150)
    def test_inversion_of_the_forward_model_is_exact(self, bare_signal,
                                                     bare_decoy, loss, eta_bob,
                                                     p_dc, e_d):
        ch = ChannelParams(loss_db=loss, eta_bob=eta_bob, p_dc=p_dc, e_d=e_d)
        sig_stats, dec_stats = bare_signal, bare_decoy
        signal = gain_and_qber(sig_stats, ch) if (p_dc or eta_bob) else None
        decoy = gain_and_qber(dec_stats, ch)
        vacuum = ObservedRates(q=p_dc, e=0.5)
        sol = solve_dtb(signal, decoy, vacuum, sig_stats, dec_stats)
        ys = yields(ch)
        assert sol.y1 == pytest.approx(ys.y[1], rel=1e-9, abs=1e-15)
        assert sol.y2 == pytest.approx(ys.y[2], rel=1e-9, abs=1e-15)
        if ys.y[1] > 1e-12:
            assert sol.e1 == pytest.approx(ys.e[1], rel=1e-6, abs=1e-9)


class TestSkrDtb:
    def test_rate_formula_exposed_term_by_term(self):
        signal = ObservedRates(q=0.1, e=0.01)
        result = skr_dtb_from_rates(signal, y1=0.04, e1=0.02, p1_signal=0.5,
                                    q_sift=0.5, f_ec=1.22)
        expected = 0.5 * (-0.1 * 1.22 * h2(0.01)
                          + 0.04 * 0.5 * (1.0 - h2(0.02)))
        assert expected > 0
        assert result.raw == pytest.approx(expected, rel=1e-12)
        assert result.rate == result.raw

    def test_costlier_error_correction_lowers_the_rate(self):
        signal = ObservedRates(q=0.1, e=0.05)
        loose = skr_dtb_from_rates(signal, 0.04, 0.02, 0.5, f_ec=1.0)
        tight = skr_dtb_from_rates(signal, 0.04, 0.02, 0.5, f_ec=1.22)
        drop = 0.5 * 0.1 * 0.22 * h2(0.05)
        assert loose.raw - tight.raw == pytest.approx(drop, rel=1e-12)

    def test_ideal_source_on_an_ideal_link_keeps_every_sifted_bit(self):
        ch = ChannelParams(loss_db=0.0, eta_bob=1.0, p_dc=0.0, e_d=0.0)
        result = skr_dtb(PhotonDistribution(0.0, 1.0, 0.0), ch)
        assert result.rate == 0.5

    def test_half_error_rate_yields_nothing(self):
        signal = ObservedRates(q=0.1, e=0.05)
        result = skr_dtb_from_rates(signal, y1=0.04, e1=0.5, p1_signal=0.5)
        assert result.rate == 0.0
        assert result.raw < 0.0

    def test_negative_bound_is_clipped_but_reported(self, channel, sps2):
        result = skr_dtb(sps2, channel.with_loss(40.0))
        assert result.rate == 0.0
        assert result.raw < 0.0

    def test_monotone_in_loss(self, channel, sps1):
        rates = [skr_dtb(sps1, channel.with_loss(l)).rate
                 for l in range(0, 42, 2)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))


class TestSkrDtbArray:
    @given(st.floats(min_value=1e-3, max_value=1.0),
           st.floats(min_value=0.0, max_value=1e-3),
           st.floats(min_value=0.0, max_value=0.5),
           st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                              st.floats(min_value=0.0, max_value=1.0),
                              st.floats(min_value=0.0, max_value=80.0)),
                    min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_matches_skr_dtb_to_a_few_ulp_of_the_gain(self, eta_bob, p_dc,
                                                      e_d, points):
        ch = ChannelParams(loss_db=0.0, eta_bob=eta_bob, p_dc=p_dc, e_d=e_d)
        ds = [PhotonDistribution(max(1.0 - a - (1.0 - a) * b, 0.0), a,
                                 (1.0 - a) * b)
              for a, b, _ in points]
        losses = np.array([loss for _, _, loss in points])
        probs = np.array([d.as_tuple() for d in ds]).T
        got = skr_dtb_array(probs, ch, losses)
        for k, (d, loss) in enumerate(zip(ds, losses)):
            ref = skr_dtb(d, ch.with_loss(loss)).rate
            gain = gain_and_qber(d, ch.with_loss(loss)).q if ref else 0.0
            # the bound is a difference of terms of order the gain; numpy's
            # log/exp round within a few ulp of math's
            assert abs(got[k] - ref) <= 8 * np.finfo(float).eps * gain

    def test_zero_gain_is_a_zero_rate(self):
        ch = ChannelParams(loss_db=0.0, eta_bob=0.5, p_dc=0.0, e_d=0.0)
        probs = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]).T
        assert skr_dtb_array(probs, ch, np.zeros(2)).tolist() == [
            skr_dtb(PhotonDistribution(1.0, 0.0, 0.0), ch).rate,
            skr_dtb(PhotonDistribution(0.0, 1.0, 0.0), ch).rate]

    def test_observed_rate_checks_are_kept(self):
        ch = ChannelParams(loss_db=0.0, eta_bob=0.5, p_dc=0.0, e_d=0.0)
        # an unchecked column with gain above one must fail like ObservedRates
        with pytest.raises(ValueError, match="gain"):
            skr_dtb_array(np.array([[0.0], [3.0], [0.0], [0.0]]), ch,
                          np.zeros(1))

    weight = st.floats(min_value=-1.0, max_value=3.0)

    @given(st.lists(st.tuples(weight, weight, weight, weight, LOSSES),
                    min_size=1, max_size=6))
    # an error rate past 1 (Q = 4.9e-5, E = 9.6) before a gain past 1: the
    # gains of all columns were checked first
    @example([(1.0, -0.0019, 0.0, 0.0, 0.0), (0.0, 2.0, 0.0, 0.0, 0.0)])
    # the same error rate before a negative loss: every loss was checked first
    @example([(1.0, -0.0019, 0.0, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0, -1.0)])
    @settings(max_examples=200, deadline=None)
    def test_raises_as_a_loop_of_observed_rates(self, first_error, columns):
        # unchecked columns and losses: skr_dtb's steps per column (the loss,
        # then no check where the gain is <= 0, else ObservedRates) on the
        # array's own yields
        ch = ChannelParams(loss_db=0.0, eta_bob=0.5, p_dc=1e-3, e_d=0.03)
        probs = np.array([c[:4] for c in columns]).T
        losses = np.array([c[4] for c in columns])
        y, e = yields_array(ch, losses)

        def scalar(k: int) -> None:
            ch.with_loss(float(losses[k]))
            q, eq = weighted_gains(probs[:, k].tolist(), y[:, k].tolist(),
                                   e[:, k].tolist())
            if not q <= 0.0:
                ObservedRates(q, eq / q)

        assert first_error([lambda: skr_dtb_array(probs, ch, losses)]) == (
            first_error([lambda k=k: scalar(k) for k in range(len(columns))]))


class TestSkrHp:
    def test_purification_gates_out_all_key_without_two_photon_weight(
            self, channel):
        d = PhotonDistribution(0.5, 0.5, 0.0)
        result = skr_hp(d, channel, t=0.5, eta_d=0.9, p_dc_alice=0.0)
        assert result.rate == 0.0
        assert result.raw <= 0.0

    def test_dark_free_herald_makes_every_kept_pulse_single(self, channel,
                                                            sps2):
        # p_dc_alice = 0 removes the two-photon leak entirely: omega = 1
        ch = channel.with_loss(10.0)
        result = skr_hp(sps2, ch, t=0.5, eta_d=0.9, p_dc_alice=0.0)
        p1t = 2.0 * sps2.p2 * 0.25 * 0.9
        ys = yields(ch)
        q_s = (1.0 - p1t) * ys.y[0] + p1t * ys.y[1]
        e_s = ((1.0 - p1t) * ys.y[0] * 0.5 + p1t * ys.y[1] * ys.e[1]) / q_s
        omega = p1t * ys.y[1] / q_s
        expected = 0.5 * q_s * (-h2(e_s) + omega * (1.0 - h2(e_s / omega)))
        assert result.raw == pytest.approx(expected, rel=1e-10)

    def test_alice_dark_counts_default_to_the_channel_value(self, channel,
                                                            sps2):
        explicit = skr_hp(sps2, channel, p_dc_alice=channel.p_dc)
        defaulted = skr_hp(sps2, channel)
        assert defaulted.raw == explicit.raw

    def test_monotone_in_loss(self, channel, sps2):
        rates = [skr_hp(sps2, channel.with_loss(l)).rate
                 for l in range(0, 42, 2)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_error_correction_factor_is_exposed(self, channel, sps2):
        ideal = skr_hp(sps2, channel, f_ec=1.0)
        costly = skr_hp(sps2, channel, f_ec=1.22)
        assert costly.raw < ideal.raw

    def test_a_single_photon_fraction_above_one_is_inconsistent(self):
        # omega = Q_1 / Q: within 1e-9 of 1 it clamps, beyond it raises
        assert _tagging_bound(0.5, 0.1, 0.5 * (1 + 1e-10), 0.5, 1.0) == (
            _tagging_bound(0.5, 0.1, 0.5, 0.5, 1.0))
        with pytest.raises(InconsistentDataError,
                           match=r"single-photon fraction omega=1\.2 > 1"):
            _tagging_bound(0.5, 0.1, 0.6, 0.5, 1.0)

    def test_no_single_photon_weight_is_a_positive_zero_rate(self):
        # t = 1 with p1 = 0 heralds only two-photon pulses (omega = 0) and an
        # error-free channel makes the leakage -0.0: the rate stays +0.0
        ch = ChannelParams(loss_db=0.0, eta_bob=0.5, p_dc=0.0, e_d=0.0)
        result = skr_hp(PhotonDistribution(0.5, 0.0, 0.5), ch, t=1.0,
                        eta_d=0.9, p_dc_alice=1e-3)
        assert math.copysign(1.0, result.rate) == 1.0
        assert result.rate == 0.0 and math.copysign(1.0, result.raw) == -1.0

    def test_the_herald_dark_rates_raise_from_the_kernels_rule(self, sps2):
        # check_herald's two dark-rate checks and hp_transform's setting
        # check raise one message from one function
        def raised(call, arg):
            with pytest.raises(ValueError) as info:
                call(arg)
            tb = info.tb
            while tb.tb_next is not None:
                tb = tb.tb_next
            return str(info.value), tb.tb_frame.f_code

        message, code = raised(lambda p: check_herald(p_dc=p), 2.0)
        assert message == "p_dc must lie in [0, 1]"
        assert raised(lambda p: hp_transform(sps2, 0.5, 0.9, p), 2.0) == (
            message, code)
        assert raised(lambda p: check_herald(p_dc_alice=p), -1.0) == (
            "p_dc_alice must lie in [0, 1]", code)


class TestSkrHpArray:
    @given(st.floats(min_value=1e-3, max_value=1.0),
           st.floats(min_value=0.0, max_value=1e-3),
           st.floats(min_value=0.0, max_value=0.5),
           st.floats(min_value=0.0, max_value=1e-2),
           st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                              st.floats(min_value=0.0, max_value=1.0),
                              st.floats(min_value=0.0, max_value=1.0),
                              st.floats(min_value=0.0, max_value=1.0),
                              st.floats(min_value=0.0, max_value=80.0)),
                    min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_matches_skr_hp_to_a_few_ulp_of_the_gain(self, eta_bob, p_dc,
                                                     e_d, p_dc_alice, points):
        ch = ChannelParams(loss_db=0.0, eta_bob=eta_bob, p_dc=p_dc, e_d=e_d)
        ds = [PhotonDistribution(max(1.0 - a - (1.0 - a) * b, 0.0), a,
                                 (1.0 - a) * b) for a, b, _, _, _ in points]
        t = np.array([t for _, _, t, _, _ in points])
        eta_d = np.array([e for _, _, _, e, _ in points])
        losses = np.array([loss for *_, loss in points])
        probs = np.array([d.as_tuple() for d in ds]).T
        eff = hp_effective_array(probs, t, eta_d, p_dc_alice)
        got = skr_hp_array(eff, ch, losses)
        for k, d in enumerate(ds):
            args = (d, float(t[k]), float(eta_d[k]), p_dc_alice)
            assert tuple(eff[:, k]) == hp_effective_distribution(*args).as_tuple()
            at = ch.with_loss(float(losses[k]))
            ref = skr_hp(d, at, t=args[1], eta_d=args[2],
                         p_dc_alice=p_dc_alice).rate
            gain = gain_and_qber(hp_effective_distribution(*args), at).q \
                if ref else 0.0
            assert abs(got[k] - ref) <= 8 * np.finfo(float).eps * gain

    def test_no_herald_and_no_gain_are_zero_rates(self):
        ch = ChannelParams(loss_db=0.0, eta_bob=0.5, p_dc=0.0, e_d=0.0)
        # no one-photon weight left (omega = 0), then no detection at all
        eff = np.array([[0.5, 0.0, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0]]).T
        assert skr_hp_array(eff, ch, np.zeros(2)).tolist() == [0.0, 0.0]

    def test_single_photon_fraction_above_one_is_inconsistent(self):
        ch = ChannelParams(loss_db=0.0, eta_bob=0.5, p_dc=1e-3, e_d=0.0)
        # an unchecked column whose negative vacuum weight pushes omega past 1
        eff = np.array([[-0.5], [1.5], [0.0], [0.0]])
        with pytest.raises(InconsistentDataError, match="omega"):
            skr_hp_array(eff, ch, np.zeros(1))

    @given(st.lists(st.tuples(st.floats(min_value=-1.0, max_value=1.0),
                              st.floats(min_value=0.0, max_value=1.5),
                              st.floats(min_value=-0.3, max_value=0.5),
                              LOSSES),
                    min_size=1, max_size=6))
    # omega 1.18 before omega 1.82: the maximum was reported
    @example([(0.0, 1.0, -0.1, 0.0), (0.0, 1.0, -0.3, 0.0)])
    # a negative error rate before omega 1.18: every omega was checked first
    @example([(-1.0, 0.01, 0.01, 0.0), (0.0, 1.0, -0.1, 0.0)])
    # the same error rate before a negative loss: every loss was checked first
    @example([(-1.0, 0.01, 0.01, 0.0), (0.5, 0.5, 0.0, -1.0)])
    @settings(max_examples=200, deadline=None)
    def test_omega_clamp_raises_as_a_loop_of_tagging_bounds(self, first_error,
                                                            columns):
        # unchecked columns and losses: skr_hp's steps per column (the loss,
        # then no bound where the gain is <= 0, else _tagging_bound) on the
        # array's own yields
        ch = ChannelParams(loss_db=0.0, eta_bob=0.5, p_dc=1e-3, e_d=0.03)
        eff = np.array([c[:3] + (0.0,) for c in columns]).T
        losses = np.array([c[3] for c in columns])
        y, e = yields_array(ch, losses)

        def scalar(k: int) -> None:
            ch.with_loss(float(losses[k]))
            q, eq = weighted_gains(eff[:3, k].tolist(), y[:3, k].tolist(),
                                   e[:3, k].tolist())
            if not q <= 0.0:
                _tagging_bound(q, eq / q, float(eff[1, k] * y[1, k]), 0.5, 1.0)

        assert first_error([lambda: skr_hp_array(eff, ch, losses)]) == (
            first_error([lambda k=k: scalar(k) for k in range(len(columns))]))


@pytest.mark.parametrize("loss", [-1.0, math.inf, math.nan])
def test_bad_losses_rejected_as_with_loss_rejects_them(channel, sps1, loss):
    # the second of two columns, in both rate kernels
    probs = np.array([sps1.as_tuple()] * 2).T
    losses = np.array([10.0, loss])
    with pytest.raises(ValueError, match="loss_db must be") as scalar:
        channel.with_loss(loss)
    for call in (lambda: skr_dtb_array(probs, channel, losses),
                 lambda: skr_hp_array(hp_effective_array(probs, 0.5, 0.9, 0.0),
                                      channel, losses)):
        with pytest.raises(ValueError) as array:
            call()
        assert str(array.value) == str(scalar.value)


class TestHpMonotoneOnTheMclGrid:
    """The MCL search (``mcl``, ``_mcl_bracket``) and ``hp_threshold`` read
    one sign per grid loss and rest on the purified rate not increasing in
    loss.  The grid is the multiples of the step 25/2^k dB up to the 200 dB
    cap, 25/2^k the first halving of 25 dB at or below the search's
    ``tol_db``: 25/4096 dB at the default 0.01 dB, 25/2^22 dB at the 1e-5
    dB of ``optimal_bs_transmission``."""

    @pytest.mark.parametrize("halvings", [12, 22])
    @given(st.floats(min_value=1e-3, max_value=1.0),
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-3)),
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.3)),
           st.floats(min_value=1e-3, max_value=1.0),
           st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
           st.floats(min_value=1e-3, max_value=1.0),
           st.one_of(st.none(), st.just(0.0),
                     st.floats(min_value=0.0, max_value=1e-2)),
           st.floats(min_value=0.0, max_value=1.0),
           st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_rates_do_not_increase_along_the_grid(self, halvings, eta_bob,
                                                  p_dc, e_d, p2, t, eta_d,
                                                  p_dc_alice, start, spread):
        # a run of neighbouring grid losses and a spread over the whole grid
        step, top = 25.0 / 2**halvings, 8 * 2**halvings  # top: 200 dB
        first = int(start * (top - 19))
        ch = ChannelParams(loss_db=0.0, eta_bob=eta_bob, p_dc=p_dc, e_d=e_d)
        d = PhotonDistribution(1.0 - p2, 0.0, p2)
        ks = sorted(set(range(first, first + 20))
                    | {int(u * top) for u in spread})
        losses = [k * step for k in ks]
        scalar = [skr_hp(d, ch.with_loss(loss), t=t, eta_d=eta_d,
                         p_dc_alice=p_dc_alice).rate for loss in losses]
        probs = np.repeat(np.array([d.as_tuple()]).T, len(losses), axis=1)
        dark = p_dc if p_dc_alice is None else p_dc_alice
        array = skr_hp_array(hp_effective_array(probs, t, eta_d, dark), ch,
                             np.array(losses)).tolist()
        for rates in (scalar, array):
            assert all(b <= a for a, b in zip(rates, rates[1:]))


class TestDtbMonotoneOnTheMclGrid:
    """``gamma-map`` and ``gamma-vs-eta --protocol dtb`` search the decoy
    rate's MCL (``_mcl_bracket`` over ``skr_dtb_array``, ``mcl`` over
    ``skr_dtb``) and rest on it not increasing in loss along the grid of
    the default 0.01 dB tolerance: the multiples of 25/4096 dB up to the
    200 dB cap."""

    @given(st.floats(min_value=1e-3, max_value=1.0),
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-3)),
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.3)),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=0.2),
           st.floats(min_value=0.0, max_value=1.0),
           st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_rates_do_not_increase_along_the_grid(self, eta_bob, p_dc, e_d,
                                                  a, b, c, start, spread):
        # a run of neighbouring grid losses and a spread over the whole grid
        step, top = 25.0 / 4096, 8 * 4096  # top: 200 dB
        first = int(start * (top - 19))
        ch = ChannelParams(loss_db=0.0, eta_bob=eta_bob, p_dc=p_dc, e_d=e_d)
        p1, p2 = a, (1.0 - a) * b
        p3 = min(c, max(1.0 - p1 - p2, 0.0))
        d = PhotonDistribution(max(1.0 - p1 - p2 - p3, 0.0), p1, p2, p3)
        ks = sorted(set(range(first, first + 20))
                    | {int(u * top) for u in spread})
        losses = [k * step for k in ks]
        scalar = [skr_dtb(d, ch.with_loss(loss)).rate for loss in losses]
        probs = np.repeat(np.array([d.as_tuple()]).T, len(losses), axis=1)
        array = skr_dtb_array(probs, ch, np.array(losses)).tolist()
        for rates in (scalar, array):
            assert all(r1 <= r0 for r0, r1 in zip(rates, rates[1:]))


@pytest.mark.parametrize("q_sift", [0.0, -1.0, 1.5, math.nan])
def test_every_rate_bound_rejects_a_sifting_factor_outside_0_1(channel, sps1,
                                                              q_sift):
    probs = np.array([sps1.as_tuple()]).T
    obs = ObservedRates(q=1e-3, e=0.02)
    calls = [
        lambda: skr_dtb(sps1, channel, q_sift=q_sift),
        lambda: skr_dtb_array(probs, channel, np.zeros(1), q_sift=q_sift),
        lambda: skr_dtb_from_rates(obs, 1e-3, 0.02, 0.5, q_sift=q_sift),
        lambda: skr_hp(sps1, channel, q_sift=q_sift),
        lambda: skr_hp_array(hp_effective_array(probs, 0.5, 0.9, 0.0),
                             channel, np.zeros(1), q_sift=q_sift),
        lambda: skr_wcs_infinite_decoy(channel, q_sift=q_sift),
        lambda: skr_wcs_infinite_decoy_array(channel, np.zeros(1),
                                             q_sift=q_sift),
        lambda: skr_wcs_tagging_bound(channel, q_sift=q_sift)]
    for call in calls:
        with pytest.raises(ValueError, match="q_sift"):
            call()


@pytest.mark.parametrize("f_ec", [0.999, 0.0, -1.0, math.inf, math.nan])
def test_every_rate_bound_rejects_an_error_correction_factor_below_one(
        channel, sps1, f_ec):
    probs = np.array([sps1.as_tuple()]).T
    obs = ObservedRates(q=1e-3, e=0.02)
    calls = [
        lambda: skr_dtb(sps1, channel, f_ec=f_ec),
        lambda: skr_dtb_array(probs, channel, np.zeros(1), f_ec=f_ec),
        lambda: skr_dtb_from_rates(obs, 1e-3, 0.02, 0.5, f_ec=f_ec),
        lambda: skr_hp(sps1, channel, f_ec=f_ec),
        lambda: skr_hp_array(hp_effective_array(probs, 0.5, 0.9, 0.0),
                             channel, np.zeros(1), f_ec=f_ec),
        lambda: skr_wcs_infinite_decoy(channel, f_ec=f_ec),
        lambda: skr_wcs_infinite_decoy(channel, mu=0.5, f_ec=f_ec),
        lambda: skr_wcs_infinite_decoy_array(channel, np.zeros(1), f_ec=f_ec),
        lambda: skr_wcs_tagging_bound(channel, f_ec=f_ec)]
    for call in calls:
        with pytest.raises(ValueError, match="f_ec must be finite and at "
                                             "least 1"):
            call()


class TestSkrWcs:
    def test_optimal_intensity_on_a_noiseless_link_is_one(self):
        ch = ChannelParams(loss_db=0.0, eta_bob=1.0, p_dc=0.0, e_d=0.0)
        result = skr_wcs_infinite_decoy(ch)
        assert result.mu == pytest.approx(1.0, abs=1e-4)
        assert result.rate == pytest.approx(0.5 * math.exp(-1.0), rel=1e-8)

    def test_optimizer_dominates_any_fixed_intensity(self, channel):
        ch = channel.with_loss(15.0)
        best = skr_wcs_infinite_decoy(ch)
        for mu in (0.1, 0.3, 0.5, 0.8, 1.2, 2.0):
            assert best.rate >= skr_wcs_infinite_decoy(ch, mu=mu).rate - 1e-15

    def test_intensity_domain_enforced(self, channel):
        for mu in (0.0, -0.5, 2.5):
            with pytest.raises(ValueError):
                skr_wcs_infinite_decoy(channel, mu=mu)

    def test_tagging_bound_never_beats_the_decoy_analysis(self, channel):
        for loss in (0.0, 10.0, 20.0, 30.0):
            ch = channel.with_loss(loss)
            tagged = skr_wcs_tagging_bound(ch, f_ec=1.0).rate
            decoyed = skr_wcs_infinite_decoy(ch, f_ec=1.0).rate
            assert tagged <= decoyed + 1e-15

    def test_monotone_in_loss(self, channel):
        rates = [skr_wcs_infinite_decoy(channel.with_loss(l)).rate
                 for l in range(0, 42, 2)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_result_carries_the_intensity_used(self, channel):
        assert skr_wcs_infinite_decoy(channel, mu=0.37).mu == 0.37
        assert skr_wcs_tagging_bound(channel).mu is not None


# (eta_bob, p_dc, e_d, loss_db, q_sift, f_ec or None for the default) ->
# (rate, raw, mu) of skr_wcs_infinite_decoy, then of skr_wcs_tagging_bound.
# Recorded before the laser probe was trimmed; never re-record them to
# absorb a change.
LASER_GOLDENS = [
    ((0.045, 2e-07, 0.033, 0.0, 0.5, None),
     (0.002557524239533437, 0.002557524239533437, 0.4863821218381794),
     (0.002479547600767092, 0.002479547600767092, 0.43082646551209736)),
    ((0.045, 2e-07, 0.033, 20.0, 0.5, None),
     (2.4936266535429137e-05, 2.4936266535429137e-05, 0.4787039464004754),
     (2.404893353383237e-05, 2.404893353383237e-05, 0.42439567340290163)),
    ((0.045, 2e-07, 0.033, 38.0, 0.5, None),
     (8.579045611443403e-08, 8.579045611443403e-08, 0.4426238889949409),
     (5.618549792086685e-09, 5.618549792086685e-09, 0.42694350182627816)),
    ((0.045, 2e-07, 0.033, 39.5, 0.5, None),
     (0.0, -2.0581925242282695e-08, 0.4201368434754654),
     (0.0, -9.208024445856355e-08, 0.4177611371410356)),
    ((0.045, 2e-07, 0.033, 10.0, 0.4, None),
     (0.00020219867089147958, 0.00020219867089147958, 0.47963292210650343),
     (0.00019574045443533728, 0.00019574045443533728, 0.4245649811564609)),
    ((0.045, 2e-07, 0.033, 10.0, 0.5, 1.16),
     (0.00026653556213462556, 0.00026653556213462556, 0.49673123217523174),
     (0.0002140095017473466, 0.0002140095017473466, 0.38978056138701866)),
    ((0.045, 2e-07, 0.033, 10.0, 1.0, 1.0),
     (0.0006114620052839135, 0.0006114620052839135, 0.5448564116020151),
     (0.0004893511360883431, 0.0004893511360883431, 0.4245649811564609)),
    ((1.0, 1e-06, 0.01, 0.0, 0.5, None),
     (0.13893048579502135, 0.13893048579502135, 0.8927683101832695),
     (0.1372823600584744, 0.1372823600584744, 0.8563093184322672)),
    ((1.0, 0.0, 0.0, 0.0, 0.5, None),
     (0.183939720585721, 0.183939720585721, 1.0000000409285366),
     (0.183939720585721, 0.183939720585721, 1.0000000409285366)),
    ((0.5, 0.0, 0.0, 30.0, 0.5, None),
     (9.196986029286051e-05, 9.196986029286051e-05, 1.0000000409285366),
     (9.196986029286051e-05, 9.196986029286051e-05, 1.0000000409285366)),
    ((0.2, 1e-05, 0.02, 5.0, 0.5, None),
     (0.005719383272884775, 0.005719383272884775, 0.6354017174366713),
     (0.005446669795419015, 0.005446669795419015, 0.5726558548173883)),
    ((0.02, 0.001, 0.05, 0.0, 0.5, None),
     (0.0, -0.0006994280610120782, 0.21603887079738038),
     (0.0, -0.0005000133083253446, 1.3321872314472132e-06)),
    ((0.02, 0.001, 0.05, 3.0, 0.5, None),
     (0.0, -0.0006100040253449139, 1.3321872314472132e-06),
     (0.0, -0.0005000066700142725, 1.3321872314472132e-06)),
    ((0.045, 2e-07, 0.2, 0.0, 0.5, None),
     (0.0, -1.480365134629996e-07, 1.3321872314472132e-06),
     (0.0, -1.2817331298329602e-07, 1.3321872314472132e-06)),
    ((0.045, 2e-07, 0.5, 0.0, 0.5, None),
     (0.0, -1.5856848347331063e-07, 1.3321872314472132e-06),
     (0.0, -1.2997416678140215e-07, 1.3321872314472132e-06)),
    ((0.01, 1e-09, 0.1, 15.0, 0.5, None),
     (0.0, -7.196266647277621e-10, 1.3321872314472132e-06),
     (1.8167951240942817e-07, 1.8167951240942817e-07, 0.03782534190947498)),
    ((0.9, 0.0001, 0.0, 25.0, 0.5, None),
     (0.00025367280363663427, 0.00025367280363663427, 0.9096223034925148),
     (0.00021419845600743868, 0.00021419845600743868, 0.9304384125778163)),
    ((0.06, 1e-06, 0.02, 33.3, 0.5, None),
     (7.340887870251763e-07, 7.340887870251763e-07, 0.5748822075144338),
     (3.0933768340124745e-07, 3.0933768340124745e-07, 0.5606507978660249)),
    ((0.3, 3e-08, 0.07, 12.5, 0.5, 1.22),
     (0.0001278211552876436, 0.0001278211552876436, 0.16882445231537516),
     (8.895775797966187e-05, 8.895775797966187e-05, 0.11637925186370504)),
    ((0.005, 1e-08, 0.033, 0.0, 0.25, None),
     (0.0001406183295172628, 0.0001406183295172628, 0.47974262128000167),
     (0.0001361810661194621, 0.0001361810661194621, 0.42459271390433495)),
]


class TestLaserGoldens:
    @pytest.mark.parametrize("case, decoy, tagged", LASER_GOLDENS,
                             ids=[str(i) for i in range(len(LASER_GOLDENS))])
    def test_both_lasers_equal_their_records(self, case, decoy, tagged):
        eta_bob, p_dc, e_d, loss_db, q_sift, f_ec = case
        ch = ChannelParams(loss_db, eta_bob, p_dc, e_d)
        kw = {"q_sift": q_sift} if f_ec is None else {"q_sift": q_sift,
                                                     "f_ec": f_ec}
        for bound, want in ((skr_wcs_infinite_decoy, decoy),
                            (skr_wcs_tagging_bound, tagged)):
            got = bound(ch, **kw)
            assert (got.rate, got.raw, got.mu) == want, bound.__name__
            # the same probe at the recorded intensity
            assert bound(ch, mu=want[2], **kw).raw == want[1]

    def test_the_lockstep_laser_equals_the_records(self):
        # the decoy records of each channel, one array call per channel
        for case, decoy, _ in LASER_GOLDENS:
            eta_bob, p_dc, e_d, loss_db, q_sift, f_ec = case
            kw = {"q_sift": q_sift} if f_ec is None else {"q_sift": q_sift,
                                                         "f_ec": f_ec}
            rate, mu = skr_wcs_infinite_decoy_array(
                ChannelParams(0.0, eta_bob, p_dc, e_d), np.array([loss_db]),
                **kw)
            assert (rate.tolist(), mu.tolist()) == ([decoy[0]], [decoy[2]])


laser_channels = st.builds(
    lambda eta_bob, log_p_dc, e_d: ChannelParams(
        loss_db=0.0, eta_bob=eta_bob, p_dc=10.0 ** log_p_dc, e_d=e_d),
    st.one_of(st.just(1.0), st.floats(min_value=5e-3, max_value=1.0)),
    st.floats(min_value=-12.0, max_value=-4.0),
    st.one_of(st.floats(min_value=0.0, max_value=0.08), st.just(0.2)))


class TestLockstepLaser:
    @given(laser_channels,
           st.lists(st.one_of(st.just(0.0), st.just(60.0),
                              st.floats(min_value=0.0, max_value=45.0)),
                    min_size=0, max_size=12),
           st.sampled_from([0.5, 1.0, 0.3]),
           st.sampled_from([None, 1.0, 1.16]))
    @settings(max_examples=100, deadline=None)
    def test_each_loss_equals_the_scalar_laser(self, ch, losses, q_sift,
                                               f_ec):
        # random receivers and losses, with and without key, eta >= 1 too
        kw = {"q_sift": q_sift} if f_ec is None else {"q_sift": q_sift,
                                                     "f_ec": f_ec}
        rate, mu = skr_wcs_infinite_decoy_array(ch, np.array(losses), **kw)
        want = [skr_wcs_infinite_decoy(ch.with_loss(loss), **kw)
                for loss in losses]
        assert rate.tolist() == [w.rate for w in want]
        assert mu.tolist() == [w.mu for w in want]

    def test_bad_losses_are_rejected(self, channel):
        for loss in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="loss_db"):
                skr_wcs_infinite_decoy_array(channel, np.array([0.0, loss]))


class TestCrossProtocol:
    def test_an_ideal_source_dominates_both_real_sources(self, channel,
                                                         sps1, sps2):
        perfect = PhotonDistribution(0.0, 1.0, 0.0)
        for loss in (0.0, 10.0, 20.0, 30.0):
            ch = channel.with_loss(loss)
            best = skr_dtb(perfect, ch).rate
            assert best >= skr_dtb(sps1, ch).rate
            assert best >= skr_dtb(sps2, ch).rate

    def test_golden_rate_records(self, channel, bundled_sources):
        path = resources.files("spsqkd").joinpath("fixtures/golden/rates.json")
        records = json.loads(path.read_text())["records"]
        assert len(records) == 20
        for rec in records:
            ch = channel.with_loss(rec["loss_db"])
            params = rec["params"]
            proto = rec["protocol"]
            if proto in ("dtb", "perfect-sps"):
                got = skr_dtb(bundled_sources[params["source"]], ch,
                              q_sift=params["q_sift"], f_ec=params["f_ec"])
            elif proto == "hp":
                got = skr_hp(bundled_sources[params["source"]], ch,
                             t=params["t"], eta_d=params["eta_d"],
                             q_sift=params["q_sift"], f_ec=params["f_ec"])
            elif proto == "wcs":
                got = skr_wcs_infinite_decoy(ch, q_sift=params["q_sift"],
                                             f_ec=params["f_ec"])
            elif proto == "wcs-tagged":
                got = skr_wcs_tagging_bound(ch, q_sift=params["q_sift"],
                                            f_ec=params["f_ec"])
            else:
                pytest.fail(f"unknown protocol {proto}")
            assert got.rate == rec["skr"], f"{proto} at {rec['loss_db']} dB"

    def test_result_objects_are_immutable(self):
        result = SkrResult(rate=0.1, raw=0.1)
        with pytest.raises(AttributeError):
            result.rate = 0.2
        sol = DecoySolution(y0=0.0, e0=0.5, y1=0.1, e1=0.0, y2=0.2, e2=0.0)
        with pytest.raises(AttributeError):
            sol.y1 = 0.3


channels = st.builds(
    lambda eta_bob, log_p_dc, e_d: ChannelParams(
        loss_db=0.0, eta_bob=eta_bob, p_dc=10.0 ** log_p_dc, e_d=e_d),
    st.floats(min_value=1e-2, max_value=1.0), st.floats(min_value=-9.0,
                                                        max_value=-3.0),
    st.floats(min_value=0.0, max_value=0.1))


class TestSearchPreconditions:
    """What the MCL search and the laser mu search rely on."""

    @given(channels, st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=0.2),
           st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
           st.floats(min_value=0.3, max_value=1.0),
           st.floats(min_value=0.0, max_value=1e-4),
           st.floats(min_value=0.0, max_value=40.0),
           st.floats(min_value=0.5, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_every_rate_is_non_increasing_in_loss(self, ch, a, b, c, t, eta_d,
                                                  p_dc_alice, start, step):
        # mcl bisects on the sign of the rate, so a rate that grew with loss
        # could hide key beyond the reported cut-off
        p1, p2 = a, (1.0 - a) * b
        p3 = min(c, max(1.0 - p1 - p2, 0.0))
        d = PhotonDistribution(max(1.0 - p1 - p2 - p3, 0.0), p1, p2, p3)
        pair_source = PhotonDistribution(max(1.0 - p1 - p2, 0.0), p1, p2)
        bounds = {
            "dtb": lambda at: skr_dtb(d, at).rate,
            "hp": lambda at: skr_hp(pair_source, at, t=t, eta_d=eta_d,
                                    p_dc_alice=p_dc_alice).rate,
            "wcs": lambda at: skr_wcs_infinite_decoy(at).rate,
            "wcs-tagged": lambda at: skr_wcs_tagging_bound(at).rate}
        losses = [start + k * step for k in range(12)]
        for name, rate in bounds.items():
            rates = [rate(ch.with_loss(loss)) for loss in losses]
            assert all(r1 <= r0 for r0, r1 in zip(rates, rates[1:])), name

    @given(channels)
    @settings(max_examples=20, deadline=None)
    def test_laser_signs_do_not_increase_along_the_mcl_grid(self, ch):
        # wcs_mcl and hp_threshold's tagged-laser reference read one sign
        # of the mu-optimised rate per multiple of 25/4096 dB; key that came
        # back beyond the first grid loss without it would move the cut-off
        step = 25.0 / 4096
        for rate_fn in (wcs_rate_fn, wcs_tagged_rate_fn):
            rate = rate_fn(ch)
            try:
                last = int(mcl(rate) / step)  # the last grid loss with key
            except NoKeyError:
                continue
            ks = range(max(last - 64, 0), last + 65)
            assert ([rate(k * step) > 0.0 for k in ks]
                    == [k <= last for k in ks]), rate_fn.__name__

    @given(channels)
    @settings(max_examples=20, deadline=None)
    def test_mu_search_finds_the_grid_maximum_near_the_cutoff(self, ch):
        # the mu objective need not be unimodal on (0, 2] (without key it can
        # peak again as mu -> 0); the search must still find the best rate
        # where there is one, on the edge of key where it is hardest
        grid = np.linspace(2.0 / 400, 2.0, 400).tolist()
        for bound, rate_fn in ((skr_wcs_infinite_decoy, wcs_rate_fn),
                               (skr_wcs_tagging_bound, wcs_tagged_rate_fn)):
            try:
                cutoff = mcl(rate_fn(ch))
            except NoKeyError:
                continue
            for offset in (-0.3, -0.05, -0.01, 0.01):
                at = ch.with_loss(max(cutoff + offset, 0.0))
                best = max(bound(at, mu=mu).rate for mu in grid)
                if best > 0.0:
                    found = bound(at).rate
                    assert found >= best * (1.0 - 1e-6), (bound.__name__,
                                                          offset)
