"""Threshold-detector channel: yields, gains, weak-coherent expansion."""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spsqkd import channel_model, cli
from spsqkd.channel_model import (
    ChannelParams,
    ObservedRates,
    gain_and_qber,
    transmittance,
    _wcs_closed_form,
    wcs_gain_and_qber,
    wcs_series,
    wcs_series_array,
    weighted_gains,
    yields,
    yields_array,
)
from spsqkd.errors import InfeasibleObservablesError
from spsqkd.photon_source import PhotonDistribution

EPS = float(np.finfo(float).eps)

channels = st.builds(
    ChannelParams,
    loss_db=st.floats(min_value=0.0, max_value=60.0),
    eta_bob=st.floats(min_value=1e-3, max_value=1.0),
    p_dc=st.floats(min_value=0.0, max_value=0.1),
    e_d=st.floats(min_value=0.0, max_value=0.5),
)


class TestTransmittance:
    def test_zero_loss_is_receiver_efficiency(self, channel: ChannelParams):
        assert transmittance(channel) == channel.eta_bob

    def test_ten_db_is_a_factor_of_ten(self, channel: ChannelParams):
        assert transmittance(channel.with_loss(10.0)) == pytest.approx(
            channel.eta_bob / 10.0, rel=1e-15)


def eta_n(channel: ChannelParams, n: int) -> float:
    """eta_n, the probability that one of n photons survives: Y_n of the
    dark-free channel, where ``_clicks`` adds 0.0 and subtracts 0.0."""
    return yields(dataclasses.replace(channel, p_dc=0.0)).y[n]


class TestEtaN:
    def test_vacuum_never_arrives(self, channel: ChannelParams):
        assert eta_n(channel, 0) == 0.0

    def test_single_photon_survival_is_the_transmittance(self, channel):
        assert eta_n(channel, 1) == pytest.approx(transmittance(channel),
                                                  rel=1e-15)

    def test_two_photons_at_half_transmittance(self):
        ch = ChannelParams(loss_db=10.0 * math.log10(2.0), eta_bob=1.0,
                           p_dc=0.0, e_d=0.0)
        assert eta_n(ch, 2) == pytest.approx(0.75, rel=1e-12)

    def test_stays_accurate_deep_in_the_attenuated_regime(self):
        ch = ChannelParams(loss_db=120.0, eta_bob=1.0, p_dc=0.0, e_d=0.0)
        # 1 - (1 - x)^3 = 3x - 3x^2 + x^3; the naive difference would
        # lose five digits here
        assert eta_n(ch, 3) == pytest.approx(3e-12 - 3e-24, rel=1e-12)

    def test_lossless_unit_receiver(self):
        ch = ChannelParams(loss_db=0.0, eta_bob=1.0, p_dc=0.0, e_d=0.0)
        assert eta_n(ch, 0) == 0.0
        assert eta_n(ch, 1) == 1.0
        assert eta_n(ch, 2) == 1.0


class TestYields:
    def test_vacuum_yield_is_the_dark_rate(self, channel: ChannelParams):
        ys = yields(channel)
        assert ys.y[0] == channel.p_dc
        assert ys.e[0] == 0.5

    def test_dark_count_free_errors_are_pure_misalignment(self):
        ch = ChannelParams(loss_db=10.0, eta_bob=0.045, p_dc=0.0, e_d=0.033)
        ys = yields(ch)
        for n in (1, 2, 3):
            assert ys.e[n] == pytest.approx(0.033, rel=1e-15)

    def test_zero_yield_error_rate_defaults_to_one_half(self):
        ch = ChannelParams(loss_db=40.0, eta_bob=0.045, p_dc=0.0, e_d=0.033)
        assert yields(ch).y[0] == 0.0
        assert yields(ch).e[0] == 0.5

    def test_direct_formulas_at_the_reference_operating_point(self, channel):
        ch = channel.with_loss(10.0)
        ys = yields(ch)
        eta = 0.0045
        for n in (1, 2, 3):
            surv = 1.0 - (1.0 - eta) ** n
            y_ref = surv + 2e-7 - surv * 2e-7
            e_ref = (0.033 * surv + 0.5 * 2e-7) / y_ref
            assert ys.y[n] == pytest.approx(y_ref, rel=1e-12)
            assert ys.e[n] == pytest.approx(e_ref, rel=1e-12)

    @given(st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1.0)),
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=4000.0)),
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.1)),
           st.floats(min_value=0.0, max_value=0.5))
    @example(1.0, 0.0, 0.01, 0.03)  # eta = 1: every photon arrives
    @example(0.5, 4000.0, 0.0, 0.03)  # eta underflows, so Y_1 = 0
    @settings(max_examples=200)
    def test_bits_of_the_per_photon_number_formula(self, eta_bob, loss_db,
                                                   p_dc, e_d):
        # the survival term with the transmittance and log1p taken afresh
        # for every n, as eta_n computes it alone
        ch = ChannelParams(loss_db, eta_bob, p_dc, e_d)
        want = []
        for n in range(4):
            eta = 10.0 ** (-loss_db / 10.0) * eta_bob
            if eta >= 1.0:
                surv = 0.0 if n == 0 else 1.0
            else:
                surv = -math.expm1(n * math.log1p(-eta))
            y = surv + p_dc - surv * p_dc
            ey = e_d * surv + 0.5 * p_dc
            want.append((surv.hex(), y.hex(),
                         (ey / y if y > 0.0 else 0.5).hex()))
        ys = yields(ch)
        assert [(eta_n(ch, n).hex(), ys.y[n].hex(), ys.e[n].hex())
                for n in range(4)] == want

    @given(channels, st.integers(min_value=0, max_value=3))
    @settings(max_examples=200)
    def test_error_yield_product_identity(self, ch: ChannelParams, n: int):
        ys = yields(ch)
        lhs = ys.e[n] * ys.y[n]
        rhs = ch.e_d * eta_n(ch, n) + 0.5 * ch.p_dc
        if ys.y[n] == 0.0:
            assert rhs == 0.0
        else:
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    @given(channels)
    @settings(max_examples=200)
    def test_yields_increase_with_photon_number(self, ch: ChannelParams):
        ys = yields(ch)
        for a, b in zip(ys.y, ys.y[1:]):
            assert b >= a
        if transmittance(ch) > 0:
            assert ys.y[1] > ys.y[0]


class TestYieldsArray:
    @given(channels, st.lists(st.floats(min_value=0.0, max_value=200.0),
                              min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_matches_the_scalar_yields_to_a_few_ulp(self, ch, losses):
        y, e = yields_array(ch, np.array(losses))
        for k, loss in enumerate(losses):
            ys = yields(ch.with_loss(loss))
            # numpy's power/log1p/expm1 may round differently from math's
            np.testing.assert_allclose(y[:, k], ys.y, rtol=16 * EPS, atol=0)
            np.testing.assert_allclose(e[:, k], ys.e, rtol=16 * EPS, atol=0)

    def test_lossless_unit_receiver_and_zero_yield(self):
        ch = ChannelParams(loss_db=0.0, eta_bob=1.0, p_dc=0.0, e_d=0.0)
        y, e = yields_array(ch, np.array([0.0]))
        assert y[:, 0].tolist() == list(yields(ch).y) == [0.0, 1.0, 1.0, 1.0]
        assert e[:, 0].tolist() == list(yields(ch).e)

    @given(st.floats(min_value=1e-3, max_value=1.0),
           st.floats(min_value=0.0, max_value=0.1),
           st.floats(min_value=0.0, max_value=0.5),
           st.lists(st.one_of(st.just(0.0),
                              st.floats(min_value=0.0, max_value=80.0)),
                    min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_one_pass_equals_the_per_photon_number_loop(self, eta_bob, p_dc,
                                                        e_d, losses):
        # the (4, N) survival matrix in one expm1 call must keep the bits of
        # one numpy call per photon number, the lossless unit receiver too
        ch = ChannelParams(0.0, eta_bob, p_dc, e_d)
        loss = np.array(losses)
        eta = 10.0 ** (-loss / 10.0) * eta_bob
        with np.errstate(divide="ignore", invalid="ignore"):
            log_miss = np.log1p(-eta)
            want_y, want_e = [], []
            for n in range(4):
                surv = np.where(eta >= 1.0, float(n > 0),
                                -np.expm1(n * log_miss))
                y_n = surv + p_dc - surv * p_dc
                want_y.append(y_n)
                want_e.append(np.where(y_n > 0.0,
                                       (e_d * surv + 0.5 * p_dc) / y_n, 0.5))
        y, e = yields_array(ch, loss)
        assert np.array_equal(y, np.array(want_y))
        assert np.array_equal(e, np.array(want_e))


class TestGainAndQber:
    def test_vacuum_input_reads_the_dark_floor(self, channel: ChannelParams):
        rates = gain_and_qber(PhotonDistribution(1.0, 0.0, 0.0), channel)
        assert rates.q == channel.p_dc
        assert rates.e == 0.5

    def test_ideal_single_photons_on_an_ideal_link(self):
        ch = ChannelParams(loss_db=0.0, eta_bob=1.0, p_dc=0.0, e_d=0.033)
        rates = gain_and_qber(PhotonDistribution(0.0, 1.0, 0.0), ch)
        assert rates.q == 1.0
        assert rates.e == pytest.approx(0.033, rel=1e-15)

    def test_zero_gain_has_no_error_rate(self):
        ch = ChannelParams(loss_db=0.0, eta_bob=1.0, p_dc=0.0, e_d=0.0)
        with pytest.raises(InfeasibleObservablesError):
            gain_and_qber(PhotonDistribution(1.0, 0.0, 0.0), ch)

    def test_worked_single_intensity_point(self, channel, sps1):
        ch = channel.with_loss(10.0)
        ys = yields(ch)
        probs = sps1.as_tuple()
        q_ref = sum(p * y for p, y in zip(probs, ys.y))
        eq_ref = sum(p * y * e for p, y, e in zip(probs, ys.y, ys.e))
        rates = gain_and_qber(sps1, ch)
        assert rates.q == pytest.approx(q_ref, rel=1e-15)
        assert rates.e == pytest.approx(eq_ref / q_ref, rel=1e-15)

    def test_gains_are_summed_left_to_right_on_every_python(self):
        # a compensated sum (the built-in sum of floats from Python 3.12 on)
        # keeps the two 1e-16 terms that a left-to-right fold rounds away
        probs, y, e = (1.0, 1.0, 1.0), (1.0, 1e-16, 1e-16), (0.0, 0.0, 0.0)
        assert math.fsum(y) != 1.0
        assert weighted_gains(probs, y, e) == (1.0, 0.0)

    @given(channels, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_gain_is_linear_in_the_distribution(self, ch, lam):
        d1 = PhotonDistribution(0.5, 0.3, 0.2)
        d2 = PhotonDistribution(0.1, 0.6, 0.2, 0.1)
        mix = PhotonDistribution(
            *(lam * a + (1.0 - lam) * b
              for a, b in zip(d1.as_tuple(), d2.as_tuple())))
        if ch.p_dc == 0.0 and transmittance(ch) < 1e-12:
            return
        r1, r2, rm = (gain_and_qber(d, ch) for d in (d1, d2, mix))
        assert rm.q == pytest.approx(lam * r1.q + (1 - lam) * r2.q, rel=1e-9)
        assert rm.e * rm.q == pytest.approx(
            lam * r1.e * r1.q + (1 - lam) * r2.e * r2.q,
            rel=1e-9, abs=1e-300)


class TestWcsGainAndQber:
    def test_weak_pulses_hit_the_dark_floor(self, channel: ChannelParams):
        rates = wcs_gain_and_qber(1e-9, channel)
        assert rates.q == pytest.approx(channel.p_dc, rel=1e-3)

    def test_dark_free_gain_is_the_poisson_click_probability(self):
        ch = ChannelParams(loss_db=10.0, eta_bob=0.045, p_dc=0.0, e_d=0.033)
        rates = wcs_gain_and_qber(0.5, ch)
        assert rates.q == pytest.approx(-math.expm1(-0.0045 * 0.5), rel=1e-10)

    @pytest.mark.parametrize("form", [wcs_series, _wcs_closed_form],
                             ids=["series", "closed-form"])
    @pytest.mark.parametrize("mu", [0.05, 0.1, 0.48, 1.0, 2.0])
    @pytest.mark.parametrize("loss_db", [0.0, 10.0, 26.23])
    def test_series_matches_the_closed_forms(self, channel, mu, loss_db,
                                             form):
        # the formulas below are the oracle for the series and for the
        # package's own closed form, whose Y_1 and e_1 are the series';
        # abs=0, as E Q falls to 1e-7 where approx's default abs is 1e-12
        ch = channel.with_loss(loss_db)
        eta = transmittance(ch)
        q_ref = 1.0 - (1.0 - ch.p_dc) * math.exp(-eta * mu)
        eq_ref = ch.e_d * (1.0 - math.exp(-eta * mu)) + 0.5 * ch.p_dc
        sums, y1, e1 = form(ch)
        q, e = sums(mu, math.exp(-mu))
        assert q == pytest.approx(q_ref, rel=1e-10, abs=0)
        assert e * q == pytest.approx(eq_ref, rel=1e-10, abs=0)
        assert (y1, e1) == wcs_series(ch)[1:]

    @pytest.mark.parametrize("loss_db, order", [
        (12.5, (2.0, 0.01, 0.48)), (12.5, (0.01, 0.48, 2.0)),
        (7.0, (0.48, 30.0, 0.01))])
    def test_per_channel_terms_do_not_depend_on_the_call_order(self, channel,
                                                               loss_db, order):
        # the terms are filled as far as each call's series reaches, and
        # each value is the observed rates of wcs_gain_and_qber
        ch = channel.with_loss(loss_db)
        series = wcs_series(ch)[0]
        for mu in order:
            got = wcs_gain_and_qber(mu, ch)
            assert series(mu, math.exp(-mu)) == (got.q, got.e)

    def test_non_positive_mean_rejected(self, channel):
        with pytest.raises(ValueError):
            wcs_gain_and_qber(0.0, channel)
        with pytest.raises(ValueError):
            wcs_gain_and_qber(-0.1, channel)

    def test_a_mean_past_the_exp_underflow_is_rejected(self, channel):
        # exp(-800) is 0.0: the series would start from a zero weight and
        # never drain its tail
        for mu in (800.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"mu must lie in \(0, 700\]"):
                wcs_gain_and_qber(mu, channel)
        assert wcs_gain_and_qber(700.0, channel).q == pytest.approx(
            1.0 - (1.0 - channel.p_dc) * math.exp(-0.045 * 700.0), rel=1e-9)


class TestWcsSeriesArray:
    @given(st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1.0)),
           st.floats(min_value=0.0, max_value=0.1),
           st.floats(min_value=0.0, max_value=0.5),
           st.lists(st.one_of(st.just(0.0),
                              st.floats(min_value=0.0, max_value=80.0)),
                    min_size=1, max_size=10),
           st.lists(st.lists(st.floats(min_value=1e-9, max_value=60.0),
                             min_size=1, max_size=10),
                    min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_each_element_equals_the_scalar_series(self, eta_bob, p_dc, e_d,
                                                   losses, calls):
        # several calls on one series: a later, brighter call needs terms
        # that an earlier one did not build
        ch = ChannelParams(0.0, eta_bob, p_dc, e_d)
        series = wcs_series_array(ch, np.array(losses))[0]
        scalar = [wcs_series(ch.with_loss(loss))[0] for loss in losses]
        for mus in calls:
            idx = np.arange(len(mus)) % len(losses)
            mu = np.array(mus)
            weight = np.array([math.exp(-m) for m in mus])
            q, e = series(idx, mu, weight)
            want = [scalar[k](m, w) for k, m, w
                    in zip(idx.tolist(), mus, weight.tolist())]
            assert list(zip(q.tolist(), e.tolist())) == want

    @given(st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1.0)),
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.1)),
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5)),
           st.lists(st.one_of(st.just(0.0),
                              st.floats(min_value=0.0, max_value=4000.0)),
                    max_size=10))
    @example(1.0, 0.0, 0.03, [0.0, 4000.0])
    @settings(max_examples=100, deadline=None)
    def test_single_photon_terms_are_the_yields(self, eta_bob, p_dc, e_d,
                                                losses):
        # of the array and the scalar series; Y_1 = 0 (no dark counts, loss
        # past the float range of eta) keeps the e_1 = 1/2 of ``yields``
        ch = ChannelParams(0.0, eta_bob, p_dc, e_d)
        _, y1, e1 = wcs_series_array(ch, np.array(losses))
        want = [(ys.y[1], ys.e[1]) for ys in
                (yields(ch.with_loss(loss)) for loss in losses)]
        assert list(zip(y1.tolist(), e1.tolist())) == want
        assert [wcs_series(ch.with_loss(loss))[1:] for loss in losses] == want

    @pytest.mark.parametrize("p_dc, e_d, message", [
        (1.5, 0.0, "gain must lie in"), (0.0, 5.0, "error rate must lie in")])
    def test_rates_outside_the_unit_interval_raise_as_observed_rates(
            self, monkeypatch, p_dc, e_d, message):
        # channels built past their own checks
        monkeypatch.setattr(ChannelParams, "__post_init__", lambda self: None)
        ch = ChannelParams(0.0, 0.5, p_dc, e_d)
        with pytest.raises(ValueError, match=message):
            wcs_series(ch)[0](0.5, math.exp(-0.5))
        with pytest.raises(ValueError, match=message):
            wcs_series_array(ch, np.zeros(2))[0](
                np.arange(2), np.full(2, 0.5), np.full(2, math.exp(-0.5)))

    @given(st.lists(st.tuples(st.sampled_from([0, 1, 2]),
                              st.floats(min_value=1e-3, max_value=2.0),
                              st.one_of(st.none(),
                                        st.floats(min_value=1.0,
                                                  max_value=1e6))),
                    min_size=1, max_size=6),
           st.sampled_from([0.033, 5.0]))
    @example([(0, 0.5, None), (2, 0.5, 1e5)], 5.0)
    @example([(2, 0.5, 1e5), (0, 0.5, None)], 5.0)
    @settings(max_examples=100, deadline=None)
    def test_raises_as_a_loop_of_scalar_series(self, first_error, elements,
                                               e_d):
        # a weight of 1 or more stops the sum at n = 0 with Q = weight Y_0,
        # a gain past 1 from 1e3 on; e_d = 5 puts E past 1 where photons
        # arrive (not at 4000 dB); channels built past their own checks
        losses = np.array([0.0, 3.0, 4000.0])
        idx = np.array([k for k, _, _ in elements])
        mu = np.array([m for _, m, _ in elements])
        weight = np.array([math.exp(-m) if w is None else w
                           for _, m, w in elements])
        with mock.patch.object(ChannelParams, "__post_init__",
                               lambda self: None):
            ch = ChannelParams(0.0, 0.5, 1e-3, e_d)
            series = wcs_series_array(ch, losses)[0]
            scalar = [wcs_series(ch.with_loss(x))[0] for x in losses.tolist()]
        assert first_error([lambda: series(idx, mu, weight)]) == first_error(
            [lambda k=k, m=m, w=w: scalar[k](m, w) for k, m, w
             in zip(idx.tolist(), mu.tolist(), weight.tolist())])


class TestSeriesArrayRateCheck:
    rate = st.one_of(st.floats(min_value=-0.5, max_value=1.5),
                     st.just(math.nan))

    @given(st.lists(st.tuples(rate, rate), min_size=1, max_size=6))
    # a bad error rate before a bad gain
    @example([(0.5, 0.75), (1.5, 0.75)])
    @settings(max_examples=200)
    def test_raises_as_a_loop_of_observed_rates(self, first_error, channel,
                                                pairs):
        # each element's (Q, EQ) planted as its n = 0 terms: a vacuum
        # weight of 1 leaves no tail, so its sums stop there with those
        # values, and E = EQ / Q as the scalar series takes it
        q, eq = (np.array(v) for v in zip(*pairs))
        with mock.patch.object(channel_model, "_clicks", lambda *_: (q, eq)):
            series = wcs_series_array(channel, np.zeros(q.size))[0]
        ones = np.ones(q.size)
        assert first_error([lambda: series(np.arange(q.size), ones, ones)]
                           ) == first_error(
            [lambda q=q, eq=eq: ObservedRates(q, eq / q if q > 0.0 else 0.5)
             for q, eq in pairs])


class TestValidationAndSerialization:
    def test_channel_round_trip(self, channel: ChannelParams, tmp_path):
        # to_dict, written as JSON, reads back through the CLI's loader
        moved = channel.with_loss(12.5)
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(moved.to_dict()))
        assert cli.load_channel(str(path)) == moved
        assert set(channel.to_dict()) == {"loss_db", "eta_bob", "p_dc", "e_d"}

    def test_with_loss_replaces_only_the_attenuation(self, channel):
        moved = channel.with_loss(17.5)
        assert moved.loss_db == 17.5
        assert (moved.eta_bob, moved.p_dc, moved.e_d) == (
            channel.eta_bob, channel.p_dc, channel.e_d)

    @pytest.mark.parametrize("kwargs", [
        {"loss_db": -1.0},
        {"eta_bob": 0.0},
        {"eta_bob": 1.2},
        {"p_dc": 1.0},
        {"e_d": 0.6},
    ])
    def test_unphysical_channel_rejected(self, kwargs):
        base = {"loss_db": 0.0, "eta_bob": 0.045, "p_dc": 2e-7, "e_d": 0.033}
        with pytest.raises(ValueError):
            ChannelParams(**{**base, **kwargs})

    def test_rates_outside_the_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            ObservedRates(q=1.1, e=0.0)
        with pytest.raises(ValueError):
            ObservedRates(q=0.5, e=-0.01)
