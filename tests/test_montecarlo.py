"""Pulse-level simulator against the closed-form channel and source models."""

import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spsqkd import montecarlo
from spsqkd.channel_model import (ChannelParams, gain_and_qber,
                                  transmittance, yields)
from spsqkd.cli import load_source
from spsqkd.errors import ConfigError
from spsqkd.montecarlo import (
    _CHUNK,
    MAX_PULSES,
    SHARD_SIZE,
    IntensityTally,
    SimConfig,
    _cdf,
    _draw_at,
    _pick,
    _receive,
    _shards,
    _thin,
    SimReport,
    empirical_g2,
    run,
    run_dtb,
    run_hp,
)
from spsqkd.photon_source import PhotonDistribution, g2_of
from spsqkd.protocols import (DEFAULT_ETA_D, DEFAULT_T, herald_dark_rate,
                              solve_dtb)

VACUUM = PhotonDistribution(1.0, 0.0, 0.0)


def dtb_config(channel, dists: dict, n_pulses: int, seed: int,
               **kwargs) -> SimConfig:
    weights = {k: 1.0 / len(dists) for k in dists}
    return SimConfig(protocol="dtb", n_pulses=n_pulses, seed=seed,
                     channel=channel, intensities=dists,
                     intensity_weights=weights, **kwargs)


def zcheck(observed: int, trials: int, p: float) -> float:
    """z-score with the analytic binomial sigma (robust at tiny p)."""
    sigma = math.sqrt(p * (1.0 - p) * trials)
    return (observed - p * trials) / sigma


class TestConfigValidation:
    def test_herald_defaults_are_the_protocol_defaults(self, channel, sps2):
        cfg = SimConfig(protocol="hp", n_pulses=10, seed=0, channel=channel,
                        source=sps2)
        assert (cfg.t, cfg.eta_d) == (DEFAULT_T, DEFAULT_ETA_D)
        data = cfg.to_dict()
        assert (data["t"], data["eta_d"]) == (DEFAULT_T, DEFAULT_ETA_D)

    def test_unknown_protocol(self, channel):
        with pytest.raises(ConfigError):
            SimConfig(protocol="bb84", n_pulses=10, seed=0, channel=channel)

    def test_pulse_count_positive(self, channel, sps1):
        with pytest.raises(ConfigError):
            dtb_config(channel, {"s": sps1}, 0, 0)

    @pytest.mark.parametrize("field, value", [
        ("n_pulses", 2.5), ("n_pulses", True), ("n_pulses", "10"),
        ("n_pulses", 0), ("seed", 1.5), ("seed", True), ("seed", -1),
        ("seed", None)])
    def test_pulse_count_and_seed_are_integers(self, channel, sps2, field,
                                               value):
        kwargs = dict(protocol="hp", n_pulses=10, seed=0, channel=channel,
                      source=sps2)
        kwargs[field] = value
        low = 1 if field == "n_pulses" else 0
        with pytest.raises(ConfigError, match=re.escape(
                f"{field} must be an integer >= {low}, not {value!r}")):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("n_pulses", [MAX_PULSES + 1, 10**30])
    def test_pulse_count_is_capped(self, channel, sps1, sps2, n_pulses):
        # the configs only: nothing here runs a pulse
        hp = dict(protocol="hp", seed=0, channel=channel, source=sps2)
        assert SimConfig(n_pulses=MAX_PULSES, **hp).n_pulses == MAX_PULSES
        message = f"n_pulses must be at most {MAX_PULSES}, not {n_pulses}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            SimConfig(n_pulses=n_pulses, **hp)
        with pytest.raises(ConfigError, match=re.escape(message)):
            dtb_config(channel, {"s": sps1}, n_pulses, 0)

    def test_dtb_needs_intensities(self, channel):
        with pytest.raises(ConfigError):
            SimConfig(protocol="dtb", n_pulses=10, seed=0, channel=channel)

    def test_labels_and_weights_must_match(self, channel, sps1):
        with pytest.raises(ConfigError):
            SimConfig(protocol="dtb", n_pulses=10, seed=0, channel=channel,
                      intensities={"a": sps1}, intensity_weights={"b": 1.0})

    def test_weights_must_be_a_distribution(self, channel, sps1, sps2):
        with pytest.raises(ConfigError):
            SimConfig(protocol="dtb", n_pulses=10, seed=0, channel=channel,
                      intensities={"a": sps1, "b": sps2},
                      intensity_weights={"a": 0.6, "b": 0.6})

    @pytest.mark.parametrize("weights", [{"a": 1.5, "b": -0.5},
                                         {"a": math.nan, "b": 1.0},
                                         {"a": math.inf, "b": 0.0}],
                             ids=["negative", "nan", "inf"])
    def test_weights_must_be_finite_and_non_negative(self, channel, sps1,
                                                     sps2, weights):
        with pytest.raises(ConfigError, match="finite and >= 0"):
            SimConfig(protocol="dtb", n_pulses=10, seed=0, channel=channel,
                      intensities={"a": sps1, "b": sps2},
                      intensity_weights=weights)

    @pytest.mark.parametrize("pda", [5.0, -1.0, math.nan])
    def test_alice_dark_count_is_a_probability(self, channel, sps2, pda):
        with pytest.raises(ConfigError, match="p_dc_alice"):
            SimConfig(protocol="hp", n_pulses=10, seed=0, channel=channel,
                      source=sps2, p_dc_alice=pda)

    def test_photon_probabilities_must_be_non_negative(self, channel):
        # within PhotonDistribution's round-off tolerance, but not a
        # probability the simulator can draw from
        tiny = PhotonDistribution(p0=1.0 + 1e-13, p1=-1e-13, p2=0.0)
        with pytest.raises(ConfigError, match="probabilities must be >= 0"):
            dtb_config(channel, {"s": tiny}, 10, 0)
        with pytest.raises(ConfigError, match="probabilities must be >= 0"):
            SimConfig(protocol="hp", n_pulses=10, seed=0, channel=channel,
                      source=tiny)

    def test_hp_needs_a_source(self, channel):
        with pytest.raises(ConfigError):
            SimConfig(protocol="hp", n_pulses=10, seed=0, channel=channel)

    @pytest.mark.parametrize("kwargs", [{"t": 0.0}, {"t": 1.0},
                                        {"eta_d": 0.0}, {"eta_c": 1.5},
                                        {"eta_c": -0.1}, {"eta_c": math.nan}])
    def test_hp_parameter_domains(self, channel, sps2, kwargs):
        message = {"t": "t must lie in (0, 1)",
                   "eta_d": "eta_d must lie in (0, 1]",
                   "eta_c": "eta_c must lie in [0, 1]"}[next(iter(kwargs))]
        with pytest.raises(ConfigError, match=re.escape(message)):
            SimConfig(protocol="hp", n_pulses=10, seed=0, channel=channel,
                      source=sps2, **kwargs)

    def test_dispatchers_reject_the_wrong_protocol(self, channel, sps1, sps2):
        dtb = dtb_config(channel, {"s": sps1}, 10, 0)
        hp = SimConfig(protocol="hp", n_pulses=10, seed=0, channel=channel,
                       source=sps2)
        with pytest.raises(ConfigError):
            run_hp(dtb)
        with pytest.raises(ConfigError):
            run_dtb(hp)


# numpy's binomial at the ends of (0, 1] and around its flip at p = 1/2
EDGE_P = (0.0, 1.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
          5e-324, 1e-300, 1.0 - 2.0 ** -53)


def at_each_edge_p(test):
    for p in EDGE_P:
        test = example(size=2 * _CHUNK + 3, top=3, p=p, seed=0)(test)
    return test


def binomial_where_positive(rng, n, p):
    out = n.copy()
    idx = np.flatnonzero(n > 0)
    out[idx] = rng.binomial(n[idx], p)
    return out


class TestThin:
    """``_thin`` draws what ``rng.binomial`` on the photon numbers n > 0
    draws; this pins numpy's sampler beside the golden reports."""

    @given(size=st.integers(0, 3 * _CHUNK), top=st.integers(0, 3),
           p=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    @at_each_edge_p
    @example(size=1000, top=12, p=0.3, seed=1)  # past numpy's n = 10 bound
    @settings(max_examples=150, deadline=None)
    def test_draws_what_numpy_binomial_draws(self, size, top, p, seed):
        n = np.random.default_rng(seed).integers(0, top, size, dtype=np.int8,
                                                 endpoint=True)
        ours, theirs = (np.random.default_rng(seed + 1) for _ in range(2))
        assert np.array_equal(_thin(ours, n.copy(), p),
                              binomial_where_positive(theirs, n, p))
        assert ours.random() == theirs.random()

    def test_a_batch_where_numpy_draws_again_replays_numpy(self, monkeypatch):
        # every uniform passes every term, so every batch replays
        monkeypatch.setattr(montecarlo, "_inversion_table",
                            lambda n_max, p: np.full((n_max + 1,) * 2, -1.0))
        n = np.random.default_rng(2).integers(0, 3, 2 * _CHUNK + 7,
                                              dtype=np.int8, endpoint=True)
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        assert np.array_equal(_thin(ours, n.copy(), 0.7),
                              binomial_where_positive(theirs, n, 0.7))
        assert ours.random() == theirs.random()

    def test_a_million_photon_numbers_allocate_little(self):
        n = np.random.default_rng(4).integers(1, 3, 10 ** 6, dtype=np.int8,
                                              endpoint=True)
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            _thin(rng, n, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6


class TestJumps:
    """PCG64's ``advance`` reaches the value ``random`` would draw there;
    the shard loops skip the uniforms nothing reads on this identity."""

    @given(seed=st.integers(0, 2 ** 64 - 1), m=st.integers(1, 5000),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_advance_then_random_is_the_drawn_value(self, seed, m, data):
        stream = np.random.default_rng(seed)
        drawn, after = stream.random(m), stream.random()
        for k in data.draw(st.lists(st.integers(0, m - 1), min_size=1,
                                    max_size=5)):
            rng = np.random.default_rng(seed)
            rng.bit_generator.advance(k)
            assert rng.random() == drawn[k]
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(m)
        assert rng.random() == after

    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 3 * 2 ** 12),
           picks=st.lists(st.integers(0, 3 * 2 ** 12 - 1), max_size=8))
    @example(seed=0, m=2 ** 13, picks=[0, 2 ** 13 - 1])  # both ends, jumped
    @example(seed=1, m=2 ** 13, picks=[])
    @example(seed=2, m=2 ** 13, picks=[0, 1, 2])  # past the bound: drawn
    @settings(max_examples=60, deadline=None)
    def test_draw_at_reads_what_one_call_draws(self, seed, m, picks):
        idx = np.unique(np.array(picks, dtype=np.intp) % m)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _draw_at(ours, idx, np.empty(m))
        assert np.array_equal(got, theirs.random(m)[idx])
        assert ours.bit_generator.state == theirs.bit_generator.state


def full_mask_bob_clicks(rng, arrived, channel):
    """The clicks of ``_receive`` with a coin drawn for every pulse, as masks."""
    wrong = _thin(rng, arrived.copy(), channel.e_d)
    d_each = 1.0 - math.sqrt(1.0 - channel.p_dc)
    click_r = (arrived > wrong) | (rng.random(arrived.size) < d_each)
    click_w = (wrong > 0) | (rng.random(arrived.size) < d_each)
    coin = rng.random(arrived.size) < 0.5
    return click_r | click_w, np.where(click_r, click_w & coin, click_w)


def full_mask_run(config: SimConfig) -> SimReport:
    """``run`` drawing every uniform and tallying whole-shard masks."""
    eta = transmittance(config.channel)
    if config.protocol == "hp":
        return full_mask_hp(config, eta)
    labels = sorted(config.intensities)
    pick_label = _cdf([config.intensity_weights[k] for k in labels])
    pick_n = [_cdf(config.intensities[k].as_tuple()) for k in labels]
    tallies = {k: IntensityTally() for k in labels}
    for m, rng in _shards(config.n_pulses, config.seed):
        chosen = _pick(rng.random(m), pick_label)
        u, n, at = rng.random(m), np.empty(m, dtype=np.int8), 0
        for k, cdf in enumerate(pick_n):
            pos = np.flatnonzero(chosen == k)
            n[pos] = _pick(u[at:at + pos.size], cdf)
            at += pos.size
        if config.eta_c < 1.0:
            _thin(rng, n, config.eta_c)
        detected, error = full_mask_bob_clicks(rng, _thin(rng, n, eta),
                                               config.channel)
        sifted = detected & (rng.random(m) < 0.5)
        for k, t in enumerate(tallies.values()):
            mask = chosen == k
            t.sent += int(np.count_nonzero(mask))
            t.detected += int(np.count_nonzero(detected & mask))
            t.errors += int(np.count_nonzero(error & mask))
            t.sifted += int(np.count_nonzero(sifted & mask))
    return SimReport(protocol="dtb", seed=config.seed,
                     n_pulses=config.n_pulses, tallies=tallies)


def full_mask_hp(config: SimConfig, eta: float) -> SimReport:
    pda = herald_dark_rate(config.p_dc_alice, config.channel)
    pick_n = _cdf(config.source.as_tuple())
    tally, heralds = IntensityTally(), [0, 0, 0]
    for m, rng in _shards(config.n_pulses, config.seed):
        n = _pick(rng.random(m), pick_n)
        if config.eta_c < 1.0:
            _thin(rng, n, config.eta_c)
        reflected = _thin(rng, n.copy(), 1.0 - config.t)
        n -= reflected
        herald = _thin(rng, reflected, config.eta_d) > 0
        herald |= rng.random(m) < pda
        detected, error = full_mask_bob_clicks(rng, _thin(rng, n.copy(), eta),
                                               config.channel)
        kept = herald & detected
        tally.sent += m
        tally.detected += int(np.count_nonzero(kept))
        tally.errors += int(np.count_nonzero(error & kept))
        tally.sifted += int(np.count_nonzero(kept & (rng.random(m) < 0.5)))
        for j, mask in enumerate((herald, herald & (n == 1),
                                  herald & (n == 2))):
            heralds[j] += int(np.count_nonzero(mask))
    return SimReport(protocol="hp", seed=config.seed,
                     n_pulses=config.n_pulses, tallies={"s3": tally},
                     heralds=heralds[0], herald_and_one=heralds[1],
                     herald_and_two=heralds[2])


def full_mask_receive(rng, sent, eta, channel):
    """``_receive`` as masks: the channel thinning, ``full_mask_bob_clicks``
    and a sift draw for every pulse."""
    detected, error = full_mask_bob_clicks(rng, _thin(rng, sent, eta),
                                           channel)
    return detected, error, detected & (rng.random(sent.size) < 0.5)


class TestBobClicks:
    @given(sent=arrays(np.int8, st.integers(0, 3 * 2 ** 12),
                       elements=st.integers(0, 3)),
           eta=st.floats(0.0, 1.0), e_d=st.floats(0.0, 0.5),
           p_dc=st.sampled_from([0.0, 1e-4, 1e-2, 0.5, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    # no double click: every coin jumped over
    @example(sent=np.full(2 ** 13, 3, dtype=np.int8), eta=1.0, e_d=0.0,
             p_dc=0.0, seed=0)
    # double clicks at the first and last pulse only (at seed 3), jumped to
    @example(sent=np.array([3] + [0] * (3 * 2 ** 12 - 2) + [3],
                           dtype=np.int8), eta=1.0, e_d=0.5, p_dc=0.0, seed=3)
    # every pulse clicks twice: every coin drawn
    @example(sent=np.zeros(2 ** 13, dtype=np.int8), eta=1.0, e_d=0.0,
             p_dc=1.0, seed=0)
    @settings(max_examples=80, deadline=None)
    def test_clicks_equal_the_full_mask_form(self, sent, eta, e_d, p_dc, seed):
        # p_dc = 1 is past ChannelParams' range; _receive reads the two
        # fields only
        channel = SimpleNamespace(p_dc=p_dc, e_d=e_d)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        detected, error, sifted = _receive(ours, sent.copy(), eta, channel,
                                           np.empty(sent.size))
        want_detected, want_error, want_sifted = full_mask_receive(
            theirs, sent.copy(), eta, channel)
        assert np.array_equal(detected, np.flatnonzero(want_detected))
        assert np.array_equal(detected[error], np.flatnonzero(want_error))
        assert np.array_equal(detected[sifted], np.flatnonzero(want_sifted))
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_the_end_example_double_clicks_at_its_ends_only(self):
        m = 3 * 2 ** 12
        sent = np.zeros(m, dtype=np.int8)
        sent[[0, -1]] = 3
        rng = np.random.default_rng(3)
        arrived = _thin(rng, sent, 1.0)
        wrong = _thin(rng, arrived.copy(), 0.5)
        assert np.flatnonzero((arrived > wrong) & (wrong > 0)).tolist() == [
            0, m - 1]


class TestDtbSimulation:
    def test_lossless_ideal_link_detects_every_photon(self):
        ch = ChannelParams(loss_db=0.0, eta_bob=1.0, p_dc=0.0, e_d=0.0)
        perfect = PhotonDistribution(0.0, 1.0, 0.0)
        report = run_dtb(dtb_config(ch, {"s": perfect}, 10_000, 1))
        assert report.q("s") == 1.0
        assert report.e("s") == 0.0

    def test_gain_and_error_match_the_analytic_model(self, channel, sps1):
        ch = channel.with_loss(10.0)
        report = run_dtb(dtb_config(ch, {"s": sps1}, 1_000_000, 42))
        expected = gain_and_qber(sps1, ch)
        t = report.tallies["s"]
        assert abs(zcheck(t.detected, t.sent, expected.q)) < 3.0
        assert abs(zcheck(t.errors, t.detected, expected.e)) < 3.0

    def test_vacuum_intensity_reads_the_dark_floor(self, sps1):
        ch = ChannelParams(loss_db=0.0, eta_bob=0.045, p_dc=1e-3, e_d=0.033)
        report = run_dtb(dtb_config(ch, {"s0": VACUUM, "s": sps1},
                                    1_000_000, 5))
        t = report.tallies["s0"]
        assert abs(zcheck(t.detected, t.sent, 1e-3)) < 3.0
        assert abs(zcheck(t.errors, t.detected, 0.5)) < 3.0

    def test_sent_counts_partition_the_run(self, channel, sps1, sps2):
        report = run_dtb(dtb_config(channel, {"a": sps1, "b": sps2},
                                    300_000, 9))
        assert sum(t.sent for t in report.tallies.values()) == 300_000
        assert abs(zcheck(report.tallies["a"].sent, 300_000, 0.5)) < 3.0

    def test_sifting_keeps_half_of_the_detections(self, channel, sps1):
        report = run_dtb(dtb_config(channel.with_loss(10.0), {"s": sps1},
                                    1_000_000, 11))
        t = report.tallies["s"]
        assert abs(zcheck(t.sifted, t.detected, 0.5)) < 3.0

    def test_error_band_shrinks_with_the_square_root_of_pulses(self, channel,
                                                               sps1):
        ch = channel.with_loss(10.0)
        expected = gain_and_qber(sps1, ch)
        for n_pulses, seed in ((100_000, 21), (1_000_000, 22)):
            report = run_dtb(dtb_config(ch, {"s": sps1}, n_pulses, seed))
            t = report.tallies["s"]
            assert abs(zcheck(t.detected, t.sent, expected.q)) < 3.0

    def test_collection_efficiency_thins_the_source(self, channel, sps2):
        ch = channel.with_loss(5.0)
        report = run_dtb(dtb_config(ch, {"s": sps2}, 1_000_000, 13,
                                    eta_c=0.5), )
        from spsqkd.photon_source import apply_collection
        expected = gain_and_qber(apply_collection(sps2, 0.5), ch)
        t = report.tallies["s"]
        assert abs(zcheck(t.detected, t.sent, expected.q)) < 3.0

    def test_seed_reproducibility_and_sensitivity(self, channel, sps1):
        cfg = dtb_config(channel, {"s": sps1}, 150_000, 77)
        assert run_dtb(cfg).to_dict() == run_dtb(cfg).to_dict()
        other = dtb_config(channel, {"s": sps1}, 150_000, 78)
        assert run_dtb(other).to_dict() != run_dtb(cfg).to_dict()

    def test_shard_boundary_is_invisible(self, channel, sps1):
        report = run_dtb(dtb_config(channel, {"s": sps1}, SHARD_SIZE + 1, 4))
        assert report.tallies["s"].sent == SHARD_SIZE + 1

    def test_run_dispatches_by_protocol(self, channel, sps1):
        cfg = dtb_config(channel, {"s": sps1}, 50_000, 6)
        assert run(cfg).to_dict() == run_dtb(cfg).to_dict()


# Exact reports of small seeded runs, recorded before the shard loop was
# rewritten around the same draws.  They pin the draw order; never
# re-record them to absorb a change.
NOISY = ChannelParams(loss_db=3.0, eta_bob=0.9, p_dc=0.05, e_d=0.2)
SPS1, SPS2 = load_source("sps1"), load_source("sps2")
GOLDEN_RUNS = {
    # name: (config kwargs, {label: (sent, detected, errors, sifted)},
    #        hp (heralds, herald_and_one, herald_and_two) or None)
    "dtb-three-with-vacuum": (
        dict(protocol="dtb", n_pulses=300_000, seed=11, channel=NOISY,
             intensities={"s": SPS2, "d": SPS1, "v": VACUUM},
             intensity_weights={"s": 0.5, "d": 0.3, "v": 0.2}),
        {"d": (89852, 31692, 7504, 15677), "s": (150043, 79239, 17442, 39681),
         "v": (60105, 3046, 1484, 1489)}, None),
    "dtb-zero-weight": (
        dict(protocol="dtb", n_pulses=200_000, seed=12, channel=NOISY,
             intensities={"a": SPS1, "b": SPS2},
             intensity_weights={"a": 1.0, "b": 0.0}),
        {"a": (200000, 70553, 16738, 35200), "b": (0, 0, 0, 0)}, None),
    "dtb-collection-loss": (
        dict(protocol="dtb", n_pulses=200_000, seed=13, channel=NOISY,
             eta_c=0.6, intensities={"a": SPS1, "b": SPS2},
             intensity_weights={"a": 0.25, "b": 0.75}),
        {"a": (50068, 11646, 3063, 5803), "b": (149932, 53595, 12624, 26602)},
        None),
    "dtb-no-dark-no-misalignment": (
        dict(protocol="dtb", n_pulses=200_000, seed=14,
             channel=ChannelParams(loss_db=0.0, eta_bob=0.9, p_dc=0.0,
                                   e_d=0.0),
             intensities={"a": SPS1, "b": SPS2},
             intensity_weights={"a": 0.5, "b": 0.5}),
        {"a": (100282, 58906, 0, 29539), "b": (99718, 83317, 0, 41359)}, None),
    "hp-alice-dark-from-channel": (
        dict(protocol="hp", n_pulses=300_000, seed=15, channel=NOISY,
             source=SPS2, t=0.4, eta_d=0.8),
        {"s3": (300000, 31693, 8641, 15945)}, (166892, 52412, 1037)),
    "hp-alice-dark-set": (
        dict(protocol="hp", n_pulses=300_000, seed=16, channel=NOISY,
             eta_c=0.7, source=SPS2, t=0.6, eta_d=0.9, p_dc_alice=0.01),
        {"s3": (300000, 16905, 4673, 8344)}, (93169, 28088, 211)),
    "dtb-partial-last-shard": (
        dict(protocol="dtb", n_pulses=2_000_003, seed=17,
             channel=ChannelParams(loss_db=10.0, eta_bob=0.045, p_dc=2e-7,
                                   e_d=0.033),
             intensities={"s1": SPS1, "s2": SPS2},
             intensity_weights={"s1": 0.5, "s2": 0.5}),
        {"s1": (999914, 3399, 106, 1670), "s2": (1000089, 5826, 192, 2973)},
        None),
}


class TestExactReports:
    @pytest.mark.parametrize("name", GOLDEN_RUNS)
    def test_report_equals_the_golden(self, name):
        kwargs, tallies, herald = GOLDEN_RUNS[name]
        expected = {
            "protocol": kwargs["protocol"], "seed": kwargs["seed"],
            "n_pulses": kwargs["n_pulses"],
            "tallies": {k: dict(zip(("sent", "detected", "errors", "sifted"),
                                    v)) for k, v in sorted(tallies.items())},
        }
        if herald is not None:
            expected.update(zip(("heralds", "herald_and_one",
                                 "herald_and_two"), herald))
        assert run(SimConfig(**kwargs)).to_dict() == expected


class TestFullMaskReports:
    """Reports equal those of the loop that draws every uniform and tallies
    whole masks (``full_mask_run``): the vacuum's skipped slice, the coins
    reached by jumps and the herald tallies, beyond the goldens."""

    @given(n_pulses=st.integers(1, 20_000), seed=st.integers(0, 2 ** 32 - 1),
           p_dc=st.sampled_from([0.0, 1e-4, 1e-2, 0.5]),
           e_d=st.floats(0.0, 0.5), loss_db=st.floats(0.0, 10.0),
           eta_c=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_dtb_with_a_vacuum_label(self, n_pulses, seed, p_dc, e_d, loss_db,
                                     eta_c):
        ch = ChannelParams(loss_db=loss_db, eta_bob=0.5, p_dc=p_dc, e_d=e_d)
        cfg = SimConfig(protocol="dtb", n_pulses=n_pulses, seed=seed,
                        channel=ch, eta_c=eta_c,
                        intensities={"s0": VACUUM, "s1": SPS1, "s2": SPS2},
                        intensity_weights={"s0": 0.3, "s1": 0.35, "s2": 0.35})
        assert run(cfg).to_dict() == full_mask_run(cfg).to_dict()

    @given(n_pulses=st.integers(1, 20_000), seed=st.integers(0, 2 ** 32 - 1),
           p_dc=st.sampled_from([1e-4, 1e-2, 0.5, 0.9]),
           eta_c=st.floats(0.0, 1.0), t=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_hp_at_high_dark_rates(self, n_pulses, seed, p_dc, eta_c, t):
        ch = ChannelParams(loss_db=1.0, eta_bob=0.5, p_dc=p_dc, e_d=0.1)
        cfg = SimConfig(protocol="hp", n_pulses=n_pulses, seed=seed,
                        channel=ch, eta_c=eta_c, source=SPS2, t=t, eta_d=0.8)
        assert run(cfg).to_dict() == full_mask_run(cfg).to_dict()

    @pytest.mark.parametrize("protocol, p_dc", [("dtb", 1e-4), ("dtb", 0.5),
                                                ("hp", 1e-4), ("hp", 0.5)])
    def test_a_full_shard_and_a_short_one(self, protocol, p_dc):
        # the second shard uses the front of the first one's buffer
        ch = ChannelParams(loss_db=3.0, eta_bob=0.045, p_dc=p_dc, e_d=0.033)
        common = dict(protocol=protocol, n_pulses=SHARD_SIZE + 4099, seed=3,
                      channel=ch, eta_c=0.8)
        if protocol == "dtb":
            cfg = SimConfig(intensities={"s0": VACUUM, "s1": SPS1},
                            intensity_weights={"s0": 0.4, "s1": 0.6},
                            **common)
        else:
            cfg = SimConfig(source=SPS2, **common)
        assert run(cfg).to_dict() == full_mask_run(cfg).to_dict()


class TestShards:
    def test_children_are_those_of_one_spawn(self):
        n_pulses = 3 * SHARD_SIZE + 5
        children = np.random.SeedSequence(9).spawn(4)
        shards = list(_shards(n_pulses, 9))
        assert [m for m, _ in shards] == [SHARD_SIZE] * 3 + [5]
        for (_, rng), child in zip(shards, children, strict=True):
            assert rng.bit_generator.seed_seq.spawn_key == child.spawn_key
            assert (rng.bit_generator.state
                    == np.random.default_rng(child).bit_generator.state)

    def test_first_shard_of_a_huge_run_allocates_little(self):
        tracemalloc.start()
        try:
            m, _ = next(_shards(10**11, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m == SHARD_SIZE
        assert peak < 2**20


class TestDecoyRecovery:
    def test_solved_single_photon_yield_matches_the_channel(
            self, channel, bare_signal, bare_decoy):
        ch = channel.with_loss(10.0)
        n_pulses = 10_000_000
        report = run_dtb(dtb_config(ch, {"s0": VACUUM, "s1": bare_decoy,
                                         "s2": bare_signal}, n_pulses, 314))
        obs = {}
        var_q = {}
        for label in ("s0", "s1", "s2"):
            t = report.tallies[label]
            from spsqkd.channel_model import ObservedRates
            obs[label] = ObservedRates(q=report.q(label), e=report.e(label))
            var_q[label] = obs[label].q * (1 - obs[label].q) / t.sent
        sol = solve_dtb(obs["s2"], obs["s1"], obs["s0"], bare_signal,
                        bare_decoy, tol=math.inf)
        det = (bare_signal.p1 * bare_decoy.p2
               - bare_signal.p2 * bare_decoy.p1)
        dy0 = (bare_signal.p0 * bare_decoy.p2
               - bare_decoy.p0 * bare_signal.p2)
        sigma_y1 = math.sqrt(bare_decoy.p2 ** 2 * var_q["s2"]
                             + bare_signal.p2 ** 2 * var_q["s1"]
                             + dy0 ** 2 * var_q["s0"]) / abs(det)
        y1_true = yields(ch).y[1]
        assert abs(sol.y1 - y1_true) < 3.0 * sigma_y1
        # the error rate inherits the yield's relative noise; stay loose
        assert sol.e1 == pytest.approx(yields(ch).e[1], abs=0.02)


class TestHpSimulation:
    def test_joint_herald_tallies_match_the_closed_forms(self, channel, sps2):
        n_pulses = 20_000_000
        t, eta_d, pda = 0.5, 0.9, 1e-4
        cfg = SimConfig(protocol="hp", n_pulses=n_pulses, seed=2024,
                        channel=channel, source=sps2, t=t, eta_d=eta_d,
                        p_dc_alice=pda)
        report = run_hp(cfg)
        p1_ref = 2 * sps2.p2 * t * (1 - t) * (eta_d + pda) + t * sps2.p1 * pda
        p2_ref = t * t * sps2.p2 * pda
        assert abs(zcheck(report.herald_and_one, n_pulses, p1_ref)) < 3.0
        assert abs(zcheck(report.herald_and_two, n_pulses, p2_ref)) < 3.0

    def test_ideal_herald_never_passes_a_pair(self, channel, sps2):
        cfg = SimConfig(protocol="hp", n_pulses=2_000_000, seed=88,
                        channel=channel, source=sps2, t=0.5, eta_d=1.0,
                        p_dc_alice=0.0)
        report = run_hp(cfg)
        # both photons toward the channel means none reflected, and with
        # no dark counts the herald stays silent
        assert report.herald_and_two == 0
        assert report.herald_and_one > 0

    def test_herald_rate_at_the_symmetric_splitter(self, channel, sps2):
        cfg = SimConfig(protocol="hp", n_pulses=4_000_000, seed=91,
                        channel=channel, source=sps2, t=0.5, eta_d=0.9,
                        p_dc_alice=0.0)
        report = run_hp(cfg)
        # one of the pair reflected and detected: 2 t (1-t) p2 eta_d
        assert abs(zcheck(report.herald_and_one, 4_000_000,
                          0.5 * sps2.p2 * 0.9)) < 3.0

    def test_kept_detections_are_herald_gated(self, channel, sps2):
        cfg = SimConfig(protocol="hp", n_pulses=1_000_000, seed=17,
                        channel=channel, source=sps2)
        report = run_hp(cfg)
        t = report.tallies["s3"]
        assert t.detected <= report.heralds
        assert t.errors <= t.detected
        assert t.sent == 1_000_000

    def test_report_serializes_with_plain_integers(self, channel, sps2):
        cfg = SimConfig(protocol="hp", n_pulses=100_000, seed=5,
                        channel=channel, source=sps2)
        doc = run_hp(cfg).to_dict()
        blob = json.loads(json.dumps(doc))
        assert blob == doc
        assert isinstance(doc["heralds"], int)
        assert isinstance(doc["tallies"]["s3"]["detected"], int)


class TestEmpiricalG2:
    def test_single_photon_stream_has_no_coincidences(self):
        rng = np.random.default_rng(1)
        stream = rng.binomial(1, 0.5, size=10_000)
        assert empirical_g2(stream) == 0.0

    def test_poisson_stream_is_uncorrelated(self):
        rng = np.random.default_rng(2)
        stream = rng.poisson(0.7, size=1_000_000)
        blocks = stream.reshape(10, -1)
        vals = [empirical_g2(b) for b in blocks]
        sem = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(empirical_g2(stream) - 1.0) < 3.0 * sem

    def test_cascade_stream_matches_the_distribution_moment(self, sps1):
        rng = np.random.default_rng(3)
        stream = rng.choice(4, size=10_000_000,
                            p=list(sps1.as_tuple()))
        blocks = stream.reshape(10, -1)
        vals = [empirical_g2(b) for b in blocks]
        sem = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(empirical_g2(stream) - g2_of(sps1)) < 3.0 * sem

    def test_degenerate_streams_are_rejected(self):
        with pytest.raises(ValueError):
            empirical_g2(np.array([]))
        with pytest.raises(ValueError):
            empirical_g2(np.zeros(100, dtype=int))
