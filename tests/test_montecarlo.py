"""Pulse-level simulator against the closed-form channel and source models."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from spsqkd.channel_model import ChannelParams, gain_and_qber, yields
from spsqkd.cli import load_source
from spsqkd.errors import ConfigError
from spsqkd.montecarlo import (
    SHARD_SIZE,
    SimConfig,
    _shards,
    SimReport,
    empirical_g2,
    run,
    run_dtb,
    run_hp,
)
from spsqkd.photon_source import PhotonDistribution, g2_of
from spsqkd.protocols import DEFAULT_ETA_D, DEFAULT_T, solve_dtb

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
        del data["t"], data["eta_d"]
        back = SimConfig.from_dict(data)
        assert (back.t, back.eta_d) == (DEFAULT_T, DEFAULT_ETA_D)

    def test_unknown_protocol(self, channel):
        with pytest.raises(ConfigError):
            SimConfig(protocol="bb84", n_pulses=10, seed=0, channel=channel)

    def test_pulse_count_positive(self, channel, sps1):
        with pytest.raises(ConfigError):
            dtb_config(channel, {"s": sps1}, 0, 0)

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


class TestConfigSerialization:
    def test_dtb_round_trip_through_json(self, channel, sps1, sps2):
        cfg = dtb_config(channel.with_loss(10.0), {"s1": sps1, "s2": sps2},
                         1000, 7)
        blob = json.dumps(cfg.to_dict())
        assert SimConfig.from_dict(json.loads(blob)) == cfg

    def test_hp_round_trip_through_json(self, channel, sps2):
        cfg = SimConfig(protocol="hp", n_pulses=1000, seed=3, channel=channel,
                        source=sps2, t=0.4, eta_d=0.8, p_dc_alice=1e-4)
        blob = json.dumps(cfg.to_dict())
        assert SimConfig.from_dict(json.loads(blob)) == cfg


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

    def test_threshold_detector_estimator_is_fair_for_poisson(self):
        # split Poisson light stays Poisson and independent on both arms,
        # so the hardware estimator is unbiased here at any efficiency
        rng = np.random.default_rng(4)
        stream = rng.poisson(0.5, size=1_000_000)
        est = empirical_g2(stream, rng=rng, eta=0.2)
        assert 0.9 < est < 1.1

    def test_threshold_detector_estimator_sees_antibunching(self, sps1):
        rng = np.random.default_rng(5)
        stream = rng.choice(4, size=10_000_000, p=list(sps1.as_tuple()))
        est = empirical_g2(stream, rng=rng, eta=0.05)
        assert est < 0.9

    def test_degenerate_streams_are_rejected(self):
        with pytest.raises(ValueError):
            empirical_g2(np.array([]))
        with pytest.raises(ValueError):
            empirical_g2(np.zeros(100, dtype=int))
        with pytest.raises(ValueError):
            empirical_g2(np.ones(100, dtype=int), eta=0.5)
        with pytest.raises(ValueError, match="no clicks on one arm"):
            empirical_g2(np.ones(100, dtype=int), rng=np.random.default_rng(0),
                         eta=0.0)
