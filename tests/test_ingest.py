"""Tomography-count ingestion: rates, decoy extraction, file formats."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spsqkd.channel_model import ChannelParams, ObservedRates, gain_and_qber
from spsqkd.errors import ConfigError, InconsistentDataError
from spsqkd.ingest import (
    FALLBACK_E0,
    FALLBACK_Y0,
    AliceBudget,
    TomographyMap,
    effective_channel,
    gains_and_errors,
    maps_from_report,
    read_tomography_csv,
    skr_from_experiment,
    synthetic_map,
    write_tomography_csv,
)
from spsqkd.montecarlo import IntensityTally, SimReport, run_dtb
from spsqkd.photon_source import PhotonDistribution
from spsqkd.protocols import skr_dtb, solve_dtb

VACUUM = PhotonDistribution(1.0, 0.0, 0.0)


@pytest.fixture(scope="session")
def budget() -> AliceBudget:
    return AliceBudget(rep_rate_n=2e6, eta_a=0.195, eta_c_na=0.1418)


@st.composite
def tally_counts(draw):
    """(sent, detected, errors) with errors <= detected <= sent."""
    sent = draw(st.integers(0, 10**12))
    detected = draw(st.integers(0, sent))
    return sent, detected, draw(st.integers(0, detected))


def square_map(counts: np.ndarray, exposure_s: float = 1.0,
               label: str = "S2", nd: float = 0.0) -> TomographyMap:
    return TomographyMap(counts=counts, exposure_s=exposure_s,
                         intensity_label=label, nd_filter_db=nd)


def tally_map(label: str, right: int, wrong: int,
              cross: int) -> TomographyMap:
    """A 1 s map at ND 0 whose every row has ``right`` clicks on Alice's
    detector, ``wrong`` on its conjugate and ``cross`` on each detector of
    the other basis."""
    counts = np.zeros((4, 4), dtype=np.int64)
    for i, j in enumerate((1, 0, 3, 2)):
        counts[i] = cross
        counts[i, i], counts[i, j] = right, wrong
    return square_map(counts, label=label)


class TestAliceBudget:
    def test_sent_rate_matches_the_transmitter_bookkeeping(self, budget):
        assert budget.sent_per_second == pytest.approx(55302.0, rel=1e-12)
        assert budget.sent(2.0) == pytest.approx(110604.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            AliceBudget(rep_rate_n=0.0, eta_a=0.195, eta_c_na=0.1418)
        with pytest.raises(ConfigError):
            AliceBudget(rep_rate_n=2e6, eta_a=1.5, eta_c_na=0.1418)


class TestTomographyMap:
    def test_cell_lookup(self):
        counts = np.arange(16).reshape(4, 4)
        tmap = square_map(counts)
        assert tmap.cell("H", "H") == 0
        assert tmap.cell("V", "H") == 4
        assert tmap.cell("A", "A") == 15

    def test_validation(self):
        with pytest.raises(ConfigError):
            square_map(np.zeros((3, 4), dtype=int))
        with pytest.raises(ConfigError):
            square_map(np.full((4, 4), -1))
        with pytest.raises(ConfigError):
            square_map(np.zeros((4, 4), dtype=int), exposure_s=0.0)


class TestCountsAreIntegers:
    """Each count is an integer in [0, 2^63 - 1]; a float passes only
    with an integer value, and no entry is cast."""

    # before: 2.7 became 2, NaN, inf and 1e30 warned and then failed as
    # negative, and "3.5" was a bare ValueError
    @pytest.mark.parametrize("value, message", [
        (2.7, "counts must be integers, not 2.7"),
        (math.nan, "counts must be integers, not nan"),
        (math.inf, "counts must be integers, not inf"),
        (1e30, "counts must fit int64"),
        ("3.5", "counts must be integers, not '3.5'"),
        (True, "counts must be integers, not True")],  # before: a count of 1
        ids=["fraction", "nan", "inf", "past-int64", "string", "bool"])
    def test_rejected_by_the_rule_they_break(self, value, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=re.escape(message)):
                square_map(np.full((4, 4), value))

    @pytest.mark.parametrize("counts, value", [
        (np.full((4, 4), 7.0), 7), (np.full((4, 4), 7, dtype=np.uint8), 7),
        ([[2**63 - 1] * 4] * 4, 2**63 - 1)],
        ids=["integral-floats", "uint8", "largest-python-int"])
    def test_integer_values_build_exactly_as_int64(self, counts, value):
        tmap = square_map(counts)
        assert tmap.counts.dtype == np.int64
        assert tmap.counts.tolist() == [[value] * 4] * 4


class TestGainsAndErrors:
    def test_hand_worked_matrix(self, budget):
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0] = 50   # H right
        counts[0, 1] = 10   # H wrong (conjugate)
        counts[1, 2] = 20   # V cross basis
        counts[2, 2] = 35   # D right
        counts[2, 3] = 5    # D wrong
        rates = gains_and_errors(square_map(counts, exposure_s=2.0), budget)
        sent = 2.0 * 55302.0
        assert rates.detected == 120
        assert rates.q == pytest.approx(120 / sent, rel=1e-12)
        assert rates.q_sigma == pytest.approx(math.sqrt(120) / sent, rel=1e-12)
        assert rates.matched == 100
        assert rates.e == pytest.approx(0.15, rel=1e-12)
        assert rates.e_sigma == pytest.approx(
            math.sqrt(0.15 * 0.85 / 100), rel=1e-12)

    def test_error_free_matrix(self, budget):
        counts = np.diag([100, 100, 100, 100])
        rates = gains_and_errors(square_map(counts), budget)
        assert rates.e == 0.0
        assert rates.e_sigma == pytest.approx(1.0 / 400)

    def test_cross_basis_detections_never_count_as_errors(self, budget):
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 2] = 500  # H -> D
        counts[0, 3] = 500  # H -> A
        counts[2, 0] = 500  # D -> H
        rates = gains_and_errors(square_map(counts), budget)
        assert rates.detected == 1500
        assert rates.matched == 0
        assert math.isnan(rates.e)
        assert rates.observed().e == 0.5

    def test_scaling_counts_and_exposure_together_changes_only_sigmas(
            self, budget):
        rng = np.random.default_rng(0)
        counts = rng.integers(10, 500, size=(4, 4))
        small = gains_and_errors(square_map(counts, exposure_s=1.0), budget)
        big = gains_and_errors(square_map(counts * 4, exposure_s=4.0), budget)
        assert big.q == pytest.approx(small.q, rel=1e-12)
        assert big.e == pytest.approx(small.e, rel=1e-12)
        assert big.q_sigma == pytest.approx(small.q_sigma / 2.0, rel=1e-12)
        assert big.e_sigma == pytest.approx(small.e_sigma / 2.0, rel=1e-9)

    def test_empty_matrix_keeps_a_finite_gain_scale(self, budget):
        rates = gains_and_errors(square_map(np.zeros((4, 4), dtype=int)),
                                 budget)
        assert rates.q == 0.0
        assert rates.q_sigma == pytest.approx(1.0 / 55302.0)
        assert math.isnan(rates.e)

    def test_synthetic_matrix_recovers_its_generator(self, budget):
        rng = np.random.default_rng(1234)
        q_true, e_true, sent = 2e-3, 0.04, 4_000_000
        tmap = synthetic_map(rng, q_true, e_true, sent,
                             exposure_s=sent / 55302.0,
                             intensity_label="S2", nd_filter_db=0.0)
        rates = gains_and_errors(tmap, budget)
        assert abs(rates.q - q_true) < 3.0 * math.sqrt(q_true / sent)
        assert abs(rates.e - e_true) < 3.0 * math.sqrt(
            e_true * (1 - e_true) / rates.matched)


class TestFileFormats:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(counts=st.lists(st.integers(0, 2**63 - 1), min_size=16,
                           max_size=16),
           exposure=st.floats(min_value=0.0, exclude_min=True,
                              allow_infinity=False),
           label=st.text(),
           nd=st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip(self, tmp_path, counts, exposure, label, nd):
        # the CSV and its sidecar hold every count, exposure, label and ND
        tmap = TomographyMap(counts=np.array(counts).reshape(4, 4),
                             exposure_s=exposure, intensity_label=label,
                             nd_filter_db=nd)
        path = tmp_path / "map.csv"
        write_tomography_csv(tmap, path)
        back = read_tomography_csv(path)
        assert np.array_equal(back.counts, tmap.counts)
        assert back.exposure_s == exposure
        assert back.intensity_label == label
        assert back.nd_filter_db == nd

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alice,bob,n\nH,H,5\n")
        path.with_suffix(".csv.json").write_text(json.dumps(
            {"exposure_s": 1.0, "intensity_label": "S1", "nd_filter_db": 0.0}))
        with pytest.raises(ConfigError, match="bad.csv"):
            read_tomography_csv(path)

    def test_unknown_state_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alice_state,bob_detector,counts\nH,X,5\n")
        path.with_suffix(".csv.json").write_text(json.dumps(
            {"exposure_s": 1.0, "intensity_label": "S1", "nd_filter_db": 0.0}))
        with pytest.raises(ConfigError):
            read_tomography_csv(path)

    def test_incomplete_sidecar_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("alice_state,bob_detector,counts\nH,H,5\n")
        path.with_suffix(".csv.json").write_text(json.dumps(
            {"exposure_s": 1.0}))
        with pytest.raises(ConfigError):
            read_tomography_csv(path)

    SIDECAR = {"exposure_s": 1.0, "intensity_label": "S1", "nd_filter_db": 0.0}

    @pytest.mark.parametrize("rows, sidecar", [
        ("H,H\n", SIDECAR),  # no count: int(None) raised TypeError
        ("H\n", SIDECAR),  # no detector: None.strip() raised AttributeError
        ("H,H,5\n", dict(SIDECAR, exposure_s=None)),  # float(None)
        ("H,H,5\n", [1.0, "S1", 0.0]),  # a list indexed by field name
        ("H,H,x\n", SIDECAR),  # int("x") raised ValueError
        ("H,H,-5\n", SIDECAR),  # rejected without naming the file
        # read before as the label 'None' or '7', an exposure of 2.0 and an
        # ND of 1.0
        ("H,H,5\n", dict(SIDECAR, intensity_label=None)),
        ("H,H,5\n", dict(SIDECAR, intensity_label=7)),
        ("H,H,5\n", dict(SIDECAR, exposure_s="2")),
        ("H,H,5\n", dict(SIDECAR, nd_filter_db=True)),
        # numbers out of TomographyMap's ranges, rejected without the file
        ("H,H,5\n", dict(SIDECAR, exposure_s=-1)),
        ("H,H,5\n", dict(SIDECAR, nd_filter_db=math.inf))],
        ids=["no-count", "no-detector", "null-exposure", "array-sidecar",
             "non-numeric-count", "negative-count", "null-label",
             "number-label", "text-exposure", "bool-nd", "negative-exposure",
             "infinite-nd"])
    def test_malformed_input_rejected_naming_the_file(self, tmp_path, rows,
                                                      sidecar):
        path = tmp_path / "m.csv"
        path.write_text("alice_state,bob_detector,counts\n" + rows)
        path.with_suffix(".csv.json").write_text(json.dumps(sidecar))
        with pytest.raises(ConfigError, match="m.csv"):
            read_tomography_csv(path)

    @pytest.mark.parametrize("rows, sidecar, name", [
        # json's bare ValueError
        (b"H,H,5\n", b"{exposure_s: 1.0}", r"m\.csv\.json: not JSON"),
        # a bare UnicodeDecodeError
        (b"H,H,\xff5\n", json.dumps(SIDECAR).encode(), r"m\.csv: not text")],
        ids=["sidecar-not-json", "csv-not-text"])
    def test_undecodable_input_rejected_naming_the_file(self, tmp_path, rows,
                                                        sidecar, name):
        path = tmp_path / "m.csv"
        path.write_bytes(b"alice_state,bob_detector,counts\n" + rows)
        path.with_suffix(".csv.json").write_bytes(sidecar)
        with pytest.raises(ConfigError, match=name):
            read_tomography_csv(path)

    def test_duplicate_rows_accumulate(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "alice_state,bob_detector,counts\nH,H,5\nH,H,7\n")
        path.with_suffix(".csv.json").write_text(json.dumps(
            {"exposure_s": 1.0, "intensity_label": "S2", "nd_filter_db": 0.0}))
        assert read_tomography_csv(path).cell("H", "H") == 12


class TestCountsPastInt64:
    """A count that int64 cannot hold is a ConfigError, and no sum of
    counts wraps."""

    @pytest.mark.parametrize("rows, line", [
        # a bare OverflowError
        ("H,H,99999999999999999999\n", 2),
        # wrapped, with a RuntimeWarning, into "counts must be non-negative"
        (f"H,H,{2**62}\nV,V,1\nH,H,{2**62}\n", 4)],
        ids=["one-row", "two-rows"])
    def test_rejected_naming_the_file_and_line(self, tmp_path, rows, line):
        path = tmp_path / "m.csv"
        path.write_text("alice_state,bob_detector,counts\n" + rows)
        path.with_suffix(".csv.json").write_text(json.dumps(
            TestFileFormats.SIDECAR))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError,
                               match=rf"m\.csv line {line}: \(H, H\) counts"):
                read_tomography_csv(path)

    def test_a_cell_past_int64_is_rejected(self):
        counts = [[0] * 4 for _ in range(4)]
        counts[2][3] = 2**63
        with pytest.raises(ConfigError, match="counts must fit int64"):
            TomographyMap(counts=counts, exposure_s=1.0, intensity_label="S1",
                          nd_filter_db=0.0)

    def test_sums_past_int64_do_not_wrap(self, budget):
        # the total and the trace wrapped to 0: q = 0 and e = 1.0
        tmap = TomographyMap(counts=np.full((4, 4), 2**62), exposure_s=1.0,
                             intensity_label="S1", nd_filter_db=0.0)
        rates = gains_and_errors(tmap, budget)
        assert rates.detected == 2**66 and rates.matched == 2**65
        assert rates.q == 2**66 / budget.sent(1.0) and rates.e == 0.5


@pytest.fixture(scope="module")
def pipeline(channel, bare_signal, bare_decoy, budget):
    """Simulated 6M-pulse runs at two ND settings, arranged as maps."""
    from spsqkd.montecarlo import SimConfig

    stats = {"S0": VACUUM, "S1": bare_decoy, "S2": bare_signal}
    maps = []
    for nd, seed in ((1.0, 100), (2.0, 101)):
        cfg = SimConfig(
            protocol="dtb", n_pulses=6_000_000, seed=seed,
            channel=channel.with_loss(nd),
            intensities={"s0": VACUUM, "s1": bare_decoy, "s2": bare_signal},
            intensity_weights={"s0": 1 / 3, "s1": 1 / 3, "s2": 1 / 3})
        report = run_dtb(cfg)
        maps.extend(maps_from_report(report, cfg, budget, nd, seed=seed))
    return maps, stats, {"reports_total": 12_000_000}


class TestExperimentExtraction:
    def test_map_totals_reproduce_the_tallies(self, channel, bare_signal,
                                              bare_decoy, budget):
        from spsqkd.montecarlo import SimConfig

        cfg = SimConfig(
            protocol="dtb", n_pulses=500_000, seed=55, channel=channel,
            intensities={"s1": bare_decoy, "s2": bare_signal},
            intensity_weights={"s1": 0.5, "s2": 0.5})
        report = run_dtb(cfg)
        maps = maps_from_report(report, cfg, budget, 0.0, seed=55)
        assert sorted(m.intensity_label for m in maps) == ["S1", "S2"]
        for m in maps:
            tally = report.tallies[m.intensity_label.lower()]
            assert int(m.counts.sum()) == tally.detected
            assert m.exposure_s * budget.sent_per_second == pytest.approx(
                tally.sent, rel=1e-12)
            wrong = sum(m.cell(a, b) for a, b in
                        (("H", "V"), ("V", "H"), ("D", "A"), ("A", "D")))
            assert wrong <= tally.errors

    # the explicit example has more clicks than numpy's hypergeometric takes
    @settings(max_examples=50, deadline=None)
    @example(tallies={"s3": (4_000_000_001, 4_000_000_001, 1)}, rep_rate=1.0,
             eta_a=1.0, eta_c_na=1.0, nd=0.0, seed=0)
    @given(tallies=st.dictionaries(st.sampled_from(["s0", "s1", "s2", "s3"]),
                                   tally_counts(), min_size=1),
           rep_rate=st.floats(1.0, 1e10),
           eta_a=st.floats(1e-6, 1.0), eta_c_na=st.floats(1e-6, 1.0),
           nd=st.floats(0.0, 30.0), seed=st.integers(0, 2**32 - 1))
    def test_maps_conserve_each_tally(self, tallies, rep_rate, eta_a,
                                     eta_c_na, nd, seed):
        report = SimReport(protocol="dtb", seed=0, n_pulses=0, tallies={
            k: IntensityTally(sent=s, detected=d, errors=e)
            for k, (s, d, e) in tallies.items()})
        budget = AliceBudget(rep_rate_n=rep_rate, eta_a=eta_a,
                             eta_c_na=eta_c_na)
        maps = maps_from_report(report, None, budget, nd, seed=seed)
        sent = {k: s for k, (s, _, _) in tallies.items() if s > 0}
        assert [m.intensity_label for m in maps] == \
            [k.upper() for k in sorted(sent)]
        for m in maps:
            sent_k, detected, _ = tallies[m.intensity_label.lower()]
            assert int(m.counts.sum()) == detected
            assert m.nd_filter_db == nd
            assert m.exposure_s * budget.sent_per_second == pytest.approx(
                sent_k, rel=1e-12)

    def test_extracted_rates_sit_on_the_analytic_curve(self, pipeline,
                                                       channel, bare_signal,
                                                       budget):
        maps, stats, _ = pipeline
        points = skr_from_experiment(maps, stats, budget)
        assert [p.loss_db for p in points] == [1.0, 2.0]
        for point in points:
            analytic = skr_dtb(bare_signal,
                               channel.with_loss(point.loss_db)).rate
            assert point.skr_sigma > 0.0
            assert abs(point.skr - analytic) < 3.0 * point.skr_sigma

    def test_effective_channel_recovers_the_receiver(self, pipeline, budget):
        maps, stats, _ = pipeline
        est = effective_channel(maps, stats, budget)
        assert est.eta_bob == pytest.approx(0.045, rel=0.05)
        assert est.e_d == pytest.approx(0.033, abs=0.005)
        assert 0.0 < est.p_dc < 1e-5

    def test_missing_intensity_map_is_rejected(self, pipeline, budget):
        maps, stats, _ = pipeline
        only_signal = [m for m in maps if m.intensity_label != "S1"]
        with pytest.raises(ConfigError):
            skr_from_experiment(only_signal, stats, budget)

    def test_missing_statistics_are_rejected(self, pipeline, budget):
        maps, stats, _ = pipeline
        with pytest.raises(ConfigError):
            skr_from_experiment(maps, {"S2": stats["S2"]}, budget)

    @pytest.mark.parametrize("case, error", [
        ("no-S1-map", ConfigError),
        ("no-S1-statistics", ConfigError),
        ("no-matched-basis-detections", InconsistentDataError)])
    def test_effective_channel_checks_inputs_like_the_key_rate(
            self, pipeline, budget, case, error):
        maps, stats, _ = pipeline
        if case == "no-S1-map":
            maps = [m for m in maps if m.intensity_label != "S1"]
        elif case == "no-S1-statistics":
            stats = {"S2": stats["S2"]}
        else:  # every S2 click lands in the other basis
            cross = np.array([[0, 0, 5, 5], [0, 0, 5, 5],
                              [5, 5, 0, 0], [5, 5, 0, 0]])
            maps = [square_map(cross, nd=m.nd_filter_db)
                    if m.intensity_label == "S2" else m for m in maps]
        with pytest.raises(error) as from_channel:
            effective_channel(maps, stats, budget)
        with pytest.raises(error) as from_rate:
            skr_from_experiment(maps, stats, budget)
        assert str(from_channel.value) == str(from_rate.value)

    @pytest.mark.parametrize("p_dc", [None, 1e-6])
    def test_effective_channel_without_maps_is_a_config_error(
            self, pipeline, budget, p_dc):
        # no ND group leaves nothing to average: no numpy warning first
        _, stats, _ = pipeline
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="no tomography maps"):
                effective_channel([], stats, budget, p_dc=p_dc)

    def test_duplicate_maps_are_rejected(self, pipeline, budget):
        maps, stats, _ = pipeline
        with pytest.raises(ConfigError):
            skr_from_experiment(maps + maps[:1], stats, budget)

    def test_vacuum_fallback_warns_and_proceeds(self, pipeline, budget):
        maps, stats, _ = pipeline
        no_vacuum = [m for m in maps if m.intensity_label != "S0"]
        with pytest.warns(UserWarning, match="falling back"):
            points = skr_from_experiment(no_vacuum, stats, budget)
        assert len(points) == 2

    def test_no_warning_with_a_vacuum_map(self, pipeline, budget):
        maps, stats, _ = pipeline
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            skr_from_experiment(maps, stats, budget)

    def test_error_free_low_count_map_takes_a_one_sided_difference(
            self, channel, bare_signal, bare_decoy, budget):
        # at ND 3 dB with 1.1e5 pulses per intensity, seed 97 draws an S1 map
        # without wrong detections: e = 0, and a central difference in e
        # would step to e = -sigma
        stats = {"S1": bare_decoy, "S2": bare_signal}
        at = channel.with_loss(3.0)
        rates = {"S0": ObservedRates(q=channel.p_dc, e=0.5),
                 "S1": gain_and_qber(bare_decoy, at),
                 "S2": gain_and_qber(bare_signal, at)}
        rng = np.random.default_rng(97)
        maps = [synthetic_map(rng, r.q, r.e, budget.sent(2.0), 2.0, label, 3.0)
                for label, r in rates.items()]
        decoy = gains_and_errors(maps[1], budget)
        assert decoy.e == 0.0 and decoy.e_sigma > 0.0
        (point,) = skr_from_experiment(maps, stats, budget)
        assert 0.0 < point.skr_sigma < point.skr

    def test_an_all_wrong_map_takes_a_one_sided_difference_at_the_top(
            self, bare_signal, bare_decoy, budget):
        # every matched click on the wrong detector: e = 1, and a central
        # difference in e would step to 1 + sigma, which ObservedRates
        # rejects with a ValueError
        stats = {"S1": bare_decoy, "S2": bare_signal}
        maps = [tally_map(label, 0, n, n)
                for label, n in (("S0", 1), ("S1", 30), ("S2", 200))]
        signal = gains_and_errors(maps[2], budget)
        assert signal.e == 1.0 and signal.e_sigma > 0.0
        (point,) = skr_from_experiment(maps, stats, budget)
        assert (point.skr, point.skr_sigma) == (0.0, 0.0)

    @pytest.mark.parametrize("step", range(4))
    def test_a_step_the_solve_rejects_adds_its_sigma_squared(
            self, monkeypatch, bare_signal, bare_decoy, budget, step):
        # the all-wrong maps give no key at and around the centre, so every
        # step contributes 0 unless the solve rejects it: then its sigma
        # stands in for the rate difference, and the variance is sigma**2
        stats = {"S1": bare_decoy, "S2": bare_signal}
        maps = [tally_map(label, 0, n, n)
                for label, n in (("S0", 1), ("S1", 30), ("S2", 200))]
        signal = gains_and_errors(maps[2], budget)
        decoy = gains_and_errors(maps[1], budget)
        centre = (signal.q, signal.e, decoy.q, decoy.e)
        sigmas = (signal.q_sigma, signal.e_sigma, decoy.q_sigma,
                  decoy.e_sigma)

        def solve_rejecting_the_step(signal_obs, decoy_obs, *args, **kw):
            at = (signal_obs.q, signal_obs.e, decoy_obs.q, decoy_obs.e)
            if at[step] != centre[step]:
                raise InconsistentDataError("step left the physical region")
            return solve_dtb(signal_obs, decoy_obs, *args, **kw)

        (base,) = skr_from_experiment(maps, stats, budget)
        assert base.skr_sigma == 0.0
        monkeypatch.setattr("spsqkd.ingest.solve_dtb",
                            solve_rejecting_the_step)
        (point,) = skr_from_experiment(maps, stats, budget)
        assert point.skr == base.skr
        assert point.skr_sigma ** 2 == pytest.approx(sigmas[step] ** 2,
                                                     rel=1e-15)

    def test_a_single_photon_yield_at_the_dark_level_is_inconsistent(
            self, bare_signal, bare_decoy, budget):
        # signal and decoy at half the vacuum's gain: the solve clamps Y1 to
        # 0, below the dark yield, so no receiver transmission fits
        stats = {"S1": bare_decoy, "S2": bare_signal}
        maps = [tally_map("S0", 10, 10, 10), tally_map("S1", 5, 5, 5),
                tally_map("S2", 5, 5, 5)]
        with pytest.raises(InconsistentDataError, match=(
                "^ND 0.0 dB: solved Y1 does not exceed the dark yield$")):
            effective_channel(maps, stats, budget)

    @pytest.mark.parametrize("nd, exposure_s", [
        (1.0, 20.0), (5.0, 20.0), (10.0, 60.0)])
    def test_the_sigma_is_the_spread_of_the_key_rate(
            self, channel, bare_signal, bare_decoy, budget, nd, exposure_s):
        # z = (skr - closed form) / skr_sigma over 300 seeded experiments of
        # 5,000 to 14,000 signal clicks; a complete first-order propagation
        # gives a spread near 1 (0.984 to 1.022 over these three settings)
        # and a mean near 0
        stats = {"S1": bare_decoy, "S2": bare_signal}
        at = channel.with_loss(nd)
        rates = {"S0": ObservedRates(q=channel.p_dc, e=0.5),
                 "S1": gain_and_qber(bare_decoy, at),
                 "S2": gain_and_qber(bare_signal, at)}
        closed = skr_dtb(bare_signal, at).rate
        z = []
        for seed in range(300):
            rng = np.random.default_rng(seed)
            maps = [synthetic_map(rng, r.q, r.e, budget.sent(exposure_s),
                                  exposure_s, label, nd)
                    for label, r in rates.items()]
            (point,) = skr_from_experiment(maps, stats, budget)
            z.append((point.skr - closed) / point.skr_sigma)
        assert 0.9 < np.std(z, ddof=1) < 1.1
        assert abs(np.mean(z)) < 0.2

    def test_fallback_constants_are_the_documented_receiver_values(self):
        assert FALLBACK_Y0 == 1.7e-6
        assert FALLBACK_E0 == 0.5
