"""Acceptance gate: one test per headline behavior, one verdict line each.

Each test computes its figure of merit from scratch, then hands a single
pass/fail line to the ``criterion`` fixture; the lines are echoed in a
terminal section after the run.  Tolerances are stated inline next to
the targets.

Tests 01, 02 and 10 currently fail, and the cause is not settled here:
each asks for a number that contradicts a criterion which passes on the
same model, and only the paper's equations and source tables can say
which side is right.

- 01 and 10 read the same decoy-state gains over the laser as 03 and 05.
  Of the ``f_ec`` pairings in {1.0, 1.1, 1.16, 1.22} for the decoy
  protocol and the laser, only 1.16/1.16 and 1.22/1.22 keep 03's
  break-even line in its bands; both give ``sps1`` 2.67-2.72 dB (01
  wants > 3) and ``bare-s2`` 1.23-1.31 dB (10 wants 1.5-2.5).  Test 10's
  pipeline agrees with the closed form (0.67 sigma; 1.23 dB extracted
  against 1.31 dB analytic).
- 02 measures purification against the infinite-decoy laser, whereas
  04, which passes, puts the break-even at p2 = 0.411 against the
  tagging-bound laser.  ``sps2`` sits only 0.017 above that threshold:
  it gains 0.17 dB over the tagged laser and loses 0.92 dB to the decoy
  laser.  ``f_ec`` = 1.22 on both sides of 04's comparison would give
  +0.65 dB, but would also move 04's thresholds out of their bands.

The failures carry the measured numbers; targets and tolerances stay as
stated.
"""

import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from spsqkd.analysis import (
    dtb_rate_fn,
    gamma_map_dtb,
    gamma_vs_efficiency,
    hp_rate_fn,
    hp_threshold,
    mcl,
    optimal_bs_transmission,
    wcs_mcl,
)
from spsqkd.channel_model import ObservedRates, gain_and_qber, yields
from spsqkd.ingest import (
    AliceBudget,
    effective_channel,
    maps_from_report,
    skr_from_experiment,
)
from spsqkd.montecarlo import SimConfig, empirical_g2, run_dtb
from spsqkd.photon_source import (
    PhotonDistribution,
    extract_distribution_g3,
    g2_of,
    g2_upper_bound,
    hp_transform,
)
from spsqkd.protocols import binary_entropy, skr_dtb, solve_dtb

VACUUM = PhotonDistribution(1.0, 0.0, 0.0)


def test_01_truncated_decoy_beats_the_coherent_baseline_by_3db(
        criterion, channel, sps1):
    start = time.perf_counter()
    ours = mcl(dtb_rate_fn(sps1, channel))
    baseline = wcs_mcl(channel)
    elapsed = time.perf_counter() - start
    gain = ours - baseline
    criterion(
        "01", gain > 3.0 and elapsed < 5.0,
        f"truncated-decoy MCL {ours:.4f} dB vs coherent {baseline:.4f} dB: "
        f"gain {gain:.4f} dB, required > 3.0 dB ({elapsed:.1f} s)")


def test_02_heralded_purification_gain_near_one_db(criterion, channel, sps2):
    start = time.perf_counter()
    ours = mcl(hp_rate_fn(sps2, channel, t=0.5, eta_d=0.9))
    baseline = wcs_mcl(channel)
    elapsed = time.perf_counter() - start
    gain = ours - baseline
    criterion(
        "02", abs(gain - 1.0) <= 0.5 and elapsed < 5.0,
        f"purified MCL {ours:.4f} dB vs coherent {baseline:.4f} dB: "
        f"gain {gain:.4f} dB, required 1.0 +/- 0.5 dB ({elapsed:.1f} s)")


def test_03_break_even_line_over_the_statistics_plane(criterion, channel):
    start = time.perf_counter()
    slope, intercept = gamma_map_dtb(channel, n=200).fit_zero_contour()
    elapsed = time.perf_counter() - start
    ok = (abs(slope - 1.125) <= 0.05 and abs(intercept - 0.1927) <= 0.01
          and elapsed < 300.0)
    criterion(
        "03", ok,
        f"break-even contour p1 = {slope:.4f} p2 + {intercept:.4f} on a "
        f"200x200 grid, required 1.125 +/- 0.05 and 0.1927 +/- 0.01 "
        f"({elapsed:.1f} s)")


def test_04_pair_weight_thresholds_for_purification(criterion, channel):
    ideal = hp_threshold(1.0, channel)
    realistic = hp_threshold(0.9, channel)
    ok = abs(ideal - 0.37) <= 0.02 and abs(realistic - 0.41) <= 0.02
    criterion(
        "04", ok,
        f"purification pays above p2 = {ideal:.4f} at unit herald "
        f"efficiency (required 0.37 +/- 0.02) and p2 = {realistic:.4f} at "
        f"0.9 (required 0.41 +/- 0.02)")


def test_05_collection_efficiency_break_even_and_headroom(
        criterion, channel, sps1):
    grid = [round(0.25 + 0.005 * i, 3) for i in range(21)]
    rows = gamma_vs_efficiency("dtb", "eta_c", grid, sps1, channel)
    crossing = math.nan
    for (lo, g_lo), (hi, g_hi) in zip(rows, rows[1:]):
        if g_lo < 0.0 <= g_hi:
            crossing = 0.5 * (lo + hi)
            break
    ((_, headroom),) = gamma_vs_efficiency("dtb", "eta_c", [0.7], sps1,
                                           channel)
    ok = abs(crossing - 0.30) <= 0.05 and headroom > 2.0
    criterion(
        "05", ok,
        f"truncated decoy breaks even at collection {crossing:.4f} "
        f"(required 0.30 +/- 0.05) and gains {headroom:.4f} dB at 0.7 "
        f"(required > 2)")


def test_06_statistics_recovered_from_correlation_observables(criterion):
    # The targets describe the bundled bare-s3 source (g2 = 0.7476), so its
    # own vacuum weight is the input: the triple fits its moment equations
    # only at p0 = 0.5655, and rounding p0 to 0.57 moves p3 by 4.6 %.
    path = resources.files("spsqkd").joinpath("fixtures/bare-s3.json")
    p0 = json.loads(path.read_text())["p0"]
    d = extract_distribution_g3(p0=p0, g2=0.747, g3=0.00065)
    ok = (abs(d.p1 - 0.3233) <= 0.0094
          and abs(d.p2 - 0.1112) <= 0.0207
          and abs(d.p3 - 1.77e-5) <= 5.2e-7)
    criterion(
        "06", ok,
        f"(p0, g2, g3) = ({p0}, 0.747, 0.00065), p0 of fixture bare-s3, "
        f"inverts to p1 = {d.p1:.4f} (0.3233 +/- 0.0094), p2 = {d.p2:.4f} "
        f"(0.1112 +/- 0.0207), p3 = {d.p3:.3g} (1.77e-5 +/- 5.2e-7)")


def test_07_purification_suppresses_two_photon_leakage(criterion, sps2):
    _, p2_tilde = hp_transform(sps2, t=0.5, eta_d=0.9, p_dc=2e-7)
    ok = abs(p2_tilde - 2.1e-8) <= 1e-9 and p2_tilde < 1e-7
    criterion(
        "07", ok,
        f"heralded two-photon probability {p2_tilde:.4g} per pulse, "
        f"required 2.1e-8 +/- 1e-9 and below 1e-7")


def test_08_solver_and_simulation_cross_checks(criterion, channel, sps1,
                                               bare_decoy):
    start = time.perf_counter()

    # (a) decoy inversion undoes the forward model on random instances
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(1000):
        ch = channel.__class__(
            loss_db=rng.uniform(0.0, 40.0), eta_bob=rng.uniform(0.01, 1.0),
            p_dc=10.0 ** rng.uniform(-9.0, -4.0),
            e_d=rng.uniform(0.001, 0.1))
        sig = PhotonDistribution(*rng.dirichlet((1.0, 1.0, 1.0)))
        dec = PhotonDistribution(*rng.dirichlet((1.0, 1.0, 1.0)))
        sol = solve_dtb(gain_and_qber(sig, ch), gain_and_qber(dec, ch),
                        gain_and_qber(VACUUM, ch), sig, dec)
        truth = yields(ch)
        for got, want in ((sol.y0, truth.y[0]), (sol.y1, truth.y[1]),
                          (sol.y2, truth.y[2]), (sol.e1, truth.e[1])):
            worst = max(worst, abs(got - want) / want)

    # (b) simulated gain and error sit within 3 sigma of the closed form
    cfg = SimConfig(protocol="dtb", n_pulses=1_000_000, seed=42,
                    channel=channel.with_loss(10.0),
                    intensities={"s1": bare_decoy, "s2": sps1},
                    intensity_weights={"s1": 0.5, "s2": 0.5})
    report = run_dtb(cfg)
    z_max = 0.0
    for label, dist in (("s1", bare_decoy), ("s2", sps1)):
        exact = gain_and_qber(dist, cfg.channel)
        tally = report.tallies[label]
        zq = abs(tally.detected - exact.q * tally.sent) / math.sqrt(
            exact.q * (1.0 - exact.q) * tally.sent)
        ze = abs(tally.errors - exact.e * tally.detected) / math.sqrt(
            exact.e * (1.0 - exact.e) * tally.detected)
        z_max = max(z_max, zq, ze)

    # (c) a Poissonian stream scores g2 = 1 within its block scatter
    stream = rng.poisson(0.7, size=1_000_000)
    g2 = empirical_g2(stream)
    blocks = [empirical_g2(chunk) for chunk in np.array_split(stream, 10)]
    sigma = np.std(blocks, ddof=1) / math.sqrt(len(blocks))
    z_g2 = abs(g2 - 1.0) / sigma

    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and z_max < 3.0 and z_g2 < 3.0 and elapsed < 60.0
    criterion(
        "08", ok,
        f"1000 decoy inversions match the forward model to {worst:.2e} "
        f"(required < 1e-9); simulated rates within {z_max:.2f} sigma "
        f"(< 3); Poisson g2 = {g2:.4f} at {z_g2:.2f} sigma (< 3) "
        f"({elapsed:.1f} s)")


def test_09_exact_special_values(criterion, channel):
    pair = g2_of(PhotonDistribution(p0=0.0, p1=0.0, p2=1.0))
    bound = g2_upper_bound(0.0)
    entropy = binary_entropy(0.5)
    balanced = optimal_bs_transmission(0.1, p_dc=0.0, eta_d=0.9,
                                       channel=channel)
    ok = (pair == 0.5 and bound == 0.5 and entropy == 1.0
          and balanced == 0.5)
    criterion(
        "09", ok,
        f"g2 of a pure pair = {pair} (0.5 exactly); g2 ceiling at p0 = 0 "
        f"is {bound} (0.5 exactly); H(0.5) = {entropy} (1 exactly); "
        f"dark-free optimal split = {balanced} (0.5 exactly)")


def test_10_synthetic_experiment_end_to_end(criterion, channel, bare_decoy,
                                            bare_signal):
    budget = AliceBudget(rep_rate_n=2e6, eta_a=0.195, eta_c_na=0.1418)
    stats = {"S0": VACUUM, "S1": bare_decoy, "S2": bare_signal}
    maps = []
    for nd, seed in ((1.0, 100), (2.0, 101)):
        cfg = SimConfig(
            protocol="dtb", n_pulses=6_000_000, seed=seed,
            channel=channel.with_loss(nd),
            intensities={"s0": VACUUM, "s1": bare_decoy, "s2": bare_signal},
            intensity_weights={"s0": 1 / 3, "s1": 1 / 3, "s2": 1 / 3})
        maps.extend(maps_from_report(run_dtb(cfg), cfg, budget, nd,
                                     seed=seed))

    points = skr_from_experiment(maps, stats, budget)
    z_curve = max(
        abs(p.skr - skr_dtb(bare_signal, channel.with_loss(p.loss_db)).rate)
        / p.skr_sigma for p in points)

    est = effective_channel(maps, stats, budget)
    extrapolated = mcl(dtb_rate_fn(bare_signal, est))
    baseline = wcs_mcl(est)
    gain = extrapolated - baseline
    analytic = mcl(dtb_rate_fn(bare_signal, channel)) - wcs_mcl(channel)

    ok = z_curve < 3.0 and abs(gain - 2.0) <= 0.5
    criterion(
        "10", ok,
        f"extracted key-rate points within {z_curve:.2f} sigma of the "
        f"closed form (< 3); extrapolated MCL gain {gain:.4f} dB over the "
        f"coherent baseline (analytic {analytic:.4f}), required "
        f"2.0 +/- 0.5 dB")
