"""The package's key rates against a 50-digit model (``oracle``).

The goldens and the CLI cut-offs are pinned with ``==``, which says only
that the bits did not move.  These checks say the pinned bits are right:
each golden rate lies within a few ulp of the exact model, and each
golden cut-off is where the exact model's sign changes.  The laser's
goldens are checked against both the Poisson sum the package truncates
and the exact (closed-form) sum.  The moment inversion is checked on the
inputs whose results are pinned, and the herald on a grid of settings.
"""

import json
import math
from importlib import resources

import numpy as np
import pytest
from mpmath import mpf

import oracle
from spsqkd.channel_model import _wcs_closed_form
from spsqkd.photon_source import (PhotonDistribution, extract_distribution_g3,
                                  g2_of, g3_of, hp_herald_probability,
                                  hp_transform)
from spsqkd.protocols import (DEFAULT_F_EC, DEFAULT_F_EC_TAGGING,
                              DEFAULT_Q_SIFT, _decoy_laser)

# Largest distance of a golden rate from the exact model, in units of the
# rate's ulp: measured at most 3.14 (perfect-sps at 20 dB), 4.1e-16 relative.
GOLDEN_ULPS = 4

# The laser goldens' distance from the Poisson sum cut off where the
# package cuts it: measured at most 3.37 ulp (wcs-tagged at 0 dB).
LASER_ULPS = 4
# Their relative distance from the exact sum, which the truncation sets:
# measured 1.7e-12 to 5.7e-12.
LASER_TRUNCATION = 1e-11
# The package's closed-form laser from the exact sum: measured at most
# 6.5 ulp (wcs at 30 dB).
CLOSED_FORM_ULPS = 8


def golden_records(protocols) -> list[dict]:
    """The records of ``fixtures/golden/rates.json`` with these protocols."""
    path = resources.files("spsqkd").joinpath("fixtures/golden/rates.json")
    return [rec for rec in json.loads(path.read_text())["records"]
            if rec["protocol"] in protocols]


def ulps(value: float, exact) -> float:
    """The distance of ``value`` from ``exact`` in units of its ulp."""
    return float(abs(mpf(value) - exact) / mpf(math.ulp(value)))

# The MCL search's grid step at the default tolerance, in dB.
STEP_DB = 25 / 4096


def oracle_raw(protocol: str, source, channel, params: dict):
    """The oracle's raw rate of one golden record's protocol and settings;
    the herald's dark rate is the channel's, as in ``skr_hp``'s default."""
    if protocol == "hp":
        return oracle.skr_hp(source.as_tuple(), channel, params["t"],
                             params["eta_d"], channel.p_dc, params["q_sift"],
                             params["f_ec"])
    return oracle.skr_dtb(source.as_tuple(), channel, params["q_sift"],
                          params["f_ec"])


def test_golden_source_rates_lie_within_a_few_ulp_of_the_exact_model(
        channel, bundled_sources):
    records = golden_records(("dtb", "hp", "perfect-sps"))
    assert len(records) == 12
    for rec in records:
        params = rec["params"]
        exact = max(oracle_raw(rec["protocol"],
                               bundled_sources[params["source"]],
                               channel.with_loss(rec["loss_db"]), params), 0)
        off = ulps(rec["skr"], exact)
        assert off <= GOLDEN_ULPS, (
            f"{rec['protocol']} at {rec['loss_db']} dB: {off:.2f} ulp")


def poisson_cutoff(mu: float) -> int:
    """The last photon number that the package's laser series sums at
    ``mu``, found by replaying its float rule: add the Poisson weights
    e^(-mu) mu^n / n! from n = 0 until the tail 1 - (their sum) drops
    below 1e-12."""
    weight = math.exp(-mu)
    tail = 1.0 - weight
    n = 0
    while not tail < 1e-12:
        n += 1
        weight *= mu / n
        tail -= weight
    return n


def oracle_laser(rec: dict, channel, n_max: int | None):
    """The oracle's rate of one laser record at its stored mu: cut off after
    ``n_max`` photons, or the exact sum with None."""
    fn = oracle.skr_wcs if rec["protocol"] == "wcs" else oracle.skr_wcs_tagged
    params = rec["params"]
    return max(fn(channel.with_loss(rec["loss_db"]), params["mu"],
                  params["q_sift"], params["f_ec"], n_max), 0)


def test_golden_laser_rates_lie_within_a_few_ulp_of_the_cut_off_sum(channel):
    records = golden_records(("wcs", "wcs-tagged"))
    assert len(records) == 8
    for rec in records:
        cut = oracle_laser(rec, channel, poisson_cutoff(rec["params"]["mu"]))
        off = ulps(rec["skr"], cut)
        assert off <= LASER_ULPS, (
            f"{rec['protocol']} at {rec['loss_db']} dB: {off:.2f} ulp")


def test_golden_laser_rates_lie_near_the_exact_sum(channel):
    for rec in golden_records(("wcs", "wcs-tagged")):
        exact = oracle_laser(rec, channel, None)
        rel = float(abs(mpf(rec["skr"]) - exact) / exact)
        assert rel <= LASER_TRUNCATION, (
            f"{rec['protocol']} at {rec['loss_db']} dB: {rel:.3g}")


def test_the_closed_form_laser_lies_within_a_few_ulp_of_the_exact_sum(
        channel):
    records = golden_records(("wcs",))
    assert len(records) == 4
    for rec in records:
        params = rec["params"]
        got = _decoy_laser(_wcs_closed_form, channel.with_loss(rec["loss_db"]),
                           mu=params["mu"], q_sift=params["q_sift"],
                           f_ec=params["f_ec"]).rate
        off = ulps(got, oracle_laser(rec, channel, None))
        assert off <= CLOSED_FORM_ULPS, (
            f"wcs at {rec['loss_db']} dB: {off:.2f} ulp")


# ``tests/test_cli.py::TestSkrCurve::test_golden_cutoffs``' pins, with each
# protocol's CLI settings: the MCL is the highest grid loss with key plus
# half a step.
CUTOFFS = [
    ("dtb", "sps1", 41.8731689453125, {"f_ec": DEFAULT_F_EC}),
    ("hp", "sps2", 38.2415771484375,
     {"t": 0.5, "eta_d": 0.9, "f_ec": DEFAULT_F_EC_TAGGING}),
    ("perfect-sps", "perfect", 45.3094482421875, {"f_ec": DEFAULT_F_EC})]


@pytest.mark.parametrize("protocol, source, cutoff_db, params", CUTOFFS,
                         ids=[c[0] for c in CUTOFFS])
def test_golden_cutoff_floors_have_key_and_the_next_step_none(
        channel, bundled_sources, protocol, source, cutoff_db, params):
    params = {"q_sift": DEFAULT_Q_SIFT, **params}
    floor = cutoff_db - STEP_DB / 2
    assert floor / STEP_DB == round(floor / STEP_DB)  # a grid loss
    rates = [oracle_raw(protocol, bundled_sources[source],
                        channel.with_loss(loss), params)
             for loss in (floor, floor + STEP_DB)]
    assert rates[0] > 0 >= rates[1]


# The moment inversion's largest distance from the exact weights, absolute:
# measured at most 4.18e-13 over the 640 pinned inputs, and 2.34e-15 above
# the {0, 1, 2} ceiling.
G3_PINNED = 5e-13
G3_ABOVE_CEILING = 5e-15


def g3_error(p0: float, g2: float, g3: float):
    """The largest distance of the package's (p1, p2, p3) from the
    oracle's."""
    got = extract_distribution_g3(p0, g2, g3)
    exact = oracle.g3_inversion(p0, g2, g3)
    return max(abs(mpf(v) - e) for v, e in zip(got.as_tuple()[1:], exact))


def test_the_pinned_inversions_lie_near_the_exact_weights():
    # the (p0, g2, g3) grid of test_a_grid_of_640_inversions_is_pinned
    worst = 0
    for p0 in np.linspace(0.3, 0.72, 10):
        for p2 in np.linspace(0.01, 0.08, 8):
            for p3 in np.linspace(0.001, 0.008, 8):
                d = PhotonDistribution(p0=float(p0), p1=1.0 - p0 - p2 - p3,
                                       p2=float(p2), p3=float(p3))
                worst = max(worst, g3_error(float(p0), g2_of(d), g3_of(d)))
    assert worst <= G3_PINNED


def test_a_full_newton_step_lands_on_the_exact_weights():
    # a Dirichlet draw on which a halved Newton step stops 9.9e-13 off
    assert g3_error(0.19093400230578414, 0.6179781217615278,
                    0.04616652224679825) <= 1e-15


def test_above_the_ceiling_the_inversion_lies_near_the_exact_weights():
    d = PhotonDistribution(0.5, 0.1, 0.35, 0.05)  # g2 1.108 > 1
    assert g3_error(d.p0, g2_of(d), g3_of(d)) <= G3_ABOVE_CEILING


# The herald over the bundled sources: (t, eta_d, p_dc) on this grid.
HERALD_GRID = [(t, eta_d, p_dc) for t in np.linspace(0.0, 1.0, 21).tolist()
               for eta_d in np.linspace(0.0, 1.0, 21).tolist()
               for p_dc in (0.0, 1e-8, 1e-6, 1e-4, 0.01, 0.1, 0.5, 0.9, 1.0)]
# The click probability's largest distance from the exact one, in units of
# 2^-53 (absolute): measured 1.68.  Relative to a small probability it is
# larger, since 1 - p_dc and 1 - (1 - t) eta_d round before they cancel.
HERALD_ABS = 2
# The one-photon weight's largest distance from the oracle's weight with
# the same factor eta_d + p_dc, in ulp: measured 2.69.
HERALD_ONE_ULPS = 3


def test_the_herald_click_probability_lies_near_the_exact_one(
        bundled_sources):
    worst = 0
    for d in bundled_sources.values():
        for t, eta_d, p_dc in HERALD_GRID:
            exact = oracle.herald_click(d.as_tuple(), t, eta_d, p_dc)
            got = hp_herald_probability(d, t, eta_d, p_dc)
            worst = max(worst, abs(mpf(got) - exact) * 2 ** 53)
    assert worst <= HERALD_ABS


def test_the_heralded_one_photon_weight_counts_the_herald_factor_twice(
        bundled_sources):
    # hp_transform takes eta_d + p_dc where a threshold herald fires with
    # eta_d + p_dc - eta_d p_dc: its p1~ lies off the exact weight by
    # 2 p2 (1 - t) t eta_d p_dc, which an exact herald would remove
    worst = 0
    for d in bundled_sources.values():
        for t, eta_d, p_dc in HERALD_GRID:
            got = hp_transform(d, t, eta_d, p_dc)[0]
            double = oracle.heralded(d.as_tuple(), t, eta_d, p_dc)[1]
            exact = oracle.heralded_one(d.as_tuple(), t, eta_d, p_dc)
            gap = 2 * mpf(d.p2) * (1 - mpf(t)) * mpf(t) * mpf(eta_d) * mpf(p_dc)
            ulp = mpf(math.ulp(got))
            worst = max(worst, abs(mpf(got) - double) / ulp,
                        abs(mpf(got) - exact - gap) / ulp)
    assert worst <= HERALD_ONE_ULPS
