"""The package's key rates against a 50-digit model (``oracle``).

The goldens and the CLI cut-offs are pinned with ``==``, which says only
that the bits did not move.  These checks say the pinned bits are right:
each golden rate lies within a few ulp of the exact model, and each
golden cut-off is where the exact model's sign changes.  The laser's
goldens are checked against both the Poisson sum the package truncates
and the exact (closed-form) sum.  The moment inversion is checked on the
inputs whose results are pinned, and the herald on a grid of settings.
Random problems over the CLI's ranges check the MCL searches and the
laser's intensity away from the pinned points.
"""

import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from mpmath import mpf

import oracle
from spsqkd import analysis
from spsqkd.channel_model import ChannelParams, _wcs_closed_form
from spsqkd.errors import NoKeyError
from spsqkd.photon_source import (PhotonDistribution, extract_distribution_g3,
                                  g2_of, g3_of, hp_herald_probability,
                                  hp_transform)
from spsqkd.protocols import (DEFAULT_F_EC, DEFAULT_F_EC_TAGGING,
                              DEFAULT_Q_SIFT, _decoy_laser,
                              skr_wcs_infinite_decoy)

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
# The click probability's largest distance from the exact one, in ulp of
# the click probability: measured 3.04, small probabilities included.
HERALD_ULPS = 4
# The one-photon weight's largest distance from the oracle's weight with
# the same factor eta_d + p_dc, in ulp: measured 2.69.
HERALD_ONE_ULPS = 3


def test_the_herald_click_probability_lies_near_the_exact_one(
        bundled_sources):
    worst = 0
    for d in bundled_sources.values():
        for t, eta_d, p_dc in HERALD_GRID:
            exact = oracle.herald_click(d.as_tuple(), t, eta_d, p_dc)
            worst = max(worst, ulps(hp_herald_probability(d, t, eta_d, p_dc),
                                    exact))
    assert worst <= HERALD_ULPS


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


# Random problems over the CLI's ranges: a receiver with eta_bob 0.02-0.9,
# p_dc 1e-8-1e-4 (log-uniform) and e_d 0-0.05, and a source with p1
# 0.05-0.9, p2 up to min(0.5, 1 - p1) and p3 = 0.
receivers = st.builds(
    lambda eta_bob, log_p_dc, e_d: ChannelParams(0.0, eta_bob,
                                                 10.0 ** log_p_dc, e_d),
    st.floats(0.02, 0.9), st.floats(-8.0, -4.0), st.floats(0.0, 0.05))
weights = st.floats(0.05, 0.9).flatmap(
    lambda p1: st.tuples(st.just(p1), st.floats(0.0, min(0.5, 1.0 - p1))))

# A sign of the oracle may disagree with the kernel's only where the exact
# rate lies within this many units in the last place of the leakage
# q_sift Q f_ec H2(E), the term the kernel subtracts from one of the same
# size at a cut-off.  Each draw is counted as a hypothesis event, "inside
# the last-place bound" where either probe lies within it and "certified"
# otherwise (``pytest --hypothesis-show-statistics``).  Measured: the
# smallest |exact rate| at a probe was 3.0e8 ulp of the leakage over 4,500
# seeded draws of each search and 7,200 map cells, none inside the bound.
SIGN_ULPS = 16

# The three MCLs of the CLI's source protocols: (protocol, oracle params).
SEARCHES = {
    "dtb": {"q_sift": DEFAULT_Q_SIFT, "f_ec": DEFAULT_F_EC},
    "perfect-sps": {"q_sift": DEFAULT_Q_SIFT, "f_ec": DEFAULT_F_EC},
    "hp": {"q_sift": DEFAULT_Q_SIFT, "f_ec": DEFAULT_F_EC_TAGGING,
           "t": 0.5, "eta_d": 0.9}}


def certify(protocol: str, source, receiver, mcl_db: float) -> None:
    """Assert that the oracle's rate is > 0 at the MCL's floor and <= 0 one
    grid step above, unless the exact rate at that probe lies within
    SIGN_ULPS of the leakage, and record the draw as an event."""
    params = SEARCHES[protocol]
    probs = source.as_tuple()
    if protocol == "hp":
        probs = oracle.heralded(probs, params["t"], params["eta_d"],
                                receiver.p_dc)
    inside = False
    floor = mcl_db - STEP_DB / 2
    for loss, has_key in ((floor, True), (floor + STEP_DB, False)):
        channel = receiver.with_loss(loss)
        exact = oracle_raw(protocol, source, channel, params)
        bound = SIGN_ULPS * mpf(math.ulp(float(oracle.leakage(
            probs, channel, params["q_sift"], params["f_ec"]))))
        inside |= abs(exact) <= bound
        assert (exact > 0) == has_key or abs(exact) <= bound, (
            f"{protocol} {source} {receiver}: MCL {mcl_db!r}, oracle rate "
            f"{float(exact):.3e} at {loss!r} dB")
    event("inside the last-place bound" if inside else "certified")


@pytest.mark.parametrize("protocol", SEARCHES)
@given(receiver=receivers, p1_p2=weights)
@settings(max_examples=120, deadline=None)
def test_a_random_mcl_has_the_oracle_signs_at_its_floor_and_next_step(
        protocol, receiver, p1_p2):
    p1, p2 = p1_p2
    source = (PhotonDistribution(0.0, 1.0, 0.0) if protocol == "perfect-sps"
              else PhotonDistribution(max(1.0 - p1 - p2, 0.0), p1, p2))
    rate_fn = (analysis.hp_rate_fn(source, receiver, t=0.5, eta_d=0.9)
               if protocol == "hp" else analysis.dtb_rate_fn(source, receiver))
    try:
        mcl_db = analysis.mcl(rate_fn)
    except NoKeyError:
        event("no key")
        return
    certify(protocol, source, receiver, mcl_db)


@given(receiver=receivers, cells=st.lists(
    st.tuples(weights, st.floats(0.0, 60.0) | st.just(math.nan)),
    min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_gamma_map_cells_have_the_oracle_signs_at_floor_and_next_step(
        receiver, cells):
    # the map's lockstep search, each cell started cold or from a hint
    pairs, hints = zip(*cells)
    probs = analysis._source_array(*np.array(pairs).T)
    mcls, step = analysis._mcl_bracket(
        analysis.dtb_rate_array_fn(probs, receiver), len(cells),
        analysis.MCL_TOL_DB, np.array(hints))
    assert step == STEP_DB
    for k, mcl_db in enumerate(mcls.tolist()):
        if math.isnan(mcl_db):
            event("no key")
        else:
            certify("dtb", PhotonDistribution(*probs[:, k]), receiver, mcl_db)


# The laser's intensity search stops within 1e-6 of its optimum, and moving
# mu by 1e-4 of itself costs far more rate than that, so no such neighbour
# may have a higher exact rate.
@given(receiver=receivers, loss_db=st.floats(0.0, 30.0))
@settings(max_examples=20, deadline=None)
def test_the_laser_intensity_has_no_better_neighbour(receiver, loss_db):
    channel = receiver.with_loss(loss_db)
    found = skr_wcs_infinite_decoy(channel)
    if found.rate <= 0:
        event("no key")
        return
    rate = oracle.skr_wcs(channel, found.mu, DEFAULT_Q_SIFT, DEFAULT_F_EC)
    for j in range(-5, 6):
        mu = found.mu * (1 + j * 1e-4)
        assert oracle.skr_wcs(channel, mu, DEFAULT_Q_SIFT,
                              DEFAULT_F_EC) <= rate, (channel, found.mu, j)
    event("certified")
