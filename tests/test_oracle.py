"""The package's source key rates against a 50-digit model (``oracle``).

The goldens and the CLI cut-offs are pinned with ``==``, which says only
that the bits did not move.  These checks say the pinned bits are right:
each golden rate lies within a few ulp of the exact model, and each
golden cut-off is where the exact model's sign changes.
"""

import json
import math
from importlib import resources

import pytest
from mpmath import mpf

import oracle
from spsqkd.protocols import DEFAULT_F_EC, DEFAULT_F_EC_TAGGING, DEFAULT_Q_SIFT

# Largest distance of a golden rate from the exact model, in units of the
# rate's ulp: measured at most 3.14 (perfect-sps at 20 dB), 4.1e-16 relative.
GOLDEN_ULPS = 4

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
    path = resources.files("spsqkd").joinpath("fixtures/golden/rates.json")
    records = [rec for rec in json.loads(path.read_text())["records"]
               if rec["protocol"] in ("dtb", "hp", "perfect-sps")]
    assert len(records) == 12
    for rec in records:
        params = rec["params"]
        exact = max(oracle_raw(rec["protocol"],
                               bundled_sources[params["source"]],
                               channel.with_loss(rec["loss_db"]), params), 0)
        ulps = abs(mpf(rec["skr"]) - exact) / mpf(math.ulp(rec["skr"]))
        assert ulps <= GOLDEN_ULPS, (
            f"{rec['protocol']} at {rec['loss_db']} dB: {float(ulps):.2f} ulp")


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
