"""Tomography count matrices to gains, error rates, and key-rate points.

The lab measures a 4x4 count matrix per excitation intensity and ND
setting: rows are Alice's prepared states (H, V, D, A), columns Bob's
detectors.  Dividing by the number of sent qubits -- repetition rate
times the transmitter's optical budget times exposure -- gives the gain;
wrong-detector counts over the matched-basis cells give the error rate.
Per-intensity rates then feed the exact decoy solve and the key-rate
bound, with counting uncertainties propagated by finite differences.

Input format: counts as CSV rows ``alice_state,bob_detector,counts``
with a JSON sidecar holding exposure and labels.  No dark-count
subtraction is applied to the raw matrices.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel_model import ChannelParams, ObservedRates
from .errors import ConfigError, InconsistentDataError, QkdError, _whole
from .photon_source import PhotonDistribution
from .protocols import (DEFAULT_F_EC, DEFAULT_Q_SIFT, skr_dtb_from_rates,
                        solve_dtb)

# Row and column order of the count matrices.  Index i's wrong-detector
# partner is i ^ 1; the other basis is the two indices j with
# j // 2 != i // 2.
STATES = ("H", "V", "D", "A")

# Vacuum-intensity constants used when no S0 map was recorded: the
# receiver's measured dark yield and the random error of dark clicks.
FALLBACK_Y0 = 1.7e-6
FALLBACK_E0 = 0.5

# The largest count that a matrix cell holds (int64).
_COUNT_MAX = np.iinfo(np.int64).max


def _count(value) -> int:
    """One tomography count as an int: an integer as is, a float only when
    its value is an integer (``errors._whole``, so not NaN or inf)."""
    try:
        return operator.index(_whole(value))
    except TypeError:
        raise ConfigError(f"counts must be integers, not {value!r}") from None


@dataclass(frozen=True, slots=True)
class TomographyMap:
    """One intensity's 4x4 tomography counts at one ND setting.

    Every count is an integer in [0, 2^63 - 1], so it fits int64 (their
    total need not): an integer, or a float with an integer value, and
    anything else, such as 2.7, NaN, inf or a string, is a ConfigError.
    """

    counts: np.ndarray
    exposure_s: float
    intensity_label: str
    nd_filter_db: float

    def __post_init__(self) -> None:
        cells = np.array(self.counts, dtype=object)  # each as given, exact
        if cells.shape != (4, 4):
            raise ConfigError("counts must be a 4x4 matrix")
        cells = [_count(value) for value in cells.flat]
        if min(cells) < 0:
            raise ConfigError("counts must be non-negative")
        if max(cells) > _COUNT_MAX:
            raise ConfigError(f"counts must fit int64: {max(cells)} is past "
                              f"{_COUNT_MAX}")
        arr = np.array(cells, dtype=np.int64).reshape(4, 4)
        if not 0.0 < self.exposure_s < math.inf:
            raise ConfigError("exposure_s must be positive and finite")
        if not math.isfinite(self.nd_filter_db):
            raise ConfigError("nd_filter_db must be finite")
        object.__setattr__(self, "counts", arr)

    def cell(self, alice: str, bob: str) -> int:
        return int(self.counts[STATES.index(alice), STATES.index(bob)])


@dataclass(frozen=True, slots=True)
class AliceBudget:
    """Transmitter bookkeeping converting exposure into sent qubits."""

    rep_rate_n: float
    eta_a: float
    eta_c_na: float

    def __post_init__(self) -> None:
        if not 0.0 < self.rep_rate_n < math.inf:
            raise ConfigError("rep_rate_n must be positive and finite")
        for name in ("eta_a", "eta_c_na"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"{name} must lie in (0, 1]")

    @property
    def sent_per_second(self) -> float:
        return self.rep_rate_n * self.eta_a * self.eta_c_na

    def sent(self, exposure_s: float) -> float:
        return self.sent_per_second * exposure_s

    @classmethod
    def from_dict(cls, data: dict) -> "AliceBudget":
        return cls(rep_rate_n=float(data["rep_rate_n"]),
                   eta_a=float(data["eta_a"]),
                   eta_c_na=float(data["eta_c_na"]))


@dataclass(frozen=True, slots=True)
class RatesWithSigma:
    """Observed gain and error rate with counting uncertainties."""

    q: float
    q_sigma: float
    e: float
    e_sigma: float
    detected: int
    matched: int

    def observed(self) -> ObservedRates:
        e = self.e if math.isfinite(self.e) else 0.5
        return ObservedRates(q=self.q, e=e)


@dataclass(frozen=True, slots=True)
class SkrPoint:
    """One extracted key-rate point at one channel attenuation."""

    protocol: str
    loss_db: float
    skr: float
    skr_sigma: float


def gains_and_errors(tmap: TomographyMap, budget: AliceBudget) -> RatesWithSigma:
    """Gain and matched-basis error rate of one tomography matrix.

    The gain counts every detection over the full matrix; the error rate
    uses only matched-basis cells (H/V rows against H/V columns, D/A
    against D/A), wrong-detector over total.  Uncertainties are Poisson
    per cell, first order: sqrt(detected)/sent for the gain, binomial for
    the error fraction.  With no matched-basis detections the error rate
    is NaN; callers decide how to proceed.
    """
    sent = budget.sent(tmap.exposure_s)
    cells = tmap.counts.tolist()  # Python ints, whose sums do not wrap
    detected = sum(map(sum, cells))
    q = detected / sent
    q_sigma = math.sqrt(detected) / sent if detected else 1.0 / sent

    wrong = sum(cells[i][i ^ 1] for i in range(len(STATES)))
    matched = sum(cells[i][i] for i in range(len(STATES))) + wrong
    if matched == 0:
        e = math.nan
        e_sigma = math.nan
    else:
        e = wrong / matched
        e_sigma = math.sqrt(max(e * (1.0 - e), 0.0) / matched)
        if e_sigma == 0.0:
            e_sigma = 1.0 / matched
    return RatesWithSigma(q=q, q_sigma=q_sigma, e=e, e_sigma=e_sigma,
                          detected=detected, matched=matched)


def _group_by_nd(maps: list[TomographyMap]) -> dict[float, dict[str, TomographyMap]]:
    grouped: dict[float, dict[str, TomographyMap]] = {}
    for tmap in maps:
        group = grouped.setdefault(tmap.nd_filter_db, {})
        if tmap.intensity_label in group:
            raise ConfigError(
                f"duplicate map for intensity {tmap.intensity_label} "
                f"at ND {tmap.nd_filter_db} dB")
        group[tmap.intensity_label] = tmap
    return grouped


def _solve_slack(signal: RatesWithSigma, decoy: RatesWithSigma,
                 vacuum: ObservedRates, s_stats: PhotonDistribution,
                 d_stats: PhotonDistribution) -> float:
    """Feasibility slack for the decoy solve under counting noise.

    The exact inversion amplifies counting noise by the inverse of the
    statistics determinant, so point estimates of the solved yields and
    error rates routinely land slightly outside [0, 1] on honest data.
    This propagates the observed sigmas through the linear solve and
    returns a 5-sigma band; the solve clamps within it and still
    rejects data that is genuinely inconsistent.
    """
    # solved first: its DegenerateDecoyError guards the divisions by det
    sol = solve_dtb(signal.observed(), decoy.observed(), vacuum,
                    s_stats, d_stats, tol=math.inf)
    det = abs(s_stats.p1 * d_stats.p2 - s_stats.p2 * d_stats.p1)
    eq_s = math.hypot(signal.e * signal.q_sigma, signal.q * signal.e_sigma)
    eq_d = math.hypot(decoy.e * decoy.q_sigma, decoy.q * decoy.e_sigma)
    s_y1 = math.hypot(d_stats.p2 * signal.q_sigma,
                      s_stats.p2 * decoy.q_sigma) / det
    s_y2 = math.hypot(s_stats.p1 * decoy.q_sigma,
                      d_stats.p1 * signal.q_sigma) / det
    s_y1e1 = math.hypot(d_stats.p2 * eq_s, s_stats.p2 * eq_d) / det
    s_y2e2 = math.hypot(s_stats.p1 * eq_d, d_stats.p1 * eq_s) / det
    # ratio sigmas, regularized: a yield consistent with zero must not
    # zero the scale of its error-rate uncertainty
    s_e1 = math.hypot(s_y1e1, sol.e1 * s_y1) / max(sol.y1, s_y1, 1e-300)
    s_e2 = math.hypot(s_y2e2, sol.e2 * s_y2) / max(sol.y2, s_y2, 1e-300)
    return 5.0 * max(s_y1, s_y2, s_e1, s_e2)


def _nd_groups(maps: list[TomographyMap],
               stats: dict[str, PhotonDistribution], budget: AliceBudget,
               ) -> Iterator[tuple[float, RatesWithSigma, RatesWithSigma,
                                   ObservedRates, float]]:
    """Checked decoy-solve inputs, one tuple per ND setting.

    Yields ``(nd, signal, decoy, vacuum, slack)`` in increasing ND: the
    S2 and S1 rates with their sigmas, the vacuum rates (from the S0 map,
    else the receiver fallback constants with a warning), and the solve
    slack.  Raises ConfigError for missing S1/S2 statistics or maps and
    InconsistentDataError when a map has no matched-basis detections.
    """
    for label in ("S1", "S2"):
        if label not in stats:
            raise ConfigError(f"missing photon statistics for {label}")
    for nd, group in sorted(_group_by_nd(maps).items()):
        for label in ("S1", "S2"):
            if label not in group:
                raise ConfigError(f"ND {nd} dB group lacks an {label} map")
        signal = gains_and_errors(group["S2"], budget)
        decoy = gains_and_errors(group["S1"], budget)
        if not (math.isfinite(signal.e) and math.isfinite(decoy.e)):
            raise InconsistentDataError(
                f"ND {nd} dB: no matched-basis detections; error rate undefined")
        if "S0" in group:
            vacuum = gains_and_errors(group["S0"], budget).observed()
        else:
            # level 3: the caller of the function iterating this generator
            warnings.warn(
                "no vacuum (S0) map recorded; falling back to the receiver "
                f"constants Y0={FALLBACK_Y0}, e0={FALLBACK_E0}", stacklevel=3)
            vacuum = ObservedRates(q=FALLBACK_Y0, e=FALLBACK_E0)
        slack = max(_solve_slack(signal, decoy, vacuum,
                                 stats["S2"], stats["S1"]), 1e-9)
        yield nd, signal, decoy, vacuum, slack


def skr_from_experiment(maps: list[TomographyMap],
                        stats: dict[str, PhotonDistribution],
                        budget: AliceBudget,
                        q_sift: float = DEFAULT_Q_SIFT,
                        f_ec: float = DEFAULT_F_EC) -> list[SkrPoint]:
    """Decoy key-rate points, one per ND setting, from tomography maps.

    Each ND group needs S1 (decoy) and S2 (signal) maps; an S0 map
    supplies the vacuum rates, otherwise the receiver fallback constants
    apply with a warning.  ``stats`` maps intensity labels to photon
    statistics as sent into the channel.  The returned sigma propagates
    the S1 and S2 gain and error-rate counting errors by finite differences
    (one-sided at the edge of [0, 1]) through the solve and the rate bound.
    """
    points: list[SkrPoint] = []
    for nd, signal, decoy, vacuum, slack in _nd_groups(maps, stats, budget):

        def rate(qs: float, es: float, qd: float, ed: float) -> float:
            signal_obs = ObservedRates(q=qs, e=es)
            sol = solve_dtb(signal_obs, ObservedRates(q=qd, e=ed), vacuum,
                            stats["S2"], stats["S1"], tol=slack)
            return skr_dtb_from_rates(signal_obs, y1=sol.y1, e1=sol.e1,
                                      p1_signal=stats["S2"].p1,
                                      q_sift=q_sift, f_ec=f_ec).rate

        center = (signal.q, signal.e, decoy.q, decoy.e)
        sigmas = (signal.q_sigma, signal.e_sigma,
                  decoy.q_sigma, decoy.e_sigma)
        r0 = rate(*center)
        var = 0.0
        for i, sig in enumerate(sigmas):
            lo, hi = list(center), list(center)
            lo[i] -= sig
            hi[i] += sig
            try:  # one-sided where a step would leave [0, 1]
                if lo[i] < 0.0:
                    dr = rate(*hi) - r0
                elif hi[i] > 1.0:
                    dr = r0 - rate(*lo)
                else:
                    dr = 0.5 * (rate(*hi) - rate(*lo))
            except QkdError:
                dr = sig  # perturbation left the physical region; bound it
            var += dr * dr
        points.append(SkrPoint(protocol="dtb", loss_db=nd, skr=r0,
                               skr_sigma=math.sqrt(var)))
    return points


def effective_channel(maps: list[TomographyMap],
                      stats: dict[str, PhotonDistribution],
                      budget: AliceBudget,
                      p_dc: float | None = None) -> ChannelParams:
    """Receiver parameters implied by the solved per-photon yields.

    For each ND group the decoy solve gives (Y1, e1); inverting the
    yield model at the known extra attenuation returns the receiver
    transmission eta_bob and misalignment e_d:

        eta_hat = (Y1 - Y0) / (1 - Y0) / 10**(-nd/10)
        e_d_hat = (e1 Y1 - Y0 / 2) / (Y1 - Y0)

    Estimates are averaged across ND groups.  ``p_dc`` defaults to the
    observed vacuum gain (or the fallback constant).  Inputs are checked
    as in ``skr_from_experiment``, and no maps at all is a ConfigError.
    """
    etas, eds, y0s = [], [], []
    for nd, signal, decoy, vacuum, slack in _nd_groups(maps, stats, budget):
        sol = solve_dtb(signal.observed(), decoy.observed(), vacuum,
                        stats["S2"], stats["S1"], tol=slack)
        scale = 10.0 ** (-nd / 10.0)
        y0 = sol.y0
        eta_ch = (sol.y1 - y0) / (1.0 - y0)
        if eta_ch <= 0.0:
            raise InconsistentDataError(
                f"ND {nd} dB: solved Y1 does not exceed the dark yield")
        etas.append(eta_ch / scale)
        eds.append((sol.e1 * sol.y1 - 0.5 * y0) / (sol.y1 - y0))
        y0s.append(y0)
    if not etas:
        raise ConfigError("no tomography maps: the channel needs at least "
                          "one ND group to solve")
    if p_dc is None:
        p_dc = float(np.mean(y0s))
    return ChannelParams(loss_db=0.0, eta_bob=float(np.mean(etas)),
                         p_dc=p_dc, e_d=float(np.clip(np.mean(eds), 0.0, 0.5)))


def read_tomography_csv(csv_path: str | Path) -> TomographyMap:
    """Load one tomography matrix from CSV plus its JSON sidecar.

    The CSV has a ``alice_state,bob_detector,counts`` header; missing
    cells default to zero.  Each row holds a state and a detector from
    ``STATES`` and a count of decimal digits; any other row, a short one
    included, is a ConfigError naming the file and line, and so is a row
    whose count takes its cell past int64; so is a CSV that cannot be
    decoded as text.  The sidecar ``<csv>.json`` must be JSON
    and define exposure_s, intensity_label, and nd_filter_db, or a
    ConfigError names it.
    """
    csv_path = Path(csv_path)
    sidecar = csv_path.with_suffix(csv_path.suffix + ".json")
    try:
        meta = json.loads(sidecar.read_text())
    except ValueError as exc:  # not JSON, or not text
        raise ConfigError(f"{sidecar}: not JSON: {exc}") from exc
    counts = np.zeros((4, 4), dtype=np.int64)
    try:
        with open(csv_path, newline="") as fh:
            reader = csv.DictReader(fh, restval="")  # a missing field: ""
            fields = ("alice_state", "bob_detector", "counts")
            if (reader.fieldnames is None
                    or set(reader.fieldnames) != set(fields)):
                raise ConfigError(f"{csv_path}: tomography CSV must have "
                                  f"columns {sorted(fields)}")
            for row in reader:
                a, b, n = (row[k].strip() for k in fields)
                if a not in STATES or b not in STATES or not n.isdecimal():
                    raise ConfigError(f"{csv_path} line {reader.line_num}: "
                                      f"bad row ({a}, {b}, {n})")
                cell = STATES.index(a), STATES.index(b)
                if int(counts[cell]) + int(n) > _COUNT_MAX:  # Python ints
                    raise ConfigError(f"{csv_path} line {reader.line_num}: "
                                      f"({a}, {b}) counts past {_COUNT_MAX}")
                counts[cell] += int(n)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{csv_path}: not text: {exc}") from exc
    try:
        return TomographyMap(counts=counts,
                             exposure_s=float(meta["exposure_s"]),
                             intensity_label=str(meta["intensity_label"]),
                             nd_filter_db=float(meta["nd_filter_db"]))
    except (KeyError, TypeError, ValueError) as exc:
        # a field missing, null or not a number, or a sidecar not an object
        raise ConfigError(f"{sidecar}: missing or bad field: {exc}") from exc


def write_tomography_csv(tmap: TomographyMap, csv_path: str | Path) -> None:
    csv_path = Path(csv_path)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alice_state", "bob_detector", "counts"])
        for a in STATES:
            for b in STATES:
                writer.writerow([a, b, tmap.cell(a, b)])
    sidecar = {"exposure_s": tmap.exposure_s,
               "intensity_label": tmap.intensity_label,
               "nd_filter_db": tmap.nd_filter_db}
    csv_path.with_suffix(csv_path.suffix + ".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=1) + "\n")


def _place_row(counts: np.ndarray, i: int, right: int, wrong: int,
               cross: int, rng: np.random.Generator) -> None:
    """Add detections to row ``i`` of ``counts``.

    ``right`` land on Alice's own detector, ``wrong`` on its conjugate,
    and ``cross`` split evenly, by one multinomial draw, over the two
    detectors of the other basis.
    """
    counts[i, i] += right
    counts[i, i ^ 1] += wrong
    others = [j for j in range(len(STATES)) if j // 2 != i // 2]
    counts[i, others] += rng.multinomial(cross, [0.5, 0.5])


def synthetic_map(rng: np.random.Generator, q: float, e: float,
                  sent: float, exposure_s: float, intensity_label: str,
                  nd_filter_db: float) -> TomographyMap:
    """Sample one tomography matrix from known gain and error rate.

    Alice cycles the four states evenly; Bob's basis matches half the
    time.  Matched-basis detections land on the wrong detector with
    probability ``e``; cross-basis detections split evenly.
    """
    counts = np.zeros((4, 4), dtype=np.int64)
    per_state = sent / 4.0
    for i in range(len(STATES)):
        detected = rng.binomial(int(round(per_state)), min(q, 1.0))
        right, wrong, cross = np.array([0.5 * (1 - e), 0.5 * e, 0.5])
        split = rng.multinomial(detected, [right, wrong, cross])
        _place_row(counts, i, *split, rng)
    return TomographyMap(counts=counts, exposure_s=exposure_s,
                         intensity_label=intensity_label,
                         nd_filter_db=nd_filter_db)


def maps_from_report(report, config, budget: AliceBudget,
                     nd_filter_db: float, seed: int) -> list[TomographyMap]:
    """Arrange simulated tallies into tomography matrices.

    Takes a decoy-protocol simulation report and splits each intensity's
    (sent, detected, errors) integers into a 4x4 matrix: states cycle
    evenly, matched-basis cells receive the simulated error fraction,
    cross-basis detections split evenly.  The exposure is back-computed
    so the sent-qubit bookkeeping reproduces the simulated pulse count.
    """
    rng = np.random.default_rng(seed)
    out = []
    for label, tally in sorted(report.tallies.items()):
        if tally.sent == 0:
            continue
        counts = np.zeros((4, 4), dtype=np.int64)
        for i in range(len(STATES)):
            # round-robin of n clicks: n // 4 per row, one more in the
            # first n % 4 rows, so the rows sum to n exactly
            det = (tally.detected + 3 - i) // 4
            err = min((tally.errors + 3 - i) // 4, det)
            # error flags and basis matching are independent, so the
            # wrong-detector count among matched clicks is hypergeometric;
            # past numpy's 1e9 population limit, the same law as two binomials
            if max(err, det - err) < 10**9:
                matched = int(rng.binomial(det, 0.5))
                wrong = (int(rng.hypergeometric(err, det - err, matched))
                         if matched and err else 0)
            else:
                wrong = int(rng.binomial(err, 0.5))
                matched = wrong + int(rng.binomial(det - err, 0.5))
            _place_row(counts, i, matched - wrong, wrong, det - matched, rng)
        exposure = tally.sent / budget.sent_per_second
        out.append(TomographyMap(counts=counts, exposure_s=exposure,
                                 intensity_label=label.upper(),
                                 nd_filter_db=nd_filter_db))
    return out
