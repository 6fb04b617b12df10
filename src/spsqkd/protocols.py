"""Asymptotic secure-key-rate bounds for BB84 with sub-Poissonian sources.

Three transmitter configurations share one channel model:

* ``skr_dtb``     -- decoy-state analysis on the truncated {0, 1, 2} basis,
                     where modulating the pump gives per-intensity photon
                     statistics that let Bob's yields be solved exactly,
* ``skr_hp``      -- heralded purification: a beam splitter plus heralding
                     detector turns the source into an effective
                     distribution with strongly suppressed two-photon weight,
* ``skr_wcs_infinite_decoy`` -- the weak-coherent-state baseline with
                     infinite decoy states and an optimized intensity.

All bounds are per-pulse rates including the sifting factor ``q_sift``
(each rate function checks that it lies in (0, 1]) and an
error-correction inefficiency ``f_ec`` multiplying the leakage term.
Negative bounds are reported as a zero rate with the raw value attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel_model import (ChannelParams, ObservedRates, wcs_rates,
                            weighted_gains, yields, yields_array)
from .errors import DegenerateDecoyError, InconsistentDataError
from .photon_source import (PhotonDistribution, check_distribution_array,
                            hp_transform, hp_transform_array)
from .search import golden_max

# Defaults named once for every module and CLI flag: error correction costs
# f_ec 1.22 in the decoy bounds, 1 (ideal) in the tagging bounds of
# purification and the tagged laser; t and eta_d are the herald's.
DEFAULT_Q_SIFT = 0.5
DEFAULT_F_EC = 1.22
DEFAULT_F_EC_TAGGING = 1.0
DEFAULT_T = 0.5
DEFAULT_ETA_D = 0.9

# Solved yields may stray this far outside [0, 1] before the observations
# are declared inconsistent rather than numerically noisy.
_CLAMP_TOL = 1e-9
_DET_TOL = 1e-10


@dataclass(frozen=True, slots=True)
class SkrResult:
    """A key-rate bound: ``rate`` is ``max(0, raw)``."""

    rate: float
    raw: float
    mu: float | None = None


@dataclass(frozen=True, slots=True)
class DecoySolution:
    """Yields and error rates solved from signal/decoy/vacuum observations."""

    y0: float
    e0: float
    y1: float
    e1: float
    y2: float
    e2: float


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit with bias ``x``, in bits.

    >>> binary_entropy(0.5)
    1.0
    >>> binary_entropy(0.0)
    0.0
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _entropy_cost(x: float) -> float:
    # Monotone extension used inside rate bounds: an error rate beyond 1/2
    # is maximally costly (1 bit) instead of benefiting from H2's symmetry,
    # which zeroes the bound rather than rewarding absurd inputs.
    if x >= 0.5:
        return 1.0
    return binary_entropy(x)


def _entropy_cost_array(x: np.ndarray) -> np.ndarray:
    # _entropy_cost elementwise, with the same checks
    bad = ~(x >= 0.0)
    if bad.any():
        raise ValueError(f"binary entropy argument {float(x[bad][0])!r} "
                         "outside [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where(x >= 0.5, 1.0, np.where(x == 0.0, 0.0, h))


def _clamp_unit(value: float, what: str, tol: float = _CLAMP_TOL) -> float:
    if value < -tol or value > 1.0 + tol:
        raise InconsistentDataError(
            f"solved {what} = {value:.6g} lies outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)


def _check_q_sift(q_sift: float) -> None:
    if not 0.0 < q_sift <= 1.0:
        raise ValueError("q_sift must lie in (0, 1]")


def solve_dtb(signal: ObservedRates, decoy: ObservedRates, vacuum: ObservedRates,
              signal_stats: PhotonDistribution,
              decoy_stats: PhotonDistribution,
              tol: float = _CLAMP_TOL) -> DecoySolution:
    """Invert three intensity settings to per-photon-number yields.

    The vacuum setting gives (Y_0, e_0) directly; signal and decoy then
    form a 2x2 linear system for (Y_1, Y_2) and another for the error
    products (Y_1 e_1, Y_2 e_2).  On the truncated basis this inversion is
    exact, not a bound.  Raises DegenerateDecoyError when the two photon
    statistics are too close to separate the yields, and
    InconsistentDataError when the solved yields leave [0, 1] by more than
    ``tol`` (default 1e-9).  Values inside the widened band clamp to the
    boundary; callers working with counted data should pass a tolerance
    scaled to their statistical uncertainty.
    """
    for name, stats in (("signal", signal_stats), ("decoy", decoy_stats)):
        if stats.p3 != 0.0:
            raise ValueError(f"{name} statistics must live on the {{0,1,2}} basis")
    y0, e0 = vacuum.q, vacuum.e
    det = signal_stats.p1 * decoy_stats.p2 - signal_stats.p2 * decoy_stats.p1
    if abs(det) < _DET_TOL:
        raise DegenerateDecoyError(
            "signal and decoy statistics are linearly dependent; "
            f"determinant {det:.3e}")
    rhs_s = signal.q - signal_stats.p0 * y0
    rhs_d = decoy.q - decoy_stats.p0 * y0
    y1 = (rhs_s * decoy_stats.p2 - rhs_d * signal_stats.p2) / det
    y2 = (signal_stats.p1 * rhs_d - decoy_stats.p1 * rhs_s) / det
    y1 = _clamp_unit(y1, "yield Y1", tol)
    y2 = _clamp_unit(y2, "yield Y2", tol)

    erhs_s = signal.e * signal.q - signal_stats.p0 * y0 * e0
    erhs_d = decoy.e * decoy.q - decoy_stats.p0 * y0 * e0
    y1e1 = (erhs_s * decoy_stats.p2 - erhs_d * signal_stats.p2) / det
    y2e2 = (signal_stats.p1 * erhs_d - decoy_stats.p1 * erhs_s) / det
    e1 = _clamp_unit(y1e1 / y1, "error rate e1", tol) if y1 > 0.0 else 0.5
    e2 = _clamp_unit(y2e2 / y2, "error rate e2", tol) if y2 > 0.0 else 0.5
    return DecoySolution(y0=y0, e0=e0, y1=y1, e1=e1, y2=y2, e2=e2)


def skr_dtb_from_rates(signal: ObservedRates, y1: float, e1: float,
                       p1_signal: float, q_sift: float = DEFAULT_Q_SIFT,
                       f_ec: float = DEFAULT_F_EC) -> SkrResult:
    """Key-rate bound from the signal observation and solved (Y_1, e_1).

    R >= q_sift * (-Q_s f_ec H2(E_s) + Y_1 P_1 (1 - H2(e_1)))
    """
    _check_q_sift(q_sift)
    raw = _decoy_bound(signal.q, signal.e, y1 * p1_signal, e1, q_sift, f_ec,
                       _entropy_cost)
    return SkrResult(rate=max(raw, 0.0), raw=raw)


def _decoy_bound(q, e, q1, e1, q_sift, f_ec, h):
    # q_sift (-Q f_ec H(E) + Q_1 (1 - H(e_1))) with the entropy cost ``h``
    # (math or numpy); shared by the source, array and laser forms
    return q_sift * (-q * f_ec * h(e) + q1 * (1.0 - h(e1)))


def _tagging_bound(q, e, q1, q_sift, f_ec) -> tuple[float, float]:
    # (rate, raw) of the GLLP tagging bound, shared by skr_hp and the
    # tagged laser: omega = Q_1 / Q is clamped to 1 (InconsistentDataError
    # beyond 1 + 1e-9); with omega <= 0 only the leakage is left, rate 0
    omega = q1 / q
    if omega > 1.0 + _CLAMP_TOL:
        raise InconsistentDataError(f"single-photon fraction omega={omega:.6g} > 1")
    omega = min(omega, 1.0)
    if omega <= 0.0:
        return 0.0, -q_sift * q * f_ec * _entropy_cost(e)
    pa_term = omega * (1.0 - _entropy_cost(e / omega))
    raw = q_sift * q * (-f_ec * _entropy_cost(e) + pa_term)
    return max(raw, 0.0), raw


def skr_dtb(d: PhotonDistribution, channel: ChannelParams,
            q_sift: float = DEFAULT_Q_SIFT, f_ec: float = DEFAULT_F_EC) -> SkrResult:
    """Asymptotic decoy-state bound for signal statistics ``d``.

    In the asymptotic noiseless limit the decoy inversion recovers the
    channel-model yields exactly (see ``solve_dtb``'s round-trip identity),
    so the forward model feeds the bound directly.
    """
    _check_q_sift(q_sift)
    ys = yields(channel, n_max=3)
    q_s, eq = weighted_gains(d.as_tuple(), ys.y, ys.e)
    if q_s <= 0.0:
        return SkrResult(rate=0.0, raw=0.0)
    signal = ObservedRates(q=q_s, e=eq / q_s)
    return skr_dtb_from_rates(signal, y1=ys.y[1], e1=ys.e[1], p1_signal=d.p1,
                              q_sift=q_sift, f_ec=f_ec)


def skr_dtb_array(probs: np.ndarray, channel: ChannelParams,
                  loss_db: np.ndarray, q_sift: float = DEFAULT_Q_SIFT,
                  f_ec: float = DEFAULT_F_EC) -> np.ndarray:
    """``skr_dtb(...).rate`` of many signals, each at its own loss.

    Column k of ``probs`` (shape (4, N), rows p0..p3, already checked as
    distributions) is evaluated on ``channel.with_loss(loss_db[k])``.  The
    arithmetic and the ``ObservedRates`` checks are those of ``skr_dtb``;
    numpy's log/exp may round differently from ``math`` in the last place,
    so rates can differ from ``skr_dtb`` by a few ulp.  A single
    evaluation is ten times faster through ``skr_dtb``.
    """
    _check_q_sift(q_sift)
    y, e = yields_array(channel, loss_db)
    q_s, eq = weighted_gains(probs, y, e)
    detected = ~(q_s <= 0.0)
    if not np.all((0.0 <= q_s[detected]) & (q_s[detected] <= 1.0)):
        raise ValueError("gain must lie in [0, 1]")
    e_s = np.divide(eq, q_s, out=np.zeros_like(eq), where=detected)
    if not np.all((0.0 <= e_s) & (e_s <= 1.0)):
        raise ValueError("error rate must lie in [0, 1]")
    raw = _decoy_bound(q_s, e_s, y[1] * probs[1], e[1], q_sift, f_ec,
                       _entropy_cost_array)
    return np.where(detected, np.maximum(raw, 0.0), 0.0)


def herald_dark_rate(p_dc_alice: float | None, channel: ChannelParams) -> float:
    """The herald's dark-count probability: ``p_dc_alice``, else the channel's."""
    return channel.p_dc if p_dc_alice is None else p_dc_alice


def hp_effective_distribution(d: PhotonDistribution, t: float, eta_d: float,
                              p_dc_alice: float) -> PhotonDistribution:
    """Effective per-pulse distribution sent onward by the purification stage.

    The heralding beam splitter maps the source onto the joint
    probabilities of (herald, n photons toward the channel) for n = 1, 2;
    every other pulse contributes vacuum, since un-heralded pulses are
    discarded from the key and heralded-vacuum pulses carry nothing.
    """
    p1t, p2t = hp_transform(d, t, eta_d, p_dc_alice)
    return PhotonDistribution(p0=1.0 - p1t - p2t, p1=p1t, p2=p2t)


def skr_hp(d: PhotonDistribution, channel: ChannelParams,
           t: float = DEFAULT_T, eta_d: float = DEFAULT_ETA_D,
           p_dc_alice: float | None = None, q_sift: float = DEFAULT_Q_SIFT,
           f_ec: float = DEFAULT_F_EC_TAGGING) -> SkrResult:
    """Heralded-purification bound for source statistics ``d``.

    The effective distribution is forward-modeled through the channel; the
    single-photon fraction of the gain,

        omega = p1_tilde Y_1 / Q_s,

    bounds the untagged events and the rate is

        R >= q_sift Q_s (-f_ec H2(E_s) + omega (1 - H2(E_s / omega))).

    ``f_ec`` defaults to 1 here (the purification bound is stated with
    ideal error correction); pass ``DEFAULT_F_EC`` to match the decoy-state
    accounting.  ``p_dc_alice`` defaults to the channel's dark-count
    probability (``herald_dark_rate``).
    """
    _check_q_sift(q_sift)
    eff = hp_effective_distribution(d, t, eta_d,
                                    herald_dark_rate(p_dc_alice, channel))
    ys = yields(channel, n_max=2)
    q_s, eq = weighted_gains((eff.p0, eff.p1, eff.p2), ys.y, ys.e)
    if q_s <= 0.0:
        return SkrResult(rate=0.0, raw=0.0)
    return SkrResult(*_tagging_bound(q_s, eq / q_s, eff.p1 * ys.y[1], q_sift,
                                     f_ec))


def hp_effective_array(probs: np.ndarray, t, eta_d, p_dc_alice) -> np.ndarray:
    """``hp_effective_distribution`` of each column of a (4, N) array, checked;
    ``t``, ``eta_d`` and ``p_dc_alice`` are scalars or length-N arrays."""
    p1t, p2t = hp_transform_array(probs, t, eta_d, p_dc_alice)
    return check_distribution_array(
        np.stack([1.0 - p1t - p2t, p1t, p2t, np.zeros_like(p1t)]))


def skr_hp_array(eff: np.ndarray, channel: ChannelParams, loss_db: np.ndarray,
                 q_sift: float = DEFAULT_Q_SIFT,
                 f_ec: float = DEFAULT_F_EC_TAGGING) -> np.ndarray:
    """``skr_hp(...).rate`` of many problems, column k of the effective
    distributions ``eff`` (from ``hp_effective_array``) at ``loss_db[k]``.

    The arithmetic, the omega clamp and its InconsistentDataError, and the
    omega <= 0 branch are ``skr_hp``'s; numpy's log/exp may round
    differently from ``math`` in the last place.
    """
    _check_q_sift(q_sift)
    y, e = yields_array(channel, loss_db)
    q_s, eq = weighted_gains(eff[:3], y, e)
    detected = ~(q_s <= 0.0)
    e_s = np.divide(eq, q_s, out=np.zeros_like(eq), where=detected)
    omega = np.divide(eff[1] * y[1], q_s, out=np.zeros_like(eq), where=detected)
    if np.any(omega > 1.0 + _CLAMP_TOL):
        raise InconsistentDataError("single-photon fraction omega="
                                    f"{float(omega.max()):.6g} > 1")
    omega = np.minimum(omega, 1.0)
    keyed = omega > 0.0
    with np.errstate(over="ignore"):  # a subnormal omega: e_s / omega = inf
        ratio = np.divide(e_s, omega, out=np.zeros_like(eq), where=keyed)
    raw = q_sift * q_s * (-f_ec * _entropy_cost_array(e_s)
                          + omega * (1.0 - _entropy_cost_array(ratio)))
    return np.where(keyed, np.maximum(raw, 0.0), 0.0)


def skr_wcs_infinite_decoy(channel: ChannelParams, mu: float | None = None,
                           q_sift: float = DEFAULT_Q_SIFT,
                           f_ec: float = DEFAULT_F_EC) -> SkrResult:
    """Weak-coherent baseline with infinite decoy states.

    With infinite decoys the single-photon yield and error rate equal the
    channel-model values exactly; the Poisson single-photon weight is
    ``mu exp(-mu)``.  When ``mu`` is None the intensity is optimized over
    (0, 2] by golden-section search to 1e-6.
    """
    return _laser(channel, mu, q_sift, lambda obs, q1, e1: _decoy_bound(
        obs.q, obs.e, q1, e1, q_sift, f_ec, _entropy_cost))


def skr_wcs_tagging_bound(channel: ChannelParams, mu: float | None = None,
                          q_sift: float = DEFAULT_Q_SIFT,
                          f_ec: float = DEFAULT_F_EC_TAGGING) -> SkrResult:
    """Weak-coherent rate under the tagging bound, without decoy states.

    This applies the same privacy-amplification structure as ``skr_hp`` to
    Poisson statistics: multiphoton detections are tagged, the untagged
    fraction is bounded by omega = Q_1 / Q_mu, and the phase error is
    inflated to E_mu / omega.  It is the like-for-like laser reference for
    heralded-purification comparisons; mixing it up with the decoy-state
    baseline (``skr_wcs_infinite_decoy``) compares two different security
    analyses.  ``f_ec`` defaults to 1 to mirror ``skr_hp``.
    """
    return _laser(channel, mu, q_sift, lambda obs, q1, _: 0.0 if obs.q <= 0.0
                  else _tagging_bound(obs.q, obs.e, q1, q_sift, f_ec)[1])


def _laser(channel: ChannelParams, mu: float | None, q_sift: float,
           bound) -> SkrResult:
    # raw = bound(observed rates, Q_1, e_1) of a laser at ``mu``, or at the
    # mu in (0, 2] that maximises it; Q_1 = mu exp(-mu) Y_1 on ``math``
    _check_q_sift(q_sift)
    y1, e1 = yields(channel, n_max=1)[1]
    rates = wcs_rates(channel)

    def raw_rate(m: float) -> float:
        return bound(rates(m), m * math.exp(-m) * y1, e1)

    if mu is None:
        mu = golden_max(raw_rate, 1e-6, 2.0, 1e-6)
    elif not 0.0 < mu <= 2.0:
        raise ValueError("mu must lie in (0, 2]")
    raw = raw_rate(mu)
    return SkrResult(rate=max(raw, 0.0), raw=raw, mu=mu)
