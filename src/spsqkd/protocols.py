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

from .channel_model import (ChannelParams, ObservedRates, wcs_series,
                            wcs_series_array, weighted_gains, yields,
                            yields_array)
from .errors import DegenerateDecoyError, InconsistentDataError, raise_first
from .photon_source import PhotonDistribution, hp_effective_distribution
from .search import golden_max, golden_max_lockstep

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

# The laser's intensity search: golden section over [1e-6, 2] to 1e-6.
_MU_LO, _MU_HI, _MU_TOL = 1e-6, 2.0, 1e-6


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


def _entropy_cost_each(x: np.ndarray) -> np.ndarray:
    # _entropy_cost of each element, on math, so each equals the scalar's
    return np.fromiter(map(_entropy_cost, x.tolist()), float, x.size)


def _entropy_cost_array(x: np.ndarray) -> np.ndarray:
    # _entropy_cost elementwise, on numpy; the kernels check x >= 0 first
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where(x >= 0.5, 1.0, np.where(x == 0.0, 0.0, h))


def _clamp_unit(value: float, what: str, tol: float) -> float:
    if value < -tol or value > 1.0 + tol:
        raise InconsistentDataError(
            f"solved {what} = {value:.6g} lies outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)


def _check_settings(q_sift: float, f_ec: float) -> None:
    if not 0.0 < q_sift <= 1.0:
        raise ValueError("q_sift must lie in (0, 1]")
    if not 1.0 <= f_ec < math.inf:
        raise ValueError("f_ec must be finite and at least 1")


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
    scaled to their statistical uncertainty.  ``tol`` must be >= 0 (inf
    clamps every value): a NaN or negative one is a ValueError before the
    solve.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be at least 0, not {tol!r}")
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
    _check_settings(q_sift, f_ec)
    raw = _decoy_bound(signal.q, signal.e, y1 * p1_signal,
                       1.0 - _entropy_cost(e1), q_sift, f_ec, _entropy_cost)
    return SkrResult(rate=max(raw, 0.0), raw=raw)


def _decoy_bound(q, e, q1, secret1, q_sift, f_ec, h):
    # q_sift (-Q f_ec H(E) + Q_1 (1 - H(e_1))), given secret1 = 1 - H(e_1),
    # with the entropy cost ``h`` (math or numpy); shared by the source,
    # array and laser forms
    return q_sift * (-q * f_ec * h(e) + q1 * secret1)


def _gllp_bound(q, e, omega, ratio, q_sift, f_ec, h):
    # q_sift Q (-f_ec H(E) + omega (1 - H(E / omega))), given ratio =
    # E / omega, with the entropy cost ``h`` (math or numpy); shared by the
    # scalar and array tagging bounds
    return q_sift * q * (-f_ec * h(e) + omega * (1.0 - h(ratio)))


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
    raw = _gllp_bound(q, e, omega, e / omega, q_sift, f_ec, _entropy_cost)
    return max(raw, 0.0), raw


def skr_dtb(d: PhotonDistribution, channel: ChannelParams,
            q_sift: float = DEFAULT_Q_SIFT, f_ec: float = DEFAULT_F_EC) -> SkrResult:
    """Asymptotic decoy-state bound for signal statistics ``d``.

    In the asymptotic noiseless limit the decoy inversion recovers the
    channel-model yields exactly (see ``solve_dtb``'s round-trip identity),
    so the forward model feeds the bound directly.
    """
    _check_settings(q_sift, f_ec)
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
    distributions) is evaluated on ``channel.with_loss(loss_db[k])``, by
    the forward pass it shares with ``skr_hp_array`` (``_observed_array``).
    The arithmetic and the checks are those of ``skr_dtb``, and the first
    column that fails them raises as a loop of scalar calls would
    (``_raise_as_scalar``); numpy's log/exp may round differently from
    ``math`` in the last place, so rates can differ from ``skr_dtb`` by a
    few ulp.  A single evaluation is ten times faster through ``skr_dtb``.
    """
    _check_settings(q_sift, f_ec)
    y, e, q_s, e_s, detected = _observed_array(probs, channel, loss_db)
    _raise_as_scalar(channel, loss_db, detected,
                     (0.0 <= q_s) & (q_s <= 1.0) & (0.0 <= e_s) & (e_s <= 1.0),
                     ObservedRates, q_s, e_s)
    raw = _decoy_bound(q_s, e_s, y[1] * probs[1],
                       1.0 - _entropy_cost_array(e[1]), q_sift, f_ec,
                       _entropy_cost_array)
    return np.where(detected, np.maximum(raw, 0.0), 0.0)


def _observed_array(probs, channel: ChannelParams, loss_db: np.ndarray):
    # the forward pass of both array kernels: (Y, e) of each column's loss
    # (``yields_array``), the signal's gain Q over the rows of ``probs``,
    # its error rate E = EQ / Q (0 where Q <= 0) and ``detected``, where Q
    # is positive or NaN, as the scalar kernels' ``q_s <= 0.0`` reads it
    y, e = yields_array(channel, loss_db)
    q_s, eq = weighted_gains(probs, y, e)
    detected = ~(q_s <= 0.0)
    e_s = np.divide(eq, q_s, out=np.zeros_like(eq), where=detected)
    return y, e, q_s, e_s, detected


def herald_dark_rate(p_dc_alice: float | None, channel: ChannelParams) -> float:
    """The herald's dark-count probability: ``p_dc_alice``, else the channel's."""
    return channel.p_dc if p_dc_alice is None else p_dc_alice


def check_herald(t: float = DEFAULT_T, eta_d: float = DEFAULT_ETA_D,
                 p_dc: float = 0.0, p_dc_alice: float | None = None) -> None:
    """The herald's settings where they enter: ValueError unless the
    beam-splitter transmission ``t`` lies in (0, 1), the herald efficiency
    ``eta_d`` in (0, 1], the herald's dark rate ``p_dc`` in [0, 1] and
    ``p_dc_alice``, the dark rate as given (None for the channel's), is
    None or in [0, 1] (the kernels themselves accept t and eta_d in
    [0, 1])."""
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")
    if not 0.0 < eta_d <= 1.0:
        raise ValueError("eta_d must lie in (0, 1]")
    if not 0.0 <= p_dc <= 1.0:
        raise ValueError("p_dc must lie in [0, 1]")
    if p_dc_alice is not None and not 0.0 <= p_dc_alice <= 1.0:
        raise ValueError("p_dc_alice must lie in [0, 1]")


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
    _check_settings(q_sift, f_ec)
    eff = hp_effective_distribution(d, t, eta_d,
                                    herald_dark_rate(p_dc_alice, channel))
    ys = yields(channel, n_max=2)
    q_s, eq = weighted_gains((eff.p0, eff.p1, eff.p2), ys.y, ys.e)
    if q_s <= 0.0:
        return SkrResult(rate=0.0, raw=0.0)
    return SkrResult(*_tagging_bound(q_s, eq / q_s, eff.p1 * ys.y[1], q_sift,
                                     f_ec))


def skr_hp_array(eff: np.ndarray, channel: ChannelParams, loss_db: np.ndarray,
                 q_sift: float = DEFAULT_Q_SIFT,
                 f_ec: float = DEFAULT_F_EC_TAGGING) -> np.ndarray:
    """``skr_hp(...).rate`` of many problems, column k of the effective
    distributions ``eff`` (from ``photon_source.hp_effective_array``) at
    ``loss_db[k]``, by the forward pass of ``skr_dtb_array``
    (``_observed_array``) over rows 0..2.

    The arithmetic, the omega clamp and the omega <= 0 branch are
    ``skr_hp``'s (``_tagging_bound``'s), and the first column that fails
    its checks raises as a loop of scalar calls would
    (``_raise_as_scalar``); numpy's log/exp may round differently from
    ``math`` in the last place.
    """
    _check_settings(q_sift, f_ec)
    y, _, q_s, e_s, detected = _observed_array(eff[:3], channel, loss_db)
    q1 = eff[1] * y[1]
    omega = np.divide(q1, q_s, out=np.zeros_like(q_s), where=detected)
    # the omega clamp, then the entropy of E; E >= 0 covers the entropy of
    # E / omega where omega > 0 too, since omega is NaN only where E is
    _raise_as_scalar(channel, loss_db, detected,
                     ~(omega > 1.0 + _CLAMP_TOL) & (e_s >= 0.0),
                     _tagging_bound, q_s, e_s, q1, q_sift, f_ec)
    omega = np.minimum(omega, 1.0)
    keyed = omega > 0.0
    with np.errstate(over="ignore"):  # a subnormal omega: e_s / omega = inf
        ratio = np.divide(e_s, omega, out=np.zeros_like(q_s), where=keyed)
    raw = _gllp_bound(q_s, e_s, omega, ratio, q_sift, f_ec,
                      _entropy_cost_array)
    return np.where(keyed, np.maximum(raw, 0.0), 0.0)


def _raise_as_scalar(channel, loss_db, detected, ok, rule, *values) -> None:
    # the rules of one skr_* call per column, in its order: the loss
    # (ChannelParams'), then where the gain is positive or NaN (``detected``)
    # those that ``ok`` masks and ``rule`` raises on the gain and ``values``;
    # the first column that fails raises as the scalar call does
    def column(loss: float, q: float, *rest: float) -> None:
        channel.with_loss(loss)
        if not q <= 0.0:
            rule(q, *rest)

    raise_first(np.isfinite(loss_db) & (loss_db >= 0) & (~detected | ok),
                column, loss_db, *values)


def skr_wcs_infinite_decoy(channel: ChannelParams, mu: float | None = None,
                           q_sift: float = DEFAULT_Q_SIFT,
                           f_ec: float = DEFAULT_F_EC) -> SkrResult:
    """Weak-coherent baseline with infinite decoy states.

    With infinite decoys the single-photon yield and error rate equal the
    channel-model values exactly; the Poisson single-photon weight is
    ``mu exp(-mu)``.  When ``mu`` is None the intensity is optimized over
    (0, 2] by golden-section search to 1e-6.
    """
    return _decoy_laser(wcs_series, channel, mu, q_sift, f_ec)


def _decoy_laser(series_of, channel: ChannelParams, mu: float | None = None,
                 q_sift: float = DEFAULT_Q_SIFT,
                 f_ec: float = DEFAULT_F_EC) -> SkrResult:
    # skr_wcs_infinite_decoy on the laser sums ``series_of(channel)``:
    # ``wcs_series``, or ``_wcs_closed_form`` for analysis.wcs_mcl's hint
    _check_settings(q_sift, f_ec)
    series, y1, e1 = series_of(channel)
    secret1 = 1.0 - _entropy_cost(e1)  # once per search
    return _laser(series, y1, mu,
                  lambda q, e, q1: _decoy_bound(q, e, q1, secret1, q_sift,
                                                f_ec, _entropy_cost))


def skr_wcs_infinite_decoy_array(channel: ChannelParams, loss_db: np.ndarray,
                                 q_sift: float = DEFAULT_Q_SIFT,
                                 f_ec: float = DEFAULT_F_EC
                                 ) -> tuple[np.ndarray, np.ndarray]:
    """(rate, mu) of ``skr_wcs_infinite_decoy(channel.with_loss(loss))`` at
    each of ``loss_db``, the intensities of all losses searched together
    (``golden_max_lockstep``).

    Each loss takes the scalar search's float operations in its order:
    numpy's ``+ - * /`` round as Python floats do, and ``exp`` and the
    entropies stay on ``math``, one element at a time
    (``wcs_series_array``), so every rate and mu equals the scalar call's.
    """
    _check_settings(q_sift, f_ec)
    loss_db = np.asarray(loss_db, dtype=float).reshape(-1)
    series, y1, e1 = wcs_series_array(channel, loss_db)
    secret1 = 1.0 - _entropy_cost_each(e1)

    def raw_rate(idx: np.ndarray, m: np.ndarray) -> np.ndarray:
        w = np.fromiter(map(math.exp, (-m).tolist()), float, m.size)
        q, e = series(idx, m, w)
        return _decoy_bound(q, e, m * w * y1[idx], secret1[idx], q_sift,
                            f_ec, _entropy_cost_each)

    mu = golden_max_lockstep(raw_rate, _MU_LO, _MU_HI, _MU_TOL, loss_db.size)
    return np.maximum(raw_rate(np.arange(loss_db.size), mu), 0.0), mu


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
    _check_settings(q_sift, f_ec)
    series, y1, _ = wcs_series(channel)
    return _laser(series, y1, mu,
                  lambda q, e, q1: (0.0 if q <= 0.0 else
                                    _tagging_bound(q, e, q1, q_sift, f_ec)[1]))


def _laser(series, y1: float, mu: float | None, raw_of) -> SkrResult:
    # raw = raw_of(Q, E, Q_1) of a laser on ``series`` (``wcs_series``) at
    # ``mu``, or at the mu in (0, 2] that maximises it; each probe takes one
    # exp(-mu) on math, for the series and for Q_1 = mu exp(-mu) Y_1
    def raw_rate(m: float) -> float:
        w = math.exp(-m)
        q, e = series(m, w)
        return raw_of(q, e, m * w * y1)

    if mu is None:
        mu = golden_max(raw_rate, _MU_LO, _MU_HI, _MU_TOL)
    elif not 0.0 < mu <= _MU_HI:
        raise ValueError("mu must lie in (0, 2]")
    raw = raw_rate(mu)
    return SkrResult(rate=max(raw, 0.0), raw=raw, mu=mu)
