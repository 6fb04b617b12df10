"""Threshold-detector channel model for photon-number inputs.

Bob's apparatus is folded into a single transmittance ``eta`` (channel
attenuation times receiver efficiency) plus a per-pulse dark-count
probability.  For an n-photon pulse,

    eta_n = 1 - (1 - eta)**n            detection by at least one photon
    Y_n   = eta_n + p_dc - eta_n p_dc   click from photons or dark count
    e_n   = (e_d eta_n + p_dc / 2) / Y_n

so vacuum clicks are pure dark counts (Y_0 = p_dc, e_0 = 1/2) and the
misalignment error ``e_d`` applies to photon-caused clicks.  Gains and
error rates of a whole distribution are probability-weighted sums.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import InfeasibleObservablesError, raise_first
from .photon_source import PhotonDistribution, _survival

# Poisson tail mass below which the weak-coherent sum is truncated.
_WCS_TAIL = 1e-12
# Largest mean photon number summed: beyond about 745 exp(-mu) is zero, and
# a series that starts from a zero weight never drains its tail.
_WCS_MU_MAX = 700.0


@dataclass(frozen=True, slots=True)
class ChannelParams:
    """Channel attenuation and receiver imperfections.

    ``loss_db`` is the channel attenuation, ``eta_bob`` the receiver's
    internal transmission-and-detection efficiency, ``p_dc`` the combined
    per-pulse dark-count probability, ``e_d`` the misalignment error.
    """

    loss_db: float
    eta_bob: float
    p_dc: float
    e_d: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.loss_db) or self.loss_db < 0:
            raise ValueError("loss_db must be a finite non-negative attenuation")
        if not 0.0 < self.eta_bob <= 1.0:
            raise ValueError("eta_bob must lie in (0, 1]")
        if not 0.0 <= self.p_dc < 1.0:
            raise ValueError("p_dc must lie in [0, 1)")
        if not 0.0 <= self.e_d <= 0.5:
            raise ValueError("e_d must lie in [0, 0.5]")

    def with_loss(self, loss_db: float) -> "ChannelParams":
        return ChannelParams(loss_db=loss_db, eta_bob=self.eta_bob,
                             p_dc=self.p_dc, e_d=self.e_d)

    to_dict = asdict


@dataclass(frozen=True, slots=True)
class YieldSet:
    """Per-photon-number yields and error rates at one channel setting."""

    y: tuple[float, ...]
    e: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class ObservedRates:
    """A (gain, error-rate) pair as measured for one intensity setting."""

    q: float
    e: float

    def __post_init__(self) -> None:
        _check_rates(self.q, self.e)


def _check_rates(q: float, e: float) -> tuple[float, float]:
    # (q, e) if both lie in [0, 1], else ValueError; shared by
    # ObservedRates and both weak-coherent sums
    if not 0.0 <= q <= 1.0:
        raise ValueError("gain must lie in [0, 1]")
    if not 0.0 <= e <= 1.0:
        raise ValueError("error rate must lie in [0, 1]")
    return q, e


def transmittance(channel: ChannelParams) -> float:
    """Overall single-photon transmittance ``10**(-loss/10) * eta_bob``."""
    return 10.0 ** (-channel.loss_db / 10.0) * channel.eta_bob


def yields(channel: ChannelParams) -> YieldSet:
    """Yields ``Y_n`` and error rates ``e_n`` for n = 0..3, the photon
    numbers of the truncated basis."""
    surv = _survival(transmittance(channel))
    y_list, e_list = [], []
    for n in range(4):
        y_n, ey_n = _clicks(surv(n), channel.p_dc, channel.e_d)
        y_list.append(y_n)
        # A zero-yield term contributes nothing; 1/2 is the error rate
        # of the only click source left (none), kept for continuity.
        e_list.append(ey_n / y_n if y_n > 0.0 else 0.5)
    return YieldSet(y=tuple(y_list), e=tuple(e_list))


def yields_array(channel: ChannelParams,
                 loss_db: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``yields`` for n = 0..3 at many channel losses at once.

    Returns (Y, e), each of shape (4, len(loss_db)): column k holds
    the yields and error rates of ``channel.with_loss(loss_db[k])``, with
    the same operations in the same order as ``yields``.  numpy's
    log1p/expm1/power may round differently from ``math`` in the last
    place, so entries can differ from ``yields`` by a few ulp.  The losses
    are not checked: the rate kernels check each column's loss in their
    order of rules, and a loss that ``ChannelParams`` rejects gives
    meaningless entries here.
    """
    loss_db = np.asarray(loss_db, dtype=float).reshape(-1)
    n = np.arange(4.0)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        eta = 10.0 ** (-loss_db / 10.0) * channel.eta_bob
        surv = -np.expm1(n * np.log1p(-eta))
    surv[:, eta >= 1.0] = n > 0  # every photon arrives
    y, ey = _clicks(surv, channel.p_dc, channel.e_d)
    return y, np.divide(ey, y, out=np.full_like(y, 0.5), where=y > 0.0)


def _clicks(surv, p_dc: float, e_d: float):
    # (Y_n, e_d eta_n + p_dc / 2) of a survival probability eta_n; shared
    # by the scalar, array and weak-coherent forms, so all round alike
    return surv + p_dc - surv * p_dc, e_d * surv + 0.5 * p_dc


def weighted_gains(probs, y, e):
    """Gain and error-weighted gain (sum p_n Y_n, sum p_n Y_n e_n), folded
    from n = 0 up for floats and numpy rows alike (not by ``sum``, which
    compensates float sums from Python 3.12 on)."""
    q = eq = 0.0
    for p, y_n, e_n in zip(probs, y, e):
        q = q + p * y_n
        eq = eq + p * y_n * e_n
    return q, eq


def gain_and_qber(d: PhotonDistribution, channel: ChannelParams) -> ObservedRates:
    """Forward-model the observed gain and error rate of a distribution.

    Raises InfeasibleObservablesError when the gain is exactly zero (a
    dark-count-free channel fed pure vacuum): the error rate has no
    defined value there.
    """
    ys = yields(channel)
    q, eq = weighted_gains(d.as_tuple(), ys.y, ys.e)
    if q <= 0.0:
        raise InfeasibleObservablesError(
            "zero gain: the error rate is undefined")
    return ObservedRates(q=q, e=eq / q)


def wcs_gain_and_qber(mu: float, channel: ChannelParams) -> ObservedRates:
    """Observed rates for a phase-randomized weak coherent pulse.

    Sums the Poisson photon-number expansion against the yields until the
    remaining tail mass drops below 1e-12 (``wcs_series``).  Every rate the
    package reports is summed so.  The closed forms
    ``Q = 1 - (1 - p_dc) exp(-eta mu)`` and
    ``E Q = e_d (1 - exp(-eta mu)) + p_dc / 2`` (``_wcs_closed_form``) only
    tell ``analysis.wcs_mcl`` where to start its search: a few Newton steps
    in transmittance on the closed-form laser's rate give that start.
    """
    if not 0.0 < mu <= _WCS_MU_MAX:
        raise ValueError("mean photon number mu must lie in (0, 700]")
    return ObservedRates(*wcs_series(channel)[0](mu, math.exp(-mu)))


def wcs_series(channel: ChannelParams
               ) -> tuple[Callable[[float, float], tuple[float, float]],
                          float, float]:
    """``(series, y1, e1)`` of a weak coherent pulse on ``channel``.

    ``series`` maps ``(mu, exp(-mu))`` to (Q, E): the caller passes the
    Poisson vacuum weight, so one ``math.exp`` serves the series and its own
    use (the laser's Q_1 = mu exp(-mu) Y_1).  ``y1`` and ``e1`` are Y_1 and
    e_1 from the series' own n = 1 terms, equal to ``yields``' (e_1 = 1/2
    where Y_1 = 0).  Each photon number's click and error-click terms depend
    on the channel alone; they are kept in two flat lists, extended when the
    series first reaches them, and reused by later calls.  The sum runs from
    n = 0 up until the Poisson tail mass left drops below 1e-12, on ``math``
    floats.  Raises ValueError, as ``ObservedRates`` does, unless Q and E
    lie in [0, 1].
    """
    surv = _survival(transmittance(channel))
    p_dc, e_d = channel.p_dc, channel.e_d
    y0, ey0 = _clicks(0.0, p_dc, e_d)  # n = 0, where eta_0 = 0
    y1, ey1 = _clicks(surv(1), p_dc, e_d)
    ys, eys = [y0, y1], [ey0, ey1]

    def sums(mu: float, weight: float) -> tuple[float, float]:
        q = 0.0
        eq = 0.0
        tail = 1.0 - weight
        n = 0
        size = len(ys)
        while True:
            q += weight * ys[n]
            eq += weight * eys[n]
            if tail < _WCS_TAIL:
                break
            n += 1
            weight *= mu / n
            tail -= weight
            if n == size:
                y_n, ey_n = _clicks(surv(n), p_dc, e_d)
                ys.append(y_n)
                eys.append(ey_n)
                size += 1
        return _check_rates(q, eq / q if q > 0.0 else 0.5)

    return sums, y1, ey1 / y1 if y1 > 0.0 else 0.5


def _wcs_closed_form(channel: ChannelParams
                     ) -> tuple[Callable[[float, float], tuple[float, float]],
                                float, float]:
    """``wcs_series`` summed in closed form (Ma, Qi, Zhao & Lo, PRA 72,
    012326, 2005): with threshold detectors the Poisson sums are the clicks
    of one photon that survives with probability 1 - exp(-eta mu), so
    Q = 1 - (1 - p_dc) exp(-eta mu) and E Q = e_d (1 - exp(-eta mu))
    + p_dc / 2.  ``series`` ignores the vacuum weight it is passed; ``y1``
    and ``e1`` are taken from ``wcs_series``, whose sums are never called
    here, and the [0, 1] checks are its own (``_check_rates``).  The
    sums differ from the truncated series' in the last places, so the
    package reads these only as an estimate: ``analysis.wcs_mcl`` finds
    where this laser's rate crosses zero by Newton's method in
    transmittance (about 4 optimized and 4 fixed-mu rates) and starts its
    search over the series there."""
    eta = transmittance(channel)
    p_dc, e_d = channel.p_dc, channel.e_d

    def sums(mu: float, weight: float) -> tuple[float, float]:
        q, eq = _clicks(-math.expm1(-eta * mu), p_dc, e_d)
        return _check_rates(q, eq / q if q > 0.0 else 0.5)

    return (sums, *wcs_series(channel)[1:])


def wcs_series_array(channel: ChannelParams, loss_db: np.ndarray
                     ) -> tuple[Callable[[np.ndarray, np.ndarray, np.ndarray],
                                         tuple[np.ndarray, np.ndarray]],
                                np.ndarray, np.ndarray]:
    """``wcs_series`` at many channel losses.

    Returns ``(series, y1, e1)``.  ``series`` maps ``(idx, mu, exp(-mu))``
    to (Q, E), arrays whose element k is the series of
    ``channel.with_loss(loss_db[idx[k]])`` at ``mu[k]``; ``y1`` and ``e1``
    hold each loss's Y_1 and e_1, as ``wcs_series`` gives them.

    Every float operation is ``wcs_series``'s, in its order: the click
    terms come from ``math`` one loss at a time, and the sums use numpy's
    ``+ - * /``, which round as Python floats do; each element stops at its
    own tail, so each (Q, E) equals the scalar series'.  Term rows are added
    when some element first needs them.  The [0, 1] checks are
    ``ObservedRates``', for the first element that fails them, as a loop
    of scalar series would raise.
    """
    survs = [_survival(transmittance(channel.with_loss(loss)))
             for loss in np.asarray(loss_db, dtype=float).reshape(-1).tolist()]
    p_dc, e_d = channel.p_dc, channel.e_d
    y0, ey0 = _clicks(np.zeros(len(survs)), p_dc, e_d)
    ys, eys = [y0], [ey0]

    def extend() -> None:
        n = len(ys)
        y_n, ey_n = _clicks(np.array([surv(n) for surv in survs]), p_dc, e_d)
        ys.append(y_n)
        eys.append(ey_n)

    extend()  # n = 1, which every series reaches
    e1 = np.divide(eys[1], ys[1], out=np.full_like(ys[1], 0.5),
                   where=ys[1] > 0.0)

    def sums(idx: np.ndarray, mu: np.ndarray,
             weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = np.zeros(idx.size)
        eq = np.zeros(idx.size)
        tail = 1.0 - weight
        live = np.ones(idx.size, dtype=bool)
        n = 0
        while True:
            if n == len(ys):
                extend()
            # a stopped element keeps its sums; its weight runs on unused
            q = np.where(live, q + weight * ys[n][idx], q)
            eq = np.where(live, eq + weight * eys[n][idx], eq)
            live &= ~(tail < _WCS_TAIL)
            if not live.any():
                break
            n += 1
            weight = weight * (mu / n)
            tail = tail - weight
        e = np.divide(eq, q, out=np.full_like(q, 0.5), where=q > 0.0)
        raise_first((0.0 <= q) & (q <= 1.0) & (0.0 <= e) & (e <= 1.0),
                    _check_rates, q, e)
        return q, e

    return sums, ys[1], e1
