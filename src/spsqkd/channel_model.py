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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InfeasibleObservablesError
from .photon_source import PhotonDistribution

# Poisson tail mass below which the weak-coherent sum is truncated.
_WCS_TAIL = 1e-12


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

    def to_dict(self) -> dict[str, float]:
        return {"loss_db": self.loss_db, "eta_bob": self.eta_bob,
                "p_dc": self.p_dc, "e_d": self.e_d}

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelParams":
        """Parse the four fields; an absent ``loss_db`` reads as 0."""
        return cls(loss_db=float(data.get("loss_db", 0.0)),
                   eta_bob=float(data["eta_bob"]), p_dc=float(data["p_dc"]),
                   e_d=float(data["e_d"]))


@dataclass(frozen=True, slots=True)
class YieldSet:
    """Per-photon-number yields and error rates at one channel setting."""

    y: tuple[float, ...]
    e: tuple[float, ...]

    def __getitem__(self, n: int) -> tuple[float, float]:
        return self.y[n], self.e[n]


@dataclass(frozen=True, slots=True)
class ObservedRates:
    """A (gain, error-rate) pair as measured for one intensity setting."""

    q: float
    e: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("gain must lie in [0, 1]")
        if not 0.0 <= self.e <= 1.0:
            raise ValueError("error rate must lie in [0, 1]")


def transmittance(channel: ChannelParams) -> float:
    """Overall single-photon transmittance ``10**(-loss/10) * eta_bob``."""
    return 10.0 ** (-channel.loss_db / 10.0) * channel.eta_bob


def eta_n(channel: ChannelParams, n: int) -> float:
    """Probability that at least one of n photons survives the channel."""
    if n < 0:
        raise ValueError("photon number n must be non-negative")
    eta = transmittance(channel)
    if eta >= 1.0:
        return 0.0 if n == 0 else 1.0
    # -expm1(n*log1p(-eta)) keeps 1-(1-eta)^n accurate for tiny eta.
    return -math.expm1(n * math.log1p(-eta))


def yields(channel: ChannelParams, n_max: int = 3) -> YieldSet:
    """Yields ``Y_n`` and error rates ``e_n`` for n = 0..n_max."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    y_list, e_list = [], []
    for n in range(n_max + 1):
        y_n, ey_n = _clicks(eta_n(channel, n), channel.p_dc, channel.e_d)
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
    place, so entries can differ from ``yields`` by a few ulp.
    """
    loss_db = np.asarray(loss_db, dtype=float)
    if not np.all(np.isfinite(loss_db) & (loss_db >= 0)):
        raise ValueError("loss_db must be a finite non-negative attenuation")
    eta = 10.0 ** (-loss_db / 10.0) * channel.eta_bob
    full = eta >= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_miss = np.log1p(-eta)
        y = np.empty((4, eta.size))
        e = np.empty_like(y)
        for n in range(4):
            surv = np.where(full, float(n > 0), -np.expm1(n * log_miss))
            y[n], ey_n = _clicks(surv, channel.p_dc, channel.e_d)
            e[n] = np.where(y[n] > 0.0, ey_n / y[n], 0.5)
    return y, e


def _clicks(surv, p_dc: float, e_d: float):
    # (Y_n, e_d eta_n + p_dc / 2) of a survival probability eta_n; shared
    # by the scalar, array and weak-coherent forms, so all round alike
    return surv + p_dc - surv * p_dc, e_d * surv + 0.5 * p_dc


def weighted_gains(probs, y, e):
    """Gain and error-weighted gain (sum p_n Y_n, sum p_n Y_n e_n), summed
    from n = 0 up in one order for floats and numpy rows alike."""
    return (sum(p * y_n for p, y_n in zip(probs, y)),
            sum(p * y_n * e_n for p, y_n, e_n in zip(probs, y, e)))


def gain_and_qber(d: PhotonDistribution, channel: ChannelParams) -> ObservedRates:
    """Forward-model the observed gain and error rate of a distribution.

    Raises InfeasibleObservablesError when the gain is exactly zero (a
    dark-count-free channel fed pure vacuum): the error rate has no
    defined value there.
    """
    ys = yields(channel, n_max=3)
    q, eq = weighted_gains(d.as_tuple(), ys.y, ys.e)
    if q <= 0.0:
        raise InfeasibleObservablesError(
            "zero gain: the error rate is undefined")
    return ObservedRates(q=q, e=eq / q)


def wcs_gain_and_qber(mu: float, channel: ChannelParams) -> ObservedRates:
    """Observed rates for a phase-randomized weak coherent pulse.

    Sums the Poisson photon-number expansion against the yields until the
    remaining tail mass drops below 1e-12.  (The closed forms
    ``Q = 1 - (1 - p_dc) exp(-eta mu)`` and
    ``E Q = e_d (1 - exp(-eta mu)) + p_dc / 2`` are reserved for tests.)
    """
    return wcs_rates(channel)(mu)


def wcs_rates(channel: ChannelParams) -> Callable[[float], ObservedRates]:
    """``mu -> wcs_gain_and_qber(mu, channel)``.  Each photon number's click
    and error-click terms depend on the channel alone, so they are computed
    once, when the series first reaches them, and reused by later calls;
    on ``math`` and in the same order, so every rate is the same."""
    eta = transmittance(channel)
    log_miss = math.log1p(-eta) if eta < 1.0 else None
    p_dc, e_d = channel.p_dc, channel.e_d
    terms = [_clicks(0.0, p_dc, e_d)]  # from n = 0, where eta_0 = 0

    def rates(mu: float) -> ObservedRates:
        if not math.isfinite(mu) or mu <= 0:
            raise ValueError("mean photon number mu must be positive")
        q = 0.0
        eq = 0.0
        weight = math.exp(-mu)  # Poisson term n = 0
        tail = 1.0 - weight
        n = 0
        while True:
            q += weight * terms[n][0]
            eq += weight * terms[n][1]
            if tail < _WCS_TAIL:
                break
            n += 1
            weight *= mu / n
            tail -= weight
            if n == len(terms):
                surv = 1.0 if log_miss is None else -math.expm1(n * log_miss)
                terms.append(_clicks(surv, p_dc, e_d))
        e = eq / q if q > 0.0 else 0.5
        return ObservedRates(q=q, e=e)

    return rates
