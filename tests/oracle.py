"""A 50-digit reference model of the source key rates, for the tests.

It is written from the formulas that the package's docstrings state, on
``mpmath`` at 50 significant digits, and shares no code with the package.
Every float input is taken as the exact binary value it holds, so the
oracle gives the exact model of the inputs the package was given, and a
float result's distance from it is the package's rounding alone.

It covers:

- the yields of the threshold-detector channel (``channel_model``),
- the decoy-state bound on the truncated basis (``protocols.skr_dtb``),
  whose ideal source p1 = 1 is the perfect-sps rate,
- the heralded distribution with its GLLP tagging bound
  (``protocols.skr_hp``).  The herald uses the package's factor
  eta_d + p_dc (``photon_source._heralded``), not the exact threshold
  herald's eta_d + p_dc - eta_d p_dc.

The laser is not modelled here.
"""

from __future__ import annotations

import mpmath
from mpmath import mpf

DIGITS = 50


def _entropy_cost(x):
    # the package's cost of an error rate: H2(x) below 1/2, 1 from 1/2 on
    if x >= 0.5:
        return mpf(1)
    if x == 0:
        return mpf(0)
    return -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)


def yields(channel, n_max: int = 3) -> list[tuple[mpf, mpf]]:
    """(Y_n, e_n) for n = 0..n_max of ``channel`` (any object with
    ``loss_db``, ``eta_bob``, ``p_dc`` and ``e_d``):
    eta = 10^(-loss/10) eta_bob, eta_n = 1 - (1 - eta)^n,
    Y_n = eta_n + p_dc - eta_n p_dc and e_n = (e_d eta_n + p_dc / 2) / Y_n,
    1/2 where Y_n = 0."""
    with mpmath.workdps(DIGITS):
        eta = mpf(10) ** (-mpf(channel.loss_db) / 10) * mpf(channel.eta_bob)
        p_dc, e_d = mpf(channel.p_dc), mpf(channel.e_d)
        out = []
        for n in range(n_max + 1):
            eta_n = 1 - (1 - eta) ** n
            y = eta_n + p_dc - eta_n * p_dc
            out.append((y, (e_d * eta_n + p_dc / 2) / y if y > 0 else mpf(0.5)))
        return out


def _signal(probs, channel) -> tuple[list[tuple[mpf, mpf]], mpf, mpf]:
    # the yields, the gain Q = sum p_n Y_n and its error rate E
    ys = yields(channel, len(probs) - 1)
    q = sum(mpf(p) * y for p, (y, _) in zip(probs, ys))
    eq = sum(mpf(p) * y * e for p, (y, e) in zip(probs, ys))
    return ys, q, eq / q if q > 0 else mpf(0)


def skr_dtb(probs, channel, q_sift: float, f_ec: float) -> mpf:
    """The raw decoy-state bound of the source ``probs`` (p0, p1, p2, p3):
    q_sift (-Q f_ec H2(E) + Y_1 p1 (1 - H2(e_1))), 0 where Q = 0."""
    with mpmath.workdps(DIGITS):
        ys, q, e = _signal(probs, channel)
        if q <= 0:
            return mpf(0)
        y1, e1 = ys[1]
        return mpf(q_sift) * (-q * mpf(f_ec) * _entropy_cost(e)
                              + y1 * mpf(probs[1]) * (1 - _entropy_cost(e1)))


def heralded(probs, t: float, eta_d: float, p_dc: float) -> tuple[mpf, ...]:
    """(p0~, p1~, p2~) sent on by the purification stage:
    p1~ = 2 p2 (1 - t) t (eta_d + p_dc) + t p1 p_dc, p2~ = t^2 p2 p_dc and
    p0~ = 1 - p1~ - p2~."""
    with mpmath.workdps(DIGITS):
        p1, p2, t = mpf(probs[1]), mpf(probs[2]), mpf(t)
        p_dc = mpf(p_dc)
        p1t = 2 * p2 * (1 - t) * t * (mpf(eta_d) + p_dc) + t * p1 * p_dc
        p2t = t * t * p2 * p_dc
        return 1 - p1t - p2t, p1t, p2t


def skr_hp(probs, channel, t: float, eta_d: float, p_dc_alice: float,
           q_sift: float, f_ec: float) -> mpf:
    """The raw GLLP bound of the heralded source: with omega = p1~ Y_1 / Q,
    at most 1, q_sift Q (-f_ec H2(E) + omega (1 - H2(E / omega))), and
    -q_sift Q f_ec H2(E) where omega = 0; 0 where Q = 0."""
    with mpmath.workdps(DIGITS):
        eff = heralded(probs, t, eta_d, p_dc_alice)
        ys, q, e = _signal(eff, channel)
        if q <= 0:
            return mpf(0)
        omega = min(eff[1] * ys[1][0] / q, mpf(1))
        leak = -mpf(f_ec) * _entropy_cost(e)
        if omega <= 0:
            return mpf(q_sift) * q * leak
        return mpf(q_sift) * q * (leak + omega * (1 - _entropy_cost(e / omega)))
