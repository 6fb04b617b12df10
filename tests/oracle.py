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
- the phase-randomised laser at a given mean photon number mu, with
  infinite decoys (``protocols.skr_wcs_infinite_decoy``) and under the
  tagging bound (``protocols.skr_wcs_tagging_bound``): its Poisson sum
  either cut off after a given photon number or summed exactly in closed
  form (Ma, Qi, Zhao & Lo, PRA 72, 012326, 2005).
- the inversion of the moments (p0, g2, g3) to a {0, 1, 2, 3}
  distribution (``photon_source.extract_distribution_g3``).
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


def _transmittance(channel) -> mpf:
    # eta = 10^(-loss/10) eta_bob
    return mpf(10) ** (-mpf(channel.loss_db) / 10) * mpf(channel.eta_bob)


def yields(channel, n_max: int = 3) -> list[tuple[mpf, mpf]]:
    """(Y_n, e_n) for n = 0..n_max of ``channel`` (any object with
    ``loss_db``, ``eta_bob``, ``p_dc`` and ``e_d``):
    eta = 10^(-loss/10) eta_bob, eta_n = 1 - (1 - eta)^n,
    Y_n = eta_n + p_dc - eta_n p_dc and e_n = (e_d eta_n + p_dc / 2) / Y_n,
    1/2 where Y_n = 0."""
    with mpmath.workdps(DIGITS):
        eta = _transmittance(channel)
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


def _gllp(q, e, q1, q_sift: float, f_ec: float) -> mpf:
    # q_sift Q (-f_ec H2(E) + omega (1 - H2(E / omega))) with omega = Q_1 / Q,
    # at most 1, and only the leakage where omega = 0
    omega = min(q1 / q, mpf(1))
    leak = -mpf(f_ec) * _entropy_cost(e)
    if omega <= 0:
        return mpf(q_sift) * q * leak
    return mpf(q_sift) * q * (leak + omega * (1 - _entropy_cost(e / omega)))


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
        return _gllp(q, e, eff[1] * ys[1][0], q_sift, f_ec)


def laser(channel, mu: float, n_max: int | None = None) -> tuple[mpf, ...]:
    """(Q, E, Q_1, e_1) of a laser of mean photon number ``mu``.  With
    ``n_max`` the Poisson weights e^(-mu) mu^n / n! of n = 0..n_max are
    summed against the yields; with None the whole series is summed in
    closed form, Q = 1 - (1 - p_dc) e^(-eta mu) and
    E Q = e_d (1 - e^(-eta mu)) + p_dc / 2.  Q_1 = mu e^(-mu) Y_1."""
    with mpmath.workdps(DIGITS):
        mu = mpf(mu)
        ys = yields(channel, 1 if n_max is None else max(n_max, 1))
        if n_max is None:
            vacuum = mpmath.exp(-_transmittance(channel) * mu)
            p_dc = mpf(channel.p_dc)
            q = 1 - (1 - p_dc) * vacuum
            eq = mpf(channel.e_d) * (1 - vacuum) + p_dc / 2
        else:
            weights = [mpmath.exp(-mu) * mu ** n / mpmath.factorial(n)
                       for n in range(n_max + 1)]
            q = sum(w * y for w, (y, _) in zip(weights, ys))
            eq = sum(w * y * e for w, (y, e) in zip(weights, ys))
        y1, e1 = ys[1]
        e = eq / q if q > 0 else mpf(0.5)
        return q, e, mu * mpmath.exp(-mu) * y1, e1


def skr_wcs(channel, mu: float, q_sift: float, f_ec: float,
            n_max: int | None = None) -> mpf:
    """The raw infinite-decoy laser rate of ``laser(channel, mu, n_max)``:
    q_sift (-Q f_ec H2(E) + Q_1 (1 - H2(e_1)))."""
    with mpmath.workdps(DIGITS):
        q, e, q1, e1 = laser(channel, mu, n_max)
        return mpf(q_sift) * (-q * mpf(f_ec) * _entropy_cost(e)
                              + q1 * (1 - _entropy_cost(e1)))


def skr_wcs_tagged(channel, mu: float, q_sift: float, f_ec: float,
                   n_max: int | None = None) -> mpf:
    """The raw tagged-laser rate of ``laser(channel, mu, n_max)``: the GLLP
    bound with omega = Q_1 / Q, 0 where Q = 0."""
    with mpmath.workdps(DIGITS):
        q, e, q1, _ = laser(channel, mu, n_max)
        return _gllp(q, e, q1, q_sift, f_ec) if q > 0 else mpf(0)


def g3_inversion(p0: float, g2: float, g3: float) -> tuple[mpf, mpf, mpf]:
    """(p1, p2, p3) of the moments (p0, g2, g3).  With b = 1 - p0 the
    moments leave one cubic in the mean mu,
    g3 mu^3 / 6 - g2 mu^2 / 2 + mu - b = 0, whose smallest positive real
    root with non-negative weights p3 = g3 mu^3 / 6,
    p2 = (g2 mu^2 - g3 mu^3) / 2 and p1 = b - p2 - p3 is taken."""
    with mpmath.workdps(DIGITS):
        b, g2, g3 = 1 - mpf(p0), mpf(g2), mpf(g3)
        roots = mpmath.polyroots([g3 / 6, -g2 / 2, 1, -b], maxsteps=200,
                                 extraprec=2 * DIGITS)
        for mu in sorted(mpmath.re(r) for r in roots
                         if mpmath.re(r) > 0
                         and abs(mpmath.im(r)) <= mpf(10) ** -DIGITS):
            p3 = g3 * mu ** 3 / 6
            p2 = (g2 * mu ** 2 - g3 * mu ** 3) / 2
            if min(b - p2 - p3, p2) >= 0:
                return b - p2 - p3, p2, p3
        raise ValueError(f"no root of p0={p0}, g2={g2}, g3={g3} has weights")
