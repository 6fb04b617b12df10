"""Plot-ready quantities built on the key-rate engines.

Everything here reduces to one primitive: the maximal channel loss (MCL),
the largest attenuation at which a protocol's key rate stays positive.
It is searched once, by ``_mcl_bracket``, over one problem (``mcl``) or
many in lockstep (``mcl_lockstep``): a zero-loss key check, 25 dB
brackets expanded up to a 200 dB cap, then bisection.  Every loss it
probes is a multiple of the step 25/2^k dB, the first halving of 25 dB at
or below the tolerance (25/4096 dB at the default 0.01 dB), so for a rate
whose sign does not increase along that grid the result is fixed by the
highest grid loss with key, whatever order the problems are probed in.
That is why the search may also start from a hint, a problem's expected
MCL: it gallops out from the hint's grid index instead of expanding from
zero, and ends in the same bisection with the same result.
``optimal_bs_transmission`` hints each weight's MCL at its last t.
Protocol merit is then expressed as the relative gain

    gamma_dB = MCL_protocol - MCL_baseline

which equals 10 log10 of the transmittance ratio, so a "ratio" phrasing
and a dB difference are the same statement.  On top sit the sweeps:
superiority maps over (p1, p2), heralding thresholds, gamma-versus-
efficiency curves, and the optimal beam-splitter transmission.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .channel_model import ChannelParams
from .errors import FitError, NoKeyError
from .photon_source import (PhotonDistribution, apply_collection_array,
                            check_collection, check_distribution_array,
                            hp_effective_array)
from .protocols import (DEFAULT_ETA_D, DEFAULT_F_EC, DEFAULT_F_EC_TAGGING,
                        DEFAULT_Q_SIFT, DEFAULT_T, check_herald,
                        herald_dark_rate, skr_dtb, skr_dtb_array, skr_hp,
                        skr_hp_array, skr_wcs_infinite_decoy,
                        skr_wcs_infinite_decoy_array, skr_wcs_tagging_bound)
from .search import bisect, golden_max_lockstep

# Bisection width for maximal-loss searches, in dB.
MCL_TOL_DB = 0.01

# Expansion limit: no modeled configuration here survives 200 dB.
_LOSS_CAP_DB = 200.0

# Search widths of hp_threshold (in p2) and optimal_bs_transmission (in t).
HP_THRESHOLD_TOL = 1e-4
BS_TRANSMISSION_TOL = 1e-4

# (receiver, f_ec) pairs whose tagged-laser reference hp_threshold keeps
_REFERENCE_MEMO_SIZE = 64

RateFn = Callable[[float], float]
# (problem indices, losses in dB) -> rates, for mcl_lockstep
ArrayRateFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
# losses in dB -> the rates of one problem at all of them, for skr_curve
CurveFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, slots=True)
class SkrCurve:
    """A sampled rate-versus-loss curve plus its maximal channel loss
    (NaN without key at zero loss)."""

    points: tuple[tuple[float, float], ...]
    mcl_db: float


@dataclass(frozen=True, slots=True)
class GammaMap:
    """Relative-gain samples over the (p1, p2) simplex.

    ``gamma_db[i, j]`` holds gamma at ``p1[i], p2[j]``; entries are NaN
    where the point is unphysical (p1 + p2 > 1) or produces no key.
    """

    p1: np.ndarray
    p2: np.ndarray
    gamma_db: np.ndarray
    wcs_mcl_db: float

    def zero_contour(self) -> tuple[np.ndarray, np.ndarray]:
        """Interpolated p1 of the gamma = 0 level, per p2 column.

        gamma is monotone in p1 at fixed p2, so the level crosses each
        column at most once; linear interpolation between the bracketing
        grid rows gives the crossing.  Columns entirely below or above
        zero are omitted.
        """
        p2_out, p1_out = [], []
        for j, p2v in enumerate(self.p2):
            col = self.gamma_db[:, j]
            ok = np.isfinite(col)
            if ok.sum() < 2:
                continue
            idx = np.flatnonzero(ok)
            vals = col[idx]
            sign_change = np.flatnonzero((vals[:-1] < 0.0) & (vals[1:] >= 0.0))
            if sign_change.size == 0:
                continue
            k = sign_change[0]
            i0, i1 = idx[k], idx[k + 1]
            g0, g1 = col[i0], col[i1]
            frac = -g0 / (g1 - g0)
            p1_out.append(self.p1[i0] + frac * (self.p1[i1] - self.p1[i0]))
            p2_out.append(p2v)
        return np.asarray(p2_out), np.asarray(p1_out)

    def fit_zero_contour(self, p2_max: float = 0.3) -> tuple[float, float]:
        """Least-squares (slope, intercept) of the contour for p2 <= p2_max."""
        p2c, p1c = self.zero_contour()
        keep = p2c <= p2_max
        if keep.sum() < 2:
            raise FitError("zero contour has fewer than two points below p2_max")
        slope, intercept = np.polyfit(p2c[keep], p1c[keep], 1)
        return float(slope), float(intercept)


def _mcl_bracket(rate_fn: ArrayRateFn, size: int, tol_db: float,
                 hint: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """The one maximal-loss search, over ``size`` problems in lockstep.

    ``rate_fn(idx, loss_db)`` returns the key rates of problems ``idx`` at
    the losses ``loss_db`` (equal-length arrays).  Every loss probed is a
    grid index times the step s = 25/2^k dB, the first halving of 25 dB at
    or below ``tol_db``, exact in float.  A problem has key at index 0
    when its rate is "not <= 0" (so a NaN rate is searched too), and at
    any other index when its rate is > 0.

    Without a hint a problem checks zero loss, then expands 25 dB brackets
    until a probe has no key.  ``hint``, when given, holds each problem's
    expected MCL in dB, NaN for none: a hinted problem probes the index
    floor(hint / s), clamped to [0, 200 dB], then gallops by 1, 2, 4, ...
    steps up while it has key or down while it has none, clamped alike;
    no key at index 0 leaves it without key.  Either way FitError is
    raised when any problem has key at the 200 dB cap.  Every bracket is
    then a power of two steps wide (25 dB without a hint), and all are
    bisected together over grid indices, the widest first; so for a rate
    whose sign does not increase along the grid the result is the highest
    index with key, hinted or not.  Returns each problem's last loss with
    key, the floor of its final bracket (NaN without key at zero loss),
    and s.
    """
    step, width = 25.0, 1  # the grid step, and 25 dB in steps
    while step > tol_db:
        step *= 0.5
        width *= 2
    cap = 8 * width  # _LOSS_CAP_DB in steps
    floor = np.full(size, np.nan)  # the highest loss found with key

    keyed = np.arange(size) if hint is None else np.flatnonzero(np.isnan(hint))
    if keyed.size:
        keyed = keyed[~(rate_fn(keyed, np.zeros(keyed.size)) <= 0.0)]
    live, loss = keyed, 0.0  # the problems with key at every 25 dB so far
    while live.size:
        floor[live] = loss
        if loss >= _LOSS_CAP_DB:
            raise FitError(f"key rate still positive at {_LOSS_CAP_DB} dB")
        loss += 25.0
        live = live[rate_fn(live, np.full(live.size, loss)) > 0.0]
    todo, n, half = keyed, keyed.size, width >> 1  # all 25 dB brackets

    if hint is not None:
        hinted = np.flatnonzero(~np.isnan(hint))
        below = np.full(hinted.size, -1)  # the highest index found with key
        above = np.full(hinted.size, cap + 1)  # the lowest found without
        live = np.arange(hinted.size)
        at = np.clip(np.floor(hint[hinted] / step), 0, cap).astype(np.int64)
        stride = 1
        while live.size:
            rate = rate_fn(hinted[live], at * step)  # "not <= 0" at 0:
            key = (rate > 0.0) | ((at == 0) & np.isnan(rate))
            if np.any(key & (at == cap)):
                raise FitError(f"key rate still positive at {_LOSS_CAP_DB} dB")
            below[live[key]] = at[key]
            above[live[~key]] = at[~key]
            # on down while no key is found above 0, up while all had key
            live = live[((below[live] < 0) & (above[live] > 0))
                        | (above[live] > cap)]
            at = np.where(below[live] < 0,
                          np.maximum(above[live] - stride, 0),
                          np.minimum(below[live] + stride, cap))
            stride *= 2
        got = below >= 0
        below, above = below[got], above[got]
        # a bracket clamped at 0 or at the cap is widened to a power of two
        # away from that end, over indices whose sign monotonicity fixes
        pow2 = 2 ** np.ceil(np.log2(above - below)).astype(np.int64)
        floor[hinted[got]] = np.where(above == cap, cap - pow2, below) * step
        wide = np.concatenate([np.full(keyed.size, width), pow2])  # steps
        order = np.argsort(-wide, kind="stable")
        todo, wide = np.concatenate([keyed, hinted[got]])[order], wide[order]
        n, half = 0, int(wide.max(initial=1)) >> 1

    # one bisection, of the widest brackets first and of the others from
    # the half that fits them; each index j is held as its loss j * step,
    # exact in float, so the sums below are exact too
    at = floor[todo]
    head, idx = at[:n], todo[:n]  # views: head writes through to at
    while half and todo.size:
        if n < todo.size and wide[n] > half:
            n = np.count_nonzero(wide > half)
            head, idx = at[:n], todo[:n]
        mid = head + half * step
        np.copyto(head, mid, where=rate_fn(idx, mid) > 0.0)
        half >>= 1
    floor[todo] = at
    return floor, step


def _scalar_bracket(skr_fn: RateFn, tol_db: float) -> tuple[float, float]:
    """``_mcl_bracket`` of one scalar rate function, which sees Python
    floats; NoKeyError without key at zero loss."""
    floor, step = _mcl_bracket(
        lambda idx, loss_db: np.array([skr_fn(loss_db.item())]), 1, tol_db)
    floor = floor.item()
    if math.isnan(floor):
        raise NoKeyError("key rate is non-positive at zero channel loss")
    return floor, step


def mcl(skr_fn: RateFn, tol_db: float = MCL_TOL_DB) -> float:
    """Maximal channel loss of a rate function, by the one MCL search
    (``_mcl_bracket``): ``mcl_lockstep`` of a single problem.

    ``skr_fn`` maps loss in dB to a key rate.  The rate must be positive
    at 0 dB (otherwise there is no key to lose: NoKeyError) and
    non-increasing in loss; FitError is raised when it still has key at
    the 200 dB cap.  The losses probed are multiples of the step 25/2^k
    dB, the first halving of 25 dB at or below ``tol_db``, and the result
    m is the last of them with key plus half a step, so it satisfies
    skr_fn(m - tol) > 0 >= skr_fn(m + tol).
    """
    floor, step = _scalar_bracket(skr_fn, tol_db)
    return floor + 0.5 * step


def mcl_lockstep(rate_fn: ArrayRateFn, size: int,
                 tol_db: float = MCL_TOL_DB) -> np.ndarray:
    """``mcl`` of ``size`` independent problems, searched together.

    ``rate_fn(idx, loss_db)`` returns the key rates of problems ``idx`` at
    the losses ``loss_db`` (equal-length arrays).  Both run
    ``_mcl_bracket``, so every problem probes the grid losses one ``mcl``
    call probes, in the same order, and gets the same result.  Problems
    without key at zero loss are NaN where ``mcl`` raises NoKeyError;
    FitError is raised when any problem's rate is still positive at the
    cap, where a loop of ``mcl`` calls raises at the first such problem.
    """
    floor, step = _mcl_bracket(rate_fn, size, tol_db)
    return floor + 0.5 * step


def gamma(mcl_protocol_db: float, mcl_wcs_db: float) -> float:
    """Relative gain in dB; positive means the protocol tolerates more loss."""
    return mcl_protocol_db - mcl_wcs_db


def skr_curve(skr_fn: RateFn, losses: Iterable[float],
              curve_fn: CurveFn | None = None) -> SkrCurve:
    """Sample a rate function on a loss grid and attach its MCL.

    ``curve_fn``, when given, computes the rates of the whole grid at once
    and must equal ``skr_fn`` point by point; the MCL is always searched
    on ``skr_fn``.  Without key at zero loss the MCL is NaN.
    """
    grid = [float(x) for x in losses]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("losses must be strictly increasing")
    rates = (map(skr_fn, grid) if curve_fn is None
             else curve_fn(np.array(grid)).tolist())
    points = tuple(zip(grid, rates))
    try:
        mcl_db = mcl(skr_fn)
    except NoKeyError:
        mcl_db = math.nan
    return SkrCurve(points=points, mcl_db=mcl_db)


def _loss_rate(kernel, channel: ChannelParams, *data, **kw) -> RateFn:
    # loss -> kernel(*data, channel at that loss, **kw).rate, for the four
    # scalar factories below, which pass their keywords through
    return lambda loss_db: kernel(*data, channel.with_loss(loss_db), **kw).rate


def dtb_rate_fn(signal: PhotonDistribution, channel: ChannelParams,
                **kw) -> RateFn:
    """Loss -> ``skr_dtb`` rate for fixed signal statistics."""
    return _loss_rate(skr_dtb, channel, signal, **kw)


def dtb_rate_array_fn(probs: np.ndarray, channel: ChannelParams,
                      **kw) -> ArrayRateFn:
    """``dtb_rate_fn`` for the columns of a (4, N) array of checked
    distributions, in the form ``mcl_lockstep`` takes (``skr_dtb_array``)."""
    return lambda idx, loss_db: skr_dtb_array(probs[:, idx], channel, loss_db,
                                              **kw)


def hp_rate_fn(source: PhotonDistribution, channel: ChannelParams,
               **kw) -> RateFn:
    """Loss -> ``skr_hp`` rate for fixed source statistics."""
    return _loss_rate(skr_hp, channel, source, **kw)


def hp_rate_array_fn(probs: np.ndarray, channel: ChannelParams,
                     t=DEFAULT_T, eta_d=DEFAULT_ETA_D,
                     p_dc_alice: float | None = None, **kw) -> ArrayRateFn:
    """``hp_rate_fn`` for the columns of a (4, N) array of checked sources,
    in the form ``mcl_lockstep`` takes; ``t`` and ``eta_d`` are scalars or
    length-N arrays, the rest goes to ``skr_hp_array``.  The effective
    distributions are checked once, here."""
    eff = hp_effective_array(probs, t, eta_d,
                             herald_dark_rate(p_dc_alice, channel))
    return lambda idx, loss_db: skr_hp_array(eff[:, idx], channel, loss_db,
                                             **kw)


def wcs_rate_fn(channel: ChannelParams, **kw) -> RateFn:
    """Loss -> decoy-baseline WCS rate, re-optimizing mu at every loss."""
    return _loss_rate(skr_wcs_infinite_decoy, channel, **kw)


def wcs_curve_fn(channel: ChannelParams, **kw) -> CurveFn:
    """``wcs_rate_fn`` over a whole loss grid at once, every rate equal
    (``skr_wcs_infinite_decoy_array``: one lockstep mu search)."""
    return lambda loss_db: skr_wcs_infinite_decoy_array(channel, loss_db,
                                                        **kw)[0]


def wcs_tagged_rate_fn(channel: ChannelParams, **kw) -> RateFn:
    """Loss -> tagging-bound WCS rate (the heralded-comparison reference)."""
    return _loss_rate(skr_wcs_tagging_bound, channel, **kw)


def wcs_mcl(channel: ChannelParams, **kw) -> float:
    """MCL of the optimized weak-coherent decoy baseline."""
    return mcl(wcs_rate_fn(channel, **kw))


def gamma_map_dtb(channel: ChannelParams, eta_c: float = 1.0, n: int = 200,
                  q_sift: float = DEFAULT_Q_SIFT,
                  f_ec: float = DEFAULT_F_EC) -> GammaMap:
    """Relative gain of the decoy-state protocol over the (p1, p2) simplex.

    The n x n grid spans [0, 1] on both axes; points with p1 + p2 > 1 and
    points yielding no key at zero loss are NaN.  The baseline MCL is
    computed once for the shared channel, at the same ``f_ec``.  All simplex
    points are searched together by ``mcl_lockstep`` over ``skr_dtb_array``.
    The search reads only the sign of each rate, so entries equal the
    per-point ``mcl(dtb_rate_fn(...))`` bit for bit unless a probed rate lies
    within the kernel's last-place rounding of zero.
    """
    if n < 2:
        raise ValueError("the grid needs n >= 2 points per axis")
    check_collection(eta_c)
    baseline = wcs_mcl(channel, q_sift=q_sift, f_ec=f_ec)
    p1_axis = np.linspace(0.0, 1.0, n)
    p2_axis = np.linspace(0.0, 1.0, n)
    p1, p2 = np.meshgrid(p1_axis, p2_axis, indexing="ij")
    inside = p1 + p2 <= 1.0 + 1e-12
    p1, p2 = p1[inside], p2[inside]
    probs = check_distribution_array(
        np.stack([np.maximum(1.0 - p1 - p2, 0.0), p1, p2, np.zeros_like(p1)]))
    if eta_c < 1.0:
        probs = apply_collection_array(probs, eta_c)
    m = mcl_lockstep(dtb_rate_array_fn(probs, channel, q_sift=q_sift,
                                       f_ec=f_ec), p1.size)
    out = np.full((n, n), np.nan)
    out[inside] = m - baseline
    return GammaMap(p1=p1_axis, p2=p2_axis, gamma_db=out, wcs_mcl_db=baseline)


@functools.lru_cache(maxsize=_REFERENCE_MEMO_SIZE)
def _reference_loss(receiver: ChannelParams, f_ec: float) -> float:
    """The last loss where the MCL search over the tagged laser found key.

    The search sets the loss of every probe, so ``receiver`` is keyed at
    zero loss.  A NoKeyError or FitError is raised again on every call:
    ``lru_cache`` keeps only returned values.
    """
    return _scalar_bracket(wcs_tagged_rate_fn(receiver, f_ec=f_ec),
                           MCL_TOL_DB)[0]


def hp_threshold(eta_d: float, channel: ChannelParams, t: float = DEFAULT_T,
                 p_dc_alice: float | None = None,
                 f_ec: float = DEFAULT_F_EC_TAGGING) -> float:
    """Minimal two-photon probability where purification beats the laser.

    The reference is the weak-coherent source evaluated under the same
    tagging-style bound and the same ``f_ec`` as the purified rate
    (``skr_wcs_tagging_bound``): comparing a purification bound against
    the decoy-state baseline would mix two different security analyses
    and shift the crossing by the gap between the two laser curves.

    One-photon pulses enter the heralded statistics only through
    dark-count coincidences, so the threshold is insensitive to p1 and
    the scan uses a {vacuum, two-photon} source.  Heralded MCL grows with
    p2, hence a single sign change: a 50-point scan brackets it, and a
    bisection in p2 refines it.

    Neither step searches the purified MCL.  The MCL search
    (``_mcl_bracket``) probes only multiples of one step, 25/4096 dB at
    ``MCL_TOL_DB``, all exact in float; its final bracket starts at the
    last loss where it found key, and for a rate non-increasing in loss
    that is the highest grid loss with key.  The reference is that floor
    of the tagged laser's search.  So a purified MCL reaches the reference
    exactly when the purified rate is positive at the reference, and each
    scan point and p2 probe costs one rate evaluation there.

    The reference depends only on the receiver (``eta_bob``, ``p_dc``,
    ``e_d``) and ``f_ec``, so it is searched once per such pair and shared
    by later calls, whatever their ``loss_db``, ``eta_d``, ``t`` or
    ``p_dc_alice``; its errors are not kept, and a reference without key
    or past the cap fails every call that needs it.

    NoKeyError is raised when no scan point reaches the reference; FitError
    when a scan point still has key at the 200 dB cap, as ``mcl`` raises.
    ValueError is raised before any search for ``t`` outside (0, 1),
    ``eta_d`` outside (0, 1] or a herald dark rate outside [0, 1].
    """
    check_herald(t, eta_d, herald_dark_rate(p_dc_alice, channel))
    at = _reference_loss(channel.with_loss(0.0), f_ec)
    herald = {"t": t, "eta_d": eta_d, "p_dc_alice": p_dc_alice, "f_ec": f_ec}

    scan = np.linspace(0.02, 1.0, 50)
    none = np.zeros_like(scan)
    probs = check_distribution_array(np.stack([1.0 - scan, none, scan, none]))
    rate = hp_rate_array_fn(probs, channel, **herald)
    hits = np.flatnonzero(rate(np.arange(scan.size), np.full(scan.size, at))
                          > 0.0)
    if hits.size == 0:
        raise NoKeyError("no two-photon probability reaches the reference loss")
    if np.any(rate(hits, np.full(hits.size, _LOSS_CAP_DB)) > 0.0):
        raise FitError(f"key rate still positive at {_LOSS_CAP_DB} dB")
    k = hits[0]
    if k == 0:
        return float(scan[0])

    def below(p2: float) -> bool:
        d = PhotonDistribution(p0=1.0 - p2, p1=0.0, p2=p2)
        return not hp_rate_fn(d, channel, **herald)(at) > 0.0

    return bisect(below, scan[k - 1], scan[k], HP_THRESHOLD_TOL)


def optimal_bs_transmission(p2, p_dc: float, eta_d: float,
                            channel: ChannelParams, p1: float = 0.0):
    """Beam-splitter transmission maximizing the heralded MCL.

    ``p_dc`` is the herald detector's dark-count probability.  When it is
    exactly zero the heralded one-photon weight is 2 p2 eta_d t(1-t) for
    any p1, the two-photon weight vanishes, and the rate is a monotone
    function of that single product, so the maximum sits at t = 1/2 by
    symmetry and is returned without searching in t.  Otherwise the MCL is
    maximized by golden-section over t in (0, 1) to ``BS_TRANSMISSION_TOL``.
    A weight for which no probed t (t = 1/2 when ``p_dc`` is zero) gives
    key has no optimum: NaN.

    ``p2`` is one two-photon weight, or a sequence of them for an array of
    optima.  All weights are searched together (``golden_max_lockstep``,
    with one MCL search across them per probe, as ``mcl_lockstep`` at
    ``tol_db=1e-5``); one weight is the size-1 case.  Each weight's search
    after its first t starts from its MCL at its last t, which usually
    lies a few grid steps away, and gallops out from there
    (``_mcl_bracket``): about half the rate calls of a search from zero
    loss.  Both probe only multiples of one grid step and return the
    highest of them with key plus half a step, so the hint changes no MCL
    while the rate's sign does not increase along that grid.  Each optimum
    equals a ``golden_max`` over ``mcl(..., tol_db=1e-5)`` bit for bit,
    unless a probed rate lies within the kernel's last-place rounding of
    zero.

    With ``p1 > 0`` and a noisy herald detector the optimum moves above
    1/2 at small p2 and relaxes back as p2 grows: false heralds promote
    one-photon pulses into the key through the t p1 p_dc term, which
    rewards transmission until genuine two-photon coincidences dominate.

    ValueError is raised before any search for ``eta_d`` outside (0, 1]
    or ``p_dc`` outside [0, 1] (``check_herald``).
    """
    check_herald(eta_d=eta_d, p_dc=p_dc)
    p2s = np.array(p2, dtype=float).reshape(-1)
    if not np.all((0.0 < p2s) & (p2s <= 1.0)):
        raise ValueError("p2 must lie in (0, 1]")
    if not p1 >= 0.0 or np.any(p1 + p2s > 1.0):
        raise ValueError("need p1 >= 0 and p1 + p2 <= 1")
    probs = check_distribution_array(np.stack(
        [1.0 - p1 - p2s, np.full_like(p2s, p1), p2s, np.zeros_like(p2s)]))
    keyed = np.zeros(p2s.size, dtype=bool)
    last = np.full(p2s.size, np.nan)  # each weight's MCL at its last t

    def objective(idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        # the landscape is shallow near the top, so the inner loss search
        # runs much tighter than the reported MCL resolution
        floor, step = _mcl_bracket(
            hp_rate_array_fn(probs[:, idx], channel, t=t, eta_d=eta_d,
                             p_dc_alice=p_dc), idx.size, 1e-5, last[idx])
        m = last[idx] = floor + 0.5 * step
        keyed[idx] |= ~np.isnan(m)
        return np.where(np.isnan(m), -1.0, m)  # no key

    if p_dc == 0.0:
        t_opt = np.full(p2s.size, 0.5)
        objective(np.arange(p2s.size), t_opt)  # for ``keyed`` alone
    else:
        t_opt = golden_max_lockstep(objective, 1e-3, 1.0 - 1e-3,
                                    BS_TRANSMISSION_TOL, p2s.size)
    t_opt[~keyed] = np.nan
    return t_opt if np.ndim(p2) else float(t_opt[0])


def gamma_vs_efficiency(protocol: str, axis: str, values: Sequence[float],
                        source: PhotonDistribution, channel: ChannelParams,
                        eta_c: float = 1.0, eta_d: float = DEFAULT_ETA_D,
                        t: float = DEFAULT_T,
                        p_dc_alice: float | None = None,
                        q_sift: float = DEFAULT_Q_SIFT,
                        f_ec: float | None = None) -> list[tuple[float, float]]:
    """Relative gain along a collection- or detector-efficiency sweep.

    ``protocol`` is "dtb" or "hp"; ``axis`` is "eta_c" (collection, applied
    to the source statistics before the transmitter) or "eta_d" (herald
    detector, purification only).  Points where the protocol yields no key
    are reported as NaN rather than dropped, so curves keep the grid shape.

    An explicit ``f_ec`` applies to the protocol and the laser baseline;
    ``None`` means ``DEFAULT_F_EC`` for "dtb" and the baseline and
    ``DEFAULT_F_EC_TAGGING`` for "hp".

    The baseline is the decoy-state laser (``wcs_mcl``) for both
    protocols.  ``hp_threshold`` instead measures purification against
    the tagging-bound laser (``skr_wcs_tagging_bound``), so an "hp" gain
    here and that threshold use different laser references.  Which one
    the source paper uses is not settled: only its abstract is at hand.

    For sources with large p2 the gain need not be monotone in eta_c under
    the decoy protocol: losing one photon of a pair converts a two-photon
    pulse into a useful single, so moderate collection loss can raise the
    MCL before brightness loss dominates.
    """
    if protocol not in ("dtb", "hp"):
        raise ValueError("protocol must be 'dtb' or 'hp'")
    if axis not in ("eta_c", "eta_d"):
        raise ValueError("axis must be 'eta_c' or 'eta_d'")
    if protocol == "dtb" and axis == "eta_d":
        raise ValueError("the decoy protocol has no herald detector")
    check_collection(eta_c)
    if protocol == "hp":
        # a swept eta_d is left to the kernels
        check_herald(t, eta_d if axis == "eta_c" else DEFAULT_ETA_D,
                     herald_dark_rate(p_dc_alice, channel))
    # an explicit f_ec reaches the rates and the baseline; None leaves each
    # kernel its own default
    kw = {"q_sift": q_sift} if f_ec is None else {"q_sift": q_sift, "f_ec": f_ec}
    grid = np.array(values, dtype=float).reshape(-1)
    # float grids routinely overshoot the unit interval by one ulp
    grid[(1.0 < grid) & (grid < 1.0 + 1e-9)] = 1.0
    grid[(-1e-9 < grid) & (grid < 0.0)] = 0.0
    probs = np.repeat(np.array([source.as_tuple()]).T, grid.size, axis=1)
    if axis == "eta_c":
        probs = apply_collection_array(probs, grid)
    elif eta_c < 1.0:
        probs = apply_collection_array(probs, eta_c)
    if protocol == "dtb":
        fn = dtb_rate_array_fn(probs, channel, **kw)
    else:
        fn = hp_rate_array_fn(probs, channel, t=t,
                              eta_d=grid if axis == "eta_d" else eta_d,
                              p_dc_alice=p_dc_alice, **kw)
    # after the sweep's own checks above, so a bad sweep searches nothing
    baseline = wcs_mcl(channel, **kw)
    m = mcl_lockstep(fn, grid.size)
    return [(vi, float(mi) - baseline if not math.isnan(mi) else math.nan)
            for vi, mi in zip(grid.tolist(), m)]
