"""Plot-ready quantities built on the key-rate engines.

Everything here reduces to one primitive: the maximal channel loss
(MCL), the largest attenuation at which a protocol's key rate stays
positive.  It is searched once, by ``_mcl_bracket``, over one problem
(``mcl``) or many in lockstep (``mcl_lockstep``), in one probe loop and
one bisection.  Each problem starts at its hint's grid index, clamped to
[0, 200 dB], or at zero loss without a hint, and steps up while it has
key and down while it has none: 25 dB at a time without a hint, 1, 2,
4, ... grid steps with one.  Every loss it probes is a multiple of the
step 25/2^k dB, the first halving of 25 dB at or below the tolerance
(25/4096 dB at the default 0.01 dB), so for a rate whose sign does not
increase along that grid the MCL is the highest grid loss with key plus
half a step, whatever the hint and whatever order the problems are
probed in.  The search owns its edge rules: it adds that half step,
raises FitError at the cap (``_check_cap``, which ``hp_threshold`` and a
noiseless ``optimal_bs_transmission`` call without searching) and clamps
every hint, so any hint, a problem's expected MCL at any loss, is valid.
``optimal_bs_transmission`` hints each weight's MCL as predicted from its
earlier probes in t, and ``wcs_mcl`` the laser's cut-off with its
Poisson sums in closed form, found by a few Newton steps in
transmittance rather than by a search of its own.  ``gamma_map_dtb``
searches its half-resolution lattice from zero loss and hints every
other point with the mean of its lattice neighbours' MCLs.  The other
searches start from zero loss.
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
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .channel_model import ChannelParams, _wcs_closed_form
from .errors import FitError, NoKeyError
from .photon_source import (PhotonDistribution, apply_collection_array,
                            check_collection, check_distribution_array,
                            hp_effective_array)
from .protocols import (DEFAULT_ETA_D, DEFAULT_F_EC, DEFAULT_F_EC_TAGGING,
                        DEFAULT_Q_SIFT, DEFAULT_T, _decoy_laser, check_herald,
                        herald_dark_rate, skr_dtb, skr_dtb_array, skr_hp,
                        skr_hp_array, skr_wcs_infinite_decoy,
                        skr_wcs_infinite_decoy_array, skr_wcs_tagging_bound)
from .search import bisect, golden_max_lockstep

# Bisection width for maximal-loss searches, in dB.
MCL_TOL_DB = 0.01

# Expansion limit: no modeled configuration here survives 200 dB.
_LOSS_CAP_DB = 200.0

# The finest MCL tolerance: at the step 25/2^59 dB the cap's grid index,
# 8 * 2^59, is the largest power of two that int64 holds.
_MCL_TOL_MIN_DB = 25.0 / 2**59

# wcs_mcl's Newton hint: the slope's relative step in transmittance, the
# step in dB that ends it, and its most steps.
_NEWTON_DX, _NEWTON_TOL_DB, _NEWTON_STEPS = 1e-6, 0.05, 8

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
        g = self.gamma_db
        fin = np.isfinite(g)
        # each entry's previous finite row in its column, -1 for none
        prev = np.full(g.shape, -1)
        prev[1:] = np.maximum.accumulate(
            np.where(fin, np.arange(g.shape[0])[:, None], -1), axis=0)[:-1]
        cross = (fin & (prev >= 0) & (g >= 0.0)
                 & (np.take_along_axis(g, prev, axis=0) < 0.0))
        # the first crossing of each column, in column order
        j, i1 = np.nonzero((cross & (np.cumsum(cross, axis=0) == 1)).T)
        i0 = prev[i1, j]
        g0, g1 = g[i0, j], g[i1, j]
        frac = -g0 / (g1 - g0)
        return self.p2[j], self.p1[i0] + frac * (self.p1[i1] - self.p1[i0])

    def fit_zero_contour(self, p2_max: float = 0.3) -> tuple[float, float]:
        """Least-squares (slope, intercept) of the contour for p2 <= p2_max."""
        p2c, p1c = self.zero_contour()
        keep = p2c <= p2_max
        if keep.sum() < 2:
            raise FitError("zero contour has fewer than two points below p2_max")
        slope, intercept = np.polyfit(p2c[keep], p1c[keep], 1)
        return float(slope), float(intercept)


def _check_cap(key) -> None:
    """FitError where any problem of ``key`` has key at the 200 dB cap."""
    if np.any(key):
        raise FitError(f"key rate still positive at {_LOSS_CAP_DB} dB")


def _mcl_bracket(rate_fn: ArrayRateFn, size: int, tol_db: float,
                 hint: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """The one maximal-loss search, over ``size`` problems in lockstep.

    ``rate_fn(idx, loss_db)`` returns the key rates of problems ``idx`` at
    the losses ``loss_db`` (equal-length arrays).  Every loss probed is a
    grid index times the step s = 25/2^k dB, the first halving of 25 dB at
    or below ``tol_db``, exact in float.  A problem has key at index 0
    when its rate is "not <= 0" (so a NaN rate is searched too), and at
    any other index when its rate is > 0.

    One probe loop serves every problem.  ``hint``, when given, holds each
    problem's expected MCL in dB, NaN for none.  A problem starts at the
    index floor(hint / s), clamped to [0, 200 dB], or at index 0 without a
    hint, and steps up while it has key and down while it has none,
    clamped alike: 25 dB at a time without a hint, 1, 2, 4, ... steps
    with one.  No key at index 0 leaves it without key, so any hint is
    valid, a negative or infinite one included, and only the probed rates
    decide the result.  FitError is raised when any problem has key at the
    200 dB cap, and ValueError, before any rate call, unless ``tol_db`` is
    finite and at least 25/2^59 dB.  Every bracket is then a power of two
    steps wide (25 dB without a hint), and all are bisected together over
    grid indices, the widest first; so for a rate whose sign does not
    increase along the grid the last loss with key is the highest grid
    loss with key, hinted or not.  Returns each problem's MCL, that loss plus half a step (NaN
    without key at zero loss), and s.
    """
    if not _MCL_TOL_MIN_DB <= tol_db < math.inf:
        raise ValueError(f"tol_db must be finite and at least 25/2^59 dB, "
                         f"not {tol_db!r}")
    step, width = 25.0, 1  # the grid step, and 25 dB in steps
    while step > tol_db:
        step *= 0.5
        width *= 2
    cap = 8 * width  # _LOSS_CAP_DB in steps
    hint = np.full(size, np.nan) if hint is None else hint
    below = np.full(size, -1)  # the highest index found with key
    above = np.full(size, cap + 1)  # the lowest found without
    # the live problems, their brackets so far, and which have no hint
    live, lo, hi = np.arange(size), below.copy(), above.copy()
    cold = np.isnan(hint)
    # fmax takes a NaN hint to index 0
    at = np.fmin(np.fmax(np.floor(hint / step), 0), cap).astype(np.int64)
    stride = 1
    while live.size:
        rate = rate_fn(live, at * step)  # "not <= 0" at 0:
        key = (rate > 0.0) | ((at == 0) & np.isnan(rate))
        _check_cap(key & (at == cap))
        np.copyto(lo, at, where=key)
        np.copyto(hi, at, where=~key)
        below[live], above[live] = lo, hi
        # on down while no key is found above 0, up while all had key
        go = ((lo < 0) & (hi > 0)) | (hi > cap)
        live, lo, hi, cold = live[go], lo[go], hi[go], cold[go]
        at = np.where(lo < 0, np.maximum(hi - stride, 0),
                      np.minimum(lo + np.where(cold, width, stride), cap))
        stride *= 2
    todo = np.flatnonzero(below >= 0)
    below, above = below[todo], above[todo]
    # a bracket clamped at 0 or at the cap is widened to a power of two
    # away from that end, over indices whose sign monotonicity fixes
    wide = 2 ** np.ceil(np.log2(above - below)).astype(np.int64)  # steps
    at = np.where(above == cap, cap - wide, below) * step  # lower ends, dB
    order = np.argsort(-wide, kind="stable")
    todo, wide, at = todo[order], wide[order], at[order]
    half = int(wide.max(initial=1)) >> 1

    # one bisection, of the widest brackets first and of the others from
    # the half that fits them, a prefix of the widest-first order; each
    # index j is held as its loss j * step, exact in float, so the sums
    # below are exact too
    while half:
        n = np.count_nonzero(wide > half)
        mid = at[:n] + half * step
        np.copyto(at[:n], mid, where=rate_fn(todo[:n], mid) > 0.0)
        half >>= 1
    floor = np.full(size, np.nan)  # the highest loss found with key
    floor[todo] = at
    return floor + 0.5 * step, step


def _scalar_bracket(skr_fn: RateFn, tol_db: float,
                    hint: float = math.nan) -> tuple[float, float]:
    """``_mcl_bracket`` of one scalar rate function, which sees Python
    floats, started from ``hint`` unless it is NaN: its MCL and the grid
    step; NoKeyError without key at zero loss."""
    m, step = _mcl_bracket(
        lambda idx, loss_db: np.array([skr_fn(loss_db.item())]), 1, tol_db,
        np.array([hint]))
    if math.isnan(m.item()):
        raise NoKeyError("key rate is non-positive at zero channel loss")
    return m.item(), step


def mcl(skr_fn: RateFn, tol_db: float = MCL_TOL_DB) -> float:
    """Maximal channel loss of a rate function, by the one MCL search
    (``_mcl_bracket``): ``mcl_lockstep`` of a single problem.

    ``skr_fn`` maps loss in dB to a key rate.  The rate must be positive
    at 0 dB (otherwise there is no key to lose: NoKeyError) and
    non-increasing in loss; FitError is raised when it still has key at
    the 200 dB cap.  The losses probed are multiples of the step 25/2^k
    dB, the first halving of 25 dB at or below ``tol_db``, and the result
    m is the last of them with key plus half a step, so it satisfies
    skr_fn(m - tol) > 0 >= skr_fn(m + tol).  The search adds that half
    step itself, and this passes its MCL on as is.  ``tol_db`` must be
    finite and at least 25/2^59 dB (about 4.3e-17 dB), the finest grid
    whose indices fit int64; any other is a ValueError before the first
    rate call.
    """
    return _scalar_bracket(skr_fn, tol_db)[0]


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
    ``tol_db`` has the range ``mcl`` accepts: finite and at least 25/2^59
    dB, or ValueError before any rate call.
    """
    return _mcl_bracket(rate_fn, size, tol_db)[0]


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


def _closed_form_cutoff(channel: ChannelParams, **kw) -> float:
    """The loss in dB where the closed-form laser's raw rate crosses zero,
    by Newton's method in the transmittance x = 10^(-loss/10) from 0 dB;
    NaN where a slope is not > 0.

    Each step takes the optimized raw rate (``_decoy_laser`` over
    ``_wcs_closed_form``) at the iterate and one at x (1 - 1e-6) with the
    iterate's mu fixed: at the optimal mu, the fixed-mu slope is the slope
    of the optimized rate (envelope theorem), and a caller's own ``mu``
    stays fixed anyway.  The next iterate is returned unevaluated once a
    step moves it less than 0.05 dB, after 8 steps, or once it leaves
    [0, 200) dB: a negative loss for x > 1, past the cap, or inf for x <=
    0, where a step lands without dark counts, since the rate is then
    nearly proportional to x.  The search clamps such a hint to [0, 200
    dB] itself.  The closed-form laser's own errors propagate.
    """
    def raw(loss_db: float, **fixed) -> tuple[float, float]:
        r = _decoy_laser(_wcs_closed_form, channel.with_loss(loss_db),
                         **{**kw, **fixed})
        return r.raw, r.mu

    loss = 0.0
    rate, mu = raw(loss)
    for steps in range(1, _NEWTON_STEPS + 1):
        x = 10.0 ** (-loss / 10.0)
        probe = loss - 10.0 * math.log10(1.0 - _NEWTON_DX)
        slope = (rate - raw(probe, mu=mu)[0]) / (x - 10.0 ** (-probe / 10.0))
        if not slope > 0.0:
            return math.nan
        x -= rate / slope
        last, loss = loss, -10.0 * math.log10(x) if x > 0.0 else math.inf
        if (not 0.0 <= loss < _LOSS_CAP_DB
                or abs(loss - last) < _NEWTON_TOL_DB or steps == _NEWTON_STEPS):
            return loss
        rate, mu = raw(loss)


def wcs_mcl(channel: ChannelParams, **kw) -> float:
    """MCL of the optimized weak-coherent decoy baseline:
    ``mcl(wcs_rate_fn(channel, **kw))``, bit for bit and error for error.

    The search starts from a hint, the loss where the same laser's raw
    rate crosses zero with its Poisson sums in closed form
    (``_closed_form_cutoff``: Newton's method in transmittance, 4
    optimized and 4 fixed-mu closed-form rates on the bundled channel;
    NaN where a slope is not positive, which leaves the search cold).
    The two laser rates differ in the last places, so their cut-offs lie
    on the same or a neighbouring grid loss, and the search gallops out
    from the hint's grid index into the one bisection (``_mcl_bracket``):
    two series probes on the bundled channel where a search from zero
    loss takes fifteen.  A hint outside [0, 200 dB] is clamped there by
    the search: a dark-free receiver with key at the cap, whose Newton
    step lands at x <= 0, fails after one series probe at the cap.  Only
    series probes decide the result, so it is the highest grid loss with
    key plus half a step, as ``mcl`` finds it, while the series rate's
    sign does not increase along the grid.
    """
    return _scalar_bracket(wcs_rate_fn(channel, **kw), MCL_TOL_DB,
                           _closed_form_cutoff(channel, **kw))[0]


def _neighbour_mean(grid: np.ndarray, i: np.ndarray,
                    j: np.ndarray) -> np.ndarray:
    """The mean of the entries of ``grid`` next to each (i, j) along its
    odd indices: the two along one, the four diagonal ones along both,
    and (i, j) itself along none; NaN where any of them is NaN.  A pair
    taken twice sums to exactly twice its sum, so two entries have the
    mean (x + y) / 2."""
    a, b = i & 1, j & 1
    return ((grid[i - a, j - b] + grid[i - a, j + b])
            + (grid[i + a, j - b] + grid[i + a, j + b])) / 4.0


def _source_array(p1, p2: np.ndarray) -> np.ndarray:
    """The checked (4, N) array of the {0, 1, 2}-photon sources with
    weights ``p1`` (a scalar or one per column) and ``p2``, and vacuum
    max(1 - p1 - p2, 0), which clamps a point on the simplex's edge whose
    rounding leaves p1 + p2 just above 1: one builder for the gamma map,
    ``hp_threshold`` and ``optimal_bs_transmission``."""
    p1 = np.full_like(p2, p1)
    return check_distribution_array(
        np.stack([np.maximum(1.0 - p1 - p2, 0.0), p1, p2, np.zeros_like(p2)]))


def _map_points(p1_axis: np.ndarray, p2_axis: np.ndarray,
                eta_c: float) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """The points of the (p1, p2) grid with p1 + p2 <= 1, the half-resolution
    lattice (both indices even) first: their indices i and j, the size of
    the lattice, and their distributions (``_source_array``), after
    collection at ``eta_c``.  A function of its own, so that the grid-sized
    arrays that build them are freed before the map's searches start.
    """
    p1, p2 = np.meshgrid(p1_axis, p2_axis, indexing="ij")
    i, j = np.nonzero(p1 + p2 <= 1.0 + 1e-12)
    odd = (i | j) & 1
    order = np.argsort(odd, kind="stable")
    i, j = i[order], j[order]
    probs = _source_array(p1_axis[i], p2_axis[j])
    if eta_c < 1.0:
        probs = apply_collection_array(probs, eta_c)
    return i, j, odd.size - np.count_nonzero(odd), probs


def gamma_map_dtb(channel: ChannelParams, eta_c: float = 1.0, n: int = 200,
                  q_sift: float = DEFAULT_Q_SIFT,
                  f_ec: float = DEFAULT_F_EC) -> GammaMap:
    """Relative gain of the decoy-state protocol over the (p1, p2) simplex.

    The n x n grid spans [0, 1] on both axes (n an integer, at least 2,
    else ValueError); points with p1 + p2 > 1 and
    points yielding no key at zero loss are NaN.  The baseline MCL is
    computed once for the shared channel, at the same ``f_ec``.  The simplex
    points are searched in two lockstep ``_mcl_bracket`` calls over
    ``skr_dtb_array``.  The first searches the half-resolution lattice,
    the points whose p1 and p2 indices are both even, from zero loss.  The
    second searches every other point from a hint: the mean of the
    lattice MCLs next to it along its odd axis, or of the four diagonal
    ones when both indices are odd, NaN (a cold start) when any of them
    is NaN or off the grid.  Neighbouring MCLs lie a fraction of a grid
    step apart, so on the bundled channel at n = 200 and eta_c = 1 the
    map costs 76,903 kernel columns in 39 rate calls, where one cold
    search of every point took 165,407 in 15.  Only probed signs decide a
    search, hinted or not, so entries equal the per-point
    ``mcl(dtb_rate_fn(...))`` bit for bit unless a probed rate lies within
    the kernel's last-place rounding of zero.
    """
    if not isinstance(n, numbers.Integral) or n < 2:
        raise ValueError("the grid needs n >= 2 points per axis")
    check_collection(eta_c)
    baseline = wcs_mcl(channel, q_sift=q_sift, f_ec=f_ec)
    p1_axis = np.linspace(0.0, 1.0, n)
    p2_axis = np.linspace(0.0, 1.0, n)
    i, j, lattice, probs = _map_points(p1_axis, p2_axis, eta_c)
    # the MCLs by grid index, with a NaN row and column past the last; the
    # lattice's hints are its own entries, still NaN, so it starts cold
    mcls = np.full((n + 1, n + 1), np.nan)
    for part in (slice(lattice), slice(lattice, None)):
        pi, pj = i[part], j[part]
        mcls[pi, pj] = _mcl_bracket(
            dtb_rate_array_fn(probs[:, part], channel, q_sift=q_sift,
                              f_ec=f_ec), pi.size, MCL_TOL_DB,
            _neighbour_mean(mcls, pi, pj))[0]
    return GammaMap(p1=p1_axis, p2=p2_axis, gamma_db=mcls[:n, :n] - baseline,
                    wcs_mcl_db=baseline)


@functools.lru_cache(maxsize=_REFERENCE_MEMO_SIZE)
def _reference_loss(receiver: ChannelParams, f_ec: float) -> float:
    """The last loss where the MCL search over the tagged laser found key.

    The search sets the loss of every probe, so ``receiver`` is keyed at
    zero loss.  It is the search's MCL less half a step, exact on the
    grid.  A NoKeyError or FitError is raised again on every call:
    ``lru_cache`` keeps only returned values.
    """
    m, step = _scalar_bracket(wcs_tagged_rate_fn(receiver, f_ec=f_ec),
                              MCL_TOL_DB)
    return m - 0.5 * step


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
    rate = hp_rate_array_fn(_source_array(0.0, scan), channel, **herald)
    hits = np.flatnonzero(rate(np.arange(scan.size), np.full(scan.size, at))
                          > 0.0)
    if hits.size == 0:
        raise NoKeyError("no two-photon probability reaches the reference loss")
    _check_cap(rate(hits, np.full(hits.size, _LOSS_CAP_DB)) > 0.0)
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
    symmetry and is returned without searching in t or in loss: one rate
    call at zero loss finds the weights with key, and one at the 200 dB cap
    raises FitError where the MCL search would.  Otherwise the MCL is
    maximized by golden-section over t in (0, 1) to ``BS_TRANSMISSION_TOL``.
    A weight for which no probed t (t = 1/2 when ``p_dc`` is zero) gives
    key has no optimum: NaN.

    ``p2`` is one two-photon weight, or a sequence of them for an array of
    optima.  All weights are searched together (``golden_max_lockstep``,
    with one MCL search across them per probe, as ``mcl_lockstep`` at
    ``tol_db=1e-5``); one weight is the size-1 case.  Each weight's search
    after its first t starts from a predicted MCL and gallops out from
    there (``_mcl_bracket``).  The prediction is herald-scaled: base(t) =
    10 log10 p1~(t), the heralded one-photon weight in dB, sets the rate's
    sign near the cut-off against the dark counts, so MCL - base(t) varies
    slowly in t.  The hint is base(t) plus the polynomial through that
    residual at the nearest up-to-three of the weight's earlier probes
    with key (``_nearest_quadratic``: a line through two, a quadratic
    through three; the nearest one's residual alone where it is not
    finite).
    On the ``optimal-t`` sweep of p2 from 0.05 to 0.5 by 0.005 this takes
    121 rate calls at p1 = 0 and 119 at p1 = 0.2, where a start from the
    last t's MCL took 263 and 259 and a search from zero loss 550.  Each
    search probes only multiples of one grid step and returns the highest
    of them with key plus half a step, so the hint changes no MCL while
    the rate's sign does not increase along that grid.  Each optimum
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
    probs = _source_array(p1, p2s)
    if p_dc == 0.0:
        # the MCL search at t = 1/2 finds key exactly where the rate has
        # key at zero loss ("not <= 0"), and fails exactly where it has key
        # at the cap
        rate = hp_rate_array_fn(probs, channel, t=0.5, eta_d=eta_d,
                                p_dc_alice=p_dc)
        keyed = ~(rate(np.arange(p2s.size), np.zeros(p2s.size)) <= 0.0)
        hits = np.flatnonzero(keyed)
        _check_cap(rate(hits, np.full(hits.size, _LOSS_CAP_DB)) > 0.0)
        t_opt = np.where(keyed, 0.5, np.nan)
    else:
        # one row per objective call: each weight's t and its MCL less
        # base(t), NaN where the call did not probe it or it had no key
        # (base(t) is never NaN)
        probed_t, residual = [], []

        def objective(idx: np.ndarray, t: np.ndarray) -> np.ndarray:
            eff = hp_effective_array(probs[:, idx], t, eta_d, p_dc)
            with np.errstate(divide="ignore", invalid="ignore"):
                base = 10.0 * np.log10(eff[1])  # heralded one-photon, dB
                hint = base + _nearest_quadratic(
                    np.array(probed_t)[:, idx], np.array(residual)[:, idx],
                    t) if probed_t else None
            # the landscape is shallow near the top, so the inner loss
            # search runs much tighter than the reported MCL resolution
            m = _mcl_bracket(
                lambda j, loss_db: skr_hp_array(eff[:, j], channel, loss_db),
                idx.size, 1e-5, hint)[0]
            for rows, row in ((probed_t, t), (residual, m - base)):
                rows.append(np.full(p2s.size, np.nan))
                rows[-1][idx] = row
            return np.where(np.isnan(m), -1.0, m)  # no key

        t_opt = golden_max_lockstep(objective, 1e-3, 1.0 - 1e-3,
                                    BS_TRANSMISSION_TOL, p2s.size)
        t_opt[np.isnan(residual).all(axis=0)] = np.nan  # never had key
    return t_opt if np.ndim(p2) else float(t_opt[0])


def _nearest_quadratic(ts: np.ndarray, rs: np.ndarray,
                       t: np.ndarray) -> np.ndarray:
    """Per column of the (k, N) points (ts, rs), the polynomial through the
    nearest up-to-three points whose rs is not NaN, at ``t``: the nearest
    min(3, k) points in |ts - t|, those with NaN rs last, in Lagrange's
    form.  Where that is not finite (a NaN rs among them, or two equal ts)
    the nearest point's rs alone (NaN for none)."""
    near = np.argsort(np.where(np.isnan(rs), np.inf, np.abs(ts - t)), axis=0,
                      kind="stable")[:3]
    ts, rs = (np.take_along_axis(a, near, 0) for a in (ts, rs))
    fit = 0.0
    for i, (ti, ri) in enumerate(zip(ts, rs)):
        num, den = ri, 1.0
        for tj in np.delete(ts, i, axis=0):
            num, den = num * (t - tj), den * (ti - tj)
        fit = fit + num / den
    return np.where(np.isfinite(fit), fit, rs[0])


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
