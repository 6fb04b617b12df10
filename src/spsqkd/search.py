"""The package's searches: golden-section maximum and sign bisection, the
golden section also in lockstep over many independent problems.

Each takes a bracket only when its ends are finite and ordered (lo <= hi)
and a tolerance only when it is finite and positive, and raises ValueError
before the first call of its function otherwise.  Every
positive tolerance ends: a bracket that float spacing keeps wider than
the tolerance stops where it can shrink no further (see each search).

A golden section stops at its first stall: a step that would leave its
bracket as it was (the new end equal to the old one).  Under
round-to-nearest every other step strictly shrinks the bracket.  A stall
needs a bracket narrower than about 1.31 ulp of its ends, so with
``tol >= 2 * ulp(max(|lo|, |hi|))`` none happens and the search probes
what one without this stop would; every search in the package is in
that range.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _check(lo: float, hi: float, tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, not {tol!r}")
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError(
            f"bounds must be finite with lo <= hi, not ({lo!r}, {hi!r})")


def golden_max(fn: Callable[[float], float], lo: float, hi: float,
               tol: float) -> float:
    """Golden-section maximizer for a unimodal function on [lo, hi].

    Returns the midpoint of the bracket once it is within ``tol``, or at
    the first step that would leave the bracket as it was (``d == b`` on
    a step to the left, ``c == a`` on one to the right): a deterministic
    ``fn`` would repeat such steps for ever.  That stall needs a bracket
    down to a float or two, so with ``tol`` at least 2 ulp of the
    bracket's ends it never happens before the bracket is within ``tol``.
    """
    _check(lo, hi, tol)
    a, b = lo, hi
    c = b - (b - a) * _GOLDEN
    d = a + (b - a) * _GOLDEN
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc > fd:
            if d == b:  # the step would keep the bracket
                break
            b, d, fd = d, c, fc
            c = b - (b - a) * _GOLDEN
            fc = fn(c)
        else:
            if c == a:
                break
            a, c, fc = c, d, fd
            d = a + (b - a) * _GOLDEN
            fd = fn(d)
    return 0.5 * (a + b)


def golden_max_lockstep(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        lo: float, hi: float, tol: float,
                        size: int) -> np.ndarray:
    """``golden_max`` of ``size`` independent problems, searched together.

    ``fn(idx, x)`` returns the objectives of problems ``idx`` at the points
    ``x`` (equal-length arrays).  Each problem does ``golden_max``'s float
    operations in the same order and drops out when its own bracket is
    within ``tol`` or its next step stalls as ``golden_max``'s does, so it
    probes the points one ``golden_max`` call probes and returns the same
    maximizer.
    """
    _check(lo, hi, tol)
    a, b = np.full(size, float(lo)), np.full(size, float(hi))
    c = b - (b - a) * _GOLDEN
    d = a + (b - a) * _GOLDEN
    every = np.arange(size)
    fc, fd = fn(every, c), fn(every, d)
    todo = every[b - a > tol]
    while todo.size:
        left = fc[todo] > fd[todo]
        stall = np.where(left, d[todo] == b[todo], c[todo] == a[todo])
        if stall.any():
            todo, left = todo[~stall], left[~stall]
            if not todo.size:
                break
        s, g = todo[left], todo[~left]
        b[s], d[s], fd[s] = d[s], c[s], fc[s]
        c[s] = b[s] - (b[s] - a[s]) * _GOLDEN
        a[g], c[g], fc[g] = c[g], d[g], fd[g]
        d[g] = a[g] + (b[g] - a[g]) * _GOLDEN
        f = fn(todo, np.where(left, c[todo], d[todo]))
        fc[s], fd[g] = f[left], f[~left]
        todo = todo[b[todo] - a[todo] > tol]
    return 0.5 * (a + b)


def bisect(below: Callable[[float], bool], lo: float, hi: float,
           tol: float) -> float:
    """Midpoint of the bracket around the one point where ``below`` turns
    from true (at ``lo``) to false (at ``hi``), halved down to ``tol`` or
    until no float lies strictly between its ends."""
    _check(lo, hi, tol)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
