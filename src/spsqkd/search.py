"""The package's searches: golden-section maximum and sign bisection, the
golden section also in lockstep over many independent problems."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(fn: Callable[[float], float], lo: float, hi: float,
               tol: float) -> float:
    """Golden-section maximizer for a unimodal function on [lo, hi]."""
    a, b = lo, hi
    c = b - (b - a) * _GOLDEN
    d = a + (b - a) * _GOLDEN
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _GOLDEN
            fc = fn(c)
        else:
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
    within ``tol``, so it probes the points one ``golden_max`` call probes
    and returns the same maximizer.
    """
    a, b = np.full(size, float(lo)), np.full(size, float(hi))
    c = b - (b - a) * _GOLDEN
    d = a + (b - a) * _GOLDEN
    every = np.arange(size)
    fc, fd = fn(every, c), fn(every, d)
    todo = every[b - a > tol]
    while todo.size:
        left = fc[todo] > fd[todo]
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
    from true (at ``lo``) to false (at ``hi``), halved down to ``tol``."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
