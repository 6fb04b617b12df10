"""The package's scalar searches: golden-section maximum and sign bisection."""

from __future__ import annotations

import math
from typing import Callable

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
