"""Exception types raised by the spsqkd package.

Plain precondition violations (a probability outside [0, 1], a negative
power) raise ValueError.  The classes below mark conditions that are
semantically meaningful to callers: measured data that no physical state
can produce, decoy systems that cannot be inverted, and searches that
cannot bracket a solution.

An array form of a scalar check raises as a loop of its scalar calls
would: ``raise_first`` replays the scalar rule at the first element that
the array's validity mask rejects.  ``_whole`` reads a whole number
given as a float for the input rules of ``ingest`` and ``montecarlo``;
it lives in this module because both import it and it imports no
other module of the package.
"""

from __future__ import annotations

import numpy as np


class QkdError(Exception):
    """Base class for spsqkd-specific errors."""


class InfeasibleObservablesError(QkdError):
    """Measured observables violate a feasibility bound (no valid state)."""


class InconsistentDataError(QkdError):
    """Observed rates are mutually inconsistent beyond numerical tolerance."""


class DegenerateDecoyError(QkdError):
    """Decoy and signal statistics are too similar to invert (singular system)."""


class NoKeyError(QkdError):
    """No positive key rate exists in the searched domain."""


class FitError(QkdError):
    """A least-squares fit failed to converge or its input is unusable."""


class ConfigError(QkdError):
    """A configuration file or CLI argument set is invalid."""


def raise_first(ok: np.ndarray, rule, *values) -> None:
    """Where ``ok`` (one bool per element) is not all true, call ``rule``
    on the entries of ``values`` (arrays, or scalars shared by every
    element) at the first false element, as floats: the scalar rule that
    ``ok`` mirrors, which raises there as a loop of scalar calls would."""
    if not ok.all():
        k = int(np.argmin(ok))
        rule(*(float(np.broadcast_to(v, ok.shape)[k]) for v in values))


def _whole(value):
    """A float with an integer value as that int; anything else as is.  The
    one reading of a whole number given as a float: ``ingest``'s counts and
    ``montecarlo``'s pulse count and seed."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value
