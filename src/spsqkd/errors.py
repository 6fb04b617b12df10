"""Exception types raised by the spsqkd package.

Plain precondition violations (a probability outside [0, 1], a negative
power) raise ValueError.  The classes below mark conditions that are
semantically meaningful to callers: measured data that no physical state
can produce, decoy systems that cannot be inverted, and searches that
cannot bracket a solution.

An array form of a scalar check raises as a loop of its scalar calls
would: ``raise_first`` replays the scalar rule at the first element that
the array's validity mask rejects.  Every number of a fixture file or
tomography sidecar is read by ``json_number``.
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


def json_number(data: dict, key: str, default: float | None = None) -> float:
    """``data[key]`` as a float when it is a JSON number (an int or a
    float, not a bool); an absent key is ``default`` when one is given,
    else KeyError, and any other value (a string, null, a list) is a
    TypeError naming the key and the value."""
    if default is not None and key not in data:
        return default
    value = data[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"{key} must be a JSON number, not {value!r}")
