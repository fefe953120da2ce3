"""Exception hierarchy shared across the package, and the finite-number
check every entry point applies to its numeric inputs.

The classes map onto CLI exit codes: :class:`ConfigError` means the caller
asked for something malformed (exit 2), the remaining classes mean a
well-formed request that is numerically infeasible for the given inputs
(exit 3).
"""

import math


class MdlabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MdlabError, ValueError):
    """Invalid parameters, flags, or configuration input."""


class InfiniteMomentError(MdlabError, ArithmeticError):
    """A requested absolute moment diverges for the given family."""


class TiltUnsupportedError(MdlabError):
    """Exponential tilting requested for a law without the tilt methods."""


class BudgetExceededError(MdlabError):
    """An exact method would exceed its instance-size budget."""


class InfeasibleError(MdlabError):
    """A numerically infeasible request, e.g. a drift target outside the
    support hull of the increment law."""


def check_finite(name: str, value, lower: float = -math.inf) -> float:
    """``value`` as a float; :class:`ConfigError` unless it is a finite
    real number (a bool, string, ``None`` or list is not) and ``>= lower``."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value) and value >= lower
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        need = "a finite number" if lower == -math.inf else f"finite and >= {lower:g}"
        raise ConfigError(f"{name} must be {need}, got {value!r}")
    return float(value)
