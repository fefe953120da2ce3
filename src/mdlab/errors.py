"""Exception hierarchy shared across the package, the finite-number check
every entry point applies to its numeric inputs, and the reader of the
JSON files they take.

The classes map onto CLI exit codes: :class:`ConfigError` means the caller
asked for something malformed (exit 2), the remaining classes mean a
well-formed request that is numerically infeasible for the given inputs
(exit 3).
"""

import json
import math


class MdlabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MdlabError, ValueError):
    """Invalid parameters, flags, or configuration input."""


class InfiniteMomentError(MdlabError, ArithmeticError):
    """A requested absolute moment diverges for the given family."""


class TiltUnsupportedError(MdlabError):
    """Exponential tilting requested for a law of unbounded support."""


class BudgetExceededError(MdlabError):
    """An exact method or a Monte Carlo run would exceed its instance-size budget."""


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


def read_json(path: str, what: str, kind: type):
    """The JSON document in the UTF-8 file at ``path``, which must be a
    ``kind`` (``dict`` or ``list``); :class:`ConfigError` if the file cannot
    be read or parsed or holds another type. ``what`` names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, or bad JSON
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, kind):
        raise ConfigError(f"{what} {path} must hold a JSON {'object' if kind is dict else 'list'}")
    return data
