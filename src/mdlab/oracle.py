"""Exact tail probabilities for the self-normalized walk.

Three exact methods; :func:`exact_method` routes a schedule to the last two:

* :func:`enumerate_exact` sums path probabilities over every outcome of a
  finite-support schedule (budget ``support^n <= 2^24``), handling
  path-dependent normalization ``V_n``. The outcomes of the first steps
  and of the remaining steps are built once each; every (prefix, suffix)
  pair is then scored from their sums, running maxima and squared norms.
* :func:`lattice_dp_max` evaluates the symmetric two-point walk, where
  ``V_n^2 = n c^2`` is deterministic, in closed form for ``n <=
  CLOSED_FORM_MAX_N``: the reflection principle turns the max event into
  two binomial tails, computed as regularized incomplete beta functions.
* :func:`twopoint_dp` evaluates iid two-point steps ``{a, -b}``, where
  ``V_n`` is random but fixed by the up-count: a first-passage DP on the
  (steps, ups) lattice for each final up-count (budget ``n (n+1)^2 <=
  2^24`` cells, so ``n <= 255``).

All evaluate the events ``max_{1<=k<=n} S_k >= x V_n`` and
``S_n >= x V_n`` with ties counted in (the event is ``>=``) by the tie cut
Monte Carlo uses too, ``theory._tie_cut``, in units of the smallest step.
Results are scale free: the events only involve ``S_k / V_n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Rademacher, TwoPoint
from .errors import BudgetExceededError, ConfigError, check_finite
from .theory import SequenceSpec, _tie_cut, _tie_unit

__all__ = [
    "ExactResult",
    "enumerate_exact",
    "exact_method",
    "lattice_dp_max",
    "twopoint_dp",
    "twopoint_dp_fits",
    "ENUMERATION_BUDGET",
    "CLOSED_FORM_MAX_N",
]

ENUMERATION_BUDGET = 1 << 24
# the incomplete beta drifts with n: 3e-11 relative at 2^30, 6e-8 at 2^53
CLOSED_FORM_MAX_N = 1 << 30
_ENUM_CHUNK = 1 << 15  # prefix outcomes scored per vector op


@dataclass(frozen=True)
class ExactResult:
    """Exact probabilities of the max event and the terminal-sum event; the
    fields, in declaration order, are the ``enumerate`` JSON payload."""

    p_max: float
    p_sum: float
    n: int
    x: float
    method: str  # "enumeration" | "lattice_dp"


def _path_states(values: np.ndarray, probs: np.ndarray, scales: np.ndarray):
    """Weight, final sum, running max over steps ``1..len(scales)`` (``-inf``
    for no steps) and sum of squared steps of every outcome of the steps."""
    weight, total, peak, sq = np.ones(1), np.zeros(1), np.full(1, -np.inf), np.zeros(1)
    for c in scales:
        steps = values * c
        weight = np.multiply.outer(weight, probs).ravel()
        total = np.add.outer(total, steps).ravel()
        peak = np.maximum(np.repeat(peak, len(steps)), total)
        sq = np.add.outer(sq, steps * steps).ravel()
    return weight, total, peak, sq


def enumerate_exact(seq: SequenceSpec, x: float) -> ExactResult:
    """Exhaustive path enumeration for finite-support increments.

    A path is a prefix of ``L = floor(log_s _ENUM_CHUNK)`` steps followed by
    a suffix of the remaining ones, so ``max_k S_k = max(M_pre, S_pre +
    M_suf)``, ``S_n = S_pre + S_suf`` and ``V_n^2 = Q_pre + Q_suf``. Each
    suffix scores all prefixes at once; the per-suffix masses are summed
    with ``math.fsum``. Paths are compared against the tie cut of the
    barrier in units of the smallest step, ``min |support value| * min
    scale``, so exact ties stay in the events at any scale.
    """
    check_finite("x", x, 0.0)
    support = seq.dist.finite_support()
    if support is None:
        raise ConfigError(
            f"{type(seq.dist).__name__} has no finite support; "
            "enumeration needs rademacher or twopoint increments"
        )
    values, probs = support
    s = len(values)
    if s ** min(seq.n, 64) > ENUMERATION_BUDGET:  # s >= 2, and no n-bit integer is built
        raise BudgetExceededError(f"{s}^{seq.n} outcomes exceed the {ENUMERATION_BUDGET} budget")
    scales = seq.scale_array()
    split = min(seq.n, int(math.log(_ENUM_CHUNK, s) + 1e-9))
    pre_w, pre_sum, pre_max, pre_sq = _path_states(values, probs, scales[:split])
    unit = _tie_unit(seq)

    max_parts: list[float] = []
    sum_parts: list[float] = []
    for w, total, peak, sq in zip(*_path_states(values, probs, scales[split:])):
        with np.errstate(over="ignore"):  # a huge x gives an inf barrier: no hit
            cut = _tie_cut(x * np.sqrt(pre_sq + sq), unit)
        hit_max = np.maximum(pre_max, pre_sum + peak) >= cut
        max_parts.append(float(w * pre_w[hit_max].sum()))
        sum_parts.append(float(w * pre_w[pre_sum + total >= cut].sum()))
    return ExactResult(
        p_max=math.fsum(max_parts),
        p_sum=math.fsum(sum_parts),
        n=seq.n,
        x=x,
        method="enumeration",
    )


def _walk_tail(n: int, t: int) -> float:
    """P(S_n >= t) for the +-1 walk: S_n = 2U - n with U ~ Bin(n, 1/2), and
    P(U >= k) = I_{1/2}(k, n - k + 1)."""
    from scipy import special

    k = -(-(n + t) // 2)
    if k > n:
        return 0.0
    return float(special.betainc(k, n - k + 1, 0.5))


def _walk_max_tail(n: int, b: int) -> float:
    """P(max_{1<=k<=n} S_k >= b) for the +-1 walk, with max over no steps
    being -inf. For b >= 1 the reflection principle gives
    P(S_n >= b) + P(S_n >= b + 1); b = 0 is reached at step 1 or, after a
    first step down, by the remaining n - 1 steps climbing 1."""
    if n == 0:
        return 0.0
    if b == 0:
        return 0.5 + 0.5 * _walk_max_tail(n - 1, 1)
    return _walk_tail(n, b) + _walk_tail(n, b + 1)


def lattice_dp_max(n: int, x: float) -> ExactResult:
    """P(max_k S_k >= x V_n) and P(S_n >= x V_n) on the symmetric +-c walk.

    ``V_n = c sqrt(n)`` is deterministic, so both events are lattice events
    on the +-1 walk, whatever ``c``: their barrier is the smallest lattice
    point at or above the tie cut of ``x sqrt(n)``, capped at ``n + 1``,
    which no walk of ``n`` steps reaches.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if n > CLOSED_FORM_MAX_N:
        raise BudgetExceededError(f"n={n} is past the closed form's range, {CLOSED_FORM_MAX_N}")
    check_finite("x", x, 0.0)
    barrier = math.ceil(_tie_cut(min(x * math.sqrt(n), n + 1.0), 1.0))
    return ExactResult(_walk_max_tail(n, barrier), _walk_tail(n, barrier), n, x, "lattice_dp")


def twopoint_dp_fits(n: int) -> bool:
    """Whether the ``n (n+1)^2`` cells of :func:`twopoint_dp` at ``n`` are
    within ``ENUMERATION_BUDGET`` (``n <= 255``)."""
    return n * (n + 1) ** 2 <= ENUMERATION_BUDGET


def twopoint_dp(n: int, x: float, a: float, b: float) -> ExactResult:
    """P(max_k S_k >= x V_n) and P(S_n >= x V_n) for ``n`` iid steps in
    ``{a, -b}`` with P(a) = b / (a + b).

    Given ``m`` ups in all, ``V_n^2 = a^2 m + b^2 (n - m)`` is fixed and the
    ups are a uniform arrangement, so after ``k`` steps with ``u`` ups the
    next step is up with probability ``(m - u) / (n - k)``. For every ``m``
    at once the DP carries the mass that has not yet reached that ``m``'s
    barrier and moves the mass reaching it into ``hit[m]``; the max event is
    the binomial mixture of ``hit``. Steps are rescaled to ``max(a, b) = 1``
    (the events are scale free), and the tie cut's unit is the smaller
    step, as in :func:`enumerate_exact`, so no step fits in the cut,
    whatever the ratio.
    :class:`BudgetExceededError` unless :func:`twopoint_dp_fits`.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    check_finite("x", x, 0.0)
    check_finite("a", a), check_finite("b", b)
    if not (a > 0.0 and b > 0.0 and min(a, b) / max(a, b) > 0.0):
        raise ConfigError(f"twopoint_dp needs a, b > 0 and b / a > 0 in doubles, got a={a}, b={b}")
    if not twopoint_dp_fits(n):
        raise BudgetExceededError(
            f"n={n} needs {n * (n + 1) ** 2} DP cells, over the {ENUMERATION_BUDGET} budget"
        )
    from scipy import special

    top = max(a, b)
    a, b = a / top, b / top
    m = np.arange(n + 1)
    with np.errstate(over="ignore"):  # a huge x gives an inf barrier: no hit
        cut = _tie_cut(x * np.sqrt(a * a * m + b * b * (n - m)), min(a, b))
    pmf = np.exp(
        special.gammaln(n + 1) - special.gammaln(m + 1) - special.gammaln(n - m + 1)
        + special.xlogy(m, b / (a + b)) + special.xlogy(n - m, a / (a + b))
    )
    ups_left = (m[:, None] - m[None, :]).astype(float)  # [m, u]; no mass where u > m
    alive = np.zeros((n + 1, n + 1))
    alive[:, 0] = 1.0
    hit = np.zeros(n + 1)
    for k in range(n):  # step k + 1; before it at most k ups were drawn
        left, rest = ups_left[:, : k + 1], n - k
        moved = alive[:, : k + 1] * (left / rest)
        alive[:, : k + 1] *= (rest - left) / rest
        alive[:, 1 : k + 2] += moved
        now = alive[:, : k + 2]
        crossed = a * m[: k + 2] - b * (k + 1 - m[: k + 2]) >= cut[:, None]
        hit += np.where(crossed, now, 0.0).sum(axis=1)
        now[crossed] = 0.0
    return ExactResult(
        p_max=math.fsum((pmf * hit).tolist()),
        p_sum=math.fsum(pmf[a * m - b * (n - m) >= cut].tolist()),
        n=n,
        x=x,
        method="lattice_dp",
    )


def exact_method(seq: SequenceSpec):
    """The engine ``x -> ExactResult`` short of enumeration: the closed form or
    the DP for iid Rademacher or TwoPoint steps within their range, else None."""
    dist, n = seq.dist, seq.n
    if seq.is_iid and isinstance(dist, Rademacher) and n <= CLOSED_FORM_MAX_N:
        return lambda x: lattice_dp_max(n, x)
    if seq.is_iid and isinstance(dist, TwoPoint) and twopoint_dp_fits(n):
        return lambda x: twopoint_dp(n, x, dist.a, dist.b)
    return None
