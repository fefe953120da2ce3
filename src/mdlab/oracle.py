"""Exact tail probabilities for the self-normalized walk.

Three exact methods:

* :func:`enumerate_exact` sums path probabilities over every outcome of a
  finite-support schedule (budget ``support^n <= 2^24``), handling
  path-dependent normalization ``V_n``. The outcomes of the first steps
  and of the remaining steps are built once each; every (prefix, suffix)
  pair is then scored from their sums, running maxima and squared norms.
* :func:`lattice_dp_max` / :func:`lattice_dp_sum` evaluate the symmetric
  two-point walk, where ``V_n^2 = n c^2`` is deterministic, in closed form
  for every ``n >= 1``: the reflection principle turns the max event into
  two binomial tails, computed as regularized incomplete beta functions.
* :func:`twopoint_dp` evaluates iid two-point steps ``{a, -b}``, where
  ``V_n`` is random but fixed by the up-count: a first-passage DP on the
  (steps, ups) lattice for each final up-count (budget ``n (n+1)^2 <=
  2^24`` cells, so ``n <= 255``).

All evaluate the events ``max_{1<=k<=n} S_k >= x V_n`` and
``S_n >= x V_n`` with ties counted in (the event is ``>=``). Results are
scale free: the events only involve ``S_k / V_n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import BudgetExceededError, ConfigError, check_finite
from .theory import SequenceSpec

__all__ = [
    "ExactResult",
    "enumerate_exact",
    "lattice_dp_max",
    "lattice_dp_sum",
    "twopoint_dp",
    "twopoint_dp_fits",
    "ENUMERATION_BUDGET",
]

ENUMERATION_BUDGET = 1 << 24
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
    with ``math.fsum``. Barrier comparisons absorb 1e-12 relative float fuzz so exact
    ties (which belong to the >= event) survive rescaled instances, keeping
    the result scale free like the event itself.
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
    if s**seq.n > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{s}^{seq.n} outcomes exceed the {ENUMERATION_BUDGET} budget; "
            "use lattice_dp (rademacher) or Monte Carlo"
        )
    scales = seq.scale_array()
    split = min(seq.n, int(math.log(_ENUM_CHUNK, s) + 1e-9))
    pre_w, pre_sum, pre_max, pre_sq = _path_states(values, probs, scales[:split])

    max_parts: list[float] = []
    sum_parts: list[float] = []
    for w, total, peak, sq in zip(*_path_states(values, probs, scales[split:])):
        with np.errstate(over="ignore"):  # a huge x gives an inf barrier: no hit
            barrier = x * np.sqrt(pre_sq + sq)
        # 1e-12 below the barrier, relative above 1; stays inf if it is inf
        cut = np.minimum(barrier - 1e-12, barrier * (1.0 - 1e-12))
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


def _lattice_barrier(n: int, x: float) -> int:
    """Smallest lattice point >= x*sqrt(n), snapping away float fuzz so an
    exact hit stays on the barrier (the event is >=). Capped at n + 1,
    which no walk of n steps reaches."""
    target = min(x * math.sqrt(n), n + 1.0)
    nearest = round(target)
    if abs(target - nearest) <= 1e-9 * max(1.0, abs(target)):
        return int(nearest)
    return int(math.ceil(target))


def _walk_tail(n: int, t: int) -> float:
    """P(S_n >= t) for the +-1 walk: S_n = 2U - n with U ~ Bin(n, 1/2), and
    P(U >= k) = I_{1/2}(k, n - k + 1)."""
    k = -(-(n + t) // 2)
    if k <= 0:
        return 1.0
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


def lattice_dp_max(n: int, x: float, scale: float = 1.0) -> ExactResult:
    """P(max_k S_k >= x V_n) and P(S_n >= x V_n) on the +-scale walk.

    ``V_n = scale * sqrt(n)`` is deterministic, so both events are lattice
    events on the +-1 walk and the result does not depend on ``scale``.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    check_finite("x", x, 0.0)
    if not scale > 0.0:
        raise ConfigError(f"scale must be > 0, got {scale}")
    barrier = _lattice_barrier(n, x)
    return ExactResult(_walk_max_tail(n, barrier), _walk_tail(n, barrier), n, x, "lattice_dp")


def lattice_dp_sum(n: int, x: float, scale: float = 1.0) -> float:
    """P(S_n >= x V_n) on the +-scale walk."""
    return lattice_dp_max(n, x, scale).p_sum


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
    (the events are scale free). The barrier cut is the one
    :func:`enumerate_exact` uses, so exact ties stay in the events, but with
    its absolute 1e-12 in units of the smaller step: a path reaches ``x V_n``
    when short of it by at most 1e-12 times the larger of the barrier and
    the smaller step, so no step fits in the cut, whatever the ratio.
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
    top = max(a, b)
    a, b = a / top, b / top
    m = np.arange(n + 1)
    with np.errstate(over="ignore"):  # a huge x gives an inf barrier: no hit
        barrier = x * np.sqrt(a * a * m + b * b * (n - m))
    cut = np.minimum(barrier - 1e-12 * min(a, b), barrier * (1.0 - 1e-12))
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
