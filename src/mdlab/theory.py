"""Moment functionals, regime diagnostics, and high-precision normal tails.

Everything here is pure arithmetic over a :class:`SequenceSpec`, which
describes ``n`` independent centered increments, either iid or with an
explicit per-index scale schedule ``X_j = sigma_j * X``.

Central quantities for a sequence and a tail level ``x``:

* ``bn2 = sum_j E X_j^2`` and ``lnr = sum_j E|X_j|^(2+r)``; their ratio
  ``dnr = bn2^(1/2) / lnr^(1/(2+r))`` governs how far into the tail the
  Gaussian approximation of the self-normalized maximum can reach.
* ``delta_nx``, a truncation functional mixing the second moment above
  level ``B_n/x`` with the third moment below it; it is scale invariant
  and drives every regime flag.
* ``n0``, the largest start index whose suffix variance still exceeds
  ``192 * B_n^2 * log(x v e) / x^2`` (0 when no index qualifies).
* ``epsilon = max(2*delta_nx^(2/9), gamma*x^(-1/2), gamma*x^(-delta/10))``
  with ``gamma = min(delta, 1)/72``, the truncation width used by the
  block construction, and ``m = floor(x^2/2)``.

For iid sequences all sums collapse to closed forms, so ``n`` may be
astronomically large; schedules with explicit scale lists are bounded by
the length of the list.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from .distributions import Distribution
from .errors import ConfigError, InfeasibleError, check_finite

__all__ = [
    "SequenceSpec",
    "TheoryQuantities",
    "SuffixMomentCheck",
    "TailSegmentCheck",
    "BlockPartition",
    "compute_quantities",
    "check_parameters",
    "check_suffix_moment_ratios",
    "check_tail_segment_ratio",
    "split_index",
    "truncation_width",
    "normal_tail",
    "build_blocks",
    "error_envelope",
]

# threshold coefficient in the split-index definition
_SPLIT_INDEX_COEFF = 192.0
# epsilon must not exceed min(1/24, delta/72) for the truncation regime
_EPS_CAP = 1.0 / 24.0
_EPS_CAP_DELTA = 1.0 / 72.0
_TAIL_RANGE = 40.0
# materialize block boundaries only up to this count
_MAX_BOUNDARIES = 1 << 22


@dataclass(frozen=True)
class SequenceSpec:
    """Schedule of ``n`` independent increments.

    ``scales=None`` means iid copies of ``dist``; otherwise entry ``j``
    is ``scales[j] * X`` with ``X ~ dist``. All scales must be > 0.
    """

    dist: Distribution
    n: int
    scales: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"sequence length must be >= 1, got {self.n}")
        if self.scales is not None:
            arr = np.asarray(self.scales, dtype=float)
            if arr.shape != (self.n,):
                raise ConfigError(
                    f"scales must have length n={self.n}, got shape {arr.shape}"
                )
            if not np.all(arr > 0.0):
                raise ConfigError("all scales must be > 0")
            object.__setattr__(self, "scales", arr)
        try:
            variance = self.dist.variance()
        except OverflowError:
            raise InfeasibleError(f"the variance of {self.dist} overflows a double") from None
        if not variance > 0.0:
            raise ConfigError("increment law must be non-degenerate")

    @property
    def is_iid(self) -> bool:
        return self.scales is None

    def scale_array(self) -> np.ndarray:
        if self.scales is not None:
            return self.scales
        return np.ones(self.n)

    # -- plain moment sums ----------------------------------------------
    def abs_moment_sum(self, p: float) -> float:
        """sum_j E|X_j|^p."""
        base = self.dist.abs_moment(p)
        if self.is_iid:
            return self.n * base
        return base * float(np.sum(self.scales**p))

    def variance_sum(self) -> float:
        """sum_j E X_j^2, from ``dist.variance()``."""
        v = self.dist.variance()
        if self.is_iid:
            return self.n * v
        return v * float(np.sum(self.scales**2.0))

    def max_variance(self) -> float:
        v = self.dist.variance()
        if self.is_iid:
            return v
        return v * float(np.max(self.scales) ** 2)

    def min_variance(self) -> float:
        v = self.dist.variance()
        if self.is_iid:
            return v
        return v * float(np.min(self.scales) ** 2)

    # -- truncated moment sums -------------------------------------------
    def truncated_sum(self, p: float, level: float, side: str) -> float:
        """sum_j E|X_j|^p 1{|X_j| <= level} (below) or 1{|X_j| > level}."""
        if self.is_iid:
            return self.n * self.dist.truncated_abs_moment(p, level, side)
        s = self.scales
        return float(np.sum(s**p * self.dist.truncated_abs_moment(p, level / s, side)))

    def tail_prob_sum(self, level: float) -> float:
        """sum_j P(|X_j| >= level)."""
        if self.is_iid:
            return self.n * self.dist.abs_tail_prob(level)
        return float(np.sum(self.dist.abs_tail_prob(level / self.scales)))


def _tie_unit(seq: SequenceSpec) -> float:
    """Smallest step size of ``seq``: min |support value| * min scale, or 0
    for laws without finite support, whose ties have probability 0. Iid
    steps have scale 1, so nothing of length ``n`` is built for them."""
    support = seq.dist.finite_support()
    if support is None:
        return 0.0
    min_scale = 1.0 if seq.is_iid else float(np.min(seq.scales))
    return float(np.min(np.abs(support[0]))) * min_scale


def _tie_cut(barrier, unit):
    """The level a float path must reach to count as reaching ``barrier``.

    The events are ``>=``, so an exact tie counts; a path short of the
    barrier by at most 1e-12 of ``unit`` (the smallest step size) or 1e-12
    of the barrier is a tie moved by float error. An inf barrier stays inf.
    Every estimator of the events compares against this cut.
    """
    return np.minimum(barrier - 1e-12 * unit, barrier * (1.0 - 1e-12))


@dataclass(frozen=True)
class TheoryQuantities:
    """All sequence-level functionals of (sequence, x, r, delta).

    The fields, in declaration order, are the JSON payload of the
    ``theory`` CLI subcommand.
    """

    bn2: float
    lnr: float
    dnr: float
    delta_nx: float
    n0: int
    gamma: float
    epsilon: float
    m: int
    a0_ok: bool
    bor_ok: bool
    range_ok: bool


def _check_positive(name: str, value) -> None:
    """:class:`ConfigError` unless ``value`` is a finite number > 0."""
    if not check_finite(name, value) > 0.0:
        raise ConfigError(f"{name} must be > 0, got {value}")


def _check_r(r) -> None:
    if not 0.0 < check_finite("r", r) <= 1.0:
        raise ConfigError(f"r must be in (0, 1], got {r}")


def _dnr(bn2: float, lnr: float, r: float) -> float:
    """d_{n,r} = B_n / L_{n,r}^(1/(2+r)) from ``bn2 = B_n^2`` and ``lnr``."""
    return math.sqrt(bn2) / lnr ** (1.0 / (2.0 + r))


def delta_functional(seq: SequenceSpec, x: float) -> float:
    """Truncation functional
    (x^2/B_n^2) sum E X_j^2 1{|X_j| > B_n/x}
    + (x^3/B_n^3) sum E|X_j|^3 1{|X_j| <= B_n/x}.

    Finite for every family: the above part is bounded by the variance and
    the below part is truncated, so no third-moment assumption is needed.
    """
    _check_positive("x", x)
    bn2 = seq.variance_sum()
    bn = math.sqrt(bn2)
    level = bn / x
    above = seq.truncated_sum(2.0, level, "above")
    below = seq.truncated_sum(3.0, level, "below")
    return x**2 / bn2 * above + x**3 / bn**3 * below


def split_index(seq: SequenceSpec, x: float) -> int:
    """Largest k(1-based) whose suffix variance sum_{j=k..n} E X_j^2 still
    reaches ``192 B_n^2 log(x v e) / x^2``; 0 when no index qualifies.

    ``log(x v e)`` is implemented as ``max(log x, 1)``.
    """
    _check_positive("x", x)
    bn2 = seq.variance_sum()
    threshold = _SPLIT_INDEX_COEFF * bn2 * max(math.log(x), 1.0) / x**2
    if seq.is_iid:
        v = seq.dist.variance()
        # (n - k + 1) v >= threshold  <=>  k <= n + 1 - threshold / v
        k = math.floor(seq.n + 1.0 - threshold / v)
        return int(min(seq.n, max(0, k)))
    var = seq.scales**2 * seq.dist.variance()
    suffix = np.cumsum(var[::-1])[::-1]  # suffix[k-1] = sum_{j=k..n}
    ok = np.nonzero(suffix >= threshold)[0]
    return int(ok[-1] + 1) if ok.size else 0


def truncation_width(delta_nx: float, x: float, delta: float) -> float:
    """epsilon = max(2*delta_nx^(2/9), gamma*x^(-1/2), gamma*x^(-delta/10))
    with gamma = min(delta, 1)/72."""
    _check_positive("x", x)
    _check_positive("delta", delta)
    gamma = min(delta, 1.0) / 72.0
    return max(
        2.0 * delta_nx ** (2.0 / 9.0),
        gamma * x**-0.5,
        gamma * x ** (-delta / 10.0),
    )


@np.errstate(over="ignore", invalid="ignore")  # a sum past the double range is inf or nan, refused below
def compute_quantities(
    seq: SequenceSpec,
    x: float,
    r: float,
    delta: float,
    a0_constant: float = 1.0,
) -> TheoryQuantities:
    """All functionals and regime flags for (seq, x, r, delta).

    ``a0_constant`` stands in for the unknown absolute constant in the
    small-functional regime check ``delta_nx <= min(delta^(9/2), 1) / A``;
    the default A=1 makes ``a0_ok`` a heuristic indicator only.
    """
    _check_positive("x", x)
    check_parameters(r, delta, a0_constant)

    try:
        bn2 = seq.variance_sum()
        bn = math.sqrt(bn2)
        lnr = seq.abs_moment_sum(2.0 + r)
        dnr = _dnr(bn2, lnr, r)
        dnx = delta_functional(seq, x)
        epsilon = truncation_width(dnx, x, delta)
        q = TheoryQuantities(
            bn2=bn2,
            lnr=lnr,
            dnr=dnr,
            delta_nx=dnx,
            n0=split_index(seq, x),
            gamma=min(delta, 1.0) / 72.0,
            epsilon=epsilon,
            m=int(math.floor(x * x / 2.0)),
            a0_ok=dnx <= min(delta**4.5, 1.0) / a0_constant,
            bor_ok=epsilon <= min(_EPS_CAP, delta * _EPS_CAP_DELTA),
            range_ok=x <= bn,
        )
        if all(math.isfinite(v) for v in astuple(q)):
            return q
    except (OverflowError, ZeroDivisionError):
        pass
    raise InfeasibleError(f"the functionals at x={x}, delta={delta} leave the double range")


def check_parameters(r: float, delta: float, a0_constant: float) -> None:
    """:class:`ConfigError` unless ``r`` is in (0, 1] and ``delta`` and
    ``a0_constant`` are finite and > 0."""
    _check_r(r)
    _check_positive("delta", delta)
    _check_positive("a0_constant", a0_constant)


@dataclass(frozen=True)
class SuffixMomentCheck:
    """Outcome of the suffix moment-ratio condition.

    ``satisfied`` is True iff
    max_k sum_{j=k..n} E|X_j|^(2+r) / sum_{j=k..n} E X_j^2
    <= tau * lnr^(r/(2+r)) / dnr^delta (ties qualify).
    ``worst_k`` maximizes the left side; ``margin`` is LHS/RHS there.
    """

    satisfied: bool
    worst_k: int
    margin: float
    lhs: float
    rhs: float


def check_suffix_moment_ratios(
    seq: SequenceSpec, r: float, delta: float, tau: float
) -> SuffixMomentCheck:
    """Check that no suffix of the schedule is dominated by heavy terms."""
    _check_r(r)
    _check_positive("delta", delta)
    _check_positive("tau", tau)

    if seq.is_iid:
        # every suffix has the same ratio
        lhs = seq.dist.abs_moment(2.0 + r) / seq.dist.variance()
        worst_k = 1
    else:
        num = seq.scales ** (2.0 + r) * seq.dist.abs_moment(2.0 + r)
        den = seq.scales**2 * seq.dist.variance()
        ratios = np.cumsum(num[::-1])[::-1] / np.cumsum(den[::-1])[::-1]
        worst = int(np.argmax(ratios))
        lhs = float(ratios[worst])
        worst_k = worst + 1
    lnr = seq.abs_moment_sum(2.0 + r)
    dnr = _dnr(seq.variance_sum(), lnr, r)
    rhs = tau * lnr ** (r / (2.0 + r)) / dnr**delta
    return SuffixMomentCheck(
        satisfied=lhs <= rhs,
        worst_k=worst_k,
        margin=lhs / rhs,
        lhs=lhs,
        rhs=rhs,
    )


@dataclass(frozen=True)
class TailSegmentCheck:
    """Outcome of the past-the-split-index truncated-moment check.

    The inequality compares
    sum_{j>n0} E|X_j|^3 1{|X_j| <= B_n/x} / sum_{j>n0} E X_j^2
    against ``B_n / x^(1+delta)``. ``holds`` is None (status
    ``"inapplicable"``) when n0 is 0 or n; ``lhs``/``rhs`` are still
    reported whenever the segment j > n0 is nonempty.
    """

    status: str  # "ok" | "inapplicable"
    holds: Optional[bool]
    n0: int
    lhs: float
    rhs: float


def check_tail_segment_ratio(
    seq: SequenceSpec, x: float, delta: float
) -> TailSegmentCheck:
    _check_positive("delta", delta)
    n0 = split_index(seq, x)
    bn2 = seq.variance_sum()
    bn = math.sqrt(bn2)
    rhs = bn / x ** (1.0 + delta)
    if n0 >= seq.n:
        return TailSegmentCheck("inapplicable", None, n0, math.nan, rhs)
    segment = SequenceSpec(seq.dist, seq.n - n0, None if seq.is_iid else seq.scales[n0:])
    lhs = segment.truncated_sum(3.0, bn / x, "below") / segment.variance_sum()
    status = "ok" if 0 < n0 < seq.n else "inapplicable"
    holds = (lhs <= rhs) if status == "ok" else None
    return TailSegmentCheck(status, holds, n0, lhs, rhs)


# ---------------------------------------------------------------------------
# Normal tail
# ---------------------------------------------------------------------------

def normal_tail(x: float) -> float:
    """Upper normal tail 1 - Phi(x) with relative error <= 1e-12 while the
    result is a normal double, i.e. for x below about 37.5; past that it
    is subnormal and loses digits (2.7% at x = 38.4), and it is 0.0 from
    x = 38.5.

    Uses erfc for x <= 8 and the log of the tail, ``log_ndtr(-x)``, beyond,
    never the subtraction 1 - CDF. Valid for |x| <= 40; for
    all x >= 1 the result satisfies
    x*exp(-x^2/2)/(sqrt(2 pi)(1+x^2)) <= tail <= exp(-x^2/2)/(sqrt(2 pi) x).
    """
    if math.isnan(x) or abs(x) > _TAIL_RANGE:
        raise ConfigError(f"normal_tail supports |x| <= {_TAIL_RANGE}, got {x}")
    if x <= 8.0:
        return 0.5 * math.erfc(x / math.sqrt(2.0))
    from scipy import special

    return math.exp(special.log_ndtr(-x))


# ---------------------------------------------------------------------------
# Block construction
# ---------------------------------------------------------------------------

class DegeneratePartitionWarning(UserWarning):
    """Block capacity is below the smallest per-index variance."""


@dataclass(frozen=True)
class BlockPartition:
    """Greedy maximal variance blocks.

    Block i covers indices (boundaries[i-1], boundaries[i]] with variance
    mass at most ``capacity = epsilon^3 B_n^2 / (2 x^2)``; the last block
    closes at n. ``boundaries`` is None when the count is too large to
    materialize (huge iid sequences); ``t`` is always the block count.
    ``t_bound = 4 x^2 / epsilon^3 + 1`` applies whenever
    ``premise_holds``, i.e. x^2 * max_j E X_j^2 <= epsilon^3 B_n^2 / 4.
    """

    t: int
    capacity: float
    degenerate: bool
    premise_holds: bool
    t_bound: float
    boundaries: Optional[np.ndarray] = None


def build_blocks(seq: SequenceSpec, x: float, epsilon: float) -> BlockPartition:
    """Partition indices greedily so each block's variance stays within
    ``epsilon^3 B_n^2 / (2 x^2)``.

    A block that cannot even hold one index is forced to a singleton and
    flagged (``degenerate``) with a :class:`DegeneratePartitionWarning`.
    """
    _check_positive("x", x)
    _check_positive("epsilon", epsilon)
    bn2 = seq.variance_sum()
    capacity = epsilon**3 * bn2 / (2.0 * x * x)
    premise = x * x * seq.max_variance() <= epsilon**3 * bn2 / 4.0
    t_bound = 4.0 * x * x / epsilon**3 + 1.0

    degenerate = capacity < seq.min_variance()
    if degenerate:
        warnings.warn(
            f"block capacity {capacity:.3g} is below the smallest index "
            f"variance {seq.min_variance():.3g}; every block is a singleton",
            DegeneratePartitionWarning,
            stacklevel=2,
        )

    if seq.is_iid:
        v = seq.dist.variance()
        per_block = max(1, int(math.floor(capacity / v)))
        t = -(-seq.n // per_block)  # ceil division
        boundaries = None
        if t <= _MAX_BOUNDARIES:
            boundaries = np.arange(per_block, seq.n + per_block, per_block)
            boundaries[-1] = seq.n
    else:
        var = seq.scales**2 * seq.dist.variance()
        cum = np.cumsum(var)
        bounds = []
        start = 0  # 0-based index of the first element after the last block
        while start < seq.n:
            base = cum[start - 1] if start > 0 else 0.0
            end = int(np.searchsorted(cum, base + capacity, side="right"))
            if end <= start:
                end = start + 1  # forced singleton
            bounds.append(end)
            start = end
        boundaries = np.asarray(bounds)
        t = len(bounds)

    if premise and t > t_bound:
        raise AssertionError(
            f"block count {t} exceeds bound {t_bound} although the "
            "max-variance premise holds; this is a bug"
        )
    return BlockPartition(
        t=int(t),
        capacity=capacity,
        degenerate=degenerate,
        premise_holds=premise,
        t_bound=t_bound,
        boundaries=boundaries,
    )


def error_envelope(x: float, delta_nx: float, delta: float) -> float:
    """Shape of the tail-ratio error bracket,
    ``x^(-min(1/4, delta/20)) + delta_nx^(1/9)``.

    Callers multiply by their own fitted constant; no absolute constant is
    implied here.
    """
    _check_positive("x", x)
    _check_positive("delta", delta)
    check_finite("delta_nx", delta_nx, 0.0)
    return x ** (-min(0.25, delta / 20.0)) + delta_nx ** (1.0 / 9.0)
