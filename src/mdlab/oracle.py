"""Exact tail probabilities for the self-normalized walk.

Four exact methods; :func:`exact_method` routes a schedule to the last three:

* :func:`enumerate_exact` sums path probabilities over every outcome of a
  finite-support schedule (budget ``support^n <= 2^24``), handling
  path-dependent normalization ``V_n``. The outcomes of the first steps
  and of the remaining steps are built once each; every (prefix, suffix)
  pair is then scored from their sums, running maxima and squared norms.
* :func:`lattice_dp_max` evaluates the symmetric two-point walk, where
  ``V_n^2 = n c^2`` is deterministic, in closed form for ``n <=
  CLOSED_FORM_MAX_N``: the reflection principle turns the max event into
  two binomial tails, each an exact integer sum up to n = 128 and past it a
  sum of pmf terms from Loader's saddle-point pmf, in ``math`` and numpy.
* :func:`twopoint_dp` evaluates iid two-point steps ``{a, -b}``, where
  ``V_n`` is random but fixed by the up-count: a first-passage DP on the
  (steps, ups) lattice for each final up-count (budget ``n (n+1)^2 <=
  2^24`` cells, so ``n <= 255``).
* :func:`hitting_time` evaluates the same laws when one step is an
  integer multiple of the other, within the DP's range: the walk is
  skip-free one way, and the hitting-time theorem turns the max event
  into ``O(n^2)`` positive terms. It labels its results ``lattice_dp``,
  as the DP does.

All evaluate the events ``max_{1<=k<=n} S_k >= x V_n`` and
``S_n >= x V_n`` with ties counted in (the event is ``>=``) by the tie cut
Monte Carlo uses too, ``theory._tie_cut``, in units of the smallest step.
Results are scale free: the events only involve ``S_k / V_n``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Rademacher, TwoPoint
from .errors import BudgetExceededError, ConfigError, check_finite
from .special import _stirling_tail
from .theory import SequenceSpec, _tie_cut, _tie_unit

__all__ = [
    "ExactResult",
    "enumerate_exact",
    "exact_method",
    "hitting_time",
    "lattice_dp_max",
    "twopoint_dp",
    "twopoint_dp_fits",
    "ENUMERATION_BUDGET",
    "DP_THREAD_MIN_N",
    "CLOSED_FORM_MAX_N",
]

ENUMERATION_BUDGET = 1 << 24
# a row's tails sum up to 5 sqrt(n) + 1 pmf terms in one array: 164k terms and
# 0.7-3.7 ms a row at 2^30, where they are within 6.2e-15 of a 40-digit sum
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


# Loader's stirlerr(k) = log k! - log(sqrt(2 pi k) (k / e)^k) for k < 16, to
# the double (Loader 2000, "Fast and accurate computation of binomial
# probabilities"); stirlerr(0) is never read
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


def _stirlerr(k: int) -> float:
    """log k! - log(sqrt(2 pi k) (k / e)^k): the table below 16, the Stirling
    series from there (its next term is under 1.5e-18 at k = 16)."""
    return _STIRLERR[k] if k < len(_STIRLERR) else _stirling_tail(float(k))


def _bd0(j: int, n: int) -> tuple[float, float]:
    """Loader's deviance ``j log(2j / n) + n / 2 - j`` of ``1 <= j <= n`` from the
    mean ``n / 2``, as two parts that sum to it. Within ``|v| < 1/2``, ``v =
    (2j - n) / (2j + n)``, it is ``(2j - n)^2 / (2 (2j + n))``, one rounding
    of exact integers, plus the series ``sum_i 2 j v^(2i+1) / (2i + 1)``, which
    nothing cancels; outside, the direct form does not cancel much."""
    twice_d, twice_s = 2 * j - n, 2 * j + n
    if 2 * abs(twice_d) >= twice_s:
        return j * math.log(2 * j / n), n / 2 - j
    v = twice_d / twice_s
    v2, term, rest, i = v * v, 2 * j * v, 0.0, 1
    while True:
        term *= v2
        nxt = rest + term / (2 * i + 1)
        if nxt == rest:
            return twice_d * twice_d / (2 * twice_s), rest
        rest, i = nxt, i + 1


def _half_binomial_pmf(n: int, k: int) -> float:
    """P(U = k) for U ~ Bin(n, 1/2) and ``0 < k < n``, by Loader's saddle point
    form: the log of the pmf is summed in one rounding from its parts."""
    lead_k, rest_k = _bd0(k, n)
    lead_j, rest_j = _bd0(n - k, n)
    log_pmf = math.fsum((_stirlerr(n), -_stirlerr(k), -_stirlerr(n - k),
                         -lead_k, -rest_k, -lead_j, -rest_j))
    return math.exp(log_pmf) * math.sqrt(n / (2.0 * math.pi * (k * (n - k))))


def _half_binomial_upper(n: int, k: int) -> tuple[float, float]:
    """P(U >= k) and P(U >= k + 1) for U ~ Bin(n, 1/2) and ``n / 2 <= k <=
    n``: the pmf at ``k`` times ``1 + L`` and times ``L``, where ``L`` sums
    the later terms over it, each from the one before by the ratio ``(n + 1
    - j) / j``. Past ``d = k - n / 2`` that ratio is under ``exp(-4 (j - 1
    - n / 2) / n)``, so ``i`` terms on, with ``i^2 + (2d - 1) i >= 25 n``,
    they have fallen by ``e^-50`` and the rest is negligible."""
    first = math.ldexp(1.0, -n) if k == n else _half_binomial_pmf(n, k)
    lag = k - n / 2 - 0.5
    count = min(n - k, math.ceil(math.sqrt(lag * lag + 25.0 * n) - lag))
    j = np.arange(k + 1.0, k + count + 1.0)
    later = float(np.cumprod((n + 1.0 - j) / j).sum())
    return first * (1.0 + later), first * later


def _binomial_row(n: int) -> list[int]:
    """The exact integers ``C(n, 0..n)``."""
    row = [1]
    for j in range(n):
        row.append(row[-1] * (n - j) // (j + 1))
    return row


# up to this n, :func:`_binomial_tails` sums the exact integer binomial row:
# its answers are the correctly rounded ones (dyadic ones exactly). A pair of
# tails takes 15-17 us that way at n = 128 and 8-9 us by
# :func:`_half_binomial_upper`; at n = 256 the row alone takes 38 us
_EXACT_TAIL_MAX_N = 128


def _binomial_tails(n: int, k: int) -> tuple[float, float]:
    """P(U >= k) and P(U >= k + 1) for U ~ Bin(n, 1/2) and ``0 <= k <= n``. Up
    to ``_EXACT_TAIL_MAX_N`` they are exact integer sums over 2^n; past it
    they come from :func:`_half_binomial_upper`, at or above the mean
    directly and below it as the complements of the mirrored tails."""
    if n <= _EXACT_TAIL_MAX_N:
        row = _binomial_row(n)
        beyond = sum(row[k + 1:])
        return (beyond + row[k]) / (1 << n), beyond / (1 << n)
    if 2 * k >= n:
        return _half_binomial_upper(n, k)
    upper, beyond = _half_binomial_upper(n, n - k)
    return 1.0 - beyond, 1.0 - upper


def _walk_tails(n: int, b: int) -> tuple[float, float]:
    """P(max_{1<=k<=n} S_k >= b) and P(S_n >= b) for the +-1 walk, with max
    over no steps being -inf. S_n = 2U - n with U ~ Bin(n, 1/2), so P(S_n >=
    b) = P(U >= k), k = ceil((n + b) / 2). For b >= 1 the reflection
    principle gives P(S_n >= b) + P(S_n >= b + 1), and the second tail is
    P(U >= k + 1) when n + b is even, else the first again; b = 0 is
    reached at step 1 or, after a first step down, by the remaining n - 1
    steps climbing 1."""
    if n == 0:
        return 0.0, 0.0
    k = -(-(n + b) // 2)
    tail, beyond = _binomial_tails(n, k) if k <= n else (0.0, 0.0)
    if b == 0:
        return 0.5 + 0.5 * _walk_tails(n - 1, 1)[0], tail
    return tail + (beyond if (n + b) % 2 == 0 else tail), tail


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
    return ExactResult(*_walk_tails(n, barrier), n, x, "lattice_dp")


def twopoint_dp_fits(n: int) -> bool:
    """Whether the ``n (n+1)^2`` cells of :func:`twopoint_dp` at ``n`` are
    within ``ENUMERATION_BUDGET`` (``n <= 255``)."""
    return n * (n + 1) ** 2 <= ENUMERATION_BUDGET


# the smallest n at which sweep rows of :func:`twopoint_dp` finish sooner two
# threads at a time than one after another (measured on 2 cores); below it
# their short numpy calls hold the GIL and the threads mostly wait on each
# other. Pool time over inline time per row: 1.93 at n = 64, 1.06 at 144,
# 0.92 at 160, 0.63 at 255. Rows of :func:`hitting_time` never do: 1.57-1.60
# at n = 64, 1.54-1.58 at 128, 1.30-1.35 at 255
DP_THREAD_MIN_N = 160


def _check_twopoint(name: str, n: int, x: float, a: float, b: float) -> None:
    """The argument checks that :func:`twopoint_dp` and :func:`hitting_time` share."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    check_finite("x", x, 0.0)
    check_finite("a", a), check_finite("b", b)
    if not (a > 0.0 and b > 0.0 and min(a, b) / max(a, b) > 0.0):
        raise ConfigError(f"{name} needs a, b > 0 and b / a > 0 in doubles, got a={a}, b={b}")
    if not twopoint_dp_fits(n):
        raise BudgetExceededError(
            f"n={n} needs {n * (n + 1) ** 2} DP cells, over the {ENUMERATION_BUDGET} budget"
        )


def _binomial_pmf(n: int, a: float, b: float) -> np.ndarray:
    """P(m ups) for ``m = 0..n`` of ``n`` iid steps ``{a, -b}`` with P(a) = b /
    (a + b), to a few ulp wherever it is a normal double.

    With ``a / b = P / Q`` in lowest terms it is ``C(n, m) Q^m P^(n-m) / (P +
    Q)^n``, so steps with the same exact ratio get the same bits. The
    binomial row is exact integers. The powers are of the mantissas of ``P``,
    ``Q`` and ``P + Q``, which lie in [1/2, 1], so none leaves the normal
    range; their binary exponents go back on by ``ldexp``. ``P`` and ``Q``
    have at most 53 significant bits, so their mantissas are exact; the
    rounding of ``P + Q``'s is put back in the scale, to first order."""
    (num_a, den_a), (num_b, den_b) = a.as_integer_ratio(), b.as_integer_ratio()
    down, up = num_a * den_b, num_b * den_a
    common = math.gcd(down, up)
    down, up = down // common, up // common
    total = down + up
    (f_up, e_up), (f_down, e_down), (f_total, e_total) = (
        (v / (1 << v.bit_length()), v.bit_length()) for v in (up, down, total))
    num, den = f_total.as_integer_ratio()
    rounded = num << e_total  # den f_total 2^e_total
    excess = (total * den - rounded) / rounded  # (P + Q) / (f_total 2^e_total) - 1
    scale = f_total ** -n * math.exp(-n * math.log1p(excess))
    # Python's pow, which is libm's: numpy's power differs from it in the last
    # bits on CPUs where it takes a SIMD loop
    mantissas = [float(c) * f_up ** m * f_down ** (n - m) * scale
                 for m, c in enumerate(_binomial_row(n))]
    m = np.arange(n + 1)
    return np.ldexp(mantissas, e_up * m + e_down * (n - m) - e_total * n)


def _twopoint_events(n: int, x: float, a: float, b: float):
    """``(a, b, cut, pmf, p_sum)`` for ``n`` iid steps in ``{a, -b}``: the steps
    rescaled to ``max(a, b) = 1`` (the events are scale free), the tie cut
    of the barrier ``x V_n`` and the :func:`_binomial_pmf` for each final
    up-count ``m = 0..n``, and P(S_n >= x V_n). The tie cut's unit is the
    smaller step, as in :func:`enumerate_exact`, so no step fits in the
    cut, whatever the ratio."""
    pmf = _binomial_pmf(n, a, b)
    top = max(a, b)
    a, b = a / top, b / top
    m = np.arange(n + 1)
    with np.errstate(over="ignore"):  # a huge x gives an inf barrier: no hit
        cut = _tie_cut(x * np.sqrt(a * a * m + b * b * (n - m)), min(a, b))
    return a, b, cut, pmf, math.fsum(pmf[a * m - b * (n - m) >= cut].tolist())


def twopoint_dp(n: int, x: float, a: float, b: float) -> ExactResult:
    """P(max_k S_k >= x V_n) and P(S_n >= x V_n) for ``n`` iid steps in
    ``{a, -b}`` with P(a) = b / (a + b).

    Given ``m`` ups in all, ``V_n^2 = a^2 m + b^2 (n - m)`` is fixed and the
    ups are a uniform arrangement, so after ``k`` steps with ``u`` ups the
    next step is up with probability ``(m - u) / (n - k)``. For every ``m``
    at once the DP carries the mass that has not yet reached that ``m``'s
    barrier and moves the mass reaching it into ``hit[m]``; the max event is
    the binomial mixture of ``hit``. Barriers, weights and the terminal
    event come from :func:`_twopoint_events`.
    :class:`BudgetExceededError` unless :func:`twopoint_dp_fits`.
    """
    _check_twopoint("twopoint_dp", n, x, a, b)
    a, b, cut, pmf, p_sum = _twopoint_events(n, x, a, b)
    m = np.arange(n + 1)
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
        p_sum=p_sum,
        n=n,
        x=x,
        method="lattice_dp",
    )


# the largest step ratio that :func:`hitting_time` takes: levels up to
# ``p (n + 1) + n`` units stay exact in int64 and in doubles
_MAX_STEP_RATIO = 1 << 32


def _step_ratio(a: float, b: float):
    """The larger of ``a, b`` over the smaller when that is an integer ``p <=
    _MAX_STEP_RATIO``, else None. ``fmod`` is exact, so the test is too:
    ``1.0 / 1e-13`` rounds to an integer, but ``fmod(1.0, 1e-13)`` is not 0.
    Where it is 0, the quotient is an integer and the division exact."""
    lo, hi = min(a, b), max(a, b)
    if math.fmod(hi, lo) != 0.0 or hi / lo > _MAX_STEP_RATIO:
        return None
    return int(hi / lo)


def _first_passages(h, steps, last, units, p, fact):
    """For each count ``units`` of unit steps among ``n`` steps, the share of
    its ``C(n, units)`` arrangements in which a walk first reaches ``h >= 1``
    units by step ``last`` of a stretch of ``steps`` steps that holds them
    all. The walk moves one unit toward the level or ``p`` units away.

    By the hitting-time theorem, of the ``C(i, j)`` arrangements of ``i``
    steps with ``j`` unit steps that end ``h`` units on, ``h / i`` reach it
    first at step ``i``; the other ``steps - i`` steps, with the other
    ``units - j``, are free. With ``c`` ``p``-unit steps among the first
    ``i``, ``i = h + (p + 1) c`` and ``j = h + p c``. All terms are positive,
    so nothing cancels. ``fact`` is :func:`_scaled_factorials` up to ``n``.
    """
    n = len(fact) - 1
    c = np.arange(max(int(np.max(last - h, initial=-1)), -1) // (p + 1) + 1)
    i = h[:, None] + (p + 1) * c  # [row, c]
    j = h[:, None] + p * c
    rest, u = np.reshape(steps, (-1, 1)) - i, units[:, None]
    row, col = np.nonzero((i <= np.reshape(last, (-1, 1))) & (j <= u) & (u - j <= rest))
    i, j, rest, u = i[row, col], j[row, col], rest[row, col], units[row]
    terms = (h[row] / i * (fact[i] / (fact[j] * fact[i - j]))
             * (fact[rest] / (fact[u - j] * fact[rest - u + j]))
             * (fact[u] * fact[n - u] / fact[n]))
    return np.bincount(row, weights=terms, minlength=len(h))


@functools.cache
def _scaled_factorials() -> np.ndarray:
    """``k! / 2^(7k)`` for ``k = 0..255``, the ``n`` of every
    :func:`hitting_time` row, built once: each exact integer rounded once,
    and within [2^-180, 1], so no ratio of factorials in
    :func:`_first_passages` leaves the normal range; the powers of 2 cancel
    in each binomial coefficient, and small ones come out exact."""
    table = np.array([math.factorial(k) / (1 << 7 * k) for k in range(256)])
    table.flags.writeable = False
    return table


def hitting_time(n: int, x: float, a: float, b: float) -> ExactResult:
    """:func:`twopoint_dp`'s probabilities for steps ``{a, -b}`` where one
    step is an integer multiple ``p`` of the other, in O(n^2 / (p + 1))
    positive terms in place of the DP's ``n (n+1)^2`` cells.

    In units of the smaller step the walk is skip-free one way. Given the
    final up-count ``m``, ``V_n``, the barrier level ``L_m`` and ``S_n``
    are fixed and the ups are a uniform arrangement:

    * ``b | a`` (steps ``+p, -1``): the reversed walk ``T_i = S_n -
      S_{n-i}`` is downward skip-free, and ``max_{1<=k<=n} S_k >= L`` iff
      ``min_{0<=i<=n-1} T_i <= S_n - L``. An ``m`` with ``S_n >= L_m``
      hits outright; else ``T`` must first reach ``S_n - L_m`` by step
      ``n - 1``.
    * ``a | b`` (steps ``+1, -p``): ``S`` is upward skip-free and must
      first reach ``L_m`` by step ``n``. At ``L_m = 0`` a first step up
      hits; after a first step down the other ``n - 1`` steps must climb
      ``p``.

    Barriers, weights and the terminal event come from
    :func:`_twopoint_events`, so ``p_sum`` is the DP's to the bit.
    :class:`ConfigError` unless :func:`_step_ratio` is an integer, and
    :class:`BudgetExceededError` unless :func:`twopoint_dp_fits`.
    """
    _check_twopoint("hitting_time", n, x, a, b)
    p = _step_ratio(a, b)
    if p is None:
        raise ConfigError(f"hitting_time needs one step an integer multiple of the other, "
                          f"got a={a}, b={b}")
    up, down = (p, 1) if a >= b else (1, p)
    a, b, cut, pmf, p_sum = _twopoint_events(n, x, a, b)
    m = np.arange(n + 1)
    # the barrier in units; past the top of the walk (an inf one too) it is never hit
    with np.errstate(over="ignore"):
        level = np.ceil(np.minimum(cut / min(a, b), up * n + 1.0)).astype(np.int64)
    fact = _scaled_factorials()[:n + 1]
    if up >= down:  # b | a: T's unit steps are the n - m downs
        short = level - (up * m - down * (n - m))  # how far S_n ends below the barrier
        below = short > 0
        hit = (~below).astype(float)
        hit[below] = _first_passages(short[below], n, n - 1, n - m[below], p, fact)
    else:
        start = level == 0
        hit = np.where(start, m / n, 0.0) + _first_passages(
            np.where(start, p, level), n - start, n - start, m, p, fact)
    return ExactResult(
        p_max=math.fsum((pmf * hit).tolist()),
        p_sum=p_sum,
        n=n,
        x=x,
        method="lattice_dp",
    )


def exact_method(seq: SequenceSpec):
    """The engine ``x -> ExactResult`` short of enumeration, else None: the
    closed form for iid Rademacher steps up to ``CLOSED_FORM_MAX_N``, and for
    iid TwoPoint steps where :func:`twopoint_dp_fits`, :func:`hitting_time`
    when one step is an integer multiple of the other (:func:`_step_ratio`)
    and :func:`twopoint_dp` otherwise."""
    dist, n = seq.dist, seq.n
    if seq.is_iid and isinstance(dist, Rademacher) and n <= CLOSED_FORM_MAX_N:
        return lambda x: lattice_dp_max(n, x)
    if seq.is_iid and isinstance(dist, TwoPoint) and twopoint_dp_fits(n):
        if _step_ratio(dist.a, dist.b) is not None:
            return lambda x: hitting_time(n, x, dist.a, dist.b)
        return lambda x: twopoint_dp(n, x, dist.a, dist.b)
    return None
