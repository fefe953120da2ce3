"""Independent reference values for the benchmark's output checks.

Nothing here imports mdlab. Each value comes from a different method than
the one the program uses, so agreement is evidence rather than an echo:

* Rademacher walks: the reflection principle on the binomial law of S_n.
* TwoPoint walks: V_n depends only on the number of up-steps m, so p_sum is
  one binomial sum over m and p_max is a first-passage recursion over
  (step, ups) for each final m, weighted by the binomial law of the rest.
* Naive Monte Carlo on unbounded families: a second simulation on its own
  random stream.
* Theory functionals on a scale schedule: closed forms with special
  functions (regularized incomplete beta for StudentT, incomplete gamma
  and 1F1 for CenteredExponential) in place of adaptive quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

# float fuzz allowed when deciding that a walk sits exactly on its barrier
# (the events are ">=", so exact ties belong to them)
_TIE = 1e-9


def lattice_barrier(n: int, x: float) -> int:
    """Smallest integer b with b >= x*sqrt(n), snapping float fuzz onto an
    exact hit."""
    target = x * math.sqrt(n)
    nearest = round(target)
    if abs(target - nearest) <= _TIE * max(1.0, abs(target)):
        return int(nearest)
    return math.ceil(target)


def rademacher_exact(n: int, x: float) -> tuple[float, float]:
    """(p_max, p_sum) for the +-1 walk by the reflection principle:
    P(max_k S_k >= b) = 2 P(S_n > b) + P(S_n = b) for b >= 1."""
    b = lattice_barrier(n, x)
    if b < 1:
        raise ValueError(f"reflection needs a barrier >= 1, got {b} (n={n}, x={x})")
    if b > n:
        return 0.0, 0.0

    def at_least(t: int) -> float:  # P(S_n >= t) with S_n = 2U - n
        return float(stats.binom.sf(math.ceil((n + t) / 2) - 1, n, 0.5))

    p_ge, p_gt = at_least(b), at_least(b + 1)
    return p_gt + p_ge, p_ge


def twopoint_exact(a: float, b: float, n: int, x: float) -> tuple[float, float]:
    """(p_max, p_sum) for increments in {a, -b} with P(a) = b / (a + b).

    With m up-steps in total, V_n^2 = a^2 m + b^2 (n - m), so each final m
    has its own fixed barrier. The recursion carries, for every final m at
    once, the mass of prefixes that have not crossed that m's barrier; mass
    crossing at step k with j ups so far finishes with m ups with binomial
    probability Bin(n - k, p)(m - j).
    """
    p = b / (a + b)
    m = np.arange(n + 1)
    barrier = x * np.sqrt(a * a * m + b * b * (n - m))
    cut = barrier - _TIE * np.maximum(1.0, barrier)
    pmf_n = stats.binom.pmf(m, n, p)
    p_sum = math.fsum(pmf_n[a * m - b * (n - m) >= cut].tolist())

    alive = np.zeros((n + 1, n + 1))  # [final m, ups so far]
    alive[:, 0] = 1.0
    j = np.arange(n + 1)
    parts = []
    for k in range(1, n + 1):
        nxt = alive * (1.0 - p)
        nxt[:, 1:] += alive[:, :-1] * p
        crossed = (a * j - b * (k - j))[None, :] >= cut[:, None]
        rows, cols = np.nonzero(crossed & (nxt > 0.0))
        if rows.size:
            finish = stats.binom.pmf(rows - cols, n - k, p)
            parts.extend((nxt[rows, cols] * finish).tolist())
            nxt[rows, cols] = 0.0
        alive = nxt
    return math.fsum(parts), p_sum


# -- naive Monte Carlo on its own stream --------------------------------------

_SAMPLERS = {
    "uniform": lambda lit, rng, size: rng.uniform(
        -lit.get("half_width", 1.0), lit.get("half_width", 1.0), size
    ),
    "centered_exponential": lambda lit, rng, size: (
        rng.exponential(1.0 / lit.get("rate", 1.0), size) - 1.0 / lit.get("rate", 1.0)
    ),
    "student_t": lambda lit, rng, size: rng.standard_t(lit.get("nu", 5.0), size),
}


def naive_mc(literal: dict, n: int, x: float, paths: int, seed: int):
    """Plain Monte Carlo of both events; returns ((p_max, se), (p_sum, se))."""
    draw = _SAMPLERS[literal["family"]]
    rng = np.random.Generator(np.random.PCG64(seed))
    hits_max = hits_sum = 0
    for start in range(0, paths, 1 << 15):
        size = min(1 << 15, paths - start)
        running = np.zeros(size)
        sq = np.zeros(size)
        peak = np.full(size, -np.inf)
        for _ in range(n):
            step = draw(literal, rng, size)
            running += step
            sq += step * step
            np.maximum(peak, running, out=peak)
        level = x * np.sqrt(sq)
        hits_max += int(np.count_nonzero(peak >= level))
        hits_sum += int(np.count_nonzero(running >= level))

    def estimate(hits):
        q = hits / paths
        return q, math.sqrt(q * (1.0 - q) / paths)

    return estimate(hits_max), estimate(hits_sum)


# -- theory functionals on a scale schedule -----------------------------------


def _abs_moment(literal: dict, p: float) -> float:
    fam = literal["family"]
    if fam == "student_t":
        nu = literal.get("nu", 5.0)
        return nu ** (p / 2) * special.beta((p + 1) / 2, (nu - p) / 2) / special.beta(0.5, nu / 2)
    if fam == "centered_exponential":
        lam = literal.get("rate", 1.0)
        return math.exp(-1.0) * lam**-p * math.gamma(p + 1) + _exp_negative(lam, p, 1.0 / lam)
    return float(truncated_abs_moment(literal, p, np.array([np.inf]), "below")[0])


def _exp_negative(lam: float, p: float, a):
    """E|X|^p 1{-a <= X < 0} for X = Exp(lam) - 1/lam, a <= 1/lam."""
    a = np.asarray(a, dtype=float)
    return lam * math.exp(-1.0) * a ** (p + 1) / (p + 1) * special.hyp1f1(p + 1, p + 2, lam * a)


def truncated_abs_moment(literal: dict, p: float, c: np.ndarray, side: str) -> np.ndarray:
    """E|X|^p 1{|X| <= c} ('below') or E|X|^p 1{|X| > c} ('above'), over an
    array of levels c."""
    fam = literal["family"]
    c = np.asarray(c, dtype=float)
    if fam == "student_t":
        nu = literal.get("nu", 5.0)
        full = _abs_moment(literal, p)
        z = np.where(np.isinf(c), 1.0, c * c / (nu + c * c))
        inc = special.betainc if side == "below" else special.betaincc
        return full * inc((p + 1) / 2, (nu - p) / 2, z)
    if fam == "centered_exponential":
        lam = literal.get("rate", 1.0)
        pos = math.exp(-1.0) * lam**-p * math.gamma(p + 1)
        cut = np.minimum(c, 1.0 / lam)
        if side == "below":
            return pos * special.gammainc(p + 1, lam * c) + _exp_negative(lam, p, cut)
        return (
            pos * special.gammaincc(p + 1, lam * c)
            + _exp_negative(lam, p, 1.0 / lam)
            - _exp_negative(lam, p, cut)
        )
    if fam == "uniform":
        h = literal.get("half_width", 1.0)
        cut = np.minimum(c, h)
        if side == "below":
            return cut ** (p + 1) / (h * (p + 1))
        return (h ** (p + 1) - cut ** (p + 1)) / (h * (p + 1))
    if fam == "twopoint":
        a, b = literal.get("a", 1.0), literal.get("b", 1.0)
        pa = b / (a + b)
        keep_a, keep_b = a <= c, b <= c
        if side == "above":
            keep_a, keep_b = ~keep_a, ~keep_b
        return pa * a**p * keep_a + (1 - pa) * b**p * keep_b
    raise ValueError(f"no closed form for family {fam!r}")


def theory_quantities(literal: dict, scales: np.ndarray, x: float, r: float = 1.0, delta: float = 1.0) -> dict:
    """The numeric fields of ``mdlab theory`` for X_j = scales[j] * X,
    from their definitions and the closed-form moments above."""
    s = np.asarray(scales, dtype=float)
    var = _abs_moment(literal, 2.0)
    bn2 = var * math.fsum((s * s).tolist())
    lnr = _abs_moment(literal, 2.0 + r) * math.fsum((s ** (2.0 + r)).tolist())
    bn = math.sqrt(bn2)
    level = bn / x / s
    above = math.fsum((s**2 * truncated_abs_moment(literal, 2.0, level, "above")).tolist())
    below = math.fsum((s**3 * truncated_abs_moment(literal, 3.0, level, "below")).tolist())
    delta_nx = x**2 / bn2 * above + x**3 / bn**3 * below
    gamma = min(delta, 1.0) / 72.0
    epsilon = max(2.0 * delta_nx ** (2.0 / 9.0), gamma * x**-0.5, gamma * x ** (-delta / 10.0))
    threshold = 192.0 * bn2 * max(math.log(x), 1.0) / x**2
    suffix = np.cumsum((var * s * s)[::-1])[::-1]
    qualifying = np.nonzero(suffix >= threshold)[0]
    return {
        "bn2": bn2,
        "lnr": lnr,
        "dnr": bn / lnr ** (1.0 / (2.0 + r)),
        "delta_nx": delta_nx,
        "n0": int(qualifying[-1] + 1) if qualifying.size else 0,
        "gamma": gamma,
        "epsilon": epsilon,
        "m": math.floor(x * x / 2.0),
        "a0_ok": delta_nx <= min(delta**4.5, 1.0),
        "bor_ok": epsilon <= min(1.0 / 24.0, delta / 72.0),
        "range_ok": x <= bn,
    }
