"""Exact oracles: enumeration vs the Rademacher closed form vs the TwoPoint
DP vs independent references (itertools enumeration, the absorbing-barrier
DP, exact binomial sums, scipy.stats.binom, a 40-digit mpmath sum, TwoPoint
path counting)."""

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import binom

from mdlab import Rademacher, SequenceSpec, TwoPoint, Uniform, oracle
from mdlab.errors import BudgetExceededError, ConfigError
from mdlab.oracle import enumerate_exact, lattice_dp_max, twopoint_dp


def brute_force(dist, n, x, scales=None):
    """Reference enumeration via itertools, independent of the library path."""
    values, probs = dist.finite_support()
    scales = np.ones(n) if scales is None else np.asarray(scales, dtype=float)
    p_max = 0.0
    p_sum = 0.0
    for combo in itertools.product(range(len(values)), repeat=n):
        steps = [values[i] * s for i, s in zip(combo, scales)]
        weight = math.prod(probs[i] for i in combo)
        partial = list(itertools.accumulate(steps))
        barrier = x * math.sqrt(sum(v * v for v in steps))
        if max(partial) >= barrier:
            p_max += weight
        if partial[-1] >= barrier:
            p_sum += weight
    return p_max, p_sum


def test_enumerate_rademacher_n4_exact_fractions():
    # hand count: 6 of 16 sign paths reach +2 by step 4; 5 end at >= +2
    res = enumerate_exact(SequenceSpec(Rademacher(1.0), 4), 1.0)
    assert res.p_max == pytest.approx(6.0 / 16.0, abs=1e-15)
    assert res.p_sum == pytest.approx(5.0 / 16.0, abs=1e-15)
    assert res.method == "enumeration"


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 1.7])
def test_enumerate_matches_brute_rademacher(n, x):
    got = enumerate_exact(SequenceSpec(Rademacher(1.0), n), x)
    want_max, want_sum = brute_force(Rademacher(1.0), n, x)
    assert got.p_max == pytest.approx(want_max, abs=1e-13)
    assert got.p_sum == pytest.approx(want_sum, abs=1e-13)


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("x", [0.3, 1.0])
def test_enumerate_matches_brute_twopoint(n, x):
    dist = TwoPoint(2.0, 1.0)
    got = enumerate_exact(SequenceSpec(dist, n), x)
    want_max, want_sum = brute_force(dist, n, x)
    assert got.p_max == pytest.approx(want_max, abs=1e-13)
    assert got.p_sum == pytest.approx(want_sum, abs=1e-13)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 7),
    x=st.floats(0.0, 2.5),
    seed=st.integers(0, 10_000),
)
def test_enumerate_matches_brute_scaled(n, x, seed):
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.5, 2.0, n)
    dist = TwoPoint(1.5, 0.8)
    got = enumerate_exact(SequenceSpec(dist, n, scales=scales), x)
    want_max, want_sum = brute_force(dist, n, x, scales)
    assert got.p_max == pytest.approx(want_max, abs=1e-13)
    assert got.p_sum == pytest.approx(want_sum, abs=1e-13)


@pytest.mark.parametrize("dist", [Rademacher(1.0), TwoPoint(1.0, 1.0)])
def test_enumerate_x0_symmetric_at_least_half(dist):
    res = enumerate_exact(SequenceSpec(dist, 6), 0.0)
    assert res.p_max >= 0.5


def test_enumerate_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        enumerate_exact(SequenceSpec(Rademacher(1.0), 25), 1.0)


def test_enumerate_budget_check_builds_no_n_bit_integer():
    # 2^(10^8) alone would be a 12.5 MB integer
    seq = SequenceSpec(Rademacher(1.0), 10**8)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="budget"):
            enumerate_exact(seq, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_enumerate_rejects_continuous_support():
    with pytest.raises(ConfigError):
        enumerate_exact(SequenceSpec(Uniform(1.0), 4), 1.0)


def test_containment_and_bounds():
    for n in (2, 5, 9):
        for x in (0.0, 0.4, 1.1):
            res = enumerate_exact(SequenceSpec(TwoPoint(2.0, 1.0), n), x)
            assert 0.0 <= res.p_sum <= res.p_max <= 1.0


SPLIT_SCALES = np.random.default_rng(7).uniform(0.5, 2.0, 7)


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize(
    "dist,scaled",
    [(Rademacher(1.0), False), (TwoPoint(2.0, 1.0), False), (TwoPoint(1.5, 0.8), True)],
    ids=["rademacher", "twopoint", "twopoint-scaled"],
)
def test_enumerate_prefix_suffix_split_matches_brute(monkeypatch, n, dist, scaled):
    monkeypatch.setattr(oracle, "_ENUM_CHUNK", 8)  # 3-step prefixes
    scales = SPLIT_SCALES[:n] if scaled else None
    for x in (0.0, 0.5, 1.7):
        got = enumerate_exact(SequenceSpec(dist, n, scales=scales), x)
        want_max, want_sum = brute_force(dist, n, x, scales)
        assert got.p_max == pytest.approx(want_max, abs=1e-13)
        assert got.p_sum == pytest.approx(want_sum, abs=1e-13)


@pytest.mark.parametrize("chunk", [8, 2])
def test_enumerate_split_keeps_barrier_ties(monkeypatch, chunk):
    # n=4, x=1 hits the barrier 2c exactly; the split sums S_pre + M_suf
    # in another order than a running cumulative sum
    monkeypatch.setattr(oracle, "_ENUM_CHUNK", chunk)
    for c in (1.0, 0.25, 0.3, 1e-3):
        got = enumerate_exact(SequenceSpec(Rademacher(c), 4), 1.0)
        assert got.p_max == 6.0 / 16.0
        assert got.p_sum == 5.0 / 16.0


# ---------------------------------------------------------------------------
# Rademacher closed form
# ---------------------------------------------------------------------------

def _walk_step(probs):
    nxt = np.zeros_like(probs)
    nxt[1:] += 0.5 * probs[:-1]
    nxt[:-1] += 0.5 * probs[1:]
    return nxt


def dp_reference(n, barrier):
    """(P(max_k S_k >= barrier), P(S_n >= barrier)) for the +-1 walk by an
    absorbing-barrier DP and a free DP over the states -n..n, O(n^2)."""
    origin = n
    alive = np.zeros(2 * n + 1)
    alive[origin] = 1.0
    free = alive.copy()
    absorbed = 0.0
    for _ in range(n):
        alive = _walk_step(alive)
        absorbed += float(alive[origin + barrier :].sum())
        alive[origin + barrier :] = 0.0
        free = _walk_step(free)
    return absorbed, math.fsum(free[origin + barrier :].tolist())


@pytest.mark.parametrize("n", list(range(1, 65)) + [255, 256, 1024, 2048])
def test_closed_form_matches_dp_reference(n):
    for x in (0.0, 0.5, 1.0, 1.5, 3.0):
        want_max, want_sum = dp_reference(n, math.ceil(x * math.sqrt(n) - 1e-9))
        got = lattice_dp_max(n, x)
        assert got.p_max == pytest.approx(want_max, rel=1e-12, abs=0.0), x
        assert got.p_sum == pytest.approx(want_sum, rel=1e-12, abs=0.0), x


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_dp_reference_matches_brute(n):
    for x in (0.0, 0.5, 1.0, 1.7):
        want_max, want_sum = brute_force(Rademacher(1.0), n, x)
        got_max, got_sum = dp_reference(n, math.ceil(x * math.sqrt(n) - 1e-9))
        assert got_max == pytest.approx(want_max, abs=1e-15)
        assert got_sum == pytest.approx(want_sum, abs=1e-15)


@pytest.mark.parametrize("n", list(range(1, 13)))
@pytest.mark.parametrize("x", [0.5, 1.0, 1.5])
def test_cross_oracle_agreement(n, x):
    dp = lattice_dp_max(n, x)
    enum = enumerate_exact(SequenceSpec(Rademacher(1.0), n), x)
    assert abs(dp.p_max - enum.p_max) <= 1e-12
    assert abs(dp.p_sum - enum.p_sum) <= 1e-12


def reflection_p_max(n, barrier):
    """P(max_{1<=k<=n} S_k >= barrier) for the symmetric unit walk via the
    binomial law. For barrier >= 1 the reflection identity gives
    2 P(S_n > barrier) + P(S_n = barrier). For barrier 0 the walk misses
    only by stepping down first and then never climbing back, which has
    probability P(S_{n-1} in {0, 1}) / 2 (ballot count)."""
    if barrier > n:
        return 0.0
    if barrier <= 0:
        m = n - 1
        return 1.0 - 0.5 * float(binom.pmf(math.ceil(m / 2), m, 0.5))
    k = (n + barrier) / 2.0
    if k != int(k):  # parity: S_n never hits the barrier exactly
        return 2.0 * binom.sf(math.floor(k), n, 0.5)
    k = int(k)
    return 2.0 * binom.sf(k, n, 0.5) + binom.pmf(k, n, 0.5)


def test_reflection_helper_at_barrier_zero():
    # n = 1: max S_1 >= 0 only when the single step is up
    assert reflection_p_max(1, 0) == 0.5
    for n in (1, 2, 3, 5, 8):
        want = brute_force(Rademacher(1.0), n, 0.0)[0]
        assert reflection_p_max(n, 0) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("n", [16, 128, 1024, 4096])
@pytest.mark.parametrize("x", [0.5, 1.3, 2.0, 0.0])
def test_dp_max_matches_reflection_identity(n, x):
    barrier = math.ceil(x * math.sqrt(n) - 1e-9)
    got = lattice_dp_max(n, x).p_max
    want = reflection_p_max(n, barrier)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("n", [16, 128, 1024, 4096])
@pytest.mark.parametrize("x", [0.5, 1.3, 2.0])
def test_dp_sum_matches_binomial_tail(n, x):
    barrier = math.ceil(x * math.sqrt(n) - 1e-9)
    k_min = math.ceil((n + barrier) / 2.0)
    want = float(binom.sf(k_min - 1, n, 0.5))
    assert lattice_dp_max(n, x).p_sum == pytest.approx(want, rel=1e-12, abs=1e-15)


def _mp_walk_tail(n, t):
    """P(S_n >= t) for the +-1 walk to about 40 digits, without scipy. The
    Bin(n, 1/2) pmf is smooth on the scale sqrt(n), so its sum over j >= k is
    its integral over the next 8 sqrt(n) plus three Euler-Maclaurin terms."""
    k = -(-(n + t) // 2)
    with mp.workdps(40):
        c = mp.loggamma(n + 1) - n * mp.ln2
        pmf = lambda j: mp.exp(c - mp.loggamma(j + 1) - mp.loggamma(n - j + 1))  # noqa: E731
        ends = [k + i * math.isqrt(n) for i in range(9)]
        total = mp.quad(pmf, ends) + (pmf(ends[0]) + pmf(ends[-1])) / 2
        for p in (1, 3, 5):
            total += mp.bernoulli(p + 1) / mp.factorial(p + 1) * (
                mp.diff(pmf, ends[-1], p) - mp.diff(pmf, k, p))
        return total


def test_mp_reference_matches_exact_binomial_sums():
    n = 2**16
    row = [1]
    for j in range(n):
        row.append(row[-1] * (n - j) // (j + 1))
    for t in (64, 256, 1280):
        want = Fraction(sum(row[-(-(n + t) // 2):]), 2**n)
        assert float(_mp_walk_tail(n, t)) == pytest.approx(float(want), rel=1e-15, abs=0.0), t


@pytest.mark.parametrize("n", [2**20, 2**25, oracle.CLOSED_FORM_MAX_N])
def test_closed_form_matches_the_mp_reference_up_to_its_range(n):
    # scipy's incomplete beta drifts as n grows (3e-11 at 2^30, 6e-8 at
    # 2^53, 0.0 at 1e23), so the closed form stops at CLOSED_FORM_MAX_N
    for x in (0.25, 1.0, 3.0, 5.0):
        b = math.ceil(x * math.sqrt(n) - 1e-9)
        want_sum = _mp_walk_tail(n, b)
        got = lattice_dp_max(n, x)
        assert got.p_sum == pytest.approx(float(want_sum), rel=1e-10, abs=0.0), x
        assert got.p_max == pytest.approx(float(want_sum + _mp_walk_tail(n, b + 1)), rel=1e-10,
                                          abs=0.0), x


@pytest.mark.parametrize("n", [oracle.CLOSED_FORM_MAX_N + 1, 10**23, 10**400])
def test_closed_form_refuses_past_its_range(n):
    with pytest.raises(BudgetExceededError):
        lattice_dp_max(n, 1.0)
    assert oracle.exact_method(SequenceSpec(Rademacher(1.0), n)) is None
    assert oracle.exact_method(SequenceSpec(Rademacher(1.0), oracle.CLOSED_FORM_MAX_N)) is not None


@pytest.mark.parametrize("n", [256, 4096, 16384])
def test_closed_form_matches_exact_binomial_sums(n):
    # 1e-13 relative: scipy.special.bdtrc is off by up to ~3e-11 here
    row = [1]
    for j in range(n):
        row.append(row[-1] * (n - j) // (j + 1))
    at_least = list(itertools.accumulate(reversed(row)))[::-1]  # sum_{j >= k} C(n, j)

    def tail(t):  # P(S_n >= t) = P(U >= ceil((n + t) / 2)), U ~ Bin(n, 1/2)
        return Fraction(at_least[-(-(n + t) // 2)], 2**n)

    for x in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        b = math.ceil(x * math.sqrt(n) - 1e-9)
        if b == 0:
            m = n - 1
            want_max = 1 - Fraction(math.comb(m, -(-m // 2)), 2 ** (m + 1))
        else:
            want_max = tail(b) + tail(b + 1)
        got = lattice_dp_max(n, x)
        assert got.p_max == pytest.approx(float(want_max), rel=1e-13, abs=0.0), x
        assert got.p_sum == pytest.approx(float(tail(b)), rel=1e-13, abs=0.0), x


def test_dp_sum_even_n_x0():
    # P(S_n >= 0) = (1 + P(S_n = 0)) / 2 by symmetry
    for n in (2, 8, 64):
        want = 0.5 * (1.0 + float(binom.pmf(n // 2, n, 0.5)))
        assert lattice_dp_max(n, 0.0).p_sum == pytest.approx(want, rel=1e-13)


def test_dp_x_above_sqrt_n_is_zero():
    res = lattice_dp_max(16, 4.1)
    assert res.p_max == 0.0
    assert res.p_sum == 0.0
    assert lattice_dp_max(16, 4.0001).p_sum == 0.0


# ---------------------------------------------------------------------------
# TwoPoint DP
# ---------------------------------------------------------------------------

def twopoint_reference(n, a, b, x):
    """(p_max, p_sum) for iid steps in {a, -b} with integer a, b and a
    Fraction x, by counting paths. ``count[m, u]`` is the number of step
    sequences with u ups so far that have not reached the barrier x V_n(m)
    of final up-count m; a sequence first reaching it at step k has
    C(n - k, m - u) completions, each of probability p^m q^(n - m). Barrier
    tests are exact in integers: S >= x V  iff  S >= 0 and (S den)^2 >=
    num^2 V^2."""
    num, den = x.numerator, x.denominator
    m = np.arange(n + 1)
    p = b / (a + b)
    weight = p**m * (1.0 - p) ** (n - m)
    v2 = a * a * m + b * b * (n - m)

    def reached(s, final):
        return (s >= 0) & ((s * den) ** 2 >= num * num * v2[final])

    pascal = np.zeros((n + 1, n + 1))  # pascal[i, j] = C(i, j)
    pascal[:, 0] = 1.0
    for i in range(1, n + 1):
        pascal[i, 1:] = pascal[i - 1, 1:] + pascal[i - 1, :-1]
    ups_left = m[:, None] - m  # [final m, ups so far]
    p_sum = math.fsum((pascal[n] * weight)[reached(a * m - b * (n - m), m)].tolist())
    count = np.zeros((n + 1, n + 1))
    count[:, 0] = 1.0
    first = np.zeros(n + 1)
    for k in range(1, n + 1):
        count[:, 1:] += count[:, :-1].copy()  # the last step was down, or up from u - 1
        hit = reached(a * m - b * (k - m), m[:, None])
        completions = np.where(ups_left >= 0, pascal[n - k][np.maximum(ups_left, 0)], 0.0)
        first += (np.where(hit, count, 0.0) * completions).sum(axis=1)
        count[hit] = 0.0
    return math.fsum((first * weight).tolist()), p_sum


@pytest.mark.parametrize("n", range(1, 8))
def test_twopoint_reference_matches_brute(n):
    for a, b in ((2, 1), (1, 3)):
        for x in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(17, 10)):
            want_max, want_sum = brute_force(TwoPoint(a, b), n, float(x))
            got_max, got_sum = twopoint_reference(n, a, b, x)
            assert got_max == pytest.approx(want_max, abs=1e-14)
            assert got_sum == pytest.approx(want_sum, abs=1e-14)


@pytest.mark.parametrize("n,a,b", [(n, 2, 1) for n in (1, 2, 3, 9, 16, 25, 64, 128, 255)]
                         + [(n, 1, 3) for n in (4, 13, 40)])
def test_twopoint_dp_matches_path_counting(n, a, b):
    for x in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5, 2)):
        got = twopoint_dp(n, float(x), a, b)
        want_max, want_sum = twopoint_reference(n, a, b, x)
        assert got.p_max == pytest.approx(want_max, rel=1e-10, abs=0.0), x
        assert got.p_sum == pytest.approx(want_sum, rel=1e-10, abs=0.0), x
        assert (got.method, got.n, got.x) == ("lattice_dp", n, float(x))


def test_twopoint_dp_scale_free_exact():
    # steps 2c and c: the DP rescales to (1, 0.5) exactly, keeping the ties
    # at x = 1 (n + 3m a square) for any c, even where the absolute 1e-12
    # cut would swamp the steps
    base = twopoint_dp(24, 1.0, 2.0, 1.0)
    for c in (0.25, 0.3, 1e-3, 1e-13, 1e200):
        got = twopoint_dp(24, 1.0, 2.0 * c, c)
        assert (got.p_max, got.p_sum) == (base.p_max, base.p_sum)


def test_twopoint_dp_far_apart_steps():
    # the absolute part of the tie cut is in units of the smaller step, so a
    # step of 1e-13 next to 1 is not inside it. Tiny downs: at x = 1.3 both
    # events are "at least 2 ups" (one up stays below 1.3 V_n ~ 1.3)
    both = binom.sf(1, 30, 1e-13 / (1.0 + 1e-13))
    got = twopoint_dp(30, 1.3, 1.0, 1e-13)
    assert (got.p_max, got.p_sum) == pytest.approx((both, both), rel=1e-12, abs=0.0)
    # tiny ups: only the all-up path reaches the barrier, at step x sqrt(n),
    # so a barrier 0.003 of a step past the last one is missed
    for n, a, x, want in (
        (30, 1e-13, 29.997 / math.sqrt(30), (1.0 / (1.0 + 1e-13)) ** 30),
        (30, 1e-13, 30.003 / math.sqrt(30), 0.0),
        (4, 1e-10, 2.004, 0.0),
    ):
        got = twopoint_dp(n, x, a, 1.0)
        assert (got.p_max, got.p_sum) == pytest.approx((want, want), rel=1e-12, abs=0.0)


def test_twopoint_dp_budget_and_validation():
    assert 255 * 256**2 <= oracle.ENUMERATION_BUDGET < 256 * 257**2
    with pytest.raises(BudgetExceededError):
        twopoint_dp(256, 1.0, 2.0, 1.0)
    with pytest.raises(ConfigError):
        twopoint_dp(0, 1.0, 2.0, 1.0)
    for a, b in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.inf), (1e10, 1e-315)):
        with pytest.raises(ConfigError):
            twopoint_dp(4, 1.0, a, b)


def test_huge_finite_x_gives_zero_without_overflow():
    # x sqrt(n) overflows to inf; the event is still well defined and empty
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = lattice_dp_max(16, 1e308)
        assert (res.p_max, res.p_sum) == (0.0, 0.0)
        res = enumerate_exact(SequenceSpec(TwoPoint(2.0, 1.0), 6), 1e308)
        assert (res.p_max, res.p_sum) == (0.0, 0.0)
        res = twopoint_dp(6, 1e308, 2.0, 1.0)
        assert (res.p_max, res.p_sum) == (0.0, 0.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -0.5])
def test_oracles_reject_bad_x(x):
    with pytest.raises(ConfigError, match="finite and >= 0"):
        lattice_dp_max(4, x)
    with pytest.raises(ConfigError, match="finite and >= 0"):
        enumerate_exact(SequenceSpec(Rademacher(1.0), 4), x)
    with pytest.raises(ConfigError, match="finite and >= 0"):
        twopoint_dp(4, x, 2.0, 1.0)


def test_dp_barrier_tie_counted_in():
    # x sqrt(n) = 3 exactly at n = 9, x = 1: the exact hit belongs to the event
    dp = lattice_dp_max(9, 1.0)
    brute_max, brute_sum = brute_force(Rademacher(1.0), 9, 1.0)
    assert dp.p_max == pytest.approx(brute_max, abs=1e-13)
    assert dp.p_sum == pytest.approx(brute_sum, abs=1e-13)
    # a float-fuzzed x whose barrier is mathematically the same integer
    fuzzed = 3.0000000000000004 / 3.0
    assert lattice_dp_max(9, fuzzed).p_max == dp.p_max


def _agree(p, q, rel=1e-13):
    return abs(p - q) <= rel * max(abs(p), abs(q))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 12),
    k=st.integers(0, 13),
    fuzz=st.sampled_from([0.0, 1e-13, -1e-13, 2e-10, -2e-10]),
    c=st.sampled_from([1e-13, 0.3, 1.0, 7.5]),
)
def test_exact_methods_share_one_tie_rule(n, k, fuzz, c):
    # x sqrt(n) on, or 1e-13 / 2e-10 off, a lattice point k: the closed form,
    # enumeration and the DP draw the line between a tie and a miss alike
    x = (k + fuzz) / math.sqrt(n)
    assume(x >= 0.0)
    closed = lattice_dp_max(n, x)
    for other in (enumerate_exact(SequenceSpec(Rademacher(c), n), x), twopoint_dp(n, x, c, c)):
        assert _agree(other.p_max, closed.p_max), (other, closed)
        assert _agree(other.p_sum, closed.p_sum), (other, closed)


def test_tie_rule_regressions():
    # 2 sits below the barrier 2.0000000004: only the paths through 3 or 4 hit
    for res in (lattice_dp_max(4, 1.0000000002), twopoint_dp(4, 1.0000000002, 1.0, 1.0),
                enumerate_exact(SequenceSpec(Rademacher(1.0), 4), 1.0000000002)):
        assert (res.p_max, res.p_sum) == (0.125, 0.0625)
    # steps far below 1e-12 keep their ties and stay scale free
    want = enumerate_exact(SequenceSpec(TwoPoint(2.0, 1.0), 6), 1.5)
    for got in (enumerate_exact(SequenceSpec(TwoPoint(2e-13, 1e-13), 6), 1.5),
                twopoint_dp(6, 1.5, 2e-13, 1e-13)):
        assert _agree(got.p_max, want.p_max) and _agree(got.p_sum, want.p_sum), got
        assert got.p_max <= 1.0


def test_enumerate_scale_free_exact():
    # n=4, x=1 has an exact barrier tie at 2c; non-dyadic scales must not
    # lose it to float fuzz
    base = enumerate_exact(SequenceSpec(Rademacher(1.0), 4), 1.0)
    assert base.p_max == pytest.approx(6.0 / 16.0, abs=1e-15)
    for c in (0.25, 0.3, 1e-3, 1e-13):
        got = enumerate_exact(SequenceSpec(Rademacher(c), 4), 1.0)
        assert got.p_max == base.p_max
        assert got.p_sum == base.p_sum


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 200), x1=st.floats(0.0, 3.0), x2=st.floats(0.0, 3.0))
def test_dp_monotone_in_x(n, x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    r_lo = lattice_dp_max(n, lo)
    r_hi = lattice_dp_max(n, hi)
    assert r_hi.p_max <= r_lo.p_max + 1e-14
    assert r_hi.p_sum <= r_lo.p_sum + 1e-14
    assert r_lo.p_sum <= r_lo.p_max + 1e-14


def test_dp_budget_and_validation():
    # no size limit: the closed form holds far past where a DP could run
    for n in (100_001, 10**6, 10**9):
        for x in (0.0, 0.5, 1.5, 3.0):
            barrier = math.ceil(x * math.sqrt(n) - 1e-9)
            res = lattice_dp_max(n, x)
            assert res.p_max == pytest.approx(reflection_p_max(n, barrier), rel=1e-12)
            k_min = math.ceil((n + barrier) / 2.0)
            assert res.p_sum == pytest.approx(float(binom.sf(k_min - 1, n, 0.5)), rel=1e-12)
    with pytest.raises(ConfigError):
        lattice_dp_max(0, 1.0)
    with pytest.raises(ConfigError):
        lattice_dp_max(10, -0.5)


def test_dp_probabilities_sum_to_one():
    n, x = 500, 1.2
    p_max = lattice_dp_max(n, x).p_max
    assert 0.0 < p_max < 1.0
    # the max event contains the terminal one
    assert lattice_dp_max(n, x).p_sum <= p_max
