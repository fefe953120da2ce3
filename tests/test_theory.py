"""Moment functionals, regime flags, normal tails, block construction."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mdlab import (
    CenteredExponential,
    Rademacher,
    SequenceSpec,
    StudentT,
    TwoPoint,
    Uniform,
    build_blocks,
    check_suffix_moment_ratios,
    check_tail_segment_ratio,
    compute_quantities,
    error_envelope,
    normal_tail,
    split_index,
)
from mdlab.errors import ConfigError
from mdlab.theory import (
    DegeneratePartitionWarning,
    delta_functional,
    truncation_width,
)

mp.mp.dps = 50

FAMILIES = [
    Rademacher(1.0),
    TwoPoint(2.0, 1.0),
    Uniform(math.sqrt(3.0)),
    CenteredExponential(1.0),
    StudentT(7.0),
]
IDS = [type(d).__name__ for d in FAMILIES]


# ---------------------------------------------------------------------------
# delta functional and friends
# ---------------------------------------------------------------------------

def test_delta_rademacher_indicator_forcing():
    # B_n/x = 5 > 1, so only the cubic term survives: (8/1000) * 100 = 0.8
    seq = SequenceSpec(Rademacher(1.0), 100)
    q = compute_quantities(seq, 2.0, 1.0, 1.0)
    assert q.delta_nx == pytest.approx(0.8, abs=1e-12)
    assert q.bn2 == pytest.approx(100.0, abs=1e-12)
    assert q.m == 2
    assert q.range_ok


def test_delta_above_term_takes_over():
    # B_n/x = 0.5 < 1 puts all Rademacher mass above the cut
    seq = SequenceSpec(Rademacher(1.0), 100)
    assert delta_functional(seq, 20.0) == pytest.approx(400.0, rel=1e-12)


def test_dnr_unit_moments():
    # E X^2 = E|X|^3 = 1 gives d = n^{1/6}; n = 64 -> 2
    q = compute_quantities(SequenceSpec(Rademacher(1.0), 64), 1.0, 1.0, 1.0)
    assert q.dnr == pytest.approx(2.0, abs=1e-13)


@pytest.mark.parametrize("n", [10, 64, 1000, 9999])
def test_dnr_is_sixth_root_for_unit_moments(n):
    q = compute_quantities(SequenceSpec(Rademacher(1.0), n), 1.0, 1.0, 1.0)
    assert q.dnr == pytest.approx(n ** (1.0 / 6.0), rel=1e-13)


@pytest.mark.parametrize("n", [32, 729])
def test_dnr_unit_variance_general_third_moment(n):
    # unit variance, r=1: d = n^{1/6} (E|X|^3)^{-1/3}
    dist = Uniform(math.sqrt(3.0))  # E X^2 = 1, E|X|^3 = 3^{3/2}/4
    q = compute_quantities(SequenceSpec(dist, n), 1.0, 1.0, 1.0)
    want = n ** (1.0 / 6.0) * (math.sqrt(3.0) ** 3 / 4.0) ** (-1.0 / 3.0)
    assert q.dnr == pytest.approx(want, rel=1e-13)


def brute_split_index(variances, x):
    total = sum(variances)
    threshold = 192.0 * total * max(math.log(x), 1.0) / x**2
    best = 0
    for k in range(1, len(variances) + 1):
        if sum(variances[k - 1 :]) >= threshold:
            best = k
    return best


def test_split_index_example():
    # threshold = 192 * 1000 * log 30 / 900 ~ 725.59, so k <= 275.41
    seq = SequenceSpec(Rademacher(1.0), 1000)
    assert split_index(seq, 30.0) == 275
    assert brute_split_index([1.0] * 1000, 30.0) == 275


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 400),
    x=st.floats(0.5, 60.0),
    scaled=st.booleans(),
)
def test_split_index_matches_brute(n, x, scaled):
    rng = np.random.default_rng(n)
    scales = rng.uniform(0.5, 2.0, n) if scaled else None
    seq = SequenceSpec(Rademacher(1.0), n, scales=scales)
    variances = [float(s * s) for s in (scales if scaled else np.ones(n))]
    assert split_index(seq, x) == brute_split_index(variances, x)


def test_split_index_empty_set_is_zero():
    # threshold 48 B_n^2 > B_n^2 at x = 2
    assert split_index(SequenceSpec(Rademacher(1.0), 100), 2.0) == 0


def test_truncation_width_example():
    # 2 * (1e-9)^{2/9} = 0.02 dominates both floor terms at x = 100
    assert truncation_width(1e-9, 100.0, 1.0) == pytest.approx(0.02, rel=1e-12)


def test_truncation_width_floor_terms():
    gamma = 1.0 / 72.0
    assert truncation_width(0.0, 4.0, 1.0) == pytest.approx(gamma * 4.0**-0.1, rel=1e-13)
    assert truncation_width(0.0, 1e6, 0.5) == pytest.approx(
        (0.5 / 72.0) * (1e6) ** -0.05, rel=1e-13
    )


def test_regime_flags_on_deep_instance():
    # Delta = x^3/sqrt(n) = 8e-11 at n = 1e22: both flags come out true
    q = compute_quantities(SequenceSpec(Rademacher(1.0), 10**22), 2.0, 1.0, 1.0)
    assert q.delta_nx == pytest.approx(8e-11, rel=1e-10)
    assert q.a0_ok and q.bor_ok and q.range_ok
    # the split-index threshold multiplier 192 log(x v e)/x^2 = 48 exceeds 1
    # at x = 2, so no suffix qualifies
    assert q.n0 == 0
    # at x = 30 the multiplier drops below 1 and the split index appears
    q30 = compute_quantities(SequenceSpec(Rademacher(1.0), 10**22), 30.0, 1.0, 1.0)
    assert q30.n0 > 0


def test_a0_constant_override():
    seq = SequenceSpec(Rademacher(1.0), 100)
    assert compute_quantities(seq, 2.0, 1.0, 1.0, a0_constant=1.0).a0_ok
    assert not compute_quantities(seq, 2.0, 1.0, 1.0, a0_constant=2.0).a0_ok


def test_compute_quantities_validation():
    seq = SequenceSpec(Rademacher(1.0), 10)
    with pytest.raises(ConfigError):
        compute_quantities(seq, 0.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        compute_quantities(seq, -2.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        compute_quantities(seq, 1.0, 1.5, 1.0)
    # nu > 3 guarantees E|X|^{2+r} < inf for every r <= 1, so student_t is
    # always admissible here; the diverging-moment surface lives in the
    # distributions' abs_moment/truncated_abs_moment
    q = compute_quantities(SequenceSpec(StudentT(4.5), 10), 1.0, 1.0, 1.0)
    assert math.isfinite(q.lnr)


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("dist", FAMILIES, ids=IDS)
def test_scale_invariance(dist, c):
    n, x, r, delta = 200, 3.0, 1.0, 1.0
    base = compute_quantities(SequenceSpec(dist, n), x, r, delta)
    scaled = compute_quantities(
        SequenceSpec(dist, n, scales=np.full(n, c)), x, r, delta
    )
    assert scaled.delta_nx == pytest.approx(base.delta_nx, rel=1e-9)
    assert scaled.dnr == pytest.approx(base.dnr, rel=1e-12)
    assert scaled.epsilon == pytest.approx(base.epsilon, rel=1e-9)
    assert scaled.n0 == base.n0
    assert (scaled.a0_ok, scaled.bor_ok) == (base.a0_ok, base.bor_ok)


def test_scale_invariance_through_family_parameter():
    # rate 1e-90 scales the law by 1e90: E|X|^3 is about 1e270, inside the
    # double range, though a^4 ~ 1e360 at the lower end of the support is not
    for unit, scaled, k in ((Rademacher(1.0), Rademacher(1e3), 1e3),
                            (CenteredExponential(1.0), CenteredExponential(1e-90), 1e90)):
        base = compute_quantities(SequenceSpec(unit, 500), 2.5, 1.0, 1.0)
        big = compute_quantities(SequenceSpec(scaled, 500), 2.5, 1.0, 1.0)
        for name in ("delta_nx", "dnr", "epsilon"):
            assert getattr(big, name) == pytest.approx(getattr(base, name), rel=1e-12), name
        assert big.n0 == base.n0
        assert big.bn2 == pytest.approx(base.bn2 * k * k, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    dist=st.sampled_from(FAMILIES),
    n=st.integers(10, 2000),
    x1=st.floats(0.5, 20.0),
    x2=st.floats(0.5, 20.0),
)
def test_delta_nondecreasing_in_x(dist, n, x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    seq = SequenceSpec(dist, n)
    assert delta_functional(seq, lo) <= delta_functional(seq, hi) * (1 + 1e-12) + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(10, 5000),
    x1=st.floats(math.e, 50.0),
    x2=st.floats(math.e, 50.0),
)
def test_split_index_nondecreasing_in_x(n, x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    seq = SequenceSpec(Rademacher(1.0), n)
    assert split_index(seq, lo) <= split_index(seq, hi)


def test_iid_and_explicit_unit_scales_agree():
    for dist in FAMILIES:
        iid = SequenceSpec(dist, 300)
        ones = SequenceSpec(dist, 300, scales=np.ones(300))
        a = compute_quantities(iid, 2.0, 1.0, 1.0)
        b = compute_quantities(ones, 2.0, 1.0, 1.0)
        assert a.delta_nx == pytest.approx(b.delta_nx, rel=1e-10)
        assert a.n0 == b.n0
        assert a.lnr == pytest.approx(b.lnr, rel=1e-12)


@pytest.mark.parametrize("dist", FAMILIES, ids=IDS)
def test_scaled_sums_match_per_index_loop(dist):
    # the per-index definitions, summed exactly; the schedule sums are one
    # array expression and differ only in summation order
    scales = np.random.default_rng(4).lognormal(0.0, 0.5, 400)
    seq = SequenceSpec(dist, 400, scales=scales)
    for level in (0.3, 2.0, 25.0):
        for p, side in ((2.0, "above"), (3.0, "below")):
            want = math.fsum(s**p * dist.truncated_abs_moment(p, level / s, side) for s in scales)
            assert seq.truncated_sum(p, level, side) == pytest.approx(want, rel=1e-12)
        want = math.fsum(dist.abs_tail_prob(level / s) for s in scales)
        assert seq.tail_prob_sum(level) == pytest.approx(want, rel=1e-12)
    x = 30.0
    res = check_tail_segment_ratio(seq, x, 1.0)
    assert 0 < res.n0 < 400
    level = math.sqrt(seq.variance_sum()) / x
    tail = scales[res.n0 :]
    num = math.fsum(s**3 * dist.truncated_abs_moment(3.0, level / s, "below") for s in tail)
    den = math.fsum(s**2 for s in tail) * dist.variance()
    assert res.lhs == pytest.approx(num / den, rel=1e-12)


# ---------------------------------------------------------------------------
# suffix moment-ratio condition
# ---------------------------------------------------------------------------

def test_suffix_ratios_unit_moments():
    # LHS = 1 for every suffix; RHS = 64^{1/3} / 64^{1/6} = 2
    res = check_suffix_moment_ratios(SequenceSpec(Rademacher(1.0), 64), 1.0, 1.0, 1.0)
    assert res.satisfied
    assert res.lhs == pytest.approx(1.0, abs=1e-14)
    assert res.rhs == pytest.approx(2.0, rel=1e-13)
    assert res.margin == pytest.approx(0.5, rel=1e-13)


def test_suffix_ratios_boundary_tie():
    # n = 1 makes LHS = RHS = 1; ties qualify
    res = check_suffix_moment_ratios(SequenceSpec(Rademacher(1.0), 1), 1.0, 1.0, 1.0)
    assert res.satisfied
    assert res.lhs == pytest.approx(res.rhs, rel=1e-14)


def test_suffix_ratios_growing_schedule_fails():
    n = 64
    scales = np.arange(1.0, n + 1.0)
    seq = SequenceSpec(Rademacher(1.0), n, scales=scales)
    res = check_suffix_moment_ratios(seq, 1.0, 1.0, 1e-6)
    assert not res.satisfied
    # brute-force the maximizing suffix
    num = [sum(s**3 for s in scales[k:]) for k in range(n)]
    den = [sum(s**2 for s in scales[k:]) for k in range(n)]
    ratios = [a / b for a, b in zip(num, den)]
    assert res.worst_k == int(np.argmax(ratios)) + 1 == n
    assert res.margin > 1.0


# ---------------------------------------------------------------------------
# tail segment condition
# ---------------------------------------------------------------------------

def test_tail_segment_false_case():
    # n0 = 275, LHS = 1, RHS = sqrt(1000)/900 << 1
    res = check_tail_segment_ratio(SequenceSpec(Rademacher(1.0), 1000), 30.0, 1.0)
    assert res.status == "ok"
    assert res.n0 == 275
    assert res.holds is False
    assert res.lhs == pytest.approx(1.0, abs=1e-13)
    assert res.rhs == pytest.approx(math.sqrt(1000.0) / 900.0, rel=1e-13)


def test_tail_segment_true_case():
    # n0 in (0, n) and RHS = 1000/900 > 1 = LHS
    res = check_tail_segment_ratio(SequenceSpec(Rademacher(1.0), 10**6), 30.0, 1.0)
    assert res.status == "ok"
    assert 0 < res.n0 < 10**6
    assert res.holds is True


def test_tail_segment_inapplicable_but_reported():
    # the split-index set is empty at x = 4, n = 1e6; the raw inequality
    # (1 <= 1000/16) is still reported on the full range
    res = check_tail_segment_ratio(SequenceSpec(Rademacher(1.0), 10**6), 4.0, 1.0)
    assert res.status == "inapplicable"
    assert res.holds is None
    assert res.n0 == 0
    assert res.lhs == pytest.approx(1.0, abs=1e-13)
    assert res.rhs == pytest.approx(1000.0 / 16.0, rel=1e-13)
    assert res.lhs <= res.rhs


# ---------------------------------------------------------------------------
# normal tail
# ---------------------------------------------------------------------------

def test_normal_tail_at_zero():
    assert normal_tail(0.0) == 0.5


def test_normal_tail_golden_value():
    # high-precision reference for 1 - Phi(3)
    assert normal_tail(3.0) == pytest.approx(1.3498980316300945e-3, rel=1e-12)


@pytest.mark.parametrize(
    "x", [-5.0, -1.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 7.0, 8.0, 8.5, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 37.0]
)
def test_normal_tail_high_precision(x):
    want = float(mp.ncdf(-mp.mpf(x)))
    assert normal_tail(x) == pytest.approx(want, rel=1e-12)


def test_normal_tail_sandwich_at_three():
    x = 3.0
    lo = x * math.exp(-x * x / 2) / (math.sqrt(2 * math.pi) * (1 + x * x))
    hi = math.exp(-x * x / 2) / (math.sqrt(2 * math.pi) * x)
    assert lo <= normal_tail(x) <= hi


def test_normal_tail_range_errors():
    with pytest.raises(ConfigError):
        normal_tail(40.5)
    with pytest.raises(ConfigError):
        normal_tail(-41.0)
    assert normal_tail(-40.0) == pytest.approx(1.0, rel=1e-14)
    assert normal_tail(40.0) >= 0.0


# ---------------------------------------------------------------------------
# block construction
# ---------------------------------------------------------------------------

def test_blocks_degenerate_capacity():
    # capacity 0.02 < 1 forces singletons: T = n
    seq = SequenceSpec(Rademacher(1.0), 10_000)
    with pytest.warns(DegeneratePartitionWarning):
        part = build_blocks(seq, 4.0, 0.04)
    assert part.capacity == pytest.approx(0.02, rel=1e-12)
    assert part.degenerate
    assert part.t == 10_000


def test_blocks_nine_per_block():
    # capacity (1/24)^3 / 8 ~ 9.04e-6 over 1e-6 variances: 9 per block
    seq = SequenceSpec(Rademacher(1e-3), 10**6)
    part = build_blocks(seq, 2.0, 1.0 / 24.0)
    assert not part.degenerate
    assert part.t == math.ceil(10**6 / 9)
    assert part.boundaries is not None and part.boundaries[-1] == 10**6


def test_blocks_single_block():
    # capacity >= B_n^2 swallows the whole schedule
    seq = SequenceSpec(Rademacher(1.0), 50)
    part = build_blocks(seq, 2.0, 3.0)
    assert part.t == 1
    assert list(part.boundaries) == [50]


def test_blocks_partition_property_scaled():
    rng = np.random.default_rng(7)
    n = 500
    scales = rng.uniform(0.5, 2.0, n)
    seq = SequenceSpec(Rademacher(1.0), n, scales=scales)
    part = build_blocks(seq, 2.0, 0.6)
    bounds = list(part.boundaries)
    assert bounds[-1] == n
    assert bounds == sorted(set(bounds))
    var = scales**2
    start = 0
    for end in bounds:
        mass = float(var[start:end].sum())
        assert mass <= part.capacity or (end - start) == 1
        start = end


def test_blocks_count_bound_under_premise():
    # premise x^2 max var <= eps^3 B^2 / 4 needs n >= 4 x^2 / eps^3
    eps = 1.0 / 24.0
    seq = SequenceSpec(Rademacher(1.0), 2_000_000)
    part = build_blocks(seq, 2.0, eps)
    assert part.premise_holds
    assert part.t <= 4.0 * 4.0 / eps**3 + 1.0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3000),
    x=st.floats(2.0, 6.0),
    eps=st.floats(0.05, 1.0),
    scaled=st.booleans(),
)
def test_blocks_greedy_invariants(n, x, eps, scaled):
    rng = np.random.default_rng(n)
    scales = rng.uniform(0.5, 2.0, n) if scaled else None
    seq = SequenceSpec(Rademacher(1.0), n, scales=scales)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePartitionWarning)
        part = build_blocks(seq, x, eps)
    assert 1 <= part.t <= n
    assert part.boundaries[-1] == n
    if part.premise_holds:
        assert part.t <= part.t_bound
    var = seq.scale_array() ** 2 * seq.dist.variance()
    start = 0
    for end in part.boundaries:
        assert float(var[start:end].sum()) <= part.capacity * (1 + 1e-12) or end - start == 1
        start = end


# ---------------------------------------------------------------------------
# truncation-mass chain
# ---------------------------------------------------------------------------

def _chain_holds(seq, x, delta):
    q = compute_quantities(seq, x, 1.0, delta)
    if not (q.a0_ok and q.bor_ok):
        return None
    level = q.epsilon * math.sqrt(q.bn2) / x
    lhs = seq.tail_prob_sum(level)
    mid = q.delta_nx / q.epsilon**3
    rhs = q.epsilon**1.5 / 16.0
    assert lhs <= mid * (1 + 1e-12) + 1e-300, (lhs, mid)
    assert mid <= rhs * (1 + 1e-12), (mid, rhs)
    return True


def test_truncation_chain_deep_instances():
    checked = 0
    for dist in [Rademacher(1.0), Uniform(math.sqrt(3.0)), CenteredExponential(1.0)]:
        for x in (2.0, 4.0):
            if _chain_holds(SequenceSpec(dist, 10**24), x, 1.0):
                checked += 1
    assert checked == 6  # all these instances pass both flags


@settings(max_examples=40, deadline=None)
@given(
    dist=st.sampled_from(FAMILIES),
    log10_n=st.floats(18.0, 26.0),
    x=st.floats(2.0, 5.0),
    delta=st.floats(0.8, 3.0),
)
def test_truncation_chain_property(dist, log10_n, x, delta):
    seq = SequenceSpec(dist, int(10**log10_n))
    result = _chain_holds(seq, x, delta)
    assume(result is not None)


# ---------------------------------------------------------------------------
# error envelope
# ---------------------------------------------------------------------------

def test_error_envelope_examples():
    assert error_envelope(16.0, 0.0, 5.0) == pytest.approx(0.5, rel=1e-14)
    assert error_envelope(2.0**20, 0.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert error_envelope(16.0, 1e-9, 5.0) == pytest.approx(0.6, rel=1e-12)


_BAD_PARAMETER_CALLS = {
    "delta_functional": lambda seq, v: delta_functional(seq, v),
    "split_index": lambda seq, v: split_index(seq, v),
    "truncation_width x": lambda seq, v: truncation_width(0.1, v, 1.0),
    "truncation_width delta": lambda seq, v: truncation_width(0.1, 2.0, v),
    "compute_quantities x": lambda seq, v: compute_quantities(seq, v, 1.0, 1.0),
    "compute_quantities delta": lambda seq, v: compute_quantities(seq, 2.0, 1.0, v),
    "compute_quantities a0_constant": lambda seq, v: compute_quantities(seq, 2.0, 1.0, 1.0, v),
    "check_suffix_moment_ratios delta": lambda seq, v: check_suffix_moment_ratios(
        seq, 1.0, v, 1.0),
    "check_suffix_moment_ratios tau": lambda seq, v: check_suffix_moment_ratios(
        seq, 1.0, 1.0, v),
    "check_tail_segment_ratio x": lambda seq, v: check_tail_segment_ratio(seq, v, 1.0),
    "check_tail_segment_ratio delta": lambda seq, v: check_tail_segment_ratio(seq, 2.0, v),
    "build_blocks x": lambda seq, v: build_blocks(seq, v, 0.5),
    "build_blocks epsilon": lambda seq, v: build_blocks(seq, 2.0, v),
    "error_envelope x": lambda seq, v: error_envelope(v, 0.1, 1.0),
    "error_envelope delta": lambda seq, v: error_envelope(2.0, 0.1, v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0])
@pytest.mark.parametrize("call", sorted(_BAD_PARAMETER_CALLS))
def test_parameters_must_be_finite_and_positive(call, value):
    seq = SequenceSpec(TwoPoint(2.0, 1.0), 20)
    with pytest.raises(ConfigError):
        _BAD_PARAMETER_CALLS[call](seq, value)


def test_error_envelope_validation():
    with pytest.raises(ConfigError):
        error_envelope(0.0, 0.1, 1.0)
    with pytest.raises(ConfigError):
        error_envelope(2.0, -0.1, 1.0)


# ---------------------------------------------------------------------------
# sequence spec validation
# ---------------------------------------------------------------------------

def test_sequence_spec_validation():
    with pytest.raises(ConfigError):
        SequenceSpec(Rademacher(1.0), 0)
    with pytest.raises(ConfigError):
        SequenceSpec(Rademacher(1.0), 3, scales=np.array([1.0, 2.0]))
    with pytest.raises(ConfigError):
        SequenceSpec(Rademacher(1.0), 2, scales=np.array([1.0, 0.0]))
