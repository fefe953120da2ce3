"""Monte Carlo engine: determinism, merging, importance sampling."""

import dataclasses
import json
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from mdlab import CenteredExponential, Rademacher, SequenceSpec, StudentT, TwoPoint, Uniform, mc, oracle
from mdlab.distributions import _langevin, _langevin_slope
from mdlab.errors import BudgetExceededError, ConfigError, InfeasibleError, TiltUnsupportedError
from mdlab.mc import (CHUNK_SIZE, PATH_STEP_BUDGET, STREAM_VERSION, _check_path_steps, _run_chunk,
                      _switched_tilt, choose_tilt, merge, simulate)
from mdlab.theory import _tie_unit
from mdlab.oracle import enumerate_exact, lattice_dp_max, twopoint_dp


def test_naive_matches_enumeration_oracle():
    seq = SequenceSpec(Rademacher(1.0), 4)
    exact = enumerate_exact(seq, 1.0)
    est_max, est_sum = simulate(seq, 1.0, 1_000_000, seed=11, method="naive")
    assert abs(est_max.p_hat - exact.p_max) <= 4.0 * est_max.stderr
    assert abs(est_sum.p_hat - exact.p_sum) <= 4.0 * est_sum.stderr


def test_tilted_matches_dp_oracle():
    seq = SequenceSpec(Rademacher(1.0), 64)
    exact = lattice_dp_max(64, 2.0)
    est_max, est_sum = simulate(seq, 2.0, 100_000, seed=21, method="tilted")
    assert abs(est_max.p_hat - exact.p_max) <= 4.0 * est_max.stderr
    assert abs(est_sum.p_hat - exact.p_sum) <= 4.0 * est_sum.stderr


def test_tilted_twopoint_matches_dp_oracle(monkeypatch):
    # V_n is random here, unlike Rademacher; n = 256 is one step past the
    # DP's work budget, which is a guard on its cost, not on its accuracy
    monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", 256 * 257**2)
    exact = twopoint_dp(256, 2.5, 2.0, 1.0)
    est_max, est_sum = simulate(SequenceSpec(TwoPoint(2.0, 1.0), 256), 2.5, 1 << 17,
                                seed=41, method="tilted")
    assert abs(est_max.p_hat - exact.p_max) <= 4.0 * est_max.stderr
    assert abs(est_sum.p_hat - exact.p_sum) <= 4.0 * est_sum.stderr


@pytest.mark.parametrize(
    "c, n, x, method",
    [(0.3, 4, 1.0, "naive"), (0.3, 4, 1.0, "tilted"), (0.6, 4, 1.0, "tilted"),
     (0.1, 6, 0.0, "naive"), (0.1, 6, 0.0, "tilted")],
)
def test_ties_moved_by_float_error_still_count(c, n, x, method):
    # the paths end exactly on x V_n in exact arithmetic, but sums of 0.3,
    # 0.6 or 0.1 land a few ulps off it: they count as ties, as in the
    # exact methods
    seq = SequenceSpec(Rademacher(c), n)
    exact = enumerate_exact(seq, x)
    est_max, est_sum = simulate(seq, x, 100_000, method=method)
    assert abs(est_max.p_hat - exact.p_max) <= 4.0 * est_max.stderr
    assert abs(est_sum.p_hat - exact.p_sum) <= 4.0 * est_sum.stderr


def test_x0_symmetric_at_least_half():
    est_max, _ = simulate(SequenceSpec(Rademacher(1.0), 16), 0.0, 20_000, seed=3)
    assert est_max.p_hat >= 0.5


def test_event_nesting_on_shared_paths():
    est_max, est_sum = simulate(SequenceSpec(Uniform(1.0), 32), 1.2, 50_000, seed=5)
    assert est_sum.p_hat <= est_max.p_hat


def test_naive_stderr_is_binomial():
    est_max, _ = simulate(SequenceSpec(Rademacher(1.0), 8), 1.0, 10_000, seed=9)
    p = est_max.p_hat
    assert est_max.stderr == pytest.approx(math.sqrt(p * (1 - p) / 10_000), rel=1e-12)


# ---------------------------------------------------------------------------
# determinism and merging
# ---------------------------------------------------------------------------

def test_worker_count_does_not_change_bits():
    seq = SequenceSpec(Rademacher(1.0), 32)
    n = 3 * CHUNK_SIZE + 1000  # partial final chunk included
    runs = [simulate(seq, 1.5, n, seed=42, workers=w) for w in (1, 2, 8)]
    for other in runs[1:]:
        assert other[0] == runs[0][0]
        assert other[1] == runs[0][1]


@pytest.mark.parametrize(
    "seq, x, seed, theta, pins",
    [
        (SequenceSpec(TwoPoint(2.0, 1.0), 64), 2.0, 5, "0x1.5376ab421717bp-3",
         ["0x1.edd53c70f2edbp-6", "0x1.319c14d1c6c50p-13",
          "0x1.130b610cd5694p-6", "0x1.0552ebfe15a91p-13"]),
        (SequenceSpec(Uniform(1.0), 50), 1.5, 31, "0x1.7bad2b8e1c757p-2",
         ["0x1.dc9c557dccc17p-4", "0x1.e2f54b036c58dp-12",
          "0x1.124c8d4676a98p-4", "0x1.88ca285c1979dp-12"]),
    ],
    ids=["twopoint_iid", "uniform_iid"],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_tilted_estimates_pinned_to_the_bit(seq, x, seed, theta, pins, workers):
    # 70,000 paths: one full chunk and a partial one
    assert choose_tilt(seq, x).hex() == theta
    est_max, est_sum = simulate(seq, x, 70_000, seed=seed, method="tilted", workers=workers)
    got = [est_max.p_hat, est_max.stderr, est_sum.p_hat, est_sum.stderr]
    assert [v.hex() for v in got] == pins


def test_merge_of_halves_equals_full_run():
    seq = SequenceSpec(Rademacher(1.0), 16)
    n = 1 << 17
    full = simulate(seq, 1.0, n, seed=7)
    first = simulate(seq, 1.0, n // 2, seed=7, first_chunk=0)
    second = simulate(seq, 1.0, n // 2, seed=7, first_chunk=n // 2 // CHUNK_SIZE)
    assert merge(first[0], second[0]) == full[0]
    assert merge(first[1], second[1]) == full[1]


def test_merge_commutativity_associativity():
    seq = SequenceSpec(Rademacher(1.0), 16)
    a = simulate(seq, 1.0, 2000, seed=1, first_chunk=0)[0]
    b = simulate(seq, 1.0, 2000, seed=1, first_chunk=5)[0]
    c = simulate(seq, 1.0, 2000, seed=1, first_chunk=9)[0]
    assert merge(a, b) == merge(b, a)
    assert merge(merge(a, b), c) == merge(a, merge(b, c))


def test_merge_across_seeds_pools():
    seq = SequenceSpec(Rademacher(1.0), 16)
    a = simulate(seq, 1.0, 2000, seed=1)[0]
    b = simulate(seq, 1.0, 3000, seed=2)[0]
    pooled = merge(a, b)
    assert pooled.n_samples == 5000
    want = (a.p_hat * 2000 + b.p_hat * 3000) / 5000
    assert pooled.p_hat == pytest.approx(want, rel=1e-14)
    # commutative even across seeds, including the provenance field
    assert merge(a, b) == merge(b, a)


def test_merge_rejects_mismatches_and_duplicates():
    seq = SequenceSpec(Rademacher(1.0), 16)
    a_max, a_sum = simulate(seq, 1.0, 2000, seed=1)
    with pytest.raises(ConfigError):
        merge(a_max, a_sum)  # different event
    other_x = simulate(seq, 1.5, 2000, seed=1)[0]
    with pytest.raises(ConfigError):
        merge(a_max, other_x)
    tilted = simulate(seq, 1.0, 2000, seed=3, method="tilted")[0]
    with pytest.raises(ConfigError):
        merge(a_max, tilted)
    with pytest.raises(ConfigError):
        merge(a_max, a_max)  # duplicate (seed, chunk) records


def test_merge_refuses_estimates_of_another_stream_version():
    seq = SequenceSpec(Rademacher(1.0), 16)
    est = simulate(seq, 1.0, 2000, seed=1)[0]
    assert est.quantity[-1] == STREAM_VERSION == 8
    # the same law, n and x drawn by the version-1 to -5 streams
    for version in (1, 2, 3, 4, 5):
        older = dataclasses.replace(est, quantity=est.quantity[:-1] + (version,),
                                    records=tuple((2,) + r[1:] for r in est.records))
        with pytest.raises(ConfigError, match="quantity"):
            merge(est, older)


@pytest.mark.parametrize("dist, other", [
    (Rademacher(1.0), Rademacher(0.5)), (TwoPoint(2.0, 1.0), TwoPoint(1.0, 2.0)),
    (Uniform(1.0), Uniform(2.0)), (CenteredExponential(1.0), CenteredExponential(2.0)),
    (StudentT(5.0), StudentT(6.0))],
    ids=["rademacher", "two_point", "uniform", "exponential", "student_t"])
def test_an_estimate_is_keyed_by_its_law_n_and_x(dist, other):
    # on iid steps the law literal, n and x name the quantity: runs that
    # differ in any one of them do not pool, and runs of the same one do
    est = simulate(SequenceSpec(dist, 8), 1.0, 2000, seed=1)[0]
    assert est.quantity == (json.dumps(dist.literal(), sort_keys=True), 8, 1.0, STREAM_VERSION)
    for seq, x in ((SequenceSpec(other, 8), 1.0), (SequenceSpec(dist, 9), 1.0),
                   (SequenceSpec(dist, 8), 1.25)):
        with pytest.raises(ConfigError, match="quantity"):
            merge(est, simulate(seq, x, 2000, seed=2)[0])
    assert merge(est, simulate(SequenceSpec(dist, 8), 1.0, 2000, seed=2)[0]).n_samples == 4000


# ---------------------------------------------------------------------------
# the tilt solve
# ---------------------------------------------------------------------------

def test_choose_tilt_zero_drift():
    assert choose_tilt(SequenceSpec(Rademacher(1.0), 16), 0.0) == 0.0


def test_choose_tilt_rademacher_closed_form():
    assert choose_tilt(SequenceSpec(Rademacher(1.0), 64), 2.0) == math.atanh(2.0 / 8.0)
    assert choose_tilt(SequenceSpec(Rademacher(0.5), 64), 2.0) == math.atanh(2.0 / 8.0) / 0.5
    # the two-point closed form at a = b = c is atanh(x / sqrt(n)) / c to the bit
    for c in (0.3, 2.0, 1e-100, 1e100):
        for n, x in ((16, 1.5), (1000, 3.3), (3, 1.0)):
            theta = choose_tilt(SequenceSpec(Rademacher(c), n), x)
            assert theta == math.atanh(x / math.sqrt(n)) / c


def _exact_two_point_tilt(a, b, n, x):
    """The root of the iid two-point tilt equation to 50 digits:
    ``log(a (b + m) / (b (a - m))) / (a + b)`` with ``m = x sqrt(a b / n)``."""
    with mp.workdps(50):
        a, b, n, x = map(mp.mpf, (a, b, n, x))
        m = x * mp.sqrt(a * b / n)
        return mp.log(a * (b + m) / (b * (a - m))) / (a + b)


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (1.0, 2.0), (1.5, 0.8), (0.8, 1.5), (3.0, 1.0),
                                  (1.0, 3.0), (1e3, 1.0), (1e6, 1.0)])
def test_two_point_tilt_matches_the_exact_root(a, b):
    # targets up to 0.9 of the hull a, past which the root's own condition
    # number grows; Brent's method was up to 1e-12 off on this grid, and the
    # atanh form 2e-14 off at a / b = 1e6, where the log form takes over
    checked = 0
    for n in (1, 4, 16, 64, 256, 1024, 10**6):
        for x in (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
            if x * math.sqrt(a * b / n) >= 0.9 * a:
                continue
            theta = choose_tilt(SequenceSpec(TwoPoint(a, b), n), x)
            exact = _exact_two_point_tilt(a, b, n, x)
            assert abs(theta - exact) <= 1e-15 * exact, (n, x, theta, exact)
            checked += 1
    assert checked >= 30


@pytest.mark.parametrize("x", [1e-79, 0.5, 1.0, 1e10, 2e80])
def test_two_point_tilt_with_a_step_below_the_rounding_of_the_other(x):
    # with m = x sqrt(ab / n), 1 - z ~ 2b / m is below the rounding of 1
    # from x ~ 1e-63 on; the log form serves every x here, as a > 3b
    theta = choose_tilt(SequenceSpec(TwoPoint(1.0, 1e-160), 5), x)
    assert math.isfinite(theta)
    assert abs(theta - _exact_two_point_tilt(1.0, 1e-160, 5, x)) <= 1e-15 * theta
    # P(X = a) rounds to 1 here: the untilted drift is already the hull a
    assert choose_tilt(SequenceSpec(TwoPoint(1e-160, 1.0), 5), min(x, 1.0)) == 0.0


@pytest.mark.parametrize("dist, n, x", [
    (TwoPoint(2.0, 1.0), 16, 6.0),  # target 6 sqrt(32) against the hull 2n = 32
    (TwoPoint(1.0, 2.0), 16, 3.0),  # 3 sqrt(32) against n = 16
    (TwoPoint(1.0, 1e-160), 5, 1e81),
    (TwoPoint(1e-160, 1.0), 5, 1e10),
])
def test_two_point_tilt_past_the_hull_is_infeasible(dist, n, x):
    with pytest.raises(InfeasibleError, match="support hull"):
        choose_tilt(SequenceSpec(dist, n), x)


def test_choose_tilt_uniform_by_root_finding():
    dist = Uniform(math.sqrt(3.0))
    seq = SequenceSpec(dist, 100)
    x = 0.3 * math.sqrt(100)  # per-step drift target 0.3
    theta = choose_tilt(seq, x)
    assert dist.half_width * _langevin(theta * dist.half_width) == pytest.approx(0.3, abs=1e-10)
    assert theta > 0.0


def _newton_steps(monkeypatch, seq, x):
    """``(theta, Newton steps)`` of one tilt solve: each step reads the
    slope, one ``_langevin_slope``."""
    calls = []
    slope = mc._langevin_slope
    monkeypatch.setattr(mc, "_langevin_slope", lambda z: calls.append(z) or slope(z))
    theta = choose_tilt(seq, x)
    monkeypatch.setattr(mc, "_langevin_slope", slope)
    return theta, len(calls)


def _exact_uniform_tilt(seq, x, start):
    """The root of ``n tilted_mean(theta) = x B_n`` for iid Uniform steps to
    50 digits, polished from ``start``."""
    with mp.workdps(50):
        a, n = mp.mpf(seq.dist.half_width), mp.mpf(seq.n)
        target = mp.mpf(x) * mp.sqrt(n * a * a / 3)
        return mp.findroot(lambda t: n * a * (mp.coth(t * a) - 1 / (t * a)) - target, mp.mpf(start))


def test_newton_tilt_of_iid_uniform_matches_the_exact_root(monkeypatch):
    # from Cohen's Pade start; Brent's method was up to 1e-10 off here, and
    # refused n = 1e9, where the closed form of the Langevin function cancels
    for dist in (Uniform(1.0), Uniform(2.5)):
        for n in (4, 16, 100, 10**4, 10**6, 10**9, 10**12):
            for x in (0.5, 1.0, 1.5, 2.0, 3.0):
                seq = SequenceSpec(dist, n)
                theta, steps = _newton_steps(monkeypatch, seq, x)
                exact = _exact_uniform_tilt(seq, x, theta)
                assert abs(theta - exact) <= 1e-15 * exact, (dist, n, x, theta, exact)
                assert steps <= 8, (dist, n, x, steps)


@pytest.mark.parametrize("seq", [SequenceSpec(Uniform(1.0), 30), SequenceSpec(Uniform(1.0), 1),
                                 SequenceSpec(Uniform(1e3), 30), SequenceSpec(Uniform(1.0), 1000),
                                 SequenceSpec(Uniform(1e-3), 30)],
                         ids=["uniform_iid", "one_step", "wide", "long", "narrow"])
def test_newton_tilt_answers_next_to_the_hull(monkeypatch, seq):
    # Brent's method refused Uniform from 1e-9 below the hull on ("failed to
    # bracket"); every target below it now has a tilt that passes the 1e-10
    # residual check. Cohen's start puts iid Uniform within 3 steps of it
    hull_x = seq.dist.support_max() * seq.n / math.sqrt(seq.variance_sum())
    thetas = []
    for gap in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 0.0):
        x = math.nextafter(hull_x, 0.0) if gap == 0.0 else hull_x * (1.0 - gap)
        theta, steps = _newton_steps(monkeypatch, seq, x)
        assert steps <= 3, (gap, steps)
        thetas.append(theta)
        for est in simulate(seq, x, 1000, method="tilted"):
            assert math.isfinite(est.p_hat) and math.isfinite(est.stderr)
    assert all(0.0 < a < b < math.inf for a, b in zip(thetas, thetas[1:]))


def test_uniform_tilt_is_scale_free(monkeypatch):
    # z = theta a solves L(z) = x / sqrt(3 n) whatever a is: theta a is the
    # same to the bit where dividing by a is exact, and the root z itself is
    # the same at every a; 1e-9 below the hull the solve in theta took 200
    # steps on Uniform(1e-3), and its theta a differed by 6e-8 relative
    # between a = 1e-3 and a = 1
    roots = []
    solve = mc._langevin_root
    monkeypatch.setattr(mc, "_langevin_root", lambda y: roots.append(solve(y)) or roots[-1])
    for n in (1, 30, 10**4):
        hull_x = math.sqrt(3.0 * n)
        for x in (0.5, 1.0, 0.5 * hull_x, hull_x * (1.0 - 1e-9)):
            def scaled(widths):
                return [choose_tilt(SequenceSpec(Uniform(a), n), x) * a for a in widths]

            assert len(set(scaled((2.0**-10, 1.0, 2.0**10)))) == 1, (n, x)
            del roots[:]
            near = scaled((1e-3, 0.1, 1e3))
            assert len(set(roots)) == 1, (n, x, roots)
            # theta a is z / a * a, two roundings off z
            assert all(abs(t - roots[0]) <= 2.0**-51 * roots[0] for t in near), (n, x, near)


@pytest.mark.parametrize("y", [0.05, 0.3, 0.6, 0.9, 0.999])
def test_newton_steps_that_leave_the_bracket_bisect_it(monkeypatch, y):
    # a slope a quarter of L's sends every Newton step three times past the
    # root, out of the bracket the values of L have narrowed, so the root
    # comes from the bisections that replace those steps
    zs = []
    monkeypatch.setattr(mc, "_langevin", lambda z: zs.append(z) or _langevin(z))
    monkeypatch.setattr(mc, "_langevin_slope", lambda z: 0.25 * _langevin_slope(z))
    z = mc._langevin_root(y)
    lo, hi, bisections = 0.0, math.inf, 0
    for t in zs:
        bisections += t == 0.5 * (lo + hi)
        lo, hi = (t, hi) if _langevin(t) < y else (lo, t)
    assert bisections >= 3
    with mp.workdps(50):
        want = mp.findroot(lambda t: mp.coth(t) - 1 / t - y, mp.mpf(z))
        assert abs(z - want) <= 1e-12 * want


@pytest.mark.parametrize("dist, solver", [(Uniform(1e-12), "_langevin_root"),
                                          (TwoPoint(1e-12, 2e-12), "_two_point_tilt")],
                         ids=["uniform", "two_point"])
@pytest.mark.parametrize("scale", [2.0**-30, 1.0, 2.0**30])
def test_a_root_off_by_1e_6_is_refused_at_every_scale(monkeypatch, dist, solver, scale):
    # the targets here are about 2e-11 and 4e-11 for scale 1, where an
    # absolute 1e-10 residual bound passed theta = 0; the check is relative
    # to the target in the law's own units, so scaling the law by a power of
    # two keeps its verdict
    fields = {k: v * scale for k, v in dataclasses.asdict(dist).items()}
    seq = SequenceSpec(type(dist)(**fields), 100)
    assert choose_tilt(seq, 3.0) > 0.0
    solve = getattr(mc, solver)
    monkeypatch.setattr(mc, solver, lambda *args: solve(*args) * (1.0 + 1e-6))
    with pytest.raises(InfeasibleError, match="residual"):
        choose_tilt(seq, 3.0)


def _exact_drift(dist, n, theta):
    """``n E[X e^{theta X}] / E[e^{theta X}]`` to 50 digits, for Uniform and
    two-point laws, from their closed forms."""
    with mp.workdps(50):
        t = mp.mpf(theta)
        if isinstance(dist, Uniform):
            a = mp.mpf(dist.half_width)
            return n * a * (mp.coth(t * a) - 1 / (t * a))
        a, b = mp.mpf(dist.a), mp.mpf(dist.b)
        return n * a * b * -mp.expm1(-t * (a + b)) / (b + a * mp.exp(-t * (a + b)))


@pytest.mark.parametrize("dist, n, x", [
    (Rademacher(1.0), 64, 2.0), (Rademacher(0.3), 16, 1.5), (TwoPoint(2.0, 1.0), 64, 2.0),
    (TwoPoint(1.0, 3.0), 50, 1.5), (Uniform(1.0), 50, 1.5), (Uniform(2.5), 1000, 3.0)],
    ids=["rademacher", "rademacher_small", "two_point", "skewed_up", "uniform", "uniform_wide"])
def test_the_tilt_drifts_to_the_target_in_exact_arithmetic(dist, n, x):
    # the drift of n iid tilted steps at the solved theta, taken from the
    # closed forms rather than from the law's own tilted_mean, is x B_n
    theta = choose_tilt(SequenceSpec(dist, n), x)
    target = x * math.sqrt(n * dist.variance())
    assert abs(float(_exact_drift(dist, n, theta)) - target) <= 1e-13 * target


def test_choose_tilt_hull_error():
    with pytest.raises(InfeasibleError):
        choose_tilt(SequenceSpec(Rademacher(1.0), 16), 4.0)  # drift = sup support


def test_choose_tilt_range_precondition():
    with pytest.raises(InfeasibleError):  # x > sqrt(n) puts the target past the hull
        choose_tilt(SequenceSpec(Rademacher(1.0), 16), 4.5)


def test_rademacher_tilt_at_the_edge_of_the_hull():
    # x = sqrt(3) puts the rounded target just below the hull n, where
    # x / sqrt(n) rounds to 1 and atanh(1) is infinite; the log form of the
    # closed form takes over there, with m / a kept below 1
    est_max, est_sum = simulate(SequenceSpec(Rademacher(1.0), 3), math.sqrt(3.0), 2000,
                                method="tilted")
    assert est_max.p_hat == pytest.approx(0.125, rel=1e-9)
    assert est_sum.p_hat == pytest.approx(0.125, rel=1e-9)


def test_tilted_unbounded_family_raises():
    seq = SequenceSpec(CenteredExponential(1.0), 16)
    with pytest.raises(TiltUnsupportedError, match="naive"):
        simulate(seq, 1.0, 2000, seed=1, method="tilted")


def test_choose_tilt_owns_the_support_check():
    with pytest.raises(TiltUnsupportedError, match="naive"):
        choose_tilt(SequenceSpec(CenteredExponential(1.0), 16), 1.0)


def test_tilt_target_below_rounding_is_no_tilt_or_infeasible():
    # the tilted mean of TwoPoint at theta = 0 is zero only up to rounding
    dist = TwoPoint(1e-10, 1e10)
    assert dist.tilted_mean(0.0) != 0.0
    for x in (0.0, 1e-300):
        with pytest.raises(InfeasibleError, match="residual"):
            choose_tilt(SequenceSpec(dist, 5), x)
    assert choose_tilt(SequenceSpec(TwoPoint(1e-160, 1.0), 5), 1e-300) == 0.0


def test_simulate_validation():
    seq = SequenceSpec(Rademacher(1.0), 8)
    with pytest.raises(ConfigError):
        simulate(seq, 1.0, 999, seed=1)
    with pytest.raises(ConfigError):
        simulate(seq, -1.0, 2000, seed=1)
    with pytest.raises(ConfigError):
        simulate(seq, 1.0, 2000, seed=-1)
    with pytest.raises(ConfigError):
        simulate(seq, 1.0, 2000, seed=1, method="antithetic")
    with pytest.raises(ConfigError):
        simulate(seq, 1.0, 2000, seed=1, workers=0)
    with pytest.raises(ConfigError):
        simulate(seq, 1.0, 2000, seed=1, first_chunk=-1)
    with pytest.raises(ConfigError):
        simulate(seq, 1.0, 2000, seed=2**64)


@pytest.mark.parametrize("dist", [TwoPoint(2.0, 1.0), Uniform(1.0)], ids=["two_point", "uniform"])
@pytest.mark.parametrize("scales", [np.random.default_rng(5).uniform(0.5, 2.0, 8), np.ones(8)],
                         ids=["random", "unit"])
def test_monte_carlo_refuses_a_scale_schedule_before_drawing(monkeypatch, dist, scales):
    # Monte Carlo runs iid steps: a schedule, unit scales included, is refused
    # before any chunk is drawn and before any tilt is solved
    def no_chunk(*args):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(mc, "_run_chunk", no_chunk)
    seq = SequenceSpec(dist, 8, scales=scales)
    for method in ("naive", "tilted"):
        with pytest.raises(ConfigError, match="iid steps only"):
            simulate(seq, 1.0, 2000, method=method)
    with pytest.raises(ConfigError, match="iid steps only"):
        choose_tilt(seq, 1.0)
    assert choose_tilt(SequenceSpec(dist, 8), 1.0) > 0.0


@pytest.mark.parametrize("dist", [Rademacher(1.0), TwoPoint(2.0, 1.0), Uniform(1.0),
                                  CenteredExponential(1.0), StudentT(5.0)],
                         ids=["rademacher", "two_point", "uniform", "exponential", "student_t"])
def test_a_schedule_is_refused_before_every_other_check(dist):
    # too few paths, a target past the hull, a law with no tilt: a schedule
    # is named first, as no run of it is drawn whatever else is wrong
    seq = SequenceSpec(dist, 8, scales=np.linspace(0.5, 2.0, 8))
    for x, n_samples, method in ((1.0, 999, "naive"), (1.0, 999, "tilted"),
                                 (1e3, 2000, "tilted"), (1.0, 2000, "antithetic")):
        with pytest.raises(ConfigError, match="iid steps only"):
            simulate(seq, x, n_samples, method=method)
    for x in (1.0, 1e3):
        with pytest.raises(ConfigError, match="iid steps only"):
            choose_tilt(seq, x)


def test_path_step_budget():
    _check_path_steps(2**24, 1024)  # 2^34 path-steps: within the budget
    with pytest.raises(BudgetExceededError, match="budget"):
        _check_path_steps(2**24, 1025)
    # refused before anything of length n is built
    for n, method in ((1075830521, "naive"), (10**400, "tilted")):
        with pytest.raises(BudgetExceededError, match="budget"):
            simulate(SequenceSpec(Rademacher(1.0), n), 1.0, 1000, method=method)
    assert PATH_STEP_BUDGET == 2**34


@pytest.mark.parametrize("dist, method", [(TwoPoint(2.0, 1.0), "tilted"), (Uniform(1.0), "tilted"),
                                          (Rademacher(1.0), "naive"), (StudentT(5.0), "naive")],
                         ids=["two_point_kernel", "float_tilted", "float_naive", "student_t_naive"])
def test_an_iid_chunk_builds_nothing_of_length_n(dist, method):
    # 2^15 steps of 8 paths: a float64 array of length n alone is 256 KiB,
    # and a list of its n floats 1 MiB; what a chunk allocates is set by
    # its paths, not by n
    seq = SequenceSpec(dist, 1 << 15)
    tilt = _switched_tilt(seq, 2.0) if method == "tilted" else None
    tracemalloc.start()
    try:
        _run_chunk(seq, 2.0, 1, 0, 8, tilt, _tie_unit(seq))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024


def test_a_tilted_run_builds_its_thresholds_once(monkeypatch):
    # the tilted word and the untilted one are built with the switched tilt,
    # not again by every chunk
    calls = []
    up_threshold = TwoPoint.up_threshold
    monkeypatch.setattr(TwoPoint, "up_threshold",
                        lambda self, theta: calls.append(theta) or up_threshold(self, theta))
    counts = []
    for n_samples in (2000, 3 * CHUNK_SIZE):
        calls.clear()
        simulate(SequenceSpec(TwoPoint(2.0, 1.0), 8), 1.5, n_samples, seed=3, method="tilted")
        counts.append(len(calls))
    assert counts == [2, 2]


def test_chunk_indices_past_64_bits_are_config_errors():
    # a chunk index is its stream's spawn key and follows the seed rule: the
    # last one must fit in 64 bits too
    seq = SequenceSpec(Uniform(1.0), 4)
    with pytest.raises(ConfigError, match="last chunk index"):
        simulate(seq, 1.0, 2000, first_chunk=2**64)
    with pytest.raises(ConfigError, match="last chunk index"):
        simulate(seq, 1.0, CHUNK_SIZE + 1, first_chunk=2**64 - 1)
    last = simulate(seq, 1.0, 2000, first_chunk=2**64 - 1)[0]
    assert last.records[0][1] == 2**64 - 1


def test_seeds_from_2_63_up_key_their_own_streams():
    # every seed up to 2^64 - 1 seeds a stream of its own: none is rounded
    # through a double (2^63 and 2^63 + 1 would share one stream) or
    # wrapped round onto a small one (2^64 - 2 and 2^64 - 1 onto 0)
    seq = SequenceSpec(Uniform(1.0), 8)
    seeds = (0, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
    p_hats = [simulate(seq, 1.0, 2000, seed=s, method="tilted")[0].p_hat for s in seeds]
    assert len(set(p_hats)) == len(seeds)


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
@pytest.mark.parametrize("chunk", [0, 2**64 - 1])
def test_a_chunk_draws_from_sfc64_seeded_by_its_spawn_key(monkeypatch, seed, chunk):
    # since stream version 3: chunk c of seed s is SFC64(SeedSequence(s, spawn_key=(c,)))
    columns = []
    sample = Uniform.sample

    def spy(self, rng, size=None):
        col = sample(self, rng, size)
        columns.append(col.copy())  # the kernel works the column in place
        return col

    monkeypatch.setattr(Uniform, "sample", spy)
    simulate(SequenceSpec(Uniform(1.0), 3), 1.0, 1000, seed=seed, first_chunk=chunk)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(chunk,))))
    assert len(columns) == 3
    for col in columns:
        assert np.array_equal(col, rng.uniform(-1.0, 1.0, 1000))


# ---------------------------------------------------------------------------
# statistical quality
# ---------------------------------------------------------------------------

def test_tilted_unbiased_over_seeds():
    # pooled tilted mean within 4 pooled stderr of the exact DP value
    for n, x in ((16, 1.0), (64, 2.0)):
        seq = SequenceSpec(Rademacher(1.0), n)
        exact = lattice_dp_max(n, x).p_max
        estimates = [
            simulate(seq, x, 20_000, seed=1000 + s, method="tilted")[0]
            for s in range(10)
        ]
        mean = sum(e.p_hat for e in estimates) / len(estimates)
        pooled_se = math.sqrt(sum(e.stderr**2 for e in estimates)) / len(estimates)
        assert abs(mean - exact) <= 4.0 * pooled_se, (n, x, mean, exact, pooled_se)


@pytest.mark.parametrize("nu", [3.5, 5.0])
def test_naive_student_t_agrees_with_an_independent_standard_t_run(nu):
    # the polar sampler on SFC64 chunks against numpy's standard_t on PCG64:
    # both events within 5 combined standard errors
    n, x, paths = 64, 1.5, 1 << 16
    est_max, est_sum = simulate(SequenceSpec(StudentT(nu), n), x, paths, seed=81)
    rng = np.random.Generator(np.random.PCG64(82))
    running, sq_norm, peak = np.zeros(paths), np.zeros(paths), np.full(paths, -np.inf)
    for _ in range(n):
        step = rng.standard_t(nu, paths)
        running += step
        sq_norm += step * step
        np.maximum(peak, running, out=peak)
    cut = x * np.sqrt(sq_norm)
    for est, hits in ((est_max, peak >= cut), (est_sum, running >= cut)):
        p = float(hits.mean())
        combined = math.hypot(est.stderr, math.sqrt(p * (1.0 - p) / paths))
        assert abs(est.p_hat - p) <= 5.0 * combined, (est.event, est.p_hat, p, combined)


def test_tilted_variance_reduction_deep_tail():
    seq = SequenceSpec(Rademacher(1.0), 256)
    naive = simulate(seq, 2.5, 50_000, seed=77, method="naive")[0]
    tilted = simulate(seq, 2.5, 50_000, seed=77, method="tilted")[0]
    assert tilted.stderr < naive.stderr


# ---------------------------------------------------------------------------
# the switched tilt (stream version 2)
# ---------------------------------------------------------------------------

def test_switched_tilt_matches_the_reflection_closed_form_deep_in_the_tail():
    # n = 1024, x = 5: a tilt kept on to step n had a relative stderr of 0.015
    # on the max event at 2^16 paths; switched off at the passage it is 0.006
    exact = lattice_dp_max(1024, 5.0)
    est_max, est_sum = simulate(SequenceSpec(Rademacher(1.0), 1024), 5.0, 1 << 16, seed=51,
                                method="tilted")
    assert abs(est_max.p_hat - exact.p_max) <= 4.0 * est_max.stderr
    assert abs(est_sum.p_hat - exact.p_sum) <= 4.0 * est_sum.stderr
    assert est_max.stderr < 0.008 * est_max.p_hat


@pytest.mark.parametrize("n, x", [(200, 2.5), (255, 3.0)])
def test_switched_tilt_matches_the_twopoint_dp(n, x):
    exact = twopoint_dp(n, x, 2.0, 1.0)
    est_max, est_sum = simulate(SequenceSpec(TwoPoint(2.0, 1.0), n), x, 1 << 16, seed=52,
                                method="tilted")
    assert abs(est_max.p_hat - exact.p_max) <= 4.0 * est_max.stderr
    assert abs(est_sum.p_hat - exact.p_sum) <= 4.0 * est_sum.stderr


@pytest.mark.parametrize("dist", [TwoPoint(1.0, 3.0), TwoPoint(3.0, 1.0), Rademacher(0.5)],
                         ids=["skewed_up", "skewed_down", "rademacher"])
@pytest.mark.parametrize("x", [1.0, 2.0])
def test_switched_tilt_on_iid_two_point_steps_matches_enumeration(dist, x):
    # both level updates of the word kernel (a < b and a >= b), the tilted
    # and untilted thresholds and Psi_k = k log_mgf in the weights
    seq = SequenceSpec(dist, 14)
    exact = enumerate_exact(seq, x)
    est_max, est_sum = simulate(seq, x, 200_000, seed=53, method="tilted")
    assert abs(est_max.p_hat - exact.p_max) <= 4.0 * est_max.stderr
    assert abs(est_sum.p_hat - exact.p_sum) <= 4.0 * est_sum.stderr


@pytest.mark.parametrize("dist", [TwoPoint(1e-160, 1.0), TwoPoint(1.0, 1e-160)],
                         ids=["p_plus_rounds_to_1", "p_plus_near_0"])
@pytest.mark.parametrize("x", [0.0, 1.0])
@pytest.mark.parametrize("method", ["naive", "tilted"])
def test_threshold_ends_match_enumeration(dist, x, method):
    # a step far below the rounding of a + b still moves S_k, and the
    # thresholds of masses 1 and 1e-160 neither overflow a word nor warn
    seq = SequenceSpec(dist, 5)
    exact = enumerate_exact(seq, x)
    est_max, est_sum = simulate(seq, x, 2000, seed=54, method=method)
    assert est_max.p_hat == pytest.approx(exact.p_max, abs=1e-12)
    assert est_sum.p_hat == pytest.approx(exact.p_sum, abs=1e-12)
