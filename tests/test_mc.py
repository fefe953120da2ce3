"""Monte Carlo engine: determinism, merging, importance sampling."""

import dataclasses
import hashlib
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from mdlab import CenteredExponential, Rademacher, SequenceSpec, StudentT, TwoPoint, Uniform, oracle
from mdlab.distributions import _TwoPointLaw
from mdlab.errors import BudgetExceededError, ConfigError, InfeasibleError, TiltUnsupportedError
from mdlab.mc import (CHUNK_SIZE, PATH_STEP_BUDGET, STREAM_VERSION, _check_path_steps, _run_chunk,
                      _schedule_digest, _switched_tilt, choose_tilt, merge, simulate)
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
        (SequenceSpec(Uniform(1.0), 50, scales=np.random.default_rng(123).uniform(0.8, 1.25, 50)),
         1.5, 31, "0x1.70c5510128c09p-2",
         ["0x1.deea29610392ap-4", "0x1.fc13909e174e6p-12",
          "0x1.13deedd2c3d68p-4", "0x1.8a60a790b092cp-12"]),
    ],
    ids=["twopoint_iid", "uniform_schedule"],
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
    assert est.quantity[-1] == STREAM_VERSION == 7
    # the same law, n, x and schedule drawn by the version-1 to -5 streams
    for version in (1, 2, 3, 4, 5):
        older = dataclasses.replace(est, quantity=est.quantity[:-1] + (version,),
                                    records=tuple((2,) + r[1:] for r in est.records))
        with pytest.raises(ConfigError, match="quantity"):
            merge(est, older)


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_an_iid_schedule_hashes_as_its_unit_scales(n):
    # hashed block by block, the digest is still that of n float64 ones
    want = hashlib.sha256(np.ones(n).tobytes()).hexdigest()
    assert _schedule_digest(SequenceSpec(Uniform(1.0), n)) == want
    assert _schedule_digest(SequenceSpec(Uniform(1.0), n, scales=np.ones(n))) == want


def test_merge_refuses_estimates_on_different_scale_schedules():
    # one law, n and x on two schedules: p_hat 0.2595 on unit scales and
    # 0.246 on scales 1..8 are not one quantity, and do not pool
    dist = Uniform(1.0)
    ones = simulate(SequenceSpec(dist, 8, scales=np.ones(8)), 1.0, 2000, seed=1)
    ramp = simulate(SequenceSpec(dist, 8, scales=np.arange(1.0, 9.0)), 1.0, 2000, seed=2)
    for a, b in zip(ones, ramp):
        with pytest.raises(ConfigError, match="quantity"):
            merge(a, b)
    # unit scales are the iid schedule
    iid = simulate(SequenceSpec(dist, 8), 1.0, 2000, seed=2)
    assert merge(ones[0], iid[0]).n_samples == 4000


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
    assert dist.tilted_mean(theta) == pytest.approx(0.3, abs=1e-10)
    assert theta > 0.0


def _newton_steps(monkeypatch, seq, x):
    """``(theta, Newton steps)`` of one tilt solve: each step reads the
    slope, one ``tilted_variance`` per distinct scale."""
    calls = []
    law = type(seq.dist)
    variance = law.tilted_variance
    monkeypatch.setattr(law, "tilted_variance",
                        lambda self, t: calls.append(t) or variance(self, t))
    theta = choose_tilt(seq, x)
    monkeypatch.setattr(law, "tilted_variance", variance)
    return theta, len(calls) // (1 if seq.is_iid else seq.n)


def _exact_tilt(seq, x, start):
    """The root of ``sum_j s_j tilted_mean(theta s_j) = x B_n`` to 50 digits,
    for Uniform and two-point laws, polished from ``start``."""
    dist = seq.dist
    with mp.workdps(50):
        scales = [mp.mpf(1)] if seq.is_iid else [mp.mpf(s) for s in seq.scales.tolist()]
        copies = seq.n if seq.is_iid else 1
        if isinstance(dist, Uniform):
            a = mp.mpf(dist.half_width)
            var, mean = a * a / 3, lambda t: a * (mp.coth(t * a) - 1 / (t * a))
        else:
            a, b = mp.mpf(dist.a), mp.mpf(dist.b)
            var = a * b
            mean = lambda t: a * b * -mp.expm1(-t * (a + b)) / (b + a * mp.exp(-t * (a + b)))
        target = mp.mpf(x) * mp.sqrt(copies * var * mp.fsum(s * s for s in scales))
        return mp.findroot(lambda t: copies * mp.fsum(s * mean(t * s) for s in scales) - target,
                           mp.mpf(start))


_SCHEDULES = [np.exp(np.random.default_rng(1).normal(0.0, 0.5, 50)),
              np.random.default_rng(123).uniform(0.8, 1.25, 50), np.linspace(0.1, 3.0, 20)]


def test_newton_tilt_of_iid_uniform_matches_the_exact_root(monkeypatch):
    # from Cohen's Pade start; Brent's method was up to 1e-10 off here, and
    # refused n = 1e9, where the closed form of the Langevin function cancels
    for dist in (Uniform(1.0), Uniform(2.5)):
        for n in (4, 16, 100, 10**4, 10**6, 10**9, 10**12):
            for x in (0.5, 1.0, 1.5, 2.0, 3.0):
                seq = SequenceSpec(dist, n)
                theta, steps = _newton_steps(monkeypatch, seq, x)
                exact = _exact_tilt(seq, x, theta)
                assert abs(theta - exact) <= 1e-15 * exact, (dist, n, x, theta, exact)
                assert steps <= 8, (dist, n, x, steps)


@pytest.mark.parametrize("dist", [Uniform(1.0), TwoPoint(2.0, 1.0), TwoPoint(1.0, 3.0),
                                  TwoPoint(100.0, 1.0)],
                         ids=["uniform", "twopoint", "skewed_down", "skewed_up"])
@pytest.mark.parametrize("schedule", range(len(_SCHEDULES)))
def test_newton_tilt_on_a_schedule_matches_the_exact_root(monkeypatch, dist, schedule):
    # from theta = 0, at targets up to 0.9 of the hull. The two-point tilted
    # mean (a wa - b wb) / (wa + wb) cancels near theta = 0 on TwoPoint(2, 1),
    # so that its drift at x = 0.5 is a few ulps off and the root with it, by
    # up to 1.3e-15 (Brent's method: 2.6e-15); every other root is within 1e-15
    scales = _SCHEDULES[schedule]
    seq = SequenceSpec(dist, len(scales), scales=scales)
    hull_x = dist.support_max() * float(np.sum(scales)) / math.sqrt(seq.variance_sum())
    for x in (x for x in (0.5, 1.5, 3.0) if x < 0.9 * hull_x):
        theta, steps = _newton_steps(monkeypatch, seq, x)
        exact = _exact_tilt(seq, x, theta)
        tol = 1.5e-15 if dist == TwoPoint(2.0, 1.0) and x == 0.5 else 1e-15
        assert abs(theta - exact) <= tol * exact, (x, theta, exact)
        assert steps <= 10, (x, steps)


@pytest.mark.parametrize("dist, schedule", [(Uniform(1.0), False), (Uniform(1.0), True),
                                            (TwoPoint(2.0, 1.0), True), (TwoPoint(1.0, 2.0), True)],
                         ids=["uniform_iid", "uniform", "twopoint", "skewed_down"])
def test_newton_tilt_answers_next_to_the_hull(monkeypatch, dist, schedule):
    # Brent's method refused Uniform from 1e-9 below the hull on ("failed to
    # bracket"); every target below it now has a tilt that passes the 1e-10
    # residual check. Cohen's start puts iid Uniform within 3 steps of it
    scales = np.exp(np.random.default_rng(3).normal(0.0, 0.5, 30)) if schedule else None
    seq = SequenceSpec(dist, 30, scales=scales)
    hull_x = dist.support_max() * float(np.sum(seq.scale_array())) / math.sqrt(seq.variance_sum())
    thetas = []
    for gap in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 0.0):
        x = math.nextafter(hull_x, 0.0) if gap == 0.0 else hull_x * (1.0 - gap)
        theta, steps = _newton_steps(monkeypatch, seq, x)
        assert steps <= (60 if schedule else 3), (gap, steps)
        thetas.append(theta)
        for est in simulate(seq, x, 1000, method="tilted"):
            assert math.isfinite(est.p_hat) and math.isfinite(est.stderr)
    assert all(0.0 < a < b < math.inf for a, b in zip(thetas, thetas[1:]))


def test_choose_tilt_scaled_schedule_total_drift():
    rng = np.random.default_rng(0)
    scales = rng.uniform(0.5, 2.0, 50)
    seq = SequenceSpec(Uniform(1.0), 50, scales=scales)
    x = 1.2
    theta = choose_tilt(seq, x)
    total = math.fsum(s * seq.dist.tilted_mean(theta * s) for s in scales)
    assert total == pytest.approx(x * math.sqrt(seq.variance_sum()), abs=1e-9)


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


def test_path_step_budget():
    _check_path_steps(2**24, 1024)  # 2^34 path-steps: within the budget
    with pytest.raises(BudgetExceededError, match="budget"):
        _check_path_steps(2**24, 1025)
    # refused before an n-sized array of scales or log-MGF sums is built
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


def test_a_schedule_builds_its_thresholds_once_per_run(monkeypatch):
    # the tilted word of every step and the untilted one are built with the
    # switched tilt, not again by every chunk
    calls = []
    up_threshold = _TwoPointLaw.up_threshold

    def spy(self, theta):
        calls.append(theta)
        return up_threshold(self, theta)

    monkeypatch.setattr(_TwoPointLaw, "up_threshold", spy)
    seq = SequenceSpec(TwoPoint(2.0, 1.0), 8, scales=np.linspace(0.5, 2.0, 8))
    counts = []
    for n_samples in (2000, 3 * CHUNK_SIZE):
        calls.clear()
        simulate(seq, 1.5, n_samples, seed=3, method="tilted")
        counts.append(len(calls))
    assert counts == [9, 9]


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


def test_tilted_weights_on_scaled_schedule():
    # unbiasedness sanity on a non-iid schedule vs enumeration
    rng = np.random.default_rng(123)
    scales = rng.uniform(0.8, 1.25, 10)
    seq = SequenceSpec(Rademacher(1.0), 10, scales=scales)
    exact = enumerate_exact(seq, 1.5)
    est_max, _ = simulate(seq, 1.5, 200_000, seed=31, method="tilted")
    assert abs(est_max.p_hat - exact.p_max) <= 4.0 * est_max.stderr


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


@pytest.mark.parametrize("x", [1.5, 2.5])
def test_switched_tilt_on_a_twopoint_schedule_matches_enumeration(x):
    # per-step tilts theta * s_j, thresholds that change every step, and the
    # prefix sums of log E exp(theta s_j X) in the weights
    scales = np.random.default_rng(7).uniform(0.5, 2.0, 14)
    seq = SequenceSpec(TwoPoint(2.0, 1.0), 14, scales=scales)
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
