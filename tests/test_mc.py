"""Monte Carlo engine: determinism, merging, importance sampling."""

import math

import numpy as np
import pytest

from mdlab import CenteredExponential, Rademacher, SequenceSpec, TwoPoint, Uniform, oracle
from mdlab.errors import ConfigError, InfeasibleError, TiltUnsupportedError
from mdlab.mc import CHUNK_SIZE, choose_tilt, merge, simulate
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
        (SequenceSpec(TwoPoint(2.0, 1.0), 64), 2.0, 5, "0x1.5376ab4217185p-3",
         ["0x1.ed47d36abbc36p-6", "0x1.08ac7bff8ff8fp-12",
          "0x1.125f23c113437p-6", "0x1.ac56af5f31c35p-14"]),
        (SequenceSpec(Uniform(1.0), 50, scales=np.random.default_rng(123).uniform(0.8, 1.25, 50)),
         1.5, 31, "0x1.70c5510128c10p-2",
         ["0x1.dd5e14ecb6e1fp-4", "0x1.784a797b2933ap-11",
          "0x1.11ed6fb2b7f73p-4", "0x1.6f69a8f042e07p-12"]),
    ],
    ids=["twopoint_iid", "uniform_schedule"],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_tilted_estimates_pinned_to_the_bit(seq, x, seed, theta, pins, workers):
    # 70,000 paths: one full chunk and a partial one
    assert choose_tilt(seq, x).theta.hex() == theta
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


# ---------------------------------------------------------------------------
# tilt plans
# ---------------------------------------------------------------------------

def test_choose_tilt_zero_drift():
    plan = choose_tilt(SequenceSpec(Rademacher(1.0), 16), 0.0)
    assert plan.theta == 0.0


def test_choose_tilt_rademacher_closed_form():
    plan = choose_tilt(SequenceSpec(Rademacher(1.0), 64), 2.0)
    assert plan.theta == math.atanh(2.0 / 8.0)
    plan_scaled = choose_tilt(SequenceSpec(Rademacher(0.5), 64), 2.0)
    assert plan_scaled.theta == pytest.approx(math.atanh(2.0 / 8.0) / 0.5, rel=1e-14)


def test_choose_tilt_uniform_by_root_finding():
    dist = Uniform(math.sqrt(3.0))
    seq = SequenceSpec(dist, 100)
    x = 0.3 * math.sqrt(100)  # per-step drift target 0.3
    plan = choose_tilt(seq, x)
    assert dist.tilted_mean(plan.theta) == pytest.approx(0.3, abs=1e-10)
    assert plan.theta > 0.0


def test_choose_tilt_scaled_schedule_total_drift():
    rng = np.random.default_rng(0)
    scales = rng.uniform(0.5, 2.0, 50)
    seq = SequenceSpec(Uniform(1.0), 50, scales=scales)
    x = 1.2
    plan = choose_tilt(seq, x)
    total = math.fsum(s * seq.dist.tilted_mean(plan.theta * s) for s in scales)
    assert total == pytest.approx(x * math.sqrt(seq.variance_sum()), abs=1e-9)


def test_choose_tilt_hull_error():
    with pytest.raises(InfeasibleError):
        choose_tilt(SequenceSpec(Rademacher(1.0), 16), 4.0)  # drift = sup support


def test_choose_tilt_range_precondition():
    with pytest.raises(ConfigError):
        choose_tilt(SequenceSpec(Rademacher(1.0), 16), 4.5)  # x > B_n


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
    assert choose_tilt(SequenceSpec(TwoPoint(1e-160, 1.0), 5), 1e-300).theta == 0.0


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
