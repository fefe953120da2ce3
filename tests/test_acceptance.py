"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every tolerance is pinned here; nothing is calibrated at run
time.
"""

import math
import time

import numpy as np
import pytest

from mdlab import (
    CenteredExponential,
    Rademacher,
    SequenceSpec,
    TwoPoint,
    Uniform,
    compute_quantities,
    build_blocks,
    normal_tail,
)
from mdlab.experiments import SweepConfig, run_sweep
from mdlab.mc import simulate
from mdlab.oracle import enumerate_exact, lattice_dp_max, twopoint_dp

GRID = (256, 1024, 4096, 16384)
X_STAR = 1.5


def _report(num: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[PASS] criterion {num}: {name}{suffix}")


@pytest.fixture(scope="module")
def dp_grid():
    """Exact DP results for the shared grid, plus the single-thread runtime."""
    start = time.perf_counter()
    results = {n: lattice_dp_max(n, X_STAR) for n in GRID}
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_max_ratio_to_two(dp_grid):
    """|ratio_max - 2| decreases along the grid and is <= 0.05 at n=16384,
    within 60 s single-threaded."""
    results, elapsed = dp_grid
    tail = normal_tail(X_STAR)
    errors = [abs(results[n].p_max / tail - 2.0) for n in GRID]
    assert all(b < a for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] <= 0.05
    assert 1.95 <= results[16384].p_max / tail <= 2.05
    assert elapsed <= 60.0
    _report(1, "max-event ratio converges to 2",
            f"errors={['%.2e' % e for e in errors]}, runtime={elapsed:.1f}s")


def test_criterion_2_sum_ratio_to_one(dp_grid):
    """|ratio_sum - 1| <= 0.05 at n=16384, x=1.5."""
    results, _ = dp_grid
    tail = normal_tail(X_STAR)
    ratio = results[16384].p_sum / tail
    err = abs(ratio - 1.0)
    assert err <= 0.05
    assert 0.97 <= ratio <= 1.03
    _report(2, "sum-event ratio converges to 1", f"|ratio-1|={err:.4f}")


def test_criterion_3_oracle_cross_validation():
    """Enumeration and lattice DP agree to 1e-12 on every Rademacher
    instance n <= 20, x in {0.5, 1, 1.5}; enumeration and the TwoPoint DP
    agree to 1e-13 relative on TwoPoint(2, 1) and TwoPoint(1.5, 0.8) over
    the same grid (at x = 1, TwoPoint(2, 1) paths end exactly on the
    barrier whenever n + 3m is a square); enumeration matches naive MC on
    TwoPoint(2, 1), n=12, within 4 stderr at 1e6 samples."""
    worst = 0.0
    for n in range(1, 21):
        seq = SequenceSpec(Rademacher(1.0), n)
        for x in (0.5, 1.0, 1.5):
            enum = enumerate_exact(seq, x)
            dp = lattice_dp_max(n, x)
            worst = max(worst, abs(enum.p_max - dp.p_max), abs(enum.p_sum - dp.p_sum))
    assert worst <= 1e-12

    worst_tp = 0.0
    for a, b in ((2.0, 1.0), (1.5, 0.8)):
        for n in range(1, 21):
            seq = SequenceSpec(TwoPoint(a, b), n)
            for x in (0.5, 1.0, 1.5):
                enum = enumerate_exact(seq, x)
                dp = twopoint_dp(n, x, a, b)
                for got, want in ((dp.p_max, enum.p_max), (dp.p_sum, enum.p_sum)):
                    assert abs(got - want) <= 1e-13 * want, (a, b, n, x)
                    worst_tp = max(worst_tp, abs(got - want) / want if want else 0.0)

    seq = SequenceSpec(TwoPoint(2.0, 1.0), 12)
    exact = enumerate_exact(seq, 1.0)
    est_max, est_sum = simulate(seq, 1.0, 1_000_000, seed=2024, method="naive")
    z_max = abs(est_max.p_hat - exact.p_max) / est_max.stderr
    z_sum = abs(est_sum.p_hat - exact.p_sum) / est_sum.stderr
    assert z_max <= 4.0 and z_sum <= 4.0
    _report(3, "oracle cross-validation",
            f"max |enum-dp|={worst:.2e}, TwoPoint max rel={worst_tp:.2e}, "
            f"MC z-scores=({z_max:.2f}, {z_sum:.2f})")


def test_criterion_4_importance_sampling():
    """Pooled tilted mean (20 seeds x 1e5 samples, n=64, x=2) within 4
    pooled stderr of the DP value; tilted stderr beats naive at x=2.5,
    n=256, equal samples."""
    seq = SequenceSpec(Rademacher(1.0), 64)
    exact = lattice_dp_max(64, 2.0).p_max
    estimates = [
        simulate(seq, 2.0, 100_000, seed=5000 + s, method="tilted")[0]
        for s in range(20)
    ]
    pooled_mean = sum(e.p_hat for e in estimates) / 20.0
    pooled_se = math.sqrt(sum(e.stderr**2 for e in estimates)) / 20.0
    z = abs(pooled_mean - exact) / pooled_se
    assert z <= 4.0

    deep = SequenceSpec(Rademacher(1.0), 256)
    naive = simulate(deep, 2.5, 100_000, seed=61, method="naive")[0]
    tilted = simulate(deep, 2.5, 100_000, seed=61, method="tilted")[0]
    assert tilted.stderr < naive.stderr
    _report(4, "importance sampling is unbiased and variance-reducing",
            f"pooled z={z:.2f}, stderr ratio={naive.stderr / tilted.stderr:.2f}")


def test_criterion_5_normal_tail_sandwich():
    """x e^{-x^2/2}/(sqrt(2 pi)(1+x^2)) <= tail(x) <= e^{-x^2/2}/(sqrt(2 pi) x)
    holds exactly in floating arithmetic on 400 grid points x in [1, 40]."""
    log_sqrt_2pi = 0.5 * math.log(2.0 * math.pi)
    for x in np.linspace(1.0, 40.0, 400):
        x = float(x)
        # bounds evaluated in log space so subnormal rounding stays monotone
        lower = math.exp(-0.5 * x * x + math.log(x / (1.0 + x * x)) - log_sqrt_2pi)
        upper = math.exp(-0.5 * x * x - math.log(x) - log_sqrt_2pi)
        tail = normal_tail(x)
        assert lower <= tail <= upper, (x, lower, tail, upper)
    _report(5, "normal-tail sandwich on [1, 40]", "400/400 points")


def test_criterion_6_theory_invariants():
    """Scale invariance at 1e-12; d_{n,1} = n^{1/6} for unit moments;
    truncation-mass chain whenever both regime flags hold; block-count
    bound under the max-variance premise."""
    # scale invariance under X -> cX
    for dist in (Rademacher(1.0), TwoPoint(2.0, 1.0), Uniform(math.sqrt(3.0)),
                 CenteredExponential(1.0)):
        n, x = 256, 3.0
        base = compute_quantities(SequenceSpec(dist, n), x, 1.0, 1.0)
        for c in (1e-3, 1.0, 1e3):
            scaled = compute_quantities(
                SequenceSpec(dist, n, scales=np.full(n, c)), x, 1.0, 1.0
            )
            assert abs(scaled.delta_nx - base.delta_nx) <= 1e-12 * max(1.0, base.delta_nx)
            assert abs(scaled.dnr - base.dnr) <= 1e-12 * base.dnr
            assert abs(scaled.epsilon - base.epsilon) <= 1e-12 * base.epsilon
            assert scaled.n0 == base.n0

    # d_{n,1} = n^{1/6} on unit-moment iid
    for n in (8, 64, 512, 4096):
        q = compute_quantities(SequenceSpec(Rademacher(1.0), n), 1.0, 1.0, 1.0)
        assert abs(q.dnr - n ** (1.0 / 6.0)) <= 1e-12 * q.dnr

    # truncation-mass chain on every flagged instance
    chain_instances = 0
    for dist in (Rademacher(1.0), Uniform(math.sqrt(3.0)), CenteredExponential(1.0)):
        for log_n, x in ((22, 2.0), (24, 2.0), (24, 4.0)):
            seq = SequenceSpec(dist, 10**log_n)
            q = compute_quantities(seq, x, 1.0, 1.0)
            if not (q.a0_ok and q.bor_ok):
                continue
            level = q.epsilon * math.sqrt(q.bn2) / x
            mass = seq.tail_prob_sum(level)
            mid = q.delta_nx / q.epsilon**3
            assert mass <= mid * (1 + 1e-12) + 1e-300
            assert mid <= q.epsilon**1.5 / 16.0 * (1 + 1e-12)
            chain_instances += 1
    assert chain_instances >= 6

    # block-count bound T <= 4 x^2 / eps^3 + 1 under the premise
    eps = 1.0 / 24.0
    blocks_checked = 0
    for n, x in ((2_000_000, 2.0), (5_000_000, 3.0)):
        part = build_blocks(SequenceSpec(Rademacher(1.0), n), x, eps)
        assert part.premise_holds
        assert part.t <= 4.0 * x * x / eps**3 + 1.0
        blocks_checked += 1
    assert blocks_checked == 2
    _report(6, "theory invariants",
            f"scale-invariant, chain on {chain_instances} flagged instances")


def _repro_config(tmp_path, name, seed=4242):
    return SweepConfig.from_dict(
        {
            "dist": {"family": "rademacher", "scale": 1.0},
            "n_grid": [16, 64],
            "x_values": [1.0, 1.5],
            "engine": "mc",
            "mc_method": "naive",
            "mc_samples": 4096,
            "seed": seed,
            "output": str(tmp_path / name),
        }
    )


def test_criterion_7_reproducibility(tmp_path):
    """Byte-identical CSVs for workers in {1, 2, 8}; interrupted-and-resumed
    sweep equals the uninterrupted one byte for byte."""
    blobs = []
    for w in (1, 2, 8):
        cfg = _repro_config(tmp_path, f"workers{w}.csv")
        run_sweep(cfg, workers=w)
        blobs.append((tmp_path / f"workers{w}.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    interrupted = _repro_config(tmp_path, "interrupted.csv")
    partial = run_sweep(interrupted, stop_after_rows=2)
    assert len(partial) == 2
    resumed = run_sweep(interrupted)
    assert len(resumed) == 4
    assert (tmp_path / "interrupted.csv").read_bytes() == blobs[0]
    _report(7, "reproducibility", "3 worker counts + interrupt/resume byte-identical")


def _probe_sweep(tmp_path, family_literal, name, seed):
    cfg = SweepConfig.from_dict(
        {
            "dist": family_literal,
            "n_grid": [64, 256, 1024],
            "x_c": [0.5, 1.0],
            "x_power": 1.0 / 6.0,
            "engine": "oracle",
            "mc_method": "tilted",
            "mc_samples": 20_000,
            "seed": seed,
            "output": str(tmp_path / name),
        }
    )
    return run_sweep(cfg)


def test_criterion_8_conjecture_probe(tmp_path):
    """Probe column populated and finite on Rademacher and Uniform sweeps
    with x = c n^{1/6}, c in {0.5, 1}; across two seeds each probe moves by
    at most the sum of the CI half-widths (zero for oracle rows)."""
    checked = 0
    for literal, name in (
        ({"family": "rademacher", "scale": 1.0}, "rad"),
        ({"family": "uniform", "half_width": 1.0}, "unif"),
    ):
        rows_a = _probe_sweep(tmp_path, literal, f"{name}_a.csv", seed=9100)
        rows_b = _probe_sweep(tmp_path, literal, f"{name}_b.csv", seed=9200)
        assert len(rows_a) == len(rows_b) == 6
        for ra, rb in zip(rows_a, rows_b):
            assert (ra.n, ra.x) == (rb.n, rb.x)
            assert math.isfinite(ra.probe) and math.isfinite(rb.probe)
            # probe is an affine image of ratio_max, so CI stability of the
            # ratio is CI stability of the probe
            half_a = (ra.ci_high - ra.ci_low) / 2.0
            half_b = (rb.ci_high - rb.ci_low) / 2.0
            assert abs(ra.ratio_max - rb.ratio_max) <= half_a + half_b, (ra, rb)
            checked += 1
    assert checked == 12
    _report(8, "conjecture probe populated and seed-stable", f"{checked} row pairs")
