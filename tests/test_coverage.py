"""Monte Carlo against the exact engines over a fixed set of seeds.

Each case runs one estimate of ``P(max_k S_k >= x V_n)`` per seed in
``SEEDS`` and compares it with the exact engine's value, on laws whose
``V_n`` is random (TwoPoint) and on Rademacher. The seeds and the bounds
were fixed before any case ran:

* the sweep's 95% interval (Wilson for naive rows, p_hat +- 1.96 stderr
  for tilted ones) covers the exact value in a share of the seeds within
  3 binomial standard deviations of 0.95;
* the mean of p_hat is within 4 standard errors of the exact value, the
  standard error being the seeds' sample sd of p_hat over sqrt(len(SEEDS)).

The bias is tested on p_hat itself, not on the mean of the z-scores: with
the plug-in stderr of a naive estimate, E[z] is off zero at a few dozen
expected hits even though p_hat is unbiased.
"""

import math

import numpy as np
import pytest

from mdlab import SequenceSpec
from mdlab.distributions import Rademacher, TwoPoint
from mdlab.experiments import _Z95, _wilson_interval
from mdlab.mc import simulate
from mdlab.oracle import exact_method

SEEDS = range(10000, 10400)
COVERAGE_SD = math.sqrt(0.95 * 0.05 / len(SEEDS))

CASES = [
    pytest.param(Rademacher(), 256, 4.0, "tilted", 2000, id="rademacher_256_tilted"),
    pytest.param(Rademacher(), 64, 2.0, "tilted", 2000, id="rademacher_64_tilted"),
    pytest.param(TwoPoint(2.0, 1.0), 200, 3.0, "tilted", 2000, id="twopoint_2_1_200_tilted"),
    pytest.param(TwoPoint(1.5, 0.8), 100, 2.5, "naive", 4000, id="twopoint_1.5_0.8_100_naive"),
    pytest.param(TwoPoint(1.5, 0.8), 100, 2.5, "tilted", 1000, id="twopoint_1.5_0.8_100_tilted"),
]


def _interval(est, method, samples):
    if method == "naive":
        return _wilson_interval(est.p_hat, samples)
    return est.p_hat - _Z95 * est.stderr, est.p_hat + _Z95 * est.stderr


@pytest.mark.parametrize("dist, n, x, method, samples", CASES)
def test_monte_carlo_covers_the_exact_value(dist, n, x, method, samples):
    seq = SequenceSpec(dist, n)
    exact = exact_method(seq)(x).p_max
    p_hats, covered = [], 0
    for seed in SEEDS:
        est, _ = simulate(seq, x, samples, seed=seed, method=method)
        lo, hi = _interval(est, method, samples)
        covered += lo <= exact <= hi
        p_hats.append(est.p_hat)
    coverage = covered / len(SEEDS)
    assert abs(coverage - 0.95) <= 3 * COVERAGE_SD, (coverage, exact)
    mean_se = np.std(p_hats, ddof=1) / math.sqrt(len(SEEDS))
    assert abs(np.mean(p_hats) - exact) <= 4 * mean_se, (np.mean(p_hats), exact, mean_se)
