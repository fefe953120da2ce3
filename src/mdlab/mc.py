"""Reproducible Monte Carlo estimation of the max- and sum-event tails.

Paths are generated in fixed-size chunks of ``CHUNK_SIZE`` (2^16), each
chunk owning a counter-based Philox stream keyed by ``(seed, chunk
index)`` and drawing one increment column per step. Because a chunk's
content depends only on that key, estimates are byte-identical for a
fixed seed no matter how many workers run the chunks, and a run may be
split across processes by chunk index and merged back exactly.

Estimates carry their per-chunk sufficient statistics, so
:func:`merge` is exact: records are re-sorted by (seed, chunk) and the
moments re-reduced with ``math.fsum``, making merging associative,
commutative, and reproducible to the bit.

Importance sampling uses the exponentially tilted increment law whose
drift matches ``x * B_n / n`` per step; paths are reweighted by
``exp(-theta * S_n + sum_j log_mgf_j)``, which keeps both event
estimators unbiased (the max event contains the sum event, so a tilt
targeting the terminal sum covers both).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize

from .distributions import Rademacher
from .errors import ConfigError, InfeasibleError, TiltUnsupportedError, check_finite
from .theory import SequenceSpec

__all__ = [
    "CHUNK_SIZE",
    "DEFAULT_SEED",
    "TailEstimate",
    "TiltPlan",
    "choose_tilt",
    "simulate",
    "merge",
]

CHUNK_SIZE = 1 << 16
# fixed, documented default so unseeded runs stay deterministic
DEFAULT_SEED = 715517
_MAX_UINT64 = (1 << 64) - 1
_DRIFT_TOL = 1e-10

# one chunk's sufficient statistics: (seed, chunk_index, n_paths, sum_w, sum_w2)
ChunkRecord = tuple[int, int, int, float, float]


@dataclass(frozen=True)
class TailEstimate:
    """Tail probability estimate with exact merge support.

    ``records`` holds per-chunk sums of ``w * indicator`` and its square;
    ``p_hat`` and ``stderr`` are always recomputed from them, so equal
    record sets give bit-equal estimates.
    """

    p_hat: float
    stderr: float
    n_samples: int
    method: str  # "naive" | "tilted"
    seed: int
    event: str  # "max" | "sum"
    dist_label: str
    n: int
    x: float
    records: tuple[ChunkRecord, ...]

    def as_dict(self) -> dict:
        return {
            "p_hat": self.p_hat,
            "stderr": self.stderr,
            "n_samples": self.n_samples,
            "method": self.method,
            "seed": self.seed,
            "event": self.event,
        }


def _estimate_from_records(
    records: tuple[ChunkRecord, ...],
    method: str,
    event: str,
    dist_label: str,
    n: int,
    x: float,
) -> TailEstimate:
    records = tuple(sorted(records))
    seed = records[0][0]  # order-independent provenance for merged runs
    total = sum(r[2] for r in records)
    sum_w = math.fsum(r[3] for r in records)
    sum_w2 = math.fsum(r[4] for r in records)
    p_hat = sum_w / total
    if method == "naive":
        stderr = math.sqrt(max(0.0, p_hat * (1.0 - p_hat)) / total)
    else:  # simulate draws at least 1000 paths, so total > 1
        var = max(0.0, sum_w2 - total * p_hat * p_hat) / (total - 1)
        stderr = math.sqrt(var / total)
    return TailEstimate(
        p_hat, stderr, total, method, seed, event, dist_label, n, x, records
    )


@dataclass(frozen=True)
class TiltPlan:
    """Tilt parameter solving mean drift = x * B_n / n per step, and the
    path weights' normalizer ``sum_j log E exp(theta s_j X)``."""

    theta: float
    log_mgf_total: float
    target_drift: float


def _step_sum(seq: SequenceSpec, f) -> float:
    """``sum_j f(s_j)`` over the scale schedule; ``n * f(1.0)`` when iid,
    which keeps the tilt solve O(1) per evaluation at any n."""
    if seq.is_iid:
        return seq.n * f(1.0)
    return math.fsum(f(s) for s in seq.scales)


def choose_tilt(seq: SequenceSpec, x: float) -> TiltPlan:
    """Solve ``sum_j tilted_mean_j(theta) = x * B_n`` for theta >= 0.

    Rademacher has the closed form ``theta = atanh(x / sqrt(n)) / c``;
    other bounded families use monotone root finding, refined until the
    drift equation holds to 1e-10. Families without bounded support raise
    :class:`TiltUnsupportedError`.
    """
    check_finite("x", x, 0.0)
    dist = seq.dist
    if not dist.bounded_support:
        raise TiltUnsupportedError(
            f"{type(dist).__name__} has unbounded support; use method='naive'"
        )
    bn = math.sqrt(seq.variance_sum())
    if x > bn:
        raise ConfigError(f"x={x} exceeds B_n={bn}; tilt target out of range")
    total_target = x * bn

    # supremum of the total achievable drift
    hull = float(np.sum(seq.scale_array())) * dist.support_max()
    if total_target >= hull:
        raise InfeasibleError(
            f"target drift {total_target:.6g} is outside the open support "
            f"hull ({hull:.6g})"
        )

    def total_drift(t: float) -> float:
        return _step_sum(seq, lambda s: s * dist.tilted_mean(t * s))

    if x == 0.0 or total_drift(0.0) >= total_target:  # a target within the rounding of no tilt
        theta = 0.0
    elif seq.is_iid and isinstance(dist, Rademacher):
        theta = math.atanh(x / math.sqrt(seq.n)) / dist.scale
    else:
        hi = 1.0
        while total_drift(hi) < total_target:
            hi *= 2.0
            if hi > 1e8:
                raise InfeasibleError("tilt root finding failed to bracket")
        theta = float(
            optimize.brentq(
                lambda t: total_drift(t) - total_target, 0.0, hi, xtol=1e-15, rtol=8.9e-16
            )
        )

    achieved = total_drift(theta)
    if not abs(achieved - total_target) <= _DRIFT_TOL * max(1.0, abs(total_target)):
        raise InfeasibleError(
            f"tilt solve residual {abs(achieved - total_target):.3g} "
            "exceeds 1e-10"
        )
    return TiltPlan(
        theta=theta,
        log_mgf_total=_step_sum(seq, lambda s: dist.log_mgf(theta * s)),
        target_drift=total_target / seq.n,
    )


def _chunk_layout(n_samples: int, first_chunk: int) -> list[tuple[int, int]]:
    """(chunk_index, n_paths) pairs; all full chunks except possibly the last."""
    return [
        (first_chunk + i, min(CHUNK_SIZE, n_samples - start))
        for i, start in enumerate(range(0, n_samples, CHUNK_SIZE))
    ]


def _run_chunk(
    seq: SequenceSpec,
    x: float,
    seed: int,
    chunk_index: int,
    n_paths: int,
    plan: Optional[TiltPlan],
) -> tuple[ChunkRecord, ChunkRecord]:
    rng = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
    dist = seq.dist
    running = np.zeros(n_paths)
    sq_norm = np.zeros(n_paths)
    peak = np.full(n_paths, -np.inf)
    for s in seq.scale_array().tolist():
        if plan is None:
            col = dist.sample(rng, n_paths)
        else:
            col = dist.tilted_sample(plan.theta * s, rng, n_paths)
        col = s * np.asarray(col, dtype=float)
        running += col
        sq_norm += col * col
        np.maximum(peak, running, out=peak)
    with np.errstate(over="ignore"):  # a huge x gives an inf barrier: no hit
        barrier = x * np.sqrt(sq_norm)
    ind_max = peak >= barrier
    ind_sum = running >= barrier
    weights = 1.0 if plan is None else np.exp(-plan.theta * running + plan.log_mgf_total)
    w_max = weights * ind_max
    w_sum = weights * ind_sum
    rec_max = (seed, chunk_index, n_paths, float(w_max.sum()), float((w_max * w_max).sum()))
    rec_sum = (seed, chunk_index, n_paths, float(w_sum.sum()), float((w_sum * w_sum).sum()))
    return rec_max, rec_sum


def simulate(
    seq: SequenceSpec,
    x: float,
    n_samples: int,
    seed: int = DEFAULT_SEED,
    method: str = "naive",
    workers: int = 1,
    first_chunk: int = 0,
) -> tuple[TailEstimate, TailEstimate]:
    """Estimate P(max_k S_k >= x V_n) and P(S_n >= x V_n) on shared paths.

    One pass per path tracks the running maximum, the terminal sum, and
    the accumulated ``V_n^2``, so the per-path sum indicator never exceeds
    the max indicator. Output is bit-identical for fixed
    ``(seed, n_samples, first_chunk)`` regardless of ``workers``.
    """
    if n_samples < 1000:
        raise ConfigError(f"n_samples must be >= 1000, got {n_samples}")
    check_finite("x", x, 0.0)
    if not (0 <= seed <= _MAX_UINT64):
        raise ConfigError(f"seed must fit in 64 bits, got {seed}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if first_chunk < 0:
        raise ConfigError(f"first_chunk must be >= 0, got {first_chunk}")
    if method not in ("naive", "tilted"):
        raise ConfigError(f"method must be 'naive' or 'tilted', got {method!r}")

    plan = choose_tilt(seq, x) if method == "tilted" else None
    # map yields in submission order, so the records never depend on workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda chunk: _run_chunk(seq, x, seed, *chunk, plan),
                                _chunk_layout(n_samples, first_chunk)))

    label = json.dumps(seq.dist.literal(), sort_keys=True)
    est_max = _estimate_from_records(
        tuple(r[0] for r in results), method, "max", label, seq.n, x
    )
    est_sum = _estimate_from_records(
        tuple(r[1] for r in results), method, "sum", label, seq.n, x
    )
    return est_max, est_sum


def merge(a: TailEstimate, b: TailEstimate) -> TailEstimate:
    """Pool two estimates of the same quantity.

    Associative and commutative: the union of chunk records is re-sorted
    and re-reduced exactly. Seeds may differ (pooling independent runs);
    duplicate (seed, chunk) records are rejected.
    """
    mismatched = [
        name
        for name, va, vb in (
            ("method", a.method, b.method),
            ("event", a.event, b.event),
            ("dist", a.dist_label, b.dist_label),
            ("n", a.n, b.n),
            ("x", a.x, b.x),
        )
        if va != vb
    ]
    if mismatched:
        raise ConfigError(f"cannot merge estimates differing in {mismatched}")
    combined = a.records + b.records
    keys = [(r[0], r[1]) for r in combined]
    if len(set(keys)) != len(keys):
        raise ConfigError("cannot merge estimates sharing a (seed, chunk) record")
    return _estimate_from_records(combined, a.method, a.event, a.dist_label, a.n, a.x)
