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

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import Rademacher
from .errors import ConfigError, InfeasibleError, check_finite
from .theory import SequenceSpec, _tie_cut, _tie_unit

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


def _check_seed(seed: int, name: str = "seed") -> None:
    """The one seed rule: a Philox key word, an unsigned 64-bit integer."""
    if not 0 <= seed <= _MAX_UINT64:
        raise ConfigError(f"{name} must be an unsigned 64-bit integer, got {seed}")


@dataclass(frozen=True)
class TailEstimate:
    """Tail probability estimate with exact merge support.

    ``quantity`` names what is estimated: the law literal, ``n``, ``x``
    and the sha256 of the scale schedule. ``records`` holds per-chunk sums
    of ``w * indicator`` and its square, sorted by (seed, chunk); every
    reported number is computed from them, so equal record sets give
    bit-equal estimates.
    """

    method: str  # "naive" | "tilted"
    event: str  # "max" | "sum"
    quantity: tuple[str, int, float, str]
    records: tuple[ChunkRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(sorted(self.records)))

    @property
    def seed(self) -> int:
        return self.records[0][0]  # order-independent provenance for merged runs

    @property
    def n_samples(self) -> int:
        return sum(r[2] for r in self.records)

    @property
    def p_hat(self) -> float:
        return math.fsum(r[3] for r in self.records) / self.n_samples

    @property
    def stderr(self) -> float:
        total, p_hat = self.n_samples, self.p_hat
        if self.method == "naive":
            return math.sqrt(max(0.0, p_hat * (1.0 - p_hat)) / total)
        # simulate draws at least 1000 paths, so total > 1
        sum_w2 = math.fsum(r[4] for r in self.records)
        return math.sqrt(max(0.0, sum_w2 - total * p_hat * p_hat) / (total - 1) / total)

    def as_dict(self) -> dict:
        keys = ("p_hat", "stderr", "n_samples", "method", "seed", "event")
        return {key: getattr(self, key) for key in keys}


@dataclass(frozen=True)
class TiltPlan:
    """Tilt parameter solving mean drift = x * B_n / n per step, and the
    path weights' normalizer ``sum_j log E exp(theta s_j X)``."""

    theta: float
    log_mgf_total: float


def _step_sum(seq: SequenceSpec, f) -> float:
    """``sum_j f(s_j)`` over the scale schedule; ``n * f(1.0)`` when iid,
    which keeps the tilt solve O(1) per evaluation at any n."""
    if seq.is_iid:
        return seq.n * f(1.0)
    return math.fsum(f(s) for s in seq.scales)


def choose_tilt(seq: SequenceSpec, x: float) -> TiltPlan:
    """Solve ``sum_j tilted_mean_j(theta) = x * B_n`` for theta >= 0.

    Rademacher has the closed form ``theta = atanh(x / sqrt(n)) / c``;
    other tiltable laws use Brent's method (``scipy.optimize.brentq``),
    refined until the drift equation holds to 1e-10. ``scipy.optimize``
    is imported on the first such solve, so runs that never root-find do
    not pay for loading it. A target outside the support hull
    raises :class:`InfeasibleError`; a law that does not implement the
    tilt methods raises :class:`TiltUnsupportedError` from them.
    """
    check_finite("x", x, 0.0)
    dist = seq.dist
    total_target = x * math.sqrt(seq.variance_sum())

    # supremum of the total achievable drift
    hull = _step_sum(seq, lambda s: s) * dist.support_max()
    if total_target >= hull:
        raise InfeasibleError(
            f"target drift {total_target:.6g} is outside the open support "
            f"hull ({hull:.6g})"
        )

    def total_drift(t: float) -> float:
        return _step_sum(seq, lambda s: s * dist.tilted_mean(t * s))

    if x == 0.0 or total_drift(0.0) >= total_target:  # a target within the rounding of no tilt
        theta = 0.0
    elif seq.is_iid and isinstance(dist, Rademacher) and x < math.sqrt(seq.n):
        theta = math.atanh(x / math.sqrt(seq.n)) / dist.scale
    else:
        from scipy import optimize

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
    unit: float,
) -> tuple[ChunkRecord, ChunkRecord]:
    # a list holding an int >= 2^63 would become float64 and lose the low bits
    key = np.array([seed, chunk_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
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
        cut = _tie_cut(x * np.sqrt(sq_norm), unit)
    weights = 1.0 if plan is None else np.exp(-plan.theta * running + plan.log_mgf_total)
    w_max, w_sum = weights * (peak >= cut), weights * (running >= cut)
    return tuple((seed, chunk_index, n_paths, float(w.sum()), float((w * w).sum()))
                 for w in (w_max, w_sum))


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
    _check_seed(seed)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if first_chunk < 0:
        raise ConfigError(f"first_chunk must be >= 0, got {first_chunk}")
    if method not in ("naive", "tilted"):
        raise ConfigError(f"method must be 'naive' or 'tilted', got {method!r}")

    plan = choose_tilt(seq, x) if method == "tilted" else None
    unit = _tie_unit(seq)
    # map yields in submission order, so the records never depend on workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda chunk: _run_chunk(seq, x, seed, *chunk, plan, unit),
                                _chunk_layout(n_samples, first_chunk)))

    quantity = (json.dumps(seq.dist.literal(), sort_keys=True), seq.n, x,
                hashlib.sha256(seq.scale_array().tobytes()).hexdigest())
    return tuple(TailEstimate(method, event, quantity, tuple(r[i] for r in results))
                 for i, event in enumerate(("max", "sum")))


def merge(a: TailEstimate, b: TailEstimate) -> TailEstimate:
    """Pool two estimates of the same method, event and quantity (law,
    ``n``, ``x`` and scale schedule).

    Associative and commutative: the union of chunk records is re-sorted
    and re-reduced exactly. Seeds may differ (pooling independent runs);
    duplicate (seed, chunk) records are rejected.
    """
    if (a.method, a.event, a.quantity) != (b.method, b.event, b.quantity):
        raise ConfigError(
            "cannot merge estimates of different (method, event, quantity): "
            f"{(a.method, a.event, a.quantity)} and {(b.method, b.event, b.quantity)}"
        )
    combined = a.records + b.records
    keys = [(r[0], r[1]) for r in combined]
    if len(set(keys)) != len(keys):
        raise ConfigError("cannot merge estimates sharing a (seed, chunk) record")
    return TailEstimate(a.method, a.event, a.quantity, combined)
