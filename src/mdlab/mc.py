"""Reproducible Monte Carlo estimation of the max- and sum-event tails.

Paths are generated in fixed-size chunks of ``CHUNK_SIZE`` (2^16), each
chunk owning an SFC64 stream seeded by ``SeedSequence(seed,
spawn_key=(chunk index,))`` and drawing one increment column per step.
Because a chunk's content depends only on ``(seed, chunk index)``,
estimates are byte-identical for a fixed seed no matter how many workers
run the chunks, and a run may be split across processes by chunk index
and merged back exactly.

Estimates carry their per-chunk sufficient statistics, so
:func:`merge` is exact: records are re-sorted by (seed, chunk) and the
moments re-reduced with ``math.fsum``, making merging associative,
commutative, and reproducible to the bit.

Importance sampling switches the tilt off at the first passage
(Siegmund's conjugate-until-passage estimator). Each path draws the
increments tilted by ``theta * s_j``, with ``theta`` from
:func:`choose_tilt`, until ``tau = min{k : S_k >= x B_n}``, and untilted
steps after it; its weight is ``exp(-theta S_{tau^n} + Psi_{tau^n})``,
where ``Psi_k = sum_{j<=k} log E exp(theta s_j X)``. Both event
estimators stay unbiased, since ``tau`` is a stopping time, and a path
that crosses the barrier and ends below it no longer carries the large
weight that a tilt kept on to the end would give it.

Two kernels draw the paths. Tilted Rademacher and TwoPoint steps are raw
64-bit words compared against an unsigned 64-bit threshold per path (the
tilted one before ``tau``, the untilted one after it), with ``S_k`` and
``V_n^2`` formed from up-counts. Every other run draws float columns
through ``sample``, or through ``tilted_sample`` with the tilt applied
only to the paths still under it. On iid steps neither kernel builds
anything of length ``n``: every step has scale 1 and one tilted threshold,
so a chunk's memory is set by its paths alone. ``STREAM_VERSION`` is part
of every estimate's ``quantity``, so estimates from different stream
layouts do not merge; version 6 solves the tilts that have no closed form
by Newton's method on the drift (see :func:`choose_tilt`), version 5 draws
Student t steps by Bailey's polar method (see
:class:`~mdlab.distributions.StudentT`), and version 4 solved the tilt of
iid two-point laws in closed form.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import STREAM_VERSION, Uniform, _TwoPointLaw
from .errors import BudgetExceededError, ConfigError, InfeasibleError, check_finite
from .theory import SequenceSpec, _tie_cut, _tie_unit

__all__ = [
    "CHUNK_SIZE",
    "DEFAULT_SEED",
    "PATH_STEP_BUDGET",
    "STREAM_VERSION",
    "TailEstimate",
    "choose_tilt",
    "simulate",
    "merge",
]

CHUNK_SIZE = 1 << 16
# fixed, documented default so unseeded runs stay deterministic
DEFAULT_SEED = 715517
# the most path-steps (n * n_samples) one run draws: minutes of kernel time
PATH_STEP_BUDGET = 1 << 34
_MAX_UINT64 = (1 << 64) - 1
_DRIFT_TOL = 1e-10
_STEP_TOL = 1e-12  # a Newton step this small, relative to theta, is near the drift's rounding
_MAX_NEWTON_STEPS = 200
_BELOW_ONE = math.nextafter(1.0, 0.0)
_HASH_BLOCK = 1 << 12  # unit scales hashed per update for an iid schedule

# one chunk's sufficient statistics: (seed, chunk_index, n_paths, sum_w, sum_w2)
ChunkRecord = tuple[int, int, int, float, float]


def _check_seed(seed: int, name: str = "seed") -> None:
    """The one seed rule, for seeds and chunk indices alike: an unsigned
    64-bit integer, which enters its chunk's ``SeedSequence`` exactly."""
    if not 0 <= seed <= _MAX_UINT64:
        raise ConfigError(f"{name} must be an unsigned 64-bit integer, got {seed}")


def _check_path_steps(n: int, n_samples: int) -> None:
    """Refuse a run of more than ``PATH_STEP_BUDGET`` path-steps, before
    anything of length ``n`` is built."""
    if n * n_samples > PATH_STEP_BUDGET:
        raise BudgetExceededError(f"{n_samples} paths of n={n} steps exceed the budget of "
                                  f"{PATH_STEP_BUDGET} Monte Carlo path-steps")


@dataclass(frozen=True)
class TailEstimate:
    """Tail probability estimate with exact merge support.

    ``quantity`` names what is estimated, and by which stream: the law
    literal, ``n``, ``x``, the sha256 of the scale schedule and the
    ``STREAM_VERSION``. ``records`` holds per-chunk sums
    of ``w * indicator`` and its square, sorted by (seed, chunk); every
    reported number is computed from them, so equal record sets give
    bit-equal estimates.
    """

    method: str  # "naive" | "tilted"
    event: str  # "max" | "sum"
    quantity: tuple[str, int, float, str, int]
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


def _step_sum(seq: SequenceSpec, f) -> float:
    """``sum_j f(s_j)`` over the scale schedule; ``n * f(1.0)`` when iid,
    which keeps the tilt solve O(1) per evaluation at any n. The scales are
    passed as Python floats, whose scalar arithmetic is several times
    cheaper than numpy's and gives the same doubles."""
    if seq.is_iid:
        return seq.n * f(1.0)
    return math.fsum(f(s) for s in seq.scales.tolist())


def _two_point_tilt(dist: _TwoPointLaw, u: float) -> float:
    """The root of ``tilted_mean(theta) = u * sqrt(a b)`` for the law on
    ``{a, -b}``: ``theta = 2 atanh(z) / (a + b)`` with ``z = m (a + b) /
    (2 a b + m (a - b))`` and ``m = u sqrt(a b)``, worked in units of the
    larger step. At ``a = b = c`` it is ``atanh(u) / c`` to the bit.

    The equal form ``(log1p(m / b) - log1p(-m / a)) / (a + b)``, with ``m /
    a`` kept below 1, is used where ``a > 3 b``, as the atanh form loses
    digits as ``a / b`` grows (2e-14 relative at ``a / b = 1e6``), and
    where ``z`` rounds to 1: near the hull, or where ``b`` is so far below
    ``m`` that ``1 - z ~ 2 b / m`` is below the rounding of 1.
    """
    top = max(dist.a, dist.b)
    a, b = dist.a / top, dist.b / top
    r = math.sqrt(a * b)
    if dist.a <= 3.0 * dist.b:
        z = u * ((r * (a + b)) / (2.0 * a * b + u * r * (a - b)))
        if z < 1.0:
            return 2.0 * math.atanh(z) / (a + b) / top
    m = u * r
    return (math.log1p(m / b) - math.log1p(-min(m / a, _BELOW_ONE))) / (a + b) / top


def _newton_tilt(seq: SequenceSpec, total_drift, target: float, theta: float) -> float:
    """The root of the increasing ``total_drift(theta) = target`` by Newton's
    method from ``theta``, on the slope ``sum_j s_j^2 tilted_variance(theta
    s_j)``. Each drift value narrows the bracket ``[lo, hi]`` that holds the
    root, and a step that would leave it bisects it instead. A step within
    ``_STEP_TOL`` of theta that no longer shrinks, or that would leave the
    bracket, stops the iteration: the drift's rounding is reached. It stops
    too where the slope is too flat for a finite step, and after
    ``_MAX_NEWTON_STEPS``; the caller's residual check judges what it
    returns."""
    dist = seq.dist
    lo, hi, last = 0.0, math.inf, math.inf
    for _ in range(_MAX_NEWTON_STEPS):
        gap = total_drift(theta) - target
        if gap == 0.0:
            break
        if gap < 0.0:
            lo = theta
        else:
            hi = theta
        slope = _step_sum(seq, lambda s: s * s * dist.tilted_variance(theta * s))
        step = -gap / slope
        inside = lo < theta + step < hi
        if abs(step) <= _STEP_TOL * theta and (abs(step) >= last or not inside):
            break
        if not inside:
            if hi == math.inf:
                break
            step = 0.5 * (lo + hi) - theta
        last = abs(step)
        theta += step
    return theta


def choose_tilt(seq: SequenceSpec, x: float) -> float:
    """The tilt ``theta >= 0`` that solves ``sum_j s_j tilted_mean(theta
    s_j) = x * B_n``.

    Iid two-point steps (Rademacher and TwoPoint) have a closed form, see
    :func:`_two_point_tilt`; on Rademacher it is ``atanh(x / sqrt(n)) /
    c``. Every other law and schedule is solved by :func:`_newton_tilt`,
    iid Uniform from Cohen's Pade inverse of the Langevin function and the
    rest from ``theta = 0``. Either way the drift equation must hold to
    1e-10. A target outside the support hull raises
    :class:`InfeasibleError`; a law that does not implement the tilt
    methods raises :class:`TiltUnsupportedError` from them.
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
    elif seq.is_iid and isinstance(dist, _TwoPointLaw):
        theta = _two_point_tilt(dist, x / math.sqrt(seq.n))
    else:
        start = 0.0
        if seq.is_iid and isinstance(dist, Uniform):
            # Cohen's Pade inverse y (3 - y^2) / (1 - y^2) of the Langevin
            # function coth z - 1/z (Cohen 1991, Rheol. Acta 30, 270-273)
            y = total_target / hull
            start = y * (3.0 - y * y) / ((1.0 - y) * (1.0 + y)) / dist.half_width
        theta = _newton_tilt(seq, total_drift, total_target, start)

    achieved = total_drift(theta)
    if not abs(achieved - total_target) <= _DRIFT_TOL * max(1.0, abs(total_target)):
        raise InfeasibleError(
            f"tilt solve residual {abs(achieved - total_target):.3g} "
            "exceeds 1e-10"
        )
    return theta


def _chunk_layout(n_samples: int, first_chunk: int) -> list[tuple[int, int]]:
    """(chunk_index, n_paths) pairs; all full chunks except possibly the last."""
    return [
        (first_chunk + i, min(CHUNK_SIZE, n_samples - start))
        for i, start in enumerate(range(0, n_samples, CHUNK_SIZE))
    ]


@dataclass(frozen=True)
class _SwitchedTilt:
    """What a tilted run needs besides the law: the per-step tilts
    ``theta * s_j``, the prefix sums ``Psi_k`` for ``k = 0..n`` and the
    barrier ``x * B_n`` whose first passage switches a path's tilt off.
    On iid steps the tilt is ``theta`` at every step and ``Psi_k = k
    log_mgf``, so ``steps`` and ``log_mgf_prefix`` are None.

    A two-point law also carries what its kernel reads at every step, built
    once per run rather than once per chunk: the raw-word thresholds of
    :meth:`~mdlab.distributions._TwoPointLaw.up_draws`, ``untilted_word``
    and ``tilted_words`` (one per step, a single one on iid steps), and on
    a schedule ``scale_prefix``, the lists of the scales ``s_j`` and of
    their prefix sums ``P_j``."""

    theta: float
    n: int
    barrier: float
    log_mgf: float
    steps: Optional[np.ndarray]
    log_mgf_prefix: Optional[np.ndarray]
    untilted_word: Optional[np.uint64]
    tilted_words: tuple[np.uint64, ...]
    scale_prefix: Optional[tuple[list[float], list[float]]]

    def step(self, k: int) -> float:
        return self.theta if self.steps is None else self.steps[k]

    def psi(self, k: int) -> float:
        return k * self.log_mgf if self.log_mgf_prefix is None else self.log_mgf_prefix[k]


def _switched_tilt(seq: SequenceSpec, x: float) -> _SwitchedTilt:
    dist, theta = seq.dist, choose_tilt(seq, x)
    steps = log_mgf_prefix = None
    step_tilts = [theta]
    if not seq.is_iid:
        steps = theta * seq.scales
        step_tilts = steps.tolist()
        log_mgf_prefix = np.concatenate(([0.0], np.cumsum([dist.log_mgf(t) for t in step_tilts])))
    untilted_word, tilted_words, scale_prefix = None, (), None
    if isinstance(dist, _TwoPointLaw):
        untilted_word = np.uint64(dist.up_threshold(0.0))
        tilted_words = tuple(np.uint64(dist.up_threshold(t)) for t in step_tilts)
        if not seq.is_iid:
            scale_prefix = (seq.scales.tolist(), np.cumsum(seq.scales).tolist())
    return _SwitchedTilt(theta, seq.n, x * math.sqrt(seq.variance_sum()), dist.log_mgf(theta),
                         steps, log_mgf_prefix, untilted_word, tilted_words, scale_prefix)


class _Passage:
    """The paths of one chunk still under the tilt, and the log-weight
    ``-theta S_{tau^n} + Psi_{tau^n}`` of every path whose tilt is off. A
    kernel passes its running sums as levels in units of ``span``."""

    def __init__(self, tilt: _SwitchedTilt, n_paths: int, span: float):
        self.tilt, self.span = tilt, span
        self.active = np.ones(n_paths, dtype=bool)
        self.log_weight = np.empty(n_paths)
        self._barrier = tilt.barrier / span
        self._hit = np.empty(n_paths, dtype=bool)

    def _settle(self, paths, level, k):
        self.log_weight[paths] = (-self.tilt.theta * (self.span * level[paths])
                                  + self.tilt.psi(k))

    def update(self, k: int, level: np.ndarray) -> np.ndarray:
        """Switch off the paths whose level reached the barrier at step
        ``k + 1``; returns their indices."""
        np.greater_equal(level, self._barrier, out=self._hit)
        self._hit &= self.active
        hit = np.flatnonzero(self._hit)
        self.active[hit] = False
        self._settle(hit, level, k + 1)
        return hit

    def finish(self, level: np.ndarray) -> np.ndarray:
        """The log-weights, once ``level`` holds the sums after the last step."""
        self._settle(self.active, level, self.tilt.n)
        return self.log_weight


def _two_point_paths(seq: SequenceSpec, rng, n_paths: int, tilt: _SwitchedTilt):
    """(max_k S_k, S_n, V_n^2, log-weights) of tilted two-point paths.

    Step ``j`` is ``+a s_j`` when :meth:`~mdlab.distributions._TwoPointLaw.up_draws`
    says so for the path's threshold: the tilted one before ``tau``, the
    untilted one after it. With ``W_k = sum_{j<=k} s_j 1{up}`` and
    ``P_k = sum_{j<=k} s_j``, the level ``W_k - b P_k / (a + b)`` is
    ``S_k / (a + b)``, and ``V_n^2 = a^2 Q + b^2 (sum_j s_j^2 - Q)`` with
    ``Q`` the up-count weighted by ``s_j^2``. On iid steps ``W`` and ``Q``
    are the up-count itself and ``P_k = k``, so no float column is formed
    per step, and the tilted threshold is one word for every step.
    """
    dist, iid = seq.dist, seq.is_iid
    a, b, span = dist.a, dist.b, dist.a + dist.b
    count = np.zeros(n_paths)
    sq_count = count if iid else np.zeros(n_paths)
    level = np.empty(n_paths)
    peak = np.full(n_paths, -np.inf)
    passage = _Passage(tilt, n_paths, span)
    untilted, tilted = tilt.untilted_word, tilt.tilted_words
    threshold = np.full(n_paths, tilted[0])
    if iid:
        steps = ((1.0, float(k)) for k in range(1, seq.n + 1))
    else:
        steps = zip(*tilt.scale_prefix)
    for k, (s, prefix) in enumerate(steps):
        if k and not iid and tilted[k] != tilted[k - 1]:
            np.copyto(threshold, tilted[k], where=passage.active)
        up = dist.up_draws(rng, threshold, n_paths)
        if iid:
            count += up
        else:
            count += s * up
            sq_count += (s * s) * up
        # the level keeps the smaller step even when it is below the rounding
        # of a + b: W - (b / span) P when a >= b, else (W - P) + (a / span) P
        if a >= b:
            np.add(count, -(b / span) * prefix, out=level)
        else:
            np.subtract(count, prefix, out=level)
            level += (a / span) * prefix
        np.maximum(peak, level, out=peak)
        threshold[passage.update(k, level)] = untilted
    sq_sum = float(seq.n) if iid else float(np.sum(seq.scales * seq.scales))
    sq_norm = a * a * sq_count + b * b * (sq_sum - sq_count)
    return span * peak, span * level, sq_norm, passage.finish(level)


def _float_paths(seq: SequenceSpec, rng, n_paths: int, tilt: Optional[_SwitchedTilt]):
    """(max_k S_k, S_n, V_n^2, log-weights) of paths drawn as float columns;
    a tilted column takes the tilt ``theta s_j`` on the paths still under it."""
    dist = seq.dist
    running = np.zeros(n_paths)
    sq_norm = np.zeros(n_paths)
    peak = np.full(n_paths, -np.inf)
    passage = None if tilt is None else _Passage(tilt, n_paths, 1.0)
    scales = None if seq.is_iid else seq.scales.tolist()
    for k in range(seq.n):
        if passage is None:
            col = dist.sample(rng, n_paths)
        else:
            col = dist.tilted_sample(tilt.step(k), rng, n_paths, passage.active)
        # every sampler returns a fresh float column, so it is worked in
        # place; iid steps have scale 1 and skip the product
        if scales is not None:
            col *= scales[k]
        running += col
        col *= col
        sq_norm += col
        np.maximum(peak, running, out=peak)
        if passage is not None:
            passage.update(k, running)
    return peak, running, sq_norm, None if passage is None else passage.finish(running)


def _run_chunk(
    seq: SequenceSpec,
    x: float,
    seed: int,
    chunk_index: int,
    n_paths: int,
    tilt: Optional[_SwitchedTilt],
    unit: float,
) -> tuple[ChunkRecord, ChunkRecord]:
    entropy = np.random.SeedSequence(seed, spawn_key=(chunk_index,))
    rng = np.random.Generator(np.random.SFC64(entropy))
    two_point = tilt is not None and isinstance(seq.dist, _TwoPointLaw)
    paths = _two_point_paths if two_point else _float_paths
    peak, total, sq_norm, log_weight = paths(seq, rng, n_paths, tilt)
    with np.errstate(over="ignore"):  # a huge x gives an inf barrier: no hit
        cut = _tie_cut(x * np.sqrt(sq_norm), unit)
    weights = 1.0 if log_weight is None else np.exp(log_weight)
    w_max, w_sum = weights * (peak >= cut), weights * (total >= cut)
    return tuple((seed, chunk_index, n_paths, float(w.sum()), float((w * w).sum()))
                 for w in (w_max, w_sum))


def _schedule_digest(seq: SequenceSpec) -> str:
    """The sha256 of the scale schedule's float64 bytes; an iid schedule's
    ``n`` unit scales are hashed block by block, never built whole."""
    if not seq.is_iid:
        return hashlib.sha256(seq.scales.tobytes()).hexdigest()
    digest = hashlib.sha256()
    block = np.ones(min(seq.n, _HASH_BLOCK)).tobytes()
    full, rest = divmod(seq.n, _HASH_BLOCK)
    for _ in range(full):
        digest.update(block)
    digest.update(block[: rest * 8])
    return digest.hexdigest()


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
    ``V_n^2``, so the per-path sum indicator never exceeds the max
    indicator. ``method="tilted"`` draws each path under the tilt of
    :func:`choose_tilt` until it first reaches ``x * B_n`` and untilted
    after it, weighing it by ``exp(-theta S_{tau^n} + Psi_{tau^n})``; both
    events share these weights. Output is bit-identical for fixed
    ``(seed, n_samples, first_chunk)`` regardless of ``workers``; every
    chunk index must be an unsigned 64-bit integer, as the seed must. A
    run of more than ``PATH_STEP_BUDGET`` path-steps (``seq.n *
    n_samples``) raises :class:`BudgetExceededError`.
    """
    if n_samples < 1000:
        raise ConfigError(f"n_samples must be >= 1000, got {n_samples}")
    check_finite("x", x, 0.0)
    _check_seed(seed)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if first_chunk < 0:
        raise ConfigError(f"first_chunk must be >= 0, got {first_chunk}")
    layout = _chunk_layout(n_samples, first_chunk)
    _check_seed(layout[-1][0], "the last chunk index")
    if method not in ("naive", "tilted"):
        raise ConfigError(f"method must be 'naive' or 'tilted', got {method!r}")
    _check_path_steps(seq.n, n_samples)

    tilt = _switched_tilt(seq, x) if method == "tilted" else None
    unit = _tie_unit(seq)
    # map yields in submission order, so the records never depend on workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda chunk: _run_chunk(seq, x, seed, *chunk, tilt, unit),
                                layout))

    quantity = (json.dumps(seq.dist.literal(), sort_keys=True), seq.n, x,
                _schedule_digest(seq), STREAM_VERSION)
    return tuple(TailEstimate(method, event, quantity, tuple(r[i] for r in results))
                 for i, event in enumerate(("max", "sum")))


def merge(a: TailEstimate, b: TailEstimate) -> TailEstimate:
    """Pool two estimates of the same method, event and quantity (law,
    ``n``, ``x``, scale schedule and stream version).

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
