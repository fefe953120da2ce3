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

Monte Carlo runs iid steps only: :func:`simulate` and :func:`choose_tilt`
refuse a scale schedule with :class:`ConfigError`. Schedules are read by
the ``theory`` command and by :func:`mdlab.oracle.enumerate_exact`.

Importance sampling switches the tilt off at the first passage
(Siegmund's conjugate-until-passage estimator). Each path draws the
increments tilted by ``theta``, from :func:`choose_tilt`, until ``tau =
min{k : S_k >= x B_n}``, and untilted steps after it; its weight is
``exp(-theta S_{tau^n} + tau^n log E exp(theta X))``. Both event
estimators stay unbiased, since ``tau`` is a stopping time, and a path
that crosses the barrier and ends below it no longer carries the large
weight that a tilt kept on to the end would give it.

Two kernels draw the paths. Tilted Rademacher and TwoPoint steps are raw
64-bit words compared against an unsigned 64-bit threshold per path (the
tilted one before ``tau``, the untilted one after it), with ``S_k`` and
``V_n^2`` formed from up-counts. Every other run draws float columns
through ``sample``, or through ``tilted_sample`` with the tilt applied
only to the paths still under it. Neither kernel builds anything of
length ``n``, so a chunk's memory is set by its paths alone.
``STREAM_VERSION`` is part of every estimate's ``quantity``, so estimates
from different stream layouts do not merge; the README lists the versions.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import STREAM_VERSION, _langevin, _langevin_slope, _TwoPointLaw
from .errors import (BudgetExceededError, ConfigError, InfeasibleError, TiltUnsupportedError,
                     check_finite)
from .theory import SequenceSpec, _tie_cut, _tie_unit

# concurrent.futures loads logging, about 0.6 MB, so the pool class is bound
# here by the first pool (_thread_map), or now if the package is loaded
# already: a pool class patched in over this name before the first pool
# (as benchmarks/tracer.py does) is then the one that runs
if "concurrent.futures" in sys.modules:
    from concurrent.futures import ThreadPoolExecutor

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
_STEP_TOL = 1e-12  # a Newton step this small, relative to z, is near the rounding of L
_MAX_NEWTON_STEPS = 200
_BELOW_ONE = math.nextafter(1.0, 0.0)

# one chunk's sufficient statistics: (seed, chunk_index, n_paths, sum_w, sum_w2)
ChunkRecord = tuple[int, int, int, float, float]


def _check_seed(seed: int, name: str = "seed") -> None:
    """The one seed rule, for seeds and chunk indices alike: an unsigned
    64-bit integer, which enters its chunk's ``SeedSequence`` exactly."""
    if not 0 <= seed <= _MAX_UINT64:
        raise ConfigError(f"{name} must be an unsigned 64-bit integer, got {seed}")


def _check_iid(seq: SequenceSpec) -> None:
    """Refuse a scale schedule: Monte Carlo draws iid steps only."""
    if not seq.is_iid:
        raise ConfigError("Monte Carlo runs iid steps only; a scale schedule is read by "
                          "theory --scales and oracle.enumerate_exact")


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
    literal, ``n``, ``x`` and the ``STREAM_VERSION``. ``records`` holds
    per-chunk sums of ``w * indicator`` and its square, sorted by (seed,
    chunk); every reported number is computed from them, so equal record
    sets give bit-equal estimates.
    """

    method: str  # "naive" | "tilted"
    event: str  # "max" | "sum"
    quantity: tuple[str, int, float, int]
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


def _langevin_root(y: float) -> float:
    """The root ``z`` of the Langevin equation ``L(z) = coth z - 1/z = y``,
    ``0 <= y < 1``, by Newton's method from Cohen's Pade inverse ``y (3 -
    y^2) / (1 - y^2)`` (Cohen 1991, *Rheol. Acta* 30, 270-273). Each value
    of ``L`` narrows the bracket ``[lo, hi]`` that holds the root, and a
    step that would leave it bisects it instead. A step within
    ``_STEP_TOL`` of ``z`` that no longer shrinks, or that would leave the
    bracket, stops the iteration: the rounding of ``L`` is reached. So do
    a slope too flat for a finite step and ``_MAX_NEWTON_STEPS`` steps;
    the caller's residual check judges what it returns."""
    z = y * (3.0 - y * y) / ((1.0 - y) * (1.0 + y))
    lo, hi, last = 0.0, math.inf, math.inf
    for _ in range(_MAX_NEWTON_STEPS):
        gap = _langevin(z) - y
        if gap == 0.0:
            break
        if gap < 0.0:
            lo = z
        else:
            hi = z
        step = -gap / _langevin_slope(z)
        inside = lo < z + step < hi
        if abs(step) <= _STEP_TOL * z and (abs(step) >= last or not inside):
            break
        if not inside:
            if hi == math.inf:
                break
            step = 0.5 * (lo + hi) - z
        last = abs(step)
        z += step
    return z


def choose_tilt(seq: SequenceSpec, x: float) -> float:
    """The tilt ``theta >= 0`` that solves ``n tilted_mean(theta) = x *
    B_n`` on iid steps; a scale schedule raises :class:`ConfigError`, a
    law of unbounded support :class:`TiltUnsupportedError`, and a target
    outside the support hull :class:`InfeasibleError`.

    Two-point steps (Rademacher and TwoPoint) have a closed form, see
    :func:`_two_point_tilt`; on Rademacher it is ``atanh(x / sqrt(n)) /
    c``. Uniform(a) drifts ``a L(theta a)`` per step, so its tilt is ``z /
    a`` for the root ``z`` of ``L(z) = x / sqrt(3 n)``, from
    :func:`_langevin_root`. The drift equation must hold to 1e-10 of the
    target: in ``z`` for Uniform, and in units of ``sqrt(a b)`` for
    two-point steps, where targets below one such unit are held to 1e-10
    of it. A law scaled by a power of two gets the same verdict.
    """
    _check_iid(seq)
    check_finite("x", x, 0.0)
    dist, n = seq.dist, seq.n
    if dist.support_max() == math.inf:
        raise TiltUnsupportedError(f"{type(dist).__name__} has unbounded support; tilting is "
                                   "unsupported, use naive Monte Carlo")
    two_point = isinstance(dist, _TwoPointLaw)
    target = x * math.sqrt(seq.variance_sum())
    hull = n * dist.support_max()  # supremum of the total achievable drift
    # the target's share of the hull; Uniform's, x / sqrt(3 n), is formed as
    # Uniform(1) forms it, so that it does not depend on a
    y = target / hull if two_point else x * math.sqrt(n * (1.0 / 3.0)) / n
    if not y < 1.0:
        raise InfeasibleError(f"target drift {target:.6g} is outside the open support "
                              f"hull ({hull:.6g})")
    if two_point:
        within_rounding = x == 0.0 or n * dist.tilted_mean(0.0) >= target
        theta = 0.0 if within_rounding else _two_point_tilt(dist, x / math.sqrt(n))
        top = max(dist.a, dist.b)
        unit = top * math.sqrt((dist.a / top) * (dist.b / top))  # sqrt(a b), scaled exactly
        residual, scale = abs(n * dist.tilted_mean(theta) - target), max(unit, target)
    else:
        z = _langevin_root(y)
        theta, residual, scale = z / dist.half_width, abs(_langevin(z) - y), y
    if not residual <= _DRIFT_TOL * scale:
        raise InfeasibleError(f"tilt solve residual {residual:.3g} exceeds 1e-10 of {scale:.3g}")
    return theta


def _chunk_layout(n_samples: int, first_chunk: int) -> list[tuple[int, int]]:
    """(chunk_index, n_paths) pairs; all full chunks except possibly the last."""
    return [
        (first_chunk + i, min(CHUNK_SIZE, n_samples - start))
        for i, start in enumerate(range(0, n_samples, CHUNK_SIZE))
    ]


@dataclass(frozen=True)
class _SwitchedTilt:
    """What a tilted run needs besides the law: the tilt ``theta``, its
    ``log_mgf`` (so that ``Psi_k = k log_mgf``) and the barrier ``x * B_n``
    whose first passage switches a path's tilt off.

    A two-point law also carries the raw-word thresholds of
    :meth:`~mdlab.distributions._TwoPointLaw.up_draws` that its kernel
    reads at every step, built once per run rather than once per chunk:
    ``untilted_word`` and ``tilted_word``."""

    theta: float
    n: int
    barrier: float
    log_mgf: float
    untilted_word: Optional[np.uint64]
    tilted_word: Optional[np.uint64]


def _switched_tilt(seq: SequenceSpec, x: float) -> _SwitchedTilt:
    dist, theta = seq.dist, choose_tilt(seq, x)
    untilted_word = tilted_word = None
    if isinstance(dist, _TwoPointLaw):
        untilted_word, tilted_word = (np.uint64(dist.up_threshold(t)) for t in (0.0, theta))
    return _SwitchedTilt(theta, seq.n, x * math.sqrt(seq.variance_sum()), dist.log_mgf(theta),
                         untilted_word, tilted_word)


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
                                  + k * self.tilt.log_mgf)

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

    Step ``j`` is ``+a`` when :meth:`~mdlab.distributions._TwoPointLaw.up_draws`
    says so for the path's threshold: the tilted one before ``tau``, the
    untilted one after it. With ``W_k`` the up-count after ``k`` steps,
    the level ``W_k - b k / (a + b)`` is ``S_k / (a + b)``, and ``V_n^2 =
    a^2 W_n + b^2 (n - W_n)``, so no float column is formed per step.
    """
    dist = seq.dist
    a, b, span = dist.a, dist.b, dist.a + dist.b
    count = np.zeros(n_paths)
    level = np.empty(n_paths)
    peak = np.full(n_paths, -np.inf)
    passage = _Passage(tilt, n_paths, span)
    threshold = np.full(n_paths, tilt.tilted_word)
    for k in range(seq.n):
        count += dist.up_draws(rng, threshold, n_paths)
        taken = float(k + 1)
        # the level keeps the smaller step even when it is below the rounding
        # of a + b: W - (b / span) t after t steps when a >= b, else
        # (W - t) + (a / span) t
        if a >= b:
            np.add(count, -(b / span) * taken, out=level)
        else:
            np.subtract(count, taken, out=level)
            level += (a / span) * taken
        np.maximum(peak, level, out=peak)
        threshold[passage.update(k, level)] = tilt.untilted_word
    sq_norm = a * a * count + b * b * (float(seq.n) - count)
    return span * peak, span * level, sq_norm, passage.finish(level)


def _float_paths(seq: SequenceSpec, rng, n_paths: int, tilt: Optional[_SwitchedTilt]):
    """(max_k S_k, S_n, V_n^2, log-weights) of paths drawn as float columns;
    a tilted column takes the tilt ``theta`` on the paths still under it."""
    dist = seq.dist
    running = np.zeros(n_paths)
    sq_norm = np.zeros(n_paths)
    peak = np.full(n_paths, -np.inf)
    passage = None if tilt is None else _Passage(tilt, n_paths, 1.0)
    for k in range(seq.n):
        if passage is None:
            col = dist.sample(rng, n_paths)
        else:
            col = dist.tilted_sample(tilt.theta, rng, n_paths, passage.active)
        # every sampler returns a fresh float column, so it is worked in place
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


def simulate(
    seq: SequenceSpec,
    x: float,
    n_samples: int,
    seed: int = DEFAULT_SEED,
    method: str = "naive",
    workers: int = 1,
    first_chunk: int = 0,
) -> tuple[TailEstimate, TailEstimate]:
    """Estimate P(max_k S_k >= x V_n) and P(S_n >= x V_n) on shared paths
    of iid steps; a scale schedule raises :class:`ConfigError`.

    One pass per path tracks the running maximum, the terminal sum, and
    ``V_n^2``, so the per-path sum indicator never exceeds the max
    indicator. ``method="tilted"`` draws each path under the tilt of
    :func:`choose_tilt` until it first reaches ``x * B_n`` and untilted
    after it, weighing it by ``exp(-theta S_{tau^n} + tau^n log E
    exp(theta X))``; both events share these weights. Output is bit-identical for fixed
    ``(seed, n_samples, first_chunk)`` regardless of ``workers``; every
    chunk index must be an unsigned 64-bit integer, as the seed must. A
    run of more than ``PATH_STEP_BUDGET`` path-steps (``seq.n *
    n_samples``) raises :class:`BudgetExceededError`.
    """
    _check_iid(seq)
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
    with _thread_map(workers if len(layout) > 1 else 1) as run_chunks:
        results = list(run_chunks(lambda chunk: _run_chunk(seq, x, seed, *chunk, tilt, unit),
                                  layout))

    quantity = (json.dumps(seq.dist.literal(), sort_keys=True), seq.n, x, STREAM_VERSION)
    return tuple(TailEstimate(method, event, quantity, tuple(r[i] for r in results))
                 for i, event in enumerate(("max", "sum")))


@contextlib.contextmanager
def _thread_map(workers: int):
    """The ``map`` that runs a function over items, yielding in submission
    order: the builtin one, in the calling thread, for one worker, else
    that of a pool of ``workers`` threads, shut down on exit."""
    global ThreadPoolExecutor
    if workers == 1:
        yield map
        return
    if "ThreadPoolExecutor" not in globals():
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def merge(a: TailEstimate, b: TailEstimate) -> TailEstimate:
    """Pool two estimates of the same method, event and quantity (law,
    ``n``, ``x`` and stream version).

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
