"""Centered increment laws with exact sampling, moments, and tilting.

Every family has mean exactly zero and strictly positive variance. The
module provides three services the rest of the package is built on:

* deterministic sampling through a caller-owned ``numpy.random.Generator``,
* raw and truncated absolute moments ``E|X|^p 1{|X| <= c}`` (side
  ``"below"``) and ``E|X|^p 1{|X| > c}`` (side ``"above"``) and the tail
  ``P(|X| >= t)``, all in closed form and evaluated elementwise over
  arrays of levels; the unbounded families take theirs from the special
  functions of :mod:`mdlab.special`, ``math`` and numpy only, whose value
  at a level has the same bits alone or in an array and at every SIMD
  level numpy dispatches to,
* exponential tilting ``dP_t ~ exp(theta*x) dP`` of the bounded laws
  (two-point and Uniform), which is what makes rare-event importance
  sampling possible; :func:`mdlab.mc.choose_tilt` solves their tilts.

Rademacher is the ``a = b`` case of the two-point law on ``{a, -b}``. A
tilted two-point step is one raw 64-bit word of the generator's bit
stream, which draws ``+a`` when it is below
:meth:`~_TwoPointLaw.up_threshold` (see :meth:`~_TwoPointLaw.up_draws`).
``STREAM_VERSION`` names the layout of the Monte Carlo stream these draws
and :mod:`mdlab.mc` define together; version 8 is this raw-word draw and
the switched tilt of :mod:`mdlab.mc`, drawn from SFC64 bit generators,
with the tilt of two-point laws solved in closed form and weighed by the
two-point ``log_mgf`` (Rademacher's too), Uniform's solved by Newton's
method in ``z = theta a`` on the series-accurate Langevin function, and
Student t drawn by Bailey's polar method with one oversampled refill of
the pairs off the disk. The README lists the earlier versions. Uniform and
exponential draws are numpy's own ``uniform`` and ``exponential``, to the
bit, formed from the generator's doubles and standard exponentials.

Families and their config literals (all keys optional except ``family``):

=====================  ==============================================
family                 literal
=====================  ==============================================
Rademacher             ``{"family": "rademacher", "scale": c}``
TwoPoint               ``{"family": "twopoint", "a": a, "b": b}``
Uniform                ``{"family": "uniform", "half_width": a}``
CenteredExponential    ``{"family": "centered_exponential", "rate": lam}``
StudentT               ``{"family": "student_t", "nu": nu}``
=====================  ==============================================
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .errors import ConfigError, InfeasibleError, InfiniteMomentError, check_finite
from .special import (_STIRLING_MIN, _stirling_excess, hyp1f1_unit, incomplete_beta,
                      incomplete_gamma, power)

__all__ = [
    "STREAM_VERSION",
    "Distribution",
    "Rademacher",
    "TwoPoint",
    "Uniform",
    "CenteredExponential",
    "StudentT",
    "from_literal",
]

# the Monte Carlo stream layout; bump it whenever a fixed seed can give other bytes
STREAM_VERSION = 8
_WORDS = 1 << 64  # the raw words of a 64-bit bit generator are uniform on [0, 2^64)
_LOG_MAX = math.log(sys.float_info.max)  # the largest z for which exp(z) is finite


def _levelwise(fn, levels) -> float | np.ndarray:
    """``fn`` over the levels as an array of at least one dimension, so a
    scalar runs the same numpy loops as an array element; a scalar level
    gives a Python float, an array of levels an array of its shape."""
    levels = np.asarray(levels, dtype=float)
    values = fn(np.atleast_1d(levels))
    return float(values[0]) if levels.ndim == 0 else values


class Distribution:
    """Common interface for the centered increment families: each is a
    frozen dataclass whose fields, with their defaults, are the parameters
    of its config literal ``{"family": family, ...}``."""

    family: str

    # -- moments -------------------------------------------------------
    def variance(self) -> float:
        return self.abs_moment(2.0)

    def abs_moment(self, p: float) -> float:
        """Raw absolute moment E|X|^p (may raise InfiniteMomentError)."""
        raise NotImplementedError

    def truncated_abs_moment(self, p: float, c, side: str) -> float | np.ndarray:
        """E|X|^p restricted to {|X| <= c} ('below') or {|X| > c} ('above').

        ``c`` is a level or an array of levels: a scalar gives a Python
        float, an array an array of the same shape.
        """
        return _levelwise(lambda levels: self._truncated(p, levels, side), c)

    def abs_tail_prob(self, t) -> float | np.ndarray:
        """P(|X| >= t), exact; scalar or array ``t`` as in
        :meth:`truncated_abs_moment`."""
        return _levelwise(self._tail, t)

    def _truncated(self, p: float, c: np.ndarray, side: str) -> np.ndarray:
        raise NotImplementedError

    def _tail(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- sampling ------------------------------------------------------
    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    # -- misc ----------------------------------------------------------
    def support_max(self) -> float:
        """Supremum of the support; +inf for the unbounded families, which no tilt serves."""
        return math.inf

    def finite_support(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """(values, probabilities) for finite-support families, else None."""
        return None

    def literal(self) -> dict:
        """The config literal, e.g. ``{"family": "twopoint", "a": 2.0, "b": 1.0}``."""
        return {"family": self.family, **asdict(self)}


class _TwoPointLaw(Distribution):
    """The centered law on {a, -b}, P(X = a) = b/(a+b); subclasses provide
    ``a`` and ``b``. Not a dataclass, so it adds no config field."""

    @property
    def p_plus(self) -> float:
        return self.b / (self.a + self.b)

    def abs_moment(self, p: float) -> float:
        return self.p_plus * self.a**p + (1.0 - self.p_plus) * self.b**p

    def _truncated(self, p, c, side):
        below = np.where(self.a <= c, self.p_plus * self.a**p, 0.0) + np.where(
            self.b <= c, (1.0 - self.p_plus) * self.b**p, 0.0
        )
        return below if side == "below" else self.abs_moment(p) - below

    def _tail(self, t):
        return np.where(self.a >= t, self.p_plus, 0.0) + np.where(
            self.b >= t, 1.0 - self.p_plus, 0.0
        )

    def sample(self, rng, size=None):
        threshold = np.uint64(self.up_threshold(0.0))
        return np.where(self.up_draws(rng, threshold, size), self.a, -self.b)[()]

    def support_max(self) -> float:
        return self.a

    def _tilt_weights(self, theta: float) -> tuple[float, float, float]:
        """``(hi, wa, wb)``: the tilted masses of a and -b are ``wa`` and ``wb``
        times ``exp(hi)``, the dominant exponent factored out against overflow."""
        ea, eb = theta * self.a, -theta * self.b
        hi = max(ea, eb)
        return hi, self.p_plus * math.exp(ea - hi), (1.0 - self.p_plus) * math.exp(eb - hi)

    def log_mgf(self, theta: float) -> float:
        hi, wa, wb = self._tilt_weights(theta)
        return hi + math.log(wa + wb)

    def tilted_mean(self, theta: float) -> float:
        _, wa, wb = self._tilt_weights(theta)
        return (self.a * wa - self.b * wb) / (wa + wb)

    def up_threshold(self, theta: float) -> int:
        """The word ``T`` below which a raw 64-bit word draws ``+a`` under the
        tilt ``theta``: ``T / 2^64`` is the tilted ``P(X = a)`` to within
        2^-64, formed from the smaller of the two masses, and capped at
        ``2^64 - 1`` so that it fits an unsigned 64-bit word."""
        _, wa, wb = self._tilt_weights(theta)
        if wa <= wb:
            return round(math.ldexp(wa / (wa + wb), 64))
        return min(_WORDS - round(math.ldexp(wb / (wa + wb), 64)), _WORDS - 1)

    def up_draws(self, rng, threshold, size=None):
        """Whether each step draws ``+a``: a raw 64-bit word of ``rng``'s
        stream below ``threshold``, a ``uint64`` or an array of them from
        :meth:`up_threshold`, one per draw."""
        return rng.bit_generator.random_raw(size) < threshold

    def finite_support(self):
        return (np.array([self.a, -self.b]), np.array([self.p_plus, 1.0 - self.p_plus]))


@dataclass(frozen=True)
class Rademacher(_TwoPointLaw):
    """P(X = +c) = P(X = -c) = 1/2: the two-point law with a = b = c."""

    family = "rademacher"
    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ConfigError(f"rademacher scale must be > 0, got {self.scale}")

    a = b = property(lambda self: self.scale)  # read-only, not config fields

    # this fixes the bytes of the naive stream; the rest, the tilt included,
    # is the two-point arithmetic, exact at a = b while c^p is normal
    def sample(self, rng, size=None):
        return self.scale * (2.0 * rng.integers(0, 2, size=size) - 1.0)


@dataclass(frozen=True)
class TwoPoint(_TwoPointLaw):
    """Support {a, -b}; zero mean forces P(X = a) = b/(a+b)."""

    family = "twopoint"
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ConfigError(f"twopoint needs a, b > 0, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform on [-a, a], for an ``a`` whose width ``2a`` is a double."""

    family = "uniform"
    half_width: float = 1.0

    def __post_init__(self):
        if not self.half_width > 0.0:
            raise ConfigError(f"uniform half_width must be > 0, got {self.half_width}")
        if not math.isfinite(2.0 * self.half_width):  # the width of the support, which sample forms
            raise InfeasibleError(f"uniform half_width {self.half_width} leaves the double range")

    def abs_moment(self, p: float) -> float:
        return self.half_width**p / (p + 1.0)

    def _truncated(self, p, c, side):
        a = self.half_width
        cut = np.minimum(c, a)
        if side == "below":
            return cut ** (p + 1.0) / (a * (p + 1.0))
        return (a ** (p + 1.0) - cut ** (p + 1.0)) / (a * (p + 1.0))

    def _tail(self, t):
        return np.clip(1.0 - t / self.half_width, 0.0, 1.0)

    def sample(self, rng, size=None):
        return self._spread(rng.random(size))

    def _spread(self, u):
        """``-a + 2a u`` for the generator's doubles ``u``, in place on an
        array: numpy's own ``uniform(-a, a)``, and its bits."""
        u *= 2.0 * self.half_width
        u -= self.half_width
        return u

    def support_max(self) -> float:
        return self.half_width

    def log_mgf(self, theta: float) -> float:
        z = abs(theta) * self.half_width
        if z < _SERIES_MAX:
            return math.log1p(z * z * _sinhc_sums(z)[0])
        # log(sinh z / z) = z + log1p(-exp(-2z)) - log(2z)
        return z + math.log1p(-math.exp(-2.0 * z)) - math.log(2.0 * z)

    def tilted_sample(self, theta, rng, size=None, where=None):
        """Draws of the law tilted by ``theta``; with ``where``, a boolean array
        of their shape, the others are untilted draws from the same doubles."""
        a = self.half_width
        if theta == 0.0:
            return self.sample(rng, size)
        u = rng.random(1 if size is None else size)
        # inverse CDF of the tilted density, of either sign of theta, stable for small
        # theta*a; worked in place, as a fresh array per pass costs as much as the pass
        if 2.0 * theta * a < _LOG_MAX:
            shifted = u * math.expm1(2.0 * theta * a)
            np.log1p(shifted, out=shifted)
            shifted /= theta
        else:
            # expm1 overflows: log1p(u expm1(2 theta a)) is 2 theta a + log u,
            # as exp(-2 theta a) is below the rounding of every nonzero u
            with np.errstate(divide="ignore"):
                shifted = np.log(u)
            shifted /= theta
            shifted += 2.0 * a
            np.maximum(shifted, 0.0, out=shifted)  # u = 0 draws -a
        shifted -= a
        if where is not None:
            # the untilted draws, from the same doubles, where the tilt is off
            untilted = self._spread(u)
            np.copyto(untilted, shifted, where=where)
            shifted = untilted
        return shifted[0] if size is None else shifted


# the tilt arithmetic of Uniform is in series below this z and in closed form
# from it on; both sides are within 6e-16 relative of 50-digit values, which a
# switch at z = 1 or z = 3 misses (see the tests)
_SERIES_MAX = 2.0
# (1/(2k+1)!, 2k/(2k+1)!) for k = 12 down to 1: sinh(z)/z - 1 = sum_k z^(2k) /
# (2k+1)!, whose terms past k = 12 are below 2^-55 of the sum for z < _SERIES_MAX
_SINHC = tuple((1.0 / math.factorial(2 * k + 1), 2 * k / math.factorial(2 * k + 1))
               for k in range(12, 0, -1))


def _sinhc_sums(z: float) -> tuple[float, float]:
    """``(sigma, tau)`` with ``sinh(z)/z - 1 = z^2 sigma`` and ``cosh(z) -
    sinh(z)/z = z^2 tau``: ``sigma = sum_k z^(2k-2) / (2k+1)!`` and ``tau =
    sum_k 2k z^(2k-2) / (2k+1)!``, by Horner's rule. Every term is positive,
    so neither cancels, and the small-z forms of Uniform's tilt arithmetic
    are their quotients."""
    w = z * z
    sigma = tau = 0.0
    for c_sigma, c_tau in _SINHC:
        sigma = sigma * w + c_sigma
        tau = tau * w + c_tau
    return sigma, tau


def _langevin(z: float) -> float:
    """The Langevin function ``L(z) = coth z - 1/z``, the mean of Uniform(1)
    tilted by ``z``: Uniform(a) tilted by ``theta`` has mean ``a L(theta a)``."""
    if abs(z) < _SERIES_MAX:
        # z tau / (1 + z^2 sigma)
        sigma, tau = _sinhc_sums(z)
        return z * tau / (1.0 + z * z * sigma)
    return 1.0 / math.tanh(z) - 1.0 / z


def _langevin_slope(z: float) -> float:
    """``L'(z) = 1/z^2 - 1/sinh^2 z``, the variance of Uniform(1) tilted by ``z``."""
    z = abs(z)
    if z < _SERIES_MAX:
        # s (s + 2) / (z^2 (1 + s)^2), s = sinh(z)/z - 1
        sigma = _sinhc_sums(z)[0]
        s = z * z * sigma
        return sigma * (s + 2.0) / (1.0 + s) ** 2
    # 1/sinh z as 2 exp(-z) / (1 - exp(-2z)), which does not overflow
    inv_sinh = 2.0 * math.exp(-z) / -math.expm1(-2.0 * z)
    return 1.0 / (z * z) - inv_sinh * inv_sinh


@dataclass(frozen=True)
class CenteredExponential(Distribution):
    """Exponential(rate) shifted to mean zero: X = E - 1/rate, support [-1/rate, inf)."""

    family = "centered_exponential"
    rate: float = 1.0

    def __post_init__(self):
        if not self.rate > 0.0:
            raise ConfigError(f"rate must be > 0, got {self.rate}")

    @property
    def shift(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        # 1 / rate^2 within half an ulp, and abs_moment(2)'s bits: its moment
        # in units of 1/rate rounds to 1
        return self.rate**-2.0

    def abs_moment(self, p: float) -> float:
        return self.truncated_abs_moment(p, math.inf, "below")

    def _truncated(self, p, c, side):
        # in units of 1/rate, X is E - 1 for a standard exponential E; with
        # z = rate * c, the parts of E|E - 1|^p on either side of E = 1 are
        #   below it, e^-1 N(min(z, 1)), N(z) = int_0^z y^p e^y dy, and
        #   above it, e^-1 Gamma(p+1) P(p+1, z), P the regularized incomplete gamma function
        z = self.rate * c
        # N(1) and N(z) at the levels below z = 1 (NaN ones among them) in one
        # call, which runs the same numpy loops for each; N(min(z, 1)) is
        # N(1) from z = 1 on
        inside = ~(z >= 1.0)
        whole, *below_one = _rising_moment(p, np.append(1.0, z[inside]))
        part = np.full_like(z, whole)
        part[inside] = below_one
        below, above = incomplete_gamma(p + 1.0, z)
        if side == "below":
            units = part + math.gamma(p + 1.0) * below
        else:
            # the negative difference first: the positive tail may be tiny;
            # it is exactly 0 once z >= 1
            units = (whole - part) + math.gamma(p + 1.0) * above
        return self.rate**-p * (math.exp(-1.0) * units)

    def _tail(self, t):
        lam, mu = self.rate, self.shift
        upper = np.exp(-lam * t - 1.0)  # P(X >= t)
        lower = np.where(t <= mu, -np.expm1(lam * np.minimum(t, mu) - 1.0), 0.0)  # P(X <= -t)
        return np.where(t > 0.0, upper + lower, 1.0)

    def sample(self, rng, size=None):
        # numpy's exponential(scale) is scale * standard_exponential, and its
        # bits; numpy works a column's temporaries in place
        return rng.standard_exponential(size) * self.shift - self.shift


def _rising_moment(p, z):
    """``int_0^z y^p e^y dy = z^(p+1) 1F1(p+1; p+2; z) / (p+1)`` for levels
    ``0 <= z <= 1``."""
    return power(z, p + 1.0) * hyp1f1_unit(p + 1.0, z) / (p + 1.0)


# the nu above which StudentT.abs_moment takes Gamma((nu - p)/2) / Gamma(nu/2)
# from Stirling's series: against 40-digit values at p = 2, 2.5 and 3 the
# lgamma difference is 1e-16 to 8e-15 off from nu = 15 to 35, and 4e-14 at
# 200, and the series is within 4e-16 from nu = 25 on. Up to nu = 30, where
# the pinned moments are, the lgamma bits stay
_STIRLING_NU = 30.0


@dataclass(frozen=True)
class StudentT(Distribution):
    """Student t with nu > 3 degrees of freedom, unit scale parameter.

    E|X|^p is finite exactly for p < nu; raw moments use the gamma-function
    identity. With u = c^2/(nu+c^2), a = (p+1)/2 and b = (nu-p)/2,
    E|X|^p 1{|X| <= c} = E|X|^p * I_u(a, b), the regularized incomplete
    beta function, and the moment above c is E|X|^p * (1 - I_u(a, b)); u
    and 1 - u are each formed directly, and each of I and 1 - I where it
    does not cancel, so neither side loses digits. The two-sided tail is
    P(|X| >= t) = I_(1-u)(nu/2, 1/2) at u = t^2/(nu+t^2). Truncated
    moments, like the raw one, refuse orders p >= nu on either side.

    Draws use Bailey's polar method (Bailey 1994, *Math. Comp.* 62,
    779-781), exact for every nu: for ``(U, V)`` uniform on the unit disk
    and ``W = U^2 + V^2``, ``U sqrt(nu (W^(-2/nu) - 1) / W)`` is Student t
    with nu degrees of freedom. The ``r`` slots of a column whose pair
    falls off the disk (or at its centre) take, in index order, the pairs
    on it among ``m(r) = 4r/pi + 3 sqrt(r) + 8`` fresh ones, in draw order,
    and only the rare slots still left take another refill. Pairs on the
    disk are iid uniform on it whichever draw they come from, so the
    method stays exact. A draw costs about 8/pi, 2.55, uniform doubles and
    a log, an expm1 and one square root, against a normal and a gamma draw
    for numpy's ``standard_t``.
    """

    family = "student_t"
    nu: float = 5.0

    def __post_init__(self):
        if not self.nu > 3.0:
            raise ConfigError(f"student_t needs nu > 3, got {self.nu}")

    def abs_moment(self, p: float) -> float:
        nu = self.nu
        if p >= nu:
            raise InfiniteMomentError(
                f"E|X|^{p} is infinite for student_t(nu={nu})"
            )
        x, s = nu / 2.0, p / 2.0
        if nu > _STIRLING_NU and x - s > _STIRLING_MIN:
            # Gamma(x - s) / Gamma(x) = (x - s)^-s exp(excess), so nu^s times
            # it is (nu / (x - s))^s exp(excess): no lgamma of size nu
            return (math.pow(nu / (x - s), s) * math.exp(_stirling_excess(x, s))
                    * (math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)))
        loggamma = (
            math.lgamma((p + 1.0) / 2.0)
            + math.lgamma((nu - p) / 2.0)
            - math.lgamma(nu / 2.0)
            - 0.5 * math.log(math.pi)
        )
        return nu ** (p / 2.0) * math.exp(loggamma)

    def _truncated(self, p, c, side):
        total = self.abs_moment(p)  # raises for p >= nu, where I_u(a, b) has b <= 0
        below, above = incomplete_beta((p + 1.0) / 2.0, (self.nu - p) / 2.0, *self._split(c))
        return total * (below if side == "below" else above)

    def _tail(self, t):
        # P(|X| >= t) = 2 F(-t) = I_v(nu/2, 1/2)
        u, v = self._split(t)
        return np.where(t > 0.0, incomplete_beta(self.nu / 2.0, 0.5, v, u)[0], 1.0)

    def _split(self, c):
        """``(u, v)`` with ``u = c^2 / (nu + c^2)`` and ``v = 1 - u``, each
        formed without overflow or cancellation; an infinite level acts as
        the largest finite one, where v underflows to 0."""
        c = np.minimum(c, sys.float_info.max)
        h = np.hypot(c, math.sqrt(self.nu))
        return (c / h) ** 2, (math.sqrt(self.nu) / h) ** 2

    def sample(self, rng, size=None):
        # the polar method of the class docstring
        half_u, quarter_w = _disk_pairs(rng, 1 if size is None else int(np.prod(size)))
        # (U / 2) sqrt(nu expm1(-(2/nu) log W) / (W / 4)): one square root,
        # and expm1 of the log leaves no cancellation near W = 1 or at large nu
        col = np.multiply(quarter_w, 4.0)  # W, exactly
        np.log(col, out=col)
        col *= -2.0 / self.nu
        np.expm1(col, out=col)
        col /= quarter_w
        col *= self.nu
        half_u *= np.sqrt(col, out=col)
        return float(half_u[0]) if size is None else half_u.reshape(size)


def _disk_pairs(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``(U / 2, W / 4)`` for ``count`` pairs uniform on the unit disk: the
    first block of :func:`_disk_candidates`, whose ``r`` slots off the disk
    take, in index order, the pairs on it among ``m(r)`` fresh ones, in
    draw order, until none is left. The fresh blocks are freed on return,
    before the caller's transform allocates its column."""
    half_u, quarter_w, on_disk = _disk_candidates(rng, count)
    redo = np.flatnonzero(~on_disk)
    while redo.size:
        # m(r) = 4r/pi + 3 sqrt(r) + 8 pairs: at least 5 standard deviations
        # of the on-disk count above r, and 12 for one slot
        more_u, more_w, more_on_disk = _disk_candidates(
            rng, int(redo.size * (4.0 / math.pi) + 3.0 * math.sqrt(redo.size) + 8.0))
        kept = np.flatnonzero(more_on_disk)[:redo.size]
        slots, redo = redo[:kept.size], redo[kept.size:]
        half_u[slots], quarter_w[slots] = more_u[kept], more_w[kept]
    return half_u, quarter_w


def _disk_candidates(rng, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(U / 2, W / 4, on_disk)`` for ``count`` pairs ``U, V = 2 r - 1`` of
    the generator's doubles ``r``, a column of ``U`` and then one of ``V``,
    uniform on ``[-1, 1)``, and ``W = U^2 + V^2``; ``on_disk`` marks the
    pairs kept, ``0 < W <= 1`` (at the centre ``log W`` is ``-inf``). The
    halves are ``r - 1/2``, a pass fewer than ``2 r - 1``; scaling by 2 is
    exact, so each is its whole to the bit. Both are rows of one block,
    which the allocator reuses from one Monte Carlo step to the next;
    separate columns were handed back to the system and faulted in again
    at every step."""
    block = rng.random((2, count))
    block -= 0.5
    half_u, quarter_w = block
    quarter_w *= quarter_w
    quarter_w += half_u * half_u
    return half_u, quarter_w, (quarter_w <= 0.25) & (quarter_w > 0.0)


_FAMILIES = {
    cls.family: cls
    for cls in (Rademacher, TwoPoint, Uniform, CenteredExponential, StudentT)
}


def from_literal(lit: dict) -> Distribution:
    """Build a distribution from its config literal, e.g.
    ``{"family": "rademacher", "scale": 1.0}``; omitted parameters take
    the family's defaults, given ones must be finite numbers."""
    if not isinstance(lit, dict) or "family" not in lit:
        raise ConfigError(f"distribution literal needs a 'family' key: {lit!r}")
    family = lit["family"]
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigError(
            f"unknown family {family!r}; known: {sorted(_FAMILIES)}"
        )
    cls = _FAMILIES[family]
    params = {f.name for f in fields(cls)}
    kwargs = {}
    for key, val in lit.items():
        if key == "family":
            continue
        if key not in params:
            raise ConfigError(f"unknown key {key!r} for family {family!r}")
        kwargs[key] = check_finite(f"{family} {key}", val)
    return cls(**kwargs)
