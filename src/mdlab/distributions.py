"""Centered increment laws with exact sampling, moments, and tilting.

Every family has mean exactly zero and strictly positive variance. The
module provides three services the rest of the package is built on:

* deterministic sampling through a caller-owned ``numpy.random.Generator``,
* raw and truncated absolute moments ``E|X|^p 1{|X| <= c}`` (side
  ``"below"``) and ``E|X|^p 1{|X| > c}`` (side ``"above"``) and the tail
  ``P(|X| >= t)``, all in closed form (special functions for the
  unbounded families) and evaluated elementwise over arrays of levels,
* exponential tilting ``dP_t ~ exp(theta*x) dP``, which is what makes
  rare-event importance sampling possible: a law can be tilted when it
  implements the tilt methods, whose base versions raise
  :class:`~mdlab.errors.TiltUnsupportedError`.

Rademacher is the ``a = b`` case of the two-point law on ``{a, -b}``. A
tilted two-point step is one raw 64-bit Philox word, which draws ``+a``
when it is below :meth:`~_TwoPointLaw.up_threshold` (see
:meth:`~_TwoPointLaw.up_draws`). ``STREAM_VERSION`` names the layout of
the Monte Carlo stream these draws and :mod:`mdlab.mc` define together;
version 2 is this raw-word draw with the switched tilt of :mod:`mdlab.mc`.

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
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np
from scipy import special

from .errors import ConfigError, InfiniteMomentError, TiltUnsupportedError, check_finite

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
STREAM_VERSION = 2
_WORDS = 1 << 64  # raw Philox words are uniform on [0, 2^64)


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

    # -- tilting (the laws that implement these methods) ----------------
    def support_max(self) -> float:
        """Supremum of the support; +inf for unbounded families."""
        return math.inf

    def _tilt_unsupported(self) -> TiltUnsupportedError:
        return TiltUnsupportedError(
            f"{type(self).__name__} has unbounded support; tilting is "
            "unsupported, use naive Monte Carlo"
        )

    def log_mgf(self, theta: float) -> float:
        raise self._tilt_unsupported()

    def tilted_mean(self, theta: float) -> float:
        raise self._tilt_unsupported()

    def tilted_sample(self, theta: float, rng: np.random.Generator, size=None, where=None):
        """Draws of the law tilted by ``theta``. With ``where``, a boolean
        array of the draws' shape, only the draws where it is True take the
        tilt; the others are untilted draws from the same random words."""
        raise self._tilt_unsupported()

    # -- misc ----------------------------------------------------------
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
        return self.tilted_sample(0.0, rng, size)

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

    def tilted_sample(self, theta, rng, size=None, where=None):
        threshold = np.uint64(self.up_threshold(theta))
        if where is not None:
            threshold = np.where(where, threshold, np.uint64(self.up_threshold(0.0)))
        return np.where(self.up_draws(rng, threshold, size), self.a, -self.b)[()]

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

    # these three fix the bytes of the naive stream and of the tilt solve; the
    # rest is the two-point arithmetic, exact at a = b while c^p is normal
    def sample(self, rng, size=None):
        return self.scale * (2.0 * rng.integers(0, 2, size=size) - 1.0)

    def log_mgf(self, theta: float) -> float:
        # log cosh, overflow-safe
        z = abs(theta * self.scale)
        return z + math.log1p(math.exp(-2.0 * z)) - math.log(2.0)

    def tilted_mean(self, theta: float) -> float:
        return self.scale * math.tanh(theta * self.scale)


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
    """Uniform on [-a, a]."""

    family = "uniform"
    half_width: float = 1.0

    def __post_init__(self):
        if not self.half_width > 0.0:
            raise ConfigError(f"uniform half_width must be > 0, got {self.half_width}")

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
        return rng.uniform(-self.half_width, self.half_width, size=size)

    def support_max(self) -> float:
        return self.half_width

    def log_mgf(self, theta: float) -> float:
        z = abs(theta) * self.half_width
        if z < 1e-8:
            return z * z / 6.0  # log(sinh z / z) ~ z^2/6
        # log(sinh z / z) = z + log1p(-exp(-2z)) - log(2z)
        return z + math.log1p(-math.exp(-2.0 * z)) - math.log(2.0 * z)

    def tilted_mean(self, theta: float) -> float:
        z = theta * self.half_width
        if abs(z) < 1e-5:
            # Langevin function coth(z) - 1/z ~ z/3 - z^3/45
            lang = z / 3.0 - z**3 / 45.0
        else:
            lang = 1.0 / math.tanh(z) - 1.0 / z
        return self.half_width * lang

    def tilted_sample(self, theta, rng, size=None, where=None):
        a = self.half_width
        if theta == 0.0:
            return rng.uniform(-a, a, size=size)
        u = rng.random(1 if size is None else size)
        # inverse CDF of the tilted density, of either sign of theta, stable for small
        # theta*a; worked in place, as a fresh array per pass costs as much as the pass
        shifted = u * math.expm1(2.0 * theta * a)
        np.log1p(shifted, out=shifted)
        shifted /= theta
        if where is not None:
            u *= 2.0 * a  # the untilted draw, -a + 2a u
            np.copyto(u, shifted, where=where)
            shifted = u
        shifted -= a
        return shifted[0] if size is None else shifted


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

    def abs_moment(self, p: float) -> float:
        return self.truncated_abs_moment(p, math.inf, "below")

    def _negative_part(self, p, a):
        """E|X|^p 1{-a <= X < 0} for 0 <= a <= 1/rate, from the density
        rate * e^-1 * e^(-rate*x) on the negative half-line; rate * a^(p+1) is
        formed as (rate*a)^(p+1) * (1/rate)^p, so no factor exceeds the value."""
        lam = self.rate
        return (
            math.exp(-1.0) * (lam * a) ** (p + 1.0) * self.shift**p / (p + 1.0)
            * special.hyp1f1(p + 1.0, p + 2.0, lam * a)
        )

    def _truncated(self, p, c, side):
        lam, mu = self.rate, self.shift
        # E X^p 1{X > 0} = e^-1 rate^-p Gamma(p+1), cut at c by the
        # regularized incomplete gamma function
        positive = math.exp(-1.0) * lam**-p * math.gamma(p + 1.0)
        cut = np.minimum(c, mu)
        if side == "below":
            return self._negative_part(p, cut) + positive * special.gammainc(p + 1.0, lam * c)
        # the negative difference first: the positive tail may be tiny; both
        # ends run through the same array loops so the difference is exactly
        # 0 once c >= 1/rate
        negative = self._negative_part(p, np.full_like(cut, mu)) - self._negative_part(p, cut)
        return negative + positive * special.gammaincc(p + 1.0, lam * c)

    def _tail(self, t):
        lam, mu = self.rate, self.shift
        upper = np.exp(-lam * t - 1.0)  # P(X >= t)
        lower = np.where(t <= mu, -np.expm1(lam * np.minimum(t, mu) - 1.0), 0.0)  # P(X <= -t)
        return np.where(t > 0.0, upper + lower, 1.0)

    def sample(self, rng, size=None):
        return rng.exponential(self.shift, size=size) - self.shift


@dataclass(frozen=True)
class StudentT(Distribution):
    """Student t with nu > 3 degrees of freedom, unit scale parameter.

    E|X|^p is finite exactly for p < nu; raw moments use the gamma-function
    identity. With u = c^2/(nu+c^2), a = (p+1)/2 and b = (nu-p)/2,
    E|X|^p 1{|X| <= c} = E|X|^p * I_u(a, b), the regularized incomplete
    beta function, evaluated on the smaller of u and 1-u so that neither
    side loses digits to cancellation. Below the level, orders p >= nu
    use the Gauss hypergeometric form of the incomplete beta integral,
    whose argument u tends to 1 as c grows: its relative error is a few
    1e-12 up to c = 1e3 and about 1e-6 at c = 1e6, and at p = nu it
    overflows to inf from c near 1e7. No caller in this package asks for
    such orders.
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
        loggamma = (
            math.lgamma((p + 1.0) / 2.0)
            + math.lgamma((nu - p) / 2.0)
            - math.lgamma(nu / 2.0)
            - 0.5 * math.log(math.pi)
        )
        return nu ** (p / 2.0) * math.exp(loggamma)

    def _truncated(self, p, c, side):
        nu = self.nu
        if p >= nu and (side == "above" or np.any(np.isinf(c))):
            raise InfiniteMomentError(
                f"E|X|^{p} 1{{|X| {'>' if side == 'above' else '<='} c}} is "
                f"infinite for student_t(nu={nu})"
            )
        a, b = (p + 1.0) / 2.0, (nu - p) / 2.0
        # u and v = 1 - u without overflow; an infinite level acts as the
        # largest finite one, where v underflows to 0
        c = np.minimum(c, np.finfo(float).max)
        h = np.hypot(c, math.sqrt(nu))
        u, v = (c / h) ** 2, (math.sqrt(nu) / h) ** 2
        if p >= nu:
            # B(a, b) diverges for b <= 0, the integral up to u does not
            return (
                nu ** (p / 2.0) / special.beta(0.5, nu / 2.0)
                * u**a * v**b / a * special.hyp2f1(a + b, 1.0, a + 1.0, u)
            )
        if side == "below":
            frac = np.where(u <= v, special.betainc(a, b, u), special.betaincc(b, a, v))
        else:
            frac = np.where(u <= v, special.betaincc(a, b, u), special.betainc(b, a, v))
        return self.abs_moment(p) * frac

    def _tail(self, t):
        # two-sided tail from the t CDF, P(|X| >= t) = 2 F(-t)
        return np.where(t > 0.0, 2.0 * special.stdtr(self.nu, -t), 1.0)

    def sample(self, rng, size=None):
        return rng.standard_t(self.nu, size=size)


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
