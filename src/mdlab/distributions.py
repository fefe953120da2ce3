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
tilted two-point step is one raw 64-bit word of the generator's bit
stream, which draws ``+a`` when it is below
:meth:`~_TwoPointLaw.up_threshold` (see :meth:`~_TwoPointLaw.up_draws`).
``STREAM_VERSION`` names the layout of the Monte Carlo stream these draws
and :mod:`mdlab.mc` define together; version 6 is this raw-word draw and
the switched tilt of :mod:`mdlab.mc`, drawn from SFC64 bit generators,
with the tilt of iid two-point laws solved in closed form, every other
tilt by Newton's method on Uniform's series-accurate arithmetic, and
Student t drawn by Bailey's polar method (version 5 found those other
tilts by Brent's method; version 4 drew Student t by numpy's
``standard_t``; version 3 root-found the tilt of ``TwoPoint``; version 2
drew from counter-based generators).

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

from .errors import ConfigError, InfiniteMomentError, TiltUnsupportedError, check_finite

# scipy.special is imported inside the methods that call it: loading it is
# about half of a cold start, and sampling and tilting never need it

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

# the Monte Carlo stream layout; bump it whenever a fixed seed can give other bytes.
# Version 6: the tilt of Uniform and of scale schedules is solved by Newton's
# method, with Uniform's tilt arithmetic in series at small tilts, and the tilt
# of iid two-point laws with a > 3b by the log form of the closed form
STREAM_VERSION = 6
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

    def tilted_variance(self, theta: float) -> float:
        """The variance of the law tilted by ``theta``: the derivative of
        :meth:`tilted_mean`."""
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

    def tilted_variance(self, theta: float) -> float:
        # (a - m)(m + b) for the tilted mean m, formed from the masses so that
        # neither factor cancels near the hull
        _, wa, wb = self._tilt_weights(theta)
        total = wa + wb
        return (self.a + self.b) ** 2 * (wa / total) * (wb / total)

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
        if z < _SERIES_MAX:
            return math.log1p(z * z * _sinhc_sums(z)[0])
        # log(sinh z / z) = z + log1p(-exp(-2z)) - log(2z)
        return z + math.log1p(-math.exp(-2.0 * z)) - math.log(2.0 * z)

    def tilted_mean(self, theta: float) -> float:
        z = theta * self.half_width
        if abs(z) < _SERIES_MAX:
            # the Langevin function coth(z) - 1/z = z tau / (1 + z^2 sigma)
            sigma, tau = _sinhc_sums(z)
            return self.half_width * (z * tau / (1.0 + z * z * sigma))
        return self.half_width * (1.0 / math.tanh(z) - 1.0 / z)

    def tilted_variance(self, theta: float) -> float:
        z = abs(theta) * self.half_width
        if z < _SERIES_MAX:
            # 1/z^2 - 1/sinh^2 z = s (s + 2) / (z^2 (1 + s)^2), s = sinh(z)/z - 1
            sigma = _sinhc_sums(z)[0]
            s = z * z * sigma
            return self.half_width**2 * (sigma * (s + 2.0) / (1.0 + s) ** 2)
        # 1/sinh z as 2 exp(-z) / (1 - exp(-2z)), which does not overflow
        inv_sinh = 2.0 * math.exp(-z) / -math.expm1(-2.0 * z)
        return self.half_width**2 * (1.0 / (z * z) - inv_sinh * inv_sinh)

    def tilted_sample(self, theta, rng, size=None, where=None):
        a = self.half_width
        if theta == 0.0:
            return rng.uniform(-a, a, size=size)
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
        if where is not None:
            u *= 2.0 * a  # the untilted draw, -a + 2a u
            np.copyto(u, shifted, where=where)
            shifted = u
        shifted -= a
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
        # 1 / rate^2 within half an ulp; E X^2 through abs_moment's special
        # functions is up to 2.4 ulps off
        return self.rate**-2.0

    def abs_moment(self, p: float) -> float:
        return self.truncated_abs_moment(p, math.inf, "below")

    def _negative_part(self, p, a):
        """E|X|^p 1{-a <= X < 0} for 0 <= a <= 1/rate, from the density
        rate * e^-1 * e^(-rate*x) on the negative half-line; rate * a^(p+1) is
        formed as (rate*a)^(p+1) * (1/rate)^p, so no factor exceeds the value."""
        from scipy import special

        lam = self.rate
        return (
            math.exp(-1.0) * (lam * a) ** (p + 1.0) * self.shift**p / (p + 1.0)
            * special.hyp1f1(p + 1.0, p + 2.0, lam * a)
        )

    def _truncated(self, p, c, side):
        from scipy import special

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
        draws = rng.exponential(self.shift, size=size)
        draws -= self.shift  # in place: no second column per step
        return draws


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

    Draws use Bailey's polar method (Bailey 1994, *Math. Comp.* 62,
    779-781), exact for every nu: for ``(U, V)`` uniform on the unit disk
    and ``W = U^2 + V^2``, ``U sqrt(nu (W^(-2/nu) - 1) / W)`` is Student t
    with nu degrees of freedom. Pairs off the disk are redrawn slot by
    slot, so a draw costs 8/pi, about 2.55, uniform doubles and a log, an
    expm1 and two square roots, against a normal and a gamma draw for
    numpy's ``standard_t``.
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
        from scipy import special

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
        from scipy import special

        # two-sided tail from the t CDF, P(|X| >= t) = 2 F(-t)
        return np.where(t > 0.0, 2.0 * special.stdtr(self.nu, -t), 1.0)

    def sample(self, rng, size=None):
        # the polar method of the class docstring; only the slots off the disk
        # are redrawn, and the column is worked in place
        count = 1 if size is None else int(np.prod(size))
        half_u, quarter_w = _disk_candidates(rng, count)
        redo = _off_disk(quarter_w)
        while redo.size:
            redo_u, redo_w = _disk_candidates(rng, redo.size)
            half_u[redo], quarter_w[redo] = redo_u, redo_w
            redo = redo[_off_disk(redo_w)]
        # U / sqrt(W) times sqrt(nu (W^(-2/nu) - 1)), on the row of W / 4: no
        # column beyond the block, and expm1 with log sqrt(W) = log(W) / 2
        # leaves no cancellation near W = 1 or at large nu
        nu, col = self.nu, quarter_w
        np.sqrt(col, out=col)  # sqrt(W) / 2
        half_u /= col  # U / sqrt(W)
        col *= 2.0
        np.log(col, out=col)
        col *= -4.0 / nu
        np.expm1(col, out=col)
        col *= nu
        np.sqrt(col, out=col)
        half_u *= col
        return float(half_u[0]) if size is None else half_u.reshape(size)


def _disk_candidates(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``(U / 2, W / 4)`` for ``count`` pairs ``U, V = 2 r - 1`` of the
    generator's doubles ``r``, a column of ``U`` and then one of ``V``,
    uniform on ``[-1, 1)``, and ``W = U^2 + V^2``. The halves are ``r -
    1/2``, a pass fewer than ``2 r - 1``; scaling by 2 is exact, so each is
    its whole to the bit. Both are rows of one block, which the allocator
    reuses from one Monte Carlo step to the next; separate columns were
    handed back to the system and faulted in again at every step."""
    block = rng.random((2, count))
    block -= 0.5
    half_u, quarter_w = block
    quarter_w *= quarter_w
    quarter_w += half_u * half_u
    return half_u, quarter_w


def _off_disk(quarter_w: np.ndarray) -> np.ndarray:
    """The indices of the pairs to redraw: off the unit disk, ``W > 1``, or
    at its centre, where ``log W`` is ``-inf``."""
    redo = quarter_w > 0.25
    redo |= quarter_w == 0.0
    return np.flatnonzero(redo)


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
