"""The special functions of the truncated moments of the unbounded laws,
from ``math`` and numpy alone.

* :func:`incomplete_beta`, the regularized ``I_x(a, b)`` and ``1 - I_x(a,
  b)``, for Student t;
* :func:`incomplete_gamma`, the regularized ``P(a, y)`` and ``Q(a, y) = 1 -
  P(a, y)``, and :func:`hyp1f1_unit`, ``1F1(a; a + 1; z)`` on ``0 <= z <=
  1``, for the centered exponential.

The methods are the textbook ones (Press et al. 2007, *Numerical Recipes*,
3rd ed., sections 6.2 and 6.4): the continued fraction of ``I_x(a, b)``
below ``x = (a + 1) / (a + b + 2)`` and the symmetry ``I_x(a, b) = 1 -
I_(1-x)(b, a)`` above it; the series of ``P(a, y)`` below ``y = a + 1`` and
Legendre's continued fraction of ``Q(a, y)`` from it on. Each side forms
the function that is at most about 1/2 there, and the other one as its
complement, so neither cancels.

Every value is a function of its own level alone, to the bit, and the
same at every SIMD level numpy dispatches to:

* a fraction or series runs bottom-up to a depth fixed by its scalar
  parameters (:func:`_depth`), not by the levels;
* the per-level powers, logs and exponentials are libm's, through
  ``math``; numpy only adds, multiplies and divides, which round
  correctly whatever loop runs them.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys

import numpy as np

__all__ = ["power", "incomplete_beta", "incomplete_gamma", "hyp1f1_unit"]

_MAX_DEPTH = 1 << 10
# math.gamma is finite, and nearer than exp(lgamma), below this
_GAMMA_MAX = 171.0
# the relative change from a depth to twice it below which the shallower
# value is kept: about two ulps, as the two round differently
_DEPTH_TOL = 4e-16
# the terms of hyp1f1_unit: the first one left out, z^25 / 25!, is below
# 1e-25 for z <= 1, and every term is positive
_HYP1F1_TERMS = 25
# the largest exponent power forms by multiplications
_MAX_WHOLE_POWER = 32.0
# y^a e^-y as exp(-y) y^a up to this y, where 700^100 and e^-700 are normal
_SPLIT_MAX, _SPLIT_MAX_A = 700.0, 100.0


def _libm(fn, x: np.ndarray, *args) -> np.ndarray:
    """``fn(level, *args)`` of ``math`` at each level of the array ``x``."""
    return np.fromiter(map(fn, x.tolist(), *map(itertools.repeat, args)), dtype=float, count=len(x))


def power(x: np.ndarray, e: float) -> np.ndarray:
    """``x^e`` per level of an array of ``x >= 0``: by a square root and
    multiplications where ``2 e`` is an integer up to ``2 _MAX_WHOLE_POWER``,
    as numpy rounds those correctly in every loop, and by libm's ``pow``
    elsewhere."""
    whole = int(e)
    if not (2.0 * e).is_integer() or not 0.0 < e <= _MAX_WHOLE_POWER:
        return _libm(math.pow, x, e)
    out = np.sqrt(x) if e != whole else np.ones_like(x)
    while whole:
        if whole & 1:
            out = out * x
        whole >>= 1
        if whole:
            x = x * x
    return out


@functools.lru_cache(maxsize=1024)
def _depth(evaluate, worst: float, *params) -> int:
    """The depth ``8 * 2^k`` at which ``evaluate(*params, levels, depth)`` at
    the level ``worst`` first agrees with its value at twice the depth to
    ``_DEPTH_TOL``, capped at ``_MAX_DEPTH``. ``worst`` is the level of the
    side it serves where it converges slowest, so every other level of that
    side is as close at the same depth."""
    level = np.array([worst])
    depth, value = 8, evaluate(*params, level, 8)[0]
    while depth < _MAX_DEPTH:
        deeper = evaluate(*params, level, 2 * depth)[0]
        if abs(deeper - value) <= _DEPTH_TOL * abs(deeper):
            break
        depth, value = 2 * depth, deeper
    return depth


def _beta_fraction(a: float, b: float, x: np.ndarray, depth: int) -> np.ndarray:
    """The continued fraction ``1 / (1 + d_1 / (1 + d_2 / (1 + ...)))`` of
    ``I_x(a, b)``, with ``d_(2m+1) = -(a+m)(a+b+m) x / ((a+2m)(a+2m+1))``
    and ``d_(2m) = m(b-m) x / ((a+2m-1)(a+2m))``, cut at ``depth`` terms."""
    t = np.ones_like(x)
    for k in range(depth, 0, -1):
        m = k // 2
        if k % 2:
            d = -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            d = m * (b - m) / ((a + 2 * m - 1) * (a + 2 * m))
        t = 1.0 + d * x / t
    return 1.0 / t


def _beta_side(a: float, b: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``I_x(a, b)`` from its continued fraction, for ``y = 1 - x``: ``x^a
    y^b / (a B(a, b))`` times :func:`_beta_fraction`, which converges in the
    depth of :func:`_depth` where ``x < (a + 1) / (a + b + 2)``."""
    if a + b < _GAMMA_MAX:
        scale = math.gamma(a + b) / (math.gamma(a) * math.gamma(b)) / a
    else:
        scale = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)) / a
    depth = _depth(_beta_fraction, (a + 1.0) / (a + b + 2.0), a, b)
    return scale * (power(x, a) * power(y, b)) * _beta_fraction(a, b, x, depth)


def incomplete_beta(a: float, b: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(I_x(a, b), 1 - I_x(a, b))`` for ``a, b > 0`` and arrays ``x`` in
    [0, 1] and ``y = 1 - x``, both given, so that neither is formed by a
    subtraction that loses the other's digits."""
    lower = x < (a + 1.0) / (a + b + 2.0)
    return _complementary(lower, lambda: _beta_side(a, b, x[lower], y[lower]),
                          lambda: _beta_side(b, a, y[~lower], x[~lower]))


def _complementary(lower: np.ndarray, near, far) -> tuple[np.ndarray, np.ndarray]:
    """``(f, 1 - f)`` per level: ``near()`` gives ``f`` at the levels of the
    mask ``lower`` and ``far()`` gives ``1 - f`` at the others, and each
    other value is the complement. A side without levels is not evaluated."""
    f, g = np.empty(lower.shape), np.empty(lower.shape)
    if lower.any():
        f[lower] = near()
        g[lower] = 1.0 - f[lower]
    if not lower.all():
        g[~lower] = far()
        f[~lower] = 1.0 - g[~lower]
    return f, g


def _gamma_power(a: float, y: np.ndarray, g: float) -> np.ndarray:
    """``y^a e^-y / Gamma(g)`` per level: libm's ``exp(-y)`` times
    :func:`power` up to ``y = _SPLIT_MAX``, where neither factor leaves the
    normal range while ``a <= _SPLIT_MAX_A``, and ``exp(a log y - y - log
    Gamma(g))`` elsewhere, whose exponent rounds to ``y`` ulps."""
    out = np.empty_like(y)
    near = (y <= _SPLIT_MAX) & (a <= _SPLIT_MAX_A)
    v = y[near]
    out[near] = power(v, a) * _libm(math.exp, -v) / math.gamma(g)
    v = y[~near]
    out[~near] = _libm(math.exp, a * _libm(math.log, v) - v - math.lgamma(g))
    return out


def _gamma_sum(a: float, y: np.ndarray, depth: int) -> np.ndarray:
    """``sum_n y^n / ((a+1)(a+2)...(a+n))`` over ``n < depth``, by Horner's rule."""
    s = np.ones_like(y)
    for n in range(depth - 1, 0, -1):
        s = 1.0 + y * s / (a + n)
    return s


def _gamma_fraction(a: float, y: np.ndarray, depth: int) -> np.ndarray:
    """Legendre's continued fraction ``y + 1 - a - 1 (1-a) / (y + 3 - a -
    2 (2-a) / (y + 5 - a - ...))`` of ``Gamma(a, y) = y^a e^-y / (...)``,
    cut at ``depth`` terms."""
    ya = y - a
    t = ya + (2 * depth + 1)
    for n in range(depth, 0, -1):
        t = ya + (2 * n - 1) - n * (n - a) / t
    return t


def _gamma_series(a: float, y: np.ndarray) -> np.ndarray:
    """``P(a, y)`` from its series, which converges in the depth of
    :func:`_depth` where ``y < a + 1``."""
    depth = _depth(_gamma_sum, a + 1.0, a)
    return _gamma_power(a, y, a + 1.0) * _gamma_sum(a, y, depth)


def _gamma_side(a: float, y: np.ndarray) -> np.ndarray:
    """``Q(a, y)`` from Legendre's continued fraction, which converges in the
    depth of :func:`_depth` where ``y >= a + 1``."""
    depth = _depth(_gamma_fraction, a + 1.0, a)
    return _gamma_power(a, y, a) / _gamma_fraction(a, y, depth)


def incomplete_gamma(a: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(P(a, y), Q(a, y))`` for ``a > 0`` and an array of ``y >= 0``; ``y =
    inf`` acts as the largest double, where they are ``(1, 0)``."""
    y = np.minimum(y, sys.float_info.max)
    series = y < a + 1.0
    return _complementary(series, lambda: _gamma_series(a, y[series]),
                          lambda: _gamma_side(a, y[~series]))


def hyp1f1_unit(a: float, z: np.ndarray) -> np.ndarray:
    """Kummer's ``1F1(a; a + 1; z) = sum_k a / (a + k) z^k / k!`` for an
    array of ``0 <= z <= 1``, from its first ``_HYP1F1_TERMS`` terms by
    Horner's rule."""
    s = np.zeros_like(z)
    for k in range(_HYP1F1_TERMS - 1, -1, -1):
        s = s * z + a / ((a + k) * math.factorial(k))
    return s
