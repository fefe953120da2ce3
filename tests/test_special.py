"""The special functions of :mod:`mdlab.special` and the normal log-tail of
:func:`mdlab.theory.normal_tail`, against 50-digit mpmath."""

import math

import mpmath as mp
import numpy as np
import pytest

from mdlab import StudentT
from mdlab.special import hyp1f1_unit, incomplete_beta, incomplete_gamma
from mdlab.theory import normal_tail

_REL = 1e-13
_LEVELS = np.concatenate([np.logspace(-6.0, 6.0, 25), [0.0, math.inf]])


def _assert_close(got, want):
    """``got`` within ``_REL`` of the mpmath value ``want``, or both below the
    smallest normal double."""
    if want < 1e-300:
        assert got < 1e-290, (got, want)
    else:
        assert abs(mp.mpf(got) - want) <= _REL * want, (got, want)


def _mp_beta(a, b, x, y):
    """50-digit ``I_x(a, b)`` for the double ``x``, through the symmetry
    with the double ``y = 1 - x`` on the side where ``x`` is the larger."""
    if x <= y:
        return mp.betainc(a, b, 0, mp.mpf(x), regularized=True)
    return 1 - mp.betainc(b, a, 0, mp.mpf(y), regularized=True)


@pytest.mark.parametrize("nu", [3.5, 5.0, 30.0])
@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, "tail"])
def test_incomplete_beta_matches_50_digits(nu, p):
    # Student t's parameters: the truncated moments' and the two-sided tail's
    a, b = (nu / 2.0, 0.5) if p == "tail" else ((p + 1.0) / 2.0, (nu - p) / 2.0)
    u, v = StudentT(nu)._split(_LEVELS)
    x, y = (v, u) if p == "tail" else (u, v)
    i, j = incomplete_beta(a, b, x, y)
    with mp.workdps(50):
        for k in range(len(x)):
            _assert_close(i[k], _mp_beta(a, b, x[k], y[k]))
            _assert_close(j[k], _mp_beta(b, a, y[k], x[k]))


@pytest.mark.parametrize("nu", [344.0, 400.0, 1e3, 1e4, 1e5, 1e6, 1e8])
@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, "tail"])
def test_incomplete_beta_keeps_its_prefactor_at_large_nu(nu, p):
    # a + b >= 171: Gamma(a + b) / Gamma(b) from Stirling's series, where a
    # difference of lgamma values was up to 1.7e-7 off at nu = 1e8. The
    # levels are exact, x + y == 1, so that only the function's own
    # rounding shows
    a, b = (0.5, nu / 2.0) if p == "tail" else ((p + 1.0) / 2.0, (nu - p) / 2.0)
    first = math.ceil(-math.log2((a + 1.0) / (a + b + 2.0)))
    x = np.ldexp(1.0, -np.arange(first, first + 30, 3))
    i, _ = incomplete_beta(a, b, x, 1.0 - x)
    with mp.workdps(40):
        for k in range(len(x)):
            level = mp.mpf(x[k])
            want = level**a * mp.hyp2f1(a, 1 - b, a + 1, level, maxterms=10**6) / (a * mp.beta(a, b))
            assert abs(mp.mpf(i[k]) - want) <= 2e-15 * want, (x[k], i[k], want)


@pytest.mark.parametrize("a", [2.0, 3.0, 3.5, 4.0, 20.0])
def test_incomplete_gamma_matches_50_digits(a):
    # both sides of the switch at y = a + 1, out to where Q leaves the normal range
    y = np.concatenate([np.logspace(-6.0, math.log10(700.0), 25), [a + 1.0, math.nextafter(a + 1.0, 0.0)]])
    p, q = incomplete_gamma(a, y)
    with mp.workdps(50):
        for k in range(len(y)):
            _assert_close(p[k], mp.gammainc(a, 0, mp.mpf(y[k]), regularized=True))
            _assert_close(q[k], mp.gammainc(a, mp.mpf(y[k]), mp.inf, regularized=True))


def test_incomplete_gamma_at_the_ends():
    p, q = incomplete_gamma(3.0, np.array([0.0, math.inf]))
    assert p.tolist() == [0.0, 1.0] and q.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("a", [2.0, 3.0, 3.5, 4.0])
def test_hyp1f1_unit_matches_50_digits(a):
    z = np.linspace(0.0, 1.0, 21)
    values = hyp1f1_unit(a, z)
    with mp.workdps(50):
        for k in range(len(z)):
            _assert_close(values[k], mp.hyp1f1(a, a + 1, mp.mpf(z[k])))


def test_normal_tail_past_erfc_matches_50_digits():
    # past x = 37.5 the tail is subnormal: within _REL of it, besides the
    # half-ulp rounding of a subnormal
    with mp.workdps(50):
        half_ulp = mp.mpf(2) ** -1075
        for x in np.linspace(37.5, 40.0, 251)[1:].tolist():
            want = mp.ncdf(-mp.mpf(x))
            assert abs(mp.mpf(normal_tail(x)) - want) <= _REL * want + half_ulp, x
