"""Distribution families: moments, sampling, tilting."""

import math
import re
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy import stats as sps

from mdlab import (
    CenteredExponential,
    Rademacher,
    SequenceSpec,
    StudentT,
    TwoPoint,
    Uniform,
    from_literal,
)
from mdlab import special
from mdlab.distributions import _langevin, _langevin_slope, _rising_moment
from mdlab.errors import ConfigError, InfeasibleError, InfiniteMomentError, TiltUnsupportedError
from mdlab.mc import choose_tilt

ALL = [
    Rademacher(1.0),
    Rademacher(0.5),
    TwoPoint(2.0, 1.0),
    TwoPoint(0.7, 1.3),
    Uniform(math.sqrt(3.0)),
    Uniform(0.4),
    CenteredExponential(1.0),
    CenteredExponential(2.5),
    StudentT(7.0),
    StudentT(4.5),
]
BOUNDED = [d for d in ALL if d.support_max() < math.inf]
IDS = [f"{type(d).__name__}-{i}" for i, d in enumerate(ALL)]
BOUNDED_IDS = [f"{type(d).__name__}-{i}" for i, d in enumerate(BOUNDED)]
_BELOW_ONE = math.nextafter(1.0, 0.0)


# ---------------------------------------------------------------------------
# independent density oracles, used only by this test module
# ---------------------------------------------------------------------------

def oracle_pdf_or_atoms(dist):
    """(atoms, weights) for discrete laws, else (pdf, support) with the
    support bounds keeping quadrature honest."""
    if isinstance(dist, Rademacher):
        return ([dist.scale, -dist.scale], [0.5, 0.5]), None
    if isinstance(dist, TwoPoint):
        p = dist.b / (dist.a + dist.b)
        return ([dist.a, -dist.b], [p, 1.0 - p]), None
    if isinstance(dist, Uniform):
        a = dist.half_width
        return None, (lambda y: 1.0 / (2.0 * a) if -a <= y <= a else 0.0, (-a, a))
    if isinstance(dist, CenteredExponential):
        lam = dist.rate
        pdf = lambda y: lam * math.exp(-lam * (y + 1.0 / lam)) if y >= -1.0 / lam else 0.0
        return None, (pdf, (-1.0 / lam, np.inf))
    if isinstance(dist, StudentT):
        return None, (lambda y: sps.t.pdf(y, dist.nu), (-np.inf, np.inf))
    raise AssertionError(type(dist))


def _oracle_quad(f, lo, hi):
    if lo >= hi:
        return 0.0
    pts = [p for p in (0.0,) if lo < p < hi and np.isfinite(lo) and np.isfinite(hi)]
    val, _ = integrate.quad(f, lo, hi, points=pts or None, limit=200)
    return val


def oracle_abs_moment(dist, p, c=math.inf, side="below"):
    atoms, cont = oracle_pdf_or_atoms(dist)
    if atoms is not None:
        vals, wts = atoms
        keep = (lambda v: abs(v) <= c) if side == "below" else (lambda v: abs(v) > c)
        return sum(w * abs(v) ** p for v, w in zip(vals, wts) if keep(v))
    pdf, (slo, shi) = cont
    f = lambda y: abs(y) ** p * pdf(y)
    if side == "below":
        return _oracle_quad(f, max(slo, -c), min(shi, c))
    return _oracle_quad(f, slo, min(shi, -c)) + _oracle_quad(f, max(slo, c), shi)


def mp_truncated_abs_moment(dist, p, c, side):
    """50-digit E|X|^p 1{|X| <= c} or 1{|X| > c} for the unbounded families,
    from mpmath's incomplete beta and gamma functions; quadrature only over
    the finite negative support of the exponential."""
    with mp.workdps(50):
        p, c = mp.mpf(p), mp.mpf(c)
        if isinstance(dist, StudentT):
            nu = mp.mpf(dist.nu)
            u = c**2 / (nu + c**2)
            x1, x2 = (0, u) if side == "below" else (u, 1)
            scale = nu ** (p / 2) / mp.beta(mp.mpf(1) / 2, nu / 2)
            return float(scale * mp.betainc((p + 1) / 2, (nu - p) / 2, x1, x2))
        lam = mp.mpf(dist.rate)

        def negative(a):  # E|X|^p 1{-a <= X < 0}
            return mp.quad(lambda y: lam / mp.e * y**p * mp.exp(lam * y), [0, a])

        cut = min(c, 1 / lam)
        if side == "below":
            return float(negative(cut) + mp.gammainc(p + 1, 0, lam * c) / (mp.e * lam**p))
        positive = mp.gammainc(p + 1, lam * c, mp.inf) / (mp.e * lam**p)
        return float(negative(1 / lam) - negative(cut) + positive)


# ---------------------------------------------------------------------------
# support and sampling
# ---------------------------------------------------------------------------

def test_rademacher_support():
    rng = np.random.default_rng(0)
    draws = Rademacher(1.0).sample(rng, 1000)
    assert set(np.unique(draws)) == {-1.0, 1.0}


def test_twopoint_support_and_atom_probability():
    d = TwoPoint(2.0, 1.0)
    # zero mean forces P(+2) = 1/3
    assert d.p_plus == pytest.approx(1.0 / 3.0, abs=1e-15)
    rng = np.random.default_rng(1)
    draws = d.sample(rng, 2000)
    assert set(np.unique(draws)) == {-1.0, 2.0}


def test_centered_exponential_lower_bound():
    rng = np.random.default_rng(2)
    draws = CenteredExponential(1.0).sample(rng, 10_000)
    assert np.all(draws >= -1.0)


def test_scalar_sample_advances_stream():
    d = Uniform(1.0)
    rng = np.random.default_rng(3)
    a = d.sample(rng)
    b = d.sample(rng)
    assert isinstance(a, float) and a != b
    rng2 = np.random.default_rng(3)
    assert d.sample(rng2) == a


@pytest.mark.parametrize("dist", ALL, ids=IDS)
def test_mean_is_zero_by_quadrature(dist):
    atoms, cont = oracle_pdf_or_atoms(dist)
    if atoms is not None:
        vals, wts = atoms
        mean = sum(v * w for v, w in zip(vals, wts))
    else:
        pdf, (slo, shi) = cont
        mean, _ = integrate.quad(lambda y: y * pdf(y), slo, shi, limit=200)
    assert abs(mean) <= 1e-10


@pytest.mark.parametrize("dist", ALL, ids=IDS)
def test_sampling_second_moment(dist):
    n = 1_000_000
    rng = np.random.default_rng(12345)
    draws = np.asarray(dist.sample(rng, n), dtype=float)
    ex2 = dist.variance()
    ex4 = dist.abs_moment(4.0)  # finite for every family in ALL
    stderr = math.sqrt((ex4 - ex2 * ex2) / n)
    assert abs(float(np.mean(draws * draws)) - ex2) <= 5.0 * stderr


@pytest.mark.parametrize("nu", [3.01, 3.5, 5.0, 30.0, 1e8])
def test_student_t_draws_follow_the_t_law(nu):
    # Bailey's polar method is exact for every nu, down to the edge of the
    # family and up to the normal limit
    draws = StudentT(nu).sample(np.random.default_rng(2024), 500_000)
    assert np.all(np.isfinite(draws))
    assert sps.kstest(draws, sps.t(nu).cdf).pvalue > 1e-3


def test_student_t_scalar_sample_advances_stream():
    d = StudentT(5.0)
    rng = np.random.default_rng(3)
    a = d.sample(rng)
    b = d.sample(rng)
    assert isinstance(a, float) and a != b
    assert d.sample(np.random.default_rng(3)) == a
    assert d.sample(rng, (3, 4)).shape == (3, 4)


@pytest.mark.parametrize("size", [0, 1, 7, 1000, 4096, (3, 4)])
def test_student_t_draws_follow_the_t_law_at_every_size(size):
    # a column of each size, drawn again and again from one generator and
    # pooled: the refill serves a few slots as well as thousands
    count = int(np.prod(size))
    calls = 0 if count == 0 else -(-20_000 // count)
    for nu in (3.01, 5.0, 1e8):
        rng = np.random.default_rng(606)
        columns = [StudentT(nu).sample(rng, size) for _ in range(max(calls, 1))]
        assert all(np.shape(c) == np.shape(np.empty(size)) for c in columns)
        draws = np.concatenate([np.ravel(c) for c in columns])
        assert np.all(np.isfinite(draws))
        if count:
            assert sps.kstest(draws, sps.t(nu).cdf).pvalue > 1e-3, nu


class _BlocksGiven:
    """A generator whose first ``random`` calls return the given blocks of
    doubles, in order, and whose later ones draw from a real generator;
    it records every size asked."""

    def __init__(self, *blocks):
        self.blocks, self.sizes = [np.array(b) for b in blocks], []
        self.rng = np.random.default_rng(5)

    def random(self, size):
        self.sizes.append(size)
        if not self.blocks:
            return self.rng.random(size)
        assert self.blocks[0].shape == size
        return self.blocks.pop(0)


def _refill_size(r):
    return int(r * (4.0 / math.pi) + 3.0 * math.sqrt(r) + 8.0)


def _polar(r_u, r_v, nu):
    """The Student t step of the doubles ``r_u, r_v``, with ``U, V = 2r - 1``."""
    u, v = 2.0 * r_u - 1.0, 2.0 * r_v - 1.0
    w = u * u + v * v
    return u * math.sqrt(nu * math.expm1(-2.0 / nu * math.log(w)) / w)


def _on_disk_pairs(block):
    """The pairs of a (2, m) block of doubles that fall on the unit disk off its
    centre, in draw order."""
    u, v = 2.0 * block - 1.0
    w = u * u + v * v
    return [tuple(pair) for pair in block.T[(w > 0.0) & (w <= 1.0)]]


def test_student_t_refills_the_pairs_off_the_disk_in_order():
    # doubles r give U, V = 2 r - 1: slot 0 is the centre W = 0, slots 1 and
    # 4 lie off the disk, slots 2 and 3 are on it at W = 0.5625 and 0.5
    first = [[0.5, 0.0, 0.875, 0.25, _BELOW_ONE], [0.5, 0.0, 0.5, 0.75, 0.0]]
    rng = _BlocksGiven(first)
    nu = 5.0
    draws = StudentT(nu).sample(rng, 5)
    m = _refill_size(3)
    assert rng.sizes == [(2, 5), (2, m)]
    assert np.all(np.isfinite(draws))
    # the refill's pairs on the disk, in draw order, fill slots 0, 1 and 4
    refill = _on_disk_pairs(np.random.default_rng(5).random((2, m)))
    for slot, pair in zip((0, 1, 4, 2, 3), refill[:3] + [(0.875, 0.5), (0.25, 0.75)]):
        assert draws[slot] == pytest.approx(_polar(*pair, nu), rel=1e-14)


def test_student_t_refills_again_when_the_first_refill_comes_up_short():
    # slot 0 off the disk and slot 2 at its centre; the refill of m(2) pairs
    # holds one pair on the disk, at index 5, so slot 2 waits for a second
    # refill of m(1) pairs
    first = [[0.0, 0.875, 0.5], [0.0, 0.5, 0.5]]
    refill = np.zeros((2, _refill_size(2)))
    refill[:, 5] = (0.75, 0.5)
    rng = _BlocksGiven(first, refill)
    nu = 5.0
    draws = StudentT(nu).sample(rng, 3)
    assert rng.sizes == [(2, 3), (2, _refill_size(2)), (2, _refill_size(1))]
    assert np.all(np.isfinite(draws))
    second = _on_disk_pairs(np.random.default_rng(5).random((2, _refill_size(1))))
    for slot, pair in zip((0, 1, 2), [(0.75, 0.5), (0.875, 0.5), second[0]]):
        assert draws[slot] == pytest.approx(_polar(*pair, nu), rel=1e-14)


@pytest.mark.parametrize("size", [None, 0, 1, 7, 4096, (3, 5)])
def test_uniform_and_exponential_draws_are_numpys_to_the_bit(size):
    # formed from the generator's doubles and standard exponentials, they
    # must stay numpy's uniform(-a, a) and exponential(1/rate) - 1/rate
    cases = [(Uniform(a), lambda rng, a=a: rng.uniform(-a, a, size))
             for a in (1.0, 0.37, math.sqrt(3.0), 3e5, 1e-300)]
    cases += [(CenteredExponential(rate), lambda rng, s=1.0 / rate: rng.exponential(s, size) - s)
              for rate in (1.0, 0.3, 2.5, 1e-5, 7e4)]
    for dist, numpys in cases:
        got = dist.sample(np.random.Generator(np.random.SFC64(17)), size)
        want = numpys(np.random.Generator(np.random.SFC64(17)))
        assert type(got) is type(want)
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64)), dist


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moment_examples_trivial():
    assert Rademacher(1.0).abs_moment(3.0) == 1.0
    assert Uniform(math.sqrt(3.0)).abs_moment(2.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("rate", [0.3, 1.0, 2.5])
def test_centered_exponential_variance_keeps_the_bits_of_the_second_moment(rate):
    dist = CenteredExponential(rate)
    assert dist.variance() == dist.abs_moment(2.0)


def test_centered_exponential_variance_is_the_inverse_square_to_half_an_ulp():
    # E X^2 through the incomplete gamma functions is up to 2.4 ulps off here
    for rate in np.logspace(-100, 100, 2001).tolist():
        got = CenteredExponential(rate).variance()
        assert abs(Fraction(got) - 1 / Fraction(rate) ** 2) <= Fraction(0.51) * Fraction(math.ulp(got))


def test_uniform_third_moment_closed_form():
    # closed form a^3/4 for a = sqrt(3), checked against quadrature
    d = Uniform(math.sqrt(3.0))
    expected = math.sqrt(3.0) ** 3 / 4.0
    assert expected == pytest.approx(1.2990381056766578, abs=1e-15)
    assert d.abs_moment(3.0) == pytest.approx(expected, abs=1e-12)
    assert oracle_abs_moment(d, 3.0) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("dist", ALL, ids=IDS)
@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
@pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
def test_below_above_decomposition(dist, p, c):
    below = dist.truncated_abs_moment(p, c, "below")
    above = dist.truncated_abs_moment(p, c, "above")
    total = dist.abs_moment(p)
    assert below + above == pytest.approx(total, abs=1e-9, rel=1e-9)


@pytest.mark.parametrize("dist", ALL, ids=IDS)
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_truncated_moments_match_oracle(dist, p):
    for c in (0.05, 0.3, 0.9, 2.0, 7.0):
        got = dist.truncated_abs_moment(p, c, "below")
        want = oracle_abs_moment(dist, p, c, "below")
        assert got == pytest.approx(want, abs=1e-9, rel=1e-8)


UNBOUNDED = [
    StudentT(3.5),
    StudentT(4.5),
    StudentT(7.0),
    CenteredExponential(0.3),
    CenteredExponential(1.0),
    CenteredExponential(2.5),
]


@pytest.mark.parametrize("dist", UNBOUNDED, ids=repr)
@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_truncated_moments_match_mpmath_far_tail(dist, side, p):
    for c in (0.05, 0.3, 1.0, 2.0, 7.0, 30.0, 1e3, 1e6):
        want = mp_truncated_abs_moment(dist, p, c, side)
        got = dist.truncated_abs_moment(p, c, side)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0), c


LEVELS = np.array([0.0, 0.05, 0.3, 0.5, 0.7, 1.0, 1.3, 2.0, 7.0, 30.0, 1e3, 1e6, math.inf])


@pytest.mark.parametrize("dist", ALL, ids=IDS)
@pytest.mark.parametrize("side", ["below", "above"])
def test_array_levels_equal_scalar_calls(dist, side):
    for p in (2.0, 2.5, 3.0):
        values = dist.truncated_abs_moment(p, LEVELS, side)
        scalars = [dist.truncated_abs_moment(p, c, side) for c in LEVELS]
        assert isinstance(values, np.ndarray) and values.shape == LEVELS.shape
        assert all(type(v) is float for v in scalars)
        np.testing.assert_array_equal(values, scalars)
    tails = dist.abs_tail_prob(LEVELS)
    scalar_tails = [dist.abs_tail_prob(float(t)) for t in LEVELS]
    assert all(type(v) is float for v in scalar_tails)
    np.testing.assert_array_equal(tails, scalar_tails)


def _every_branch_truncated(dist, p, c, side):
    """StudentT and CenteredExponential truncated moments with both sides of
    every special function of :mod:`mdlab.special` evaluated at every level,
    each picked per level afterwards."""
    with np.errstate(all="ignore"):  # each side away from where it converges
        if isinstance(dist, StudentT):
            a, b = (p + 1.0) / 2.0, (dist.nu - p) / 2.0
            u, v = dist._split(c)
            lower = u < (a + 1.0) / (a + b + 2.0)
            i, j = special._beta_side(a, b, u, v), special._beta_side(b, a, v, u)
            below, above = np.where(lower, i, 1.0 - j), np.where(lower, 1.0 - i, j)
            return dist.abs_moment(p) * (below if side == "below" else above)
        z = dist.rate * c
        y = np.minimum(z, sys.float_info.max)
        series = y < p + 2.0
        lower, upper = special._gamma_series(p + 1.0, y), special._gamma_side(p + 1.0, y)
        below, above = np.where(series, lower, 1.0 - upper), np.where(series, 1.0 - lower, upper)
    whole = _rising_moment(p, np.ones(1))[0]
    part = np.where(z >= 1.0, whole, _rising_moment(p, np.minimum(z, 1.0)))
    if side == "below":
        units = part + math.gamma(p + 1.0) * below
    else:
        units = (whole - part) + math.gamma(p + 1.0) * above
    return dist.rate**-p * (math.exp(-1.0) * units)


@pytest.mark.parametrize(
    "dist, threshold",
    [(StudentT(nu), math.sqrt(nu)) for nu in (3.5, 5.0, 30.0)]
    + [(CenteredExponential(rate), 1.0 / rate) for rate in (0.3, 1.0, 2.5)],
    ids=repr,
)
@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_truncated_moments_keep_the_bits_of_every_branch(dist, threshold, side, p):
    # each level evaluates only the branch it reads, on both sides of the
    # threshold where the branch switches, and loses no bit to that
    levels = np.concatenate([np.logspace(-6.0, 6.0, 1001), [0.0, threshold, math.inf]])
    values = dist.truncated_abs_moment(p, levels, side)
    assert np.array_equal(values, _every_branch_truncated(dist, p, levels, side))
    assert np.array_equal(values, [dist.truncated_abs_moment(p, c, side) for c in levels])


@settings(max_examples=40, deadline=None)
@given(
    dist=st.sampled_from(ALL),
    p=st.floats(1.0, 4.0),
    c1=st.floats(0.0, 20.0),
    c2=st.floats(0.0, 20.0),
)
def test_below_monotone_above_antitone(dist, p, c1, c2):
    lo, hi = min(c1, c2), max(c1, c2)
    below = dist.truncated_abs_moment(p, np.array([lo, hi]), "below")
    above = dist.truncated_abs_moment(p, np.array([lo, hi]), "above")
    assert below[0] <= below[1] + 1e-12
    assert above[0] >= above[1] - 1e-12


@pytest.mark.parametrize("dist", [CenteredExponential(1.0), StudentT(7.0)])
@pytest.mark.parametrize("c", [1e3, 1e6, 5e11, 1e300])
def test_truncated_below_stable_at_huge_levels(dist, c):
    # the decomposition must stay exact however far out the level sits
    total = dist.abs_moment(3.0)
    below = dist.truncated_abs_moment(3.0, c, "below")
    above = dist.truncated_abs_moment(3.0, c, "above")
    assert below == pytest.approx(total - above, rel=1e-9)
    assert below == pytest.approx(total, rel=1e-6)  # tail mass is tiny out here


def test_student_t_raw_moment_beta_identity():
    # nu^{p/2} G((p+1)/2) G((nu-p)/2) / (sqrt(pi) G(nu/2)) at nu=7, p=3
    d = StudentT(7.0)
    assert d.abs_moment(3.0) == pytest.approx(3.1440968484635165, rel=1e-13)
    assert d.abs_moment(2.0) == pytest.approx(7.0 / 5.0, rel=1e-13)
    assert oracle_abs_moment(d, 3.0) == pytest.approx(3.1440968484635165, rel=1e-8)


_NU_ABOVE_30 = [math.nextafter(30.0, math.inf), 30.5, 31.0, 33.0,
                *np.geomspace(30.0, 1e8, 29)[1:].tolist()]


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
def test_student_t_raw_moment_to_a_few_ulps_at_large_nu(p):
    # above nu = 30 the gamma ratio comes from Stirling's series: a
    # difference of lgamma values was 2.6e-11 off at nu = 1e5
    with mp.workdps(40):
        for nu in _NU_ABOVE_30:
            got = StudentT(nu).abs_moment(p)
            mnu, mp_ = mp.mpf(nu), mp.mpf(p)
            want = (mnu ** (mp_ / 2) * mp.gamma((mp_ + 1) / 2) * mp.gamma((mnu - mp_) / 2)
                    / (mp.sqrt(mp.pi) * mp.gamma(mnu / 2)))
            assert abs(mp.mpf(got) - want) <= 2e-15 * want, (nu, got, want)


@pytest.mark.parametrize("nu", [3.01, 3.5, 5.0, 7.0, 15.0, 29.5, 30.0])
@pytest.mark.parametrize("p", [0.5, 2.0, 2.5, 3.0])
def test_student_t_raw_moment_keeps_its_bits_up_to_nu_30(nu, p):
    # where the pinned moments are: the lgamma difference, bit for bit
    loggamma = (math.lgamma((p + 1.0) / 2.0) + math.lgamma((nu - p) / 2.0)
                - math.lgamma(nu / 2.0) - 0.5 * math.log(math.pi))
    assert StudentT(nu).abs_moment(p) == nu ** (p / 2.0) * math.exp(loggamma)


def test_student_t_infinite_moment_errors():
    d = StudentT(3.5)
    with pytest.raises(InfiniteMomentError):
        d.abs_moment(3.5)
    with pytest.raises(InfiniteMomentError):
        d.truncated_abs_moment(4.0, 1.0, "above")
    with pytest.raises(InfiniteMomentError):
        d.truncated_abs_moment(3.5, math.inf, "below")
    # orders p >= nu are refused on either side; the message names the raw
    # moment, since the one below a finite level is finite
    with pytest.raises(InfiniteMomentError, match=r"^E\|X\|\^4\.0 is infinite"):
        d.truncated_abs_moment(4.0, 1.0, "below")
    assert d.abs_moment(3.4) < math.inf


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("p", [3.5, 4.0])
@pytest.mark.parametrize("c", [0.3, 1.0, 20.0])
def test_student_t_refuses_orders_past_nu(c, p, side):
    with pytest.raises(InfiniteMomentError, match=rf"^E\|X\|\^{re.escape(str(p))} is infinite"):
        StudentT(3.5).truncated_abs_moment(p, c, side)


@pytest.mark.parametrize("dist", ALL, ids=IDS)
def test_abs_tail_prob_matches_oracle(dist):
    atoms, cont = oracle_pdf_or_atoms(dist)
    for t in (0.1, 0.5, 1.0, 2.0, 5.0):
        got = dist.abs_tail_prob(t)
        if atoms is not None:
            vals, wts = atoms
            want = sum(w for v, w in zip(vals, wts) if abs(v) >= t)
        else:
            pdf, (slo, shi) = cont
            want = _oracle_quad(pdf, slo, min(shi, -t)) + _oracle_quad(pdf, max(slo, t), shi)
        assert got == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# tilting
# ---------------------------------------------------------------------------

def _tilted_draws(dist, theta, rng, size):
    """Draws of ``dist`` tilted by ``theta``: a two-point law's as the Monte
    Carlo kernel draws them, raw words below ``up_threshold(theta)``, and
    Uniform's from its ``tilted_sample``."""
    if isinstance(dist, Uniform):
        return dist.tilted_sample(theta, rng, size)
    threshold = np.uint64(dist.up_threshold(theta))
    return np.where(dist.up_draws(rng, threshold, size), dist.a, -dist.b)


def _tilted_mean(dist, theta):
    """The mean of ``dist`` tilted by ``theta``: ``a L(theta a)`` for
    Uniform(a), with the Langevin function ``L``."""
    if isinstance(dist, Uniform):
        return dist.half_width * _langevin(theta * dist.half_width)
    return dist.tilted_mean(theta)


def _tilted_variance(dist, theta):
    """The variance of ``dist`` tilted by ``theta``: ``a^2 L'(theta a)`` for
    Uniform(a), and ``(a + b)^2 q (1 - q)`` for a two-point law on {a, -b},
    with ``q`` its tilted mass of ``a`` from the exponentials themselves."""
    if isinstance(dist, Uniform):
        return dist.half_width**2 * _langevin_slope(theta * dist.half_width)
    up = dist.p_plus * math.exp(theta * dist.a)
    q = up / (up + (1.0 - dist.p_plus) * math.exp(-theta * dist.b))
    return (dist.a + dist.b) ** 2 * q * (1.0 - q)


def test_tilt_zero_is_identity():
    d = Rademacher(1.0)
    assert d.log_mgf(0.0) == 0.0
    assert d.tilted_mean(0.0) == 0.0


def test_rademacher_tilted_probability():
    # forced by the tilt definition: P(+1) = e^t / (e^t + e^-t)
    theta = 0.8
    d = Rademacher(1.0)
    p_plus = math.exp(theta) / (math.exp(theta) + math.exp(-theta))
    assert d.tilted_mean(theta) == pytest.approx(2.0 * p_plus - 1.0, abs=1e-14)
    rng = np.random.default_rng(5)
    draws = _tilted_draws(d, theta, rng, 200_000)
    freq = float(np.mean(draws > 0))
    assert abs(freq - p_plus) <= 5.0 * math.sqrt(p_plus * (1 - p_plus) / 200_000)


def test_uniform_log_mgf_value():
    # log(sinh(sqrt(3))/sqrt(3)), cross-checked by direct quadrature
    d = Uniform(math.sqrt(3.0))
    log_mgf = d.log_mgf(1.0)
    assert log_mgf == pytest.approx(0.45779602090904486, abs=1e-13)
    a = d.half_width
    mgf_quad, _ = integrate.quad(lambda y: math.exp(y) / (2 * a), -a, a)
    assert log_mgf == pytest.approx(math.log(mgf_quad), abs=1e-10)


@pytest.mark.parametrize("dist", BOUNDED, ids=BOUNDED_IDS)
@pytest.mark.parametrize("theta", [0.0, 0.1, 0.5, 1.0, 2.0, -0.7])
def test_log_mgf_derivative_is_tilted_mean(dist, theta):
    h = 1e-5
    deriv = (dist.log_mgf(theta + h) - dist.log_mgf(theta - h)) / (2.0 * h)
    assert deriv == pytest.approx(_tilted_mean(dist, theta), abs=1e-6)


@pytest.mark.parametrize("dist", BOUNDED, ids=BOUNDED_IDS)
@pytest.mark.parametrize("theta", [0.0, 0.1, 0.5, 1.0, 2.0, -0.7])
def test_tilted_mean_derivative_is_tilted_variance(dist, theta):
    h = 1e-5
    deriv = (_tilted_mean(dist, theta + h) - _tilted_mean(dist, theta - h)) / (2.0 * h)
    assert deriv == pytest.approx(_tilted_variance(dist, theta), abs=1e-6)


def _uniform_tilt_exact(z):
    """``log(sinh z / z)``, the Langevin function ``coth z - 1/z`` and its
    derivative ``1/z^2 - 1/sinh^2 z``, to 50 digits."""
    with mp.workdps(50):
        z = mp.mpf(z)
        return (mp.log(mp.sinh(z) / z), mp.coth(z) - 1 / z, 1 / z**2 - 1 / mp.sinh(z) ** 2)


def test_uniform_tilt_arithmetic_matches_50_digits_at_every_tilt():
    # the series below z = 2 and the closed forms from it on are within
    # 6e-16 relative. This picks the switch: the closed form of the variance
    # is 8.6e-16 off at z = 1, and twelve terms of the series fall short at
    # z = 3; the closed form of log(sinh z / z) was 1e8 relative off at 1.1e-8
    dist = Uniform(1.0)
    zs = np.concatenate([np.geomspace(1e-12, 50.0, 300), np.linspace(1.0, 3.0, 201)])
    for z in zs.tolist():
        exact = _uniform_tilt_exact(z)
        for sign in (1.0, -1.0):
            got = (dist.log_mgf(sign * z), sign * _langevin(sign * z), _langevin_slope(sign * z))
            for value, want in zip(got, exact):
                assert abs(value - want) <= 6e-16 * want, (z, sign, value, float(want))


def test_uniform_tilt_arithmetic_at_zero_and_past_overflow():
    dist = Uniform(2.0)
    assert (dist.log_mgf(0.0), _langevin(0.0)) == (0.0, 0.0)
    assert _langevin_slope(0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    # sinh overflows from z = 710 on; the slope is 1/z^2 to the rounding
    for theta in (400.0, 1e6, 1e150):
        z = theta * dist.half_width
        assert _langevin_slope(z) == pytest.approx(1.0 / z**2, rel=1e-15)
        assert _langevin(z) == pytest.approx(1.0 - 1.0 / z, rel=1e-15)


@pytest.mark.parametrize("theta", [354.0, 356.0, 1e6, 1e15])
def test_uniform_tilted_draws_past_the_overflow_of_expm1(theta):
    # expm1(2 theta a) overflows from theta a = 354.9 on: the draws there are
    # a + log(u) / theta, in the support and with the tilted mean, and the
    # draws off the mask stay untilted
    dist, size = Uniform(1.0), 100_000
    where = np.arange(size) % 4 != 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = dist.tilted_sample(theta, np.random.default_rng(21), size, where)
    untilted = dist.tilted_sample(0.0, np.random.default_rng(21), size)
    assert np.all((-1.0 <= draws) & (draws <= 1.0))
    assert np.array_equal(draws[~where], untilted[~where])
    tilted = draws[where]
    # five standard errors, and the rounding of draws next to a = 1
    bound = 5.0 * math.sqrt(_tilted_variance(dist, theta) / tilted.size) + 4.0 * 2.0**-52
    assert abs(float(np.mean(tilted)) - _tilted_mean(dist, theta)) <= bound


@pytest.mark.parametrize("dist", BOUNDED, ids=BOUNDED_IDS)
def test_tilted_mean_strictly_increasing(dist):
    grid = np.linspace(-2.0, 2.0, 17)
    means = [_tilted_mean(dist, t) for t in grid]
    assert all(b > a for a, b in zip(means, means[1:]))


@pytest.mark.parametrize("dist", BOUNDED, ids=BOUNDED_IDS)
def test_tilted_sampling_mean(dist):
    theta = 0.7
    rng = np.random.default_rng(99)
    n = 200_000
    draws = np.asarray(_tilted_draws(dist, theta, rng, n), dtype=float)
    spread = float(np.std(draws))
    assert float(np.mean(draws)) == pytest.approx(
        _tilted_mean(dist, theta), abs=5.0 * spread / math.sqrt(n)
    )


@pytest.mark.parametrize("c", [1e-3, 0.3, 1.0, 7.5])
def test_rademacher_is_the_symmetric_two_point_law(c):
    rad, two = Rademacher(c), TwoPoint(c, c)
    levels = np.array([0.0, 0.5 * c, c, np.nextafter(c, 0.0), 2.0 * c, np.inf])
    for p in (2.0, 2.5, 3.0):
        assert rad.abs_moment(p) == two.abs_moment(p)
        for side in ("below", "above"):
            assert np.array_equal(rad.truncated_abs_moment(p, levels, side),
                                  two.truncated_abs_moment(p, levels, side))
    assert np.array_equal(rad.abs_tail_prob(levels), two.abs_tail_prob(levels))
    for got, want in zip(rad.finite_support(), two.finite_support()):
        assert np.array_equal(got, want)
    assert rad.support_max() == two.support_max() == c
    for theta in (0.3, 2.0):
        assert np.array_equal(_tilted_draws(rad, theta, np.random.default_rng(8), 1000),
                              _tilted_draws(two, theta, np.random.default_rng(8), 1000))
        # Rademacher is the two-point arithmetic, its log_mgf included
        assert abs(rad.log_mgf(theta) - two.log_mgf(theta)) <= 1e-15 * max(1.0, theta * c)
        assert abs(rad.tilted_mean(theta) - two.tilted_mean(theta)) <= 1e-15 * c


def test_rademacher_log_mgf_matches_50_digit_log_cosh():
    # the two-point log_mgf serves Rademacher's weights: relative to the
    # larger of 1 and log cosh(theta c), it was within 1.6e-16 on this grid,
    # where the log1p(exp(-2z)) form of log cosh it replaced was 2.1e-16 off
    for c in (1e-3, 0.3, 1.0, 7.0):
        dist = Rademacher(c)
        for theta in np.geomspace(1e-8, 30.0, 400).tolist():
            with mp.workdps(50):
                want = mp.log(mp.cosh(mp.mpf(theta * c)))
            assert abs(dist.log_mgf(theta) - want) <= 2e-16 * max(1, want), (c, theta)


@pytest.mark.parametrize("dist", [TwoPoint(2.0, 1.0), Rademacher(0.3), TwoPoint(0.5, 4.0)],
                         ids=["twopoint", "rademacher", "skewed"])
@pytest.mark.parametrize("theta", [0.0, 0.4, -1.3, 9.0])
def test_up_threshold_is_the_tilted_up_mass(dist, theta):
    # a raw word below T draws +a: T / 2^64 is P_theta(X = a) to within 2^-64
    p_up = (dist.tilted_mean(theta) + dist.b) / (dist.a + dist.b)
    assert abs(dist.up_threshold(theta) - p_up * 2.0**64) <= 1e-14 * 2.0**64


def test_naive_two_point_draw_is_the_untilted_draw():
    dist = TwoPoint(2.0, 1.0)
    assert np.array_equal(dist.sample(np.random.default_rng(4), 100),
                          _tilted_draws(dist, 0.0, np.random.default_rng(4), 100))
    assert dist.sample(np.random.default_rng(4)) in (2.0, -1.0)


@pytest.mark.parametrize("dist, threshold", [(TwoPoint(1e-160, 1.0), 2**64 - 1),
                                             (TwoPoint(1.0, 1e-160), 0)],
                         ids=["p_plus_rounds_to_1", "p_plus_near_0"])
def test_threshold_ends_fit_a_word_and_draw_in_the_support(dist, threshold):
    # a mass that rounds to 1 would need T = 2^64, one word past the range
    assert dist.up_threshold(0.0) == threshold
    for theta in (0.0, 2.0, -2.0):
        assert 0 <= dist.up_threshold(theta) <= 2**64 - 1
        draws = _tilted_draws(dist, theta, np.random.default_rng(6), 10_000)
        assert set(np.unique(draws)) <= {dist.a, -dist.b}
    assert set(np.unique(dist.sample(np.random.default_rng(6), 10_000))) <= {dist.a, -dist.b}


def test_two_point_draws_are_raw_words_below_the_threshold():
    # one rule serves every two-point draw: a word below T is +a
    dist = TwoPoint(2.0, 1.0)
    words = np.random.default_rng(4).bit_generator.random_raw(100)
    for theta in (0.0, 0.7):
        threshold = np.uint64(dist.up_threshold(theta))
        assert np.array_equal(dist.up_draws(np.random.default_rng(4), threshold, 100),
                              words < threshold)
        assert np.array_equal(_tilted_draws(dist, theta, np.random.default_rng(4), 100),
                              np.where(words < threshold, 2.0, -1.0))
    assert np.array_equal(dist.sample(np.random.default_rng(4), 100),
                          np.where(words < np.uint64(dist.up_threshold(0.0)), 2.0, -1.0))


@pytest.mark.parametrize("dist", [Uniform(1.5)], ids=["uniform"])
def test_tilted_draw_takes_the_tilt_only_where_asked(dist):
    # the draws off the mask are untilted draws from the same doubles
    size, theta = 1000, 0.8
    where = np.arange(size) % 3 != 0
    got = dist.tilted_sample(theta, np.random.default_rng(12), size, where)
    tilted = dist.tilted_sample(theta, np.random.default_rng(12), size)
    untilted = dist.tilted_sample(0.0, np.random.default_rng(12), size)
    assert np.array_equal(got[where], tilted[where])
    assert np.array_equal(got[~where], untilted[~where])
    assert not np.array_equal(tilted, untilted)


@pytest.mark.parametrize("dist", [CenteredExponential(1.0), StudentT(5.0)])
def test_tilt_unbounded_raises(dist):
    # a law of unbounded support has no tilt arithmetic, and the tilt solve
    # refuses it up front, pointing at naive Monte Carlo
    for name in ("log_mgf", "tilted_mean", "tilted_variance", "tilted_sample"):
        assert not hasattr(dist, name), name
    for n, x in ((1, 0.0), (16, 0.5), (1000, 3.0)):
        with pytest.raises(TiltUnsupportedError, match="naive"):
            choose_tilt(SequenceSpec(dist, n), x)

# ---------------------------------------------------------------------------
# construction and literals
# ---------------------------------------------------------------------------

def test_from_literal_round_trip():
    for d in ALL:
        assert from_literal(d.literal()) == d


def test_from_literal_defaults_and_errors():
    assert from_literal({"family": "rademacher"}) == Rademacher(1.0)
    with pytest.raises(ConfigError):
        from_literal({"family": "gauss"})
    with pytest.raises(ConfigError):
        from_literal({"family": "rademacher", "width": 2.0})
    with pytest.raises(ConfigError):
        from_literal({})


@pytest.mark.parametrize(
    "value",
    ["abc", "1.5", None, True, [1.0], {"v": 1.0}, math.nan, math.inf, -math.inf,
     pytest.param(10**400, id="int_past_float_range")],
)
def test_from_literal_rejects_values_that_are_not_finite_numbers(value):
    with pytest.raises(ConfigError, match="twopoint b must be a finite number"):
        from_literal({"family": "twopoint", "a": 2.0, "b": value})


@pytest.mark.parametrize("family", [[], ["rademacher"], {}, 1, 1.5, None, True])
def test_from_literal_rejects_a_family_that_is_not_a_string(family):
    with pytest.raises(ConfigError, match="unknown family"):
        from_literal({"family": family})


def test_from_literal_takes_numbers_as_floats():
    d = from_literal({"family": "twopoint", "a": 2, "b": 1})
    assert d == TwoPoint(2.0, 1.0) and isinstance(d.a, float)
    assert d.literal() == {"family": "twopoint", "a": 2.0, "b": 1.0}


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Rademacher(0.0),
        lambda: Rademacher(-1.0),
        lambda: TwoPoint(0.0, 1.0),
        lambda: TwoPoint(1.0, -2.0),
        lambda: Uniform(0.0),
        lambda: CenteredExponential(-1.0),
        lambda: StudentT(3.0),
    ],
)
def test_parameter_validation(bad):
    with pytest.raises(ConfigError):
        bad()


def test_uniform_refuses_a_support_width_past_the_double_range():
    with pytest.raises(InfeasibleError):
        Uniform(1e308)
    half = Uniform(sys.float_info.max / 2)
    assert half.sample(np.random.default_rng(1), 3).max() <= half.half_width
