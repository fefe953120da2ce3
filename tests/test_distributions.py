"""Distribution families: moments, sampling, tilting."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy import stats as sps

from mdlab import (
    CenteredExponential,
    Rademacher,
    StudentT,
    TwoPoint,
    Uniform,
    from_literal,
)
from mdlab.errors import ConfigError, InfiniteMomentError, TiltUnsupportedError

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


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moment_examples_trivial():
    assert Rademacher(1.0).abs_moment(3.0) == 1.0
    assert Uniform(math.sqrt(3.0)).abs_moment(2.0) == pytest.approx(1.0, abs=1e-15)


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


@pytest.mark.parametrize("p", [3.5, 4.0])
@pytest.mark.parametrize("c", [0.3, 1.0, 20.0])
def test_student_t_below_matches_mpmath_at_orders_past_nu(p, c):
    d = StudentT(3.5)
    want = mp_truncated_abs_moment(d, p, c, "below")
    assert d.truncated_abs_moment(p, c, "below") == pytest.approx(want, rel=1e-9, abs=0.0)


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


def test_student_t_infinite_moment_errors():
    d = StudentT(3.5)
    with pytest.raises(InfiniteMomentError):
        d.abs_moment(3.5)
    with pytest.raises(InfiniteMomentError):
        d.truncated_abs_moment(4.0, 1.0, "above")
    with pytest.raises(InfiniteMomentError):
        d.truncated_abs_moment(3.5, math.inf, "below")
    # truncated-below moments stay finite at any order
    assert d.truncated_abs_moment(4.0, 1.0, "below") < math.inf
    assert d.abs_moment(3.4) < math.inf


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
    draws = d.tilted_sample(theta, rng, 200_000)
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
    assert deriv == pytest.approx(dist.tilted_mean(theta), abs=1e-6)


@pytest.mark.parametrize("dist", BOUNDED, ids=BOUNDED_IDS)
def test_tilted_mean_strictly_increasing(dist):
    grid = np.linspace(-2.0, 2.0, 17)
    means = [dist.tilted_mean(t) for t in grid]
    assert all(b > a for a, b in zip(means, means[1:]))


@pytest.mark.parametrize("dist", BOUNDED, ids=BOUNDED_IDS)
def test_tilted_sampling_mean(dist):
    theta = 0.7
    rng = np.random.default_rng(99)
    n = 200_000
    draws = np.asarray(dist.tilted_sample(theta, rng, n), dtype=float)
    spread = float(np.std(draws))
    assert float(np.mean(draws)) == pytest.approx(
        dist.tilted_mean(theta), abs=5.0 * spread / math.sqrt(n)
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
        assert np.array_equal(rad.tilted_sample(theta, np.random.default_rng(8), 1000),
                              two.tilted_sample(theta, np.random.default_rng(8), 1000))
        # Rademacher keeps its log-cosh and tanh forms; near theta*c = 0 both
        # forms cancel, so they agree to rounding at the scale of their terms
        assert abs(rad.log_mgf(theta) - two.log_mgf(theta)) <= 1e-15 * max(1.0, theta * c)
        assert abs(rad.tilted_mean(theta) - two.tilted_mean(theta)) <= 1e-15 * c


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
                          dist.tilted_sample(0.0, np.random.default_rng(4), 100))
    assert dist.sample(np.random.default_rng(4)) in (2.0, -1.0)


@pytest.mark.parametrize("dist, threshold", [(TwoPoint(1e-160, 1.0), 2**64 - 1),
                                             (TwoPoint(1.0, 1e-160), 0)],
                         ids=["p_plus_rounds_to_1", "p_plus_near_0"])
def test_threshold_ends_fit_a_word_and_draw_in_the_support(dist, threshold):
    # a mass that rounds to 1 would need T = 2^64, one word past the range
    assert dist.up_threshold(0.0) == threshold
    for theta in (0.0, 2.0, -2.0):
        assert 0 <= dist.up_threshold(theta) <= 2**64 - 1
        draws = dist.tilted_sample(theta, np.random.default_rng(6), 10_000)
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
        assert np.array_equal(dist.tilted_sample(theta, np.random.default_rng(4), 100),
                              np.where(words < threshold, 2.0, -1.0))


@pytest.mark.parametrize("dist", [Uniform(1.5), TwoPoint(2.0, 1.0), Rademacher(0.3)],
                         ids=["uniform", "twopoint", "rademacher"])
def test_tilted_draw_takes_the_tilt_only_where_asked(dist):
    # the draws off the mask are untilted draws from the same random words
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
    with pytest.raises(TiltUnsupportedError):
        dist.log_mgf(0.5)
    with pytest.raises(TiltUnsupportedError):
        dist.tilted_mean(0.5)
    with pytest.raises(TiltUnsupportedError):
        dist.tilted_sample(0.5, np.random.default_rng(0), 4)


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
