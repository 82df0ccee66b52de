"""Link/family composites: values, derivatives, domains, parsing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebicglm import (
    Bernoulli,
    DomainError,
    Gamma,
    InversePower,
    Logit,
    Probit,
    UnsupportedPair,
    compose_link_family,
    eval_mean,
    parse_family,
    parse_link,
    parse_link_family,
)
from helpers import ALL_PAIRS, eta_grid, rel_err


def _h_derivatives(lf, eta):
    """h' and h'' at eta, read from ``newton_terms``; h'' is zeros where it
    vanishes identically."""
    _, _, hp, hpp = lf.newton_terms(np.asarray(eta, dtype=float))
    return hp, np.zeros_like(hp) if hpp is None else hpp


# ---------------------------------------------------------------------------
# spot values
# ---------------------------------------------------------------------------

def test_cloglog_composite_at_zero():
    lf = parse_link_family("cloglog")
    # ln(e - 1)
    assert float(lf.h(0.0)) == pytest.approx(0.5413248546129181, rel=1e-14)


def test_canonical_pairs_are_exactly_identity():
    for link, family in (("logit", "bernoulli"), ("log", "poisson")):
        lf = parse_link_family(link, family)
        eta = np.array([-3.0, 0.7, 1.3, 12.0])
        assert np.array_equal(lf.h(eta), eta)
        _, _, hp, hpp = lf.newton_terms(eta)
        assert np.array_equal(hp, np.ones(4))
        assert hpp is None


def test_eval_mean_values():
    assert float(eval_mean(parse_link_family("logit"), 0.0)) == pytest.approx(0.5)
    assert float(eval_mean(parse_link_family("probit"), 0.0)) == pytest.approx(0.5)
    assert float(eval_mean(parse_link_family("cloglog"), 0.0)) == pytest.approx(
        0.6321205588285577, rel=1e-14
    )


def test_eval_mean_domain_error():
    lf = parse_link_family("identity", "bernoulli")
    with pytest.raises(DomainError):
        eval_mean(lf, 1.5)
    with pytest.raises(DomainError):
        eval_mean(lf, np.array([0.5, -0.1]))


# ---------------------------------------------------------------------------
# grid properties across every supported pair
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("link,family", ALL_PAIRS)
def test_route_consistency(link, family):
    """b'(h(eta)) and g_inverse(eta) must agree on a 100-point grid."""
    lf = parse_link_family(link, family)
    grid = eta_grid(lf, 100)
    via_h = lf.family.b_prime(lf.h(grid))
    via_g = lf.link.g_inverse(grid)
    assert rel_err(via_h, via_g, floor=1e-12) < 1e-10


@pytest.mark.parametrize("link,family", ALL_PAIRS)
def test_h_prime_matches_finite_difference(link, family):
    lf = parse_link_family(link, family)
    grid = eta_grid(lf, 41)
    step = 1e-5
    fd = (lf.h(grid + step) - lf.h(grid - step)) / (2.0 * step)
    assert rel_err(_h_derivatives(lf, grid)[0], fd, floor=1e-6) < 1e-6


@pytest.mark.parametrize("link,family", ALL_PAIRS)
def test_h_double_prime_matches_finite_difference(link, family):
    lf = parse_link_family(link, family)
    grid = eta_grid(lf, 41)
    step = 1e-5
    fd = (_h_derivatives(lf, grid + step)[0]
          - _h_derivatives(lf, grid - step)[0]) / (2.0 * step)
    assert rel_err(_h_derivatives(lf, grid)[1], fd, floor=1e-4) < 1e-5


def _interior_mu(lf, num):
    # keep means strictly inside the family domain so g stays finite
    mu = lf.link.g_inverse(eta_grid(lf, num))
    if lf.family.name == "bernoulli":
        mu = mu[(mu > 1e-12) & (mu < 1.0 - 1e-12)]
    return mu


@pytest.mark.parametrize("link,family", ALL_PAIRS)
def test_g_inverse_roundtrip(link, family):
    lf = parse_link_family(link, family)
    mu = _interior_mu(lf, 50)
    assert mu.size >= 30
    assert rel_err(lf.link.g_inverse(lf.link.g(mu)), mu, floor=1e-12) < 1e-10


@pytest.mark.parametrize("link,family", ALL_PAIRS)
def test_g_strictly_monotone(link, family):
    lf = parse_link_family(link, family)
    mu = _interior_mu(lf, 60)
    g = lf.link.g(np.sort(mu))
    diffs = np.diff(g)
    assert np.all(diffs > 0) or np.all(diffs < 0)


@pytest.mark.parametrize("family", ["bernoulli", "poisson", "gamma"])
def test_family_variance_positive_and_mean_increasing(family):
    fam = parse_family(family)
    theta = np.linspace(-3.0, -0.1, 50) if family == "gamma" else np.linspace(-3, 3, 50)
    assert np.all(fam.mean_and_variance(theta)[1] > 0)
    assert np.all(np.diff(fam.b_prime(theta)) > 0)


# ---------------------------------------------------------------------------
# numerical stability of the cloglog branches
# ---------------------------------------------------------------------------

def test_cloglog_stable_for_large_eta():
    lf = parse_link_family("cloglog")
    eta = np.array([6.0, 20.0, 100.0])
    h = lf.h(eta)
    assert np.all(np.isfinite(h))
    # h(eta) ~ e^eta in the upper tail
    assert h[1] == pytest.approx(math.exp(20.0), rel=1e-12)
    assert float(_h_derivatives(lf, 100.0)[0]) == pytest.approx(math.exp(100.0), rel=1e-12)


def test_cloglog_stable_for_very_negative_eta():
    lf = parse_link_family("cloglog")
    assert float(lf.h(-30.0)) == pytest.approx(-30.0, rel=1e-10)
    hp, hpp = _h_derivatives(lf, -700.0)
    assert float(hp) == 1.0
    assert float(hpp) < 1e-300


def test_probit_tails_stay_finite():
    lf = parse_link_family("probit")
    eta = np.array([-37.0, -8.0, 8.0, 37.0])
    for values in (lf.h(eta), *_h_derivatives(lf, eta)):
        assert np.all(np.isfinite(values))


# ---------------------------------------------------------------------------
# composition table and parsing
# ---------------------------------------------------------------------------

def test_unsupported_pair_raises():
    with pytest.raises(UnsupportedPair):
        compose_link_family(Gamma(), Probit())
    with pytest.raises(UnsupportedPair):
        compose_link_family(Bernoulli(), InversePower(1.0))


def test_gamma_reciprocal_has_zero_curvature():
    lf = parse_link_family("invpower:1", "gamma")
    assert lf.newton_terms(np.array([0.5, 2.0]))[3] is None
    # h(eta) = -eta for the reciprocal link under unit shape
    assert float(lf.h(3.0)) == -3.0


def test_parse_link_invpower():
    link = parse_link("invpower:2")
    assert isinstance(link, InversePower) and link.exponent == 2.0
    with pytest.raises(UnsupportedPair):
        parse_link("invpower:abc")
    with pytest.raises(DomainError):
        InversePower(0.0)
    for exponent in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            InversePower(exponent)
    # mu^(-k) must tell mu = 1/2 from mu = 2 in double precision
    for exponent in (1e-300, 1e-17, -1e-17, 7e-17):
        with pytest.raises(DomainError, match="too close to 0"):
            InversePower(exponent)
    assert InversePower(1e-15).exponent == 1e-15


def test_parse_unknown_names():
    with pytest.raises(UnsupportedPair):
        parse_link("banana")
    with pytest.raises(UnsupportedPair):
        parse_family("cauchy")


def test_parse_default_families():
    assert parse_link_family("cloglog").family.name == "bernoulli"
    assert parse_link_family("log").family.name == "poisson"
    assert parse_link_family("log", "gamma").family.name == "gamma"


def test_gamma_shape_is_one():
    # the log link's g^-1(0) = 1 is the mean b'(h(0)) only at shape 1
    lf = parse_link_family("log", "gamma")
    assert float(lf.family.b_prime(lf.h(0.0))) == float(lf.link.g_inverse(0.0)) == 1.0
    assert repr(Gamma()) == "Gamma()"
    with pytest.raises(TypeError):
        Gamma(shape=2.0)


# ---------------------------------------------------------------------------
# the fused mean and variance must agree with b'(h) and b''(h)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("link,family", ALL_PAIRS)
def test_newton_terms_match_reference_route(link, family):
    # h' and h'' have one statement, newton_terms, which the finite-difference
    # tests above check; mu and sigma2 still have a second route through h
    lf = parse_link_family(link, family)
    grid = eta_grid(lf, 60)
    mu, sigma2, _hp, hpp = lf.newton_terms(grid)
    th = lf.h(grid)
    assert rel_err(mu, lf.family.b_prime(th), floor=1e-12) < 1e-12
    assert rel_err(sigma2, lf.family.mean_and_variance(th)[1], floor=1e-12) < 1e-12


def _response_at(lf, family, grid, rng):
    mu = lf.family.b_prime(lf.h(grid))
    if family == "bernoulli":
        return (rng.random(grid.size) < mu).astype(float)
    if family == "poisson":
        return rng.poisson(mu).astype(float)
    return np.maximum(rng.exponential(mu), 1e-9)


@pytest.mark.parametrize("link,family", ALL_PAIRS)
def test_log_lik_matches_theta_route(link, family):
    lf = parse_link_family(link, family)
    rng = np.random.default_rng(99)
    grid = eta_grid(lf, 50)
    th = lf.h(grid)
    y = _response_at(lf, family, grid, rng)
    lo, hi = lf.family.theta_clip
    thc = np.clip(th, lo, hi)
    ref = float(y @ thc - lf.family.b(thc).sum())
    assert lf.log_lik(grid, y) == pytest.approx(ref, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("link,family", ALL_PAIRS)
def test_log_lik_of_eta_rows(link, family):
    # a C x n eta gives one log-likelihood per row, bit-equal to the 1-D
    # value of that row and so for equal rows
    lf = parse_link_family(link, family)
    rng = np.random.default_rng(7)
    grid = eta_grid(lf, 50)
    y = _response_at(lf, family, grid, rng)
    E = np.vstack([grid, grid[::-1], rng.permutation(grid), grid])
    values = lf.log_lik(E, y)
    assert values.shape == (4,)
    for j in range(4):
        assert values[j] == lf.log_lik(E[j], y)
    assert values[0] == values[3]
    assert lf.log_lik(E[:1], y)[0] == values[0]


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_bernoulli_theta_clip_is_logit_of_the_mean_floor():
    # written as literals, so that the module loads without SciPy
    from scipy import special

    assert Bernoulli.theta_clip == (special.logit(1e-12), special.logit(1 - 1e-12))


@pytest.mark.parametrize("family", ["bernoulli", "poisson", "gamma"])
def test_mean_and_variance_match_independent_formulas(family):
    # b' and b'' written out here, on a theta grid with the theta_clip ends
    fam = parse_family(family)
    lo, hi = fam.theta_clip
    if family == "gamma":
        grid = -np.logspace(-12.0, 12.0, 241)
    else:
        grid = np.linspace(lo, hi, 241)
    t = np.concatenate([grid, [lo, hi]])
    mu, sigma2 = fam.mean_and_variance(t)
    if family == "bernoulli":
        want = (1.0 / (1.0 + np.exp(-t)), np.exp(-np.abs(t)) / (1.0 + np.exp(-np.abs(t))) ** 2)
    elif family == "poisson":
        want = (np.exp(t), np.exp(t))
    else:
        want = (-1.0 / t, t ** -2.0)
    assert rel_err(mu, want[0], floor=1e-300) < 1e-14
    assert rel_err(sigma2, want[1], floor=1e-300) < 1e-14
    assert np.array_equal(_bits(fam.b_prime(t)), _bits(mu))


# ---------------------------------------------------------------------------
# the logistic functions against an extended-precision reference
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps
_WIDE = np.longdouble
_wide_reference = pytest.mark.skipif(
    np.finfo(_WIDE).eps > 1e-18, reason="np.longdouble is no wider than double here")


def _within_4_eps(got, want):
    got = np.asarray(got, dtype=_WIDE)
    return np.all(np.abs(got - want) <= 4 * _EPS * np.abs(want))


def _logit_reference(mu):
    m = np.asarray(mu, dtype=_WIDE)
    # 2 mu - 1 is exact, and so is 1 - mu in the wide type for mu >= 2^-11
    middle = (m >= 0.25) & (m <= 0.75)
    return np.where(middle, 2 * np.arctanh(2 * np.where(middle, m, 0.5) - 1),
                    np.log(m / (1 - m)))


_THETAS = st.lists(
    st.one_of(st.floats(-700.0, 700.0),
              st.sampled_from([0.0, -0.0, *Bernoulli.theta_clip, -700.0, 700.0])),
    min_size=1, max_size=40,
)


@_wide_reference
@settings(max_examples=300, deadline=None)
@given(thetas=_THETAS)
def test_bernoulli_b_mean_and_variance_are_within_4_eps(thetas):
    t = np.array(thetas)
    T = t.astype(_WIDE)
    fam = Bernoulli()
    b = fam.b(t)
    mu, sigma2 = fam.mean_and_variance(t)
    assert _within_4_eps(b, np.log1p(np.exp(T)))
    assert _within_4_eps(mu, 1 / (1 + np.exp(-T)))
    assert _within_4_eps(sigma2, np.exp(-T) / (1 + np.exp(-T)) ** 2)
    assert _within_4_eps(Logit().g_inverse(t), 1 / (1 + np.exp(-T)))
    assert np.array_equal(_bits(sigma2), _bits(fam.mean_and_variance(-t)[1]))
    b_neg = fam.b(-t)
    assert np.all(np.abs((b - b_neg) - t) <= 4 * _EPS * np.maximum(b, b_neg))


@_wide_reference
@settings(max_examples=300, deadline=None)
@given(thetas=_THETAS, means=st.lists(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=20))
def test_logit_is_within_4_eps(thetas, means):
    # at the means of the thetas above (below 1, where logit is finite) and
    # at any mean in (0, 1)
    mu = Bernoulli().b_prime(np.array(thetas))
    mu = np.concatenate([mu[mu < 1.0], means, [0.5, 0.3, 0.65]])
    assert _within_4_eps(Logit().g(mu), _logit_reference(mu))


# |eta| up to 1e3 at steps of 0.05, the central range at steps of 0.001, and
# 1e-300 to 1e3 in geometric steps, on both sides of 0
_CDF_ETA = np.concatenate([np.linspace(0.0, 1e3, 20001), np.linspace(0.0, 8.0, 8001),
                           np.geomspace(1e-300, 1e3, 2001)])
_CDF_ETA = np.concatenate([_CDF_ETA, -_CDF_ETA])


def _cdf_sides(link, eta):
    """(the smaller tail log G(-|eta|), the other side log G(|eta|)) as a
    CDF link's pair computes them."""
    lcdf, lsf = parse_link_family(link)._state(eta)
    return np.where(eta < 0, lcdf, lsf), np.where(eta < 0, lsf, lcdf)


@_wide_reference
def test_cauchit_sides_are_within_4_eps_beyond_the_rounding_of_the_tail():
    # the other side, log1p(-exp(tail)), also carries the tail's own rounding
    # to double, half an ulp of |tail|, which exp turns into a relative
    # error of up to |tail| eps / 2 (4.03 eps at |eta| = 1e3)
    tail, body = _cdf_sides("cauchit", _CDF_ETA)
    a = np.abs(_CDF_ETA).astype(_WIDE)
    pi = 4 * np.arctan(_WIDE(1))
    assert _within_4_eps(tail, np.log(np.arctan2(_WIDE(1), a) / pi))
    want = np.log(np.arctan2(_WIDE(1), -a) / pi)
    err = np.abs(body.astype(_WIDE) - want) / (_EPS * np.abs(want))
    assert np.all(err <= 4 + np.abs(tail) / 2)


def test_probit_states_one_log_ndtr_pass():
    # the tail is SciPy's log_ndtr(-|eta|) bit for bit; the other side, from
    # log1p, is within 24 eps of SciPy's second pass log_ndtr(|eta|) for
    # |eta| <= 8, where half an ulp of |tail| (up to 36) alone is 16 eps
    from scipy import special

    eta = _CDF_ETA[np.abs(_CDF_ETA) <= 8.0]
    tail, body = _cdf_sides("probit", eta)
    assert np.array_equal(_bits(tail), _bits(special.log_ndtr(-np.abs(eta))))
    want = special.log_ndtr(np.abs(eta))
    assert np.all(np.abs(body - want) <= 24 * _EPS * np.abs(want))


@_wide_reference
def test_probit_other_side_is_log1p_of_the_tail_within_4_eps():
    # up to |eta| = 37, where exp(tail) is still a normal double
    eta = _CDF_ETA[np.abs(_CDF_ETA) <= 37.0]
    tail, body = _cdf_sides("probit", eta)
    assert _within_4_eps(body, np.log1p(-np.exp(tail.astype(_WIDE))))


def test_cloglog_tail_cells_leave_the_other_terms_bit_equal():
    # cells below u = 1e-8 take h'' = u / 2 (and h' = 1 once u underflows);
    # that must change no bit of the other cells of the same array
    lf = parse_link_family("cloglog")
    eta = np.linspace(-18.4, 712.0, 2001)  # u from 1.02e-8 to overflow
    tail = np.array([-30.0, -800.0])
    with np.errstate(all="ignore"):
        plain = lf.newton_terms(eta)
        mixed = lf.newton_terms(np.concatenate([eta, tail]))
    for a, b in zip(plain, mixed):
        assert np.array_equal(_bits(a), _bits(b[:-2]))
    u = np.exp(tail)
    assert np.array_equal(mixed[2][-2:], [u[0] / -np.expm1(-u[0]), 1.0])
    assert np.array_equal(mixed[3][-2:], 0.5 * u)


def _eta_cell(lf):
    """Linear predictors that reach every branch of the link arithmetic:
    cloglog's u < 1e-8 tail (eta < -18.43) and u overflow (eta > 709.8),
    the CDF links' far tails, and the clamp ends of a bounded domain."""
    lo, hi = lf.eta_domain
    ends = [v for v in (lo, hi) if math.isfinite(v)]
    near = [e + s for e in ends for s in (-1.0, -1e-10, 0.0, 1e-10, 1.0)]
    return st.one_of(
        st.floats(-40.0, 40.0),
        st.floats(-800.0, -18.5),
        st.floats(709.0, 800.0),
        st.sampled_from(near or [0.0]),
    )


@settings(max_examples=300, deadline=None)
@given(pair=st.sampled_from(ALL_PAIRS), data=st.data())
def test_newton_terms_from_log_lik_state_are_bit_equal(pair, data):
    # the fitter hands log_lik's link state at an accepted eta to the next
    # newton_terms; that must change no bit of what newton_terms gives
    link, family = pair
    lf = parse_link_family(link, family)
    rows = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 8))
    cells = data.draw(st.lists(_eta_cell(lf), min_size=rows * n, max_size=rows * n))
    eta = lf.clip_eta(np.array(cells).reshape(rows, n))
    y = np.array(data.draw(st.lists(_RESPONSES[family], min_size=n, max_size=n)))
    with np.errstate(all="ignore"):
        _, state = lf.log_lik(eta, y, keep_state=True)
        carried = lf.newton_terms(eta, state)
        fresh = lf.newton_terms(eta)
    for a, b in zip(carried, fresh):
        if a is None:
            assert b is None
        else:
            assert np.array_equal(_bits(a), _bits(b))


# ---------------------------------------------------------------------------
# the saturated log-likelihood bounds every fit's (forward_select's stop)
# ---------------------------------------------------------------------------

_RESPONSES = {
    "bernoulli": st.sampled_from([0.0, 1.0]),
    "poisson": st.integers(0, 10**6).map(float),
    "gamma": st.floats(1e-9, 1e9),
}


@settings(max_examples=300, deadline=None)
@given(pair=st.sampled_from(ALL_PAIRS), data=st.data())
def test_log_lik_never_exceeds_saturated(pair, data):
    link, family = pair
    lf = parse_link_family(link, family)
    n = data.draw(st.integers(1, 12))
    y = np.array(data.draw(st.lists(_RESPONSES[family], min_size=n, max_size=n)))
    eta = np.array(data.draw(st.lists(st.floats(-40.0, 40.0), min_size=n, max_size=n)))
    # rows at the link image of y itself, where the bound is tight
    at_y = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    mu = np.clip(y, 1e-6, 1.0 - 1e-6) if family == "bernoulli" else np.maximum(y, 1e-6)
    with np.errstate(all="ignore"):
        eta = np.where(at_y, lf.link.g(mu), eta)
        ll = lf.log_lik(lf.clip_eta(eta), y)
    sat = lf.family.saturated_log_lik(y)
    assert ll <= sat + 1e-9 * (1 + abs(sat))


def test_saturated_log_lik_values():
    y = np.array([0.0, 1.0, 3.0])
    assert Bernoulli().saturated_log_lik(np.array([0.0, 1.0])) == 0.0
    assert parse_family("poisson").saturated_log_lik(y) == pytest.approx(3 * math.log(3) - 4)
    assert Gamma().saturated_log_lik(np.array([1.0, math.e])) == pytest.approx(-3.0)


# ---------------------------------------------------------------------------
# the conjugate floors behind the fitter's weak-duality bounds
# ---------------------------------------------------------------------------

DUAL_PAIRS = [pair for pair in ALL_PAIRS if parse_link_family(*pair).flat_eta is not None]


def _inside_phi(link, u, y, margin=0.0):
    """Where u lies in the domain on which phi_i(u) is finite, at least
    ``margin`` inside its finite ends: y - 1 < u < y under logit; under
    cloglog u < 0 for y = 0 and 0 <= u <= 1 for y = 1."""
    if link == "logit":
        return (u > y - 1.0 + margin) & (u < y - margin)
    return np.where(y == 1.0, (u >= 0.0) & (u <= 1.0), u < -margin)


_DUAL_CELLS = st.one_of(st.floats(-3.0, 3.0), st.floats(allow_nan=True, allow_infinity=True),
                        st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]))


@settings(max_examples=200, deadline=None)
@given(pair=st.sampled_from(DUAL_PAIRS), data=st.data())
def test_dual_clip_moves_u_into_phis_domain_and_leaves_the_rest(pair, data):
    lf = parse_link_family(*pair)
    rows, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 8))
    y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    u = np.array(data.draw(st.lists(_DUAL_CELLS, min_size=rows * n, max_size=rows * n)))
    u = u.reshape(rows, n)
    clipped = u.copy()
    lf.dual_clip(clipped, y)
    nan = np.isnan(u)
    assert np.array_equal(np.isnan(clipped), nan)
    assert _inside_phi(pair[0], clipped, y)[~nan].all()
    # 1e-12 clear of the ends, u is in the domain already and stays as it is
    kept = _inside_phi(pair[0], u, y, 1e-12)
    assert np.array_equal(clipped[kept], u[kept])
    # the floor is finite on the domain, where u log(-u) does not overflow
    with np.errstate(all="ignore"):
        floor = lf.dual_floor(clipped.copy(), y)
    assert np.isfinite(floor[(np.abs(u) <= 1e300).all(axis=1)]).all()


@settings(max_examples=200, deadline=None)
@given(pair=st.sampled_from(DUAL_PAIRS), data=st.data())
def test_dual_floor_lies_below_every_eta_clear_of_the_flat_ends(pair, data):
    # phi_i(u) = inf_eta [u eta - l_i(eta)], so for any eta the floor of
    # sum_i phi_i(u_i) is at most sum_i [u_i eta_i - l_i(eta_i)]. Beyond a
    # flat end the mu floor or theta clip flattens the kernel's l_i, so
    # each eta stays more than 1 inside it
    lf = parse_link_family(*pair)
    hi, lo = lf.flat_eta
    n = data.draw(st.integers(1, 8))
    y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    eta = np.array([data.draw(st.floats(lo + 1.0 + 1e-9, 40.0) if one else
                              st.floats(-40.0, hi - 1.0 - 1e-9)) for one in y == 1.0])
    u = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))[None, :]
    with np.errstate(all="ignore"):
        floor = lf.dual_floor(u, y)[0]  # u is clipped into phi's domain in place
        ll = lf.log_lik(lf.clip_eta(eta), y)
    value = float((u[0] * eta).sum()) - ll
    assert floor <= value + 1e-12 * (1.0 + float(np.abs(u[0] * eta).sum()) + abs(ll))
