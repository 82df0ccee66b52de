"""Likelihood, score, Hessian decomposition and the Newton fitter."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize

from ebicglm import (
    DataError,
    Dataset,
    InvalidArgs,
    ModelIndex,
    RankDeficient,
    c6_diagnostics,
    design_for,
    fit_mle,
    generate_replicate,
    hessian_parts,
    log_likelihood,
    parse_family,
    parse_link_family,
    score,
)
from ebicglm import glm, links
from ebicglm.glm import DEC_TOL, _design, _first_copies, _initial_beta
from helpers import (
    ALL_PAIRS,
    check_batching,
    fd_gradient,
    fd_jacobian,
    irls_logit,
    one_lane_fits,
    random_instance,
    rel_err,
    screen_call,
    step_call,
    usable_log_liks,
)

E = math.e


# ---------------------------------------------------------------------------
# dataset validation
# ---------------------------------------------------------------------------

class TestDataset:
    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            Dataset(np.array([1.0, np.nan]), np.ones((2, 1)))
        with pytest.raises(DataError):
            Dataset(np.array([1.0, 0.0]), np.array([[1.0], [np.inf]]))

    def test_rejects_tiny(self):
        with pytest.raises(DataError):
            Dataset(np.array([1.0]), np.ones((1, 1)))
        with pytest.raises(DataError):
            Dataset(np.array([1.0, 0.0]), np.ones((2, 0)))

    def test_bernoulli_coding_names_row(self):
        data = Dataset(np.array([0.0, 1.0, 2.0]), np.ones((3, 1)))
        lf = parse_link_family("logit")
        with pytest.raises(DataError, match="row 3"):
            lf.family.validate_y(data.y)

    @pytest.mark.parametrize("family,y,message", [
        ("bernoulli", [0.0, 1.0, 2.0], "Bernoulli response must be 0/1; row 3 has y=2.0"),
        ("poisson", [3.0, -1.5, 2.0],
         "Poisson response must be nonnegative; row 2 has y=-1.5"),
        ("gamma", [0.5, 2.0, 0.0], "Gamma response must be positive; row 3 has y=0.0"),
    ])
    def test_response_coding_message(self, family, y, message):
        # the offending value prints as a plain number, not a NumPy repr
        data = Dataset(np.array(y), np.ones((3, 1)))
        with pytest.raises(DataError) as info:
            parse_family(family).validate_y(data.y)
        assert str(info.value) == message

    def test_from_csv_roundtrip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,g1,g2\n1,0.5,2.5\n0,-1.5,0.25\n")
        data = Dataset.from_csv(path)
        assert data.n == 2 and data.p == 2
        assert data.feature_names == ("g1", "g2")
        assert data.X[1, 0] == -1.5

    def test_from_csv_missing_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,g1\n1,0.5\n0,\n")
        with pytest.raises(DataError):
            Dataset.from_csv(path)

    @pytest.mark.parametrize("row,message", [
        ("0,abc", "data row 2: column 'g1' holds 'abc', not a number"),
        ("0, ", "data row 2: column 'g1' is empty"),
        ("0,1.5,2", "data row 2 has 3 columns, the header 2"),
    ])
    def test_from_csv_names_the_data_row_and_column(self, tmp_path, row, message):
        # numpy names such a row by 0-based or 1-based counts depending on
        # the fault; the package counts data rows from 1, a comment line and
        # a blank one not among them
        path = tmp_path / "bad.csv"
        path.write_text(f"y,g1\n# a comment\n1,0.5\n\n{row}\n1,0.25\n")
        with pytest.raises(DataError) as info:
            Dataset.from_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_from_csv_needs_y_first(self, tmp_path):
        path = tmp_path / "noy.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(DataError, match="'y'"):
            Dataset.from_csv(path)


def test_model_index_normalizes():
    m = ModelIndex((5, 1, 3, 1))
    assert m.indices == (1, 3, 5)
    assert m.size == 3
    with pytest.raises(InvalidArgs):
        ModelIndex((-1,))


# ---------------------------------------------------------------------------
# log-likelihood spot values
# ---------------------------------------------------------------------------

def test_loglik_fair_coin_logit():
    # each row with y=1, eta=0 contributes -ln 2
    lf = parse_link_family("logit")
    data = Dataset(np.array([1.0, 1.0]), np.zeros((2, 1)))
    ll = log_likelihood(lf, data, ModelIndex((0,)), np.array([0.0, 0.0]))
    assert ll == pytest.approx(-2.0 * math.log(2.0), rel=1e-14)


def test_loglik_cloglog_zero_response():
    # y=0 at eta=0 contributes -b(h(0)) = -ln(1 + (e-1)) = -1
    lf = parse_link_family("cloglog")
    data = Dataset(np.array([0.0, 0.0]), np.zeros((2, 1)))
    ll = log_likelihood(lf, data, ModelIndex((0,)), np.array([0.0, 0.0]))
    assert ll == pytest.approx(-2.0, rel=1e-12)


@pytest.mark.parametrize("fn", [log_likelihood, score, hessian_parts])
def test_beta_of_the_wrong_length_is_refused(fn):
    # a two-covariate model with an intercept has three coefficients
    lf, data, _, _ = random_instance("cloglog", "bernoulli", n=30, seed=5)
    with pytest.raises(InvalidArgs, match=r"expected \(3,\)"):
        fn(lf, data, ModelIndex((0, 1)), np.zeros(2))


def test_loglik_maximal_at_mle():
    lf, data, model, _ = random_instance("cloglog", "bernoulli", n=60, size=3, seed=11)
    fit = fit_mle(lf, data, model)
    assert fit.converged
    k = fit.beta.size
    for i in range(k):
        for sign in (+1.0, -1.0):
            b = fit.beta.copy()
            b[i] += sign * 1e-3
            assert log_likelihood(lf, data, model, b) <= fit.log_lik + 1e-12


# ---------------------------------------------------------------------------
# score and Hessian against independent oracles
# ---------------------------------------------------------------------------

def test_score_zero_at_perfect_fit():
    # Poisson + log with y = exp(eta) gives zero residuals exactly
    lf = parse_link_family("log", "poisson")
    rng = np.random.default_rng(5)
    X = rng.standard_normal((15, 2))
    beta = np.array([0.3, -0.4, 0.9])
    eta = beta[0] + X @ beta[1:]
    data = Dataset(np.exp(eta), X)
    g = score(lf, data, ModelIndex((0, 1)), beta)
    assert np.allclose(g, 0.0, atol=1e-9)


def test_score_canonical_reduction():
    lf, data, model, beta = random_instance("logit", "bernoulli", n=40, seed=2)
    g = score(lf, data, model, beta)
    X = np.column_stack([np.ones(data.n), data.X[:, :3]])
    mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
    assert np.allclose(g, X.T @ (data.y - mu), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("link,family", ALL_PAIRS)
def test_score_matches_finite_difference(link, family):
    lf, data, model, beta = random_instance(link, family, n=20, size=3, seed=7)
    g = score(lf, data, model, beta)
    fd = fd_gradient(lambda b: log_likelihood(lf, data, model, b), beta)
    assert rel_err(g, fd, floor=1e-4) < 1e-6


@pytest.mark.parametrize("link,family", ALL_PAIRS)
def test_hessian_matches_score_jacobian(link, family):
    lf, data, model, beta = random_instance(link, family, n=20, size=3, seed=13)
    parts = hessian_parts(lf, data, model, beta)
    jac = fd_jacobian(lambda b: score(lf, data, model, b), beta)
    assert rel_err(parts.h1 - parts.h0, -jac, floor=1e-3) < 1e-4


def test_h0_exactly_zero_for_canonical():
    for seed in range(5):
        lf, data, model, beta = random_instance("logit", "bernoulli", seed=seed)
        parts = hessian_parts(lf, data, model, beta)
        assert np.all(parts.h0 == 0.0)


def test_h1_positive_semidefinite_h0_symmetric():
    for link, family in ALL_PAIRS:
        lf, data, model, beta = random_instance(link, family, seed=21)
        parts = hessian_parts(lf, data, model, beta)
        assert np.allclose(parts.h1, parts.h1.T)
        assert np.allclose(parts.h0, parts.h0.T)
        assert np.min(np.linalg.eigvalsh(parts.h1)) > -1e-10


def test_single_point_cloglog_hessian_parts():
    """Two identical rows double the closed-form single-observation values."""
    lf = parse_link_family("cloglog")
    data = Dataset(np.array([1.0, 1.0]), np.ones((2, 1)))
    parts = hessian_parts(lf, data, ModelIndex((0,), include_intercept=False), np.zeros(1))
    mu = 1.0 - math.exp(-1.0)
    hp = E / (E - 1.0)
    hpp = E * (E - 2.0) / (E - 1.0) ** 2
    assert parts.h1[0, 0] == pytest.approx(2.0 * mu * (1 - mu) * hp**2, rel=1e-12)
    assert parts.h0[0, 0] == pytest.approx(2.0 * (1.0 - mu) * hpp, rel=1e-12)


# ---------------------------------------------------------------------------
# the fitter
# ---------------------------------------------------------------------------

def test_null_model_intercept_matches_sample_mean():
    lf = parse_link_family("logit")
    y = np.array([1.0, 0.0, 0.0, 0.0] * 5)
    data = Dataset(y, np.ones((20, 1)))
    fit = fit_mle(lf, data, ModelIndex(()))
    assert fit.converged
    assert fit.beta[0] == pytest.approx(math.log(1.0 / 3.0), abs=1e-9)


def test_fit_is_deterministic():
    lf, data, model, _ = random_instance("probit", "bernoulli", n=80, seed=3)
    a = fit_mle(lf, data, model)
    b = fit_mle(lf, data, model)
    assert np.array_equal(a.beta, b.beta)
    assert a.log_lik == b.log_lik
    assert a.iterations == b.iterations


@pytest.mark.parametrize("include_intercept", [True, False])
@pytest.mark.parametrize("link,family", ALL_PAIRS)
def test_monotone_ascent(link, family, include_intercept):
    # every accepted step raises the log-likelihood, so the fit ends at or
    # above its start
    lf, data, model, _ = random_instance(link, family, n=50, size=3, seed=17)
    model = ModelIndex(model.indices, include_intercept)
    fit = fit_mle(lf, data, model)
    start = _initial_beta(lf, data.y, model.size + include_intercept, include_intercept)
    assert fit.log_lik >= log_likelihood(lf, data, model, start)


@settings(max_examples=150)
@given(pair=st.sampled_from(ALL_PAIRS), seed=st.integers(0, 2**16),
       size=st.sampled_from([0, 1, 3]), include_intercept=st.booleans())
def test_converged_fit_has_a_small_decrement(pair, seed, size, include_intercept):
    # the decrement taken afresh at the returned beta: the gradient from
    # score, solved against H1 - H0, or against H1 where that is not PD
    lf, data, _, _ = random_instance(*pair, n=50, size=3, seed=seed)
    model = ModelIndex(tuple(range(size)), include_intercept)
    fit = fit_mle(lf, data, model)
    assert np.isfinite(fit.log_lik)
    assume(fit.converged and not (fit.quasi_separated or fit.eta_clamped))
    g = score(lf, data, model, fit.beta)
    parts = hessian_parts(lf, data, model, fit.beta)
    try:
        c = np.linalg.cholesky(parts.h1 - parts.h0)
    except np.linalg.LinAlgError:
        c = np.linalg.cholesky(parts.h1)
    z = np.linalg.solve(c, g)  # g' H^-1 g = |z|^2 for H = c c'
    assert z @ z / 2 <= 2 * DEC_TOL * (1 + abs(fit.log_lik))


# the pairs whose log-likelihood is concave in beta: the canonical ones,
# Bernoulli with a log-concave link CDF (Pratt, JASA 1981), and Gamma-log,
# where l(eta) = -y e^-eta - eta
CONCAVE_PAIRS = (("logit", "bernoulli"), ("probit", "bernoulli"), ("cloglog", "bernoulli"),
                 ("log", "poisson"), ("log", "gamma"))


@settings(max_examples=100)
@given(pair=st.sampled_from(CONCAVE_PAIRS), seed=st.integers(0, 2**16),
       size=st.sampled_from([0, 1, 3]), include_intercept=st.booleans())
def test_no_optimizer_beats_a_converged_fit(pair, seed, size, include_intercept):
    # on a concave log-likelihood a converged fit is the maximum: SciPy's
    # trust-region Newton, from the fit's own start, finds nothing higher
    lf, data, _, _ = random_instance(*pair, n=50, size=3, seed=seed)
    model = ModelIndex(tuple(range(size)), include_intercept)
    fit = fit_mle(lf, data, model)
    assume(fit.beta.size and fit.converged and not fit.quasi_separated)

    def hessian(b):
        parts = hessian_parts(lf, data, model, b)
        return parts.h0 - parts.h1

    start = _initial_beta(lf, data.y, fit.beta.size, include_intercept)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        best = minimize(lambda b: -log_likelihood(lf, data, model, b), start,
                        jac=lambda b: -score(lf, data, model, b), hess=hessian,
                        method="trust-exact")
    assert -best.fun <= fit.log_lik + 1e-9 * (1 + abs(fit.log_lik))


def test_matches_irls_on_canonical_logit():
    for seed in range(5):
        lf, data, model, _ = random_instance("logit", "bernoulli", n=60, seed=seed)
        fit = fit_mle(lf, data, model)
        X = np.column_stack([np.ones(data.n), data.X[:, :3]])
        ref = irls_logit(data.y, X)
        assert np.max(np.abs(fit.beta - ref)) < 1e-6


def test_nested_models_never_lose_likelihood():
    lf, data, _, _ = random_instance("cloglog", "bernoulli", n=80, size=4, seed=29)
    small = fit_mle(lf, data, ModelIndex((0, 2)))
    big = fit_mle(lf, data, ModelIndex((0, 1, 2)))
    assert big.log_lik >= small.log_lik - 1e-8


def test_rank_deficient_raises():
    lf = parse_link_family("logit")
    rng = np.random.default_rng(4)
    x = rng.standard_normal(30)
    X = np.column_stack([x, x])  # duplicate columns
    y = (rng.random(30) < 0.5).astype(float)
    with pytest.raises(RankDeficient):
        fit_mle(lf, Dataset(y, X), ModelIndex((0, 1)))


def test_quasi_separation_is_capped_and_flagged():
    lf = parse_link_family("logit")
    x = np.linspace(-2, 2, 40)
    y = (x > 0).astype(float)  # perfectly separated
    data = Dataset(y, x[:, None])
    fit = fit_mle(lf, data, ModelIndex((0,)))
    assert fit.quasi_separated
    assert not fit.converged
    assert np.max(np.abs(fit.beta)) <= 30.0
    assert np.isfinite(fit.log_lik)
    # near-saturated likelihood; the few near-boundary points keep it below 0
    assert fit.log_lik > -1.0


# ---------------------------------------------------------------------------
# the fitter's stop rules, each by its own flag, direction or count
# ---------------------------------------------------------------------------

def test_intercept_only_and_empty_models():
    lf, data, _, _ = random_instance("cloglog", "bernoulli", n=50, seed=3)
    null = fit_mle(lf, data, ModelIndex(()))
    ybar = float(np.mean(data.y))
    # the fit starts at the intercept g(ybar), which is the MLE
    start = float(lf.link.g(ybar))
    assert null.beta[0] == pytest.approx(start, rel=1e-9)
    assert null.log_lik >= log_likelihood(lf, data, ModelIndex(()), [start])
    assert null.converged and null.beta.shape == (1,)
    empty = fit_mle(lf, data, ModelIndex((), include_intercept=False))
    assert empty.beta.shape == (0,) and empty.iterations == 0 and empty.converged
    assert empty.log_lik == log_likelihood(lf, data, ModelIndex((), False), [])


@pytest.mark.parametrize("include_intercept", [True, False])
@pytest.mark.parametrize("link", ["logit", "probit", "cauchit", "cloglog"])
def test_separated_fit_stops_at_the_cap(link, include_intercept):
    # the log-likelihood rises toward 0 along the separating direction, so
    # the fit ends at the last iterate inside the cap, above its start
    lf = parse_link_family(link)
    x = np.linspace(-2, 2, 40)
    data = Dataset((x > 0).astype(float), x[:, None])
    model = ModelIndex((0,), include_intercept)
    fit = fit_mle(lf, data, model)
    assert fit.quasi_separated and not fit.converged
    assert np.abs(fit.beta).max() <= glm.BETA_CAP
    start = _initial_beta(lf, data.y, fit.beta.size, include_intercept)
    assert fit.log_lik > log_likelihood(lf, data, model, start)


@pytest.mark.parametrize("link,family,draw", [
    ("invpower:-1", "poisson", lambda rng, x: rng.poisson(40 + 3 * x)),
    ("invpower:-2", "poisson", lambda rng, x: rng.poisson(np.sqrt(64 + 8 * x))),  # eta = mu^2
    ("invpower:-1", "gamma", lambda rng, x: rng.exponential(40 + 3 * x)),
    # three 1s in 400 rows: g(ybar) = -42.4
    ("cauchit", "bernoulli",
     lambda rng, x: np.isin(np.arange(400), rng.choice(400, 3, replace=False))),
], ids=["poisson-identity", "poisson-square", "gamma-identity", "cauchit"])
def test_a_start_beyond_the_cap_is_exempt_from_it(link, family, draw):
    # the intercept starts at g(ybar) above BETA_CAP; were it capped, the fit
    # could never leave its start. It converges to what BFGS finds
    rng = np.random.default_rng(5)
    x = rng.standard_normal(400)
    lf, data = parse_link_family(link, family), Dataset(draw(rng, x).astype(float), x[:, None])
    model = ModelIndex((0,))
    start = _initial_beta(lf, data.y, 2, True)
    assert abs(start[0]) > glm.BETA_CAP
    fit = fit_mle(lf, data, model)
    assert fit.converged and not fit.quasi_separated and fit.iterations > 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        best = minimize(lambda b: -log_likelihood(lf, data, model, b), start, method="BFGS")
    assert fit.log_lik == pytest.approx(-best.fun, rel=1e-10)
    np.testing.assert_allclose(fit.beta, best.x, rtol=1e-4)


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_an_exempt_coefficient_is_boxed_beyond_its_start(value):
    # cauchit on a constant y starts its intercept at g(ybar) = -+318, past
    # the cap; the log-likelihood rises toward 0 without end along it, so the
    # fit stops at its box, |start| + BETA_CAP, and is flagged as the
    # separated fits of logit and cloglog are
    lf = parse_link_family("cauchit")
    x = np.random.default_rng(0).standard_normal(200)
    data = Dataset(np.full(200, value), x[:, None])
    start = _initial_beta(lf, data.y, 2, True)
    fit = fit_mle(lf, data, ModelIndex((0,)))
    assert fit.quasi_separated and not fit.converged
    assert abs(fit.beta[0]) <= abs(start[0]) + glm.BETA_CAP


@pytest.mark.parametrize("include_intercept", [True, False])
@pytest.mark.parametrize("link", ["identity", "arcsin"])
def test_clamped_fit_is_flagged(link, include_intercept):
    # a column split by the response drives the fitted means onto 0 and 1
    lf = parse_link_family(link)
    rng = np.random.default_rng(0)
    y = (rng.random(40) < 0.5).astype(float)
    X = np.column_stack([np.where(y > 0, 0.3, -0.3), rng.uniform(0.02, 0.08, 40)])
    data, model = Dataset(y, X), ModelIndex((0,), include_intercept)
    fit = fit_mle(lf, data, model)
    assert fit.eta_clamped and np.isfinite(fit.log_lik)
    start = _initial_beta(lf, data.y, fit.beta.size, include_intercept)
    assert fit.log_lik >= log_likelihood(lf, data, model, start)


def test_fisher_fallback_is_flagged():
    # three flipped labels far out on the cauchit tails make H1 - H0
    # indefinite on the way
    lf = parse_link_family("cauchit")
    rng = np.random.default_rng(5)
    X = 3.0 * rng.standard_normal((30, 2))
    y = (X[:, 0] > 0).astype(float)
    flip = rng.choice(30, 3, replace=False)
    y[flip] = 1.0 - y[flip]
    fit = fit_mle(lf, Dataset(y, X), ModelIndex((0, 1)))
    assert fit.used_fisher_fallback and fit.converged


def test_an_indefinite_hessian_steps_by_fisher_scoring():
    # y = 1 far out on the cauchit left tail: there h' ~ 1/|eta| and
    # h'' ~ 1/eta^2, so H0 outweighs H1 and H1 - H0 is not PD. The step
    # then solves H1 d = g itself, not H1 plus the last resort's jitter,
    # at the first iteration and at any later one
    lf = parse_link_family("cauchit")
    rng = np.random.default_rng(1)
    n = 20
    x = rng.standard_normal(n)
    data = Dataset((np.arange(n) < 15).astype(float), x[:, None])
    model, beta = ModelIndex((0,)), np.array([-20.0, 0.5])
    g = score(lf, data, model, beta)
    parts = hessian_parts(lf, data, model, beta)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(parts.h1 - parts.h0)
    A = np.ones((n, 1))
    eta = (beta[0] + beta[1] * x)[None, :]
    _ll, state = lf.log_lik(eta, data.y, keep_state=True)
    for d, _dx, _gain, ok, fell_back, rd, _bound in (
            glm._first_direction(lf, data.y, A, x[None, :], eta, state),
            glm._lane_direction(lf, data.y, A, A * A, np.triu_indices(1), x[None, :], eta,
                                state)):
        assert ok[0] and fell_back[0] and not rd[0]
        assert np.abs(parts.h1 @ d[:, 0] - g).max() <= 1e-12 * np.abs(g).max()


def test_a_fit_that_cannot_meet_the_decrement_test_stalls(monkeypatch):
    # with no decrement small enough to converge, each lane iterates until a
    # step gains nothing, and stops there, near the converged fit
    lf, data, _, _ = random_instance("cloglog", "bernoulli", n=60, size=3, seed=11)
    call = screen_call(lf, data)
    converged = glm._newton_lanes(*call)
    monkeypatch.setattr(glm, "DEC_TOL", 0.0)
    stalled = glm._newton_lanes(*call)
    assert converged.converged.all() and not stalled.converged.any()
    assert np.all(stalled.iterations < glm.MAX_ITER)
    assert np.all(stalled.iterations >= converged.iterations)
    tol = 1e-9 * (1 + np.abs(converged.log_lik))
    assert np.all(np.abs(stalled.log_lik - converged.log_lik) <= tol)


def test_a_fit_stops_at_the_iteration_cap(monkeypatch):
    lf, data, model, _ = random_instance("cloglog", "bernoulli", n=60, size=3, seed=11)
    assert fit_mle(lf, data, model).iterations > 2
    monkeypatch.setattr(glm, "MAX_ITER", 2)
    fit = fit_mle(lf, data, model)
    assert fit.iterations == 2 and not fit.converged


@pytest.mark.parametrize("include_intercept", [True, False])
def test_rank_test_refuses_collinear_designs(include_intercept):
    lf = parse_link_family("cloglog")
    rng = np.random.default_rng(4)
    x = rng.standard_normal(30)
    X = np.column_stack([x, x, np.zeros(30), np.full(30, 0.5), rng.standard_normal(30)])
    data = Dataset((rng.random(30) < 0.5).astype(float), X)
    # a duplicate, a zero column and (with the intercept) a constant
    for indices in ((0, 1), (2, 4), (3, 4)):
        model = ModelIndex(indices, include_intercept)
        if indices != (3, 4) or include_intercept:
            with pytest.raises(RankDeficient):
                fit_mle(lf, data, model)
        else:
            assert fit_mle(lf, data, model).converged


def test_a_refused_stacked_solve_refuses_only_its_lane():
    # potrf accepts v v' (its second pivot rounds to about 1e-8), and the
    # stacked LU solve then meets an exact zero pivot
    v = np.array([3.0, 5 / 7])
    rng = np.random.default_rng(0)
    M = rng.standard_normal((7, 2, 2))
    h = M @ M.transpose(0, 2, 1) + 0.1 * np.eye(2)
    h[3] = np.outer(v, v)
    g = rng.standard_normal((2, 7))
    d, ok = glm._lane_chol_solve(h, g)
    assert np.flatnonzero(~ok).tolist() == [3]
    # every other lane keeps the bits of a stack without the refused one
    alone = np.linalg.solve(h[ok], g.T[ok][:, :, None])[:, :, 0].T
    assert d[:, ok].tobytes() == alone.tobytes()


def test_standard_cauchy_columns_from_a_nonzero_start_raise_nothing():
    # at a lane coefficient of 0.5, heavy-tailed columns give some lanes a
    # numerically rank-one H1 - H0, whose stacked solve LAPACK refuses; it
    # falls through to Fisher scoring for its own lane instead of failing
    # the whole call. Lanes stand at etas of their own only after the first
    # iteration, so a later iteration's direction is taken at such an eta
    lf = parse_link_family("cloglog")
    rng = np.random.default_rng(10)
    n = 64
    y = (rng.random(n) < 0.4).astype(float)
    x = rng.standard_cauchy((8, n))
    A = np.ones((n, 1))
    start = np.array([_initial_beta(lf, y, 1, True)[0], 0.5])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eta = lf.clip_eta(start[0] + start[1] * x)
        _ll, state = lf.log_lik(eta, y, keep_state=True)
        d, _dx, _gain, ok, fell_back, _rd, _bound = glm._lane_direction(
            lf, y, A, A * A, np.triu_indices(1), x, eta, state)
    assert fell_back.any() and np.isfinite(d[:, ok]).all()
    # and a one-lane call, which may start its own coefficient anywhere,
    # fits each column from there
    fits = [glm._newton_lanes(y, A, x.T, [j], lf, start) for j in range(8)]
    assert all(np.isfinite(f.log_lik).all() for f in fits)
    assert any(f.used_fisher_fallback.any() for f in fits)


def test_lanes_that_do_not_share_their_start_are_refused():
    # a nonzero own start gives each lane an eta of its own; only a call of
    # one distinct lane (copies of one column) may start there
    lf = parse_link_family("logit")
    rng = np.random.default_rng(0)
    n = 30
    y = (rng.random(n) < 0.5).astype(float)
    X = rng.standard_normal((n, 3))
    X[:, 2] = X[:, 0]
    A, start = np.ones((n, 1)), np.array([0.0, 0.5])
    with pytest.raises(InvalidArgs, match="do not share one eta"):
        glm._newton_lanes(y, A, X, [0, 1], lf, start)
    fits = glm._newton_lanes(y, A, X, [0, 2], lf, start)
    assert fits.converged.all() and fits.beta[:, 0].tobytes() == fits.beta[:, 1].tobytes()


@pytest.mark.parametrize("include_intercept", [True, False])
@pytest.mark.parametrize("link,family", ALL_PAIRS)
def test_each_lane_of_a_batched_call_matches_its_one_lane_call(link, family,
                                                               include_intercept):
    # the designs [A, x_j] of fit_mle, with every other column beside x_j.
    # An unconverged invpower:-2 Poisson fit on the eta clamp ends where
    # rounding decides, and here its log-likelihood moves with the lanes
    # beside it (up to 2e-3 relative at seed 3), so only its flags are
    # compared; ROADMAP item 3 makes such fits end by a certificate
    clamped_log_lik = (link, family) != ("invpower:-2", "poisson")
    for seed in range(5):
        lf, data, _, _ = random_instance(link, family, n=50, size=3, seed=seed)
        for model in (ModelIndex((2,), include_intercept), ModelIndex((0, 1, 2), include_intercept)):
            X = _design(data, model)
            start = _initial_beta(lf, data.y, X.shape[1], include_intercept)
            A = np.ascontiguousarray(X[:, :-1])
            check_batching(data.y, A, data.X, [2, 3, 4], lf, start, clamped_log_lik)


def test_first_copies_match_a_loop_over_column_bytes():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((12, 9))
    X[:, 4] = X[:, 1]
    X[:, 2] = X[::-1, 1]  # the same word sum as column 1, other bytes
    X[:, 5] = X[::-1, 1]
    X[:, 6], X[:, 7] = 0.0, -0.0  # equal as numbers, not as bytes
    binary = rng.integers(0, 2, size=(6, 40)).astype(float)  # many equal sums
    for M in (X, binary):
        for cols in (np.arange(M.shape[1]), np.array([5, 5, 3, 2, 1, 4, 0])):
            seen = {}
            want = [seen.setdefault(M[:, j].tobytes(), i) for i, j in enumerate(cols)]
            assert _first_copies(M, cols).tolist() == want


def _lane_block(link):
    """The arguments of ``glm._newton_block`` for a block of C = 1024 lanes x
    n = 64 (2^16 cells, the block size), from the shared start of a forward
    step: the intercept at g(ybar) and every lane's own coefficient at 0.
    About a tenth of the responses are 1, so the start's logit weights lie
    well below their peak, and a third of the columns are cubed Cauchy
    draws: some lanes' full steps overshoot, and those lanes halve them."""
    rng = np.random.default_rng(0)
    n, lanes = 64, 1024
    y = (rng.random(n) < 0.1).astype(float)
    x = rng.standard_normal((lanes, n)) * np.linspace(0.1, 4.0, lanes)[:, None]
    x[::3] *= 3.0
    x[1::3] = (2 * y - 1) + rng.standard_normal((len(x[1::3]), n)) * np.linspace(
        0.3, 1.5, len(x[1::3]))[:, None]
    x[2::3] = rng.standard_cauchy((len(x[2::3]), n)) ** 3
    lf = parse_link_family(link)
    A = np.ones((n, 1))
    start = _initial_beta(lf, y, 2, True)
    return y, A, A * A, np.triu_indices(1), x, lf, start


def _run_block(args, pick_only=False):
    """The block's fits, written into a table of its own lanes."""
    y, A, Z, iu, x, lf, start = args
    fits = glm.LaneFits.at_start(start, x.shape[0])
    glm._newton_block(y, A, Z, iu, x, lf, start, fits, np.arange(x.shape[0]), pick_only)
    return fits


def _block_peak(args, pick_only=False):
    """The block's fits and its peak of traced memory."""
    _run_block(args, pick_only)  # warm-up: numpy's first-call allocations
    tracemalloc.start()
    try:
        fits = _run_block(args, pick_only)
        return fits, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("link", ["logit", "cloglog"])
def test_a_block_holds_at_most_12_lane_arrays(link):
    # the lanes leave over many iterations, so the block is compacted, and
    # some iterations halve the step of a few lanes. Each spent C x n array
    # must be freed before the next is made, so the block's peak stays at or
    # below 12 C x n arrays
    args = _lane_block(link)
    lf, x = args[5], args[4]
    fits, peak = _block_peak(args)
    assert peak <= 12 * x.nbytes, peak / x.nbytes
    # the peak covers both moves: lanes left at different iterations, and an
    # iteration tried a halved step on fewer lanes than its full step
    assert np.unique(fits.iterations).size > 1
    calls = []  # per iteration, the lanes of each trial step
    newton_terms, log_lik = lf.newton_terms, lf.log_lik

    def terms_spy(eta, state=None):  # called once per iteration
        calls.append([])
        return newton_terms(eta, state)

    def log_lik_spy(eta, y, keep_state=False):
        if calls:
            calls[-1].append(eta.shape[0])
        return log_lik(eta, y, keep_state)

    lf.newton_terms, lf.log_lik = terms_spy, log_lik_spy
    _run_block(args)
    assert any(0 < c[1] < c[0] for c in calls if len(c) > 1)


@pytest.mark.parametrize("link", ["logit", "cloglog"])
def test_a_pick_only_block_holds_at_most_12_lane_arrays(link):
    # the bounds of the first two iterations add their own C x n arrays; a
    # third of the lanes and more retire, at both iterations
    args = _lane_block(link)
    x = args[4]
    fits, peak = _block_peak(args, pick_only=True)
    assert peak <= 12 * x.nbytes, peak / x.nbytes
    assert fits.retired.sum() > x.shape[0] // 3
    assert set(fits.iterations[fits.retired]) == {1, 2}


@pytest.mark.parametrize("pick_only", [False, True])
@pytest.mark.parametrize("link", ["logit", "cloglog"])
def test_a_block_evaluates_the_newton_terms_once_per_iteration(link, pick_only):
    # a bounded iteration's bound reads the weights its step was solved
    # with, so it evaluates no Newton terms of its own
    args = _lane_block(link)
    lf = args[5]
    calls = []
    newton_terms = lf.newton_terms

    def terms_spy(eta, state=None):
        calls.append(eta.shape[0])
        return newton_terms(eta, state)

    lf.newton_terms = terms_spy
    fits = _run_block(args, pick_only)
    assert len(calls) == fits.iterations.max()
    assert fits.retired.any() == pick_only  # the bounded iterations ran


def _shared_start(y, A, lf, start):
    """The shared eta (1 x n) and link state of lanes that start with their
    own coefficient at 0."""
    eta = lf.clip_eta((A @ start[:-1])[None, :])
    return eta, lf.log_lik(eta, y, keep_state=True)[1]


@pytest.mark.parametrize("link", ["logit", "cloglog"])
def test_the_shared_start_pass_holds_at_most_12_lane_arrays(link):
    # the bounds of every lane from its shared start, one full block of
    # lanes at a time: the product and the dual point's C x n arrays are
    # freed as they are spent
    y, A, _Z, _iu, x, lf, start = _lane_block(link)
    eta, state = _shared_start(y, A, lf, start)
    args = (lf, y, A, x, eta, state, glm._box(start))
    glm._first_direction(*args)  # warm-up
    tracemalloc.start()
    try:
        bound = glm._first_direction(*args)[6]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * x.nbytes, peak / x.nbytes
    assert np.isfinite(bound).sum() > x.shape[0] // 2


# ---------------------------------------------------------------------------
# the weak-duality bound of a pick-only call
# ---------------------------------------------------------------------------

DUAL_LINKS = [link for link, family in ALL_PAIRS
              if parse_link_family(link, family).flat_eta is not None]


def _dual_instance(link, seed, include_intercept=None):
    """A forward step's kernel call (y, A, X, cols, lf, start) on Bernoulli
    data whose candidates include heavy-tailed and wide columns, a column
    split by the response and one split with a few cells far on the wrong
    side, so that fits reach the beta cap and the mu floor. The step starts
    from the fit of 0-2 columns, with an intercept or without (drawn unless
    given)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(15, 60))
    X = rng.standard_normal((n, 8))
    X[:, 1] = rng.standard_cauchy(n)
    X[:, 2] = 10.0 * rng.standard_cauchy(n)
    X[:, 3] *= 20.0
    signal = rng.uniform(-3.0, 3.0) * X[:, 0] + rng.uniform(-2.0, 2.0)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-signal))).astype(float)
    y[:2] = (0.0, 1.0)
    X[:, 4] = (2.0 * y - 1.0) * rng.choice([0.3, 1.0, 3.0])
    X[:, 5] = X[:, 4] + 0.3 * rng.standard_normal(n)
    wrong = rng.random(n) < 0.1
    X[wrong, 5] *= -rng.choice([1.0, 50.0])
    lf = parse_link_family(link)
    data = Dataset(y, X)
    current = sorted(int(j) for j in rng.choice([0, 1, 6, 7], rng.integers(0, 3), replace=False))
    drawn = bool(rng.integers(2))
    include_intercept = drawn if include_intercept is None else include_intercept
    init = fit_mle(lf, data, ModelIndex(current, include_intercept)).beta
    remaining = [j for j in range(8) if j not in current]
    return step_call(lf, data, current, remaining, init, include_intercept)


def _lanes_per_block(mp, call, lanes):
    """Patch ``LANE_BLOCK_CELLS`` so that ``call``'s blocks hold ``lanes``
    lanes (None leaves it as it is): with more than one block, a pick-only
    call bounds its lanes at their shared start."""
    if lanes is not None:
        y, A = call[:2]
        mp.setattr(glm, "LANE_BLOCK_CELLS", lanes * max(y.size, (A.shape[1] + 1) ** 2))


@settings(max_examples=60, deadline=None)
@given(link=st.sampled_from(DUAL_LINKS), seed=st.integers(0, 2**16),
       lanes=st.sampled_from([None, 2]))
def test_every_bound_lies_above_its_lanes_final_log_likelihood(link, seed, lanes):
    # the bounds of a pick-only call, from the shared start or in a block,
    # recorded and then discarded so that no lane retires: each is at least
    # the log-likelihood the lane ends at
    call = _dual_instance(link, seed)
    y, A, X, cols = call[:4]
    bounds = []
    dual_bound = glm._dual_bound

    def record(lf, y, A, x, caps, eta, r, w, dx):
        bound = dual_bound(lf, y, A, x, caps, eta, r, w, dx)
        bounds.append((x.copy(), bound))
        return np.full_like(bound, np.inf)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glm, "_dual_bound", record)
        _lanes_per_block(mp, call, lanes)
        fits = glm._newton_lanes(*call, pick_only=True)
    assert bounds and not fits.retired.any()
    lane_of = {X[:, j].tobytes(): i for i, j in enumerate(cols)}
    for x, bound in bounds:
        final = fits.log_lik[[lane_of[row.tobytes()] for row in x]]
        assert not np.any(bound < final - 1e-9 * (1 + np.abs(final)))


@settings(max_examples=60, deadline=None)
@given(link=st.sampled_from(DUAL_LINKS), seed=st.integers(0, 2**16),
       lanes=st.sampled_from([None, 2]))
def test_no_retired_lane_reaches_the_pick(link, seed, lanes):
    # each lane fitted in full by a one-lane call: a retired lane ends
    # strictly below the pick, and the pick ties the best of them. (Here
    # rounding can move a lane's flags with the lanes beside it, so the
    # other lanes are not compared flag by flag as check_batching does.)
    # With two lanes per block, lanes are also retired at their shared
    # start, before any iteration
    call = _dual_instance(link, seed)
    with pytest.MonkeyPatch.context() as mp:
        _lanes_per_block(mp, call, lanes)
        got = glm._newton_lanes(*call, pick_only=True)
    full = one_lane_fits(*call)
    picked = usable_log_liks(got).max()
    assert np.all(full.log_lik[got.retired] < picked)
    best = usable_log_liks(full).max()
    assert usable_log_liks(full)[np.argmax(usable_log_liks(got))] >= best - 1e-9 * (1 + abs(best))


def test_lanes_retired_at_their_shared_start_report_it():
    # no iteration: the start's beta and log-likelihood, retired, passed the
    # rank test (a lane that fails it enters a block, which flags it)
    at_start = 0
    for link in DUAL_LINKS:
        for seed in range(10):
            call = _dual_instance(link, seed)
            y, A, X, cols, lf, start = call
            with pytest.MonkeyPatch.context() as mp:
                _lanes_per_block(mp, call, 2)
                fits = glm._newton_lanes(*call, pick_only=True)
            zero = fits.iterations == 0
            at_start += zero.sum()
            assert fits.retired[zero].all() and not fits.converged[zero].any()
            assert not (fits.rank_deficient | fits.used_fisher_fallback)[zero].any()
            assert np.all(fits.beta[:, zero] == start[:, None])
            assert np.all(fits.log_lik[zero] == glm._loglik_from_eta(y, A @ start[:-1], lf))
            assert np.array_equal(fits.rank_deficient, one_lane_fits(*call).rank_deficient)
    assert at_start > 0


def _cholesky_rank_deficient(h1):
    """The rank test on a k x k weighted Gram H1 by its Cholesky factor: it
    fails where H1 is not finite, is refused, or has a squared pivot not
    above 1e-10 of its diagonal entry. A pivot can round to +eps on an
    exactly singular matrix, and pivot_i^2 / h1_ii is the weighted 1 - R^2
    of column i against its predecessors, so the test is invariant to
    column scaling."""
    if not np.isfinite(h1).all():
        return True
    try:
        c = np.linalg.cholesky(h1)
    except np.linalg.LinAlgError:
        return True
    return bool(np.any(np.diagonal(c) ** 2 <= 1e-10 * np.diagonal(h1)))


def _check_first_direction(y, A, X, cols, lf, start):
    """``_first_direction`` at the shared start of the lanes [A, x_j]
    against references from ``score`` and ``hessian_parts`` on each lane's
    own design: its rank mask is ``_cholesky_rank_deficient`` of H1, and a
    lane that passes it has a step that solves (H1 - H0) d = g where
    H1 - H0 is positive definite, else H1 d = g (a Fisher fallback), within
    1e-9 relative. Returns the numbers of lanes of each kind and of
    rank-deficient ones."""
    x = X.T[np.asarray(cols)]
    eta, state = _shared_start(y, A, lf, start)
    d, _dx, _gain, ok, fell_back, rank_deficient, _bound = glm._first_direction(
        lf, y, A, x, eta, state)
    counts = {"newton": 0, "fisher": 0, "deficient": 0}
    for j, col in enumerate(x):
        data = Dataset(y, np.column_stack([A, col]))
        model = ModelIndex(range(A.shape[1] + 1), include_intercept=False)
        parts = hessian_parts(lf, data, model, start)
        assert rank_deficient[j] == _cholesky_rank_deficient(parts.h1), j
        if rank_deficient[j]:
            assert not ok[j]
            counts["deficient"] += 1
            continue
        try:
            np.linalg.cholesky(parts.h1 - parts.h0)
            h, kind = parts.h1 - parts.h0, "newton"
        except np.linalg.LinAlgError:
            h, kind = parts.h1, "fisher"
        ref = np.linalg.solve(h, score(lf, data, model, start))
        assert ok[j] and fell_back[j] == (kind == "fisher"), j
        assert np.abs(d[:, j] - ref).max() <= 1e-9 * np.abs(ref).max(), j
        counts[kind] += 1
    return counts


BERNOULLI_LINKS = [link for link, family in ALL_PAIRS
                   if family == "bernoulli" and parse_link_family(link).eta_domain
                   == (-np.inf, np.inf)]


@pytest.mark.parametrize("include_intercept", [True, False])
@pytest.mark.parametrize("link", BERNOULLI_LINKS)
def test_the_first_step_solves_each_lanes_own_system(link, include_intercept):
    counts = Counter()
    for seed in range(20):
        counts.update(_check_first_direction(*_dual_instance(link, seed, include_intercept)))
    # only cauchit's H1 - H0 is indefinite here, at some lanes
    assert counts["newton"] > 100 and (counts["fisher"] > 0) == (link == "cauchit")
    # a screen-shaped call, with columns that fail the rank test: a
    # constant (beside the intercept), a zero column and a column scaled
    # by 1e-3, which passes
    rng = np.random.default_rng(3)
    n = 40
    X = rng.standard_normal((n, 9)) * [1.0, 1.0, 10.0, 1e-3, 1.0, 1.0, 1.0, 1.0, 1.0]
    X[:, 1] = rng.standard_cauchy(n)
    X[:, 4], X[:, 5], X[:, 6] = 2.5, 0.0, X[:, 0]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X[:, 0]))).astype(float)
    lf = parse_link_family(link)
    counts = _check_first_direction(*screen_call(lf, Dataset(y, X), include_intercept))
    assert counts["newton"] >= 7 and counts["deficient"] == (2 if include_intercept else 1)


def _cloglog_phi(u):
    """phi(u) = inf_eta [u eta - l(eta)] for a y = 1 observation under
    cloglog, from the root of l'(eta) = u by ``brentq``, and the size of
    its terms."""
    if u in (0.0, 1.0):
        return 0.0, 1.0
    with np.errstate(over="ignore"):
        eta = brentq(lambda e: np.exp(e) / np.expm1(np.exp(e)) - u, -80.0, 7.0,
                     xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)
    ll = np.log(-np.expm1(-np.exp(eta)))
    return u * eta - ll, 1.0 + abs(u * eta) + abs(ll)


def test_the_cloglog_chord_table_lies_below_phi():
    nodes, _icpt, _slope = links._cloglog_chord_table()
    # distinct nodes strictly inside (0, 1) between the end nodes 0 and 1
    assert nodes[0] == 0.0 and nodes[-1] == 1.0 and np.all(np.diff(nodes) > 0)
    inner = nodes[1:-1:7]
    u = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, 1001), inner, np.nextafter(inner, 0.0),
        np.nextafter(inner, 1.0), 1.0 / (1.0 + np.exp(-np.linspace(-40.0, 40.0, 401))),
        [np.finfo(float).tiny, 1e-300, 1.0 - np.finfo(float).epsneg],
    ]))
    phi, size = np.array([_cloglog_phi(v) for v in u]).T
    low = links._cloglog_chords(u)
    assert np.all(low <= phi + 8 * np.finfo(float).eps * size)
    # and close enough to phi to be of use
    assert np.max(phi - low) <= 1e-4


def test_model_too_large_rejected():
    lf = parse_link_family("logit")
    rng = np.random.default_rng(6)
    data = Dataset((rng.random(5) < 0.5).astype(float), rng.standard_normal((5, 8)))
    with pytest.raises(InvalidArgs):
        fit_mle(lf, data, ModelIndex(tuple(range(6))))


def test_l2_error_shrinks_with_n():
    """Fits of the true model tighten from n=100 to n=500 (consistency trend)."""
    lf = parse_link_family("cloglog")
    errs = {}
    for n in (100, 500):
        design = design_for("S1", n, rho=0.0)
        per_rep = []
        for rep in range(6):
            sim = generate_replicate(design, seed=414, replicate_id=rep)
            model = ModelIndex(sim.true_model.support)
            fit = fit_mle(lf, sim.dataset, model)
            truth = np.concatenate(
                ([0.0], sim.true_model.beta[list(sim.true_model.support)])
            )
            per_rep.append(float(np.linalg.norm(fit.beta - truth)))
        errs[n] = float(np.mean(per_rep))
    assert errs[500] < errs[100]


# ---------------------------------------------------------------------------
# C6-style diagnostics
# ---------------------------------------------------------------------------

class TestC6Diagnostics:
    def test_canonical_second_ratio_not_applicable(self):
        lf, data, _, _ = random_instance("logit", "bernoulli", seed=31)
        rep = c6_diagnostics(lf, data, np.zeros(data.p))
        assert rep.second_ratio is None
        assert rep.second_below_threshold is None

    def test_identical_rows_give_one_over_n(self):
        # Gamma + log at beta0 = 0 has sigma_i^2 = 1, so the ratio is exactly 1/n
        lf = parse_link_family("log", "gamma")
        n = 25
        data = Dataset(np.full(n, 2.0), np.full((n, 1), 3.0))
        rep = c6_diagnostics(lf, data, np.zeros(1))
        assert rep.first_ratio == pytest.approx(1.0 / n, rel=1e-12)

    def test_setting1_values_against_threshold(self):
        design = design_for("S1", 100, rho=0.0)
        sim = generate_replicate(design, seed=99)
        lf = parse_link_family("cloglog")
        rep = c6_diagnostics(lf, sim.dataset, sim.true_model.beta)
        assert rep.n_threshold == pytest.approx(100 ** (-1.0 / 3.0))
        assert rep.first_ratio > 0 and np.isfinite(rep.first_ratio)
        assert rep.second_ratio is not None and rep.second_ratio > 0
        # extreme cloglog observations can drive sigma^2 to underflow
        assert rep.sigma2_min >= 0
        assert rep.sigma2_max <= 0.25
        assert isinstance(rep.first_below_threshold, bool)

    def test_wrong_beta_length(self):
        lf, data, _, _ = random_instance("logit", "bernoulli", seed=1)
        with pytest.raises(InvalidArgs):
            c6_diagnostics(lf, data, np.zeros(data.p + 1))
