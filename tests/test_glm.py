"""Likelihood, score, Hessian decomposition and the Newton fitter."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from ebicglm.glm import DEC_TOL, _design, _first_copies, _initial_beta, _shared_dot
from helpers import (
    ALL_PAIRS,
    assert_same_fit,
    fd_gradient,
    fd_jacobian,
    fit_mle_reference,
    irls_logit,
    random_instance,
    rel_err,
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
            data.validate_for_family(lf.family)

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
            data.validate_for_family(parse_family(family))
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
# fit_mle, a one-lane kernel call, against the _newton oracle
# ---------------------------------------------------------------------------

def _oracle_outcome(lf, data, model):
    """(fit_mle's fit, the oracle's fit) once ``assert_same_fit`` has passed
    on them, or (None, None) where both raise RankDeficient; a one-sided
    raise fails."""
    try:
        ref = fit_mle_reference(lf, data, model)
    except RankDeficient:
        with pytest.raises(RankDeficient):
            fit_mle(lf, data, model)
        return None, None
    got = fit_mle(lf, data, model)
    assert_same_fit(got, ref, lf, data.y, _design(data, model))
    return got, ref


@pytest.mark.parametrize("include_intercept", [True, False])
@pytest.mark.parametrize("link,family", ALL_PAIRS)
def test_fit_mle_matches_oracle(link, family, include_intercept):
    # the null model (intercept-only, or empty without an intercept), one
    # covariate and three, on five draws
    for seed in range(5):
        lf, data, _, _ = random_instance(link, family, n=50, size=3, seed=seed)
        for indices in ((), (0,), (0, 1, 2)):
            _oracle_outcome(lf, data, ModelIndex(indices, include_intercept))


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
def test_separated_fit_matches_oracle_at_the_cap(link, include_intercept):
    lf = parse_link_family(link)
    x = np.linspace(-2, 2, 40)
    data = Dataset((x > 0).astype(float), x[:, None])
    _got, ref = _oracle_outcome(lf, data, ModelIndex((0,), include_intercept))
    assert ref.quasi_separated


@pytest.mark.parametrize("include_intercept", [True, False])
@pytest.mark.parametrize("link", ["identity", "arcsin"])
def test_clamped_fit_matches_oracle(link, include_intercept):
    # a column split by the response drives the fitted means onto 0 and 1
    lf = parse_link_family(link)
    rng = np.random.default_rng(0)
    y = (rng.random(40) < 0.5).astype(float)
    X = np.column_stack([np.where(y > 0, 0.3, -0.3), rng.uniform(0.02, 0.08, 40)])
    _got, ref = _oracle_outcome(lf, Dataset(y, X), ModelIndex((0,), include_intercept))
    assert ref.eta_clamped


def test_fisher_fallback_matches_oracle():
    # three flipped labels far out on the cauchit tails make H1 - H0
    # indefinite on the way
    lf = parse_link_family("cauchit")
    rng = np.random.default_rng(5)
    X = 3.0 * rng.standard_normal((30, 2))
    y = (X[:, 0] > 0).astype(float)
    flip = rng.choice(30, 3, replace=False)
    y[flip] = 1.0 - y[flip]
    _got, ref = _oracle_outcome(lf, Dataset(y, X), ModelIndex((0, 1)))
    assert ref.used_fisher_fallback and ref.converged


@pytest.mark.parametrize("include_intercept", [True, False])
def test_rank_deficient_matches_oracle(include_intercept):
    lf = parse_link_family("cloglog")
    rng = np.random.default_rng(4)
    x = rng.standard_normal(30)
    X = np.column_stack([x, x, np.zeros(30), np.full(30, 0.5), rng.standard_normal(30)])
    data = Dataset((rng.random(30) < 0.5).astype(float), X)
    # a duplicate, a zero column and (with the intercept) a constant
    for indices in ((0, 1), (2, 4), (3, 4)):
        got, _ref = _oracle_outcome(lf, data, ModelIndex(indices, include_intercept))
        assert (got is None) == (indices != (3, 4) or include_intercept)


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


@pytest.mark.parametrize("n,lanes", [(500, 32), (72, 227)])
@pytest.mark.parametrize("q", [1, 2, 5])
def test_shared_products_do_not_depend_on_the_lane_layout(n, lanes, q):
    # the kernel's sums over shared columns come out as they would from an
    # n x C lane array; for one shared column numpy calls BLAS's
    # matrix-vector routine, whose summation order follows the layout
    rng = np.random.default_rng(q)
    M = rng.standard_normal((n, q))
    v = rng.standard_normal((lanes, n))
    want = M.T @ np.ascontiguousarray(v.T)
    assert np.array_equal(_shared_dot(M, v), want)


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
