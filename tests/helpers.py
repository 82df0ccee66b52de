"""Shared test utilities: instance generators and independent oracles."""

import numpy as np
from scipy.linalg.lapack import dposv, dpotrf

from ebicglm import (
    Dataset,
    FitResult,
    ModelIndex,
    RankDeficient,
    ebic_score,
    fit_mle,
    parse_link_family,
)
from ebicglm.glm import BETA_CAP, DEC_TOL, MAX_HALVINGS, MAX_ITER, _design, _initial_beta
from ebicglm.select import ScreenResult, SelectionPath, _forward_step

# (link, family, eta-safe box for random instances)
ALL_PAIRS = (
    ("logit", "bernoulli"),
    ("probit", "bernoulli"),
    ("cauchit", "bernoulli"),
    ("cloglog", "bernoulli"),
    ("identity", "bernoulli"),
    ("arcsin", "bernoulli"),
    ("log", "poisson"),
    ("invpower:-2", "poisson"),
    ("log", "gamma"),
    ("invpower:1", "gamma"),
    ("invpower:2", "gamma"),
)


def eta_grid(lf, num=100):
    """An interior grid of admissible linear predictors for a pair."""
    lo, hi = lf.eta_domain
    lo = max(lo + 0.02, -4.0)
    hi = min(hi - 0.02, 4.0)
    return np.linspace(lo, hi, num)


def random_instance(link_name, family_name, n=20, size=3, seed=0):
    """A small dataset plus model and in-domain beta for derivative checks.

    Covariates and coefficients are scaled so every eta_i stays inside the
    admissible range of the link with margin to spare for finite-difference
    perturbations.
    """
    lf = parse_link_family(link_name, family_name)
    rng = np.random.default_rng(seed)
    lo, hi = lf.eta_domain
    bounded = np.isfinite(lo) or np.isfinite(hi)
    if bounded:
        X = rng.uniform(0.02, 0.08, size=(n, size + 2))
        center = 0.5 * (max(lo, 0.0) + min(hi, 1.5))
        beta = np.concatenate(([center], rng.uniform(-0.4, 0.4, size)))
    else:
        X = rng.standard_normal((n, size + 2))
        beta = np.concatenate(([0.1], rng.uniform(-0.8, 0.8, size)))
    model = ModelIndex(tuple(range(size)))
    eta = beta[0] + X[:, :size] @ beta[1:]
    mu = lf.family.b_prime(lf.h(eta))
    if family_name == "bernoulli":
        y = (rng.random(n) < mu).astype(float)
    elif family_name == "poisson":
        y = rng.poisson(mu).astype(float)
    else:
        y = rng.exponential(mu)
        y = np.maximum(y, 1e-9)
    return lf, Dataset(y, X), model, beta


def fd_gradient(f, beta, step=1e-6):
    """Central finite-difference gradient of a scalar function of beta."""
    beta = np.asarray(beta, dtype=float)
    g = np.empty_like(beta)
    for i in range(beta.size):
        up = beta.copy()
        dn = beta.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (f(up) - f(dn)) / (2.0 * step)
    return g


def fd_jacobian(f, beta, step=1e-5):
    """Central finite-difference Jacobian of a vector function of beta."""
    beta = np.asarray(beta, dtype=float)
    cols = []
    for i in range(beta.size):
        up = beta.copy()
        dn = beta.copy()
        up[i] += step
        dn[i] -= step
        cols.append((f(up) - f(dn)) / (2.0 * step))
    return np.column_stack(cols)


def irls_logit(y, X, tol=1e-12, max_iter=200):
    """Textbook IRLS for the canonical logistic model, independent of the
    package's Newton path; X already carries the intercept column."""
    beta = np.zeros(X.shape[1])
    for _ in range(max_iter):
        eta = X @ beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        z = eta + (y - mu) / w
        wx = X * w[:, None]
        beta_new = np.linalg.solve(X.T @ wx, wx.T @ z)
        if np.max(np.abs(beta_new - beta)) < tol:
            return beta_new
        beta = beta_new
    return beta


def rel_err(a, b, floor=1e-8):
    """Elementwise relative error with an absolute floor for near-zero refs."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.max(np.abs(a - b) / np.maximum(np.abs(b), floor))


# ---------------------------------------------------------------------------
# the oracle fitter: one design at a time, the reference for
# glm._newton_lanes and every fit it gives
# ---------------------------------------------------------------------------

def _chol_solve(A: np.ndarray, g: np.ndarray):
    """Solve A d = g by Cholesky (LAPACK posv); None unless A is
    numerically SPD with a finite solution."""
    if not np.isfinite(A).all():
        return None
    _c, d, info = dposv(A, g, lower=1)
    if info != 0 or not np.isfinite(d).all():
        return None
    return d


def _assert_full_rank(h1: np.ndarray) -> None:
    """Raise RankDeficient unless the weighted Gram h1 is numerically
    full rank. A Cholesky pivot can round to +eps on an exactly singular
    matrix, so the factorization alone is not a reliable test; each squared
    pivot is compared against its own diagonal entry instead."""
    if not np.isfinite(h1).all():
        raise RankDeficient("non-finite weighted Gram matrix")
    c, info = dpotrf(h1, lower=1)
    if info != 0:
        raise RankDeficient("design matrix is rank deficient for this model")
    # pivot_i^2 / h1_ii is the weighted 1 - R^2 of column i against its
    # predecessors, so the test is invariant to column scaling
    piv2 = np.diag(c) ** 2
    if np.any(piv2 <= 1e-10 * np.diag(h1)):
        raise RankDeficient("design matrix is rank deficient for this model")


def _newton(y, X, lf, beta0):
    """Damped Newton ascent with Fisher-scoring fallback and a beta-norm cap,
    under the stop rules of ``glm._newton_lanes``."""
    bounded_eta = lf.eta_domain != (-np.inf, np.inf)
    k = X.shape[1]

    def loglik(eta_arr):
        return lf.log_lik(lf.clip_eta(eta_arr) if bounded_eta else eta_arr, y)

    beta = np.array(beta0, dtype=float)
    eta = X @ beta
    if k == 0:
        # empty design (no intercept, no covariates): eta is identically zero
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ll = loglik(eta)
        return FitResult(
            beta=beta,
            log_lik=ll,
            converged=True,
            iterations=0,
            used_fisher_fallback=False,
        )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ll = loglik(eta)
        converged = False
        fallback = False
        separated = False
        clamped = False
        it = 0
        while it < MAX_ITER:
            it += 1
            eta_c = lf.clip_eta(eta) if bounded_eta else eta
            if bounded_eta and not clamped:
                clamped = bool(np.any(eta_c != eta))
            mu, sigma2, hp, hpp = lf.newton_terms(eta_c)
            resid = y - mu
            grad = X.T @ (resid * hp)
            h1 = X.T @ (X * (sigma2 * hp * hp)[:, None])
            if it == 1:
                _assert_full_rank(h1)
            if not np.isfinite(grad).all():
                break
            if hpp is None:
                h = h1
            else:
                h = h1 - X.T @ (X * (resid * hpp)[:, None])
            d = _chol_solve(h, grad)
            if d is None and h is not h1:
                d = _chol_solve(h1, grad)
                if d is not None:
                    fallback = True
            if d is None:
                jitter = 1e-10 * float(np.trace(h1)) / k
                d = _chol_solve(h1 + jitter * np.eye(k), grad)
                if d is None:
                    break
                fallback = True
            converged = bool(grad @ d / 2 <= DEC_TOL * (1 + abs(ll)))
            # the first step that does not lower the log-likelihood; a
            # converged fit tries only the full step
            dx = X @ d
            for halvings in range(1 if converged else MAX_HALVINGS + 1):
                step = 0.5 ** halvings
                eta_t = eta + step * dx
                ll_t = loglik(eta_t)
                if np.isfinite(ll_t) and ll_t >= ll:
                    break
            else:
                break  # no step accepted
            beta_t = beta + step * d
            if float(np.abs(beta_t).max()) > BETA_CAP:
                separated = True
                break
            if not (converged or ll_t > ll):
                break  # stalled
            beta = beta_t
            eta = eta_t
            ll = ll_t
            if converged:
                break

    return FitResult(
        beta=beta,
        log_lik=ll,
        converged=converged,
        iterations=it,
        used_fisher_fallback=fallback,
        quasi_separated=separated,
        eta_clamped=clamped,
    )


def screen_mme_reference(lf, data, d, include_intercept=True):
    """The marginal screen as one ``_newton`` fit per feature: the oracle
    for the column-batched ``screen_mme``."""
    n, p = data.n, data.p
    stats = np.full(p, -np.inf)
    off = 1 if include_intercept else 0
    design = np.empty((n, 1 + off))
    if include_intercept:
        design[:, 0] = 1.0
    init = _initial_beta(lf, data.y, 1 + off, include_intercept)
    for j in range(p):
        design[:, off] = data.X[:, j]
        try:
            fit = _newton(data.y, design, lf, init)
        except RankDeficient:
            continue
        if np.isfinite(fit.log_lik) and np.isfinite(fit.beta[off]):
            stats[j] = abs(float(fit.beta[off]))
    ranked = np.lexsort((np.arange(p), -stats))
    return ScreenResult(
        ranked_features=ranked,
        statistics=stats,
        keep=ranked[: min(d, p)].copy(),
    )


def forward_step_reference(lf, data, current, remaining, init, include_intercept=True):
    """One forward step as one ``_newton`` fit per remaining candidate: the
    oracle for the candidate-batched step in ``forward_select``. Returns the
    winner (the lowest index among equal log-likelihoods, rank-deficient and
    non-finite fits skipped) and its fit, or (-1, None), plus every
    candidate's log-likelihood (-inf where skipped)."""
    off = 1 if include_intercept else 0
    design = np.empty((data.n, len(current) + off + 1))
    if include_intercept:
        design[:, 0] = 1.0
    design[:, off:-1] = data.X[:, list(current)]
    init = np.append(init, 0.0)
    best_ll, best_feature, best_fit = -np.inf, -1, None
    lls = np.full(len(remaining), -np.inf)
    for i, c in enumerate(remaining):
        design[:, -1] = data.X[:, c]
        try:
            fit = _newton(data.y, design, lf, init)
        except RankDeficient:
            continue
        if np.isfinite(fit.log_lik):
            lls[i] = fit.log_lik
            if fit.log_lik > best_ll:
                best_ll, best_feature, best_fit = fit.log_lik, c, fit
    return best_feature, best_fit, lls


def unstopped_forward_path(lf, data, candidates, gammas, max_steps, include_intercept=True):
    """``forward_select`` without its EBIC stop: the oracle for that stop.

    The path is grown one ``_forward_step`` at a time until the step cap,
    n - 2 covariates, the last candidate or a step with no usable fit, and
    ``stop_reason`` names which of these ended it."""
    gammas = tuple(float(g) for g in gammas)
    null_model = ModelIndex((), include_intercept=include_intercept)
    null_fit = fit_mle(lf, data, null_model)
    null_scores = tuple(ebic_score(null_fit, null_model, data.n, data.p, g) for g in gammas)
    steps, current, beta = [], [], null_fit.beta
    remaining = sorted(int(c) for c in candidates)
    stop_reason = "max-steps"
    while len(steps) < max_steps:
        if len(steps) >= data.n - 2:
            stop_reason = "size-limit"
            break
        if not remaining:
            stop_reason = "no-candidates"
            break
        grown = _forward_step(lf, data, current, beta, remaining, gammas, include_intercept)
        if grown is None:
            stop_reason = "no-usable-fit"
            break
        step, beta = grown
        steps.append(step)
        current.append(step.feature)
        remaining.remove(step.feature)
    prefixes = tuple(
        int(np.argmin([null.ebic] + [s.scores[i].ebic for s in steps]))
        for i, null in enumerate(null_scores)
    )
    return SelectionPath(steps, null_fit, null_scores, prefixes, gammas, stop_reason,
                         include_intercept)


def fit_mle_reference(lf, data, model):
    """``fit_mle`` as one ``_newton`` fit of the whole design from
    ``_initial_beta``'s start: the oracle for its one-lane kernel call."""
    X = _design(data, model)
    start = _initial_beta(lf, data.y, X.shape[1], model.include_intercept)
    return _newton(data.y, X, lf, start)


def assert_same_fit(got, ref, lf, y, X):
    """A kernel fit against the oracle's fit of the design X (response y,
    link-family lf) from the same start.

    The flags ``converged``, ``quasi_separated``, ``eta_clamped`` and
    ``used_fisher_fallback`` are equal. An unconverged fit on the eta clamp
    can creep on by tiny gains (the gradient at the clipped eta is that of
    the unclamped likelihood), so rounding decides where it stops; there
    only the flags are compared. Elsewhere the log-likelihoods agree within
    tol = 1e-9 (1 + |ll|), and beta agrees where the likelihood determines
    it: the difference delta has delta' H1 delta / 2 <= tol, with H1 at the
    oracle's beta. Along flat directions (a separating direction, a
    near-singular Hessian) rounding moves beta freely, and this norm lets
    it.
    """
    for flag in ("converged", "quasi_separated", "eta_clamped", "used_fisher_fallback"):
        assert getattr(got, flag) == getattr(ref, flag), flag
    if got.eta_clamped and not got.converged:
        return
    tol = 1e-9 * (1 + abs(ref.log_lik))
    assert abs(got.log_lik - ref.log_lik) <= tol
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _mu, sigma2, hp, _hpp = lf.newton_terms(lf.clip_eta(X @ ref.beta))
    delta = X @ (got.beta - ref.beta)
    assert delta @ (sigma2 * hp * hp * delta) / 2 <= tol
