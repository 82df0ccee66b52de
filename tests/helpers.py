"""Shared test utilities: instance generators and independent oracles."""

import numpy as np

from ebicglm import Dataset, ModelIndex, RankDeficient, parse_link_family
from ebicglm.glm import _initial_beta, _newton
from ebicglm.select import ScreenResult

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

