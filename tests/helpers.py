"""Shared test utilities: instance generators and independent references."""

from dataclasses import fields

import numpy as np

from ebicglm import Dataset, ModelIndex, ebic_score, fit_mle, parse_link_family
from ebicglm.glm import (DEC_TOL, LaneFits, _beyond, _box, _design, _initial_beta,
                         _lane_gradient, _near_flat, _newton_lanes, _per_lane)
from ebicglm.links import _cloglog_chords
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
# references for the fitting kernel glm._newton_lanes: a many-lane call
# against one one-lane call per lane
# ---------------------------------------------------------------------------

def one_lane_fits(y, A, X, cols, lf, start):
    """``_newton_lanes(y, A, X, cols, lf, start)`` as one one-lane call per
    entry of ``cols``: the reference for the kernel's batching."""
    parts = [_newton_lanes(y, A, X, [j], lf, start) for j in cols]
    return LaneFits(**{
        f.name: np.concatenate([getattr(part, f.name) for part in parts], axis=-1)
        for f in fields(LaneFits)
    })


def check_batching(y, A, X, cols, lf, start, clamped_log_lik=True, pick_only=False,
                   keep=None):
    """``_newton_lanes(y, A, X, cols, lf, start, pick_only, keep)`` and its
    ``one_lane_fits``, once each lane of the first has matched the same lane
    of the second.

    A one-lane call fits its lane in full, pick-only or with ``keep`` or
    not: it has no other lane to compare a bound with. So a lane that the
    batched pick-only call retired is checked only to end, fitted in full,
    strictly below the log-likelihood of the call's pick, and one that a
    call with ``keep`` retired only to end with |own coefficient| strictly
    below the call's cut, the keep-th largest of its exact statistics; it
    passed the rank test. Every other lane is compared as follows.

    Every flag is equal, and so is the finiteness of the log-likelihood.
    Where it is finite, the log-likelihoods agree within tol = 1e-9
    (1 + |ll|), and beta agrees where the likelihood determines it: the
    difference delta has delta' H1 delta / 2 <= tol, with H1 at the one-lane
    beta. Along flat directions (a separating direction, a near-singular
    Hessian) rounding moves beta freely, and this norm lets it. An
    unconverged fit on the eta clamp can creep on by tiny gains (the
    gradient at the clipped eta is that of the unclamped likelihood), so
    rounding decides where it stops, and its beta is not compared; see
    ROADMAP item 3, fits on a bounded link as constrained MLEs. With
    ``clamped_log_lik=False`` neither is its log-likelihood, for callers
    whose clamped fits creep further than the tolerance; their flags are
    still compared.
    """
    got = _newton_lanes(y, A, X, cols, lf, start, pick_only, keep)
    ref = one_lane_fits(y, A, X, cols, lf, start)
    retired = got.retired
    assert pick_only or keep is not None or not retired.any()
    assert not ref.retired.any() and not ref.rank_deficient[retired].any()
    if pick_only:
        assert np.all(ref.log_lik[retired] < usable_log_liks(got).max())
    elif retired.any():
        stats = got.statistics()
        cut = np.sort(stats[np.isfinite(stats)])[::-1][keep - 1]
        assert np.all(np.abs(ref.beta[-1, retired]) < cut)
    for flag in ("rank_deficient", "converged", "quasi_separated", "eta_clamped",
                 "used_fisher_fallback"):
        assert np.array_equal(getattr(got, flag)[~retired], getattr(ref, flag)[~retired]), flag
    finite = np.isfinite(ref.log_lik) & ~retired
    assert np.array_equal(np.isfinite(got.log_lik) & ~retired, finite)
    creeping = ref.eta_clamped & ~ref.converged
    tol = 1e-9 * (1 + np.abs(np.where(finite, ref.log_lik, 0.0)))
    compared = finite if clamped_log_lik else finite & ~creeping
    assert np.all(np.abs(got.log_lik - ref.log_lik)[compared] <= tol[compared])
    lanes = finite & ~creeping
    x = X.T[np.asarray(cols)[lanes]]
    b, delta = ref.beta[:, lanes], got.beta[:, lanes] - ref.beta[:, lanes]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _mu, sigma2, hp, _hpp = lf.newton_terms(
            lf.clip_eta((A @ b[:-1]).T + b[-1][:, None] * x))
    dx = (A @ delta[:-1]).T + delta[-1][:, None] * x
    assert np.all((sigma2 * hp * hp * dx * dx).sum(axis=1) / 2 <= tol[lanes])
    return got, ref


def screen_call(lf, data, include_intercept=True):
    """``screen_mme``'s kernel call, as the arguments (y, A, X, cols, lf,
    start) of ``_newton_lanes``."""
    A = _design(data, ModelIndex((), include_intercept))
    start = _initial_beta(lf, data.y, A.shape[1] + 1, include_intercept)
    return data.y, A, data.X, np.arange(data.p), lf, start


def screen_ranking(fits, d):
    """The ``ScreenResult`` that the fits of ``screen_mme``'s call give:
    |slope| where the fit is usable, -inf elsewhere, ranked largest first
    with ties to the lower index."""
    slope = fits.beta[-1]
    usable = ~fits.rank_deficient & np.isfinite(fits.log_lik) & np.isfinite(slope)
    stats = np.where(usable, np.abs(slope), -np.inf)
    ranked = np.lexsort((np.arange(stats.size), -stats))
    return ScreenResult(ranked_features=ranked, statistics=stats, keep=ranked[:d].copy(),
                        lanes=stats.size, lane_iterations=int(fits.iterations.sum()),
                        retired=int(fits.retired.sum()))


def screen_mme_reference(lf, data, d, include_intercept=True):
    """The marginal screen from one one-lane kernel call per feature: the
    reference for the column-batched ``screen_mme``."""
    return screen_ranking(one_lane_fits(*screen_call(lf, data, include_intercept)), d)


def step_call(lf, data, model, remaining, init):
    """The kernel call of a forward step from ``model`` fitted at ``init``,
    as the arguments (y, A, X, cols, lf, start) of ``_newton_lanes``."""
    return data.y, _design(data, model), data.X, list(remaining), lf, np.append(init, 0.0)


def usable_log_liks(fits):
    """Each lane's log-likelihood, -inf where it failed the rank test or
    is not finite: the ones a forward step ranks."""
    return np.where(fits.rank_deficient | ~np.isfinite(fits.log_lik), -np.inf, fits.log_lik)


def forward_step_reference(lf, data, model, remaining, init):
    """One forward step as one one-lane kernel call per remaining
    candidate: the reference for the candidate-batched step in
    ``forward_select``. Returns the winner (the lowest index among equal
    log-likelihoods, rank-deficient and non-finite fits skipped) and its
    fit, or (-1, None), plus every candidate's log-likelihood (-inf where
    skipped)."""
    fits = one_lane_fits(*step_call(lf, data, model, remaining, init))
    lls = usable_log_liks(fits)
    if lls.max() == -np.inf:
        return -1, None, lls
    best = int(np.argmax(lls))
    return remaining[best], fits.fit(best), lls


def unstopped_forward_path(lf, data, candidates, gammas, max_steps, include_intercept=True):
    """``forward_select`` without its EBIC stop: the oracle for that stop.

    The path is grown one ``_forward_step`` at a time until the step cap,
    n - 2 covariates, the last candidate or a step with no usable fit, and
    ``stop_reason`` names which of these ended it."""
    gammas = tuple(float(g) for g in gammas)
    null_model = ModelIndex((), include_intercept=include_intercept)
    null_fit = fit_mle(lf, data, null_model)
    null_scores = tuple(ebic_score(null_fit, null_model, data.n, data.p, g) for g in gammas)
    steps, model, fit = [], null_model, null_fit
    remaining = sorted(int(c) for c in candidates)
    stop_reason = "max-steps"
    while len(steps) < max_steps:
        if len(steps) >= data.n - 2:
            stop_reason = "size-limit"
            break
        if not remaining:
            stop_reason = "no-candidates"
            break
        step = _forward_step(lf, data, model, fit, remaining, gammas)
        if step is None:
            stop_reason = "no-usable-fit"
            break
        steps.append(step)
        model = ModelIndex(model.indices + (step.feature,), include_intercept)
        fit = step.fit
        remaining.remove(step.feature)
    prefixes = tuple(
        int(np.argmin([null.ebic] + [s.scores[i].ebic for s in steps]))
        for i, null in enumerate(null_scores)
    )
    return SelectionPath(steps, null_fit, null_scores, prefixes, gammas, stop_reason,
                         include_intercept)


# ---------------------------------------------------------------------------
# the screen's cut bound in its first, plainer arithmetic: the reference for
# glm._start_cut_bound
# ---------------------------------------------------------------------------

def dual_floor_reference(lf, u, y):
    """``lf.dual_floor`` by row sums, with log1p under logit: clips the
    C x n u in place and returns each row's floor."""
    lf.dual_clip(u, y)
    if lf.link.name == "logit":
        v = y - u
        return -(v * np.log(v) + (1.0 - v) * np.log1p(-v)).sum(axis=-1)
    one = y == 1.0
    u0, u1 = u[:, ~one], u[:, one]
    return (u0 * (np.log(-u0) - 1.0)).sum(axis=-1) + _cloglog_chords(u1).sum(axis=-1)


def refit_shared_reference(lf, y, A, w, u):
    """Shift u (C x n) in place by w A t, t solving each lane's m x m
    system (A'W_free A) t = -A' clip(u), W_free the weights of the cells
    the clip left in play (t = 0 where LAPACK refuses the system)."""
    if not A.shape[1]:
        return
    clipped = u.copy()
    lf.dual_clip(clipped, y)
    free = np.where(clipped == u, w, 0.0)
    rhs = -(clipped @ A)
    m = A.shape[1]
    iu = np.triu_indices(m)
    gram = np.empty((u.shape[0], m, m))
    gram[:, iu[0], iu[1]] = gram[:, iu[1], iu[0]] = free @ (A[:, iu[0]] * A[:, iu[1]])
    t = _per_lane(np.linalg.solve, gram, rhs[:, :, None])[0][:, :, 0]
    u += w * (t @ A.T)


def start_cut_bound_reference(lf, y, A, x, start, shared, first, c):
    """``glm._start_cut_bound`` on the same arguments, by its first
    arithmetic: the full step's dx, the half-box's dual point as dx plus
    the term (s - new)(x_j - A q), the shared columns refitted by a solve
    per lane, the floors by row sums, and the flat-end test (``_near_flat``)
    on every lane.
    The last entry of ``first`` (each lane's max|x_j|) is not read."""
    eta, ll, r, w = shared
    d, gain, firm, grad, q = first[:5]
    caps = _box(start)
    new = start[-1] + d[-1]
    s = np.where(new < 0.0, -c, c)
    dx = d[:-1].T @ A.T + d[-1][:, None] * x
    tangent = (ll + caps[:-1] @ np.abs(grad[:-1]) - (grad * start[:, None]).sum(axis=0)
               + _beyond(-s, caps[-1], grad[-1]))
    u = q.T @ A.T
    np.subtract(x, u, out=u)
    u *= (s - new)[:, None]
    u += dx
    u *= w
    np.subtract(r, u, out=u)
    refit_shared_reference(lf, y, A, w, u)
    phi = dual_floor_reference(lf, u, y)
    g = _lane_gradient(A, x, u)
    dual = caps[:-1] @ np.abs(g[:-1]) + _beyond(s, caps[-1], g[-1]) - phi
    dual[_near_flat(lf, y, eta, dx)] = np.inf
    bound = np.maximum(dual, tangent)
    retirable = firm & ~(gain <= DEC_TOL * (1 + abs(ll)))
    return np.where(retirable & np.isfinite(bound), bound, np.inf)
