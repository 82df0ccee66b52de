"""Log-likelihood, score, Hessian decomposition and the damped-Newton MLE.

The negative Hessian of the log-likelihood splits as H1 - H0 where

    H1 = sum_i b''(h(eta_i)) h'(eta_i)^2 x_i x_i^T      (always PSD)
    H0 = sum_i (y_i - b'(h(eta_i))) h''(eta_i) x_i x_i^T

H0 vanishes identically under canonical links; under non-canonical links it
can make H1 - H0 indefinite, in which case the Newton step falls back to
Fisher scoring on H1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv, dpotrf

from .errors import DataError, InvalidArgs, RankDeficient
from .links import Family, LinkFamily, column_sums


class Dataset:
    """Immutable response vector and covariate matrix.

    CSV layout: header row, first column named ``y``, remaining columns are
    covariates. Missing values are rejected.
    """

    __slots__ = ("y", "X", "feature_names")

    def __init__(self, y, X, feature_names=None):
        y = np.ascontiguousarray(y, dtype=float)
        X = np.ascontiguousarray(X, dtype=float)
        if y.ndim != 1 or X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise DataError(
                f"shape mismatch: y has {y.shape}, X has {X.shape}"
            )
        if y.shape[0] < 2:
            raise DataError("need at least 2 observations")
        if X.shape[1] < 1:
            raise DataError("need at least 1 covariate")
        if not np.all(np.isfinite(y)):
            i = int(np.nonzero(~np.isfinite(y))[0][0])
            raise DataError(f"non-finite response at data row {i + 1}")
        if not np.all(np.isfinite(X)):
            i = int(np.nonzero(~np.isfinite(X).all(axis=1))[0][0])
            raise DataError(f"non-finite covariate at data row {i + 1}")
        if feature_names is not None:
            feature_names = tuple(str(s) for s in feature_names)
            if len(feature_names) != X.shape[1]:
                raise DataError("feature_names length does not match X")
        self.y = y
        self.X = X
        self.feature_names = feature_names
        self.y.setflags(write=False)
        self.X.setflags(write=False)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def validate_for_family(self, family: Family) -> None:
        family.validate_y(self.y)

    def subset(self, rows) -> "Dataset":
        rows = np.asarray(rows, dtype=int)
        return Dataset(self.y[rows], self.X[rows, :], self.feature_names)

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header:
                raise DataError(f"{path}: empty file")
            names = [c.strip().strip('"').strip("'") for c in header.split(",")]
            if not names or names[0].lower() != "y":
                raise DataError(
                    f"{path}: first CSV column must be named 'y', got {names[0]!r}"
                )
            try:
                body = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=float)
            except ValueError as exc:
                raise DataError(f"{path}: missing or unparseable value: {exc}") from None
        if body.size == 0:
            raise DataError(f"{path}: no data rows")
        if body.shape[1] != len(names):
            raise DataError(
                f"{path}: header has {len(names)} columns, rows have {body.shape[1]}"
            )
        return cls(body[:, 0], body[:, 1:], feature_names=names[1:])

    def __repr__(self):
        return f"Dataset(n={self.n}, p={self.p})"


@dataclass(frozen=True)
class ModelIndex:
    """A candidate model: sorted duplicate-free covariate column indices."""

    indices: tuple
    include_intercept: bool = True

    def __post_init__(self):
        idx = tuple(sorted(set(int(i) for i in self.indices)))
        if any(i < 0 for i in idx):
            raise InvalidArgs(f"negative column index in {idx}")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        """Number of covariates |s| (the intercept is not counted)."""
        return len(self.indices)


@dataclass(frozen=True)
class FitOptions:
    tol: float = 1e-8
    max_iter: int = 100
    beta_cap: float = 30.0
    max_halvings: int = 30


@dataclass
class FitResult:
    """MLE output; ``beta`` is laid out as [intercept?, covariates in index order]."""

    beta: np.ndarray
    log_lik: float
    converged: bool
    iterations: int
    grad_norm: float
    used_fisher_fallback: bool
    quasi_separated: bool = False
    eta_clamped: bool = False
    loglik_path: tuple = ()


@dataclass
class HessianParts:
    h1: np.ndarray
    h0: np.ndarray


def _design(data: Dataset, model: ModelIndex) -> np.ndarray:
    if model.indices and model.indices[-1] >= data.p:
        raise InvalidArgs(
            f"column index {model.indices[-1]} out of range for p={data.p}"
        )
    if model.size > data.n - 1:
        raise InvalidArgs(f"|s|={model.size} too large for n={data.n}")
    k = model.size + (1 if model.include_intercept else 0)
    X = np.empty((data.n, k), dtype=float)
    off = 0
    if model.include_intercept:
        X[:, 0] = 1.0
        off = 1
    if model.size:
        X[:, off:] = data.X[:, list(model.indices)]
    return X


def _loglik_from_eta(y: np.ndarray, eta: np.ndarray, lf: LinkFamily) -> float:
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return lf.log_lik(lf.clip_eta(eta), y)


def log_likelihood(lf: LinkFamily, data: Dataset, model: ModelIndex, beta) -> float:
    """l_n(beta) = sum_i [y_i h(eta_i) - b(h(eta_i))] with clamping policy."""
    X = _design(data, model)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (X.shape[1],):
        raise InvalidArgs(f"beta has shape {beta.shape}, expected ({X.shape[1]},)")
    return _loglik_from_eta(data.y, X @ beta, lf)


def score(lf: LinkFamily, data: Dataset, model: ModelIndex, beta) -> np.ndarray:
    """Gradient of the log-likelihood at beta."""
    X = _design(data, model)
    beta = np.asarray(beta, dtype=float)
    eta = lf.clip_eta(X @ beta)
    th = lf.h(eta)
    resid = data.y - lf.family.b_prime(th)
    return X.T @ (resid * lf.h_prime(eta))


def hessian_parts(lf: LinkFamily, data: Dataset, model: ModelIndex, beta) -> HessianParts:
    """The PSD part H1 and the correction H0 (H = H1 - H0 = -d2 loglik)."""
    X = _design(data, model)
    beta = np.asarray(beta, dtype=float)
    eta = lf.clip_eta(X @ beta)
    th = lf.h(eta)
    hp = lf.h_prime(eta)
    w1 = lf.family.b_double_prime(th) * hp * hp
    h1 = X.T @ (X * w1[:, None])
    if lf.h_curvature_zero:
        h0 = np.zeros_like(h1)
    else:
        w0 = (data.y - lf.family.b_prime(th)) * lf.h_double_prime(eta)
        h0 = X.T @ (X * w0[:, None])
    return HessianParts(h1=h1, h0=h0)


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


def _newton(y, X, lf, beta0, opts):
    """Damped Newton ascent with Fisher-scoring fallback and a beta-norm cap."""
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
            grad_norm=0.0,
            used_fisher_fallback=False,
            loglik_path=(ll,),
        )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ll = loglik(eta)
        trace = [ll]
        converged = False
        fallback = False
        separated = False
        clamped = False
        gnorm = np.inf
        flat_steps = 0
        it = 0
        while it < opts.max_iter:
            it += 1
            eta_c = lf.clip_eta(eta) if bounded_eta else eta
            if bounded_eta and not clamped:
                clamped = bool(np.any(eta_c != eta))
            mu, sigma2, hp, hpp = lf.newton_terms(eta_c)
            resid = y - mu
            grad = X.T @ (resid * hp)
            gnorm = float(np.abs(grad).max()) if k else 0.0
            h1 = None
            if it == 1:
                h1 = X.T @ (X * (sigma2 * hp * hp)[:, None])
                _assert_full_rank(h1)
            if not np.isfinite(gnorm):
                gnorm = np.inf
                break
            if gnorm < opts.tol:
                converged = True
                break
            if h1 is None:
                h1 = X.T @ (X * (sigma2 * hp * hp)[:, None])
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
            dx = X @ d
            step = 1.0
            accepted = False
            for _ in range(opts.max_halvings + 1):
                eta_t = eta + step * dx
                ll_t = loglik(eta_t)
                # equality is allowed so Newton can polish the gradient once
                # improvements drop below float resolution of the loglik
                if np.isfinite(ll_t) and ll_t >= ll:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            if ll_t == ll:
                flat_steps += 1
                if flat_steps > 2:
                    break
            else:
                flat_steps = 0
            beta_t = beta + step * d
            if float(np.abs(beta_t).max()) > opts.beta_cap:
                separated = True
                break
            beta = beta_t
            eta = eta_t
            ll = ll_t
            trace.append(ll)

    return FitResult(
        beta=beta,
        log_lik=ll,
        converged=converged,
        iterations=it,
        grad_norm=gnorm,
        used_fisher_fallback=fallback,
        quasi_separated=separated,
        eta_clamped=clamped,
        loglik_path=tuple(trace),
    )


# Per-column small systems for the column-batched fit: a symmetric matrix is
# the tuple (a,) for k = 1 or (a00, a10, a11) for k = 2, each entry a vector
# with one value per column.

def _lane_cholesky(h):
    """Closed-form Cholesky factor, same layout as h, and the mask of
    columns where h is finite with positive pivots (LAPACK's potrf test)."""
    if len(h) == 1:
        (a,) = h
        return (np.sqrt(a),), np.isfinite(a) & (a > 0)
    a00, a10, a11 = h
    l00 = np.sqrt(a00)
    l10 = a10 / l00
    s = a11 - l10 * l10
    ok = np.isfinite(a00) & np.isfinite(a10) & np.isfinite(a11) & (a00 > 0) & (s > 0)
    return (l00, l10, np.sqrt(s)), ok


def _lane_rank_deficient(h1):
    """Per-column form of ``_assert_full_rank``: True where it would raise."""
    c, ok = _lane_cholesky(h1)
    bad = ~ok
    for i in ((0,) if len(h1) == 1 else (0, 2)):
        bad |= c[i] * c[i] <= 1e-10 * h1[i]
    return bad


def _lane_chol_solve(h, g):
    """Per-column form of ``_chol_solve``: (d as a k x C array, mask of
    columns where h is numerically SPD and d finite)."""
    c, ok = _lane_cholesky(h)
    if len(h) == 1:
        d = np.array([g[0] / c[0] / c[0]])
    else:
        l00, l10, l11 = c
        z0 = g[0] / l00
        d1 = (g[1] - l10 * z0) / l11 / l11
        d = np.array([(z0 - l10 * d1) / l00, d1])
    return d, ok & np.isfinite(d).all(axis=0)


def _lane_gram(x, w, intercept):
    """X^T diag(w) X per column for X = [1, x_j] or [x_j]."""
    xw = x * w
    if intercept:
        return (column_sums(w), column_sums(xw), column_sums(x * xw))
    return (column_sums(x * xw),)


def _lane_newton_system(lf, yc, x, eta, intercept):
    """Gradient, H1 and H0 (None when h'' is identically zero) per column at
    an in-domain eta; the n x C intermediates die on return."""
    mu, sigma2, hp, hpp = lf.newton_terms(eta)
    resid = yc - mu
    r = resid * hp
    xr = x * r
    grad = (column_sums(r), column_sums(xr)) if intercept else (column_sums(xr),)
    h1 = _lane_gram(x, sigma2 * hp * hp, intercept)
    h0 = None if hpp is None else _lane_gram(x, resid * hpp, intercept)
    return grad, h1, h0


def _lane_linear(x, coef, intercept):
    """X @ coef per column; coef is k x C."""
    return coef[0] + x * coef[1] if intercept else x * coef[0]


def _newton_columns(y, x, lf, beta0, opts):
    """``_newton`` on the one-covariate designs [1, x_j] (or [x_j] when
    ``beta0`` has length 1) for every column j of x at once.

    Every array is n x C for the C columns still iterating. Each column
    leaves at exactly the point where ``_newton`` stops: the rank test at
    iteration 1, a non-finite gradient, the gradient tolerance, no solvable
    step after the H1 and jitter fallbacks, no accepted step after the
    halvings, the third flat step, the beta cap and ``max_iter``. The 2x2
    or 1x1 systems are solved by closed-form Cholesky and every reduction
    runs through ``column_sums``, so a column's arithmetic does not depend
    on its position or on the other columns.

    Returns, per column, the slope and log-likelihood of the final iterate
    and whether the rank test failed (where ``_newton`` raises).
    """
    x = np.ascontiguousarray(x, dtype=float)
    n, n_cols = x.shape
    k = len(beta0)
    intercept = k == 2
    bounded_eta = lf.eta_domain != (-np.inf, np.inf)
    yc = y[:, None]

    def loglik(eta_arr):
        return lf.log_lik(lf.clip_eta(eta_arr) if bounded_eta else eta_arr, y)

    slope = np.empty(n_cols)
    log_lik = np.empty(n_cols)
    rank_deficient = np.zeros(n_cols, dtype=bool)
    cols = np.arange(n_cols)  # original position of each iterating column
    beta = np.repeat(np.asarray(beta0, dtype=float)[:, None], n_cols, axis=1)
    flat_steps = np.zeros(n_cols, dtype=int)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eta = _lane_linear(x, beta, intercept)
        ll = loglik(eta)
        it = 0
        while cols.size and it < opts.max_iter:
            it += 1
            grad, h1, h0 = _lane_newton_system(
                lf, yc, x, lf.clip_eta(eta) if bounded_eta else eta, intercept
            )
            gnorm = np.abs(grad[0])
            if intercept:
                gnorm = np.maximum(gnorm, np.abs(grad[1]))
            stop = ~np.isfinite(gnorm) | (gnorm < opts.tol)
            if it == 1:
                rd = _lane_rank_deficient(h1)
                rank_deficient[cols[rd]] = True
                stop |= rd
            h = h1 if h0 is None else tuple(a - b for a, b in zip(h1, h0))
            d, ok = _lane_chol_solve(h, grad)
            if h is not h1 and not ok.all():
                d_h1, ok_h1 = _lane_chol_solve(h1, grad)
                d = np.where(ok, d, d_h1)
                ok |= ok_h1
            if not ok.all():
                trace = h1[0] if k == 1 else h1[0] + h1[2]
                jitter = 1e-10 * trace / k
                hj = ((h1[0] + jitter,) if k == 1
                      else (h1[0] + jitter, h1[1], h1[2] + jitter))
                d_j, ok_j = _lane_chol_solve(hj, grad)
                d = np.where(ok, d, d_j)
                ok |= ok_j

            # step halving. The columns still searching all stand at the same
            # step 2^-tried, so after two single tries (most columns take the
            # full or the half step) the rest are tried together, as many as
            # keep the trial array within n x n_cols; each column takes the
            # first step accepted, as _newton would
            dx = _lane_linear(x, d, intercept)
            step = np.ones(cols.size)
            accepted = np.zeros(cols.size, dtype=bool)
            eta_t = np.empty_like(eta)
            ll_t = np.full(cols.size, -np.inf)
            pending = np.flatnonzero(ok & ~stop)
            tried = 0
            while pending.size and tried <= opts.max_halvings:
                count = 1 if tried < 2 else min(opts.max_halvings + 1 - tried,
                                                max(1, n_cols // pending.size))
                steps = np.ldexp(1.0, -np.arange(tried, tried + count))
                # n x count x P; take and compress keep arrays C-contiguous,
                # where fancy indexing on axis 1 would return Fortran order
                trial = (eta.take(pending, axis=1)[:, None, :]
                         + steps[:, None] * dx.take(pending, axis=1)[:, None, :])
                ll_trial = loglik(trial.reshape(n, -1)).reshape(count, pending.size)
                good = np.isfinite(ll_trial) & (ll_trial >= ll[pending])
                hit = good.any(axis=0)
                first = good.argmax(axis=0)[hit]
                took = pending[hit]
                eta_t[:, took] = trial[:, first, np.flatnonzero(hit)]
                ll_t[took] = ll_trial[first, hit]
                step[took] = steps[first]
                accepted[took] = True
                pending = pending[~hit]
                tried += count

            flat_steps = np.where(ll_t == ll, flat_steps + 1, 0)
            beta_t = beta + step * d
            capped = np.abs(beta_t).max(axis=0) > opts.beta_cap
            move = accepted & (flat_steps <= 2) & ~capped
            done = ~move
            slope[cols[done]] = beta[-1, done]
            log_lik[cols[done]] = ll[done]
            x, eta = x.compress(move, axis=1), eta_t.compress(move, axis=1)
            beta, ll = beta_t.compress(move, axis=1), ll_t[move]
            flat_steps, cols = flat_steps[move], cols[move]
    slope[cols] = beta[-1]
    log_lik[cols] = ll
    return slope, log_lik, rank_deficient


def _initial_beta(lf: LinkFamily, y: np.ndarray, k: int, intercept: bool) -> np.ndarray:
    beta0 = np.zeros(k)
    if intercept:
        lo, hi = lf.family.mean_domain
        ybar = float(np.mean(y))
        if hi < np.inf:
            ybar = min(max(ybar, lo + 1e-3), hi - 1e-3)
        else:
            ybar = max(ybar, lo + 1e-3)
        beta0[0] = float(lf.link.g(ybar))
    return beta0


def fit_mle(
    lf: LinkFamily,
    data: Dataset,
    model: ModelIndex,
    options: FitOptions | None = None,
    init_beta=None,
) -> FitResult:
    """Maximize the model log-likelihood by damped Newton iteration.

    Raises RankDeficient when X(model) is not of full column rank. A fit whose
    coefficient sup-norm would exceed ``options.beta_cap`` is stopped at the
    last in-cap iterate and flagged ``quasi_separated``. Non-convergence after
    ``max_iter`` iterations is reported through ``converged=False``, not as an
    error.
    """
    opts = options or FitOptions()
    X = _design(data, model)
    if init_beta is not None:
        beta0 = np.asarray(init_beta, dtype=float)
        if beta0.shape != (X.shape[1],):
            raise InvalidArgs("init_beta has the wrong length")
    else:
        beta0 = _initial_beta(lf, data.y, X.shape[1], model.include_intercept)
    return _newton(data.y, X, lf, beta0, opts)


@dataclass
class DiagnosticReport:
    """The two max-ratio statistics of the bounded-information condition."""

    first_ratio: float
    second_ratio: float | None
    max_abs_x: float
    max_abs_h_prime: float
    max_abs_h_double_prime: float
    sigma2_min: float
    sigma2_max: float
    n_threshold: float

    @property
    def first_below_threshold(self) -> bool:
        return self.first_ratio < self.n_threshold

    @property
    def second_below_threshold(self):
        if self.second_ratio is None:
            return None
        return self.second_ratio < self.n_threshold


def c6_diagnostics(lf: LinkFamily, data: Dataset, beta0) -> DiagnosticReport:
    """Evaluate the information-ratio diagnostics at a full coefficient vector.

    ``beta0`` has length p and enters through eta_i = x_i^T beta0 (no
    intercept). When h'' is identically zero the second ratio has a zero
    denominator and is reported as None (not applicable).
    """
    beta0 = np.asarray(beta0, dtype=float)
    if beta0.shape != (data.p,):
        raise InvalidArgs(f"beta0 must have length p={data.p}")
    eta = lf.clip_eta(data.X @ beta0)
    th = lf.h(eta)
    hp = lf.h_prime(eta)
    hpp = lf.h_double_prime(eta)
    sigma2 = lf.family.b_double_prime(th)

    hp2 = hp * hp
    W = data.X * data.X
    num = (W * hp2[:, None]).max(axis=0)
    den = (sigma2 * hp2) @ W
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.nan)
    first = float(np.nanmax(ratios))

    hpp2 = hpp * hpp
    den2 = float(sigma2 @ hpp2)
    second = float(hpp2.max() / den2) if den2 > 0 else None

    return DiagnosticReport(
        first_ratio=first,
        second_ratio=second,
        max_abs_x=float(np.max(np.abs(data.X))),
        max_abs_h_prime=float(np.max(np.abs(hp))),
        max_abs_h_double_prime=float(np.max(np.abs(hpp))),
        sigma2_min=float(np.min(sigma2)),
        sigma2_max=float(np.max(sigma2)),
        n_threshold=float(data.n ** (-1.0 / 3.0)),
    )
