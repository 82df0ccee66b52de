"""Log-likelihood, score, Hessian decomposition and the damped-Newton MLE.

The negative Hessian of the log-likelihood splits as H1 - H0 where

    H1 = sum_i b''(h(eta_i)) h'(eta_i)^2 x_i x_i^T      (always PSD)
    H0 = sum_i (y_i - b'(h(eta_i))) h''(eta_i) x_i x_i^T

H0 vanishes identically under canonical links; under non-canonical links it
can make H1 - H0 indefinite, in which case the Newton step falls back to
Fisher scoring on H1.

One kernel, ``_newton_lanes``, runs this iteration for a stack of designs
[A, x_j] that share every column but the last, and gives every reported
fit: ``fit_mle`` is its one-lane case, and the screen and each forward step
in ``select`` fit all their candidates with one call.

Every fit stops by the same fixed rules: converged once the gradient's
max-norm is below ``TOL`` = 1e-8; at most ``MAX_ITER`` = 100 iterations and
``MAX_HALVINGS`` = 30 step halvings per iteration; and a step that would
take any |beta_j| above ``BETA_CAP`` = 30 ends the fit at the last in-cap
iterate, flagged ``quasi_separated``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import DataError, InvalidArgs, RankDeficient
from .links import Family, LinkFamily, column_sums

#: the Newton stop rules shared by every fit (see the module docstring)
TOL = 1e-8
MAX_ITER = 100
BETA_CAP = 30.0
MAX_HALVINGS = 30


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
        # utf-8-sig drops the byte-order mark that spreadsheet exports write
        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                header = fh.readline().strip()
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: not UTF-8 text: {exc}") from None
            if not header:
                raise DataError(f"{path}: empty file")
            names = [c.strip().strip('"').strip("'") for c in header.split(",")]
            if not names or names[0].lower() != "y":
                raise DataError(
                    f"{path}: first CSV column must be named 'y', got {names[0]!r}"
                )
            try:
                body = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=float)
            except ValueError as exc:  # UnicodeDecodeError included
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
class LaneFits:
    """``_newton_lanes``' results, one column (last axis) per lane.

    Every field named as in ``FitResult`` means what it means there, for
    each lane; ``rank_deficient`` marks the lanes that failed the rank test,
    and lane j's log-likelihood path is ``loglik_path[:path_len[j], j]``.
    """

    beta: np.ndarray  # k x C, laid out as [A, x_j]
    log_lik: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    grad_norm: np.ndarray
    used_fisher_fallback: np.ndarray
    quasi_separated: np.ndarray
    eta_clamped: np.ndarray
    rank_deficient: np.ndarray
    loglik_path: np.ndarray  # rows x C, NaN beyond each lane's path
    path_len: np.ndarray

    def fit(self, j: int) -> FitResult:
        """Lane j as a ``FitResult``; raises RankDeficient where it failed
        the rank test."""
        if self.rank_deficient[j]:
            raise RankDeficient("design matrix is rank deficient for this model")
        return FitResult(
            beta=self.beta[:, j].copy(),
            log_lik=float(self.log_lik[j]),
            converged=bool(self.converged[j]),
            iterations=int(self.iterations[j]),
            grad_norm=float(self.grad_norm[j]),
            used_fisher_fallback=bool(self.used_fisher_fallback[j]),
            quasi_separated=bool(self.quasi_separated[j]),
            eta_clamped=bool(self.eta_clamped[j]),
            loglik_path=tuple(self.loglik_path[: self.path_len[j], j].tolist()),
        )


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


def _newton_terms_at(lf: LinkFamily, X: np.ndarray, beta):
    """``lf.newton_terms`` at eta = X beta, clipped into the link's domain."""
    eta = lf.clip_eta(X @ np.asarray(beta, dtype=float))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return lf.newton_terms(eta)


def score(lf: LinkFamily, data: Dataset, model: ModelIndex, beta) -> np.ndarray:
    """Gradient of the log-likelihood at beta."""
    X = _design(data, model)
    mu, _, hp, _ = _newton_terms_at(lf, X, beta)
    return X.T @ ((data.y - mu) * hp)


def hessian_parts(lf: LinkFamily, data: Dataset, model: ModelIndex, beta) -> HessianParts:
    """The PSD part H1 and the correction H0 (H = H1 - H0 = -d2 loglik)."""
    X = _design(data, model)
    mu, sigma2, hp, hpp = _newton_terms_at(lf, X, beta)
    h1 = X.T @ (X * (sigma2 * hp * hp)[:, None])
    if hpp is None:
        h0 = np.zeros_like(h1)
    else:
        h0 = X.T @ (X * ((data.y - mu) * hpp)[:, None])
    return HessianParts(h1=h1, h0=h0)


#: most doubles in one working array of ``_newton_lanes`` (an n x C block of
#: linear predictors or a C x k x k stack of Hessians); it sets how many
#: candidate designs one block fits together. The block size trades the
#: per-call overhead of numpy against peak memory: at 2^16 a Setting-1
#: worker's peak RSS grew by 16 MB, at 2^14 by 5 MB, for the same speed
#: within noise.
LANE_BLOCK_CELLS = 1 << 14


def _with_identity(h, ok):
    """The P x k x k stack h with every lane outside the mask ok replaced by
    the identity, so a stacked LAPACK call cannot fail on it."""
    return h if ok.all() else np.where(ok[:, None, None], h, np.eye(h.shape[1]))


def _lane_cholesky(h):
    """Cholesky factors of a finite P x k x k stack and the mask of lanes
    where LAPACK's potrf succeeds."""
    try:
        return np.linalg.cholesky(h), np.ones(len(h), dtype=bool)
    except np.linalg.LinAlgError:
        # the stacked call fails as a whole, so factor lane by lane
        factors = [dpotrf(a, lower=1) for a in h]
        return (np.array([c for c, _ in factors]),
                np.array([info == 0 for _, info in factors], dtype=bool))


def _lane_rank_deficient(h1):
    """True for each lane of a P x k x k stack of weighted Grams that is not
    numerically full rank. A Cholesky pivot can round to +eps on an exactly
    singular matrix, so beyond a finite matrix and a successful
    factorization each squared pivot must exceed 1e-10 of its diagonal
    entry: pivot_i^2 / h1_ii is the weighted 1 - R^2 of column i against
    its predecessors, so the test is invariant to column scaling."""
    finite = np.isfinite(h1).all(axis=(1, 2))
    c, ok = _lane_cholesky(_with_identity(h1, finite))
    piv2 = np.diagonal(c, axis1=1, axis2=2) ** 2
    small = (piv2 <= 1e-10 * np.diagonal(h1, axis1=1, axis2=2)).any(axis=1)
    return ~(finite & ok) | small


def _lane_chol_solve(h, g):
    """Solve h d = g lane by lane for a P x k x k stack and a k x P
    right-hand side: (d as k x P, mask of lanes where h is finite and
    numerically SPD, by LAPACK's potrf test, and d finite). The systems
    themselves are solved by one stacked LU solve."""
    ok = np.isfinite(h).all(axis=(1, 2))
    ok &= _lane_cholesky(_with_identity(h, ok))[1]
    d = np.linalg.solve(_with_identity(h, ok), g.T[:, :, None])[:, :, 0].T
    return d, ok & np.isfinite(d).all(axis=0)


def _lane_gram(A, Z, iu, x, w):
    """X^T diag(w) X for each lane's design X = [A, x_j], as a P x k x k
    stack. Z holds the column products A_a * A_b for (a, b) in the upper
    triangle ``iu``; w is n x P, or n x 1 when all lanes share it."""
    m = A.shape[1]
    h = np.empty((x.shape[1], m + 1, m + 1))
    wx = w * x
    if m:
        zw = (Z.T @ w).T
        h[:, iu[0], iu[1]] = zw
        h[:, iu[1], iu[0]] = zw
        h[:, m, :m] = h[:, :m, m] = (A.T @ wx).T
    h[:, m, m] = column_sums(x * wx)
    return h


def _lanes(a, idx):
    """Columns idx of an n x P lane array, C-contiguous (fancy indexing on
    axis 1 would return Fortran order); no copy when idx keeps them all."""
    return a if idx.size == a.shape[1] else a.take(idx, axis=1)


def _lane_direction(lf, yc, A, Z, iu, x, eta, first):
    """Each lane's ascent direction at an in-domain eta: the Newton step on
    H1 - H0, else Fisher scoring on H1, else on H1 plus a jitter of 1e-10
    times its mean diagonal. Returns (d as k x P, mask of lanes with a step
    to try, mask of those whose step came from a Fisher fallback, the
    gradient max-norm, inf where non-finite, and the mask of lanes failing
    the rank test, which is run when ``first``). Lanes whose gradient is
    non-finite or below ``TOL`` get no step. The n x P intermediates die on
    return."""
    m = A.shape[1]
    k = m + 1
    lanes = x.shape[1]
    mu, sigma2, hp, hpp = lf.newton_terms(eta)
    resid = yc - mu
    r = resid * hp
    grad = np.empty((k, lanes))
    grad[:m] = A.T @ r
    grad[m] = column_sums(x * r)
    gnorm = np.abs(grad).max(axis=0)
    gnorm[~np.isfinite(gnorm)] = np.inf
    stop = np.isinf(gnorm) | (gnorm < TOL)
    w1 = sigma2 * hp * hp
    w = w1 if hpp is None else w1 - resid * hpp
    rank_deficient = np.zeros(lanes, dtype=bool)
    if first:
        # the rank test needs every lane's H1; while eta is still shared,
        # so are the weights
        h1_all = _lane_gram(A, Z, iu, x, w1)
        rank_deficient = _lane_rank_deficient(h1_all)
        stop |= rank_deficient
        go = np.flatnonzero(~stop)
        h = (h1_all if hpp is None else _lane_gram(A, Z, iu, x, w))[go]
    else:
        go = np.flatnonzero(~stop)
        h = _lane_gram(A, Z, iu, _lanes(x, go), _lanes(w, go))

    def h1_of(idx):
        if first:
            return h1_all[idx]
        return _lane_gram(A, Z, iu, x.take(idx, axis=1), w1.take(idx, axis=1))

    d = np.zeros((k, lanes))
    ok = np.zeros(lanes, dtype=bool)
    if go.size:
        d[:, go], ok[go] = _lane_chol_solve(h, grad[:, go])
    direct = ok.copy()
    bad = go[~ok[go]]
    if bad.size and hpp is not None:
        d[:, bad], ok[bad] = _lane_chol_solve(h1_of(bad), grad[:, bad])
        bad = bad[~ok[bad]]
    if bad.size:
        h1 = h1_of(bad)
        jitter = 1e-10 * np.trace(h1, axis1=1, axis2=2) / k
        h1 = h1 + jitter[:, None, None] * np.eye(k)
        d[:, bad], ok[bad] = _lane_chol_solve(h1, grad[:, bad])
    return d, ok, ok & ~direct, gnorm, rank_deficient


def _newton_block(y, A, Z, iu, x, lf, start):
    """``_newton_lanes`` for one block: the designs [A, x_j] for the
    columns of x."""
    n, width = x.shape
    k = A.shape[1] + 1
    bounded_eta = lf.eta_domain != (-np.inf, np.inf)
    yc = y[:, None]

    def clip(eta_arr):
        return lf.clip_eta(eta_arr) if bounded_eta else eta_arr

    def flags():
        return np.zeros(width, dtype=bool)

    out = LaneFits(
        beta=np.empty((k, width)), log_lik=np.empty(width), converged=flags(),
        iterations=np.zeros(width, dtype=int), grad_norm=np.full(width, np.inf),
        used_fisher_fallback=flags(), quasi_separated=flags(), eta_clamped=flags(),
        rank_deficient=flags(), loglik_path=None, path_len=np.ones(width, dtype=int),
    )
    lanes = np.arange(width)  # block position of each iterating lane
    beta = np.repeat(start[:, None], width, axis=1)
    flat_steps = np.zeros(width, dtype=int)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # when the lanes start with their own coefficient at 0 they all share
        # one eta, so it stays n x 1 (and the first iteration's weights are
        # shared) until the first step
        eta = (A @ start[:-1])[:, None]
        if start[-1]:
            eta = eta + start[-1] * x
        ll = np.broadcast_to(lf.log_lik(clip(eta), y), width).copy()
        path = [ll.copy()]
        it = 0
        while lanes.size and it < MAX_ITER:
            it += 1
            eta_c = clip(eta)
            if bounded_eta:
                out.eta_clamped[lanes] |= (eta_c != eta).any(axis=0)
            d, ok, fell_back, gnorm, rd = _lane_direction(
                lf, yc, A, Z, iu, x, eta_c, it == 1
            )
            out.rank_deficient[lanes[rd]] = True
            out.used_fisher_fallback[lanes] |= fell_back
            out.grad_norm[lanes] = gnorm
            out.converged[lanes] = gnorm < TOL
            out.iterations[lanes] = it

            # step halving. The lanes still searching all stand at the same
            # step 2^-tried, so after two single tries (most lanes take the
            # full or the half step) the rest are tried together, as many as
            # keep the trial array within n x width; each lane takes the
            # first (longest) step accepted
            dx = A @ d[:-1] + x * d[-1]
            eta_all = np.broadcast_to(eta, dx.shape)
            step = np.ones(lanes.size)
            accepted = np.zeros(lanes.size, dtype=bool)
            eta_t = np.empty_like(dx)
            ll_t = np.full(lanes.size, -np.inf)
            pending = np.flatnonzero(ok)
            tried = 0
            while pending.size and tried <= MAX_HALVINGS:
                count = 1 if tried < 2 else min(MAX_HALVINGS + 1 - tried,
                                                max(1, width // pending.size))
                steps = np.ldexp(1.0, -np.arange(tried, tried + count))
                trial = (eta_all.take(pending, axis=1)[:, None, :]
                         + steps[:, None] * dx.take(pending, axis=1)[:, None, :])
                ll_trial = lf.log_lik(clip(trial.reshape(n, -1)), y)
                ll_trial = ll_trial.reshape(count, pending.size)
                # equality is accepted so Newton can polish the gradient
                # once gains drop below the log-likelihood's resolution
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
            capped = np.abs(beta_t).max(axis=0) > BETA_CAP
            stepped = accepted & (flat_steps <= 2)
            out.quasi_separated[lanes] = stepped & capped
            move = stepped & ~capped
            done = ~move
            out.beta[:, lanes[done]] = beta[:, done]
            out.log_lik[lanes[done]] = ll[done]
            row = np.full(width, np.nan)
            row[lanes[move]] = ll_t[move]
            path.append(row)
            out.path_len[lanes[move]] += 1
            x, eta = x.compress(move, axis=1), eta_t.compress(move, axis=1)
            beta, ll = beta_t.compress(move, axis=1), ll_t[move]
            flat_steps, lanes = flat_steps[move], lanes[move]
    out.beta[:, lanes] = beta
    out.log_lik[lanes] = ll
    out.loglik_path = np.array(path[: out.path_len.max()])
    return out


def _newton_lanes(y, A, X, cols, lf, start):
    """Damped Newton ascent on the designs [A, X[:, j]] for every j in
    ``cols`` at once, as a ``LaneFits`` with one lane per entry of ``cols``.

    This is the package's one fitter: ``fit_mle`` is its one-lane case, and
    the screen and every forward step make one call each. The designs share
    the n x m block A (m may be 0) and ``start``, which holds A's
    coefficients and then the lane's own. Each lane iterates on its own and
    leaves at the first of: the rank test at iteration 1 (flagged
    ``rank_deficient``; a single fit raises there), a non-finite gradient,
    a gradient max-norm below ``TOL`` (converged), no solvable direction
    (see ``_lane_direction``), no step accepted after ``MAX_HALVINGS``
    halvings, the third flat step in a row, a step that would take some
    |beta_j| above ``BETA_CAP`` (quasi-separated, left at the last in-cap
    iterate) and ``MAX_ITER`` iterations. eta is clamped into the link's
    domain wherever it is evaluated.

    Each distinct column is fitted once, so duplicated columns get bit-equal
    results (BLAS rounds by lane position), and the distinct columns are
    fitted in blocks that keep every working array within
    ``LANE_BLOCK_CELLS`` doubles, except the n x m(m+1)/2 products of A's
    columns that give every lane's A^T W A in one matrix product.
    """
    n, m = A.shape
    k = m + 1
    cols = np.asarray(cols, dtype=int)
    seen = {}
    first = np.array(
        [seen.setdefault(X[:, j].tobytes(), i) for i, j in enumerate(cols)], dtype=int
    )
    distinct = np.flatnonzero(first == np.arange(cols.size))
    iu = np.triu_indices(m)  # row by row: (0, 0), (0, 1), ..., (1, 1), ...
    Z = np.empty((n, iu[0].size))
    pos = 0
    for a in range(m):  # a block of columns at a time keeps temporaries small
        Z[:, pos:pos + m - a] = A[:, a:a + 1] * A[:, a:]
        pos += m - a
    start = np.asarray(start, dtype=float)
    width = max(1, LANE_BLOCK_CELLS // max(n, k * k))
    parts = [
        _newton_block(y, A, Z, iu, X.take(cols[distinct[s:s + width]], axis=1), lf, start)
        for s in range(0, distinct.size, width)
    ]
    rows = max(len(part.loglik_path) for part in parts)
    for part in parts:
        pad = rows - len(part.loglik_path)
        part.loglik_path = np.pad(part.loglik_path, ((0, pad), (0, 0)),
                                  constant_values=np.nan)
    lane_of = np.searchsorted(distinct, first)  # each col's place among the distinct
    return LaneFits(**{
        f.name: np.concatenate([getattr(part, f.name) for part in parts], axis=-1)[..., lane_of]
        for f in fields(LaneFits)
    })


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


def fit_mle(lf: LinkFamily, data: Dataset, model: ModelIndex) -> FitResult:
    """Maximize the model log-likelihood by damped Newton iteration.

    The fit is ``_newton_lanes``' one-lane case: A is the design without its
    last column, and the lane is that column. Raises RankDeficient when
    X(model) is not of full column rank. A fit whose coefficient sup-norm
    would exceed ``BETA_CAP`` is stopped at the last in-cap iterate and
    flagged ``quasi_separated``. Non-convergence after ``MAX_ITER``
    iterations is reported through ``converged=False``, not as an error.
    """
    X = _design(data, model)
    k = X.shape[1]
    beta0 = _initial_beta(lf, data.y, k, model.include_intercept)
    if k == 0:
        # empty design (no intercept, no covariates): eta is identically zero
        ll = _loglik_from_eta(data.y, np.zeros(data.n), lf)
        return FitResult(beta=beta0, log_lik=ll, converged=True, iterations=0,
                         grad_norm=0.0, used_fisher_fallback=False, loglik_path=(ll,))
    A = np.ascontiguousarray(X[:, :-1])
    return _newton_lanes(data.y, A, X, [k - 1], lf, beta0).fit(0)


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
    _, sigma2, hp, hpp = _newton_terms_at(lf, data.X, beta0)
    if hpp is None:
        hpp = np.zeros_like(hp)

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
