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
in ``select`` fit all their candidates with one call. Its C lanes are held
lane-major: every per-lane array over the n observations (x_j, eta, the
link terms, the weights) is C x n, one lane per row, so each lane's sum is a
pairwise sum over its own contiguous row and equal lanes get bit-equal
values. The coefficient-side arrays (gradients, steps, beta) are k x C.

Every fit stops by the same fixed rules. It has converged once its step d
has a predicted gain g'd / 2 (half the squared Newton decrement; Boyd &
Vandenberghe, Convex Optimization, section 9.5) of at most ``DEC_TOL``
(1 + |loglik|): it then takes that full step unless the step lowers the
log-likelihood, and stops. Otherwise the step is halved, at most
``MAX_HALVINGS`` = 30 times, until the log-likelihood does not fall; a
step that gains nothing is a stall and ends the fit where it stands,
unconverged. A step that would take any |beta_j| above ``BETA_CAP`` = 30
ends the fit at the last in-cap iterate, flagged ``quasi_separated``, and
no fit runs more than ``MAX_ITER`` = 100 iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import DataError, InvalidArgs, RankDeficient
from .links import Family, LinkFamily

#: the Newton stop rules shared by every fit (see the module docstring).
#: DEC_TOL = 2^12 eps stays above what rounding lets a log-likelihood sum
#: resolve: at 2^8 eps, 5 of 85,711 lanes of benchmark-shaped selection
#: paths stalled before they could meet it
DEC_TOL = 4096 * np.finfo(float).eps
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
    used_fisher_fallback: bool
    quasi_separated: bool = False
    eta_clamped: bool = False


@dataclass
class LaneFits:
    """``_newton_lanes``' results, with the C lanes along the last axis of
    every field (beta is k x C).

    Every field named as in ``FitResult`` means what it means there, for
    each lane; ``rank_deficient`` marks the lanes that failed the rank test.
    """

    beta: np.ndarray  # k x C, laid out as [A, x_j]
    log_lik: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    used_fisher_fallback: np.ndarray
    quasi_separated: np.ndarray
    eta_clamped: np.ndarray
    rank_deficient: np.ndarray

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
            used_fisher_fallback=bool(self.used_fisher_fallback[j]),
            quasi_separated=bool(self.quasi_separated[j]),
            eta_clamped=bool(self.eta_clamped[j]),
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


def _design_and_eta(data: Dataset, model: ModelIndex, beta):
    """The model's design X and eta = X beta, for a beta of X's width."""
    X = _design(data, model)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (X.shape[1],):
        raise InvalidArgs(f"beta has shape {beta.shape}, expected ({X.shape[1]},)")
    with np.errstate(over="ignore", invalid="ignore"):
        return X, X @ beta


def log_likelihood(lf: LinkFamily, data: Dataset, model: ModelIndex, beta) -> float:
    """l_n(beta) = sum_i [y_i h(eta_i) - b(h(eta_i))] with clamping policy."""
    _, eta = _design_and_eta(data, model, beta)
    return _loglik_from_eta(data.y, eta, lf)


def _newton_terms_at(lf: LinkFamily, eta):
    """``lf.newton_terms`` at eta, clipped into the link's domain."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return lf.newton_terms(lf.clip_eta(eta))


def score(lf: LinkFamily, data: Dataset, model: ModelIndex, beta) -> np.ndarray:
    """Gradient of the log-likelihood at beta."""
    X, eta = _design_and_eta(data, model, beta)
    mu, _, hp, _ = _newton_terms_at(lf, eta)
    return X.T @ ((data.y - mu) * hp)


def hessian_parts(lf: LinkFamily, data: Dataset, model: ModelIndex, beta) -> HessianParts:
    """The PSD part H1 and the correction H0 (H = H1 - H0 = -d2 loglik)."""
    X, eta = _design_and_eta(data, model, beta)
    mu, sigma2, hp, hpp = _newton_terms_at(lf, eta)
    h1 = X.T @ (X * (sigma2 * hp * hp)[:, None])
    if hpp is None:
        h0 = np.zeros_like(h1)
    else:
        h0 = X.T @ (X * ((data.y - mu) * hpp)[:, None])
    return HessianParts(h1=h1, h0=h0)


#: most doubles in one working array of ``_newton_lanes`` (a C x n block of
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


def _shared_dot(M, v):
    """M^T v^T, q x C, for an n x q block M of shared columns and a C x n
    lane array v (or 1 x n). For q >= 2 BLAS packs both operands, so the
    transposed view of v goes in as it is. For q = 1 numpy calls BLAS's
    matrix-vector product, whose summation order follows the layout of v;
    v then goes in as an n x C copy, so every fit keeps the bits of the
    package's earlier kernel, which held its lane arrays n x C."""
    if M.shape[1] == 1:
        return M.T @ np.ascontiguousarray(v.T)
    return M.T @ v.T


def _lane_gram(A, Z, iu, x, w):
    """X^T diag(w) X for each lane's design X = [A, x_j], as a P x k x k
    stack, for the P x n rows x_j of x. Z holds the column products
    A_a * A_b for (a, b) in the upper triangle ``iu``; w is P x n, or 1 x n
    when all lanes share it."""
    m = A.shape[1]
    h = np.empty((x.shape[0], m + 1, m + 1))
    wx = w * x
    if m:
        zw = _shared_dot(Z, w).T
        h[:, iu[0], iu[1]] = zw
        h[:, iu[1], iu[0]] = zw
        h[:, m, :m] = h[:, :m, m] = _shared_dot(A, wx).T
    h[:, m, m] = (x * wx).sum(axis=1)
    return h


def _rows(a, idx):
    """Rows idx (indices or a mask) of a lane array; no copy when idx keeps
    them all."""
    keep_all = idx.all() if idx.dtype == bool else idx.size == a.shape[0]
    return a if keep_all else a[idx]


def _lane_direction(lf, y, A, Z, iu, x, eta, state, first):
    """Each lane's ascent direction at an in-domain eta (C x n, one row per
    lane, or 1 x n while every lane shares it), whose link ``state`` came
    from ``log_lik``: the Newton step on H1 - H0, else Fisher scoring on
    H1, else on H1 plus a jitter of 1e-10 times its mean diagonal. Returns
    (d as k x C, the predicted gain g'd / 2 of each lane's step, mask of
    lanes with a step to try, mask of those whose step came from a Fisher
    fallback, and the mask of lanes failing the rank test, which is run
    when ``first``). Lanes whose gradient is non-finite get no step. The
    C x n intermediates die on return."""
    m = A.shape[1]
    k = m + 1
    lanes = x.shape[0]
    mu, sigma2, hp, hpp = lf.newton_terms(eta, state)
    resid = y - mu
    r = resid * hp
    grad = np.empty((k, lanes))
    grad[:m] = _shared_dot(A, r)
    grad[m] = (x * r).sum(axis=1)
    stop = ~np.isfinite(grad).all(axis=0)
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
        h = _lane_gram(A, Z, iu, _rows(x, go), _rows(w, go))

    def h1_of(idx):
        if first:
            return h1_all[idx]
        return _lane_gram(A, Z, iu, x[idx], w1[idx])

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
    return d, (grad * d).sum(axis=0) / 2, ok, ok & ~direct, rank_deficient


def _newton_block(y, A, Z, iu, x, lf, start):
    """``_newton_lanes`` for one block: the designs [A, x_j] for the rows
    x_j of x (C x n). Every per-lane array over the n observations is
    C x n with one row per lane, so each lane's sums run over its own
    contiguous row."""
    width = x.shape[0]
    k = A.shape[1] + 1
    bounded_eta = lf.eta_domain != (-np.inf, np.inf)

    def clip(eta_arr):
        return lf.clip_eta(eta_arr) if bounded_eta else eta_arr

    def flags():
        return np.zeros(width, dtype=bool)

    out = LaneFits(
        beta=np.empty((k, width)), log_lik=np.empty(width), converged=flags(),
        iterations=np.zeros(width, dtype=int), used_fisher_fallback=flags(),
        quasi_separated=flags(), eta_clamped=flags(), rank_deficient=flags(),
    )
    lanes = np.arange(width)  # block position of each iterating lane
    beta = np.repeat(start[:, None], width, axis=1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # when the lanes start with their own coefficient at 0 they all share
        # one eta, so it stays 1 x n (and the first iteration's weights are
        # shared) until the first step
        eta = (A @ start[:-1])[None, :]
        if start[-1]:
            eta = eta + start[-1] * x
        ll, state = lf.log_lik(clip(eta), y, keep_state=True)
        ll = np.broadcast_to(ll, width).copy()
        it = 0
        while lanes.size and it < MAX_ITER:
            it += 1
            eta_c = clip(eta)
            if bounded_eta:
                out.eta_clamped[lanes] |= (eta_c != eta).any(axis=1)
            d, gain, ok, fell_back, rd = _lane_direction(
                lf, y, A, Z, iu, x, eta_c, state, it == 1
            )
            out.rank_deficient[lanes[rd]] = True
            out.used_fisher_fallback[lanes] |= fell_back
            conv = ok & (gain <= DEC_TOL * (1 + np.abs(ll)))
            out.converged[lanes] = conv
            out.iterations[lanes] = it

            # step halving: the lanes still searching all stand at the same
            # step 2^-tried, and a converged lane tries only the full step.
            # A lane takes the first (longest) step that does not lower its
            # log-likelihood; the eta and link state of that trial carry
            # over to the next iteration. A @ d[:-1] is computed n x C, as in
            # the package's earlier n x C kernel, because BLAS can round a
            # product by its output's orientation and the step's last bits
            # decide which trial a lane takes
            dx = (A @ d[:-1]).T + d[-1][:, None] * x
            eta_all = np.broadcast_to(eta, dx.shape)
            step = np.ones(lanes.size)
            ll_t = np.full(lanes.size, -np.inf)  # stays -inf unless accepted
            eta_t = state_t = None
            pending = np.flatnonzero(ok)
            for tried in range(MAX_HALVINGS + 1):
                if not pending.size:
                    break
                s = np.ldexp(1.0, -tried)
                trial = _rows(eta_all, pending) + s * _rows(dx, pending)
                ll_trial, st = lf.log_lik(clip(trial), y, keep_state=True)
                good = np.isfinite(ll_trial) & (ll_trial >= ll[pending])
                took = pending[good]
                if took.size == lanes.size:  # every lane took this trial
                    eta_t, state_t = trial, st
                else:
                    if eta_t is None:
                        eta_t = np.empty_like(dx)
                        state_t = tuple(np.empty_like(dx) for _ in st)
                    eta_t[took] = trial[good]
                    for kept, new in zip(state_t, st):
                        kept[took] = new[good]
                ll_t[took] = ll_trial[good]
                step[took] = s
                pending = pending[~good & ~conv[pending]]

            accepted = np.isfinite(ll_t)
            beta_t = beta + step * d
            capped = np.abs(beta_t).max(axis=0) > BETA_CAP
            out.quasi_separated[lanes] = accepted & capped
            # a converged lane's last step is taken; an unconverged lane
            # whose step gains nothing has stalled, and stays where it is
            take = accepted & ~capped & (conv | (ll_t > ll))
            move = take & ~conv
            beta = np.where(take, beta_t, beta)
            ll = np.where(take, ll_t, ll)
            done = ~move
            out.beta[:, lanes[done]] = beta[:, done]
            out.log_lik[lanes[done]] = ll[done]
            if not move.any():  # every lane has left
                break
            x, eta = _rows(x, move), _rows(eta_t, move)
            state = tuple(_rows(a, move) for a in state_t)
            beta, ll, lanes = beta[:, move], ll[move], lanes[move]
    out.beta[:, lanes] = beta
    out.log_lik[lanes] = ll
    return out


def _first_copies(X, cols):
    """For each entry of ``cols``, the position in ``cols`` of the first
    column of X with the same bytes. Byte-equal columns share the wrapping
    sum of their 64-bit words, so only the columns whose sum recurs are
    compared in full: one sort of their bytes, each column one opaque
    record. Nothing n x C is copied unless that many columns share sums."""
    sums = X.view(np.uint64).sum(axis=0)[cols]
    _, group, count = np.unique(sums, return_inverse=True, return_counts=True)
    first = np.arange(cols.size)
    shared = np.flatnonzero(count[group] > 1)
    cand = np.ascontiguousarray(X.T[cols[shared]])
    _, first_of, copy_of = np.unique(
        cand.view(np.dtype((np.void, cand.itemsize * cand.shape[1]))),
        return_index=True, return_inverse=True,
    )
    first[shared] = shared[first_of[copy_of.ravel()]]
    return first


def _newton_lanes(y, A, X, cols, lf, start):
    """Damped Newton ascent on the designs [A, X[:, j]] for every j in
    ``cols`` at once, as a ``LaneFits`` with one lane per entry of ``cols``.

    This is the package's one fitter: ``fit_mle`` is its one-lane case, and
    the screen and every forward step make one call each. The designs share
    the n x m block A (m may be 0) and ``start``, which holds A's
    coefficients and then the lane's own. Each lane iterates on its own and
    leaves at the first of: the rank test at iteration 1 (flagged
    ``rank_deficient``; a single fit raises there), a non-finite gradient,
    no solvable direction (see ``_lane_direction``), a predicted gain g'd / 2
    of at most ``DEC_TOL`` (1 + |loglik|) (converged, after taking that full
    step unless it lowers the log-likelihood), no step accepted after
    ``MAX_HALVINGS`` halvings, an accepted step that gains nothing (a stall,
    left where it stands), a step that would take some |beta_j| above
    ``BETA_CAP`` (quasi-separated, left at the last in-cap iterate) and
    ``MAX_ITER`` iterations. eta is clamped into the link's domain wherever
    it is evaluated.

    Each distinct column (by byte equality) is fitted once, so duplicated
    columns get bit-equal results (BLAS rounds by lane position), and the
    distinct columns are fitted in blocks that keep every working array
    within ``LANE_BLOCK_CELLS`` doubles, except the n x m(m+1)/2 products of
    A's columns that give every lane's A^T W A in one matrix product. A
    block gathers its columns as the rows of a C x n array and holds every
    per-lane array over the observations the same way, one lane per row.
    """
    n, m = A.shape
    k = m + 1
    cols = np.asarray(cols, dtype=int)
    first = _first_copies(X, cols)
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
        _newton_block(y, A, Z, iu, X.T[cols[distinct[s:s + width]]], lf, start)
        for s in range(0, distinct.size, width)
    ]
    lane_of = np.searchsorted(distinct, first)  # each col's place among the distinct
    return LaneFits(**{
        f.name: np.concatenate([getattr(part, f.name) for part in parts], axis=-1)[..., lane_of]
        for f in fields(LaneFits)
    })


def _initial_beta(lf: LinkFamily, y: np.ndarray, k: int, intercept: bool) -> np.ndarray:
    beta0 = np.zeros(k)
    if intercept:
        lo, hi = lf.family.mean_domain
        ybar = min(max(float(np.mean(y)), lo + 1e-3), hi - 1e-3)
        beta0[0] = float(lf.link.g(ybar))
    return beta0


def fit_mle(lf: LinkFamily, data: Dataset, model: ModelIndex) -> FitResult:
    """Maximize the model log-likelihood by damped Newton iteration.

    The fit is ``_newton_lanes``' one-lane case: A is the design without its
    last column, and the lane is that column. Raises RankDeficient when
    X(model) is not of full column rank. The fit has converged once its
    step's predicted gain g'd / 2 is at most ``DEC_TOL`` (1 + |loglik|). A
    fit whose coefficient sup-norm would exceed ``BETA_CAP`` is stopped at
    the last in-cap iterate and flagged ``quasi_separated``. A stall (a
    step that gains nothing) or ``MAX_ITER`` iterations without convergence
    are reported through ``converged=False``, not as an error.
    """
    X = _design(data, model)
    k = X.shape[1]
    beta0 = _initial_beta(lf, data.y, k, model.include_intercept)
    if k == 0:
        # empty design (no intercept, no covariates): eta is identically zero
        ll = _loglik_from_eta(data.y, np.zeros(data.n), lf)
        return FitResult(beta=beta0, log_lik=ll, converged=True, iterations=0,
                         used_fisher_fallback=False)
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
    def first_below_threshold(self):
        return None if np.isnan(self.first_ratio) else self.first_ratio < self.n_threshold

    @property
    def second_below_threshold(self):
        if self.second_ratio is None:
            return None
        return self.second_ratio < self.n_threshold


def c6_diagnostics(lf: LinkFamily, data: Dataset, beta0) -> DiagnosticReport:
    """Evaluate the information-ratio diagnostics at a full coefficient vector.

    ``beta0`` is finite, has length p and enters through eta_i = x_i^T beta0
    (no intercept). When no column has positive information the first ratio
    is NaN (not applicable). When h'' is identically zero the second ratio
    has a zero denominator and is reported as None (not applicable).
    """
    beta0 = np.asarray(beta0, dtype=float)
    if beta0.shape != (data.p,) or not np.all(np.isfinite(beta0)):
        raise InvalidArgs(f"beta0 must be a finite vector of length p={data.p}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, sigma2, hp, hpp = _newton_terms_at(lf, data.X @ beta0)
        if hpp is None:
            hpp = np.zeros_like(hp)

        hp2 = hp * hp
        W = data.X * data.X
        num = (W * hp2[:, None]).max(axis=0)
        den = (sigma2 * hp2) @ W
        # fmax skips the NaNs of the columns without positive information
        first = float(np.fmax.reduce(np.where(den > 0, num / den, np.nan)))

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
