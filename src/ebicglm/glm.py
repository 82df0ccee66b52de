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
Its lanes all start at one eta, so one inverse of the shared A'WA gives
every lane's first Newton step and rank test through its Schur complement
(``_first_direction``); later iterations solve each lane's own Gram.

Every fit stops by the same fixed rules. It has converged once its step d
has a predicted gain g'd / 2 (half the squared Newton decrement; Boyd &
Vandenberghe, Convex Optimization, section 9.5) of at most ``DEC_TOL``
(1 + |loglik|): it then takes that full step unless the step lowers the
log-likelihood, and stops. Otherwise the step is halved, at most
``MAX_HALVINGS`` = 30 times, until the log-likelihood does not fall; a
step that gains nothing is a stall and ends the fit where it stands,
unconverged. A step that would take any |beta_j| above ``BETA_CAP`` = 30
ends the fit at the last in-cap iterate, flagged ``quasi_separated``; a
coefficient whose start already lies beyond the cap (an intercept g(ybar)
under a power link, say) is held instead to |start_j| + ``BETA_CAP``. No
fit runs more than ``MAX_ITER`` = 100 iterations.

A forward step needs only the lane with the largest log-likelihood, so its
call is pick-only: at its first ``BOUND_ITERS`` iterations each lane gets a
weak-duality upper bound on the log-likelihood of every iterate inside its
coefficient box (``_dual_bound``), and a lane whose bound lies below the
best log-likelihood any lane of the call has reached, by 1e-7 (1 + |best|),
is retired where it stands. Every lane ascends, so a retired lane cannot be
picked. When a step's lanes fill more than one block, their first bounds
come from one pass of that first iteration over them before any is
fitted. The lanes are then fitted best first, in descending order of those
bounds, and most are retired at their start by the best log-likelihood
that the first few reach.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError, InvalidArgs, RankDeficient
from .links import LinkFamily

#: the Newton stop rules shared by every fit (see the module docstring).
#: DEC_TOL = 2^12 eps stays above what rounding lets a log-likelihood sum
#: resolve: at 2^8 eps, 5 of 85,711 lanes of benchmark-shaped selection
#: paths stalled before they could meet it
DEC_TOL = 4096 * np.finfo(float).eps
MAX_ITER = 100
BETA_CAP = 30.0
MAX_HALVINGS = 30
#: the iterations at which a pick-only call bounds its lanes; bounding the
#: third as well retires few more lanes
BOUND_ITERS = 2


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
                with warnings.catch_warnings():  # numpy's no-data warning: refused below
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    body = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=float)
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: not UTF-8 text: {exc}") from None
            except ValueError as exc:
                # numpy counts rows from 0 or 1 by the fault, so name the row
                raise DataError(f"{path}: {_bad_row(path, names) or exc}") from None
        if body.size == 0:
            raise DataError(f"{path}: no data rows")
        if body.shape[1] != len(names):
            raise DataError(
                f"{path}: header has {len(names)} columns, rows have {body.shape[1]}"
            )
        return cls(body[:, 0], body[:, 1:], feature_names=names[1:])

    def __repr__(self):
        return f"Dataset(n={self.n}, p={self.p})"


def _bad_row(path, names):
    """What is wrong with the first data row of a CSV file that numpy
    refused, counting data rows from 1 as every other data error does:
    a number of cells other than the header's, or a cell that is empty or
    not a number. None where no row shows either (numpy's reason stands)."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        fh.readline()
        row = 0
        for line in fh:
            cells = line.split("#", 1)[0].split(",")  # numpy skips comments and blank lines
            if len(cells) == 1 and not cells[0].strip():
                continue
            row += 1
            if len(cells) != len(names):
                return f"data row {row} has {len(cells)} columns, the header {len(names)}"
            for name, cell in zip(names, cells):
                if not cell.strip():
                    return f"data row {row}: column {name!r} is empty"
                try:
                    float(cell)
                except ValueError:
                    return f"data row {row}: column {name!r} holds {cell.strip()!r}, not a number"
    return None


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
    each lane; ``rank_deficient`` marks the lanes that failed the rank test,
    and ``retired`` the lanes that a pick-only call stopped where they stood
    once a bound showed they could not be picked (see ``_newton_lanes``).
    """

    beta: np.ndarray  # k x C, laid out as [A, x_j]
    log_lik: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    used_fisher_fallback: np.ndarray
    quasi_separated: np.ndarray
    eta_clamped: np.ndarray
    rank_deficient: np.ndarray
    retired: np.ndarray

    @classmethod
    def at_start(cls, start, lanes: int) -> "LaneFits":
        """``lanes`` lanes at ``start``: no iteration, no flag, NaN log_lik."""
        table = {f.name: np.zeros(lanes, dtype=bool) for f in fields(cls)}
        table.update(beta=np.repeat(start[:, None], lanes, axis=1),
                     log_lik=np.full(lanes, np.nan), iterations=np.zeros(lanes, dtype=int))
        return cls(**table)

    def fit(self, j: int) -> FitResult:
        """Lane j as a ``FitResult``; raises RankDeficient where it failed
        the rank test."""
        if self.rank_deficient[j]:
            raise RankDeficient(
                "design matrix is rank deficient for this model, or its "
                "weighted Gram matrix is not finite"
            )
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
#: per-call overhead of numpy, about 0.2 ms per Newton iteration of a block
#: whatever its width, against peak memory. A block frees each C x n array
#: once it is spent, so its peak holds about 8.4 of them under logit and
#: 11.4 under cloglog, and 7.3 and 7.4 where a pick-only call bounds its
#: lanes (``tracemalloc``, the tests' 1024 lanes x n = 64 from a shared
#: start; they hold it at 12 or fewer), 5-6 MB at 2^16. Against 2^14, 2^16
#: cut the block-iterations of the benchmark's Golub-shaped workflow 3x
#: (3588 -> 1179) and raised its peak RSS by 2 MB (104 -> 107 MB), and that
#: of the Setting-1 batch by 3.5 MB (77 -> 81 MB). ``import ebicglm`` frees
#: one block of 8 lane arrays of this size, which raises glibc's mmap and
#: trim thresholds to 8 and 16 lane arrays, so that a block's freed arrays
#: are reused from the heap rather than faulted in afresh on every iteration.
LANE_BLOCK_CELLS = 1 << 16


def _per_lane(solver, *stacks):
    """``solver`` (a numpy.linalg function) on stacks of P lanes along their
    first axis, and the mask of lanes LAPACK accepts; a refused lane's
    result is zero, shaped like the last stack's lane. numpy refuses a stack
    as a whole when one lane fails, so a refused stack is bisected until
    each refused part is one lane. LAPACK treats each lane alone either way,
    so every accepted lane keeps its bits."""
    try:
        return solver(*stacks), np.ones(len(stacks[0]), dtype=bool)
    except np.linalg.LinAlgError:
        if len(stacks[0]) == 1:
            return np.zeros_like(stacks[-1]), np.zeros(1, dtype=bool)
    half = len(stacks[0]) // 2
    (r0, ok0), (r1, ok1) = (_per_lane(solver, *(s[:half] for s in stacks)),
                            _per_lane(solver, *(s[half:] for s in stacks)))
    return np.concatenate([r0, r1]), np.concatenate([ok0, ok1])


def _lane_chol_solve(h, g):
    """Solve h d = g lane by lane for a P x k x k stack and a k x P
    right-hand side: (d as k x P, mask of lanes where h is finite and
    numerically SPD, by LAPACK's potrf test, and its LU solve succeeds with
    a finite d). The systems themselves are solved by one stacked LU
    solve; potrf can accept a matrix whose LU meets an exact zero pivot."""
    def kept(ok):  # the identity in place of each refused lane: LAPACK accepts it
        return h if ok.all() else np.where(ok[:, None, None], h, np.eye(h.shape[1]))

    ok = np.isfinite(h).all(axis=(1, 2))
    ok &= _per_lane(np.linalg.cholesky, kept(ok))[1]
    d, solved = _per_lane(np.linalg.solve, kept(ok), g.T[:, :, None])
    d = d[:, :, 0].T
    return d, ok & solved & np.isfinite(d).all(axis=0)


def _lane_gram(A, Z, iu, x, w):
    """X^T diag(w) X for each lane's design X = [A, x_j], as a P x k x k
    stack, for the P x n rows x_j of x and w. Z holds the column products
    A_a * A_b for (a, b) in the upper triangle ``iu``."""
    m = A.shape[1]
    h = np.empty((x.shape[0], m + 1, m + 1))
    wx = w * x
    if m:
        zw = (Z.T @ w.T).T
        h[:, iu[0], iu[1]] = zw
        h[:, iu[1], iu[0]] = zw
        h[:, m, :m] = h[:, :m, m] = (A.T @ wx.T).T
    h[:, m, m] = (x * wx).sum(axis=1)
    return h


def _rows(a, idx):
    """Rows idx (indices or a mask) of a lane array; no copy when idx keeps
    them all."""
    keep_all = idx.all() if idx.dtype == bool else idx.size == a.shape[0]
    return a if keep_all else a[idx]


def _lane_gradient(A, x, r):
    """X^T r for each lane's design X = [A, x_j], as k x C, for the C x n
    rows x_j of x and r."""
    grad = np.empty((A.shape[1] + 1, x.shape[0]))
    grad[:-1] = A.T @ r.T
    grad[-1] = (x * r).sum(axis=1)
    return grad


def _newton_weights(lf, y, eta, state):
    """At eta, from the link ``state`` that ``log_lik`` left there: each
    observation's score residual r = (y - mu) h' = dl/deta, and the Gram
    weights of H1 and of H1 - H0 (the same array when h'' vanishes), all
    C x n, or 1 x n while the lanes share eta. The link terms die on
    return."""
    mu, sigma2, hp, hpp = lf.newton_terms(eta, state)
    resid = y - mu
    r = resid * hp
    w1 = sigma2 * hp
    w1 *= hp
    del mu, sigma2, hp
    return r, w1, w1 if hpp is None else w1 - resid * hpp


def _lane_direction(lf, y, A, Z, iu, x, eta, state, caps=None):
    """Each lane's ascent direction after the first iteration, at an
    in-domain eta (C x n, one row per lane) whose link ``state`` came from
    ``log_lik``: the Newton step on H1 - H0, else Fisher scoring on H1, else
    on H1 plus a jitter of 1e-10 times its mean diagonal. Returns (d as
    k x C, each full step's eta change dx as C x n, the predicted gain g'd / 2
    of each lane's step, mask of lanes with a step to try, mask of those
    whose step came from a Fisher fallback, the rank test's mask, which only
    ``_first_direction`` runs and is all False here, and, given the
    coefficient box ``caps``, each lane's ``_dual_bound`` from the weights
    the step was solved with, else None). Lanes whose gradient is non-finite
    get no step. The other C x n intermediates die on return."""
    k = A.shape[1] + 1
    lanes = x.shape[0]
    r, w1, w = _newton_weights(lf, y, eta, state)
    grad = _lane_gradient(A, x, r)
    go = np.flatnonzero(np.isfinite(grad).all(axis=0))
    d = np.zeros((k, lanes))
    ok = np.zeros(lanes, dtype=bool)
    if go.size:
        d[:, go], ok[go] = _lane_chol_solve(_lane_gram(A, Z, iu, _rows(x, go), _rows(w, go)),
                                            grad[:, go])
    direct = ok.copy()
    bad = go[~ok[go]]
    if bad.size and w is not w1:
        d[:, bad], ok[bad] = _lane_chol_solve(_lane_gram(A, Z, iu, x[bad], w1[bad]),
                                              grad[:, bad])
        bad = bad[~ok[bad]]
    if bad.size:
        h1 = _lane_gram(A, Z, iu, x[bad], w1[bad])
        jitter = 1e-10 * np.trace(h1, axis1=1, axis2=2) / k
        h1 = h1 + jitter[:, None, None] * np.eye(k)
        d[:, bad], ok[bad] = _lane_chol_solve(h1, grad[:, bad])
    del w1  # spent: the bound needs room for its own C x n arrays
    dx = d[:-1].T @ A.T + d[-1][:, None] * x
    bound = None if caps is None else _dual_bound(lf, y, A, x, caps, eta, r, w, dx)
    return (d, dx, (grad * d).sum(axis=0) / 2, ok, ok & ~direct, np.zeros(lanes, dtype=bool),
            bound)


def _dual_bound(lf, y, A, x, caps, eta, r, w, dx):
    """Each lane's weak-duality bound on the log-likelihood of every iterate
    whose coefficients lie in the box |beta_j| <= caps[j], from the lanes at
    eta, with score residual r and Gram weights w of H1 - H0 there (see
    ``_newton_weights``), whose full steps change eta by dx (C x n).

    For any u in the domain of phi_i(u) = inf_eta [u eta - l_i(eta)],
    l_i(eta_i) <= u_i eta_i - phi_i(u_i), and sum_i u_i eta_i = u'X beta is
    at most sum_j caps[j] |(X'u)_j|; so the log-likelihood is at most that
    sum minus sum_i phi_i(u_i), and any lower bound on phi keeps it a bound
    (``lf.dual_floor``). The dual point is the score residual linearized
    at the full step, u = r - w dx, clipped into phi's domain: where the
    step solved H d = g, X'(r - w dx) = g - H d = 0 before the clip. The
    kernel's l_i is l itself except where its mu floor or theta clip
    flattens it (``lf.flat_eta``), so a lane with an observation within 1
    of a flat end, at eta or after the full step, gets no bound (inf): its
    current log-likelihood could exceed the bound. An iterate with an
    observation on a flat end is not covered; covering it over the whole
    coefficient box leaves a bound too loose to retire any lane."""
    u = w * dx
    np.subtract(r, u, out=u)
    phi = lf.dual_floor(u, y)  # clips u first: X'u is that of the clipped u
    bound = caps @ np.abs(_lane_gradient(A, x, u)) - phi
    del u
    hi, lo = lf.flat_eta
    one = y == 1.0
    # each observation's signed distance past its flat end's margin
    sign, edge = np.where(one, -1.0, 1.0), np.where(one, -lo - 1.0, hi - 1.0)
    near = (eta * sign > edge).any(axis=1) | ((eta + dx) * sign > edge).any(axis=1)
    bound[near] = np.inf
    return bound


def _beaten(bound, best):
    """The lanes whose bound lies below best by more than the margin
    1e-7 (1 + |best|): they cannot reach or tie it."""
    return bound < best - 1e-7 * (1.0 + abs(best))


def _schur_step(P, g_a, b, c, g_x):
    """The Newton steps of lanes [A, x_j] on H = [[P, b_j], [b_j', c_j]],
    for the shared P = A'WA, each lane's b_j = A'W x_j (the rows of the
    C x m b) and c_j = x_j'W x_j, and the gradients [g_a, g_x_j], from P's
    inverse: the Schur complement s_j = c_j - b_j'P^-1 b_j is H's last
    squared Cholesky pivot. Returns (the steps as k x C, the mask of lanes
    whose H is positive definite, and each lane's least squared Cholesky
    pivot of H over its diagonal entry: the rank test refuses H where that
    is not above 1e-10, NaN included)."""
    k, lanes = P.shape[0] + 1, c.size
    try:
        L = np.linalg.cholesky(P)
        inv = np.linalg.inv(P)
    except np.linalg.LinAlgError:
        return np.zeros((k, lanes)), np.zeros(lanes, dtype=bool), np.zeros(lanes)
    a, pb = inv @ g_a, b @ inv
    s = c - np.einsum("ij,ij->i", b, pb)
    d = np.empty((k, lanes))
    with np.errstate(divide="ignore", invalid="ignore"):
        d[-1] = (g_x - b @ a) / s
        d[:-1] = a[:, None] - pb.T * d[-1]
        lead = np.min(np.diagonal(L) ** 2 / np.diagonal(P), initial=np.inf)
        pivot = np.minimum(lead, s / c)
    return d, (s > 0.0) & np.isfinite(d).all(axis=0), pivot


def _first_direction(lf, y, A, x, eta, state, caps=None):
    """``_lane_direction`` at the first iteration, where every lane (a row
    of x, C x n) stands at one shared eta (1 x n, with its link ``state``),
    returning the same tuple: the Newton step on H1 - H0, else Fisher
    scoring on H1, each by ``_schur_step`` from one inverse of the shared
    A'WA. The rank test refuses a lane whose H1's pivot ratio is not above
    1e-10, NaN included; neither it nor a lane whose step is not finite (as
    where its gradient is not) gets a step. Given ``caps``, a lane's bound
    is inf unless it has a step, a finite bound and a pivot ratio above 100
    times the rank test's: a lane retired where it stands never meets a
    later rank test, which rounds by lane count and position (in another
    block, or in a one-lane call) and could refuse it."""
    r, w1, w = _newton_weights(lf, y, eta, state)
    weighted = [w1.T * A] if w is w1 else [w1.T * A, w.T * A]
    # every lane's A'W x_j under each weight and its x_j'r come from one
    # product, and its x_j'W x_j from another: no other C x n array is made
    prod = x @ np.hstack(weighted + [r.T])
    c = (x * x) @ np.vstack([w1, w]).T
    g_a, g_x, m = A.T @ r[0], prod[:, -1], A.shape[1]
    d, direct, pivot = _schur_step(A.T @ weighted[0], g_a, prod[:, :m], c[:, 0], g_x)
    if w is not w1:
        newton, direct, _ = _schur_step(A.T @ weighted[1], g_a, prod[:, m:2 * m],
                                        c[:, 1], g_x)
        d = np.where(direct, newton, d)
    rank_deficient = ~(pivot > 1e-10)
    ok = ~rank_deficient & np.isfinite(d).all(axis=0)  # a non-finite gradient's too
    d = np.where(ok, d, 0.0)
    dx = d[:-1].T @ A.T + d[-1][:, None] * x
    bound = None
    if caps is not None:
        bound = _dual_bound(lf, y, A, x, caps, eta, r, w, dx)
        bound = np.where(ok & (pivot > 1e-8) & np.isfinite(bound), bound, np.inf)
    return d, dx, (g_a @ d[:-1] + g_x * d[-1]) / 2, ok, ok & ~direct, rank_deficient, bound


def _step_search(lf, y, eta, dx, ll, ok, conv):
    """The step halving of one iteration, for the lanes at eta (C x n, or
    1 x n while they share it) whose full steps change eta by dx (C x n):
    the lanes still searching all stand at the same step 2^-tried, and a
    converged lane tries only the full step. A lane takes the first
    (longest) step that does not lower its log-likelihood ll. Returns (each
    lane's step, its log-likelihood there, -inf where no step was taken,
    and that trial's eta and link state as C x n arrays whose other rows
    are undefined). The trials' C x n arrays die on return."""
    eta_all = np.broadcast_to(eta, dx.shape)
    lanes = dx.shape[0]
    step = np.ones(lanes)
    ll_t = np.full(lanes, -np.inf)
    eta_t = state_t = None
    pending = np.flatnonzero(ok)
    for tried in range(MAX_HALVINGS + 1):
        if not pending.size:
            break
        s = np.ldexp(1.0, -tried)
        step_dx = _rows(dx, pending)
        # the full step adds dx itself: 1.0 * dx would only copy its bits
        trial = _rows(eta_all, pending) + (step_dx if tried == 0 else s * step_dx)
        ll_trial, st = lf.log_lik(lf.clip_eta(trial), y, keep_state=True)
        good = np.isfinite(ll_trial) & (ll_trial >= ll[pending])
        took = pending[good]
        if eta_t is None and pending.size == lanes:
            # every lane tried the full step: the trial's own arrays keep
            # the rows of the lanes that took it
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
    return step, ll_t, eta_t, state_t


def _box(start):
    """Each coefficient's box: ``BETA_CAP``, or ``BETA_CAP`` beyond a start
    outside it."""
    return np.where(np.abs(start) > BETA_CAP, np.abs(start) + BETA_CAP, BETA_CAP)


def _newton_block(y, A, Z, iu, x, lf, start, out, lanes, pick_only=False,
                  best=-np.inf, shared_bound=None):
    """``_newton_lanes`` for one block: the designs [A, x_j] for the rows
    x_j of x (C x n), whose results go in place into the lanes ``lanes`` of
    the call's table ``out``. Every per-lane array over the n observations
    is C x n, one row per lane, so each lane's sums run over its own
    contiguous row. Each C x n array is freed once it is spent, by the
    return of the helper that made it or by ``del``, so the block's peak
    holds few of them (see ``LANE_BLOCK_CELLS``). Every lane starts at the
    one eta of ``start``, so iteration 1 takes its directions and the rank
    test from ``_first_direction``, and each later one from
    ``_lane_direction``. ``best`` is the largest log-likelihood the call's
    earlier blocks reached. ``shared_bound``, when the call bounded its
    lanes at their shared start, holds each lane's bound, which then serves
    as iteration 1's. A bounded lane that the best is already past leaves
    before its step search."""
    bounded_eta = lf.eta_domain != (-np.inf, np.inf)
    bounding = pick_only and lf.flat_eta is not None
    beta = np.repeat(start[:, None], lanes.size, axis=1)
    caps = _box(start)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the lanes start at one eta, 1 x n until the first step: their own
        # coefficient is 0, or there is one lane
        eta = (A @ start[:-1])[None, :]
        if start[-1]:
            eta = eta + start[-1] * x
        ll, state = lf.log_lik(lf.clip_eta(eta), y, keep_state=True)
        ll = np.broadcast_to(ll, lanes.size).copy()
        for it in range(1, MAX_ITER + 1):
            eta_c = lf.clip_eta(eta)
            if bounded_eta:
                out.eta_clamped[lanes] |= (eta_c != eta).any(axis=1)
            shared = it == 1 and shared_bound is not None
            box = caps if bounding and it <= BOUND_ITERS and not shared else None
            d, dx, gain, ok, fell_back, rd, bound = (
                _first_direction(lf, y, A, x, eta_c, state, box) if it == 1
                else _lane_direction(lf, y, A, Z, iu, x, eta_c, state, box))
            if shared:
                bound = shared_bound
            del eta_c, state  # spent
            out.rank_deficient[lanes[rd]] = True
            out.used_fisher_fallback[lanes] |= fell_back
            conv = ok & (gain <= DEC_TOL * (1 + np.abs(ll)))
            out.converged[lanes] = conv
            out.iterations[lanes] = it
            if bound is not None:
                # a lane already beaten leaves before its step search
                early = ok & ~conv & _beaten(bound, best)
                ok = ok & ~early

            # the eta and link state of a lane's accepted trial carry over
            # to its next iteration
            step, ll_t, eta_t, state_t = _step_search(lf, y, eta, dx, ll, ok, conv)
            del dx
            accepted = np.isfinite(ll_t)
            beta_t = beta + step * d
            size = np.abs(beta_t)
            size -= caps[:, None]
            capped = size.max(axis=0) > 0.0
            out.quasi_separated[lanes] = accepted & capped
            # a converged lane's last step is taken; an unconverged lane
            # whose step gains nothing has stalled, and stays where it is
            take = accepted & ~capped & (conv | (ll_t > ll))
            move = take & ~conv
            beta = np.where(take, beta_t, beta)
            ll = np.where(take, ll_t, ll)
            if bound is not None:
                # every lane ascends, so some lane ends at or above best,
                # and a lane bounded below it cannot be picked
                best = max(best, np.fmax.reduce(ll))
                retire = move & _beaten(bound, best)
                out.retired[lanes] = early | retire
                move &= ~retire
            out.beta[:, lanes] = beta  # where each lane stands, left or not
            out.log_lik[lanes] = ll
            if not move.any():  # every lane has left
                break
            x, eta = _rows(x, move), _rows(eta_t, move)
            state = tuple(_rows(a, move) for a in state_t)
            del eta_t, state_t  # spent, unless move kept every row
            beta, ll, lanes = beta[:, move], ll[move], lanes[move]


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


def _newton_lanes(y, A, X, cols, lf, start, pick_only=False):
    """Damped Newton ascent on the designs [A, X[:, j]] for every j in
    ``cols`` at once, as a ``LaneFits`` with one lane per entry of ``cols``.

    This is the package's one fitter: ``fit_mle`` is its one-lane case, and
    the screen and every forward step make one call each. The designs share
    the n x m block A (m may be 0) and ``start``, which holds A's
    coefficients and then the lane's own. The lanes must share their start
    eta: the lane's own start is 0 (as in the screen and every forward
    step), or the call has one distinct lane (``fit_mle``); any other call
    is refused with InvalidArgs. Each lane iterates on its own and leaves at
    the first of: the rank test at iteration 1 (flagged ``rank_deficient``;
    a single fit raises there), a non-finite gradient, no solvable
    direction (see ``_first_direction`` and ``_lane_direction``), a
    predicted gain g'd / 2 of at most ``DEC_TOL`` (1 + |loglik|) (converged,
    after taking that full step unless it lowers the log-likelihood), no
    step accepted after ``MAX_HALVINGS`` halvings, an accepted step that
    gains nothing (a stall, left where it stands), a step that would take
    some |beta_j| above ``BETA_CAP`` (quasi-separated, left at the last
    in-cap iterate; a coefficient whose start lies beyond the cap is held
    to |start_j| + ``BETA_CAP`` instead) and ``MAX_ITER`` iterations. eta
    is clamped into the link's domain wherever it is evaluated.

    A ``pick_only`` call serves a caller that keeps only the lane with the
    largest log-likelihood (the lowest index among equal ones): at each of
    its first ``BOUND_ITERS`` iterations a lane also leaves, flagged
    ``retired``, once its ``_dual_bound`` lies below the best log-likelihood
    any lane of the call has reached by 1e-7 (1 + |best|), before its step
    search where it is beaten already. That best carries across blocks.
    Every lane ascends, so the lane that reached it ends at or above it, and
    no retired lane can reach or tie the pick; a retired lane reports where
    it stood. The bound covers the pairs with a ``flat_eta`` (Bernoulli
    logit and cloglog); under any other pair a pick-only call fits every
    lane in full. The pick is that of the full call, but its fit's last bits
    can differ: lanes leave the blocks sooner, and BLAS rounds by lane count
    and position.

    When such a call's lanes fill more than one block, each distinct lane
    is first bounded at the shared start (``_first_direction``, in chunks
    of a block's lanes), and the blocks take the lanes best first: in
    descending order of that bound, the first block an eighth of the
    others. A lane whose bound is beaten by the best reached so far is
    retired without entering a block (``iterations`` 0, at its start), and
    so is every lane after it. In a block, that bound serves as iteration
    1's. Lanes that fill one block are not bounded first: none could leave
    before that block, whose iteration 1 computes the same bound. Every
    other call takes its lanes in index order.

    Each distinct column (by byte equality) is fitted once, so duplicated
    columns get bit-equal results (BLAS rounds by lane position), and the
    distinct columns are fitted in blocks that keep every working array
    within ``LANE_BLOCK_CELLS`` doubles, except the n x m(m+1)/2 products of
    A's columns that give every lane's A^T W A in one matrix product. A
    block gathers its columns as the rows of a C x n array and holds every
    per-lane array over the observations the same way, one lane per row,
    and frees each once it is spent: at its peak a block holds about 8.4
    such arrays under logit and 11.4 under cloglog (7.3 and 7.4 when it
    bounds its lanes), besides its input. Every block writes its lanes in
    place into the call's one ``LaneFits`` table over the distinct lanes.
    """
    n, m = A.shape
    k = m + 1
    cols = np.asarray(cols, dtype=int)
    first = _first_copies(X, cols)
    distinct = np.flatnonzero(first == np.arange(cols.size))
    start = np.asarray(start, dtype=float)
    if start[-1] != 0.0 and distinct.size > 1:
        raise InvalidArgs("lanes with their own nonzero start do not share one eta")
    iu = np.triu_indices(m)  # row by row: (0, 0), (0, 1), ..., (1, 1), ...
    Z = np.empty((n, iu[0].size))
    pos = 0
    # covariates above about 1e154 overflow here; the Gram they enter is then
    # not finite, and the rank test refuses every lane
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(m):  # a block of columns at a time keeps temporaries small
            Z[:, pos:pos + m - a] = A[:, a:a + 1] * A[:, a:]
            pos += m - a
    width = max(1, LANE_BLOCK_CELLS // max(n, k * k))
    # lanes that fill one block gain nothing from a shared-start bound: none
    # can leave before that block, whose iteration 1 computes the same bound
    shared = pick_only and lf.flat_eta is not None and distinct.size > width
    bound = np.full(distinct.size, np.inf)
    if shared:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            eta = lf.clip_eta((A @ start[:-1])[None, :])
            start_ll, state = lf.log_lik(eta, y, keep_state=True)
            for s in range(0, distinct.size, width):
                bound[s:s + width] = _first_direction(
                    lf, y, A, X.T[cols[distinct[s:s + width]]], eta, state, _box(start))[6]
        del eta, state
    # best first (a stable sort: equal bounds, all-inf ones too, keep index
    # order). The first block is an eighth of the others, so that the best
    # it reaches retires most lanes before they enter one
    order = np.argsort(-bound, kind="stable")
    out = LaneFits.at_start(start, distinct.size)  # the blocks write their lanes here
    best, s, size = -np.inf, 0, max(1, width // 8) if shared else width
    while s < order.size:
        block = order[s:s + size]
        block = block[~_beaten(bound[block], best)]  # a prefix: bound descends
        if not block.size:  # every lane left is beaten: none enters a block
            out.log_lik[order[s:]] = start_ll
            out.retired[order[s:]] = True
            break
        _newton_block(y, A, Z, iu, X.T[cols[distinct[block]]], lf, start, out, block,
                      pick_only, best, bound[block] if shared else None)
        best = max(best, np.fmax.reduce(out.log_lik[block]))
        s, size = s + block.size, width
    lane_of = np.searchsorted(distinct, first)  # each col's distinct lane
    return LaneFits(**{f.name: getattr(out, f.name)[..., lane_of] for f in fields(LaneFits)})


def _initial_beta(lf: LinkFamily, y: np.ndarray, k: int, intercept: bool) -> np.ndarray:
    beta0 = np.zeros(k)
    if intercept:
        lo, hi = lf.family.mean_domain
        ybar = min(max(float(np.mean(y)), lo + 1e-3), hi - 1e-3)
        with np.errstate(over="ignore"):  # g(ybar) may overflow to inf
            beta0[0] = float(lf.link.g(ybar))
    return beta0


def fit_mle(lf: LinkFamily, data: Dataset, model: ModelIndex) -> FitResult:
    """Maximize the model log-likelihood by damped Newton iteration.

    The fit is ``_newton_lanes``' one-lane case: A is the design without its
    last column, and the lane is that column. Raises RankDeficient when
    X(model) is not of full column rank. The fit has converged once its
    step's predicted gain g'd / 2 is at most ``DEC_TOL`` (1 + |loglik|). A
    fit that would take a coefficient above ``BETA_CAP`` (or one that starts
    beyond it above |start| + ``BETA_CAP``) is stopped at the last in-cap
    iterate and flagged ``quasi_separated``. A stall (a step that gains
    nothing) or ``MAX_ITER`` iterations without convergence are reported
    through ``converged=False``, not as an error. A y the family cannot
    model raises DataError naming its row.
    """
    lf.family.validate_y(data.y)
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
