"""Marginal-estimator screening and EBIC-guided forward selection.

Both stages fit their candidate models with the package's one fitting
kernel, ``glm._newton_lanes``: the damped Newton iteration and stop rules of
``fit_mle`` (its one-lane case), run at once for many designs that share
every column but the last. The screen fits the one-covariate models
[1, x_j] (or [x_j]) for all p columns; each forward step fits
[1, selected columns, x_j] for every remaining candidate j. So a step costs
a few Newton iterations over a C x n block of candidates, each with its own
k x k Hessian, rather than C separate fits, and a lane that stalls holds up
only itself. The step's reported fit is its winner's lane of that same call,
so every fit the path reports comes from the one kernel. Ties go to the
lower feature index.

A step keeps only its winner, so its call is pick-only: under Bernoulli
logit and cloglog, whose per-observation log-likelihoods l_i are concave,
each lane is bounded at its first two iterations by weak duality. For any
u in the domain of the conjugate phi_i(u) = inf_eta [u eta - l_i(eta)],
every coefficient vector in the lane's box |beta_j| <= cap_j has
log-likelihood at most sum_j cap_j |(X'u)_j| - sum_i phi_i(u_i); u is the
score residual linearized at the Newton step, clipped into phi's domain.
A lane whose bound lies below the best log-likelihood any lane has reached
(less a rounding margin) cannot win, since that lane only climbs, and is
retired. Every candidate of a step starts at the current model's fit, so
when they fill more than one block of the kernel, all are bounded there
first, from one inverse of the current model's Hessian, and fitted best
first: the few with the highest bounds reach a best that retires most of
the others before their first iteration. So the pick is the full call's,
while the winner's fit can move in its last bits (its block's lanes leave
sooner, and BLAS rounds by lane count). The bound is that of the
log-likelihood without the mu floor and theta clip that flatten it far
out, so a lane with an observation near a flat end is not bounded, and one
that would reach a flat end only after it retires is not covered. Every
other pair fits every candidate in full.

Every candidate model at a given step has the same size, so the step's
argmin of EBIC is its argmax of log-likelihood for every gamma: one path is
grown, and all gammas are read off it by prefix minimization. No fit's
log-likelihood exceeds the family's saturated one, so a prefix of size K
scores at least -2 sat + K ln n + 2 gamma ln C(p, K); once that floor, over
every size still reachable, lies above each gamma's running minimum, the
path stops, since no later step could change any gamma's model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ebic import ebic_penalties, ebic_score, resolve_gamma
from .errors import EmptyCandidates, InvalidArgs, PathEmpty
from .glm import Dataset, FitResult, ModelIndex, _initial_beta, _newton_lanes, fit_mle
from .links import LinkFamily


@dataclass
class ScreenResult:
    """Features ranked by |marginal slope|, largest first, ties by lower index."""

    ranked_features: np.ndarray
    statistics: np.ndarray
    keep: np.ndarray


def screen_mme(
    lf: LinkFamily,
    data: Dataset,
    d: int,
    include_intercept: bool = True,
) -> ScreenResult:
    """Rank features by the absolute slope of the one-covariate GLM fit.

    All columns are fitted by one ``_newton_lanes`` call under the stop
    rules of ``fit_mle``; a duplicated column is fitted once, so its copies
    get bit-equal statistics. Features that fail the rank test or end
    without a finite log-likelihood and slope get statistic -inf and rank
    last; no feature aborts the screen. Ties go to the lower index. A y the
    family cannot model raises DataError naming its row.
    """
    if d < 1:
        raise InvalidArgs(f"screen size d must be >= 1, got {d}")
    lf.family.validate_y(data.y)
    n, p = data.n, data.p
    m = 1 if include_intercept else 0  # the shared block A is [1] or empty
    start = _initial_beta(lf, data.y, m + 1, include_intercept)
    fits = _newton_lanes(data.y, np.ones((n, m)), data.X, np.arange(p), lf, start)
    slope = fits.beta[-1]
    usable = ~fits.rank_deficient & np.isfinite(fits.log_lik) & np.isfinite(slope)
    stats = np.where(usable, np.abs(slope), -np.inf)
    ranked = np.lexsort((np.arange(p), -stats))
    return ScreenResult(
        ranked_features=ranked,
        statistics=stats,
        keep=ranked[: min(d, p)].copy(),
    )


@dataclass
class SelectionStep:
    """A step of the path, with its kernel call's work: its candidate lanes,
    their Newton iterations summed, and the lanes it retired. A lane retired
    at its start runs no iteration, so a step whose lanes were bounded there
    can count fewer lane-iterations than lanes."""

    feature: int
    fit: FitResult
    scores: tuple  # ModelScore per gamma, aligned with SelectionPath.gammas
    lanes: int
    lane_iterations: int
    retired: int


@dataclass
class SelectionPath:
    """A greedy path and the EBIC-minimizing prefix read off it per gamma.

    ``stop_reason`` says why the path ended: ``max-steps`` (the step cap),
    ``size-limit`` (n - 2 covariates), ``no-candidates`` (every candidate
    selected), ``no-usable-fit`` (no candidate gave a finite
    log-likelihood) or ``ebic-decided`` (no longer prefix could change any
    gamma's EBIC minimum, see ``forward_select``).
    """

    steps: list
    null_fit: FitResult
    null_scores: tuple
    final_prefixes: tuple  # prefix length minimizing EBIC, per gamma
    gammas: tuple
    stop_reason: str
    include_intercept: bool = True

    @property
    def features(self) -> tuple:
        return tuple(s.feature for s in self.steps)

    def _gamma_pos(self, gamma: float) -> int:
        for i, g in enumerate(self.gammas):
            if g == gamma:
                return i
        raise InvalidArgs(f"gamma {gamma} was not scored on this path")

    def prefix_for(self, gamma: float) -> int:
        return self.final_prefixes[self._gamma_pos(gamma)]

    def model_for(self, gamma: float) -> ModelIndex:
        return ModelIndex(
            self.features[: self.prefix_for(gamma)],
            include_intercept=self.include_intercept,
        )

    def fit_for(self, gamma: float) -> FitResult:
        k = self.prefix_for(gamma)
        return self.null_fit if k == 0 else self.steps[k - 1].fit

    def ebic_sequence(self, gamma: float) -> np.ndarray:
        i = self._gamma_pos(gamma)
        return np.array(
            [self.null_scores[i].ebic] + [s.scores[i].ebic for s in self.steps]
        )


def _check_max_steps(max_steps: int, name: str = "max_steps") -> None:
    """Refuse a path step cap below 1; ``name`` is the caller's parameter."""
    if max_steps < 1:
        raise InvalidArgs(f"{name} must be >= 1, got {max_steps}")


def _gamma_values(gammas) -> tuple:
    """The gammas as a tuple of floats; refuses an empty one."""
    gammas = tuple(float(g) for g in gammas)
    if not gammas:
        raise InvalidArgs("need at least one gamma")
    return gammas


def _ebic_floors(sat: float, n: int, p: int, gammas: tuple, last: int) -> np.ndarray:
    """floors[i, s]: the least EBIC at gammas[i] that any prefix of size
    s + 1 .. last can score. A fit's log-likelihood is at most ``sat``, the
    saturated one, so EBIC_gamma(K) >= -2 sat + K ln n + 2 gamma ln C(p, K)."""
    pen = np.array([[sum(ebic_penalties(n, p, k, g)) for k in range(1, last + 1)]
                    for g in gammas])
    return -2.0 * sat + np.minimum.accumulate(pen[:, ::-1], axis=1)[:, ::-1]


def _forward_step(lf, data, current, cur_beta, remaining, gammas, include_intercept):
    """One greedy step from the model ``current`` (selection order) fitted at
    ``cur_beta``: the step, and its beta in selection order to start the
    next one; None when no candidate gives a usable fit."""
    n, p = data.n, data.p
    off = 1 if include_intercept else 0
    shared = np.empty((n, len(current) + off))
    if include_intercept:
        shared[:, 0] = 1.0
    shared[:, off:] = data.X[:, current]
    fits = _newton_lanes(data.y, shared, data.X, remaining, lf, np.append(cur_beta, 0.0),
                         pick_only=True)
    score = np.where(fits.rank_deficient | ~np.isfinite(fits.log_lik), -np.inf,
                     fits.log_lik)
    if score.max() == -np.inf:
        return None
    best = int(np.argmax(score))
    best_feature, best_fit = remaining[best], fits.fit(best)
    cols = current + [best_feature]
    order = np.argsort(cols, kind="stable")
    beta_sorted = np.empty_like(best_fit.beta)
    beta_sorted[:off] = best_fit.beta[:off]
    beta_sorted[off:] = best_fit.beta[off:][order]
    model = ModelIndex(tuple(cols), include_intercept=include_intercept)
    step_fit = replace(best_fit, beta=beta_sorted)
    scores = tuple(ebic_score(step_fit, model, n, p, g) for g in gammas)
    step = SelectionStep(feature=best_feature, fit=step_fit, scores=scores,
                         lanes=len(remaining), lane_iterations=int(fits.iterations.sum()),
                         retired=int(fits.retired.sum()))
    return step, best_fit.beta


def forward_select(
    lf: LinkFamily,
    data: Dataset,
    candidates,
    gammas,
    max_steps: int,
    include_intercept: bool = True,
) -> SelectionPath:
    """Grow the greedy path, fitting every remaining candidate at each step.

    Each step fits all remaining candidates with one pick-only
    ``_newton_lanes`` call (blocks of lanes bounded by
    ``glm.LANE_BLOCK_CELLS``) and takes the largest log-likelihood, lowest
    index among equal ones. The candidates are fitted best first, and a lane
    that a weak-duality bound shows cannot win is retired early, most of
    them before their first iteration (see the module docstring), so the
    pick is that of fitting every candidate in full; the winner's fit may
    differ from that full call's in its last bits. That lane of the call is the step's
    reported fit, flags included, and its beta starts the next step; the
    step also records its call's lanes, lane-iterations and retired lanes.

    Stops at ``max_steps``, when the model reaches n - 2 covariates, when no
    candidate is left, when no candidate yields a usable fit (finite
    log-likelihood), or once EBIC has decided every gamma's model: before a
    step, if the least EBIC any longer prefix can score (its log-likelihood
    taken as the family's saturated one) exceeds the running minimum by more
    than 1e-9 (1 + |EBIC|) for every gamma, no later step can change a final
    prefix, so none is fitted. The reason is ``SelectionPath.stop_reason``.
    Quasi-separated fits are usable; they carry the best log-likelihood
    reached under the coefficient cap. EBIC ties go to the lower feature
    index.
    """
    cand = sorted(set(int(c) for c in candidates))
    if not cand:
        raise EmptyCandidates("forward selection needs at least one candidate")
    if cand[0] < 0 or cand[-1] >= data.p:
        raise InvalidArgs(f"candidate index out of range for p={data.p}")
    _check_max_steps(max_steps)
    gammas = _gamma_values(gammas)
    n, p = data.n, data.p

    null_model = ModelIndex((), include_intercept=include_intercept)
    null_fit = fit_mle(lf, data, null_model)
    null_scores = tuple(ebic_score(null_fit, null_model, n, p, g) for g in gammas)

    # the largest prefix the path can reach, and the EBIC floor of each step
    last = min(max_steps, n - 2, len(cand))
    floors = _ebic_floors(lf.family.saturated_log_lik(data.y), n, p, gammas, last)
    best = np.array([s.ebic for s in null_scores])  # running minimum per gamma

    steps: list[SelectionStep] = []
    current: list[int] = []  # selection order
    cur_beta = null_fit.beta
    remaining = list(cand)
    stop_reason = "max-steps"
    while len(steps) < max_steps:
        if len(steps) >= n - 2:
            stop_reason = "size-limit"
            break
        if not remaining:
            stop_reason = "no-candidates"
            break
        if np.all(floors[:, len(steps)] - best > 1e-9 * (1.0 + np.abs(best))):
            stop_reason = "ebic-decided"
            break
        grown = _forward_step(lf, data, current, cur_beta, remaining, gammas,
                              include_intercept)
        if grown is None:
            if not steps:
                raise PathEmpty("no candidate produced a usable fit at step 1")
            stop_reason = "no-usable-fit"
            break
        step, cur_beta = grown
        steps.append(step)
        current.append(step.feature)
        remaining.remove(step.feature)
        best = np.minimum(best, [sc.ebic for sc in step.scores])

    prefixes = []
    for i in range(len(gammas)):
        seq = [null_scores[i].ebic] + [s.scores[i].ebic for s in steps]
        prefixes.append(int(np.argmin(seq)))
    return SelectionPath(
        steps=steps,
        null_fit=null_fit,
        null_scores=null_scores,
        final_prefixes=tuple(prefixes),
        gammas=gammas,
        stop_reason=stop_reason,
        include_intercept=include_intercept,
    )


@dataclass(frozen=True)
class SelectConfig:
    """Configuration for the screen-then-forward-select pipeline.

    ``gammas`` entries may be numbers or preset names (resolved against the
    data dimensions). ``max_steps=None`` means 50; a value below 1 is
    refused before any fit (``_check_max_steps``), and the path also ends at
    n - 2 covariates. The simulation batch fills ``max_steps`` with its own
    cap min(ceil(1.6 * p0n), 50) (``experiments.GROWTH_FACTOR``).
    """

    gammas: tuple = ("gamma1", "gamma2", "gamma3", "gamma4")
    max_steps: int | None = None
    screen_threshold: int = 1000
    screen_keep: int = 400
    include_intercept: bool = True


@dataclass
class SelectionReport:
    screen: ScreenResult | None
    path: SelectionPath
    gammas: tuple  # resolved values
    gamma_specs: tuple  # as requested (presets or numbers)
    final_models: tuple  # ModelIndex per gamma


def select_pipeline(
    lf: LinkFamily,
    data: Dataset,
    config: SelectConfig | None = None,
) -> SelectionReport:
    """Screen when p exceeds the threshold, then run forward selection. An
    empty ``gammas`` or a ``max_steps`` below 1 is refused before any fit."""
    config = config or SelectConfig()
    gammas = _gamma_values(resolve_gamma(g, data.n, data.p) for g in config.gammas)
    max_steps = 50 if config.max_steps is None else config.max_steps
    _check_max_steps(max_steps)
    screen = None
    candidates = np.arange(data.p)
    if data.p > config.screen_threshold:
        screen = screen_mme(lf, data, config.screen_keep, config.include_intercept)
        candidates = screen.keep
    path = forward_select(lf, data, candidates, gammas, max_steps, config.include_intercept)
    final = tuple(path.model_for(g) for g in gammas)

    return SelectionReport(
        screen=screen,
        path=path,
        gammas=gammas,
        gamma_specs=tuple(config.gammas),
        final_models=final,
    )
