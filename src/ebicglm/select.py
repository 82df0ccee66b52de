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
its own coefficient moved to its index position, and starts the next step,
so every fit the path reports comes from the one kernel. Ties go to the
lower feature index. A screened path's first step would refit the screen's
kept models from the screen's own start, so it takes its pick and fit from
the screen's call instead (see ``select_pipeline``).

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
all are bounded there first, from one inverse of the current model's
Hessian, and fitted best first: the few with the highest bounds reach a
best that retires most of the others before their first iteration, in
any number of blocks of the kernel. So the pick is the full call's,
while the winner's fit can move in its last bits (its block's lanes leave
sooner, and BLAS rounds by lane count). The bound is that of the
log-likelihood without the mu floor and theta clip that flatten it far
out, so a lane with an observation near a flat end is not bounded, and one
that would reach a flat end only after it retires is not covered. Every
other pair fits every candidate in full.

The screen keeps only its d columns with the largest |slope|, so under the
same two pairs it fits only as far as that keep set, after the Gap Safe
screening rules of Fercoq, Gramfort & Salmon (ICML 2015) and Ndiaye et al.
(JMLR 2017). Its columns are fitted best first, in blocks of the kernel,
by the slope of the first Newton step that each takes from their shared
start; once d statistics are known, the d-th
largest is the cut c, and it only rises. A later column retires, with
statistic NaN, once a bound on the log-likelihood of every coefficient
vector in its box with |slope| >= c lies below the log-likelihood the
column has reached, less the same margin: since its fit only climbs, it
ends with |slope| < c. Every later column is bounded once, at the shared
start, in one sweep once the cut is fixed, as a step's candidates are
first bounded: one beaten there retires before its first iteration, and
one beaten by the log-likelihood its first step reaches retires there;
only the others are fitted on, in the blocks they would have filled, each
bounded at the start again if the cut has risen by the time its block
comes up. The half-box on the side its first Newton step heads for is
bounded by weak duality, at the residual linearized where the lane's
quadratic model peaks with the slope held at c (or -c), its intercept
refitted where the clip into phi's domain moved it; the other half-box is
bounded by the tangent plane at the shared start, since the
log-likelihood is concave. That tangent pays the cap times the
intercept's gradient, which is 0 only at the start, so a bound after the
first step would retire no column of the package's workflows, and none is
formed. A retired column's log-likelihood with the
slope held at c is thus below its own by the margin, about 10^5 times what
the stop rule (``glm.DEC_TOL``) leaves unresolved, so it never ties the
cut. Statistics are exact only to that stop rule, so where the d-th and
(d+1)-th lie within it of each other, which is kept is decided by the
fitted values, whose last bits move with the columns fitted beside them;
that holds with or without retiring, and only exactly fitted columns take
part in such a tie.

Every candidate model at a given step has the same size, so the step's
argmin of EBIC is its argmax of log-likelihood for every gamma: one path is
grown, and all gammas are read off it by prefix minimization. No fit's
log-likelihood exceeds the family's saturated one, so a prefix of size K
scores at least -2 sat + K ln n + 2 gamma ln C(p, K); once that floor, over
every size still reachable, lies above each gamma's running minimum, the
path stops, since no later step could change any gamma's model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .ebic import ebic_penalties, ebic_score, resolve_gamma
from .errors import EmptyCandidates, InvalidArgs, PathEmpty
from .glm import (Dataset, FitResult, LaneFits, ModelIndex, _design, _initial_beta,
                  _newton_lanes, fit_mle)
from .links import LinkFamily


@dataclass
class ScreenResult:
    """Features ranked by |marginal slope|, largest first, ties by lower
    index, with the screen's kernel call's work as ``SelectionStep`` records
    it: its lanes, their Newton iterations summed, and the lanes it retired
    (whose statistics are NaN, see ``screen_mme``). A column retired at its
    start counts 0 lane-iterations."""

    ranked_features: np.ndarray
    statistics: np.ndarray
    keep: np.ndarray
    lanes: int
    lane_iterations: int
    retired: int
    #: the kept columns' lanes of the screen's call, in index order, which
    #: a screened path takes its first step from (see ``select_pipeline``)
    _kept_fits: LaneFits | None = field(default=None, repr=False, compare=False)


def screen_mme(
    lf: LinkFamily,
    data: Dataset,
    d: int,
    include_intercept: bool = True,
) -> ScreenResult:
    """Rank features by the absolute slope of the one-covariate GLM fit.

    All columns are fitted by one ``_newton_lanes`` call with ``keep`` = d
    under the stop rules of ``fit_mle``; a duplicated column is fitted once,
    so its copies get bit-equal statistics. Under Bernoulli logit and
    cloglog, a column of a later block that is proven to end below the cut
    (the d-th largest statistic), once one is known, is retired and gets
    statistic NaN (see the module docstring); ``keep`` is that of fitting
    every column in full, and ``retired`` counts the NaN statistics. Most
    are retired at the shared start, before their first iteration, and
    count 0 lane-iterations.
    Features that fail the rank test or end without a finite log-likelihood
    and slope get statistic -inf; no feature aborts the screen. The ranking
    puts every exact statistic first, largest first, then the retired
    features, then the -inf ones, with ties to the lower index. A y the
    family cannot model raises DataError naming its row.
    """
    if d < 1:
        raise InvalidArgs(f"screen size d must be >= 1, got {d}")
    lf.family.validate_y(data.y)
    p = data.p
    A = _design(data, ModelIndex((), include_intercept))  # [1] or empty
    start = _initial_beta(lf, data.y, A.shape[1] + 1, include_intercept)
    fits = _newton_lanes(data.y, A, data.X, np.arange(p), lf, start, keep=d)
    stats = fits.statistics()
    # exact statistics largest first, then the retired (NaN), then the
    # failures (-inf), each group's ties by lower index
    group = np.where(np.isnan(stats), 1, np.where(stats == -np.inf, 2, 0))
    ranked = np.lexsort((np.arange(p), np.where(group, 0.0, -stats), group))
    keep = ranked[: min(d, p)].copy()
    return ScreenResult(
        ranked_features=ranked,
        statistics=stats,
        keep=keep,
        lanes=p,
        lane_iterations=int(fits.iterations.sum()),
        retired=int(fits.retired.sum()),
        _kept_fits=fits.take(np.sort(keep)),
    )


@dataclass
class SelectionStep:
    """A step of the path, with its kernel call's work: its candidate lanes,
    their Newton iterations summed, and the lanes it retired. A lane retired
    at its start runs no iteration, so a step whose lanes were bounded there
    can count fewer lane-iterations than lanes. A screened path's first
    step, read off the screen's fits (see ``select_pipeline``), makes no
    kernel call and records 0 of each; ``ScreenResult`` counts that work."""

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


def _forward_step(lf, data, model, fit, remaining, gammas, fitted=None):
    """One greedy step from ``model`` fitted at ``fit``, or None when no
    candidate gives a usable fit. The step's fit is in index order, as every
    ``FitResult`` is, and starts the next step. ``fitted``, the lanes of
    ``remaining`` already fitted from that start, stands in for the step's
    kernel call."""
    n, p = data.n, data.p
    fits = fitted
    if fits is None:
        fits = _newton_lanes(data.y, _design(data, model), data.X, remaining, lf,
                             np.append(fit.beta, 0.0), pick_only=True)
    score = np.where(fits.rank_deficient | ~np.isfinite(fits.log_lik), -np.inf,
                     fits.log_lik)
    if score.max() == -np.inf:
        return None
    best = int(np.argmax(score))
    feature, lane = remaining[best], fits.fit(best)
    grown = ModelIndex(model.indices + (feature,), model.include_intercept)
    # the lane's beta is the model's, then the candidate's own coefficient
    pos = int(model.include_intercept) + grown.indices.index(feature)
    step_fit = replace(lane, beta=np.insert(lane.beta[:-1], pos, lane.beta[-1]))
    scores = tuple(ebic_score(step_fit, grown, n, p, g) for g in gammas)
    lanes, lane_iterations, retired = ((0, 0, 0) if fitted is not None else (
        len(remaining), int(fits.iterations.sum()), int(fits.retired.sum())))
    return SelectionStep(feature=feature, fit=step_fit, scores=scores, lanes=lanes,
                         lane_iterations=lane_iterations, retired=retired)


def forward_select(
    lf: LinkFamily,
    data: Dataset,
    candidates,
    gammas,
    max_steps: int,
    include_intercept: bool = True,
    *,
    _screened: LaneFits | None = None,
) -> SelectionPath:
    """Grow the greedy path, fitting every remaining candidate at each step.

    Each step fits all remaining candidates with one pick-only
    ``_newton_lanes`` call (blocks of lanes bounded by
    ``glm.LANE_BLOCK_CELLS``) and takes the largest log-likelihood, lowest
    index among equal ones. The candidates are fitted best first, and a lane
    that a weak-duality bound shows cannot win is retired early, most of
    them before their first iteration (see the module docstring), so the
    pick is that of fitting every candidate in full; the winner's fit may
    differ from that full call's in its last bits. That lane of the call,
    its beta in index order, is the step's reported fit, flags included, and
    the next step starts from it; each step records its call's lanes,
    lane-iterations and retired lanes.

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

    ``_screened``, private to ``select_pipeline``, holds its screen's fits
    of the candidates in index order: step 1 reads its pick from them where
    they started at the null fit's beta, in place of its own call.
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

    # the screen's fits start at _initial_beta's g(ybar), as the null fit
    # does, and that converges there at its first iteration unless ybar was
    # clamped into the mean domain; then step 1 is fitted from the null fit
    fitted = _screened if null_fit.iterations <= 1 else None
    steps: list[SelectionStep] = []
    model, fit = null_model, null_fit
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
        step = _forward_step(lf, data, model, fit, remaining, gammas, fitted)
        fitted = None
        if step is None:
            if not steps:
                raise PathEmpty("no candidate produced a usable fit at step 1")
            stop_reason = "no-usable-fit"
            break
        steps.append(step)
        model = ModelIndex(model.indices + (step.feature,), include_intercept)
        fit = step.fit
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
    empty ``gammas`` or a ``max_steps`` below 1 is refused before any fit.

    A screened path takes its first step from the screen's fits of its kept
    columns, which are the models [1, x_j] (or [x_j]) that step fits, under
    the same stop rules and from the same start, and picks among them as a
    forward step does; its fit can differ from a step call's in its last
    bits. Where the screen's start g(ybar) had ybar clamped into the mean
    domain, the null fit moves off it, and step 1 makes its own call.
    """
    config = config or SelectConfig()
    gammas = _gamma_values(resolve_gamma(g, data.n, data.p) for g in config.gammas)
    max_steps = 50 if config.max_steps is None else config.max_steps
    _check_max_steps(max_steps)
    screen = None
    candidates = np.arange(data.p)
    if data.p > config.screen_threshold:
        screen = screen_mme(lf, data, config.screen_keep, config.include_intercept)
        candidates = screen.keep
    path = forward_select(lf, data, candidates, gammas, max_steps, config.include_intercept,
                          _screened=None if screen is None else screen._kept_fits)
    final = tuple(path.model_for(g) for g in gammas)

    return SelectionReport(
        screen=screen,
        path=path,
        gammas=gammas,
        gamma_specs=tuple(config.gammas),
        final_models=final,
    )
