"""Marginal-estimator screening and EBIC-guided forward selection.

The screen fits every one-covariate model by the same damped Newton
iteration and stop rules as any other fit, but for a block of columns at a
time (``glm._newton_columns``); a column that stalls holds up only its own
lane of the block. Screening ties go to the lower feature index.

One greedy path is grown using the first requested gamma; because every
candidate model at a given step has the same size, the per-step argmin of
EBIC does not depend on gamma, so all gammas are read off the shared path
by prefix minimization afterwards. ``SelectConfig.path_per_gamma`` builds a
separate path per gamma instead for anyone wanting the literal variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ebic import ebic_score, resolve_gamma
from .errors import EmptyCandidates, InvalidArgs, PathEmpty, RankDeficient
from .glm import (
    Dataset,
    FitOptions,
    FitResult,
    ModelIndex,
    _initial_beta,
    _newton,
    _newton_columns,
)
from .links import LinkFamily


#: most doubles in one n x C working array of the screen's batched fit
SCREEN_BLOCK_CELLS = 1 << 14


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
    options: FitOptions | None = None,
    include_intercept: bool = True,
) -> ScreenResult:
    """Rank features by the absolute slope of the one-covariate GLM fit.

    The columns are fitted in blocks of at most ``SCREEN_BLOCK_CELLS / n``
    under the stop rules of ``fit_mle``, each column's arithmetic independent
    of its block, so duplicated columns get bit-equal statistics. Features
    that fail the rank test or end without a finite log-likelihood and slope
    get statistic -inf and rank last; the screen itself never aborts. Ties
    go to the lower index.
    """
    if d < 1:
        raise InvalidArgs(f"screen size d must be >= 1, got {d}")
    opts = options or FitOptions()
    n, p = data.n, data.p
    init = _initial_beta(lf, data.y, 2 if include_intercept else 1, include_intercept)
    slope = np.empty(p)
    log_lik = np.empty(p)
    rank_deficient = np.empty(p, dtype=bool)
    width = max(1, SCREEN_BLOCK_CELLS // n)
    for start in range(0, p, width):
        block = slice(start, start + width)
        slope[block], log_lik[block], rank_deficient[block] = _newton_columns(
            data.y, data.X[:, block], lf, init, opts
        )
    usable = ~rank_deficient & np.isfinite(log_lik) & np.isfinite(slope)
    stats = np.where(usable, np.abs(slope), -np.inf)
    ranked = np.lexsort((np.arange(p), -stats))
    return ScreenResult(
        ranked_features=ranked,
        statistics=stats,
        keep=ranked[: min(d, p)].copy(),
    )


@dataclass
class SelectionStep:
    feature: int
    fit: FitResult
    scores: tuple  # ModelScore per gamma, aligned with SelectionPath.gammas


@dataclass
class SelectionPath:
    steps: list
    null_fit: FitResult
    null_scores: tuple
    final_prefixes: tuple  # prefix length minimizing EBIC, per gamma
    gammas: tuple
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


def forward_select(
    lf: LinkFamily,
    data: Dataset,
    candidates,
    gammas,
    max_steps: int,
    options: FitOptions | None = None,
    include_intercept: bool = True,
) -> SelectionPath:
    """Grow the greedy path, fitting every remaining candidate at each step.

    Stops at ``max_steps``, when the model reaches n - 2 covariates, or when
    no candidate yields a usable fit (finite log-likelihood). Quasi-separated
    fits are usable; they carry the best log-likelihood reached under the
    coefficient cap. EBIC ties go to the lower feature index.
    """
    cand = sorted(set(int(c) for c in candidates))
    if not cand:
        raise EmptyCandidates("forward selection needs at least one candidate")
    if cand[0] < 0 or cand[-1] >= data.p:
        raise InvalidArgs(f"candidate index out of range for p={data.p}")
    if max_steps < 1:
        raise InvalidArgs(f"max_steps must be >= 1, got {max_steps}")
    gammas = tuple(float(g) for g in gammas)
    if not gammas:
        raise InvalidArgs("need at least one gamma")
    opts = options or FitOptions()
    n, p = data.n, data.p
    y = data.y
    from .glm import fit_mle  # local import keeps module load cheap

    null_model = ModelIndex((), include_intercept=include_intercept)
    null_fit = fit_mle(lf, data, null_model, opts)
    null_scores = tuple(ebic_score(null_fit, null_model, n, p, g) for g in gammas)

    steps: list[SelectionStep] = []
    current: list[int] = []  # selection order
    cur_beta = null_fit.beta
    remaining = list(cand)
    off = 1 if include_intercept else 0
    while len(steps) < max_steps and len(current) < n - 2 and remaining:
        size = len(current) + 1
        design = np.empty((n, size + off))
        if include_intercept:
            design[:, 0] = 1.0
        if current:
            design[:, off:-1] = data.X[:, current]
        init = np.append(cur_beta, 0.0)
        best_ll = -np.inf
        best_feature = -1
        best_fit = None
        for c in remaining:
            design[:, -1] = data.X[:, c]
            try:
                fit = _newton(y, design, lf, init, opts)
            except RankDeficient:
                continue
            if np.isfinite(fit.log_lik) and fit.log_lik > best_ll:
                best_ll = fit.log_lik
                best_feature = c
                best_fit = fit
        if best_fit is None:
            if not steps:
                raise PathEmpty("no candidate produced a usable fit at step 1")
            break
        cols = current + [best_feature]
        order = np.argsort(cols, kind="stable")
        beta_sorted = np.empty_like(best_fit.beta)
        beta_sorted[:off] = best_fit.beta[:off]
        beta_sorted[off:] = best_fit.beta[off:][order]
        model = ModelIndex(tuple(cols), include_intercept=include_intercept)
        step_fit = replace(best_fit, beta=beta_sorted)
        scores = tuple(ebic_score(step_fit, model, n, p, g) for g in gammas)
        steps.append(SelectionStep(feature=best_feature, fit=step_fit, scores=scores))
        current.append(best_feature)
        remaining.remove(best_feature)
        cur_beta = best_fit.beta

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
        include_intercept=include_intercept,
    )


@dataclass(frozen=True)
class SelectConfig:
    """Configuration for the screen-then-forward-select pipeline.

    ``gammas`` entries may be numbers or preset names (resolved against the
    data dimensions). ``max_steps=None`` uses min(ceil(k_multiplier * p0n),
    50) when the true support size is known and 50 otherwise, always capped
    at n - 2.
    """

    gammas: tuple = ("gamma1", "gamma2", "gamma3", "gamma4")
    max_steps: int | None = None
    screen_threshold: int = 1000
    screen_keep: int = 400
    # growth cap ceil(k * p0n): the selected-model size of the
    # no-prior-penalty read-out is pinned by this cap, and the reference
    # false-discovery level it reproduces implies an effective cap near
    # 1.6 * p0n, not 3 * p0n
    k_multiplier: float = 1.6
    path_per_gamma: bool = False
    include_intercept: bool = True
    fit: FitOptions = field(default_factory=FitOptions)

    def to_json_dict(self) -> dict:
        return {
            "gammas": list(self.gammas),
            "maxSteps": self.max_steps,
            "screenThreshold": self.screen_threshold,
            "screenKeep": self.screen_keep,
            "kMultiplier": self.k_multiplier,
            "pathPerGamma": self.path_per_gamma,
            "includeIntercept": self.include_intercept,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SelectConfig":
        known = {
            "gammas": "gammas",
            "maxSteps": "max_steps",
            "screenThreshold": "screen_threshold",
            "screenKeep": "screen_keep",
            "kMultiplier": "k_multiplier",
            "pathPerGamma": "path_per_gamma",
            "includeIntercept": "include_intercept",
        }
        kwargs = {}
        for key, value in d.items():
            if key not in known:
                raise InvalidArgs(f"unknown SelectConfig key {key!r}")
            kwargs[known[key]] = tuple(value) if key == "gammas" else value
        return cls(**kwargs)


@dataclass
class SelectionReport:
    screen: ScreenResult | None
    path: SelectionPath
    gammas: tuple  # resolved values
    gamma_specs: tuple  # as requested (presets or numbers)
    final_models: tuple  # ModelIndex per gamma
    paths_per_gamma: dict | None = None


def _effective_max_steps(config: SelectConfig, n: int, true_support_size) -> int:
    if config.max_steps is not None:
        m = int(config.max_steps)
    elif true_support_size:
        m = min(int(math.ceil(config.k_multiplier * true_support_size)), 50)
    else:
        m = 50
    return max(1, min(m, n - 2))


def select_pipeline(
    lf: LinkFamily,
    data: Dataset,
    config: SelectConfig | None = None,
    true_support_size: int | None = None,
) -> SelectionReport:
    """Screen when p exceeds the threshold, then run forward selection."""
    config = config or SelectConfig()
    gammas = tuple(resolve_gamma(g, data.n, data.p) for g in config.gammas)
    screen = None
    candidates = np.arange(data.p)
    if data.p > config.screen_threshold:
        screen = screen_mme(
            lf, data, config.screen_keep, config.fit, config.include_intercept
        )
        candidates = screen.keep
    max_steps = _effective_max_steps(config, data.n, true_support_size)

    paths_per_gamma = None
    if config.path_per_gamma and len(gammas) > 1:
        paths_per_gamma = {}
        for g in gammas:
            ordered = (g,) + tuple(x for x in gammas if x != g)
            paths_per_gamma[g] = forward_select(
                lf, data, candidates, ordered, max_steps, config.fit,
                config.include_intercept,
            )
        path = paths_per_gamma[gammas[0]]
        final = tuple(paths_per_gamma[g].model_for(g) for g in gammas)
    else:
        path = forward_select(
            lf, data, candidates, gammas, max_steps, config.fit,
            config.include_intercept,
        )
        final = tuple(path.model_for(g) for g in gammas)

    return SelectionReport(
        screen=screen,
        path=path,
        gammas=gammas,
        gamma_specs=tuple(config.gammas),
        final_models=final,
        paths_per_gamma=paths_per_gamma,
    )
