"""Replicate batches, PDR/FDR summaries, CV link choice, real-data workflow.

Replicates run in parallel processes; every replicate is keyed by its id and
aggregation happens in id order, so thread counts never change the numbers.
"""

from __future__ import annotations

import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .ebic import resolve_gamma
from .errors import DataError, EbicGlmError, FoldTooSmall, InvalidArgs
from .glm import Dataset, _loglik_from_eta
from .links import Bernoulli, Cloglog, compose_link_family, parse_link_family
from .select import SelectConfig, _check_max_steps, select_pipeline
from .simgen import SimDesign, TrueModel, _rng_for, generate_replicate


@dataclass(frozen=True)
class PdrFdr:
    pdr: float
    fdr: float


def pdr_fdr(selected, truth) -> PdrFdr:
    """PDR = |s* intersect s0| / |s0|; FDR = |s* minus s0| / |s*| (0 if s* empty)."""
    if hasattr(selected, "indices"):
        selected = selected.indices
    if isinstance(truth, TrueModel):
        truth = truth.support
    s_star = set(int(i) for i in selected)
    s0 = set(int(i) for i in truth)
    if not s0:
        raise InvalidArgs("true support must be non-empty")
    pdr = len(s_star & s0) / len(s0)
    fdr = len(s_star - s0) / len(s_star) if s_star else 0.0
    return PdrFdr(pdr=pdr, fdr=fdr)


@dataclass(frozen=True)
class SummaryCell:
    setting: str
    rho: float
    n: int
    gamma_label: str
    gamma: float
    mean_pdr: float
    sd_pdr: float  # sample standard deviation of replicate-level PDR
    mean_fdr: float
    sd_fdr: float
    n_reps: int
    n_failed: int


def _fmt(x) -> str:
    """One TSV cell: NA for a statistic that does not apply (None or a
    non-finite float), six decimals for any other float, else ``str``."""
    if x is None:
        return "NA"
    if isinstance(x, float):
        return "NA" if not np.isfinite(x) else f"{x:.6f}"
    return str(x)


def _tsv(rows) -> str:
    """The package's one TSV writer: a line per row, every cell through ``_fmt``."""
    return "".join("\t".join(_fmt(x) for x in row) + "\n" for row in rows)


@dataclass
class ExperimentSummary:
    design: SimDesign
    cells: tuple
    n_failed: int
    failures: tuple  # (replicate_id, message)
    replicate_metrics: tuple  # (replicate_id, PdrFdr-per-gamma) for successes

    def to_tsv(self) -> str:
        return _tsv([
            ("setting", "rho", "n", "gamma", "mean_pdr", "sd_pdr", "mean_fdr", "sd_fdr",
             "n_reps", "n_failed"),
            *((c.setting, f"{c.rho:g}", c.n, c.gamma, c.mean_pdr, c.sd_pdr, c.mean_fdr,
               c.sd_fdr, c.n_reps, c.n_failed) for c in self.cells),
        ])


# the argument every task of a pool shares; set once in each worker process
# by the pool initializer, never in the main process
_worker_shared = None


def _set_worker_shared(shared) -> None:
    global _worker_shared
    _worker_shared = shared


def _shared_call(fn, task):
    return fn(_worker_shared, task)


def _map_tasks(shared, calls, threads):
    """``[fn(shared, task) for fn, task in calls]`` on up to ``threads``
    worker processes.

    Each worker receives ``shared`` once, through the pool initializer, and
    each call only its own function and arguments. Results come back in call
    order, so the number of workers never changes them.
    """
    workers = min(threads or 1, len(calls))
    if workers <= 1:
        return [fn(shared, task) for fn, task in calls]
    # Linux workers fork whatever the default (forkserver from Python 3.14),
    # so they inherit the parent's modules and heap thresholds
    context = multiprocessing.get_context("fork") if sys.platform == "linux" else None
    with ProcessPoolExecutor(max_workers=workers, mp_context=context,
                             initializer=_set_worker_shared, initargs=(shared,)) as pool:
        return list(pool.map(_shared_call, *zip(*calls), chunksize=1))


# most replicates one batch runs: the pool queues every replicate up front and
# the batch keeps each one's metrics, so memory grows with the count; this is
# 200 times the paper's 50 replicates per cell
MAX_REPLICATES = 10_000

# the simulation's growth cap ceil(GROWTH_FACTOR * p0n): it pins the selected
# size of the no-prior-penalty read-out, and the reference false-discovery
# level it reproduces implies an effective cap near 1.6 * p0n, not 3 * p0n
GROWTH_FACTOR = 1.6


def _replicate_task(shared, rep_id):
    design, seed, config = shared
    try:
        rep = generate_replicate(design, seed, rep_id)
        lf = compose_link_family(Bernoulli(), Cloglog())
        report = select_pipeline(lf, rep.dataset, config)
        metrics = tuple(pdr_fdr(m, rep.true_model) for m in report.final_models)
        return (rep_id, metrics, None)
    except (EbicGlmError, ArithmeticError, np.linalg.LinAlgError) as exc:
        # one replicate's numerical failure is recorded, not fatal to the batch
        return (rep_id, None, f"{type(exc).__name__}: {exc}")


def _mean_sd(values):
    """Mean and sample standard deviation, NaN where not defined."""
    v = np.array(values)
    return (float(v.mean()) if v.size else math.nan,
            float(v.std(ddof=1)) if v.size > 1 else math.nan)


def run_simulation_batch(
    design: SimDesign,
    replicates: int,
    config: SelectConfig | None = None,
    seed: int = 0,
    threads: int | None = None,
) -> ExperimentSummary:
    """Generate, select and score `replicates` datasets under the design.

    Replicate-level failures (quasi-separation errors and the like) are
    recorded and excluded from the means, never silently dropped. With a
    single successful replicate the dispersion columns are not applicable
    and reported as NaN. A config that leaves ``max_steps`` unset gets the
    simulation's growth cap min(ceil(GROWTH_FACTOR * p0n), 50).
    """
    if replicates < 1:
        raise InvalidArgs(f"replicates must be >= 1, got {replicates}")
    if replicates > MAX_REPLICATES:
        raise InvalidArgs(f"replicates must be <= {MAX_REPLICATES}, got {replicates}")
    # the data-generating model carries no intercept, so replication fits
    # none either; pass an explicit config to override
    config = config or SelectConfig(include_intercept=False)
    if config.max_steps is None:
        config = replace(config, max_steps=min(math.ceil(GROWTH_FACTOR * design.p0n), 50))
    _check_max_steps(config.max_steps)
    raw = _map_tasks((design, seed, config),
                     [(_replicate_task, r) for r in range(replicates)], threads)

    successes = [(rid, m) for rid, m, err in raw if err is None]
    failures = tuple((rid, err) for rid, m, err in raw if err is not None)

    labels = tuple(str(g) for g in config.gammas)
    gamma_values = tuple(resolve_gamma(g, design.n, design.pn) for g in config.gammas)
    cells = []
    for i, (label, gval) in enumerate(zip(labels, gamma_values)):
        mean_p, sd_p = _mean_sd([m[i].pdr for _, m in successes])
        mean_f, sd_f = _mean_sd([m[i].fdr for _, m in successes])
        cells.append(
            SummaryCell(
                setting=design.setting,
                rho=design.rho,
                n=design.n,
                gamma_label=label,
                gamma=gval,
                mean_pdr=mean_p,
                sd_pdr=sd_p,
                mean_fdr=mean_f,
                sd_fdr=sd_f,
                n_reps=len(successes),
                n_failed=len(failures),
            )
        )
    return ExperimentSummary(
        design=design,
        cells=tuple(cells),
        n_failed=len(failures),
        failures=failures,
        replicate_metrics=tuple(successes),
    )


# ---------------------------------------------------------------------------
# Cross-validated link choice and the real-data workflow.
# ---------------------------------------------------------------------------

@dataclass
class CvLinkReport:
    link_names: tuple
    criteria: tuple  # summed held-out log-likelihood per link, input order
    chosen: str
    folds: int
    fold_assignment: np.ndarray


def _fold_assignment(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Seeded fold labels, stratified by response class when y is discrete."""
    n = y.shape[0]
    rng = _rng_for(seed, 0)
    fold_of = np.empty(n, dtype=int)
    classes = np.unique(y)
    if classes.size <= 10:
        for c in classes:
            rows = np.nonzero(y == c)[0]
            rows = rng.permutation(rows)
            fold_of[rows] = np.arange(rows.size) % folds
    else:
        rows = rng.permutation(n)
        fold_of[rows] = np.arange(n) % folds
    return fold_of


def _paper_final(lf, data: Dataset, max_steps: int):
    """The selection path at the real-data preset gamma = 1 - ln n / (3 ln p),
    with that gamma and the model and fit it reads off the path."""
    report = select_pipeline(lf, data, SelectConfig(gammas=("paper-final",), max_steps=max_steps))
    path, gamma = report.path, report.gammas[0]
    return path, gamma, path.model_for(gamma), path.fit_for(gamma)


def _cv_fold_task(data, task):
    lf, train_rows, test_rows, path_length = task
    _path, _gamma, model, fit = _paper_final(lf, data.subset(train_rows), path_length)
    # held-out folds may hold a single row, so score from raw arrays
    off = 1 if model.include_intercept else 0
    eta = np.full(test_rows.size, float(fit.beta[0]) if off else 0.0)
    if model.indices:
        eta += data.X[test_rows][:, list(model.indices)] @ fit.beta[off:]
    return _loglik_from_eta(data.y[test_rows], eta, lf)


def _cv_plan(data: Dataset, links, path_length: int, folds: int, seed: int):
    """The link families, the fold labels and the CV tasks of
    ``cv_select_link`` in (link, fold) order, with each task's link index."""
    if folds < 2:
        raise InvalidArgs(f"folds must be >= 2, got {folds}")
    if folds > data.n:
        raise FoldTooSmall(f"cannot split n={data.n} rows into {folds} folds")
    if data.p < 2:
        # each fold's path ends at the paper-final gamma, which needs ln p > 0
        raise DataError(f"cross-validating links needs at least 2 covariates, got p={data.p}")
    lfs = [parse_link_family(lf) if isinstance(lf, str) else lf for lf in links]
    if not lfs:
        raise InvalidArgs("need at least one link")
    names = [lf.link.name for lf in lfs]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        # each link's ranking, CV criterion and final are keyed by its name
        raise InvalidArgs(f"link {', '.join(repeated)} given more than once")
    for lf in lfs:  # on all rows, so a refused y names its row of the data
        lf.family.validate_y(data.y)
    fold_of = _fold_assignment(data.y, folds, seed)

    tasks = []
    keys = []
    for li, lf in enumerate(lfs):
        for f in range(folds):
            test_rows = np.nonzero(fold_of == f)[0]
            if test_rows.size == 0:
                continue
            train_rows = np.nonzero(fold_of != f)[0]
            if train_rows.size < 2:
                raise FoldTooSmall(
                    f"training fold {f} has {train_rows.size} rows; too small to fit"
                )
            tasks.append((lf, train_rows, test_rows, path_length))
            keys.append(li)
    return lfs, fold_of, tasks, keys


def _cv_report(lfs, folds, fold_of, keys, values) -> CvLinkReport:
    criteria = np.zeros(len(lfs))
    for li, v in zip(keys, values):  # each link's folds in fold order
        criteria[li] += v
    best = float(np.max(criteria))
    chosen_idx = next(i for i, v in enumerate(criteria) if v >= best - 1e-9)
    names = tuple(lf.link.name for lf in lfs)
    return CvLinkReport(
        link_names=names,
        criteria=tuple(float(v) for v in criteria),
        chosen=names[chosen_idx],
        folds=folds,
        fold_assignment=fold_of,
    )


def cv_select_link(
    data: Dataset,
    links,
    path_length: int = 10,
    folds: int = 8,
    seed: int = 0,
    threads: int | None = None,
) -> CvLinkReport:
    """Pick the link with the largest summed held-out log-likelihood.

    Each link runs the selection pipeline on every training fold (path grown
    to at most ``path_length``, EBIC-minimizing prefix read out at the fold's
    real-data preset gamma = 1 - ln n / (3 ln p)) and is scored on the
    held-out fold. Ties within 1e-9 go to the earlier link in the input
    order. Fold assignment is seeded and stratified by response class. A y
    that a link's family cannot model raises DataError naming its row.
    """
    _check_max_steps(path_length, "path_length")
    lfs, fold_of, tasks, keys = _cv_plan(data, links, path_length, folds, seed)
    values = _map_tasks(data, [(_cv_fold_task, task) for task in tasks], threads)
    return _cv_report(lfs, folds, fold_of, keys, values)


@dataclass
class FinalSelection:
    link: str
    model_indices: tuple  # 0-based covariate indices
    log_lik: float
    gamma: float


@dataclass
class FinalReport:
    rankings: dict  # link name -> the path's features in order (0-based)
    cv: CvLinkReport
    finals: tuple  # FinalSelection per link, input order
    chosen_link: str


def _full_path_task(data, task):
    """One link's path on all rows: its ranking and its final selection."""
    lf, path_steps = task
    path, gamma, model, fit = _paper_final(lf, data, path_steps)
    final = FinalSelection(
        link=lf.link.name,
        model_indices=model.indices,
        log_lik=fit.log_lik,
        gamma=gamma,
    )
    return path.features, final


def real_data_workflow(
    data: Dataset,
    links,
    path_steps: int = 50,
    cv_folds: int = 8,
    cv_path_length: int = 10,
    seed: int = 0,
    threads: int | None = None,
) -> FinalReport:
    """Per-link forward paths, CV link choice, then the final EBIC selection.

    The final read-out uses gamma = 1 - ln n / (3 ln p) on each link's path.
    Each path, and so each ranking, ends after ``path_steps`` steps or where
    EBIC has decided the final model, whichever comes first. The full-data
    paths and the CV folds run as one batch of tasks on the same pool, the
    paths first.
    """
    _check_max_steps(path_steps, "path_steps")
    _check_max_steps(cv_path_length, "cv_path_length")
    lfs, fold_of, cv_tasks, keys = _cv_plan(data, links, cv_path_length, cv_folds, seed)
    calls = ([(_full_path_task, (lf, path_steps)) for lf in lfs]
             + [(_cv_fold_task, task) for task in cv_tasks])
    values = _map_tasks(data, calls, threads)
    paths, cv_values = values[: len(lfs)], values[len(lfs):]
    cv = _cv_report(lfs, cv_folds, fold_of, keys, cv_values)
    return FinalReport(
        rankings={final.link: features for features, final in paths},
        cv=cv,
        finals=tuple(final for _features, final in paths),
        chosen_link=cv.chosen,
    )
