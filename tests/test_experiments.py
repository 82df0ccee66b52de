"""PDR/FDR accounting, batch runs, CV link choice, real-data workflow."""

import math
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from helpers import unstopped_forward_path

import ebicglm.experiments as exp_mod
from ebicglm import (
    DataError,
    Dataset,
    FoldTooSmall,
    InvalidArgs,
    ModelIndex,
    PathEmpty,
    SimDesign,
    TrueModel,
    SelectConfig,
    cv_select_link,
    fit_mle,
    generate_replicate,
    parse_link_family,
    pdr_fdr,
    real_data_workflow,
    resolve_gamma,
    run_simulation_batch,
    screen_mme,
    select_pipeline,
)


class TestPdrFdr:
    def test_spec_counts(self):
        r = pdr_fdr({1, 2, 3}, {1, 2, 4})
        assert r.pdr == pytest.approx(2 / 3)
        assert r.fdr == pytest.approx(1 / 3)

    def test_perfect_selection(self):
        r = pdr_fdr({5, 9}, {5, 9})
        assert (r.pdr, r.fdr) == (1.0, 0.0)

    def test_empty_selection_convention(self):
        r = pdr_fdr(set(), {1, 2})
        assert (r.pdr, r.fdr) == (0.0, 0.0)

    def test_accepts_model_index_and_true_model(self):
        tm = TrueModel(support=(0, 3), beta=np.zeros(5))
        r = pdr_fdr(ModelIndex((0, 1)), tm)
        assert r.pdr == pytest.approx(0.5)
        assert r.fdr == pytest.approx(0.5)

    def test_empty_truth_rejected(self):
        with pytest.raises(InvalidArgs):
            pdr_fdr({1}, set())

    def test_perfect_iff_equal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = set(rng.choice(20, size=rng.integers(0, 6), replace=False).tolist())
            t = set(rng.choice(20, size=rng.integers(1, 6), replace=False).tolist())
            r = pdr_fdr(s, t)
            assert (r.pdr == 1.0 and r.fdr == 0.0) == (s == t)
            assert 0.0 <= r.pdr <= 1.0 and 0.0 <= r.fdr <= 1.0


def _small_design():
    # miniature Setting-1 layout so batch tests stay fast
    return SimDesign("S1", n=60, pn=48, p0n=4, rho=0.0, L=10, q=15)


class TestSimulationBatch:
    def test_deterministic_and_thread_invariant(self):
        design = _small_design()
        a = run_simulation_batch(design, 6, seed=11, threads=1)
        b = run_simulation_batch(design, 6, seed=11, threads=2)
        assert a.to_tsv() == b.to_tsv()
        assert a.replicate_metrics == b.replicate_metrics

    def test_single_replicate_dispersion_not_applicable(self):
        design = _small_design()
        s = run_simulation_batch(design, 1, seed=3)
        for c in s.cells:
            assert math.isnan(c.sd_pdr) and math.isnan(c.sd_fdr)
        assert "NA" in s.to_tsv()

    def test_dispersion_column_is_sample_sd(self):
        design = _small_design()
        s = run_simulation_batch(design, 8, seed=2)
        for gi, cell in enumerate(s.cells):
            pdrs = np.array([m[gi].pdr for _, m in s.replicate_metrics])
            assert cell.sd_pdr == pytest.approx(pdrs.std(ddof=1), rel=1e-12)

    def test_tsv_shape(self):
        design = _small_design()
        s = run_simulation_batch(design, 3, seed=5)
        lines = s.to_tsv().strip().split("\n")
        assert lines[0].split("\t") == [
            "setting", "rho", "n", "gamma", "mean_pdr", "sd_pdr",
            "mean_fdr", "sd_fdr", "n_reps", "n_failed",
        ]
        assert len(lines) == 5  # header + four gammas

    def test_failed_replicates_counted_not_dropped(self, monkeypatch):
        design = _small_design()
        real = exp_mod.select_pipeline

        def flaky(lf, data, config):
            if flaky.calls == 1:
                flaky.calls += 1
                raise PathEmpty("synthetic failure")
            flaky.calls += 1
            return real(lf, data, config)

        flaky.calls = 0
        monkeypatch.setattr(exp_mod, "select_pipeline", flaky)
        s = run_simulation_batch(design, 4, seed=9, threads=1)
        assert s.n_failed == 1
        assert s.failures[0][0] == 1  # replicate id
        assert "PathEmpty" in s.failures[0][1]
        assert all(c.n_reps == 3 for c in s.cells)

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, FloatingPointError])
    def test_numerical_failure_stays_with_its_replicate(self, monkeypatch, error):
        design = _small_design()
        real = exp_mod.select_pipeline
        failing_y = generate_replicate(design, 9, 2).dataset.y

        def fails_on_replicate_2(lf, data, config):
            if np.array_equal(data.y, failing_y):
                raise error("synthetic failure")
            return real(lf, data, config)

        monkeypatch.setattr(exp_mod, "select_pipeline", fails_on_replicate_2)
        s = run_simulation_batch(design, 4, seed=9, threads=1)
        assert s.n_failed == 1
        assert s.failures[0][0] == 2
        assert s.failures[0][1].startswith(error.__name__)
        assert [rid for rid, _ in s.replicate_metrics] == [0, 1, 3]
        assert all(c.n_reps == 3 and np.isfinite(c.mean_pdr) for c in s.cells)

    def test_replicates_get_the_growth_cap(self, monkeypatch):
        design = _small_design()
        real = exp_mod.select_pipeline
        seen = []

        def capture(lf, data, config):
            seen.append(config.max_steps)
            return real(lf, data, config)

        monkeypatch.setattr(exp_mod, "select_pipeline", capture)
        run_simulation_batch(design, 2, seed=3, threads=1)
        assert seen == [min(math.ceil(1.6 * design.p0n), 50)] * 2 == [7, 7]
        # a config that sets max_steps keeps it
        seen.clear()
        config = SelectConfig(include_intercept=False, max_steps=3)
        run_simulation_batch(design, 1, config=config, seed=3, threads=1)
        assert seen == [3]

    def test_invalid_replicates(self):
        with pytest.raises(InvalidArgs):
            run_simulation_batch(_small_design(), 0)

    def test_replicate_limit_is_checked_before_the_pool(self, monkeypatch):
        queued = []

        def no_pool(shared, calls, threads):
            queued.append(len(calls))
            return []

        monkeypatch.setattr(exp_mod, "_map_tasks", no_pool)
        run_simulation_batch(_small_design(), exp_mod.MAX_REPLICATES)
        with pytest.raises(InvalidArgs, match="replicates must be <="):
            run_simulation_batch(_small_design(), exp_mod.MAX_REPLICATES + 1)
        assert queued == [exp_mod.MAX_REPLICATES]


def _no_pool(shared, calls, threads):
    raise AssertionError("tasks were queued")


class TestStepCapsBeforeThePool:
    # a step cap below 1 is refused before any task is queued
    def test_simulation_batch(self, monkeypatch):
        monkeypatch.setattr(exp_mod, "_map_tasks", _no_pool)
        config = SelectConfig(include_intercept=False, max_steps=0)
        with pytest.raises(InvalidArgs, match="max_steps must be >= 1"):
            run_simulation_batch(_small_design(), 2, config=config)

    def test_cv_select_link(self, monkeypatch):
        monkeypatch.setattr(exp_mod, "_map_tasks", _no_pool)
        with pytest.raises(InvalidArgs, match="path_length must be >= 1"):
            cv_select_link(_binary_data(), ["logit"], path_length=0, folds=4)

    @pytest.mark.parametrize("cap", ["path_steps", "cv_path_length"])
    def test_real_data_workflow(self, monkeypatch, cap):
        monkeypatch.setattr(exp_mod, "_map_tasks", _no_pool)
        with pytest.raises(InvalidArgs, match=f"^{cap} must be >= 1"):
            real_data_workflow(_binary_data(), ["logit"], cv_folds=4, **{cap: 0})


class TestRepeatedLinksBeforeThePool:
    # each link's ranking and final are keyed by its name, so a repeated
    # name is refused before any task is queued
    @pytest.mark.parametrize("links", [["logit", "logit"], ["cloglog", "logit", "cloglog"]])
    def test_cv_select_link(self, monkeypatch, links):
        monkeypatch.setattr(exp_mod, "_map_tasks", _no_pool)
        with pytest.raises(InvalidArgs, match="given more than once"):
            cv_select_link(_binary_data(), links, path_length=2, folds=4)

    def test_real_data_workflow(self, monkeypatch):
        monkeypatch.setattr(exp_mod, "_map_tasks", _no_pool)
        with pytest.raises(InvalidArgs, match="^link logit given more than once"):
            real_data_workflow(_binary_data(), ["logit", "logit"], cv_folds=4)


def _binary_data(n=48, p=4, coef=2.5, seed=0, dominant=1):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    eta = coef * X[:, dominant]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return Dataset(y, X)


class TestCvSelectLink:
    def test_fold_assignment_is_partition(self):
        data = _binary_data(n=41)
        report = cv_select_link(data, ["logit", "probit"], path_length=2, folds=5, seed=1)
        assign = report.fold_assignment
        assert assign.shape == (41,)
        assert set(np.unique(assign)) <= set(range(5))
        # stratified: each class spread across folds with sizes within 1
        for cls in (0.0, 1.0):
            counts = np.bincount(assign[data.y == cls], minlength=5)
            assert counts.max() - counts.min() <= 1

    def test_many_response_values_are_not_stratified(self):
        # Poisson counts with more than 10 distinct values: the rows are
        # dealt out as one shuffled sequence, so fold sizes differ by at most
        # one (a split by value would put every once-seen count in fold 0)
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 3))
        y = rng.poisson(np.exp(1.5 + 0.8 * X[:, 0])).astype(float)
        assert np.unique(y).size > 10
        report = cv_select_link(Dataset(y, X), ["log"], path_length=1, folds=3, seed=1)
        counts = np.bincount(report.fold_assignment, minlength=3)
        assert counts.tolist() == [14, 13, 13]
        assert np.isfinite(report.criteria[0])

    def test_chooses_generating_link_often_enough_to_run(self):
        data = _binary_data(n=80, coef=3.0, seed=4)
        report = cv_select_link(
            data, ["logit", "probit", "cloglog"], path_length=2, folds=4, seed=2
        )
        assert report.chosen in report.link_names
        assert len(report.criteria) == 3
        assert all(np.isfinite(v) for v in report.criteria)

    def test_tie_goes_to_first_input_link(self):
        # pure-noise covariates stay out at every fold's gamma (plain BIC at
        # p = 2), leaving the intercept-only model for every link, so the
        # held-out criteria tie exactly at 20 ln(1/2)
        rng = np.random.default_rng(6)
        y = np.array([0.0, 1.0] * 10)
        X = rng.standard_normal((20, 2)) * 1e-6
        data = Dataset(y, X)
        report = cv_select_link(data, ["probit", "logit"], path_length=1, folds=4, seed=0)
        assert report.criteria[0] == pytest.approx(20 * math.log(0.5), rel=1e-12)
        spread = max(report.criteria) - min(report.criteria)
        assert spread < 1e-9
        assert report.chosen == "probit"

    def test_leave_one_out_boundary(self):
        data = _binary_data(n=12, p=2, seed=8)
        report = cv_select_link(data, ["logit"], path_length=1, folds=12, seed=0)
        assert report.folds == 12
        assert np.isfinite(report.criteria[0])

    def test_too_many_folds(self):
        data = _binary_data(n=10, p=2)
        with pytest.raises(FoldTooSmall):
            cv_select_link(data, ["logit"], folds=11)
        with pytest.raises(InvalidArgs):
            cv_select_link(data, ["logit"], folds=1)

    def test_deterministic_across_threads(self):
        data = _binary_data(n=60, seed=3)
        a = cv_select_link(data, ["logit", "cloglog"], path_length=2, folds=4, seed=5, threads=1)
        b = cv_select_link(data, ["logit", "cloglog"], path_length=2, folds=4, seed=5, threads=2)
        assert a.criteria == b.criteria and a.chosen == b.chosen

    def test_dataset_goes_to_each_worker_once(self, monkeypatch):
        shipped = {"init": [], "tasks": []}

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                shipped["init"].append(len(pickle.dumps(kwargs.get("initargs"))))
                super().__init__(max_workers, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                items = list(zip(*iterables))
                shipped["tasks"] += [len(pickle.dumps(item)) for item in items]
                return super().map(fn, *zip(*items), **kwargs)

        monkeypatch.setattr(exp_mod, "ProcessPoolExecutor", RecordingPool)
        data = _binary_data(n=60, p=300, seed=3)
        serial = cv_select_link(data, ["logit"], path_length=1, folds=4, seed=5, threads=1)
        pooled = cv_select_link(data, ["logit"], path_length=1, folds=4, seed=5, threads=2)
        assert pooled.criteria == serial.criteria
        assert len(shipped["init"]) == 1 and shipped["init"][0] > data.X.nbytes
        assert len(shipped["tasks"]) == 4
        assert max(shipped["tasks"]) < data.X.nbytes / 10


class TestRealDataWorkflow:
    def test_dominant_predictor_always_selected(self):
        data = _binary_data(n=90, p=6, coef=4.0, seed=12, dominant=2)
        report = real_data_workflow(
            data, ["logit", "cloglog"], path_steps=4, cv_folds=4, cv_path_length=2, seed=0
        )
        assert report.chosen_link in ("logit", "cloglog")
        for final in report.finals:
            assert final.model_indices, f"{final.link} selected nothing"
            assert 2 in final.model_indices
            assert np.isfinite(final.log_lik)
        for link, ranking in report.rankings.items():
            assert ranking[0] == 2

    def test_golub_shaped_data_runs_the_screen(self):
        # 72 x 1500: p above the screen threshold, as in the Leukemia data
        rng = np.random.default_rng(13)
        n, p = 72, 1500
        y = np.zeros(n)
        y[rng.permutation(n)[:25]] = 1.0
        X = rng.standard_normal((n, p))
        X[:, :30] += 1.2 * (y[:, None] - y.mean()) * rng.uniform(0.5, 1.5, 30)
        data = Dataset(y, X)
        config = SelectConfig()
        assert data.p > config.screen_threshold
        kwargs = dict(path_steps=3, cv_folds=3, cv_path_length=2, seed=4)
        one = real_data_workflow(data, ["logit", "cloglog"], threads=1, **kwargs)
        two = real_data_workflow(data, ["logit", "cloglog"], threads=2, **kwargs)
        gamma = resolve_gamma("paper-final", data.n, data.p)
        finals = {final.link: final for final in one.finals}
        for link, ranking in one.rankings.items():
            lf = parse_link_family(link)
            keep = screen_mme(lf, data, config.screen_keep).keep
            full = unstopped_forward_path(lf, data, keep, [gamma], 3)
            # EBIC is lowest at step 2 and no third covariate can undercut
            # it, so the ranking stops there
            assert full.final_prefixes == (2,)
            assert ranking == full.features[:2]
            assert finals[link].model_indices == full.model_for(gamma).indices
        assert all(np.isfinite(v) for v in one.cv.criteria)
        assert one.rankings == two.rankings
        assert one.finals == two.finals
        assert one.cv.criteria == two.cv.criteria
        assert one.chosen_link == two.chosen_link
        assert np.array_equal(one.cv.fold_assignment, two.cv.fold_assignment)

    def test_requires_binary_response(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.poisson(3.0, size=30).astype(float), rng.standard_normal((30, 3)))
        with pytest.raises(DataError):
            real_data_workflow(data, ["logit"], path_steps=2, cv_folds=3)


class TestResponseCheck:
    """Each library call that fits refuses a y its family cannot model,
    before any fit or task, naming the row as the data hold it."""

    CALLS = {
        "fit_mle": lambda lf, data: fit_mle(lf, data, ModelIndex((0,))),
        "select_pipeline": select_pipeline,
        "screened_pipeline": lambda lf, data: select_pipeline(
            lf, data, SelectConfig(screen_threshold=2, screen_keep=2)),
        "cv_select_link": lambda lf, data: cv_select_link(data, ["cloglog", lf], folds=4),
        "real_data_workflow": lambda lf, data: real_data_workflow(data, [lf], cv_folds=4),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_names_the_row_of_the_data(self, monkeypatch, call):
        monkeypatch.setattr(exp_mod, "_map_tasks", _no_pool)
        data = _binary_data(n=40)
        y = data.y.copy()
        y[36] = 2.0
        with pytest.raises(DataError, match="^Bernoulli response must be 0/1; row 37 has y=2.0$"):
            self.CALLS[call](parse_link_family("logit"), Dataset(y, data.X))

    def test_workflow_takes_counts_under_a_log_link(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 3))
        data = Dataset(rng.poisson(np.exp(0.5 + 0.8 * X[:, 0])).astype(float), X)
        report = real_data_workflow(data, ["log"], path_steps=2, cv_folds=3)
        assert report.chosen_link == "log"
        assert np.isfinite(report.finals[0].log_lik)
