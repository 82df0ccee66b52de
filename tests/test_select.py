"""Screening and forward selection against one-lane and brute-force references."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from helpers import (
    ALL_PAIRS,
    check_batching,
    forward_step_reference,
    random_instance,
    screen_call,
    screen_mme_reference,
    screen_ranking,
    step_call,
    unstopped_forward_path,
    usable_log_liks,
)

from ebicglm import (
    Dataset,
    EmptyCandidates,
    InvalidArgs,
    ModelIndex,
    PathEmpty,
    SelectConfig,
    design_for,
    ebic_score,
    fit_mle,
    forward_select,
    generate_replicate,
    log_likelihood,
    parse_link_family,
    resolve_gamma,
    screen_mme,
    select_pipeline,
)
from ebicglm import glm
from ebicglm import select as select_mod
from ebicglm.experiments import _map_tasks
from ebicglm.glm import LANE_BLOCK_CELLS, _newton_lanes


def _logit_data(n=80, p=8, strong=(0, 3), seed=0, coef=1.5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    eta = sum(coef * X[:, j] for j in strong)
    prob = 1.0 / (1.0 + np.exp(-eta))
    y = (rng.random(n) < prob).astype(float)
    return Dataset(y, X)


LF = parse_link_family("logit")


# ---------------------------------------------------------------------------
# screening
# ---------------------------------------------------------------------------

class TestScreenMME:
    def test_keep_size_and_order(self):
        data = _logit_data(n=100, p=12, seed=1)
        res = screen_mme(LF, data, d=5)
        assert res.keep.shape == (5,)
        stats = res.statistics[res.ranked_features]
        assert np.all(np.diff(stats) <= 0)

    def test_duplicate_features_tie_to_lower_index(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(60)
        X = np.column_stack([rng.standard_normal(60), x, x])
        y = (rng.random(60) < 1 / (1 + np.exp(-2 * x))).astype(float)
        res = screen_mme(LF, Dataset(y, X), d=3)
        assert res.statistics[1] == res.statistics[2]
        pos1 = list(res.ranked_features).index(1)
        pos2 = list(res.ranked_features).index(2)
        assert pos1 < pos2

    def test_constant_feature_ranks_last(self):
        # a constant column is collinear with the intercept: the marginal fit
        # fails rank checking, gets -inf, and ranks behind every finite stat
        data = _logit_data(n=60, p=4, seed=3)
        X = data.X.copy()
        X[:, 2] = 1.0
        res = screen_mme(LF, Dataset(data.y, X), d=4)
        assert res.statistics[2] == -np.inf
        assert np.all(np.isfinite(res.statistics[[0, 1, 3]]))
        assert res.ranked_features[-1] == 2

    def test_deterministic(self):
        data = _logit_data(n=70, p=9, seed=4)
        a = screen_mme(LF, data, d=4)
        b = screen_mme(LF, data, d=4)
        assert np.array_equal(a.keep, b.keep)
        assert np.array_equal(a.statistics, b.statistics)

    def test_screen_retains_strong_signals(self):
        data = _logit_data(n=150, p=20, strong=(2, 11), seed=5, coef=2.0)
        res = screen_mme(LF, data, d=4)
        assert {2, 11} <= set(res.keep.tolist())


# ---------------------------------------------------------------------------
# the batched screen against one one-lane kernel call per column
# ---------------------------------------------------------------------------

SCREEN_N = 64
SCREEN_WIDTH = LANE_BLOCK_CELLS // SCREEN_N  # columns per block
CONSTANT, ZERO, SEPARATING, WIDE = 1, 2, 3, 4
# one column copied to three places inside the first block and two in the
# second, one of them right at the boundary
DUPLICATES = (9, 100, SCREEN_WIDTH - 1, SCREEN_WIDTH, SCREEN_WIDTH + 30)


def _screen_data(family, seed=0):
    """Two blocks of columns with a signal in column 0, a constant and a zero
    column (rank test), a column split by the response (beta cap for binary
    links, eta clamp for identity/arcsin), a wide-range column and
    duplicates."""
    n, p = SCREEN_N, SCREEN_WIDTH + 44
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    signal = X[:, 0]
    if family == "bernoulli":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-1.5 * signal))).astype(float)
    elif family == "poisson":
        y = rng.poisson(np.exp(0.5 + 0.6 * signal)).astype(float)
    else:
        y = rng.exponential(np.exp(0.3 + 0.5 * signal))
    X[:, CONSTANT] = 0.5
    X[:, ZERO] = 0.0
    X[:, SEPARATING] = np.where(y > y.mean(), 0.3, -0.3)
    X[:, WIDE] *= 25.0
    X[:, list(DUPLICATES)] = X[:, [DUPLICATES[0]]]
    return Dataset(y, X)


class TestScreenMatchesPerColumnFits:
    @pytest.mark.parametrize("include_intercept", [True, False])
    @pytest.mark.parametrize("link,family", ALL_PAIRS)
    def test_same_ranking_keep_and_failures(self, link, family, include_intercept):
        # every lane of the screen's call matches its own one-lane call
        lf = parse_link_family(link, family)
        data = _screen_data(family)
        got = screen_mme(lf, data, d=40, include_intercept=include_intercept)
        _fits, one_lane = check_batching(*screen_call(lf, data, include_intercept))
        ref = screen_ranking(one_lane, d=40)
        assert np.array_equal(got.ranked_features, ref.ranked_features)
        assert np.array_equal(got.keep, ref.keep)
        assert np.array_equal(np.isneginf(got.statistics), np.isneginf(ref.statistics))
        assert got.statistics[ZERO] == -np.inf
        if include_intercept:
            assert got.statistics[CONSTANT] == -np.inf

        dup = got.statistics[list(DUPLICATES)]
        assert np.isfinite(dup[0])
        assert np.all(dup == dup[0])  # bit-equal, across the block boundary too
        rank_of = np.argsort(got.ranked_features)
        assert np.all(np.diff(rank_of[list(DUPLICATES)]) > 0)

    @pytest.mark.parametrize("include_intercept", [True, False])
    @pytest.mark.parametrize("link,family", ALL_PAIRS)
    def test_no_lane_ends_below_the_shared_start(self, link, family, include_intercept):
        # the screen's kernel call: every usable lane ascends from the
        # shared start, where its own coefficient is 0
        lf = parse_link_family(link, family)
        data = _screen_data(family)
        call = screen_call(lf, data, include_intercept)
        fits = _newton_lanes(*call)
        usable = ~fits.rank_deficient & np.isfinite(fits.log_lik)
        assert usable.any()
        null = ModelIndex((), include_intercept)
        assert np.all(fits.log_lik[usable] >= log_likelihood(lf, data, null, call[-1][:-1]))

    @pytest.mark.parametrize("include_intercept", [True, False])
    def test_data_reaches_the_cap_and_the_clamp(self, include_intercept):
        # the comparison above only covers these stop rules if the fits
        # actually hit them
        model = ModelIndex((SEPARATING,), include_intercept)
        for link in ("logit", "cauchit", "cloglog"):
            lf = parse_link_family(link)
            assert fit_mle(lf, _screen_data("bernoulli"), model).quasi_separated, link
        for link in ("identity", "arcsin"):
            lf = parse_link_family(link)
            assert fit_mle(lf, _screen_data("bernoulli"), model).eta_clamped, link

    def test_single_column_block(self):
        # n above the block size leaves one column per block
        rng = np.random.default_rng(21)
        n = LANE_BLOCK_CELLS + 8
        x = rng.standard_normal(n)
        X = np.column_stack([x, rng.standard_normal(n), x])
        y = (rng.random(n) < 1 / (1 + np.exp(-x))).astype(float)
        data = Dataset(y, X)
        got = screen_mme(LF, data, d=2)
        ref = screen_mme_reference(LF, data, d=2)
        assert np.array_equal(got.ranked_features, ref.ranked_features)
        assert got.statistics[0] == got.statistics[2]
        np.testing.assert_allclose(got.statistics, ref.statistics, rtol=1e-8)


# ---------------------------------------------------------------------------
# the batched forward step against one one-lane kernel call per candidate
# ---------------------------------------------------------------------------

STEP_N = 48
STEP_LANES = 8  # lanes per block once LANE_BLOCK_CELLS is patched to n * 8
SIGNAL, STEP_SEPARATING = 0, 3
# copies of the signal column, on both sides of two block boundaries: the
# lowest index wins among them, and once it is selected the others are
# collinear with a selected column
COPIES = (SIGNAL, STEP_LANES - 1, STEP_LANES, 2 * STEP_LANES + 1)


def _step_data(family, seed=0):
    """A signal column and its copies, a column split by the response (beta
    cap for binary links, eta clamp for identity/arcsin) and noise, over
    three blocks of eight lanes."""
    n, p = STEP_N, 3 * STEP_LANES + 4
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    signal = X[:, SIGNAL] + 0.5 * X[:, 1]
    if family == "bernoulli":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-1.5 * signal))).astype(float)
    elif family == "poisson":
        y = rng.poisson(np.exp(0.5 + 0.6 * signal)).astype(float)
    else:
        y = rng.exponential(np.exp(0.3 + 0.5 * signal))
    X[:, STEP_SEPARATING] = np.where(y > y.mean(), 0.3, -0.3)
    X[:, list(COPIES)] = X[:, [SIGNAL]]
    return Dataset(y, X)


def _check_path_by_lanes(lf, data, path, include_intercept, max_steps):
    """Follow the batched path step by step, each from the path's own start:
    every lane of the step's pick-only kernel call matches its own one-lane
    call, or was retired and ends below the pick there (``check_batching``),
    the pick's one-lane log-likelihood ties the best one up to float noise,
    and the step reports the pick's lane of the call. The path ends for the
    reason it gives: where the one-lane fits leave nothing usable, where
    their next step cannot lower any gamma's EBIC minimum, or at a size
    cap."""
    off = 1 if include_intercept else 0
    init = path.null_fit.beta
    current, remaining = [], list(range(data.p))
    for step in path.steps:
        fits, one_lane = check_batching(
            *step_call(lf, data, current, remaining, init, include_intercept),
            pick_only=True)
        lls = usable_log_liks(one_lane)
        pick = remaining.index(step.feature)
        assert lls[pick] >= lls.max() - 1e-9 * (1 + abs(lls.max()))
        current.append(step.feature)
        remaining.remove(step.feature)
        # the step's beta back in selection order: the lane's layout and the
        # next step's start
        init = step.fit.beta.copy()
        init[off:][np.argsort(current, kind="stable")] = step.fit.beta[off:]
        lane = fits.fit(pick)
        assert np.array_equal(lane.beta, init)
        assert replace(lane, beta=None) == replace(step.fit, beta=None)
    reason = path.stop_reason
    if reason in ("no-usable-fit", "ebic-decided"):
        feature, fit, _lls = forward_step_reference(
            lf, data, current, remaining, init, include_intercept
        )
        if reason == "no-usable-fit":
            assert fit is None
        elif fit is not None:
            model = ModelIndex(tuple(current) + (feature,), include_intercept)
            for g in path.gammas:
                ebic = ebic_score(fit, model, data.n, data.p, g).ebic
                assert ebic > path.ebic_sequence(g).min()
    elif len(path.steps) == max_steps:
        assert reason == "max-steps"
    else:
        assert reason == ("size-limit" if len(current) >= data.n - 2 else "no-candidates")


class TestForwardStepMatchesPerCandidateFits:
    @pytest.mark.parametrize("include_intercept", [True, False])
    @pytest.mark.parametrize("link,family", ALL_PAIRS)
    def test_same_picks_fits_and_skips(self, monkeypatch, link, family, include_intercept):
        monkeypatch.setattr(glm, "LANE_BLOCK_CELLS", STEP_N * STEP_LANES)
        lf = parse_link_family(link, family)
        data = _step_data(family)
        # the separating column decides EBIC after one step for the binary
        # pairs, so the kernel is checked on the path grown without the stop;
        # the stopped path is a prefix of it
        path = unstopped_forward_path(lf, data, range(data.p), [0.0], 4, include_intercept)
        # every pair reaches the step cap but invpower:-2 with an intercept,
        # where no candidate gives a usable fit at step 3
        assert len(path.steps) == (2 if (link, include_intercept) == ("invpower:-2", True) else 4)
        _check_path_by_lanes(lf, data, path, include_intercept, 4)
        # the pairs that state a dual floor retire lanes, here at step 1
        assert (path.steps[0].retired > 0) == (lf.flat_eta is not None)
        stopped = forward_select(lf, data, range(data.p), [0.0], 4,
                                 include_intercept=include_intercept)
        assert stopped.features == path.features[: len(stopped.steps)]
        # the copies of the signal: one fit, bit-equal results, the lowest
        # index wins, and a selected copy makes the others rank deficient
        null_beta = path.null_fit.beta
        copies = _newton_lanes(*step_call(lf, data, [], COPIES, null_beta, include_intercept))
        assert np.all(copies.log_lik == copies.log_lik[0])
        assert np.all(copies.beta == copies.beta[:, :1])
        assert not set(COPIES[1:]) & set(path.features)
        collinear = _newton_lanes(*step_call(lf, data, [SIGNAL], COPIES[1:],
                                             np.append(null_beta, 0.0), include_intercept))
        assert collinear.rank_deficient.all()
        # and so they are in a pick-only call over every other column, whose
        # lanes fill several blocks and are bounded at their shared start
        others = [j for j in range(data.p) if j != SIGNAL]
        every = _newton_lanes(*step_call(lf, data, [SIGNAL], others, np.append(null_beta, 0.0),
                                         include_intercept), pick_only=True)
        assert every.rank_deficient[[others.index(j) for j in COPIES[1:]]].all()

    @pytest.mark.parametrize("include_intercept", [True, False])
    def test_data_reaches_the_cap_and_the_clamp(self, include_intercept):
        # the comparison above only covers these stop rules if the step's
        # fits actually hit them
        for link, flag in (("logit", "quasi_separated"), ("cauchit", "quasi_separated"),
                           ("cloglog", "quasi_separated"), ("identity", "eta_clamped"),
                           ("arcsin", "eta_clamped")):
            lf = parse_link_family(link)
            data = _step_data("bernoulli")
            signal_fit = fit_mle(lf, data, ModelIndex((SIGNAL,), include_intercept))
            fit = _newton_lanes(*step_call(lf, data, [SIGNAL], [STEP_SEPARATING],
                                           signal_fit.beta, include_intercept)).fit(0)
            assert getattr(fit, flag), link

    @pytest.mark.parametrize("link", ["logit", "cloglog", "identity"])
    def test_one_lane_blocks(self, monkeypatch, link):
        lf = parse_link_family(link)
        data = _step_data("bernoulli", seed=1)
        wide = unstopped_forward_path(lf, data, range(data.p), [0.0], 4)
        monkeypatch.setattr(glm, "LANE_BLOCK_CELLS", 1)
        narrow = unstopped_forward_path(lf, data, range(data.p), [0.0], 4)
        assert len(narrow.steps) == 4
        _check_path_by_lanes(lf, data, narrow, True, 4)
        assert narrow.features == wide.features
        # BLAS rounds by lane position, so the block width moves last bits
        for a, b in zip(narrow.steps, wide.steps):
            assert abs(a.fit.log_lik - b.fit.log_lik) <= 1e-9 * (1 + abs(b.fit.log_lik))


def _path_work(data, include_intercept):
    """Each step's (lanes, lane-iterations, retired lanes) on a cloglog path
    of 6 steps."""
    path = forward_select(parse_link_family("cloglog"), data, range(data.p), [0.0], 6,
                          include_intercept)
    return [(s.lanes, s.lane_iterations, s.retired) for s in path.steps]


def test_step_work_counts_repeat_in_pool_workers():
    # a step's counts come from its kernel call alone, so paths grown on a
    # pool of 2 workers count what they count in this process. Nearly every
    # lane of a Setting-1 step retires, and its 716 lanes fill three blocks,
    # so most retire at their shared start, before any Newton iteration
    data = generate_replicate(design_for("S1", 200), 1).dataset
    here = [_path_work(data, i) for i in (False, True)]
    assert _map_tasks(data, [(_path_work, i) for i in (False, True)], 2) == here
    for lanes, lane_iterations, retired in sum(here, []):
        assert lanes - 10 <= retired < lanes and lane_iterations < lanes


# ---------------------------------------------------------------------------
# invariances: changes of X that leave every model the same
# ---------------------------------------------------------------------------

# a clamped fit on a bounded link ends where rounding decides (ROADMAP item
# 3), so the invariances are checked on the pairs without a clamp
UNBOUNDED_PAIRS = tuple(
    pair for pair in ALL_PAIRS if parse_link_family(*pair).eta_domain == (-np.inf, np.inf)
)
# rounding can end a converged fit one iteration sooner, so a slope agrees
# as far as the decrement test pins it down, not to the last bit
SLOPE_RTOL = 1e-6
INSTANCES = dict(pair=st.sampled_from(UNBOUNDED_PAIRS), seed=st.integers(0, 2**16),
                 include_intercept=st.booleans())


def _screen_and_path(lf, data, include_intercept):
    """The screen statistics and the path of 4 steps grown without the EBIC
    stop, so that every path has all its steps."""
    stats = screen_mme(lf, data, data.p, include_intercept).statistics
    return stats, unstopped_forward_path(lf, data, range(data.p), [0.0], 4, include_intercept)


def _assert_same_picks(path, other, new_index):
    """``other``, the path on changed data, against ``path``: each step's
    log-likelihood agrees within 1e-9 (1 + |ll|), and each pick j is
    new_index[j] there, up to the first step whose two picks differ. Rounding
    orders candidates within about 1e-9, so there the picks tie within that
    tolerance, and the paths are compared no further."""
    for a, b in zip(path.steps, other.steps):
        assert abs(a.fit.log_lik - b.fit.log_lik) <= 1e-9 * (1 + abs(a.fit.log_lik))
        if new_index[a.feature] != b.feature:
            return
    assert len(other.steps) == len(path.steps)


@settings(max_examples=60)
@given(**INSTANCES, power=st.sampled_from([-3, -2, -1, 1, 2, 3]), col=st.integers(0, 5))
def test_scaling_a_column_by_a_power_of_two(pair, seed, include_intercept, power, col):
    # x_j -> 2^k x_j rescales beta_j by 2^-k and changes no model; the beta
    # cap is not scale-free, so paths that reach it are left out
    lf, data, _, _ = random_instance(*pair, n=60, size=4, seed=seed)
    X = data.X.copy()
    X[:, col] *= 2.0 ** power
    stats, path = _screen_and_path(lf, data, include_intercept)
    scaled_stats, scaled = _screen_and_path(lf, Dataset(data.y, X), include_intercept)
    assume(not any(s.fit.quasi_separated for s in path.steps + scaled.steps))
    scaled_stats[col] *= 2.0 ** power
    np.testing.assert_allclose(scaled_stats, stats, rtol=SLOPE_RTOL)
    _assert_same_picks(path, scaled, np.arange(data.p))


@settings(max_examples=60)
@given(**INSTANCES, perm=st.permutations(range(6)))
def test_permuting_the_columns(pair, seed, include_intercept, perm):
    lf, data, _, _ = random_instance(*pair, n=60, size=4, seed=seed)
    perm = np.array(perm)  # new order of the old columns
    stats, path = _screen_and_path(lf, data, include_intercept)
    moved_stats, moved = _screen_and_path(lf, Dataset(data.y, data.X[:, perm]),
                                          include_intercept)
    np.testing.assert_allclose(moved_stats, stats[perm], rtol=SLOPE_RTOL)
    _assert_same_picks(path, moved, np.argsort(perm))


@settings(max_examples=60)
@given(**INSTANCES, which=st.integers(0, 3))
def test_appending_a_copy_of_a_column(pair, seed, include_intercept, which):
    # the copy ties its original exactly, and the lower index wins: it is
    # never picked, while its original is picked as before
    lf, data, _, _ = random_instance(*pair, n=60, size=4, seed=seed)
    stats, path = _screen_and_path(lf, data, include_intercept)
    original = path.steps[which].feature
    X = np.column_stack([data.X, data.X[:, original]])
    copied_stats, copied = _screen_and_path(lf, Dataset(data.y, X), include_intercept)
    assert copied_stats[-1] == copied_stats[original]
    np.testing.assert_allclose(copied_stats[:-1], stats, rtol=SLOPE_RTOL)
    assert data.p not in copied.features
    _assert_same_picks(path, copied, np.arange(data.p))


# ---------------------------------------------------------------------------
# forward selection
# ---------------------------------------------------------------------------

class TestForwardSelect:
    def test_single_candidate(self):
        data = _logit_data(seed=6)
        path = forward_select(LF, data, [5], gammas=[0.0], max_steps=1)
        assert path.features == (5,)

    def test_step1_matches_exhaustive_single_feature_oracle(self):
        data = _logit_data(n=90, p=8, seed=7)
        gamma = 0.5
        path = forward_select(LF, data, range(8), gammas=[gamma], max_steps=1)
        # brute force over all single-feature models
        best_j, best_e = None, np.inf
        for j in range(8):
            m = ModelIndex((j,))
            e = ebic_score(fit_mle(LF, data, m), m, data.n, data.p, gamma).ebic
            if e < best_e:
                best_j, best_e = j, e
        assert path.features[0] == best_j
        assert path.steps[0].scores[0].ebic == pytest.approx(best_e, rel=1e-10)

    def test_duplicate_columns_pick_lower_index(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(70)
        X = np.column_stack([x, x, rng.standard_normal(70)])
        y = (rng.random(70) < 1 / (1 + np.exp(-2 * x))).astype(float)
        data = Dataset(y, X)
        path = forward_select(LF, data, range(3), gammas=[0.0], max_steps=3)
        assert path.features[0] == 0
        # the duplicate adds nothing later, so no EBIC-minimizing prefix keeps it
        final = path.model_for(0.0).indices
        assert 1 not in final

    def test_prefix_minimization_matches_independent_refits(self):
        data = _logit_data(n=100, p=8, seed=9)
        gammas = [0.0, 0.5, 1.0]
        path = forward_select(LF, data, range(8), gammas=gammas, max_steps=5)
        for gi, gamma in enumerate(gammas):
            ebics = [
                ebic_score(
                    fit_mle(LF, data, ModelIndex(path.features[:k])),
                    ModelIndex(path.features[:k]),
                    data.n,
                    data.p,
                    gamma,
                ).ebic
                for k in range(len(path.features) + 1)
            ]
            assert path.final_prefixes[gi] == int(np.argmin(ebics))
            np.testing.assert_allclose(path.ebic_sequence(gamma), ebics, rtol=1e-8)

    def test_nested_loglik_monotone_along_path(self):
        data = _logit_data(n=100, p=10, seed=10)
        path = forward_select(LF, data, range(10), gammas=[0.0], max_steps=6)
        lls = [path.null_fit.log_lik] + [s.fit.log_lik for s in path.steps]
        assert np.all(np.diff(lls) >= -1e-8)

    def test_tie_on_ebic_prefers_shorter_prefix(self):
        data = _logit_data(seed=11)
        path = forward_select(LF, data, range(8), gammas=[0.0], max_steps=4)
        gi = 0
        seq = path.ebic_sequence(0.0)
        k = path.final_prefixes[gi]
        assert np.all(seq[:k] > seq[k])

    def test_empty_candidates(self):
        data = _logit_data(seed=12)
        with pytest.raises(EmptyCandidates):
            forward_select(LF, data, [], gammas=[0.0], max_steps=1)

    def test_path_empty_when_no_usable_fit(self):
        # both candidates are collinear with the intercept, so their singular
        # designs are detected and skipped; the response varies, so EBIC
        # leaves step 1 open (an all-ones response would decide the null model)
        y = np.tile([0.0, 1.0], 20)
        X = np.ones((40, 2))
        with pytest.raises(PathEmpty):
            forward_select(LF, Dataset(y, X), [0, 1], gammas=[0.0], max_steps=2)

    def test_sorted_beta_layout(self):
        data = _logit_data(n=90, p=6, strong=(4, 1), seed=14, coef=2.0)
        path = forward_select(LF, data, range(6), gammas=[0.0], max_steps=2)
        step = path.steps[1]
        model = ModelIndex(path.features[:2])
        refit = fit_mle(LF, data, model)
        np.testing.assert_allclose(step.fit.beta, refit.beta, atol=1e-7)


# ---------------------------------------------------------------------------
# the EBIC stop against the path grown to its cap
# ---------------------------------------------------------------------------

def _s1_instance():
    """A small Setting-1 replicate (p = 493), fitted with an intercept on
    its 60 strongest marginal features, at gamma3 and mbic."""
    data = generate_replicate(design_for("S1", 100), seed=3).dataset
    lf = parse_link_family("cloglog")
    cand = screen_mme(lf, data, 60).keep
    gammas = (resolve_gamma("gamma3", data.n, data.p), resolve_gamma("mbic", data.n, data.p))
    return lf, data, cand, gammas, 20


def _separated_instance():
    """A logit response that a few of 60 columns separate at n = 40."""
    data = _logit_data(n=40, p=60, strong=(0, 7, 21), seed=31, coef=3.0)
    return LF, data, range(data.p), (0.5, 1.0), 20


def _count_instance(family):
    """A Poisson or Gamma response driven by two of 150 columns, log link."""
    rng = np.random.default_rng(32)
    n, p = 60, 150
    X = rng.standard_normal((n, p))
    mean = np.exp(0.4 + 0.6 * X[:, 2] - 0.5 * X[:, 9])
    y = rng.poisson(mean).astype(float) if family == "poisson" else rng.exponential(mean)
    return parse_link_family("log", family), Dataset(y, X), range(p), (0.5, 1.0), 25


STOP_INSTANCES = {
    "s1": _s1_instance,
    "separated": _separated_instance,
    "poisson": lambda: _count_instance("poisson"),
    "gamma": lambda: _count_instance("gamma"),
}


class TestEbicStop:
    @pytest.mark.parametrize("name", sorted(STOP_INSTANCES))
    def test_stopped_path_is_a_prefix_with_the_same_models(self, name):
        lf, data, cand, gammas, max_steps = STOP_INSTANCES[name]()
        path = forward_select(lf, data, cand, gammas, max_steps)
        full = unstopped_forward_path(lf, data, cand, gammas, max_steps)
        # each instance stops early, so the comparison covers the stop
        assert path.stop_reason == "ebic-decided"
        assert len(path.steps) < len(full.steps)
        assert path.final_prefixes == full.final_prefixes
        for got, ref in zip(path.steps, full.steps):
            assert got.feature == ref.feature
            assert got.fit.log_lik == ref.fit.log_lik
            assert np.array_equal(got.fit.beta, ref.fit.beta)
            assert [sc.ebic for sc in got.scores] == [sc.ebic for sc in ref.scores]
        for g in gammas:
            assert path.model_for(g) == full.model_for(g)

    def test_null_model_decided_before_step_one(self):
        # one event in six rows: the null EBIC is below ln n + 2 ln p, the
        # least any one-covariate model can score at gamma = 1
        rng = np.random.default_rng(33)
        data = Dataset(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]), rng.standard_normal((6, 10)))
        path = forward_select(LF, data, range(10), [1.0], 4)
        assert path.stop_reason == "ebic-decided"
        assert path.steps == []
        assert path.final_prefixes == (0,)
        full = unstopped_forward_path(LF, data, range(10), [1.0], 4)
        assert full.steps and full.final_prefixes == (0,)

    def test_stop_reasons_of_the_size_caps(self):
        data = _logit_data(n=60, p=3, strong=(0,), seed=34)
        assert forward_select(LF, data, range(3), [0.0], 2).stop_reason == "max-steps"
        assert forward_select(LF, data, range(3), [0.0], 10).stop_reason == "no-candidates"
        # large counts driven by every column: each step gains far more than
        # ln n, so EBIC leaves the path open up to n - 2 covariates
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 8))
        y = rng.poisson(np.exp(5.0 + X @ np.full(8, 0.5))).astype(float)
        lf = parse_link_family("log", "poisson")
        path = forward_select(lf, Dataset(y, X), range(8), [0.0], 20)
        assert path.stop_reason == "size-limit" and len(path.steps) == 6


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

class TestSelectPipeline:
    def test_no_screen_below_threshold(self):
        data = _logit_data(n=100, p=8, seed=15)
        report = select_pipeline(LF, data, SelectConfig(gammas=("bic",)))
        assert report.screen is None

    def test_screen_above_threshold(self):
        data = _logit_data(n=100, p=30, seed=16)
        cfg = SelectConfig(gammas=("bic",), screen_threshold=20, screen_keep=10)
        report = select_pipeline(LF, data, cfg)
        assert report.screen is not None
        assert set(report.path.features) <= set(report.screen.keep.tolist())

    def test_path_ending_at_n_minus_2_reports_size_limit(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 10))
        y = rng.poisson(3, 4).astype(float)
        report = select_pipeline(parse_link_family("log", "poisson"), Dataset(y, X))
        assert report.path.features == (7, 9)
        assert report.path.stop_reason == "size-limit"

    @pytest.mark.parametrize("max_steps", [0, -5])
    def test_max_steps_below_1_is_refused(self, monkeypatch, max_steps):
        def no_screen(*args, **kwargs):
            raise AssertionError("the screen ran")

        monkeypatch.setattr(select_mod, "screen_mme", no_screen)
        data = _logit_data(n=40, p=6, seed=19)
        cfg = SelectConfig(max_steps=max_steps, screen_threshold=2, screen_keep=2)
        with pytest.raises(InvalidArgs, match="max_steps must be >= 1"):
            select_pipeline(LF, data, cfg)

    def test_no_gamma_is_refused_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(select_mod, "_newton_lanes", no_fit)
        monkeypatch.setattr(glm, "_newton_lanes", no_fit)
        data = _logit_data(n=40, p=6, seed=19)
        cfg = SelectConfig(gammas=(), screen_threshold=2, screen_keep=2)
        with pytest.raises(InvalidArgs, match="need at least one gamma"):
            select_pipeline(LF, data, cfg)
        with pytest.raises(InvalidArgs, match="screen size d must be >= 1"):
            screen_mme(LF, data, d=0)

    def test_deterministic(self):
        data = _logit_data(n=100, p=12, seed=17)
        cfg = SelectConfig(gammas=("gamma1", "gamma3"), max_steps=4)
        a = select_pipeline(LF, data, cfg)
        b = select_pipeline(LF, data, cfg)
        assert a.path.features == b.path.features
        assert a.path.final_prefixes == b.path.final_prefixes
        assert [m.indices for m in a.final_models] == [m.indices for m in b.final_models]

    def test_relabeling_invariance(self):
        data = _logit_data(n=110, p=9, strong=(2, 6), seed=18, coef=2.0)
        cfg = SelectConfig(gammas=(0.5,), max_steps=4)
        base = select_pipeline(LF, data, cfg)
        perm = np.array([3, 1, 4, 0, 8, 2, 7, 5, 6])  # new order of old columns
        permuted = Dataset(data.y, data.X[:, perm])
        moved = select_pipeline(LF, permuted, cfg)
        # feature j in the original appears as position of j in perm
        lookup = {int(old): new for new, old in enumerate(perm)}
        assert tuple(lookup[f] for f in base.path.features) == moved.path.features
        assert [
            tuple(lookup[i] for i in m.indices) for m in base.final_models
        ] == [tuple(sorted(m.indices)) for m in moved.final_models]

    def test_max_steps_rule(self):
        data = _logit_data(n=30, p=8, seed=20)
        # explicit max_steps wins but is capped at n - 2
        report = select_pipeline(LF, data, SelectConfig(gammas=(0.0,), max_steps=100))
        assert len(report.path.features) <= data.n - 2
        # an explicit cap is followed exactly; the simulation's growth cap is
        # filled in by run_simulation_batch (test_experiments)
        for steps in (2, 4):
            report2 = select_pipeline(LF, data, SelectConfig(gammas=(0.0,), max_steps=steps))
            assert len(report2.path.features) == steps


def test_sure_screening_keeps_true_support():
    """Setting-1 scale: the top-400 marginal screen retains the full true
    support in nearly every replicate."""
    from ebicglm import design_for, generate_replicate

    lf = parse_link_family("cloglog")
    hits = 0
    reps = 50
    for r in range(reps):
        sim = generate_replicate(design_for("S1", 500, rho=0.0), seed=31, replicate_id=r)
        res = screen_mme(lf, sim.dataset, d=400, include_intercept=False)
        if set(sim.true_model.support) <= set(res.keep.tolist()):
            hits += 1
    assert hits / reps >= 0.9


def test_forward_final_never_beats_exhaustive_and_often_matches():
    """Desk-scale oracle: forward EBIC >= exhaustive min over size <= 3; the
    two agree for most strong-signal instances (regression-tracked rate)."""
    from itertools import combinations

    hits = 0
    trials = 25
    for seed in range(trials):
        data = _logit_data(n=90, p=8, strong=(1, 5), seed=100 + seed, coef=1.8)
        gamma = 1.0
        path = forward_select(LF, data, range(8), gammas=[gamma], max_steps=3)
        fwd = min(path.ebic_sequence(gamma))
        best = np.inf
        for k in (1, 2, 3):
            for combo in combinations(range(8), k):
                m = ModelIndex(combo)
                e = ebic_score(fit_mle(LF, data, m), m, data.n, data.p, gamma).ebic
                best = min(best, e)
        assert fwd >= best - 1e-8
        if fwd <= best + 1e-8:
            hits += 1
    assert hits / trials >= 0.8
