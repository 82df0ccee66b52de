"""Screening and forward selection against one-lane and brute-force references."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from helpers import (
    ALL_PAIRS,
    check_batching,
    forward_step_reference,
    random_instance,
    screen_call,
    screen_mme_reference,
    screen_ranking,
    start_cut_bound_reference,
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
        # every lane of the screen's call matches its own one-lane call, or
        # was retired and ends below the cut there (check_batching)
        lf = parse_link_family(link, family)
        data = _screen_data(family)
        got = screen_mme(lf, data, d=40, include_intercept=include_intercept)
        fits, one_lane = check_batching(*screen_call(lf, data, include_intercept), keep=40)
        ref = screen_ranking(one_lane, d=40)
        assert np.array_equal(got.statistics, fits.statistics(), equal_nan=True)
        assert np.array_equal(got.keep, ref.keep)
        # the pairs with a dual floor retire columns, all of them in the
        # second block: the first fixes the cut
        retired = np.isnan(got.statistics)
        assert retired.any() == (lf.flat_eta is not None)
        assert retired.sum() <= data.p - SCREEN_WIDTH
        # the exact statistics rank as the one-lane fits do, then come the
        # retired columns and then the failures, each by index
        exact = [j for j in ref.ranked_features if not retired[j]]
        failed = np.isneginf(ref.statistics[exact])
        expected = np.concatenate([np.array(exact)[~failed], np.flatnonzero(retired),
                                   np.array(exact)[failed]])
        assert np.array_equal(got.ranked_features, expected)
        assert np.array_equal(np.isneginf(got.statistics), np.isneginf(ref.statistics))
        assert got.statistics[ZERO] == -np.inf
        if include_intercept:
            assert got.statistics[CONSTANT] == -np.inf

        dup = got.statistics[list(DUPLICATES)]
        # bit-equal, across the block boundary too
        assert np.array_equal(dup, np.full(dup.size, dup[0]), equal_nan=True)
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
        # the copies of column 0 are the keep set, and so fix the cut: the
        # block of column 1 comes after, and retires it
        assert np.isnan(got.statistics[1]) and ref.statistics[1] < ref.statistics[0]
        np.testing.assert_allclose(got.statistics[[0, 2]], ref.statistics[[0, 2]], rtol=1e-8)


# ---------------------------------------------------------------------------
# the screen's certificate: columns retired below its cut
# ---------------------------------------------------------------------------

DUAL_LINKS = [link for link, family in ALL_PAIRS
              if parse_link_family(link, family).flat_eta is not None]
MARGIN = 1e-7  # a lane retires only where a bound lies below its log-likelihood by this (1 + |ll|)


def _golub_shaped(seed, n=72, p=3000):
    """Leukemia-shaped binary data: 25 of 72 rows in class 1, columns with
    their own location and log-normal spread, and 36 informative columns
    that shift with the class by 0.8-2 within-class SDs and share two latent
    factors, so that a few of them nearly separate the classes."""
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    y[rng.permutation(n)[:round(n * 25 / 72)]] = 1.0
    Z = rng.standard_normal((n, p))
    support = rng.choice(p, 36, replace=False)
    factors = rng.standard_normal((n, 2))
    shift = rng.uniform(0.8, 2.0, 36) * rng.choice([-1.0, 1.0], 36)
    Z[:, support] = (0.8 * Z[:, support] + 0.6 * factors[:, rng.integers(0, 2, 36)]
                     + shift * (y - y.mean())[:, None])
    return Dataset(y, rng.normal(0.0, 1.0, p) + np.exp(rng.normal(0.0, 0.3, p)) * Z)


class TestScreenRetiresBelowItsCut:
    @pytest.mark.parametrize("include_intercept", [True, False])
    @pytest.mark.parametrize("link", DUAL_LINKS)
    def test_each_retired_column_lies_below_the_cut(self, monkeypatch, link, include_intercept):
        # blocks of 16 lanes: the first three fix the cut, and the other
        # fifteen are bounded against it; each exact lane matches its
        # one-lane call, and each retired one ends below the cut there
        monkeypatch.setattr(glm, "LANE_BLOCK_CELLS", 40 * 16)
        lf = parse_link_family(link)
        for seed in range(3):
            data = _golub_shaped(seed, n=40, p=288)
            fits, _one_lane = check_batching(*screen_call(lf, data, include_intercept), keep=40)
            assert 0 < fits.retired.sum() <= data.p - 48

    @pytest.mark.parametrize("include_intercept", [True, False])
    @pytest.mark.parametrize("link", ["logit", "cloglog", "probit", "cauchit"])
    def test_the_keep_set_is_the_full_calls(self, link, include_intercept):
        # 72 x 3000 fills four blocks of 910 lanes: the first fixes the cut
        lf = parse_link_family(link)
        for seed in range(3):
            data = _golub_shaped(seed)
            got = screen_mme(lf, data, 400, include_intercept)
            full = screen_ranking(_newton_lanes(*screen_call(lf, data, include_intercept)), 400)
            assert np.array_equal(got.keep, full.keep), seed
            # without an intercept the start bounds retire fewer: 1,113 of
            # 3,000 under cloglog at seed 0
            floor = data.p // 2 if include_intercept else 0
            assert (got.retired > floor) == (lf.flat_eta is not None)
            if lf.flat_eta is None:  # no bound, so the full call's blocks and bits
                assert np.array_equal(got.statistics, full.statistics)

    def test_the_work_counts_are_its_kernel_calls(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(_newton_lanes(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(select_mod, "_newton_lanes", spy)
        data = _golub_shaped(4, p=2000)
        for link in ("logit", "probit"):
            got = screen_mme(parse_link_family(link), data, 400)
            fits = calls[-1]
            assert (got.lanes, got.lane_iterations, got.retired) == (
                data.p, fits.iterations.sum(), fits.retired.sum())
            assert got.retired == np.isnan(got.statistics).sum()
            assert (got.retired > 0) == (link == "logit")

    @pytest.mark.parametrize("include_intercept", [True, False])
    @pytest.mark.parametrize("link", DUAL_LINKS)
    def test_a_screen_bounds_its_lanes_only_at_their_start(self, monkeypatch, link,
                                                            include_intercept):
        # a screen's cut bound covers iteration 1 alone, from the shared
        # start, so no later iteration of its blocks is given a box; a
        # pick-only forward step still bounds its lanes at iteration 2
        # (BOUND_ITERS = 2), each such iteration's direction given the box
        lf = parse_link_family(link)
        boxed = []
        lane_direction = glm._lane_direction

        def spy(lf, y, A, Z, iu, x, eta, state, caps=None):
            boxed.append(caps is not None)
            return lane_direction(lf, y, A, Z, iu, x, eta, state, caps)

        monkeypatch.setattr(glm, "_lane_direction", spy)
        for seed in range(3):
            boxed.clear()
            data = _golub_shaped(seed)
            assert screen_mme(lf, data, 400, include_intercept).retired, seed
            assert boxed and not any(boxed), seed
        boxed.clear()
        path = forward_select(lf, data, np.arange(data.p), (0.5,), 1, include_intercept)
        assert path.steps[0].retired and any(boxed)

    @pytest.mark.parametrize("include_intercept", [True, False])
    @pytest.mark.parametrize("link", DUAL_LINKS)
    def test_a_lane_beaten_at_its_start_enters_no_block(self, monkeypatch, link,
                                                         include_intercept):
        # 72 x 3000 fills four blocks of 910 lanes: once the first fixes the
        # cut, every later lane is bounded at the shared start, and one
        # beaten there retires without an iteration; the blocks fitted
        # before the cut (whose first iteration carries no bound) retire
        # nothing
        lf = parse_link_family(link)
        tables, blocks = [], []

        def call_spy(*args, **kwargs):
            tables.append(_newton_lanes(*args, **kwargs))
            return tables[-1]

        newton_block = glm._newton_block

        def block_spy(y, A, Z, iu, x, lf, start, out, lanes, shared, first, pick_only=False,
                      best=-np.inf):
            blocks.append((lanes.copy(), shared[1], first[3] is None))
            return newton_block(y, A, Z, iu, x, lf, start, out, lanes, shared, first,
                                pick_only, best)

        monkeypatch.setattr(select_mod, "_newton_lanes", call_spy)
        monkeypatch.setattr(glm, "_newton_block", block_spy)
        for seed in range(3):
            blocks.clear()
            data = _golub_shaped(seed)
            got = screen_mme(lf, data, 400, include_intercept)
            fits, start_ll = tables[-1], blocks[0][1]
            before = np.concatenate([lanes for lanes, _ll, uncut in blocks if uncut])
            after = np.concatenate([lanes for lanes, _ll, uncut in blocks if not uncut])
            assert 0 < before.size < data.p and after.size, seed
            assert not fits.retired[before].any(), seed
            at_start = fits.retired & (fits.log_lik == start_ll)
            assert at_start.sum() > data.p // 4, seed
            assert np.all(fits.iterations[at_start] == 0), seed
            assert not at_start[after].any(), seed  # no lane beaten at its start entered a block
            # the survivors of the cut's pass fill full blocks, but the last
            sizes = [lanes.size for lanes, _ll, uncut in blocks if not uncut]
            assert all(size == blocks[0][0].size for size in sizes[:-1]), (seed, sizes)
            assert (got.lanes, got.lane_iterations, got.retired) == (
                data.p, fits.iterations.sum(), fits.retired.sum())
            full = screen_ranking(_newton_lanes(*screen_call(lf, data, include_intercept)), 400)
            assert np.array_equal(got.keep, full.keep), seed

    @pytest.mark.parametrize("include_intercept", [True, False])
    @pytest.mark.parametrize("link", DUAL_LINKS)
    def test_each_lane_is_bounded_at_most_once(self, monkeypatch, link, include_intercept):
        # the cut's start pass bounds every later lane once, and a cut that
        # rises as later blocks are fitted bounds none of them again: on the
        # screens above, in blocks of 910 lanes and in blocks of 16
        lf = parse_link_family(link)
        bounded = Counter()
        start_cut_bound = glm._start_cut_bound

        def spy(lf, y, A, x, *args):
            bounded.update(row.tobytes() for row in x)
            return start_cut_bound(lf, y, A, x, *args)

        monkeypatch.setattr(glm, "_start_cut_bound", spy)
        for shape, cells, keep in (((72, 3000), LANE_BLOCK_CELLS, 400), ((40, 288), 40 * 16, 40)):
            monkeypatch.setattr(glm, "LANE_BLOCK_CELLS", cells)
            for seed in range(3):
                bounded.clear()
                data = _golub_shaped(seed, *shape)
                _newton_lanes(*screen_call(lf, data, include_intercept), keep=keep)
                assert max(bounded.values(), default=0) == 1, (shape, seed)

    @pytest.mark.parametrize("link", DUAL_LINKS)
    def test_a_bound_within_the_margin_retires_nothing(self, monkeypatch, link):
        # every bound is replaced by the lane's own full-fit log-likelihood
        # less a share of the margin: a lane reaches no more than that, so
        # at half the margin none may retire, and at twice the margin the
        # lanes that come near their end at iteration 1 do
        lf = parse_link_family(link)
        data = _golub_shaped(5, n=40, p=288)
        call = screen_call(lf, data)
        final = _newton_lanes(*call).log_lik
        lane_of = {data.X[:, j].tobytes(): j for j in range(data.p)}

        def at(share):
            def bound(lf, y, A, x, start, shared, first, c):
                ll = final[[lane_of[row.tobytes()] for row in x]]
                return ll - share * MARGIN * (1.0 + np.abs(ll))
            return bound

        monkeypatch.setattr(glm, "LANE_BLOCK_CELLS", 40 * 16)
        for share, retires in ((0.5, False), (2.0, True)):
            monkeypatch.setattr(glm, "_start_cut_bound", at(share))
            assert _newton_lanes(*call, keep=40).retired.any() == retires, share


def _profile_log_lik(lf, data, x, slope, include_intercept):
    """The largest log-likelihood of [1, x] (or [x]) with the slope held:
    the intercept maximized by a bounded scalar search within the cap."""
    def minus(b0):
        return -glm._loglik_from_eta(data.y, b0 + slope * x, lf)

    if not include_intercept:
        return -minus(0.0)
    best = minimize_scalar(minus, bounds=(-glm.BETA_CAP, glm.BETA_CAP), method="bounded",
                           options={"xatol": 1e-12})
    return -best.fun


def _cut_pass(lf, data, include_intercept, c):
    """The arguments of a screen's ``_start_cut_bound`` against the cut c
    for every column of ``data``, all bounded at once from the shared start
    as the call's start pass bounds them."""
    y, A, X, _cols, _lf, start = screen_call(lf, data, include_intercept)
    eta = lf.clip_eta((A @ start[:-1])[None, :])
    start_ll, state = lf.log_lik(eta, y, keep_state=True)
    x = X.T.copy()
    r, w1, w = glm._newton_weights(lf, y, eta, state)
    d, gain, _ok, _fell_back, _rd, firm, grad, q, _bound = glm._first_direction(
        lf, y, A, x, eta, r, w1, w)
    return (lf, y, A, x, start, (eta, start_ll, r, w),
            (d, gain, firm, grad, q, np.abs(x).max(axis=1)), c)


@pytest.mark.parametrize("include_intercept", [True, False])
@pytest.mark.parametrize("link", DUAL_LINKS)
def test_the_cut_bound_covers_both_half_boxes(link, include_intercept):
    # from the shared start, each lane's bound for |slope| >= c lies at or
    # above the largest log-likelihood at slope c and at slope -c, which are
    # the largest of the two half-boxes where the lane's own fit ends
    # between them. Columns unrelated to y, some skewed, end near slope 0,
    # where either side can be the higher
    lf = parse_link_family(link)
    rng = np.random.default_rng(7)
    n = 50
    y = (rng.random(n) < 0.3).astype(float)
    X = np.column_stack([rng.standard_normal((n, 20)), rng.lognormal(0.0, 0.8, (n, 20)),
                         -rng.exponential(1.0, (n, 20)), rng.standard_normal((n, 20)) ** 3])
    data = Dataset(y, X)
    slopes = np.abs(_newton_lanes(*screen_call(lf, data, include_intercept)).beta[-1])
    checked = 0
    for c in (0.05, 0.2, 0.5):
        bound = glm._start_cut_bound(*_cut_pass(lf, data, include_intercept, c))
        for j in np.flatnonzero(np.isfinite(bound) & (slopes < c)):
            top = max(_profile_log_lik(lf, data, X[:, j], s, include_intercept) for s in (c, -c))
            assert bound[j] >= top - 1e-9 * (1 + abs(top)), (c, j)
            checked += 1
    assert checked > 100


def _wild_screen(seed, n=60, p=300):
    """Binary data whose columns are normal, scaled by up to 30, log-normal
    or Cauchy, and a few split by y, with a zero column and one equal
    to the intercept: some lanes meet the stop rule or fail the rank test
    at once."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.35).astype(float)
    X = rng.standard_normal((n, p)) * rng.uniform(0.1, 30.0, p)
    X[:, 1::4] = rng.lognormal(0.0, 1.0, (n, len(range(1, p, 4))))
    X[:, 2::4] = rng.standard_cauchy((n, len(range(2, p, 4))))
    X[:, 3:40:4] = (2.0 * y - 1.0)[:, None] * rng.uniform(0.5, 5.0, 10)
    X[:, 0], X[:, 4] = 0.0, 1.0
    return Dataset(y, X)


def _rare_screen(seed, n=200, p=200):
    """Binary data with two cases among n rows, and columns near 0 but at
    one case and one or two controls, larger at the controls: a lane's
    first step from the intercept's start takes its controls far up, many
    of them within 1 of the flat end, under logit and under cloglog."""
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    cases = rng.choice(n, 2, replace=False)
    y[cases] = 1.0
    X = 0.01 * rng.standard_normal((n, p))
    controls = np.flatnonzero(y == 0.0)
    for j in range(p):
        sign = rng.choice([-1.0, 1.0])
        X[rng.choice(cases), j] = sign
        X[rng.choice(controls, rng.integers(1, 3), replace=False), j] = sign * rng.uniform(1, 4)
    return Dataset(y, X)


@pytest.mark.parametrize("link", DUAL_LINKS)
def test_the_cut_pass_matches_its_first_arithmetic(link):
    # the half-box's dual point formed at once, the intercept refitted in
    # closed form, the floors by product sums and the flat-end test behind
    # its prefilter: the same bound as the first arithmetic's within
    # rounding, and inf on the same lanes
    lf = parse_link_family(link)
    screens = ([_golub_shaped(seed, p=1200) for seed in range(2)]
               + [_wild_screen(seed) for seed in range(2)]
               + [_rare_screen(seed) for seed in range(2)])
    counts = Counter()
    for include_intercept in (True, False):
        for data in screens:
            for c in (0.05, 0.3, 1.0, 4.0):
                args = _cut_pass(lf, data, include_intercept, c)
                with np.errstate(all="ignore"):
                    got = glm._start_cut_bound(*args)
                    ref = start_cut_bound_reference(*args)
                inf = np.isinf(ref)
                assert np.array_equal(np.isinf(got), inf), (include_intercept, c)
                got, ref = got[~inf], ref[~inf]
                assert np.all(np.abs(got - ref) <= 1e-12 * (1 + np.abs(ref))), (
                    include_intercept, c)
                _lf, y, A, x, _start, (eta, *_), (d, _gain, firm, *_), _c = args
                near = glm._near_flat(lf, y, eta, d[:-1].T @ A.T + d[-1][:, None] * x)
                counts.update({("bounded", include_intercept): (~inf).sum(),
                               ("near", include_intercept): (firm & near).sum(),
                               ("unfit", include_intercept): (~firm).sum()})
    # bounded lanes and lanes refused a bound with and without an intercept;
    # from the start g(ybar), lanes near a flat end too
    assert min(counts[kind, icpt] for kind in ("bounded", "unfit") for icpt in (True, False)) > 0
    assert counts["bounded", True] > 1000 and counts["near", True] > 50, counts


_FLAT_CELLS = st.one_of(st.floats(-40.0, 40.0), st.sampled_from([0.0, -0.0, 5e-324]))


@settings(max_examples=300, deadline=None)
@given(link=st.sampled_from(DUAL_LINKS), intercept=st.booleans(), data=st.data())
def test_the_flat_end_prefilter_skips_no_near_lane(link, intercept, data):
    # a lane the prefilter does not test is one whose reach from its
    # class's extreme eta cannot cross the margin: the mask equals the full
    # test's on every lane. Lane 0's step takes the cell of its largest
    # |x_j| to within a few ulps of its margin, on either side, moving every
    # term toward it, so that its reach is tight; the other lanes' cells
    # may be NaN or infinite
    lf = parse_link_family(link)
    n, lanes = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    k = int(intercept) + 1
    y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    cells = [_FLAT_CELLS] * n + [st.one_of(_FLAT_CELLS, st.floats())] * (n * (lanes - 1))
    x = np.array(data.draw(st.tuples(*cells))).reshape(lanes, n)
    d = np.array(data.draw(st.lists(st.floats(-30.0, 30.0), min_size=k * lanes,
                                    max_size=k * lanes))).reshape(k, lanes)
    A = np.ones((n, k - 1))
    sign, edge = glm._flat_margins(lf, y)
    eta = sign * (edge - np.array(data.draw(st.lists(st.floats(0.0, 30.0), min_size=n,
                                                     max_size=n))))
    i = np.argmax(np.abs(x[0]))
    d[:, 0] = np.abs(d[:, 0]) * sign[i]
    d[-1, 0] *= np.sign(x[0, i]) or 1.0
    step = (d[:-1, :1].T @ A[i:i + 1].T + d[-1, 0] * x[0, i])[0, 0]
    base = sign[i] * edge[i] - step
    eta[i] = base + data.draw(st.integers(-4, 4)) * np.spacing(base)
    with np.errstate(all="ignore"):
        xmax = np.maximum(x.max(axis=1), -x.min(axis=1))
        got = glm._near_flat_at_start(lf, y, A, x, eta[None, :], d, xmax)
        full = glm._near_flat(lf, y, eta[None, :], d[:-1].T @ A.T + d[-1][:, None] * x)
    assert np.array_equal(got, full)


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
    model, fit = ModelIndex((), include_intercept), path.null_fit
    remaining = list(range(data.p))
    for step in path.steps:
        fits, one_lane = check_batching(*step_call(lf, data, model, remaining, fit.beta),
                                        pick_only=True)
        lls = usable_log_liks(one_lane)
        pick = remaining.index(step.feature)
        assert lls[pick] >= lls.max() - 1e-9 * (1 + abs(lls.max()))
        model = ModelIndex(model.indices + (step.feature,), include_intercept)
        remaining.remove(step.feature)
        # the lane's own coefficient comes last; the step reports it at its
        # index position, and that fit starts the next step
        lane = fits.fit(pick)
        pos = int(include_intercept) + model.indices.index(step.feature)
        assert np.array_equal(np.insert(lane.beta[:-1], pos, lane.beta[-1]), step.fit.beta)
        assert replace(lane, beta=None) == replace(step.fit, beta=None)
        fit = step.fit
    reason = path.stop_reason
    if reason in ("no-usable-fit", "ebic-decided"):
        feature, next_fit, _lls = forward_step_reference(lf, data, model, remaining, fit.beta)
        if reason == "no-usable-fit":
            assert next_fit is None
        elif next_fit is not None:
            grown = ModelIndex(model.indices + (feature,), include_intercept)
            for g in path.gammas:
                ebic = ebic_score(next_fit, grown, data.n, data.p, g).ebic
                assert ebic > path.ebic_sequence(g).min()
    elif len(path.steps) == max_steps:
        assert reason == "max-steps"
    else:
        assert reason == ("size-limit" if model.size >= data.n - 2 else "no-candidates")


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
        copies = _newton_lanes(*step_call(lf, data, ModelIndex((), include_intercept), COPIES,
                                          null_beta))
        assert np.all(copies.log_lik == copies.log_lik[0])
        assert np.all(copies.beta == copies.beta[:, :1])
        assert not set(COPIES[1:]) & set(path.features)
        signal = ModelIndex((SIGNAL,), include_intercept)
        collinear = _newton_lanes(*step_call(lf, data, signal, COPIES[1:],
                                             np.append(null_beta, 0.0)))
        assert collinear.rank_deficient.all()
        # and so they are in a pick-only call over every other column, whose
        # lanes fill several blocks and are bounded at their shared start
        others = [j for j in range(data.p) if j != SIGNAL]
        every = _newton_lanes(*step_call(lf, data, signal, others, np.append(null_beta, 0.0)),
                              pick_only=True)
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
            signal = ModelIndex((SIGNAL,), include_intercept)
            fit = _newton_lanes(*step_call(lf, data, signal, [STEP_SEPARATING],
                                           fit_mle(lf, data, signal).beta)).fit(0)
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


@pytest.mark.parametrize("link", DUAL_LINKS)
def test_a_one_block_step_retires_lanes_at_their_start(link):
    # 400 candidates fill less than one block of 910 lanes, and are still
    # bounded at their shared start and fitted best first: the best that the
    # first block (an eighth of a block) reaches retires others before their
    # first iteration, and the pick is that of the full call
    lf = parse_link_family(link)
    for seed in range(3):
        data = _golub_shaped(seed, p=400)
        null = ModelIndex(())
        call = step_call(lf, data, null, range(data.p), fit_mle(lf, data, null).beta)
        y, A, _X, _cols, _lf, start = call
        got = _newton_lanes(*call, pick_only=True)
        zero = got.retired & (got.iterations == 0)
        assert zero.any(), seed
        assert np.all(got.log_lik[zero] == glm._loglik_from_eta(y, A @ start[:-1], lf))
        full = _newton_lanes(*call)
        assert np.argmax(usable_log_liks(got)) == np.argmax(usable_log_liks(full)), seed


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


# ---------------------------------------------------------------------------
# a screened path's first step, read off the screen's fits
# ---------------------------------------------------------------------------

def _pick_only_calls(monkeypatch):
    """The list that a spy on the selection's kernel fills with the result
    of every pick-only call made after this."""
    calls = []

    def spy(*args, **kwargs):
        fits = _newton_lanes(*args, **kwargs)
        if kwargs.get("pick_only"):
            calls.append(fits)
        return fits

    monkeypatch.setattr(select_mod, "_newton_lanes", spy)
    return calls


def test_a_screened_path_fits_no_first_step_of_its_own(monkeypatch):
    # the screen has fitted step 1's models, so each later step makes the
    # path's only pick-only calls; step 1 records none of their work
    calls = _pick_only_calls(monkeypatch)
    data = _golub_shaped(0)
    for include_intercept in (True, False):
        calls.clear()
        cfg = SelectConfig(gammas=(0.0,), max_steps=4, include_intercept=include_intercept)
        steps = select_pipeline(LF, data, cfg).path.steps
        assert len(steps) >= 2 and len(calls) == len(steps) - 1
        assert (steps[0].lanes, steps[0].lane_iterations, steps[0].retired) == (0, 0, 0)
        assert [s.lanes for s in steps[1:]] == [400 - k for k in range(1, len(steps))]
        assert [s.lane_iterations for s in steps[1:]] == [f.iterations.sum() for f in calls]


def test_each_step_starts_from_the_last_reported_fit(monkeypatch):
    # the golden replicate's picks arrive out of index order, so a step's
    # shared block and start kept in selection order would differ from
    # those of its model in index order from step 3 on
    data = generate_replicate(design_for("S1", 100), 7).dataset
    calls = []

    def spy(y, A, X, cols, lf, start, *args, **kwargs):
        calls.append((A.copy(), start.copy()))
        return _newton_lanes(y, A, X, cols, lf, start, *args, **kwargs)

    monkeypatch.setattr(select_mod, "_newton_lanes", spy)
    cfg = SelectConfig(screen_threshold=200, screen_keep=100)
    steps = select_pipeline(parse_link_family("cloglog"), data, cfg).path.steps
    assert [s.feature for s in steps[:4]] == [59, 39, 19, 9]
    # the screen's call, from the null model, then one call per later step
    assert len(calls) == len(steps)
    model = ModelIndex(())
    assert np.array_equal(calls[0][0], glm._design(data, model))
    for previous, (A, start) in zip(steps, calls[1:]):
        model = ModelIndex(model.indices + (previous.feature,))
        assert np.array_equal(A, glm._design(data, model))
        assert np.array_equal(start, np.append(previous.fit.beta, 0.0))


SCREENED = {**{f"golub{seed}": (lambda seed=seed: _golub_shaped(seed)) for seed in range(3)},
            "s1-n500": lambda: generate_replicate(design_for("S1", 500), 1).dataset}


@pytest.mark.parametrize("include_intercept", [True, False])
@pytest.mark.parametrize("link", ["logit", "cloglog", "probit"])
@pytest.mark.parametrize("name", sorted(SCREENED))
def test_step_one_from_the_screen_is_the_pick_of_its_own_call(link, name, include_intercept):
    # the pick-only call over the kept columns from the null fit that step 1
    # no longer makes: the same pick, and a fit that agrees to its last bits
    # unless it reached the beta cap (probit bounds no lane, so its call
    # fits every lane in full)
    lf, data = parse_link_family(link), SCREENED[name]()
    assert data.p > SelectConfig().screen_threshold
    cfg = SelectConfig(gammas=(0.0,), max_steps=1, include_intercept=include_intercept)
    report = select_pipeline(lf, data, cfg)
    [step] = report.path.steps
    kept = np.sort(report.screen.keep)
    call = step_call(lf, data, ModelIndex((), include_intercept), kept,
                     report.path.null_fit.beta)
    own = _newton_lanes(*call, pick_only=True)
    pick = int(np.argmax(usable_log_liks(own)))
    assert step.feature == kept[pick]
    if not (step.fit.quasi_separated or own.quasi_separated[pick]):
        assert abs(step.fit.log_lik - own.log_lik[pick]) <= 1e-9 * (1 + abs(own.log_lik[pick]))


@pytest.mark.parametrize("link", DUAL_LINKS)
def test_a_clamped_mean_leaves_step_one_to_its_own_call(monkeypatch, link):
    # one event in 1100 rows: ybar = 1/1100 lies below the 1e-3 that the
    # screen's start clamps it to, and the null fit moves off that start, so
    # the screen's fits did not start where step 1 does. Step 1 then makes
    # its own call, and the path is the one grown on the kept columns alone;
    # five events leave ybar unclamped, and step 1 comes from the screen
    calls = _pick_only_calls(monkeypatch)
    lf = parse_link_family(link)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((1100, 30))
    cfg = SelectConfig(gammas=(0.0,), max_steps=1, screen_threshold=20, screen_keep=10)
    for events, calls_per_path in ((1, 1), (5, 0)):
        y = np.zeros(1100)
        y[rng.choice(1100, events, replace=False)] = 1.0
        calls.clear()
        report = select_pipeline(lf, Dataset(y, X), cfg)
        path = report.path
        assert len(path.steps) == 1 and len(calls) == calls_per_path
        assert (path.null_fit.iterations > 1) == (events == 1)
        if events == 1:
            alone = forward_select(lf, Dataset(y, X), report.screen.keep, (0.0,), 1)
            assert path.features == alone.features
            for got, ref in zip(path.steps, alone.steps):
                assert got.fit.log_lik == ref.fit.log_lik
                assert np.array_equal(got.fit.beta, ref.fit.beta)
                assert (got.lanes, got.lane_iterations) == (ref.lanes, ref.lane_iterations)


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
