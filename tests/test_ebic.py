"""EBIC identities, the gamma grid, and preset resolution."""

import math

import numpy as np
import pytest

from ebicglm import (
    FitResult,
    InvalidArgs,
    ModelIndex,
    ebic_score,
    gamma_grid,
    log_choose,
    paper_final_gamma,
    resolve_gamma,
)


def _fake_fit(log_lik):
    return FitResult(
        beta=np.zeros(1),
        log_lik=log_lik,
        converged=True,
        iterations=1,
        used_fisher_fallback=False,
    )


class TestLogChoose:
    def test_zero_and_full(self):
        assert log_choose(17, 0) == 0.0
        assert log_choose(17, 17) == 0.0

    def test_ln_45(self):
        assert log_choose(10, 2) == pytest.approx(math.log(45), abs=1e-12)

    def test_matches_exact_integers_up_to_60(self):
        for p in range(1, 61):
            for k in range(p + 1):
                assert log_choose(p, k) == pytest.approx(
                    math.log(math.comb(p, k)), abs=1e-9
                )

    def test_leukemia_pair(self):
        # ln C(7129, 2), exact integer arithmetic then log
        assert log_choose(7129, 2) == pytest.approx(
            math.log(7129 * 7128 // 2), abs=1e-9
        )

    def test_invalid(self):
        with pytest.raises(InvalidArgs):
            log_choose(3, 4)
        with pytest.raises(InvalidArgs):
            log_choose(3, -1)


class TestEbicScore:
    def test_spec_example(self):
        # loglik=-100, |s|=3, n=100, p=1000, gamma=1
        score = ebic_score(_fake_fit(-100.0), ModelIndex((1, 5, 9)), 100, 1000, 1.0)
        assert score.ebic == pytest.approx(251.67251828739247, rel=1e-12)
        assert score.size_penalty == pytest.approx(3 * math.log(100))
        assert score.prior_penalty == pytest.approx(2 * math.log(math.comb(1000, 3)))

    def test_gamma_zero_is_bic_exactly(self):
        fit = _fake_fit(-57.25)
        m = ModelIndex((0, 3))
        score = ebic_score(fit, m, 80, 500, 0.0)
        assert score.ebic == -2.0 * fit.log_lik + 2 * math.log(80)
        assert score.prior_penalty == 0.0

    def test_empty_model(self):
        score = ebic_score(_fake_fit(-12.0), ModelIndex(()), 100, 1000, 1.0)
        assert score.ebic == 24.0
        assert score.size_penalty == 0.0 and score.prior_penalty == 0.0

    def test_identity_holds_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ll = float(rng.normal(-100, 30))
            k = int(rng.integers(0, 6))
            gamma = float(rng.uniform(0, 1.5))
            m = ModelIndex(tuple(range(k)))
            s = ebic_score(_fake_fit(ll), m, 100, 700, gamma)
            assert s.ebic == -2.0 * s.log_lik + s.size_penalty + s.prior_penalty

    def test_monotone_in_gamma(self):
        fit = _fake_fit(-40.0)
        m = ModelIndex((2, 4, 7))
        gammas = np.linspace(0.0, 1.0, 11)
        vals = [ebic_score(fit, m, 60, 300, g).ebic for g in gammas]
        assert np.all(np.diff(vals) > 0)  # strictly increasing for 0 < |s| < p

    def test_negative_gamma_rejected(self):
        with pytest.raises(InvalidArgs):
            ebic_score(_fake_fit(-1.0), ModelIndex((0,)), 10, 20, -0.1)


class TestGammaGrid:
    def test_paper_dimensions_n100(self):
        g = gamma_grid(100, 493)
        assert g.gamma1 == 0.0
        assert g.gamma2 == pytest.approx(0.31432290249376603, rel=1e-12)
        assert g.gamma3 == pytest.approx(0.81432290249376603, rel=1e-12)
        assert g.gamma4 == 1.0
        assert g.boundary == pytest.approx(0.62864580498753206, rel=1e-12)

    def test_n_equals_p(self):
        assert gamma_grid(100, 100).boundary == pytest.approx(0.5)

    def test_gamma4_constant(self):
        for n, p in ((50, 400), (100, 493), (500, 1279)):
            assert gamma_grid(n, p).gamma4 == 1.0

    def test_ordering_when_p_exceeds_n(self):
        for n, p in ((100, 493), (200, 716), (500, 1279), (72, 7129)):
            g = gamma_grid(n, p)
            assert g.gamma1 < g.gamma2 < g.boundary < g.gamma3 < g.gamma4

    def test_clamped_at_zero(self):
        g = gamma_grid(10**6, 2)
        assert g.gamma2 == 0.0 and g.boundary == 0.0

    def test_invalid_dims(self):
        with pytest.raises(InvalidArgs):
            gamma_grid(100, 1)
        with pytest.raises(InvalidArgs):
            gamma_grid(1, 100)


class TestResolveGamma:
    def test_presets(self):
        n, p = 72, 7129
        g = gamma_grid(n, p)
        assert resolve_gamma("bic", n, p) == 0.0
        assert resolve_gamma("gamma1", n, p) == 0.0
        assert resolve_gamma("gamma2", n, p) == g.gamma2
        assert resolve_gamma("gamma3", n, p) == g.gamma3
        assert resolve_gamma("mbic", n, p) == 1.0
        assert resolve_gamma("gamma4", n, p) == 1.0
        assert resolve_gamma("boundary", n, p) == g.boundary
        assert resolve_gamma("paper-final", n, p) == paper_final_gamma(n, p)
        assert paper_final_gamma(n, p) == pytest.approx(
            1.0 - math.log(72) / (3.0 * math.log(7129))
        )

    def test_numbers(self):
        assert resolve_gamma(0.25, 10, 20) == 0.25
        assert resolve_gamma("0.25", 10, 20) == 0.25

    def test_bad_specs(self):
        with pytest.raises(InvalidArgs):
            resolve_gamma("gamma9", 10, 20)
        with pytest.raises(InvalidArgs):
            resolve_gamma(-0.5, 10, 20)
