"""Simulation designs: dimensions, block structure, reproducibility."""

import numpy as np
import pytest

from ebicglm import (
    InvalidArgs,
    InvalidDesign,
    InvalidRho,
    SimDesign,
    cloglog_response,
    design_for,
    divergent_pattern,
    generate_replicate,
)
from ebicglm.simgen import MAX_DESIGN_CELLS, _rng_for


class TestDesignFor:
    @pytest.mark.parametrize(
        "n,pn,p0n", [(100, 493, 7), (200, 716, 8), (500, 1279, 9)]
    )
    def test_divergent_pattern(self, n, pn, p0n):
        assert divergent_pattern(n) == (pn, p0n)
        d = design_for("S1", n)
        assert (d.pn, d.p0n) == (pn, p0n)

    def test_setting_parameters(self):
        assert (design_for(1, 100).L, design_for(1, 100).q) == (10, 15)
        assert (design_for("2", 100).L, design_for("S2", 100).q) == (5, 15)
        assert (design_for("S3", 100).L, design_for(3, 100).q) == (10, 50)

    def test_invalid_rho(self):
        with pytest.raises(InvalidRho):
            design_for("S1", 100, rho=1.0)
        with pytest.raises(InvalidRho):
            design_for("S1", 100, rho=-0.2)

    def test_setting_3_refuses_a_rho_it_would_ignore(self):
        with pytest.raises(InvalidRho, match="setting 3 has no rho"):
            design_for("S3", 100, rho=0.5)
        assert design_for("S3", 100, rho=0.0).rho == 0.0

    def test_unknown_setting(self):
        with pytest.raises(InvalidArgs):
            design_for("S9", 100)

    def test_s3_layout_constraint(self):
        with pytest.raises(InvalidDesign):
            SimDesign("S3", n=100, pn=80, p0n=9, rho=0.0, L=10, q=50)

    def test_design_size_limit(self):
        # checked when the design is built, before any matrix is allocated
        at_limit = SimDesign("S1", n=1, pn=MAX_DESIGN_CELLS, p0n=9, rho=0.0, L=10, q=15)
        assert at_limit.n * at_limit.pn == MAX_DESIGN_CELLS
        with pytest.raises(InvalidDesign, match="exceeds the limit"):
            SimDesign("S1", n=1, pn=MAX_DESIGN_CELLS + 1, p0n=9, rho=0.0, L=10, q=15)
        # the largest n whose design fits, and the next one
        assert design_for("S1", 5824).pn == 11520
        with pytest.raises(InvalidDesign, match="exceeds the limit"):
            design_for("S1", 5825)
        # far beyond, exp(n^0.2) would overflow; the size is refused first
        for n in (MAX_DESIGN_CELLS + 1, 10**400):
            with pytest.raises(InvalidDesign, match="exceeds the design limit"):
                design_for("S1", n)

    def test_s3_construction_needs_p0n_at_most_25(self):
        design = SimDesign("S3", n=10, pn=400, p0n=26, rho=0.0, L=10, q=50)
        with pytest.raises(InvalidDesign):
            generate_replicate(design, seed=0)


class TestTrueModel:
    def test_support_and_beta_pattern(self):
        sim = generate_replicate(design_for("S1", 100), seed=1)
        tm = sim.true_model
        assert tm.support == design_for("S1", 100).support == (9, 19, 29, 39, 49, 59, 69)
        expected = [1.0, 1.3, 1.0, 1.3, 1.0, 1.3, 1.0]
        assert [tm.beta[j] for j in tm.support] == expected
        off = np.delete(tm.beta, list(tm.support))
        assert np.all(off == 0.0)

    def test_setting2_support_spacing(self):
        sim = generate_replicate(design_for("S2", 100), seed=1)
        assert sim.true_model.support == (4, 9, 14, 19, 24, 29, 34)


class TestGenerateReplicate:
    def test_bit_identical_for_same_seed(self):
        design = design_for("S1", 100, rho=0.3)
        a = generate_replicate(design, seed=42)
        b = generate_replicate(design, seed=42)
        assert np.array_equal(a.dataset.X, b.dataset.X)
        assert np.array_equal(a.dataset.y, b.dataset.y)

    def test_replicate_streams_differ(self):
        design = design_for("S1", 100)
        a = generate_replicate(design, seed=42, replicate_id=0)
        b = generate_replicate(design, seed=42, replicate_id=1)
        assert not np.array_equal(a.dataset.X, b.dataset.X)

    def test_shapes_and_binary_response(self):
        design = design_for("S1", 100, rho=0.5)
        sim = generate_replicate(design, seed=7)
        assert sim.dataset.X.shape == (100, 493)
        assert set(np.unique(sim.dataset.y)) <= {0.0, 1.0}

    def test_block_moments_coarse(self):
        """Light moment sanity; the 3-SE suite runs in the acceptance tests."""
        design = SimDesign("S1", n=4000, pn=60, p0n=5, rho=0.5, L=10, q=15)
        X = generate_replicate(design, seed=11).dataset.X
        r01 = np.corrcoef(X[:, 0], X[:, 1])[0, 1]
        assert r01 == pytest.approx(0.5, abs=0.06)
        assert np.var(X[:, 16]) == pytest.approx(1.0, abs=0.15)  # N(0,1) block
        assert np.var(X[:, 25]) == pytest.approx(2.0, abs=0.3)  # Laplace block
        mix = X[:, 45:]
        assert np.mean(mix) == pytest.approx(0.0, abs=0.05)
        assert np.var(mix) == pytest.approx(1.75, abs=0.1)

    def test_rho_zero_gives_identity_covariance(self):
        design = SimDesign("S1", n=4000, pn=60, p0n=5, rho=0.0, L=10, q=15)
        X = generate_replicate(design, seed=3).dataset.X
        r = np.corrcoef(X[:, :4], rowvar=False)
        off = r[np.triu_indices(4, k=1)]
        assert np.all(np.abs(off) < 3.0 / np.sqrt(4000))

    def test_s3_constructed_columns(self):
        design = SimDesign("S3", n=4000, pn=130, p0n=7, rho=0.0, L=10, q=50)
        sim = generate_replicate(design, seed=5)
        X = sim.dataset.X
        j = 100  # a constructed column (> pn - q = 80)
        assert np.var(X[:, j]) == pytest.approx(1.0, abs=0.1)
        # corr with x_{L t} alternates +-1/5
        r1 = np.corrcoef(X[:, j], X[:, 9])[0, 1]
        r2 = np.corrcoef(X[:, j], X[:, 19])[0, 1]
        assert r1 == pytest.approx(0.2, abs=0.06)
        assert r2 == pytest.approx(-0.2, abs=0.06)


class TestCloglogResponse:
    def test_limits(self):
        rng = _rng_for(0, 0)
        assert np.all(cloglog_response(np.full(50, -50.0), rng) == 0.0)
        assert np.all(cloglog_response(np.full(50, 50.0), rng) == 1.0)

    def test_mean_at_zero(self):
        rng = _rng_for(123, 0)
        draws = cloglog_response(np.zeros(20000), rng)
        # p = 1 - e^{-1}; 3 binomial SEs
        p = 1.0 - np.exp(-1.0)
        se = np.sqrt(p * (1 - p) / 20000)
        assert abs(draws.mean() - p) < 3 * se

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidArgs):
            cloglog_response(np.array([np.inf]), _rng_for(0, 0))
