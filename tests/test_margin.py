import math

import numpy as np
import pytest

from marginforge.errors import EmptyInputError
from marginforge.experts import pairwise_distances
from marginforge.margin import (
    VAR_FLOOR,
    affine,
    batch_stats,
    beta_to_variance,
    expert_margins,
    rescale_margins,
)
from marginforge.mathcore import normal_cdf, unit_rows

# Phi(z) = 0.95; cross-checked against scipy.special.ndtri in
# test_sigma_against_independent_quantile below.
Z_95 = 1.6448536269514722


def symmetric_from_offdiag(values_by_pair, b):
    m = np.zeros((b, b))
    for (i, j), v in values_by_pair.items():
        m[i, j] = v
        m[j, i] = v
    return m


class TestBatchStats:
    def test_constant_offdiagonal(self):
        d = symmetric_from_offdiag({(0, 1): 0.3, (0, 2): 0.3, (1, 2): 0.3}, 3)
        mean, var = batch_stats(d)
        assert mean == pytest.approx(0.3, abs=1e-15)
        assert var == pytest.approx(0.0, abs=1e-15)

    def test_hand_arithmetic(self):
        d = symmetric_from_offdiag({(0, 1): 0.1, (0, 2): 0.2, (1, 2): 0.3}, 3)
        mean, var = batch_stats(d)
        assert mean == pytest.approx(0.2, abs=1e-12)
        # population variance of {0.1, 0.2, 0.3}: 0.02/3
        assert var == pytest.approx(0.02 / 3.0, abs=1e-12)
        assert var == pytest.approx(0.0066667, abs=1e-7)

    def test_b2_single_value(self):
        d = symmetric_from_offdiag({(0, 1): 0.42}, 2)
        mean, var = batch_stats(d)
        assert mean == pytest.approx(0.42, abs=1e-15)
        assert var == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("b", [2, 3, 64])
    def test_any_square_matrix(self, b):
        # not symmetric, O(1) diagonal that must not leak into the statistics
        rng = np.random.default_rng(30 + b)
        vals = rng.standard_normal((b, b)) + 0.5
        np.fill_diagonal(vals, rng.uniform(1.0, 3.0, size=b))
        off = vals[~np.eye(b, dtype=bool)]
        mean, var = batch_stats(vals)
        assert mean == pytest.approx(off.mean(), rel=1e-12, abs=1e-12)
        assert var == pytest.approx(off.var(), rel=1e-12, abs=1e-12)


class TestBetaToVariance:
    def test_zero_is_zero(self):
        assert beta_to_variance(0.0) == 0.0

    def test_converged_mass(self):
        for beta in (0.01, 0.04, 0.05, 0.2, 1.0):
            sigma = math.sqrt(beta_to_variance(beta))
            mass = normal_cdf(beta / sigma) - normal_cdf(-beta / sigma)
            assert abs(mass - 0.90) < 1e-10

    def test_sigma_against_independent_quantile(self):
        from scipy.special import ndtri

        z = float(ndtri(0.95))
        assert z == pytest.approx(Z_95, abs=1e-12)
        for beta in (0.02, 0.04, 0.1):
            assert math.sqrt(beta_to_variance(beta)) == pytest.approx(beta / z, rel=1e-9)

    def test_beta_004_frozen_values(self):
        var = beta_to_variance(0.04)
        assert math.sqrt(var) == pytest.approx(0.0243183, abs=1e-7)
        assert var == pytest.approx(5.913784151491123e-04, rel=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            beta_to_variance(-0.01)


class TestRescaleMargins:
    def test_constant_batch_falls_back_to_mu(self):
        d = symmetric_from_offdiag({(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5}, 3)
        m = rescale_margins(d, 0.05, 0.04)
        np.testing.assert_allclose(m, 0.05, atol=0)

    @pytest.mark.parametrize("b", [2, 3, 64, 257])
    @pytest.mark.parametrize("diag", [0.0, 2.5])
    def test_constant_offdiagonal_falls_back_at_any_size(self, b, diag):
        # a constant that is not a binary fraction, so the sums round
        vals = np.full((b, b), 1.0 / 3.0)
        np.fill_diagonal(vals, diag)
        mu, beta = 0.05, 0.04
        assert batch_stats(vals)[1] <= VAR_FLOOR
        m = rescale_margins(vals, mu, beta)
        assert np.all(m == mu)

    def test_hand_example(self):
        # off-diagonal distances {0.1, 0.2, 0.3}: z-scores +-1.224745 and 0,
        # margins mu +- z * beta / z95 (value confirmed by independent
        # quantile arithmetic; see test_sigma_against_independent_quantile)
        d = symmetric_from_offdiag({(0, 1): 0.1, (0, 2): 0.2, (1, 2): 0.3}, 3)
        m = rescale_margins(d, 0.05, 0.04)
        spread = math.sqrt(1.5) * 0.04 / Z_95  # z-score 1.224745 times sigma
        assert m[0, 1] == pytest.approx(0.05 - spread, abs=1e-9)
        assert m[0, 2] == pytest.approx(0.05, abs=1e-12)
        assert m[1, 2] == pytest.approx(0.05 + spread, abs=1e-9)
        assert m[0, 1] == pytest.approx(0.0202163, abs=1e-7)
        assert m[1, 2] == pytest.approx(0.0797837, abs=1e-7)

    def test_beta_zero_gives_hard_margin(self):
        rng = np.random.default_rng(20)
        x = rng.uniform(0, 2, size=(5, 5))
        d = 0.5 * (x + x.T)
        np.fill_diagonal(d, 0.0)
        m = rescale_margins(d, 0.07, 0.0)
        np.testing.assert_allclose(m, 0.07, atol=1e-9)

    def test_diagonal_is_mu(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(0, 2, size=(4, 4))
        d = 0.5 * (x + x.T)
        np.fill_diagonal(d, 0.0)
        m = rescale_margins(d, 0.05, 0.04)
        np.testing.assert_array_equal(np.diag(m), 0.05)

    def test_negative_margins_allowed(self):
        d = symmetric_from_offdiag({(0, 1): 0.0, (0, 2): 1.0, (1, 2): 2.0}, 3)
        m = rescale_margins(d, 0.0, 0.05)
        assert np.min(m) < 0.0


def random_distance_matrix(rng, b):
    x = rng.uniform(0.0, 2.0, size=(b, b))
    d = 0.5 * (x + x.T)
    np.fill_diagonal(d, 0.0)
    return d


class TestRescaleProperties:
    def test_mean_and_variance_exact(self):
        rng = np.random.default_rng(22)
        mu, beta = 0.05, 0.04
        target = beta_to_variance(0.04)
        for _ in range(50):
            b = int(rng.choice([3, 4, 8, 16]))
            m = rescale_margins(random_distance_matrix(rng, b), mu, beta)
            mean, var = batch_stats(m)
            assert mean == pytest.approx(0.05, abs=1e-9)
            assert var == pytest.approx(target, abs=1e-9)

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(23)
        mu, beta = 0.05, 0.04
        for _ in range(20):
            b = int(rng.choice([4, 8]))
            d = random_distance_matrix(rng, b)
            m = rescale_margins(d, mu, beta)
            off = ~np.eye(b, dtype=bool)
            dv, mv = d[off], m[off]
            order = np.argsort(dv, kind="stable")
            ds, ms = dv[order], mv[order]
            for k in range(len(ds) - 1):
                if ds[k + 1] > ds[k]:
                    assert ms[k + 1] > ms[k]

    def test_shift_invariance(self):
        rng = np.random.default_rng(24)
        mu, beta = 0.05, 0.04
        d = random_distance_matrix(rng, 6)
        shifted = d + 0.37
        np.fill_diagonal(shifted, 0.0)
        m1 = rescale_margins(d, mu, beta)
        m2 = rescale_margins(shifted, mu, beta)
        off = ~np.eye(6, dtype=bool)
        np.testing.assert_allclose(m1[off], m2[off], atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(25)
        mu, beta = 0.05, 0.04
        d = random_distance_matrix(rng, 8)
        once = rescale_margins(d, mu, beta)
        twice = rescale_margins(once, mu, beta)
        np.testing.assert_allclose(once, twice, atol=1e-9)

    def test_figure_confidence_interval(self):
        # mu = beta = 0.05: 90% of rescaled Gaussian distances in [0, 0.1]
        rng = np.random.default_rng(26)
        b = 150
        x = rng.normal(0.8, 0.2, size=(b, b))
        d = 0.5 * (x + x.T)
        np.fill_diagonal(d, 0.0)
        m = rescale_margins(d, 0.05, 0.05)
        off = m[~np.eye(b, dtype=bool)]
        frac = np.mean((off >= 0.0) & (off <= 0.1))
        assert frac == pytest.approx(0.90, abs=0.02)


class TestRescaleConfig:
    def test_rejects_negative_beta(self):
        d = random_distance_matrix(np.random.default_rng(27), 4)
        with pytest.raises(ValueError):
            rescale_margins(d, 0.05, -0.01)


class TestAffine:
    def test_maps_mean_to_mu_and_variance_to_target(self):
        scale, offset = affine(0.8, 0.04, 0.05, 0.04)
        assert scale * 0.8 + offset == pytest.approx(0.05, abs=1e-15)
        assert scale * scale * 0.04 == pytest.approx(beta_to_variance(0.04), rel=1e-15)

    @pytest.mark.parametrize("var", [0.0, VAR_FLOOR, -1e-16])
    def test_constant_batch_maps_to_mu(self, var):
        assert affine(0.8, var, 0.05, 0.04) == (0.0, 0.05)


class TestExpertMargins:
    @pytest.mark.parametrize("b", [2, 3, 64, 257, 1024])
    @pytest.mark.parametrize("dim", [1, 16])
    def test_matches_rescaled_distances(self, b, dim):
        rng = np.random.default_rng(40 + b + dim)
        U = unit_rows(rng.standard_normal((b, dim)), "expert")[0]
        m = expert_margins(U, 0.05, 0.04)
        np.testing.assert_allclose(
            m, rescale_margins(pairwise_distances(U), 0.05, 0.04), rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("b", [3, 64, 257])
    def test_exactly_symmetric_with_mu_diagonal(self, b):
        rng = np.random.default_rng(50 + b)
        U = unit_rows(rng.standard_normal((b, 16)), "expert")[0]
        m = expert_margins(U, 0.05, 0.04)
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_array_equal(np.diag(m), 0.05)

    @pytest.mark.parametrize("b", [2, 3, 64, 257])
    def test_identical_rows_fall_back_to_mu(self, b):
        rng = np.random.default_rng(60 + b)
        U = np.repeat(unit_rows(rng.standard_normal((1, 16)), "expert")[0], b, axis=0)
        m = expert_margins(U, 0.05, 0.04)
        assert np.all(m == 0.05)

    def test_needs_two_items(self):
        with pytest.raises(EmptyInputError):
            expert_margins(np.ones((1, 4)) / 2.0, 0.05, 0.04)
