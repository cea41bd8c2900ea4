import math

import numpy as np
import pytest
from scipy.special import ndtr

from marginforge import kernels
from marginforge.errors import EmptyInputError
from marginforge.margin import VAR_FLOOR, affine, beta_to_variance, expert_margins
from marginforge.mathcore import unit_rows
from helpers import reference_margins

# Phi(z) = 0.95; cross-checked against scipy.special.ndtri in
# test_sigma_against_independent_quantile below.
Z_95 = 1.6448536269514722


def rows_with_distances(values_by_pair, b):
    """Unit rows whose cosine distances are the given off-diagonal values:
    the Cholesky factor of the Gram matrix ``1 - d``."""
    gram = np.ones((b, b))
    for (i, j), v in values_by_pair.items():
        gram[i, j] = gram[j, i] = 1.0 - v
    return unit_rows(np.linalg.cholesky(gram), "expert")[0]


def random_rows(rng, b, dim=6):
    return unit_rows(rng.standard_normal((b, dim)), "expert")[0]


def offdiag(m):
    return m[~np.eye(m.shape[0], dtype=bool)]


class TestBetaToVariance:
    def test_zero_is_zero(self):
        assert beta_to_variance(0.0) == 0.0

    def test_converged_mass(self):
        for beta in (0.01, 0.04, 0.05, 0.2, 1.0):
            sigma = math.sqrt(beta_to_variance(beta))
            mass = ndtr(beta / sigma) - ndtr(-beta / sigma)
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
        U = rows_with_distances({(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5}, 3)
        m = expert_margins(U, 0.05, 0.04).dense()
        np.testing.assert_allclose(m, 0.05, atol=0)

    @pytest.mark.parametrize("b", [2, 3, 64, 257])
    @pytest.mark.parametrize("diag", [0.0, 2.5])
    def test_constant_offdiagonal_falls_back_at_any_size(self, b, diag):
        # raw rows with Gram matrix 1 + diag * I: every off-diagonal cosine
        # is 1 / (1 + diag), at 2.5 a value that is not a binary fraction,
        # so the Gram sums round
        X = np.hstack([np.ones((b, 1)), math.sqrt(diag) * np.eye(b)])
        mu, beta = 0.05, 0.04
        m = expert_margins(unit_rows(X, "expert")[0], mu, beta).dense()
        assert np.all(m == mu)

    def test_hand_example(self):
        # off-diagonal distances {0.1, 0.2, 0.3}: z-scores +-1.224745 and 0,
        # margins mu +- z * beta / z95 (value confirmed by independent
        # quantile arithmetic; see test_sigma_against_independent_quantile)
        U = rows_with_distances({(0, 1): 0.1, (0, 2): 0.2, (1, 2): 0.3}, 3)
        m = expert_margins(U, 0.05, 0.04).dense()
        spread = math.sqrt(1.5) * 0.04 / Z_95  # z-score 1.224745 times sigma
        assert m[0, 1] == pytest.approx(0.05 - spread, abs=1e-9)
        assert m[0, 2] == pytest.approx(0.05, abs=1e-12)
        assert m[1, 2] == pytest.approx(0.05 + spread, abs=1e-9)
        assert m[0, 1] == pytest.approx(0.0202163, abs=1e-7)
        assert m[1, 2] == pytest.approx(0.0797837, abs=1e-7)

    def test_beta_zero_gives_hard_margin(self):
        m = expert_margins(random_rows(np.random.default_rng(20), 5), 0.07, 0.0).dense()
        np.testing.assert_allclose(m, 0.07, atol=1e-9)

    def test_diagonal_is_mu(self):
        m = expert_margins(random_rows(np.random.default_rng(21), 4), 0.05, 0.04).dense()
        np.testing.assert_array_equal(np.diag(m), 0.05)

    def test_negative_margins_allowed(self):
        m = expert_margins(random_rows(np.random.default_rng(22), 3), 0.0, 0.05).dense()
        assert np.min(m) < 0.0


class TestRescaleProperties:
    def test_mean_and_variance_exact(self):
        rng = np.random.default_rng(22)
        mu, beta = 0.05, 0.04
        target = beta_to_variance(0.04)
        for _ in range(50):
            b = int(rng.choice([3, 4, 8, 16]))
            off = offdiag(expert_margins(random_rows(rng, b), mu, beta).dense())
            assert off.mean() == pytest.approx(0.05, abs=1e-9)
            assert off.var() == pytest.approx(target, abs=1e-9)

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(23)
        mu, beta = 0.05, 0.04
        for _ in range(20):
            b = int(rng.choice([4, 8]))
            U = random_rows(rng, b)
            dv = offdiag(1.0 - kernels.pairwise_cosine(U, U))
            mv = offdiag(expert_margins(U, mu, beta).dense())
            order = np.argsort(dv, kind="stable")
            ds, ms = dv[order], mv[order]
            for k in range(len(ds) - 1):
                if ds[k + 1] > ds[k]:
                    assert ms[k + 1] > ms[k]

    def test_shift_invariance(self):
        # a shared direction mixed into every row shifts and shrinks each
        # cosine alike, g -> (1 - t) g + t, which the rescale absorbs
        rng = np.random.default_rng(24)
        mu, beta, t = 0.05, 0.04, 0.37
        U = random_rows(rng, 6)
        shifted = np.hstack([math.sqrt(1.0 - t) * U, np.full((6, 1), math.sqrt(t))])
        m1 = expert_margins(U, mu, beta).dense()
        m2 = expert_margins(unit_rows(shifted, "expert")[0], mu, beta).dense()
        np.testing.assert_allclose(offdiag(m1), offdiag(m2), atol=1e-9)

    def test_figure_confidence_interval(self):
        # mu = beta = 0.05: 90% of the rescaled distances of 150 random
        # 64-d unit rows, which are near Gaussian, lie in [0, 0.1]
        rng = np.random.default_rng(26)
        off = offdiag(expert_margins(random_rows(rng, 150, dim=64), 0.05, 0.05).dense())
        frac = np.mean((off >= 0.0) & (off <= 0.1))
        assert frac == pytest.approx(0.90, abs=0.02)


class TestRescaleConfig:
    def test_rejects_negative_beta(self):
        U = random_rows(np.random.default_rng(27), 4)
        with pytest.raises(ValueError):
            expert_margins(U, 0.05, -0.01)


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
        m = expert_margins(U, 0.05, 0.04).dense()
        np.testing.assert_allclose(m, reference_margins(U, 0.05, 0.04), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("b", [3, 64, 257])
    def test_exactly_symmetric_with_mu_diagonal(self, b):
        rng = np.random.default_rng(50 + b)
        U = unit_rows(rng.standard_normal((b, 16)), "expert")[0]
        m = expert_margins(U, 0.05, 0.04).dense()
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_array_equal(np.diag(m), 0.05)

    @pytest.mark.parametrize("b", [2, 3, 64, 257])
    def test_identical_rows_fall_back_to_mu(self, b):
        rng = np.random.default_rng(60 + b)
        U = np.repeat(unit_rows(rng.standard_normal((1, 16)), "expert")[0], b, axis=0)
        m = expert_margins(U, 0.05, 0.04).dense()
        assert np.all(m == 0.05)

    def test_needs_two_items(self):
        with pytest.raises(EmptyInputError):
            expert_margins(np.ones((1, 4)) / 2.0, 0.05, 0.04)

    def test_empty_batch_rejected_when_built(self):
        with pytest.raises(EmptyInputError):
            expert_margins(np.empty((0, 4)), 0.05, 0.04)

    @pytest.mark.parametrize("b", [3, 64, 257])
    def test_row_blocks_tile_the_dense_matrix(self, b):
        rng = np.random.default_rng(70 + b)
        m = expert_margins(unit_rows(rng.standard_normal((b, 16)), "expert")[0], 0.05, 0.04)
        dense = m.dense()
        assert m.shape == dense.shape == (b, b)
        for r0, r1 in ((0, 1), (1, b), (b // 3, b // 2 + 1), (b - 1, b)):
            block = m.rows(r0, r1, np.empty((r1 - r0, b)))
            np.testing.assert_allclose(block, dense[r0:r1], rtol=0, atol=1e-16)
            np.testing.assert_array_equal(block[np.arange(r1 - r0), np.arange(r0, r1)], 0.05)


class TestBound:
    """``ExpertMargins.bound`` is at least every off-diagonal margin of
    ``dense()``, which the pruned mining's candidate bound rests on."""

    @pytest.mark.parametrize("dim", [1, 3, 16, 300])
    def test_antipodal_rows(self, dim):
        # u and -u: g = -|u|^2, which the product rounds a few ulps below -1
        # for most of these batches, where the margins are largest
        rng = np.random.default_rng(80 + dim)
        below = 0
        for _ in range(10):
            X = unit_rows(rng.standard_normal((20, dim)) * 10.0 ** rng.integers(-3, 4), "e")[0]
            U = np.concatenate([X, -X])
            m = expert_margins(U, 0.05, 0.04)
            off = offdiag(m.dense())
            assert off.max() <= m.bound
            assert m.bound - off.max() <= 1e-13
            below += (U @ U.T).min() < -1.0
        # a one-value unit row is +-1, whose products are exact
        assert below > 0 or dim == 1

    def test_duplicated_rows(self):
        rng = np.random.default_rng(90)
        for b, dim in ((6, 2), (64, 16), (200, 24)):
            U = random_rows(rng, b // 2, dim)
            U = np.concatenate([U, U, -U[:1]])[rng.permutation(b + 1)]
            m = expert_margins(U, 0.05, 0.04)
            assert offdiag(m.dense()).max() <= m.bound

    @pytest.mark.parametrize("mu", [0.05, -0.3])
    def test_beta_zero_is_mu(self, mu):
        m = expert_margins(random_rows(np.random.default_rng(91), 64, 16), mu, 0.0)
        assert m.scale == 0.0 and m.bound == mu
        assert np.all(offdiag(m.dense()) <= m.bound)

    def test_constant_batch_is_mu(self):
        # identical rows: an off-diagonal variance at or below VAR_FLOOR
        U = np.repeat(random_rows(np.random.default_rng(92), 1, 16), 64, axis=0)
        m = expert_margins(U, 0.05, 0.04)
        assert (m.scale, m.offset) == affine(0.0, 0.0, 0.05, 0.04) == (0.0, 0.05)
        assert m.bound == 0.05
        assert np.all(offdiag(m.dense()) <= m.bound)

    @pytest.mark.parametrize("b", [3, 64, 257])
    def test_rows_are_the_mapped_products(self, b):
        # the margin of a cell is its product under g * -scale + offset, two
        # roundings, off the diagonal, for any block of rows
        rng = np.random.default_rng(93 + b)
        m = expert_margins(random_rows(rng, b, 16), 0.05, 0.04)
        for r0, r1 in ((0, b), (1, b), (b // 3, b // 2 + 1)):
            g = m.products(r0, r1, np.empty((r1 - r0, b)))
            rows = m.rows(r0, r1, np.empty((r1 - r0, b)))
            off = np.ones_like(g, dtype=bool)
            off[np.arange(r1 - r0), np.arange(r0, r1)] = False
            np.testing.assert_array_equal((g * -m.scale + m.offset)[off], rows[off])
