import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from marginforge import kernels
from marginforge.margin import expert_margins
from marginforge.mathcore import cosine_similarity, unit_rows
from helpers import (
    Delegating,
    DenseMargins,
    dense_cosine_backward,
    dense_gradient,
    dense_rows,
    finite_diff_grad,
    row_sources,
)
from oracles import brute_force_full_loss, loss_at_frozen_selection, mean_loss_all_negatives

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import _count_triplet_terms  # noqa: E402


def unit_instance(rng, b=5, dim=4, levels=3):
    """Unit rows U, V of a random batch and ``levels`` margin matrices with
    their weights: the constant 0.05 of weight 1, then random ones."""
    U = unit_rows(rng.standard_normal((b, dim)), "video")[0]
    V = unit_rows(rng.standard_normal((b, dim)), "text")[0]
    M = np.concatenate(
        [np.full((1, b, b), 0.05), rng.uniform(-0.1, 0.2, size=(levels - 1, b, b))]
    )
    w = np.concatenate([[1.0], rng.uniform(0.0, 1.0, size=levels - 1)])
    return U, V, M, w


def random_instance(rng, b=5, dim=4, levels=3):
    """``unit_instance`` with its unit rows as their similarity matrix S,
    which the tests pass as ``dense_rows(S)`` and are free to edit."""
    U, V, M, w = unit_instance(rng, b, dim, levels)
    return kernels.pairwise_cosine(U, V), M, w


# where a level list holds its scalar levels: nowhere, at level 0 as
# training builds it, or also past level 0, between the row sources; the
# criterion's layout and the mined margins' scalar columns take any of them
SCALAR_PLACES = ["none", "first", "spread"]


def place_scalars(M, where):
    """The level list of a (K, b, b) margin stack M whose level 0 is
    constant, editing M to match: every level an array (``"none"``), level
    0 a scalar (``"first"``), or also every odd level, each first set to a
    constant of M's (``"spread"``; at K = 2 no level is an array)."""
    levels = list(M)
    if where != "none":
        levels[0] = float(M[0, 0, 0])
    if where == "spread":
        for k in range(1, len(M), 2):
            M[k] = M[k, 0, -1]
            levels[k] = float(M[k, 0, 0])
    return levels


class TestPairwiseCosine:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((4, 6))
        Y = rng.standard_normal((5, 6))
        S = kernels.pairwise_cosine(unit_rows(X, "X")[0], unit_rows(Y, "Y")[0])
        assert S.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert S[i, j] == pytest.approx(cosine_similarity(X[i], Y[j]), abs=1e-12)


class TestTripletTerms:
    @pytest.mark.parametrize("mining", ["hardest", "mean"])
    @pytest.mark.parametrize("scalars", SCALAR_PLACES)
    def test_matches_brute_force(self, mining, scalars):
        rng = np.random.default_rng(12)
        for trial in range(30):
            b = int(rng.integers(2, 7))
            S, M, w = random_instance(rng, b=b, levels=int(rng.integers(1, 6)))
            levels = row_sources(place_scalars(M, scalars))
            comp, dS, mined_v, mined_t = kernels.triplet_terms(
                *dense_rows(S), levels, w, mining == "mean"
            )
            total, per_level, bf_v, bf_t = brute_force_full_loss(S, list(M), w, mining)
            np.testing.assert_allclose(comp, per_level, atol=1e-12)
            assert float(np.dot(w, comp)) == pytest.approx(total, abs=1e-12)
            np.testing.assert_array_equal(mined_v, bf_v)
            np.testing.assert_array_equal(mined_t, bf_t)

    @pytest.mark.parametrize("mining", ["hardest", "mean"])
    @pytest.mark.parametrize("scalars", ["first", "spread"])
    @pytest.mark.parametrize("b", [9, 17, 33])
    def test_level_list_past_summation_blocks(self, mining, scalars, b):
        # scalar levels plus B x B levels, at sizes where numpy's sums
        # switch to unrolled and blocked pairwise summation
        rng = np.random.default_rng(100 + b)
        for _ in range(3):
            S, M, w = random_instance(rng, b=b, levels=5)
            levels = row_sources(place_scalars(M, scalars))
            comp, dS, mined_v, mined_t = kernels.triplet_terms(
                *dense_rows(S), levels, w, mining == "mean"
            )
            total, per_level, bf_v, bf_t = brute_force_full_loss(S, list(M), w, mining)
            np.testing.assert_allclose(comp, per_level, rtol=1e-12, atol=1e-12)
            assert float(np.dot(w, comp)) == pytest.approx(total, abs=1e-12)
            np.testing.assert_array_equal(mined_v, bf_v)
            np.testing.assert_array_equal(mined_t, bf_t)
            if b == 9:
                if mining == "mean":
                    def f(flat):
                        return mean_loss_all_negatives(flat.reshape(S.shape), list(M), w)
                else:
                    def f(flat):
                        return loss_at_frozen_selection(
                            flat.reshape(S.shape), list(M), w, mined_v, mined_t
                        )

                fd = finite_diff_grad(f, S.ravel(), h=1e-6).reshape(S.shape)
                np.testing.assert_allclose(dense_gradient(dS), fd, atol=1e-7)

    @pytest.mark.parametrize("mean_mining", [False, True])
    def test_peak_memory_is_a_few_batch_matrices(self, mean_mining):
        b, levels = 256, 5
        rng = np.random.default_rng(17)
        U, V, M, w = unit_instance(rng, b=b, dim=16, levels=levels)
        margins = [0.05] + row_sources(M[1:])
        tracemalloc.start()
        try:
            kernels.triplet_terms(U, V, margins, w, mean_mining)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * b * b * 8

    @pytest.mark.parametrize("mining", ["hardest", "mean"])
    @pytest.mark.parametrize("scalars", SCALAR_PLACES)
    @pytest.mark.parametrize("b", [9, 17])
    @pytest.mark.parametrize("block_values", [16, 36, 64])
    def test_row_blocks(self, monkeypatch, mining, scalars, b, block_values):
        # R = block_values // b rows per block: one row per block, then
        # several rows with a ragged last block (9 = 4+4+1, 17 = 2*8+1, ...)
        rng = np.random.default_rng(200 + b)
        S, M, w = random_instance(rng, b=b, levels=5)
        levels = row_sources(place_scalars(M, scalars))
        whole = kernels.triplet_terms(*dense_rows(S), levels, w, mining == "mean")
        monkeypatch.setattr(kernels, "BLOCK_VALUES", block_values)
        comp, dS, mined_v, mined_t = kernels.triplet_terms(
            *dense_rows(S), levels, w, mining == "mean"
        )
        total, per_level, bf_v, bf_t = brute_force_full_loss(S, list(M), w, mining)
        np.testing.assert_allclose(comp, per_level, rtol=1e-12, atol=1e-12)
        assert float(np.dot(w, comp)) == pytest.approx(total, abs=1e-12)
        np.testing.assert_array_equal(mined_v, bf_v)
        np.testing.assert_array_equal(mined_t, bf_t)
        # dS along one random direction, against the oracle's central difference
        if mining == "mean":
            def f(X):
                return mean_loss_all_negatives(X, list(M), w)
        else:
            def f(X):
                return loss_at_frozen_selection(X, list(M), w, mined_v, mined_t)

        E = rng.standard_normal(S.shape)
        h = 1e-6
        fd = (f(S + h * E) - f(S - h * E)) / (2.0 * h)
        assert float(np.sum(dense_gradient(dS) * E)) == pytest.approx(fd, abs=1e-7)
        # only mean mining's level totals are summed per block
        if mining == "hardest":
            np.testing.assert_array_equal(comp, whole[0])
        np.testing.assert_array_equal(dense_gradient(dS), dense_gradient(whole[1]))
        for blocked, one_block in zip((mined_v, mined_t), whole[2:]):
            np.testing.assert_array_equal(blocked, one_block)

    @pytest.mark.parametrize("mean_mining", [False, True])
    def test_peak_memory_is_row_blocks(self, mean_mining):
        b, levels = 1024, 5
        rng = np.random.default_rng(18)
        U, V, M, w = unit_instance(rng, b=b, dim=16, levels=levels)
        margins = [0.05] + row_sources(M[1:])
        tracemalloc.start()
        try:
            kernels.triplet_terms(U, V, margins, w, mean_mining)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < b * b * 8

    @pytest.mark.parametrize("mean_mining", [False, True])
    def test_peak_memory_at_small_batch_in_bytes(self, mean_mining):
        # at B=64 numpy's fixed 64 KiB iterator buffer alone is two B x B
        # matrices, so this bound is in bytes
        b, levels = 64, 5
        rng = np.random.default_rng(19)
        U, V, M, w = unit_instance(rng, b=b, dim=16, levels=levels)
        margins = [0.05] + row_sources(M[1:])
        tracemalloc.start()
        try:
            kernels.triplet_terms(U, V, margins, w, mean_mining)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20

    def test_grad_matches_finite_differences_hardest(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            S, M, w = random_instance(rng, b=4)
            comp, dS, mined_v, mined_t = kernels.triplet_terms(
                *dense_rows(S), row_sources(M), w, False
            )

            def f(flat):
                return loss_at_frozen_selection(
                    flat.reshape(S.shape), list(M), w, mined_v, mined_t
                )

            fd = finite_diff_grad(f, S.ravel(), h=1e-6).reshape(S.shape)
            np.testing.assert_allclose(dense_gradient(dS), fd, atol=1e-7)

    def test_grad_matches_finite_differences_mean(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            S, M, w = random_instance(rng, b=4)
            _, dS, _, _ = kernels.triplet_terms(*dense_rows(S), row_sources(M), w, True)

            def f(flat):
                return mean_loss_all_negatives(flat.reshape(S.shape), list(M), w)

            fd = finite_diff_grad(f, S.ravel(), h=1e-6).reshape(S.shape)
            np.testing.assert_allclose(dense_gradient(dS), fd, atol=1e-7)

    def test_tie_breaks_to_smallest_index(self):
        # two identical negatives: index 1 must win over index 2
        S = np.array([[0.9, 0.5, 0.5], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        M = np.full((1, 3, 3), 0.05)
        w = np.ones(1)
        _, _, mined_v, mined_t = kernels.triplet_terms(*dense_rows(S), row_sources(M), w, False)
        assert mined_t[0] == 1


def both_paths(monkeypatch, rows, levels, w, mean_mining=False):
    """Mining of the unit rows ``rows = (U, V)`` by the full scan and by the
    pruned path, with each array level wrapped in ``DenseMargins``."""
    levels = row_sources(levels)
    monkeypatch.setattr(kernels, "PRUNE_MIN_B", 1 << 30)
    full = kernels.triplet_terms(*rows, levels, w, mean_mining)
    monkeypatch.setattr(kernels, "PRUNE_MIN_B", 2)
    pruned = kernels.triplet_terms(*rows, levels, w, mean_mining)
    return full, pruned


# what a ``ProjectedGradient`` holds of dS
PROJECTIONS = ("dSV", "dSTU", "row_sums", "col_sums")


def assert_same_mining(full, pruned):
    """The two paths' level totals, mined indices and dS projections, bit for bit."""
    for got, want in zip((pruned[0], *pruned[2:]), (full[0], *full[2:])):
        np.testing.assert_array_equal(got, want)
    for name in PROJECTIONS:
        np.testing.assert_array_equal(getattr(pruned[1], name), getattr(full[1], name))


def assert_matches_oracle(result, S, levels, w, mean_mining=False):
    b = S.shape[0]
    dense = [np.full((b, b), m) if np.ndim(m) == 0 else np.asarray(m) for m in levels]
    mining = "mean" if mean_mining else "hardest"
    _, per_level, bf_v, bf_t = brute_force_full_loss(S, dense, w, mining)
    np.testing.assert_allclose(result[0], per_level, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(result[2], bf_v)
    np.testing.assert_array_equal(result[3], bf_t)


def boundary_instance(rng, b, scale, top=False):
    """S and three margin levels in which, in every anchor row of direction
    text, a second cell j sits on the pruning bound: its margins are the
    row's largest margin A at every level and S[i, j] + A equals S[i, j*] +
    m* to within a few ulps, where j* holds the row's largest S and the
    margin m* at every level. Which of j and j* wins is decided by rounding.
    With ``top``, A is the largest margin of all levels and rows instead,
    the bound of ``DenseMargins`` levels, so that j sits on the bound the
    pruned path takes."""
    S = scale * rng.uniform(-1.0, 1.0, (b, b))
    np.fill_diagonal(S, 0.5 * scale)
    M = scale * rng.uniform(0.0, 0.2, (3, b, b))
    largest = M.max()
    for i in range(b):
        others = [j for j in range(b) if j != i]
        star = others[int(np.argmax(S[i, others]))]
        j = int(rng.choice([k for k in others if k != star]))
        m_star = M[:, i, star].min()
        M[:, i, star] = m_star
        M[:, i, j] = largest if top else M[:, i].max()
        S[i, j] = S[i, star] + m_star - M[0, i, j]
        for _ in range(int(rng.integers(-3, 4)) % 7):
            S[i, j] = np.nextafter(S[i, j], np.inf if rng.random() < 0.5 else -np.inf)
    return S, list(M)


class TestPrunedMining:
    # the pruned path is forced at small B by lowering PRUNE_MIN_B; each test
    # checks it against the full scan bit for bit and against the oracle

    @pytest.mark.parametrize("mean_mining", [False, True])
    @pytest.mark.parametrize("scalars", SCALAR_PLACES)
    def test_matches_full_scan_and_oracle(self, monkeypatch, mean_mining, scalars):
        rng = np.random.default_rng(900)
        for _ in range(20):
            b = int(rng.integers(2, 12))
            S, M, w = random_instance(rng, b=b, levels=int(rng.integers(1, 6)))
            levels = place_scalars(M, scalars)
            full, pruned = both_paths(monkeypatch, dense_rows(S), levels, w, mean_mining)
            assert_same_mining(full, pruned)
            assert_matches_oracle(pruned, S, levels, w, mean_mining)

    @pytest.mark.parametrize("mean_mining", [False, True])
    @pytest.mark.parametrize("scalars", SCALAR_PLACES)
    def test_exact_ties_go_to_the_smallest_index(self, monkeypatch, mean_mining, scalars):
        # duplicate columns of S and of every margin level tie direction
        # text's candidates exactly; duplicate rows tie direction video's
        rng = np.random.default_rng(910)
        b = 12
        S, M, w = random_instance(rng, b=b, levels=4)
        S = np.round(S * 4.0) / 4.0
        for src, dst in ((2, 7), (3, 9), (7, 11)):
            S[:, dst], M[:, :, dst] = S[:, src], M[:, :, src]
            S[dst, :], M[:, dst, :] = S[src, :], M[:, src, :]
        levels = place_scalars(M, scalars)
        full, pruned = both_paths(monkeypatch, dense_rows(S), levels, w, mean_mining)
        assert_same_mining(full, pruned)
        assert_matches_oracle(pruned, S, levels, w, mean_mining)

    @pytest.mark.parametrize("mean_mining", [False, True])
    @pytest.mark.parametrize("scalars", SCALAR_PLACES)
    def test_rows_inactive_everywhere_mine_their_first_other_index(
        self, monkeypatch, mean_mining, scalars
    ):
        # every hinge is 0 in the rows of anchors 0, 3 and 5, and in both
        # directions: anchor 0 mines index 1, the others index 0
        rng = np.random.default_rng(920)
        b = 8
        S, M, w = random_instance(rng, b=b, levels=3)
        for i in (0, 3, 5):
            S[i, i] = 10.0
        levels = place_scalars(M, scalars)
        full, pruned = both_paths(monkeypatch, dense_rows(S), levels, w, mean_mining)
        assert_same_mining(full, pruned)
        assert_matches_oracle(pruned, S, levels, w, mean_mining)
        for mined in pruned[2:]:
            assert (mined[0], mined[3], mined[5]) == (1, 0, 0)
        # and a batch inactive everywhere
        S = np.eye(b) * 10.0
        full, pruned = both_paths(monkeypatch, dense_rows(S), levels, w, mean_mining)
        assert_same_mining(full, pruned)
        for mined in pruned[2:]:
            np.testing.assert_array_equal(mined, [1] + [0] * (b - 1))
        for name in PROJECTIONS:
            assert not getattr(pruned[1], name).any()

    @pytest.mark.parametrize("mean_mining", [False, True])
    @pytest.mark.parametrize("level", ["scalar", "array"])
    def test_single_level(self, monkeypatch, mean_mining, level):
        rng = np.random.default_rng(930)
        S, M, w = random_instance(rng, b=9, levels=2)
        levels = [0.05 if level == "scalar" else M[1]]
        full, pruned = both_paths(monkeypatch, dense_rows(S), levels, w[:1], mean_mining)
        assert_same_mining(full, pruned)
        assert_matches_oracle(pruned, S, levels, w[:1], mean_mining)

    @pytest.mark.parametrize("mean_mining", [False, True])
    @pytest.mark.parametrize("scalars", ["first", "spread"])
    @pytest.mark.parametrize("block_values", [16, 36, 64])
    def test_ragged_last_block(self, monkeypatch, mean_mining, scalars, block_values):
        # 17 anchors in blocks of 1, 2 and 3 rows: 17 = 8 * 2 + 1 = 5 * 3 + 2
        rng = np.random.default_rng(940 + block_values)
        b = 17
        U, un, V, vn, S, levels, w = mined_instance(rng, b, scalars=scalars)
        monkeypatch.setattr(kernels, "BLOCK_VALUES", block_values)
        for rows in ((U, V), dense_rows(S)):
            full, pruned = both_paths(monkeypatch, rows, levels, w, mean_mining)
            assert_same_mining(full, pruned)
        dense = [m.dense() if hasattr(m, "dense") else m for m in levels]
        assert_matches_oracle(pruned, S, dense, w, mean_mining)

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_cells_on_the_bound(self, monkeypatch, scale):
        # at 1e6 a rounding of the bound is ~1e-10, far above an absolute
        # slack: the slack must scale with the values
        rng = np.random.default_rng(950)
        w = np.array([1.0, 0.3, 0.7])
        for _ in range(10):
            S, levels = boundary_instance(rng, 16, scale)
            full, pruned = both_paths(monkeypatch, dense_rows(S), levels, w)
            assert_same_mining(full, pruned)
            assert_matches_oracle(pruned, S, levels, w)

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_cells_on_the_levels_bound(self, monkeypatch, scale):
        # the pruned path bounds every row by the levels' bounds, here the
        # largest margin of the batch, on which a cell of every row sits
        rng = np.random.default_rng(955)
        w = np.array([1.0, 0.3, 0.7])
        for _ in range(10):
            S, levels = boundary_instance(rng, 16, scale, top=True)
            full, pruned = both_paths(monkeypatch, dense_rows(S), levels, w)
            assert_same_mining(full, pruned)
            assert_matches_oracle(pruned, S, levels, w)

    @pytest.mark.parametrize("mean_mining", [False, True])
    @pytest.mark.parametrize("b", [128, 200])
    def test_expert_margins_levels(self, monkeypatch, mean_mining, b):
        # the levels the trainer builds: the full scan maps their product
        # planes, pruned hardest mining only the cells it scores, and both
        # take the same bits; 200 anchors are two row blocks
        rng = np.random.default_rng(990 + b)
        U = unit_rows(rng.standard_normal((b, 16)), "video")[0]
        V = unit_rows(rng.standard_normal((b, 16)), "text")[0]
        experts = [
            expert_margins(unit_rows(rng.standard_normal((b, dim)), "expert")[0], 0.05, 0.04)
            for dim in (16, 16, 24, 20)
        ]
        levels = [0.05, *experts]
        w = np.array([1.0, 0.3, 0.3, 0.7, 0.7])
        full, pruned = both_paths(monkeypatch, (U, V), levels, w, mean_mining)
        assert_same_mining(full, pruned)
        dense = [0.05, *(m.dense() for m in experts)]
        assert_matches_oracle(pruned, kernels.pairwise_cosine(U, V), dense, w, mean_mining)

    def test_hardest_mining_maps_no_whole_plane(self):
        # a product plane still holds the products when the next block's
        # are formed, and when the call returns, only under pruned hardest
        # mining: mean mining and the full scan map every plane in place
        rng = np.random.default_rng(995)
        w = np.array([1.0, 0.6, 0.4])
        for b in (kernels.PRUNE_MIN_B - 1, kernels.PRUNE_MIN_B, 300):
            U = unit_rows(rng.standard_normal((b, 16)), "video")[0]
            V = unit_rows(rng.standard_normal((b, 16)), "text")[0]
            for mean_mining in (False, True):
                experts = [
                    expert_margins(unit_rows(rng.standard_normal((b, 8)), "e")[0], 0.05, 0.04)
                    for _ in range(2)
                ]
                spies = [ProductsKept(m) for m in experts]
                kernels.triplet_terms(U, V, [0.05, *spies], w, mean_mining)
                blocks = -(-b // min(b, kernels.BLOCK_VALUES // b))
                for spy in spies:
                    spy.check()
                    assert spy.calls == len(spy.kept) == blocks
                    pruned_hardest = b >= kernels.PRUNE_MIN_B and not mean_mining
                    assert spy.kept == [pruned_hardest] * blocks, (b, mean_mining)

    def test_large_values(self, monkeypatch):
        rng = np.random.default_rng(960)
        for b in (5, 40):
            S, M, w = random_instance(rng, b=b, levels=4)
            S, levels = 1e6 * S, [1e6 * 0.05] + list(1e6 * M[1:])
            full, pruned = both_paths(monkeypatch, dense_rows(S), levels, w)
            assert_same_mining(full, pruned)
            assert_matches_oracle(pruned, S, levels, w)

    def test_gate(self, monkeypatch):
        # the pruned path runs from PRUNE_MIN_B on, under either mining, and
        # only for a criterion of nonzero weight
        calls = []
        real = kernels._mine_pruned
        monkeypatch.setattr(
            kernels, "_mine_pruned", lambda *a: calls.append(a[0].shape[1]) or real(*a)
        )
        rng = np.random.default_rng(970)
        for b in (kernels.PRUNE_MIN_B - 1, kernels.PRUNE_MIN_B):
            S, M, w = random_instance(rng, b=b, levels=2)
            for mean_mining in (False, True):
                kernels.triplet_terms(
                    *dense_rows(S), [0.05, DenseMargins(M[1])], w, mean_mining
                )
        assert calls == [kernels.PRUNE_MIN_B, kernels.PRUNE_MIN_B]
        for mean_mining in (False, True):
            _, _, mined_v, mined_t = kernels.triplet_terms(
                *dense_rows(S), [0.05, DenseMargins(M[1])], 0.0 * w, mean_mining
            )
            assert calls == [kernels.PRUNE_MIN_B, kernels.PRUNE_MIN_B]
            for mined in (mined_v, mined_t):
                np.testing.assert_array_equal(mined, [1] + [0] * (S.shape[0] - 1))

    def test_negative_weight_rejected(self):
        rng = np.random.default_rng(980)
        S, M, w = random_instance(rng, b=4, levels=3)
        w[2] = -0.1
        for mean_mining in (False, True):
            with pytest.raises(ValueError, match="nonnegative"):
                kernels.triplet_terms(*dense_rows(S), row_sources(M), w, mean_mining)

    @pytest.mark.parametrize("mean_mining", [False, True])
    @pytest.mark.parametrize("b", [64, 128])
    @pytest.mark.parametrize("w", [[1.0, 0.5, 0.5], [1.0]])
    def test_weight_count_must_match_levels(self, b, mean_mining, w):
        rng = np.random.default_rng(981)
        U, V, M, _ = unit_instance(rng, b=b, dim=16, levels=2)
        margins = [0.05] + row_sources(M[1:])
        with pytest.raises(ValueError, match=f"^{len(w)} level weights for 2 margin levels$"):
            kernels.triplet_terms(U, V, margins, np.array(w), mean_mining)

    @pytest.mark.parametrize("mean_mining", [False, True])
    def test_no_margin_levels_rejected(self, mean_mining):
        rng = np.random.default_rng(982)
        U, V, _, _ = unit_instance(rng, b=8, dim=16, levels=1)
        with pytest.raises(ValueError, match="^need at least one margin level$"):
            kernels.triplet_terms(U, V, [], np.array([]), mean_mining)


class ProductsKept(Delegating):
    """A ``Delegating`` row source that records, before each ``products``
    call and at ``check()``, whether the rows it wrote last still hold the
    products: whether no map was applied to them in place."""

    def __init__(self, inner):
        super().__init__(inner)
        self.kept, self.last = [], None

    def products(self, r0, r1, out):
        self.check()
        super().products(r0, r1, out)
        self.last = (out, out.copy())
        return out

    def check(self):
        if self.last is not None:
            out, written = self.last
            self.kept.append(bool(np.array_equal(out, written)))
            self.last = None


class TestMarginRowSources:
    # B = 181 is the largest one-block batch, 182 the smallest two-block one;
    # 205 and 410 give blocks of 159 and 79 rows, not multiples of BLAS tiles
    @pytest.mark.parametrize("b", [2, 3, 26, 64, 181, 182, 205, 410, 1024])
    @pytest.mark.parametrize("ties", [False, True])
    def test_expert_margins_match_their_dense_arrays(self, b, ties):
        rng = np.random.default_rng(300 + b + 7 * ties)
        U = unit_rows(rng.standard_normal((b, 16)), "video")[0]
        V = unit_rows(rng.standard_normal((b, 16)), "text")[0]
        if ties:
            # one-hot video rows against text rows rounded to quarters: every
            # cell of S is an exact quarter, so many of them tie
            U = np.eye(16)[np.argmax(U, axis=1)]
            V = np.round(V * 4.0) / 4.0
        experts = [
            expert_margins(unit_rows(rng.standard_normal((b, dim)), "expert")[0], 0.05, 0.04)
            for dim in (16, 16, 24, 20)
        ]
        dense = [m.dense() for m in experts]
        w = np.array([1.0, 0.3, 0.3, 0.7, 0.7])
        for mean_mining in (False, True):
            blocked = kernels.triplet_terms(U, V, [0.05, *experts], w, mean_mining)
            whole = kernels.triplet_terms(U, V, [0.05, *row_sources(dense)], w, mean_mining)
            for k in (0, 2, 3):  # comp and the mined indices
                assert np.array_equal(blocked[k], whole[k])
            for name in type(blocked[1]).__slots__:
                assert np.array_equal(getattr(blocked[1], name), getattr(whole[1], name))


def mined_instance(rng, b, dim=16, scalars="first"):
    """Unit rows, norms, S and a scalar-plus-expert level list of one batch;
    ``scalars="spread"`` makes level 2 a scalar too, between the experts."""
    X, Y = rng.standard_normal((b, dim)), 2.0 * rng.standard_normal((b, dim))
    (U, un), (V, vn) = unit_rows(X, "video"), unit_rows(Y, "text")
    S = kernels.pairwise_cosine(U, V)
    experts = [
        expert_margins(unit_rows(rng.standard_normal((b, 8)), "expert")[0], 0.05, 0.04)
        for _ in range(2)
    ]
    middle = DenseMargins(rng.uniform(-0.1, 0.2, size=(b, b)))
    levels = [0.2, experts[0], 0.1 if scalars == "spread" else middle, experts[1]]
    w = np.array([1.0, 0.6, 0.6, 0.4])
    return U, un, V, vn, S, levels, w


class TestHardestGradient:
    # B = 2 has one negative per anchor, so cell (0, 1) holds both the video
    # entry of anchor 1 and the text entry of anchor 0
    @pytest.mark.parametrize("b", [2, 3, 64, 300])
    @pytest.mark.parametrize("scalars", ["first", "spread"])
    def test_dense_form_is_the_add_at_construction(self, b, scalars):
        rng = np.random.default_rng(400 + b)
        for _ in range(3):
            U, un, V, vn, S, levels, w = mined_instance(rng, b, scalars=scalars)
            # the identity form, whose gradient holds the dense dS
            comp, dS, mined_v, mined_t = kernels.triplet_terms(*dense_rows(S), levels, w, False)
            assert isinstance(dS, kernels.ProjectedGradient)
            rows = np.arange(b)
            # each mined entry's active levels, by a scalar loop over the levels
            dense_levels = [
                np.full((b, b), m) if isinstance(m, float) else getattr(m, "dense", lambda: m)()
                for m in levels
            ]
            active = np.zeros((2, b, len(w)), dtype=bool)
            for i in range(b):
                jv, jt = mined_v[i], mined_t[i]
                for d, (j, s_neg) in enumerate(((jv, S[jv, i]), (jt, S[i, jt]))):
                    active[d, i] = [s_neg - S[i, i] + M[i, j] > 0.0 for M in dense_levels]
            # the entry values: the active levels' weights over b, as one dot
            # product per direction, and against a scalar sum
            g_v, g_t = (np.dot(w, a.astype(np.float64).T) / b for a in active)
            for g, a in ((g_v, active[0]), (g_t, active[1])):
                for i in range(b):
                    want = sum(wk for wk, on in zip(w, a[i]) if on)
                    assert g[i] == pytest.approx(want / b, rel=1e-15, abs=0.0)
            # the dense gradient as it was built before the entry form
            want = np.zeros((b, b))
            np.add.at(want, (mined_v, rows), g_v)
            want[rows, rows] -= g_v
            np.add.at(want, (rows, mined_t), g_t)
            want[rows, rows] -= g_t
            dense = dense_gradient(dS)
            assert dense.shape == (b, b) and dense.dtype == np.float64
            np.testing.assert_array_equal(dense, want)
        if b == 2:
            assert mined_v[1] == 0 and mined_t[0] == 1
            assert dense[0, 1] == g_v[1] + g_t[0]

    @pytest.mark.parametrize("b", [2, 3, 64, 300])
    @pytest.mark.parametrize("scalars", ["first", "spread"])
    def test_backward_matches_the_dense_form(self, b, scalars):
        # the unit rows' gradient through the kernel, against the identity
        # form's dense gradient through the dense reference
        rng = np.random.default_rng(500 + b)
        U, un, V, vn, S, levels, w = mined_instance(rng, b, scalars=scalars)
        _, dS, mined_v, mined_t = kernels.triplet_terms(U, V, levels, w, False)
        want = kernels.triplet_terms(*dense_rows(S), levels, w, False)
        np.testing.assert_array_equal(mined_v, want[2])
        np.testing.assert_array_equal(mined_t, want[3])
        got = kernels.cosine_backward(dS, U, V, un, vn)
        ref = dense_cosine_backward(dense_gradient(want[1]), S, U, V, un, vn)
        for g, d in zip(got, ref):
            assert g.shape == d.shape and g.flags.c_contiguous
            np.testing.assert_allclose(g, d, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("b", [2, 3, 64, 300])
    def test_counts_read_by_the_benchmark_tracer(self, b):
        # the gradient has no cells to count, so it counts as one value
        rng = np.random.default_rng(600 + b)
        U, un, V, vn, S, levels, w = mined_instance(rng, b)
        result = kernels.triplet_terms(U, V, levels, w, False)
        assert result[1].shape == (b, b) and result[1].size == b * b
        assert _count_triplet_terms((), {}, result) == {"dS_nonzero": 1, "dS_entries": b * b}


class TestCosineBackward:
    def test_matches_finite_differences(self):
        # a random dense dS through the dense reference, and through the
        # kernel as the ProjectedGradient of its products
        rng = np.random.default_rng(16)
        for _ in range(10):
            X = rng.standard_normal((4, 3))
            Y = rng.standard_normal((4, 3))
            dS = rng.standard_normal((4, 4))
            U, xn = unit_rows(X, "X")
            V, yn = unit_rows(Y, "Y")
            S = kernels.pairwise_cosine(U, V)
            projected = kernels.ProjectedGradient(
                dS @ V, dS.T @ U, (dS * S).sum(axis=1), (dS * S).sum(axis=0)
            )

            def f_x(flat):
                Xf = flat.reshape(X.shape)
                return float(np.sum(dS * kernels.pairwise_cosine(unit_rows(Xf, "X")[0], V)))

            def f_y(flat):
                Yf = flat.reshape(Y.shape)
                return float(np.sum(dS * kernels.pairwise_cosine(U, unit_rows(Yf, "Y")[0])))

            fd_x = finite_diff_grad(f_x, X.ravel(), h=1e-6).reshape(X.shape)
            fd_y = finite_diff_grad(f_y, Y.ravel(), h=1e-6).reshape(Y.shape)
            for dX, dY in (
                dense_cosine_backward(dS, S, U, V, xn, yn),
                kernels.cosine_backward(projected, U, V, xn, yn),
            ):
                np.testing.assert_allclose(dX, fd_x, atol=1e-6)
                np.testing.assert_allclose(dY, fd_y, atol=1e-6)


def grid_rows(rng, b, dim=16):
    """Rows of multiples of 1/8 in [-1, 1]: every product and partial sum of
    ``U @ V.T`` is exact, so any blocking of the product gives the same bits."""
    return rng.integers(-8, 9, size=(b, dim)) / 8.0


def relative_gap(got, want) -> float:
    """``|got - want| / |want|`` in the Frobenius norm."""
    return float(np.linalg.norm(np.asarray(got - want, dtype=np.float64))
                 / np.linalg.norm(np.asarray(want, dtype=np.float64)))


def dense_projections(dS, S, U, V):
    """``dS @ V``, ``dS.T @ U`` and the row and column sums of ``dS * S``, in
    long double so that their own rounding stays far below the tolerances."""
    L = np.longdouble
    dS, S, U, V = (np.asarray(a).astype(L) for a in (dS, S, U, V))
    return dS @ V, dS.T @ U, (dS * S).sum(axis=1), (dS * S).sum(axis=0)


class TestUnitRows:
    # the unit rows against the identity form of their S; B = 181 is the
    # largest one-block batch, 182 the smallest two-block one; 300 gives
    # blocks of 109 rows and 1024 blocks of 32
    SIZES = [2, 3, 64, 181, 182, 300, 1024]

    @staticmethod
    def levels(rng, b, scalars="first"):
        """A scalar level and two experts' levels, with a second scalar
        between the experts when ``scalars="spread"``."""
        experts = [
            expert_margins(unit_rows(rng.standard_normal((b, 8)), "expert")[0], 0.05, 0.04)
            for _ in range(2)
        ]
        if scalars == "spread":
            return [0.2, experts[0], 0.1, experts[1]], np.array([1.0, 0.6, 0.3, 0.4])
        return [0.2, experts[0], experts[1]], np.array([1.0, 0.6, 0.4])

    @staticmethod
    def assert_projects(dS, dense, S, U, V, rng):
        """``dS`` of the unit rows U and V against ``dense``, the dense
        gradient of their S: its four products to 1e-15 and the raw-row
        gradients of the two forms to 1e-14."""
        b = S.shape[0]
        assert isinstance(dS, kernels.ProjectedGradient)
        assert dS.shape == (b, b) and dS.size == b * b
        got = tuple(getattr(dS, name) for name in PROJECTIONS)
        for g, p in zip(got, dense_projections(dense, S, U, V)):
            assert g.shape == p.shape
            assert relative_gap(g, p) <= 1e-15
        un, vn = rng.uniform(0.5, 2.0, b), rng.uniform(0.5, 2.0, b)
        for g, d in zip(
            kernels.cosine_backward(dS, U, V, un, vn),
            dense_cosine_backward(dense, S, U, V, un, vn),
        ):
            assert g.shape == d.shape
            assert relative_gap(g, d.astype(np.longdouble)) <= 1e-14

    @pytest.mark.parametrize("b", SIZES)
    @pytest.mark.parametrize("scalars", ["first", "spread"])
    def test_hardest_mining_matches_the_dense_matrix_bit_for_bit(self, b, scalars):
        # grid rows make S exact in both forms, so both mine the same entries
        # of the same values: the totals, the indices and the sums of dS * S,
        # which read S's cells, agree bit for bit; dS @ V and dS.T @ U take
        # different rows in the two forms, so they are checked as products
        rng = np.random.default_rng(810 + b)
        U, V = grid_rows(rng, b), grid_rows(rng, b)
        levels, w = self.levels(rng, b, scalars)
        comp, dS, mined_v, mined_t = kernels.triplet_terms(U, V, levels, w, False)
        S = U @ V.T
        want = kernels.triplet_terms(*dense_rows(S), levels, w, False)
        np.testing.assert_array_equal(comp, want[0])
        np.testing.assert_array_equal(mined_v, want[2])
        np.testing.assert_array_equal(mined_t, want[3])
        for name in ("row_sums", "col_sums"):
            np.testing.assert_array_equal(getattr(dS, name), getattr(want[1], name))
        self.assert_projects(dS, dense_gradient(want[1]), S, U, V, rng)

    @pytest.mark.parametrize("b", SIZES)
    def test_hardest_mining_of_unit_rows_moves_only_rounding(self, b):
        # unit rows of random data: a BLAS may round a block's edge cells
        # apart from the whole product's, so S's values may move by an ulp
        rng = np.random.default_rng(820 + b)
        U = unit_rows(rng.standard_normal((b, 16)), "video")[0]
        V = unit_rows(rng.standard_normal((b, 16)), "text")[0]
        levels, w = self.levels(rng, b)
        comp, dS, mined_v, mined_t = kernels.triplet_terms(U, V, levels, w, False)
        S = U @ V.T
        want = kernels.triplet_terms(*dense_rows(S), levels, w, False)
        np.testing.assert_array_equal(mined_v, want[2])
        np.testing.assert_array_equal(mined_t, want[3])
        np.testing.assert_allclose(comp, want[0], rtol=1e-14, atol=0.0)
        self.assert_projects(dS, dense_gradient(want[1]), S, U, V, rng)

    @pytest.mark.parametrize("b", SIZES)
    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("scalars", ["first", "spread"])
    def test_mean_mining_projects_the_dense_gradient(self, b, grid, scalars):
        rng = np.random.default_rng(830 + b + 7 * grid)
        if grid:
            U, V = grid_rows(rng, b), grid_rows(rng, b)
        else:
            U = unit_rows(rng.standard_normal((b, 16)), "video")[0]
            V = unit_rows(2.0 * rng.standard_normal((b, 16)), "text")[0]
        levels, w = self.levels(rng, b, scalars)
        comp, dS, mined_v, mined_t = kernels.triplet_terms(U, V, levels, w, True)
        S = U @ V.T
        want = kernels.triplet_terms(*dense_rows(S), levels, w, True)
        if grid:
            np.testing.assert_array_equal(comp, want[0])
        else:
            np.testing.assert_allclose(comp, want[0], rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(mined_v, want[2])
        np.testing.assert_array_equal(mined_t, want[3])
        self.assert_projects(dS, dense_gradient(want[1]), S, U, V, rng)

    @pytest.mark.parametrize("mean_mining", [False, True])
    def test_counts_read_by_the_benchmark_tracer(self, mean_mining):
        # the tracer's np.count_nonzero must not raise on the gradient; it has
        # no cells to count, so it counts as one value under either mining
        b = 64
        rng = np.random.default_rng(840)
        U = unit_rows(rng.standard_normal((b, 16)), "video")[0]
        V = unit_rows(rng.standard_normal((b, 16)), "text")[0]
        levels, w = self.levels(rng, b)
        result = kernels.triplet_terms(U, V, levels, w, mean_mining)
        assert _count_triplet_terms((), {}, result) == {"dS_nonzero": 1, "dS_entries": b * b}
