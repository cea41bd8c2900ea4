import numpy as np
import pytest

from marginforge.errors import EmptyInputError, IndexOutOfRangeError, NonSquareError
from marginforge.evaluation import (
    evaluate_bidirectional,
    median_rank,
    metrics_csv_text,
    recall_at_k,
)
from helpers import rank_of_positive
from oracles import rank_by_stable_sort


class TestRankOfPositive:
    def test_unique_max(self):
        assert rank_of_positive([0.1, 0.9, 0.3], 1) == 1

    def test_tie_broken_by_index(self):
        assert rank_of_positive([0.5, 0.5, 0.3], 1) == 2
        assert rank_of_positive([0.5, 0.5, 0.3], 0) == 1

    def test_unique_min(self):
        scores = [7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
        assert rank_of_positive(scores, 6) == 7

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            rank_of_positive([0.1, 0.2], 2)

    def test_matches_stable_sort_oracle(self):
        rng = np.random.default_rng(70)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            # quantized scores force frequent ties
            scores = rng.integers(0, 4, size=n) / 3.0
            pos = int(rng.integers(0, n))
            assert rank_of_positive(scores, pos) == rank_by_stable_sort(list(scores), pos)


class TestRecallAtK:
    def test_all_rank_one(self):
        assert recall_at_k([1, 1, 1], 1) == 100.0

    def test_counting(self):
        ranks = [1, 3, 4, 10]
        assert recall_at_k(ranks, 1) == 25.0
        assert recall_at_k(ranks, 5) == 75.0
        assert recall_at_k(ranks, 10) == 100.0

    def test_k_beyond_max(self):
        assert recall_at_k([2, 5, 9], 100) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            recall_at_k([], 1)


class TestMedianRank:
    def test_odd(self):
        assert median_rank([1, 1, 1]) == 1.0

    def test_even_averages_middle(self):
        assert median_rank([1, 3, 4, 10]) == 3.5

    def test_singleton(self):
        assert median_rank([7]) == 7.0


class TestEvaluateBidirectional:
    def test_dominant_diagonal(self):
        S = np.full((4, 4), 0.1) + 0.8 * np.eye(4)
        t2v, v2t, rsum = evaluate_bidirectional(S, ks=(1, 5, 10))
        assert t2v.r_at[1] == 100.0 and v2t.r_at[1] == 100.0
        assert rsum == 100.0 * 3 * 2

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            S = rng.integers(0, 5, size=(n, n)) / 4.0
            t2v, v2t, _ = evaluate_bidirectional(S, ks=(1, 2))
            for i in range(n):
                assert t2v.ranks[i] == rank_by_stable_sort(list(S[:, i]), i)
                assert v2t.ranks[i] == rank_by_stable_sort(list(S[i, :]), i)

    @pytest.mark.parametrize("n", [1, 2, 5, 102])
    def test_matches_scalar_rank_on_ties(self, n):
        # one decimal leaves few distinct scores, so most queries meet ties
        rng = np.random.default_rng(75 + n)
        S = np.round(rng.uniform(-1, 1, size=(n, n)), 1)
        t2v, v2t, _ = evaluate_bidirectional(S)
        assert t2v.ranks.tolist() == [rank_of_positive(S[:, i], i) for i in range(n)]
        assert v2t.ranks.tolist() == [rank_of_positive(S[i, :], i) for i in range(n)]

    @pytest.mark.parametrize("case", ["all-equal", "tie-below-diagonal", "tie-free-819"])
    def test_tie_cases_match_both_references(self, case):
        rng = np.random.default_rng(76)
        if case == "all-equal":
            # every query ties with every item: rank 1 + its index
            S = np.full((7, 7), 0.25)
        elif case == "tie-below-diagonal":
            # column 1's only tie lies below the diagonal and row 2's only tie
            # right of it, so neither counts; column 3's lies above it, and does
            S = rng.standard_normal((6, 6))
            S[4, 1] = S[1, 1]
            S[2, 5] = S[2, 2]
            S[0, 3] = S[3, 3]
        else:
            # ingest-eval's val split size; cosines of random unit rows
            U, V = (rng.standard_normal((819, 16)) for _ in range(2))
            U /= np.linalg.norm(U, axis=1)[:, None]
            V /= np.linalg.norm(V, axis=1)[:, None]
            S = U @ V.T
            pos = np.diag(S)
            assert (S == pos).sum(axis=0).max() == 1 == (S == pos[:, None]).sum(axis=1).max()
        t2v, v2t, _ = evaluate_bidirectional(S)
        n = S.shape[0]
        assert t2v.ranks.tolist() == [rank_of_positive(S[:, i], i) for i in range(n)]
        assert v2t.ranks.tolist() == [rank_of_positive(S[i, :], i) for i in range(n)]
        assert t2v.ranks.tolist() == [rank_by_stable_sort(S[:, i].tolist(), i) for i in range(n)]
        assert v2t.ranks.tolist() == [rank_by_stable_sort(S[i, :].tolist(), i) for i in range(n)]
        if case == "all-equal":
            assert t2v.ranks.tolist() == v2t.ranks.tolist() == list(range(1, n + 1))

    def test_transpose_swaps_directions(self):
        rng = np.random.default_rng(72)
        S = rng.standard_normal((5, 5))
        t2v_a, v2t_a, rsum_a = evaluate_bidirectional(S)
        t2v_b, v2t_b, rsum_b = evaluate_bidirectional(S.T)
        np.testing.assert_array_equal(t2v_a.ranks, v2t_b.ranks)
        np.testing.assert_array_equal(v2t_a.ranks, t2v_b.ranks)
        assert rsum_a == rsum_b

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(73)
        S = rng.uniform(-1, 1, size=(6, 6))
        a = evaluate_bidirectional(S)
        b = evaluate_bidirectional(np.exp(3.0 * S))
        np.testing.assert_array_equal(a[0].ranks, b[0].ranks)
        np.testing.assert_array_equal(a[1].ranks, b[1].ranks)
        assert a[2] == b[2]

    def test_r_at_k_monotone_and_saturating(self):
        rng = np.random.default_rng(74)
        S = rng.standard_normal((7, 7))
        t2v, v2t, _ = evaluate_bidirectional(S, ks=(1, 3, 7))
        for rep in (t2v, v2t):
            vals = [rep.r_at[k] for k in sorted(rep.r_at)]
            assert vals == sorted(vals)
            assert rep.r_at[7] == 100.0

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            evaluate_bidirectional(np.zeros((3, 4)))


class TestMetricsCsv:
    def test_format(self):
        S = np.full((4, 4), 0.1) + 0.8 * np.eye(4)
        t2v, v2t, rsum = evaluate_bidirectional(S, ks=(1, 5, 10))
        text = metrics_csv_text(t2v, v2t, rsum)
        lines = text.strip().split("\n")
        assert lines[0] == "direction,R1,R5,R10,MdR"
        assert lines[1].startswith("text_to_video,100.0000,")
        assert lines[2].startswith("video_to_text,100.0000,")
        assert lines[3] == "rsum,600.0000"
