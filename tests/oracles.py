"""Independent brute-force oracles used across the test suite.

Everything here is deliberately written with scalar loops and the small
mathcore primitives only, so it shares no code path with the vectorized /
compiled implementations it checks.
"""

import numpy as np

from marginforge.mathcore import cosine_similarity


def brute_force_similarity(video_reprs, text_reprs):
    b = len(video_reprs)
    S = np.empty((b, b))
    for i in range(b):
        for j in range(b):
            S[i, j] = cosine_similarity(video_reprs[i], text_reprs[j])
    return S


def combined_term(S, margin_mats, weights, i, j, direction):
    """Weighted per-negative term: sum_k w_k * [s_neg - s_pos + m_k(i,j)]_+."""
    s_neg = S[j, i] if direction == "v" else S[i, j]
    s_pos = S[i, i]
    total = 0.0
    for m, w in zip(margin_mats, weights):
        total += w * max(0.0, s_neg - s_pos + m[i, j])
    return total


def brute_force_full_loss(S, margin_mats, weights, mining):
    """Exhaustive enumeration of the mined objective.

    margin_mats[0] must be the constant hard-margin matrix with weight 1.
    Returns (total, per_level_totals, mined_v, mined_t).
    """
    b = S.shape[0]
    K = len(margin_mats)
    per_level = np.zeros(K)
    mined_v = np.zeros(b, dtype=int)
    mined_t = np.zeros(b, dtype=int)
    for i in range(b):
        for direction, mined in (("v", mined_v), ("t", mined_t)):
            negatives = [j for j in range(b) if j != i]
            if mining == "hardest":
                crit = [combined_term(S, margin_mats, weights, i, j, direction) for j in negatives]
                best = negatives[int(np.argmax(crit))]
                mined[i] = best
                chosen = [best]
                scale = 1.0
            else:
                chosen = negatives
                scale = 1.0 / len(negatives)
                crit = [combined_term(S, margin_mats, weights, i, j, direction) for j in negatives]
                mined[i] = negatives[int(np.argmax(crit))]
            for j in chosen:
                s_neg = S[j, i] if direction == "v" else S[i, j]
                s_pos = S[i, i]
                for k in range(K):
                    per_level[k] += scale * max(0.0, s_neg - s_pos + margin_mats[k][i, j])
    per_level /= b
    total = float(np.dot(weights, per_level))
    return total, per_level, mined_v, mined_t


def loss_at_frozen_selection(S, margin_mats, weights, mined_v, mined_t):
    """Objective value with the mined negatives held fixed (for FD oracles)."""
    b = S.shape[0]
    total = 0.0
    for i in range(b):
        total += combined_term(S, margin_mats, weights, i, int(mined_v[i]), "v")
        total += combined_term(S, margin_mats, weights, i, int(mined_t[i]), "t")
    return total / b


def mean_loss_all_negatives(S, margin_mats, weights):
    """Mean-mining objective with no selection at all (for FD oracles)."""
    b = S.shape[0]
    total = 0.0
    for i in range(b):
        for direction in ("v", "t"):
            for j in range(b):
                if j != i:
                    total += combined_term(S, margin_mats, weights, i, j, direction) / (b - 1)
    return total / b


def rank_by_stable_sort(scores, positive_index):
    """Rank via descending stable sort, ties ordered by original index."""
    order = sorted(range(len(scores)), key=lambda k: (-scores[k], k))
    return order.index(positive_index) + 1
