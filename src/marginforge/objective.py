"""Triplet ranking objectives: hard margin, adaptive soft margins, and the
full distillation blend with in-batch negative mining.

Conventions. ``S`` is the B x B similarity matrix with ``S[i, j]`` the cosine
between video i and text j; positives sit on the diagonal. For anchor pair i,
direction "v" ranks negative videos (pairs ``(v_j, t_i)``, scores ``S[j, i]``)
and direction "t" ranks negative texts (pairs ``(v_i, t_j)``, scores
``S[i, j]``).

The full objective blends, per negative pair, the hard hinge with soft hinges
whose margins come from dynamic (live encoder) and static (frozen embedding)
supervision experts:

    hard + lambda * soft_dse + (1 - lambda) * soft_sse

A soft slot is the sum of its video-domain and text-domain hinge; if only one
expert of a slot is enabled its weight doubles so the slot keeps its mass,
and a fully disabled slot contributes zero. Margins are always treated as
constants: no gradient flows through expert distances, even dynamic ones.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import EmptyInputError, LambdaOutOfRangeError, ShapeMismatchError
from .margin import matrix_values
from .mathcore import unit_rows
from .model import ForwardState, TwoTowerModel, backward

MININGS = ("hardest", "mean")
MINING_CRITERIA = ("combined", "hard_only")


@dataclass(frozen=True)
class LossBreakdown:
    """Mined loss total and its weighted components.

    ``total = hard_term + dse_term + sse_term`` where the expert terms
    already carry their lambda / (1 - lambda) weights; ``neg_video_idx`` and
    ``neg_text_idx`` hold the selected negative per anchor for the two
    directions (argmax of the combined per-negative term even under mean
    mining, where the loss itself averages over all negatives).
    """

    total: float
    hard_term: float
    dse_term: float
    sse_term: float
    lambda_used: float
    neg_video_idx: np.ndarray
    neg_text_idx: np.ndarray


def similarity_matrix(video_reprs, text_reprs) -> np.ndarray:
    """Pairwise cosine between aligned batches of raw video and text vectors.

    The entry point for raw representations; a training step instead reads
    the unit rows that ``forward_batch`` already formed.
    """
    V = np.atleast_2d(np.asarray(video_reprs, dtype=np.float64))
    T = np.atleast_2d(np.asarray(text_reprs, dtype=np.float64))
    if V.shape[0] != T.shape[0]:
        raise ShapeMismatchError(f"batch sizes differ: {V.shape[0]} vs {T.shape[0]}")
    return kernels.pairwise_cosine(unit_rows(V, "video")[0], unit_rows(T, "text")[0])


def _check_square(S) -> np.ndarray:
    S = matrix_values(S)
    if S.shape[0] < 2:
        raise EmptyInputError("need a batch of at least two pairs")
    return S


def _margin_levels(B, m_dse_video, m_dse_text, m_sse_video, m_sse_text, alpha, lam):
    """Margin levels (the scalar alpha, then B x B matrices) with weights and slot index ranges."""
    levels = [alpha]
    weights = [1.0]
    slots = {}
    for slot, lam_weight, pair in (
        ("dse", lam, (m_dse_video, m_dse_text)),
        ("sse", 1.0 - lam, (m_sse_video, m_sse_text)),
    ):
        enabled = [m for m in pair if m is not None]
        start = len(levels)
        renorm = 2.0 / len(enabled) if enabled else 0.0
        for m in enabled:
            vals = matrix_values(m)
            if vals.shape != (B, B):
                raise ShapeMismatchError(f"{slot} margin shape {vals.shape} != ({B}, {B})")
            levels.append(vals)
            weights.append(lam_weight * renorm)
        slots[slot] = range(start, len(levels))
    return levels, np.array(weights), slots


def _run(S, m_dse_video, m_dse_text, m_sse_video, m_sse_text, alpha, lam, mining, mining_criterion):
    S = _check_square(S)
    if not 0.0 <= lam <= 1.0:
        raise LambdaOutOfRangeError(f"lambda must be in [0, 1], got {lam}")
    if mining not in MININGS:
        raise ValueError(f"mining must be one of {MININGS}, got {mining!r}")
    if mining_criterion not in MINING_CRITERIA:
        raise ValueError(f"mining_criterion must be one of {MINING_CRITERIA}, got {mining_criterion!r}")
    B = S.shape[0]
    M, w, slots = _margin_levels(B, m_dse_video, m_dse_text, m_sse_video, m_sse_text, alpha, lam)
    comp, dS, mined_v, mined_t = kernels.triplet_terms(
        S, M, w, mining == "mean", mining_criterion == "hard_only"
    )
    weighted = w * comp
    breakdown = LossBreakdown(
        total=float(weighted.sum()),
        hard_term=float(weighted[0]),
        dse_term=float(weighted[list(slots["dse"])].sum()),
        sse_term=float(weighted[list(slots["sse"])].sum()),
        lambda_used=lam,
        neg_video_idx=mined_v,
        neg_text_idx=mined_t,
    )
    return breakdown, dS


def hard_triplet_loss(S, alpha: float, mining: str = "hardest") -> LossBreakdown:
    """Fixed-margin triplet ranking loss over both retrieval directions."""
    breakdown, _ = _run(S, None, None, None, None, alpha, 0.0, mining, "combined")
    return breakdown


def full_loss(
    S,
    m_dse_video,
    m_dse_text,
    m_sse_video,
    m_sse_text,
    alpha: float,
    lam: float,
    mining: str = "hardest",
    mining_criterion: str = "combined",
) -> LossBreakdown:
    """Hard hinge plus lambda-blended DSE/SSE soft hinges, mined per anchor.

    Pass ``None`` for a disabled expert's margin matrix; the remaining expert
    of that slot is reweighted to keep the slot's mass.
    """
    breakdown, _ = _run(
        S, m_dse_video, m_dse_text, m_sse_video, m_sse_text, alpha, lam, mining, mining_criterion
    )
    return breakdown


def full_loss_grad(
    model: TwoTowerModel,
    state: ForwardState,
    m_dse_video,
    m_dse_text,
    m_sse_video,
    m_sse_text,
    alpha: float,
    lam: float,
    mining: str = "hardest",
    mining_criterion: str = "combined",
) -> tuple[LossBreakdown, dict]:
    """Loss breakdown plus exact parameter gradients.

    Margins are constants and mined indices fixed selections (subgradient at
    ties), so the gradient flows only through the similarity matrix.
    """
    uv, ut = state.video_units, state.text_units
    S = kernels.pairwise_cosine(uv, ut)
    breakdown, dS = _run(
        S, m_dse_video, m_dse_text, m_sse_video, m_sse_text, alpha, lam, mining, mining_criterion
    )
    d_video, d_text = kernels.cosine_backward(dS, uv, ut, state.video_norms, state.text_norms, S)
    grads = backward(model, state, d_video, d_text)
    return breakdown, grads
