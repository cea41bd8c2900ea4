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

The expert margins come as one mapping ``{expert kind: margins}`` that holds
only the enabled experts; an empty mapping gives the hard triplet loss. Each
value is a row source such as ``margin.ExpertMargins`` (``_margin_levels``
states the contract), which ``kernels.triplet_terms`` forms one block of
anchor rows at a time. A soft slot is the sum of its video-domain and
text-domain hinge; if only one expert of a slot is enabled its weight
doubles so the slot keeps its mass, and a fully disabled slot contributes
zero. ``slot_weights`` states the two slot weights; a slot whose weight is
exactly 0 (the DSE slot at lambda = 0, the SSE slot at lambda = 1) is
dropped from the levels after its margins are validated, which changes no
output bit: its hinges would be multiplied by 0 before they reach the mining
criterion, the loss or ``dS``, and the other slot's renormalisation does not
depend on it. ``weighted_experts`` names the experts that remain, so the
trainer builds margins for those only. Margins are always treated as
constants: no gradient flows through expert distances, even dynamic ones.

``full_loss_grad`` is the one entry: it hands ``kernels.triplet_terms`` the
unit rows of the forward pass, from which ``S`` is formed one block of
anchor rows at a time and never whole, and returns the loss breakdown and
the parameter gradients. The gradient w.r.t. ``S`` passes from
``kernels.triplet_terms`` to ``kernels.cosine_backward`` as it comes, with
the same unit rows: a ``kernels.ProjectedGradient`` of B x D values, for
either mining.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import EmptyInputError, LambdaOutOfRangeError, NonSquareError, ShapeMismatchError
from .model import ForwardState, ParamVector, TwoTowerModel, backward

MININGS = ("hardest", "mean")


@dataclass(frozen=True)
class LossBreakdown:
    """Mined loss total and its weighted components.

    ``total = hard_term + dse_term + sse_term`` where the expert terms
    already carry their lambda / (1 - lambda) weights; ``neg_video_idx`` and
    ``neg_text_idx`` hold the selected negative per anchor for the two
    directions (argmax of the combined per-negative term, even under mean
    mining, where the loss itself averages over all negatives).
    """

    total: float
    hard_term: float
    dse_term: float
    sse_term: float
    lambda_used: float
    neg_video_idx: np.ndarray
    neg_text_idx: np.ndarray


SLOT_EXPERTS = {"dse": ("dse_video", "dse_text"), "sse": ("sse_video", "sse_text")}
EXPERT_KINDS = tuple(kind for members in SLOT_EXPERTS.values() for kind in members)


def slot_weights(lam: float) -> dict:
    """``{slot: weight}`` of the two soft slots: lambda for DSE, 1 - lambda for SSE."""
    return {"dse": lam, "sse": 1.0 - lam}


def weighted_experts(kinds, lam: float) -> list:
    """The expert kinds of ``kinds`` whose slot weight at ``lam`` is not 0,
    in ``SLOT_EXPERTS`` order: the experts whose margins reach the loss."""
    weights = slot_weights(lam)
    return [
        kind
        for slot, members in SLOT_EXPERTS.items()
        if weights[slot] != 0.0
        for kind in members
        if kind in kinds
    ]


def _margin_levels(B, margins, alpha, lam):
    """Margin levels (the scalar alpha, then the experts' margins) with
    weights and slot index ranges.

    A margin level is a float or a row source. A row source's ``shape`` is
    (B, B), and its B x B margins, off the diagonal that no hinge reads, are
    its products under an elementwise affine map, with a bound:

    * ``products(r0, r1, out)`` writes rows ``r0:r1`` of its B x B products
      ``g`` into the C-contiguous (r1 - r0, B) float64 ``out`` and returns
      ``out``;
    * ``scale`` and ``offset`` are floats, and the margin of a cell is
      ``g * -scale + offset``, two roundings, whether the map is applied to
      a whole block or to some of its cells;
    * ``bound`` is a float at least every off-diagonal margin; a looser
      bound only lets pruned mining score more cells.

    ``margin.ExpertMargins`` is the one the trainer builds; any other object
    that keeps the contract reaches the loss the same way, and one whose
    margins are no affine map of a product gives its margin rows as the
    products, ``scale`` -1 and ``offset`` 0. Every given margin is checked
    for its kind, for being a row source (``TypeError`` naming the kind
    otherwise) and for its shape first; then a slot whose weight is exactly
    0 is left out, so its index range is empty.
    """
    unknown = sorted(set(margins) - set(EXPERT_KINDS))
    if unknown:
        raise ValueError(f"unknown expert kinds {unknown}; expected some of {EXPERT_KINDS}")
    enabled = {}
    for slot, members in SLOT_EXPERTS.items():
        enabled[slot] = []
        for kind in members:
            if kind not in margins:
                continue
            m = margins[kind]
            if not (
                callable(getattr(m, "products", None))
                and all(hasattr(m, name) for name in ("shape", "scale", "offset", "bound"))
            ):
                raise TypeError(
                    f"{kind} margins must be a row source with shape, "
                    f"products(r0, r1, out), scale, offset and bound, got {type(m).__name__}"
                )
            if m.shape != (B, B):
                raise ShapeMismatchError(f"{slot} margin shape {m.shape} != ({B}, {B})")
            enabled[slot].append(m)
    levels = [alpha]
    weights = [1.0]
    slots = {}
    for slot, weight in slot_weights(lam).items():
        start = len(levels)
        if weight != 0.0:
            renorm = 2.0 / len(enabled[slot]) if enabled[slot] else 0.0
            levels.extend(enabled[slot])
            weights.extend([weight * renorm] * len(enabled[slot]))
        slots[slot] = range(start, len(levels))
    return levels, np.array(weights), slots


def _run(U, V, margins, alpha, lam, mining):
    """Loss breakdown and ``dS`` of ``S = U @ V.T``, given the unit rows U of
    the videos and V of the texts."""
    shape = (U.shape[0], V.shape[0])
    if shape[0] != shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {shape}")
    if shape[0] < 2:
        raise EmptyInputError("need a batch of at least two pairs")
    if not 0.0 <= lam <= 1.0:
        raise LambdaOutOfRangeError(f"lambda must be in [0, 1], got {lam}")
    if mining not in MININGS:
        raise ValueError(f"mining must be one of {MININGS}, got {mining!r}")
    B = shape[0]
    M, w, slots = _margin_levels(B, margins, alpha, lam)
    comp, dS, mined_v, mined_t = kernels.triplet_terms(U, V, M, w, mining == "mean")
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


def full_loss_grad(
    model: TwoTowerModel,
    state: ForwardState,
    margins: dict,
    alpha: float,
    lam: float,
    mining: str = "hardest",
) -> tuple[LossBreakdown, ParamVector]:
    """Hard hinge plus lambda-blended DSE/SSE soft hinges, mined per anchor,
    with exact parameter gradients.

    ``margins`` maps each enabled expert kind to its margins, so ``{}`` is
    the hard triplet loss; a slot's remaining expert is reweighted to keep
    the slot's mass. A key outside ``EXPERT_KINDS`` raises ``ValueError``.
    Margins are constants and mined indices fixed selections (subgradient at
    ties), so the gradient flows only through the similarity matrix.
    """
    uv, ut = state.video_units, state.text_units
    breakdown, dS = _run(uv, ut, margins, alpha, lam, mining)
    d_video, d_text = kernels.cosine_backward(dS, uv, ut, state.video_norms, state.text_norms)
    grads = backward(model, state, d_video, d_text)
    return breakdown, grads
