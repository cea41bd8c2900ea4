"""Adaptive margins: an expert's batch distances -> per-pair margins.

The off-diagonal cosine distances ``1 - U @ U.T`` of an expert's unit rows
are affinely remapped so their sample mean equals the hard margin ``mu`` and
their population variance equals ``U(beta)``, the variance of a normal that
holds 90% of its mass within ``mu +- beta``. The map is strictly increasing,
so more distant (less similar) negative pairs always receive larger margins;
outputs may go negative by design. Margins are plain B x B float64 arrays.

``expert_margins`` is the one margin path: it takes the distance statistics
from Gram sums (D x D work) instead of a pass over a B x B distance matrix,
and ``affine`` turns them into the map. ``U(beta)`` has the closed form
``(beta / z)^2`` with ``z`` the 95% standard normal quantile.
"""

import math
from statistics import NormalDist

import numpy as np

from . import kernels
from .errors import EmptyInputError

CONFIDENCE = 0.90
# off-diagonal variances at or below this count as a constant batch
VAR_FLOOR = 1e-12
# z with Phi(z) - Phi(-z) = CONFIDENCE
_Z = NormalDist().inv_cdf(0.5 + CONFIDENCE / 2)


def beta_to_variance(beta: float) -> float:
    """Variance of a normal whose central 90% interval has half-width beta."""
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    return (beta / _Z) ** 2


def affine(mean: float, var: float, mu: float, beta: float) -> tuple[float, float]:
    """``(scale, offset)`` of the map ``x -> scale * x + offset`` that takes
    values of this mean and variance to mean mu and variance U(beta).

    A variance at or below ``VAR_FLOOR`` is a constant batch, which falls
    back to the hard margin: the map is then ``(0.0, mu)``. A negative
    ``beta`` raises ``ValueError``.
    """
    target = beta_to_variance(beta)
    if var > VAR_FLOOR:
        scale = math.sqrt(target / var)
        return scale, mu - scale * mean
    return 0.0, mu


def expert_margins(U: np.ndarray, mu: float, beta: float) -> np.ndarray:
    """Adaptive margins of the cosine distances between unit rows ``U``.

    The off-diagonal mean and variance of ``g = U @ U.T`` come from Gram
    sums: with ``s = U.sum(0)``, squared row norms ``q`` and ``C = U.T @ U``,
    the off-diagonal entries sum to ``s.s - sum(q)`` and their squares to
    ``|C|_F^2 - q.q``. Distances ``1 - g`` have the variance of ``g`` and the
    mean of ``-g`` up to the constant 1, which the map's offset absorbs, so
    the margins are ``-scale * g + offset`` with ``(scale, offset)`` from
    ``affine(-mean(g), var(g), mu, beta)``. They are formed in place in the
    exactly symmetric ``kernels.pairwise_cosine(U, U)``; the diagonal is mu.

    The variance is a difference of raw moments, so its rounding error is
    about eps * (1/B + mean(g)^2) / var(g) relative: tiny for the batch
    sizes and spreads of training, but a B = 3 batch whose off-diagonal
    variance is 1.5e-4 can move a margin by ~5e-15.
    """
    b = U.shape[0]
    if b < 2:
        raise EmptyInputError("need at least two items for pairwise distances")
    n = b * (b - 1)
    s = U.sum(axis=0)
    q = np.einsum("ij,ij->i", U, U)
    C = U.T @ U
    mean = (s @ s - q.sum()) / n
    var = (np.einsum("ij,ij->", C, C) - q @ q) / n - mean * mean
    scale, offset = affine(-mean, var, mu, beta)
    G = kernels.pairwise_cosine(U, U)
    G *= -scale
    G += offset
    G.reshape(-1)[:: b + 1] = mu
    return G
