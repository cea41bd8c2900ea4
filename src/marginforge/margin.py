"""Adaptive margins: an expert's batch distances -> per-pair margins.

The off-diagonal cosine distances ``1 - U @ U.T`` of an expert's unit rows
are affinely remapped so their sample mean equals the hard margin ``mu`` and
their population variance equals ``U(beta)``, the variance of a normal that
holds 90% of its mass within ``mu +- beta``. The map is strictly increasing,
so more distant (less similar) negative pairs always receive larger margins;
outputs may go negative by design.

``expert_margins`` is the one margin path: it takes the distance statistics
from Gram sums (D x D work) instead of a pass over a B x B distance matrix,
and ``affine`` turns them into the map. ``U(beta)`` has the closed form
``(beta / z)^2`` with ``z`` the 95% standard normal quantile. The margins
themselves are an ``ExpertMargins``: the unit rows and the map. As a margin
level (``objective._margin_levels``) it gives ``kernels.triplet_terms`` its
product rows ``units[r0:r1] @ units.T``, one block of anchor rows at a time,
the map ``g * -scale + offset`` and a closed-form ``bound`` on its
off-diagonal margins, so a training step never holds an expert's B x B
margins, and the pruned hardest mining maps only the cells it scores.
``rows`` gives a block of mapped rows and ``dense()`` the whole matrix.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import EmptyInputError

CONFIDENCE = 0.90
# off-diagonal variances at or below this count as a constant batch
VAR_FLOOR = 1e-12
# z with Phi(z) - Phi(-z) = CONFIDENCE
_Z = NormalDist().inv_cdf(0.5 + CONFIDENCE / 2)
# float64 machine epsilon, looked up once rather than per ``bound``
_EPS = float(np.finfo(np.float64).eps)


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


@dataclass(frozen=True, eq=False)
class ExpertMargins:
    """An expert's B x B margins ``-scale * (units @ units.T) + offset``,
    with ``mu`` on the diagonal, kept as their (B, D) unit rows and map.

    A margin level of the loss: ``products`` writes rows of ``g = units @
    units.T``, whose margins are ``g * -scale + offset``, and ``bound`` is at
    least every off-diagonal margin. The diagonal is the anchors' own cells,
    which no hinge reads.
    """

    units: np.ndarray
    scale: float
    offset: float
    mu: float

    @property
    def shape(self) -> tuple[int, int]:
        b = self.units.shape[0]
        return b, b

    @property
    def bound(self) -> float:
        """``offset + scale * (1 + slack)``, at least every off-diagonal margin.

        A product of two unit rows is at least -1 less rounding: the dot
        product's sum and each row's normalisation round, together by less
        than (2D + 8) ulps of 1. ``scale`` is nonnegative and rounding is
        monotone, so no mapped product exceeds this bound. In the
        ``VAR_FLOOR`` fallback and at beta = 0 the scale is 0 and the bound
        is ``mu``.
        """
        slack = (2 * self.units.shape[1] + 8) * _EPS
        return self.offset + self.scale * (1.0 + slack)

    def products(self, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
        """Write rows ``r0:r1`` of ``units @ units.T`` into the C-contiguous
        (r1 - r0, B) ``out``.

        The product is formed as ``units[r0:r1] @ units.T``: for the whole
        matrix numpy takes its exactly symmetric self product, for a strict
        row block a general one.
        """
        U = self.units
        return np.matmul(U[r0:r1], U.T, out=out)

    def rows(self, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
        """Write margin rows ``r0:r1`` into the C-contiguous (r1 - r0, B) ``out``:
        the product rows, mapped, with ``mu`` on the diagonal."""
        self.products(r0, r1, out)
        out *= -self.scale
        out += self.offset
        # the block's own diagonal: (i - r0, i) for i in [r0, r1)
        out.reshape(-1)[r0 :: self.units.shape[0] + 1] = self.mu
        return out

    def dense(self) -> np.ndarray:
        """The whole B x B margin matrix."""
        b = self.units.shape[0]
        return self.rows(0, b, np.empty((b, b)))


def expert_margins(U: np.ndarray, mu: float, beta: float) -> ExpertMargins:
    """Adaptive margins of the cosine distances between unit rows ``U``.

    The off-diagonal mean and variance of ``g = U @ U.T`` come from Gram
    sums: with ``s = U.sum(0)``, squared row norms ``q`` and ``C = U.T @ U``,
    the off-diagonal entries sum to ``s.s - sum(q)`` and their squares to
    ``|C|_F^2 - q.q``. Distances ``1 - g`` have the variance of ``g`` and the
    mean of ``-g`` up to the constant 1, which the map's offset absorbs, so
    the margins are ``-scale * g + offset`` with ``(scale, offset)`` from
    ``affine(-mean(g), var(g), mu, beta)``, and mu on the diagonal. No B x B
    array is formed here: the result holds ``U`` and the map.

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
    return ExpertMargins(U, scale, offset, mu)
