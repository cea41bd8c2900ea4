"""Rescale function: expert distances -> adaptive margins.

Off-diagonal distances of a batch are affinely remapped so their sample mean
equals the hard margin ``mu`` and their population variance equals the value
``U(beta)`` for which a normal holds 90% of its mass within ``mu +- beta``.
The map is strictly increasing, so more distant (less similar) negative pairs
always receive larger margins; outputs may go negative by design. Distances
and margins are plain B x B float64 arrays.

``affine`` turns a batch's statistics into the map. ``rescale_margins``
applies it to any square distance array; ``expert_margins`` builds an
expert's margins straight from its unit rows, with the statistics of the
cosine distances taken from Gram sums (D x D work) instead of a pass over a
B x B distance matrix.
"""

import math
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import EmptyInputError, NonSquareError
from .mathcore import normal_cdf

CONFIDENCE = 0.90
# off-diagonal variances at or below this count as a constant batch
VAR_FLOOR = 1e-12
_BISECT_TOL = 1e-10
_BISECT_MAX_ITERS = 200


def matrix_values(d) -> np.ndarray:
    """``d`` as a float64 array, which must be square."""
    vals = np.asarray(d, dtype=np.float64)
    if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {vals.shape}")
    return vals


def batch_stats(d) -> tuple[float, float]:
    """Mean and population variance of the off-diagonal entries.

    Works for any square matrix, symmetric or not, with any diagonal. The
    mean is the full sum less the trace; the variance is the pairwise sum of
    the squared deviations, squared in place in one B x B temporary whose
    diagonal is zeroed, so no mask or gathered copy of the off-diagonal
    entries is made.
    """
    vals = matrix_values(d)
    b = vals.shape[0]
    if b < 2:
        raise EmptyInputError("batch statistics need at least two items")
    n = b * (b - 1)
    mean = (vals.sum() - np.trace(vals)) / n
    dev = vals - mean
    np.fill_diagonal(dev, 0.0)
    dev *= dev
    return float(mean), float(dev.sum()) / n


@lru_cache(maxsize=None)
def beta_to_variance(beta: float) -> float:
    """Variance of a normal whose central 90% interval has half-width beta.

    Found by bisection on the standard deviation: the bracket [beta/10,
    10*beta] comfortably contains beta / z where Phi(z) = 0.95 (z ~ 1.645).
    """
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if beta == 0.0:
        return 0.0
    lo, hi = beta / 10.0, beta * 10.0
    sigma = 0.5 * (lo + hi)
    for _ in range(_BISECT_MAX_ITERS):
        sigma = 0.5 * (lo + hi)
        mass = normal_cdf(beta / sigma) - normal_cdf(-beta / sigma)
        if abs(mass - CONFIDENCE) < _BISECT_TOL:
            break
        if mass > CONFIDENCE:
            lo = sigma  # too much mass inside: sigma is too small
        else:
            hi = sigma
    return sigma * sigma


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


def rescale_margins(d, mu: float, beta: float) -> np.ndarray:
    """Map square distances to a new margin array: off-diagonal mean mu, variance U(beta).

    A negative ``beta`` raises ``ValueError``. Zero-variance batches (all
    off-diagonal distances equal) fall back to the hard margin everywhere;
    the diagonal is always set to mu and is unused downstream.
    """
    vals = matrix_values(d)
    scale, offset = affine(*batch_stats(vals), mu, beta)
    out = vals * scale
    out += offset
    np.fill_diagonal(out, mu)
    return out


def expert_margins(U: np.ndarray, mu: float, beta: float) -> np.ndarray:
    """``rescale_margins`` of the cosine distances between unit rows ``U``.

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
