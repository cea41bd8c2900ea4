"""Rescale function: expert distances -> adaptive margins.

Off-diagonal distances of a batch are affinely remapped so their sample mean
equals the hard margin ``mu`` and their population variance equals the value
``U(beta)`` for which a normal holds 90% of its mass within ``mu +- beta``.
The map is strictly increasing, so more distant (less similar) negative pairs
always receive larger margins; outputs may go negative by design. Distances
and margins are plain B x B float64 arrays.
"""

import math
from functools import lru_cache

import numpy as np

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
    mean is the full sum less the trace; the variance sums the squared
    deviations of one B x B temporary whose diagonal is zeroed, so no mask or
    gathered copy of the off-diagonal entries is made.
    """
    vals = matrix_values(d)
    b = vals.shape[0]
    if b < 2:
        raise EmptyInputError("batch statistics need at least two items")
    n = b * (b - 1)
    mean = (vals.sum() - np.trace(vals)) / n
    dev = vals - mean
    np.fill_diagonal(dev, 0.0)
    dev = dev.ravel()
    return float(mean), float(dev @ dev) / n


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


def rescale_margins(d, mu: float, beta: float) -> np.ndarray:
    """Map square distances to a new margin array: off-diagonal mean mu, variance U(beta).

    A negative ``beta`` raises ``ValueError``. Zero-variance batches (all
    off-diagonal distances equal) fall back to the hard margin everywhere;
    the diagonal is always set to mu and is unused downstream.
    """
    target = beta_to_variance(beta)
    vals = matrix_values(d)
    mean, var = batch_stats(vals)
    if var > VAR_FLOOR:
        scale = math.sqrt(target / var)
        out = vals - mean
        out *= scale
        out += mu
        np.fill_diagonal(out, mu)
    else:
        out = np.full_like(vals, mu)
    return out
