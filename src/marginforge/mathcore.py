"""Scalar and small-vector numeric primitives.

Cosine similarity, mean pooling, the standard normal CDF, and a
central-difference gradient checker. Everything here is float64, pure, and
thread-safe; batched equivalents of the hot paths live in
:mod:`marginforge.kernels`.
"""

import math
from typing import Callable

import numpy as np

from .errors import DimMismatchError, EmptyInputError, ZeroNormError

ZERO_NORM_EPS = 1e-12

_SQRT2 = math.sqrt(2.0)


def as_vector(values) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise DimMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains NaN or Inf")
    return v


def as_matrix(values) -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise DimMismatchError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf")
    return m


def cosine_similarity(a, b) -> float:
    """<a,b> / (|a| |b|); in [-1, 1] up to rounding."""
    a = as_vector(a)
    b = as_vector(b)
    if a.shape != b.shape:
        raise DimMismatchError(f"vector dims differ: {a.shape[0]} vs {b.shape[0]}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < ZERO_NORM_EPS or nb < ZERO_NORM_EPS:
        raise ZeroNormError(f"norms too small for cosine: {na:.3e}, {nb:.3e}")
    return float(np.dot(a, b) / (na * nb))


def check_row_norms(X: np.ndarray, what: str) -> None:
    """Raise ZeroNormError for the first row of X whose norm is non-finite or near zero."""
    norms = np.linalg.norm(X, axis=1)
    ok = np.isfinite(norms) & (norms >= ZERO_NORM_EPS)
    if not ok.all():
        bad = int(np.argmin(ok))
        raise ZeroNormError(f"{what} row {bad} has non-finite or near-zero norm {norms[bad]:.3e}")


def mean_pool(frames) -> np.ndarray:
    """Per-column mean of a (rows x dim) matrix of frame features."""
    m = as_matrix(frames)
    if m.shape[0] < 1:
        raise EmptyInputError("mean_pool needs at least one row")
    return m.mean(axis=0)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc (absolute error well below 1e-10)."""
    return 0.5 * math.erfc(-x / _SQRT2)


def finite_diff_grad(f: Callable[[np.ndarray], float], x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    x = as_vector(x)
    if h <= 0:
        raise ValueError("step h must be positive")
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g
