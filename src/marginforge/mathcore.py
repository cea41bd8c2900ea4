"""Scalar and small-vector numeric primitives.

Vector coercion, scalar cosine similarity and row normalisation. Everything
here is float64, pure, and thread-safe; batched equivalents of the hot paths
live in :mod:`marginforge.kernels`.
"""

import numpy as np

from .errors import DimMismatchError, ZeroNormError

ZERO_NORM_EPS = 1e-12


def as_vector(values) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise DimMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains NaN or Inf")
    return v


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


def unit_rows(X, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows of a stack of vectors, and the row norms they were divided by.

    The one place where a row stack is normalised: ``X`` must be a 2-D
    float64 stack (else ``DimMismatchError``), and the first row whose norm
    is non-finite or near zero raises ``ZeroNormError`` naming ``what``.
    Everything downstream (similarities, expert distances, the cosine
    backward pass) takes the returned unit rows and norms as they are.
    """
    X = np.asarray(X, dtype=np.float64, order="C")
    if X.ndim != 2:
        raise DimMismatchError(f"expected a stack of vectors, got shape {X.shape}")
    norms, bad = row_norms(X)
    if bad is not None:
        raise ZeroNormError(f"{what} row {bad} has non-finite or near-zero norm {norms[bad]:.3e}")
    return X / norms[:, None], norms


def row_norms(X: np.ndarray) -> tuple[np.ndarray, int | None]:
    """Row norms of a 2-D float64 stack, and the index of the first row whose
    norm breaks the rule of ``unit_rows`` (None if every row keeps it).

    The rule: a norm must be finite and at least ``ZERO_NORM_EPS``. Finite
    values whose squares overflow give an infinite norm, which breaks the
    rule; the overflow itself is not warned about.

    For a real float64 stack this is the expression ``np.linalg.norm(X,
    axis=1)`` evaluates, bit for bit, without its wrapper; a test holds the
    two equal.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(X * X, axis=1))
    ok = np.isfinite(norms) & (norms >= ZERO_NORM_EPS)
    return norms, None if ok.all() else int(np.argmin(ok))
