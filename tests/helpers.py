"""Test-only helpers: a finite-difference gradient checker, flat views of a
model's parameters and gradients, the scalar rank reference, a dataset's
same-concept partners, the adaptive-margin reference, a given matrix as a
margin level or as the loss's unit rows, the dense forms of ``dS`` and of
the cosine backward, a container file's header tokens and payload, and a
dataset manifest re-signed after a test edits its files.

The kernels take unit rows U and V, not ``S``. A given B x B ``S`` reaches
them as its identity form ``dense_rows(S) = (I, S.T)``: each cell of a block
``I[r0:r1] @ S`` or ``S.T[r0:r1] @ I`` is ``1.0 * S[i, j]`` plus exact
zeros, so the kernels read ``S`` bit for bit wherever it is finite, for any
blocking of the products, and the gradient they return holds the B x B
``dS`` itself (``dense_gradient``). With D = B the form's products cost
O(B^3) against O(B^2 D) for unit rows, so a test whose ``S`` comes from
unit rows passes those rows instead.
"""

import numpy as np
from scipy.special import ndtri

from marginforge import objective
from marginforge.data import _FILES, MANIFEST_HEADER, MANIFEST_NAME, record_digest
from marginforge.errors import IndexOutOfRangeError, ShapeMismatchError
from marginforge.mathcore import as_vector


def finite_diff_grad(f, x, h: float = 1e-5) -> np.ndarray:
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


def flatten_params(model) -> np.ndarray:
    return np.concatenate([arr.ravel() for _, arr in model.param_items()])


def set_flat_params(model, flat: np.ndarray) -> None:
    offset = 0
    for _, arr in model.param_items():
        n = arr.size
        arr[...] = flat[offset : offset + n].reshape(arr.shape)
        offset += n
    if offset != flat.size:
        raise ShapeMismatchError(f"flat vector has {flat.size} entries, model needs {offset}")


def flatten_grads(model, grads: dict) -> np.ndarray:
    return np.concatenate([grads[name].ravel() for name, _ in model.param_items()])


def rank_of_positive(scores, positive_index: int) -> int:
    """1 + (#strictly better) + (#ties with smaller index)."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if not 0 <= positive_index < n:
        raise IndexOutOfRangeError(f"positive index {positive_index} outside [0, {n})")
    s = scores[positive_index]
    better = int(np.sum(scores > s))
    tied_before = int(np.sum((scores == s) & (np.arange(n) < positive_index)))
    return 1 + better + tied_before


def ground_truth_equivalents(dataset) -> dict[str, set[str]]:
    """For each id, the other ids sharing its concept."""
    by_concept: dict[int, list[str]] = {}
    for item_id, concept in zip(dataset.ids, dataset.concepts):
        by_concept.setdefault(int(concept), []).append(item_id)
    return {
        item_id: set(by_concept[int(concept)]) - {item_id}
        for item_id, concept in zip(dataset.ids, dataset.concepts)
    }


def reference_margins(U, mu: float, beta: float) -> np.ndarray:
    """Adaptive margins of unit rows ``U``, the direct way.

    The distances come from the general product ``1 - U @ U.T.copy()`` (the
    copy keeps numpy off the symmetric rank-k update of ``U @ U.T``), their
    statistics from the masked off-diagonal entries, and the target standard
    deviation from the quantile ``ndtri(0.95)``; a batch whose distance
    variance is at most 1e-12 gets the hard margin mu everywhere. Shares no
    code with ``marginforge.margin`` or ``marginforge.kernels``.
    """
    U = np.asarray(U, dtype=np.float64)
    b = U.shape[0]
    d = np.ma.masked_array(1.0 - U @ U.T.copy(), mask=np.eye(b, dtype=bool))
    mean, var = d.mean(), d.var()
    if var <= 1e-12:
        return np.full((b, b), mu)
    sigma = beta / ndtri(0.95)
    return ((d - mean) * (sigma / np.sqrt(var)) + mu).filled(mu)


class DenseMargins:
    """A given B x B margin matrix as a margin level: a row source whose
    products are rows ``r0:r1`` of the matrix, copied into ``out``, under the
    identity map (``scale`` -1, ``offset`` 0), with the matrix's largest
    entry as its bound."""

    scale = -1.0
    offset = 0.0

    def __init__(self, m):
        self.m = np.asarray(m, dtype=np.float64)

    @property
    def shape(self) -> tuple:
        return self.m.shape

    @property
    def bound(self) -> float:
        return float(self.m.max())

    def products(self, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
        np.copyto(out, self.m[r0:r1])
        return out

    def dense(self) -> np.ndarray:
        return self.m


class Delegating:
    """A row source that is not a ``margin.ExpertMargins``: it forwards
    ``shape``, ``products``, ``scale``, ``offset`` and ``bound`` to the one it
    wraps and counts the ``products`` calls, as a study's own
    distance-to-margin map would reach the loss."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    @property
    def shape(self) -> tuple:
        return self.inner.shape

    @property
    def scale(self) -> float:
        return self.inner.scale

    @property
    def offset(self) -> float:
        return self.inner.offset

    @property
    def bound(self) -> float:
        return self.inner.bound

    def products(self, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
        self.calls += 1
        return self.inner.products(r0, r1, out)


def row_sources(levels) -> list:
    """``levels`` with each array wrapped in ``DenseMargins``; scalars and
    row sources pass through."""
    return [DenseMargins(m) if isinstance(m, np.ndarray) else m for m in levels]


def dense_rows(S) -> tuple:
    """The identity form ``(U, V) = (I, S.T)`` of a given B x B ``S``: the
    kernels' unit-row arguments whose ``U @ V.T`` is ``S`` bit for bit."""
    S = np.asarray(S, dtype=np.float64)
    return np.eye(S.shape[0]), S.T


def dense_gradient(dS) -> np.ndarray:
    """The B x B matrix of a ``triplet_terms`` gradient of the identity form:
    its ``dSTU.T``, which is exact since there ``dSTU = dS.T @ I``. Under
    hardest mining each cell sums its entries in entry order, from 0."""
    return dS.dSTU.T


def dense_cosine_backward(dS, S, U, V, u_norms, v_norms) -> tuple:
    """``kernels.cosine_backward`` of a dense B x B ``dS``, read in O(B^2 D)
    with ``S = U @ V.T``: the reference for the projected form."""
    # the sums of dS * S without forming it, a third B x B array
    row_sums, col_sums = np.einsum("ij,ij->i", dS, S), np.einsum("ij,ij->j", dS, S)
    dSV, dSTU = dS @ V, dS.T @ U
    dX = (dSV - row_sums[:, None] * U) / u_norms[:, None]
    dY = (dSTU - col_sums[:, None] * V) / v_norms[:, None]
    return dX, dY


def score(S, margins: dict, alpha: float, lam: float, mining="hardest"):
    """The loss breakdown of a given B x B ``S``, passed as ``dense_rows(S)``,
    whose array margins are wrapped in ``DenseMargins``."""
    margins = dict(zip(margins, row_sources(margins.values())))
    breakdown, _ = objective._run(*dense_rows(S), margins, alpha, lam, mining)
    return breakdown


def read_parts(path) -> tuple[list[str], bytes]:
    """A container file's header tokens and its payload bytes."""
    line, _, payload = path.read_bytes().partition(b"\n")
    return line.decode("ascii").split(), payload


def resign_manifest(data_dir) -> None:
    """Rewrite the manifest of the dataset directory ``data_dir`` with every
    file's record under the library's rule (``data.record_digest``), so that
    a test's edit of a file reaches that file's parser, not the digest check."""
    lines = [MANIFEST_HEADER]
    for role, filename in _FILES.items():
        lines.append(f"{role} {filename} {record_digest(role, data_dir / filename)}")
    (data_dir / MANIFEST_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")
