"""Hot numeric kernels of a training step, one float64 numpy path each.

* ``pairwise_cosine``     - B x B cosine similarity between two row stacks
* ``triplet_terms``       - per-level hinge totals, negative mining and dL/dS
* ``cosine_backward``     - chain dL/dS back to the two representation stacks

Results are bit-reproducible run to run. Their reference is the scalar-loop
oracles in ``tests/oracles.py``, which share no code with these kernels.

Kernels assume validated inputs (finite values, nonzero row norms); callers
own the error contracts.
"""

import numpy as np

__all__ = [
    "pairwise_cosine",
    "triplet_terms",
    "cosine_backward",
]


def pairwise_cosine(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Cosine similarity between every row of X and every row of Y."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    Xn = X / np.linalg.norm(X, axis=1)[:, None]
    Yn = Y / np.linalg.norm(Y, axis=1)[:, None]
    return Xn @ Yn.T


def triplet_terms(
    S: np.ndarray,
    M: np.ndarray,
    w: np.ndarray,
    mean_mining: bool,
    hard_only: bool,
):
    """Mined triplet hinge totals for both retrieval directions.

    S is the B x B similarity matrix (rows = videos, cols = texts); M stacks
    K margin levels as a (K, B, B) array and w holds their weights. Level
    hinges for anchor i use negatives S[j, i] (direction video) and S[i, j]
    (direction text) against the positive S[i, i].

    Returns ``(comp, dS, mined_v, mined_t)`` where ``comp[k]`` is the
    per-level total (mean over anchors, both directions summed, evaluated at
    the mined negative or averaged over all negatives when ``mean_mining``),
    ``dS`` is the gradient of ``sum_k w[k] * comp[k]`` w.r.t. S, and the
    mined arrays give the selected negative index per anchor (argmax of the
    weighted combined term, or of the level-0 term when ``hard_only``; ties
    resolve to the smallest index).
    """
    S = np.ascontiguousarray(S, dtype=np.float64)
    M = np.ascontiguousarray(M, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    K = M.shape[0]
    B = S.shape[0]
    pos = np.diag(S).copy()
    off = ~np.eye(B, dtype=bool)
    rows = np.arange(B)

    comp = np.zeros(K)
    dS = np.zeros((B, B))
    mined = np.empty((2, B), dtype=np.int64)

    for d, N in ((0, np.ascontiguousarray(S.T)), (1, S)):
        # args[k,i,j] = s_neg - s_pos + margin_k(i,j)
        args = N[None, :, :] - pos[None, :, None] + M
        hinge = np.maximum(args, 0.0)
        hinge[:, rows, rows] = 0.0

        if hard_only:
            crit = hinge[0]
        else:
            # accumulate level by level, in the summation order of the oracle
            crit = w[0] * hinge[0]
            for k in range(1, K):
                crit = crit + w[k] * hinge[k]
        jstar = np.argmax(np.where(off, crit, -np.inf), axis=1)
        mined[d] = jstar

        active = (args > 0.0).astype(np.float64)
        active[:, rows, rows] = 0.0
        if mean_mining:
            scale = 1.0 / (B * (B - 1))
            comp += hinge.reshape(K, -1).sum(axis=1) / (B - 1)
            wmat = np.tensordot(w, active, axes=1)
            if d == 0:
                dS += wmat.T * scale
            else:
                dS += wmat * scale
            dS[rows, rows] -= wmat.sum(axis=1) * scale
        else:
            comp += hinge[:, rows, jstar].sum(axis=1)
            wsum = np.tensordot(w, active[:, rows, jstar], axes=1)
            if d == 0:
                np.add.at(dS, (jstar, rows), wsum / B)
            else:
                np.add.at(dS, (rows, jstar), wsum / B)
            dS[rows, rows] -= wsum / B

    comp /= B
    return comp, dS, mined[0], mined[1]


def cosine_backward(dS: np.ndarray, X: np.ndarray, Y: np.ndarray, S: np.ndarray):
    """Backpropagate a gradient w.r.t. the cosine matrix onto both row stacks."""
    dS = np.ascontiguousarray(dS, dtype=np.float64)
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    S = np.ascontiguousarray(S, dtype=np.float64)
    xn = np.linalg.norm(X, axis=1)
    yn = np.linalg.norm(Y, axis=1)
    Xn = X / xn[:, None]
    Yn = Y / yn[:, None]
    dSS = dS * S
    dX = (dS @ Yn - dSS.sum(axis=1)[:, None] * Xn) / xn[:, None]
    dY = (dS.T @ Xn - dSS.sum(axis=0)[:, None] * Yn) / yn[:, None]
    return dX, dY
