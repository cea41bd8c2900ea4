"""Hot numeric kernels of a training step, one float64 numpy path each.

* ``pairwise_cosine``     - B x B cosine similarity between two row stacks
* ``triplet_terms``       - per-level hinge totals, negative mining and dL/dS
* ``cosine_backward``     - chain dL/dS back to the two representation stacks

Results are bit-reproducible run to run. Their reference is the scalar-loop
oracles in ``tests/oracles.py``, which share no code with these kernels.

Input contract: the kernels never take a norm. ``pairwise_cosine`` and
``cosine_backward`` take float64 unit rows and their original row norms as
returned by ``mathcore.unit_rows``, which owns the normalisation and its
error contract (2-D stacks, finite non-zero norms).
"""

import numpy as np

__all__ = [
    "pairwise_cosine",
    "triplet_terms",
    "cosine_backward",
]


def pairwise_cosine(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Cosine similarity between every unit row of U and every unit row of V.

    ``pairwise_cosine(U, U)`` forms ``U @ U.T``, which numpy evaluates as a
    symmetric rank-k update, so the result is exactly symmetric.
    """
    return U @ V.T


def triplet_terms(
    S: np.ndarray,
    M,
    w: np.ndarray,
    mean_mining: bool,
    hard_only: bool,
):
    """Mined triplet hinge totals for both retrieval directions.

    S is the B x B similarity matrix (rows = videos, cols = texts); M is a
    sequence of K margin levels, each a scalar or a B x B array (a stacked
    (K, B, B) array works too), and w holds their weights. Level hinges for
    anchor i use negatives S[j, i] (direction video) and S[i, j] (direction
    text) against the positive S[i, i].

    Returns ``(comp, dS, mined_v, mined_t)`` where ``comp[k]`` is the
    per-level total (mean over anchors, both directions summed, evaluated at
    the mined negative or averaged over all negatives when ``mean_mining``),
    ``dS`` is the gradient of ``sum_k w[k] * comp[k]`` w.r.t. S, and the
    mined arrays give the selected negative index per anchor (argmax of the
    weighted combined term, or of the level-0 term when ``hard_only``; ties
    resolve to the smallest index).

    Memory is O(B^2) whatever K is: the criterion is built level by level in
    a few preallocated B x B buffers, and under hardest mining the level
    totals and dS come from the B mined entries per direction only.
    """
    S = np.ascontiguousarray(S, dtype=np.float64)
    levels = [np.asarray(m, dtype=np.float64) for m in M]
    w = np.ascontiguousarray(w, dtype=np.float64)
    K = len(levels)
    B = S.shape[0]
    pos = np.diag(S).copy()
    rows = np.arange(B)

    comp = np.zeros(K)
    dS = np.zeros((B, B))
    mined = np.empty((2, B), dtype=np.int64)
    base = np.empty((B, B))
    crit = np.empty((B, B))
    hinge = np.empty((B, B))
    if mean_mining:
        wmat = np.empty((B, B))
        active = np.empty((B, B))
    crit_levels = 1 if hard_only else K

    for d, N in ((0, S.T), (1, S)):
        np.subtract(N, pos[:, None], out=base)  # s_neg - s_pos
        if mean_mining:
            wmat.fill(0.0)
        # accumulate level by level, in the summation order of the oracle
        for k in range(K if mean_mining else crit_levels):
            np.add(base, levels[k], out=hinge)
            np.maximum(hinge, 0.0, out=hinge)
            np.fill_diagonal(hinge, 0.0)
            if mean_mining:
                comp[k] += hinge.sum() / (B - 1)
                np.greater(hinge, 0.0, out=active)
                active *= w[k]
                wmat += active
            if k == 0:
                if not hard_only:
                    hinge *= w[0]
                crit, hinge = hinge, crit  # level 0 starts the criterion; no copy
            elif k < crit_levels:
                hinge *= w[k]
                crit += hinge
        np.fill_diagonal(crit, -np.inf)
        jstar = np.argmax(crit, axis=1)
        mined[d] = jstar

        if mean_mining:
            scale = 1.0 / (B * (B - 1))
            row_w = wmat.sum(axis=1)
            wmat *= scale
            dS += wmat.T if d == 0 else wmat
            dS[rows, rows] -= row_w * scale
        else:
            picked = base[rows, jstar]
            # (K, B) in column-major order, the layout of a fancy-indexed
            # (K, B, B) stack, so the level sums below keep its rounding
            args = np.stack(
                [picked + (m if m.ndim == 0 else m[rows, jstar]) for m in levels], axis=1
            ).T
            comp += np.maximum(args, 0.0).sum(axis=1)
            wsum = np.tensordot(w, (args > 0.0).astype(np.float64), axes=1)
            if d == 0:
                np.add.at(dS, (jstar, rows), wsum / B)
            else:
                np.add.at(dS, (rows, jstar), wsum / B)
            dS[rows, rows] -= wsum / B

    comp /= B
    return comp, dS, mined[0], mined[1]


def cosine_backward(dS, U, V, u_norms, v_norms, S):
    """Backpropagate a gradient w.r.t. ``S = U @ V.T`` onto the raw row stacks.

    ``U`` and ``V`` are the unit rows of the raw stacks and ``u_norms``,
    ``v_norms`` their row norms; the results are the gradients w.r.t. the
    raw (unnormalised) rows.
    """
    dSS = dS * S
    dX = (dS @ V - dSS.sum(axis=1)[:, None] * U) / u_norms[:, None]
    dY = (dS.T @ U - dSS.sum(axis=0)[:, None] * V) / v_norms[:, None]
    return dX, dY
