"""Hot numeric kernels of a training step, one float64 numpy path each.

* ``pairwise_cosine``     - B x B cosine similarity between two row stacks
* ``UnitSimilarity``      - that matrix held as its unit rows, formed by blocks
* ``triplet_terms``       - per-level hinge totals, negative mining and dL/dS
* ``cosine_backward``     - chain dL/dS back to the two representation stacks
* ``MinedGradient``       - dL/dS held as its entries, the hardest-mining form
* ``ProjectedGradient``   - dL/dS held as its products with the unit rows,
  the mean-mining form of a ``UnitSimilarity``

Results are bit-reproducible run to run. Their reference is the scalar-loop
oracles in ``tests/oracles.py``, which share no code with these kernels.

Input contract: the kernels never take a norm. ``pairwise_cosine``,
``UnitSimilarity`` and ``cosine_backward`` take float64 unit rows and their
original row norms as returned by ``mathcore.unit_rows``, which owns the
normalisation and its error contract (2-D stacks, finite non-zero norms).

Memory: a training step makes no B x B array. ``triplet_terms`` reads ``S``
one (R, B) block of anchor rows at a time, R = BLOCK_VALUES // B, from a
similarity row source: the training step's ``UnitSimilarity`` forms each
block from the unit rows, ``U[r0:r1] @ V.T`` for direction text and
``V[r0:r1] @ U.T`` for direction video, so no pass reads ``S`` by columns.
Margin levels given as row sources (``margin.ExpertMargins``) are formed one
block at a time too. Under hardest mining ``dS`` has at most 3B nonzero
cells and is returned as a ``MinedGradient`` of 3B entries; under mean
mining of a ``UnitSimilarity`` each block's part of ``dS`` is applied to the
unit rows as the block finishes and returned as a ``ProjectedGradient`` of
B x D values. A dense ``S`` (tests, ``objective.full_loss``) is read through
the same blocks and still gets a dense ``dS`` under mean mining. At large B
every pass over the hinges stays in cache; up to B = 181 a batch is one
block.
"""

import numpy as np

__all__ = [
    "MinedGradient",
    "ProjectedGradient",
    "UnitSimilarity",
    "pairwise_cosine",
    "triplet_terms",
    "cosine_backward",
]

# values per row block of ``triplet_terms``' (R, B) buffers: 256 KiB each,
# small enough that a block's passes stay in L2
BLOCK_VALUES = 1 << 15


def pairwise_cosine(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Cosine similarity between every unit row of U and every unit row of V.

    ``pairwise_cosine(U, U)`` forms ``U @ U.T``, which numpy evaluates as a
    symmetric rank-k update, so the result is exactly symmetric.
    """
    return U @ V.T


class UnitSimilarity:
    """The similarity matrix ``S = U @ V.T`` of two unit-row stacks, kept as
    the rows and formed one block of anchor rows at a time.

    ``rows(r0, r1, out)`` writes ``S[r0:r1]`` and ``cols(r0, r1, out)``
    writes ``S[:, r0:r1].T``, both as C-contiguous (r1 - r0, B) rows; each
    is one product of a row block with the other stack.
    """

    __slots__ = ("U", "V")

    def __init__(self, U: np.ndarray, V: np.ndarray):
        self.U, self.V = U, V

    @property
    def shape(self) -> tuple[int, int]:
        return self.U.shape[0], self.V.shape[0]

    def rows(self, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
        return np.matmul(self.U[r0:r1], self.V.T, out=out)

    def cols(self, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
        return np.matmul(self.V[r0:r1], self.U.T, out=out)


class _DenseSimilarity:
    """A given B x B ``S`` behind the row-source interface of ``UnitSimilarity``."""

    __slots__ = ("S",)

    def __init__(self, S: np.ndarray):
        self.S = S

    @property
    def shape(self) -> tuple[int, int]:
        return self.S.shape

    def rows(self, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
        np.copyto(out, self.S[r0:r1])
        return out

    def cols(self, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
        np.copyto(out, self.S[:, r0:r1].T)
        return out


class MinedGradient:
    """A B x B gradient held as its E entries, the form ``triplet_terms``
    returns under hardest mining (E = 3B).

    Entry e adds ``val[e]`` to cell ``(r[e], c[e])``, where ``S`` holds
    ``s[e]``; a cell may be named more than once. ``np.asarray`` gives the
    dense matrix, summed by one ``bincount`` in entry order, and ``size`` is
    that matrix's B * B cells.
    """

    __slots__ = ("r", "c", "val", "s", "shape")

    def __init__(self, r, c, val, s, B: int):
        self.r, self.c, self.val, self.s = r, c, val, s
        self.shape = (B, B)

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    def __array__(self, dtype=None, copy=None):
        B = self.shape[0]
        dense = np.bincount(self.r * B + self.c, weights=self.val, minlength=B * B)
        return dense.reshape(self.shape).astype(dtype or np.float64, copy=False)


class ProjectedGradient:
    """A B x B gradient ``dS`` of ``S = U @ V.T`` held as what
    ``cosine_backward`` reads of it: ``dSV = dS @ V``, ``dSTU = dS.T @ U``
    and the row and column sums of ``dS * S``.

    It is the form ``triplet_terms`` returns under mean mining of a
    ``UnitSimilarity``. The matrix itself is gone, so it has no dense form:
    ``shape`` and ``size`` describe it, and ``np.count_nonzero`` counts the
    object as one value.
    """

    __slots__ = ("dSV", "dSTU", "row_sums", "col_sums", "shape")

    def __init__(self, dSV, dSTU, row_sums, col_sums):
        self.dSV, self.dSTU, self.row_sums, self.col_sums = dSV, dSTU, row_sums, col_sums
        self.shape = (dSV.shape[0], dSTU.shape[0])

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]


def _as_level(m):
    """A margin level as a float, a float64 array or, unchanged, a row source."""
    if hasattr(m, "rows"):
        return m
    m = np.asarray(m, dtype=np.float64)
    return float(m) if m.ndim == 0 else m


def _level_rows(level, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
    """Rows ``r0:r1`` of a B x B margin level, an array or a row source, in ``out``."""
    if isinstance(level, np.ndarray):
        np.copyto(out, level[r0:r1])
        return out
    return level.rows(r0, r1, out)


def triplet_terms(
    S,
    M,
    w: np.ndarray,
    mean_mining: bool,
    hard_only: bool,
):
    """Mined triplet hinge totals for both retrieval directions.

    S is the B x B similarity matrix (rows = videos, cols = texts), a
    ``UnitSimilarity`` or an array; M is a sequence of K margin levels, each
    a scalar, a B x B array (a stacked (K, B, B) array works too) or a row
    source with a ``rows(r0, r1, out)`` method that writes rows ``r0:r1`` of
    its B x B margins, such as ``margin.ExpertMargins``; w holds their
    weights. Level hinges for anchor i use negatives S[j, i] (direction
    video) and S[i, j] (direction text) against the positive S[i, i], both
    with margins row i.

    Returns ``(comp, dS, mined_v, mined_t)`` where ``comp[k]`` is the
    per-level total (mean over anchors, both directions summed, evaluated at
    the mined negative or averaged over all negatives when ``mean_mining``),
    ``dS`` is the gradient of ``sum_k w[k] * comp[k]`` w.r.t. S, and the
    mined arrays give the selected negative index per anchor (argmax of the
    weighted combined term, or of the level-0 term when ``hard_only``; ties
    resolve to the smallest index). Under hardest mining ``dS`` is a
    ``MinedGradient`` of 3B entries, in this order: direction video's cells
    ``(mined_v[i], i)``, direction text's cells ``(i, mined_t[i])``, then
    the diagonal, which both directions subtract from; ``np.asarray(dS)`` is
    the dense matrix. Under mean mining ``dS`` is a ``ProjectedGradient``
    when S is a ``UnitSimilarity`` and a dense B x B array otherwise.

    Memory is a few (R, B) row blocks per level, plus a dense ``dS`` under
    mean mining of an array S: anchors are taken R = BLOCK_VALUES // B rows
    at a time, each direction's block of S is formed once with its
    positives on its own diagonal, each non-scalar level's margin rows are
    formed once per block into one (L, R, B) buffer that serves both
    directions, and the criterion is built level by level in the block
    buffers. Under hardest mining the mined negatives and margins are
    gathered from the block buffers, and the level totals and dS's entries
    come from the B mined entries per direction only, so they do not depend
    on R; under mean mining ``comp`` is summed block by block, in
    direction-then-block order, and each block's weighted active cells are
    added to ``dS`` or, for a ``UnitSimilarity``, multiplied into its
    products with the unit rows.
    """
    sim = S if isinstance(S, UnitSimilarity) else _DenseSimilarity(
        np.ascontiguousarray(S, dtype=np.float64)
    )
    projected = mean_mining and isinstance(sim, UnitSimilarity)
    levels = [_as_level(m) for m in M]
    blocked = [k for k, m in enumerate(levels) if not isinstance(m, float)]
    w = np.ascontiguousarray(w, dtype=np.float64)
    K = len(levels)
    B = sim.shape[0]
    R = min(B, max(1, BLOCK_VALUES // B))
    rows = np.arange(B)

    comp = np.zeros(K)
    mined = np.empty((2, B), dtype=np.int64)
    # each direction's positives S[i, i], read off its own blocks' diagonals
    pos = np.empty((2, B))
    margin_buf = np.empty((len(blocked), R, B))
    sim_buf = np.empty((R, B))
    base_buf = np.empty((R, B))
    crit_buf = np.empty((R, B))
    hinge_buf = np.empty((R, B))
    if mean_mining:
        wmat_buf = np.empty((R, B))
        active_buf = np.empty((R, B))
        scale = 1.0 / (B * (B - 1))
        block_sums = np.empty((2, -(-B // R), K))
        if projected:
            U, V = sim.U, sim.V
            dSV, dSTU = np.zeros(U.shape), np.zeros(V.shape)
            row_sums, col_sums = np.zeros(B), np.zeros(B)
            # minus the diagonal cells of dS, before the scale
            diag_w = np.zeros(B)
        else:
            dS = np.zeros((B, B))
            dS_flat = dS.reshape(-1)
    else:
        negs = np.empty((2, B))
        # every level's margin at the mined negative, per direction and anchor;
        # the scalar levels' columns are filled here, the others per block
        mined_margins = np.empty((2, B, K))
        for k, m in enumerate(levels):
            if isinstance(m, float):
                mined_margins[:, :, k] = m
    crit_levels = 1 if hard_only else K

    for r0 in range(0, B, R):
        r1 = min(r0 + R, B)
        n = r1 - r0
        block = list(levels)
        for slot, k in enumerate(blocked):
            block[k] = _level_rows(levels[k], r0, r1, margin_buf[slot, :n])
        # the anchors' own entries: (i - r0, i) for i in [r0, r1)
        diag = np.s_[r0 :: B + 1]
        for d in (0, 1):
            base, crit, hinge = base_buf[:n], crit_buf[:n], hinge_buf[:n]
            N = sim.cols(r0, r1, sim_buf[:n]) if d == 0 else sim.rows(r0, r1, sim_buf[:n])
            pos[d, r0:r1] = N.diagonal(r0)  # the block's own cells (i - r0, i)
            np.subtract(N, pos[d, r0:r1, None], out=base)  # s_neg - s_pos
            if mean_mining:
                wmat, active = wmat_buf[:n], active_buf[:n]
                wmat.fill(0.0)
            # accumulate level by level, in the summation order of the oracle
            for k in range(K if mean_mining else crit_levels):
                np.add(base, block[k], out=hinge)
                np.maximum(hinge, 0.0, out=hinge)
                if mean_mining:
                    # the criterion's diagonal is set to -inf below, so only
                    # the mean needs the anchors' own cells zeroed
                    hinge.reshape(-1)[diag] = 0.0
                    block_sums[d, r0 // R, k] = hinge.sum() / (B - 1)
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
            crit.reshape(-1)[diag] = -np.inf
            np.argmax(crit, axis=1, out=mined[d, r0:r1])

            if projected:
                # the block's cells of dS, unscaled: wmat[a, j] at (j, i) for
                # direction video and at (i, j) for direction text, i = r0 + a
                diag_w[r0:r1] += wmat.sum(axis=1)
                np.multiply(wmat, N, out=base)  # the block's cells of dS * S
                if d == 0:
                    dSV += wmat.T @ V[r0:r1]
                    dSTU[r0:r1] += wmat @ U
                    row_sums += base.sum(axis=0)
                    col_sums[r0:r1] += base.sum(axis=1)
                else:
                    dSV[r0:r1] += wmat @ V
                    dSTU += wmat.T @ U[r0:r1]
                    row_sums[r0:r1] += base.sum(axis=1)
                    col_sums += base.sum(axis=0)
            elif mean_mining:
                row_w = wmat.sum(axis=1)
                wmat *= scale
                if d == 0:
                    dS[:, r0:r1] += wmat.T
                else:
                    dS[r0:r1] += wmat
                dS_flat[r0 * (B + 1) : r1 * (B + 1) : B + 1] -= row_w * scale
            else:
                negs[d, r0:r1] = N[rows[:n], mined[d, r0:r1]]
                mined_margins[d, r0:r1][:, blocked] = margin_buf[:, rows[:n], mined[d, r0:r1]].T

    if mean_mining:
        # direction by direction, then block by block, which fixes the
        # totals' rounding
        for sums in block_sums.reshape(-1, K):
            comp += sums
    else:
        grads = []
        for d in (0, 1):
            # (K, B) in column-major order, the layout of a fancy-indexed
            # (K, B, B) stack, so the level sums below keep its rounding
            args = ((negs[d] - pos[d])[:, None] + mined_margins[d]).T
            comp += np.maximum(args, 0.0).sum(axis=1)
            grads.append(np.dot(w, (args > 0.0).astype(np.float64)) / B)
        g_v, g_t = grads
        dS = MinedGradient(
            np.concatenate([mined[0], rows, rows]),
            np.concatenate([rows, mined[1], rows]),
            np.concatenate([g_v, g_t, -g_v - g_t]),
            np.concatenate([negs[0], negs[1], pos[1]]),
            B,
        )
    if projected:
        dSV -= diag_w[:, None] * V
        dSTU -= diag_w[:, None] * U
        dss = diag_w * pos[1]
        row_sums -= dss
        col_sums -= dss
        dS = ProjectedGradient(dSV * scale, dSTU * scale, row_sums * scale, col_sums * scale)

    comp /= B
    return comp, dS, mined[0], mined[1]


def _scatter_rows(idx, vals, X, n: int) -> np.ndarray:
    """``sum_e vals[e] * X[e]`` per target row ``idx[e]``, as an (n, D) array:
    one ``bincount`` over the flat cells ``idx * D + lane``."""
    D = X.shape[1]
    flat = (idx[:, None] * D + np.arange(D)).reshape(-1)
    return np.bincount(flat, weights=(vals[:, None] * X).reshape(-1), minlength=n * D).reshape(n, D)


def cosine_backward(dS, U, V, u_norms, v_norms, S=None):
    """Backpropagate a gradient w.r.t. ``S = U @ V.T`` onto the raw row stacks.

    ``U`` and ``V`` are the unit rows of the raw stacks and ``u_norms``,
    ``v_norms`` their row norms; the results are the gradients w.r.t. the
    raw (unnormalised) rows. ``dS`` is a dense array, read in O(B^2 D) with
    ``S``; a ``MinedGradient``, whose E entries are applied in O(E D) with
    one ``bincount`` per scatter; or a ``ProjectedGradient``, which already
    holds the products. ``S`` is read only in the dense form.
    """
    if isinstance(dS, ProjectedGradient):
        dSV, dSTU, row_sums, col_sums = dS.dSV, dS.dSTU, dS.row_sums, dS.col_sums
    elif isinstance(dS, MinedGradient):
        r, c, val = dS.r, dS.c, dS.val
        dss = val * dS.s
        dSV = _scatter_rows(r, val, V[c], U.shape[0])
        dSTU = _scatter_rows(c, val, U[r], V.shape[0])
        row_sums = np.bincount(r, weights=dss, minlength=U.shape[0])
        col_sums = np.bincount(c, weights=dss, minlength=V.shape[0])
    else:
        # the sums of dS * S without forming it, a third B x B array
        row_sums, col_sums = np.einsum("ij,ij->i", dS, S), np.einsum("ij,ij->j", dS, S)
        dSV, dSTU = dS @ V, dS.T @ U
    dX = (dSV - row_sums[:, None] * U) / u_norms[:, None]
    dY = (dSTU - col_sums[:, None] * V) / v_norms[:, None]
    return dX, dY
