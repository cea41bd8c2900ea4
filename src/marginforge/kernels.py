"""Hot numeric kernels of a training step, one float64 numpy path each.

* ``pairwise_cosine``     - B x B cosine similarity between two row stacks
* ``triplet_terms``       - per-level hinge totals, negative mining and dL/dS
* ``cosine_backward``     - chain dL/dS back to the two representation stacks
* ``ProjectedGradient``   - dL/dS held as its products with the unit rows

Results are bit-reproducible run to run. Their reference is the scalar-loop
oracles in ``tests/oracles.py``, which share no code with these kernels.

Input contract: the kernels never take a norm. Each takes float64 unit
rows, U for the videos and V for the texts of a batch, whose similarity
matrix is ``S = U @ V.T``; ``cosine_backward`` also takes their original
row norms. Both come from ``mathcore.unit_rows``, which owns the
normalisation and its error contract (2-D stacks, finite non-zero norms).
``triplet_terms`` and ``cosine_backward`` take the same unit rows: the
gradient the first returns is applied to them by the second.

Memory: a training step makes no B x B array. ``triplet_terms`` forms ``S``
one (R, B) block of anchor rows at a time, R = BLOCK_VALUES // B, from the
unit rows: ``U[r0:r1] @ V.T`` for direction text and ``V[r0:r1] @ U.T`` for
direction video, so no pass reads ``S`` by columns. Margin levels are row
sources (``margin.ExpertMargins``), formed one block at a time. ``dS`` is
never formed either: it is applied to the unit rows and returned as a
``ProjectedGradient`` of B x D values. Under hardest mining it has 3B
entries, applied after the blocks, once their buffers are freed; under mean
mining each block's part is applied as the block finishes. At large B every
pass over the hinges stays in cache; up to B = 181 a batch is one block.

Pruned hardest mining: hardest mining keeps one negative per anchor and
direction, and at B >= PRUNE_MIN_B ``triplet_terms`` scores only the cells
that can be it. In each block it takes j*, the cell of largest ``s_neg -
s_pos`` outside the anchor's own, and scores it exactly: that score ``lb``
is a lower bound on the row's best. With level weights w >= 0 a cell scores
at most ``W * max(0, s_neg - s_pos + A)``, W the criterion weights' sum and
A the row's largest criterion margin, so only cells with ``s_neg >= s_pos +
lb / W - A`` can reach ``lb``; a slack of (2K + 8) ulps of the values' size
``|s_pos| + lb / W + |A|``, K the criterion's level count, covers every
rounding of that bound, since rounding is monotone. Those candidates and j*
are scored with the full scan's operations in its level order, so with the
full scan's bits; the smallest index of the best score wins, and a row
whose best score is 0 mines its first index that is not the anchor, as
``argmax`` of the full criterion does. For finite inputs the mined indices,
and so ``comp`` and ``dS``, are the full scan's bit for bit. Per call on a
``bigbatch``-recipe run's inputs, where 0.4% of the cells (3.8 per row) are
candidates, the path takes 0.6-0.8 of the full scan's time at B=1024 and
B=256; at B=64 it takes 1.2-1.5 times as long, since its fixed cost is some
50 small numpy calls per block. The crossover lies between B=96 (1.05-1.10)
and B=128 (0.87-0.94), so below PRUNE_MIN_B = 128 the full scan stays.
"""

import numpy as np

__all__ = [
    "ProjectedGradient",
    "pairwise_cosine",
    "triplet_terms",
    "cosine_backward",
]

# values per row block of ``triplet_terms``' (R, B) buffers: 256 KiB each,
# small enough that a block's passes stay in L2
BLOCK_VALUES = 1 << 15
# smallest B whose hardest mining takes the pruned path: per call on a
# training run's inputs (2-core x86_64, 1 BLAS thread) the pruned path took
# 1.05-1.10 of the full scan's time at B=96 and 0.87-0.94 at B=128
PRUNE_MIN_B = 128


def pairwise_cosine(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Cosine similarity between every unit row of U and every unit row of V.

    ``pairwise_cosine(U, U)`` forms ``U @ U.T``, which numpy evaluates as a
    symmetric rank-k update, so the result is exactly symmetric.
    """
    return U @ V.T


class ProjectedGradient:
    """A B x B gradient ``dS`` of ``S = U @ V.T`` held as what
    ``cosine_backward`` reads of it: ``dSV = dS @ V``, ``dSTU = dS.T @ U``
    and the row and column sums of ``dS * S``.

    It is the form ``triplet_terms`` returns. The matrix itself is gone, so
    it has no dense form: ``shape`` and ``size`` describe it, and
    ``np.count_nonzero`` counts the object as one value.
    """

    __slots__ = ("dSV", "dSTU", "row_sums", "col_sums", "shape")

    def __init__(self, dSV, dSTU, row_sums, col_sums):
        self.dSV, self.dSTU, self.row_sums, self.col_sums = dSV, dSTU, row_sums, col_sums
        self.shape = (dSV.shape[0], dSTU.shape[0])

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]


def _criterion(base, gathered, layout, w):
    """The mining criterion ``sum_k w[k] * max(0, base + m_k)`` at C gathered
    cells, with the full scan's operations in its order, so its bits.

    ``base`` holds ``s_neg - s_pos`` per cell and ``gathered`` the (L, C)
    margins of the non-scalar levels; ``layout`` is ``(blocked, scalars,
    values)``: the levels whose margins are gathered, the scalar levels and
    their values as a column.
    """
    blocked, scalars, values = layout
    X = np.empty((len(w), base.size))
    X[blocked] = gathered
    X[scalars] = values
    X += base
    np.maximum(X, 0.0, out=X)
    X *= w[:, None]
    crit = X[0]
    for k in range(1, len(w)):
        crit += X[k]
    return crit


def _mine_pruned(N, pos, margins, layout, w, r0, mask):
    """Both directions' hardest negatives of one block, scoring only the
    cells that can win: the full scan's argmax, bit for bit.

    ``N`` is the (2, n, B) block of S for anchors ``r0:r0 + n``, with their
    own cells at ``-inf``; ``pos`` holds the (2, n) positives, ``margins``
    the (L, n, B) margin rows of the criterion's non-scalar levels and ``w``
    the criterion's weights, of positive sum; ``mask`` is a (2, n, B) bool
    buffer. Returns the mined column of each of the 2n rows.
    """
    _, n, B = N.shape
    flat, pos_flat = N.reshape(-1), pos.reshape(-1)
    anchors = np.arange(2 * n)
    own = anchors % n  # each row's anchor, within the block
    starts, offsets = anchors * B, own * B  # each row's first cell in N and in margins
    # each anchor row's largest criterion margin
    A = np.full(n, layout[2].max(initial=-np.inf))
    if len(margins):
        np.maximum(A, margins.max(axis=(0, 2)), out=A)
    margins = margins.reshape(len(margins), n * B)
    # j*, the largest s_neg of each row, scored exactly, is a lower bound
    star = np.argmax(N, axis=2).reshape(-1)
    lb = _criterion(flat[starts + star] - pos_flat, margins[:, offsets + star], layout, w)
    # a cell scores at most W * max(0, s_neg - s_pos + A); keep those that
    # may reach lb, less a slack that covers every rounding of the bound
    ratio = lb.reshape(2, n) / w.sum()
    slack = (2 * len(w) + 8) * np.finfo(np.float64).eps
    floor = pos + (ratio - A) - slack * (np.abs(pos) + ratio + np.abs(A))
    np.greater_equal(N, floor[:, :, None], out=mask)
    mask.reshape(-1)[starts + star] = True
    cand = np.flatnonzero(mask)
    row = cand // B
    col = cand - starts[row]
    crit = _criterion(flat[cand] - pos_flat[row], margins[:, offsets[row] + col], layout, w)
    # every row holds j*, so each has a segment; ties go to the smallest index
    segments = np.searchsorted(row, anchors)
    best = np.maximum.reduceat(crit, segments)
    won = np.minimum.reduceat(np.where(crit == best[row], col, B), segments)
    # a row that scores 0 everywhere mines its first index that is not the
    # anchor, as the full scan's argmax does: 1 for anchor 0, else 0
    return np.where(best > 0.0, won, own + r0 == 0)


def triplet_terms(
    U: np.ndarray,
    V: np.ndarray,
    M,
    w: np.ndarray,
    mean_mining: bool,
    hard_only: bool,
):
    """Mined triplet hinge totals for both retrieval directions.

    U and V are the B x D unit rows of the videos and the texts, so the
    similarity matrix is ``S = U @ V.T`` (rows = videos, cols = texts), of
    which only row blocks are formed; M is a sequence of K margin levels,
    each a scalar or a row source with a ``rows(r0, r1, out)`` method that
    writes rows ``r0:r1`` of its B x B margins, such as
    ``margin.ExpertMargins`` (``objective._margin_levels`` states and checks
    that contract); w holds their weights, which must be nonnegative
    (``ValueError`` otherwise): the pruned path's bound needs it, and every
    caller's weights, 1 and the slots' lambda * renorm and (1 - lambda) *
    renorm, are. Level hinges for anchor i use negatives S[j, i] (direction
    video) and S[i, j] (direction text) against the positive S[i, i], both
    with margins row i.

    Returns ``(comp, dS, mined_v, mined_t)`` where ``comp[k]`` is the
    per-level total (mean over anchors, both directions summed, evaluated at
    the mined negative or averaged over all negatives when ``mean_mining``),
    ``dS`` is the gradient of ``sum_k w[k] * comp[k]`` w.r.t. S, and the
    mined arrays give the selected negative index per anchor (argmax of the
    weighted combined term, or of the level-0 term when ``hard_only``; ties
    resolve to the smallest index). ``dS`` is a ``ProjectedGradient`` of U
    and V. Under hardest mining it has 3B entries, in this order: direction
    video's cells ``(mined_v[i], i)``, direction text's cells ``(i,
    mined_t[i])``, then the diagonal, which both directions subtract from;
    each product and sum adds its entries in that order, with one
    ``bincount``.

    Memory is a few (R, B) row blocks: anchors are taken R = BLOCK_VALUES //
    B rows at a time, each direction's block of S is formed once with its
    positives on its own diagonal, and each of the L non-scalar levels'
    margin rows are formed once per block into one (L, R, B) buffer that
    serves both directions. The full scan builds the criterion level by level in four
    more (R, B) buffers (six under mean mining). Hardest mining at B >=
    PRUNE_MIN_B takes the pruned path of the module docstring instead: one
    (2, R, B) buffer holds both directions' blocks of S and a (2, R, B) bool
    buffer the candidate mask, L + 2.25 planes in all against the full
    scan's L + 4. Under hardest mining the mined negatives and margins are
    gathered from the block buffers, and the level totals and dS's entries
    come from the B mined entries per direction only, so they do not depend
    on R, and the entries are applied once the block buffers are freed;
    under mean mining ``comp`` is summed block by block, in
    direction-then-block order, and each block's weighted active cells are
    multiplied into ``dS``'s products with the unit rows.
    """
    levels = [m if hasattr(m, "rows") else float(m) for m in M]
    blocked = [k for k, m in enumerate(levels) if not isinstance(m, float)]
    w = np.ascontiguousarray(w, dtype=np.float64)
    if (w < 0.0).any():
        raise ValueError(f"level weights must be nonnegative, got {w.tolist()}")
    K = len(levels)
    B = U.shape[0]
    R = min(B, max(1, BLOCK_VALUES // B))
    rows = np.arange(B)
    crit_levels = 1 if hard_only else K
    # the criterion's weights: level 0 alone is unweighted, and x * 1.0 == x
    crit_w = np.ones(1) if hard_only else w
    # a criterion of weight 0 is 0 everywhere and gives no bound to prune by
    prune = not mean_mining and B >= PRUNE_MIN_B and crit_w.sum() > 0.0
    # each direction's block of S: S[:, r0:r1].T = V[r0:r1] @ U.T for
    # direction video, S[r0:r1] = U[r0:r1] @ V.T for direction text
    factors = ((V, U), (U, V))

    comp = np.zeros(K)
    mined = np.empty((2, B), dtype=np.int64)
    # each direction's positives S[i, i], read off its own blocks' diagonals
    pos = np.empty((2, B))
    margin_buf = np.empty((len(blocked), R, B))
    if prune:
        # both directions' blocks, each plane C-contiguous for any block size
        sim_buf = np.empty(2 * R * B)
        mask_buf = np.empty(2 * R * B, dtype=bool)
        crit_slots = sum(1 for k in blocked if k < crit_levels)
        scalars = [k for k in range(crit_levels) if isinstance(levels[k], float)]
        values = np.array([levels[k] for k in scalars]).reshape(-1, 1)
        layout = (blocked[:crit_slots], scalars, values)
    else:
        sim_buf = np.empty((R, B))
        base_buf = np.empty((R, B))
        crit_buf = np.empty((R, B))
        hinge_buf = np.empty((R, B))
    if mean_mining:
        wmat_buf = np.empty((R, B))
        active_buf = np.empty((R, B))
        scale = 1.0 / (B * (B - 1))
        block_sums = np.empty((2, -(-B // R), K))
        dSV, dSTU = np.zeros(U.shape), np.zeros(V.shape)
        row_sums, col_sums = np.zeros(B), np.zeros(B)
        # minus the diagonal cells of dS, before the scale
        diag_w = np.zeros(B)
    else:
        negs = np.empty((2, B))
        # every level's margin at the mined negative, per direction and anchor;
        # the scalar levels' columns are filled here, the others per block
        mined_margins = np.empty((2, B, K))
        for k, m in enumerate(levels):
            if isinstance(m, float):
                mined_margins[:, :, k] = m

    for r0 in range(0, B, R):
        r1 = min(r0 + R, B)
        n = r1 - r0
        block = list(levels)
        for slot, k in enumerate(blocked):
            block[k] = levels[k].rows(r0, r1, margin_buf[slot, :n])
        # the anchors' own entries: (i - r0, i) for i in [r0, r1)
        diag = np.s_[r0 :: B + 1]
        if prune:
            N = sim_buf[: 2 * n * B].reshape(2, n, B)
            for d, (X, Y) in enumerate(factors):
                np.matmul(X[r0:r1], Y.T, out=N[d])
            pos[:, r0:r1] = N.reshape(2, -1)[:, diag]
            N.reshape(2, -1)[:, diag] = -np.inf
            found = _mine_pruned(
                N, pos[:, r0:r1], margin_buf[:crit_slots, :n], layout, crit_w, r0,
                mask_buf[: 2 * n * B].reshape(2, n, B),
            )
            mined[:, r0:r1] = found.reshape(2, n)
            cells = np.arange(0, 2 * n * B, B) + found
            negs[:, r0:r1] = N.reshape(-1)[cells].reshape(2, n)
            at = margin_buf[:, :n].reshape(len(blocked), n * B)[:, cells % (n * B)]
            mined_margins[:, r0:r1, blocked] = at.T.reshape(2, n, -1)
            continue
        for d, (X, Y) in enumerate(factors):
            base, crit, hinge = base_buf[:n], crit_buf[:n], hinge_buf[:n]
            N = np.matmul(X[r0:r1], Y.T, out=sim_buf[:n])
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

            if mean_mining:
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
            else:
                negs[d, r0:r1] = N[rows[:n], mined[d, r0:r1]]
                mined_margins[d, r0:r1][:, blocked] = margin_buf[:, rows[:n], mined[d, r0:r1]].T

    if mean_mining:
        # direction by direction, then block by block, which fixes the
        # totals' rounding
        for sums in block_sums.reshape(-1, K):
            comp += sums
        dSV -= diag_w[:, None] * V
        dSTU -= diag_w[:, None] * U
        dss = diag_w * pos[1]
        row_sums -= dss
        col_sums -= dss
        dS = ProjectedGradient(dSV * scale, dSTU * scale, row_sums * scale, col_sums * scale)
    else:
        # free the block buffers and their views before the entries' temporaries
        sim_buf = mask_buf = base_buf = crit_buf = hinge_buf = margin_buf = None
        N = base = crit = hinge = block = None
        grads = []
        for d in (0, 1):
            # (K, B) in column-major order, the layout of a fancy-indexed
            # (K, B, B) stack, so the level sums below keep its rounding
            args = ((negs[d] - pos[d])[:, None] + mined_margins[d]).T
            comp += np.maximum(args, 0.0).sum(axis=1)
            grads.append(np.dot(w, (args > 0.0).astype(np.float64)) / B)
        g_v, g_t = grads
        # dS's 3B entries, in the order of the docstring
        r = np.concatenate([mined[0], rows, rows])
        c = np.concatenate([rows, mined[1], rows])
        val = np.concatenate([g_v, g_t, -g_v - g_t])
        dss = val * np.concatenate([negs[0], negs[1], pos[1]])
        dS = ProjectedGradient(
            _scatter_rows(r, val, V[c], B),
            _scatter_rows(c, val, U[r], B),
            np.bincount(r, weights=dss, minlength=B),
            np.bincount(c, weights=dss, minlength=B),
        )

    comp /= B
    return comp, dS, mined[0], mined[1]


def _scatter_rows(idx, vals, X, n: int) -> np.ndarray:
    """``sum_e vals[e] * X[e]`` per target row ``idx[e]``, as an (n, D) array:
    one ``bincount`` over the flat cells ``idx * D + lane``."""
    D = X.shape[1]
    flat = (idx[:, None] * D + np.arange(D)).reshape(-1)
    return np.bincount(flat, weights=(vals[:, None] * X).reshape(-1), minlength=n * D).reshape(n, D)


def cosine_backward(dS, U, V, u_norms, v_norms):
    """Backpropagate a gradient w.r.t. ``S = U @ V.T`` onto the raw row stacks.

    ``U`` and ``V`` are the unit rows of the raw stacks and ``u_norms``,
    ``v_norms`` their row norms; the results are the gradients w.r.t. the
    raw (unnormalised) rows. ``dS`` is the ``ProjectedGradient`` that
    ``triplet_terms`` returns, which already holds the products.
    """
    dX = (dS.dSV - dS.row_sums[:, None] * U) / u_norms[:, None]
    dY = (dS.dSTU - dS.col_sums[:, None] * V) / v_norms[:, None]
    return dX, dY
