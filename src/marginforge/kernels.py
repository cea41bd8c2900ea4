"""Hot numeric kernels of a training step, one float64 numpy path each.

* ``pairwise_cosine``     - B x B cosine similarity between two row stacks;
  ``cli inspect-margins`` and the tests call it, while training and
  evaluation form ``S`` only in row blocks
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
one block of R anchor rows at a time, R = BLOCK_VALUES // B, from the unit
rows: ``U[r0:r1] @ V.T`` for direction text and ``V[r0:r1] @ U.T`` for
direction video, both into one (2, R, B) buffer, so no pass reads ``S`` by
columns. A margin level is a scalar or a row source (``margin.ExpertMargins``;
``objective._margin_levels`` states the contract): product rows, formed one
block at a time, under an affine map, with a bound on its margins. The full
scan and mean mining's loss map whole blocks; pruned hardest mining maps
only the cells it scores. ``dS`` is never formed either: it is applied to the
unit rows and returned as a ``ProjectedGradient`` of B x D values. Under
hardest mining it has 3B entries, applied after the blocks, once their
buffers are freed; under mean mining each block's part is applied as the
block finishes. At large B every pass over the hinges stays in cache; up
to B = 181 a batch is one block.

Mining: both minings mine one negative per anchor and direction, the
argmax of the criterion that ``_criterion`` states; hardest mining takes
its loss there. Per block, ``_mine_full`` scores every cell and, at B >=
PRUNE_MIN_B, ``_mine_pruned`` only the cells that can win. It takes j*, the
cell of largest ``s_neg - s_pos`` outside the anchor's own, and scores it
exactly: that score ``lb`` is a lower bound on the row's best. With level
weights w >= 0 a cell scores at most ``W * max(0, s_neg - s_pos + A)``, W
the criterion weights' sum and A the largest of the scalar levels and the
row sources' bounds, which no margin off the anchors' own cells exceeds, so
only cells with ``s_neg >= s_pos + lb / W - A`` can reach ``lb``; a slack
of (2K + 8) ulps of the values' size ``|s_pos| + lb / W + |A|``, K the
criterion's level count, covers every rounding of that bound, since
rounding is monotone. Both selectors score a cell by ``_criterion``, so
with the same bits; the smallest index of the best score wins, and a row
whose best score is 0 mines its first index that is not the anchor, as
``argmax`` of the full criterion does. For finite inputs the mined indices,
and so ``comp`` and ``dS``, do not depend on the selector; a looser A
only admits more candidates. Per hardest-mining call on a
``bigbatch``-recipe run's inputs, where 0.24% of the cells are candidates
(0.235% with each row's exact largest margin for A), a call through the
pruned selector takes 0.39-0.54 of the full scan's time at B=1024 and
0.51-0.63 at B=256, and 1.24-1.44 times as long at B=64, where some 50
small numpy calls per block dominate (PRUNE_MIN_B; the range of 7
alternating rounds in each of two runs, 2-core x86_64, 1 BLAS thread).
"""

import numpy as np

__all__ = [
    "ProjectedGradient",
    "pairwise_cosine",
    "triplet_terms",
    "cosine_backward",
]

# values per row block of ``triplet_terms``' (R, B) planes and of
# ``evaluation``'s (R, n) score blocks: 256 KiB each, small enough that a
# block's passes stay in L2
BLOCK_VALUES = 1 << 15
# smallest B at which both minings mine through the pruned selector:
# per hardest-mining call on a training run's inputs (2-core x86_64, 1 BLAS
# thread, the medians of two runs of 7 alternating rounds) it took 1.04 and
# 1.12 of the full scan's time at B=96, 0.79 and 0.88 at B=128, and 0.63
# and 0.73 at B=192; the crossover was not measured on mean-mining calls
PRUNE_MIN_B = 128
# float64 machine epsilon, looked up once rather than per block
_EPS = float(np.finfo(np.float64).eps)


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


def _criterion(base, gathered, layout, w, out=None):
    """The mining criterion ``sum_k w[k] * max(0, base + m_k)`` at an array
    of cells, its one statement: both selectors score a cell with these
    operations in this level order, so with the same bits.

    ``base`` holds ``s_neg - s_pos`` per cell and ``gathered`` the margins
    of the non-scalar levels, an (L, ...) array that broadcasts against
    ``base``; ``layout`` is ``(blocked, scalars, values)``: the levels whose
    margins are gathered, the scalar levels and their values. ``out``, if
    given, is the (K, ...) buffer to work in; the criterion is its first
    entry.
    """
    blocked, scalars, values = layout
    column = (-1,) + (1,) * base.ndim  # a value per level, against the cells
    X = np.empty((len(w),) + base.shape) if out is None else out
    X[blocked] = gathered
    X[scalars] = values.reshape(column)
    X += base
    np.maximum(X, 0.0, out=X)
    X *= w.reshape(column)
    crit = X[0]
    for k in range(1, len(w)):
        crit += X[k]
    return crit


def _margins_at(planes, cells, cell_map):
    """The (L, cells) margins at flat ``cells`` of the (L, m) ``planes``;
    ``cell_map``, if not None, is the ``(-scale, offset)`` columns of the
    levels' maps, still to be applied to what the planes hold."""
    at = planes[:, cells]
    if cell_map is not None:
        at *= cell_map[0]
        at += cell_map[1]
    return at


def _mine_full(N, pos, margins, layout, w, r0, buf):
    """Both directions' hardest negatives of one block: the argmax of the
    criterion at every cell but the anchor's own.

    Takes ``N``, ``pos``, ``layout``, ``w`` and ``r0`` as ``_mine_pruned``
    does, except that ``w`` may sum to 0; ``margins`` is the (L, n, B)
    margin rows of the non-scalar levels, mapped, and ``buf`` is a (K + 1,
    2 * R * B) float buffer, R >= n: ``s_neg - s_pos`` in its last row and
    the criterion's K levels in the others, each row both directions' block.
    """
    buf = buf[:, : N.size].reshape(-1, *N.shape)
    base = np.subtract(N, pos[:, :, None], out=buf[-1])
    crit = _criterion(base, margins[:, None], layout, w, out=buf[:-1])
    crit.reshape(2, -1)[:, r0 :: N.shape[2] + 1] = -np.inf  # the anchors' own cells
    return np.argmax(crit, axis=2).reshape(-1)


def _mine_pruned(N, pos, planes, cell_map, A, layout, w, r0, buf):
    """Both directions' hardest negatives of one block, scoring only the
    cells that can win: ``_mine_full``'s result, bit for bit.

    ``N`` is the (2, n, B) block of S for anchors ``r0:r0 + n``, with their
    own cells at ``-inf``; ``pos`` holds the (2, n) positives, ``planes``
    the (L, n, B) rows of the criterion's non-scalar levels, whose margins
    are ``_margins_at`` them under ``cell_map``, ``A`` is at least every
    off-diagonal margin of every level, and ``w`` holds the criterion's
    weights, of positive sum; ``buf`` is a bool buffer of at least 2nB
    values, for the candidate mask. Returns the mined column of each of the
    2n rows.
    """
    _, n, B = N.shape
    mask = buf[: N.size].reshape(N.shape)
    flat, pos_flat = N.reshape(-1), pos.reshape(-1)
    anchors = np.arange(2 * n)
    own = anchors % n  # each row's anchor, within the block
    starts, offsets = anchors * B, own * B  # each row's first cell in N and in planes
    planes = planes.reshape(len(planes), n * B)
    # j*, the largest s_neg of each row, scored exactly, is a lower bound
    star = np.argmax(N, axis=2).reshape(-1)
    at = _margins_at(planes, offsets + star, cell_map)
    lb = _criterion(flat[starts + star] - pos_flat, at, layout, w)
    # a cell scores at most W * max(0, s_neg - s_pos + A); keep those that
    # may reach lb, less a slack that covers every rounding of the bound
    ratio = lb.reshape(2, n) / w.sum()
    slack = (2 * len(w) + 8) * _EPS
    floor = pos + (ratio - A) - slack * (np.abs(pos) + ratio + abs(A))
    np.greater_equal(N, floor[:, :, None], out=mask)
    mask.reshape(-1)[starts + star] = True
    cand = np.flatnonzero(mask)
    row = cand // B
    col = cand - starts[row]
    at = _margins_at(planes, offsets[row] + col, cell_map)
    crit = _criterion(flat[cand] - pos_flat[row], at, layout, w)
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
):
    """Mined triplet hinge totals for both retrieval directions.

    U and V are the B x D unit rows of the videos and the texts, so the
    similarity matrix is ``S = U @ V.T`` (rows = videos, cols = texts), of
    which only row blocks are formed; M is a sequence of K margin levels,
    each a scalar or a row source such as ``margin.ExpertMargins``: rows
    ``r0:r1`` of its B x B products from ``products(r0, r1, out)``, its
    margins ``g * -scale + offset`` and ``bound`` at least every margin off
    the diagonal (``objective._margin_levels`` states and checks that
    contract); w holds their K weights, which must be nonnegative
    (``ValueError`` otherwise, as for K = 0 or a w of another length): the
    pruned path's bound needs it, and every caller's weights, 1 and the
    slots' lambda * renorm and (1 - lambda) * renorm, are. Level hinges for
    anchor i use negatives S[j, i] (direction video) and S[i, j] (direction
    text) against the positive S[i, i], both with margins row i.

    Returns ``(comp, dS, mined_v, mined_t)`` where ``comp[k]`` is the
    per-level total (mean over anchors, both directions summed, evaluated at
    the mined negative or averaged over all negatives when ``mean_mining``),
    ``dS`` is the gradient of ``sum_k w[k] * comp[k]`` w.r.t. S, and the
    mined arrays give the selected negative index per anchor (argmax of the
    weighted combined term; ties resolve to the smallest index). ``dS`` is
    a ``ProjectedGradient`` of U and V. Under hardest mining it has 3B
    entries, in this order: direction video's cells ``(mined_v[i], i)``,
    direction text's cells ``(i, mined_t[i])``, then the diagonal, which
    both directions subtract from; each product and sum adds its entries in
    that order, with one ``bincount``.

    Memory is a few (R, B) planes: anchors are taken R = BLOCK_VALUES // B
    rows at a time. One (2, R, B) buffer holds both directions' blocks of
    S, each formed once with its positives on its own diagonal, and one
    (L, R, B) buffer the product rows of the L non-scalar levels, formed
    once per block for both directions. The full scan and mean mining map
    each product plane in place (``g *= -scale``, then ``g += offset``, the
    operations of ``ExpertMargins.rows``); pruned hardest mining keeps the
    products and applies the same two operations at j*, the candidates and
    the mined cells alone, so a margin has the same bits on either path.
    Both minings mine through the selectors of the module docstring: the
    pruned one adds a (2, R, B) bool candidate mask, L + 2.25 planes in
    all, and the full scan adds ``s_neg - s_pos`` and the criterion's K
    levels for both directions, L + 2K + 4 planes. Mean mining adds three
    planes for its loss. Under hardest mining the mined negatives and
    margins are gathered from the block buffers, and the level totals and
    dS's entries come from the B mined entries per direction only, so they
    do not depend on R, and the entries are applied once the block buffers
    are freed; under mean mining ``comp`` is summed block by block, in
    direction-then-block order, and each block's weighted active cells are
    multiplied into ``dS``'s products with the unit rows.
    """
    levels = [m if hasattr(m, "products") else float(m) for m in M]
    blocked = [k for k, m in enumerate(levels) if not isinstance(m, float)]
    w = np.ascontiguousarray(w, dtype=np.float64)
    if w.shape != (len(levels),):
        raise ValueError(f"{w.size} level weights for {len(levels)} margin levels")
    if not levels:
        raise ValueError("need at least one margin level")
    if (w < 0.0).any():
        raise ValueError(f"level weights must be nonnegative, got {w.tolist()}")
    K, B = len(levels), U.shape[0]
    R = min(B, max(1, BLOCK_VALUES // B))
    rows = np.arange(B)
    scalars = [k for k, m in enumerate(levels) if isinstance(m, float)]
    layout = (blocked, scalars, np.array([levels[k] for k in scalars]))
    sources = [levels[k] for k in blocked]
    # a criterion of weight 0 is 0 everywhere and gives no bound to prune by
    pruned = B >= PRUNE_MIN_B and w.sum() > 0.0
    if pruned:
        scratch = np.empty(2 * R * B, dtype=bool)
        # at least every criterion margin off the anchors' own cells
        A = max([float(m.bound) for m in sources] + layout[2].tolist())
    else:
        scratch = np.empty((K + 1, 2 * R * B))
    # the full scan and mean mining's loss read whole margin planes, mapped
    # in place; pruned hardest mining keeps the products and maps only the
    # cells it scores, by the levels' maps g -> g * -scale + offset as (L, 1)
    # columns
    whole = mean_mining or not pruned
    cell_map = None
    if not whole:
        maps = np.array([[-m.scale, m.offset] for m in sources]).reshape(-1, 2)
        cell_map = (maps[:, :1], maps[:, 1:])
    # each direction's block of S: S[:, r0:r1].T = V[r0:r1] @ U.T for
    # direction video, S[r0:r1] = U[r0:r1] @ V.T for direction text
    factors = ((V, U), (U, V))

    comp = np.zeros(K)
    mined = np.empty((2, B), dtype=np.int64)
    # each direction's positives S[i, i], read off its own blocks' diagonals
    pos = np.empty((2, B))
    margin_buf = np.empty((len(blocked), R, B))
    # both directions' blocks, each plane C-contiguous for any block size
    sim_buf = np.empty(2 * R * B)
    if mean_mining:
        base_buf, hinge_buf, wmat_buf = (np.empty((R, B)) for _ in range(3))
        scale = 1.0 / (B * (B - 1))
        block_sums = np.empty((2, -(-B // R), K))
        dSV, dSTU = np.zeros(U.shape), np.zeros(V.shape)
        row_sums, col_sums = np.zeros(B), np.zeros(B)
        # minus the diagonal cells of dS, before the scale
        diag_w = np.zeros(B)
        # dS's product and dS * S sums on each side: dS @ V and the row
        # sums, dS.T @ U and the column sums
        sides = ((dSV, row_sums), (dSTU, col_sums))
    else:
        negs = np.empty((2, B))
        # every level's margin at the mined negative, per direction and anchor;
        # the scalar levels' columns are filled here, the others per block
        mined_margins = np.empty((2, B, K))
        mined_margins[:] = [m if isinstance(m, float) else 0.0 for m in levels]

    for r0 in range(0, B, R):
        r1 = min(r0 + R, B)
        n = r1 - r0
        planes, block = margin_buf[:, :n], list(levels)
        for slot, k in enumerate(blocked):
            block[k] = sources[slot].products(r0, r1, planes[slot])
            if whole:
                block[k] *= -sources[slot].scale
                block[k] += sources[slot].offset
        # the anchors' own entries: (i - r0, i) for i in [r0, r1)
        diag = np.s_[r0 :: B + 1]
        N = sim_buf[: 2 * n * B].reshape(2, n, B)
        for d, (X, Y) in enumerate(factors):
            np.matmul(X[r0:r1], Y.T, out=N[d])
        pos[:, r0:r1] = N.reshape(2, -1)[:, diag]
        N.reshape(2, -1)[:, diag] = -np.inf
        if pruned:
            found = _mine_pruned(N, pos[:, r0:r1], planes, cell_map, A, layout, w, r0, scratch)
        else:
            found = _mine_full(N, pos[:, r0:r1], planes, layout, w, r0, scratch)
        mined[:, r0:r1] = found.reshape(2, n)
        if not mean_mining:
            cells = np.arange(0, 2 * n * B, B) + found
            negs[:, r0:r1] = N.reshape(-1)[cells].reshape(2, n)
            at = _margins_at(planes.reshape(-1, n * B), cells % (n * B), cell_map)
            mined_margins[:, r0:r1, blocked] = at.T.reshape(2, n, -1)
            continue
        # the positives back in the anchors' own cells, for dS * S
        N.reshape(2, -1)[:, diag] = pos[:, r0:r1]
        for d, (X, Y) in enumerate(factors):
            base, hinge, wmat = base_buf[:n], hinge_buf[:n], wmat_buf[:n]
            np.subtract(N[d], pos[d, r0:r1, None], out=base)  # s_neg - s_pos
            wmat.fill(0.0)
            # accumulate level by level, in the summation order of the oracle
            for k in range(K):
                np.add(base, block[k], out=hinge)
                np.maximum(hinge, 0.0, out=hinge)
                hinge.reshape(-1)[diag] = 0.0  # the anchors' own cells
                block_sums[d, r0 // R, k] = hinge.sum() / (B - 1)
                np.greater(hinge, 0.0, out=hinge)  # the level's active cells
                hinge *= w[k]
                wmat += hinge
            # the block's cells of dS, unscaled: wmat[a, j] at (j, i) for
            # direction video and at (i, j) for direction text, i = r0 + a
            diag_w[r0:r1] += wmat.sum(axis=1)
            np.multiply(wmat, N[d], out=base)  # the block's cells of dS * S
            # direction video's block is dS's columns r0:r1, direction text's
            # its rows: each adds to all rows of one side, rows r0:r1 of the other
            (P, p_sums), (Q, q_sums) = sides[d], sides[1 - d]
            P += wmat.T @ X[r0:r1]
            Q[r0:r1] += wmat @ Y
            p_sums += base.sum(axis=0)
            q_sums[r0:r1] += base.sum(axis=1)

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
        sim_buf = scratch = margin_buf = planes = N = block = None
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
