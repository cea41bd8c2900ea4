"""Bidirectional retrieval metrics: R@K, median rank, Rsum.

Input contract: the kernels' unit rows, U for the n videos and V for their
n texts, whose similarity matrix is ``S = U @ V.T``; the positive of query i
is item i. Row counts that differ raise ``NonSquareError``, row dims that
differ ``DimMismatchError`` and n = 0 ``EmptyInputError``.

Memory: evaluation makes no n x n array. Each direction is ranked from its
own row blocks of R = ``kernels.BLOCK_VALUES // n`` query rows (at least
one), formed into one reused (R, n) buffer: ``U[r0:r1] @ V.T`` for
video->text and ``V[r0:r1] @ U.T`` for text->video, so a block's positives
lie on its own diagonal. The kernel BLAS picks depends on a product's
shape, so a block's scores can differ from a whole ``U @ V.T``'s in the
last bit; only scores within rounding of each other can rank differently.

Ties: the rank of query i's positive is 1 + #{j : s_ij > s_ii} +
#{j < i : s_ij = s_ii}; an item tied with the positive outranks it only
when its index is smaller, so ranks are deterministic and mildly
pessimistic for the positive. ``_ranks`` states the rule for both
directions.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimMismatchError, EmptyInputError, NonSquareError

DEFAULT_KS = (1, 5, 10)


@dataclass(frozen=True)
class RetrievalReport:
    direction: str  # "text_to_video" | "video_to_text"
    r_at: dict[int, float]  # K -> percentage in [0, 100]
    mdr: float
    ranks: np.ndarray  # 1-indexed rank of each query's positive


def recall_at_k(ranks, k: int) -> float:
    """Percentage of queries whose positive ranks within the top k."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise EmptyInputError("recall needs at least one rank")
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    return 100.0 * float(np.sum(ranks <= k)) / ranks.size


def median_rank(ranks) -> float:
    """Middle rank; mean of the two middle ranks for even counts."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise EmptyInputError("median rank needs at least one rank")
    return float(np.median(ranks))


def _ranks(X, Y) -> np.ndarray:
    """Rank of each query's positive under the tie rule, for both directions:
    query i scores item j by ``X[i] @ Y[j]``, and its positive is item i.

    Index order is counted only in a block that holds a tie besides its
    positives, which real-valued scores seldom do.
    """
    n = X.shape[0]
    R = min(n, max(1, kernels.BLOCK_VALUES // n))
    scores = np.empty((R, n))
    mask = np.empty((R, n), dtype=bool)
    index = np.arange(n)
    ranks = np.empty(n, dtype=np.int64)
    for r0 in range(0, n, R):
        r1 = min(r0 + R, n)
        S = np.matmul(X[r0:r1], Y.T, out=scores[: r1 - r0])
        hit = mask[: r1 - r0]
        queries = index[r0:r1]
        pos = S[queries - r0, queries][:, None]
        # a bool sum into int32 counts twice as fast as count_nonzero's intp
        np.greater(S, pos, out=hit)
        ranks[r0:r1] = hit.sum(axis=1, dtype=np.int32)
        np.equal(S, pos, out=hit)
        if np.count_nonzero(hit) > r1 - r0:
            hit &= index < queries[:, None]
            ranks[r0:r1] += hit.sum(axis=1, dtype=np.int32)
    ranks += 1
    return ranks


def evaluate_bidirectional(U, V, ks=DEFAULT_KS) -> tuple[RetrievalReport, RetrievalReport, float]:
    """Reports for text->video and video->text from the unit rows of n videos
    (U) and their n texts (V), whose similarity matrix is ``S = U @ V.T``.

    The positive for query i is item i; rsum sums every configured R@K over
    both directions.
    """
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if U.ndim != 2 or V.ndim != 2:
        raise DimMismatchError(f"expected two stacks of rows, got shapes {U.shape} and {V.shape}")
    if U.shape[0] != V.shape[0]:
        raise NonSquareError(f"video and text row counts differ: {U.shape} and {V.shape}")
    if U.shape[1] != V.shape[1]:
        raise DimMismatchError(f"video and text row dims differ: {U.shape} and {V.shape}")
    if U.shape[0] == 0:
        raise EmptyInputError("no items to rank")
    ks = tuple(sorted(ks))

    reports = []
    for direction, ranks in (("text_to_video", _ranks(V, U)), ("video_to_text", _ranks(U, V))):
        reports.append(
            RetrievalReport(
                direction=direction,
                r_at={k: recall_at_k(ranks, k) for k in ks},
                mdr=median_rank(ranks),
                ranks=ranks,
            )
        )
    rsum = float(sum(sum(rep.r_at.values()) for rep in reports))
    return reports[0], reports[1], rsum


def metrics_csv_text(t2v: RetrievalReport, v2t: RetrievalReport, rsum: float) -> str:
    """CSV with one row per direction and an rsum footer; 4 fractional digits."""
    ks = sorted(t2v.r_at)
    lines = ["direction," + ",".join(f"R{k}" for k in ks) + ",MdR"]
    for rep in (t2v, v2t):
        vals = [f"{rep.r_at[k]:.4f}" for k in ks] + [f"{rep.mdr:.4f}"]
        lines.append(rep.direction + "," + ",".join(vals))
    lines.append(f"rsum,{rsum:.4f}")
    return "\n".join(lines) + "\n"


def write_metrics_csv(path, t2v: RetrievalReport, v2t: RetrievalReport, rsum: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(metrics_csv_text(t2v, v2t, rsum))
