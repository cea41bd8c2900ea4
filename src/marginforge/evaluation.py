"""Bidirectional retrieval metrics: R@K, median rank, Rsum.

Ranks are deterministic under ties: an item tied with the positive outranks
it only when its index is smaller, so results are platform-reproducible and
mildly pessimistic for the positive.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, NonSquareError

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


def evaluate_bidirectional(S, ks=DEFAULT_KS) -> tuple[RetrievalReport, RetrievalReport, float]:
    """Reports for text->video (column scores) and video->text (row scores).

    The positive for query i is item i; rsum sums every configured R@K over
    both directions.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise NonSquareError(f"similarity matrix must be square, got {S.shape}")
    n = S.shape[0]
    if n == 0:
        raise EmptyInputError("empty similarity matrix")
    ks = tuple(sorted(ks))

    # every query's rank at once: 1 + strictly better scores plus
    # ties at a smaller index, i.e. above the diagonal for a column query
    # (text -> video) and below it for a row query (video -> text). Index
    # order is counted only in the columns and rows that hold a tie besides
    # the positive itself, which real-valued scores seldom do.
    pos = np.diag(S)
    index = np.arange(n)
    t2v_ranks = 1 + (S > pos[None, :]).sum(axis=0)
    ties = S == pos[None, :]
    cols = np.flatnonzero(ties.sum(axis=0) > 1)
    if cols.size:
        t2v_ranks[cols] += (ties[:, cols] & (index[:, None] < cols)).sum(axis=0)
    v2t_ranks = 1 + (S > pos[:, None]).sum(axis=1)
    ties = S == pos[:, None]
    rows = np.flatnonzero(ties.sum(axis=1) > 1)
    if rows.size:
        v2t_ranks[rows] += (ties[rows] & (index < rows[:, None])).sum(axis=1)

    reports = []
    for direction, ranks in (("text_to_video", t2v_ranks), ("video_to_text", v2t_ranks)):
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
