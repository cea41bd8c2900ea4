"""marginforge: adaptive-margin triplet training for two-tower retrieval.

Batch distances measured by single-modal supervision experts are rescaled
into per-pair margins for a triplet ranking objective, blending live-encoder
(dynamic) and frozen-embedding (static) experts over a training schedule.
Includes a synthetic planted-duplicate benchmark, retrieval metrics, and a
CLI (``marginforge train/eval/gen-data/inspect-margins/sweep``).
"""

__version__ = "0.1.0"
