"""The benchmark's layer map against the package.

``perfbench/tracer.py`` times the functions named in its ``LAYERS`` and
reports a layer it cannot find as 0 rather than failing. This test pins which
layers are absent from ``marginforge``, so a renamed or deleted hot-path
function fails here instead of silently reading 0 in every traced run.
"""

import sys
from importlib import import_module
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import LAYERS  # noqa: E402

# traced names whose code is gone from the package
KNOWN_MISSING = {
    "data.fnv1a64",
    "experts.pairwise_distances",
    "margin.rescale_margins",
    "margin.batch_stats",
    "objective.similarity_matrix",
}


def test_missing_layers_are_exactly_the_known_ones():
    missing = {
        f"{module}.{name}"
        for module, name, _ in LAYERS
        if not hasattr(import_module(f"marginforge.{module}"), name)
    }
    assert missing == KNOWN_MISSING
