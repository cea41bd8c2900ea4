"""Named RNG sub-streams so every source of randomness hangs off one seed."""

import numpy as np

# Fixed stream tags. Never renumber: generated datasets and checkpoints
# depend on these for reproducibility.
STREAMS = {
    "init": 1,
    "shuffle": 2,
    "data_latents": 100,
    "data_maps": 101,
    "data_assign": 102,
    "data_video_noise": 103,
    "data_text_noise": 104,
    "data_sse_noise": 105,
    "data_split": 106,
}


def named_rng(seed: int, stream: str, *key: int) -> np.random.Generator:
    """Generator for a named sub-stream of `seed`, optionally keyed (e.g. by epoch)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(STREAMS[stream], *key)))
