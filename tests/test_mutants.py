"""Seeded byte mutants of every input format: each one loads or fails with a
``MarginForgeError``, never with an untyped exception.

A mutant is one single-byte substitution or one deletion of 1-7 bytes at a
random offset, drawn from numpy's generator seeded with 0. Data-file mutants
are re-signed in the manifest by the library's record rule
(``helpers.resign_manifest``), so that their parser runs rather than the
manifest check, and none fails that check; manifest mutants are not
re-signed. A mutant of a binary container, a
row file or a CKPT3 checkpoint, changes only the header line, whose payload
digest guards the rest. A targeted case writes a NaN into each row file's
payload under a correct digest.
"""

import re
import shutil

import numpy as np
import pytest

from marginforge import config as cfgmod
from marginforge.cli import main
from marginforge.data import (
    _FILES,
    MANIFEST_NAME,
    ROW_ROLES,
    SynthConfig,
    digest,
    generate,
    load_dataset,
    write_dataset,
)
from marginforge.errors import ChecksumError, MarginForgeError, ParseError
from marginforge.model import Checkpoint, ModelDims, init_params, read_checkpoint, write_checkpoint
from marginforge.trainer import TrainConfig, new_adam_state
from helpers import read_parts, resign_manifest

DATA = SynthConfig(
    n_items=12,
    n_concepts=8,
    duplicate_rate=0.5,
    video_dim=3,
    text_dim=3,
    latent_dim=2,
    frames_per_video=2,
    seed=1,
)
# 600 dataset mutants (100 per file), 300 config and 300 CKPT3-header mutants
MUTANTS_PER_FILE = 100


def mutate(rng, raw: bytes, end: int | None = None) -> bytes:
    """``raw`` with one byte of ``raw[:end]`` replaced, or 1-7 bytes deleted from it."""
    off = int(rng.integers(end or len(raw)))
    if rng.random() < 0.5:
        return raw[:off] + bytes([int(rng.integers(256))]) + raw[off + 1 :]
    return raw[:off] + raw[off + int(rng.integers(1, 8)) :]


def loads_or_fails_typed(load, path, raw: bytes) -> MarginForgeError | None:
    """Write ``raw`` to ``path`` and run ``load``; the typed error it raised, if any."""
    path.write_bytes(raw)
    try:
        load()
    except MarginForgeError as exc:
        return exc
    return None


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutants")
    write_dataset(generate(DATA), root / "data")
    return root / "data"


@pytest.mark.parametrize("role", [*_FILES, "manifest"])
def test_dataset_file_mutants_load_or_fail_typed(dataset_dir, role):
    work = dataset_dir.parent / f"work_{role}"
    shutil.copytree(dataset_dir, work)
    rng = np.random.default_rng([0, [*_FILES, "manifest"].index(role)])
    manifest = work / MANIFEST_NAME
    written = manifest.read_bytes()
    resign_manifest(work)
    assert manifest.read_bytes() == written
    target = manifest if role == "manifest" else work / _FILES[role]
    original = target.read_bytes()
    header_end = original.index(b"\n") + 1 if role in ROW_ROLES else None

    def resigned_load():
        resign_manifest(work)
        load_dataset(work)

    for _ in range(MUTANTS_PER_FILE):
        raw = mutate(rng, original, header_end)
        if role == "manifest":
            loads_or_fails_typed(lambda: load_dataset(work), target, raw)
        else:
            # re-signed, a mutant gets past the manifest check to its parser
            error = loads_or_fails_typed(resigned_load, target, raw)
            assert not (isinstance(error, ChecksumError) and "!= manifest" in str(error))


@pytest.mark.parametrize("role", ROW_ROLES)
def test_non_finite_payload_value_fails_naming_its_file(dataset_dir, role):
    work = dataset_dir.parent / f"nan_{role}"
    shutil.copytree(dataset_dir, work)
    target = work / _FILES[role]
    parts, payload = read_parts(target)
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[-1] = np.nan
    payload = values.tobytes()
    header = parts[:-1] + [digest(payload)]
    target.write_bytes(" ".join(header).encode("ascii") + b"\n" + payload)
    resign_manifest(work)
    message = f"{target}: row {DATA.n_items - 1} holds a non-finite value"
    with pytest.raises(ParseError, match=re.escape(message)):
        load_dataset(work)


def test_config_mutants_load_or_fail_typed(tmp_path):
    cfg = cfgmod.RunConfig(data=DATA, train=TrainConfig(batch_size=4, epochs=2))
    cfg.data_dir = "data"
    original = cfgmod.resolved_text(cfg).encode("utf-8")
    path = tmp_path / "run.cfg"
    rng = np.random.default_rng([0, 100])
    for _ in range(3 * MUTANTS_PER_FILE):
        loads_or_fails_typed(lambda: cfgmod.parse_config(path), path, mutate(rng, original))


def test_checkpoint_header_mutants_load_or_fail_typed(tmp_path):
    # a model-only file and a trainer file, whose header has the Adam fields
    model = init_params(ModelDims(DATA.video_dim, DATA.text_dim, 0, 4), 0)
    path = tmp_path / "model.ckpt"
    originals = []
    for ckpt in (Checkpoint(model), Checkpoint(model, new_adam_state(model), 2, 1, "abc")):
        write_checkpoint(ckpt, path)
        originals.append(path.read_bytes())
    rng = np.random.default_rng([0, 200])
    for original in originals:
        header_end = original.index(b"\n") + 1
        for _ in range(MUTANTS_PER_FILE * 3 // 2):
            raw = mutate(rng, original, header_end)
            loads_or_fails_typed(lambda: read_checkpoint(path), path, raw)


def test_gen_data_rejects_a_non_utf8_config(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"data.n_items = 12\n# caf\xe9\n")
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not UTF-8" in err
    assert not (tmp_path / "out").exists()
