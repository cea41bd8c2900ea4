import hashlib
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from marginforge import data, experts, kernels
from marginforge.data import (
    MANIFEST_NAME,
    ROW_ROLES,
    SynthConfig,
    _load_labels,
    digest,
    generate,
    load_dataset,
    record_digest,
    write_dataset,
)
from marginforge.errors import (
    ChecksumError,
    ConfigError,
    DuplicateIdError,
    NonFiniteError,
    ParseError,
)
from marginforge.experts import StaticEmbeddingTable, load_frame_file
from marginforge.mathcore import unit_rows
from marginforge.model import ModelDims, init_params
from marginforge.trainer import evaluate_split
from helpers import ground_truth_equivalents, read_parts, resign_manifest


ROW_FILES = ["frames.frm1", "sse_text.emb1", "text.emb1", "sse_video.emb1"]


def dir_digest(path):
    return {p.name: digest(p.read_bytes()) for p in sorted(path.iterdir())}


# the dims and noise of the test_c6 recipe (BENCH_DATA in test_acceptance.py)
C6_DIMS = dict(
    duplicate_rate=0.5,
    latent_dim=2,
    video_dim=24,
    text_dim=20,
    frames_per_video=4,
    noise_video=0.2,
    noise_text=0.2,
)

# SHA-256 of manifest.txt of ``write_dataset(generate(cfg))``: the manifest
# binds labels.txt and every row file, so one digest pins every generated
# byte. The recipes are test_c6's and perfbench's bigbatch and ingest-eval
# set-ups, and the defaults. Like CKPT3_GOLDEN in test_formats.py these move
# only if numpy changes the streams of its ``Generator``.
GENERATE_GOLDEN = {
    "c6": (
        SynthConfig(n_items=512, n_concepts=320, seed=5, **C6_DIMS),
        "e8e97f82b6595d2328ed86a6b21edac12f1dd025e5cdf943ab6e7e5c447ff137",
    ),
    "bigbatch": (
        SynthConfig(n_items=2560, n_concepts=1600, seed=17, **C6_DIMS),
        "8d46c03bc4b5e24fa078b3473359e0444be822186fb9da96eac2dbaaa48f577e",
    ),
    "ingest-eval": (
        SynthConfig(n_items=4096, n_concepts=2560, seed=37, **C6_DIMS),
        "e816d6cf9b50a3f0bec34128d1a207606cd97c7a2a3a07e72f7a5a2881a67c7f",
    ),
    "defaults": (
        SynthConfig(),
        "4fa93632abe7e4b1586c9916dfa0aeace72a3fb76189a2ba69708403b61b0e7e",
    ),
}


class TestDigest:
    def test_known_vectors(self):
        # FIPS 180-2 SHA-256 test vectors
        assert digest(b"") == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        assert digest(b"abc") == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


class TestGenerate:
    def test_deterministic_per_seed(self, tmp_path):
        cfg = SynthConfig(n_items=16, n_concepts=12, duplicate_rate=0.5, seed=5)
        write_dataset(generate(cfg), tmp_path / "a")
        write_dataset(generate(cfg), tmp_path / "b")
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        base = SynthConfig(n_items=16, n_concepts=12, duplicate_rate=0.5, seed=5)
        other = SynthConfig(n_items=16, n_concepts=12, duplicate_rate=0.5, seed=6)
        write_dataset(generate(base), tmp_path / "a")
        write_dataset(generate(other), tmp_path / "b")
        assert dir_digest(tmp_path / "a") != dir_digest(tmp_path / "b")

    @pytest.mark.parametrize("recipe", list(GENERATE_GOLDEN))
    def test_bytes_match_the_golden_digest(self, tmp_path, recipe):
        cfg, expected = GENERATE_GOLDEN[recipe]
        write_dataset(generate(cfg), tmp_path)
        assert digest((tmp_path / MANIFEST_NAME).read_bytes()) == expected

    def test_peak_memory_is_about_two_frame_arrays(self):
        # frames, text and sse_text are formed in the arrays their noise
        # draws return; a copy beside each draw peaks at 4x the frames
        cfg = GENERATE_GOLDEN["bigbatch"][0]
        tracemalloc.start()
        try:
            ds = generate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * ds.frames.nbytes

    def test_rho_one_pairs_everyone(self):
        ds = generate(SynthConfig(n_items=12, n_concepts=6, duplicate_rate=1.0, seed=1))
        eq = ground_truth_equivalents(ds)
        assert all(len(v) == 1 for v in eq.values())

    def test_rho_zero_all_singletons(self):
        ds = generate(SynthConfig(n_items=10, n_concepts=10, duplicate_rate=0.0, seed=2))
        eq = ground_truth_equivalents(ds)
        assert all(len(v) == 0 for v in eq.values())

    def test_realized_duplicate_fraction(self):
        for rho, n, n_concepts in ((0.5, 64, 48), (0.25, 32, 28), (0.75, 40, 25)):
            ds = generate(
                SynthConfig(n_items=n, n_concepts=n_concepts, duplicate_rate=rho, seed=3)
            )
            eq = ground_truth_equivalents(ds)
            realized = sum(1 for v in eq.values() if v) / n
            assert abs(realized - rho) <= 1.0 / n + 1e-12

    def test_infeasible_configs_rejected(self):
        with pytest.raises(ConfigError):
            generate(SynthConfig(n_items=10, n_concepts=5, duplicate_rate=0.0))
        with pytest.raises(ConfigError):
            # 5 duplicated items cannot fill 3 shared concepts of size >= 2
            generate(SynthConfig(n_items=10, n_concepts=8, duplicate_rate=0.5))
        with pytest.raises(ConfigError):
            generate(SynthConfig(n_items=10, n_concepts=11, duplicate_rate=0.0))

    def test_noiseless_separation(self):
        cfg = SynthConfig(
            n_items=12, n_concepts=8, duplicate_rate=0.5, noise_video=0.0, noise_text=0.0, seed=4
        )
        ds = generate(cfg)
        U = unit_rows(ds.pooled_video(), "sse_video")[0]
        d = 1.0 - kernels.pairwise_cosine(U, U)
        same = ds.concepts[:, None] == ds.concepts[None, :]
        off = ~np.eye(len(ds), dtype=bool)
        assert np.max(np.abs(d[same & off])) < 1e-12
        assert np.min(d[~same]) > 0.01

    def test_splits_partition(self):
        ds = generate(SynthConfig(n_items=20, n_concepts=20, seed=9))
        assert set(ds.train_ids) | set(ds.val_ids) == set(ds.ids)
        assert not set(ds.train_ids) & set(ds.val_ids)
        assert len(ds.val_ids) >= 2 and len(ds.train_ids) >= 2


class TestGroundTruthEquivalents:
    def test_two_items_one_concept(self):
        ds = generate(SynthConfig(n_items=4, n_concepts=3, duplicate_rate=0.5, seed=7))
        eq = ground_truth_equivalents(ds)
        paired = {k for k, v in eq.items() if v}
        assert len(paired) == 2
        a, b = sorted(paired)
        assert eq[a] == {b} and eq[b] == {a}

    def test_matches_brute_force(self):
        ds = generate(SynthConfig(n_items=24, n_concepts=16, duplicate_rate=0.5, seed=8))
        eq = ground_truth_equivalents(ds)
        for i, item_id in enumerate(ds.ids):
            expected = {
                other
                for j, other in enumerate(ds.ids)
                if j != i and ds.concepts[j] == ds.concepts[i]
            }
            assert eq[item_id] == expected


class TestRoundTrip:
    def test_write_load_identity(self, tmp_path):
        ds = generate(SynthConfig(n_items=10, n_concepts=8, duplicate_rate=0.4, seed=11))
        write_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.ids == ds.ids
        np.testing.assert_array_equal(loaded.concepts, ds.concepts)
        np.testing.assert_array_equal(loaded.frames, ds.frames)
        np.testing.assert_array_equal(loaded.text, ds.text)
        np.testing.assert_array_equal(loaded.sse_video.embeddings, ds.sse_video.embeddings)
        np.testing.assert_array_equal(loaded.sse_text.embeddings, ds.sse_text.embeddings)
        assert loaded.train_ids == ds.train_ids
        assert loaded.val_ids == ds.val_ids

    # the fewest items a split takes, one frame, one-value rows, and more
    # items than concepts
    @pytest.mark.parametrize(
        "changes",
        [
            dict(n_items=4, n_concepts=4),
            dict(n_items=5, n_concepts=5, frames_per_video=1),
            dict(n_items=6, n_concepts=6, text_dim=1, video_dim=1),
            dict(n_items=33, n_concepts=20, duplicate_rate=0.6),
        ],
        ids=["fewest-items", "one-frame", "one-value-rows", "duplicates"],
    )
    def test_rows_stay_with_their_ids(self, tmp_path, changes):
        ds = generate(SynthConfig(**changes, seed=23))
        write_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.ids == ds.ids
        np.testing.assert_array_equal(loaded.concepts, ds.concepts)
        for name in ("frames", "text"):
            assert getattr(loaded, name).tobytes() == getattr(ds, name).tobytes()
        for name in ("sse_video", "sse_text"):
            table = getattr(loaded, name)
            assert table.ids == ds.ids
            assert table.embeddings.tobytes() == getattr(ds, name).embeddings.tobytes()
        assert (loaded.train_ids, loaded.val_ids) == (ds.train_ids, ds.val_ids)

    # generate's val rows are scattered among its train rows; a dataset may
    # also put them first, last or alternate them
    @pytest.mark.parametrize(
        "val_rows",
        [slice(0, 3), slice(7, 10), slice(0, None, 2)],
        ids=["val-first", "val-last", "interleaved"],
    )
    def test_splits_of_any_order_round_trip(self, tmp_path, val_rows):
        ds = generate(SynthConfig(n_items=10, n_concepts=10, seed=24))
        val = set(ds.ids[val_rows])
        ds = replace(ds, split=["val" if i in val else "train" for i in ds.ids])
        assert ds.val_ids == [i for i in ds.ids if i in val]
        write_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert (loaded.train_ids, loaded.val_ids) == (ds.train_ids, ds.val_ids)

    def test_labels_file_holds_each_id_once_with_its_split(self, tmp_path):
        ds = generate(SynthConfig(n_items=10, n_concepts=8, duplicate_rate=0.4, seed=25))
        write_dataset(ds, tmp_path)
        lines = (tmp_path / "labels.txt").read_text(encoding="utf-8").splitlines()
        val = set(ds.val_ids)
        assert lines == ["LBL2 10"] + [
            f"{i} {c} {'val' if i in val else 'train'}" for i, c in zip(ds.ids, ds.concepts)
        ]

    def test_row_files_hold_raw_values_and_no_ids(self, tmp_path):
        ds = generate(SynthConfig(n_items=10, n_concepts=8, duplicate_rate=0.4))
        write_dataset(ds, tmp_path)
        for filename, tag, rows in [
            ("frames.frm1", "FRM4", ds.frames),
            ("text.emb1", "EMB3", ds.text),
            ("sse_video.emb1", "EMB3", ds.sse_video.embeddings),
            ("sse_text.emb1", "EMB3", ds.sse_text.embeddings),
        ]:
            parts, payload = read_parts(tmp_path / filename)
            assert parts == [tag, *map(str, rows.shape), digest(payload)]
            assert payload == rows.astype("<f8").tobytes()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ParseError):
            load_dataset(tmp_path)

    def test_checksum_flip_rejected(self, tmp_path):
        ds = generate(SynthConfig(n_items=8, n_concepts=8, seed=12))
        write_dataset(ds, tmp_path)
        target = tmp_path / "text.emb1"
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        target.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_dataset(tmp_path)

    def test_missing_file_rejected(self, tmp_path):
        ds = generate(SynthConfig(n_items=8, n_concepts=8, seed=13))
        write_dataset(ds, tmp_path)
        (tmp_path / "labels.txt").unlink()
        with pytest.raises(ParseError):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "header",
        ["{tag} x", "{tag} two", "{tag} 1.5", "{tag} {n} extra", "{tag} +{n}", "{tag} 1_0", "{tag} -0"],
    )
    def test_malformed_count_header_rejected(self, tmp_path, header):
        ds = generate(SynthConfig(n_items=8, n_concepts=8, seed=17))
        write_dataset(ds, tmp_path)
        target = tmp_path / "labels.txt"
        lines = target.read_text(encoding="utf-8").splitlines()
        lines[0] = header.format(tag="LBL2", n=len(lines) - 1)
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # re-sign the manifest so the header, not the checksum, is what fails
        resign_manifest(tmp_path)
        with pytest.raises(ParseError) as excinfo:
            load_dataset(tmp_path)
        assert excinfo.value.line == 1


class TestLabelsFile:
    def write(self, tmp_path, text):
        p = tmp_path / "labels.txt"
        p.write_text(text, encoding="utf-8")
        return p

    def test_loads_ids_concepts_and_splits_in_file_order(self, tmp_path):
        p = self.write(tmp_path, "LBL2 4\nd 3 val\nb 0 train\nc 3 val\na 1 train\n")
        split = ["val", "train", "val", "train"]
        assert _load_labels(p) == (["d", "b", "c", "a"], [3, 0, 3, 1], split)

    def test_repeated_label_id_rejected(self, tmp_path):
        p = self.write(tmp_path, "LBL2 2\na 1 train\na 2 val\nb 3 train\n")
        with pytest.raises(DuplicateIdError, match=r"line 3: \S*labels\.txt: duplicate id 'a'"):
            _load_labels(p)

    @pytest.mark.parametrize("token", ["+2", "1_0", "-0", "1.5"])
    def test_bad_concept_label_rejected(self, tmp_path, token):
        p = self.write(tmp_path, f"LBL2 2\na 1 train\nb {token} val\n")
        with pytest.raises(ParseError) as excinfo:
            _load_labels(p)
        assert excinfo.value.line == 3

    def test_concept_beyond_int64_rejected_at_its_line(self, tmp_path):
        largest = np.iinfo(np.int64).max
        p = self.write(tmp_path, f"LBL2 1\na {largest} val\n")
        assert _load_labels(p) == (["a"], [largest], ["val"])
        p = self.write(tmp_path, f"LBL2 2\na 1 train\nb {largest + 1} val\n")
        with pytest.raises(ParseError, match="int64") as excinfo:
            _load_labels(p)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize(
        "record, message",
        [
            ("b 2 Train", "split 'Train' is neither 'train' nor 'val'"),
            ("b 2 test", "split 'test' is neither 'train' nor 'val'"),
            ("b 2 val2", "split 'val2' is neither 'train' nor 'val'"),
            ("b 2 ", "expected '<id> <concept> <split>'"),
            ("b val", "expected '<id> <concept> <split>'"),
            ("b 2 val val", "expected '<id> <concept> <split>'"),
        ],
        ids=["Train", "test", "val2", "empty", "two-tokens", "four-tokens"],
    )
    def test_bad_record_rejected_at_its_line(self, tmp_path, record, message):
        p = self.write(tmp_path, f"LBL2 2\na 1 train\n{record}\n")
        with pytest.raises(ParseError, match=f"^line 3: {re.escape(f'{p}: {message}')}$"):
            _load_labels(p)

    def test_edited_split_word_moves_the_item(self, tmp_path):
        # the split is a field of the item's one record: no other file to disagree
        ds = generate(SynthConfig(n_items=8, n_concepts=8, seed=17))
        write_dataset(ds, tmp_path)
        target = tmp_path / "labels.txt"
        lines = target.read_text(encoding="utf-8").splitlines()
        row = ds.rows(ds.val_ids[:1])[0]
        lines[1 + row] = lines[1 + row].replace(" val", " train")
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        resign_manifest(tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.val_ids == ds.val_ids[1:]
        assert loaded.train_ids == [i for i in ds.ids if i not in loaded.val_ids]


class TestManifest:
    """``load_dataset`` checks every manifest line before it hashes any file."""

    def write(self, tmp_path, edit):
        write_dataset(generate(SynthConfig(n_items=8, n_concepts=8, seed=18)), tmp_path)
        manifest = tmp_path / MANIFEST_NAME
        lines = manifest.read_text(encoding="utf-8").splitlines()
        edit(lines)
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return lines

    def rejected_at(self, tmp_path, lineno):
        with pytest.raises(ParseError) as excinfo:
            load_dataset(tmp_path)
        assert excinfo.value.line == lineno
        return str(excinfo.value)

    def test_manifest4_binds_row_files_by_header_line(self, tmp_path):
        lines = self.write(tmp_path, lambda lines: None)
        assert lines[0] == "MANIFEST4" and len(lines) == 6
        row_roles = []
        for line in lines[1:]:
            role, filename, hexdigest = line.split()
            raw = (tmp_path / filename).read_bytes()
            if role in ROW_ROLES:
                row_roles.append(role)
                assert hexdigest == digest(raw[: raw.index(b"\n") + 1]) != digest(raw)
            else:
                assert hexdigest == digest(raw)
            assert hexdigest == record_digest(role, tmp_path / filename)
        assert row_roles == ["frames", "text", "sse_video", "sse_text"]

    def test_manifest1_rejected_with_regenerate_hint(self, tmp_path):
        self.write(tmp_path, lambda lines: lines.__setitem__(0, "MANIFEST1"))
        assert "gen-data" in self.rejected_at(tmp_path, 1)

    def test_manifest2_rejected_with_regenerate_hint(self, tmp_path):
        self.write(tmp_path, lambda lines: lines.__setitem__(0, "MANIFEST2"))
        assert "gen-data" in self.rejected_at(tmp_path, 1)

    def test_unknown_role_rejected(self, tmp_path):
        self.write(tmp_path, lambda lines: lines.insert(3, "extra extra.txt " + "0" * 64))
        self.rejected_at(tmp_path, 4)

    def test_repeated_role_rejected(self, tmp_path):
        # the repeat names the right file with a valid digest: only the repeat is wrong
        self.write(tmp_path, lambda lines: lines.append(lines[5]))
        self.rejected_at(tmp_path, 7)

    def test_path_outside_the_directory_rejected(self, tmp_path):
        data = tmp_path / "data"
        outside = tmp_path / "outside_labels.txt"

        def point_outside(lines):
            role, filename, hexdigest = lines[5].split()
            outside.write_bytes((data / filename).read_bytes())
            lines[5] = f"{role} ../outside_labels.txt {hexdigest}"

        self.write(data, point_outside)
        self.rejected_at(data, 6)

    def test_malformed_digest_rejected(self, tmp_path):
        self.write(tmp_path, lambda lines: lines.__setitem__(2, lines[2][:-1]))
        self.rejected_at(tmp_path, 3)

    def test_missing_role_rejected(self, tmp_path):
        self.write(tmp_path, lambda lines: lines.pop())
        with pytest.raises(ParseError, match="missing roles \\['labels'\\]"):
            load_dataset(tmp_path)

    def test_lines_checked_before_any_hashing(self, tmp_path):
        # a corrupt file listed before a bad line: the bad line is reported, not the checksum
        def corrupt_then_repeat(lines):
            (tmp_path / "frames.frm1").write_bytes(b"FRM3 0 1 1\n")
            lines.append(lines[1])

        self.write(tmp_path, corrupt_then_repeat)
        self.rejected_at(tmp_path, 7)


class TestRowFilesStayBound:
    """A row file's manifest record covers its header line and the header's
    digest its payload, so an edit of either fails typed, naming the file,
    with the manifest left as written."""

    def dataset_dir(self, tmp_path):
        write_dataset(generate(SynthConfig(n_items=8, n_concepts=8, seed=20)), tmp_path)
        return tmp_path

    def test_swapped_frame_counts_fail_the_manifest_check(self, tmp_path):
        # (8, 4, 24) frames read as (8, 24, 4): the same payload under its own
        # digest, which the payload digest alone would accept
        data_dir = self.dataset_dir(tmp_path)
        target = data_dir / "frames.frm1"
        parts, payload = read_parts(target)
        assert parts[:4] == ["FRM4", "8", "4", "24"] and parts[4] == digest(payload)
        swapped = " ".join(["FRM4", "8", "24", "4", parts[4]]).encode("ascii")
        target.write_bytes(swapped + b"\n" + payload)
        assert load_frame_file(target).shape == (8, 24, 4)
        with pytest.raises(ChecksumError, match=r"^frames\.frm1: header line checksum"):
            load_dataset(data_dir)

    @pytest.mark.parametrize("filename", ROW_FILES)
    @pytest.mark.parametrize(
        "edit",
        [
            lambda raw: raw[:-5] + bytes([raw[-5] ^ 0x10]) + raw[-4:],
            lambda raw: raw[:-8],
            lambda raw: raw + b"\x00",
        ],
        ids=["flipped-byte", "one-value-short", "appended-byte"],
    )
    def test_payload_edit_fails_naming_the_file(self, tmp_path, filename, edit):
        data_dir = self.dataset_dir(tmp_path)
        target = data_dir / filename
        target.write_bytes(edit(target.read_bytes()))
        with pytest.raises(ChecksumError, match="^" + re.escape(f"{target}: payload digest")):
            load_dataset(data_dir)


class TestHashingBudget:
    """``write_dataset`` and ``load_dataset`` each hash every row-file payload
    byte once, and beyond that only the row files' header lines and the
    labels file."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        sizes = []

        class Sha256:
            def __init__(self, initial=b""):
                self.inner = hashlib.sha256()
                self.update(initial)

            def update(self, chunk):
                sizes.append(memoryview(chunk).nbytes)
                self.inner.update(chunk)

            def hexdigest(self):
                return self.inner.hexdigest()

        for module in (data, experts):
            monkeypatch.setattr(module, "hashlib", SimpleNamespace(sha256=Sha256))
        return sizes

    def test_each_byte_hashed_once_per_write_and_once_per_load(self, tmp_path, hashed):
        ds = generate(SynthConfig(n_items=16, n_concepts=12, duplicate_rate=0.5, seed=21))
        write_dataset(ds, tmp_path)
        written = sum(hashed)
        hashed.clear()
        load_dataset(tmp_path)
        payloads = [ds.frames, ds.text, ds.sse_video.embeddings, ds.sse_text.embeddings]
        header_lines = [read_parts(tmp_path / name)[0] for name in ROW_FILES]
        budget = (
            sum(rows.nbytes for rows in payloads)
            + sum(len(" ".join(parts)) + 1 for parts in header_lines)
            + (tmp_path / "labels.txt").stat().st_size
        )
        assert written == budget
        assert sum(hashed) == budget


class TestDatasetInvariants:
    @pytest.mark.parametrize("table", ["sse_video", "sse_text"])
    def test_reordered_table_rejected(self, table):
        # the same ids and rows, in another order: a table's row i must be ids[i]'s
        ds = generate(SynthConfig(n_items=6, n_concepts=6, seed=14))
        emb = getattr(ds, table)
        order = [1, 0, 2, 3, 4, 5]
        swapped = StaticEmbeddingTable([emb.ids[i] for i in order], emb.embeddings[order])
        with pytest.raises(ConfigError, match=f"^{table} ids are not the dataset ids in order$"):
            replace(ds, **{table: swapped})

    @pytest.mark.parametrize("table", ["sse_video", "sse_text"])
    def test_table_of_other_length_rejected(self, table):
        ds = generate(SynthConfig(n_items=6, n_concepts=6, seed=14))
        emb = getattr(ds, table)
        short = StaticEmbeddingTable(emb.ids[:5], emb.embeddings[:5])
        with pytest.raises(ConfigError, match=f"^{table} ids are not the dataset ids in order$"):
            replace(ds, **{table: short})

    @pytest.mark.parametrize("name", ["concepts", "frames", "text", "split"])
    @pytest.mark.parametrize("n_rows", [5, 7])
    def test_array_of_other_row_count_rejected(self, name, n_rows):
        ds = generate(SynthConfig(n_items=6, n_concepts=6, seed=14))
        rows = np.resize(getattr(ds, name), (n_rows, *np.shape(getattr(ds, name))[1:]))
        with pytest.raises(ConfigError, match=f"^{name} has {n_rows} rows for 6 ids$"):
            replace(ds, **{name: rows})

    def test_duplicate_ids_rejected(self):
        ds = generate(SynthConfig(n_items=6, n_concepts=6, seed=14))
        with pytest.raises(ConfigError):
            replace(ds, ids=[ds.ids[0]] * len(ds.ids))

    @pytest.mark.parametrize("word", ["Train", "test", "", None])
    def test_bad_split_word_names_its_id(self, word):
        ds = generate(SynthConfig(n_items=6, n_concepts=6, seed=15))
        split = ds.split[:4] + [word] + ds.split[5:]
        message = f"id 'it000004': split {word!r} is neither 'train' nor 'val'"
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            replace(ds, split=split)

    def test_split_ids_are_derived_in_dataset_order(self):
        # the split words are the one statement; each id list follows them in row order
        ds = generate(SynthConfig(n_items=10, n_concepts=10, seed=15))
        ds = replace(ds, split=["val", "train"] * 5)
        assert ds.train_ids == ds.ids[1::2] and ds.val_ids == ds.ids[0::2]
        with pytest.raises(ValueError, match="init=False"):
            replace(ds, train_ids=ds.ids)

    def test_unknown_id_is_named(self):
        ds = generate(SynthConfig(n_items=6, n_concepts=6))
        np.testing.assert_array_equal(ds.rows(["it000001", "it000000"]), [1, 0])
        model = init_params(ModelDims(ds.frames.shape[2], ds.text.shape[1], 0, 4), 0)
        for lookup in (ds.rows, lambda ids: evaluate_split(model, ds, ids)):
            with pytest.raises(ConfigError, match="^id 'nope' is not in the dataset$"):
                lookup(["it000000", "nope"])

    def test_pooled_video_matches_mean(self):
        ds = generate(SynthConfig(n_items=6, n_concepts=6, seed=16))
        np.testing.assert_allclose(ds.pooled_video(), ds.frames.mean(axis=1), atol=0)

    @pytest.mark.parametrize("source", ["generate", "load_dataset"])
    def test_tables_hold_their_own_ids(self, tmp_path, source):
        # equal lists, none the other: an edit of the dataset's ids leaves
        # the tables' ids as they were, so the table-ids check can see it
        ds = generate(SynthConfig(n_items=6, n_concepts=6, seed=17))
        if source == "load_dataset":
            write_dataset(ds, tmp_path)
            ds = load_dataset(tmp_path)
        lists = [ds.ids, ds.sse_video.ids, ds.sse_text.ids]
        assert lists[0] == lists[1] == lists[2]
        assert len({id(ids) for ids in lists}) == 3
        ds.ids[0] = "edited"
        assert ds.sse_video.ids[0] == ds.sse_text.ids[0] == "it000000"


class TestLoadErrorsNameTheirFiles:
    """Every record and cross-file error of a dataset load says which file is wrong."""

    def edit_signed(self, data_dir, filename, edit):
        """Apply ``edit`` to the lines of one data file and re-sign the manifest."""
        target = data_dir / filename
        lines = target.read_text(encoding="utf-8").splitlines()
        edit(lines)
        self.write_signed(data_dir, filename, ("\n".join(lines) + "\n").encode("utf-8"))

    def write_signed(self, data_dir, filename, raw: bytes):
        """Replace one data file's bytes and re-sign the manifest."""
        (data_dir / filename).write_bytes(raw)
        resign_manifest(data_dir)

    def dataset_dir(self, tmp_path):
        write_dataset(generate(SynthConfig(n_items=8, n_concepts=8, seed=19)), tmp_path)
        return tmp_path

    def test_bad_label_line_names_the_file(self, tmp_path):
        data_dir = self.dataset_dir(tmp_path)
        self.edit_signed(data_dir, "labels.txt", lambda lines: lines.__setitem__(2, "b 1"))
        message = r"^line 3: \S*labels\.txt: expected '<id> <concept> <split>'$"
        with pytest.raises(ParseError, match=message):
            load_dataset(data_dir)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: lines.__setitem__(2, "text text.emb1"), "expected '<role>"),
            (lambda lines: lines.insert(2, "extra extra.txt " + "0" * 64), "unknown role"),
            (lambda lines: lines.insert(2, lines[1]), "role 'frames' repeats line 2"),
            (
                lambda lines: lines.__setitem__(2, lines[2].replace(".emb1", ".txt")),
                "role 'text' must name",
            ),
            (lambda lines: lines.__setitem__(2, lines[2][:-1]), "bad digest"),
        ],
        ids=["malformed", "unknown-role", "repeated-role", "wrong-file", "bad-digest"],
    )
    def test_manifest_record_error_names_the_manifest(self, tmp_path, edit, message):
        data_dir = self.dataset_dir(tmp_path)
        manifest = data_dir / MANIFEST_NAME
        lines = manifest.read_text(encoding="utf-8").splitlines()
        edit(lines)
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"line 3: \S*{MANIFEST_NAME}: {message}"):
            load_dataset(data_dir)

    @pytest.mark.parametrize("filename", ROW_FILES)
    def test_row_count_mismatch_names_both_files(self, tmp_path, filename):
        data_dir = self.dataset_dir(tmp_path)
        other = tmp_path / "other"
        write_dataset(generate(SynthConfig(n_items=7, n_concepts=7, seed=19)), other)
        self.write_signed(data_dir, filename, (other / filename).read_bytes())
        message = f"{data_dir / filename}: holds 7 rows, but {data_dir / 'labels.txt'} holds 8 ids"
        with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
            load_dataset(data_dir)

    @pytest.mark.parametrize("filename", ROW_FILES)
    def test_more_rows_than_labels_names_both_files(self, tmp_path, filename):
        data_dir = self.dataset_dir(tmp_path)
        other = tmp_path / "other"
        write_dataset(generate(SynthConfig(n_items=9, n_concepts=9, seed=19)), other)
        self.write_signed(data_dir, filename, (other / filename).read_bytes())
        message = f"{data_dir / filename}: holds 9 rows, but {data_dir / 'labels.txt'} holds 8 ids"
        with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
            load_dataset(data_dir)

    @pytest.mark.parametrize(
        "filename, text",
        [
            ("frames.frm1", "FRM3 1 1 2\nit0 0x1p+0 0x1p+1\n"),
            ("text.emb1", "EMB2 1 1\nit0 0x1p+0\n"),
        ],
    )
    def test_text_row_file_gets_the_gen_data_hint(self, tmp_path, filename, text):
        data_dir = self.dataset_dir(tmp_path)
        self.write_signed(data_dir, filename, text.encode("ascii"))
        hint = rf"{re.escape(filename)}: .*regenerate the dataset with gen-data"
        with pytest.raises(ParseError, match=hint):
            load_dataset(data_dir)

    def test_extra_label_names_both_files(self, tmp_path):
        data_dir = self.dataset_dir(tmp_path)

        def add_ghost(lines):
            lines[0] = "LBL2 9"
            lines.append("ghost 3 train")

        self.edit_signed(data_dir, "labels.txt", add_ghost)
        with pytest.raises(ParseError) as excinfo:
            load_dataset(data_dir)
        message = str(excinfo.value)
        assert "labels.txt holds 9 ids" in message and "frames.frm1: holds 8 rows" in message


# ids that ``_load_labels`` would read as another id, another record or a
# comment, or that have no UTF-8 form
UNWRITABLE_IDS = ["", "a b", "a\tb", "a\nb", " a", "a\u2028b", "#x", "a\ud800"]


class TestWriteRefusals:
    """``write_dataset`` refuses ids, concepts and split words that
    ``labels.txt`` cannot hold exactly, and row arrays that a row file cannot hold, before it
    makes any file or directory."""

    def refused(self, tmp_path, ds, error, match):
        out = tmp_path / "out"
        with pytest.raises(error, match=match):
            write_dataset(ds, out)
        assert not out.exists()

    @pytest.mark.parametrize("bad", UNWRITABLE_IDS)
    def test_unwritable_id(self, tmp_path, bad):
        ds = generate(SynthConfig(n_items=8, n_concepts=8, seed=1))
        ds.ids[3] = bad
        self.refused(tmp_path, ds, ConfigError, re.escape(repr(bad)))

    def test_duplicate_id(self, tmp_path):
        # ``Dataset`` refuses repeated ids; a caller can still edit them after
        ds = generate(SynthConfig(n_items=8, n_concepts=8, seed=1))
        ds.ids[5] = ds.ids[2]
        self.refused(tmp_path, ds, DuplicateIdError, f"duplicate id '{ds.ids[2]}'")

    def test_unwritable_split_word_names_its_id(self, tmp_path):
        # ``Dataset`` refuses other words; a caller can still edit them after
        ds = generate(SynthConfig(n_items=8, n_concepts=8, seed=1))
        ds.split[6] = "test"
        self.refused(tmp_path, ds, ConfigError, f"^id '{ds.ids[6]}': split 'test' is neither")

    @pytest.mark.parametrize(
        "concept, dtype",
        [(-1, np.int64), (1.5, float), (np.nan, float), (np.inf, float), (2**63, object)],
        ids=["negative", "fraction", "nan", "inf", "beyond-int64"],
    )
    def test_unwritable_concept_names_its_id(self, tmp_path, concept, dtype):
        ds = generate(SynthConfig(n_items=8, n_concepts=8, seed=1))
        ds.concepts = ds.concepts.astype(dtype)
        ds.concepts[4] = concept
        self.refused(tmp_path, ds, ConfigError, rf"id '{ds.ids[4]}': concept .* cannot be written")

    def test_integral_float_concepts_round_trip(self, tmp_path):
        ds = generate(SynthConfig(n_items=8, n_concepts=8, seed=1))
        concepts = ds.concepts.copy()
        ds.concepts = concepts.astype(float)
        write_dataset(ds, tmp_path)
        np.testing.assert_array_equal(load_dataset(tmp_path).concepts, concepts)

    def test_list_concepts_are_written_exactly(self, tmp_path):
        # a list mixing ints and floats must not pass through a float64 array
        ds = generate(SynthConfig(n_items=8, n_concepts=8, seed=1))
        ds.concepts = [2**62 + 1, 3.0] + ds.concepts[2:].tolist()
        write_dataset(ds, tmp_path)
        assert load_dataset(tmp_path).concepts[:2].tolist() == [2**62 + 1, 3]

    @pytest.mark.parametrize("name", ["frames", "text", "sse_video", "sse_text"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_leaves_no_file(self, tmp_path, name, value):
        # the last row arrays, too: each was once checked only by its own
        # writer, after the files before it were written
        ds = generate(SynthConfig(n_items=8, n_concepts=8, seed=1))
        rows = getattr(ds, name)
        rows = getattr(rows, "embeddings", rows)
        rows[2].flat[-1] = value
        filename = "frames.frm1" if name == "frames" else f"{name}.emb1"
        self.refused(tmp_path, ds, NonFiniteError, f"{filename}: row 2 holds a non-finite value")

    def test_each_row_array_is_checked_once(self, tmp_path, monkeypatch):
        ds = generate(SynthConfig(n_items=8, n_concepts=8, seed=1))
        arrays = [ds.frames, ds.text, ds.sse_video.embeddings, ds.sse_text.embeddings]
        checked, real = [], np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda x, *a, **k: checked.append(x) or real(x, *a, **k))
        write_dataset(ds, tmp_path / "out")
        assert [id(x) for x in checked] == [id(arr) for arr in arrays]
