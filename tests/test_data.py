import numpy as np
import pytest

from marginforge.data import (
    MANIFEST_NAME,
    Dataset,
    SynthConfig,
    fnv1a64,
    generate,
    ground_truth_equivalents,
    load_dataset,
    write_dataset,
)
from marginforge.errors import ChecksumError, ConfigError, ParseError
from marginforge.experts import sse_video_distances


def dir_digest(path):
    return {p.name: fnv1a64(p.read_bytes()) for p in sorted(path.iterdir())}


class TestFnv1a64:
    def test_known_vectors(self):
        # standard FNV-1a 64 test vectors
        assert fnv1a64(b"") == "cbf29ce484222325"
        assert fnv1a64(b"a") == "af63dc4c8601ec8c"
        assert fnv1a64(b"foobar") == "85944171f73967e8"


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
        d = sse_video_distances(list(ds.frames)).values
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

    @pytest.mark.parametrize("filename, tag", [("labels.txt", "LBL1"), ("split_train.txt", "SPLIT1")])
    @pytest.mark.parametrize("header", ["{tag} x", "{tag} two", "{tag} 1.5", "{tag} {n} extra"])
    def test_malformed_count_header_rejected(self, tmp_path, filename, tag, header):
        ds = generate(SynthConfig(n_items=8, n_concepts=8, seed=17))
        write_dataset(ds, tmp_path)
        target = tmp_path / filename
        old_digest = fnv1a64(target.read_bytes())
        lines = target.read_text(encoding="utf-8").splitlines()
        lines[0] = header.format(tag=tag, n=len(lines) - 1)
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # re-sign the manifest so the header, not the checksum, is what fails
        manifest = tmp_path / MANIFEST_NAME
        manifest.write_text(
            manifest.read_text(encoding="utf-8").replace(old_digest, fnv1a64(target.read_bytes())),
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as excinfo:
            load_dataset(tmp_path)
        assert excinfo.value.line == 1


class TestDatasetInvariants:
    def test_duplicate_ids_rejected(self):
        ds = generate(SynthConfig(n_items=6, n_concepts=6, seed=14))
        with pytest.raises(ConfigError):
            Dataset(
                ids=[ds.ids[0]] * len(ds.ids),
                concepts=ds.concepts,
                frames=ds.frames,
                text=ds.text,
                sse_video=ds.sse_video,
                sse_text=ds.sse_text,
                train_ids=ds.train_ids,
                val_ids=ds.val_ids,
            )

    def test_bad_split_rejected(self):
        ds = generate(SynthConfig(n_items=6, n_concepts=6, seed=15))
        with pytest.raises(ConfigError):
            Dataset(
                ids=ds.ids,
                concepts=ds.concepts,
                frames=ds.frames,
                text=ds.text,
                sse_video=ds.sse_video,
                sse_text=ds.sse_text,
                train_ids=ds.train_ids + ds.val_ids[:1],
                val_ids=ds.val_ids,
            )

    def test_pooled_video_matches_mean(self):
        ds = generate(SynthConfig(n_items=6, n_concepts=6, seed=16))
        np.testing.assert_allclose(ds.pooled_video(), ds.frames.mean(axis=1), atol=0)
