import numpy as np
import pytest

from marginforge.data import (
    MANIFEST_NAME,
    Dataset,
    SynthConfig,
    _load_labels,
    _load_split,
    digest,
    generate,
    ground_truth_equivalents,
    load_dataset,
    write_dataset,
)
from marginforge.errors import ChecksumError, ConfigError, DuplicateIdError, ParseError
from marginforge.experts import pairwise_distances
from marginforge.mathcore import unit_rows


def dir_digest(path):
    return {p.name: digest(p.read_bytes()) for p in sorted(path.iterdir())}


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
        d = pairwise_distances(unit_rows(ds.pooled_video(), "sse_video")[0])
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
    @pytest.mark.parametrize(
        "header",
        ["{tag} x", "{tag} two", "{tag} 1.5", "{tag} {n} extra", "{tag} +{n}", "{tag} 1_0", "{tag} -0"],
    )
    def test_malformed_count_header_rejected(self, tmp_path, filename, tag, header):
        ds = generate(SynthConfig(n_items=8, n_concepts=8, seed=17))
        write_dataset(ds, tmp_path)
        target = tmp_path / filename
        old_digest = digest(target.read_bytes())
        lines = target.read_text(encoding="utf-8").splitlines()
        lines[0] = header.format(tag=tag, n=len(lines) - 1)
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # re-sign the manifest so the header, not the checksum, is what fails
        manifest = tmp_path / MANIFEST_NAME
        manifest.write_text(
            manifest.read_text(encoding="utf-8").replace(old_digest, digest(target.read_bytes())),
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as excinfo:
            load_dataset(tmp_path)
        assert excinfo.value.line == 1


class TestLabelAndSplitFiles:
    def write(self, tmp_path, text):
        p = tmp_path / "f.txt"
        p.write_text(text, encoding="utf-8")
        return p

    def test_repeated_label_id_rejected(self, tmp_path):
        p = self.write(tmp_path, "LBL1 2\na 1\na 2\nb 3\n")
        with pytest.raises(DuplicateIdError, match=r"line 3: \S*f\.txt: duplicate id 'a'"):
            _load_labels(p)

    @pytest.mark.parametrize("token", ["+2", "1_0", "-0", "1.5"])
    def test_bad_concept_label_rejected(self, tmp_path, token):
        p = self.write(tmp_path, f"LBL1 2\na 1\nb {token}\n")
        with pytest.raises(ParseError) as excinfo:
            _load_labels(p)
        assert excinfo.value.line == 3

    def test_split_line_takes_one_id(self, tmp_path):
        p = self.write(tmp_path, "SPLIT1 2\na\nb c\n")
        with pytest.raises(ParseError) as excinfo:
            _load_split(p)
        assert excinfo.value.line == 3

    def test_repeated_split_id_rejected_at_its_line(self, tmp_path):
        write_dataset(generate(SynthConfig(n_items=8, n_concepts=8, seed=17)), tmp_path)
        target = tmp_path / "split_val.txt"
        old_digest = digest(target.read_bytes())
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "SPLIT1 2"
        lines[2] = lines[1]  # repeat the first id, keep the declared count
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest = tmp_path / MANIFEST_NAME
        manifest.write_text(
            manifest.read_text(encoding="utf-8").replace(old_digest, digest(target.read_bytes())),
            encoding="utf-8",
        )
        with pytest.raises(
            DuplicateIdError, match=rf"line 3: \S*split_val\.txt: duplicate id '{lines[1]}'"
        ):
            load_dataset(tmp_path)

    def test_splits_that_do_not_partition_name_their_files(self, tmp_path):
        write_dataset(generate(SynthConfig(n_items=8, n_concepts=8, seed=17)), tmp_path)
        target = tmp_path / "split_train.txt"
        old_digest = digest(target.read_bytes())
        lines = target.read_text(encoding="utf-8").splitlines()
        val_id = (tmp_path / "split_val.txt").read_text(encoding="utf-8").splitlines()[1]
        lines[-1] = val_id  # a val id in the train split, count kept
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest = tmp_path / MANIFEST_NAME
        manifest.write_text(
            manifest.read_text(encoding="utf-8").replace(old_digest, digest(target.read_bytes())),
            encoding="utf-8",
        )
        with pytest.raises(
            ParseError, match=r"split_train\.txt and \S*split_val\.txt: .*partition.*frames\.frm1"
        ):
            load_dataset(tmp_path)


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

    def test_manifest2_header_and_sha256_digests(self, tmp_path):
        lines = self.write(tmp_path, lambda lines: None)
        assert lines[0] == "MANIFEST2" and len(lines) == 8
        for line in lines[1:]:
            role, filename, hexdigest = line.split()
            assert hexdigest == digest((tmp_path / filename).read_bytes())

    def test_manifest1_rejected_with_regenerate_hint(self, tmp_path):
        self.write(tmp_path, lambda lines: lines.__setitem__(0, "MANIFEST1"))
        assert "gen-data" in self.rejected_at(tmp_path, 1)

    def test_unknown_role_rejected(self, tmp_path):
        self.write(tmp_path, lambda lines: lines.insert(3, "extra extra.txt " + "0" * 64))
        self.rejected_at(tmp_path, 4)

    def test_repeated_role_rejected(self, tmp_path):
        # the repeat names the right file with a valid digest: only the repeat is wrong
        self.write(tmp_path, lambda lines: lines.append(lines[5]))
        self.rejected_at(tmp_path, 9)

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
        with pytest.raises(ParseError, match="split_val"):
            load_dataset(tmp_path)

    def test_lines_checked_before_any_hashing(self, tmp_path):
        # a corrupt file listed before a bad line: the bad line is reported, not the checksum
        def corrupt_then_repeat(lines):
            (tmp_path / "frames.frm1").write_bytes(b"FRM1 0 1 1\n")
            lines.append(lines[1])

        self.write(tmp_path, corrupt_then_repeat)
        self.rejected_at(tmp_path, 9)


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


class TestLoadErrorsNameTheirFiles:
    """Every record and cross-file error of a dataset load says which file is wrong."""

    def edit_signed(self, data_dir, filename, edit):
        """Apply ``edit`` to the lines of one data file and re-sign the manifest."""
        target = data_dir / filename
        old_digest = digest(target.read_bytes())
        lines = target.read_text(encoding="utf-8").splitlines()
        edit(lines)
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest = data_dir / MANIFEST_NAME
        manifest.write_text(
            manifest.read_text(encoding="utf-8").replace(old_digest, digest(target.read_bytes())),
            encoding="utf-8",
        )

    def dataset_dir(self, tmp_path):
        write_dataset(generate(SynthConfig(n_items=8, n_concepts=8, seed=19)), tmp_path)
        return tmp_path

    def test_bad_label_line_names_the_file(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("LBL1 2\na 1\nb\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"line 3: \S*labels\.txt: expected '<id> <concept>'"):
            _load_labels(p)

    def test_bad_split_line_names_the_file(self, tmp_path):
        p = tmp_path / "split.txt"
        p.write_text("SPLIT1 2\na\nb c\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"line 3: \S*split\.txt: expected one id"):
            _load_split(p)

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

    def test_id_mismatch_names_both_files(self, tmp_path):
        data_dir = self.dataset_dir(tmp_path)

        def swap_first_rows(lines):
            lines[1], lines[2] = lines[2], lines[1]

        self.edit_signed(data_dir, "sse_text.emb1", swap_first_rows)
        with pytest.raises(ParseError) as excinfo:
            load_dataset(data_dir)
        message = str(excinfo.value)
        assert "sse_text.emb1" in message and "frames.frm1" in message
        assert "ids do not match the frame file ids" in message

    def test_missing_label_names_both_files(self, tmp_path):
        data_dir = self.dataset_dir(tmp_path)
        self.edit_signed(data_dir, "labels.txt", lambda lines: lines.__setitem__(1, "zz 0"))
        with pytest.raises(ParseError) as excinfo:
            load_dataset(data_dir)
        message = str(excinfo.value)
        assert "labels.txt" in message and "frames.frm1" in message
        assert "labels file is missing id" in message
