import json
import os

import numpy as np
import pytest

from audiomlm import audio
from audiomlm.data import (
    Featurizer,
    Manifest,
    ManifestRow,
    MIN_CLIP_SECONDS,
    SyntheticCorpusSpec,
    batch_iterator,
    build_manifest,
    corpus_identity,
    ensure_mel_stats,
    epoch_batches,
    generate_synthetic,
    label_space,
    load_manifest,
    manifest_from_tsv,
    save_manifest,
)
from audiomlm.errors import ContractError, DataError


def _featurizer(manifest_path):
    manifest = load_manifest(manifest_path)
    stats = ensure_mel_stats(manifest_path, manifest)
    mean, std = audio.load_stats(stats)
    return manifest, Featurizer(manifest, mean, std)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        rows = [
            ManifestRow(id="a", path="x/a.wav", duration_s=1.5, label="dog", domain="synthetic"),
            ManifestRow(id="b", path="x/b.wav", duration_s=2.0, label=["cat", "dog"]),
        ]
        path = tmp_path / "m.jsonl"
        save_manifest(Manifest(rows=rows, root=tmp_path), path)
        loaded = load_manifest(path, check_paths=False)
        assert [r.id for r in loaded.rows] == ["a", "b"]
        assert loaded.rows[1].label == ["cat", "dog"]

    def test_duplicate_ids_rejected(self):
        rows = [ManifestRow("a", "p", 1.0), ManifestRow("a", "q", 1.0)]
        with pytest.raises(DataError):
            Manifest(rows=rows)

    def test_missing_paths_detected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        save_manifest(Manifest([ManifestRow("a", "gone.wav", 1.0)], root=tmp_path), path)
        with pytest.raises(DataError, match="missing"):
            load_manifest(path)

    def test_tsv_import(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("a\tx.wav\t1.5\tdog\nb\ty.wav\t2.0\n")
        m = manifest_from_tsv(p)
        assert m.rows[0].label == "dog" and m.rows[1].label is None

    def test_build_manifest_skips_unreadable(self, tmp_path):
        (tmp_path / "dog").mkdir()
        audio.write_wav_pcm16(tmp_path / "dog" / "ok.wav", np.zeros(8000))
        (tmp_path / "dog" / "broken.wav").write_bytes(b"not a wav at all")
        manifest, skipped = build_manifest(tmp_path)
        assert skipped == 1
        assert len(manifest) == 1
        assert manifest.rows[0].label == "dog"
        assert abs(manifest.rows[0].duration_s - 0.5) < 1e-9

    def test_build_manifest_skips_truncated_wav(self, tmp_path):
        (tmp_path / "dog").mkdir()
        audio.write_wav_pcm16(tmp_path / "dog" / "ok.wav", np.zeros(16000))
        cut = tmp_path / "dog" / "cut.wav"
        audio.write_wav_pcm16(cut, np.zeros(16000))
        cut.write_bytes(cut.read_bytes()[:20000])
        manifest, skipped = build_manifest(tmp_path)
        assert skipped == 1
        assert [r.path for r in manifest.rows] == ["dog/ok.wav"]

    def test_saved_outside_root_resolves_every_path(self, tmp_path):
        root = tmp_path / "root"
        for name in ("dog/a.wav", "cat/b.wav", "c.wav"):
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            audio.write_wav_pcm16(root / name, np.zeros(8000))
        built, _ = build_manifest(root)
        for out in (tmp_path / "elsewhere" / "m.jsonl", root / "m.jsonl", root / "dog" / "m.jsonl"):
            loaded = load_manifest(save_manifest(built, out))
            assert [r.id for r in loaded.rows] == [r.id for r in built.rows]
            for saved, row in zip(loaded.rows, built.rows):
                assert loaded.resolve(saved).samefile(built.resolve(row))
        assert load_manifest(root / "m.jsonl").rows == built.rows  # beside the root: paths as built


class TestSyntheticCorpus:
    def test_deterministic_bytes(self, tmp_path):
        spec = SyntheticCorpusSpec(n_clips=4, clip_seconds=0.5, kind="tone-sequence", classes=4, seed=3)
        m1 = generate_synthetic(spec, tmp_path / "a")
        m2 = generate_synthetic(spec, tmp_path / "b")
        man1, man2 = load_manifest(m1), load_manifest(m2)
        for r1, r2 in zip(man1.rows, man2.rows):
            assert man1.resolve(r1).read_bytes() == man2.resolve(r2).read_bytes()

    def test_zero_clips_gives_empty_manifest(self, tmp_path):
        spec = SyntheticCorpusSpec(n_clips=0, kind="tone-sequence", classes=4)
        path = generate_synthetic(spec, tmp_path)
        assert path.read_text() == ""
        with pytest.raises(DataError):
            epoch_batches(load_manifest(path), 10.0, 0, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            SyntheticCorpusSpec(n_clips=1, kind="whale-song")

    def test_layout_and_labels(self, small_tone_corpus):
        manifest = load_manifest(small_tone_corpus)
        assert len(manifest) == 24
        assert label_space(manifest) == ["c0", "c1", "c2", "c3"]
        first = manifest.rows[0]
        assert str(first.path).startswith("corpus/c0/")

    def test_filtered_noise_classes_separable_from_raw_mels(self, tmp_path):
        """Baseline probe run: band-limited classes are learnable from mean
        log-mel features alone (well above the 25% chance level)."""
        from audiomlm.evaluate import linear_probe, make_probe_task, raw_mel_features

        spec = SyntheticCorpusSpec(
            n_clips=48, clip_seconds=1.0, kind="filtered-noise-classes", classes=4, seed=5
        )
        manifest_path = generate_synthetic(spec, tmp_path)
        manifest, featurizer = _featurizer(manifest_path)
        task = make_probe_task(manifest)
        features = raw_mel_features(featurizer, task.rows)
        acc, _ = linear_probe(features, task, {"epochs": 200, "lr": 0.05, "patience": 30})
        assert acc > 0.5  # chance is 0.25


class TestStats:
    def test_stats_written_beside_manifest(self, small_tone_corpus):
        stats_path = ensure_mel_stats(small_tone_corpus)
        assert stats_path.name == "manifest.stats.json"
        assert stats_path.parent == small_tone_corpus.parent
        obj = json.loads(stats_path.read_text())
        assert len(obj["mean"]) == 128 and len(obj["std"]) == 128

    def test_stats_recomputed_when_a_wav_changes(self, tmp_path):
        manifest_path = generate_synthetic(SyntheticCorpusSpec(4, 0.5, "filtered-noise-classes", 2, seed=1), tmp_path)
        manifest = load_manifest(manifest_path)
        stats_path = ensure_mel_stats(manifest_path, manifest)
        first = json.loads(stats_path.read_text())
        assert first["corpus"] == corpus_identity(manifest)
        stamp = stats_path.stat().st_mtime_ns
        assert ensure_mel_stats(manifest_path, manifest) == stats_path
        assert stats_path.stat().st_mtime_ns == stamp  # same corpus: reused

        wav = manifest.resolve(manifest.rows[0])
        audio.write_wav_pcm16(wav, 0.5 * np.random.default_rng(9).standard_normal(8000))
        st = wav.stat()
        os.utime(wav, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        second = json.loads(ensure_mel_stats(manifest_path, manifest).read_text())
        assert second["corpus"] == corpus_identity(manifest) != first["corpus"]
        assert second["mean"] != first["mean"]

    def test_normalized_patches_roughly_standardized(self, small_tone_corpus):
        manifest, featurizer = _featurizer(small_tone_corpus)
        seq = featurizer.patch_sequence(manifest.rows[0])
        all_patches = np.concatenate(
            [featurizer.patch_sequence(r).patches for r in manifest.rows]
        )
        assert abs(all_patches.mean()) < 0.2
        assert 0.5 < all_patches.std() < 2.0


class TestBatching:
    def _manifest(self, durations):
        return Manifest(
            rows=[ManifestRow(f"r{i}", f"p{i}.wav", d) for i, d in enumerate(durations)]
        )

    def test_every_row_exactly_once_per_epoch(self):
        rng = np.random.default_rng(0)
        manifest = self._manifest(rng.uniform(0.5, 9.0, size=60))
        batches, _ = epoch_batches(manifest, 20.0, seed=1, epoch=0)
        ids = [r.id for b in batches for r in b]
        assert sorted(ids) == sorted([r.id for r in manifest.rows])

    def test_determinism_under_fixed_seed(self):
        manifest = self._manifest(np.random.default_rng(1).uniform(0.5, 9.0, size=40))
        a, _ = epoch_batches(manifest, 15.0, seed=7, epoch=3)
        b, _ = epoch_batches(manifest, 15.0, seed=7, epoch=3)
        assert [[r.id for r in batch] for batch in a] == [[r.id for r in batch] for batch in b]
        c, _ = epoch_batches(manifest, 15.0, seed=7, epoch=4)
        assert [[r.id for r in batch] for batch in a] != [[r.id for r in batch] for batch in c]

    def test_padded_waste_below_20_percent(self):
        rng = np.random.default_rng(2)
        manifest = self._manifest(rng.uniform(0.3, 12.0, size=300))
        batch_seconds = 30.0
        batches, _ = epoch_batches(manifest, batch_seconds, seed=0, epoch=0)
        total_waste = 0.0
        for batch in batches:
            durations = [r.duration_s for r in batch]
            total_waste += sum(max(durations) - d for d in durations)
        assert total_waste / (batch_seconds * len(batches)) < 0.20

    def test_short_clips_skipped_with_count(self):
        manifest = self._manifest([0.05, 0.1, 2.0, 3.0])
        batches, skipped = epoch_batches(manifest, 10.0, seed=0, epoch=0)
        assert skipped == 2
        assert sum(len(b) for b in batches) == 2
        assert MIN_CLIP_SECONDS < 0.2

    def test_iterator_signals_epoch_end(self):
        manifest = self._manifest([2.0] * 6)
        items = list(batch_iterator(manifest, 4.0, seed=0, epochs=2))
        assert items[-1].epoch == 1
        ends = [i for i in items if i.epoch_end]
        assert len(ends) == 2

    def test_collate_shapes_and_padding(self, small_tone_corpus):
        manifest, featurizer = _featurizer(small_tone_corpus)
        batch = featurizer.collate(manifest.rows[:3])
        b, n, d = batch.patches.shape
        assert b == 3 and d == 256
        assert batch.valid.shape == (3, n)
        assert all(batch.valid[i, : batch.n_patches[i]].all() for i in range(3))
        assert batch.time_ids.max() == n // 8 - 1 if n % 8 == 0 else True
        # 1.5 s => 148 frames => 9 time patches => 72 patches
        assert batch.n_patches == [72, 72, 72]

    def test_collate_workers_match_synchronous(self, small_tone_corpus):
        manifest = load_manifest(small_tone_corpus)
        stats = ensure_mel_stats(small_tone_corpus, manifest)
        mean, std = audio.load_stats(stats)
        sync = Featurizer(manifest, mean, std, cache=False, workers=0)
        pooled = Featurizer(manifest, mean, std, cache=False, workers=2)
        b1 = sync.collate(manifest.rows[:4])
        b2 = pooled.collate(manifest.rows[:4])
        np.testing.assert_array_equal(b1.patches, b2.patches)
        np.testing.assert_array_equal(b1.valid, b2.valid)
