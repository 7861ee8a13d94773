import json

import numpy as np
import pytest

from audiomlm import audio
from audiomlm import train as train_mod
from audiomlm.codebook import read_token_dump
from audiomlm.config import preset_config
from audiomlm.data import Featurizer, SyntheticCorpusSpec, ensure_mel_stats, generate_synthetic, load_manifest
from audiomlm.errors import ContractError, PlanError
from audiomlm.checkpoint import load_checkpoint
from audiomlm.train import (
    encoder_from_checkpoint,
    evaluate_mlm,
    pretrain_encoder,
    random_tokenizer,
    run_iteration_plan,
    tokenize_corpus_random,
    tokenizer_from_checkpoint,
    train_tokenizer_stage,
)


def micro_config(updates=6, tok_updates=4):
    config = preset_config("tiny")
    config["encoder"].update(hidden=16, ffn=32, layers=1, heads=4)
    config["training"].update(
        updates=updates, warmup=2, batch_seconds=10.0, checkpoint_every=2, peak_lr=5e-3
    )
    config["tokenizer"].update(
        layers=1, predictor_layers=1, updates=tok_updates, warmup=1, batch_seconds=10.0,
        kmeans_samples=256,
    )
    return config


@pytest.fixture(scope="module")
def corpus(small_tone_corpus):
    manifest = load_manifest(small_tone_corpus)
    stats = ensure_mel_stats(small_tone_corpus, manifest)
    mean, std = audio.load_stats(stats)
    return small_tone_corpus, manifest, Featurizer(manifest, mean, std)


def _tokens(config, manifest, featurizer):
    return tokenize_corpus_random(manifest, featurizer, random_tokenizer(config))


def _log_rows(path):
    return [json.loads(l) for l in path.read_text().splitlines()]


def _logged_steps(path):
    return [r["step"] for r in _log_rows(path)]


class Crash(RuntimeError):
    pass


class CrashingFeaturizer:
    """Raises ``Crash`` on the ``crash_at``-th collate call."""

    def __init__(self, inner, crash_at):
        self.inner = inner
        self.calls = 0
        self.crash_at = crash_at

    def collate(self, rows):
        self.calls += 1
        if self.calls == self.crash_at:
            raise Crash()
        return self.inner.collate(rows)

    def patch_sequence(self, row):
        return self.inner.patch_sequence(row)


class TestPretrain:
    def test_writes_checkpoint_and_jsonl_log(self, corpus, tmp_path):
        _, manifest, featurizer = corpus
        config = micro_config()
        tokens = _tokens(config, manifest, featurizer)
        ckpt = pretrain_encoder(config, manifest, featurizer, tokens, tmp_path / "run")
        assert ckpt.exists()
        rows = _log_rows(tmp_path / "run" / "train.log.jsonl")
        assert len(rows) == config["training"]["updates"]
        for key in ("step", "loss", "masked_acc", "vocab_coverage", "lr", "wall_ms"):
            assert key in rows[0]
        assert all(np.isfinite(r["loss"]) for r in rows)
        model, loaded_cfg = encoder_from_checkpoint(ckpt)
        assert loaded_cfg["encoder"]["hidden"] == 16

    def test_fixed_seed_reruns_reproduce_loss_log(self, corpus, tmp_path):
        _, manifest, featurizer = corpus
        config = micro_config()
        tokens = _tokens(config, manifest, featurizer)
        pretrain_encoder(config, manifest, featurizer, tokens, tmp_path / "a")
        pretrain_encoder(config, manifest, featurizer, tokens, tmp_path / "b")
        rows_a = _log_rows(tmp_path / "a" / "train.log.jsonl")
        rows_b = _log_rows(tmp_path / "b" / "train.log.jsonl")
        for ra, rb in zip(rows_a, rows_b):
            assert abs(ra["loss"] - rb["loss"]) < 1e-6
            assert ra["masked_acc"] == rb["masked_acc"]

    def test_resume_matches_uninterrupted_run(self, corpus, tmp_path):
        _, manifest, featurizer = corpus
        config = micro_config(updates=6)
        tokens = _tokens(config, manifest, featurizer)
        full_ckpt = pretrain_encoder(config, manifest, featurizer, tokens, tmp_path / "full")

        crashing = CrashingFeaturizer(featurizer, crash_at=5)
        with pytest.raises(Crash):
            pretrain_encoder(config, manifest, featurizer=crashing, token_lookup=tokens,
                             workdir=tmp_path / "resumed")
        assert (tmp_path / "resumed" / "latest.ckpt").exists()
        resumed_ckpt = pretrain_encoder(config, manifest, featurizer, tokens, tmp_path / "resumed")

        _, full_tensors, _ = load_checkpoint(full_ckpt)
        _, resumed_tensors, _ = load_checkpoint(resumed_ckpt)
        for k in full_tensors:
            assert np.array_equal(full_tensors[k], resumed_tensors[k]), k

        full_rows = {r["step"]: r for r in _log_rows(tmp_path / "full" / "train.log.jsonl")}
        resumed_rows = {r["step"]: r for r in _log_rows(tmp_path / "resumed" / "train.log.jsonl")}
        for step in (5, 6):
            assert abs(full_rows[step]["loss"] - resumed_rows[step]["loss"]) < 1e-9
        assert _logged_steps(tmp_path / "resumed" / "train.log.jsonl") == list(range(1, 7))

    def test_completed_stage_is_not_retrained(self, corpus, tmp_path):
        _, manifest, featurizer = corpus
        config = micro_config(updates=3)
        tokens = _tokens(config, manifest, featurizer)
        ckpt = pretrain_encoder(config, manifest, featurizer, tokens, tmp_path / "run")
        stamp = ckpt.stat().st_mtime_ns
        again = pretrain_encoder(config, manifest, featurizer, tokens, tmp_path / "run")
        assert again == ckpt and ckpt.stat().st_mtime_ns == stamp


class TestTokenizerStage:
    def test_trains_saves_and_reloads(self, corpus, tmp_path):
        _, manifest, featurizer = corpus
        config = micro_config()
        tokens = _tokens(config, manifest, featurizer)
        teacher = pretrain_encoder(config, manifest, featurizer, tokens, tmp_path / "e1")
        tok_ckpt = train_tokenizer_stage(config, manifest, featurizer, teacher, tmp_path / "t2")
        rows = _log_rows(tmp_path / "t2" / "tokenizer.log.jsonl")
        assert {"step", "loss", "perplexity", "teacher_cos", "lr"} <= set(rows[0])
        tokenizer, _ = tokenizer_from_checkpoint(tok_ckpt)
        assert tokenizer.codebook.size == config["encoder"]["codebook_size"]

        batch = featurizer.collate(manifest.rows[:3])
        t1 = tokenizer.tokenize(batch.patches, batch.time_ids, batch.freq_ids, batch.valid)
        tokenizer2, _ = tokenizer_from_checkpoint(tok_ckpt)
        t2 = tokenizer2.tokenize(batch.patches, batch.time_ids, batch.freq_ids, batch.valid)
        np.testing.assert_array_equal(t1, t2)

    def test_codebook_roundtrip_bit_exact(self, corpus, tmp_path):
        _, manifest, featurizer = corpus
        config = micro_config()
        tokens = _tokens(config, manifest, featurizer)
        teacher = pretrain_encoder(config, manifest, featurizer, tokens, tmp_path / "e1")
        tok_ckpt = train_tokenizer_stage(config, manifest, featurizer, teacher, tmp_path / "t2")
        _, tensors, _ = load_checkpoint(tok_ckpt)
        tokenizer, _ = tokenizer_from_checkpoint(tok_ckpt)
        assert np.array_equal(tensors["codebook.codewords"], tokenizer.codebook.codewords)
        assert np.array_equal(tensors["codebook.ema_counts"], tokenizer.codebook.ema_counts)

    def test_resume_matches_uninterrupted_run(self, corpus, tmp_path):
        _, manifest, featurizer = corpus
        config = micro_config(tok_updates=4)
        tokens = _tokens(config, manifest, featurizer)
        teacher = pretrain_encoder(config, manifest, featurizer, tokens, tmp_path / "e1")
        full_ckpt = train_tokenizer_stage(config, manifest, featurizer, teacher, tmp_path / "full")

        # collate 1 feeds k-means, so collate 5 is step 4, after the step-2 checkpoint
        crashing = CrashingFeaturizer(featurizer, crash_at=5)
        with pytest.raises(Crash):
            train_tokenizer_stage(config, manifest, crashing, teacher, tmp_path / "resumed")
        assert (tmp_path / "resumed" / "tokenizer.latest.ckpt").exists()
        resumed_ckpt = train_tokenizer_stage(config, manifest, featurizer, teacher, tmp_path / "resumed")

        assert resumed_ckpt.read_bytes() == full_ckpt.read_bytes()
        assert _logged_steps(tmp_path / "resumed" / "tokenizer.log.jsonl") == [1, 2, 3, 4]


class TestIterationPlan:
    def test_single_iteration_trains_one_encoder_no_tokenizer(self, corpus, tmp_path):
        manifest_path, _, _ = corpus
        config = micro_config()
        config["plan"]["iterations"] = 1
        artifacts = run_iteration_plan(config, manifest_path, tmp_path / "plan")
        assert set(artifacts) == {"E1"}
        assert artifacts["E1"].exists()
        assert not (tmp_path / "plan" / "iter2").exists()

    def test_two_iterations_artifacts_on_disk(self, corpus, tmp_path):
        manifest_path, _, _ = corpus
        config = micro_config()
        config["plan"]["iterations"] = 2
        artifacts = run_iteration_plan(config, manifest_path, tmp_path / "plan")
        assert set(artifacts) == {"E1", "T2", "E2"}
        for key in ("E1", "T2", "E2"):
            assert artifacts[key].exists(), key
        tokens, meta = read_token_dump(
            tmp_path / "plan" / "iter2" / "tokens.bin", tmp_path / "plan" / "iter2" / "tokens.json"
        )
        assert meta["config"]["tokenizer"] == "learned"
        assert len(tokens) == 24

    def test_fresh_encoder_init_each_iteration(self, corpus, tmp_path):
        manifest_path, _, _ = corpus
        config = micro_config()
        config["plan"]["iterations"] = 2
        artifacts = run_iteration_plan(config, manifest_path, tmp_path / "plan")
        _, t1, _ = load_checkpoint(artifacts["E1"])
        _, t2, _ = load_checkpoint(artifacts["E2"])
        # different stage seeds: weights must differ even before data effects
        assert not np.array_equal(t1["model.patch_proj.weight"], t2["model.patch_proj.weight"])

    def test_rerun_with_new_seed_replaces_tokens_and_log(self, corpus, tmp_path):
        manifest_path, _, _ = corpus
        for seed in (0, 1):
            config = micro_config()
            config["plan"]["iterations"] = 1
            config["seed"] = seed
            run_iteration_plan(config, manifest_path, tmp_path / "plan")
        iter1 = tmp_path / "plan" / "iter1"
        _, meta = read_token_dump(iter1 / "tokens.bin", iter1 / "tokens.json")
        assert meta["config"]["seed"] == random_tokenizer(config).seed
        assert _logged_steps(iter1 / "train.log.jsonl") == list(range(1, config["training"]["updates"] + 1))

    def test_rerun_on_another_corpus_retokenizes_and_retrains(self, tmp_path):
        # the same row ids and paths with new audio: tone corpus seed 7, then seed 8, in one workdir
        config = micro_config()
        config["plan"]["iterations"] = 1
        for seed in (7, 8):
            spec = SyntheticCorpusSpec(24, 1.5, "tone-sequence", 4, seed=seed)
            manifest_path = generate_synthetic(spec, tmp_path / "corpus")
            run_iteration_plan(config, manifest_path, tmp_path / "plan")
        run_iteration_plan(config, manifest_path, tmp_path / "fresh")
        for name in ("tokens.bin", "encoder.ckpt"):
            reused, fresh = tmp_path / "plan" / "iter1" / name, tmp_path / "fresh" / "iter1" / name
            assert reused.read_bytes() == fresh.read_bytes(), name

    def test_iteration_bounds(self, corpus, tmp_path):
        manifest_path, _, _ = corpus
        config = micro_config()
        config["plan"]["iterations"] = 4
        with pytest.raises(ContractError):
            run_iteration_plan(config, manifest_path, tmp_path / "plan")

    def test_missing_prior_stage_raises_plan_error(self, corpus, tmp_path, monkeypatch):
        manifest_path, _, _ = corpus
        config = micro_config()
        config["plan"]["iterations"] = 2

        def fake_pretrain(config, manifest, featurizer, token_lookup, workdir, stage_tag=1):
            return tmp_path / "nowhere" / "encoder.ckpt"

        monkeypatch.setattr(train_mod, "pretrain_encoder", fake_pretrain)
        with pytest.raises(PlanError, match="iter1"):
            run_iteration_plan(config, manifest_path, tmp_path / "plan")


class TestEvaluateMlm:
    def test_deterministic(self, corpus, tmp_path):
        _, manifest, featurizer = corpus
        config = micro_config(updates=3)
        tokens = _tokens(config, manifest, featurizer)
        ckpt = pretrain_encoder(config, manifest, featurizer, tokens, tmp_path / "run")
        model, _ = encoder_from_checkpoint(ckpt)
        a = evaluate_mlm(model, tokens, featurizer, manifest.rows, 0.75, seed=1)
        b = evaluate_mlm(model, tokens, featurizer, manifest.rows, 0.75, seed=1)
        assert a == b
        c = evaluate_mlm(model, tokens, featurizer, manifest.rows, 0.75, seed=2)
        assert a["loss_per_masked"] != c["loss_per_masked"]
