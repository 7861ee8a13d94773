import json
from pathlib import Path

import numpy as np
import pytest

from audiomlm import audio
from audiomlm.checkpoint import save_checkpoint
from audiomlm.cli import EXIT_CONFIG, EXIT_DATA, main
from audiomlm.config import resolve_config
from audiomlm.data import Featurizer, ensure_mel_stats, load_manifest
from audiomlm.distill import TokenizerEncoder, TokenizerNetConfig, TokenizerPredictor
from audiomlm.train import tokenize_corpus, tokenizer_from_checkpoint


def _micro_overrides():
    return [
        "--set", "encoder.hidden=16",
        "--set", "encoder.ffn=32",
        "--set", "encoder.layers=1",
        "--set", "training.updates=4",
        "--set", "training.warmup=1",
        "--set", "training.batch_seconds=10.0",
        "--set", "training.checkpoint_every=2",
        "--set", "tokenizer.layers=1",
        "--set", "tokenizer.predictor_layers=1",
        "--set", "tokenizer.updates=3",
        "--set", "tokenizer.warmup=1",
        "--set", "tokenizer.batch_seconds=10.0",
        "--set", "tokenizer.kmeans_samples=256",
    ]


def _learned_tokenizer_ckpt(path, *overrides):
    """A seeded, untrained one-layer learned tokenizer under the tiny preset (64 wide, K = 32)."""
    config = resolve_config("tiny", None, ["tokenizer.layers=1", "tokenizer.predictor_layers=1", *overrides], None)
    enc = config["encoder"]
    net = TokenizerNetConfig(width=enc["hidden"], ffn=enc["ffn"], layers=1, heads=enc["heads"],
                             predictor_layers=1, codebook_size=enc["codebook_size"],
                             max_time_patches=enc["max_time_patches"])
    rng = np.random.default_rng(0)
    tensors = {f"model.enc.{k}": v.data for k, v in TokenizerEncoder(net, rng).parameters().items()}
    tensors.update({f"model.pred.{k}": v.data for k, v in TokenizerPredictor(net, rng).parameters().items()})
    cw = rng.standard_normal((net.codebook_size, net.width)).astype(np.float32)
    tensors.update({"codebook.codewords": cw, "codebook.ema_counts": np.ones(net.codebook_size, np.float32),
                    "codebook.ema_sums": cw.copy(), "codebook.stale": np.zeros(net.codebook_size, np.float32)})
    return save_checkpoint(path, config, tensors, extra={"step": 0, "ema_decay": 0.99})


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clicorpus")
    rc = main(["synth-corpus", "--out", str(out), "--clips", "16", "--classes", "4",
               "--seconds", "1.5", "--seed", "3"])
    assert rc == 0
    return out


class TestArgHandling:
    def test_pretrain_without_manifest_exits_2_with_usage(self, capsys):
        rc = main(["pretrain"])
        assert rc == EXIT_CONFIG
        assert "--manifest" in capsys.readouterr().err

    def test_unknown_preset_exits_2(self, corpus_dir, tmp_path, capsys):
        rc = main(["pretrain", "--preset", "giant", "--manifest",
                   str(corpus_dir / "manifest.jsonl"), "--workdir", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_unknown_override_key_exits_2(self, corpus_dir, tmp_path):
        rc = main(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                   "--workdir", str(tmp_path), "--set", "training.does_not_exist=1"])
        assert rc == EXIT_CONFIG

    def test_missing_manifest_file_exits_3(self, tmp_path):
        rc = main(["pretrain", "--manifest", str(tmp_path / "nope.jsonl"),
                   "--workdir", str(tmp_path)])
        assert rc == EXIT_DATA

    def test_too_few_kmeans_samples_exits_3(self, tmp_path, capsys):
        # one 0.5 s clip holds 24 patches, fewer than K = 32
        assert main(["synth-corpus", "--out", str(tmp_path / "c"), "--clips", "1",
                     "--seconds", "0.5"]) == 0
        manifest, work = str(tmp_path / "c" / "manifest.jsonl"), tmp_path / "run"
        assert main(["pretrain", "--manifest", manifest, "--workdir", str(work),
                     *_micro_overrides()]) == 0
        rc = main(["train-tokenizer", "--manifest", manifest, "--workdir", str(work),
                   "--teacher", str(work / "encoder.ckpt"), *_micro_overrides()])
        assert rc == EXIT_DATA
        assert "data error: k-means needs at least 32 samples" in capsys.readouterr().err

    def test_clip_longer_than_position_table_exits_3(self, corpus_dir, tmp_path, capsys):
        rc = main(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                   "--workdir", str(tmp_path), *_micro_overrides(),
                   "--set", "encoder.max_time_patches=4"])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "exceeds table size 4" in err

    def test_clip_longer_than_learned_tokenizer_table_exits_3(self, corpus_dir, tmp_path, capsys):
        ckpt = _learned_tokenizer_ckpt(tmp_path / "tok.ckpt", "encoder.max_time_patches=4")
        manifest = str(corpus_dir / "manifest.jsonl")
        for command in ("pretrain", "inspect-codebook"):
            rc = main([command, "--manifest", manifest, "--workdir", str(tmp_path / command),
                       "--tokenizer", str(ckpt), *_micro_overrides()])
            assert rc == EXIT_DATA, command
            err = capsys.readouterr().err
            assert err.startswith("data error:") and "exceeds table size 4" in err


class TestSynthAndManifest:
    def test_synth_corpus_layout(self, corpus_dir):
        manifest = corpus_dir / "manifest.jsonl"
        rows = [json.loads(l) for l in manifest.read_text().splitlines()]
        assert len(rows) == 16
        assert (corpus_dir / rows[0]["path"]).exists()
        assert rows[0]["path"].startswith("corpus/c0/")

    def test_manifest_command(self, corpus_dir, tmp_path, capsys):
        rc = main(["manifest", "--root", str(corpus_dir / "corpus"),
                   "--out", str(tmp_path / "scan.jsonl")])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rows"] == 16 and out["skipped"] == 0


class TestPipelineCommands:
    def test_pretrain_writes_artifacts(self, corpus_dir, tmp_path, capsys):
        work = tmp_path / "run"
        rc = main(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                   "--workdir", str(work), "--tokenizer", "random", *_micro_overrides()])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert (work / "resolved_config.json").exists()
        assert (work / "encoder.ckpt").exists()
        assert (work / "tokens.bin").exists()
        rows = [json.loads(l) for l in (work / "train.log.jsonl").read_text().splitlines()]
        assert len(rows) == 4

    def test_resolved_config_reproduces_run(self, corpus_dir, tmp_path):
        work_a, work_b = tmp_path / "a", tmp_path / "b"
        args = ["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"), *_micro_overrides()]
        assert main([*args, "--workdir", str(work_a)]) == 0
        assert main(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                     "--config", str(work_a / "resolved_config.json"),
                     "--workdir", str(work_b)]) == 0
        rows_a = [json.loads(l)["loss"] for l in (work_a / "train.log.jsonl").read_text().splitlines()]
        rows_b = [json.loads(l)["loss"] for l in (work_b / "train.log.jsonl").read_text().splitlines()]
        assert rows_a == rows_b

    def test_iterate_single_iteration(self, corpus_dir, tmp_path, capsys):
        work = tmp_path / "plan"
        rc = main(["iterate", "--manifest", str(corpus_dir / "manifest.jsonl"),
                   "--workdir", str(work), "--iterations", "1", *_micro_overrides()])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"E1"}
        assert (work / "iter1" / "encoder.ckpt").exists()

    def test_probe_extract_and_inspect(self, corpus_dir, tmp_path, capsys):
        work = tmp_path / "probe_run"
        manifest = str(corpus_dir / "manifest.jsonl")
        assert main(["pretrain", "--manifest", manifest, "--workdir", str(work),
                     *_micro_overrides()]) == 0
        capsys.readouterr()

        rc = main(["probe", "--manifest", manifest, "--workdir", str(work),
                   "--checkpoint", str(work / "encoder.ckpt"),
                   "--set", "probe.epochs=30", "--set", "probe.seeds=2", *_micro_overrides()])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["metric"] == "accuracy"
        results = [json.loads(l) for l in (work / "results.jsonl").read_text().splitlines()]
        assert len(results) == 3  # 2 seeds + mean row
        assert {"task", "metric", "value", "seed", "checkpoint_hash"} <= set(results[0])

        rc = main(["extract", "--manifest", manifest, "--workdir", str(work),
                   "--checkpoint", str(work / "encoder.ckpt"), *_micro_overrides()])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        from audiomlm.encoder import read_embedding_dump

        dumps = read_embedding_dump(out["embeddings"], out["index"])
        assert len(dumps) == 16
        assert dumps[next(iter(dumps))].shape[1] == 16  # hidden size

        rc = main(["inspect-codebook", "--workdir", str(work), "--seed", "5"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["codebook_size"] == 32
        assert out["used_entries"] > 16  # white-noise usage spreads

    def test_inspect_learned_tokenizer_tokenizes_per_clip(self, tmp_path, capsys):
        # 20 clips of 5 s hold 620 time patches in all, more than the 512-row position table
        assert main(["synth-corpus", "--out", str(tmp_path / "c"), "--clips", "20",
                     "--seconds", "5", "--seed", "1"]) == 0
        manifest_path = tmp_path / "c" / "manifest.jsonl"
        ckpt = _learned_tokenizer_ckpt(tmp_path / "tok.ckpt")
        capsys.readouterr()
        rc = main(["inspect-codebook", "--manifest", str(manifest_path), "--workdir", str(tmp_path / "w"),
                   "--tokenizer", str(ckpt)])
        assert rc == 0
        report = json.loads(Path(json.loads(capsys.readouterr().out)["report"]).read_text())

        manifest = load_manifest(manifest_path)
        featurizer = Featurizer(manifest, *audio.load_stats(ensure_mel_stats(manifest_path, manifest)))
        tokens = tokenize_corpus(manifest, featurizer, tokenizer_from_checkpoint(ckpt)[0])
        expected = np.bincount(np.concatenate(list(tokens.values())), minlength=32)
        assert report["usage_histogram"] == expected.tolist()

    def test_finetune_command(self, corpus_dir, tmp_path, capsys):
        work = tmp_path / "ft"
        manifest = str(corpus_dir / "manifest.jsonl")
        assert main(["pretrain", "--manifest", manifest, "--workdir", str(work),
                     *_micro_overrides()]) == 0
        capsys.readouterr()
        rc = main(["finetune", "--manifest", manifest, "--workdir", str(work),
                   "--checkpoint", str(work / "encoder.ckpt"),
                   "--set", "finetune.epochs=1", "--set", "finetune.batch_clips=8",
                   *_micro_overrides()])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.0 <= out["value"] <= 1.0

    def test_human_flag_pretty_prints(self, corpus_dir, tmp_path, capsys):
        rc = main(["--human", "synth-corpus", "--out", str(tmp_path / "h"), "--clips", "2",
                   "--seconds", "0.5"])
        assert rc == 0
        assert "manifest:" in capsys.readouterr().out


class TestWorkdirEnv:
    def test_obeats_workdir_env_supplies_default(self, corpus_dir, tmp_path, monkeypatch, capsys):
        env_dir = tmp_path / "envwork"
        monkeypatch.setenv("OBEATS_WORKDIR", str(env_dir))
        rc = main(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                   *_micro_overrides()])
        assert rc == 0
        assert (env_dir / "encoder.ckpt").exists()
