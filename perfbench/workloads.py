"""The three workloads. Each builds its inputs from the seed in ``setup``,
runs one whole pass of the program in ``run_round`` and checks that pass's
outputs in ``check``.

``run_round`` returns the round's wall time, the slowdown factors it was
normalized by (see calibrate.py) and, for each of the workload's two phases,
its units of work as ``(kind, patches, seconds)``: one training step, one
clip, or one call. Units of one kind do the same work, so metrics.py can take
the median time per kind. Every time is already divided by the slowdown
measured around the stretch of work it belongs to.

Every round attempts the same operations, so the share of failed operations
does not depend on how many rounds fit in a run. The program is reached only
through module attributes (``train.tokenize_corpus_random``, ...), so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

import calibrate
import checks
import corpora
import oracle
from audiomlm import audio, checkpoint, cli, codebook, config, data, distill, encoder, evaluate, patches, train

# The shortened two-iteration tiny plan (E1 -> T2 -> E2). Every value the
# checks rely on is stated here rather than taken from the preset.
PLAN = {
    "training": {"updates": 20, "warmup": 4, "peak_lr": 1e-3, "decay_shape": "linear",
                 "batch_seconds": 40.0, "checkpoint_every": 10, "log_every": 1},
    "tokenizer": {"updates": 20, "warmup": 2, "peak_lr": 1e-3, "batch_seconds": 40.0,
                  "kmeans_samples": 2048},
    "plan": {"iterations": 2},
}
PRETRAIN_CLIPS, PRETRAIN_SECONDS, TINY_K = 24, 5.0, 32
TOKENIZE_CLIPS, TOKENIZE_SECONDS = 6, 3.0
EVAL_LADDER = (1.0, 2.5, 6.0, 20.0)
EVAL_CLASSES, EVAL_ENCODER = 4, {"hidden": 256, "ffn": 1024, "layers": 2, "heads": 4}
PROBE = {"epochs": 500, "lr": 0.05, "patience": 60, "weight_decay": 1e-4}
PROBE_SEEDS = 3

# check thresholds
FIRST_LOSS_MARGIN = 0.1  # E1 starts from near-uniform logits, so its loss is ~ln K
LOSS_WINDOW, MIN_LOSS_DROP = 4, 0.15  # E1 fell 0.27-0.69 over 20 updates on 24 seeds tried
TEACHER_COS_FLOOR = 0.5
PROBE_FLOOR = 0.5  # twice chance: classes occupy disjoint mel bands, but each probe seed tests one clip per class
GAP_TOL = 1e-3  # top-2 cosine gap below which float32 rounding may flip the argmax


def _quiet(fn, *args):
    """Call ``fn`` with its standard output discarded; the last line of ours is the result."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class ClipClock:
    """Per-clip times of one pass: the interval from one request the program
    makes to ``featurizer`` to the next (the last clip ends at ``finish``),
    fed to ``segments``; reference runs are left out of the intervals."""

    def __init__(self, featurizer, segments):
        self.segments, self._last = segments, None
        inner = featurizer.patch_sequence

        def timed(row):
            self._lap()
            return inner(row)

        featurizer.patch_sequence = timed

    def _lap(self) -> None:
        now = time.perf_counter()
        if self._last is not None:
            self.segments.add(now - self._last)
            now = time.perf_counter()
        self._last = now

    def finish(self) -> None:
        self._lap()
        self.segments.close()


def _sample_counts(manifest_path: Path) -> dict[str, int]:
    rows = checks.read_jsonl(manifest_path)
    return {r["id"]: oracle.wav_samples(manifest_path.parent / r["path"]).size for r in rows}


def _prepare_corpus(manifest_path: Path):
    """Mel stats through the program (as a user's first run computes them),
    then the manifest and normalization arrays the program will use."""
    manifest = data.load_manifest(manifest_path)
    mean, std = audio.load_stats(data.ensure_mel_stats(manifest_path, manifest))
    return manifest, mean, std


class Pretrain:
    name = "pretrain"

    def setup(self, work: Path, seed: int) -> None:
        self.work = work
        self.manifest_path = corpora.tone_corpus(work / "corpus", seed, PRETRAIN_CLIPS, PRETRAIN_SECONDS)
        _prepare_corpus(self.manifest_path)
        self.samples = _sample_counts(self.manifest_path)
        self.config_path = work / "plan.json"
        self.config_path.write_text(json.dumps({"seed": seed, **PLAN}))
        per_batch = int(PLAN["training"]["batch_seconds"] // PRETRAIN_SECONDS)
        self.patches_per_step = per_batch * oracle.expected_patches(next(iter(self.samples.values())))
        self.ops_per_round = 2 * PLAN["training"]["updates"] + PLAN["tokenizer"]["updates"] + 2 * PRETRAIN_CLIPS
        self.round_index = 0

    def run_round(self) -> dict:
        self.round_index += 1
        self.plan_dir = self.work / f"plan{self.round_index}"
        steps0 = dict(self.hooks.optimizer_steps)
        seen = {k: len(v) for k, v in self.hooks.step_times.items()}
        calibration0, factors0 = self.hooks.calibration_s, len(self.hooks.slowdowns)
        t0 = time.perf_counter()
        rc = _quiet(cli.main, ["iterate", "--preset", "tiny", "--config", str(self.config_path),
                               "--manifest", str(self.manifest_path), "--workdir", str(self.plan_dir)])
        wall = time.perf_counter() - t0 - (self.hooks.calibration_s - calibration0)
        slowdowns = self.hooks.slowdowns[factors0:] or [1.0]
        if rc != 0:
            raise RuntimeError(f"audiomlm iterate exited with {rc}")
        self.steps = {k: v - steps0.get(k, 0) for k, v in self.hooks.optimizer_steps.items()}
        steps = {k: v[seen.get(k, 0):] for k, v in self.hooks.step_times.items()}
        # phase 1: encoder training (E1, E2); phase 2: tokenizer training (T2)
        return {"wall_s": wall / (sum(slowdowns) / len(slowdowns)), "slowdowns": slowdowns,
                "phase1": [("step", self.patches_per_step, t) for t in steps["encoder"]],
                "phase2": [("step", self.patches_per_step, t) for t in steps["tokenizer"]]}

    def check(self, tracer=None) -> list[str]:
        tr, tok = PLAN["training"], PLAN["tokenizer"]
        logs = {
            "E1": (self.plan_dir / "iter1" / "train.log.jsonl", "encoder1", tr),
            "T2": (self.plan_dir / "iter2" / "tokenizer.log.jsonl", "tokenizer2", tok),
            "E2": (self.plan_dir / "iter2" / "train.log.jsonl", "encoder2", tr),
        }
        rows, out = {}, []
        for stage, (path, key, sec) in logs.items():
            rows[stage] = checks.read_jsonl(path) if path.exists() else []
            out += checks.stage_log(rows[stage], sec["updates"], self.steps.get(key, 0), stage)
            out += checks.lr_rows(rows[stage], sec["warmup"], sec["peak_lr"], sec["updates"], stage)
        out += checks.first_loss_near_uniform(rows["E1"], TINY_K, FIRST_LOSS_MARGIN, "E1")
        for stage in ("E1", "E2"):
            out += checks.loss_falls(rows[stage], LOSS_WINDOW, MIN_LOSS_DROP, stage)
        out += checks.final_teacher_cos(rows["T2"], TEACHER_COS_FLOOR, "T2")
        dumped = 0
        for it in ("iter1", "iter2"):
            tokens = checks.read_token_dump(self.plan_dir / it / "tokens.bin", self.plan_dir / it / "tokens.json")
            out += checks.row_counts(tokens, self.samples, f"{it} tokens")
            out += checks.token_range(tokens, TINY_K, f"{it} tokens")
            dumped += sum(t.size for t in tokens.values())
        if tracer is not None:
            out += checks.equal_counts(self.outside_steps, sum(self.steps.values()), "training steps")
            out += checks.equal_counts(self.outside_patches, dumped, "tokenized patches")
        shutil.rmtree(self.plan_dir)
        return out


class Tokenize:
    name = "tokenize"

    def setup(self, work: Path, seed: int) -> None:
        self.manifest_path = corpora.tone_corpus(work / "corpus", seed, TOKENIZE_CLIPS, TOKENIZE_SECONDS)
        self.manifest, self.mean, self.std = _prepare_corpus(self.manifest_path)
        self.samples = _sample_counts(self.manifest_path)
        base = config.preset_config("base")
        base["seed"] = seed
        base["tokenizer"].update(layers=1, predictor_layers=1)
        enc = base["encoder"]
        self.k, self.heads = enc["codebook_size"], enc["heads"]
        self.random = codebook.RandomProjectionTokenizer.create(seed, enc["patch_dim"], enc["hidden"], self.k)
        # a seeded, untrained one-layer learned tokenizer at base widths
        net = distill.TokenizerNetConfig(width=enc["hidden"], ffn=enc["ffn"], layers=1, heads=self.heads,
                                         predictor_layers=1, codebook_size=self.k)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x70C]))
        tensors = {f"model.enc.{k}": p.data for k, p in distill.TokenizerEncoder(net, rng).parameters().items()}
        tensors.update({f"model.pred.{k}": p.data for k, p in distill.TokenizerPredictor(net, rng).parameters().items()})
        cw = rng.standard_normal((self.k, enc["hidden"])).astype(np.float32)
        tensors.update({"codebook.codewords": cw, "codebook.ema_counts": np.ones(self.k, np.float32),
                        "codebook.ema_sums": cw.copy(), "codebook.stale": np.zeros(self.k, np.float32)})
        self.learned_params = tensors
        self.ckpt = work / "tokenizer.ckpt"
        checkpoint.save_checkpoint(self.ckpt, base, tensors, extra={"step": 0, "ema_decay": 0.99})
        self.total_patches = sum(oracle.expected_patches(n) for n in self.samples.values())
        self.ops_per_round = 2 * TOKENIZE_CLIPS
        self.oracle_clips = list(np.random.default_rng(seed).choice(sorted(self.samples), size=2, replace=False))
        self.reference = None

    def _pass(self, tokenize, load_tokenizer):
        """One tokenization pass from a cold featurizer: the tokens, the pass's
        wall time and its per-clip times, normalized every two clips."""
        segments = calibrate.Segments(2, self.calibrated)
        spent0, t0 = segments.spent, time.perf_counter()
        tokenizer = load_tokenizer()
        featurizer = data.Featurizer(self.manifest, self.mean, self.std)
        clock = ClipClock(featurizer, segments)
        tokens = tokenize(self.manifest, featurizer, tokenizer)
        clock.finish()
        wall = time.perf_counter() - t0 - (segments.spent - spent0)
        return tokens, wall / segments.mean_slowdown(), segments

    def run_round(self) -> dict:
        self.tokens_random, wall_r, seg_r = self._pass(train.tokenize_corpus_random, lambda: self.random)
        self.tokens_learned, wall_l, seg_l = self._pass(
            train.tokenize_corpus_learned, lambda: train.tokenizer_from_checkpoint(self.ckpt)[0])
        per_clip = self.total_patches // TOKENIZE_CLIPS  # every clip has the same length
        # phase 1: random-projection pass; phase 2: learned pass
        return {"wall_s": wall_r + wall_l, "slowdowns": seg_r.slowdowns + seg_l.slowdowns,
                "phase1": [("clip", per_clip, t) for t in seg_r.times],
                "phase2": [("clip", per_clip, t) for t in seg_l.times]}

    def _reference_tokens(self):
        """Float64 cosine argmax (and top-2 gaps) over the sampled clips, from
        the benchmark's own frontend, projection and transformer forward."""
        root = self.manifest_path.parent
        rows = {r["id"]: root / r["path"] for r in checks.read_jsonl(self.manifest_path)}
        mean, std = oracle.mel_stats(rows.values())
        ref = {}
        cw = self.learned_params["codebook.codewords"]
        for clip in self.oracle_clips:
            x = oracle.patches(oracle.wav_samples(rows[clip]), mean, std)
            ref[("random", clip)] = oracle.cosine_argmax(x @ self.random.projection.astype(np.float64),
                                                         self.random.codebook.codewords)
            emb = oracle.transformer_embed(self.learned_params, "model.enc.", x, 1, self.heads)
            ref[("learned", clip)] = oracle.cosine_argmax(emb, cw)
        return ref

    def check(self, tracer=None) -> list[str]:
        if self.reference is None:
            self.reference = self._reference_tokens()
        out = []
        for kind, tokens in (("random", self.tokens_random), ("learned", self.tokens_learned)):
            out += checks.row_counts(tokens, self.samples, f"{kind} tokens")
            out += checks.token_range(tokens, self.k, f"{kind} tokens")
            for clip in self.oracle_clips:
                ids, gaps = self.reference[(kind, clip)]
                if len(tokens.get(clip, ())) == ids.size:
                    out += checks.tokens_match(tokens[clip], ids, gaps, GAP_TOL, f"{kind} tokens of {clip}")
        if tracer is not None:
            recorded = sum(t.size for t in self.tokens_random.values()) + sum(t.size for t in self.tokens_learned.values())
            out += checks.equal_counts(self.outside_patches, recorded, "tokenized patches")
        return out


class Evaluate:
    name = "evaluate"

    def setup(self, work: Path, seed: int) -> None:
        self.manifest_path = corpora.noise_corpus(work / "corpus", seed, EVAL_CLASSES, EVAL_LADDER)
        self.manifest, self.mean, self.std = _prepare_corpus(self.manifest_path)
        self.samples = _sample_counts(self.manifest_path)
        cfg = config.preset_config("tiny")
        cfg["seed"] = seed
        cfg["encoder"].update(EVAL_ENCODER)
        model = encoder.EncoderModel(config.EncoderConfig.from_dict(cfg["encoder"]),
                                     np.random.default_rng(np.random.SeedSequence([seed, 0xE7C])))
        self.params = {f"model.{k}": p.data for k, p in model.parameters().items()}
        self.ckpt = work / "encoder.ckpt"
        checkpoint.save_checkpoint(self.ckpt, cfg, self.params, extra={"step": 0})
        self.total_patches = sum(oracle.expected_patches(n) for n in self.samples.values())
        self.ops_per_round = 2 * len(self.samples) + PROBE_SEEDS
        short = sorted(c for c, n in self.samples.items() if n <= 4 * corpora.SAMPLE_RATE)
        self.oracle_clip = str(np.random.default_rng(seed).choice(short))
        self.reference = None

    def run_round(self) -> dict:
        # phase 1: per-clip extract, normalized every four clips, one kind per
        # clip length; phase 2: one batched pooled_features call
        extract = calibrate.Segments(4, self.calibrated)
        spent0, t0 = extract.spent, time.perf_counter()
        model, _ = train.encoder_from_checkpoint(self.ckpt)
        featurizer = data.Featurizer(self.manifest, self.mean, self.std)
        self.embeddings, lengths = {}, []
        for row in self.manifest.rows:
            c0 = time.perf_counter()
            seq = featurizer.patch_sequence(row)
            t_ids, f_ids = patches.patch_position_ids(len(seq))
            self.embeddings[row.id] = model.extract(seq.patches[None], t_ids[None], f_ids[None])[0][0]
            extract.add(time.perf_counter() - c0)
            lengths.append(self.samples[row.id])
        extract.close()
        wall = (time.perf_counter() - t0 - (extract.spent - spent0)) / extract.mean_slowdown()

        pooled = calibrate.Segments(1, self.calibrated)
        t2 = time.perf_counter()
        self.task = evaluate.make_probe_task(self.manifest)
        self.pooled = evaluate.pooled_features(
            model, data.Featurizer(self.manifest, self.mean, self.std), self.task.rows, pooling="mean")
        pooled.add(time.perf_counter() - t2)
        t3 = time.perf_counter()
        self.accuracy, _ = evaluate.probe_over_seeds(self.pooled, self.task, PROBE, PROBE_SEEDS)
        wall += pooled.times[0] + (time.perf_counter() - t3) / pooled.mean_slowdown()
        return {"wall_s": wall, "slowdowns": extract.slowdowns + pooled.slowdowns,
                "phase1": [(n, oracle.expected_patches(n), t) for n, t in zip(lengths, extract.times)],
                "phase2": [("call", self.total_patches, pooled.times[0])]}

    def check(self, tracer=None) -> list[str]:
        out = checks.row_counts(self.embeddings, self.samples, "extract embeddings")
        means = np.stack([self.embeddings[r.id].mean(axis=0) for r in self.task.rows])
        out += checks.close_rows(self.pooled, means, 1e-3, 1e-4, "pooled_features vs per-clip extract means")
        if self.reference is None:
            root = self.manifest_path.parent
            paths = [root / r["path"] for r in checks.read_jsonl(self.manifest_path)]
            mean, std = oracle.mel_stats(paths)
            x = oracle.patches(oracle.wav_samples(root / "wav" / f"{self.oracle_clip}.wav"), mean, std)
            self.reference = oracle.transformer_embed(self.params, "model.", x, EVAL_ENCODER["layers"], EVAL_ENCODER["heads"])
        got = self.embeddings[self.oracle_clip]
        out += checks.close_rows(got[None], self.reference[None], 1e-3, 2e-3, f"extract of {self.oracle_clip} vs float64 forward")
        out += checks.at_least(self.accuracy, PROBE_FLOOR, "mean probe accuracy")
        return out


WORKLOADS = {w.name: w for w in (Pretrain, Tokenize, Evaluate)}
