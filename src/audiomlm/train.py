"""Training loops and the encoder/tokenizer iteration driver.

Determinism is functional: the batch plan is a pure function of (seed, epoch),
per-step mask draws of (seed, step), and model init of (seed, stage), so a
resumed run replays the exact step sequence of an uninterrupted one.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .codebook import (
    Codebook,
    RandomProjectionTokenizer,
    Tokenizer,
    ema_update,
    kmeans_init,
    perplexity,
    read_token_dump,
    write_token_dump,
)
from .config import EncoderConfig, config_hash
from .data import (
    Featurizer,
    Manifest,
    PatchBatch,
    batch_iterator,
    corpus_identity,
    epoch_batches,
    ensure_mel_stats,
    load_manifest,
)
from .distill import (
    LearnedTokenizer,
    TokenizerEncoder,
    TokenizerNetConfig,
    TokenizerPredictor,
    distill_step_graph,
    mean_teacher_cosine,
)
from .encoder import EncoderModel, mlm_loss, mlm_metrics
from .errors import ContractError, PlanError
from .nn import Module
from .optim import AdamW, lr_at
from .patches import sample_mask
from .tensor import Tensor
from . import audio

# stream tags for deriving independent RNGs from the run seed
_STREAMS = {
    "encoder-init": 11,
    "tokenizer-init": 12,
    "random-tokenizer": 13,
    "mask": 14,
    "ema-reseed": 15,
    "kmeans": 16,
    "eval-mask": 17,
}


def derive_rng(seed: int, stream: str, *extra: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _STREAMS[stream], *extra]))


def _append_log(path: Path, row: dict) -> None:
    with open(path, "a") as f:
        f.write(json.dumps(row) + "\n")


def batch_masks(
    batch: PatchBatch, mask_ratio: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-clip uniform masks assembled into a (B, N) bool array."""
    masked = np.zeros(batch.valid.shape, dtype=bool)
    for i, n in enumerate(batch.n_patches):
        spec = sample_mask(n, mask_ratio, rng)
        masked[i, spec.masked] = True
    return masked


def tokens_to_batch(batch: PatchBatch, token_lookup: dict[str, np.ndarray]) -> np.ndarray:
    tokens = np.zeros(batch.valid.shape, dtype=np.int64)
    for i, (utt_id, n) in enumerate(zip(batch.ids, batch.n_patches)):
        tokens[i, :n] = token_lookup[utt_id][:n]
    return tokens


def tokenize_corpus(manifest: Manifest, featurizer: Featurizer, tokenizer: Tokenizer) -> dict[str, np.ndarray]:
    """Tokens per manifest row, one clip at a time."""
    out: dict[str, np.ndarray] = {}
    for row in manifest.rows:
        clip = featurizer.collate([row])
        out[row.id] = tokenizer.tokenize(clip.patches, clip.time_ids, clip.freq_ids)[0].astype(np.uint32)
    return out


# the benchmark (perfbench/) calls and traces the pass under both names
tokenize_corpus_random = tokenize_corpus_learned = tokenize_corpus


def random_tokenizer(config: dict) -> RandomProjectionTokenizer:
    """The run's first-iteration tokenizer, seeded from the config's seed."""
    enc = config["encoder"]
    seed = int(derive_rng(int(config["seed"]), "random-tokenizer").integers(2**31))
    return RandomProjectionTokenizer.create(seed, enc["patch_dim"], enc["hidden"], enc["codebook_size"])


def ensure_token_dump(
    workdir: Path, manifest: Manifest, featurizer: Featurizer, tokenizer: Tokenizer, meta: dict,
) -> dict[str, np.ndarray]:
    """The corpus tokens from ``workdir/tokens.bin``, which is rewritten unless its
    sidecar records this tokenizer's codebook hash and, as its config, ``meta``
    plus the corpus identity."""
    bin_path, sidecar = workdir / "tokens.bin", workdir / "tokens.json"
    cb_hash = tokenizer.codebook.content_hash()
    meta = {**meta, "corpus": corpus_identity(manifest)}
    found = json.loads(sidecar.read_text()) if bin_path.exists() and sidecar.exists() else {}
    if (found.get("codebook_hash"), found.get("config")) != (cb_hash, meta):
        write_token_dump(bin_path, sidecar, tokenize_corpus(manifest, featurizer, tokenizer), cb_hash, meta)
    return read_token_dump(bin_path, sidecar)[0]


# -- the stage runner ---------------------------------------------------------------


class _Stage(NamedTuple):
    """What ``_run_stage`` needs of a stage: ``model`` (trained, saved as
    ``model.<name>``), ``loss(step, batch)`` -> (scaled loss graph, log fields),
    ``state()`` (further tensors to save) and the final checkpoint's extras."""

    model: Module
    loss: Callable[[int, PatchBatch], tuple[Tensor, dict]]
    state: Callable[[], dict[str, np.ndarray]]
    final_extra: dict


def _truncate_log(path: Path, step: int) -> None:
    """Keep the leading rows of steps up to ``step`` (none on a fresh start), so
    that a resumed or re-run stage logs each step exactly once."""
    if path.exists():
        rows = path.read_text().splitlines(keepends=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text("".join(itertools.takewhile(lambda r: json.loads(r)["step"] <= step, rows)))
        os.replace(tmp, path)


def _written_by(path: Path, config: dict, corpus: str):
    """The checkpoint's (tensors, extra) when it exists and was written with this
    config on this corpus, else None."""
    if not path.exists():
        return None
    stored, tensors, extra = load_checkpoint(path)
    if config_hash(stored) == config_hash(config) and extra.get("corpus") == corpus:
        return tensors, extra
    return None


def _run_stage(config, schedule, manifest, featurizer, workdir, names, setup) -> Path:
    """Train one stage to ``schedule["updates"]`` steps; resumable; returns the final checkpoint.

    ``names`` are the final checkpoint, resume checkpoint and log in ``workdir``;
    ``schedule`` is the config section holding ``updates``, ``warmup``, ``peak_lr``
    and ``batch_seconds``. ``setup(resumed)`` builds the stage from the resume
    checkpoint's tensors (None on a fresh start); the runner then loads the
    model parameters and optimizer state from them.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    final_path, latest_path, log_path = (workdir / name for name in names)
    corpus = corpus_identity(manifest)
    if _written_by(final_path, config, corpus) is not None:
        return final_path

    seed = int(config["seed"])
    tr = config["training"]
    step, epoch, batch_idx = 0, 0, 0
    tensors, extra = _written_by(latest_path, config, corpus) or (None, None)
    stage = setup(tensors)
    params = stage.model.parameters()
    opt = AdamW(params, beta1=tr["beta1"], beta2=tr["beta2"], eps=tr["eps"], weight_decay=tr["weight_decay"])
    if tensors is not None:
        stage.model.load_arrays(tensors, prefix="model.")
        opt.load_state(tensors, extra["opt_step"])
        step, epoch, batch_idx = extra["step"], extra["epoch"], extra["batch_idx"]
    _truncate_log(log_path, step)

    def saved_tensors() -> dict[str, np.ndarray]:
        return {**{f"model.{k}": p.data for k, p in params.items()}, **stage.state()}

    total = int(schedule["updates"])
    plan = batch_iterator(manifest, schedule["batch_seconds"], seed, start_epoch=epoch)
    remaining = (item for item in plan if item.epoch > epoch or item.index >= batch_idx)
    for item in itertools.islice(remaining, total - step):
        t0 = time.perf_counter()
        step += 1
        batch = featurizer.collate(item.rows)
        stage.model.zero_grad()
        loss, fields = stage.loss(step, batch)
        T.backward(loss)
        lr = lr_at(step, schedule["warmup"], schedule["peak_lr"], total, tr["decay_shape"])
        opt.step(lr)

        if step % tr["log_every"] == 0 or step == total:
            row = {"step": step, "loss": float(loss.item()), **fields, "lr": lr}
            _append_log(log_path, {**row, "wall_ms": (time.perf_counter() - t0) * 1000.0})
        if step % tr["checkpoint_every"] == 0 and step < total:
            position = {"step": step, "epoch": item.epoch, "batch_idx": item.index + 1, "opt_step": opt.step_count}
            save_checkpoint(latest_path, config, {**saved_tensors(), **opt.state_arrays()},
                            extra={**position, "corpus": corpus})

    save_checkpoint(final_path, config, saved_tensors(), extra={"step": step, **stage.final_extra, "corpus": corpus})
    return final_path


# -- encoder pre-training ---------------------------------------------------------


def pretrain_encoder(
    config: dict,
    manifest: Manifest,
    featurizer: Featurizer,
    token_lookup: dict[str, np.ndarray],
    workdir: Path,
    stage_tag: int = 1,
) -> Path:
    """Masked-token-prediction training; resumable; returns the final checkpoint."""
    seed = int(config["seed"])
    tr = config["training"]

    def setup(resumed) -> _Stage:
        model = EncoderModel(
            EncoderConfig.from_dict(config["encoder"]), derive_rng(seed, "encoder-init", stage_tag)
        )

        def loss(step: int, batch: PatchBatch) -> tuple[Tensor, dict]:
            masked = batch_masks(batch, tr["mask_ratio"], derive_rng(seed, "mask", stage_tag, step))
            masked &= batch.valid
            tokens = tokens_to_batch(batch, token_lookup)
            logits, _ = model.forward(
                batch.patches, batch.time_ids, batch.freq_ids, valid=batch.valid, masked=masked
            )
            acc, cov = mlm_metrics(logits.data, tokens, masked, batch.valid)
            scaled = mlm_loss(logits, tokens, masked) * (1.0 / int(masked.sum()))
            return scaled, {"masked_acc": acc, "vocab_coverage": cov}

        return _Stage(model, loss, lambda: {}, {"stage_tag": stage_tag})

    names = ("encoder.ckpt", "latest.ckpt", "train.log.jsonl")
    return _run_stage(config, tr, manifest, featurizer, workdir, names, setup)


def encoder_from_checkpoint(path) -> tuple[EncoderModel, dict]:
    config, tensors, _ = load_checkpoint(path)
    model = EncoderModel(EncoderConfig.from_dict(config["encoder"]), np.random.default_rng(0))
    model.load_arrays(tensors, prefix="model.")
    return model, config


# -- tokenizer training -------------------------------------------------------------


def _tokenizer_net_config(config: dict) -> TokenizerNetConfig:
    enc = config["encoder"]
    tok = config["tokenizer"]
    return TokenizerNetConfig(
        width=enc["hidden"],
        ffn=enc["ffn"],
        layers=tok["layers"],
        heads=enc["heads"],
        predictor_layers=tok["predictor_layers"],
        codebook_size=enc["codebook_size"],
        patch_dim=enc["patch_dim"],
        max_time_patches=enc["max_time_patches"],
    )


def _teacher_embeddings(teacher: EncoderModel, batch: PatchBatch) -> np.ndarray:
    emb, _ = teacher.extract(batch.patches, batch.time_ids, batch.freq_ids, batch.valid)
    return emb


def train_tokenizer_stage(
    config: dict,
    manifest: Manifest,
    featurizer: Featurizer,
    teacher_ckpt: Path,
    workdir: Path,
    stage_tag: int = 2,
) -> Path:
    """Distill the previous-iteration encoder into a quantizing tokenizer."""
    seed = int(config["seed"])
    tok = config["tokenizer"]

    def setup(resumed) -> _Stage:
        teacher, _ = encoder_from_checkpoint(teacher_ckpt)
        net_cfg = _tokenizer_net_config(config)
        init_rng = derive_rng(seed, "tokenizer-init", stage_tag)
        # the saved parameter names are enc.* and pred.*
        model = Module()
        model.enc = TokenizerEncoder(net_cfg, init_rng)
        model.pred = TokenizerPredictor(net_cfg, init_rng)
        if resumed is None:
            codebook = _kmeans_codebook(
                config, manifest, featurizer, model.enc, derive_rng(seed, "kmeans", stage_tag)
            )
        else:
            codebook = _codebook_from_tensors(resumed, tok["ema_decay"])

        def loss(step: int, batch: PatchBatch) -> tuple[Tensor, dict]:
            summed, stats = distill_step_graph(
                model.enc, model.pred, codebook, batch.patches, batch.time_ids, batch.freq_ids,
                batch.valid, _teacher_embeddings(teacher, batch),
            )
            # the graph holds copies of the codewords, so the EMA update may precede backward
            reseed_rng = derive_rng(seed, "ema-reseed", stage_tag, step)
            ema_update(codebook, stats["vectors"], stats["assignments"], reseed_rng)
            fields = {
                "perplexity": perplexity(stats["assignments"], codebook.size),
                "teacher_cos": stats["teacher_cos"],
            }
            return summed * (1.0 / stats["n_valid"]), fields

        return _Stage(model, loss, lambda: _codebook_tensors(codebook), {"ema_decay": codebook.decay})

    names = ("tokenizer.ckpt", "tokenizer.latest.ckpt", "tokenizer.log.jsonl")
    return _run_stage(config, tok, manifest, featurizer, workdir, names, setup)


def _kmeans_codebook(config, manifest, featurizer, encoder, rng) -> Codebook:
    tok = config["tokenizer"]
    target = int(tok["kmeans_samples"])
    vectors = []
    count = 0
    for rows in epoch_batches(manifest, tok["batch_seconds"], int(config["seed"]), 0)[0]:
        batch = featurizer.collate(rows)
        with T.no_grad():
            emb = encoder(batch.patches, batch.time_ids, batch.freq_ids, batch.valid).data
        flat = emb.reshape(-1, emb.shape[-1])[batch.valid.reshape(-1)]
        vectors.append(flat)
        count += flat.shape[0]
        if count >= target:
            break
    samples = np.concatenate(vectors, axis=0)[:target]
    return kmeans_init(samples, config["encoder"]["codebook_size"], rng, decay=tok["ema_decay"])


def _codebook_tensors(codebook: Codebook) -> dict[str, np.ndarray]:
    return {
        "codebook.codewords": codebook.codewords,
        "codebook.ema_counts": codebook.ema_counts,
        "codebook.ema_sums": codebook.ema_sums,
        "codebook.stale": codebook.stale.astype(np.float32),
    }


def _codebook_from_tensors(tensors: dict[str, np.ndarray], decay: float) -> Codebook:
    return Codebook(
        codewords=tensors["codebook.codewords"].copy(),
        ema_counts=tensors["codebook.ema_counts"].copy(),
        ema_sums=tensors["codebook.ema_sums"].copy(),
        decay=decay,
        stale=tensors["codebook.stale"].astype(np.int32),
    )


def tokenizer_from_checkpoint(path) -> tuple[LearnedTokenizer, dict]:
    config, tensors, extra = load_checkpoint(path)
    net_cfg = _tokenizer_net_config(config)
    rng = np.random.default_rng(0)
    encoder = TokenizerEncoder(net_cfg, rng)
    predictor = TokenizerPredictor(net_cfg, rng)
    encoder.load_arrays(tensors, prefix="model.enc.")
    predictor.load_arrays(tensors, prefix="model.pred.")
    codebook = _codebook_from_tensors(tensors, extra.get("ema_decay", config["tokenizer"]["ema_decay"]))
    return LearnedTokenizer(encoder, predictor, codebook, net_cfg), config


# -- evaluation passes ---------------------------------------------------------------


def evaluate_mlm(
    model: EncoderModel,
    token_lookup: dict[str, np.ndarray],
    featurizer: Featurizer,
    rows,
    mask_ratio: float,
    seed: int,
    batch_clips: int = 16,
) -> dict:
    """Deterministic held-out MLM metrics (per-masked-position loss, accuracy)."""
    total_loss, total_masked, accs, covs = 0.0, 0, [], []
    for i in range(0, len(rows), batch_clips):
        batch = featurizer.collate(rows[i : i + batch_clips])
        masked = batch_masks(batch, mask_ratio, derive_rng(seed, "eval-mask", i))
        masked &= batch.valid
        tokens = tokens_to_batch(batch, token_lookup)
        with T.no_grad():
            logits, _ = model.forward(
                batch.patches, batch.time_ids, batch.freq_ids, valid=batch.valid, masked=masked
            )
            loss = mlm_loss_value(logits.data, tokens, masked)
        total_loss += loss
        total_masked += int(masked.sum())
        acc, cov = mlm_metrics(logits.data, tokens, masked, batch.valid)
        accs.append(acc)
        covs.append(cov)
    return {
        "loss_per_masked": total_loss / total_masked,
        "masked_acc": float(np.mean(accs)),
        "vocab_coverage": float(np.mean(covs)),
    }


def mlm_loss_value(logits: np.ndarray, tokens: np.ndarray, masked: np.ndarray) -> float:
    """Numpy-only summed masked cross entropy (no graph), for eval passes."""
    sel = logits[masked]
    tok = tokens[masked]
    z = sel - sel.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return float((lse - z[np.arange(sel.shape[0]), tok]).sum())


def evaluate_tokenizer_cosine(
    tokenizer: LearnedTokenizer,
    teacher: EncoderModel,
    featurizer: Featurizer,
    rows,
    batch_clips: int = 16,
) -> float:
    """Mean predictor-vs-teacher cosine over the given rows."""
    cos, weights = [], []
    for i in range(0, len(rows), batch_clips):
        batch = featurizer.collate(rows[i : i + batch_clips])
        teacher_out = _teacher_embeddings(teacher, batch)
        z = tokenizer.tokenize(batch.patches, batch.time_ids, batch.freq_ids, batch.valid)
        with T.no_grad():
            q = Tensor(tokenizer.codebook.codewords[z])
            pred = tokenizer.predictor(q, batch.time_ids, batch.freq_ids, batch.valid).data
        p = pred.shape[-1]
        v = batch.valid.reshape(-1)
        cos.append(
            mean_teacher_cosine(pred.reshape(-1, p)[v], teacher_out.reshape(-1, p)[v])
        )
        weights.append(int(v.sum()))
    return float(np.average(cos, weights=weights))


# -- iteration driver -----------------------------------------------------------------


def run_iteration_plan(config: dict, manifest_path, workdir) -> dict[str, Path]:
    """Alternate encoder and tokenizer training for R iterations.

    Iteration 1 trains an encoder against random-projection tokens; every later
    iteration distills the previous encoder into a learned tokenizer, re-tokenizes
    the corpus, and trains a fresh encoder on those tokens.
    """
    iterations = int(config["plan"]["iterations"])
    if not 1 <= iterations <= 3:
        raise ContractError(f"iteration count must lie in [1,3], got {iterations}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    manifest = load_manifest(manifest_path)
    stats = ensure_mel_stats(manifest_path, manifest)
    mean, std = audio.load_stats(stats)
    featurizer = Featurizer(manifest, mean, std)

    artifacts: dict[str, Path] = {}
    iter1 = workdir / "iter1"
    iter1.mkdir(parents=True, exist_ok=True)
    rproj = random_tokenizer(config)
    token_lookup = ensure_token_dump(
        iter1, manifest, featurizer, rproj, {"tokenizer": "random-projection", "seed": rproj.seed}
    )
    artifacts["E1"] = pretrain_encoder(config, manifest, featurizer, token_lookup, iter1, stage_tag=1)

    for r in range(2, iterations + 1):
        iterdir = workdir / f"iter{r}"
        iterdir.mkdir(parents=True, exist_ok=True)
        teacher_ckpt = workdir / f"iter{r - 1}" / "encoder.ckpt"
        if not teacher_ckpt.exists():
            raise PlanError(f"iteration {r} needs encoder stage iter{r - 1} at {teacher_ckpt}")
        tok_ckpt = train_tokenizer_stage(
            config, manifest, featurizer, teacher_ckpt, iterdir, stage_tag=r
        )
        artifacts[f"T{r}"] = tok_ckpt
        tokenizer, _ = tokenizer_from_checkpoint(tok_ckpt)
        token_lookup = ensure_token_dump(
            iterdir, manifest, featurizer, tokenizer, {"tokenizer": "learned", "iteration": r}
        )
        artifacts[f"E{r}"] = pretrain_encoder(
            config, manifest, featurizer, token_lookup, iterdir, stage_tag=r
        )
    return artifacts
