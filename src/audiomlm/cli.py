"""Command-line entry point.

Subcommands: pretrain, train-tokenizer, iterate, probe, finetune, extract,
inspect-codebook, synth-corpus, manifest. Exit codes: 0 ok, 2 config error,
3 data error (including too few k-means samples and over-long clips),
4 numeric abort. ``OBEATS_WORKDIR`` supplies the default artifact root;
config precedence is flags > config file > preset.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="audiomlm", description=__doc__)
    parser.add_argument("--human", action="store_true", help="pretty summaries instead of JSON")
    parser.add_argument("--workers", type=int, default=0, help="decode worker threads")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, manifest_required=True):
        p.add_argument("--preset", default="tiny", help="tiny | base | large")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted config override")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workdir", default=None, help="artifact root (or $OBEATS_WORKDIR)")
        p.add_argument("--manifest", required=manifest_required)

    p = sub.add_parser("pretrain", help="train an encoder with masked token prediction")
    common(p)
    p.add_argument("--tokenizer", default="random",
                   help='"random" or a learned tokenizer checkpoint path')

    p = sub.add_parser("train-tokenizer", help="distill a teacher encoder into a tokenizer")
    common(p)
    p.add_argument("--teacher", required=True, help="teacher encoder checkpoint")

    p = sub.add_parser("iterate", help="run the full R-iteration plan")
    common(p)
    p.add_argument("--iterations", type=int, default=None)

    p = sub.add_parser("probe", help="linear probe on frozen encoder features")
    common(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("finetune", help="fine-tune encoder + classification head")
    common(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("extract", help="dump per-utterance embeddings")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None, help="output prefix (default <workdir>/embeddings)")

    p = sub.add_parser("inspect-codebook", help="codebook usage/perplexity report")
    common(p, manifest_required=False)
    p.add_argument("--tokenizer", default="random",
                   help='"random" or a learned tokenizer checkpoint path')

    p = sub.add_parser("synth-corpus", help="generate a deterministic synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--kind", default="tone-sequence",
                   choices=["tone-sequence", "filtered-noise-classes", "cluster-patterned"])
    p.add_argument("--clips", type=int, default=200)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("manifest", help="build a JSONL manifest from a WAV directory")
    p.add_argument("--root", required=True)
    p.add_argument("--out", required=True)

    return parser


def _resolve_workdir(args) -> Path:
    workdir = args.workdir or os.environ.get("OBEATS_WORKDIR") or "workdir"
    return Path(workdir)


def _emit(args, payload: dict) -> None:
    if args.human:
        for k, v in payload.items():
            print(f"{k}: {v}")
    else:
        print(json.dumps(payload))


def _checkpoint_hash(path) -> str:
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _load_run(args):
    from .config import resolve_config, save_resolved

    config = resolve_config(args.preset, args.config, args.overrides, args.seed)
    workdir = _resolve_workdir(args)
    workdir.mkdir(parents=True, exist_ok=True)
    save_resolved(config, workdir)
    return config, workdir


def _featurizer_for(args, config):
    from . import audio
    from .data import Featurizer, ensure_mel_stats, load_manifest

    manifest = load_manifest(args.manifest)
    stats = ensure_mel_stats(args.manifest, manifest)
    mean, std = audio.load_stats(stats)
    return manifest, Featurizer(manifest, mean, std, workers=args.workers)


def _tokenizer_for(args, config):
    """The ``--tokenizer`` choice and the token-dump meta that names it."""
    from .train import random_tokenizer, tokenizer_from_checkpoint

    if args.tokenizer == "random":
        tokenizer = random_tokenizer(config)
        return tokenizer, {"tokenizer": "random-projection", "seed": tokenizer.seed}
    return tokenizer_from_checkpoint(args.tokenizer)[0], {"tokenizer": "learned", "source": str(args.tokenizer)}


def _cmd_pretrain(args) -> int:
    from .train import ensure_token_dump, pretrain_encoder

    config, workdir = _load_run(args)
    manifest, featurizer = _featurizer_for(args, config)
    tokenizer, meta = _tokenizer_for(args, config)
    token_lookup = ensure_token_dump(workdir, manifest, featurizer, tokenizer, meta)
    ckpt = pretrain_encoder(config, manifest, featurizer, token_lookup, workdir)
    _emit(args, {"checkpoint": str(ckpt), "log": str(workdir / "train.log.jsonl")})
    return EXIT_OK


def _cmd_train_tokenizer(args) -> int:
    from .train import train_tokenizer_stage

    config, workdir = _load_run(args)
    manifest, featurizer = _featurizer_for(args, config)
    ckpt = train_tokenizer_stage(config, manifest, featurizer, Path(args.teacher), workdir)
    _emit(args, {"tokenizer": str(ckpt), "log": str(workdir / "tokenizer.log.jsonl")})
    return EXIT_OK


def _cmd_iterate(args) -> int:
    from .train import run_iteration_plan

    config, workdir = _load_run(args)
    if args.iterations is not None:
        config["plan"]["iterations"] = args.iterations
    artifacts = run_iteration_plan(config, args.manifest, workdir)
    _emit(args, {k: str(v) for k, v in sorted(artifacts.items())})
    return EXIT_OK


def _cmd_probe(args) -> int:
    from .evaluate import append_result, make_probe_task, pooled_features, probe_over_seeds
    from .train import encoder_from_checkpoint

    config, workdir = _load_run(args)
    manifest, featurizer = _featurizer_for(args, config)
    model, _ = encoder_from_checkpoint(args.checkpoint)
    task = make_probe_task(manifest)
    features = pooled_features(model, featurizer, task.rows, pooling=config["probe"]["pooling"])
    mean_value, values = probe_over_seeds(features, task, config["probe"], config["probe"]["seeds"])
    ckpt_hash = _checkpoint_hash(args.checkpoint)
    results = workdir / "results.jsonl"
    for seed, value in enumerate(values):
        append_result(results, f"probe:{Path(args.manifest).stem}", task.metric, value, seed, ckpt_hash)
    append_result(results, f"probe:{Path(args.manifest).stem}:mean", task.metric, mean_value, -1, ckpt_hash)
    _emit(args, {"metric": task.metric, "value": mean_value, "results": str(results)})
    return EXIT_OK


def _cmd_finetune(args) -> int:
    from .evaluate import append_result, finetune_classifier, make_probe_task
    from .train import encoder_from_checkpoint

    config, workdir = _load_run(args)
    manifest, featurizer = _featurizer_for(args, config)
    model, _ = encoder_from_checkpoint(args.checkpoint)
    task = make_probe_task(manifest)
    value, detail = finetune_classifier(model, featurizer, task, config["finetune"], seed=config["seed"])
    results = workdir / "results.jsonl"
    append_result(results, f"finetune:{Path(args.manifest).stem}", task.metric, value,
                  config["seed"], _checkpoint_hash(args.checkpoint))
    _emit(args, {"metric": task.metric, "value": value, **detail, "results": str(results)})
    return EXIT_OK


def _cmd_extract(args) -> int:
    from .encoder import write_embedding_dump
    from .train import encoder_from_checkpoint

    config, workdir = _load_run(args)
    manifest, featurizer = _featurizer_for(args, config)
    model, _ = encoder_from_checkpoint(args.checkpoint)
    prefix = Path(args.out) if args.out else workdir / "embeddings"
    embeddings = {}
    for row in manifest.rows:
        clip = featurizer.collate([row])
        embeddings[row.id] = model.extract(clip.patches, clip.time_ids, clip.freq_ids)[0][0]
    bin_path, index_path = prefix.with_suffix(".bin"), prefix.with_suffix(".json")
    write_embedding_dump(bin_path, index_path, embeddings)
    _emit(args, {"embeddings": str(bin_path), "index": str(index_path)})
    return EXIT_OK


def _cmd_inspect_codebook(args) -> int:
    import numpy as np

    from .audio import SAMPLE_RATE, MelSpectrogram, mel_spectrogram, Waveform
    from .codebook import coverage, nearest_neighbor_margins, perplexity, quantize_batch
    from .data import collate_sequences
    from .patches import patchify

    config, workdir = _load_run(args)
    if args.manifest:
        manifest, featurizer = _featurizer_for(args, config)
        clips = [featurizer.collate([row]) for row in manifest.rows]
    else:
        rng = np.random.default_rng(config["seed"])
        clips = []
        for i in range(16):
            noise = 0.25 * rng.standard_normal(2 * SAMPLE_RATE)
            mel = mel_spectrogram(Waveform(noise.astype(np.float32), SAMPLE_RATE))
            frames = (mel.frames - mel.frames.mean(axis=0)) / np.maximum(mel.frames.std(axis=0), 1e-3)
            clips.append(collate_sequences([f"noise{i}"], [patchify(MelSpectrogram(frames=frames))]))
    tokenizer, _ = _tokenizer_for(args, config)
    codebook = tokenizer.codebook
    # each clip is embedded on its own, with its own positions
    embeddings = np.concatenate(
        [tokenizer.embed(c.patches, c.time_ids, c.freq_ids)[0] for c in clips], axis=0
    )
    assignments = quantize_batch(embeddings, codebook)
    margins = nearest_neighbor_margins(embeddings, codebook)
    hist = np.bincount(assignments, minlength=codebook.size)
    report = {
        "codebook_size": codebook.size,
        "perplexity": perplexity(assignments, codebook.size),
        "coverage": coverage(assignments, codebook.size),
        "used_entries": int((hist > 0).sum()),
        "usage_histogram": hist.tolist(),
        "margin_mean": float(margins.mean()),
        "margin_median": float(np.median(margins)),
        "codebook_hash": codebook.content_hash(),
    }
    out = workdir / "codebook_report.json"
    out.write_text(json.dumps(report, indent=2))
    summary = {k: report[k] for k in
               ("codebook_size", "perplexity", "coverage", "used_entries", "margin_mean")}
    _emit(args, {**summary, "report": str(out)})
    return EXIT_OK


def _cmd_synth_corpus(args) -> int:
    from .data import SyntheticCorpusSpec, generate_synthetic

    spec = SyntheticCorpusSpec(
        n_clips=args.clips,
        clip_seconds=args.seconds,
        kind=args.kind,
        classes=args.classes,
        seed=args.seed,
    )
    manifest_path = generate_synthetic(spec, args.out)
    _emit(args, {"manifest": str(manifest_path)})
    return EXIT_OK


def _cmd_manifest(args) -> int:
    from .data import build_manifest, save_manifest

    manifest, skipped = build_manifest(args.root)
    out = save_manifest(manifest, args.out)
    _emit(args, {"manifest": str(out), "rows": len(manifest), "skipped": skipped})
    return EXIT_OK


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "train-tokenizer": _cmd_train_tokenizer,
    "iterate": _cmd_iterate,
    "probe": _cmd_probe,
    "finetune": _cmd_finetune,
    "extract": _cmd_extract,
    "inspect-codebook": _cmd_inspect_codebook,
    "synth-corpus": _cmd_synth_corpus,
    "manifest": _cmd_manifest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    from .errors import (
        AudioFormatError,
        CheckpointError,
        ConfigError,
        ContractError,
        DataError,
        InsufficientSamplesError,
        NumericError,
        PlanError,
        ShapeError,
        TooShortError,
    )

    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, AudioFormatError, TooShortError, InsufficientSamplesError, ShapeError,
            CheckpointError, PlanError, ContractError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
