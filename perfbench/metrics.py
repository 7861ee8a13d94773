"""Metric assembly: end-to-end figures from the untraced rounds, per-layer
figures from the tracer. Names and units match BENCHMARK.json."""

from __future__ import annotations

import statistics

from tracing import LAYERS

ELEMENTWISE = ("add", "sub", "mul", "div", "power", "texp", "tlog", "tsqrt")


def _m(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def throughput(rounds: list[dict], phase: str) -> float:
    """The patches of one unit of each kind over the sum of each kind's median
    (already machine-speed normalized) unit time."""
    by_kind: dict = {}
    for r in rounds:
        for kind, patches, seconds in r[phase]:
            by_kind.setdefault(kind, (patches, []))[1].append(seconds)
    return sum(p for p, _ in by_kind.values()) / sum(statistics.median(t) for _, t in by_kind.values())


def end_to_end(rounds: list[dict], setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": _m(setup_s, "s"),
        "wall_s": _m(statistics.median(r["wall_s"] for r in rounds), "s"),
        "peak_rss_mb": _m(peak_rss_mb, "MB"),
        "phase1_patches_per_s": _m(throughput(rounds, "phase1"), "patches/s"),
        "phase2_patches_per_s": _m(throughput(rounds, "phase2"), "patches/s"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, rounds: list[dict], workload) -> dict:
    """Per traced round: times in ms and counts are the sum over the traced
    rounds divided by their number; sizes are maxima; ratios are pooled."""
    traced = [r["wall_s"] for r in rounds if r["traced"]]
    plain = [r["wall_s"] for r in rounds if not r["traced"]]
    n = len(traced)
    t, v = tracer, tracer.values
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = _m(t.layer_self_ms(layer) / n, "ms")
        out[f"{layer}.calls"] = _m(t.layer_calls(layer) / n, "count")
    ms = {
        # leaf tensor kernels: self time
        "tensor.matmul_ms": t.tensor_self_ms("matmul"),
        "tensor.softmax_ms": t.tensor_self_ms("softmax"),
        "tensor.gelu_ms": t.tensor_self_ms("gelu"),
        "tensor.layer_norm_ms": t.tensor_self_ms("layer_norm"),
        "tensor.elementwise_ms": t.tensor_self_ms(*ELEMENTWISE),
        "tensor.backward_ms": t.tensor_self_ms("backward"),
        # everything else: inclusive time of the named calls
        "nn.attention_ms": t.ms("nn.MultiHeadAttention.__call__"),
        "nn.linear_ms": t.ms("nn.Linear.__call__"),
        "nn.block_ms": t.ms("nn.TransformerBlock.__call__"),
        "optim.adamw_step_ms": t.ms("optim.AdamW.step"),
        "encoder.forward_ms": t.ms("encoder.EncoderModel.forward"),
        "encoder.mlm_loss_ms": t.ms("encoder.mlm_loss"),
        "encoder.mlm_metrics_ms": t.ms("encoder.mlm_metrics"),
        "train.batch_masks_ms": t.ms("train.batch_masks"),
        "train.tokens_to_batch_ms": t.ms("train.tokens_to_batch"),
        "train.tokenize_corpus_ms": t.ms("train.tokenize_corpus_random", "train.tokenize_corpus_learned"),
        "distill.step_graph_ms": t.ms("distill.distill_step_graph"),
        "distill.kd_loss_ms": t.ms("distill.kd_loss"),
        "distill.teacher_ms": 1000.0 * v["teacher_s"],
        "codebook.quantize_batch_ms": t.ms("codebook.quantize_batch"),
        "codebook.kmeans_init_ms": t.ms("codebook.kmeans_init"),
        "codebook.ema_update_ms": t.ms("codebook.ema_update"),
        "codebook.token_dump_ms": t.ms("codebook.write_token_dump", "codebook.read_token_dump"),
        "audio.load_wav_ms": t.ms("audio.load_wav"),
        "audio.mel_spectrogram_ms": t.ms("audio.mel_spectrogram"),
        "patches.patchify_ms": t.ms("patches.patchify"),
        "data.collate_ms": t.ms("data.Featurizer.collate"),
        "data.epoch_batches_ms": t.ms("data.epoch_batches"),
        "checkpoint.save_ms": t.ms("checkpoint.save_checkpoint"),
        "checkpoint.load_ms": t.ms("checkpoint.load_checkpoint"),
        "evaluate.pooled_features_ms": t.ms("evaluate.pooled_features"),
        "evaluate.linear_probe_ms": t.ms("evaluate.linear_probe"),
    }
    out.update({name: _m(value / n, "ms") for name, value in ms.items()})
    out.update({
        "tensor.op_calls_per_step": _m(_ratio(v["encoder_stage_ops"], v["encoder_steps"]), "count"),
        "codebook.quantize_batch_rows": _m(v["quantize_rows"] / n, "count"),
        "codebook.quantize_temp_mb": _m(v["quantize_temp_mb"], "MB"),
        "codebook.kmeans_temp_mb": _m(v["kmeans_temp_mb"], "MB"),
        "checkpoint.save_mb": _m(v["save_bytes"] / 1e6 / n, "MB"),
        "data.cache_hit_ratio": _m(_ratio(v["patch_sequence_calls"] - v["patch_sequence_decodes"], v["patch_sequence_calls"]), "ratio"),
        "data.padding_fraction": _m(_ratio(v["collate_slots"] - v["collate_valid"], v["collate_slots"]), "ratio"),
        "evaluate.padding_fraction": _m(_ratio(v["pooled_slots"] - v["pooled_valid"], v["pooled_slots"]), "ratio"),
        "outside.train_steps": _m(getattr(workload, "outside_steps", 0), "count"),
        "outside.tokenized_patches": _m(getattr(workload, "outside_patches", 0), "count"),
        "trace.overhead_pct": _m(100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0), "%"),
    })
    return out
