"""Learned tokenizer: a small transformer encoder whose output is vector-
quantized, plus a predictor trained to match frozen teacher embeddings via a
cosine distillation loss with straight-through gradients across the quantizer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .codebook import Codebook, Tokenizer, quantize_batch
from .errors import ConfigError, DegenerateInputError, ShapeError
from .nn import Embedding, Linear, Module, TransformerStack, padding_bias
from .patches import FREQ_PATCHES
from .tensor import Tensor


@dataclass(frozen=True)
class TokenizerNetConfig:
    width: int  # p == teacher hidden size
    ffn: int
    layers: int
    heads: int
    predictor_layers: int
    codebook_size: int
    patch_dim: int = 256
    max_time_patches: int = 512

    def __post_init__(self):
        if self.width % self.heads != 0:
            raise ConfigError(f"heads {self.heads} must divide width {self.width}")

    @classmethod
    def from_dict(cls, section: dict) -> "TokenizerNetConfig":
        return cls(**section)


class TokenizerEncoder(Module):
    """f^t: patches -> p-wide embedding sequence."""

    def __init__(self, cfg: TokenizerNetConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.patch_proj = Linear(cfg.patch_dim, cfg.width, rng)
        self.time_pos = Embedding(cfg.max_time_patches, cfg.width, rng)
        self.freq_pos = Embedding(FREQ_PATCHES, cfg.width, rng)
        self.stack = TransformerStack(cfg.width, cfg.ffn, cfg.layers, cfg.heads, rng)

    def __call__(
        self,
        patches: np.ndarray,
        time_ids: np.ndarray,
        freq_ids: np.ndarray,
        valid: np.ndarray | None = None,
    ) -> Tensor:
        x = self.patch_proj(Tensor(np.asarray(patches, dtype=np.float32)))
        x = x + self.time_pos(time_ids) + self.freq_pos(freq_ids)
        return self.stack(x, padding_bias(valid) if valid is not None else None)


class TokenizerPredictor(Module):
    """f^t_pred: transformer over the quantized embedding sequence."""

    def __init__(self, cfg: TokenizerNetConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.time_pos = Embedding(cfg.max_time_patches, cfg.width, rng)
        self.freq_pos = Embedding(FREQ_PATCHES, cfg.width, rng)
        self.stack = TransformerStack(cfg.width, cfg.ffn, cfg.predictor_layers, cfg.heads, rng)

    def __call__(
        self,
        quantized: Tensor,
        time_ids: np.ndarray,
        freq_ids: np.ndarray,
        valid: np.ndarray | None = None,
    ) -> Tensor:
        x = quantized + self.time_pos(time_ids) + self.freq_pos(freq_ids)
        return self.stack(x, padding_bias(valid) if valid is not None else None)


class LearnedTokenizer(Tokenizer):
    """Frozen artifact of tokenizer training: f^t + codebook (+ predictor)."""

    def __init__(
        self,
        encoder: TokenizerEncoder,
        predictor: TokenizerPredictor,
        codebook: Codebook,
        cfg: TokenizerNetConfig,
    ):
        self.encoder = encoder
        self.predictor = predictor
        self.codebook = codebook
        self.cfg = cfg

    def embed(
        self,
        patches: np.ndarray,
        time_ids: np.ndarray,
        freq_ids: np.ndarray,
        valid: np.ndarray | None = None,
    ) -> np.ndarray:
        with T.no_grad():
            return self.encoder(patches, time_ids, freq_ids, valid).data


def _normalize_np(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def kd_loss(
    teacher_out: np.ndarray | Tensor,
    predicted: Tensor,
    embeddings: Tensor,
    assigned_codewords: np.ndarray,
) -> Tensor:
    """Distillation objective, summed over positions.

    Per position: -cos(predicted, teacher) + ||sg[e_bar] - v_bar||^2 +
    ||e_bar - sg[v_bar]||^2, with all vectors L2-normalized. Teacher values are
    detached here; under EMA codebook maintenance the middle term carries no
    gradient and is folded in as a constant so the reported value matches the
    full objective.
    """
    teacher = teacher_out.data if isinstance(teacher_out, Tensor) else np.asarray(teacher_out)
    if teacher.shape != predicted.shape or embeddings.shape != predicted.shape:
        raise ShapeError(
            f"kd_loss shapes differ: teacher {teacher.shape}, predicted "
            f"{predicted.shape}, embeddings {embeddings.shape}"
        )
    if np.any(np.linalg.norm(teacher, axis=-1) == 0.0):
        raise DegenerateInputError("zero-norm teacher embedding in kd_loss")
    if np.any(np.linalg.norm(predicted.data, axis=-1) == 0.0):
        raise DegenerateInputError("zero-norm predicted embedding in kd_loss")

    teacher_bar = _normalize_np(teacher.astype(predicted.dtype, copy=False))
    vbar = _normalize_np(
        np.asarray(assigned_codewords, dtype=predicted.dtype)
    )
    cos_sum = T.tsum(T.l2_normalize(predicted) * Tensor(teacher_bar))
    ebar_const = _normalize_np(embeddings.data)
    codebook_term = float(((ebar_const - vbar) ** 2).sum())
    commit_term = T.tsum((T.l2_normalize(embeddings) - Tensor(vbar)) ** 2.0)
    return -cos_sum + commit_term + codebook_term


def mean_teacher_cosine(predicted: np.ndarray, teacher: np.ndarray) -> float:
    """Diagnostic: mean cosine similarity between rows."""
    return float((_normalize_np(predicted) * _normalize_np(teacher)).sum(axis=-1).mean())


def distill_step_graph(
    tokenizer_encoder: TokenizerEncoder,
    predictor: TokenizerPredictor,
    codebook: Codebook,
    patches: np.ndarray,
    time_ids: np.ndarray,
    freq_ids: np.ndarray,
    valid: np.ndarray,
    teacher_out: np.ndarray,
) -> tuple[Tensor, dict]:
    """Build the forward graph for one distillation batch.

    Returns the summed kd loss over valid positions and a stats dict holding
    the assignments (valid positions only) and embeddings for the EMA update.
    """
    b, n = valid.shape
    p = codebook.width
    emb = tokenizer_encoder(patches, time_ids, freq_ids, valid)
    flat = T.reshape(emb, (b * n, p))
    assignments = quantize_batch(emb.data.reshape(-1, p), codebook)
    quantized = codebook.codewords[assignments].reshape(b, n, p)
    st = T.straight_through(emb, quantized)
    predicted = predictor(st, time_ids, freq_ids, valid)

    valid_idx = np.flatnonzero(valid.reshape(-1))
    pred_v = T.index_select(T.reshape(predicted, (b * n, p)), valid_idx)
    emb_v = T.index_select(flat, valid_idx)
    teacher_v = teacher_out.reshape(-1, p)[valid_idx]
    codewords_v = codebook.codewords[assignments[valid_idx]]
    loss = kd_loss(teacher_v, pred_v, emb_v, codewords_v)

    stats = {
        "assignments": assignments[valid_idx],
        "vectors": emb.data.reshape(-1, p)[valid_idx],
        "n_valid": valid_idx.size,
        "teacher_cos": mean_teacher_cosine(pred_v.data, teacher_v),
    }
    return loss, stats
