"""Masked-prediction encoder: patch projection, mask embedding, transformer
stack, and the linear token predictor, plus its training-time metrics."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import EncoderConfig
from .errors import ContractError, ShapeError
from .nn import Embedding, Linear, Module, TransformerStack, padding_bias
from .patches import FREQ_PATCHES
from .tensor import Tensor


class EncoderModel(Module):
    """f^e plus its single-linear-layer label predictor (hidden -> K logits)."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator):
        self.config = config
        h = config.hidden
        self.patch_proj = Linear(config.patch_dim, h, rng)
        self.mask_emb = T.parameter(
            rng.normal(0.0, 0.02, size=h).astype(np.float32), "mask_emb"
        )
        if config.positional == "learned":
            self.time_pos = Embedding(config.max_time_patches, h, rng)
            self.freq_pos = Embedding(FREQ_PATCHES, h, rng)
        self.stack = TransformerStack(h, config.ffn, config.layers, config.heads, rng)
        self.predictor = Linear(h, config.codebook_size, rng)

    def forward(
        self,
        patches: np.ndarray,
        time_ids: np.ndarray,
        freq_ids: np.ndarray,
        valid: np.ndarray | None = None,
        masked: np.ndarray | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Return (logits (B,N,K), embeddings (B,N,h)).

        ``masked`` positions have their projected patch replaced by the learned
        mask embedding; ``valid`` drives the attention padding bias.
        """
        patches = np.asarray(patches, dtype=np.float32)
        if patches.ndim != 3 or patches.shape[-1] != self.config.patch_dim:
            raise ShapeError(
                f"expected (B,N,{self.config.patch_dim}) patches, got {patches.shape}"
            )
        x = self.patch_proj(Tensor(patches))
        if masked is not None and masked.any():
            blend = masked.astype(np.float32)[..., None]
            x = x * Tensor(1.0 - blend) + self.mask_emb * Tensor(blend)
        if self.config.positional == "learned":
            x = x + self.time_pos(time_ids) + self.freq_pos(freq_ids)
        bias = padding_bias(valid) if valid is not None else None
        emb = self.stack(x, bias)
        logits = self.predictor(emb)
        return logits, emb

    def extract(
        self,
        patches: np.ndarray,
        time_ids: np.ndarray,
        freq_ids: np.ndarray,
        valid: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Frozen-forward per-patch embeddings plus mean-pool over unpadded positions."""
        with T.no_grad():
            _, emb = self.forward(patches, time_ids, freq_ids, valid=valid, masked=None)
        e = emb.data
        if valid is None:
            pooled = e.mean(axis=1)
        else:
            w = valid.astype(np.float64)
            pooled = (e * w[..., None]).sum(axis=1) / np.maximum(
                w.sum(axis=1, keepdims=True), 1.0
            )
        return e, pooled.astype(np.float32)


def mlm_loss(logits: Tensor, tokens: np.ndarray, masked: np.ndarray) -> Tensor:
    """Sum over masked positions of -log softmax(logits)[token]."""
    b, n, k = logits.shape
    masked = np.asarray(masked, dtype=bool)
    tokens = np.asarray(tokens, dtype=np.int64)
    if masked.shape != (b, n) or tokens.shape != (b, n):
        raise ShapeError(
            f"tokens/mask shapes {tokens.shape}/{masked.shape} do not match logits {(b, n)}"
        )
    flat_idx = np.flatnonzero(masked.reshape(-1))
    if flat_idx.size == 0:
        raise ContractError("mlm_loss needs at least one masked position")
    selected = T.index_select(T.reshape(logits, (b * n, k)), flat_idx)
    return T.softmax_cross_entropy(selected, tokens.reshape(-1)[flat_idx], reduction="sum")


def mlm_metrics(
    logits: np.ndarray,
    tokens: np.ndarray,
    masked: np.ndarray,
    valid: np.ndarray | None = None,
) -> tuple[float, float]:
    """(masked accuracy, vocabulary coverage) for one batch.

    Coverage counts distinct target tokens over the batch's (unpadded)
    positions as a fraction of the codebook.
    """
    logits = np.asarray(logits)
    k = logits.shape[-1]
    masked = np.asarray(masked, dtype=bool)
    tokens = np.asarray(tokens, dtype=np.int64)
    pred = logits.argmax(axis=-1)
    m = masked if valid is None else masked & valid
    if m.sum() == 0:
        acc = 0.0
    else:
        acc = float((pred[m] == tokens[m]).mean())
    scope = valid if valid is not None else np.ones_like(masked, dtype=bool)
    cov = float(np.unique(tokens[scope]).size / k)
    return acc, cov


# -- embedding dumps ------------------------------------------------------------


def write_embedding_dump(
    bin_path, index_path, embeddings: dict[str, np.ndarray]
) -> None:
    """Concatenated f32 matrices plus a JSON index {id: {offset, shape}}."""
    index: dict[str, dict] = {}
    offset = 0
    with open(bin_path, "wb") as f:
        for utt_id, mat in embeddings.items():
            arr = np.ascontiguousarray(mat, dtype="<f4")
            f.write(arr.tobytes())
            index[utt_id] = {"offset": offset, "shape": list(arr.shape)}
            offset += arr.size
    Path(index_path).write_text(json.dumps({"dtype": "f32", "utterances": index}))


def read_embedding_dump(bin_path, index_path) -> dict[str, np.ndarray]:
    meta = json.loads(Path(index_path).read_text())
    flat = np.fromfile(bin_path, dtype="<f4")
    out: dict[str, np.ndarray] = {}
    for utt_id, entry in meta["utterances"].items():
        shape = tuple(entry["shape"])
        start = entry["offset"]
        count = int(np.prod(shape))
        out[utt_id] = flat[start : start + count].reshape(shape).copy()
    return out
