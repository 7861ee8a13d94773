"""Transformer building blocks on top of the autodiff tensors.

Modules own named parameters (N(0, 0.02^2) projections, unit gains, zero
biases) and expose ``parameters()`` as a flat name -> Tensor mapping for the
optimizer and the checkpointer.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor

INIT_STD = 0.02
ATTN_MASK_BIAS = -1e9


class Module:
    """Minimal parameter container with hierarchical naming."""

    def _local_params(self) -> dict[str, Tensor]:
        return {k: v for k, v in vars(self).items() if isinstance(v, Tensor)}

    def _children(self) -> dict[str, "Module"]:
        out: dict[str, Module] = {}
        for k, v in vars(self).items():
            if isinstance(v, Module):
                out[k] = v
            elif isinstance(v, (list, tuple)):
                for i, item in enumerate(v):
                    if isinstance(item, Module):
                        out[f"{k}.{i}"] = item
        return out

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for k, v in self._local_params().items():
            params[prefix + k] = v
        for k, child in self._children().items():
            params.update(child.parameters(prefix + k + "."))
        return params

    def zero_grad(self) -> None:
        for p in self.parameters().values():
            p.zero_grad()

    def load_arrays(self, arrays: dict[str, np.ndarray], prefix: str = "") -> None:
        """Overwrite parameter values in place from a name -> array mapping."""
        for name, p in self.parameters().items():
            key = prefix + name
            if key not in arrays:
                raise ShapeError(f"missing parameter {key!r} in state")
            arr = np.asarray(arrays[key], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ShapeError(
                    f"parameter {key!r} shape {arr.shape} != expected {p.data.shape}"
                )
            p.data[...] = arr


class Linear(Module):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.weight = T.parameter(
            rng.normal(0.0, INIT_STD, size=(n_in, n_out)).astype(np.float32), "weight"
        )
        self.bias = T.parameter(np.zeros(n_out, dtype=np.float32), "bias")

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.weight) + self.bias


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gain = T.parameter(np.ones(dim, dtype=np.float32), "gain")
        self.bias = T.parameter(np.zeros(dim, dtype=np.float32), "bias")
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias, eps=self.eps)


class Embedding(Module):
    def __init__(self, n_rows: int, dim: int, rng: np.random.Generator):
        self.table = T.parameter(
            rng.normal(0.0, INIT_STD, size=(n_rows, dim)).astype(np.float32), "table"
        )

    def __call__(self, ids: np.ndarray) -> Tensor:
        """Rows ``table[ids]``; an id past the table (a clip longer than the
        position table) is a ``ShapeError``."""
        n_rows = self.table.shape[0]
        if np.size(ids) and np.max(ids) >= n_rows:
            raise ShapeError(f"position index {int(np.max(ids))} exceeds table size {n_rows}")
        return T.embedding(self.table, ids)


def padding_bias(valid: np.ndarray, dtype=np.float32) -> np.ndarray:
    """Additive attention bias (B, 1, 1, N): 0 where valid, ATTN_MASK_BIAS where padded."""
    valid = np.asarray(valid, dtype=bool)
    bias = np.where(valid, 0.0, ATTN_MASK_BIAS).astype(dtype)
    return bias[:, None, None, :]


class MultiHeadAttention(Module):
    """Bidirectional multi-head self-attention with an optional key-padding bias."""

    def __init__(self, hidden: int, heads: int, rng: np.random.Generator):
        if hidden % heads != 0:
            raise ConfigError(f"head count {heads} must divide hidden size {hidden}")
        self.hidden = hidden
        self.heads = heads
        self.head_dim = hidden // heads
        self.wq = Linear(hidden, hidden, rng)
        self.wk = Linear(hidden, hidden, rng)
        self.wv = Linear(hidden, hidden, rng)
        self.wo = Linear(hidden, hidden, rng)

    def __call__(self, x: Tensor, key_bias: np.ndarray | None = None) -> Tensor:
        b, n, h = x.shape
        def split(t: Tensor) -> Tensor:
            return T.transpose(T.reshape(t, (b, n, self.heads, self.head_dim)), (0, 2, 1, 3))

        q = split(self.wq(x))
        k = split(self.wk(x))
        v = split(self.wv(x))
        scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(self.head_dim))
        if key_bias is not None:
            scores = scores + Tensor(key_bias)
        attn = T.softmax(scores, axis=-1)
        ctx = T.matmul(attn, v)
        merged = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, n, h))
        return self.wo(merged)


class TransformerBlock(Module):
    """Pre-LN block: x + MHA(LN(x)); x + FFN(LN(x)) with GELU."""

    def __init__(self, hidden: int, ffn: int, heads: int, rng: np.random.Generator):
        self.ln_attn = LayerNorm(hidden)
        self.attn = MultiHeadAttention(hidden, heads, rng)
        self.ln_ffn = LayerNorm(hidden)
        self.fc_in = Linear(hidden, ffn, rng)
        self.fc_out = Linear(ffn, hidden, rng)

    def __call__(self, x: Tensor, key_bias: np.ndarray | None = None) -> Tensor:
        x = x + self.attn(self.ln_attn(x), key_bias)
        x = x + self.fc_out(T.gelu(self.fc_in(self.ln_ffn(x))))
        return x


class TransformerStack(Module):
    """Stacked pre-LN blocks with a final LayerNorm."""

    def __init__(self, hidden: int, ffn: int, layers: int, heads: int, rng: np.random.Generator):
        self.blocks = [TransformerBlock(hidden, ffn, heads, rng) for _ in range(layers)]
        self.ln_out = LayerNorm(hidden)

    def __call__(self, x: Tensor, key_bias: np.ndarray | None = None) -> Tensor:
        for block in self.blocks:
            x = block(x, key_bias)
        return self.ln_out(x)
