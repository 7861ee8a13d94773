"""Reference computations made apart from the program, in float64.

Each function re-derives from the documented formats and formulas (16 kHz
PCM16 WAV, 25 ms periodic-Hann frames at a 10 ms hop, 1024-point power
spectrum, 128 HTK-mel triangles over 0-8000 Hz, 1e-10 log floor, 16x16
time-major patches, pre-LN transformer blocks with exact GELU, linear
warmup + linear decay) what the program should output. None of it imports
the program.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.special import erf

FRAME, HOP, N_FFT, MELS, PATCH = 400, 160, 1024, 128, 16


def expected_patches(samples: int) -> int:
    """8 * floor((floor((samples - 400) / 160) + 1) / 16)."""
    return 8 * (((samples - FRAME) // HOP + 1) // PATCH)


def wav_samples(path) -> np.ndarray:
    """Mono PCM16 samples of a canonical 44-byte-header WAV, as float64."""
    data = Path(path).read_bytes()
    if data[:4] != b"RIFF" or data[12:16] != b"fmt " or data[36:40] != b"data":
        raise ValueError(f"{path}: not a canonical PCM16 WAV")
    return np.frombuffer(data, dtype="<i2", offset=44).astype(np.float64) / 32768.0


def _mel_filterbank() -> np.ndarray:
    to_mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)  # noqa: E731
    to_hz = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)  # noqa: E731
    edges = to_hz(np.linspace(to_mel(0.0), to_mel(8000.0), MELS + 2))
    freqs = np.arange(N_FFT // 2 + 1) * (16000.0 / N_FFT)
    lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    return np.clip(np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid)), 0.0, None)


_FB = _mel_filterbank()
_WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME) / FRAME)


def log_mel(samples: np.ndarray) -> np.ndarray:
    t = (samples.size - FRAME) // HOP + 1
    frames = np.stack([samples[i * HOP : i * HOP + FRAME] for i in range(t)]) * _WINDOW
    spec = np.fft.rfft(frames, n=N_FFT, axis=1)
    return np.log(np.maximum((spec.real**2 + spec.imag**2) @ _FB.T, 1e-10))


def mel_stats(paths) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin mean and std over every frame of the corpus, std floored at 1e-3."""
    frames = np.concatenate([log_mel(wav_samples(p)) for p in paths])
    return frames.mean(axis=0), np.maximum(frames.std(axis=0), 1e-3)


def patches(samples: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """(N, 256) normalized patches, time-major then frequency, row-major tiles."""
    mel = (log_mel(samples) - mean) / std
    tp = mel.shape[0] // PATCH
    tiles = mel[: tp * PATCH].reshape(tp, PATCH, MELS // PATCH, PATCH)
    return tiles.transpose(0, 2, 1, 3).reshape(-1, PATCH * PATCH)


def position_ids(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.arange(n) // (MELS // PATCH), np.arange(n) % (MELS // PATCH)


def lr_schedule(step: int, warmup: int, peak: float, total: int) -> float:
    """Linear warmup to ``peak`` at ``warmup``, then linear decay to 0 at ``total``."""
    if step >= total:
        return 0.0
    if step <= warmup:
        return peak * step / warmup
    return peak * (total - step) / (total - warmup)


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5) * gain + bias


def _linear(x, p, name):
    return x @ p[name + ".weight"] + p[name + ".bias"]


def transformer_embed(params: dict, prefix: str, x: np.ndarray, layers: int, heads: int) -> np.ndarray:
    """Patch projection + learned time/frequency positions + pre-LN blocks +
    final LayerNorm, for one unpadded (N, 256) sequence. ``params`` maps the
    checkpoint's tensor names to arrays."""
    p = {k[len(prefix) :]: v.astype(np.float64) for k, v in params.items() if k.startswith(prefix)}
    t_ids, f_ids = position_ids(x.shape[0])
    h = _linear(x, p, "patch_proj") + p["time_pos.table"][t_ids] + p["freq_pos.table"][f_ids]
    n, width = h.shape
    d = width // heads
    for i in range(layers):
        b = f"stack.blocks.{i}."
        y = _layer_norm(h, p[b + "ln_attn.gain"], p[b + "ln_attn.bias"])
        q, k, v = (_linear(y, p, b + f"attn.{w}").reshape(n, heads, d).transpose(1, 0, 2) for w in ("wq", "wk", "wv"))
        s = q @ k.transpose(0, 2, 1) / math.sqrt(d)
        s = np.exp(s - s.max(axis=-1, keepdims=True))
        ctx = (s / s.sum(axis=-1, keepdims=True)) @ v
        h = h + _linear(ctx.transpose(1, 0, 2).reshape(n, width), p, b + "attn.wo")
        y = _linear(_layer_norm(h, p[b + "ln_ffn.gain"], p[b + "ln_ffn.bias"]), p, b + "fc_in")
        h = h + _linear(0.5 * y * (1.0 + erf(y / math.sqrt(2.0))), p, b + "fc_out")
    return _layer_norm(h, p["stack.ln_out.gain"], p["stack.ln_out.bias"])


def cosine_argmax(embeddings: np.ndarray, codewords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest codeword by cosine (lowest index on ties) and the top-2 gap."""
    e = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
    c = codewords.astype(np.float64)
    cos = e @ (c / np.linalg.norm(c, axis=1, keepdims=True)).T
    top2 = np.sort(cos, axis=1)[:, -2:]
    return cos.argmax(axis=1), top2[:, 1] - top2[:, 0]
