"""16 kHz WAV decoding and 128-bin log-mel spectrograms.

Framing is 25 ms periodic-Hann windows at a 10 ms hop, so 16 frames span
175 ms of signal; the filterbank is 128 HTK-mel triangles over 0-8000 Hz
applied to a 1024-point power spectrum, log-compressed with a 1e-10 floor.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AudioFormatError, TooShortError, WavParseError

SAMPLE_RATE = 16000
MEL_BINS = 128
FRAME_LENGTH = 400  # 25 ms
FRAME_SHIFT = 160  # 10 ms
N_FFT = 1024
FMIN = 0.0
FMAX = 8000.0
LOG_FLOOR = 1e-10


@dataclass
class Waveform:
    samples: np.ndarray  # float32 in [-1, 1]
    sample_rate: int


@dataclass
class MelSpectrogram:
    frames: np.ndarray  # (T, 128) float32 log-mel energies
    frame_shift_ms: int = 10
    frame_length_ms: int = 25


# -- WAV ----------------------------------------------------------------------


def _read_exact(f, offset: int, count: int, what: str) -> bytes:
    f.seek(offset)
    data = f.read(count)
    if len(data) < count:
        raise WavParseError(f"truncated while reading {what}", offset)
    return data


def _wav_layout(f) -> tuple[tuple, int, int]:
    """Walk the RIFF chunk headers of an open WAV file, seeking past chunk bodies.

    Returns the fmt fields (format, channels, rate, byte rate, block align,
    bits) and the offset and byte size of the data chunk's payload.
    """
    if _read_exact(f, 0, 4, "RIFF tag") != b"RIFF":
        raise WavParseError("missing RIFF tag", 0)
    if _read_exact(f, 8, 4, "WAVE tag") != b"WAVE":
        raise WavParseError("missing WAVE tag", 8)
    fmt = data = None
    offset = 12
    while True:
        f.seek(offset)
        header = f.read(8)
        if len(header) < 8:
            break
        chunk_id, chunk_size = header[:4], struct.unpack("<I", header[4:])[0]
        body_start = offset + 8
        if chunk_id == b"fmt ":
            body = _read_exact(f, body_start, min(chunk_size, 16), "fmt chunk")
            if len(body) < 16:
                raise WavParseError("fmt chunk shorter than 16 bytes", body_start)
            fmt = struct.unpack("<HHIIHH", body)
        elif chunk_id == b"data":
            data = (body_start, chunk_size)
        offset = body_start + chunk_size + (chunk_size & 1)
    if fmt is None:
        raise WavParseError("no fmt chunk found", 12)
    if data is None:
        raise WavParseError("no data chunk found", 12)
    return fmt, *data


def load_wav(path) -> Waveform:
    """Decode a RIFF/WAVE file (PCM16 or float32, mono or stereo, 16 kHz)."""
    with open(path, "rb") as f:
        fmt, data_offset, data_size = _wav_layout(f)
        payload = _read_exact(f, data_offset, data_size, "data chunk")
    audio_format, channels, rate, _, _, bits = fmt
    if channels not in (1, 2):
        raise AudioFormatError(f"unsupported channel count {channels} (mono or stereo only)")
    if rate != SAMPLE_RATE:
        raise AudioFormatError(f"unsupported sample rate {rate} Hz (expected {SAMPLE_RATE})")

    if audio_format == 1 and bits == 16:
        samples = np.frombuffer(payload, dtype="<i2").astype(np.float32) / 32768.0
    elif audio_format == 3 and bits == 32:
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float32)
    else:
        raise AudioFormatError(
            f"unsupported encoding (format {audio_format}, {bits}-bit); PCM16 or float32 only"
        )

    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1).astype(np.float32)
    if samples.size == 0:
        raise AudioFormatError("empty data chunk")
    return Waveform(samples=samples, sample_rate=rate)


def wav_duration_seconds(path) -> float:
    """Duration from header fields alone: reads the chunk headers, not the samples."""
    with open(path, "rb") as f:
        (_, _, rate, _, block_align, _), _, data_size = _wav_layout(f)
    if block_align == 0 or rate == 0:
        raise WavParseError("degenerate fmt fields", 12)
    return data_size / block_align / rate


def write_wav_pcm16(path, samples: np.ndarray, sample_rate: int = SAMPLE_RATE) -> None:
    """Write mono PCM16 (clipped to [-1, 1]); used by the synthetic generators."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2")
    payload = pcm.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, sample_rate, sample_rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)


# -- mel spectrogram ----------------------------------------------------------


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    n_mels: int = MEL_BINS,
    n_fft: int = N_FFT,
    sample_rate: int = SAMPLE_RATE,
    fmin: float = FMIN,
    fmax: float = FMAX,
) -> np.ndarray:
    """Triangular filters (n_mels, n_fft//2 + 1) with unit peak."""
    edges = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    fb = np.zeros((n_mels, freqs.size), dtype=np.float64)
    for i in range(n_mels):
        lo, center, hi = edges[i], edges[i + 1], edges[i + 2]
        up = (freqs - lo) / max(center - lo, 1e-12)
        down = (hi - freqs) / max(hi - center, 1e-12)
        fb[i] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


def mel_filter_centers(n_mels: int = MEL_BINS, fmin: float = FMIN, fmax: float = FMAX) -> np.ndarray:
    """Center frequency (Hz) of each mel filter."""
    edges = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    return edges[1:-1]


_FILTERBANK: np.ndarray | None = None
_WINDOW: np.ndarray | None = None


def _cached_filterbank() -> tuple[np.ndarray, np.ndarray]:
    global _FILTERBANK, _WINDOW
    if _FILTERBANK is None:
        _FILTERBANK = mel_filterbank()
        n = np.arange(FRAME_LENGTH)
        _WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / FRAME_LENGTH)
    return _FILTERBANK, _WINDOW


def frame_count(n_samples: int) -> int:
    return (n_samples - FRAME_LENGTH) // FRAME_SHIFT + 1


def mel_spectrogram(waveform: Waveform) -> MelSpectrogram:
    """Log-mel energies, shape (T, 128) with T = floor((len-400)/160)+1."""
    samples = np.asarray(waveform.samples, dtype=np.float64)
    if samples.size < FRAME_LENGTH:
        raise TooShortError(
            f"clip of {samples.size} samples is shorter than one {FRAME_LENGTH}-sample frame"
        )
    fb, window = _cached_filterbank()
    t = frame_count(samples.size)
    idx = np.arange(FRAME_LENGTH)[None, :] + FRAME_SHIFT * np.arange(t)[:, None]
    frames = samples[idx] * window
    spectrum = np.fft.rfft(frames, n=N_FFT, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    mel = power @ fb.T
    logmel = np.log(np.maximum(mel, LOG_FLOOR))
    return MelSpectrogram(frames=logmel.astype(np.float32))


# -- per-corpus normalization stats --------------------------------------------

STD_FLOOR = 1e-3  # keeps near-constant bins from exploding after scaling


def accumulate_mel_stats(frames_iter) -> dict:
    """Mean/std per mel bin over all frames yielded by the iterator."""
    total = np.zeros(MEL_BINS, dtype=np.float64)
    total_sq = np.zeros(MEL_BINS, dtype=np.float64)
    count = 0
    for frames in frames_iter:
        f = np.asarray(frames, dtype=np.float64)
        total += f.sum(axis=0)
        total_sq += (f * f).sum(axis=0)
        count += f.shape[0]
    if count == 0:
        raise TooShortError("no frames available for statistics")
    mean = total / count
    var = np.maximum(total_sq / count - mean * mean, 0.0)
    std = np.maximum(np.sqrt(var), STD_FLOOR)
    return {"mean": mean.tolist(), "std": std.tolist()}


def save_stats(stats: dict, path) -> None:
    Path(path).write_text(json.dumps(stats))


def load_stats(path) -> tuple[np.ndarray, np.ndarray]:
    obj = json.loads(Path(path).read_text())
    mean = np.asarray(obj["mean"], dtype=np.float32)
    std = np.asarray(obj["std"], dtype=np.float32)
    if mean.shape != (MEL_BINS,) or std.shape != (MEL_BINS,):
        raise AudioFormatError(f"stats file {path} does not hold {MEL_BINS}-bin mean/std")
    return mean, std


def normalize_frames(frames: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return ((frames - mean) / std).astype(np.float32)
