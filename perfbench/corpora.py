"""Seeded input corpora for the benchmark workloads.

The generators and the WAV writer live here, apart from the program, so a
change to the program's own synthetic-corpus code cannot change what the
benchmark feeds it. The program only ever sees the WAV files and the JSONL
manifest written below.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
SEGMENT_SAMPLES = 16 * 160  # one 16-frame patch column


def write_wav_pcm16(path: Path, samples: np.ndarray) -> None:
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16)
    header += b"data" + struct.pack("<I", len(pcm))
    path.write_bytes(header + pcm)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def tone_sequence_clip(rng: np.random.Generator, seconds: float) -> np.ndarray:
    """Two tones per patch column, drawn from 8 mel-spaced pitches with one of
    three levels, over a low white-noise floor."""
    n = int(round(seconds * SAMPLE_RATE))
    pitches = _mel_to_hz(np.linspace(_hz_to_mel(150.0), _hz_to_mel(6000.0), 8))
    levels = np.array([0.03, 0.08, 0.2])
    t = np.arange(SEGMENT_SAMPLES) / SAMPLE_RATE
    out = 0.01 * rng.standard_normal(n)
    for lo in range(0, n, SEGMENT_SAMPLES):
        hi = min(lo + SEGMENT_SAMPLES, n)
        for p in rng.choice(8, size=2, replace=False):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            out[lo:hi] += levels[rng.integers(3)] * np.sin(2.0 * np.pi * pitches[p] * t[: hi - lo] + phase)
    return out


def band_edges(classes: int) -> np.ndarray:
    """Class band edges in Hz: equal mel widths from 50 Hz to 7800 Hz."""
    return _mel_to_hz(np.linspace(_hz_to_mel(50.0), _hz_to_mel(7800.0), classes + 1))


def filtered_noise_clip(rng: np.random.Generator, seconds: float, band: tuple[float, float]) -> np.ndarray:
    """White noise kept only inside one frequency band, at a random level."""
    n = int(round(seconds * SAMPLE_RATE))
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE)
    spectrum[(freqs < band[0]) | (freqs > band[1])] = 0.0
    x = np.fft.irfft(spectrum, n=n)
    x *= rng.uniform(0.05, 0.15) / np.sqrt((x * x).mean())
    return x + 1e-3 * rng.standard_normal(n)


def write_corpus(out_dir: Path, clips: list[tuple[str, str, float, np.ndarray]]) -> Path:
    """Write (id, label, seconds, samples) clips as WAVs plus manifest.jsonl."""
    rows = []
    for clip_id, label, seconds, samples in clips:
        rel = Path("wav") / f"{clip_id}.wav"
        (out_dir / rel).parent.mkdir(parents=True, exist_ok=True)
        write_wav_pcm16(out_dir / rel, samples)
        rows.append({"id": clip_id, "path": str(rel), "duration_s": seconds, "label": label})
    manifest = out_dir / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return manifest


def tone_corpus(out_dir: Path, seed: int, clips: int, seconds: float) -> Path:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x70E]))
    return write_corpus(
        out_dir,
        [(f"tone{i:03d}", "tone", seconds, tone_sequence_clip(rng, seconds)) for i in range(clips)],
    )


def noise_corpus(out_dir: Path, seed: int, classes: int, ladder: tuple[float, ...]) -> Path:
    """Every class gets one clip of each ladder duration. Clip i has class
    i % classes, so batches of consecutive rows mix classes and lengths."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x401E]))
    edges = band_edges(classes)
    clips = []
    for i in range(classes * len(ladder)):
        cls = i % classes
        seconds = ladder[(i // classes + cls) % len(ladder)]
        samples = filtered_noise_clip(rng, seconds, (edges[cls], edges[cls + 1]))
        clips.append((f"noise{i:03d}", f"band{cls}", seconds, samples))
    return write_corpus(out_dir, clips)
