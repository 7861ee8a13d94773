"""Corpus manifests, synthetic desk-scale corpora, normalization stats, and
variable-length batch assembly."""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import audio
from .audio import (
    SAMPLE_RATE,
    load_wav,
    mel_spectrogram,
    mel_filter_centers,
    normalize_frames,
    wav_duration_seconds,
    write_wav_pcm16,
)
from .errors import ContractError, DataError
from .patches import PATCH_SIZE, PatchSequence, patch_position_ids, patchify

# shortest usable clip: 16 frames -> 400 + 15*160 samples
MIN_CLIP_SECONDS = (audio.FRAME_LENGTH + (PATCH_SIZE - 1) * audio.FRAME_SHIFT) / SAMPLE_RATE
BUCKET_EDGES_SECONDS = (1.0, 2.0, 4.0, 8.0)


@dataclass
class ManifestRow:
    id: str
    path: str
    duration_s: float
    label: str | list[str] | None = None
    domain: str | None = None

    def to_json(self) -> dict:
        obj = {"id": self.id, "path": self.path, "duration_s": self.duration_s}
        if self.label is not None:
            obj["label"] = self.label
        if self.domain is not None:
            obj["domain"] = self.domain
        return obj


@dataclass
class Manifest:
    rows: list[ManifestRow]
    root: Path = field(default_factory=Path)

    def __post_init__(self):
        ids = [r.id for r in self.rows]
        if len(set(ids)) != len(ids):
            raise DataError("manifest ids are not unique")
        for r in self.rows:
            if r.duration_s <= 0:
                raise DataError(f"row {r.id!r} has non-positive duration")

    def __len__(self) -> int:
        return len(self.rows)

    def resolve(self, row: ManifestRow) -> Path:
        p = Path(row.path)
        return p if p.is_absolute() else self.root / p


def save_manifest(manifest: Manifest, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for row in manifest.rows:
            f.write(json.dumps(row.to_json()) + "\n")
    return path


def load_manifest(path, check_paths: bool = True) -> Manifest:
    path = Path(path)
    rows = []
    for line_no, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}:{line_no}: bad JSON ({e})") from e
        rows.append(
            ManifestRow(
                id=obj["id"],
                path=obj["path"],
                duration_s=float(obj["duration_s"]),
                label=obj.get("label"),
                domain=obj.get("domain"),
            )
        )
    manifest = Manifest(rows=rows, root=path.parent)
    if check_paths:
        missing = [r.id for r in rows if not manifest.resolve(r).exists()]
        if missing:
            raise DataError(f"{len(missing)} manifest paths missing, first: {missing[0]!r}")
    return manifest


def manifest_from_tsv(path) -> Manifest:
    """Convenience import: id<TAB>path<TAB>duration[<TAB>label[<TAB>domain]]."""
    rows = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            raise DataError(f"TSV row needs id/path/duration, got {line!r}")
        rows.append(
            ManifestRow(
                id=parts[0],
                path=parts[1],
                duration_s=float(parts[2]),
                label=parts[3] if len(parts) > 3 else None,
                domain=parts[4] if len(parts) > 4 else None,
            )
        )
    return Manifest(rows=rows, root=Path(path).parent)


def build_manifest(root) -> tuple[Manifest, int]:
    """Scan a directory tree of WAVs; subdirectory name becomes the label.

    Returns the manifest plus the count of unreadable files skipped.
    """
    root = Path(root)
    rows = []
    skipped = 0
    for wav_path in sorted(root.rglob("*.wav")):
        try:
            duration = wav_duration_seconds(wav_path)
            if duration <= 0:
                raise DataError("zero duration")
        except Exception:
            skipped += 1
            continue
        rel = wav_path.relative_to(root)
        label = rel.parts[0] if len(rel.parts) > 1 else None
        rows.append(
            ManifestRow(
                id=str(rel.with_suffix("")).replace("/", "_"),
                path=str(rel),
                duration_s=duration,
                label=label,
            )
        )
    return Manifest(rows=rows, root=root), skipped


# -- synthetic corpora ----------------------------------------------------------


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    n_clips: int
    clip_seconds: float = 5.0
    kind: str = "tone-sequence"  # tone-sequence | filtered-noise-classes | cluster-patterned
    classes: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("tone-sequence", "filtered-noise-classes", "cluster-patterned"):
            raise ContractError(f"unknown synthetic corpus kind {self.kind!r}")
        if self.classes < 1:
            raise ContractError("need at least one class")


SEGMENT_SECONDS = 0.5
NOISE_FLOOR = 1e-3
N_TONES = 8  # one tone per frequency patch
# one tone-pair segment per 16-frame patch column: 16 hops of 10 ms
TONE_SEGMENT_SAMPLES = 16 * audio.FRAME_SHIFT
BACKGROUND_GAIN = 1.2e-1

_BACKGROUND_BLOCK: np.ndarray | None = None


def _background(n_samples: int) -> np.ndarray:
    """Fixed pink-ish pseudo-noise tile, identical in every clip.

    Being constant it adds no class or clip information. The 1/f amplitude
    shape gives every mel bin a comparable noise floor, so tone windowing
    skirts sit well below it across the whole spectrum (narrow low-frequency
    mel bins would otherwise leave skirts exposed), keeping average spectra
    class-blind; being deterministic, silent patches map to stable tokens.
    """
    global _BACKGROUND_BLOCK
    if _BACKGROUND_BLOCK is None:
        rng = np.random.default_rng(0xA0D10)
        white = rng.standard_normal(TONE_SEGMENT_SAMPLES)
        spectrum = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(TONE_SEGMENT_SAMPLES, d=1.0 / SAMPLE_RATE)
        spectrum *= 1.0 / np.sqrt(np.maximum(freqs, 60.0))
        shaped = np.fft.irfft(spectrum, n=TONE_SEGMENT_SAMPLES)
        shaped *= BACKGROUND_GAIN / shaped.std()
        _BACKGROUND_BLOCK = shaped
    reps = -(-n_samples // TONE_SEGMENT_SAMPLES)
    return np.tile(_BACKGROUND_BLOCK, reps)[:n_samples]


def patch_tone_frequencies() -> np.ndarray:
    """One tone per frequency patch, each at a region-specific sub-bin.

    The staggered offsets make the in-patch pattern of an active region unique
    to that region (distinct quantizer tokens per region) without tying the
    offset to the class or the partner.
    """
    centers = mel_filter_centers()
    offsets = np.round(np.linspace(2, 13, N_TONES)).astype(int)
    return centers[np.arange(N_TONES) * 16 + offsets]


def class_tone_frequencies(n_classes: int) -> np.ndarray:
    """One tone per class, centered on well-separated mel filter bins."""
    centers = mel_filter_centers()
    bins = np.unique(np.round(np.linspace(24, 120, n_classes)).astype(int))
    if bins.size < n_classes:
        bins = np.round(np.linspace(8, 124, n_classes)).astype(int)
    return centers[bins]


# Classes differ in which half of the frequency regions uses a wide
# (two-atom, zero-mean-log) amplitude support versus a constant one: a 2x2
# grid over (low group wide?, high group wide?). Every tone keeps the same
# duty cycle and mean log level, tone bins respond affinely to log amplitude,
# per-clip atom signs are balanced per group, and the fixed background sits
# far above windowing skirts; what separates classes is the per-region-group
# amplitude-atom histogram that token-predicting features resolve.
# the two lowest regions stay background-only: a 25 ms window's mainlobe is
# wider than the narrow low-frequency mel bins, which would expose amplitude
# structure to plain spectral averages
TONE_REGIONS = (2, 3, 4, 5, 6, 7)
REGION_GROUPS = ((2, 3, 4), (5, 6, 7))
WIDE_ATOM = 2.0
HALF_ATOM = 1.0
AMP_LOG_STEP = 0.45
BASE_AMPLITUDE = 0.11  # pair peak plus background stays below full scale
DITHER_GAIN = 0.25  # per-clip white dither, relative to the background level

# per class: (low-group atom magnitude, high-group atom magnitude); 0 = constant
CLASS_GROUP_ATOMS = (
    (0.0, 0.0),
    (WIDE_ATOM, 0.0),
    (0.0, WIDE_ATOM),
    (WIDE_ATOM, WIDE_ATOM),
    (HALF_ATOM, 0.0),
    (0.0, HALF_ATOM),
    (HALF_ATOM, WIDE_ATOM),
    (WIDE_ATOM, HALF_ATOM),
)


def _class_group_atoms(n_classes: int) -> list[tuple[float, float]]:
    if n_classes > len(CLASS_GROUP_ATOMS):
        raise ContractError(
            f"tone-sequence corpus supports at most {len(CLASS_GROUP_ATOMS)} classes"
        )
    return list(CLASS_GROUP_ATOMS[:n_classes])


def _tone_sequence_clip(
    rng: np.random.Generator,
    clip_seconds: float,
    group_atoms: tuple[float, float],
    tones: np.ndarray,
) -> np.ndarray:
    """One tone pair per patch column; each voice's amplitude comes from its
    region group's class-assigned support.

    Segments align with 16-frame patch columns so a patch sees exactly one
    (region, amplitude-atom) event. Wide-group atom signs alternate from a
    random start, keeping per-clip log-amplitude sums balanced per group.
    """
    n_samples = int(round(clip_seconds * SAMPLE_RATE))
    n_segments = math.ceil(n_samples / TONE_SEGMENT_SAMPLES)
    t = np.arange(n_samples) / SAMPLE_RATE
    # per-clip dither floods otherwise near-deterministic background bins so
    # no systematic micro-shift survives at usable signal-to-noise
    out = _background(n_samples) + DITHER_GAIN * BACKGROUND_GAIN * rng.standard_normal(n_samples)

    group_of = np.zeros(N_TONES, dtype=int)
    for g, regions in enumerate(REGION_GROUPS):
        group_of[list(regions)] = g
    sign_state = [int(rng.integers(2)) * 2 - 1 for _ in REGION_GROUPS]

    def amp_for(region: int) -> float:
        g = group_of[region]
        atom = group_atoms[g]
        if atom == 0.0:
            return BASE_AMPLITUDE
        sign = sign_state[g]
        sign_state[g] = -sign
        return BASE_AMPLITUDE * math.exp(AMP_LOG_STEP * atom * sign)

    def voice(freq, lo, hi, amp):
        # independent phases decorrelate the pair's spectral cross-terms, so
        # average spectra stay class-blind
        return amp * np.sin(2.0 * np.pi * freq * t[lo:hi] + rng.uniform(0.0, 2.0 * np.pi))

    for seg in range(n_segments):
        a, b = rng.choice(TONE_REGIONS, size=2, replace=False)
        lo = seg * TONE_SEGMENT_SAMPLES
        hi = min(lo + TONE_SEGMENT_SAMPLES, n_samples)
        out[lo:hi] += voice(tones[a], lo, hi, amp_for(a)) + voice(tones[b], lo, hi, amp_for(b))
    return out


def _filtered_noise_clip(
    rng: np.random.Generator,
    clip_seconds: float,
    band: tuple[float, float],
) -> np.ndarray:
    n_samples = int(round(clip_seconds * SAMPLE_RATE))
    noise = rng.standard_normal(n_samples)
    spectrum = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / SAMPLE_RATE)
    spectrum[(freqs < band[0]) | (freqs > band[1])] = 0.0
    filtered = np.fft.irfft(spectrum, n=n_samples)
    rms = np.sqrt((filtered**2).mean()) or 1.0
    return (filtered / rms) * rng.uniform(0.05, 0.15) + NOISE_FLOOR * rng.standard_normal(
        n_samples
    )


def _cluster_patterned_clip(
    rng: np.random.Generator,
    clip_seconds: float,
    root_hz: float,
) -> np.ndarray:
    n_samples = int(round(clip_seconds * SAMPLE_RATE))
    t = np.arange(n_samples) / SAMPLE_RATE
    mod = 0.5 * (1.0 + np.sin(2.0 * np.pi * rng.uniform(2.0, 6.0) * t))
    amp = rng.uniform(0.3, 0.6)
    chord = np.sin(2.0 * np.pi * root_hz * t) + 0.7 * np.sin(2.0 * np.pi * 1.5 * root_hz * t)
    return amp * mod * chord + NOISE_FLOOR * rng.standard_normal(n_samples)


def generate_synthetic(spec: SyntheticCorpusSpec, out_dir) -> Path:
    """Write corpus/<class>/<id>.wav plus a JSONL manifest; returns manifest path."""
    out_dir = Path(out_dir)
    corpus_dir = out_dir / "corpus"
    rng = np.random.default_rng(spec.seed)
    pair_tones = patch_tone_frequencies()
    group_atoms = _class_group_atoms(spec.classes)
    chord_tones = class_tone_frequencies(spec.classes)
    band_edges_hz = np.array(
        [float(audio.mel_to_hz(m)) for m in np.linspace(audio.hz_to_mel(50.0), audio.hz_to_mel(7800.0), spec.classes + 1)]
    )

    rows = []
    for i in range(spec.n_clips):
        cls = i % spec.classes
        label = f"c{cls}"
        clip_id = f"{label}_{i:05d}"
        if spec.kind == "tone-sequence":
            samples = _tone_sequence_clip(rng, spec.clip_seconds, group_atoms[cls], pair_tones)
        elif spec.kind == "filtered-noise-classes":
            samples = _filtered_noise_clip(
                rng, spec.clip_seconds, (band_edges_hz[cls], band_edges_hz[cls + 1])
            )
        else:
            samples = _cluster_patterned_clip(rng, spec.clip_seconds, chord_tones[cls])
        rel = Path("corpus") / label / f"{clip_id}.wav"
        (out_dir / rel).parent.mkdir(parents=True, exist_ok=True)
        write_wav_pcm16(out_dir / rel, samples)
        rows.append(
            ManifestRow(
                id=clip_id,
                path=str(rel),
                duration_s=spec.clip_seconds,
                label=label,
                domain="synthetic",
            )
        )
    manifest = Manifest(rows=rows, root=out_dir)
    return save_manifest(manifest, out_dir / "manifest.jsonl")


# -- normalization stats ---------------------------------------------------------


def stats_path_for(manifest_path) -> Path:
    p = Path(manifest_path)
    return p.with_name(p.stem + ".stats.json")


def corpus_identity(manifest: Manifest) -> str:
    """Hash of each row's id, absolute path, byte size and modification time:
    one ``stat`` per file, no reads. Moving or touching a file changes it."""
    h = hashlib.sha256()
    for row in manifest.rows:
        path = os.path.abspath(manifest.resolve(row))
        st = os.stat(path)
        h.update(f"{row.id}\t{path}\t{st.st_size}\t{st.st_mtime_ns}\n".encode())
    return h.hexdigest()


def compute_mel_stats(manifest: Manifest, out_path) -> Path:
    """Write the corpus's per-bin mel mean/std, with its identity under ``corpus``."""
    def frames_iter():
        for row in manifest.rows:
            yield mel_spectrogram(load_wav(manifest.resolve(row))).frames

    stats = audio.accumulate_mel_stats(frames_iter())
    audio.save_stats({**stats, "corpus": corpus_identity(manifest)}, out_path)
    return Path(out_path)


def ensure_mel_stats(manifest_path, manifest: Manifest | None = None) -> Path:
    """The stats file beside the manifest, recomputed unless it records this
    corpus's identity."""
    path = stats_path_for(manifest_path)
    if manifest is None:
        manifest = load_manifest(manifest_path)
    if not path.exists() or json.loads(path.read_text()).get("corpus") != corpus_identity(manifest):
        compute_mel_stats(manifest, path)
    return path


# -- featurization / batching ----------------------------------------------------


@dataclass
class PatchBatch:
    ids: list[str]
    patches: np.ndarray  # (B, N, 256) zero-padded
    valid: np.ndarray  # (B, N) bool
    time_ids: np.ndarray  # (B, N) int64
    freq_ids: np.ndarray  # (B, N) int64
    n_patches: list[int]

    @property
    def size(self) -> int:
        return len(self.ids)


class Featurizer:
    """Decode + normalize + patchify manifest rows, with an in-memory cache.

    Pure per-row work; ``workers`` > 0 fans decoding out over a thread pool
    (row order, and hence outputs, stay deterministic).
    """

    def __init__(
        self,
        manifest: Manifest,
        mean: np.ndarray,
        std: np.ndarray,
        cache: bool = True,
        workers: int = 0,
    ):
        self.manifest = manifest
        self.mean = mean
        self.std = std
        self.workers = workers
        self._cache: dict[str, PatchSequence] | None = {} if cache else None

    def patch_sequence(self, row: ManifestRow) -> PatchSequence:
        if self._cache is not None and row.id in self._cache:
            return self._cache[row.id]
        mel = mel_spectrogram(load_wav(self.manifest.resolve(row)))
        seq = patchify(
            type(mel)(frames=normalize_frames(mel.frames, self.mean, self.std))
        )
        if self._cache is not None:
            self._cache[row.id] = seq
        return seq

    def collate(self, rows: list[ManifestRow]) -> PatchBatch:
        if self.workers > 0:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                seqs = list(pool.map(self.patch_sequence, rows))
        else:
            seqs = [self.patch_sequence(r) for r in rows]
        return collate_sequences([r.id for r in rows], seqs)


def collate_sequences(ids: list[str], seqs: list[PatchSequence]) -> PatchBatch:
    """Zero-pad patch sequences into one batch with their position ids."""
    n_max = max(len(s) for s in seqs)
    b = len(seqs)
    patches = np.zeros((b, n_max, seqs[0].patches.shape[1]), dtype=np.float32)
    valid = np.zeros((b, n_max), dtype=bool)
    time_ids = np.zeros((b, n_max), dtype=np.int64)
    freq_ids = np.zeros((b, n_max), dtype=np.int64)
    for i, seq in enumerate(seqs):
        n = len(seq)
        patches[i, :n] = seq.patches
        valid[i, :n] = True
        time_ids[i, :n], freq_ids[i, :n] = patch_position_ids(n)
    return PatchBatch(
        ids=list(ids),
        patches=patches,
        valid=valid,
        time_ids=time_ids,
        freq_ids=freq_ids,
        n_patches=[len(s) for s in seqs],
    )


def _bucket_of(duration: float) -> int:
    for i, edge in enumerate(BUCKET_EDGES_SECONDS):
        if duration <= edge:
            return i
    return len(BUCKET_EDGES_SECONDS)


def epoch_batches(
    manifest: Manifest,
    batch_seconds: float,
    seed: int,
    epoch: int,
) -> tuple[list[list[ManifestRow]], int]:
    """Deterministic batch plan for one epoch.

    Rows are shuffled, length-bucketed, sorted within bucket so batches hold
    near-equal durations (bounds padding waste), packed to the seconds budget,
    and the batch order reshuffled. Returns (batches, skipped_too_short).
    """
    if not manifest.rows:
        raise DataError("manifest is empty")
    rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, 0x5EED]))
    usable = [r for r in manifest.rows if r.duration_s >= MIN_CLIP_SECONDS]
    skipped = len(manifest.rows) - len(usable)
    if not usable:
        raise DataError("no manifest rows long enough for one patch")
    order = rng.permutation(len(usable))
    buckets: dict[int, list[ManifestRow]] = {}
    for idx in order:
        row = usable[idx]
        buckets.setdefault(_bucket_of(row.duration_s), []).append(row)

    batches: list[list[ManifestRow]] = []
    for _, rows in sorted(buckets.items()):
        rows = sorted(rows, key=lambda r: -r.duration_s)
        current: list[ManifestRow] = []
        seconds = 0.0
        for row in rows:
            if current and seconds + row.duration_s > batch_seconds:
                batches.append(current)
                current, seconds = [], 0.0
            current.append(row)
            seconds += row.duration_s
        if current:
            batches.append(current)
    perm = rng.permutation(len(batches))
    return [batches[i] for i in perm], skipped


@dataclass
class BatchPlanItem:
    rows: list[ManifestRow]
    epoch: int
    index: int
    epoch_end: bool


def batch_iterator(
    manifest: Manifest,
    batch_seconds: float,
    seed: int,
    start_epoch: int = 0,
    epochs: int | None = None,
) -> Iterator[BatchPlanItem]:
    """Stream batch plans across epochs; ``epoch_end`` marks epoch boundaries."""
    epoch = start_epoch
    while epochs is None or epoch < start_epoch + epochs:
        batches, _ = epoch_batches(manifest, batch_seconds, seed, epoch)
        for i, rows in enumerate(batches):
            yield BatchPlanItem(rows=rows, epoch=epoch, index=i, epoch_end=i == len(batches) - 1)
        epoch += 1


def label_space(manifest: Manifest) -> list[str]:
    labels: set[str] = set()
    for row in manifest.rows:
        if row.label is None:
            continue
        if isinstance(row.label, list):
            labels.update(row.label)
        else:
            labels.add(row.label)
    return sorted(labels)
