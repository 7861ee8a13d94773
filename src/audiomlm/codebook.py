"""Codebooks: normalized nearest-neighbor quantization, k-means init, EMA
maintenance, the tokenizer interface, and the frozen random-projection
tokenizer used in iteration 1."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, DegenerateInputError, InsufficientSamplesError

EMA_COUNT_EPS = 1e-5
STALE_RESEED_AFTER = 10


@dataclass
class Codebook:
    codewords: np.ndarray  # (K, p) float32
    ema_counts: np.ndarray  # (K,) float32
    ema_sums: np.ndarray  # (K, p) float32
    decay: float
    stale: np.ndarray = field(default=None)  # consecutive updates with no assignments

    def __post_init__(self):
        if self.codewords.ndim != 2 or self.codewords.shape[0] < 2:
            raise ContractError(f"codebook needs K >= 2 codewords, got {self.codewords.shape}")
        if not 0.0 < self.decay <= 1.0:
            raise ContractError(f"EMA decay must lie in (0,1], got {self.decay}")
        if self.stale is None:
            self.stale = np.zeros(self.codewords.shape[0], dtype=np.int32)

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def width(self) -> int:
        return self.codewords.shape[1]

    @classmethod
    def from_codewords(cls, codewords: np.ndarray, decay: float) -> "Codebook":
        """Seed EMA accumulators so codeword == sums/counts holds immediately."""
        cw = np.asarray(codewords, dtype=np.float32).copy()
        counts = np.ones(cw.shape[0], dtype=np.float32)
        return cls(codewords=cw, ema_counts=counts, ema_sums=cw.copy(), decay=decay)

    def content_hash(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.codewords).tobytes()).hexdigest()


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.maximum(norms, 1e-30)


# Byte budget of one block of exactly rescored (row, codeword) pairs.
RESCORE_BYTES = 1 << 24


def _exact_sq(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``((x - y) ** 2).sum(-1)`` row by row: the exact squared distance every
    returned index and distance is decided by."""
    d = x - y
    np.square(d, out=d)
    return d.sum(axis=-1)


def _screen(x: np.ndarray, y: np.ndarray, chunk: int):
    """Yield (start, block, slack) per ``chunk`` rows of ``x``: ``block`` holds
    ``||x||^2 - 2 x.y + ||y||^2`` against every row of ``y`` through one GEMM,
    and ``slack`` bounds, per row, how far any entry may lie from the distance
    ``_exact_sq`` gives. With S = ||x||^2 + max ||y||^2, the screen is within
    about (p + 2.5) eps S of the true distance and the exact sum within
    (p + 2) eps S, whatever the summation order, so 2 (p + 4) eps S bounds
    their gap."""
    yy = np.einsum("ij,ij->i", y, y)
    scale = 2.0 * (x.shape[1] + 4) * np.finfo(np.float64).eps
    for start in range(0, x.shape[0], chunk):
        xc = x[start : start + chunk]
        xx = np.einsum("ij,ij->i", xc, xc)
        block = xc @ y.T
        block *= -2.0
        block += xx[:, None]
        block += yy
        yield start, block, scale * (xx + yy.max())


def _rescore(x: np.ndarray, y: np.ndarray, candidates: np.ndarray):
    """Exact distances of the (row, column) pairs where ``candidates`` is True,
    taken row-major in blocks of at most ``RESCORE_BYTES``. Returns the pairs'
    columns, their distances and the index of each row's first pair."""
    rows, cols = np.nonzero(candidates)
    dist = np.empty(rows.size)
    step = max(1, RESCORE_BYTES // (8 * x.shape[1]))
    for s in range(0, rows.size, step):
        dist[s : s + step] = _exact_sq(x[rows[s : s + step]], y[cols[s : s + step]])
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return cols, dist, starts


def _first_min(dist: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per group of ``dist`` (groups begin at ``starts``): the position of its
    first minimum."""
    sizes = np.diff(starts, append=dist.size)
    at_min = dist == np.repeat(np.minimum.reduceat(dist, starts), sizes)
    return np.minimum.reduceat(np.where(at_min, np.arange(dist.size), dist.size), starts)


def _nearest(x: np.ndarray, y: np.ndarray, chunk: int = 2048) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``x``: the index of its nearest row of ``y`` (lowest on ties)
    and the exact squared distance to it. Rows whose screened distances leave a
    second candidate within twice the slack of the minimum are decided exactly."""
    index, dist = np.empty(x.shape[0], dtype=np.int64), np.empty(x.shape[0])
    for start, block, slack in _screen(x, y, chunk):
        xc = x[start : start + chunk]
        best = np.argmin(block, axis=1)
        candidates = block <= (block[np.arange(best.size), best] + 2.0 * slack)[:, None]
        tied = np.count_nonzero(candidates, axis=1) > 1
        if tied.any():
            cols, exact, starts = _rescore(xc[tied], y, candidates[tied])
            best[tied] = cols[_first_min(exact, starts)]
        index[start : start + best.size] = best
        dist[start : start + best.size] = _exact_sq(xc, y[best])
    return index, dist


def quantize(e: np.ndarray, cb: Codebook) -> tuple[int, np.ndarray]:
    """Nearest codeword index under L2-normalized squared distance.

    Ties break to the lowest index; returns the un-normalized codeword row.
    """
    e = np.asarray(e, dtype=np.float64)
    if not np.all(np.isfinite(e)):
        raise DegenerateInputError("non-finite embedding passed to quantize")
    z = int(quantize_batch(e[None, :], cb)[0])
    return z, cb.codewords[z]


def quantize_batch(embeddings: np.ndarray, cb: Codebook, chunk: int = 2048) -> np.ndarray:
    """Nearest codeword index per row under L2-normalized squared distance."""
    e = np.asarray(embeddings, dtype=np.float64)
    if np.any(np.linalg.norm(e, axis=1) == 0.0):
        raise DegenerateInputError("zero-norm embedding has no nearest codeword")
    return _nearest(_normalize_rows(e), _normalize_rows(cb.codewords.astype(np.float64)), chunk)[0]


def _sq_distance_to(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact squared distance from every row of ``x`` to the one point ``c``, in
    256-row blocks, small enough to stay in cache."""
    return np.concatenate([_exact_sq(x[s : s + 256], c) for s in range(0, x.shape[0], 256)])


def kmeans_init(
    samples: np.ndarray,
    k: int,
    rng: np.random.Generator,
    decay: float = 0.99,
    max_iters: int = 50,
    tol: float = 1e-4,
) -> Codebook:
    """k-means++ seeding plus Lloyd iterations; empty clusters re-seed from the
    farthest point. Stops when the max centroid shift drops below ``tol``."""
    x = np.asarray(samples, dtype=np.float64)
    m = x.shape[0]
    if m < k:
        raise InsufficientSamplesError(f"k-means needs at least {k} samples, got {m}")

    centroids = np.empty((k, x.shape[1]), dtype=np.float64)
    centroids[0] = x[rng.integers(m)]
    d2 = _sq_distance_to(x, centroids[0])
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[i] = x[rng.integers(m)]
        else:
            centroids[i] = x[rng.choice(m, p=d2 / total)]
        d2 = np.minimum(d2, _sq_distance_to(x, centroids[i]))

    assign = np.zeros(m, dtype=np.int64)
    for _ in range(max_iters):
        assign, nearest = _nearest(x, centroids)
        order = np.argsort(assign, kind="stable")
        ends = np.cumsum(np.bincount(assign, minlength=k))
        new_centroids = np.empty_like(centroids)
        for j in range(k):
            rows = order[ends[j - 1] if j else 0 : ends[j]]
            new_centroids[j] = x[rows].mean(axis=0) if rows.size else x[int(np.argmax(nearest))]
        shift = np.abs(new_centroids - centroids).max()
        centroids = new_centroids
        if shift < tol:
            break

    counts = np.bincount(assign, minlength=k).astype(np.float32)
    counts = np.maximum(counts, 1.0)
    cw = centroids.astype(np.float32)
    return Codebook(
        codewords=cw,
        ema_counts=counts,
        ema_sums=cw * counts[:, None],
        decay=decay,
    )


def ema_update(
    cb: Codebook,
    vectors: np.ndarray,
    assignments: np.ndarray,
    rng: np.random.Generator,
) -> Codebook:
    """Blend batch assignment statistics into the codebook in place.

    counts <- d*counts + (1-d)*batch_counts, sums likewise; codeword_k =
    sums_k / max(counts_k, 1e-5). Codewords unused for 10 consecutive updates
    (or left with zero norm) are re-seeded from random batch vectors.
    """
    v = np.asarray(vectors, dtype=np.float32)
    a = np.asarray(assignments, dtype=np.int64)
    k, p = cb.codewords.shape
    batch_counts = np.bincount(a, minlength=k).astype(np.float32)
    batch_sums = np.zeros((k, p), dtype=np.float32)
    np.add.at(batch_sums, a, v)

    d = np.float32(cb.decay)
    one_minus = np.float32(1.0 - cb.decay)
    cb.ema_counts = d * cb.ema_counts + one_minus * batch_counts
    cb.ema_sums = d * cb.ema_sums + one_minus * batch_sums
    cb.codewords = cb.ema_sums / np.maximum(cb.ema_counts, EMA_COUNT_EPS)[:, None]

    cb.stale = np.where(batch_counts > 0, 0, cb.stale + 1).astype(np.int32)
    dead = (cb.stale >= STALE_RESEED_AFTER) | (np.linalg.norm(cb.codewords, axis=1) == 0.0)
    if dead.any() and v.shape[0] > 0:
        picks = rng.integers(v.shape[0], size=int(dead.sum()))
        cb.codewords[dead] = v[picks]
        cb.ema_counts[dead] = 1.0
        cb.ema_sums[dead] = cb.codewords[dead]
        cb.stale[dead] = 0
    return cb


def assignment_histogram(assignments: np.ndarray, k: int) -> np.ndarray:
    return np.bincount(np.asarray(assignments, dtype=np.int64), minlength=k)


def perplexity(assignments: np.ndarray, k: int) -> float:
    """exp(entropy) of the assignment histogram; K when usage is uniform."""
    hist = assignment_histogram(assignments, k).astype(np.float64)
    total = hist.sum()
    if total == 0:
        return 0.0
    probs = hist / total
    nz = probs[probs > 0]
    return float(np.exp(-(nz * np.log(nz)).sum()))


def coverage(assignments: np.ndarray, k: int) -> float:
    """Fraction of codewords used at least once."""
    return float((assignment_histogram(assignments, k) > 0).sum() / k)


def nearest_neighbor_margins(embeddings: np.ndarray, cb: Codebook) -> np.ndarray:
    """Per row: squared-distance gap between the second-best and best codeword.
    The exact top two lie among the codewords whose screened distance is within
    twice the slack of the second-smallest screened one."""
    ebar = _normalize_rows(np.asarray(embeddings, dtype=np.float64))
    vbar = _normalize_rows(cb.codewords.astype(np.float64))
    out = np.empty(ebar.shape[0], dtype=np.float64)
    for start, block, slack in _screen(ebar, vbar, 2048):
        second = np.partition(block, 1, axis=1)[:, 1]
        candidates = block <= (second + 2.0 * slack)[:, None]
        _, exact, starts = _rescore(ebar[start : start + block.shape[0]], vbar, candidates)
        first = _first_min(exact, starts)
        lowest = exact[first]
        exact[first] = np.inf
        out[start : start + block.shape[0]] = np.minimum.reduceat(exact, starts) - lowest
    return out


class Tokenizer:
    """An embedder plus a codebook: a patch's token is the index of the codeword
    nearest to its embedding. Subclasses define ``embed`` and ``codebook``."""

    codebook: Codebook

    def embed(self, patches, time_ids=None, freq_ids=None, valid=None) -> np.ndarray:
        raise NotImplementedError

    def tokenize(self, patches, time_ids=None, freq_ids=None, valid=None) -> np.ndarray:
        """Token per patch, shaped like ``patches`` without its last axis.
        Positions where ``valid`` is False get token 0 and are not quantized."""
        emb = self.embed(patches, time_ids, freq_ids, valid)
        keep = np.ones(emb.shape[:-1], dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
        tokens = np.zeros(keep.shape, dtype=np.int64)
        tokens[keep] = quantize_batch(emb[keep], self.codebook)
        return tokens


@dataclass
class RandomProjectionTokenizer(Tokenizer):
    """Frozen Gaussian projection + frozen Gaussian codebook, fully seeded."""

    projection: np.ndarray  # (d, p) float32
    codebook: Codebook
    seed: int

    @classmethod
    def create(cls, seed: int, patch_dim: int, width: int, k: int) -> "RandomProjectionTokenizer":
        rng = np.random.default_rng(seed)
        projection = (rng.standard_normal((patch_dim, width)) / np.sqrt(patch_dim)).astype(
            np.float32
        )
        codewords = rng.standard_normal((k, width)).astype(np.float32)
        return cls(projection=projection, codebook=Codebook.from_codewords(codewords, 1.0), seed=seed)

    def embed(self, patches, time_ids=None, freq_ids=None, valid=None) -> np.ndarray:
        """The projection of corpus-normalized patches; positions are ignored."""
        x = np.asarray(patches, dtype=np.float32)
        return (x.reshape(-1, x.shape[-1]) @ self.projection).reshape(*x.shape[:-1], -1)


# -- token dumps ----------------------------------------------------------------


def write_token_dump(
    bin_path,
    sidecar_path,
    tokens: dict[str, np.ndarray],
    codebook_hash: str,
    config: dict,
) -> None:
    """Little-endian u32 tokens per utterance, keyed by manifest row id.

    The JSON sidecar records per-utterance (offset, count) in token units plus
    the codebook hash and the producing config.
    """
    utterances: dict[str, dict] = {}
    offset = 0
    with open(bin_path, "wb") as f:
        for utt_id, tok in tokens.items():
            arr = np.ascontiguousarray(tok, dtype="<u4")
            f.write(arr.tobytes())
            utterances[utt_id] = {"offset": offset, "count": int(arr.size)}
            offset += int(arr.size)
    Path(sidecar_path).write_text(
        json.dumps(
            {"codebook_hash": codebook_hash, "config": config, "utterances": utterances}
        )
    )


def read_token_dump(bin_path, sidecar_path) -> tuple[dict[str, np.ndarray], dict]:
    meta = json.loads(Path(sidecar_path).read_text())
    flat = np.fromfile(bin_path, dtype="<u4")
    out: dict[str, np.ndarray] = {}
    for utt_id, entry in meta["utterances"].items():
        out[utt_id] = flat[entry["offset"] : entry["offset"] + entry["count"]].copy()
    return out, meta
