"""Output checks. Each takes plain data (log rows, token arrays, embeddings)
and returns a list of failure messages; an empty list means the check passed.
They compare the program's outputs with counts and values the benchmark
computed itself (see oracle.py)."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from oracle import expected_patches, lr_schedule


def read_jsonl(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def read_token_dump(bin_path, sidecar_path) -> dict[str, np.ndarray]:
    """Parse the documented dump format: little-endian u32 tokens, and a JSON
    sidecar holding each utterance's (offset, count) in tokens."""
    flat = np.fromfile(bin_path, dtype="<u4")
    meta = json.loads(Path(sidecar_path).read_text())["utterances"]
    return {k: flat[e["offset"] : e["offset"] + e["count"]] for k, e in meta.items()}


def stage_log(rows: list[dict], updates: int, optimizer_steps: int, stage: str) -> list[str]:
    """One row per step 1..updates, and as many rows as counted AdamW.step calls."""
    steps = [r["step"] for r in rows]
    out = []
    if steps != list(range(1, updates + 1)):
        out.append(f"{stage}: logged steps are not exactly 1..{updates} once each ({len(steps)} rows)")
    if len(rows) != optimizer_steps:
        out.append(f"{stage}: {len(rows)} log rows but {optimizer_steps} AdamW.step calls")
    return out


def lr_rows(rows: list[dict], warmup: int, peak: float, total: int, stage: str) -> list[str]:
    bad = [r["step"] for r in rows if not math.isclose(r["lr"], lr_schedule(r["step"], warmup, peak, total), rel_tol=1e-12, abs_tol=1e-18)]
    return [f"{stage}: logged lr differs from warmup + linear decay at steps {bad[:5]}"] if bad else []


def first_loss_near_uniform(rows: list[dict], k: int, margin: float, stage: str) -> list[str]:
    first = rows[0]["loss"] if rows else float("nan")
    if not abs(first - math.log(k)) <= margin:
        return [f"{stage}: first loss {first:.4f} is not within {margin} of ln K = {math.log(k):.4f}"]
    return []


def loss_falls(rows: list[dict], window: int, min_drop: float, stage: str) -> list[str]:
    """The mean loss of the last ``window`` steps is ``min_drop`` below the first step's."""
    if len(rows) <= window:
        return [f"{stage}: {len(rows)} rows, too few for a {window}-step final window"]
    first = rows[0]["loss"]
    last = float(np.mean([r["loss"] for r in rows[-window:]]))
    if not last <= first - min_drop:
        return [f"{stage}: final-window loss {last:.4f} is not {min_drop} below the first loss {first:.4f}"]
    return []


def final_teacher_cos(rows: list[dict], floor: float, stage: str) -> list[str]:
    cos = rows[-1]["teacher_cos"] if rows else float("nan")
    return [] if cos >= floor else [f"{stage}: final teacher_cos {cos:.4f} < {floor}"]


def row_counts(outputs: dict[str, np.ndarray], samples: dict[str, int], what: str) -> list[str]:
    """Each clip's token (or embedding row) count equals the frame formula."""
    out = []
    if set(outputs) != set(samples):
        out.append(f"{what}: clips {sorted(set(samples) ^ set(outputs))[:3]} missing or unexpected")
    for clip, n in samples.items():
        got = len(outputs.get(clip, ()))
        if got != expected_patches(n):
            out.append(f"{what}: clip {clip} has {got} rows, expected {expected_patches(n)}")
    return out


def token_range(tokens: dict[str, np.ndarray], k: int, what: str) -> list[str]:
    bad = [c for c, t in tokens.items() if t.size and int(t.max()) >= k]
    return [f"{what}: token ids >= K={k} in clips {bad[:3]}"] if bad else []


def tokens_match(program: np.ndarray, reference: np.ndarray, gaps: np.ndarray, tol: float, what: str) -> list[str]:
    """Tokens agree with the reference argmax wherever its top-2 gap exceeds
    ``tol``; at least half the rows must be decided that clearly."""
    clear = gaps > tol
    out = []
    if clear.sum() * 2 < clear.size:
        out.append(f"{what}: only {int(clear.sum())}/{clear.size} rows have a top-2 gap above {tol}")
    wrong = np.flatnonzero(clear & (np.asarray(program) != reference))
    if wrong.size:
        out.append(f"{what}: {wrong.size} tokens differ from the float64 cosine argmax, first at row {wrong[0]}")
    return out


def close_rows(got: np.ndarray, want: np.ndarray, rtol: float, atol: float, what: str) -> list[str]:
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    bad = np.flatnonzero(~np.isclose(got, want, rtol=rtol, atol=atol).all(axis=tuple(range(1, got.ndim))))
    return [f"{what}: {bad.size} rows differ beyond tolerance, first at row {bad[0]}"] if bad.size else []


def at_least(value: float, floor: float, what: str) -> list[str]:
    return [] if value >= floor else [f"{what}: {value:.4f} < {floor}"]


def equal_counts(outside: int, recorded: int, what: str) -> list[str]:
    return [] if outside == recorded else [f"{what}: counted {outside} outside, program recorded {recorded}"]
