"""The benchmark's own tests: every output check passes on correct output and
fails on one planted wrong output, and the reference computations agree with
the program on small inputs.

    python3 -m pytest perfbench/tests -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import corpora  # noqa: E402
import oracle  # noqa: E402


def _log(updates=8, warmup=2, peak=1e-3):
    return [{"step": s, "lr": peak * (s / warmup) if s <= warmup else peak * ((updates - s) / (updates - warmup)),
             "loss": math.log(32) - 0.1 * s, "teacher_cos": 0.1 * s} for s in range(1, updates + 1)]


def test_stage_log_one_row_per_step():
    assert checks.stage_log(_log(), 8, 8, "E1") == []


def test_stage_log_rejects_duplicated_row():
    rows = _log()
    assert checks.stage_log(rows[:5] + rows[3:], 8, 8, "E1")


def test_stage_log_rejects_optimizer_count_mismatch():
    assert checks.stage_log(_log(), 8, 9, "E1")


def test_lr_matches_schedule():
    assert checks.lr_rows(_log(), 2, 1e-3, 8, "E1") == []
    rows = _log()
    rows[5]["lr"] *= 1.001
    assert checks.lr_rows(rows, 2, 1e-3, 8, "E1")


def test_first_loss_near_ln_k():
    assert checks.first_loss_near_uniform([{"loss": math.log(32) + 0.02}], 32, 0.1, "E1") == []
    assert checks.first_loss_near_uniform([{"loss": math.log(32) + 0.5}], 32, 0.1, "E1")


def test_loss_falls():
    assert checks.loss_falls(_log(), 2, 0.2, "E1") == []
    flat = [{"loss": 3.0} for _ in range(8)]
    assert checks.loss_falls(flat, 2, 0.2, "E1")


def test_final_teacher_cos():
    assert checks.final_teacher_cos(_log(), 0.5, "T2") == []
    assert checks.final_teacher_cos(_log()[:3], 0.5, "T2")


def test_row_counts_follow_frame_formula():
    samples = {"a": 16000, "b": 48000}
    tokens = {k: np.zeros(oracle.expected_patches(n), np.uint32) for k, n in samples.items()}
    assert checks.row_counts(tokens, samples, "tokens") == []
    tokens["b"] = tokens["b"][:-1]
    assert checks.row_counts(tokens, samples, "tokens")


def test_token_range():
    assert checks.token_range({"a": np.array([0, 31])}, 32, "tokens") == []
    assert checks.token_range({"a": np.array([0, 32])}, 32, "tokens")


def test_token_off_by_one_fails_reference_check():
    rng = np.random.default_rng(0)
    codewords = rng.standard_normal((64, 16))
    ids, gaps = oracle.cosine_argmax(rng.standard_normal((200, 16)), codewords)
    assert checks.tokens_match(ids.copy(), ids, gaps, 1e-3, "tokens") == []
    wrong = ids.copy()
    wrong[int(np.argmax(gaps))] += 1
    assert checks.tokens_match(wrong, ids, gaps, 1e-3, "tokens")


def test_reference_check_ignores_rows_within_rounding():
    ids, gaps = np.array([3, 5]), np.array([1e-6, 0.5])
    assert checks.tokens_match(np.array([4, 5]), ids, gaps, 1e-3, "tokens") == []


def test_pooled_row_swapped_fails():
    means = np.random.default_rng(1).standard_normal((6, 8)).astype(np.float32)
    assert checks.close_rows(means + 1e-6, means, 1e-3, 1e-4, "pooled") == []
    swapped = means.copy()
    swapped[[1, 4]] = swapped[[4, 1]]
    assert checks.close_rows(swapped, means, 1e-3, 1e-4, "pooled")


def test_probe_floor():
    assert checks.at_least(0.95, 0.9, "probe") == []
    assert checks.at_least(0.75, 0.9, "probe")


def test_equal_counts():
    assert checks.equal_counts(10, 10, "steps") == []
    assert checks.equal_counts(11, 10, "steps")


def test_token_dump_reader_matches_program_writer(tmp_path):
    from audiomlm.codebook import write_token_dump

    tokens = {"a": np.array([1, 2, 3], np.uint32), "b": np.array([7], np.uint32)}
    write_token_dump(tmp_path / "t.bin", tmp_path / "t.json", tokens, "hash", {})
    got = checks.read_token_dump(tmp_path / "t.bin", tmp_path / "t.json")
    assert {k: v.tolist() for k, v in got.items()} == {k: v.tolist() for k, v in tokens.items()}


@pytest.mark.parametrize("seconds", [0.2, 1.0, 2.37])
def test_reference_frontend_matches_program(tmp_path, seconds):
    from audiomlm import audio
    from audiomlm.patches import patchify

    path = tmp_path / "x.wav"
    corpora.write_wav_pcm16(path, corpora.tone_sequence_clip(np.random.default_rng(3), seconds))
    samples = oracle.wav_samples(path)
    mean, std = np.full(128, -5.0), np.full(128, 2.0)
    want = oracle.patches(samples, mean, std)
    mel = audio.mel_spectrogram(audio.load_wav(path))
    frames = audio.normalize_frames(mel.frames, mean.astype(np.float32), std.astype(np.float32))
    got = patchify(audio.MelSpectrogram(frames=frames)).patches
    assert got.shape == want.shape == (oracle.expected_patches(samples.size), 256)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


def test_reference_transformer_matches_program():
    from audiomlm.distill import TokenizerEncoder, TokenizerNetConfig

    cfg = TokenizerNetConfig(width=32, ffn=64, layers=2, heads=4, predictor_layers=1, codebook_size=8)
    net = TokenizerEncoder(cfg, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((24, 256))
    t_ids, f_ids = oracle.position_ids(24)
    got = net(x[None].astype(np.float32), t_ids[None], f_ids[None]).data[0]
    params = {k: p.data for k, p in net.parameters().items()}
    np.testing.assert_allclose(got, oracle.transformer_embed(params, "", x, 2, 4), rtol=1e-3, atol=1e-4)


def test_reference_lr_matches_program():
    from audiomlm.optim import lr_at

    for step in range(0, 40):
        assert math.isclose(lr_at(step, 6, 1e-3, 36), oracle.lr_schedule(step, 6, 1e-3, 36), rel_tol=1e-12, abs_tol=1e-18)
