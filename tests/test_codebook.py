import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiomlm.audio import MelSpectrogram, Waveform, mel_spectrogram
from audiomlm import codebook
from audiomlm.codebook import (
    Codebook,
    RandomProjectionTokenizer,
    coverage,
    ema_update,
    kmeans_init,
    nearest_neighbor_margins,
    perplexity,
    quantize,
    quantize_batch,
    read_token_dump,
    write_token_dump,
)
from audiomlm.errors import DegenerateInputError, InsufficientSamplesError
from audiomlm.patches import patchify

from oracles import brute_force_quantize


class TestQuantize:
    def test_two_codeword_hand_case(self):
        cb = Codebook.from_codewords(np.array([[1.0, 0.0], [0.0, 1.0]]), decay=0.9)
        z, v = quantize(np.array([0.9, 0.1]), cb)
        assert z == brute_force_quantize(np.array([0.9, 0.1]), cb.codewords) == 0
        np.testing.assert_array_equal(v, [1.0, 0.0])

    def test_k_must_be_at_least_two(self):
        with pytest.raises(Exception):
            Codebook.from_codewords(np.ones((1, 3)), decay=0.9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        cb = Codebook.from_codewords(rng.standard_normal((8, 5)), decay=0.9)
        e = cb.codewords[3] * 7.0
        z, _ = quantize(e, cb)
        assert z == 3

    def test_zero_norm_rejected(self):
        cb = Codebook.from_codewords(np.eye(3), decay=0.9)
        with pytest.raises(DegenerateInputError):
            quantize(np.zeros(3), cb)
        with pytest.raises(DegenerateInputError):
            quantize_batch(np.zeros((2, 3)), cb)

    def test_brute_force_agreement_1000_instances(self):
        rng = np.random.default_rng(42)
        agree = 0
        for _ in range(1000):
            k = int(rng.integers(2, 33))
            p = int(rng.integers(2, 17))
            cb = Codebook.from_codewords(rng.standard_normal((k, p)), decay=0.9)
            e = rng.standard_normal(p)
            z, _ = quantize(e, cb)
            agree += z == brute_force_quantize(e, cb.codewords)
        assert agree == 1000

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        cb = Codebook.from_codewords(rng.standard_normal((16, 6)), decay=0.9)
        emb = rng.standard_normal((40, 6))
        batch = quantize_batch(emb, cb)
        singles = np.array([quantize(e, cb)[0] for e in emb])
        np.testing.assert_array_equal(batch, singles)

    def test_chunking_does_not_change_results(self):
        rng = np.random.default_rng(8)
        cb = Codebook.from_codewords(rng.standard_normal((9, 5)), decay=0.9)
        emb = rng.standard_normal((50, 5))
        np.testing.assert_array_equal(quantize_batch(emb, cb, chunk=7), quantize_batch(emb, cb))
        unit = lambda x: x / np.linalg.norm(x)
        dists = np.sort([[((unit(v.astype(np.float64)) - unit(e)) ** 2).sum() for v in cb.codewords] for e in emb], axis=1)
        np.testing.assert_allclose(nearest_neighbor_margins(emb, cb), dists[:, 1] - dists[:, 0], atol=1e-12)

    @given(st.integers(0, 10_000), st.floats(0.1, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_positive_scaling_never_changes_index(self, seed, scale):
        rng = np.random.default_rng(seed)
        cb = Codebook.from_codewords(rng.standard_normal((6, 4)), decay=0.9)
        e = rng.standard_normal(4)
        z1, _ = quantize(e, cb)
        z2, _ = quantize(e * scale, cb)
        assert z1 == z2


def _unit(x):
    return x / np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), 1e-30)


def _broadcast(x, y):
    """Every squared distance by the broadcast formula the kernel must reproduce."""
    return ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)


def _kernel_cases():
    rng = np.random.default_rng(11)
    grid = rng.integers(-2, 3, size=(600, 5)).astype(np.float64)
    dup = rng.integers(-2, 3, size=(24, 5)).astype(np.float64)
    dup[12:] = dup[:12]  # every codeword twice: each nearest one is an exact tie
    wide = rng.standard_normal((40, 64))
    return {
        "random": (rng.standard_normal((300, 16)), rng.standard_normal((32, 16))),
        "integer-grid-duplicated-codewords": (grid, dup),
        "embeddings-equal-codewords": (np.concatenate([wide, wide[::-1], 2 * wide]), wide),
        "midpoints": ((wide[:-1] + wide[1:]) / 2 + 1e-15 * rng.standard_normal((39, 64)), wide),
        "one-codeword": (grid, dup[:1]),
    }


class TestDistanceKernel:
    """``_nearest`` and the margins must equal the broadcast formula bit for bit."""

    @pytest.mark.parametrize("case", sorted(_kernel_cases()))
    @pytest.mark.parametrize("chunk", [7, 2048])  # 7 splits runs of tied rows across chunks
    def test_nearest_matches_broadcast(self, case, chunk, monkeypatch):
        x, y = _kernel_cases()[case]
        monkeypatch.setattr(codebook, "RESCORE_BYTES", 3 * 8 * x.shape[1])  # several rescore blocks
        d = _broadcast(x, y)
        for xs, ys, ds in ((x, y, d), (_unit(x), _unit(y), _broadcast(_unit(x), _unit(y)))):
            index, dist = codebook._nearest(xs, ys, chunk)
            np.testing.assert_array_equal(index, np.argmin(ds, axis=1))
            np.testing.assert_array_equal(dist, ds.min(axis=1))

    @pytest.mark.parametrize("case", sorted(set(_kernel_cases()) - {"one-codeword"}))
    def test_margins_and_tokens_match_broadcast(self, case):
        x, y = _kernel_cases()[case]
        cb = Codebook.from_codewords(y, decay=1.0)
        d = _broadcast(_unit(x), _unit(cb.codewords.astype(np.float64)))
        part = np.partition(d, 1, axis=1)
        np.testing.assert_array_equal(nearest_neighbor_margins(x, cb), part[:, 1] - part[:, 0])
        nonzero = np.linalg.norm(x, axis=1) > 0
        np.testing.assert_array_equal(quantize_batch(x[nonzero], cb), np.argmin(d[nonzero], axis=1))

    def test_quantize_memory_is_chunk_by_k(self):
        rng = np.random.default_rng(0)
        cb = Codebook.from_codewords(rng.standard_normal((1024, 768)), decay=1.0)
        emb = rng.standard_normal((144, 768)).astype(np.float32)
        tracemalloc.start()
        try:
            quantize_batch(emb, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6  # a (144, 1024, 768) float64 block alone is 906 MB


class TestKMeans:
    def test_fixed_point_when_m_equals_k(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((5, 3)) * 4.0
        cb = kmeans_init(points, 5, np.random.default_rng(1))
        found = sorted(tuple(np.round(c, 4)) for c in cb.codewords)
        expected = sorted(tuple(np.round(p, 4)) for p in points.astype(np.float32))
        assert found == expected

    def test_two_separated_gaussians(self):
        rng = np.random.default_rng(3)
        sigma = 0.2
        m = 400
        a = rng.normal(0.0, sigma, size=(m // 2, 4)) + np.array([5.0, 0, 0, 0])
        b = rng.normal(0.0, sigma, size=(m // 2, 4)) - np.array([5.0, 0, 0, 0])
        cb = kmeans_init(np.concatenate([a, b]), 2, np.random.default_rng(4))
        centers = cb.codewords[np.argsort(cb.codewords[:, 0])]
        bound = 3 * sigma / np.sqrt(m / 2)
        assert np.abs(centers[0] - b.mean(axis=0)).max() < max(bound, 0.05)
        assert np.abs(centers[1] - a.mean(axis=0)).max() < max(bound, 0.05)

    def test_duplicate_dataset_same_centroids(self):
        rng = np.random.default_rng(5)
        data = np.concatenate(
            [rng.normal(-4, 0.1, size=(30, 2)), rng.normal(4, 0.1, size=(30, 2))]
        )
        cb1 = kmeans_init(data, 2, np.random.default_rng(6))
        cb2 = kmeans_init(np.repeat(data, 2, axis=0), 2, np.random.default_rng(7))
        c1 = cb1.codewords[np.argsort(cb1.codewords[:, 0])]
        c2 = cb2.codewords[np.argsort(cb2.codewords[:, 0])]
        np.testing.assert_allclose(c1, c2, atol=1e-4)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            kmeans_init(np.ones((3, 2)), 4, np.random.default_rng(0))


class TestEmaUpdate:
    def test_decay_one_leaves_codebook_unchanged(self):
        rng = np.random.default_rng(0)
        cb = Codebook.from_codewords(rng.standard_normal((4, 3)), decay=1.0)
        before = cb.codewords.copy()
        vectors = rng.standard_normal((10, 3)).astype(np.float32)
        ema_update(cb, vectors, rng.integers(4, size=10), np.random.default_rng(1))
        np.testing.assert_array_equal(cb.codewords, before)

    def test_decay_zero_single_step_mean(self):
        rng = np.random.default_rng(1)
        cb = Codebook.from_codewords(rng.standard_normal((4, 3)), decay=1.0)
        cb.decay = 1e-30  # decay=0 is outside (0,1]; use the limiting value
        vectors = rng.standard_normal((12, 3)).astype(np.float32)
        ema_update(cb, vectors, np.full(12, 2), np.random.default_rng(2))
        np.testing.assert_allclose(cb.codewords[2], vectors.mean(axis=0), atol=1e-6)

    def test_two_step_sequence_matches_scalar_recurrence(self):
        rng = np.random.default_rng(2)
        k, p, decay = 3, 2, 0.9
        cb = Codebook.from_codewords(rng.standard_normal((k, p)), decay=decay)
        counts = cb.ema_counts.astype(np.float64).copy()
        sums = cb.ema_sums.astype(np.float64).copy()
        for step_seed in (10, 11):
            srng = np.random.default_rng(step_seed)
            vectors = srng.standard_normal((8, p)).astype(np.float32)
            assignments = srng.integers(k, size=8)
            ema_update(cb, vectors, assignments, np.random.default_rng(99))
            # independent recurrence, scalar arithmetic per codeword
            batch_counts = np.array([(assignments == j).sum() for j in range(k)], float)
            batch_sums = np.zeros((k, p))
            for vec, a in zip(vectors, assignments):
                batch_sums[a] += vec.astype(np.float64)
            counts = decay * counts + (1 - decay) * batch_counts
            sums = decay * sums + (1 - decay) * batch_sums
        expected = sums / np.maximum(counts, 1e-5)[:, None]
        np.testing.assert_allclose(cb.codewords, expected, atol=1e-6)

    def test_stale_codewords_reseeded_from_batch(self):
        rng = np.random.default_rng(3)
        cb = Codebook.from_codewords(rng.standard_normal((4, 2)), decay=0.5)
        vectors = np.full((5, 2), 3.0, dtype=np.float32)
        for _ in range(10):  # codeword 3 never assigned
            ema_update(cb, vectors, np.zeros(5, dtype=int), np.random.default_rng(4))
        np.testing.assert_array_equal(cb.codewords[3], vectors[0])
        assert cb.stale[3] == 0


class TestDiagnostics:
    def test_perplexity_uniform(self):
        assign = np.repeat(np.arange(8), 5)
        assert abs(perplexity(assign, 8) - 8.0) < 1e-9

    def test_perplexity_collapsed(self):
        assert abs(perplexity(np.zeros(100, dtype=int), 8) - 1.0) < 1e-9

    def test_coverage(self):
        assert coverage(np.array([0, 0, 3]), 8) == 2 / 8


class TestRandomProjectionTokenizer:
    def test_batched_tokens_match_bare_rows_and_padding_gets_zero(self):
        tok = RandomProjectionTokenizer.create(4, 256, 64, 32)
        patches = np.random.default_rng(2).standard_normal((2, 6, 256)).astype(np.float32)
        valid = np.ones((2, 6), dtype=bool)
        patches[1, 4:] = 0.0  # zero padding has no nearest codeword, so it must not be quantized
        valid[1, 4:] = False
        tokens = tok.tokenize(patches, valid=valid)
        assert tokens.shape == (2, 6)
        np.testing.assert_array_equal(tokens[0], tok.tokenize(patches[0]))
        np.testing.assert_array_equal(tokens[1, :4], tok.tokenize(patches[1, :4]))
        assert np.all(tokens[1, 4:] == 0)

    def test_identical_patches_identical_tokens(self):
        tok = RandomProjectionTokenizer.create(0, 256, 64, 32)
        patch = np.random.default_rng(0).standard_normal((1, 256)).astype(np.float32)
        tokens = tok.tokenize(np.repeat(patch, 5, axis=0))
        assert np.all(tokens == tokens[0])

    def test_reproducible_across_instances(self):
        rng = np.random.default_rng(1)
        patches = rng.standard_normal((20, 256)).astype(np.float32)
        t1 = RandomProjectionTokenizer.create(99, 256, 64, 32).tokenize(patches)
        t2 = RandomProjectionTokenizer.create(99, 256, 64, 32).tokenize(patches)
        np.testing.assert_array_equal(t1, t2)

    def test_white_noise_coverage_over_half_the_codebook(self):
        rng = np.random.default_rng(5)
        noise = (0.25 * rng.standard_normal(4 * 16000)).astype(np.float32)
        mel = mel_spectrogram(Waveform(noise, 16000))
        frames = (mel.frames - mel.frames.mean(axis=0)) / np.maximum(
            mel.frames.std(axis=0), 1e-3
        )
        patches = patchify(MelSpectrogram(frames=frames)).patches
        tokens = RandomProjectionTokenizer.create(3, 256, 64, 32).tokenize(patches)
        assert np.unique(tokens).size > 16


class TestTokenDump:
    def test_roundtrip(self, tmp_path):
        tokens = {
            "utt_a": np.array([1, 2, 3], dtype=np.uint32),
            "utt_b": np.array([7, 7], dtype=np.uint32),
        }
        bin_path, json_path = tmp_path / "t.bin", tmp_path / "t.json"
        write_token_dump(bin_path, json_path, tokens, "deadbeef", {"k": 32})
        loaded, meta = read_token_dump(bin_path, json_path)
        assert meta["codebook_hash"] == "deadbeef"
        assert meta["config"] == {"k": 32}
        np.testing.assert_array_equal(loaded["utt_a"], tokens["utt_a"])
        np.testing.assert_array_equal(loaded["utt_b"], tokens["utt_b"])
        assert bin_path.stat().st_size == 5 * 4  # little-endian u32 payload
