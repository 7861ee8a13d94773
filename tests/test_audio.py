import struct

import numpy as np
import pytest

from audiomlm import audio
from audiomlm.audio import (
    FRAME_LENGTH,
    FRAME_SHIFT,
    Waveform,
    load_wav,
    mel_filter_centers,
    mel_spectrogram,
    wav_duration_seconds,
    write_wav_pcm16,
)
from audiomlm.errors import AudioFormatError, TooShortError, WavParseError


def _write_raw_wav(path, payload: bytes, fmt=(1, 1, 16000, 32000, 2, 16)):
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, *fmt)
    header += b"data" + struct.pack("<I", len(payload))
    path.write_bytes(header + payload)


class TestLoadWav:
    def test_one_second_of_silence(self, tmp_path):
        p = tmp_path / "silence.wav"
        _write_raw_wav(p, np.zeros(16000, dtype="<i2").tobytes())
        w = load_wav(p)
        assert w.sample_rate == 16000
        assert w.samples.shape == (16000,)
        assert np.all(w.samples == 0.0)

    def test_full_scale_pcm16_scaling(self, tmp_path):
        p = tmp_path / "full.wav"
        _write_raw_wav(p, np.array([32767], dtype="<i2").tobytes())
        w = load_wav(p)
        assert abs(w.samples[0] - 32767 / 32768) < 1e-7

    def test_stereo_downmix_cancels(self, tmp_path):
        p = tmp_path / "stereo.wav"
        left = np.full(100, 16384, dtype="<i2")
        right = np.full(100, -16384, dtype="<i2")
        interleaved = np.empty(200, dtype="<i2")
        interleaved[0::2] = left
        interleaved[1::2] = right
        _write_raw_wav(p, interleaved.tobytes(), fmt=(1, 2, 16000, 64000, 4, 16))
        w = load_wav(p)
        assert np.all(w.samples == 0.0)

    def test_float32_payload(self, tmp_path):
        p = tmp_path / "f32.wav"
        samples = np.array([0.5, -0.25], dtype="<f4")
        _write_raw_wav(p, samples.tobytes(), fmt=(3, 1, 16000, 64000, 4, 32))
        np.testing.assert_allclose(load_wav(p).samples, samples)

    def test_missing_riff_reports_offset(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"JUNKxxxxxxxxxxxxxxxx")
        with pytest.raises(WavParseError) as err:
            load_wav(p)
        assert err.value.offset == 0

    def test_missing_wave_tag_reports_offset(self, tmp_path):
        p = tmp_path / "bad2.wav"
        p.write_bytes(b"RIFF" + b"\x00" * 4 + b"NOPE" + b"\x00" * 16)
        with pytest.raises(WavParseError) as err:
            load_wav(p)
        assert err.value.offset == 8

    def test_wrong_sample_rate_rejected(self, tmp_path):
        p = tmp_path / "rate.wav"
        _write_raw_wav(p, np.zeros(10, dtype="<i2").tobytes(), fmt=(1, 1, 44100, 88200, 2, 16))
        with pytest.raises(AudioFormatError, match="44100"):
            load_wav(p)

    def test_roundtrip_writer(self, tmp_path):
        p = tmp_path / "rt.wav"
        samples = np.sin(np.linspace(0, 20, 5000)).astype(np.float32) * 0.5
        write_wav_pcm16(p, samples)
        w = load_wav(p)
        np.testing.assert_allclose(w.samples, samples, atol=1.0 / 32768)

    def test_duration_from_header(self, tmp_path):
        p = tmp_path / "dur.wav"
        _write_raw_wav(p, np.zeros(8000, dtype="<i2").tobytes())
        assert abs(wav_duration_seconds(p) - 0.5) < 1e-9

    def test_truncated_data_chunk_rejected_from_header(self, tmp_path):
        p = tmp_path / "cut.wav"
        write_wav_pcm16(p, np.zeros(16000))
        p.write_bytes(p.read_bytes()[:20000])
        with pytest.raises(WavParseError, match="past the end") as err:
            wav_duration_seconds(p)
        assert err.value.offset == 44
        with pytest.raises(WavParseError):
            load_wav(p)

    @pytest.mark.parametrize("kind", ["mono-pcm16", "stereo-pcm16", "float32", "odd-chunk-before-data"])
    def test_duration_agrees_with_decoded_length(self, tmp_path, kind):
        p = tmp_path / f"{kind}.wav"
        pcm = np.arange(-1500, 1500, 3, dtype="<i2")
        if kind == "mono-pcm16":
            _write_raw_wav(p, pcm.tobytes())
        elif kind == "stereo-pcm16":
            _write_raw_wav(p, pcm.tobytes(), fmt=(1, 2, 16000, 64000, 4, 16))
        elif kind == "float32":
            _write_raw_wav(p, (pcm / 32768.0).astype("<f4").tobytes(), fmt=(3, 1, 16000, 64000, 4, 32))
        else:
            # a 3-byte LIST chunk is followed by its pad byte
            payload = pcm.tobytes()
            body = b"WAVE" + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
            body += b"LIST" + struct.pack("<I", 3) + b"abc\x00"
            body += b"data" + struct.pack("<I", len(payload)) + payload
            p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        samples = load_wav(p).samples
        assert samples.size > 0
        assert wav_duration_seconds(p) == len(samples) / 16000


class TestMelSpectrogram:
    def test_one_second_gives_98_frames(self):
        w = Waveform(np.zeros(16000, dtype=np.float32), 16000)
        assert mel_spectrogram(w).frames.shape == (98, 128)

    def test_frame_count_formula(self):
        for n in (400, 401, 5000, 40000):
            w = Waveform(np.random.default_rng(0).standard_normal(n).astype(np.float32) * 0.1, 16000)
            t = mel_spectrogram(w).frames.shape[0]
            assert t == (n - FRAME_LENGTH) // FRAME_SHIFT + 1

    def test_too_short_clip(self):
        with pytest.raises(TooShortError):
            mel_spectrogram(Waveform(np.zeros(399, dtype=np.float32), 16000))

    def test_silence_is_uniform_logfloor(self):
        frames = mel_spectrogram(Waveform(np.zeros(16000, dtype=np.float32), 16000)).frames
        assert np.allclose(frames, np.log(1e-10))
        assert np.allclose(frames, frames[0])  # uniform across time

    def test_sine_energy_brackets_1khz(self):
        t = np.arange(16000) / 16000
        sine = (0.5 * np.sin(2 * np.pi * 1000 * t)).astype(np.float32)
        frames = mel_spectrogram(Waveform(sine, 16000)).frames
        argmax = frames.argmax(axis=1)
        assert np.all(argmax == argmax[0])  # stable across frames
        centers = mel_filter_centers()
        assert abs(centers[argmax[0]] - 1000.0) < 100.0

    def test_time_shift_by_one_hop_shifts_frames(self):
        rng = np.random.default_rng(1)
        sig = rng.standard_normal(8000).astype(np.float32) * 0.3
        base = mel_spectrogram(Waveform(sig, 16000)).frames
        shifted = mel_spectrogram(Waveform(sig[FRAME_SHIFT:], 16000)).frames
        np.testing.assert_allclose(shifted, base[1 : 1 + shifted.shape[0]], atol=1e-5)

    def test_amplitude_doubling_adds_log4(self):
        t = np.arange(8000) / 16000
        sig = (0.2 * np.sin(2 * np.pi * 500 * t)).astype(np.float32)
        lo = mel_spectrogram(Waveform(sig, 16000)).frames
        hi = mel_spectrogram(Waveform(2 * sig, 16000)).frames
        above = lo > np.log(1e-10) + 1.0
        np.testing.assert_allclose(hi[above] - lo[above], np.log(4.0), atol=1e-5)

    def test_deterministic(self):
        sig = np.random.default_rng(2).standard_normal(5000).astype(np.float32) * 0.2
        a = mel_spectrogram(Waveform(sig, 16000)).frames
        b = mel_spectrogram(Waveform(sig.copy(), 16000)).frames
        np.testing.assert_array_equal(a, b)

    def test_no_empty_filters(self):
        fb = audio.mel_filterbank()
        assert np.all(fb.sum(axis=1) > 0)


class TestStats:
    def test_stats_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = [rng.standard_normal((50, 128)) for _ in range(3)]
        stats = audio.accumulate_mel_stats(iter(frames))
        path = tmp_path / "stats.json"
        audio.save_stats(stats, path)
        mean, std = audio.load_stats(path)
        stacked = np.concatenate(frames, axis=0)
        np.testing.assert_allclose(mean, stacked.mean(axis=0), atol=1e-5)
        np.testing.assert_allclose(std, stacked.std(axis=0), atol=1e-4)

    def test_normalize_frames(self):
        frames = np.full((4, 128), 3.0, dtype=np.float32)
        mean = np.full(128, 1.0, dtype=np.float32)
        std = np.full(128, 2.0, dtype=np.float32)
        np.testing.assert_allclose(audio.normalize_frames(frames, mean, std), 1.0)

    def test_std_floor_applied(self):
        stats = audio.accumulate_mel_stats(iter([np.full((10, 128), 5.0)]))
        assert np.all(np.asarray(stats["std"]) >= audio.STD_FLOOR)
