import struct

import numpy as np
import pytest

from vadpipe.audio_io import (AudioBuffer, UnsupportedCodecError, WavFormatError,
                              read_wav, resample, write_wav)

from conftest import make_buffer


def build_wav(payload: bytes, fmt_tag=1, channels=1, rate=16000, bits=16) -> bytes:
    block = channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, fmt_tag, channels, rate,
                                    rate * block, block, bits)
    header += b"data" + struct.pack("<I", len(payload))
    return header + payload


class TestReadWav:
    def test_pcm16_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(build_wav(struct.pack("<3h", 32767, 0, -32768)))
        buf = read_wav(path)
        assert buf.sample_rate_hz == 16000
        assert buf.samples[0] == pytest.approx(32767 / 32768, abs=1e-12)
        assert buf.samples[1] == 0.0
        assert buf.samples[2] == -1.0

    def test_stereo_downmix_is_mean(self, tmp_path):
        path = tmp_path / "st.wav"
        frame = struct.pack("<2h", 16384, -16384)  # (0.5, -0.5)
        path.write_bytes(build_wav(frame * 4, channels=2))
        buf = read_wav(path)
        assert np.allclose(buf.samples, 0.0)

    def test_float32_read_and_clamp(self, tmp_path):
        path = tmp_path / "f.wav"
        path.write_bytes(build_wav(struct.pack("<3f", 0.25, -1.5, 2.0), fmt_tag=3, bits=32))
        buf = read_wav(path)
        assert buf.samples == pytest.approx([0.25, -1.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_float32_non_finite_rejected(self, tmp_path, bad):
        path = tmp_path / "nan.wav"
        path.write_bytes(build_wav(struct.pack("<3f", 0.25, bad, 0.5), fmt_tag=3, bits=32))
        with pytest.raises(WavFormatError, match="non-finite"):
            read_wav(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OGGThis is not a wav file at all")
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        path = tmp_path / "nodata.wav"
        blob = build_wav(b"")
        path.write_bytes(blob[:36])  # cut before the data chunk
        with pytest.raises(WavFormatError):
            read_wav(path)

    @pytest.mark.parametrize("fmt_tag,channels,bits", [
        (2, 1, 16),   # ADPCM
        (1, 1, 8),    # 8-bit PCM
        (1, 3, 16),   # too many channels
        (3, 1, 64),   # double float
    ])
    def test_unsupported_codecs(self, tmp_path, fmt_tag, channels, bits):
        path = tmp_path / "u.wav"
        path.write_bytes(build_wav(b"\x00" * 64, fmt_tag=fmt_tag,
                                   channels=channels, bits=bits))
        with pytest.raises(UnsupportedCodecError):
            read_wav(path)


class TestWriteWav:
    def test_zero_buffer_data_chunk(self, tmp_path):
        path = tmp_path / "z.wav"
        write_wav(make_buffer([0.0, 0.0]), path)
        blob = path.read_bytes()
        assert blob[-4:] == b"\x00\x00\x00\x00"
        assert struct.unpack_from("<I", blob, blob.index(b"data") + 4)[0] == 4

    def test_full_scale_clamps_to_32767(self, tmp_path):
        path = tmp_path / "c.wav"
        write_wav(make_buffer([1.0, -1.0]), path)
        raw = np.frombuffer(path.read_bytes()[-4:], dtype="<i2")
        assert list(raw) == [32767, -32768]

    def test_round_trip_quantization_bound(self, tmp_path, rng):
        for i in range(20):
            samples = rng.uniform(-1, 1, size=500)
            path = tmp_path / f"r{i}.wav"
            write_wav(make_buffer(samples), path)
            back = read_wav(path)
            assert np.max(np.abs(back.samples - samples)) <= 1 / 32768


class TestResample:
    def test_length_ratio_48k_to_16k(self, rng):
        buf = AudioBuffer(rng.standard_normal(48000) * 0.1, 48000)
        out = resample(buf, 16000)
        assert out.sample_rate_hz == 16000
        assert abs(len(out) - 16000) <= 1

    @pytest.mark.parametrize("source_hz", [48000, 44100, 22050, 8000])
    def test_dc_preservation(self, source_hz):
        buf = AudioBuffer(np.full(source_hz, 0.37), source_hz)  # one second
        out = resample(buf, 16000)
        interior = out.samples[400:-400]
        assert np.max(np.abs(interior - 0.37)) <= 1e-6

    def test_sine_against_analytic_target(self):
        # 1 kHz at 48 kHz downsampled must match a 1 kHz sine generated at 16 kHz
        n = 48000
        src = AudioBuffer(np.sin(2 * np.pi * 1000 * np.arange(n) / 48000), 48000)
        out = resample(src, 16000)
        expected = np.sin(2 * np.pi * 1000 * np.arange(len(out)) / 16000)
        err = np.abs(out.samples - expected)[200:-200]
        assert err.max() <= 1e-3

    def test_linearity(self, rng):
        x = rng.standard_normal(4000) * 0.2
        y = rng.standard_normal(4000) * 0.2
        combo = resample(AudioBuffer(2.0 * x + 0.5 * y, 48000), 16000)
        parts = 2.0 * resample(AudioBuffer(x, 48000), 16000).samples \
            + 0.5 * resample(AudioBuffer(y, 48000), 16000).samples
        assert np.max(np.abs(combo.samples - parts)) <= 1e-9

    def test_silence_resamples_to_exact_silence(self):
        out = resample(AudioBuffer(np.zeros(22050), 22050), 16000)
        assert np.all(out.samples == 0.0)

    def test_bad_target_rate(self):
        with pytest.raises(ValueError):
            resample(make_buffer([0.1, 0.2]), 0)

    def test_empty_buffer(self):
        with pytest.raises(ValueError):
            resample(AudioBuffer(np.zeros(0), 48000), 16000)

    def test_same_rate_is_copy(self):
        buf = make_buffer([0.1, -0.2, 0.3])
        out = resample(buf, 16000)
        assert np.array_equal(out.samples, buf.samples)
        assert out.samples is not buf.samples


class TestAudioBuffer:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros(10), 0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((2, 10)), 16000)

    def test_duration(self):
        assert make_buffer(np.zeros(8000)).duration_s == 0.5
