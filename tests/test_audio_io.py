import math
import struct
import uuid

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.signal import resample_poly

from vadpipe import audio_io, parallel, synth
from vadpipe.audio_io import (MAX_SAMPLE_MAGNITUDE, AudioBuffer, UnsupportedCodecError,
                              UnsupportedRateError, WavFormatError, read_wav,
                              require_pipeline_audio, resample, write_wav)

from conftest import make_buffer


# Bytes 2-15 of KSDATAFORMAT_SUBTYPE_PCM as a file stores it; _IEEE_FLOAT
# differs only in its first byte.
GUID_SUFFIX = uuid.UUID("00000001-0000-0010-8000-00aa00389b71").bytes_le[2:]


def build_wav(payload: bytes, fmt_tag=1, channels=1, rate=16000, bits=16,
              sub_format: bytes | None = None) -> bytes:
    """A mono or stereo WAV; with sub_format, a WAVE_FORMAT_EXTENSIBLE one
    whose fmt chunk ends in that GUID."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, rate, rate * block % 2**32, block, bits)
    if sub_format is not None:
        fmt += struct.pack("<HHI", 22, bits, 0) + sub_format
    header = b"RIFF" + struct.pack("<I", 20 + len(fmt) + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<I", len(fmt)) + fmt
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

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("extra_byte", [False, True])
    def test_pcm16_decode_is_the_plain_formula(self, tmp_path, rng, channels, extra_byte):
        # Pinned to the plain formula, astype(float64) / 32768, then the stereo
        # mean. An odd-length data chunk drops its last byte.
        values = rng.integers(-32768, 32768, size=2 * 501, dtype=np.int16)
        values[:2] = (-32768, 32767)
        payload = values.astype("<i2").tobytes() + (b"\x7f" if extra_byte else b"")
        path = tmp_path / "p.wav"
        blob = build_wav(payload, channels=channels)
        path.write_bytes(blob + (b"\x00" if extra_byte else b""))   # word-aligned chunk
        want = values.astype(np.float64) / 32768
        if channels == 2:
            want = want.reshape(-1, 2).mean(axis=1)
        got = read_wav(path).samples
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_every_pcm16_code_decodes_to_its_quotient(self, tmp_path):
        # read_wav multiplies by 1/32768, which is exact for a power of two.
        codes = np.arange(-32768, 32768).astype("<i2")
        path = tmp_path / "codes.wav"
        path.write_bytes(build_wav(codes.tobytes()))
        assert read_wav(path).samples.tobytes() == (codes / 32768).tobytes()

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


    @pytest.mark.parametrize("tag,bits,payload", [
        (1, 16, struct.pack("<4h", 32767, 0, -32768, 1234)),
        (3, 32, struct.pack("<4f", 0.25, -1.5, 2.0, -0.125)),
    ])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_extensible_reads_as_its_plain_twin(self, tmp_path, tag, bits, payload, channels):
        plain, ext = tmp_path / "plain.wav", tmp_path / "ext.wav"
        plain.write_bytes(build_wav(payload, fmt_tag=tag, channels=channels, bits=bits))
        ext.write_bytes(build_wav(payload, fmt_tag=0xFFFE, channels=channels, bits=bits,
                                  sub_format=struct.pack("<H", tag) + GUID_SUFFIX))
        want, got = read_wav(plain), read_wav(ext)
        assert got.sample_rate_hz == want.sample_rate_hz
        assert np.array_equal(got.samples, want.samples)

    @pytest.mark.parametrize("sub_format", [
        struct.pack("<H", 1) + bytes(14),             # PCM tag, foreign suffix
        bytes.fromhex("6cfb1e3a1c5a4b6f9d9b3c1e0a5b7d2e"),
        struct.pack("<H", 2) + GUID_SUFFIX,           # ADPCM
    ])
    def test_extensible_unknown_sub_format_is_unsupported(self, tmp_path, sub_format):
        path = tmp_path / "ext.wav"
        path.write_bytes(build_wav(b"\x00" * 8, fmt_tag=0xFFFE, sub_format=sub_format))
        with pytest.raises(UnsupportedCodecError):
            read_wav(path)

    @pytest.mark.parametrize("cut", [16, 18, 39])
    def test_extensible_fmt_shorter_than_40_bytes_is_a_format_error(self, tmp_path, cut):
        blob = build_wav(b"\x00" * 8, fmt_tag=0xFFFE,
                         sub_format=struct.pack("<H", 1) + GUID_SUFFIX)
        fmt = blob[20:20 + cut]
        data = blob[60:]
        path = tmp_path / "ext.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 12 + cut + len(data)) + b"WAVE"
                         + b"fmt " + struct.pack("<I", cut) + fmt + data)
        with pytest.raises(WavFormatError, match="shorter than 40"):
            read_wav(path)

    @pytest.mark.parametrize("rate", [1, 4000, 7999, 192001, 2**32 - 1])
    def test_rate_outside_the_supported_range_is_refused(self, tmp_path, rate):
        path = tmp_path / "r.wav"
        path.write_bytes(build_wav(struct.pack("<3h", 1, 2, 3), rate=rate))
        with pytest.raises(UnsupportedRateError, match="outside the supported"):
            read_wav(path)

    @pytest.mark.parametrize("rate", [audio_io.MIN_RATE_HZ, 11025, 44100,
                                      audio_io.MAX_RATE_HZ])
    def test_rates_in_the_supported_range_are_read(self, tmp_path, rate):
        path = tmp_path / "r.wav"
        path.write_bytes(build_wav(struct.pack("<3h", 1, 2, 3), rate=rate))
        assert read_wav(path).sample_rate_hz == rate

    def test_sample_rate_zero_is_a_format_error(self, tmp_path):
        path = tmp_path / "r0.wav"
        path.write_bytes(build_wav(struct.pack("<3h", 1, 2, 3), rate=0))
        with pytest.raises(WavFormatError, match="sample rate 0"):
            read_wav(path)


@st.composite
def wav_files(draw) -> bytes:
    """A RIFF/WAVE file of fmt, data and other chunks in any order, with
    common and uncommon codec fields, damaged in at most one way."""
    tag, bits = draw(st.sampled_from([(1, 16), (3, 32), (0, 16), (2, 16), (1, 8),
                                      (1, 24), (3, 64), (0xFFFE, 16), (0xFFFE, 32)]))
    channels = draw(st.sampled_from([1, 2, 0, 3]))
    rate = draw(st.sampled_from([16000, 48000, 8000, 192000, 0, 1, 7999, 192001, 2**32 - 1]))
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * block % 2**32, block, bits)
    if tag == 0xFFFE:
        sub_tag = draw(st.sampled_from([1, 3, 2]))
        suffix = draw(st.sampled_from([GUID_SUFFIX, GUID_SUFFIX, bytes(14)]))
        fmt += struct.pack("<HHIH", 22, bits, 3, sub_tag) + suffix
    chunks = [[b"fmt ", fmt + draw(st.binary(max_size=3))],
              [b"data", draw(st.binary(max_size=64))]]
    chunks += draw(st.lists(st.tuples(st.binary(min_size=4, max_size=4),
                                      st.binary(max_size=16)).map(list), max_size=2))
    chunks = draw(st.permutations(chunks))
    sizes = [len(body) for _, body in chunks]
    damage = draw(st.sampled_from(["none", "none", "size", "short fmt", "cut", "riff"]))
    if damage == "size":
        sizes[draw(st.integers(0, len(chunks) - 1))] = draw(st.integers(0, 2**32 - 1))
    elif damage == "short fmt":
        fmt_chunk = next(c for c in chunks if c[0] == b"fmt ")
        fmt_chunk[1] = fmt_chunk[1][:draw(st.integers(0, 39 if tag == 0xFFFE else 15))]
        sizes = [len(body) for _, body in chunks]
    blob = b"RIFF\x00\x00\x00\x00WAVE" + b"".join(
        chunk_id + struct.pack("<I", size) + body + b"\x00" * (len(body) & 1)
        for (chunk_id, body), size in zip(chunks, sizes))
    if damage == "cut":
        blob = blob[:draw(st.integers(0, len(blob) - 1))]
    elif damage == "riff":
        blob = draw(st.binary(min_size=12, max_size=12)) + blob[12:]
    return blob


@settings(deadline=None, max_examples=300)  # each example writes and reads a file
@given(wav_files())
def test_read_wav_fuzz_raises_only_declared_errors(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "f.wav"
    path.write_bytes(blob)
    try:
        buf = read_wav(path)
    except (WavFormatError, UnsupportedCodecError, UnsupportedRateError):
        return
    assert audio_io.MIN_RATE_HZ <= buf.sample_rate_hz <= audio_io.MAX_RATE_HZ
    assert np.all(np.abs(buf.samples) <= 1.0)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_refused(self, tmp_path, bad):
        path = tmp_path / "bad.wav"
        with pytest.raises(ValueError, match=f"{path.name}.*non-finite"):
            write_wav(make_buffer([0.1, bad, 0.2]), path)
        assert not path.exists()

    def test_input_samples_unchanged(self, tmp_path, rng):
        samples = rng.uniform(-1.5, 1.5, size=1001)
        buf = make_buffer(samples.copy())
        write_wav(buf, tmp_path / "u.wav")
        assert buf.samples.tobytes() == samples.tobytes()


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


def _resample_poly(x: np.ndarray, source_hz: int, target_hz: int) -> np.ndarray:
    """scipy's resample_poly with resample's filter: the reference output."""
    g = math.gcd(source_hz, target_hz)
    up, down = target_hz // g, source_hz // g
    return resample_poly(x, up, down, window=np.array(audio_io._design_resample_filter(up, down)))


def _output_len(n: int, source_hz: int) -> int:
    return -(-n * 16000 // source_hz)


@pytest.fixture
def reset_threads():
    yield
    parallel.set_threads(None)


@pytest.mark.parametrize("source_hz", [8000, 11025, 22050, 44100, 48000, 96000, 192000])
def test_chunked_resample_is_resample_poly_bit_for_bit(monkeypatch, reset_threads, source_hz):
    # Chunks of at least 50 outputs: every input length whose output is one
    # sample around 2, 3 or 5 whole chunks, so that chunk edges fall at each
    # phase of the filter, on 1, 2, 3 and 5 threads.
    monkeypatch.setattr(audio_io, "MIN_RESAMPLE_CHUNK", 50)
    rng = np.random.default_rng(source_hz)
    targets = {k * 50 + d for k in (2, 3, 5) for d in (-1, 0, 1)}
    lengths = [n for n in range(1, 5 * 50 * source_hz // 16000 + source_hz // 1000)
               if _output_len(n, source_hz) in targets]
    for n in lengths + [3 * source_hz + 7]:
        x = rng.uniform(-1.0, 1.0, n)
        want = _resample_poly(x, source_hz, 16000)
        for count in (1, 2, 3, 5):
            parallel.set_threads(count)
            got = resample(AudioBuffer(x, source_hz), 16000).samples
            assert got.tobytes() == want.tobytes(), (n, count)


def test_resample_splits_a_clip_at_the_default_chunk_size(reset_threads):
    x = np.random.default_rng(5).uniform(-1.0, 1.0, 4 * 48000 + 1)
    want = _resample_poly(x, 48000, 16000)
    assert len(want) > 5 * audio_io.MIN_RESAMPLE_CHUNK
    for count in (2, 5):
        parallel.set_threads(count)
        assert resample(AudioBuffer(x, 48000), 16000).samples.tobytes() == want.tobytes()


class TestAudioBuffer:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros(10), 0)

    @pytest.mark.parametrize("rate", [16000.5, 16000.0, "16000", None])
    def test_rejects_a_rate_that_is_not_an_integer(self, rate):
        with pytest.raises(ValueError, match="must be an integer"):
            AudioBuffer(np.zeros(10), rate)

    def test_accepts_numpy_integer_rates(self):
        assert AudioBuffer(np.zeros(10), np.int64(16000)).duration_s == 10 / 16000

    def test_synthesis_at_a_fractional_rate_is_a_value_error(self):
        # It used to return a buffer that write_wav then failed on with struct.error.
        with pytest.raises(ValueError, match="must be an integer"):
            synth.speech_surrogate(np.random.default_rng(0), 1.0, 16000.5)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((2, 10)), 16000)

    def test_duration(self):
        assert make_buffer(np.zeros(8000)).duration_s == 0.5


class TestRequirePipelineAudio:
    @pytest.mark.parametrize("samples", [
        np.zeros(0),
        np.full(1000, MAX_SAMPLE_MAGNITUDE),  # its sum of squares is past the bound's square
        np.full(3, -MAX_SAMPLE_MAGNITUDE),
        np.r_[np.zeros(99), np.nextafter(MAX_SAMPLE_MAGNITUDE, 0.0)],
    ])
    def test_samples_up_to_the_bound_are_taken(self, samples):
        require_pipeline_audio(make_buffer(samples))

    @pytest.mark.parametrize("peak", [np.nextafter(MAX_SAMPLE_MAGNITUDE, np.inf),
                                      -2 * MAX_SAMPLE_MAGNITUDE, 1e200, -1e300])
    def test_a_sample_past_the_bound_is_refused(self, peak):
        samples = np.zeros(1000)
        samples[500] = peak
        with pytest.raises(ValueError, match="magnitude at most 1e\\+100"):
            require_pipeline_audio(make_buffer(samples))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_beats_the_bound(self, bad):
        samples = np.full(1000, 1e200)
        samples[0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            require_pipeline_audio(make_buffer(samples))
