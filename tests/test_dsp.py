import numpy as np
import pytest

from vadpipe import dsp
from vadpipe.audio_io import AudioBuffer

from conftest import make_buffer
import oracle


class TestFrameSignal:
    def test_single_exact_frame(self):
        grid = dsp.frame_signal(make_buffer(np.ones(400)), 400, 160)
        assert grid.num_frames == 1

    def test_two_frames_no_overlap(self):
        grid = dsp.frame_signal(make_buffer(np.ones(800)), 400, 400)
        assert grid.num_frames == 2

    def test_hand_counted_overlap(self):
        # 1 + ceil((720-400)/160) = 3; the last frame ends exactly at 720
        grid = dsp.frame_signal(make_buffer(np.arange(720) / 720.0), 400, 160)
        assert grid.num_frames == 3
        assert np.array_equal(grid.frames[2], np.arange(320, 720) / 720.0)

    def test_tail_zero_padding(self):
        # len 640: 3 frames, last one covers [320, 720) so 80 padded zeros
        grid = dsp.frame_signal(make_buffer(np.ones(640)), 400, 160)
        assert grid.num_frames == 3
        assert np.all(grid.frames[2][:320] == 1.0)
        assert np.all(grid.frames[2][320:] == 0.0)

    def test_short_buffer_pads_to_one_frame(self):
        grid = dsp.frame_signal(make_buffer([1.0, 2.0]), 8, 4)
        assert grid.num_frames == 1
        assert np.array_equal(grid.frames[0], [1, 2, 0, 0, 0, 0, 0, 0])

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            dsp.frame_signal(AudioBuffer(np.zeros(0), 16000), 400, 160)

    def test_count_formula_randomized(self, rng):
        for _ in range(200):
            frame_len = int(rng.integers(2, 300))
            hop = int(rng.integers(1, frame_len + 1))
            length = int(rng.integers(frame_len, 3000))
            grid = dsp.frame_signal(make_buffer(np.zeros(length)), frame_len, hop)
            expected = 1 + -(-(length - frame_len) // hop)
            assert grid.num_frames == expected
            # every frame starts at m*hop
            assert (grid.num_frames - 1) * hop < length


class TestStftIstft:
    def test_zero_in_zero_out(self):
        spec = dsp.stft(make_buffer(np.zeros(2048)))
        assert np.all(spec.frames == 0)

    @pytest.mark.parametrize("make", [
        lambda rng: np.zeros(5000),
        lambda rng: np.sin(2 * np.pi * 440 * np.arange(5000) / 16000),
        lambda rng: rng.standard_normal(5000) * 0.3,
    ])
    def test_round_trip(self, make, rng):
        samples = make(rng)
        buf = make_buffer(samples)
        out = dsp.istft(dsp.stft(buf), len(buf))
        err = np.abs(out.samples - samples)[512:-512]
        assert err.max() <= 1e-9

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            dsp.stft(make_buffer(np.zeros(1000)), fft_len=500, hop=125)

    def test_rejects_non_dividing_hop(self):
        with pytest.raises(ValueError):
            dsp.stft(make_buffer(np.zeros(1000)), fft_len=512, hop=100)

    def test_istft_pads_or_trims_to_out_len(self, rng):
        buf = make_buffer(rng.standard_normal(3000) * 0.1)
        spec = dsp.stft(buf)
        assert len(dsp.istft(spec, 2500)) == 2500
        assert len(dsp.istft(spec, 5000)) == 5000

    def test_vanishing_window_energy_gives_zero(self, rng):
        # periodic hann at 4096 points: w[1]**2 ~ 3.5e-13 is under the floor,
        # so sample 1 of a modified spectrum must not be divided by it
        spectra = rng.standard_normal((3, 2049)) + 1j * rng.standard_normal((3, 2049))
        out = dsp.istft(dsp.Stft(spectra, 4096, 1024), 6144).samples
        assert out[0] == 0.0 and out[1] == 0.0


class TestOverlapAdd:
    def test_identity_pass_through(self, rng):
        samples = rng.standard_normal(2000) * 0.4
        grid = dsp.frame_signal(make_buffer(samples), 400, 160)
        out = dsp.overlap_add(grid.frames, 160, 2000)
        assert np.max(np.abs(out.samples - samples)) <= 1e-9

    def test_zero_frames_zero_output(self):
        out = dsp.overlap_add(np.zeros((5, 400)), 160, 1000)
        assert np.all(out.samples == 0.0)

    def test_single_frame_copied_verbatim(self, rng):
        frame = rng.standard_normal(400) * 0.2
        out = dsp.overlap_add(frame[None, :], 400, 400)
        assert np.max(np.abs(out.samples - frame)) <= 1e-9

    @pytest.mark.parametrize("frame_len,hop", [(400, 160), (512, 128), (400, 400), (7, 3)])
    def test_bit_identical_to_frame_loop(self, rng, frame_len, hop):
        # the shifted-add sum keeps the frame-by-frame loop's order per sample
        frames = rng.standard_normal((9, frame_len))
        want = oracle.overlap_add(frames, hop, 8 * hop + frame_len + 5)
        got = dsp.overlap_add(frames, hop, 8 * hop + frame_len + 5).samples
        assert np.array_equal(got, want)
        batch = dsp.overlap_add_rows(np.stack([frames, 2.0 * frames]), hop, len(want))
        assert np.array_equal(batch[0], want)

    def test_istft_bit_identical_to_frame_loop(self, rng):
        spectra = rng.standard_normal((12, 257)) + 1j * rng.standard_normal((12, 257))
        want = oracle.istft(spectra, 512, 128, 2000)
        assert np.array_equal(dsp.istft(dsp.Stft(spectra, 512, 128), 2000).samples,
                              want)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            dsp.overlap_add(np.zeros(400), 160, 400)
