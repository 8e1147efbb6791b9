import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from vadpipe import dsp, postprocess
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


def assert_same_view(got, x, frame_len, hop):
    want = sliding_window_view(x, frame_len, axis=-1)[..., ::hop, :]
    assert got.shape == want.shape and got.strides == want.strides
    assert np.array_equal(got, want)
    assert not got.flags.writeable and not want.flags.writeable
    assert np.shares_memory(got, x)


@pytest.mark.parametrize("shape,frame_len,hop,cut", [
    ((1000,), 512, 128, None),
    ((3, 1000), 400, 160, None),
    ((2, 1300), 512, 128, (37, 1061)),   # a column slice, as preprocess frames one
    ((2, 3, 700), 256, 64, None),
    ((512,), 512, 128, None),
])
def test_frame_view_is_sliding_window_view(rng, shape, frame_len, hop, cut):
    x = rng.standard_normal(shape)
    if cut is not None:
        x = x[..., cut[0]:cut[1]]
    assert_same_view(dsp.frame_view(x, frame_len, hop), x, frame_len, hop)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 40])
def test_vote_windows_are_sliding_window_views(rng, count):
    # T < W = 4 votes once over all T values (the short-clip vote)
    w, _ = postprocess._window_and_quorum(count, postprocess.VoteConfig(4))
    values = rng.standard_normal(count)
    assert_same_view(dsp.frame_view(values, w, 1), values, w, 1)


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
        # the batched primitive over crossfade-weighted rows, as overlap_add calls it
        rows = np.stack([frames, 2.0 * frames])
        batch = dsp.weighted_overlap_add(rows * dsp.crossfade_window(frame_len), hop,
                                         len(want), "crossfade")
        assert [row.tobytes() for row in batch] == [
            oracle.overlap_add(row, hop, len(want)).tobytes() for row in rows]

    def test_istft_bit_identical_to_frame_loop(self, rng):
        spectra = rng.standard_normal((12, 257)) + 1j * rng.standard_normal((12, 257))
        want = oracle.istft(spectra, 512, 128, 2000)
        assert np.array_equal(dsp.istft(dsp.Stft(spectra, 512, 128), 2000).samples,
                              want)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            dsp.overlap_add(np.zeros(400), 160, 400)

    @pytest.mark.parametrize("hop,out_len", [(0, 400), (-2, 400), (160, -1)])
    def test_rejects_bad_hop_or_length(self, hop, out_len):
        # hop 0 used to divide by zero, and out_len -1 to cut one sample off the end
        with pytest.raises(ValueError, match="need hop >= 1 and out_len >= 0"):
            dsp.overlap_add(np.ones((3, 400)), hop, out_len)

    def test_istft_rejects_negative_length(self):
        with pytest.raises(ValueError, match="need hop >= 1 and out_len >= 0"):
            dsp.istft(dsp.stft(make_buffer(np.ones(1000))), -5)


@pytest.mark.parametrize("weights", ["crossfade", "hann"])
@pytest.mark.parametrize("frame_len,hop", [(400, 160), (512, 128), (7, 3), (8, 3), (5, 5)])
@pytest.mark.parametrize("num", [1, 2, 9])
@pytest.mark.parametrize("extra", [-4, 0, 6])
def test_weighted_overlap_add_is_the_frame_loop_bit_for_bit(rng, weights, frame_len, hop,
                                                            num, extra):
    # The accumulator is not zero-filled: the first piece to land is written as
    # piece + 0.0, so a frame of -0.0 must still come out as the loop's +0.0,
    # and the samples that piece leaves uncovered must be zeroed, here in a
    # scratch buffer that starts out dirty.
    rows = rng.standard_normal((3, num, frame_len))
    rows[0, ::2] = -0.0
    rows[1][rng.random((num, frame_len)) < 0.3] = -0.0
    rows[2] = -0.0
    den_win = (oracle.crossfade(frame_len) if weights == "crossfade"
               else oracle.hann(frame_len) ** 2)
    out_len = (num - 1) * hop + frame_len + extra
    want = [oracle.weighted_overlap_add(row, den_win, hop, out_len) for row in rows]
    dsp.scratch("test.wola", (1 << 14,)).fill(np.nan)
    for key in (None, "test.wola"):
        got = dsp.weighted_overlap_add(rows, hop, out_len, weights, key)
        assert got.shape == (3, out_len)
        assert [row.tobytes() for row in got] == [w.tobytes() for w in want]
        alone = dsp.weighted_overlap_add(rows[1], hop, out_len, weights, key)
        assert alone.tobytes() == want[1].tobytes()


class TestRfftFrames:
    @pytest.mark.parametrize("frame_len,fft_len", [(400, 512), (512, 512), (640, 1024)])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_same_bits_as_rfft_padding_itself(self, rng, frame_len, fft_len, lead):
        # Pinned to rfft padding the frames itself, with n=fft_len.
        rows = rng.standard_normal(lead + (4000,))
        frames = dsp.frame_rows(rows, frame_len, 160)
        win = np.hanning(frame_len)
        want = np.fft.rfft(frames * win, n=fft_len, axis=-1)
        # the scratch buffer the frames are windowed into starts out dirty
        dsp.scratch("rfft_frames.windowed", (2 * want.size,)).fill(np.nan)
        got = dsp.rfft_frames(frames, fft_len, win)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert dsp.rfft_frames(frames, fft_len, win, key="test.spectra").tobytes() == want.tobytes()


class TestSilentFrames:
    @pytest.mark.parametrize("density", [0.0, 0.001, 0.02, 0.5, 1.0])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_marks_exactly_the_frames_of_zeros(self, rng, density, zero):
        x = np.where(rng.random((3, 4000)) < density, rng.standard_normal((3, 4000)), zero)
        frames = dsp.frame_view(x, 400, 160)
        want = ~frames.any(axis=-1)
        got = dsp.silent_frames(frames)
        assert (got is None) == (not want.any())
        assert got is None or (got.shape == want.shape and np.array_equal(got, want))

    def test_a_lone_interior_sample_keeps_its_frames(self):
        # the frames holding sample 500 start and end on a zero
        x = np.zeros(2000)
        x[500] = 1e-300
        frames = dsp.frame_view(x, 400, 160)
        assert np.array_equal(dsp.silent_frames(frames), ~frames.any(axis=-1))
        assert not dsp.silent_frames(frames)[1:4].any()
        x[[0, 1999]] = 1.0
        assert dsp.silent_frames(dsp.frame_view(x[:900], 400, 160)) is None

    @pytest.mark.parametrize("density", [0.0, 0.001, 0.5])
    def test_rows_of_segments(self, rng, density):
        # run_pipeline's (T, n) rows: ±0.0 rows, and rows whose first and
        # last samples are zero though others are not (dense candidates)
        rows = np.where(rng.random((12, 3200)) < density, rng.standard_normal((12, 3200)), 0.0)
        rows[[1, 5]] = 0.0
        rows[[2, 9]] = -0.0
        rows[[3, 7]] = 1.0
        rows[[3, 7], 0] = rows[[3, 7], -1] = -0.0
        got = dsp.silent_frames(rows)
        assert np.array_equal(got, ~rows.any(axis=-1))
        assert got[[1, 2, 5, 9]].all() and not got[[3, 7]].any()
        rows[:, 0] = 1e-300
        assert dsp.silent_frames(rows) is None


class TestSpread:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_marked_entries_are_plus_zero_and_the_rest_keep_their_order(self, rng, dtype):
        silent = np.zeros((2, 7), bool)
        silent[0, [0, 3]] = silent[1, 6] = True
        compact = (rng.standard_normal((11, 5)) + 1).astype(dtype)
        # the buffers it may write to start out dirty with -0.0
        dsp.scratch("test.spread", (2 * silent.size * 5,), dtype).fill(-0.0)
        for key in (None, "test.spread"):
            out = dsp.spread(compact, silent, key)
            assert out.shape == (2, 7, 5) and out.dtype == dtype
            assert out[~silent].tobytes() == compact.tobytes()
            plus_zero = np.zeros((3, 5), dtype)
            assert out[silent].tobytes() == plus_zero.tobytes()

    def test_values_of_rows(self):
        silent = np.array([True, False, True, False])
        out = dsp.spread(np.array([2.0, -3.0]), silent)
        assert out.tobytes() == np.array([0.0, 2.0, 0.0, -3.0]).tobytes()
        assert dsp.spread(np.empty(0), np.ones(3, bool)).tobytes() == np.zeros(3).tobytes()

    def test_no_mask_returns_the_input_itself(self, rng):
        compact = rng.standard_normal((4, 3))
        assert dsp.spread(compact, None) is compact
        assert dsp.spread(compact, None, "test.spread") is compact

    def test_with_a_key_the_result_lands_in_scratch(self, rng):
        silent = np.array([False, True, False])
        out = dsp.spread(rng.standard_normal((2, 4)), silent, "test.spread_key")
        assert np.shares_memory(out, dsp.scratch("test.spread_key", (3, 4)))
        assert not np.shares_memory(dsp.spread(out[::2].copy(), silent),
                                    dsp.scratch("test.spread_key", (3, 4)))


def test_istft_rows_zero_frames_are_the_transform_of_zeros(rng):
    # A frame of zero bins, -0.0 ones included, overlap-adds as +0.0 with
    # no irfft: the same bits as transforming it.
    spectra = rng.standard_normal((2, 12, 257)) + 1j * rng.standard_normal((2, 12, 257))
    zero = np.zeros((2, 12), bool)
    zero[0, 3:7] = zero[1, :2] = zero[1, -1] = True
    spectra[zero] = complex(-0.0, -0.0)
    spectra[0, 4, ::2] = 0.0
    want = dsp.istft_rows(spectra, 512, 128, 2000)
    got = dsp.istft_rows(spectra[~zero], 512, 128, 2000, zero=zero)
    assert got.tobytes() == want.tobytes()
