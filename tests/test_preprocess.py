import itertools

import numpy as np
import pytest

from vadpipe import dsp
from vadpipe.preprocess import (FFT_HOP, FFT_LEN, STAGE_NAMES, NoiseProfile, PreprocessConfig,
                                clip_noise_profile, energy_gate, estimate_noise, keeps_silence,
                                preprocess_rows_scratch, preprocess_segment, rms_normalize,
                                spectral_subtract, subtract_magnitude)

from conftest import make_buffer, sine
import oracle


def stft_of_magnitudes(mags_per_frame):
    """Build an Stft whose frames have the given magnitudes (zero phase)."""
    frames = np.asarray(mags_per_frame, dtype=np.float64).astype(complex)
    fft_len = 2 * (frames.shape[1] - 1)
    return dsp.Stft(frames, fft_len, fft_len // 4)


class TestEstimateNoise:
    def test_zero_signal_zero_profile(self):
        spec = dsp.stft(make_buffer(np.zeros(3200)))
        profile = estimate_noise(spec, 4)
        assert np.all(profile.magnitude_spectrum == 0.0)

    def test_constant_magnitude(self):
        spec = stft_of_magnitudes(np.full((5, 257), 3.5))
        assert np.allclose(estimate_noise(spec, 3).magnitude_spectrum, 3.5)

    def test_mean_of_two_frames(self):
        spec = stft_of_magnitudes([np.full(257, 1.0), np.full(257, 3.0)])
        assert np.allclose(estimate_noise(spec, 2).magnitude_spectrum, 2.0)

    def test_k_larger_than_frames(self):
        spec = stft_of_magnitudes(np.ones((2, 257)))
        with pytest.raises(ValueError):
            estimate_noise(spec, 3)

    def test_k_zero(self):
        spec = stft_of_magnitudes(np.ones((2, 257)))
        with pytest.raises(ValueError):
            estimate_noise(spec, 0)


class TestSubtractMagnitude:
    def test_hand_value_subtraction_branch(self):
        assert subtract_magnitude(5.0, 1.0, 2.0, 0.1) == 3.0

    def test_hand_value_floor_branch(self):
        assert subtract_magnitude(1.0, 2.0, 1.0, 0.5) == 0.5

    def test_floor_is_hard_lower_bound(self, rng):
        for _ in range(50):
            x = rng.uniform(0, 5, size=257)
            noise = rng.uniform(0, 2, size=257)
            alpha = rng.uniform(1, 3)
            beta = rng.uniform(0, 1)
            out = subtract_magnitude(x, alpha, noise, beta)
            assert np.all(out >= beta * noise - 1e-15)

    def test_alpha0_beta1_keeps_values_above_noise(self, rng):
        # max(x, n): unchanged exactly when x >= n
        x = rng.uniform(0, 2, size=100)
        noise = rng.uniform(0, 2, size=100)
        out = subtract_magnitude(x, 0.0, noise, 1.0)
        above = x >= noise
        assert np.array_equal(out[above], x[above])
        assert np.array_equal(out[~above], noise[~above])


class TestSpectralSubtract:
    def test_zero_profile_is_identity(self, rng):
        samples = rng.standard_normal(3200) * 0.2
        cfg = PreprocessConfig()
        out = spectral_subtract(make_buffer(samples), cfg,
                                noise=NoiseProfile(np.zeros(257)))
        err = np.abs(out.samples - samples)[512:-512]
        assert err.max() <= 1e-6

    def test_self_estimate_from_leading_silence_is_identity(self, rng):
        samples = np.concatenate([np.zeros(1280), rng.standard_normal(1920) * 0.2])
        out = spectral_subtract(make_buffer(samples), PreprocessConfig())
        err = np.abs(out.samples - samples)[512:-512]
        assert err.max() <= 1e-6

    def test_length_preserved(self, rng):
        buf = make_buffer(rng.standard_normal(3000) * 0.1)
        assert len(spectral_subtract(buf, PreprocessConfig())) == 3000

    def test_removes_stationary_noise_energy(self, rng):
        noise = rng.standard_normal(16000) * 0.1
        out = spectral_subtract(make_buffer(noise), PreprocessConfig())
        assert np.mean(out.samples ** 2) < 0.5 * np.mean(noise ** 2)

    @staticmethod
    def whole_grid_reference(samples, cfg, noise):
        """The whole reflect-padded grid through the public STFT pair, the
        path before frames inside the padding were skipped, with the masked
        divide for every block: (output, the mask of its zero bins)."""
        n = len(samples)
        pad = min(FFT_LEN, n - 1)
        padded = np.pad(samples, pad, mode="reflect") if pad else samples
        spec = dsp.stft(make_buffer(padded), FFT_LEN, FFT_HOP).frames
        mag = np.abs(spec)
        clean = subtract_magnitude(mag, cfg.alpha, noise.magnitude_spectrum, cfg.beta)
        zero = mag == 0.0
        spec *= np.divide(clean, mag, out=mag, where=~zero)
        np.copyto(spec, clean, where=zero)
        return dsp.istft_rows(spec, FFT_LEN, FFT_HOP, len(padded))[pad:pad + n], zero

    @pytest.mark.parametrize("n", [3200, 3000, 700, 513, 512, 100, 2, 1])
    def test_skipped_padding_frames_change_nothing(self, rng, n, monkeypatch):
        samples = rng.standard_normal(n) * 0.2
        cfg = PreprocessConfig()
        noise = clip_noise_profile(make_buffer(rng.standard_normal(4000) * 0.1), cfg)
        want, zero = self.whole_grid_reference(samples, cfg, noise)

        transformed = []
        rfft_frames = dsp.rfft_frames
        monkeypatch.setattr(dsp, "rfft_frames", lambda frames, *a, **k: (
            transformed.append(frames.shape[-2]) or rfft_frames(frames, *a, **k)))
        got = spectral_subtract(make_buffer(samples), cfg, noise=noise).samples
        assert np.array_equal(got, want)
        if n == 3200:  # 30 frames on the padded grid, the first and last all padding
            assert zero.shape[0] == 30 and transformed == [28]

    def test_rows_with_zero_bins_keep_the_masked_formula(self, rng):
        # A silent stretch gives frames whose bins are all exactly zero; they
        # become the real value clean, and every other bin keeps its phase.
        cfg = PreprocessConfig()
        noise = clip_noise_profile(make_buffer(rng.standard_normal(4000) * 0.1), cfg)
        rows = np.zeros((3, 3200))
        rows[0, 1600:] = rng.standard_normal(1600) * 0.2
        rows[2] = rng.standard_normal(3200) * 0.2
        # copied: spectral_subtract below reuses the scratch store
        got = preprocess_rows_scratch(rows, PreprocessConfig(stages=("spectral_subtract",)),
                                      noise).copy()
        for row, out in zip(rows, got):
            want, _ = self.whole_grid_reference(row, cfg, noise)
            assert out.tobytes() == want.tobytes()
            alone = spectral_subtract(make_buffer(row), cfg, noise=noise).samples
            assert alone.tobytes() == want.tobytes()
        assert [self.whole_grid_reference(row, cfg, noise)[1].any() for row in rows] == [
            True, True, False]
        assert np.all(got[1] != 0.0)   # silence in, the spectral floor out

    @staticmethod
    def rows_with_silence(rng):
        """Segments holding silent frames of the padded grid: a stretch of
        +0.0 and one of -0.0, each with a lone nonzero sample that the frames
        over it hold inside, away from their ends; a segment of -0.0 samples;
        and one of noise alone."""
        rows = rng.standard_normal((4, 3200)) * 0.2
        rows[0, 300:2500] = 0.0
        rows[1, 700:3200] = -0.0
        rows[:2, 1400] = 0.01
        rows[2] = -0.0
        return rows

    @staticmethod
    def stft_pair(row):
        """tests/oracle.py's STFT and inverse over the reflect-padded row: the
        subtraction with a gain of 1."""
        n = len(row)
        pad = min(FFT_LEN, n - 1)
        padded = np.pad(row, pad, mode="reflect") if pad else row
        spec = oracle.stft(padded, FFT_LEN, FFT_HOP)
        return oracle.istft(spec, FFT_LEN, FFT_HOP, len(padded))[pad:pad + n]

    @staticmethod
    def count_transformed(monkeypatch) -> list:
        transformed = []
        rfft_frames = dsp.rfft_frames
        monkeypatch.setattr(dsp, "rfft_frames", lambda frames, *a, **k: (
            transformed.append(frames.shape[:-1]) or rfft_frames(frames, *a, **k)))
        return transformed

    def test_zero_profile_skips_the_gain_and_the_silent_frames(self, rng, monkeypatch):
        # With |N| = 0 the gain is exactly 1, and a frame of zeros gives
        # zeros: the output has the bits of the full formula, and of the
        # oracle's STFT pair, while only the frames with a nonzero sample are
        # transformed.
        rows = self.rows_with_silence(rng)
        cfg = PreprocessConfig()
        noise = NoiseProfile(np.zeros(257))
        assert noise.zero
        transformed = self.count_transformed(monkeypatch)
        got = preprocess_rows_scratch(rows, PreprocessConfig(stages=("spectral_subtract",)),
                                      noise).copy()
        # the 28 kept frames of each row's padded grid, less the silent ones
        kept = dsp.frame_view(np.pad(rows, ((0, 0), (512, 512)), mode="reflect")[:, 128:-128],
                              FFT_LEN, FFT_HOP)
        silent = ~kept.any(axis=-1)
        assert kept.shape[1] == 28 and list(silent.sum(axis=1)) == [9, 15, 28, 0]
        assert transformed == [(int((~silent).sum()),)]
        for row, out in zip(rows, got):
            want, _ = self.whole_grid_reference(row, cfg, noise)
            assert out.tobytes() == want.tobytes() == self.stft_pair(row).tobytes()
            alone = spectral_subtract(make_buffer(row), cfg, noise=noise).samples
            assert alone.tobytes() == want.tobytes()
            near = oracle.spectral_subtract(row, cfg, np.zeros(257))
            assert np.allclose(out, near, rtol=0, atol=1e-15)
        assert got[2].tobytes() == np.zeros(3200).tobytes()   # -0.0 in, +0.0 out

    def test_zero_profile_chain_has_the_full_paths_bits(self, rng):
        rows = self.rows_with_silence(rng)
        cfg = PreprocessConfig()
        noise = NoiseProfile(np.zeros(257))
        got = preprocess_rows_scratch(rows, cfg, noise).copy()
        for row, out in zip(rows, got):
            subtracted, _ = self.whole_grid_reference(row, cfg, noise)
            want = rms_normalize(energy_gate(make_buffer(subtracted), cfg), cfg.target_rms)
            assert out.tobytes() == want.samples.tobytes()
            alone = preprocess_segment(make_buffer(row), cfg, noise)
            assert alone.samples.tobytes() == want.samples.tobytes()

    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_a_nonzero_profile_takes_the_full_path(self, rng, monkeypatch, beta):
        # One nonzero bin is enough, beta = 0 included: beta * |N| is then 0
        # in every bin, but alpha * |N| is not, and the gain is not 1.
        mags = np.zeros(257)
        mags[40] = 0.05
        noise = NoiseProfile(mags)
        assert not noise.zero
        rows = self.rows_with_silence(rng)
        cfg = PreprocessConfig(beta=beta)
        transformed = self.count_transformed(monkeypatch)
        got = preprocess_rows_scratch(rows, PreprocessConfig(beta=beta,
                                                             stages=("spectral_subtract",)),
                                      noise).copy()
        assert transformed == [(4, 28)]
        for row, out in zip(rows, got):
            want, _ = self.whole_grid_reference(row, cfg, noise)
            assert out.tobytes() == want.tobytes()
            if row.any():
                assert out.tobytes() != self.stft_pair(row).tobytes()

    @pytest.mark.parametrize("n", [300, 700, 1152, 3200])
    def test_self_estimate_reads_only_the_lead_in(self, rng, n, monkeypatch):
        # The default lead-in is (6 - 1) * 128 + 512 = 1152 samples.
        cfg = PreprocessConfig()
        buf = make_buffer(rng.standard_normal(n) * 0.2)
        whole = dsp.stft(buf, FFT_LEN, FFT_HOP)
        want = spectral_subtract(
            buf, cfg, noise=estimate_noise(whole, min(cfg.noise_frames, whole.num_frames)))

        transformed = []
        rfft_frames = dsp.rfft_frames
        monkeypatch.setattr(dsp, "rfft_frames", lambda frames, *a, **k: (
            transformed.append(frames.shape[-2]) or rfft_frames(frames, *a, **k)))
        got = spectral_subtract(buf, cfg)
        assert np.array_equal(got.samples, want.samples)
        assert transformed[0] == min(cfg.noise_frames, whole.num_frames)

    def test_clip_noise_profile_matches_leading_frames(self, rng):
        buf = make_buffer(rng.standard_normal(16000) * 0.1)
        cfg = PreprocessConfig()
        profile = clip_noise_profile(buf, cfg)
        spec = dsp.stft(buf, FFT_LEN, FFT_HOP)
        expected = estimate_noise(spec, cfg.noise_frames)
        assert np.array_equal(profile.magnitude_spectrum, expected.magnitude_spectrum)


class TestEnergyGate:
    def test_theta_zero_identity(self, rng):
        samples = rng.standard_normal(4000) * 0.3
        cfg = PreprocessConfig(theta=0.0, theta_relative=False)
        out = energy_gate(make_buffer(samples), cfg)
        assert np.max(np.abs(out.samples - samples)) <= 1e-9

    def test_theta_above_total_energy_zeroes_everything(self, rng):
        samples = rng.standard_normal(4000) * 0.3
        total = float(np.sum(samples ** 2))
        cfg = PreprocessConfig(theta=total + 1.0, theta_relative=False)
        out = energy_gate(make_buffer(samples), cfg)
        assert np.all(out.samples == 0.0)

    def test_silence_then_burst_hand_computed(self):
        # 800 silent samples then an 800-sample full-scale square wave
        samples = np.concatenate([np.zeros(800), np.where(np.arange(800) % 2 == 0, 1.0, -1.0)])
        buf = make_buffer(samples)
        grid = dsp.frame_signal(buf, 400, 160)
        energies = np.array([np.sum(f ** 2) for f in grid.frames])  # independent oracle
        theta = 10.0  # between silent-frame energy (0) and any burst-touching frame
        cfg = PreprocessConfig(theta=theta, theta_relative=False)
        out = energy_gate(buf, cfg)
        kept = energies >= theta
        # samples covered only by zeroed frames must be silent
        coverage = np.zeros(1600, dtype=bool)
        for m in np.flatnonzero(kept):
            coverage[m * 160:m * 160 + 400] = True
        assert np.all(out.samples[~coverage] == 0.0)
        # samples covered only by kept frames are preserved exactly
        only_kept = coverage.copy()
        for m in np.flatnonzero(~kept):
            only_kept[m * 160:m * 160 + 400] = False
        assert np.max(np.abs(out.samples[only_kept] - samples[only_kept])) <= 1e-9

    @pytest.mark.parametrize("theta,relative", [
        (0.1, True),        # default-style relative threshold
        (1e-6, False),      # tiny absolute: everything interesting passes
        (1e9, False),       # everything zeroed
    ])
    def test_idempotent(self, rng, theta, relative):
        samples = np.concatenate([np.zeros(2000),
                                  rng.standard_normal(2000) * 0.5,
                                  np.zeros(1000)])
        cfg = PreprocessConfig(theta=theta, theta_relative=relative)
        once = energy_gate(make_buffer(samples), cfg)
        twice = energy_gate(once, cfg)
        assert np.max(np.abs(twice.samples - once.samples)) <= 1e-9

    @pytest.mark.parametrize("theta,relative", [(0.1, True), (0.5, True), (5.0, False)])
    def test_gating_some_frames_matches_the_oracle(self, rng, theta, relative):
        # tests/oracle.py zeroes the gated frames, then weights every frame
        samples = np.concatenate([rng.standard_normal(1500) * 0.02,
                                  rng.standard_normal(2000) * 0.5,
                                  np.zeros(700), rng.standard_normal(1000) * 0.3])
        cfg = PreprocessConfig(theta=theta, theta_relative=relative)
        frames = oracle.frames_of(samples, 400, 160)
        energies = np.sum(frames ** 2, axis=1)
        kept = energies >= (theta * energies.mean() if relative else theta)
        assert 0 < kept.sum() < len(kept)
        want = oracle.energy_gate(samples, cfg)
        got = energy_gate(make_buffer(samples), cfg).samples
        assert got.tobytes() == want.tobytes()
        rows = np.stack([samples, samples[::-1]])
        got_rows = preprocess_rows_scratch(
            rows, PreprocessConfig(theta=theta, theta_relative=relative, stages=("energy_gate",)),
            None)
        assert got_rows[0].tobytes() == want.tobytes()
        assert got_rows[1].tobytes() == oracle.energy_gate(rows[1], cfg).tobytes()

    def test_idempotent_on_stationary_noise_default_config(self, rng):
        cfg = PreprocessConfig()
        once = energy_gate(make_buffer(rng.standard_normal(4000) * 0.2), cfg)
        twice = energy_gate(once, cfg)
        assert np.max(np.abs(twice.samples - once.samples)) <= 1e-9

    def test_length_preserved(self, rng):
        buf = make_buffer(rng.standard_normal(3333) * 0.1)
        assert len(energy_gate(buf, PreprocessConfig())) == 3333


class TestRmsNormalize:
    def test_constant_signal(self):
        out = rms_normalize(make_buffer(np.full(1000, 0.5)), 0.1)
        assert np.allclose(out.samples, 0.1)

    def test_full_scale_sine_peak(self):
        buf = sine(440, 0.5, amplitude=1.0)
        out = rms_normalize(buf, 0.1)
        assert np.max(np.abs(out.samples)) == pytest.approx(0.1 * np.sqrt(2), rel=1e-3)

    def test_output_rms_hits_target(self, rng):
        for _ in range(20):
            buf = make_buffer(rng.standard_normal(2000) * rng.uniform(0.01, 0.5))
            out = rms_normalize(buf, 0.05)  # low target: no clipping possible
            rms = np.sqrt(np.mean(out.samples ** 2))
            assert rms == pytest.approx(0.05, abs=1e-6)

    def test_clipping_branch_vs_clean_branch(self, rng):
        # noise peaks ~4x rms: scaling to 0.9 clips, so post-clamp rms < 0.9
        noisy = rng.standard_normal(4000)
        noisy *= 0.05 / np.sqrt(np.mean(noisy ** 2))
        clipped = rms_normalize(make_buffer(noisy), 0.9)
        assert np.sqrt(np.mean(clipped.samples ** 2)) < 0.9 - 1e-3
        assert np.max(np.abs(clipped.samples)) == 1.0
        # constant at rms 0.05 scales to 0.9 exactly without clipping
        flat = rms_normalize(make_buffer(np.full(4000, 0.05)), 0.9)
        assert np.sqrt(np.mean(flat.samples ** 2)) == pytest.approx(0.9, abs=1e-6)

    def test_scale_invariance(self, rng):
        x = rng.standard_normal(1500) * 0.1
        a = rms_normalize(make_buffer(x), 0.05)
        b = rms_normalize(make_buffer(7.3 * x), 0.05)
        assert np.max(np.abs(a.samples - b.samples)) <= 1e-9

    def test_silent_passthrough(self):
        buf = make_buffer(np.zeros(100))
        out = rms_normalize(buf, 0.1)
        assert np.all(out.samples == 0.0)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            rms_normalize(make_buffer([0.1]), 0.0)


class TestPreprocessSegment:
    def test_all_stages_disabled_is_identity(self, rng):
        samples = rng.standard_normal(3200) * 0.2
        cfg = PreprocessConfig(stages=())
        out = preprocess_segment(make_buffer(samples), cfg)
        assert np.array_equal(out.samples, samples)

    def test_silence_in_silence_out(self):
        out = preprocess_segment(make_buffer(np.zeros(3200)), PreprocessConfig())
        assert np.all(out.samples == 0.0)

    @pytest.mark.parametrize("stages", list(itertools.permutations(STAGE_NAMES)) + [
        ("energy_gate", "rms_normalize"), ("rms_normalize",), ()])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_silence_stays_silent_exactly_when_the_floor_is_zero(self, stages, zero):
        # run_pipeline gives a row of zeros the value +0.0 unscored only
        # where keeps_silence says the chain maps it to zeros
        silence = make_buffer(np.full(3200, zero))
        kept = []
        for beta in (0.0, 0.3):
            for mags in (np.zeros(257), np.linspace(0.001, 0.05, 257)):
                cfg = PreprocessConfig(beta=beta, stages=stages)
                noise = NoiseProfile(mags)
                out = preprocess_segment(silence, cfg, noise)
                kept.append(keeps_silence(cfg, noise))
                assert out.samples.any() != kept[-1], (beta, mags[0])
        assert all(kept) == ("spectral_subtract" not in stages)

    def test_a_nonzero_floor_lifts_silence(self):
        silence = make_buffer(np.zeros(3200))
        noise = NoiseProfile(np.linspace(0.001, 0.05, 257))
        floor = np.abs(spectral_subtract(silence, PreprocessConfig(), noise).samples).max()
        assert 0.0 < floor < 1e-5
        out = preprocess_segment(silence, PreprocessConfig(), noise)
        assert np.sqrt(np.mean(out.samples ** 2)) == pytest.approx(0.1)

    def test_length_preserved_through_chain(self, rng):
        buf = make_buffer(rng.standard_normal(3200) * 0.1)
        assert len(preprocess_segment(buf, PreprocessConfig())) == 3200

    def test_empty_segment_rejected(self):
        import numpy as np
        from vadpipe.audio_io import AudioBuffer
        with pytest.raises(ValueError):
            preprocess_segment(AudioBuffer(np.zeros(0), 16000), PreprocessConfig())

    def test_burst_to_noise_energy_ratio_improves(self, rng):
        # white noise everywhere, tone burst in the middle third
        n = 4800
        noise = rng.standard_normal(n) * 0.05
        burst = np.zeros(n)
        t = np.arange(n) / 16000
        third = n // 3
        burst[third:2 * third] = 0.3 * np.sin(2 * np.pi * 220 * t[third:2 * third])
        mixed = make_buffer(noise + burst)
        out = preprocess_segment(mixed, PreprocessConfig())

        def ratio(x):
            b = np.sum(x[third:2 * third] ** 2)
            q = np.sum(x[:third] ** 2) + np.sum(x[2 * third:] ** 2)
            return b / q

        assert ratio(out.samples) > ratio(mixed.samples)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            PreprocessConfig(stages=("spectral_subtract", "reverb"))


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.5}, {"beta": -0.1}, {"beta": 1.5},
        {"theta": -1.0}, {"target_rms": 0.0}, {"noise_frames": 0},
        {"alpha": float("nan")}, {"alpha": float("inf")}, {"beta": float("nan")},
        {"theta": float("nan")}, {"theta": float("inf")},
        {"target_rms": float("nan")}, {"target_rms": float("inf")},
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            PreprocessConfig(**kwargs)
