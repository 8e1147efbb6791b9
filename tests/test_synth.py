import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from vadpipe.audio_io import AudioBuffer, read_wav
from vadpipe.synth import (LABELS, MIN_DURATION_S, Manifest, ManifestEntry, babble_noise,
                           generate_corpus, make_noise, measured_snr_db,
                           mix_at_snr, mix_at_snr_with_stems, pink_noise,
                           read_manifest, speech_surrogate, white_noise,
                           write_manifest)

from conftest import make_buffer


def equal_power_pair(rng, n=8000):
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    a *= 0.1 / np.sqrt(np.mean(a ** 2))
    b *= 0.1 / np.sqrt(np.mean(b ** 2))
    return make_buffer(a), make_buffer(b)


class TestMixAtSnr:
    def test_equal_power_at_0db_means_unit_gain(self, rng):
        clean, noise = equal_power_pair(rng)
        mix = mix_at_snr_with_stems(clean, noise, 0.0)
        assert np.allclose(mix.noise.samples, noise.samples, atol=1e-12)
        assert np.allclose(mix.mixed.samples, clean.samples + noise.samples, atol=1e-12)

    def test_equal_power_at_20db_means_gain_tenth(self, rng):
        clean, noise = equal_power_pair(rng)
        mix = mix_at_snr_with_stems(clean, noise, 20.0)
        assert np.allclose(mix.noise.samples, 0.1 * noise.samples, atol=1e-12)

    @pytest.mark.parametrize("snr", [0.0, 5.0, 10.0, 15.0, 20.0])
    def test_measured_snr_matches_target(self, rng, snr):
        clean = make_buffer(rng.standard_normal(8000) * 0.2)
        noise = make_buffer(rng.standard_normal(8000) * 0.07)
        mix = mix_at_snr_with_stems(clean, noise, snr)
        assert measured_snr_db(mix.clean, mix.noise) == pytest.approx(snr, abs=0.01)

    def test_peak_rescale_preserves_snr(self, rng):
        clean = make_buffer(rng.standard_normal(8000) * 0.5)
        noise = make_buffer(rng.standard_normal(8000) * 0.5)
        mix = mix_at_snr_with_stems(clean, noise, 0.0)
        assert np.max(np.abs(mix.mixed.samples)) <= 1.0
        assert measured_snr_db(mix.clean, mix.noise) == pytest.approx(0.0, abs=0.01)

    def test_short_noise_is_looped(self, rng):
        clean = make_buffer(rng.standard_normal(8000) * 0.1)
        noise = make_buffer(rng.standard_normal(1000) * 0.1)
        mix = mix_at_snr_with_stems(clean, noise, 10.0)
        assert len(mix.mixed) == 8000
        # looped structure: the noise stem repeats every 1000 samples
        assert np.allclose(mix.noise.samples[:1000], mix.noise.samples[1000:2000])

    def test_silent_inputs_rejected(self, rng):
        live = make_buffer(rng.standard_normal(1000) * 0.1)
        for dead, why in ((make_buffer(np.zeros(1000)), "silent"),
                          (make_buffer(np.zeros(0)), "empty")):
            with pytest.raises(ValueError, match=why):
                mix_at_snr(dead, live, 0.0)
            with pytest.raises(ValueError, match=why):
                mix_at_snr(live, dead, 0.0)

    def test_rate_mismatch_rejected(self, rng):
        a = AudioBuffer(rng.standard_normal(1000) * 0.1, 16000)
        b = AudioBuffer(rng.standard_normal(1000) * 0.1, 48000)
        with pytest.raises(ValueError):
            mix_at_snr(a, b, 0.0)

    def test_non_finite_snr_rejected(self, rng):
        a, b = equal_power_pair(rng)
        with pytest.raises(ValueError):
            mix_at_snr(a, b, math.inf)

    def test_measured_snr_needs_live_material(self, rng):
        live = make_buffer(rng.standard_normal(1000) * 0.1)
        with pytest.raises(ValueError, match="silent"):
            measured_snr_db(live, make_buffer(np.zeros(1000)))
        with pytest.raises(ValueError, match="silent"):
            measured_snr_db(make_buffer(np.zeros(1000)), live)
        with pytest.raises(ValueError, match="empty"):
            measured_snr_db(live, make_buffer(np.zeros(0)))


class TestGenerators:
    @pytest.mark.parametrize("gen", [speech_surrogate, white_noise, pink_noise, babble_noise])
    def test_in_range_and_seeded(self, gen):
        a = gen(np.random.default_rng(9), 2.0)
        b = gen(np.random.default_rng(9), 2.0)
        assert np.array_equal(a.samples, b.samples)
        assert np.max(np.abs(a.samples)) <= 1.0
        assert len(a) == 32000

    def test_surrogate_has_silence_gaps(self):
        buf = speech_surrogate(np.random.default_rng(3), 8.0)
        frame_rms = np.sqrt(np.mean(buf.samples[:128000].reshape(-1, 800) ** 2, axis=1))
        silent = np.mean(frame_rms < 1e-6)
        assert 0.4 <= silent <= 0.95  # mostly pause, some voice

    @pytest.mark.parametrize("gen,seconds", [
        (pink_noise, 1 / 16000), (pink_noise, 0.0), (white_noise, 0.0), (babble_noise, -1.0),
        (speech_surrogate, 0.0), (white_noise, math.nan), (speech_surrogate, math.inf)])
    def test_too_few_samples_rejected(self, gen, seconds):
        with pytest.raises(ValueError, match="need at least"):
            gen(np.random.default_rng(0), seconds, 16000)

    @pytest.mark.parametrize("rms", [math.nan, math.inf, 0.0, -0.05])
    @pytest.mark.parametrize("gen", [white_noise, pink_noise, babble_noise])
    def test_bad_noise_level_rejected(self, gen, rms):
        with pytest.raises(ValueError, match="rms"):
            gen(np.random.default_rng(0), 0.1, 16000, rms)

    def test_two_sample_pink_noise(self):
        assert len(pink_noise(np.random.default_rng(0), 2 / 16000, 16000)) == 2

    def test_unknown_noise_kind(self):
        with pytest.raises(ValueError):
            make_noise("brown", np.random.default_rng(0), 1.0, 16000, 0.05)


def tree_digest(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestGenerateCorpus:
    def test_counts_and_labels(self, tmp_path):
        manifest = generate_corpus(tmp_path / "c", (4, 3, 3), snr_list=(0.0, 5.0),
                                   seed=1, duration_s=1.0)
        assert len(manifest.entries) == 10
        by_label = {}
        for e in manifest.entries:
            by_label.setdefault(e.label, []).append(e)
        assert len(by_label["clean_speech"]) == 4
        assert len(by_label["noisy_speech"]) == 3
        assert len(by_label["non_speech"]) == 3
        assert all(e.snr_db is None for e in by_label["clean_speech"])
        assert all(e.snr_db is not None for e in by_label["noisy_speech"])

    def test_deterministic_bytes(self, tmp_path):
        generate_corpus(tmp_path / "a", (2, 2, 2), seed=7, duration_s=1.0)
        generate_corpus(tmp_path / "b", (2, 2, 2), seed=7, duration_s=1.0)
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        generate_corpus(tmp_path / "a", (1, 1, 1), seed=7, duration_s=1.0)
        generate_corpus(tmp_path / "b", (1, 1, 1), seed=8, duration_s=1.0)
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")

    def test_stems_reproduce_recorded_snr(self, tmp_path):
        manifest = generate_corpus(tmp_path / "c", (0, 6, 0), snr_list=(0.0, 7.5, 15.0),
                                   seed=3, duration_s=1.0)
        for e in manifest.entries:
            stem = tmp_path / "c" / "stems" / Path(e.path).name.replace(".wav", "")
            clean = read_wav(f"{stem}.clean.wav")
            noise = read_wav(f"{stem}.noise.wav")
            assert measured_snr_db(clean, noise) == pytest.approx(e.snr_db, abs=0.01)

    def test_zero_total_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_corpus(tmp_path / "c", (0, 0, 0))

    def test_empty_snr_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_corpus(tmp_path / "c", (1, 1, 1), snr_list=())

    @pytest.mark.parametrize("duration_s", [0.2, 0.0, -1.0, math.nan, math.inf, 1e9])
    def test_duration_out_of_range_rejected_before_any_file(self, tmp_path, duration_s):
        with pytest.raises(ValueError, match=r"duration must be in \[0.5, 600\] s"):
            generate_corpus(tmp_path / "c", (1, 1, 1), duration_s=duration_s)
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf])
    def test_non_finite_snr_rejected_before_any_file(self, tmp_path, snr):
        with pytest.raises(ValueError, match="SNR levels must be finite"):
            generate_corpus(tmp_path / "c", (1, 1, 1), snr_list=(5.0, snr), duration_s=1.0)
        assert not (tmp_path / "c").exists()

    def test_shortest_clean_clip_is_never_silent(self):
        # a clean clip's speech starts at 0.25 s or later, so a shorter
        # clip could be all zeros and still be labelled clean_speech
        for i in range(300):
            clip = speech_surrogate(np.random.default_rng([i, 0, 0]), MIN_DURATION_S)
            assert np.any(clip.samples != 0.0), i

    def test_clips_are_readable_16k(self, tmp_path):
        manifest = generate_corpus(tmp_path / "c", (1, 1, 1), seed=2, duration_s=0.5)
        for e in manifest.entries:
            buf = read_wav(manifest.resolve(e))
            assert buf.sample_rate_hz == 16000
            assert len(buf) == 8000


class TestManifestIo:
    def test_round_trip(self, tmp_path):
        entries = (
            ManifestEntry("a.wav", "clean_speech", None, 1.5),
            ManifestEntry("b.wav", "noisy_speech", 5.0, 2.0),
            ManifestEntry("c.wav", "non_speech", None, 8.0),
        )
        path = tmp_path / "m.tsv"
        write_manifest(Manifest(entries, tmp_path), path)
        back = read_manifest(path)
        assert back.entries == entries
        assert back.root == tmp_path

    def test_rejects_unknown_label(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a.wav\tmusic\tNA\t1.0\n")
        with pytest.raises(ValueError):
            read_manifest(path)

    def test_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a.wav\tclean_speech\t1.0\n")
        with pytest.raises(ValueError):
            read_manifest(path)

    def test_labels_constant_matches(self):
        assert set(LABELS) == {"clean_speech", "noisy_speech", "non_speech"}
