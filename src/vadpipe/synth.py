"""Desk-scale noisy-speech corpus synthesis.

Clips come in three classes: clean "speech surrogate" (a modulated harmonic
stack with silence gaps), noisy speech (surrogate mixed with noise at an
exact SNR), and non-speech (noise alone). Generation is fully seeded: the
same seed always produces byte-identical files and manifest. A generator
draws its random values first, then fills its samples as parallel chunks
(`_chunked`), which give the same bytes on any number of CPUs.

A term is computed only over the samples where it can change a bit of the
result. A noise swell is added only within `SWELL_REACH_SIGMAS` of its
centre; beyond that it is below half an ulp of the envelope. Outside the
speech bursts the mask is +0.0, and the sample is `tone * 0.0`, sign of
zero included (`am` > 0 and `syl` >= +0.0), so the AM and syllable sines
run only inside the bursts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import parallel
from .audio_io import PIPELINE_RATE_HZ, AudioBuffer, write_wav

LABELS = ("clean_speech", "noisy_speech", "non_speech")
NOISE_KINDS = ("white", "pink", "babble")
DEFAULT_SNRS_DB = (0.0, 5.0, 10.0, 15.0, 20.0)

_SILENT_POWER = 1e-16
# generate_corpus's clip seconds. Clean speech starts at 0.25-0.3 s, maybe in a
# syllabic notch: of 3,000 seeds, 15 clips of 0.35 s were silent, none of 0.37 s.
MIN_DURATION_S = 0.5
MAX_DURATION_S = 600.0   # ten minutes: a clip is held as a few float64 arrays
# A clip's samples are filled as parallel chunks of at least this many
# samples (see parallel.map_chunks); shorter clips run inline. On a 2-vCPU
# Xeon VM two chunks of 16,384 samples beat one inline pass for every
# generator, while two of 8,192 were slower for white noise.
MIN_CHUNK_SAMPLES = 16384
# A noise swell gain * exp(-0.5 * ((t - c) / w)^2) is added only within this
# many sigmas w of its centre c. The envelope it is added to is at least
# 10^(-2.5/20) ~ 0.75, so half an ulp of it is at least 2^-54 ~ 5.6e-17. Beyond
# 10 sigmas a swell of gain <= 10^(13/20) - 1 ~ 3.47 adds under
# 3.47 * exp(-50) ~ 7e-22, which rounds back to the envelope: no bit changes.
SWELL_REACH_SIGMAS = 10.0


@dataclass(frozen=True)
class MixResult:
    """A finished mix plus the exact stems that went into it."""

    mixed: AudioBuffer
    clean: AudioBuffer
    noise: AudioBuffer
    snr_db: float


@dataclass(frozen=True)
class ManifestEntry:
    path: str  # relative to the manifest's directory
    label: str
    snr_db: float | None
    duration_s: float


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...]
    root: Path

    def resolve(self, entry: ManifestEntry) -> Path:
        return self.root / entry.path


def _power(x: np.ndarray) -> float:
    return float(np.mean(x ** 2))


def _fit_length(noise: np.ndarray, n: int) -> np.ndarray:
    if len(noise) >= n:
        return noise[:n]
    reps = math.ceil(n / len(noise))
    return np.tile(noise, reps)[:n]


def mix_at_snr(clean: AudioBuffer, noise: AudioBuffer, snr_db: float) -> AudioBuffer:
    return mix_at_snr_with_stems(clean, noise, snr_db).mixed


def mix_at_snr_with_stems(clean: AudioBuffer, noise: AudioBuffer,
                          snr_db: float) -> MixResult:
    """Mix noise into clean speech so the measured SNR equals snr_db exactly.

    The noise gain comes from the actual sample powers, g = sqrt(P_clean /
    (P_noise * 10^(snr/10))). If the mix would clip, clean and noise are
    rescaled jointly, which leaves the SNR untouched.
    """
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    if clean.sample_rate_hz != noise.sample_rate_hz:
        raise ValueError("clean and noise must share a sample rate")
    if not (len(clean) and len(noise)):
        raise ValueError("cannot mix empty clean or noise material")
    noise_fit = _fit_length(noise.samples, len(clean))
    p_clean = _power(clean.samples)
    p_noise = _power(noise_fit)
    if p_clean <= _SILENT_POWER or p_noise <= _SILENT_POWER:
        raise ValueError("cannot mix silent clean or noise material")

    gain = math.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    clean_part = clean.samples.copy()
    noise_part = gain * noise_fit
    mixed = clean_part + noise_part
    peak = float(np.max(np.abs(mixed)))
    if peak > 1.0:
        clean_part /= peak
        noise_part /= peak
        mixed /= peak
    sr = clean.sample_rate_hz
    return MixResult(AudioBuffer(mixed, sr), AudioBuffer(clean_part, sr),
                     AudioBuffer(noise_part, sr), snr_db)


def measured_snr_db(clean: AudioBuffer, noise: AudioBuffer) -> float:
    if not (len(clean) and len(noise)):
        raise ValueError("cannot measure the SNR of empty clean or noise material")
    p_clean, p_noise = _power(clean.samples), _power(noise.samples)
    if p_clean == 0.0 or p_noise == 0.0:
        raise ValueError("cannot measure the SNR of silent clean or noise material")
    return 10.0 * math.log10(p_clean / p_noise)


# ---------------------------------------------------------------------------
# built-in source generators

def _sample_count(duration_s: float, sample_rate_hz: int, minimum: int = 1) -> int:
    n = int(round(duration_s * sample_rate_hz)) if math.isfinite(duration_s) else 0
    if n < minimum:   # a NaN or infinite duration counts as no samples
        raise ValueError(f"need at least {minimum} samples, got {duration_s:g} s "
                         f"at {sample_rate_hz} Hz")
    return n


def _within(span: tuple[int, int], lo: int, hi: int) -> slice:
    """The part of the sample range span that lies in the chunk [lo, hi),
    as a slice of the chunk (empty when they do not meet)."""
    return slice(max(span[0], lo) - lo, max(min(span[1], hi), lo) - lo)


def _chunked(fill, n: int) -> np.ndarray:
    """fill(lo, hi) for each chunk of range(n) on the parallel pool, joined.

    Every sample depends only on its own time and on parameters drawn
    beforehand, and numpy's ufuncs give the same bits at any offset, so the
    samples do not depend on the chunking. fill must call only numpy.
    """
    return np.concatenate(parallel.map_chunks(fill, n, MIN_CHUNK_SAMPLES))


def speech_surrogate(rng: np.random.Generator, duration_s: float = 3.0,
                     sample_rate_hz: int = PIPELINE_RATE_HZ) -> AudioBuffer:
    """Harmonic stack with 4 Hz amplitude modulation and silence gaps.

    The activity pattern mimics a short spoken command: one burst of about
    a second (long enough to span several 200 ms segments), sometimes
    followed by a brief afterthought, and silence elsewhere. Most of the
    clip is pause, which is what makes whole-clip averaging miss it.
    """
    n = _sample_count(duration_s, sample_rate_hz)
    f0 = rng.uniform(120.0, 220.0)
    phases = [rng.uniform(0, 2 * np.pi) for _ in range(5)]
    am_phase = rng.uniform(0, 2 * np.pi)

    mask = np.zeros(n)
    bursts = []   # (start, stop) sample ranges; mask is +0.0 outside them
    edge = int(0.01 * sample_rate_hz)

    def add_burst(start_s: float, length_s: float) -> None:
        start = int(start_s * sample_rate_hz)
        stop = min(int((start_s + length_s) * sample_rate_hz), n)
        bursts.append((start, stop))
        mask[start:stop] = 1.0
        if stop - start > 2 * edge:  # raised-cosine edges, no clicks
            fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
            mask[start:start + edge] *= fade
            mask[stop - edge:stop] *= fade[::-1]

    main_len = rng.uniform(1.0, 1.3)
    main_pos = rng.uniform(0.25, max(duration_s - main_len - 0.2, 0.3))
    add_burst(main_pos, main_len)
    tail_pos = main_pos + main_len + rng.uniform(0.5, 0.9)
    if rng.uniform() < 0.5 and tail_pos + 0.5 < duration_s:
        add_burst(tail_pos, rng.uniform(0.25, 0.45))

    # syllabic notches inside bursts: ~60 ms of near-silence every ~170 ms,
    # so any 200 ms span of voiced material still touches its own pauses
    syl_period = rng.uniform(0.14, 0.19)
    syl_phase = rng.uniform(0, 2 * np.pi)

    def fill(lo: int, hi: int) -> np.ndarray:
        t = np.arange(lo, hi) / sample_rate_hz
        tone = np.zeros(hi - lo)
        for k, phase in enumerate(phases, start=1):
            # gentle rolloff keeps energy in the upper harmonics, where
            # low-frequency-heavy backgrounds mask least
            tone += (1.0 / math.sqrt(k)) * np.sin(2.0 * np.pi * k * f0 * t + phase)
        # a sample is ((tone * am) * mask) * syl with am > 0 and syl >= +0.0,
        # so where mask is +0.0 it is tone * 0.0, sign of zero included
        x = tone * 0.0
        for span in bursts:
            s = _within(span, lo, hi)
            am = 0.85 + 0.15 * np.sin(2.0 * np.pi * 4.0 * t[s] + am_phase)
            syl = np.sin(2 * np.pi * t[s] / syl_period + syl_phase)
            syl = np.clip((syl + 0.45) / 0.6, 0.0, 1.0)
            x[s] = tone[s] * am * mask[lo:hi][s] * syl
        return x

    x = _chunked(fill, n)
    rms = math.sqrt(_power(x))
    level = rng.uniform(0.08, 0.2)
    x *= level / max(rms, 1e-12)
    return AudioBuffer(np.clip(x, -1.0, 1.0), sample_rate_hz)


def _unsteady_envelope(rng: np.random.Generator, n: int,
                       sample_rate_hz: int) -> np.ndarray:
    """Slow level drift plus a few short swells (door slams, passing cars).

    Environmental noise is not statistically flat; these transients are what
    give whole-clip statistics trouble while staying too brief to win a
    multi-segment vote.
    """
    depth_db = rng.uniform(0.5, 2.5)
    drift_hz = rng.uniform(0.08, 0.3)
    drift_phase = rng.uniform(0, 2 * np.pi)
    duration = n / sample_rate_hz
    # event density varies a lot clip to clip; individual events stay brief
    swells = [(rng.uniform(0.0, duration),  # center
               rng.uniform(0.05, 0.2),  # gaussian sigma, seconds
               10.0 ** (rng.uniform(6.0, 13.0) / 20.0) - 1.0)  # gain
              for _ in range(int(rng.integers(1, max(2, int(1.6 * duration)))))]
    # each swell's reach in samples, one sample wider than SWELL_REACH_SIGMAS
    spans = [(math.floor((center - SWELL_REACH_SIGMAS * width) * sample_rate_hz),
              math.ceil((center + SWELL_REACH_SIGMAS * width) * sample_rate_hz) + 1)
             for center, width, _ in swells]

    def fill(lo: int, hi: int) -> np.ndarray:
        t = np.arange(lo, hi) / sample_rate_hz
        drift_db = depth_db * np.sin(2 * np.pi * drift_hz * t + drift_phase)
        env = 10.0 ** (drift_db / 20.0)
        for (center, width, gain), span in zip(swells, spans):
            s = _within(span, lo, hi)
            env[s] += gain * np.exp(-0.5 * ((t[s] - center) / width) ** 2)
        return env

    return _chunked(fill, n)


def _at_rms(x: np.ndarray, rms: float, sample_rate_hz: int) -> AudioBuffer:
    """Noise x scaled in place to the given RMS, then clipped to [-1, 1]."""
    if not 0.0 < rms < math.inf:   # NaN fails too
        raise ValueError(f"rms must be positive and finite, got {rms}")
    x *= rms / math.sqrt(_power(x))
    return AudioBuffer(np.clip(x, -1.0, 1.0), sample_rate_hz)


def white_noise(rng: np.random.Generator, duration_s: float = 3.0,
                sample_rate_hz: int = PIPELINE_RATE_HZ, rms: float = 0.05) -> AudioBuffer:
    n = _sample_count(duration_s, sample_rate_hz)
    x = rng.standard_normal(n) * _unsteady_envelope(rng, n, sample_rate_hz)
    return _at_rms(x, rms, sample_rate_hz)


def pink_noise(rng: np.random.Generator, duration_s: float = 3.0,
               sample_rate_hz: int = PIPELINE_RATE_HZ, rms: float = 0.05) -> AudioBuffer:
    n = _sample_count(duration_s, sample_rate_hz, minimum=2)   # freqs[1] must exist
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate_hz)
    freqs[0] = freqs[1]
    x = np.fft.irfft(spectrum / np.sqrt(freqs), n=n)
    x *= _unsteady_envelope(rng, n, sample_rate_hz)
    return _at_rms(x, rms, sample_rate_hz)


def babble_noise(rng: np.random.Generator, duration_s: float = 3.0,
                 sample_rate_hz: int = PIPELINE_RATE_HZ, rms: float = 0.05,
                 voices: int = 8) -> AudioBuffer:
    """Sum of detuned continuous harmonic voices: speech-like spectrum,
    but no single voice dominates and the aggregate envelope stays steady."""
    n = _sample_count(duration_s, sample_rate_hz)
    # per voice: f0, five harmonic phases, AM rate and AM phase
    params = [(rng.uniform(90.0, 280.0), [rng.uniform(0, 2 * np.pi) for _ in range(5)],
               rng.uniform(2.5, 6.5), rng.uniform(0, 2 * np.pi)) for _ in range(voices)]

    def fill(lo: int, hi: int) -> np.ndarray:
        t = np.arange(lo, hi) / sample_rate_hz
        x = np.zeros(hi - lo)
        for f0, phases, am_hz, am_phase in params:
            voice = np.zeros(hi - lo)
            for k, phase in enumerate(phases, start=1):
                voice += (1.0 / k) * np.sin(2 * np.pi * k * f0 * t + phase)
            am = 0.88 + 0.12 * np.sin(2 * np.pi * am_hz * t + am_phase)
            x += voice * am
        return x

    x = _chunked(fill, n)
    x *= _unsteady_envelope(rng, n, sample_rate_hz)
    return _at_rms(x, rms, sample_rate_hz)


def make_noise(kind: str, rng: np.random.Generator, duration_s: float,
               sample_rate_hz: int, rms: float) -> AudioBuffer:
    if kind == "white":
        return white_noise(rng, duration_s, sample_rate_hz, rms)
    if kind == "pink":
        return pink_noise(rng, duration_s, sample_rate_hz, rms)
    if kind == "babble":
        return babble_noise(rng, duration_s, sample_rate_hz, rms)
    raise ValueError(f"unknown noise kind {kind!r}")


# ---------------------------------------------------------------------------
# corpus assembly

def generate_corpus(out_dir: str | Path, counts: tuple[int, int, int],
                    snr_list: tuple[float, ...] = DEFAULT_SNRS_DB, seed: int = 0,
                    duration_s: float = 8.0, sample_rate_hz: int = PIPELINE_RATE_HZ,
                    write_stems: bool = True) -> Manifest:
    """Write WAVs and a manifest for (clean, noisy, non-speech) counts.

    Each clip gets its own rng seeded from (seed, class, index), so output
    is reproducible clip-by-clip no matter how generation is ordered.
    """
    n_clean, n_noisy, n_nonspeech = counts
    if min(counts) < 0 or sum(counts) == 0:
        raise ValueError(f"counts must be nonnegative and sum > 0, got {counts}")
    if not snr_list:
        raise ValueError("snr_list must not be empty")
    if not MIN_DURATION_S <= duration_s <= MAX_DURATION_S:   # NaN fails too
        raise ValueError(f"duration must be in [{MIN_DURATION_S:g}, {MAX_DURATION_S:g}] s, "
                         f"got {duration_s:g}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stems_dir = out / "stems"
    if write_stems and n_noisy:
        stems_dir.mkdir(exist_ok=True)

    entries = []
    for i in range(n_clean):
        rng = np.random.default_rng([seed, 0, i])
        clip = speech_surrogate(rng, duration_s, sample_rate_hz)
        name = f"clean_{i:04d}.wav"
        write_wav(clip, out / name)
        entries.append(ManifestEntry(name, "clean_speech", None, clip.duration_s))

    for i in range(n_noisy):
        rng = np.random.default_rng([seed, 1, i])
        clean = speech_surrogate(rng, duration_s, sample_rate_hz)
        # stride the kinds so noise type and SNR level decorrelate
        kind = NOISE_KINDS[i % len(NOISE_KINDS)]
        noise = make_noise(kind, rng, duration_s, sample_rate_hz, rms=0.05)
        snr = float(snr_list[(i // len(NOISE_KINDS)) % len(snr_list)])
        mix = mix_at_snr_with_stems(clean, noise, snr)
        name = f"noisy_{i:04d}.wav"
        write_wav(mix.mixed, out / name)
        if write_stems:
            write_wav(mix.clean, stems_dir / f"noisy_{i:04d}.clean.wav")
            write_wav(mix.noise, stems_dir / f"noisy_{i:04d}.noise.wav")
        entries.append(ManifestEntry(name, "noisy_speech", snr, mix.mixed.duration_s))

    for i in range(n_nonspeech):
        rng = np.random.default_rng([seed, 2, i])
        kind = NOISE_KINDS[i % len(NOISE_KINDS)]
        clip = make_noise(kind, rng, duration_s, sample_rate_hz,
                          rms=float(rng.uniform(0.02, 0.12)))
        name = f"nonspeech_{i:04d}.wav"
        write_wav(clip, out / name)
        entries.append(ManifestEntry(name, "non_speech", None, clip.duration_s))

    manifest = Manifest(tuple(entries), out)
    write_manifest(manifest, out / "manifest.tsv")
    return manifest


def write_manifest(manifest: Manifest, path: str | Path) -> None:
    lines = []
    for e in manifest.entries:
        snr = "NA" if e.snr_db is None else f"{e.snr_db:.1f}"
        lines.append(f"{e.path}\t{e.label}\t{snr}\t{e.duration_s:.3f}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    entries = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"{path}: line {lineno} has {len(parts)} fields, expected 4")
        rel, label, snr, duration = parts
        if label not in LABELS:
            raise ValueError(f"{path}: line {lineno} has unknown label {label!r}")
        entries.append(ManifestEntry(rel, label,
                                     None if snr == "NA" else float(snr),
                                     float(duration)))
    return Manifest(tuple(entries), path.parent)
