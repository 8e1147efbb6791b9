"""Desk-scale noisy-speech corpus synthesis.

Clips come in three classes: clean "speech surrogate" (a modulated harmonic
stack with silence gaps), noisy speech (surrogate mixed with noise at an
exact SNR), and non-speech (noise alone). Generation is fully seeded: the
same seed always produces byte-identical files and manifest. A generator
draws its random values first, then fills its samples block by block
(`_chunked`): blocks of `MIN_CHUNK_SAMPLES`, small enough that a block's
temporaries stay in cache, dealt round-robin to one part per CPU. Each block
is written in place into the one output array, and its temporaries live in
per-thread scratch buffers (`dsp.scratch`), so the same bytes come out on
any number of CPUs without a fresh whole-clip array per step.

A term is computed only over the samples where it can change a bit of the
result. A noise swell is added only within `SWELL_REACH_SIGMAS` of its
centre; beyond that it is below half an ulp of the envelope. Outside the
speech bursts the mask is +0.0, and the sample is `tone * 0.0`, sign of
zero included (`am` > 0 and `syl` >= +0.0), so the AM and syllable sines
run only inside the bursts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp, parallel
from .audio_io import MAX_RATE_HZ, MIN_RATE_HZ, PIPELINE_RATE_HZ, AudioBuffer, write_wav

LABELS = ("clean_speech", "noisy_speech", "non_speech")
NOISE_KINDS = ("white", "pink", "babble")
DEFAULT_SNRS_DB = (0.0, 5.0, 10.0, 15.0, 20.0)
DEFAULT_DURATION_S = 8.0
DEFAULT_SEED = 0
BABBLE_VOICES = 8
# The noise level generate_corpus mixes into noisy speech; the generators' default.
NOISE_RMS = 0.05
# The largest SNR magnitude a mix takes. The power ratio 10^(snr/10) overflows
# above ~3,082 dB and leaves the normal floats below ~-3,076 dB; at 300 dB it is
# 1e30 or 1e-30, far inside the range where the ratio and p_noise * ratio stay
# normal floats.
MAX_ABS_SNR_DB = 300.0

_SILENT_POWER = 1e-16
# generate_corpus's clip seconds. Clean speech starts at 0.25-0.3 s, maybe in a
# syllabic notch: of 3,000 seeds, 15 clips of 0.35 s were silent, none of 0.37 s.
MIN_DURATION_S = 0.5
MAX_DURATION_S = 600.0   # ten minutes: a clip is held as a few float64 arrays
# A clip's samples are filled in blocks of this many samples (the last one
# shorter), and each parallel part gets at least one whole block; shorter
# clips run inline. A block's temporaries take 128 KiB a row, and a fill
# holds at most nine rows (babble's), which fit a core's L2 cache. On a
# 2-vCPU Xeon VM (2 MiB of L2 a core) two parts of 16,384 samples beat one
# inline pass for every generator, and blocks of 8,192 were slower than
# blocks of 16,384 for every generator.
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
    return float(np.mean(np.square(x, out=dsp.scratch("synth._power", x.shape))))


def _fit_length(noise: np.ndarray, n: int) -> np.ndarray:
    if len(noise) >= n:
        return noise[:n]
    reps = math.ceil(n / len(noise))
    return np.tile(noise, reps)[:n]


def mix_at_snr(clean: AudioBuffer, noise: AudioBuffer, snr_db: float) -> AudioBuffer:
    """mix_at_snr_with_stems(...).mixed, the same bits, without building the stems."""
    (mixed,) = _mix(clean, noise, snr_db, stems=False)
    return AudioBuffer(mixed, clean.sample_rate_hz)


def mix_at_snr_with_stems(clean: AudioBuffer, noise: AudioBuffer,
                          snr_db: float) -> MixResult:
    """Mix noise into clean speech so the measured SNR equals snr_db exactly.

    The noise gain comes from the actual sample powers, g = sqrt(P_clean /
    (P_noise * 10^(snr/10))). If the mix would clip, clean and noise are
    rescaled jointly, which leaves the SNR untouched.
    """
    mixed, clean_part, noise_part = _mix(clean, noise, snr_db, stems=True)
    sr = clean.sample_rate_hz
    return MixResult(AudioBuffer(mixed, sr), AudioBuffer(clean_part, sr),
                     AudioBuffer(noise_part, sr), snr_db)


def _mix(clean: AudioBuffer, noise: AudioBuffer, snr_db: float,
         stems: bool) -> list[np.ndarray]:
    """[mixed, clean_part, noise_part], or just [mixed] without stems, when
    the mixed samples are summed into the scaled noise's own array."""
    if not abs(snr_db) <= MAX_ABS_SNR_DB:   # NaN fails too
        raise ValueError(f"snr_db must be finite and at most {MAX_ABS_SNR_DB:g} dB "
                         f"in magnitude, got {snr_db}")
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
    noise_part = gain * noise_fit
    if stems:
        parts = [clean.samples + noise_part, clean.samples.copy(), noise_part]
    else:
        parts = [np.add(clean.samples, noise_part, out=noise_part)]
    mixed = parts[0]
    peak = float(max(mixed.max(), -mixed.min()))   # max |mixed|, NaN if any is NaN
    if peak > 1.0:
        for part in parts:
            part /= peak
    return parts


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


def _chunked(fill, out: np.ndarray) -> np.ndarray:
    """out, written block by block in place as fill(lo, hi, out[lo:hi]).

    range(len(out)) is cut into blocks of MIN_CHUNK_SAMPLES, dealt
    round-robin to one part per thread of the caller's budget (at most one
    per whole block), so bursts and swells spread evenly; the parts run on
    the parallel pool. Every sample depends only on its own time, its own
    value in out and parameters drawn beforehand, and numpy's ufuncs give
    the same bits at any offset, so the samples do not depend on the blocks
    or the parts. fill must call only numpy, and keep its temporaries in
    dsp.scratch.
    """
    n, size = len(out), MIN_CHUNK_SAMPLES
    parts = max(1, min(n // size, parallel.threads()))

    def part(first: int, _stop: int) -> None:
        for lo in range(first * size, n, parts * size):
            hi = min(lo + size, n)
            fill(lo, hi, out[lo:hi])

    parallel.map_chunks(part, parts)
    return out


def _times(lo: int, hi: int, sample_rate_hz: int) -> np.ndarray:
    """The times in seconds of samples [lo, hi)."""
    t = np.arange(lo, hi, dtype=np.float64)   # exact integers (below 2**53)
    t /= sample_rate_hz
    return t


def _sines(t: np.ndarray, rates, phases, key: str) -> np.ndarray:
    """sin(rates * t + phases) in this thread's scratch under key: one row
    per row of the column arrays rates and phases, or one sine for scalars."""
    s = dsp.scratch(key, np.broadcast_shapes(np.shape(rates), t.shape))
    np.multiply(t, rates, out=s)
    s += phases
    return np.sin(s, out=s)


def speech_surrogate(rng: np.random.Generator, duration_s: float,
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

    harmonics = np.arange(1, 6)[:, None]   # one row per harmonic k
    rates, offsets = 2.0 * np.pi * harmonics * f0, np.array(phases)[:, None]
    # gentle rolloff keeps energy in the upper harmonics, where
    # low-frequency-heavy backgrounds mask least
    gains = 1.0 / np.sqrt(harmonics)

    def fill(lo: int, hi: int, x: np.ndarray) -> None:
        t = _times(lo, hi, sample_rate_hz)
        terms = _sines(t, rates, offsets, "synth.sines")
        terms *= gains
        tone = dsp.scratch("synth.tone", t.shape)
        tone.fill(0.0)
        for term in terms:
            tone += term
        # a sample is ((tone * am) * mask) * syl with am > 0 and syl >= +0.0,
        # so where mask is +0.0 it is tone * 0.0, sign of zero included
        np.multiply(tone, 0.0, out=x)
        for span in bursts:
            s = _within(span, lo, hi)
            am = _sines(t[s], 2.0 * np.pi * 4.0, am_phase, "synth.am")
            am *= 0.15
            am += 0.85
            syl = np.multiply(t[s], 2 * np.pi, out=dsp.scratch("synth.syl", am.shape))
            syl /= syl_period
            syl += syl_phase
            np.sin(syl, out=syl)
            syl += 0.45
            syl /= 0.6
            np.clip(syl, 0.0, 1.0, out=syl)
            xs = np.multiply(tone[s], am, out=x[s])
            xs *= mask[lo:hi][s]
            xs *= syl

    x = _chunked(fill, np.empty(n))
    rms = math.sqrt(_power(x))
    level = rng.uniform(0.08, 0.2)
    x *= level / max(rms, 1e-12)
    return AudioBuffer(np.clip(x, -1.0, 1.0, out=x), sample_rate_hz)


def _unsteady_envelope(rng: np.random.Generator, x: np.ndarray,
                       sample_rate_hz: int) -> np.ndarray:
    """x times an envelope of slow level drift plus a few short swells (door
    slams, passing cars), in place.

    Environmental noise is not statistically flat; these transients are what
    give whole-clip statistics trouble while staying too brief to win a
    multi-segment vote.
    """
    depth_db = rng.uniform(0.5, 2.5)
    drift_hz = rng.uniform(0.08, 0.3)
    drift_phase = rng.uniform(0, 2 * np.pi)
    duration = len(x) / sample_rate_hz
    # event density varies a lot clip to clip; individual events stay brief
    swells = [(rng.uniform(0.0, duration),  # center
               rng.uniform(0.05, 0.2),  # gaussian sigma, seconds
               10.0 ** (rng.uniform(6.0, 13.0) / 20.0) - 1.0)  # gain
              for _ in range(int(rng.integers(1, max(2, int(1.6 * duration)))))]
    # each swell's reach in samples, one sample wider than SWELL_REACH_SIGMAS
    spans = [(math.floor((center - SWELL_REACH_SIGMAS * width) * sample_rate_hz),
              math.ceil((center + SWELL_REACH_SIGMAS * width) * sample_rate_hz) + 1)
             for center, width, _ in swells]

    def fill(lo: int, hi: int, block: np.ndarray) -> None:
        t = _times(lo, hi, sample_rate_hz)
        env = _sines(t, 2 * np.pi * drift_hz, drift_phase, "synth.envelope")
        env *= depth_db   # the drift in dB
        env /= 20.0
        np.power(10.0, env, out=env)
        for (center, width, gain), span in zip(swells, spans):
            s = _within(span, lo, hi)
            swell = np.subtract(t[s], center, out=dsp.scratch("synth.swell", t[s].shape))
            swell /= width
            np.square(swell, out=swell)
            swell *= -0.5
            np.exp(swell, out=swell)
            swell *= gain
            env[s] += swell
        block *= env

    return _chunked(fill, x)


def _at_rms(x: np.ndarray, rms: float, sample_rate_hz: int) -> AudioBuffer:
    """Noise x scaled in place to the given RMS, then clipped to [-1, 1]."""
    if not 0.0 < rms < math.inf:   # NaN fails too
        raise ValueError(f"rms must be positive and finite, got {rms}")
    x *= rms / math.sqrt(_power(x))
    return AudioBuffer(np.clip(x, -1.0, 1.0, out=x), sample_rate_hz)


def white_noise(rng: np.random.Generator, duration_s: float,
                sample_rate_hz: int = PIPELINE_RATE_HZ, rms: float = NOISE_RMS) -> AudioBuffer:
    n = _sample_count(duration_s, sample_rate_hz)
    x = _unsteady_envelope(rng, rng.standard_normal(n), sample_rate_hz)
    return _at_rms(x, rms, sample_rate_hz)


def pink_noise(rng: np.random.Generator, duration_s: float,
               sample_rate_hz: int = PIPELINE_RATE_HZ, rms: float = NOISE_RMS) -> AudioBuffer:
    n = _sample_count(duration_s, sample_rate_hz, minimum=2)   # freqs[1] must exist
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate_hz)
    freqs[0] = freqs[1]
    spectrum /= np.sqrt(freqs, out=freqs)
    x = _unsteady_envelope(rng, np.fft.irfft(spectrum, n=n), sample_rate_hz)
    return _at_rms(x, rms, sample_rate_hz)


def babble_noise(rng: np.random.Generator, duration_s: float,
                 sample_rate_hz: int = PIPELINE_RATE_HZ, rms: float = NOISE_RMS) -> AudioBuffer:
    """Sum of detuned continuous harmonic voices: speech-like spectrum,
    but no single voice dominates and the aggregate envelope stays steady."""
    n = _sample_count(duration_s, sample_rate_hz)
    # per voice: f0, five harmonic phases, AM rate and AM phase
    params = [(rng.uniform(90.0, 280.0), [rng.uniform(0, 2 * np.pi) for _ in range(5)],
               rng.uniform(2.5, 6.5), rng.uniform(0, 2 * np.pi)) for _ in range(BABBLE_VOICES)]

    # per voice, one row per sine: its five harmonics k, then its AM
    harmonics = np.arange(1, 6)[:, None]
    voices = [(np.vstack([2 * np.pi * harmonics * f0, [[2 * np.pi * am_hz]]]),
               np.array(phases + [am_phase])[:, None])
              for f0, phases, am_hz, am_phase in params]
    gains = 1.0 / harmonics

    def fill(lo: int, hi: int, x: np.ndarray) -> None:
        t = _times(lo, hi, sample_rate_hz)
        voice = dsp.scratch("synth.voice", t.shape)
        x.fill(0.0)
        for rates, offsets in voices:
            sines = _sines(t, rates, offsets, "synth.sines")
            terms, am = sines[:-1], sines[-1]
            terms *= gains
            voice.fill(0.0)
            for term in terms:
                voice += term
            am *= 0.12
            am += 0.88
            voice *= am
            x += voice

    x = _unsteady_envelope(rng, _chunked(fill, np.empty(n)), sample_rate_hz)
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
                    snr_list: tuple[float, ...] = DEFAULT_SNRS_DB, seed: int = DEFAULT_SEED,
                    duration_s: float = DEFAULT_DURATION_S,
                    sample_rate_hz: int = PIPELINE_RATE_HZ,
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
    if not all(abs(snr) <= MAX_ABS_SNR_DB for snr in snr_list):   # NaN fails too
        raise ValueError(f"SNR levels must be finite and at most {MAX_ABS_SNR_DB:g} dB in "
                         f"magnitude, got {', '.join(map(str, snr_list))}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not MIN_RATE_HZ <= sample_rate_hz <= MAX_RATE_HZ:   # read_wav refuses the rest
        raise ValueError(f"sample rate must be in [{MIN_RATE_HZ}, {MAX_RATE_HZ}] Hz, "
                         f"got {sample_rate_hz}")

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
        noise = make_noise(kind, rng, duration_s, sample_rate_hz, rms=NOISE_RMS)
        snr = float(snr_list[(i // len(NOISE_KINDS)) % len(snr_list)])
        name = f"noisy_{i:04d}.wav"
        if write_stems:
            mix = mix_at_snr_with_stems(clean, noise, snr)
            write_wav(mix.clean, stems_dir / f"noisy_{i:04d}.clean.wav")
            write_wav(mix.noise, stems_dir / f"noisy_{i:04d}.noise.wav")
            mixed = mix.mixed
        else:
            mixed = mix_at_snr(clean, noise, snr)
        write_wav(mixed, out / name)
        entries.append(ManifestEntry(name, "noisy_speech", snr, mixed.duration_s))

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
