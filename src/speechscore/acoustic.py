"""Acoustic features from raw audio: pitch and energy statistics, spectral
shape, and cycle-to-cycle voice-quality measures (jitter, shimmer).

The pitch tracker is a frame-based normalized autocorrelation: per frame it
picks the lag with the highest normalized correlation inside the
[1/fmax, 1/fmin] band and rejects frames whose peak correlation falls below
the voicing threshold or whose RMS sits under the silence floor. This is an
approximation of point-process pulse extraction, sufficient for the
instability measures computed here.

An `AudioBuffer` holds either float64 samples in [-1, 1] or, as `read_wav`
returns it, the file's int16 PCM (2 bytes per sample instead of 8), whose
signal is samples / 32768. The passes below scale each PCM span by 2**-15
when they reach it; int16 to float64 and the power-of-two scale are both
exact, so a PCM buffer gives the same bits as the equal float buffer.

All frame-level work runs in one framing pass that walks the signal in
blocks of frames, taken as strided views of the samples. Each block yields
small per-frame vectors (RMS, peak, best lag and its correlation, ten
sub-band energies, spectral mass and centroid numerator), and the features
reduce over those vectors, so peak memory is O(block) rather than
O(duration). A block holds enough frames for its complex pitch spectrum to
fill `_BLOCK_BYTES`, so its temporaries stay the same size whatever the
sample rate and frame length. Every frame goes through the same arithmetic
as it would in one whole-signal array, with the autocorrelation FFT at the
power of two >= 2*frame, so the features do not depend on the block size.
The one size-dependent step is `spectrum * np.conj(spectrum)`: NumPy
evaluates it in place as `conj(s) * s`, which rounds differently, once the
temporary reaches 256 KiB (temporary elision). The budget is at least that
much: a response longer than one block then runs only in full blocks, each
above the floor as its whole-signal array would be, and a shorter response
is one block.

The pass writes its block-sized arrays (FFT outputs included, hence NumPy
>= 2.0) into buffers made once per response. Blocks allocated afresh left
the speed to the C allocator's history: without an earlier large free,
glibc returned each block's temporaries to the system and faulted them back
in for the next block, which made a 60 s response take ~1.6x as long.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

if TYPE_CHECKING:
    from .features import ExtractorConfig

ACOUSTIC_FEATURES = (
    "mean_pitch",
    "stdev_pitch",
    "range_pitch",
    "stdev_energy",
    "zero_crossing_rate",
    "energy_entropy",
    "spectral_centroid",
    "rapJitter",
    "ppq5Jitter",
    "ddpJitter",
    "localShimmer",
    "apq3Shimmer",
    "aqpq5Shimmer",
    "ddaShimmer",
    "total_duration",
)

# Bytes of a block's complex pitch spectrum in the framing pass (128 frames
# at 16 kHz with 40 ms frames). At least NumPy's 256 KiB elision floor (see
# the module docstring); at 1 MiB the per-frame vectors, which grow with
# duration, would be a third of the pass's peak at 200 s of audio.
_BLOCK_BYTES = 2 << 20
# The float value of one int16 PCM step.
_PCM_SCALE = 2.0 ** -15
# Samples per chunk of the zero-crossing count.
_ZCR_CHUNK = 1 << 16
_VOICING_THRESHOLD = 0.5
_SILENCE_FLOOR = 1e-4


def _as_float(samples: np.ndarray) -> np.ndarray:
    """`samples` as float64: int16 PCM scaled by 2**-15, float unchanged."""
    if samples.dtype == np.int16:
        return np.multiply(samples, _PCM_SCALE, dtype=np.float64)
    return samples


@dataclass
class AudioBuffer:
    samples: np.ndarray      # int16 PCM, or float64 in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.dtype != np.int16:
            self.samples = self.samples.astype(np.float64, copy=False)
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        if self.samples.size == 0:
            raise ValueError("empty audio buffer")

    @property
    def signal(self) -> np.ndarray:
        """The samples as float64 in [-1, 1] (a new array for PCM)."""
        return _as_float(self.samples)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass
class PeriodTrack:
    periods: np.ndarray      # seconds, one per voiced frame
    amplitudes: np.ndarray   # peak |sample| of the same frames

    def __post_init__(self):
        self.periods = np.asarray(self.periods, dtype=np.float64)
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.float64)
        if self.periods.shape != self.amplitudes.shape:
            raise ValueError("periods and amplitudes must align")
        if np.any(self.periods <= 0) or np.any(self.amplitudes < 0):
            raise ValueError("invalid period track")


def read_wav(path: str | Path) -> AudioBuffer:
    """Read 16-bit PCM mono WAV into a PCM buffer over the file's bytes."""
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1:
                raise ValueError(f"{path}: expected mono, got {fh.getnchannels()} channels")
            if fh.getsampwidth() != 2:
                raise ValueError(f"{path}: expected 16-bit PCM, got {8 * fh.getsampwidth()}-bit")
            if fh.getcomptype() != "NONE":
                raise ValueError(f"{path}: compressed WAV not supported")
            rate = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
    except (wave.Error, EOFError) as exc:
        raise ValueError(f"{path}: malformed WAV ({exc})") from exc
    samples = np.frombuffer(raw, dtype="<i2").astype(np.int16, copy=False)
    if samples.size == 0:
        raise ValueError(f"{path}: no samples")
    return AudioBuffer(samples=samples, sample_rate=rate)


def write_wav(path: str | Path, audio: AudioBuffer) -> None:
    scaled = np.clip(np.round(audio.signal * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(audio.sample_rate)
        fh.writeframes(scaled.tobytes())


def _frame_lengths(sample_rate: int,
                   config: ExtractorConfig) -> tuple[int, int]:
    """Frame and hop in samples; raises if either rounds to none."""
    frame, hop = config.frame, config.hop
    lengths = int(round(frame * sample_rate)), int(round(hop * sample_rate))
    for name, seconds, samples in zip(("frame", "hop"), (frame, hop), lengths):
        if samples < 1:
            raise ValueError(f"{name} of {seconds!r} s is {samples} samples at "
                             f"{sample_rate} Hz; need at least 1")
    return lengths


def _pitch_lags(audio: AudioBuffer, frame_len: int,
                config: ExtractorConfig) -> np.ndarray:
    """Candidate lags in samples for the ``config`` pitch band; raises if
    no frame or no band fits."""
    sr = audio.sample_rate
    if audio.samples.size < frame_len:
        raise ValueError("audio shorter than one analysis frame")
    lag_min = max(1, int(np.ceil(sr / config.fmax)))
    lag_max = min(frame_len - 1, int(np.floor(sr / config.fmin)))
    if lag_max <= lag_min:
        raise ValueError("frame too short for the requested pitch band")
    return np.arange(lag_min, lag_max + 1)


@dataclass
class _FrameStats:
    """Per-frame vectors from the framing pass; unrequested parts stay None."""

    rms: np.ndarray
    peak: np.ndarray | None = None          # pitch part
    best: np.ndarray | None = None          # index into the lags
    best_corr: np.ndarray | None = None
    bands: np.ndarray | None = None         # spectral part: (frames, 10)
    mass: np.ndarray | None = None
    centroid_num: np.ndarray | None = None


@dataclass
class _BlockBuffers:
    """The block-sized arrays of one framing pass, made once and reused by
    every block (module docstring)."""

    frames: np.ndarray       # (rows, frame_len): |block|, then centered
    squares: np.ndarray      # (rows, frame_len)
    energy: np.ndarray       # (rows, frame_len)
    spectrum: np.ndarray     # (rows, nfft/2 + 1), complex
    acorr: np.ndarray        # (rows, nfft)

    @classmethod
    def empty(cls, rows: int, frame_len: int, nfft: int) -> "_BlockBuffers":
        return cls(*(np.empty((rows, frame_len)) for _ in range(3)),
                   np.empty((rows, nfft // 2 + 1), dtype=np.complex128),
                   np.empty((rows, nfft)))


def _best_lags(block: np.ndarray, lags: np.ndarray, nfft: int,
               buffers: _BlockBuffers) -> tuple[np.ndarray, np.ndarray]:
    """Lag index of the highest normalized autocorrelation, and its value."""
    frame_len = block.shape[1]
    centered = np.subtract(block, block.mean(axis=1, keepdims=True),
                           out=buffers.frames)
    spectrum = np.fft.rfft(centered, n=nfft, axis=1, out=buffers.spectrum)
    acorr = np.fft.irfft(spectrum * np.conj(spectrum), n=nfft, axis=1,
                         out=buffers.acorr)
    energy = np.cumsum(np.square(centered, out=centered), axis=1,
                       out=buffers.energy)
    # prefix energy of x[0 : N-lag] and suffix energy of x[lag : N]
    e_pre = energy[:, frame_len - lags - 1]
    e_suf = energy[:, -1:] - energy[:, lags - 1]
    denom = np.sqrt(np.maximum(e_pre * e_suf, 1e-300))
    corr = acorr[:, lags[0]:lags[-1] + 1] / denom
    best = np.argmax(corr, axis=1)
    return best, corr[np.arange(block.shape[0]), best]


def _block_frames(nfft: int) -> int:
    """Frames per block: enough for the block's complex pitch spectrum
    (nfft/2 + 1 bins of 16 bytes per frame) to fill `_BLOCK_BYTES`."""
    return -(-_BLOCK_BYTES // (16 * (nfft // 2 + 1)))


def _frame_pass(audio: AudioBuffer, frame_len: int, hop_len: int,
                lags: np.ndarray | None, spectral: bool) -> _FrameStats:
    """One block-wise pass over the frames of `audio`.

    Always computes the frame RMS; with `lags`, the pitch part (peak and best
    lag); with `spectral`, the sub-band energies and spectral mass/centroid.
    """
    n = (audio.samples.size - frame_len) // hop_len + 1
    nfft = 1 << int(np.ceil(np.log2(2 * frame_len)))
    block_frames = _block_frames(nfft)
    buffers = _BlockBuffers.empty(min(n, block_frames), frame_len, nfft)
    stats = _FrameStats(rms=np.empty(n))
    if lags is not None:
        stats.peak = np.empty(n)
        stats.best = np.empty(n, dtype=np.intp)
        stats.best_corr = np.empty(n)
    sub = frame_len // 10
    if spectral:
        if sub >= 1:
            stats.bands = np.empty((n, 10))
        stats.mass = np.empty(n)
        stats.centroid_num = np.empty(n)
        freqs = np.fft.rfftfreq(frame_len, d=1.0 / audio.sample_rate)

    for start in range(0, n, block_frames):
        # The last block ends at the last frame and overlaps the one before,
        # so every block of a long signal is full size and its pitch
        # spectrum reaches the elision floor (module docstring).
        start = max(0, min(start, n - block_frames))
        rows = slice(start, min(start + block_frames, n))
        span = audio.samples[start * hop_len:(rows.stop - 1) * hop_len + frame_len]
        block = sliding_window_view(_as_float(span), frame_len)[::hop_len]
        squares = np.square(block, out=buffers.squares)
        stats.rms[rows] = np.sqrt(squares.mean(axis=1))
        if lags is not None:
            stats.peak[rows] = np.abs(block, out=buffers.frames).max(axis=1)
            stats.best[rows], stats.best_corr[rows] = _best_lags(
                block, lags, nfft, buffers)
        if spectral:
            if sub >= 1:
                trimmed = squares[:, :10 * sub].reshape(block.shape[0], 10, sub)
                stats.bands[rows] = trimmed.sum(axis=2)
            spectrum = np.abs(np.fft.rfft(block, axis=1))
            stats.mass[rows] = spectrum.sum(axis=1)
            stats.centroid_num[rows] = (spectrum * freqs).sum(axis=1)
    return stats


def _period_track(stats: _FrameStats, lags: np.ndarray,
                  sample_rate: int) -> PeriodTrack:
    voiced = (stats.best_corr >= _VOICING_THRESHOLD) & (stats.rms >= _SILENCE_FLOOR)
    periods = lags[stats.best[voiced]] / sample_rate
    return PeriodTrack(periods=periods, amplitudes=stats.peak[voiced])


def pitch_track(audio: AudioBuffer, config: ExtractorConfig) -> PeriodTrack:
    """Fundamental periods and peak amplitudes of the voiced frames, in the
    ``config`` pitch band, frame and hop."""
    frame_len, hop_len = _frame_lengths(audio.sample_rate, config)
    lags = _pitch_lags(audio, frame_len, config)
    stats = _frame_pass(audio, frame_len, hop_len, lags, False)
    return _period_track(stats, lags, audio.sample_rate)


def _neighborhood_instability(values: np.ndarray, window: int) -> float:
    """Mean |v_i - mean(window around i)| / mean(v), the Praat ppq/apq form."""
    half = window // 2
    if values.size < window:
        return 0.0
    local = sliding_window_view(values, window).mean(axis=1)
    diffs = np.abs(values[half:values.size - half] - local)
    return float(np.mean(diffs) / values.mean())


def _local_instability(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(np.abs(np.diff(values)).mean() / values.mean())


def _zero_crossing_rate(x: np.ndarray) -> float:
    if x.size < 2:
        return 0.0
    flips = 0
    for start in range(0, x.size - 1, _ZCR_CHUNK):
        # Scaled before the product: int16 products overflow.
        chunk = _as_float(x[start:start + _ZCR_CHUNK + 1])
        flips += int(np.count_nonzero((chunk[:-1] * chunk[1:]) < 0))
    return flips / (x.size - 1)


def _features(audio: AudioBuffer, stats: _FrameStats | None, track: PeriodTrack,
              flags: set[str]) -> dict[str, float]:
    features = dict.fromkeys(ACOUSTIC_FEATURES, 0.0)
    features["total_duration"] = audio.duration
    features["zero_crossing_rate"] = _zero_crossing_rate(audio.samples)

    if stats is not None:
        features["stdev_energy"] = float(stats.rms.std())
        if stats.bands is not None:
            bins = stats.bands.sum(axis=0)
            total = bins.sum()
            if total > 0:
                p = bins / total
                p = p[p > 0]
                features["energy_entropy"] = float(-(p * np.log2(p)).sum())
        nonzero = stats.mass > 0
        if nonzero.any():
            centroids = stats.centroid_num[nonzero] / stats.mass[nonzero]
            features["spectral_centroid"] = float(centroids.mean())

    periods = track.periods
    amps = track.amplitudes
    if periods.size == 0:
        flags.add("acoustic_no_voiced_frames")
        return features

    pitch = 1.0 / periods
    features["mean_pitch"] = float(pitch.mean())
    features["stdev_pitch"] = float(pitch.std())
    features["range_pitch"] = float(pitch.max() - pitch.min())

    if periods.size >= 3:
        rap = _neighborhood_instability(periods, 3)
        features["rapJitter"] = rap
        features["ddpJitter"] = 3.0 * rap
    else:
        flags.add("acoustic_too_few_periods")
    if periods.size >= 5:
        features["ppq5Jitter"] = _neighborhood_instability(periods, 5)
    else:
        flags.add("acoustic_too_few_periods_ppq5")

    if amps.size >= 2 and amps.mean() > 0:
        features["localShimmer"] = _local_instability(amps)
        if amps.size >= 3:
            apq3 = _neighborhood_instability(amps, 3)
            features["apq3Shimmer"] = apq3
            features["ddaShimmer"] = 3.0 * apq3
        if amps.size >= 5:
            features["aqpq5Shimmer"] = _neighborhood_instability(amps, 5)
    return features


def acoustic_features(audio: AudioBuffer, track: PeriodTrack,
                      config: ExtractorConfig,
                      flags: set[str]) -> dict[str, float]:
    """The 15 acoustic features keyed by their printed names, framed by the
    ``config`` frame and hop.

    Pitch statistics run over 1/period of the voiced frames; jitter and
    shimmer follow the standard cycle-to-cycle definitions with ddp = 3*rap
    and dda = 3*apq3 as exact identities.
    """
    frame_len, hop_len = _frame_lengths(audio.sample_rate, config)
    stats = None
    if audio.samples.size >= frame_len:
        stats = _frame_pass(audio, frame_len, hop_len, None, True)
    return _features(audio, stats, track, flags)


def extract_acoustic(audio: AudioBuffer, config: ExtractorConfig,
                     flags: set[str]) -> dict[str, float]:
    """`acoustic_features(audio, pitch_track(audio, config), config, flags)`
    in one framing pass."""
    frame_len, hop_len = _frame_lengths(audio.sample_rate, config)
    lags = _pitch_lags(audio, frame_len, config)
    stats = _frame_pass(audio, frame_len, hop_len, lags, True)
    track = _period_track(stats, lags, audio.sample_rate)
    return _features(audio, stats, track, flags)
