"""Acoustic features from raw audio: pitch and energy statistics, spectral
shape, and cycle-to-cycle voice-quality measures (jitter, shimmer).

The pitch tracker is a frame-based normalized autocorrelation: per frame it
picks the lag with the highest normalized correlation inside the
[1/fmax, 1/fmin] band and rejects frames whose peak correlation falls below
the voicing threshold or whose RMS sits under the silence floor. This is an
approximation of point-process pulse extraction, sufficient for the
instability measures computed here.

All frame-level work runs in one framing pass that walks the signal in blocks
of `_BLOCK_FRAMES` frames, taken as strided views of the samples. Each block
yields small per-frame vectors (RMS, peak, best lag and its correlation, ten
sub-band energies, spectral mass and centroid numerator), and the features
reduce over those vectors, so peak memory is O(block) rather than
O(duration). Every frame goes through the same arithmetic as it would in one
whole-signal array, with the autocorrelation FFT at the power of two
>= 2*frame, so the features do not depend on the block size.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

# Frames per block of the framing pass: a block's pitch spectra (nfft 2048
# at 16 kHz) take about 4 MB.
_BLOCK_FRAMES = 256
# Samples per chunk of the zero-crossing count.
_ZCR_CHUNK = 1 << 16
_VOICING_THRESHOLD = 0.5
_SILENCE_FLOOR = 1e-4


@dataclass
class AudioBuffer:
    samples: np.ndarray      # float64 in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        if self.samples.size == 0:
            raise ValueError("empty audio buffer")

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
    """Read 16-bit PCM mono WAV, scaling samples to [-1, 1]."""
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
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if samples.size == 0:
        raise ValueError(f"{path}: no samples")
    return AudioBuffer(samples=samples, sample_rate=rate)


def write_wav(path: str | Path, audio: AudioBuffer) -> None:
    scaled = np.clip(np.round(audio.samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(audio.sample_rate)
        fh.writeframes(scaled.tobytes())


def _frame_lengths(sample_rate: int, frame: float, hop: float) -> tuple[int, int]:
    """Frame and hop in samples; raises if either rounds to none."""
    lengths = int(round(frame * sample_rate)), int(round(hop * sample_rate))
    for name, seconds, samples in zip(("frame", "hop"), (frame, hop), lengths):
        if samples < 1:
            raise ValueError(f"{name} of {seconds!r} s is {samples} samples at "
                             f"{sample_rate} Hz; need at least 1")
    return lengths


def _pitch_lags(audio: AudioBuffer, frame_len: int, fmin: float,
                fmax: float) -> np.ndarray:
    """Candidate lags in samples; raises if no frame or no band fits."""
    sr = audio.sample_rate
    if audio.samples.size < frame_len:
        raise ValueError("audio shorter than one analysis frame")
    lag_min = max(1, int(np.ceil(sr / fmax)))
    lag_max = min(frame_len - 1, int(np.floor(sr / fmin)))
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


def _best_lags(block: np.ndarray, lags: np.ndarray,
               nfft: int) -> tuple[np.ndarray, np.ndarray]:
    """Lag index of the highest normalized autocorrelation, and its value."""
    frame_len = block.shape[1]
    centered = block - block.mean(axis=1, keepdims=True)
    spectrum = np.fft.rfft(centered, n=nfft, axis=1)
    acorr = np.fft.irfft(spectrum * np.conj(spectrum), n=nfft, axis=1)
    energy = np.cumsum(centered ** 2, axis=1)
    # prefix energy of x[0 : N-lag] and suffix energy of x[lag : N]
    e_pre = energy[:, frame_len - lags - 1]
    e_suf = energy[:, -1:] - energy[:, lags - 1]
    denom = np.sqrt(np.maximum(e_pre * e_suf, 1e-300))
    corr = acorr[:, lags[0]:lags[-1] + 1] / denom
    best = np.argmax(corr, axis=1)
    return best, corr[np.arange(block.shape[0]), best]


def _frame_pass(audio: AudioBuffer, frame_len: int, hop_len: int,
                lags: np.ndarray | None = None,
                spectral: bool = False) -> _FrameStats:
    """One block-wise pass over the frames of `audio`.

    Always computes the frame RMS; with `lags`, the pitch part (peak and best
    lag); with `spectral`, the sub-band energies and spectral mass/centroid.
    """
    frames = sliding_window_view(audio.samples, frame_len)[::hop_len]
    n = frames.shape[0]
    stats = _FrameStats(rms=np.empty(n))
    if lags is not None:
        stats.peak = np.empty(n)
        stats.best = np.empty(n, dtype=np.intp)
        stats.best_corr = np.empty(n)
        nfft = 1 << int(np.ceil(np.log2(2 * frame_len)))
    sub = frame_len // 10
    if spectral:
        if sub >= 1:
            stats.bands = np.empty((n, 10))
        stats.mass = np.empty(n)
        stats.centroid_num = np.empty(n)
        freqs = np.fft.rfftfreq(frame_len, d=1.0 / audio.sample_rate)

    for start in range(0, n, _BLOCK_FRAMES):
        # The last block ends at the last frame and overlaps the one before,
        # so every block of a long signal is full size. NumPy evaluates
        # `s * conj(s)` as `conj(s) * s` in place once the temporary
        # reaches 256 KiB (temporary elision), and the two round
        # differently: a short block would not round like a whole-signal
        # array does.
        start = max(0, min(start, n - _BLOCK_FRAMES))
        block = frames[start:start + _BLOCK_FRAMES]
        rows = slice(start, start + block.shape[0])
        squares = block ** 2
        stats.rms[rows] = np.sqrt(squares.mean(axis=1))
        if lags is not None:
            stats.peak[rows] = np.abs(block).max(axis=1)
            stats.best[rows], stats.best_corr[rows] = _best_lags(block, lags, nfft)
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


def pitch_track(audio: AudioBuffer, fmin: float = 75.0, fmax: float = 500.0,
                frame: float = 0.040, hop: float = 0.010) -> PeriodTrack:
    """Fundamental periods and peak amplitudes of the voiced frames."""
    frame_len, hop_len = _frame_lengths(audio.sample_rate, frame, hop)
    lags = _pitch_lags(audio, frame_len, fmin, fmax)
    stats = _frame_pass(audio, frame_len, hop_len, lags=lags)
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
        chunk = x[start:start + _ZCR_CHUNK + 1]
        flips += int(np.count_nonzero((chunk[:-1] * chunk[1:]) < 0))
    return flips / (x.size - 1)


def _features(audio: AudioBuffer, stats: _FrameStats | None, track: PeriodTrack,
              flags: set[str] | None) -> dict[str, float]:
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
        if flags is not None:
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
    elif flags is not None:
        flags.add("acoustic_too_few_periods")
    if periods.size >= 5:
        features["ppq5Jitter"] = _neighborhood_instability(periods, 5)
    elif flags is not None:
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
                      frame: float = 0.040, hop: float = 0.010,
                      flags: set[str] | None = None) -> dict[str, float]:
    """The 15 acoustic features keyed by their printed names.

    Pitch statistics run over 1/period of the voiced frames; jitter and
    shimmer follow the standard cycle-to-cycle definitions with ddp = 3*rap
    and dda = 3*apq3 as exact identities.
    """
    frame_len, hop_len = _frame_lengths(audio.sample_rate, frame, hop)
    stats = None
    if audio.samples.size >= frame_len:
        stats = _frame_pass(audio, frame_len, hop_len, spectral=True)
    return _features(audio, stats, track, flags)


def extract_acoustic(audio: AudioBuffer, fmin: float = 75.0, fmax: float = 500.0,
                     frame: float = 0.040, hop: float = 0.010,
                     flags: set[str] | None = None) -> dict[str, float]:
    """`acoustic_features(audio, pitch_track(audio))` in one framing pass."""
    frame_len, hop_len = _frame_lengths(audio.sample_rate, frame, hop)
    lags = _pitch_lags(audio, frame_len, fmin, fmax)
    stats = _frame_pass(audio, frame_len, hop_len, lags=lags, spectral=True)
    track = _period_track(stats, lags, audio.sample_rate)
    return _features(audio, stats, track, flags)
