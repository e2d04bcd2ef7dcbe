"""Acoustic features from raw audio: pitch and energy statistics, spectral
shape, and cycle-to-cycle voice-quality measures (jitter, shimmer).

The pitch tracker is a frame-based normalized autocorrelation: per frame it
picks the lag with the highest normalized correlation inside the
[1/fmax, 1/fmin] band and rejects frames whose peak correlation falls below
the voicing threshold or whose RMS sits under the silence floor. This is an
approximation of point-process pulse extraction, sufficient for the
instability measures computed here.

The autocorrelation is the inverse FFT of a frame's power spectrum, a
circular correlation of length nfft: its lag k adds in the linear
correlation's lag nfft - k. The linear correlation of an N-sample frame is
zero beyond lag N - 1, so for every lag the tracker reads (k <= lag_max)
that added term is zero once nfft >= N + lag_max. The pass takes the
smallest 2^a * 3^b * 5^c at least that (`_fft_length`): 864 points for
40 ms frames at 16 kHz with fmin 75 Hz (lag_max 213), where the power of
two >= 2N would be 2048. A lag whose prefix x[0:N-lag] or suffix x[lag:N]
holds no energy (their energies' product at most 1e-300), as digital
silence at the head of a frame whose mean is exactly 0 does, correlates 0:
its FFT value is rounding noise, which the floor would scale to ~1e133.

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
O(duration). A block holds enough frames for its widest complex spectrum
(the pitch spectrum, or without pitch the frame spectrum) to fill
`_BLOCK_BYTES`, so its arrays stay about the same size whatever the sample
rate and frame length; that size is chosen for cache and memory alone.
Every frame goes through the same arithmetic as it would in one
whole-signal array, so the features do not depend on the block size.

The one step whose rounding depends on an array's size is the power
spectrum `s * np.conj(s)` of the whole-signal form: NumPy evaluates it in
place as `conj(s) * s` once the temporary `conj(s)` reaches 256 KiB
(temporary elision), and as `s * conj(s)` below that, and the two round
differently. The pass writes the product itself, in the order the whole
signal's pitch spectrum (frames * (nfft/2 + 1) * 16 bytes) would take.

The pass writes every block-sized array (FFT outputs included, hence NumPy
>= 2.0) into buffers made once per response, and allocates nothing per
block beyond the per-frame vectors. Blocks allocated afresh left the speed
to the C allocator's history: without an earlier large free, glibc returned
each block's temporaries to the system and faulted them back in for the
next block, which made a 60 s response take ~1.6x as long.
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

# Bytes of a block's complex pitch spectrum in the framing pass (152 frames
# at 16 kHz with 40 ms frames), a size chosen for cache and memory only (see
# the module docstring). At 512 KiB the per-frame vectors, which grow with
# duration, would set most of the peak: it rose 1.59x from 20 to 200 s of
# audio, against 1.31x at 1 MiB.
_BLOCK_BYTES = 1 << 20
# NumPy evaluates an operation on a temporary of at least this many bytes in
# place (temporary elision).
_ELISION_BYTES = 256 << 10
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
            nframes = fh.getnframes()
            raw = fh.readframes(nframes)
    except (wave.Error, EOFError) as exc:
        raise ValueError(f"{path}: malformed WAV ({exc})") from exc
    if len(raw) < 2 * nframes:
        raise ValueError(f"{path}: truncated WAV: the header gives {nframes} "
                         f"frames ({2 * nframes} bytes), the data holds "
                         f"{len(raw)} bytes")
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
    every block (module docstring); a part the pass does not compute has
    none."""

    signal: np.ndarray                  # (span,): a block's samples as float
    squares: np.ndarray                 # (rows, frame_len)
    frames: np.ndarray | None = None    # (rows, frame_len): |block|, then centered
    energy: np.ndarray | None = None    # (rows, frame_len)
    spectrum: np.ndarray | None = None  # (rows, nfft/2 + 1), complex
    power: np.ndarray | None = None     # (rows, nfft/2 + 1), complex
    acorr: np.ndarray | None = None     # (rows, nfft)
    corr: np.ndarray | None = None      # (rows, lags): denominators, then correlations
    silent: np.ndarray | None = None    # (rows, lags), bool: lags of no lagged energy
    rfft: np.ndarray | None = None      # (rows, frame_len/2 + 1), complex
    magnitude: np.ndarray | None = None  # (rows, frame_len/2 + 1)

    @classmethod
    def empty(cls, rows: int, frame_len: int, hop_len: int, nfft: int | None,
              n_lags: int, spectral: bool) -> "_BlockBuffers":
        """Buffers for blocks of `rows` frames: the pitch part when `nfft` is
        given, the spectral part when `spectral` is set."""
        buffers = cls(np.empty((rows - 1) * hop_len + frame_len),
                      np.empty((rows, frame_len)))
        if nfft is not None:
            pitch_bins = nfft // 2 + 1
            buffers.frames = np.empty((rows, frame_len))
            buffers.energy = np.empty((rows, frame_len))
            buffers.spectrum = np.empty((rows, pitch_bins), dtype=np.complex128)
            buffers.power = np.empty((rows, pitch_bins), dtype=np.complex128)
            buffers.acorr = np.empty((rows, nfft))
            buffers.corr = np.empty((rows, n_lags))
            buffers.silent = np.empty((rows, n_lags), dtype=bool)
        if spectral:
            bins = frame_len // 2 + 1
            buffers.rfft = np.empty((rows, bins), dtype=np.complex128)
            buffers.magnitude = np.empty((rows, bins))
        return buffers


def _fft_length(n: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= n: a length that pocketfft
    transforms with its fast radices only."""
    best = 1 << (n - 1).bit_length()
    fives = 1
    while fives < best:
        threes = fives
        while threes < best:
            length = threes
            while length < n:
                length *= 2
            best = min(best, length)
            threes *= 3
        fives *= 5
    return best


def _best_lags(block: np.ndarray, lags: np.ndarray, nfft: int, elide: bool,
               buffers: _BlockBuffers) -> tuple[np.ndarray, np.ndarray]:
    """Lag index of the highest normalized autocorrelation, and its value.

    `elide` picks the product order of the power spectrum that the whole
    signal's ``s * np.conj(s)`` takes (module docstring)."""
    frame_len = block.shape[1]
    lag_min, lag_max = lags[0], lags[-1]
    centered = np.subtract(block, block.mean(axis=1, keepdims=True),
                           out=buffers.frames)
    spectrum = np.fft.rfft(centered, n=nfft, axis=1, out=buffers.spectrum)
    power = np.conj(spectrum, out=buffers.power)
    if elide:
        np.multiply(power, spectrum, out=power)
    else:
        np.multiply(spectrum, power, out=power)
    acorr = np.fft.irfft(power, n=nfft, axis=1, out=buffers.acorr)
    energy = np.cumsum(np.square(centered, out=centered), axis=1,
                       out=buffers.energy)
    # prefix energy of x[0 : N-lag] and suffix energy of x[lag : N]
    e_pre = energy[:, frame_len - lag_max - 1:frame_len - lag_min][:, ::-1]
    corr = np.subtract(energy[:, -1:], energy[:, lag_min - 1:lag_max],
                       out=buffers.corr)
    np.multiply(e_pre, corr, out=corr)
    # A lag whose prefix or suffix holds no energy correlates with nothing;
    # dividing its FFT rounding noise by the floor would read as |corr| ~ 1e133.
    silent = np.less_equal(corr, 1e-300, out=buffers.silent)
    np.sqrt(np.maximum(corr, 1e-300, out=corr), out=corr)
    np.divide(acorr[:, lag_min:lag_max + 1], corr, out=corr)
    np.copyto(corr, 0.0, where=silent)
    best = np.argmax(corr, axis=1)
    return best, np.take_along_axis(corr, best[:, None], axis=1)[:, 0]


def _block_frames(bins: int) -> int:
    """Frames per block: enough for the block's widest complex spectrum
    (`bins` bins of 16 bytes per frame) to fill `_BLOCK_BYTES`."""
    return -(-_BLOCK_BYTES // (16 * bins))


def _frame_pass(audio: AudioBuffer, frame_len: int, hop_len: int,
                lags: np.ndarray | None, spectral: bool) -> _FrameStats:
    """One block-wise pass over the frames of `audio`.

    Always computes the frame RMS; with `lags`, the pitch part (peak and best
    lag); with `spectral`, the sub-band energies and spectral mass/centroid.
    """
    n = (audio.samples.size - frame_len) // hop_len + 1
    nfft, bins = None, frame_len // 2 + 1
    stats = _FrameStats(rms=np.empty(n))
    if lags is not None:
        nfft = _fft_length(frame_len + int(lags[-1]))
        bins = nfft // 2 + 1
        # Whether `s * np.conj(s)` over the whole signal's pitch spectrum
        # would be evaluated in place as `conj(s) * s` (module docstring).
        elide = n * 16 * bins >= _ELISION_BYTES
        stats.peak = np.empty(n)
        stats.best = np.empty(n, dtype=np.intp)
        stats.best_corr = np.empty(n)
    block_frames = _block_frames(bins)
    buffers = _BlockBuffers.empty(min(n, block_frames), frame_len, hop_len,
                                  nfft, 0 if lags is None else lags.size,
                                  spectral)
    sub = frame_len // 10
    if spectral:
        if sub >= 1:
            stats.bands = np.empty((n, 10))
        stats.mass = np.empty(n)
        stats.centroid_num = np.empty(n)
        freqs = np.fft.rfftfreq(frame_len, d=1.0 / audio.sample_rate)

    for start in range(0, n, block_frames):
        # The last block ends at the last frame and overlaps the one before,
        # so every block fills the buffers exactly.
        start = max(0, min(start, n - block_frames))
        rows = slice(start, min(start + block_frames, n))
        span = audio.samples[start * hop_len:(rows.stop - 1) * hop_len + frame_len]
        if span.dtype == np.int16:
            span = np.multiply(span, _PCM_SCALE, out=buffers.signal,
                               dtype=np.float64)
        block = sliding_window_view(span, frame_len)[::hop_len]
        squares = np.square(block, out=buffers.squares)
        stats.rms[rows] = np.sqrt(squares.mean(axis=1))
        if lags is not None:
            stats.peak[rows] = np.abs(block, out=buffers.frames).max(axis=1)
            stats.best[rows], stats.best_corr[rows] = _best_lags(
                block, lags, nfft, elide, buffers)
        if spectral:
            if sub >= 1:
                trimmed = squares[:, :10 * sub].reshape(block.shape[0], 10, sub)
                stats.bands[rows] = trimmed.sum(axis=2)
            spectrum = np.abs(np.fft.rfft(block, axis=1, out=buffers.rfft),
                              out=buffers.magnitude)
            stats.mass[rows] = spectrum.sum(axis=1)
            stats.centroid_num[rows] = np.multiply(
                spectrum, freqs, out=spectrum).sum(axis=1)
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
