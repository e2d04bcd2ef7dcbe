import dataclasses
import itertools
import multiprocessing
import tempfile
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest
from conftest import make_response, make_word
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from speechscore.acoustic import (_BLOCK_BYTES, _ELISION_BYTES, _SILENCE_FLOOR,
                                  _VOICING_THRESHOLD, ACOUSTIC_FEATURES,
                                  AudioBuffer, PeriodTrack, _block_frames,
                                  _fft_length, _frame_lengths, _frame_pass,
                                  _neighborhood_instability, _pitch_lags,
                                  acoustic_features, extract_acoustic,
                                  pitch_track, read_wav, write_wav)
from speechscore.features import ExtractorConfig, extract_matrix

CONFIG = ExtractorConfig()


def sine(freq, seconds=1.0, sr=16000, amp=0.5):
    t = np.arange(int(seconds * sr)) / sr
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), sr)


class TestReadWav:
    def test_silence(self, tmp_path):
        path = tmp_path / "s.wav"
        write_wav(path, AudioBuffer(np.zeros(16000), 16000))
        audio = read_wav(path)
        assert audio.sample_rate == 16000
        assert audio.samples.dtype == np.int16
        assert audio.samples.size == 16000
        assert np.all(audio.signal == 0.0)

    def test_full_scale_square_wave(self, tmp_path):
        path = tmp_path / "sq.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(np.full(100, 32767, dtype="<i2").tobytes())
        audio = read_wav(path)
        assert audio.signal.dtype == np.float64
        assert np.all(audio.signal == approx(32767 / 32768))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFF\x00\x00")
        with pytest.raises(ValueError, match="malformed"):
            read_wav(path)

    @pytest.mark.parametrize("cut", [200, 201])
    def test_truncated_data_rejected(self, tmp_path, cut):
        # An even cut must not read as fewer samples, and an odd one must
        # not end in NumPy's buffer-size error, which names no file.
        path = tmp_path / "cut.wav"
        write_wav(path, sine(200.0, seconds=1000 / 16000))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError,
                           match=r"cut\.wav: truncated WAV: the header gives "
                                 r"1000 frames \(2000 bytes\)"):
            read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(np.zeros(400, dtype="<i2").tobytes())
        with pytest.raises(ValueError, match="mono"):
            read_wav(path)


class TestPitchTrack:
    def test_pure_tone_period(self):
        audio = sine(100.0)
        track = pitch_track(audio, CONFIG)
        assert track.periods.size > 50
        assert np.all(np.abs(track.periods - 0.010) <= 1.0 / 16000 + 1e-12)

    def test_low_noise_mostly_unvoiced(self):
        rng = np.random.default_rng(0)
        audio = AudioBuffer(0.01 * rng.standard_normal(16000), 16000)
        track = pitch_track(audio, CONFIG)
        n_frames = (16000 - 640) // 160 + 1
        assert track.periods.size <= 0.1 * n_frames

    def test_too_short(self):
        with pytest.raises(ValueError):
            pitch_track(AudioBuffer(np.zeros(320), 16000), CONFIG)

    @pytest.mark.parametrize("frame, hop, message", [
        (1e-5, 0.01, "frame of 1e-05 s is 0 samples"),
        (0.04, 1e-5, "hop of 1e-05 s is 0 samples"),
        # ExtractorConfig rejects a negative hop before any framing.
        (0.04, -0.01, "hop must be finite and > 0, got -0.01")])
    def test_frame_and_hop_of_no_samples_rejected(self, frame, hop, message):
        # 1e-5 s is 0.16 samples at 16 kHz, which rounds to none.
        for extract in (pitch_track, lambda audio, config:
                        extract_acoustic(audio, config, set())):
            with pytest.raises(ValueError, match=message):
                extract(sine(200.0), ExtractorConfig(frame=frame, hop=hop))

    def test_lags_of_no_energy_correlate_with_nothing(self):
        # A burst that sums to exactly 0 leaves the mean of the frames that
        # hold it exactly 0, so the silence before it stays exactly 0 once
        # centered, and the lags whose prefix lies in that silence have no
        # energy. Their correlation is 0, not FFT rounding noise over 1e-150.
        burst = np.tile([1200, -700, -500, 300, -300], 16)
        pcm = np.concatenate([np.zeros(2000), burst, np.zeros(2000)]).astype(np.int16)
        audio = AudioBuffer(pcm, 16000)
        frame_len, hop_len = _frame_lengths(audio.sample_rate, CONFIG)
        lags = _pitch_lags(audio, frame_len, CONFIG)
        stats = _frame_pass(audio, frame_len, hop_len, lags, False)
        live = stats.rms >= _SILENCE_FLOOR
        assert live.any()
        assert np.all(stats.best_corr[live] <= 1 + 1e-9), stats.best_corr[live].max()

    def test_silence_floor(self):
        audio = sine(100.0, amp=1e-6)
        assert pitch_track(audio, CONFIG).periods.size == 0


class TestAcousticFeatures:
    def test_pure_tone_stability(self):
        audio = sine(100.0, seconds=2.0)
        f = acoustic_features(audio, pitch_track(audio, CONFIG), CONFIG, set())
        for name in ("rapJitter", "ppq5Jitter", "ddpJitter", "localShimmer",
                     "apq3Shimmer", "aqpq5Shimmer", "ddaShimmer"):
            assert f[name] < 1e-3, name
        assert f["mean_pitch"] == approx(100.0, abs=1.0)
        assert f["total_duration"] == approx(2.0)

    def test_identities(self):
        rng = np.random.default_rng(1)
        periods = 0.01 * (1 + 0.03 * rng.standard_normal(40))
        amps = 0.5 * (1 + 0.2 * rng.random(40))
        track = PeriodTrack(periods, amps)
        f = acoustic_features(sine(100.0), track, CONFIG, set())
        assert f["ddpJitter"] == 3.0 * f["rapJitter"]
        assert f["ddaShimmer"] == 3.0 * f["apq3Shimmer"]
        assert all(f[n] >= 0 for n in ACOUSTIC_FEATURES)

    def test_shimmer_by_hand(self):
        # constant periods, amplitudes alternating 0.5/1.0
        track = PeriodTrack(np.full(6, 0.01), np.tile([0.5, 1.0], 3))
        f = acoustic_features(sine(100.0), track, CONFIG, set())
        assert f["localShimmer"] == approx(0.5 / 0.75)

    def test_zero_crossing_rate(self):
        audio = AudioBuffer(np.array([1.0, -1.0, 1.0, -1.0]), 16000)
        track = PeriodTrack(np.zeros(0), np.zeros(0))
        f = acoustic_features(audio, track, CONFIG, set())
        assert f["zero_crossing_rate"] == 1.0

    def test_scale_invariance(self):
        audio = sine(120.0, seconds=1.5)
        scaled = AudioBuffer(audio.samples * 0.35, audio.sample_rate)
        f1 = acoustic_features(audio, pitch_track(audio, CONFIG), CONFIG, set())
        f2 = acoustic_features(scaled, pitch_track(scaled, CONFIG), CONFIG, set())
        for name in ("rapJitter", "ppq5Jitter", "ddpJitter", "localShimmer",
                     "apq3Shimmer", "aqpq5Shimmer", "ddaShimmer"):
            assert f2[name] == approx(f1[name], abs=1e-12)

    def test_empty_track_flagged(self):
        flags = set()
        f = acoustic_features(sine(100.0), PeriodTrack(np.zeros(0), np.zeros(0)),
                              CONFIG, flags)
        assert "acoustic_no_voiced_frames" in flags
        assert f["mean_pitch"] == 0.0 and f["rapJitter"] == 0.0

    def test_emits_all_features(self):
        audio = sine(100.0)
        f = acoustic_features(audio, pitch_track(audio, CONFIG), CONFIG, set())
        assert set(f) == set(ACOUSTIC_FEATURES)
        assert f["spectral_centroid"] > 0
        assert f["energy_entropy"] > 0


def perturbed_tone(p, seconds=2.0, sr=16000, base=0.01, seed=4):
    """Cycle-by-cycle sine whose periods are jittered by +-p percent."""
    rng = np.random.default_rng(seed)
    samples = []
    t = 0.0
    while t < seconds:
        period = base * (1 + p * (2 * rng.random() - 1))
        n = max(8, int(round(period * sr)))
        samples.append(0.5 * np.sin(2 * np.pi * np.arange(n) / n))
        t += n / sr
    return AudioBuffer(np.concatenate(samples), sr)


def test_jitter_monotone_in_perturbation():
    values = []
    for p in (0.0, 0.01, 0.02, 0.05):
        audio = perturbed_tone(p)
        f = acoustic_features(audio, pitch_track(audio, CONFIG), CONFIG, set())
        values.append(f["rapJitter"])
    assert values == sorted(values), values
    assert values[-1] > values[0]


# --- Reference: the whole-signal implementation the block pass replaced ---

def _reference_frames(samples, frame_len, hop):
    n = (samples.size - frame_len) // hop + 1
    idx = np.arange(frame_len)[None, :] + hop * np.arange(n)[:, None]
    return samples[idx]


def _reference_correlations(audio, fmin=75.0, fmax=500.0, frame=0.040,
                            hop=0.010, nfft=None):
    """Per frame: RMS, peak and the normalized correlation of every lag;
    plus the lags. The autocorrelation FFT has `nfft` points, by default
    the framing pass's length."""
    sr = audio.sample_rate
    frame_len = int(round(frame * sr))
    hop_len = max(1, int(round(hop * sr)))
    if audio.samples.size < frame_len:
        raise ValueError("audio shorter than one analysis frame")
    lag_min = max(1, int(np.ceil(sr / fmax)))
    lag_max = min(frame_len - 1, int(np.floor(sr / fmin)))
    if lag_max <= lag_min:
        raise ValueError("frame too short for the requested pitch band")

    frames = _reference_frames(audio.samples, frame_len, hop_len)
    rms = np.sqrt((frames ** 2).mean(axis=1))
    peak = np.abs(frames).max(axis=1)

    centered = frames - frames.mean(axis=1, keepdims=True)
    if nfft is None:
        nfft = _fft_length(frame_len + lag_max)
    spectrum = np.fft.rfft(centered, n=nfft, axis=1)
    acorr = np.fft.irfft(spectrum * np.conj(spectrum), n=nfft, axis=1)[:, :frame_len]

    energy = np.cumsum(centered ** 2, axis=1)
    total = energy[:, -1:]
    lags = np.arange(lag_min, lag_max + 1)
    e_pre = energy[:, frame_len - lags - 1]
    e_suf = total - np.where(lags[None, :] > 0, energy[:, lags - 1], 0.0)
    product = e_pre * e_suf
    corr = acorr[:, lag_min:lag_max + 1] / np.sqrt(np.maximum(product, 1e-300))
    corr[product <= 1e-300] = 0.0
    return rms, peak, corr, lags


def _reference_frame_pitch(audio, frame=0.040, hop=0.010):
    """Per frame: RMS, peak, best lag, its correlation; plus the lags."""
    rms, peak, corr, lags = _reference_correlations(audio, frame=frame, hop=hop)
    best = np.argmax(corr, axis=1)
    return rms, peak, best, corr[np.arange(corr.shape[0]), best], lags


def _reference_pitch_track(audio, frame=0.040, hop=0.010,
                           voicing_threshold=0.5, silence_floor=1e-4):
    rms, peak, best, best_corr, lags = _reference_frame_pitch(
        audio, frame=frame, hop=hop)
    voiced = (best_corr >= voicing_threshold) & (rms >= silence_floor)
    periods = (lags[best[voiced]]) / audio.sample_rate
    return PeriodTrack(periods=periods, amplitudes=peak[voiced])


def _reference_neighborhood_instability(values, window):
    n = values.size
    half = window // 2
    if n < window:
        return 0.0
    diffs = [abs(values[i] - values[i - half:i + half + 1].mean())
             for i in range(half, n - half)]
    return float(np.mean(diffs) / values.mean())


def _reference_acoustic_features(audio, track, frame=0.040, hop=0.010,
                                 flags=None):
    sr = audio.sample_rate
    frame_len = int(round(frame * sr))
    hop_len = max(1, int(round(hop * sr)))
    features = dict.fromkeys(ACOUSTIC_FEATURES, 0.0)
    features["total_duration"] = audio.duration

    x = audio.samples
    sign_flip = (x[:-1] * x[1:]) < 0
    features["zero_crossing_rate"] = float(sign_flip.sum() / (x.size - 1)) if x.size > 1 else 0.0

    if x.size >= frame_len:
        frames = _reference_frames(x, frame_len, hop_len)
        rms = np.sqrt((frames ** 2).mean(axis=1))
        features["stdev_energy"] = float(rms.std())

        sub = frame_len // 10
        if sub >= 1:
            trimmed = frames[:, :10 * sub].reshape(frames.shape[0], 10, sub)
            bins = (trimmed ** 2).sum(axis=(0, 2))
            total = bins.sum()
            if total > 0:
                p = bins / total
                p = p[p > 0]
                features["energy_entropy"] = float(-(p * np.log2(p)).sum())

        spectrum = np.abs(np.fft.rfft(frames, axis=1))
        freqs = np.fft.rfftfreq(frame_len, d=1.0 / sr)
        mass = spectrum.sum(axis=1)
        nonzero = mass > 0
        if nonzero.any():
            centroids = (spectrum[nonzero] * freqs).sum(axis=1) / mass[nonzero]
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
        rap = _reference_neighborhood_instability(periods, 3)
        features["rapJitter"] = rap
        features["ddpJitter"] = 3.0 * rap
    elif flags is not None:
        flags.add("acoustic_too_few_periods")
    if periods.size >= 5:
        features["ppq5Jitter"] = _reference_neighborhood_instability(periods, 5)
    elif flags is not None:
        flags.add("acoustic_too_few_periods_ppq5")

    if amps.size >= 2 and amps.mean() > 0:
        features["localShimmer"] = float(np.abs(np.diff(amps)).mean() / amps.mean())
        if amps.size >= 3:
            apq3 = _reference_neighborhood_instability(amps, 3)
            features["apq3Shimmer"] = apq3
            features["ddaShimmer"] = 3.0 * apq3
        if amps.size >= 5:
            features["aqpq5Shimmer"] = _reference_neighborhood_instability(amps, 5)
    return features


def _hex(features):
    return {name: float(value).hex() for name, value in features.items()}


_FRAME_HOPS = [(0.040, 0.010), (0.030, 0.007), (0.050, 0.013)]
_RATES = [8000, 16000, 22050]


def _pitch_nfft(sr, frame_len, config=CONFIG):
    """The framing pass's pitch FFT length, and the old power of two."""
    lags = _pitch_lags(AudioBuffer(np.zeros(frame_len), sr), frame_len, config)
    return (_fft_length(frame_len + int(lags[-1])),
            1 << int(np.ceil(np.log2(2 * frame_len))))


@st.composite
def _framing(draw):
    """Sample rate, frame and hop, and a signal length in samples whose frame
    count sits at or around a boundary of the computed block length (of the
    pitch pass and of the spectral-only pass), or of the first count whose
    whole-signal pitch spectrum reaches NumPy's elision floor (where
    `s * np.conj(s)` changes its product order)."""
    sr = draw(st.sampled_from(_RATES))
    frame, hop = draw(st.sampled_from(_FRAME_HOPS))
    frame_len, hop_len = _frame_lengths(sr, ExtractorConfig(frame=frame, hop=hop))
    nfft, _ = _pitch_nfft(sr, frame_len)
    block = _block_frames(nfft // 2 + 1)
    spectral = _block_frames(frame_len // 2 + 1)
    elided = -(-_ELISION_BYTES // (16 * (nfft // 2 + 1)))
    n_frames = draw(st.sampled_from([1, elided - 1, elided, elided + 1, block - 1,
                                     block, block + 1, 2 * block + 1,
                                     spectral - 1, spectral, spectral + 1]))
    size = frame_len + (n_frames - 1) * hop_len + draw(st.integers(0, hop_len - 1))
    return sr, frame, hop, size


def test_block_length_reaches_the_elision_floor():
    assert _BLOCK_BYTES >= 256 * 1024
    for sr in _RATES:
        for frame, hop in _FRAME_HOPS + [(0.015, 0.005), (0.2, 0.05)]:
            frame_len, _ = _frame_lengths(sr, ExtractorConfig(frame=frame, hop=hop))
            nfft, _ = _pitch_nfft(sr, frame_len)
            for bins in (nfft // 2 + 1, frame_len // 2 + 1):
                block = _block_frames(bins)
                spectrum_bytes = 16 * bins
                assert block * spectrum_bytes >= _BLOCK_BYTES
                assert (block - 1) * spectrum_bytes < _BLOCK_BYTES


def test_fft_length_is_the_smallest_5_smooth_length():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 5001):
        assert _fft_length(n) == next(m for m in itertools.count(n) if smooth(m)), n
    for sr in _RATES:
        for frame, hop in _FRAME_HOPS:
            config = ExtractorConfig(frame=frame, hop=hop)
            frame_len, _ = _frame_lengths(sr, config)
            lag_max = int(_pitch_lags(AudioBuffer(np.zeros(frame_len), sr),
                                      frame_len, config)[-1])
            nfft, power_of_two = _pitch_nfft(sr, frame_len, config)
            assert frame_len + lag_max <= nfft <= power_of_two
    assert _pitch_nfft(16000, 640) == (864, 2048)
    assert _pitch_nfft(16000, 480, ExtractorConfig(fmin=90.0, fmax=400.0)) == (675, 1024)


@st.composite
def _block_cases(draw):
    """Signals whose frame counts sit at and around the block boundaries."""
    sr, frame, hop, size = draw(_framing())
    kind = draw(st.sampled_from(["noise", "tone", "silence", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    t = np.arange(size) / sr
    f0 = draw(st.floats(90.0, 400.0))
    tone = 0.4 * np.sin(2 * np.pi * f0 * t + 0.2 * np.sin(2 * np.pi * 3 * t))
    if kind == "noise":
        x = 0.3 * rng.standard_normal(size)
    elif kind == "tone":
        x = tone
    elif kind == "silence":
        x = np.zeros(size)
    else:   # voiced stretches, near-silence and noise bursts
        segment = (t * 4).astype(int) % 3
        x = np.where(segment == 0, tone,
                     np.where(segment == 1, 1e-5 * rng.standard_normal(size),
                              0.05 * rng.standard_normal(size)))
    return AudioBuffer(np.clip(x, -1.0, 1.0), sr), frame, hop


class TestBlockPass:
    @given(_block_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_whole_signal_reference(self, case):
        audio, frame, hop = case
        # The per-frame correlations pin the arithmetic (FFT length and
        # order of operations), not only the voicing decisions they feed.
        config = ExtractorConfig(frame=frame, hop=hop)
        frame_len, hop_len = _frame_lengths(audio.sample_rate, config)
        lags = _pitch_lags(audio, frame_len, config)
        stats = _frame_pass(audio, frame_len, hop_len, lags, False)
        *per_frame, ref_lags = _reference_frame_pitch(audio, frame=frame, hop=hop)
        assert np.array_equal(lags, ref_lags)
        for got, want in zip((stats.rms, stats.peak, stats.best, stats.best_corr),
                             per_frame):
            assert got.tobytes() == want.tobytes()

        expected = _reference_pitch_track(audio, frame=frame, hop=hop)
        track = pitch_track(audio, config)
        assert np.array_equal(track.periods, expected.periods)
        assert np.array_equal(track.amplitudes, expected.amplitudes)

        expected_flags, flags, extract_flags = set(), set(), set()
        reference = _reference_acoustic_features(audio, expected, frame=frame,
                                                 hop=hop, flags=expected_flags)
        features = acoustic_features(audio, track, config, flags)
        extracted = extract_acoustic(audio, config, extract_flags)
        assert _hex(features) == _hex(reference)
        assert _hex(extracted) == _hex(reference)
        assert flags == extract_flags == expected_flags

    @given(_block_cases())
    @settings(max_examples=60, deadline=None)
    def test_lags_match_the_power_of_two_length(self, case):
        # Both lengths give the linear correlation at every read lag, so
        # only a near tie between two lags may pick differently.
        audio, frame, hop = case
        config = ExtractorConfig(frame=frame, hop=hop)
        frame_len, hop_len = _frame_lengths(audio.sample_rate, config)
        lags = _pitch_lags(audio, frame_len, config)
        stats = _frame_pass(audio, frame_len, hop_len, lags, False)
        _, power_of_two = _pitch_nfft(audio.sample_rate, frame_len)
        _, _, corr, _ = _reference_correlations(audio, frame=frame, hop=hop,
                                                nfft=power_of_two)
        rows = np.arange(corr.shape[0])
        best = corr.argmax(axis=1)
        live = stats.rms >= _SILENCE_FLOOR
        voiced = (stats.best_corr >= _VOICING_THRESHOLD) & live
        want_voiced = (corr[rows, best] >= _VOICING_THRESHOLD) & live
        moved = stats.best != best
        assert np.all(np.abs(corr[rows, stats.best] - corr[rows, best])[moved]
                      <= 1e-9)
        assert np.array_equal(voiced[~moved], want_voiced[~moved])

    def test_short_audio_features_without_frames(self):
        audio = AudioBuffer(np.array([0.5, -0.5, 0.25]), 16000)
        empty = PeriodTrack(np.zeros(0), np.zeros(0))
        assert (_hex(acoustic_features(audio, empty, CONFIG, set()))
                == _hex(_reference_acoustic_features(audio, empty)))
        with pytest.raises(ValueError, match="shorter than one analysis frame"):
            extract_acoustic(audio, CONFIG, set())

    def test_instability_matches_loop(self):
        rng = np.random.default_rng(3)
        for n in (3, 4, 5, 6, 50, 1001):
            values = 0.01 * (1 + 0.05 * rng.standard_normal(n))
            for window in (3, 5):
                assert (float(_neighborhood_instability(values, window)).hex()
                        == _reference_neighborhood_instability(values, window).hex())


@st.composite
def _pcm_cases(draw):
    """int16 signals at and around the block boundaries: full scale, silence,
    noise, and a tone."""
    sr, frame, hop, size = draw(_framing())
    kind = draw(st.sampled_from(["full_scale", "silence", "noise", "tone"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    t = np.arange(size) / sr
    tone = np.sin(2 * np.pi * draw(st.floats(90.0, 400.0)) * t)
    if kind == "full_scale":    # square wave between the two extremes
        pcm = np.where(tone >= 0, 32767, -32768)
    elif kind == "silence":
        pcm = np.zeros(size)
    elif kind == "noise":
        pcm = rng.integers(-32768, 32768, size)
    else:
        pcm = np.round(13000 * tone)
    return pcm.astype(np.int16), sr, frame, hop


class TestPcmBuffer:
    @given(_pcm_cases())
    @settings(max_examples=40, deadline=None)
    def test_read_wav_matches_float_buffer(self, case):
        pcm, sr, frame, hop = case
        floats = AudioBuffer(pcm / 32768.0, sr)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.wav"
            with wave.open(str(path), "wb") as fh:
                fh.setnchannels(1)
                fh.setsampwidth(2)
                fh.setframerate(sr)
                fh.writeframes(pcm.astype("<i2").tobytes())
            audio = read_wav(path)
            assert audio.samples.dtype == np.int16
            assert audio.signal.tobytes() == floats.signal.tobytes()

            flags, expected_flags = set(), set()
            config = ExtractorConfig(frame=frame, hop=hop)
            got = extract_acoustic(audio, config, flags)
            want = extract_acoustic(floats, config, expected_flags)
            assert _hex(got) == _hex(want)
            assert flags == expected_flags

            write_wav(Path(tmp) / "pcm.wav", audio)
            write_wav(Path(tmp) / "float.wav", floats)
            assert ((Path(tmp) / "pcm.wav").read_bytes()
                    == (Path(tmp) / "float.wav").read_bytes())

    def test_zero_crossings_of_extremes_do_not_overflow(self):
        pcm = np.array([32767, -32768, 32767, -32768, -32768], dtype=np.int16)
        track = PeriodTrack(np.zeros(0), np.zeros(0))
        f = acoustic_features(AudioBuffer(pcm, 8000), track, CONFIG, set())
        assert f["zero_crossing_rate"] == 3 / 4


def test_read_wav_holds_two_bytes_per_sample(tmp_path):
    """The PCM buffer of a 200 s WAV is the file's int16 data, not a float
    copy."""
    sr = 16000
    path = tmp_path / "long.wav"
    rng = np.random.default_rng(5)
    write_wav(path, AudioBuffer(0.3 * rng.standard_normal(200 * sr).clip(-3, 3), sr))
    tracemalloc.start()
    try:
        audio = read_wav(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert audio.samples.size == 200 * sr
    assert held <= 2.1 * audio.samples.size, held
    assert peak <= 2.1 * audio.samples.size, peak


def test_extract_memory_bounded_in_duration():
    """Peak allocation of extract_acoustic does not grow with duration."""
    def peak_mb(seconds):
        sr = 16000
        t = np.arange(int(seconds * sr)) / sr
        audio = AudioBuffer(0.4 * np.sin(2 * np.pi * 130 * t)
                            * ((t * 2).astype(int) % 2), sr)
        tracemalloc.start()
        try:
            extract_acoustic(audio, CONFIG, set())
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    short, long = peak_mb(20.0), peak_mb(200.0)
    # The 200 s input alone is 24 MB and was allocated before tracing.
    assert long < 32.0, (short, long)
    assert long < 1.5 * short, (short, long)


def test_af_extraction_thread_determinism(resources, tmp_path):
    responses = []
    for i in range(4):
        path = tmp_path / f"r{i}.wav"
        write_wav(path, perturbed_tone(0.01 * i, seconds=1.5 + 0.5 * i, seed=i))
        responses.append(dataclasses.replace(make_response(
            [make_word("cat", 0.1, 0.5, [("k", "c", 0), ("ae", "v", 1)])],
            response_id=f"r{i}"), audio_path=path))
    config = ExtractorConfig(groups=("AF",))
    runs = [extract_matrix(responses, resources, config, threads=threads)
            for threads in (1, 2, 3)]
    assert multiprocessing.active_children() == []
    for run in runs[1:]:
        assert run.values.tobytes() == runs[0].values.tobytes()
        assert run.flags == runs[0].flags
