"""Breakdown- and speed-fluency features from the aligned word timeline.

Silences are inter-word gaps longer than 0.145 s (strictly), long silences
longer than 0.495 s. Leading and trailing silence never enters the profile
because only gaps between consecutive words are considered. Filled-pause
tokens count for filled_pause_rate but are excluded from every word-count
denominator (speaking/articulation rates and the silence-rate features).
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import AlignedResponse, LexicalResources

SILENCE_THRESHOLD = 0.145
LONG_SILENCE_THRESHOLD = 0.495

FLUENCY_FEATURES = (
    "filled_pause_rate",
    "general_silence",
    "mean_silence",
    "silence_absolute_deviation",
    "SilenceRate1",
    "SilenceRate2",
    "long_silence_deviation",
    "speaking_rate",
    "articulation_rate",
    "longpfreq",
)


class EmptyResponse(ValueError):
    """Raised when a response has no words to profile."""


@dataclass
class SilenceProfile:
    gaps: list[tuple[float, float]]            # (start, duration) between words
    silences: list[tuple[float, float]]        # gaps with duration > 0.145 s
    long_silences: list[tuple[float, float]]   # gaps with duration > 0.495 s
    response_time: float                       # last word end - first word start
    articulation_time: float                   # sum of word durations


def _spoken_words(response: AlignedResponse):
    """Words that carry speech; punctuation pseudo-words in the timeline
    (kept so tokens stay parallel to words) contribute only pause time."""
    return [w for w in response.words if any(ch.isalnum() for ch in w.text)]


def silence_profile(response: AlignedResponse) -> SilenceProfile:
    return _silence_profile(response.response_id, _spoken_words(response))


def _silence_profile(response_id: str, words) -> SilenceProfile:
    if not words:
        raise EmptyResponse(response_id)
    gaps = []
    for prev, nxt in zip(words, words[1:]):
        duration = nxt.start - prev.end
        if duration > 0:
            gaps.append((prev.end, duration))
    silences = [g for g in gaps if g[1] > SILENCE_THRESHOLD]
    long_silences = [g for g in gaps if g[1] > LONG_SILENCE_THRESHOLD]
    return SilenceProfile(
        gaps=gaps, silences=silences, long_silences=long_silences,
        response_time=words[-1].end - words[0].start,
        articulation_time=sum(w.duration for w in words))


def mean_absolute_deviation(values) -> float:
    """Mean absolute difference from the mean ("mean deviation")."""
    if not len(values):
        return 0.0
    mean = sum(values) / len(values)
    return sum(abs(v - mean) for v in values) / len(values)


def fluency_features(response: AlignedResponse,
                     resources: LexicalResources,
                     flags: set[str] | None = None) -> dict[str, float]:
    """The ten breakdown/speed-fluency features keyed by their printed names."""
    spoken = _spoken_words(response)
    profile = _silence_profile(response.response_id, spoken)
    fillers = resources.filled_pauses
    n_fillers = sum(1 for w in spoken if w.text in fillers)
    n_words = len(spoken) - n_fillers

    response_time = profile.response_time
    features = dict.fromkeys(FLUENCY_FEATURES, 0.0)
    features["filled_pause_rate"] = n_fillers / response_time if response_time > 0 else 0.0
    if response_time > 0:
        features["speaking_rate"] = n_words / response_time
    if profile.articulation_time > 0:
        features["articulation_rate"] = n_words / profile.articulation_time

    if n_words < 2:
        if flags is not None:
            flags.add("fluency_degenerate")
        return features

    durations = [d for _, d in profile.silences]
    features["general_silence"] = float(len(durations))
    if durations:
        features["mean_silence"] = sum(durations) / len(durations)
        features["silence_absolute_deviation"] = mean_absolute_deviation(durations)
    features["SilenceRate1"] = len(durations) / n_words
    features["SilenceRate2"] = len(durations) / response_time
    long_durations = [d for _, d in profile.long_silences]
    if long_durations:
        features["long_silence_deviation"] = mean_absolute_deviation(long_durations)
    elif flags is not None:
        flags.add("fluency_no_long_silences")
    features["longpfreq"] = len(long_durations) / n_words
    return features
