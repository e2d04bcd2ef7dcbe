"""Breakdown- and speed-fluency features from the aligned word timeline.

Silences are inter-word gaps longer than 0.145 s (strictly), long silences
longer than 0.495 s. Leading and trailing silence never enters the profile
because only gaps between consecutive words are considered. Filled-pause
tokens count for filled_pause_rate but are excluded from every word-count
denominator (speaking/articulation rates and the silence-rate features).
"""

from __future__ import annotations

import re

import numpy as np

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

# One character for which str.isalnum() holds.
_ALNUM = re.compile(r"[^\W_]")


class EmptyResponse(ValueError):
    """Raised when a response has no words to profile."""


def mean_absolute_deviation(values) -> float:
    """Mean absolute difference from the mean ("mean deviation")."""
    if not len(values):
        return 0.0
    mean = sum(values) / len(values)
    with np.errstate(all="ignore"):
        deviations = np.abs(np.asarray(values, dtype=np.float64) - mean)
    return sum(deviations.tolist()) / len(values)


def fluency_features(response: AlignedResponse,
                     resources: LexicalResources,
                     flags: set[str] | None = None) -> dict[str, float]:
    """The ten breakdown/speed-fluency features keyed by their printed names.

    Only words that carry speech count; punctuation pseudo-words in the
    timeline (kept so tokens stay parallel to words) contribute only pause
    time. Sums run left to right over Python floats, as the features were
    defined."""
    words = response.words
    spoken = [i for i, text in enumerate(words.text) if _ALNUM.search(text)]
    if not spoken:
        raise EmptyResponse(response.response_id)
    starts, ends = words.start[spoken], words.end[spoken]
    fillers = resources.filled_pauses
    n_fillers = sum(1 for i in spoken if words.text[i] in fillers)
    n_words = len(spoken) - n_fillers

    # inf and NaN times give the IEEE results Python floats would, silently.
    with np.errstate(all="ignore"):
        response_time = float(ends[-1] - starts[0])
        articulation_time = sum((ends - starts).tolist())
        gaps = starts[1:] - ends[:-1]
    features = dict.fromkeys(FLUENCY_FEATURES, 0.0)
    features["filled_pause_rate"] = n_fillers / response_time if response_time > 0 else 0.0
    if response_time > 0:
        features["speaking_rate"] = n_words / response_time
    if articulation_time > 0:
        features["articulation_rate"] = n_words / articulation_time

    if n_words < 2:
        if flags is not None:
            flags.add("fluency_degenerate")
        return features

    durations = gaps[gaps > SILENCE_THRESHOLD].tolist()
    features["general_silence"] = float(len(durations))
    if durations:
        features["mean_silence"] = sum(durations) / len(durations)
        features["silence_absolute_deviation"] = mean_absolute_deviation(durations)
    features["SilenceRate1"] = len(durations) / n_words
    features["SilenceRate2"] = len(durations) / response_time
    long_durations = gaps[gaps > LONG_SILENCE_THRESHOLD].tolist()
    if long_durations:
        features["long_silence_deviation"] = mean_absolute_deviation(long_durations)
    elif flags is not None:
        flags.add("fluency_no_long_silences")
    features["longpfreq"] = len(long_durations) / n_words
    return features
