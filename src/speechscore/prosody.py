"""Suprasegmental pronunciation features: stress placement and rhythm.

Syllables are built from the phoneme alignment with one syllable per vowel
nucleus; consonants between nuclei attach entirely to the following
syllable's onset (onset-maximal rule) and trailing consonants form the final
coda. Rhythm features operate on maximal same-class phoneme runs (vocalic /
consonantal) and on syllable spans, with durations in milliseconds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .corpus import (CONSONANT, PRIMARY, SILENCE, UNSTRESSED, VOWEL,
                     AlignedResponse)
from .fluency import mean_absolute_deviation

_GAP_EPS = 1e-6

STRESS_FEATURES = (
    "StressedSyllPercent",
    "StressDistanceSyllMean",
    "StressDistanceSyllSD",
    "StressDistanceMean",
    "StressDistanceSD",
)

INTERVAL_FEATURES = (
    "vowelPercentage",
    "consonantPercentage",
    "vowelDurationSD",
    "consonantDurationSD",
    "syllableDurationSD",
    "vowelSDNorm",
    "consonantSDNorm",
    "syllableSDNorm",
    "vowelPVI",
    "consonantPVI",
    "syllablePVI",
    "vowelPVINorm",
    "consonantPVINorm",
    "syllablePVINorm",
)

PROSODY_FEATURES = STRESS_FEATURES + INTERVAL_FEATURES


class NoNuclei(ValueError):
    """Raised when a response has no vowel phonemes to anchor syllables."""


@dataclass(frozen=True, eq=False)
class Syllables:
    """One syllable per vowel nucleus, in time order. ``first``,
    ``nucleus`` and ``last`` are positions in the timeline: a syllable's
    onset is ``first:nucleus`` and its coda ``nucleus + 1:last + 1``. It
    starts where its first phoneme starts and ends where its last ends."""

    first: np.ndarray
    nucleus: np.ndarray
    last: np.ndarray
    start: np.ndarray
    end: np.ndarray
    nucleus_start: np.ndarray
    stressed: np.ndarray


def _timeline(response: AlignedResponse) -> np.ndarray:
    """Positions in ``response.phones`` of the non-silence, positive-duration
    phonemes, which are in time order.

    A NaN duration is kept: only a duration that compares <= 0 is dropped.
    """
    phones = response.phones
    return np.flatnonzero((phones.klass != SILENCE)
                          & ~(phones.end - phones.start <= 0))


def _syllables(start: np.ndarray, end: np.ndarray, klass: np.ndarray,
               stress: np.ndarray, response_id: str,
               include_secondary: bool) -> Syllables:
    """One syllable per vowel nucleus of the timeline's phonemes.

    The onset-maximal rule applies within each stretch of time-contiguous
    speech, which a pause longer than ``_GAP_EPS`` ends: every consonant
    before a nucleus is its onset, and only a stretch's last nucleus takes
    a coda, the consonants that end the stretch. A syllable never spans a
    pause. Consonant-only stretches anchor no syllable and contribute to the
    interval features only.
    """
    nucleus = np.flatnonzero(klass == VOWEL)
    if not nucleus.size:
        raise NoNuclei(response_id)
    opens = np.ones(len(start), dtype=bool)
    opens[1:] = np.abs(start[1:] - end[:-1]) > _GAP_EPS
    heads = np.flatnonzero(opens)
    tails = np.append(heads[1:], len(start)) - 1
    stretch = (np.cumsum(opens) - 1)[nucleus]
    shared = stretch[1:] == stretch[:-1]       # nucleus k + 1 shares k's stretch
    first = heads[stretch]
    first[1:][shared] = nucleus[:-1][shared] + 1
    last = nucleus.copy()
    closing = np.append(~shared, True)
    last[closing] = tails[stretch[closing]]
    levels = stress[nucleus]
    stressed = levels != UNSTRESSED if include_secondary else levels == PRIMARY
    return Syllables(first, nucleus, last, start[first], end[last],
                     start[nucleus], stressed)


def stress_features(syllables: Syllables,
                    flags: set[str] | None = None) -> dict[str, float]:
    """Stress frequency and distances between consecutive stressed syllables.

    Syllable distance is the difference of syllable indices, time distance
    the difference of nucleus start times; "SD" variants are mean absolute
    deviations, consistent with the fluency features.
    """
    if not len(syllables.stressed):
        raise ValueError("no syllables")
    features = dict.fromkeys(STRESS_FEATURES, 0.0)
    stressed = np.flatnonzero(syllables.stressed)
    features["StressedSyllPercent"] = (100.0 * len(stressed)
                                       / len(syllables.stressed))
    if len(stressed) < 2:
        if flags is not None:
            flags.add("prosody_too_few_stressed")
        return features
    index_dists = np.diff(stressed).astype(np.float64).tolist()
    time_dists = np.diff(syllables.nucleus_start[stressed]).tolist()
    features["StressDistanceSyllMean"] = sum(index_dists) / len(index_dists)
    features["StressDistanceSyllSD"] = mean_absolute_deviation(index_dists)
    features["StressDistanceMean"] = sum(time_dists) / len(time_dists)
    features["StressDistanceSD"] = mean_absolute_deviation(time_dists)
    return features


@dataclass
class IntervalSequence:
    """Durations (ms) of maximal vocalic/consonantal runs and of syllables."""

    vocalic: list[float]
    consonantal: list[float]
    syllabic: list[float]


def _intervals(start: np.ndarray, end: np.ndarray, klass: np.ndarray,
               syllables: Syllables) -> tuple[IntervalSequence, float]:
    """The interval lists of the timeline's phonemes, plus their total
    phonation time, in milliseconds.

    A run breaks when the phoneme class flips or when consecutive phonemes
    are not within ``_GAP_EPS`` of each other in time; a NaN gap breaks it
    too. A run's duration adds its phonemes' in time order, and a run whose
    total is not positive is left out.
    """
    duration = end - start
    ms = duration * 1000.0
    opens = np.ones(len(start), dtype=bool)
    opens[1:] = ((klass[1:] != klass[:-1])
                 | ~(np.abs(start[1:] - end[:-1]) <= _GAP_EPS))
    heads = np.flatnonzero(opens)
    sizes = np.diff(np.append(heads, len(start)))
    totals = ms[heads]
    for k in range(1, sizes.max(initial=0)):    # one phoneme of each run a step
        longer = sizes > k
        totals[longer] += ms[heads[longer] + k]
    kept = totals > 0
    run_class = klass[heads]
    return IntervalSequence(
        totals[kept & (run_class == VOWEL)].tolist(),
        totals[kept & (run_class == CONSONANT)].tolist(),
        ((syllables.end - syllables.start) * 1000.0).tolist(),
    ), sum(duration.tolist()) * 1000.0


def _population_sd(values: list[float]) -> float:
    mean = sum(values) / len(values)
    # Python's ** squares each deviation (C pow); x * x may round otherwise.
    squares = map(pow, (np.asarray(values) - mean).tolist(), itertools.repeat(2))
    return (sum(squares) / len(values)) ** 0.5


def raw_pvi(durations: list[float]) -> float:
    """Grabe-Low raw Pairwise Variability Index (same unit as the input)."""
    d = np.asarray(durations, dtype=np.float64)
    return sum(np.abs(d[:-1] - d[1:]).tolist()) / (len(d) - 1)


def normalized_pvi(durations: list[float]) -> float:
    """Grabe-Low normalized PVI: pair differences scaled by pair means, x100."""
    d = np.asarray(durations, dtype=np.float64)
    a, b = d[:-1], d[1:]
    total = sum((np.abs(a - b) / ((a + b) / 2.0)).tolist())
    return 100.0 * total / (len(d) - 1)


def interval_features(intervals: IntervalSequence, total_phonation_ms: float,
                      flags: set[str] | None = None) -> dict[str, float]:
    """Percentage, duration-variability and PVI features per interval class.

    Every sum adds Python floats left to right, and array arithmetic gives
    each term the IEEE result Python's would, silently for inf and NaN."""
    features = dict.fromkeys(INTERVAL_FEATURES, 0.0)
    classes = {"vowel": intervals.vocalic, "consonant": intervals.consonantal,
               "syllable": intervals.syllabic}
    with np.errstate(all="ignore"):
        for name, durations in classes.items():
            if np.any(np.asarray(durations, dtype=np.float64) <= 0):
                raise ValueError(f"non-positive {name} interval duration")
            if not durations:
                if flags is not None:
                    flags.add(f"prosody_no_{name}_intervals")
                continue
            if name != "syllable" and total_phonation_ms > 0:
                features[f"{name}Percentage"] = (100.0 * sum(durations)
                                                 / total_phonation_ms)
            sd = _population_sd(durations)
            mean = sum(durations) / len(durations)
            features[f"{name}DurationSD"] = sd
            features[f"{name}SDNorm"] = sd / mean if mean > 0 else 0.0
            if len(durations) < 2:
                if flags is not None:
                    flags.add(f"prosody_single_{name}_interval")
                continue
            features[f"{name}PVI"] = raw_pvi(durations)
            features[f"{name}PVINorm"] = normalized_pvi(durations)
    return features


def prosody_features(response: AlignedResponse,
                     include_secondary: bool = False,
                     flags: set[str] | None = None) -> dict[str, float]:
    """All 19 stress- and interval-based features for one response."""
    phones = response.phones
    # inf and NaN times give the IEEE results Python floats would, silently.
    with np.errstate(all="ignore"):
        timeline = _timeline(response)
        start, end = phones.start[timeline], phones.end[timeline]
        klass = phones.klass[timeline]
        syllables = _syllables(start, end, klass, phones.stress[timeline],
                               response.response_id, include_secondary)
        features = stress_features(syllables, flags)
        features.update(interval_features(
            *_intervals(start, end, klass, syllables), flags))
    return features
