"""Suprasegmental pronunciation features: stress placement and rhythm.

Syllables are built from the phoneme alignment with one syllable per vowel
nucleus; consonants between nuclei attach entirely to the following
syllable's onset (onset-maximal rule) and trailing consonants form the final
coda. Rhythm features operate on maximal same-class phoneme runs (vocalic /
consonantal) and on syllable spans, with durations in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import AlignedPhoneme, AlignedResponse, PhonemeClass, Stress
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


@dataclass(slots=True)
class Syllable:
    onset: tuple[AlignedPhoneme, ...]
    nucleus: AlignedPhoneme
    coda: tuple[AlignedPhoneme, ...]
    start: float
    end: float
    stressed: bool


def _timeline(response: AlignedResponse) -> list[AlignedPhoneme]:
    """Non-silence, positive-duration phonemes of all words in time order.

    A NaN duration is kept: only a duration that compares <= 0 is dropped.
    """
    silence = PhonemeClass.SILENCE
    return [ph for word in response.words for ph in word.phonemes
            if ph.klass is not silence and not ph.end - ph.start <= 0]


def _stretches(phonemes: list[AlignedPhoneme]) -> list[list[AlignedPhoneme]]:
    """Maximal runs of time-contiguous phonemes; a pause breaks the run."""
    out: list[list[AlignedPhoneme]] = []
    run: list[AlignedPhoneme] = []
    prev_end: float | None = None
    for ph in phonemes:
        if prev_end is None or abs(ph.start - prev_end) > _GAP_EPS:
            run = []
            out.append(run)
        run.append(ph)
        prev_end = ph.end
    return out


def syllabify(response: AlignedResponse,
              include_secondary: bool = False) -> list[Syllable]:
    """One syllable per vowel nucleus over the response's phoneme sequence.

    The onset-maximal rule applies within each contiguous stretch of speech:
    a syllable never spans a pause. Consonant-only stretches anchor no
    syllable and contribute to the interval features only.
    """
    return _syllables(_timeline(response), response.response_id,
                      include_secondary)


def _syllables(phonemes: list[AlignedPhoneme], response_id: str,
               include_secondary: bool) -> list[Syllable]:
    vowel = PhonemeClass.VOWEL
    # A tuple: membership tests identity without the Python-level Enum hash.
    stressed_levels = ((Stress.PRIMARY, Stress.SECONDARY) if include_secondary
                       else (Stress.PRIMARY,))

    syllables = []
    for stretch in _stretches(phonemes):
        nuclei = [i for i, p in enumerate(stretch) if p.klass is vowel]
        if not nuclei:
            continue
        # Every consonant before a nucleus is its onset; only the stretch's
        # last nucleus takes a coda, the consonants that end the stretch.
        last = nuclei[-1]
        onset_start = 0
        for i in nuclei:
            nucleus = stretch[i]
            onset = tuple(stretch[onset_start:i])
            coda = tuple(stretch[i + 1:]) if i == last else ()
            syllables.append(Syllable(
                onset, nucleus, coda,
                onset[0].start if onset else nucleus.start,
                coda[-1].end if coda else nucleus.end,
                nucleus.stress in stressed_levels))
            onset_start = i + 1
    if not syllables:
        raise NoNuclei(response_id)
    return syllables


def stress_features(syllables: list[Syllable],
                    flags: set[str] | None = None) -> dict[str, float]:
    """Stress frequency and distances between consecutive stressed syllables.

    Syllable distance is the difference of syllable indices, time distance
    the difference of nucleus start times; "SD" variants are mean absolute
    deviations, consistent with the fluency features.
    """
    if not syllables:
        raise ValueError("no syllables")
    features = dict.fromkeys(STRESS_FEATURES, 0.0)
    stressed = [i for i, s in enumerate(syllables) if s.stressed]
    features["StressedSyllPercent"] = 100.0 * len(stressed) / len(syllables)
    if len(stressed) < 2:
        if flags is not None:
            flags.add("prosody_too_few_stressed")
        return features
    index_dists = [float(b - a) for a, b in zip(stressed, stressed[1:])]
    time_dists = [syllables[b].nucleus.start - syllables[a].nucleus.start
                  for a, b in zip(stressed, stressed[1:])]
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


def interval_sequence(response: AlignedResponse,
                      include_secondary: bool = False,
                      ) -> tuple[IntervalSequence, float]:
    """Build the interval lists plus total phonation time in milliseconds.

    A run breaks when the phoneme class flips, a silence phoneme intervenes,
    or consecutive phonemes are separated in time (pause between words).
    """
    phonemes = _timeline(response)
    try:
        syllables = _syllables(phonemes, response.response_id, include_secondary)
    except NoNuclei:
        syllables = []
    return _intervals(phonemes, syllables)


def _intervals(phonemes: list[AlignedPhoneme], syllables: list[Syllable],
               ) -> tuple[IntervalSequence, float]:
    vowel, consonant = PhonemeClass.VOWEL, PhonemeClass.CONSONANT
    vocalic: list[float] = []
    consonantal: list[float] = []
    durations: list[float] = []
    run_class: PhonemeClass | None = None
    run_ms = 0.0
    prev_end: float | None = None
    for ph in phonemes:
        klass, start, end = ph.klass, ph.start, ph.end
        if (klass is not run_class or prev_end is None
                or not abs(start - prev_end) <= _GAP_EPS):
            if run_ms > 0:
                if run_class is vowel:
                    vocalic.append(run_ms)
                elif run_class is consonant:
                    consonantal.append(run_ms)
            run_class = klass
            run_ms = 0.0
        duration = end - start
        run_ms += duration * 1000.0
        durations.append(duration)
        prev_end = end
    if run_ms > 0:
        if run_class is vowel:
            vocalic.append(run_ms)
        elif run_class is consonant:
            consonantal.append(run_ms)

    syllabic = [(s.end - s.start) * 1000.0 for s in syllables]
    total_phonation_ms = sum(durations) * 1000.0
    return IntervalSequence(vocalic, consonantal, syllabic), total_phonation_ms


def _population_sd(values: list[float]) -> float:
    mean = sum(values) / len(values)
    return (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5


def raw_pvi(durations: list[float]) -> float:
    """Grabe-Low raw Pairwise Variability Index (same unit as the input)."""
    m = len(durations)
    return sum(abs(a - b) for a, b in zip(durations, durations[1:])) / (m - 1)


def normalized_pvi(durations: list[float]) -> float:
    """Grabe-Low normalized PVI: pair differences scaled by pair means, x100."""
    m = len(durations)
    total = sum(abs(a - b) / ((a + b) / 2.0)
                for a, b in zip(durations, durations[1:]))
    return 100.0 * total / (m - 1)


def interval_features(intervals: IntervalSequence, total_phonation_ms: float,
                      flags: set[str] | None = None) -> dict[str, float]:
    """Percentage, duration-variability and PVI features per interval class."""
    features = dict.fromkeys(INTERVAL_FEATURES, 0.0)
    classes = {"vowel": intervals.vocalic, "consonant": intervals.consonantal,
               "syllable": intervals.syllabic}
    for name, durations in classes.items():
        if any(d <= 0 for d in durations):
            raise ValueError(f"non-positive {name} interval duration")
        if not durations:
            if flags is not None:
                flags.add(f"prosody_no_{name}_intervals")
            continue
        if name != "syllable" and total_phonation_ms > 0:
            features[f"{name}Percentage"] = 100.0 * sum(durations) / total_phonation_ms
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
    phonemes = _timeline(response)
    syllables = _syllables(phonemes, response.response_id, include_secondary)
    features = stress_features(syllables, flags)
    intervals, total_ms = _intervals(phonemes, syllables)
    features.update(interval_features(intervals, total_ms, flags))
    return features
