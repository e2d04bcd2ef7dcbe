"""Oracles for the columnar alignment records: the object parser and the
fluency and prosody passes as they were when a response held one frozen
object per phoneme, word and token.

`parse_response` must accept and reject the same payloads as
`speechscore.corpus.parse_response`, with the same reason strings, and
`fluency_features`, `prosody_features` and the interval and deviation
helpers must give the same floats, bit for bit, on the responses it builds. Grades, syntax spans and the audio
path come from the package's own `Grade`, `SyntaxSpans` and
`check_prompt_id`, which the columns leave as they were.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from speechscore.corpus import (POS_TAGS, CorpusError, Grade, SyntaxSpans,
                                check_prompt_id)
from speechscore.fluency import (FLUENCY_FEATURES, LONG_SILENCE_THRESHOLD,
                                 SILENCE_THRESHOLD, EmptyResponse)
from speechscore.prosody import (_GAP_EPS, INTERVAL_FEATURES, STRESS_FEATURES,
                                 IntervalSequence, NoNuclei)

_TIME_EPS = 1e-6

_SPAN_FIELDS = (
    "sentences", "t_units", "clauses", "dependent_clauses",
    "complex_t_units", "coordinate_phrases", "complex_nominals", "verb_phrases",
)


class PhonemeClass(Enum):
    VOWEL = "vowel"
    CONSONANT = "consonant"
    SILENCE = "silence"


class Stress(Enum):
    NONE = "none"
    PRIMARY = "primary"
    SECONDARY = "secondary"


STRESS_FROM_DIGIT = {0: Stress.NONE, 1: Stress.PRIMARY, 2: Stress.SECONDARY}
_PHONEME_CLASSES = {member.value: member for member in PhonemeClass}


@dataclass(frozen=True, slots=True)
class AlignedPhoneme:
    label: str
    klass: PhonemeClass
    start: float
    end: float
    stress: Stress = Stress.NONE

    def __post_init__(self):
        if self.end < self.start - _TIME_EPS:
            raise CorpusError(f"phoneme {self.label!r} ends before it starts")
        if self.klass is not PhonemeClass.VOWEL and self.stress is not Stress.NONE:
            raise CorpusError(f"non-vowel phoneme {self.label!r} carries stress")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class AlignedWord:
    text: str
    start: float
    end: float
    phonemes: tuple[AlignedPhoneme, ...] = ()

    def __post_init__(self):
        if self.end <= self.start:
            raise CorpusError(f"word {self.text!r} has non-positive duration")
        for ph in self.phonemes:
            if ph.start < self.start - _TIME_EPS or ph.end > self.end + _TIME_EPS:
                raise CorpusError(
                    f"phoneme {ph.label!r} lies outside word {self.text!r}"
                )

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class TokenAnnotation:
    token: str
    pos: str = "OTHER"
    is_stopword: bool = False
    syllable_count: int = 1

    def __post_init__(self):
        if self.pos not in POS_TAGS:
            raise CorpusError(f"unknown POS tag {self.pos!r}")
        if self.syllable_count < 0:
            raise CorpusError("negative syllable count")


@dataclass
class AlignedResponse:
    response_id: str
    prompt_id: str
    words: list[AlignedWord]
    tokens: list[TokenAnnotation]
    syntax: SyntaxSpans | None = None
    transcript: str = ""
    audio_path: Path | None = None
    grade: Grade | None = None
    grade2: Grade | None = None

    def __post_init__(self):
        if not self.words:
            raise CorpusError("empty word timeline")
        prev_end = None
        for w in self.words:
            if prev_end is not None:
                if w.start < prev_end - _TIME_EPS:
                    raise CorpusError("overlapping words")
            prev_end = w.end
        if self.tokens and len(self.tokens) != len(self.words):
            raise CorpusError(
                f"{len(self.tokens)} tokens for {len(self.words)} words"
            )
        if not self.transcript:
            self.transcript = " ".join(w.text for w in self.words)
        if self.syntax is not None:
            self.syntax.validate(len(self.tokens))


def parse_response(payload: dict, base_dir: Path | None = None) -> AlignedResponse:
    if not isinstance(payload, dict):
        raise CorpusError("alignment file does not hold a JSON object")
    vowel = PhonemeClass.VOWEL
    unstressed = Stress.NONE
    words = []
    for w in payload.get("words", []):
        if not isinstance(w, dict):
            raise CorpusError(f"word {len(words)} is not a JSON object")
        phonemes = []
        for p in w.get("phonemes", []):
            try:
                klass = _PHONEME_CLASSES[p["class"]]
            except (KeyError, TypeError):
                klass = PhonemeClass(p["class"])
            stress = unstressed
            if klass is vowel:
                stress = STRESS_FROM_DIGIT[int(p.get("stress", 0))]
            phonemes.append(AlignedPhoneme(
                p["label"], klass, float(p["start"]), float(p["end"]), stress))
        words.append(AlignedWord(str(w["text"]).lower(), float(w["start"]),
                                 float(w["end"]), tuple(phonemes)))

    tokens = []
    for t in payload.get("tokens", []):
        text = str(t["token"])
        tokens.append(TokenAnnotation(
            text.lower(), t.get("pos", "OTHER"), bool(t.get("stopword", False)),
            int(t["syllables"] if "syllables" in t else _heuristic_syllables(text))))
    if not tokens:
        tokens = [_token_from_word(w) for w in words]

    syntax = None
    if "syntax" in payload and payload["syntax"] is not None:
        if not isinstance(payload["syntax"], dict):
            raise CorpusError("syntax is not a JSON object")
        fields = {name: [tuple(r) for r in payload["syntax"].get(name, [])]
                  for name in _SPAN_FIELDS}
        syntax = SyntaxSpans(**fields)

    audio_path = None
    if payload.get("wav"):
        audio_path = Path(payload["wav"])
        if base_dir is not None and not audio_path.is_absolute():
            audio_path = base_dir / audio_path

    grade = Grade.from_label(payload["grade"]) if payload.get("grade") else None
    grade2 = Grade.from_label(payload["grade2"]) if payload.get("grade2") else None

    return AlignedResponse(
        response_id=str(payload["response_id"]),
        prompt_id=check_prompt_id(str(payload.get("prompt_id", "default"))),
        words=words, tokens=tokens, syntax=syntax,
        transcript=str(payload.get("transcript", "")),
        audio_path=audio_path, grade=grade, grade2=grade2)


def _token_from_word(word: AlignedWord) -> TokenAnnotation:
    nuclei = sum(1 for p in word.phonemes if p.klass is PhonemeClass.VOWEL)
    count = nuclei if nuclei else _heuristic_syllables(word.text)
    pos = "PUNCT" if word.text in {".", "?", "!", ","} else "OTHER"
    return TokenAnnotation(token=word.text, pos=pos, syllable_count=count)


def _heuristic_syllables(text: str) -> int:
    runs = 0
    prev_vowel = False
    for ch in text.lower():
        is_vowel = ch in "aeiouy"
        if is_vowel and not prev_vowel:
            runs += 1
        prev_vowel = is_vowel
    if runs == 0 and any(ch.isalpha() for ch in text):
        return 1
    return runs


# -- fluency ----------------------------------------------------------------

def mean_absolute_deviation(values) -> float:
    """Mean absolute difference from the mean ("mean deviation")."""
    if not len(values):
        return 0.0
    mean = sum(values) / len(values)
    return sum(abs(v - mean) for v in values) / len(values)


@dataclass
class SilenceProfile:
    gaps: list[tuple[float, float]]
    silences: list[tuple[float, float]]
    long_silences: list[tuple[float, float]]
    response_time: float
    articulation_time: float


def _spoken_words(response: AlignedResponse):
    return [w for w in response.words if any(ch.isalnum() for ch in w.text)]


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


def fluency_features(response: AlignedResponse, resources,
                     flags: set[str] | None = None) -> dict[str, float]:
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


# -- prosody ----------------------------------------------------------------

@dataclass(slots=True)
class Syllable:
    onset: tuple[AlignedPhoneme, ...]
    nucleus: AlignedPhoneme
    coda: tuple[AlignedPhoneme, ...]
    start: float
    end: float
    stressed: bool


def timeline(response: AlignedResponse) -> list[AlignedPhoneme]:
    silence = PhonemeClass.SILENCE
    return [ph for word in response.words for ph in word.phonemes
            if ph.klass is not silence and not ph.end - ph.start <= 0]


def _stretches(phonemes):
    out = []
    run = []
    prev_end = None
    for ph in phonemes:
        if prev_end is None or abs(ph.start - prev_end) > _GAP_EPS:
            run = []
            out.append(run)
        run.append(ph)
        prev_end = ph.end
    return out


def syllables(phonemes, response_id: str, include_secondary: bool) -> list[Syllable]:
    vowel = PhonemeClass.VOWEL
    stressed_levels = ((Stress.PRIMARY, Stress.SECONDARY) if include_secondary
                       else (Stress.PRIMARY,))
    out = []
    for stretch in _stretches(phonemes):
        nuclei = [i for i, p in enumerate(stretch) if p.klass is vowel]
        if not nuclei:
            continue
        last = nuclei[-1]
        onset_start = 0
        for i in nuclei:
            nucleus = stretch[i]
            onset = tuple(stretch[onset_start:i])
            coda = tuple(stretch[i + 1:]) if i == last else ()
            out.append(Syllable(
                onset, nucleus, coda,
                onset[0].start if onset else nucleus.start,
                coda[-1].end if coda else nucleus.end,
                nucleus.stress in stressed_levels))
            onset_start = i + 1
    if not out:
        raise NoNuclei(response_id)
    return out


def stress_features(sylls: list[Syllable],
                    flags: set[str] | None = None) -> dict[str, float]:
    if not sylls:
        raise ValueError("no syllables")
    features = dict.fromkeys(STRESS_FEATURES, 0.0)
    stressed = [i for i, s in enumerate(sylls) if s.stressed]
    features["StressedSyllPercent"] = 100.0 * len(stressed) / len(sylls)
    if len(stressed) < 2:
        if flags is not None:
            flags.add("prosody_too_few_stressed")
        return features
    index_dists = [float(b - a) for a, b in zip(stressed, stressed[1:])]
    time_dists = [sylls[b].nucleus.start - sylls[a].nucleus.start
                  for a, b in zip(stressed, stressed[1:])]
    features["StressDistanceSyllMean"] = sum(index_dists) / len(index_dists)
    features["StressDistanceSyllSD"] = mean_absolute_deviation(index_dists)
    features["StressDistanceMean"] = sum(time_dists) / len(time_dists)
    features["StressDistanceSD"] = mean_absolute_deviation(time_dists)
    return features


def intervals(phonemes, sylls) -> tuple[IntervalSequence, float]:
    vowel, consonant = PhonemeClass.VOWEL, PhonemeClass.CONSONANT
    vocalic = []
    consonantal = []
    durations = []
    run_class = None
    run_ms = 0.0
    prev_end = None
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

    syllabic = [(s.end - s.start) * 1000.0 for s in sylls]
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


def prosody_features(response: AlignedResponse, include_secondary: bool = False,
                     flags: set[str] | None = None) -> dict[str, float]:
    phonemes = timeline(response)
    sylls = syllables(phonemes, response.response_id, include_secondary)
    features = stress_features(sylls, flags)
    features.update(interval_features(*intervals(phonemes, sylls), flags))
    return features
