"""The columnar records against the object records they replaced.

`record_oracle` keeps the object parser and the fluency and prosody passes
over objects. Hypothesis draws alignment payloads, mostly well formed but
with edge values in every field: adjacent floats, zero-length phonemes,
NaN and infinite times, silence runs, consonant-only and vowel-less
stretches, punctuation pseudo-words, stressed consonants, and missing,
``None``, string and mistyped fields. Both parsers must load or reject each
payload alike, with the same reason string, and every feature of a loaded
payload must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import record_oracle as old
from speechscore.corpus import (PHONE_CLASSES, CorpusError, LexicalResources,
                                parse_response, response_to_json)
from speechscore.features import ExtractorConfig
from speechscore.fluency import fluency_features, mean_absolute_deviation
from speechscore.prosody import (IntervalSequence, interval_features,
                                 prosody_features)

RESOURCES = LexicalResources(filled_pauses=frozenset({"um", "uh", "mm"}))

# The errors `load_corpus` turns into reject reasons.
REJECTED = (CorpusError, KeyError, ValueError, TypeError, OverflowError,
            RecursionError)

_MISSING = object()

# A time mostly stays as laid out; otherwise it moves one float up or down,
# or becomes a special or malformed value.
_TIME_EDITS = ["keep"] * 90 + ["up", "down"] * 3 + [
    "nan", "inf", "-inf", "none", "string", "word", "huge", "missing"]


def _edit_time(edit, value):
    return {"keep": value, "up": math.nextafter(value, math.inf),
            "down": math.nextafter(value, -math.inf), "nan": math.nan,
            "inf": math.inf, "-inf": -math.inf, "none": None,
            "string": repr(value), "word": "soon", "huge": 10 ** 400,
            "missing": _MISSING}[edit]


def _rare(common, *rare, odds=40):
    """``common``, or one in ``odds`` times one of ``rare``."""
    return st.sampled_from(range(odds)).flatmap(
        lambda k: st.sampled_from(rare) if k == 0 else common)


_GAPS = st.sampled_from([0.0, 0.0, 0.0, 5e-7, 3e-6, 0.1, 0.2, 0.6]) | st.floats(0.0, 0.7)
_DURATIONS = st.sampled_from([0.0, 5e-324, 0.01, 0.1]) | st.floats(1e-4, 0.3)
_CLASSES = _rare(st.sampled_from(["vowel", "vowel", "consonant", "consonant",
                                  "silence"]),
                 "glide", None, ["vowel"], _MISSING)
_STRESSES = _rare(st.sampled_from([0, 1, 2, _MISSING]),
                  3, -1, "1", "x", None, 1.5, math.inf, math.nan, [1])
_LABELS = _rare(st.sampled_from(["AH", "T", "S", "IY"]), 5, None, _MISSING)
_TEXTS = _rare(st.sampled_from(["cat", "um", "uh", "Dog", ".", ",", "?", "!",
                                "5", "_", "é", "mm", "x-y"]),
               7, None, _MISSING)
_POS = _rare(st.sampled_from(["NOUN", "VERB", "DET", "PUNCT", "CONJ", "AUX",
                              _MISSING]),
             "NOPE", None, ["NOUN"])
_SYLLABLES = _rare(st.sampled_from([0, 1, 2, 3, _MISSING]),
                   -1, None, "2", 2.7, math.inf, "x", 10 ** 30)
_STOPWORDS = _rare(st.sampled_from([True, False, _MISSING]), "x", None)


def _record(fields):
    return {key: value for key, value in fields.items() if value is not _MISSING}


@st.composite
def payloads(draw):
    t = 0.0
    words = []
    for _ in range(draw(_rare(st.integers(1, 6), 0))):
        t += draw(_GAPS)
        start = t
        phonemes = []
        for _ in range(draw(st.integers(0, 5))):
            end = t + draw(_DURATIONS)
            phonemes.append(_record({
                "label": draw(_LABELS), "class": draw(_CLASSES),
                "stress": draw(_STRESSES),
                "start": _edit_time(draw(st.sampled_from(_TIME_EDITS)), t),
                "end": _edit_time(draw(st.sampled_from(_TIME_EDITS)), end)}))
            t = end
        if t <= start:
            t = start + draw(st.sampled_from([0.004, 0.2]))
        word = _record({
            "text": draw(_TEXTS),
            "start": _edit_time(draw(st.sampled_from(_TIME_EDITS)), start),
            "end": _edit_time(draw(st.sampled_from(_TIME_EDITS)), t),
            "phonemes": draw(_rare(st.just(phonemes), _MISSING, "AH", None))})
        words.append(draw(_rare(st.just(word), "cat", ["cat"], odds=100)))

    n_tokens = draw(st.sampled_from([len(words)] * 4 + [0, len(words) + 1]))
    tokens = [draw(_rare(st.builds(
        lambda *fields: _record(dict(zip(
            ("token", "pos", "stopword", "syllables"), fields))),
        _TEXTS, _POS, _STOPWORDS, _SYLLABLES), "cat", ["cat"], odds=100))
        for _ in range(n_tokens)]

    payload = _record({
        "response_id": draw(_rare(st.just("r1"), _MISSING, 5)),
        "prompt_id": draw(_rare(st.just("p1"), _MISSING, "../x", "")),
        "words": draw(_rare(st.just(words), _MISSING, 5, None)),
        "tokens": draw(_rare(st.just(tokens), _MISSING, [], "cat")),
        "grade": draw(_rare(st.sampled_from(["A2", "HB1", None, _MISSING]),
                            "ZZ", ["A2"])),
        "grade2": draw(_rare(st.just(_MISSING), "LB1", "ZZ")),
        "syntax": draw(_rare(st.just(_MISSING), None, "x",
                             {"sentences": [[0, 1]]},
                             {"clauses": [[0, 99]]},
                             {"dependent_clauses": [[0, 1]]})),
        "wav": draw(_rare(st.just(_MISSING), "a.wav", 5, "")),
        "transcript": draw(_rare(st.just(_MISSING), "hello there")),
    })
    return draw(_rare(st.just(payload), ["r1"], "r1", odds=100))


def _outcome(parse, payload):
    try:
        return "loaded", parse(payload)
    except REJECTED as exc:
        return "rejected", (type(exc).__name__, str(exc))


_DIGITS = {old.Stress.NONE: 0, old.Stress.PRIMARY: 1, old.Stress.SECONDARY: 2}


def _columns(r):
    phones, words, tokens = r.phones, r.words, r.tokens
    return (
        [(text, a.hex(), b.hex()) for text, a, b in zip(
            words.text, words.start.tolist(), words.end.tolist())],
        [(label, PHONE_CLASSES[k], s, a.hex(), b.hex(), w)
         for k, s, label, a, b, w in zip(
             phones.klass.tolist(), phones.stress.tolist(), phones.label,
             phones.start.tolist(), phones.end.tolist(), phones.word.tolist())],
        list(zip(tokens.token, tokens.pos, tokens.stopword, tokens.syllables)))


def _objects(r):
    return (
        [(w.text, w.start.hex(), w.end.hex()) for w in r.words],
        [(p.label, p.klass.value, _DIGITS[p.stress], p.start.hex(),
          p.end.hex(), i)
         for i, w in enumerate(r.words) for p in w.phonemes],
        [(t.token, t.pos, t.is_stopword, t.syllable_count) for t in r.tokens])


def _fields(r):
    return (r.response_id, r.prompt_id, r.transcript, r.syntax, r.audio_path,
            r.grade, r.grade2)


def _features(extract, response, *args):
    """The features as hex strings and the flags raised, or the error."""
    flags = set()
    try:
        values = extract(response, *args, flags)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return {name: value.hex() for name, value in values.items()}, flags


def _check_against_oracle(payload):
    """Compare both parsers' outcome and, when the payload loads, every
    column and feature; return the outcome."""
    state, new = _outcome(parse_response, payload)
    reference_state, reference = _outcome(old.parse_response, payload)
    assert state == reference_state
    if state == "rejected":
        assert new == reference
        return state
    assert _columns(new) == _objects(reference)
    assert _fields(new) == _fields(reference)
    assert _features(fluency_features, new, RESOURCES) == \
        _features(old.fluency_features, reference, RESOURCES)
    for secondary in (False, True):
        config = ExtractorConfig(include_secondary_stress=secondary)
        assert _features(prosody_features, new, config) == \
            _features(old.prosody_features, reference, secondary)
    again = parse_response(response_to_json(new))
    assert _columns(again) == _columns(new)
    assert _fields(again) == _fields(new)
    return state


@given(payloads())
@settings(max_examples=800, deadline=None)
def test_columns_match_the_object_records(payload):
    _check_against_oracle(payload)


def _phone(klass, start, end, stress=0):
    return {"label": klass[0].upper(), "class": klass, "stress": stress,
            "start": start, "end": end}


def _word(text, start, end, *phonemes):
    return {"text": text, "start": start, "end": end, "phonemes": list(phonemes)}


def _payload(*words):
    return {"response_id": "r1", "words": list(words)}


TINY = math.nextafter(0.0, 1.0)


def _long_payload(n_words=40, seed=6):
    """Words of random length after random gaps, some past each silence
    threshold: more than NumPy's eight-way pairwise sums take. At this seed
    the pairwise and the left-to-right sum of the word durations differ."""
    rng = np.random.default_rng(seed)
    words, t = [], 0.0
    for i in range(n_words):
        t += float(rng.choice([0.0, 0.05, 0.2, 0.6])) * float(rng.random())
        start, t = t, t + 0.1 + 0.3 * float(rng.random())
        middle = start + (t - start) * float(rng.random())
        words.append(_word("um" if i % 7 == 3 else f"w{i}", start, t,
                           _phone("consonant", start, middle),
                           _phone("vowel", middle, t, i % 3)))
    return _payload(*words)


@pytest.mark.parametrize("payload", [
    # A NaN start ends a same-class run (NaN is never within the gap
    # tolerance) but not a stretch (NaN is never past it).
    _payload(_word("abab", 0.0, 0.5, _phone("consonant", 0.0, 0.1),
                   _phone("consonant", math.nan, 0.2),
                   _phone("vowel", 0.2, 0.3, 1), _phone("consonant", 0.3, 0.4),
                   _phone("vowel", 0.4, 0.5, 1))),
    # NaN word times pass every check.
    _payload(_word("cat", 0.0, math.nan, _phone("vowel", 0.0, 0.2, 1)),
             _word("dog", math.nan, 0.9, _phone("vowel", 0.5, 0.9, 1))),
    # Infinite times at both ends of the response.
    _payload(_word("cat", -math.inf, 0.3, _phone("vowel", -math.inf, 0.3, 1)),
             _word("um", 0.5, 0.7),
             _word("dog", 0.9, math.inf, _phone("vowel", 0.9, 1.2, 2),
                   _phone("consonant", 1.2, math.inf),
                   _phone("vowel", math.inf, math.inf, 1))),
    # Adjacent floats, zero-length and subnormal phonemes.
    _payload(_word("ab", 0.1, 0.3, _phone("vowel", 0.1, 0.2, 1),
                   _phone("consonant", math.nextafter(0.2, 1.0), 0.3),
                   _phone("vowel", 0.3, 0.3, 1), _phone("vowel", 0.3, 0.3 + TINY)),
             _word(".", math.nextafter(0.3, 0.0), 0.304),
             _word("cd", 0.304, 0.5, _phone("silence", 0.304, 0.4),
                   _phone("consonant", 0.4, 0.5))),
    # Stressed consonants, silence runs and a vowel-less response.
    _payload(_word("mm", 0.0, 0.4, _phone("consonant", 0.0, 0.2, 1),
                   _phone("silence", 0.2, 0.3), _phone("silence", 0.3, 0.4)),
             _word("hmm", 0.6, 0.9, _phone("consonant", 0.6, 0.9, 2))),
    _long_payload(),
])
def test_edge_times_match_the_object_records(payload):
    assert _check_against_oracle(payload) == "loaded"


_DURATIONS_MS = [
    # Deviations whose squares x * x and x ** 2 round apart, so far that the
    # SD differs.
    [277.428, 169.877, 224.173],
    # Past NumPy's eight-way pairwise summation.
    np.random.default_rng(5).uniform(20.0, 300.0, 40).tolist(),
]


@pytest.mark.parametrize("durations", _DURATIONS_MS)
def test_interval_features_match_the_object_pass(durations):
    intervals = IntervalSequence(durations, durations[::-1], durations[1:])
    total = sum(durations) * 2.5
    flags, expected_flags = set(), set()
    got = interval_features(intervals, total, flags)
    expected = old.interval_features(intervals, total, expected_flags)
    assert {k: v.hex() for k, v in got.items()} == \
        {k: v.hex() for k, v in expected.items()}
    assert flags == expected_flags
    assert mean_absolute_deviation(durations).hex() == \
        old.mean_absolute_deviation(durations).hex()
