"""Shared factories: hand-built alignment-file payloads, read back through
`parse_response`."""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest

from speechscore.corpus import LexicalResources, Tokens, parse_response
from speechscore.fluency import (LONG_SILENCE_THRESHOLD, SILENCE_THRESHOLD,
                                 EmptyResponse)

_CLASS = {"v": "vowel", "c": "consonant", "s": "silence"}


def make_phonemes(spec, start, end):
    """spec: list of (label, klass letter, stress digit); spans divided evenly."""
    if not spec:
        return []
    span = (end - start) / len(spec)
    return [{"label": label, "class": _CLASS[k], "stress": s,
             "start": start + i * span, "end": start + (i + 1) * span}
            for i, (label, k, s) in enumerate(spec)]


def make_word(text, start, end, phones=None):
    return {"text": text, "start": start, "end": end,
            "phonemes": make_phonemes(phones or [], start, end)}


def tok(token, pos="OTHER", stop=False, syl=1):
    return {"token": token, "pos": pos, "stopword": stop, "syllables": syl}


def make_payload(words, tokens=None, grade=None, response_id="r1",
                 prompt_id="p1", syntax=None):
    if tokens is None:
        tokens = [tok(w["text"]) for w in words]
    payload = {"response_id": response_id, "prompt_id": prompt_id,
               "words": words, "tokens": tokens}
    if grade:
        payload["grade"] = grade
    if syntax is not None:
        payload["syntax"] = dataclasses.asdict(syntax)
    return payload


def make_response(words, tokens=None, grade=None, response_id="r1",
                  prompt_id="p1", syntax=None):
    return parse_response(make_payload(words, tokens, grade, response_id,
                                       prompt_id, syntax))


def make_tokens(tokens):
    """The token columns of a response with one word per token."""
    if not tokens:
        return Tokens.from_rows([])
    words = [make_word(f"w{i}", i, i + 0.5) for i in range(len(tokens))]
    return make_response(words, tokens).tokens


def silence_profile(response):
    """The pauses that `fluency_features` measures, read from the columns:
    the (start, duration) of each positive gap between consecutive spoken
    words, the silences and long silences among them, the response time
    and the articulation time."""
    words = response.words
    spoken = [i for i, text in enumerate(words.text)
              if any(ch.isalnum() for ch in text)]
    if not spoken:
        raise EmptyResponse(response.response_id)
    starts, ends = words.start[spoken].tolist(), words.end[spoken].tolist()
    gaps = [(end, start - end) for end, start in zip(ends, starts[1:])
            if start - end > 0]
    return SimpleNamespace(
        gaps=gaps,
        silences=[g for g in gaps if g[1] > SILENCE_THRESHOLD],
        long_silences=[g for g in gaps if g[1] > LONG_SILENCE_THRESHOLD],
        response_time=ends[-1] - starts[0],
        articulation_time=sum(end - start for start, end in zip(starts, ends)))


def synth_audio_subset(corpus):
    """`synth` 50 responses with audio and two grades into `corpus`, and
    return a manifest of the first three responses of each grade in
    manifest order (the fewest the split takes)."""
    from speechscore.cli import main

    assert main(["synth", "--n", "50", "--grades", "2", "--audio", "--seed", "3",
                 "--out", str(corpus)]) == 0
    picked, per_grade = [], {}
    for name in (corpus / "manifest.txt").read_text().split():
        grade = json.loads((corpus / name).read_text())["grade"]
        per_grade[grade] = per_grade.get(grade, 0) + 1
        if per_grade[grade] <= 3:
            picked.append(name)
    subset = corpus / "subset.txt"
    subset.write_text("\n".join(picked) + "\n")
    return subset


@pytest.fixture
def resources():
    return LexicalResources(
        frequency_rank={"the": 1, "cat": 120, "saw": 150, "dog": 130,
                        "run": 120, "runs": 125, "barks": 4000, "walks": 210,
                        "she": 12, "he": 11, "and": 3},
        complexity_avg={"cat": 2.0, "run": 3.0, "dog": 2.5},
        complexity_mode={"cat": 2.0, "run": 3.0, "dog": 3.0},
        stopwords=frozenset({"the", "a", "and", "she", "he"}),
        filled_pauses=frozenset({"uh", "um", "er", "err", "hmm", "mm"}))
