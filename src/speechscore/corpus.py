"""Data model and ingestion for time-aligned spoken responses.

A corpus is a collection of responses, each carrying a word/phoneme timeline
produced upstream by an ASR + forced-alignment toolchain, plus token-level
annotations (POS, stopword flags, syllable counts), optional syntactic spans,
an optional audio reference, and an optional grade. This module owns the
alignment-file schema both ways (`parse_response` reads a payload,
`response_to_json` writes one) and the bundled lexical resources
(`RESOURCES_DIR`, `RESOURCE_FILES`). It also owns stratified splitting,
feature-matrix plumbing and the z-scoring that the linear learners apply
inside their fits. Feature matrices hold raw feature values in their own
units, and tree models are fit on them as they are.

A response holds its alignment as three column records, not one object per
phoneme, word and token:

- `Phones`, in file order: class code, stress code, label, start, end and
  the index of the word that holds the phoneme;
- `Words`: text, start and end;
- `Tokens`: token, POS tag, stopword flag and syllable count.

Numeric columns are read-only NumPy arrays and the others tuples, so the
columns cannot change once `AlignedResponse` has checked them. That check
is one pass over all of a response's columns (`_check_records`); it raises
the first violation in the order the file lists the records.
"""

from __future__ import annotations

import collections
import csv
import itertools
import json
import math
import re
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

_TIME_EPS = 1e-6

GRADE_ORDINALS = {"A2": 0, "LB1": 1, "HB1": 2, "LB2": 3, "HB2": 4}
GRADE_LABELS = tuple(sorted(GRADE_ORDINALS, key=GRADE_ORDINALS.get))

POS_TAGS = frozenset({
    "NOUN", "VERB", "AUX", "ADJ", "ADV", "PRON", "DET", "CONJ", "PREP",
    "NUM", "INTJ", "PUNCT", "OTHER",
})

# A phoneme's class code is its class's position here; the schema's "class"
# field holds the name.
PHONE_CLASSES = ("vowel", "consonant", "silence")
VOWEL, CONSONANT, SILENCE = range(3)
_CLASS_CODES = {name: code for code, name in enumerate(PHONE_CLASSES)}

# A stress code is the schema's ARPAbet-style digit. The parser reads it for
# vowels only, other phonemes being unstressed, and looks it up here: any
# other digit is a KeyError, whose message is the reject reason.
UNSTRESSED, PRIMARY, SECONDARY = range(3)
_STRESS_CODES = {code: code for code in range(3)}


class CorpusError(ValueError):
    """A response or resource file violates the documented input contract."""


def _column(values, dtype) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    column.flags.writeable = False
    return column


class _Columns:
    """Aligned columns, one entry per record. Fields named in ``_DTYPES``
    become read-only arrays of that type, the others tuples."""

    _DTYPES = {}

    def __post_init__(self):
        lengths = set()
        for name in self.__dataclass_fields__:
            dtype = self._DTYPES.get(name)
            value = getattr(self, name)
            value = tuple(value) if dtype is None else _column(value, dtype)
            object.__setattr__(self, name, value)
            lengths.add(len(value))
        if len(lengths) > 1:
            raise CorpusError(f"{type(self).__name__} columns differ in length")

    def __len__(self) -> int:
        return len(getattr(self, next(iter(self.__dataclass_fields__))))

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]):
        """The columns of records given as tuples in field order."""
        return cls(*(zip(*rows) if rows else [()] * len(cls.__dataclass_fields__)))


@dataclass(frozen=True, eq=False)
class Phones(_Columns):
    """A response's phonemes, word by word and in file order within a word."""

    klass: np.ndarray               # class codes (VOWEL, CONSONANT, SILENCE)
    stress: np.ndarray              # stress codes (UNSTRESSED, PRIMARY, SECONDARY)
    label: tuple
    start: np.ndarray
    end: np.ndarray
    word: np.ndarray                # index of the word that holds the phoneme

    _DTYPES = {"klass": np.int8, "stress": np.int8, "start": np.float64,
               "end": np.float64, "word": np.intp}


@dataclass(frozen=True, eq=False)
class Words(_Columns):
    text: tuple[str, ...]
    start: np.ndarray
    end: np.ndarray

    _DTYPES = {"start": np.float64, "end": np.float64}


@dataclass(frozen=True)
class Tokens(_Columns):
    token: tuple[str, ...]
    pos: tuple[str, ...]
    stopword: tuple[bool, ...]
    syllables: tuple[int, ...]

    def select(self, keep: Iterable[bool]) -> "Tokens":
        """The tokens at the positions where ``keep`` is true."""
        keep = list(keep)
        return Tokens(*(itertools.compress(column, keep) for column in
                        (self.token, self.pos, self.stopword, self.syllables)))


def _check_records(words: Words, phones: Phones, tokens: Tokens) -> None:
    """Raise a CorpusError for the first bad record, in file order: word by
    word, each of its phonemes (one that ends before it starts, then one
    that is stressed but no vowel), then the word (a non-positive duration,
    then each phoneme outside it); then token by token (an unknown POS tag,
    then a negative syllable count).

    ``phones`` may run one word past ``words``: they are the phonemes read
    of a word whose own fields did not read, and get the phoneme checks
    only."""
    start, end, owner = phones.start, phones.end, phones.word
    bad_phone = ((end < start - _TIME_EPS)
                 | ((phones.klass != VOWEL) & (phones.stress != UNSTRESSED)))
    bad_word = words.end <= words.start
    held = owner < len(words)
    outside = np.zeros(len(phones), dtype=bool)
    outside[held] = ((start[held] < words.start[owner[held]] - _TIME_EPS)
                     | (end[held] > words.end[owner[held]] + _TIME_EPS))
    # (word, check, index) of each kind's first violation: within a word the
    # phoneme checks come first, then the word's duration, then containment.
    firsts = []
    for check, mask in enumerate((bad_phone, bad_word, outside)):
        if mask.any():
            index = int(mask.argmax())
            firsts.append((index if check == 1 else int(owner[index]), check, index))
    if firsts:
        word, check, index = min(firsts)
        if check == 1:
            raise CorpusError(f"word {words.text[word]!r} has non-positive duration")
        label = phones.label[index]
        if check == 2:
            raise CorpusError(f"phoneme {label!r} lies outside word "
                              f"{words.text[word]!r}")
        if end[index] < start[index] - _TIME_EPS:
            raise CorpusError(f"phoneme {label!r} ends before it starts")
        raise CorpusError(f"non-vowel phoneme {label!r} carries stress")
    for pos, count in zip(tokens.pos, tokens.syllables):
        if pos not in POS_TAGS:
            raise CorpusError(f"unknown POS tag {pos!r}")
        if count < 0:
            raise CorpusError("negative syllable count")


_SPAN_FIELDS = (
    "sentences", "t_units", "clauses", "dependent_clauses",
    "complex_t_units", "coordinate_phrases", "complex_nominals", "verb_phrases",
)


@dataclass
class SyntaxSpans:
    """Token-index ranges [lo, hi) for each syntactic unit type."""

    sentences: list[tuple[int, int]] = field(default_factory=list)
    t_units: list[tuple[int, int]] = field(default_factory=list)
    clauses: list[tuple[int, int]] = field(default_factory=list)
    dependent_clauses: list[tuple[int, int]] = field(default_factory=list)
    complex_t_units: list[tuple[int, int]] = field(default_factory=list)
    coordinate_phrases: list[tuple[int, int]] = field(default_factory=list)
    complex_nominals: list[tuple[int, int]] = field(default_factory=list)
    verb_phrases: list[tuple[int, int]] = field(default_factory=list)

    def validate(self, n_tokens: int) -> None:
        for name in _SPAN_FIELDS:
            for lo, hi in getattr(self, name):
                if not (0 <= lo <= hi <= n_tokens):
                    raise CorpusError(f"{name} span ({lo},{hi}) outside token bounds")
        clause_set = {tuple(r) for r in self.clauses}
        if not {tuple(r) for r in self.dependent_clauses} <= clause_set:
            raise CorpusError("dependent clause span not present among clauses")


@dataclass(frozen=True)
class Grade:
    label: str
    ordinal: int

    @classmethod
    def from_label(cls, label: str) -> "Grade":
        if label not in GRADE_ORDINALS:
            raise CorpusError(f"unknown grade label {label!r}")
        return cls(label, GRADE_ORDINALS[label])


@dataclass
class AlignedResponse:
    """One response. Building it checks its records (`_check_records`),
    then that it has words, that they do not overlap, and that its tokens,
    when there are any, parallel the words."""

    response_id: str
    prompt_id: str
    words: Words
    phones: Phones
    tokens: Tokens
    syntax: SyntaxSpans | None = None
    transcript: str = ""
    audio_path: Path | None = None
    grade: Grade | None = None
    grade2: Grade | None = None

    def __post_init__(self):
        owner = self.phones.word
        if len(owner) and not (owner[0] >= 0 and owner[-1] < len(self.words)
                               and np.all(owner[1:] >= owner[:-1])):
            raise CorpusError("phonemes do not index their words in order")
        _check_records(self.words, self.phones, self.tokens)
        words = self.words
        if not len(words):
            raise CorpusError("empty word timeline")
        if np.any(words.start[1:] < words.end[:-1] - _TIME_EPS):
            raise CorpusError("overlapping words")
        if self.tokens and len(self.tokens) != len(words):
            raise CorpusError(f"{len(self.tokens)} tokens for {len(words)} words")
        if not self.transcript:
            self.transcript = " ".join(words.text)
        if self.syntax is not None:
            self.syntax.validate(len(self.tokens))


# The bundled resource directory, and the four files LexicalResources.load
# reads from any resource directory (`synth` copies them to its corpus).
RESOURCES_DIR = Path(__file__).parent / "resources"
RESOURCE_FILES = ("frequency.tsv", "complexity.tsv", "stopwords.txt",
                  "fillers.txt")


@dataclass
class LexicalResources:
    """Word lists backing lexical features: frequency ranks, complexity
    scores in [1, 6] (average and mode lexicon columns), stopwords and
    filled-pause markers."""

    frequency_rank: dict[str, int] = field(default_factory=dict)
    complexity_avg: dict[str, float] = field(default_factory=dict)
    complexity_mode: dict[str, float] = field(default_factory=dict)
    stopwords: frozenset[str] = frozenset()
    filled_pauses: frozenset[str] = frozenset()

    def __post_init__(self):
        for word, rank in self.frequency_rank.items():
            if rank <= 0:
                raise CorpusError(f"non-positive frequency rank for {word!r}")
        for lex in (self.complexity_avg, self.complexity_mode):
            for word, score in lex.items():
                if not 1.0 <= score <= 6.0:
                    raise CorpusError(f"complexity score for {word!r} outside [1, 6]")

    @classmethod
    def load(cls, directory: str | Path) -> "LexicalResources":
        """Read the four ``RESOURCE_FILES`` from ``directory``.

        ``frequency.tsv`` holds ``word<TAB>rank`` lines, ``complexity.tsv``
        holds ``word<TAB>avg<TAB>mode``, ``stopwords.txt`` and
        ``fillers.txt`` one word per line. A ``FileNotFoundError`` names
        every one of them that ``directory`` lacks.
        """
        paths = [Path(directory) / name for name in RESOURCE_FILES]
        missing = [path.name for path in paths if not path.is_file()]
        if missing:
            raise FileNotFoundError(f"resource file(s) {missing} not found in "
                                    f"{str(directory)!r}")
        frequency, complexity, stopwords, fillers = map(_read_lines, paths)
        ranks = [line.split("\t") for line in frequency]
        rows = [line.split("\t") for line in complexity]
        return cls(
            frequency_rank={word: int(rank) for word, rank in ranks},
            complexity_avg={word: float(avg) for word, avg, _ in rows},
            complexity_mode={word: float(mode) for word, _, mode in rows},
            stopwords=frozenset(w.strip() for w in stopwords),
            filled_pauses=frozenset(w.strip() for w in fillers))


def _read_lines(path: Path) -> list[str]:
    """The non-blank lines of a resource file."""
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def default_resources() -> LexicalResources:
    """Resources bundled with the package (also used by the synthesizer)."""
    return LexicalResources.load(RESOURCES_DIR)


@dataclass
class Corpus:
    responses: list[AlignedResponse]
    rejected: list[tuple[str, str]] = field(default_factory=list)

    def by_prompt(self) -> dict[str, list[AlignedResponse]]:
        out: dict[str, list[AlignedResponse]] = {}
        for r in self.responses:
            out.setdefault(r.prompt_id, []).append(r)
        return out


def check_prompt_id(prompt_id: str) -> str:
    """Return ``prompt_id`` if it is one plain path component, as the output
    directory it names must be: not empty, ``.`` or ``..``, and holding no
    ``/``, ``\\`` or NUL."""
    if prompt_id in ("", ".", "..") or any(c in prompt_id for c in "/\\\0"):
        raise CorpusError(f"prompt_id {prompt_id!r} is not one plain path "
                          "component")
    return prompt_id


def parse_response(payload: dict, base_dir: Path | None = None) -> AlignedResponse:
    """Build an AlignedResponse from one alignment-file JSON payload.

    Fields are read in file order. A field that does not read raises its
    own error, unless a record read before it fails `_check_records`, whose
    error then wins."""
    if not isinstance(payload, dict):
        raise CorpusError("alignment file does not hold a JSON object")
    words, phones, tokens = [], [], []
    try:
        for w in payload.get("words", []):
            if not isinstance(w, dict):
                raise CorpusError(f"word {len(words)} is not a JSON object")
            index = len(words)
            for p in w.get("phonemes", []):
                try:
                    klass = _CLASS_CODES[p["class"]]
                except (KeyError, TypeError):
                    # The schema's name for the class vocabulary.
                    raise ValueError(f"{p['class']!r} is not a valid "
                                     "PhonemeClass") from None
                phones.append((
                    klass,
                    _STRESS_CODES[int(p.get("stress", 0))] if klass == VOWEL
                    else UNSTRESSED,
                    p["label"], float(p["start"]), float(p["end"]), index))
            words.append((str(w["text"]).lower(), float(w["start"]),
                          float(w["end"])))
        for t in payload.get("tokens", []):
            text = str(t["token"])
            tokens.append((
                text.lower(), t.get("pos", "OTHER"), bool(t.get("stopword", False)),
                int(t["syllables"] if "syllables" in t
                    else _heuristic_syllables(text))))

        syntax = None
        if "syntax" in payload and payload["syntax"] is not None:
            if not isinstance(payload["syntax"], dict):
                raise CorpusError("syntax is not a JSON object")
            spans = {name: [tuple(r) for r in payload["syntax"].get(name, [])]
                     for name in _SPAN_FIELDS}
            syntax = SyntaxSpans(**spans)

        audio_path = None
        if payload.get("wav"):
            audio_path = Path(payload["wav"])
            if base_dir is not None and not audio_path.is_absolute():
                audio_path = base_dir / audio_path

        grade = Grade.from_label(payload["grade"]) if payload.get("grade") else None
        grade2 = Grade.from_label(payload["grade2"]) if payload.get("grade2") else None
        response_id = str(payload["response_id"])
        prompt_id = check_prompt_id(str(payload.get("prompt_id", "default")))
    except Exception:
        _check_records(Words.from_rows(words), Phones.from_rows(phones),
                       Tokens.from_rows(tokens))
        raise

    words, phones = Words.from_rows(words), Phones.from_rows(phones)
    tokens = Tokens.from_rows(tokens) if tokens else _tokens_from_words(words, phones)
    return AlignedResponse(
        response_id=response_id, prompt_id=prompt_id, words=words,
        phones=phones, tokens=tokens, syntax=syntax,
        transcript=str(payload.get("transcript", "")),
        audio_path=audio_path, grade=grade, grade2=grade2)


def response_to_json(response: AlignedResponse) -> dict:
    """The alignment-file payload of one response; `parse_response` reads
    it back."""
    words, phones, tokens = response.words, response.phones, response.tokens
    rows = [{"label": label, "class": PHONE_CLASSES[klass], "stress": stress,
             "start": start, "end": end}
            for klass, stress, label, start, end in zip(
                phones.klass.tolist(), phones.stress.tolist(), phones.label,
                phones.start.tolist(), phones.end.tolist())]
    ends = np.cumsum(np.bincount(phones.word, minlength=len(words))).tolist()
    payload = {
        "response_id": response.response_id,
        "prompt_id": response.prompt_id,
        "transcript": response.transcript,
        "words": [{"text": text, "start": start, "end": end,
                   "phonemes": rows[lo:hi]}
                  for text, start, end, lo, hi in zip(
                      words.text, words.start.tolist(), words.end.tolist(),
                      [0] + ends[:-1], ends)],
        "tokens": [{"token": token, "pos": pos, "stopword": stopword,
                    "syllables": syllables}
                   for token, pos, stopword, syllables in zip(
                       tokens.token, tokens.pos, tokens.stopword,
                       tokens.syllables)],
    }
    if response.grade is not None:
        payload["grade"] = response.grade.label
    if response.grade2 is not None:
        payload["grade2"] = response.grade2.label
    if response.audio_path is not None:
        payload["wav"] = str(response.audio_path)
    if response.syntax is not None:
        payload["syntax"] = {name: [list(r) for r in getattr(response.syntax, name)]
                             for name in _SPAN_FIELDS}
    return payload


def _tokens_from_words(words: Words, phones: Phones) -> Tokens:
    """The minimal token layer of a payload without one: each word's text,
    PUNCT for punctuation and OTHER otherwise, its vowel count for
    syllables (its letters' when it has no vowel phoneme) and no stopword."""
    nuclei = np.bincount(phones.word[phones.klass == VOWEL],
                         minlength=len(words)).tolist()
    return Tokens(
        words.text,
        ["PUNCT" if text in {".", "?", "!", ","} else "OTHER" for text in words.text],
        [False] * len(words),
        [count or _heuristic_syllables(text)
         for count, text in zip(nuclei, words.text)])


def _heuristic_syllables(text: str) -> int:
    """Vowel-letter-group count, at least 1 for alphabetic tokens."""
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


def load_corpus(path: str | Path) -> Corpus:
    """Load alignment files named by a manifest (one path per line) or held
    in a directory. Malformed responses are rejected with a reason, never
    silently dropped; a missing file is fatal.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.json"))
        base = path
    else:
        if not path.exists():
            raise FileNotFoundError(f"manifest not found: {path}")
        base = path.parent
        files = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            fp = Path(line)
            files.append(fp if fp.is_absolute() else base / fp)

    if not files:
        warnings.warn(f"empty corpus at {path}", stacklevel=2)

    responses: list[AlignedResponse] = []
    rejected: list[tuple[str, str]] = []
    seen: set[str] = set()
    for fp in files:
        if not fp.exists():
            raise FileNotFoundError(f"alignment file not found: {fp}")
        try:
            payload = json.loads(fp.read_text(encoding="utf-8"))
            response = parse_response(payload, base_dir=fp.parent)
        except (CorpusError, KeyError, ValueError, TypeError, OverflowError,
                RecursionError) as exc:
            rejected.append((str(fp), str(exc)))
            continue
        if response.response_id in seen:
            rejected.append((str(fp), f"duplicate response_id {response.response_id!r}"))
            continue
        seen.add(response.response_id)
        responses.append(response)

    responses.sort(key=lambda r: r.response_id)
    return Corpus(responses=responses, rejected=rejected)




# ---------------------------------------------------------------------------
# Splits

# The default train:valid:test weights.
SPLIT_RATIOS = (0.70, 0.10, 0.20)


@dataclass
class SplitAssignment:
    train: set[str]
    valid: set[str]
    test: set[str]
    ratios: tuple[float, float, float] = SPLIT_RATIOS
    seed: int = 0

    def to_json(self) -> dict:
        return {"train": sorted(self.train), "valid": sorted(self.valid),
                "test": sorted(self.test), "ratios": list(self.ratios),
                "seed": self.seed}

    @classmethod
    def from_json(cls, payload: dict) -> "SplitAssignment":
        return cls(train=set(payload["train"]), valid=set(payload["valid"]),
                   test=set(payload["test"]), ratios=tuple(payload["ratios"]),
                   seed=int(payload["seed"]))


def _largest_remainder(n: int, ratios: Sequence[float | Fraction]) -> list[int]:
    exact = [r * n for r in ratios]
    counts = [math.floor(e) for e in exact]
    short = n - sum(counts)
    remainders = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in remainders[:short]:
        counts[i] += 1
    return counts


def _stratified_counts(sizes: Sequence[int],
                       ratios: Sequence[float]) -> list[list[int]]:
    """Bucket counts per grade, each within one of the grade's share of its
    bucket.

    Largest remainder per grade fixes the bucket totals. A grade whose count
    in some bucket is a whole response or more off ``size * total / sum(sizes)`` is
    re-rounded to those shares, and single responses then move between
    buckets, along grades whose counts stay at the floor or ceiling of their
    share, until every bucket holds its total again. Such a rounding always
    exists because the shares sum to whole numbers by grade and by bucket.
    """
    rows = [_largest_remainder(size, ratios) for size in sizes]
    totals = [sum(col) for col in zip(*rows)]
    shares = [Fraction(t, sum(sizes)) for t in totals]
    lows = [[math.floor(size * s) for s in shares] for size in sizes]
    highs = [[math.ceil(size * s) for s in shares] for size in sizes]
    for g, size in enumerate(sizes):
        if any(not lo <= c <= hi for c, lo, hi in zip(rows[g], lows[g], highs[g])):
            rows[g] = _largest_remainder(size, shares)

    buckets = range(len(totals))
    while True:
        held = [sum(col) for col in zip(*rows)]
        over = [b for b in buckets if held[b] > totals[b]]
        if not over:
            return rows
        # Breadth-first over buckets: step a -> b moves one response of some
        # grade from bucket a to bucket b.
        step: dict[int, tuple[int, int] | None] = dict.fromkeys(over)
        queue = list(over)
        for a in queue:
            for g, row in enumerate(rows):
                for b in buckets:
                    if (b not in step and row[a] > lows[g][a]
                            and row[b] < highs[g][b]):
                        step[b] = (a, g)
                        queue.append(b)
        b = next(b for b in queue if held[b] < totals[b])
        while step[b] is not None:
            a, g = step[b]
            rows[g][a] -= 1
            rows[g][b] += 1
            b = a


def split_shares(ratios: Sequence[float]) -> tuple[float, float, float]:
    """Three finite positive train:valid:test weights divided by their sum;
    a ValueError for anything else."""
    ratios = tuple(ratios)
    if len(ratios) != 3 or not all(math.isfinite(r) and r > 0 for r in ratios):
        raise ValueError("split ratios must be three finite positive numbers, "
                         f"got {ratios}")
    return tuple(r / sum(ratios) for r in ratios)


def stratified_split(responses: Iterable[AlignedResponse],
                     ratios: tuple[float, float, float] = SPLIT_RATIOS,
                     seed: int = 0) -> SplitAssignment:
    """Largest-remainder allocation per grade, kept within one response of
    each grade's share of every split, then seeded shuffling.

    ``ratios`` are three finite positive train:valid:test weights, divided
    by their sum (`split_shares`). Deterministic for a fixed seed and
    independent of input ordering. Every grade must appear on at least 3
    responses so each split can be fed.
    """
    ratios = split_shares(ratios)
    by_grade: dict[int, list[str]] = {}
    labels: dict[int, str] = {}
    for r in responses:
        if r.grade is None:
            raise CorpusError(f"response {r.response_id!r} has no grade")
        by_grade.setdefault(r.grade.ordinal, []).append(r.response_id)
        labels[r.grade.ordinal] = r.grade.label
    if not by_grade:
        raise CorpusError("empty corpus")

    ordinals = sorted(by_grade)
    for ordinal in ordinals:
        if len(by_grade[ordinal]) < 3:
            raise CorpusError(f"grade {labels[ordinal]} has only "
                              f"{len(by_grade[ordinal])} response(s); need >= 3")
    allocation = _stratified_counts([len(by_grade[o]) for o in ordinals], ratios)

    rng = np.random.default_rng(seed)
    buckets: tuple[set[str], ...] = (set(), set(), set())
    for ordinal, counts in zip(ordinals, allocation):
        ids = sorted(by_grade[ordinal])
        rng.shuffle(ids)
        pos = 0
        for bucket, count in zip(buckets, counts):
            bucket.update(ids[pos:pos + count])
            pos += count
    return SplitAssignment(train=buckets[0], valid=buckets[1], test=buckets[2],
                           ratios=tuple(ratios), seed=seed)


# ---------------------------------------------------------------------------
# Feature matrices and the linear learners' standardization


@dataclass
class FeatureMatrix:
    """Column-aligned numeric features over a corpus.

    ``groups`` parallels ``columns`` with one group tag (CF/FF/SPF/GVF/AF)
    per feature; ``flags`` maps response ids to the degenerate-value flags
    raised while extracting them.
    """

    response_ids: list[str]
    columns: list[str]
    groups: list[str]
    values: np.ndarray
    flags: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.response_ids), len(self.columns)):
            raise ValueError("matrix shape does not match ids/columns")
        if len(self.groups) != len(self.columns):
            raise ValueError("one group tag required per column")

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]

    def select_groups(self, groups: Sequence[str]) -> "FeatureMatrix":
        wanted = set(groups)
        keep = [i for i, g in enumerate(self.groups) if g in wanted]
        return FeatureMatrix(
            response_ids=list(self.response_ids),
            columns=[self.columns[i] for i in keep],
            groups=[self.groups[i] for i in keep],
            values=self.values[:, keep], flags=dict(self.flags))

    def to_csv(self, path: str | Path) -> None:
        """Two-row header: group tags, then feature names."""
        write_float_csv(path, [["id"] + self.groups,
                               ["response_id"] + self.columns],
                        self.values, ids=self.response_ids)

    @classmethod
    def from_csv(cls, path: str | Path) -> "FeatureMatrix":
        """Read `to_csv`'s layout in one pass over the file: `csv` parses the
        header rows, `_row_values` takes each row's id, and one `np.loadtxt`
        parses every row's numbers as the file yields them, with the same
        correctly rounded routine as float()."""
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            groups = next(reader)[1:]
            columns = next(reader)[1:]
            ids = []
            rows = _row_values(fh, ids, len(columns))
            first = next(rows, None)
            if first is None or not columns:
                collections.deque(rows, maxlen=0)       # read the ids
                values = np.zeros((len(ids), len(columns)))
            else:
                values = np.loadtxt(itertools.chain([first], rows),
                                    dtype=np.float64, delimiter=",",
                                    quotechar='"', comments=None,
                                    usecols=range(len(columns)), ndmin=2)
        return cls(response_ids=ids, columns=columns, groups=groups, values=values)


class _LineEcho:
    """A csv.writer target: `writerow` returns the line it built."""

    @staticmethod
    def write(line: str) -> str:
        return line


def write_float_csv(path: str | Path, header_rows: Sequence[Sequence[str]],
                    values: np.ndarray, ids: Sequence[str] | None = None) -> None:
    """Write header rows, then one line per row of a float matrix, led by
    the row's id when ``ids`` is given: the bytes csv.writer writes for the
    cells as strings. Each value is its shortest round-trip ``repr``; `csv`
    writes the header rows and quotes the ids, and the values skip it,
    because a float's repr holds no comma, quote or line break."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(header_rows)
        # One row of Python floats at a time: the whole matrix as floats
        # would hold ~32 bytes per cell at once.
        rows = (row.tolist() for row in values)
        if ids is None:
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
            return
        line = csv.writer(_LineEcho()).writerow
        for rid, row in zip(ids, rows):
            # The id as csv writes it first of several cells ("<id>,"), or
            # as a row's only cell.
            lead = line([rid, ""] if row else [rid])[:-2]
            fh.write(lead + ",".join(map(repr, row)) + "\r\n")


# A row's id as csv.reader reads it: quoted, with "" for a quote inside and
# a comma or the line's end after it, or bare up to the first comma or line
# break. A line that ends inside a quoted id matches neither.
_CSV_ID = re.compile(r'"((?:[^"]|"")*)"(?=[,\r\n]|\Z)|(?!")[^,\r\n]*')


def _row_values(lines: Iterator[str], ids: list[str],
                n_columns: int) -> Iterator[str]:
    """Yield the text after each row's id, one row at a time, and append the
    row's id to ``ids``.

    ``lines`` comes from a file opened with ``newline=""``, so a line ends
    where csv.reader ends a record: at ``\\r\\n``, ``\\r`` or ``\\n``,
    never at the ``\\x85`` or ``\\u2028`` that `str.splitlines` splits at;
    a quoted id may span lines. A blank line, a quoted id that is
    unterminated or has text after it, or, when there are columns, a row
    without values raises `ValueError`."""
    for line in lines:
        match = _CSV_ID.match(line)
        while match is None:                # a quoted id holding a line break
            more = next(lines, None)
            if more is None:
                raise ValueError(f"unterminated quoted id in CSV row {len(ids) + 1}")
            line += more
            match = _CSV_ID.match(line)
        rest = line[match.end():].rstrip("\r\n")
        if rest[:1] != "," and (n_columns or not match.end()):
            raise ValueError(f"malformed CSV row {len(ids) + 1}: {line[:40]!r}")
        quoted = match.group(1)
        ids.append(match.group() if quoted is None else quoted.replace('""', '"'))
        yield rest[1:]


@dataclass
class Standardizer:
    """Per-feature z-scoring with the mean and population standard deviation
    of the rows it was fitted on; zero-variance columns pass through
    unchanged. Only the linear learners use it, inside their fits."""

    mean: np.ndarray
    std: np.ndarray

    def transform(self, X) -> np.ndarray:
        safe = np.where(self.std > 0, self.std, 1.0)
        return np.where(self.std > 0, (X - self.mean) / safe, X)

    def to_json(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_json(cls, payload: dict) -> "Standardizer":
        return cls(mean=np.asarray(payload["mean"], dtype=np.float64),
                   std=np.asarray(payload["std"], dtype=np.float64))


def fit_standardizer(X: np.ndarray) -> Standardizer:
    if X.shape[0] == 0:
        raise ValueError("cannot fit a standardizer on an empty matrix")
    return Standardizer(mean=X.mean(axis=0), std=X.std(axis=0))
