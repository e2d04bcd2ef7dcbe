"""Synthetic corpus generator with controllable grade drivers.

Responses are built from POS templates over the bundled wordlists, with
per-response latent knobs for speaking rate (pause frequency), pause length,
vocabulary breadth and filler rate. The grade is a quantized noisy monotone
function of latents measured back from the built timeline with the real
extractors, so chosen feature families carry the grading signal by
construction. Punctuation appears both as PUNCT tokens and as tiny
silent pseudo-words so the token layer stays parallel to the timeline.
Word pools come from ``synth_vocab.tsv`` in ``corpus.RESOURCES_DIR``, and
`write_corpus` writes each response with ``corpus.response_to_json``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .acoustic import AudioBuffer, write_wav
from .corpus import (CONSONANT, PRIMARY, RESOURCES_DIR, SECONDARY,
                     UNSTRESSED, VOWEL, AlignedResponse, Grade, GRADE_LABELS,
                     LexicalResources, Phones, Tokens, Words, check_prompt_id,
                     default_resources, response_to_json)
from .fluency import fluency_features
from .grammar import word_tokens

_VOWEL_PHONES = ("AA", "AE", "AH", "AO", "EH", "ER", "EY", "IH", "IY", "OW", "UW")
_CONS_MAP = {"b": "B", "c": "K", "d": "D", "f": "F", "g": "G", "h": "HH",
             "j": "JH", "k": "K", "l": "L", "m": "M", "n": "N", "p": "P",
             "q": "K", "r": "R", "s": "S", "t": "T", "v": "V", "w": "W",
             "x": "K", "z": "Z"}

_SAMPLE_RATE = 16000

_TEMPLATES = (
    ("DET", "NOUN", "VERB", "ADV"),
    ("DET", "ADJ", "NOUN", "VERB", "DET", "NOUN"),
    ("PRON", "VERB", "PREP", "DET", "NOUN"),
    ("PRON", "AUX", "VERB", "DET", "ADJ", "NOUN"),
    ("DET", "NOUN", "VERB", "CONJ", "PRON", "VERB", "ADV"),
    ("PRON", "VERB", "CONJ", "PRON", "VERB", "DET", "NOUN"),
    ("ADV", "PRON", "VERB", "DET", "NOUN", "PREP", "NOUN"),
    ("PRON", "VERB", "NUM", "ADJ", "NOUN"),
)


def _score_rate_ttr_pause(z: dict[str, np.ndarray]) -> np.ndarray:
    return 0.45 * z["speaking_rate"] + 0.30 * z["ttr"] - 0.25 * z["silence_rate"]


def _score_rate_only(z: dict[str, np.ndarray]) -> np.ndarray:
    return z["speaking_rate"]


def _score_length_only(z: dict[str, np.ndarray]) -> np.ndarray:
    return z["length"]


SCORE_FUNCTIONS: dict[str, Callable] = {
    "rate_ttr_pause": _score_rate_ttr_pause,
    "rate_only": _score_rate_only,
    "length_only": _score_length_only,
}


@dataclass
class SynthSpec:
    n: int
    grade_levels: int = 3
    seed: int = 0
    score_function: str | Callable = "rate_ttr_pause"
    noise: float = 0.25
    audio: bool = False
    second_rater_disagreement: float | None = None
    prompt_id: str = "synth-1"

    def __post_init__(self):
        if self.n < 50:
            raise ValueError("need n >= 50 responses")
        if not 2 <= self.grade_levels <= len(GRADE_LABELS):
            raise ValueError("grade_levels must be between 2 and 5")
        fn = self.score_function
        if isinstance(fn, str) and fn not in SCORE_FUNCTIONS:
            raise ValueError(f"unknown score_function {fn!r}; "
                             f"choose from {sorted(SCORE_FUNCTIONS)}")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        d = self.second_rater_disagreement
        if d is not None and not 0 <= d <= 1:
            raise ValueError("second_rater_disagreement must lie in [0, 1], "
                             f"got {d}")
        check_prompt_id(self.prompt_id)


def _phonemes_for(word: str, rng: np.random.Generator) -> list[tuple[str, int, int]]:
    """Grapheme-driven phoneme skeleton of (label, class code, stress code)
    with a randomly placed primary stress (sometimes none, as alignment
    output often is)."""
    out = []
    prev_vowel = False
    for ch in word.lower():
        if ch in "aeiouy":
            if not prev_vowel:
                vowel = _VOWEL_PHONES[(ord(ch) * 7 + len(out)) % len(_VOWEL_PHONES)]
                out.append([vowel, VOWEL, UNSTRESSED])
            prev_vowel = True
        else:
            prev_vowel = False
            phone = _CONS_MAP.get(ch)
            if phone:
                out.append([phone, CONSONANT, UNSTRESSED])
    if not out:
        out.append(["AH", VOWEL, UNSTRESSED])
    nuclei = [i for i, (_, klass, _) in enumerate(out) if klass == VOWEL]
    if nuclei:
        draw = rng.random()
        if draw < 0.55:
            out[nuclei[0]][2] = PRIMARY
        elif draw < 0.85:
            out[nuclei[int(rng.integers(0, len(nuclei)))]][2] = PRIMARY
        if len(nuclei) > 1 and rng.random() < 0.2:
            spare = [i for i in nuclei if out[i][2] == UNSTRESSED]
            if spare:
                out[spare[int(rng.integers(0, len(spare)))]][2] = SECONDARY
    return [tuple(item) for item in out]


def _load_vocab() -> dict[str, list[str]]:
    """Per-POS word pools, most frequent first."""
    resources = default_resources()
    pools: dict[str, list[str]] = {}
    for line in (RESOURCES_DIR / "synth_vocab.tsv").read_text(encoding="utf-8").splitlines():
        word, pos = line.split("\t")
        pools.setdefault(pos, []).append(word)
    for pos, words in pools.items():
        words.sort(key=lambda w: resources.frequency_rank.get(w, 10 ** 6))
    return pools


def _build_response(index: int, spec: SynthSpec, pools, fillers,
                    stopset: frozenset[str], rng: np.random.Generator):
    u_rate = rng.random()
    u_vocab = rng.random()
    u_pause = rng.random()
    u_filler = rng.random()
    # independent tempo and sub-threshold-gap budgets: they perturb every
    # duration-derived feature without touching the silence counts, so the
    # pause signal stays recoverable only through the fluency features
    u_artic = rng.random()
    u_subgap = rng.random()
    n_words = int(rng.integers(100, 161))
    tempo = 0.72 + 0.76 * u_artic
    p_subgap = 0.05 + 0.90 * u_subgap

    allowed = {}
    for pos, pool in pools.items():
        k = max(2, int(round(len(pool) * (0.08 + 0.92 * u_vocab))))
        allowed[pos] = pool[:k]

    def pick(pos: str) -> str:
        pool = allowed.get(pos) or allowed["NOUN"]
        return pool[int(len(pool) * rng.random())]

    p_filler = 0.004 + 0.05 * u_filler
    p_pause = 0.05 + 0.40 * (1.0 - u_rate)

    # Records as `Words`, `Phones` and `Tokens` rows.
    words: list[tuple] = []
    phones: list[tuple] = []
    tokens: list[tuple] = []
    t = 0.15 + 0.1 * rng.random()
    spoken = 0

    def emit(text: str, pos: str) -> None:
        nonlocal t
        if pos == "PUNCT":
            words.append((text, t, t + 0.004))
            tokens.append((text, pos, False, 0))
            t += 0.004
            return
        skeleton = _phonemes_for(text, rng)
        weights = np.array([1.6 if k == VOWEL else 1.0 for _, k, _ in skeleton])
        weights = weights * (0.85 + 0.3 * rng.random(weights.size))
        duration = tempo * (0.16 + 0.17 * rng.random() + 0.035 * len(skeleton))
        spans = duration * weights / weights.sum()
        cursor = t
        for (label, klass, stress), span in zip(skeleton, spans):
            phones.append((klass, stress, label, cursor, cursor + span,
                           len(words)))
            cursor += span
        words.append((text, t, cursor))
        tokens.append((text, pos, text in stopset,
                       sum(1 for _, k, _ in skeleton if k == VOWEL)))
        t = cursor

    def maybe_pause() -> None:
        # hesitation pauses sit just above the silence threshold so the
        # grading signal lives in their count, not in absorbed time spans
        nonlocal t
        if rng.random() < p_pause:
            t += 0.152 + 0.035 * rng.random()
        elif rng.random() < p_subgap:
            t += 0.05 + 0.09 * rng.random()

    while spoken < n_words:
        template = _TEMPLATES[int(rng.integers(0, len(_TEMPLATES)))]
        for pos in template:
            if rng.random() < p_filler:
                emit(fillers[int(rng.integers(0, len(fillers)))], "INTJ")
                spoken += 1
                t += 0.05 + 0.1 * rng.random()
            emit(pick(pos), pos)
            spoken += 1
            maybe_pause()
            if spoken >= n_words:
                break
        emit(".", "PUNCT")
        if rng.random() < 0.6:
            t += 0.20 + 0.18 * rng.random()
        if rng.random() < 0.03 + 0.06 * u_pause:
            t += 0.50 + 0.45 * rng.random()

    return AlignedResponse(
        response_id=f"{spec.prompt_id}-{index:05d}", prompt_id=spec.prompt_id,
        words=Words.from_rows(words), phones=Phones.from_rows(phones),
        tokens=Tokens.from_rows(tokens))


def _measured_latents(response: AlignedResponse,
                      resources: LexicalResources) -> dict[str, float]:
    ff = fluency_features(response, resources, set())
    texts = word_tokens(response.tokens).token
    return {
        "speaking_rate": ff["speaking_rate"],
        "silence_rate": ff["SilenceRate1"],
        "ttr": len(set(texts)) / len(texts) if texts else 0.0,
        "length": float(len(texts)),
    }


def _synth_audio(response: AlignedResponse,
                 rng: np.random.Generator) -> AudioBuffer:
    """Tone skeleton of the response: vowels are sines at the speaker's f0,
    consonants quiet high tones, pauses silence."""
    f0 = 110.0 + 70.0 * rng.random()
    total = float(response.words.end[-1]) + 0.1
    samples = np.zeros(int(total * _SAMPLE_RATE) + 1, dtype=np.float64)
    phones = response.phones
    for klass, stress, start, end in zip(phones.klass.tolist(),
                                         phones.stress.tolist(),
                                         phones.start.tolist(),
                                         phones.end.tolist()):
        lo = int(start * _SAMPLE_RATE)
        hi = max(lo + 1, int(end * _SAMPLE_RATE))
        tt = np.arange(hi - lo) / _SAMPLE_RATE
        if klass == VOWEL:
            amp = 0.4 if stress == PRIMARY else 0.28
            samples[lo:hi] += amp * np.sin(2 * np.pi * f0 * tt)
        elif klass == CONSONANT:
            samples[lo:hi] += 0.06 * np.sin(2 * np.pi * 2100.0 * tt)
    return AudioBuffer(samples=np.clip(samples, -1, 1), sample_rate=_SAMPLE_RATE)


def synth_corpus(spec: SynthSpec,
                 resources: LexicalResources | None = None,
                 ) -> tuple[list[AlignedResponse], dict[str, AudioBuffer]]:
    """Generate a graded corpus; returns responses plus in-memory audio
    buffers (empty dict unless ``spec.audio``)."""
    resources = resources or default_resources()
    pools = _load_vocab()
    fillers = sorted(resources.filled_pauses)

    responses = []
    latent_rows = []
    root = np.random.SeedSequence(spec.seed)
    seqs = root.spawn(spec.n + 1)
    for i in range(spec.n):
        response = _build_response(i, spec, pools, fillers,
                                   resources.stopwords,
                                   np.random.default_rng(seqs[i]))
        responses.append(response)
        latent_rows.append(_measured_latents(response, resources))

    keys = sorted(latent_rows[0])
    z = {}
    for key in keys:
        col = np.asarray([row[key] for row in latent_rows])
        sd = col.std()
        z[key] = (col - col.mean()) / sd if sd > 0 else col * 0.0

    fn = spec.score_function
    if isinstance(fn, str):
        fn = SCORE_FUNCTIONS[fn]
    score = np.asarray(fn(z), dtype=np.float64)
    sd = score.std()
    if sd > 0:
        score = score / sd          # noise is relative to unit signal spread
    rng = np.random.default_rng(seqs[spec.n])
    if spec.noise > 0:
        score = score + spec.noise * rng.standard_normal(spec.n)
    if np.unique(score).size < spec.grade_levels:
        raise ValueError("grade levels exceed the distinct latent bands")

    # Equal grade shares: the cuts sit at the k/K quantiles of the score.
    K = spec.grade_levels
    cuts = np.quantile(score, np.cumsum([1.0 / K] * K)[:-1])
    ordinals = np.searchsorted(cuts, score, side="right")
    labels = GRADE_LABELS[:spec.grade_levels]
    for response, ordinal in zip(responses, ordinals):
        response.grade = Grade.from_label(labels[int(ordinal)])

    if spec.second_rater_disagreement is not None:
        d = spec.second_rater_disagreement
        for response in responses:
            o = response.grade.ordinal
            if rng.random() < d:
                o = int(np.clip(o + rng.choice([-1, 1]), 0, spec.grade_levels - 1))
            response.grade2 = Grade.from_label(labels[o])

    audio: dict[str, AudioBuffer] = {}
    if spec.audio:
        for i, response in enumerate(responses):
            audio[response.response_id] = _synth_audio(
                response, np.random.default_rng([spec.seed, 7919, i]))
    return responses, audio


def write_corpus(responses: list[AlignedResponse], out_dir: str | Path,
                 audio: dict[str, AudioBuffer] | None = None) -> Path:
    """Write alignment JSON files (``corpus.response_to_json``) plus WAVs
    and return the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for response in responses:
        payload = response_to_json(response)
        if audio and response.response_id in audio:
            wav_name = f"{response.response_id}.wav"
            write_wav(out_dir / wav_name, audio[response.response_id])
            payload["wav"] = wav_name
        name = f"{response.response_id}.json"
        (out_dir / name).write_text(json.dumps(payload, sort_keys=True),
                                    encoding="utf-8")
        names.append(name)
    manifest = out_dir / "manifest.txt"
    manifest.write_text("\n".join(names) + "\n", encoding="utf-8")
    return manifest
