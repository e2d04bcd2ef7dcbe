"""Grammar and vocabulary features: lexical complexity, syntactic-complexity
ratios, POS counts and lexicon-based text complexity.

Sophistication is rank-based: a word whose frequency rank exceeds
``ExtractorConfig.rank_threshold``, or that is absent from the frequency
list entirely, counts as sophisticated. Unit counts come from annotated
syntax spans when present; otherwise a POS-driven heuristic supplies them.
Nothing records which source a response's counts came from.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .corpus import AlignedResponse, LexicalResources, Tokens

if TYPE_CHECKING:
    from .features import ExtractorConfig

# The readings of the ld feature. `lexical_features` reads any mode but
# "density" as "diversity"; `features.ExtractorConfig` rejects other modes.
LD_MODES = ("density", "diversity")

_SUBORDINATORS = frozenset(
    "because although since while if that which who whom whose when where "
    "after before unless until though whereas whether once".split())

_SENTENCE_FINAL = {".", "?", "!"}

LEXICAL_FEATURES = ("ld", "ls1", "ls2", "vs1", "vs2",
                    "ndw", "ndwz", "ndwerz", "ndwesz", "ttr")

SYNTACTIC_FEATURES = ("MLS", "MLT", "MLC", "C/T", "VP/T", "DC/C", "DC/T",
                      "T/S", "CT/T", "CP/T", "CP/C", "CN/T", "CN/C")

COUNT_FEATURES = (
    "total_adjectives", "total_adverbs", "total_nouns", "total_verbs",
    "total_pronoun", "total_conjunctions", "total_determiners",
    "total_text_complexity_no_sw_mAvg", "average_word_complexity_no_sw_mAvg",
    "total_text_complexity_mAvg", "average_word_complexity_mAvg",
    "total_text_complexity_no_sw_mMod", "average_word_complexity_no_sw_mMod",
    "total_text_complexity_mMod", "average_word_complexity_mMod",
    "average_syllables_in_words",
)

UNIT_FEATURES = ("W", "VP", "C", "T", "DC", "CT", "CP", "CN")

GRAMMAR_FEATURES = LEXICAL_FEATURES + SYNTACTIC_FEATURES + COUNT_FEATURES + UNIT_FEATURES

_POS_TOTALS = {"total_adjectives": "ADJ", "total_adverbs": "ADV",
               "total_nouns": "NOUN", "total_verbs": "VERB",
               "total_pronoun": "PRON", "total_conjunctions": "CONJ",
               "total_determiners": "DET"}


@dataclass
class UnitCounts:
    W: int = 0
    S: int = 0
    VP: int = 0
    C: int = 0
    T: int = 0
    DC: int = 0
    CT: int = 0
    CP: int = 0
    CN: int = 0


def word_tokens(tokens: Tokens) -> Tokens:
    """The words of a response: every token that is not PUNCT."""
    return tokens.select(pos != "PUNCT" for pos in tokens.pos)


def lexical_features(words: Tokens, resources: LexicalResources,
                     config: ExtractorConfig,
                     flags: set[str]) -> dict[str, float]:
    """Diversity and sophistication features (Lexical Complexity set) of a
    response's ``words`` (`word_tokens`).

    ``ld`` is lexical density (lexical tokens / word tokens) when
    ``config.ld_mode`` is "density", the types-based reading otherwise.
    ndwerz/ndwesz average the distinct-word count over 10 50-token samples
    seeded by ``config.seed`` (without replacement / contiguous windows
    respectively).
    """
    if not words:
        raise ValueError("no word tokens")
    texts = list(words.token)
    lexical = [text for text, pos in zip(texts, words.pos)
               if pos in ("NOUN", "VERB", "ADJ", "ADV")]
    verbs = [text for text, pos in zip(texts, words.pos) if pos == "VERB"]
    word_types = set(texts)
    ranks, threshold = resources.frequency_rank, config.rank_threshold

    def sophisticated(items) -> int:
        """How many of the words are missing from the frequency list or
        ranked past the threshold."""
        return sum(1 for w in items
                   if (rank := ranks.get(w)) is None or rank > threshold)

    features = dict.fromkeys(LEXICAL_FEATURES, 0.0)
    if config.ld_mode == "density":
        features["ld"] = len(lexical) / len(texts)
    else:
        features["ld"] = len(set(lexical)) / len(texts)
    if lexical:
        features["ls1"] = sophisticated(lexical) / len(lexical)
    features["ls2"] = sophisticated(word_types) / len(word_types)
    if verbs:
        sophisticated_verb_types = sophisticated(set(verbs))
        features["vs1"] = sophisticated_verb_types / len(verbs)
        features["vs2"] = sophisticated_verb_types ** 2 / len(verbs)
    else:
        flags.add("grammar_no_verbs")

    features["ndw"] = float(len(word_types))
    features["ttr"] = len(word_types) / len(texts)

    window = 50
    if len(texts) < window:
        flags.add("grammar_short_response")
        features["ndwz"] = float(len(word_types))
        features["ndwerz"] = float(len(word_types))
        features["ndwesz"] = float(len(word_types))
        return features

    features["ndwz"] = float(len(set(texts[:window])))
    rng = np.random.default_rng([config.seed, zlib.crc32(b"ndw"),
                                 zlib.crc32(" ".join(texts[:8]).encode())])
    draws = []
    for _ in range(10):
        sample = rng.choice(len(texts), size=window, replace=False)
        draws.append(len({texts[i] for i in sample}))
    features["ndwerz"] = sum(draws) / len(draws)
    draws = []
    for _ in range(10):
        start = int(rng.integers(0, len(texts) - window + 1))
        draws.append(len(set(texts[start:start + window])))
    features["ndwesz"] = sum(draws) / len(draws)
    return features


def _ratio(numerator: float, denominator: float, name: str,
           flags: set[str]) -> float:
    if denominator == 0:
        flags.add(f"grammar_zero_denominator:{name}")
        return 0.0
    return numerator / denominator


def syntactic_features(units: UnitCounts,
                       flags: set[str]) -> dict[str, float]:
    """The 13 length/ratio features over sentence, clause and T-unit counts."""
    u = units
    return {
        "MLS": _ratio(u.W, u.S, "MLS", flags),
        "MLT": _ratio(u.W, u.T, "MLT", flags),
        "MLC": _ratio(u.W, u.C, "MLC", flags),
        "C/T": _ratio(u.C, u.T, "C/T", flags),
        "VP/T": _ratio(u.VP, u.T, "VP/T", flags),
        "DC/C": _ratio(u.DC, u.C, "DC/C", flags),
        "DC/T": _ratio(u.DC, u.T, "DC/T", flags),
        "T/S": _ratio(u.T, u.S, "T/S", flags),
        "CT/T": _ratio(u.CT, u.T, "CT/T", flags),
        "CP/T": _ratio(u.CP, u.T, "CP/T", flags),
        "CP/C": _ratio(u.CP, u.C, "CP/C", flags),
        "CN/T": _ratio(u.CN, u.T, "CN/T", flags),
        "CN/C": _ratio(u.CN, u.C, "CN/C", flags),
    }


def count_and_complexity_features(tokens: Tokens, words: Tokens,
                                  resources: LexicalResources,
                                  flags: set[str]) -> dict[str, float]:
    """POS totals over ``tokens`` plus lexicon-scored text complexity of
    their ``words`` (`word_tokens`).

    Complexity totals sum the lexicon score of every matched token, in four
    variants (stopwords removed/kept x average/mode lexicon column);
    averages divide by the matched-token count.
    """
    features = dict.fromkeys(COUNT_FEATURES, 0.0)
    for name, pos in _POS_TOTALS.items():
        features[name] = float(tokens.pos.count(pos))
    stop = [flag or text in resources.stopwords
            for text, flag in zip(words.token, words.stopword)]

    for suffix, lexicon in (("mAvg", resources.complexity_avg),
                            ("mMod", resources.complexity_mode)):
        for no_stop in (True, False):
            pool = [text for text, is_stop in zip(words.token, stop)
                    if not (no_stop and is_stop)]
            matched = [lexicon[text] for text in pool if text in lexicon]
            infix = "no_sw_" if no_stop else ""
            total_key = f"total_text_complexity_{infix}{suffix}"
            avg_key = f"average_word_complexity_{infix}{suffix}"
            if matched:
                features[total_key] = float(sum(matched))
                features[avg_key] = float(sum(matched) / len(matched))
            else:
                flags.add(f"grammar_no_lexicon_match:{infix}{suffix}")

    content_syllables = [count for count, is_stop in zip(words.syllables, stop)
                         if not is_stop]
    if content_syllables:
        features["average_syllables_in_words"] = (
            sum(content_syllables) / len(content_syllables))
    else:
        flags.add("grammar_all_stopwords")
    return features


def _sentence_ranges(tokens: Tokens) -> list[tuple[int, int]]:
    ranges = []
    start = 0
    for i, (text, pos) in enumerate(zip(tokens.token, tokens.pos)):
        if pos == "PUNCT" and text in _SENTENCE_FINAL:
            if i > start:
                ranges.append((start, i))
            start = i + 1
    if start < len(tokens):
        ranges.append((start, len(tokens)))
    return ranges


def _verb_chains(pos: tuple[str, ...], lo: int, hi: int) -> list[tuple[int, int]]:
    """Maximal runs of AUX/VERB tags inside [lo, hi)."""
    chains = []
    i = lo
    while i < hi:
        if pos[i] in ("VERB", "AUX"):
            j = i
            while j < hi and pos[j] in ("VERB", "AUX"):
                j += 1
            chains.append((i, j))
            i = j
        else:
            i += 1
    return chains


def heuristic_syntax(tokens: Tokens, words: Tokens) -> UnitCounts:
    """POS-driven approximation of the syntactic unit counts of ``tokens``,
    whose `word_tokens` are ``words``.

    Sentences are punctuation-delimited (min 1 when any word exists);
    clauses count verb chains containing a VERB; T-units add clause-initial
    coordinating conjunctions to the sentence count; dependent clauses are
    subordinating markers followed by a verb chain in the same sentence.
    """
    if not words:
        return UnitCounts()
    sentences = _sentence_ranges(tokens)
    if not sentences:
        sentences = [(0, len(tokens))]

    text, pos = tokens.token, tokens.pos
    counts = UnitCounts(W=len(words), S=len(sentences))
    for lo, hi in sentences:
        chains = _verb_chains(pos, lo, hi)
        counts.VP += len(chains)
        clause_chains = [c for c in chains
                         if any(pos[k] == "VERB" for k in range(*c))]
        counts.C += len(clause_chains)

        # clause-initial conjunction: a CONJ with a verb both before and after
        # it in the same sentence starts a new T-unit
        boundaries = [lo]
        for i in range(lo, hi):
            if pos[i] != "CONJ" or text[i] in _SUBORDINATORS:
                continue
            before = any(c[0] < i for c in clause_chains)
            after = any(c[0] > i for c in clause_chains)
            if before and after:
                boundaries.append(i)
        t_units = [(a, b) for a, b in zip(boundaries, boundaries[1:] + [hi])]
        counts.T += len(t_units)

        dc_positions = []
        for i in range(lo, hi):
            if text[i] in _SUBORDINATORS and pos[i] != "PUNCT":
                if any(c[0] > i for c in chains):
                    dc_positions.append(i)
        counts.DC += len(dc_positions)
        counts.CT += sum(1 for a, b in t_units
                         if any(a <= p < b for p in dc_positions))

        for i in range(lo + 1, hi - 1):
            if (pos[i] == "CONJ"
                    and pos[i - 1] == pos[i + 1]
                    and pos[i - 1] != "PUNCT"):
                counts.CP += 1
        for i in range(lo, hi):
            if pos[i] != "NOUN":
                continue
            if (i > lo and pos[i - 1] == "ADJ") or \
                    (i + 1 < hi and pos[i + 1] == "PREP"):
                counts.CN += 1

    counts.DC = min(counts.DC, counts.C)
    counts.CT = min(counts.CT, counts.T)
    return counts


def unit_counts_from_spans(response: AlignedResponse,
                           words: Tokens) -> UnitCounts:
    """The unit counts of ``response.syntax``; W is the number of
    ``words`` (`word_tokens`)."""
    spans = response.syntax
    return UnitCounts(
        W=len(words),
        S=len(spans.sentences), VP=len(spans.verb_phrases),
        C=len(spans.clauses), T=len(spans.t_units),
        DC=len(spans.dependent_clauses), CT=len(spans.complex_t_units),
        CP=len(spans.coordinate_phrases), CN=len(spans.complex_nominals))


def grammar_features(response: AlignedResponse, resources: LexicalResources,
                     config: ExtractorConfig,
                     flags: set[str]) -> dict[str, float]:
    """All 47 grammar/vocabulary features for one response. The words are
    selected once, here, and passed to every part."""
    words = word_tokens(response.tokens)
    features = lexical_features(words, resources, config, flags)
    if response.syntax is not None:
        units = unit_counts_from_spans(response, words)
    else:
        units = heuristic_syntax(response.tokens, words)
    features.update(syntactic_features(units, flags))
    features.update(count_and_complexity_features(response.tokens, words,
                                                  resources, flags))
    for name in UNIT_FEATURES:
        features[name] = float(getattr(units, name))
    return features
