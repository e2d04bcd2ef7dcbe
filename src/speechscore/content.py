"""Response-based content features: TF-IDF vectors over transcripts.

Vocabularies are fitted on the train split of a single prompt and never
pooled across prompts. The idf is smoothed, ln((1 + N) / (1 + df)) + 1, and
vectors are L2-normalized so every non-empty vector has unit norm.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .features import ExtractorConfig

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class TfidfVocabulary:
    terms: list[str]                   # lexicographically sorted
    document_frequency: dict[str, int]
    n_documents: int
    idf: dict[str, float]

    def feature_names(self) -> list[str]:
        return [f"tfidf:{t}" for t in self.terms]

    def save(self, path: str | Path) -> None:
        """A header line ``n_documents<TAB>N``, then one
        ``term<TAB>df<TAB>idf`` line per term."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"n_documents\t{self.n_documents}\n")
            for term in self.terms:
                fh.write(f"{term}\t{self.document_frequency[term]}\t{self.idf[term]!r}\n")

    @classmethod
    def load(cls, path: str | Path) -> "TfidfVocabulary":
        header, *lines = Path(path).read_text(encoding="utf-8").splitlines()
        key, count = header.split("\t")
        if key != "n_documents":
            raise ValueError(f"{path}: first line must be 'n_documents<TAB>N'")
        terms, df, idf = [], {}, {}
        for line in lines:
            if not line.strip():
                continue
            term, d, i = line.split("\t")
            terms.append(term)
            df[term] = int(d)
            idf[term] = float(i)
        return cls(terms=terms, document_frequency=df, n_documents=int(count),
                   idf=idf)


def fit_vocabulary(train_transcripts: Iterable[str],
                   config: ExtractorConfig) -> TfidfVocabulary:
    """Document-frequency vocabulary from train transcripts only.

    Terms below ``config.min_df`` are dropped, and a ``ValueError`` is
    raised when no term is left; if more than
    ``config.max_terms`` survive, the highest-df terms are kept with ties
    broken lexicographically.
    """
    df: Counter[str] = Counter()
    n_documents = 0
    for transcript in train_transcripts:
        tokens = set(tokenize(transcript))
        if not tokens:
            continue
        n_documents += 1
        df.update(tokens)
    if n_documents == 0:
        raise ValueError("no non-empty transcripts to fit a vocabulary on")

    kept = [t for t, c in df.items() if c >= config.min_df]
    if not kept:
        raise ValueError(f"empty vocabulary: no term occurs in min_df="
                         f"{config.min_df} of the {n_documents} train "
                         f"transcripts")
    if len(kept) > config.max_terms:
        kept.sort(key=lambda t: (-df[t], t))
        kept = kept[:config.max_terms]
    kept.sort()
    idf = {t: math.log((1 + n_documents) / (1 + df[t])) + 1.0 for t in kept}
    return TfidfVocabulary(terms=kept,
                           document_frequency={t: df[t] for t in kept},
                           n_documents=n_documents, idf=idf)


def vectorize(vocabulary: TfidfVocabulary, transcript: str,
              flags: set[str]) -> dict[str, float]:
    """L2-normalized tf-idf map ``tfidf:<term> -> value`` for one response.

    Out-of-vocabulary tokens are ignored; a transcript matching nothing
    yields the all-zero vector (flagged).
    """
    counts = Counter(t for t in tokenize(transcript) if t in vocabulary.idf)
    vector = {f"tfidf:{t}": 0.0 for t in vocabulary.terms}
    if not counts:
        flags.add("content_all_oov")
        return vector
    weighted = {t: c * vocabulary.idf[t] for t, c in counts.items()}
    norm = math.sqrt(sum(v * v for v in weighted.values()))
    for t, v in weighted.items():
        vector[f"tfidf:{t}"] = v / norm
    return vector
