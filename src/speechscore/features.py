"""Feature-matrix assembly: runs the five family extractors over a corpus.

Group tags follow the ablation vocabulary: CF (content), FF (fluency),
SPF (suprasegmental pronunciation), GVF (grammar and vocabulary),
AF (acoustic). Content features require a vocabulary fitted on the train
split; acoustic features read each response's WAV from its ``audio_path``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .acoustic import ACOUSTIC_FEATURES, extract_acoustic, read_wav
from .content import TfidfVocabulary, fit_vocabulary, vectorize
from .corpus import AlignedResponse, FeatureMatrix, LexicalResources
from .fluency import FLUENCY_FEATURES, fluency_features
from .grammar import GRAMMAR_FEATURES, LD_MODES, grammar_features
from .parallel import parallel_map
from .prosody import PROSODY_FEATURES, NoNuclei, prosody_features

GROUP_ORDER = ("CF", "FF", "SPF", "GVF", "AF")


@dataclass
class ExtractorConfig:
    """Extraction settings, and the only place their defaults are written:
    every feature family reads the fields it uses from this object. A
    setting outside its range is a ``ValueError`` on construction that
    names the field."""

    groups: tuple[str, ...] = GROUP_ORDER
    min_df: int = 2
    max_terms: int = 1000
    rank_threshold: int = 2000
    ld_mode: str = "density"
    include_secondary_stress: bool = False
    fmin: float = 75.0
    fmax: float = 500.0
    frame: float = 0.040
    hop: float = 0.010
    seed: int = 0

    def __post_init__(self):
        if not self.groups:
            raise ValueError(f"groups must name at least one of {list(GROUP_ORDER)}")
        unknown = set(self.groups) - set(GROUP_ORDER)
        if unknown:
            raise ValueError(f"unknown feature group(s): {sorted(unknown)}")
        self.groups = tuple(g for g in GROUP_ORDER if g in self.groups)
        for name in ("min_df", "max_terms", "rank_threshold"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.ld_mode not in LD_MODES:
            raise ValueError(f"ld_mode must be one of {list(LD_MODES)}, "
                             f"got {self.ld_mode!r}")
        if not (math.isfinite(self.fmin) and math.isfinite(self.fmax)
                and 0 < self.fmin < self.fmax):
            raise ValueError("fmin and fmax must be finite with 0 < fmin < fmax, "
                             f"got fmin={self.fmin!r}, fmax={self.fmax!r}")
        for name in ("frame", "hop"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def fit_content_vocabulary(responses: list[AlignedResponse], train_ids: set[str],
                           config: ExtractorConfig) -> TfidfVocabulary:
    transcripts = [r.transcript for r in responses if r.response_id in train_ids]
    return fit_vocabulary(transcripts, config)


def _extract_one(response: AlignedResponse, resources: LexicalResources,
                 vocabulary: TfidfVocabulary | None, config: ExtractorConfig,
                 ) -> tuple[dict[str, float], set[str]]:
    flags: set[str] = set()
    values: dict[str, float] = {}
    if "CF" in config.groups:
        values.update(vectorize(vocabulary, response.transcript, flags))
    if "FF" in config.groups:
        values.update(fluency_features(response, resources, flags))
    if "SPF" in config.groups:
        try:
            values.update(prosody_features(response, config, flags))
        except NoNuclei:
            flags.add("spf_no_nuclei")
            values.update(dict.fromkeys(PROSODY_FEATURES, 0.0))
    if "GVF" in config.groups:
        values.update(grammar_features(response, resources, config, flags))
    if "AF" in config.groups:
        if response.audio_path is None:
            raise ValueError(
                f"acoustic features requested but response "
                f"{response.response_id!r} has no audio")
        values.update(extract_acoustic(read_wav(response.audio_path), config,
                                       flags))
    return values, flags


def _columns_for(config: ExtractorConfig,
                 vocabulary: TfidfVocabulary | None) -> tuple[list[str], list[str]]:
    columns: list[str] = []
    groups: list[str] = []
    per_group = {
        "CF": vocabulary.feature_names() if vocabulary else [],
        "FF": list(FLUENCY_FEATURES),
        "SPF": list(PROSODY_FEATURES),
        "GVF": list(GRAMMAR_FEATURES),
        "AF": list(ACOUSTIC_FEATURES),
    }
    for group in config.groups:
        names = per_group[group]
        columns.extend(names)
        groups.extend([group] * len(names))
    return columns, groups


def extract_matrix(responses: list[AlignedResponse], resources: LexicalResources,
                   config: ExtractorConfig,
                   vocabulary: TfidfVocabulary | None = None,
                   threads: int = 1) -> FeatureMatrix:
    """Extract the configured feature groups for every response.

    Rows follow the input response order. Per-response extraction is pure,
    so `threads` forked worker processes (`parallel.parallel_map`) give the
    same matrix as one; at more than one the caller must be single-threaded.
    """
    if "CF" in config.groups and vocabulary is None:
        raise ValueError("content features need a fitted vocabulary")
    columns, groups = _columns_for(config, vocabulary)

    def run(i):
        return _extract_one(responses[i], resources, vocabulary, config)

    results = parallel_map(run, len(responses), threads)

    values = np.empty((len(responses), len(columns)), dtype=np.float64)
    flags: dict[str, list[str]] = {}
    for i, (response, (row, row_flags)) in enumerate(zip(responses, results)):
        # Every column exactly once: a missing or an unknown one is an error.
        try:
            values[i] = [row.pop(name) for name in columns]
        except KeyError as exc:
            raise ValueError(f"extractor emitted no column {exc.args[0]!r} for "
                             f"response {response.response_id!r}") from None
        if row:
            raise ValueError(f"extractor emitted unknown columns: {sorted(row)[:3]}")
        if row_flags:
            flags[response.response_id] = sorted(row_flags)
    return FeatureMatrix(response_ids=[r.response_id for r in responses],
                         columns=columns, groups=groups, values=values,
                         flags=flags)
