"""Experiment orchestration: per-prompt train/evaluate over every model and
both task formulations, plus the two ablation protocols.

Every configuration retrains from scratch on the train split.
`evaluation_entries` reports QWK, Pearson r and MSE on the validation and
test splits, plus a human-human agreement entry whenever the corpus carries
a second rater, for `run_benchmark` and `evaluate` alike. Models come from
``learners.fit_model`` with the ``learners.DEFAULT_PARAMS`` row of their
key, in training, in every cross-validation fold of ``tune`` and in the
ablation cells of `_ablation`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import learners
from .content import TfidfVocabulary
from .corpus import (SPLIT_RATIOS, AlignedResponse, FeatureMatrix,
                     LexicalResources, SplitAssignment, stratified_split)
from .corpus import fit_standardizer  # noqa: F401 -- perfbench/spans.py traces it here
from .features import ExtractorConfig, extract_matrix, fit_content_vocabulary
from .grammar import word_tokens
from .learners import class_weights
from .metrics import confusion_matrix, metric_report, to_grades
from .trees import TASKS

MODEL_KEYS = tuple(learners.DEFAULT_PARAMS)
SPLITS = ("valid", "test")


@dataclass
class PromptDataset:
    """Everything needed to train and explain models for one prompt."""

    prompt_id: str
    matrix: FeatureMatrix            # raw feature values, all responses
    vocabulary: TfidfVocabulary | None
    split: SplitAssignment
    y: dict[str, int]                # response_id -> ordinal grade
    y2: dict[str, int]               # second rater, possibly empty
    n_classes: int
    lengths: dict[str, float]        # response_id -> word count W

    def rows(self, split_name: str) -> list[int]:
        wanted = getattr(self.split, split_name)
        return [i for i, rid in enumerate(self.matrix.response_ids) if rid in wanted]

    def design(self, split_name: str, groups=None):
        matrix = self.matrix if groups is None else self.matrix.select_groups(groups)
        idx = self.rows(split_name)
        ids = [matrix.response_ids[i] for i in idx]
        X = matrix.values[idx]
        y = np.asarray([self.y[r] for r in ids], dtype=np.float64)
        return X, y, ids, list(matrix.columns)


def prepare_prompt(responses: list[AlignedResponse],
                   resources: LexicalResources,
                   config: ExtractorConfig,
                   ratios: tuple[float, float, float] = SPLIT_RATIOS,
                   audio_lookup=None, threads: int = 1) -> PromptDataset:
    """Split, fit the train-side vocabulary and extract raw features.

    ``config.seed`` seeds both the split and the ndwerz/ndwesz sampling, as
    ``extract --seed`` does."""
    prompts = {r.prompt_id for r in responses}
    if len(prompts) != 1:
        raise ValueError(f"expected one prompt, got {sorted(prompts)}")
    responses = sorted(responses, key=lambda r: r.response_id)
    split = stratified_split(responses, ratios=ratios, seed=config.seed)

    vocabulary = None
    if "CF" in config.groups:
        vocabulary = fit_content_vocabulary(responses, split.train, config)
    matrix = extract_matrix(responses, resources, config, vocabulary,
                            audio_lookup=audio_lookup, threads=threads)

    y = {r.response_id: r.grade.ordinal for r in responses}
    y2 = {r.response_id: r.grade2.ordinal for r in responses
          if r.grade2 is not None}
    n_classes = max(y.values()) + 1
    lengths = {r.response_id: float(len(word_tokens(r.tokens))) for r in responses}
    return PromptDataset(prompt_id=responses[0].prompt_id, matrix=matrix,
                         vocabulary=vocabulary, split=split, y=y, y2=y2,
                         n_classes=n_classes, lengths=lengths)


def _inputs(dataset: PromptDataset, model_key: str, split_name: str,
            groups=None, model=None):
    """A split's model inputs: the design matrix, or the word-count column
    W alone for the length baseline. Returns (X, y, column names). Inputs
    for a trained ``model`` must have its feature names as their columns;
    otherwise a ``ValueError`` names the first column that differs."""
    X, y, ids, columns = dataset.design(split_name, groups)
    if model_key == "length_baseline":
        X = np.asarray([dataset.lengths[r] for r in ids]).reshape(-1, 1)
        columns = ["W"]
    if model is not None and list(model.feature_names) != columns:
        pairs = zip(list(model.feature_names) + [None], columns + [None])
        at, (want, got) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        raise ValueError(f"model does not match the features: column {at} is "
                         f"{want!r} in the model but {got!r} in the features")
    return X, y, columns


def _train(dataset: PromptDataset, model_key: str, formulation: str,
           params: dict | None, seed: int, groups=None):
    X, y, columns = _inputs(dataset, model_key, "train", groups)
    weights = class_weights(y) if formulation == "classification" else None
    # Through the module, so that a fit_model replaced there sees the refit.
    return learners.fit_model(model_key, params, X, y, weights,
                              task=formulation, n_classes=dataset.n_classes,
                              seed=seed, feature_names=columns)


def tune(dataset: PromptDataset, grid: dict, model_key: str = "gbt",
         formulation: str = "regression", folds: int = 5, seed: int = 0):
    """Grid-search one model key on the train split; returns
    (best_params, cv_table)."""
    X, y, _ = _inputs(dataset, model_key, "train")
    weights = class_weights(y) if formulation == "classification" else None
    # Called through the module: perfbench/spans.py traces it there.
    return learners.grid_search(model_key, grid, X, y, folds=folds, seed=seed,
                                task=formulation, n_classes=dataset.n_classes,
                                weights=weights)


def _evaluate(dataset: PromptDataset, model, split_name: str,
              model_key: str, groups=None) -> dict:
    X, y, _ = _inputs(dataset, model_key, split_name, groups, model)
    raw, human = model.predict(X), y.astype(np.int64)
    ordinal = model.task == "classification"
    out = metric_report(human, raw, dataset.n_classes,
                        already_ordinal=ordinal).to_json()
    out["confusion"] = confusion_matrix(
        human, to_grades(raw, dataset.n_classes, ordinal),
        dataset.n_classes).tolist()
    return out


def human_agreement(dataset: PromptDataset, split_name: str) -> dict | None:
    """QWK/r/MSE between the two raters on one split, when available."""
    idx = dataset.rows(split_name)
    ids = [dataset.matrix.response_ids[i] for i in idx]
    pairs = [(dataset.y[r], dataset.y2[r]) for r in ids if r in dataset.y2]
    if len(pairs) < 2:
        return None
    h1 = np.asarray([p[0] for p in pairs], dtype=np.int64)
    h2 = np.asarray([p[1] for p in pairs], dtype=np.float64)
    return metric_report(h1, h2, dataset.n_classes, already_ordinal=True).to_json()


def _human_human(dataset: PromptDataset) -> dict:
    """``{"human_human": ...}``, `human_agreement` on every split, when the
    corpus carries a second rater; otherwise empty."""
    hh = {s: human_agreement(dataset, s) for s in SPLITS}
    return {"human_human": hh} if any(v is not None for v in hh.values()) else {}


def evaluation_entries(dataset: PromptDataset, model, model_key: str) -> dict:
    """A model's ``valid`` and ``test`` entries, plus the ``human_human``
    entry when the corpus carries a second rater."""
    return {**{s: _evaluate(dataset, model, s, model_key) for s in SPLITS},
            **_human_human(dataset)}


def run_benchmark(dataset: PromptDataset,
                  models: tuple[str, ...] = MODEL_KEYS,
                  formulations: tuple[str, ...] = TASKS,
                  seed: int = 0, params: dict | None = None) -> dict:
    """One report row per (model, formulation), trained from scratch, and
    the ``human_human`` entry when the corpus carries a second rater."""
    for kind, names, known in (("model key", models, MODEL_KEYS),
                               ("formulation", formulations, TASKS)):
        unknown = set(names) - set(known)
        if unknown:
            raise ValueError(f"unknown {kind}(s): {sorted(unknown)}")
    report = {"prompt": dataset.prompt_id, "n_classes": dataset.n_classes,
              "rows": [], **_human_human(dataset)}
    for formulation in formulations:
        for model_key in models:
            model = _train(dataset, model_key, formulation,
                           (params or {}).get(model_key), seed)
            report["rows"].append({
                "prompt": dataset.prompt_id, "model": model_key,
                "formulation": formulation,
                **{s: _evaluate(dataset, model, s, model_key) for s in SPLITS}})
    return report


# ---------------------------------------------------------------------------
# Ablations


@dataclass
class AblationReport:
    mode: str                      # additive | leave_one_out
    rows: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"mode": self.mode, "rows": self.rows}


def _ablation(dataset: PromptDataset, mode: str, cells, full: int, seed,
              params) -> AblationReport:
    """Fit the boosted regressor from scratch on each (configuration,
    groups) cell and score it on the test split; ``pct_change`` is the QWK
    change relative to the full cell, ``cells[full]``, which reads 0."""
    report = AblationReport(mode=mode)
    for configuration, groups in cells:
        model = _train(dataset, "gbt", "regression", params, seed, groups=groups)
        cell = _evaluate(dataset, model, "test", "gbt", groups=groups)
        report.rows.append({"configuration": configuration,
                            "groups": list(groups), "qwk": cell["qwk"],
                            "r": cell["pearson_r"], "mse": cell["mse"]})
    full_qwk = report.rows[full]["qwk"]
    for row in report.rows:
        row["pct_change"] = (100.0 * (row["qwk"] - full_qwk) / full_qwk
                             if full_qwk != 0 else 0.0)
    report.rows[full]["pct_change"] = 0.0
    return report


def ablation_additive(dataset: PromptDataset, order: tuple[str, ...] | None = None,
                      seed: int = 0, params: dict | None = None) -> AblationReport:
    """Add feature groups one by one (content first by default); the last
    stage is the full cell."""
    present = list(dict.fromkeys(dataset.matrix.groups))
    order = tuple(order) if order else tuple(present)
    missing = set(order) - set(present)
    if missing:
        raise ValueError(f"feature group(s) not extracted: {sorted(missing)}")
    cells = [("+".join(order[:k]), order[:k]) for k in range(1, len(order) + 1)]
    return _ablation(dataset, "additive", cells, -1, seed, params)


def ablation_leave_one_out(dataset: PromptDataset, seed: int = 0,
                           params: dict | None = None) -> AblationReport:
    """Drop one feature group at a time, keeping the others intact."""
    present = list(dict.fromkeys(dataset.matrix.groups))
    cells = [("full", present)] + [
        (f"~{group}", [g for g in present if g != group]) for group in present]
    return _ablation(dataset, "leave_one_out", cells, 0, seed, params)


# ---------------------------------------------------------------------------
# On-disk interchange between the CLI stages


def save_prompt_dataset(dataset: PromptDataset, out_dir: str | Path) -> None:
    """Write raw features, labels, splits, vocabulary and extraction flags."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset.matrix.to_csv(out_dir / "features.csv")
    with open(out_dir / "labels.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["response_id", "ordinal", "length", "ordinal2"])
        for rid in dataset.matrix.response_ids:
            writer.writerow([rid, dataset.y[rid], repr(dataset.lengths[rid]),
                             dataset.y2.get(rid, "")])
    payload = dataset.split.to_json()
    payload["prompt_id"] = dataset.prompt_id
    payload["n_classes"] = dataset.n_classes
    (out_dir / "splits.json").write_text(json.dumps(payload, sort_keys=True),
                                         encoding="utf-8")
    if dataset.vocabulary is not None:
        dataset.vocabulary.save(out_dir / "vocabulary.tsv")
    (out_dir / "flags.json").write_text(
        json.dumps(dataset.matrix.flags, sort_keys=True), encoding="utf-8")


def load_prompt_dataset(directory: str | Path) -> PromptDataset:
    """Rebuild a PromptDataset from an extract-stage directory: the raw
    features of features.csv, exactly as `prepare_prompt` extracted them."""
    directory = Path(directory)
    matrix = FeatureMatrix.from_csv(directory / "features.csv")
    flags_path = directory / "flags.json"
    if flags_path.exists():
        matrix.flags = json.loads(flags_path.read_text(encoding="utf-8"))
    payload = json.loads((directory / "splits.json").read_text(encoding="utf-8"))
    split = SplitAssignment.from_json(payload)
    y, y2, lengths = {}, {}, {}
    with open(directory / "labels.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for rid, ordinal, length, ordinal2 in reader:
            y[rid] = int(ordinal)
            lengths[rid] = float(length)
            if ordinal2 != "":
                y2[rid] = int(ordinal2)
    vocabulary = None
    vocab_path = directory / "vocabulary.tsv"
    if vocab_path.exists():
        vocabulary = TfidfVocabulary.load(vocab_path)
    return PromptDataset(prompt_id=payload["prompt_id"], matrix=matrix,
                         vocabulary=vocabulary, split=split, y=y, y2=y2,
                         n_classes=int(payload["n_classes"]), lengths=lengths)
