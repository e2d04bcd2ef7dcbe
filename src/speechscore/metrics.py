"""Agreement and error metrics for grade predictions.

Quadratic weighted kappa is the primary metric: disagreements are penalized
by squared ordinal distance, and the expected-agreement matrix is the outer
product of the two grade histograms rescaled to the confusion-matrix total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MetricReport:
    qwk: float
    pearson_r: float
    mse: float
    n: int
    flags: list[str]

    def to_json(self) -> dict:
        return {"qwk": self.qwk, "pearson_r": self.pearson_r,
                "mse": self.mse, "n": self.n, "flags": list(self.flags)}


def weight_matrix(n_classes: int) -> np.ndarray:
    """W[i, j] = (i - j)^2 / (N - 1)^2."""
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    idx = np.arange(n_classes, dtype=np.float64)
    return (idx[:, None] - idx[None, :]) ** 2 / (n_classes - 1) ** 2


def confusion_matrix(human, predicted, n_classes: int) -> np.ndarray:
    """O[i, j] counts responses graded i by the human and j by the model."""
    human = np.asarray(human, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if human.shape != predicted.shape or human.ndim != 1:
        raise ValueError("grade vectors must be 1-d and equal length")
    if human.size == 0:
        raise ValueError("no grade pairs")
    for v in (human, predicted):
        if v.min() < 0 or v.max() >= n_classes:
            raise ValueError("grade outside [0, N-1]")
    out = np.zeros((n_classes, n_classes), dtype=np.float64)
    np.add.at(out, (human, predicted), 1.0)
    return out


def qwk(human, predicted, n_classes: int, flags: list[str] | None = None) -> float:
    """Quadratic weighted kappa = 1 - sum(W*O) / sum(W*E).

    Histograms span the full grade range [0, N-1] even for absent classes.
    When both sides are constant and identical, the expected disagreement is
    zero and kappa is defined as 1.0 (flagged).
    """
    observed = confusion_matrix(human, predicted, n_classes)
    weights = weight_matrix(n_classes)
    hist_h = observed.sum(axis=1)
    hist_p = observed.sum(axis=0)
    expected = np.outer(hist_h, hist_p)
    total = observed.sum()
    expected *= total / expected.sum()
    denom = float((weights * expected).sum())
    if denom == 0.0:
        if flags is not None:
            flags.append("qwk_degenerate_agreement")
        return 1.0
    return 1.0 - float((weights * observed).sum()) / denom


def pearson(a, b, flags: list[str] | None = None) -> float:
    """Product-moment correlation; 0 (flagged) when either side is constant."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two 1-d vectors with >= 2 pairs")
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0.0:
        if flags is not None:
            flags.append("pearson_constant_input")
        return 0.0
    return float((da * db).sum() / denom)


def mse(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.size == 0:
        raise ValueError("need equal-length non-empty vectors")
    diff = y_true - y_pred
    return float((diff * diff).mean())


def round_to_grade(raw, n_classes: int):
    """Nearest ordinal, half-up, clamped to [0, N-1]."""
    raw = np.asarray(raw, dtype=np.float64)
    if not np.all(np.isfinite(raw)):
        raise ValueError("non-finite prediction")
    rounded = np.floor(raw + 0.5)
    clipped = np.clip(rounded, 0, n_classes - 1).astype(np.int64)
    if clipped.ndim == 0:
        return int(clipped)
    return clipped


def to_grades(predicted_raw, n_classes: int,
              already_ordinal: bool = False) -> np.ndarray:
    """Grades of predictions: class labels as they are, regression values
    by `round_to_grade`. Reports and cross-validation folds grade here."""
    raw = np.asarray(predicted_raw, dtype=np.float64)
    return raw.astype(np.int64) if already_ordinal else round_to_grade(raw, n_classes)


def metric_report(human, predicted_raw, n_classes: int,
                  already_ordinal: bool = False) -> MetricReport:
    """QWK on rounded grades plus Pearson r and MSE on the raw predictions."""
    flags: list[str] = []
    human = np.asarray(human, dtype=np.int64)
    raw = np.asarray(predicted_raw, dtype=np.float64)
    grades = to_grades(raw, n_classes, already_ordinal)
    return MetricReport(
        qwk=qwk(human, grades, n_classes, flags),
        pearson_r=pearson(human, raw, flags),
        mse=mse(human, raw),
        n=int(human.size),
        flags=flags)
