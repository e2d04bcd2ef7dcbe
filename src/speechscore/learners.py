"""Ensemble learners and model selection on top of the CART primitive.

Forests bootstrap every tree and subsample ``TreeParams.mtry`` features per
split, with one derived seed per tree. Training runs serially: its many
small NumPy calls hold the interpreter lock, so threads made it slower.
Gradient boosting fits squared-loss residuals for regression and one tree
per class per stage on softmax gradients for classification (leaf values
replaced by the standard multiclass Newton step). The linear baselines use
a fixed ridge damping, and the logistic descent a fixed tolerance and
iteration cap. ``fit_model`` builds every model of the pipeline from its
row of ``DEFAULT_PARAMS``, so ``grid_search``, exhaustive over the grid it
is given and selecting on mean validation QWK, scores what a refit fits.
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .corpus import Standardizer, fit_standardizer
from .metrics import mse, qwk, to_grades
from .trees import Presorted, Tree, TreeParams, check_task, fit_tree

_EPS = 1e-12
# Ridge damping of the linear and logistic fits; gradient-norm tolerance and
# iteration cap of the logistic descent.
_DAMPING = 1e-8
_LOGISTIC_TOL = 1e-6
_LOGISTIC_MAX_ITER = 10000


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's maximum."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def _expected_grade(proba: np.ndarray) -> np.ndarray:
    """The probability-weighted expected ordinal, sum_k k * p_k, per row."""
    return proba @ np.arange(proba.shape[1], dtype=np.float64)


@dataclass
class TreeEnsembleModel:
    kind: str                      # single_tree | forest | gbt_regressor | gbt_classifier
    task: str                      # regression | classification
    trees: list[Tree]
    base_score: float | np.ndarray
    learning_rate: float
    feature_names: list[str]
    n_classes: int | None = None
    train_loss: list[float] = field(default_factory=list)

    def tree_scale(self) -> float:
        """Weight applied to each tree's output in the ensemble sum."""
        if self.kind == "forest":
            return 1.0 / len(self.trees)
        if self.kind in ("gbt_regressor", "gbt_classifier"):
            return self.learning_rate
        return 1.0

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        """Raw per-class scores (classification) or values (regression)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        scale = self.tree_scale()
        if self.kind in ("single_tree", "forest"):
            # The mean of the trees: summing and dividing once by the count
            # (1 / scale) rounds differently from adding scale * each tree.
            acc = self.trees[0].predict(X).astype(np.float64)
            for tree in self.trees[1:]:
                acc += tree.predict(X)
            return acc / len(self.trees)
        # Boosting adds scale * each tree to the base score; a classifier
        # stores its trees stage-major, one per class per stage.
        base = np.asarray(self.base_score, dtype=np.float64).reshape(-1)
        out = np.tile(base, (X.shape[0], 1))
        for i, tree in enumerate(self.trees):
            out[:, i % base.size] += scale * tree.predict(X)
        return out if self.kind == "gbt_classifier" else out.ravel()

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.task != "classification":
            raise ValueError("probabilities are only defined for classifiers")
        scores = self.decision_scores(X)
        if self.kind == "gbt_classifier":
            return _softmax(scores)
        total = scores.sum(axis=1, keepdims=True)
        return scores / np.where(total > 0, total, 1.0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Regression value, or argmax class label for classifiers."""
        if self.task == "regression":
            return self.decision_scores(X)
        return np.argmax(self.decision_scores(X), axis=1).astype(np.float64)

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Scalar output for PDP curves: the value itself for regression,
        the probability-weighted expected ordinal for classifiers."""
        if self.task == "regression":
            return self.decision_scores(X)
        return _expected_grade(self.predict_proba(X))

    def to_json(self) -> dict:
        base = self.base_score
        if isinstance(base, np.ndarray):
            base = base.tolist()
        return {"family": "tree_ensemble", "kind": self.kind, "task": self.task,
                "base_score": base, "learning_rate": self.learning_rate,
                "feature_names": list(self.feature_names),
                "n_classes": self.n_classes,
                "train_loss": [float(v) for v in self.train_loss],
                "trees": [t.to_json() for t in self.trees]}

    @classmethod
    def from_json(cls, payload: dict) -> "TreeEnsembleModel":
        base = payload["base_score"]
        if isinstance(base, list):
            base = np.asarray(base, dtype=np.float64)
        return cls(kind=payload["kind"], task=payload["task"],
                   trees=[Tree.from_json(t) for t in payload["trees"]],
                   base_score=base, learning_rate=payload["learning_rate"],
                   feature_names=list(payload["feature_names"]),
                   n_classes=payload.get("n_classes"),
                   train_loss=list(payload.get("train_loss", [])))


def _as_arrays(X, y, weights):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if weights is None:
        weights = np.ones(y.shape[0], dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite training data")
    return X, y, weights


def fit_single_tree(X, y, weights=None, params: TreeParams | None = None,
                    task: str = "regression", n_classes: int | None = None,
                    feature_names: list[str] | None = None,
                    seed: int = 0) -> TreeEnsembleModel:
    X, y, weights = _as_arrays(X, y, weights)
    rng = np.random.default_rng(seed)
    tree = fit_tree(X, y, weights, params, task=task, n_classes=n_classes, rng=rng)
    return TreeEnsembleModel(
        kind="single_tree", task=task, trees=[tree], base_score=0.0,
        learning_rate=1.0,
        feature_names=feature_names or [f"f{i}" for i in range(X.shape[1])],
        n_classes=n_classes if task == "classification" else None)


def fit_forest(X, y, weights=None, n_trees: int = 100, seed: int = 0,
               params: TreeParams | None = None, task: str = "regression",
               n_classes: int | None = None,
               feature_names: list[str] | None = None) -> TreeEnsembleModel:
    """Random forest of bootstrapped trees with one derived seed per tree.

    Each split draws ``params.mtry`` candidate columns; ``None`` means the
    square root of the column count for classification and a third of it
    for regression, at least 1.
    """
    X, y, weights = _as_arrays(X, y, weights)
    if n_trees < 1:
        raise ValueError("need at least one tree")
    params = params or TreeParams()
    if task == "classification" and n_classes is None:
        n_classes = int(y.max()) + 1
    if params.mtry is None:
        p = X.shape[1]
        mtry = int(np.sqrt(p)) if task == "classification" else p // 3
        params = replace(params, mtry=max(1, mtry))
    seeds = np.random.SeedSequence(seed).spawn(n_trees)
    presorted = Presorted(X)

    def one_tree(seq):
        rng = np.random.default_rng(seq)
        counts = np.bincount(rng.integers(0, y.size, y.size), minlength=y.size)
        w = weights * counts
        keep = w > 0
        return fit_tree(X[keep], y[keep], w[keep], params, task=task,
                        n_classes=n_classes,
                        rng=np.random.default_rng(seq.spawn(1)[0]),
                        presorted=presorted.rows(keep))

    trees = [one_tree(seq) for seq in seeds]
    return TreeEnsembleModel(
        kind="forest", task=task, trees=trees, base_score=0.0, learning_rate=1.0,
        feature_names=feature_names or [f"f{i}" for i in range(X.shape[1])],
        n_classes=n_classes if task == "classification" else None)


def fit_gbt(X, y, weights=None, n_stages: int = 100, learning_rate: float = 0.1,
            params: TreeParams | None = None, task: str = "regression",
            n_classes: int | None = None, seed: int = 0, init: str = "mean",
            feature_names: list[str] | None = None) -> TreeEnsembleModel:
    """Gradient-boosted trees; training loss is recorded per stage.

    For regression each stage fits the current residuals, so the weighted
    training MSE is non-increasing. ``init="zero"`` starts from a zero base
    score instead of the weighted mean. Every stage and class fits the same
    X, so X is presorted once for all of them, and each fit reports the leaf
    of every training row, from which the stage updates the predictions.
    """
    X, y, weights = _as_arrays(X, y, weights)
    check_task(task)
    if n_stages < 1 or not (0.0 < learning_rate <= 1.0):
        raise ValueError("need n_stages >= 1 and learning_rate in (0, 1]")
    params = params or TreeParams(max_depth=3)
    names = feature_names or [f"f{i}" for i in range(X.shape[1])]
    wsum = weights.sum()
    rng = np.random.default_rng(seed)
    presorted = Presorted(X)
    leaves = np.empty(y.size, dtype=np.int64)

    if task == "regression":
        base = float((weights * y).sum() / wsum) if init == "mean" else 0.0
        current = np.full(y.size, base)
        trees: list[Tree] = []
        losses = [float((weights * (y - current) ** 2).sum() / wsum)]
        for _ in range(n_stages):
            residual = y - current
            tree = fit_tree(X, residual, weights, params, task="regression",
                            rng=rng, presorted=presorted, leaves=leaves)
            current = current + learning_rate * tree.value[leaves]
            trees.append(tree)
            losses.append(float((weights * (y - current) ** 2).sum() / wsum))
        return TreeEnsembleModel(kind="gbt_regressor", task="regression",
                                 trees=trees, base_score=base,
                                 learning_rate=learning_rate,
                                 feature_names=names, train_loss=losses)

    if n_classes is None:
        n_classes = int(y.max()) + 1
    K = n_classes
    labels = y.astype(np.int64)
    onehot = np.zeros((y.size, K), dtype=np.float64)
    onehot[np.arange(y.size), labels] = 1.0
    priors = (weights[:, None] * onehot).sum(axis=0) / wsum
    if init == "mean":
        base = np.log(np.clip(priors, 1e-12, None))
    else:
        base = np.zeros(K, dtype=np.float64)
    logits = np.tile(base, (y.size, 1))
    trees = []
    losses = []

    def log_loss(lg):
        shifted = lg - lg.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(-(weights * logp[np.arange(y.size), labels]).sum() / wsum)

    losses.append(log_loss(logits))
    for _ in range(n_stages):
        proba = _softmax(logits)
        for k in range(K):
            grad = onehot[:, k] - proba[:, k]
            tree = fit_tree(X, grad, weights, params, task="regression",
                            rng=rng, presorted=presorted, leaves=leaves)
            _newton_relabel(tree, leaves, grad, weights, K)
            logits[:, k] += learning_rate * tree.value[leaves]
            trees.append(tree)
        losses.append(log_loss(logits))
    return TreeEnsembleModel(kind="gbt_classifier", task="classification",
                             trees=trees, base_score=base,
                             learning_rate=learning_rate, feature_names=names,
                             n_classes=K, train_loss=losses)


def _newton_relabel(tree: Tree, leaf_of, grad, weights, n_classes):
    """Replace leaf values by the multiclass Newton step on the log-loss;
    ``leaf_of`` holds the leaf of each training row."""
    factor = (n_classes - 1) / n_classes
    for leaf in np.unique(leaf_of):
        rows = leaf_of == leaf
        g = grad[rows]
        w = weights[rows]
        denom = (w * np.abs(g) * (1.0 - np.abs(g))).sum()
        tree.value[leaf] = factor * (w * g).sum() / max(denom, _EPS)


# ---------------------------------------------------------------------------
# Linear baselines: the only models that standardize their inputs, with
# the mean and std of their training rows


@dataclass
class LinearModel:
    coef: np.ndarray
    intercept: float
    feature_names: list[str]
    scaler: Standardizer
    task: str = "regression"

    def predict(self, X) -> np.ndarray:
        X = self.scaler.transform(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        return X @ self.coef + self.intercept

    predict_value = predict

    def to_json(self) -> dict:
        return {"family": "linear", "coef": self.coef.tolist(),
                "intercept": self.intercept,
                "feature_names": list(self.feature_names),
                **self.scaler.to_json()}

    @classmethod
    def from_json(cls, payload: dict) -> "LinearModel":
        return cls(coef=np.asarray(payload["coef"], dtype=np.float64),
                   intercept=float(payload["intercept"]),
                   feature_names=list(payload["feature_names"]),
                   scaler=Standardizer.from_json(payload))


@dataclass
class LogisticModel:
    coef: np.ndarray          # (K, p)
    intercept: np.ndarray     # (K,)
    feature_names: list[str]
    scaler: Standardizer
    n_classes: int = 2
    task: str = "classification"

    def predict_proba(self, X) -> np.ndarray:
        X = self.scaler.transform(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        return _softmax(X @ self.coef.T + self.intercept)

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1).astype(np.float64)

    def predict_value(self, X) -> np.ndarray:
        return _expected_grade(self.predict_proba(X))

    def to_json(self) -> dict:
        return {"family": "logistic", "coef": self.coef.tolist(),
                "intercept": self.intercept.tolist(),
                "feature_names": list(self.feature_names),
                "n_classes": self.n_classes, **self.scaler.to_json()}

    @classmethod
    def from_json(cls, payload: dict) -> "LogisticModel":
        return cls(coef=np.asarray(payload["coef"], dtype=np.float64),
                   intercept=np.asarray(payload["intercept"], dtype=np.float64),
                   feature_names=list(payload["feature_names"]),
                   scaler=Standardizer.from_json(payload),
                   n_classes=int(payload["n_classes"]))


def fit_linear(X, y, feature_names: list[str] | None = None) -> LinearModel:
    """Ridge-damped least squares (handles collinear designs) on the
    z-scores of X."""
    X, y, _ = _as_arrays(X, y, None)
    scaler = fit_standardizer(X)
    Xb = np.hstack([scaler.transform(X), np.ones((X.shape[0], 1))])
    gram = Xb.T @ Xb + _DAMPING * np.eye(Xb.shape[1])
    beta = np.linalg.solve(gram, Xb.T @ y)
    return LinearModel(coef=beta[:-1], intercept=float(beta[-1]),
                       feature_names=feature_names or [f"f{i}" for i in range(X.shape[1])],
                       scaler=scaler)


def fit_logistic(X, y, weights=None, n_classes: int | None = None,
                 feature_names: list[str] | None = None) -> LogisticModel:
    """Multinomial logistic regression by full-batch gradient descent.

    Fits on the z-scores of X. Runs until the gradient norm of the
    weight-normalized, ridge-damped log-loss falls below 1e-6 or for 10000
    iterations; the step size comes from the softmax Hessian trace bound, so
    descent is monotone.
    """
    X, y, weights = _as_arrays(X, y, weights)
    scaler = fit_standardizer(X)
    if n_classes is None:
        n_classes = int(y.max()) + 1
    K = n_classes
    labels = y.astype(np.int64)
    Xb = np.hstack([scaler.transform(X), np.ones((X.shape[0], 1))])
    wn = weights / weights.sum()
    onehot = np.zeros((y.size, K), dtype=np.float64)
    onehot[np.arange(y.size), labels] = 1.0

    beta = np.zeros((K, Xb.shape[1]), dtype=np.float64)
    lipschitz = 0.5 * float((wn[:, None] * Xb * Xb).sum()) + _DAMPING
    step = 1.0 / lipschitz
    for _ in range(_LOGISTIC_MAX_ITER):
        proba = _softmax(Xb @ beta.T)
        grad = (proba - onehot).T @ (wn[:, None] * Xb) + _DAMPING * beta
        if np.sqrt((grad * grad).sum()) < _LOGISTIC_TOL:
            break
        beta -= step * grad
    return LogisticModel(coef=beta[:, :-1], intercept=beta[:, -1],
                         feature_names=feature_names or [f"f{i}" for i in range(X.shape[1])],
                         scaler=scaler, n_classes=K)


# ---------------------------------------------------------------------------
# The model table, class weights and grid search


# One row per model key, in report order. A row names every parameter its
# model accepts; fit_model rejects any other name.
DEFAULT_PARAMS = {
    "linear": {},
    "decision_tree": {"max_depth": 6, "min_samples_leaf": 5,
                      "min_samples_split": 2, "mtry": None},
    "random_forest": {"n_trees": 80, "max_depth": 8, "min_samples_leaf": 2,
                      "min_samples_split": 2, "mtry": None},
    "gbt": {"n_stages": 100, "learning_rate": 0.1, "max_depth": 3,
            "min_samples_leaf": 5, "min_samples_split": 2, "mtry": None},
    # A forest over the single word-count column W.
    "length_baseline": {"n_trees": 100, "max_depth": 6, "min_samples_leaf": 1,
                        "min_samples_split": 2, "mtry": None},
}


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _at_least(low: int):
    return f"an integer >= {low}", lambda v, p: _integer(v) and v >= low


# The range of each DEFAULT_PARAMS entry: its description, and a test of a
# value given the column count p of X. fit_model rejects a value outside it.
PARAM_RANGES = {
    "n_trees": _at_least(1), "n_stages": _at_least(1),
    "max_depth": _at_least(1), "min_samples_leaf": _at_least(1),
    "min_samples_split": _at_least(2),
    "learning_rate": ("a real number in (0, 1]",
                      lambda v, p: isinstance(v, numbers.Real)
                      and not isinstance(v, bool) and 0 < v <= 1),
    "mtry": ("null or an integer in [1, {p}]",
             lambda v, p: v is None or (_integer(v) and 1 <= v <= p)),
}


def fit_model(kind: str, params: dict | None, X, y, weights=None,
              task: str = "regression", n_classes: int | None = None,
              seed: int = 0, feature_names: list[str] | None = None):
    """Fit the model of a ``DEFAULT_PARAMS`` key: its row, overridden by
    ``params``. ``linear`` classifies by multinomial logistic regression;
    ``length_baseline`` is a forest on the columns given (W in the harness).
    A ``params`` that is not a mapping, a parameter name outside the row, a
    value outside its ``PARAM_RANGES`` range, or a ``task`` outside
    ``trees.TASKS`` is a ``ValueError``."""
    if kind not in DEFAULT_PARAMS:
        raise ValueError(f"unknown model kind {kind!r}")
    check_task(task)
    params = {} if params is None else params
    if not isinstance(params, Mapping):
        raise ValueError(f"parameters for {kind} must be a mapping of names "
                         f"to values, got {params!r}")
    unknown = set(params) - set(DEFAULT_PARAMS[kind])
    if unknown:
        raise ValueError(f"unknown parameter(s) for {kind}: {sorted(unknown)}")
    if kind == "linear":
        if task == "classification":
            return fit_logistic(X, y, weights, n_classes=n_classes,
                                feature_names=feature_names)
        return fit_linear(X, y, feature_names=feature_names)
    p = dict(DEFAULT_PARAMS[kind], **params)
    n_columns = np.shape(X)[1]
    for name, value in p.items():
        description, accepts = PARAM_RANGES[name]
        if not accepts(value, n_columns):
            raise ValueError(f"{name} for {kind} must be "
                             f"{description.format(p=n_columns)}, got {value!r}")
    tree_params = TreeParams(max_depth=p["max_depth"],
                             min_samples_leaf=p["min_samples_leaf"],
                             min_samples_split=p["min_samples_split"],
                             mtry=p["mtry"])
    if kind == "decision_tree":
        return fit_single_tree(X, y, weights, tree_params, task=task,
                               n_classes=n_classes, feature_names=feature_names,
                               seed=seed)
    if kind == "gbt":
        return fit_gbt(X, y, weights, n_stages=p["n_stages"],
                       learning_rate=float(p["learning_rate"]),
                       params=tree_params, task=task, n_classes=n_classes,
                       seed=seed, feature_names=feature_names)
    return fit_forest(X, y, weights, n_trees=p["n_trees"], seed=seed,
                      params=tree_params, task=task, n_classes=n_classes,
                      feature_names=feature_names)


def class_weights(y) -> np.ndarray:
    """weight(sample of class k) = n / (K * n_k); the weights sum to n."""
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise ValueError("empty label vector")
    classes, counts = np.unique(y, return_counts=True)
    lookup = {c: y.size / (classes.size * n) for c, n in zip(classes, counts)}
    return np.asarray([lookup[v] for v in y], dtype=np.float64)


def _cv_folds(y, folds, seed, stratified):
    rng = np.random.default_rng(seed)
    n = y.size
    assignment = np.empty(n, dtype=np.int64)
    if stratified:
        for cls in np.unique(y):
            rows = np.flatnonzero(y == cls)
            rng.shuffle(rows)
            assignment[rows] = np.arange(rows.size) % folds
    else:
        order = rng.permutation(n)
        assignment[order] = np.arange(n) % folds
    return assignment


def grid_search(model_kind: str, grid: dict[str, list], X, y, folds: int = 5,
                seed: int = 0, task: str = "regression",
                n_classes: int | None = None,
                weights=None) -> tuple[dict, list[dict]]:
    """Exhaustive search over the product of the grid's axes, the first axis
    varying slowest; best point = highest mean validation QWK, ties broken
    by lower mean MSE then first-in-grid order. Fold k fits through
    `fit_model`, as a refit does, with seed ``seed + k``. Returns the
    winning parameters and the full CV table."""
    if not grid:
        raise ValueError("empty parameter grid")
    for name, axis in grid.items():
        if not isinstance(axis, list) or not axis:
            raise ValueError(f"grid axis {name!r} must be a non-empty list, "
                             f"got {axis!r}")
    if folds < 2:
        raise ValueError("need at least 2 folds")
    X = np.asarray(X, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    if n_classes is None:
        n_classes = int(y_arr.max()) + 1
    assignment = _cv_folds(y_arr.astype(np.int64), folds, seed,
                           stratified=(task == "classification"))

    def evaluate(point):
        fold_qwk, fold_mse, flagged = [], [], False
        for fold in range(folds):
            hold = assignment == fold
            if hold.all() or (~hold).all():
                flagged = True
                continue
            w_tr = weights if weights is None else np.asarray(weights)[~hold]
            model = fit_model(model_kind, point, X[~hold], y_arr[~hold], w_tr,
                              task=task, n_classes=n_classes,
                              seed=seed + fold)
            pred = model.predict(X[hold])
            truth = y_arr[hold].astype(np.int64)
            if set(np.unique(truth)) != set(range(n_classes)):
                flagged = True
            grades = to_grades(pred, n_classes, task == "classification")
            fold_qwk.append(qwk(truth, grades, n_classes))
            fold_mse.append(mse(truth, pred))
        return {"params": point,
                "mean_qwk": float(np.mean(fold_qwk)) if fold_qwk else float("-inf"),
                "mean_mse": float(np.mean(fold_mse)) if fold_mse else float("inf"),
                "fold_qwk": fold_qwk, "fold_mse": fold_mse,
                "flagged": flagged}

    table = [evaluate(dict(zip(grid, values)))
             for values in itertools.product(*grid.values())]
    best_idx = 0
    for i, row in enumerate(table[1:], start=1):
        cur = table[best_idx]
        if (row["mean_qwk"], -row["mean_mse"]) > (cur["mean_qwk"], -cur["mean_mse"]):
            best_idx = i
    return dict(table[best_idx]["params"]), table


# ---------------------------------------------------------------------------
# Serialization shared by every model family


_FAMILIES = {"tree_ensemble": TreeEnsembleModel, "linear": LinearModel,
             "logistic": LogisticModel}


def model_from_json(payload: dict):
    family = payload.get("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    return _FAMILIES[family].from_json(payload)


def save_model(model, path: str | Path, extra: dict | None = None) -> None:
    payload = model.to_json()
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_model(path: str | Path, with_payload: bool = False):
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    model = model_from_json(payload)
    return (model, payload) if with_payload else model
