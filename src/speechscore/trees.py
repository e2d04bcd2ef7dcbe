"""CART decision trees with explicit per-node cover and gain bookkeeping.

Trees are stored as flat arrays (preorder). Every node records its cover
(total sample weight that reached it) and, for internal nodes, the impurity
reduction of its split; both are required downstream by the gain-importance
ranking and the path-dependent SHAP recursion. Split search is exact greedy:
candidates are midpoints of consecutive distinct sorted feature values,
scored by weighted variance reduction (regression) or weighted Gini decrease
(classification), with ties broken by lowest feature index then lowest
threshold.

All candidate columns of a node are scored in one pass of array operations
(a column-wise stable argsort, then cumulative sums down each column); each
column's sums accumulate in the same order a one-column scan would use, so
the chosen splits and their gains do not depend on how many columns are
scored together. The two per-column totals that are squared (the last
target value and the total weighted target) are squared as Python floats,
which is libm ``pow``; NumPy squares arrays as ``x * x``, which differs in
the last bit for some inputs and would shift gains by one ulp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_LEAF = -1


@dataclass
class TreeParams:
    max_depth: int = 6
    min_samples_leaf: int = 1
    min_samples_split: int = 2
    mtry: int | None = None    # features considered per split; None = all


@dataclass
class Tree:
    feature: np.ndarray        # int, -1 at leaves
    threshold: np.ndarray      # float, 0 at leaves
    left: np.ndarray           # int child index, -1 at leaves
    right: np.ndarray
    cover: np.ndarray          # total sample weight reaching the node
    gain: np.ndarray           # impurity reduction of the split, 0 at leaves
    value: np.ndarray          # (n_nodes,) or (n_nodes, n_classes)

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    def is_leaf(self, node: int) -> bool:
        return self.feature[node] == _LEAF

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id reached by each row (level-synchronous descent)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.feature[0] == _LEAF:
            return np.zeros(X.shape[0], dtype=np.int64)
        # Every row starts at the root, so the first level needs no gather.
        # That keeps stumps (boosted depth-1 trees, predicted once per PDP
        # grid point) cheap.
        goes_left = X[:, self.feature[0]] <= self.threshold[0]
        node = np.where(goes_left, self.left[0], self.right[0])
        rows = np.flatnonzero(self.feature[node] != _LEAF)
        while rows.size:
            at = node[rows]
            goes_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(goes_left, self.left[at], self.right[at])
            rows = rows[self.feature[node[rows]] != _LEAF]
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value per row: (n,) for regression, (n, n_classes) otherwise."""
        return self.value[self.apply(X)]

    def leaf_mean(self) -> np.ndarray | float:
        """Cover-weighted mean of leaf values (the tree's expected output)."""
        leaves = self.feature == _LEAF
        weights = self.cover[leaves]
        values = self.value[leaves]
        if values.ndim == 1:
            return float((weights * values).sum() / weights.sum())
        return (weights[:, None] * values).sum(axis=0) / weights.sum()

    def to_json(self) -> dict:
        return {"feature": self.feature.tolist(),
                "threshold": self.threshold.tolist(),
                "left": self.left.tolist(), "right": self.right.tolist(),
                "cover": self.cover.tolist(), "gain": self.gain.tolist(),
                "value": self.value.tolist()}

    @classmethod
    def from_json(cls, payload: dict) -> "Tree":
        return cls(feature=np.asarray(payload["feature"], dtype=np.int64),
                   threshold=np.asarray(payload["threshold"], dtype=np.float64),
                   left=np.asarray(payload["left"], dtype=np.int64),
                   right=np.asarray(payload["right"], dtype=np.int64),
                   cover=np.asarray(payload["cover"], dtype=np.float64),
                   gain=np.asarray(payload["gain"], dtype=np.float64),
                   value=np.asarray(payload["value"], dtype=np.float64))


@dataclass
class _Builder:
    feature: list = field(default_factory=list)
    threshold: list = field(default_factory=list)
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    cover: list = field(default_factory=list)
    gain: list = field(default_factory=list)
    value: list = field(default_factory=list)

    def add(self, cover, value, feature=_LEAF, threshold=0.0, gain=0.0) -> int:
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.cover.append(cover)
        self.gain.append(gain)
        self.value.append(value)
        return len(self.feature) - 1

    def build(self) -> Tree:
        return Tree(feature=np.asarray(self.feature, dtype=np.int64),
                    threshold=np.asarray(self.threshold, dtype=np.float64),
                    left=np.asarray(self.left, dtype=np.int64),
                    right=np.asarray(self.right, dtype=np.int64),
                    cover=np.asarray(self.cover, dtype=np.float64),
                    gain=np.asarray(self.gain, dtype=np.float64),
                    value=np.asarray(self.value, dtype=np.float64))


def _node_value(y: np.ndarray, w: np.ndarray, n_classes: int | None):
    total = w.sum()
    if n_classes is None:
        return float((w * y).sum() / total)
    scores = np.zeros(n_classes, dtype=np.float64)
    np.add.at(scores, y.astype(np.int64), w)
    return scores / total


def _impurity_times_weight(y, w, n_classes):
    """Weighted SSE (regression) or weighted Gini * total weight."""
    total = w.sum()
    if n_classes is None:
        mean = (w * y).sum() / total
        return float((w * (y - mean) ** 2).sum())
    scores = np.zeros(n_classes, dtype=np.float64)
    np.add.at(scores, y.astype(np.int64), w)
    return float(total - (scores ** 2).sum() / total)


def _squares(v: np.ndarray) -> np.ndarray:
    """Square each entry as a Python float: libm pow, not NumPy's x * x."""
    return np.asarray([t ** 2 for t in v.tolist()], dtype=np.float64)


def _best_split(X, y, w, min_leaf, n_classes):
    """Return (gain*weight, column, threshold) of the best split over the
    columns of X, or None; ties go to the lowest column, then the lowest
    threshold."""
    n, p = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys, ws = y[order], w[order]
    counts = np.arange(1, n)
    feasible = ((xs[:-1] < xs[1:])
                & ((counts >= min_leaf) & (n - counts >= min_leaf))[:, None])
    if not feasible.any():
        return None

    cw = np.cumsum(ws, axis=0)[:-1]
    total_w = cw[-1] + ws[-1]
    if n_classes is None:
        cwy = np.cumsum(ws * ys, axis=0)[:-1]
        cwy2 = np.cumsum(ws * ys * ys, axis=0)[:-1]
        total_wy = cwy[-1] + ws[-1] * ys[-1]
        total_wy2 = cwy2[-1] + ws[-1] * _squares(ys[-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            sse_left = cwy2 - cwy ** 2 / cw
            rw = total_w - cw
            sse_right = (total_wy2 - cwy2) - (total_wy - cwy) ** 2 / rw
        parent = total_wy2 - _squares(total_wy) / total_w
        scores = parent - sse_left - sse_right
        noise_floor = 1e-12 * np.maximum(total_wy2, 1.0)
    else:
        onehot = np.zeros((n, p, n_classes), dtype=np.float64)
        onehot[np.arange(n)[:, None], np.arange(p), ys.astype(np.int64)] = ws
        ck = np.cumsum(onehot, axis=0)[:-1]
        tk = ck[-1] + onehot[-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            rw = total_w - cw
            gini_left = cw - (ck ** 2).sum(axis=2) / cw
            gini_right = rw - ((tk - ck) ** 2).sum(axis=2) / rw
        parent = total_w - (tk ** 2).sum(axis=1) / total_w
        scores = parent - gini_left - gini_right
        noise_floor = 1e-12 * np.maximum(total_w, 1.0)

    scores = np.where(feasible, scores, -np.inf)
    rows = np.argmax(scores, axis=0)        # first max = lowest threshold
    best = scores[rows, np.arange(p)]
    usable = np.isfinite(best) & (best > noise_floor)
    col = int(np.argmax(np.where(usable, best, -np.inf)))   # lowest column
    if not usable[col]:
        return None
    row = rows[col]
    threshold = (xs[row, col] + xs[row + 1, col]) / 2.0
    return float(best[col]), col, threshold


def fit_tree(X: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None,
             params: TreeParams | None = None, task: str = "regression",
             n_classes: int | None = None,
             rng: np.random.Generator | None = None) -> Tree:
    """Grow a CART tree; classification when task="classification"."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
        raise ValueError("X and y must be non-empty and aligned")
    if weights is None:
        weights = np.ones(y.shape[0], dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
    params = params or TreeParams()
    if task == "classification":
        if n_classes is None:
            n_classes = int(y.max()) + 1
    else:
        n_classes = None
    n_features = X.shape[1]
    mtry = params.mtry
    if mtry is not None:
        mtry = max(1, min(mtry, n_features))
    if mtry is not None and rng is None:
        rng = np.random.default_rng(0)

    builder = _Builder()

    def grow(idx: np.ndarray, depth: int) -> int:
        yv, wv = y[idx], weights[idx]
        cover = float(wv.sum())
        value = _node_value(yv, wv, n_classes)
        n = idx.size
        if (depth >= params.max_depth or n < params.min_samples_split
                or 2 * params.min_samples_leaf > n):
            return builder.add(cover, value)

        if mtry is not None and mtry < n_features:
            candidates = np.sort(rng.choice(n_features, size=mtry, replace=False))
            X_node = X[np.ix_(idx, candidates)]
        else:
            candidates = np.arange(n_features)
            X_node = X[idx]

        best = _best_split(X_node, yv, wv, params.min_samples_leaf, n_classes)
        if best is None:
            return builder.add(cover, value)

        score, col, threshold = best
        f = int(candidates[col])
        node = builder.add(cover, value, feature=f, threshold=threshold,
                           gain=score / cover)
        goes_left = X[idx, f] <= threshold
        builder.left[node] = grow(idx[goes_left], depth + 1)
        builder.right[node] = grow(idx[~goes_left], depth + 1)
        return node

    grow(np.arange(X.shape[0]), 0)
    return builder.build()
