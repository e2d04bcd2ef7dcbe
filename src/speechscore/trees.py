"""CART decision trees with explicit per-node cover and gain bookkeeping.

Trees are stored as flat arrays (preorder). Every node records its cover
(total sample weight that reached it) and, for internal nodes, the impurity
reduction of its split; both are required downstream by the gain-importance
ranking and the path-dependent SHAP recursion. Split search is exact greedy:
candidates are midpoints of consecutive distinct sorted feature values,
scored by weighted variance reduction (regression) or weighted Gini decrease
(classification), with ties broken by lowest feature index then lowest
threshold.

Presort. Each column of a training matrix is argsorted once, with a stable
sort, into a column-major (p, n) block (`Presorted`; the column blocks of
Chen & Guestrin 2016, arXiv:1603.02754, section 4.1). Boosting shares one
block across all its stages and classes. Each node carries its rows' ids in
that order, one row of the block per column. A split partitions them with
the left child's row mask; selecting by a mask keeps each column's order.
Children that can only be leaves get no partition. A stable sort orders
equal values by row id, so the global order restricted to a node's rows is
exactly the stable argsort of the node's own rows taken in ascending id
order, which is what sorting every node anew computes: every split,
threshold and gain is bit-identical to it. A forest node that draws
``mtry`` < p candidate columns argsorts just those columns instead, which
costs less than partitioning all p of them.

Workspace. All candidate columns of a node are scored in one pass of array
operations (gathers by the sort order, then cumulative sums along each
column). Every (columns, rows) intermediate is written into flat buffers
sized by the root and allocated with the presorted block, which the trees
of a boosted model or of a forest share. Nodes allocate no temporaries of
that size. Each column's sums accumulate in the same order a
one-column scan would use, with the same operations, so the chosen splits
and their gains do not depend on how many columns are scored together or
where the results are stored. The two per-column totals that are squared
(the last target value and the total weighted target) are squared as Python
floats, which is libm ``pow``; NumPy squares arrays as ``x * x``, which
differs in the last bit for some inputs and would shift gains by one ulp.
The targets' ``pow`` squares are taken once per tree.

Unit weights. Every regression fit of the pipeline weighs each row 1.0, and
the scorer checks that once per tree. Regression nodes then skip the weight
gather, its cumulative sum and the weight-target products: the left counts
are the vector ``lo+1 .. hi``, the right counts ``m`` minus it, the total
weight is ``m`` and the last row's square adds unscaled. Each operand equals
its weighted form bit for bit: integers are exact in float64, a cumulative
sum of ones is that integer vector, ``1.0 * v == v``, and broadcasting one
row of counts over the columns changes no value. The gain arithmetic is
shared, so splits, gains and thresholds are identical. Such a node's cover
is its row count and its value the plain mean. The Gini path keeps its
weights.

Trees are grown depth first from an explicit stack, left child first, so
nodes are numbered in preorder and a fit leaves no reference cycle behind.
A fit can record the leaf of each training row as it partitions them; the
partition makes the ``x <= threshold`` test of `Tree.apply`, so boosting
reads its training predictions from those leaves without a descent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

_LEAF = -1
# The formulations every tree fit accepts; `check_task` rejects any other.
TASKS = ("regression", "classification")


def check_task(task: str) -> None:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; choose from {list(TASKS)}")


@dataclass
class TreeParams:
    max_depth: int = 6
    min_samples_leaf: int = 1
    min_samples_split: int = 2
    mtry: int | None = None    # features considered per split; None = all


# A tree's node arrays, in field order, and their dtypes: the one table
# behind the model JSON (both ways) and the builder.
NODE_DTYPES = {"feature": np.int64, "threshold": np.float64, "left": np.int64,
               "right": np.int64, "cover": np.float64, "gain": np.float64,
               "value": np.float64}


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
        # That keeps stumps (boosted depth-1 trees) cheap on large batches
        # such as the stacked grid points of a PDP.
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
        return {name: getattr(self, name).tolist() for name in NODE_DTYPES}

    @classmethod
    def from_json(cls, payload: dict) -> "Tree":
        return cls(**{name: np.asarray(payload[name], dtype=dtype)
                      for name, dtype in NODE_DTYPES.items()})


class _Builder:
    """A growing tree: one list per `NODE_DTYPES` array."""

    def __init__(self):
        self.arrays = {name: [] for name in NODE_DTYPES}

    def add(self, cover, value, feature=_LEAF, threshold=0.0, gain=0.0) -> int:
        """Append a node with no children yet; returns its id."""
        node = {"feature": feature, "threshold": threshold, "left": _LEAF,
                "right": _LEAF, "cover": cover, "gain": gain, "value": value}
        for name, values in self.arrays.items():
            values.append(node[name])
        return len(values) - 1

    def build(self) -> Tree:
        return Tree(**{name: np.asarray(values, dtype=NODE_DTYPES[name])
                       for name, values in self.arrays.items()})


def _node_value(y: np.ndarray, w: np.ndarray | None, n_classes: int | None):
    """A node's value; ``w`` None means unit weights."""
    total = float(y.size) if w is None else w.sum()
    if n_classes is None:
        return float((y if w is None else w * y).sum() / total)
    scores = np.zeros(n_classes, dtype=np.float64)
    np.add.at(scores, y.astype(np.int64), 1.0 if w is None else w)
    return scores / total


def _threshold(below: float, above: float) -> float:
    """The midpoint of two sorted neighbours ``below < above``, or ``below``
    where the midpoint rounds up to ``above`` (adjacent floats) or
    overflows: ``x <= threshold`` must keep ``above`` out of the left side.
    Python floats, so that an overflow gives inf without a warning."""
    below, above = float(below), float(above)
    mid = (below + above) / 2.0
    return mid if below <= mid < above else below


def _squares(v: np.ndarray) -> np.ndarray:
    """Square each entry as a Python float: libm pow, not NumPy's x * x."""
    return np.fromiter(map(pow, v.tolist(), itertools.repeat(2.0)),
                       dtype=np.float64, count=v.size)


class _Workspace:
    """Flat scratch buffers for scoring up to ``size`` (column, row) cells
    of a node, and a row mask for partitioning a node's sort orders."""

    def __init__(self, size: int, n_rows: int):
        self.size = size
        self.index = np.empty(size, dtype=np.int64)
        self.floats = np.empty((8, size), dtype=np.float64)
        self.mask = np.empty(size, dtype=bool)
        self.rows = np.empty(n_rows, dtype=bool)
        self._onehot = np.empty((2, 0), dtype=np.float64)

    def onehot(self, n_classes: int) -> np.ndarray:
        """Two buffers of ``size * n_classes`` cells, for class counts."""
        if self._onehot.shape[1] < self.size * n_classes:
            self._onehot = np.empty((2, self.size * n_classes), dtype=np.float64)
        return self._onehot


class Presorted:
    """A training matrix prepared for split search: its columns as a
    C-contiguous (p, n) block, each column's stable argsort in the same
    layout (sorted on first use), and the scoring workspace. Fits may share
    one, one fit at a time: the stages of a boosted model share the
    matrix's, and the trees of a forest share one workspace through
    `rows`."""

    def __init__(self, X: np.ndarray, work: _Workspace | None = None):
        self.columns = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
        self.work = work or _Workspace(self.columns.size, self.columns.shape[1])
        self._order = None

    @property
    def order(self) -> np.ndarray:
        if self._order is None:
            self._order = np.argsort(self.columns, axis=1, kind="stable")
        return self._order

    def rows(self, keep: np.ndarray) -> "Presorted":
        """The presorted matrix of ``X[keep]``, sharing this workspace."""
        return Presorted(self.columns[:, keep].T, self.work)


class _SplitScorer:
    """Scores every candidate split of a node for one tree's targets, in the
    buffers of a workspace; nodes allocate no (columns, rows) temporaries."""

    def __init__(self, columns: np.ndarray, work: _Workspace, y: np.ndarray,
                 w: np.ndarray, n_classes: int | None):
        self._x = columns.ravel()
        self._n = columns.shape[1]
        self._work = work
        self._y, self._w, self._n_classes = y, w, n_classes
        self.unit = bool((w == 1.0).all())
        if n_classes is None:
            self._y_sq = _squares(y)
            self._counts = np.arange(1, self._n + 1, dtype=np.float64)
        else:
            self._labels = y.astype(np.int64)
            self._onehot = work.onehot(n_classes)

    def best(self, order: np.ndarray, cols: np.ndarray, min_leaf: int):
        """Return (gain*weight, candidate position, threshold) of the best
        split, or None. Row c of ``order`` holds the node's row ids sorted
        by column ``cols[c]``; ties go to the lowest position, then the
        lowest threshold."""
        q, m = order.shape
        # A split after sorted position i leaves i + 1 rows on the left; only
        # positions lo..hi-1 leave min_leaf rows (and at least one) on each
        # side.
        min_leaf = max(min_leaf, 1)
        lo, hi = min_leaf - 1, m - min_leaf
        if hi <= lo:
            return None
        L = hi - lo
        work = self._work
        # Buffer i of the workspace as a (q, m) block, and as a (q, L) one.
        full = work.floats[:, :q * m].reshape(8, q, m)
        part = work.floats[:, :q * L].reshape(8, q, L)
        index = np.add(order, (cols * self._n)[:, None],
                       out=work.index[:q * m].reshape(q, m))
        xs = self._x.take(index, out=full[0], mode="clip")
        feasible = np.less(xs[:, lo:hi], xs[:, lo + 1:hi + 1],
                           out=work.mask[:q * L].reshape(q, L))
        if not feasible.any():
            return None

        scores = part[7]
        if self._n_classes is None:
            ys = self._y.take(order, out=full[1], mode="clip")
            if self.unit:
                # The weighted operands below with every weight 1.0, exactly.
                cw = self._counts[lo:hi]
                total_w = float(m)
                rw = m - cw
                cwy = ys.cumsum(axis=1, out=full[5])
                cwy2 = np.multiply(ys, ys, out=full[4]).cumsum(axis=1, out=full[6])
                total_wy2 = cwy2[:, -2] + self._y_sq[order[:, -1]]
            else:
                ws = self._w.take(order, out=full[2], mode="clip")
                cw = ws.cumsum(axis=1, out=full[3])
                total_w = cw[:, -1].copy()
                cw = cw[:, lo:hi]
                wy = np.multiply(ws, ys, out=full[4])
                cwy = wy.cumsum(axis=1, out=full[5])
                cwy2 = np.multiply(wy, ys, out=wy).cumsum(axis=1, out=full[6])
                total_wy2 = cwy2[:, -2] + ws[:, -1] * self._y_sq[order[:, -1]]
                # ys is spent: its buffer takes the right-hand weights.
                rw = np.subtract(total_w[:, None], cw, out=part[1])
            total_wy = cwy[:, -1].copy()
            cwy, cwy2 = cwy[:, lo:hi], cwy2[:, lo:hi]
            # Buffers 2 and 4 are spent (or unused): they take the right side.
            right, sse_right = part[2], part[4]
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(np.square(cwy, out=scores), cw, out=scores)
                np.subtract(cwy2, scores, out=scores)               # sse_left
                np.square(np.subtract(total_wy[:, None], cwy, out=right), out=right)
                np.divide(right, rw, out=right)
                np.subtract(np.subtract(total_wy2[:, None], cwy2, out=sse_right),
                            right, out=sse_right)
            parent = total_wy2 - _squares(total_wy) / total_w
            np.subtract(parent[:, None], scores, out=scores)
            np.subtract(scores, sse_right, out=scores)
            noise_floor = 1e-12 * np.maximum(total_wy2, 1.0)
        else:
            ws = self._w.take(order, out=full[2], mode="clip")
            cw = ws.cumsum(axis=1, out=full[3])
            total_w = cw[:, -1].copy()
            cw = cw[:, lo:hi]
            K = self._n_classes
            labels = self._labels.take(order, out=index, mode="clip")
            onehot = self._onehot[0, :q * m * K].reshape(q, m, K)
            onehot.fill(0.0)
            onehot[np.arange(q)[:, None], np.arange(m), labels] = ws
            ck = onehot.cumsum(axis=1, out=self._onehot[1, :q * m * K].reshape(q, m, K))
            tk = ck[:, -1].copy()
            ck = ck[:, lo:hi]
            squares = self._onehot[0, :q * L * K].reshape(q, L, K)
            rw, gini_right = part[1], part[2]
            with np.errstate(divide="ignore", invalid="ignore"):
                np.subtract(total_w[:, None], cw, out=rw)
                np.square(ck, out=squares).sum(axis=2, out=scores)
                np.divide(scores, cw, out=scores)
                np.subtract(cw, scores, out=scores)                 # gini_left
                np.subtract(tk[:, None, :], ck, out=squares)
                np.square(squares, out=squares).sum(axis=2, out=gini_right)
                np.divide(gini_right, rw, out=gini_right)
                np.subtract(rw, gini_right, out=gini_right)
            parent = total_w - (tk ** 2).sum(axis=1) / total_w
            np.subtract(parent[:, None], scores, out=scores)
            np.subtract(scores, gini_right, out=scores)
            noise_floor = 1e-12 * np.maximum(total_w, 1.0)

        np.putmask(scores, np.logical_not(feasible, out=feasible), -np.inf)
        rows = scores.argmax(axis=1)            # first max = lowest threshold
        best = scores[np.arange(q), rows]
        usable = np.isfinite(best) & (best > noise_floor)
        col = int(np.argmax(np.where(usable, best, -np.inf)))   # lowest column
        if not usable[col]:
            return None
        row = lo + rows[col]
        return float(best[col]), col, _threshold(xs[col, row], xs[col, row + 1])


def _splittable(params: TreeParams, n: int, depth: int) -> bool:
    return not (depth >= params.max_depth or n < params.min_samples_split
                or 2 * params.min_samples_leaf > n)


def fit_tree(X: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None,
             params: TreeParams | None = None, task: str = "regression",
             n_classes: int | None = None,
             rng: np.random.Generator | None = None,
             presorted: Presorted | None = None,
             leaves: np.ndarray | None = None) -> Tree:
    """Grow a CART tree; classification when task="classification".

    ``presorted``, when given, must be ``Presorted(X)`` or ``rows(keep)``
    of a presorted matrix whose ``X[keep]`` is X. ``leaves``, when given,
    is an integer array of one entry per row of X that receives the leaf
    each row falls in: ``tree.apply(X)``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
        raise ValueError("X and y must be non-empty and aligned")
    if weights is None:
        weights = np.ones(y.shape[0], dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
    check_task(task)
    params = params or TreeParams()
    if task == "classification":
        if n_classes is None:
            n_classes = int(y.max()) + 1
    else:
        n_classes = None
    n_rows, n_features = X.shape
    mtry = params.mtry
    if mtry is not None:
        mtry = max(1, min(mtry, n_features))
    sample = mtry is not None and mtry < n_features
    if sample and rng is None:
        rng = np.random.default_rng(0)
    presorted = presorted or Presorted(X)
    columns, work = presorted.columns, presorted.work
    order = None if sample else presorted.order
    candidates = np.arange(n_features)
    scorer = _SplitScorer(columns, work, y, weights, n_classes)

    builder = _Builder()
    # Left child popped first: preorder numbering, and the column draws of
    # `mtry` come in preorder too.
    stack = [(np.arange(n_rows), order, 0, _LEAF, True)]
    while stack:
        idx, order, depth, parent, is_left = stack.pop()
        wv = None if scorer.unit else weights[idx]
        cover = float(idx.size) if wv is None else float(wv.sum())
        value = _node_value(y[idx], wv, n_classes)
        split = None
        if _splittable(params, idx.size, depth):
            if sample:
                candidates = np.sort(rng.choice(n_features, size=mtry, replace=False))
                block = columns[candidates[:, None], idx]
                order = idx[block.argsort(axis=1, kind="stable")]
            split = scorer.best(order, candidates, params.min_samples_leaf)
        if split is None:
            node = builder.add(cover, value)
            if leaves is not None:
                leaves[idx] = node
        else:
            score, col, threshold = split
            f = int(candidates[col])
            node = builder.add(cover, value, feature=f, threshold=threshold,
                               gain=score / cover)
        if parent != _LEAF:
            builder.arrays["left" if is_left else "right"][parent] = node
        if split is None:
            continue

        goes_left = X[idx, f] <= threshold
        children = [idx[goes_left], idx[~goes_left]]
        orders = [None, None]
        if not sample and any(_splittable(params, c.size, depth + 1)
                              for c in children):
            # Partition each column's order by the row mask; boolean
            # selection keeps the order within each column.
            work.rows[idx] = goes_left
            goes = work.rows.take(
                order, out=work.mask[:order.size].reshape(order.shape), mode="clip")
            for side, rows in enumerate(children):
                if side:
                    np.logical_not(goes, out=goes)
                if _splittable(params, rows.size, depth + 1):
                    orders[side] = np.compress(goes.ravel(), order).reshape(
                        n_features, rows.size)
        stack.append((children[1], orders[1], depth + 1, node, False))
        stack.append((children[0], orders[0], depth + 1, node, True))
    return builder.build()
