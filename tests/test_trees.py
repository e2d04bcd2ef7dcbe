import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from speechscore import learners
from speechscore.learners import class_weights, fit_gbt
from speechscore.trees import (Presorted, Tree, TreeParams, _node_value,
                               _SplitScorer, fit_tree)


class TestFitTree:
    def test_exhaustive_split_by_hand(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        tree = fit_tree(X, y)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == approx(2.5)
        leaves = sorted(tree.value[tree.feature == -1])
        assert leaves == [0.0, 10.0]
        assert np.mean((tree.predict(X) - y) ** 2) == 0.0

    def test_constant_target_single_leaf(self):
        X = np.arange(6, dtype=float).reshape(-1, 1)
        tree = fit_tree(X, np.full(6, 4.2))
        assert tree.n_nodes == 1
        assert tree.value[0] == approx(4.2)

    def test_max_depth_zero(self):
        X = np.arange(4, dtype=float).reshape(-1, 1)
        tree = fit_tree(X, np.array([0.0, 1.0, 2.0, 3.0]),
                        params=TreeParams(max_depth=0))
        assert tree.n_nodes == 1
        assert tree.value[0] == approx(1.5)

    def test_contradictory_leaf_params(self):
        X = np.arange(4, dtype=float).reshape(-1, 1)
        tree = fit_tree(X, np.array([0.0, 1.0, 2.0, 3.0]),
                        params=TreeParams(min_samples_leaf=3))
        assert tree.n_nodes == 1

    def test_cover_bookkeeping(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 4))
        y = X[:, 0] + 2 * (X[:, 1] > 0) + 0.1 * rng.normal(size=200)
        w = rng.uniform(0.5, 2.0, size=200)
        tree = fit_tree(X, y, weights=w, params=TreeParams(max_depth=5))
        internal = np.flatnonzero(tree.feature >= 0)
        assert internal.size > 0
        for node in internal:
            children = tree.cover[tree.left[node]] + tree.cover[tree.right[node]]
            assert tree.cover[node] == approx(children, abs=1e-9)
        assert np.all(tree.gain[internal] >= 0)
        assert tree.cover[0] == approx(w.sum())

    def test_tie_break_lowest_feature(self):
        # identical columns: the split must use feature 0
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = fit_tree(X, y)
        assert tree.feature[0] == 0

    def test_min_samples_leaf_respected(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)   # best unrestricted split isolates one row
        tree = fit_tree(X, y, params=TreeParams(min_samples_leaf=3))
        if tree.feature[0] >= 0:
            left = (X[:, 0] <= tree.threshold[0]).sum()
            assert 3 <= left <= 7

    def test_classification_gini(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1], dtype=float)
        tree = fit_tree(X, y, task="classification", n_classes=2)
        assert tree.threshold[0] == approx(1.5)
        proba = tree.predict(X)
        assert proba.shape == (4, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.argmax(proba, axis=1).tolist() == [0, 0, 1, 1]

    def test_json_round_trip(self):
        X = np.random.default_rng(1).normal(size=(50, 3))
        y = X[:, 0] ** 2
        tree = fit_tree(X, y, params=TreeParams(max_depth=4))
        back = Tree.from_json(tree.to_json())
        assert np.array_equal(back.predict(X), tree.predict(X))
        assert np.array_equal(back.cover, tree.cover)

    def test_apply_matches_scalar_descent(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(140, 5))
        y = X[:, 0] - X[:, 3] ** 2 + 0.1 * rng.normal(size=140)
        tree = fit_tree(X, y, params=TreeParams(max_depth=4))
        leaves = tree.apply(X)
        for x, leaf in zip(X, leaves):
            node = 0
            while not tree.is_leaf(node):
                go_left = x[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            assert leaf == node
        assert np.array_equal(tree.predict(X), tree.value[leaves])
        assert tree.predict(X[:0]).shape == (0,)

    @pytest.mark.parametrize("task, mtry", [("regression", None),
                                            ("classification", None),
                                            ("regression", 2)])
    def test_fit_leaves_no_reference_cycles(self, task, mtry):
        # A fit's node builder and per-node arrays must be freed when the
        # fit returns, not left for the cyclic collector.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 5))
        y = (X[:, 0] > 0).astype(float) + (X[:, 1] > 0.5)
        gc.collect()
        gc.disable()
        try:
            fit_tree(X, y, params=TreeParams(max_depth=4, mtry=mtry), task=task,
                     rng=np.random.default_rng(0))
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0


def _reference_split_of_feature(x, y, w, min_leaf, n_classes):
    """One-column scan, the search as it was before columns were batched."""
    order = np.argsort(x, kind="stable")
    xs, ys, ws = x[order], y[order], w[order]
    n = xs.size
    boundary = xs[:-1] < xs[1:]
    counts = np.arange(1, n)
    feasible = boundary & (counts >= min_leaf) & (n - counts >= min_leaf)
    if not feasible.any():
        return None

    cw = np.cumsum(ws)[:-1]
    total_w = cw[-1] + ws[-1]
    if n_classes is None:
        cwy = np.cumsum(ws * ys)[:-1]
        cwy2 = np.cumsum(ws * ys * ys)[:-1]
        total_wy = cwy[-1] + ws[-1] * ys[-1]
        total_wy2 = cwy2[-1] + ws[-1] * ys[-1] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            sse_left = cwy2 - cwy ** 2 / cw
            rw = total_w - cw
            sse_right = (total_wy2 - cwy2) - (total_wy - cwy) ** 2 / rw
        parent = total_wy2 - total_wy ** 2 / total_w
        scores = parent - sse_left - sse_right
        noise_floor = 1e-12 * max(total_wy2, 1.0)
    else:
        onehot = np.zeros((n, n_classes), dtype=np.float64)
        onehot[np.arange(n), ys.astype(np.int64)] = ws
        ck = np.cumsum(onehot, axis=0)[:-1]
        tk = ck[-1] + onehot[-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            rw = total_w - cw
            gini_left = cw - (ck ** 2).sum(axis=1) / cw
            gini_right = rw - ((tk - ck) ** 2).sum(axis=1) / rw
        parent = total_w - (tk ** 2).sum() / total_w
        scores = parent - gini_left - gini_right
        noise_floor = 1e-12 * max(total_w, 1.0)

    scores = np.where(feasible, scores, -np.inf)
    best = int(np.argmax(scores))
    if not np.isfinite(scores[best]) or scores[best] <= noise_floor:
        return None
    return float(scores[best]), (xs[best] + xs[best + 1]) / 2.0


def _reference_best_split(X, y, w, min_leaf, n_classes, candidates):
    best = None
    for f in candidates:
        found = _reference_split_of_feature(X[:, f], y, w, min_leaf, n_classes)
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], f, found[1])
    return best


def _batched_best_split(X, y, w, min_leaf, n_classes, candidates):
    presorted = Presorted(X)
    scorer = _SplitScorer(presorted.columns, presorted.work, y, w, n_classes)
    cols = np.asarray(candidates)
    found = scorer.best(presorted.order[cols], cols, min_leaf)
    if found is None:
        return None
    score, col, threshold = found
    return score, candidates[col], threshold


def _bits(split):
    """Exact form of a split, so that a one-ulp drift fails the comparison."""
    if split is None:
        return None
    score, feature, threshold = split
    return float(score).hex(), int(feature), float(threshold).hex()


@st.composite
def _split_cases(draw):
    n = draw(st.integers(2, 24))
    p = draw(st.integers(1, 5))
    if draw(st.booleans()):     # few distinct values: repeated x, tied gains
        x_values = st.integers(0, 3).map(float)
    else:
        x_values = st.floats(-1e3, 1e3, allow_nan=False)
    X = np.array(draw(st.lists(st.lists(x_values, min_size=p, max_size=p),
                               min_size=n, max_size=n)), dtype=np.float64)
    if p > 1 and draw(st.booleans()):
        X[:, -1] = X[:, 0]      # the same best gain on two features
    n_classes = draw(st.one_of(st.none(), st.integers(2, 4)))
    if n_classes is None:
        y_values = st.one_of(st.integers(-3, 3).map(float),
                             st.floats(-1e3, 1e3, allow_nan=False))
    else:
        y_values = st.integers(0, n_classes - 1).map(float)
    y = np.array(draw(st.lists(y_values, min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.sampled_from([1.0, 0.5, 2.0, 3.7, 0.013]),
                               min_size=n, max_size=n)))
    min_leaf = draw(st.integers(0, 4))
    candidates = sorted(draw(st.sets(st.integers(0, p - 1), min_size=1)))
    return X, y, w, min_leaf, n_classes, candidates


class TestBatchedSplitSearch:
    @given(_split_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_feature_scan(self, case):
        assert (_bits(_batched_best_split(*case))
                == _bits(_reference_best_split(*case)))

    def test_scalar_square_rounding(self):
        # Squared as a NumPy scalar (libm pow) this value differs in the
        # last bit from NumPy's array square (x * x); the gain must follow
        # the scalar square.
        t = 2.6478136597749122
        assert np.float64(t) ** 2 != (np.array([t]) ** 2)[0]
        X = np.arange(4, dtype=np.float64).reshape(-1, 1)
        y = np.array([-0.8, -0.2, -1.3, t])
        case = (X, y, np.ones(4), 1, None, [0])
        assert (_bits(_batched_best_split(*case))
                == _bits(_reference_best_split(*case)))


def _reference_fit_tree(X, y, weights=None, params=None, task="regression",
                        n_classes=None, rng=None):
    """Recursive grower that sorts every node anew: each split comes from
    the one-column scans above on the node's own rows."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.ones(y.size) if weights is None else np.asarray(weights, dtype=np.float64)
    params = params or TreeParams()
    if task == "classification":
        n_classes = n_classes or int(y.max()) + 1
    else:
        n_classes = None
    p = X.shape[1]
    mtry = None if params.mtry is None else max(1, min(params.mtry, p))
    sample = mtry is not None and mtry < p
    if sample and rng is None:
        rng = np.random.default_rng(0)
    nodes = []

    def grow(idx, depth):
        yv, wv = y[idx], w[idx]
        cover = float(wv.sum())
        node = len(nodes)
        nodes.append([-1, 0.0, -1, -1, cover, 0.0, _node_value(yv, wv, n_classes)])
        if (depth >= params.max_depth or idx.size < params.min_samples_split
                or 2 * params.min_samples_leaf > idx.size):
            return node
        candidates = (sorted(rng.choice(p, size=mtry, replace=False)) if sample
                      else range(p))
        split = _reference_best_split(X[idx], yv, wv, params.min_samples_leaf,
                                      n_classes, candidates)
        if split is None:
            return node
        score, f, threshold = split
        nodes[node][0], nodes[node][1] = int(f), threshold
        nodes[node][5] = score / cover
        goes_left = X[idx, f] <= threshold
        nodes[node][2] = grow(idx[goes_left], depth + 1)
        nodes[node][3] = grow(idx[~goes_left], depth + 1)
        return node

    grow(np.arange(y.size), 0)
    feature, threshold, left, right, cover, gain, value = zip(*nodes)
    return Tree(feature=np.asarray(feature, dtype=np.int64),
                threshold=np.asarray(threshold, dtype=np.float64),
                left=np.asarray(left, dtype=np.int64),
                right=np.asarray(right, dtype=np.int64),
                cover=np.asarray(cover, dtype=np.float64),
                gain=np.asarray(gain, dtype=np.float64),
                value=np.asarray(value, dtype=np.float64))


def _tree_bits(tree):
    """Every array of a tree, floats as hex, so that one ulp fails a match."""
    out = {}
    for name in ("feature", "left", "right"):
        out[name] = getattr(tree, name).tolist()
    for name in ("threshold", "cover", "gain", "value"):
        values = getattr(tree, name)
        out[name] = (values.shape, [float(v).hex() for v in values.ravel().tolist()])
    return out


@st.composite
def _tree_cases(draw):
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, 5))
    if draw(st.booleans()):     # few distinct values: repeated x, tied gains
        x_values = st.integers(0, 3).map(float)
    else:
        x_values = st.floats(-1e3, 1e3, allow_nan=False)
    X = np.array(draw(st.lists(st.lists(x_values, min_size=p, max_size=p),
                               min_size=n, max_size=n)), dtype=np.float64)
    if p > 1 and draw(st.booleans()):
        X[:, -1] = X[:, 0]
    classification = draw(st.booleans())
    n_classes = draw(st.integers(2, 4)) if classification else None
    if classification:
        y_values = st.integers(0, n_classes - 1).map(float)
    else:
        y_values = st.one_of(st.integers(-3, 3).map(float),
                             st.floats(-1e3, 1e3, allow_nan=False))
    y = np.array(draw(st.lists(y_values, min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.sampled_from([1.0, 0.5, 2.0, 3.7, 0.013]),
                               min_size=n, max_size=n)))
    params = TreeParams(max_depth=draw(st.integers(3, 6)),
                        min_samples_leaf=draw(st.integers(0, 4)),
                        min_samples_split=draw(st.integers(2, 5)),
                        mtry=draw(st.one_of(st.none(), st.integers(1, p))))
    task = "classification" if classification else "regression"
    return X, y, w, params, task, n_classes, draw(st.integers(0, 2 ** 16))


class TestPresortedGrowth:
    """Presorted growth against the per-node argsort, bit for bit."""

    @given(_tree_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_node_argsort(self, case):
        X, y, w, params, task, n_classes, seed = case
        fast = fit_tree(X, y, w, params, task=task, n_classes=n_classes,
                        rng=np.random.default_rng(seed))
        slow = _reference_fit_tree(X, y, w, params, task=task, n_classes=n_classes,
                                   rng=np.random.default_rng(seed))
        assert _tree_bits(fast) == _tree_bits(slow)

    def test_shared_presort_matches_fresh(self):
        rng = np.random.default_rng(11)
        X = rng.integers(0, 5, size=(90, 6)).astype(float)
        presorted = Presorted(X)
        for seed in range(4):
            y = X[:, seed] - X[:, 5] + rng.normal(size=90)
            shared = fit_tree(X, y, params=TreeParams(max_depth=4),
                              presorted=presorted)
            fresh = fit_tree(X, y, params=TreeParams(max_depth=4))
            assert _tree_bits(shared) == _tree_bits(fresh)

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_gbt_matches_per_node_argsort(self, task, monkeypatch):
        rng = np.random.default_rng(5)
        X = np.hstack([rng.integers(0, 4, size=(120, 3)).astype(float),
                       rng.normal(size=(120, 3))])
        signal = X[:, 0] + X[:, 3] - 0.5 * X[:, 1] * X[:, 4]
        y = np.digitize(signal, np.quantile(signal, [0.33, 0.66])).astype(float)
        weights = class_weights(y) if task == "classification" else None

        def fit():
            model = fit_gbt(X, y, weights, n_stages=6, learning_rate=0.3,
                            params=TreeParams(max_depth=3, min_samples_leaf=2),
                            task=task)
            return json.dumps(model.to_json())

        fast = fit()
        monkeypatch.setattr(learners, "fit_tree",
                            lambda *args, presorted=None, **kwargs:
                            _reference_fit_tree(*args, **kwargs))
        assert fit() == fast
