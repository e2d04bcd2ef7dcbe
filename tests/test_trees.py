import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from speechscore.trees import Tree, TreeParams, _best_split, fit_tree


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
    found = _best_split(X[:, candidates], y, w, min_leaf, n_classes)
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
    min_leaf = draw(st.integers(1, 4))
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
