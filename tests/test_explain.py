import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from speechscore import explain
from speechscore.corpus import FeatureMatrix
from speechscore.explain import (DegenerateCover, gain_importance, pdp,
                                 shap_base_value, shap_summary, tree_shap)
from speechscore.learners import (TreeEnsembleModel, fit_forest, fit_gbt,
                                  fit_linear, fit_logistic, fit_single_tree)
from speechscore.trees import Tree, TreeParams

from shap_oracle import brute_force_shap


def manual_tree(feature, threshold, left_value, right_value,
                cover=(10.0, 5.0, 5.0)):
    """Single split: x[feature] <= threshold -> left_value else right_value."""
    return Tree(feature=np.array([feature, -1, -1]),
                threshold=np.array([threshold, 0.0, 0.0]),
                left=np.array([1, -1, -1]), right=np.array([2, -1, -1]),
                cover=np.array(cover, dtype=float),
                gain=np.array([1.0, 0.0, 0.0]),
                value=np.array([0.0, left_value, right_value]))


def leaf_tree(value, cover=8.0):
    return Tree(feature=np.array([-1]), threshold=np.array([0.0]),
                left=np.array([-1]), right=np.array([-1]),
                cover=np.array([cover]), gain=np.array([0.0]),
                value=np.array([value], dtype=float))


def wrap(trees, names, kind="single_tree", base=0.0, lr=1.0):
    return TreeEnsembleModel(kind=kind, task="regression", trees=trees,
                             base_score=base, learning_rate=lr,
                             feature_names=names)


def random_tree(rng, n_features, max_depth=3):
    feature, threshold, left, right, cover, gain, value = [], [], [], [], [], [], []

    def grow(depth, cov):
        idx = len(feature)
        for arr in (feature, threshold, left, right, cover, gain, value):
            arr.append(0)
        feature[idx], left[idx], right[idx] = -1, -1, -1
        threshold[idx] = 0.0
        cover[idx] = cov
        gain[idx] = 0.0
        value[idx] = 0.0
        if depth >= max_depth or (depth > 0 and rng.random() < 0.3):
            value[idx] = float(rng.normal())
            return idx
        feature[idx] = int(rng.integers(0, n_features))
        threshold[idx] = float(rng.uniform(-1, 1))
        gain[idx] = float(rng.uniform(0, 1))
        frac = rng.uniform(0.2, 0.8)
        left[idx] = grow(depth + 1, cov * frac)
        right[idx] = grow(depth + 1, cov * (1 - frac))
        return idx

    grow(0, float(rng.uniform(10, 100)))
    return Tree(feature=np.array(feature), threshold=np.array(threshold),
                left=np.array(left), right=np.array(right),
                cover=np.array(cover, dtype=float),
                gain=np.array(gain, dtype=float),
                value=np.array(value, dtype=float))


class TestGainImportance:
    def test_single_feature_tree(self):
        model = wrap([manual_tree(3, 0.0, -1.0, 1.0)],
                     [f"f{i}" for i in range(5)])
        ranking = gain_importance(model)
        assert ranking.entries[0] == ("f3", 1.0)
        assert sum(v for _, v in ranking.entries) == approx(1.0)

    def test_leaf_only_flagged(self):
        model = wrap([leaf_tree(2.0)], ["f0"])
        ranking = gain_importance(model)
        assert ranking.entries == []
        assert "importance_no_splits" in ranking.flags

    def test_additive_symmetry(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(500, 2))
        y = X[:, 0] + X[:, 1]
        model = fit_gbt(X, y, n_stages=30, params=TreeParams(max_depth=2),
                        feature_names=["a", "b"])
        ranking = dict(gain_importance(model).entries)
        assert abs(ranking["a"] - ranking["b"]) < 0.1


class TestPdp:
    def _background(self, values, columns):
        values = np.asarray(values, dtype=float)
        return FeatureMatrix(response_ids=[f"r{i}" for i in range(len(values))],
                             columns=columns, groups=["FF"] * len(columns),
                             values=values)

    def test_constant_model_flat(self):
        model = wrap([leaf_tree(3.0)], ["x0"])
        bg = self._background(np.linspace(0, 1, 30).reshape(-1, 1), ["x0"])
        curve = pdp(model, bg, "x0")
        assert np.allclose(curve.mean_prediction, 3.0)

    def test_additive_identity(self):
        class Additive:
            def predict_value(self, X):
                return X[:, 0] + X[:, 1]

        rng = np.random.default_rng(1)
        bg = self._background(rng.uniform(-2, 2, size=(200, 2)), ["a", "b"])
        curve = pdp(Additive(), bg, "a", n_grid=15)
        expected = curve.grid + bg.values[:, 1].mean()
        assert np.max(np.abs(curve.mean_prediction - expected)) < 1e-9

    def test_step_curve(self):
        model = wrap([manual_tree(0, 0.0, 0.0, 1.0)], ["x0"])
        bg = self._background(np.linspace(-1, 1, 101).reshape(-1, 1), ["x0"])
        curve = pdp(model, bg, "x0", n_grid=20)
        low = curve.mean_prediction[curve.grid <= 0.0]
        high = curve.mean_prediction[curve.grid > 0.0]
        assert np.allclose(low, 0.0) and np.allclose(high, 1.0)

    def test_constant_feature_flagged(self):
        model = wrap([leaf_tree(1.0)], ["x0"])
        bg = self._background(np.full((10, 1), 2.5), ["x0"])
        curve = pdp(model, bg, "x0")
        assert curve.grid.size == 1
        assert "pdp_constant_feature" in curve.flags

    def test_grid_percentile_clipping(self):
        model = wrap([leaf_tree(0.0)], ["x0"])
        col = np.concatenate([[1e6], np.linspace(0, 1, 199)])
        bg = self._background(col.reshape(-1, 1), ["x0"])
        curve = pdp(model, bg, "x0", n_grid=10)
        assert curve.grid[-1] < 1e5    # the outlier is clipped away


    @pytest.mark.parametrize("n_grid", [0, -3])
    def test_grid_size_below_one_rejected(self, n_grid):
        model = wrap([leaf_tree(0.0)], ["x0"])
        bg = self._background(np.linspace(0, 1, 10).reshape(-1, 1), ["x0"])
        with pytest.raises(ValueError, match=f"grid size .*got {n_grid}"):
            pdp(model, bg, "x0", n_grid=n_grid)

    def test_unknown_feature_rejected(self):
        model = wrap([leaf_tree(0.0)], ["x0", "x1"])
        bg = self._background(np.zeros((4, 2)), ["x0", "x1"])
        with pytest.raises(ValueError, match="'nosuch' is not one of the "
                                             "model's 2 columns"):
            pdp(model, bg, "nosuch")


def per_point_pdp(model, X, col, n_grid):
    """The per-point PDP loop that `pdp` replaced: one predict per grid point."""
    lo, hi = np.percentile(X[:, col], [1, 99])
    grid = np.asarray([lo]) if lo == hi else np.linspace(lo, hi, n_grid)
    predict = model.predict_value if hasattr(model, "predict_value") else model.predict
    curve = np.empty(grid.size, dtype=np.float64)
    work = X.copy()
    for i, value in enumerate(grid):
        work[:, col] = value
        curve[i] = float(np.mean(predict(work)))
    return grid, curve


class SineProjection:
    """A model with nothing but predict_value."""

    def __init__(self, weights):
        self.weights = weights

    def predict_value(self, X):
        return np.sin(X @ self.weights)


STACKED_KINDS = ("single_tree", "forest", "gbt_regressor")
PER_POINT_KINDS = ("forest_classifier", "gbt_classifier_8", "linear",
                   "logistic_8", "plain")
CONSTANT_COL = 7


@pytest.fixture(scope="module")
def pdp_models():
    rng = np.random.default_rng(17)
    X = rng.uniform(-2, 2, size=(120, 8))
    y = X[:, 0] - X[:, 1] * X[:, 2] + 0.3 * rng.normal(size=120)
    y8 = np.digitize(y, np.quantile(y, np.linspace(0, 1, 9)[1:-1])).astype(float)
    y3 = np.digitize(y, np.quantile(y, [1 / 3, 2 / 3])).astype(float)
    shallow = TreeParams(max_depth=2)
    models = {
        "single_tree": fit_single_tree(X, y, params=TreeParams(max_depth=4)),
        "forest": fit_forest(X, y, n_trees=6, params=shallow, seed=1),
        "gbt_regressor": fit_gbt(X, y, n_stages=12, params=shallow),
        "forest_classifier": fit_forest(X, y3, n_trees=6, params=shallow,
                                        task="classification", seed=2),
        # At 8 classes a stacked `proba @ arange(8)` rounds some rows
        # differently, so these two catch classifiers stacked by mistake.
        "gbt_classifier_8": fit_gbt(X, y8, n_stages=4,
                                    params=TreeParams(max_depth=3),
                                    task="classification"),
        "logistic_8": fit_logistic(X, y8),
        "linear": fit_linear(X, y),
        "plain": SineProjection(rng.normal(size=8)),
    }
    assert models["gbt_classifier_8"].n_classes == 8
    background = rng.uniform(-2, 2, size=(15, 8))
    background[:, CONSTANT_COL] = 0.25
    return models, background


class TestStackedPdp:
    """`pdp` returns the per-point loop's curves bit for bit."""

    @pytest.mark.parametrize("points_per_chunk", [None, 3, 0])
    @pytest.mark.parametrize("rows", [1, 15])
    @pytest.mark.parametrize("kind", STACKED_KINDS + PER_POINT_KINDS)
    def test_matches_per_point_loop(self, pdp_models, monkeypatch, kind, rows,
                                    points_per_chunk):
        models, background = pdp_models
        X = background[:rows]
        if points_per_chunk is not None:
            # Chunks of 3 grid points, the last holding 2 (20 and 200
            # points); a budget below one point still takes one per chunk.
            monkeypatch.setattr(explain, "_PDP_STACK_ELEMENTS",
                                points_per_chunk * X.size)
        for col, n_grid in ((0, 20), (1, 200), (2, 200), (CONSTANT_COL, 20),
                            (1, 2), (2, 1)):
            curve = pdp(models[kind], X, col, n_grid=n_grid)
            grid, expected = per_point_pdp(models[kind], X, col, n_grid)
            assert curve.grid.tobytes() == grid.tobytes()
            assert curve.mean_prediction.tobytes() == expected.tobytes(), (kind, col)
        assert pdp(models[kind], X, CONSTANT_COL).grid.size == 1

    @pytest.mark.parametrize("kind", STACKED_KINDS + PER_POINT_KINDS)
    def test_only_regression_tree_ensembles_are_stacked(self, pdp_models,
                                                        monkeypatch, kind):
        models, background = pdp_models
        model = models[kind]
        name = "predict_value" if hasattr(model, "predict_value") else "predict"
        original = getattr(model, name)
        batch_rows = []

        def counting(X):
            batch_rows.append(X.shape[0])
            return original(X)

        monkeypatch.setattr(model, name, counting)
        monkeypatch.setattr(explain, "_PDP_STACK_ELEMENTS", 3 * background.size)
        pdp(model, background, 0, n_grid=20)
        if kind in STACKED_KINDS:
            assert batch_rows == [45] * 6 + [30]
        else:
            assert batch_rows == [15] * 20


def test_pdp_memory_bounded_by_stack_budget():
    """Stacking 200 grid points of a 300 x 200 background would take 96 MB."""
    rng = np.random.default_rng(23)
    X = rng.normal(size=(300, 200))
    model = fit_gbt(X, X[:, 0] + X[:, 1], n_stages=10,
                    params=TreeParams(max_depth=2))
    tracemalloc.start()
    try:
        curve = pdp(model, X, 0, n_grid=200)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert curve.mean_prediction.size == 200
    # One 8 MiB stack of rows (9.2 MB measured in all), reused across chunks.
    assert peak_mb < 12.0, peak_mb


class TestTreeShap:
    def test_single_split_two_player(self):
        a, b = -2.0, 4.0
        model = wrap([manual_tree(0, 0.0, a, b, cover=(10.0, 5.0, 5.0))],
                     ["x0", "x1"])
        phi, base = tree_shap(model, np.array([1.0, 9.9]))
        assert base == approx((a + b) / 2)
        assert phi[0] == approx((b - a) / 2)
        assert phi[1] == 0.0

    def test_leaf_only(self):
        model = wrap([leaf_tree(5.5)], ["x0"])
        phi, base = tree_shap(model, np.array([0.3]))
        assert phi[0] == 0.0
        assert base == approx(5.5)

    def test_matches_brute_force_on_deep_tree(self):
        rng = np.random.default_rng(42)
        tree = random_tree(rng, 6, max_depth=3)
        model = wrap([tree], [f"f{i}" for i in range(6)])
        x = rng.uniform(-1, 1, 6)
        phi, _ = tree_shap(model, x)
        assert np.max(np.abs(phi - brute_force_shap(model, x))) < 1e-9

    def test_local_accuracy_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = int(rng.integers(1, 7))
            model = wrap([random_tree(rng, p)], [f"f{i}" for i in range(p)])
            x = rng.uniform(-1, 1, p)
            phi, base = tree_shap(model, x)
            pred = float(model.trees[0].predict(x[None, :])[0])
            assert base + phi.sum() == approx(pred, abs=1e-9)

    def test_degenerate_cover(self):
        tree = manual_tree(0, 0.0, 1.0, 2.0, cover=(0.0, 0.0, 0.0))
        model = wrap([tree], ["x0"])
        with pytest.raises(DegenerateCover):
            tree_shap(model, np.array([1.0]))

    def test_gbt_scaling_and_local_accuracy(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-2, 2, size=(150, 3))
        y = X[:, 0] + np.sin(X[:, 1])
        model = fit_gbt(X, y, n_stages=20, learning_rate=0.2,
                        params=TreeParams(max_depth=3))
        preds = model.predict(X)
        for i in range(0, 150, 10):
            phi, base = tree_shap(model, X[i])
            assert base + phi.sum() == approx(preds[i], abs=1e-6)

    def test_classifier_needs_class_index(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 2))
        y = (X[:, 0] > 0).astype(float)
        model = fit_gbt(X, y, n_stages=4, task="classification")
        with pytest.raises(ValueError):
            tree_shap(model, X[0])
        phi, base = tree_shap(model, X[0], class_index=1)
        margin = model.decision_scores(X[:1])[0, 1]
        assert base + phi.sum() == approx(margin, abs=1e-6)

    def test_zero_cover_child_gives_zero_not_nan(self):
        # No sample weight reaches the left leaf; x takes the right one.
        model = wrap([manual_tree(0, 0.5, 1.0, 2.0, cover=(2.0, 0.0, 2.0))], ["x0"])
        x = np.array([1.0])
        phi, base = tree_shap(model, x)
        assert phi.tolist() == [0.0] == brute_force_shap(model, x).tolist()
        assert base == 2.0
        # A row that does take the zero-cover leaf gets its whole difference.
        X = np.array([[1.0], [0.0], [0.5], [0.7]])
        phi = shap_summary(model, X).phi[:, 0]
        assert phi.tolist() == [0.0, -1.0, -1.0, 0.0]
        assert phi.tobytes() == per_row_shap(model, X).tobytes()


class TestBruteForce:
    def test_single_feature_efficiency(self):
        model = wrap([manual_tree(0, 0.5, 1.0, 3.0, cover=(9.0, 3.0, 6.0))],
                     ["only"])
        x = np.array([0.2])
        phi = brute_force_shap(model, x)
        base = shap_base_value(model)
        pred = float(model.trees[0].predict(x[None, :])[0])
        assert phi[0] == approx(pred - base, abs=1e-12)

    def test_symmetric_duplicate_features(self):
        # two features with identical split structure get equal phi
        t1 = manual_tree(0, 0.0, 0.0, 1.0)
        t2 = manual_tree(1, 0.0, 0.0, 1.0)
        model = TreeEnsembleModel(kind="forest", task="regression",
                                  trees=[t1, t2], base_score=0.0,
                                  learning_rate=1.0, feature_names=["a", "b"])
        phi = brute_force_shap(model, np.array([1.0, 1.0]))
        assert phi[0] == approx(phi[1], abs=1e-12)

    def test_refuses_many_features(self):
        model = wrap([leaf_tree(0.0)], [f"f{i}" for i in range(13)])
        with pytest.raises(ValueError):
            brute_force_shap(model, np.zeros(13))

    def test_randomized_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(250):
            p = int(rng.integers(1, 9))
            model = wrap([random_tree(rng, p)], [f"f{i}" for i in range(p)])
            x = rng.uniform(-1, 1, p)
            phi, _ = tree_shap(model, x)
            worst = max(worst, float(np.max(np.abs(phi - brute_force_shap(model, x)))))
        assert worst < 1e-9

    def test_fitted_forest_oracle_equivalence(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(-1, 1, size=(120, 6))
        y = X[:, 0] - X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=120)
        model = fit_forest(X, y, n_trees=6, params=TreeParams(max_depth=4), seed=3)
        assert model.tree_scale() == 1 / 6
        preds = model.predict(X)
        for i in range(0, 120, 12):
            phi, base = tree_shap(model, X[i])
            assert np.max(np.abs(phi - brute_force_shap(model, X[i]))) < 1e-9
            assert base + phi.sum() == approx(preds[i], abs=1e-9)

    def test_gbt_classifier_every_class_oracle_equivalence(self):
        rng = np.random.default_rng(37)
        X = rng.uniform(-1, 1, size=(150, 5))
        y = np.digitize(X[:, 0] + X[:, 3] * X[:, 4], [-0.4, 0.4]).astype(float)
        model = fit_gbt(X, y, n_stages=5, learning_rate=0.3,
                        params=TreeParams(max_depth=3), task="classification")
        assert model.n_classes == 3
        margins = model.decision_scores(X)
        for k in range(3):
            for i in range(0, 150, 15):
                phi, base = tree_shap(model, X[i], class_index=k)
                oracle = brute_force_shap(model, X[i], class_index=k)
                assert np.max(np.abs(phi - oracle)) < 1e-9
                assert base + phi.sum() == approx(margins[i, k], abs=1e-9)


class TestDummyAxiom:
    def test_unused_feature_zero(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, size=(200, 4))
        y = X[:, 0] * 2 + X[:, 2]
        # feature 3 is pure noise duplicated from nothing: forbid splits on it
        model = fit_gbt(X[:, :3], y, n_stages=15, params=TreeParams(max_depth=2),
                        feature_names=["a", "b", "c"])
        model.feature_names = ["a", "b", "c", "dummy"]
        for i in range(0, 200, 25):
            phi, _ = tree_shap(model, np.append(X[i, :3], 99.0))
            assert phi[3] == 0.0


class TestShapSummary:
    def test_single_feature_ranked_first(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(80, 3))
        y = 3 * X[:, 1]
        model = fit_gbt(X, y, n_stages=10, params=TreeParams(max_depth=2),
                        feature_names=["a", "b", "c"])
        summary = shap_summary(model, X)
        assert summary.ranking[0][0] == "b"
        assert summary.phi.shape == (80, 3)

    def test_constant_model_ties_by_name(self):
        model = wrap([leaf_tree(1.0)], ["zeta", "alpha"])
        summary = shap_summary(model, np.zeros((5, 2)))
        assert [n for n, _ in summary.ranking] == ["alpha", "zeta"]
        assert np.all(summary.phi == 0.0)

    def test_monotone_model_sign_pattern(self):
        # increasing feature: phi sign tracks the feature value
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, size=(300, 2))
        y = X[:, 0]
        model = fit_gbt(X, y, n_stages=30, params=TreeParams(max_depth=2),
                        feature_names=["inc", "noise"])
        summary = shap_summary(model, X)
        values = X[:, 0]
        phi = summary.phi[:, 0]
        rho = np.corrcoef(np.argsort(np.argsort(values)),
                          np.argsort(np.argsort(phi)))[0, 1]
        assert rho > 0.9

    def test_local_accuracy_matrix(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, size=(40, 3))
        y = X[:, 0] - 2 * X[:, 2]
        model = fit_gbt(X, y, n_stages=12, params=TreeParams(max_depth=3))
        summary = shap_summary(model, X)
        preds = model.predict(X)
        recon = summary.base_value + summary.phi.sum(axis=1)
        assert np.max(np.abs(recon - preds)) < 1e-6


def per_row_shap_tree(tree, x, phi):
    """The one-row path recursion `explain._shap_tree` replaced."""

    def extend(path, pz, po, pi):
        length = len(path)
        path.append([pi, pz, po, 1.0 if length == 0 else 0.0])
        for i in range(length - 1, -1, -1):
            path[i + 1][3] += po * path[i][3] * (i + 1) / (length + 1)
            path[i][3] = pz * path[i][3] * (length - i) / (length + 1)

    def unwind(path, k):
        depth = len(path) - 1
        o_k, z_k = path[k][2], path[k][1]
        carry = path[depth][3]
        for i in range(depth - 1, -1, -1):
            if o_k != 0:
                kept = path[i][3]
                path[i][3] = carry * (depth + 1) / ((i + 1) * o_k)
                carry = kept - path[i][3] * z_k * (depth - i) / (depth + 1)
            else:
                path[i][3] = path[i][3] * (depth + 1) / (z_k * (depth - i))
        for i in range(k, depth):
            path[i][0], path[i][1], path[i][2] = path[i + 1][0], path[i + 1][1], path[i + 1][2]
        path.pop()

    def unwound_sum(path, k):
        depth = len(path) - 1
        o_k, z_k = path[k][2], path[k][1]
        carry = path[depth][3]
        total = 0.0
        for i in range(depth - 1, -1, -1):
            if o_k != 0:
                part = carry * (depth + 1) / ((i + 1) * o_k)
                total += part
                carry = path[i][3] - part * z_k * (depth - i) / (depth + 1)
            else:
                total += path[i][3] * (depth + 1) / (z_k * (depth - i))
        return total

    def recurse(node, path, pz, po, pi):
        if pz == 0 and po == 0:
            return      # a branch neither the cover nor the row reaches
        path = [row[:] for row in path]
        extend(path, pz, po, pi)
        if tree.is_leaf(node):
            leaf = float(tree.value[node])
            for i in range(1, len(path)):
                weight = unwound_sum(path, i)
                d, z, o, _ = path[i]
                phi[d] += weight * (o - z) * leaf
            return
        f = int(tree.feature[node])
        left, right = int(tree.left[node]), int(tree.right[node])
        cover = tree.cover[node]
        if cover <= 0:
            raise DegenerateCover(f"internal node {node} has cover {cover}")
        hot, cold = (left, right) if x[f] <= tree.threshold[node] else (right, left)
        hot_frac = tree.cover[hot] / cover
        cold_frac = tree.cover[cold] / cover

        iz = io = 1.0
        k = next((i for i in range(len(path)) if path[i][0] == f), None)
        if k is not None:
            iz, io = path[k][1], path[k][2]
            unwind(path, k)
        recurse(hot, path, iz * hot_frac, io, f)
        recurse(cold, path, iz * cold_frac, 0.0, f)

    recurse(0, [], 1.0, 1.0, -1)


def per_row_shap(model, X, class_index=None):
    """SHAP matrix from the one-row recursion, one row and tree at a time."""
    trees, scale, _ = explain._scalar_trees(model, class_index)
    phi = np.zeros((X.shape[0], len(model.feature_names)))
    for r, x in enumerate(X):
        row = np.zeros(len(model.feature_names))
        for tree in trees:
            per_row_shap_tree(tree, x, row)
        row *= scale
        phi[r] = row
    return phi


def repeats_a_feature(tree):
    """Whether some root-to-leaf path splits twice on one feature."""
    def walk(node, seen):
        if tree.is_leaf(node):
            return False
        f = int(tree.feature[node])
        return f in seen or any(walk(int(child), seen | {f})
                                for child in (tree.left[node], tree.right[node]))
    return walk(0, frozenset())


def matrix_on_thresholds(rng, tree, n_rows, n_features, share):
    """Uniform rows with about `share` of the entries set to a split threshold."""
    X = rng.uniform(-1.2, 1.2, size=(n_rows, n_features))
    for f in range(n_features):
        cuts = tree.threshold[tree.feature == f]
        hit = rng.random(n_rows) < share
        if cuts.size and hit.any():
            X[hit, f] = rng.choice(cuts, size=int(hit.sum()))
    return X


@pytest.fixture(scope="module")
def fitted_shap_models():
    rng = np.random.default_rng(41)
    X = rng.uniform(-1, 1, size=(150, 6))
    y = X[:, 0] - X[:, 1] * X[:, 2] + 0.5 * np.sin(3 * X[:, 3]) + 0.1 * rng.normal(size=150)
    y3 = np.digitize(y, np.quantile(y, [1 / 3, 2 / 3])).astype(float)
    deep = TreeParams(max_depth=6)
    models = {
        "single_tree": fit_single_tree(X, y, params=deep),
        "forest": fit_forest(X, y, n_trees=5, params=TreeParams(max_depth=4), seed=3),
        "gbt_regressor": fit_gbt(X, y, n_stages=10, learning_rate=0.2,
                                 params=TreeParams(max_depth=4)),
        "gbt_classifier": fit_gbt(X, y3, n_stages=4, learning_rate=0.3,
                                  params=TreeParams(max_depth=3),
                                  task="classification"),
    }
    assert models["forest"].tree_scale() == 1 / 5
    assert models["gbt_classifier"].n_classes == 3
    return models, X


class TestVectorizedShap:
    """`shap_summary` and `tree_shap` match the one-row recursion bit for bit."""

    @given(seed=st.integers(0, 2 ** 32 - 1), n_features=st.integers(1, 4),
           max_depth=st.integers(1, 6), n_rows=st.sampled_from([1, 2, 150]),
           share=st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_random_trees(self, seed, n_features, max_depth, n_rows, share):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, n_features, max_depth=max_depth)
        model = wrap([tree], [f"f{i}" for i in range(n_features)])
        X = matrix_on_thresholds(rng, tree, n_rows, n_features, share)
        expected = per_row_shap(model, X)
        assert shap_summary(model, X).phi.tobytes() == expected.tobytes()
        assert tree_shap(model, X[-1])[0].tobytes() == expected[-1].tobytes()

    def test_repeated_features_unwind(self):
        rng = np.random.default_rng(5)
        trees = [random_tree(rng, 2, max_depth=6) for _ in range(6)]
        trees = [t for t in trees if repeats_a_feature(t)]
        assert len(trees) >= 4
        model = wrap(trees, ["a", "b"], kind="forest")
        for t in trees:
            X = matrix_on_thresholds(rng, t, 150, 2, 0.3)
            assert (shap_summary(model, X).phi.tobytes()
                    == per_row_shap(model, X).tobytes())

    @pytest.mark.parametrize("rows", [1, 2, 150])
    @pytest.mark.parametrize("kind", ["single_tree", "forest", "gbt_regressor"])
    def test_fitted_regressors(self, fitted_shap_models, kind, rows):
        models, X = fitted_shap_models
        X = X[:rows]
        expected = per_row_shap(models[kind], X)
        assert shap_summary(models[kind], X).phi.tobytes() == expected.tobytes()
        assert tree_shap(models[kind], X[0])[0].tobytes() == expected[0].tobytes()

    @pytest.mark.parametrize("class_index", [0, 1, 2])
    def test_fitted_classifier_every_class(self, fitted_shap_models, class_index):
        models, X = fitted_shap_models
        model = models["gbt_classifier"]
        expected = per_row_shap(model, X, class_index)
        summary = shap_summary(model, X, class_index=class_index)
        assert summary.phi.tobytes() == expected.tobytes()
        phi, _ = tree_shap(model, X[7], class_index=class_index)
        assert phi.tobytes() == expected[7].tobytes()

    def test_row_bits_do_not_depend_on_the_batch(self, fitted_shap_models):
        models, X = fitted_shap_models
        whole = shap_summary(models["gbt_regressor"], X).phi
        parts = np.vstack([shap_summary(models["gbt_regressor"], X[i:i + 7]).phi
                           for i in range(0, X.shape[0], 7)])
        assert whole.tobytes() == parts.tobytes()
