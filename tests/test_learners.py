import json

import numpy as np
import pytest
from pytest import approx

from speechscore import learners
from speechscore.corpus import Standardizer
from speechscore.learners import (class_weights, fit_forest, fit_gbt,
                                  fit_linear, fit_logistic, fit_model,
                                  fit_single_tree, grid_search, load_model,
                                  model_from_json, save_model)
from speechscore.metrics import qwk, round_to_grade
from speechscore.trees import TreeParams, fit_tree


def regression_data(n=200, seed=0, noise=0.3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, 1))
    return X, X[:, 0] + noise * rng.normal(size=n)


class TestForest:
    def test_honours_params_mtry(self):
        # Only column 0 carries signal: with every column a candidate at
        # each split, every root splits on it.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(120, 6))
        y = 3.0 * X[:, 0] + 0.1 * rng.normal(size=120)
        forest = fit_forest(X, y, n_trees=10, seed=0,
                            params=TreeParams(max_depth=3, mtry=6))
        assert [int(t.feature[0]) for t in forest.trees] == [0] * 10

    def test_refit_is_deterministic(self):
        X, y = regression_data(150, seed=2)
        one = fit_forest(X, y, n_trees=16, seed=5)
        again = fit_forest(X, y, n_trees=16, seed=5)
        assert np.array_equal(one.predict(X), again.predict(X))

    def test_beats_single_tree_on_noisy_line(self):
        Xtr, ytr = regression_data(250, seed=3)
        Xte, yte = regression_data(250, seed=4)
        tree = fit_single_tree(Xtr, ytr, params=TreeParams(max_depth=5))
        forest = fit_forest(Xtr, ytr, n_trees=50, seed=3,
                            params=TreeParams(max_depth=5))
        mse_tree = np.mean((tree.predict(Xte) - yte) ** 2)
        mse_forest = np.mean((forest.predict(Xte) - yte) ** 2)
        assert mse_forest <= mse_tree

    def test_classification_scores(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(-1, 0.4, (40, 2)), rng.normal(1, 0.4, (40, 2))])
        y = np.array([0.0] * 40 + [1.0] * 40)
        forest = fit_forest(X, y, n_trees=15, seed=0, task="classification")
        proba = forest.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert (forest.predict(X) == y).mean() > 0.9


class TestGbt:
    def test_training_loss_monotone(self):
        X, y = regression_data(150, seed=1, noise=0.1)
        model = fit_gbt(X, y, n_stages=40, learning_rate=0.1)
        losses = model.train_loss
        assert len(losses) == 41
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_single_full_stage_fits_exactly(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 3.0, -2.0, 5.0])
        model = fit_gbt(X, y, n_stages=1, learning_rate=1.0,
                        params=TreeParams(max_depth=4))
        assert np.mean((model.predict(X) - y) ** 2) == approx(0.0, abs=1e-24)

    def test_geometric_shrinkage_identity(self):
        y = np.full(24, 7.0)
        X = np.zeros((24, 1))
        nu, k = 0.3, 6
        model = fit_gbt(X, y, n_stages=k, learning_rate=nu, init="zero",
                        params=TreeParams(max_depth=0))
        expected = 7.0 * (1 - (1 - nu) ** k)
        assert model.predict(np.zeros((1, 1)))[0] == approx(expected, abs=1e-9)

    def test_softmax_probabilities(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(90, 3))
        y = (X[:, 0] > 0).astype(float) + (X[:, 1] > 0.5)
        model = fit_gbt(X, y, n_stages=10, task="classification", n_classes=3)
        proba = model.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert model.trees and len(model.trees) == 30

    def test_classifier_loss_decreases(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(-1, 0.5, (50, 2)), rng.normal(1, 0.5, (50, 2))])
        y = np.array([0.0] * 50 + [1.0] * 50)
        model = fit_gbt(X, y, n_stages=15, task="classification")
        assert model.train_loss[-1] < model.train_loss[0]
        assert (model.predict(X) == y).mean() > 0.95


class TestLinearModels:
    def test_exact_line(self):
        # The coefficients act on z-scores: slope 2 per unit is 2 * std per
        # standard deviation, and the intercept is the mean response.
        X = np.arange(12, dtype=float).reshape(-1, 1)
        model = fit_linear(X, 2.0 * X[:, 0])
        assert model.coef[0] == approx(2.0 * X[:, 0].std(), abs=1e-6)
        assert model.intercept == approx(11.0, abs=1e-5)
        assert model.predict(X) == approx(2.0 * X[:, 0], abs=1e-5)

    def test_collinear_columns_survive(self):
        X = np.column_stack([np.arange(10.0), np.arange(10.0)])
        model = fit_linear(X, 3.0 * np.arange(10.0))
        assert np.all(np.isfinite(model.coef))
        assert model.predict(X) == approx(3.0 * np.arange(10.0), abs=1e-4)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fit_linear(np.array([[np.nan]]), np.array([1.0]))

    def test_separable_logistic(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(-2, 0.3, (30, 2)), rng.normal(2, 0.3, (30, 2))])
        y = np.array([0.0] * 30 + [1.0] * 30)
        model = fit_logistic(X, y)
        assert (model.predict(X) == y).all()

    def test_multinomial_logistic(self):
        rng = np.random.default_rng(7)
        centers = np.array([[-2, 0], [2, 0], [0, 2.5]])
        X = np.vstack([rng.normal(c, 0.3, (25, 2)) for c in centers])
        y = np.repeat([0.0, 1.0, 2.0], 25)
        model = fit_logistic(X, y)
        assert (model.predict(X) == y).mean() > 0.95
        assert np.allclose(model.predict_proba(X).sum(axis=1), 1.0)


def _feature_like_data(n=120, seed=3):
    """Columns in their own units: counts, rates, a small-scale ratio, a
    large-scale duration and a constant; grades driven by two of them."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.integers(0, 12, n).astype(float),
        rng.uniform(0.8, 3.6, n),
        rng.uniform(0.0, 0.02, n),
        rng.normal(40.0, 9.0, n),
        np.full(n, 7.0),
    ])
    latent = X[:, 1] - 0.15 * X[:, 0] + 0.3 * rng.normal(size=n)
    return X, np.digitize(latent, np.quantile(latent, [1 / 3, 2 / 3])).astype(float)


def _zscore(X, rows):
    """The z-scores of X with the mean and population std of X[rows]."""
    mean, std = X[rows].mean(axis=0), X[rows].std(axis=0)
    return np.where(std > 0, (X - mean) / np.where(std > 0, std, 1.0), X)


class TestRawFeatures:
    """Trees fit on raw features; only the linear models standardize."""

    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("kind, params", [
        ("decision_tree", {"max_depth": 5, "min_samples_leaf": 3}),
        ("random_forest", {"n_trees": 12, "max_depth": 6, "min_samples_leaf": 2}),
        ("gbt", {"n_stages": 12, "learning_rate": 0.3, "max_depth": 3}),
    ])
    def test_trees_do_not_change_under_zscoring(self, kind, params, task):
        X, y = _feature_like_data()
        Z = _zscore(X, np.arange(y.size))
        weights = class_weights(y) if task == "classification" else None

        def fit(rows):
            return fit_model(kind, params, rows, y, weights, task=task,
                             n_classes=3, seed=4)
        raw, z = fit(X), fit(Z)
        assert len(raw.trees) == len(z.trees)
        for a, b in zip(raw.trees, z.trees):
            for name in ("feature", "left", "right", "cover", "gain", "value"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(raw.predict(X), z.predict(Z))

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_linear_models_match_zscore_first_oracle(self, kind, monkeypatch,
                                                     tmp_path):
        X, y = _feature_like_data()
        train = np.arange(90)
        task = "regression" if kind == "linear" else "classification"
        weights = class_weights(y[train]) if kind == "logistic" else None

        def fit(rows, labels, w):
            # The "linear" key classifies with the logistic model.
            return fit_model("linear", {}, rows, labels, w, task=task,
                             n_classes=3, seed=0)
        model = fit(X[train], y[train], weights)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        assert payload["mean"] == X[train].mean(axis=0).tolist()
        assert payload["std"] == X[train].std(axis=0).tolist()
        back = load_model(path)
        assert np.array_equal(back.scaler.mean, model.scaler.mean)
        assert np.array_equal(back.scaler.std, model.scaler.std)
        assert np.array_equal(back.predict_value(X), model.predict_value(X))

        # Oracle: z-score with the train statistics first, then fit with the
        # learner's own standardization made the identity.
        Z = _zscore(X, train)
        identity = Standardizer(mean=np.zeros(X.shape[1]), std=np.ones(X.shape[1]))
        monkeypatch.setattr(learners, "fit_standardizer", lambda rows: identity)
        oracle = fit(Z[train], y[train], weights)
        assert np.array_equal(model.coef, oracle.coef)
        assert np.array_equal(model.intercept, oracle.intercept)
        assert np.array_equal(model.predict_value(X), oracle.predict_value(Z))
        assert np.array_equal(model.predict(X), oracle.predict(Z))


class TestClassWeights:
    def test_imbalanced_by_hand(self):
        w = class_weights([0] * 90 + [1] * 10)
        assert w[0] == approx(100 / (2 * 90))
        assert w[-1] == approx(5.0)
        assert w.sum() == approx(100.0)

    def test_balanced(self):
        assert np.all(class_weights([0, 0, 1, 1]) == 1.0)

    def test_single_class(self):
        assert np.all(class_weights([2, 2, 2]) == 1.0)


def test_fit_model_rejects_an_unknown_task():
    X, y = regression_data(60, seed=4)
    for kind in learners.DEFAULT_PARAMS:
        with pytest.raises(ValueError, match="regresion"):
            fit_model(kind, {}, X, np.round(y), task="regresion")


@pytest.mark.parametrize("fit, kwargs", [
    (fit_gbt, {"n_stages": 2}), (fit_forest, {"n_trees": 2}),
    (fit_single_tree, {}), (fit_tree, {})],
    ids=["fit_gbt", "fit_forest", "fit_single_tree", "fit_tree"])
def test_every_tree_fit_rejects_an_unknown_task(fit, kwargs):
    X, y = regression_data(60, seed=4)
    with pytest.raises(ValueError, match="unknown task 'Regression'"):
        fit(X, np.round(y), task="Regression", **kwargs)


def test_every_default_parameter_has_a_range_that_holds_it():
    names = {name for row in learners.DEFAULT_PARAMS.values() for name in row}
    assert set(learners.PARAM_RANGES) == names
    for kind, row in learners.DEFAULT_PARAMS.items():
        for name, value in row.items():
            assert learners.PARAM_RANGES[name][1](value, 1), (kind, name)


class TestGridSearch:
    def test_single_point(self):
        X, y_cont = regression_data(120, seed=5)
        y = round_to_grade(np.clip(y_cont, 0, 2), 3).astype(float)
        best, table = grid_search("gbt", {"max_depth": [3]}, X, y, seed=1,
                                  task="regression", n_classes=3)
        assert best == {"max_depth": 3}
        assert len(table) == 1
        assert len(table[0]["fold_qwk"]) == 5

    def test_interaction_needs_depth(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, size=(400, 2))
        target = (X[:, 0] * X[:, 1] > 0).astype(float) * 2
        best, table = grid_search("gbt", {"max_depth": [1, 6], "n_stages": [40]},
                                  X, target, seed=2, task="regression",
                                  n_classes=3)
        assert best["max_depth"] == 6

    def test_deterministic(self):
        X, y_cont = regression_data(100, seed=6)
        y = round_to_grade(np.clip(y_cont, 0, 2), 3).astype(float)
        grid = {"max_depth": [2, 3]}
        _, t1 = grid_search("gbt", grid, X, y, seed=4, task="regression",
                            n_classes=3)
        _, t2 = grid_search("gbt", grid, X, y, seed=4, task="regression",
                            n_classes=3)
        assert json.dumps(t1, sort_keys=True) == json.dumps(t2, sort_keys=True)

    def test_missing_class_flagged_not_dropped(self):
        # class 2 appears once: most folds lack it entirely
        X = np.arange(30, dtype=float).reshape(-1, 1)
        y = np.array([0.0, 1.0] * 14 + [0.0, 2.0])
        best, table = grid_search("decision_tree", {"max_depth": [2]}, X, y,
                                  seed=0, task="classification", n_classes=3)
        assert len(table) == 1
        assert table[0]["flagged"]
        assert np.isfinite(table[0]["mean_qwk"])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_search("gbt", {}, np.zeros((10, 1)), np.zeros(10))
        for axis in ([], 3, (3,)):
            with pytest.raises(ValueError, match="'max_depth' must be a "
                                                 "non-empty list"):
                grid_search("gbt", {"max_depth": axis}, np.zeros((10, 1)),
                            np.zeros(10))

    def test_one_fold_rejected(self):
        with pytest.raises(ValueError, match="2 folds"):
            grid_search("gbt", {"max_depth": [2]}, np.zeros((10, 1)),
                        np.zeros(10), folds=1)


def length_baseline(lengths, y, seed):
    return fit_model("length_baseline", {}, lengths.reshape(-1, 1), y,
                     seed=seed, feature_names=["W"])


class TestLengthBaseline:
    def test_constant_length(self):
        lengths = np.full(60, 100.0)
        y = np.array([0.0, 1.0, 2.0] * 20)
        model = length_baseline(lengths, y, seed=0)
        pred = model.predict(lengths.reshape(-1, 1))
        assert np.all(pred == pred[0])          # constant input, constant output
        assert pred[0] == approx(y.mean(), abs=0.1)   # mean over bootstraps

    def test_grade_independent_of_length(self):
        rng = np.random.default_rng(8)
        lengths = rng.integers(60, 200, 400).astype(float)
        y = rng.integers(0, 3, 400).astype(float)
        model = length_baseline(lengths[:300], y[:300], seed=1)
        pred = round_to_grade(model.predict(lengths[300:].reshape(-1, 1)), 3)
        assert abs(qwk(y[300:].astype(int), pred, 3)) < 0.1

    def test_grade_driven_by_length(self):
        rng = np.random.default_rng(9)
        lengths = rng.integers(60, 200, 400).astype(float)
        y = np.digitize(lengths, [105, 150]).astype(float)
        model = length_baseline(lengths[:300], y[:300], seed=1)
        pred = round_to_grade(model.predict(lengths[300:].reshape(-1, 1)), 3)
        assert qwk(y[300:].astype(int), pred, 3) > 0.5


def _per_kind_scores(model, X):
    """Each kind's ensemble sum, written out kind by kind."""
    if model.kind == "single_tree":
        return model.trees[0].predict(X)
    if model.kind == "forest":
        acc = model.trees[0].predict(X).astype(np.float64)
        for tree in model.trees[1:]:
            acc += tree.predict(X)
        return acc / len(model.trees)
    if model.kind == "gbt_regressor":
        acc = np.full(X.shape[0], float(model.base_score))
        for tree in model.trees:
            acc += model.learning_rate * tree.predict(X)
        return acc
    K = model.n_classes
    logits = np.tile(np.asarray(model.base_score, dtype=np.float64), (X.shape[0], 1))
    for i, tree in enumerate(model.trees):
        logits[:, i % K] += model.learning_rate * tree.predict(X)
    return logits


class TestDecisionScores:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("maker", [
        lambda X, y, task: fit_single_tree(X, y, params=TreeParams(max_depth=4),
                                           task=task),
        lambda X, y, task: fit_forest(X, y, n_trees=7, seed=2, task=task),
        lambda X, y, task: fit_gbt(X, y, n_stages=7, learning_rate=0.3,
                                   task=task),
    ])
    def test_bit_identical_to_per_kind_sum(self, maker, task):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(150, 3))
        y = np.digitize(X[:, 0] + X[:, 1] * X[:, 2], [-0.5, 0.5]).astype(float)
        model = maker(X, y, task)
        scores = model.decision_scores(X)
        expected = _per_kind_scores(model, X)
        assert scores.shape == expected.shape
        assert scores.tobytes() == expected.tobytes()


class TestSerialization:
    @pytest.mark.parametrize("maker", [
        lambda X, y: fit_single_tree(X, y, params=TreeParams(max_depth=3)),
        lambda X, y: fit_forest(X, y, n_trees=8, seed=2),
        lambda X, y: fit_gbt(X, y, n_stages=8),
    ])
    def test_round_trip_bit_identical(self, tmp_path, maker):
        X, y = regression_data(120, seed=10)
        model = maker(X, y)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.predict(X), model.predict(X))

    def test_classifier_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 2))
        y = (X[:, 0] > 0).astype(float)
        model = fit_gbt(X, y, n_stages=5, task="classification")
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        assert np.array_equal(back.predict_proba(X), model.predict_proba(X))

    def test_linear_round_trip(self, tmp_path):
        X, y = regression_data(50, seed=12)
        model = fit_linear(X, y)
        save_model(model, tmp_path / "lin.json")
        back = load_model(tmp_path / "lin.json")
        assert np.array_equal(back.predict(X), model.predict(X))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            model_from_json({"family": "mystery"})
