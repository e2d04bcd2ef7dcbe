"""Model interpretability: gain importance, partial dependence, and exact
path-dependent SHAP for tree ensembles.

The SHAP recursion tracks, along each root-to-leaf path, the fraction of
subsets of already-seen features that would route a sample here ("zero"
fraction from node covers, "one" fraction from the sample's own path) and
the permutation weights of every subset size; unwinding the path at a leaf
yields each feature's exact Shapley contribution under the cover-conditional
expectation. A subset-enumeration oracle over the same valuation verifies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import FeatureMatrix
from .learners import TreeEnsembleModel
from .trees import Tree


class DegenerateCover(ValueError):
    """An internal node carries zero cover, so expectations are undefined."""


# ---------------------------------------------------------------------------
# Gain-based importance


@dataclass
class ImportanceRanking:
    entries: list[tuple[str, float]]     # descending importance, sums to 1
    method: str = "gain"
    flags: list[str] | None = None


def gain_importance(model: TreeEnsembleModel, method: str = "gain") -> ImportanceRanking:
    """Cover-weighted impurity gain per feature, normalized to sum 1."""
    if method not in ("gain", "split_count"):
        raise ValueError(f"unknown importance method {method!r}")
    totals = np.zeros(len(model.feature_names), dtype=np.float64)
    for tree in model.trees:
        internal = tree.feature >= 0
        for f, cover, gain in zip(tree.feature[internal], tree.cover[internal],
                                  tree.gain[internal]):
            totals[f] += cover * gain if method == "gain" else 1.0
    grand = totals.sum()
    if grand == 0:
        return ImportanceRanking(entries=[], method=method,
                                 flags=["importance_no_splits"])
    totals /= grand
    order = sorted(range(totals.size), key=lambda i: (-totals[i], model.feature_names[i]))
    return ImportanceRanking(entries=[(model.feature_names[i], float(totals[i]))
                                      for i in order], method=method)


# ---------------------------------------------------------------------------
# Partial dependence


@dataclass
class PdpCurve:
    feature: str
    grid: np.ndarray
    mean_prediction: np.ndarray
    n_background: int
    flags: list[str] | None = None


# Float64 elements (8 MiB) of the stacked background a PDP predicts at once.
_PDP_STACK_ELEMENTS = 1 << 20


def _predict_fn(model):
    if hasattr(model, "predict_value"):
        return model.predict_value
    if hasattr(model, "predict"):
        return model.predict
    return model


def pdp(model, background: FeatureMatrix | np.ndarray, feature: str | int,
        n_grid: int = 20, feature_names: list[str] | None = None) -> PdpCurve:
    """Empirical partial dependence of one feature.

    The grid spans n_grid equally spaced points between the feature's 1st
    and 99th empirical percentiles; each point is the mean prediction over
    the background rows with that feature overridden.

    Regression tree ensembles predict a chunk of grid points in one call, on
    the background stacked once per point, so each tree is applied once per
    chunk instead of once per point. A chunk holds at most
    ``_PDP_STACK_ELEMENTS`` float64 values (8 MiB) and at least one point.
    Their prediction is a per-row sum of tree outputs, so a row's bits do
    not depend on the batch. Every other model predicts one point per call:
    matrix products (``X @ coef``, ``proba @ arange(k)``) round a row
    differently with the batch shape, which would change the curve's bits.
    """
    if isinstance(background, FeatureMatrix):
        X = background.values
        names = background.columns
    else:
        X = np.atleast_2d(np.asarray(background, dtype=np.float64))
        names = feature_names or [f"f{i}" for i in range(X.shape[1])]
    if X.shape[0] == 0:
        raise ValueError("empty background matrix")
    col = names.index(feature) if isinstance(feature, str) else int(feature)
    name = names[col]

    lo, hi = np.percentile(X[:, col], [1, 99])
    flags = None
    if lo == hi:
        grid = np.asarray([lo])
        flags = ["pdp_constant_feature"]
    else:
        grid = np.linspace(lo, hi, n_grid)

    predict = _predict_fn(model)
    n = X.shape[0]
    chunk = 1
    if isinstance(model, TreeEnsembleModel) and model.task == "regression":
        chunk = max(1, _PDP_STACK_ELEMENTS // X.size)
    chunk = min(chunk, grid.size)
    curve = np.empty(grid.size, dtype=np.float64)
    work = np.tile(X, (chunk, 1))
    for start in range(0, grid.size, chunk):
        points = grid[start:start + chunk]
        stacked = work[:points.size * n]
        stacked[:, col] = np.repeat(points, n)
        preds = np.asarray(predict(stacked)).reshape(points.size, -1)
        for j, row in enumerate(preds):
            curve[start + j] = float(np.mean(row))
    return PdpCurve(feature=name, grid=grid, mean_prediction=curve,
                    n_background=X.shape[0], flags=flags)


# ---------------------------------------------------------------------------
# Path-dependent TreeSHAP


def _shap_tree(tree: Tree, x: np.ndarray, phi: np.ndarray) -> None:
    """Add one tree's exact Shapley contributions for sample x into phi."""

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


def _scalar_trees(model: TreeEnsembleModel, class_index: int | None):
    """The scalar-output trees, their common scale, and the base offset."""
    if model.kind == "gbt_classifier":
        if class_index is None:
            raise ValueError("class_index is required to explain a classifier margin")
        K = model.n_classes
        trees = [t for i, t in enumerate(model.trees) if i % K == class_index]
        return trees, model.learning_rate, float(np.asarray(model.base_score)[class_index])
    if model.task == "classification":
        raise ValueError("SHAP supports regression models and classifier margins")
    base = float(model.base_score) if np.ndim(model.base_score) == 0 else 0.0
    return model.trees, model.tree_scale(), base


def shap_base_value(model: TreeEnsembleModel, class_index: int | None = None) -> float:
    trees, scale, base = _scalar_trees(model, class_index)
    return base + scale * float(sum(t.leaf_mean() for t in trees))


def tree_shap(model: TreeEnsembleModel, sample,
              class_index: int | None = None) -> tuple[np.ndarray, float]:
    """Exact path-dependent SHAP values and base value for one sample."""
    x = np.asarray(sample, dtype=np.float64).ravel()
    trees, scale, base = _scalar_trees(model, class_index)
    phi = np.zeros(len(model.feature_names), dtype=np.float64)
    for tree in trees:
        _shap_tree(tree, x, phi)
    phi *= scale
    expected = base + scale * float(sum(t.leaf_mean() for t in trees))
    return phi, expected


def _descend_expectation(tree: Tree, x: np.ndarray, mask: int) -> float:
    """Cover-conditional expectation with only the masked features known."""
    def walk(node: int) -> float:
        if tree.is_leaf(node):
            return float(tree.value[node])
        f = int(tree.feature[node])
        if mask >> f & 1:
            child = tree.left[node] if x[f] <= tree.threshold[node] else tree.right[node]
            return walk(int(child))
        cover = tree.cover[node]
        if cover <= 0:
            raise DegenerateCover(f"internal node {node} has cover {cover}")
        return (tree.cover[tree.left[node]] * walk(int(tree.left[node]))
                + tree.cover[tree.right[node]] * walk(int(tree.right[node]))) / cover
    return walk(0)


def brute_force_shap(model: TreeEnsembleModel, sample,
                     class_index: int | None = None) -> np.ndarray:
    """Subset-enumeration Shapley oracle; refuses more than 12 features."""
    x = np.asarray(sample, dtype=np.float64).ravel()
    p = len(model.feature_names)
    if p > 12:
        raise ValueError(f"{p} features exceed the 2^p enumeration limit (12)")
    trees, scale, _ = _scalar_trees(model, class_index)

    values = np.zeros(1 << p, dtype=np.float64)
    for mask in range(1 << p):
        values[mask] = sum(_descend_expectation(t, x, mask) for t in trees)

    fact = [math.factorial(k) for k in range(p + 1)]
    phi = np.zeros(p, dtype=np.float64)
    for mask in range(1 << p):
        size = bin(mask).count("1")
        weight = fact[size] * fact[p - size - 1] / fact[p]
        for i in range(p):
            if mask >> i & 1:
                continue
            phi[i] += weight * (values[mask | (1 << i)] - values[mask])
    return phi * scale


# ---------------------------------------------------------------------------
# Summary over a matrix


@dataclass
class ShapExplanation:
    base_value: float
    phi: np.ndarray              # (n, p)
    feature_values: np.ndarray   # (n, p), for summary coloring
    columns: list[str]
    ranking: list[tuple[str, float]]   # by mean |phi| descending


def shap_summary(model: TreeEnsembleModel, matrix: FeatureMatrix | np.ndarray,
                 class_index: int | None = None) -> ShapExplanation:
    """Per-sample SHAP matrix plus the mean-|phi| feature ranking."""
    if isinstance(matrix, FeatureMatrix):
        X = matrix.values
        if list(matrix.columns) != list(model.feature_names):
            raise ValueError("matrix columns do not match the model")
    else:
        X = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("empty matrix")
    phi = np.empty((X.shape[0], X.shape[1]), dtype=np.float64)
    base = shap_base_value(model, class_index)
    for i in range(X.shape[0]):
        phi[i], _ = tree_shap(model, X[i], class_index)
    mean_abs = np.abs(phi).mean(axis=0)
    order = sorted(range(X.shape[1]),
                   key=lambda j: (-mean_abs[j], model.feature_names[j]))
    ranking = [(model.feature_names[j], float(mean_abs[j])) for j in order]
    return ShapExplanation(base_value=base, phi=phi, feature_values=X.copy(),
                           columns=list(model.feature_names), ranking=ranking)
