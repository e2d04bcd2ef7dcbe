"""Model interpretability: gain importance, partial dependence, and exact
path-dependent SHAP for tree ensembles.

The SHAP recursion tracks, along each root-to-leaf path, the fraction of
subsets of already-seen features that would route a sample here ("zero"
fraction from node covers, "one" fraction from the sample's own path) and
the permutation weights of every subset size; unwinding the path at a leaf
yields each feature's exact Shapley contribution under the cover-conditional
expectation. The tests verify it against a subset-enumeration oracle over the
same valuation. Importance and SHAP refuse linear and logistic models.

Every row of a matrix is explained in one walk per tree. Node visits, path
features, unwind positions and zero fractions are the same for every row;
only the one fractions and the path weights differ, and they are (n,)
arrays. A row's SHAP values do not depend on the batch it is explained in:
each row gets the same float operations as it would alone, and adds its
leaves' contributions in its own hot-child-first leaf order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learners import TreeEnsembleModel
from .trees import Tree


class DegenerateCover(ValueError):
    """An internal node carries zero cover, so expectations are undefined."""


# ---------------------------------------------------------------------------
# Gain-based importance


def _require_trees(model) -> None:
    if not isinstance(model, TreeEnsembleModel):
        raise ValueError("importance and SHAP explain tree ensembles only, "
                         f"not a {type(model).__name__}")


@dataclass
class ImportanceRanking:
    entries: list[tuple[str, float]]     # descending importance, sums to 1
    flags: list[str] | None = None


def gain_importance(model: TreeEnsembleModel) -> ImportanceRanking:
    """Cover-weighted impurity gain per feature, normalized to sum 1."""
    _require_trees(model)
    totals = np.zeros(len(model.feature_names), dtype=np.float64)
    for tree in model.trees:
        internal = tree.feature >= 0
        for f, cover, gain in zip(tree.feature[internal], tree.cover[internal],
                                  tree.gain[internal]):
            totals[f] += cover * gain
    grand = totals.sum()
    if grand == 0:
        return ImportanceRanking(entries=[], flags=["importance_no_splits"])
    totals /= grand
    return ImportanceRanking(entries=_ranked(model.feature_names, totals))


def _ranked(names: list[str], scores: np.ndarray) -> list[tuple[str, float]]:
    """(name, score) pairs by descending score, ties by name."""
    order = sorted(range(len(names)), key=lambda i: (-scores[i], names[i]))
    return [(names[i], float(scores[i])) for i in order]


# ---------------------------------------------------------------------------
# Partial dependence


@dataclass
class PdpCurve:
    feature: str
    grid: np.ndarray
    mean_prediction: np.ndarray
    flags: list[str] | None = None


# Float64 elements (8 MiB) of the stacked background a PDP predicts at once.
_PDP_STACK_ELEMENTS = 1 << 20


def pdp(model, X: np.ndarray, feature_names: list[str], feature: str, *,
        n_grid: int) -> PdpCurve:
    """Empirical partial dependence of one feature over the background
    rows X, whose columns are ``feature_names``.

    The grid spans n_grid equally spaced points between the feature's 1st
    and 99th empirical percentiles; each point is the mean of the model's
    ``predict_value`` over the background rows with that feature overridden.

    Regression tree ensembles predict a chunk of grid points in one call, on
    the background stacked once per point, so each tree is applied once per
    chunk instead of once per point. A chunk holds at most
    ``_PDP_STACK_ELEMENTS`` float64 values (8 MiB) and at least one point.
    Their prediction is a per-row sum of tree outputs, so a row's bits do
    not depend on the batch. Every other model predicts one point per call:
    matrix products (``X @ coef``, ``proba @ arange(k)``) round a row
    differently with the batch shape, which would change the curve's bits.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("empty background matrix")
    if n_grid < 1:
        raise ValueError(f"PDP grid size must be at least 1, got {n_grid}")
    if feature not in feature_names:
        raise ValueError(f"feature {feature!r} is not one of the model's "
                         f"{len(feature_names)} columns")
    col = feature_names.index(feature)

    lo, hi = np.percentile(X[:, col], [1, 99])
    flags = None
    if lo == hi:
        grid = np.asarray([lo])
        flags = ["pdp_constant_feature"]
    else:
        grid = np.linspace(lo, hi, n_grid)

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
        preds = np.asarray(model.predict_value(stacked)).reshape(points.size, -1)
        for j, row in enumerate(preds):
            curve[start + j] = float(np.mean(row))
    return PdpCurve(feature=feature, grid=grid, mean_prediction=curve, flags=flags)


# ---------------------------------------------------------------------------
# Path-dependent TreeSHAP


def _shap_tree(tree: Tree, X: np.ndarray, phi: np.ndarray) -> None:
    """Add one tree's exact Shapley contributions for every row of X into phi.

    The tree is walked once, left child first, for all rows. A path is a
    list of features, a list of zero fractions, a list of one fractions
    (each an (n,) array) and the weights W, an (entries, n) array. Each
    element of W gets exactly the scalar operations of a one-row recursion,
    in its order; where that recursion branches on ``o != 0``, both branches
    are computed and ``np.where`` keeps one, so the other may divide by 0.
    """
    if tree.is_leaf(0):
        return
    n = X.shape[0]
    n_leaves = {}

    def count(node):
        if tree.is_leaf(node):
            n_leaves[node] = 1
        elif tree.cover[node] <= 0:
            raise DegenerateCover(f"internal node {node} has cover {tree.cover[node]}")
        else:
            n_leaves[node] = count(int(tree.left[node])) + count(int(tree.right[node]))
        return n_leaves[node]

    count(0)
    leaves = []     # (path features, contributions (d, n), rank (n,)), left first

    def extend(path, pz, po, pi):
        feats, zs, O, W = path
        length = len(feats)
        if length == 0:
            return [pi], [pz], [po], np.ones((1, n))
        steps = np.arange(1.0, length + 1.0)[:, None]
        weights = np.empty((length + 1, n))
        weights[:length] = pz * W * steps[::-1] / (length + 1)
        weights[length] = 0.0
        weights[1:] += po * W * steps / (length + 1)
        return feats + [pi], zs + [pz], O + [po], weights

    def unwound(W, depth, o, z):
        """The path weights W with the entry of one fraction o and zero
        fraction z removed (UNWIND, Lundberg et al. 2020, Algorithm 2):
        yields each row of the shorter path, last row first."""
        one = o != 0
        carry = W[depth]
        for i in range(depth - 1, -1, -1):
            part = carry * (depth + 1) / ((i + 1) * o)
            yield np.where(one, part, W[i] * (depth + 1) / (z * (depth - i)))
            if i:
                carry = W[i] - part * z * (depth - i) / (depth + 1)

    def unwind(path, k):
        feats, zs, O, W = path
        weights = np.stack(list(unwound(W, len(feats) - 1, O[k], zs[k]))[::-1])
        return feats[:k] + feats[k + 1:], zs[:k] + zs[k + 1:], O[:k] + O[k + 1:], weights

    def unwound_sums(path):
        """Each non-root entry's unwound weight sum times (o - z), per row."""
        _, zs, O, W = path
        o, z = np.array(O[1:]), np.array(zs[1:])[:, None]
        return sum(unwound(W, len(zs) - 1, o, z), 0.0) * (o - z)

    def recurse(node, path, pz, po, pi, rank):
        path = extend(path, pz, po, pi)
        if tree.is_leaf(node):
            contrib = unwound_sums(path) * float(tree.value[node])
            if pz == 0:
                # Only a leaf can have zero cover (`count` checked the
                # internal nodes). A row that does not take this branch gets
                # nothing from it; its arithmetic here was 0/0.
                contrib = np.where(po != 0, contrib, -0.0)
            leaves.append((path[0][1:], contrib, rank))
            return
        f = int(tree.feature[node])
        left, right = int(tree.left[node]), int(tree.right[node])
        cover = tree.cover[node]
        goes_left = X[:, f] <= tree.threshold[node]

        iz = io = 1.0
        if f in path[0]:
            k = path[0].index(f)
            iz, io = path[1][k], path[2][k]
            path = unwind(path, k)
        for child, sibling, hot in ((left, right, goes_left), (right, left, ~goes_left)):
            child_pz = iz * (tree.cover[child] / cover)
            recurse(child, path, child_pz, np.where(hot, io, 0.0), f,
                    rank + np.where(hot, 0, n_leaves[sibling]))

    with np.errstate(divide="ignore", invalid="ignore"):
        recurse(0, ([], [], [], None), 1.0, 1.0, -1, np.zeros(n, dtype=np.int64))

    # Each row adds its leaves in its own hot-child-first order and a leaf's
    # features in path order, as a per-row recursion would: float addition
    # is not associative. A short path is padded with -0.0, which leaves
    # every float unchanged, and a row meets each column once per step.
    width = max(len(feats) for feats, _, _ in leaves)
    features = np.zeros((len(leaves), width), dtype=np.int64)
    contribs = np.full((len(leaves), width, n), -0.0)
    leaf_at = np.empty((len(leaves), n), dtype=np.int64)
    rows = np.arange(n)
    for j, (feats, contrib, rank) in enumerate(leaves):
        features[j, :len(feats)] = feats
        contribs[j, :len(feats)] = contrib
        leaf_at[rank, rows] = j
    for at in leaf_at:
        cols, values = features[at], contribs[at, :, rows]
        for i in range(width):
            phi[rows, cols[:, i]] += values[:, i]


def _scalar_trees(model: TreeEnsembleModel, class_index: int | None):
    """The scalar-output trees, their common scale, and the base offset."""
    _require_trees(model)
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
    phi = _shap_values(model, x[None, :], class_index)[0]
    return phi, shap_base_value(model, class_index)


def _shap_values(model: TreeEnsembleModel, X: np.ndarray,
                 class_index: int | None) -> np.ndarray:
    """SHAP values of every row of X, one vectorized pass per tree."""
    trees, scale, _ = _scalar_trees(model, class_index)
    phi = np.zeros((X.shape[0], len(model.feature_names)), dtype=np.float64)
    for tree in trees:
        _shap_tree(tree, X, phi)
    phi *= scale
    return phi


# ---------------------------------------------------------------------------
# Summary over a matrix


@dataclass
class ShapExplanation:
    base_value: float
    phi: np.ndarray              # (n, p)
    feature_values: np.ndarray   # (n, p), for summary coloring
    columns: list[str]
    ranking: list[tuple[str, float]]   # by mean |phi| descending


def shap_summary(model: TreeEnsembleModel, X: np.ndarray,
                 class_index: int | None = None) -> ShapExplanation:
    """Per-sample SHAP matrix of the rows X, in the model's columns, plus
    the mean-|phi| feature ranking."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("empty matrix")
    phi = _shap_values(model, X, class_index)
    base = shap_base_value(model, class_index)
    ranking = _ranked(model.feature_names, np.abs(phi).mean(axis=0))
    return ShapExplanation(base_value=base, phi=phi, feature_values=X.copy(),
                           columns=list(model.feature_names), ranking=ranking)
