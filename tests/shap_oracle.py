"""Subset-enumeration Shapley oracle for tree ensembles: the reference the
SHAP tests compare `explain.tree_shap` against, over the same
cover-conditional valuation."""

import math

import numpy as np

from speechscore.explain import DegenerateCover, _scalar_trees
from speechscore.learners import TreeEnsembleModel
from speechscore.trees import Tree


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
