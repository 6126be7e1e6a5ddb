"""Bag-of-words baseline: document-term counts, a from-scratch random forest
with Gini splits, and cross-validated selection of the resampling fraction.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus import Vocabulary
from .metrics import confusion, prf_macro
from .resample import rebalance


def bow_matrix(token_lists: Sequence[list[str]], vocab: Vocabulary) -> np.ndarray:
    """Documents x vocabulary occurrence counts; unknown tokens are ignored."""
    matrix = np.zeros((len(token_lists), vocab.size), dtype=np.int32)
    lookup = vocab.token_to_index
    for row, tokens in enumerate(token_lists):
        for tok in tokens:
            col = lookup.get(tok)
            if col is not None:
                matrix[row, col] += 1
    return matrix


def gini(class_counts: Sequence[int]) -> float:
    """Impurity 1 - sum (n_i / N)^2; zero iff the node is pure."""
    counts = np.asarray(class_counts, dtype=float)
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    class_counts: Optional[np.ndarray] = None  # leaf distribution

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_split(X: np.ndarray, y: np.ndarray, features: np.ndarray, n_classes: int):
    """Greedy Gini split over the candidate features.

    Thresholds are midpoints between consecutive distinct sorted values;
    returns (feature, threshold, weighted_impurity) or None when every
    candidate feature is constant.
    """
    n = y.shape[0]
    best = None
    best_cost = np.inf
    for f in features:
        values = X[:, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sy = y[order]
        distinct = np.flatnonzero(sv[1:] != sv[:-1])  # split after index i
        if distinct.size == 0:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), sy] = 1.0
        prefix = np.cumsum(onehot, axis=0)  # class counts of the first i+1 rows
        total = prefix[-1]

        left_counts = prefix[distinct]
        right_counts = total - left_counts
        n_left = left_counts.sum(axis=1)
        n_right = n - n_left
        gini_left = 1.0 - ((left_counts / n_left[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((right_counts / n_right[:, None]) ** 2).sum(axis=1)
        cost = (n_left * gini_left + n_right * gini_right) / n

        j = int(cost.argmin())
        if cost[j] < best_cost - 1e-12:
            best_cost = float(cost[j])
            threshold = (sv[distinct[j]] + sv[distinct[j] + 1]) / 2.0
            best = (int(f), float(threshold), best_cost)
    return best


def _grow_tree(X, y, rng: np.random.Generator, max_features: int, n_classes: int) -> TreeNode:
    counts = np.bincount(y, minlength=n_classes)
    if y.shape[0] < 2 or counts.max() == y.shape[0]:
        return TreeNode(class_counts=counts)
    features = rng.choice(X.shape[1], size=max_features, replace=False)
    split = _best_split(X, y, features, n_classes)
    if split is None:
        return TreeNode(class_counts=counts)
    feature, threshold, _ = split
    mask = X[:, feature] <= threshold
    node = TreeNode(feature=feature, threshold=threshold, class_counts=counts)
    node.left = _grow_tree(X[mask], y[mask], rng, max_features, n_classes)
    node.right = _grow_tree(X[~mask], y[~mask], rng, max_features, n_classes)
    return node


@dataclass
class ForestModel:
    trees: list[TreeNode]
    n_classes: int
    max_features: int
    seed: int


def train_forest(
    X: np.ndarray,
    y: Sequence[int],
    n_trees: int = 100,
    max_features: Optional[int] = None,
    seed: int = 0,
) -> ForestModel:
    """Bootstrap-aggregated Gini trees grown until pure or < 2 samples.

    Each tree draws its bootstrap and feature samples from its own child of
    the master seed.
    """
    X = np.asarray(X)
    y = np.asarray(y, dtype=int)
    if X.shape[0] == 0 or y.shape[0] != X.shape[0]:
        raise ValueError("need a non-empty matrix with one label per row")
    n_classes = int(y.max()) + 1
    if max_features is None:
        max_features = max(1, int(math.isqrt(X.shape[1])))
    max_features = min(max_features, X.shape[1])

    trees = []
    for tree_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(tree_seed)
        rows = rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(_grow_tree(X[rows], y[rows], rng, max_features, n_classes))
    return ForestModel(trees=trees, n_classes=n_classes, max_features=max_features, seed=seed)


def _tree_predict(node: TreeNode, row: np.ndarray) -> int:
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return int(node.class_counts.argmax())


def predict_forest(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Majority vote over trees; ties go to the lowest label index."""
    if not model.trees:
        raise ValueError("empty forest")
    X = np.asarray(X)
    votes = np.zeros((X.shape[0], model.n_classes), dtype=int)
    for tree in model.trees:
        for i in range(X.shape[0]):
            votes[i, _tree_predict(tree, X[i])] += 1
    return votes.argmax(axis=1)


@dataclass
class PuCandidate:
    p_u: float
    fold_scores: list[float]

    @property
    def mean_macro_f1(self) -> float:
        return float(np.mean(self.fold_scores))


def cv_select_pu(
    X: np.ndarray,
    y: Sequence[int],
    grid: Sequence[float] = tuple(round(0.1 * i, 1) for i in range(11)),
    folds: int = 5,
    n_trees: int = 100,
    seed: int = 0,
) -> tuple[float, list[PuCandidate]]:
    """Pick the resampling fraction by k-fold CV of the random forest.

    Only the training folds are rebalanced; scores are macro-F1 on the
    untouched held-out fold. Ties go to the smaller p_u.
    """
    X = np.asarray(X)
    y = np.asarray(y, dtype=int)
    n = y.shape[0]
    n_classes = int(y.max()) + 1
    if n // folds < n_classes:
        raise ValueError(f"folds of ~{n // folds} rows cannot cover {n_classes} classes")

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    fold_of = np.empty(n, dtype=int)
    fold_of[order] = np.arange(n) % folds

    candidates = []
    for p_u in grid:
        scores = []
        for fold in range(folds):
            test_mask = fold_of == fold
            train_rows = np.flatnonzero(~test_mask)
            balanced = rebalance(
                list(train_rows), p_u, seed=seed + fold, label_of=lambda r: int(y[r])
            )
            rows = np.asarray(balanced)
            forest = train_forest(X[rows], y[rows], n_trees=n_trees, seed=seed + 31 * fold)
            pred = predict_forest(forest, X[test_mask])
            scores.append(prf_macro(confusion(y[test_mask], pred, n_classes)).macro_f1)
        candidates.append(PuCandidate(p_u=float(p_u), fold_scores=scores))

    best = max(candidates, key=lambda c: (c.mean_macro_f1, -c.p_u))
    return best.p_u, candidates


def write_pu_report(candidates: Sequence[PuCandidate], path) -> None:
    """CSV report: p_u, per-fold macro-F1 scores, and their mean."""
    folds = len(candidates[0].fold_scores) if candidates else 0
    with open(path, "w", encoding="utf-8") as fh:
        cols = ",".join(f"fold{i}" for i in range(folds))
        fh.write(f"p_u,{cols},mean_macro_f1\n")
        for c in candidates:
            scores = ",".join(f"{s:.6f}" for s in c.fold_scores)
            fh.write(f"{c.p_u},{scores},{c.mean_macro_f1:.6f}\n")
