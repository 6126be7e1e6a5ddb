"""Bag-of-words baseline: document-term counts, a from-scratch random forest
with Gini splits, and cross-validated selection of the resampling fraction.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Vocabulary
from .metrics import confusion, prf_macro
from .resample import rebalance


def bow_matrix(token_lists: Sequence[list[str]], vocab: Vocabulary) -> np.ndarray:
    """Documents x vocabulary occurrence counts; unknown tokens are ignored.

    The matrix is column-major, so that each column's counts are contiguous
    for the trees' per-node gathers."""
    matrix = np.zeros((len(token_lists), vocab.size), dtype=np.int32, order="F")
    lookup = vocab.token_to_index
    for row, tokens in enumerate(token_lists):
        for tok in tokens:
            col = lookup.get(tok)
            if col is not None:
                matrix[row, col] += 1
    return matrix


@dataclass
class Tree:
    """A fitted tree as flat arrays indexed by node, the root at 0.

    `left`/`right` hold child indices and are -1 at leaves; rows with
    `X[:, feature] <= threshold` go left. `label` is each node's majority
    class (lowest on ties), which its leaves predict.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    label: np.ndarray


def _best_split(X: np.ndarray, y: np.ndarray, n_classes: int):
    """Greedy Gini split over the columns of X.

    Thresholds are midpoints between consecutive distinct sorted values;
    returns (column, threshold, weighted_impurity) or None when every
    column is constant. The first column wins ties, and a later one must
    beat the best cost by more than 1e-12.
    """
    n = y.shape[0]
    block = X.T  # one candidate per row, a view
    varies = np.flatnonzero(block.min(axis=1) != block.max(axis=1))
    if not varies.size:
        return None
    block = block[varies]
    order = np.argsort(block, axis=1, kind="stable")
    sv = np.take_along_axis(block, order, axis=1)
    c, i = np.nonzero(sv[:, 1:] != sv[:, :-1])  # split candidate c after its sorted value i
    # class counts of the first i+1 sorted values; class 0 takes what the others leave
    ys = y[order]
    n_left = i + 1
    left_counts = np.empty((c.shape[0], n_classes), dtype=np.intp)
    for k in range(1, n_classes):
        left_counts[:, k] = np.cumsum(ys == k, axis=1)[c, i]
    left_counts[:, 0] = n_left - left_counts[:, 1:].sum(axis=1)
    right_counts = np.bincount(y, minlength=n_classes) - left_counts
    n_right = n - n_left
    gini_left = 1.0 - ((left_counts / n_left[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - ((right_counts / n_right[:, None]) ** 2).sum(axis=1)
    cost = np.full(sv[:, 1:].shape, np.inf)
    cost[c, i] = (n_left * gini_left + n_right * gini_right) / n
    at = cost.argmin(axis=1)  # each candidate's first best split

    best = None
    best_cost = np.inf
    for col, j in enumerate(at):  # in column order
        if cost[col, j] < best_cost - 1e-12:
            best_cost = float(cost[col, j])
            threshold = (sv[col, j] + sv[col, j + 1]) / 2.0
            best = (int(varies[col]), float(threshold), best_cost)
    return best


def _grow_tree(X, y, rows, rng: np.random.Generator, max_features: int, n_classes: int) -> Tree:
    """One tree over the rows `rows` of the column-major X (repeats allowed).
    Nodes are row-index arrays on a stack, right child pushed first, so the
    feature draws and node numbers follow preorder and depth is unbounded."""
    n_rows = X.shape[0]
    flat = X.T.reshape(-1)  # a view: column f holds flat[f * n_rows:(f + 1) * n_rows]
    nodes = []  # [feature, threshold, left, right, label] per node
    stack = [(rows, None, 0)]  # (node rows, parent node, its slot for this child)
    while stack:
        rows, parent, slot = stack.pop()
        if parent is not None:
            parent[slot] = len(nodes)
        node_y = y[rows]
        counts = np.bincount(node_y, minlength=n_classes)
        node = [-1, 0.0, -1, -1, int(counts.argmax())]
        nodes.append(node)
        if rows.shape[0] < 2 or counts.max() == rows.shape[0]:
            continue
        features = rng.choice(X.shape[1], size=max_features, replace=False)
        # gathered feature-major, so that each candidate's values are contiguous
        block = flat.take(features[:, None] * n_rows + rows).T
        split = _best_split(block, node_y, n_classes)
        if split is None:
            continue
        col, threshold, _ = split
        node[:2] = int(features[col]), threshold
        mask = block[:, col] <= threshold
        stack += [(rows[~mask], node, 3), (rows[mask], node, 2)]
    return Tree(*(np.array(column) for column in zip(*nodes)))


@dataclass
class ForestModel:
    trees: list[Tree]
    n_classes: int


def train_forest(X: np.ndarray, y: Sequence[int], n_trees: int, seed: int, rows=None) -> ForestModel:
    """Bootstrap-aggregated Gini trees grown until pure or < 2 samples; each
    split samples isqrt(features) candidate features.

    The forest trains on the rows `rows` of X and y (repeats allowed; all
    rows by default), the same forest as on the copies X[rows], y[rows].
    Each tree draws its bootstrap and feature samples from its own child of
    the master seed.
    """
    X = np.asfortranarray(X)
    y = np.asarray(y, dtype=int)
    rows = np.arange(X.shape[0]) if rows is None else np.asarray(rows, dtype=np.intp)
    if rows.shape[0] == 0 or y.shape[0] != X.shape[0]:
        raise ValueError("need a non-empty matrix with one label per row")
    n_classes = int(y[rows].max()) + 1
    max_features = math.isqrt(X.shape[1])

    trees = []
    for tree_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(tree_seed)
        sample = rows[rng.integers(0, rows.shape[0], size=rows.shape[0])]
        trees.append(_grow_tree(X, y, sample, rng, max_features, n_classes))
    return ForestModel(trees=trees, n_classes=n_classes)


def _tree_predict(tree: Tree, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Leaf labels of the rows `rows` of X, moving them all down one level per pass."""
    node = np.zeros(rows.shape[0], dtype=np.intp)
    live = np.arange(rows.shape[0])
    while live.size:
        at = node[live]
        inner = tree.left[at] >= 0
        live, at = live[inner], at[inner]
        go_left = X[rows[live], tree.feature[at]] <= tree.threshold[at]
        node[live] = np.where(go_left, tree.left[at], tree.right[at])
    return tree.label[node]


def predict_forest(model: ForestModel, X: np.ndarray, rows=None) -> np.ndarray:
    """Majority vote over trees for the rows `rows` of X (all rows by
    default); ties go to the lowest label index."""
    if not model.trees:
        raise ValueError("empty forest")
    X = np.asarray(X)
    rows = np.arange(X.shape[0]) if rows is None else np.asarray(rows, dtype=np.intp)
    votes = np.zeros((rows.shape[0], model.n_classes), dtype=int)
    each = np.arange(rows.shape[0])
    for tree in model.trees:
        votes[each, _tree_predict(tree, X, rows)] += 1
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
    grid: Sequence[float],
    folds: int,
    n_trees: int,
    seed: int,
) -> tuple[float, list[PuCandidate]]:
    """Pick the resampling fraction by k-fold CV of the random forest.

    Only the training folds are rebalanced; scores are macro-F1 on the
    untouched held-out fold. Ties go to the smaller p_u. Folds are row
    positions into the one column-major matrix, never copies of it.
    """
    X = np.asfortranarray(X)
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
            test_rows = np.flatnonzero(fold_of == fold)
            train_rows = np.flatnonzero(fold_of != fold)
            rows = train_rows[rebalance(y[train_rows], p_u, seed=seed + fold)]
            forest = train_forest(X, y, n_trees=n_trees, seed=seed + 31 * fold, rows=rows)
            pred = predict_forest(forest, X, rows=test_rows)
            scores.append(prf_macro(confusion(y[test_rows], pred, n_classes)).macro_f1)
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
