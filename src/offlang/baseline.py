"""Bag-of-words baseline: document-term counts in compressed sparse rows, a
from-scratch random forest with Gini splits searched over the nonzeros, and
cross-validated selection of the resampling fraction.
"""

import math
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import pool
from .corpus import Vocabulary
from .metrics import confusion, prf_macro
from .resample import rebalance

# The most trees one CV worker grows in one lockstep, unless a forest alone has
# more: the CLI's default forest, the largest lockstep whose memory was
# measured (one OLID-size 100-tree cell peaked at 118 MB). Default cells stay
# one per lockstep; small ones share it, so its fixed cost per step is paid once.
LOCKSTEP_TREES = 100


@dataclass
class _Compressed:
    """A matrix of `shape` in compressed sparse storage: major line i holds
    the values data[indptr[i]:indptr[i + 1]] at the minor positions
    indices[indptr[i]:indptr[i + 1]], and every other entry is 0. len() counts
    the rows, as a dense matrix's would, and .nbytes the three arrays."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes


class Csr(_Compressed):
    """Compressed sparse rows: row i is major line i."""


class Csc(_Compressed):
    """Compressed sparse columns: column j is major line j, its rows ascending.
    The row indices are int32, half the bytes of intp in every row copy the
    forest makes; no input of this program comes near 2**31 rows."""


def _as_csc(X) -> Csc:
    """X itself if it is a Csc, else the Csc of X, a Csr or a dense 2-D array."""
    if isinstance(X, Csc):
        return X
    if isinstance(X, Csr):
        by_column = np.argsort(X.indices, kind="stable")
        row = np.repeat(np.arange(X.shape[0], dtype=np.int32), np.diff(X.indptr))[by_column]
        col, data = X.indices[by_column], X.data[by_column]
    else:
        X = np.asarray(X)
        col, row = np.nonzero(X.T)
        data = X[row, col]
        row = row.astype(np.int32)
    return Csc(np.searchsorted(col, np.arange(X.shape[1] + 1)), row, data, X.shape)


def _postings(X: Csc, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions in X.indices and X.data of the entries of `columns` (maybe
    none), column by column, and each entry's slot in `columns`."""
    starts = X.indptr[columns]
    lens = X.indptr[columns + 1] - starts
    ends = np.cumsum(lens)
    at = np.repeat(starts - ends + lens, lens) + np.arange(lens.sum())
    return at, np.repeat(np.arange(columns.shape[0]), lens)


def _take_rows(X: Csc, rows: np.ndarray) -> Csc:
    """X[rows] for distinct ascending rows, row i of it being rows[i]."""
    position = np.full(X.shape[0], -1, dtype=np.int32)
    position[rows] = np.arange(rows.shape[0])
    row = position[X.indices]
    keep = np.flatnonzero(row >= 0)
    return Csc(np.searchsorted(keep, X.indptr), row[keep], X.data[keep], (rows.shape[0], X.shape[1]))


def bow_matrix(token_lists: Sequence[list[str]], vocab: Vocabulary) -> Csr:
    """Documents x vocabulary occurrence counts (int32) in CSR, built from the
    nonzeros alone; unknown tokens are ignored."""
    lookup = vocab.token_to_index
    keys = [row * vocab.size + lookup[tok] for row, tokens in enumerate(token_lists) for tok in tokens if tok in lookup]
    keys, counts = np.unique(np.array(keys, dtype=np.int64), return_counts=True)
    row, col = np.divmod(keys, vocab.size)
    return Csr(np.searchsorted(row, np.arange(len(token_lists) + 1)), col.astype(np.intp, copy=False),
               counts.astype(np.int32), (len(token_lists), vocab.size))


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


def _split_search(col: np.ndarray, val: np.ndarray, labels: np.ndarray, n: np.ndarray, node_counts: np.ndarray,
                  m: int) -> list:
    """Greedy Gini splits of K nodes at once, each searched over its m
    columns' nonzeros.

    Node k holds n[k] rows with class counts node_counts[k] (a K x classes
    array) and owns the columns k*m .. k*m + m - 1 of `col`; entry i is the
    nonzero val[i] of a row of class labels[i] in column col[i]. A column's
    zeros form one group between its negative and its positive values, with
    the class counts that its nonzeros leave of its node's. Thresholds are
    midpoints between consecutive distinct values. Within a column the first
    best threshold in value order wins; across a node's columns the first
    wins ties, and a later one must beat the best cost by more than 1e-12.
    The split costs come from integer prefix counts at boundaries between
    distinct values, so they do not depend on the order of the entries.

    Returns, per node, (column within the node, threshold, weighted_impurity,
    left class counts) or None when every column is constant.
    """
    n_nodes, n_classes = node_counts.shape
    nonzero_counts = np.bincount(col * n_classes + labels, minlength=n_nodes * m * n_classes)
    nonzero_counts = nonzero_counts.reshape(n_nodes * m, n_classes)
    n_col = np.repeat(n, m)
    n_zero = n_col - nonzero_counts.sum(axis=1)
    zero_cols = np.flatnonzero((n_zero > 0) & (n_zero < n_col))  # columns with zeros and nonzeros
    # one entry per nonzero and one per zero group, each with its class counts
    col = np.concatenate((col, zero_cols))
    val = np.concatenate((val, np.zeros(zero_cols.shape[0], dtype=val.dtype)))
    counts = np.concatenate((np.eye(n_classes, dtype=np.intp)[labels],
                             node_counts[zero_cols // m] - nonzero_counts[zero_cols]))
    order = np.lexsort((val, col))
    col, val = col[order], val[order]
    prefix = np.cumsum(counts[order], axis=0)
    same_col = col[1:] == col[:-1]
    # split after sorted entry e: the next one is in the same column with a larger value
    e = np.flatnonzero(same_col & (val[1:] != val[:-1]))
    found = [None] * n_nodes
    if not e.size:
        return found
    # the prefix counts of the columns before each entry's, carried forward from
    # each column's start (prefix never decreases, so a running maximum carries them)
    before = np.zeros_like(prefix)
    starts = np.flatnonzero(~same_col) + 1
    before[starts] = prefix[starts - 1]
    np.maximum.accumulate(before, axis=0, out=before)
    left_counts = prefix[e] - before[e]
    split_col = col[e]
    node = split_col // m
    n_node = n[node]
    n_left = left_counts.sum(axis=1)
    right_counts = node_counts[node] - left_counts
    n_right = n_node - n_left
    gini_left = 1.0 - ((left_counts / n_left[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - ((right_counts / n_right[:, None]) ** 2).sum(axis=1)
    cost = (n_left * gini_left + n_right * gini_right) / n_node
    # each column's first best split in value order: a stable sort by (column, cost)
    by_cost = np.lexsort((cost, split_col))
    firsts = split_col[by_cost]
    at = by_cost[np.concatenate(([True], firsts[1:] != firsts[:-1]))]

    best = [-1] * n_nodes
    best_cost = [np.inf] * n_nodes
    for j, c, k in zip(at.tolist(), cost[at].tolist(), node[at].tolist()):  # in column order
        if c < best_cost[k] - 1e-12:
            best_cost[k] = c
            best[k] = j
    won = [k for k in range(n_nodes) if best[k] >= 0]
    js = np.array([best[k] for k in won], dtype=np.intp)
    threshold = (val[e[js]] + val[e[js] + 1]) / 2.0
    for k, column, thr, left in zip(won, (split_col[js] - node[js] * m).tolist(), threshold.tolist(),
                                    left_counts[js].tolist()):
        found[k] = (column, thr, best_cost[k], left)
    return found


def _best_split(X, y: np.ndarray, n_classes: int):
    """`_split_search` on the one node of the rows of X (a Csc, a Csr or a
    dense array) with labels y: (column, threshold, weighted_impurity) or None."""
    X = _as_csc(X)
    at, col = _postings(X, np.arange(X.shape[1]))
    node_counts = np.bincount(y, minlength=n_classes)[None]
    found = _split_search(col, X.data[at], y[X.indices[at]], np.array([y.shape[0]]), node_counts, X.shape[1])[0]
    return found and found[:3]


def _grow_trees(X: Csc, y: np.ndarray, samples: Sequence[np.ndarray], rngs: Sequence[np.random.Generator],
                max_features: int, n_classes: int) -> list[Tree]:
    """One tree per (sample, rng): tree t grows over the rows samples[t] of X
    (repeats allowed) and draws each split's candidate columns from rngs[t].

    The trees grow in lockstep. In each step every unfinished tree pops nodes
    in preorder, right child pushed first, recording leaves, until it reaches
    a node to split; its draws, node numbers and depth are those of a tree
    grown alone. The step's nodes then share one `_postings` gather from the
    sampled rows of X and one `_split_search`. A node is a group of rows:
    group[t, row] names the node of tree t that holds the row (-1 out of the
    sample), and times[t, row] is its multiplicity in the sample. A split
    leaves the zeros' side in its parent's group and moves the other side's
    rows, all nonzero in the split column, to a new one.
    """
    present = np.zeros(X.shape[0], dtype=bool)
    for sample in samples:
        present[sample] = True
    rows = np.flatnonzero(present)
    local = np.cumsum(present) - 1  # each present row's position in rows
    X = _take_rows(X, rows)
    y = y[rows]
    n_rows = rows.shape[0]
    times = np.zeros((len(samples), n_rows), dtype=np.int32)
    for t, sample in enumerate(samples):
        times[t] = np.bincount(local[sample], minlength=n_rows)
    group = np.where(times > 0, 0, -1).astype(np.int32)
    flat_group = group.reshape(-1)

    nodes = [(array("q"), array("d"), array("q"), array("q"), array("q")) for _ in samples]
    stacks = [[(0, sample.shape[0], tuple(np.bincount(y[local[sample]], minlength=n_classes).tolist()), -1, 0)]
              for sample in samples]  # (group, rows, class counts, parent node, 1 if its right child)
    next_group = [1] * len(samples)
    live = list(range(len(samples)))
    while live:
        batch = []  # (tree, node, group, rows, class counts, candidate columns)
        for t in live:
            feature, threshold, left, right, label = nodes[t]
            stack = stacks[t]
            while stack:
                g, n, counts, parent, is_right = stack.pop()
                node = len(label)
                if parent >= 0:
                    (right if is_right else left)[parent] = node
                top = max(counts)
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                label.append(counts.index(top))
                if n >= 2 and top < n:
                    batch.append((t, node, g, n, counts, rngs[t].choice(X.shape[1], size=max_features, replace=False)))
                    break
        if not batch:
            break
        trees, _, groups, sizes, class_counts, features = (np.array(field) for field in zip(*batch))
        # each candidate column's entries in the rows its node holds, by node-offset column k*m + slot
        at, col = _postings(X, features.reshape(-1))
        k = col // max_features
        cell = trees[k] * n_rows + X.indices[at]
        keep = np.flatnonzero(flat_group[cell] == groups[k])
        col, val, cell = col[keep], X.data[at[keep]], cell[keep]
        copies = times.reshape(-1)[cell]
        found = _split_search(np.repeat(col, copies), np.repeat(val, copies),
                              np.repeat(y[cell % n_rows], copies), sizes, class_counts, max_features)
        split_col = np.full(len(batch), -1)
        split_threshold = np.zeros(len(batch))
        split_group = np.zeros(len(batch), dtype=np.int32)
        for k, ((t, node, g, n_k, counts_k, features_k), split) in enumerate(zip(batch, found)):
            if split is None:
                continue
            column, thr, _, left_counts = split
            split_col[k] = k * max_features + column
            split_threshold[k] = thr
            feature, threshold = nodes[t][:2]
            feature[node] = int(features_k[column])
            threshold[node] = thr
            moved = split_group[k] = next_group[t]
            next_group[t] += 1
            zeros_left = 0 <= thr
            n_left = sum(left_counts)
            right_counts = tuple(c - l for c, l in zip(counts_k, left_counts))
            stacks[t] += [(g if not zeros_left else moved, n_k - n_left, right_counts, node, 1),
                          (g if zeros_left else moved, n_left, tuple(left_counts), node, 0)]
        # the rows on the side of each split without the zeros move to the new group
        k = col // max_features
        hit = np.flatnonzero(col == split_col[k])
        k = k[hit]
        moves = (val[hit] <= split_threshold[k]) != (0 <= split_threshold[k])
        flat_group[cell[hit[moves]]] = split_group[k[moves]]
        live = [t for t in live if stacks[t]]
    # views of the typed arrays, not copies, so the forest is held once
    return [Tree(*(np.frombuffer(field, dtype=np.dtype(field.typecode)) for field in fields)) for fields in nodes]


@dataclass
class ForestModel:
    trees: list[Tree]
    n_classes: int


def train_forest(X, y: Sequence[int], n_trees: int, seed: int, rows=None) -> ForestModel:
    """Bootstrap-aggregated Gini trees grown until pure or < 2 samples; each
    split samples isqrt(features) candidate features.

    The forest trains on the rows `rows` of X and y (repeats allowed; all
    rows by default), the same forest as on the copies X[rows], y[rows].
    Each tree draws its bootstrap and feature samples from its own child of
    the master seed. X is a Csc, a Csr or a dense array.
    """
    X = _as_csc(X)
    y = np.asarray(y, dtype=int)
    rows = np.arange(X.shape[0]) if rows is None else np.asarray(rows, dtype=np.intp)
    if rows.shape[0] == 0 or y.shape[0] != X.shape[0]:
        raise ValueError("need a non-empty matrix with one label per row")
    n_classes = int(y[rows].max()) + 1
    max_features = math.isqrt(X.shape[1])

    rngs, samples = _draws(rows, n_trees, seed)
    return ForestModel(trees=_grow_trees(X, y, samples, rngs, max_features, n_classes), n_classes=n_classes)


def _draws(rows: np.ndarray, n_trees: int, seed: int) -> tuple[list[np.random.Generator], list[np.ndarray]]:
    """Each tree's rng, a child of the master seed, and the bootstrap sample
    of `rows` that it draws first, before its feature samples."""
    rngs = [np.random.default_rng(tree_seed) for tree_seed in np.random.SeedSequence(seed).spawn(n_trees)]
    return rngs, [rows[rng.integers(0, rows.shape[0], size=rows.shape[0])] for rng in rngs]


def _tree_predict(tree: Tree, X: Csc) -> np.ndarray:
    """Leaf labels of the rows of X, moving them all down one level per pass
    through a dense block of their values in the tree's split features."""
    inner = tree.left >= 0
    features = np.flatnonzero(np.bincount(tree.feature[inner]))  # np.unique's result, without importing numpy.ma
    at, slot = _postings(X, features)
    values = np.zeros((X.shape[0], features.shape[0]), dtype=X.data.dtype)
    values[X.indices[at], slot] = X.data[at]
    flat = values.reshape(-1)
    column = np.searchsorted(features, tree.feature)  # each split feature's column in values
    node = np.zeros(X.shape[0], dtype=np.intp)
    live = np.arange(X.shape[0] if inner[0] else 0)  # the rows at inner nodes
    at = node[live]
    while live.size:
        go_left = flat[live * features.shape[0] + column[at]] <= tree.threshold[at]
        at = np.where(go_left, tree.left[at], tree.right[at])
        node[live] = at
        down = inner[at]
        live, at = live[down], at[down]
    return tree.label[node]


def predict_forest(model: ForestModel, X, rows=None) -> np.ndarray:
    """Majority vote over trees for the rows `rows` of X (a Csc, a Csr or a
    dense array; all rows by default); ties go to the lowest label index."""
    if not model.trees:
        raise ValueError("empty forest")
    X = _as_csc(X)
    rows = np.arange(X.shape[0]) if rows is None else np.asarray(rows, dtype=np.intp)
    rows, back = np.unique(rows, return_inverse=True)  # each distinct row is predicted once
    X = _take_rows(X, rows)
    votes = np.zeros((X.shape[0], model.n_classes), dtype=int)
    each = np.arange(X.shape[0])
    for tree in model.trees:
        votes[each, _tree_predict(tree, X)] += 1
    return votes.argmax(axis=1)[back]


@dataclass
class PuCandidate:
    p_u: float
    fold_scores: list[float]

    @property
    def mean_macro_f1(self) -> float:
        return float(np.mean(self.fold_scores))


def _cell_forests(X: Csc, y: np.ndarray, fold_of: np.ndarray, n_trees: int, seed: int,
                  cells: Sequence[tuple[float, int]]) -> list[ForestModel]:
    """The forest of each (p_u, fold) cell: `train_forest`'s, with its draws,
    on the other folds rebalanced to p_u.

    The forests of the cells whose training rows have the same top class grow
    in one `_grow_trees` lockstep, which grows each tree as if alone.
    """
    classes, rngs, samples = [], [], []  # per cell
    for p_u, fold in cells:
        train_rows = np.flatnonzero(fold_of != fold)
        rows = train_rows[rebalance(y[train_rows], p_u, seed=seed + fold)]
        classes.append(int(y[rows].max()) + 1)
        cell_rngs, cell_samples = _draws(rows, n_trees, seed + 31 * fold)
        rngs.append(cell_rngs)
        samples.append(cell_samples)
    forests = [None] * len(cells)
    for n_classes in sorted(set(classes)):
        mine = [i for i in range(len(cells)) if classes[i] == n_classes]
        grown = _grow_trees(X, y, [sample for i in mine for sample in samples[i]],
                            [rng for i in mine for rng in rngs[i]], math.isqrt(X.shape[1]), n_classes)
        for j, i in enumerate(mine):
            forests[i] = ForestModel(grown[j * n_trees:(j + 1) * n_trees], n_classes)
    return forests


def _group_scores(X: Csc, y: np.ndarray, fold_of: np.ndarray, n_classes: int, n_trees: int, seed: int,
                  cells: Sequence[tuple[float, int]]) -> list[float]:
    """Macro-F1 on the held-out fold of each (p_u, fold) cell, for its
    `_cell_forests` forest. Each forest is dropped once scored, and the
    bootstrap samples before the first prediction's dense blocks."""
    forests = _cell_forests(X, y, fold_of, n_trees, seed, cells)
    scores = []
    for i, (_, fold) in enumerate(cells):
        forest, forests[i] = forests[i], None
        test_rows = np.flatnonzero(fold_of == fold)
        pred = predict_forest(forest, X, rows=test_rows)
        scores.append(prf_macro(confusion(y[test_rows], pred, n_classes)).macro_f1)
    return scores


def cv_folds(n: int, folds: int, seed: int) -> np.ndarray:
    """The CV fold of each of n rows: a seeded shuffle of the rows, dealt out in turn."""
    fold_of = np.empty(n, dtype=int)
    fold_of[np.random.default_rng(seed).permutation(n)] = np.arange(n) % folds
    return fold_of


def cv_select_pu(
    X,
    y: Sequence[int],
    grid: Sequence[float],
    folds: int,
    n_trees: int,
    seed: int,
) -> tuple[float, list[PuCandidate]]:
    """Pick the resampling fraction by k-fold CV of the random forest.

    Only the training folds are rebalanced; scores are macro-F1 on the
    untouched held-out fold. Ties go to the smaller p_u. X is a Csc, a Csr
    or a dense array, made a Csc once; each lockstep and prediction copies
    its rows of it. The folds are `cv_folds(len(y), folds, seed)`.

    The (p_u, fold) cells are dealt in turn into groups, at least one per
    usable core and enough that a group holds at most LOCKSTEP_TREES trees
    (or one cell); each forked worker grows a group's forests in one lockstep
    and scores each cell with its own trees. The workers share the Csc through
    the fork and are joined before this returns. Every tree is the one
    `train_forest` grows for its cell, so the scores depend neither on the
    grouping nor on the worker count.
    """
    X = _as_csc(X)
    y = np.asarray(y, dtype=int)
    n = y.shape[0]
    n_classes = int(y.max()) + 1
    if n // folds < n_classes:
        raise ValueError(f"folds of ~{n // folds} rows cannot cover {n_classes} classes")

    fold_of = cv_folds(n, folds, seed)
    cells = [(p_u, fold) for p_u in grid for fold in range(folds)]
    per_group = max(1, LOCKSTEP_TREES // n_trees)
    n_groups = min(len(cells), max(pool._usable_cores(), math.ceil(len(cells) / per_group)))
    groups = [cells[g::n_groups] for g in range(n_groups)]
    # the groups never call BLAS (bincount, lexsort and cumsum), as forked_map requires
    by_group = list(pool.forked_map(partial(_group_scores, X, y, fold_of, n_classes, n_trees, seed), groups))
    scores = [by_group[i % n_groups][i // n_groups] for i in range(len(cells))]
    candidates = [PuCandidate(p_u=float(p_u), fold_scores=scores[i * folds:(i + 1) * folds])
                  for i, p_u in enumerate(grid)]

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
