import multiprocessing
import sys
from collections import Counter
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from offlang import baseline, corpus, pool
from offlang.baseline import (
    Csr,
    ForestModel,
    Tree,
    _as_csc,
    _best_split,
    _grow_trees,
    _postings,
    _split_search,
    _take_rows,
    bow_matrix,
    cv_select_pu,
    predict_forest,
    train_forest,
)
from offlang.metrics import confusion, prf_macro
from offlang.resample import rebalance


def dense(X):
    """The dense array of the Csr X."""
    out = np.zeros(X.shape, dtype=X.data.dtype)
    out[np.repeat(np.arange(X.shape[0]), np.diff(X.indptr)), X.indices] = X.data
    return out


def row_counts(X, row):
    """{column: count} of one row of the Csr X."""
    span = slice(X.indptr[row], X.indptr[row + 1])
    return dict(zip(X.indices[span].tolist(), X.data[span].tolist()))


class TestBowMatrix:
    def test_counts(self):
        vocab = corpus.build_vocab([["a", "b"]])
        X = bow_matrix([["a", "a", "b"]], vocab)
        assert row_counts(X, 0) == {vocab.index("a"): 2, vocab.index("b"): 1}

    def test_empty_document(self):
        vocab = corpus.build_vocab([["a"]])
        X = bow_matrix([[]], vocab)
        assert X.indptr.tolist() == [0, 0] and X.data.sum() == 0

    def test_unknown_token_ignored(self):
        vocab = corpus.build_vocab([["a"]])
        X = bow_matrix([["zzz", "a"]], vocab)
        assert X.data.sum() == 1

    def test_column_count_is_vocab_size(self):
        vocab = corpus.build_vocab([["a", "b", "c"]])
        assert bow_matrix([["a"]], vocab).shape == (1, vocab.size)

    def test_equals_dense_counting(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(30)]
        docs = [[words[i] for i in rng.integers(0, 30, size=rng.integers(0, 12))] for _ in range(40)]
        vocab = corpus.build_vocab(docs[:25])  # later documents hold unknown words
        expected = np.zeros((len(docs), vocab.size), dtype=np.int32)
        for row, doc in enumerate(docs):
            for tok in doc:
                if tok in vocab.token_to_index:
                    expected[row, vocab.token_to_index[tok]] += 1
        X = bow_matrix(docs, vocab)
        assert X.data.dtype == np.int32 and (X.data > 0).all()
        assert np.array_equal(dense(X), expected)

    def test_memory_grows_with_the_nonzeros(self):
        # dense int32 counts of 3 documents over a million types would take 12 MB
        vocab = SimpleNamespace(size=1_000_000, token_to_index={"a": 2, "b": 500_000, "c": 999_999})
        X = bow_matrix([["a", "b", "a"], ["c"], ["b", "zzz"]], vocab)
        assert X.shape == (3, 1_000_000) and len(X) == 3
        assert X.nbytes == X.indptr.nbytes + X.indices.nbytes + X.data.nbytes < 2**20
        assert [row_counts(X, row) for row in range(3)] == [{2: 2, 500_000: 1}, {999_999: 1}, {500_000: 1}]


class TestCsc:
    @staticmethod
    def assert_same(a, b):
        assert type(a) is type(b) and a.shape == b.shape
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
            assert np.array_equal(x, y) and x.dtype == y.dtype

    def test_from_a_csr_equals_from_the_dense_array(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(40)]
        docs = [[words[i] for i in rng.integers(0, 40, size=rng.integers(0, 9))] for _ in range(30)]
        X = bow_matrix(docs, corpus.build_vocab(docs))
        self.assert_same(_as_csc(X), _as_csc(dense(X)))
        assert len(_as_csc(X)) == 30

    def test_take_rows_equals_the_copied_rows(self):
        rng = np.random.default_rng(4)
        X = rng.poisson(0.5, size=(25, 12)).astype(np.int32)
        rows = np.flatnonzero(rng.random(25) < 0.5)
        self.assert_same(_take_rows(_as_csc(X), rows), _as_csc(X[rows]))

    def test_postings_list_the_columns_in_order(self):
        X = np.array([[0, 3, 0], [1, 0, 2], [0, 4, 5]])
        csc = _as_csc(X)
        at, slot = _postings(csc, np.array([2, 1]))
        assert csc.indices[at].tolist() == [1, 2, 0, 2] and slot.tolist() == [0, 0, 1, 1]
        assert csc.data[at].tolist() == [2, 5, 3, 4]
        at, slot = _postings(csc, np.array([], dtype=np.intp))  # a root-leaf tree has no split features
        assert at.size == slot.size == 0


def brute_force_best_split(X, y):
    """Independent exhaustive enumeration of every feature/threshold split."""

    def impurity(labels):
        n = len(labels)
        return 1.0 - sum((c / n) ** 2 for c in Counter(labels).values())

    best = None
    n = len(y)
    for f in range(X.shape[1]):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left = [y[i] for i in range(n) if X[i, f] <= thr]
            right = [y[i] for i in range(n) if X[i, f] > thr]
            cost = (len(left) * impurity(left) + len(right) * impurity(right)) / n
            if best is None or cost < best[0] - 1e-12:
                best = (cost, f, thr)
    return best


class TestBestSplit:
    def test_six_point_one_dimensional(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([0, 0, 1, 0, 1, 1])
        got = _best_split(X, y, n_classes=2)
        cost, f, thr = brute_force_best_split(X, y)
        assert got[0] == f
        assert got[1] == pytest.approx(thr)
        assert got[2] == pytest.approx(cost)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_cases_match_exhaustive_search(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, size=(12, 3)).astype(float)
        y = rng.integers(0, 3, size=12)
        got = _best_split(X, y, n_classes=3)
        oracle = brute_force_best_split(X, y)
        if oracle is None:
            assert got is None
        else:
            cost, f, thr = oracle
            assert (got[0], got[1]) == (f, pytest.approx(thr))
            assert got[2] == pytest.approx(cost)

    def test_constant_features_give_no_split(self):
        X = np.ones((5, 2))
        y = np.array([0, 1, 0, 1, 0])
        assert _best_split(X, y, n_classes=2) is None


def cube_best_split(X, y, n_classes):
    """`_best_split` with its class counts from a (candidates, classes, n)
    one-hot cube: the reference the cube-free counts must match exactly."""
    n = y.shape[0]
    block = X.T
    varies = np.flatnonzero(block.min(axis=1) != block.max(axis=1))
    if not varies.size:
        return None
    block = block[varies]
    order = np.argsort(block, axis=1, kind="stable")
    sv = np.take_along_axis(block, order, axis=1)
    c, i = np.nonzero(sv[:, 1:] != sv[:, :-1])
    prefix = np.cumsum(y[order][:, None, :] == np.arange(n_classes)[:, None], axis=2)
    left_counts = prefix[c, :, i]
    right_counts = prefix[c, :, -1] - left_counts
    n_left = left_counts.sum(axis=1)
    n_right = n - n_left
    gini_left = 1.0 - ((left_counts / n_left[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - ((right_counts / n_right[:, None]) ** 2).sum(axis=1)
    cost = np.full(sv[:, 1:].shape, np.inf)
    cost[c, i] = (n_left * gini_left + n_right * gini_right) / n
    at = cost.argmin(axis=1)
    best = None
    best_cost = np.inf
    for col, j in enumerate(at):
        if cost[col, j] < best_cost - 1e-12:
            best_cost = float(cost[col, j])
            best = (int(varies[col]), float((sv[col, j] + sv[col, j + 1]) / 2.0), best_cost)
    return best


class TestClassCounts:
    @pytest.mark.parametrize("n_classes", [1, 2, 3, 4])
    def test_match_the_one_hot_cube_exactly(self, n_classes):
        rng = np.random.default_rng(n_classes)
        for case in range(150):
            n = int(rng.integers(2, 40))
            X = rng.integers(0, 4, size=(n, 6))  # few distinct values: ties in every column
            X[:, rng.random(6) < 0.3] = 2  # some constant columns
            if case % 2:
                X = X + rng.normal(size=X.shape) * (rng.random(6) < 0.5)
            else:
                X = X.astype(np.int32)
            # some blocks leave the top classes out, as a node's labels do
            y = rng.integers(0, int(rng.integers(1, n_classes + 1)), size=n)
            assert _best_split(X, y, n_classes) == cube_best_split(X, y, n_classes)


def dense_best_split(X, y, n_classes):
    """The split search over every value of a dense block, sorted in full:
    the reference the nonzeros-only search must match exactly."""
    n = y.shape[0]
    block = X.T
    varies = np.flatnonzero(block.min(axis=1) != block.max(axis=1))
    if not varies.size:
        return None
    block = block[varies]
    order = np.argsort(block, axis=1, kind="stable")
    sv = np.take_along_axis(block, order, axis=1)
    c, i = np.nonzero(sv[:, 1:] != sv[:, :-1])
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
    at = cost.argmin(axis=1)
    best = None
    best_cost = np.inf
    for col, j in enumerate(at):
        if cost[col, j] < best_cost - 1e-12:
            best_cost = float(cost[col, j])
            best = (int(varies[col]), float((sv[col, j] + sv[col, j + 1]) / 2.0), best_cost)
    return best


def random_block(rng, kind):
    """A node block of one of four kinds, with all-zero and all-nonzero constant columns."""
    n, m = int(rng.integers(2, 40)), int(rng.integers(1, 9))
    if kind == "signs":  # few values: ties in every column, zeros on both sides of the split
        X = rng.integers(-2, 3, size=(n, m)) * (rng.random((n, m)) < 0.5) + 0.0
        X[rng.random((n, m)) < 0.2] = -0.0
    elif kind == "normal":
        X = rng.normal(size=(n, m)) * (rng.random((n, m)) < 0.3)
    else:  # "counts" or "bootstrap"
        X = rng.poisson(rng.choice([0.1, 0.7, 2.0]), size=(n, m)).astype(np.int32)
    X[:, rng.random(m) < 0.25] = 0
    X[:, rng.random(m) < 0.15] = rng.choice([-1, 3])
    if kind == "bootstrap":  # rows repeated, as a bootstrap sample's node holds them
        X = X[rng.integers(0, n, size=n)]
    return X


class TestSparseSearch:
    @pytest.mark.parametrize("n_classes", [1, 2, 3, 4])
    def test_equals_the_dense_search(self, n_classes):
        rng = np.random.default_rng(10 + n_classes)
        kinds = ["counts", "signs", "normal", "bootstrap"]
        splits = 0
        for case in range(150):
            X = random_block(rng, kinds[case % 4])
            y = rng.integers(0, int(rng.integers(1, n_classes + 1)), size=X.shape[0])
            expected = dense_best_split(X, y, n_classes)
            assert _best_split(_as_csc(X), y, n_classes) == expected
            splits += expected is not None
        assert splits > 50

    def test_a_later_column_must_win_by_more_than_the_margin(self):
        # column 1's best cost is below column 0's by one rounding step, 5.6e-17
        X = np.array([[0, 1, 1, 2, 0, 1, 0, 2], [0, 0, 0, 0, 1, 0, 0, 1]]).T
        y = np.array([2, 2, 2, 2, 0, 0, 2, 2])
        assert _best_split(X[:, 1:], y, 3)[2] < _best_split(X[:, :1], y, 3)[2]
        assert _best_split(_as_csc(X), y, 3) == dense_best_split(X, y, 3) == (0, 1.5, 1 / 3)

    def test_zeros_sit_between_negatives_and_positives(self):
        X = np.array([[-2.0], [0.0], [-0.0], [1.0], [0.0], [-2.0]])
        y = np.array([1, 0, 0, 1, 0, 1])
        assert _best_split(_as_csc(X), y, 2) == dense_best_split(X, y, 2)
        assert _best_split(_as_csc(X), y, 2)[1] == -1.0


class TestBatchedSearch:
    @pytest.mark.parametrize("n_classes", [1, 2, 3, 4])
    def test_equals_each_node_searched_alone(self, n_classes):
        rng = np.random.default_rng(20 + n_classes)
        kinds = ["counts", "signs", "normal", "bootstrap"]
        splits = 0
        for case in range(60):
            blocks = [random_block(rng, kinds[rng.integers(4)]) for _ in range(rng.integers(2, 7))]
            if case % 3 == 0:
                blocks[rng.integers(len(blocks))][:] = 0  # a node with no entries
            m = max(block.shape[1] for block in blocks)  # every node's columns padded with zeros to m
            blocks = [np.pad(block, ((0, 0), (0, m - block.shape[1]))).astype(float) for block in blocks]
            ys = [rng.integers(0, int(rng.integers(1, n_classes + 1)), size=block.shape[0]) for block in blocks]
            col, val, labels = [], [], []
            for k, (block, y) in enumerate(zip(blocks, ys)):
                rows, cols = np.nonzero(block)
                col.append(k * m + cols)
                val.append(block[rows, cols])
                labels.append(y[rows])
            shuffle = rng.permutation(sum(c.shape[0] for c in col))  # the entries in any order
            found = _split_search(np.concatenate(col)[shuffle], np.concatenate(val)[shuffle],
                                  np.concatenate(labels)[shuffle], np.array([y.shape[0] for y in ys]),
                                  np.array([np.bincount(y, minlength=n_classes) for y in ys]), m)
            for block, y, got in zip(blocks, ys, found, strict=True):
                assert (got and got[:3]) == _best_split(block, y, n_classes)
                if got:
                    column, threshold, _, left_counts = got
                    assert left_counts == np.bincount(y[block[:, column] <= threshold], minlength=n_classes).tolist()
                    splits += 1
        assert splits > 50


class TestLockstep:
    @pytest.mark.parametrize("kind", ["counts", "normal"])
    def test_trees_equal_trees_grown_one_per_call(self, kind):
        rng = np.random.default_rng(8)
        if kind == "counts":
            X = rng.poisson(0.7, size=(90, 25)).astype(np.int32)
        else:  # negative values too, so some splits send the zeros right
            X = rng.normal(size=(90, 25)) * (rng.random((90, 25)) < 0.4)
        y = rng.integers(0, 3, size=90)
        samples = [rng.integers(0, 90, size=90) for _ in range(5)]
        ones = np.flatnonzero(y == 1)
        samples.append(ones[rng.integers(0, ones.shape[0], size=40)])  # a pure bootstrap: its root is a leaf
        samples.append(np.array([7]))
        seeds = np.random.SeedSequence(3).spawn(len(samples))
        X = _as_csc(X)
        together = _grow_trees(X, y, samples, [np.random.default_rng(s) for s in seeds], 5, 3)
        for sample, s, tree in zip(samples, seeds, together, strict=True):
            (alone,) = _grow_trees(X, y, [sample], [np.random.default_rng(s)], 5, 3)
            for f in fields(Tree):
                assert np.array_equal(getattr(tree, f.name), getattr(alone, f.name))
        assert [len(tree.left) for tree in together[5:]] == [1, 1]
        assert min(len(tree.left) for tree in together[:5]) > 30


def dense_walk(tree, row):
    node = 0
    while tree.left[node] >= 0:
        node = tree.left[node] if row[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
    return tree.label[node]


class TestTreePredict:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_dense_indexing(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.poisson(0.4, size=(150, 30)).astype(np.int32)
        X[:, 20:] = 0  # no tree splits on these features
        y = (X[:, :5].sum(axis=1) > X[:, 5:10].sum(axis=1)).astype(int)
        held_out = np.concatenate((rng.integers(0, 100, size=40), np.arange(100, 150)))
        X[120:140] = 0  # empty documents
        X[140:] = 0
        X[140:, 20:] = rng.poisson(2.0, size=(10, 10))  # nonzero in no split feature of any tree
        forest = train_forest(X, y, n_trees=6, seed=seed, rows=np.arange(100))
        for tree in forest.trees:
            assert (tree.left >= 0).any()
            got = predict_forest(ForestModel([tree], forest.n_classes), X, rows=held_out)
            assert got.tolist() == [dense_walk(tree, X[row]) for row in held_out]
            assert (got[-10:] == got[-30]).all()  # rows of zeros in every split feature share a leaf


class TestRowPositions:
    @pytest.mark.parametrize("kind", ["counts", "normal"])
    def test_positions_equal_copies(self, kind):
        rng = np.random.default_rng(5)
        X = rng.poisson(0.7, size=(60, 16)).astype(np.int32) if kind == "counts" else rng.normal(size=(60, 16))
        y = rng.integers(0, 3, size=60)
        rows = rng.integers(0, 60, size=50)
        test = rng.integers(0, 60, size=30)
        assert len(np.unique(rows)) < len(rows) and len(np.unique(test)) < len(test)
        by_position = train_forest(X, y, n_trees=5, seed=7, rows=rows)
        by_copy = train_forest(X[rows], y[rows], n_trees=5, seed=7)
        assert by_position.n_classes == by_copy.n_classes
        for a, b in zip(by_position.trees, by_copy.trees, strict=True):
            for f in fields(Tree):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name))
        assert np.array_equal(predict_forest(by_position, X, rows=test), predict_forest(by_position, X[test]))


class TestForest:
    def test_separable_training_accuracy(self):
        X = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        forest = train_forest(X, y, n_trees=25, seed=0)
        assert np.array_equal(predict_forest(forest, X), y)

    def test_constant_labels(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        y = np.ones(10, dtype=int) * 1
        forest = train_forest(X, y, n_trees=5, seed=0)
        assert (predict_forest(forest, X) == 1).all()

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train_forest(np.zeros((0, 2)), [], n_trees=100, seed=0)

    def test_reproducible_from_seed(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 5))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        p1 = predict_forest(train_forest(X, y, n_trees=15, seed=9), X)
        p2 = predict_forest(train_forest(X, y, n_trees=15, seed=9), X)
        assert np.array_equal(p1, p2)

    def test_two_blob_accuracy_across_seeds(self):
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X0 = rng.normal(0.0, 1.0, size=(100, 2))
            X1 = rng.normal(3.0, 1.0, size=(100, 2))
            X = np.vstack([X0, X1])
            y = np.array([0] * 100 + [1] * 100)
            test0 = rng.normal(0.0, 1.0, size=(50, 2))
            test1 = rng.normal(3.0, 1.0, size=(50, 2))
            forest = train_forest(X, y, n_trees=30, seed=seed)
            pred = predict_forest(forest, np.vstack([test0, test1]))
            acc = (pred == np.array([0] * 50 + [1] * 50)).mean()
            wins += acc >= 0.95
        assert wins >= 9


def forest_case(kind, n_classes, seed):
    """Seeded train/test data: X continuous or Poisson counts, labels from a noisy linear score."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        X = rng.normal(size=(110, 16))
    else:
        X = rng.poisson(0.7, size=(110, 16)).astype(float if kind == "float counts" else np.int32)
    score = X @ rng.normal(size=16) + rng.normal(size=110)
    y = np.digitize(score, np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1]))
    return X[:80], y[:80], X[80:]


# predict_forest(train_forest(X, y, n_trees=7, seed=seed), X_test) of the
# recursive, node-object forest that the flat trees replaced
PINNED_PREDICTIONS = [
    (("normal", 2, 0), "111101001110100100010110110000"),
    (("normal", 2, 1), "000110100001111100010010111110"),
    (("normal", 3, 0), "222211110020120221120220121012"),
    (("normal", 3, 1), "011111101102012100011121122001"),
    (("float counts", 2, 0), "100100101110001000110010100011"),
    (("float counts", 2, 1), "110011111100100101001011001110"),
    (("float counts", 3, 0), "011110202210021002010221110022"),
    (("float counts", 3, 1), "210011112010200122102112002011"),
    (("int32 counts", 2, 0), "100100101110001000110010100011"),
    (("int32 counts", 2, 1), "110011111100100101001011001110"),
    (("int32 counts", 3, 0), "011110202210021002010221110022"),
    (("int32 counts", 3, 1), "210011112010200122102112002011"),
]


class TestFlatTrees:
    @pytest.mark.parametrize("case, expected", PINNED_PREDICTIONS)
    def test_seeded_predictions_pinned(self, case, expected):
        kind, n_classes, seed = case
        X, y, X_test = forest_case(kind, n_classes, seed)
        pred = predict_forest(train_forest(X, y, n_trees=7, seed=seed), X_test)
        assert "".join(map(str, pred)) == expected

    def test_tree_deeper_than_the_recursion_limit(self):
        # each feature is nonzero in one row only, so every split peels off one row
        X = np.eye(800)
        y = np.arange(800) % 2
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(300)
        try:
            forest = train_forest(X, y, n_trees=1, seed=0)
            pred = predict_forest(forest, X)
        finally:
            sys.setrecursionlimit(limit)
        tree = forest.trees[0]
        depth = np.zeros(len(tree.left), dtype=int)
        for node in np.flatnonzero(tree.left >= 0):  # preorder: a parent comes before its children
            depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
        assert depth.max() > 300

        def walk(row):
            node = 0
            while tree.left[node] >= 0:
                node = tree.left[node] if row[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
            return tree.label[node]

        assert pred.tolist() == [walk(row) for row in X]


class TestPredictVotes:
    @staticmethod
    def _leaf_tree(label):
        return Tree(np.array([-1]), np.array([0.0]), np.array([-1]), np.array([-1]), np.array([label]))

    def test_majority(self):
        forest = ForestModel([self._leaf_tree(1), self._leaf_tree(1), self._leaf_tree(0)], 2)
        assert predict_forest(forest, np.zeros((1, 1))).tolist() == [1]

    def test_tie_goes_to_lowest_label(self):
        forest = ForestModel([self._leaf_tree(0), self._leaf_tree(1)], 2)
        assert predict_forest(forest, np.zeros((1, 1))).tolist() == [0]

    def test_empty_forest(self):
        with pytest.raises(ValueError):
            predict_forest(ForestModel([], 2), np.zeros((1, 1)))


class TestCvSelectPu:
    @staticmethod
    def _balanced_data(seed=0):
        rng = np.random.default_rng(seed)
        X0 = rng.integers(0, 3, size=(30, 6))
        X1 = rng.integers(2, 5, size=(30, 6))
        X = np.vstack([X0, X1]).astype(float)
        y = np.array([0] * 30 + [1] * 30)
        return X, y

    @staticmethod
    def _imbalanced_data(seed=5):
        rng = np.random.default_rng(seed)
        y = np.array([0] * 45 + [1] * 15)
        X = rng.poisson(1.0 + y[:, None] * np.linspace(0.0, 2.0, 8), size=(60, 8))
        return X, y

    @staticmethod
    def _serial_candidates(X, y, grid, folds, n_trees, seed):
        """(p_u, fold scores) from the CV loop run cell by cell in this process."""
        n_classes = int(y.max()) + 1
        fold_of = np.empty(len(y), dtype=int)
        fold_of[np.random.default_rng(seed).permutation(len(y))] = np.arange(len(y)) % folds
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
            candidates.append((float(p_u), scores))
        return candidates

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("grid, folds", [([0.5], 2), ([0.0, 0.3, 0.7, 1.0], 3)])
    def test_worker_count_never_changes_the_scores(self, monkeypatch, pools, cores, grid, folds):
        X, y = self._imbalanced_data()
        monkeypatch.setattr(pool, "_usable_cores", lambda: cores)
        _, candidates = cv_select_pu(X, y, grid=grid, folds=folds, n_trees=3, seed=4)
        assert pools == [min(cores, len(grid) * folds)]
        assert [(c.p_u, c.fold_scores) for c in candidates] == self._serial_candidates(X, y, grid, folds, 3, 4)
        assert not multiprocessing.active_children()

    @staticmethod
    def _record_locksteps(monkeypatch, path):
        """Make every `_grow_trees` call, in whichever worker, append its tree
        and class counts to path; return a reader of the sorted (trees, classes)."""
        grow = baseline._grow_trees

        def recording(X, y, samples, rngs, max_features, n_classes):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(f"{len(samples)} {n_classes}\n")
            return grow(X, y, samples, rngs, max_features, n_classes)

        monkeypatch.setattr(baseline, "_grow_trees", recording)  # forked workers inherit the patch
        return lambda: sorted(tuple(map(int, line.split())) for line in path.read_text().splitlines())

    @pytest.mark.parametrize("grid, n_trees, cores, trees_per_call", [
        ([0.0, 0.5, 1.0], 100, 2, [100] * 6),  # default-size cells: one per lockstep, as before grouping
        ([0.0, 0.5, 1.0], 4, 2, [12, 12]),  # small cells: one group of 3 cells per core
        ([0.0, 0.5, 1.0], 4, 1, [24]),
        ([0.0, 0.2, 0.5, 0.8, 1.0], 30, 1, [60, 60, 90, 90]),  # at most LOCKSTEP_TREES trees in a group
    ])
    def test_cells_grow_in_one_lockstep_per_group(self, monkeypatch, tmp_path, grid, n_trees, cores,
                                                  trees_per_call):
        X, y = self._imbalanced_data()
        expected = self._serial_candidates(X, y, grid, 2, n_trees, 4)
        monkeypatch.setattr(pool, "_usable_cores", lambda: cores)
        locksteps = self._record_locksteps(monkeypatch, tmp_path / "locksteps")
        _, candidates = cv_select_pu(X, y, grid=grid, folds=2, n_trees=n_trees, seed=4)
        assert locksteps() == [(trees, 2) for trees in trees_per_call]
        assert [(c.p_u, c.fold_scores) for c in candidates] == expected

    def test_a_group_splits_its_lockstep_by_class_count(self, monkeypatch, tmp_path):
        # task c-like labels: the top class sits in fold 0 alone, so the cells of
        # fold 0 train on two classes and the cells of fold 1 on three
        rng = np.random.default_rng(2)
        fold_of = baseline.cv_folds(60, 2, 3)
        y = (rng.random(60) < 0.4).astype(int)
        y[np.flatnonzero(fold_of == 0)[:6]] = 2
        X = rng.poisson(0.8 + y[:, None] * np.linspace(0.0, 1.0, 10), size=(60, 10))
        expected = self._serial_candidates(X, y, [0.0, 1.0], 2, 3, 3)
        monkeypatch.setattr(pool, "_usable_cores", lambda: 1)  # one group holds every cell
        locksteps = self._record_locksteps(monkeypatch, tmp_path / "locksteps")
        _, candidates = cv_select_pu(X, y, grid=[0.0, 1.0], folds=2, n_trees=3, seed=3)
        assert locksteps() == [(6, 2), (6, 3)]
        assert [(c.p_u, c.fold_scores) for c in candidates] == expected

    def test_a_failing_cell_raises_its_error_and_leaves_no_worker(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(baseline, "rebalance", boom)  # forked workers inherit the patch
        X, y = self._imbalanced_data()
        with pytest.raises(ValueError, match="^boom$"):
            cv_select_pu(X, y, grid=[0.0, 0.5, 1.0], folds=3, n_trees=2, seed=0)
        assert not multiprocessing.active_children()

    def test_balanced_classes_make_pu_inert(self):
        X, y = self._balanced_data()
        best, candidates = cv_select_pu(X, y, grid=[0.0, 0.5, 1.0], folds=3, n_trees=5, seed=1)
        means = {c.mean_macro_f1 for c in candidates}
        assert len(means) == 1  # identical training multiset for every p_u
        assert best == 0.0  # ties resolve to the smallest candidate

    def test_deterministic_repeat(self):
        X, y = self._balanced_data(seed=3)
        _, first = cv_select_pu(X, y, grid=[0.2, 0.8], folds=3, n_trees=5, seed=2)
        _, second = cv_select_pu(X, y, grid=[0.2, 0.8], folds=3, n_trees=5, seed=2)
        assert [(c.p_u, c.fold_scores) for c in first] == [(c.p_u, c.fold_scores) for c in second]

    def test_fold_smaller_than_class_count(self):
        X = np.zeros((6, 2))
        y = np.array([0, 1, 2, 0, 1, 2])
        with pytest.raises(ValueError, match="folds"):
            cv_select_pu(X, y, grid=[0.5], folds=6, n_trees=2, seed=0)


def olid_counts(seed=0, n=13_240, columns=21_000, per_row=22):
    """Seeded counts of OLID's shape: Zipf-like column draws, about 20
    nonzeros per row, and a third of the rows in class 1, which draws some
    of its words from 60 marker columns."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.33).astype(int)
    cdf = np.cumsum(1.0 / np.arange(3, columns + 3) ** 1.1)
    lens = rng.poisson(per_row, size=n)
    row = np.repeat(np.arange(n), lens)
    col = np.searchsorted(cdf, rng.random(lens.sum()) * cdf[-1])
    marked = (y[row] == 1) & (rng.random(row.shape[0]) < 0.15)
    col[marked] = rng.integers(200, 260, size=np.count_nonzero(marked))
    keys, counts = np.unique(row * columns + col, return_counts=True)
    row, col = np.divmod(keys, columns)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return Csr(indptr, col, counts.astype(np.int32), (n, columns)), y


def test_cv_at_olid_size_pinned():
    # row counts and cell indices at real size; the scores were pinned when
    # the forest still read row-major copies of the counts
    X, y = olid_counts()
    assert X.data.shape == (268_293,)
    _, (candidate,) = cv_select_pu(X, y, grid=[0.0], folds=2, n_trees=2, seed=0)
    assert candidate.fold_scores == [0.7184011172754703, 0.7407996383178541]
