from collections import Counter

import numpy as np
import pytest

from offlang import corpus
from offlang.baseline import (
    ForestModel,
    TreeNode,
    _best_split,
    bow_matrix,
    cv_select_pu,
    gini,
    predict_forest,
    train_forest,
)


class TestBowMatrix:
    def test_counts(self):
        vocab = corpus.build_vocab([["a", "b"]])
        X = bow_matrix([["a", "a", "b"]], vocab)
        assert X[0, vocab.index("a")] == 2
        assert X[0, vocab.index("b")] == 1

    def test_empty_document(self):
        vocab = corpus.build_vocab([["a"]])
        assert bow_matrix([[]], vocab).sum() == 0

    def test_unknown_token_ignored(self):
        vocab = corpus.build_vocab([["a"]])
        X = bow_matrix([["zzz", "a"]], vocab)
        assert X.sum() == 1

    def test_column_count_is_vocab_size(self):
        vocab = corpus.build_vocab([["a", "b", "c"]])
        assert bow_matrix([["a"]], vocab).shape == (1, vocab.size)


class TestGini:
    @pytest.mark.parametrize(
        "counts,expected",
        [((5, 5), 0.5), ((10, 0), 0.0), ((1, 2, 3), 11 / 18)],
    )
    def test_values(self, counts, expected):
        assert gini(counts) == pytest.approx(expected)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            counts = rng.integers(0, 20, size=int(rng.integers(2, 5)))
            if counts.sum() == 0:
                continue
            k = (counts > 0).sum()
            g = gini(counts)
            assert 0.0 <= g <= 1.0 - 1.0 / max(k, 1) + 1e-12
            assert (g == 0.0) == (k <= 1)


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
        got = _best_split(X, y, np.array([0]), n_classes=2)
        cost, f, thr = brute_force_best_split(X, y)
        assert got[0] == f
        assert got[1] == pytest.approx(thr)
        assert got[2] == pytest.approx(cost)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_cases_match_exhaustive_search(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, size=(12, 3)).astype(float)
        y = rng.integers(0, 3, size=12)
        got = _best_split(X, y, np.arange(3), n_classes=3)
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
        assert _best_split(X, y, np.arange(2), n_classes=2) is None


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
            train_forest(np.zeros((0, 2)), [], seed=0)

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


class TestPredictVotes:
    @staticmethod
    def _leaf_tree(label, k=2):
        counts = np.zeros(k)
        counts[label] = 1
        return TreeNode(class_counts=counts)

    def test_majority(self):
        forest = ForestModel([self._leaf_tree(1), self._leaf_tree(1), self._leaf_tree(0)], 2, 1, 0)
        assert predict_forest(forest, np.zeros((1, 1))).tolist() == [1]

    def test_tie_goes_to_lowest_label(self):
        forest = ForestModel([self._leaf_tree(0), self._leaf_tree(1)], 2, 1, 0)
        assert predict_forest(forest, np.zeros((1, 1))).tolist() == [0]

    def test_empty_forest(self):
        with pytest.raises(ValueError):
            predict_forest(ForestModel([], 2, 1, 0), np.zeros((1, 1)))


class TestCvSelectPu:
    @staticmethod
    def _balanced_data(seed=0):
        rng = np.random.default_rng(seed)
        X0 = rng.integers(0, 3, size=(30, 6))
        X1 = rng.integers(2, 5, size=(30, 6))
        X = np.vstack([X0, X1]).astype(float)
        y = np.array([0] * 30 + [1] * 30)
        return X, y

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
