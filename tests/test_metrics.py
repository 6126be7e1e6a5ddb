import numpy as np
import pytest
from hypothesis import given, strategies as st

from offlang.metrics import accuracy, confusion, prf_macro


class TestConfusion:
    def test_diagonal(self):
        cm = confusion([0, 1], [0, 1], k=2)
        assert cm.tolist() == [[1, 0], [0, 1]]

    def test_empty(self):
        assert confusion([], [], k=3).tolist() == [[0] * 3] * 3

    def test_off_diagonal(self):
        cm = confusion([1], [0], k=2)
        assert cm.tolist() == [[0, 0], [1, 0]]

    def test_sums_to_n(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 3, size=50)
        y_pred = rng.integers(0, 3, size=50)
        assert confusion(y_true, y_pred, 3).sum() == 50


class TestPrfMacro:
    def test_perfect(self):
        report = prf_macro(confusion([0, 1, 2], [0, 1, 2], 3))
        assert np.allclose(report.precision, 1.0)
        assert np.allclose(report.recall, 1.0)
        assert report.macro_f1 == 1.0

    def test_hand_counted_four_examples(self):
        report = prf_macro(confusion([1, 1, 0, 0], [1, 0, 1, 0], 2))
        assert np.allclose(report.precision, [0.5, 0.5])
        assert np.allclose(report.recall, [0.5, 0.5])
        assert report.macro_f1 == pytest.approx(0.5)

    def test_reported_offensive_row_rates(self):
        # synthetic confusion hitting precision 0.63 and recall 0.67 exactly
        cm = np.array([[5000, 2479], [2079, 4221]])
        report = prf_macro(cm, class_names=["NOT", "OFF"])
        assert report.precision[1] == pytest.approx(0.63)
        assert report.recall[1] == pytest.approx(0.67)
        assert report.f1[1] == pytest.approx(0.65, abs=0.005)

    def test_zero_denominator_warns_and_zeroes(self, caplog):
        cm = np.array([[3, 0], [2, 0]])  # nothing predicted as class 1
        with caplog.at_level("WARNING"):
            report = prf_macro(cm)
        assert report.precision[1] == 0.0
        assert report.f1[1] == 0.0
        assert any("precision" in r.message for r in caplog.records)

    def test_rejects_tiny_matrix(self):
        with pytest.raises(ValueError):
            prf_macro(np.array([[4]]))

    @given(st.permutations([0, 1, 2]))
    def test_macro_f1_permutation_invariant(self, perm):
        rng = np.random.default_rng(5)
        y_true = rng.integers(0, 3, size=120)
        y_pred = rng.integers(0, 3, size=120)
        base = prf_macro(confusion(y_true, y_pred, 3)).macro_f1
        mapped = np.array(perm)
        assert prf_macro(confusion(mapped[y_true], mapped[y_pred], 3)).macro_f1 == pytest.approx(base)

    def test_balanced_symmetric_errors_match_accuracy(self):
        y_true = [0] * 50 + [1] * 50
        y_pred = [0] * 40 + [1] * 10 + [1] * 40 + [0] * 10
        assert prf_macro(confusion(y_true, y_pred, 2)).macro_f1 == pytest.approx(accuracy(y_true, y_pred))


def test_report_table_and_csv(tmp_path):
    report = prf_macro(confusion([0, 1, 1], [0, 1, 0], 2), class_names=["NOT", "OFF"])
    table = report.format_table()
    assert "NOT" in table and "macro-F1" in table
    path = tmp_path / "metrics.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "class,precision,recall,f1"
    assert lines[-1].startswith("macro")


def test_accuracy_empty_errors():
    with pytest.raises(ValueError):
        accuracy([], [])
