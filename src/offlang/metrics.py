"""Confusion matrices and per-class precision/recall/F1 with macro averaging."""

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)


def confusion(y_true: Sequence[int], y_pred: Sequence[int], k: int) -> np.ndarray:
    """k x k count matrix, rows = true class, columns = predicted class."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same length")
    matrix = np.zeros((k, k), dtype=int)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


@dataclass
class MetricsReport:
    confusion: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_f1: float
    class_names: list[str] = field(default_factory=list)

    def as_rows(self) -> list[tuple[str, float, float, float]]:
        names = self.class_names or [str(i) for i in range(len(self.f1))]
        return [
            (names[i], float(self.precision[i]), float(self.recall[i]), float(self.f1[i]))
            for i in range(len(self.f1))
        ]

    def format_table(self) -> str:
        """Aligned text table mirroring the per-class metrics layout."""
        rows = self.as_rows()
        width = max([len("class")] + [len(name) for name, *_ in rows])
        lines = [f"{'class':<{width}}  precision  recall  f1"]
        for name, p, r, f in rows:
            lines.append(f"{name:<{width}}  {p:9.4f}  {r:6.4f}  {f:6.4f}")
        lines.append(f"macro-F1: {self.macro_f1:.4f}")
        return "\n".join(lines)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("class,precision,recall,f1\n")
            for name, p, r, f in self.as_rows():
                fh.write(f"{name},{p:.6f},{r:.6f},{f:.6f}\n")
            fh.write(f"macro,,,{self.macro_f1:.6f}\n")


def _safe_divide(num: np.ndarray, den: np.ndarray, what: str) -> np.ndarray:
    out = np.zeros_like(num, dtype=float)
    zero = den == 0
    if zero.any():
        logger.warning("%s undefined for class(es) %s; reporting 0", what, np.flatnonzero(zero).tolist())
    out[~zero] = num[~zero] / den[~zero]
    return out


def prf_macro(
    confusion_matrix: np.ndarray, class_names: Optional[Sequence[str]] = None
) -> MetricsReport:
    """Per-class precision/recall/F1 and the macro-averaged F1.

    Zero denominators yield 0 for the metric (with a logged warning), which
    matters for tiny classes that a model can miss entirely.
    """
    cm = np.asarray(confusion_matrix)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.shape[0] < 2:
        raise ValueError("confusion matrix must be square with k >= 2")
    tp = np.diag(cm).astype(float)
    predicted = cm.sum(axis=0).astype(float)
    actual = cm.sum(axis=1).astype(float)

    precision = _safe_divide(tp, predicted, "precision")
    recall = _safe_divide(tp, actual, "recall")
    f1 = _safe_divide(2 * precision * recall, precision + recall, "f1")
    return MetricsReport(
        confusion=cm,
        precision=precision,
        recall=recall,
        f1=f1,
        macro_f1=float(f1.mean()),
        class_names=list(class_names) if class_names else [],
    )


def accuracy(y_true: Sequence[int], y_pred: Sequence[int]) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise ValueError("empty prediction set")
    return float((y_true == y_pred).mean())
