"""Class rebalancing: interpolated over/under-sampling controlled by p_u.

p_u = 1 undersamples every class down to the minority count, p_u = 0
oversamples up to the majority count; values between interpolate linearly.
"""

import math
from collections import defaultdict
from typing import Hashable, Sequence

import numpy as np


def target_count(counts: dict[Hashable, int], p_u: float) -> int:
    """Common per-class size: round(min + (1 - p_u) * (max - min)).

    Rounds half away from zero so results don't depend on the platform's
    banker's rounding.
    """
    if not 0.0 <= p_u <= 1.0:
        raise ValueError(f"p_u must be in [0, 1], got {p_u}")
    if len(counts) < 2:
        raise ValueError("need at least two classes to rebalance")
    if any(c < 1 for c in counts.values()):
        raise ValueError("every class count must be >= 1")
    lo = min(counts.values())
    hi = max(counts.values())
    return int(math.floor(lo + (1.0 - p_u) * (hi - lo) + 0.5))


def rebalance(labels: Sequence[Hashable], p_u: float, seed: int) -> np.ndarray:
    """Row positions that resample `labels` so every class has exactly the
    target count.

    Classes above target are subsampled uniformly without replacement; classes
    below keep every row once and add uniform-with-replacement duplicates. The
    positions are shuffled deterministically by `seed`.
    """
    by_class: dict[Hashable, list[int]] = defaultdict(list)
    for row, label in enumerate(labels):
        by_class[label].append(row)
    target = target_count({label: len(rows) for label, rows in by_class.items()}, p_u)

    rng = np.random.default_rng(seed)
    chosen = []
    for label in sorted(by_class, key=str):
        rows = np.asarray(by_class[label])
        n = len(rows)
        if n > target:
            rows = rng.choice(rows, size=target, replace=False)
        elif n < target:
            rows = np.concatenate([rows, rng.choice(rows, size=target - n, replace=True)])
        chosen.append(rows)
    return np.concatenate(chosen)[rng.permutation(target * len(chosen))]


def resample_report(
    before: dict[Hashable, int], after: dict[Hashable, int]
) -> list[tuple[str, int, int]]:
    """Rows (class, before, after) sorted by class name, for the TSV report."""
    labels = sorted(set(before) | set(after), key=str)
    return [(str(lbl), before.get(lbl, 0), after.get(lbl, 0)) for lbl in labels]
