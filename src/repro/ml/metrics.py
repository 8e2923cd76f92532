"""Evaluation metrics for regression, classification, and detection.

These back both the iterative-cleaning scoring function (MSE / F1 per the
paper's §4) and the detection-quality measurements of Figure 3.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Hashable, Iterable, Sequence

import numpy as np


def _as_float_arrays(
    y_true: Sequence[float], y_pred: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    true = np.asarray(list(y_true), dtype=float)
    pred = np.asarray(list(y_pred), dtype=float)
    if true.shape != pred.shape:
        raise ValueError(f"shape mismatch: {true.shape} vs {pred.shape}")
    if true.size == 0:
        raise ValueError("metrics need at least one sample")
    return true, pred


# ----------------------------------------------------------------------
# Regression
# ----------------------------------------------------------------------
def mean_squared_error(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    true, pred = _as_float_arrays(y_true, y_pred)
    return float(np.mean((true - pred) ** 2))


def root_mean_squared_error(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    return float(np.sqrt(mean_squared_error(y_true, y_pred)))


def mean_absolute_error(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    true, pred = _as_float_arrays(y_true, y_pred)
    return float(np.mean(np.abs(true - pred)))


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def accuracy_score(y_true: Sequence[Hashable], y_pred: Sequence[Hashable]) -> float:
    true = list(y_true)
    pred = list(y_pred)
    if len(true) != len(pred):
        raise ValueError("length mismatch")
    if not true:
        raise ValueError("metrics need at least one sample")
    return sum(t == p for t, p in zip(true, pred)) / len(true)


def _binary_counts(
    y_true: Sequence[Hashable], y_pred: Sequence[Hashable], positive: Hashable
) -> tuple[int, int, int]:
    tp = fp = fn = 0
    for t, p in zip(y_true, y_pred):
        if p == positive and t == positive:
            tp += 1
        elif p == positive:
            fp += 1
        elif t == positive:
            fn += 1
    return tp, fp, fn


def precision_score(
    y_true: Sequence[Hashable], y_pred: Sequence[Hashable], positive: Hashable = True
) -> float:
    tp, fp, _ = _binary_counts(list(y_true), list(y_pred), positive)
    return tp / (tp + fp) if tp + fp else 0.0


def recall_score(
    y_true: Sequence[Hashable], y_pred: Sequence[Hashable], positive: Hashable = True
) -> float:
    tp, _, fn = _binary_counts(list(y_true), list(y_pred), positive)
    return tp / (tp + fn) if tp + fn else 0.0


def f1_score(
    y_true: Sequence[Hashable], y_pred: Sequence[Hashable], positive: Hashable = True
) -> float:
    precision = precision_score(y_true, y_pred, positive)
    recall = recall_score(y_true, y_pred, positive)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def macro_f1_score(y_true: Sequence[Hashable], y_pred: Sequence[Hashable]) -> float:
    """Unweighted mean of per-class F1 — the multi-class score used for Beers."""
    true = list(y_true)
    pred = list(y_pred)
    labels = sorted(set(true), key=str)
    if not labels:
        raise ValueError("metrics need at least one sample")
    return float(np.mean([f1_score(true, pred, positive=label) for label in labels]))


def micro_f1_score(y_true: Sequence[Hashable], y_pred: Sequence[Hashable]) -> float:
    true = list(y_true)
    pred = list(y_pred)
    labels = set(true) | set(pred)
    tp = fp = fn = 0
    for label in labels:
        ltp, lfp, lfn = _binary_counts(true, pred, label)
        tp += ltp
        fp += lfp
        fn += lfn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


# ----------------------------------------------------------------------
# Detection (cell-set) metrics — Figure 3 / detection suite
# ----------------------------------------------------------------------
def detection_scores(
    detected: Iterable[Any], actual: Iterable[Any]
) -> dict[str, float]:
    """Precision/recall/F1 of a detected cell set against ground truth."""
    detected_set = set(detected)
    actual_set = set(actual)
    tp = len(detected_set & actual_set)
    precision = tp / len(detected_set) if detected_set else 0.0
    recall = tp / len(actual_set) if actual_set else 0.0
    if precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return {"precision": precision, "recall": recall, "f1": f1}


def class_distribution(labels: Sequence[Hashable]) -> dict[Hashable, float]:
    """Relative frequency of each label."""
    counts = Counter(labels)
    total = sum(counts.values())
    return {label: count / total for label, count in counts.items()}
