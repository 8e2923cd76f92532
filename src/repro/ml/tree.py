"""CART decision trees — the paper's downstream model and numeric imputer.

Greedy binary splits chosen by impurity reduction (Gini for
classification, variance for regression), with depth / minimum-samples
stopping rules. A row goes left when its value is ``<=`` the threshold;
NaN always goes right. Split-point candidates are midpoints between
sorted unique feature values, subsampled to ``_MAX_SPLIT_CANDIDATES``
on large columns.

The split search is a segment-sum kernel. Per candidate feature, each
row is assigned the segment between consecutive thresholds that holds
its value (``searchsorted``); one ``bincount`` per statistic and one
``cumsum`` then give the left-side statistics of every threshold at
once: Σy and Σy² of the node-centred target for variance, class counts
for Gini. A node costs O(features · n log thresholds) instead of one
mask and two impurity evaluations per candidate threshold. The winner
is the first best gain in feature, then threshold order; gains within
rounding of the best are rescored from both sides' impurities first, so
exact ties break as a per-threshold scan breaks them. The node impurity
is evaluated once, in :meth:`_BaseDecisionTree._build`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

_MAX_SPLIT_CANDIDATES = 32
#: Width, as a fraction of the node impurity, of the band of near-best
#: gains that :meth:`_BaseDecisionTree._best_split` rescores. Prefix sums
#: round about n · 2.2e-16 of the impurity away from the two-sided
#: evaluation; 1e-9 covers that with room to spare for any node size the
#: repository fits, and genuine gain differences that small are ties.
_TIE_BAND = 1e-9


@dataclass
class _Node:
    feature: int | None = None
    threshold: float | None = None
    left: "_Node | None" = None
    right: "_Node | None" = None
    prediction: Any = None

    def is_leaf(self) -> bool:
        return self.feature is None


class _BaseDecisionTree:
    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        seed: int = 0,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.seed = seed
        self._root: _Node | None = None
        self._rng = np.random.default_rng(seed)

    # -- subclass hooks -------------------------------------------------
    def _leaf_prediction(self, target: np.ndarray) -> Any:
        raise NotImplementedError

    def _impurity(self, target: np.ndarray) -> float:
        raise NotImplementedError

    def _prepare_target(self, target: Sequence[Any]) -> np.ndarray:
        raise NotImplementedError

    def _split_statistics(self, target: np.ndarray) -> Any:
        """Per-row statistics of a node that :meth:`_child_impurity` sums."""
        raise NotImplementedError

    def _child_impurity(
        self,
        statistics: Any,
        segment: np.ndarray,
        n_segments: int,
        keep: np.ndarray,
        n_left: np.ndarray,
    ) -> np.ndarray:
        """Size-weighted child impurity of each kept threshold.

        ``segment`` holds each row's segment (see :meth:`_best_split`),
        ``keep`` the indices of the thresholds to score and ``n_left``
        their left-side row counts; both sides of a kept threshold are
        non-empty, so no division by zero occurs.
        """
        raise NotImplementedError

    # -- API -------------------------------------------------------------
    def fit(self, features: np.ndarray, target: Sequence[Any]):
        """Grow the tree on an (n_samples, n_features) matrix and target."""
        matrix = np.asarray(features, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        prepared = self._prepare_target(target)
        if matrix.shape[0] != prepared.shape[0]:
            raise ValueError("features and target disagree on sample count")
        if matrix.shape[0] == 0:
            raise ValueError("cannot fit on zero samples")
        self._root = self._build(matrix, prepared, depth=0)
        return self

    def predict(self, features: np.ndarray) -> list[Any]:
        """Predict one value per row (1-D input treated as a single row).

        Batched: rows are routed through the tree as index frontiers —
        one vectorized threshold comparison per node over the rows that
        reach it — instead of one Python descent per row. Comparison
        semantics (``<=`` goes left, NaN goes right) and outputs are
        identical to :meth:`_predict_row`.
        """
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        matrix = np.asarray(features, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        out = np.empty(matrix.shape[0], dtype=object)
        frontier: list[tuple[_Node | None, np.ndarray]] = [
            (self._root, np.arange(matrix.shape[0], dtype=np.intp))
        ]
        while frontier:
            node, indices = frontier.pop()
            if indices.size == 0:
                continue
            if node is None or node.is_leaf():
                prediction = None if node is None else node.prediction
                if isinstance(prediction, (list, tuple, np.ndarray)):
                    for i in indices.tolist():
                        out[i] = prediction
                else:
                    out[indices] = prediction
                continue
            left = matrix[indices, node.feature] <= node.threshold
            frontier.append((node.left, indices[left]))
            frontier.append((node.right, indices[~left]))
        return out.tolist()

    def _predict_row(self, row: np.ndarray) -> Any:
        node = self._root
        while node is not None and not node.is_leaf():
            if row[node.feature] <= node.threshold:
                node = node.left
            else:
                node = node.right
        return node.prediction if node is not None else None

    def depth(self) -> int:
        """Actual depth of the fitted tree (leaf-only tree has depth 0)."""

        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf():
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)

    # -- construction ----------------------------------------------------
    def _build(self, matrix: np.ndarray, target: np.ndarray, depth: int) -> _Node:
        node = _Node(prediction=self._leaf_prediction(target))
        if depth >= self.max_depth or len(target) < self.min_samples_split:
            return node
        impurity = self._impurity(target)
        if impurity == 0.0:
            return node
        split = self._best_split(matrix, target, impurity)
        if split is None:
            return node
        feature, threshold, left_mask = split
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(matrix[left_mask], target[left_mask], depth + 1)
        node.right = self._build(matrix[~left_mask], target[~left_mask], depth + 1)
        return node

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        return self._rng.choice(n_features, size=self.max_features, replace=False)

    def _best_split(
        self, matrix: np.ndarray, target: np.ndarray, parent_impurity: float
    ) -> tuple[int, float, np.ndarray] | None:
        n = len(target)
        statistics = self._split_statistics(target)
        # (feature, kept thresholds, their gains, best gain) per feature.
        scored: list[tuple[int, np.ndarray, np.ndarray, float]] = []
        for feature in self._candidate_features(matrix.shape[1]):
            column = matrix[:, feature]
            values = np.unique(column[~np.isnan(column)])
            if len(values) < 2:
                continue
            thresholds = (values[:-1] + values[1:]) / 2.0
            if len(thresholds) > _MAX_SPLIT_CANDIDATES:
                picks = np.linspace(
                    0, len(thresholds) - 1, _MAX_SPLIT_CANDIDATES
                ).astype(int)
                thresholds = thresholds[picks]
            # Row i goes left of threshold j exactly when segment[i] <= j;
            # NaN sorts past every threshold, so it always goes right.
            segment = np.searchsorted(thresholds, column, side="left")
            n_segments = len(thresholds) + 1
            n_left = np.bincount(segment, minlength=n_segments).cumsum()[:-1]
            keep = np.flatnonzero(
                (n_left >= self.min_samples_leaf)
                & (n - n_left >= self.min_samples_leaf)
            )
            if keep.size == 0:
                continue
            gains = parent_impurity - self._child_impurity(
                statistics, segment, n_segments, keep, n_left[keep]
            )
            scored.append((int(feature), thresholds[keep], gains, gains.max()))
        if not scored:
            return None
        # Gains within the kernel's rounding of the best are rescored from
        # both sides' impurities, so exact ties (often one partition
        # reached through several features) break as a per-threshold scan
        # breaks them: the first in feature, then threshold order.
        floor = max(peak for *_, peak in scored) - _TIE_BAND * parent_impurity
        ties = [
            (feature, float(thresholds[j]), float(gains[j]))
            for feature, thresholds, gains, peak in scored
            if peak >= floor
            for j in np.flatnonzero(gains >= floor).tolist()
        ]
        if len(ties) > 1:
            ties = [
                (f, t, self._split_gain(matrix, target, f, t, parent_impurity))
                for f, t, _ in ties
            ]
        best_gain = -1.0
        best: tuple[int, float] | None = None
        for feature, threshold, gain in ties:
            # Zero-gain splits are accepted (CART behaviour): they can
            # unlock informative splits deeper down, e.g. XOR targets.
            if gain > best_gain + 1e-15:
                best_gain = gain
                best = (feature, threshold)
        if best is None or best_gain < -1e-12:
            return None
        feature, threshold = best
        return feature, threshold, matrix[:, feature] <= threshold

    def _split_gain(
        self,
        matrix: np.ndarray,
        target: np.ndarray,
        feature: int,
        threshold: float,
        parent_impurity: float,
    ) -> float:
        """Impurity reduction of one split, from both sides' impurities."""
        left = matrix[:, feature] <= threshold
        n = len(target)
        n_left = int(left.sum())
        child = (
            n_left * self._impurity(target[left])
            + (n - n_left) * self._impurity(target[~left])
        ) / n
        return parent_impurity - child


class DecisionTreeClassifier(_BaseDecisionTree):
    """CART classifier with Gini impurity."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.classes_: list[Any] = []

    def _prepare_target(self, target: Sequence[Any]) -> np.ndarray:
        labels = list(target)
        self.classes_ = sorted(set(labels), key=str)
        index = {label: i for i, label in enumerate(self.classes_)}
        return np.array([index[label] for label in labels], dtype=int)

    def _leaf_prediction(self, target: np.ndarray) -> Any:
        counts = Counter(int(code) for code in target)
        code, _ = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
        return self.classes_[code]

    def _impurity(self, target: np.ndarray) -> float:
        if len(target) == 0:
            return 0.0
        _, counts = np.unique(target, return_counts=True)
        proportions = counts / len(target)
        return float(1.0 - np.sum(proportions**2))

    def _split_statistics(self, target: np.ndarray) -> np.ndarray:
        return target

    def _child_impurity(
        self,
        statistics: np.ndarray,
        segment: np.ndarray,
        n_segments: int,
        keep: np.ndarray,
        n_left: np.ndarray,
    ) -> np.ndarray:
        # Class counts per segment from one bincount over (segment, code)
        # pairs, accumulated into left-side counts per threshold.
        n = len(segment)
        k = len(self.classes_)
        counts = np.bincount(segment * k + statistics, minlength=n_segments * k)
        cumulative = counts.reshape(n_segments, k).cumsum(axis=0)
        left = cumulative[keep]
        right = cumulative[-1] - left
        n_right = n - n_left
        gini_left = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=1)
        return (n_left * gini_left + n_right * gini_right) / n

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Degenerate probabilities from hard leaf predictions."""
        predictions = self.predict(features)
        index = {label: i for i, label in enumerate(self.classes_)}
        proba = np.zeros((len(predictions), len(self.classes_)))
        for row, label in enumerate(predictions):
            proba[row, index[label]] = 1.0
        return proba


class DecisionTreeRegressor(_BaseDecisionTree):
    """CART regressor with variance impurity and mean-leaf prediction."""

    def _prepare_target(self, target: Sequence[Any]) -> np.ndarray:
        return np.asarray(list(target), dtype=float)

    def _leaf_prediction(self, target: np.ndarray) -> float:
        return float(np.mean(target))

    def _impurity(self, target: np.ndarray) -> float:
        if len(target) == 0:
            return 0.0
        return float(np.var(target))

    def _split_statistics(
        self, target: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # Centred on the node mean, so Σy² − (Σy)²/n below does not
        # cancel away the precision.
        centred = target - target.mean()
        return centred, centred * centred

    def _child_impurity(
        self,
        statistics: tuple[np.ndarray, np.ndarray],
        segment: np.ndarray,
        n_segments: int,
        keep: np.ndarray,
        n_left: np.ndarray,
    ) -> np.ndarray:
        # n·var = Σy² − (Σy)²/n on each side of each threshold.
        centred, squared = statistics
        n = len(segment)
        sums = np.bincount(segment, centred, n_segments).cumsum()
        squares = np.bincount(segment, squared, n_segments).cumsum()
        left_sum, left_sq = sums[keep], squares[keep]
        right_sum, right_sq = sums[-1] - left_sum, squares[-1] - left_sq
        n_right = n - n_left
        return (
            left_sq - left_sum**2 / n_left + right_sq - right_sum**2 / n_right
        ) / n
