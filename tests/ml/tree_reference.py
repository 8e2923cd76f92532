"""Retained per-threshold reference for the CART split search.

This module preserves the historical split kernel of
:class:`repro.ml.tree._BaseDecisionTree` that the segment-sum kernel
replaced: for every candidate threshold it builds a boolean mask of the
node and calls ``_impurity`` (``np.var`` or ``np.unique``) on both
sides — about two impurity evaluations per candidate threshold.

It is the ground truth for ``tests/ml/test_tree_equivalence.py``, which
pins the segment-sum kernel to identical trees on tie-free data and to
within a tie tolerance on the paper datasets. The candidate set, the
``min_samples_leaf`` rule and the first-max tie-break are shared with
the production kernel; only the scoring differs.
"""

from __future__ import annotations

import numpy as np

from repro.ml import tree
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


class ReferenceSplitMixin:
    """Per-threshold split search, byte-for-byte the historical loop."""

    def _best_split(
        self, matrix: np.ndarray, target: np.ndarray, parent_impurity: float
    ) -> tuple[int, float, np.ndarray] | None:
        n = len(target)
        best_gain = -1.0
        best: tuple[int, float, np.ndarray] | None = None
        for feature in self._candidate_features(matrix.shape[1]):
            column = matrix[:, feature]
            values = np.unique(column[~np.isnan(column)])
            if len(values) < 2:
                continue
            thresholds = (values[:-1] + values[1:]) / 2.0
            if len(thresholds) > tree._MAX_SPLIT_CANDIDATES:
                picks = np.linspace(
                    0, len(thresholds) - 1, tree._MAX_SPLIT_CANDIDATES
                ).astype(int)
                thresholds = thresholds[picks]
            for threshold in thresholds:
                left_mask = column <= threshold
                n_left = int(left_mask.sum())
                if (
                    n_left < self.min_samples_leaf
                    or n - n_left < self.min_samples_leaf
                ):
                    continue
                impurity_left = self._impurity(target[left_mask])
                impurity_right = self._impurity(target[~left_mask])
                child = (n_left * impurity_left + (n - n_left) * impurity_right) / n
                gain = parent_impurity - child
                # Zero-gain splits are accepted (CART behaviour): they can
                # unlock informative splits deeper down, e.g. XOR targets.
                if gain > best_gain + 1e-15:
                    best_gain = gain
                    best = (int(feature), float(threshold), left_mask)
        if best_gain < -1e-12:
            return None
        return best


class ReferenceDecisionTreeRegressor(ReferenceSplitMixin, DecisionTreeRegressor):
    """Variance-impurity CART grown with the per-threshold kernel."""


class ReferenceDecisionTreeClassifier(ReferenceSplitMixin, DecisionTreeClassifier):
    """Gini-impurity CART grown with the per-threshold kernel."""
