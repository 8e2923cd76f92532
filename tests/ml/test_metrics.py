"""Metric correctness tests, cross-checked against closed forms."""

import numpy as np
import pytest

from repro.ml import (
    accuracy_score,
    class_distribution,
    detection_scores,
    f1_score,
    macro_f1_score,
    mean_absolute_error,
    mean_squared_error,
    micro_f1_score,
    precision_score,
    recall_score,
    root_mean_squared_error,
)


class TestRegression:
    def test_mse(self):
        assert mean_squared_error([1, 2, 3], [1, 2, 5]) == pytest.approx(4 / 3)

    def test_rmse(self):
        assert root_mean_squared_error([0, 0], [3, 4]) == pytest.approx(
            np.sqrt(12.5)
        )

    def test_mae(self):
        assert mean_absolute_error([1, 2], [2, 4]) == pytest.approx(1.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mean_squared_error([1], [1, 2])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_squared_error([], [])


class TestClassification:
    def test_accuracy(self):
        assert accuracy_score(["a", "b"], ["a", "a"]) == pytest.approx(0.5)

    def test_precision_recall_f1(self):
        truth = [1, 1, 0, 0, 1]
        pred = [1, 0, 1, 0, 1]
        assert precision_score(truth, pred, positive=1) == pytest.approx(2 / 3)
        assert recall_score(truth, pred, positive=1) == pytest.approx(2 / 3)
        assert f1_score(truth, pred, positive=1) == pytest.approx(2 / 3)

    def test_f1_zero_when_no_positives_predicted(self):
        assert f1_score([1, 1], [0, 0], positive=1) == 0.0

    def test_macro_f1_averages_classes(self):
        truth = ["a", "a", "b", "b"]
        pred = ["a", "a", "a", "b"]
        f1_a = f1_score(truth, pred, positive="a")
        f1_b = f1_score(truth, pred, positive="b")
        assert macro_f1_score(truth, pred) == pytest.approx((f1_a + f1_b) / 2)

    def test_micro_f1_equals_accuracy_single_label(self):
        truth = ["a", "b", "c", "a"]
        pred = ["a", "b", "a", "a"]
        assert micro_f1_score(truth, pred) == pytest.approx(
            accuracy_score(truth, pred)
        )


class TestDetectionScores:
    def test_perfect(self):
        scores = detection_scores({(0, "a")}, {(0, "a")})
        assert scores == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_half_precision(self):
        scores = detection_scores({(0, "a"), (1, "a")}, {(0, "a")})
        assert scores["precision"] == pytest.approx(0.5)
        assert scores["recall"] == pytest.approx(1.0)

    def test_empty_detection(self):
        scores = detection_scores(set(), {(0, "a")})
        assert scores["f1"] == 0.0

    def test_empty_truth(self):
        scores = detection_scores({(0, "a")}, set())
        assert scores["recall"] == 0.0


def test_class_distribution():
    dist = class_distribution(["x", "x", "y", "z"])
    assert dist["x"] == pytest.approx(0.5)
    assert sum(dist.values()) == pytest.approx(1.0)
