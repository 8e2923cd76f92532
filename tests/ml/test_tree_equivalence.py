"""Differential equivalence: segment-sum CART split search vs reference.

The production kernel in :mod:`repro.ml.tree` scores all of a feature's
candidate thresholds with one ``bincount`` and one ``cumsum``. The
retained per-threshold loop in ``tree_reference.py`` masks the node for
every threshold and evaluates ``_impurity`` on both sides. Both share
the candidate set, the ``min_samples_leaf`` rule and the first-max
tie-break, so:

* on seeded data without gain ties the two grow **identical** trees —
  same split feature, threshold and leaf value at every node;
* on the paper datasets, where deep nodes often reach one partition
  through several features, the prefix sums round differently from
  ``np.var`` in the last few ulps. The kernel rescores near-tied gains
  the reference's way, so the trees come out identical there too; the
  contract checked is the weaker one a rounding change may need: where
  the trees diverge, the reference's own gain for the split the kernel
  chose is within :data:`TIE_TOLERANCE` of the reference's best gain,
  and every dataset's repair accuracy equals the reference's.
"""

from __future__ import annotations

import numpy as np
import pytest
from tree_reference import (
    ReferenceDecisionTreeClassifier,
    ReferenceDecisionTreeRegressor,
)

from repro.core.quality import accuracy_against
from repro.ingestion import make_dirty
from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.ml import boosting
from repro.repair import MLImputer, ml_imputer

#: A diverging split counts as a tie when the reference scores it within
#: this fraction of the node's impurity of the reference's best gain. The
#: prefix sums round differently from ``np.var`` by a few ulps per
#: accumulated row (about n · 2.2e-16 relative, 5e-13 at the largest
#: paper node); 1e-9 leaves three orders of magnitude of headroom while
#: still rejecting any split that is worse by a real margin.
TIE_TOLERANCE = 1e-9

PAPER_DATASETS = ("nasa", "beers", "hospital", "adult", "flights")


def _assert_identical(tree, reference) -> None:
    stack = [(tree._root, reference._root, "root")]
    while stack:
        mine, theirs, path = stack.pop()
        assert mine.feature == theirs.feature, path
        assert mine.threshold == theirs.threshold, path
        assert mine.prediction == theirs.prediction, path
        if not mine.is_leaf():
            stack.append((mine.left, theirs.left, path + ".L"))
            stack.append((mine.right, theirs.right, path + ".R"))


def _fit_pair(make, reference_make, matrix, target, **kwargs):
    tree = make(**kwargs).fit(matrix, target)
    reference = reference_make(**kwargs).fit(matrix, target)
    return tree, reference


# ----------------------------------------------------------------------
# Tie-free data: identical trees
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("min_samples_leaf", [1, 5])
def test_regressor_identical(seed, min_samples_leaf):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(300, 4))
    target = np.sin(matrix[:, 0]) + matrix[:, 1] * matrix[:, 2]
    target = target + rng.normal(0.0, 0.1, 300)
    tree, reference = _fit_pair(
        DecisionTreeRegressor,
        ReferenceDecisionTreeRegressor,
        matrix,
        target,
        max_depth=8,
        min_samples_leaf=min_samples_leaf,
    )
    assert tree.depth() == 8
    _assert_identical(tree, reference)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("min_samples_leaf", [1, 4])
def test_classifier_identical(seed, min_samples_leaf):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(300, 4))
    score = matrix[:, 0] + 0.5 * matrix[:, 1] ** 2 + rng.normal(0.0, 0.5, 300)
    labels = np.where(score < 0.0, "low", np.where(score < 1.0, "mid", "high"))
    tree, reference = _fit_pair(
        DecisionTreeClassifier,
        ReferenceDecisionTreeClassifier,
        matrix,
        labels.tolist(),
        max_depth=6,
        min_samples_leaf=min_samples_leaf,
    )
    assert tree.depth() >= 4
    _assert_identical(tree, reference)


def test_nan_features_and_repeated_values():
    """NaN always goes right; repeated values collapse candidates."""
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(400, 3))
    matrix[:, 1] = np.round(matrix[:, 1], 1)  # heavy repetition
    matrix[:, 2] = rng.integers(0, 3, 400)  # three distinct values
    matrix[rng.random((400, 3)) < 0.15] = np.nan
    target = np.nan_to_num(matrix[:, 0]) + np.nan_to_num(matrix[:, 1]) ** 2
    target = target + rng.normal(0.0, 0.05, 400)
    tree, reference = _fit_pair(
        DecisionTreeRegressor,
        ReferenceDecisionTreeRegressor,
        matrix,
        target,
        max_depth=7,
    )
    _assert_identical(tree, reference)
    labels = (target > np.median(target)).tolist()
    tree, reference = _fit_pair(
        DecisionTreeClassifier,
        ReferenceDecisionTreeClassifier,
        matrix,
        labels,
        max_depth=7,
    )
    _assert_identical(tree, reference)


def test_threshold_equal_to_a_value_goes_left():
    """A midpoint of adjacent floats rounds onto one of them; rows equal
    to the threshold must still go left, as ``<=`` sends them."""
    low = 1.0
    high = np.nextafter(low, 2.0)
    assert (low + high) / 2.0 in (low, high)
    matrix = np.array([[low], [low], [high], [high], [high]])
    target = [0.0, 0.0, 1.0, 1.0, 1.0]
    tree, reference = _fit_pair(
        DecisionTreeRegressor, ReferenceDecisionTreeRegressor, matrix, target
    )
    _assert_identical(tree, reference)
    assert tree.predict(matrix) == target


def test_subsampled_candidates():
    """More than 32 distinct values: the linspace-picked thresholds."""
    rng = np.random.default_rng(9)
    matrix = np.column_stack(
        [rng.integers(0, 40, 500), rng.normal(size=500), rng.integers(0, 33, 500)]
    ).astype(float)
    target = np.where(matrix[:, 0] > 17, 2.0, -1.0) + 0.3 * matrix[:, 1]
    tree, reference = _fit_pair(
        DecisionTreeRegressor,
        ReferenceDecisionTreeRegressor,
        matrix,
        target,
        max_depth=6,
        min_samples_leaf=3,
    )
    _assert_identical(tree, reference)


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_ties_break_as_the_reference_does(seed):
    """Deep nodes reach one partition through several coded features, so
    their gains tie exactly in the reference. On a target of large scale
    the prefix sums round such gains apart by more than the scan's 1e-15
    margin; the kernel must still pick the reference's split."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 6, size=(300, 4)).astype(float)
    target = 1e4 * (matrix[:, 0] - matrix[:, 1] + rng.normal(0.0, 1.0, 300))
    tree, reference = _fit_pair(
        DecisionTreeRegressor, ReferenceDecisionTreeRegressor, matrix, target
    )
    _assert_identical(tree, reference)


def test_all_nan_and_constant_columns_are_skipped():
    rng = np.random.default_rng(4)
    matrix = np.column_stack(
        [np.full(60, np.nan), np.full(60, 3.0), rng.normal(size=60)]
    )
    target = matrix[:, 2] * 2.0
    tree, reference = _fit_pair(
        DecisionTreeRegressor, ReferenceDecisionTreeRegressor, matrix, target
    )
    _assert_identical(tree, reference)
    assert tree._root.feature == 2


class _ReferenceForestRegressor(RandomForestRegressor):
    def _make_tree(self, seed):
        return ReferenceDecisionTreeRegressor(
            max_depth=self.max_depth, max_features=self.max_features, seed=seed
        )


class _ReferenceForestClassifier(RandomForestClassifier):
    def _make_tree(self, seed):
        return ReferenceDecisionTreeClassifier(
            max_depth=self.max_depth, max_features=self.max_features, seed=seed
        )


@pytest.mark.parametrize(
    "forest, reference_forest",
    [
        (RandomForestRegressor, _ReferenceForestRegressor),
        (RandomForestClassifier, _ReferenceForestClassifier),
    ],
)
def test_forests_with_max_features(forest, reference_forest):
    """Same trees tree by tree: the feature-sampling RNG stream is unchanged."""
    rng = np.random.default_rng(11)
    matrix = rng.normal(size=(200, 6))
    target = matrix[:, 0] - matrix[:, 3] + rng.normal(0.0, 0.2, 200)
    if forest is RandomForestClassifier:
        target = (target > 0).tolist()
    kwargs = dict(n_estimators=5, max_depth=6, max_features=3, seed=3)
    model = forest(**kwargs).fit(matrix, target)
    reference = reference_forest(**kwargs).fit(matrix, target)
    for tree, reference_tree in zip(model._trees, reference._trees):
        _assert_identical(tree, reference_tree)
    assert model.predict(matrix) == reference.predict(matrix)


@pytest.mark.parametrize(
    "make_model", [GradientBoostingRegressor, GradientBoostingClassifier]
)
def test_boosting_residual_targets(monkeypatch, make_model):
    rng = np.random.default_rng(13)
    matrix = rng.normal(size=(200, 3))
    target = matrix[:, 0] ** 2 + matrix[:, 1] + rng.normal(0.0, 0.1, 200)
    if make_model is GradientBoostingClassifier:
        target = np.digitize(target, [0.5, 2.0]).tolist()
    model = make_model(n_estimators=15, seed=2).fit(matrix, target)
    monkeypatch.setattr(
        boosting, "DecisionTreeRegressor", ReferenceDecisionTreeRegressor
    )
    reference = make_model(n_estimators=15, seed=2).fit(matrix, target)
    trees = getattr(model, "_trees", None) or sum(model._ensembles, [])
    reference_trees = getattr(reference, "_trees", None) or sum(
        reference._ensembles, []
    )
    assert len(trees) == len(reference_trees)
    for tree, reference_tree in zip(trees, reference_trees):
        _assert_identical(tree, reference_tree)
    assert model.predict(matrix) == reference.predict(matrix)


def test_fit_raises_no_numpy_warnings():
    """Empty sides are masked before dividing; no invalid/divide errors."""
    rng = np.random.default_rng(21)
    matrix = rng.normal(size=(150, 3))
    matrix[:, 2] = rng.integers(0, 2, 150)
    matrix[rng.random((150, 3)) < 0.1] = np.nan
    target = np.nan_to_num(matrix[:, 0]) + rng.normal(0.0, 0.1, 150)
    with np.errstate(all="raise"):
        DecisionTreeRegressor(max_depth=8).fit(matrix, target)
        DecisionTreeRegressor(max_depth=8, min_samples_leaf=10).fit(matrix, target)
        DecisionTreeClassifier(max_depth=8).fit(matrix, (target > 0).tolist())
        DecisionTreeRegressor(max_depth=4).fit(matrix, np.zeros(150))


# ----------------------------------------------------------------------
# Paper datasets: lockstep walk, ties only, identical repair accuracy
# ----------------------------------------------------------------------


def _recording(base):
    """Subclass of ``base`` that keeps every fitted tree with its data."""
    fitted: list = []

    class Recording(base):
        def fit(self, features, target):
            super().fit(features, target)
            fitted.append((self, np.asarray(features, dtype=float), target))
            return self

    return Recording, fitted


def _lockstep(tree, reference, matrix, target) -> int:
    """Walk both trees over the node data; return the number of tie flips.

    Identical subtrees are compared node by node. At a node where the
    split differs, both choices must be near-tied under the reference's
    own scoring; the subtrees below are then grown from different row
    sets and are not compared.
    """
    flips = 0
    stack = [(tree._root, reference._root, matrix, target)]
    while stack:
        mine, theirs, node_matrix, node_target = stack.pop()
        assert mine.prediction == theirs.prediction
        assert mine.is_leaf() == theirs.is_leaf()
        if mine.is_leaf():
            continue
        if (mine.feature, mine.threshold) != (theirs.feature, theirs.threshold):
            flips += 1
            scale = reference._impurity(node_target)
            best = reference._split_gain(
                node_matrix, node_target, theirs.feature, theirs.threshold, scale
            )
            chosen = reference._split_gain(
                node_matrix, node_target, mine.feature, mine.threshold, scale
            )
            assert abs(best - chosen) <= TIE_TOLERANCE * scale
            continue
        left = node_matrix[:, mine.feature] <= mine.threshold
        stack.append((mine.left, theirs.left, node_matrix[left], node_target[left]))
        stack.append(
            (mine.right, theirs.right, node_matrix[~left], node_target[~left])
        )
    return flips


@pytest.mark.parametrize("name", PAPER_DATASETS)
def test_paper_dataset_trees_and_repairs(monkeypatch, name):
    """The imputer's trees on each paper dataset, and its repair accuracy."""
    bundle = make_dirty(name, seed=7 * 100 + PAPER_DATASETS.index(name))
    cells = set(bundle.mask)
    accuracy = {}
    fitted = {}
    for side, base in (
        ("kernel", DecisionTreeRegressor),
        ("reference", ReferenceDecisionTreeRegressor),
    ):
        recording, fitted[side] = _recording(base)
        monkeypatch.setattr(ml_imputer, "DecisionTreeRegressor", recording)
        repaired = MLImputer().repair(bundle.dirty, cells).apply_to(bundle.dirty)
        accuracy[side] = accuracy_against(repaired, bundle.clean)

    assert accuracy["kernel"] == accuracy["reference"]
    assert fitted["kernel"], "the imputer fitted no tree"
    assert len(fitted["kernel"]) == len(fitted["reference"])
    for (tree, matrix, target), (reference, _, _) in zip(
        fitted["kernel"], fitted["reference"]
    ):
        _lockstep(tree, reference, matrix, np.asarray(target, dtype=float))
