"""Property-based differential harness for the chunk-native relational
operators (:mod:`repro.dataframe.joins`, :mod:`repro.dataframe.sort`).

Seeded random schemas — mixed dtypes, varying null rates, narrow key
cardinalities (forcing collisions), adversarial chunk sizes (1, 2, 257,
n±1) and spilled legs at a 512-byte budget — reach every physical plan
through its *inputs*, never by forcing it: resident inputs join in
``memory``; spilled inputs that are not sorted on the key join
``partitioned`` (the tiny budget spreads them over many partitions);
spilled inputs with a side presorted on the key join ``sortmerge``;
resident frames sort in memory and spilled frames through the external
merge sort. Each case asserts the plan the planner picked, then checks
the result bit-identical to the retained pure-Python reference in
``test_relational_equivalence``: same values, same Python types, same
dtypes, same ordering — and for invalid inputs, the same exception type
on every leg. Out-of-core legs assert residency (inputs and sorted
outputs still spilled, peak resident bytes within budget) *before* any
dense value comparison — a dense access materializes and releases
shards by design, so the order matters.
"""

from __future__ import annotations

import numpy as np
import pytest

import test_relational_equivalence as ref
from repro.dataframe import (
    DataFrame,
    SpillStore,
    external_sort_by,
    group_by,
    is_sorted_on,
    join,
    resolve_join_strategy,
    resolve_sort_strategy,
    sort_by,
    spill_frame,
)
from repro.dataframe.joins import _partition_count

SPILL_BUDGET = 512
KEY_POOL = ("int", "string", "bool", "float", "bigint")
VALUE_COLS = (("v_f", "float"), ("v_s", "string"), ("v_i", "int"))

REFERENCE_JOINS = {
    "inner": ref.reference_inner_join,
    "left": ref.reference_left_join,
    "outer": ref.reference_outer_join,
}


def _random_frame(make_values, seed, n, key_dtypes, prefix=""):
    """Narrow-profile random frame: key columns k0..k(j), value columns.

    ``make_values`` is the shared generator from the ``random_values``
    session fixture — requested as a fixture (not imported from
    ``conftest``) because a bare ``conftest`` module name is ambiguous
    in a whole-repo pytest run.
    """
    rng = np.random.default_rng(seed)
    missing = float(rng.choice([0.0, 0.1, 0.4]))
    data = {}
    for j, dtype in enumerate(key_dtypes):
        data[f"k{j}"] = make_values(rng, dtype, n, missing, "narrow")
    for name, dtype in VALUE_COLS:
        data[prefix + name] = make_values(rng, dtype, n, missing, "narrow")
    return DataFrame.from_dict(data)


def _resident_legs(frame):
    """Monolithic and adversarially chunked copies; nothing spilled."""
    n = frame.num_rows
    return {
        "mono": frame,
        "chunk1": frame.to_chunked(1),
        "chunk2": frame.to_chunked(2),
        "chunk257": frame.to_chunked(257),
        "chunk_n-1": frame.to_chunked(max(1, n - 1)),
        "chunk_n+1": frame.to_chunked(n + 1),
    }


#: Spilled-leg shapes as (chunk_size, budget_bytes): 7-row shards under
#: the 512-byte budget cut one-row runs and force multi-pass merges;
#: 2-row shards under 4 KiB exercise re-slicing across many tiny shards.
SPILLED_SHAPES = ((7, SPILL_BUDGET), (2, 8 * SPILL_BUDGET))
#: The spilled side of a resident × spilled join: a 4 KiB budget still
#: cuts the resident side's external sort into several runs.
MIXED_SHAPE = (7, 8 * SPILL_BUDGET)


def _spill(frame, chunk_size=7, budget=SPILL_BUDGET):
    """A spilled copy in its own store, plus that store.

    All of the leg's columns share the store, so any operator that
    densifies a column un-spills it — caught by
    :func:`_assert_still_spilled` below.
    """
    store = SpillStore(budget_bytes=budget)
    return spill_frame(frame, store, chunk_size=chunk_size), store


def _unsorted(frame, keys):
    """The frame, reversed if it happens to be sorted on ``keys``.

    A sorted frame with two or more distinct keys is strictly decreasing
    once reversed, so it no longer satisfies the sortedness contract.
    Frames with fewer distinct keys are sorted in any order.
    """
    if not is_sorted_on(frame, keys):
        return frame
    return frame.take(np.arange(frame.num_rows - 1, -1, -1))


def _assert_still_spilled(frame, label):
    """The out-of-core contract: reading through an operator must not
    pin a spilled column resident (values_array()/take() would)."""
    if frame.num_rows == 0:
        return  # nothing to spill: empty frames carry plain columns
    for name in frame.column_names:
        assert getattr(frame.column(name), "spilled", False), (label, name)


def _assert_residency(store, frames, label):
    for frame in frames:
        _assert_still_spilled(frame, label)
    stats = store.stats()
    assert stats["peak_resident_bytes"] <= stats["budget_bytes"], label


def _outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 — differential comparison
        return ("raise", type(exc))


def _assert_same_outcome(actual, expected, label):
    assert actual[0] == expected[0], (label, actual, expected)
    if expected[0] == "raise":
        assert actual[1] is expected[1], (label, actual, expected)
    else:
        ref._assert_frames_identical(actual[1], expected[1])


# (seed, n_left, n_right, how-many-key-columns). 300 rows crosses a real
# 257-row chunk boundary; 0/1/2 hit the degenerate frames.
CASES = [
    (0, 0, 5, 1),
    (1, 1, 1, 1),
    (2, 2, 17, 1),
    (3, 19, 0, 2),
    (4, 23, 29, 1),
    (5, 57, 31, 2),
    (6, 44, 44, 3),
    (7, 300, 40, 1),
]


@pytest.mark.parametrize("seed,n_left,n_right,n_keys", CASES)
class TestJoinFuzz:
    def _tables(self, make_values, seed, n_left, n_right, n_keys):
        rng = np.random.default_rng(seed + 10_000)
        key_dtypes = [str(rng.choice(KEY_POOL)) for _ in range(n_keys)]
        left = _random_frame(
            make_values, seed * 31 + 1, n_left, key_dtypes, prefix="l"
        )
        right = _random_frame(
            make_values, seed * 31 + 2, n_right, key_dtypes, prefix="r"
        )
        return left, right, [f"k{j}" for j in range(n_keys)]

    def test_resident_inputs_plan_memory(
        self, random_values, seed, n_left, n_right, n_keys
    ):
        left, right, keys = self._tables(
            random_values, seed, n_left, n_right, n_keys
        )
        left_legs = _resident_legs(left)
        right_legs = _resident_legs(right)
        for how, reference_join in REFERENCE_JOINS.items():
            expected = reference_join(left, right, on=keys)
            for name in left_legs:
                left_leg, right_leg = left_legs[name], right_legs[name]
                plan = resolve_join_strategy(left_leg, right_leg, keys)
                assert plan == "memory", (how, name)
                actual = join(left_leg, right_leg, keys, how=how)
                ref._assert_frames_identical(actual, expected)

    def test_spilled_unsorted_inputs_plan_partitioned(
        self, random_values, seed, n_left, n_right, n_keys
    ):
        left, right, keys = self._tables(
            random_values, seed, n_left, n_right, n_keys
        )
        left, right = _unsorted(left, keys), _unsorted(right, keys)
        # An empty, one-row, or single-key side is sorted in any order,
        # so the planner merges instead; the result must hold either way.
        both_unsorted = not is_sorted_on(left, keys) and not is_sorted_on(
            right, keys
        )
        for how, reference_join in REFERENCE_JOINS.items():
            expected = reference_join(left, right, on=keys)
            # Fresh legs per join: every plan must leave them spilled.
            for pair in ("spilled", "mono×spilled", "spilled×chunk_n-1"):
                left_leg, left_store = (
                    (left, None) if pair == "mono×spilled" else _spill(left)
                )
                right_leg, right_store = (
                    (right.to_chunked(max(1, n_right - 1)), None)
                    if pair == "spilled×chunk_n-1"
                    else _spill(right)
                )
                plan = resolve_join_strategy(left_leg, right_leg, keys)
                label = (how, pair, plan)
                if both_unsorted:
                    assert plan == "partitioned", label
                    store = left_store or right_store
                    if n_left + n_right >= 16:
                        # The tiny budget spreads the keys over several
                        # partitions.
                        assert _partition_count(left, right, store) > 1
                else:
                    assert plan == "sortmerge", label
                actual = join(left_leg, right_leg, keys, how=how)
                for leg, store in (
                    (left_leg, left_store),
                    (right_leg, right_store),
                ):
                    if store is not None:
                        _assert_residency(store, [leg], label)
                ref._assert_frames_identical(actual, expected)

    def test_spilled_presorted_inputs_plan_sortmerge(
        self, random_values, seed, n_left, n_right, n_keys
    ):
        left, right, keys = self._tables(
            random_values, seed, n_left, n_right, n_keys
        )
        # (left, right, spilled shape): each presorted arrangement once,
        # so both spilled shapes meet an external sort of the other side.
        variants = {
            "sorted×unsorted": (
                sort_by(left, keys), _unsorted(right, keys), SPILLED_SHAPES[0]
            ),
            "unsorted×sorted": (
                _unsorted(left, keys), sort_by(right, keys), SPILLED_SHAPES[1]
            ),
            "sorted×sorted": (
                sort_by(left, keys), sort_by(right, keys), SPILLED_SHAPES[0]
            ),
        }
        for variant, (left_in, right_in, shape) in variants.items():
            for how, reference_join in REFERENCE_JOINS.items():
                expected = reference_join(left_in, right_in, on=keys)
                left_leg, left_store = _spill(left_in, *shape)
                right_leg, right_store = _spill(right_in, *shape)
                label = (variant, how)
                plan = resolve_join_strategy(left_leg, right_leg, keys)
                assert plan == "sortmerge", label
                # Membership tests need no sorted output.
                membership = resolve_join_strategy(left_leg, right_leg, None)
                assert membership == "partitioned", label
                actual = join(left_leg, right_leg, keys, how=how)
                _assert_residency(left_store, [left_leg], label)
                _assert_residency(right_store, [right_leg], label)
                ref._assert_frames_identical(actual, expected)

    def test_mixed_residency_presorted_inputs_plan_sortmerge(
        self, random_values, seed, n_left, n_right, n_keys
    ):
        """A spilled presorted side merges with every resident leg.

        The resident unsorted side is external-sorted (as a reduced
        key + row-id frame) through the spilled side's store, so each
        resident shape — monolithic and adversarially chunked — feeds
        the external sort's run generation. The sort does not depend on
        ``how``, so the legs take the join kinds in turn.
        """
        left, right, keys = self._tables(
            random_values, seed, n_left, n_right, n_keys
        )
        unsorted_left, unsorted_right = _unsorted(left, keys), _unsorted(
            right, keys
        )
        sorted_left, sorted_right = sort_by(left, keys), sort_by(right, keys)
        kinds = list(REFERENCE_JOINS)
        resident_lefts = _resident_legs(unsorted_left)
        resident_rights = _resident_legs(unsorted_right)
        for index, name in enumerate(resident_lefts):
            how = kinds[index % len(kinds)]
            reference_join = REFERENCE_JOINS[how]
            spilled_right, right_store = _spill(sorted_right, *MIXED_SHAPE)
            spilled_left, left_store = _spill(sorted_left, *MIXED_SHAPE)
            pairs = {
                "resident×spilled": (
                    resident_lefts[name], spilled_right, right_store,
                    reference_join(unsorted_left, sorted_right, on=keys),
                ),
                "spilled×resident": (
                    spilled_left, resident_rights[name], left_store,
                    reference_join(sorted_left, unsorted_right, on=keys),
                ),
            }
            for pair, (left_leg, right_leg, store, expected) in pairs.items():
                label = (how, pair, name)
                spilled = right_leg if pair == "resident×spilled" else left_leg
                plan = resolve_join_strategy(left_leg, right_leg, keys)
                assert plan == "sortmerge", label
                membership = resolve_join_strategy(left_leg, right_leg, None)
                assert membership == "partitioned", label
                actual = join(left_leg, right_leg, keys, how=how)
                _assert_residency(store, [spilled], label)
                ref._assert_frames_identical(actual, expected)


@pytest.mark.parametrize("seed,n_left,n_right,n_keys", CASES)
class TestExternalSortFuzz:
    """Both sort plans are bit-identical to the in-memory kernel.

    ``ops.sort_by`` on the monolithic frame is the anchor: same values,
    same Python types, same dtypes, same ordering (stability across tie
    groups included — narrow key pools force large tie runs). Spilled
    legs route to the external merge sort and additionally assert
    residency *before* any dense read: input and output still spilled,
    peak resident bytes within budget.
    """

    def _frame_and_keys(self, make_values, seed, n, n_keys):
        rng = np.random.default_rng(seed + 30_000)
        key_dtypes = [str(rng.choice(KEY_POOL)) for _ in range(n_keys)]
        frame = _random_frame(
            make_values, seed * 31 + 4, n, key_dtypes, prefix="l"
        )
        return frame, [f"k{j}" for j in range(n_keys)]

    def test_resident_frames_plan_memory_sort(
        self, random_values, seed, n_left, n_right, n_keys
    ):
        frame, keys = self._frame_and_keys(
            random_values, seed, n_left, n_keys
        )
        for columns in (keys, keys[:1], []):
            for descending in (False, True):
                expected = sort_by(frame, columns, descending=descending)
                for name, leg in _resident_legs(frame).items():
                    assert resolve_sort_strategy(leg) == "memory", name
                    actual = sort_by(leg, columns, descending=descending)
                    ref._assert_frames_identical(actual, expected)

    def test_external_sort_all_legs_bit_identical(
        self, random_values, seed, n_left, n_right, n_keys
    ):
        """``external_sort_by`` also takes resident input directly (the
        sortmerge join sorts a resident reduced frame through it)."""
        frame, keys = self._frame_and_keys(
            random_values, seed, n_left, n_keys
        )
        for columns in (keys, keys[:1], []):
            for descending in (False, True):
                expected = sort_by(frame, columns, descending=descending)
                for name, leg in _resident_legs(frame).items():
                    actual = external_sort_by(
                        leg, columns, descending=descending
                    )
                    ref._assert_frames_identical(actual, expected)

    def test_spilled_frames_plan_external_sort(
        self, random_values, seed, n_left, n_right, n_keys
    ):
        frame, keys = self._frame_and_keys(
            random_values, seed, n_left, n_keys
        )
        for columns in (keys, keys[:1], []):
            for descending in (False, True):
                expected = sort_by(frame, columns, descending=descending)
                for shape in SPILLED_SHAPES:
                    leg, store = _spill(frame, *shape)
                    label = (shape, tuple(columns), descending)
                    if n_left:  # empty frames spill as plain columns
                        assert resolve_sort_strategy(leg) == "external", label
                    actual = sort_by(leg, columns, descending=descending)
                    # Residency first: dense reads release shards.
                    _assert_residency(store, [leg, actual], label)
                    ref._assert_frames_identical(actual, expected)


class TestExternalSortEdges:
    def test_all_none_keys_preserve_input_order(self):
        frame = DataFrame.from_dict(
            {"k": [None] * 9, "v": list(range(9))}
        )
        for descending in (False, True):
            expected = sort_by(frame, ["k"], descending=descending)
            leg, _ = _spill(frame, chunk_size=2)
            actual = sort_by(leg, ["k"], descending=descending)
            _assert_still_spilled(actual, "all-none")
            ref._assert_frames_identical(actual, expected)
            assert actual.column("v").values() == list(range(9))

    def test_unknown_sort_column_raises_keyerror_everywhere(self):
        frame = DataFrame.from_dict({"k": [3, 1, 2]})
        legs = list(_resident_legs(frame).values()) + [_spill(frame)[0]]
        for leg in legs:
            with pytest.raises(KeyError):
                sort_by(leg, ["ghost"])

    def test_is_sorted_probe_does_not_pin_spilled_shards(self):
        """Sortedness probing is a streaming scan: the spilled columns
        must stay spilled and the peak must stay within budget."""
        frame = sort_by(
            DataFrame.from_dict(
                {"k": [5, 1, 4, 1, 3, 2, 2, 5, 0, 4, 1], "v": list(range(11))}
            ),
            ["k"],
        )
        leg, store = _spill(frame, chunk_size=2)
        assert is_sorted_on(leg, ["k"])
        # A failing probe (early False) must not pin shards either.
        assert not is_sorted_on(leg, ["v"])
        _assert_residency(store, [leg], "probe")


@pytest.mark.parametrize("seed,n_left,n_right,n_keys", CASES)
class TestGroupByFuzz:
    def test_grouped_aggregation_all_legs_match_reference(
        self, random_values, seed, n_left, n_right, n_keys
    ):
        rng = np.random.default_rng(seed + 20_000)
        key_dtypes = [str(rng.choice(KEY_POOL)) for _ in range(n_keys)]
        frame = _random_frame(
            random_values, seed * 31 + 3, n_left, key_dtypes, prefix="l"
        )
        keys = [f"k{j}" for j in range(n_keys)]
        spread = lambda values: max(values) - min(values)  # noqa: E731
        aggregations = {
            "f_sum": ("lv_f", "sum"),
            "f_mean": ("lv_f", "mean"),
            "f_min": ("lv_f", min),
            "i_sum": ("lv_i", "sum"),
            "i_max": ("lv_i", "max"),
            "s_count": ("lv_s", "count"),
            "s_first": ("lv_s", "first"),
            "f_spread": ("lv_f", spread),
            "k_n": (keys[0], len),
        }
        expected = ref.reference_group_by(frame, keys, aggregations)
        for name, leg in _resident_legs(frame).items():
            actual = group_by(leg, keys, aggregations)
            ref._assert_frames_identical(actual, expected)
        leg, store = _spill(frame)
        actual = group_by(leg, keys, aggregations)
        _assert_residency(store, [leg], "spilled")
        ref._assert_frames_identical(actual, expected)


def last(values):
    return values[-1]


#: (value dtype, aggregator) pairs, one per partial-state route of
#: ``ops._make_state``: named and builtin-callable aggregators take the
#: count/first/sum/min-max states on numeric columns and the list state
#: on strings; a plain callable always takes the list state. Summing or
#: averaging strings is not defined and is left out.
_STATE_AGGS = ("sum", "mean", "min", "max", "count", "first", sum, len, min, max)
STATE_ROUTES = [
    (dtype, agg)
    for dtype in ("int", "float", "bool", "string")
    for agg in _STATE_AGGS
    if not (dtype == "string" and agg in ("sum", "mean", sum))
] + [("float", last), ("string", last)]


def _route_id(route):
    dtype, agg = route
    return f"{dtype}-{agg if isinstance(agg, str) else agg.__name__ + '()'}"


@pytest.mark.parametrize("route", STATE_ROUTES, ids=_route_id)
class TestGroupByStates:
    """Each partial state gives the reference result on every leg.

    ``group_by`` has one implementation: a monolithic frame folds as a
    single chunk, chunked and spilled frames chunk by chunk, so each
    state's ``update``/``finalize`` pair must be exact across any chunk
    boundary — all-missing groups and 0/1-row chunks included.
    """

    def test_state_matches_reference_on_every_leg(self, random_values, route):
        dtype, agg = route
        rng = np.random.default_rng(40_000 + STATE_ROUTES.index(route))
        n = 300
        frame = DataFrame.from_dict(
            {
                "k": random_values(rng, "int", n, 0.1, "narrow"),
                # 40% missing leaves some groups with no value at all.
                "v": random_values(rng, dtype, n, 0.4, "narrow"),
            }
        )
        aggregations = {"out": ("v", agg)}
        expected = ref.reference_group_by(frame, ["k"], aggregations)
        for name, leg in _resident_legs(frame).items():
            actual = group_by(leg, ["k"], aggregations)
            ref._assert_frames_identical(actual, expected)
        leg, store = _spill(frame)
        actual = group_by(leg, ["k"], aggregations)
        _assert_residency(store, [leg], route)
        ref._assert_frames_identical(actual, expected)


class TestSameExceptionOutcomes:
    """Invalid inputs raise the same exception type on every leg.

    The monolithic engine outcome is the anchor (the pure-Python inner
    reference predates suffix validation); left/outer references carry
    the full validation and are compared directly where they apply.
    """

    def _frame_pair(self):
        left = DataFrame.from_dict(
            {"k": [1, 2, 2, None], "a": ["x", "y", "z", "w"]}
        )
        right = DataFrame.from_dict(
            {"k": [2, 3, None], "a": [1.0, 2.0, 3.0], "a_right": [7, 8, 9]}
        )
        return left, right

    def _leg_outcomes(self, fn_for):
        left, right = self._frame_pair()
        outcomes = {}
        for name in ("mono", "chunk1", "chunk2"):
            left_leg = _resident_legs(left)[name]
            right_leg = _resident_legs(right)[name]
            outcomes[name] = _outcome(fn_for(left_leg, right_leg))
        outcomes["spilled"] = _outcome(
            fn_for(_spill(left, 2)[0], _spill(right, 2)[0])
        )
        return outcomes

    def _assert_all_legs(self, fn_for, reference_fn=None):
        outcomes = self._leg_outcomes(fn_for)
        anchor = outcomes["mono"]
        for name, outcome in outcomes.items():
            _assert_same_outcome(outcome, anchor, name)
        if reference_fn is not None:
            left, right = self._frame_pair()
            _assert_same_outcome(anchor, _outcome(reference_fn), "reference")
        return anchor

    def test_unknown_key_column_raises_keyerror_everywhere(self):
        left, right = self._frame_pair()
        for how in ("inner", "left", "outer"):
            anchor = self._assert_all_legs(
                lambda l, r, how=how: lambda: join(l, r, ["ghost"], how=how),
                reference_fn=lambda how=how: REFERENCE_JOINS[how](
                    left, right, on=["ghost"]
                ),
            )
            assert anchor == ("raise", KeyError)

    def test_suffix_collision_raises_valueerror_everywhere(self):
        left, right = self._frame_pair()
        for how in ("inner", "left", "outer"):
            anchor = self._assert_all_legs(
                lambda l, r, how=how: lambda: join(l, r, ["k"], how=how)
            )
            assert anchor == ("raise", ValueError)
        # The left/outer references validate the suffix identically.
        for how in ("left", "outer"):
            with pytest.raises(ValueError, match="colliding output column"):
                REFERENCE_JOINS[how](left, right, on=["k"])

    def test_unknown_how_raises_valueerror(self):
        left, right = self._frame_pair()
        with pytest.raises(ValueError):
            join(left, right, ["k"], how="anti")

    def test_group_by_bad_specs_raise_everywhere(self):
        frame = DataFrame.from_dict({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
        legs = [frame, frame.to_chunked(1), frame.to_chunked(2),
                _spill(frame, chunk_size=2)[0]]
        for leg in legs:
            with pytest.raises(KeyError):
                group_by(leg, ["ghost"], {"x": ("v", "sum")})
            with pytest.raises(KeyError):
                group_by(leg, ["k"], {"x": ("ghost", "sum")})
            with pytest.raises(ValueError):
                group_by(leg, ["k"], {"x": ("v", "median")})

    def test_callable_exception_surfaces_everywhere(self):
        def explode(values):
            raise RuntimeError("bad aggregator")

        frame = DataFrame.from_dict({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
        for leg in (frame, frame.to_chunked(2)):
            with pytest.raises(RuntimeError, match="bad aggregator"):
                group_by(leg, ["k"], {"x": ("v", explode)})
