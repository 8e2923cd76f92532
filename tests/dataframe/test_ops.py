"""Relational operation tests: sort, group-by, join."""

import pytest

from repro.dataframe import (
    DataFrame,
    group_by,
    group_indices,
    join,
    sort_by,
    value_counts_frame,
)


class TestSort:
    def test_sort_numeric(self):
        frame = DataFrame.from_dict({"x": [3, 1, 2]})
        assert sort_by(frame, ["x"]).column("x").values() == [1, 2, 3]

    def test_sort_descending(self):
        frame = DataFrame.from_dict({"x": [3, 1, 2]})
        assert sort_by(frame, ["x"], descending=True).column("x").values() == [3, 2, 1]

    def test_missing_sorts_last(self):
        frame = DataFrame.from_dict({"x": [None, 1, 2]})
        assert sort_by(frame, ["x"]).column("x").values() == [1, 2, None]

    def test_multi_key_stable(self):
        frame = DataFrame.from_dict({"a": [1, 1, 0], "b": ["z", "a", "m"]})
        ordered = sort_by(frame, ["a", "b"])
        assert ordered.column("b").values() == ["m", "a", "z"]

    def test_descending_is_stable_for_duplicate_keys(self):
        """Tied keys keep original row order in both sort directions."""
        frame = DataFrame.from_dict(
            {"k": [1, 1, 2, 2, 1], "tag": ["a", "b", "c", "d", "e"]}
        )
        descending = sort_by(frame, ["k"], descending=True)
        assert descending.column("tag").values() == ["c", "d", "a", "b", "e"]
        ascending = sort_by(frame, ["k"])
        assert ascending.column("tag").values() == ["a", "b", "e", "c", "d"]

    def test_descending_multi_key_stable(self):
        frame = DataFrame.from_dict(
            {
                "a": [1, 1, 1, 0],
                "b": ["x", "y", "x", "z"],
                "tag": ["r0", "r1", "r2", "r3"],
            }
        )
        ordered = sort_by(frame, ["a", "b"], descending=True)
        assert ordered.column("tag").values() == ["r1", "r0", "r2", "r3"]

    def test_descending_missing_sorts_first(self):
        frame = DataFrame.from_dict({"x": [None, 1, 2]})
        assert sort_by(frame, ["x"], descending=True).column("x").values() == [
            None,
            2,
            1,
        ]

    def test_sort_string_column_is_lexicographic(self):
        frame = DataFrame.from_dict({"s": ["pear", "apple", None, "fig"]})
        assert sort_by(frame, ["s"]).column("s").values() == [
            "apple",
            "fig",
            "pear",
            None,
        ]


class TestGroupBy:
    def test_group_indices(self):
        frame = DataFrame.from_dict({"k": ["a", "b", "a"]})
        groups = group_indices(frame, ["k"])
        assert groups[("a",)] == [0, 2]
        assert groups[("b",)] == [1]

    def test_group_by_aggregation(self):
        frame = DataFrame.from_dict({"k": ["a", "b", "a"], "v": [1, 2, 3]})
        result = group_by(frame, ["k"], {"total": ("v", sum)})
        as_map = {
            result.at(i, "k"): result.at(i, "total")
            for i in range(result.num_rows)
        }
        assert as_map == {"a": 4, "b": 2}

    def test_group_by_skips_missing_values_in_agg(self):
        frame = DataFrame.from_dict({"k": ["a", "a"], "v": [None, 3]})
        result = group_by(frame, ["k"], {"total": ("v", sum)})
        assert result.at(0, "total") == 3

    def test_missing_key_grouped_together(self):
        frame = DataFrame.from_dict({"k": [None, None, "a"], "v": [1, 2, 3]})
        result = group_by(frame, ["k"], {"n": ("v", len)})
        counts = {
            result.at(i, "k"): result.at(i, "n") for i in range(result.num_rows)
        }
        assert counts[None] == 2

    def test_named_aggregators(self):
        frame = DataFrame.from_dict(
            {"k": ["a", "b", "a", "a"], "v": [1, 2, 3, None]}
        )
        result = group_by(
            frame,
            ["k"],
            {
                "total": ("v", "sum"),
                "avg": ("v", "mean"),
                "lo": ("v", "min"),
                "hi": ("v", "max"),
                "n": ("v", "count"),
                "head": ("v", "first"),
            },
        )
        by_key = {
            result.at(i, "k"): result.row(i) for i in range(result.num_rows)
        }
        assert by_key["a"]["total"] == 4
        assert by_key["a"]["avg"] == 2.0
        assert by_key["a"]["lo"] == 1
        assert by_key["a"]["hi"] == 3
        assert by_key["a"]["n"] == 2
        assert by_key["a"]["head"] == 1
        assert by_key["b"]["total"] == 2

    def test_all_missing_group_aggregates_to_none(self):
        frame = DataFrame.from_dict({"k": ["a", "a"], "v": [None, None]})
        result = group_by(
            frame, ["k"], {"total": ("v", "sum"), "n": ("v", "count")}
        )
        assert result.at(0, "total") is None
        assert result.at(0, "n") is None

    def test_unknown_named_aggregator_raises(self):
        frame = DataFrame.from_dict({"k": ["a"], "v": [1]})
        with pytest.raises(ValueError):
            group_by(frame, ["k"], {"x": ("v", "median")})

    def test_groups_emitted_in_first_occurrence_order(self):
        frame = DataFrame.from_dict({"k": ["z", "a", "z", "m"], "v": [1, 2, 3, 4]})
        result = group_by(frame, ["k"], {"n": ("v", "count")})
        assert result.column("k").values() == ["z", "a", "m"]


class TestJoin:
    def test_inner_join_basic(self):
        left = DataFrame.from_dict({"k": [1, 2, 3], "l": ["a", "b", "c"]})
        right = DataFrame.from_dict({"k": [2, 3, 4], "r": ["x", "y", "z"]})
        joined = join(left, right, ["k"])
        assert joined.num_rows == 2
        assert joined.column("r").values() == ["x", "y"]

    def test_join_suffixes_overlapping(self):
        left = DataFrame.from_dict({"k": [1], "v": ["l"]})
        right = DataFrame.from_dict({"k": [1], "v": ["r"]})
        joined = join(left, right, ["k"])
        assert joined.column("v_right").values() == ["r"]

    def test_join_multiplies_matches(self):
        left = DataFrame.from_dict({"k": [1, 1]})
        right = DataFrame.from_dict({"k": [1, 1], "r": ["x", "y"]})
        assert join(left, right, ["k"]).num_rows == 4

    def test_missing_keys_never_match(self):
        left = DataFrame.from_dict({"k": [None, 1]})
        right = DataFrame.from_dict({"k": [None, 1], "r": ["x", "y"]})
        joined = join(left, right, ["k"])
        assert joined.num_rows == 1


def test_value_counts_frame():
    frame = DataFrame.from_dict({"c": ["a", "b", "a", "a"]})
    counts = value_counts_frame(frame, "c")
    assert counts.at(0, "c") == "a"
    assert counts.at(0, "count") == 3
