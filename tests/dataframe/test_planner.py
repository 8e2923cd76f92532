"""The planner is the only place a physical join or sort plan is chosen.

``resolve_join_strategy`` and ``resolve_sort_strategy`` read two facts
of their inputs — whether a side is spilled, and whether it is already
sorted on the key — and nothing else; the relational fuzz harness
reaches every plan through those facts. This guard checks that no
public entry point lets a caller pick the plan or a partition count.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core.controller import DataLensSession
from repro.dataframe import (
    DataFrame,
    external_sort_by,
    resolve_join_strategy,
    resolve_sort_strategy,
)
from repro.dataframe import joins, ops
from repro.detection.referential import ReferentialIntegrityDetector


#: Every public entry point that runs a join, a sort or a grouped
#: aggregation. None may let a caller pick the physical plan.
ENTRY_POINTS = {
    "DataFrame.join": DataFrame.join,
    "DataFrame.sort_by": DataFrame.sort_by,
    "joins.join": joins.join,
    "joins.semi_join_mask": joins.semi_join_mask,
    "ops.sort_by": ops.sort_by,
    "ops.group_by": ops.group_by,
    "external_sort_by": external_sort_by,
    "resolve_join_strategy": resolve_join_strategy,
    "resolve_sort_strategy": resolve_sort_strategy,
    "ReferentialIntegrityDetector": ReferentialIntegrityDetector.__init__,
    "DataLensSession.check_referential_integrity": (
        DataLensSession.check_referential_integrity
    ),
}

PLAN_PARAMETERS = {"strategy", "n_partitions", "partitions", "plan"}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_no_entry_point_takes_a_plan_argument(name):
    parameters = set(inspect.signature(ENTRY_POINTS[name]).parameters)
    assert not parameters & PLAN_PARAMETERS, (name, parameters)
