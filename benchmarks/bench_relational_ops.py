"""Ablation — vectorized relational kernels vs. row-at-a-time loops.

Times ``sort_by`` / ``group_by`` / inner ``join`` / repair application at
growing row counts, and (at a small size) compares against the retained
row-at-a-time reference to record the speedup the codes-based kernels
deliver on the interactive dashboard's hot path.
"""

from __future__ import annotations

import time

import numpy as np

from repro.dataframe import DataFrame, group_by, join, sort_by
from repro.repair.base import RepairResult

from conftest import print_table

ROW_COUNTS = (5_000, 20_000, 50_000)
REFERENCE_ROWS = 5_000


def _make_frame(n_rows: int) -> DataFrame:
    rng = np.random.default_rng(42)
    values = rng.normal(0.0, 1.0, n_rows)
    return DataFrame.from_dict(
        {
            "value": [
                None if rng.random() < 0.02 else float(v) for v in values
            ],
            "group": [f"g{int(v)}" for v in rng.integers(0, 50, n_rows)],
            "code": [int(v) for v in rng.integers(0, 500, n_rows)],
        }
    )


def _make_right() -> DataFrame:
    return DataFrame.from_dict(
        {
            "code": list(range(500)),
            "label": [f"l{v % 7}" for v in range(500)],
        }
    )


def _timed(fn) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _reference_group_by(frame: DataFrame) -> DataFrame:
    groups: dict = {}
    for i in range(frame.num_rows):
        groups.setdefault(frame.at(i, "group"), []).append(i)
    out: dict = {"group": [], "total": [], "n": []}
    for key, indices in groups.items():
        values = [
            frame.at(i, "value")
            for i in indices
            if frame.at(i, "value") is not None
        ]
        out["group"].append(key)
        out["total"].append(sum(values) if values else None)
        out["n"].append(len(values) if values else None)
    return DataFrame.from_dict(out)


def _reference_join(frame: DataFrame, right: DataFrame) -> int:
    lookup: dict = {}
    for j in range(right.num_rows):
        lookup.setdefault(right.at(j, "code"), []).append(j)
    matches = 0
    for i in range(frame.num_rows):
        matches += len(lookup.get(frame.at(i, "code"), ()))
    return matches


def test_relational_ops_scaling(benchmark):
    right = _make_right()

    def run() -> list[dict]:
        rows = []
        for n_rows in ROW_COUNTS:
            frame = _make_frame(n_rows)
            aggregations = {
                "total": ("value", "sum"),
                "avg": ("value", "mean"),
                "n": ("value", "count"),
            }
            rng = np.random.default_rng(0)
            picked = rng.choice(n_rows, size=n_rows // 5, replace=False)
            repairs = {(int(r), "value"): 0.5 for r in picked}
            result = RepairResult(tool="bench", repairs=repairs)
            rows.append(
                {
                    "rows": n_rows,
                    "sort": _timed(lambda: sort_by(frame, ["group", "code"])),
                    "group_by": _timed(
                        lambda: group_by(frame, ["group"], aggregations)
                    ),
                    "join": _timed(
                        lambda: join(frame, right, ["code"])
                    ),
                    "repair": _timed(lambda: result.apply_to(frame)),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Relational kernels (vectorized) scaling",
        ["rows", "sort [ms]", "group_by [ms]", "join [ms]", "repair [ms]"],
        [
            [
                row["rows"],
                f"{row['sort'] * 1000:.1f}",
                f"{row['group_by'] * 1000:.1f}",
                f"{row['join'] * 1000:.1f}",
                f"{row['repair'] * 1000:.1f}",
            ]
            for row in rows
        ],
    )
    # Roughly linear growth: 10x rows must not cost more than ~50x time.
    for op in ("sort", "group_by", "join", "repair"):
        assert rows[-1][op] < max(rows[0][op], 1e-3) * 50 + 1.0


def test_relational_ops_vs_row_at_a_time(benchmark):
    frame = _make_frame(REFERENCE_ROWS)
    right = _make_right()
    aggregations = {"total": ("value", "sum"), "n": ("value", "count")}

    def run() -> dict:
        return {
            "group_fast": _timed(
                lambda: group_by(frame, ["group"], aggregations)
            ),
            "group_ref": _timed(lambda: _reference_group_by(frame)),
            "join_fast": _timed(lambda: join(frame, right, ["code"])),
            "join_ref": _timed(lambda: _reference_join(frame, right)),
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    group_speedup = result["group_ref"] / max(result["group_fast"], 1e-9)
    join_speedup = result["join_ref"] / max(result["join_fast"], 1e-9)
    print_table(
        f"Vectorized vs row-at-a-time ({REFERENCE_ROWS} rows)",
        ["op", "vectorized [ms]", "reference [ms]", "speedup"],
        [
            [
                "group_by",
                f"{result['group_fast'] * 1000:.1f}",
                f"{result['group_ref'] * 1000:.1f}",
                f"{group_speedup:.1f}x",
            ],
            [
                "inner_join",
                f"{result['join_fast'] * 1000:.1f}",
                f"{result['join_ref'] * 1000:.1f}",
                f"{join_speedup:.1f}x",
            ],
        ],
    )
    benchmark.extra_info["group_by_speedup"] = round(group_speedup, 1)
    benchmark.extra_info["join_speedup"] = round(join_speedup, 1)
    assert group_speedup > 2.0
    assert join_speedup > 2.0