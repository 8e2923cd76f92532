"""Relational operations over DataFrames: sort and group-by.

Joins live in :mod:`repro.dataframe.joins`; this module holds the
ordering and grouping kernels they share.

Vectorized contract (the codes-based relational kernels)
--------------------------------------------------------
Every operation here runs on the integer group codes exposed by
:meth:`repro.dataframe.Column.codes` / :meth:`repro.dataframe.DataFrame.column_codes`
instead of per-cell ``frame.at`` loops:

* ``sort_by`` — lexicographic stable argsort over per-column *order
  codes* (codes remapped so their integer order matches the documented
  value order: numbers before strings, missing last). ``descending=True``
  negates each column's codes independently, which reverses the value
  order while keeping ties in original row order (stable). Spilled
  inputs route through the external merge sort in
  :mod:`repro.dataframe.sort` (its planner is the only place that
  choice is made), which reuses these exact order-code semantics per
  run so both plans are bit-identical.
* ``group_indices`` / ``group_by`` — one stable argsort of the composite
  key codes; group boundaries come from code changes in the sorted
  array. Groups are emitted in first-occurrence order (matching the
  historical dict-insertion order) and row lists are ascending. Missing
  key cells group together (``None`` matches ``None``) and are
  represented by the private :data:`_MISSING_KEY` singleton inside key
  tuples — a sentinel no genuine cell value can equal.
* ``group_by`` aggregation — one implementation for every frame: each
  chunk (a monolithic frame is a single chunk) is grouped with the
  kernel above, its groups are registered globally in first-occurrence
  order, and each aggregation folds the chunk into a per-group partial
  state that merges exactly. The common aggregators may be requested by
  name (``"sum"``, ``"mean"``, ``"min"``, ``"max"``, ``"count"``,
  ``"first"``) or by the matching Python builtins
  (``sum``/``min``/``max``/``len``); on numeric, bool, and int64-backed
  columns they run as masked numpy reductions (``bincount`` /
  ``reduceat``) whose results match the pure-Python per-group fold bit
  for bit: float sums carry each group's running total into the next
  chunk's ``bincount``, int sums merge as arbitrary-precision Python
  ints, and min/max keep the first-seen value on ties. Arbitrary
  callables — and named aggregators over object-backed columns — fall
  back to per-group Python lists of the non-missing values in row
  order, with the callback applied at the end. Aggregating an
  all-missing group yields ``None`` for every aggregator, including
  ``count``.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np

from . import types as _types
from .column import Column
from .frame import DataFrame


class _MissingKeySentinel:
    """Private singleton marking a missing cell inside a group-key tuple.

    Cell values are coerced to ``str``/``int``/``float``/``bool``/``None``
    on ingestion, so no genuine value can ever compare equal to this
    sentinel (the historical ``("__missing__",)`` tuple could collide
    with nothing after coercion either, but only by accident — this makes
    the guarantee structural).
    """

    __slots__ = ()
    _instance: "_MissingKeySentinel | None" = None

    def __new__(cls) -> "_MissingKeySentinel":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<missing-key>"


_MISSING_KEY = _MissingKeySentinel()


def _sort_key(value: Any) -> tuple:
    """Total order over heterogenous cell values; missing sorts last.

    Numbers compare exactly (Python int/float comparison is exact even
    beyond float precision), so huge ints never collide.
    """
    if value is None:
        return (2, 0)
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        return (0, value)
    return (1, str(value))


def _order_codes(column: Column) -> np.ndarray:
    """Per-row int64 codes whose integer order equals the value order.

    Equal cells share a code, the codes of distinct values are ordered by
    :func:`_sort_key` (numbers first, then strings, missing last). For
    numeric/bool columns on native numpy backing, :meth:`Column.codes`
    already follows value order; object-backed columns (strings, or int
    columns that overflowed to object) get their first-seen codes
    remapped through a sorted-representatives rank table.
    """
    codes, n_groups = column.codes()
    has_missing = bool(column.mask().any())
    n_valid = n_groups - 1 if has_missing else n_groups
    if n_valid <= 1 or column.values_array().dtype != object:
        return codes
    valid = ~column.mask()
    payload = column.values_array()[valid]
    valid_codes = codes[valid]
    # np.unique returns the sorted distinct codes 0..n_valid-1, so
    # first_index[i] is the first occurrence of code i.
    _, first_index = np.unique(valid_codes, return_index=True)
    representatives = payload[first_index].tolist()
    by_value = sorted(range(n_valid), key=lambda i: _sort_key(representatives[i]))
    rank = np.empty(n_groups, dtype=np.int64)
    rank[np.asarray(by_value, dtype=np.int64)] = np.arange(n_valid, dtype=np.int64)
    if has_missing:
        rank[n_valid] = n_valid
    return rank[codes]


def sort_by(
    frame: DataFrame,
    columns: Sequence[str],
    descending: bool = False,
) -> DataFrame:
    """Return the frame sorted by the given columns (stable).

    Tied keys keep their original row order in both directions:
    ``descending=True`` negates each column's order codes rather than
    reversing the sorted output, so stability is preserved.

    :func:`repro.dataframe.sort.resolve_sort_strategy` picks the plan:
    a spilled input goes through
    :func:`repro.dataframe.sort.external_sort_by`, the spill-aware merge
    sort whose output is a spilled ChunkedFrame; anything else takes the
    dense lexsort below. Both plans are bit-identical — same values,
    order, dtypes — differing only in the output's storage class.
    """
    from .sort import external_sort_by, resolve_sort_strategy

    if resolve_sort_strategy(frame) == "external":
        return external_sort_by(frame, columns, descending=descending)
    n = frame.num_rows
    names = list(columns)
    if n == 0 or not names:
        for name in names:
            frame.column(name)  # preserve KeyError on unknown columns
        return frame.take(np.arange(n, dtype=np.intp))
    keys = [_order_codes(frame.column(name)) for name in names]
    if descending:
        keys = [-key for key in keys]
    # np.lexsort treats its *last* key as primary and is stable.
    order = np.lexsort(tuple(reversed(keys)))
    return frame.take(order)


def _group_layout(
    frame: DataFrame, columns: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared grouping machinery for ``group_indices``/``group_by``.

    Returns ``(order, starts, ends, appearance, first_rows)`` where
    ``order`` is a stable argsort of the composite key codes (so each
    group occupies one slice ``order[starts[g]:ends[g]]`` with ascending
    row indices), ``first_rows[g]`` is the first row of group ``g``, and
    ``appearance`` lists group ids in first-occurrence order.
    """
    n = frame.num_rows
    codes, _ = frame.column_codes(columns, dense=False)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))
    first_rows = order[starts]
    appearance = np.argsort(first_rows, kind="stable")
    return order, starts, ends, appearance, first_rows


def group_indices(
    frame: DataFrame, columns: Sequence[str]
) -> dict[tuple[Hashable, ...], list[int]]:
    """Map each distinct key tuple to the row indices holding it.

    Keys appear in first-occurrence order; row lists are ascending.
    Missing key cells are represented by the private ``_MISSING_KEY``
    singleton inside the tuple (``None`` groups with ``None``).
    """
    names = list(columns)
    if frame.num_rows == 0:
        for name in names:
            frame.column(name)  # preserve KeyError on unknown columns
        return {}
    order, starts, ends, appearance, first_rows = _group_layout(frame, names)
    key_lists = [frame.column(name).values() for name in names]
    groups: dict[tuple[Hashable, ...], list[int]] = {}
    starts_list = starts.tolist()
    ends_list = ends.tolist()
    first_list = first_rows.tolist()
    for g in appearance.tolist():
        first = first_list[g]
        key = tuple(
            _MISSING_KEY if values[first] is None else values[first]
            for values in key_lists
        )
        groups[key] = order[starts_list[g] : ends_list[g]].tolist()
    return groups


# ----------------------------------------------------------------------
# Aggregation dispatch
# ----------------------------------------------------------------------
_FAST_AGG_NAMES = frozenset({"sum", "mean", "min", "max", "count", "first"})

#: Builtin callables recognized as fast aggregators (matched by identity).
_CALLABLE_AGGS: dict[Any, str] = {sum: "sum", len: "count", min: "min", max: "max"}

#: Pure-Python equivalents used when a *named* aggregator cannot take the
#: vectorized path (object-backed column) — each receives the non-missing
#: values of one group in row order.
_NAMED_FALLBACKS: dict[str, Callable[[list[Any]], Any]] = {
    "sum": sum,
    "count": len,
    "min": min,
    "max": max,
    "mean": lambda values: sum(values) / len(values),
    "first": lambda values: values[0],
}


def _resolve_aggregator(func: Any) -> tuple[str | None, Callable | None]:
    """Split an aggregation spec into (fast-path kind, fallback callable)."""
    if isinstance(func, str):
        if func not in _FAST_AGG_NAMES:
            raise ValueError(
                f"unknown aggregator {func!r}; named aggregators are "
                f"{sorted(_FAST_AGG_NAMES)}"
            )
        return func, _NAMED_FALLBACKS[func]
    try:
        kind = _CALLABLE_AGGS.get(func)
    except TypeError:  # unhashable callable
        kind = None
    return kind, func


# ----------------------------------------------------------------------
# Per-group partial states: fold chunk by chunk, merge exactly
# ----------------------------------------------------------------------
def _grown(counts: np.ndarray, n_total: int) -> np.ndarray:
    """``counts`` zero-extended to at least ``n_total`` slots."""
    if len(counts) >= n_total:
        return counts
    grown = np.zeros(n_total, dtype=counts.dtype)
    grown[: len(counts)] = counts
    return grown


class _ListState:
    """Fallback state: per-group Python value lists, callback at the end.

    Values accumulate in global row order and the callback runs per
    group in first-occurrence order at finalize, so a raising callback
    (e.g. ``sum`` over strings) raises at the first group it fails on.
    """

    def __init__(self, callback: Callable[[list[Any]], Any]) -> None:
        self.callback = callback
        self.lists: list[list[Any]] = []

    def _grow(self, n_total: int) -> None:
        while len(self.lists) < n_total:
            self.lists.append([])

    def update(
        self, column: Column, row_gid: np.ndarray, n_total: int
    ) -> None:
        self._grow(n_total)
        lists = self.lists
        for gid, value in zip(row_gid.tolist(), column.values()):
            if value is not None:
                lists[gid].append(value)

    def finalize(self, n_groups: int) -> list[Any]:
        self._grow(n_groups)
        return [
            self.callback(values) if values else None
            for values in self.lists[:n_groups]
        ]


class _CountState:
    def __init__(self) -> None:
        self.counts = np.zeros(0, dtype=np.int64)

    def update(
        self, column: Column, row_gid: np.ndarray, n_total: int
    ) -> None:
        self.counts = _grown(self.counts, n_total)
        valid = ~np.asarray(column.mask())
        self.counts[:n_total] += np.bincount(
            row_gid[valid], minlength=n_total
        )

    def finalize(self, n_groups: int) -> list[Any]:
        self.counts = _grown(self.counts, n_groups)
        return [
            int(count) if count else None
            for count in self.counts[:n_groups].tolist()
        ]


class _FirstState:
    def __init__(self) -> None:
        self.values: dict[int, Any] = {}

    def update(
        self, column: Column, row_gid: np.ndarray, n_total: int
    ) -> None:
        valid_rows = np.flatnonzero(~np.asarray(column.mask()))
        if not len(valid_rows):
            return
        unique_gids, first_index = np.unique(
            row_gid[valid_rows], return_index=True
        )
        firsts = np.asarray(column.values_array())[valid_rows[first_index]]
        for gid, value in zip(unique_gids.tolist(), firsts.tolist()):
            self.values.setdefault(gid, value)

    def finalize(self, n_groups: int) -> list[Any]:
        return [self.values.get(g) for g in range(n_groups)]


class _FloatSumState:
    """Carry-bincount float sums — bit-identical to a row-order fold.

    Each chunk's ``bincount`` re-adds the running per-group sums as
    leading carry weights: carries precede the chunk's elements per bin,
    and ``0.0 + carry == carry`` bitwise because a fold that starts at
    ``+0.0`` can never produce ``-0.0`` — so the addition sequence per
    group equals the left-to-right Python fold exactly.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.running = np.zeros(0, dtype=np.float64)
        self.counts = np.zeros(0, dtype=np.int64)

    def update(
        self, column: Column, row_gid: np.ndarray, n_total: int
    ) -> None:
        self.counts = _grown(self.counts, n_total)
        valid = ~np.asarray(column.mask())
        gids = row_gid[valid]
        self.counts[:n_total] += np.bincount(gids, minlength=n_total)
        values = np.asarray(column.values_array())[valid].astype(
            np.float64, copy=False
        )
        carry_ids = np.arange(len(self.running), dtype=np.int64)
        self.running = np.bincount(
            np.concatenate([carry_ids, gids]),
            weights=np.concatenate([self.running, values]),
            minlength=n_total,
        )

    def finalize(self, n_groups: int) -> list[Any]:
        sums = _grown(self.running, n_groups)[:n_groups].tolist()
        counts = _grown(self.counts, n_groups)[:n_groups].tolist()
        if self.kind == "sum":
            return [s if c else None for s, c in zip(sums, counts)]
        return [s / c if c else None for s, c in zip(sums, counts)]


class _IntSumState:
    """Exact int/bool sums merged as arbitrary-precision Python ints.

    Per-chunk int64 accumulation is exact whenever the chunk's true
    per-group totals fit (intermediate wraparound is modular and
    self-correcting); a float shadow sum flags chunks that might not,
    which then fold in pure Python. Cross-chunk merge is Python-int
    addition, so the final totals equal the exact sums for any
    magnitude; ``mean`` is Python int/int division, correctly rounded
    like ``sum(values) / len(values)``.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.totals: list[int] = []
        self.counts = np.zeros(0, dtype=np.int64)

    def update(
        self, column: Column, row_gid: np.ndarray, n_total: int
    ) -> None:
        self.totals.extend([0] * (n_total - len(self.totals)))
        self.counts = _grown(self.counts, n_total)
        valid = ~np.asarray(column.mask())
        gids = row_gid[valid]
        chunk_counts = np.bincount(gids, minlength=n_total)
        self.counts[:n_total] += chunk_counts
        values = np.asarray(column.values_array())[valid]
        if not len(values):
            return
        if values.dtype == np.bool_:
            values = values.astype(np.int64)
        if values.dtype != object:
            shadow = np.bincount(
                gids, weights=values.astype(np.float64), minlength=1
            )
            if not np.abs(shadow).max() > float(2**62):
                sums = np.zeros(n_total, dtype=np.int64)
                np.add.at(sums, gids, values)
                present = np.flatnonzero(chunk_counts)
                for gid, total in zip(
                    present.tolist(), sums[present].tolist()
                ):
                    self.totals[gid] += total
                return
        for gid, value in zip(gids.tolist(), values.tolist()):
            self.totals[gid] += value

    def finalize(self, n_groups: int) -> list[Any]:
        totals = self.totals + [0] * (n_groups - len(self.totals))
        counts = _grown(self.counts, n_groups)[:n_groups].tolist()
        if self.kind == "sum":
            return [t if c else None for t, c in zip(totals, counts)]
        return [t / c if c else None for t, c in zip(totals, counts)]


class _MinMaxState:
    """Per-chunk ``reduceat`` extrema merged with Python min/max.

    Merging keeps the earlier chunk's value on ties, matching a global
    left-to-right reduction; results are Python scalars of the column's
    type (bool columns yield bools, like Python ``min`` over bools).
    """

    def __init__(self, kind: str, dtype: str) -> None:
        self.kind = kind
        self.dtype = dtype
        self.pick = min if kind == "min" else max
        self.best: dict[int, Any] = {}

    def _merge(self, gids: list[int], values: list[Any]) -> None:
        best = self.best
        pick = self.pick
        for gid, value in zip(gids, values):
            if gid in best:
                best[gid] = pick(best[gid], value)
            else:
                best[gid] = value

    def update(
        self, column: Column, row_gid: np.ndarray, n_total: int
    ) -> None:
        valid = ~np.asarray(column.mask())
        if not valid.any():
            return
        gids = row_gid[valid]
        values = np.asarray(column.values_array())[valid]
        if values.dtype == object:
            self._merge(gids.tolist(), values.tolist())
            return
        if values.dtype == np.bool_:
            values = values.astype(np.int64)
        order = np.argsort(gids, kind="stable")
        sorted_gids = gids[order]
        boundaries = np.flatnonzero(np.diff(sorted_gids)) + 1
        starts = np.concatenate(([0], boundaries))
        ufunc = np.minimum if self.kind == "min" else np.maximum
        reduced = ufunc.reduceat(values[order], starts)
        self._merge(sorted_gids[starts].tolist(), reduced.tolist())

    def finalize(self, n_groups: int) -> list[Any]:
        results = [self.best.get(g) for g in range(n_groups)]
        if self.dtype == _types.BOOL:
            return [None if v is None else bool(v) for v in results]
        return results


def _make_state(dtype: str, kind: str | None, callback: Callable | None):
    if kind is None:
        return _ListState(callback)
    if kind == "count":
        return _CountState()
    if kind == "first":
        return _FirstState()
    if dtype in (_types.INT, _types.FLOAT, _types.BOOL):
        if kind in ("sum", "mean"):
            if dtype == _types.FLOAT:
                return _FloatSumState(kind)
            return _IntSumState(kind)
        return _MinMaxState(kind, dtype)
    return _ListState(callback)


def _first_row_keys(
    chunk: DataFrame, names: Sequence[str], rows: np.ndarray
) -> list[tuple]:
    """Raw key tuples (``None`` for missing) of ``chunk`` at ``rows``."""
    if not names:
        return [()] * len(rows)
    per_column = []
    for name in names:
        column = chunk.column(name)
        values = np.asarray(column.values_array())[rows].tolist()
        missing = np.asarray(column.mask())[rows].tolist()
        per_column.append(
            [None if m else v for v, m in zip(values, missing)]
        )
    return list(zip(*per_column))


def group_by(
    frame: DataFrame,
    columns: Sequence[str],
    aggregations: Mapping[str, tuple[str, Any]],
) -> DataFrame:
    """Group rows and aggregate.

    ``aggregations`` maps output column name to ``(input_column, agg)``
    where ``agg`` is either a callable receiving the list of non-missing
    input values per group (row order) or one of the named fast
    aggregators ``"sum"``/``"mean"``/``"min"``/``"max"``/``"count"``/
    ``"first"``. Groups appear in first-occurrence order; all-missing
    groups aggregate to ``None``.

    Every frame is folded chunk by chunk (a monolithic frame is one
    chunk) into the per-group partial states above, which merge
    exactly, so chunked and spilled inputs give the monolithic result
    bit for bit without densifying any column. Unknown columns and
    aggregators raise in ``aggregations`` order.
    """
    names = list(columns)
    out: dict[str, list[Any]] = {name: [] for name in names}
    out.update({name: [] for name in aggregations})
    for name in names:
        frame.column(name)
    if frame.num_rows == 0:
        for _, (in_name, func) in aggregations.items():
            frame.column(in_name)
            _resolve_aggregator(func)
        return DataFrame.from_dict(out)
    specs: list[tuple[str, str, Any, Any]] = []
    for out_name, (in_name, func) in aggregations.items():
        try:
            column = frame.column(in_name)
            kind, callback = _resolve_aggregator(func)
        except (KeyError, ValueError):
            # Deferred: re-raised in spec order at finalize.
            specs.append((out_name, in_name, func, None))
            continue
        specs.append(
            (out_name, in_name, func, _make_state(column.dtype, kind, callback))
        )
    registry: dict[tuple, int] = {}
    key_values: list[tuple] = []
    for chunk in frame.iter_chunks():
        n = chunk.num_rows
        if n == 0:
            continue
        order, starts, ends, appearance, first_rows = _group_layout(
            chunk, names
        )
        n_local = len(starts)
        gid_of_local = np.empty(n_local, dtype=np.int64)
        raws = _first_row_keys(chunk, names, first_rows[appearance])
        for g, raw in zip(appearance.tolist(), raws):
            key = tuple(
                _MISSING_KEY if value is None else value for value in raw
            )
            gid = registry.get(key)
            if gid is None:
                gid = len(registry)
                registry[key] = gid
                key_values.append(raw)
            gid_of_local[g] = gid
        row_local = np.empty(n, dtype=np.int64)
        row_local[order] = np.repeat(
            np.arange(n_local, dtype=np.int64), ends - starts
        )
        row_gid = gid_of_local[row_local]
        n_total = len(registry)
        for _, in_name, _, state in specs:
            if state is not None:
                state.update(chunk.column(in_name), row_gid, n_total)
    n_groups = len(registry)
    for i, name in enumerate(names):
        out[name] = [key[i] for key in key_values]
    for out_name, in_name, func, state in specs:
        frame.column(in_name)
        _resolve_aggregator(func)
        out[out_name] = state.finalize(n_groups)
    return DataFrame.from_dict(out)


def value_counts_frame(frame: DataFrame, column: str) -> DataFrame:
    """Two-column frame of (value, count) sorted by descending count.

    Ties keep first-occurrence order, matching ``Counter.most_common``.
    """
    col = frame.column(column)
    codes, n_groups = col.codes()
    mask = col.mask()
    valid = ~mask
    if not valid.any():
        return DataFrame.from_dict({column: [], "count": []})
    n_valid_groups = n_groups - 1 if mask.any() else n_groups
    valid_rows = np.flatnonzero(valid)
    valid_codes = codes[valid_rows]
    counts = np.bincount(valid_codes, minlength=n_valid_groups)
    _, first_index = np.unique(valid_codes, return_index=True)
    first_rows = valid_rows[first_index]
    order = np.lexsort((first_rows, -counts))
    values = col.values_array()[first_rows][order].tolist()
    return DataFrame.from_dict(
        {column: values, "count": counts[order].tolist()}
    )
