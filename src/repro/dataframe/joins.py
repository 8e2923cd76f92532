"""Chunk-native physical join operators.

Joins run chunk by chunk over
:class:`~repro.dataframe.chunked.ChunkedFrame` inputs (spilled shards
stream through the owning :class:`~repro.dataframe.spill.SpillStore`'s
LRU) and only the *result* is densified — query output is monolithic per
the chunking contract, the inputs stay sharded/spilled.

Join plans
----------
:func:`resolve_join_strategy` is the only place a physical plan is
chosen. It looks at two facts about the inputs — is either one spilled,
and is either one already sorted on the key — and nothing a caller sets
changes the choice:

* ``memory`` — resident inputs. The classic joint-codes hash join
  (factorize both key sides together, sort the right side once, probe
  with searchsorted).
* ``partitioned`` — spilled inputs, neither sorted on the key. A
  Grace-style partitioned hash join: each side's chunks are split into
  buckets by an equality-respecting key hash, the buckets spill through
  the inputs' store, bucket pairs are joined independently with the
  same joint-codes kernel, and the per-partition pairs are merged back
  into global row order. Peak residency stays at the store budget.
* ``sortmerge`` — spilled inputs, at least one already sorted on the
  key (the probe is one streaming key scan per side and pins nothing
  resident). The side that is not sorted is sorted out-of-core through
  :func:`repro.dataframe.sort.external_sort_by` (a reduced frame of key
  columns plus a row-id column, so payload columns never move), the
  sorted sides are merged one key run at a time, and the matched pairs
  are mapped back to input row ids. With one side presorted it beats
  ``partitioned`` by about 3× on the ``bench_sort_scale.py`` inputs;
  with neither side sorted it is 6-10× slower on the
  ``bench_join_scale.py`` inputs, which is why it is chosen only when a
  side is presorted.

All plans produce bit-identical results.

Key-hash partitioning invariants
--------------------------------
The partition hash must respect join equality, which follows Python
``==`` (``2 == 2.0 == True`` across numeric columns; strings never equal
numbers). Numeric values therefore hash through their ``float64`` bit
pattern (``+ 0.0`` first, so ``-0.0`` and ``0.0`` — which are equal —
share a hash; ints beyond 2**53 may collide after rounding, which is
harmless: partitioning only requires that *equal* keys land in the same
bucket, never that unequal keys land apart). Huge object-backed ints
that overflow ``float`` hash as ``±inf``. Strings hash by CRC-32 of
their UTF-8 bytes, a domain that can overlap the numeric hashes —
again harmless. Rows with *any* missing key cell are excluded before
partitioning (SQL join semantics: they can never match), so bucket
shards carry no null masks.

Null semantics of left/outer unmatched rows
-------------------------------------------
``how="left"`` keeps every left row; ``how="outer"`` additionally
appends every unmatched right row (in right row order) after all left
rows. Cells drawn from the absent side are missing (``None``) with the
canonical fill value in the backing array, exactly as if constructed
from ``None`` — null-mask-correct, so fingerprints and downstream
kernels see ordinary missing cells. Outer-join key columns are widened
to :func:`repro.dataframe.types.common_dtype` of the two sides; matched
rows keep the *left* key value, right-only rows the right value, each
coerced by the standard :func:`repro.dataframe.types.coerce` lattice.
Rows whose key contains a missing cell never match — a left row with a
null key survives a left/outer join unmatched, and a right row with a
null key appears in the outer result as a right-only row.

Sortedness contract
-------------------
A frame is sorted on the key (:func:`is_sorted_on`) when the sort-key
tuples (:func:`repro.dataframe.ops._sort_key` per cell — numbers before
strings, missing last) of consecutive *distinct* key runs strictly
increase: the order :func:`repro.dataframe.sort_by` produces.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Any, Iterator, Sequence

import numpy as np

from . import types as _types
from .chunked import ChunkedColumn, ChunkedFrame, _concat_payload
from .column import Column
from .frame import DataFrame
from .ops import _sort_key
from .sort import external_sort_by
from .spill import SpillStore, spill_store_of

_JOIN_HOWS = ("inner", "left", "outer")


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
def resolve_join_strategy(
    left: DataFrame,
    right: DataFrame,
    on: Sequence[str] | None = None,
) -> str:
    """Pick the physical plan from the inputs: memory/partitioned/sortmerge.

    Resident inputs join in ``memory``. When either input is spilled
    (joining through ``memory`` would densify it), the planner probes
    each side's sortedness on ``on`` (a streaming key scan through the
    spill LRU — nothing is pinned resident) and picks ``sortmerge`` when
    either side already satisfies the contract, so at most one side pays
    an external sort; otherwise ``partitioned``. Membership tests need
    no sorted output and pass ``on=None``, which routes every spilled
    input ``partitioned``.
    """
    if spill_store_of(left) is None and spill_store_of(right) is None:
        return "memory"
    if on is not None and (is_sorted_on(left, on) or is_sorted_on(right, on)):
        return "sortmerge"
    return "partitioned"


def _partition_count(
    left: DataFrame, right: DataFrame, store: SpillStore
) -> int:
    """Partitions sized so one bucket pair fits well inside the budget.

    Assumes ~64 bytes of key+row payload per row, capped at 256.
    """
    total = max(left.num_rows + right.num_rows, 1)
    derived = -(-64 * total // max(store.budget_bytes, 1))
    return max(1, min(256, derived))


# ----------------------------------------------------------------------
# Equality-respecting key hashing (see module docstring invariants)
# ----------------------------------------------------------------------
_HASH_SEED = np.uint64(0x9E3779B97F4A7C15)
_HASH_MULT = np.uint64(0x100000001B3)


def _mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — diffuses the raw value bits per element."""
    h = h.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        h ^= h >> np.uint64(30)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
    return h


def _scalar_hash(value: Any) -> int:
    if value is None:
        return 0
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8", "surrogatepass"))
    try:
        as_float = float(value) + 0.0
    except OverflowError:
        as_float = math.inf if value > 0 else -math.inf
    return struct.unpack("<Q", struct.pack("<d", as_float))[0]


def _value_hashes(data: np.ndarray) -> np.ndarray:
    """Per-element uint64 hashes; equal (Python ``==``) values hash equal."""
    if data.dtype != object:
        with np.errstate(over="ignore"):
            return (data.astype(np.float64) + 0.0).view(np.uint64)
    out = np.empty(len(data), dtype=np.uint64)
    for i, value in enumerate(data.tolist()):
        out[i] = _scalar_hash(value)
    return out


def _partition_ids(
    key_cols: Sequence[Column], length: int, n_partitions: int
) -> tuple[np.ndarray, np.ndarray]:
    """(valid, partition_id) per row of one chunk's key columns."""
    valid = np.ones(length, dtype=bool)
    combined = np.full(length, _HASH_SEED, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for col in key_cols:
            mask = np.asarray(col.mask())
            valid &= ~mask
            combined = (combined * _HASH_MULT) ^ _mix64(
                _value_hashes(np.asarray(col.values_array()))
            )
    pids = (combined % np.uint64(n_partitions)).astype(np.int64)
    return valid, pids


# ----------------------------------------------------------------------
# Joint-codes probe (shared by the memory and partitioned plans)
# ----------------------------------------------------------------------
def _lossy_promotion(l_data: np.ndarray, r_data: np.ndarray) -> bool:
    """True when concatenating would promote int64 values lossily.

    Mixing an int64 key column with a float64 one promotes the ints to
    float64; ints beyond 2**53 would then collide with neighbours they
    are not Python-equal to, so such pairs take the exact dict path.
    """
    kinds = {l_data.dtype.kind, r_data.dtype.kind}
    if kinds != {"i", "f"}:
        return False
    int_side = l_data if l_data.dtype.kind == "i" else r_data
    if not int_side.size:
        return False
    limit = 2**53
    return bool(int_side.max() > limit or int_side.min() < -limit)


def _joint_codes(
    left_column: Column, right_column: Column
) -> tuple[np.ndarray, np.ndarray, int]:
    """Factorize two columns jointly so equal values share codes.

    Equality follows Python ``==`` semantics (so ``2 == 2.0 == True``
    matches across int/float/bool columns, and strings never equal
    numbers). Missing cells receive side-specific codes above the value
    range so a missing left key can never match a missing right key.
    """
    l_data, l_mask = left_column.values_array(), left_column.mask()
    r_data, r_mask = right_column.values_array(), right_column.mask()
    n_left = len(l_data)
    if l_data.dtype != object and r_data.dtype != object and not _lossy_promotion(
        l_data, r_data
    ):
        combined = np.concatenate([l_data, r_data])
        if combined.size:
            _, inverse = np.unique(combined, return_inverse=True)
            span = int(inverse.max()) + 1
        else:
            inverse = np.zeros(0, dtype=np.int64)
            span = 0
        inverse = inverse.astype(np.int64, copy=False)
    else:
        inverse, span = _types.factorize_objects(
            l_data.tolist() + r_data.tolist()
        )
    left_codes = inverse[:n_left].copy()
    right_codes = inverse[n_left:].copy()
    left_codes[l_mask] = span
    right_codes[r_mask] = span + 1
    return left_codes, right_codes, span + 2


def _combine_codes(
    left_codes: np.ndarray,
    right_codes: np.ndarray,
    span: int,
    extra_left: np.ndarray,
    extra_right: np.ndarray,
    extra_span: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Merge one more key column into composite codes (overflow safe)."""
    if extra_span and span > (2**62) // max(extra_span, 1):
        combined = np.concatenate([left_codes, right_codes])
        _, inverse = np.unique(combined, return_inverse=True)
        inverse = inverse.astype(np.int64, copy=False)
        left_codes = inverse[: len(left_codes)]
        right_codes = inverse[len(left_codes) :]
        span = int(inverse.max()) + 1 if inverse.size else 0
    return (
        left_codes * extra_span + extra_left,
        right_codes * extra_span + extra_right,
        span * extra_span,
    )


def _composite_codes(
    left_cols: Sequence[Column],
    right_cols: Sequence[Column],
    n_left: int,
    n_right: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Jointly factorized composite key codes plus per-side missing masks.

    Equal keys share a code across the two sides; rows with any missing
    key cell are flagged so callers can drop them (they never match).
    """
    left_codes = np.zeros(n_left, dtype=np.int64)
    right_codes = np.zeros(n_right, dtype=np.int64)
    span = 1
    left_missing = np.zeros(n_left, dtype=bool)
    right_missing = np.zeros(n_right, dtype=bool)
    for l_col, r_col in zip(left_cols, right_cols):
        extra_left, extra_right, extra_span = _joint_codes(l_col, r_col)
        left_codes, right_codes, span = _combine_codes(
            left_codes, right_codes, span, extra_left, extra_right, extra_span
        )
        left_missing |= np.asarray(l_col.mask())
        right_missing |= np.asarray(r_col.mask())
    return left_codes, right_codes, left_missing, right_missing


def _probe_pairs(
    left_cols: Sequence[Column],
    right_cols: Sequence[Column],
    n_left: int,
    n_right: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Matched (left_row, right_row) pairs, sorted by (left, right).

    Operates on any aligned key-column lists (full frames or partition
    buckets): factorize each key pair jointly, combine into composite
    codes, sort the right side once, probe with searchsorted, and expand
    the matching runs.
    """
    left_codes, right_codes, left_missing, right_missing = _composite_codes(
        left_cols, right_cols, n_left, n_right
    )
    right_rows_valid = np.flatnonzero(~right_missing)
    right_order = right_rows_valid[
        np.argsort(right_codes[right_rows_valid], kind="stable")
    ]
    sorted_right = right_codes[right_order]
    unique_right, unique_starts = np.unique(sorted_right, return_index=True)
    unique_counts = np.diff(
        np.concatenate((unique_starts, [len(sorted_right)]))
    )

    left_rows_valid = np.flatnonzero(~left_missing)
    probe = left_codes[left_rows_valid]
    slot = np.searchsorted(unique_right, probe)
    slot_clipped = np.minimum(slot, max(len(unique_right) - 1, 0))
    matched = (
        (slot < len(unique_right)) & (unique_right[slot_clipped] == probe)
        if len(unique_right)
        else np.zeros(len(probe), dtype=bool)
    )
    match_rows = left_rows_valid[matched]
    match_slots = slot[matched]
    match_counts = unique_counts[match_slots]

    left_take = np.repeat(match_rows, match_counts)
    run_starts = unique_starts[match_slots]
    cumulative = np.cumsum(match_counts)
    offsets = (
        np.arange(int(cumulative[-1]), dtype=np.int64)
        - np.repeat(cumulative - match_counts, match_counts)
        if len(match_counts)
        else np.zeros(0, dtype=np.int64)
    )
    right_take = right_order[np.repeat(run_starts, match_counts) + offsets]
    return left_take.astype(np.int64, copy=False), right_take.astype(
        np.int64, copy=False
    )


# ----------------------------------------------------------------------
# Partitioned hash join
# ----------------------------------------------------------------------
def _key_chunk_iters(
    frame: DataFrame, key_names: Sequence[str]
) -> list[Iterator[Column]]:
    return [frame.column(name).iter_chunks() for name in key_names]


def _partition_side(
    frame: DataFrame,
    key_names: Sequence[str],
    n_partitions: int,
    store: SpillStore,
) -> list[list[tuple[Any, list[Any]]]]:
    """Bucket one side's valid-key rows by key hash, chunk by chunk.

    Returns, per partition, a list of spilled per-chunk contributions
    ``(rows_handle, [key_payload_handle, ...])``. Only the key columns
    are read — one shard at a time through the spill LRU for spilled
    inputs — so partitioning never densifies.
    """
    buckets: list[list[tuple[Any, list[Any]]]] = [
        [] for _ in range(n_partitions)
    ]
    iters = _key_chunk_iters(frame, key_names)
    base = 0
    for length in frame.chunk_lengths:
        cols = [next(it) for it in iters]
        if length == 0:
            continue
        if key_names:
            valid, pids = _partition_ids(cols, length, n_partitions)
        else:
            valid = np.ones(length, dtype=bool)
            pids = np.zeros(length, dtype=np.int64)
        payloads = [np.asarray(col.values_array()) for col in cols]
        for p in np.unique(pids[valid]).tolist():
            local = np.flatnonzero(valid & (pids == p))
            rows = (base + local).astype(np.int64)
            pieces = [payload[local] for payload in payloads]
            # Bound each bucket shard well under the store budget so
            # loading it back cannot push residency past the budget (a
            # monolithic side arrives as one huge chunk; slicing here is
            # what keeps the ≤-budget guarantee input-shape independent).
            # Object payloads get a rough 64 B/row estimate; npy/pickle
            # serialization overhead rides in the remaining 3/4 headroom.
            per_row = 8 + sum(
                64 if piece.dtype == object else piece.itemsize
                for piece in pieces
            )
            step = len(rows)
            if store.budget_bytes:
                step = max(1, store.budget_bytes // (4 * per_row))
            for start in range(0, len(rows), step):
                rows_slice = rows[start : start + step]
                zeros = np.zeros(len(rows_slice), dtype=bool)
                buckets[p].append(
                    (
                        store.spill(rows_slice, zeros),
                        [
                            store.spill(piece[start : start + step], zeros)
                            for piece in pieces
                        ],
                    )
                )
        base += length
    return buckets


def _load_bucket(
    contribs: list[tuple[Any, list[Any]]],
    key_names: Sequence[str],
    key_dtypes: Sequence[str],
    store: SpillStore,
) -> tuple[np.ndarray, list[Column]]:
    """Concatenate one partition's contributions into probe-ready columns."""
    rows_parts: list[np.ndarray] = []
    col_parts: list[list[np.ndarray]] = [[] for _ in key_names]
    for rows_item, piece_items in contribs:
        rows_parts.append(store.load(rows_item)[0])
        for j, item in enumerate(piece_items):
            col_parts[j].append(store.load(item)[0])
    rows = (
        rows_parts[0]
        if len(rows_parts) == 1
        else np.concatenate(rows_parts)
    ).astype(np.int64, copy=False)
    no_missing = np.zeros(len(rows), dtype=bool)
    cols = [
        Column._from_arrays(
            name, dtype, _concat_payload(parts), no_missing
        )
        for name, dtype, parts in zip(key_names, key_dtypes, col_parts)
    ]
    return rows, cols


def _release_contribs(
    contribs: list[tuple[Any, list[Any]]], store: SpillStore
) -> None:
    for rows_item, piece_items in contribs:
        store.release(rows_item)
        for item in piece_items:
            store.release(item)


def _bucket_pairs(
    left: DataFrame,
    right: DataFrame,
    left_names: Sequence[str],
    right_names: Sequence[str],
    store: SpillStore,
) -> Iterator[tuple[np.ndarray, list[Column], np.ndarray, list[Column]]]:
    """Partition both sides through ``store``; yield each bucket pair.

    Yields ``(left_rows, left_key_cols, right_rows, right_key_cols)``
    for every partition both sides populate. A bucket pair's shards are
    released once the consumer moves on to the next pair.
    """
    n_partitions = _partition_count(left, right, store)
    l_dtypes = [left.column(name).dtype for name in left_names]
    r_dtypes = [right.column(name).dtype for name in right_names]
    l_buckets = _partition_side(left, left_names, n_partitions, store)
    r_buckets = _partition_side(right, right_names, n_partitions, store)
    for l_contribs, r_contribs in zip(l_buckets, r_buckets):
        if l_contribs and r_contribs:
            yield (
                *_load_bucket(l_contribs, left_names, l_dtypes, store),
                *_load_bucket(r_contribs, right_names, r_dtypes, store),
            )
        _release_contribs(l_contribs, store)
        _release_contribs(r_contribs, store)


def _join_pairs_partitioned(
    left: DataFrame,
    right: DataFrame,
    key_names: Sequence[str],
    store: SpillStore,
) -> tuple[np.ndarray, np.ndarray]:
    lp_parts: list[np.ndarray] = []
    rp_parts: list[np.ndarray] = []
    for l_rows, l_cols, r_rows, r_cols in _bucket_pairs(
        left, right, key_names, key_names, store
    ):
        left_take, right_take = _probe_pairs(
            l_cols, r_cols, len(l_rows), len(r_rows)
        )
        if len(left_take):
            lp_parts.append(l_rows[left_take])
            rp_parts.append(r_rows[right_take])
    if not lp_parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    lp = np.concatenate(lp_parts)
    rp = np.concatenate(rp_parts)
    order = np.lexsort((rp, lp))
    return lp[order], rp[order]


# ----------------------------------------------------------------------
# Sort-merge join: external sort of the unsorted side + a run merge
# ----------------------------------------------------------------------
def _chunk_codes(cols: Sequence[Column], length: int) -> np.ndarray:
    """Composite per-chunk key codes (``DataFrame.column_codes`` logic)."""
    if not cols:
        return np.zeros(length, dtype=np.int64)
    codes, span = cols[0].codes()
    for col in cols[1:]:
        extra, extra_span = col.codes()
        if extra_span and span > (2**62) // max(extra_span, 1):
            _, inverse = np.unique(codes, return_inverse=True)
            codes = inverse.astype(np.int64, copy=False)
            span = int(codes.max()) + 1 if codes.size else 0
        codes = codes * extra_span + extra
        span = span * extra_span
    return codes


def _iter_key_runs(
    frame: DataFrame, key_names: Sequence[str]
) -> Iterator[tuple[tuple, bool, np.ndarray]]:
    """Yield ``(sort_key, has_missing, rows)`` per distinct key run.

    Runs are maximal blocks of consecutive rows with equal keys; equal
    runs merge across chunk boundaries, so the decomposition is
    chunking-invariant. Raises ``ValueError`` as soon as consecutive
    distinct runs do not strictly increase (the sortedness contract).
    """
    iters = _key_chunk_iters(frame, key_names)
    base = 0
    pending: tuple[tuple, bool, np.ndarray] | None = None
    for length in frame.chunk_lengths:
        cols = [next(it) for it in iters]
        if length == 0:
            continue
        codes = _chunk_codes(cols, length)
        boundaries = np.flatnonzero(np.diff(codes)) + 1
        starts = np.concatenate(([0], boundaries)).tolist()
        ends = np.concatenate((boundaries, [length])).tolist()
        for s, e in zip(starts, ends):
            raw = tuple(col[s] for col in cols)
            skey = tuple(_sort_key(value) for value in raw)
            has_missing = any(value is None for value in raw)
            rows = np.arange(base + s, base + e, dtype=np.int64)
            if pending is not None and skey == pending[0]:
                pending = (
                    pending[0],
                    pending[1],
                    np.concatenate([pending[2], rows]),
                )
                continue
            if pending is not None:
                if not skey > pending[0]:
                    raise ValueError(
                        f"not sorted on {list(key_names)}: key {raw!r} at "
                        f"row {base + s} breaks the sort order"
                    )
                yield pending
            pending = (skey, has_missing, rows)
        base += length
    if pending is not None:
        yield pending


def _join_pairs_merge(
    left: DataFrame, right: DataFrame, key_names: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two frames sorted on the key, one key run per side at a time."""
    left_runs = _iter_key_runs(left, key_names)
    right_runs = _iter_key_runs(right, key_names)
    lp_parts: list[np.ndarray] = []
    rp_parts: list[np.ndarray] = []
    left_cur = next(left_runs, None)
    right_cur = next(right_runs, None)
    while left_cur is not None and right_cur is not None:
        l_skey, l_missing, l_rows = left_cur
        r_skey, r_missing, r_rows = right_cur
        if l_skey == r_skey:
            # Equal sort keys imply Python-equal values componentwise (or
            # missing on both sides, which never matches).
            if not l_missing and not r_missing:
                lp_parts.append(np.repeat(l_rows, len(r_rows)))
                rp_parts.append(np.tile(r_rows, len(l_rows)))
            left_cur = next(left_runs, None)
            right_cur = next(right_runs, None)
        elif l_skey < r_skey:
            left_cur = next(left_runs, None)
        else:
            right_cur = next(right_runs, None)
    if not lp_parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(lp_parts), np.concatenate(rp_parts)


def is_sorted_on(frame: DataFrame, on: Sequence[str]) -> bool:
    """True when the frame satisfies the sortedness contract on ``on``.

    One streaming key scan: spilled shards pass through the store's LRU
    chunk by chunk and nothing stays pinned resident afterwards (the
    probe reads key chunks only, never ``values_array()``).
    """
    try:
        for _ in _iter_key_runs(frame, list(on)):
            pass
    except ValueError:
        return False
    return True


def _sorted_with_rowids(
    frame: DataFrame, key_names: Sequence[str], store: SpillStore
) -> tuple[DataFrame, np.ndarray | None]:
    """A frame sorted on the key, plus the sorted→input row-id map.

    An already-sorted input streams as-is (``None`` map). Otherwise a
    *reduced* frame — the key columns plus a collision-free row-id
    column — is external-sorted through ``store``, so payload columns
    never move and peak residency stays at the store budget. The row-id
    column is densified to build the map (releasing its shards); the
    sorted key shards are released by the caller after the merge.
    """
    if is_sorted_on(frame, key_names):
        return frame, None
    rowid = "__rowid__"
    taken = set(frame.column_names)
    while rowid in taken:
        rowid += "_"
    unique_keys = list(dict.fromkeys(key_names))
    if isinstance(frame, ChunkedFrame):
        shards = []
        start = 0
        for length in frame.chunk_lengths:
            shards.append(
                (
                    np.arange(start, start + length, dtype=np.int64),
                    np.zeros(length, dtype=bool),
                )
            )
            start += length
        rowid_col: Column = ChunkedColumn.from_shards(rowid, _types.INT, shards)
        reduced: DataFrame = ChunkedFrame(
            [frame.column(name) for name in unique_keys] + [rowid_col]
        )
    else:
        n = frame.num_rows
        rowid_col = Column._from_arrays(
            rowid,
            _types.INT,
            np.arange(n, dtype=np.int64),
            np.zeros(n, dtype=bool),
        )
        reduced = DataFrame(
            [frame.column(name) for name in unique_keys] + [rowid_col]
        )
    sorted_frame = external_sort_by(reduced, unique_keys, store=store)
    mapping = np.asarray(
        sorted_frame.column(rowid).values_array()
    ).astype(np.int64, copy=False)
    return sorted_frame, mapping


def _release_sorted_temp(frame: DataFrame, mapping: np.ndarray | None) -> None:
    """Release a temp sorted frame's spilled shards (no-op when streamed)."""
    if mapping is None:
        return
    for name in frame.column_names:
        release = getattr(frame.column(name), "_release_spill", None)
        if release is not None:
            release()


def _join_pairs_sortmerge(
    left: DataFrame,
    right: DataFrame,
    key_names: Sequence[str],
    store: SpillStore,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge-join after external-sorting whichever side needs it.

    Pairs come back in the canonical ``(lp, rp)`` lexicographic order —
    the same order every other plan emits — via one final lexsort after
    mapping sorted row ids back to input row ids.
    """
    left_sorted, left_map = _sorted_with_rowids(left, key_names, store)
    right_sorted, right_map = _sorted_with_rowids(right, key_names, store)
    try:
        lp, rp = _join_pairs_merge(left_sorted, right_sorted, key_names)
    finally:
        _release_sorted_temp(left_sorted, left_map)
        _release_sorted_temp(right_sorted, right_map)
    if len(lp):
        if left_map is not None:
            lp = left_map[lp]
        if right_map is not None:
            rp = right_map[rp]
        order = np.lexsort((rp, lp))
        lp, rp = lp[order], rp[order]
    return lp, rp


# ----------------------------------------------------------------------
# Pair expansion (left/outer) and output assembly
# ----------------------------------------------------------------------
def _expand_pairs(
    how: str, n_left: int, n_right: int, lp: np.ndarray, rp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Convert matched pairs into aligned output row indices.

    ``-1`` marks "no row on this side": left rows without a match keep
    one output row with a missing right side (left/outer), and outer
    appends unmatched right rows — ascending — after all left rows.
    """
    if how == "inner":
        return lp, rp
    if n_left == 0:
        left_idx = np.zeros(0, dtype=np.int64)
        right_idx = np.zeros(0, dtype=np.int64)
    else:
        counts = np.bincount(lp, minlength=n_left)
        out_counts = np.maximum(counts, 1)
        starts = np.concatenate(([0], np.cumsum(out_counts)[:-1]))
        first_pair = np.concatenate(([0], np.cumsum(counts)[:-1]))
        left_idx = np.repeat(
            np.arange(n_left, dtype=np.int64), out_counts
        )
        right_idx = np.full(int(out_counts.sum()), -1, dtype=np.int64)
        if len(lp):
            positions = starts[lp] + (
                np.arange(len(lp), dtype=np.int64) - first_pair[lp]
            )
            right_idx[positions] = rp
    if how == "outer":
        matched_right = np.zeros(n_right, dtype=bool)
        matched_right[rp] = True
        right_only = np.flatnonzero(~matched_right).astype(np.int64)
        left_idx = np.concatenate(
            [left_idx, np.full(len(right_only), -1, dtype=np.int64)]
        )
        right_idx = np.concatenate([right_idx, right_only])
    return left_idx, right_idx


class _GatherPlan:
    """One output row-index array shared by every gathered column.

    Caches the stable argsort the spilled streaming path needs, so a
    wide spilled side sorts its indices once, not once per column.
    """

    __slots__ = ("idx", "_order", "_sorted")

    def __init__(self, idx: np.ndarray) -> None:
        self.idx = np.asarray(idx, dtype=np.int64)
        self._order: np.ndarray | None = None
        self._sorted: np.ndarray | None = None

    def order_and_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        if self._order is None:
            self._order = np.argsort(self.idx, kind="stable")
            self._sorted = self.idx[self._order]
        return self._order, self._sorted


def _gather_arrays(
    column: Column, plan: _GatherPlan
) -> tuple[np.ndarray, np.ndarray]:
    """Gather ``column`` at ``plan.idx`` (-1 = missing) into fresh arrays.

    Unspilled columns take one fancy-index (the in-memory fast path);
    spilled columns stream shard by shard through the store's LRU so the
    input stays spilled. Missing output slots hold the canonical fill
    value with the mask set — the standard storage invariant.
    """
    idx = plan.idx
    n = len(idx)
    dtype = column.dtype
    fill = _types.FILL_VALUES[dtype]
    out_missing = idx < 0
    if not getattr(column, "spilled", False):
        src = np.asarray(column.values_array())
        src_mask = np.asarray(column.mask())
        if len(src) == 0:
            data = np.full(n, fill, dtype=_types.NUMPY_DTYPES[dtype])
            return data, out_missing.copy()
        safe = np.where(out_missing, 0, idx)
        data = src[safe]
        mask = src_mask[safe] | out_missing
        if out_missing.any():
            data[out_missing] = fill
        return data, mask
    data = np.full(n, fill, dtype=_types.NUMPY_DTYPES[dtype])
    mask = out_missing.copy()
    order, sorted_idx = plan.order_and_sorted()
    lo = int(np.searchsorted(sorted_idx, 0))
    start = 0
    for chunk in column.iter_chunks():
        end = start + len(chunk)
        hi = int(np.searchsorted(sorted_idx, end))
        if hi > lo:
            positions = order[lo:hi]
            local = idx[positions] - start
            vals = chunk.values_array()[local]
            if vals.dtype != data.dtype:
                # An int column can mix int64 and object shards; the
                # gathered array normalizes to object-backed Python ints
                # exactly like the dense concatenation does.
                if data.dtype != object:
                    data = data.astype(object)
                vals = vals.astype(object)
            data[positions] = vals
            mask[positions] = chunk.mask()[local]
        lo = hi
        start = end
    return data, mask


def _gather_column(
    column: Column, plan: _GatherPlan, out_name: str
) -> Column:
    data, mask = _gather_arrays(column, plan)
    return Column._from_arrays(out_name, column.dtype, data, mask)


def _merged_key_column(
    name: str,
    left_col: Column,
    right_col: Column,
    left_plan: _GatherPlan,
    right_plan: _GatherPlan,
) -> Column:
    """Outer-join key column: left value when present, else right.

    Same-dtype sides splice the gathered arrays directly (coercion to
    the common dtype is the identity); mixed dtypes go through the
    :class:`Column` constructor so every cell is coerced exactly like a
    reference frame built with ``from_dict(..., dtypes=...)``.
    """
    out_dtype = _types.common_dtype(left_col.dtype, right_col.dtype)
    left_data, left_mask = _gather_arrays(left_col, left_plan)
    right_data, right_mask = _gather_arrays(right_col, right_plan)
    take_right = left_plan.idx < 0
    if left_col.dtype == right_col.dtype:
        if left_data.dtype != right_data.dtype:
            left_data = left_data.astype(object)
            right_data = right_data.astype(object)
        left_data[take_right] = right_data[take_right]
        left_mask[take_right] = right_mask[take_right]
        return Column._from_arrays(name, out_dtype, left_data, left_mask)
    left_values = left_data.tolist()
    right_values = right_data.tolist()
    values = [
        (None if r_missing else r_value)
        if from_right
        else (None if l_missing else l_value)
        for from_right, l_value, l_missing, r_value, r_missing in zip(
            take_right.tolist(),
            left_values,
            left_mask.tolist(),
            right_values,
            right_mask.tolist(),
        )
    ]
    return Column(name, values, out_dtype)


def _assemble(
    left: DataFrame,
    right: DataFrame,
    key_names: Sequence[str],
    suffix: str,
    how: str,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
) -> DataFrame:
    left_names = left.column_names
    right_extra = [
        name for name in right.column_names if name not in key_names
    ]
    renamed = {
        name: (name + suffix if name in left_names else name)
        for name in right_extra
    }
    if len(set(renamed.values())) != len(renamed):
        raise ValueError(
            f"suffix {suffix!r} produces colliding output column names "
            f"among right columns {right_extra}"
        )
    left_plan = _GatherPlan(left_idx)
    right_plan = _GatherPlan(right_idx)
    columns: list[Column] = []
    for name in left_names:
        if how == "outer" and name in key_names:
            columns.append(
                _merged_key_column(
                    name,
                    left.column(name),
                    right.column(name),
                    left_plan,
                    right_plan,
                )
            )
        else:
            columns.append(_gather_column(left.column(name), left_plan, name))
    for name in right_extra:
        columns.append(
            _gather_column(right.column(name), right_plan, renamed[name])
        )
    return DataFrame(columns)


# ----------------------------------------------------------------------
# Public join API
# ----------------------------------------------------------------------
def join(
    left: DataFrame,
    right: DataFrame,
    on: Sequence[str],
    how: str = "inner",
    suffix: str = "_right",
) -> DataFrame:
    """Equality join; the planner picks the physical plan.

    See the module docstring for the plan, null, and sortedness
    contracts.
    """
    key_names = list(on)
    if how not in _JOIN_HOWS:
        raise ValueError(
            f"unknown join type {how!r}; expected one of {list(_JOIN_HOWS)}"
        )
    for name in key_names:
        left.column(name)
        right.column(name)
    plan = resolve_join_strategy(left, right, on=key_names)
    if plan == "memory":
        lp, rp = _probe_pairs(
            [left.column(name) for name in key_names],
            [right.column(name) for name in key_names],
            left.num_rows,
            right.num_rows,
        )
    else:
        store = spill_store_of(left) or spill_store_of(right)
        if plan == "sortmerge":
            lp, rp = _join_pairs_sortmerge(left, right, key_names, store)
        else:
            lp, rp = _join_pairs_partitioned(left, right, key_names, store)
    left_idx, right_idx = _expand_pairs(
        how, left.num_rows, right.num_rows, lp, rp
    )
    return _assemble(left, right, key_names, suffix, how, left_idx, right_idx)


# ----------------------------------------------------------------------
# Semi-join membership (referential-integrity consumer)
# ----------------------------------------------------------------------
def _membership(
    left_cols: Sequence[Column],
    right_cols: Sequence[Column],
    n_left: int,
    n_right: int,
) -> np.ndarray:
    """Boolean per left row: does any right row share its (valid) key?"""
    left_codes, right_codes, left_missing, right_missing = _composite_codes(
        left_cols, right_cols, n_left, n_right
    )
    out = np.zeros(n_left, dtype=bool)
    unique_right = np.unique(right_codes[~right_missing])
    left_rows = np.flatnonzero(~left_missing)
    probe = left_codes[left_rows]
    if unique_right.size and probe.size:
        slot = np.searchsorted(unique_right, probe)
        slot_clipped = np.minimum(slot, len(unique_right) - 1)
        hit = (slot < len(unique_right)) & (
            unique_right[slot_clipped] == probe
        )
        out[left_rows[hit]] = True
    return out


def semi_join_mask(
    left: DataFrame,
    right: DataFrame,
    on: Sequence[str],
    right_on: Sequence[str] | None = None,
) -> np.ndarray:
    """Per left row, True when its key exists among the right rows.

    Rows with a missing key cell are False (they match nothing). The
    key columns pair positionally with ``right_on`` (default: the same
    names). Membership needs no sorted output, so the planner is asked
    without key columns: resident inputs probe in memory, spilled ones
    run partitioned.
    """
    left_names = list(on)
    right_names = list(right_on) if right_on is not None else left_names
    if len(left_names) != len(right_names):
        raise ValueError(
            f"on has {len(left_names)} columns but right_on has "
            f"{len(right_names)}"
        )
    for l_name, r_name in zip(left_names, right_names):
        left.column(l_name)
        right.column(r_name)
    if resolve_join_strategy(left, right) == "memory":
        return _membership(
            [left.column(name) for name in left_names],
            [right.column(name) for name in right_names],
            left.num_rows,
            right.num_rows,
        )
    store = spill_store_of(left) or spill_store_of(right)
    out = np.zeros(left.num_rows, dtype=bool)
    for l_rows, l_cols, r_rows, r_cols in _bucket_pairs(
        left, right, left_names, right_names, store
    ):
        out[l_rows[_membership(l_cols, r_cols, len(l_rows), len(r_rows))]] = True
    return out
