"""Measured process of the offline workloads (``paper_loop``, ``bulk_versions``).

``run.py`` starts it once per run. It loads the generated inputs, then
repeats the workload's scripted pass until ``--seconds`` have elapsed
and writes what it measured to ``--out`` as JSON. With ``--probe`` it
only sets up (imports the program, builds a ``DataLens``), prints
``ready`` and exits: ``run.py`` times these probes as ``setup_s``.

With ``--trace 1`` passes alternate untraced and traced; per-layer self
times come from the traced passes only, and the gap between the two
kinds of pass is the tracing overhead.

Peak memory is the program's: the peak-RSS counter restarts before
every timed call and is read right after it, so the benchmark's checks
between calls never set it. ``bulk_versions`` loads its reference frames
(clean table, dirty table, error mask) once at start to measure their
size, then only for the checks after the timed calls of a pass, and
drops them again each time; ``paper_loop`` hands its dirty frames to
the program, so they stay resident.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

PAPER_TOOLS = ["iqr", "sd", "mv_detector", "fahes"]
BULK_TOOLS = ["iqr", "sd", "mv_detector"]
#: Rows per shard and resident shard-byte budget of the bulk upload. The
#: table parses to ~3.4 MB of shards, so most of it lives on disk.
BULK_CHUNK_ROWS = 4000
BULK_SPILL_BUDGET = 1_000_000
ITERATIVE_DATASET = "hospital"
ITERATIVE_TRIALS = 5


class Pass:
    """One scripted pass: timed operations plus the checks on their outputs."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.ops: list[list] = []  # [name, kind, seconds, ok]
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.lost = 0
        self.compared = 0
        self.artifacts = {"hits": 0, "misses": 0, "evictions": 0}
        self.spill: dict = {}
        self.kernel: list[float] = []
        self.peak_mb = 0.0

    def op(self, name: str, kind: str, fn):
        """Time one call into the program; an exception fails the op."""
        self.kernel.append(common.kernel_seconds())
        common.reset_peak_rss()
        start = time.perf_counter()
        try:
            with self.tracer.span(f"op.{name}"):
                result = fn()
        except Exception:  # noqa: BLE001 — counted, reported, run goes on
            self.ops.append([name, kind, time.perf_counter() - start, False])
            self.fail(f"{name}: {traceback.format_exc(limit=3)}")
            return None
        finally:
            self.peak_mb = max(self.peak_mb, common.peak_rss_mb())
        self.ops.append([name, kind, time.perf_counter() - start, True])
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    def record(self, key: str, value: str) -> None:
        self.digests[key] = value

    def fidelity(self, expected, actual) -> None:
        lost, total = common.lost_cells(expected, actual)
        self.lost += lost
        self.compared += total

    def harvest_artifacts(self, session) -> None:
        stats = session.cache_stats()
        for key in self.artifacts:
            self.artifacts[key] += stats[key]

    def harvest_spill(self, session) -> None:
        stats = session.spill_stats()
        if stats.get("enabled"):
            self.spill = stats

    @property
    def seconds(self) -> float:
        return sum(op[2] for op in self.ops)


def _check_detection(p: Pass, frame, cells, key: str) -> None:
    names = set(frame.column_names)
    p.check(
        all(0 <= row < frame.num_rows and column in names for row, column in cells),
        f"{key}: detected cell outside the frame",
    )
    p.record(f"{key}.detect", common.digest(sorted(cells)))


def _check_repair(p: Pass, before, repaired, cells, key: str) -> None:
    if repaired.shape != before.shape:
        p.fail(f"{key}: repaired shape {repaired.shape} != {before.shape}")
        return
    stray = common.changed_cells(before, repaired) - set(cells)
    p.check(not stray, f"{key}: repair changed {len(stray)} undetected cells")
    p.record(f"{key}.repair", common.frame_digest(repaired))


def paper_pass(p: Pass, lens, datasets, quality: dict | None) -> None:
    """ingest -> profile -> detect -> quality -> repair -> restore -> re-profile."""
    from repro.core.quality import accuracy_against

    for data in datasets:
        name = data["name"]
        session = p.op("ingest", "write", lambda: lens.ingest_frame(name, data["dirty"]))
        if session is None:
            continue
        ingested = session.frame
        p.fidelity(data["dirty"], ingested)
        p.op("profile", "read", session.profile)
        cells = p.op("detect", "write", lambda: session.run_detection(PAPER_TOOLS))
        if cells is None:
            continue
        _check_detection(p, ingested, cells, name)
        p.op("quality", "read", session.quality_metrics)
        repaired = p.op("repair", "write", lambda: session.run_repair("ml_imputer"))
        if repaired is not None:
            _check_repair(p, ingested, repaired, cells, name)
            if quality is not None:
                cells_total = repaired.num_rows * repaired.num_columns
                quality["equal"] += accuracy_against(repaired, data["clean"]) * cells_total
                quality["cells"] += cells_total
        if quality is not None:
            quality["detected"] |= {(name, r, c) for r, c in cells}
            quality["actual"] |= {(name, r, c) for r, c in data["mask"]}

        def restore():
            version = session.delta.restore(0)
            return session.load_version(version)

        restored = p.op("restore", "write", restore)
        if restored is not None:
            p.fidelity(ingested, restored)
        p.op("profile_warm", "read", session.profile)
        if name == ITERATIVE_DATASET:
            result = p.op(
                "iterative",
                "write",
                lambda: session.iterative_clean(
                    task=data["task"],
                    target=data["target"],
                    n_iterations=ITERATIVE_TRIALS,
                ),
            )
            if result is not None:
                p.check(
                    result.n_iterations == ITERATIVE_TRIALS,
                    f"iterative ran {result.n_iterations} trials",
                )
                p.record(
                    "iterative",
                    common.digest(
                        (sorted(result.best_params.items()), result.best_score)
                    ),
                )
        p.harvest_artifacts(session)


def bulk_pass(p: Pass, lens, load_data, csv_path: Path, quality: dict | None) -> None:
    """Spilled upload -> profile -> detect -> repair -> restore/re-profile cycles.

    ``load_data()`` returns the reference frames; it is called only once
    the timed calls are done.
    """
    from repro.core.quality import accuracy_against

    def ingest():
        with open(csv_path, newline="", encoding="utf-8") as lines:
            return lens.ingest_csv_stream("bulk", lines)

    session = p.op("ingest", "write", ingest)
    if session is None:
        return
    ingested = session.frame
    p.harvest_spill(session)
    p.op("profile", "read", session.profile)
    p.harvest_spill(session)
    cells = p.op("detect", "write", lambda: session.run_detection(BULK_TOOLS))
    p.harvest_spill(session)
    if cells is None:
        return
    repaired = p.op("repair", "write", lambda: session.run_repair("standard_imputer"))
    p.harvest_spill(session)
    written = {0: ingested}
    if repaired is not None:
        written[session.version_after_repair] = repaired
    restored_frames = []
    for version in written:

        def restore(version=version):
            new_version = session.delta.restore(version)
            return session.load_version(new_version)

        restored = p.op("restore", "write", restore)
        p.op("profile_warm", "read", session.profile)
        if restored is not None:
            restored_frames.append((written[version], restored))
    p.harvest_artifacts(session)

    # Checks read the frames chunk by chunk, after every timed call.
    data = load_data()
    p.fidelity(data["dirty"], ingested)
    for expected, restored in restored_frames:
        p.fidelity(expected, restored)
    _check_detection(p, ingested, cells, "bulk")
    if repaired is not None:
        _check_repair(p, ingested, repaired, cells, "bulk")
        if quality is not None:
            cells_total = repaired.num_rows * repaired.num_columns
            quality["equal"] += accuracy_against(repaired, data["clean"]) * cells_total
            quality["cells"] += cells_total
    if quality is not None:
        quality["detected"] |= set(cells)
        quality["actual"] |= set(data["mask"])


def run(args) -> dict:
    from inputs import load_inputs
    from repro import DataLens
    from repro.ml import detection_scores
    from spans import Tracer, install, self_times

    tracer = Tracer()
    if args.trace:
        install(tracer)
    inputs_path = Path(args.inputs)
    inputs_mb = 0.0

    def load_data():
        nonlocal inputs_mb
        before = common.rss_mb()
        loaded = load_inputs(inputs_path)
        inputs_mb = max(inputs_mb, common.rss_mb() - before)
        return loaded

    # Loaded into a fresh process, so the growth of RSS is their size.
    data = load_data()
    if args.workload == "paper_loop":
        # The inputs are the benchmark's, not the program's: keep the
        # garbage collector from rescanning them.
        gc.collect()
        gc.freeze()
    else:
        del data
    work = Path(args.work)
    passes: list[dict] = []
    reference: dict[str, str] | None = None
    quality = {"detected": set(), "actual": set(), "equal": 0.0, "cells": 0}
    attempted = failed = 0
    errors: list[str] = []
    lost = compared = 0
    traced_spans: list[tuple] = []
    started = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        kinds = {entry["traced"] for entry in passes}
        need_both = args.trace and len(kinds) < 2
        if passes and elapsed >= args.seconds and not need_both:
            break
        traced = bool(args.trace) and index % 2 == 1
        gc.collect()
        tracer.enabled = traced
        workspace = work / f"pass-{index}"
        p = Pass(tracer)
        with tracer.span("pass"):
            if args.workload == "paper_loop":
                lens = DataLens(workspace, seed=0)
                paper_pass(p, lens, data, quality if index == 0 else None)
            else:
                lens = DataLens(
                    workspace,
                    seed=0,
                    chunk_size=BULK_CHUNK_ROWS,
                    spill_budget=BULK_SPILL_BUDGET,
                    spill_dir=workspace / "spill",
                )
                bulk_pass(
                    p, lens, load_data, inputs_path.parent / "bulk.csv",
                    quality if index == 0 else None,
                )
        tracer.enabled = False
        if index == 0:
            # Score once and drop the cell sets, so they stay out of
            # later passes' memory.
            scores = detection_scores(quality.pop("detected"), quality.pop("actual"))
        if reference is None:
            reference = dict(p.digests)
        elif p.digests != reference:
            changed = sorted(
                k for k in set(reference) | set(p.digests)
                if reference.get(k) != p.digests.get(k)
            )
            p.fail(f"pass {index}: outputs differ from pass 0 in {changed}")
        attempted += len(p.ops)
        failed += p.failed
        errors.extend(p.errors)
        lost += p.lost
        compared += p.compared
        passes.append(
            {
                "traced": traced,
                "seconds": p.seconds,
                "host_factor": common.host_factor(p.kernel),
                "ops": p.ops,
                "artifacts": p.artifacts,
                "spill": p.spill,
                "peak_rss_mb": p.peak_mb,
            }
        )
        if traced:
            traced_spans.extend(tracer.spans)
        tracer.spans = []
        del lens, p
        shutil.rmtree(workspace, ignore_errors=True)
        index += 1
    if traced_spans:
        tracer.spans = traced_spans
        tracer.dump(work / "spans.jsonl")
    return {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digests": reference or {},
        "detect_f1": scores["f1"],
        "repair_accuracy": (
            quality["equal"] / quality["cells"] if quality["cells"] else 0.0
        ),
        "lost_cells": lost,
        "compared_cells": compared,
        "layers": self_times(traced_spans),
        "inputs_rss_mb": inputs_mb,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["paper_loop", "bulk_versions"])
    parser.add_argument("--inputs")
    parser.add_argument("--work", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    common.use_checkout_sources()
    if args.probe:
        from repro import DataLens

        DataLens(Path(args.work), seed=0)
        print("ready", flush=True)
        return
    result = run(args)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
