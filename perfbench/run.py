"""DataLens benchmark: the dashboard loop end to end and layer by layer.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload paper_loop --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

* ``paper_loop`` -- the quickstart loop on the five bundled datasets.
* ``bulk_versions`` -- a 40k-row spilled upload with version churn.
* ``rest_dashboard`` -- the socket server under two closed-loop clients.

Inputs are generated from ``--seed`` before anything is timed. Timings
are scaled by the host speed probed next to them (``common.kernel_seconds``);
raw values stay in the records. With
``--trace 0`` the last output line holds every end-to-end metric; with
``--trace 1`` it holds every per-layer metric. Each run also writes one
flat record per metric to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("paper_loop", "bulk_versions", "rest_dashboard")
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 7
CHILD_TIMEOUT = 170.0

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "write_ms": "ms",
    "peak_rss_mb": "MB",
    "detect_f1": "ratio",
    "repair_accuracy": "ratio",
    "cells_kept_frac": "ratio",
}
#: Measured on every workload and recorded, but not bounded: a REST read
#: takes 1-5 ms, mostly process wake-ups, and on a shared host its
#: run-to-run spread (0.2-0.7 over ten seeds) is wider than any bound.
RECORDED = {
    "read_ms": "ms",
}
PER_LAYER = {
    "ml.tree_fit_s": "s/pass",
    "ml.tree_fits": "count/pass",
    "repair.ml_imputer_s": "s/pass",
    "repair.standard_imputer_s": "s/pass",
    "iterative.trial_s": "s/pass",
    "optimize.trials": "count/pass",
    "detection.iqr_s": "s/pass",
    "detection.sd_s": "s/pass",
    "detection.mv_detector_s": "s/pass",
    "detection.fahes_s": "s/pass",
    "quality.summary_s": "s/pass",
    "tracking.log_s": "s/pass",
    "io.read_csv_s": "s/pass",
    "io.write_csv_s": "s/pass",
    "io.csv_bytes_read": "bytes/pass",
    "io.csv_bytes_written": "bytes/pass",
    "versioning.commit_s": "s/pass",
    "versioning.read_s": "s/pass",
    "versioning.history_calls": "count/pass",
    "versioning.history_s": "s/pass",
    "spill.peak_resident_bytes": "bytes",
    "spill.loads": "count/pass",
    "spill.evictions": "count/pass",
    "spill.spilled_bytes": "bytes/pass",
    "profiling.cold_s": "s/pass",
    "profiling.warm_s": "s/pass",
    "artifacts.hit_rate": "ratio",
    "artifacts.lookups": "count/pass",
    "artifacts.evictions": "count/pass",
    "api.dispatch_read_s": "s/pass",
    "api.dispatch_write_s": "s/pass",
    "api.wire_ms": "ms",
    "api.lock_wait_read_s": "s/pass",
    "api.lock_wait_write_s": "s/pass",
    "jobs.queue_wait_s": "s",
    "jobs.run_s": "s",
    "jobs.attempts": "count/job",
    "store.lost_cells_frac": "ratio",
    "store.lost_cells": "count",
    "trace.attributed_frac": "ratio",
    "trace.overhead_pass_s": "s",
    "trace.overhead_read_ms": "ms",
    "trace.traced_passes": "count",
}
#: Span name -> per-layer metric fed by its self time.
SELF_TIME_SPANS = {
    "ml.tree_fit": "ml.tree_fit_s",
    "repair.ml_imputer": "repair.ml_imputer_s",
    "repair.standard_imputer": "repair.standard_imputer_s",
    "iterative.trial": "iterative.trial_s",
    "detection.iqr": "detection.iqr_s",
    "detection.sd": "detection.sd_s",
    "detection.mv_detector": "detection.mv_detector_s",
    "detection.fahes": "detection.fahes_s",
    "quality.summary": "quality.summary_s",
    "tracking.log": "tracking.log_s",
    "io.read_csv": "io.read_csv_s",
    "io.write_csv": "io.write_csv_s",
    "versioning.commit": "versioning.commit_s",
    "versioning.read": "versioning.read_s",
    "versioning.history": "versioning.history_s",
    "profiling.cold": "profiling.cold_s",
    "profiling.warm": "profiling.warm_s",
    "api.dispatch.read": "api.dispatch_read_s",
    "api.dispatch.write": "api.dispatch_write_s",
    "api.lock_wait.read": "api.lock_wait_read_s",
    "api.lock_wait.write": "api.lock_wait_write_s",
}
COUNT_SPANS = {
    "ml.tree_fit": "ml.tree_fits",
    "iterative.trial": "optimize.trials",
    "versioning.history": "versioning.history_calls",
}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def _host_samples() -> list[float]:
    return [common.kernel_seconds() for _ in range(common.KERNEL_SAMPLES)]


def _spawn_probe(work: Path, env: dict) -> float:
    """Seconds from starting a fresh process until it reports set up."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("worker.py")),
         "--probe", "--work", str(work)],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - start
        process.wait(timeout=CHILD_TIMEOUT)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if line.strip() != "ready" or process.returncode != 0:
        raise RuntimeError("set-up probe failed")
    return elapsed


def _results_dir() -> Path:
    directory = common.WORK_ROOT / "results"
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _keep_spans(args, spans_file: Path) -> None:
    """Move a traced run's spans next to its result records."""
    if args.trace and spans_file.exists():
        target = _results_dir() / f"{args.workload}-seed{args.seed}-spans.jsonl"
        shutil.move(str(spans_file), target)


def _layer_metrics(layers: dict, count: int) -> dict[str, float]:
    """Per-pass self times and counts from aggregated spans."""
    out = {name: 0.0 for name in PER_LAYER}
    if not count:
        return out
    for span, metric in SELF_TIME_SPANS.items():
        out[metric] = layers.get(span, {}).get("self_s", 0.0) / count
    for span, metric in COUNT_SPANS.items():
        out[metric] = layers.get(span, {}).get("count", 0) / count
    out["io.csv_bytes_read"] = layers.get("io.read_csv", {}).get("bytes", 0) / count
    out["io.csv_bytes_written"] = layers.get("io.write_csv", {}).get("bytes", 0) / count
    return out


def _raw_records(raw: dict, factors: dict) -> dict:
    """Unscaled timings and the host-speed factors, for the records only."""
    units = {"setup_s": "s", "pass_s": "s", "read_ms": "ms", "write_ms": "ms"}
    out = {f"raw.{key}": (units[key], values) for key, values in raw.items()}
    out["host.factor"] = ("ratio", [f for values in factors.values() for f in values])
    return out


def _mean_call_ms(one_pass: dict, kind: str) -> float:
    """Mean latency of one pass's read or write calls, in ms."""
    times = [op[2] for op in one_pass["ops"] if op[1] == kind]
    return 1e3 * sum(times) / len(times)


def run_offline(args, work: Path, inputs_path: Path, env: dict) -> dict:
    setups = []
    for i in range(SETUP_PROBES):
        factor = common.host_factor(_host_samples())
        setups.append((_spawn_probe(work / f"probe-{i}", env), factor))
    out_path = work / "worker.json"
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")),
         "--workload", args.workload, "--inputs", str(inputs_path),
         "--work", str(work / "worker"), "--out", str(out_path),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, check=True, timeout=CHILD_TIMEOUT, stdout=subprocess.DEVNULL,
    )
    result = json.loads(out_path.read_text(encoding="utf-8"))
    _keep_spans(args, work / "worker" / "spans.jsonl")
    plain = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    raw = {
        "setup_s": [elapsed for elapsed, _ in setups],
        "pass_s": [p["seconds"] for p in plain],
        "read_ms": [_mean_call_ms(p, "read") for p in plain],
        "write_ms": [_mean_call_ms(p, "write") for p in plain],
    }
    factors = {
        "setup_s": [factor for _, factor in setups],
        **{key: [p["host_factor"] for p in plain] for key in ("pass_s", "read_ms", "write_ms")},
    }
    samples = {
        **{key: [v * f for v, f in zip(raw[key], factors[key])] for key in raw},
        # The highest RSS any untraced pass reached inside a timed call.
        "peak_rss_mb": [max(p["peak_rss_mb"] for p in plain)],
        "detect_f1": [result["detect_f1"]],
        "repair_accuracy": [result["repair_accuracy"]],
        "cells_kept_frac": [1.0 - result["lost_cells"] / result["compared_cells"]],
    }
    layer = _layer_metrics(result["layers"], len(traced))
    if traced:
        lookups = sum(p["artifacts"]["hits"] + p["artifacts"]["misses"] for p in traced)
        hits = sum(p["artifacts"]["hits"] for p in traced)
        layer["artifacts.lookups"] = lookups / len(traced)
        layer["artifacts.hit_rate"] = hits / lookups if lookups else 0.0
        layer["artifacts.evictions"] = (
            sum(p["artifacts"]["evictions"] for p in traced) / len(traced)
        )
        spill = [p["spill"] for p in traced if p["spill"]]
        if spill:
            layer["spill.peak_resident_bytes"] = max(s["peak_resident_bytes"] for s in spill)
            for key in ("loads", "evictions", "spilled_bytes"):
                layer[f"spill.{key}"] = sum(s[key] for s in spill) / len(traced)
        spans = result["layers"]
        op_time = sum(p["seconds"] for p in traced)
        attributed = sum(
            entry["self_s"]
            for name, entry in spans.items()
            if not name.startswith("op.") and name != "pass"
        )
        layer["trace.attributed_frac"] = attributed / op_time if op_time else 0.0
        layer["trace.overhead_pass_s"] = _median(
            p["seconds"] * p["host_factor"] for p in traced
        ) - _median(samples["pass_s"])
        layer["trace.overhead_read_ms"] = _median(
            _mean_call_ms(p, "read") * p["host_factor"] for p in traced
        ) - _median(samples["read_ms"])
        layer["trace.traced_passes"] = len(traced)
    layer["store.lost_cells"] = result["lost_cells"] / len(result["passes"])
    layer["store.lost_cells_frac"] = result["lost_cells"] / result["compared_cells"]
    return {
        "samples": samples,
        "layer": layer,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "digests": result["digests"],
        "extra": {
            **_raw_records(raw, factors),
            "rss.pass_peak_mb": ("MB", [p["peak_rss_mb"] for p in plain]),
            "rss.inputs_mb": ("MB", [result["inputs_rss_mb"]]),
        },
    }


def run_rest(args, work: Path, inputs_path: Path, env: dict) -> dict:
    import rest
    from inputs import load_inputs

    data = load_inputs(inputs_path)
    csv_path = inputs_path.parent / "beers.csv"
    csv_text = csv_path.read_text(encoding="utf-8")
    expected = rest.reference(work / "reference", csv_path)
    setups: list[tuple[float, float]] = []
    server = None
    try:
        for i in range(SETUP_PROBES):
            factor = common.host_factor(_host_samples())
            start = time.perf_counter()
            server = rest.Server(work / f"server-{i}", 0, env)
            rest.upload(server.port, csv_text)
            setups.append((time.perf_counter() - start, factor))
            if i < SETUP_PROBES - 1:
                server.stop()
                server = None
        halves = [False, True] if args.trace else [False]
        seconds = args.seconds / len(halves)
        phases = []
        for traced in halves:
            if traced:
                # A fresh server from the same upload, so the traced half
                # starts from the version count the untraced half did.
                server.stop()
                server = None
                server = rest.Server(work / "server-traced", 1, env)
                rest.upload(server.port, csv_text)
                before = rest.counters(server.port)
                server.command("trace on")
            log: list = []
            analyst, viewer = rest.drive(server.port, expected, seconds, log)
            if traced:
                server.command("trace off")
                counters = (before, rest.counters(server.port))
            phases.append((traced, seconds, log, analyst, viewer))
        checks = rest.final_checks(server.port, expected, data, phases[-1][3].last_ml_version)
    finally:
        summary = server.stop() if server is not None else {}
    if server is not None:
        _keep_spans(args, server.work / "spans.jsonl")

    plain = [ph for ph in phases if not ph[0]]
    traced = [ph for ph in phases if ph[0]]
    log = [e for ph in plain for e in ph[2]]
    cycles = [c for ph in plain for c in ph[3].cycles]
    jobs = [j for ph in plain for j in ph[3].jobs]
    reads = _reads_ms(log)
    unqueued = _unqueued_reads(log, jobs)
    unqueued_ids = {id(entry) for entry in unqueued}
    queued = [e[5] * 1e3 for e in log if e[1] == "read" and id(e) not in unqueued_ids]
    attempted = sum(len(ph[2]) for ph in phases) + checks["attempted"]
    failed = (
        sum(1 for ph in phases for e in ph[2] if not e[6])
        + sum(ph[3].failed for ph in phases)
        + checks["failed"]
    )
    errors = [m for ph in phases for m in ph[3].client.errors + ph[4].errors]
    seconds = sum(ph[1] for ph in plain)
    raw = {
        "setup_s": [elapsed for elapsed, _ in setups],
        "pass_s": cycles,
        "read_ms": [_endpoint_latency_ms(unqueued, "read")],
        "write_ms": [_endpoint_latency_ms(log, "write")],
    }
    # Each cycle is scaled by the probes taken while its job ran, the
    # request latencies by all probes of the window.
    window = common.host_factor([k for ph in plain for k in ph[3].kernel])
    factors = {
        "setup_s": [factor for _, factor in setups],
        "pass_s": [f or window for ph in plain for f in ph[3].factors],
        **{key: [window] * len(raw[key]) for key in ("read_ms", "write_ms")},
    }
    samples = {
        **{key: [v * f for v, f in zip(raw[key], factors[key])] for key in raw},
        "peak_rss_mb": [summary.get("peak_rss_mb", float("nan"))],
        "detect_f1": [checks["detect_f1"]],
        "repair_accuracy": [checks["repair_accuracy"]],
        "cells_kept_frac": [1.0 - checks["lost"] / checks["compared"]],
    }
    extra = {
        **_raw_records(raw, factors),
        "rest.rps": ("1/s", [len(log) / seconds]),
        "rest.read_p90_ms": ("ms", [common.percentile(reads, 90)]),
        "rest.read_samples": ("count", [len(reads)]),
        "rest.read_queued_frac": ("ratio", [len(queued) / max(1, len(reads))]),
        "rest.read_queued_p50_ms": ("ms", [_median(queued)]),
        "rest.error_frac": ("ratio", [sum(1 for e in log if not e[6]) / max(1, len(log))]),
        "rest.job_s": ("s", [j["turnaround_s"] for j in jobs]),
    }
    layer = {name: 0.0 for name in PER_LAYER}
    if traced:
        layer = _rest_layers(summary, traced, counters, samples)
    layer["store.lost_cells"] = checks["lost"]
    layer["store.lost_cells_frac"] = checks["lost"] / checks["compared"]
    return {
        "samples": samples,
        "layer": layer,
        "attempted": attempted,
        "failed": failed,
        "errors": errors + checks["errors"],
        "digests": {"rest.detect": expected["cells_digest"],
                    "rest.repair": expected["repaired_digest"]},
        "extra": extra,
    }


def _reads_ms(log: list) -> list[float]:
    return [entry[5] * 1e3 for entry in log if entry[1] == "read"]


def _unqueued_reads(log: list, jobs: list[dict]) -> list:
    """The reads that arrived while no write held or awaited the lock.

    A read that arrives during an analyst's write, or between an async
    job's submission and its end, waits for the dataset's write lock:
    its latency is the rest of that write, not its own cost. In a closed
    loop this is a fifth to two fifths of the viewer's reads, so a median
    over all of them jumps between the two groups. The job's times come
    from the server's clock, the requests' from this process's: one host.
    """
    busy = [(e[7], e[7] + e[5]) for e in log if e[0] == "analyst" and e[1] == "write"]
    busy += [(job["submitted_at"], job["finished_at"]) for job in jobs]
    return [
        entry for entry in log
        if entry[1] == "read" and not any(a <= entry[7] < b for a, b in busy)
    ]


def _endpoint_latency_ms(log: list, kind: str) -> float:
    """Geometric mean over endpoints of each endpoint's median latency (ms).

    Per endpoint, so that the endpoints count alike whatever their
    cost; the geometric mean does not jump when two of them swap places.
    """
    by_path: dict[str, list[float]] = {}
    for entry in log:
        if entry[1] == kind:
            by_path.setdefault(entry[3].split("?", 1)[0], []).append(entry[5] * 1e3)
    if not by_path:
        return float("nan")
    return statistics.geometric_mean(_median(values) for values in by_path.values())


def _rest_layers(summary: dict, traced: list, counters: tuple, samples: dict) -> dict:
    """Per-layer metrics of the traced half of a REST run, per analyst cycle."""
    t_cycles = sum(len(phase[3].cycles) for phase in traced) or 1
    layers = summary.get("layers", {})
    layer = _layer_metrics(layers, t_cycles)
    before, after = counters
    delta = {
        key: after["cache"][key] - before["cache"][key]
        for key in ("hits", "misses", "evictions")
    }
    lookups = delta["hits"] + delta["misses"]
    layer["artifacts.lookups"] = lookups / t_cycles
    layer["artifacts.hit_rate"] = delta["hits"] / lookups if lookups else 0.0
    layer["artifacts.evictions"] = delta["evictions"] / t_cycles
    if after["spill"].get("enabled"):
        layer["spill.peak_resident_bytes"] = after["spill"]["peak_resident_bytes"]
        for key in ("loads", "evictions", "spilled_bytes"):
            layer[f"spill.{key}"] = (
                after["spill"][key] - before["spill"].get(key, 0)
            ) / t_cycles
    spans = summary.get("spans", [])
    dispatch = {
        span["attrs"].get("rid"): span["end"] - span["start"]
        for span in spans
        if span["name"].startswith("api.dispatch.")
    }
    t_log = [entry for phase in traced for entry in phase[2]]
    layer["api.wire_ms"] = _median(
        (entry[5] - dispatch[entry[4]]) * 1e3 for entry in t_log if entry[4] in dispatch
    )
    jobs = [job for phase in traced for job in phase[3].jobs]
    if jobs:
        layer["jobs.queue_wait_s"] = _median(j["started_at"] - j["submitted_at"] for j in jobs)
        layer["jobs.run_s"] = _median(j["finished_at"] - j["started_at"] for j in jobs)
        layer["jobs.attempts"] = sum(1 + len(j["attempts"]) for j in jobs) / len(jobs)
    # Server busy time: every span without a parent, on request and job threads.
    busy = sum(span["end"] - span["start"] for span in spans if span["parent"] == 0)
    attributed = sum(
        entry["self_s"] for name, entry in layers.items()
        if not name.startswith("api.dispatch.")
    )
    layer["trace.attributed_frac"] = attributed / busy if busy else 0.0
    traced_cycles = [
        (c, f) for phase in traced for c, f in zip(phase[3].cycles, phase[3].factors)
    ]
    factor = common.host_factor([k for phase in traced for k in phase[3].kernel])
    layer["trace.overhead_pass_s"] = (
        _median(c * (f or factor) for c, f in traced_cycles) - _median(samples["pass_s"])
    )
    layer["trace.overhead_read_ms"] = (
        _endpoint_latency_ms(_unqueued_reads(t_log, jobs), "read") * factor
        - _median(samples["read_ms"])
    )
    layer["trace.traced_passes"] = len(traced_cycles)
    return layer


def _environment() -> dict:
    import numpy

    sha = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def write_records(args, outcome: dict, metrics: dict) -> Path:
    """One flat record per (workload, metric), sorted by metric name."""
    env = _environment()
    records = []
    if args.trace:
        rows = {name: (PER_LAYER[name], [value]) for name, value in outcome["layer"].items()}
    else:
        measured = {**END_TO_END, **RECORDED}
        rows = {name: (unit, outcome["samples"][name]) for name, unit in measured.items()}
        rows.update(outcome["extra"])
    for name, (unit, values) in sorted(rows.items()):
        summary = common.summarize(values)
        records.append(
            {
                "workload": args.workload,
                "metric": name,
                "unit": unit,
                "value": metrics.get(name, {}).get("value", summary["median"]),
                **summary,
                "seed": args.seed,
                "trace": args.trace,
                **env,
            }
        )
    records.append(
        {"workload": args.workload, "metric": "outputs.digests",
         "unit": "digest", "value": outcome["digests"], "seed": args.seed,
         "trace": args.trace, **env}
    )
    path = _results_dir() / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(records, indent=1, default=str) + "\n", encoding="utf-8")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # A terminated run still stops its children and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    common.use_checkout_sources()
    from inputs import write_inputs

    work = common.WORK_ROOT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Temporary files (spill directories, their startup sweep) stay in
    # the checkout, in this process and in every child.
    tempfile.tempdir = str(tmp)
    env = common.child_env(tmp)
    try:
        inputs_path = write_inputs(args.workload, args.seed, work / "inputs")
        if args.workload == "rest_dashboard":
            outcome = run_rest(args, work, inputs_path, env)
        else:
            outcome = run_offline(args, work, inputs_path, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics = {
            name: {"value": float(outcome["layer"][name]), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": float(_median(outcome["samples"][name])), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    # A metric with no samples (say, no read got through unqueued) is a
    # failed measurement, not a number.
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            metric["value"] = 0.0
            outcome["failed"] += 1
            outcome["errors"].append(f"{name}: no samples")
    records = write_records(args, outcome, metrics)
    for message in outcome["errors"]:
        print(f"error: {message}", file=sys.stderr)
    print(f"records: {records.relative_to(common.ROOT)}")
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0,
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
