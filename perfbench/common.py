"""Helpers shared by the benchmark's processes: paths, digests, statistics."""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import sys
import time
from pathlib import Path

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
#: Everything the benchmark writes lives under here (ignored by git).
WORK_ROOT = ROOT / ".perfbench"


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Raises SystemExit when the checkout has no program to measure, so
    the benchmark fails instead of measuring some other installation.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def child_env(tmp: Path) -> dict[str, str]:
    """Environment for child processes.

    Drops DataLens overrides, keeps temporary files in ``tmp`` and pins
    the numeric libraries to one thread, so the program runs with its
    own defaults and at most the threads it starts itself.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("DATALENS_")}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["TMPDIR"] = str(tmp)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def digest(value) -> str:
    """Stable digest of nested lists/tuples/dicts of plain values."""
    return hashlib.blake2b(repr(value).encode("utf-8"), digest_size=12).hexdigest()


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    return a == b or (a != a and b != b)  # NaN equals NaN here


def _frame_columns(frame) -> dict[str, list]:
    """Column values, read chunk by chunk so spilled frames stay spilled."""
    out: dict[str, list] = {name: [] for name in frame.column_names}
    for chunk in frame.iter_chunks():
        for name in frame.column_names:
            out[name].extend(chunk.column(name).values())
    return out


def frame_digest(frame) -> str:
    return digest(sorted(_frame_columns(frame).items()))


def lost_cells(expected, actual) -> tuple[int, int]:
    """(cells whose value or type differs, cells compared)."""
    total = expected.num_rows * expected.num_columns
    if (
        expected.column_names != actual.column_names
        or expected.num_rows != actual.num_rows
    ):
        return total, total
    left, right = _frame_columns(expected), _frame_columns(actual)
    lost = 0
    for name in expected.column_names:
        mine, theirs = left[name], right[name]
        if mine == theirs and all(
            type(a) is type(b) for a, b in zip(mine, theirs)
        ):
            continue
        lost += sum(1 for a, b in zip(mine, theirs) if not _same(a, b))
    return lost, total


def changed_cells(before, after) -> set[tuple[int, str]]:
    """Cells whose value or type differs between two same-shape frames."""
    left, right = _frame_columns(before), _frame_columns(after)
    return {
        (row, name)
        for name in before.column_names
        for row, (a, b) in enumerate(zip(left[name], right[name]))
        if not _same(a, b)
    }


# ----------------------------------------------------------------------
# Resident memory
# ----------------------------------------------------------------------
def _status_mb(field: str) -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/self/status")


def rss_mb() -> float:
    """This process's resident memory now, in MB."""
    return _status_mb("VmRSS")


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS counter from its current RSS."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
        refs.write("5")


def peak_rss_mb() -> float:
    """Peak resident memory since the last :func:`reset_peak_rss`, in MB."""
    return _status_mb("VmHWM")


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Median time of :func:`kernel_seconds` on the reference host (2 vCPUs,
#: Python 3.11). Timings are reported scaled to that host speed.
KERNEL_REFERENCE_S = 0.007
#: Probes per host-speed sample outside the timed calls (before a set-up,
#: after a REST cycle).
KERNEL_SAMPLES = 5


def kernel_seconds() -> float:
    """Time one run of a fixed pure-Python loop: the host-speed probe.

    On a shared host the same work can take 40% longer from one minute
    to the next. The loop uses neither the program nor numpy, so its
    time tracks only the host; runs sample it between the calls they
    time and divide that drift out.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


def host_factor(samples: list[float]) -> float:
    """Scale from this host's measured speed to the reference host's."""
    return KERNEL_REFERENCE_S / statistics.median(samples)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def summarize(samples: list[float]) -> dict[str, float]:
    """Median, quartiles and count, as Python's statistics computes them."""
    values = [float(v) for v in samples if v is not None and math.isfinite(v)]
    if not values:
        return {"median": float("nan"), "q1": float("nan"), "q3": float("nan"), "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(samples)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]
