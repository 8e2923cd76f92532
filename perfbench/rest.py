"""The ``rest_dashboard`` workload: two closed-loop clients on one dataset.

The server is a child process (``server.py``). The load comes from this
process with two threads, each holding one keep-alive connection:

* ``analyst`` loops detect -> sync repair (standard_imputer) -> async
  repair (ml_imputer) polled until done -> restore version 0 -> profile;
  one loop is one pass.
* ``viewer`` polls the dashboard's read endpoints in turn.

Both send their next request as soon as the reply to the last one has
arrived (closed loop, no think time). Every
analyst reply is checked against the same calls made in-process on the
same input; a non-2xx reply, a timeout or a mismatch fails the request.
"""

from __future__ import annotations

import http.client
import itertools
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import common

DATASET = "beers"
TOOLS = ["iqr", "sd", "mv_detector", "fahes"]
VIEWER_PATHS = (
    f"/datasets/{DATASET}",
    f"/datasets/{DATASET}/quality",
    f"/datasets/{DATASET}/detections",
    f"/datasets/{DATASET}/versions",
    f"/datasets/{DATASET}/profile",
    f"/datasets/{DATASET}/dashboard",
    f"/datasets/{DATASET}/datasheet",
    "/jobs",
)
#: Interval of the analyst's job polls. The viewer's reads between a
#: job's end and the poll that sees it are the ones that do not queue.
POLL_SECONDS = 0.1
#: Host-speed probes per job, one in each of the polls after the first
#: (by then the job has taken the write lock).
PROBED_POLLS = 5
REQUEST_TIMEOUT = 60.0
ALL_ROWS = 1_000_000


class Server:
    """Owns one ``server.py`` child process."""

    def __init__(self, work: Path, trace: int, env: dict) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("server.py")),
             "--work", str(work), "--trace", str(trace)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        line = self.process.stdout.readline()
        if not line:
            self.process.wait(timeout=30)
            raise RuntimeError("server exited before listening")
        self.port = json.loads(line)["port"]

    def command(self, text: str) -> None:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        self.process.stdout.readline()

    def stop(self) -> dict:
        """Shut down and return the server's summary (spans, peak RSS)."""
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.close()
            self.process.wait(timeout=60)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
        summary_path = self.work / "server.json"
        if not summary_path.exists():
            return {"peak_rss_mb": float("nan"), "layers": {}, "spans": []}
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        spans_path = self.work / "spans.jsonl"
        summary["spans"] = [
            json.loads(line)
            for line in spans_path.read_text(encoding="utf-8").splitlines()
        ] if spans_path.exists() else []
        return summary


class Client:
    """One keep-alive connection; records every request it makes."""

    _ids = itertools.count(1)

    def __init__(self, port: int, role: str, log: list) -> None:
        self.port = port
        self.role = role
        #: [role, kind, method, path, rid, seconds, ok, wall-clock start]
        self.log = log
        self.errors: list[str] = []
        self.conn = self._connect()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
        )

    def call(self, method: str, path: str, body=None, kind: str = "read",
             csv_text: str | None = None):
        """Send one request; returns (status, decoded JSON or None)."""
        rid = f"{self.role}-{next(self._ids)}"
        headers = {"X-Request-Id": rid}
        if csv_text is not None:
            payload = csv_text.encode("utf-8")
            headers["Content-Type"] = "text/csv"
        elif body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        else:
            payload = None
        wall_start = time.time()
        start = time.perf_counter()
        status, data, elapsed = 0, None, None
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
            # The reply is complete; decoding it is the benchmark's work.
            elapsed = time.perf_counter() - start
            status = response.status
            data = json.loads(raw)
        except (OSError, http.client.HTTPException, ValueError) as error:
            self.conn.close()
            self.conn = self._connect()
            self.fail(f"{method} {path}: {error!r}")
        if elapsed is None:
            elapsed = time.perf_counter() - start
        ok = 200 <= status < 300 and data is not None
        if status and not ok:
            self.fail(f"{method} {path}: HTTP {status} {str(data)[:200]}")
        self.log.append([self.role, kind, method, path, rid, elapsed, ok, wall_start])
        return (status if ok else 0), data

    def fail(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)

    def close(self) -> None:
        self.conn.close()


def upload(port: int, csv_text: str) -> None:
    client = Client(port, "setup", [])
    try:
        status, data = client.call(
            "POST", f"/datasets/{DATASET}/upload", kind="write", csv_text=csv_text
        )
    finally:
        client.close()
    if not status:
        raise RuntimeError(f"upload failed: {client.errors}")


def counters(port: int) -> dict:
    """The server's artifact-cache and spill counters for the dataset."""
    client = Client(port, "counters", [])
    try:
        out = {}
        for key in ("cache", "spill"):
            status, data = client.call("GET", f"/datasets/{DATASET}/{key}")
            if not status:
                raise RuntimeError(f"GET {key} failed: {client.errors}")
            out[key] = data
        return out
    finally:
        client.close()


def reference(work: Path, csv_path: Path) -> dict:
    """The analyst's expected replies, from the same calls made in-process."""
    from repro import DataLens
    from repro.api import sanitize_json

    lens = DataLens(work, seed=0)
    with open(csv_path, newline="", encoding="utf-8") as lines:
        session = lens.ingest_csv_stream(DATASET, lines)
    uploaded_rows = session.frame.num_rows
    session.run_detection(TOOLS)
    per_tool = {t: len(r.cells) for t, r in session.detection_results.items()}
    cells = sorted(session.detected_cells)
    session.run_repair("standard_imputer")
    standard = len(session.repair_result.repairs)
    session.run_repair("ml_imputer")
    ml = len(session.repair_result.repairs)
    repaired = session.delta.read(session.version_after_repair)
    rows = json.loads(json.dumps(sanitize_json(repaired.to_records()), default=str))
    return {
        "rows": uploaded_rows,
        "per_tool": per_tool,
        "num_cells": len(cells),
        "cells_digest": common.digest(cells),
        "standard_repairs": standard,
        "ml_repairs": ml,
        "repaired_digest": common.digest(rows),
    }


class Analyst:
    def __init__(self, client: Client, expected: dict) -> None:
        self.client = client
        self.expected = expected
        self.cycles: list[float] = []
        self.jobs: list[dict] = []
        self.failed = 0
        self.last_ml_version: int | None = None
        #: Host-speed probes, and per cycle the factor from its own probes.
        self.kernel: list[float] = []
        self.factors: list[float | None] = []

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.failed += 1
            self.client.fail(message)

    def cycle(self) -> None:
        c, e = self.client, self.expected
        start = time.perf_counter()
        first_probe = len(self.kernel)
        status, data = c.call("POST", f"/datasets/{DATASET}/detect",
                              {"tools": TOOLS}, kind="write")
        if status:
            self.check(
                data["num_cells"] == e["num_cells"] and data["per_tool"] == e["per_tool"],
                f"detect replied {data} but in-process gave {e['per_tool']}",
            )
        status, data = c.call("POST", f"/datasets/{DATASET}/repair",
                              {"tool": "standard_imputer"}, kind="write")
        if status:
            self.check(data["num_repairs"] == e["standard_repairs"],
                       f"standard repair made {data['num_repairs']} repairs")
        submitted = time.perf_counter()
        status, data = c.call("POST", f"/datasets/{DATASET}/repair?async=1",
                              {"tool": "ml_imputer"}, kind="submit")
        if status:
            job_id = data["job_id"]
            for poll in itertools.count():
                # Probe the host speed in the first poll intervals: the
                # job then holds the write lock and the viewer's read is
                # queued, so the probe holds up none of the reads that
                # read_ms counts.
                probe = 0.0
                if 0 < poll <= PROBED_POLLS:
                    probe = common.kernel_seconds()
                    self.kernel.append(probe)
                time.sleep(max(0.0, POLL_SECONDS - probe))
                status, job = c.call("GET", f"/jobs/{job_id}", kind="poll")
                if not status or job["status"] in ("done", "failed"):
                    break
            if status:
                job["turnaround_s"] = time.perf_counter() - submitted
                self.jobs.append(job)
                self.check(job["status"] == "done", f"job failed: {job.get('error')}")
                if job["status"] == "done":
                    result = job["result"]
                    self.last_ml_version = result["version_after_repair"]
                    self.check(result["num_repairs"] == e["ml_repairs"],
                               f"ml repair made {result['num_repairs']} repairs")
        c.call("POST", f"/datasets/{DATASET}/versions/restore", {"version": 0},
               kind="write")
        status, data = c.call("GET", f"/datasets/{DATASET}/profile", kind="read")
        if status:
            self.check(data["overview"]["rows"] == e["rows"],
                       f"profile saw {data['overview']['rows']} rows")
        self.cycles.append(time.perf_counter() - start)
        probes = self.kernel[first_probe:]
        self.factors.append(common.host_factor(probes) if probes else None)


def drive(port: int, expected: dict, seconds: float, log: list) -> tuple:
    """Run both clients for ``seconds``; returns (analyst, viewer)."""
    deadline = time.perf_counter() + seconds
    analyst = Analyst(Client(port, "analyst", log), expected)
    viewer = Client(port, "viewer", log)

    def analyst_loop():
        while time.perf_counter() < deadline:
            analyst.cycle()

    def viewer_loop():
        for path in itertools.cycle(VIEWER_PATHS):
            if time.perf_counter() >= deadline:
                break
            viewer.call("GET", path, kind="read")

    threads = [threading.Thread(target=analyst_loop), threading.Thread(target=viewer_loop)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
    analyst.client.close()
    viewer.close()
    return analyst, viewer


def final_checks(port: int, expected: dict, data: dict, last_ml_version) -> dict:
    """Output quality and store fidelity, read back over REST after timing."""
    from repro.core.quality import accuracy_against
    from repro.dataframe import DataFrame
    from repro.ml import detection_scores

    log: list = []
    client = Client(port, "check", log)
    failed = 0
    out = {"detect_f1": 0.0, "repair_accuracy": 0.0, "lost": 0, "compared": 1}
    try:
        columns = data["dirty"].column_names

        def frame_of(rows):
            return DataFrame.from_dict({c: [row[c] for row in rows] for c in columns})

        client.call("POST", f"/datasets/{DATASET}/versions/restore", {"version": 0},
                    kind="write")
        status, preview = client.call("GET", f"/datasets/{DATASET}?limit={ALL_ROWS}")
        if status:
            out["lost"], out["compared"] = common.lost_cells(
                data["dirty"], frame_of(preview["rows"])
            )
        client.call("POST", f"/datasets/{DATASET}/detect", {"tools": TOOLS}, kind="write")
        status, found = client.call(
            "GET", f"/datasets/{DATASET}/detections?limit={ALL_ROWS}"
        )
        if status:
            cells = sorted((c["row"], c["column"]) for c in found["cells"])
            if common.digest(cells) != expected["cells_digest"]:
                failed += 1
                client.fail("REST detections differ from in-process detections")
            out["detect_f1"] = detection_scores(cells, data["mask"])["f1"]
        if last_ml_version is not None:
            client.call("POST", f"/datasets/{DATASET}/versions/restore",
                        {"version": last_ml_version}, kind="write")
            status, preview = client.call("GET", f"/datasets/{DATASET}?limit={ALL_ROWS}")
            if status:
                rows = preview["rows"]
                if common.digest(rows) != expected["repaired_digest"]:
                    failed += 1
                    client.fail("REST repaired rows differ from in-process repair")
                out["repair_accuracy"] = accuracy_against(frame_of(rows), data["clean"])
    finally:
        client.close()
    out["attempted"] = len(log)
    out["failed"] = failed + sum(1 for entry in log if not entry[6])
    out["errors"] = client.errors
    return out
