"""The REST server of the ``rest_dashboard`` workload, as a child process.

``run.py`` starts it, reads ``{"port": N}`` from its first output line,
and drives it over a socket. Commands arrive one per line on stdin:
``trace on`` / ``trace off`` toggle span recording (``--trace 1``
only), and ``stop`` (or end of input) shuts the server down. On exit it
writes its spans, per-layer self times and peak resident memory under
``--work`` and prints ``stopped``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    common.use_checkout_sources()
    from repro import DataLens
    from repro.api import create_app, serve
    from spans import Tracer, install, self_times

    work = Path(args.work)
    tracer = Tracer()
    if args.trace:
        install(tracer)
    lens = DataLens(work / "workspace", seed=0)
    router = create_app(lens)
    server = serve(router, port=0)
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stop":
                break
            if command in ("trace on", "trace off") and args.trace:
                tracer.enabled = command == "trace on"
            print("ok", flush=True)
    finally:
        tracer.enabled = False
        server.shutdown()
        router.job_queue.shutdown()
        tracer.dump(work / "spans.jsonl")
        summary = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "layers": self_times(tracer.spans),
        }
        (work / "server.json").write_text(json.dumps(summary), encoding="utf-8")
    print("stopped", flush=True)


if __name__ == "__main__":
    main()
