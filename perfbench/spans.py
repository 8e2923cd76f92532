"""Spans around the program's public entry points, kept in memory.

The benchmark traces from outside: :func:`install` wraps class methods
in one place and module-level functions at every module that imported
them by name, and each wrapper records a span (name, start, end,
parent) while the tracer is enabled. Disabled, a wrapper costs one
attribute check. Spans stay in memory until :meth:`Tracer.dump`;
:func:`self_times` turns them into per-layer self time.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator


class Tracer:
    """In-memory span recorder; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict]:
        """Record ``name`` around the block; yields its mutable attrs."""
        if not self.enabled:
            yield attrs
            return
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the interpreter lock.
            self.spans.append((span_id, parent, name, start, end, attrs))

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "attrs": attrs,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: count, total and self seconds, and bytes moved.

    A span's self time is its duration minus the time its children
    cover. Children share their parent's thread and nest inside it, so
    they never overlap and their durations simply add up.
    """
    child_time: dict[int, float] = {}
    for _, parent, _, start, end, _ in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, dict[str, float]] = {}
    for span_id, _, name, start, end, attrs in spans:
        entry = out.setdefault(
            name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0}
        )
        entry["count"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time.get(span_id, 0.0)
        entry["bytes"] += attrs.get("bytes", 0)
    return out


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap(
    tracer: Tracer,
    owner: Any,
    attr: str,
    name: str | Callable[[Any], str],
    bytes_of: Callable[[tuple, dict], int] | None = None,
) -> None:
    """Trace ``owner.attr``; a callable ``name`` gets the first argument."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        span_name = name if isinstance(name, str) else name(args[0])
        with tracer.span(span_name) as attrs:
            result = original(*args, **kwargs)
        if bytes_of is not None:
            attrs["bytes"] = bytes_of(args, kwargs)
        return result

    setattr(owner, attr, wrapper)


def _file_size(args: tuple, kwargs: dict, index: int) -> int:
    path = args[index] if len(args) > index else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class _CountingLines:
    """Iterates CSV lines and counts their UTF-8 bytes into ``attrs``."""

    def __init__(self, lines, attrs: dict) -> None:
        self._lines = iter(lines)
        self._attrs = attrs

    def __iter__(self):
        return self

    def __next__(self) -> str:
        line = next(self._lines)
        self._attrs["bytes"] = self._attrs.get("bytes", 0) + len(
            line.encode("utf-8")
        )
        return line


def _wrap_stream_reader(tracer: Tracer, owner: Any, attr: str) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(lines, *args, **kwargs):
        if not tracer.enabled:
            return original(lines, *args, **kwargs)
        with tracer.span("io.read_csv") as attrs:
            return original(_CountingLines(lines, attrs), *args, **kwargs)

    setattr(owner, attr, wrapper)


class _EnterSpan:
    """Context manager whose ``__enter__`` alone is traced (lock waits)."""

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer, self._name, self._inner = tracer, name, inner

    def __enter__(self):
        with self._tracer.span(self._name):
            return self._inner.__enter__()

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)


class _BlockSpan:
    """Context manager traced from ``__enter__`` to ``__exit__``."""

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer, self._name, self._inner = tracer, name, inner
        self._span = None

    def __enter__(self):
        self._span = self._tracer.span(self._name)
        self._span.__enter__()
        return self._inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._span.__exit__(None, None, None)


def _wrap_cm(tracer: Tracer, owner: Any, attr: str, name: str, cm_type) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        inner = original(*args, **kwargs)
        if not tracer.enabled:
            return inner
        return cm_type(tracer, name, inner)

    setattr(owner, attr, wrapper)


def _route_class(request) -> str:
    """``GET /datasets/{name}/profile`` from a dispatched request."""
    path = request.path.split("?", 1)[0]
    for key, value in (request.path_params or {}).items():
        path = path.replace(value, "{" + key + "}")
    return f"{request.method.upper()} {path}"


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the program; call once per process."""
    from repro.api import app as api_app
    from repro.api.http import Router
    from repro.api.jobs import RWLock
    from repro.core import controller
    from repro.core.controller import DataLensSession
    from repro.detection.base import Detector
    from repro.ingestion import loader
    from repro.ml.tree import _BaseDecisionTree
    from repro.optimize.study import Study
    from repro.repair.base import Repairer
    from repro.tracking.client import TrackingClient
    from repro.versioning import table
    from repro.versioning.table import DeltaTable

    _wrap(tracer, _BaseDecisionTree, "fit", "ml.tree_fit")
    _wrap(tracer, Repairer, "repair", lambda self: f"repair.{self.name}")
    _wrap(tracer, Detector, "detect", lambda self: f"detection.{self.name}")
    _wrap(tracer, Study, "optimize", "iterative.trial")
    _wrap(tracer, controller, "quality_summary", "quality.summary")
    _wrap_cm(tracer, TrackingClient, "start_run", "tracking.log", _BlockSpan)
    _wrap(tracer, DeltaTable, "write", "versioning.commit")
    _wrap(tracer, DeltaTable, "read", "versioning.read")
    _wrap(tracer, DeltaTable, "history", "versioning.history")

    # CSV functions are imported by name: patch each binding site.
    def path_size(index: int) -> Callable[[tuple, dict], int]:
        return lambda args, kwargs: _file_size(args, kwargs, index)

    for module in (loader, table):
        _wrap(tracer, module, "read_csv", "io.read_csv", path_size(0))
        _wrap(tracer, module, "write_csv", "io.write_csv", path_size(1))
    _wrap(tracer, loader, "read_csv_chunked", "io.read_csv", path_size(0))
    _wrap_stream_reader(tracer, loader, "read_csv_stream")
    for module in (loader, api_app):
        _wrap(
            tracer, module, "read_csv_text", "io.read_csv",
            lambda args, kwargs: len(args[0].encode("utf-8")),
        )

    # The first profile of a session object is cold; later ones re-profile
    # through the session's artifact store. Sessions are remembered while
    # tracing is off too, so toggling it never relabels a warm profile.
    profiled: weakref.WeakSet = weakref.WeakSet()
    original_profile = DataLensSession.profile

    @functools.wraps(original_profile)
    def profile(self, *args, **kwargs):
        name = "profiling.warm" if self in profiled else "profiling.cold"
        profiled.add(self)
        with tracer.span(name):
            return original_profile(self, *args, **kwargs)

    DataLensSession.profile = profile

    original_dispatch = Router.dispatch

    @functools.wraps(original_dispatch)
    def dispatch(self, request):
        if not tracer.enabled:
            return original_dispatch(self, request)
        rid = request.headers.get("x-request-id")
        kind = "read" if request.method.upper() == "GET" else "write"
        with tracer.span(f"api.dispatch.{kind}", rid=rid) as attrs:
            response = original_dispatch(self, request)
        attrs["route"] = _route_class(request)
        attrs["status"] = response.status
        return response

    Router.dispatch = dispatch
    _wrap_cm(tracer, RWLock, "read_lock", "api.lock_wait.read", _EnterSpan)
    _wrap_cm(tracer, RWLock, "write_lock", "api.lock_wait.write", _EnterSpan)
