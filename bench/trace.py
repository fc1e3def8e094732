"""In-memory span tracing for the benchmark's traced runs.

The library has no instrumentation of its own below the service layer,
so the benchmark records spans from the outside: :meth:`Tracer.install`
replaces each target function at the attribute its callers look up (a
class attribute for methods, and for module functions the defining
module's attribute plus every ``repro`` module attribute bound to the
same function object, because callers import names with ``from module
import name``).  :meth:`Tracer.uninstall`
puts the originals back.  Untraced runs never install anything, so they
pay nothing.

Spans nest through a :mod:`contextvars` variable, so every thread keeps
its own stack.  A span's self time is its duration minus the durations
of the spans it directly encloses on the same thread.  Spans stay in
memory until :meth:`Tracer.write_chrome` writes them as Chrome
trace-event JSON (``"ph": "X"`` complete events), which trace viewers
such as Perfetto or ``chrome://tracing`` open offline.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: the enclosing span's child-time accumulator (a one-item list), or None
_PARENT: contextvars.ContextVar = contextvars.ContextVar(
    "bench_trace_parent", default=None,
)


class Span(NamedTuple):
    name: str
    start_ns: int
    dur_ns: int
    self_ns: int
    tid: int
    args: Optional[Dict[str, Any]]


class Target(NamedTuple):
    """One function to wrap: ``module`` plus a dotted ``attr`` path
    (``"func"`` or ``"Class.method"``), recorded under span ``name``.

    ``before(args, kwargs)`` and ``after(result)`` may return a dict of
    span arguments (shard count, bytes written, scenario family, ...).
    """

    module: str
    attr: str
    name: str
    before: Optional[Callable[..., Optional[Dict[str, Any]]]] = None
    after: Optional[Callable[[Any], Optional[Dict[str, Any]]]] = None


class Tracer:
    """Collects spans from wrapped functions and explicit ``span()``
    blocks; thread-safe (appends are atomic under the interpreter lock)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.origin_ns = time.perf_counter_ns()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _enter(self):
        frame = [0]
        return frame, _PARENT.set(frame), time.perf_counter_ns()

    def _exit(self, name, frame, token, start, args) -> None:
        end = time.perf_counter_ns()
        _PARENT.reset(token)
        duration = end - start
        parent = _PARENT.get()
        if parent is not None:
            parent[0] += duration
        self.spans.append(Span(
            name, start, duration, duration - frame[0],
            threading.get_ident(), args,
        ))

    @contextlib.contextmanager
    def span(self, name: str, **args: Any):
        """Record the enclosed block as one span."""
        frame, token, start = self._enter()
        try:
            yield
        finally:
            self._exit(name, frame, token, start, args or None)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name, before, after = target.name, target.before, target.after

        if inspect.isgeneratorfunction(fn):
            # a generator's work happens inside next(); record each
            # resumption, so the consumer's code between items is not
            # charged to the generator
            @functools.wraps(fn)
            def gen_wrapper(*a, **k):
                args = before(a, k) if before is not None else None
                inner = fn(*a, **k)
                while True:
                    frame, token, start = self._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name, frame, token, start, args)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*a, **k):
            args = before(a, k) if before is not None else None
            frame, token, start = self._enter()
            try:
                result = fn(*a, **k)
            except BaseException:
                self._exit(name, frame, token, start, args)
                raise
            if after is not None:
                extra = after(result)
                if extra:
                    args = {**(args or {}), **extra}
            self._exit(name, frame, token, start, args)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def install(self, targets) -> None:
        for target in targets:
            module = importlib.import_module(target.module)
            owner_path, __, attr = target.attr.rpartition(".")
            if owner_path:
                owner = module
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(target, raw.__func__))
                else:
                    wrapped = self._wrap(target, raw)
                self._patch(owner, attr, raw, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(target, original)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    name.startswith("repro") or loaded is module
                ):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, self and inclusive seconds."""
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for span in self.spans:
            row = table[span.name]
            row["count"] += 1
            row["self_s"] += span.self_ns / 1e9
            row["total_s"] += span.dur_ns / 1e9
        return dict(table)

    def self_time_table(self) -> str:
        rows = sorted(
            self.totals().items(), key=lambda item: -item[1]["self_s"],
        )
        lines = [f"{'span':<40} {'count':>8} {'self ms':>11} {'total ms':>11}"]
        for name, row in rows:
            lines.append(
                f"{name:<40} {int(row['count']):>8d} "
                f"{row['self_s'] * 1e3:>11.1f} {row['total_s'] * 1e3:>11.1f}"
            )
        return "\n".join(lines)

    def write_chrome(self, path) -> None:
        """Write every span as a Chrome trace-event ``X`` event."""
        pid = os.getpid()
        events = [
            {
                "name": span.name,
                "cat": span.name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (span.start_ns - self.origin_ns) / 1e3,
                "dur": span.dur_ns / 1e3,
                "pid": pid,
                "tid": span.tid,
                "args": {
                    "self_us": span.self_ns / 1e3, **(span.args or {}),
                },
            }
            for span in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms"}, handle,
            )
