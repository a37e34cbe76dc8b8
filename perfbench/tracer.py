"""In-memory span tracer for traced runs of the system under test.

The tracer wraps public functions of ``repro`` from the outside (nothing in
``src/`` is touched).  Each wrapped call is a span on its thread's stack;
when it ends, its *self* time (duration minus nested spans) is charged to
its layer.  Counter deltas read inside a span (``stage_seconds()``,
``adaptation_stats()``, ``transport_stats()``) are charged as *virtual*
children, so a session's close stages come out of the ingest call's self
time.  Per thread, layer self times + idle + unaccounted = wall time, where
wall runs from the thread's first traced call to its last and unaccounted is
what no wrapper saw.

Coarse spans (name, start, end, parent, thread, tag) are kept in memory and
written with the per-thread books by :meth:`Tracer.dump`; per-record calls
only add to their thread's layer totals.
"""

from __future__ import annotations

import json
import threading
import time

#: Layers that count as a thread waiting, not working.
IDLE_LAYERS = ("idle",)

_clock = time.perf_counter


class ThreadBook:
    __slots__ = ("name", "stack", "first", "last", "self_s", "calls")

    def __init__(self, name: str):
        self.name = name
        self.stack: list = []
        self.first = None
        self.last = None
        self.self_s: dict = {}
        self.calls: dict = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.books: "list[ThreadBook]" = []
        self.spans: list = []
        #: Free-form per-run facts gathered by the wrappers (queue waits,
        #: checkpoint sizes, pauses).
        self.extra: dict = {}

    def book(self) -> ThreadBook:
        book = getattr(self._local, "book", None)
        if book is None:
            book = ThreadBook(threading.current_thread().name)
            self._local.book = book
            with self._lock:
                self.books.append(book)
        return book

    # -- spans -----------------------------------------------------------
    def enter(self, layer: str, tag=None) -> list:
        book = self.book()
        frame = [layer, _clock(), 0.0, tag, book]
        if book.first is None:
            book.first = frame[1]
        book.stack.append(frame)
        return frame

    def virtual(self, frame: list, layer: str, seconds: float) -> None:
        """Charge ``seconds`` measured by the program's own counters inside
        ``frame`` to ``layer`` as if it were a nested span."""
        if seconds <= 0.0:
            return
        book = frame[4]
        book.self_s[layer] = book.self_s.get(layer, 0.0) + seconds
        frame[2] += seconds

    def exit(self, frame: list, record: bool = True) -> float:
        end = _clock()
        layer, start, child, tag, book = frame
        book.stack.pop()
        duration = end - start
        book.self_s[layer] = book.self_s.get(layer, 0.0) + (duration - child)
        book.calls[layer] = book.calls.get(layer, 0) + 1
        book.last = end
        parent = None
        if book.stack:
            book.stack[-1][2] += duration
            parent = book.stack[-1][0]
        if record:
            self.spans.append((layer, start, end, parent, book.name, tag))
        return duration

    def leaf(self, fn, layer: str):
        """Wrap a hot per-record function: thread totals only, no span kept."""
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame, record=False)

        wrapper.__wrapped__ = fn
        return wrapper

    def add(self, key: str, value) -> None:
        with self._lock:
            self.extra.setdefault(key, []).append(value)

    # -- output ----------------------------------------------------------
    def thread_table(self) -> list:
        rows = []
        for book in self.books:
            if book.first is None or book.last is None:
                continue
            wall = book.last - book.first
            layers = {k: v for k, v in book.self_s.items() if k not in IDLE_LAYERS}
            idle = sum(book.self_s.get(k, 0.0) for k in IDLE_LAYERS)
            rows.append(
                {
                    "thread": book.name,
                    "wall_s": wall,
                    "layers_s": layers,
                    "idle_s": idle,
                    "unaccounted_s": wall - idle - sum(layers.values()),
                    "calls": dict(book.calls),
                }
            )
        return rows

    def dump(self, path) -> None:
        document = {
            "threads": self.thread_table(),
            "spans": self.spans,
            "extra": self.extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def stage_snapshot(session) -> tuple:
    """(hierarchy, creating+detecting, adapt) seconds of a session so far."""
    stages = session.stage_seconds()
    adapt = session.adaptation_stats().get("adapt_seconds", 0.0)
    return (
        stages.get("updating_hierarchies", 0.0),
        stages.get("creating_time_series", 0.0)
        + stages.get("detecting_anomalies", 0.0),
        adapt,
    )


def install_session_layers(tracer: Tracer) -> None:
    """Wrap the detection core: session ingest/flush, adaptation planning
    and JSONL alert egress (shared by the daemon and the library driver)."""
    import repro.core.ada as ada
    from repro.engine.session import DetectionSession
    from repro.service.alerts import JsonlAlertSink

    plan_original = ada.plan_adaptation
    plan_box = [0.0]

    def plan_adaptation(*args, **kwargs):
        frame = tracer.enter("adapt.plan")
        try:
            return plan_original(*args, **kwargs)
        finally:
            plan_box[0] += tracer.exit(frame, record=False)

    ada.plan_adaptation = plan_adaptation

    def closing(method, layer):
        def wrapper(self, *args, **kwargs):
            frame = tracer.enter(layer, getattr(self, "name", None))
            before = stage_snapshot(self)
            plan_before = plan_box[0]
            try:
                return method(self, *args, **kwargs)
            finally:
                after = stage_snapshot(self)
                hierarchy = after[0] - before[0]
                close = after[1] - before[1]
                adapt = after[2] - before[2]
                plan = plan_box[0] - plan_before
                tracer.virtual(frame, "hierarchy", hierarchy)
                tracer.virtual(frame, "forecast_detect", close - adapt)
                tracer.virtual(frame, "adapt.apply", adapt - plan)
                tracer.exit(frame)

        return wrapper

    DetectionSession.ingest_record_batch = closing(
        DetectionSession.ingest_record_batch, "classify"
    )
    DetectionSession.flush = closing(DetectionSession.flush, "flush")

    on_anomaly = JsonlAlertSink.on_anomaly

    def traced_on_anomaly(self, session, anomaly):
        frame = tracer.enter("alert")
        try:
            return on_anomaly(self, session, anomaly)
        finally:
            tracer.exit(frame, record=False)

    JsonlAlertSink.on_anomaly = traced_on_anomaly
