"""``python -m repro.service`` under the benchmark's tracer.

Usage: ``python perfbench/traced_service.py SPANS.json PER_RECORD <repro.service
args>`` where ``PER_RECORD`` is 1 to time the socket path's per-line decode.
Installs the layer wrappers, runs the daemon's own CLI as ``__main__`` and
writes the spans and per-thread books to ``SPANS.json`` when it exits.
"""

from __future__ import annotations

import concurrent.futures.thread as futures_thread
import json
import os
import queue
import runpy
import selectors
import sys
import time
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, install_session_layers  # noqa: E402


def install(tracer: Tracer, per_record: bool) -> None:
    import repro.service.http as http
    from repro.service.manager import SessionManager
    from repro.service.worker import IngestWorker
    from repro.streaming.batch import ColumnAccumulator

    install_session_layers(tracer)

    # Front end: NDJSON decoding.  The HTTP path's whole-request parse is a
    # recorded span tagged with a request number.  The socket path decodes
    # line by line (``json.loads`` is looked up at call time), so with
    # ``per_record`` those two calls are timed per record.
    if per_record:
        json.loads = tracer.leaf(json.loads, "parse")
        ColumnAccumulator.add_json_object = tracer.leaf(
            ColumnAccumulator.add_json_object, "parse"
        )
    parse = http.parse_ndjson_batches
    requests = [0]

    def parse_ndjson_batches(payload, **kwargs):
        requests[0] += 1
        frame = tracer.enter("parse", requests[0])
        try:
            return parse(payload, **kwargs)
        finally:
            tracer.exit(frame)

    http.parse_ndjson_batches = parse_ndjson_batches

    # Admission and queue: stamp each admitted batch, measure its wait when
    # the worker picks it up.
    submitted: dict = {}
    try_submit = IngestWorker.try_submit

    def traced_try_submit(self, items):
        frame = tracer.enter("admit")
        try:
            admitted = try_submit(self, items)
        finally:
            tracer.exit(frame, record=False)
        if admitted:
            now = time.perf_counter()
            for _, batch in items:
                submitted[id(batch)] = now
            tracer.add("depth", self.depth())
        return admitted

    IngestWorker.try_submit = traced_try_submit

    note = IngestWorker.note_backpressure_wait

    def traced_note(self):
        tracer.add("pauses", 1)
        return note(self)

    IngestWorker.note_backpressure_wait = traced_note

    ingest_batch = SessionManager.ingest_batch
    batches = [0]

    def traced_ingest_batch(self, name, batch):
        batches[0] += 1
        frame = tracer.enter("manager", batches[0])
        start = submitted.pop(id(batch), None)
        if start is not None:
            tracer.add("queue_wait_s", frame[1] - start)
        try:
            return ingest_batch(self, name, batch)
        finally:
            tracer.exit(frame)

    SessionManager.ingest_batch = traced_ingest_batch

    session = SessionManager.session

    def traced_session(self, name):
        before = self.activations_total
        frame = tracer.enter("manager")
        try:
            return session(self, name)
        finally:
            if self.activations_total != before:
                frame[0] = "activate"
                tracer.add("activate_s", time.perf_counter() - frame[1])
            tracer.exit(frame, record=frame[0] == "activate")

    SessionManager.session = traced_session

    checkpoint_all = SessionManager.checkpoint_all

    def traced_checkpoint_all(self):
        frame = tracer.enter("checkpoint")
        written = {}
        try:
            written = checkpoint_all(self)
            return written
        finally:
            seconds = tracer.exit(frame)
            size = sum(os.path.getsize(path) for path in written.values())
            tracer.add("checkpoint", (seconds, size))

    SessionManager.checkpoint_all = traced_checkpoint_all

    # Waiting: the event loop's select, the worker's queue get, and the
    # barrier executor threads, parked either on their work queue or on a
    # barrier they submitted.
    selectors.EpollSelector.select = tracer.leaf(selectors.EpollSelector.select, "idle")
    queue.Queue.get = tracer.leaf(queue.Queue.get, "idle")
    IngestWorker.submit_call = tracer.leaf(IngestWorker.submit_call, "idle")

    class TracedSimpleQueue(queue.SimpleQueue):
        get = tracer.leaf(queue.SimpleQueue.get, "idle")

    futures_thread.queue = types.SimpleNamespace(
        SimpleQueue=TracedSimpleQueue, Empty=queue.Empty
    )


def main() -> int:
    spans_path, per_record = sys.argv[1], sys.argv[2] == "1"
    sys.argv = ["repro.service"] + sys.argv[3:]
    tracer = Tracer()
    install(tracer, per_record)
    try:
        runpy.run_module("repro.service", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
    else:
        code = 0
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
