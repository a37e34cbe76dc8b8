"""Library driver: the system under test of the two replay workloads.

Usage: ``python perfbench/driver.py SPEC.json RESULT.json [SPANS.json]``.

It maps a ``.rcol`` trace with ``repro.io.columnar.read_trace_batches`` and
feeds it to one ``DetectionSession`` (or, when the spec has a ``sharding``
block, to a ``ShardedDetectionEngine``), with a ``JsonlAlertSink`` as alert
egress.  It prints one ``READY`` line once it can take input (session or
engine built, workers started, first batch mapped), replays the whole trace,
flushes, and writes its measurements to ``RESULT.json``.  With a third
argument the replay runs under the benchmark's tracer.
"""

from __future__ import annotations

import time

STARTED_UNIX = time.time()

import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from procs import vm_hwm_kb  # noqa: E402


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)

    import repro  # noqa: F401
    from repro.io.columnar import read_trace_batches
    from repro.service.alerts import JsonlAlertSink
    from repro.service.config import TenantSpec

    imported_unix = time.time()
    tracer = None
    if spans_path is not None:
        from tracer import Tracer, install_session_layers

        tracer = Tracer()
        install_session_layers(tracer)

    tenant = TenantSpec.from_dict(spec["tenant"])
    sharding = spec.get("sharding")
    engine = None
    if sharding is None:
        target = tenant.build_session()
    else:
        from repro.engine.sharded import ShardedDetectionEngine

        engine = ShardedDetectionEngine(
            num_workers=sharding["workers"], transport=sharding["transport"]
        )
        engine.add_session(
            tenant.name,
            tenant.tree,
            tenant.config,
            clock=tenant.clock,
            subtree_shards=sharding["subtree_shards"],
        )
        engine.units_processed()  # starts the workers
        target = engine
    built_unix = time.time()
    sink = JsonlAlertSink(spec["alerts"])
    target.subscribe(sink)
    batches = read_trace_batches(spec["rcol"], batch_size=spec["batch_size"])
    first = next(batches)
    print(json.dumps({"ready": True}), flush=True)
    ready_unix = time.time()

    if tracer is not None and engine is not None:
        install_coordinator_layer(tracer, engine)

    clock = time.perf_counter
    offers = []  # (first record index, offered unix)
    acks = []
    read_s = 0.0
    records = 0
    units = 0
    transport_before = engine.transport_stats() if engine is not None else None
    frame = tracer.enter("driver") if tracer is not None else None
    cpu_start = sum(os.times()[:2])
    start = clock()
    batch = first
    while batch is not None:
        due = clock()
        offers.append((records, time.time()))
        closed = target.ingest_record_batch(batch)
        acks.append(clock() - due)
        units += _count(closed)
        records += len(batch)
        read_start = clock()
        if tracer is not None:
            read = tracer.enter("read")
        batch = next(batches, None)
        if tracer is not None:
            tracer.exit(read, record=False)
        read_s += clock() - read_start
    units += _count(target.flush())
    wall = clock() - start
    cpu = sum(os.times()[:2]) - cpu_start
    if tracer is not None:
        tracer.exit(frame)

    if engine is None:
        stages = target.stage_seconds()
        adaptation = target.adaptation_stats()
        profile = target.close_profile()
        anomalies = [a.to_dict() for a in target.anomalies]
        transport = None
    else:
        stages = engine.stage_seconds()[tenant.name]
        adaptation = engine.adaptation_stats()[tenant.name]
        profile = engine.close_profile()[tenant.name]
        anomalies = [a.to_dict() for a in engine.anomalies()[tenant.name]]
        after = engine.transport_stats()
        transport = {
            key: after[key] - transport_before[key]
            for key in (
                "ships", "collects", "ship_bytes", "ship_serialized_bytes",
                "ship_seconds", "collect_seconds",
            )
        }
    hwm = vm_hwm_kb(os.getpid()) + sum(
        vm_hwm_kb(child.pid) for child in multiprocessing.active_children()
    )
    if engine is not None:
        engine.close()
    sink.close()
    result = {
        "started_unix": STARTED_UNIX,
        "imported_unix": imported_unix,
        "built_unix": built_unix,
        "ready_unix": ready_unix,
        "wall_s": wall,
        "cpu_s": cpu,
        "records": records,
        "units_closed": units,
        "offers": offers,
        "acks_s": acks,
        "read_s": read_s,
        "stages": stages,
        "adaptation": adaptation,
        "close_profile": {k: v for k, v in profile.items() if k != "close_time"},
        "transport": transport,
        "anomalies": anomalies,
        "vm_hwm_kb": hwm,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


def _count(closed) -> int:
    if isinstance(closed, dict):
        return sum(len(results) for results in closed.values())
    return len(closed)


def install_coordinator_layer(tracer, engine) -> None:
    """Split the sharded engine's calls into ship, collect and the
    coordinator's own work (partition, frontier replay, merge)."""
    cls = type(engine)

    def wrap(method):
        def wrapper(self, *args, **kwargs):
            frame = tracer.enter("coordinator")
            before = self.transport_stats()
            try:
                return method(self, *args, **kwargs)
            finally:
                after = self.transport_stats()
                tracer.virtual(
                    frame, "transport.ship", after["ship_seconds"] - before["ship_seconds"]
                )
                tracer.virtual(
                    frame,
                    "transport.collect",
                    after["collect_seconds"] - before["collect_seconds"],
                )
                tracer.exit(frame)

        return wrapper

    cls.ingest_record_batch = wrap(cls.ingest_record_batch)
    cls.flush = wrap(cls.flush)


if __name__ == "__main__":
    sys.exit(main())
