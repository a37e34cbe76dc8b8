"""Benchmark of record: daemon backfill and live latency, library and
sharded replay, split by layer.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --fingerprint

Runs whole rounds of the workload for at least ``--seconds`` seconds, checks
every round's outputs, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--fingerprint`` only regenerates the inputs and prints their counts and
SHA-256.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import procs  # noqa: E402

WORKLOADS = (
    "backfill-socket-scd",
    "live-http-tenants",
    "replay-library-churn",
    "replay-sharded-churn",
)
DAEMON_LEGS = WORKLOADS[:2]
#: The thread that runs detection in the system under test, per leg.
MAIN_THREAD = {True: "repro-ingest-worker", False: "MainThread"}

END_TO_END_UNITS = {
    "records_per_s": "rec/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "recall": "ratio",
    "precision": "ratio",
}
#: Latencies are printed on their own line, not as metrics: on a 2-vCPU
#: host whose speed drifts, their spread over ten seeds exceeded 0.25 of the
#: median (see README, "Steadiness").
LATENCY_METRICS = ("ack_p50_ms", "ack_p95_ms", "alert_lag_p50_ms", "alert_lag_p95_ms")
PER_LAYER_UNITS = {
    "parse.us_per_record": "us",
    "admit.pauses": "count",
    "queue.wait_p50_ms": "ms",
    "queue.depth_max": "batches",
    "worker.busy_share": "ratio",
    "setup.activate_ms": "ms",
    "setup.spawn_ms": "ms",
    "classify.us_per_record": "us",
    "hierarchy.ms_per_unit": "ms",
    "adapt.plan_ms_per_unit": "ms",
    "adapt.apply_ms_per_unit": "ms",
    "forecast_detect.ms_per_unit": "ms",
    "close.planned_units": "count",
    "close.fastpath_units": "count",
    "close.fused_units": "count",
    "adapt.splits": "count",
    "adapt.merges": "count",
    "read.ms": "ms",
    "alert.us_per_alert": "us",
    "checkpoint.write_ms": "ms",
    "checkpoint.bytes": "bytes",
    "transport.ship_ms": "ms",
    "transport.collect_wait_ms": "ms",
    "transport.round_trips": "count",
    "transport.ship_bytes": "bytes",
    "transport.serialized_bytes": "bytes",
    "shard.coordinator_ms": "ms",
    "generator.late_p99_ms": "ms",
    "trace.overhead_share": "ratio",
    "trace.unaccounted_share": "ratio",
}


def percentile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def serial_reference(prepared) -> list:
    """Alerts of one in-process serial DetectionSession per tenant, fed the
    tenant's records in offer order."""
    from repro.engine.session import DetectionSession
    from repro.streaming.batch import iter_record_batches

    alerts = []
    for tenant in prepared.tenants:
        session = DetectionSession(
            tenant.tree, tenant.config, clock=tenant.clock, name=tenant.name
        )
        records = [record for name, record in prepared.stream if name == tenant.name]
        for batch in iter_record_batches(records, 4096):
            session.ingest_record_batch(batch)
        session.flush()
        alerts.extend((tenant.name, anomaly.to_dict()) for anomaly in session.anomalies)
    return alerts


class Judge:
    """Runs every output check of a round against the prepared inputs."""

    def __init__(self, prepared, reference):
        self.prepared = prepared
        self.reference = reference
        self.configs = {t.name: t.config for t in prepared.tenants}
        self.counts = {t.name: t.counts_under() for t in prepared.tenants}
        self.units = {t.name: t.units_expected() for t in prepared.tenants}

    def failures(self, out: dict) -> list:
        alerts = [(tenant, anomaly) for tenant, anomaly, _ in out["alerts"]]
        found = checks.check_records(
            self.prepared.records, out["accepted"], out["processed"]
        )
        found += checks.check_units(out["units_closed"], self.units)
        found += checks.check_rule(alerts, self.configs)
        found += checks.check_actuals(alerts, self.counts)
        if self.reference is not None:
            found += checks.check_same(alerts, self.reference, "serial reference")
        if "reported" in out:
            found += checks.check_same(alerts, out["reported"], "alert log vs session")
        return found


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def alert_lags(prepared, out: dict) -> list:
    firsts = [first for first, _ in out["offers"]]
    lags = []
    for tenant, anomaly, emitted in out["alerts"]:
        index = prepared.closing.get((tenant, anomaly["timeunit"]))
        if index is None:
            continue  # closed by the final flush, not by a record
        offered = out["offers"][bisect.bisect_right(firsts, index) - 1][1]
        lags.append(emitted - offered)
    return lags


def end_to_end(prepared, rounds: list) -> dict:
    """End-to-end metrics of a run, each taken per round first.

    Throughput, set-up, memory and the 50th percentiles report the median
    over rounds.  The 95th percentiles report the lowest round: bursts of
    host load hit some rounds and not others, while costs that recur in
    every round (checkpoint barriers, closes) stay in every round's tail.
    """
    lags = [alert_lags(prepared, out) for out in rounds]
    cases = {tenant.name: tenant.cases() for tenant in prepared.tenants}
    recall, precision = checks.accuracy(
        [(tenant, anomaly) for tenant, anomaly, _ in rounds[0]["alerts"]], cases
    )
    median = statistics.median
    return {
        "records_per_s": median(prepared.records / out["wall_s"] for out in rounds),
        "ack_p50_ms": median(percentile(out["acks_s"], 0.50) for out in rounds) * 1e3,
        "ack_p95_ms": min(percentile(out["acks_s"], 0.95) for out in rounds) * 1e3,
        "alert_lag_p50_ms": median(percentile(lag, 0.50) for lag in lags) * 1e3,
        "alert_lag_p95_ms": min(percentile(lag, 0.95) for lag in lags) * 1e3,
        "setup_s": median(out["setup_s"] for out in rounds),
        "peak_rss_mb": median(out["vm_hwm_kb"] / 1024 for out in rounds),
        "recall": recall,
        "precision": precision,
    }


def _summed(out: dict, section: str, key: str) -> float:
    return sum(
        float(stats[section].get(key, 0.0) or 0.0)
        for stats in out["tenant_stats"].values()
    )


def per_layer(prepared, out: dict) -> dict:
    daemon = prepared.workload in DAEMON_LEGS
    spans = out["spans"]
    threads = spans["threads"]
    extra = spans["extra"]

    def layer(name: str) -> float:
        return sum(row["layers_s"].get(name, 0.0) for row in threads)

    records = prepared.records
    units = sum(out["units_closed"].values())
    hierarchy = _summed(out, "stages", "updating_hierarchies")
    close = _summed(out, "stages", "creating_time_series") + _summed(
        out, "stages", "detecting_anomalies"
    )
    adapt = _summed(out, "adaptation", "adapt_seconds")
    plan = layer("adapt.plan")
    main = [row for row in threads if row["thread"] == MAIN_THREAD[daemon]]
    main_wall = sum(row["wall_s"] for row in main) or 1.0
    waiting = sum(row["idle_s"] + row["layers_s"].get("transport.collect", 0.0) for row in main)
    checkpoints = extra.get("checkpoint", [])
    transport = out.get("transport") or {}
    return {
        "parse.us_per_record": layer("parse") / records * 1e6,
        "admit.pauses": len(extra.get("pauses", [])),
        "queue.wait_p50_ms": percentile(extra.get("queue_wait_s", []), 0.5) * 1e3,
        "queue.depth_max": max(extra.get("depth", [0])),
        "worker.busy_share": 1.0 - waiting / main_wall,
        "setup.activate_ms": (
            sum(extra.get("activate_s", [])) if daemon else out["activate_s"]
        )
        * 1e3,
        "setup.spawn_ms": out["spawn_s"] * 1e3,
        "classify.us_per_record": layer("classify") / records * 1e6,
        "hierarchy.ms_per_unit": hierarchy / units * 1e3,
        "adapt.plan_ms_per_unit": plan / units * 1e3,
        "adapt.apply_ms_per_unit": (adapt - plan) / units * 1e3,
        "forecast_detect.ms_per_unit": (close - adapt) / units * 1e3,
        "close.planned_units": _summed(out, "adaptation", "planned_units"),
        "close.fastpath_units": _summed(out, "adaptation", "fastpath_units"),
        "close.fused_units": _summed(out, "close_profile", "fused_units"),
        "adapt.splits": _summed(out, "adaptation", "split_operations"),
        "adapt.merges": _summed(out, "adaptation", "merge_operations"),
        "read.ms": out.get("read_s", 0.0) * 1e3,
        "alert.us_per_alert": layer("alert") / max(1, len(out["alerts"])) * 1e6,
        "checkpoint.write_ms": percentile([s for s, _ in checkpoints], 0.5) * 1e3,
        "checkpoint.bytes": percentile([b for _, b in checkpoints], 0.5),
        "transport.ship_ms": transport.get("ship_seconds", 0.0) * 1e3,
        "transport.collect_wait_ms": transport.get("collect_seconds", 0.0) * 1e3,
        "transport.round_trips": transport.get("collects", 0),
        "transport.ship_bytes": transport.get("ship_bytes", 0),
        "transport.serialized_bytes": transport.get("ship_serialized_bytes", 0),
        "shard.coordinator_ms": layer("coordinator") * 1e3,
        "generator.late_p99_ms": percentile(out["late_s"], 0.99) * 1e3,
        "trace.unaccounted_share": sum(row["unaccounted_s"] for row in main) / main_wall,
    }


def print_threads(out: dict) -> None:
    """Per-thread sums of one traced round: layers + idle + unaccounted = wall."""
    for row in out["spans"]["threads"]:
        parts = " ".join(
            f"{name}={seconds * 1e3:.1f}"
            for name, seconds in sorted(row["layers_s"].items())
        )
        total = sum(row["layers_s"].values()) + row["idle_s"] + row["unaccounted_s"]
        print(
            f"thread {row['thread']}: wall_ms={row['wall_s'] * 1e3:.1f} = "
            f"layers[{parts}] + idle={row['idle_s'] * 1e3:.1f} + "
            f"unaccounted={row['unaccounted_s'] * 1e3:.1f} "
            f"(sum {total * 1e3:.1f})"
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fingerprint",
        action="store_true",
        help="regenerate the inputs, print their fingerprints and exit",
    )
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no src/repro under {ROOT}; run from a checkout of the "
            f"repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import legs

    signal.signal(signal.SIGTERM, _terminate)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        prepared = legs.prepare(args.workload, args.seed, work)
        print("inputs " + json.dumps(prepared.fingerprints(), sort_keys=True), flush=True)
        if args.fingerprint:
            return 0
        reference = (
            serial_reference(prepared)
            if args.workload in DAEMON_LEGS or args.workload == "replay-sharded-churn"
            else None
        )
        judge = Judge(prepared, reference)
        rounds = []
        failures = []
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            out = legs.run_round(ROOT, work / f"round-{len(rounds)}", prepared, traced)
            out["traced"] = traced
            failures += [f"round {len(rounds)}: {f}" for f in judge.failures(out)]
            rounds.append(out)
            if time.perf_counter() >= deadline and (not args.trace or len(rounds) >= 2):
                break
        attempted = sum(out["ops"].attempted for out in rounds)
        failed = sum(out["ops"].failed for out in rounds)
        for out in rounds:
            for note in out["ops"].notes:
                print(f"failed operation: {note}")
        for failure in failures:
            print(f"check failed: {failure}")
        plain = [out for out in rounds if not out["traced"]]
        if args.trace:
            traced_rounds = [out for out in rounds if out["traced"]]
            layers = [per_layer(prepared, out) for out in traced_rounds]
            values = {
                name: statistics.median(layer[name] for layer in layers)
                for name in PER_LAYER_UNITS
                if name != "trace.overhead_share"
            }
            values["trace.overhead_share"] = (
                statistics.median(out["sut_cpu_s"] for out in traced_rounds)
                / max(1e-9, statistics.median(out["sut_cpu_s"] for out in plain))
                - 1.0
            )
            print_threads(traced_rounds[-1])
            units = PER_LAYER_UNITS
        else:
            values = end_to_end(prepared, plain)
            units = END_TO_END_UNITS
            print(
                "latency "
                + " ".join(f"{name}={values[name]:.3f}" for name in LATENCY_METRICS)
                + f" (acks per round {len(plain[0]['acks_s'])}, "
                f"alerts per round {len(plain[0]['alerts'])})"
            )
        print(
            f"rounds {len(rounds)} ({len(plain)} untraced), records per round "
            f"{prepared.records}, alerts per round {len(rounds[0]['alerts'])}, "
            f"rec/s by round "
            + " ".join(f"{prepared.records / out['wall_s']:.0f}" for out in rounds)
        )
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        procs.reap_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
