"""The four workloads: how each is prepared and how one round runs.

A round starts the system under test in its own process, times its set-up,
offers the whole prepared input once, waits for the final flush barrier,
collects what the checks and metrics need, and stops the process.  Every
round of a run repeats the same operations.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import inputs
import procs

HERE = Path(__file__).resolve().parent

#: Socket send size of the backfill producer (records never split).
CHUNK_BYTES = 64 * 1024
#: Open-loop schedule of the live workload: one POST every this many seconds
#: carrying this many records, at most MAX_INFLIGHT requests in flight.
POST_INTERVAL_S = 0.01
POST_RECORDS = 100
MAX_INFLIGHT = 2
#: Fractions of the live schedule after which a POST /checkpoint is due.
CHECKPOINT_AT = (1 / 3, 2 / 3)


# ----------------------------------------------------------------------
# Preparation (before any clock starts)
# ----------------------------------------------------------------------
def prepare(workload: str, seed: int, work: Path) -> inputs.Prepared:
    if workload == "backfill-socket-scd":
        tenants = [
            inputs.generated_tenant(
                "scd", "scd", seed * 7 + 1, days=4, rate=1200, delta=900,
                theta=20, anomalies=40,
            )
        ]
        prepared = inputs.Prepared(workload, seed, tenants)
        header = json.dumps({"tenant": "scd"}).encode() + b"\n"
        chunks, current, first, size = [], [], 0, 0
        for index, (_, record) in enumerate(prepared.stream):
            line = inputs.record_line(record)
            if size + len(line) > CHUNK_BYTES and current:
                chunks.append((first, b"".join(current)))
                current, size, first = [], 0, index
            current.append(line)
            size += len(line)
        chunks.append((first, b"".join(current)))
        prepared.extra["header"] = header
        prepared.extra["chunks"] = chunks
        prepared.encoded["socket.ndjson"] = header + b"".join(c for _, c in chunks)
        return prepared
    if workload == "live-http-tenants":
        live = dict(days=5, delta=3600, theta=6, anomalies=40, extra_rate=(0.005, 0.03))
        tenants = [
            inputs.generated_tenant("ccd-trouble", "trouble", seed * 7 + 2, rate=50, **live),
            inputs.generated_tenant("ccd-network", "network", seed * 7 + 3, rate=50, **live),
            inputs.generated_tenant("scd", "scd", seed * 7 + 4, rate=60, **live),
        ]
        prepared = inputs.Prepared(workload, seed, tenants)
        posts = []
        for first in range(0, prepared.records, POST_RECORDS):
            body = b"".join(
                inputs.record_line(record, name)
                for name, record in prepared.stream[first : first + POST_RECORDS]
            )
            posts.append(("ingest", first, body))
        ops = list(posts)
        for position in sorted(CHECKPOINT_AT, reverse=True):
            ops.insert(int(len(posts) * position), ("checkpoint", None, b""))
        prepared.extra["ops"] = ops
        prepared.encoded["posts.ndjson"] = b"".join(body for _, _, body in posts)
        return prepared
    if workload in ("replay-library-churn", "replay-sharded-churn"):
        from repro.io.columnar import write_trace_columnar

        tenants = [
            inputs.churn_tenant(
                "churn", seed * 7 + 5, days=5, rate=1200, delta=900, theta=6
            )
        ]
        prepared = inputs.Prepared(workload, seed, tenants)
        rcol = work / "churn.rcol"
        write_trace_columnar((record for _, record in prepared.stream), rcol)
        prepared.extra["rcol"] = rcol
        prepared.encoded["churn.rcol"] = rcol.read_bytes()
        if workload == "replay-sharded-churn":
            prepared.extra["sharding"] = {
                "workers": 2, "subtree_shards": 2, "transport": "shm"
            }
        return prepared
    raise SystemExit(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def sut_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def http_request(port: int, method: str, path: str, body: bytes = b"", timeout=60.0):
    """One blocking HTTP/1.1 request (``Connection: close``): (status, json)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as conn:
        conn.sendall(_request_bytes(method, path, body))
        response = _read_all(conn)
    return _parse_response(response)


def _request_bytes(method: str, path: str, body: bytes) -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _read_all(conn) -> bytes:
    parts = []
    while True:
        data = conn.recv(65536)
        if not data:
            return b"".join(parts)
        parts.append(data)


def _parse_response(response: bytes):
    head, _, body = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head else 0
    try:
        document = json.loads(body) if body else None
    except ValueError:
        document = None
    return status, document


def cpu_seconds(pid: int) -> float:
    """utime + stime of a live process, from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def read_alerts(path: Path) -> list:
    """(tenant, anomaly, emitted_unix) from a JSONL alert log."""
    alerts = []
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                doc = json.loads(line)
                alerts.append((doc["tenant"], doc["anomaly"], doc["emitted_unix"]))
    return alerts


class Ops:
    """Operations attempted and failed in one round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


# ----------------------------------------------------------------------
# Daemon rounds
# ----------------------------------------------------------------------
def daemon_round(root: Path, work: Path, prepared, traced: bool) -> dict:
    from repro.service.config import ServiceConfig

    work.mkdir(parents=True, exist_ok=True)
    socket_leg = prepared.workload == "backfill-socket-scd"
    config = ServiceConfig(
        tenants=tuple(tenant.spec() for tenant in prepared.tenants),
        checkpoint_dir=work / "checkpoints",
        port=0,
        socket_port=0 if socket_leg else None,
        checkpoint_interval=0.0,
        alert_jsonl_path=work / "alerts.jsonl",
    )
    config_path = work / "service.json"
    config.save(config_path)
    ready = work / "ready.json"
    ready.unlink(missing_ok=True)
    spans = work / "spans.json"
    args = ["--config", str(config_path), "--ready-file", str(ready)]
    if traced:
        argv = [
            sys.executable,
            str(HERE / "traced_service.py"),
            str(spans),
            "1" if socket_leg else "0",
        ] + args
    else:
        argv = [sys.executable, "-m", "repro.service"] + args
    ops = Ops()
    out = {"ops": ops}
    with open(work / "daemon.log", "wb") as log:
        spawned = time.perf_counter()
        proc = procs.spawn(argv, cwd=root, env=sut_env(root), stdout=log, stderr=log)
        try:
            while not ready.exists():
                if proc.poll() is not None:
                    raise RuntimeError(f"daemon exited with {proc.returncode} before ready")
                if time.perf_counter() - spawned > 60:
                    raise RuntimeError("daemon not ready within 60 s")
                time.sleep(0.002)
            out["spawn_s"] = time.perf_counter() - spawned
            endpoints = json.loads(ready.read_text())
            port = endpoints["port"]
            for tenant in prepared.tenants:
                status, _ = http_request(port, "GET", f"/anomalies?tenant={tenant.name}")
                ops.expect(status == 200, f"activate {tenant.name}: {status}")
            out["setup_s"] = time.perf_counter() - spawned
            cpu_before = cpu_seconds(proc.pid)
            if socket_leg:
                _backfill(prepared, endpoints, ops, out)
            else:
                _live(prepared, port, ops, out)
            out["sut_cpu_s"] = cpu_seconds(proc.pid) - cpu_before
            status, metrics = http_request(port, "GET", "/metrics")
            ops.expect(status == 200, f"metrics: {status}")
            out["metrics"] = metrics
            out["vm_hwm_kb"] = procs.vm_hwm_kb(proc.pid)
            status, _ = http_request(port, "POST", "/shutdown")
            ops.expect(status == 202, f"shutdown: {status}")
        finally:
            code = procs.stop(proc, grace=30.0)
    ops.expect(code == 0, f"daemon exit code {code}")
    out["alerts"] = read_alerts(work / "alerts.jsonl")
    out["processed"] = metrics["queue"]["processed_records_total"]
    out["units_closed"] = {
        name: doc["units_closed"] for name, doc in metrics["tenants"].items()
    }
    out["tenant_stats"] = {
        name: {
            "stages": doc.get("stage_seconds", {}),
            "adaptation": doc.get("adaptation_stats", {}),
            "close_profile": doc.get("close_profile", {}),
        }
        for name, doc in metrics["tenants"].items()
    }
    if traced:
        out["spans"] = json.loads(spans.read_text())
    return out


def _backfill(prepared, endpoints, ops, out) -> None:
    """Stream the whole trace over one raw-socket connection as fast as the
    daemon's backpressure admits, then a POST /flush barrier."""
    offers = []
    with socket.create_connection(("127.0.0.1", endpoints["socket_port"])) as conn:
        start = time.perf_counter()
        conn.sendall(prepared.extra["header"])
        for first, chunk in prepared.extra["chunks"]:
            offers.append((first, time.time()))
            conn.sendall(chunk)
        conn.shutdown(socket.SHUT_WR)
        summary = _read_all(conn)
        acked = time.perf_counter()
    try:
        accepted = json.loads(summary.splitlines()[0])["accepted"]
    except (ValueError, IndexError, KeyError):
        accepted = 0
    ops.expect(accepted == prepared.records, f"socket accepted {accepted}")
    status, _ = http_request(endpoints["port"], "POST", "/flush")
    ops.expect(status == 200, f"flush: {status}")
    out["wall_s"] = time.perf_counter() - start
    out["acks_s"] = [acked - start]
    out["accepted"] = accepted
    out["offers"] = offers
    out["late_s"] = []


def _live(prepared, port, ops, out) -> None:
    """Open-loop POST /ingest schedule with two checkpoint barriers, then a
    POST /flush barrier."""
    schedule = prepared.extra["ops"]
    results = asyncio.run(_run_schedule(port, schedule))
    accepted = 0
    acks, offers, late = [], [], []
    for (kind, first, _), (due, sent, done, status, doc) in zip(schedule, results):
        late.append(sent - due)
        if kind == "ingest":
            offers.append((first, due))
            if ops.expect(status == 202, f"ingest at {first}: {status}"):
                accepted += doc["accepted"]
                acks.append(done - due)
        else:
            ops.expect(status == 200, f"checkpoint: {status}")
    status, _ = http_request(port, "POST", "/flush")
    ops.expect(status == 200, f"flush: {status}")
    first_due = results[0][0]
    out["wall_s"] = time.time() - first_due
    out["acks_s"] = acks
    out["accepted"] = accepted
    out["offers"] = offers
    out["late_s"] = late


async def _run_schedule(port: int, schedule: list) -> list:
    slots = asyncio.Semaphore(MAX_INFLIGHT)
    results: list = [None] * len(schedule)
    start = time.time() + 0.05

    async def send(index, due, kind, body):
        try:
            sent = time.time()
            path = "/ingest" if kind == "ingest" else "/checkpoint"
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(_request_bytes("POST", path, body))
            await writer.drain()
            response = await reader.read()
            writer.close()
            status, doc = _parse_response(response)
            results[index] = (due, sent, time.time(), status, doc)
        except OSError as exc:
            results[index] = (due, sent, time.time(), 0, {"error": repr(exc)})
        finally:
            slots.release()

    tasks = []
    for index, (kind, _, body) in enumerate(schedule):
        due = start + index * POST_INTERVAL_S
        delay = due - time.time()
        if delay > 0:
            await asyncio.sleep(delay)
        await slots.acquire()
        tasks.append(asyncio.ensure_future(send(index, due, kind, body)))
    await asyncio.gather(*tasks)
    return results


# ----------------------------------------------------------------------
# Library driver rounds
# ----------------------------------------------------------------------
def driver_round(root: Path, work: Path, prepared, traced: bool) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    tenant = prepared.tenants[0]
    spec = {
        "tenant": tenant.spec().to_dict(),
        "rcol": str(prepared.extra["rcol"]),
        "alerts": str(work / "alerts.jsonl"),
        "batch_size": 8192,
        "sharding": prepared.extra.get("sharding"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path = work / "result.json"
    argv = [sys.executable, str(HERE / "driver.py"), str(spec_path), str(result_path)]
    if traced:
        argv.append(str(work / "spans.json"))
    ops = Ops()
    out = {"ops": ops}
    with open(work / "driver.log", "wb") as log:
        spawned_unix = time.time()
        spawned = time.perf_counter()
        proc = procs.spawn(
            argv, cwd=root, env=sut_env(root), stdout=subprocess.PIPE, stderr=log
        )
        try:
            line = proc.stdout.readline()
            out["setup_s"] = time.perf_counter() - spawned
            ops.expect(line.strip() == b'{"ready": true}', "driver ready line")
            proc.stdout.read()
        finally:
            code = procs.stop(proc, grace=120.0)
            proc.stdout.close()
    ops.expect(code == 0, f"driver exit code {code}")
    result = json.loads(result_path.read_text())
    out["spawn_s"] = result["imported_unix"] - spawned_unix
    out["activate_s"] = result["built_unix"] - result["imported_unix"]
    out["wall_s"] = result["wall_s"]
    out["acks_s"] = result["acks_s"]
    out["accepted"] = result["records"]
    out["processed"] = result["records"]
    out["offers"] = result["offers"]
    out["late_s"] = []
    out["units_closed"] = {tenant.name: result["units_closed"]}
    out["vm_hwm_kb"] = result["vm_hwm_kb"]
    out["sut_cpu_s"] = result["cpu_s"]
    out["alerts"] = read_alerts(work / "alerts.jsonl")
    out["reported"] = [(tenant.name, anomaly) for anomaly in result["anomalies"]]
    out["read_s"] = result["read_s"]
    out["transport"] = result["transport"]
    out["tenant_stats"] = {
        tenant.name: {
            "stages": result["stages"],
            "adaptation": result["adaptation"],
            "close_profile": result["close_profile"],
        }
    }
    if traced:
        out["spans"] = json.loads((work / "spans.json").read_text())
    return out


def run_round(root: Path, work: Path, prepared, traced: bool) -> dict:
    if prepared.workload in ("backfill-socket-scd", "live-http-tenants"):
        return daemon_round(root, work, prepared, traced)
    return driver_round(root, work, prepared, traced)
