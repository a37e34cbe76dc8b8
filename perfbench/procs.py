"""Process hygiene: every process a run starts is reaped, failed runs included.

Children start in their own session (process group), so a stop reaches
shard workers forked by a driver as well.  :func:`stop` asks first (the
caller's graceful request has already been sent), then escalates to SIGTERM
and SIGKILL on the whole group, each step bounded.  :func:`reap_all` runs on
exit and on SIGTERM/SIGINT of the benchmark itself.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time

_LIVE: "list[subprocess.Popen]" = []


def spawn(argv, *, cwd, env, stdout, stderr, stdin=subprocess.DEVNULL):
    proc = subprocess.Popen(
        argv,
        cwd=cwd,
        env=env,
        stdin=stdin,
        stdout=stdout,
        stderr=stderr,
        start_new_session=True,
    )
    _LIVE.append(proc)
    return proc


def _signal_group(proc, signum) -> None:
    try:
        os.killpg(proc.pid, signum)
    except (ProcessLookupError, PermissionError):
        pass


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def stop(proc, grace: float = 20.0) -> int:
    """Wait up to ``grace`` s for ``proc`` to exit, then TERM, then KILL its
    group.  Returns the exit code; also kills what the process left behind
    in its group (e.g. shard workers that survived their parent)."""
    try:
        code = proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        _signal_group(proc, signal.SIGTERM)
        try:
            code = proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            _signal_group(proc, signal.SIGKILL)
            code = proc.wait(timeout=5.0)
    deadline = time.monotonic() + 5.0
    if _group_alive(proc.pid):
        _signal_group(proc, signal.SIGTERM)
        while _group_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        if _group_alive(proc.pid):
            _signal_group(proc, signal.SIGKILL)
            while _group_alive(proc.pid) and time.monotonic() < deadline + 5.0:
                time.sleep(0.01)
    if proc in _LIVE:
        _LIVE.remove(proc)
    return code


def reap_all() -> None:
    """Kill every child still running (used on failure and on exit)."""
    for proc in list(_LIVE):
        _signal_group(proc, signal.SIGKILL)
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            pass
        _LIVE.remove(proc)


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process, in kB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
