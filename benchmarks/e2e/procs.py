"""Process hygiene: peak memory, process groups, and orphan checks (Linux /proc).

Also the line protocol between the benchmark's processes: a child
prints ``<MARK> <json>`` lines on stdout and the parent picks them out.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import time
from typing import List, Optional

READY = "E2E_READY"        # workload set up: the first timed op starts now
RESULT = "E2E_RESULT"      # workload outcome
SERVER = "E2E_SERVER"      # server child listening


def emit(mark: str, payload) -> None:
    print(f"{mark} {json.dumps(payload)}", flush=True)


def parse(mark: str, text: str):
    """The payload of the last ``mark`` line in ``text`` (None if absent)."""
    found = None
    for line in text.splitlines():
        if line.startswith(mark + " "):
            found = json.loads(line[len(mark) + 1:])
    return found


def read_mark(proc: subprocess.Popen, mark: str, timeout_s: float):
    """Block until ``proc`` prints a ``mark`` line; None on exit or timeout."""
    deadline = time.monotonic() + timeout_s
    buf = b""
    fd = proc.stdout.fileno()
    while time.monotonic() < deadline:
        ready, _, _ = select.select([fd], [], [], 0.05)
        if not ready:
            if proc.poll() is not None:
                return None
            continue
        chunk = os.read(fd, 65536)
        if not chunk:
            return None
        buf += chunk
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            found = parse(mark, line.decode("utf-8", "replace"))
            if found is not None:
                return found
    return None


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:
        return None
    # comm may hold spaces or parentheses: fields resume after the last ')'
    return raw[raw.rindex(")") + 2:].split()


def _members(field: int, value: int) -> List[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields[0] is the state, [2] the process group, [3] the session
        if fields and fields[0] != "Z" and int(fields[field]) == value:
            members.append(int(entry))
    return members


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) pids whose process group is ``pgid``."""
    return _members(2, pgid)


def session_members(sid: int) -> List[int]:
    """Live (non-zombie) pids of session ``sid``, every group included."""
    return _members(3, sid)


def kill_session(sid: int) -> None:
    for pid in session_members(sid):
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def live_children(pid: int) -> List[int]:
    """Direct children of ``pid`` that have not been reaped."""
    kids: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(k) for k in fh.read().split())
        except OSError:
            continue
    return kids


def group_hwm_mb(pgid: int) -> float:
    """Summed peak resident set of every live process in a group."""
    return sum(vm_hwm_mb(pid) for pid in group_members(pgid))


def stop_group(proc: subprocess.Popen, drain_s: float = 10.0) -> bool:
    """SIGTERM a child that leads its own process group, wait for it to
    drain, then SIGKILL whatever is left of the group.

    Returns True when no member of the group is left alive.
    """
    pgid = proc.pid
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=drain_s)
        except subprocess.TimeoutExpired:
            pass
    kill_group(pgid)
    if proc.poll() is None:
        proc.wait(timeout=5.0)
    deadline = time.monotonic() + 5.0
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)
    return not group_members(pgid)


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
