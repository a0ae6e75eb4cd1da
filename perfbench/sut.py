"""The system under test in its own processes, and the client that drives it.

Two shapes: :class:`BatchProcess` (``batch_child.py`` over the service
façade, for batch-cold) and :class:`Fleet` (``remi serve`` as a router
plus replicas, for the serving workloads).  Each start is timed from
process launch to the program's own ready signal, and every process is
stopped and waited for before the run ends.
"""

from __future__ import annotations

import asyncio
import ctypes
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
START_TIMEOUT = 120.0


def vm_rss_mb(pid: int) -> float:
    """VmRSS of *pid* in MB (2^20 bytes)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for pid {pid}")


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def reap(process: subprocess.Popen, grace: float = 10.0) -> None:
    """Wait for *process*; terminate, then kill, if it will not end."""
    for action in (None, process.terminate, process.kill):
        if action is not None:
            action()
        try:
            process.wait(timeout=grace)
            return
        except subprocess.TimeoutExpired:
            continue
    process.wait()


def wait_gone(pids: Sequence[int], timeout: float = 10.0) -> None:
    """Wait until none of *pids* runs any more (replicas exit once their
    router's pipes close); kill the stragglers."""
    deadline = time.monotonic() + timeout
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
    for pid in pids:
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def children_of(pid: int) -> List[int]:
    """Pids of the processes whose parent is *pid* (zombies included)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def adopt_orphans() -> None:
    """Make this process the subreaper of its descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``): a grandchild whose parent exits, such as
    a replica or the ``multiprocessing`` resource tracker of ``remi
    serve``, is reparented here, so :func:`reap_all` can wait for it."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(36, 1, 0, 0, 0) != 0:  # 36 = PR_SET_CHILD_SUBREAPER
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _collect(pid: int) -> bool:
    """Reap *pid* if it has ended; True once it is gone."""
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return not _alive(pid)
    return done == pid


def reap_all(timeout: float = 20.0) -> None:
    """Stop this process's own resource tracker, then wait for every child
    (adopted orphans included) to end and reap it; kill what is left
    after *timeout*.  Nothing the benchmark started outlives it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:  # private, but the only way short of exiting
        stop()
    deadline = time.monotonic() + timeout
    while True:
        pending = [pid for pid in children_of(os.getpid()) if not _collect(pid)]
        if not pending:
            return
        if time.monotonic() >= deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout
        time.sleep(0.02)


def _env(src: Path) -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")


class BatchProcess:
    """One ``batch_child.py`` process: load, warm up, report ready."""

    def __init__(self, src: Path, args: Sequence[str], log: Path):
        self._log = open(log, "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "batch_child.py"), *args],
            env=_env(src),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self.expect("ready")
        self.setup_s = time.perf_counter() - started

    def expect(self, word: str) -> str:
        line = self.process.stdout.readline()
        if not line.startswith(word):
            self.close()
            raise RuntimeError(f"batch child sent {line!r}, expected {word!r}")
        return line[len(word):].strip()

    def send(self, line: str) -> None:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
            except OSError:
                pass
        reap(self.process)
        self._log.close()


class Fleet:
    """``remi serve IMAGE --workers N --warm-up`` on an ephemeral port."""

    def __init__(self, src: Path, image: Path, workers: int, deadline: float, log: Path):
        self._log = open(log, "a", encoding="utf-8")
        self._ready = threading.Event()
        self.port: Optional[int] = None
        self.replica_pids: List[int] = []
        self._ready_at = 0.0
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(image), "--port", "0",
             "--workers", str(workers), "--warm-up", "--timeout", str(deadline)],
            env=_env(src),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._reader = threading.Thread(target=self._drain_stderr, daemon=True)
        self._reader.start()
        if not self._ready.wait(START_TIMEOUT) or self.port is None:
            self.close()
            raise RuntimeError("remi serve did not report listening")
        self.setup_s = self._ready_at - started

    def _drain_stderr(self) -> None:
        for line in self.process.stderr:
            if self.port is None and "listening on" in line:
                self._ready_at = time.perf_counter()
                self.port = int(line.rsplit(":", 1)[1])
                self._ready.set()
            self._log.write(line)
        self._ready.set()

    def stats(self) -> Dict:
        """The router's stats envelope (with ``server.workers``)."""
        record = asyncio.run(_one_request(self.port, {"type": "stats", "id": "stats"}))
        if not record.get("ok"):
            raise RuntimeError(f"stats request failed: {record}")
        workers = record["result"].get("server", {}).get("workers")
        if workers:
            self.replica_pids = [w["pid"] for w in workers["per_worker"] if w["pid"]]
        return record["result"]

    def pids(self) -> List[int]:
        return [self.process.pid, *self.replica_pids]

    def close(self) -> None:
        # The router's children: replicas and its resource tracker.
        offspring = set(self.replica_pids) | set(children_of(self.process.pid))
        if self.process.poll() is None and self.port is not None:
            try:
                asyncio.run(asyncio.wait_for(
                    _one_request(self.port, {"type": "shutdown", "id": "bye"}), 30))
            except (OSError, asyncio.TimeoutError, ConnectionError):
                pass
        reap(self.process)
        self._reader.join(timeout=10)
        wait_gone(sorted(offspring))
        for pid in offspring:  # adopted by adopt_orphans(): reap them here
            _collect(pid)
        self._log.close()


async def _one_request(port: int, payload: Dict) -> Dict:
    conn = await Conn.open(port)
    try:
        record, _ = await conn.request(payload)
        return record
    finally:
        await conn.close()


class Conn:
    """One NDJSON connection used as a closed loop: send, wait, repeat."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
        return cls(reader, writer)

    async def request(self, payload: Dict) -> Tuple[Dict, float]:
        """Send one envelope; the reply and the client-observed seconds.
        Raises ConnectionError when the server drops the connection."""
        clock = time.perf_counter
        started = clock()
        self.writer.write(json.dumps(payload).encode() + b"\n")
        await self.writer.drain()
        line = await self.reader.readline()
        elapsed = clock() - started
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line), elapsed

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
