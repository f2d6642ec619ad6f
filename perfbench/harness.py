"""Shared plumbing of the benchmark: paths, node processes, HTTP, statistics.

Everything the benchmark writes lives under the checkout it runs from
(``.bench_run/``: node data dirs and span files, removed after the run),
and every process it starts is stopped and waited for before the command
returns.
"""

from __future__ import annotations

import http.client
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

#: The checkout root: the benchmark directory's parent.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
RUN_ROOT = ROOT / ".bench_run"

#: Seconds a node may take to bind, answer /readyz or stop.
NODE_TIMEOUT = 60.0
#: Per-request socket timeout; a request slower than this counts as failed.
REQUEST_TIMEOUT = 30.0


class BenchError(RuntimeError):
    """A failure of the benchmark itself (not of a measured operation)."""


def require_source() -> None:
    """Refuse to run without the program's source next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}/repro; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment of every child process: the checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def now_ns() -> int:
    """The span clock: CLOCK_MONOTONIC, shared by every process on the host."""
    return time.perf_counter_ns()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def cpu_seconds(pids: Sequence[int]) -> float:
    """User + system CPU time the processes ``pids`` have used so far.

    Read from each process's CPU-time clock (all threads, exited ones
    included; nanosecond resolution).  The guest kernel does not charge
    the time the hypervisor steals from a vCPU to the task running on
    it, so unlike wall time this does not stretch while a stolen vCPU
    stalls the processes waiting on it.  It still grows when other
    guests contend for the host's cores and caches.  Sample it while the
    processes are idle between requests.
    """
    # clock_getcpuclockid(pid): the process-wide CPUCLOCK_SCHED clock.
    return sum(time.clock_gettime_ns(((~pid) << 3) | 2) for pid in pids) / 1e9


# ----------------------------------------------------------------------
# Run metadata
# ----------------------------------------------------------------------
def calibrate_cpu() -> float:
    """Seconds for a fixed amount of pure-Python and NumPy work.

    Taken just before a workload so a reader can tell machine drift from
    a program change.  It is recorded, never used to scale a metric.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    data = np.arange(1 << 20, dtype=np.int64)
    for _ in range(20):
        data = (data * 31 + 7) % 1_000_003
    return time.perf_counter() - start


def filesystem_of(path: Path) -> str:
    """The filesystem type mounted at (the longest prefix of) ``path``."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 3:
                    mount = parts[1]
                    if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(
                        mount
                    ) > len(best):
                        best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` CPU ticks of the host so far (from ``/proc/stat``)."""
    with open("/proc/stat", encoding="utf-8") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(since: Tuple[int, int]) -> float:
    """Share of CPU time the hypervisor took from this machine since ``since``."""
    steal, total = cpu_ticks()
    return (steal - since[0]) / max(1, total - since[1])


def run_metadata(data_dir: Path) -> dict:
    """Environment facts recorded with every result."""
    import numpy as np

    from repro.backend import get_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": get_backend().name,
        "data_dir_fs": filesystem_of(data_dir),
        "cpu_calibration_s": calibrate_cpu(),
    }


# ----------------------------------------------------------------------
# Process management
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


class Processes:
    """Every child this run started; :meth:`stop_all` ends and reaps them."""

    def __init__(self) -> None:
        self.live: List[subprocess.Popen] = []

    def spawn(self, argv: Sequence[str], log_path: Path) -> subprocess.Popen:
        log = open(log_path, "ab")
        try:
            proc = subprocess.Popen(
                list(argv),
                cwd=str(ROOT),
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        finally:
            log.close()
        self.live.append(proc)
        return proc

    def kill(self, proc: subprocess.Popen) -> None:
        """SIGKILL and reap."""
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=NODE_TIMEOUT)
        self._forget(proc)

    def terminate(self, proc: subprocess.Popen) -> None:
        """SIGTERM (graceful drain), falling back to SIGKILL; reap."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=NODE_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=NODE_TIMEOUT)
        self._forget(proc)

    def _forget(self, proc: subprocess.Popen) -> None:
        if proc.stdout is not None:
            proc.stdout.close()
        if proc in self.live:
            self.live.remove(proc)

    def stop_all(self) -> None:
        for proc in list(self.live):
            try:
                self.kill(proc)
            except (OSError, subprocess.TimeoutExpired):
                pass


def read_line(proc: subprocess.Popen, prefix: str, timeout: float = NODE_TIMEOUT) -> str:
    """Block until ``proc`` prints a stdout line starting with ``prefix``."""
    deadline = time.monotonic() + timeout
    buffer = b""
    fd = proc.stdout.fileno()
    while True:
        while b"\n" in buffer:
            line, buffer = buffer.split(b"\n", 1)
            text = line.decode("utf-8", "replace").strip()
            if text.startswith(prefix):
                return text
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"timed out waiting for {prefix!r} from pid {proc.pid}")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 65536)
            if not chunk:
                raise BenchError(
                    f"pid {proc.pid} exited (code {proc.wait()}) before printing {prefix!r}"
                )
            buffer += chunk


class Node:
    """One ``python -m repro.service`` process (optionally under the tracer).

    ``args`` are the service flags, or a function returning them when
    they depend on another node's port (a primary names its standby).
    """

    def __init__(
        self,
        procs: Processes,
        name: str,
        data_dir: Path,
        args: Union[Sequence[str], Callable[[], Sequence[str]]],
        traced: bool = False,
    ) -> None:
        self.procs = procs
        self.name = name
        self.data_dir = data_dir
        self.args = args
        self.traced = traced
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.generation = 0  # restarts so far

    @property
    def span_file(self) -> Path:
        """Where the tracer of the current process writes its spans."""
        return self.data_dir.parent / f"{self.name}.spans-{self.generation}.json"

    def argv(self) -> List[str]:
        args = self.args() if callable(self.args) else self.args
        service_args = ["--data-dir", str(self.data_dir), "--port", "0", *args]
        if not self.traced:
            return [sys.executable, "-m", "repro.service", *service_args]
        return [sys.executable, str(BENCH_DIR / "spans.py"), "node", str(self.span_file),
                *service_args]

    def spawn(self) -> None:
        self.data_dir.mkdir(parents=True, exist_ok=True)
        log = self.data_dir.parent / f"{self.name}.log"
        self.proc = self.procs.spawn(self.argv(), log)

    def wait_listening(self) -> None:
        line = read_line(self.proc, "LISTENING")
        self.port = int(line.split()[2])

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self.port}"

    def wait_ready(self) -> None:
        deadline = time.monotonic() + NODE_TIMEOUT
        conn = Connection(self.port)
        try:
            while conn.request("GET", "/readyz")[0] != 200:
                if time.monotonic() > deadline:
                    raise BenchError(f"{self.name} never became ready")
                time.sleep(0.005)
        finally:
            conn.close()

    def dump_spans(self) -> None:
        """Ask a traced node to write its spans so far (before a SIGKILL)."""
        if not self.traced or self.proc is None:
            return
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + NODE_TIMEOUT
        while not self.span_file.exists():
            if time.monotonic() > deadline:
                raise BenchError(f"{self.name} did not dump its spans")
            time.sleep(0.01)

    def kill(self) -> None:
        """Crash the node: SIGKILL (traced nodes dump their spans first)."""
        self.dump_spans()
        self.procs.kill(self.proc)
        self.generation += 1

    def stop(self) -> None:
        """Graceful SIGTERM stop (drain, flush, publish; spans written)."""
        if self.proc is not None:
            self.procs.terminate(self.proc)


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 connection; reconnects after a failure."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, dict]:
        """Send one request; ``(status, parsed body)`` or ``(0, {})`` on a transport error."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, {}
        try:
            parsed = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            parsed = {}
        return response.status, parsed

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# ----------------------------------------------------------------------
# Run bookkeeping
# ----------------------------------------------------------------------
class Tally:
    """Attempted / failed operations of one run (failed checks included)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._lock = threading.Lock()

    def op(self, ok: bool, what: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(what)
        return ok


def fresh_run_dir(tag: str) -> Path:
    path = RUN_ROOT / f"{tag}-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    return path


def remove_tree(path: Path) -> None:
    """Delete a run's directory, and the run root once no run uses it."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        RUN_ROOT.rmdir()
    except OSError:
        pass
