"""One server deployment: build the index, launch, sample, tear down.

The server runs as a child in its own session and process group, so
teardown can reach every process it forked (the supervised pool forks
one process per shard attempt).  Teardown is SIGINT (graceful drain),
then SIGKILL to the whole group on timeout, then a scan of ``/proc``:
any process of the group still alive fails the run by name.  The child
also gets ``PR_SET_PDEATHSIG`` so a load generator killed outright
(SIGKILL, no ``finally``) still takes its server down with it.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PR_SET_PDEATHSIG = 1
READY_TIMEOUT = 60.0
DRAIN_TIMEOUT = 20.0


class DeploymentError(RuntimeError):
    """The deployment misbehaved: failed to start, or left processes behind."""


def server_env(src: Path, tmp: Path) -> dict[str, str]:
    """The server's environment: the checkout's sources, the default kernel.

    ``REPRO_KERNEL`` is removed so the server runs whatever the program's
    own default is; a change of default then shows as a change here.
    Temporary files go to ``tmp``, inside the checkout.
    """
    env = {k: v for k, v in os.environ.items() if k != "REPRO_KERNEL"}
    env["PYTHONPATH"] = str(src)
    env["TMPDIR"] = str(tmp)
    return env


def _die_with_parent() -> None:  # runs in the child between fork and exec
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def _proc_stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2 :].split()


def group_members(pgid: int) -> list[tuple[int, str]]:
    """``(pid, state)`` of every process whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(int(entry))
            if fields is not None and int(fields[2]) == pgid:
                members.append((int(entry), fields[0]))
    return members


def survivors(pgid: int) -> list[int]:
    """Live (non-zombie) processes of the group."""
    return [pid for pid, state in group_members(pgid) if state != "Z"]


def cpu_seconds(pid: int) -> float:
    """utime + stime + cutime + cstime: the process and its reaped children."""
    fields = _proc_stat(pid)
    if fields is None:
        raise DeploymentError(f"server {pid} is gone")
    return sum(int(v) for v in fields[11:15]) / _CLK_TCK


def pss_mb(pids: list[int]) -> float:
    """Summed proportional set size of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue  # exited between listing and reading
        for line in text.splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


class Server:
    """A running ``repro serve --tcp`` child (or the traced launcher)."""

    def __init__(self, argv: list[str], env: dict[str, str], cwd: Path, log: Path) -> None:
        self._log_path = log
        self._log = open(log, "wb")
        try:
            self.proc = subprocess.Popen(
                argv,
                cwd=cwd,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=self._log,
                start_new_session=True,
                preexec_fn=_die_with_parent,
            )
        except BaseException:
            self._log.close()
            raise
        self.pid = self.proc.pid
        self.pgid = self.pid  # start_new_session: the child leads its group
        self.address: str | None = None
        self.stdout_tail: list[str] = []

    def wait_ready(self, timeout: float = READY_TIMEOUT) -> str:
        """Block until the server announces its address; return ``host:port``."""
        found: list[str] = []

        def _read() -> None:
            for raw in self.proc.stdout:
                line = raw.decode(errors="replace").strip()
                self.stdout_tail.append(line)
                if line.startswith("listening on ") and not found:
                    found.append(line.split()[-1])
                    return

        reader = threading.Thread(target=_read, daemon=True)
        reader.start()
        reader.join(timeout)
        if not found:
            stderr = self._log_path.read_text(errors="replace").splitlines()[-5:]
            raise DeploymentError(
                f"server {self.pid} not ready after {timeout:.0f}s "
                f"(exit code {self.proc.poll()}); stdout: {self.stdout_tail[-5:]}; "
                f"stderr: {stderr}"
            )
        self.address = found[0]
        return self.address

    def stop(self, timeout: float = DRAIN_TIMEOUT) -> int:
        """SIGINT and drain; SIGKILL the group on timeout; fail on survivors.

        Returns the server's exit code.  Raises :class:`DeploymentError`
        if the drain timed out or any process of the group outlived it.
        """
        problems = []
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
            try:
                code = self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                problems.append(f"server {self.pid} did not drain within {timeout:.0f}s")
                _killpg(self.pgid)
                code = self.proc.wait(10.0)
            deadline = time.monotonic() + 2.0
            left = survivors(self.pgid)
            while left and time.monotonic() < deadline:
                time.sleep(0.05)  # forked workers finishing their last task
                left = survivors(self.pgid)
            if left:
                problems.append(f"processes of group {self.pgid} survived teardown: {left}")
                _killpg(self.pgid)
            # Only now: a surviving child would hold the pipe open.
            rest = self.proc.stdout.read() if self.proc.stdout else b""
            self.stdout_tail.extend(rest.decode(errors="replace").splitlines())
        finally:
            if self.proc.stdout:
                self.proc.stdout.close()
            self._log.close()
        if problems:
            raise DeploymentError("; ".join(problems))
        return code

    def kill(self) -> None:
        """Emergency teardown (exceptions, atexit): SIGKILL the group, reap."""
        _killpg(self.pgid)
        try:
            self.proc.wait(10.0)
        except subprocess.TimeoutExpired:
            pass
        if self.proc.stdout:
            self.proc.stdout.close()
        self._log.close()


def _killpg(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_index(src: Path, fasta: Path, out: Path, shard_bp: int, cwd: Path, tmp: Path) -> None:
    """``repro index`` the generated FASTA into a sharded index file."""
    subprocess.run(
        [sys.executable, "-m", "repro", "index", str(fasta), "--out", str(out),
         "--shard-bp", str(shard_bp)],
        cwd=cwd,
        env=server_env(src, tmp),
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
        preexec_fn=_die_with_parent,
    )
