"""The benchmark's own checks: seeded inputs and process hygiene.

Run from the root of a checkout::

    python -m pytest servebench/test_servebench.py
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import deploy  # noqa: E402
import inputs  # noqa: E402


def test_same_seed_same_inputs_other_seed_other_inputs():
    first = inputs.generate(7)
    assert first.digest() == inputs.generate(7).digest()
    assert first.digest() != inputs.generate(8).digest()


def test_hot_queries_retrieve_their_planted_copies():
    # Uniform retrieval work: each hot query's top hits are its planted
    # copies, which all end at the end of their records.
    from repro.scan import scan_database

    seeded = inputs.generate(7)
    for query in seeded.hot:
        report = scan_database(query, seeded.database, top=inputs.HOT_COPIES, min_score=1)
        lengths = {name: len(seq) for name, seq in seeded.database}
        assert len(report.hits) == inputs.HOT_COPIES
        assert all(lengths[h.record] - h.hit.j < 8 for h in report.hits)


def _children(pid: int) -> list[int]:
    """Processes whose parent is ``pid``."""
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = deploy._proc_stat(int(entry))
            if fields is not None and int(fields[1]) == pid:
                kids.append(int(entry))
    return kids


def _servers(runner: subprocess.Popen) -> list[int]:
    """The runner's live server children: each leads its own process group."""
    leaders = []
    for pid in _children(runner.pid):
        fields = deploy._proc_stat(pid)
        if fields is not None and int(fields[2]) == pid and fields[0] != "Z":
            leaders.append(pid)
    return leaders


def _wait_for_servers(runner: subprocess.Popen, timeout: float = 60.0) -> list[int]:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        assert runner.poll() is None, "benchmark exited before starting a server"
        leaders = _servers(runner)
        if leaders:
            return leaders
        time.sleep(0.1)
    raise AssertionError("no server started")


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_killed_load_generator_leaves_no_server_behind(sig):
    runner = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "cold-sweep",
         "--seed", "3", "--seconds", "60", "--trace", "0"],
        cwd=HERE.parent,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        _wait_for_servers(runner)
        time.sleep(10.0)  # past the set-ups: the timed phase is running
        groups = _wait_for_servers(runner)
        runner.send_signal(sig)
        runner.wait(timeout=60)
        deadline = time.monotonic() + 15.0
        while any(deploy.survivors(g) for g in groups) and time.monotonic() < deadline:
            time.sleep(0.1)
        left = {g: deploy.survivors(g) for g in groups}
        assert not any(left.values()), f"server groups outlived the benchmark: {left}"
    finally:
        if runner.poll() is None:
            runner.kill()
            runner.wait(timeout=30)
        # A SIGKILLed run cannot remove its own work directory.
        work = HERE.parent / ".servebench_work"
        shutil.rmtree(work / f"cold-sweep-{runner.pid}", ignore_errors=True)
        if work.is_dir() and not any(work.iterdir()):
            work.rmdir()
