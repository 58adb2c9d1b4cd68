"""Shared fixtures and hypothesis strategies for the test-suite.

The strategies encode the repository's input domain:

* ``dna_text`` — DNA strings over ACGT (possibly empty variants);
* ``dna_pair`` / ``related_pair`` — independent and mutated pairs;
* ``linear_schemes`` — valid linear scoring schemes (match > 0,
  mismatch < match, gap < 0) so property tests cover the scheme space
  rather than only the paper's +1/-1/-2.

``ServeProcess`` runs ``repro serve --tcp`` (and ``ClusterServeProcess``
``repro cluster serve``) in a child process for the command-line serving
tests.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro.align.scoring import DNA_ALPHABET, LinearScoring

# Conservative global profile: deterministic, no deadline flakiness on
# slow CI boxes, moderate example counts (the kernels are O(mn)).
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")


def dna_text(min_size: int = 0, max_size: int = 40) -> st.SearchStrategy[str]:
    """Strategy for DNA strings."""
    return st.text(alphabet=DNA_ALPHABET, min_size=min_size, max_size=max_size)


@st.composite
def dna_pair(draw, min_size: int = 1, max_size: int = 32):
    """Two independent DNA strings."""
    s = draw(dna_text(min_size, max_size))
    t = draw(dna_text(min_size, max_size))
    return s, t


@st.composite
def related_pair(draw, min_size: int = 4, max_size: int = 32):
    """A DNA string and a noisy copy — strong alignments exist."""
    s = draw(dna_text(min_size, max_size))
    # Edit the copy: swap a few positions to other letters.
    t_chars = list(s)
    n_edits = draw(st.integers(0, max(1, len(s) // 4)))
    for _ in range(n_edits):
        pos = draw(st.integers(0, len(t_chars) - 1))
        t_chars[pos] = draw(st.sampled_from(DNA_ALPHABET))
    return s, "".join(t_chars)


@st.composite
def linear_schemes(draw):
    """Valid linear scoring schemes."""
    match = draw(st.integers(1, 5))
    mismatch = draw(st.integers(-5, 0))
    gap = draw(st.integers(-6, -1))
    return LinearScoring(match=match, mismatch=mismatch, gap=gap)


@pytest.fixture
def paper_pair() -> tuple[str, str]:
    """The figure 2 sequences."""
    return "TATGGAC", "TAGTGACT"


@pytest.fixture
def mutated_120() -> tuple[str, str]:
    """A 120-base mutated pair used by several integration tests."""
    from repro.io.generate import mutated_pair

    return mutated_pair(120, rate=0.15, seed=42)


class ServeProcess:
    """``repro serve DATABASE --tcp 127.0.0.1:0 FLAGS...`` in a child process.

    Entering waits for the child's ``listening on`` line and sets
    ``host``/``port``.  :meth:`stop` sends SIGINT (graceful drain),
    requires exit status 0 and returns the child's merged stdout and
    stderr lines; leaving the block stops it, or on error kills its
    process group (the child leads a session of its own).
    ``sigint_ignored`` starts the child with SIGINT set to ``SIG_IGN``,
    as a non-interactive shell starts every ``cmd &``.
    """

    ready = "listening on"

    def __init__(self, database, *flags: str, sigint_ignored: bool = False) -> None:
        self.argv = [sys.executable, "-m", "repro", *self.command(database), *flags]
        self.sigint_ignored = sigint_ignored
        self.output: list[str] = []
        self.stopped_at: float | None = None

    @staticmethod
    def command(database) -> list[str]:
        return ["serve", str(database), "--tcp", "127.0.0.1:0"]

    def __enter__(self) -> "ServeProcess":
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        # An ignored SIGINT survives fork and exec; a handled one does not.
        previous = signal.getsignal(signal.SIGINT)
        if self.sigint_ignored:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            self.proc = subprocess.Popen(
                self.argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env={**os.environ, "PYTHONPATH": src},
                start_new_session=True,
            )
        finally:
            signal.signal(signal.SIGINT, previous)
        self._lines: queue.Queue = queue.Queue()
        self._pump = threading.Thread(target=self._read, daemon=True)
        self._pump.start()
        try:
            while not self.output or not self.output[-1].startswith(self.ready):
                line = self._lines.get(timeout=60)
                assert line is not None, "".join(self.output)
                self.output.append(line)
        except BaseException:
            self._kill()
            raise
        if self.ready == "listening on":
            self.host, _, port = self.output[-1].split()[-1].rpartition(":")
            self.port = int(port)
        return self

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)  # EOF: the child exited

    def stop(self) -> list[str]:
        """Drain the server with SIGINT; its whole output, line by line."""
        if self.stopped_at is None:
            self.stopped_at = time.time()
            self.proc.send_signal(signal.SIGINT)
            try:
                assert self.proc.wait(timeout=30) == 0, "".join(self.output)
            except BaseException:
                self._kill()  # a child that did not drain must not outlive the test
                raise
            self.output.extend(iter(lambda: self._lines.get(timeout=10), None))
            self._close()
        return self.output

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)
        self._close()

    def _close(self) -> None:
        self._pump.join(timeout=30)
        self.proc.stdout.close()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self.stopped_at is None:
            self._kill()
        else:
            self.stop()


class ClusterServeProcess(ServeProcess):
    """``repro cluster serve MANIFEST FLAGS...``, ready on ``cluster ready``."""

    ready = "cluster ready"

    @staticmethod
    def command(manifest) -> list[str]:
        return ["cluster", "serve", str(manifest)]
