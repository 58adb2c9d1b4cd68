"""Pluggable locate-kernel backends behind one registry.

The phase-1 sweep — best local-alignment score plus end coordinates
for a query against a database record — is the hot path of the entire
serving stack, and this package is its selection point.  Every backend
implements the same :class:`KernelBackend` contract:

* ``locate(s, t, scheme)`` — one query against one record, returning a
  :class:`~repro.align.smith_waterman.LocalHit`;
* ``locate_batch(queries, targets, scheme)`` — many queries against
  many records in one call, returning ``hits[qi][ti]``.

and every backend is **bit-identical** on ``(score, i, j)`` under the
repo-wide tie-break convention (smallest ``i``, then smallest ``j``,
among equal best scores) — the property tests in
``tests/test_kernels.py`` enforce it across the whole registry.  That
contract is what makes the fast path safe to substitute anywhere the
oracle row sweep runs: rankings cannot change, only wall-clock does.

Built-in backends
-----------------
``pure``
    The pure-Python oracle (:func:`~repro.baselines.software.locate_pure`)
    — slow, dependency-free, shares no code with the kernels it checks.
``numpy-striped``
    The batched profile kernel (:class:`~repro.kernels.striped.StripedKernel`):
    every query × every record advances through one ``(Q, R, n)`` NumPy
    matrix pass per DP row, amortizing interpreter and dispatch
    overhead across the whole batch (SWAPHI's inter-/intra-sequence
    parallelization mapped onto array axes).  The default: shard
    sweeps are batches.  Its single-pair ``locate`` is the vectorized
    row sweep (:func:`~repro.align.smith_waterman.sw_locate_best`),
    which is faster on one pair.
``hw-sim``
    The simulated FPGA accelerator
    (:class:`~repro.core.accelerator.SWAccelerator`) behind the same
    interface, so "run this sweep on the device" is just another
    backend name.

Selection
---------
:func:`get_backend` resolves a name to a shared backend instance;
``None`` resolves the process default — the ``REPRO_KERNEL``
environment variable when set, else ``numpy-striped``.  Precedence across
the service stack is **QueryOptions.kernel > server ``--kernel`` flag
> process default**.

Registering a third-party backend::

    from repro.kernels import KernelBackend, register_backend

    class MyKernel(KernelBackend):
        name = "my-kernel"
        def locate(self, s, t, scheme):
            ...  # return a LocalHit, honouring the tie-break rules

    register_backend("my-kernel", MyKernel)

after which ``QueryOptions(kernel="my-kernel")``, ``repro serve
--kernel my-kernel`` and ``scan_database(..., kernel="my-kernel")``
all reach it.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

import numpy as np

from ..align.scoring import DEFAULT_DNA, LinearScoring, SubstitutionMatrix, decode
from ..align.smith_waterman import LocalHit

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_ENV_VAR",
    "KernelBackend",
    "HwSimBackend",
    "available_backends",
    "default_kernel",
    "get_backend",
    "register_backend",
]

#: The fallback default backend when ``REPRO_KERNEL`` is unset: the
#: batched kernel, because every shard sweep is a batch.
DEFAULT_KERNEL = "numpy-striped"

#: Environment variable naming the process-wide default backend (CI
#: runs the whole tier-1 suite a second time under
#: ``REPRO_KERNEL=pure``).
KERNEL_ENV_VAR = "REPRO_KERNEL"


class KernelBackend:
    """One locate-kernel implementation.

    Subclasses must implement :meth:`locate`; :meth:`locate_batch` has
    a default pairwise loop so a minimal backend is a single method.
    Batched backends override :meth:`locate_batch` and derive
    :meth:`locate` from it instead.

    Backends must be stateless with respect to results (instances are
    shared and may be called from worker subprocesses) and must honour
    the repo-wide tie-break convention exactly.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    def locate(
        self,
        s: str | np.ndarray,
        t: str | np.ndarray,
        scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA,
    ) -> LocalHit:
        """Best local hit of query ``s`` against target ``t``."""
        raise NotImplementedError

    def locate_batch(
        self,
        queries: Sequence[str | np.ndarray],
        targets: Sequence[str | np.ndarray],
        scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA,
    ) -> list[list[LocalHit]]:
        """Every query against every target; ``hits[qi][ti]``.

        The default is the straightforward cross product of
        :meth:`locate` calls — exactly the per-record loop the shard
        sweep ran before batching existed, so a backend that only
        implements ``locate`` behaves identically to the old code.
        """
        return [[self.locate(q, t, scheme) for t in targets] for q in queries]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} {self.name!r}>"


class _PureBackend(KernelBackend):
    """The pure-Python oracle — independent of every NumPy kernel."""

    name = "pure"

    def locate(self, s, t, scheme=DEFAULT_DNA) -> LocalHit:
        from ..baselines.software import locate_pure

        if isinstance(s, np.ndarray):
            s = decode(s)
        if isinstance(t, np.ndarray):
            t = decode(t)
        return locate_pure(s, t, scheme)


class HwSimBackend(KernelBackend):
    """The simulated FPGA accelerator as a registry backend.

    A :class:`~repro.core.accelerator.SWAccelerator` is built lazily
    per scoring scheme (the device synthesizes its scheme into the
    datapath, so one device cannot serve two schemes); the built
    devices are kept for the backend's lifetime, which in a worker
    subprocess is one shard sweep.
    """

    name = "hw-sim"

    def __init__(self, elements: int = 100) -> None:
        self.elements = elements
        # Keyed by id(scheme) with the scheme kept alive in the value,
        # so the id can never be recycled while the entry exists.
        self._devices: dict[int, tuple[object, object]] = {}

    def _device(self, scheme):
        entry = self._devices.get(id(scheme))
        if entry is None:
            from ..core.accelerator import SWAccelerator

            device = SWAccelerator(elements=self.elements, scheme=scheme)
            entry = (scheme, device)
            self._devices[id(scheme)] = entry
        return entry[1]

    def locate(self, s, t, scheme=DEFAULT_DNA) -> LocalHit:
        return self._device(scheme).locate(s, t, scheme)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_FACTORIES: dict[str, Callable[[], KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}


def register_backend(
    name: str, factory: Callable[[], KernelBackend], replace: bool = False
) -> None:
    """Register ``factory`` (class or zero-arg callable) under ``name``.

    Names are lowercase identifiers; re-registering an existing name
    without ``replace=True`` is an error (silent shadowing of a
    built-in would change every caller's results semantics-free).
    """
    if not name or name != name.strip().lower():
        raise ValueError(f"backend name must be a lowercase token, got {name!r}")
    if name in _FACTORIES and not replace:
        raise ValueError(f"backend {name!r} is already registered")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Every registered backend name, sorted."""
    return tuple(sorted(_FACTORIES))


def default_kernel() -> str:
    """The process-default backend name.

    ``REPRO_KERNEL`` when set (and registered — a typo'd variable
    should fail loudly at selection time, not silently serve the
    fallback), else :data:`DEFAULT_KERNEL`.
    """
    name = os.environ.get(KERNEL_ENV_VAR, "").strip()
    if not name:
        return DEFAULT_KERNEL
    if name not in _FACTORIES:
        raise ValueError(
            f"{KERNEL_ENV_VAR}={name!r} names no registered backend "
            f"(available: {', '.join(available_backends())})"
        )
    return name


def get_backend(name: str | None = None) -> KernelBackend:
    """Resolve ``name`` to a shared backend instance.

    ``None`` resolves :func:`default_kernel`.  Unknown names raise
    :class:`ValueError`, which every service front-end maps to
    ``bad-request``.
    """
    if name is None:
        name = default_kernel()
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown kernel backend {name!r} "
            f"(available: {', '.join(available_backends())})"
        )
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = factory()
        _INSTANCES[name] = instance
    return instance


from .striped import StripedKernel  # noqa: E402  (needs KernelBackend above)

register_backend("pure", _PureBackend)
register_backend("numpy-striped", StripedKernel)
register_backend("hw-sim", HwSimBackend)
