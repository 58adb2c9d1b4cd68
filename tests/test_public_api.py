"""Public-API surface tests: every exported name exists and imports."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.align",
    "repro.core",
    "repro.parallel",
    "repro.hw",
    "repro.baselines",
    "repro.io",
    "repro.analysis",
    "repro.hdl",
    "repro.service",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} must declare __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} exported but missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_sorted_uniquely(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__), f"{package}: duplicate exports"


def test_service_stable_surface_pinned():
    """``repro.service.__all__`` is the supported API — pin it exactly.

    Growing this set is an API decision, not a side effect of adding a
    submodule export; shrinking it is a breaking change.
    """
    import repro.service

    assert repro.service.__all__ == [
        "AdaptiveLimiter",
        "BadRequest",
        "CircuitBreaker",
        "CircuitOpen",
        "ClusterCoordinator",
        "ClusterSupervisor",
        "ClusterTopology",
        "DatabaseIndex",
        "Deadline",
        "DeadlineExceeded",
        "HealthMonitor",
        "IndexCorrupt",
        "IndexFormatError",
        "IndexManager",
        "LocalCluster",
        "Overloaded",
        "ProtocolError",
        "QueryOptions",
        "RequestTimeout",
        "ResultCache",
        "SearchClient",
        "SearchEngine",
        "ServiceError",
        "ShardFailure",
        "WorkerTimeout",
    ]
    # Internal machinery stays importable, just unpinned.
    for name in ("SupervisedWorkerPool", "FaultPlan", "RetryPolicy",
                 "TcpSearchServer", "AsyncSearchClient", "partition_index"):
        assert hasattr(repro.service, name), f"repro.service.{name} vanished"
    from repro.service.guard import ServiceTimeTracker  # noqa: F401


def test_top_level_quickstart_symbols():
    import repro

    assert callable(repro.local_align_linear)
    assert callable(repro.sw_locate_best)
    acc = repro.SWAccelerator(elements=4)
    assert acc.locate("AC", "AC").score == 2


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_application_modules_importable():
    import repro.cli
    import repro.mapping
    import repro.scan

    assert callable(repro.cli.main)
    assert callable(repro.scan.scan_database)
    assert callable(repro.mapping.map_reads)


def test_module_signal_table():
    from repro.hdl.builders import build_pe_module

    module = build_pe_module()
    table = module.signal_table()
    assert "bs" in table and "d_out" in table
    assert table["bs"].width == 16
