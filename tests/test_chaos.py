"""Chaos suite: seeded fault schedules against a real TCP server.

The invariants under test are the hardening contract end to end:

* no request is lost or double-answered, whatever the schedule breaks;
* every answer is bit-identical to the fault-free baseline (all
  scheduled faults are recoverable, so retries and supervision must
  heal them without perturbing a single ranking);
* deadlines surface as the same :class:`DeadlineExceeded` at every
  layer — in-process engine, supervised pool, and over the wire;
* hot index reload under concurrent load loses zero in-flight
  requests and ends on the expected generation;
* the server drains cleanly after the storm.

Seeds are fixed, so a failure here is replayable with
``python -m repro.service.chaos --seed <seed>``; when CI sets
``REPRO_CHAOS_LOG`` the full injection log is archived as evidence.
"""

import dataclasses
import json

import pytest

from repro.io.generate import random_dna
from repro.service import (
    Deadline,
    DeadlineExceeded,
    QueryOptions,
    ResultCache,
    SearchClient,
    SearchEngine,
)
from repro.service import chaos
from repro.service.chaos import (
    CHAOS_LOG_ENV,
    ChaosEventLog,
    ChaosReport,
    ChaosSchedule,
    NET_FAULT_KINDS,
    POOL_FAULT_KINDS,
    build_workload,
    response_signature,
    run_chaos,
    run_ingest_chaos,
    run_reload_storm,
)
from repro.service.net import ServerThread
from repro.service.resilience import RetryPolicy, SupervisedWorkerPool

SEED = 0
REQUESTS = 24
FAULT_RATE = 0.5


@pytest.fixture(scope="module")
def chaos_report():
    """One full chaos run shared by every invariant test (it is the
    expensive part; the assertions are free)."""
    return run_chaos(seed=SEED, requests=REQUESTS, fault_rate=FAULT_RATE)


class TestScheduleDeterminism:
    def test_same_seed_same_schedule(self):
        a = ChaosSchedule(5, 40, fault_rate=0.4)
        b = ChaosSchedule(5, 40, fault_rate=0.4)
        assert a.to_payload() == b.to_payload()

    def test_different_seeds_differ(self):
        a = ChaosSchedule(5, 40, fault_rate=0.4)
        b = ChaosSchedule(6, 40, fault_rate=0.4)
        assert a.to_payload() != b.to_payload()

    def test_schedule_covers_both_fault_families(self):
        # The pinned suite seed must actually exercise network and
        # worker faults; a seed that schedules neither tests nothing.
        schedule = ChaosSchedule(SEED, REQUESTS, fault_rate=FAULT_RATE)
        kinds = {action.kind for action in schedule.actions.values()}
        assert kinds & set(NET_FAULT_KINDS)
        assert kinds & set(POOL_FAULT_KINDS)
        assert schedule.reload_after
        assert schedule.failed_reload_after is not None


class TestChaosInvariants:
    def test_no_request_lost_or_failed(self, chaos_report):
        assert len(chaos_report.entries) == REQUESTS
        assert chaos_report.ok, chaos_report.violations

    def test_no_request_double_answered(self, chaos_report):
        # The server's success counter equals the request count: every
        # request produced exactly one response frame.  (Cross-talk
        # would additionally have raised in the client's id matching.)
        assert chaos_report.facts["served"] == REQUESTS

    def test_answers_bit_identical_to_baseline(self, chaos_report):
        for label, outcome, expected in chaos_report.entries:
            assert response_signature(outcome) == response_signature(expected), label

    def test_faults_were_actually_injected(self, chaos_report):
        schedule = ChaosSchedule(SEED, REQUESTS, fault_rate=FAULT_RATE)
        injected = [
            e for e in chaos_report.log.events if e["kind"] == "inject"
        ]
        assert len(injected) == len(schedule.actions)
        kinds = [a.kind for a in schedule.actions.values()]
        assert chaos_report.facts["net_faults"] == sum(
            kind in NET_FAULT_KINDS for kind in kinds
        )
        # Pool retries, not the engine's in-process fallback, healed
        # every worker fault.
        assert chaos_report.facts["pool_retries"] >= sum(
            kind in POOL_FAULT_KINDS for kind in kinds
        )
        assert chaos_report.facts["fallback_sweeps"] == 0

    def test_reloads_happened_and_failed_reload_was_survived(self, chaos_report):
        schedule = ChaosSchedule(SEED, REQUESTS, fault_rate=FAULT_RATE)
        assert chaos_report.facts["reloads"] == len(schedule.reload_after)
        assert chaos_report.facts["generation"] == 1 + chaos_report.facts["reloads"]
        kinds = {e["kind"] for e in chaos_report.log.events}
        assert "reload-refused" in kinds  # torn loader surfaced, not swallowed

    def test_server_drained_cleanly_and_stayed_ready(self, chaos_report):
        assert chaos_report.facts["inflight"] == 0
        drained = chaos_report.log.events[-1]
        assert drained["kind"] == "drained"
        health = drained["health"]
        assert health["healthy"] is True
        assert health["ready"] is True
        assert health["quarantined_shards"] == []
        assert health["generation"] == chaos_report.facts["generation"]


class TestChecker:
    """The one checker judges every entry kind the runners produce."""

    def test_each_broken_promise_is_a_violation(self):
        queries, index, _ = build_workload(seed=3)
        answer = SearchEngine(index, cache=ResultCache(0)).search(
            queries[0], QueryOptions(top=5, min_score=1)
        )
        degraded = dataclasses.replace(answer, coverage=0.5, degraded_shards=(1,))
        report = ChaosReport("test", 0, ChaosEventLog())
        report.entries += [
            ("same", answer, answer),
            ("lost", ConnectionError("gone"), answer),
            ("blamed", answer, degraded),
            ("row", {"crashed": True, "acked": 2}, {"crashed": False}),
        ]
        chaos._judge(report, {"kept": True, "broken": False})
        assert [v.split(":")[0] for v in report.violations] == [
            "lost", "blamed", "row", "broken",
        ]
        assert not report.ok


class TestDeadlinePropagation:
    """An expired budget raises the same class at every layer."""

    def test_engine_layer(self):
        _, index, _ = build_workload(seed=3)
        engine = SearchEngine(index, cache=ResultCache(0))
        with pytest.raises(DeadlineExceeded) as excinfo:
            engine.search("ACGTACGT", QueryOptions(deadline_ms=0))
        assert excinfo.value.code == "deadline-exceeded"

    def test_pool_layer(self):
        _, index, _ = build_workload(seed=3)
        pool = SupervisedWorkerPool(workers=1, policy=RetryPolicy(retries=0))
        from repro.align.scoring import DEFAULT_DNA

        with pytest.raises(DeadlineExceeded):
            pool.sweep(
                index,
                ["ACGTACGT"],
                DEFAULT_DNA,
                min_score=1,
                k=5,
                deadline=Deadline.after_ms(0),
            )

    def test_wire_layer(self):
        _, index, _ = build_workload(seed=3)
        engine = SearchEngine(index, cache=ResultCache(0))
        with ServerThread(engine) as handle:
            with SearchClient(
                handle.host, handle.port, retry=RetryPolicy(retries=0)
            ) as client:
                with pytest.raises(DeadlineExceeded) as excinfo:
                    client.search(random_dna(40, seed=1), QueryOptions(deadline_ms=0))
                assert excinfo.value.code == "deadline-exceeded"
                # The connection survives; a budgeted-but-sane request works.
                response = client.search(
                    random_dna(40, seed=1), QueryOptions(deadline_ms=30_000)
                )
                assert response.report is not None


class TestReloadUnderLoad:
    def test_reload_storm_loses_nothing(self):
        report = run_reload_storm(
            seed=1, threads=3, requests_per_thread=4, reloads=3
        )
        assert len(report.entries) == 12
        assert report.ok, report.violations
        assert report.facts["generation"] == 1 + 3
        assert report.facts["inflight"] == 0


class TestEventLog:
    def test_log_dumps_via_environment(self, tmp_path, monkeypatch):
        target = tmp_path / "chaos_events.json"
        monkeypatch.setenv("REPRO_CHAOS_LOG", str(target))
        run_chaos(seed=11, requests=4, fault_rate=0.5, reloads=1)
        events = json.loads(target.read_text())
        assert events[0]["kind"] == "schedule"
        assert events[0]["seed"] == 11
        assert events[-1]["kind"] == "drained"
        # seq numbers record injection order explicitly.
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_log_records_are_threadsafe_appends(self):
        log = ChaosEventLog()
        log.record("a", x=1)
        log.record("b")
        assert len(log) == 2
        assert log.events[0] == {"seq": 0, "kind": "a", "x": 1}


@pytest.fixture(scope="module")
def ingest_report():
    return run_ingest_chaos(seed=5, n_new=4, seal_every=2, tcp=False)


class TestIngestChaosSmoke:
    def test_full_sweep_has_no_failures(self, ingest_report):
        """The labeled crash-point sweep plus fault drills all recover:
        every acked record served, no torn shard visible, rankings
        converge to the fault-free reference."""
        report = ingest_report
        assert report.ok, report.violations
        crash_labels = [
            label for label, _, _ in report.entries if label.startswith("crash@")
        ]
        # The probe enumerated real crash points, one row each.
        assert crash_labels and len(crash_labels) == report.facts["crash_points"]
        assert "0 violations" in report.summary()

    def test_rows_record_whether_they_crashed(self, ingest_report):
        crashed = {}
        for label, outcome, _ in ingest_report.entries:
            crashed.setdefault(label.split("@")[0], set()).add(outcome["crashed"])
        assert crashed == {
            "crash": {True}, "torn": {True}, "fsync-drop": {True},
            "short": {False}, "enospc": {False}, "eio": {False},
        }

    def test_log_dumps_via_environment(self, tmp_path, monkeypatch):
        target = tmp_path / "ingest_chaos.json"
        monkeypatch.setenv("REPRO_CHAOS_LOG", str(target))
        run_ingest_chaos(seed=2, n_new=3, seal_every=2, tcp=False)
        events = json.loads(target.read_text())
        assert events and events[0]["kind"] == "probe"


class TestCommandLine:
    @pytest.mark.parametrize(
        "mode, runner",
        [
            ([], "run_chaos"),
            (["--cluster"], "run_cluster_chaos"),
            (["--selfheal"], "run_selfheal_chaos"),
            (["--ingest"], "run_ingest_chaos"),
        ],
    )
    def test_exit_code_follows_violations_and_log_is_written_once(
        self, mode, runner, tmp_path, monkeypatch
    ):
        dumps = []
        monkeypatch.setattr(
            ChaosEventLog, "dump", lambda log, path: dumps.append(str(path))
        )
        # The runners dump to $REPRO_CHAOS_LOG themselves; main must not
        # dump there a second time.
        monkeypatch.setenv(CHAOS_LOG_ENV, str(tmp_path / "env.json"))
        for violations, code in (([], 0), (["a broken promise"], 1)):
            fake = ChaosReport("fake", 0, ChaosEventLog(), violations=violations)
            monkeypatch.setattr(chaos, runner, lambda **_kw: fake)
            target = str(tmp_path / "events.json")
            dumps.clear()
            assert chaos.main([*mode, "--log", target]) == code
            assert dumps == [target]
            dumps.clear()
            assert chaos.main(mode) == code
            assert dumps == []
