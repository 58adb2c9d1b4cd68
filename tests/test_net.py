"""TCP front-end tests: equivalence, pipelining, backpressure, drain.

The contract under test is the ISSUE's acceptance criterion: a
:class:`SearchClient` talking to a :class:`TcpSearchServer` over a real
socket returns rankings *identical* to calling the in-process
``SearchEngine.search`` — including the degraded-coverage and error
cases — while the server stays alive through bad frames, injected
faults and overload.
"""

import asyncio
import os
import signal
import socket
import threading
import time

import pytest

from repro.io.fasta import FastaRecord
from repro.io.generate import mutate, random_dna
from repro.obs import Observability
from repro.scan import scan_database
from repro.service import (
    BadRequest,
    DatabaseIndex,
    Overloaded,
    QueryOptions,
    ResultCache,
    RetryPolicy,
    SearchClient,
    SearchEngine,
    ServiceError,
    ShardFailure,
)
from repro.service.client import AsyncSearchClient
from repro.service.net import ServerConfig, ServerThread
from repro.service.resilience import Fault, FaultPlan, corrupt_index_file
from repro.service import protocol

from conftest import ServeProcess


def ranking(hits):
    return [(h.record, h.length, h.hit.as_tuple()) for h in hits]


@pytest.fixture(scope="module")
def planted():
    query = random_dna(60, seed=801)
    records = []
    for i in range(12):
        seq = random_dna(200, seed=900 + i)
        if i == 5:
            copy = mutate(query, rate=0.05, seed=950)
            seq = seq[:80] + copy + seq[80 + len(copy):]
        records.append(FastaRecord(f"rec{i}", seq))
    index = DatabaseIndex.build(records, shards=4)
    return query, records, index


def make_engine(index, **kwargs):
    kwargs.setdefault("cache", ResultCache(0))
    return SearchEngine(index, **kwargs)


class TestEquivalence:
    def test_remote_rankings_identical_to_inline(self, planted):
        query, records, index = planted
        engine = make_engine(index)
        options = QueryOptions(top=5, min_score=1)
        inline = engine.search(query, options)
        with ServerThread(engine) as handle:
            with SearchClient(handle.host, handle.port) as client:
                remote = client.search(query, options)
        assert ranking(remote.report.hits) == ranking(inline.report.hits)
        assert remote.coverage == inline.coverage == 1.0
        assert remote.degraded_shards == ()
        assert remote.report.records_scanned == inline.report.records_scanned

    def test_retrieval_crosses_the_wire(self, planted):
        query, records, index = planted
        engine = make_engine(index)
        with ServerThread(engine) as handle:
            with SearchClient(handle.host, handle.port) as client:
                remote = client.search(query, QueryOptions(top=3, retrieve=1))
        inline = engine.search(query, QueryOptions(top=3, retrieve=1))
        assert remote.report.hits[0].alignment is not None
        assert (
            remote.report.hits[0].alignment.pretty()
            == inline.report.hits[0].alignment.pretty()
        )

    def test_degraded_coverage_identical_to_inline(self, planted, tmp_path):
        query, records, index = planted
        path = tmp_path / "db.idx"
        index.save(path)
        corrupt_index_file(path, shard_id=2)
        loaded = DatabaseIndex.load(path, on_corrupt="quarantine")
        engine = make_engine(loaded)
        inline = engine.search(query, QueryOptions(top=5))
        assert inline.coverage < 1.0  # sanity: the fixture really degrades
        with ServerThread(engine) as handle:
            with SearchClient(handle.host, handle.port) as client:
                remote = client.search(query, QueryOptions(top=5))
        assert ranking(remote.report.hits) == ranking(inline.report.hits)
        assert remote.coverage == inline.coverage
        assert remote.degraded_shards == inline.degraded_shards == (2,)

    def test_bad_request_is_a_value_error_remotely(self, planted):
        query, _, index = planted
        with ServerThread(make_engine(index)) as handle:
            with SearchClient(handle.host, handle.port) as client:
                with pytest.raises(ValueError, match="top must be positive"):
                    client.search(query, QueryOptions(top=0))
                with pytest.raises(BadRequest):
                    client.search(query, QueryOptions(top=-3))
                # ...and the connection is still perfectly usable.
                assert client.search(query).report.hits

    def test_bad_options_are_refused_before_admission(self, planted):
        query, _, index = planted
        obs = Observability.create()
        with ServerThread(make_engine(index, obs=obs)) as handle:
            with SearchClient(handle.host, handle.port) as client:
                client.search(query)
                with pytest.raises(BadRequest, match="top must be positive"):
                    client.search(query, QueryOptions(top=0))
                # Refused even when the server is full: a caller's
                # mistake is a bad request, never overload.
                handle.server._draining = True
                try:
                    with pytest.raises(BadRequest):
                        client.search(query, QueryOptions(top=0))
                finally:
                    handle.server._draining = False
        counters = obs.registry.snapshot()["counters"]
        # Neither refusal took an admission slot or a batch.
        assert counters["repro_net_requests_total"] == 1
        assert counters["repro_net_batches_total"] == 1


class TestPipelining:
    def test_sync_pipelined_matches_inline(self, planted):
        query, records, index = planted
        engine = make_engine(index)
        queries = [query, query[:30], random_dna(40, seed=77)]
        inline = [engine.search(q, QueryOptions(top=4)) for q in queries]
        with ServerThread(engine) as handle:
            with SearchClient(handle.host, handle.port) as client:
                remote = client.search_pipelined(queries, QueryOptions(top=4))
        assert [ranking(r.report.hits) for r in remote] == [
            ranking(r.report.hits) for r in inline
        ]

    def test_async_client_pipelines_out_of_order_safely(self, planted):
        query, _, index = planted
        engine = make_engine(index)
        queries = [query, query[:20], random_dna(32, seed=11), query]

        async def drive(host, port):
            client = await AsyncSearchClient.connect(host, port)
            try:
                return await asyncio.gather(
                    *(client.search(q, QueryOptions(top=3)) for q in queries),
                    return_exceptions=True,
                )
            finally:
                await client.close()

        with ServerThread(engine) as handle:
            results = asyncio.run(drive(handle.host, handle.port))
        assert all(not isinstance(r, BaseException) for r in results)
        # Identical queries give identical remote rankings.
        assert ranking(results[0].report.hits) == ranking(results[3].report.hits)

    def test_micro_batching_coalesces_concurrent_requests(self, planted):
        query, _, index = planted
        obs = Observability.create()
        engine = make_engine(index, obs=obs)
        config = ServerConfig(batch_window=0.25, batch_max=8)
        queries = [query, query[:30], query[:40], random_dna(30, seed=5)]

        async def drive(host, port):
            client = await AsyncSearchClient.connect(host, port)
            try:
                return await asyncio.gather(
                    *(client.search(q) for q in queries)
                )
            finally:
                await client.close()

        with ServerThread(engine, config=config) as handle:
            results = asyncio.run(drive(handle.host, handle.port))
        assert len(results) == len(queries)
        counters = obs.registry.snapshot()["counters"]
        assert counters["repro_net_batched_requests_total"] == len(queries)
        # Coalescing happened: fewer engine dispatches than requests.
        assert counters["repro_net_batches_total"] < len(queries)


class TestBatchWindow:
    """The window closes once every open connection has a request in."""

    WINDOW = 0.5

    def _pair(self, planted, idle_connections):
        """Two lockstep connections search at once; returns (seconds, batches)."""
        query, _, index = planted
        obs = Observability.create()
        engine = make_engine(index, obs=obs)
        config = ServerConfig(batch_window=self.WINDOW)
        queries = [query, random_dna(40, seed=6)]
        with ServerThread(engine, config=config) as handle:
            clients = [
                SearchClient(handle.host, handle.port)
                for _ in range(2 + idle_connections)
            ]
            for client in clients:
                client.ping()  # every connection is open before the searches
            start = threading.Barrier(2)
            results = [None, None]

            def search(k):
                start.wait()
                results[k] = clients[k].search(queries[k], QueryOptions(top=3))

            threads = [threading.Thread(target=search, args=(k,)) for k in (0, 1)]
            began = time.monotonic()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            seconds = time.monotonic() - began
            for client in clients:
                client.close()
        inline = [engine.search(q, QueryOptions(top=3)) for q in queries]
        assert [ranking(r.report.hits) for r in results] == [
            ranking(r.report.hits) for r in inline
        ]
        counters = obs.registry.snapshot()["counters"]
        return seconds, counters["repro_net_batches_total"]

    def test_closes_once_every_connection_is_in(self, planted):
        seconds, batches = self._pair(planted, idle_connections=0)
        assert batches == 1
        assert seconds < self.WINDOW / 2

    def test_an_idle_connection_keeps_the_full_window(self, planted):
        seconds, batches = self._pair(planted, idle_connections=1)
        assert batches == 1
        assert seconds >= self.WINDOW * 0.9

    def test_pipelined_burst_still_sweeps_as_one_batch(self, planted):
        query, _, index = planted
        obs = Observability.create()
        engine = make_engine(index, obs=obs)
        queries = [query, query[:30], query[:40], random_dna(30, seed=5)]
        with ServerThread(engine, config=ServerConfig(batch_window=self.WINDOW)) as handle:
            with SearchClient(handle.host, handle.port) as client:
                began = time.monotonic()
                remote = client.search_pipelined(queries)
                seconds = time.monotonic() - began
        assert len(remote) == len(queries)
        counters = obs.registry.snapshot()["counters"]
        assert counters["repro_net_batches_total"] == 1
        assert seconds < self.WINDOW / 2


class TestBackpressure:
    def test_overload_rejected_with_structured_error(self, planted):
        query, _, index = planted

        class SlowEngine(SearchEngine):
            def search_batch(self, queries, options=None, **kwargs):
                time.sleep(0.4)
                return super().search_batch(queries, options, **kwargs)

        engine = SlowEngine(index, cache=ResultCache(0))
        config = ServerConfig(max_inflight=1, batch_window=0.0)
        with ServerThread(engine, config=config) as handle:
            with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
                sock.sendall(protocol.encode_frame(protocol.hello_frame()))
                replies = [_recv_frame(sock)]
                assert (
                    protocol.check_hello_reply(replies.pop())
                    == protocol.PROTOCOL_VERSION
                )
                for request_id in (1, 2, 3):
                    sock.sendall(
                        protocol.encode_frame(
                            protocol.search_request(request_id, query, QueryOptions())
                        )
                    )
                replies = [_recv_frame(sock) for _ in range(3)]
        by_id = {frame["id"]: frame for frame in replies}
        errors = [f for f in replies if f["type"] == "error"]
        assert errors and all(f["code"] == "overloaded" for f in errors)
        assert "retry" in errors[0]["message"]
        # The request that made it in still completed normally.
        assert by_id[1]["type"] == "response"
        assert by_id[1]["hits"]

    def test_client_retries_past_transient_overload(self, planted):
        query, _, index = planted

        class OnceOverloaded(SearchEngine):
            calls = 0

            def search_batch(self, queries, options=None, **kwargs):
                type(self).calls += 1
                if type(self).calls == 1:
                    raise Overloaded("transient spike; retry later")
                return super().search_batch(queries, options, **kwargs)

        engine = OnceOverloaded(index, cache=ResultCache(0))
        with ServerThread(engine) as handle:
            with SearchClient(
                handle.host,
                handle.port,
                retry=RetryPolicy(retries=2, base_delay=0.01, max_delay=0.02),
            ) as client:
                response = client.search(query)
        assert response.report.hits
        assert OnceOverloaded.calls == 2


class TestFaults:
    def test_midstream_fault_surfaces_as_error_frame(self, planted):
        """A FaultPlan fault mid-connection answers one structured error
        frame and the stream keeps serving."""
        query, _, index = planted
        plan = FaultPlan([Fault("error", 0, times=1)])

        class FaultInjectingEngine(SearchEngine):
            """Consults a real FaultPlan before each sweep, like a worker."""

            sweeps = 0

            def search_batch(self, queries, options=None, **kwargs):
                attempt = type(self).sweeps
                type(self).sweeps += 1
                if plan.fault_for(0, attempt) is not None:
                    raise ShardFailure(0, "injected worker error")
                return super().search_batch(queries, options, **kwargs)

        engine = FaultInjectingEngine(index, cache=ResultCache(0))
        with ServerThread(engine) as handle:
            with SearchClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.search(query)
                assert excinfo.value.code == "shard-failure"
                assert "shard 0" in str(excinfo.value)
                # Same connection, next sweep: the plan is exhausted.
                assert client.search(query).report.hits

    def test_connection_severed_mid_frame_raises_transport_error(self):
        """A server that dies between a response's length prefix and its
        payload must surface as a transport error — never a hang, never
        a parse of the truncated bytes."""
        ready = threading.Event()
        addr = {}

        def stub_server():
            with socket.create_server(("127.0.0.1", 0)) as listener:
                addr["port"] = listener.getsockname()[1]
                ready.set()
                conn, _ = listener.accept()
                with conn:
                    _recv_frame(conn)  # client hello
                    conn.sendall(protocol.encode_frame(protocol.hello_reply()))
                    _recv_frame(conn)  # the search request
                    # Promise a 64-byte response, deliver 7 bytes, die.
                    conn.sendall(protocol.HEADER.pack(64) + b'{"v": 2')

        thread = threading.Thread(target=stub_server, daemon=True)
        thread.start()
        assert ready.wait(5)
        with SearchClient(
            "127.0.0.1",
            addr["port"],
            retry=RetryPolicy(retries=0),
            timeout=5.0,
        ) as client:
            t0 = time.monotonic()
            with pytest.raises(EOFError, match="of 64 bytes"):
                client.search("ACGTACGT")
            assert time.monotonic() - t0 < 5.0  # failed fast, no hang
        thread.join(timeout=5)

    def test_broken_framing_answers_protocol_error(self, planted):
        _, _, index = planted
        with ServerThread(make_engine(index)) as handle:
            with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
                sock.sendall(protocol.HEADER.pack(protocol.MAX_FRAME_BYTES + 1))
                frame = _recv_frame(sock)
                assert frame["type"] == "error" and frame["code"] == "protocol"
                # The server closes a protocol-broken connection.
                assert sock.recv(1) == b""

    def test_garbage_json_answers_protocol_error(self, planted):
        _, _, index = planted
        with ServerThread(make_engine(index)) as handle:
            with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
                sock.sendall(protocol.HEADER.pack(5) + b"{nope")
                frame = _recv_frame(sock)
                assert frame["type"] == "error" and frame["code"] == "protocol"


class TestWireVersion:
    def test_v1_hello_and_v1_request_answer_protocol_error(self, planted):
        _, _, index = planted
        with ServerThread(make_engine(index)) as handle:
            with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
                hello = {"v": 1, "type": "hello", "versions": [1]}
                sock.sendall(protocol.encode_frame(hello))
                frame = _recv_frame(sock)
                assert frame["type"] == "error" and frame["code"] == "protocol"
                assert "no shared protocol version" in frame["message"]
                ping = dict(protocol.admin_request(1, "ping"), v=1)
                sock.sendall(protocol.encode_frame(ping))
                frame = _recv_frame(sock)
                assert frame["type"] == "error" and frame["code"] == "protocol"
                assert frame["id"] == 1
                # A refused frame is an answer, not a broken stream.
                sock.sendall(protocol.encode_frame(protocol.admin_request(2, "ping")))
                frame = _recv_frame(sock)
                assert frame["type"] == "result" and frame["payload"] == {"pong": True}

    def test_hello_less_v2_request_is_served(self, planted):
        query, _, index = planted
        engine = make_engine(index)
        inline = engine.search(query, QueryOptions(top=3))
        with ServerThread(engine) as handle:
            with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
                request = protocol.search_request(4, query, QueryOptions(top=3))
                sock.sendall(protocol.encode_frame(request))
                frame = _recv_frame(sock)
        assert frame["type"] == "response" and frame["id"] == 4
        assert frame["v"] == protocol.PROTOCOL_VERSION
        remote = protocol.parse_response(frame)
        assert ranking(remote.report.hits) == ranking(inline.report.hits)


class TestLifecycle:
    def test_graceful_drain_answers_inflight_requests(self, planted):
        query, _, index = planted

        class SlowEngine(SearchEngine):
            def search_batch(self, queries, options=None, **kwargs):
                time.sleep(0.3)
                return super().search_batch(queries, options, **kwargs)

        engine = SlowEngine(index, cache=ResultCache(0))
        handle = ServerThread(engine, config=ServerConfig(batch_window=0.0)).start()
        client = SearchClient(handle.host, handle.port)
        result: dict = {}

        def call():
            try:
                result["response"] = client.search(query)
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                result["error"] = exc

        thread = threading.Thread(target=call)
        thread.start()
        time.sleep(0.1)  # the request is mid-sweep now
        handle.stop()  # graceful drain must flush the in-flight answer
        thread.join(timeout=10)
        client.close()
        assert "response" in result, result.get("error")
        assert result["response"].report.hits

    def test_draining_server_rejects_new_work(self, planted):
        query, _, index = planted
        engine = make_engine(index)
        handle = ServerThread(engine).start()
        try:
            server = handle.server
            policy = RetryPolicy(retries=0)
            with SearchClient(handle.host, handle.port, retry=policy) as client:
                client.search(query)  # opens (and pools) a live connection
                server._draining = True
                # On an existing connection, draining answers a
                # structured overloaded error rather than going dark.
                with pytest.raises(Overloaded, match="draining"):
                    client.search(query)
        finally:
            server._draining = False
            handle.stop()

    def test_idle_timeout_closes_silent_connections(self, planted):
        _, _, index = planted
        config = ServerConfig(idle_timeout=0.1)
        with ServerThread(make_engine(index), config=config) as handle:
            with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
                sock.settimeout(5)
                assert sock.recv(1) == b""  # server hung up on the idler

    def test_served_counts_only_successes(self, planted):
        query, _, index = planted
        with ServerThread(make_engine(index)) as handle:
            server = handle.server
            with SearchClient(handle.host, handle.port) as client:
                client.search(query)
                with pytest.raises(ValueError):
                    client.search(query, QueryOptions(top=0))
            assert server.served == 1

    def test_served_counts_before_the_reply_lands(self, planted):
        query, _, index = planted
        with ServerThread(make_engine(index)) as handle:
            server = handle.server
            send = server._send

            async def slow_send(writer, frame):
                await send(writer, frame)
                await asyncio.sleep(0.3)  # the client holds its reply by now

            server._send = slow_send
            with SearchClient(handle.host, handle.port) as client:
                client.search(query)
                assert server.served == 1


class TestServeCommand:
    def test_multi_shard_index_served_by_two_workers_then_drained(
        self, planted, tmp_path
    ):
        """``repro serve IDX --tcp --workers 2`` on a 4-shard index.

        Every sweep forks pool workers inside a process whose event
        loop owns SIGINT/SIGTERM; tearing a worker down must not drain
        the server, and the server's own SIGINT must drain it cleanly
        with nothing left behind in its process group.
        """
        _, records, index = planted
        assert index.shard_count >= 4
        path = tmp_path / "db.idx"
        index.save(path)
        queries = [
            mutate(records[r].sequence[40:100], rate=0.1, seed=1000 + r)
            for r in range(8)
        ]
        with ServeProcess(path, "--workers", "2") as served:
            options = QueryOptions(top=5, min_score=1)
            policy = RetryPolicy(retries=0)
            with SearchClient(served.host, served.port, retry=policy) as client:
                for q in queries:
                    remote = client.search(q, options)
                    expected = scan_database(q, records, top=5, min_score=1, retrieve=0)
                    assert remote.coverage == 1.0
                    assert ranking(remote.report.hits) == ranking(expected.hits)
            output = served.stop()
        assert "served 8 requests\n" in output, "".join(output)
        with pytest.raises(ProcessLookupError):
            os.killpg(served.proc.pid, 0)

    def test_reload_signal_swaps_the_generation_and_rankings_hold(
        self, planted, tmp_path
    ):
        """``--reload-signal hup``: SIGHUP reloads the index under the
        running server, one generation up, and answers stay those of
        ``scan_database``."""
        _, records, index = planted
        path = tmp_path / "db.idx"
        index.save(path)
        query = mutate(records[5].sequence[40:100], rate=0.1, seed=1005)
        options = QueryOptions(top=5, min_score=1)
        expected = scan_database(query, records, top=5, min_score=1, retrieve=0)
        with ServeProcess(path, "--reload-signal", "hup") as served:
            with SearchClient(served.host, served.port) as client:
                before = client.health()["generation"]
                assert ranking(client.search(query, options).report.hits) == ranking(
                    expected.hits
                )
                served.proc.send_signal(signal.SIGHUP)
                deadline = time.monotonic() + 20.0
                while client.health()["generation"] == before:
                    assert time.monotonic() < deadline, "SIGHUP reloaded nothing"
                    time.sleep(0.05)
                assert client.health()["generation"] == before + 1
                assert ranking(client.search(query, options).report.hits) == ranking(
                    expected.hits
                )
            output = served.stop()
        assert "served 2 requests\n" in output, "".join(output)

    def test_drains_on_sigint_when_started_with_sigint_ignored(self, planted, tmp_path):
        """A ``cmd &`` child of a non-interactive shell starts with SIGINT
        ignored; the server's own handler still drains it on SIGINT."""
        query, _, index = planted
        path = tmp_path / "db.idx"
        index.save(path)
        with ServeProcess(path, sigint_ignored=True) as served:
            with SearchClient(served.host, served.port) as client:
                response = client.search(query, QueryOptions(top=3))
            output = served.stop()
        assert response.report.best().record == "rec5"
        assert "served 1 requests\n" in output, "".join(output)


class TestAdminVerbs:
    def test_stats_metrics_trace_ping_over_tcp(self, planted):
        query, _, index = planted
        obs = Observability.create()
        engine = make_engine(index, obs=obs)
        with ServerThread(engine) as handle:
            with SearchClient(handle.host, handle.port) as client:
                assert client.ping() is True
                client.search(query)
                stats = client.stats()
                assert "net connections" in stats and "records" in stats
                assert int(stats["net served"]) == 1
                text = client.metrics()
                assert "net_requests_total" in text
                assert "repro_requests_total" in text
                # The server finishes the net.batch span (and appends it
                # to the trace ring) *after* sending the search reply,
                # so a fast follow-up can briefly see an empty ring.
                deadline = time.monotonic() + 5.0
                while True:
                    listing = client.trace()
                    if not listing.startswith("#"):
                        break
                    assert time.monotonic() < deadline, "search trace never landed"
                    time.sleep(0.01)
                trace_id = listing.split()[0]
                tree = client.trace(trace_id)
                assert "net.batch" in tree
                assert "net.recv" in tree and "net.send" in tree
                assert "engine.search" in tree

    def test_unknown_trace_id_is_bad_request(self, planted):
        _, _, index = planted
        obs = Observability.create()
        with ServerThread(make_engine(index, obs=obs)) as handle:
            with SearchClient(handle.host, handle.port) as client:
                with pytest.raises(ValueError, match="unknown trace id"):
                    client.trace("t999999")


class TestTraceAdoption:
    """Distributed trace context: the server records under the caller's id."""

    def _await_trace(self, tracer, trace_id):
        # net.batch lands in the ring *after* the reply is sent.
        deadline = time.monotonic() + 5.0
        while True:
            root = tracer.get(trace_id)
            if root is not None:
                return root
            assert time.monotonic() < deadline, f"{trace_id} never landed"
            time.sleep(0.005)

    def test_server_adopts_remote_context(self, planted):
        query, _, index = planted
        obs = Observability.create()
        with ServerThread(make_engine(index, obs=obs)) as handle:
            with SearchClient(handle.host, handle.port) as client:
                client.search(query, trace_id="t900001", parent_span="s1")
                root = self._await_trace(obs.tracer, "t900001")
        assert root.name == "net.batch"
        assert root.attrs["remote"] is True
        assert root.attrs["remote_parent"] == "s1"
        names = [span.name for span in root.walk()]
        assert "engine.search" in names and "pool.sweep" in names
        # Every span of the subtree carries the caller's id — that is
        # what makes the cross-node stitch line up.
        assert {span.trace_id for span in root.walk()} == {"t900001"}

    def test_trace_verb_ships_the_adopted_tree(self, planted):
        query, _, index = planted
        obs = Observability.create()
        with ServerThread(make_engine(index, obs=obs)) as handle:
            with SearchClient(handle.host, handle.port) as client:
                client.search(query, trace_id="t900002")
                self._await_trace(obs.tracer, "t900002")
                payload = client.trace_tree("t900002")
                text = client.trace("t900002")
        from repro.obs import Span

        tree = Span.from_payload(payload)
        assert tree.trace_id == "t900002"
        assert tree.name == "net.batch"
        assert any(span.name == "engine.search" for span in tree.walk())
        assert "net.batch" in text and "engine.search" in text

    def test_search_without_context_stays_local(self, planted):
        query, _, index = planted
        obs = Observability.create()
        with ServerThread(make_engine(index, obs=obs)) as handle:
            with SearchClient(handle.host, handle.port) as client:
                client.search(query)
                deadline = time.monotonic() + 5.0
                while not obs.tracer.recent:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
        (root,) = obs.tracer.recent
        assert "remote" not in root.attrs
        assert root.trace_id.startswith("t")


def _recv_frame(sock: socket.socket) -> dict:
    header = _recv_exact(sock, protocol.HEADER.size)
    return protocol.decode_frame(_recv_exact(sock, protocol.frame_length(header)))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise EOFError(f"socket closed after {len(data)} of {n} bytes")
        data += chunk
    return data
