"""Wire-protocol tests: framing round-trips, failure modes, options.

The frame protocol is the contract between server and client; these
tests pin it three ways — property-based encode→decode identity,
explicit clean failures for every way a byte stream can be broken, and
:class:`QueryOptions`, the one request vocabulary every layer speaks.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.align.smith_waterman import LocalHit
from repro.scan import ScanHit, ScanReport
from repro.service import (
    BadRequest,
    Overloaded,
    ProtocolError,
    QueryOptions,
    RequestTimeout,
    ServiceError,
    ShardFailure,
)
from repro.service import protocol
from repro.service.engine import RequestMetrics, SearchResponse


# ----------------------------------------------------------------------
# Framing: encode -> decode identity
# ----------------------------------------------------------------------
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**31), 2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
)
json_objects = st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.one_of(json_scalars, st.lists(json_scalars, max_size=4)),
    max_size=8,
)


class TestFraming:
    @settings(max_examples=60, deadline=None)
    @given(obj=json_objects)
    def test_frame_roundtrip_identity(self, obj):
        assert protocol.decode_frame_bytes(protocol.encode_frame(obj)) == obj

    @settings(max_examples=30, deadline=None)
    @given(obj=json_objects, cut=st.integers(0, 3))
    def test_truncated_header_raises(self, obj, cut):
        data = protocol.encode_frame(obj)
        with pytest.raises(ProtocolError, match="truncated frame header"):
            protocol.decode_frame_bytes(data[:cut])

    @settings(max_examples=30, deadline=None)
    @given(obj=json_objects, drop=st.integers(1, 8))
    def test_truncated_body_raises(self, obj, drop):
        data = protocol.encode_frame(obj)
        body_len = len(data) - protocol.HEADER.size
        with pytest.raises(ProtocolError, match="truncated frame body"):
            protocol.decode_frame_bytes(data[: protocol.HEADER.size + max(0, body_len - drop)])

    def test_trailing_garbage_raises(self):
        data = protocol.encode_frame({"v": 1}) + b"xx"
        with pytest.raises(ProtocolError, match="trailing bytes"):
            protocol.decode_frame_bytes(data)

    def test_oversized_announcement_raises(self):
        header = protocol.HEADER.pack(protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.frame_length(header)

    def test_oversized_payload_refused_at_encode(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.encode_frame({"pad": "x" * (protocol.MAX_FRAME_BYTES + 1)})

    def test_garbage_json_raises(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            protocol.decode_frame(b"{nope")

    def test_non_object_body_raises(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            protocol.decode_frame(b"[1,2,3]")


# ----------------------------------------------------------------------
# Hello / version negotiation
# ----------------------------------------------------------------------
class TestNegotiation:
    def test_happy_path(self):
        version = protocol.negotiate(protocol.hello_frame())
        assert version == protocol.PROTOCOL_VERSION
        assert protocol.check_hello_reply(protocol.hello_reply()) == version

    def test_no_shared_version(self):
        for version in (1, 99):  # v1 is removed; 99 is from the future
            with pytest.raises(ProtocolError, match="no shared protocol version"):
                protocol.negotiate(
                    {"v": version, "type": "hello", "versions": [version]}
                )

    @pytest.mark.parametrize("bad", [True, 2.0])
    def test_versions_are_type_strict(self, bad):
        # JSON true and 2.0 compare equal to 1 and 2 in Python; neither
        # is a protocol version, at any of the three checks.
        with pytest.raises(ProtocolError, match="integer versions"):
            protocol.negotiate({"type": "hello", "versions": [bad]})
        reply = dict(protocol.hello_reply(), version=bad)
        with pytest.raises(ProtocolError, match="unsupported version"):
            protocol.check_hello_reply(reply)
        frame = dict(protocol.search_request(1, "ACGT", QueryOptions()), v=bad)
        with pytest.raises(ProtocolError, match="unsupported protocol version"):
            protocol.parse_request(frame)

    def test_malformed_versions(self):
        with pytest.raises(ProtocolError, match="integer versions"):
            protocol.negotiate({"v": 1, "type": "hello", "versions": "1"})

    def test_client_rejects_bad_reply(self):
        with pytest.raises(ProtocolError, match="expected hello"):
            protocol.check_hello_reply({"v": 1, "type": "result"})
        with pytest.raises(ProtocolError, match="unsupported version"):
            protocol.check_hello_reply({"v": 1, "type": "hello", "version": 99})

    def test_client_surfaces_error_reply(self):
        frame = protocol.error_frame(None, "overloaded", "busy")
        with pytest.raises(Overloaded, match="busy"):
            protocol.check_hello_reply(frame)

    def test_version_mismatch_on_request(self):
        frame = protocol.search_request(1, "ACGT", QueryOptions())
        for version in (1, protocol.PROTOCOL_VERSION + 1):
            frame["v"] = version
            with pytest.raises(ProtocolError, match="unsupported protocol version"):
                protocol.parse_request(frame)


# ----------------------------------------------------------------------
# Requests and options
# ----------------------------------------------------------------------
class TestRequests:
    @settings(max_examples=40, deadline=None)
    @given(
        request_id=st.integers(0, 2**31),
        query=st.text(alphabet="ACGT", min_size=1, max_size=60),
        top=st.integers(-3, 40),
        min_score=st.integers(-3, 40),
        retrieve=st.integers(-3, 8),
    )
    def test_search_request_roundtrip(self, request_id, query, top, min_score, retrieve):
        options = QueryOptions(top=top, min_score=min_score, retrieve=retrieve)
        frame = protocol.search_request(request_id, query, options)
        frame = protocol.decode_frame_bytes(protocol.encode_frame(frame))
        parsed = protocol.parse_request(frame)
        assert parsed.verb == "search"
        assert parsed.request_id == request_id
        assert parsed.query == query
        assert protocol.options_from_wire(parsed.options) == options

    def test_empty_query_is_bad_request(self):
        frame = protocol.search_request(1, "ACGT", QueryOptions())
        frame["query"] = ""
        with pytest.raises(BadRequest):
            protocol.parse_request(frame)

    def test_unknown_verb_is_protocol_error(self):
        frame = protocol.admin_request(1, "ping")
        frame["verb"] = "drop"
        with pytest.raises(ProtocolError, match="unknown verb"):
            protocol.parse_request(frame)

    def test_non_integer_id_is_protocol_error(self):
        frame = protocol.search_request(1, "ACGT", QueryOptions())
        for bad in ("7", None, True):
            frame["id"] = bad
            with pytest.raises(ProtocolError, match="request id"):
                protocol.parse_request(frame)

    def test_options_from_wire_rejects_unknown_and_non_int(self):
        with pytest.raises(ValueError, match="unknown option"):
            protocol.options_from_wire({"fanout": 3})
        with pytest.raises(ValueError, match="must be an integer"):
            protocol.options_from_wire({"top": "ten"})
        with pytest.raises(ValueError, match="must be an integer"):
            protocol.options_from_wire({"top": True})

    def test_options_from_wire_layers_over_defaults(self):
        defaults = QueryOptions(top=5, min_score=7, retrieve=1)
        assert protocol.options_from_wire(None, defaults) == defaults
        assert protocol.options_from_wire({"top": 2}, defaults) == QueryOptions(
            top=2, min_score=7, retrieve=1
        )


# ----------------------------------------------------------------------
# Distributed trace context on the wire
# ----------------------------------------------------------------------
class TestTraceContext:
    @settings(max_examples=40, deadline=None)
    @given(
        trace_id=st.one_of(st.none(), st.text(min_size=1, max_size=24)),
        parent_span=st.one_of(st.none(), st.text(min_size=1, max_size=24)),
    )
    def test_context_round_trips_on_v2(self, trace_id, parent_span):
        frame = protocol.search_request(
            3, "ACGT", QueryOptions(), trace_id=trace_id, parent_span=parent_span
        )
        frame = protocol.decode_frame_bytes(protocol.encode_frame(frame))
        parsed = protocol.parse_request(frame)
        assert parsed.trace_id == trace_id
        assert parsed.parent_span == parent_span

    def test_v2_frames_stay_byte_stable(self):
        # A golden search request, every optional key set: the bytes a
        # deployed peer sends may not move.
        options = QueryOptions(
            top=3, min_score=2, retrieve=1, deadline_ms=250, kernel="numpy-striped"
        )
        frame = protocol.search_request(
            7, "ACGTTGCA", options, trace_id="t000001", parent_span="cluster.fanout"
        )
        assert protocol.encode_frame(frame) == GOLDEN_SEARCH_REQUEST

    def test_context_omitted_when_not_supplied(self):
        frame = protocol.search_request(1, "ACGT", QueryOptions())
        assert "trace_id" not in frame and "parent_span" not in frame

    @settings(max_examples=20, deadline=None)
    @given(
        field=st.sampled_from(["trace_id", "parent_span"]),
        bad=st.sampled_from(["", 7, True, 1.5, ["t1"]]),
    )
    def test_malformed_context_is_protocol_error(self, field, bad):
        frame = protocol.search_request(1, "ACGT", QueryOptions())
        frame[field] = bad
        with pytest.raises(ProtocolError, match=field):
            protocol.parse_request(frame)

    def test_admin_verbs_drop_trace_context(self):
        frame = protocol.admin_request(2, "ping")
        frame["trace_id"] = "t000009"
        frame["parent_span"] = "s2"
        parsed = protocol.parse_request(frame)
        assert parsed.trace_id is None and parsed.parent_span is None


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
GOLDEN_SEARCH_REQUEST = (
    b'\x00\x00\x00\xd0{"id":7,"options":{"deadline_ms":250,"kernel":"numpy-striped",'
    b'"min_score":2,"retrieve":1,"top":3},"parent_span":"cluster.fanout",'
    b'"query":"ACGTTGCA","trace_id":"t000001","type":"request","v":2,"verb":"search"}'
)
GOLDEN_RESPONSE = (
    b'\x00\x00\x014{"cache_hit":false,"cells":96,"coverage":1.0,"degraded_shards":[],'
    b'"hits":[{"evalue":0.125,"i":7,"j":10,"length":12,"record":"rec1","score":9}],'
    b'"id":7,"min_score":2,"query":"ACGTTGCA","records":4,"retrieval_seconds":0.25,'
    b'"shards":3,"sweep_seconds":0.5,"total_seconds":0.75,"type":"response","v":2,'
    b'"workers":2}'
)
GOLDEN_RESULT = b'\x00\x00\x006{"id":8,"payload":{"pong":true},"type":"result","v":2}'


def make_response(query="ACGTACGT", degraded=False, with_alignment=False):
    report = ScanReport(
        query_length=len(query),
        min_score=3,
        records_scanned=5,
        cells=1200,
        sweep_seconds=0.01,
        total_seconds=0.02,
    )
    hits = [
        ScanHit(record="rec3", length=250, hit=LocalHit(45, 8, 137), evalue=1e-9),
        ScanHit(record="rec1", length=200, hit=LocalHit(9, 3, 17)),
    ]
    if with_alignment:
        hits[0] = ScanHit(
            record="rec3",
            length=250,
            hit=LocalHit(45, 8, 137),
            alignment=protocol.RemoteAlignment("ACGT\n||||\nACGT", 0.95),
            evalue=1e-9,
        )
    report.hits.extend(hits)
    metrics = RequestMetrics(
        query_length=len(query),
        records=5,
        cells=1200,
        sweep_seconds=0.01,
        retrieval_seconds=0.004,
        total_seconds=0.02,
        workers=2,
        shards=4,
        cache_hit=False,
    )
    return SearchResponse(
        query=query,
        report=report,
        metrics=metrics,
        coverage=0.75 if degraded else 1.0,
        degraded_shards=(2,) if degraded else (),
    )


class TestResponses:
    @pytest.mark.parametrize("degraded", [False, True])
    @pytest.mark.parametrize("with_alignment", [False, True])
    def test_response_roundtrip(self, degraded, with_alignment):
        response = make_response(degraded=degraded, with_alignment=with_alignment)
        frame = protocol.decode_frame_bytes(
            protocol.encode_frame(protocol.response_frame(7, response))
        )
        back = protocol.parse_response(frame)
        assert back.query == response.query
        assert back.coverage == response.coverage
        assert back.degraded_shards == response.degraded_shards
        assert [
            (h.record, h.length, h.hit.as_tuple(), h.evalue) for h in back.report.hits
        ] == [
            (h.record, h.length, h.hit.as_tuple(), h.evalue)
            for h in response.report.hits
        ]
        assert back.metrics == response.metrics
        if with_alignment:
            assert back.report.hits[0].alignment.pretty() == "ACGT\n||||\nACGT"
            assert back.report.hits[0].alignment.identity() == 0.95
        # The round-tripped response renders like a local one.
        assert "rank" in back.render(max_rows=5)

    def test_malformed_response_is_protocol_error(self):
        frame = protocol.response_frame(7, make_response())
        del frame["coverage"]
        with pytest.raises(ProtocolError, match="malformed response"):
            protocol.parse_response(frame)

    def test_response_and_result_frames_stay_byte_stable(self):
        report = ScanReport(
            query_length=8,
            min_score=2,
            records_scanned=4,
            cells=96,
            sweep_seconds=0.5,
            total_seconds=0.75,
        )
        report.hits.append(
            ScanHit(record="rec1", length=12, hit=LocalHit(9, 7, 10), evalue=0.125)
        )
        metrics = RequestMetrics(
            query_length=8,
            records=4,
            cells=96,
            sweep_seconds=0.5,
            retrieval_seconds=0.25,
            total_seconds=0.75,
            workers=2,
            shards=3,
            cache_hit=False,
        )
        response = SearchResponse(
            query="ACGTTGCA", report=report, metrics=metrics, coverage=1.0,
            degraded_shards=(),
        )
        frame = protocol.response_frame(7, response)
        assert protocol.encode_frame(frame) == GOLDEN_RESPONSE
        pong = protocol.result_frame(8, {"pong": True})
        assert protocol.encode_frame(pong) == GOLDEN_RESULT

    def test_wrong_type_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="expected a response"):
            protocol.parse_response({"v": 2, "type": "result"})


# ----------------------------------------------------------------------
# Errors and the taxonomy mapping
# ----------------------------------------------------------------------
class TestErrors:
    @settings(max_examples=30, deadline=None)
    @given(
        code=st.sampled_from(
            ["bad-request", "overloaded", "timeout", "index-corrupt", "protocol",
             "shard-failure", "internal"]
        ),
        message=st.text(min_size=1, max_size=60),
    )
    def test_error_frame_roundtrip_code(self, code, message):
        frame = protocol.decode_frame_bytes(
            protocol.encode_frame(protocol.error_frame(3, code, message))
        )
        error = protocol.error_for_code(frame["code"], frame["message"])
        assert error.code == code
        assert str(error) == protocol.one_line(message)

    def test_remote_bad_request_is_value_error(self):
        error = protocol.error_for_code("bad-request", "top must be positive")
        assert isinstance(error, BadRequest)
        assert isinstance(error, ValueError)
        assert isinstance(error, ServiceError)

    def test_classify_keeps_service_error_codes(self):
        assert protocol.classify_exception(BadRequest("x"))[0] == "bad-request"
        assert protocol.classify_exception(Overloaded("x"))[0] == "overloaded"
        assert protocol.classify_exception(RequestTimeout("x"))[0] == "timeout"
        assert protocol.classify_exception(ShardFailure(3, "boom"))[0] == "shard-failure"

    def test_classify_maps_bad_input_and_unknown(self):
        assert protocol.classify_exception(ValueError("nope"))[0] == "bad-request"
        assert protocol.classify_exception(TypeError("nope"))[0] == "bad-request"
        code, message = protocol.classify_exception(RuntimeError("boom"))
        assert code == "internal" and "RuntimeError" in message

    def test_format_error_line_single_line(self):
        line = protocol.format_error_line("bad-request", "multi\nline  message")
        assert line == "error bad-request multi line message"


# ----------------------------------------------------------------------
# QueryOptions
# ----------------------------------------------------------------------
class TestQueryOptions:
    def test_validate_ranges(self):
        QueryOptions().validate()
        with pytest.raises(ValueError, match="top must be positive"):
            QueryOptions(top=0).validate()
        with pytest.raises(ValueError, match="retrieve cannot be negative"):
            QueryOptions(retrieve=-1).validate()

    def test_construction_never_validates(self):
        # A bad request must reach the engine and come back structured.
        assert QueryOptions(top=0).top == 0

    def test_resolve_prefers_options_then_defaults(self):
        from repro.service import resolve_query_options

        options, defaults = QueryOptions(top=3), QueryOptions(top=7)
        assert resolve_query_options(options, defaults) is options
        assert resolve_query_options(None, defaults) is defaults
        assert resolve_query_options() == QueryOptions()

    def test_engine_rejects_anything_but_options(self):
        from repro.io.fasta import FastaRecord
        from repro.io.generate import random_dna
        from repro.service import DatabaseIndex, SearchEngine

        records = [FastaRecord(f"r{i}", random_dna(120, seed=i)) for i in range(4)]
        engine = SearchEngine(DatabaseIndex.build(records, shard_bp=300))
        for bad in (3, True, {"top": 3}):
            with pytest.raises(TypeError, match="options must be QueryOptions"):
                engine.search("ACGTACGT", bad)
