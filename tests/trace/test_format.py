"""Codec tests: text and binary trace formats."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import format as fmt
from repro.trace.events import EventKind, EventRecord, TraceMeta


def full_event():
    return EventRecord(
        rank=3,
        seq=17,
        kind=EventKind.WAITSOME,
        t_start=123.456,
        t_end=789.012,
        peer=5,
        tag=42,
        nbytes=4096,
        req=-1,
        reqs=(1, 2, 3),
        completed=(2,),
        root=1,
        coll_seq=9,
        recv_peer=2,
        recv_tag=7,
        recv_nbytes=64,
    )


class TestTextCodec:
    def test_round_trip_full(self):
        e = full_event()
        assert fmt.decode_event_text(fmt.encode_event_text(e)) == e

    def test_header_round_trip(self):
        meta = TraceMeta(rank=1, nprocs=4, program="p", clock_offset=2.5, clock_drift=1e-6)
        buf = io.StringIO()
        fmt.write_header_text(buf, meta)
        buf.seek(0)
        assert fmt.read_header_text(buf) == meta

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            fmt.decode_event_text("[1,2,3]")

    @pytest.mark.parametrize(
        "line",
        [
            "[3,0,0,1.0,2.0,1,0,8,-1,5,[],-1,-1,-1,-1,0,0]",  # reqs not a list
            '[3,0,0,"a",2.0,1,0,8,-1,[],[],-1,-1,-1,-1,0,0]',  # string time
            "[3,null,0,1.0,2.0,1,0,8,-1,[],[],-1,-1,-1,-1,0,0]",  # null rank
            '[3,0,0,1.0,2.0,1,0,8,-1,[],[],-1,-1,-1,-1,0,"1"]',  # string flags
            "[3,0,0.5,1.0,2.0,1,0,8,-1,[],[],-1,-1,-1,-1,0,0]",  # fractional seq
            "[3,0,true,1.0,2.0,1,0,8,-1,[],[],-1,-1,-1,-1,0,0]",  # boolean seq
            "[3.0,0,0,1.0,2.0,1,0,8,-1,[],[],-1,-1,-1,-1,0,0]",  # float kind
            "[3,0,0,1.0,2.0,1,0,8,-1,[1.5],[],-1,-1,-1,-1,0,0]",  # float request id
            "[3,0,0,1.0,true,1,0,8,-1,[],[],-1,-1,-1,-1,0,0]",  # boolean time
        ],
    )
    def test_mistyped_field_rejected(self, line):
        with pytest.raises(ValueError, match="malformed trace line"):
            fmt.decode_event_text(line)

    def test_nan_time_accepted(self):
        """NaN times decode (lint rule MPG002 reports them)."""
        ev = fmt.decode_event_text("[3,0,0,NaN,2.0,1,0,8,-1,[],[],-1,-1,-1,-1,0,0]")
        assert ev.t_start != ev.t_start

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            fmt.read_header_text(io.StringIO(""))
        with pytest.raises(ValueError):
            fmt.read_header_text(io.StringIO('{"not_meta": 1}\n'))


class TestBinaryCodec:
    def test_round_trip_full(self):
        e = full_event()
        buf = io.BytesIO(fmt.encode_event_binary(e))
        decoded = list(fmt.decode_events_binary(buf))
        assert decoded == [e]

    def test_round_trip_many(self):
        events = [
            EventRecord(rank=0, seq=i, kind=EventKind(i % 19), t_start=float(i), t_end=float(i + 1))
            for i in range(50)
        ]
        blob = b"".join(fmt.encode_event_binary(e) for e in events)
        assert list(fmt.decode_events_binary(io.BytesIO(blob))) == events

    def test_header_round_trip(self):
        meta = TraceMeta(rank=0, nprocs=2, program="abc")
        buf = io.BytesIO()
        fmt.write_header_binary(buf, meta)
        buf.seek(0)
        assert fmt.read_header_binary(buf) == meta

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            fmt.read_header_binary(io.BytesIO(b"NOTMAGIC" + b"\0" * 10))

    def test_truncated_header_rejected(self):
        buf = io.BytesIO()
        fmt.write_header_binary(buf, TraceMeta(rank=0, nprocs=1))
        data = buf.getvalue()[:-4]
        with pytest.raises(ValueError, match="truncated"):
            fmt.read_header_binary(io.BytesIO(data))

    def test_truncated_record_rejected(self):
        blob = fmt.encode_event_binary(full_event())
        with pytest.raises(ValueError, match="truncated"):
            list(fmt.decode_events_binary(io.BytesIO(blob[:-4])))

    def test_truncated_fixed_part_rejected(self):
        blob = fmt.encode_event_binary(
            EventRecord(rank=0, seq=0, kind=EventKind.SEND, t_start=0, t_end=1)
        )
        with pytest.raises(ValueError, match="truncated"):
            list(fmt.decode_events_binary(io.BytesIO(blob[:10])))


class TestWildcardFlags:
    """The MPGT0002 wildcard-flags byte and MPGT0001 compatibility."""

    def wildcard_event(self):
        return EventRecord(
            rank=0, seq=1, kind=EventKind.RECV, t_start=1.0, t_end=2.0,
            peer=3, tag=7, nbytes=64, src_any=True, tag_any=True,
        )

    def test_text_round_trip(self):
        e = self.wildcard_event()
        decoded = fmt.decode_event_text(fmt.encode_event_text(e))
        assert decoded == e
        assert decoded.src_any and decoded.tag_any

    def test_binary_round_trip(self):
        e = self.wildcard_event()
        buf = io.BytesIO(fmt.encode_event_binary(e))
        (decoded,) = fmt.decode_events_binary(buf)
        assert decoded == e

    def test_legacy_text_line_defaults_to_no_wildcards(self):
        # Pre-flags lines have 16 elements; they must still decode,
        # with both wildcard flags False.
        line = fmt.encode_event_text(self.wildcard_event())
        legacy = line[: line.rindex(",")] + "]"
        decoded = fmt.decode_event_text(legacy)
        assert not decoded.src_any and not decoded.tag_any
        assert decoded.peer == 3 and decoded.tag == 7

    def test_legacy_binary_record_decodes_without_flags(self):
        e = self.wildcard_event()
        v1_head = fmt._FIXED_V1.pack(
            int(e.kind), e.rank, e.seq, e.t_start, e.t_end, e.peer, e.tag,
            e.nbytes, e.req, e.root, e.coll_seq, e.recv_peer, e.recv_tag,
            e.recv_nbytes, 0, 0,
        )
        (decoded,) = fmt.decode_events_binary(io.BytesIO(v1_head), with_flags=False)
        assert not decoded.src_any and not decoded.tag_any
        assert decoded.peer == 3

    def test_versioned_header_detects_v1(self):
        meta = TraceMeta(rank=0, nprocs=2, program="abc")
        buf = io.BytesIO()
        fmt.write_header_binary(buf, meta)
        buf.seek(0)
        _, with_flags = fmt.read_header_binary_versioned(buf)
        assert with_flags

        blob = buf.getvalue()
        v1 = fmt.BINARY_MAGIC_V1 + blob[len(fmt.BINARY_MAGIC):]
        got, with_flags = fmt.read_header_binary_versioned(io.BytesIO(v1))
        assert got == meta and not with_flags


_events = st.builds(
    EventRecord,
    rank=st.integers(0, 1000),
    seq=st.integers(0, 10**6),
    kind=st.sampled_from(list(EventKind)),
    t_start=st.floats(min_value=0, max_value=1e15, allow_nan=False),
    t_end=st.just(1e15),
    peer=st.integers(-1, 1000),
    tag=st.integers(-1, 2**30),
    nbytes=st.integers(0, 2**40),
    req=st.integers(-1, 2**40),
    reqs=st.lists(st.integers(0, 2**40), max_size=6).map(tuple),
    completed=st.lists(st.integers(0, 2**40), max_size=6).map(tuple),
    root=st.integers(-1, 1000),
    coll_seq=st.integers(-1, 2**30),
    recv_peer=st.integers(-1, 1000),
    recv_tag=st.integers(-1, 2**30),
    recv_nbytes=st.integers(0, 2**40),
    src_any=st.booleans(),
    tag_any=st.booleans(),
)


@given(event=_events)
@settings(max_examples=150, deadline=None)
def test_codecs_round_trip_property(event):
    """Any representable event survives both codecs bit-exactly."""
    assert fmt.decode_event_text(fmt.encode_event_text(event)) == event
    buf = io.BytesIO(fmt.encode_event_binary(event))
    assert list(fmt.decode_events_binary(buf)) == [event]
