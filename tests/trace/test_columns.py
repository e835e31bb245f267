"""The columnar decode against the streaming codec.

:meth:`TraceReader.columns` decodes a whole rank file at once; its
rows must be exactly the records :meth:`TraceReader.events` streams,
in text and binary, legacy 16-field lines and ``MPGT0001`` included,
and every malformed file must fail with the same
:class:`~repro.core.diagnostics.DiagnosticError` text (naming the file,
the line or record, and the rank).
"""

import json
import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.diagnostics import DiagnosticError
from repro.trace import format as fmt
from repro.trace.columns import EventColumns, decode_binary_columns, decode_text_columns
from repro.trace.events import EventKind, EventRecord, TraceMeta
from repro.trace.reader import MemoryTrace, TraceReader, TraceSet
from repro.trace.writer import TraceWriter

_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def rank_events(draw, rank=1):
    """One rank's events: any fields, ordered intervals."""
    n = draw(st.integers(0, 12))
    out = []
    t = draw(st.floats(-1e9, 1e9, allow_nan=False))
    for seq in range(n):
        start = t + draw(st.floats(0, 1e4, allow_nan=False))
        end = start + draw(st.floats(0, 1e4, allow_nan=False))
        t = end
        n_reqs = draw(st.integers(0, 3))
        reqs = tuple(draw(st.lists(st.integers(0, 2**40), min_size=n_reqs, max_size=n_reqs)))
        out.append(
            EventRecord(
                rank=rank,
                seq=seq,
                kind=draw(st.sampled_from(list(EventKind))),
                t_start=start,
                t_end=end,
                peer=draw(st.integers(-1, 64)),
                tag=draw(st.integers(-1, 2**30)),
                nbytes=draw(st.integers(0, 2**40)),
                req=draw(st.integers(-1, 2**40)),
                reqs=reqs,
                completed=reqs[: draw(st.integers(0, n_reqs))],
                root=draw(st.integers(-1, 64)),
                coll_seq=draw(st.integers(-1, 2**30)),
                recv_peer=draw(st.integers(-1, 64)),
                recv_tag=draw(st.integers(-1, 2**30)),
                recv_nbytes=draw(st.integers(0, 2**40)),
                src_any=draw(st.booleans()),
                tag_any=draw(st.booleans()),
            )
        )
    return out


def write_rank(path, events, binary=False, rank=1):
    with TraceWriter(path, TraceMeta(rank=rank, nprocs=2), binary=binary) as w:
        w.record_all(events)
    return path


def legacy_text(path, keep_flags):
    """Drop the wildcard-flags field from the lines ``keep_flags`` says
    not to keep (16-field lines, the pre-flags format)."""
    head, *lines = path.read_text().splitlines()
    out = [head]
    for line, keep in zip(lines, keep_flags):
        out.append(line if keep else line[: line.rindex(",")] + "]")
    out += lines[len(keep_flags) :]
    path.write_text("\n".join(out) + "\n")


def v1_binary(path, events, rank=1):
    """An ``MPGT0001`` file: no flags byte in the records."""
    blob = bytearray(fmt.BINARY_MAGIC_V1)
    header = json.dumps(TraceMeta(rank=rank, nprocs=2).to_dict()).encode()
    blob += struct.pack("<I", len(header)) + header
    for e in events:
        blob += fmt._FIXED_V1.pack(
            int(e.kind), e.rank, e.seq, e.t_start, e.t_end, e.peer, e.tag, e.nbytes,
            e.req, e.root, e.coll_seq, e.recv_peer, e.recv_tag, e.recv_nbytes,
            len(e.reqs), len(e.completed),
        )
        blob += struct.pack(f"<{len(e.reqs) + len(e.completed)}q", *e.reqs, *e.completed)
    path.write_bytes(bytes(blob))
    return path


def outcome(fn):
    """``("ok", texts)`` of decoded records (text-encoded, so NaN
    compares), or ``("error", text, code, rank)`` of the failure."""
    try:
        records = fn()
    except DiagnosticError as exc:
        return ("error", str(exc), exc.code, exc.rank)
    return ("ok", [fmt.encode_event_text(e) for e in records])


def both(path):
    """(columnar outcome, streaming outcome) of one file."""
    return (
        outcome(lambda: TraceReader(path).columns().records()),
        outcome(lambda: list(TraceReader(path).events())),
    )


class TestRowsEqualStreamingCodec:
    @given(events=rank_events(), binary=st.booleans())
    @_SETTINGS
    def test_text_and_binary(self, events, binary, tmp_path_factory):
        path = tmp_path_factory.mktemp("cols") / f"t.rank0001.trace.{'bin' if binary else 'jsonl'}"
        write_rank(path, events, binary=binary)
        reader = TraceReader(path)
        frame = reader.columns()
        assert frame.records() == list(reader.events()) == events
        assert len(frame) == len(events)

    @given(events=rank_events(), keep=st.lists(st.booleans(), max_size=12))
    @_SETTINGS
    def test_legacy_text_lines(self, events, keep, tmp_path_factory):
        path = write_rank(tmp_path_factory.mktemp("cols") / "t.trace.jsonl", events)
        legacy_text(path, keep)
        col, stream = both(path)
        assert col == stream and col[0] == "ok"

    @given(events=rank_events())
    @_SETTINGS
    def test_mpgt0001(self, events, tmp_path_factory):
        path = v1_binary(tmp_path_factory.mktemp("cols") / "t.trace.bin", events)
        col, stream = both(path)
        assert col == stream and col[0] == "ok"
        assert not any(e.src_any or e.tag_any for e in TraceReader(path).columns().records())

    def test_well_formed_files_take_the_columnar_path(self, tmp_path):
        events = [
            EventRecord(1, i, EventKind.WAITALL, float(i), i + 0.5, reqs=(i, i + 9), completed=(i,))
            for i in range(5)
        ]
        text = write_rank(tmp_path / "a.trace.jsonl", events)
        binary = write_rank(tmp_path / "a.trace.bin", events, binary=True)
        body = text.read_text().split("\n", 1)[1]
        assert decode_text_columns(body).records() == events
        blob = binary.read_bytes()
        start = 12 + struct.unpack("<I", blob[8:12])[0]
        assert decode_binary_columns(blob[start:]).records() == events

    def test_nan_times_decode(self, tmp_path):
        path = write_rank(tmp_path / "t.trace.jsonl", [EventRecord(1, 0, EventKind.INIT, 0.0, 1.0)])
        path.write_text(path.read_text().replace("0.0,1.0", "NaN,NaN"))
        col, stream = both(path)
        assert col == stream and col[0] == "ok"
        (ev,) = TraceReader(path).columns().records()
        assert math.isnan(ev.t_start) and math.isnan(ev.t_end)

    def test_memory_trace_columns_hand_back_its_records(self):
        events = [
            EventRecord(0, 0, EventKind.INIT, 0, 1),
            EventRecord(0, 1, EventKind.FINALIZE, 2, 3),
        ]
        trace = MemoryTrace([events])
        assert trace.columns(0).records() == events
        assert trace.columns(0).records()[1] is events[1]


_GOOD = "[2,1,{seq},{t0},{t1},0,7,64,-1,[],[],-1,-1,-1,-1,0,0]"


def text_file(tmp_path, lines):
    """A rank-1 JSONL file: good lines around the given ones."""
    path = tmp_path / "bad.rank0001.trace.jsonl"
    good = [_GOOD.format(seq=i, t0=float(i), t1=i + 0.5) for i in range(3)]
    meta = json.dumps({"__meta__": TraceMeta(rank=1, nprocs=2).to_dict()})
    path.write_text("\n".join([meta, *good, *lines, _GOOD.format(seq=9, t0=9.0, t1=9.5)]) + "\n")
    return path


class TestMalformedText:
    @pytest.mark.parametrize(
        "line",
        [
            '[2,1,3,3.0,3.5,0,"7",64,-1,[],[],-1,-1,-1,-1,0,0]',  # mistyped field
            "[2,1,3,3.0,3.5,0,true,64,-1,[],[],-1,-1,-1,-1,0,0]",  # bool in an int field
            "[2,1,3,3.0,3.5,0,7,64.0,-1,[],[],-1,-1,-1,-1,0,0]",  # float in an int field
            "[7,1,3,3.0,3.5,-1,-1,0,-1,[1.5],[],-1,-1,-1,-1,0,0]",  # non-int request id
            "[7,1,3,3.0,3.5,-1,-1,0,-1,[1],[true],-1,-1,-1,-1,0,0]",  # bool request id
            "[2,1,3,5.0,3.5,0,7,64,-1,[],[],-1,-1,-1,-1,0,0]",  # t_end < t_start
            "[99,1,3,3.0,3.5,0,7,64,-1,[],[],-1,-1,-1,-1,0,0]",  # unknown kind
            "[2,1,-3,3.0,3.5,0,7,64,-1,[],[],-1,-1,-1,-1,0,0]",  # negative seq
            "[2,1,3,3.0,3.5,0,7,64,-1,[],[],-1,-1,-1,-1]",  # 15 fields
            "[2,1,3,3.0,3.5,0,7,64,-1,[],[],-1,-1,-1,-1,0,0",  # cut line
            "[2,1,3,3.0,3.5],[0,7,64,-1,[],[],-1,-1,-1,-1,0,0]",  # two arrays
            '{"kind": 2}',
            "not json",
        ],
    )
    def test_same_error_at_the_same_line(self, line, tmp_path):
        col, stream = both(text_file(tmp_path, [line]))
        assert col == stream
        kind, text, code, rank = col
        assert kind == "error" and rank == 1
        assert "bad.rank0001.trace.jsonl, line 5:" in text

    def test_lines_that_join_into_rows_are_refused(self, tmp_path):
        # Each line is malformed, but joined with commas they would parse
        # as three well-typed rows.
        row = "2,1,3,3.0,3.5,0,7,64,-1,[],[],-1,-1,-1,-1,0,0"
        head, tail = row.split("[],")[0], "[],".join(row.split("[],")[1:])
        lines = [f"[{head}[]", f"{tail}]", f"[{row}],[{row}]"]
        col, stream = both(text_file(tmp_path, lines))
        assert col == stream and col[0] == "error"
        assert "line 5:" in col[1]

    def test_int_beyond_64_bits_is_a_structured_error(self, tmp_path):
        path = text_file(tmp_path, [f"[2,1,3,3.0,3.5,0,{2**70},64,-1,[],[],-1,-1,-1,-1,0,0]"])
        with pytest.raises(DiagnosticError, match="bad.rank0001.trace.jsonl") as info:
            TraceReader(path).columns()
        assert info.value.rank == 1


class TestMalformedBinary:
    def events(self):
        return [
            EventRecord(1, i, EventKind.WAITALL, float(i), i + 0.5, reqs=(i, 7), completed=(i,))
            for i in range(4)
        ]

    @pytest.mark.parametrize("cut", [3, 20, 30, 90])
    def test_cut_record_or_id_block(self, cut, tmp_path):
        path = write_rank(tmp_path / "cut.trace.bin", self.events(), binary=True)
        path.write_bytes(path.read_bytes()[:-cut])
        col, stream = both(path)
        assert col == stream
        assert col[0] == "error" and col[3] == 1
        assert "truncated" in col[1]

    @pytest.mark.parametrize(
        "field, value",
        [(0, 99), (4, -1.0), (2, -5)],  # unknown kind, t_end < t_start, negative seq
    )
    def test_refused_fields(self, field, value, tmp_path):
        path = tmp_path / "f.trace.bin"
        write_rank(path, self.events(), binary=True)
        blob = bytearray(path.read_bytes())
        start = 12 + struct.unpack("<I", blob[8:12])[0]
        fields = list(fmt._FIXED.unpack_from(blob, start))
        fields[field] = value
        fmt._FIXED.pack_into(blob, start, *fields)
        path.write_bytes(bytes(blob))
        col, stream = both(path)
        assert col == stream and col[0] == "error" and col[3] == 1


class TestOneDecode:
    def test_trace_set_decodes_each_rank_once(self, tmp_path):
        for rank in range(2):
            write_rank(
                tmp_path / f"s.rank{rank:04d}.trace.jsonl",
                [EventRecord(rank, 0, EventKind.INIT, 0.0, 1.0)],
                rank=rank,
            )
        ts = TraceSet.open(tmp_path, "s")
        first = ts.columns(0, keep=True)
        assert ts.columns(0) is first
        frames = ts.take_columns()
        assert frames[0] is first
        # Handed over: only weakly held, so alive exactly as long as the
        # caller keeps them.
        assert ts.columns(1) is frames[1]
        assert not ts._kept
        del frames, first
        assert isinstance(ts.columns(0), EventColumns)
