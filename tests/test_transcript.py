"""Transcript files: the line codec against a per-event json.dumps
reference, the block reader against a line-by-line reference,
non-canonical input, and the checks made when a log and its sidecar are
read.  Last, the builders that run with the cyclic garbage collector
paused, and the lists built a chunk of columns at a time."""

import gc
import inspect
import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqupir import adversary, harness, upir
from gqupir.adversary import converge_topics
from gqupir.upir import (
    ALL_READERS,
    DB_REQUEST,
    DB_RESPONSE,
    PROXY_ONLY,
    WRITE_REQUEST,
    WRITE_RESPONSE,
    QueryWorkload,
    Transcript,
    TranscriptEvent,
    UPIRSystem,
    access,
    external_view,
    observer_view,
    path_choice_counts,
    proxy_counts,
    read_transcript,
    run_protocol,
    write_ground_truth,
    write_transcript,
)

from conftest import get_gq, joined

FIELDS = ("seq", "kind", "space", "path", "proxy", "topic", "visibility")


def w33_system():
    return UPIRSystem(get_gq("w3", 3).base)


W33 = w33_system()


def reference_write(transcript, path):
    """The per-event json.dumps writer that defines the file bytes."""
    with open(path, "w") as fh:
        for ev in transcript.events:
            fh.write(json.dumps({
                "seq": ev.seq,
                "kind": ev.kind,
                "space": ev.space,
                "path": list(ev.path),
                "proxy": ev.proxy,
                "topic": ev.topic,
                "visibility": ev.visibility,
            }))
            fh.write("\n")


def observable(ev):
    return tuple(getattr(ev, f) for f in FIELDS)


# W(3,3) has 40 users and 40 spaces
IDS = st.integers(0, 39)
TOPICS = st.one_of(
    st.text(),
    st.text(alphabet='"\\\n\t\x00 ,:{}[]é€😀'),
    st.sampled_from(["t000", 'say "hi"', "back\\slash", "naïve", ""]),
)


@st.composite
def events(draw):
    """Random events, ground truth included; about half repeat the body of
    an earlier one under a new seq and query."""
    n = draw(st.integers(0, 40))
    out = []
    for seq in range(n):
        new_seq = draw(st.sampled_from((seq, seq + 1000, 10**12 + seq)))
        query = draw(st.integers(-1, 2**31 - 1))
        if out and draw(st.booleans()):
            ev = out[draw(st.integers(0, len(out) - 1))]
            out.append(TranscriptEvent(new_seq, ev.kind, ev.space, ev.path,
                                       ev.proxy, ev.topic, ev.visibility,
                                       ev.writer, query))
            continue
        kind = draw(st.sampled_from(
            (WRITE_REQUEST, WRITE_RESPONSE, DB_REQUEST, DB_RESPONSE)))
        proxy = draw(IDS)
        if kind in (DB_REQUEST, DB_RESPONSE):
            space, path = None, ()
        else:  # one hop of a route to the proxy, as the reader checks it
            source = draw(IDS.filter(lambda u: u != proxy))
            route = draw(st.sampled_from(
                W33.shortest_user_paths(source, proxy)))
            hop = draw(st.integers(0, len(route) // 2 - 1))
            space, path = route[2 * hop + 1], route[2 * hop + 2:]
        out.append(TranscriptEvent(
            new_seq, kind, space, path, proxy, draw(TOPICS),
            draw(st.sampled_from((ALL_READERS, PROXY_ONLY))),
            draw(st.one_of(st.none(), IDS)), query))
    return out


def body(ev):
    return (ev.kind, ev.space, ev.path, ev.proxy, ev.topic, ev.visibility,
            ev.writer)


@settings(max_examples=100, deadline=None)
@given(evs=events())
def test_transcript_interns_bodies_and_rebuilds_events(evs):
    tr = Transcript(w33_system(), 1, None, evs, {})
    assert tr.events == evs
    assert Transcript(w33_system(), 1, None, iter(evs), {}).events == evs
    assert tr.events is not tr.events  # built on each access
    # one body per distinct event without seq and query, in first-seen order
    assert [body(b) for b in tr.bodies] == list(dict.fromkeys(map(body, evs)))
    assert all(b.seq == -1 and b.query == -1 for b in tr.bodies)
    assert tr.seq.dtype == np.int64 and tr.body.dtype == np.int32
    assert tr.query.dtype == np.int32
    # the column count against the loop over events it replaced
    counts = np.zeros(40, dtype=np.int64)
    for ev in evs:
        if ev.kind == DB_REQUEST:
            counts[ev.proxy] += 1
    assert proxy_counts(tr).tolist() == counts.tolist()


@settings(max_examples=60, deadline=None)
@given(evs=events())
def test_writer_matches_reference_and_round_trips(tmp_path_factory, evs):
    tmp = tmp_path_factory.mktemp("codec")
    sys_ = w33_system()
    tr = Transcript(sys_, 1, None, evs, {})
    write_transcript(tr, tmp / "fast.jsonl")
    reference_write(tr, tmp / "ref.jsonl")
    assert (tmp / "fast.jsonl").read_bytes() == (tmp / "ref.jsonl").read_bytes()
    back = read_transcript(tmp / "fast.jsonl", sys_)
    assert [observable(ev) for ev in back.events] == [
        observable(ev) for ev in evs]


class _CountingEvents:
    """Stands in for upir.TranscriptEvent and counts the events built."""

    def __init__(self):
        self.built = 0

    def __call__(self, *fields):
        self.built += 1
        return TranscriptEvent(*fields)


def test_columns_build_one_event_per_distinct_body(tmp_path, monkeypatch):
    sys_ = w33_system()
    sources = {"a": 5, "b": 22}
    log = tmp_path / "run.jsonl"
    # 2 x 3000 queries from two sources over 40 users repeat bodies often
    write_transcript(Transcript(sys_, 1, None, [
        ev for topic, source in sources.items()
        for ev in run_protocol(sys_, QueryWorkload(source, topic, 3000),
                               7).events], {}), log)
    counting = _CountingEvents()
    monkeypatch.setattr(upir, "TranscriptEvent", counting)
    back = read_transcript(log, sys_)
    assert counting.built == len(back.bodies)
    counting.built = 0
    streams = []
    converge_topics(sys_, (0, 13), 1, sources, 3000, seed=2,
                    log=streams.append)
    assert counting.built == sum(len(s.bodies) for s in streams)
    monkeypatch.undo()
    logged = joined(streams)
    for tr in back, logged:
        events = tr.events
        assert len(events) > 5 * len(tr.bodies)
        assert len(tr.bodies) == len(set(map(body, events)))


def test_non_canonical_log_reads_back_the_same_events(tmp_path):
    sys_ = w33_system()
    tr = run_protocol(sys_, QueryWorkload(6, 'the "news"', 60, protocol=2), 9)
    canonical = tmp_path / "canonical.jsonl"
    write_transcript(tr, canonical)
    odd = tmp_path / "odd.jsonl"
    with open(odd, "w") as fh:
        for i, ev in enumerate(tr.events):
            d = {f: getattr(ev, f) for f in reversed(FIELDS)}
            d["path"] = list(ev.path)
            if i % 3 == 0:
                line = json.dumps(d, separators=(",", ":"))
            elif i % 3 == 1:
                line = "  " + json.dumps(d, indent=None, ensure_ascii=False)
            else:  # canonical seq prefix, compact rest
                rest = {f: d[f] for f in FIELDS[1:]}
                line = f'{{"seq": {ev.seq}, ' + json.dumps(
                    rest, separators=(",", ":"))[1:]
            fh.write(line + "\n")
            if i % 10 == 0:
                fh.write("\n")  # blank lines are skipped
    a = read_transcript(canonical, sys_)
    b = read_transcript(odd, sys_)
    assert [observable(ev) for ev in a.events] == [
        observable(ev) for ev in b.events] == [
        observable(ev) for ev in tr.events]


# the first hop of the W(3,3) route (0, 1, 13, 5, 1): space 1 holds users
# 0 and 13, space 5 users 13 and 1
GOOD = {"seq": 0, "kind": WRITE_REQUEST, "space": 1, "path": [13, 5, 1],
        "proxy": 1, "topic": "t", "visibility": ALL_READERS}


_DROP = object()


def _with(**changes):
    """GOOD as a line, with fields changed or, given _DROP, left out."""
    d = dict(GOOD, **changes)
    return json.dumps({k: v for k, v in d.items() if v is not _DROP})


@pytest.mark.parametrize("line,message", [
    ('{"seq": 1, "kind": ', "invalid JSON"),
    ("[1, 2]", "not a JSON object"),
    ('"seq"', "not a JSON object"),
    (_with(proxy=_DROP), "missing 'proxy'"),
    (_with(seq=_DROP), "missing 'seq'"),
    (_with(writer=3), "unexpected 'writer'"),
    (_with(topic=5), "'topic' must be a string"),
    (_with(path="1,7,2"), "'path' must be a list"),
    (_with(space="5"), "'space' must be a space id"),
    (_with(proxy=True), "'proxy' must be a user id"),
    (_with(seq="1"), "'seq' must be a non-negative integer"),
    (_with(seq=-1), "'seq' must be a non-negative integer"),
    (_with(seq=1.0), "'seq' must be a non-negative integer"),
    (_with(kind="db_query"), "unknown kind 'db_query'"),
    (_with(visibility="everyone"), "unknown visibility 'everyone'"),
    (_with(kind=DB_REQUEST), "db_request must have a null 'space'"),
    (_with(kind=DB_REQUEST, space=None, path=[3, 1]),
     "db_request must have an empty 'path'"),
    (_with(space=None), "'space' must be a space id"),
    (_with(space=40), "'space' must be a space id in 0..39"),
    (_with(proxy=40), "'proxy' must be a user id in 0..39"),
    (_with(path=[40]), "'path' entry 0 must be a user id in 0..39"),
    (_with(path=[1, 40, 2]), "'path' entry 1 must be a space id in 0..39"),
    (_with(path=[1, 7, -1]), "'path' entry 2 must be a user id"),
    # routes that do not fit the geometry
    (_with(path=[]), "'path' must have odd length and end at the proxy"),
    (_with(path=[13, 5]), "'path' must have odd length and end at the proxy"),
    (_with(proxy=0), "'path' must have odd length and end at the proxy"),
    (_with(kind=WRITE_RESPONSE, space=0),
     "'path' entry 0 must be a user in space 0"),
    (_with(path=[13, 4, 1]), "'path' entries 0 and 2 must be users in space 4"),
    # seq digits must be ASCII, without a leading zero
    (_with().replace('"seq": 0', '"seq": ²'), "invalid JSON"),
    (_with().replace('"seq": 0', '"seq": ١'), "invalid JSON"),
    (_with().replace('"seq": 0', '"seq": 01'), "invalid JSON"),
    # a canonical prefix does not let a second seq through
    (_with().replace('"seq": 0', '"seq": 0, "seq": 1'), "unexpected 'seq'"),
    # nesting past the parser's recursion limit
    pytest.param('{"seq": 1, "kind": ' + "[" * 200_000 + "]" * 200_000
                 + "}", "invalid JSON: nested too deeply", id="deep-nesting"),
])
def test_malformed_line_names_file_and_line(tmp_path, line, message):
    log = tmp_path / "bad.jsonl"
    log.write_text(_with() + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as ei:
        read_transcript(log, w33_system())
    assert str(ei.value).startswith(f"{log}:2: ")
    assert message in str(ei.value)


def test_log_of_another_geometry_is_rejected(tmp_path):
    """Q(4,3) has as many users and spaces as W(3,3), so a W(3,3) log passes
    the id checks against it; its routes do not."""
    log = tmp_path / "w33.jsonl"
    write_transcript(run_protocol(W33, QueryWorkload(0, "t", 50), 0), log)
    assert len(read_transcript(log, W33).seq) > 100
    with pytest.raises(ValueError,
                       match="^" + re.escape(f"{log}:1: 'path' ")):
        read_transcript(log, UPIRSystem(get_gq("q4", 3).base))


def test_undecodable_line_names_file_and_line(tmp_path):
    log = tmp_path / "bad.jsonl"
    bad = _with().encode().replace(b'"topic": "t"', b'"topic": "\xff"')
    log.write_bytes(_with().encode() + b"\n" + bad + b"\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{log}:2: ")):
        read_transcript(log, w33_system())


def test_last_line_needs_no_newline(tmp_path):
    """A log may end without a newline, after a blank line and a line in
    another key order; an error on its last line names that line."""
    sys_ = w33_system()
    tr = run_protocol(sys_, QueryWorkload(6, "t", 40), 3)
    write_transcript(tr, tmp_path / "log.jsonl")
    lines = (tmp_path / "log.jsonl").read_bytes().split(b"\n")[:-1]
    d = json.loads(lines[5])
    lines[5] = json.dumps(dict(reversed(list(d.items())))).encode()
    lines.insert(9, b"")
    log = tmp_path / "odd.jsonl"
    log.write_bytes(b"\n".join(lines))  # no newline after the last line
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\n".join(lines[:-1] + [lines[-1][:-1]]) + b"\n")
    back = read_transcript(log, sys_)
    assert [observable(ev) for ev in back.events] == [
        observable(ev) for ev in tr.events]
    with pytest.raises(ValueError,
                       match="^" + re.escape(f"{bad}:{len(lines)}: invalid")):
        read_transcript(bad, sys_)


@pytest.mark.parametrize("last", [b'{"kind": "x", "seq": 1',
                                  b'{"kind": "x", "seq": 1\xc3'])
def test_last_line_cut_short_fails_as_the_reference(tmp_path, last):
    """The reader ends a last line without a newline with one; a whole line
    cut short still fails with the message it has without it."""
    log = tmp_path / "log.jsonl"
    log.write_bytes(_with().encode() + b"\n" + last)
    got = outcome(block_read, log)
    assert got == outcome(reference_read, log)
    assert got.startswith(f"{log}:2: ")


def test_good_line_reads(tmp_path):
    log = tmp_path / "good.jsonl"
    log.write_text(_with() + "\n")
    (ev,) = read_transcript(log, w33_system()).events
    assert observable(ev) == (0, WRITE_REQUEST, 1, (13, 5, 1), 1, "t",
                              ALL_READERS)
    assert ev.writer is None and ev.query == -1


# The reader as it was before logs were read a block at a time: a line at a
# time, the seq of a line as write_transcript writes it split off by a
# regex, each distinct rest after it parsed and checked once, any other line
# parsed whole.  read_transcript must return what it returns, and raise
# what it raises.
CANONICAL_LINE = re.compile(rb'\{"seq": (0|[1-9][0-9]{0,17}), (.*)\n?')


def reference_read(path, system=W33):
    """(seq, body, bodies) of a log read line by line."""
    transcript = Transcript(system, 0, None, (), {})
    ids = {}  # the rest of a canonical line -> its body id
    seqs, bodies = [], []
    lineno = 0
    with open(path, "rb") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                m = CANONICAL_LINE.fullmatch(line)
                if m is not None:
                    i = ids.get(m[2])
                    if i is None:
                        i = ids[m[2]] = transcript.intern(upir._event_fields(
                            upir._load_object(b"{" + m[2]), system))
                    seqs.append(int(m[1]))
                    bodies.append(i)
                elif line.strip():
                    d = upir._load_object(line)
                    if "seq" not in d:
                        raise ValueError("missing 'seq'")
                    seq = d.pop("seq")
                    if type(seq) is not int or not 0 <= seq < 1 << 63:
                        raise ValueError("'seq' must be a non-negative "
                                         "integer below 2**63")
                    bodies.append(transcript.intern(
                        upir._event_fields(d, system)))
                    seqs.append(seq)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return seqs, bodies, transcript.bodies


def block_read(path, system=W33):
    tr = read_transcript(path, system)
    assert tr.seq.dtype == np.int64 and tr.body.dtype == np.int32
    assert tr.query.tolist() == [-1] * len(tr.seq)
    return tr.seq.tolist(), tr.body.tolist(), tr.bodies


def outcome(read, path):
    """What read returns for the log, or the message it raises."""
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


def as_line(ev):
    return {"seq": ev.seq, "kind": ev.kind, "space": ev.space,
            "path": list(ev.path), "proxy": ev.proxy, "topic": ev.topic,
            "visibility": ev.visibility}


VALUES = st.one_of(IDS, st.lists(IDS, max_size=5), st.sampled_from([
    None, -1, 40, 1.0, True, "", "t", [], {}, 2**63, 10**18,
    ALL_READERS, PROXY_ONLY, DB_REQUEST, WRITE_REQUEST]))
SEQS = st.sampled_from([
    "00", "01", "-1", "1.0", "1e3", "+1", " 1", "\u0663", "9" * 18, "9" * 19,
    str(2**63 - 1), str(2**63), str(10**18)])


@st.composite
def log_bytes(draw):
    """A log of random events, each line written as write_transcript
    writes it, in another key order, or in another spacing; blank lines
    among them, perhaps one line with a field, its seq, one byte or one key
    more changed, and perhaps no newline at the end."""
    evs = draw(events())
    changed = draw(st.integers(-1 - len(evs), len(evs) - 1))  # none if < 0
    lines = []
    for i, ev in enumerate(evs):
        d = as_line(ev)
        change = draw(st.sampled_from(("field", "seq", "byte", "key"))) \
            if i == changed else None
        # a changed seq or a key more after a canonical seq and split
        form = "canonical" if change in ("seq", "key") else draw(
            st.sampled_from(("canonical", "order", "spacing")))
        if form == "order":
            d = {k: d[k] for k in draw(st.permutations(list(d)))}
        if change == "field":
            d[draw(st.sampled_from(FIELDS))] = draw(VALUES)
        separators = (", ", ": ") if form != "spacing" else draw(
            st.sampled_from(((",", ":"), (" , ", " : "), (",", ": "))))
        line = json.dumps(d, separators=separators,
                          ensure_ascii=draw(st.booleans())).encode()
        if change == "seq":
            line = re.sub(rb'"seq"( ?: ?)[0-9]+', lambda m: b'"seq"' + m[1]
                          + draw(SEQS).encode(), line)
        elif change == "byte":
            j = draw(st.integers(0, len(line) - 1))
            line = line[:j] + bytes([draw(st.integers(0, 255))]) + line[j + 1:]
        elif change == "key":  # a key more at the end, perhaps twice
            line = line[:-1] + b", " + json.dumps({draw(st.sampled_from(
                FIELDS + ("writer",))): draw(VALUES)})[1:].encode()
        lines.append(line)
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from((b"", b" ", b"\t", b"\r"))))
    text = b"".join(line + b"\n" for line in lines)
    return text[:-1] if text and draw(st.booleans()) else text


@settings(max_examples=200, deadline=None)
@given(text=log_bytes(), block=st.sampled_from((1, 7, 64, upir._READ_BLOCK)))
def test_reader_matches_line_by_line_reference(tmp_path_factory, text,
                                               block):
    """Block sizes of one byte and of a few lines split lines across the
    block edge."""
    log = tmp_path_factory.mktemp("equiv") / "log.jsonl"
    log.write_bytes(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(upir, "_READ_BLOCK", block)
        assert outcome(block_read, log) == outcome(reference_read, log)


def reversed_keys(line):
    """A log line with its keys in reverse order: seq last, so that the
    reader decodes it whole."""
    return json.dumps(dict(reversed(json.loads(line).items()))) + "\n"


def decoded_whole(monkeypatch):
    """A list to which each key upir._whole_event decodes is appended."""
    decoded = []
    whole_event = upir._whole_event
    monkeypatch.setattr(upir, "_whole_event", lambda key, system: (
        decoded.append(key), whole_event(key, system))[1])
    return decoded


@pytest.mark.parametrize("protocol", [1, 2])
@pytest.mark.parametrize("block", [1, 64, upir._READ_BLOCK])
def test_written_log_decodes_no_key_whole(tmp_path, monkeypatch, protocol,
                                          block):
    """A log as write_transcript wrote it is read from its frames and tails
    alone, whatever the block size; in a copy with every fifth line's keys
    reversed, exactly those lines are decoded whole, once each."""
    sources = {"a": 5, "b": 22}
    streams = []
    converge_topics(W33, (0, 13), protocol, sources, 400, seed=3,
                    log=streams.append)
    log = joined(streams, 3, sources)
    path = tmp_path / "run.jsonl"
    write_transcript(log, path)
    lines = path.read_text().splitlines(keepends=True)
    odd = [reversed_keys(line) for line in lines[::5]]
    rekeyed = tmp_path / "rekeyed.jsonl"
    rekeyed.write_text("".join(odd[i // 5] if i % 5 == 0 else line
                               for i, line in enumerate(lines)))
    decoded = decoded_whole(monkeypatch)
    monkeypatch.setattr(upir, "_READ_BLOCK", block)
    # a body as logged, without its writer
    logged = [body(log.bodies[i])[:-1] for i in log.body.tolist()]
    for file, whole in (path, []), (rekeyed, odd):
        decoded.clear()
        back = read_transcript(file, W33)
        assert [key.decode() for key in decoded] == whole
        assert back.seq.tolist() == log.seq.tolist()
        assert [body(back.bodies[i])[:-1]
                for i in back.body.tolist()] == logged
    assert [body(b)[:-1] for b in back.bodies] == list(dict.fromkeys(logged))


def test_a_rest_alone_is_not_the_rest_of_a_line(tmp_path):
    """A line holding only the rest of the line before is its own key, a
    whole line, and not valid JSON; it does not take that line's body."""
    line = _with()
    rest = line.split(", ", 1)[1]
    log = tmp_path / "log.jsonl"
    log.write_text(f"{line}\n{rest}\n")
    with pytest.raises(ValueError,
                       match="^" + re.escape(f"{log}:2: invalid JSON")):
        read_transcript(log, W33)
    assert outcome(reference_read, log) == outcome(block_read, log)


def test_whole_line_carried_into_the_next_block_keeps_its_seq(tmp_path,
                                                              monkeypatch):
    """The same line in another key order, last in one block and first in
    the next: the second block takes its body and seq from the first, and
    each copy reads back with the seq it holds."""
    line = reversed_keys(_with(seq=7))
    log = tmp_path / "log.jsonl"
    log.write_text(line * 2)
    decoded = decoded_whole(monkeypatch)
    monkeypatch.setattr(upir, "_READ_BLOCK", len(line) + 1)
    with open(log, "rb") as fh:
        assert list(upir._line_blocks(fh)) == [line.encode()] * 2
    seqs, bodies, _ = block_read(log)
    assert (seqs, bodies) == ([7, 7], [0, 0])
    assert decoded == [line.encode()]
    assert outcome(reference_read, log) == outcome(block_read, log)


def test_crlf_log_reads_back_the_same_events(tmp_path, monkeypatch, w33_log):
    """A written log with \\r\\n line endings reads back the same events,
    still from its frames and tails."""
    path = tmp_path / "run.jsonl"
    write_transcript(w33_log, path)
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    decoded = decoded_whole(monkeypatch)
    a, b = read_transcript(path, W33), read_transcript(crlf, W33)
    assert decoded == []
    assert [observable(ev) for ev in a.events] == [
        observable(ev) for ev in b.events] == [
        observable(ev) for ev in w33_log.events]


@pytest.mark.parametrize("odd", [False, True], ids=["written", "reversed"])
@pytest.mark.parametrize("block", [64, 4096])
def test_rest_map_of_one_block_reads_the_same(tmp_path, monkeypatch, odd,
                                              block):
    """The reader's key map holds one block's keys: a log as
    write_transcript wrote it (its keys all rests) and a copy with every
    fifth line's keys reversed (those lines whole-line keys), read in small
    blocks, give the same columns and bodies as read in one block; a key
    not in the block before is interned again, to the same id."""
    sources = {"a": 5, "b": 22}
    streams = []
    converge_topics(W33, (0, 13), 1, sources, 200, seed=3,
                    log=streams.append)
    path = tmp_path / "run.jsonl"
    write_transcript(joined(streams), path)
    if odd:
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(reversed_keys(line) if i % 5 == 0 else line
                                for i, line in enumerate(lines)))
    interned = []
    intern = Transcript.intern
    monkeypatch.setattr(Transcript, "intern", lambda self, fields: (
        interned.append(fields), intern(self, fields))[1])
    reads = []
    for size in (path.stat().st_size, block):
        monkeypatch.setattr(upir, "_READ_BLOCK", size)
        interned.clear()
        tr = read_transcript(path, W33)
        reads.append((tr.seq.tolist(), tr.body.tolist(), tr.bodies,
                      len(interned)))
    whole, blocks = reads
    assert blocks[:3] == whole[:3]
    assert blocks[3] > whole[3]


def test_read_back_transcript_drops_and_rebuilds_its_intern_map(tmp_path,
                                                                w33_log):
    """read_transcript returns without the intern map; events need none,
    and intern rebuilds it, keeping every body's id."""
    write_transcript(w33_log, tmp_path / "run.jsonl")
    tr = read_transcript(tmp_path / "run.jsonl", W33)
    assert tr._ids is None
    assert [ev.seq for ev in tr.events] == w33_log.seq.tolist()
    assert tr._ids is None
    n = len(tr.bodies)
    assert all(tr.intern(upir._FIELDS(b)) == i
               for i, b in enumerate(tr.bodies))
    new = (DB_REQUEST, None, (), 0, "new", ALL_READERS, None)
    assert tr.intern(new) == n and tr.intern(new) == n
    assert len(tr.bodies) == n + 1


def test_failed_write_leaves_the_earlier_log(tmp_path, w33_log):
    """A write that fails partway leaves the file it would replace as it
    was, and no partial file beside it; a write that ends replaces it."""
    path = tmp_path / "run.jsonl"
    path.write_text("earlier\n")
    with pytest.raises(RuntimeError):
        with upir._stream_writer(path) as append:
            append(w33_log)
            raise RuntimeError
    assert path.read_text() == "earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.jsonl"]
    write_transcript(w33_log, path)
    reference_write(w33_log, tmp_path / "reference.jsonl")
    assert path.read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "reference.jsonl", "run.jsonl"]


def test_failed_sidecar_write_leaves_the_earlier_file(tmp_path):
    """A source JSON cannot encode raises json's TypeError before the
    sidecar is opened, so a file already at the path keeps its bytes."""
    side = tmp_path / "run.truth.json"
    side.write_text("earlier\n")
    truth = Transcript(W33, 2, 5, (), {"t000": np.int64(6)})
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        write_ground_truth(truth, side)
    assert side.read_text() == "earlier\n"


@pytest.mark.parametrize("line,message", [
    # not a key: a quote inside a string is escaped
    (_with(topic='a, "topic": "b"'), None),
    (_with(topic='a, "topic": "b"', kind=WRITE_RESPONSE), None),
    # a key twice, once in the frame and once in the tail; the last counts
    (_with().replace('"proxy": 1, ',
                          '"proxy": 1, "visibility": "proxy_only", '), None),
    (_with().replace('"visibility"', '"proxy": 2, "visibility"'),
     "'path' must have odd length and end at the proxy"),
    (_with().replace('"topic"', '"kind": "db_query", "topic"'),
     "unknown kind 'db_query'"),
    # a second seq after the canonical one
    (_with().replace('"topic"', '"seq": 1, "topic"'), "unexpected 'seq'"),
    (_with().replace('"visibility"', '"seq": 1, "visibility"'),
     "unexpected 'seq'"),
    # the topic before the kind: no split, the rest is parsed whole
    ('{"seq": 0, "topic": "t", ' + _with(topic=_DROP)[11:], None),
    ('{"seq": 0, ', "invalid JSON"),
    ('{"seq": 0, \r', "invalid JSON"),
    ('{"seq": 0, "topic": ', "invalid JSON"),
    ('{"seq": 0, "kind": "db_request", "topic": "t"}', "missing 'proxy'"),
    # at most 18 digits
    (_with(seq=10**17), None),
    (_with(seq=10**18), None),
    (_with(seq=2**63), "'seq' must be a non-negative integer"),
    (_with().replace('"seq": 0', '"seq": 0' * 30), "invalid JSON"),
])
def test_reader_takes_odd_lines_as_the_reference(tmp_path, line, message):
    log = tmp_path / "log.jsonl"
    log.write_text(f"{_with()}\n{line}\n{_with(seq=2)}\n")
    got = outcome(block_read, log)
    assert got == outcome(reference_read, log)
    if message is None:
        assert len(got[0]) == 3
    else:
        assert got.startswith(f"{log}:2: ") and message in got


@pytest.mark.parametrize("side,message", [
    ("{", "invalid JSON"),
    pytest.param("[" * 200_000 + "]" * 200_000,
                 "invalid JSON: nested too deeply", id="deep-nesting"),
    ('{"topics": {"t": 40}}', "'topics' must map topics to user ids"),
    ('{"topics": ["t"]}', "'topics' must map topics to user ids"),
    ('{"protocol": "1", "topics": {}}', "'protocol' and 'seed'"),
    ('{"seed": 1.5, "topics": {}}', "'protocol' and 'seed'"),
    # checked against the log, whose one line is a protocol-1 write on "t"
    ('{"topics": {"t": 5}}', "'protocol' must be 1 or 2"),
    ('{"protocol": 3, "topics": {"t": 5}}', "'protocol' must be 1 or 2"),
    ('{"protocol": 1, "topics": {"zzz": 5}}', "topic 't' is in the log only"),
    ('{"protocol": 1, "topics": {}}', "topic 't' is in the log only"),
    ('{"protocol": 1, "topics": {"t": 5, "zzz": 5}}',
     "topic 'zzz' is in the sidecar only"),
    ('{"protocol": 2, "topics": {"t": 5}}',
     "protocol 2 writes are proxy_only, but the log has a all_readers "
     "write_request"),
])
def test_malformed_sidecar_names_file(tmp_path, side, message):
    sys_ = w33_system()
    log = tmp_path / "run.jsonl"
    log.write_text(_with() + "\n")
    truth = tmp_path / "run.truth.json"
    truth.write_text(side)
    with pytest.raises(ValueError, match="^" + re.escape(f"{truth}: ")) as ei:
        read_transcript(log, sys_, truth)
    assert message in str(ei.value)



@pytest.mark.parametrize("protocol", [1, 2])
def test_sidecar_must_match_the_protocol_of_the_log(tmp_path, protocol):
    """Read with the other protocol, a W(3,3) log would let a protocol-2
    tracker deduce nothing from writes it can read in the clear."""
    tr = run_protocol(W33, QueryWorkload(6, "t", 40, protocol=protocol), 5)
    log, side = tmp_path / "run.jsonl", tmp_path / "run.truth.json"
    write_transcript(tr, log)
    write_ground_truth(tr, side)
    back = read_transcript(log, W33, side)
    assert (back.protocol, back.ground_truth) == (protocol, {"t": 6})
    other = 3 - protocol
    side.write_text(side.read_text().replace(
        f'"protocol": {protocol}', f'"protocol": {other}'))
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{side}: protocol {other} writes are ")):
        read_transcript(log, W33, side)


# -- the collector pause --


@pytest.fixture(scope="module")
def w33_log():
    """A W(3,3) run_protocol log of 10000 queries: 52918 events."""
    return run_protocol(W33, QueryWorkload(0, "t", 10_000), 1)


def collections_inside(fn, *args, **kwargs):
    """fn's result, and the generation of each cyclic collection that
    started while the frame of fn's own code (beneath any wrapper) was on
    the stack."""
    code = inspect.unwrap(fn).__code__
    started = []

    def count(phase, info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code is code:
                started.append(info["generation"])
                break
            frame = frame.f_back

    gc.callbacks.append(count)
    try:
        return fn(*args, **kwargs), started
    finally:
        gc.callbacks.remove(count)


def paused_calls(log, path):
    """Each paused builder, or the public function that reaches it, as
    (function, args, kwargs) on the W(3,3) log and its file at path."""
    return {
        "read_transcript": (read_transcript, (path, W33), {}),
        "run_protocol": (run_protocol,
                         (W33, QueryWorkload(0, "t", 10_000), 1), {}),
        "converge_topics": (converge_topics, (W33, (1,), 1, {"t": 0},
                                              10_000, 1),
                            {"log": [].append}),
        "events": (Transcript.events.fget, (log,), {}),
        "observer_view": (observer_view, (log, 5), {}),
    }


PAUSED = ("read_transcript", "run_protocol", "converge_topics", "events",
          "observer_view")


@pytest.mark.parametrize("name", PAUSED)
def test_no_collection_starts_inside_a_paused_builder(tmp_path, w33_log,
                                                      name):
    """At the default thresholds the allocations of each build would start
    young collections; with the collector paused none starts until the
    build returns."""
    path = tmp_path / "log.jsonl"
    write_transcript(w33_log, path)
    fn, args, kwargs = paused_calls(w33_log, path)[name]
    _, started = collections_inside(fn, *args, **kwargs)
    assert started == []
    assert gc.isenabled()


@pytest.mark.parametrize("name", PAUSED)
def test_paused_builder_keeps_the_callers_setting(tmp_path, w33_log, name):
    path = tmp_path / "log.jsonl"
    write_transcript(w33_log, path)
    fn, args, kwargs = paused_calls(w33_log, path)[name]
    gc.disable()
    try:
        fn(*args, **kwargs)
        assert not gc.isenabled()
    finally:
        gc.enable()
    fn(*args, **kwargs)
    assert gc.isenabled()


def test_reader_error_restores_the_collector(tmp_path):
    log = tmp_path / "bad.jsonl"
    log.write_text(_with() + "\n" + _with(kind="no_such_kind") + "\n")
    with pytest.raises(ValueError, match="unknown kind"):
        read_transcript(log, W33)
    assert gc.isenabled()


def test_collector_stays_paused_through_converge_topics_in_simulate(
        tmp_path, monkeypatch):
    """harness.run_simulate's converge_topics feeds the tracker and fills
    the log with the collector off from its first event to its last."""
    enabled = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            enabled.append(gc.isenabled())
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(adversary.CoalitionTracker, "_ingest",
                        recording(adversary.CoalitionTracker._ingest))
    monkeypatch.setattr(Transcript, "extend", recording(Transcript.extend))
    report, ok = harness.run_simulate(get_gq("w3", 3), "w3", 3, 1, (0, 13),
                                      2, 300, 1,
                                      transcript_prefix=str(tmp_path / "run"))
    assert ok and report["converged"] == 2
    assert len(enabled) > 2 and not any(enabled)
    assert gc.isenabled()


class _RecordingBodies(list):
    """A body table that records whether the collector is on at each read."""

    def __init__(self, bodies):
        super().__init__(bodies)
        self.enabled = []

    def __getitem__(self, i):
        self.enabled.append(gc.isenabled())
        return super().__getitem__(i)


def test_path_choice_counts_walks_with_the_collector_paused(w33_log):
    t = Transcript(W33, 1, None, (), {})
    t.seq, t.body, t.query = w33_log.seq, w33_log.body, w33_log.query
    t.bodies = _RecordingBodies(w33_log.bodies)
    assert path_choice_counts(t) == path_choice_counts(w33_log)
    assert len(t.bodies.enabled) == len(t.body) and not any(t.bodies.enabled)
    assert gc.isenabled()


def test_chunked_lists_equal_the_one_pass_lists(tmp_path, monkeypatch,
                                                w33_log):
    """events, the views and the written file, built 997 rows at a time,
    which does not divide the event count, equal their one-pass builds."""
    t = w33_log
    monkeypatch.setattr(upir, "_CHUNK", 997)
    assert len(t.seq) % 997
    fields = [body(b) for b in t.bodies]
    one_pass = [TranscriptEvent(s, *fields[b], q) for s, b, q in zip(
        t.seq.tolist(), t.body.tolist(), t.query.tolist())]
    assert t.events == one_pass
    for observer in (0, 5):
        assert observer_view(t, observer) == [
            TranscriptEvent(ev.seq, ev.kind, ev.space, ev.path, ev.proxy,
                            ev.topic if seen else None, ev.visibility, None,
                            -1)
            for ev in one_pass
            if (seen := access(W33, observer, ev)) is not None]
    assert external_view(t) == [
        TranscriptEvent(ev.seq, ev.kind, ev.space, ev.path, ev.proxy,
                        ev.topic, ev.visibility, None, -1)
        for ev in one_pass if ev.kind in (DB_REQUEST, DB_RESPONSE)]
    write_transcript(t, tmp_path / "chunked.jsonl")
    reference_write(t, tmp_path / "reference.jsonl")
    assert ((tmp_path / "chunked.jsonl").read_bytes()
            == (tmp_path / "reference.jsonl").read_bytes())
