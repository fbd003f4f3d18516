"""Transcript files: the line codec against a per-event json.dumps
reference, non-canonical input, and the checks made when a log is read."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqupir import upir
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
    proxy_counts,
    read_transcript,
    run_protocol,
    write_transcript,
)

from conftest import get_gq

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
    logged = Transcript(sys_, 1, None, [], {})
    converge_topics(sys_, (0, 13), 1, sources, 3000, seed=2, log=logged)
    assert counting.built == len(logged.bodies)
    monkeypatch.undo()
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


def test_good_line_reads(tmp_path):
    log = tmp_path / "good.jsonl"
    log.write_text(_with() + "\n")
    (ev,) = read_transcript(log, w33_system()).events
    assert observable(ev) == (0, WRITE_REQUEST, 1, (13, 5, 1), 1, "t",
                              ALL_READERS)
    assert ev.writer is None and ev.query == -1


@pytest.mark.parametrize("side,message", [
    ("{", "invalid JSON"),
    pytest.param("[" * 200_000 + "]" * 200_000,
                 "invalid JSON: nested too deeply", id="deep-nesting"),
    ('{"topics": {"t": 40}}', "'topics' must map topics to user ids"),
    ('{"topics": ["t"]}', "'topics' must map topics to user ids"),
    ('{"protocol": "1", "topics": {}}', "'protocol' and 'seed'"),
    ('{"seed": 1.5, "topics": {}}', "'protocol' and 'seed'"),
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

