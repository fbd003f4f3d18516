"""Transcript files: the line codec against a per-event json.dumps
reference, non-canonical input, and the checks made when a log is read."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    read_transcript,
    run_protocol,
    write_transcript,
)

from conftest import get_gq

FIELDS = ("seq", "kind", "space", "path", "proxy", "topic", "visibility")


def w33_system():
    return UPIRSystem(get_gq("w3", 3).base)


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
    n = draw(st.integers(0, 40))
    out = []
    for seq in range(n):
        kind = draw(st.sampled_from(
            (WRITE_REQUEST, WRITE_RESPONSE, DB_REQUEST, DB_RESPONSE)))
        if kind in (DB_REQUEST, DB_RESPONSE):
            space, path = None, ()
        else:
            space = draw(IDS)
            hops = draw(st.integers(0, 2))
            path = tuple(draw(IDS) for _ in range(2 * hops + 1))
            if draw(st.booleans()):
                path = ()
        out.append(TranscriptEvent(
            draw(st.sampled_from((seq, seq + 1000, 10**12 + seq))), kind,
            space, path, draw(IDS), draw(TOPICS),
            draw(st.sampled_from((ALL_READERS, PROXY_ONLY))), None, -1))
    return out


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


GOOD = {"seq": 0, "kind": WRITE_REQUEST, "space": 5, "path": [1, 7, 2],
        "proxy": 2, "topic": "t", "visibility": ALL_READERS}


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
    (_with(space=None), "'space' must be a space id"),
    (_with(space=40), "'space' must be a space id in 0..39"),
    (_with(proxy=40), "'proxy' must be a user id in 0..39"),
    (_with(path=[40]), "'path' entry 0 must be a user id in 0..39"),
    (_with(path=[1, 40, 2]), "'path' entry 1 must be a space id in 0..39"),
    (_with(path=[1, 7, -1]), "'path' entry 2 must be a user id"),
    # seq digits must be ASCII, without a leading zero
    (_with().replace('"seq": 0', '"seq": ²'), "invalid JSON"),
    (_with().replace('"seq": 0', '"seq": ١'), "invalid JSON"),
    (_with().replace('"seq": 0', '"seq": 01'), "invalid JSON"),
    # a canonical prefix does not let a second seq through
    (_with().replace('"seq": 0', '"seq": 0, "seq": 1'), "unexpected 'seq'"),
])
def test_malformed_line_names_file_and_line(tmp_path, line, message):
    log = tmp_path / "bad.jsonl"
    log.write_text(_with() + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as ei:
        read_transcript(log, w33_system())
    assert str(ei.value).startswith(f"{log}:2: ")
    assert message in str(ei.value)


def test_undecodable_line_names_file_and_line(tmp_path):
    log = tmp_path / "bad.jsonl"
    bad = _with().encode().replace(b'"topic": "t"', b'"topic": "\xff"')
    log.write_bytes(_with().encode() + b"\n" + bad + b"\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{log}:2: ")):
        read_transcript(log, w33_system())


def test_good_line_reads(tmp_path):
    log = tmp_path / "good.jsonl"
    log.write_text(_with() + "\n")
    (ev,) = read_transcript(log, w33_system()).events
    assert observable(ev) == (0, WRITE_REQUEST, 5, (1, 7, 2), 2, "t",
                              ALL_READERS)
    assert ev.writer is None and ev.query == -1


@pytest.mark.parametrize("side,message", [
    ("{", "invalid JSON"),
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

