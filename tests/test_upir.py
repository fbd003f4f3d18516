"""Protocol simulation: distances, paths, event shapes, visibility, files."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gqupir.adversary import converge_topics
from gqupir.geometry import IncidenceStructure, build_pg2, build_w3
from gqupir.fields import field
from gqupir.upir import (
    ALL_READERS,
    Transcript,
    DB_REQUEST,
    DB_RESPONSE,
    PROXY_ONLY,
    WRITE_REQUEST,
    WRITE_RESPONSE,
    DisconnectedError,
    NotDiameterBoundedError,
    QueryWorkload,
    TranscriptEvent,
    UPIRSystem,
    _route_counts,
    access,
    external_view,
    observer_view,
    path_choice_counts,
    proxy_counts,
    proxy_uniformity,
    read_transcript,
    run_protocol,
    write_ground_truth,
    write_transcript,
)

from conftest import get_gq, get_plane, joined


def w33_system():
    return UPIRSystem(get_gq("w3", 3).base)


def test_disconnected_rejected():
    inc = IncidenceStructure(6, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(DisconnectedError) as ei:
        UPIRSystem(inc)
    a, b = ei.value.witness
    assert a in (0, 1, 2) and b in (3, 4, 5)


def test_plane_distances_all_one():
    sys_ = UPIRSystem(get_plane(3).base)
    assert sys_.diameter() == 1
    for u in range(sys_.n_users):
        row = sys_.distances[u].tolist()
        assert row[u] == 0
        assert all(d == 1 for v, d in enumerate(row) if v != u)


def test_gq_distance_matches_collinearity():
    gq = get_gq("w3", 3)
    sys_ = UPIRSystem(gq.base)
    assert sys_.diameter() == 2
    for u in range(sys_.n_users):
        row = sys_.distances[u].tolist()
        for v in range(sys_.n_users):
            if v == u:
                assert row[v] == 0
            elif v in gq.coll[u]:
                assert row[v] == 1
            else:
                assert row[v] == 2


def test_shortest_paths_distance_one_unique():
    sys_ = w33_system()
    gq = get_gq("w3", 3)
    u = 0
    v = sorted(gq.coll[u])[0]
    paths = sys_.shortest_user_paths(u, v)
    assert len(paths) == 1
    (path,) = paths
    assert path[0] == u and path[-1] == v and len(path) == 3
    assert u in gq.base.blocks[path[1]] and v in gq.base.blocks[path[1]]


def test_shortest_paths_distance_two_count():
    # one path per common neighbour: t+1 in a GQ of order (s,t)
    gq = get_gq("w3", 3)
    sys_ = UPIRSystem(gq.base)
    u = 0
    v = next(x for x in range(sys_.n_users) if x != u and x not in gq.coll[u])
    paths = sys_.shortest_user_paths(u, v)
    assert len(paths) == gq.t + 1
    assert paths == tuple(sorted(paths))
    for p in paths:
        assert len(p) == 5 and p[0] == u and p[-1] == v
        assert p[2] in gq.coll[u] and p[2] in gq.coll[v]
    middles = {p[2] for p in paths}
    assert len(middles) == gq.t + 1


def test_path_self_rejected():
    with pytest.raises(ValueError):
        w33_system().shortest_user_paths(5, 5)


class ReferenceSystem:
    """User distances by a breadth-first search per user, and shortest
    routes by recursive enumeration, as UPIRSystem found them before its
    all-pairs table; with the error messages it raised."""

    def __init__(self, inc):
        self.inc = inc
        self.coll = [set() for _ in range(inc.n_points)]
        for blk in inc.blocks:
            for x in blk:
                self.coll[x].update(y for y in blk if y != x)
        self.rows = [self._bfs(u) for u in range(inc.n_points)]

    def _bfs(self, u):
        row = [-1] * self.inc.n_points
        row[u] = 0
        frontier = [u]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for x in frontier:
                for y in self.coll[x]:
                    if row[y] < 0:
                        row[y] = d
                        nxt.append(y)
            frontier = nxt
        return row

    def diameter(self):
        return max(max(row) for row in self.rows)

    def paths(self, u, v):
        row_v = self.rows[v]

        def rec(x):
            if x == v:
                return ((v,),)
            out = []
            for w in sorted(self.coll[x]):
                if row_v[w] == row_v[x] - 1:
                    tails = rec(w)
                    for m in self.inc.point_to_blocks[x]:
                        if w in self.inc.block_sets[m]:
                            for tail in tails:
                                out.append((x, m) + tail)
            return tuple(out)

        return tuple(sorted(rec(u)))

    def disconnected(self):
        """(witness, message) of DisconnectedError, or None."""
        row = self.rows[0]
        if -1 not in row:
            return None
        missing = row.index(-1)
        return (0, missing), f"users 0 and {missing} cannot reach each other"

    def too_far(self):
        """The message of protocol 2's NotDiameterBoundedError, or None."""
        n = self.inc.n_points
        far = next(((u, v) for u in range(n) for v in range(n)
                     if self.rows[u][v] > 2), None)
        if far is None:
            return None
        return f"user pair {far} at distance {self.rows[far[0]][far[1]]} > 2"


def assert_matches_reference(inc):
    """UPIRSystem(inc) against ReferenceSystem(inc): the DisconnectedError,
    or every distance, the diameter, the routes of every ordered pair and
    protocol 2's NotDiameterBoundedError."""
    ref = ReferenceSystem(inc)
    apart = ref.disconnected()
    if apart is not None:
        with pytest.raises(DisconnectedError) as ei:
            UPIRSystem(inc)
        assert (ei.value.witness, str(ei.value)) == apart
        assert all(type(x) is int for x in ei.value.witness)
        return
    sys_ = UPIRSystem(inc)
    n = inc.n_points
    assert sys_.diameter() == ref.diameter()
    for u in range(n):
        assert sys_.distances[u].tolist() == ref.rows[u]
        for v in range(n):
            assert sys_.user_distance(u, v) == ref.rows[u][v]
            if v != u:
                assert sys_.shortest_user_paths(u, v) == ref.paths(u, v)
        assert _route_counts(sys_, u).tolist() == [
            1 if v == u else len(ref.paths(u, v)) for v in range(n)]
    message = ref.too_far()
    work = QueryWorkload(0, "t", 1, protocol=2)
    if message is None:
        run_protocol(sys_, work, 0)
    else:
        with pytest.raises(NotDiameterBoundedError) as ei:
            run_protocol(sys_, work, 0)
        assert str(ei.value) == message


@st.composite
def incidence_structures(draw):
    """Up to eight blocks of one to four points on up to ten points, on
    half the draws over a chain of two-point blocks through every point,
    plus a one-point block for each point left over.  Disconnected
    structures, connected ones of diameter above 2 and at most 2, and
    repeated blocks all occur."""
    n = draw(st.integers(1, 10))
    blocks = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1,
                                   max_size=4), max_size=8))
    if draw(st.booleans()):
        blocks += [{x, x + 1} for x in range(n - 1)]
    covered = set().union(*blocks)
    return IncidenceStructure(
        n, blocks + [{x} for x in range(n) if x not in covered])


@settings(max_examples=300, deadline=None)
@given(inc=incidence_structures())
@example(inc=IncidenceStructure(6, [(0, 1, 2), (3, 4, 5)]))
@example(inc=IncidenceStructure(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
@example(inc=IncidenceStructure(9, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8)]))
@example(inc=IncidenceStructure(3, [(0, 1), (0, 1), (1, 2)]))
def test_distance_table_matches_reference(inc):
    assert_matches_reference(inc)


@pytest.mark.parametrize("build", [
    lambda: get_gq("w3", 3).base,
    lambda: get_gq("q4", 3).base,
    lambda: get_plane(3).base,
], ids=["W(3,3)", "Q(4,3)", "PG(2,3)"])
def test_distance_table_matches_reference_exhaustively(build):
    assert_matches_reference(build())


def test_long_chain_distances_fit_the_table():
    # 300 users in a chain of two-point blocks: distances up to 299 need
    # more than int8, and the search takes 299 steps
    inc = IncidenceStructure(300, [(x, x + 1) for x in range(299)])
    sys_ = UPIRSystem(inc)
    ref = ReferenceSystem(inc)
    assert sys_.diameter() == 299
    assert [sys_.distances[u].tolist() for u in range(300)] == ref.rows
    assert sys_.shortest_user_paths(0, 299) == ref.paths(0, 299)


def test_workload_validation():
    with pytest.raises(ValueError):
        QueryWorkload(0, "t", 0)
    with pytest.raises(ValueError):
        QueryWorkload(0, "t", 1, protocol=3)


@pytest.mark.parametrize("field, value", [
    ("count", 2.5), ("count", True), ("count", "3"), ("count", np.float64(3)),
    ("source", 0.0), ("source", False), ("source", None),
])
def test_workload_rejects_non_integers(field, value):
    args = {"source": 0, "topic": "t", "count": 3, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        QueryWorkload(**args)


def test_workload_takes_numpy_integers_as_ints():
    workload = QueryWorkload(np.int64(4), "t", np.uint16(3))
    assert (workload.source, workload.count) == (4, 3)
    assert type(workload.source) is int and type(workload.count) is int
    queries = run_protocol(w33_system(), workload, 0).query
    assert np.unique(queries).tolist() == [0, 1, 2]


def test_event_shapes_per_query():
    sys_ = w33_system()
    tr = run_protocol(sys_, QueryWorkload(0, "topic-a", 400, protocol=1), seed_or_rng=7)
    per_query = {}
    for ev in tr.events:
        per_query.setdefault(ev.query, []).append(ev)
    assert len(per_query) == 400
    for evs in per_query.values():
        kinds = [e.kind for e in evs]
        n_req = kinds.count(WRITE_REQUEST)
        n_resp = kinds.count(WRITE_RESPONSE)
        assert n_req == n_resp
        assert kinds.count(DB_REQUEST) == 1 and kinds.count(DB_RESPONSE) == 1
        proxy = evs[0].proxy
        assert all(e.proxy == proxy for e in evs)
        d = sys_.user_distance(0, proxy)
        assert len(evs) == {0: 2, 1: 4, 2: 6}[d]
        # request legs then db pair then response legs, retraced in reverse
        assert kinds == [WRITE_REQUEST] * n_req + [DB_REQUEST, DB_RESPONSE] + [
            WRITE_RESPONSE
        ] * n_resp
        req_spaces = [e.space for e in evs if e.kind == WRITE_REQUEST]
        resp_spaces = [e.space for e in evs if e.kind == WRITE_RESPONSE]
        assert resp_spaces == req_spaces[::-1]


def test_routes_and_writers():
    sys_ = w33_system()
    gq = get_gq("w3", 3)
    tr = run_protocol(sys_, QueryWorkload(4, "t", 300, protocol=1), seed_or_rng=11)
    for ev in tr.events:
        if ev.kind == WRITE_REQUEST:
            # route ends at the proxy and alternates user, space, user, ...
            assert ev.path[-1] == ev.proxy
            assert ev.path[0] in gq.base.blocks[ev.space]
            assert ev.writer in gq.base.blocks[ev.space]
            if len(ev.path) == 1:
                # arrival leg: addressee is the proxy, in this space
                assert ev.proxy in gq.base.blocks[ev.space]
        elif ev.kind == WRITE_RESPONSE:
            assert ev.writer in gq.base.blocks[ev.space]
            assert ev.path[-1] == ev.proxy
        else:
            assert ev.space is None and ev.writer == ev.proxy


def test_unseeded_run_records_no_seed():
    tr = run_protocol(w33_system(), QueryWorkload(0, "t", 20, protocol=2), None)
    assert tr.seed is None
    assert sum(ev.kind == DB_REQUEST for ev in tr.events) == 20


def test_sequence_numbers_dense():
    tr = run_protocol(w33_system(), QueryWorkload(0, "t", 50, protocol=1), 3)
    assert [e.seq for e in tr.events] == list(range(len(tr.events)))


def test_determinism_same_seed():
    sys_ = w33_system()
    w = QueryWorkload(7, "t", 200, protocol=1)
    a = run_protocol(sys_, w, 42)
    b = run_protocol(sys_, w, 42)
    assert a.events == b.events
    c = run_protocol(sys_, w, 43)
    assert a.events != c.events


def test_protocol2_diameter_guard():
    for inc in (
        # a path graph of three triangles in a row has users 3 apart
        IncidenceStructure(9, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8)]),
        # so has a cycle of six users: opposite users are 3 apart
        IncidenceStructure(6, [(i, (i + 1) % 6) for i in range(6)]),
    ):
        sys_ = UPIRSystem(inc)
        assert sys_.diameter() > 2
        with pytest.raises(NotDiameterBoundedError):
            run_protocol(sys_, QueryWorkload(3, "t", 200, protocol=2), 0)
        # converge_topics shares run_protocol's stream and its guard
        for log in (None, [].append):
            with pytest.raises(NotDiameterBoundedError):
                converge_topics(sys_, (1,), 2, {"t": 3}, 200, seed=1,
                                log=log)


class WholeTableWatch(np.ndarray):
    """A distance table that fails any ufunc or copy over its n x n whole;
    rows and entries read from it are plain arrays."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if any(isinstance(x, WholeTableWatch) and x.ndim == 2
               for x in inputs):
            raise AssertionError(f"{ufunc.__name__}.{method} over the table")
        return getattr(ufunc, method)(*(
            x.view(np.ndarray) if isinstance(x, WholeTableWatch) else x
            for x in inputs), **kwargs)

    def copy(self, *args, **kwargs):
        raise AssertionError("the table was copied")


def test_streams_and_trackers_do_not_rescan_the_distance_table():
    """The constructor takes the diameter once: a protocol-2 stream and a
    tracker per topic read rows of the table, never the whole."""
    sys_ = w33_system()
    sys_.distances = sys_.distances.view(WholeTableWatch)
    assert sys_.diameter() == 2
    tr = run_protocol(sys_, QueryWorkload(0, "t", 200, protocol=2), 0)
    assert len(tr.seq) > 200
    for protocol in (1, 2):
        states = converge_topics(sys_, (1,), protocol, {"a": 0, "b": 5},
                                 200, seed=1)
        assert all(st.source in st.candidates for st in states.values())


def test_protocol2_visibility_flags():
    sys_ = w33_system()
    tr = run_protocol(sys_, QueryWorkload(0, "t", 100, protocol=2), 5)
    for ev in tr.events:
        if ev.kind in (WRITE_REQUEST, WRITE_RESPONSE):
            assert ev.visibility == PROXY_ONLY
        else:
            assert ev.visibility == ALL_READERS


def test_observer_view_membership_and_payload():
    sys_ = w33_system()
    gq = get_gq("w3", 3)
    src = 0
    for proto in (1, 2):
        tr = run_protocol(sys_, QueryWorkload(src, "secret", 150, protocol=proto), 9)
        for obs in (1, 13, 25):
            view = observer_view(tr, obs)
            seen = {ve.seq for ve in view}
            for ev in tr.events:
                if ev.kind in (DB_REQUEST, DB_RESPONSE):
                    assert (ev.seq in seen) == (obs == ev.proxy)
                else:
                    assert (ev.seq in seen) == (obs in gq.base.blocks[ev.space])
            for ve in view:
                assert ve.writer is None and ve.query == -1
                if proto == 1:
                    assert ve.topic == "secret"
                else:
                    readable = ve.kind in (DB_REQUEST, DB_RESPONSE) or obs == ve.proxy
                    assert (ve.topic == "secret") == readable
                    if not readable:
                        assert ve.topic is None


def test_external_view_is_db_traffic():
    sys_ = w33_system()
    tr = run_protocol(sys_, QueryWorkload(3, "t", 80, protocol=2), 1)
    ext = external_view(tr)
    assert len(ext) == 160
    assert all(ve.kind in (DB_REQUEST, DB_RESPONSE) for ve in ext)
    assert all(ve.topic == "t" for ve in ext)


def _as_seen(event, readable):
    return TranscriptEvent(event.seq, event.kind, event.space, event.path,
                           event.proxy, event.topic if readable else None,
                           event.visibility, None, -1)


def reference_observer_view(transcript, observer):
    """observer_view as a walk over transcript.events, access() per event."""
    out = []
    for ev in transcript.events:
        readable = access(transcript.system, observer, ev)
        if readable is not None:
            out.append(_as_seen(ev, readable))
    return out


def reference_external_view(transcript):
    return [_as_seen(ev, True) for ev in transcript.events
            if ev.kind in (DB_REQUEST, DB_RESPONSE)]


def reference_path_choice_counts(transcript):
    """path_choice_counts as a walk over transcript.events."""
    out = {}
    route = []
    for ev in transcript.events:
        if ev.kind == WRITE_REQUEST:
            route.append(ev.space)
        elif ev.kind == DB_REQUEST and route:
            key = tuple(route)
            counts = out.setdefault(ev.proxy, {})
            counts[key] = counts.get(key, 0) + 1
            route = []
    return out


@pytest.mark.parametrize("source", ["run", "log"])
@pytest.mark.parametrize("protocol", [1, 2])
@pytest.mark.parametrize("read_back", [False, True], ids=["raw", "file"])
def test_views_match_event_walking_references(tmp_path, source, protocol,
                                              read_back):
    sys_ = w33_system()
    if source == "run":
        tr = run_protocol(sys_, QueryWorkload(7, "t", 500, protocol=protocol), 4)
    else:  # three streams one after another, each numbered from seq 0
        streams = []
        converge_topics(sys_, (0, 13), protocol, {"a": 5, "b": 22, "c": 31},
                        300, seed=4, log=streams.append)
        tr = joined(streams, seed=4)
    if read_back:
        write_transcript(tr, tmp_path / "run.jsonl")
        tr = read_transcript(tmp_path / "run.jsonl", sys_)
    for observer in range(sys_.n_users):
        assert (observer_view(tr, observer)
                == reference_observer_view(tr, observer))
    assert external_view(tr) == reference_external_view(tr)
    assert path_choice_counts(tr) == reference_path_choice_counts(tr)


def test_proxy_counts_and_uniformity():
    sys_ = w33_system()
    tr = run_protocol(sys_, QueryWorkload(0, "t", 8000, protocol=1), 2024)
    counts = proxy_counts(tr)
    assert counts.sum() == 8000
    assert len(counts) == 40
    chi2, p = proxy_uniformity(tr)
    assert p > 0.01
    from scipy.stats import chisquare
    assert (chi2, p) == tuple(map(float, chisquare(counts)))
    with pytest.raises(ValueError, match="no database request"):
        proxy_uniformity(Transcript(sys_, 1, None, [], {}))


def test_path_choice_counts_reach_all_middles():
    sys_ = w33_system()
    gq = get_gq("w3", 3)
    tr = run_protocol(sys_, QueryWorkload(0, "t", 6000, protocol=1), 77)
    by_proxy = path_choice_counts(tr)
    far = [v for v in range(40) if v != 0 and v not in gq.coll[0]]
    for v in far[:5]:
        routes = by_proxy[v]
        assert len(routes) == gq.t + 1
        total = sum(routes.values())
        for cnt in routes.values():
            assert abs(cnt - total / (gq.t + 1)) < 5 * np.sqrt(total)


@pytest.mark.parametrize(
    "family,protocol", [("w3", 1), ("w3", 2), ("q4", 1), ("pg2", 1), ("pg2", 2)]
)
def test_path_choice_counts_read_back_match_raw(tmp_path, family, protocol):
    geom = get_plane(3) if family == "pg2" else get_gq(family, 3)
    sys_ = UPIRSystem(geom.base)
    # two topics logged one after the other, as simulate --transcript does
    parts = [
        run_protocol(sys_, QueryWorkload(src, f"t{src}", 400, protocol=protocol), src)
        for src in (0, 11)
    ]
    events = [ev for tr in parts for ev in tr.events]
    for seq, ev in enumerate(events):
        ev.seq = seq
    log = tmp_path / "run.jsonl"
    write_transcript(Transcript(sys_, protocol, None, events, {}), log)
    back = path_choice_counts(read_transcript(log, sys_))

    expected = {}
    for tr in parts:
        for proxy, routes in path_choice_counts(tr).items():
            for route, cnt in routes.items():
                per = expected.setdefault(proxy, {})
                per[route] = per.get(route, 0) + cnt
    assert back == expected
    relayed = sum(ev.kind == DB_REQUEST and ev.proxy not in tr.ground_truth.values()
                  for tr in parts for ev in tr.events)
    assert sum(sum(r.values()) for r in back.values()) == relayed


def test_transcript_file_round_trip(tmp_path):
    sys_ = w33_system()
    tr = run_protocol(sys_, QueryWorkload(6, "news", 40, protocol=2), 123)
    log = tmp_path / "run.jsonl"
    side = tmp_path / "run.truth.json"
    write_transcript(tr, log)
    write_ground_truth(tr, side)

    back = read_transcript(log, sys_, side)
    assert back.protocol == 2 and back.seed == 123
    assert back.ground_truth == {"news": 6}
    assert len(back.events) == len(tr.events)
    for a, b in zip(tr.events, back.events):
        assert (a.seq, a.kind, a.space, a.path, a.proxy, a.topic, a.visibility) == (
            b.seq, b.kind, b.space, b.path, b.proxy, b.topic, b.visibility,
        )
        assert b.writer is None  # ground truth never round-trips via the log

    with open(log) as fh:
        first = json.loads(fh.readline())
    assert set(first) == {"seq", "kind", "space", "path", "proxy", "topic", "visibility"}


def test_plane_protocol_runs():
    sys_ = UPIRSystem(get_plane(3).base)
    tr = run_protocol(sys_, QueryWorkload(0, "t", 200, protocol=1), 8)
    for ev in tr.events:
        if ev.kind == WRITE_REQUEST:
            assert len(ev.path) == 1  # diameter 1: every request is an arrival
    tr2 = run_protocol(sys_, QueryWorkload(0, "t", 50, protocol=2), 8)
    assert any(ev.kind == WRITE_REQUEST for ev in tr2.events)


def test_self_proxy_queries_touch_no_space():
    sys_ = w33_system()
    tr = run_protocol(sys_, QueryWorkload(0, "t", 2000, protocol=1), 6)
    per_query = {}
    for ev in tr.events:
        per_query.setdefault(ev.query, []).append(ev)
    self_q = [evs for evs in per_query.values() if evs[0].proxy == 0]
    assert len(self_q) > 20
    for evs in self_q:
        assert len(evs) == 2
        assert {e.kind for e in evs} == {DB_REQUEST, DB_RESPONSE}
