"""Inference: analytic partitions, margins, trackers, placement, sweeps."""

import hashlib
import math
import weakref
from collections import Counter
from itertools import combinations, groupby
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqupir.adversary import (
    CandidateState,
    CoalitionTracker,
    DegeneratePartition,
    PseudonymityPartition,
    _route_tables,
    analytic_coalition,
    analytic_single,
    coalition_sweep,
    converge_topics,
    empirical_infer,
    partition_meet,
    place_coalition,
    residue_bound,
    secure_at,
    security_margin,
)
from gqupir.geometry import Geometry, IncidenceStructure
from gqupir.upir import (
    DB_REQUEST,
    QueryWorkload,
    Transcript,
    TranscriptEvent,
    UPIRSystem,
    _draw_queries,
    _query_bodies,
    _stream_writer,
    iter_protocol_events,
    observer_view,
    read_transcript,
    run_protocol,
    write_transcript,
)

from conftest import get_gq, get_plane, joined


def w33():
    return get_gq("w3", 3)


def w33_system():
    return UPIRSystem(w33().base)


# -- analytic partitions --


def test_w33_plaintext_single_sizes():
    gq = w33()
    part = analytic_single(gq, 0, 1)
    assert part.n_users == 40
    assert part.sizes() == (3,) * 9 + (1,) * 13
    assert part.class_of(0) == frozenset({0})
    for u in gq.ball(0, 1):
        assert part.class_of(u) == frozenset({u})


def test_w33_plaintext_classes_are_spans():
    gq = w33()
    c = 7
    part = analytic_single(gq, c, 1)
    for cls in part.classes:
        if len(cls) == 3:
            u = min(cls)
            assert cls | {c} == gq.span((c, u)).members


def test_q43_plaintext_fully_resolved():
    gq = get_gq("q4", 3)
    part = analytic_single(gq, 0, 1)
    assert part.is_discrete()
    assert len(part.classes) == 40
    with pytest.raises(DegeneratePartition):
        security_margin(part)


def test_q42_plaintext_pairs():
    gq = get_gq("q4", 2)
    part = analytic_single(gq, 0, 1)
    assert part.sizes() == (2,) * 4 + (1,) * 7
    m = security_margin(part)
    assert (m.giant, m.residue) == (2, 13)
    assert m.epsilon_star == pytest.approx(1 - math.log(13) / math.log(15))


def test_w33_encrypted_single():
    gq = w33()
    part = analytic_single(gq, 0, 2)
    assert part.sizes() == (27, 3, 3, 3, 3, 1)
    m = security_margin(part)
    assert (m.giant, m.residue) == (27, 13)
    assert m.epsilon_star == pytest.approx(1 - math.log(13) / math.log(40))
    assert m.epsilon_star == pytest.approx(0.3047, abs=1e-4)


def test_w35_encrypted_single_margin():
    gq = get_gq("w3", 5)
    part = analytic_single(gq, 3, 2)
    m = security_margin(part)
    assert (m.n_users, m.giant, m.residue) == (156, 125, 31)
    assert m.epsilon_star == pytest.approx(1 - math.log(31) / math.log(156))
    assert secure_at(part, 0.30)
    assert not secure_at(part, 0.35)


def test_plane_plaintext_discrete():
    plane = get_plane(3)
    part = analytic_single(plane, 0, 1)
    assert part.is_discrete()


def test_plane_encrypted_line_classes():
    plane = get_plane(3)
    part = analytic_single(plane, 5, 2)
    assert part.sizes() == (3, 3, 3, 3, 1)
    for cls in part.classes:
        if len(cls) == 3:
            # each class is a line through the observer, minus the observer
            blocks = [set(b) for b in plane.base.blocks]
            assert any(cls | {5} == b for b in blocks)


def test_meet_two_far_observers_encrypted():
    gq = w33()
    c1 = 0
    c2 = next(u for u in range(1, 40) if u not in gq.ball(0, 1))
    meet = analytic_coalition(gq, (c1, c2), 2)
    assert meet.observers == (c1, c2)
    giant = max(len(c) for c in meet.classes)
    assert giant == 18
    far_both = (set(range(40)) - gq.ball(c1, 1) - gq.ball(c2, 1)) - {c1, c2}
    assert frozenset(far_both) in set(meet.classes)


def test_meet_refines_parts():
    gq = w33()
    parts = [analytic_single(gq, c, 2) for c in (0, 1, 9)]
    meet = partition_meet(parts)
    for cls in meet.classes:
        for p in parts:
            assert cls <= p.class_of(min(cls))


def test_meet_rejects_mixed_protocols():
    gq = w33()
    with pytest.raises(ValueError):
        partition_meet([analytic_single(gq, 0, 1), analytic_single(gq, 1, 2)])


def test_whole_line_coalition_resolves_nobody_extra():
    # every outside user is collinear with exactly one member of the line,
    # so pooling the line's views still leaves classes of size s
    gq = w33()
    block = gq.base.blocks[0]
    meet = analytic_coalition(gq, block, 2)
    assert meet.sizes() == (3,) * 12 + (1,) * 4
    singles = {min(c) for c in meet.classes if len(c) == 1}
    assert singles == set(block)


def test_line_dominating_coalition_resolves_covered_points():
    gq = w33()
    coll = [gq.ball(x, 1) for x in range(gq.n_points)]
    block = gq.base.blocks[0]
    anchor = block[0]
    members = [anchor]
    taken = set()
    for w in block[1:]:
        y = min(coll[w] - set(block) - taken)
        taken.add(y)
        members.append(y)
    meet = analytic_coalition(gq, tuple(members), 2)
    for w in block[1:]:
        assert w not in members
        assert meet.class_of(w) == frozenset({w})


def reference_make_partition(n, groups, observers, protocol):
    classes = tuple(sorted((frozenset(g) for g in groups), key=min))
    total = sum(len(c) for c in classes)
    if total != n or len(set().union(*classes)) != n:
        raise ValueError("groups do not partition the users")
    return PseudonymityPartition(n, classes, tuple(sorted(observers)), protocol)


def reference_analytic_single(geom, observer, protocol):
    """The single-observer partition built per protocol: spans of the far
    users under the plaintext protocol, the set of shared spaces under the
    encrypted one."""
    base = geom.base
    n = geom.n_points
    c = observer
    if protocol == 2:
        by_key = {}
        obs_spaces = base.point_to_blocks[c]
        for u in range(n):
            if u == c:
                continue
            shared = frozenset(m for m in obs_spaces if u in base.block_sets[m])
            by_key.setdefault(shared, set()).add(u)
        return reference_make_partition(
            n, [{c}] + list(by_key.values()), (c,), 2)
    near = geom.ball(c, 1)
    groups = [{c}] + [{u} for u in near]
    assigned = set()
    for u in range(n):
        if u != c and u not in near and u not in assigned:
            cls = set(geom.span((c, u)).members) - {c}
            groups.append(cls)
            assigned |= cls
    return reference_make_partition(n, groups, (c,), 1)


def reference_partition_meet(parts):
    """The common refinement, through a dict of class indices per part."""
    n = parts[0].n_users
    index_maps = []
    for p in parts:
        idx = {}
        for i, cls in enumerate(p.classes):
            for u in cls:
                idx[u] = i
        index_maps.append(idx)
    by_key = {}
    for u in range(n):
        by_key.setdefault(tuple(m[u] for m in index_maps), set()).add(u)
    observers = set()
    for p in parts:
        observers |= set(p.observers)
    return reference_make_partition(n, by_key.values(), observers,
                                    parts[0].protocol)


def reference_coalition(geom, coalition, protocol):
    return reference_partition_meet(
        [reference_analytic_single(geom, c, protocol) for c in coalition])


def _grid_33():
    rows = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    cols = [(0, 3, 6), (1, 4, 7), (2, 5, 8)]
    return Geometry.from_structure(IncidenceStructure(9, rows + cols), "grid")


def _k33():
    # the dual grid, order (1,2): the 9 edges of K_{3,3} as blocks
    edges = [(a, b) for a in range(3) for b in range(3, 6)]
    return Geometry.from_structure(IncidenceStructure(6, edges), "k33")


REFERENCE_GEOMETRIES = {
    "w3-3": lambda: get_gq("w3", 3),
    "q4-3": lambda: get_gq("q4", 3),
    "pg2-3": lambda: get_plane(3),
    "grid-3x3": _grid_33,
    "k33": _k33,
}


@pytest.mark.parametrize("protocol", [1, 2])
@pytest.mark.parametrize("name", sorted(REFERENCE_GEOMETRIES))
def test_partitions_match_reference_on_every_observer_and_pair(name, protocol):
    geom = REFERENCE_GEOMETRIES[name]()
    n = geom.n_points
    singles = {}
    for c in range(n):
        singles[c] = reference_analytic_single(geom, c, protocol)
        assert analytic_single(geom, c, protocol) == singles[c]
    for pair in combinations(range(n), 2):
        want = reference_partition_meet([singles[c] for c in pair])
        assert analytic_coalition(geom, pair, protocol) == want


@pytest.mark.parametrize("protocol", [1, 2])
@pytest.mark.parametrize("family", ["w3", "q4"])
def test_partitions_match_reference_on_random_coalitions(family, protocol):
    geom = get_gq(family, 5)
    rng = np.random.default_rng(8)
    for size in (3, 5, 8):
        for _ in range(4):
            coalition = tuple(int(x) for x in
                              rng.choice(geom.n_points, size, replace=False))
            assert (analytic_coalition(geom, coalition, protocol)
                    == reference_coalition(geom, coalition, protocol))


@pytest.mark.parametrize("protocol", [1, 2])
def test_partitions_match_reference_with_repeats(protocol):
    gq = w33()
    assert (analytic_coalition(gq, (13, 0, 13, 29), protocol)
            == reference_coalition(gq, (13, 0, 13, 29), protocol))
    parts = [analytic_single(gq, c, protocol) for c in (5, 0, 5)]
    assert partition_meet(parts) == reference_partition_meet(parts)
    assert partition_meet(parts).observers == (0, 5)


# -- empirical inference --


def test_tracker_plaintext_far_source_converges_to_span():
    gq = w33()
    sys_ = w33_system()
    c = 0
    part = analytic_single(gq, c, 1)
    u = next(x for x in range(40) if x != c and x not in gq.ball(c, 1))
    floor = part.class_of(u)
    seen_sizes = []

    def on_step(topic, rounds, cand):
        assert floor <= cand  # never over-shrinks, at any prefix
        seen_sizes.append(len(cand))

    states = converge_topics(sys_, (c,), 1, {"t0": u}, 4000, seed=101,
                             analytic=part, on_step=on_step)
    st = states["t0"]
    assert st.converged
    assert st.candidates == floor
    assert u in st.candidates and len(st.candidates) == 3
    assert st.rounds_observed < 4000
    assert seen_sizes == sorted(seen_sizes, reverse=True)


def test_tracker_plaintext_near_source_resolved():
    gq = w33()
    sys_ = w33_system()
    c = 0
    part = analytic_single(gq, c, 1)
    u = sorted(gq.ball(c, 1))[1]
    states = converge_topics(sys_, (c,), 1, {"t": u}, 4000, seed=5, analytic=part)
    assert states["t"].converged
    assert states["t"].candidates == frozenset({u})


def test_tracker_plane_resolves_quickly():
    sys_ = UPIRSystem(get_plane(3).base)
    states = converge_topics(sys_, (0,), 1, {"t": 9}, 500, seed=17)
    st = states["t"]
    assert st.converged and st.candidates == frozenset({9})
    assert st.rounds_observed < 200


@pytest.mark.parametrize("protocol", [1, 2])
def test_converge_topics_log_holds_every_stream_to_the_cap(protocol):
    gq = w33()
    sys_ = w33_system()
    coalition = (0, 13)
    part = analytic_coalition(gq, coalition, protocol)
    sources = {"a": 5, "b": 22, "c": 31}
    plain = converge_topics(sys_, coalition, protocol, sources, 300, seed=4,
                            analytic=part)
    streams = []
    logged = converge_topics(sys_, coalition, protocol, sources, 300, seed=4,
                             analytic=part, log=streams.append)
    assert logged == plain
    if protocol == 1:  # some topic stops early, yet its stream is logged whole
        assert any(st.converged and st.rounds_observed < 300
                   for st in plain.values())
    children = np.random.SeedSequence(4).spawn(len(sources))
    expected = [
        ev
        for topic, child in zip(sorted(sources), children)
        for ev in run_protocol(
            sys_, QueryWorkload(sources[topic], topic, 300, protocol=protocol),
            np.random.default_rng(child)).events
    ]
    assert joined(streams).events == expected


def test_converge_topics_hands_each_stream_to_log_and_drops_it():
    """log is called once per topic, in sorted topic order, with a stream
    numbered from seq 0, and the stream before it is gone by then."""
    sys_ = w33_system()
    sources = {"c": 31, "a": 5, "b": 22}
    calls = []

    def log(stream):
        calls.append({
            "topics": {b.topic for b in stream.bodies},
            "truth": stream.ground_truth,
            "seq": stream.seq.tolist(),
            "ref": weakref.ref(stream),
            "before_dead": not calls or calls[-1]["ref"]() is None,
        })

    converge_topics(sys_, (0, 13), 1, sources, 200, seed=4, log=log)
    assert [c["topics"] for c in calls] == [{"a"}, {"b"}, {"c"}]
    assert [c["truth"] for c in calls] == [{t: sources[t]} for t in "abc"]
    for c in calls:
        assert c["seq"] == list(range(len(c["seq"])))
        assert c["before_dead"]


def reference_converge(system, coalition, protocol, topic_sources, cap, seed,
                       analytic=None, relay_metadata=False):
    """converge_topics feeding every event of every query to the tracker and
    checking convergence after each query.  Also returns, per topic, the
    (rounds, candidate count) after each query that changed the set, and
    every event of every stream, topic after topic."""
    out = {}
    changes = {}
    log = []
    topics = sorted(topic_sources)
    children = np.random.SeedSequence(seed).spawn(len(topics))
    for topic, child in zip(topics, children):
        source = topic_sources[topic]
        tracker = CoalitionTracker(system, coalition, protocol,
                                   analytic=analytic,
                                   relay_metadata=relay_metadata)
        workload = QueryWorkload(source, topic, cap, protocol=protocol)
        events = list(iter_protocol_events(system, workload,
                                           np.random.default_rng(child)))
        log.extend(events)
        rounds, converged = 0, False
        size = len(tracker.candidates(topic))
        changes[topic] = []
        for qi, group in groupby(events, key=attrgetter("query")):
            tracker.feed(group)
            rounds = qi + 1
            if len(tracker.candidates(topic)) != size:
                size = len(tracker.candidates(topic))
                changes[topic].append((rounds, size))
            if tracker.converged(topic):
                converged = True
                break
        out[topic] = CandidateState(topic, tracker.candidates(topic), rounds,
                                    converged, source)
    return out, changes, log


GEOMETRIES = {
    "w3-2": lambda: get_gq("w3", 2),
    "w3-3": lambda: get_gq("w3", 3),
    "q4-3": lambda: get_gq("q4", 3),
    "pg2-3": lambda: get_plane(3),
}


@st.composite
def tracking_runs(draw, name=None, protocol=None, relay_metadata=None):
    """A tracking run; the geometry, protocol and relay_metadata are drawn
    unless given."""
    if name is None:
        name = draw(st.sampled_from(sorted(GEOMETRIES)))
    n = GEOMETRIES[name]().n_points
    if protocol is None:
        protocol = draw(st.sampled_from([1, 2]))
    if relay_metadata is None:
        relay_metadata = draw(st.booleans())
    coalition = tuple(sorted(draw(st.sets(st.integers(0, n - 1),
                                          min_size=1, max_size=3))))
    others = [u for u in range(n) if u not in coalition]
    n_topics = 1 if relay_metadata else draw(st.integers(1, 3))
    sources = {f"t{i}": draw(st.sampled_from(others)) for i in range(n_topics)}
    return {
        "name": name, "protocol": protocol, "relay_metadata": relay_metadata,
        "coalition": coalition, "sources": sources,
        "cap": draw(st.sampled_from([1, 2, 9, 80, 600])),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "floor": not relay_metadata and draw(st.booleans()),
        "log": draw(st.booleans()),
    }


@settings(max_examples=120, deadline=None)
@given(run=tracking_runs())
def test_converge_topics_matches_feeding_every_event(run):
    geom = GEOMETRIES[run["name"]]()
    system = UPIRSystem(geom.base)
    protocol = run["protocol"]
    analytic = (analytic_coalition(geom, run["coalition"], protocol)
                if run["floor"] else None)
    expected, changes, everything = reference_converge(
        system, run["coalition"], protocol, run["sources"], run["cap"],
        run["seed"], analytic=analytic, relay_metadata=run["relay_metadata"])
    steps = {topic: [] for topic in run["sources"]}
    streams = [] if run["log"] else None
    got = converge_topics(
        system, run["coalition"], protocol, run["sources"], run["cap"],
        run["seed"], analytic=analytic, relay_metadata=run["relay_metadata"],
        on_step=lambda topic, rounds, cand: steps[topic].append(
            (rounds, len(cand))),
        log=None if streams is None else streams.append)
    assert got == expected
    # on_step fires after exactly the queries that changed the set
    assert steps == changes
    if streams is not None:
        assert joined(streams).events == everything


@pytest.mark.parametrize("log", [None, []])
@pytest.mark.parametrize("cap", [0, -3])
def test_converge_topics_rejects_empty_workload(log, cap):
    if log is not None:
        log = log.append
    with pytest.raises(ValueError, match="count"):
        converge_topics(w33_system(), (0,), 2, {"t": 5}, cap, seed=1, log=log)


@pytest.mark.parametrize("log", [None, []])
@pytest.mark.parametrize("source", [-1, 40])
def test_converge_topics_rejects_source_out_of_range(log, source):
    if log is not None:
        log = log.append
    with pytest.raises(ValueError, match="out of range"):
        converge_topics(w33_system(), (0,), 2, {"t": source}, 10, seed=1,
                        log=log)


@pytest.mark.parametrize("log", [None, []])
@pytest.mark.parametrize("coalition,match", [
    ((), "at least one member"),
    ((-1,), "member -1 out of range"),
    ((40,), "member 40 out of range"),
    ((0, 40), "member 40 out of range"),
    ((5,), "source 5 is inside the coalition"),
])
def test_converge_topics_rejects_bad_coalition(log, coalition, match):
    if log is not None:
        log = log.append
    with pytest.raises(ValueError, match=match):
        converge_topics(w33_system(), coalition, 2, {"t": 5}, 10, seed=1,
                        log=log)


class _ActionProbe(CoalitionTracker):
    """Records whether observe() handed it an event it acts on: a readable
    one, or any one when relay metadata is attributed."""

    acted = False

    def _ingest(self, m, event, readable):
        self.acted = self.acted or readable or self.relay_metadata


@pytest.mark.parametrize("protocol,relay_metadata",
                         [(1, False), (2, False), (2, True)])
def test_tracker_sees_exactly_the_queries_it_acts_on(protocol, relay_metadata):
    """For every route of a stream, drawn or not, the route table's seen
    entry is sees(), which holds exactly when feeding the query's events
    reaches an event the tracker acts on, and replaying the table's calls
    acts just as feeding the events does."""
    sys_ = w33_system()
    coalition = (0, 13)
    tracker = CoalitionTracker(sys_, coalition, protocol,
                               relay_metadata=relay_metadata)
    workload = QueryWorkload(31, "t", 400, protocol=protocol)
    pairs, _ = _draw_queries(sys_, workload, np.random.default_rng(12))

    def events_of(k):
        return [TranscriptEvent(-1, *body, -1)
                for body in _query_bodies(workload, *pairs[k])]

    seen, calls_of = _route_tables(tracker, pairs, events_of)
    assert len(seen) == len(pairs) == 121
    acted = []
    for k, (proxy, route) in enumerate(pairs):
        probe = _ActionProbe(sys_, coalition, protocol,
                             relay_metadata=relay_metadata)
        probe.feed(events_of(k))
        assert seen[k] == tracker.sees(proxy, route) == probe.acted
        replay = _ActionProbe(sys_, coalition, protocol,
                              relay_metadata=relay_metadata)
        for call in calls_of(k):
            replay._ingest(*call)
        assert replay.acted == probe.acted
        acted.append(probe.acted)
    assert any(acted) and not all(acted)


def test_tracker_encrypted_near_and_far():
    gq = w33()
    sys_ = w33_system()
    c = 0
    part = analytic_single(gq, c, 2)
    near = sorted(gq.ball(c, 1))[0]
    far = next(x for x in range(40) if x != c and x not in gq.ball(c, 1))
    states = converge_topics(sys_, (c,), 2, {"near": near, "far": far}, 8000,
                             seed=23, analytic=part)
    assert states["far"].converged
    assert states["far"].candidates == part.class_of(far)
    assert len(states["far"].candidates) == 27
    assert states["near"].converged
    assert states["near"].candidates == part.class_of(near)
    assert len(states["near"].candidates) == 3
    # the distance-two call needs two arrival spaces, the shared-space call
    # needs a run of arrivals; both happen well before the cap
    assert states["far"].rounds_observed < states["near"].rounds_observed


def test_tracker_sound_for_many_sources():
    gq = w33()
    sys_ = w33_system()
    c = 11
    part = analytic_single(gq, c, 1)
    sources = {f"s{u}": u for u in range(40) if u != c}
    states = converge_topics(sys_, (c,), 1, sources, 1500, seed=3, analytic=part)
    for name, u in sources.items():
        st = states[name]
        assert u in st.candidates
        if st.converged:
            assert st.candidates == part.class_of(u)


def test_tracker_coalition_meets():
    gq = w33()
    sys_ = w33_system()
    c1 = 0
    c2 = next(x for x in range(1, 40) if x not in gq.ball(0, 1))
    meet = analytic_coalition(gq, (c1, c2), 2)
    u = min(set(range(40)) - gq.ball(c1, 1) - gq.ball(c2, 1) - {c1, c2})
    states = converge_topics(sys_, (c1, c2), 2, {"t": u}, 8000, seed=9,
                             analytic=meet)
    assert states["t"].converged
    assert states["t"].candidates == meet.class_of(u)
    assert len(states["t"].candidates) == 18


def test_relay_metadata_breaks_encrypted_line_class():
    gq = w33()
    sys_ = w33_system()
    c = 0
    u = sorted(gq.ball(c, 1))[0]
    plain = converge_topics(sys_, (c,), 2, {"t": u}, 6000, seed=31,
                            analytic=analytic_single(gq, c, 2))
    assert len(plain["t"].candidates) == 3
    linked = converge_topics(sys_, (c,), 2, {"t": u}, 6000, seed=31,
                             relay_metadata=True)
    assert linked["t"].converged
    assert linked["t"].candidates == frozenset({u})


def test_relay_metadata_rejects_second_topic():
    tracker = CoalitionTracker(w33_system(), (0,), 2, relay_metadata=True)
    tracker._topic_state("a")
    with pytest.raises(ValueError):
        tracker._topic_state("b")


def test_empirical_infer_transcript():
    gq = w33()
    sys_ = w33_system()
    u = sorted(gq.ball(5, 1))[2]
    tr = run_protocol(sys_, QueryWorkload(u, "topic", 4000, protocol=2), 77)
    part = analytic_single(gq, 5, 2)
    states = empirical_infer(tr, (5,), analytic=part)
    assert states["topic"].rounds_observed == 4000
    assert states["topic"].candidates == part.class_of(u)


_PROTOCOL_ENTRY_POINTS = {
    "QueryWorkload": lambda p: QueryWorkload(0, "t", 5, protocol=p),
    "CoalitionTracker": lambda p: CoalitionTracker(w33_system(), (0,), p),
    "analytic_coalition": lambda p: analytic_coalition(w33(), (0,), p),
    "empirical_infer": lambda p: empirical_infer(
        Transcript(w33_system(), p, None, (), {}), (0,)),
}


@pytest.mark.parametrize("entry", list(_PROTOCOL_ENTRY_POINTS))
@pytest.mark.parametrize("protocol", [True, 1.0, 2.0, "1", 0, 3,
                                      np.int64(2)])
def test_every_entry_point_takes_only_protocol_1_or_2(entry, protocol):
    """One check, for the int 1 or 2 alone: 1.0 used to fail inside
    run_protocol, and True and np.int64(2) to reach the sidecar, which
    read_transcript refuses with true and json.dump cannot write."""
    with pytest.raises(ValueError, match="^protocol must be 1 or 2, not "):
        _PROTOCOL_ENTRY_POINTS[entry](protocol)


def _w33_floors():
    """Partitions that do not belong to a protocol-2 run of observer 0 on
    W(3,3): another protocol, another observer, another geometry, and
    another geometry with as many users (Q(4,3), whose floor would never
    converge on W(3,3))."""
    gq = w33()
    return [analytic_single(gq, 0, 1), analytic_single(gq, 13, 2),
            analytic_single(get_gq("q4", 2), 0, 2),
            analytic_single(get_gq("q4", 3), 0, 2)]


@pytest.mark.parametrize("case", range(4),
                         ids=["protocol", "observer", "users", "structure"])
def test_tracker_rejects_a_floor_of_another_run(case):
    sys_ = w33_system()
    bad = _w33_floors()[case]
    with pytest.raises(ValueError, match="does not fit"):
        CoalitionTracker(sys_, (0,), 2, analytic=bad)
    with pytest.raises(ValueError, match="does not fit"):
        converge_topics(sys_, (0,), 2, {"t": 1}, 10_000, seed=1, analytic=bad)
    tr = run_protocol(sys_, QueryWorkload(1, "t", 20, protocol=2), 3)
    with pytest.raises(ValueError, match="does not fit"):
        empirical_infer(tr, (0,), analytic=bad)


def test_converge_topics_stops_at_its_own_floor():
    states = converge_topics(w33_system(), (0,), 2, {"t": 1}, 10_000, seed=1,
                             analytic=analytic_single(w33(), 0, 2))
    assert states["t"].converged and states["t"].rounds_observed == 83
    assert len(states["t"].candidates) == 27


def event_by_event_converge(system, coalition, protocol, topic_sources,
                            cap, seed, analytic=None, relay_metadata=False,
                            on_step=None, log=None):
    """converge_topics tracking event by event, without route tables: each
    query of the stream has its events built, and those of a query sees()
    admits are fed one by one through observe() until convergence, which is
    checked after each.  log gets each topic's whole stream, interned event
    by event."""
    out = {}
    topics = sorted(topic_sources)
    children = np.random.SeedSequence(seed).spawn(len(topics))
    for topic, child in zip(topics, children):
        source = topic_sources[topic]
        tracker = CoalitionTracker(system, coalition, protocol,
                                   analytic=analytic,
                                   relay_metadata=relay_metadata)
        workload = QueryWorkload(source, topic, cap, protocol=protocol)
        pairs, blocks = _draw_queries(system, workload,
                                      np.random.default_rng(child))
        events, rounds, converged = [], cap, False
        for qi, k in enumerate(np.concatenate(list(blocks)).tolist()):
            query = [TranscriptEvent(len(events) + j, *body, qi) for j, body
                     in enumerate(_query_bodies(workload, *pairs[k]))]
            events.extend(query)
            if converged or not tracker.sees(*pairs[k]):
                continue
            before = len(tracker.candidates(topic))
            tracker.feed(query)
            cand = tracker.candidates(topic)
            if on_step is not None and len(cand) != before:
                on_step(topic, qi + 1, cand)
            if tracker.converged(topic):
                rounds, converged = qi + 1, True
        out[topic] = CandidateState(topic, tracker.candidates(topic), rounds,
                                    converged, source)
        if log is not None:
            log(Transcript(system, protocol, seed, events, {topic: source}))
    return out


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@pytest.mark.parametrize("protocol,relay_metadata",
                         [(1, False), (1, True), (2, False), (2, True)])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_converge_topics_matches_event_by_event_tracking(
        tmp_path_factory, name, protocol, relay_metadata, data):
    """The route-table replay gives the states, on_step calls and log bytes
    of feeding every event of each seen query through observe()."""
    run = data.draw(tracking_runs(name, protocol, relay_metadata))
    cap = data.draw(st.sampled_from([run["cap"], 3000]))
    geom = GEOMETRIES[name]()
    system = UPIRSystem(geom.base)
    coalition = run["coalition"]
    analytic = (analytic_coalition(geom, coalition, protocol)
                if run["floor"] else None)
    out = tmp_path_factory.mktemp("tracking")
    results = []
    for converge in (converge_topics, event_by_event_converge):
        steps = []
        path = out / f"{converge.__name__}.jsonl"
        with _stream_writer(path) as append:
            states = converge(
                system, coalition, protocol, run["sources"], cap, run["seed"],
                analytic=analytic, relay_metadata=relay_metadata,
                on_step=lambda topic, rounds, cand: steps.append(
                    (topic, rounds, frozenset(cand))),
                log=append if run["log"] else None)
        results.append((states, steps, path.read_bytes()))
    assert results[0] == results[1]


def test_encrypted_floor_on_step_digest():
    """At encrypted-floor's inputs (bench/workloads.py, seed 1) the arrival
    rule fires once per topic; the digest pins the query at which it does,
    which the benchmark's check of the final classes cannot see."""
    gq = w33()
    rng = np.random.default_rng(1)
    far = sorted(gq.ball(0, 2))
    sources = {f"t{i:03d}": int(rng.choice(far)) for i in range(10)}
    steps = []
    states = converge_topics(
        w33_system(), (0,), 2, sources, 10_000, 1, analytic=None,
        on_step=lambda topic, rounds, cand: steps.append(
            (topic, rounds, len(cand))))
    assert all(st.rounds_observed == 10_000 and len(st.candidates) == 27
               for st in states.values())
    assert hashlib.sha256(repr(steps).encode()).hexdigest() == (
        "2b322f3322fa5d5a05ae918a411c90245603bcbf7be343c51ba14b77fa30e200")


def reference_infer(transcript, coalition, analytic=None,
                    relay_metadata=False):
    """empirical_infer feeding every event of the transcript to observe,
    with a state for every topic in the log and its own requests as its
    rounds."""
    tracker = CoalitionTracker(transcript.system, coalition,
                               transcript.protocol, analytic=analytic,
                               relay_metadata=relay_metadata)
    rounds = {}
    for ev in transcript.events:
        rounds[ev.topic] = rounds.get(ev.topic, 0) + (ev.kind == DB_REQUEST)
        tracker.observe(ev)
    return {t: CandidateState(t, tracker.candidates(t), rounds[t],
                              tracker.converged(t))
            for t in sorted(rounds)}


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@pytest.mark.parametrize("protocol,relay_metadata",
                         [(1, False), (1, True), (2, False), (2, True)])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_empirical_infer_matches_feeding_every_event(
        tmp_path_factory, name, protocol, relay_metadata, data):
    run = data.draw(tracking_runs(name, protocol, relay_metadata))
    geom = GEOMETRIES[name]()
    system = UPIRSystem(geom.base)
    coalition = run["coalition"]
    kwargs = {"relay_metadata": relay_metadata, "analytic":
              analytic_coalition(geom, coalition, protocol)
              if run["floor"] else None}
    streams = []
    converge_topics(system, coalition, protocol, run["sources"], run["cap"],
                    run["seed"], log=streams.append)
    log = joined(streams, truth=dict(run["sources"]))
    path = tmp_path_factory.mktemp("infer") / "log.jsonl"
    write_transcript(log, path)
    back = read_transcript(path, system)
    back.protocol = protocol
    for tr in log, back:
        assert (empirical_infer(tr, coalition, **kwargs)
                == reference_infer(tr, coalition, **kwargs))


def test_same_class_sources_indistinguishable():
    from scipy.stats import chi2_contingency

    gq = w33()
    sys_ = w33_system()
    c = 0
    part = analytic_single(gq, c, 1)
    cls = next(cl for cl in part.classes if len(cl) == 3)
    u1, u2 = sorted(cls)[:2]
    keys = set()
    counters = []
    for u, seed in ((u1, 201), (u2, 202)):
        tr = run_protocol(sys_, QueryWorkload(u, "t", 3000, protocol=1), seed)
        view = observer_view(tr, c)
        cnt = Counter((ve.kind, ve.space, ve.path) for ve in view)
        counters.append(cnt)
        keys |= set(cnt)
    table = [[cnt.get(k, 0) for k in sorted(keys, key=repr)] for cnt in counters]
    chi2, p, dof, _ = chi2_contingency(table)
    assert p > 0.01


# -- placement and sweeps --


def test_place_random_deterministic():
    gq = w33()
    a = place_coalition(gq, 3, "random", seed=12)
    b = place_coalition(gq, 3, "random", seed=12)
    assert a == b
    assert len(set(a)) == 3


def test_place_spread_pairwise_far():
    gq = w33()
    coll = [gq.ball(x, 1) for x in range(gq.n_points)]
    members = place_coalition(gq, 3, "spread", seed=4)
    assert len(set(members)) == 3
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            assert y not in coll[x]


def test_place_line_shape():
    gq = w33()
    members = place_coalition(gq, 4, "line", seed=0)
    assert len(set(members)) == 4
    with pytest.raises(ValueError):
        place_coalition(gq, 5, "line", seed=0)
    with pytest.raises(ValueError):
        place_coalition(gq, 2, "banana", seed=0)


def reference_place(geom, size, placement, seed):
    """place_coalition's spread and line rules as the set loops they
    replaced: spread maximises (distance to the nearest member, -id), and
    line takes the least neighbour off the block and not yet taken."""
    n = geom.n_points
    coll = [geom.ball(x, 1) for x in range(n)]
    if placement == "spread":
        chosen = [int(np.random.default_rng(seed).integers(n))]
        while len(chosen) < size:
            chosen.append(max(
                (u for u in range(n) if u not in chosen),
                key=lambda u: (min(1 if u in coll[v] else 2 for v in chosen), -u)))
        return tuple(sorted(chosen))
    blocks = geom.base.blocks
    block = blocks[int(np.random.default_rng(seed).integers(len(blocks)))]
    chosen, taken = [block[0]], set()
    for w in block[1:size]:
        y = min(coll[w] - set(block) - taken)
        taken.add(y)
        chosen.append(y)
    return tuple(sorted(chosen))


@pytest.mark.parametrize("geom", [w33, lambda: get_gq("q4", 3),
                                  lambda: get_plane(3)],
                         ids=["W(3,3)", "Q(4,3)", "PG(2,3)"])
def test_placement_matches_set_reference(geom):
    geom = geom()
    for seed in range(5):
        for size in 1, 2, 4:
            for placement in "spread", "line":
                assert (place_coalition(geom, size, placement, seed)
                        == reference_place(geom, size, placement, seed))
        assert (place_coalition(geom, 12, "spread", seed)
                == reference_place(geom, 12, "spread", seed))


def test_sweep_rows():
    geoms = [("w3", 3, w33()), ("q4", 3, get_gq("q4", 3))]
    rows = coalition_sweep(geoms, 2, (1, 2), ("random", "spread"), seed=1)
    assert len(rows) == 8
    for row in rows:
        assert row.protocol == 2
        assert row.n_users == 40
        assert len(row.coalition) == row.coalition_size
        assert row.residue == row.n_users - row.giant
        assert row.residue_bound == residue_bound(row.s, row.t, row.coalition_size)
        assert row.within_bound
        assert row.epsilon_star > 0.0


def test_residue_bound_value():
    assert residue_bound(3, 3, 2) == 2 * 12 + 4 * 4
