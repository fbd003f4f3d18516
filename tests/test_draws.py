"""The query stream, version 2, against its documented calls.

A stream draws its queries in blocks of BLOCK: a block's k proxies by one
rng.integers(n, size=k) call, then, for each distinct route count w > 1
among those proxies in ascending order, the route picks of the block's
queries whose proxy has w routes by one rng.integers(w, size=m) call, in
query order; every other pick is 0.  reference_draws below makes exactly
those calls and places the picks in plain Python, and reference_events
builds each query's events from its pick among shortest_user_paths.  The
stream must give the same draws and events, and leave the caller's
Generator in the same state, whatever its bit generator.  The block
fixture also runs a test at smaller block sizes, against the reference at
the same size, so that every stream end meets a block edge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqupir import upir
from gqupir.geometry import IncidenceStructure
from gqupir.upir import (
    ALL_READERS,
    DB_REQUEST,
    DB_RESPONSE,
    PROXY_ONLY,
    WRITE_REQUEST,
    WRITE_RESPONSE,
    QueryWorkload,
    TranscriptEvent,
    UPIRSystem,
    _draw_queries,
    _draws,
    _routes_from,
    iter_protocol_events,
    run_protocol,
)

from conftest import get_gq, get_plane

# queries per block: part of the stream, so not a tuning knob
BLOCK = 4096

SYSTEMS = {
    "w3-3": lambda: UPIRSystem(get_gq("w3", 3).base),
    "q4-3": lambda: UPIRSystem(get_gq("q4", 3).base),
    "pg2-3": lambda: UPIRSystem(get_plane(3).base),
}


def hexagon():
    """A cycle of six users: opposite users are 3 apart, with two routes."""
    return UPIRSystem(
        IncidenceStructure(6, [(i, (i + 1) % 6) for i in range(6)]))


def reference_draws(rng, count, n, bounds, size=BLOCK):
    """Each query's proxy and pick as lists, drawn by the documented calls
    in blocks of size queries; bounds[v] is proxy v's route count."""
    proxies, picks = [], []
    for start in range(0, count, size):
        block = rng.integers(n, size=min(size, count - start)).tolist()
        pick = [0] * len(block)
        for w in sorted({int(bounds[v]) for v in block} - {1}):
            at = [i for i, v in enumerate(block) if bounds[v] == w]
            for i, x in zip(at, rng.integers(w, size=len(at)).tolist()):
                pick[i] = x
        proxies += block
        picks += pick
    return proxies, picks


def reference_events(system, workload, rng, size=BLOCK):
    """The events of one workload, its queries drawn by reference_draws
    in blocks of size over the routes shortest_user_paths gives, built one
    by one."""
    u = workload.source
    if not 0 <= u < system.n_users:
        raise ValueError(f"source {u} out of range")
    routes = [None if v == u else system.shortest_user_paths(u, v)
              for v in range(system.n_users)]
    bounds = [1 if r is None else len(r) for r in routes]
    vis = ALL_READERS if workload.protocol == 1 else PROXY_ONLY
    topic = workload.topic
    seq = 0
    for qi, (v, pick) in enumerate(zip(*reference_draws(
            rng, workload.count, system.n_users, bounds, size))):
        if v != u:
            path = routes[v][pick]
            nodes = path[0::2]
            spaces = path[1::2]
            for j, m in enumerate(spaces):
                yield TranscriptEvent(seq, WRITE_REQUEST, m, path[2 * j + 2:],
                                      v, topic, vis, nodes[j], qi)
                seq += 1
        yield TranscriptEvent(seq, DB_REQUEST, None, (), v, topic, ALL_READERS,
                              v, qi)
        seq += 1
        yield TranscriptEvent(seq, DB_RESPONSE, None, (), v, topic, ALL_READERS,
                              v, qi)
        seq += 1
        if v != u:
            for j in reversed(range(len(spaces))):
                yield TranscriptEvent(seq, WRITE_RESPONSE, spaces[j],
                                      path[2 * j + 2:], v, topic, vis,
                                      nodes[j + 1], qi)
                seq += 1


def assert_draws_match(seed, count, bounds, size=BLOCK):
    """_draws and reference_draws, both in blocks of size, agree from one
    seed over proxies 0..len(bounds)-1 and leave equal Generator states;
    returns _draws' Generator."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    blocks = list(_draws(ours, count, len(bounds), np.asarray(bounds)))
    assert [len(p) for p, _ in blocks] == [
        min(size, count - a) for a in range(0, count, size)]
    assert all(p.dtype == r.dtype == np.int64 for p, r in blocks)
    assert (np.concatenate([p for p, _ in blocks]).tolist(),
            np.concatenate([r for _, r in blocks]).tolist()) == (
        reference_draws(theirs, count, len(bounds), bounds, size))
    assert ours.bit_generator.state == theirs.bit_generator.state
    return ours


def test_block_size_is_the_documented_one():
    assert upir._BLOCK == BLOCK and upir.QUERY_STREAM == 2


# block sizes at which one query, two, three and a handful meet every block
# edge, and the stream's own
BLOCKS = [1, 2, 3, 16, BLOCK]


@pytest.fixture(params=BLOCKS, ids=lambda b: f"block{b}")
def block(request, monkeypatch):
    """Runs the test with _draws' block size set to each of BLOCKS."""
    monkeypatch.setattr(upir, "_BLOCK", request.param)
    return request.param


# route counts from one (no pick drawn) to just below 2**32
BOUNDS = (1, 2, 3, 40, 156, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_bounded_draws_match_reference(bound, seed, block):
    count = min(3000, 40 * block)
    # bound as the number of proxies, each with one route; _draws reads
    # every proxy's count, so only the small bounds are drawn this way
    if bound <= 156:
        ours = assert_draws_match(seed, count, (1,) * bound, block)
        if bound == 1:  # one proxy and no picks: nothing is drawn
            assert (ours.bit_generator.state
                    == np.random.default_rng(seed).bit_generator.state)
    # bound as the route count of proxy 1 of 3
    assert_draws_match(seed, count, (1, bound, 1), block)


@pytest.mark.parametrize("seed", [0, 99])
def test_bounded_draws_mix_bounds_on_one_stream(seed, block):
    # one proxy per bound over three blocks and a part, then the bounds in
    # another order with repeats over two whole blocks
    assert_draws_match(seed, 3 * block + 5, BOUNDS, block)
    assert_draws_match(seed, 2 * block, (40, 1, 3, 40, 2, 1, 3, 2**31 + 1),
                       block)
    # no proxy has more than one route: one call per block and no other
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    list(_draws(ours, block + 1, 7, np.ones(7, np.int64)))
    theirs.integers(7, size=block)
    theirs.integers(7, size=1)
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK + 1])
@pytest.mark.parametrize("build,source", [(hexagon, 0), (SYSTEMS["w3-3"], 3)],
                         ids=["hexagon", "W(3,3)"])
def test_draws_at_block_edges(build, source, count):
    # from user 0 of the hexagon only user 3 has two routes; on W(3,3) the
    # 27 users beyond a line of the source have four
    system = build()
    workload = QueryWorkload(source, "t", count, protocol=1)
    ours, theirs = np.random.default_rng(count), np.random.default_rng(count)
    _, blocks = _draw_queries(system, workload, np.random.default_rng(count))
    assert [len(k) for k in blocks] == [
        min(BLOCK, count - a) for a in range(0, count, BLOCK)]
    assert run_protocol(system, workload, ours).events == list(
        reference_events(system, workload, theirs))
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("name,protocol", [
    (name, protocol) for name in sorted(SYSTEMS) for protocol in (1, 2)]
    + [("hexagon", 1)])
def test_run_protocol_matches_reference_at_each_block_size(name, protocol,
                                                           block):
    # whole blocks and a part at the small sizes, a block and a part at the
    # stream's own; the hexagon, 3 across, has no protocol 2
    system = SYSTEMS[name]() if name in SYSTEMS else hexagon()
    workload = QueryWorkload(0 if name == "hexagon" else 3, "t",
                             min(3 * block + 2, 5000), protocol=protocol)
    ours, theirs = np.random.default_rng(block), np.random.default_rng(block)
    assert run_protocol(system, workload, ours).events == list(
        reference_events(system, workload, theirs, block))
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("bit_generator", [
    np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_other_bit_generators_end_in_the_reference_state(bit_generator):
    system = SYSTEMS["w3-3"]()
    workload = QueryWorkload(3, "t", 5000, protocol=1)
    ours = np.random.Generator(bit_generator(8))
    theirs = np.random.Generator(bit_generator(8))
    for rng in (ours, theirs):  # part-way, with a half-word left over
        rng.integers(0, 2**32, size=3, dtype=np.uint32)
    transcript = run_protocol(system, workload, ours)
    assert transcript.events == list(reference_events(system, workload, theirs))
    # some states hold arrays, which dict equality cannot compare
    np.testing.assert_equal(ours.bit_generator.state,
                            theirs.bit_generator.state)


@pytest.mark.parametrize("name", sorted(SYSTEMS) + ["hexagon"])
def test_route_counts_match_the_routes(name):
    system = SYSTEMS[name]() if name in SYSTEMS else hexagon()
    n = system.n_users
    for u in range(n):
        counts = _routes_from(system, u)[2].tolist()
        assert counts[u] == 1
        assert counts[:u] + counts[u + 1:] == [
            len(system.shortest_user_paths(u, v)) for v in range(n) if v != u]
    if name == "hexagon":
        assert _routes_from(system, 0)[2].tolist() == [1, 1, 1, 2, 1, 1]


def route_table(system, u):
    """_routes_from(system, u) as one list of routes per target."""
    routes, first, counts = _routes_from(system, u)
    assert counts.dtype == np.int64 and counts[u] == 1
    assert first.tolist() == [0, *np.cumsum(counts)[:-1].tolist()]
    assert len(routes) == counts.sum()
    return [routes[a:a + c] for a, c in zip(first.tolist(), counts.tolist())]


def per_pair_routes(system, u, targets):
    return [[None] if v == u else list(system.shortest_user_paths(u, v))
            for v in targets]


@pytest.mark.parametrize("build", [
    lambda: UPIRSystem(get_gq("w3", 2).base),
    SYSTEMS["w3-3"],
    lambda: UPIRSystem(get_gq("q4", 2).base),
    SYSTEMS["pg2-3"],
    hexagon,
], ids=["W(3,2)", "W(3,3)", "Q(4,2)", "PG(2,3)", "hexagon"])
def test_route_table_matches_the_per_pair_routes(build):
    system = build()
    users = range(system.n_users)
    for u in users:
        assert route_table(system, u) == per_pair_routes(system, u, users)


def test_route_table_on_a_long_chain():
    # 300 users in a chain of two-point blocks, block x joining users x and
    # x + 1: one route per pair, up to 299 hops, a slice of the walk
    # 0, 0, 1, 1, ..., 298, 299 or its reverse.  The per-pair builder
    # makes a numpy pass per ring, so it is checked from three sources.
    system = UPIRSystem(
        IncidenceStructure(300, [(x, x + 1) for x in range(299)]))
    users = range(300)
    walk = tuple(k // 2 for k in range(599))
    for u in users:
        assert route_table(system, u) == [
            [None] if v == u else
            [walk[2 * u:2 * v + 1] if u < v else walk[2 * v:2 * u + 1][::-1]]
            for v in users]
    for u in (0, 150, 299):
        assert route_table(system, u) == per_pair_routes(system, u, users)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(SYSTEMS)),
    protocol=st.sampled_from([1, 2]),
    source=st.integers(0, 12),
    count=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    before=st.integers(0, 5),
)
def test_run_protocol_matches_reference(name, protocol, source, count,
                                        seed, before):
    system = SYSTEMS[name]()
    workload = QueryWorkload(source, "t", count, protocol=protocol)
    # a caller's Generator, already part-way through its stream, ends in
    # the same state as after the reference draws
    ours = np.random.default_rng(seed)
    theirs = np.random.default_rng(seed)
    ours.integers(40, size=before)
    theirs.integers(40, size=before)
    transcript = run_protocol(system, workload, ours)
    assert transcript.events == list(reference_events(system, workload, theirs))
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert ours.integers(2**62) == theirs.integers(2**62)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_iter_protocol_events_matches_reference_for_every_source(name):
    system = SYSTEMS[name]()
    for source in range(system.n_users):
        workload = QueryWorkload(source, "t", 50, protocol=2)
        ours = np.random.default_rng(source)
        theirs = np.random.default_rng(source)
        assert (list(iter_protocol_events(system, workload, ours))
                == list(reference_events(system, workload, theirs)))
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("source", [-1, 40])
def test_source_out_of_range_rejected(source):
    workload = QueryWorkload(source, "t", 5)
    with pytest.raises(ValueError, match="out of range"):
        list(iter_protocol_events(SYSTEMS["w3-3"](), workload,
                                  np.random.default_rng(0)))
