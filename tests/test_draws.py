"""Block-drawn queries against numpy's scalar draws.

The query stream takes raw uint32 values in blocks and maps them to bounded
draws itself, a block at a time in numpy.  These tests hold it to the scalar
Generator.integers calls it replaces: the same values, the same events, and
the same Generator state afterwards.  reference_events below is the
scalar-draw event generator the stream replaced, kept as the reference, and
scalar_draws the scalar form of the stream's core, _draws.  Neither the
block size nor the caller's bit generator may change any of it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqupir import upir
from gqupir.adversary import converge_topics
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
    _draws,
    _routes_from,
    iter_protocol_events,
    run_protocol,
)

from conftest import get_gq, get_plane, joined

SYSTEMS = {
    "w3-3": lambda: UPIRSystem(get_gq("w3", 3).base),
    "q4-3": lambda: UPIRSystem(get_gq("q4", 3).base),
    "pg2-3": lambda: UPIRSystem(get_plane(3).base),
}


def hexagon():
    """A cycle of six users: opposite users are 3 apart, with two routes."""
    return UPIRSystem(
        IncidenceStructure(6, [(i, (i + 1) % 6) for i in range(6)]))


def reference_events(system, workload, rng):
    """The events of one workload, drawing the proxy and the route with one
    scalar rng.integers call each."""
    u = workload.source
    if not 0 <= u < system.n_users:
        raise ValueError(f"source {u} out of range")
    vis = ALL_READERS if workload.protocol == 1 else PROXY_ONLY
    topic = workload.topic
    seq = 0
    for qi in range(workload.count):
        v = int(rng.integers(system.n_users))
        if v != u:
            paths = system.shortest_user_paths(u, v)
            path = paths[int(rng.integers(len(paths)))]
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


def raw_state_after(seed, k):
    """The Generator state after exactly k raw uint32 values."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 2**32, size=k, dtype=np.uint32)
    return rng.bit_generator.state


def scalar_draws(rng, count, n, bounds):
    """What _draws yields, drawn by scalar calls: per query the proxy
    rng.integers(n), then the route index rng.integers(bounds[proxy])."""
    proxies, picks = [], []
    for _ in range(count):
        v = int(rng.integers(n))
        proxies.append(v)
        picks.append(int(rng.integers(int(bounds[v]))))
    return proxies, picks


def block_draws(rng, count, n, bounds):
    """_draws' blocks joined into lists."""
    blocks = list(_draws(rng, count, n, np.asarray(bounds, np.uint64)))
    return (np.concatenate([p for p, _ in blocks]).tolist(),
            np.concatenate([r for _, r in blocks]).tolist())


def assert_draws_match(start, count, n, bounds):
    """_draws and scalar_draws agree from start, a seed or a Generator
    state, and leave equal Generator states; returns the scalar side."""
    seed = start if isinstance(start, int) else 0
    scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
    if not isinstance(start, int):
        scalar.bit_generator.state = batched.bit_generator.state = start
    want = scalar_draws(scalar, count, n, bounds)
    assert block_draws(batched, count, n, bounds) == want
    assert batched.bit_generator.state == scalar.bit_generator.state
    return scalar


# 2**31 + 1 and 3 * 2**30 + 1 reject about half and a quarter of the raw
# values; 2**32 - 1 rejects only the value 0
BOUNDS = (1, 2, 3, 40, 156, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1)


def as_proxy(bound):
    """(n, bounds) making every draw a proxy draw below bound; the bounds
    array is a zero-stride view, so a bound near 2**32 costs no memory."""
    return bound, np.broadcast_to(np.uint64(1), (bound,))


def as_route(bound):
    """(n, bounds) with three proxies, of which proxy 1 is followed by a
    route draw below bound."""
    return 3, (1, bound, 1)


# (first, full) block sizes that put every role and every stream end at a
# block edge, with and without doubling, and the default
BLOCKS = [(1, 1), (1, 3), (3, 3), (2, 16), (upir._FIRST, upir._BLOCK)]


@pytest.fixture(params=BLOCKS, ids=lambda b: f"first{b[0]}-full{b[1]}")
def block(request, monkeypatch):
    """Runs the test under each of BLOCKS: _draws' first and full block."""
    monkeypatch.setattr(upir, "_FIRST", request.param[0])
    monkeypatch.setattr(upir, "_BLOCK", request.param[1])
    return request.param


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_bounded_draws_match_scalar_integers(bound, seed, block):
    count = min(3000, 40 * block[1])
    scalar = assert_draws_match(seed, count, *as_proxy(bound))
    assert_draws_match(seed, count, *as_route(bound))
    if bound == 1:
        assert scalar.bit_generator.state == raw_state_after(seed, 0)
    if bound in (2**31 + 1, 3 * 2**30 + 1):  # some values were rejected
        assert scalar.bit_generator.state != raw_state_after(seed, count)


_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1


def planted(values):
    """A PCG64 state whose first raw uint32 values are the three given.  The
    buffered half-word gives the first; the second and third are the low
    and high halves of the next 64-bit output, which is the XSL-RR output
    of the state after one step, so that state is built for it and stepped
    back."""
    first, low, high = values
    out = high << 32 | low
    rot = 5  # any rotation: it is the state's top six bits
    hi = rot << 58 | 0x123456789AB
    lo = hi ^ ((out << rot | out >> (64 - rot)) & _MASK64)
    state = np.random.default_rng(5).bit_generator.state
    inc = state["state"]["inc"]
    after = hi << 64 | lo
    before = (after - inc) * pow(_PCG_MULT, -1, 1 << 128) % (1 << 128)
    state["state"]["state"] = before
    state.update(has_uint32=1, uinteger=first)
    check = np.random.default_rng(0)
    check.bit_generator.state = state
    assert check.integers(0, 2**32, size=3, dtype=np.uint32).tolist() == list(
        values)
    return state


@pytest.mark.parametrize("bound", [b for b in BOUNDS if b % 2 == 1 and b > 1])
@pytest.mark.parametrize("offset", [0, -1])
def test_bounded_draws_at_the_rejection_threshold(bound, offset, block):
    # a raw value whose low product word is exactly the threshold (kept) or
    # one below it (rejected), planted as a proxy draw and as a route draw
    threshold = (2**32 - bound) % bound
    raw = (threshold + offset) * pow(bound, -1, 2**32) % 2**32
    assert_draws_match(planted((raw, 1, 2)), 4, *as_proxy(bound))
    # the first value, 2**31, draws proxy 1 of 3; the route draw follows
    assert_draws_match(planted((2**31, raw, 7)), 4, *as_route(bound))


def test_bounded_draws_mix_bounds_on_one_stream(block):
    # one proxy per bound, each followed by a route draw below it; a route
    # draw often waits at the end of a block
    count = min(2000, 40 * block[1])
    bounds = np.array(BOUNDS, np.uint64)
    assert_draws_match(99, count, len(bounds), bounds)
    # rejection-heavy proxy and route draws, one after the other
    assert_draws_match(99, count, 2**31 + 1,
                       np.broadcast_to(np.uint64(3 * 2**30 + 1), (2**31 + 1,)))


def test_draws_at_block_edges(block):
    # from user 0 of the hexagon only user 3 has two routes; its route draw
    # waits at a block end whenever its proxy draw ends a block
    assert_draws_match(5, 300, 6, _routes_from(hexagon(), 0)[2])
    # bound 40 rejects none of these values, so one query takes one value
    # and the stream fills its first, then its second block exactly
    first, full = block
    for count in (first, first + min(2 * first, full)):
        scalar = assert_draws_match(11, count, *as_proxy(40))
        assert scalar.bit_generator.state == raw_state_after(11, count)


def converge_with_steps(log):
    """converge_topics on W(3,3) under protocol 1, with the on_step calls
    it made; every topic converges within 50 of its 200 queries."""
    steps = []
    states = converge_topics(
        SYSTEMS["w3-3"](), (0, 13), 1, {"a": 5, "b": 22, "c": 31}, 200,
        seed=4, log=log, on_step=lambda topic, rounds, cand: steps.append(
            (topic, rounds, frozenset(cand))))
    return states, steps


@pytest.fixture(scope="module")
def converged():
    """converge_with_steps with and without a log, at a block size outside
    BLOCKS."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(upir, "_FIRST", 500)
        mp.setattr(upir, "_BLOCK", 500)
        streams = []
        return (converge_with_steps(None), converge_with_steps(streams.append),
                joined(streams).events)


def test_block_size_does_not_change_convergence(converged, block):
    plain, logged, events = converged
    assert all(st.converged and st.rounds_observed < 50
               for st in plain[0].values())
    assert converge_with_steps(None) == plain
    streams = []
    assert converge_with_steps(streams.append) == logged == plain
    assert joined(streams).events == events


@pytest.mark.parametrize("bit_generator", [
    np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_other_bit_generators_end_in_the_scalar_state(bit_generator):
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
    assert counts.dtype == np.uint64 and counts[u] == 1
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
def test_run_protocol_matches_scalar_reference(name, protocol, source, count,
                                               seed, before):
    system = SYSTEMS[name]()
    workload = QueryWorkload(source, "t", count, protocol=protocol)
    # a caller's Generator, already part-way through its stream, ends in
    # the same state as after the scalar draws
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
