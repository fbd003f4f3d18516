"""Block-drawn queries against numpy's scalar draws.

The query stream takes raw uint32 values in blocks and maps them to bounded
draws itself.  These tests hold it to the scalar Generator.integers calls it
replaces: the same values, the same events, and the same Generator state
afterwards.  reference_events below is the scalar-draw event generator the
stream replaced, kept as the reference.
"""

import numpy as np
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
    TranscriptEvent,
    UPIRSystem,
    _bounded_draws,
    iter_protocol_events,
    run_protocol,
)

from conftest import get_gq, get_plane

SYSTEMS = {
    "w3-3": lambda: UPIRSystem(get_gq("w3", 3).base),
    "q4-3": lambda: UPIRSystem(get_gq("q4", 3).base),
    "pg2-3": lambda: UPIRSystem(get_plane(3).base),
}


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


# 2**31 + 1 and 3 * 2**30 + 1 reject about half and a quarter of the raw
# values; 2**32 - 1 rejects only the value 0
BOUNDS = (1, 2, 3, 40, 156, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_bounded_draws_match_scalar_integers(bound, seed):
    count = 3000
    scalar = np.random.default_rng(seed)
    want = [int(scalar.integers(bound)) for _ in range(count)]
    batched = np.random.default_rng(seed)
    below = _bounded_draws(batched)
    # each draw with bound > 1 consumes at least one value, so the draws
    # left bound the values left
    got = [below(bound, count - i) for i in range(count)]
    assert got == want
    assert batched.bit_generator.state == scalar.bit_generator.state
    if bound == 1:
        assert scalar.bit_generator.state == raw_state_after(seed, 0)
    if bound in (2**31 + 1, 3 * 2**30 + 1):  # some values were rejected
        assert scalar.bit_generator.state != raw_state_after(seed, count)


@pytest.mark.parametrize("bound", [b for b in BOUNDS if b % 2 == 1 and b > 1])
@pytest.mark.parametrize("offset", [0, -1])
def test_bounded_draws_at_the_rejection_threshold(bound, offset):
    # PCG64 hands out a buffered half-word first, so the state can plant
    # the first raw value: one whose low product word is exactly the
    # threshold (kept) or one below it (rejected)
    threshold = (2**32 - bound) % bound
    raw = (threshold + offset) * pow(bound, -1, 2**32) % 2**32
    state = np.random.default_rng(5).bit_generator.state
    state.update(has_uint32=1, uinteger=raw)
    scalar = np.random.default_rng(5)
    batched = np.random.default_rng(5)
    scalar.bit_generator.state = state
    batched.bit_generator.state = state
    below = _bounded_draws(batched)
    assert [below(bound, 4 - i) for i in range(4)] == [
        int(scalar.integers(bound)) for _ in range(4)]
    assert batched.bit_generator.state == scalar.bit_generator.state


def test_bounded_draws_mix_bounds_on_one_stream():
    scalar = np.random.default_rng(99)
    batched = np.random.default_rng(99)
    below = _bounded_draws(batched)
    bounds = [BOUNDS[i % len(BOUNDS)] for i in range(2000)]
    got = [below(b, len(bounds) - i) for i, b in enumerate(bounds)]
    assert got == [int(scalar.integers(b)) for b in bounds]
    assert batched.bit_generator.state == scalar.bit_generator.state


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
