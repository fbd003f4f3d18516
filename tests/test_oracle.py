"""An exact oracle for the analytic coalition partitions.

Queries are i.i.d., so two sources are indistinguishable for any amount of
traffic exactly when one query of each gives the coalition identically
distributed observations.  exact_partition enumerates every outcome of one
query with its exact weight and maps it through upir.access, the rule the
tracker and the observer views apply, so the oracle shares no code with
analytic_coalition beyond the events themselves.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqupir.adversary import analytic_coalition, place_coalition
from gqupir.upir import (
    QueryWorkload,
    TranscriptEvent,
    UPIRSystem,
    _query_bodies,
    access,
)

from conftest import get_gq, get_plane


def exact_partition(geom, coalition, protocol):
    """The indistinguishability classes of the sources outside the
    coalition under readable linkage: a member's observation of a query is
    what it reads the payload of, as (member, kind, space, path, proxy) in
    event order, with seq dropped.  Route metadata a member sees but cannot
    read is not tied to the topic, so it does not count.

    The proxy is uniform over the n users (weight 1/n) and the route uniform
    over shortest_user_paths; a self-proxied query has no route."""
    system = UPIRSystem(geom.base)
    n = system.n_users
    members = sorted(set(coalition))
    by_dist = {}
    for u in range(n):
        if u in members:
            continue
        workload = QueryWorkload(u, "t", 1, protocol=protocol)
        dist = Counter()
        for v in range(n):
            routes = (None,) if v == u else system.shortest_user_paths(u, v)
            weight = Fraction(1, n * len(routes))
            for route in routes:
                obs = tuple(
                    (m, ev.kind, ev.space, ev.path, ev.proxy)
                    for ev in (TranscriptEvent(-1, *body, -1) for body in
                               _query_bodies(workload, v, route))
                    for m in members if access(system, m, ev))
                dist[obs] += weight
        by_dist.setdefault(frozenset(dist.items()), set()).add(u)
    return {frozenset(cls) for cls in by_dist.values()}


def analytic_outside(geom, coalition, protocol):
    """analytic_coalition's classes with the coalition's members left out."""
    part = analytic_coalition(geom, coalition, protocol)
    outside = {cls - set(coalition) for cls in part.classes}
    return outside - {frozenset()}


def assert_oracle_agrees(geom, coalition, protocol):
    exact = exact_partition(geom, coalition, protocol)
    analytic = analytic_outside(geom, coalition, protocol)
    assert exact == analytic, (
        f"coalition {coalition}, protocol {protocol}: exact class sizes "
        f"{sorted(map(len, exact))}, analytic {sorted(map(len, analytic))}")


GEOMETRIES = {
    "w3 q=2": lambda: get_gq("w3", 2),
    "q4 q=2": lambda: get_gq("q4", 2),
    "w3 q=3": lambda: get_gq("w3", 3),
    "q4 q=3": lambda: get_gq("q4", 3),
    "pg2 q=2": lambda: get_plane(2),
    "pg2 q=3": lambda: get_plane(3),
    "pg2 q=4": lambda: get_plane(4),
}


@st.composite
def oracle_cases(draw):
    geom = GEOMETRIES[draw(st.sampled_from(sorted(GEOMETRIES)))]()
    size = draw(st.integers(1, 5))
    coalition = draw(st.lists(st.integers(0, geom.n_points - 1),
                              min_size=size, max_size=size, unique=True))
    protocol = draw(st.sampled_from((1, 2)))
    return geom, tuple(sorted(coalition)), protocol


@settings(max_examples=30, deadline=None)
@given(case=oracle_cases())
def test_exact_oracle_matches_analytic_coalition(case):
    assert_oracle_agrees(*case)


@pytest.mark.parametrize("family,size,placement,protocol", [
    ("w3", 1, "random", 2),
    ("q4", 3, "spread", 1),
    ("w3", 5, "line", 2),
])
def test_exact_oracle_matches_analytic_on_order_four(family, size, placement,
                                                     protocol):
    # n = 85: about a second each
    geom = get_gq(family, 4)
    coalition = place_coalition(geom, size, placement, seed=3)
    assert_oracle_agrees(geom, coalition, protocol)


def test_exact_oracle_separates_what_it_should():
    # one observer on W(3,3) under encryption: the 27 users sharing no
    # space with it form one class, and each of its 4 spaces holds a class
    # of 3; a readable-linkage oracle that lumped everyone together, or
    # split everyone apart, would fail here
    gq = get_gq("w3", 3)
    sizes = sorted(map(len, exact_partition(gq, (7,), 2)))
    assert sizes == [3, 3, 3, 3, 27]
    # the plaintext protocol on a plane resolves every user
    plane = get_plane(3)
    assert all(len(c) == 1 for c in exact_partition(plane, (0,), 1))
