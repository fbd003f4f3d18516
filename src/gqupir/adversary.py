"""What honest-but-curious users can learn from relay traffic.

A coalition of users pools everything its members see: writes in their own
spaces, route metadata, and the queries they proxy themselves.  Topics act
as pseudonyms; the question is how far the coalition can narrow down which
user is behind a topic.

Analytic side: analytic_single and analytic_coalition compute, for a given
geometry and protocol, the partition of users into indistinguishability
classes (users in one class generate identically distributed views for the
coalition, so no amount of traffic separates them).  Each member c keys
every user by what c tells it apart by, c alone by a key of its own, and
users group by their keys under all members.  Encrypted protocol: the
block a user shares with c, or -1.  Plaintext protocol: a user collinear
with c by its id, a far user u by {c,u}^perp, its t+1 common neighbours
with c.  Far u, u' share a span with c exactly when these agree: u' in
{c,u}^perp^perp is not collinear with c (that would make a triangle with
t+1 >= 2 points on different blocks through c), so {c,u}^perp lies in
{c,u'}^perp, and both have t+1 points; the converse holds by definition.

security_margin boils a partition down to one number: with n users and a
largest class of size g, the margin is 1 - log_n(n - g); margin eps means
all but n^(1-eps) users sit together in the biggest class.

Empirical side: CoalitionTracker consumes transcript events, passes each
through upir.access (the one rule for what a member sees and reads), and
maintains, per topic, a candidate set of possible sources.  Every deduction
below is sound after every prefix of the stream except the encrypted
protocol's single-space rule, whose error bound is stated further down:

* a user id inside a route is a relay or proxy for that query, never its
  source, so it can be struck off;
* a write whose remaining route is as long as routes get was made by the
  source itself, so the source is a member of that space;
* the arrivals seen in a space get addressed, over time, to every member
  except exactly one (the member the source reaches that space through, or
  the source itself when it is a member); once the census is complete the
  missing member pins the source inside its closed neighbourhood.

Under the encrypted protocol relayed payloads are unreadable, so a member
learns topics only from queries it proxies itself.  The arrival spaces then
classify the source's distance: two distinct arrival spaces prove distance
two, and D1_MIN_ARRIVALS arrivals all through one space are taken to mean
the source shares that space.  That last rule is statistical: a distance-2
source reaches a member through t+1 equally likely spaces, so it is pinned
wrongly with probability (t+1)^-(D1_MIN_ARRIVALS-1) per member and topic
(4^-49 on W(3,3)).  The relay_metadata switch additionally attributes
unreadable route metadata to the topic under observation; that is only
valid when a single linked sequence is being tracked, so it stays off by
default.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .upir import (
    DB_REQUEST,
    WRITE_REQUEST,
    QueryWorkload,
    Transcript,
    _block_columns,
    _body_ids,
    _draw_queries,
    _gc_paused,
    access,
    iter_protocol_events,  # noqa: F401  (kept for bench/tracing.py to wrap)
)


class DegeneratePartition(Exception):
    """Every class is a singleton: the adversary resolves everyone, and a
    security margin is meaningless."""


@dataclass(frozen=True)
class PseudonymityPartition:
    """Indistinguishability classes of users, for a fixed observer set.
    structure is the IncidenceStructure the classes were computed on, or
    None where unknown; it takes no part in comparisons."""

    n_users: int
    classes: tuple
    observers: tuple
    protocol: int
    structure: object = field(default=None, compare=False, repr=False)

    def class_of(self, u):
        for cls in self.classes:
            if u in cls:
                return cls
        raise KeyError(u)

    def sizes(self):
        return tuple(sorted((len(c) for c in self.classes), reverse=True))

    def is_discrete(self):
        return all(len(c) == 1 for c in self.classes)

    def margin(self):
        """The SecurityMargin: largest class g, residue n - g, and
        epsilon* = 1 - log_n(residue); epsilon* is 1.0 for an empty residue
        and 0.0 when every class is a singleton."""
        n = self.n_users
        giant = max(len(c) for c in self.classes)
        residue = n - giant
        if giant <= 1:
            eps = 0.0
        elif residue == 0:
            eps = 1.0
        else:
            eps = 1.0 - math.log(residue) / math.log(n)
        return SecurityMargin(n, giant, residue, eps)


def _keys(geom, c, protocol):
    """Per user, its key under observer c (see the module docstring); a far
    user's common neighbours with c are its collinearity row restricted to
    the users collinear with c, as bytes."""
    n = geom.n_points
    if protocol == 2:
        keys = [-1] * n
        for m in geom.base.point_to_blocks[c]:
            for u in geom.base.blocks[m]:
                keys[u] = m
    else:
        coll = geom.base.collinearity()
        near = coll[c]
        perp = coll[:, near]
        keys = [u if near[u] else perp[u].tobytes() for u in range(n)]
    keys[c] = None
    return keys


def _partition(n, keys, observers, protocol, structure):
    """Group users 0..n-1 by their keys under every observer; users are
    visited in order, so classes come out in order of their least member."""
    by_key = {}
    for u, key in enumerate(zip(*keys)):
        by_key.setdefault(key, []).append(u)
    return PseudonymityPartition(n, tuple(map(frozenset, by_key.values())),
                                 tuple(sorted(set(observers))), protocol,
                                 structure)


def analytic_coalition(geom, coalition, protocol):
    """Best-possible inference for a coalition on a Geometry.  Plaintext
    protocol: users collinear with a member are resolved, the others up to
    their span with each member.  Encrypted protocol: users group by the
    spaces they share with each member, and those sharing none form one."""
    n = geom.n_points
    members = tuple(sorted(set(coalition)))
    if not members:
        raise ValueError("need at least one observer")
    for c in members:
        if not 0 <= c < n:
            raise ValueError(f"observer {c} out of range")
    if protocol not in (1, 2):
        raise ValueError("protocol must be 1 or 2")
    return _partition(n, [_keys(geom, c, protocol) for c in members], members,
                      protocol, geom.base)


def analytic_single(geom, observer, protocol):
    """analytic_coalition for the one observer."""
    return analytic_coalition(geom, (observer,), protocol)


def partition_meet(parts):
    """Common refinement: what observers deduce by pooling their views.
    Each part keys a user by the index of its class."""
    if not parts:
        raise ValueError("need at least one partition")
    n, protocol, structure = (parts[0].n_users, parts[0].protocol,
                              parts[0].structure)
    if any(p.n_users != n or p.protocol != protocol
           or p.structure != structure for p in parts):
        raise ValueError("partitions disagree on users, protocol or "
                         "structure")
    keys = []
    for p in parts:
        key = [0] * n
        for i, cls in enumerate(p.classes):
            for u in cls:
                key[u] = i
        keys.append(key)
    return _partition(n, keys, [c for p in parts for c in p.observers],
                      protocol, structure)


@dataclass(frozen=True)
class SecurityMargin:
    n_users: int
    giant: int
    residue: int
    epsilon_star: float


def security_margin(partition):
    """partition.margin(), refusing a partition whose classes are all
    singletons (the observers resolve everyone) with DegeneratePartition."""
    m = partition.margin()
    if m.giant <= 1:
        raise DegeneratePartition(
            f"all {m.n_users} classes are singletons; every user is resolved"
        )
    return m


def secure_at(partition, epsilon):
    """Is epsilon at most the partition's epsilon*?  Unless every class is a
    singleton, where epsilon* is 0, that is whether the residue (users
    outside the biggest class) is at most n^(1-epsilon)."""
    return epsilon <= partition.margin().epsilon_star + 1e-9


# -- empirical inference --


@dataclass(frozen=True)
class CandidateState:
    topic: str
    candidates: frozenset
    rounds_observed: int
    converged: bool
    source: int | None = None


class _TopicState:
    """A topic's candidates and the counts its rules read.  Counts only grow,
    so each rule fires once, as its count reaches its threshold."""

    __slots__ = ("cand", "census", "arrivals")

    def __init__(self, cand):
        self.cand = cand
        self.census = {}        # (member, space) -> addressees seen
        self.arrivals = {}      # member -> {space: request count}


class CoalitionTracker:
    """Per-topic candidate sets over a stream of transcript events.

    Feed raw events in order with observe(), which applies the one
    visibility rule, upir.access, for each member; sees() tells from a
    query's proxy and route alone whether observe() would act on any of its
    events, so a query it does not see need not be built or fed.  Tracked
    topics are assumed to originate outside the coalition (members already
    know their own).  An empty coalition, a member outside 0..n-1, or an
    analytic partition of other users, protocol or observers, or computed
    on a structure with other blocks, is a ValueError.

    The candidate set only ever shrinks.  The true source is never removed,
    with one bounded exception under the encrypted protocol: the
    single-space arrival rule (D1) pins a distance-2 source wrongly when its
    first D1_MIN_ARRIVALS arrivals at a member all come through one of its
    t+1 equally likely spaces, which happens with probability
    (t+1)^-(D1_MIN_ARRIVALS-1) per member and topic.

    converged(topic) reports whether the set has reached an
    indistinguishability class of the supplied analytic partition (or a
    singleton, when none is given); past that point no further shrinking is
    possible.  With relay_metadata the tracker holds one topic at most,
    and the relay metadata reaches it only at the first event whose payload
    a member reads, and then all at once: until then candidates() is every
    user outside the coalition and converged() is False, though the
    metadata state may already have shrunk.
    """

    D1_MIN_ARRIVALS = 50

    def __init__(self, system, coalition, protocol, analytic=None,
                 relay_metadata=False):
        if protocol not in (1, 2):
            raise ValueError("protocol must be 1 or 2")
        self.system = system
        self.coalition = tuple(sorted(set(coalition)))
        if not self.coalition:
            raise ValueError("coalition must have at least one member")
        for m in (self.coalition[0], self.coalition[-1]):
            if not 0 <= m < system.n_users:
                raise ValueError(f"coalition member {m} out of range")
        run = (system.n_users, protocol, self.coalition)
        floor = None if analytic is None else (
            analytic.n_users, analytic.protocol, analytic.observers)
        if floor not in (None, run):
            raise ValueError(f"analytic partition for (users, protocol, "
                             f"observers) {floor} does not fit {run}")
        if analytic is not None and analytic.structure not in (
                None, system.structure):
            raise ValueError("analytic partition computed on other blocks "
                             "does not fit the system's")
        self.protocol = protocol
        self.relay_metadata = relay_metadata
        self._class_set = None if analytic is None else set(analytic.classes)
        self._route_len = 2 * system.diameter() - 1
        self._members = system.structure.block_sets
        self._coll = system.structure.collinearity()
        self._initial = frozenset(range(system.n_users)) - set(self.coalition)
        self._proxy_only = protocol == 2 and not relay_metadata
        self._watched = frozenset(
            m for c in self.coalition for m in system.spaces_of(c))
        self._topics = {}
        # relay metadata names no topic: its rules update this state, which
        # becomes the topic's state when the topic is first read
        self._meta = _TopicState(set(self._initial)) if relay_metadata else None

    def candidates(self, topic):
        return frozenset(self._live(topic))

    def converged(self, topic):
        st = self._topics.get(topic)
        if st is None:
            return False
        if self._class_set is not None:
            return frozenset(st.cand) in self._class_set
        return len(st.cand) == 1

    def observe(self, event):
        """Pass the event to _ingest for each member that sees it, with
        whether it reads the payload, as upir.access decides.  Database
        calls (space None) name their proxy, never their source: they go,
        with writes in spaces no member holds, before the rule is asked."""
        if event.space not in self._watched:
            return
        for m in self.coalition:
            readable = access(self.system, m, event)
            if readable is not None:
                self._ingest(m, event, readable)

    def sees(self, proxy, route):
        """Whether observe() can act on any event of one query, given its
        proxy and its route as a pair of upir._draw_queries (None when the
        source proxied for itself).  A set-based shortcut derived from
        upir.access, asked once per distinct route of a block: database
        events never count, and a write counts for a member of its space
        when the member may read it or relay metadata is attributed.  So
        under protocol 1, or with relay_metadata, a query counts when some
        member lies in a space of its route; under protocol 2 without it,
        when a member is its proxy."""
        if self._proxy_only:
            return proxy in self.coalition
        return route is not None and not self._watched.isdisjoint(route[1::2])

    def feed(self, events):
        for ev in events:
            self.observe(ev)

    # internals

    def _live(self, topic):
        """The topic's candidate set itself, not a copy."""
        st = self._topics.get(topic)
        return self._initial if st is None else st.cand

    def _topic_state(self, topic):
        st = self._topics.get(topic)
        if st is None:
            if self.relay_metadata and self._topics:
                raise ValueError(
                    "metadata attribution assumes one topic; saw a second"
                )
            st = self._meta if self.relay_metadata else _TopicState(set(self._initial))
            self._topics[topic] = st
        return st

    def _ingest(self, m, event, readable):
        if not readable:
            if self.relay_metadata:
                self._route_rules(self._meta, m, event)
            return
        st = self._topic_state(event.topic)
        if self.protocol == 1:
            self._route_rules(st, m, event)
        else:
            # readable under encryption means m proxied this query itself
            if event.kind == WRITE_REQUEST and len(event.path) == 1:
                self._arrival_rules(st, m, event.space)

    def _route_rules(self, st, m, event):
        cand = st.cand
        route = event.path
        for x in route[0::2]:
            cand.discard(x)
        if len(route) == self._route_len:
            cand &= self._members[event.space]
        if len(route) == 1:
            seen = st.census.setdefault((m, event.space), set())
            if route[0] not in seen:
                seen.add(route[0])
                members = self._members[event.space]
                if len(seen) == len(members) - 1:
                    (missing,) = members - seen
                    # the source is missing or collinear with it (when
                    # missing is m, m itself is no candidate)
                    cand.intersection_update(
                        [missing, *np.flatnonzero(self._coll[missing]).tolist()])

    def _far_set(self, m):
        """The users at distance 2 or more from m."""
        return frozenset(np.flatnonzero(self.system.distances[m] >= 2).tolist())

    def _arrival_rules(self, st, m, space):
        arr = st.arrivals.setdefault(m, {})
        arr[space] = count = arr.get(space, 0) + 1
        if len(arr) == 2 and count == 1:
            # a shared-space source always arrives through that space, so a
            # second space is proof of distance two
            st.cand &= self._far_set(m)
        elif len(arr) == 1 and count == self.D1_MIN_ARRIVALS:
            # every arrival so far came through this one space
            st.cand &= self._members[space] - {m}


@_gc_paused
def converge_topics(system, coalition, protocol, topic_sources, queries_cap,
                    seed, analytic=None, relay_metadata=False, on_step=None,
                    log=None):
    """Run one workload per topic and track it to convergence or the cap.

    topic_sources maps topic -> source user, outside the coalition (a source
    inside it is a ValueError).  Each topic gets its own deterministic
    substream of the seed, so results do not depend on which other topics
    are present.  Queries come a block at a time from the draw-and-intern
    path of upir.run_protocol (NotDiameterBoundedError for protocol 2
    beyond distance 2).  The tracker is fed only the queries sees() admits;
    without a log any other query is skipped before it is interned, and
    drawing stops at most one block past convergence.  on_step, when given,
    is called after each query that changed the topic's candidate set, as
    on_step(topic, queries_so_far, candidates), with live tracker state to
    be read and not kept.  log, when given, is called as log(stream) once
    per topic, in sorted topic order, with a upir.Transcript of the topic's
    stream alone, numbered from seq 0 and query 0, run to the cap, and not
    referenced after the call.  Returns {topic: CandidateState}.  The whole
    run, on_step and log included, has the cyclic garbage collector paused
    (see upir._gc_paused).
    """
    inside = sorted(set(topic_sources.values()) & set(coalition))
    if inside:
        raise ValueError(f"source {inside[0]} is inside the coalition")
    out = {}
    topics = sorted(topic_sources)
    children = np.random.SeedSequence(seed).spawn(len(topics))
    for topic, child in zip(topics, children):
        source = topic_sources[topic]
        rng = np.random.default_rng(child)
        tracker = CoalitionTracker(system, coalition, protocol,
                                   analytic=analytic,
                                   relay_metadata=relay_metadata)
        workload = QueryWorkload(source, topic, queries_cap, protocol=protocol)
        done, rounds, converged = 0, queries_cap, False
        store = Transcript(system, protocol, seed, (), {topic: source})
        ids_of, logged = _body_ids(store, workload), []
        for pairs, inv in _draw_queries(system, workload, rng):
            if log is not None:
                logged.append(_block_columns([ids_of(*p) for p in pairs], inv))
            if not converged:
                seen = np.fromiter((tracker.sees(*p) for p in pairs), bool,
                                   len(pairs))[inv]
                at = np.flatnonzero(seen)
                for qi, k in zip(at.tolist(), inv[at].tolist()):
                    before = len(tracker._live(topic))
                    tracker.feed(map(store.bodies.__getitem__,
                                     ids_of(*pairs[k])))
                    cand = tracker._live(topic)
                    if on_step is not None and len(cand) != before:
                        on_step(topic, done + qi + 1, cand)
                    if tracker.converged(topic):
                        rounds = done + qi + 1
                        converged = True
                        break
            done += len(inv)
            if converged and log is None:
                break
        out[topic] = CandidateState(topic, tracker.candidates(topic), rounds,
                                    converged, source)
        if log is not None:
            store.extend(logged)
            log(store)
    return out


def empirical_infer(transcript, coalition, analytic=None, relay_metadata=False):
    """Batch inference over a finished transcript, with the transcript's
    protocol: a CandidateState for every topic in the log, whose
    rounds_observed are its database requests there; a topic the tracker
    never saw keeps every user outside the coalition, not converged.  Only
    the events in a space some member holds are fed to the tracker, as
    their bodies: observe() returns at once on any other."""
    protocol = transcript.protocol
    if protocol not in (1, 2):
        raise ValueError("transcript does not carry a valid protocol")
    tracker = CoalitionTracker(transcript.system, coalition, protocol,
                               analytic=analytic,
                               relay_metadata=relay_metadata)
    watched = transcript.body_mask(lambda b: b.space in tracker._watched)
    tracker.feed(map(transcript.bodies.__getitem__,
                     transcript.body[watched].tolist()))
    rounds = {}
    for b, count in zip(transcript.bodies, np.bincount(
            transcript.body, minlength=len(transcript.bodies)).tolist()):
        rounds[b.topic] = rounds.get(b.topic, 0) + count * (b.kind == DB_REQUEST)
    return {
        t: CandidateState(t, tracker.candidates(t), rounds[t], tracker.converged(t))
        for t in sorted(rounds)
    }


# -- coalition placement and sweeps --


def place_coalition(geom, size, placement, seed=0):
    """Choose coalition members on a geometry.

    random: uniform without replacement.  spread: greedy, each new member
    maximising its minimum distance to those already chosen (ties to the
    smallest id).  line: the first member plus, for following points of its
    space, one neighbour from outside that space apiece; such a coalition
    dominates the space, and under the encrypted protocol resolves every
    covered point, so size is capped at the space size.
    """
    n = geom.n_points
    if not 1 <= size <= n:
        raise ValueError(f"size {size} out of range")
    if placement == "random":
        rng = np.random.default_rng(seed)
        return tuple(sorted(int(x) for x in rng.choice(n, size, replace=False)))
    coll = geom.base.collinearity()
    if placement == "spread":
        rng = np.random.default_rng(seed)
        chosen = [int(rng.integers(n))]
        while len(chosen) < size:
            free = np.ones(n, bool)
            free[chosen] = False
            far = free & ~coll[chosen].any(0)
            chosen.append(int((far if far.any() else free).argmax()))
        return tuple(sorted(chosen))
    if placement == "line":
        blocks = geom.base.blocks
        block = blocks[int(np.random.default_rng(seed).integers(len(blocks)))]
        if size > len(block):
            raise ValueError(
                f"line placement holds at most {len(block)} members"
            )
        chosen = [block[0]]
        free = np.ones(n, bool)
        free[list(block)] = False
        for w in block[1:size]:
            y = int((coll[w] & free).argmax())
            free[y] = False
            chosen.append(y)
        return tuple(sorted(chosen))
    raise ValueError(f"unknown placement {placement!r}")


@dataclass(frozen=True)
class SweepRow:
    family: str
    q: int
    s: int
    t: int
    n_users: int
    protocol: int
    coalition_size: int
    placement: str
    coalition: tuple
    giant: int
    residue: int
    epsilon_star: float
    residue_bound: int
    within_bound: bool


def residue_bound(s, t, size):
    """Bound on the users outside the biggest class for a coalition of k =
    ``size`` members on a quadrangle of order (s, t), under protocol 2.

    Under protocol 2 the users collinear with no member form one class, so
    the residue is at most the union of the members' closed neighbourhoods,
    each of st + s + 1 users:

        residue <= k(st + s + 1) <= k(st + s) + k^2(t + 1),

    the right-hand side being the value returned.  Under protocol 1 spans
    split the far users and no such bound holds: on W(3,3) with observer 0
    the residue is 37, against a bound of 16.
    """
    return size * (s * t + s) + size * size * (t + 1)


def coalition_sweep(geoms, protocol, sizes, placements, seed=0):
    """Analytic margins across geometries, coalition sizes and placements.

    geoms is an iterable of (family, q, quadrangle Geometry).  Rows come out
    in the iteration order of the inputs; a fixed seed makes placements (and
    so the whole table) reproducible.
    """
    rows = []
    counter = 0
    for family, q, geom in geoms:
        for size in sizes:
            for placement in placements:
                coalition = place_coalition(geom, size, placement,
                                            seed=seed + counter)
                counter += 1
                m = analytic_coalition(geom, coalition, protocol).margin()
                bound = residue_bound(geom.s, geom.t, size)
                rows.append(SweepRow(
                    family, q, geom.s, geom.t, m.n_users, protocol, size,
                    placement, coalition, m.giant, m.residue, m.epsilon_star,
                    bound, m.residue <= bound,
                ))
    return rows
