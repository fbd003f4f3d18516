"""User-private information retrieval on an incidence structure.

Users are the points, message spaces the blocks.  A user can read and write
a space exactly when incident with it.  Queries to the database are proxied:
the source picks a proxy uniformly from all users (itself included) and, if
the proxy is someone else, relays the request along a uniformly chosen
shortest path of alternating users and spaces.

Two request disciplines are simulated:

* protocol 1 writes everything in the clear: any reader of a space sees the
  request payload and the remaining route.
* protocol 2 models encrypting the payload under the proxy's public key:
  relays still see route metadata, but only the addressed proxy can read the
  payload (and so link the request to its topic).  It needs every user pair
  within distance 2.

Transcripts record one event per write or database call, in order.  The
ground-truth map (topic -> source) and the writer of each event live outside
the event log proper: observer views never include them, and the on-disk
format keeps ground truth in a separate sidecar file.
"""

import json
from dataclasses import dataclass

import numpy as np

WRITE_REQUEST = "write_request"
WRITE_RESPONSE = "write_response"
DB_REQUEST = "db_request"
DB_RESPONSE = "db_response"

ALL_READERS = "all_readers"
PROXY_ONLY = "proxy_only"


class DisconnectedError(Exception):
    """The structure is not connected; carries a witness user pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotDiameterBoundedError(Exception):
    """Protocol 2 needs every user pair within distance 2."""


class UPIRSystem:
    """A connected incidence structure viewed as a messaging system."""

    def __init__(self, structure):
        self.structure = structure
        self.n_users = structure.n_points
        self.n_spaces = structure.n_blocks
        self._members = structure.blocks
        self._spaces_of = structure.point_to_blocks
        self._neighbors = structure.collinearity()
        self._dist_rows = {}
        self._paths = {}
        self._diameter = None
        self._check_connected()

    def _check_connected(self):
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self._neighbors[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        if len(seen) != self.n_users:
            missing = next(u for u in range(self.n_users) if u not in seen)
            raise DisconnectedError(
                f"users 0 and {missing} cannot reach each other", (0, missing)
            )

    def members(self, space):
        return self._members[space]

    def spaces_of(self, user):
        return self._spaces_of[user]

    def neighbors(self, user):
        return self._neighbors[user]

    def common_spaces(self, u, v):
        return tuple(m for m in self._spaces_of[u] if v in self.structure.block_sets[m])

    def distance_row(self, u):
        """BFS distances from u to every user, cached."""
        row = self._dist_rows.get(u)
        if row is None:
            row = [-1] * self.n_users
            row[u] = 0
            frontier = [u]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for x in frontier:
                    for y in self._neighbors[x]:
                        if row[y] < 0:
                            row[y] = d
                            nxt.append(y)
                frontier = nxt
            self._dist_rows[u] = row
        return row

    def user_distance(self, u, v):
        """0 iff u == v, 1 iff they share a space, 2 beyond that (planes and
        generalised quadrangles never exceed 2)."""
        return self.distance_row(u)[v]

    def diameter(self):
        if self._diameter is None:
            self._diameter = max(max(self.distance_row(u)) for u in range(self.n_users))
        return self._diameter

    def shortest_user_paths(self, u, v):
        """All shortest alternating paths (u, M1, u1, ..., Mk, v), sorted.

        Between distance-1 users in a plane or GQ there is exactly one;
        between distance-2 users of a GQ of order (s,t) there are t+1, one
        per common neighbour.
        """
        if u == v:
            raise ValueError("no path from a user to itself")
        key = (u, v)
        cached = self._paths.get(key)
        if cached is None:
            row_v = self.distance_row(v)

            def rec(x):
                if x == v:
                    return ((v,),)
                out = []
                for w in sorted(self._neighbors[x]):
                    if row_v[w] == row_v[x] - 1:
                        tails = rec(w)
                        for m in self.common_spaces(x, w):
                            for tail in tails:
                                out.append((x, m) + tail)
                return tuple(out)

            cached = tuple(sorted(rec(u)))
            self._paths[key] = cached
        return cached


@dataclass(frozen=True)
class QueryWorkload:
    """A linked sequence of queries on one topic from one source."""

    source: int
    topic: str
    count: int
    protocol: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.protocol not in (1, 2):
            raise ValueError("protocol must be 1 or 2")


@dataclass(slots=True)
class TranscriptEvent:
    """One write or database call.

    ``path`` is the visible routing metadata: for requests, the remaining
    route to the proxy (next hop first, alternating user/space ids, ending
    with the proxy); for responses, the provenance chain back to the proxy.
    ``writer`` and ``query`` are ground truth for analysis only; observer
    views and the on-disk log never carry them.
    """

    seq: int
    kind: str
    space: int | None
    path: tuple
    proxy: int
    topic: str
    visibility: str
    writer: int | None
    query: int


@dataclass
class Transcript:
    system: UPIRSystem
    protocol: int
    seed: int | None
    events: list
    ground_truth: dict


def _as_rng(seed_or_rng):
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng, None
    seed = None if seed_or_rng is None else int(seed_or_rng)
    return np.random.default_rng(seed_or_rng), seed


def iter_protocol_events(system, workload, rng):
    """Yield the events of one workload in order.  Deterministic in
    (system, workload, rng state)."""
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
                yield TranscriptEvent(seq, WRITE_REQUEST, m, path[2 * j + 2 :], v,
                                      topic, vis, nodes[j], qi)
                seq += 1
        yield TranscriptEvent(seq, DB_REQUEST, None, (), v, topic, ALL_READERS, v, qi)
        seq += 1
        yield TranscriptEvent(seq, DB_RESPONSE, None, (), v, topic, ALL_READERS, v, qi)
        seq += 1
        if v != u:
            for j in reversed(range(len(spaces))):
                yield TranscriptEvent(seq, WRITE_RESPONSE, spaces[j], path[2 * j + 2 :],
                                      v, topic, vis, nodes[j + 1], qi)
                seq += 1


def run_protocol(system, workload, seed_or_rng):
    """Simulate one workload under its protocol.

    The proxy is uniform over all users (the source included; a self-proxy
    query touches no message space).  Among shortest paths the choice is
    uniform.  Every query produces exactly one database request/response
    pair, and response writes retrace the request path in reverse.

    Protocol 1 writes in the clear.  Protocol 2 makes request and response
    payloads readable only by the addressed proxy, so relays see route
    metadata alone; it requires every user pair within distance 2
    (NotDiameterBoundedError otherwise).  ``seed_or_rng`` is an int seed, a
    numpy Generator or None (unseeded); the transcript records the int seed
    or None.
    """
    if workload.protocol == 2 and system.diameter() > 2:
        far = next(
            (u, v)
            for u in range(system.n_users)
            for v in range(system.n_users)
            if system.user_distance(u, v) > 2
        )
        raise NotDiameterBoundedError(
            f"user pair {far} at distance {system.user_distance(*far)} > 2"
        )
    rng, seed = _as_rng(seed_or_rng)
    events = list(iter_protocol_events(system, workload, rng))
    return Transcript(system, workload.protocol, seed, events,
                      {workload.topic: workload.source})


# -- observer views --


@dataclass(slots=True)
class ViewEvent:
    """An event as one observer sees it; topic is None when unreadable."""

    seq: int
    kind: str
    space: int | None
    path: tuple
    proxy: int
    topic: str | None
    visibility: str


def view_event(system, event, observer):
    """The observer's view of one event, or None if invisible.

    Database events are seen only by their proxy.  Write events are seen by
    the members of their space; the payload (topic) is readable iff the
    visibility is all_readers or the observer is the addressed proxy.  The
    writer is never exposed.
    """
    if event.kind in (DB_REQUEST, DB_RESPONSE):
        if observer != event.proxy:
            return None
        return ViewEvent(event.seq, event.kind, None, event.path, event.proxy,
                         event.topic, event.visibility)
    if observer not in system.structure.block_sets[event.space]:
        return None
    readable = event.visibility == ALL_READERS or observer == event.proxy
    return ViewEvent(event.seq, event.kind, event.space, event.path, event.proxy,
                     event.topic if readable else None, event.visibility)


@dataclass
class ObservedView:
    observer: int
    events: list


def observer_view(transcript, observer):
    """Everything one honest-but-curious user sees of a transcript."""
    sys_ = transcript.system
    out = []
    for ev in transcript.events:
        ve = view_event(sys_, ev, observer)
        if ve is not None:
            out.append(ve)
    return ObservedView(observer, out)


def external_view(transcript):
    """What a wire eavesdropper on the database link sees: the database
    events with proxy and payload in the clear."""
    return [
        ViewEvent(ev.seq, ev.kind, None, ev.path, ev.proxy, ev.topic, ev.visibility)
        for ev in transcript.events
        if ev.kind in (DB_REQUEST, DB_RESPONSE)
    ]


# -- transcript files --


def write_transcript(transcript, path):
    """One JSON object per line: seq, kind, space, path, proxy, topic,
    visibility.  Ground truth is deliberately absent; see
    write_ground_truth."""
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


def write_ground_truth(transcript, path):
    """The sidecar: topic -> source, plus run parameters."""
    with open(path, "w") as fh:
        json.dump({
            "protocol": transcript.protocol,
            "seed": transcript.seed,
            "topics": transcript.ground_truth,
        }, fh, indent=1)
        fh.write("\n")


def read_transcript(path, system, ground_truth_path=None):
    """Load a transcript log (and optionally its sidecar).  Writer and query
    ordinals are not in the file; events come back with writer=None."""
    events = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            d = json.loads(line)
            events.append(TranscriptEvent(
                d["seq"], d["kind"], d["space"], tuple(d["path"]), d["proxy"],
                d["topic"], d["visibility"], None, -1,
            ))
    truth = {}
    protocol = 0
    seed = None
    if ground_truth_path is not None:
        with open(ground_truth_path) as fh:
            side = json.load(fh)
        truth = side.get("topics", {})
        protocol = side.get("protocol", 0)
        seed = side.get("seed")
    return Transcript(system, protocol, seed, events, truth)


# -- statistical checks on transcripts --


def proxy_counts(transcript):
    """Per-user count of database requests they proxied."""
    counts = np.zeros(transcript.system.n_users, dtype=np.int64)
    for ev in transcript.events:
        if ev.kind == DB_REQUEST:
            counts[ev.proxy] += 1
    return counts


def proxy_uniformity(transcript):
    """Chi-square test of the proxy distribution against uniform.

    Returns (chi2, p).  Honest proxying draws the proxy uniformly from all
    users, so over many queries p should not be small.
    """
    from scipy.stats import chisquare

    counts = proxy_counts(transcript)
    chi2, p = chisquare(counts)
    return float(chi2), float(p)


def path_choice_counts(transcript):
    """Per proxy, how often each concrete space-route was taken.

    Returns {proxy: {spaces_tuple: count}} over relayed queries.  A query's
    route is the run of write requests that its database request closes, so
    read-back logs, which carry no query ordinals, count the same."""
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
