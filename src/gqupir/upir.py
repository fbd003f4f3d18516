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
import re
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
        self._spaces_of = structure.point_to_blocks
        self._neighbors = structure.collinearity()
        self._dist_rows = {}
        self._paths = {}
        self._diameter = None
        self._check_connected()

    def _check_connected(self):
        row = self.distance_row(0)
        if -1 in row:
            missing = row.index(-1)
            raise DisconnectedError(
                f"users 0 and {missing} cannot reach each other", (0, missing)
            )

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


_U32 = 1 << 32
# raw values per numpy call at most: held as Python ints, a block costs
# about 40 bytes a value
_BLOCK = 1024


def _bounded_draws(rng):
    """A function below(bound, left) that returns what the scalar call
    rng.integers(bound) would, consuming the same raw values, so the
    Generator ends in the same state as after the scalar calls.

    Raw values come in blocks from rng.integers(0, 2**32, size=k,
    dtype=np.uint32), and each draw applies numpy's 32-bit Lemire rule to
    them: m = x * bound, rejected while m mod 2**32 < (2**32 - bound) %
    bound, giving m >> 32.  A draw with bound 1 consumes no value; bound
    must be below 2**32.  left bounds the raw values the caller will still
    consume, this draw's included: a new block is never longer (nor longer
    than _BLOCK), so the Generator is never drawn past what the scalar
    calls would take.
    """
    block = []
    pos = 0
    floors = {}

    def below(bound, left):
        nonlocal block, pos
        if bound == 1:
            return 0
        floor = floors.get(bound)
        if floor is None:
            floor = floors[bound] = (_U32 - bound) % bound
        while True:
            if pos == len(block):
                block = rng.integers(0, _U32, size=min(left, _BLOCK),
                                     dtype=np.uint32).tolist()
                pos = 0
            m = block[pos] * bound
            pos += 1
            if m & 0xFFFFFFFF >= floor:
                return m >> 32

    return below


def _draw_queries(system, source, count, rng):
    """Yield (seq, proxy, route) for each of count queries from source.
    route is the chosen shortest path (source, M1, u1, ..., Mk, proxy), or
    None when the source proxies for itself; seq counts the events of the
    queries before, one per write and database call.

    The proxy is rng.integers(n_users) and the route index
    rng.integers(len(routes)), drawn through _bounded_draws.  Every query
    of a system with two or more users consumes at least one raw value, so
    the queries left bound the values left.
    """
    n = system.n_users
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    below = _bounded_draws(rng)
    routes_to = {}
    seq = 0
    for left in range(count, 0, -1):
        v = below(n, left)
        if v == source:
            yield seq, v, None
            seq += 2
            continue
        routes = routes_to.get(v)
        if routes is None:
            routes = routes_to[v] = system.shortest_user_paths(source, v)
        route = routes[below(len(routes), left)]
        yield seq, v, route
        seq += len(route) + 1


def _query_events(workload, seq, qi, proxy, route):
    """The events of query qi, numbered from seq: a write request per hop,
    the database request and response, then a write response per hop back.
    route is as _draw_queries yields it."""
    topic = workload.topic
    vis = ALL_READERS if workload.protocol == 1 else PROXY_ONLY
    hops = 0 if route is None else len(route) // 2
    events = [
        TranscriptEvent(seq + j, WRITE_REQUEST, route[2 * j + 1],
                        route[2 * j + 2:], proxy, topic, vis, route[2 * j], qi)
        for j in range(hops)
    ]
    seq += hops
    events.append(TranscriptEvent(seq, DB_REQUEST, None, (), proxy, topic,
                                  ALL_READERS, proxy, qi))
    events.append(TranscriptEvent(seq + 1, DB_RESPONSE, None, (), proxy, topic,
                                  ALL_READERS, proxy, qi))
    seq += 2
    events.extend(
        TranscriptEvent(seq + i, WRITE_RESPONSE, route[2 * j + 1],
                        route[2 * j + 2:], proxy, topic, vis, route[2 * j + 2],
                        qi)
        for i, j in enumerate(reversed(range(hops)))
    )
    return events


def iter_protocol_events(system, workload, rng):
    """Yield the events of one workload in order.  Deterministic in
    (system, workload, rng state)."""
    queries = _draw_queries(system, workload.source, workload.count, rng)
    for qi, (seq, proxy, route) in enumerate(queries):
        yield from _query_events(workload, seq, qi, proxy, route)


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


_WRITE_CHUNK = 4096  # lines per write call
# a line as write_transcript writes it: the seq in ASCII digits without a
# leading zero, then the rest of the object
_CANONICAL_LINE = re.compile(rb'\{"seq": (0|[1-9][0-9]*), (.*)', re.DOTALL)
_JSON = json.JSONDecoder()
_EVENT_KEYS = frozenset(("kind", "space", "path", "proxy", "topic",
                         "visibility"))
_EVENT_KINDS = (WRITE_REQUEST, WRITE_RESPONSE, DB_REQUEST, DB_RESPONSE)
_VISIBILITIES = (ALL_READERS, PROXY_ONLY)


class _Quoted(dict):
    """JSON string literals, each computed once."""

    def __missing__(self, text):
        quoted = self[text] = json.dumps(text)
        return quoted


def write_transcript(transcript, path):
    """One JSON object per line: seq, kind, space, path, proxy, topic,
    visibility, in that order and spaced as json.dumps writes a dict:

        {"seq": 0, "kind": "db_request", "space": null, "path": [], ...}

    Ground truth is deliberately absent; see write_ground_truth.  Strings go
    through json.dumps once per distinct value, and lines are written in
    chunks of _WRITE_CHUNK."""
    quoted = _Quoted()
    routes = {}
    chunk = []
    with open(path, "w") as fh:
        for ev in transcript.events:
            route = routes.get(ev.path)
            if route is None:
                route = routes[ev.path] = ", ".join(map(str, ev.path))
            space = "null" if ev.space is None else ev.space
            chunk.append(
                f'{{"seq": {ev.seq}, "kind": {quoted[ev.kind]}, '
                f'"space": {space}, "path": [{route}], "proxy": {ev.proxy}, '
                f'"topic": {quoted[ev.topic]}, '
                f'"visibility": {quoted[ev.visibility]}}}\n')
            if len(chunk) == _WRITE_CHUNK:
                fh.writelines(chunk)
                chunk.clear()
        fh.writelines(chunk)


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
    ordinals are not in the file; events come back with writer=None.

    A line as write_transcript writes it is split into its '{"seq": N, '
    prefix and the rest, and each distinct rest is parsed and checked once.
    Any other line (keys reordered, other spacing) is parsed whole.  Blank
    lines are skipped.  A malformed line raises ValueError naming the file
    and line: invalid JSON, a missing, extra or ill-typed field, an unknown
    kind or visibility, a space that is not null exactly for database
    events, or a user or space id out of range for the system.
    """
    events = []
    parsed = {}
    make = TranscriptEvent
    canonical = _CANONICAL_LINE.match
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                m = canonical(line)
                if m is not None:
                    digits, rest = m.groups()
                    fields = parsed.get(rest)
                    if fields is None:
                        fields = parsed[rest] = _event_fields(
                            _load_object(b"{" + rest), system)
                    events.append(make(int(digits), *fields))
                    continue
                if not line.strip():
                    continue
                d = _load_object(line)
                if "seq" not in d:
                    raise ValueError("missing 'seq'")
                seq = d.pop("seq")
                if type(seq) is not int or seq < 0:
                    raise ValueError("'seq' must be a non-negative integer")
                events.append(make(seq, *_event_fields(d, system)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    truth = {}
    protocol = 0
    seed = None
    if ground_truth_path is not None:
        truth, protocol, seed = _read_sidecar(ground_truth_path, system)
    return Transcript(system, protocol, seed, events, truth)


def _read_sidecar(path, system):
    """topics, protocol and seed from a ground-truth sidecar, checked."""
    with open(path, "rb") as fh:
        try:
            side = _load_object(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    truth = side.get("topics", {})
    protocol = side.get("protocol", 0)
    seed = side.get("seed")
    if not (isinstance(truth, dict)
            and all(_is_id(u, system.n_users) for u in truth.values())):
        raise ValueError(f"{path}: 'topics' must map topics to user ids "
                         f"in 0..{system.n_users - 1}")
    if type(protocol) is not int or not (seed is None or type(seed) is int):
        raise ValueError(f"{path}: 'protocol' and 'seed' must be integers")
    return truth, protocol, seed


def _load_object(text):
    try:
        d = _JSON.decode(text.decode())
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if type(d) is not dict:
        raise ValueError("not a JSON object")
    return d


def _event_fields(d, system):
    """The checked fields of one event after seq, as TranscriptEvent takes
    them: kind, space, path, proxy, topic, visibility, writer, query."""
    if d.keys() != _EVENT_KEYS:
        raise ValueError("; ".join(
            [f"missing {k!r}" for k in sorted(_EVENT_KEYS - d.keys())] +
            [f"unexpected {k!r}" for k in sorted(d.keys() - _EVENT_KEYS)]))
    kind, space, route = d["kind"], d["space"], d["path"]
    proxy, topic, vis = d["proxy"], d["topic"], d["visibility"]
    if kind not in _EVENT_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if vis not in _VISIBILITIES:
        raise ValueError(f"unknown visibility {vis!r}")
    if type(topic) is not str:
        raise ValueError("'topic' must be a string")
    if kind == DB_REQUEST or kind == DB_RESPONSE:
        if space is not None:
            raise ValueError(f"{kind} must have a null 'space'")
    elif not _is_id(space, system.n_spaces):
        raise ValueError(f"'space' must be a space id in 0..{system.n_spaces - 1}")
    if not _is_id(proxy, system.n_users):
        raise ValueError(f"'proxy' must be a user id in 0..{system.n_users - 1}")
    if type(route) is not list:
        raise ValueError("'path' must be a list")
    bounds = (system.n_users, system.n_spaces)
    for i, x in enumerate(route):
        # routes alternate user and space ids, a user first
        if not _is_id(x, bounds[i % 2]):
            raise ValueError(f"'path' entry {i} must be a "
                             f"{('user', 'space')[i % 2]} id "
                             f"in 0..{bounds[i % 2] - 1}")
    return kind, space, tuple(route), proxy, topic, vis, None, -1


def _is_id(x, bound):
    return type(x) is int and 0 <= x < bound


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
