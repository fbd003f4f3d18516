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

Transcripts record one event per write or database call, in order, and
run_protocol and adversary.converge_topics make them by one path: queries
drawn by _draw_queries, each distinct route's bodies interned once by
_body_ids.  One rule, access(), decides what a user sees of an event and
whether it reads the payload.  The ground-truth map (topic -> source) and
the writer and query ordinal of each event live outside the event log
proper: observer views carry events with writer None, query -1 and, where
the payload is unreadable, topic None, and the on-disk format keeps ground
truth in a separate sidecar file.
"""

import functools
import json
import re
from array import array
from dataclasses import dataclass
from itertools import chain

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


def _distance_table(neighbors):
    """User distances, n x n, -1 where a pair cannot reach each other: a
    breadth-first search from every user at once, 256 sources at a time.
    The first frontier is the identity; each step multiplies it by the 0/1
    collinearity matrix (float32, exact for n < 2**24) and keeps the users
    not reached before.  The dtype holds -n, and distances stay below n."""
    n = len(neighbors)
    adj = np.zeros((n, n), np.float32)
    for x, near in enumerate(neighbors):
        adj[x, list(near)] = 1
    dist = np.full((n, n), -1, np.min_scalar_type(-n))
    for lo in range(0, n, 256):
        block = dist[lo:lo + 256]  # a view: rows lo.. of the table
        reach = np.eye(len(block), n, lo, bool)
        block[reach] = d = 0
        while reach.any() and (block < 0).any():
            d += 1
            reach = (reach.astype(np.float32) @ adj > 0) & (block < 0)
            block[reach] = d
    return dist


def _first_pair(mask):
    """The first (u, v) in row-major order where the n x n mask holds, as
    Python ints, or None."""
    i = int(mask.argmax())
    return divmod(i, len(mask)) if mask.flat[i] else None


class UPIRSystem:
    """A connected incidence structure viewed as a messaging system.  The
    constructor builds the n x n table ``distances`` once (O(n^2) memory),
    and distances, the diameter and routes are read from it."""

    def __init__(self, structure):
        self.structure = structure
        self.n_users = structure.n_points
        self.n_spaces = structure.n_blocks
        self._spaces_of = structure.point_to_blocks
        self._neighbors = structure.collinearity()
        self.distances = _distance_table(self._neighbors)
        apart = _first_pair(self.distances < 0)
        if apart is not None:
            raise DisconnectedError(
                f"users {apart[0]} and {apart[1]} cannot reach each other", apart
            )

    def spaces_of(self, user):
        return self._spaces_of[user]

    def neighbors(self, user):
        return self._neighbors[user]

    def distance_row(self, u):
        """Row u of the distance table, as a list."""
        return self.distances[u].tolist()

    def user_distance(self, u, v):
        """0 iff u == v, 1 iff they share a space, 2 beyond that (planes and
        generalised quadrangles never exceed 2)."""
        return int(self.distances[u, v])

    def diameter(self):
        return int(self.distances.max())

    def shortest_user_paths(self, u, v):
        """All shortest alternating paths (u, M1, u1, ..., Mk, v), sorted,
        built per call; grown a hop at a time through each space of the last
        user to its members one closer to v, by the table's row for v.

        Between distance-1 users in a plane or GQ there is exactly one;
        between distance-2 users of a GQ of order (s,t) there are t+1, one
        per common neighbour.
        """
        if u == v:
            raise ValueError("no path from a user to itself")
        to_v = self.distances[v]
        paths = [(u,)]
        for d in reversed(range(to_v[u])):
            ring = frozenset(np.flatnonzero(to_v == d).tolist())
            paths = [p + (m, w) for p in paths
                     for m in self._spaces_of[p[-1]]
                     for w in self.structure.block_sets[m] & ring]
        return tuple(sorted(paths))


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
    views and events read back from the log carry writer None and query -1,
    and an observer view has topic None where the payload is unreadable.
    """

    seq: int
    kind: str
    space: int | None
    path: tuple
    proxy: int
    topic: str | None
    visibility: str
    writer: int | None
    query: int


class Transcript:
    """A run's events as columns: seq (int64), body (int32) and query
    (int32), one entry per event.  body indexes bodies, the distinct events
    without seq and query, each a TranscriptEvent with seq and query -1.
    The constructor interns an iterable of events; events builds an equal
    list on each access and never stores it."""

    def __init__(self, system, protocol, seed, events, ground_truth):
        self.system = system
        self.protocol = protocol
        self.seed = seed
        self.ground_truth = ground_truth
        self.bodies = []
        self._ids = {}  # body fields -> body id
        events = list(events)  # each column below walks it
        self.seq = np.array([ev.seq for ev in events], np.int64)
        self.body = np.array([self.intern((
            ev.kind, ev.space, ev.path, ev.proxy, ev.topic, ev.visibility,
            ev.writer)) for ev in events], np.int32)
        self.query = np.array([ev.query for ev in events], np.int32)

    def intern(self, fields):
        """The id of the body with these fields, added if new."""
        i = self._ids.get(fields)
        if i is None:
            i = self._ids[fields] = len(self.bodies)
            self.bodies.append(TranscriptEvent(-1, *fields, -1))
        return i

    def extend(self, streams):
        """Append streams, each a list of its queries' body ids, one
        sequence per query; a stream's seq and query count from 0."""
        sizes = [np.fromiter(map(len, s), np.int64, len(s)) for s in streams]
        self.seq = np.concatenate(
            [self.seq, *map(np.arange, map(np.sum, sizes))], dtype=np.int64)
        self.body = np.concatenate([self.body, *(np.fromiter(
            chain.from_iterable(s), np.int32) for s in streams)])
        self.query = np.concatenate([self.query, *(
            np.repeat(np.arange(len(n)), n) for n in sizes)], dtype=np.int32)

    @property
    def events(self):
        fields = list(self._ids)
        return [TranscriptEvent(s, *fields[b], q) for s, b, q in zip(
            self.seq.tolist(), self.body.tolist(), self.query.tolist())]

    def body_mask(self, keep):
        """Per event, whether keep(its body) holds; one call per body."""
        return np.fromiter(map(keep, self.bodies), bool,
                           len(self.bodies))[self.body]


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
    """Yield (proxy, route) for each of count queries from source.  route is
    the chosen shortest path (source, M1, u1, ..., Mk, proxy), or None when
    the source proxies for itself.  Each proxy's routes are built once and
    cached in routes_to for the rest of the stream.

    The proxy is rng.integers(n_users) and the route index
    rng.integers(len(routes)), drawn through _bounded_draws.  Every query
    of a system with two or more users consumes at least one raw value, so
    the queries left bound the values left.
    """
    n = system.n_users
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    below = _bounded_draws(rng)
    routes_to = functools.cache(
        lambda v: system.shortest_user_paths(source, v))
    for left in range(count, 0, -1):
        v = below(n, left)
        if v == source:
            yield v, None
        else:
            routes = routes_to(v)
            yield v, routes[below(len(routes), left)]


def _query_bodies(workload, proxy, route):
    """The bodies of one query's events, in order, as Transcript.intern
    takes them: a write request per hop, the database request and response,
    then a write response per hop back.  route is as _draw_queries yields
    it."""
    topic = workload.topic
    vis = ALL_READERS if workload.protocol == 1 else PROXY_ONLY
    hops = 0 if route is None else len(route) // 2
    return (
        [(WRITE_REQUEST, route[2 * j + 1], route[2 * j + 2:], proxy, topic,
          vis, route[2 * j]) for j in range(hops)]
        + [(kind, None, (), proxy, topic, ALL_READERS, proxy)
           for kind in (DB_REQUEST, DB_RESPONSE)]
        + [(WRITE_RESPONSE, route[2 * j + 1], route[2 * j + 2:], proxy, topic,
            vis, route[2 * j + 2]) for j in reversed(range(hops))])


def _body_ids(store, workload):
    """One stream's function (proxy, route) -> the ids in store of that
    query's bodies, in order, cached so that each distinct route (which
    fixes its proxy) is interned once."""
    return functools.cache(lambda proxy, route: tuple(
        map(store.intern, _query_bodies(workload, proxy, route))))


def iter_protocol_events(system, workload, rng):
    """run_protocol's events, in order; kept for bench/tracing.py to wrap."""
    return iter(run_protocol(system, workload, rng).events)


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
    or None.  Its events come from the draw-and-intern path that
    adversary.converge_topics uses, numbered from seq 0 and query 0.
    """
    far = _first_pair(system.distances > 2) if workload.protocol == 2 else None
    if far is not None:
        raise NotDiameterBoundedError(
            f"user pair {far} at distance {system.user_distance(*far)} > 2"
        )
    rng, seed = _as_rng(seed_or_rng)
    transcript = Transcript(system, workload.protocol, seed, (),
                            {workload.topic: workload.source})
    ids_of = _body_ids(transcript, workload)
    transcript.extend([[ids_of(proxy, route) for proxy, route in _draw_queries(
        system, workload.source, workload.count, rng)]])
    return transcript


# -- what a user sees --


def access(system, member, event):
    """What member gets of one event: None when it does not see the event,
    False when it sees the metadata only, True when it also reads the
    payload (the topic).

    A database call is seen by its proxy alone, a write by the members of
    its space.  A member who sees an event reads its payload when the
    visibility is all_readers or the member is the addressed proxy.  This is
    the one visibility rule: observer views and the coalition tracker both
    apply it.
    """
    if event.kind in (DB_REQUEST, DB_RESPONSE):
        if member != event.proxy:
            return None
    elif member not in system.structure.block_sets[event.space]:
        return None
    return event.visibility == ALL_READERS or member == event.proxy


def _view(transcript, rule):
    """The events whose body rule() maps to True or False, in order, without
    ground truth, and without their topic where it gives False.  rule is
    called once per body, and an event is built only for a shown one."""
    shown = [(b, rule(b)) for b in transcript.bodies]
    return [TranscriptEvent(seq, b.kind, b.space, b.path, b.proxy,
                            b.topic if readable else None, b.visibility,
                            None, -1)
            for seq, (b, readable) in zip(transcript.seq.tolist(), map(
                shown.__getitem__, transcript.body.tolist()))
            if readable is not None]


def observer_view(transcript, observer):
    """Everything one honest-but-curious user sees of a transcript, in
    order, as access() decides it."""
    return _view(transcript, functools.partial(
        access, transcript.system, observer))


def external_view(transcript):
    """What a wire eavesdropper on the database link sees: the database
    events with proxy and payload in the clear."""
    return _view(transcript, lambda b: (
        True if b.kind in (DB_REQUEST, DB_RESPONSE) else None))


# -- transcript files --


_WRITE_CHUNK = 4096  # lines per write call
# a line as write_transcript writes it: the seq in at most 18 ASCII digits
# without a leading zero, so that it fits an int64, then the rest
_CANONICAL_LINE = re.compile(rb'\{"seq": (0|[1-9][0-9]{0,17}), (.*)\n?')
_JSON = json.JSONDecoder()
_EVENT_KEYS = frozenset(("kind", "space", "path", "proxy", "topic",
                         "visibility"))
_EVENT_KINDS = (WRITE_REQUEST, WRITE_RESPONSE, DB_REQUEST, DB_RESPONSE)
_VISIBILITIES = (ALL_READERS, PROXY_ONLY)


def write_transcript(transcript, path):
    """One JSON object per line: seq, kind, space, path, proxy, topic,
    visibility, in that order and spaced as json.dumps writes a dict:

        {"seq": 0, "kind": "db_request", "space": null, "path": [], ...}

    Ground truth is deliberately absent; see write_ground_truth.  The text
    after the seq is formatted once per body, and lines are written in
    chunks of _WRITE_CHUNK."""
    quoted = functools.cache(json.dumps)
    texts = [
        f'"kind": {quoted(b.kind)}, '
        f'"space": {"null" if b.space is None else b.space}, '
        f'"path": [{", ".join(map(str, b.path))}], "proxy": {b.proxy}, '
        f'"topic": {quoted(b.topic)}, "visibility": {quoted(b.visibility)}}}\n'
        for b in transcript.bodies]
    with open(path, "w") as fh:
        for i in range(0, len(transcript.seq), _WRITE_CHUNK):
            part = slice(i, i + _WRITE_CHUNK)
            fh.write("".join([
                f'{{"seq": {seq}, {texts[body]}' for seq, body in
                zip(transcript.seq[part].tolist(),
                    transcript.body[part].tolist())]))


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
    """Load a transcript log, and optionally its sidecar, into a Transcript
    whose bodies have writer None and whose events have query -1.

    The file is read line by line into the seq and body columns, with no
    object per line.  A line as write_transcript writes it is split into its
    seq and the rest, and each distinct rest is parsed, checked and interned
    once; a line with another key order or spacing is parsed whole, and a
    blank line is skipped.  A malformed line raises ValueError naming the
    file and line: invalid JSON, a missing, extra or ill-typed field, a seq
    outside 0..2**63-1, an unknown kind or visibility, a space that is not
    null exactly for database events, a database event with a route, a
    user or space id out of range for the system, or a write whose route
    does not fit the geometry (see _check_route).
    """
    transcript = Transcript(system, 0, None, (), {})
    ids = {}  # the rest of a canonical line -> its body id
    seqs, bodies = array("q"), array("i")
    lineno = 0
    with open(path, "rb") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                m = _CANONICAL_LINE.fullmatch(line)
                if m is not None:
                    i = ids.get(m[2])
                    if i is None:
                        i = ids[m[2]] = transcript.intern(_event_fields(
                            _load_object(b"{" + m[2]), system))
                    seqs.append(int(m[1]))
                    bodies.append(i)
                elif line.strip():
                    d = _load_object(line)
                    if "seq" not in d:
                        raise ValueError("missing 'seq'")
                    seq = d.pop("seq")
                    if type(seq) is not int or not 0 <= seq < 1 << 63:
                        raise ValueError("'seq' must be a non-negative "
                                         "integer below 2**63")
                    bodies.append(transcript.intern(_event_fields(d, system)))
                    seqs.append(seq)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    transcript.seq = np.array(seqs, np.int64)
    transcript.body = np.array(bodies, np.int32)
    transcript.query = np.full(len(seqs), -1, np.int32)
    if ground_truth_path is not None:
        (transcript.ground_truth, transcript.protocol,
         transcript.seed) = _read_sidecar(ground_truth_path, system)
    return transcript


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
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    if type(d) is not dict:
        raise ValueError("not a JSON object")
    return d


def _event_fields(d, system):
    """The checked fields of one event after seq, as Transcript.intern
    takes them: kind, space, path, proxy, topic, visibility, writer."""
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
        if route != []:
            raise ValueError(f"{kind} must have an empty 'path'")
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
    if space is not None:
        _check_route(route, space, proxy, system.structure.block_sets)
    return kind, space, tuple(route), proxy, topic, vis, None


def _check_route(route, space, proxy, members):
    """A write's path, checked against the geometry: of odd length and
    ending at the proxy, its first user in the write's space, and each two
    consecutive users in the space between them."""
    if len(route) % 2 == 0 or route[-1] != proxy:
        raise ValueError("'path' must have odd length and end at the proxy")
    if route[0] not in members[space]:
        raise ValueError(f"'path' entry 0 must be a user in space {space}")
    for i in range(1, len(route), 2):
        if not members[route[i]].issuperset((route[i - 1], route[i + 1])):
            raise ValueError(f"'path' entries {i - 1} and {i + 1} must be "
                             f"users in space {route[i]}")


def _is_id(x, bound):
    return type(x) is int and 0 <= x < bound


# -- statistical checks on transcripts --


def proxy_counts(transcript):
    """Per-user count of database requests they proxied."""
    proxies = np.array([b.proxy for b in transcript.bodies], np.int64)
    requests = transcript.body_mask(lambda b: b.kind == DB_REQUEST)
    return np.bincount(proxies[transcript.body[requests]],
                       minlength=transcript.system.n_users)


def proxy_uniformity(transcript):
    """Chi-square test of the proxy distribution against uniform.

    Returns (chi2, p).  Honest proxying draws the proxy uniformly from all
    users, so over many queries p should not be small.  scipy.special
    gives p as scipy.stats.chisquare would, and imports far faster.
    """
    from scipy.special import chdtrc

    counts = proxy_counts(transcript).astype(np.float64)
    mean = counts.mean()
    chi2 = float(((counts - mean) ** 2 / mean).sum())
    return chi2, float(chdtrc(len(counts) - 1, chi2))


def path_choice_counts(transcript):
    """Per proxy, how often each concrete space-route was taken.

    Returns {proxy: {spaces_tuple: count}} over relayed queries.  A query's
    route is the run of write requests that its database request closes, so
    read-back logs, which carry no query ordinals, count the same."""
    out = {}
    route = []
    for ev in map(transcript.bodies.__getitem__, transcript.body.tolist()):
        if ev.kind == WRITE_REQUEST:
            route.append(ev.space)
        elif ev.kind == DB_REQUEST and route:
            key = tuple(route)
            counts = out.setdefault(ev.proxy, {})
            counts[key] = counts.get(key, 0) + 1
            route = []
    return out
