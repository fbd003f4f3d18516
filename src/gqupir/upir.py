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
run_protocol and adversary.converge_topics make them by one block stream.
Its raw uint32 values form a chain: a proxy draw, then a route draw exactly
when that proxy has more than one shortest route, all built by _routes_from
once per stream.  _draws finds the roles of a whole block in numpy and
applies numpy's 32-bit Lemire rule to it; a rejected value is dropped and
the chain restarts after it.  Blocks grow from 1024 values to 4096, and
the last is drawn again up to its last used value, so the values and the
Generator state are those of one scalar rng.integers call per draw.  A
query is keyed by its route index first[proxy] + route draw; each route has
its bodies interned once per stream, a block's new ones in ascending order,
and the block's columns are gathered from them in numpy.  Each stream is a
Transcript of its own, and _stream_writer appends streams to one log.

read_transcript reads a log back a block of lines at a time, mapping each
line's key (the rest after a seq as write_transcript writes it, else the
whole line) to a body id; each distinct key is read once per block.  A
sidecar must agree with its log on the topics and protocol.

One rule, access(), decides what a user sees of an event and whether it
reads the payload.  The ground-truth map (topic -> source) and the writer
and query ordinal of each event live outside the event log proper:
observer views carry events with writer None, query -1 and, where the
payload is unreadable, topic None, and the on-disk format keeps ground
truth in a separate sidecar file.

run_protocol, adversary.converge_topics, read_transcript,
Transcript.events, _view (behind observer_view and external_view) and
path_choice_counts run with the cyclic garbage collector paused by
_gc_paused: they build many objects and no reference cycle, so collections
their allocations would start find nothing.  The pause is process-wide.
"""

import contextlib
import functools
import gc
import json
import operator
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geometry import _dumps

WRITE_REQUEST = "write_request"
WRITE_RESPONSE = "write_response"
DB_REQUEST = "db_request"
DB_RESPONSE = "db_response"

ALL_READERS = "all_readers"
PROXY_ONLY = "proxy_only"
_VISIBILITIES = (ALL_READERS, PROXY_ONLY)  # of a write, protocol 1 and 2
_CHUNK = 4096  # rows per write call, and per list of events built


def _gc_paused(fn):
    """fn, run with the cyclic garbage collector disabled, and the caller's
    setting restored when it returns or raises: a caller that disabled it
    keeps it disabled, so paused calls nest.  A cycle made inside is
    collected once the collector is on again.  The pause is process-wide:
    it holds for other threads and for callbacks run inside, and a thread
    that turns gc on or off meanwhile would undo it."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def _chunks(*columns):
    """The columns' entries as lists of Python ints, _CHUNK rows at a time,
    so that no full-length list is held."""
    for i in range(0, len(columns[0]), _CHUNK):
        yield [c[i:i + _CHUNK].tolist() for c in columns]


class DisconnectedError(Exception):
    """The structure is not connected; carries a witness user pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotDiameterBoundedError(Exception):
    """Protocol 2 needs every user pair within distance 2."""


_COLS = 16  # packed bytes of columns (128 users) per pass of the search


class UPIRSystem:
    """A connected incidence structure viewed as a messaging system.

    The constructor runs one breadth-first search from every user at once.
    Level k is the n x n relation "within distance k", packed along rows;
    level 1 is collinearity() and the diagonal.  Each step ORs, per block,
    the rows of its points, then, per point, the rows of its blocks, _COLS
    packed bytes of columns at a time.  The search stops at the first full
    level, whose number is the diameter; a level that stops growing is a
    DisconnectedError naming user 0 and the least user row 0 lacks.  Only
    levels 2 .. diameter - 1 are kept, none for a plane or a quadrangle,
    and distance_row reads a user's distances from them."""

    def __init__(self, structure):
        self.structure = structure
        self.n_users = n = structure.n_points
        self.n_spaces = structure.n_blocks
        self._spaces_of = structure.point_to_blocks
        self._coll = structure.collinearity()
        self._levels = []
        members = np.fromiter(chain.from_iterable(structure.blocks), np.intp)
        spaces = np.fromiter(chain.from_iterable(self._spaces_of), np.intp)
        block_at = np.cumsum([0, *map(len, structure.blocks[:-1])])
        point_at = np.cumsum([0, *map(len, self._spaces_of[:-1])])
        users = np.arange(n)
        reach = np.packbits(self._coll, axis=1)
        reach[users, users >> 3] |= (0x80 >> users % 8).astype(np.uint8)
        full = np.packbits(np.ones(n, bool))
        level = 1
        while not (reach == full).all():
            grown = np.empty_like(reach)
            for lo in range(0, reach.shape[1], _COLS):
                through = np.bitwise_or.reduceat(
                    reach[members, lo:lo + _COLS], block_at)
                grown[:, lo:lo + _COLS] = np.bitwise_or.reduceat(
                    through[spaces], point_at)
            if (grown == reach).all():
                missing = int(np.unpackbits(reach[0], count=n).argmin())
                raise DisconnectedError(
                    f"users 0 and {missing} cannot reach each other",
                    (0, missing))
            if level >= 2:
                self._levels.append(reach)
            reach, level = grown, level + 1
        self._diameter = min(level, n - 1)  # 0 for a single user

    def spaces_of(self, user):
        return self._spaces_of[user]

    def _user(self, v):
        if not 0 <= v < self.n_users:
            raise ValueError(f"user {v} out of range")
        return v

    def distance_row(self, v):
        """The distances from user v to every user, as a new int64 array: 0
        at v, 1 where collinear with v, 2 beyond, plus 1 for each kept level
        of the search that lacks the user."""
        row = 2 - self._coll[self._user(v)].astype(np.int64)
        row[v] = 0
        for reach in self._levels:
            row += 1 - np.unpackbits(reach[v], count=self.n_users)
        return row

    def user_distance(self, u, v):
        """The number of spaces on a shortest path from u to v: 0 iff
        u == v, 1 iff they share a space (read from u's distance row)."""
        return int(self.distance_row(u)[self._user(v)])

    def diameter(self):
        return self._diameter

    def shortest_user_paths(self, u, v):
        """All shortest alternating paths (u, M1, u1, ..., Mk, v), sorted:
        the per-pair reference for the streams' _routes_from, built per call
        a hop at a time through each space of the last user to its members
        one closer to v, by the distance row of v.

        Between distance-1 users in a plane or GQ there is exactly one;
        between distance-2 users of a GQ of order (s,t) there are t+1, one
        per common neighbour.
        """
        if self._user(u) == v:
            raise ValueError("no path from a user to itself")
        to_v = self.distance_row(v)
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
        for name in ("source", "count"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if not isinstance(self.topic, str):
            raise ValueError("topic must be a string")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        _protocol(self.protocol)


def _protocol(value):
    """The one protocol check: the int 1 or 2, not a bool or a numpy int."""
    if type(value) is not int or value not in (1, 2):
        raise ValueError(f"protocol must be 1 or 2, not {value!r}")


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


# a body's fields, as Transcript.intern takes them
_FIELDS = operator.attrgetter("kind", "space", "path", "proxy", "topic",
                              "visibility", "writer")


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
        self.body = np.array([self.intern(_FIELDS(ev)) for ev in events],
                             np.int32)
        self.query = np.array([ev.query for ev in events], np.int32)

    def intern(self, fields):
        """The id of the body with these fields, added if new."""
        if self._ids is None:  # dropped by read_transcript; rebuilt here
            self._ids = {_FIELDS(b): i for i, b in enumerate(self.bodies)}
        i = self._ids.get(fields)
        if i is None:
            i = self._ids[fields] = len(self.bodies)
            self.bodies.append(TranscriptEvent(-1, *fields, -1))
        return i

    def extend(self, blocks):
        """Append one stream, a list of its blocks' (body, sizes): the
        block's events' body ids, and its queries' event counts, in order.
        The stream's seq and query count from 0."""
        body, sizes = map(np.concatenate, zip(*blocks))
        self.seq = np.concatenate([self.seq, np.arange(len(body))],
                                  dtype=np.int64)
        self.body = np.concatenate([self.body, body], dtype=np.int32)
        self.query = np.concatenate([self.query, np.repeat(
            np.arange(len(sizes)), sizes)], dtype=np.int32)

    @property
    @_gc_paused
    def events(self):
        """The events, in order, as a new list of TranscriptEvent, built
        _CHUNK rows of the columns at a time with the collector paused."""
        fields = list(map(_FIELDS, self.bodies))
        return [TranscriptEvent(s, *fields[b], q)
                for seqs, bodies, queries in _chunks(self.seq, self.body,
                                                     self.query)
                for s, b, q in zip(seqs, bodies, queries)]

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
# raw values per block: _FIRST for a stream's first, doubling up to _BLOCK
_FIRST, _BLOCK = 1024, 4096


def _draws(rng, count, n, bounds):
    """The block stream's core (see the module docstring): yield, a block
    at a time, int64 arrays of the proxy and the route index of each of
    count queries as the scalar calls proxy = rng.integers(n), pick =
    rng.integers(bounds[proxy]) would draw them, leaving rng in their state.
    bounds is a uint64 array of route counts per proxy, 1 where no route is
    drawn; a bound-1 call consumes no value, so n == 1 draws nothing.  A
    draw maps raw x to x * bound >> 32, rejecting x while x * bound mod
    2**32 < (2**32 - bound) % bound, a threshold taken only where the low
    word is below bound.  In a run of values whose proxy reading x * n >> 32
    has several routes, roles alternate from a proxy draw; any other value
    is followed by a proxy draw.  The last block is rewound.
    """
    left = count  # queries not complete, one waiting for its route included
    pending = -1  # the proxy of a query waiting for its route draw
    size = _FIRST
    while left:
        state = rng.bit_generator.state
        raw = rng.integers(0, _U32, size, np.uint32).astype(np.uint64)
        proxies, picks, used = [], [], 0
        while left and used < size:
            x = raw[used:]
            reading = (x * n >> 32).astype(np.intp)
            multi = bounds[reading] > 1
            if pending >= 0:
                multi[0] = False  # x[0] is the waiting route draw
            i = np.arange(len(x))
            run = i - np.maximum.accumulate(np.where(multi, -1, i))
            route = np.empty(len(x), bool)
            route[0] = pending >= 0
            route[1:] = multi[:-1] & (run[:-1] & 1 == 1)
            owner = np.empty_like(reading)  # a route draw's proxy
            owner[0] = max(pending, 0)
            owner[1:] = reading[:-1]
            bound = np.where(route, bounds[owner], np.uint64(n))
            m = x * bound
            low = m & 0xFFFFFFFF
            near = np.flatnonzero(low < bound)  # the threshold is below bound
            bad = near[low[near] < (_U32 - bound[near]) % bound[near]]
            cut = int(bad[0]) if len(bad) else len(x)
            done = route | ~multi
            if np.count_nonzero(done[:cut]) >= left:  # stop at the left-th
                cut = int(np.cumsum(done[:cut]).searchsorted(left)) + 1
            done[cut:] = False
            draw = (m >> 32).astype(np.intp)
            at = np.flatnonzero(done)
            proxies.append(np.where(route, owner, draw)[at])
            picks.append(np.where(route, draw, 0)[at])
            if cut:
                pending = -1 if done[cut - 1] else int(draw[cut - 1])
            left -= len(at)
            used += cut + (left > 0 and cut < len(x))  # and the rejected one
        if n == 1:  # a bound-1 call draws no value
            used = 0
        if used < size:  # rewind to the values the stream used
            rng.bit_generator.state = state
            rng.integers(0, _U32, size=used, dtype=np.uint32)
        size = min(2 * size, _BLOCK)
        yield np.concatenate(proxies), np.concatenate(picks)


def _routes_from(system, source):
    """Every shortest route from source as (routes, first, bounds): v's are
    routes[first[v]:first[v] + bounds[v]] as shortest_user_paths(source, v)
    orders them, the source's is None, and bounds is uint64.  Ring d of the
    source's distance row extends ring d - 1's routes through the spaces of
    their last users to members in ring d; spaces and members ascend, so
    each ring comes out sorted and a stable sort by target keeps it so."""
    dist = system.distance_row(source).tolist()
    blocks, spaces = system.structure.blocks, system.structure.point_to_blocks
    ring, routes = [(source,)], [None]
    for d in range(1, max(dist) + 1):
        ring = [r + (m, w) for r in ring for m in spaces[r[-1]]
                for w in blocks[m] if dist[w] == d]
        routes += ring
    target = np.array([source] + [r[-1] for r in routes[1:]], np.intp)
    bounds = np.bincount(target, minlength=system.n_users)
    return ([routes[i] for i in np.argsort(target, kind="stable").tolist()],
            np.cumsum(bounds) - bounds, bounds.astype(np.uint64))


def _draw_queries(system, workload, rng):
    """One workload's queries as (pairs, blocks): the stream's route table,
    a (proxy, route) per route of _routes_from, route a shortest path
    (source, M1, u1, ..., proxy) or None for the source itself; and per
    block an int64 array of each query's index first[proxy] + route draw
    into it.  A bad source is a ValueError, and protocol 2 with users beyond
    distance 2 a NotDiameterBoundedError, before any draw."""
    n, source = system.n_users, workload.source
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    if workload.protocol == 2 and system.diameter() > 2:
        for u in range(n):  # the first row with a user beyond 2, and its first
            row = system.distance_row(u)
            if (row > 2).any():
                v = int((row > 2).argmax())
                raise NotDiameterBoundedError(
                    f"user pair {(u, v)} at distance {row[v]} > 2")
    routes, first, bounds = _routes_from(system, source)
    return ([(source, r) if r is None else (r[-1], r) for r in routes],
            (first[proxy] + pick for proxy, pick in _draws(
                rng, workload.count, n, bounds) if len(proxy)))


def _query_bodies(workload, proxy, route):
    """The bodies of one query's events, in order, as Transcript.intern
    takes them: a write request per hop, the database request and response,
    then a write response per hop back.  (proxy, route) is an entry of
    _draw_queries' pairs."""
    topic = workload.topic
    vis = _VISIBILITIES[workload.protocol - 1]
    hops = 0 if route is None else len(route) // 2
    return (
        [(WRITE_REQUEST, route[2 * j + 1], route[2 * j + 2:], proxy, topic,
          vis, route[2 * j]) for j in range(hops)]
        + [(kind, None, (), proxy, topic, ALL_READERS, proxy)
           for kind in (DB_REQUEST, DB_RESPONSE)]
        + [(WRITE_RESPONSE, route[2 * j + 1], route[2 * j + 2:], proxy, topic,
            vis, route[2 * j + 2]) for j in reversed(range(hops))])


def _body_ids(store, workload, pairs):
    """One stream's function k -> the ids in store of the bodies of the
    query with route index k into pairs, in order, cached so that each
    route is interned once."""
    return functools.cache(lambda k: tuple(
        map(store.intern, _query_bodies(workload, *pairs[k]))))


def _block_columns(ids_of, key):
    """A block's (body, sizes) for Transcript.extend, from its queries'
    route indices; the block's new routes are interned in ascending
    order."""
    routes, inv = np.unique(key, return_inverse=True)
    ids = list(map(ids_of, routes.tolist()))
    lens = np.fromiter(map(len, ids), np.int64, len(ids))
    flat = np.fromiter(chain.from_iterable(ids), np.int32)
    sizes = lens[inv]
    first = np.cumsum(sizes) - sizes  # each query's first event
    body = flat[np.arange(first[-1] + sizes[-1]) + np.repeat(
        (np.cumsum(lens) - lens)[inv] - first, sizes)]
    return body, sizes


def iter_protocol_events(system, workload, rng):
    """run_protocol's events, in order; kept for bench/tracing.py to wrap."""
    return iter(run_protocol(system, workload, rng).events)


@_gc_paused
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
    rng, seed = _as_rng(seed_or_rng)
    transcript = Transcript(system, workload.protocol, seed, (),
                            {workload.topic: workload.source})
    pairs, blocks = _draw_queries(system, workload, rng)
    ids_of = _body_ids(transcript, workload, pairs)
    transcript.extend([_block_columns(ids_of, key) for key in blocks])
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


@_gc_paused
def _view(transcript, rule):
    """The events whose body rule() maps to True or False, in order, without
    ground truth, and without their topic where it gives False.  rule is
    called once per body, and an event is built only for a shown one, from
    _CHUNK rows of the columns at a time."""
    shown = [(b, rule(b)) for b in transcript.bodies]
    return [TranscriptEvent(seq, b.kind, b.space, b.path, b.proxy,
                            b.topic if readable else None, b.visibility,
                            None, -1)
            for seqs, bodies in _chunks(transcript.seq, transcript.body)
            for seq, (b, readable) in zip(seqs, map(shown.__getitem__,
                                                    bodies))
            if readable is not None]


def observer_view(transcript, observer):
    """Everything one honest-but-curious user sees of a transcript, in
    order, as access() decides it; an observer outside 0..n-1 is a
    ValueError."""
    return _view(transcript, functools.partial(
        access, transcript.system, transcript.system._user(observer)))


def external_view(transcript):
    """What a wire eavesdropper on the database link sees: the database
    events with proxy and payload in the clear."""
    return _view(transcript, lambda b: (
        True if b.kind in (DB_REQUEST, DB_RESPONSE) else None))


# -- transcript files --


_READ_BLOCK = 1 << 20  # bytes per read; a block is cut after its last newline
# a line as write_transcript writes it starts with _SEQ, then the seq in at
# most 18 ASCII digits without a leading zero, so that it fits an int64,
# then ", " and the rest; the rest splits at _TOPIC into frame and tail
_SEQ = b'{"seq": '
_SEQ_WORD = np.frombuffer(_SEQ, "<u8")[0]  # its 8 bytes as one word
_SEQ_DIGITS = 18
_LOOK = 24  # bytes read after _SEQ: the digits, ", " and some to spare
_TOPIC = b', "topic": '
_JSON = json.JSONDecoder()
_EVENT_KEYS = frozenset(("kind", "space", "path", "proxy", "topic",
                         "visibility"))
_FRAME_KEYS = frozenset(("kind", "space", "path", "proxy"))
_TAIL_KEYS = _EVENT_KEYS - _FRAME_KEYS
# a tail and a frame that pass every check, to check the other part alone
_ANY_TAIL = {"topic": "", "visibility": ALL_READERS}
_ANY_FRAME = {"kind": DB_REQUEST, "space": None, "path": [], "proxy": 0}
_EVENT_KINDS = (WRITE_REQUEST, WRITE_RESPONSE, DB_REQUEST, DB_RESPONSE)


def write_transcript(transcript, path):
    """One JSON object per line: seq, kind, space, path, proxy, topic,
    visibility, in that order and spaced as json.dumps writes a dict:

        {"seq": 0, "kind": "db_request", "space": null, "path": [], ...}

    Ground truth is deliberately absent; see write_ground_truth."""
    with _stream_writer(path) as append:
        append(transcript)


@contextlib.contextmanager
def _stream_writer(path):
    """A function that appends a transcript's lines to a new log at path,
    each seq raised by the lines before it.  Lines go to path.part, which
    replaces path on leaving and is removed on an error.  Each body's text
    is formatted once, and lines written _CHUNK at a time."""
    part = f"{os.fspath(path)}.part"
    written = 0

    def append(stream):
        nonlocal written
        quoted = functools.cache(json.dumps)
        texts = [
            f'"kind": {quoted(b.kind)}, '
            f'"space": {"null" if b.space is None else b.space}, '
            f'"path": [{", ".join(map(str, b.path))}], '
            f'"proxy": {b.proxy}, "topic": {quoted(b.topic)}, '
            f'"visibility": {quoted(b.visibility)}}}\n'
            for b in stream.bodies]
        for seqs, bodies in _chunks(stream.seq + written, stream.body):
            fh.write("".join([f'{{"seq": {seq}, {texts[body]}'
                              for seq, body in zip(seqs, bodies)]))
        written += len(stream.seq)

    try:
        with open(part, "w") as fh:
            yield append
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def write_ground_truth(transcript, path):
    """The sidecar: topic -> source, plus run parameters.  The text is built
    whole before the file is opened, so a value JSON cannot encode (a numpy
    integer source, say) raises TypeError and leaves an existing file as it
    was."""
    text = _dumps({
        "protocol": transcript.protocol,
        "seed": transcript.seed,
        "topics": transcript.ground_truth,
    })
    with open(path, "w") as fh:
        fh.write(text + "\n")


@_gc_paused
def read_transcript(path, system, ground_truth_path=None):
    """Load a transcript log, and optionally its sidecar, into a Transcript
    whose bodies have writer None and whose events have query -1.

    The file is read in blocks of whole lines of about _READ_BLOCK bytes,
    and _split_lines gives each line its seq and key.  ids maps the block's
    keys to body ids, and line_seq those decoded whole to the seq they give;
    both keep what the block before had of the block's keys.  Each new key
    is read once, in order of first use: a rest that splits at , "topic":
    into a frame and a tail that check (each decoded once) from them, any
    other key by _whole_event; a blank line maps to -1 and is dropped.  A
    malformed line raises ValueError naming the file and line; the sidecar
    is checked (_read_sidecar).  The intern map is dropped on return.
    """
    transcript = Transcript(system, 0, None, (), {})
    ids, line_seq = {}, {}
    frame_of = functools.cache(lambda text: _checked_part(
        b"{" + text + b"}", _FRAME_KEYS, _ANY_TAIL, system)[:4])
    tail_of = functools.cache(lambda text: _checked_part(
        b'{"topic": ' + text, _TAIL_KEYS, _ANY_FRAME, system)[4:])

    def body_of(key):
        """A new key's body id, or -1 for a blank line."""
        if not key.endswith(b"\n"):
            frame, split, tail = key.partition(_TOPIC)
            if split and (frame := frame_of(frame)) and (tail := tail_of(tail)):
                return transcript.intern(frame + tail)
        try:
            line_seq[key], fields = _whole_event(key, system)
        except ValueError as exc:
            raise ValueError(
                f"{path}:{lineno + keys.index(key) + 1}: {exc}") from None
        return -1 if fields is None else transcript.intern(fields)

    seqs, bodies = [np.empty(0, np.int64)], [np.empty(0, np.int32)]
    lineno = 0  # lines before the block
    with open(path, "rb") as fh:
        for block in _line_blocks(fh):
            seq, first, last = _split_lines(block)
            keys = [block[a:b] for a, b in zip(first.tolist(), last.tolist())]
            ids = {k: ids.get(k) for k in dict.fromkeys(keys)}
            line_seq = {k: line_seq[k] for k in line_seq.keys() & ids.keys()}
            new = [k for k, i in ids.items() if i is None]
            ids.update(zip(new, map(body_of, new)))
            body = np.fromiter(map(ids.__getitem__, keys), np.int32, len(keys))
            whole = np.flatnonzero(seq < 0)
            seq[whole] = [line_seq[keys[i]] for i in whole.tolist()]
            seqs.append(seq[body >= 0])
            bodies.append(body[body >= 0])
            lineno += len(keys)
    transcript.seq = np.concatenate(seqs)
    transcript.body = np.concatenate(bodies)
    transcript.query = np.full(len(transcript.seq), -1, np.int32)
    transcript._ids = None  # 10 MiB on the plaintext-transcript log
    if ground_truth_path is not None:
        (transcript.ground_truth, transcript.protocol,
         transcript.seed) = _read_sidecar(ground_truth_path, system,
                                          transcript.bodies)
    return transcript


def _line_blocks(fh):
    """fh's bytes in blocks of whole lines, each ending in a newline, read
    _READ_BLOCK bytes at a time; a last line without one is given one."""
    held = []  # the start of a line no read has ended yet
    while chunk := fh.read(_READ_BLOCK):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([*held, chunk[:cut]])
            held = []
        held.append(chunk[cut:])
    if any(held):
        yield b"".join([*held, b"\n"])


def _split_lines(block):
    """Per line of a block ending in a newline: its seq and the bounds of
    its key.  A line that starts as write_transcript writes one (_SEQ, 1 to
    18 ASCII digits without a leading zero, then ", ") has that seq and the
    rest after it, newline excluded, as key; any other line has seq -1 and
    is its own key, newline included, so no key is of both kinds.  No byte
    tested is a newline, so a test that runs past a line's end fails there."""
    buf = np.frombuffer(block + bytes(len(_SEQ) + _LOOK), np.uint8)
    end = np.flatnonzero(buf[:len(block)] == ord("\n"))
    start = np.concatenate(([0], end[:-1] + 1))
    # the 8 bytes at each offset as one word, so that a line's _SEQ and
    # the _LOOK bytes after it are gathered as a few words
    words = np.ndarray(len(buf) - 7, "<u8", buf, strides=(1,))
    digit = (words[start[:, None] + np.arange(
        len(_SEQ), len(_SEQ) + _LOOK, 8)].view(np.uint8) - np.uint8(ord("0")))
    k = np.argmin(digit < 10, 1)  # leading digits, 0 when all are
    after = start + len(_SEQ) + k
    ok = ((words[start] == _SEQ_WORD) & (k > 0) & (k <= _SEQ_DIGITS)
          & ((k == 1) | (digit[:, 0] > 0))
          & (buf[after] == ord(",")) & (buf[after + 1] == ord(" ")))
    seq = np.zeros(len(end), np.int64)
    for j in range(k[ok].max(initial=0)):
        seq = np.where(j < k, seq * 10 + digit[:, j], seq)
    return (np.where(ok, seq, -1), np.where(ok, after + 2, start),
            np.where(ok, end, end + 1))


def _whole_event(key, system):
    """(seq, fields) of a key decoded whole, as a line-by-line reader
    decodes it: a rest alone, with seq -1, so that a second seq is an
    unexpected key; a whole line with its own seq; (-1, None) if blank."""
    if not key.endswith(b"\n"):
        return -1, _event_fields(_load_object(b"{" + key), system)
    if not key.strip():
        return -1, None
    d = _load_object(key)
    if "seq" not in d:
        raise ValueError("missing 'seq'")
    seq = d.pop("seq")
    if type(seq) is not int or not 0 <= seq < 1 << 63:
        raise ValueError("'seq' must be a non-negative integer below 2**63")
    return seq, _event_fields(d, system)


def _checked_part(text, keys, other, system):
    """The fields of a frame or tail, checked beside the other part, which
    passes every check; () unless it decodes to an object with exactly
    keys and passes."""
    try:
        d = _load_object(text)
        return _event_fields({**d, **other}, system) if d.keys() == keys else ()
    except ValueError:
        return ()


def _read_sidecar(path, system, bodies):
    """topics, protocol and seed from a ground-truth sidecar, checked on
    its own and against the log's bodies: the topics must be exactly the
    log's, and every write's visibility that of the protocol, all_readers
    for 1 and proxy_only for 2."""
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
    if protocol not in (1, 2):
        raise ValueError(f"{path}: 'protocol' must be 1 or 2")
    logged = {b.topic for b in bodies}
    if truth.keys() != logged:
        odd = min(truth.keys() ^ logged)
        where = "sidecar" if odd in truth else "log"
        raise ValueError(f"{path}: topic {odd!r} is in the {where} only")
    vis = _VISIBILITIES[protocol - 1]
    for b in bodies:
        if b.space is not None and b.visibility != vis:
            raise ValueError(f"{path}: protocol {protocol} writes are {vis}, "
                             f"but the log has a {b.visibility} {b.kind}")
    return truth, protocol, seed


def _load_object(text):
    """text as a JSON object; no message depends on trailing whitespace."""
    text = text.rstrip(b" \t\r\n").decode()
    try:
        try:  # a text as written, with no space around it, decodes faster
            d, end = _JSON.raw_decode(text)
        except json.JSONDecodeError:
            end = None
        if end != len(text):
            d = _JSON.decode(text)
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
    gives p as scipy.stats.chisquare would, and imports far faster.  A
    transcript with no database request is a ValueError.
    """
    from scipy.special import chdtrc

    counts = proxy_counts(transcript).astype(np.float64)
    if not counts.any():
        raise ValueError("transcript holds no database request")
    mean = counts.mean()
    chi2 = float(((counts - mean) ** 2 / mean).sum())
    return chi2, float(chdtrc(len(counts) - 1, chi2))


@_gc_paused
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
