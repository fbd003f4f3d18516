"""Spans around the calls into each gqupir layer, installed from outside.

Nothing under src/ is changed.  Tracer.install() rebinds public names at the
modules where they are looked up -- harness and adversary import by name, so
a function is wrapped once per calling module -- and wraps a few methods on
their classes.  Each call becomes a span (name, start, end, parent span, run
id) kept in memory until the run ends.  Per-event boundaries, next() on the
event generator and CoalitionTracker.observe, are added up into one span per
topic and parent instead of one span per event.

metrics() turns the spans into the per-layer numbers listed in LAYER_METRICS.
A layer's self time is its spans' duration minus the time of their direct
children.
"""

import functools
import os
import time

from gqupir import adversary, geometry, harness, upir

# per-layer metric -> unit; trace.overhead_frac is added by run.py
LAYER_METRICS = {
    "upir.generate_s": "s",
    "upir.generate.queries": "count",
    "upir.generate.events": "count",
    "upir.generate.us_per_query": "us",
    "upir.generate.regen_events": "count",
    "upir.paths.calls": "count",
    "upir.paths.hit_ratio": "ratio",
    "upir.system_s": "s",
    "adversary.track_s": "s",
    "adversary.track.events_fed": "count",
    "adversary.track.events_readable": "count",
    "adversary.track.readable_ratio": "ratio",
    "adversary.converge_s": "s",
    "adversary.converge.self_s": "s",
    "upir.transcript.write_s": "s",
    "upir.transcript.write_us_per_event": "us",
    "upir.transcript.bytes": "bytes",
    "upir.transcript.events": "count",
    "upir.transcript.read_s": "s",
    "upir.transcript.read_us_per_event": "us",
    "adversary.infer_s": "s",
    "geometry.build_s": "s",
    "geometry.verify_s": "s",
    "geometry.construct_s": "s",
    "geometry.blocks": "count",
    "geometry.collinearity.calls": "count",
    "geometry.collinearity_s": "s",
    "geometry.file_write_s": "s",
    "geometry.file_read_s": "s",
    "adversary.analytic_s": "s",
    "adversary.analytic.calls": "count",
    "adversary.place_s": "s",
    "adversary.sweep_s": "s",
    "adversary.sweep.rows": "count",
    "harness.simulate_s": "s",
    "harness.analyze_s": "s",
    "harness.report_write_s": "s",
    "harness.self_s": "s",
}


def _blocks(args, geom):
    return {"blocks": getattr(geom, "base", geom).n_blocks}


def _rows(args, rows):
    return {"rows": len(rows)}


def _written(args, result):
    transcript, path = args
    return {"events": len(transcript.events), "bytes": os.path.getsize(path)}


def _read(args, transcript):
    return {"events": len(transcript.events)}


# (module, attribute, span name, attrs(args, result) or None)
_FUNCTIONS = (
    (harness, "build_pg2", "geometry.build", _blocks),
    (harness, "build_w3", "geometry.build", _blocks),
    (harness, "build_q4", "geometry.build", _blocks),
    (geometry, "verify_gq", "geometry.verify", None),
    (geometry, "save_geometry", "geometry.file_write", None),
    (geometry, "load_geometry", "geometry.file_read", None),
    (harness, "write_transcript", "upir.transcript.write", _written),
    (harness, "write_ground_truth", "upir.transcript.write", None),
    (upir, "read_transcript", "upir.transcript.read", _read),
    (adversary, "converge_topics", "adversary.converge", None),
    (harness, "converge_topics", "adversary.converge", None),
    (adversary, "empirical_infer", "adversary.infer", None),
    (adversary, "analytic_single", "adversary.analytic", None),
    (adversary, "analytic_coalition", "adversary.analytic", None),
    (harness, "analytic_coalition", "adversary.analytic", None),
    (adversary, "place_coalition", "adversary.place", None),
    (harness, "place_coalition", "adversary.place", None),
    (adversary, "coalition_sweep", "adversary.sweep", _rows),
    (harness, "build_family", "harness.build_family", None),
    (harness, "resolve_coalition", "harness.resolve_coalition", None),
    (harness, "geometry_summary", "harness.geometry_summary", None),
    (harness, "run_simulate", "harness.simulate", None),
    (harness, "run_analyze", "harness.analyze", None),
    (harness, "write_json", "harness.report_write", None),
    (harness, "write_sweep_csv", "harness.report_write", None),
    (geometry.IncidenceStructure, "collinearity", "geometry.collinearity", None),
    (upir.UPIRSystem, "__init__", "upir.system", None),
)


class _Acc:
    """Per-event time and counts of one topic under one parent span."""

    __slots__ = ("name", "parent", "topic", "start", "end", "busy", "n",
                 "queries", "readable")

    def __init__(self, name, parent, topic):
        self.name = name
        self.parent = parent
        self.topic = topic
        self.start = None
        self.end = None
        self.busy = 0.0
        self.n = 0
        self.queries = 0
        self.readable = 0


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = [None]
        self._accs = {}
        self._paths_seen = set()
        self.paths_calls = 0
        self.paths_hits = 0

    # -- recording --

    def _open(self, name):
        span = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                "end": None, "parent": self._stack[-1], "run": self.run_id}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _acc(self, name, topic):
        key = (name, self._stack[-1], topic)
        acc = self._accs.get(key)
        if acc is None:
            acc = self._accs[key] = _Acc(name, self._stack[-1], topic)
        return acc

    def _wrap(self, name, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span.update(attrs(args, result))
            return result

        return wrapper

    def _wrap_events(self, name, fn):
        """next() on the event generator, added up per topic."""
        tracer = self
        db_request = upir.DB_REQUEST

        @functools.wraps(fn)
        def wrapper(system, workload, rng):
            acc = tracer._acc(name, workload.topic)
            pc = time.perf_counter
            gen = fn(system, workload, rng)
            busy = 0.0
            n = queries = 0
            first = pc()
            try:
                while True:
                    t = pc()
                    ev = next(gen, None)
                    busy += pc() - t
                    if ev is None:
                        break
                    n += 1
                    if ev.kind == db_request:
                        queries += 1
                    yield ev
            finally:
                if acc.start is None:
                    acc.start = first
                acc.end = pc()
                acc.busy += busy
                acc.n += n
                acc.queries += queries

        return wrapper

    def _wrap_observe(self, fn):
        """CoalitionTracker.observe, added up per topic; an event counts as
        readable when some member may read its payload."""
        tracer = self
        all_readers = upir.ALL_READERS

        @functools.wraps(fn)
        def observe(tracker, event):
            t = time.perf_counter()
            fn(tracker, event)
            end = time.perf_counter()
            acc = tracer._acc("adversary.track", event.topic)
            if acc.start is None:
                acc.start = t
            acc.end = end
            acc.busy += end - t
            acc.n += 1
            if event.space is not None:
                members = tracker.system.structure.block_sets[event.space]
                if event.visibility == all_readers:
                    if any(m in members for m in tracker.coalition):
                        acc.readable += 1
                elif event.proxy in members and event.proxy in tracker.coalition:
                    acc.readable += 1

        return observe

    def _wrap_paths(self, fn):
        tracer = self

        @functools.wraps(fn)
        def shortest_user_paths(system, u, v):
            key = (id(system), u, v)
            tracer.paths_calls += 1
            if key in tracer._paths_seen:
                tracer.paths_hits += 1
            else:
                tracer._paths_seen.add(key)
            return fn(system, u, v)

        return shortest_user_paths

    def install(self):
        for owner, attr, name, attrs in _FUNCTIONS:
            setattr(owner, attr, self._wrap(name, getattr(owner, attr), attrs))
        adversary.iter_protocol_events = self._wrap_events(
            "upir.generate", adversary.iter_protocol_events)
        harness.iter_protocol_events = self._wrap_events(
            "upir.generate.regen", harness.iter_protocol_events)
        tracker = adversary.CoalitionTracker
        tracker.observe = self._wrap_observe(tracker.observe)
        system = upir.UPIRSystem
        system.shortest_user_paths = self._wrap_paths(system.shortest_user_paths)

    # -- results --

    def _flush(self):
        """Turn the per-topic accumulators into spans (once)."""
        for acc in self._accs.values():
            self.spans.append({
                "id": len(self.spans), "name": acc.name, "start": acc.start,
                "end": acc.end, "parent": acc.parent, "run": self.run_id,
                "topic": acc.topic, "busy": acc.busy, "events": acc.n,
                "queries": acc.queries, "readable": acc.readable,
            })
        self._accs = {}

    def metrics(self):
        self._flush()
        spans = self.spans
        busy = [s["busy"] if "busy" in s else s["end"] - s["start"] for s in spans]
        child_time = [0.0] * len(spans)
        for s, b in zip(spans, busy):
            if s["parent"] is not None:
                child_time[s["parent"]] += b

        def under(s, name):
            p = s["parent"]
            while p is not None:
                if spans[p]["name"] == name:
                    return True
                p = spans[p]["parent"]
            return False

        def pick(prefix, outermost=True):
            return [s for s in spans
                    if (s["name"] == prefix or s["name"].startswith(prefix + "."))
                    and not (outermost and under(s, s["name"]))]

        def total(name, outermost=True):
            return sum(busy[s["id"]] for s in pick(name, outermost))

        def count(name, key):
            return sum(s.get(key, 0) for s in pick(name, False))

        def self_time(prefix):
            return sum(busy[s["id"]] - child_time[s["id"]]
                       for s in spans if s["name"].startswith(prefix))

        def ratio(a, b):
            return a / b if b else 0.0

        gen_s = total("upir.generate")
        queries = count("upir.generate", "queries")
        fed = count("adversary.track", "events")
        readable = count("adversary.track", "readable")
        written = count("upir.transcript.write", "events")
        read = count("upir.transcript.read", "events")
        write_s = total("upir.transcript.write")
        write_log_s = sum(busy[s["id"]] for s in pick("upir.transcript.write")
                          if "events" in s)
        read_s = total("upir.transcript.read")
        build_s = total("geometry.build")
        verify_in_build = sum(busy[s["id"]] for s in pick("geometry.verify")
                              if under(s, "geometry.build"))
        collinearity = pick("geometry.collinearity")
        analytic = pick("adversary.analytic")
        out = {
            "upir.generate_s": gen_s,
            "upir.generate.queries": queries,
            "upir.generate.events": count("upir.generate", "events"),
            "upir.generate.us_per_query": ratio(gen_s, queries) * 1e6,
            "upir.generate.regen_events": count("upir.generate.regen", "events"),
            "upir.paths.calls": self.paths_calls,
            "upir.paths.hit_ratio": ratio(self.paths_hits, self.paths_calls),
            "upir.system_s": total("upir.system"),
            "adversary.track_s": total("adversary.track"),
            "adversary.track.events_fed": fed,
            "adversary.track.events_readable": readable,
            "adversary.track.readable_ratio": ratio(readable, fed),
            "adversary.converge_s": total("adversary.converge"),
            "adversary.converge.self_s": self_time("adversary.converge"),
            "upir.transcript.write_s": write_s,
            "upir.transcript.write_us_per_event": ratio(write_log_s, written) * 1e6,
            "upir.transcript.bytes": count("upir.transcript.write", "bytes"),
            "upir.transcript.events": written,
            "upir.transcript.read_s": read_s,
            "upir.transcript.read_us_per_event": ratio(read_s, read) * 1e6,
            "adversary.infer_s": total("adversary.infer"),
            "geometry.build_s": build_s,
            "geometry.verify_s": total("geometry.verify"),
            "geometry.construct_s": build_s - verify_in_build,
            "geometry.blocks": count("geometry.build", "blocks"),
            "geometry.collinearity.calls": len(collinearity),
            "geometry.collinearity_s": sum(busy[s["id"]] for s in collinearity),
            "geometry.file_write_s": total("geometry.file_write"),
            "geometry.file_read_s": total("geometry.file_read"),
            "adversary.analytic_s": sum(busy[s["id"]] for s in analytic),
            "adversary.analytic.calls": len(analytic),
            "adversary.place_s": total("adversary.place"),
            "adversary.sweep_s": total("adversary.sweep"),
            "adversary.sweep.rows": count("adversary.sweep", "rows"),
            "harness.simulate_s": total("harness.simulate"),
            "harness.analyze_s": total("harness.analyze"),
            "harness.report_write_s": total("harness.report_write"),
            "harness.self_s": self_time("harness."),
        }
        assert set(out) == set(LAYER_METRICS), set(out) ^ set(LAYER_METRICS)
        return out
