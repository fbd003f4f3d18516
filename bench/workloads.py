"""One run of one benchmark workload, in a fresh Python process.

    python3 bench/workloads.py --workload NAME --seed N --size full|smoke \
        --trace 0|1 --out RESULT.json

bench/run.py starts this script once per sample, each time in an empty
scratch directory.  Every output file is written there under a relative
name, so two runs with the same seed write byte-identical files wherever
they run.  The result file holds the phase timings (as measured, and scaled
to the reference CPU speed), peak RSS, the output checks, a SHA-256 digest of every output file and, when traced, the
per-layer metrics and spans.

The workloads drive the public functions of gqupir.harness, adversary, upir
and geometry, looked up as module attributes at call time so that the
tracer in tracing.py can wrap them.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

SIZES = {
    "full": {
        "encrypted-floor": {"topics": 10, "queries": 10_000},
        "plaintext-transcript": {"q": 5, "topics": 20, "queries": 3000},
        "construct-sweep": {"files": (("w3", 9), ("q4", 7)),
                            "sweep_q": (3, 5, 7), "analyze": ("w3", 9)},
    },
    "smoke": {
        "encrypted-floor": {"topics": 2, "queries": 2000},
        "plaintext-transcript": {"q": 3, "topics": 3, "queries": 300},
        "construct-sweep": {"files": (("w3", 5), ("q4", 3)),
                            "sweep_q": (3,), "analyze": ("w3", 5)},
    },
}


# A fixed pure-Python loop, timed just before and just after each sample,
# gives the speed of the CPU at that moment.  On a shared host that speed
# moves by tens of percent for minutes at a time, so timings are reported
# scaled to the speed at which one loop takes REFERENCE_LOOP_S.
REFERENCE_LOOP_S = 1.5e-3


def reference_loop_s():
    """Median time of one 20 000-step integer loop, repeated for 0.25 s."""
    times = []
    end = time.perf_counter() + 0.25
    while time.perf_counter() < end:
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Run:
    """Phase clock and check tally for one workload run.  The clock starts
    before gqupir is imported."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.marks = {}
        self.checks = 0
        self.failures = []

    def mark(self, phase):
        self.marks[phase] = time.perf_counter() - self.t0

    def check(self, ok, what):
        self.checks += 1
        if not ok:
            self.failures.append(what)


def _write_report(report, path):
    from gqupir import harness

    with open(path, "w") as fh:
        harness.write_json(report, fh)


def encrypted_floor(run, size, seed):
    """C7 without on_step: one observer, protocol 2, distance-2 sources, every
    topic runs to the query cap because nothing shrinks the s^2 t class."""
    import numpy as np

    from gqupir import adversary, harness, upir

    gq = harness.build_family("w3", 3)
    system = upir.UPIRSystem(gq.base)
    floor = adversary.analytic_single(gq, 0, 2)
    rng = np.random.default_rng(seed)
    far = sorted(gq.ball(0, 2))
    sources = {f"t{i:03d}": int(rng.choice(far)) for i in range(size["topics"])}
    cap = size["queries"]
    run.mark("setup")

    start = time.perf_counter()
    states = adversary.converge_topics(system, (0,), 2, sources, cap, seed,
                                       analytic=None)
    simulate_s = time.perf_counter() - start
    ordered = [states[t] for t in sorted(states)]
    _write_report({
        "workload": "encrypted-floor", "seed": seed, "queries_cap": cap,
        "per_topic": [{"topic": st.topic, "source": st.source,
                       "rounds": st.rounds_observed,
                       "candidates": sorted(st.candidates)} for st in ordered],
    }, "report.json")
    run.mark("work")

    giant = gq.s * gq.s * gq.t
    for st in ordered:
        cls = floor.class_of(st.source)
        run.check(len(cls) == giant and st.candidates == cls,
                  f"{st.topic}: {len(st.candidates)} candidates, "
                  f"expected the {giant}-class of source {st.source}")
        run.check(st.rounds_observed == cap,
                  f"{st.topic}: stopped after {st.rounds_observed} of {cap}")
    return {"queries": len(ordered) * cap, "simulate_s": simulate_s}


def plaintext_transcript(run, size, seed):
    """Protocol 1 on W(3,q) against a spread coalition of 3, with the
    transcript written, read back and scored against its sidecar."""
    from gqupir import adversary, harness, upir

    q, cap, topics = size["q"], size["queries"], size["topics"]
    gq = harness.build_family("w3", q)
    coalition, _ = harness.resolve_coalition(gq, None, 3, "spread", seed)
    system = upir.UPIRSystem(gq.base)
    floor = adversary.analytic_coalition(gq, coalition, 1)
    run.mark("setup")

    start = time.perf_counter()
    report, ok = harness.run_simulate(gq, "w3", q, 1, coalition, topics, cap,
                                      seed, transcript_prefix="run")
    simulate_s = time.perf_counter() - start
    _write_report(report, "report.json")
    start = time.perf_counter()
    transcript = upir.read_transcript(report["transcript"], system,
                                      report["ground_truth"])
    inferred = adversary.empirical_infer(transcript, coalition, analytic=floor)
    reanalyze_s = time.perf_counter() - start
    _write_report({
        topic: {"candidates": sorted(st.candidates), "converged": st.converged,
                "rounds": st.rounds_observed}
        for topic, st in inferred.items()
    }, "scores.json")
    run.mark("work")

    run.check(ok and report["sound"], "run_simulate reports a source lost")
    classes = set(floor.classes)
    for row in report["per_topic"]:
        if row["converged"]:
            run.check(frozenset(row["candidates"]) in classes,
                      f"{row['topic']}: converged set is not an analytic class")
    with open(report["transcript"], "rb") as fh:
        lines = fh.read().count(b"\n")
    events = transcript.events
    run.check(lines == len(events),
              f"read back {len(events)} events from {lines} lines")
    run.check([ev.seq for ev in events] == list(range(len(events))),
              "transcript sequence numbers are not 0..n-1")
    requests = sum(1 for ev in events if ev.kind == upir.DB_REQUEST)
    run.check(requests == topics * cap,
              f"{requests} database requests in the log, expected {topics * cap}")
    expected = {row["topic"]: row["source"] for row in report["per_topic"]}
    run.check(transcript.ground_truth == expected,
              "sidecar sources differ from the report")
    for topic, source in sorted(transcript.ground_truth.items()):
        st = inferred.get(topic)
        run.check(st is not None and source in st.candidates,
                  f"{topic}: true source {source} not among inferred candidates")
    return {"queries": topics * cap, "simulate_s": simulate_s,
            "reanalyze_s": reanalyze_s}


def construct_sweep(run, size, seed):
    """Construction and verification of the larger quadrangles, the file
    round trip, an encrypted-protocol margin sweep and one plaintext
    analysis.  No events are generated."""
    from gqupir import adversary, geometry, harness

    sweep_keys = [(f, q) for f in ("w3", "q4") for q in size["sweep_q"]]
    built = {}
    for key in list(size["files"]) + sweep_keys + [size["analyze"]]:
        if key not in built:
            built[key] = harness.build_family(*key)
    analyzed = built[size["analyze"]]
    coalition, placement = harness.resolve_coalition(analyzed, None, 3,
                                                     "spread", seed)
    run.mark("setup")

    verified = []
    for family, q in size["files"]:
        gq = built[(family, q)]
        summary = harness.geometry_summary(gq, family, q)
        path = f"{family}_{q}.json"
        geometry.save_geometry(path, gq.base, family, q=q, s=summary["s"],
                               t=summary["t"])
        summary.update({"command": "construct", "out": path})
        _write_report(summary, f"construct_{family}_{q}.json")
        loaded = geometry.load_geometry(path)
        verified.append((family, q, loaded, geometry.verify_gq(loaded.structure)))
    rows = adversary.coalition_sweep(
        [(f, q, built[(f, q)]) for f, q in sweep_keys], 2, (1, 2, 3),
        ("random", "spread", "line"), seed=seed)
    with open("sweep.csv", "w", newline="") as fh:
        harness.write_sweep_csv(rows, fh)
    report, _ = harness.run_analyze(analyzed, *size["analyze"], 1, coalition,
                                    placement=placement)
    _write_report(report, "analyze.json")
    run.mark("work")

    for family, q, loaded, (s, t) in verified:
        run.check((s, t) == (q, q) == (loaded.s, loaded.t),
                  f"{family} q={q}: file verifies to order ({s},{t})")
        n = loaded.structure.n_points
        run.check(n == (q + 1) * (q * q + 1), f"{family} q={q}: {n} points")
    run.check(len(rows) == len(sweep_keys) * 9, f"{len(rows)} sweep rows")
    for r in rows:
        if r.coalition_size == 1:
            run.check(r.giant == r.s * r.s * r.t,
                      f"{r.family} q={r.q} {r.placement}: giant {r.giant}")
        if r.placement == "random":
            run.check(r.within_bound,
                      f"{r.family} q={r.q} size {r.coalition_size}: "
                      f"residue {r.residue} over bound {r.residue_bound}")
    run.check(sum(report["class_sizes"]) == report["n_users"],
              "analyze classes do not partition the users")
    return {}


WORKLOADS = {
    "encrypted-floor": encrypted_floor,
    "plaintext-transcript": plaintext_transcript,
    "construct-sweep": construct_sweep,
}


def _digests(skip):
    out = {}
    for name in sorted(os.listdir(".")):
        if name == skip or not os.path.isfile(name):
            continue
        with open(name, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--size", required=True, choices=sorted(SIZES))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    before = reference_loop_s()
    run = Run()
    import gqupir  # noqa: F401  (import time belongs to setup)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
    extra = WORKLOADS[args.workload](run, SIZES[args.size][args.workload],
                                     args.seed)
    run.mark("wall")
    scale = REFERENCE_LOOP_S / statistics.mean((before, reference_loop_s()))
    measured = {
        "setup_s": run.marks["setup"],
        "work_s": run.marks["work"] - run.marks["setup"],
        "wall_s": run.marks["wall"],
    }
    result = {
        **{name: value * scale for name, value in measured.items()},
        "measured": measured,
        "scale": scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": run.checks,
        "failures": run.failures,
        "extra": {name: value * scale if name.endswith("_s") else value
                  for name, value in extra.items()},
        "digests": _digests(os.path.basename(args.out)),
    }
    if tracer is not None:
        result["layers"] = {name: {"value": value,
                                   "unit": tracing.LAYER_METRICS[name]}
                            for name, value in tracer.metrics().items()}
        result["spans"] = tracer.spans
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
