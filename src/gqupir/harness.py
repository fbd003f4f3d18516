"""Experiment drivers behind the command line.

Everything here is deterministic in its arguments: reports carry no
timestamps or environment detail, JSON keys are sorted, and randomness comes
only from the caller's seed, so rerunning a command reproduces its output
files byte for byte.
"""

import csv
import math
from contextlib import nullcontext
from dataclasses import fields

import numpy as np

from .adversary import (
    SweepRow,
    analytic_coalition,
    coalition_sweep,
    converge_topics,
    empirical_infer,
    place_coalition,
    secure_at,
)
from .fields import field
from .geometry import _dumps, build_pg2, build_q4, build_w3
from .upir import (
    Transcript,
    UPIRSystem,
    _stream_writer,
    iter_protocol_events,  # noqa: F401  (kept for bench/tracing.py to wrap)
    read_transcript,
    write_ground_truth,
    write_transcript,  # noqa: F401  (kept for bench/tracing.py to wrap)
)

FAMILIES = ("pg2", "w3", "q4")


def build_family(family, q):
    """The verified Geometry of a family: pg2 (projective plane), w3 or q4
    (generalised quadrangles)."""
    f = field(q)
    if family == "pg2":
        return build_pg2(f)
    if family == "w3":
        return build_w3(f)
    if family == "q4":
        return build_q4(f)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def geometry_summary(geom, family, q):
    return {
        "family": family,
        "q": q,
        "n_users": geom.n_points,
        "n_spaces": geom.base.n_blocks,
        "s": geom.s,
        "t": geom.t,
    }


def resolve_coalition(geom, explicit, size, placement, seed):
    """Either an explicit member list or a placed one; exactly one of the
    two forms must be given, and a placement only with the placed one."""
    if explicit is not None:
        if size is not None:
            raise ValueError("give --coalition or --coalition-size, not both")
        if placement is not None:
            raise ValueError("give --coalition or --placement, not both")
        if not explicit:
            raise ValueError("coalition must have at least one member")
        members = tuple(sorted(set(explicit)))
        if len(members) != len(explicit):
            raise ValueError("coalition members must be distinct")
        for m in members:
            if not 0 <= m < geom.n_points:
                raise ValueError(f"coalition member {m} out of range")
        return members, None
    if size is None:
        raise ValueError("need --coalition or --coalition-size")
    placement = placement or "random"
    if seed is None:
        raise ValueError("placed coalitions need --seed")
    return place_coalition(geom, size, placement, seed=seed), placement


def run_analyze(geom, family, q, protocol, coalition, epsilon=None,
                placement=None):
    """Analytic partition and margin for a coalition.  Returns (report, ok);
    ok is False when an epsilon requirement was given and missed.  A
    non-finite epsilon is a ValueError."""
    if epsilon is not None and not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    part = analytic_coalition(geom, coalition, protocol)
    margin = part.margin()
    report = geometry_summary(geom, family, q)
    report.update({
        "command": "analyze",
        "protocol": protocol,
        "coalition": list(coalition),
        "placement": placement,
        "n_classes": len(part.classes),
        "class_sizes": list(part.sizes()),
        "classes": [sorted(c) for c in part.classes],
        "giant": margin.giant,
        "residue": margin.residue,
        "epsilon_star": margin.epsilon_star,
        "degenerate": margin.giant <= 1,
        "epsilon": epsilon,
        "secure": None,
    })
    ok = True
    if epsilon is not None:
        ok = secure_at(part, epsilon)
        report["secure"] = ok
    return report, ok


def run_simulate(geom, family, q, protocol, coalition, n_topics, queries,
                 seed, relay_metadata=False, transcript_prefix=None):
    """Simulate per-topic workloads against a coalition and report how far
    each topic's candidate set narrowed.  Returns (report, ok); ok is False
    only if a true source ever left its candidate set, which would mean the
    tracker over-deduced."""
    if n_topics < 1:
        raise ValueError("need at least one topic")
    if queries < 1:
        raise ValueError("need at least one query per topic")
    if relay_metadata and n_topics != 1:
        raise ValueError("metadata linking assumes a single topic")
    system = UPIRSystem(geom.base)
    analytic = None if relay_metadata else analytic_coalition(
        geom, coalition, protocol)
    eligible = sorted(set(range(geom.n_points)) - set(coalition))
    if not eligible:
        raise ValueError("coalition covers every user; nothing to infer")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 917]))
    pad = max(3, len(str(n_topics - 1)))
    sources = {
        f"t{i:0{pad}d}": int(rng.choice(eligible)) for i in range(n_topics)
    }
    with (nullcontext() if transcript_prefix is None
          else _stream_writer(transcript_prefix + ".jsonl")) as log:
        states = converge_topics(system, coalition, protocol, sources,
                                 queries, seed, analytic=analytic,
                                 relay_metadata=relay_metadata, log=log)
    ordered = [states[t] for t in sorted(states)]
    sound = all(st.source in st.candidates for st in ordered)
    conv = [st for st in ordered if st.converged]
    report = geometry_summary(geom, family, q)
    report.update({
        "command": "simulate",
        "protocol": protocol,
        "seed": seed,
        "coalition": list(coalition),
        "relay_metadata": relay_metadata,
        "topics": n_topics,
        "queries_cap": queries,
        "sound": sound,
        "converged": len(conv),
        "converged_fraction": len(conv) / n_topics,
        "mean_rounds_to_converge":
            None if not conv else sum(st.rounds_observed for st in conv) / len(conv),
        "per_topic": [_topic_row(st, st.source) for st in ordered],
    })
    if transcript_prefix is not None:
        report["transcript"] = transcript_prefix + ".jsonl"
        report["ground_truth"] = transcript_prefix + ".truth.json"
        write_ground_truth(Transcript(system, protocol, seed, (), sources),
                           report["ground_truth"])
    return report, sound


def _topic_row(st, source):
    """One topic's entry in a simulate or infer report."""
    return {
        "topic": st.topic,
        "source": source,
        "rounds": st.rounds_observed,
        "converged": st.converged,
        "n_candidates": len(st.candidates),
        "candidates": sorted(st.candidates),
    }


def run_infer(geom, family, q, coalition, log_path, truth_path):
    """Read a transcript log and its sidecar, run the coalition's tracker
    over the log with the analytic floor of the sidecar's protocol, and
    score each topic of the sidecar against its source.  A topic's rounds
    are its queries in the log; a topic the coalition never observed keeps
    every user outside the coalition.  Returns (report, ok); ok is False
    only if a true source left its candidate set.  A source inside the
    coalition is a ValueError."""
    system = UPIRSystem(geom.base)
    transcript = read_transcript(log_path, system, truth_path)
    truth = transcript.ground_truth
    inside = sorted(set(truth.values()) & set(coalition))
    if inside:
        raise ValueError(f"{truth_path}: source {inside[0]} is inside the "
                         "coalition")
    states = empirical_infer(transcript, coalition, analytic=analytic_coalition(
        geom, coalition, transcript.protocol))
    rows = [{**_topic_row(states[topic], source),
             "source_survived": source in states[topic].candidates}
            for topic, source in sorted(truth.items())]
    sound = all(row["source_survived"] for row in rows)
    report = geometry_summary(geom, family, q)
    report.update({
        "command": "infer",
        "protocol": transcript.protocol,
        "seed": transcript.seed,
        "coalition": list(coalition),
        "events": len(transcript.seq),
        "topics": len(rows),
        "sound": sound,
        "converged": sum(row["converged"] for row in rows),
        "per_topic": rows,
    })
    return report, sound


def run_sweep(families, qs, protocol, sizes, placements, seed):
    for flag, values in (("--family", families), ("--q", qs),
                         ("--coalition-size", sizes),
                         ("--placement", placements)):
        if not values:
            raise ValueError(f"{flag} needs at least one value")
    geoms = []
    for family in families:
        if family == "pg2":
            raise ValueError("sweeps cover the quadrangle families")
        for q in qs:
            geoms.append((family, q, build_family(family, q)))
    return coalition_sweep(geoms, protocol, sizes, placements, seed=seed)


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


def write_sweep_csv(rows, fh):
    """The sweep table as CSV: a header of SWEEP_COLUMNS, then one line per
    SweepRow with its fields in that order, the coalition as space-separated
    member ids and within_bound as 0 or 1."""
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(SWEEP_COLUMNS)
    w.writerows([{**vars(r), "coalition": " ".join(map(str, r.coalition)),
                  "within_bound": int(r.within_bound)}.values() for r in rows])


def report_text(report):
    """A report as written: JSON with sorted keys, indented one space, and a
    newline.  A value JSON cannot encode raises TypeError."""
    return _dumps(report, sort_keys=True) + "\n"


def write_json(report, fh):
    """Write report_text(report) to fh in one call, so a report that cannot
    be encoded writes nothing."""
    fh.write(report_text(report))
