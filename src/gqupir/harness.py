"""Experiment drivers behind the command line.

Everything here is deterministic in its arguments: reports carry no
timestamps or environment detail, JSON keys are sorted, and randomness comes
only from the caller's seed, so rerunning a command reproduces its output
files byte for byte.
"""

import csv
import json

import numpy as np

from .adversary import (
    analytic_coalition,
    coalition_sweep,
    converge_topics,
    place_coalition,
    secure_at,
)
from .fields import field
from .geometry import build_pg2, build_q4, build_w3
from .upir import (
    Transcript,
    UPIRSystem,
    iter_protocol_events,  # noqa: F401  (kept for bench/tracing.py to wrap)
    write_ground_truth,
    write_transcript,
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
    two forms must be given."""
    if explicit is not None:
        if size is not None:
            raise ValueError("give --coalition or --coalition-size, not both")
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
    ok is False when an epsilon requirement was given and missed."""
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
    events = None if transcript_prefix is None else []
    states = converge_topics(system, coalition, protocol, sources, queries,
                             seed, analytic=analytic,
                             relay_metadata=relay_metadata, log=events)
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
        "per_topic": [
            {
                "topic": st.topic,
                "source": st.source,
                "rounds": st.rounds_observed,
                "converged": st.converged,
                "n_candidates": len(st.candidates),
                "candidates": sorted(st.candidates),
            }
            for st in ordered
        ],
    })
    if transcript_prefix is not None:
        log, truth = _write_logs(system, protocol, seed, sources, events,
                                 transcript_prefix)
        report["transcript"] = log
        report["ground_truth"] = truth
    return report, sound


def _write_logs(system, protocol, seed, sources, events, prefix):
    """Log every topic's full event stream, topic after topic, with one
    sequence across the file, and the ground truth beside it."""
    for seq, ev in enumerate(events):
        ev.seq = seq
    combined = Transcript(system, protocol, seed, events, dict(sources))
    log_path = prefix + ".jsonl"
    truth_path = prefix + ".truth.json"
    write_transcript(combined, log_path)
    write_ground_truth(combined, truth_path)
    return log_path, truth_path


def run_sweep(families, qs, protocol, sizes, placements, seed):
    geoms = []
    for family in families:
        if family == "pg2":
            raise ValueError("sweeps cover the quadrangle families")
        for q in qs:
            geoms.append((family, q, build_family(family, q)))
    return coalition_sweep(geoms, protocol, sizes, placements, seed=seed)


SWEEP_COLUMNS = (
    "family", "q", "s", "t", "n_users", "protocol", "coalition_size",
    "placement", "coalition", "giant", "residue", "epsilon_star",
    "residue_bound", "within_bound",
)


def write_sweep_csv(rows, fh):
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(SWEEP_COLUMNS)
    for r in rows:
        w.writerow([
            r.family, r.q, r.s, r.t, r.n_users, r.protocol, r.coalition_size,
            r.placement, " ".join(str(m) for m in r.coalition),
            r.giant, r.residue, r.epsilon_star, r.residue_bound,
            int(r.within_bound),
        ])


def write_json(report, fh):
    json.dump(report, fh, indent=1, sort_keys=True)
    fh.write("\n")
