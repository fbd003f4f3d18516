"""Command line front end.

Subcommands: construct, verify, analyze, simulate, sweep.  Exit status 0 on
success, 1 when a verification or security claim fails, 2 for bad
configuration, a file that cannot be read or written included.  Reports go
to --out when given, else stdout; rerunning a command with the same
arguments reproduces its output byte for byte.
"""

import argparse
import sys

from .adversary import DegeneratePartition
from .geometry import (
    AxiomViolation,
    Geometry,
    VerificationFailed,
    load_geometry,
    save_geometry,
)
from .harness import (
    FAMILIES,
    build_family,
    geometry_summary,
    resolve_coalition,
    run_analyze,
    run_simulate,
    run_sweep,
    write_json,
    write_sweep_csv,
)
from .upir import DisconnectedError, NotDiameterBoundedError


def _int_list(text):
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text!r}")


def _str_list(text):
    return [x for x in text.split(",") if x != ""]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gqupir",
        description="incidence-geometry private retrieval: construction, "
                    "simulation and pseudonymity analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a geometry and write it out")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="re-verify a geometry file")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("analyze", help="analytic pseudonymity partition")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--q", type=int)
    p.add_argument("--in", dest="infile")
    p.add_argument("--protocol", required=True, type=int, choices=(1, 2))
    p.add_argument("--coalition", type=_int_list)
    p.add_argument("--coalition-size", type=int)
    p.add_argument("--placement", choices=("random", "spread", "line"))
    p.add_argument("--seed", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--out")

    p = sub.add_parser("simulate", help="run workloads against a coalition")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--protocol", required=True, type=int, choices=(1, 2))
    p.add_argument("--coalition", type=_int_list)
    p.add_argument("--coalition-size", type=int)
    p.add_argument("--placement", choices=("random", "spread", "line"))
    p.add_argument("--topics", type=int, default=1)
    p.add_argument("--queries", type=int, default=1000)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--relay-metadata", action="store_true")
    p.add_argument("--transcript", help="prefix for .jsonl and .truth.json logs")
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="margin table over sizes and placements")
    p.add_argument("--family", required=True, type=_str_list,
                   help="comma list, e.g. w3,q4")
    p.add_argument("--q", required=True, type=_int_list,
                   help="comma list, e.g. 3,5,7")
    p.add_argument("--protocol", required=True, type=int, choices=(1, 2))
    p.add_argument("--coalition-size", required=True, type=_int_list)
    p.add_argument("--placement", required=True, type=_str_list)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out")
    return parser


def _emit(report, out):
    if out is None:
        write_json(report, sys.stdout)
    else:
        with open(out, "w") as fh:
            write_json(report, fh)


def _read_geom(path):
    """(geometry, family, q) from a geometry file, verified as its family.
    Every order field the file carries must match, None meaning null: a
    plane of order q has s = q and no t, and q names a quadrangle's order
    only when s == t."""
    gf = load_geometry(path)
    geom = Geometry.from_structure(gf.structure, gf.family)
    s, t = geom.s, geom.t
    want = {"q": s if t in (None, s) else None, "s": s, "t": t}
    wrong = [f"{k}={v}" for k, v in (("q", gf.q), ("s", gf.s), ("t", gf.t))
             if v is not None and v != want[k]]
    if wrong:
        have = f"q={s}" if t is None else f"order ({s},{t})"
        raise AxiomViolation(
            f"file claims {', '.join(wrong)}, structure has {have}")
    return geom, gf.family, gf.q


def _load_geom(args):
    if args.infile is not None:
        if args.family is not None or args.q is not None:
            raise ValueError("give --in or --family/--q, not both")
        return _read_geom(args.infile)
    if args.family is None or args.q is None:
        raise ValueError("need --family and --q (or --in)")
    return build_family(args.family, args.q), args.family, args.q


def _cmd_construct(args):
    geom = build_family(args.family, args.q)
    summary = geometry_summary(geom, args.family, args.q)
    save_geometry(args.out, geom.base, args.family, q=args.q, s=geom.s, t=geom.t)
    summary["command"] = "construct"
    summary["out"] = args.out
    write_json(summary, sys.stdout)
    return 0


def _cmd_verify(args):
    geom, family, _ = _read_geom(args.infile)
    s, t = geom.s, geom.t
    report = {"command": "verify", "family": family, "valid": True}
    report.update({"q": s} if t is None else {"s": s, "t": t})
    write_json(report, sys.stdout)
    return 0


def _cmd_analyze(args):
    if args.coalition is not None and args.seed is not None:
        raise ValueError("give --coalition or --seed, not both")
    geom, family, q = _load_geom(args)
    coalition, placement = resolve_coalition(
        geom, args.coalition, args.coalition_size, args.placement, args.seed)
    report, ok = run_analyze(geom, family, q, args.protocol, coalition,
                             epsilon=args.epsilon, placement=placement)
    _emit(report, args.out)
    if not ok:
        print(f"claim failed: residue {report['residue']} exceeds "
              f"n^(1-{args.epsilon})", file=sys.stderr)
        return 1
    return 0


def _cmd_simulate(args):
    geom = build_family(args.family, args.q)
    coalition, _ = resolve_coalition(
        geom, args.coalition, args.coalition_size, args.placement, args.seed)
    report, ok = run_simulate(
        geom, args.family, args.q, args.protocol, coalition, args.topics,
        args.queries, args.seed, relay_metadata=args.relay_metadata,
        transcript_prefix=args.transcript)
    _emit(report, args.out)
    if not ok:
        print("soundness violated: a source left its candidate set",
              file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args):
    rows = run_sweep(args.family, args.q, args.protocol, args.coalition_size,
                     args.placement, args.seed)
    if args.out is None:
        write_sweep_csv(rows, sys.stdout)
    else:
        with open(args.out, "w", newline="") as fh:
            write_sweep_csv(rows, fh)
    return 0


_COMMANDS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationFailed, AxiomViolation, DisconnectedError,
            NotDiameterBoundedError, DegeneratePartition) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
