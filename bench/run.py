"""Run the gqupir benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout; the package is imported from src/.  Each
sample is one run of the workload in a fresh child Python process
(bench/workloads.py), so that import and set-up are paid again and peak RSS
belongs to that workload alone.  Samples run one after another until the
next one would end past --seconds, with at least MIN_SAMPLES of them, and
the end-to-end metrics are their medians.  Timings are scaled to a
reference CPU speed (see workloads.reference_loop_s); the detail line also
holds them as measured.

With --trace 1 the samples come in pairs, one untraced and one traced with
the same seed, in alternating order.  The metrics are then the per-layer
medians of the traced samples plus trace.overhead_frac, the traced median
wall time over the untraced one, minus one.

Every sample checks its outputs, and every sample's output files must match
the first sample's byte for byte: same seed, traced or not.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the samples, quartiles,
reported-only metrics and provenance.  The exit code is 0 when every check
passed, 1 when one failed and 2 when no gqupir sources are found.

--smoke runs every workload at a tiny size, once untraced and once traced,
with all checks, in a few seconds.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("encrypted-floor", "plaintext-transcript", "construct-sweep")
END_TO_END = {"wall_s": "s", "setup_s": "s", "work_s": "s", "peak_rss_mb": "MB"}
# Never used while the benchmark was tuned: recheck a gain claim on it.
HELD_OUT_SEED = 5261
MIN_SAMPLES = 3
RUN_LIMIT_S = 150
CHILD_TIMEOUT_S = 120


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git (which would
    search the parent directories when there is no repository here)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(tmp):
    src = ROOT / "src" / "gqupir"
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "src_gqupir_lines": sum(p.read_bytes().count(b"\n")
                                for p in sorted(src.glob("*.py"))),
        "scratch_dir": f"{tmp.relative_to(ROOT)} (removed after the run)",
        "transcript_read": "page-cache warm: each transcript is read right "
                           "after it is written; caches are not dropped",
        "held_out_seed": HELD_OUT_SEED,
    }


def run_child(workload, seed, size, trace, tmp, index):
    """One sample in a fresh process and an empty directory; returns its
    result dict, or a string saying why there is none."""
    cwd = tmp / f"{index:03d}"
    cwd.mkdir()
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(trace)),
           "--out", "result.json"]
    try:
        proc = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            return f"{workload} sample {index} exited with {proc.returncode}"
        with open(cwd / "result.json") as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        return f"{workload} sample {index} timed out"
    finally:
        shutil.rmtree(cwd)


def _spread(values):
    q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


class Samples:
    """Sample results of one workload, with the check tally."""

    def __init__(self):
        self.plain = []
        self.traced = []
        self.attempted = 0
        self.failures = []
        self._digests = None

    def add(self, result, traced):
        self.attempted += 1
        if isinstance(result, str):
            self.failures.append(result)
            return
        self.attempted += result["checks"]
        self.failures += result["failures"]
        if self._digests is None:
            self._digests = result["digests"]
        else:
            self.attempted += 1
            if result["digests"] != self._digests:
                self.failures.append(
                    f"{'traced' if traced else 'untraced'} sample wrote "
                    "different output files from the first sample")
        (self.traced if traced else self.plain).append(result)

    def median(self, key, traced=False):
        return statistics.median(r[key] for r in
                                 (self.traced if traced else self.plain))


def measure(workload, seed, seconds, trace, tmp):
    samples = Samples()
    start = time.monotonic()
    rounds = 0
    while not samples.failures:
        order = [False]
        if trace:
            order = [False, True] if rounds % 2 == 0 else [True, False]
        for traced in order:
            result = run_child(workload, seed, "full", traced, tmp,
                               len(samples.plain) + len(samples.traced))
            samples.add(result, traced)
        rounds += 1
        projected = (time.monotonic() - start) * (rounds + 1) / rounds
        if projected > RUN_LIMIT_S or (rounds >= MIN_SAMPLES and projected > seconds):
            break
    return samples


def report(workload, seed, trace, samples, tmp):
    """Print the detail line and the result line; return the result."""
    ok = not samples.failures
    detail = {"workload": workload, "seed": seed, "trace": trace,
              "samples": len(samples.plain), "traced_samples": len(samples.traced),
              "failures": samples.failures[:20],
              "failed_frac": len(samples.failures) / samples.attempted,
              "provenance": provenance(tmp)}
    metrics = {}
    if ok:
        plain = samples.plain
        detail["end_to_end"] = {
            name: dict(_spread([r[name] for r in plain]), unit=unit)
            for name, unit in END_TO_END.items()}
        detail["measured"] = {
            name: dict(_spread([r["measured"][name] for r in plain]), unit="s")
            for name in plain[0]["measured"]}
        detail["scale"] = [r["scale"] for r in plain]
        extra = plain[0]["extra"]
        reported = {}
        if "queries" in extra:
            reported["queries_per_s"] = dict(_spread(
                [r["extra"]["queries"] / r["extra"]["simulate_s"] for r in plain]),
                unit="1/s")
        if "reanalyze_s" in extra:
            reported["reanalyze_s"] = dict(_spread(
                [r["extra"]["reanalyze_s"] for r in plain]), unit="s")
        detail["reported"] = reported
        if trace:
            traced = samples.traced
            for name, layer in traced[0]["layers"].items():
                metrics[name] = {
                    "value": statistics.median(r["layers"][name]["value"]
                                               for r in traced),
                    "unit": layer["unit"]}
            metrics["trace.overhead_frac"] = {
                "value": samples.median("wall_s", traced=True)
                / samples.median("wall_s") - 1,
                "unit": "ratio"}
            detail["spans"] = traced[-1]["spans"]
        else:
            metrics = {name: {"value": samples.median(name), "unit": unit}
                       for name, unit in END_TO_END.items()}
    result = {"correct": ok, "attempted": samples.attempted,
              "failed": len(samples.failures), "metrics": metrics}
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return result


def smoke(tmp):
    """Every workload at the smoke size, untraced then traced."""
    results = []
    for workload in WORKLOADS:
        samples = Samples()
        for traced in (False, True):
            samples.add(run_child(workload, 1, "smoke", traced, tmp,
                                  len(samples.plain) + len(samples.traced)),
                        traced)
        results.append(report(workload, 1, 1, samples, tmp))
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="gqupir benchmark: end-to-end metrics untraced, "
                    "per-layer metrics with --trace 1")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and None in (args.workload, args.seed, args.seconds):
        parser.error("need --workload, --seed and --seconds, or --smoke")
    if not (ROOT / "src" / "gqupir" / "__init__.py").is_file():
        print(f"error: no gqupir sources under {ROOT / 'src'}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    # a SIGTERM unwinds through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        if args.smoke:
            results = smoke(tmp)
        else:
            workloads = WORKLOADS if args.workload == "all" else (args.workload,)
            results = [
                report(w, args.seed, args.trace,
                       measure(w, args.seed, args.seconds, args.trace, tmp),
                       tmp)
                for w in workloads]
    finally:
        shutil.rmtree(tmp)
        try:
            scratch.rmdir()
        except OSError:
            pass
    if len(results) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{name}": m for w, r in zip(WORKLOADS, results)
                        for name, m in r["metrics"].items()},
        }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
