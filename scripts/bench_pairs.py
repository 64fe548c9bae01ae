"""Alternating benchmark pairs of two checkouts, and the analytics' resident
set by thread count, as one JSON file.

    python3 scripts/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --out BENCH.json [--note TEXT]

Each of ``PAIRS`` pairs runs ``python3 benchmarks/run.py --workload all
--seed 1``, at run.py's default run length, once in each checkout, the
parent first in the odd pairs and the change first in the even ones, and
records every end-to-end metric of every workload.  A run that prints no
result line is recorded with its exit code and ``correct: false``, and the
script then exits 1 after writing the file.  The summary gives, per workload
and metric, each side's quartiles, the parent's interquartile range, in how
many pairs the change read lower and the change of the median, over the
pairs in which both sides read the metric.

Then, for each checkout, ``RSS_RUNS`` fresh processes run each of two
pipelines with ``profiles._workers`` pinned to 1 and to 2, and record each
process's ``ru_maxrss``: the cost of the pool threads' malloc arenas.  The
``analyze`` probe rewrites the reports of the ``analyze`` workload's stored
run (seed 1); the ``scatter`` probe runs ``nlspair scatter --preset
scatter-roundtrip``, whose Picard construction runs on the pool.  A process
that fails is recorded as null and also makes the exit status 1.

The resolved checkout paths must have the same length, since the analyze
run's ``peak_rss_mb`` moves by 1-2% with it: the script exits 2 before any
run when they do not.  The JSON records both paths.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
WORKLOADS = ("headline", "scatter", "analyze")
PAIRS = 10
RSS_RUNS = 3  # processes per checkout, probe and thread count

# one process each, with the pool pinned to W threads: the analyze workload's
# reports, and the scatter pipeline; each prints its ru_maxrss in MiB last
_RSS_START = """
import resource, sys
from pathlib import Path
tree, workers, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
sys.path[:0] = [tree + "/src", tree + "/benchmarks"]
from nlspair import profiles
if not profiles.__file__.startswith(tree + "/src/"):
    sys.exit(f"nlspair is imported from {profiles.__file__}, not from {tree}")
profiles._workers = lambda: workers
"""
_RSS_END = """
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""
RSS_PROBES = {
    "analyze": _RSS_START + """
import workloads
from nlspair import harness
prepared = workloads.analyze_prepare(1, workdir)
traj = harness.load_trajectory(prepared["run_dir"], prepared["config"])
harness.emit_trajectory_reports(traj, workdir / "reports", prepared["config"].analysis)
""" + _RSS_END,
    "scatter": _RSS_START + """
from nlspair import cli
cli.main(["scatter", "--preset", "scatter-roundtrip", "--out", str(workdir / "scatter")])
""" + _RSS_END,
}


def _env() -> dict:
    """The environment benchmarks/run.py gives its worker: one BLAS thread,
    fixed hashing."""
    return {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}


def bench_once(tree: Path) -> dict:
    """One ``benchmarks/run.py --workload all --seed 1`` in ``tree``: its exit
    code, correctness, operation counts and end-to-end metrics; a run without
    a JSON result as its last line of output is not correct and reads none."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", "all", "--seed", "1"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    run = {"exit": proc.returncode, "correct": result.get("correct", False),
           "attempted": result.get("attempted"), "failed": result.get("failed")}
    for key, metric in result.get("metrics", {}).items():
        run[key] = metric["value"]
    return run


def rss_once(tree: Path, workers: int, probe: str) -> float | None:
    """``ru_maxrss`` in MiB of one process running the pipeline of the
    ``RSS_PROBES`` entry ``probe``; None when the process fails."""
    with tempfile.TemporaryDirectory() as workdir:
        proc = subprocess.run([sys.executable, "-c", RSS_PROBES[probe], str(tree), str(workers),
                               workdir], env=_env(), capture_output=True, text=True)
    return round(float(proc.stdout.split()[-1]), 2) if proc.returncode == 0 else None


def _quartiles(values: list[float]) -> list[float]:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(med, 4), round(q3, 4)]


def summarize(pairs: list[dict]) -> dict:
    """Per workload and metric, over the pairs in which both sides read it:
    both sides' quartiles, the parent's IQR, the pairs in which the change
    read lower and the median's change; None with fewer than two such pairs."""
    summary = {}
    for w in WORKLOADS:
        summary[w] = {}
        for m in METRICS:
            key = f"{w}.{m}"
            read = [(p["parent"][key], p["change"][key]) for p in pairs
                    if key in p["parent"] and key in p["change"]]
            if len(read) < 2:
                summary[w][m] = None
                continue
            parent, change = zip(*read)
            pq, cq = _quartiles(parent), _quartiles(change)
            lower = sum(c < p for p, c in read)
            summary[w][m] = {
                "parent_q1_median_q3": pq, "change_q1_median_q3": cq,
                "parent_iqr": round(pq[2] - pq[0], 4),
                "change_lower_in": f"{lower} of {len(read)} pairs",
                "median_change": f"{100.0 * (cq[1] - pq[1]) / pq[1]:+.1f}%",
            }
    return summary


def machine() -> dict:
    import numpy
    facts = {"platform": platform.platform(), "python": platform.python_version(),
             "numpy": numpy.__version__, "cpus_in_affinity": len(os.sched_getaffinity(0))}
    try:
        mem = Path("/proc/meminfo").read_text().split("\n", 1)[0]
        facts["memory"] = mem.split(":", 1)[1].strip()
    except OSError:
        pass
    return facts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--note", default="", help="description stored with the results")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(sides["parent"])) != len(str(sides["change"])):
        print(f"bench_pairs: the checkout paths {sides['parent']} and {sides['change']} differ "
              f"in length, which moves the analyze run's peak_rss_mb by 1-2%; "
              f"use paths of the same length", file=sys.stderr)
        return 2
    pairs = []
    for i in range(1, PAIRS + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        pair = {"pair": i, "first": order[0]}
        for side in order:
            pair[side] = bench_once(sides[side])
            print(f"pair {i} {side}: " + ", ".join(
                f"{w} {pair[side].get(f'{w}.peak_rss_mb', float('nan')):.1f} MiB "
                f"{pair[side].get(f'{w}.wall_s', float('nan')):.3f} s" for w in WORKLOADS),
                file=sys.stderr)
        pairs.append(pair)
    rss = {probe: {side: {f"workers_{w}": [rss_once(tree, w, probe) for _ in range(RSS_RUNS)]
                          for w in (1, 2)} for side, tree in sides.items()}
           for probe in RSS_PROBES}
    doc = {
        "description": args.note,
        "machine": machine(),
        "checkouts": {side: str(tree) for side, tree in sides.items()},
        "commands": {
            "pairs": f"python3 benchmarks/run.py --workload all --seed 1 in each checkout, "
                     f"{PAIRS} pairs, parent first in the odd pairs",
            "analyze_rss_by_workers": "ru_maxrss of one process rewriting the reports of the "
                                      "analyze workload's stored run (seed 1) with "
                                      "profiles._workers pinned to 1 and to 2",
            "scatter_rss_by_workers": "ru_maxrss of one process running nlspair scatter "
                                      "--preset scatter-roundtrip with profiles._workers "
                                      "pinned to 1 and to 2",
        },
        "all_correct": all(p[s]["correct"] and p[s]["exit"] == 0
                           for p in pairs for s in ("parent", "change")),
        "summary": summarize(pairs),
        "pairs": pairs,
        **{f"{probe}_rss_by_workers": by_side for probe, by_side in rss.items()},
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    rss_read = all(None not in runs for by_side in rss.values()
                   for by_w in by_side.values() for runs in by_w.values())
    return 0 if doc["all_correct"] and rss_read else 1


if __name__ == "__main__":
    sys.exit(main())
