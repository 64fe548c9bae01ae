"""Benchmark of the nlspair pipelines.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload headline --seed 1 --seconds 30 --trace 0

Workloads: ``headline``, ``scatter``, ``analyze``, or ``all`` (each in turn).
Each workload runs in its own fresh worker process, one at a time, with the
thread pools pinned to one thread.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it runs the workload once untraced
and once traced and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check passed and no pipeline failed, 1 otherwise, and 2
when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("headline", "scatter", "analyze")
SETUP_SAMPLES = 5          # set-ups per run (4 set-up-only processes + the measured one)
DEADLINE_S = 175.0         # a run must end within 180 s
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))
PER_LAYER_UNITS = {
    "spectral.fft_calls": "count", "spectral.fft_points": "count",
    "spectral.fft_flop": "flop", "spectral.fft_bytes": "B", "spectral.fft_s": "s",
    "dynamics.run_s": "s", "dynamics.run_self_s": "s", "dynamics.steps": "count",
    "dynamics.checkpoints": "count", "dynamics.fft_calls_per_step": "calls/step",
    "dynamics.us_per_step": "us",
    "scattering.picard_construct_s": "s", "scattering.picard_iters": "count",
    "scattering.picard_fft_calls": "count", "scattering.verify_scattering_s": "s",
    "profiles.profile_history_s": "s", "profiles.remainder_history_s": "s",
    "profiles.build_case_records_s": "s", "profiles.snapshots": "count",
    "profiles.fft_calls_per_snapshot": "calls/snapshot",
    "harness.load_trajectory_s": "s", "harness.checkpoint_bytes_read": "B",
    "harness.emit_reports_self_s": "s", "harness.report_bytes": "B",
    "harness.generate_initial_data_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


class WorkerFailed(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    return env


def spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float,
          setup_only: bool = False) -> dict:
    """Run one worker process to its end and return its JSON result."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"{workload} worker did not finish before the deadline") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tally(result: dict, workload: str) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure messages) over the rounds of one worker.

    A round is one pipeline and its checks; if either raises, the whole
    round counts as failed.
    """
    per_round = 1 + result["n_checks"]
    attempted = failed = 0
    messages = []
    for i, rnd in enumerate(result["rounds"]):
        attempted += per_round
        if rnd["error"] is not None:
            failed += per_round
            messages.append(f"{workload} round {i}: pipeline or check raised")
            continue
        for name, ok, detail in rnd["checks"]:
            if not ok:
                failed += 1
                messages.append(f"{workload} round {i}: check {name} failed: {detail}")
    return attempted, failed, messages


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float):
    """Metrics, attempted, failed and failure messages of one workload."""
    if not trace:
        setups = [spawn(workload, seed, seconds, 0, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        result = spawn(workload, seed, seconds, 0, deadline)
        attempted, failed, messages = tally(result, workload)
        rounds = result["rounds"]
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups + [result["setup_s"]]),
        }
        return {k: (metrics[k], unit) for k, unit in END_TO_END}, attempted, failed, messages

    # the budget is split between an untraced and a traced worker, so the
    # overhead is measured against the same process layout
    plain = spawn(workload, seed, seconds / 2, 0, deadline)
    traced = spawn(workload, seed, seconds / 2, 1, deadline)
    a1, f1, m1 = tally(plain, workload)
    a2, f2, m2 = tally(traced, workload)
    layers = [r["layers"] for r in traced["rounds"]]
    metrics = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
    traced_wall = statistics.median(r["wall_s"] for r in traced["rounds"])
    plain_wall = statistics.median(r["wall_s"] for r in plain["rounds"])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return ({k: (v, PER_LAYER_UNITS[k]) for k, v in metrics.items()},
            a1 + a2, f1 + f2, m1 + m2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed (default 1); only the analyze input depends on it")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="time budget of the timed rounds per worker (at least one round runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nlspair" / "__init__.py").is_file():
        print(f"benchmark: no program under {ROOT / 'src' / 'nlspair'}", file=sys.stderr)
        return 2
    seed = args.seed % 2 ** 32
    deadline = time.monotonic() + DEADLINE_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, messages = {}, 0, 0, []
    for name in names:
        try:
            m, a, f, msg = measure(name, seed, args.seconds, args.trace, deadline)
        except WorkerFailed as exc:
            print(f"benchmark: {exc}", file=sys.stderr)
            return 1
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted, failed, messages = attempted + a, failed + f, messages + msg
    for line in messages:
        print(f"benchmark: {line}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
