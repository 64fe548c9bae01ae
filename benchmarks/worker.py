"""One workload in a fresh process: set up, run timed rounds, check the outputs.

Started by ``run.py`` with the thread pools pinned.  Prints one JSON object
as its last line of standard output:

- ``setup_s``: time from the parent's spawn to the end of input preparation
  (interpreter start, imports, inputs);
- ``rounds``: per round, wall and CPU seconds of the pipeline, the error if it
  raised, the check results, and with ``--trace 1`` the per-layer metrics;
- ``peak_rss_mb``: peak resident set after the first round's pipeline, read
  before any check runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = BENCH_DIR / "out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="the parent's time.monotonic() just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from tracing import Tracer, layer_metrics
    tracer = Tracer(enabled=bool(args.trace))
    if args.trace:
        tracer.install_fft_counters()   # before the program binds any FFT name

    sys.path.insert(0, str(ROOT / "src"))
    import nlspair
    if Path(nlspair.__file__).resolve().parent != ROOT / "src" / "nlspair":
        print(f"benchmark: imported nlspair from {nlspair.__file__}, not from this checkout",
              file=sys.stderr)
        return 3

    import workloads
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT_ROOT / f"{args.workload}-{'traced' if args.trace else 'plain'}"
    prepared = workload.prepare(args.seed, workdir)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer.instrument(capture=workload.capture)
    out_dir = workdir / "reports"
    rounds, peak_rss_mb = [], None
    loop_start = time.perf_counter()
    while True:
        if out_dir.exists():
            shutil.rmtree(out_dir)
        tracer.captured.clear()
        gc.collect()
        w0, c0 = time.perf_counter(), time.process_time()
        error, result, obs = None, None, None
        with tracer.span("pipeline") as root, contextlib.redirect_stdout(sys.stderr):
            try:
                result = workload.run(prepared, out_dir)
            except Exception:
                error = traceback.format_exc()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks = []
        if error is None:
            try:
                obs = workload.observe(prepared, out_dir, tracer.captured, result)
                checks = workload.check(obs)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(error, file=sys.stderr)
        record = {"wall_s": wall, "cpu_s": cpu, "error": error, "checks": checks}
        if args.trace:
            record["layers"] = layer_metrics(tracer.spans, root)
        rounds.append(record)
        del result, obs
        now = time.perf_counter()
        if now - loop_start + (now - w0) > args.seconds:
            break

    if args.trace:
        tracer.write(OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed})
    print(json.dumps({"setup_s": setup_s, "rounds": rounds, "peak_rss_mb": peak_rss_mb,
                      "n_checks": len(workload.checks)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
