"""Error against work of step policies on the decoupling-headline preset.

Runs the preset's solver once per policy and once with a refined reference
policy.  For each run it reports the steps taken, the wall time of
``dynamics.run``, the free-flow multipliers evaluated, the drift of the mass
difference (the max over checkpoints of ``|ledger[:, 2] - ledger[0, 2]|``),
the relative L2 error of the final ``(2, N)`` profile stack against the
reference, and how many case labels differ from the reference's.  Prints one
JSON object.

    PYTHONPATH=src python3 scripts/step_sweep.py \\
        --policies 0.32:0.128,0.16:6.4e-2,0.16:3.2e-2,0.08:1.6e-2

A policy is written ``dt:rate``.  Run it on an idle machine: the wall times
are single runs.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import replace

import numpy as np

from nlspair import dynamics
from nlspair.dynamics import DtPolicy, run
from nlspair.harness import generate_initial_data, preset_decoupling_headline
from nlspair.profiles import build_case_records, profile_history


def _policy(text: str) -> DtPolicy:
    dt, rate = text.split(":")
    return DtPolicy(float(dt), float(rate))


def measure(policy: DtPolicy) -> dict:
    """One headline run under ``policy``: its cost, final profiles and labels."""
    cfg = preset_decoupling_headline()
    solver = replace(cfg.solver, dt_policy=policy)
    state = generate_initial_data(cfg.data1, cfg.data2, solver.grid, cfg.seed)
    taus = []
    real = dynamics._free_multiplier_fft
    dynamics._free_multiplier_fft = lambda grid, tau: taus.append(tau) or real(grid, tau)
    try:
        t0 = time.perf_counter()
        traj = run(solver, state)
        wall = time.perf_counter() - t0
    finally:
        dynamics._free_multiplier_fft = real
    profiles = profile_history(traj)
    table = build_case_records(profiles)
    return {"policy": {"dt": policy.dt, "rate": policy.rate},
            "steps": traj.provenance["n_steps"], "run_wall_s": wall,
            "multiplier_evaluations": len(taus),
            "mass_diff_drift": float(np.max(np.abs(traj.ledger[:, 2] - traj.ledger[0, 2]))),
            "final": profiles.last, "labels": table.label}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--policies", default="0.32:0.128,0.16:6.4e-2,0.16:3.2e-2,0.08:1.6e-2",
                    help="comma-separated dt:rate pairs")
    ap.add_argument("--reference", default="0.01:5e-4", help="refined dt:rate")
    args = ap.parse_args(argv)
    ref = measure(_policy(args.reference))
    rows = []
    for text in args.policies.split(","):
        m = measure(_policy(text))
        m["rel_l2_error"] = float(np.linalg.norm(m.pop("final") - ref["final"])
                                  / np.linalg.norm(ref["final"]))
        m["labels_flipped"] = int(np.sum(m.pop("labels") != ref["labels"]))
        rows.append(m)
    del ref["final"], ref["labels"]
    print(json.dumps({"preset": "decoupling-headline", "reference": ref, "runs": rows},
                     indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
