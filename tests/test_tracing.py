"""The benchmark's tracer on the package: every name it wraps or reads exists.

``benchmarks/tracing.py`` is loaded from its file, as the benchmark's worker
loads it, so a deletion or rename in the package that would break a traced
benchmark run fails here.
"""

import importlib.util
from pathlib import Path

import numpy as np

from nlspair import dynamics, harness
from nlspair.harness import AnalysisOptions

from conftest import gaussian_field

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_the_analytics(tmp_path):
    cfg = dynamics.SolverConfig(n_points=256, length=400.0, t_end=120.0,
                                checkpoint_times=tuple(np.geomspace(2.0, 120.0, 20)))
    g = cfg.grid
    state = np.stack([gaussian_field(g, 0.08, 4.0), gaussian_field(g, 0.05, 5.0)])
    tracer = _load_tracing().Tracer(enabled=True)
    tracer.instrument()
    try:
        # through the module attributes, which the tracer has rebound
        traj = dynamics.run(cfg, state)
        harness.emit_trajectory_reports(traj, tmp_path, AnalysisOptions())
    finally:
        tracer.restore()
    spans = {s["name"]: s for s in tracer.spans}
    assert {"dynamics.run", "harness.emit_trajectory_reports", "profiles.profile_history",
            "profiles.remainder_history", "profiles.build_case_records",
            "profiles.decoupling_history"} <= set(spans)
    assert spans["dynamics.run"]["counts"] == {"steps": traj.provenance["n_steps"],
                                               "checkpoints": 20}
    assert spans["profiles.profile_history"]["counts"]["snapshots"] == 20
    assert spans["harness.emit_trajectory_reports"]["counts"]["report_bytes"] > 0
    assert all(s["end"] is not None for s in tracer.spans)
    # restored: the package's own functions are back
    assert harness.emit_trajectory_reports.__module__ == "nlspair.harness"
    assert harness.remainder_history.__name__ == "remainder_history"
