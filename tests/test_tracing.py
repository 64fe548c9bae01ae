"""The benchmark's tracer and workloads on the package: every name they wrap
or read exists, and every output check of each workload passes.

``benchmarks/tracing.py`` is loaded from its file, as the benchmark's worker
loads it, so a deletion or rename in the package that would break a traced
benchmark run fails here.  The workloads run as the worker runs them, with
their outputs in a temporary directory.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from nlspair import dynamics, harness
from nlspair.harness import AnalysisOptions

from conftest import gaussian_field

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
TRACING = BENCHMARKS / "tracing.py"


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


@pytest.fixture()
def bench(monkeypatch):
    """The benchmark's ``workloads`` and ``tracing`` modules, imported as the
    worker imports them but with no bytecode written under ``benchmarks/``,
    and dropped again afterwards."""
    names = ("reference", "workloads", "tracing")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("workloads"), importlib.import_module("tracing")
    for name in names:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["headline", "scatter", "analyze"])
def test_workload_checks_pass(bench, tmp_path, name):
    # prepare, instrument, run, observe and check at full size, as
    # benchmarks/worker.py does with tracing on (the three take under 2.5 s)
    workloads, tracing = bench
    workload = workloads.WORKLOADS[name]
    before = sorted(BENCHMARKS.rglob("*"))
    prepared = workload.prepare(1, tmp_path)
    tracer = tracing.Tracer(enabled=True)
    tracer.instrument(capture=workload.capture)
    try:
        with tracer.span("pipeline") as root:
            result = workload.run(prepared, tmp_path / "reports")
        obs = workload.observe(prepared, tmp_path / "reports", tracer.captured, result)
        tracing.layer_metrics(tracer.spans, root)
    finally:
        tracer.restore()
    checks = workload.check(obs)
    assert len(checks) == len(workload.checks) > 0
    assert all(ok for _, ok, _ in checks), [c for c in checks if not c[1]]
    assert harness.run_simulate.__module__ == "nlspair.harness"
    assert sorted(BENCHMARKS.rglob("*")) == before
