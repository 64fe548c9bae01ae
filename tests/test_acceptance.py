"""Acceptance suite: the end-to-end desk-scale checks, one per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live).  The expensive runs are shared through module-scoped fixtures; the
whole module stays within a few minutes on a laptop-class machine.
"""

import json
import math
import time

import numpy as np
import pytest

import nlspair as nl
from nlspair import asymptotics as asy
from nlspair import scattering as sc
from nlspair.cli import main
from nlspair.dynamics import (
    DtPolicy,
    SolverConfig,
    _decay_substep,
    mass_ledger,
    run,
)
from nlspair.fits import loglog_slope
from nlspair.harness import (
    SCATTER_PRESETS,
    ExperimentConfig,
    generate_initial_data,
    load_checkpoint,
    persist_checkpoint,
    preset_decoupling_headline,
    preset_obstruction,
    preset_scatter_roundtrip,
    preset_short_range_contrast,
    preset_symmetric_log_decay,
    run_obstruction,
    run_scatter_roundtrip,
    run_simulate,
)
from nlspair.profiles import (
    build_case_records,
    decoupling_history,
    profile_history,
    remainder_history,
)
from nlspair.spectral import _forward_array, _inverse_array

from conftest import bandlimited_field, free_flow, gaussian_field, l2, rel_l2, strang_step


def _report(num: int, passed: bool, detail: str) -> bool:
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE C{num:02d} {tag}: {detail}")
    return passed


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def headline():
    cfg = preset_decoupling_headline()
    state = generate_initial_data(cfg.data1, cfg.data2, cfg.solver.grid, cfg.seed)
    traj = run(cfg.solver, state)
    profiles = profile_history(traj)
    probes = remainder_history(traj, profiles)
    table = build_case_records(profiles, probes)
    return {"cfg": cfg, "traj": traj, "profiles": profiles, "probes": probes, "table": table}


@pytest.fixture(scope="module")
def symmetric():
    cfg = preset_symmetric_log_decay()
    state = generate_initial_data(cfg.data1, cfg.data2, cfg.solver.grid, cfg.seed)
    traj = run(cfg.solver, state)
    return {"cfg": cfg, "traj": traj, "profiles": profile_history(traj)}


@pytest.fixture(scope="module")
def scatter(tmp_path_factory):
    out = tmp_path_factory.mktemp("scatter")
    return {**run_scatter_roundtrip(preset_scatter_roundtrip(), out), "out": out}


@pytest.fixture(scope="module")
def obstruction(tmp_path_factory):
    out = tmp_path_factory.mktemp("obstruction")
    return {**run_obstruction(preset_obstruction(), out), "out": out}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_mass_difference_conserved(headline):
    mass1, mass2, diff, _ = headline["traj"].ledger.T
    total0 = mass1[0] + mass2[0]
    drift = np.max(np.abs(diff - diff[0]))
    ok = drift <= 1e-8 * total0
    assert _report(1, ok, f"max |diff(t)-diff(0)| = {drift:.3e} "
                          f"vs 1e-8 * total = {1e-8 * total0:.3e}")


def test_c02_dissipation_rate_order():
    g = nl.Grid(256, 60.0)
    state0 = np.stack([gaussian_field(g, 0.4, 3.0),
                       gaussian_field(g, 0.25, 4.0, velocity=0.2)])

    def residuals(dt, T=2.0):
        state = state0
        ts, ledgers = [0.0], [mass_ledger(g, state)]
        for _ in range(round(T / dt)):
            state = strang_step(g, state, ts[-1], dt)
            ts.append(ts[-1] + dt)
            ledgers.append(mass_ledger(g, state))
        (m1_0, m2_0, _, _), (m1, m2, _, _) = ledgers[0], ledgers[-1]
        inter = np.trapezoid([row[3] for row in ledgers], np.array(ts))
        # each component dissipates at rate 2 * interaction, the total at 4x
        r1 = abs(m1 - m1_0 + 2 * inter)
        rt = abs(m1 + m2 - m1_0 - m2_0 + 4 * inter)
        return r1, rt

    res = {dt: residuals(dt) for dt in (0.04, 0.02, 0.01)}
    orders = [math.log2(res[0.04][k] / res[0.02][k]) for k in range(2)]
    orders += [math.log2(res[0.02][k] / res[0.01][k]) for k in range(2)]
    ok = all(o >= 1.9 for o in orders)
    assert _report(2, ok, f"observed orders {['%.3f' % o for o in orders]} (need >= 1.9)")


def test_c03_profile_decoupling(headline):
    dec = decoupling_history(headline["profiles"])
    ratio = dec.sup_products[-1] / dec.sup_products[0]
    t_end = headline["cfg"].solver.t_end
    dyadic = sorted(t_end / 2.0 ** k for k in range(10))
    sups = []
    for td in dyadic:
        i = int(np.argmin(np.abs(dec.ts - td)))
        sups.append(dec.sup_products[i])
    mono = all(b <= 1.05 * a for a, b in zip(sups, sups[1:]))
    ok = ratio <= 0.2 and mono
    assert _report(3, ok, f"sup-product ratio T vs t=2: {ratio:.4f} (tol 0.2); "
                          f"last-10-dyadic nonincreasing within 5%: {mono}")


def test_c04_survivor_decay_rates(headline):
    table = headline["table"]
    dead = table.deadband
    sel = (table.m_a > 3.0 * dead) & ~np.isnan(table.fitted_exponent)
    m = table.m_a[sel]
    err = np.abs(table.fitted_exponent[sel] + m) / m
    tested, bad, worst = int(np.sum(sel)), int(np.sum(err > 0.2)), float(np.max(err, initial=0.0))
    ok = tested > 50 and bad == 0
    assert _report(4, ok, f"{tested} frequencies with m > 3*deadband({dead:.2e}); "
                          f"worst |slope+m|/m = {worst:.3f} (tol 0.2), {bad} failures")


def test_c05_balanced_log_decay(symmetric):
    profiles = symmetric["profiles"]
    ts = profiles.ts
    sup_xi = np.max(np.abs(profiles.alpha[:, 0]), axis=-1)
    sel = ts >= 100.0
    scaled = sup_xi[sel] * np.sqrt(np.log(ts[sel]))
    tsel = ts[sel]
    edges = [100.0]
    while edges[-1] * 2.0 < 1e4 * 1.0001:
        edges.append(edges[-1] * 2.0)
    edges.append(1e4 * 1.0001)
    sups = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = (tsel >= lo) & (tsel <= hi)
        if np.any(m):
            sups.append(float(np.max(scaled[m])))
    ratios = [b / a for a, b in zip(sups, sups[1:])]
    windows_ok = max(ratios) <= 1.10

    traj = symmetric["traj"]
    late = traj.ts >= 100.0
    linf = zip(traj.ts[late], np.max(np.abs(traj.states[late]), axis=(1, 2)))
    bounded = np.array([u * math.sqrt(t) * math.sqrt(math.log(t)) for t, u in linf])
    linf_ok = np.max(bounded) <= 1.25 * bounded[0]
    ok = windows_ok and linf_ok
    assert _report(5, ok, f"windowed-sup ratios max {max(ratios):.4f} (tol 1.10); "
                          f"Linf bound max/first {np.max(bounded) / bounded[0]:.4f} (tol 1.25)")


def test_c06_reduced_flow_shadowing(headline):
    profiles = headline["profiles"]
    ts, alpha = profiles.ts, profiles.alpha
    errs = {}
    for tc in (10.0, 100.0, 1000.0):
        i = int(np.argmin(np.abs(ts - tc)))
        red = asy.reduced_flow_profiles(alpha[i], ts[i], ts[-1])
        errs[tc] = np.max(np.abs(red - alpha[-1]), axis=0)
    amp0 = np.abs(alpha[0, 0])
    strong = np.where(amp0 >= 0.05 * np.max(amp0))[0][::16]
    bad = sum(1 for k in strong
              if not errs[10.0][k] > errs[100.0][k] > errs[1000.0][k])
    ok = len(strong) >= 50 and bad == 0
    assert _report(6, ok, f"hand-off error monotone at {len(strong) - bad}/{len(strong)} "
                          f"sampled frequencies")


def test_c07_oracle_equivalence():
    # closed-form substep vs pointwise RK4
    u1 = np.full(8, math.sqrt(2.0) * np.exp(0.7j))
    u2 = np.full(8, np.exp(-0.3j))
    out = np.stack([u1, u2])
    _decay_substep(out, 0.3)
    h = 0.3 / 10000
    v = np.array([u1[0], u2[0]])
    for _ in range(10000):
        f = lambda w: np.array([-abs(w[1]) ** 2 * w[0], -abs(w[0]) ** 2 * w[1]])
        k1 = f(v); k2 = f(v + 0.5 * h * k1); k3 = f(v + 0.5 * h * k2); k4 = f(v + h * k3)
        v = v + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    sub_err = max(abs(out[0, 0] - v[0]), abs(out[1, 0] - v[1]))

    # strang vs interaction-picture RK4 at T = 10
    g2 = nl.Grid(512, 300.0)
    state2 = np.stack([gaussian_field(g2, 0.1, 4.0),
                       gaussian_field(g2, 0.05, 5.0, velocity=0.15)])
    kw = dict(n_points=512, length=300.0, t_start=0.0, t_end=10.0,
              dt_policy=DtPolicy.fixed(0.005), checkpoint_times=(10.0,))
    a = run(SolverConfig(**kw), state2).states[-1]
    b = run(SolverConfig(scheme="rk4_reference", **kw), state2).states[-1]
    scheme_err = math.hypot(*l2(g2, a - b)) / math.hypot(*l2(g2, a))
    ok = sub_err <= 1e-10 and scheme_err <= 1e-6
    assert _report(7, ok, f"substep vs RK4 pointwise {sub_err:.2e} (tol 1e-10); "
                          f"strang vs rk4 at T=10: {scheme_err:.2e} (tol 1e-6)")


def test_c08_lemma_certificates():
    t0 = time.perf_counter()
    ok = True
    worst_m = math.inf
    for params, ts, phis in asy.default_lemma_m_sweep():
        cert = asy.lemma_m_certificate(params, ts, phis)
        ok &= cert.passed
        worst_m = min(worst_m, cert.worst_margin)
    worst_l = math.inf
    for rec, lam_fn, q_fn in asy.default_linear_ode_sweep():
        rep = asy.linear_ode_limit(rec, asy.solve_linear_record(rec, lam_fn, q_fn))
        ok &= rep.passed
        worst_l = min(worst_l, rep.worst_margin)
    wall = time.perf_counter() - t0
    ok = ok and wall < 30.0
    assert _report(8, ok, f"log-decay margin {worst_m:.3f}, linear-limit margin "
                          f"{worst_l:.3f}, wall {wall:.1f}s (< 30s)")


def test_c09_scattering_construction(scatter):
    state = scatter["state"]
    ratios_ok = len(state.ratios) >= 1 and min(state.ratios[:3]) <= 0.5 \
        and all(r <= 0.5 for r in state.ratios[:3])
    rep = sc.verify_scattering(scatter["traj"], scatter["spec"])
    slope_ok = rep.fitted_slope is not None and rep.fitted_slope <= rep.slope_bound
    ok = ratios_ok and slope_ok
    assert _report(9, ok, f"contraction ratios {['%.4f' % r for r in state.ratios[:3]]} "
                          f"(tol 0.5); error slope {rep.fitted_slope:.3f} "
                          f"(bound {rep.slope_bound:.3f})")


def test_c10_obstruction(obstruction):
    rep = obstruction["report"]
    drift = obstruction["control_drift"]
    floor = rep.stagnation_floor
    d_min = np.minimum(rep.d1, rep.d2)
    overlap_ok = bool(np.all(d_min >= floor))
    ctrl = np.minimum(drift["d1"], drift["d2"])
    slope = loglog_slope(drift["ts"], ctrl)
    control_ok = slope is not None and slope <= -0.1 and ctrl[-1] <= 0.1 * floor
    ok = overlap_ok and control_ok
    assert _report(10, ok, f"overlap min d(t) = {np.min(d_min):.3e} >= floor {floor:.3e}; "
                           f"control slope {slope:.2f}, final d {ctrl[-1]:.2e}")


def test_c11_short_range_contrast():
    cfg = preset_short_range_contrast()
    state = generate_initial_data(cfg.data1, cfg.data2, cfg.solver.grid, cfg.seed)
    traj = run(cfg.solver, state)
    profiles = profile_history(traj)
    dec = decoupling_history(profiles)
    ratio = dec.sup_products[-1] / dec.sup_products[0]
    peak0 = np.max(np.abs(profiles.alpha[0]))
    peak_max = np.max(np.abs(profiles.alpha))
    bounded = peak_max <= 1.1 * peak0
    ok = ratio >= 0.8 and bounded
    assert _report(11, ok, f"phase-rotating system: sup-product ratio {ratio:.3f} "
                           f"(need >= 0.8); profile peak growth {peak_max / peak0:.4f}")


def test_c12_infrastructure(tmp_path, rng):
    # transform round trip
    g = nl.Grid(1024, 80.0)
    f = bandlimited_field(g, rng)
    back = _inverse_array(g, _forward_array(g, f))
    rt = rel_l2(g, back, f)

    # factorisation U(t) = M D F M of the stepper's free flow on a matched grid
    t, n = 4.0, 1024
    gm = nl.Grid(n, math.sqrt(2 * math.pi * t * n))
    phi = np.exp(-gm.x ** 2 / 2) * np.exp(0.3j * gm.x)
    lhs = free_flow(gm, phi, t)
    chirp = np.exp(0.5j * gm.x ** 2 / t)
    rhs = _forward_array(gm, phi * chirp) * (1.0 / np.sqrt(1j * t)) * chirp
    mdfm = rel_l2(gm, rhs, lhs)

    # checkpoint round trip, bitwise
    state = np.stack([bandlimited_field(g, rng), bandlimited_field(g, rng)])
    persist_checkpoint(tmp_path / "cp.bin", g, 1.5, state)
    t_loaded, loaded = load_checkpoint(tmp_path / "cp.bin", g)
    bitwise_cp = t_loaded == 1.5 and np.array_equal(loaded, state)

    # deterministic rerun, bitwise CSV equality
    cfg = ExperimentConfig.from_dict({
        "name": "det", "seed": 5,
        "solver": {"n_points": 256, "length": 400.0, "t_start": 0.0,
                   "t_end": 120.0,
                   "checkpoint_times": [0.0] + list(np.geomspace(2.0, 120.0, 18))},
        "data1": {"kind": "random", "amp": 0.08, "band": 0.8},
        "data2": {"kind": "gaussian", "amp": 0.05, "width": 5.0},
    })
    run_simulate(cfg, tmp_path / "r1")
    run_simulate(cfg, tmp_path / "r2")
    bitwise_csv = all(
        (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
        for name in ("mass_ledger.csv", "profiles.csv", "decoupling.csv"))

    ok = rt < 1e-12 and mdfm < 1e-8 and bitwise_cp and bitwise_csv
    assert _report(12, ok, f"round trip {rt:.2e} (tol 1e-12); factorisation {mdfm:.2e} "
                           f"(tol 1e-8); checkpoint bitwise {bitwise_cp}; "
                           f"rerun bitwise {bitwise_csv}")


# ---------------------------------------------------------------------------
# the reports and manifests of the shared final-state runs
# ---------------------------------------------------------------------------

def _csv_columns(path):
    _, header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


def _cells(values):
    return tuple(repr(float(v)) for v in values)


def _json_data(path):
    return json.loads(path.read_text())["data"]


def _assert_recorded(out, name):
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["name"] == name and manifest["status"] == "ok"
    assert manifest["guard_events"] == []
    assert sorted(manifest["outputs"]) == sorted(p.relative_to(out).as_posix()
                                                 for p in out.rglob("*") if p.is_file())


def test_scatter_reports_and_manifest(scatter):
    out, report = scatter["out"], scatter["report"]
    assert _csv_columns(out / "scattering.csv") == {
        "t": _cells(report.ts), "error_l2": _cells(report.errors)}
    assert _json_data(out / "scattering.json") == {
        "fitted_slope": report.fitted_slope, "slope_bound": report.slope_bound,
        "contraction_ratios": list(scatter["state"].ratios), "passed": report.passed}
    _assert_recorded(out, "scatter-roundtrip")


def test_scatter_manifest_records_steps_and_picard(scatter):
    manifest = json.loads((scatter["out"] / "manifest.json").read_text())
    prov, state = scatter["traj"].provenance, scatter["state"]
    assert manifest["steps"] == {k: prov[k] for k in ("n_steps", "dt_min", "dt_max")}
    assert manifest["picard"] == {"iterations": state.iterate_index,
                                  "converged": state.converged,
                                  "distances": state.distances, "ratios": state.ratios}
    assert manifest["picard"]["ratios"] == \
        _json_data(scatter["out"] / "scattering.json")["contraction_ratios"]


def test_scatter_case_records_recover_final_state(scatter):
    # a known answer: the forward run from the constructed solution scatters
    # to psi_hat, so each survivor label must sit on its own component's
    # support; the 25 checkpoints at N = 8192 span several blocks, so the
    # analytics run on the pool wherever the process has more than one CPU.
    # The survivor's limit recovers psi_hat up to the profile's own gap at
    # the last checkpoint (the construction error) and its error bar
    spec, traj = scatter["spec"], scatter["traj"]
    profiles = profile_history(traj)
    table = build_case_records(profiles, remainder_history(traj, profiles))
    labels = table.label
    alpha_T = profiles.alpha[-1]
    on1, on2 = spec.psi_hat != 0
    for s, (label, own, other) in enumerate((("survivor_1", on1, on2),
                                             ("survivor_2", on2, on1))):
        cols = labels == label
        assert np.any(cols)
        assert np.all(own[cols]) and not np.any(other[cols])
        gap_T = np.max(np.abs(alpha_T[s, cols] - spec.psi_hat[s, cols]))
        gap = np.abs(table.beta_plus[cols] - spec.psi_hat[s, cols])
        assert np.all(gap <= gap_T + table.beta_tail_err[cols])
    assert np.all(labels[~(on1 | on2)] == "balanced")


def test_obstruction_reports_and_manifest(obstruction):
    out, report, drift = obstruction["out"], obstruction["report"], obstruction["control_drift"]
    assert _csv_columns(out / "obstruction.csv") == {
        "t": _cells(report.ts), "d1_overlap": _cells(report.d1),
        "d2_overlap": _cells(report.d2), "d1_control": _cells(drift["d1"]),
        "d2_control": _cells(drift["d2"])}
    assert _json_data(out / "obstruction.json") == {
        "eta": report.eta, "floor": report.stagnation_floor, "stagnates": report.stagnates,
        "control_slope": loglog_slope(drift["ts"], np.minimum(drift["d1"], drift["d2"]))}
    _assert_recorded(out, "obstruction")
    # both forward runs record their steps and the range of dt
    steps = json.loads((out / "manifest.json").read_text())["steps"]
    assert steps == {"probe": report.steps, "control": drift["steps"]}
    for run_steps in steps.values():
        assert set(run_steps) == {"n_steps", "dt_min", "dt_max"}
        assert run_steps["n_steps"] > 0 and 0.0 < run_steps["dt_min"] <= run_steps["dt_max"]


def test_analyze_rejects_scatter_run(scatter, capsys):
    capsys.readouterr()
    assert main(["analyze", "--out", str(scatter["out"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[nlspair:config]") and err.count("\n") == 1
    assert f"{scatter['out'] / 'manifest.json'} records no simulate config" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("preset, shared, pipeline, summary", [
    ("scatter-roundtrip", "scatter", "run_scatter_roundtrip", "scatter: "),
    ("obstruction", "obstruction", "run_obstruction", "obstruction: ")])
def test_cli_scatter_runs_its_pipeline(preset, shared, pipeline, summary, request,
                                       monkeypatch, capsys, tmp_path):
    # the subcommand calls the preset's pipeline once and prints one summary line
    result, calls = request.getfixturevalue(shared), []
    monkeypatch.setattr(f"nlspair.harness.{pipeline}",
                        lambda opts, out: calls.append((opts, out)) or result)
    capsys.readouterr()
    assert main(["scatter", "--preset", preset, "--out", str(tmp_path)]) == 0
    assert calls == [(SCATTER_PRESETS[preset](), tmp_path)]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(summary)
