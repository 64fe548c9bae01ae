"""The three workloads: input preparation, the timed pipeline, and output checks.

Each workload has
- ``prepare(seed, workdir)``: builds the inputs (untimed, part of setup);
- ``run(prepared, out_dir)``: the pipeline a user runs (timed);
- ``observe(prepared, out_dir, captured, result)``: reads the outputs back,
  with the results of the program calls the tracer captured;
- ``checks``: the output checks, each ``check(observation) -> (ok, detail)``.

Every check compares against a computation from ``reference`` or against a
property the method must have; none compares against stored output.  The
observation is a plain dict, so the self-test can corrupt it.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# ---------------------------------------------------------------------------
# output readers
# ---------------------------------------------------------------------------


def read_csv(path: Path) -> dict[str, list[str]]:
    """Columns of a report CSV (first line is the schema comment)."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# schema="):
        raise ValueError(f"{path}: missing schema line")
    rows = list(csv.reader(lines[1:]))
    header, body = rows[0], rows[1:]
    return {name: [r[i] for r in body] for i, name in enumerate(header)}


def _floats(col: list[str]) -> np.ndarray:
    return np.array([float(v) if v != "" else np.nan for v in col])


def read_profiles(out_dir: Path) -> dict:
    cols = read_csv(out_dir / "profiles.csv")
    deadband = json.loads((out_dir / "profiles.json").read_text())["data"]["deadband"]
    dec = read_csv(out_dir / "decoupling.csv")
    return {
        "xi": _floats(cols["xi"]),
        "m_hat": _floats(cols["m_hat_a"]),
        "label": np.array(cols["case_label"]),
        "exponent": _floats(cols["fitted_exponent"]),
        "deadband": float(deadband),
        "dec_t": _floats(dec["t"]),
        "dec_sup": _floats(dec["sup_product"]),
    }


def _sup_product(a1: np.ndarray, a2: np.ndarray) -> float:
    return float(np.max(np.abs(a1 * a2)))


# ---------------------------------------------------------------------------
# headline: decoupling-headline preset through the simulate pipeline
# ---------------------------------------------------------------------------

def headline_prepare(seed: int, workdir: Path) -> dict:
    from nlspair import harness
    # the preset's data is deterministic Gaussians; the seed enters only the
    # config, as `nlspair simulate --seed` does
    return {"config": replace(harness.get_simulate_preset("decoupling-headline"), seed=seed)}


def headline_run(prepared: dict, out_dir: Path):
    from nlspair import harness
    return harness.run_simulate(prepared["config"], out_dir)["trajectory"]


def headline_observe(prepared: dict, out_dir: Path, captured: dict, result) -> dict:
    cps = result.checkpoints
    return {
        "ts": np.array([cp.pair.time for cp in cps]),
        "u1": np.stack([cp.pair.u1.values for cp in cps]),
        "u2": np.stack([cp.pair.u2.values for cp in cps]),
        "length": cps[0].pair.grid.length,
        **read_profiles(out_dir),
    }


def _ledger(obs: dict):
    dx = obs["length"] / obs["u1"].shape[-1]
    m1, m2, inter = (np.array(v) for v in zip(*(ref.masses(a, b, dx)
                                                  for a, b in zip(obs["u1"], obs["u2"]))))
    return m1, m2, inter


def mass_difference_conserved(obs: dict):
    m1, m2, _ = _ledger(obs)
    drift = float(np.max(np.abs((m1 - m2) - (m1[0] - m2[0]))))
    total0 = m1[0] + m2[0]
    return drift <= 1e-8 * total0, f"drift {drift:.3g} vs 1e-8 x total mass {total0:.6g}"


def masses_non_increasing(obs: dict):
    m1, m2, _ = _ledger(obs)
    rise = float(max(np.max(np.diff(m1)), np.max(np.diff(m2))))
    return rise <= 1e-12 * (m1[0] + m2[0]), f"largest increase between checkpoints {rise:.3g}"


def dissipation_law(obs: dict):
    # d/dt mass_j = -2 interaction, integrated by trapezoid between checkpoints
    m1, m2, inter = _ledger(obs)
    ts = obs["ts"]
    dissipated = np.concatenate([[0.0], np.cumsum(0.5 * (inter[1:] + inter[:-1]) * np.diff(ts))])
    resid = float(max(np.max(np.abs(m1 - m1[0] + 2 * dissipated)),
                      np.max(np.abs(m2 - m2[0] + 2 * dissipated))))
    lost = float(m1[0] - m1[-1])
    return lost > 0 and resid <= 0.05 * lost, f"residual {resid:.3g} vs mass lost {lost:.3g}"


def _final_profiles(obs: dict):
    return (ref.pull_back(obs["u1"][-1], obs["ts"][-1], obs["length"]),
            ref.pull_back(obs["u2"][-1], obs["ts"][-1], obs["length"]))


def m_hat_matches_pull_back(obs: dict):
    a1, a2 = _final_profiles(obs)
    m_own = np.abs(a1) ** 2 - np.abs(a2) ** 2
    xi = ref.grid(len(a1), obs["length"])[1]
    same_grid = len(obs["xi"]) == len(xi) and np.allclose(obs["xi"], xi, rtol=0, atol=1e-9)
    gap = float(np.max(np.abs(obs["m_hat"] - m_own))) if same_grid else math.inf
    scale = float(np.max(np.abs(m_own)))
    return gap <= 1e-9 * scale, f"max |m_hat_a - own| {gap:.3g} of max |m| {scale:.3g}"


def no_survivor_2(obs: dict):
    n_s2 = int(np.sum(obs["label"] == "survivor_2"))
    return n_s2 == 0, f"{n_s2} frequencies labelled survivor_2"


def companion_rate_matches_m(obs: dict):
    m = obs["m_hat"]
    strong = m > 3.0 * obs["deadband"]
    miss = np.abs(obs["exponent"][strong] + m[strong])
    bad = int(np.sum(~(miss <= 0.2 * m[strong])))      # nan (no fit) counts as bad
    return (bool(np.any(strong)) and bad == 0,
            f"{bad} of {int(np.sum(strong))} frequencies with m > 3 x dead-band "
            f"miss |exponent + m| <= 0.2 m")


def profile_product_decays(obs: dict):
    ts, length = obs["ts"], obs["length"]
    i2 = int(np.argmin(np.abs(ts - 2.0)))
    sup2 = _sup_product(ref.pull_back(obs["u1"][i2], ts[i2], length),
                        ref.pull_back(obs["u2"][i2], ts[i2], length))
    sup_end = _sup_product(*_final_profiles(obs))
    j2 = int(np.argmin(np.abs(obs["dec_t"] - 2.0)))
    reported = np.array([obs["dec_sup"][j2], obs["dec_sup"][-1]])
    agree = bool(np.all(np.abs(reported - [sup2, sup_end]) <= 1e-9 * sup2))
    return (ts[i2] == 2.0 and agree and sup_end <= 0.2 * sup2,
            f"sup|a1 a2| {sup_end:.3g} at t={ts[-1]:g} vs {sup2:.3g} at t=2; "
            f"decoupling.csv agrees: {agree}")


HEADLINE_CHECKS = (mass_difference_conserved, masses_non_increasing, dissipation_law,
                   m_hat_matches_pull_back, no_survivor_2, companion_rate_matches_m,
                   profile_product_decays)


# ---------------------------------------------------------------------------
# scatter: scatter-roundtrip preset through `nlspair scatter`
# ---------------------------------------------------------------------------

def scatter_prepare(seed: int, workdir: Path) -> dict:
    from nlspair import harness
    # the preset has no random input; the seed does not change it
    return {"options": harness.preset_scatter_roundtrip()}


def scatter_run(prepared: dict, out_dir: Path):
    from nlspair import cli
    return cli.main(["scatter", "--preset", "scatter-roundtrip", "--out", str(out_dir)])


def scatter_observe(prepared: dict, out_dir: Path, captured: dict, result) -> dict:
    if result != 0:
        raise RuntimeError(f"nlspair scatter exited with {result}")
    opts = prepared["options"]
    traj = captured["dynamics.run"][-1]
    state = captured["scattering.picard_construct"][-1]
    cols = read_csv(out_dir / "scattering.csv")
    report = json.loads((out_dir / "scattering.json").read_text())["data"]
    return {
        "ts": np.array([cp.pair.time for cp in traj.checkpoints]),
        "u1": np.stack([cp.pair.u1.values for cp in traj.checkpoints]),
        "u2": np.stack([cp.pair.u2.values for cp in traj.checkpoints]),
        "length": opts.length,
        "windows1": list(opts.windows1),
        "windows2": list(opts.windows2),
        "s": opts.s,
        "csv_t": _floats(cols["t"]),
        "csv_error": _floats(cols["error_l2"]),
        "fitted_slope": report["fitted_slope"],
        "slope_bound": report["slope_bound"],
        "json_ratios": report["contraction_ratios"],
        "converged": bool(state.converged),
        "ratios": list(state.ratios),
    }


def picard_converged(obs: dict):
    ratios = obs["ratios"]
    ok = (obs["converged"] and len(ratios) > 0 and max(ratios) <= 0.5
          and list(obs["json_ratios"]) == list(ratios))
    return ok, f"converged {obs['converged']}, contraction ratios {['%.3g' % r for r in ratios]}"


def _errors_to_free_wave(obs: dict) -> np.ndarray:
    """Own ||u(t) - U(t) psi+||_L2 at every checkpoint of the forward run."""
    length, u1 = obs["length"], obs["u1"]
    xi = ref.grid(u1.shape[-1], length)[1]
    psi = [sum(ref.smooth_window(xi, w["lo"], w["hi"], w["amp"], w.get("plateau", 0.5))
               for w in obs[key]) for key in ("windows1", "windows2")]
    dx = length / u1.shape[-1]
    return np.array([
        math.sqrt(dx * float(np.sum(np.abs(a - ref.push_forward(psi[0], t, length)) ** 2
                                    + np.abs(b - ref.push_forward(psi[1], t, length)) ** 2)))
        for t, a, b in zip(obs["ts"], u1, obs["u2"])
    ])


def error_to_free_wave(obs: dict):
    errs = _errors_to_free_wave(obs)
    match = (len(obs["csv_error"]) == len(errs)
             and np.allclose(obs["csv_t"], obs["ts"], rtol=1e-12, atol=0)
             and np.allclose(obs["csv_error"], errs, rtol=1e-6, atol=1e-14))
    decreasing = bool(np.all(np.diff(errs) < 0))
    return (match and decreasing,
            f"own |u - U(t)psi+| from {errs[0]:.3g} to {errs[-1]:.3g}; "
            f"matches scattering.csv: {match}; decreasing: {decreasing}")


def decay_slope_within_bound(obs: dict):
    s0 = min(2.0, obs["s"])
    mu = 0.25 * (s0 - 1.0)                       # build_final_state's default
    bound = -min(0.5 + mu, 0.5 * s0) + 0.15
    slope = float(ref.lstsq_slopes(obs["ts"], _errors_to_free_wave(obs)[None, :])[0])
    reported = obs["fitted_slope"]
    ok = (reported is not None and abs(reported - slope) <= 1e-6
          and abs(obs["slope_bound"] - bound) <= 1e-12 and slope <= bound)
    return ok, f"own slope {slope:.4f}, reported {reported}, bound {bound:.3f}"


SCATTER_CHECKS = (picard_converged, error_to_free_wave, decay_slope_within_bound)


# ---------------------------------------------------------------------------
# analyze: a stored run synthesised from the closed-form reduced flow
# ---------------------------------------------------------------------------

N_STORED = 100          # checkpoints in the stored run
T_STORED = (2.0, 1e4)   # first and last checkpoint time
# (amplitude, centre, width) ranges of the two initial profiles: centred on
# opposite sides of xi = 0, so the imbalance changes sign
MIXED_SIGN = (((0.09, 0.12), (-0.12, -0.06), (0.12, 0.18)),
              ((0.09, 0.12), (0.06, 0.12), (0.12, 0.18)))


def synthesize_stored_run(seed: int, run_dir: Path, n_points: int, length: float,
                          n_t: int = N_STORED, shapes=MIXED_SIGN) -> dict:
    """Write a stored run whose profiles follow the reduced flow exactly.

    Seeded Gaussian profiles with smooth seeded phases are carried by the
    closed-form flow in log t and mapped to states u(t) = U(t) F^-1 alpha(t).
    Returns the ground truth the checks need.
    """
    rng = np.random.default_rng(seed)
    xi = ref.grid(n_points, length)[1]

    def profile(amp_range, centre_range, width_range):
        amp, centre, width = (rng.uniform(*r) for r in (amp_range, centre_range, width_range))
        p0, p1, p2 = rng.uniform(0, 2 * np.pi), rng.normal(0, 5), rng.normal(0, 5)
        phase = p0 + p1 * xi + p2 * xi ** 2
        return amp * np.exp(-0.5 * ((xi - centre) / width) ** 2) * np.exp(1j * phase)

    alpha1, alpha2 = profile(*shapes[0]), profile(*shapes[1])
    a0, b0 = np.abs(alpha1) ** 2, np.abs(alpha2) ** 2
    ts = np.geomspace(*T_STORED, n_t)
    cp_dir = run_dir / "checkpoints"
    if cp_dir.exists():
        shutil.rmtree(cp_dir)
    cp_dir.mkdir(parents=True)
    window = ts >= 0.1 * ts[-1]          # trailing window of the decay fits
    mods1, mods2, sups = [], [], []
    for i, t in enumerate(ts):
        r1, r2 = ref.reduced_flow_ratios(a0, b0, math.log(t / ts[0]))
        al1, al2 = alpha1 * np.sqrt(r1), alpha2 * np.sqrt(r2)
        ref.write_checkpoint(cp_dir / f"cp_{i:04d}.bin", ref.push_forward(al1, t, length),
                             ref.push_forward(al2, t, length), length, t)
        sups.append(_sup_product(al1, al2))
        if window[i]:
            mods1.append(np.abs(al1))
            mods2.append(np.abs(al2))
    mods1, mods2 = np.array(mods1).T, np.array(mods2).T
    peak = max(np.max(np.abs(alpha1)), np.max(np.abs(alpha2)))
    resolved1 = np.min(mods1, axis=-1) >= 1e-9 * peak
    resolved2 = np.min(mods2, axis=-1) >= 1e-9 * peak
    slope1, slope2 = (
        np.where(ok, ref.lstsq_slopes(ts[window], np.where(ok[:, None], mods, 1.0)), np.nan)
        for ok, mods in ((resolved1, mods1), (resolved2, mods2)))
    return {"ts": ts, "m": a0 - b0, "sup": np.array(sups), "slope1": slope1, "slope2": slope2}


def analyze_prepare(seed: int, workdir: Path, n_points: int | None = None,
                    length: float | None = None, n_t: int = N_STORED,
                    shapes=MIXED_SIGN) -> dict:
    from nlspair import harness
    from nlspair.dynamics import SolverConfig
    grid = harness.preset_obstruction()
    n_points = n_points or grid.n_points
    length = length or grid.length
    truth = synthesize_stored_run(seed, workdir, n_points, length, n_t, shapes=shapes)
    ts = truth["ts"]
    config = harness.ExperimentConfig(
        name="analyze-stored-run", seed=seed,
        solver=SolverConfig(n_points=n_points, length=length, t_start=float(ts[0]),
                            t_end=float(ts[-1]), checkpoint_times=tuple(ts)),
        data1={"kind": "reduced-flow"}, data2={"kind": "reduced-flow"},
    )
    return {"config": config, "truth": truth, "run_dir": workdir}


def analyze_run(prepared: dict, out_dir: Path):
    from nlspair import harness
    config = prepared["config"]
    traj = harness.load_trajectory(prepared["run_dir"], config)
    return harness.emit_trajectory_reports(traj, out_dir, config.analysis)


def analyze_observe(prepared: dict, out_dir: Path, captured: dict, result) -> dict:
    return {**prepared["truth"], **read_profiles(out_dir)}


def m_hat_is_closed_form(obs: dict):
    m = obs["m"]
    scale = float(np.max(np.abs(m)))
    gap = float(np.max(np.abs(obs["m_hat"] - m))) if len(obs["m_hat"]) == len(m) else math.inf
    return gap <= 1e-9 * scale, f"max |m_hat_a - m| {gap:.3g} of max |m| {scale:.3g}"


def labels_follow_sign(obs: dict):
    m, dead, label = obs["m"], obs["deadband"], obs["label"]
    expected = np.where(m > 0, "survivor_1", "survivor_2")
    clear = np.abs(m) > dead * (1 + 1e-6)
    inside = np.abs(m) < dead * (1 - 1e-6)
    wrong = int(np.sum(label[clear] != expected[clear]) + np.sum(label[inside] != "balanced"))
    seen = {lab: int(np.sum(expected[clear] == lab)) for lab in ("survivor_1", "survivor_2")}
    seen["balanced"] = int(np.sum(inside))
    return (wrong == 0 and min(seen.values()) > 0,
            f"{wrong} mislabelled; expected counts {seen}; dead-band {dead:.3g}")


def exponents_match_fit(obs: dict):
    label = obs["label"]
    ref_slope = np.where(label == "survivor_1", obs["slope2"],
                         np.where(label == "survivor_2", obs["slope1"], np.nan))
    compared = ~np.isnan(ref_slope)
    miss = np.abs(obs["exponent"][compared] - ref_slope[compared])
    bad = int(np.sum(~(miss <= 1e-6)))
    return (bool(np.any(compared)) and bad == 0,
            f"{bad} of {int(np.sum(compared))} fitted exponents differ from the "
            f"closed-form fit by more than 1e-6")


def decoupling_is_closed_form(obs: dict):
    same_t = (len(obs["dec_t"]) == len(obs["ts"])
              and np.allclose(obs["dec_t"], obs["ts"], rtol=1e-12, atol=0))
    gap = float(np.max(np.abs(obs["dec_sup"] - obs["sup"]))) if same_t else math.inf
    return gap <= 1e-9 * np.max(obs["sup"]), f"max |sup_product - closed form| {gap:.3g}"


ANALYZE_CHECKS = (m_hat_is_closed_form, labels_follow_sign, exponents_match_fit,
                  decoupling_is_closed_form)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    prepare: Callable
    run: Callable
    observe: Callable
    checks: tuple
    capture: tuple = ()      # program functions whose results ``observe`` reads

    def check(self, obs: dict) -> list:
        """Every check as ``(name, ok, detail)``."""
        out = []
        for fn in self.checks:
            ok, detail = fn(obs)
            out.append((fn.__name__, bool(ok), detail))
        return out


WORKLOADS = {
    "headline": Workload(headline_prepare, headline_run, headline_observe, HEADLINE_CHECKS),
    "scatter": Workload(scatter_prepare, scatter_run, scatter_observe, SCATTER_CHECKS,
                        ("dynamics.run", "scattering.picard_construct")),
    "analyze": Workload(analyze_prepare, analyze_run, analyze_observe, ANALYZE_CHECKS),
}
