"""Experiment configuration, presets, initial data, persistence, reports.

Outputs are CSV files (one schema comment line, then a header row) with JSON
mirrors for machine consumers, a binary checkpoint format for field states,
and a manifest written before the run starts and finalised afterwards.
Identical config and seed reproduce identical output bytes: data generation
is seeded, and every reported number comes from fixed-order (numpy pairwise)
reductions.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time as _time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, fits, scattering
from .dynamics import DtPolicy, SolverConfig, Trajectory, mass_ledger, run
from .errors import CheckpointError, ConfigError, GuardViolation
from .profiles import (
    DEFAULT_GAMMA,
    build_case_records,
    decoupling_history,
    profile_history,
    remainder_history,
)
from .spectral import ComplexField, FieldPair, Grid, norms

_MAGIC = b"NLSPAIR\x00"
_VERSION = 1
_HEADER = struct.Struct("<8sIQdd")   # magic, version, n_points, length, time


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

_GAUSSIAN_KEYS = {"kind", "amp", "width", "center", "velocity", "phase"}
_RANDOM_KEYS = {"kind", "amp", "band", "envelope_width"}


def _gaussian(spec: dict, grid: Grid) -> np.ndarray:
    extra = set(spec) - _GAUSSIAN_KEYS
    if extra:
        raise ConfigError(f"unknown keys in gaussian data spec: {sorted(extra)}")
    amp = float(spec["amp"])
    width = float(spec["width"])
    center = float(spec.get("center", 0.0))
    velocity = float(spec.get("velocity", 0.0))
    phase = float(spec.get("phase", 0.0))
    if width <= 0:
        raise ConfigError("gaussian width must be positive")
    x = grid.x
    out = amp * np.exp(-0.5 * ((x - center) / width) ** 2)
    return out * np.exp(1j * (velocity * x + phase))


def _random_bandlimited(spec: dict, grid: Grid, rng: np.random.Generator) -> np.ndarray:
    extra = set(spec) - _RANDOM_KEYS
    if extra:
        raise ConfigError(f"unknown keys in random data spec: {sorted(extra)}")
    amp = float(spec["amp"])
    band = float(spec["band"])
    envelope = float(spec.get("envelope_width", grid.length / 16.0))
    if band <= 0 or band >= np.max(np.abs(grid.xi)):
        raise ConfigError("band must be positive and inside the resolved frequencies")
    if envelope <= 0:
        raise ConfigError("envelope_width must be positive")
    mask = np.abs(grid.xi) <= band
    coeff = np.zeros(grid.n_points, dtype=complex)
    n = int(np.sum(mask))
    coeff[mask] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    coeff *= np.exp(-2.0 * (grid.xi / band) ** 2)
    from .spectral import _inverse_array
    vals = _inverse_array(grid, coeff)
    # localise: random phases fill the whole box otherwise, which both
    # violates the boundary guard and has no scattering interpretation
    vals = vals * np.exp(-0.5 * (grid.x / envelope) ** 2)
    peak = float(np.max(np.abs(vals)))
    return vals * (amp / peak) if peak > 0 else vals


def generate_initial_data(data1: dict, data2: dict, grid: Grid, seed: int,
                          t_start: float = 0.0) -> FieldPair:
    """Deterministic initial pair from per-component specs.

    Kinds: ``gaussian`` (optionally velocity-modulated), ``random`` (seeded
    band-limited noise), and ``copy`` for the second component to force the
    exactly symmetric regime u1 == u2.
    """
    rng = np.random.default_rng(seed)

    def build(spec: dict) -> np.ndarray:
        kind = spec.get("kind")
        if kind == "gaussian":
            return _gaussian(spec, grid)
        if kind == "random":
            return _random_bandlimited(spec, grid, rng)
        raise ConfigError(f"unknown data kind {kind!r}")

    v1 = build(data1)
    if data2.get("kind") == "copy":
        if set(data2) - {"kind"}:
            raise ConfigError("copy spec takes no parameters")
        v2 = v1.copy()
    else:
        v2 = build(data2)
    return FieldPair(ComplexField(grid, v1, t_start), ComplexField(grid, v2, t_start))


def data_size_report(pair: FieldPair) -> dict:
    """Grid surrogates of the data size (recorded in the manifest)."""
    n1, n2 = norms(pair.u1), norms(pair.u2)
    return {
        "l2": float(np.hypot(n1.l2, n2.l2)),
        "h2": float(np.hypot(n1.h2, n2.h2)),
        "h1_1": float(np.hypot(n1.h1_1, n2.h1_1)),
    }


# ---------------------------------------------------------------------------
# checkpoint persistence
# ---------------------------------------------------------------------------

def persist_checkpoint(pair: FieldPair, path) -> None:
    """Little-endian binary state: header + u1 then u2 as interleaved re/im f64."""
    g = pair.grid
    header = _HEADER.pack(_MAGIC, _VERSION, g.n_points, g.length, pair.time)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(pair.u1.values, dtype="<c16").tobytes())
        fh.write(np.ascontiguousarray(pair.u2.values, dtype="<c16").tobytes())


def load_checkpoint(path) -> FieldPair:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise CheckpointError(f"{path}: truncated header")
    magic, version, n, length, t = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported version {version} (expected {_VERSION})")
    payload = raw[_HEADER.size:]
    expected = 2 * n * 16
    if len(payload) != expected:
        raise CheckpointError(
            f"{path}: payload holds {len(payload)} bytes, header N={n} implies {expected}"
        )
    grid = Grid(int(n), float(length))
    vals = np.frombuffer(payload, dtype="<c16")
    return FieldPair(
        ComplexField(grid, vals[:n], t),
        ComplexField(grid, vals[n:], t),
    )


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisOptions:
    profiles: bool = True
    remainder: bool = True
    deadband: float | None = None
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma < 1.0 / 12.0):
            raise ConfigError("gamma must lie in (0, 1/12)")
        if self.deadband is not None and self.deadband <= 0:
            raise ConfigError("deadband must be positive when given")


@dataclass(frozen=True)
class ExperimentConfig:
    """A simulate-pipeline experiment: grid, data, solver, analysis toggles."""

    name: str
    seed: int
    solver: SolverConfig
    data1: dict
    data2: dict
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    save_checkpoints: bool = False

    def __post_init__(self) -> None:
        if self.seed is None or int(self.seed) < 0:
            raise ConfigError("a nonnegative seed is mandatory")
        if self.analysis.profiles:
            _check_analysable(self.solver)

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "seed": self.seed,
            "solver": {
                "n_points": self.solver.n_points,
                "length": self.solver.length,
                "t_start": self.solver.t_start,
                "t_end": self.solver.t_end,
                "scheme": self.solver.scheme,
                "coupling": self.solver.coupling,
                "dt_policy": asdict(self.solver.dt_policy),
                "checkpoint_times": list(self.solver.checkpoint_times)
                if self.solver.checkpoint_times is not None else None,
            },
            "data1": dict(self.data1),
            "data2": dict(self.data2),
            "analysis": asdict(self.analysis),
            "save_checkpoints": self.save_checkpoints,
        }
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        allowed = {"name", "seed", "solver", "data1", "data2", "analysis", "save_checkpoints"}
        _reject_unknown(d, allowed, "config")
        solver_d = dict(d.get("solver") or {})
        allowed_solver = {"n_points", "length", "t_start", "t_end", "scheme",
                          "coupling", "dt_policy", "checkpoint_times"}
        _reject_unknown(solver_d, allowed_solver, "config.solver")
        dtp = solver_d.pop("dt_policy", None)
        cps = solver_d.pop("checkpoint_times", None)
        try:
            policy = DtPolicy(**dtp) if dtp else DtPolicy()
            solver = SolverConfig(
                dt_policy=policy,
                checkpoint_times=tuple(cps) if cps else None,
                **solver_d,
            )
        except TypeError as exc:
            raise ConfigError(f"bad solver section: {exc}") from exc
        analysis_d = dict(d.get("analysis") or {})
        _reject_unknown(analysis_d, {"profiles", "remainder", "deadband", "gamma"},
                        "config.analysis")
        try:
            return ExperimentConfig(
                name=str(d.get("name", "experiment")),
                seed=int(d["seed"]) if "seed" in d else _missing("seed"),
                solver=solver,
                data1=dict(d.get("data1") or _missing("data1")),
                data2=dict(d.get("data2") or _missing("data2")),
                analysis=AnalysisOptions(**analysis_d),
                save_checkpoints=bool(d.get("save_checkpoints", False)),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config key: {exc}") from exc

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _check_analysable(solver: SolverConfig) -> None:
    """Reject, before any compute, a run the profile analysis cannot use.

    The analysis reads the checkpoints from t = 2 on (``profile_history``):
    the last must reach t = 100, and the decay fits need 8 of them in the
    trailing window ``[T/10, T]``.
    """
    ts = solver.resolved_checkpoints()
    ts = ts[ts >= 2.0 - 1e-9]
    if ts.size == 0 or ts[-1] < 100.0:
        last = f"{ts[-1]:g}" if ts.size else "none"
        raise ConfigError(f"profile analysis needs checkpoints up to t >= 100 "
                          f"(t_end = {solver.t_end:g}, last checkpoint {last}); "
                          f"extend the run or turn analysis.profiles off")
    n_window = int(np.sum(fits.trailing_window_mask(ts)))
    if n_window < 8:
        raise ConfigError(f"profile analysis needs at least 8 checkpoints in the trailing "
                          f"window [{0.1 * ts[-1]:g}, {ts[-1]:g}], got {n_window}")


def _missing(key: str):
    raise ConfigError(f"missing mandatory config key {key!r}")


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    extra = set(d) - allowed
    if extra:
        raise ConfigError(f"unknown keys in {where}: {sorted(extra)}")


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _headline_checkpoints(t_end: float = 1e4) -> tuple[float, ...]:
    times = set(np.geomspace(2.0, t_end, 40).tolist())
    times.update((t_end / 2.0 ** k) for k in range(11))
    times.update((0.0, 2.0, 10.0, 100.0, 1000.0, t_end))
    out = sorted(times)
    merged = [out[0]]
    for t in out[1:]:
        if t - merged[-1] > 1e-9 * max(1.0, t):
            merged.append(t)
    return tuple(merged)


def preset_decoupling_headline() -> ExperimentConfig:
    """Asymmetric Gaussian pair run to t = 1e4.

    The second component is weaker and spectrally narrower, so the imbalance
    stays positive at every frequency and the companion-to-survivor amplitude
    ratio is small on the spectral shoulders, which keeps the late-window
    decay-rate fits clean all the way down to the dead-band.
    """
    return ExperimentConfig(
        name="decoupling-headline",
        seed=704,
        solver=SolverConfig(
            n_points=4096, length=12000.0, t_start=0.0, t_end=1e4,
            checkpoint_times=_headline_checkpoints(1e4),
        ),
        data1={"kind": "gaussian", "amp": 0.1, "width": 8.0},
        data2={"kind": "gaussian", "amp": 0.04, "width": 12.0},
    )


def preset_symmetric_log_decay() -> ExperimentConfig:
    """Exactly symmetric data: every frequency balanced, logarithmic decay.

    The slow decay keeps the nonlinearly broadened spectral shoulder alive
    longer than in the asymmetric run, so the box and the resolved band are
    both larger than the headline's.
    """
    return ExperimentConfig(
        name="symmetric-log-decay",
        seed=704,
        solver=SolverConfig(
            n_points=8192, length=16000.0, t_start=0.0, t_end=1e4,
            checkpoint_times=_headline_checkpoints(1e4),
        ),
        data1={"kind": "gaussian", "amp": 0.1, "width": 8.0},
        data2={"kind": "copy"},
    )


def preset_short_range_contrast() -> ExperimentConfig:
    """Same data shape, nonlinearity without the dissipative twist, RK4 only.

    The phase-rotating system leaves the profile moduli essentially frozen:
    the pointwise product of the limit profiles does not vanish, isolating
    the dissipative sign as the mechanism behind the support decoupling.
    The amplitude sits below the headline's so that pre-asymptotic remainder
    drift (which nudges the moduli before the profile era sets in) stays
    within the non-decay margin.
    """
    times = tuple(np.geomspace(2.0, 1e3, 30))
    return ExperimentConfig(
        name="short-range-contrast",
        seed=704,
        solver=SolverConfig(
            n_points=1024, length=1400.0, t_start=0.0, t_end=1e3,
            scheme="rk4_reference", coupling="conservative",
            checkpoint_times=(0.0,) + times,
            dt_policy=DtPolicy(kind="proportional", dt=0.01, t_switch=10.0,
                               rate=5e-3, dt_cap=0.5),
        ),
        data1={"kind": "gaussian", "amp": 0.05, "width": 8.0},
        data2={"kind": "gaussian", "amp": 0.02, "width": 12.0},
    )


@dataclass(frozen=True)
class ScatterOptions:
    """Configuration of the final-state pipelines (construction + probe)."""

    n_points: int = 8192
    length: float = 10000.0
    windows1: tuple = ({"kind": "window", "lo": -0.9, "hi": -0.3, "amp": 0.05},)
    windows2: tuple = ({"kind": "window", "lo": 0.3, "hi": 0.9, "amp": 0.05},)
    s: float = 2.0
    T: float = 50.0
    T_max: float = 5000.0
    n_time: int = 64
    tol: float = 1e-9
    max_iters: int = 8
    forward_t_end: float = 500.0


def preset_scatter_roundtrip() -> ScatterOptions:
    return ScatterOptions()


@dataclass(frozen=True)
class ObstructionOptions:
    n_points: int = 16384
    length: float = 20500.0
    overlap_window: dict = field(default_factory=lambda: {"kind": "window", "lo": -0.7, "hi": 0.7, "amp": 0.1})
    control1: dict = field(default_factory=lambda: {"kind": "window", "lo": -0.7, "hi": -0.1, "amp": 0.1})
    control2: dict = field(default_factory=lambda: {"kind": "window", "lo": 0.1, "hi": 0.7, "amp": 0.1})
    T: float = 50.0
    base_times: tuple = (100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 5000.0)
    picard_iters: int = 3


def preset_obstruction() -> ObstructionOptions:
    return ObstructionOptions()


SIMULATE_PRESETS = {
    "decoupling-headline": preset_decoupling_headline,
    "symmetric-log-decay": preset_symmetric_log_decay,
    "short-range-contrast": preset_short_range_contrast,
}

SCATTER_PRESETS = {
    "scatter-roundtrip": preset_scatter_roundtrip,
    "obstruction": preset_obstruction,
}


def get_simulate_preset(name: str) -> ExperimentConfig:
    try:
        return SIMULATE_PRESETS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; simulate presets: {sorted(SIMULATE_PRESETS)}"
        ) from None


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))   # shortest round-trip, independent of numpy scalar repr
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return str(x)


def write_csv(path, schema: str, header: list[str], rows) -> Path:
    path = Path(path)
    lines = [f"# schema=nlspair.{schema}.v1", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_json(path, schema: str, payload) -> Path:
    path = Path(path)
    path.write_text(json.dumps(
        {"schema": f"nlspair.{schema}.v1", "data": payload},
        indent=1, sort_keys=True, default=_json_default,
    ) + "\n")
    return path


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, complex):
        return {"re": o.real, "im": o.imag}
    raise TypeError(f"cannot serialise {type(o)}")


@dataclass
class RunManifest:
    name: str
    config_hash: str
    config: dict
    grid: dict
    seed: int
    package_version: str = __version__
    status: str = "running"
    started_unix: float = 0.0
    wall_seconds: float = 0.0
    guard_events: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    data_size: dict = field(default_factory=dict)

    def write(self, out_dir: Path) -> Path:
        path = Path(out_dir) / "manifest.json"
        path.write_text(json.dumps(
            {"schema": "nlspair.manifest.v1", **asdict(self)},
            indent=1, sort_keys=True, default=_json_default,
        ) + "\n")
        return path


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def emit_trajectory_reports(traj: Trajectory, out_dir: Path,
                            analysis: AnalysisOptions) -> list[str]:
    """Write the ledger, per-frequency case records, and decoupling history."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    ledgers = traj.ledgers()
    p = write_csv(out_dir / "mass_ledger.csv", "mass_ledger",
                  ["t", "mass1", "mass2", "diff", "interaction"],
                  [(l.t, l.mass1, l.mass2, l.diff, l.interaction) for l in ledgers])
    written.append(p.name)
    write_json(out_dir / "mass_ledger.json", "mass_ledger",
               [asdict(l) for l in ledgers])
    written.append("mass_ledger.json")

    if analysis.profiles:
        profiles = profile_history(traj)
        probes = (remainder_history(traj, gamma=analysis.gamma, profiles=profiles)
                  if analysis.remainder else None)
        if probes is not None:
            records, est = build_case_records(
                traj, profiles, probes, deadband=analysis.deadband, gamma=analysis.gamma
            )
            dead = analysis.deadband if analysis.deadband is not None else est.suggested_deadband
            rows = []
            for rec, ma, mb in zip(records, est.m_a, est.m_b):
                rows.append((
                    rec.xi, float(ma), float(mb), rec.case_label,
                    "" if rec.fitted_exponent is None else rec.fitted_exponent,
                    "" if rec.beta_plus is None else rec.beta_plus.real,
                    "" if rec.beta_plus is None else rec.beta_plus.imag,
                    rec.r_tail,
                ))
            p = write_csv(out_dir / "profiles.csv", "profiles",
                          ["xi", "m_hat_a", "m_hat_b", "case_label",
                           "fitted_exponent", "beta_plus_re", "beta_plus_im", "tail_err"],
                          rows)
            written.append(p.name)
            write_json(out_dir / "profiles.json", "profiles", {
                "deadband": dead,
                "discrepancy": est.discrepancy,
                "records": [
                    {"xi": r.xi, "m_hat": r.m_hat, "case": r.case_label,
                     "fitted_exponent": r.fitted_exponent,
                     "beta_plus": r.beta_plus, "r_tail": r.r_tail}
                    for r in records
                ],
            })
            written.append("profiles.json")

            p = write_csv(out_dir / "remainder.csv", "remainder",
                          ["t", "bound_ratio"],
                          [(pr.t, pr.bound_ratio) for pr in probes])
            written.append(p.name)

        dec = decoupling_history(profiles)
        p = write_csv(out_dir / "decoupling.csv", "decoupling",
                      ["t", "sup_product", "l2_product"],
                      zip(dec.ts, dec.sup_products, dec.l2_products))
        written.append(p.name)
        write_json(out_dir / "decoupling.json", "decoupling",
                   {"t": dec.ts, "sup_product": dec.sup_products,
                    "l2_product": dec.l2_products})
        written.append("decoupling.json")
    return written


def run_simulate(config: ExperimentConfig, out_dir) -> dict:
    """Full simulate pipeline: data, run, reports, manifest.

    Returns a summary dict with the trajectory attached (for callers that
    keep analysing in-process).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = config.solver.grid
    manifest = RunManifest(
        name=config.name,
        config_hash=config.config_hash(),
        config=config.to_dict(),
        grid={"n_points": grid.n_points, "length": grid.length,
              "dx": grid.dx, "dxi": grid.dxi},
        seed=config.seed,
        started_unix=_time.time(),
    )
    manifest.write(out_dir)
    t0 = _time.perf_counter()
    try:
        pair = generate_initial_data(config.data1, config.data2, grid,
                                     config.seed, config.solver.t_start)
        manifest.data_size = data_size_report(pair)
        traj = run(config.solver, pair)
        outputs = emit_trajectory_reports(traj, out_dir, config.analysis)
        if config.save_checkpoints:
            cp_dir = out_dir / "checkpoints"
            cp_dir.mkdir(exist_ok=True)
            for i, cp in enumerate(traj.checkpoints):
                name = f"checkpoints/cp_{i:04d}.bin"
                persist_checkpoint(cp.pair, out_dir / name)
                outputs.append(name)
        manifest.outputs = sorted(set(outputs)) + ["manifest.json"]
        manifest.status = "ok"
        return {"trajectory": traj, "manifest": manifest, "out_dir": out_dir}
    except BaseException as exc:
        manifest.status = "failed"
        if isinstance(exc, GuardViolation):
            manifest.guard_events = [{"t": exc.time, "fraction": exc.fraction}]
        raise
    finally:
        manifest.wall_seconds = _time.perf_counter() - t0
        manifest.write(out_dir)


def load_trajectory(out_dir, config: ExperimentConfig) -> Trajectory:
    """Rebuild a trajectory from persisted checkpoints (for `analyze`)."""
    cp_dir = Path(out_dir) / "checkpoints"
    files = sorted(cp_dir.glob("cp_*.bin"))
    if not files:
        raise ConfigError(f"no checkpoints under {cp_dir}")
    from .dynamics import Checkpoint
    cps = []
    for f in files:
        pair = load_checkpoint(f)
        cps.append(Checkpoint(pair, mass_ledger(pair)))
    return Trajectory(config=config.solver, checkpoints=tuple(cps),
                      provenance={"scheme": "loaded", "source": str(cp_dir)})


def run_scatter_roundtrip(opts: ScatterOptions) -> dict:
    """Construct the solution scattering to the prescribed data, run it forward
    from T, and fit its decay towards the free wave.

    Returns the final state ``spec``, the Picard ``state``, the forward
    trajectory ``traj`` and the ``report`` of :func:`scattering.verify_scattering`.
    """
    grid = Grid(opts.n_points, opts.length)
    spec = scattering.build_final_state(grid, list(opts.windows1),
                                        list(opts.windows2), s=opts.s)
    state = scattering.picard_construct(spec, opts.T, opts.T_max,
                                        max_iters=opts.max_iters,
                                        tol=opts.tol, n_time=opts.n_time)
    cfg = SolverConfig(
        n_points=opts.n_points, length=opts.length, t_start=opts.T,
        t_end=opts.forward_t_end,
        checkpoint_times=tuple(np.geomspace(opts.T, opts.forward_t_end, 25)),
    )
    traj = run(cfg, state.pair_at(opts.T))
    return {"spec": spec, "state": state, "traj": traj,
            "report": scattering.verify_scattering(traj, spec)}


def run_obstruction(opts: ObstructionOptions) -> dict:
    """Obstruction probe on overlapping data, plus the decoupled control run.

    The control starts from the same few Picard iterations at T as the probe
    and records the dyadic profile drift at the same base times.  Returns
    the probe's ``report`` and the control's ``control_drift``.
    """
    grid = Grid(opts.n_points, opts.length)
    overlap = scattering.build_final_state(grid, [opts.overlap_window],
                                           [dict(opts.overlap_window)])
    report = scattering.obstruction_probe(overlap, opts.base_times, T=opts.T,
                                          picard_iters=opts.picard_iters)
    control = scattering.build_final_state(grid, [opts.control1], [opts.control2])
    return {"report": report,
            "control_drift": scattering._dyadic_drift_run(control, opts.base_times,
                                                          opts.T, opts.picard_iters)}
