"""Experiment configuration, presets, initial data, persistence, reports,
and one pipeline per subcommand.

Outputs are CSV files (one schema comment line, then a header row), a
binary checkpoint format for field states, and the ``manifest.json`` of
every pipeline run, written before the run starts and finalised afterwards.
Identical config and seed reproduce identical output bytes: data generation
is seeded, and every reported number comes from fixed-order (numpy pairwise)
reductions.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import time as _time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, scattering
from .dynamics import DtPolicy, SolverConfig, Trajectory, _time_tol, mass_ledger, run
from .errors import CheckpointError, ConfigError, GuardViolation, finite_real
from .fits import loglog_slopes
from .profiles import (
    build_case_records,
    check_window,
    decoupling_history,
    profile_history,
    remainder_history,
)
from .spectral import Grid, _forward_array, _inverse_array

_LEDGER = ("mass1", "mass2", "diff", "interaction")   # the entries of mass_ledger
# what emit_trajectory_reports writes beside the ledger under analysis.profiles
_PROFILE_REPORTS = ("profiles.csv", "profiles.json", "remainder.csv", "decoupling.csv")
_MAGIC = b"NLSPAIR\x00"
_VERSION = 1
_HEADER = struct.Struct("<8sIQdd")   # magic, version, n_points, length, time


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

_GAUSSIAN_KEYS = {"kind", "amp", "width", "center", "velocity", "phase"}
_RANDOM_KEYS = {"kind", "amp", "band", "envelope_width"}


def _finite(spec: dict, key: str, default: float | None = None) -> float:
    """``spec[key]`` (``default`` when absent) as a float; anything but a finite
    real number, a missing key included, is a ConfigError."""
    return finite_real(spec.get(key, default), f"{spec['kind']} data spec: {key}")


def _gaussian(spec: dict, grid: Grid) -> np.ndarray:
    extra = set(spec) - _GAUSSIAN_KEYS
    if extra:
        raise ConfigError(f"unknown keys in gaussian data spec: {sorted(extra)}")
    amp = _finite(spec, "amp")
    width = _finite(spec, "width")
    center = _finite(spec, "center", 0.0)
    velocity = _finite(spec, "velocity", 0.0)
    phase = _finite(spec, "phase", 0.0)
    if width <= 0:
        raise ConfigError("gaussian width must be positive")
    x = grid.x
    out = amp * np.exp(-0.5 * ((x - center) / width) ** 2)
    return out * np.exp(1j * (velocity * x + phase))


def _random_bandlimited(spec: dict, grid: Grid, rng: np.random.Generator) -> np.ndarray:
    extra = set(spec) - _RANDOM_KEYS
    if extra:
        raise ConfigError(f"unknown keys in random data spec: {sorted(extra)}")
    amp = _finite(spec, "amp")
    band = _finite(spec, "band")
    envelope = _finite(spec, "envelope_width", grid.length / 16.0)
    if band <= 0 or band >= np.max(np.abs(grid.xi)):
        raise ConfigError("band must be positive and inside the resolved frequencies")
    if envelope <= 0:
        raise ConfigError("envelope_width must be positive")
    mask = np.abs(grid.xi) <= band
    coeff = np.zeros(grid.n_points, dtype=complex)
    n = int(np.sum(mask))
    coeff[mask] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    coeff *= np.exp(-2.0 * (grid.xi / band) ** 2)
    vals = _inverse_array(grid, coeff)
    # localise: random phases fill the whole box otherwise, which both
    # violates the boundary guard and has no scattering interpretation
    vals = vals * np.exp(-0.5 * (grid.x / envelope) ** 2)
    peak = float(np.max(np.abs(vals)))
    return vals * (amp / peak) if peak > 0 else vals


def generate_initial_data(data1: dict, data2: dict, grid: Grid, seed: int) -> np.ndarray:
    """Deterministic initial ``(2, N)`` state from per-component specs.

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
        v2 = v1
    else:
        v2 = build(data2)
    return np.array([v1, v2], dtype=np.complex128)


def _sobolev(grid: Grid, state: np.ndarray, s: float) -> np.ndarray:
    """Spectral Sobolev norms ``sqrt(dxi sum <xi>^{2s} |F u|^2)``, one per row."""
    w = (1.0 + grid.xi ** 2) ** s
    return np.sqrt(grid.dxi * np.sum(w * np.abs(_forward_array(grid, state)) ** 2, axis=-1))


def data_size_report(grid: Grid, state: np.ndarray) -> dict:
    """Grid surrogates of the size of a ``(2, N)`` state, recorded in the
    manifest: the L2, H^2 and weighted ``<x>``-H^1 norms of the pair."""
    l2 = np.sqrt(grid.dx * np.sum(np.abs(state) ** 2, axis=-1))
    h2 = _sobolev(grid, state, 2.0)
    h1_1 = _sobolev(grid, (1.0 + grid.x ** 2) ** 0.5 * state, 1.0)
    return {"l2": float(np.hypot(*l2)), "h2": float(np.hypot(*h2)),
            "h1_1": float(np.hypot(*h1_1))}


# ---------------------------------------------------------------------------
# checkpoint persistence
# ---------------------------------------------------------------------------

def persist_checkpoint(path, grid: Grid, t: float, state: np.ndarray) -> None:
    """Little-endian binary state: header + u1 then u2 as interleaved re/im f64."""
    header = _HEADER.pack(_MAGIC, _VERSION, grid.n_points, grid.length, t)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(state, dtype="<c16").tobytes())


def _checkpoint_time(path, head: bytes, size: int, grid: Grid) -> float:
    """The time in ``head``, the first bytes of the checkpoint file ``path``
    of ``size`` bytes on ``grid``.  A header that is short, of another
    format, of another grid or holding a non-finite time, or a size other
    than the header's payload implies, is a CheckpointError naming the file.
    """
    if len(head) < _HEADER.size:
        raise CheckpointError(f"{path}: truncated header")
    magic, version, n, length, t = _HEADER.unpack_from(head)
    if magic != _MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported version {version} (expected {_VERSION})")
    payload, expected = size - _HEADER.size, 2 * n * 16
    if payload != expected:
        raise CheckpointError(
            f"{path}: payload holds {payload} bytes, header N={n} implies {expected}"
        )
    if (n, length) != (grid.n_points, grid.length):
        raise CheckpointError(f"{path}: header holds N={n}, length={length:g}; "
                              f"the run's grid has N={grid.n_points}, length={grid.length:g}")
    if not math.isfinite(t):
        raise CheckpointError(f"{path}: header holds the non-finite time {t}")
    return t


def load_checkpoint(path, grid: Grid) -> tuple[float, np.ndarray]:
    """``(t, state)`` of a file written by :func:`persist_checkpoint` on ``grid``.

    The state is a read-only ``(2, N)`` view of the file's bytes.  A file on
    another grid, malformed, or holding a non-finite time or non-finite
    samples is a CheckpointError naming it.
    """
    raw = Path(path).read_bytes()
    t = _checkpoint_time(path, raw, len(raw), grid)
    payload = memoryview(raw)[_HEADER.size:]
    if not np.all(np.isfinite(np.frombuffer(payload, dtype="<f8"))):
        raise CheckpointError(f"{path}: payload holds non-finite samples")
    return t, np.frombuffer(payload, dtype="<c16").reshape(2, grid.n_points)


class StoredStates:
    """The ``(n_t, 2, N)`` states of a stored run, left in its checkpoint
    files: row i is read from ``files[i]`` by :func:`load_checkpoint`, with
    all of its checks, on every access.

    It has the ``shape``, ``dtype``, length, iteration and indexing (an int,
    a slice or an integer array) of a frozen state array: a row is a
    read-only ``(2, N)`` array, a slice a fresh read-only stack and an
    integer array a fresh writable one, as numpy's view and copy are; a
    file whose time is no longer ``ts[i]`` is a CheckpointError naming it.
    """

    def __init__(self, files, ts: np.ndarray, grid: Grid):
        self._files, self._ts, self._grid = tuple(files), ts.tolist(), grid
        self.shape = (len(self._files), 2, grid.n_points)
        self.dtype = np.dtype(np.complex128)

    def __len__(self) -> int:
        return len(self._files)

    def _row(self, i: int) -> np.ndarray:
        path = self._files[i]
        t, state = load_checkpoint(path, self._grid)
        if t != self._ts[i]:
            raise CheckpointError(f"{path}: time {t:g} changed from {self._ts[i]:g} since load")
        return state

    def __iter__(self):
        return map(self._row, range(len(self)))

    def __getitem__(self, index):
        every = np.arange(len(self))
        rows = every[index]
        if rows.ndim == 0:
            return self._row(int(rows))
        out = np.empty(rows.shape + self.shape[1:], dtype=self.dtype)
        for k, i in np.ndenumerate(rows):
            out[k] = self._row(int(i))
        out.flags.writeable = rows.base is not every
        return out


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisOptions:
    profiles: bool = True

    def __post_init__(self) -> None:
        _check_toggle(self.profiles, "profiles")


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
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) \
                or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        _check_toggle(self.save_checkpoints, "save_checkpoints")
        if self.analysis.profiles:
            _check_analysable(self.solver)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """The config of a JSON object; its sections are objects whose keys
        are the fields of the dataclass each one builds."""
        d = _section(d, "config", ExperimentConfig)
        solver_d = _section(d.get("solver"), "config.solver", SolverConfig)
        policy = DtPolicy(**_section(solver_d.pop("dt_policy", None),
                                     "config.solver.dt_policy", DtPolicy))
        cps = solver_d.pop("checkpoint_times", None)
        try:
            solver = SolverConfig(
                dt_policy=policy,
                checkpoint_times=None if cps is None else tuple(cps),
                **solver_d,
            )
        except TypeError as exc:
            raise ConfigError(f"bad solver section: {exc}") from exc
        return ExperimentConfig(
            name=str(d.get("name", "experiment")),
            seed=d["seed"] if "seed" in d else _missing("seed"),
            solver=solver,
            data1=_section(d.get("data1"), "config.data1") or _missing("data1"),
            data2=_section(d.get("data2"), "config.data2") or _missing("data2"),
            analysis=AnalysisOptions(**_section(d.get("analysis"), "config.analysis",
                                                AnalysisOptions)),
            save_checkpoints=d.get("save_checkpoints", False),
        )

    def config_hash(self) -> str:
        return _config_hash(self.to_dict())


def _check_analysable(solver: SolverConfig) -> None:
    """Reject, before any compute, a run the profile analysis cannot use
    (:func:`profiles.check_window`)."""
    try:
        check_window(solver.resolved_checkpoints())
    except ValueError as exc:
        raise ConfigError(f"{exc}; change the checkpoints or turn analysis.profiles "
                          f"off") from exc


def _check_toggle(value, what: str) -> None:
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")


def _missing(key: str):
    raise ConfigError(f"missing mandatory config key {key!r}")


def _section(value, where: str, cls=None) -> dict:
    """A copy of the config object ``value`` (null is empty), whose keys must
    be the field names of dataclass ``cls`` when one is given; data specs
    check their own keys when the data are generated."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    if cls is not None:
        extra = set(value) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown keys in {where}: {sorted(extra)}")
    return dict(value)


def read_json_object(path) -> dict:
    """The JSON object in file ``path`` (null is empty); ConfigError naming
    the file when it is missing, a directory, not UTF-8 JSON or not an object."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"file not found: {p}")
    if p.is_dir():
        raise ConfigError(f"{p} is a directory, not a file")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{p} is not valid JSON: {exc}") from exc
    return _section(raw, str(p))


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(read_json_object(path))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _headline_checkpoints() -> tuple[float, ...]:
    t_end = 1e4
    times = set(np.geomspace(2.0, t_end, 40).tolist())
    times.update((t_end / 2.0 ** k) for k in range(11))
    times.update((0.0, 2.0, 10.0, 100.0, 1000.0, t_end))
    out = sorted(times)
    merged = [out[0]]
    for t in out[1:]:
        if t - merged[-1] > _time_tol(t):
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
            checkpoint_times=_headline_checkpoints(),
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
            checkpoint_times=_headline_checkpoints(),
        ),
        data1={"kind": "gaussian", "amp": 0.1, "width": 8.0},
        data2={"kind": "copy"},
    )


def preset_short_range_contrast() -> ExperimentConfig:
    """Same data shape, nonlinearity without the dissipative twist.

    The composed Strang steps run it with the phase-rotating exact substep.
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
            coupling="conservative",
            checkpoint_times=(0.0,) + times,
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

def _cells(column) -> list[str]:
    """The CSV cells of one column: floats as their shortest round-trip repr
    (independent of numpy's scalar repr), NaN as an empty cell ("no value"),
    anything else by ``str``."""
    values = np.asarray(column).tolist() if isinstance(column, np.ndarray) else \
        [v.item() if isinstance(v, np.generic) else v for v in column]
    return ["" if v != v else repr(v) if type(v) is float else str(v) for v in values]


# the rows write_csv formats at once: their cells are short Python strings
_CSV_ROWS = 1024


def write_csv(path, schema: str, header: list[str], columns) -> Path:
    """A schema line, the header and one row per entry of the ``columns``,
    which are arrays or sequences of equal length, formatted and written
    ``_CSV_ROWS`` rows at a time."""
    path = Path(path)
    n_rows = min(map(len, columns), default=0)
    with path.open("w") as f:
        f.write(f"# schema=nlspair.{schema}.v1\n{','.join(header)}\n")
        for i in range(0, n_rows, _CSV_ROWS):
            rows = zip(*(_cells(c[i:i + _CSV_ROWS]) for c in columns))
            f.write("".join(",".join(row) + "\n" for row in rows))
    return path


def _json_text(doc, **layout) -> str:
    """``doc`` as strict JSON with sorted keys, laid out by the encoder's
    keyword arguments ``layout``: numpy numbers become Python ones, and a
    float that is not finite becomes null, since JSON has no such value."""
    def strict(o):
        if isinstance(o, dict):
            return {k: strict(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [strict(v) for v in o]
        if isinstance(o, (np.floating, np.integer)):
            o = o.item()
        return None if isinstance(o, float) and not math.isfinite(o) else o
    return json.dumps(strict(doc), sort_keys=True, allow_nan=False, **layout)


def write_json(path, schema: str, payload) -> Path:
    path = Path(path)
    path.write_text(_json_text({"schema": f"nlspair.{schema}.v1", "data": payload},
                               indent=1) + "\n")
    return path


def _config_hash(config: dict) -> str:
    canon = _json_text(config, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write_manifest(out_dir: Path, manifest: dict) -> None:
    (out_dir / "manifest.json").write_text(
        _json_text({"schema": "nlspair.manifest.v1", **manifest}, indent=1) + "\n")


@contextmanager
def _recording(out_dir: Path, name: str, config: dict, **facts):
    """Record the pipeline run in the ``with`` body in ``out_dir/manifest.json``.

    The manifest holds the run's ``name``, its ``config`` and the config's
    hash, the package version and the pipeline's ``facts``; it is written
    with status ``running`` before the body runs.  The body gets the manifest
    dict, sets its ``outputs`` to the names of the files it wrote (relative
    to ``out_dir``) and may add entries.  On exit the manifest is written
    again with the status (``ok``, or ``failed`` when the body raised), the
    wall time, the sorted outputs with the manifest itself, and the event of
    a GuardViolation that ended the run.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"name": name, "config_hash": _config_hash(config), "config": config,
                "package_version": __version__, "status": "running",
                "started_unix": _time.time(), "wall_seconds": 0.0,
                "guard_events": [], "outputs": [], **facts}
    _write_manifest(out_dir, manifest)
    t0 = _time.perf_counter()
    try:
        yield manifest
        manifest["outputs"] = sorted(set(manifest["outputs"])) + ["manifest.json"]
        manifest["status"] = "ok"
    except BaseException as exc:
        manifest["status"] = "failed"
        if isinstance(exc, GuardViolation):
            manifest["guard_events"] = [{"t": exc.time, "fraction": exc.fraction}]
        raise
    finally:
        manifest["wall_seconds"] = _time.perf_counter() - t0
        _write_manifest(out_dir, manifest)


@contextmanager
def _stage(manifest: dict, name: str):
    """Record the wall time of the ``with`` body, finished or failed, as
    ``name`` in the manifest's ``stage_seconds``."""
    t0 = _time.perf_counter()
    try:
        yield
    finally:
        manifest["stage_seconds"][name] = _time.perf_counter() - t0


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def emit_trajectory_reports(traj: Trajectory, out_dir: Path, analysis: AnalysisOptions,
                            manifest: dict | None = None) -> list[str]:
    """Write the ledger, the per-frequency case table, and the remainder and
    decoupling histories, each once, as CSV; ``profiles.json`` holds the
    run-level numbers no CSV does (``deadband``, ``discrepancy`` and
    ``balance_residual``).  The case table's columns are the grid's ``xi``,
    the table's verdicts and the balance law's ``m_hat_b`` of the one
    :class:`profiles.ProfileHistory`, which is read as the remainder and the
    decoupling history too and dropped before any report is formatted.
    The survivor's limit columns (``beta_plus_*``, ``tail_err``) are empty
    where the table holds NaN, as on every row of a conservative run.

    With a pipeline's ``manifest``, the wall time of each part goes in its
    ``stage_seconds``: ``profiles`` (the one pass), ``case_table`` (the
    verdicts) and ``writing`` (the files).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if manifest is None:
        manifest = {"stage_seconds": {}}
    if analysis.profiles:
        with _stage(manifest, "profiles"):
            profiles = profile_history(traj)
        with _stage(manifest, "case_table"):
            table = build_case_records(profiles)
        rem, dec = remainder_history(traj, profiles), decoupling_history(profiles)
        ts, ratio, m_b, residual = rem.ts, rem.bound_ratio, rem.m_b, rem.balance_residual
        sup, l2 = dec.sup_products, dec.l2_products
        # the pass's record dies here, with its window moduli and R tail,
        # before any report is formatted
        del profiles, rem, dec
    with _stage(manifest, "writing"):
        paths = [write_csv(out_dir / "mass_ledger.csv", "mass_ledger", ["t", *_LEDGER],
                           [traj.ts, *traj.ledger.T])]
        if analysis.profiles:
            paths += [
                write_csv(out_dir / "profiles.csv", "profiles",
                          ["xi", "m_hat_a", "m_hat_b", "case_label", "fitted_exponent",
                           "beta_plus_re", "beta_plus_im", "tail_err"],
                          [traj.grid.xi, table.m_a, m_b, table.label, table.fitted_exponent,
                           table.beta_plus.real, table.beta_plus.imag, table.beta_tail_err]),
                write_json(out_dir / "profiles.json", "profiles",
                           {"deadband": table.deadband, "discrepancy": table.discrepancy,
                            "balance_residual": residual}),
                write_csv(out_dir / "remainder.csv", "remainder", ["t", "bound_ratio"],
                          [ts, ratio]),
                write_csv(out_dir / "decoupling.csv", "decoupling",
                          ["t", "sup_product", "l2_product"], [ts, sup, l2]),
            ]
    return [p.name for p in paths]


def run_simulate(config: ExperimentConfig, out_dir) -> dict:
    """Full simulate pipeline: data, run, reports, manifest.  The manifest
    records the run's ``steps`` and the wall time of each stage
    (``stage_seconds``: ``run``, ``reports`` and, when they are saved,
    ``checkpoints``; ``reports`` is the total of the parts
    :func:`emit_trajectory_reports` records).

    Returns a summary dict with the trajectory attached (for callers that
    keep analysing in-process).
    """
    out_dir = Path(out_dir)
    grid = config.solver.grid
    # a bad data spec, or data whose ledger or norms overflow, fails here,
    # before anything is written
    state = generate_initial_data(config.data1, config.data2, grid, config.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        ledger = dict(zip(_LEDGER, mass_ledger(grid, state).tolist()))
        data_size = data_size_report(grid, state)
    overflown = [k for k, v in {**ledger, **data_size}.items() if not np.isfinite(v)]
    if overflown:
        raise ConfigError(f"the initial data's ledger or norms overflow "
                          f"({', '.join(overflown)}); lower the amplitude")
    with _recording(out_dir, config.name, config.to_dict(),
                    grid={"n_points": grid.n_points, "length": grid.length,
                          "dx": grid.dx, "dxi": grid.dxi},
                    seed=config.seed, data_size=data_size, steps={},
                    stage_seconds={}) as manifest:
        # checkpoint files an earlier run left here would be read by analyze
        # as this run's, and its analytics reports taken for this run's
        stale = list((out_dir / "checkpoints").glob("cp_*.bin"))
        if not config.analysis.profiles:
            stale += [out_dir / name for name in _PROFILE_REPORTS]
        for old in stale:
            old.unlink(missing_ok=True)
        with _stage(manifest, "run"):
            traj = run(config.solver, state)
        with _stage(manifest, "reports"):
            outputs = emit_trajectory_reports(traj, out_dir, config.analysis, manifest)
        if config.save_checkpoints:
            with _stage(manifest, "checkpoints"):
                cp_dir = out_dir / "checkpoints"
                cp_dir.mkdir(exist_ok=True)
                for i, (t, v) in enumerate(zip(traj.ts.tolist(), traj.states)):
                    name = f"checkpoints/cp_{i:04d}.bin"
                    persist_checkpoint(out_dir / name, grid, t, v)
                    outputs.append(name)
        manifest["outputs"] = outputs
        manifest["steps"] = traj.steps
    return {"trajectory": traj, "manifest": manifest, "out_dir": out_dir}


def _checkpoint_index(path: Path) -> int:
    """The index of a checkpoint file ``cp_<index>.bin``; a file of another
    name is a CheckpointError naming it."""
    if not path.stem[3:].isdecimal():
        raise CheckpointError(f"{path}: not named cp_<index>.bin")
    return int(path.stem[3:])


def load_trajectory(out_dir, config: ExperimentConfig) -> Trajectory:
    """Rebuild a trajectory from persisted checkpoints (for `analyze`).

    The files ``cp_<index>.bin``, in the order of their integer index, stay
    on disk: the trajectory's ``states`` is a :class:`StoredStates` that
    reads them per row or per block of rows.  Here only each file's header
    is read, and checked with the file's size, before anything is computed.
    The files must hold the config's checkpoint times in order: the first
    time missing or not among them is a CheckpointError, as is a file on
    another grid or of the wrong size.  The trajectory's ledger then reads
    every payload once, and a non-finite sample is a CheckpointError too.
    """
    cp_dir = Path(out_dir) / "checkpoints"
    files = sorted(cp_dir.glob("cp_*.bin"), key=_checkpoint_index)
    if not files:
        raise ConfigError(f"no checkpoints under {cp_dir}")
    grid = config.solver.grid
    want = config.solver.resolved_checkpoints()
    ts = np.empty(len(files))
    for i, f in enumerate(files):
        with open(f, "rb") as fh:
            ts[i] = _checkpoint_time(f, fh.read(_HEADER.size), os.fstat(fh.fileno()).st_size,
                                     grid)
        if i < len(want) and ts[i] > want[i] + _time_tol(want[i]):
            raise CheckpointError(f"{cp_dir}: no checkpoint at the config's time {want[i]:g}")
        if i >= len(want) or ts[i] < want[i] - _time_tol(want[i]):
            raise CheckpointError(f"{f}: time {ts[i]:g} is not a checkpoint time of the config")
    if len(files) < len(want):
        raise CheckpointError(f"{cp_dir}: no checkpoint at the config's time "
                              f"{want[len(files)]:g}")
    return Trajectory(config=config.solver, ts=ts, states=StoredStates(files, ts, grid),
                      provenance={"scheme": "loaded", "source": str(cp_dir)})


def run_analyze(out_dir) -> dict:
    """Rewrite the reports of the stored simulate run in ``out_dir`` from its
    checkpoints, under the config its ``manifest.json`` records.

    A manifest that is missing, malformed or records no simulate config
    (that of another subcommand, say) is a ConfigError naming the file.
    Returns the ``config`` and the names of the rewritten ``outputs``.
    """
    out_dir = Path(out_dir)
    path = out_dir / "manifest.json"
    manifest = read_json_object(path)
    try:
        config = ExperimentConfig.from_dict(manifest.get("config"))
    except ConfigError as exc:
        raise ConfigError(f"{path} records no simulate config: {exc}") from exc
    traj = load_trajectory(out_dir, config)
    return {"config": config,
            "outputs": emit_trajectory_reports(traj, out_dir, config.analysis)}


def run_scatter_roundtrip(opts: ScatterOptions, out_dir) -> dict:
    """Construct the solution scattering to the prescribed data, run it forward
    from T, fit its decay towards the free wave, and write
    ``scattering.csv/json`` and the manifest, which also records the forward
    run's ``steps``, the Picard iteration's history (``picard``) and the wall
    time of each stage (``stage_seconds``: ``final_state``, ``picard``,
    ``forward``, ``verify``).

    Returns the final state ``spec``, the Picard ``state``, the forward
    trajectory ``traj`` and the ``report`` of :func:`scattering.verify_scattering`.
    """
    out_dir = Path(out_dir)
    with _recording(out_dir, "scatter-roundtrip", asdict(opts),
                    stage_seconds={}) as manifest:
        with _stage(manifest, "final_state"):
            grid = Grid(opts.n_points, opts.length)
            spec = scattering.build_final_state(grid, list(opts.windows1),
                                                list(opts.windows2), s=opts.s)
        with _stage(manifest, "picard"):
            state = scattering.picard_construct(spec, opts.T, opts.T_max,
                                                max_iters=opts.max_iters,
                                                tol=opts.tol, n_time=opts.n_time)
        cfg = SolverConfig(
            n_points=opts.n_points, length=opts.length, t_start=opts.T,
            t_end=opts.forward_t_end,
            checkpoint_times=tuple(np.geomspace(opts.T, opts.forward_t_end, 25)),
        )
        with _stage(manifest, "forward"):
            traj = run(cfg, state.v[0])
        manifest["steps"] = traj.steps
        manifest["picard"] = {"iterations": state.iterate_index, "converged": state.converged,
                              "distances": state.distances, "ratios": state.ratios}
        with _stage(manifest, "verify"):
            report = scattering.verify_scattering(traj, spec)
        manifest["outputs"] = [
            write_csv(out_dir / "scattering.csv", "scattering",
                      ["t", "error_l2"], [report.ts, report.errors]).name,
            write_json(out_dir / "scattering.json", "scattering", {
                "fitted_slope": report.fitted_slope,
                "slope_bound": report.slope_bound,
                "contraction_ratios": state.ratios,
                "passed": report.passed,
            }).name,
        ]
    return {"spec": spec, "state": state, "traj": traj, "report": report}


def run_obstruction(opts: ObstructionOptions, out_dir) -> dict:
    """Obstruction probe on overlapping data, plus the decoupled control run,
    with ``obstruction.csv/json`` and the manifest.

    The control starts from the same few Picard iterations at T as the probe
    and records the dyadic profile drift at the same base times; the
    manifest's ``steps`` holds the ``probe`` and ``control`` forward runs',
    and its ``stage_seconds`` the wall time of each half.
    Returns the probe's ``report`` and the control's ``control_drift``.
    """
    out_dir = Path(out_dir)
    with _recording(out_dir, "obstruction", asdict(opts), stage_seconds={}) as manifest:
        grid = Grid(opts.n_points, opts.length)
        with _stage(manifest, "probe"):
            overlap = scattering.build_final_state(grid, [opts.overlap_window],
                                                   [dict(opts.overlap_window)])
            report = scattering.obstruction_probe(overlap, opts.base_times, T=opts.T,
                                                  picard_iters=opts.picard_iters)
        with _stage(manifest, "control"):
            control = scattering.build_final_state(grid, [opts.control1], [opts.control2])
            drift = scattering.dyadic_drift_run(control, opts.base_times,
                                                opts.T, opts.picard_iters)
        manifest["steps"] = {"probe": report.steps, "control": drift["steps"]}
        manifest["outputs"] = [
            write_csv(out_dir / "obstruction.csv", "obstruction",
                      ["t", "d1_overlap", "d2_overlap", "d1_control", "d2_control"],
                      [report.ts, report.d1, report.d2, drift["d1"], drift["d2"]]).name,
            write_json(out_dir / "obstruction.json", "obstruction", {
                "eta": report.eta, "floor": report.stagnation_floor,
                "stagnates": report.stagnates,
                "control_slope": float(loglog_slopes(drift["ts"],
                                                     np.minimum(drift["d1"], drift["d2"]))),
            }).name,
        ]
    return {"report": report, "control_drift": drift}


def run_lemmas(out_dir) -> dict:
    """Certify the two ODE lemmas on their default sweeps and write one row
    per certificate to ``lemma_certificates.csv``, with the manifest.

    Returns the ``rows`` and whether every certificate ``passed``.
    """
    out_dir = Path(out_dir)
    with _recording(out_dir, "lemmas", {}) as manifest:
        rows = []
        all_pass = True
        for params, ts, phis in asymptotics.default_lemma_m_sweep():
            cert = asymptotics.lemma_m_certificate(params, ts, phis)
            all_pass &= cert.passed
            rows.append(("log_decay", params.p, params.q, params.c0, params.c1,
                         params.phi0, cert.c2, cert.worst_margin, cert.passed))
        for record, lam_fn, q_fn in asymptotics.default_linear_ode_sweep():
            ys = asymptotics.solve_linear_record(record, lam_fn, q_fn)
            rep = asymptotics.linear_ode_limit(record, ys)
            all_pass &= rep.passed
            rows.append(("linear_limit", record.lam_tail_pow, record.q_tail_pow,
                         abs(record.y0), 0.0, 0.0, rep.c3, rep.worst_margin, rep.passed))
        manifest["outputs"] = [
            write_csv(out_dir / "lemma_certificates.csv", "lemma_certificates",
                      ["kind", "p1", "p2", "c0", "c1", "phi0", "constant",
                       "worst_margin", "passed"], list(zip(*rows))).name,
        ]
    return {"rows": rows, "passed": all_pass}
