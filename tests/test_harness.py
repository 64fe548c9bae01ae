import dataclasses
import json
import math
import shutil
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

import nlspair as nl
from nlspair import harness, profiles as P
from nlspair.cli import main
from nlspair.dynamics import W1, DtPolicy, SolverConfig, run
from nlspair.errors import CheckpointError, ConfigError, GuardViolation
from nlspair.harness import (
    AnalysisOptions,
    ExperimentConfig,
    SIMULATE_PRESETS,
    _recording,
    data_size_report,
    emit_trajectory_reports,
    generate_initial_data,
    get_simulate_preset,
    load_checkpoint,
    load_config,
    load_trajectory,
    persist_checkpoint,
    run_simulate,
    write_csv,
    write_json,
)
from nlspair.profiles import (
    BALANCED,
    SURVIVOR_1,
    build_case_records,
    profile_history,
    remainder_history,
)
from nlspair.spectral import _forward_array, _push_forward

from conftest import gaussian_field, l2, same_arrays


@pytest.fixture()
def grid():
    return nl.Grid(256, 200.0)


def tiny_config_dict(t_end=120.0):
    return {
        "name": "tiny",
        "seed": 11,
        "solver": {
            "n_points": 256,
            "length": 400.0,
            "t_start": 0.0,
            "t_end": t_end,
            "checkpoint_times": [0.0] + list(np.geomspace(2.0, t_end, 20)),
        },
        "data1": {"kind": "gaussian", "amp": 0.08, "width": 4.0},
        "data2": {"kind": "gaussian", "amp": 0.05, "width": 5.0},
        "save_checkpoints": True,
    }


class TestInitialData:
    def test_copy_is_exactly_symmetric(self, grid):
        state = generate_initial_data({"kind": "gaussian", "amp": 0.1, "width": 4.0},
                                      {"kind": "copy"}, grid, seed=3)
        assert state.shape == (2, grid.n_points) and state.dtype == np.complex128
        assert np.array_equal(state[0], state[1])

    def test_mass_asymmetry_gives_positive_difference(self, grid):
        # 2:1 mass ratio guarantees a nonvanishing limit for one component
        state = generate_initial_data(
            {"kind": "gaussian", "amp": 0.1, "width": 4.0},
            {"kind": "gaussian", "amp": 0.1 / np.sqrt(2.0), "width": 4.0},
            grid, seed=3)
        m1, m2 = l2(grid, state) ** 2
        assert m1 == pytest.approx(2.0 * m2, rel=1e-12)
        assert m1 - m2 > 0

    def test_same_seed_bitwise_identical(self, grid):
        spec1 = {"kind": "random", "amp": 0.1, "band": 1.0}
        spec2 = {"kind": "random", "amp": 0.05, "band": 0.5}
        a = generate_initial_data(spec1, spec2, grid, seed=42)
        b = generate_initial_data(spec1, spec2, grid, seed=42)
        assert np.array_equal(a, b)
        c = generate_initial_data(spec1, spec2, grid, seed=43)
        assert not np.array_equal(a[0], c[0])

    def test_modulated_gaussian(self, grid):
        state = generate_initial_data(
            {"kind": "gaussian", "amp": 0.1, "width": 4.0, "velocity": 0.3},
            {"kind": "copy"}, grid, seed=0)
        peak = grid.xi[np.argmax(np.abs(_forward_array(grid, state[0])))]
        assert peak == pytest.approx(0.3, abs=2 * grid.dxi)

    @pytest.mark.parametrize("kind, key, value", [
        ("gaussian", "amp", math.nan), ("gaussian", "width", math.inf),
        ("gaussian", "center", math.nan), ("gaussian", "velocity", -math.inf),
        ("gaussian", "phase", math.nan), ("random", "amp", math.inf),
        ("random", "band", math.nan), ("random", "envelope_width", math.inf),
    ])
    def test_non_finite_rejected(self, grid, kind, key, value):
        spec = {"gaussian": {"kind": "gaussian", "amp": 0.1, "width": 4.0},
                "random": {"kind": "random", "amp": 0.1, "band": 1.0}}[kind]
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            generate_initial_data({**spec, key: value}, {"kind": "copy"}, grid, seed=0)

    def test_unknown_kind_rejected(self, grid):
        with pytest.raises(ConfigError):
            generate_initial_data({"kind": "sinc", "amp": 1.0}, {"kind": "copy"},
                                  grid, seed=0)

    def test_unknown_key_rejected(self, grid):
        with pytest.raises(ConfigError):
            generate_initial_data({"kind": "gaussian", "amp": 1.0, "width": 1.0,
                                   "wdith": 2.0}, {"kind": "copy"}, grid, seed=0)

    def test_size_report(self, grid):
        state = generate_initial_data({"kind": "gaussian", "amp": 0.1, "width": 4.0},
                                      {"kind": "copy"}, grid, seed=0)
        rep = data_size_report(grid, state)
        assert rep["l2"] > 0 and rep["h2"] > 0 and rep["h1_1"] > 0
        # the pair of equal components has sqrt(2) times the L2 norm of one
        assert rep["l2"] == pytest.approx(np.sqrt(2.0) * l2(grid, state[0]), rel=1e-14)


class TestCheckpointFormat:
    def _state(self, grid):
        rng = np.random.default_rng(5)
        n = grid.n_points
        return rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))

    def test_round_trip_bitwise(self, grid, tmp_path):
        state = self._state(grid)
        path = tmp_path / "cp.bin"
        persist_checkpoint(path, grid, 3.5, state)
        t, back = load_checkpoint(path, grid)
        assert t == 3.5
        assert back.shape == (2, grid.n_points) and not back.flags.writeable
        assert np.array_equal(back, state)

    def test_version_mismatch_rejected(self, grid, tmp_path):
        path = tmp_path / "cp.bin"
        persist_checkpoint(path, grid, 3.5, self._state(grid))
        raw = bytearray(path.read_bytes())
        raw[8] = 99   # version field
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path, grid)

    def test_bad_magic_rejected(self, grid, tmp_path):
        path = tmp_path / "cp.bin"
        path.write_bytes(b"NOTACKPT" + bytes(100))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path, grid)

    def test_truncated_payload_rejected(self, grid, tmp_path):
        path = tmp_path / "cp.bin"
        persist_checkpoint(path, grid, 3.5, self._state(grid))
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(path, grid)

    def test_padded_payload_rejected(self, grid, tmp_path):
        path = tmp_path / "cp.bin"
        persist_checkpoint(path, grid, 3.5, self._state(grid))
        with open(path, "ab") as fh:
            fh.write(bytes(16))
        with pytest.raises(CheckpointError, match=f"cp.bin: payload holds {32 * 256 + 16} bytes, "
                                                  f"header N=256 implies {32 * 256}"):
            load_checkpoint(path, grid)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_payload_rejected(self, grid, tmp_path, value):
        state = self._state(grid)
        state[1, 7] = complex(0.5, value)
        path = tmp_path / "cp.bin"
        persist_checkpoint(path, grid, 3.5, state)
        with pytest.raises(CheckpointError, match="cp.bin: payload holds non-finite"):
            load_checkpoint(path, grid)

    @pytest.mark.parametrize("t", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_time_rejected(self, grid, tmp_path, t):
        # a NaN time would pass load_trajectory's ordering checks, since every
        # comparison with it is False
        path = tmp_path / "cp.bin"
        persist_checkpoint(path, grid, t, self._state(grid))
        with pytest.raises(CheckpointError, match="cp.bin: header holds the non-finite time"):
            load_checkpoint(path, grid)


def _assert_retired_key(stored_run, tmp_path, capsys, configs, message):
    """Each config, as a config file for ``simulate`` and as the config of an
    older stored run's manifest for ``analyze``, exits 2 with one
    ``[nlspair:config]`` line holding ``message``, and writes no output."""
    manifest = json.loads((stored_run / "manifest.json").read_text())
    for i, d in enumerate(configs):
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(d))
        run_dir = tmp_path / f"run{i}"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(json.dumps({**manifest, "config": d}))
        for argv in (["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")],
                     ["analyze", "--out", str(run_dir)]):
            capsys.readouterr()
            assert main(argv) == 2, (d, argv[0])
            err = capsys.readouterr().err
            assert err.startswith("[nlspair:config]") and err.count("\n") == 1, err
            assert message in err
        assert not (tmp_path / "o").exists()


class TestExperimentConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(tiny_config_dict())
        d = cfg.to_dict()
        again = ExperimentConfig.from_dict(d)
        assert again == cfg and again.config_hash() == cfg.config_hash()
        # every field is a config key, so the manifest and the hash see all of them
        for section, cls in ((d, ExperimentConfig), (d["solver"], SolverConfig),
                             (d["solver"]["dt_policy"], DtPolicy),
                             (d["analysis"], AnalysisOptions)):
            assert set(section) == {f.name for f in dataclasses.fields(cls)}, cls

    def test_unknown_top_level_key(self):
        d = tiny_config_dict()
        d["extra"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict(d)

    def test_unknown_solver_key(self):
        d = tiny_config_dict()
        d["solver"]["dt"] = 0.1
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict(d)

    def test_retired_dt_policy_key(self):
        # a step policy has only dt and rate; configs of the older policy fail
        d = tiny_config_dict()
        d["solver"]["dt_policy"] = {"kind": "proportional", "dt": 0.01}
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig.from_dict(d)
        # the case analysis always runs the remainder, with the one exponent
        # gamma = 1/24; their keys are retired too
        for key, value in (("remainder", True), ("gamma", 1.0 / 24.0)):
            d = tiny_config_dict()
            d["analysis"] = {key: value}
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig.from_dict(d)
        # the Strang kernel runs both couplings; the scheme key is retired
        for scheme in ("strang_exact", "rk4_reference"):
            d = tiny_config_dict()
            d["solver"]["scheme"] = scheme
            with pytest.raises(ConfigError, match="scheme"):
                ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("deadband", [math.nan, math.inf])
    def test_non_finite_deadband_rejected(self, deadband):
        # the dead-band is no longer a key, so a non-finite one is rejected
        # as an unknown key
        d = {**tiny_config_dict(), "analysis": {"profiles": True, "deadband": deadband}}
        with pytest.raises(ConfigError, match="deadband"):
            ExperimentConfig.from_dict(d)

    def test_retired_deadband_key(self, stored_run, tmp_path, capsys):
        # the dead-band is always max(1e-3, 3 discrepancy): a config that
        # sets analysis.deadband, to null too, and the manifest of an older
        # run that lists it are config errors
        configs = [{**tiny_config_dict(), "analysis": {"profiles": True, "deadband": value}}
                   for value in (None, 1e-3, math.nan, math.inf, "abc", True)]
        _assert_retired_key(stored_run, tmp_path, capsys, configs,
                            "unknown keys in config.analysis: ['deadband']")

    def test_retired_scheme_key(self, stored_run, tmp_path, capsys):
        # the Strang kernel runs both couplings: a config that sets
        # solver.scheme and the manifest of an older run that lists it are
        # config errors
        configs = []
        for value in ("strang_exact", "rk4_reference"):
            d = tiny_config_dict()
            d["solver"]["scheme"] = value
            configs.append(d)
        _assert_retired_key(stored_run, tmp_path, capsys, configs,
                            "unknown keys in config.solver: ['scheme']")

    def test_seed_mandatory(self):
        d = tiny_config_dict()
        del d["seed"]
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict(d)

    def test_presets_construct(self):
        for name in SIMULATE_PRESETS:
            cfg = get_simulate_preset(name)
            assert cfg.name == name
        with pytest.raises(ConfigError):
            get_simulate_preset("not-a-preset")

    def test_short_run_rejected_when_profiles_on(self):
        d = tiny_config_dict(t_end=50.0)
        with pytest.raises(ConfigError, match="t >= 100"):
            ExperimentConfig.from_dict(d)
        d["analysis"] = {"profiles": False}
        assert ExperimentConfig.from_dict(d).solver.t_end == 50.0

    def test_sparse_trailing_window_rejected(self):
        d = tiny_config_dict()
        d["solver"]["checkpoint_times"] = [0.0] + list(np.geomspace(2.0, 120.0, 10))
        with pytest.raises(ConfigError, match="trailing window"):
            ExperimentConfig.from_dict(d)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")


def _cell_by_type(x) -> str:
    """The per-cell formatter CSV reports were written with before columns."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x)) if x == x else ""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return str(x)


class TestCsv:
    def test_schema_line_and_float_formatting(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", "demo", ["a", "b"],
                         [[1.0 / 3.0, 0.1], [1, 2]])
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema=nlspair.demo.v1"
        assert lines[1] == "a,b"
        assert lines[2].split(",")[0] == repr(1.0 / 3.0)

    def test_columns_match_per_cell_formatting(self, tmp_path):
        floats = np.array([1.0 / 3.0, np.nan, -0.0, 0.0, 1e-300, -2.5e17, np.inf, 7.0])
        columns = [
            floats,
            floats.astype(np.float32),
            np.arange(-3, 5),
            np.array(["survivor_1", "balanced", "survivor_2", "a", "b", "c", "d", "e"]),
            np.array([True, False] * 4),
            # a sequence of mixed Python and numpy scalars
            [np.float64(np.nan), np.float64(-0.0), np.int64(3), 4, 0.5, "x", True, np.bool_(False)],
        ]
        path = write_csv(tmp_path / "x.csv", "demo", list("abcdef"), columns)
        rows = [",".join(_cell_by_type(v) for v in row) for row in zip(*columns)]
        assert path.read_text().splitlines()[2:] == rows
        assert rows[1].startswith(",") and rows[2].startswith("-0.0,")

    def test_rows_written_in_chunks(self, tmp_path, monkeypatch):
        # 3-row chunks, a 1-row tail and columns of a list, a string and an
        # array: the same bytes as the whole text joined at once
        monkeypatch.setattr(nl.harness, "_CSV_ROWS", 3)
        columns = [np.linspace(0.0, 1.0, 7), "abcdefg", [1, 2, 3, 4, 5, 6, 7]]
        path = write_csv(tmp_path / "x.csv", "demo", ["t", "c", "n"], columns)
        rows = [",".join(_cell_by_type(v) for v in row) for row in zip(*columns)]
        assert path.read_text() == "\n".join(["# schema=nlspair.demo.v1", "t,c,n", *rows]) + "\n"


def test_json_non_finite_is_null(tmp_path):
    # strict JSON: NaN and +-inf are written as null, in reports and manifests
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    path = write_json(tmp_path / "x.json", "demo",
                      {"nan": math.nan, "inf": np.float64(np.inf), "xs": [-math.inf, 1.5]})
    doc = json.loads(path.read_text(), parse_constant=reject)
    assert doc["data"] == {"nan": None, "inf": None, "xs": [None, 1.5]}
    with _recording(tmp_path / "run", "demo", {"x": math.inf}, nan=math.nan) as manifest:
        manifest["xs"] = (-math.inf, np.float64(np.nan), 2)
    doc = json.loads((tmp_path / "run" / "manifest.json").read_text(), parse_constant=reject)
    assert doc["config"] == {"x": None} and doc["nan"] is None
    assert doc["xs"] == [None, None, 2] and doc["status"] == "ok"


class TestPipelines:
    def test_simulate_pipeline_and_rerun_determinism(self, tmp_path):
        cfg = ExperimentConfig.from_dict(tiny_config_dict())
        res1 = run_simulate(cfg, tmp_path / "a")
        res2 = run_simulate(cfg, tmp_path / "b")
        csvs = {"mass_ledger.csv", "profiles.csv", "decoupling.csv", "remainder.csv"}
        for name in csvs:
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()
        top = {p.name for p in (tmp_path / "a").iterdir() if p.is_file()}
        assert top == csvs | {"profiles.json", "manifest.json"}
        data = json.loads((tmp_path / "a" / "profiles.json").read_text())["data"]
        assert set(data) == {"deadband", "discrepancy"}
        # a limit value is written exactly where a component survives
        rows = [r.split(",") for r in
                (tmp_path / "a" / "profiles.csv").read_text().splitlines()[2:]]
        balanced = [r[3] == "balanced" for r in rows]
        assert any(balanced) and not all(balanced)
        for row, bal in zip(rows, balanced):
            assert (row[5] == "" and row[6] == "") == bal
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        listed = set(manifest["outputs"])
        on_disk = {p.relative_to(tmp_path / "a").as_posix()
                   for p in (tmp_path / "a").rglob("*") if p.is_file()}
        assert listed == on_disk
        assert len(res1["trajectory"].checkpoints) == 21

    def test_tail_err_is_survivor_error_bar(self, stored_run):
        # the tail_err column is the survivor's error bar: empty exactly where
        # beta_plus is, and the table's beta_tail_err on every survivor row
        traj = load_trajectory(stored_run, ExperimentConfig.from_dict(tiny_config_dict()))
        profiles = profile_history(traj)
        table = build_case_records(profiles, remainder_history(traj, profiles))
        rows = [r.split(",") for r in
                (stored_run / "profiles.csv").read_text().splitlines()[2:]]
        assert [r[3] for r in rows] == list(table.label)
        for row, label, err in zip(rows, table.label, table.beta_tail_err, strict=True):
            assert row[7] == ("" if label == BALANCED else repr(float(err)))

    def test_conservative_run_writes_no_limit(self, tmp_path):
        # under the phase-rotating coupling no companion dies, so no survivor
        # has a limit: the labels are only the sign of the imbalance, and
        # the limit's columns are empty on every row
        d = {**tiny_config_dict(), "save_checkpoints": False}
        d["solver"] = {**d["solver"], "coupling": "conservative"}
        traj = run_simulate(ExperimentConfig.from_dict(d), tmp_path)["trajectory"]
        profiles = profile_history(traj)
        table = build_case_records(profiles, remainder_history(traj, profiles))
        assert np.count_nonzero(table.label == SURVIVOR_1) > 0
        rows = [r.split(",") for r in
                (tmp_path / "profiles.csv").read_text().splitlines()[2:]]
        assert [r[3] for r in rows] == list(table.label)
        assert all(r[5:] == ["", "", ""] for r in rows)

    def test_manifest_records_steps(self, tmp_path):
        cfg = ExperimentConfig.from_dict(tiny_config_dict())
        traj = run_simulate(cfg, tmp_path)["trajectory"]
        steps = json.loads((tmp_path / "manifest.json").read_text())["steps"]
        assert steps == {k: traj.provenance[k] for k in ("n_steps", "dt_min", "dt_max")}
        assert steps["n_steps"] > 100
        # the ladder's rungs below t_end = 120 are 0.16 to 2.56
        assert 0.0 < steps["dt_min"] <= 0.16 and steps["dt_max"] == 2.56

    def test_manifest_records_stage_seconds(self, tmp_path):
        # the wall time of stepping, reports and checkpoint writing, in the
        # manifest only; the parts of the reports add up to at most their total
        run_simulate(ExperimentConfig.from_dict(tiny_config_dict()), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        seconds = manifest["stage_seconds"]
        parts = ["case_table", "decoupling", "profiles", "remainder", "writing"]
        assert sorted(seconds) == sorted(["checkpoints", "reports", "run", *parts])
        assert all(0.0 <= s <= manifest["wall_seconds"] for s in seconds.values())
        assert sum(seconds[k] for k in parts) <= seconds["reports"]

    def test_cli_non_finite_config_exit_2(self, tmp_path, capsys):
        # non-finite numbers, seeds that are not integers >= 0, numbers and
        # toggles of the wrong type, sections that are not objects, and
        # malformed data specs
        solver = {"n_points": 256, "length": 400.0, "t_end": 120.0}
        gaussian = {"kind": "gaussian", "amp": 0.08, "width": 4.0}
        bad = [("solver", {**solver, "t_end": math.inf}),
               ("seed", math.inf), ("seed", math.nan), ("seed", "abc"), ("seed", 1.7),
               ("seed", -1),
               ("analysis", {"profiles": "no"}), ("save_checkpoints", "false"),
               ("solver", {**solver, "length": True}),
               ("solver", {**solver, "checkpoint_times": ["a"]}),
               ("data1", {"kind": "gaussian", "width": 4.0}), ("data1", {**gaussian, "amp": [1]}),
               ("data1", {**gaussian, "amp": "abc"}), ("data1", "abc"), ("analysis", "abc"),
               ("solver", [1, 2])]
        for i, (key, value) in enumerate(bad):
            d = {**tiny_config_dict(), key: value}
            cfg_path = tmp_path / f"cfg{i}.json"
            cfg_path.write_text(json.dumps(d))     # writes the JSON extensions `Infinity`, `NaN`
            out = tmp_path / f"o{i}"
            assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2, key
            err = capsys.readouterr().err
            assert err.startswith("[nlspair:config]") and err.count("\n") == 1, err
            assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("data, fragment", [
        ({"data1": {"kind": "gaussian", "amp": 1e200, "width": 4.0}},
         "overflow (mass1, diff, interaction, l2, h2, h1_1)"),
        # a finite mass whose Sobolev weights overflow the manifest's norms
        ({"data1": {"kind": "gaussian", "amp": 5e153, "width": 0.3}}, "overflow (h2, h1_1)"),
        # finite masses and norms whose interaction integral overflows
        ({"data1": {"kind": "gaussian", "amp": 1e80, "width": 8.0},
          "data2": {"kind": "gaussian", "amp": 4e79, "width": 12.0}}, "overflow (interaction)"),
    ], ids=["mass", "norms", "interaction"])
    def test_cli_overflowing_data_exit_2(self, tmp_path, capsys, data, fragment):
        # finite data whose ledger or norms overflow: a config error before
        # any compute, with no numpy warning and no manifest
        d = {**tiny_config_dict(), **data}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("[nlspair:config]") and err.count("\n") == 1, err
        assert fragment in err and not out.exists()

    def test_cli_backward_stage_out_of_domain_exit_1(self, tmp_path, capsys):
        # amplitude 5 on the first rung: the backward middle stage of the
        # first step leaves the logistic's domain, the state turns NaN and
        # the guard of the next stage, at t = dt - W1 dt/2, stops the run
        d = tiny_config_dict()
        d["data1"] = {"kind": "gaussian", "amp": 5.0, "width": 4.0}
        d["data2"] = {"kind": "gaussian", "amp": 5.0, "width": 5.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("[nlspair:guard]") and err.count("\n") == 1, err
        dt = DtPolicy().dt
        assert f"non-finite mass at t = {dt - 0.5 * W1 * dt:.6g}" in err
        assert "the amplitude or dt_policy.dt is too large" in err
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["status"] == "failed"

    def test_cli_guard_event_recorded(self, tmp_path):
        # the headline's data in a box of 400: mass reaches the edge bands
        # between the default checkpoints at 384.4 and 450.8, first at
        # t = 389.16; every Strang stage is guarded, so the event lies within
        # one step of the ladder of that crossing
        d = tiny_config_dict(t_end=1000.0)
        d["solver"] = {"n_points": 1024, "length": 400.0, "t_end": 1000.0}
        d["data1"] = {"kind": "gaussian", "amp": 0.1, "width": 8.0}
        d["data2"] = {"kind": "gaussian", "amp": 0.04, "width": 12.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        [event] = manifest["guard_events"]
        assert 384.4 < event["t"] < 450.8
        assert abs(event["t"] - 389.16) <= DtPolicy().dt_at(389.16)
        assert event["fraction"] > 1e-6

    def test_cli_scatter_guard_event_recorded(self, tmp_path, capsys, monkeypatch):
        def tripped(*args, **kwargs):
            raise GuardViolation(300.0, 2e-6, 1e-6)
        monkeypatch.setattr("nlspair.harness.run", tripped)   # the forward run
        out = tmp_path / "o"
        assert main(["scatter", "--preset", "scatter-roundtrip", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[nlspair:guard]") and err.count("\n") == 1, err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["outputs"] == []
        assert manifest["guard_events"] == [{"t": 300.0, "fraction": 2e-6}]

    def test_cli_unanalysable_config_exit_2(self, tmp_path, capsys):
        d = tiny_config_dict()
        d["solver"] = {"n_points": 256, "length": 200.0, "t_end": 50.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("[nlspair:config]") and "t >= 100" in err
        assert not (tmp_path / "o").exists()   # rejected before any compute

    @pytest.mark.parametrize("t_end", [1.0, 2.0])
    def test_cli_short_default_grid_exit_2(self, tmp_path, capsys, t_end):
        # the default checkpoints start at t = 2: a run that ends there or
        # before has no increasing default grid, and is a config error
        # before any compute instead of 40 copies of the state past t_end
        d = {"name": "short", "seed": 1,
             "solver": {"n_points": 512, "length": 200.0, "t_end": t_end},
             "analysis": {"profiles": False},
             "data1": {"kind": "gaussian", "amp": 0.08, "width": 4.0},
             "data2": {"kind": "gaussian", "amp": 0.05, "width": 5.0}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("[nlspair:config]") and err.count("\n") == 1, err
        assert "need t_end > 2" in err and not out.exists()

    def test_cli_diagnostic_value_error_exit_1(self, tmp_path, capsys, monkeypatch):
        def too_short(*args, **kwargs):
            raise ValueError("trajectory too short")
        monkeypatch.setattr("nlspair.harness.run_simulate", too_short)
        assert main(["simulate", "--preset", "decoupling-headline",
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "[nlspair:diagnostic] trajectory too short\n"

    def test_cli_removed_threads_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_cli_missing_config_exit_2(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_cli_simulate_and_analyze(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config_dict()))
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "profiles.csv").exists()
        assert (tmp_path / "o" / "checkpoints" / "cp_0000.bin").exists()
        rc = main(["analyze", "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_cli_lemmas(self, tmp_path):
        rc = main(["lemmas", "--out", str(tmp_path / "lem")])
        assert rc == 0
        text = (tmp_path / "lem" / "lemma_certificates.csv").read_text()
        assert "True" in text and "False" not in text
        manifest = json.loads((tmp_path / "lem" / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["outputs"] == ["lemma_certificates.csv", "manifest.json"]

    def test_cli_seed_override(self, tmp_path):
        d = tiny_config_dict()
        d["data1"] = {"kind": "random", "amp": 0.05, "band": 0.8}
        d["solver"]["t_end"] = 110.0
        d["solver"]["checkpoint_times"] = [0.0] + list(np.geomspace(2.0, 110.0, 16))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        assert main(["simulate", "--config", str(cfg_path), "--out",
                     str(tmp_path / "s1"), "--seed", "7"]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out",
                     str(tmp_path / "s2"), "--seed", "8"]) == 0
        a = (tmp_path / "s1" / "mass_ledger.csv").read_bytes()
        b = (tmp_path / "s2" / "mass_ledger.csv").read_bytes()
        assert a != b


@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    """A saved tiny simulate run: manifest plus 21 checkpoint files."""
    out = tmp_path_factory.mktemp("stored") / "run"
    run_simulate(ExperimentConfig.from_dict(tiny_config_dict()), out)
    return out


def _analyze_rejected(run_dir, capsys, name):
    capsys.readouterr()
    assert main(["analyze", "--out", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("[nlspair:guard]") and err.count("\n") == 1
    assert name in err and "Traceback" not in err


class TestTrajectoryLayout:
    def test_run_rows_are_views(self):
        cfg = SolverConfig(n_points=256, length=200.0, t_end=20.0,
                           checkpoint_times=(0.0, 5.0, 10.0, 20.0))
        g = cfg.grid
        traj = run(cfg, np.stack([gaussian_field(g, 0.1, 4.0), gaussian_field(g, 0.05, 5.0)]))
        assert traj.states.shape == (len(traj.ts), 2, g.n_points)
        assert not traj.states.flags.writeable
        assert traj.ledger.shape == (len(traj.ts), 4) and not traj.ledger.flags.writeable
        assert traj.checkpoints is traj.checkpoints     # built once, on first access
        assert len(traj.checkpoints) == len(traj.ts)
        for i, cp in enumerate(traj.checkpoints):
            assert cp.pair.grid is traj.grid
            assert cp.pair.time == traj.ts[i] and type(cp.pair.time) is float
            for j, f in enumerate((cp.pair.u1, cp.pair.u2)):
                assert np.shares_memory(f.values, traj.states)
                assert np.array_equal(f.values, traj.states[i, j])

    def test_loaded_rows_are_read_per_access(self, stored_run):
        # a stored run's states stay in its files: every access reads fresh
        # read-only arrays, and no row is a view of one stack
        cfg = ExperimentConfig.from_dict(tiny_config_dict())
        traj = load_trajectory(stored_run, cfg)
        n_t, n = len(traj.ts), traj.grid.n_points
        states = traj.states
        assert states.shape == (n_t, 2, n) and states.dtype == np.complex128
        assert len(states) == n_t == 21
        assert traj.ledger.shape == (n_t, 4) and not traj.ledger.flags.writeable
        block = states[3:7]
        assert block.shape == (4, 2, n) and not block.flags.writeable
        assert np.array_equal(block, np.stack([states[i] for i in range(3, 7)]))
        assert np.array_equal(states[-1], states[n_t - 1])
        assert len(traj.checkpoints) == n_t
        for i, (cp, row) in enumerate(zip(traj.checkpoints, states)):
            again = states[i]
            assert not row.flags.writeable and not np.shares_memory(row, again)
            assert np.array_equal(row, again)
            assert cp.pair.grid is traj.grid
            assert cp.pair.time == traj.ts[i] and type(cp.pair.time) is float
            for j, f in enumerate((cp.pair.u1, cp.pair.u2)):
                assert np.array_equal(f.values, row[j])
                assert not np.shares_memory(f.values, block)

    def test_checkpoints_read_in_index_order(self, tmp_path):
        # by name, cp_10000.bin sorts before cp_9999.bin
        d = {**tiny_config_dict(), "analysis": {"profiles": False}}
        d["solver"] = {**d["solver"], "t_end": 2.0, "checkpoint_times": [1.0, 2.0]}
        cfg = ExperimentConfig.from_dict(d)
        g = cfg.solver.grid
        (tmp_path / "checkpoints").mkdir()
        states = np.stack([np.stack([gaussian_field(g, a, 4.0)] * 2) for a in (0.1, 0.2)])
        for name, t, v in zip(("cp_9999.bin", "cp_10000.bin"), (1.0, 2.0), states):
            persist_checkpoint(tmp_path / "checkpoints" / name, g, t, v)
        traj = load_trajectory(tmp_path, cfg)
        assert traj.ts.tolist() == [1.0, 2.0] and np.array_equal(traj.states[:], states)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_loaded_run_analyses_bitwise(self, tmp_path, monkeypatch, workers):
        # the stored run's first checkpoint lies before T_MIN, so the pass
        # reads its blocks from an offset row; blocks of one or two rows
        cfg = ExperimentConfig.from_dict(tiny_config_dict())
        memory = run_simulate(cfg, tmp_path / "run")["trajectory"]
        loaded = load_trajectory(tmp_path / "run", cfg)
        monkeypatch.setattr(P, "_workers", lambda: workers)
        monkeypatch.setattr(P, "_BLOCK_POINTS", 2 * 2 * cfg.solver.n_points)
        assert len(P._blocks(loaded.grid, len(loaded.ts) - 1)) >= 10
        assert loaded.ledger.tobytes() == memory.ledger.tobytes()
        assert same_arrays(profile_history(loaded), profile_history(memory))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_two_reads_per_file(self, stored_run, tmp_path, monkeypatch, workers):
        # the ledger reads every payload once, the analytics' pass once more
        # from T_MIN on (all but cp_0000.bin, at t = 0); the load itself
        # reads the headers only
        reads = []

        def counted(path, grid):
            reads.append(str(path))
            return load_checkpoint(path, grid)

        monkeypatch.setattr(harness, "load_checkpoint", counted)
        monkeypatch.setattr(P, "_workers", lambda: workers)
        cfg = ExperimentConfig.from_dict(tiny_config_dict())
        traj = load_trajectory(stored_run, cfg)
        files = sorted(str(f) for f in (stored_run / "checkpoints").glob("cp_*.bin"))
        assert sorted(reads) == files
        emit_trajectory_reports(traj, tmp_path / "reports", cfg.analysis)
        assert sorted(reads) == sorted(files + files[1:])

    def test_analyze_rejects_stray_checkpoint_name(self, stored_run, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(stored_run, run_dir)
        cp_dir = run_dir / "checkpoints"
        shutil.copy(cp_dir / "cp_0003.bin", cp_dir / "cp_old.bin")
        _analyze_rejected(run_dir, capsys, "cp_old.bin: not named cp_<index>.bin")

    def test_analyze_rejects_checkpoint_on_other_grid(self, stored_run, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(stored_run, run_dir)
        path = run_dir / "checkpoints" / "cp_0003.bin"
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, 20, 800.0)     # length, after magic, version and N
        path.write_bytes(bytes(raw))
        _analyze_rejected(run_dir, capsys, "cp_0003.bin")

    def test_analyze_rejects_config_on_other_grid(self, stored_run, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(stored_run, run_dir)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["config"]["solver"]["n_points"] = 1024
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        _analyze_rejected(run_dir, capsys, "cp_0000.bin")

    @pytest.mark.parametrize("removed, missing", [((5, 6), 5), ((20,), 20)],
                             ids=["gap", "last"])
    def test_analyze_rejects_missing_checkpoint_times(self, stored_run, tmp_path, capsys,
                                                      removed, missing):
        # the files must hold every checkpoint time of the config: a gap or a
        # lost last file would change the fits silently
        run_dir = tmp_path / "run"
        shutil.copytree(stored_run, run_dir)
        for i in removed:
            (run_dir / "checkpoints" / f"cp_{i:04d}.bin").unlink()
        reports = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()}
        want = ExperimentConfig.from_dict(tiny_config_dict()).solver.resolved_checkpoints()
        _analyze_rejected(run_dir, capsys, f"no checkpoint at the config's time "
                                           f"{want[missing]:g}")
        assert {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()} == reports

    def test_analyze_rejects_unexpected_checkpoint_time(self, stored_run, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(stored_run, run_dir)
        path = run_dir / "checkpoints" / "cp_0003.bin"
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, 28, 2.75)     # time, after magic, version, N and length
        path.write_bytes(bytes(raw))
        _analyze_rejected(run_dir, capsys, "cp_0003.bin: time 2.75 is not a checkpoint time")

    def test_analyze_rejects_non_finite_checkpoint_time(self, stored_run, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(stored_run, run_dir)
        path = run_dir / "checkpoints" / "cp_0005.bin"
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, 28, np.nan)     # time, after magic, version, N and length
        path.write_bytes(bytes(raw))
        _analyze_rejected(run_dir, capsys, "cp_0005.bin: header holds the non-finite time nan")

    def test_analyze_rejects_padded_checkpoint(self, stored_run, tmp_path, capsys):
        # the load checks each file's size against its header, before any payload is read
        run_dir = tmp_path / "run"
        shutil.copytree(stored_run, run_dir)
        with open(run_dir / "checkpoints" / "cp_0003.bin", "ab") as fh:
            fh.write(bytes(16))
        _analyze_rejected(run_dir, capsys, f"cp_0003.bin: payload holds {32 * 256 + 16} bytes, "
                                           f"header N=256 implies {32 * 256}")

    @pytest.mark.parametrize("offset, value, message", [
        (36 + 16 * 100, np.nan, "cp_0010.bin: payload holds non-finite samples"),
        (28, 2.75, "cp_0010.bin: time 2.75 changed from"),
    ], ids=["payload", "time"])
    def test_analyze_rejects_checkpoint_changed_after_load(self, stored_run, tmp_path, capsys,
                                                          monkeypatch, offset, value, message):
        # the file changes between the load and the analytics' pass, whose
        # pool thread raises; no report is rewritten
        run_dir = tmp_path / "run"
        shutil.copytree(stored_run, run_dir)
        path = run_dir / "checkpoints" / "cp_0010.bin"
        load = harness.load_trajectory

        def load_then_change(*args):
            traj = load(*args)
            raw = bytearray(path.read_bytes())
            struct.pack_into("<d", raw, offset, value)
            path.write_bytes(bytes(raw))
            return traj

        monkeypatch.setattr(harness, "load_trajectory", load_then_change)
        monkeypatch.setattr(P, "_workers", lambda: 2)
        monkeypatch.setattr(P, "_BLOCK_POINTS", 2 * 2 * 256)
        reports = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()}
        with pytest.raises(CheckpointError, match=message):
            harness.run_analyze(run_dir)
        shutil.copy(stored_run / "checkpoints" / "cp_0010.bin", path)
        _analyze_rejected(run_dir, capsys, message)
        assert {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()} == reports

    def test_analyze_rejects_non_finite_checkpoint(self, stored_run, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(stored_run, run_dir)
        path = run_dir / "checkpoints" / "cp_0010.bin"
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, 36 + 16 * 100, np.nan)    # a sample of u1
        path.write_bytes(bytes(raw))
        _analyze_rejected(run_dir, capsys, "cp_0010.bin: payload holds non-finite samples")

    @pytest.mark.parametrize("text", ['{"schema": "x"}', "[1]", '{"schema"'],
                             ids=["no-config", "not-an-object", "not-json"])
    def test_analyze_rejects_malformed_manifest(self, stored_run, tmp_path, capsys, text):
        run_dir = tmp_path / "run"
        shutil.copytree(stored_run, run_dir)
        (run_dir / "manifest.json").write_text(text)
        capsys.readouterr()
        assert main(["analyze", "--out", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("[nlspair:config]") and err.count("\n") == 1
        assert "manifest.json" in err and "Traceback" not in err


def _free_gaussian_run(out_dir, n):
    """A stored run of two free Gaussian profiles on 120 checkpoints from
    t = 2 to 1000, and its config."""
    ts = np.geomspace(2.0, 1000.0, 120)
    cfg = ExperimentConfig.from_dict({
        "name": "stored", "seed": 0, "data1": {"kind": "copy"}, "data2": {"kind": "copy"},
        "solver": {"n_points": n, "length": 400.0, "t_start": 2.0, "t_end": 1000.0,
                   "checkpoint_times": list(ts)}})
    g = cfg.solver.grid
    alpha = np.stack([np.exp(-0.5 * ((g.xi + 0.2) / 0.3) ** 2),
                      0.5 * np.exp(-0.5 * ((g.xi - 0.2) / 0.3) ** 2)]).astype(complex)
    (out_dir / "checkpoints").mkdir()
    for i, (t, u) in enumerate(zip(ts, _push_forward(g, alpha, ts[:, None]))):
        persist_checkpoint(out_dir / "checkpoints" / f"cp_{i:04d}.bin", g, t, u)
    return cfg


class TestAnalysisMemory:
    def test_peak_is_few_state_arrays(self, tmp_path):
        # the analysis should hold its stages as arrays of the states' size,
        # not per-checkpoint objects and restacked copies of them
        cfg = _free_gaussian_run(tmp_path, 512)
        traj = load_trajectory(tmp_path, cfg)
        n_t, n = traj.states.shape[0], cfg.solver.n_points
        tracemalloc.start()
        try:
            emit_trajectory_reports(traj, tmp_path / "reports", AnalysisOptions())
            ratio = tracemalloc.get_traced_memory()[1] / (n_t * 2 * n * 16)
        finally:
            tracemalloc.stop()
        # measured: 3.9-4.2 with the reduced histories, 4.0-4.5 with the
        # profile stack kept, 7.4 with per-snapshot lists
        assert ratio <= 5.5

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stored_run_peak_holds_no_state_stack(self, tmp_path, monkeypatch, workers):
        # from before the load through the reports, on a run several blocks
        # long: the states stay in their files, read a block at a time
        cfg = _free_gaussian_run(tmp_path, 2048)
        monkeypatch.setattr(P, "_workers", lambda: workers)
        n_t = len(cfg.solver.checkpoint_times)
        assert len(P._blocks(cfg.solver.grid, n_t)) >= 4
        tracemalloc.start()
        try:
            traj = load_trajectory(tmp_path, cfg)
            emit_trajectory_reports(traj, tmp_path / "reports", cfg.analysis)
            ratio = tracemalloc.get_traced_memory()[1] / (n_t * 2 * 2048 * 16)
        finally:
            tracemalloc.stop()
        # measured: 2.65-2.74 with the states loaded into one stack,
        # 2.02-2.06 with them read per block
        assert ratio <= 2.4
