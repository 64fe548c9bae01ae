"""Smoke tests of the scripts under ``scripts/``, loaded from their files."""

import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np

from nlspair.harness import _recording, _stage, write_csv, write_json

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_sweep_runs(capsys):
    # one coarse policy against a reference one rung finer: two headline runs
    step_sweep = _load("step_sweep")
    assert step_sweep.main(["--policies", "0.32:0.128", "--reference", "0.16:6.4e-2"]) == 0
    out = json.loads(capsys.readouterr().out)
    (row,) = out["runs"]
    assert isinstance(row["labels_flipped"], int) and row["labels_flipped"] >= 0
    assert 0.0 <= row["mass_diff_drift"] <= 1e-12
    assert out["reference"]["steps"] > row["steps"] > 0


def test_compare_reports_identical_trees(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    (a / "sub").mkdir(parents=True)
    write_csv(a / "table.csv", "table", ["t", "label"], [np.geomspace(1.0, 10.0, 5), "abcde"])
    write_json(a / "sub" / "run.json", "run", {"deadband": 1e-3, "passed": True, "xs": [1, 2]})
    shutil.copytree(a, b)
    compare_reports = _load("compare_reports")
    assert compare_reports.main(str(a), str(b)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["sub/run.json: identical", "table.csv: identical"]


def test_compare_reports_rejects_empty_or_missing_tree(tmp_path, capsys):
    # a mistyped path or a tree with no report is no evidence of identity
    compare_reports = _load("compare_reports")
    a, b = tmp_path / "a", tmp_path / "b"

    def names_a(x, y):
        assert compare_reports.main(str(x), str(y)) == 2
        assert capsys.readouterr().out.splitlines() == [f"{a}: no report (missing or empty tree)"]

    names_a(a, b)
    a.mkdir()
    b.mkdir()
    names_a(a, b)
    write_json(b / "run.json", "run", {"passed": True})
    names_a(a, b)
    names_a(b, a)


def test_compare_reports_names_every_differing_column(tmp_path, capsys):
    # one column gains empty cells, a label column changes labels, another
    # drifts: the first two are named with the cells that moved, the labels'
    # changes counted by value, and the unchanged columns still report their
    # spread
    a, b = tmp_path / "a", tmp_path / "b"
    t = np.geomspace(1.0, 10.0, 5)
    err = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    a.mkdir()
    b.mkdir()
    write_csv(a / "table.csv", "table", ["t", "err", "m", "label"],
              [t, err, t ** 2, ["bal", "bal", "bal", "s1", "s2"]])
    write_csv(b / "table.csv", "table", ["t", "err", "m", "label"],
              [t, np.where(t > 3.0, np.nan, err), t ** 2 * (1 + 1e-9),
               ["s1", "bal", "s1", "s1", "bal"]])
    compare_reports = _load("compare_reports")
    assert compare_reports.main(str(a), str(b)) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("table.csv: structural difference in err: 3 of 5 cells; "
                           "structural difference in label: 3 of 5 cells "
                           "(bal -> s1: 2, s2 -> bal: 1); max |a-b|/max|a|: ")
    spread = dict(item.rsplit(" ", 1) for item in line.split(": ")[-1].split(", "))
    assert spread["t"] == "0" and spread["err"] == "0"
    assert 0 < float(spread["m"]) < 2e-9


def _manifest_tree(root: Path, data_size: dict) -> None:
    """A manifest as a pipeline writes it, with its own start and wall times."""
    with _recording(root, "demo", {"seed": 1}, data_size=data_size,
                    steps={"n_steps": 12, "dt_min": 0.04, "dt_max": 0.32},
                    stage_seconds={}) as manifest:
        with _stage(manifest, "work"):
            manifest["outputs"] = []


def test_compare_reports_manifest_timings_ignored(tmp_path, capsys):
    size = {"l2": 0.41931780550058595, "h2": 0.4222635563883844, "h1_1": 2.6961709807100154}
    _manifest_tree(tmp_path / "a", size)
    _manifest_tree(tmp_path / "b", size)
    # a later and slower run of the same pipeline
    path = tmp_path / "b" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["started_unix"] += 60.0
    manifest["wall_seconds"] += 1.0
    manifest["stage_seconds"]["work"] += 1.0
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    compare_reports = _load("compare_reports")
    assert compare_reports.main(str(tmp_path / "a"), str(tmp_path / "b")) == 0
    assert capsys.readouterr().out.splitlines() == ["manifest.json: identical"]


def test_compare_reports_names_manifest_difference(tmp_path, capsys):
    size = {"l2": 0.41931780550058595, "h2": 0.4222635563883844, "h1_1": 2.6961709807100154}
    _manifest_tree(tmp_path / "a", size)
    _manifest_tree(tmp_path / "b", {**size, "l2": size["l2"] * (1 + 1e-12)})
    compare_reports = _load("compare_reports")
    compare_reports.main(str(tmp_path / "a"), str(tmp_path / "b"))
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("manifest.json: max |a-b|/max|a|: ")
    spread = dict(item.rsplit(" ", 1) for item in line.split(": ")[-1].split(", "))
    assert 0 < float(spread[".data_size.l2"]) < 2e-12
    assert spread[".data_size.h2"] == "0" and spread[".steps.n_steps"] == "0"
    assert ".started_unix" not in spread and ".wall_seconds" not in spread
    assert ".stage_seconds.work" not in spread


def test_write_reports_reruns_are_identical(tmp_path, capsys):
    # one cheap pipeline written twice: every report of the two trees matches
    write_reports, compare_reports = _load("write_reports"), _load("compare_reports")
    for side in ("a", "b"):
        assert write_reports.main([str(tmp_path / side), "short-range-contrast"]) == 0
    assert (tmp_path / "a" / "short-range-contrast" / "profiles.csv").is_file()
    capsys.readouterr()
    assert compare_reports.main(str(tmp_path / "a"), str(tmp_path / "b")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 5 and all(line.endswith(": identical") for line in lines)


def test_write_reports_rejects_another_checkout(tmp_path, capsys):
    # the script copied into another tree finds nlspair imported from this
    # one: exit 2 before any pipeline runs
    (tmp_path / "scripts").mkdir()
    shutil.copy(SCRIPTS / "write_reports.py", tmp_path / "scripts")
    spec = importlib.util.spec_from_file_location("copied", tmp_path / "scripts" / "write_reports.py")
    copied = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(copied)
    assert copied.main([str(tmp_path / "out")]) == 2
    assert "not from" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bench_pairs_summary():
    # four pairs in which the change reads 10 lower on every metric but one
    # pair's analyze wall_s: the quartiles, the pairs won and the median change
    bench_pairs = _load("bench_pairs")
    keys = [f"{w}.{m}" for w in bench_pairs.WORKLOADS for m in bench_pairs.METRICS]
    pairs = []
    for i, base in enumerate((100.0, 110.0, 120.0, 130.0)):
        change = {k: base - 10.0 for k in keys}
        if i == 0:
            change["analyze.wall_s"] = base + 5.0
        pairs.append({"pair": i + 1, "parent": {k: base for k in keys}, "change": change})
    summary = bench_pairs.summarize(pairs)
    rss = summary["analyze"]["peak_rss_mb"]
    assert rss["parent_q1_median_q3"] == [107.5, 115.0, 122.5]
    assert rss["change_q1_median_q3"] == [97.5, 105.0, 112.5]
    assert rss["parent_iqr"] == 15.0
    assert rss["change_lower_in"] == "4 of 4 pairs"
    assert rss["median_change"] == "-8.7%"
    assert summary["analyze"]["wall_s"]["change_lower_in"] == "3 of 4 pairs"
    assert set(summary) == {"headline", "scatter", "analyze"}


def test_bench_pairs_records_runs_without_result(tmp_path, monkeypatch):
    # the parent's run exits 2 with no output and the change's stops in the
    # middle of its result line: every run is recorded as not correct, the
    # file is written, and the script exits 1
    bench_pairs = _load("bench_pairs")
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    monkeypatch.setattr(bench_pairs, "RSS_RUNS", 1)
    trees = {"parent": "import sys; sys.exit(2)\n",
             "change": "import sys; print('{\"correct\": tr', flush=True); sys.exit(1)\n"}
    for side, script in trees.items():
        (tmp_path / side / "benchmarks").mkdir(parents=True)
        (tmp_path / side / "benchmarks" / "run.py").write_text(script)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["all_correct"] is False and len(doc["pairs"]) == 2
    for pair in doc["pairs"]:
        assert pair["parent"] == {"exit": 2, "correct": False, "attempted": None, "failed": None}
        assert pair["change"] == {"exit": 1, "correct": False, "attempted": None, "failed": None}
    assert all(v is None for w in doc["summary"].values() for v in w.values())
    for probe in ("analyze", "scatter"):
        assert doc[f"{probe}_rss_by_workers"]["parent"] == {"workers_1": [None],
                                                            "workers_2": [None]}
    assert doc["checkouts"] == {side: str((tmp_path / side).resolve()) for side in trees}


def test_bench_pairs_rejects_paths_of_different_length(tmp_path, monkeypatch, capsys):
    # the analyze peak moves with the length of the checkout's path: the
    # script exits 2 with one message, and runs and writes nothing
    bench_pairs = _load("bench_pairs")
    ran = []
    monkeypatch.setattr(bench_pairs, "bench_once", lambda tree: ran.append(tree))
    monkeypatch.setattr(bench_pairs, "rss_once", lambda tree, workers, probe: ran.append(tree))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change2"), "--out", str(out)]) == 2
    assert ran == [] and not out.exists()
    (line,) = capsys.readouterr().err.splitlines()
    assert "differ in length" in line
