"""Write the reports of every pipeline of this checkout into one tree.

    python3 scripts/write_reports.py OUT [NAME ...]

Runs, on the package of the checkout this script sits in, ``nlspair
simulate`` on each simulate preset, ``nlspair scatter`` on each scatter
preset, ``nlspair lemmas``, and the ``analyze`` workload of
``benchmarks/workloads.py`` on its stored run of seed 1, each into
``OUT/<name>/``; the NAMEs, when given, pick some of them.  The trees of
two checkouts are then compared with ``scripts/compare_reports.py``.  The
exit status is 2 when ``nlspair`` imports from elsewhere or a NAME is
unknown, and 1 when a pipeline exits non-zero.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _analyze(out: Path) -> int:
    """The ``analyze`` workload's reports of its stored run (seed 1), which
    is written to a temporary directory and removed."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import workloads
    with tempfile.TemporaryDirectory() as run_dir:
        prepared = workloads.analyze_prepare(1, Path(run_dir))
        workloads.analyze_run(prepared, out)
    return 0


def pipelines() -> dict:
    """Every pipeline by the name of its tree: ``name(out_dir) -> exit status``."""
    from nlspair import cli, harness

    def command(*argv):
        return lambda out: cli.main([*argv, "--out", str(out)])

    return {**{p: command("simulate", "--preset", p) for p in harness.SIMULATE_PRESETS},
            **{p: command("scatter", "--preset", p) for p in harness.SCATTER_PRESETS},
            "lemmas": command("lemmas"), "analyze": _analyze}


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit(__doc__)
    sys.path.insert(0, str(ROOT / "src"))
    import nlspair
    if not Path(nlspair.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"nlspair is imported from {nlspair.__file__}, not from {ROOT}", file=sys.stderr)
        return 2
    out, names = Path(argv[0]), argv[1:]
    todo = pipelines()
    unknown = sorted(set(names) - set(todo))
    if unknown:
        print(f"unknown pipelines {unknown}; choose from {sorted(todo)}", file=sys.stderr)
        return 2
    status = 0
    for name in names or todo:
        code = todo[name](out / name)
        if code:
            print(f"{name}: exit {code}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
