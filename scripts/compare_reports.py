"""Compare the CSV and JSON reports of two output trees.

    python3 scripts/compare_reports.py PARENT_DIR CHANGE_DIR

For each report in either tree it prints ``identical`` when the bytes match.
Otherwise it names every column with a structural difference (CSV schema
line, header, text cells such as labels, and empty cells; JSON keys, list
lengths and non-numeric values) with the number of its cells that differ,
and for a column of text cells each change of value with its count, as in
``case_label: 50 of 1024 cells (balanced -> survivor_1: 50)``; then it
prints for each numeric column the
largest ``|a - b|`` over the column's largest ``|a|``, on the cells that are
numbers in both reports.  A report found in only one tree, or a structural
difference, makes the exit status 1.  A tree that is missing or holds no
report makes it 2, with one line naming that tree and no comparison.
``manifest.json`` is compared as JSON without its timings
(``started_unix``, ``wall_seconds`` and ``stage_seconds``), which differ
between any two runs.
"""

import csv
import itertools
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

# the manifest's run-dependent entries
TIMINGS = ("started_unix", "wall_seconds", "stage_seconds")


def _json(path: Path):
    """The JSON of a report; a manifest without its timings."""
    data = json.loads(path.read_text())
    if path.name == "manifest.json":
        for key in TIMINGS:
            data.pop(key, None)
    return data


def _columns(path: Path) -> dict[str, list]:
    """A report as named columns: CSV columns of text cells, JSON leaves by key path."""
    if path.suffix == ".csv":
        schema, header, *rows = csv.reader(path.read_text().splitlines())
        return {"(schema, header)": [",".join(schema), ",".join(header)],
                **dict(zip(header, map(list, itertools.zip_longest(*rows))))}
    out: dict[str, list] = {}

    def walk(obj, key):
        if isinstance(obj, dict):
            out.setdefault(key + "{}", []).append(" ".join(sorted(obj)))
            for k, v in obj.items():
                walk(v, f"{key}.{k}")
        elif isinstance(obj, list):
            out.setdefault(key + "[]", []).append(f"length {len(obj)}")
            for v in obj:
                walk(v, key + "[]")
        else:
            out.setdefault(key, []).append(obj)
    walk(_json(path), "")
    return out


def _number(v):
    if isinstance(v, bool) or v is None or v == "":
        return None
    try:
        return float(v)
    except ValueError:
        return None


def _moved(xs: list, ys: list) -> str:
    """How many cells of a column differ, of the longer column's, and for a
    column of text (a cell, in either report, that is neither empty nor a
    number) each change of value with its count, the most frequent first."""
    cells = list(itertools.zip_longest(xs, ys))
    moved = Counter((x, y) for x, y in cells if x != y)
    line = f"{sum(moved.values())} of {len(cells)} cells"
    if any(v not in ("", None) and _number(v) is None for v in (*xs, *ys)):
        shown = {"": "(empty)", None: "(none)"}
        line += " (" + ", ".join(f"{shown.get(x, x)} -> {shown.get(y, y)}: {n}"
                                 for (x, y), n in moved.most_common()) + ")"
    return line


def compare(a: Path, b: Path) -> tuple[bool, str]:
    """Whether two reports match in structure, and the line that says how they compare."""
    if a.read_bytes() == b.read_bytes() or (a.name == "manifest.json"
                                            and _json(a) == _json(b)):
        return True, "identical"
    ca, cb = _columns(a), _columns(b)
    problems = [f"structural difference: columns {sorted(ca.keys() ^ cb.keys())}"] \
        if ca.keys() != cb.keys() else []
    spread = []
    for name in (k for k in ca if k in cb):
        col = ca[name]
        pairs = [(x, y, _number(x), _number(y)) for x, y in zip(col, cb[name])]
        if len(col) != len(cb[name]) or any(x != y and (nx is None or ny is None)
                                            for x, y, nx, ny in pairs):
            problems.append(f"structural difference in {name}: {_moved(col, cb[name])}")
        num = np.array([(nx, ny) for _, _, nx, ny in pairs
                        if nx is not None and ny is not None], float)
        if num.size:
            gap = np.max(np.abs(num[:, 0] - num[:, 1]), initial=0.0)
            scale = np.max(np.abs(num[:, 0]))
            spread.append(f"{name} {gap / scale if scale else gap:.3g}")
    return not problems, "; ".join(problems + ["max |a-b|/max|a|: " + ", ".join(spread)])


def main(parent: str, change: str) -> int:
    roots = Path(parent), Path(change)
    found = [{p.relative_to(r) for p in r.rglob("*")
              if p.suffix in (".csv", ".json")} for r in roots]
    for root, reports in zip(roots, found):
        if not reports:
            print(f"{root}: no report (missing or empty tree)")
            return 2
    status = 0
    for rel in sorted(found[0] | found[1]):
        if rel not in found[0] or rel not in found[1]:
            same, line = False, f"only in {roots[rel in found[1]]}"
        else:
            same, line = compare(roots[0] / rel, roots[1] / rel)
        status |= not same
        print(f"{rel}: {line}")
    return status


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
