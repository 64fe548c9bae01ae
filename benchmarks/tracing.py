"""Spans and counters recorded from outside the program.

The tracer wraps public functions of ``nlspair`` by rebinding every module
attribute that refers to them, and wraps the ``numpy.fft`` / ``scipy.fft``
entry points to count transforms.  Spans (name, start, end, parent) are kept
in memory and written out when the run ends; self time is computed from
them.  With tracing off only the calls whose results a check needs are
wrapped, and nothing is timed.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")   # 1-D, any batch shape


def _count_steps(span, traj):
    span["counts"]["steps"] = int(traj.provenance.get("n_steps", 0))
    span["counts"]["checkpoints"] = len(traj.checkpoints)


def _count_iters(span, state):
    span["counts"]["iters"] = int(state.iterate_index)


def _count_snapshots(span, snapshots):
    span["counts"]["snapshots"] = len(snapshots)


# (module, function, what to record from its result); each becomes a span
SPANNED = (
    ("dynamics", "run", _count_steps),
    ("scattering", "build_final_state", None),
    ("scattering", "picard_construct", _count_iters),
    ("scattering", "verify_scattering", None),
    ("profiles", "profile_history", _count_snapshots),
    ("profiles", "remainder_history", None),
    ("profiles", "build_case_records", None),
    ("profiles", "decoupling_history", None),
    ("harness", "generate_initial_data", None),
    ("harness", "run_simulate", None),
    ("harness", "load_trajectory", None),
    ("harness", "emit_trajectory_reports", None),
)


class Tracer:
    """Span recorder and call interceptor for one worker process."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.captured: dict[str, list] = {}
        self._stack: list[dict] = []
        self._undo: list = []

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter(), "end": None,
               "fft_calls": 0, "fft_s": 0.0, "fft_points": 0, "fft_flop": 0.0,
               "fft_bytes": 0, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _add(self, key: str, value) -> None:
        if self._stack:
            counts = self._stack[-1]["counts"]
            counts[key] = counts.get(key, 0) + value

    # -- FFT counters (install before nlspair is imported) -------------------

    def install_fft_counters(self) -> None:
        for mod_name in FFT_MODULES:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                continue
            for fname in FFT_NAMES:
                self._rebind([mod], getattr(mod, fname), self._fft_wrapper(getattr(mod, fname)))

    def _fft_wrapper(self, original):
        def counted(a, *args, **kwargs):
            t0 = time.perf_counter()
            out = original(a, *args, **kwargs)
            dt = time.perf_counter() - t0
            if self._stack:
                a_arr = np.asarray(a)
                big = out if out.size >= a_arr.size else a_arr   # real side of rfft/irfft
                axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
                length = big.shape[axis]
                batch = big.size // max(length, 1)
                rec = self._stack[-1]
                rec["fft_calls"] += 1
                rec["fft_s"] += dt
                rec["fft_points"] += length * batch
                rec["fft_flop"] += 5.0 * length * math.log2(max(length, 2)) * batch
                rec["fft_bytes"] += a_arr.nbytes + out.nbytes
            return out
        return counted

    # -- program functions ---------------------------------------------------

    def instrument(self, capture: tuple[str, ...] = ()) -> None:
        """Wrap the public boundaries; keep the results of the names in ``capture``."""
        package = sys.modules["nlspair"]
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "nlspair" or name.startswith("nlspair."))]
        for mod_name, fname, record in SPANNED:
            key = f"{mod_name}.{fname}"
            if not self.enabled and key not in capture:
                continue
            original = getattr(getattr(package, mod_name), fname)
            wrapper = self._call_wrapper(original, key, record, key in capture)
            self._rebind(modules, original, wrapper)
        if self.enabled:
            harness = package.harness
            self._rebind(modules, harness.load_checkpoint,
                         self._byte_counter(harness.load_checkpoint, "bytes_read", arg=True))
            for writer in (harness.write_csv, harness.write_json):
                self._rebind(modules, writer, self._byte_counter(writer, "report_bytes", arg=False))

    def _call_wrapper(self, original, name: str, record, keep: bool):
        def wrapped(*args, **kwargs):
            if self.enabled:
                with self.span(name) as rec:
                    out = original(*args, **kwargs)
                    if record is not None:
                        record(rec, out)
            else:
                out = original(*args, **kwargs)
            if keep:
                self.captured.setdefault(name, []).append(out)
            return out
        return wrapped

    def _byte_counter(self, original, key: str, arg: bool):
        def wrapped(*args, **kwargs):
            out = original(*args, **kwargs)
            self._add(key, Path(args[0] if arg else out).stat().st_size)
            return out
        return wrapped

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": self.spans}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one round
# ---------------------------------------------------------------------------

def _subtree(spans: list[dict], root: dict) -> list[dict]:
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children.get(s["id"], ()))
    return out


def _self_time(spans: list[dict], span: dict) -> float:
    kids = sum(s["end"] - s["start"] for s in spans if s["parent"] == span["id"])
    return span["end"] - span["start"] - kids - span["fft_s"]


def layer_metrics(spans: list[dict], root: dict) -> dict[str, float]:
    """Per-layer metrics of the round whose pipeline span is ``root``."""
    tree = _subtree(spans, root)

    def named(name):
        return [s for s in tree if s["name"] == name]

    def seconds(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def count(key, name=None):
        return sum(s["counts"].get(key, 0) for s in (named(name) if name else tree))

    def fft_calls_under(names):
        return sum(t["fft_calls"] for n in names for s in named(n) for t in _subtree(spans, s))

    steps = count("steps", "dynamics.run")
    snapshots = count("snapshots", "profiles.profile_history")
    profile_spans = ("profiles.profile_history", "profiles.remainder_history",
                     "profiles.build_case_records", "profiles.decoupling_history")
    return {
        "spectral.fft_calls": sum(s["fft_calls"] for s in tree),
        "spectral.fft_points": sum(s["fft_points"] for s in tree),
        "spectral.fft_flop": sum(s["fft_flop"] for s in tree),
        "spectral.fft_bytes": sum(s["fft_bytes"] for s in tree),
        "spectral.fft_s": sum(s["fft_s"] for s in tree),
        "dynamics.run_s": seconds("dynamics.run"),
        "dynamics.run_self_s": sum(_self_time(spans, s) for s in named("dynamics.run")),
        "dynamics.steps": steps,
        "dynamics.checkpoints": count("checkpoints", "dynamics.run"),
        "dynamics.fft_calls_per_step":
            fft_calls_under(["dynamics.run"]) / steps if steps else 0.0,
        "dynamics.us_per_step": 1e6 * seconds("dynamics.run") / steps if steps else 0.0,
        "scattering.picard_construct_s": seconds("scattering.picard_construct"),
        "scattering.picard_iters": count("iters", "scattering.picard_construct"),
        "scattering.picard_fft_calls": fft_calls_under(["scattering.picard_construct"]),
        "scattering.verify_scattering_s": seconds("scattering.verify_scattering"),
        "profiles.profile_history_s": seconds("profiles.profile_history"),
        "profiles.remainder_history_s": seconds("profiles.remainder_history"),
        "profiles.build_case_records_s": seconds("profiles.build_case_records"),
        "profiles.snapshots": snapshots,
        "profiles.fft_calls_per_snapshot":
            fft_calls_under(profile_spans) / snapshots if snapshots else 0.0,
        "harness.load_trajectory_s": seconds("harness.load_trajectory"),
        "harness.checkpoint_bytes_read": count("bytes_read"),
        "harness.emit_reports_self_s":
            sum(_self_time(spans, s) for s in named("harness.emit_trajectory_reports")),
        "harness.report_bytes": count("report_bytes"),
        "harness.generate_initial_data_s": seconds("harness.generate_initial_data"),
    }
