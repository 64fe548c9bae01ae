"""Self-test of the output checks: no check is vacuous.

Every output check must pass on real outputs of the program and must fail
when one output is corrupted (a perturbed m_hat, a flipped label, a broken
ledger, ...).  Sources of clean outputs:

- a shortened headline run (N = 1024, t up to 1e3, larger data) for the
  ledger, pull-back, label and product-decay checks;
- a small stored run through the analyze pipeline for the analyze checks,
  and a headline-like one (one dominant component) for the decay-rate check,
  whose asymptotic regime a short simulation does not reach;
- the real scatter-roundtrip preset for the scatter checks.

Run from the root of a checkout (about 15 s):

    python3 benchmarks/selftest.py

Exits 0 when every check passes clean and rejects its corruption, 1 otherwise.
"""

from __future__ import annotations

import copy
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

OUT = BENCH_DIR / "out" / "selftest"
HEADLINE_LIKE = (((0.8, 0.8), (0.0, 0.0), (0.125, 0.125)),
                 ((0.48, 0.48), (0.0, 0.0), (1 / 12, 1 / 12)))


def _set(key, fn):
    """A corruption that replaces obs[key] by fn(copy of obs[key])."""
    def corrupt(obs):
        bad = dict(obs)
        bad[key] = fn(copy.deepcopy(obs[key]))
        return bad
    return corrupt


def _at(index, fn):
    def apply(arr):
        arr[index] = fn(arr[index])
        return arr
    return apply


def short_headline() -> dict:
    from nlspair import harness
    base = harness.get_simulate_preset("decoupling-headline")
    cfg = replace(
        base, data1={**base.data1, "amp": 0.15}, data2={**base.data2, "amp": 0.06},
        solver=replace(base.solver, n_points=1024, length=3000.0, t_end=1e3,
                       checkpoint_times=tuple(t for t in base.solver.checkpoint_times
                                              if t <= 1e3)))
    out = OUT / "headline"
    traj = harness.run_simulate(cfg, out)["trajectory"]
    return W.headline_observe(None, out, {}, traj)


def stored_run(name: str, shapes) -> dict:
    run_dir = OUT / name
    prepared = W.analyze_prepare(11, run_dir, n_points=2048, length=2562.5, n_t=60,
                                 shapes=shapes)
    W.analyze_run(prepared, run_dir / "reports")
    return W.analyze_observe(prepared, run_dir / "reports", {}, None)


def scatter_outputs() -> dict:
    workload = W.WORKLOADS["scatter"]
    tracer = Tracer(enabled=False)
    tracer.instrument(capture=workload.capture)
    try:
        prepared = workload.prepare(0, OUT / "scatter")
        out = OUT / "scatter" / "reports"
        rc = workload.run(prepared, out)
        return workload.observe(prepared, out, tracer.captured, rc)
    finally:
        tracer.restore()


def cases():
    """(source, check, corruption) for every check of every workload."""
    short = short_headline()
    mid, k = len(short["ts"]) // 2, int(np.argmax(short["m_hat"]))
    yield from (
        (short, W.mass_difference_conserved, _set("u2", _at(mid, lambda u: u * 1.001))),
        (short, W.masses_non_increasing, _set("u1", _at(-1, lambda u: u * 1.01))),
        (short, W.dissipation_law,
         _set("ts", lambda ts: np.concatenate([ts[:1], 2.0 * ts[1:]]))),
        (short, W.m_hat_matches_pull_back, _set("m_hat", _at(k, lambda m: m + 1e-6))),
        (short, W.no_survivor_2, _set("label", _at(k, lambda _: "survivor_2"))),
        (short, W.profile_product_decays, _set("dec_sup", _at(-1, lambda s: s * 1.01))),
    )
    like = stored_run("headline-like", HEADLINE_LIKE)
    yield (like, W.companion_rate_matches_m,
           _set("exponent", _at(int(np.argmax(like["m_hat"])), lambda _: 0.0)))

    mixed = stored_run("analyze", W.MIXED_SIGN)
    k = int(np.argmax(mixed["m"]))
    yield from (
        (mixed, W.m_hat_is_closed_form, _set("m_hat", _at(k, lambda m: m + 1e-8))),
        (mixed, W.labels_follow_sign, _set("label", _at(k, lambda _: "balanced"))),
        (mixed, W.exponents_match_fit, _set("exponent", _at(k, lambda e: e + 1e-4))),
        (mixed, W.decoupling_is_closed_form, _set("dec_sup", _at(3, lambda s: s * (1 + 1e-6)))),
    )

    scatter = scatter_outputs()
    yield from (
        (scatter, W.picard_converged, _set("converged", lambda _: False)),
        (scatter, W.error_to_free_wave, _set("csv_error", _at(5, lambda e: e * 1.01))),
        (scatter, W.decay_slope_within_bound, _set("fitted_slope", lambda s: s + 0.01)),
    )


def main() -> int:
    if OUT.exists():
        shutil.rmtree(OUT)
    every_check = {fn for wl in W.WORKLOADS.values() for fn in wl.checks}
    tested, failures = set(), 0
    for obs, check, corrupt in cases():
        ok_clean, detail = check(obs)
        rejected = not check(corrupt(obs))[0]
        good = bool(ok_clean) and rejected
        failures += not good
        tested.add(check)
        print(f"{'PASS' if good else 'FAIL'} {check.__name__}: clean passes {bool(ok_clean)} "
              f"({detail}); corruption rejected {rejected}")
    for check in every_check - tested:
        failures += 1
        print(f"FAIL {check.__name__}: no corruption tests it")
    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
