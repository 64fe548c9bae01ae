"""Command-line interface.

Subcommands: ``simulate`` (run a preset or config file and emit reports),
``analyze`` (recompute profile reports from saved checkpoints), ``scatter``
(final-state construction or obstruction probe), ``lemmas`` (synthetic
certificate sweeps), ``sweep`` (data-scale sweep of a shortened run).

Exit codes: 0 success, 1 guard or diagnostic failure, 2 configuration error.
Diagnostics go to stderr with a machine-parseable ``[nlspair:<tag>]`` prefix.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CheckpointError, ConfigError, GuardViolation, NumericsError, PicardDivergence
from . import asymptotics, harness
from .dynamics import run
from .fits import loglog_slope
from .profiles import decoupling_history, profile_bound_history, profile_history


def _err(tag: str, message: str) -> None:
    print(f"[nlspair:{tag}] {message}", file=sys.stderr)


def _resolve_simulate_config(args) -> harness.ExperimentConfig:
    if args.config:
        cfg = harness.load_config(args.config)
    elif args.preset:
        cfg = harness.get_simulate_preset(args.preset)
    else:
        raise ConfigError("simulate needs --preset or --config")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _resolve_simulate_config(args)
    out = Path(args.out)
    result = harness.run_simulate(cfg, out)
    n = len(result["trajectory"].checkpoints)
    print(f"simulate {cfg.name}: {n} checkpoints -> {out}")
    return 0


def _cmd_analyze(args) -> int:
    out = Path(args.out)
    manifest_path = out / "manifest.json"
    manifest = harness.read_json_object(manifest_path)
    if "config" not in manifest:
        raise ConfigError(f"{manifest_path} records no config")
    cfg = harness.ExperimentConfig.from_dict(manifest["config"])
    traj = harness.load_trajectory(out, cfg)
    written = harness.emit_trajectory_reports(traj, out, cfg.analysis)
    print(f"analyze {cfg.name}: rewrote {len(written)} reports under {out}")
    return 0


def _cmd_scatter(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.preset == "scatter-roundtrip":
        res = harness.run_scatter_roundtrip(harness.preset_scatter_roundtrip())
        state, report = res["state"], res["report"]
        harness.write_csv(out / "scattering.csv", "scattering",
                          ["t", "error_l2"], [report.ts, report.errors])
        harness.write_json(out / "scattering.json", "scattering", {
            "fitted_slope": report.fitted_slope,
            "slope_bound": report.slope_bound,
            "contraction_ratios": state.ratios,
            "passed": report.passed,
        })
        print(f"scatter: contraction ratios {['%.3g' % r for r in state.ratios]}, "
              f"slope {report.fitted_slope} (bound {report.slope_bound:.3f})")
        return 0 if report.passed else 1
    if args.preset == "obstruction":
        res = harness.run_obstruction(harness.preset_obstruction())
        report, drift = res["report"], res["control_drift"]
        harness.write_csv(out / "obstruction.csv", "obstruction",
                          ["t", "d1_overlap", "d2_overlap", "d1_control", "d2_control"],
                          [report.ts, report.d1, report.d2, drift["d1"], drift["d2"]])
        harness.write_json(out / "obstruction.json", "obstruction", {
            "eta": report.eta, "floor": report.stagnation_floor,
            "stagnates": report.stagnates,
            "control_slope": loglog_slope(drift["ts"], np.minimum(drift["d1"], drift["d2"])),
        })
        print(f"obstruction: eta={report.eta:.4g} floor={report.stagnation_floor:.4g} "
              f"stagnates={report.stagnates}")
        return 0 if report.stagnates else 1
    raise ConfigError(f"unknown scatter preset {args.preset!r}; "
                      f"choose from {sorted(harness.SCATTER_PRESETS)}")


def _cmd_lemmas(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    harness.write_csv(out / "lemma_certificates.csv", "lemma_certificates",
                      ["kind", "p1", "p2", "c0", "c1", "phi0", "constant",
                       "worst_margin", "passed"], list(zip(*rows)))
    print(f"lemmas: {len(rows)} certificates, all_pass={all_pass}")
    return 0 if all_pass else 1


def _cmd_sweep(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    eps_values = [float(v) for v in args.values.split(",")]
    base = harness.get_simulate_preset("decoupling-headline")
    solver = replace(base.solver, t_end=1e3,
                     checkpoint_times=tuple(t for t in base.solver.checkpoint_times
                                            if t <= 1e3))

    def one(eps: float):
        scale = eps / base.data1["amp"]
        cfg = replace(
            base, name=f"sweep-eps-{eps}", solver=solver,
            data1={**base.data1, "amp": eps},
            data2={**base.data2, "amp": base.data2["amp"] * scale},
        )
        pair = harness.generate_initial_data(cfg.data1, cfg.data2,
                                             solver.grid, cfg.seed)
        traj = run(solver, pair)
        profiles = profile_history(traj)
        dec = decoupling_history(profiles)
        bound = profile_bound_history(profiles)
        led = traj.ledgers()
        drift = max(abs(l.diff - led[0].diff) for l in led)
        return (eps, dec.sup_products[0], dec.sup_product,
                dec.sup_product / dec.sup_products[0],
                float(np.max(bound) / bound[0]),
                drift, bool(np.max(bound) <= 2.0 * bound[0]))

    rows = [one(e) for e in eps_values]
    harness.write_csv(out / "sweep.csv", "sweep",
                      ["eps", "sup_product_t2", "sup_product_final", "decoupling_ratio",
                       "profile_bound_growth", "diff_drift", "bounds_ok"], list(zip(*rows)))
    print(f"sweep: {len(rows)} runs -> {out / 'sweep.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nlspair",
                                 description="coupled cubic Schrodinger pair toolkit")
    ap.add_argument("--version", action="version", version=f"nlspair {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a preset or config file")
    sim.add_argument("--preset", choices=sorted(harness.SIMULATE_PRESETS))
    sim.add_argument("--config", help="JSON config file")
    sim.add_argument("--out", default="out", help="output directory")
    sim.add_argument("--seed", type=int)
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="recompute reports from saved checkpoints")
    ana.add_argument("--out", required=True, help="directory of a previous simulate run")
    ana.set_defaults(func=_cmd_analyze)

    sca = sub.add_parser("scatter", help="final-state construction / obstruction probe")
    sca.add_argument("--preset", default="scatter-roundtrip",
                     choices=sorted(harness.SCATTER_PRESETS))
    sca.add_argument("--out", default="out")
    sca.set_defaults(func=_cmd_scatter)

    lem = sub.add_parser("lemmas", help="run the synthetic certificate sweeps")
    lem.add_argument("--out", default="out")
    lem.set_defaults(func=_cmd_lemmas)

    swp = sub.add_parser("sweep", help="data-scale sweep of a shortened headline run")
    swp.add_argument("--values", default="0.05,0.1,0.2",
                     help="comma-separated data amplitudes")
    swp.add_argument("--out", default="out")
    swp.set_defaults(func=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _err("config", str(exc))
        return 2
    except (GuardViolation, NumericsError, PicardDivergence, CheckpointError) as exc:
        _err("guard", str(exc))
        return 1
    except OSError as exc:
        _err("io", str(exc))
        return 1
    except ValueError as exc:
        _err("diagnostic", str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
