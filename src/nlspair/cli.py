"""Command-line interface: parse the arguments, run the subcommand's
pipeline in :mod:`harness` and print its one summary line.

Subcommands: ``simulate`` (run a preset or config file and emit reports),
``analyze`` (recompute profile reports from saved checkpoints), ``scatter``
(final-state construction or obstruction probe), ``lemmas`` (synthetic
certificate sweeps).  Every subcommand but ``analyze`` writes a
``manifest.json`` to its output directory; ``analyze`` reads the one of the
run it rewrites.

Exit codes: 0 success, 1 guard or diagnostic failure, 2 configuration error.
Diagnostics go to stderr with a machine-parseable ``[nlspair:<tag>]`` prefix.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .errors import CheckpointError, ConfigError, GuardViolation, NumericsError, PicardDivergence
from . import harness


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
    result = harness.run_analyze(out)
    print(f"analyze {result['config'].name}: rewrote {len(result['outputs'])} reports "
          f"under {out}")
    return 0


def _cmd_scatter(args) -> int:
    out = Path(args.out)
    if args.preset == "scatter-roundtrip":
        res = harness.run_scatter_roundtrip(harness.preset_scatter_roundtrip(), out)
        state, report = res["state"], res["report"]
        print(f"scatter: contraction ratios {['%.3g' % r for r in state.ratios]}, "
              f"slope {report.fitted_slope} (bound {report.slope_bound:.3f})")
        return 0 if report.passed else 1
    report = harness.run_obstruction(harness.preset_obstruction(), out)["report"]
    print(f"obstruction: eta={report.eta:.4g} floor={report.stagnation_floor:.4g} "
          f"stagnates={report.stagnates}")
    return 0 if report.stagnates else 1


def _cmd_lemmas(args) -> int:
    res = harness.run_lemmas(Path(args.out))
    print(f"lemmas: {len(res['rows'])} certificates, all_pass={res['passed']}")
    return 0 if res["passed"] else 1


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
