"""Command-line front end: simulate, sweep, figure, validate."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    MAX_THREADS, ConfigError, SweepSpec, SweepVariable, load_scenario, parse_values,
    _require_valid, run_scenario, scenario_to_dict, write_cdf_csv, write_metadata,
    write_sweep_csv, write_sweep_json,
)
from .figures import FigureRun, reproduce_figure, write_runs


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    parser.add_argument("--trials", type=int, default=None,
                        help="override the trial count")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--threads", type=int, default=1,
                        help=f"accepted for compatibility, 1..{MAX_THREADS}; "
                             "ignored: trials run in order on one thread")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risim",
        description="Monte Carlo simulator for reflecting-surface assisted links")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one configured scenario")
    p_sim.add_argument("config", help="JSON scenario file")
    _add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep one variable of a scenario")
    p_sweep.add_argument("config", help="JSON scenario file")
    p_sweep.add_argument("--var", required=True,
                         choices=[v.value for v in SweepVariable])
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated sweep values")
    p_sweep.add_argument("--target-ris", type=int, default=0,
                         help="surface a ris_x, ris_z, tilt or n_elements sweep moves")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="reproduce a canned experiment")
    p_fig.add_argument("figure_id", metavar="figure", help="F2 .. F9")
    p_fig.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="figure knob override")
    _add_common(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("config", help="JSON scenario file")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def _load_with_overrides(args) -> "ScenarioConfig":
    cfg = load_scenario(args.config)
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.trials is not None:
        cfg.n_trials = args.trials
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _load_with_overrides(args)
    results = run_scenario(cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    writer = write_sweep_csv if args.format == "csv" else write_sweep_json
    written = [writer(outdir / f"metrics.{args.format}", list(enumerate(results)),
                      key="receiver")]
    for u, res in enumerate(results):
        suffix = f"_rx{u}" if len(results) > 1 else ""
        written.append(write_cdf_csv(outdir / f"cdf{suffix}.csv", res.rate_samples))
    written.append(write_metadata(outdir / "metadata.json", cfg))

    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_with_overrides(args)
    spec = SweepSpec(variable=SweepVariable(args.var),
                     values=parse_values(args.values, list, "--values"),
                     target_ris=args.target_ris)
    written = write_runs([FigureRun(args.var, cfg, spec)], "sweep", args.out,
                         args.format)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_figure(args) -> int:
    overrides = {}
    for item in args.override:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    written = reproduce_figure(args.figure_id, overrides, out_dir=args.out,
                               fmt=args.format)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_scenario(args.config)
    _require_valid(cfg)   # collected issues raise ConfigError: exit 2
    print("ok")
    print(json.dumps(scenario_to_dict(cfg), indent=1))
    return 0


def _check_out(out: str) -> None:
    """--out must be a directory, or a path mkdir can make one at: checked
    before the first trial, though the directory is made only after the runs."""
    path = Path(out).absolute()
    found = next(p for p in (path, *path.parents) if p.exists())
    if not found.is_dir():
        raise ConfigError(f"--out {out}: {found} exists and is not a directory")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 1 <= getattr(args, "threads", 1) <= MAX_THREADS:
            raise ConfigError(
                f"threads must lie in 1..{MAX_THREADS}, got {args.threads}")
        if hasattr(args, "out"):
            _check_out(args.out)
        return args.func(args)
    except (ConfigError, OSError) as exc:   # OSError: the --out directory
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
