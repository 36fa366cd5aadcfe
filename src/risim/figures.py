"""Canned experiment geometries (F2 through F9) behind the `figure` command.

One fixed hall: transmitter at [0, 20, 2], receiver at [75, 35, 1], noise
floor -100 dBm, 73 GHz.  Each figure bundles a handful of named runs whose
knobs (trial count, seed, swept values, surface height) stay overridable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .channel import RisDescriptor
from .experiments import (
    ConfigError, ScenarioConfig, SweepSpec, SweepVariable, parse_values,
    run_sweep, write_cdf_csv, write_metadata, write_sweep_csv, write_sweep_json,
)
from .geometry import Orientation, Plane, Point3
from .metrics import LinkBudget

_TX = Point3(0.0, 20.0, 2.0)
_RX = Point3(75.0, 35.0, 1.0)
_EXTRA_POSITIONS = [Point3(74.0, 30.0, 2.0), Point3(71.0, 30.0, 2.0)]
_PT_VALUES = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]


@dataclass
class FigureRun:
    name: str
    cfg: ScenarioConfig
    sweep: SweepSpec
    cdf_at: float | None = None   # sweep value whose rate samples get a CDF file


def _surface(x: float, y: float, z: float, n: int = 256,
             plane: Plane = Plane.XZ) -> RisDescriptor:
    return RisDescriptor(position=Point3(x, y, z), n_elements=n,
                         orient=Orientation(plane=plane))


def _base(o: dict, ris_list, rx=_RX, pt_dbm: float = 30.0) -> ScenarioConfig:
    return ScenarioConfig(
        tx=_TX, rx=rx, ris_list=list(ris_list),
        budget=LinkBudget(tx_power_dbm=pt_dbm, noise_power_dbm=-100.0),
        n_trials=o["trials"], master_seed=o["seed"],
    )


# figure id -> (builder, knob defaults); a knob's default fixes the type its
# overrides parse as (experiments.parse_values), and builders read o[knob]
FIGURES: dict[str, tuple] = {}


def _figure(fig: str, **knobs):
    def register(builder):
        FIGURES[fig] = (builder, {"trials": 2000, "seed": 1234, **knobs})
        return builder
    return register


@_figure("f2", z_ris=2.0, pt_values=_PT_VALUES)
def _fig_f2(o: dict) -> list[FigureRun]:
    """Ergodic rate vs transmit power for 0..3 surfaces, with rate CDFs."""
    pt = o["pt_values"]
    surfaces = [_surface(75.0, 30.0, o["z_ris"])] \
        + [RisDescriptor(position=p) for p in _EXTRA_POSITIONS]
    runs = []
    for count, name in [(0, "free"), (1, "one_surface"),
                        (2, "two_surfaces"), (3, "three_surfaces")]:
        runs.append(FigureRun(name, _base(o, surfaces[:count]),
                              SweepSpec(SweepVariable.TX_POWER_DBM, list(pt)),
                              cdf_at=max(pt)))
    return runs


@_figure("f3", z_values=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0],
         x_values=[20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0,
                   65.0, 70.0, 75.0])
def _fig_f3(o: dict) -> list[FigureRun]:
    """Single-surface placement: height sweep at [75, 34, z], then a sweep
    along the hall at [x, 30, 2], both at 30 dBm."""
    return [
        FigureRun("height", _base(o, [_surface(75.0, 34.0, 2.0)]),
                  SweepSpec(SweepVariable.RIS_Z, list(o["z_values"]))),
        FigureRun("along", _base(o, [_surface(20.0, 30.0, 2.0)]),
                  SweepSpec(SweepVariable.RIS_X, list(o["x_values"]))),
    ]


@_figure("f4", z_values=[2.0, 3.0, 4.0], pt_values=_PT_VALUES)
def _fig_f4(o: dict) -> list[FigureRun]:
    """SNR vs transmit power at three mounting heights of [75, 30, z]."""
    return [
        FigureRun(f"z{z:g}", _base(o, [_surface(75.0, 30.0, z)]),
                  SweepSpec(SweepVariable.TX_POWER_DBM, list(o["pt_values"])))
        for z in o["z_values"]
    ]


@_figure("f5", tilt_deg_values=[0.0, -10.0, -20.0, -30.0, -40.0, -50.0,
                                -60.0, -70.0, -80.0])
def _fig_f5(o: dict) -> list[FigureRun]:
    """Tilt sweeps at 15 dBm: an xz-surface pivoting about x towards a
    receiver at [70, 35, 1], and a yz-surface above the default receiver
    pivoting about y."""
    tilt_rad = [math.radians(v) for v in o["tilt_deg_values"]]
    pivot_x = _base(o, [_surface(70.0, 30.0, 2.0)], rx=Point3(70.0, 35.0, 1.0),
                    pt_dbm=15.0)
    pivot_y = _base(o, [_surface(75.0, 35.0, 2.0, plane=Plane.YZ)], pt_dbm=15.0)
    return [
        FigureRun("pivot_x", pivot_x, SweepSpec(SweepVariable.TILT, tilt_rad)),
        FigureRun("pivot_y", pivot_y, SweepSpec(SweepVariable.TILT, tilt_rad)),
    ]


@_figure("f6", z_ris=2.0, pt_values=_PT_VALUES)
def _fig_f6(o: dict) -> list[FigureRun]:
    """Element-count comparison (none / 64 / 256) over transmit power."""
    pt = o["pt_values"]
    runs = [FigureRun("free", _base(o, []),
                      SweepSpec(SweepVariable.TX_POWER_DBM, list(pt)))]
    for n in (64, 256):
        cfg = _base(o, [_surface(75.0, 30.0, o["z_ris"], n=n)])
        runs.append(FigureRun(f"n{n}", cfg,
                              SweepSpec(SweepVariable.TX_POWER_DBM, list(pt))))
    return runs


@_figure("f7", x_values=[25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0,
                         65.0, 70.0, 75.0],
         z_values=[1.0, 1.5, 2.0, 2.5, 3.0])
def _fig_f7(o: dict) -> list[FigureRun]:
    """Two surfaces: one parked at [75, 30, 2], the second swept along the
    hall at [x, 34, 2] and in height at [75, 34, z]."""
    fixed = _surface(75.0, 30.0, 2.0)
    along = _base(o, [fixed, _surface(25.0, 34.0, 2.0)])
    height = _base(o, [fixed, _surface(75.0, 34.0, 1.0)])
    return [
        FigureRun("along", along, SweepSpec(SweepVariable.RIS_X,
                                            list(o["x_values"]), target_ris=1)),
        FigureRun("height", height, SweepSpec(SweepVariable.RIS_Z,
                                              list(o["z_values"]), target_ris=1)),
    ]


@_figure("f8", pt_values=_PT_VALUES)
def _fig_f8(o: dict) -> list[FigureRun]:
    """Surface count x element count grid over transmit power."""
    p0, p1 = Point3(75.0, 30.0, 2.0), Point3(74.0, 30.0, 2.0)
    variants = [
        ("free", []),
        ("one_64", [RisDescriptor(position=p0, n_elements=64)]),
        ("one_256", [RisDescriptor(position=p0, n_elements=256)]),
        ("two_64", [RisDescriptor(position=p0, n_elements=64),
                    RisDescriptor(position=p1, n_elements=64)]),
        ("two_256", [RisDescriptor(position=p0, n_elements=256),
                     RisDescriptor(position=p1, n_elements=256)]),
    ]
    return [
        FigureRun(name, _base(o, ris),
                  SweepSpec(SweepVariable.TX_POWER_DBM, list(o["pt_values"])))
        for name, ris in variants
    ]


@_figure("f9", x_values=[20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0,
                         60.0, 65.0, 70.0])
def _fig_f9(o: dict) -> list[FigureRun]:
    """Two users sharing a 256-element surface (128 elements each) while the
    surface slides along [x, 30, 2] at 30 dBm."""
    cfg = _base(o, [_surface(20.0, 30.0, 2.0)],
                rx=[Point3(70.0, 32.0, 1.0), Point3(70.0, 35.0, 1.0)])
    return [FigureRun("shared", cfg,
                      SweepSpec(SweepVariable.RIS_X, list(o["x_values"])))]


def build_figure(figure_id: str, overrides: dict | None = None) -> list[FigureRun]:
    """A figure's runs with its knob defaults replaced by overrides, given
    as command-line strings or as Python numbers and lists."""
    fig = figure_id.lower()
    if fig not in FIGURES:
        raise ConfigError(
            f"unknown figure {figure_id!r}; available: "
            + ", ".join(sorted(k.upper() for k in FIGURES)))
    builder, defaults = FIGURES[fig]
    o = dict(defaults)
    for key, value in (overrides or {}).items():
        if key not in defaults:
            raise ConfigError(
                f"figure {fig.upper()} does not take override {key!r}; "
                f"allowed: {', '.join(sorted(defaults))}")
        o[key] = parse_values(value, type(defaults[key]), key)
    return builder(o)


def write_runs(runs: list[FigureRun], prefix: str, out_dir, fmt: str = "csv",
               figure: bool = False) -> list[Path]:
    """Run each sweep and write <prefix>_<name>[_rxU].<fmt>, a CDF file per
    receiver where cdf_at is set, and <prefix>_<name>_meta.json; the meta
    names the figure and run only when figure is set.  Every sweep runs
    before the directory is made, so a run that fails leaves nothing."""
    results = [run_sweep(run.cfg, run.sweep) for run in runs]
    outdir = Path(out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    table_writer = write_sweep_csv if fmt == "csv" else write_sweep_json
    written: list[Path] = []
    for run, rows in zip(runs, results):
        stem = outdir / f"{prefix}_{run.name}"
        n_users = len(run.cfg.rx)
        for u in range(n_users):
            suffix = f"_rx{u}" if n_users > 1 else ""
            per_rx = [(value, results[u]) for value, results in rows]
            written.append(table_writer(f"{stem}{suffix}.{fmt}", per_rx))
            if run.cdf_at is not None:
                idx = run.sweep.values.index(run.cdf_at)
                written.append(write_cdf_csv(f"{stem}{suffix}_cdf.csv",
                                             rows[idx][1][u].rate_samples))
        extra = {"sweep": {"variable": run.sweep.variable.value,
                           "values": run.sweep.values,
                           "target_ris": run.sweep.target_ris}}
        if figure:
            extra.update(figure=prefix.upper(), run=run.name)
        written.append(write_metadata(f"{stem}_meta.json", run.cfg, extra))
    return written


def reproduce_figure(figure_id: str, overrides: dict | None = None,
                     out_dir: str = ".", fmt: str = "csv") -> list[Path]:
    """Run every canned sweep of a figure and write its result files."""
    return write_runs(build_figure(figure_id, overrides), figure_id.lower(),
                      out_dir, fmt, figure=True)
