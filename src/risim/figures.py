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
    ConfigError, ScenarioConfig, SweepSpec, SweepVariable, run_sweep,
    write_cdf_csv, write_metadata, write_sweep_csv, write_sweep_json,
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


def _base(ris_list, rx=_RX, pt_dbm: float = 30.0, trials: int = 2000,
          seed: int = 1234) -> ScenarioConfig:
    return ScenarioConfig(
        tx=_TX, rx=rx, ris_list=list(ris_list),
        budget=LinkBudget(tx_power_dbm=pt_dbm, noise_power_dbm=-100.0),
        n_trials=trials, master_seed=seed,
    )


# override key -> parser for CLI-supplied strings
def _floats(text) -> list[float]:
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    return [float(v) for v in str(text).split(",") if v.strip()]


_OVERRIDE_PARSERS = {
    "trials": int,
    "seed": int,
    "z_ris": float,
    "pt_values": _floats,
    "z_values": _floats,
    "x_values": _floats,
    "tilt_deg_values": _floats,
}

_FIGURE_OVERRIDES = {
    "f2": {"trials", "seed", "z_ris", "pt_values"},
    "f3": {"trials", "seed", "z_values", "x_values"},
    "f4": {"trials", "seed", "z_values", "pt_values"},
    "f5": {"trials", "seed", "tilt_deg_values"},
    "f6": {"trials", "seed", "z_ris", "pt_values"},
    "f7": {"trials", "seed", "x_values", "z_values"},
    "f8": {"trials", "seed", "pt_values"},
    "f9": {"trials", "seed", "x_values"},
}


def _resolve_overrides(fig: str, overrides: dict | None) -> dict:
    allowed = _FIGURE_OVERRIDES[fig]
    out = {"trials": 2000, "seed": 1234}
    for key, value in (overrides or {}).items():
        if key not in allowed:
            raise ConfigError(
                f"figure {fig.upper()} does not take override {key!r}; "
                f"allowed: {', '.join(sorted(allowed))}")
        out[key] = _OVERRIDE_PARSERS[key](value)
    return out


def _fig_f2(o: dict) -> list[FigureRun]:
    """Ergodic rate vs transmit power for 0..3 surfaces, with rate CDFs."""
    z = o.get("z_ris", 2.0)
    pt = o.get("pt_values", _PT_VALUES)
    surfaces = [_surface(75.0, 30.0, z)] \
        + [RisDescriptor(position=p) for p in _EXTRA_POSITIONS]
    runs = []
    for count, name in [(0, "free"), (1, "one_surface"),
                        (2, "two_surfaces"), (3, "three_surfaces")]:
        cfg = _base(surfaces[:count], trials=o["trials"], seed=o["seed"])
        runs.append(FigureRun(name, cfg,
                              SweepSpec(SweepVariable.TX_POWER_DBM, list(pt)),
                              cdf_at=max(pt)))
    return runs


def _fig_f3(o: dict) -> list[FigureRun]:
    """Single-surface placement: height sweep at [75, 34, z], then a sweep
    along the hall at [x, 30, 2], both at 30 dBm."""
    z_values = o.get("z_values", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    x_values = o.get("x_values", [20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0,
                                  55.0, 60.0, 65.0, 70.0, 75.0])
    height_cfg = _base([_surface(75.0, 34.0, 2.0)], trials=o["trials"], seed=o["seed"])
    along_cfg = _base([_surface(20.0, 30.0, 2.0)], trials=o["trials"], seed=o["seed"])
    return [
        FigureRun("height", height_cfg,
                  SweepSpec(SweepVariable.RIS_Z, list(z_values))),
        FigureRun("along", along_cfg,
                  SweepSpec(SweepVariable.RIS_X, list(x_values))),
    ]


def _fig_f4(o: dict) -> list[FigureRun]:
    """SNR vs transmit power at three mounting heights of [75, 30, z]."""
    z_values = o.get("z_values", [2.0, 3.0, 4.0])
    pt = o.get("pt_values", _PT_VALUES)
    return [
        FigureRun(f"z{z:g}",
                  _base([_surface(75.0, 30.0, z)], trials=o["trials"], seed=o["seed"]),
                  SweepSpec(SweepVariable.TX_POWER_DBM, list(pt)))
        for z in z_values
    ]


def _fig_f5(o: dict) -> list[FigureRun]:
    """Tilt sweeps at 15 dBm: an xz-surface pivoting about x towards a
    receiver at [70, 35, 1], and a yz-surface above the default receiver
    pivoting about y."""
    tilt_deg = o.get("tilt_deg_values", [0.0, -10.0, -20.0, -30.0, -40.0,
                                         -50.0, -60.0, -70.0, -80.0])
    tilt_rad = [math.radians(v) for v in tilt_deg]
    pivot_x = _base([_surface(70.0, 30.0, 2.0)], rx=Point3(70.0, 35.0, 1.0),
                    pt_dbm=15.0, trials=o["trials"], seed=o["seed"])
    pivot_y = _base([_surface(75.0, 35.0, 2.0, plane=Plane.YZ)],
                    pt_dbm=15.0, trials=o["trials"], seed=o["seed"])
    return [
        FigureRun("pivot_x", pivot_x, SweepSpec(SweepVariable.TILT, tilt_rad)),
        FigureRun("pivot_y", pivot_y, SweepSpec(SweepVariable.TILT, tilt_rad)),
    ]


def _fig_f6(o: dict) -> list[FigureRun]:
    """Element-count comparison (none / 64 / 256) over transmit power."""
    z = o.get("z_ris", 2.0)
    pt = o.get("pt_values", _PT_VALUES)
    runs = [FigureRun("free", _base([], trials=o["trials"], seed=o["seed"]),
                      SweepSpec(SweepVariable.TX_POWER_DBM, list(pt)))]
    for n in (64, 256):
        cfg = _base([_surface(75.0, 30.0, z, n=n)], trials=o["trials"], seed=o["seed"])
        runs.append(FigureRun(f"n{n}", cfg,
                              SweepSpec(SweepVariable.TX_POWER_DBM, list(pt))))
    return runs


def _fig_f7(o: dict) -> list[FigureRun]:
    """Two surfaces: one parked at [75, 30, 2], the second swept along the
    hall at [x, 34, 2] and in height at [75, 34, z]."""
    x_values = o.get("x_values", [25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0,
                                  60.0, 65.0, 70.0, 75.0])
    z_values = o.get("z_values", [1.0, 1.5, 2.0, 2.5, 3.0])
    fixed = _surface(75.0, 30.0, 2.0)
    along = _base([fixed, _surface(25.0, 34.0, 2.0)], trials=o["trials"],
                  seed=o["seed"])
    height = _base([fixed, _surface(75.0, 34.0, 1.0)], trials=o["trials"],
                   seed=o["seed"])
    return [
        FigureRun("along", along,
                  SweepSpec(SweepVariable.RIS_X, list(x_values), target_ris=1)),
        FigureRun("height", height,
                  SweepSpec(SweepVariable.RIS_Z, list(z_values), target_ris=1)),
    ]


def _fig_f8(o: dict) -> list[FigureRun]:
    """Surface count x element count grid over transmit power."""
    pt = o.get("pt_values", _PT_VALUES)
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
        FigureRun(name, _base(ris, trials=o["trials"], seed=o["seed"]),
                  SweepSpec(SweepVariable.TX_POWER_DBM, list(pt)))
        for name, ris in variants
    ]


def _fig_f9(o: dict) -> list[FigureRun]:
    """Two users sharing a 256-element surface (128 elements each) while the
    surface slides along [x, 30, 2] at 30 dBm."""
    x_values = o.get("x_values", [20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0,
                                  55.0, 60.0, 65.0, 70.0])
    cfg = _base([_surface(20.0, 30.0, 2.0)],
                rx=[Point3(70.0, 32.0, 1.0), Point3(70.0, 35.0, 1.0)],
                trials=o["trials"], seed=o["seed"])
    return [FigureRun("shared", cfg,
                      SweepSpec(SweepVariable.RIS_X, list(x_values)))]


_BUILDERS = {
    "f2": _fig_f2, "f3": _fig_f3, "f4": _fig_f4, "f5": _fig_f5,
    "f6": _fig_f6, "f7": _fig_f7, "f8": _fig_f8, "f9": _fig_f9,
}


def build_figure(figure_id: str, overrides: dict | None = None) -> list[FigureRun]:
    fig = figure_id.lower()
    if fig not in _BUILDERS:
        raise ConfigError(
            f"unknown figure {figure_id!r}; available: "
            + ", ".join(sorted(k.upper() for k in _BUILDERS)))
    return _BUILDERS[fig](_resolve_overrides(fig, overrides))


def reproduce_figure(figure_id: str, overrides: dict | None = None,
                     out_dir: str = ".", fmt: str = "csv",
                     threads: int = 1) -> list[Path]:
    """Run every canned sweep of a figure and write its result files."""
    runs = build_figure(figure_id, overrides)
    outdir = Path(out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    fid = figure_id.lower()
    ext = "csv" if fmt == "csv" else "json"
    table_writer = write_sweep_csv if fmt == "csv" else write_sweep_json
    written: list[Path] = []

    for run in runs:
        rows = run_sweep(run.cfg, run.sweep, threads=threads)
        n_users = len(run.cfg.rx)
        for u in range(n_users):
            suffix = f"_rx{u}" if n_users > 1 else ""
            per_rx = [(value, results[u]) for value, results in rows]
            written.append(table_writer(
                outdir / f"{fid}_{run.name}{suffix}.{ext}", per_rx))
            if run.cdf_at is not None:
                idx = run.sweep.values.index(run.cdf_at)
                written.append(write_cdf_csv(
                    outdir / f"{fid}_{run.name}{suffix}_cdf.csv",
                    rows[idx][1][u].rate_samples))
        written.append(write_metadata(
            outdir / f"{fid}_{run.name}_meta.json", run.cfg,
            {
                "figure": figure_id.upper(),
                "run": run.name,
                "sweep": {
                    "variable": run.sweep.variable.value,
                    "values": [float(v) for v in run.sweep.values],
                    "target_ris": run.sweep.target_ris,
                },
            }))
    return written
