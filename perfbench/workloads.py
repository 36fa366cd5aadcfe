"""The benchmark's workloads: the inputs each one makes from the seed, the
program call it times, and the outputs it hands back for checking.

Each workload is a closed loop of iterations. Iteration i calls the program
once, with master seed ``master_seed(seed, i)``. An operation is one
``run_scenario`` call, that is, one sweep point; an iteration holds
``points`` of them. Geometry is fixed per workload; the seed only moves the
random streams, so every run can be checked against one stored reference.

Importing this module imports numpy and risim, which the benchmark counts as
set-up time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import shutil
from pathlib import Path

from risim import cli, experiments, figures

HALL = {"tx": [0.0, 20.0, 2.0], "rx": [75.0, 35.0, 1.0]}
SURFACE_256 = {"position": [75.0, 30.0, 2.0], "n_elements": 256}
PT_VALUES = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
F9_X_VALUES = [20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0, 65.0, 70.0]
F9_FILES = ("f9_shared_rx0.csv", "f9_shared_rx1.csv", "f9_shared_meta.json")
# Written out here rather than imported, so a change to the program's
# writers shows as a failed check instead of moving the expectation with it.
SWEEP_HEADER = ("sweep_value,ergodic_rate_bps_hz,mean_snr_db,"
                "rate_ci_low,rate_ci_high,n_trials,seed")
META_HEAD = '{\n "config": {'


def master_seed(seed: int, iteration: int) -> int:
    """Distinct seeds never share a master seed while iteration < 10**6."""
    return seed * 1_000_000 + iteration


def _checked(cfg):
    issues = experiments.validate(cfg)
    if issues:
        raise ValueError("benchmark config rejected: " + "; ".join(issues))
    return cfg


class _Sweep:
    """Workloads that call run_sweep or run_scenario in-process."""

    spec = None

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.cfg = _checked(self.scenario(master_seed(seed, 0), self.trials))

    def inputs(self, i: int):
        return dataclasses.replace(self.cfg, master_seed=master_seed(self.seed, i))

    def call(self, cfg):
        if self.spec is None:
            return [(None, experiments.run_scenario(cfg, threads=1))]
        return experiments.run_sweep(cfg, self.spec, threads=1)

    def outputs(self, i: int, result) -> list[list[float]]:
        """Per sweep point, the ergodic rate of each receiver."""
        if len(result) != self.points:
            raise ValueError(f"{len(result)} sweep points, expected {self.points}")
        rates = []
        for _, per_user in result:
            if any(r.n_trials != self.trials for r in per_user):
                raise ValueError("result trial counts differ from the config")
            rates.append([float(r.ergodic_rate) for r in per_user])
        return rates

    @classmethod
    def reference_runs(cls, seed: int, trials: int):
        cfg = _checked(cls.scenario(seed, trials))
        if cls.spec is None:
            return [experiments.run_scenario(cfg)]
        return [results for _, results in experiments.run_sweep(cfg, cls.spec)]


class FreePowerSweep(_Sweep):
    name = "free_power_sweep"
    trials = 100
    points = len(PT_VALUES)
    trace_iterations = 2
    spec = experiments.SweepSpec(experiments.SweepVariable.TX_POWER_DBM, PT_VALUES)

    @staticmethod
    def scenario(seed: int, trials: int):
        return experiments.scenario_from_dict(
            {**HALL, "n_trials": trials, "master_seed": seed})


class Single256(_Sweep):
    name = "single_256"
    trials = 100
    points = 1
    trace_iterations = 6

    @staticmethod
    def scenario(seed: int, trials: int):
        return experiments.scenario_from_dict(
            {**HALL, "ris_list": [SURFACE_256],
             "budget": {"tx_power_dbm": 30.0, "noise_power_dbm": -100.0},
             "n_trials": trials, "master_seed": seed})


class F9Shared:
    """``risim figure F9`` through cli.main, on one thread."""

    name = "f9_shared"
    trials = 10
    points = len(F9_X_VALUES)
    trace_iterations = 6
    # With one pool thread per core, the pool's threads contend for the
    # interpreter lock with each other and with OpenBLAS's, and 30-s runs of
    # this workload spread 0.14-0.22 (IQR over median) on a 2-vCPU host, too
    # wide to gate; with --threads 1 they spread 0.03.
    threads = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        cli.build_parser().parse_args(self.inputs(0))
        overrides = {"seed": master_seed(seed, 0), "trials": self.trials}
        for run in figures.build_figure("F9", overrides):
            _checked(run.cfg)

    def _dir(self, i: int) -> Path:
        return self.out_dir / f"f9-{i}"

    def inputs(self, i: int) -> list[str]:
        shutil.rmtree(self._dir(i), ignore_errors=True)
        return ["figure", "F9", "--threads", str(self.threads),
                "--trials", str(self.trials),
                "--seed", str(master_seed(self.seed, i)), "--out", str(self._dir(i))]

    def call(self, argv: list[str]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"risim {' '.join(argv)} exited with {code}")

    def outputs(self, i: int, result) -> list[list[float]]:
        """Checks every F9 file, then returns the per-point rates of both users."""
        out = self._dir(i)
        try:
            for name in F9_FILES:
                text = (out / name).read_text()
                head = META_HEAD if name.endswith(".json") else SWEEP_HEADER + "\n"
                if not text.startswith(head):
                    raise ValueError(f"{name} does not start with {head!r}")
            per_user = [self._rows(out / name, master_seed(self.seed, i))
                        for name in F9_FILES[:2]]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return [list(rates) for rates in zip(*per_user)]

    def _rows(self, path: Path, seed: int) -> list[float]:
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        if [float(r[0]) for r in rows] != F9_X_VALUES:
            raise ValueError(f"{path.name}: sweep values differ from F9's")
        if any(r[5] != str(self.trials) or r[6] != str(seed) for r in rows):
            raise ValueError(f"{path.name}: trial count or seed column is wrong")
        return [float(r[1]) for r in rows]

    @classmethod
    def reference_runs(cls, seed: int, trials: int):
        (run,) = figures.build_figure("F9", {"seed": seed, "trials": trials})
        return [results for _, results in experiments.run_sweep(run.cfg, run.sweep)]


WORKLOADS = {w.name: w for w in (FreePowerSweep, Single256, F9Shared)}
