"""Record perfbench/reference.json: per workload, sweep point and receiver,
the ergodic rate and std(rate_samples) at the benchmark's default seed.

Run from the root of a checkout, only when the physics is meant to change:
    PYTHONPATH=src python3 perfbench/record_reference.py

run.py compares every operation with these rates in units of the combined
Monte Carlo standard error, so later kernel or random-stream changes pass
without re-recording.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import workloads
from run import DEFAULT_SEED

# Enough trials that the reference adds little to the pooled check's error;
# F9 has 22 rates per seed and runs slowest, so it gets fewer.
REFERENCE_TRIALS = {"free_power_sweep": 20000, "single_256": 20000,
                    "f9_shared": 4000}


def main() -> None:
    seed = workloads.master_seed(DEFAULT_SEED, 0)
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        points = wl.reference_runs(seed, REFERENCE_TRIALS[name])
        out[name] = {
            "master_seed": seed,
            "trials": REFERENCE_TRIALS[name],
            "points": [[{"rate": float(r.ergodic_rate),
                         "std": float(np.std(r.rate_samples))} for r in per_user]
                       for per_user in points],
        }
        print(name, [[round(u["rate"], 3) for u in p] for p in out[name]["points"]])
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
