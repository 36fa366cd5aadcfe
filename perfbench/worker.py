"""One workload in one fresh process: set up, signal ready, run the closed
loop, and print one JSON line of raw measurements for run.py to check.

Usage: python3 worker.py --workload NAME --seed N --seconds S --trace 0|1
                         --out-dir DIR [--setup-only]

The first line of standard output is ``ready``, printed as soon as the
inputs are built and validated, so the parent can time set-up.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads


def calibrate() -> float:
    """Wall seconds of a fixed piece of work that touches no risim code:
    random-stream derivation, small draws and complex arithmetic, the mix
    the trial loop spends its time on. It is timed beside every iteration,
    so run.py can scale each iteration to one host speed; the host's speed
    drifts by tens of percent over minutes, more than a change should move it."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(300):
        rng = np.random.default_rng(np.random.SeedSequence([7, k]))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=(int(rng.poisson(4.0)) + 1, 8))
        acc += float(np.abs(np.exp(1j * angles).sum())) + sum(j * 0.5 for j in range(30))
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("calibration produced a non-finite sum")
    return elapsed


def _iteration(wl, i: int) -> dict:
    """Time one program call. A call that raises fails all of its operations
    and has no timing; outputs that fail their checks only fail the ops."""
    inputs = wl.inputs(i)
    failed = {"iteration": i, "wall_s": None, "cpu_s": None, "ops": [None] * wl.points}
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        result = wl.call(inputs)
    except Exception:
        traceback.print_exc()
        return failed
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    try:
        ops = wl.outputs(i, result)
    except (OSError, ValueError, IndexError) as exc:
        print(f"iteration {i}: {exc!r}", file=sys.stderr)
        ops = failed["ops"]
    return {"iteration": i, "wall_s": wall, "cpu_s": cpu, "ops": ops}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _context() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "risim_file": workloads.experiments.__file__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # Each iteration gets the mean of the calibrations just before and just
    # after it, so the host speed is measured while the iteration ran.
    calibrate()  # its first call in a process runs slower, on cold caches
    iterations = []
    start = time.perf_counter()
    cal_before = calibrate()
    while not iterations or time.perf_counter() - start < args.seconds:
        it = _iteration(wl, len(iterations))
        cal_after = calibrate()
        it["cal_s"] = 0.5 * (cal_before + cal_after)
        iterations.append(it)
        cal_before = cal_after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced, layers = [], None
    if args.trace:
        # The traced iterations repeat the first untraced inputs, so the
        # counts repeat exactly for one seed.
        with tracing.Tracer() as tracer:
            traced = [_iteration(wl, i) for i in range(wl.trace_iterations)]
        layers = tracing.layer_metrics(tracer)
        tracer.write(args.out_dir / f"spans-{args.workload}.jsonl")

    print(json.dumps({"trials": wl.trials, "points": wl.points,
                      "iterations": iterations, "traced": traced, "layers": layers,
                      "peak_rss_mb": peak_rss_mb, "context": _context()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
