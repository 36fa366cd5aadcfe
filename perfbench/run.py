"""risim benchmark: one workload per call, measured in a fresh process.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload single_256 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it prints the per-layer metrics of a traced run instead. The
times are scaled to one host speed, because the shared host's speed drifts
more than a change should move them: each iteration's wall and CPU time is
multiplied by CAL_REF_S over the time worker.calibrate() took beside it, and
each set-up time by STARTUP_REF_S over the time a fresh interpreter took to
import numpy just before it. The unscaled medians are printed beside them. Every
operation (one sweep point) is checked against perfbench/reference.json. The
last line of standard output is one JSON object: correct, attempted, failed
and metrics. The lines before it give each metric with its unit, the share
of failed operations, and the run context.

risim is pure Python, so there is nothing to build: the worker imports it
from ``src/`` of the same checkout and refuses any other copy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUP_PROBES = 9          # extra set-up-only processes; setup_s is their median
DEADLINE_S = 170.0        # the whole call ends within this
# A rate misses the reference when it is further from the stored one than
# Z_MAX combined Monte Carlo standard errors, std(rate_samples) * sqrt(1/n +
# 1/n_ref). Z_MAX = 6 leaves a fresh set of random streams about 2e-9 chance
# per rate of a false miss.
Z_MAX = 6.0
# worker.calibrate()'s median on the host the benchmark was defined on (a
# 2-vCPU Intel Xeon VM), so that scaled times read close to raw ones there.
CAL_REF_S = 0.0104
# The same for a fresh interpreter importing numpy, which is most of set-up.
STARTUP_REF_S = 0.18


class BenchError(RuntimeError):
    pass


def _spawn(args, deadline: float, setup_only: bool
           ) -> tuple[float, float, dict | None]:
    """Time a fresh interpreter importing numpy, then run worker.py; return
    both times and the worker's JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=ROOT,
                       check=True, timeout=max(deadline - time.monotonic(), 0.0))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"startup calibration failed: {exc}") from exc
    startup_s = time.perf_counter() - start
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if first != "ready\n" or code != 0:
        raise BenchError(f"worker exited with code {code} before finishing")
    return startup_s, setup_s, None if setup_only else json.loads(rest.splitlines()[-1])


def check_ops(iterations: list[dict], ref: dict, op_trials: int
              ) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every operation, i.e. sweep point.

    An operation fails when it returned no rates, when one of its rates is
    more than Z_MAX combined standard errors from the reference, or when the
    mean over all iterations at its sweep point is. The pooled test sees
    sqrt(iterations) smaller errors, so it catches shifts a single
    operation's few trials hide."""
    points = ref["points"]

    def misses(p: int, rates: list[float], trials: int) -> list[str]:
        out = []
        for u, rate in enumerate(rates):
            r = points[p][u]
            se = r["std"] * math.sqrt(1.0 / trials + 1.0 / ref["trials"])
            if not abs(rate - r["rate"]) <= Z_MAX * se:
                out.append(f"point {p} user {u}: rate {rate:.6g}, reference "
                           f"{r['rate']:.6g} +- {Z_MAX:g} x {se:.3g} ({trials} trials)")
        return out

    def usable(p: int, rates) -> bool:
        return rates is not None and len(rates) == len(points[p])

    # Traced iterations repeat the inputs of untraced ones; pool each once.
    distinct = {it["iteration"]: it["ops"] for it in iterations}
    messages, pooled_miss = [], set()
    for p in range(len(points)):
        runs = [ops[p] for ops in distinct.values() if usable(p, ops[p])]
        if runs:
            found = misses(p, [statistics.fmean(c) for c in zip(*runs)],
                           op_trials * len(runs))
            messages += [f"pooled {m}" for m in found]
            pooled_miss.update([p] if found else [])

    attempted = failed = 0
    for it in iterations:
        for p, rates in enumerate(it["ops"]):
            attempted += 1
            bad = misses(p, rates, op_trials) if usable(p, rates) else ["no result"]
            messages += [f"iteration {it['iteration']} {m}" for m in bad]
            failed += bool(bad) or p in pooled_miss
    return attempted, failed, messages


def per_trial_us(result: dict, phase: str, key: str, scaled: bool) -> list[float]:
    """Wall or CPU microseconds per simulated trial (trials x sweep points),
    one value per iteration that completed; if scaled, at the host speed
    where calibrate() takes CAL_REF_S."""
    trials = result["trials"] * result["points"]
    return [it[key] / trials * 1e6 * (CAL_REF_S / it["cal_s"] if scaled else 1.0)
            for it in result[phase] if it[key] is not None]


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def context(worker: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "loadavg": os.getloadavg(),
        **worker["context"],
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "tier1_wall_s": "not measured: one tier-1 run takes minutes, so it is "
                        "left out of the gated metrics",
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "risim" / "__init__.py").is_file():
        print(f"error: no risim sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    ref = json.loads((HERE / "reference.json").read_text())[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    try:
        probes = [_spawn(args, deadline, setup_only=True)[:2]
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        startup_s, setup_s, result = _spawn(args, deadline, setup_only=False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    probes.append((startup_s, setup_s))
    setups = [setup * STARTUP_REF_S / startup for startup, setup in probes]
    if not Path(result["context"]["risim_file"]).is_relative_to(SRC):
        print(f"error: imported {result['context']['risim_file']}, not {SRC}",
              file=sys.stderr)
        return 1

    iterations = result["iterations"] + result["traced"]
    attempted, failed, messages = check_ops(iterations, ref, result["trials"])
    for line in messages[:20]:
        print(f"check: {line}")
    wall = per_trial_us(result, "iterations", "wall_s", scaled=True)
    if not wall:
        print("error: no iteration completed", file=sys.stderr)
        return 1
    base = statistics.median(wall)
    raw = {key: statistics.median(per_trial_us(result, "iterations", key, scaled=False))
           for key in ("wall_s", "cpu_s")}

    if args.trace:
        traced = per_trial_us(result, "traced", "wall_s", scaled=False)
        values = dict(result["layers"])
        values["trace.overhead_frac"] = statistics.mean(traced) / raw["wall_s"] - 1.0 \
            if traced else 0.0
        specs = bench["per_layer"]
    else:
        values = {
            "us_per_trial": base,
            "cpu_us_per_trial": statistics.median(
                per_trial_us(result, "iterations", "cpu_s", scaled=True)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        specs = bench["end_to_end"]
    if set(values) != {m["name"] for m in specs}:
        raise BenchError(f"metrics {sorted(values)} differ from BENCHMARK.json")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    n = len(wall)
    q1, _, q3 = statistics.quantiles(wall, n=4) if n > 1 else (base,) * 3
    # the highest percentile with ten iterations above it, when above the median
    tail = f", p{100 * (n - 10) // n} {sorted(wall)[n - 11]:.6g}" if n > 20 else ""
    print(f"us_per_trial median {base:.6g}, quartiles {q1:.6g}..{q3:.6g}{tail}; "
          f"{n} iterations of {result['trials']} trials x {result['points']} points")
    cal = statistics.median(it["cal_s"] for it in result["iterations"])
    print(f"unscaled medians: {raw['wall_s']:.6g} us wall, {raw['cpu_s']:.6g} us CPU "
          f"per trial, {statistics.median(s for _, s in probes):.6g} s set-up; "
          f"calibration medians {cal * 1e3:.6g} ms against {CAL_REF_S * 1e3:g} ms "
          f"and {statistics.median(s for s, _ in probes):.6g} s against "
          f"{STARTUP_REF_S:g} s")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print("context " + json.dumps(context(result)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
