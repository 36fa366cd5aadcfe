"""Regenerate the golden result tables that tests/test_golden.py compares,
or print digests of what they would hold.

Runs figures F2, F3, F5, F7, F8 and F9 at a small trial count and keeps
their sweep and CDF CSVs.  Run from the root of a checkout after a change
that is meant to move Monte Carlo numbers:

    PYTHONPATH=src python tests/golden/record.py

With --digest it writes nothing: it prints a sha256 for each golden table,
as the table would be written, and one for each sweep point of each golden
run over its per-trial rate_samples and rate_ci_low, rate_ci_high bytes,
user by user, named <figure>_<run>.samples[<point index>].  Two checkouts
whose printouts match give the same bytes; where they differ, the lines
name the points that moved:

    PYTHONPATH=src python tests/golden/record.py --digest
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from risim.experiments import run_sweep
from risim.figures import build_figure, reproduce_figure

FIGURES = ("F2", "F3", "F5", "F7", "F8", "F9")
TRIALS = 30
SEED = 7
GOLDEN_DIR = Path(__file__).resolve().parent
KNOBS = {"trials": TRIALS, "seed": SEED}


def write_tables(out_dir) -> list[Path]:
    """Run every golden figure and copy its CSV tables into out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kept = []
    with tempfile.TemporaryDirectory() as scratch:
        for fig in FIGURES:
            for path in reproduce_figure(fig, KNOBS, out_dir=scratch):
                if path.suffix == ".csv":
                    kept.append(Path(shutil.copy(path, out_dir / path.name)))
    return kept


def digests() -> list[tuple[str, str]]:
    """(sha256, name) of every golden table, then of each point of every
    golden run: its per-trial rates and interval bounds, user by user."""
    out = []
    with tempfile.TemporaryDirectory() as scratch:
        for path in sorted(write_tables(scratch)):
            out.append((hashlib.sha256(path.read_bytes()).hexdigest(), path.name))
    for fig in FIGURES:
        for run in build_figure(fig, KNOBS):
            for i, (_, per_user) in enumerate(run_sweep(run.cfg, run.sweep)):
                sha = hashlib.sha256()
                for res in per_user:
                    sha.update(res.rate_samples.tobytes())
                    sha.update(np.array([res.rate_ci_low, res.rate_ci_high]).tobytes())
                out.append((sha.hexdigest(), f"{fig.lower()}_{run.name}.samples[{i}]"))
    return out


if __name__ == "__main__":
    if sys.argv[1:] == ["--digest"]:
        for sha, name in digests():
            print(f"{sha}  {name}")
    else:
        for path in write_tables(sys.argv[1] if len(sys.argv) > 1 else GOLDEN_DIR):
            print(f"wrote {path}")
