"""Regenerate the golden result tables that tests/test_golden.py compares.

Runs figures F2, F3, F5, F7, F8 and F9 at a small trial count and keeps
their sweep and CDF CSVs.  Run from the root of a checkout after a change
that is meant to move Monte Carlo numbers:

    PYTHONPATH=src python tests/golden/record.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from risim.figures import reproduce_figure

FIGURES = ("F2", "F3", "F5", "F7", "F8", "F9")
TRIALS = 30
SEED = 7
GOLDEN_DIR = Path(__file__).resolve().parent


def write_tables(out_dir) -> list[Path]:
    """Run every golden figure and copy its CSV tables into out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kept = []
    with tempfile.TemporaryDirectory() as scratch:
        for fig in FIGURES:
            for path in reproduce_figure(fig, {"trials": TRIALS, "seed": SEED},
                                         out_dir=scratch):
                if path.suffix == ".csv":
                    kept.append(Path(shutil.copy(path, out_dir / path.name)))
    return kept


if __name__ == "__main__":
    for path in write_tables(sys.argv[1] if len(sys.argv) > 1 else GOLDEN_DIR):
        print(f"wrote {path}")
