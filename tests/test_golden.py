"""Golden regression: small F2, F3, F5, F7, F8 and F9 runs against stored
tables.

The stored CSVs are written by tests/golden/record.py.  Headers must match
exactly and every value to rtol 1e-9, so a refactor that moves any Monte
Carlo number shows here before it shows in a trend check.
"""

import importlib.util
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _recorder():
    spec = importlib.util.spec_from_file_location(
        "golden_record", GOLDEN_DIR / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read(path: Path):
    header, *rows = path.read_text().splitlines()
    return header, np.array([[float(v) for v in row.split(",")] for row in rows])


def test_figure_tables_match_golden(tmp_path):
    written = _recorder().write_tables(tmp_path)
    stored = sorted(p.name for p in GOLDEN_DIR.glob("*.csv"))
    assert sorted(p.name for p in written) == stored
    assert len(stored) == 21
    for name in stored:
        want_header, want = _read(GOLDEN_DIR / name)
        got_header, got = _read(tmp_path / name)
        assert got_header == want_header, name
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0, err_msg=name)
