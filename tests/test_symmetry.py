"""Symmetries of the scene as checks on the whole engine, scatter included.

Only relative positions enter the model: translating the transmitter, every
receiver and every surface by the same horizontal offset must leave every
trial's rate unchanged, up to the rounding of the moved coordinates.
Heights enter the blockage model, so a vertical offset is not a symmetry.
"""

import dataclasses

import numpy as np
import pytest

from risim.experiments import SweepVariable, run_sweep
from risim.figures import build_figure
from risim.geometry import Point3

OFFSET = (1234.5, -987.25, 0.0)
TRIALS = 100
# Over the first three points of every F2, F5, F7 and F9 run, the largest
# per-trial relative change under OFFSET was 2.7e-9 at 300 trials, the
# figures' seed; these 100 trials are the first of those 300, since each
# trial draws from its own streams.  The change is rounding: a coordinate
# near 1300 m carries an ulp of 2.3e-13 m, which the wavenumber k = 1530
# rad/m at 73 GHz turns into phase errors of ~3.5e-10 rad, amplified where a
# trial's links nearly cancel.  RTOL allows 4 times the measured maximum
# for last-bit differences of another platform's libm.  A real dependence
# on absolute position moves a phase by k x 1234.5 m ~ 1.9e6 rad and a rate
# by order one.
RTOL = 4 * 2.7e-9


def _moved(p: Point3) -> Point3:
    return Point3(p.x + OFFSET[0], p.y + OFFSET[1], p.z + OFFSET[2])


def _runs():
    for fig in ("F2", "F5", "F7", "F9"):
        for run in build_figure(fig, {"trials": TRIALS}):
            yield pytest.param(run, id=f"{fig.lower()}_{run.name}")


@pytest.mark.parametrize("run", _runs())
def test_translation_keeps_every_trial_rate(run):
    spec = dataclasses.replace(run.sweep, values=run.sweep.values[:3])
    cfg = run.cfg
    moved = dataclasses.replace(
        cfg, tx=_moved(cfg.tx), rx=[_moved(r) for r in cfg.rx],
        ris_list=[dataclasses.replace(r, position=_moved(r.position)) for r in cfg.ris_list])
    moved_spec = spec
    if spec.variable is SweepVariable.RIS_X:   # swept positions move too
        moved_spec = dataclasses.replace(spec, values=[v + OFFSET[0] for v in spec.values])
    base, shifted = run_sweep(cfg, spec), run_sweep(moved, moved_spec)
    assert len(base) == len(shifted) == 3
    for (_, want), (_, got) in zip(base, shifted):
        assert len(got) == len(want) == len(cfg.rx)
        for a, b in zip(want, got):
            assert a.rate_samples.shape == (TRIALS,)
            np.testing.assert_allclose(b.rate_samples, a.rate_samples, rtol=RTOL, atol=0)
