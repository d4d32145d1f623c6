"""Property tests of the collapse engines over random seeds and layouts: the
lockstep ensemble equals scalar trajectories bit for bit, and zero noise or
equal levels leave the ratio state unchanged."""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, example, given, settings, strategies as st  # noqa: E402

from relqlab import collapse  # noqa: E402
from relqlab.collapse import (NoiseProcess, TwoStateAmplitudes, TwoStateSystem,  # noqa: E402
                              run_trajectory)

REF_SYS = TwoStateSystem(e0=1.25, e1=1.75)
PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


# no shrinking: a failing example runs up to 300 scalar trajectories, so shrinking one
# would take minutes; the first failure is reported as drawn
@settings(PROPERTY_SETTINGS, phases=(Phase.explicit, Phase.generate))
@given(seed=st.integers(0, 2**128 - 300),
       # a few runs at any sigma, or up to a few hundred where collapse is quick: wide
       # blocks then park collapsed columns, compact mid-chunk and end on a part slab
       layout=st.one_of(st.tuples(st.floats(0.8, 2.5), st.integers(1, 9)),
                        st.tuples(st.floats(2.0, 2.5), st.integers(10, 300))),
       # a0^2 at a share u of the way from 1 - threshold to threshold: u = 0 and 1 start
       # at the threshold, the rest short of it
       u=st.floats(0.0, 1.0), threshold=st.floats(0.51, 0.99999),
       max_steps=st.integers(1, 3000), chunk=st.integers(1, 512).map(lambda q: 4 * q),
       block_cap=st.integers(1, 320), slab=st.integers(1, 160),
       workers=st.sampled_from([1, 2]), first_chunk=st.integers(1, 256).map(lambda q: 4 * q),
       rows=st.integers(1, 64))
# one 300-wide block, first chunk 64, in which parked columns trip again 14 times before
# compaction
@example(seed=1, layout=(2.8, 300), u=0.9, threshold=0.8, max_steps=3000, chunk=1024,
         block_cap=320, slab=128, workers=1, first_chunk=64, rows=1)
# a0^2 = 0.5 in a narrow band: trajectories cross and come back inside it within one
# 16-step group, so only each one's first crossing may count
@example(seed=1, layout=(2.2, 300), u=0.5, threshold=0.51, max_steps=3000, chunk=1024,
         block_cap=320, slab=128, workers=1, first_chunk=128, rows=16)
def test_lockstep_equals_scalar_trajectories(seed, layout, u, threshold, max_steps,
                                             chunk, block_cap, slab, workers, first_chunk,
                                             rows):
    sigma, n_runs = layout
    p0 = 1.0 - threshold + u * (2.0 * threshold - 1.0)
    init = TwoStateAmplitudes(a0=math.sqrt(p0), a1=math.sqrt(1.0 - p0))
    base = NoiseProcess(sigma=sigma, seed=seed)
    names = "ENSEMBLE_BLOCK", "_CHUNK", "_FIRST_CHUNK", "_SLAB", "_ROWS"
    saved = [getattr(collapse, name) for name in names]
    for name, value in zip(names, (block_cap, chunk, first_chunk, slab, rows)):
        setattr(collapse, name, value)
    try:
        outcome, steps = collapse._ensemble_outcomes(init, REF_SYS, base, n_runs, max_steps,
                                                     threshold, workers)
    finally:
        for name, value in zip(names, saved):
            setattr(collapse, name, value)
    for k in range(n_runs):
        traj = run_trajectory(init, REF_SYS, dataclasses.replace(base, seed=seed + k),
                              max_steps, threshold, history_stride=max_steps)
        assert outcome[k] == (-1 if traj.outcome is None else traj.outcome)
        assert steps[k] == (-1 if traj.steps_to_collapse is None else traj.steps_to_collapse)


@PROPERTY_SETTINGS
@given(s=st.lists(st.floats(1e-18, 1e18), min_size=1, max_size=16),
       e0=st.floats(1.0, 5.0), e1=st.floats(1.0, 5.0), f=st.floats(-1.0, 1.0))
def test_zero_noise_and_equal_levels_leave_the_ratio_exact(s, e0, e1, f):
    # |f| <= 1 keeps |N| below 0.35 for levels in [1, 5]
    for sys_, noise in ((TwoStateSystem(e0=e0, e1=e1), 0.0), (TwoStateSystem(e0=e0, e1=e0), f)):
        coef = collapse._ratio_coefficients(sys_)
        states = np.array(s)
        assert [collapse._ratio_step(x, noise, coef) for x in s] == s
        assert collapse._ratio_step(states, np.full(states.size, noise), coef).tobytes() \
            == states.tobytes()


@PROPERTY_SETTINGS
@given(threshold=st.one_of(st.sampled_from([0.51, 0.75, 0.999, 0.999999999, 1.0 - 2.0**-53]),
                           st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)))
def test_ratio_bounds_are_the_first_states_reported_collapsed(threshold):
    # the bounds sit exactly where the reported a0^2 = 1/(1 + s) and
    # a1^2 = 1/(1 + 1/s) cross the threshold
    lo, hi = collapse._ratio_bounds(threshold)
    assert 1.0 / (1.0 + lo) >= threshold > 1.0 / (1.0 + math.nextafter(lo, math.inf))
    assert 1.0 / (1.0 + 1.0 / hi) >= threshold > 1.0 / (1.0 + 1.0 / math.nextafter(hi, 0.0))
