"""Property tests of the collapse engines over random seeds and layouts: the
lockstep ensemble equals scalar trajectories bit for bit, and zero noise or
equal levels leave the ratio state unchanged."""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from relqlab import collapse  # noqa: E402
from relqlab.collapse import (NoiseProcess, TwoStateAmplitudes, TwoStateSystem,  # noqa: E402
                              run_trajectory)

REF_SYS = TwoStateSystem(e0=1.25, e1=1.75)
PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**128 - 16), n_runs=st.integers(1, 9),
       sigma=st.floats(0.8, 2.5), a0=st.floats(0.05, 0.95),
       threshold=st.floats(0.51, 0.99999), max_steps=st.integers(1, 3000),
       chunk=st.integers(1, 2048), block_cap=st.integers(1, 8), workers=st.sampled_from([1, 2]))
def test_lockstep_equals_scalar_trajectories(seed, n_runs, sigma, a0, threshold, max_steps,
                                             chunk, block_cap, workers):
    init = TwoStateAmplitudes(a0=a0, a1=math.sqrt(1.0 - a0 * a0))
    base = NoiseProcess(delta=1.0, sigma=sigma, seed=seed)
    saved = collapse.ENSEMBLE_BLOCK
    collapse.ENSEMBLE_BLOCK = block_cap
    try:
        outcome, steps = collapse._ensemble_outcomes(init, REF_SYS, base, n_runs, max_steps,
                                                     threshold, chunk, workers)
    finally:
        collapse.ENSEMBLE_BLOCK = saved
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
        coef = collapse._ratio_coefficients(sys_.kick_gain(0), sys_.kick_gain(1), sys_.r_ratio)
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
