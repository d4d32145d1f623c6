"""Collapse recursion: fixed points, freezes, termination, ensembles,
determinism, and the general mixing-matrix oracle."""

import dataclasses
import math
import os
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from relqlab import collapse
from relqlab.collapse import (
    AMPLITUDE_FLOOR,
    DEFAULT_SIGMA_STAR,
    NoiseProcess,
    NoiseTooLargeError,
    TwoStateAmplitudes,
    TwoStateSystem,
    generate_noise,
    run_ensemble,
    run_trajectory,
    wilson_interval,
    worker_count,
)
from relqlab.abexp import PathPair
from relqlab.evolution import FieldConfig, SpatialGrid, WaveFunction, dispersion, plane_wave
from reference import collapse_step, lambda_general, lambda_two_state, step_kernel

REF_SYS = TwoStateSystem(e0=1.25, e1=1.75)
SYM_INIT = TwoStateAmplitudes(a0=0.5, a1=math.sqrt(3.0) / 2.0)


def uniform_noise(sigma, seed):
    return NoiseProcess(sigma=sigma, seed=seed, mode="uniform")


# ---------------------------------------------------------------------------
# types


def test_two_state_system_derived_quantities():
    # N / f = p (2 + e) / (2 e^2 (1 + e)) with p = sqrt(e^2 - 1): 0.75 at e0 = 1.25
    assert REF_SYS.kick_gain(0) == pytest.approx(0.75 * 3.25 / (2 * 1.25**2 * 2.25), rel=1e-15)
    p1 = math.sqrt(1.75**2 - 1.0)
    assert REF_SYS.kick_gain(1) == pytest.approx(p1 * 3.75 / (2 * 1.75**2 * 2.75), rel=1e-15)
    expected_r = (1.75 / 1.25) * math.sqrt(2.25 / 2.75)
    assert REF_SYS.r_ratio == pytest.approx(expected_r, rel=1e-15)
    assert TwoStateSystem(e0=1.4, e1=1.4).r_ratio == 1.0
    with pytest.raises(ValueError):
        TwoStateSystem(e0=0.9, e1=1.2)


@pytest.mark.parametrize("e0, e1", [(1e300, 1.75), (1.25, 1e300), (1.4e154, 1.25)])
def test_levels_whose_kick_gain_overflows_are_rejected(e0, e1):
    # p = sqrt(e^2 - 1) is inf past about 1.34e154, so the kick gain would be nan
    with pytest.raises(ValueError, match="e[01] must be small enough for a finite kick gain"):
        TwoStateSystem(e0=e0, e1=e1)
    assert collapse.level_error(4e102) is None
    assert math.isfinite(TwoStateSystem(e0=4e102, e1=4e102).kick_gain(0))
    # a nan gain in any position, or a nan bound, is outside the noise domain
    for gains in ((math.nan, 0.1), (0.1, math.nan)):
        with pytest.raises(NoiseTooLargeError, match="nan, not < 1"):
            collapse.check_noise(SimpleNamespace(noise_gains=gains, r_ratio=1.0), 0.5)
    with pytest.raises(NoiseTooLargeError):
        collapse.check_noise(SimpleNamespace(noise_gains=(0.1, 0.2), r_ratio=1.0), math.nan)


def test_amplitudes_validation():
    with pytest.raises(ValueError):
        TwoStateAmplitudes(a0=0.9, a1=0.9)
    with pytest.raises(ValueError):
        TwoStateAmplitudes(a0=-0.5, a1=math.sqrt(0.75))


def test_noise_process_validation():
    with pytest.raises(ValueError):
        NoiseProcess(delta=0.0, sigma=1.0, seed=0)
    with pytest.raises(ValueError):
        NoiseProcess(sigma=-1.0, seed=0)
    with pytest.raises(ValueError):
        NoiseProcess(sigma=1.0, seed=0, mode="pink")


@pytest.mark.parametrize("seed", [-1, 2**128, 1.0, True, np.True_])
def test_noise_process_rejects_seeds_outside_the_philox_key_range(seed):
    with pytest.raises(ValueError, match="seed"):
        uniform_noise(0.5, seed)
    assert uniform_noise(0.5, 2**128 - 1).seed == 2**128 - 1  # the largest key


# ---------------------------------------------------------------------------
# noise generation


def test_noise_zero_sigma_is_zero():
    proc = uniform_noise(0.0, seed=3)
    assert np.all(generate_noise(proc, 100) == 0.0)


def test_noise_alternating_sequence():
    proc = NoiseProcess(sigma=1.0, seed=0, mode="alternating")
    np.testing.assert_array_equal(generate_noise(proc, 4), [1.0, -1.0, 1.0, -1.0])
    assert generate_noise(proc, 4).sum() == 0.0


def test_noise_uniform_mean_bound():
    # uniform on [-s, s] has variance s^2/3; 3-sigma bound on the sample mean
    sigma, n = 0.8, 100_000
    vals = generate_noise(uniform_noise(sigma, seed=11), n)
    assert abs(vals.mean()) < 3.0 * sigma / math.sqrt(3.0 * n)
    assert np.all(np.abs(vals) <= sigma)


def test_noise_seed_determinism():
    a = generate_noise(uniform_noise(0.5, seed=42), 1000)
    b = generate_noise(uniform_noise(0.5, seed=42), 1000)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 2**64 - 3, 2**127 + 5])
@pytest.mark.parametrize("start, n", [(0, 1), (4, 3), (64, 129), (1024, 1024)])
def test_noise_window_equals_one_philox_uniform_draw(seed, start, n):
    # a window of the stream follows from its key and start alone
    sigma = 0.55
    whole = np.random.Generator(np.random.Philox(key=seed)).uniform(-sigma, sigma, start + n)
    assert generate_noise(uniform_noise(sigma, seed), n, start).tobytes() == whole[start:].tobytes()


@pytest.mark.parametrize("rows", [1, 3, collapse._SLAB + 1])
@pytest.mark.parametrize("start", [0, 1024])
def test_one_fill_over_several_keys_equals_one_philox_draw_per_key(rows, start):
    # one Philox state serves the whole fill, so its key must change on every row
    sigma, n = 0.55, 37
    keys = [0, 2**64 - 3, 2**64, 2**127 + 5]
    keys = [keys[i % 4] + i // 4 for i in range(rows)]
    proc = uniform_noise(sigma, seed=keys[0])
    out = np.empty((rows, n))
    collapse._fill_noise(proc, proc.make_generator(), keys, start, out)
    for key, row in zip(keys, out):
        whole = np.random.Generator(np.random.Philox(key=key)).uniform(-sigma, sigma, start + n)
        assert row.tobytes() == whole[start:].tobytes()


@pytest.mark.parametrize("start", [0, 3, 4, 7, 8])
def test_alternating_noise_sign_follows_the_absolute_index(start):
    proc = NoiseProcess(sigma=0.3, seed=0, mode="alternating")
    expected = [0.3 if (start + j) % 2 == 0 else -0.3 for j in range(5)]
    rows = np.empty((2, 5))
    collapse._fill_noise(proc, None, [0, 1], start, rows)
    np.testing.assert_array_equal(rows, [expected, expected])
    if start % 4 == 0:
        np.testing.assert_array_equal(generate_noise(proc, 5, start), expected)


@pytest.mark.parametrize("start", [-4, 1, 2, 6, 4.0, False])
def test_noise_start_must_be_a_non_negative_multiple_of_four(start):
    with pytest.raises(ValueError, match="start"):
        generate_noise(uniform_noise(0.5, seed=1), 8, start)


@pytest.mark.parametrize("n_steps", [0, -1, 2.0, True, np.True_])
def test_noise_count_must_be_a_positive_integer(n_steps):
    with pytest.raises(ValueError, match="n_steps"):
        generate_noise(uniform_noise(0.5, seed=1), n_steps)


# ---------------------------------------------------------------------------
# kick


def test_kick_zero_noise_identity():
    a1 = math.sqrt(1.0 - 0.7 * 0.7)
    out = collapse_step(TwoStateAmplitudes(a0=0.7, a1=a1), REF_SYS, 0.0)
    assert out.a0 == 0.7
    assert out.a1 == a1


def test_kick_reference_value():
    # N = f p (2 + e) / (2 e^2 (1 + e)) evaluated independently
    f = 0.01
    n_expected = f * 0.75 * (2.0 + 1.25) / (2.0 * 1.25**2 * (1.0 + 1.25))
    assert n_expected == pytest.approx(3.4667e-3, rel=1e-4)
    assert 1.0 - f * REF_SYS.kick_gain(0) == pytest.approx(1.0 - n_expected, rel=1e-14)


def test_kick_rest_level_immune():
    sys_ = TwoStateSystem(e0=1.0, e1=1.5)
    assert 0.4 * (1.0 - 123.0 * sys_.kick_gain(0)) == 0.4  # p = 0 at e = 1


def test_kick_too_large_rejected():
    with pytest.raises(NoiseTooLargeError):
        collapse_step(TwoStateAmplitudes(a0=0.5, a1=math.sqrt(0.75)), REF_SYS, 5.0)


def test_noise_that_turns_an_amplitude_negative_is_rejected():
    # |N| = 0.7 < 1, yet with r = 2.36 the mixed amplitude a0 (1 - N1 - l00 D) is negative
    far = TwoStateSystem(e0=1.1, e1=4.0)
    with pytest.raises(NoiseTooLargeError, match="reduce sigma"):
        collapse_step(SYM_INIT, far, 2.5042)
    with pytest.raises(NoiseTooLargeError):
        run_trajectory(SYM_INIT, far, uniform_noise(2.5, 0), max_steps=10, threshold=0.999)
    with pytest.raises(NoiseTooLargeError):
        run_ensemble(SYM_INIT, far, uniform_noise(2.5, 0), n_runs=200, max_steps=10,
                     threshold=0.999)


@pytest.mark.parametrize("bad", [dict(n_runs=0), dict(n_runs=2.0), dict(n_runs=True),
                                 dict(max_steps=0), dict(max_steps=1.5), dict(max_steps=True),
                                 dict(threshold=0.5), dict(threshold=1.0),
                                 dict(threshold=math.nan)], ids=repr)
def test_run_ensemble_rejects_bad_arguments_before_any_work(monkeypatch, bad):
    def no_work(*args):
        raise AssertionError("an ensemble started")

    monkeypatch.setattr(collapse, "_ensemble_outcomes", no_work)
    args = {"n_runs": 4, "max_steps": 10, "threshold": 0.999, **bad}
    name = next(iter(bad))
    with pytest.raises(ValueError, match=name):
        run_ensemble(SYM_INIT, REF_SYS, uniform_noise(0.5, 0), **args)


def test_noise_domain_at_the_reference_levels():
    # the bound f_max max|A1, A0, B1, B0| < 1 puts the sigma limit at 2.826 (|N| < 1: 2.885)
    run_ensemble(SYM_INIT, REF_SYS, uniform_noise(2.82, 0), n_runs=2, max_steps=10,
                 threshold=0.999)
    with pytest.raises(NoiseTooLargeError):
        run_ensemble(SYM_INIT, REF_SYS, uniform_noise(2.83, 0), n_runs=2, max_steps=10,
                     threshold=0.999)


@pytest.mark.parametrize("e0, e1, sign", [(1.25, 1.75, 1), (1.1, 4.0, 1), (3.0, 1.2, 1),
                                          (1.0, 1.5, 1), (1.25, 1.75, -1)])
def test_noise_domain_is_where_the_two_amplitude_step_stays_positive(e0, e1, sign):
    # the step's own three stages, over states from s = 1e-12 to 1e12 and both
    # signs of f: positive just inside the limit, negative somewhere just past it
    sys_ = (TwoStateSystem if sign == 1 else PathPair)(e0=e0, e1=e1)
    gains = sys_.noise_gains
    assert gains == (sys_.kick_gain(0), sign * sys_.kick_gain(1))
    limit = 1.0 / max(map(abs, collapse._ratio_coefficients(sys_)))
    s = np.geomspace(1e-12, 1e12, 241)
    states = list(zip((1.0 / np.sqrt(1.0 + s)).tolist(), (1.0 / np.sqrt(1.0 + 1.0 / s)).tolist()))

    def lowest_amplitude(f):
        return min(min(step_kernel(a0, a1, f * gains[0], f * gains[1], sys_.r_ratio))
                   for a0, a1 in states)

    assert lowest_amplitude(0.999 * limit) > 0.0 and lowest_amplitude(-0.999 * limit) > 0.0
    assert min(lowest_amplitude(1.01 * limit), lowest_amplitude(-1.01 * limit)) < 0.0
    collapse.check_noise(sys_, 0.999 * limit)
    with pytest.raises(NoiseTooLargeError):
        collapse.check_noise(sys_, 1.001 * limit)


# ---------------------------------------------------------------------------
# linear-model factors


def test_lambda_two_state_endpoints():
    r = REF_SYS.r_ratio
    l00, _ = lambda_two_state(TwoStateAmplitudes(a0=1.0, a1=0.0), REF_SYS)
    assert l00 == 1.0
    l00, l11 = lambda_two_state(TwoStateAmplitudes(a0=0.0, a1=1.0), REF_SYS)
    assert l00 == pytest.approx(r, rel=1e-15)
    assert l11 == 1.0


def test_lambda_two_state_degenerate_is_unity():
    sys_ = TwoStateSystem(e0=1.6, e1=1.6)
    for a0 in (0.0, 0.3, 1.0 / math.sqrt(2.0), 1.0):
        a = TwoStateAmplitudes(a0=a0, a1=math.sqrt(1.0 - a0 * a0))
        l00, l11 = lambda_two_state(a, sys_)
        assert l00 == pytest.approx(1.0, abs=1e-15)
        assert l11 == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# single step


def test_step_definite_state_is_fixed_point():
    out = collapse_step(TwoStateAmplitudes(a0=1.0, a1=0.0), REF_SYS, f=0.3)
    assert (out.a0, out.a1) == (1.0, 0.0)


def test_step_zero_noise_is_exact_fixed_point():
    out = collapse_step(SYM_INIT, REF_SYS, f=0.0)
    assert out.a0 == SYM_INIT.a0 and out.a1 == SYM_INIT.a1


def test_step_degenerate_probabilities_frozen():
    sys_ = TwoStateSystem(e0=1.25, e1=1.25)
    a = SYM_INIT
    for f in (-0.4, 0.05, 0.3):
        out = collapse_step(a, sys_, f)
        assert out.a0**2 == pytest.approx(a.a0**2, abs=1e-12)
        assert out.a1**2 == pytest.approx(a.a1**2, abs=1e-12)


def test_step_preserves_normalization():
    gen = np.random.default_rng(7)
    a = SYM_INIT
    for _ in range(1000):
        a = collapse_step(a, REF_SYS, float(gen.uniform(-0.5, 0.5)))
        assert abs(a.a0**2 + a.a1**2 - 1.0) < 1e-12


def test_definite_states_absorbing():
    # past the threshold the dominant index never flips over 1e3 more steps
    threshold = 0.999
    a = TwoStateAmplitudes(a0=math.sqrt(1.0 - threshold), a1=math.sqrt(threshold))
    gen = np.random.default_rng(5)
    for _ in range(1000):
        a = collapse_step(a, REF_SYS, float(gen.uniform(-DEFAULT_SIGMA_STAR, DEFAULT_SIGMA_STAR)))
        assert a.a1 > a.a0


def test_step_below_floor_snaps_to_the_other_level():
    # an amplitude under the floor is never divided by: the state is definite
    out = collapse_step(TwoStateAmplitudes(a0=0.5 * AMPLITUDE_FLOOR, a1=1.0), REF_SYS, f=0.3)
    assert (out.a0, out.a1) == (0.0, 1.0)
    out = collapse_step(TwoStateAmplitudes(a0=1.0, a1=0.25 * AMPLITUDE_FLOOR), REF_SYS, f=0.0)
    assert (out.a0, out.a1) == (1.0, 0.0)


# Worst distance, in ulp of the exact a0^2, of each route's a0^2 after one
# step with |N| <= 0.25: the ratio map has about ten roundings, the
# two-amplitude form about twenty.
RATIO_STEP_ULP = 8
COLLAPSE_STEP_ULP = 16


def _exact_step_p0(a, sys_, f):
    """a0^2 after the three stages (kick, mix, renormalize) in exact rational
    arithmetic on the given amplitudes, gains and ratio."""
    a0, a1, f, r = Fraction(a.a0), Fraction(a.a1), Fraction(f), Fraction(sys_.r_ratio)
    p0, p1 = a0 * a0, a1 * a1
    l00, l11 = p0 + p1 * r, p1 + p0 / r
    k0 = a0 * (1 - f * Fraction(sys_.kick_gain(0)))
    k1 = a1 * (1 - f * Fraction(sys_.kick_gain(1)))
    b0 = l00 * k0 + (a0 / a1) * (1 - l00) * k1
    b1 = (a1 / a0) * (1 - l11) * k0 + l11 * k1
    return b0 * b0 / (b0 * b0 + b1 * b1)


@pytest.mark.parametrize("e0, e1", [(1.25, 1.75), (1.75, 1.25), (1.0, 1.5), (1.1, 4.0),
                                    (3.0, 3.2)])
def test_ratio_step_agrees_with_collapse_step(e0, e1):
    # one ratio-map step of the engines against the reference two-amplitude
    # step, both against exact arithmetic, over random states and noise
    sys_ = TwoStateSystem(e0=e0, e1=e1)
    g0, g1 = sys_.kick_gain(0), sys_.kick_gain(1)
    coef = collapse._ratio_coefficients(sys_)
    gen = np.random.default_rng(17)
    for a0, n in zip(gen.uniform(0.03, 0.999, 300).tolist(), gen.uniform(-0.25, 0.25, 300)):
        a = TwoStateAmplitudes(a0=a0, a1=math.sqrt(1.0 - a0 * a0))
        f = float(n) / max(g0, g1)
        s = collapse._ratio_step(collapse._initial_ratio(a), f, coef)
        ratio_p0 = 1.0 / (1.0 + s)
        step_p0 = collapse_step(a, sys_, f).a0 ** 2
        exact = _exact_step_p0(a, sys_, f)
        ulp = math.ulp(float(exact))
        assert abs(Fraction(ratio_p0) - exact) <= RATIO_STEP_ULP * ulp
        assert abs(Fraction(step_p0) - exact) <= COLLAPSE_STEP_ULP * ulp
        assert abs(ratio_p0 - step_p0) <= (RATIO_STEP_ULP + COLLAPSE_STEP_ULP) * ulp


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_definite_init_collapses_at_step_zero():
    traj = run_trajectory(TwoStateAmplitudes(a0=1.0, a1=0.0), REF_SYS,
                          uniform_noise(0.3, seed=0), max_steps=10, threshold=0.999)
    assert traj.outcome == 0
    assert traj.steps_to_collapse == 0


def test_trajectory_zero_noise_never_collapses():
    traj = run_trajectory(SYM_INIT, REF_SYS, uniform_noise(0.0, seed=0),
                          max_steps=500, threshold=0.999)
    assert traj.outcome is None
    assert traj.steps_to_collapse is None
    # amplitudes constant through the whole history
    assert np.all(traj.history[:, 1] == SYM_INIT.a0**2)


def test_trajectory_reference_system_terminates():
    traj = run_trajectory(SYM_INIT, REF_SYS, uniform_noise(DEFAULT_SIGMA_STAR, seed=123),
                          max_steps=100_000, threshold=0.999, history_stride=100)
    assert traj.outcome in (0, 1)
    assert traj.steps_to_collapse is not None and traj.steps_to_collapse < 100_000
    # every recorded entry stays normalized
    sums = traj.history[:, 1] + traj.history[:, 2]
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)


def test_trajectory_bit_determinism():
    kwargs = dict(max_steps=5000, threshold=0.999)
    a = run_trajectory(SYM_INIT, REF_SYS, uniform_noise(0.55, seed=77), **kwargs)
    b = run_trajectory(SYM_INIT, REF_SYS, uniform_noise(0.55, seed=77), **kwargs)
    np.testing.assert_array_equal(a.history, b.history)
    assert a.outcome == b.outcome and a.steps_to_collapse == b.steps_to_collapse


def _reference_history(init, sys_, proc, max_steps, threshold):
    """Every step of a trajectory from an explicit loop of ratio-map steps
    over one up-front Philox draw: rows (step, a0^2, a1^2, f)."""
    noise = proc.make_generator().uniform(-proc.sigma, proc.sigma, max_steps)
    coef = collapse._ratio_coefficients(sys_)
    lo, hi = collapse._ratio_bounds(threshold)
    s = collapse._initial_ratio(init)
    rows = [(0, init.a0 * init.a0, init.a1 * init.a1, 0.0)]
    for step, f in enumerate(noise.tolist(), start=1):
        s = collapse._ratio_step(s, f, coef)
        rows.append((step, 1.0 / (1.0 + s), 1.0 / (1.0 + 1.0 / s), f))
        if s <= lo or s >= hi:
            break
    return np.array(rows, dtype=float)


@pytest.mark.parametrize("seed, max_steps", [(5, 100_000), (9, 999), (2**64 - 3, 100_000),
                                             (2**127 + 5, 64), (6, 65)])
def test_trajectory_history_matches_reference_loop_bitwise(seed, max_steps):
    # the noise arrives in growing chunks; no chunk boundary changes a bit
    proc = uniform_noise(DEFAULT_SIGMA_STAR, seed)
    traj = run_trajectory(SYM_INIT, REF_SYS, proc, max_steps, 0.999, history_stride=1)
    ref = _reference_history(SYM_INIT, REF_SYS, proc, max_steps, 0.999)
    assert traj.history.tobytes() == ref.tobytes()
    collapsed = max(ref[-1, 1], ref[-1, 2]) >= 0.999
    assert traj.steps_to_collapse == (int(ref[-1, 0]) if collapsed else None)


@pytest.mark.parametrize("stride", [1, 7, 100, 10**9])
@pytest.mark.parametrize("sigma, seed, max_steps", [(2.2, 3, 100_000), (0.55, 5, 100_000),
                                                    (0.55, 9, 999)])
def test_trajectory_history_keeps_every_stride_row_and_the_last(sigma, seed, max_steps, stride):
    # a strided history is the stride-1 history's step-0 row, its rows at each
    # multiple of the stride and its last row: the collapse, or step max_steps
    # for the unresolved run (seed 9)
    proc = uniform_noise(sigma, seed)
    full = run_trajectory(SYM_INIT, REF_SYS, proc, max_steps, 0.999)
    traj = run_trajectory(SYM_INIT, REF_SYS, proc, max_steps, 0.999, history_stride=stride)
    keep = full.history[:, 0] % stride == 0
    keep[-1] = True
    assert traj.history.tobytes() == full.history[keep].tobytes()
    assert (traj.outcome, traj.steps_to_collapse) == (full.outcome, full.steps_to_collapse)
    assert full.history[-1, 0] == (max_steps if seed == 9 else full.steps_to_collapse)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        run_trajectory(SYM_INIT, REF_SYS, uniform_noise(0.1, 0), max_steps=10, threshold=0.4)
    with pytest.raises(NoiseTooLargeError):
        run_trajectory(SYM_INIT, REF_SYS, uniform_noise(50.0, 0), max_steps=10, threshold=0.9)
    for bad in (dict(max_steps=True), dict(history_stride=True)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            run_trajectory(SYM_INIT, REF_SYS, uniform_noise(0.1, 0),
                           **{"max_steps": 10, "threshold": 0.9, **bad})


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_definite_init():
    report = run_ensemble(TwoStateAmplitudes(a0=1.0, a1=0.0), REF_SYS,
                          uniform_noise(0.3, seed=0), n_runs=50, max_steps=10, threshold=0.999)
    assert report.freq[0] == 1.0
    assert report.counts[0] == 50 and report.unresolved == 0


def test_ensemble_degenerate_never_resolves():
    sys_ = TwoStateSystem(e0=1.5, e1=1.5)
    init = TwoStateAmplitudes(a0=1.0 / math.sqrt(2.0), a1=1.0 / math.sqrt(2.0))
    report = run_ensemble(init, sys_, uniform_noise(0.5, seed=1), n_runs=64,
                          max_steps=2000, threshold=0.999)
    assert report.unresolved == 64
    assert report.counts[0] == 0 and report.counts[1] == 0


def test_ensemble_counts_partition():
    report = run_ensemble(SYM_INIT, REF_SYS, uniform_noise(0.55, seed=5), n_runs=200,
                          max_steps=50_000, threshold=0.999)
    assert report.counts[0] + report.counts[1] + report.unresolved == 200


def _scalar_runs(init, base, n_runs, max_steps, sys=REF_SYS):
    """Outcome and collapse-step arrays (-1 where unresolved) of scalar runs."""
    outcomes, steps = [], []
    for k in range(n_runs):
        traj = run_trajectory(init, sys, dataclasses.replace(base, seed=base.seed + k),
                              max_steps=max_steps, threshold=0.999, history_stride=10**9)
        outcomes.append(-1 if traj.outcome is None else traj.outcome)
        steps.append(-1 if traj.steps_to_collapse is None else traj.steps_to_collapse)
    return np.array(outcomes), np.array(steps)


_REF_BASE = uniform_noise(0.55, seed=900)


@pytest.fixture(scope="module")
def scalar_reference():
    return _scalar_runs(SYM_INIT, _REF_BASE, 16, 50_000)


def _assert_matches_scalar(reference, workers):
    ref_outcome, ref_steps = reference
    outcome, steps = collapse._ensemble_outcomes(SYM_INIT, REF_SYS, _REF_BASE, 16, 50_000,
                                                 0.999, workers)
    np.testing.assert_array_equal(outcome, ref_outcome)
    np.testing.assert_array_equal(steps, ref_steps)
    report = run_ensemble(SYM_INIT, REF_SYS, _REF_BASE, n_runs=16, max_steps=50_000,
                          threshold=0.999, workers=workers)
    assert report.counts[0] == int(np.sum(ref_outcome == 0))
    assert report.counts[1] == int(np.sum(ref_outcome == 1))
    assert report.median_steps == float(np.median(ref_steps[ref_steps >= 0]))


def test_ensemble_matches_scalar_trajectories_bitwise(scalar_reference):
    # trajectory k of the ensemble consumes the stream keyed seed + k; the
    # vectorized lockstep must reproduce scalar runs exactly
    _assert_matches_scalar(scalar_reference, workers=1)


@pytest.mark.parametrize("block_cap", [collapse.ENSEMBLE_BLOCK, 5])
@pytest.mark.parametrize("min_chunk", [1, 7, 1024])
@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_split_matches_scalar_trajectories_bitwise(scalar_reference, monkeypatch,
                                                            workers, min_chunk, block_cap):
    # the same, whatever the chunk length, the block split and the number
    # of worker processes; a chunk is whole Philox blocks of four values, so
    # min_chunk 1, 7 and 1024 give chunks of 4, 8 and 1024
    monkeypatch.setattr(collapse, "_CHUNK", -(-min_chunk // 4) * 4)
    monkeypatch.setattr(collapse, "ENSEMBLE_BLOCK", block_cap)
    _assert_matches_scalar(scalar_reference, workers)


def test_ensemble_refills_only_live_trajectories_once_per_chunk(monkeypatch):
    # each chunk re-keys one row for every trajectory live at its start, and no
    # other: trajectory k is filled at chunk start c exactly when it collapses
    # after step c or not at all.  At sigma 2.2 trajectories collapse within
    # every chunk, whose spans double up to _CHUNK; at sigma 0.55 none does
    # within the first chunk, so the second is _CHUNK long.
    fills = []
    fill = collapse._fill_noise

    def counted(proc, gen, keys, start, out):
        fills.append((start, list(keys), out.shape[1]))
        fill(proc, gen, keys, start, out)

    monkeypatch.setattr(collapse, "_fill_noise", counted)
    for sigma, seed, n_runs, max_steps in ((2.2, 7, 2000, 100_000), (0.55, 8, 500, 5000)):
        fills.clear()
        base = uniform_noise(sigma, seed)
        _, steps = collapse._ensemble_outcomes(SYM_INIT, REF_SYS, base, n_runs, max_steps,
                                               0.999, 1)

        expected, start, span = [], 0, collapse._FIRST_CHUNK
        while start < max_steps:
            span = min(span, max_steps - start)
            live = [base.seed + k for k in range(n_runs) if steps[k] > start or steps[k] == -1]
            if not live:
                break
            expected.append((start, live, span))
            collapsed = any(start < k <= start + span for k in steps)
            start += span
            span = min(2 * span, collapse._CHUNK) if collapsed else collapse._CHUNK
        got = {}
        for start, keys, span in fills:
            assert got.setdefault(start, ([], span))[1] == span
            got[start][0].extend(keys)
        # the rows (keys) and values (rows x span) filled at each chunk start
        assert [(start, keys, span) for start, (keys, span) in sorted(got.items())] == expected
        if sigma == 0.55:
            assert steps.min() > collapse._FIRST_CHUNK
            assert expected[1][0::2] == (collapse._FIRST_CHUNK, collapse._CHUNK)


def test_lockstep_block_stops_at_its_last_collapse(monkeypatch):
    # a block steps in whole row groups and stops with the group of its last
    # collapse.  At sigma 2.2, seed 7, that group ends at step 224, inside the
    # chunk of steps 129..384; a stop that fell on a chunk end would not show.
    calls = []
    step = collapse._ratio_step

    def counted(*args, **kwargs):
        calls.append(None)
        return step(*args, **kwargs)

    monkeypatch.setattr(collapse, "_ratio_step", counted)
    _, steps = collapse._ensemble_outcomes(SYM_INIT, REF_SYS, uniform_noise(2.2, 7), 2000,
                                           100_000, 0.999, 1)
    assert steps.min() > 0  # every trajectory collapses
    assert len(calls) == collapse._ROWS * -(-int(steps.max()) // collapse._ROWS)


def _collapse_step_runs(init, base, n_runs, max_steps, threshold):
    """Outcome and collapse-step arrays (-1 where unresolved) of trajectories
    stepped by the reference collapse_step over generate_noise."""
    outcomes, steps = np.full(n_runs, -1), np.full(n_runs, -1)
    for k in range(n_runs):
        a = init
        noise = generate_noise(dataclasses.replace(base, seed=base.seed + k), max_steps)
        for step, f in enumerate(noise.tolist(), start=1):
            a = collapse_step(a, REF_SYS, f)
            if a.a0 ** 2 >= threshold or a.a1 ** 2 >= threshold:
                outcomes[k], steps[k] = (0 if a.a0 >= a.a1 else 1), step
                break
    return outcomes, steps


# Windows of the (sigma, a0, seed) ensembles used as the engine's reference
# cases; keys 711..726 of the seed-11 ensemble at a0 = 0.9993 include 720,
# which collapses to level 0 while the others reach level 1.
@pytest.mark.parametrize("sigma, a0, seed, n_runs", [(0.55, 0.5, 11, 12), (2.2, 0.5, 7, 64),
                                                     (1.1, 0.9993, 11 + 700, 16)])
def test_ensemble_equals_collapse_step_loop(sigma, a0, seed, n_runs):
    init = TwoStateAmplitudes(a0=a0, a1=math.sqrt(1.0 - a0 * a0))
    base = uniform_noise(sigma, seed)
    outcome, steps = collapse._ensemble_outcomes(init, REF_SYS, base, n_runs, 20_000, 0.999, 1)
    ref_outcome, ref_steps = _collapse_step_runs(init, base, n_runs, 20_000, 0.999)
    np.testing.assert_array_equal(outcome, ref_outcome)
    np.testing.assert_array_equal(steps, ref_steps)
    assert np.all(steps > 0)
    if a0 == 0.9993:
        assert set(outcome.tolist()) == {0, 1}


@pytest.mark.parametrize("threshold", [0.51, 0.999, 0.999999999])
def test_collapse_reports_a_probability_at_the_threshold(threshold):
    # the last history row of a collapsed trajectory reports a probability
    # >= threshold for its outcome, every earlier row both below it; the
    # ensemble reports the same outcome and step
    base = uniform_noise(2.2, seed=41)
    outcome, steps = collapse._ensemble_outcomes(SYM_INIT, REF_SYS, base, 12, 100_000,
                                                 threshold, 1)
    for k in range(12):
        traj = run_trajectory(SYM_INIT, REF_SYS, dataclasses.replace(base, seed=base.seed + k),
                              100_000, threshold)
        probs = traj.history[:, 1:3]
        assert traj.outcome is not None and probs[-1, traj.outcome] >= threshold
        assert np.all(probs[:-1] < threshold)
        assert (outcome[k], steps[k]) == (traj.outcome, traj.steps_to_collapse)


@pytest.mark.parametrize("a0, a1, outcome", [(0.0, math.sqrt(1.0 - 5e-10), 1),
                                              (math.sqrt(1.0 - 5e-10), 1e-10, 0)])
def test_state_past_the_floor_collapses_at_the_first_step(a0, a1, outcome):
    # within the normalization tolerance an amplitude may start below the
    # floor with the other probability short of the threshold: the first
    # step declares the state collapsed
    init = TwoStateAmplitudes(a0=a0, a1=a1)
    threshold = 0.9999999999
    traj = run_trajectory(init, REF_SYS, uniform_noise(0.55, seed=3), 10, threshold)
    assert (traj.outcome, traj.steps_to_collapse) == (outcome, 1)
    assert traj.history[-1, 1 + outcome] >= threshold
    got = collapse._ensemble_outcomes(init, REF_SYS, uniform_noise(0.55, seed=3), 3, 10,
                                      threshold, 1)
    np.testing.assert_array_equal(got, [[outcome] * 3, [1] * 3])


@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_past_threshold_matches_scalar(workers):
    # an initial state already past the threshold collapses at step 0
    init = TwoStateAmplitudes(a0=math.sqrt(0.0005), a1=math.sqrt(0.9995))
    base = uniform_noise(0.55, seed=4)
    outcome, steps = collapse._ensemble_outcomes(init, REF_SYS, base, 6, 100, 0.999, workers)
    ref_outcome, ref_steps = _scalar_runs(init, base, 6, 100)
    np.testing.assert_array_equal(outcome, ref_outcome)
    np.testing.assert_array_equal(steps, ref_steps)
    assert np.all(steps == 0) and np.all(outcome == 1)


@pytest.mark.parametrize("mode", ["uniform", "alternating"])
@pytest.mark.parametrize("p0, expected", [(0.9995, 0), (0.0005, 1)])
def test_ensemble_past_threshold_on_either_level_collapses_at_step_0(mode, p0, expected):
    # the dominant level is the outcome, at step 0, whatever the noise
    init = TwoStateAmplitudes(a0=math.sqrt(p0), a1=math.sqrt(1.0 - p0))
    proc = NoiseProcess(sigma=DEFAULT_SIGMA_STAR, seed=4, mode=mode)
    outcome, steps = collapse._ensemble_outcomes(init, REF_SYS, proc, 5, 100, 0.999, 1)
    assert outcome.tolist() == [expected] * 5 and steps.tolist() == [0] * 5


@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_zero_noise_matches_scalar(workers, monkeypatch):
    # sigma = 0 freezes every trajectory (one run stands for all)
    monkeypatch.setattr(collapse, "ENSEMBLE_BLOCK", 3)
    monkeypatch.setattr(collapse, "_CHUNK", 64)
    base = uniform_noise(0.0, seed=8)
    outcome, steps = collapse._ensemble_outcomes(SYM_INIT, REF_SYS, base, 7, 300, 0.999, workers)
    ref_outcome, ref_steps = _scalar_runs(SYM_INIT, base, 7, 300)
    np.testing.assert_array_equal(outcome, ref_outcome)
    np.testing.assert_array_equal(steps, ref_steps)
    assert np.all(outcome == -1)
    report = run_ensemble(SYM_INIT, REF_SYS, base, 7, 300, 0.999, workers=workers)
    assert report.unresolved == 7 and report.median_steps is None


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("sys, sigma", [(REF_SYS, 0.0),
                                        (TwoStateSystem(e0=1.5, e1=1.5), DEFAULT_SIGMA_STAR)])
def test_ensemble_noise_that_cannot_move_s_runs_one_trajectory(workers, sys, sigma,
                                                               monkeypatch):
    # zero noise, or equal levels (A = B), give phi = 1 exactly: no lockstep block runs
    def no_block(*args):
        raise AssertionError("a lockstep block ran")

    monkeypatch.setattr(collapse, "_ensemble_block", no_block)
    base = uniform_noise(sigma, seed=8)
    outcome, steps = collapse._ensemble_outcomes(SYM_INIT, sys, base, 7, 20_000, 0.999, workers)
    ref_outcome, ref_steps = _scalar_runs(SYM_INIT, base, 7, 20_000, sys)
    np.testing.assert_array_equal(outcome, ref_outcome)
    np.testing.assert_array_equal(steps, ref_steps)
    assert np.all(outcome == -1) and np.all(steps == -1)


def test_ensemble_keys_crossing_64_bits_match_scalar(monkeypatch):
    # Philox keys are 128-bit; the block runner re-keys one generator per row
    monkeypatch.setattr(collapse, "_CHUNK", 64)
    base = uniform_noise(0.55, seed=2**64 - 3)
    outcome, steps = collapse._ensemble_outcomes(SYM_INIT, REF_SYS, base, 6, 20_000, 0.999, 1)
    ref_outcome, ref_steps = _scalar_runs(SYM_INIT, base, 6, 20_000)
    np.testing.assert_array_equal(outcome, ref_outcome)
    np.testing.assert_array_equal(steps, ref_steps)
    assert np.all(steps > 0)


def test_ensemble_rejects_keys_past_128_bits_before_any_work(monkeypatch):
    base = uniform_noise(0.55, seed=2**128 - 10)
    assert run_ensemble(SYM_INIT, REF_SYS, base, n_runs=10, max_steps=5,
                        threshold=0.999).unresolved == 10  # last key 2**128 - 1

    def no_work(*args):
        raise AssertionError("ensemble started")

    monkeypatch.setattr(collapse, "_ensemble_outcomes", no_work)
    with pytest.raises(ValueError, match="seed"):
        run_ensemble(SYM_INIT, REF_SYS, base, n_runs=11, max_steps=5, threshold=0.999)


def test_ensemble_alternating_broadcasts_one_trajectory():
    proc = NoiseProcess(sigma=DEFAULT_SIGMA_STAR, seed=0, mode="alternating")
    traj = run_trajectory(SYM_INIT, REF_SYS, proc, max_steps=100_000, threshold=0.999)
    report = run_ensemble(SYM_INIT, REF_SYS, proc, n_runs=500, max_steps=100_000,
                          threshold=0.999)
    assert traj.outcome is not None
    assert report.counts[traj.outcome] == 500 and report.unresolved == 0
    assert report.median_steps == float(traj.steps_to_collapse)
    short = run_ensemble(SYM_INIT, REF_SYS, proc, n_runs=500, max_steps=10, threshold=0.999)
    assert short.unresolved == 500 and short.median_steps is None


def test_worker_count_caps_without_starting_processes():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert worker_count(10**6, 10**6) == cpus
    assert worker_count(10**6, 1) == 1
    assert worker_count(1, 10**6) == 1
    for bad in (0, -3, True):
        with pytest.raises(ValueError):
            worker_count(bad, 4)


@pytest.mark.parametrize("n_runs, workers", [(1, 1), (7, 2), (10_000, 2), (40_000, 2),
                                             (50_000, 1), (3, 8)])
def test_ensemble_blocks_partition_runs(n_runs, workers):
    blocks = collapse._ensemble_blocks(n_runs, workers)
    assert blocks[0][0] == 0
    assert all(k0 + w == nxt for (k0, w), (nxt, _) in zip(blocks, blocks[1:]))
    assert sum(w for _, w in blocks) == n_runs
    assert all(1 <= w <= collapse.ENSEMBLE_BLOCK for _, w in blocks)
    assert max(w for _, w in blocks) - min(w for _, w in blocks) <= 1
    assert len(blocks) % workers == 0 or len(blocks) == n_runs


def test_ensemble_single_worker_starts_no_pool(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a single worker must run in-process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(collapse, "ENSEMBLE_BLOCK", 4)
    report = run_ensemble(SYM_INIT, REF_SYS, uniform_noise(0.55, seed=3), n_runs=10,
                          max_steps=200, threshold=0.999, workers=1)
    assert report.n_runs == 10


def test_ensemble_rerun_identical():
    base = uniform_noise(0.55, seed=31)
    r1 = run_ensemble(SYM_INIT, REF_SYS, base, 64, 50_000, 0.999)
    r2 = run_ensemble(SYM_INIT, REF_SYS, base, 64, 50_000, 0.999)
    assert r1 == r2


def test_ensemble_median_steps_monotone_in_sigma():
    medians = []
    for sigma in (DEFAULT_SIGMA_STAR, 2 * DEFAULT_SIGMA_STAR, 4 * DEFAULT_SIGMA_STAR):
        report = run_ensemble(SYM_INIT, REF_SYS, uniform_noise(sigma, seed=2024),
                              n_runs=200, max_steps=100_000, threshold=0.999)
        assert report.unresolved == 0
        medians.append(report.median_steps)
    assert medians[0] >= medians[1] >= medians[2]


# ---------------------------------------------------------------------------
# Wilson interval


def test_wilson_interval_against_scipy():
    for k, n in ((8, 10), (75, 100), (0, 20), (20, 20)):
        lo, hi = wilson_interval(k, n)
        ref = scipy.stats.binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
        assert lo == pytest.approx(ref.low, abs=1e-12)
        assert hi == pytest.approx(ref.high, abs=1e-12)


def test_wilson_interval_needs_a_trial():
    with pytest.raises(ValueError, match="at least one trial"):
        wilson_interval(0, 0)


# ---------------------------------------------------------------------------
# general mixing matrix (oracle for the linear model)


def _mode_pair(grid, f, k0=4, k1=12):
    phi0, phi1 = plane_wave(grid, k0), plane_wave(grid, k1)
    e0 = dispersion(2.0 * np.pi * k0 / grid.length, f)
    e1 = dispersion(2.0 * np.pi * k1 / grid.length, f)
    return phi0, phi1, e0, e1


def test_lambda_general_eigenmode_is_identity_on_span():
    grid = SpatialGrid(n=64, length=32.0)
    f = FieldConfig.free(1.0, grid)
    phi0, phi1, e0, e1 = _mode_pair(grid, f)
    lam = lambda_general(phi0, [phi0, phi1], [e0, e1], f)
    # RR = R_0 everywhere, so lambda_nm = (R_0 / R_m) delta_nm
    assert lam[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert abs(lam[0, 1]) < 1e-12 and abs(lam[1, 0]) < 1e-12
    r_sym0 = e0 / math.sqrt(1.0 + e0)
    r_sym1 = e1 / math.sqrt(1.0 + e1)
    assert lam[1, 1] == pytest.approx(r_sym0 / r_sym1, rel=1e-12)


def test_lambda_general_degenerate_mix_is_identity():
    # +k and -k share the dispersion; a generic relative phase keeps the
    # state's nodes off the grid points
    grid = SpatialGrid(n=64, length=32.0)
    f = FieldConfig.free(1.0, grid)
    phi_p, phi_m = plane_wave(grid, 4), plane_wave(grid, -4)
    e = dispersion(2.0 * np.pi * 4 / grid.length, f)
    mix = WaveFunction(grid=grid,
                       values=(phi_p.values + np.exp(0.7j) * phi_m.values) / math.sqrt(2.0))
    lam = lambda_general(mix, [phi_p, phi_m], [e, e], f)
    np.testing.assert_allclose(lam, np.eye(2), atol=1e-10)


def test_lambda_general_identity_action_on_own_state():
    # RR(x) R^-1 psi = psi by construction, so lambda applied to the state's
    # own amplitudes returns them exactly
    grid = SpatialGrid(n=64, length=32.0)
    f = FieldConfig.free(1.0, grid)
    phi0, phi1, e0, e1 = _mode_pair(grid, f)
    for a0 in (0.3, 1.0 / math.sqrt(2.0), 0.9):
        a1 = math.sqrt(1.0 - a0 * a0)
        psi = WaveFunction(grid=grid, values=a0 * phi0.values + a1 * phi1.values)
        lam = lambda_general(psi, [phi0, phi1], [e0, e1], f)
        out = lam @ np.array([a0, a1])
        np.testing.assert_allclose(out, [a0, a1], atol=1e-10)


def test_lambda_general_superposition_vs_linear_model():
    # the linear model is exact at the pure-state endpoints and tracks the
    # defining formula's action on kicked states within 0.2|f| in probability
    grid = SpatialGrid(n=64, length=32.0)
    f = FieldConfig.free(1.0, grid)
    phi0, phi1, e0, e1 = _mode_pair(grid, f)
    sys_ = TwoStateSystem(e0=e0, e1=e1)
    f_noise = 0.01
    for a0 in (0.5, 1.0 / math.sqrt(2.0), 0.9):
        a1 = math.sqrt(1.0 - a0 * a0)
        psi = WaveFunction(grid=grid, values=a0 * phi0.values + a1 * phi1.values)
        lam = lambda_general(psi, [phi0, phi1], [e0, e1], f)
        assert abs(lam[1, 0]) > 1e-3  # mixing is genuinely nonlocal across levels
        kicked = np.array([a0 * (1.0 - f_noise * sys_.kick_gain(0)),
                           a1 * (1.0 - f_noise * sys_.kick_gain(1))])
        general = lam @ kicked
        general = np.abs(general) / np.linalg.norm(general)
        stepped = collapse_step(TwoStateAmplitudes(a0=a0, a1=a1), sys_, f_noise)
        model = np.array([stepped.a0, stepped.a1])
        assert np.max(np.abs(general - model)) < 0.2 * f_noise


def test_lambda_general_rejects_bad_basis():
    grid = SpatialGrid(n=64, length=32.0)
    f = FieldConfig.free(1.0, grid)
    phi0, phi1, e0, e1 = _mode_pair(grid, f)
    with pytest.raises(ValueError):
        lambda_general(phi0, [phi0, phi0], [e0, e1], f)  # not orthonormal
    with pytest.raises(ValueError, match="one energy per basis mode"):
        lambda_general(phi0, [phi0, phi1], [e0, e1, e1], f)


def test_lambda_general_warns_of_excluded_mass():
    # psi = q0 phi0 - q1 phi1 with q_m = E_m / sqrt(1 + E_m), the symbol of R
    # up to a common factor: R^-1 psi = phi0 - phi1 vanishes on the grid
    # points x = 4j, where psi itself carries (q0 - q1)^2 / L of density
    grid = SpatialGrid(n=64, length=32.0)
    f = FieldConfig.free(1.0, grid)
    phi0, phi1, e0, e1 = _mode_pair(grid, f)
    q0, q1 = e0 / math.sqrt(1.0 + e0), e1 / math.sqrt(1.0 + e1)
    psi = WaveFunction(grid=grid, values=(q0 * phi0.values - q1 * phi1.values)
                       / math.hypot(q0, q1))
    with pytest.warns(RuntimeWarning, match="excluded 8 near-zero denominator nodes"):
        lam = lambda_general(psi, [phi0, phi1], [e0, e1], f)
    assert np.all(np.isfinite(lam))
