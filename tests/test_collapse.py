"""Collapse recursion: fixed points, freezes, termination, ensembles,
determinism, and the general mixing-matrix oracle."""

import math
import os

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
    collapse_step,
    generate_noise,
    lambda_general,
    lambda_two_state,
    noise_kick,
    run_ensemble,
    run_trajectory,
    wilson_interval,
    worker_count,
)
from relqlab.evolution import FieldConfig, SpatialGrid, WaveFunction, dispersion, plane_wave

REF_SYS = TwoStateSystem(e0=1.25, e1=1.75)
SYM_INIT = TwoStateAmplitudes(a0=0.5, a1=math.sqrt(3.0) / 2.0)


def uniform_noise(sigma, seed, delta=1.0):
    return NoiseProcess(delta=delta, sigma=sigma, seed=seed, mode="uniform")


# ---------------------------------------------------------------------------
# types


def test_two_state_system_derived_quantities():
    assert REF_SYS.p0 == pytest.approx(0.75, rel=1e-15)
    assert REF_SYS.p1 == pytest.approx(math.sqrt(1.75**2 - 1.0), rel=1e-15)
    expected_r = (1.75 / 1.25) * math.sqrt(2.25 / 2.75)
    assert REF_SYS.r_ratio == pytest.approx(expected_r, rel=1e-15)
    assert TwoStateSystem(e0=1.4, e1=1.4).r_ratio == 1.0
    with pytest.raises(ValueError):
        TwoStateSystem(e0=0.9, e1=1.2)


def test_amplitudes_validation():
    with pytest.raises(ValueError):
        TwoStateAmplitudes(a0=0.9, a1=0.9)
    with pytest.raises(ValueError):
        TwoStateAmplitudes(a0=-0.5, a1=math.sqrt(0.75))


def test_noise_process_validation():
    with pytest.raises(ValueError):
        NoiseProcess(delta=0.0, sigma=1.0, seed=0)
    with pytest.raises(ValueError):
        NoiseProcess(delta=1.0, sigma=-1.0, seed=0)
    with pytest.raises(ValueError):
        NoiseProcess(delta=1.0, sigma=1.0, seed=0, mode="pink")


# ---------------------------------------------------------------------------
# noise generation


def test_noise_zero_sigma_is_zero():
    proc = uniform_noise(0.0, seed=3)
    assert np.all(generate_noise(proc, 100) == 0.0)


def test_noise_alternating_sequence():
    proc = NoiseProcess(delta=1.0, sigma=1.0, seed=0, mode="alternating")
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


# ---------------------------------------------------------------------------
# kick


def test_kick_zero_noise_identity():
    assert noise_kick(REF_SYS, 0.7, 0, 0.0) == 0.7


def test_kick_reference_value():
    # N = f p (2 + e) / (2 e^2 (1 + e)) evaluated independently
    f = 0.01
    n_expected = f * 0.75 * (2.0 + 1.25) / (2.0 * 1.25**2 * (1.0 + 1.25))
    assert n_expected == pytest.approx(3.4667e-3, rel=1e-4)
    assert noise_kick(REF_SYS, 1.0, 0, f) == pytest.approx(1.0 - n_expected, rel=1e-14)


def test_kick_rest_level_immune():
    sys_ = TwoStateSystem(e0=1.0, e1=1.5)
    assert noise_kick(sys_, 0.4, 0, 123.0) == 0.4  # p = 0 at e = 1


def test_kick_too_large_rejected():
    with pytest.raises(NoiseTooLargeError):
        noise_kick(REF_SYS, 0.5, 0, 5.0)


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


def test_trajectory_validation():
    with pytest.raises(ValueError):
        run_trajectory(SYM_INIT, REF_SYS, uniform_noise(0.1, 0), max_steps=10, threshold=0.4)
    with pytest.raises(NoiseTooLargeError):
        run_trajectory(SYM_INIT, REF_SYS, uniform_noise(50.0, 0), max_steps=10, threshold=0.9)


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


def _scalar_runs(init, base, n_runs, max_steps):
    """Outcome and collapse-step arrays (-1 where unresolved) of scalar runs."""
    outcomes, steps = [], []
    for k in range(n_runs):
        traj = run_trajectory(init, REF_SYS, base.with_seed(base.seed + k),
                              max_steps=max_steps, threshold=0.999, history_stride=10**9)
        outcomes.append(-1 if traj.outcome is None else traj.outcome)
        steps.append(-1 if traj.steps_to_collapse is None else traj.steps_to_collapse)
    return np.array(outcomes), np.array(steps)


_REF_BASE = uniform_noise(0.55, seed=900)


@pytest.fixture(scope="module")
def scalar_reference():
    return _scalar_runs(SYM_INIT, _REF_BASE, 16, 50_000)


def _assert_matches_scalar(reference, workers, chunk):
    ref_outcome, ref_steps = reference
    outcome, steps = collapse._ensemble_outcomes(SYM_INIT, REF_SYS, _REF_BASE, 16, 50_000,
                                                 0.999, chunk, workers)
    np.testing.assert_array_equal(outcome, ref_outcome)
    np.testing.assert_array_equal(steps, ref_steps)
    report = run_ensemble(SYM_INIT, REF_SYS, _REF_BASE, n_runs=16, max_steps=50_000,
                          threshold=0.999, chunk=chunk, workers=workers)
    assert report.counts[0] == int(np.sum(ref_outcome == 0))
    assert report.counts[1] == int(np.sum(ref_outcome == 1))
    assert report.median_steps == float(np.median(ref_steps[ref_steps >= 0]))


def test_ensemble_matches_scalar_trajectories_bitwise(scalar_reference):
    # trajectory k of the ensemble consumes the stream keyed seed + k; the
    # vectorized lockstep must reproduce scalar runs exactly
    _assert_matches_scalar(scalar_reference, workers=1, chunk=1024)


@pytest.mark.parametrize("block_cap", [collapse.ENSEMBLE_BLOCK, 5])
@pytest.mark.parametrize("chunk", [1, 7, 1024])
@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_split_matches_scalar_trajectories_bitwise(scalar_reference, monkeypatch,
                                                            workers, chunk, block_cap):
    # the same, whatever the chunk length, the block split and the number
    # of worker processes
    monkeypatch.setattr(collapse, "ENSEMBLE_BLOCK", block_cap)
    _assert_matches_scalar(scalar_reference, workers, chunk)


@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_past_threshold_matches_scalar(workers):
    # an initial state already past the threshold collapses at step 0
    init = TwoStateAmplitudes(a0=math.sqrt(0.0005), a1=math.sqrt(0.9995))
    base = uniform_noise(0.55, seed=4)
    outcome, steps = collapse._ensemble_outcomes(init, REF_SYS, base, 6, 100, 0.999, 7, workers)
    ref_outcome, ref_steps = _scalar_runs(init, base, 6, 100)
    np.testing.assert_array_equal(outcome, ref_outcome)
    np.testing.assert_array_equal(steps, ref_steps)
    assert np.all(steps == 0) and np.all(outcome == 1)


@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_zero_noise_matches_scalar(workers, monkeypatch):
    # sigma = 0 freezes every trajectory (the masked kernel route)
    monkeypatch.setattr(collapse, "ENSEMBLE_BLOCK", 3)
    base = uniform_noise(0.0, seed=8)
    outcome, steps = collapse._ensemble_outcomes(SYM_INIT, REF_SYS, base, 7, 300, 0.999, 64,
                                                 workers)
    ref_outcome, ref_steps = _scalar_runs(SYM_INIT, base, 7, 300)
    np.testing.assert_array_equal(outcome, ref_outcome)
    np.testing.assert_array_equal(steps, ref_steps)
    assert np.all(outcome == -1)
    report = run_ensemble(SYM_INIT, REF_SYS, base, 7, 300, 0.999, workers=workers)
    assert report.unresolved == 7 and report.median_steps is None


def test_ensemble_keys_crossing_64_bits_match_scalar():
    # Philox keys are 128-bit; the block runner re-keys one generator per row
    base = uniform_noise(0.55, seed=2**64 - 3)
    outcome, steps = collapse._ensemble_outcomes(SYM_INIT, REF_SYS, base, 6, 20_000, 0.999,
                                                 64, 1)
    ref_outcome, ref_steps = _scalar_runs(SYM_INIT, base, 6, 20_000)
    np.testing.assert_array_equal(outcome, ref_outcome)
    np.testing.assert_array_equal(steps, ref_steps)
    assert np.all(steps > 0)


def test_ensemble_alternating_broadcasts_one_trajectory():
    proc = NoiseProcess(delta=1.0, sigma=DEFAULT_SIGMA_STAR, seed=0, mode="alternating")
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
    for bad in (0, -3):
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


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def test_step_kernel_batch_equals_elementwise_bitwise():
    # snapped, frozen and ordinary elements in one batch take the masked
    # route; each element alone (ordinary ones take the unmasked route) must
    # give the same bits, and so must the ordinary elements as a batch
    gen = np.random.default_rng(12)
    a0 = gen.uniform(0.05, 0.95, 12)
    a0[[0, 5]] = [0.5 * AMPLITUDE_FLOOR, 1.0]  # level 0 gone / definite level 0
    a1 = np.sqrt(1.0 - a0 * a0)
    a1[5] = 0.25 * AMPLITUDE_FLOOR
    f = gen.uniform(-0.5, 0.5, 12)
    f[[3, 8]] = 0.0  # zero-noise freezes
    g0, g1 = REF_SYS.kick_gain(0), REF_SYS.kick_gain(1)
    n0, n1 = f * g0, f * g1
    r = np.float64(REF_SYS.r_ratio)
    b0, b1 = collapse._step_kernel(a0, a1, n0, n1, r)
    for i in range(a0.size):
        s0, s1 = collapse._step_kernel(a0[i], a1[i], n0[i], n1[i], r)
        w0, w1 = collapse._step_kernel(a0[i:i + 1], a1[i:i + 1], n0[i:i + 1], n1[i:i + 1], r)
        assert _bits(s0) == _bits(w0) == _bits(b0[i])
        assert _bits(s1) == _bits(w1) == _bits(b1[i])
    assert (b0[0], b1[0]) == (0.0, 1.0) and (b0[5], b1[5]) == (1.0, 0.0)
    assert (b0[3], b1[3]) == (a0[3], a1[3])
    plain = np.setdiff1d(np.arange(a0.size), [0, 3, 5, 8])
    p0, p1 = collapse._step_kernel(a0[plain], a1[plain], n0[plain], n1[plain], r)
    assert _bits(p0) == _bits(b0[plain]) and _bits(p1) == _bits(b1[plain])


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
        kicked = np.array([noise_kick(sys_, a0, 0, f_noise), noise_kick(sys_, a1, 1, f_noise)])
        general = lam @ kicked
        general = np.abs(general) / np.linalg.norm(general)
        stepped = collapse_step(TwoStateAmplitudes(a0=a0, a1=a1), sys_, f_noise)
        model = np.array([stepped.a0, stepped.a1])
        assert np.max(np.abs(general - model)) < 0.2 * f_noise


def test_lambda_general_rejects_bad_basis():
    grid = SpatialGrid(n=64, length=32.0)
    f = FieldConfig.free(1.0, grid)
    phi0, _, e0, e1 = _mode_pair(grid, f)
    with pytest.raises(ValueError):
        lambda_general(phi0, [phi0, phi0], [e0, e1], f)  # not orthonormal
