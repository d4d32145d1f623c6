"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here, not configurable.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from relqlab import cli
from relqlab.abexp import DEFAULT_B1_STAR, simulate_ab, two_state_for_paths
from relqlab.collapse import (
    DEFAULT_SIGMA_STAR,
    NoiseProcess,
    TwoStateAmplitudes,
    TwoStateSystem,
    collapse_step,
    run_ensemble,
    run_trajectory,
)
from relqlab.evolution import (
    FieldConfig,
    SpatialGrid,
    density_flux_report,
    evolve,
    gaussian_packet,
    klein_gordon_residual,
    plane_wave,
    plane_wave_identity_check,
    schrodinger_overlap,
)
from relqlab.pathweight import (
    PhysicalScale,
    equal_time_kernel_profile,
    short_time_closed_form,
    short_time_plane_wave,
)
from relqlab.specfun import MomentQuery, kernel_moment_closed, kernel_moment_contour

REF_SYS = TwoStateSystem(e0=1.25, e1=1.75)
SYM_INIT = TwoStateAmplitudes(a0=0.5, a1=math.sqrt(3.0) / 2.0)


def report(number, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail}; {elapsed:.2f}s / budget {budget}s)")


def finish(number, name, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    report(number, name, ok, detail, elapsed, budget)
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_01_kernel_moment_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(6):
        for eps0 in (0.1, 0.5, 1.0, 5.0):
            q = MomentQuery(n=n, eps0=eps0)
            closed = kernel_moment_closed(q)
            contour = kernel_moment_contour(q)
            worst = max(worst, abs(closed - contour) / abs(closed))
    finish(1, "kernel-moment closed vs contour", worst < 1e-8,
           f"worst rel err {worst:.2e} < 1e-8", t0, 10)


def test_criterion_02_plane_wave_normalization_identity():
    t0 = time.perf_counter()
    worst = max(plane_wave_identity_check(p, 1.0) for p in np.linspace(0.0, 10.0, 100))
    finish(2, "whole-weight normalization identity", worst < 1e-12,
           f"worst |value - 1| = {worst:.2e} < 1e-12 over 100 momenta in [0, 10m]", t0, 1)


def test_criterion_03_short_time_quadrature_vs_closed_form():
    t0 = time.perf_counter()
    scale = PhysicalScale(mass=1.0)
    worst = 0.0
    for ptau in (0.0, 0.75, 1.44):
        for eps0 in (0.1, 1.0):
            got = short_time_plane_wave(ptau, eps0, scale)
            target = short_time_closed_form(ptau, eps0, scale)
            worst = max(worst, abs(got - target) / abs(target))
    finish(3, "short-time quadrature vs closed form", worst < 1e-6,
           f"worst rel err {worst:.2e} < 1e-6 at p/m in {{0, 0.75, 1.44}}", t0, 30)


def test_criterion_04_unitarity_and_semigroup():
    t0 = time.perf_counter()
    grid = SpatialGrid(n=1024, length=200.0)
    v = 0.5 * np.cos(2.0 * np.pi * grid.x / grid.length)
    f = FieldConfig(a0=0.0, v_samples=v, mass=1.0)
    psi = gaussian_packet(grid, -20.0, 8.0, 0.4)

    drift = abs(evolve(psi, f, 0.05, 1000).norm() - psi.norm()) / psi.norm()

    free = FieldConfig.free(1.0, grid)
    a = evolve(psi, free, 0.05, 2)
    b = evolve(psi, free, 0.10, 1)
    comp = math.sqrt(float(np.sum(np.abs(a.values - b.values) ** 2) * grid.dx))

    ref = evolve(psi, f, 2.0 / 2048, 2048)

    def err(dt):
        got = evolve(psi, f, dt, int(round(2.0 / dt)))
        return math.sqrt(float(np.sum(np.abs(got.values - ref.values) ** 2) * grid.dx))

    ratio = err(0.1) / err(0.05)
    ok = drift < 1e-12 and comp < 1e-10 and 3.7 < ratio < 4.3
    finish(4, "unitarity / semigroup / Strang order", ok,
           f"norm drift {drift:.2e}, composition {comp:.2e}, Richardson ratio {ratio:.3f}",
           t0, 10)


def test_criterion_05_schrodinger_limit():
    t0 = time.perf_counter()
    grid = SpatialGrid(n=1024, length=4000.0)
    f = FieldConfig.free(1.0, grid)
    psi = gaussian_packet(grid, 0.0, 250.0, 0.01)  # support |p| < 0.02 m
    overlap = schrodinger_overlap(psi, f, 10.0)
    finish(5, "nonrelativistic-limit overlap", overlap > 0.9999,
           f"overlap {overlap:.6f} > 0.9999 at t = 10/m", t0, 5)


def test_criterion_06_relativistic_group_velocity():
    t0 = time.perf_counter()
    grid = SpatialGrid(n=1024, length=200.0)
    f = FieldConfig.free(1.0, grid)
    psi = gaussian_packet(grid, -40.0, 10.0, 0.5)
    out = evolve(psi, f, 0.05, 400)
    vg = (out.centroid() - psi.centroid()) / 20.0
    target = 0.5 / math.sqrt(1.25)
    rel = abs(vg - target) / target
    finish(6, "relativistic group velocity", rel < 0.01,
           f"measured {vg:.5f} vs p0/E = {target:.5f} (rel {rel:.2e})", t0, 5)


def test_criterion_07_density_flux():
    t0 = time.perf_counter()
    grid = SpatialGrid(n=512, length=512.0 * math.pi)
    f = FieldConfig.free(1.0, grid)
    pw_res = density_flux_report(plane_wave(grid, 30), f, n_trunc=5).residual_l2[-1]
    psi = gaussian_packet(grid, 0.0, 62.5, 0.05)
    residuals = density_flux_report(psi, f, n_trunc=4).residual_l2.tolist()
    decreasing = all(b < a for a, b in zip(residuals, residuals[1:]))
    ok = pw_res < 1e-12 and decreasing
    chain = " > ".join(f"{r:.2e}" for r in residuals)
    finish(7, "density-flux series", ok,
           f"plane-wave residual {pw_res:.2e} < 1e-12; gaussian chain {chain}", t0, 30)


def test_criterion_08_klein_gordon_residual():
    t0 = time.perf_counter()
    grid = SpatialGrid(n=64, length=64.0)
    worst = 0.0
    for p in (0.0, 0.75):
        for v in (0.0, 0.2):
            f = FieldConfig(a0=0.0, v_samples=np.full(grid.n, v), mass=1.0)
            for sign in (+1, -1):
                worst = max(worst, klein_gordon_residual(p, sign, f))
    finish(8, "Klein-Gordon plane-wave residual", worst < 1e-10,
           f"worst residual {worst:.2e} < 1e-10", t0, 1)


def test_criterion_09_equal_time_kernel_nonlocality():
    t0 = time.perf_counter()
    m = 1.0
    scale = PhysicalScale(mass=m)
    etas = np.linspace(0.1, 5.0, 50) / m
    logs = np.array([math.log(abs(equal_time_kernel_profile(e, 0.0, scale)) * math.sqrt(e))
                     for e in etas])
    slope = np.polyfit(etas, logs, 1)[0]
    rel = abs(slope + m) / m
    finish(9, "equal-time kernel Compton decay", rel < 1e-6,
           f"decay slope {slope:.9f} vs -m (rel {rel:.2e})", t0, 1)


def _collapse_invariants():
    """Absorption, zero-noise freeze, degeneracy freeze, per-step normalization."""
    gen = np.random.default_rng(99)
    a = TwoStateAmplitudes(a0=math.sqrt(1.0 - 0.999), a1=math.sqrt(0.999))
    absorbed = True
    for _ in range(1000):
        a = collapse_step(a, REF_SYS, float(gen.uniform(-DEFAULT_SIGMA_STAR, DEFAULT_SIGMA_STAR)))
        absorbed &= a.a1 > a.a0

    traj = run_trajectory(SYM_INIT, REF_SYS,
                          NoiseProcess(delta=1.0, sigma=0.0, seed=0), 1000, 0.999)
    frozen = traj.outcome is None and np.all(traj.history[:, 1] == SYM_INIT.a0**2)

    degenerate = TwoStateSystem(e0=1.25, e1=1.25)
    a = SYM_INIT
    deg_ok = True
    for _ in range(1000):
        a = collapse_step(a, degenerate, float(gen.uniform(-0.5, 0.5)))
        deg_ok &= abs(a.a0**2 - SYM_INIT.a0**2) < 1e-12

    a = SYM_INIT
    norm_ok = True
    for _ in range(1000):
        a = collapse_step(a, REF_SYS, float(gen.uniform(-0.5, 0.5)))
        norm_ok &= abs(a.a0**2 + a.a1**2 - 1.0) < 1e-12
    return absorbed, frozen, deg_ok, norm_ok


def test_criterion_10_collapse_invariants():
    t0 = time.perf_counter()
    absorbed, frozen, deg_ok, norm_ok = _collapse_invariants()
    ok = absorbed and frozen and deg_ok and norm_ok
    finish(10, "collapse invariants", ok,
           f"absorption={absorbed}, zero-noise freeze={frozen}, "
           f"degeneracy freeze={deg_ok}, normalization={norm_ok}", t0, 5)


def test_criterion_11_collapse_termination_scaled():
    t0 = time.perf_counter()
    base = NoiseProcess(delta=1.0, sigma=DEFAULT_SIGMA_STAR, seed=4000)
    rep = run_ensemble(SYM_INIT, REF_SYS, base, n_runs=1000, max_steps=100_000,
                       threshold=0.999)
    resolved_frac = 1.0 - rep.unresolved / rep.n_runs

    medians = []
    for sigma in (DEFAULT_SIGMA_STAR, 2 * DEFAULT_SIGMA_STAR, 4 * DEFAULT_SIGMA_STAR):
        proc = NoiseProcess(delta=1.0, sigma=sigma, seed=5000)
        medians.append(run_ensemble(SYM_INIT, REF_SYS, proc, n_runs=200,
                                    max_steps=100_000, threshold=0.999).median_steps)
    monotone = medians[0] >= medians[1] >= medians[2]
    ok = resolved_frac >= 0.99 and monotone
    finish(11, "collapse termination (scaled)", ok,
           f"resolved {resolved_frac:.1%} of 1000 within 1e5 steps; "
           f"medians {medians[0]:.0f} >= {medians[1]:.0f} >= {medians[2]:.0f}", t0, 60)


def test_criterion_12_born_ratio_measurement():
    t0 = time.perf_counter()
    base = NoiseProcess(delta=1.0, sigma=DEFAULT_SIGMA_STAR, seed=12345)
    rep = run_ensemble(SYM_INIT, REF_SYS, base, n_runs=10_000, max_steps=100_000,
                       threshold=0.999)
    freq1 = rep.freq[1]
    lo, hi = rep.wilson_ci95[1]
    born_target = SYM_INIT.a1**2  # 0.75
    born_ok = abs(freq1 - born_target) < 0.05
    invariants_ok = all(_collapse_invariants())
    # the measured frequency and its interval ARE the harness's finding;
    # a Born-ratio miss passes as a documented discrepancy of the model
    finding = {
        "freq_outcome_1": freq1,
        "wilson_ci95": [lo, hi],
        "born_target": born_target,
        "born_claim_reproduced": born_ok,
        "counts": rep.counts,
        "unresolved": rep.unresolved,
    }
    print("BORN-RATIO FINDING:", json.dumps(finding, sort_keys=True))
    ok = born_ok or invariants_ok
    finish(12, "Born-ratio measurement", ok,
           f"freq(1) = {freq1:.4f} CI [{lo:.4f}, {hi:.4f}] vs a1^2 = {born_target}; "
           f"claim reproduced: {born_ok}; invariants hold: {invariants_ok}", t0, 300)


def test_criterion_13_ab_prediction():
    t0 = time.perf_counter()
    from relqlab.abexp import ABConfig, _envelope

    sys_ = two_state_for_paths(1.0, 0.25)
    quiet = simulate_ab(ABConfig(flux=0.0, b1_amp=0.0, segments=6000, screen_points=257), sys_)
    noisy = simulate_ab(ABConfig(flux=0.0, b1_amp=DEFAULT_B1_STAR, segments=6000,
                                 screen_points=257), sys_)
    pi_shift = simulate_ab(ABConfig(flux=math.pi, b1_amp=0.0, segments=6000,
                                    screen_points=257), sys_)
    env = _envelope(quiet.positions)
    complementary = np.allclose(pi_shift.intensity / env, 2.0 - quiet.intensity / env,
                                atol=1e-10)
    mid = len(quiet.positions) // 2
    swapped = quiet.intensity[mid] > 1.9 * env[mid] and pi_shift.intensity[mid] < 1e-10
    ok = (quiet.visibility > 0.9 and noisy.visibility < 0.2
          and noisy.collapsed_fraction > 0.8 and complementary and swapped)
    finish(13, "two-path interference destruction", ok,
           f"quiet visibility {quiet.visibility:.3f} > 0.9; noisy visibility "
           f"{noisy.visibility:.3f} < 0.2 with collapsed fraction "
           f"{noisy.collapsed_fraction:.2f} > 0.8; flux-pi half-fringe shift: {swapped}",
           t0, 120)


def test_criterion_14_determinism(tmp_path):
    t0 = time.perf_counter()

    def payloads(outdir):
        return {p.name: p.read_bytes() for p in sorted(Path(outdir).iterdir())
                if p.name != "manifest.json"}

    identical = True
    for args, sub in (
        (["ensemble", "--n-runs", "50", "--max-steps", "20000", "--seed", "21"], "ensemble"),
        (["evolve", "--steps", "50", "--snapshot-stride", "25", "--grid-n", "256",
          "--length", "100", "--seed", "21"], "evolve"),
        (["collapse", "--max-steps", "3000", "--seed", "21"], "collapse"),
    ):
        a, b = tmp_path / (sub + "_a"), tmp_path / (sub + "_b")
        assert cli.main([*args, "--out", str(a)]) == 0
        assert cli.main([*args, "--out", str(b)]) == 0
        identical &= payloads(a) == payloads(b)
    finish(14, "seeded rerun byte-identity", identical,
           "ensemble/evolve/collapse payloads byte-identical across reruns", t0, 60)
