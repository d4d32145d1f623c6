"""Two-path interference harness: phases, the alternating field the engine
applies, visibility, and the collapse-driven interference destruction."""

import math

import numpy as np
import pytest

from relqlab import abexp
from relqlab.abexp import (
    ABConfig,
    DEFAULT_B1_STAR,
    EnvelopeOnlyPatternError,
    ab_phase,
    fringe_visibility,
    simulate_ab,
    two_state_for_paths,
)
from relqlab.collapse import NoiseTooLargeError, generate_noise
from reference import step_kernel

BEAM = dict(p_beam=1.0, a0_main=0.25)


def make_config(**overrides):
    params = dict(flux=0.0, b1_amp=0.0, segments=6000, screen_points=256)
    params.update(overrides)
    return ABConfig(**params)


# ---------------------------------------------------------------------------
# phase and field


def test_ab_phase_values():
    assert ab_phase(0.0) == 0.0
    assert ab_phase(math.pi) == -math.pi


def _applied_field(cfg, monkeypatch):
    """The noise process simulate_ab hands to the collapse loop for cfg."""
    seen = []

    def spy(init, sys_, proc, *rest):
        seen.append(proc)
        return trajectory(init, sys_, proc, *rest)

    trajectory = abexp.run_trajectory
    monkeypatch.setattr(abexp, "run_trajectory", spy)
    simulate_ab(cfg, two_state_for_paths(**BEAM))
    assert len(seen) == 1 and seen[0].mode == "alternating"
    return seen[0]


def test_alternating_field_segments(monkeypatch):
    # segment n carries (-1)^n b1_amp, also past the first noise chunk (64)
    field = _applied_field(make_config(b1_amp=0.4), monkeypatch)
    assert generate_noise(field, 6).tolist() == [0.4, -0.4] * 3
    assert generate_noise(field, 6, start=64).tolist() == [0.4, -0.4] * 3
    whole = generate_noise(field, 192)
    np.testing.assert_array_equal(whole, np.where(np.arange(192) % 2 == 0, 0.4, -0.4))
    np.testing.assert_array_equal(whole[64:], generate_noise(field, 128, start=64))


def test_alternating_field_integrates_to_zero(monkeypatch):
    cfg = make_config(b1_amp=0.7)
    # piecewise-constant: the integral over the flight is the segment sum
    values = generate_noise(_applied_field(cfg, monkeypatch), cfg.segments)
    assert values.size == 6000
    assert sum(values.tolist()) == 0.0


def test_zero_amplitude_field(monkeypatch):
    cfg = make_config(b1_amp=0.0)
    values = generate_noise(_applied_field(cfg, monkeypatch), cfg.segments)
    assert np.all(values == 0.0)


@pytest.mark.parametrize("segments", [5999, 0, -2, 6000.0, True])
def test_segment_count_must_be_an_even_integer(segments):
    # an odd count leaves one field segment unbalanced; a float or bool is no count
    assert abexp.segments_error(segments)
    with pytest.raises(ValueError, match="segments must be an even integer >= 2"):
        make_config(segments=segments)
    assert abexp.segments_error(2) is None and abexp.segments_error(np.int64(6000)) is None


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(screen_points=32)
    with pytest.raises(ValueError):
        make_config(b1_amp=-0.1)


@pytest.mark.parametrize("screen_points", [100.5, 256.0, True])
def test_screen_point_count_must_be_an_integer(screen_points):
    # 100.5 would reach np.linspace and fail there with a TypeError
    with pytest.raises(ValueError, match="screen_points must be an integer >= 64"):
        make_config(screen_points=screen_points)
    assert make_config(screen_points=np.int64(100)).screen_points == 100


def test_config_rejects_non_finite_flux():
    # a nan flux would give an all-nan screen with visibility 0.0
    with pytest.raises(ValueError, match="flux"):
        make_config(flux=math.nan)


def test_config_rejects_a_flux_that_rounds_the_screen_phase_away():
    # 2 pi xi - flux rounds by up to |flux| eps / 2; at 1e16 that is ~1.1 rad
    bound = 2.0 * abexp.MAX_PHASE_ROUNDING / np.finfo(float).eps
    assert abexp.flux_error(bound) is None and abexp.flux_error(-bound) is None
    assert abexp.flux_error(math.nextafter(bound, math.inf)) is not None
    for flux in (1e16, 1e30, -1e300):
        with pytest.raises(ValueError, match="flux"):
            make_config(flux=flux)
    pattern = simulate_ab(make_config(flux=1e9), two_state_for_paths(**BEAM))
    assert pattern.visibility == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# two-state mapping


def test_two_state_for_paths_shifted_dispersions():
    sys_ = two_state_for_paths(1.0, 0.25)
    assert sys_.e0 == pytest.approx(math.sqrt(1.0 + 1.25**2), rel=1e-15)  # left path
    assert sys_.e1 == pytest.approx(math.sqrt(1.0 + 0.75**2), rel=1e-15)  # right path
    degenerate = two_state_for_paths(1.0, 0.0)
    assert degenerate.r_ratio == 1.0


# ---------------------------------------------------------------------------
# visibility metric


def test_visibility_pure_interference():
    xi = np.linspace(-4.0, 4.0, 401)
    assert fringe_visibility(xi, 1.0 + np.cos(2.0 * np.pi * xi)) == pytest.approx(1.0)


def test_visibility_partial_interference():
    # (Imax - Imin)/(Imax + Imin) = (1.5 - 0.5)/(1.5 + 0.5) = 1/2
    xi = np.linspace(-4.0, 4.0, 401)
    vis = fringe_visibility(xi, 1.0 + 0.5 * np.cos(2.0 * np.pi * xi))
    assert vis == pytest.approx(0.5, rel=1e-12)


def test_visibility_constant_pattern_is_envelope_only():
    xi = np.linspace(-4.0, 4.0, 401)
    with pytest.raises(EnvelopeOnlyPatternError):
        fringe_visibility(xi, np.ones_like(xi))


def test_visibility_scale_invariant():
    xi = np.linspace(-4.0, 4.0, 401)
    intensity = 1.0 + 0.3 * np.cos(2.0 * np.pi * xi)
    assert fringe_visibility(xi, 7.0 * intensity) == pytest.approx(
        fringe_visibility(xi, intensity), rel=1e-14)


def test_visibility_refuses_negative_or_too_few_samples():
    xi = np.linspace(-4.0, 4.0, 401)
    with pytest.raises(ValueError, match="non-negative"):
        fringe_visibility(xi, np.cos(2.0 * np.pi * xi))
    with pytest.raises(ValueError, match="too few screen samples"):  # 3 inside |xi| <= 2
        fringe_visibility(np.linspace(-4.0, 4.0, 5), np.ones(5))


# ---------------------------------------------------------------------------
# the experiment


def test_quiet_field_keeps_interference():
    cfg = make_config(b1_amp=0.0)
    pattern = simulate_ab(cfg, two_state_for_paths(**BEAM))
    assert pattern.collapsed_fraction == 0.0
    assert pattern.visibility > 0.9


def test_flux_pi_shifts_fringes_by_half_period():
    sys_ = two_state_for_paths(**BEAM)
    base = simulate_ab(make_config(b1_amp=0.0, flux=0.0, screen_points=257), sys_)
    shifted = simulate_ab(make_config(b1_amp=0.0, flux=math.pi, screen_points=257), sys_)
    # with the envelope divided out, the interference factors are complementary:
    # 1 + cos(2 pi xi - pi) = 2 - (1 + cos(2 pi xi))
    from relqlab.abexp import _envelope
    env = _envelope(base.positions)
    np.testing.assert_allclose(shifted.intensity / env, 2.0 - base.intensity / env,
                               atol=1e-12)
    mid = len(base.positions) // 2
    assert base.intensity[mid] == pytest.approx(2.0 * env[mid], rel=1e-12)  # bright center
    assert abs(shifted.intensity[mid]) < 1e-12  # dark center


def test_flux_periodicity():
    sys_ = two_state_for_paths(**BEAM)
    a = simulate_ab(make_config(b1_amp=0.0, flux=0.7), sys_)
    b = simulate_ab(make_config(b1_amp=0.0, flux=0.7 + 2.0 * math.pi), sys_)
    np.testing.assert_allclose(a.intensity, b.intensity, atol=1e-12)
    assert a.visibility == pytest.approx(b.visibility, abs=1e-12)


def test_alternating_field_destroys_interference():
    # calibrated amplitude: every electron collapses in flight, the fringes
    # give way to the bare diffraction envelope
    cfg = make_config(b1_amp=DEFAULT_B1_STAR)
    pattern = simulate_ab(cfg, two_state_for_paths(**BEAM))
    assert pattern.collapsed_fraction > 0.8
    assert pattern.visibility < 0.2
    # the drift selects the left (higher-momentum) path
    assert pattern.collapse_outcome == 0


def test_collapsed_pattern_is_pure_envelope():
    from relqlab.abexp import _envelope
    cfg = make_config(b1_amp=DEFAULT_B1_STAR)
    pattern = simulate_ab(cfg, two_state_for_paths(**BEAM))
    np.testing.assert_allclose(pattern.intensity, _envelope(pattern.positions), atol=1e-14)


def _alternating_outcome_reference(cfg, sys_, threshold):
    """Collapse outcome of the flight from an explicit loop: segment n has
    field (-1)^n b1_amp, level 0 is kicked by f * g0 and level 1 by -f * g1."""
    g0, g1, r = sys_.kick_gain(0), sys_.kick_gain(1), np.float64(sys_.r_ratio)
    a0 = a1 = np.float64(1.0 / math.sqrt(2.0))
    for step in range(cfg.segments):
        f = cfg.b1_amp if step % 2 == 0 else -cfg.b1_amp
        a0, a1 = step_kernel(a0, a1, np.float64(f * g0), np.float64(-f * g1), r)
        if a0 * a0 >= threshold or a1 * a1 >= threshold:
            return 0 if a0 >= a1 else 1
    return None


@pytest.mark.parametrize("b1_amp, collapses", [(0.0, False), (0.05, False),
                                               (DEFAULT_B1_STAR, True), (0.5, True)])
def test_simulate_ab_matches_reference_loop_bitwise(b1_amp, collapses):
    from relqlab.abexp import _envelope
    sys_ = two_state_for_paths(**BEAM)
    cfg = make_config(b1_amp=b1_amp, flux=0.7)
    outcome = _alternating_outcome_reference(cfg, sys_, 0.999)
    assert (outcome is not None) == collapses
    pattern = simulate_ab(cfg, sys_)
    xi = pattern.positions
    expected = _envelope(xi)
    if outcome is None:
        expected = expected * (1.0 + np.cos(2.0 * np.pi * xi + ab_phase(cfg.flux)))
    assert pattern.collapse_outcome == outcome
    assert pattern.intensity.tobytes() == expected.tobytes()
    assert pattern.collapsed_fraction == (1.0 if collapses else 0.0)


def test_ab_field_past_the_noise_domain_is_rejected():
    # opposite-sign kicks put the domain of the default beam at b1_amp < 2.094
    sys_ = two_state_for_paths(**BEAM)
    simulate_ab(make_config(b1_amp=2.09), sys_)
    with pytest.raises(NoiseTooLargeError):
        simulate_ab(make_config(b1_amp=2.1), sys_)


@pytest.mark.parametrize("threshold", [0.3, 0.5, 1.0, 1.5, math.nan])
def test_simulate_ab_rejects_thresholds_outside_the_open_interval(threshold):
    # with no field at all, such a threshold would report a collapse (<= 0.5)
    # or none (>= 1, nan) instead of raising
    with pytest.raises(ValueError, match="threshold"):
        simulate_ab(make_config(b1_amp=0.0), two_state_for_paths(**BEAM), threshold=threshold)
