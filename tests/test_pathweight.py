"""Path functionals, weights, actions, and short-time kernels."""

import math

import numpy as np
import pytest

from relqlab import pathweight
from relqlab.pathweight import (
    LightlikeSegmentError,
    Path,
    PhysicalScale,
    QuadratureConvergenceError,
    WeightUndefinedError,
    equal_time_kernel_profile,
    path_action,
    path_functionals,
    path_weight,
    short_time_closed_form,
    short_time_plane_wave,
    straight_path,
)
from reference import SampledField, SeriesTruncationError, short_time_plane_wave_series

M1 = PhysicalScale(mass=1.0)


# ---------------------------------------------------------------------------
# types


def test_physical_scale():
    s = PhysicalScale(mass=2.0)
    assert s.tau0 == 0.5
    assert s.tau0 * s.mass == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        PhysicalScale(mass=0.0)


@pytest.mark.parametrize("times, positions", [(np.arange(3.0), np.zeros(4)),
                                              (np.zeros((3, 1)), np.zeros(3)),
                                              (np.arange(3.0), np.zeros((3, 1)))])
def test_path_arrays_must_be_1d_of_equal_length(times, positions):
    with pytest.raises(ValueError, match="1-d sequences of equal length"):
        Path(times=times, positions=positions)


def test_path_validation():
    with pytest.raises(ValueError):
        Path(times=np.array([0.0]), positions=np.array([0.0]))
    with pytest.raises(ValueError):
        Path(times=np.array([0.0, 1.0, 1.5]), positions=np.zeros(3))  # non-uniform
    with pytest.raises(ValueError):
        Path(times=np.array([0.0, -1.0]), positions=np.zeros(2))  # decreasing
    p = straight_path(v=0.3, duration=2.0, n_segments=4)
    assert p.dt == pytest.approx(0.5)
    np.testing.assert_allclose(p.velocities, 0.3, rtol=1e-12)
    with pytest.raises(ValueError):
        p.positions[0] = 99.0  # immutable after construction


def test_sampled_field_domain():
    field = SampledField(x=np.array([-1.0, 1.0]), values=np.array([2.0, 4.0]))
    assert field(0.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        field(1.5)


# ---------------------------------------------------------------------------
# functionals


def test_functionals_rest_particle():
    pf = path_functionals(straight_path(v=0.0, duration=3.0), M1)
    assert pf.pbb == 0 and pf.pcal == 0
    assert pf.dtau == pytest.approx(3.0)


def test_functionals_v06_closed_form():
    # sqrt(1 - 0.36) = 0.8 analytically
    pf = path_functionals(straight_path(v=0.6, duration=1.0), M1)
    assert pf.dtau == pytest.approx(0.8, rel=1e-14)
    assert pf.pbb == pytest.approx(0.6 / 0.8, rel=1e-14)
    assert pf.pcal == pytest.approx(math.sqrt(2.0 * (1.0 / 0.8 - 1.0)), rel=1e-14)
    assert pf.dtau.imag == 0 and pf.pbb.imag == 0 and pf.pcal.imag == 0


def test_functionals_superluminal_branch():
    # branch rule: sqrt(1 - v^2) = -i sqrt(v^2 - 1) for |v| >= 1
    pf = path_functionals(straight_path(v=2.0, duration=1.0), M1)
    assert pf.dtau == pytest.approx(-1j * math.sqrt(3.0), rel=1e-14)


def test_functionals_lightlike_rejected():
    with pytest.raises(LightlikeSegmentError):
        path_functionals(straight_path(v=1.0, duration=1.0), M1)


def test_proper_time_additivity():
    # concatenation of compatible pieces adds proper times exactly
    t = np.linspace(0.0, 2.0, 9)
    x = np.sin(t)
    whole = Path(times=t, positions=x)
    first = Path(times=t[:5], positions=x[:5])
    second = Path(times=t[4:], positions=x[4:])
    d_whole = path_functionals(whole, M1).dtau
    d_split = path_functionals(first, M1).dtau + path_functionals(second, M1).dtau
    assert d_whole == pytest.approx(d_split, rel=1e-14)


def test_reversal_invariance():
    t = np.linspace(0.0, 1.0, 11)
    x = 0.3 * t + 0.2 * np.sin(5.0 * t)
    fwd = path_functionals(Path(times=t, positions=x), M1)
    rev = path_functionals(Path(times=t, positions=x[::-1]), M1)
    assert abs(rev.pbb) == pytest.approx(abs(fwd.pbb), rel=1e-13)
    assert abs(rev.pcal) == pytest.approx(abs(fwd.pcal), rel=1e-13)
    assert abs(rev.dtau) == pytest.approx(abs(fwd.dtau), rel=1e-13)


def test_nonrelativistic_degeneracy():
    # for |v| <= 0.01 the momentum and kinetic functionals coincide to 1e-4
    for v in (0.001, 0.01):
        pf = path_functionals(straight_path(v=v, duration=1.0), M1)
        assert abs(pf.pbb / pf.pcal - 1.0) < 1e-4
        assert abs(pf.dtau / 1.0 - 1.0) < 1e-4


# ---------------------------------------------------------------------------
# weight


def test_weight_nonrelativistic_limit():
    # PBB/PCAL -> 1 and (T/2)^(-1/2) = 1 at T = 2
    pf = path_functionals(straight_path(v=1e-4, duration=2.0), M1)
    assert path_weight(pf) == pytest.approx(1.0, abs=1e-4)


def test_weight_v06_closed_form():
    pf = path_functionals(straight_path(v=0.6, duration=1.0), M1)
    expected = (0.75 / math.sqrt(0.5)) * 0.4 ** -0.5
    assert path_weight(pf) == pytest.approx(expected, rel=1e-13)


def test_weight_superluminal_phase():
    # (dtau/2)^(-1/2) with dtau = -i sqrt(3) carries phase e^{+i pi/4}
    pf = path_functionals(straight_path(v=2.0, duration=1.0), M1)
    factor = (0.5 * pf.dtau) ** -0.5
    assert factor == pytest.approx((math.sqrt(3.0) / 2.0) ** -0.5 * np.exp(0.25j * np.pi),
                                   rel=1e-14)
    # full weight against an independent scalar evaluation
    gamma_c = 1.0 / (-1j * math.sqrt(3.0))
    pbb = 2.0 * gamma_c
    pcal = np.sqrt(2.0 * (gamma_c - 1.0) + 0j)
    assert path_weight(pf) == pytest.approx((pbb / pcal) * factor, rel=1e-13)


def test_weight_rest_path_rejected():
    pf = path_functionals(straight_path(v=0.0, duration=1.0), M1)
    with pytest.raises(WeightUndefinedError):
        path_weight(pf)


def _one_segment_reference(v, mpmath):
    """W and the free action of one segment of duration 1 at mass 1, from the definitions."""
    v = mpmath.mpf(v)
    root = mpmath.sqrt(1 - v * v) if v < 1 else -1j * mpmath.sqrt(v * v - 1)
    weight = (v / root) / mpmath.sqrt(2 * (1 / root - 1)) * (root / 2) ** mpmath.mpf(-0.5)
    return weight, -root


@pytest.mark.parametrize("v", [1e-12, 1e-9, 1e-8, 1e-6, 1e-4, 1e-2, 0.6, 1.0 - 1e-6, 1.0 + 1e-6,
                               2.0, 1e3, 1e5])
def test_weight_matches_mpmath(v):
    # slow paths, where 1/sqrt(1 - v^2) - 1 cancels, and both sides of the light cone, where
    # 1 - v^2 does; the bound was fixed before any run
    mpmath = pytest.importorskip("mpmath")
    path = straight_path(v=v, duration=1.0)
    assert path.velocities[0] == v
    with mpmath.workdps(50):
        target, _ = _one_segment_reference(v, mpmath)
        got = path_weight(path_functionals(path, M1))
        assert float(abs(got - target) / abs(target)) < 1e-14


def test_weight_and_action_at_the_speed_bound_match_mpmath():
    # the largest declared segment speed; the bound was fixed before any run
    mpmath = pytest.importorskip("mpmath")
    v = pathweight.MAX_SEGMENT_SPEED
    path = straight_path(v=v, duration=1.0)
    assert path.velocities[0] == v
    with mpmath.workdps(50):
        weight, action = _one_segment_reference(v, mpmath)
        got = path_weight(path_functionals(path, M1)), path_action(path, M1)
        for value, target in zip(got, (weight, action)):
            assert float(abs(value - target) / abs(target)) < 1e-14


@pytest.mark.parametrize("v", [1e154, 1e155, 1e200, -1e200])
def test_speeds_past_the_bound_are_refused(v):
    # past ~9.5e153, 2 v^2 overflows and the functionals and action turn nan
    path = straight_path(v=v, duration=1.0)
    with pytest.raises(ValueError, match="segment speed .* past the declared domain"):
        path_functionals(path, M1)
    with pytest.raises(ValueError, match="segment speed .* past the declared domain"):
        path_action(path, M1)


# ---------------------------------------------------------------------------
# action


def test_action_free_rest():
    assert path_action(straight_path(v=0.0, duration=1.0), M1) == pytest.approx(-1.0)


def test_action_free_v06():
    assert path_action(straight_path(v=0.6, duration=1.0), M1) == pytest.approx(-0.8, rel=1e-14)


@pytest.mark.parametrize("v", [1.0 - 1e-6, 1.0 + 1e-6])
def test_action_near_light_cone_matches_mpmath(v):
    # real on one side, imaginary on the other; the bound was fixed before any run
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        _, target = _one_segment_reference(v, mpmath)
        got = path_action(straight_path(v=v, duration=1.0), M1)
        assert float(abs(got - target) / abs(target)) < 1e-14


@pytest.mark.parametrize("make_field", [
    lambda a: SampledField(np.array([-1.0, 2.0]), np.array([a, a])),
    lambda a: lambda x: np.full_like(x, a),  # any callable of position arrays
], ids=["sampled", "callable"])
def test_action_with_constant_vector_potential(make_field):
    # S = -2 sqrt(0.75) + a for v = 0.5, T = 2, A = a, V = 0
    a = 0.7
    p = straight_path(v=0.5, duration=2.0, n_segments=8)
    af = make_field(a)
    got = path_action(p, M1, a_field=af)
    assert got == pytest.approx(-2.0 * math.sqrt(0.75) + a, rel=1e-13)


def test_action_with_constant_scalar_potential():
    # S = -m sqrt(1 - v^2) T - V T for v = 0.5, T = 2, V = v0: the potential costs V T
    v0 = 0.3
    p = straight_path(v=0.5, duration=2.0, n_segments=8)
    vf = SampledField(np.array([-1.0, 2.0]), np.array([v0, v0]))
    got = path_action(p, M1, v_field=vf)
    assert got == pytest.approx(-2.0 * math.sqrt(0.75) - v0 * 2.0, rel=1e-13)
    assert got - path_action(p, M1) == pytest.approx(-v0 * 2.0, rel=1e-13)


def test_action_field_domain_error():
    p = straight_path(v=1.5, duration=2.0)
    af = SampledField(np.array([-0.5, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        path_action(p, M1, a_field=af)


# ---------------------------------------------------------------------------
# short-time plane-wave amplitude


def test_short_time_p0_limit():
    # closed form 2 (i pi tau0)^(1/2) e^{-i eps0}; the eps0 -> 0+ limit drops the phase
    target = 2.0 * (1j * np.pi) ** 0.5
    assert short_time_closed_form(0.0, 1e-9, M1) == pytest.approx(target, rel=1e-8)
    got = short_time_plane_wave(0.0, 1e-3, M1)
    assert got == pytest.approx(target * np.exp(-1e-3j), rel=1e-7)


def test_short_time_p0_eps1():
    target = 2.0 * (1j * np.pi) ** 0.5 * np.exp(-1j)
    assert short_time_closed_form(0.0, 1.0, M1) == pytest.approx(target, rel=1e-14)
    got = short_time_plane_wave(0.0, 1.0, M1)
    assert abs(got - target) / abs(target) < 1e-7


@pytest.mark.parametrize("ptau", [0.0, 0.75, 1.44])
@pytest.mark.parametrize("eps0", [0.1, 1.0])
def test_short_time_quadrature_matches_closed_form(ptau, eps0):
    got = short_time_plane_wave(ptau, eps0, M1)
    target = short_time_closed_form(ptau, eps0, M1)
    assert abs(got - target) / abs(target) < 1e-6


@pytest.mark.parametrize("p, eps0", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 0.5),
                                     (0.75, math.nan), (0.75, math.inf)])
def test_closed_form_rejects_non_finite_inputs(p, eps0):
    # a nan eps0 would return nan; p = inf only warned (warnings are errors here)
    with pytest.raises(ValueError, match="p_momentum and eps0 must be finite"):
        short_time_closed_form(p, eps0, M1)


def test_short_time_energy_phase():
    # E_p = 1.25 m at p = 0.75 m: phase advance between eps0 values is e^{-i E_p d(eps0)}
    a1 = short_time_closed_form(0.75, 0.4, M1)
    a2 = short_time_closed_form(0.75, 1.4, M1)
    assert a2 / a1 == pytest.approx(np.exp(-1.25j), rel=1e-13)


def test_short_time_mass_scaling():
    scale = PhysicalScale(mass=2.0)
    got = short_time_plane_wave(1.5, 0.5, scale)
    target = short_time_closed_form(1.5, 0.5, scale)
    assert abs(got - target) / abs(target) < 1e-6


def test_short_time_series_route_small_p():
    # inside its radius of convergence the moment series is an independent oracle
    for ptau in (0.0, 0.2, 0.3):
        series = short_time_plane_wave_series(ptau, 1.0, M1)
        quad = short_time_plane_wave(ptau, 1.0, M1)
        assert abs(series - quad) / abs(series) < 1e-8


def test_short_time_rule_matches_closed_form_over_its_domain():
    # eps0 from edge to edge of PLANE_WAVE_EPS0, |p| tau0 up to PLANE_WAVE_MAX_PTAU, either
    # sign, through the cap's switch at |p| tau0 = 1; the bound was fixed before any run
    worst = 0.0
    for scale in (M1, PhysicalScale(mass=3.0)):
        for eps0 in np.geomspace(*pathweight.PLANE_WAVE_EPS0, 13):
            for ptau in (-10.0, -1.0, 0.0, 0.3, 1.0, 1.0 + 1e-12, 2.5, 6.0, 10.0):
                got = short_time_plane_wave(ptau * scale.mass, eps0, scale)
                target = short_time_closed_form(ptau * scale.mass, eps0, scale)
                worst = max(worst, abs(got - target) / abs(target))
    assert worst < 1e-12


def test_short_time_rule_certificate_raises(monkeypatch):
    # no two sums agree to a zero relative gap
    monkeypatch.setattr(pathweight, "PLANE_WAVE_RTOL", 0.0)
    with pytest.raises(QuadratureConvergenceError, match="16- and 24-node"):
        short_time_plane_wave(0.75, 1.0, M1)


@pytest.mark.parametrize("ptau, eps0", [
    (0.5, math.nextafter(pathweight.PLANE_WAVE_EPS0[0], 0.0)),
    (0.5, math.nextafter(pathweight.PLANE_WAVE_EPS0[1], math.inf)),
    (math.nextafter(pathweight.PLANE_WAVE_MAX_PTAU, math.inf), 1.0),
    (-math.nextafter(pathweight.PLANE_WAVE_MAX_PTAU, math.inf), 1.0),
    (0.5, 0.0), (0.5, math.nan), (math.nan, 1.0), (math.inf, 1.0),
])
def test_short_time_rule_refuses_past_its_domain(ptau, eps0):
    with pytest.raises(ValueError, match="declared for eps0"):
        short_time_plane_wave(ptau, eps0, M1)


def test_short_time_series_route_truncation_guard():
    # |p| tau0 = 0.75 still contributes ~1e-4 at n = 12: the guard must fire
    with pytest.raises(SeriesTruncationError):
        short_time_plane_wave_series(0.75, 1.0, M1)


# ---------------------------------------------------------------------------
# equal-time kernel


def test_kernel_profile_compton_magnitude():
    # |F| at eta = 1/m is e^{-1} sqrt(m)
    for m in (1.0, 2.5):
        scale = PhysicalScale(mass=m)
        got = equal_time_kernel_profile(1.0 / m, 0.0, scale)
        assert abs(got) == pytest.approx(math.exp(-1.0) * math.sqrt(m), rel=1e-13)


def test_kernel_profile_doubling_ratio():
    eta = 0.7
    f1 = equal_time_kernel_profile(eta, 0.0, M1)
    f2 = equal_time_kernel_profile(2.0 * eta, 0.0, M1)
    assert abs(f2) / abs(f1) == pytest.approx(math.exp(-eta) / math.sqrt(2.0), rel=1e-13)


def test_kernel_profile_line_integral_phase():
    base = equal_time_kernel_profile(0.5, 0.0, M1)
    shifted = equal_time_kernel_profile(0.5, math.pi, M1)
    assert shifted == pytest.approx(-base, rel=1e-13)


def test_kernel_profile_eta_zero_rejected():
    with pytest.raises(ValueError):
        equal_time_kernel_profile(0.0, 0.0, M1)
    with pytest.raises(ValueError, match="eta = 0"):
        equal_time_kernel_profile(np.array([0.5, 0.0, -0.5]), 0.3, M1)


@pytest.mark.parametrize("eta, a_line_integral, name", [
    (math.nan, 0.0, "eta"), (math.inf, 0.0, "eta"), (-math.inf, 0.3, "eta"),
    (np.array([0.5, math.nan]), 0.0, "eta"), (0.5, math.nan, "a_line_integral"),
    (np.array([0.5, -0.5]), -math.inf, "a_line_integral")])
def test_kernel_profile_rejects_non_finite_inputs(eta, a_line_integral, name):
    # each would otherwise return nan+nanj without a warning
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        equal_time_kernel_profile(eta, a_line_integral, M1)


@pytest.mark.parametrize("mass", [1e-5, 0.37, 1.0, 1e300])
@pytest.mark.parametrize("a_line_integral", [0.0, 0.3, -2.5, 1e300])
def test_kernel_profile_array_equals_scalar_calls_bitwise(mass, a_line_integral):
    # one array call, its scalar calls (each a complex) and the formula evaluated
    # one value at a time agree to the bit, signed zeros included
    scale = PhysicalScale(mass=mass)
    etas = np.geomspace(1e-300, 1e3, 301)
    etas = np.stack([etas, -etas])
    got = equal_time_kernel_profile(etas, a_line_integral, scale)
    assert got.shape == etas.shape
    got = got.ravel()
    calls = [equal_time_kernel_profile(e, a_line_integral, scale) for e in etas.ravel()]
    assert {type(c) for c in calls} == {complex}
    calls = np.array(calls)
    formula = np.array([(1j * abs(e)) ** -0.5 * np.exp(-mass * abs(e) - 1j * a_line_integral)
                        for e in etas.ravel().tolist()])
    assert np.isfinite(got).all()
    np.testing.assert_array_equal(got.view(np.uint64), calls.view(np.uint64))
    np.testing.assert_array_equal(got.view(np.uint64), formula.view(np.uint64))


def test_kernel_log_slope_is_minus_mass():
    # log(sqrt|eta| |F|) is affine in |eta| with slope -m once the algebraic
    # |eta|^(-1/2) prefactor is divided out
    m = 1.7
    scale = PhysicalScale(mass=m)
    etas = np.linspace(0.1, 5.0, 40) / m
    logs = np.array([math.log(abs(equal_time_kernel_profile(e, 0.0, scale)) * math.sqrt(e))
                     for e in etas])
    slope, _ = np.polyfit(etas, logs, 1)
    assert abs(slope + m) / m < 1e-6
