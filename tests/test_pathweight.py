"""Path functionals, weights, actions, and short-time kernels."""

import math

import numpy as np
import pytest

from relqlab.pathweight import (
    LightlikeSegmentError,
    Path,
    PhysicalScale,
    SampledField,
    SeriesTruncationError,
    WeightUndefinedError,
    equal_time_kernel_profile,
    path_action,
    path_functionals,
    path_weight,
    short_time_closed_form,
    short_time_plane_wave,
    short_time_plane_wave_series,
    straight_path,
)

M1 = PhysicalScale(mass=1.0)


# ---------------------------------------------------------------------------
# types


def test_physical_scale():
    s = PhysicalScale(mass=2.0)
    assert s.tau0 == 0.5
    assert s.tau0 * s.mass == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        PhysicalScale(mass=0.0)


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


# ---------------------------------------------------------------------------
# action


def test_action_free_rest():
    assert path_action(straight_path(v=0.0, duration=1.0), M1) == pytest.approx(-1.0)


def test_action_free_v06():
    assert path_action(straight_path(v=0.6, duration=1.0), M1) == pytest.approx(-0.8, rel=1e-14)


def test_action_with_constant_vector_potential():
    # S = -2 sqrt(0.75) + a for v = 0.5, T = 2, A = a, V = 0
    a = 0.7
    p = straight_path(v=0.5, duration=2.0, n_segments=8)
    af = SampledField(np.array([-1.0, 2.0]), np.array([a, a]))
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
