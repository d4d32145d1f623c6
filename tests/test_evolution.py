"""Spectral evolution, the whole-weight operator, and the density-flux series."""

import math
from fractions import Fraction

import numpy as np
import pytest

from relqlab.evolution import (
    MAX_FLUX_ORDER,
    PACKET_MOMENTUM_SPREADS,
    FieldConfig,
    SpatialGrid,
    WaveFunction,
    apply_R,
    binom_half,
    density_flux_report,
    dispersion,
    evolve,
    flux_coefficient,
    flux_term_error,
    free_propagate,
    gaussian_packet,
    klein_gordon_residual,
    max_energy,
    mode_error,
    momentum_error,
    packet_error,
    plane_wave,
    plane_wave_identity_check,
    r_symbol,
    schrodinger_overlap,
    series_error,
    spectral_derivative,
)

GRID = SpatialGrid(n=1024, length=200.0)
FREE = FieldConfig.free(1.0, GRID)

# momentum range ~ [-1, 1] keeps high-order spectral derivatives clean
FLUX_GRID = SpatialGrid(n=512, length=512.0 * math.pi)
FLUX_FREE = FieldConfig.free(1.0, FLUX_GRID)


def l2(grid, values):
    return math.sqrt(float(np.sum(np.abs(values) ** 2) * grid.dx))


# ---------------------------------------------------------------------------
# grid and types


def test_grid_validation():
    for bad in (12, 18, 1000):
        with pytest.raises(ValueError):
            SpatialGrid(n=bad, length=10.0)
    with pytest.raises(ValueError):
        SpatialGrid(n=64, length=0.0)


def test_momentum_grid_nyquist_positive():
    g = SpatialGrid(n=16, length=16.0)
    p = g.p
    assert p[8] == pytest.approx(+np.pi)  # Nyquist wrapped to +n/2
    # symmetric about zero except at the Nyquist point
    np.testing.assert_allclose(np.sort(p[1:8]), np.sort(-p[9:]), rtol=1e-15)


def test_wavefunction_validation():
    with pytest.raises(ValueError):
        WaveFunction(grid=GRID, values=np.zeros(GRID.n, dtype=complex))  # zero norm
    vals = np.ones(GRID.n, dtype=complex)
    vals[0] = np.nan
    with pytest.raises(ValueError):
        WaveFunction(grid=GRID, values=vals)


# ---------------------------------------------------------------------------
# dispersion


def test_dispersion_examples():
    assert dispersion(0.0, FREE) == pytest.approx(1.0)
    assert dispersion(0.75, FREE) == pytest.approx(1.25, rel=1e-15)
    shifted = FieldConfig.free(1.0, GRID, a0=0.6)
    assert dispersion(0.6, shifted) == pytest.approx(1.0)  # minimal coupling shift


# ---------------------------------------------------------------------------
# evolve


def test_plane_wave_is_spectral_eigenstate():
    k = 12
    psi = plane_wave(GRID, k)
    p = 2.0 * np.pi * k / GRID.length
    out = evolve(psi, FREE, dt=0.3, steps=7)
    expected = psi.values * np.exp(-1j * dispersion(p, FREE) * 0.3 * 7)
    np.testing.assert_allclose(out.values, expected, atol=1e-13)


def test_zero_time_propagation_is_identity():
    psi = gaussian_packet(GRID, 0.0, 8.0, 0.3)
    out = free_propagate(psi, FREE, 0.0)
    np.testing.assert_allclose(out.values, psi.values, atol=1e-14)


def test_norm_preserved_over_1000_steps():
    v = 0.5 * np.cos(2.0 * np.pi * GRID.x / GRID.length)
    f = FieldConfig(a0=0.0, v_samples=v, mass=1.0)
    psi = gaussian_packet(GRID, -20.0, 8.0, 0.4)
    out = evolve(psi, f, dt=0.05, steps=1000)
    assert abs(out.norm() - psi.norm()) / psi.norm() < 1e-12


def test_free_semigroup_composition():
    psi = gaussian_packet(GRID, -10.0, 8.0, 0.4)
    a = evolve(psi, FREE, dt=0.05, steps=2)
    b = evolve(psi, FREE, dt=0.10, steps=1)
    assert l2(GRID, a.values - b.values) < 1e-10


def test_strang_splitting_is_second_order():
    v = 0.5 * np.cos(2.0 * np.pi * GRID.x / GRID.length)
    f = FieldConfig(a0=0.0, v_samples=v, mass=1.0)
    psi = gaussian_packet(GRID, -20.0, 8.0, 0.4)
    total = 2.0
    ref = evolve(psi, f, total / 2048, 2048)

    def err(dt):
        got = evolve(psi, f, dt, int(round(total / dt)))
        return l2(GRID, got.values - ref.values)

    ratio = err(0.1) / err(0.05)
    assert 3.7 < ratio < 4.3


def test_group_velocity_relativistic():
    # centroid speed p0 / E(p0), not p0 / m
    psi = gaussian_packet(GRID, -40.0, 10.0, 0.5)
    out = evolve(psi, FREE, dt=0.05, steps=400)
    vg = (out.centroid() - psi.centroid()) / 20.0
    target = 0.5 / math.sqrt(1.25)
    assert abs(vg - target) / target < 0.01


def test_evolve_validation():
    psi = gaussian_packet(GRID, 0.0, 8.0, 0.0)
    with pytest.raises(ValueError):
        evolve(psi, FREE, dt=0.0, steps=1)
    with pytest.raises(ValueError):
        evolve(psi, FREE, dt=0.1, steps=0)
    with pytest.raises(ValueError):
        evolve(psi, FREE, dt=0.1, steps=True)


# ---------------------------------------------------------------------------
# whole-weight operator


def _strang_reference(psi, f, dt, steps):
    """Explicit Strang loop that always applies the half-V factors."""
    kin_phase = np.exp(-1j * dispersion(psi.grid.p, f) * dt)
    half_v = np.exp(-0.5j * f.v_samples * dt)
    values = psi.values.copy()
    for _ in range(steps):
        values = half_v * values
        values = np.fft.ifft(kin_phase * np.fft.fft(values))
        values = half_v * values
    return values


# Largest |free evolve - Strang loop| allowed, in units of max|psi|: the loop
# differs from the exact propagation only by roundoff accumulated per step.
FREE_VS_STRANG_TOL = 1e-12


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("a0", [0.0, 0.7])
@pytest.mark.parametrize("steps", [1, 37])
@pytest.mark.parametrize("v_amp", [0.05])
def test_evolve_matches_explicit_strang_loop_bitwise(n, a0, steps, v_amp):
    grid = SpatialGrid(n=n, length=200.0)
    f = FieldConfig(a0=a0, v_samples=v_amp * np.cos(2 * np.pi * grid.x / grid.length), mass=1.0)
    psi = gaussian_packet(grid, -40.0, 10.0, 0.5)
    got = evolve(psi, f, 0.05, steps).values
    assert got.tobytes() == _strang_reference(psi, f, 0.05, steps).tobytes()


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("a0", [0.0, 0.7])
@pytest.mark.parametrize("steps", [1, 37])
def test_free_evolve_is_one_exact_propagation(n, a0, steps):
    grid = SpatialGrid(n=n, length=200.0)
    f = FieldConfig.free(1.0, grid, a0=a0)
    psi = gaussian_packet(grid, -40.0, 10.0, 0.5)
    got = evolve(psi, f, 0.05, steps).values
    e = dispersion(grid.p, f)
    exact = np.fft.ifft(np.exp(-1j * e * (0.05 * steps)) * np.fft.fft(psi.values))
    assert got.tobytes() == exact.tobytes()
    strang = _strang_reference(psi, f, 0.05, steps)
    assert np.max(np.abs(got - strang)) <= FREE_VS_STRANG_TOL * np.max(np.abs(psi.values))


def test_free_evolve_norm_on_large_grid():
    # 65536 points and 400 steps: a per-step loop drifts by ~2.5e-14 here
    grid = SpatialGrid(n=65536, length=200.0)
    psi = gaussian_packet(grid, -40.0, 10.0, 0.5)
    out = evolve(psi, FieldConfig.free(1.0, grid), 0.05, 400)
    assert abs(out.norm() - psi.norm()) <= 1e-14


def test_evolve_aborts_on_non_finite_state():
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="at step 1 of 3"):
        evolve(gaussian_packet(GRID, 0.0, 5.0, 0.0), FieldConfig.free(1e200, GRID), 0.05, 3)


def test_strang_loop_aborts_on_non_finite_state():
    # V != 0 takes the Strang loop; E(p) = inf at mass 1e200 makes step 1 nan
    f = FieldConfig(a0=0.0, v_samples=np.full(GRID.n, 0.1), mass=1e200)
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="at step 1 of 3"):
        evolve(gaussian_packet(GRID, 0.0, 5.0, 0.0), f, 0.05, 3)


def test_free_evolve_raises_when_total_time_overflows():
    # E(p) dt ~ 1.6e307 stays finite; dt * steps = 1e309 does not, and the
    # exact phase E(p) k dt first overflows at k = 12
    psi = gaussian_packet(GRID, 0.0, 5.0, 0.0)
    with pytest.raises(RuntimeError, match="at step 12 of 1000"):
        evolve(psi, FREE, 1e306, 1000)


@pytest.mark.parametrize("n, length, mass, a0", [
    (1024, 200.0, 1.0, 0.0), (64, 1e-3, 2.0, -5.0), (16, 3.0, 1.3e154, 0.0), (256, 7.0, 0.5, 1e153)])
def test_max_energy_bounds_the_dispersion_on_the_grid(n, length, mass, a0):
    grid = SpatialGrid(n=n, length=length)
    e_max = float(np.max(dispersion(grid.p, FieldConfig.free(mass, grid, a0=a0))))
    bound = max_energy(n, length, mass, a0)
    assert e_max <= bound * (1 + 1e-15)
    if a0 <= 0.0:
        assert bound == pytest.approx(e_max, rel=1e-15)


@pytest.mark.parametrize("mass, a0, length", [(1.35e154, 0.0, 200.0), (1.0, -1e200, 200.0),
                                              (1.0, 0.0, 1e-300)])
def test_max_energy_rejects_a_dispersion_that_overflows(mass, a0, length):
    with pytest.raises(ValueError, match="double range"):
        max_energy(64, length, mass, a0)


def test_packet_that_underflows_on_the_grid_is_rejected_without_warnings():
    # sigma = 0.001 at x0 = -40: the nearest sample sits 0.039 away, about 39
    # widths, so every sample squared underflows; so does an off-grid centre
    for x0, sigma in ((-40.0, 0.001), (0.3, 0.001), (1e300, 10.0), (0.0, 1e-300)):
        assert packet_error(GRID.n, GRID.length, x0, sigma)
        with pytest.raises(ValueError, match="sigma"):
            gaussian_packet(GRID, x0, sigma, 0.5)


@pytest.mark.parametrize("n, length, x0, sigma", [
    (16, 3e154, -40.0, 3e153),  # (x - x0)^2 at the grid's edge
    (64, 1e160, -40.0, 1e159),  # and 4 sigma^2
    (1024, 200.0, 0.0, 1e-155),  # (x - x0)^2 / (4 sigma^2)
])
def test_packet_whose_exponent_overflows_is_rejected(n, length, x0, sigma):
    grid = SpatialGrid(n=n, length=length)
    assert "finite over the grid" in packet_error(n, length, x0, sigma)
    with pytest.raises(ValueError, match="sigma"):
        gaussian_packet(grid, x0, sigma, 0.0)


def test_packet_just_inside_double_range_is_built():
    # (x - x0)^2 reaches 1e308 at the edge; numpy warns of nothing
    edge = SpatialGrid(n=16, length=2e154)
    assert packet_error(16, 2e154, 0.0, 3e153) is None
    assert gaussian_packet(edge, 0.0, 3e153, 0.0).norm() == pytest.approx(1.0, rel=1e-12)


def test_momentum_rule_at_its_edge():
    # Nyquist momentum pi n / length = 16.08 on the reference grid
    nyquist = math.pi * GRID.n / GRID.length
    assert PACKET_MOMENTUM_SPREADS == 8.0
    assert momentum_error(GRID.n, GRID.length, 0.5, 10.0) is None  # the CLI default
    sigma = 4.0 / (nyquist - 15.0)  # |p0| + 8 / (2 sigma) lands on the Nyquist momentum
    assert momentum_error(GRID.n, GRID.length, 15.0, sigma * 1.001) is None
    assert momentum_error(GRID.n, GRID.length, -15.0, sigma * 1.001) is None
    assert "Nyquist" in momentum_error(GRID.n, GRID.length, 15.0, sigma * 0.999)
    assert momentum_error(GRID.n, GRID.length, 1e3, 10.0)
    # gaussian_packet does not apply it: property tests draw such packets on 16 points
    assert gaussian_packet(GRID, 0.0, 10.0, 1e3).norm() == pytest.approx(1.0, rel=1e-12)


def test_plane_wave_mode_rule():
    # index n/2 is the Nyquist mode and n/2 + j samples as mode j - n/2
    n = FLUX_GRID.n
    assert mode_error(n, 0) is None and mode_error(n, n // 2 - 1) is None
    assert mode_error(n, n // 2) and mode_error(n, 300) and mode_error(n, -1)
    aliased = plane_wave(FLUX_GRID, 300).values
    assert np.max(np.abs(aliased - plane_wave(FLUX_GRID, 300 - n).values)) < 1e-13


@pytest.mark.parametrize("x0", [-40.0, 0.3, 99.9, 150.0])
def test_packet_domain_holds_up_to_its_edge(x0):
    # below the edge packet_error refuses; above it the packet is built, its
    # norm is 1, and numpy warns of nothing (warnings are errors here)
    widths = np.geomspace(1e-4, 1e2, 400)
    accepted = [s for s in widths if packet_error(GRID.n, GRID.length, x0, s) is None]
    assert 0 < len(accepted) < len(widths)
    assert accepted == list(widths[len(widths) - len(accepted):])  # one edge
    for sigma in accepted[:5]:
        assert gaussian_packet(GRID, x0, sigma, 0.5).norm() == pytest.approx(1.0, rel=1e-12)


def test_apply_R_inverse_roundtrip():
    psi = gaussian_packet(GRID, 3.0, 6.0, 0.8)
    back = apply_R(apply_R(psi, FREE), FREE, inverse=True)
    assert l2(GRID, back.values - psi.values) / psi.norm() < 1e-13


def test_apply_R_diagonal_on_plane_wave():
    k = 9
    psi = plane_wave(GRID, k)
    p = 2.0 * np.pi * k / GRID.length
    out = apply_R(psi, FREE)
    np.testing.assert_allclose(out.values, r_symbol(p, FREE) * psi.values, atol=1e-14)


def test_r_magnitude_at_rest():
    assert abs(r_symbol(0.0, FREE)) == pytest.approx((2.0 * np.pi) ** -0.5 / math.sqrt(2.0),
                                                     rel=1e-14)


def test_plane_wave_identity_everywhere():
    assert plane_wave_identity_check(0.0, 1.0) < 1e-14
    assert plane_wave_identity_check(0.75, 1.0) < 1e-12
    assert plane_wave_identity_check(10.0, 1.0) < 1e-12
    for p in np.linspace(0.0, 10.0, 100):
        assert plane_wave_identity_check(p, 1.0) < 1e-12


def test_apply_R_commutes_with_uniform_evolution():
    v = np.full(GRID.n, 0.3)
    f = FieldConfig(a0=0.2, v_samples=v, mass=1.0)
    psi = gaussian_packet(GRID, -5.0, 7.0, 0.6)
    a = apply_R(evolve(psi, f, 0.1, 5), f)
    b = evolve(apply_R(psi, f), f, 0.1, 5)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


# ---------------------------------------------------------------------------
# nonrelativistic comparator


def test_schrodinger_overlap_at_t0():
    psi = gaussian_packet(GRID, 0.0, 20.0, 0.01)
    assert schrodinger_overlap(psi, FREE, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_schrodinger_overlap_low_energy():
    # support |p| < 0.02 m: p0 = 0.01, sigma_p = 0.002
    grid = SpatialGrid(n=1024, length=4000.0)
    f = FieldConfig.free(1.0, grid)
    psi = gaussian_packet(grid, 0.0, 250.0, 0.01)
    assert schrodinger_overlap(psi, f, 10.0) > 0.9999


def test_schrodinger_overlap_relativistic_regime():
    # support near |p| ~ m separates the two evolutions measurably
    grid = SpatialGrid(n=1024, length=400.0)
    f = FieldConfig.free(1.0, grid)
    psi = gaussian_packet(grid, 0.0, 5.0, 1.0)
    assert schrodinger_overlap(psi, f, 10.0) < 0.99


def test_schrodinger_overlap_requires_free_field():
    psi = gaussian_packet(GRID, 0.0, 8.0, 0.0)
    f = FieldConfig(a0=0.0, v_samples=np.full(GRID.n, 0.1), mass=1.0)
    with pytest.raises(ValueError):
        schrodinger_overlap(psi, f, 1.0)


# ---------------------------------------------------------------------------
# Klein-Gordon consistency


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("p,v", [(0.0, 0.0), (0.75, 0.0), (0.75, 0.2)])
def test_klein_gordon_residual_vanishes(sign, p, v):
    f = FieldConfig(a0=0.0, v_samples=np.full(GRID.n, v), mass=1.0)
    assert klein_gordon_residual(p, sign, f) < 1e-12


def test_klein_gordon_requires_uniform_potential():
    f = FieldConfig(a0=0.0, v_samples=np.linspace(0, 1, GRID.n), mass=1.0)
    with pytest.raises(ValueError):
        klein_gordon_residual(0.5, +1, f)


# ---------------------------------------------------------------------------
# density-flux series


def test_binomial_half_values():
    # exact: C(1/2, n) = (-1)^(n+1) C(2n, n) / (4^n (2n - 1)), a dyadic
    # rational that a double holds for these n
    for n in range(MAX_FLUX_ORDER + 1):
        assert Fraction(binom_half(n)) == Fraction((-1) ** (n + 1) * math.comb(2 * n, n),
                                                   4 ** n * (2 * n - 1))


def test_flux_coefficient_reproduces_current_term():
    # n = 1: coefficient of Q_2 equals the divergence of j = 1/(2 i m) Q_1,
    # because dQ_1/dx = Q_2 identically
    psi = gaussian_packet(FLUX_GRID, 5.0, 50.0, 0.04)
    vals = psi.values
    q1 = np.conj(vals) * spectral_derivative(vals, FLUX_GRID, 1)
    q1 = q1 - np.conj(q1)
    div_j = spectral_derivative(q1, FLUX_GRID, 1) / (2j * 1.0)
    d2 = spectral_derivative(vals, FLUX_GRID, 2)
    q2 = np.conj(vals) * d2 - vals * np.conj(d2)
    np.testing.assert_allclose(div_j, flux_coefficient(1, 1.0) * q2, atol=1e-15)


def test_flux_plane_wave_residual_vanishes():
    psi = plane_wave(FLUX_GRID, 30)
    report = density_flux_report(psi, FLUX_FREE, n_trunc=5)
    assert report.residual_l2[-1] < 1e-12
    assert len(report.term_magnitudes) == 5


def test_flux_real_gaussian_symmetry():
    # real state: every Q_n vanishes identically, and so does d(rho)/dt
    # (time-reversal symmetry), so every residual is rounding alone
    psi = gaussian_packet(FLUX_GRID, 0.0, 62.5, 0.0)
    vals = psi.values
    for order in (1, 3):
        dn = spectral_derivative(vals, FLUX_GRID, order)
        qn = np.conj(vals) * dn - vals * np.conj(dn)
        assert np.max(np.abs(qn)) < 1e-16
    report = density_flux_report(psi, FLUX_FREE, n_trunc=3)
    assert np.all(report.residual_l2 < 1e-16)
    assert np.all(report.term_magnitudes < 1e-15)


def test_flux_density_rate_is_the_limit_of_a_centered_difference():
    # oracle: (rho(dt) - rho(-dt)) / (2 dt) of exactly propagated states, plus
    # div j, tends to the report's order-1 residual as dt^2
    psi = gaussian_packet(FLUX_GRID, 0.0, 20.0, 0.3)
    vals = psi.values
    d2 = spectral_derivative(vals, FLUX_GRID, 2)
    div_j = (flux_coefficient(1, 1.0) * (np.conj(vals) * d2 - vals * np.conj(d2))).real
    exact = density_flux_report(psi, FLUX_FREE, n_trunc=1).residual_l2[0]
    gaps = []
    for dt in (1e-2, 1e-3):
        rho_p = free_propagate(psi, FLUX_FREE, dt).density()
        rho_m = free_propagate(psi, FLUX_FREE, -dt).density()
        fd = (rho_p - rho_m) / (2.0 * dt) + div_j
        gaps.append(abs(math.sqrt(float(np.sum(fd**2) * FLUX_GRID.dx)) - exact) / exact)
        assert gaps[-1] < 1e-2 * dt**2
    assert 30.0 < gaps[0] / gaps[1] < 300.0  # second order in dt


def test_flux_moving_gaussian_monotone_convergence():
    # narrow moving packet (momentum support < 0.1): each added term lowers
    # the residual; this is the module's convergence oracle
    psi = gaussian_packet(FLUX_GRID, 0.0, 62.5, 0.05)
    residuals = density_flux_report(psi, FLUX_FREE, n_trunc=4).residual_l2.tolist()
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert residuals[0] > 1e-8 and residuals[-1] < 1e-12


@pytest.mark.parametrize("packet", [gaussian_packet(FLUX_GRID, 0.0, 62.5, 0.05),
                                    plane_wave(FLUX_GRID, 30)])
def test_flux_report_orders_do_not_depend_on_the_truncation(packet):
    # one report holds every lower order: its first k entries are, bit for
    # bit, those of the report truncated at k
    full = density_flux_report(packet, FLUX_FREE, MAX_FLUX_ORDER)
    assert len(full.residual_l2) == len(full.term_magnitudes) == MAX_FLUX_ORDER
    for k in range(1, MAX_FLUX_ORDER + 1):
        short = density_flux_report(packet, FLUX_FREE, k)
        assert short.residual_l2.tobytes() == full.residual_l2[:k].tobytes()
        assert short.term_magnitudes.tobytes() == full.term_magnitudes[:k].tobytes()


def test_flux_terms_that_may_overflow_are_rejected():
    # c_n grows like m^(1 - 2n): at m = 1e-30 the order-5 term squared leaves double range
    n, length = FLUX_GRID.n, FLUX_GRID.length
    assert flux_term_error(n, length, 1.0, MAX_FLUX_ORDER) is None
    assert flux_term_error(n, length, 1e-10, 5) is None
    assert flux_term_error(n, length, 1e-30, 3) is None
    assert flux_term_error(n, length, 1e-30, 4) is not None
    psi = gaussian_packet(FLUX_GRID, 0.0, 62.5, 0.05)
    for mass in (1e-30, 1e-60, 1e-300):
        with pytest.raises(ValueError, match="mass"):
            density_flux_report(psi, FieldConfig.free(mass, FLUX_GRID), n_trunc=5)


def test_flux_energies_past_double_range_are_rejected():
    # mass^2 overflows in E(p): refused before any term is formed
    psi = gaussian_packet(FLUX_GRID, 0.0, 62.5, 0.05)
    with pytest.raises(ValueError, match="double range"):
        density_flux_report(psi, FieldConfig.free(1e200, FLUX_GRID), n_trunc=5)


def test_flux_series_rule_bounds_the_packet_momentum_by_the_mass():
    # E(p)'s series in (p / m)^2 converges for |p| < m only: the default packet
    # (p0 0.05, sigma 62.5) reaches 0.05 + 8 / 125 = 0.114
    assert series_error(1.0, 0.05, 62.5) is None
    assert series_error(0.2, 0.05, 62.5) is None
    assert series_error(0.12, -0.05, 62.5) is None
    for mass in (0.11, 0.1, 0.03, 0.01, 1e-10):
        assert series_error(mass, 0.05, 62.5) is not None
    assert series_error(0.5, 0.0, PACKET_MOMENTUM_SPREADS) is not None  # reaches 0.5 exactly
    assert series_error(0.5, 0.0, 2.0 * PACKET_MOMENTUM_SPREADS) is None


def test_flux_series_inside_the_rule_converges():
    # at mass 0.2 the default packet reaches 0.114 / 0.2 of the radius of convergence
    psi = gaussian_packet(FLUX_GRID, 0.0, 62.5, 0.05)
    residuals = density_flux_report(psi, FieldConfig.free(0.2, FLUX_GRID), 5).residual_l2
    assert np.all(np.diff(residuals) < 0) and residuals[-1] < 1e-9


def test_flux_validation():
    psi = gaussian_packet(FLUX_GRID, 0.0, 62.5, 0.05)
    for n_trunc in (9, True):
        with pytest.raises(ValueError):
            density_flux_report(psi, FLUX_FREE, n_trunc=n_trunc)
    with_v = FieldConfig(a0=0.0, v_samples=np.full(FLUX_GRID.n, 0.1), mass=1.0)
    with pytest.raises(ValueError):
        density_flux_report(psi, with_v, n_trunc=2)
