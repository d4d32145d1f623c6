"""Spectral wave-function propagation under the square-root Hamiltonian.

The evolution law in one dimension (natural units, hbar = c = 1) is

    i d/dt psi = [ sqrt(m^2 + (p_hat - A0)^2) + V(x) ] psi

with a uniform vector potential A0 and a real scalar potential V(x).  The
square root is applied exactly on the discrete momentum basis of a periodic
grid.  With V = 0 the propagator is the pure phase e^{-i E(p) t}, so evolve
propagates a free field exactly, in one spectral multiply per call whatever
the step count.  With V != 0 it takes Strang steps half-V, kinetic, half-V,
with V applied in position space.

The whole-weight operator R_hat of the short-time kernel acts diagonally in
momentum space with symbol

    r(p) = (2 i pi)^(-1/2) E(p) / sqrt(m + E(p)),     E(p) = sqrt(m^2 + (p-A0)^2)

and the density-flux diagnostic expands d(rho)/dt + div j into the series of
Q functionals

    Q_k = psi* d^k psi - psi d^k psi*,

whose coefficients come from the generalized binomial expansion of E(p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._integers import is_integer

_INV_SQRT_2PI_I = (2j * np.pi) ** -0.5

MAX_FLUX_ORDER = 8
#: Momentum spreads 1/(2 sigma) of a Gaussian packet that must fit below the
#: grid's Nyquist momentum; its momentum density there is e^-32 of the peak.
PACKET_MOMENTUM_SPREADS = 8.0


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid; n must be a power of two >= 16.

    Momentum values are 2 pi k / length with the integer index k wrapped to
    (-n/2, n/2], i.e. the Nyquist mode is taken with positive sign.
    """

    n: int
    length: float

    def __post_init__(self):
        n = self.n
        if not is_integer(n) or n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 16, got {n!r}")
        if not (self.length > 0 and math.isfinite(self.length)):
            raise ValueError(f"grid length must be positive and finite, got {self.length!r}")

    @property
    def dx(self):
        return self.length / self.n

    @property
    def x(self):
        """Sample positions centered on the origin."""
        return (np.arange(self.n) - self.n // 2) * self.dx

    @property
    def p(self):
        """Momentum grid in FFT ordering, Nyquist wrapped to +n/2."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)
        k[self.n // 2] = self.n // 2
        return 2.0 * np.pi * k / self.length


@dataclass(frozen=True)
class WaveFunction:
    """Complex samples on a SpatialGrid; immutable after construction."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.n,):
            raise ValueError(f"values must have shape ({self.grid.n},), got {values.shape}")
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("wave function samples must be finite")
        nrm2 = float(np.sum(np.abs(values) ** 2) * self.grid.dx)
        if not (nrm2 > 0.0 and math.isfinite(nrm2)):
            raise ValueError(f"squared norm must be in (0, inf), got {nrm2!r}")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def norm(self):
        return math.sqrt(float(np.sum(np.abs(self.values) ** 2) * self.grid.dx))

    def density(self):
        return np.abs(self.values) ** 2

    def centroid(self):
        rho = self.density()
        return float(np.sum(self.grid.x * rho) / np.sum(rho))


@dataclass(frozen=True)
class FieldConfig:
    """Uniform vector potential a0, scalar potential samples, and mass."""

    a0: float
    v_samples: np.ndarray
    mass: float

    def __post_init__(self):
        if not math.isfinite(self.a0):
            raise ValueError("a0 must be finite")
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise ValueError("mass must be positive and finite")
        v = np.asarray(self.v_samples, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("potential samples must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "v_samples", v)

    @classmethod
    def free(cls, mass, grid: SpatialGrid, a0=0.0):
        return cls(a0=a0, v_samples=np.zeros(grid.n), mass=mass)


@dataclass(frozen=True)
class FluxReport:
    """Truncated density-flux balance order by order: entry k - 1 holds the
    residual L2 norm at truncation order k and the L2 norm of the term it adds."""

    residual_l2: np.ndarray
    term_magnitudes: np.ndarray


def packet_error(n, length, x0, sigma):
    """Why gaussian_packet cannot sample its packet on an n-point grid of the
    given length, or None: the sample nearest x0, squared and times dx, must be
    a normal double, or the norm underflows (a packet much narrower than dx, or
    centred off the grid); and the exponent (x - x0)^2 / (4 sigma^2) must stay
    in double range at the grid's farthest sample."""
    dx = length / n
    d = round(min(max(x0 / dx, -(n // 2)), n // 2 - 1)) * dx - x0
    width2 = 4.0 * sigma * sigma
    if not (width2 > 0.0
            and -2.0 * (d * d) / width2 + math.log(dx) >= math.log(np.finfo(float).tiny)):
        return ("must keep the packet's largest sample on the grid, squared and times dx, "
                "a normal double")
    span = max(abs(-(n // 2) * dx - x0), abs((n // 2 - 1) * dx - x0))  # to the farthest sample
    if not (width2 < math.inf and span * span / width2 < math.inf):
        return "must keep 4 sigma^2, (x - x0)^2 and their ratio finite over the grid"
    return None


def momentum_error(n, length, p0, sigma):
    """Why a Gaussian packet of momentum p0 and width sigma aliases on an
    n-point grid of the given length, or None: |p0| plus
    PACKET_MOMENTUM_SPREADS spreads 1/(2 sigma) must not pass the Nyquist
    momentum pi n / length.  gaussian_packet does not apply this rule."""
    if abs(p0) + PACKET_MOMENTUM_SPREADS / (2.0 * sigma) <= math.pi * n / length:
        return None
    return (f"must keep |p0| + {PACKET_MOMENTUM_SPREADS:g} / (2 sigma) within the grid's Nyquist "
            f"momentum pi grid_n / length = {math.pi * n / length!r}")


def mode_error(n, k_index):
    """Why plane_wave(grid, k_index) on an n-point grid is not the mode asked
    for, or None: index n/2 is the Nyquist mode, whose odd derivatives the
    spectral operators zero, and higher ones alias to k_index - n."""
    if 0 <= k_index < n // 2:
        return None
    return f"must lie in [0, grid_n / 2) = [0, {n // 2}): higher modes alias"


def gaussian_packet(grid: SpatialGrid, x0, sigma, p0) -> WaveFunction:
    """Normalized Gaussian exp(-(x-x0)^2/(4 sigma^2) + i p0 x); ValueError
    where packet_error finds it underflows on the grid."""
    if msg := packet_error(grid.n, grid.length, x0, sigma):
        raise ValueError(f"sigma {msg}, got sigma={sigma!r} at x0={x0!r}")
    x = grid.x
    values = np.exp(-((x - x0) ** 2) / (4.0 * sigma * sigma) + 1j * p0 * x)
    values /= math.sqrt(float(np.sum(np.abs(values) ** 2) * grid.dx))
    return WaveFunction(grid=grid, values=values)


def plane_wave(grid: SpatialGrid, k_index) -> WaveFunction:
    """Normalized grid-commensurate plane wave e^{i p_k x}/sqrt(L)."""
    p = 2.0 * np.pi * k_index / grid.length
    values = np.exp(1j * p * grid.x) / math.sqrt(grid.length)
    return WaveFunction(grid=grid, values=values)


def dispersion(p, f: FieldConfig):
    """E(p) = sqrt(m^2 + (p - a0)^2); V is handled by operator splitting."""
    p = np.asarray(p, dtype=float)
    out = np.sqrt(f.mass * f.mass + (p - f.a0) ** 2)
    return float(out) if out.ndim == 0 else out


def max_energy(n, length, mass, a0=0.0):
    """A bound on E(p) over an n-point grid of the given length, exact for
    a0 <= 0, computed without overflow.  ValueError past about 1.34e154, where
    dispersion, which squares mass and p - a0, overflows."""
    e_max = math.hypot(mass, abs(a0) + math.pi * n / length)
    if not math.isfinite(e_max * e_max):
        raise ValueError(f"mass^2 + (p - a0)^2 leaves double range on the grid (max E(p) {e_max!r})")
    return e_max


def free_propagate(psi: WaveFunction, f: FieldConfig, t) -> WaveFunction:
    """Exact spectral propagation e^{-i E(p) t} for V = 0; t may be 0 or negative."""
    phase = np.exp(-1j * dispersion(psi.grid.p, f) * t)
    values = np.fft.ifft(phase * np.fft.fft(psi.values))
    return WaveFunction(grid=psi.grid, values=values)


def evolve(psi: WaveFunction, f: FieldConfig, dt, steps) -> WaveFunction:
    """Propagate psi by steps * dt: for V = 0 exactly, in one spectral multiply
    per call (free_propagate); for V != 0 by Strang steps half-V, exact kinetic
    phase, half-V.  Norm is preserved to machine precision for real V.  Raises
    RuntimeError naming the first step whose state is not finite.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not is_integer(steps) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    grid = psi.grid
    if f.v_samples.shape != (grid.n,):
        raise ValueError("potential samples must live on the wave function's grid")
    if not np.any(f.v_samples):
        # the exact state after step k is non-finite once E(p) k dt overflows
        e_max = float(np.max(dispersion(grid.p, f)))
        if not math.isfinite(e_max * (dt * steps)):
            first = int(min(np.finfo(float).max / (e_max * dt), steps - 1)) + 1
            raise _non_finite(first, steps, dt, f)
        return free_propagate(psi, f, dt * steps)
    kin_phase = np.exp(-1j * dispersion(grid.p, f) * dt)
    half_v = np.exp(-0.5j * f.v_samples * dt)
    values = psi.values
    for step in range(1, steps + 1):
        # Out of place, operands in this order: complex multiply is not bitwise commutative.
        values = half_v * np.fft.ifft(kin_phase * np.fft.fft(half_v * values))
        if not np.all(np.isfinite(values.view(float))):
            raise _non_finite(step, steps, dt, f)
    return WaveFunction(grid=grid, values=values)


def _non_finite(step, steps, dt, f):
    return RuntimeError(f"evolution produced non-finite samples at step {step} of {steps} "
                        f"(dt={dt}, a0={f.a0}, mass={f.mass})")


def r_symbol(p, f: FieldConfig):
    """Momentum-space symbol of the whole-weight operator R_hat."""
    e = dispersion(p, f)
    return _INV_SQRT_2PI_I * e / np.sqrt(f.mass + e)


def apply_R(psi: WaveFunction, f: FieldConfig, inverse=False) -> WaveFunction:
    """Multiply each momentum component by r(p) (or 1/r(p)); exact inverse pair."""
    r = r_symbol(psi.grid.p, f)
    if inverse:
        r = 1.0 / r
    values = np.fft.ifft(r * np.fft.fft(psi.values))
    return WaveFunction(grid=psi.grid, values=values)


def plane_wave_identity_check(p, mass) -> float:
    """|r(E_p) (i pi tau0)^(1/2) [(1-i tau0 p)^(-1/2) + (1+i tau0 p)^(-1/2)] - 1|.

    The zero-interval consistency of the short-time kernel; analytically zero
    for every p, so the return value is pure floating-point error.
    """
    tau0 = 1.0 / mass
    e = math.sqrt(mass * mass + p * p)
    r = _INV_SQRT_2PI_I * e / math.sqrt(mass + e)
    bracket = (1.0 - 1j * tau0 * p) ** -0.5 + (1.0 + 1j * tau0 * p) ** -0.5
    return abs(r * (1j * math.pi * tau0) ** 0.5 * bracket - 1.0)


def schrodinger_overlap(psi0: WaveFunction, f: FieldConfig, t) -> float:
    """Overlap between square-root and quadratic evolution of the same state.

    Both propagators keep the rest-mass phase (e^{-i E(p) t} versus
    e^{-i (m + p^2/2m) t}), so the result is basis-independent.  Free case
    only: V must vanish.
    """
    if np.any(f.v_samples != 0.0):
        raise ValueError("schrodinger_overlap compares free evolutions; V must be zero")
    p = psi0.grid.p
    weights = np.abs(np.fft.fft(psi0.values)) ** 2
    e_rel = dispersion(p, f)
    e_nr = f.mass + (p - f.a0) ** 2 / (2.0 * f.mass)
    overlap = np.sum(weights * np.exp(1j * (e_nr - e_rel) * t))
    return float(abs(overlap) / np.sum(weights))


def klein_gordon_residual(p, sign, f: FieldConfig) -> float:
    """Residual of (i d/dt - V)^2 psi = (m^2 + (p-a0)^2) psi on the plane-wave
    ansatz psi_+- = (Phi_+ +- Phi_-)/sqrt(2) with frequencies +-E(p) + V.

    Evaluated analytically on the ansatz: both branch coefficients vanish
    identically, so the return value measures only rounding.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    v = float(f.v_samples[0]) if np.size(f.v_samples) else 0.0
    if np.any(f.v_samples != v):
        raise ValueError("klein_gordon_residual requires a uniform potential")
    e = dispersion(p, f)
    m2 = f.mass * f.mass + (p - f.a0) ** 2
    omega_plus = e + v
    omega_minus = -e + v
    res_plus = (omega_plus - v) ** 2 - m2
    res_minus = (omega_minus - v) ** 2 - m2
    return abs(res_plus + sign * res_minus) / math.sqrt(2.0)


def binom_half(n):
    """Generalized binomial C(1/2, n) = prod_{k<n} (1/2 - k)/(k + 1), exact in
    double precision for n <= MAX_FLUX_ORDER (every partial product is a
    dyadic rational that fits the mantissa)."""
    value = 1.0
    for k in range(n):
        value = value * (0.5 - k) / (k + 1)
    return value


def flux_coefficient(n, mass):
    """Coefficient of Q_{2n} in the density-flux balance.

    (-i)^(2n-1) C(1/2, n) / m^(2n-1) in natural units; n = 1 reproduces the
    probability current term div j = 1/(2 i m) dQ_1 exactly.
    """
    return complex((-1j) ** (2 * n - 1)) * binom_half(n) * mass ** (1 - 2 * n)


def spectral_derivative(values, grid: SpatialGrid, order):
    """d^order/dx^order on the periodic grid; odd orders zero the Nyquist mode."""
    mult = (1j * grid.p) ** order
    if order % 2 == 1:
        mult = mult.copy()
        mult[grid.n // 2] = 0.0
    return np.fft.ifft(mult * np.fft.fft(values))


def flux_term_error(n, length, mass, n_trunc):
    """Why density_flux_report's terms up to order n_trunc may overflow, or
    None: for a normalized state term k is at most m (p_max / m)^(2k) / dx,
    as |c_k| <= m^(1 - 2k) / 2; squared, times max(length, 1), it must stay a
    double.  The largest k is n_trunc when p_max = pi n / length exceeds m, else 1."""
    log_p, log_m, log_dx = math.log(math.pi * n / length), math.log(mass), math.log(length / n)
    k = n_trunc if log_p > log_m else 1
    if 2.0 * (log_m - log_dx + 2 * k * (log_p - log_m)) <= math.log(
            np.finfo(float).max / max(length, 1.0)):
        return None
    return ("must keep mass (p_max / mass)^(2 n_trunc_max) / dx, p_max = pi grid_n / length, "
            "squared and times max(length, 1), a double")


def series_error(mass, p0, sigma):
    """Why the density-flux series of a Gaussian packet of momentum p0 and width
    sigma diverges at this mass, or None: E(p)'s series in (p / m)^2 converges
    for |p| < m only.  density_flux_report does not apply this rule."""
    if abs(p0) + PACKET_MOMENTUM_SPREADS / (2.0 * sigma) < mass:
        return None
    return f"must exceed the packet's momentum reach |p0| + {PACKET_MOMENTUM_SPREADS:g} / (2 sigma)"


def density_flux_report(psi: WaveFunction, f: FieldConfig, n_trunc) -> FluxReport:
    """Residual of the truncated density-flux balance for the free square-root
    Hamiltonian at every order k = 1..n_trunc,

        d(rho)/dt + sum_{n=1..k} c_n Q_{2n} = 0,

    with c_n = flux_coefficient(n, m), whose n = 1 term is div j, and the exact
    d(rho)/dt = 2 Im(psi* H psi), H = E(p) applied spectrally.  Each order adds
    one term to the residual of the order before, so residual_l2[:k] does not
    depend on n_trunc >= k; term_magnitudes holds the L2 norms of the terms.

    High-order Q functionals amplify spectral roundoff like p_max^(2n); use
    grids whose momentum range is O(m) when pushing n_trunc up.
    """
    if np.any(f.v_samples != 0.0) or f.a0 != 0.0:
        raise ValueError("density_flux_report is derived for the free case: V = 0, a0 = 0")
    if not is_integer(n_trunc) or not (1 <= n_trunc <= MAX_FLUX_ORDER):
        raise ValueError(f"n_trunc must be an integer in [1, {MAX_FLUX_ORDER}], got {n_trunc!r}")
    grid = psi.grid
    max_energy(grid.n, grid.length, f.mass)  # E(p) stays in double range
    if msg := flux_term_error(grid.n, grid.length, f.mass, n_trunc):
        raise ValueError(f"mass {msg}, got mass={f.mass!r}")

    def l2(values):
        return math.sqrt(float(np.sum(np.abs(values) ** 2) * grid.dx))
    values = psi.values
    h_psi = np.fft.ifft(dispersion(grid.p, f) * np.fft.fft(values))
    residual, norms = 2.0 * (np.conj(values) * h_psi).imag, []
    for n in range(1, n_trunc + 1):
        d2n = spectral_derivative(values, grid, 2 * n)
        term = flux_coefficient(n, f.mass) * (np.conj(values) * d2n - values * np.conj(d2n))
        residual = residual + term.real
        norms.append((l2(residual), l2(term)))
    return FluxReport(*np.asarray(norms).T)
