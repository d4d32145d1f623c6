"""Reference implementations the tests check the library against.

Each is a second route to something the library computes another way: the
two-amplitude collapse recursion beside the ratio-map engine, the mixing
matrix from its defining form beside the linear two-state model, and the
small-momentum moment series beside the plane-wave quadrature.  No command,
demo or benchmark runs them, so they live here and not in relqlab.  The
name does not match test_*.py, so pytest imports this module from the test
modules but does not collect it.  It imports only public relqlab names: an
oracle that shared the engines' private code would not be independent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from relqlab.collapse import AMPLITUDE_FLOOR, TwoStateAmplitudes, TwoStateSystem, check_noise
from relqlab.evolution import FieldConfig, WaveFunction, r_symbol
from relqlab.pathweight import PhysicalScale
from relqlab.specfun import MAX_MOMENT_ORDER, MomentQuery, kernel_moment_closed

_INV_SQRT_2PI_I = (2j * np.pi) ** -0.5


# ---------------------------------------------------------------------------
# collapse


def lambda_two_state(a: TwoStateAmplitudes, sys: TwoStateSystem):
    """Diagonal factors of the linear mixing model: (l00, l11)."""
    r = sys.r_ratio
    p0, p1 = a.a0 * a.a0, a.a1 * a.a1
    return p0 + p1 * r, p1 + p0 / r


def step_kernel(a0, a1, n0, n1, r):
    """One step of the three stages on raw amplitudes; zero noise is a fixed
    point, an amplitude below the floor is never divided by."""
    if a1 < AMPLITUDE_FLOOR:  # level 1 gone: definite level 0
        return 1.0, 0.0
    if a0 < AMPLITUDE_FLOOR:
        return 0.0, 1.0
    if n0 == 0.0 and n1 == 0.0:
        return a0, a1
    p0, p1 = a0 * a0, a1 * a1
    l00, l11 = p0 + p1 * r, p1 + p0 / r
    k0, k1 = a0 * (1.0 - n0), a1 * (1.0 - n1)
    b0 = l00 * k0 + (a0 / a1) * (1.0 - l00) * k1
    b1 = (a1 / a0) * (1.0 - l11) * k0 + l11 * k1
    norm = math.sqrt(b0 * b0 + b1 * b1)
    return b0 / norm, b1 / norm


def collapse_step(a_prev: TwoStateAmplitudes, sys: TwoStateSystem, f) -> TwoStateAmplitudes:
    """Kick with noise value f, mix with the pre-kick linear-model factors,
    renormalize."""
    check_noise(sys, abs(f))
    g0, g1 = sys.noise_gains
    b0, b1 = step_kernel(a_prev.a0, a_prev.a1, f * g0, f * g1, sys.r_ratio)
    return TwoStateAmplitudes(a0=float(b0), a1=float(b1))


# ---------------------------------------------------------------------------
# evolution


def apply_R(psi: WaveFunction, f: FieldConfig, inverse=False) -> WaveFunction:
    """Multiply each momentum component by r(p) (or 1/r(p)); exact inverse pair."""
    r = r_symbol(psi.grid.p, f)
    if inverse:
        r = 1.0 / r
    values = np.fft.ifft(r * np.fft.fft(psi.values))
    return WaveFunction(grid=psi.grid, values=values)


def lambda_general(psi: WaveFunction, basis, energies, f: FieldConfig):
    """Mixing matrix from its defining form: lambda_nm = <phi_n| RR(x) R^-1 |phi_m>
    with RR(x) = psi(x) / (R^-1 psi)(x).

    basis must be orthonormal eigenmodes on psi's grid (Gram matrix within
    1e-10 of the identity) and energies their dispersion eigenvalues.  Grid
    points where |R^-1 psi| falls below 1e-12 of its maximum are excluded; a
    warning is issued when the excluded probability mass exceeds 1e-6.  Used
    to validate the two-state linear model against the defining formula.
    """
    grid = psi.grid
    dx = grid.dx
    modes = np.asarray([b.values for b in basis])
    gram = modes.conj() @ modes.T * dx
    if not np.allclose(gram, np.eye(len(basis)), atol=1e-10):
        raise ValueError("basis modes must be orthonormal on the grid (Gram within 1e-10)")
    energies = np.asarray(energies, dtype=float)
    if energies.shape != (len(basis),):
        raise ValueError("need one energy per basis mode")

    rinv_psi = apply_R(psi, f, inverse=True).values
    keep = np.abs(rinv_psi) >= 1e-12 * np.max(np.abs(rinv_psi))
    excluded_mass = float(np.sum(np.abs(psi.values[~keep]) ** 2) * dx)
    if excluded_mass > 1e-6:
        warnings.warn(
            f"lambda_general excluded {np.sum(~keep)} near-zero denominator nodes "
            f"carrying probability mass {excluded_mass:.3g}",
            RuntimeWarning,
        )

    ratio = np.zeros_like(psi.values)
    ratio[keep] = psi.values[keep] / rinv_psi[keep]
    r_eigen = _INV_SQRT_2PI_I * energies / np.sqrt(f.mass + energies)
    lam = (modes.conj() * ratio[None, :]) @ modes.T * dx / r_eigen[None, :]
    return lam


# ---------------------------------------------------------------------------
# pathweight


class SeriesTruncationError(RuntimeError):
    """Moment series still contributing above tolerance at the order cap."""


@dataclass(frozen=True)
class SampledField:
    """Field samples on a sorted spatial grid, evaluated by linear interpolation."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.size != values.size or x.size < 2:
            raise ValueError("field needs matching 1-d sample arrays with >= 2 points")
        if np.any(np.diff(x) <= 0):
            raise ValueError("field sample positions must be strictly increasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", values)

    def __call__(self, xq):
        xq = np.asarray(xq, dtype=float)
        if np.any(xq < self.x[0]) or np.any(xq > self.x[-1]):
            raise ValueError("path exits the sampled field domain")
        return np.interp(xq, self.x, self.values)


def short_time_plane_wave_series(p_momentum, eps0, scale: PhysicalScale) -> complex:
    """Short-time amplitude summed term by term over the closed kernel moments.

    The Taylor route in p: amplitude = 2 sqrt(tau0) sum_n (-1)^n (p tau0)^{2n}
    / (2n)! M_n(eps0).  Its radius of convergence is |p| = m (the branch
    points of the closed form), so it serves as a cross-check at small p;
    a SeriesTruncationError is raised when the last term, n = MAX_MOMENT_ORDER,
    still contributes more than 1e-10 relatively.
    """
    tau0 = scale.tau0
    ptau = p_momentum * tau0
    total = 0.0 + 0.0j
    coeff = 1.0  # (-1)^n (p tau0)^(2n) / (2n)!
    last_rel = np.inf
    for n in range(MAX_MOMENT_ORDER + 1):
        term = coeff * kernel_moment_closed(MomentQuery(n=n, eps0=eps0))
        total += term
        last_rel = abs(term) / max(abs(total), 1e-300)
        coeff *= -ptau * ptau / ((2 * n + 1) * (2 * n + 2))
    if last_rel > 1e-10:
        raise SeriesTruncationError(
            f"moment series still contributing {last_rel:.2e} relatively at n={MAX_MOMENT_ORDER}; "
            f"|p| tau0 = {abs(ptau):.3g} is too large for the Taylor route"
        )
    return 2.0 * math.sqrt(tau0) * total
