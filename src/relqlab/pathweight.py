"""Path functionals, the relativistic path weight, and short-time kernels.

Natural units throughout: hbar = c = 1, so a particle of mass m has Compton
time tau0 = 1/m and Compton length 1/m.  A sampled trajectory is a broken
line with piecewise-constant segment velocities; segments are allowed to be
superluminal, in which case every square root of 1 - v^2 follows the fixed
branch rule

    sqrt(1 - v^2) := -i sqrt(v^2 - 1)   for |v| >= 1.

The three functionals of a path are

    PBB  = sum_i m |v_i| / sqrt(1 - v_i^2) dt      (momentum integral)
    PCAL = sum_i sqrt(2 m^2 (1/sqrt(1-v_i^2) - 1)) dt   (kinetic integral)
    DTAU = sum_i sqrt(1 - v_i^2) dt                (proper time)

and the weight attached to the path is W = (PBB/PCAL) (DTAU/2)^(-1/2) with
principal-branch fractional powers.  For subluminal paths all three
functionals are real; superluminal segments make them complex, which is why
they are stored as complex numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_UNIFORM_STEP_RTOL = 1e-12
PLANE_WAVE_EPS0 = (1e-3, 30.0)  # short_time_plane_wave's declared domain, with |p| tau0 <= 10
PLANE_WAVE_MAX_PTAU = 10.0
PLANE_WAVE_RTOL = 1e-11  # largest relative gap it accepts between its 16- and 24-node sums


class QuadratureConvergenceError(RuntimeError):
    """Two quadrature rules meant to agree differ beyond their declared bound."""


class LightlikeSegmentError(ValueError):
    """A segment with |v| = 1 exactly; the momentum integrand diverges."""


class WeightUndefinedError(ValueError):
    """Path weight requested for a rest path (kinetic functional zero)."""


@dataclass(frozen=True)
class PhysicalScale:
    """Mass scale in natural units; energies are multiples of m c^2."""

    mass: float

    def __post_init__(self):
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be positive and finite, got {self.mass!r}")

    @property
    def tau0(self):
        """Compton time 1/m."""
        return 1.0 / self.mass


@dataclass(frozen=True)
class Path:
    """Time-ordered sampled trajectory on a uniform time grid."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        positions = np.asarray(self.positions, dtype=float)
        if times.ndim != 1 or positions.ndim != 1 or times.size != positions.size:
            raise ValueError("times and positions must be 1-d sequences of equal length")
        if times.size < 2:
            raise ValueError("a path needs at least 2 samples")
        steps = np.diff(times)
        if np.any(steps <= 0):
            raise ValueError("times must be strictly increasing")
        dt = steps[0]
        if np.any(np.abs(steps - dt) > _UNIFORM_STEP_RTOL * abs(dt)):
            raise ValueError("time step must be uniform to 1e-12 relative")
        times = times.copy()
        positions = positions.copy()
        times.flags.writeable = False
        positions.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])

    @property
    def velocities(self):
        """Piecewise-constant segment velocities (may exceed 1)."""
        return np.diff(self.positions) / self.dt


@dataclass(frozen=True)
class PathFunctionals:
    """Momentum, kinetic, and proper-time functionals of one path.

    All three are real (pbb, pcal >= 0; 0 < dtau <= the path's duration)
    whenever every segment is subluminal; superluminal segments rotate them
    into the complex plane through the branch rule.
    """

    pbb: complex
    pcal: complex
    dtau: complex


def _sqrt_one_minus_v2(v2):
    """Branch rule: sqrt(1-v^2) for v^2 < 1, -i sqrt(v^2-1) for v^2 > 1."""
    v2 = np.asarray(v2, dtype=float)
    out = np.empty(v2.shape, dtype=complex)
    sub = v2 < 1.0
    out[sub] = np.sqrt(1.0 - v2[sub])
    out[~sub] = -1j * np.sqrt(v2[~sub] - 1.0)
    return out


def path_functionals(path: Path, scale: PhysicalScale) -> PathFunctionals:
    """Momentum, kinetic-energy, and proper-time functionals of a sampled path."""
    v = path.velocities
    v2 = v * v
    if np.any(v2 == 1.0):
        raise LightlikeSegmentError("lightlike segment: |v| = 1 makes the momentum integrand diverge")
    dt = path.dt
    root = _sqrt_one_minus_v2(v2)
    m = scale.mass
    pbb = np.sum(m * np.abs(v) / root) * dt
    pcal = np.sum(np.sqrt(2.0 * m * m * (1.0 / root - 1.0) + 0j)) * dt
    dtau = np.sum(root) * dt
    return PathFunctionals(pbb=complex(pbb), pcal=complex(pcal), dtau=complex(dtau))


def path_weight(pf: PathFunctionals) -> complex:
    """W = (PBB/PCAL) (DTAU/2)^(-1/2), principal branches."""
    if pf.pcal == 0:
        raise WeightUndefinedError(
            "path weight undefined for a rest path; use the nonrelativistic limit"
        )
    return (pf.pbb / pf.pcal) * (0.5 * pf.dtau) ** -0.5


def path_action(path: Path, scale: PhysicalScale, a_field=None, v_field=None) -> complex:
    """Relativistic action sum_i [-m sqrt(1-v_i^2) + A(x_mid) v_i - V(x_mid)] dt.

    a_field / v_field are callables that map an array of positions to an
    array of field values (or None for zero field); both are evaluated at
    segment midpoints.
    """
    v = path.velocities
    v2 = v * v
    dt = path.dt
    x_mid = 0.5 * (path.positions[:-1] + path.positions[1:])
    lagr = -scale.mass * _sqrt_one_minus_v2(v2)
    if a_field is not None:
        lagr = lagr + a_field(x_mid) * v
    if v_field is not None:
        lagr = lagr - v_field(x_mid)
    return complex(np.sum(lagr) * dt)


def short_time_closed_form(p_momentum, eps0, scale: PhysicalScale) -> complex:
    """Closed-form short-time plane-wave amplitude (scalar part, before the
    whole-weight operator):

        (i tau0 pi)^(1/2) [(1 - i tau0 p)^(-1/2) + (1 + i tau0 p)^(-1/2)] e^{-i E_p eps}

    with E_p = sqrt(m^2 + p^2) and eps = eps0 tau0.
    """
    tau0 = scale.tau0
    ptau = p_momentum * tau0
    ep_eps = math.sqrt(1.0 + ptau * ptau) * eps0  # E_p * eps in natural units
    bracket = (1.0 - 1j * ptau) ** -0.5 + (1.0 + 1j * ptau) ** -0.5
    return (1j * tau0 * math.pi) ** 0.5 * bracket * np.exp(-1j * ep_eps)


@functools.cache  # on first use: importing numpy.polynomial slows every import of relqlab
def _legendre_16_24():
    """Nodes and weights on [-1, 1] of the 16-point Gauss-Legendre rule, then the 24-point."""
    (x16, w16), (x24, w24) = (np.polynomial.legendre.leggauss(k) for k in (16, 24))
    return np.concatenate([x16, x24]), np.concatenate([w16, w24])


def _panel_sums(func, edges):
    """Integrals of func over the panels between edges by the 16- and by the
    24-node Gauss-Legendre rule, from one call of func on both rules' nodes."""
    x, w = _legendre_16_24()
    half, left = 0.5 * np.diff(edges)[:, None], np.asarray(edges)[:-1, None]
    terms = half * w * func(left + half * (1.0 + x))
    return complex(np.sum(terms[:, :16])), complex(np.sum(terms[:, 16:]))


def short_time_plane_wave(p_momentum, eps0, scale: PhysicalScale) -> complex:
    """Short-time amplitude for phi = e^{ipx} by direct contour quadrature.

    Evaluates the subluminal and superluminal velocity integrals on the
    contour C = (0, 1] plus u = 1 + i w that defines the kernel moments, with
    the plane wave symmetrized into cos(p v eps).  The moments' single ray
    u = i t does not serve here: on it Im v tends to 1, so cos(q v), with
    q = |p| tau0 eps0, grows like e^q.  Unlike the moment series it holds
    beyond |p| = m.  Each leg is a composite Gauss-Legendre sum: the real
    leg, in s = u^(1/2) on (0, 1], on ceil((2 eps0 + 1.5 q) / 6) equal panels
    (at most 6 radians of phase each); the tail, in y = eps0 w on (0, 46], on
    panels no wider than cap = 4 / max(|p| tau0, 1), the first ending at
    min(eps0, cap) and each later one no wider than its distance from 0, which
    keeps the branch points y = +-i eps0 clear.  The 24-node sum is returned
    once the 16-node one agrees with it to PLANE_WAVE_RTOL, else
    QuadratureConvergenceError.  Declared for eps0 in PLANE_WAVE_EPS0 and
    |p| tau0 <= PLANE_WAVE_MAX_PTAU; ValueError outside.
    """
    tau0 = scale.tau0
    ptau = abs(p_momentum * tau0)
    if not (PLANE_WAVE_EPS0[0] <= eps0 <= PLANE_WAVE_EPS0[1] and ptau <= PLANE_WAVE_MAX_PTAU):
        raise ValueError(f"short_time_plane_wave is declared for eps0 in {PLANE_WAVE_EPS0} and "
                         f"|p| tau0 <= {PLANE_WAVE_MAX_PTAU:g}, got {eps0!r} and {ptau!r}")
    q = ptau * eps0  # phase |p| v eps at v = 1

    def f_real(s):
        u = s * s
        v = np.sqrt(u * (2.0 - u))
        return 2.0 * np.exp(1j * eps0 * (u - 1.0)) * np.cos(q * v)

    def f_tail(y):
        w = y / eps0
        v = np.sqrt(1.0 + w * w)
        a = np.sqrt(0.5 * (v + 1.0))  # i (1 + i w)^(-1/2) = (w / (2a) + i a) / v for w > 0
        return (w / (2.0 * a) + 1j * a) * (np.exp(-y) * np.cos(q * v) / (eps0 * v))

    real_edges = np.linspace(0.0, 1.0, math.ceil((2.0 * eps0 + 1.5 * q) / 6.0) + 1)
    cap = 4.0 / max(ptau, 1.0)
    tail_edges = [0.0, min(eps0, cap)]
    while tail_edges[-1] < 46.0:  # the tail decays like e^-y: e^-46 ~ 1e-20
        tail_edges.append(min(2.0 * tail_edges[-1], tail_edges[-1] + cap, 46.0))
    real16, real24 = _panel_sums(f_real, real_edges)
    tail16, tail24 = _panel_sums(f_tail, tail_edges)
    coarse, fine = real16 + tail16, real24 + tail24
    if not abs(fine - coarse) <= PLANE_WAVE_RTOL * abs(fine):
        raise QuadratureConvergenceError(f"16- and 24-node sums differ by {fine - coarse!r} "
                                         f"of {fine!r} at eps0={eps0!r}, |p| tau0={ptau!r}")
    return 2.0 * math.sqrt(tau0) * math.sqrt(eps0) * fine


def equal_time_kernel_profile(eta, a_line_integral, scale: PhysicalScale) -> complex | np.ndarray:
    """Profile of the equal-time kernel, whole-weight operator excluded:

        sqrt(1/(i|eta|)) exp(-(m |eta| + i * integral of A along the gap)).

    Unlike a delta function this decays on the Compton length 1/m, which is
    the nonlocal equal-time correlation the collapse machinery relies on.
    eta is a scalar, which returns a complex, or an array.  Each value keeps
    the scalar formula's bits: Python's complex power per value and the
    product in real arithmetic, as numpy's array power and multiply round differently.
    """
    aeta = np.abs(np.asarray(eta, dtype=float))
    if not aeta.all():
        raise ValueError("eta = 0 is the distributional point; profile defined for eta != 0")
    # straight into the array: a list of complex objects would raise the peak RSS
    root = np.fromiter(((1j * a) ** -0.5 for a in aeta.ravel().tolist()), complex, aeta.size)
    root = root.reshape(aeta.shape)
    decay = np.exp(-scale.mass * aeta - 1j * a_line_integral)
    out = np.empty(aeta.shape, dtype=complex)
    out.real = root.real * decay.real - root.imag * decay.imag
    out.imag = root.real * decay.imag + root.imag * decay.real
    return out if out.ndim else complex(out)


def straight_path(v, duration, n_segments=1) -> Path:
    """Constant-velocity path from x = 0 at t = 0, in n_segments equal segments."""
    times = np.linspace(0.0, duration, n_segments + 1)
    return Path(times=times, positions=v * times)
