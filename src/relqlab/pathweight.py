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
they are stored as complex numbers.  One set of per-segment densities, of
root = sqrt(1 - v^2) so that slow and near-lightlike segments do not cancel,
and one weight combination serve path_functionals, path_weight and
short_time_plane_wave, which integrates W over straight paths.
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
MAX_SEGMENT_SPEED = 1e153  # the |v| domain of path_functionals and path_action


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


def _proper_time_rate(speed):
    """sqrt(1 - v^2) of segment speeds |v| by the branch rule, without cancellation near |v| = 1."""
    return np.conj(np.sqrt((1.0 - speed) * (1.0 + speed) + 0j))


def _segment_speeds(v):
    """|v| of segment velocities v, refused unless within MAX_SEGMENT_SPEED:
    past ~9.5e153, 2 v^2 overflows and the functionals and action turn nan."""
    speed = np.abs(v)
    outside = speed[~(speed <= MAX_SEGMENT_SPEED)]
    if outside.size:
        raise ValueError(f"segment speed {float(outside[0])!r} is past the declared domain "
                         f"|v| <= {MAX_SEGMENT_SPEED:g}")
    return speed


def _segment_densities(root, speed):
    """PBB/m, PCAL/m and DTAU per unit time of a segment with speed |v| and
    proper-time rate root = sqrt(1 - v^2): |v|/root, sqrt(2 (1/root - 1)) and root.
    1/root - 1 is taken as v^2 / (root (1 + root)), which does not cancel for slow segments."""
    return speed / root, np.sqrt(2.0 * speed * speed / (root * (1.0 + root))), root


def _weight(pbb, pcal, dtau):
    """(pbb/pcal) (dtau/2)^(-1/2) with principal branches, of scalars or arrays."""
    return pbb / (pcal * np.sqrt(0.5 * dtau))


def path_functionals(path: Path, scale: PhysicalScale) -> PathFunctionals:
    """Momentum, kinetic-energy, and proper-time functionals of a sampled path."""
    speed = _segment_speeds(path.velocities)
    if np.any(speed == 1.0):
        raise LightlikeSegmentError("lightlike segment: |v| = 1 makes the momentum integrand diverge")
    m, dt = scale.mass, path.dt
    pbb, pcal, dtau = (np.sum(d) * dt for d in _segment_densities(_proper_time_rate(speed), speed))
    return PathFunctionals(pbb=complex(m * pbb), pcal=complex(m * pcal), dtau=complex(dtau))


def path_weight(pf: PathFunctionals) -> complex:
    """W = (PBB/PCAL) (DTAU/2)^(-1/2), principal branches."""
    if pf.pcal == 0:
        raise WeightUndefinedError(
            "path weight undefined for a rest path; use the nonrelativistic limit"
        )
    return complex(_weight(pf.pbb, pf.pcal, pf.dtau))


def path_action(path: Path, scale: PhysicalScale, a_field=None, v_field=None) -> complex:
    """Relativistic action sum_i [-m sqrt(1-v_i^2) + A(x_mid) v_i - V(x_mid)] dt.

    a_field / v_field are callables that map an array of positions to an
    array of field values (or None for zero field); both are evaluated at
    segment midpoints.
    """
    v = path.velocities
    dt = path.dt
    x_mid = 0.5 * (path.positions[:-1] + path.positions[1:])
    lagr = -scale.mass * _proper_time_rate(_segment_speeds(v))
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
    if not (math.isfinite(p_momentum) and math.isfinite(eps0)):
        raise ValueError(f"p_momentum and eps0 must be finite, got {p_momentum!r}, {eps0!r}")
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


def short_time_plane_wave(p_momentum, eps0, scale: PhysicalScale) -> complex:
    """Short-time amplitude for phi = e^{ipx}: the path weight W integrated over straight paths.

    The straight path of duration eps = eps0 tau0 to x = v eps carries the
    weight W of its functionals, built from the same per-segment densities
    and combination as path_weight, and e^{iS} with S = -m root eps, where
    root = sqrt(1 - v^2) by the branch rule.  The amplitude is the integral
    of W e^{iS} e^{ipx} over x: 2 eps times that of W e^{iS} cos(q v) over
    speeds v > 0, with q = |p| tau0 eps0.  Subluminal speeds are the real
    leg, root = 1 - u for u in (0, 1]; superluminal ones the tail,
    root = -i w for w > 0: in u = 1 - root the contour C = (0, 1] plus
    u = 1 + i w of the kernel moments, and root, not v, as the variable keeps
    both legs free of cancellation at the light cone.  The moments' ray
    u = i t does not serve: on it Im v tends to 1, so cos(q v) grows like
    e^q.  Unlike the moment series it holds beyond |p| = m.  Each leg is a
    composite Gauss-Legendre sum: the real leg, in s = u^(1/2) on (0, 1]
    with v = s (2 - u)^(1/2), on ceil((2 eps0 + 1.5 q) / 6) equal panels (at
    most 6 radians of phase each); the tail, in y = eps0 w on (0, 46] with
    v = (1 + w^2)^(1/2), on panels no wider than cap = 4 / max(|p| tau0, 1),
    the first ending at min(eps0, cap) and each later one no wider than its
    distance from 0, which keeps the branch points y = +-i eps0 clear.  The
    24-node sum is returned once the 16-node one agrees with it to
    PLANE_WAVE_RTOL, else QuadratureConvergenceError.  Declared for eps0 in
    PLANE_WAVE_EPS0 and |p| tau0 <= PLANE_WAVE_MAX_PTAU; ValueError outside.
    """
    tau0 = scale.tau0
    ptau = abs(p_momentum * tau0)
    if not (PLANE_WAVE_EPS0[0] <= eps0 <= PLANE_WAVE_EPS0[1] and ptau <= PLANE_WAVE_MAX_PTAU):
        raise ValueError(f"short_time_plane_wave is declared for eps0 in {PLANE_WAVE_EPS0} and "
                         f"|p| tau0 <= {PLANE_WAVE_MAX_PTAU:g}, got {eps0!r} and {ptau!r}")
    q, eps = ptau * eps0, eps0 * tau0  # q: phase |p| v eps at v = 1
    real_edges = np.linspace(0.0, 1.0, math.ceil((2.0 * eps0 + 1.5 * q) / 6.0) + 1)
    cap = 4.0 / max(ptau, 1.0)
    tail_edges = [0.0, min(eps0, cap)]
    while tail_edges[-1] < 46.0:  # the tail decays like e^-y: e^-46 ~ 1e-20
        tail_edges.append(min(2.0 * tail_edges[-1], tail_edges[-1] + cap, 46.0))
    x, w = _legendre_16_24()  # each panel's 16 then 24 nodes, the real leg's panels first
    half = 0.5 * np.concatenate([np.diff(real_edges), np.diff(tail_edges)])[:, None]
    nodes = np.concatenate([real_edges[:-1], tail_edges[:-1]])[:, None] + half * (1.0 + x)
    s, wt = nodes[:real_edges.size - 1], nodes[real_edges.size - 1:] / eps0
    u, vt = s * s, np.sqrt(1.0 + wt * wt)
    root = np.concatenate([1.0 - u, -1j * wt])
    speed = np.concatenate([s * np.sqrt(2.0 - u), vt])
    dspeed = np.concatenate([2.0 * (1.0 - u) / np.sqrt(2.0 - u), wt / (eps0 * vt)])  # dv/ds, dv/dy
    pbb, pcal, dtau = _segment_densities(root, speed)  # the mass cancels from pbb/pcal
    e_is = np.exp(-1j * eps0 * root)  # e^{iS}, S = -m root eps
    terms = half * w * dspeed * np.cos(q * speed) * _weight(pbb, pcal, eps * dtau) * e_is
    coarse, fine = complex(np.sum(terms[:, :16])), complex(np.sum(terms[:, 16:]))
    if not abs(fine - coarse) <= PLANE_WAVE_RTOL * abs(fine):
        raise QuadratureConvergenceError(f"16- and 24-node sums differ by {fine - coarse!r} "
                                         f"of {fine!r} at eps0={eps0!r}, |p| tau0={ptau!r}")
    return 2.0 * eps * fine


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
    if not (aeta.all() and np.isfinite(aeta).all()):
        raise ValueError("eta must be finite and nonzero: eta = 0 is the distributional point")
    if not math.isfinite(a_line_integral):
        raise ValueError(f"a_line_integral must be finite, got {a_line_integral!r}")
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
