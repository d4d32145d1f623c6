"""Two-path interference experiment with an alternating fluctuating field.

An electron reaching the screen either kept both path amplitudes (it
contributes the two-slit interference form, phase-shifted by the enclosed
flux) or collapsed onto one path (it contributes only that path's broad
diffraction envelope).  Which of the two happens is decided by the two-state
collapse engine: the left and right paths see the uniform potential with
opposite sign, so they form a two-state system whose levels are kicked with
opposite-sign noise amplitudes.

The fluctuating field is the deterministic alternating sequence
(-1)^n b1_amp over segments of duration delta; its integral over the flight
time vanishes exactly because the flight spans an even number of segments,
so a phase-only theory predicts no effect on the fringes.

Screen coordinates are dimensionless fringe units: xi = (transverse
position) * d_slit / (wavelength * screen distance), so the two-slit
intensity is 1 + cos(2 pi xi + phase) and one fringe spans Delta xi = 1.
The single-slit envelope uses an effective slit width of d_slit/4 and its
lateral offset between the two slits is neglected (far-field limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collapse import TwoStateSystem, _check_noise, _step_kernel

ENVELOPE_WIDTH_FRINGES = 4.0  # first zero of the single-slit envelope, in fringe units
CENTRAL_WINDOW_FRINGES = 2.0  # visibility window: +-2 fringe periods

#: Alternating-field amplitude that collapses the default beam well inside
#: the default flight (see DEFAULT defaults below); 3x margin on steps.
DEFAULT_B1_STAR = 0.3


class EnvelopeOnlyPatternError(ValueError):
    """Too few extrema in the central window: the pattern carries no fringes."""


@dataclass(frozen=True)
class ABConfig:
    """Geometry, field, and run parameters of the two-path experiment.

    tau_flight must be an even multiple of delta so the alternating field
    integrates to zero over every flight.
    """

    flux: float
    b1_amp: float
    delta: float
    tau_flight: float
    d_slit: float
    wavelength: float
    screen_points: int = 256
    n_electrons: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not (self.b1_amp >= 0 and math.isfinite(self.b1_amp)):
            raise ValueError(f"b1_amp must be non-negative, got {self.b1_amp!r}")
        if not (self.delta > 0 and self.tau_flight > 0):
            raise ValueError("delta and tau_flight must be positive")
        ratio = self.tau_flight / self.delta
        if abs(ratio - round(ratio)) > 1e-9 * ratio or round(ratio) % 2 != 0 or round(ratio) < 2:
            raise ValueError(
                f"tau_flight must be an even multiple of delta (got ratio {ratio!r}); "
                "otherwise the alternating field does not integrate to zero"
            )
        if not (self.d_slit > 0 and self.wavelength > 0):
            raise ValueError("d_slit and wavelength must be positive")
        if self.screen_points < 64:
            raise ValueError(f"screen_points must be >= 64, got {self.screen_points!r}")
        if self.n_electrons < 1:
            raise ValueError(f"n_electrons must be >= 1, got {self.n_electrons!r}")

    @property
    def n_segments(self):
        return int(round(self.tau_flight / self.delta))


@dataclass(frozen=True)
class ScreenPattern:
    """Accumulated screen intensity with its fringe visibility."""

    positions: np.ndarray
    intensity: np.ndarray
    visibility: float
    collapsed_fraction: float = 0.0
    collapse_outcome: int | None = None


def ab_phase(flux):
    """Phase difference between the two paths from the enclosed flux (e = hbar = 1)."""
    return -flux


def alternating_field(cfg: ABConfig, t):
    """Field value (-1)^n b1_amp on segment n = floor(t / delta)."""
    if not (0.0 <= t < cfg.tau_flight):
        raise ValueError(f"t must lie in [0, tau_flight), got {t!r}")
    n = int(t // cfg.delta)
    return cfg.b1_amp if n % 2 == 0 else -cfg.b1_amp


def two_state_for_paths(p_beam, a0_main, mass=1.0) -> TwoStateSystem:
    """Two-state system of the left/right paths under a uniform potential.

    The left path runs with the potential, the right against it, so their
    dispersions are shifted to p +- a0; level 0 is the left (higher-momentum)
    path.  Energies are returned in units of m c^2 as TwoStateSystem expects.
    """
    e_left = math.sqrt(mass * mass + (p_beam + a0_main) ** 2) / mass
    e_right = math.sqrt(mass * mass + (p_beam - a0_main) ** 2) / mass
    return TwoStateSystem(e0=e_left, e1=e_right)


def _run_alternating_collapse(cfg: ABConfig, sys: TwoStateSystem, threshold):
    """Collapse recursion over the flight under the alternating field.

    The two levels are kicked with opposite signs (the paths run with and
    against the potential).  The alternating sequence carries no randomness,
    so every electron of a run shares this one trajectory.
    """
    _check_noise(sys, cfg.b1_amp)
    g0, g1 = sys.kick_gain(0), sys.kick_gain(1)
    r = np.float64(sys.r_ratio)
    a0 = np.float64(1.0 / math.sqrt(2.0))
    a1 = np.float64(1.0 / math.sqrt(2.0))
    for step in range(cfg.n_segments):
        f = cfg.b1_amp if step % 2 == 0 else -cfg.b1_amp
        a0, a1 = _step_kernel(a0, a1, np.float64(f * g0), np.float64(-f * g1), r)
        if a0 * a0 >= threshold or a1 * a1 >= threshold:
            return (0 if a0 >= a1 else 1), step + 1
    return None, None


def _envelope(xi):
    s = np.sinc(xi / ENVELOPE_WIDTH_FRINGES)
    return s * s


def simulate_ab(cfg: ABConfig, sys: TwoStateSystem, threshold=0.999) -> ScreenPattern:
    """Accumulate the screen pattern over n_electrons flights.

    Unresolved electrons contribute envelope * (1 + cos(2 pi xi + phase_AB));
    collapsed electrons contribute the surviving path's envelope alone.
    Returns the mean per-electron intensity with its fringe visibility
    (zero, by convention, when the pattern carries no fringes).
    """
    xi = np.linspace(-2.0 * CENTRAL_WINDOW_FRINGES, 2.0 * CENTRAL_WINDOW_FRINGES,
                     cfg.screen_points)
    outcome, _steps = _run_alternating_collapse(cfg, sys, threshold)
    env = _envelope(xi)
    if outcome is None:
        n_unresolved = cfg.n_electrons
        intensity = env * (1.0 + np.cos(2.0 * np.pi * xi + ab_phase(cfg.flux)))
    else:
        n_unresolved = 0
        intensity = env.copy()
    try:
        vis = fringe_visibility(xi, intensity)
    except EnvelopeOnlyPatternError:
        vis = 0.0
    collapsed = cfg.n_electrons - n_unresolved
    return ScreenPattern(positions=xi, intensity=intensity, visibility=vis,
                         collapsed_fraction=collapsed / cfg.n_electrons,
                         collapse_outcome=outcome)


def fringe_visibility(positions, intensity, period=1.0):
    """(Imax - Imin)/(Imax + Imin) over the central +-2 fringe periods.

    Requires at least 3 interior local extrema in the window; a pattern
    without them is envelope-only and the caller records visibility 0.
    """
    positions = np.asarray(positions, dtype=float)
    intensity = np.asarray(intensity, dtype=float)
    if np.any(intensity < -1e-12):
        raise ValueError("intensity must be non-negative")
    window = np.abs(positions) <= CENTRAL_WINDOW_FRINGES * period
    vals = intensity[window]
    if vals.size < 5:
        raise ValueError("too few screen samples inside the central window")
    interior = vals[1:-1]
    maxima = (interior > vals[:-2]) & (interior > vals[2:])
    minima = (interior < vals[:-2]) & (interior < vals[2:])
    if int(np.sum(maxima)) + int(np.sum(minima)) < 3:
        raise EnvelopeOnlyPatternError("fewer than 3 extrema in the central window")
    i_max = float(np.max(vals))
    i_min = float(np.min(vals))
    return (i_max - i_min) / (i_max + i_min)
