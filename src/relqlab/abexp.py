"""Two-path interference experiment with an alternating fluctuating field.

An electron reaching the screen either kept both path amplitudes (it
contributes the two-slit interference form, phase-shifted by the enclosed
flux) or collapsed onto one path (it contributes only that path's broad
diffraction envelope).  Which of the two happens is decided by the scalar
collapse loop: the left and right paths see the uniform potential with
opposite sign, so they form a two-state system whose levels are kicked with
opposite-sign noise amplitudes.

The fluctuating field is the deterministic alternating sequence
(-1)^n b1_amp over the flight's segments; its integral over the flight
vanishes exactly because the flight spans an even number of segments, so a
phase-only theory predicts no effect on the fringes.  Being
deterministic, the field gives every electron the same trajectory.

Screen coordinates are dimensionless fringe units: xi is the transverse
position over the far-field fringe spacing, so the two-slit intensity is
1 + cos(2 pi xi + phase) and one fringe spans Delta xi = 1.  The geometry
enters only through that unit: the single-slit envelope sinc^2(xi / 4)
belongs to slits a quarter of their separation wide, and its lateral offset
between the two slits is neglected (far-field limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._integers import is_integer
from .collapse import NoiseProcess, TwoStateAmplitudes, TwoStateSystem, _trajectory

ENVELOPE_WIDTH_FRINGES = 4.0  # first zero of the single-slit envelope, in fringe units
CENTRAL_WINDOW_FRINGES = 2.0  # visibility window: +-2 fringe periods
MAX_PHASE_ROUNDING = 1e-6  # radians the AB phase may lose to rounding on the screen

#: Alternating-field amplitude that collapses the default beam well inside
#: the default flight (see DEFAULT defaults below); 3x margin on steps.
DEFAULT_B1_STAR = 0.3


class EnvelopeOnlyPatternError(ValueError):
    """Too few extrema in the central window: the pattern carries no fringes."""


def segments_error(n):
    """Why n cannot be the flight's field segment count, or None: the
    alternating field integrates to zero only over an even number of them."""
    if is_integer(n) and n >= 2 and n % 2 == 0:
        return None
    return "must be an even integer >= 2, so that the alternating field integrates to zero"


def flux_error(flux):
    """Why flux cannot be the enclosed flux, or None: the screen phase 2 pi xi - flux
    rounds by up to |flux| eps / 2, which must stay within MAX_PHASE_ROUNDING."""
    if abs(flux) * np.finfo(float).eps / 2.0 <= MAX_PHASE_ROUNDING:
        return None
    return f"must keep the screen phase's rounding |flux| eps / 2 within {MAX_PHASE_ROUNDING:g} rad"


@dataclass(frozen=True)
class ABConfig:
    """Field and screen parameters of the two-path experiment (screen in
    fringe units, see the module docstring); the flight spans `segments`
    field segments (see segments_error), and flux_error bounds the flux."""

    flux: float
    b1_amp: float
    segments: int
    screen_points: int = 256

    def __post_init__(self):
        if msg := flux_error(self.flux):
            raise ValueError(f"flux {msg}, got {self.flux!r}")
        if not (self.b1_amp >= 0 and math.isfinite(self.b1_amp)):
            raise ValueError(f"b1_amp must be non-negative, got {self.b1_amp!r}")
        if msg := segments_error(self.segments):
            raise ValueError(f"segments {msg}, got {self.segments!r}")
        if self.screen_points < 64:
            raise ValueError(f"screen_points must be >= 64, got {self.screen_points!r}")


@dataclass(frozen=True)
class ScreenPattern:
    """Accumulated screen intensity with its fringe visibility."""

    positions: np.ndarray
    intensity: np.ndarray
    visibility: float
    collapsed_fraction: float
    collapse_outcome: int | None


def ab_phase(flux):
    """Phase difference between the two paths from the enclosed flux (e = hbar = 1)."""
    return -flux


def two_state_for_paths(p_beam, a0_main) -> TwoStateSystem:
    """Two-state system of the left/right paths under a uniform potential.

    The left path runs with the potential, the right against it, so their
    dispersions are shifted to p +- a0; level 0 is the left (higher-momentum)
    path.  Momenta in units of m c give energies in units of m c^2, as TwoStateSystem expects.
    """
    try:
        e_left = math.sqrt(1.0 + (p_beam + a0_main) ** 2)
        e_right = math.sqrt(1.0 + (p_beam - a0_main) ** 2)
    except OverflowError:  # named by the larger of the two, which drives the square
        big = max(p_beam, a0_main, key=abs)
        raise OverflowError(f"(p_beam +- a0_main)^2 leaves double range (got {big!r})") from None
    return TwoStateSystem(e0=e_left, e1=e_right)


def path_gains(sys: TwoStateSystem):
    """The kick gains (g0, -g1) of the two paths, which see opposite-sign noise."""
    return sys.kick_gain(0), -sys.kick_gain(1)


def _envelope(xi):
    s = np.sinc(xi / ENVELOPE_WIDTH_FRINGES)
    return s * s


def simulate_ab(cfg: ABConfig, sys: TwoStateSystem, threshold=0.999) -> ScreenPattern:
    """Screen pattern of a flight, which every electron shares.

    Unresolved, it is envelope * (1 + cos(2 pi xi + phase_AB)) with
    collapsed_fraction 0.0 and its measured fringe visibility; collapsed, the
    surviving path's envelope alone with collapsed_fraction 1.0 and, since
    it carries no fringes, visibility 0.0.  threshold must lie in (0.5, 1).
    """
    xi = np.linspace(-2.0 * CENTRAL_WINDOW_FRINGES, 2.0 * CENTRAL_WINDOW_FRINGES,
                     cfg.screen_points)
    half = 1.0 / math.sqrt(2.0)
    field = NoiseProcess(sigma=cfg.b1_amp, seed=0, mode="alternating")
    outcome = _trajectory(TwoStateAmplitudes(a0=half, a1=half), path_gains(sys), sys.r_ratio,
                          field, cfg.segments, threshold, cfg.segments).outcome
    env = _envelope(xi)
    if outcome is None:
        intensity = env * (1.0 + np.cos(2.0 * np.pi * xi + ab_phase(cfg.flux)))
        vis = fringe_visibility(xi, intensity)
    else:
        intensity, vis = env, 0.0
    return ScreenPattern(positions=xi, intensity=intensity, visibility=vis,
                         collapsed_fraction=0.0 if outcome is None else 1.0,
                         collapse_outcome=outcome)


def fringe_visibility(positions, intensity):
    """(Imax - Imin)/(Imax + Imin) over the central +-2 fringes (positions in fringe units).

    Requires at least 3 interior local extrema in the window; a pattern
    without them is envelope-only and raises EnvelopeOnlyPatternError.
    """
    positions = np.asarray(positions, dtype=float)
    intensity = np.asarray(intensity, dtype=float)
    if np.any(intensity < -1e-12):
        raise ValueError("intensity must be non-negative")
    window = np.abs(positions) <= CENTRAL_WINDOW_FRINGES
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
