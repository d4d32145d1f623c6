"""Two-path interference and its destruction by an alternating field.

The two paths run with and against a uniform potential, so they form a
two-state system with shifted dispersions.  An alternating field whose time
integral vanishes over every flight would leave the accumulated phase
untouched, yet it drives the collapse recursion: kicked with opposite signs,
the path amplitudes separate and the electron commits to one slit before it
reaches the screen.  Interference fringes then give way to the bare
diffraction envelope.
"""

import math

from relqlab import ABConfig, DEFAULT_B1_STAR, ab_phase, simulate_ab, two_state_for_paths

sys_ = two_state_for_paths(p_beam=1.0, a0_main=0.25)
print(f"two-state mapping: e_left = {sys_.e0:.4f}, e_right = {sys_.e1:.4f}, "
      f"R-ratio = {sys_.r_ratio:.4f}")


def run(flux, b1):
    cfg = ABConfig(flux=flux, b1_amp=b1, delta=1.0, tau_flight=6000.0,
                   d_slit=10.0, wavelength=1.0, screen_points=257)
    return simulate_ab(cfg, sys_)


print()
print("=" * 72)
print("Quiet flight (b1 = 0)")
print("=" * 72)
quiet = run(flux=0.0, b1=0.0)
print(f"collapsed fraction: {quiet.collapsed_fraction:.2f}")
print(f"fringe visibility : {quiet.visibility:.3f}")

print()
print("flux pi inverts the fringes (half-period shift):")
shifted = run(flux=math.pi, b1=0.0)
mid = len(quiet.positions) // 2
print(f"  AB phase: {ab_phase(math.pi):+.4f}")
print(f"  center intensity, flux 0 : {quiet.intensity[mid]:.4f}  (bright)")
print(f"  center intensity, flux pi: {shifted.intensity[mid]:.4f}  (dark)")

print()
print("=" * 72)
print(f"Alternating field on (b1 = {DEFAULT_B1_STAR})")
print("=" * 72)
noisy = run(flux=0.0, b1=DEFAULT_B1_STAR)
print(f"collapsed fraction: {noisy.collapsed_fraction:.2f} "
      f"(outcome {noisy.collapse_outcome}: the higher-momentum, left path)")
print(f"fringe visibility : {noisy.visibility:.3f}")
print("the field integrates to zero over the flight, yet the fringes are gone;")
print("a phase-only theory predicts no effect here")

print()
print("screen profiles (central window, fringe units):")
print(f"{'xi':>7} {'quiet':>9} {'noisy':>9}")
step = len(quiet.positions) // 16
for i in range(0, len(quiet.positions), step):
    print(f"{quiet.positions[i]:>7.2f} {quiet.intensity[i]:>9.4f} {noisy.intensity[i]:>9.4f}")
