"""Path functionals and the relativistic path weight.

A sampled trajectory carries three functionals: the momentum integral, the
kinetic-energy integral, and the proper time.  Subluminal paths keep all
three real; superluminal segments rotate them into the complex plane via
the branch rule sqrt(1 - v^2) = -i sqrt(v^2 - 1), which turns sum-over-path
contributions into exponentially damped ones.  The weight attached to a
path is W = (PBB/PCAL) (DTAU/2)^(-1/2).
"""

import numpy as np

from relqlab import (
    PhysicalScale,
    equal_time_kernel_profile,
    path_action,
    path_functionals,
    path_weight,
    straight_path,
)

scale = PhysicalScale(mass=1.0)

print("=" * 72)
print("Constant-velocity paths, duration T = 1")
print("=" * 72)
print(f"{'v':>5} {'momentum PBB':>24} {'kinetic PCAL':>24} {'proper time':>24}")
for v in (0.0, 0.2, 0.6, 0.9, 0.99, 1.0, 1.5, 2.0):
    try:
        pf = path_functionals(straight_path(v=v, duration=1.0), scale)
        print(f"{v:>5} {pf.pbb:>24.6g} {pf.pcal:>24.6g} {pf.dtau:>24.6g}")
    except ValueError as exc:
        print(f"{v:>5} rejected: {exc}")

print()
print("weights (undefined for the rest path, tending to (T/2)^(-1/2) = sqrt(2) for")
print("slow paths, complex beyond the light cone):")
for v in (1e-12, 1e-8, 1e-4, 0.6, 0.9, 2.0):
    pf = path_functionals(straight_path(v=v, duration=1.0), scale)
    w = path_weight(pf)
    print(f"  v = {v:<6}  W = {w:.6g}   |W| = {abs(w):.6g}  arg = {np.angle(w):+.4f} rad")

print()
print("free actions S = -m integral sqrt(1 - v^2) dt:")
for v in (0.0, 0.6, 2.0):
    s = path_action(straight_path(v=v, duration=1.0), scale)
    print(f"  v = {v:<4}  S = {s:.6g}")

print()
print("=" * 72)
print("Equal-time kernel: Compton-length nonlocality")
print("=" * 72)
print("the equal-time kernel is not a delta function; its magnitude decays")
print("as exp(-m |eta|) with an |eta|^(-1/2) prefactor:")
print(f"{'eta':>6} {'|F(eta)|':>12} {'log(sqrt(eta)|F|)':>20}")
for eta in (0.25, 0.5, 1.0, 2.0, 4.0):
    f = equal_time_kernel_profile(eta, 0.0, scale)
    print(f"{eta:>6} {abs(f):>12.6g} {np.log(abs(f) * np.sqrt(eta)):>20.6f}")
print("(the last column drops by exactly m per unit eta)")
