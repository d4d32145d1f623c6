"""Wave-packet propagation under the square-root Hamiltonian.

A free evolve applies exp(-i E(p) t) exactly on the momentum grid, in one
spectral multiply per call, so norm conservation and the free-evolution
semigroup hold to rounding.  The demo tracks a packet's centroid (relativistic group
velocity p/E, not p/m), compares against quadratic-dispersion evolution
in both the low-energy and relativistic regimes, and checks the
normalization identity of the whole-weight operator.
"""

import math

import numpy as np

from relqlab import (
    FieldConfig,
    SpatialGrid,
    evolve,
    gaussian_packet,
    plane_wave_identity_check,
    schrodinger_overlap,
)

grid = SpatialGrid(n=1024, length=200.0)
free = FieldConfig.free(1.0, grid)

print("=" * 72)
print("Relativistic group velocity (p0 = 0.5 m)")
print("=" * 72)
psi = gaussian_packet(grid, x0=-40.0, sigma=10.0, p0=0.5)
print(f"{'t':>6} {'centroid':>10} {'norm':>18}")
state = psi
for k in range(5):
    print(f"{k * 5.0:>6} {state.centroid():>10.4f} {state.norm():>18.15f}")
    state = evolve(state, free, dt=0.05, steps=100)
vg = (state.centroid() - psi.centroid()) / 25.0
print(f"measured speed {vg:.5f}; p/E = {0.5 / math.sqrt(1.25):.5f}; naive p/m = 0.5")

print()
print("=" * 72)
print("Quadratic-dispersion comparison")
print("=" * 72)
slow_grid = SpatialGrid(n=1024, length=4000.0)
slow_free = FieldConfig.free(1.0, slow_grid)
slow = gaussian_packet(slow_grid, 0.0, 250.0, 0.01)      # support |p| < 0.02 m
fast = gaussian_packet(grid, 0.0, 5.0, 1.0)              # support around |p| ~ m
print(f"overlap at t = 10/m, |p| < 0.02 m : {schrodinger_overlap(slow, slow_free, 10.0):.6f}")
print(f"overlap at t = 10/m, |p| ~  m     : {schrodinger_overlap(fast, free, 10.0):.6f}")
print("(low momenta are indistinguishable from quadratic dispersion;")
print(" relativistic support separates the two evolutions)")

print()
print("=" * 72)
print("Whole-weight normalization identity")
print("=" * 72)
worst = max(plane_wave_identity_check(p, 1.0) for p in np.linspace(0.0, 10.0, 101))
print(f"max |r(E_p) (i pi tau0)^(1/2) [bracket] - 1| over p in [0, 10 m]: {worst:.2e}")
print("(zero analytically for every momentum; the residual is pure rounding)")
