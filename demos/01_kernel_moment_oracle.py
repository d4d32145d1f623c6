"""Kernel moments: an exact Gauss-Hermite rule checking the closed form.

The short-time propagator reduces to moments of the form

    eps0^(2n+1/2) Int_C (u(2-u))^n u^(-1/2) exp(-i eps0 + i u eps0) du

whose superluminal half only converges off the real axis.  Swung onto the
steepest-descent ray u = i t, the integrand no longer oscillates: it is a
polynomial of degree 4n times exp(-s^2), which the fixed 32-node
Gauss-Hermite rule integrates exactly for every n <= 12.  The closed form is
a terminating Kummer polynomial times a half-integer Gamma value.  This
script prints both routes side by side, then shows the small-argument Bessel
expansion whose eps*ln(eps) term is the reason a path-independent weight
cannot reproduce a first-order evolution law.
"""

import numpy as np
from scipy.special import j1 as scipy_j1, y1 as scipy_y1

from relqlab import MomentQuery, bessel_j1_y1_small, kernel_moment_closed, kernel_moment_contour

print("=" * 72)
print("Closed form vs 32-node Gauss-Hermite rule on the contour")
print("=" * 72)
print(f"{'n':>2} {'eps0':>5} {'closed form':>28} {'rel err':>10}")
for n in range(6):
    for eps0 in (0.1, 0.5, 1.0, 5.0):
        q = MomentQuery(n=n, eps0=eps0)
        closed = kernel_moment_closed(q)
        contour = kernel_moment_contour(q)
        rel = abs(closed - contour) / abs(closed)
        print(f"{n:>2} {eps0:>5} {closed:>28.12g} {rel:>10.2e}")

print()
print("=" * 72)
print("Why a constant path weight fails: Y1's logarithmic term")
print("=" * 72)
print(f"{'eps0':>6} {'J1 trunc':>12} {'J1 scipy':>12} {'Y1 trunc':>14} {'Y1 scipy':>14}")
for eps0 in (0.01, 0.05, 0.1, 0.3):
    j1, y1 = bessel_j1_y1_small(eps0)
    print(f"{eps0:>6} {j1:>12.6g} {scipy_j1(eps0):>12.6g} {y1:>14.6g} {scipy_y1(eps0):>14.6g}")

eps = np.linspace(0.02, 0.4, 30)
lhs = np.array([bessel_j1_y1_small(e)[1] + 2.0 / (np.pi * e) for e in eps])
basis = np.stack([eps, eps * np.log(eps)], axis=1)
alpha, beta = np.linalg.lstsq(basis, lhs, rcond=None)[0]
print(f"\nfit of Y1 + 2/(pi eps) against {{eps, eps ln eps}}:")
print(f"  ln-term coefficient = {beta:.8f}  (expected 1/pi = {1/np.pi:.8f})")
print("  a nonzero ln coefficient means no integer-power expansion exists,")
print("  so the propagator weight must depend on the path")
