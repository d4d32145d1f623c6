"""Special-function evaluators and quadrature oracles for the short-time kernel.

The central object is the dimensionless kernel moment

    M_n(eps0) = eps0^(2n+1/2) * Int_C  (u(2-u))^n u^(-1/2) exp(-i eps0 + i u eps0) du

taken over the contour C = (0, 1] followed by the rotated ray u = 1 + i w,
w in [0, inf).  On the rotated ray the integrand decays like exp(-w eps0),
which is what makes the superluminal half of the velocity integral
convergent.  The integrand is analytic in the open first quadrant and decays
like exp(-eps0 Im u) there, so by Cauchy's theorem C may be swung onto the
steepest-descent ray u = i t; with t = s^2 / eps0 the moment becomes

    M_n(eps0) = 2 i^(1/2) exp(-i eps0) Int_0^inf (s^4 + 2 i eps0 s^2)^n exp(-s^2) ds

whose integrand does not oscillate, so nothing cancels at large eps0.  The
same moment has the closed form

    M_n(eps0) = i^(1/2) exp(-i eps0) Gamma(2n + 1/2) M(-n, 1/2 - 2n, 2i eps0)

with M(a, b, z) the confluent hypergeometric function of the first kind,
here always a terminating polynomial because a = -n.  Both routes are
implemented independently so each certifies the other.

Conventions: i^(1/2) is the principal branch exp(i pi/4); half-integer
Gamma values are produced by the exact recurrence from Gamma(1/2) = sqrt(pi).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

EULER_GAMMA = float(np.euler_gamma)
SQRT_I = complex(np.exp(0.25j * np.pi))

MAX_MOMENT_ORDER = 12  # Gamma(2n + 1/2) overflow guard; only small n occur


class QuadratureConvergenceError(RuntimeError):
    """Adaptive refinement exhausted its budget without converging."""


@dataclass(frozen=True)
class MomentQuery:
    """Order and dimensionless time for one kernel moment.

    eps0 is the propagation interval measured in Compton times.
    """

    n: int
    eps0: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError(f"moment order n must be a non-negative integer, got {self.n!r}")
        if self.n > MAX_MOMENT_ORDER:
            raise ValueError(f"moment order n={self.n} exceeds cap {MAX_MOMENT_ORDER}")
        if not (self.eps0 > 0.0 and math.isfinite(self.eps0)):
            raise ValueError(f"eps0 must be positive and finite, got {self.eps0!r}")


def gamma_half_integer(k):
    """Gamma(k + 1/2) for integer k >= 0 by the exact recurrence from sqrt(pi)."""
    if k < 0 or k != int(k):
        raise ValueError(f"gamma_half_integer expects a non-negative integer, got {k!r}")
    value = math.sqrt(math.pi)
    for j in range(int(k)):
        value *= j + 0.5
    return value


def _is_nonpositive_integer(x) -> bool:
    return float(x) == int(x) and float(x) <= 0.0


def kummer_m(a, b, z):
    """Confluent hypergeometric M(a, b, z) = sum_k (a)_k / (b)_k z^k / k!
    for a = -n a non-positive integer, where the series terminates exactly
    after n + 1 terms; that is the only case the kernel moments need."""
    if not _is_nonpositive_integer(a):
        raise ValueError(f"kummer_m: a={a} must be a non-positive integer (terminating series)")
    z = complex(z)
    n = int(-float(a))
    if _is_nonpositive_integer(b) and int(-float(b)) < n:
        raise ValueError(
            f"kummer_m: b={b} is a non-positive integer hit before the series "
            f"terminates at k={n}"
        )
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(n):
        term *= (a + k) * z / ((b + k) * (k + 1))
        total += term
    return total


def bessel_j1_y1_small(eps0):
    """Small-argument J1/Y1: truncated expansions plus an independent reference.

    Returns (j1, y1, j1_ref, y1_ref).  The first pair is the truncated form

        J1(eps0) ~ eps0/2
        Y1(eps0) ~ -2/(pi eps0) + eps0 (-1 + 2 gamma_E - 2 ln 2 + 2 ln eps0)/(2 pi)

    whose eps0*ln(eps0) term is the obstruction to an integer-power expansion.
    The reference pair is scipy's j1 and y1, kept independent of the
    truncation it checks.
    """
    if not (0.0 < eps0 < 0.5):
        raise ValueError(f"bessel_j1_y1_small requires 0 < eps0 < 0.5, got {eps0!r}")
    from scipy.special import j1, y1  # loaded on first use, like the quadrature

    j1_trunc = 0.5 * eps0
    y1_trunc = -2.0 / (math.pi * eps0) + eps0 * (
        -1.0 + 2.0 * EULER_GAMMA - 2.0 * math.log(2.0) + 2.0 * math.log(eps0)
    ) / (2.0 * math.pi)
    return j1_trunc, y1_trunc, float(j1(eps0)), float(y1(eps0))


def kernel_moment_closed(q: MomentQuery) -> complex:
    """Closed form of the kernel moment via the terminating Kummer polynomial.

    Raises OverflowError where the moment is too large for a double, rather
    than returning a non-finite number.
    """
    gam = gamma_half_integer(2 * q.n)
    # Python complex arithmetic overflows to inf quietly, with no numpy warning on stderr.
    phase = complex(np.exp(-1j * q.eps0))
    value = SQRT_I * phase * gam * kummer_m(-q.n, 0.5 - 2 * q.n, 2j * q.eps0)
    if not np.isfinite(value):
        raise OverflowError(f"kernel moment n={q.n}, eps0={q.eps0!r} overflows double precision")
    return value


def _quad_complex(func, a, b, *, limit, points=None):
    """integrate.quad(func, a, b, complex_func=True) with the tolerances below,
    bit for bit, but with func called once per node: the real pass keeps each
    value for the imaginary pass, which revisits most of its nodes."""
    from scipy import integrate  # here, not at the top: scipy takes most of the import time
    seen = {}

    def re_part(x):
        seen[x] = fx = func(x)
        return fx.real

    def im_part(x):
        fx = seen.get(x)
        return (func(x) if fx is None else fx).imag

    opts = {"epsabs": 1e-13, "epsrel": 1e-12, "limit": limit, "points": points}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", integrate.IntegrationWarning)
        real, real_err = integrate.quad(re_part, a, b, **opts)
        imag, imag_err = integrate.quad(im_part, a, b, **opts)
    value = real + 1j * imag  # as complex_func=True forms it
    for w in caught:
        if issubclass(w.category, integrate.IntegrationWarning):
            raise QuadratureConvergenceError(
                f"adaptive quadrature on [{a}, {b}] exceeded its refinement budget: {w.message}"
            )
    err = max(real_err, imag_err)
    err_scale = max(abs(value), 1e-30)
    if err > 1e-9 * err_scale and err > 1e-12:
        raise QuadratureConvergenceError(
            f"adaptive quadrature error estimate {err:.2e} too large for value {abs(value):.2e}"
        )
    return value


def kernel_moment_contour(q: MomentQuery) -> complex:
    """Kernel moment by quadrature along the steepest-descent ray u = i s^2 / eps0."""
    n, eps0 = q.n, q.eps0

    def f(s):
        s2 = s * s
        return (s2 * (s2 + 2j * eps0)) ** n * np.exp(-s2)

    # Two exp factors: folding pi/4 into a large eps0 would round it away.
    phase = 2j * np.exp(-0.25j * np.pi) * np.exp(-1j * eps0)
    return phase * _quad_complex(f, 0.0, np.inf, limit=200)
