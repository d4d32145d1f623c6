"""Special-function evaluators and quadrature rules for the short-time kernel.

The central object is the dimensionless kernel moment

    M_n(eps0) = eps0^(2n+1/2) * Int_C  (u(2-u))^n u^(-1/2) exp(-i eps0 + i u eps0) du

taken over the contour C = (0, 1] followed by the rotated ray u = 1 + i w,
w in [0, inf).  On the rotated ray the integrand decays like exp(-w eps0),
which is what makes the superluminal half of the velocity integral
convergent.  The integrand is analytic in the open first quadrant and decays
like exp(-eps0 Im u) there, so by Cauchy's theorem C may be swung onto the
steepest-descent ray u = i t; with t = s^2 / eps0 the moment becomes

    M_n(eps0) = 2 i^(1/2) exp(-i eps0) Int_0^inf (s^4 + 2 i eps0 s^2)^n exp(-s^2) ds

whose integrand, a polynomial of degree 4n times exp(-s^2), does not oscillate
(nothing cancels at large eps0) and is integrated exactly by K Gauss-Hermite
nodes once 2K - 1 >= 4n (A&S 25.4.46).  The same moment has the closed form

    M_n(eps0) = i^(1/2) exp(-i eps0) Gamma(2n + 1/2) M(-n, 1/2 - 2n, 2i eps0)

with M(a, b, z) the confluent hypergeometric function of the first kind,
here always a terminating polynomial because a = -n.  The two routes share
no code, so each checks the other.

Conventions: i^(1/2) is the principal branch exp(i pi/4); half-integer
Gamma values are produced by the exact recurrence from Gamma(1/2) = sqrt(pi).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._integers import is_integer

EULER_GAMMA = float(np.euler_gamma)
SQRT_I = complex(np.exp(0.25j * np.pi))

MAX_MOMENT_ORDER = 12  # Gamma(2n + 1/2) overflow guard; only small n occur
#: Largest moment_bound either route evaluates: every number they form, and
#: the difference of their two results, then stays below 1.4 times it.
MAX_MOMENT_BOUND = 1e307


@dataclass(frozen=True)
class MomentQuery:
    """Order and dimensionless time for one kernel moment.

    eps0 is the propagation interval measured in Compton times.
    """

    n: int
    eps0: float

    def __post_init__(self):
        if not is_integer(self.n) or self.n < 0:
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
    """Small-argument J1/Y1 by their truncated expansions, as (j1, y1):

        J1(eps0) ~ eps0/2
        Y1(eps0) ~ -2/(pi eps0) + eps0 (-1 + 2 gamma_E - 2 ln 2 + 2 ln eps0)/(2 pi)

    whose eps0*ln(eps0) term is the obstruction to an integer-power expansion.
    """
    if not (0.0 < eps0 < 0.5):
        raise ValueError(f"bessel_j1_y1_small requires 0 < eps0 < 0.5, got {eps0!r}")
    j1_trunc = 0.5 * eps0
    y1_trunc = -2.0 / (math.pi * eps0) + eps0 * (
        -1.0 + 2.0 * EULER_GAMMA - 2.0 * math.log(2.0) + 2.0 * math.log(eps0)
    ) / (2.0 * math.pi)
    return j1_trunc, y1_trunc


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


@functools.cache
def _hermite_half_rule():
    """(s^2, w) at the 16 positive nodes of the K = 32 rule, exact for n <= 12."""
    nodes, weights = np.polynomial.hermite.hermgauss(32)
    return tuple((s * s, w) for s, w in zip(nodes.tolist(), weights.tolist()) if s > 0.0)


def kernel_moment_contour(q: MomentQuery) -> complex:
    """Kernel moment on the ray u = i s^2 / eps0 by the 32-node Gauss-Hermite rule."""
    total = 0j
    for s2, w in _hermite_half_rule():  # on Python numbers: no numpy SIMD target alters a bit
        total += w * (s2 * (s2 + 2j * q.eps0)) ** q.n
    # Two exp factors: folding pi/4 into a large eps0 would round it away.
    phase = 2j * np.exp(-0.25j * np.pi) * np.exp(-1j * q.eps0)
    return phase * total


def moment_bound(n, eps0):
    """2 (S (S + 2 eps0))^n, S ~ 50.78 the rule's largest squared node, or inf.

    It bounds |M_n(eps0)| for n <= MAX_MOMENT_ORDER, since term by term it
    dominates the closed form's Kummer terms times Gamma(2n + 1/2), and it
    bounds every number either route forms, which is what the oracle needs
    to know before it evaluates anything."""
    s2 = max(s2 for s2, _ in _hermite_half_rule())
    return math.prod([2.0] + [s2 * (s2 + 2.0 * eps0)] * n)  # inf, not OverflowError


def moment_error(n, eps0):
    """Why M_k(eps0), k <= n, cannot all be evaluated in double precision, or
    None: moment_bound, increasing in n, must not pass MAX_MOMENT_BOUND."""
    if moment_bound(n, eps0) <= MAX_MOMENT_BOUND:
        return None
    return (f"must keep the moment bound 2 (S (S + 2 eps0))^n_max, S ~ 50.78, "
            f"<= {MAX_MOMENT_BOUND:g}")
