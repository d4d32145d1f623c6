"""Special-function oracles: terminating Kummer sums, small-argument Bessel
expansions, and the closed-vs-contour kernel moment pairing."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp

from relqlab import specfun
from relqlab.specfun import (
    EULER_GAMMA,
    MAX_MOMENT_ORDER,
    SQRT_I,
    MomentQuery,
    bessel_j1_y1_small,
    gamma_half_integer,
    kernel_moment_closed,
    kernel_moment_contour,
    kummer_m,
    moment_bound,
    moment_error,
)

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# kummer_m


def test_kummer_empty_sum_is_one():
    assert kummer_m(0, 0.5, 2j) == 1.0 + 0j


@pytest.mark.parametrize("z", [0.3, -1.7, 2j, 1.5 - 0.5j])
def test_kummer_one_term_series(z):
    # M(-1, -1.5, z) = 1 - z/(-1.5) = 1 + (2/3) z
    assert kummer_m(-1, -1.5, z) == pytest.approx(1.0 + (2.0 / 3.0) * z, rel=1e-15)


def test_kummer_terminating_against_rational_sum():
    # M(-2, -3.5, 2i) term by term with exact rational coefficients:
    # c0 = 1, c1 = (-2)/(-7/2) = 4/7, c2 = (-2)(-1)/((-7/2)(-5/2) 2!) = 4/35
    c1 = Fraction(-2, 1) / Fraction(-7, 2)
    c2 = Fraction(-2) * Fraction(-1) / (Fraction(-7, 2) * Fraction(-5, 2) * 2)
    z = 2j
    expected = 1 + complex(c1) * z + complex(c2) * z * z
    assert kummer_m(-2, -3.5, 2j) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("a", [1.0, 2, 0.5, -1.5])
def test_kummer_rejects_non_terminating_a(a):
    # only the terminating series (a a non-positive integer) is implemented
    with pytest.raises(ValueError, match=f"a={a}"):
        kummer_m(a, 2.0, 0.7)


def test_kummer_rejections():
    with pytest.raises(ValueError):
        kummer_m(0.5, -2.0, 1.0)  # non-terminating, b non-positive integer
    with pytest.raises(ValueError):
        kummer_m(-5, -3.0, 1.0)  # (b)_k vanishes before the series terminates
    with pytest.raises(ValueError):
        kummer_m(0.5, 1.5, 80.0)  # a = 0.5 does not terminate the series, whatever z
    # a terminating series is summed for any z; there is no |z| guard
    assert np.isfinite(kummer_m(-3, 0.5, 200.0))


def test_kummer_is_polynomial_of_degree_n():
    # sampling at 2n+2 roots of unity and fitting degree 2n+1 must reproduce
    # the series coefficients and kill everything above degree n
    for n in (1, 3, 5):
        b = 0.5 - 2 * n
        pts = np.exp(2j * np.pi * np.arange(2 * n + 2) / (2 * n + 2))
        vals = np.array([kummer_m(-n, b, z) for z in pts])
        fitted = np.polynomial.polynomial.polyfit(pts, vals, 2 * n + 1)
        expected = np.zeros(2 * n + 2, dtype=complex)
        coeff = 1.0
        for k in range(n + 1):
            expected[k] = coeff
            coeff *= (-n + k) / ((b + k) * (k + 1))
        np.testing.assert_allclose(fitted, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# gamma at half integers


def test_gamma_half_integer_recurrence_matches_gamma():
    for k in range(0, 25):
        assert gamma_half_integer(k) == pytest.approx(float(sp.gamma(k + 0.5)), rel=1e-14)
    assert gamma_half_integer(0) == SQRT_PI


@pytest.mark.parametrize("k", [-1, -3, 2.5, 0.5])
def test_gamma_half_integer_refuses_other_arguments(k):
    with pytest.raises(ValueError, match="non-negative integer"):
        gamma_half_integer(k)


# ---------------------------------------------------------------------------
# small-argument Bessel


def test_bessel_truncated_leading_terms():
    j1, y1 = bessel_j1_y1_small(0.01)
    assert j1 == pytest.approx(0.005, rel=1e-15)
    assert y1 == pytest.approx(-2.0 / (math.pi * 0.01), rel=1e-3)  # leading term -63.66


def test_bessel_truncation_close_to_reference():
    j1, y1 = bessel_j1_y1_small(0.1)
    assert abs(j1 - sp.j1(0.1)) < 1e-3
    assert abs(y1 - sp.y1(0.1)) < 1e-3


@pytest.mark.parametrize("eps0", [0.01, 0.05, 0.2, 0.45, 0.499])
def test_bessel_reference_matches_scipy(eps0):
    # the reference the truncation is compared with is scipy's j1/y1, checked here against mpmath
    mpmath = pytest.importorskip("mpmath")
    j1_ref, y1_ref = float(sp.j1(eps0)), float(sp.y1(eps0))
    with mpmath.workdps(40):
        assert j1_ref == pytest.approx(float(mpmath.besselj(1, eps0)), rel=1e-14, abs=0.0)
        assert y1_ref == pytest.approx(float(mpmath.bessely(1, eps0)), rel=1e-14, abs=0.0)


def test_bessel_domain_guard():
    for bad in (0.0, -0.1, 0.5, 0.9):
        with pytest.raises(ValueError):
            bessel_j1_y1_small(bad)


def test_y1_log_term_coefficient():
    # y1(eps) + 2/(pi eps) = alpha eps + beta eps ln(eps) with beta = 1/pi;
    # a nonzero beta is exactly why the constant-weight propagator cannot be
    # expanded in integer powers of the interval
    eps = np.linspace(0.02, 0.4, 30)
    y1 = np.array([bessel_j1_y1_small(e)[1] for e in eps])
    lhs = y1 + 2.0 / (np.pi * eps)
    basis = np.stack([eps, eps * np.log(eps)], axis=1)
    (alpha, beta), *_ = np.linalg.lstsq(basis, lhs, rcond=None)
    assert beta == pytest.approx(1.0 / math.pi, abs=1e-6)
    assert alpha == pytest.approx((-1.0 + 2.0 * EULER_GAMMA - 2.0 * math.log(2.0)) / (2.0 * math.pi),
                                  abs=1e-6)


# ---------------------------------------------------------------------------
# kernel moments


def test_moment_query_validation():
    for n in (-1, True, False, np.True_):
        with pytest.raises(ValueError):
            MomentQuery(n=n, eps0=1.0)
    with pytest.raises(ValueError):
        MomentQuery(n=13, eps0=1.0)
    with pytest.raises(ValueError):
        MomentQuery(n=0, eps0=0.0)


def test_moment_closed_n0_values():
    # M(0,.,.) = 1 and Gamma(1/2) = sqrt(pi)
    got = kernel_moment_closed(MomentQuery(n=0, eps0=1.0))
    assert got == pytest.approx(SQRT_I * np.exp(-1j) * SQRT_PI, rel=1e-15)
    # the eps0 -> 0+ limit is the bare phase factor
    got = kernel_moment_closed(MomentQuery(n=0, eps0=1e-12))
    assert got == pytest.approx(SQRT_I * SQRT_PI, rel=1e-11)


def test_moment_closed_n1_gamma_prefactor():
    # Gamma(5/2) = 3 sqrt(pi) / 4
    q = MomentQuery(n=1, eps0=0.1)
    expected = SQRT_I * np.exp(-0.1j) * (3.0 * SQRT_PI / 4.0) * kummer_m(-1, -1.5, 0.2j)
    assert kernel_moment_closed(q) == pytest.approx(expected, rel=1e-15)
    assert gamma_half_integer(2) == pytest.approx(3.0 * SQRT_PI / 4.0, rel=1e-15)


def test_moment_closed_overflow_raises():
    # (2 eps0)^n Gamma(...) leaves double range: raise, never return nan
    with pytest.raises(OverflowError, match="n=6"):
        kernel_moment_closed(MomentQuery(n=6, eps0=1e300))


def _largest_accepted_eps0(n):
    """The largest double eps0 > 0 that moment_error accepts at order n."""
    lo, hi = np.array([1e-300, np.finfo(float).max]).view(np.int64).tolist()
    if moment_error(n, np.int64(hi).view(np.float64).item()) is None:
        return np.int64(hi).view(np.float64).item()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok = moment_error(n, np.int64(mid).view(np.float64).item()) is None
        lo, hi = (mid, hi) if ok else (lo, mid)
    return np.int64(lo).view(np.float64).item()


@pytest.mark.parametrize("n", range(MAX_MOMENT_ORDER + 1))
def test_moment_domain_holds_up_to_its_edge(n):
    # moment_bound dominates both routes' moments, and at the largest eps0 the
    # domain accepts, both routes and their difference evaluate finite (warnings
    # are errors here); the next double is refused
    for eps0 in (1e-300, 0.05, 7.0, 1e6):
        q = MomentQuery(n=n, eps0=eps0)
        assert max(abs(kernel_moment_closed(q)), abs(kernel_moment_contour(q))) \
            <= moment_bound(n, eps0)
    edge = _largest_accepted_eps0(n)
    assert n == 0 or moment_error(n, math.nextafter(edge, math.inf))  # M_0 has no edge
    q = MomentQuery(n=n, eps0=edge)
    closed, contour = kernel_moment_closed(q), kernel_moment_contour(q)
    assert abs(closed - contour) / abs(closed) < 1e-12


# The large-eps0, high-n cases are where a contour split into two legs that
# cancel each other loses its digits.
@pytest.mark.parametrize(
    "eps0, n",
    [(eps0, n) for eps0 in (0.1, 0.5, 1.0, 5.0) for n in range(6)]
    + [(200.0, 6), (200.0, 9), (200.0, 12), (10000.0, 9), (1e6, 12)],
)
def test_moment_contour_certifies_closed_form(n, eps0):
    q = MomentQuery(n=n, eps0=eps0)
    closed = kernel_moment_closed(q)
    contour = kernel_moment_contour(q)
    assert abs(closed - contour) / abs(closed) < 1e-8


def test_moment_contour_n3_tight():
    q = MomentQuery(n=3, eps0=0.5)
    closed = kernel_moment_closed(q)
    contour = kernel_moment_contour(q)
    assert abs(closed - contour) / abs(closed) < 1e-8


@pytest.mark.parametrize("n", [0, 4, 6, 8, 9, 12])
@pytest.mark.parametrize("eps0", [0.05, 0.3, 1.0, 7.0, 20.0, 200.0, 1e4, 1e6])
def test_moment_routes_against_mpmath_reference(n, eps0):
    # third, independent route: expand (s^4 + 2i eps0 s^2)^n binomially and
    # integrate each power of s against exp(-s^2) exactly, in 60 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        e = mpmath.mpf(eps0)
        total = sum(mpmath.binomial(n, k) * (2j * e) ** (n - k) * mpmath.gamma(n + k + 0.5) / 2
                    for k in range(n + 1))
        ref = complex(2j * mpmath.exp(-0.25j * mpmath.pi) * mpmath.exp(-1j * e) * total)
    q = MomentQuery(n=n, eps0=eps0)
    assert abs(kernel_moment_closed(q) - ref) / abs(ref) < 1e-12
    assert abs(kernel_moment_contour(q) - ref) / abs(ref) < 1e-12


def test_hermite_rule_is_exact_for_every_moment_order():
    # K nodes integrate degree 2K - 1 exactly; the moment integrand has degree
    # 4n, so raising the order cap without adding nodes must fail here
    K = 2 * len(specfun._hermite_half_rule())
    assert 2 * K - 1 >= 4 * specfun.MAX_MOMENT_ORDER


def test_hermite_rule_is_the_32_node_gauss_rule():
    # half-line Gaussian moments Int_0^inf s^(2j) exp(-s^2) ds = Gamma(j + 1/2)/2
    # are exact through degree 2K - 1 = 63; at degree 2K the Gauss remainder
    # K! sqrt(pi) / 2^K (A&S 25.4.46), halved for the half line, shows
    mpmath = pytest.importorskip("mpmath")
    K = 32
    rule = specfun._hermite_half_rule()
    with mpmath.workdps(50):
        def half_line_sum(j):
            return mpmath.fsum(mpmath.mpf(w) * mpmath.mpf(s2) ** j for s2, w in rule)

        for j in range(K):
            exact = mpmath.gamma(j + 0.5) / 2
            assert abs(half_line_sum(j) - exact) / exact < 1e-13, j
        deficit = mpmath.gamma(K + 0.5) / 2 - half_line_sum(K)
        remainder = mpmath.factorial(K) * mpmath.sqrt(mpmath.pi) / 2 ** (K + 1)
        assert abs(deficit / remainder - 1) < 1e-3


def _mpmath_moment(n, eps0):
    """The 60-digit reference of test_moment_routes_against_mpmath_reference."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        e = mpmath.mpf(eps0)
        total = sum(mpmath.binomial(n, k) * (2j * e) ** (n - k) * mpmath.gamma(n + k + 0.5) / 2
                    for k in range(n + 1))
        return complex(2j * mpmath.exp(-0.25j * mpmath.pi) * mpmath.exp(-1j * e) * total)


@pytest.mark.parametrize("n", [0, 4, 6, 8, 9, 12])
@pytest.mark.parametrize("eps0", [0.05, 0.3, 1.0, 7.0, 20.0, 200.0, 1e4, 1e6])
def test_moment_contour_within_its_rounding_certificate(n, eps0):
    # The rule is exact, so only rounding separates the sum from the moment:
    # |contour - ref| <= c K eps Sum_k |2 w_k f_k|, with |2 i^(1/2) e^(-i eps0)| = 2.
    # c = 4 was fixed before any run: about 48 eps from the 1-ulp node error
    # raised to s^(4n) at n = 12, 37 eps from the complex power, 16 eps from
    # the sum and a few eps from the weights and the phase, against c K = 128.
    K, c = 2 * len(specfun._hermite_half_rule()), 4
    magnitude = 2 * sum(w * (s2 * math.hypot(s2, 2 * eps0)) ** n
                        for s2, w in specfun._hermite_half_rule())
    contour = kernel_moment_contour(MomentQuery(n=n, eps0=eps0))
    assert abs(contour - _mpmath_moment(n, eps0)) <= c * K * np.finfo(float).eps * magnitude
