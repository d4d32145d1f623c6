"""Special-function oracles: terminating Kummer sums, small-argument Bessel
expansions, and the closed-vs-contour kernel moment pairing."""

import collections
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp
from scipy import integrate

from relqlab import pathweight, specfun
from relqlab.pathweight import PhysicalScale, short_time_plane_wave
from relqlab.specfun import (
    EULER_GAMMA,
    SQRT_I,
    MomentQuery,
    QuadratureConvergenceError,
    bessel_j1_y1_small,
    gamma_half_integer,
    kernel_moment_closed,
    kernel_moment_contour,
    kummer_m,
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
        kummer_m(0.5, 1.5, 80.0)  # outside the |z| <= 50 guard
    # terminating cases are exempt from the |z| guard
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


# ---------------------------------------------------------------------------
# small-argument Bessel


def test_bessel_truncated_leading_terms():
    j1, y1, _, _ = bessel_j1_y1_small(0.01)
    assert j1 == pytest.approx(0.005, rel=1e-15)
    assert y1 == pytest.approx(-2.0 / (math.pi * 0.01), rel=1e-3)  # leading term -63.66


def test_bessel_truncation_close_to_reference():
    j1, y1, j1_ref, y1_ref = bessel_j1_y1_small(0.1)
    assert abs(j1 - j1_ref) < 1e-3
    assert abs(y1 - y1_ref) < 1e-3


@pytest.mark.parametrize("eps0", [0.01, 0.05, 0.2, 0.45, 0.499])
def test_bessel_reference_matches_scipy(eps0):
    # the reference is scipy's j1/y1, itself checked against mpmath
    mpmath = pytest.importorskip("mpmath")
    _, _, j1_ref, y1_ref = bessel_j1_y1_small(eps0)
    assert (j1_ref, y1_ref) == (float(sp.j1(eps0)), float(sp.y1(eps0)))
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
    with pytest.raises(ValueError):
        MomentQuery(n=-1, eps0=1.0)
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


# ---------------------------------------------------------------------------
# _quad_complex: scipy's complex quadrature, one integrand call per node

QUAD_TOLERANCES = {"epsabs": 1e-13, "epsrel": 1e-12}


def bits(z):
    return np.complex128(z).tobytes()


def quadratures_made_by(call, monkeypatch):
    """(func, a, b, limit, points) of every _quad_complex call that call() makes."""
    made = []
    quad_complex = specfun._quad_complex

    def record(func, a, b, *, limit, points=None):
        made.append((func, a, b, limit, points))
        return quad_complex(func, a, b, limit=limit, points=points)

    with monkeypatch.context() as m:
        m.setattr(specfun, "_quad_complex", record)
        m.setattr(pathweight, "_quad_complex", record)
        call()
    return made


@pytest.mark.parametrize("route, arg, eps0",
                         [("moment", n, eps0) for n in (0, 3, 8) for eps0 in (0.05, 1.0, 20.0)]
                         + [("plane_wave", p, 0.5) for p in (0.75, 3.0)])
def test_quad_complex_is_scipy_complex_quad_with_one_call_per_node(monkeypatch, route, arg, eps0):
    if route == "moment":
        made = quadratures_made_by(lambda: kernel_moment_contour(MomentQuery(n=arg, eps0=eps0)),
                                   monkeypatch)
    else:  # the finite leg and the rotated tail
        made = quadratures_made_by(lambda: short_time_plane_wave(arg, eps0, PhysicalScale(1.0)),
                                   monkeypatch)
    assert len(made) == (1 if route == "moment" else 2)
    scipy_quad = integrate.quad
    for func, a, b, limit, points in made:
        scipy_nodes = []

        def logged(x):
            scipy_nodes.append(x)
            return func(x)

        ref_value, ref_err = scipy_quad(logged, a, b, complex_func=True, limit=limit,
                                        points=points, **QUAD_TOLERANCES)
        calls = collections.Counter()
        passes = []

        def counted(x):
            calls[x] += 1
            return func(x)

        def quad_spy(*args, **kwargs):
            passes.append(scipy_quad(*args, **kwargs))
            return passes[-1]

        with monkeypatch.context() as m:
            m.setattr(integrate, "quad", quad_spy)
            value = specfun._quad_complex(counted, a, b, limit=limit, points=points)
        assert bits(value) == bits(ref_value)
        (_, real_err), (_, imag_err) = passes
        assert bits(real_err + 1j * imag_err) == bits(ref_err)  # scipy's abserr, formed its way
        assert set(calls) == set(scipy_nodes) and set(calls.values()) == {1}
        assert len(scipy_nodes) > len(calls)  # scipy's imaginary pass revisits nodes


def test_quad_complex_raises_when_only_the_imaginary_pass_runs_out_of_budget():
    def func(x):  # smooth real part, a kink at 1/3 in the imaginary part
        return math.exp(-x) + 1j * math.sqrt(abs(x - 1.0 / 3.0))

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        integrate.quad(lambda x: func(x).real, 0.0, 1.0, limit=3, **QUAD_TOLERANCES)
    with pytest.raises(QuadratureConvergenceError, match="refinement budget"):
        specfun._quad_complex(func, 0.0, 1.0, limit=3)


def test_quad_complex_raises_on_a_large_error_estimate(monkeypatch):
    # quad's own success test keeps a converged estimate inside this gate, so
    # a stub stands in for a quad that reports a loose estimate without warning
    passes = iter([(1.0, 1e-15), (1.0, 1e-6)])
    monkeypatch.setattr(integrate, "quad", lambda *args, **kwargs: next(passes))
    with pytest.raises(QuadratureConvergenceError, match="error estimate 1.00e-06 too large"):
        specfun._quad_complex(math.cos, 0.0, 1.0, limit=10)
