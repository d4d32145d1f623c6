"""Property tests of evolve over random grids, fields, steps and packets:
the exact free route against the Strang loop, and the V != 0 loop bit for bit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from relqlab.evolution import FieldConfig, SpatialGrid, evolve, gaussian_packet  # noqa: E402
from test_evolution import FREE_VS_STRANG_TOL, _strang_reference  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def runs(draw):
    """(psi, mass, a0, dt, steps) with n a power of two in [16, 2048] and a
    momentum cut-off pi n / length in [pi/4, 8 pi]."""
    n = 2 ** draw(st.integers(4, 11))
    length = draw(st.floats(n / 8.0, 4.0 * n))
    grid = SpatialGrid(n=n, length=length)
    x0 = draw(st.floats(-0.25, 0.25)) * length
    sigma = draw(st.floats(0.02, 0.2)) * length
    p0 = draw(st.floats(-0.5, 0.5)) * np.pi * n / length
    psi = gaussian_packet(grid, x0, sigma, p0)
    return (psi, draw(st.floats(0.1, 10.0)), draw(st.floats(-2.0, 2.0)),
            draw(st.floats(1e-3, 0.5)), draw(st.integers(1, 50)))


@PROPERTY_SETTINGS
@given(runs())
def test_free_evolve_keeps_norm_and_tracks_strang_loop(run):
    psi, mass, a0, dt, steps = run
    f = FieldConfig.free(mass, psi.grid, a0=a0)
    got = evolve(psi, f, dt, steps)
    assert abs(got.norm() - psi.norm()) <= 1e-13
    strang = _strang_reference(psi, f, dt, steps)
    assert np.max(np.abs(got.values - strang)) <= FREE_VS_STRANG_TOL * np.max(np.abs(psi.values))


@PROPERTY_SETTINGS
@given(runs(), st.floats(0.01, 1.0), st.floats(-1.0, 1.0), st.integers(1, 4))
def test_evolve_with_potential_is_the_strang_loop_bitwise(run, v_amp, v_offset, mode):
    psi, mass, a0, dt, steps = run
    grid = psi.grid
    v = v_amp * np.cos(2.0 * np.pi * mode * grid.x / grid.length) + v_offset
    f = FieldConfig(a0=a0, v_samples=v, mass=mass)
    got = evolve(psi, f, dt, steps).values
    assert got.tobytes() == _strang_reference(psi, f, dt, steps).tobytes()
