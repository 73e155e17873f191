"""Quadrature grids and the radial transform against closed-form integrals."""

import math

import numpy as np
import pytest

from diracdiag.grids import (
    angular_momenta,
    bessel_transform_matrix,
    build_channel_grid,
    build_radial_grid,
)


def quadrature_integral(grid, values: np.ndarray) -> float:
    """Integrate samples of a scalar function over the momentum half-line."""
    return float(np.dot(grid.w, values))


# ---------------------------------------------------------------------------
# channel labels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kappa,expected", [
    (-1, (0, 1)),
    (1, (1, 0)),
    (-2, (1, 2)),
    (2, (2, 1)),
    (-3, (2, 3)),
])
def test_angular_momenta(kappa, expected):
    assert angular_momenta(kappa) == expected


def test_angular_momenta_rejects_zero():
    with pytest.raises(ValueError):
        angular_momenta(0)


# ---------------------------------------------------------------------------
# momentum grid
# ---------------------------------------------------------------------------

def test_momentum_grid_shape(grid100):
    assert grid100.n == 100
    assert grid100.dim == 200
    assert np.all(grid100.p > 0.0)
    assert np.all(np.diff(grid100.p) > 0.0)
    assert np.all(grid100.w > 0.0)
    assert grid100.l_upper == 0 and grid100.l_lower == 1


def test_momentum_grid_known_integrals(grid100):
    # mapped Gauss-Legendre is spectrally accurate on these
    assert abs(quadrature_integral(grid100, np.exp(-grid100.p)) - 1.0) < 1e-12
    assert abs(quadrature_integral(grid100, grid100.p * np.exp(-grid100.p)) - 1.0) < 1e-12
    assert abs(quadrature_integral(grid100, np.exp(-grid100.p ** 2))
               - math.sqrt(math.pi) / 2.0) < 1e-12


def test_map_scale_moves_nodes():
    a = build_channel_grid(40, map_scale=1.0)
    b = build_channel_grid(40, map_scale=2.0)
    assert np.allclose(b.p, 2.0 * a.p, rtol=1e-14)
    assert abs(quadrature_integral(b, np.exp(-b.p)) - 1.0) < 1e-10


def test_build_channel_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_channel_grid(1)
    with pytest.raises(ValueError):
        build_channel_grid(10, map_scale=0.0)
    with pytest.raises(ValueError):
        build_channel_grid(10, kappa=0)


# ---------------------------------------------------------------------------
# radial grid and transform
# ---------------------------------------------------------------------------

def test_radial_grid_basic():
    r = build_radial_grid(50, 12.0)
    assert np.all((r.r > 0.0) & (r.r < 12.0))
    assert abs(np.sum(r.w) - 12.0) < 1e-12
    with pytest.raises(ValueError):
        build_radial_grid(1, 10.0)
    with pytest.raises(ValueError):
        build_radial_grid(10, -1.0)


def test_bessel_transform_rejects_negative_l(grid100):
    radial = build_radial_grid(32, 8.0)
    with pytest.raises(ValueError):
        bessel_transform_matrix(grid100, radial, -1)


@pytest.mark.parametrize("l,sigma", [(0, 0.5), (1, 0.5), (0, 0.35)])
def test_bessel_transform_parseval(grid100, l, sigma):
    # a band-limited confined state keeps its L^2 norm through the transform
    radial = build_radial_grid(160, 16.0)
    b = bessel_transform_matrix(grid100, radial, l)
    f = grid100.p ** (l + 1) * np.exp(-grid100.p ** 2 / (2.0 * sigma ** 2))
    x = np.sqrt(grid100.w) * f
    x /= np.linalg.norm(x)
    y = b @ x
    norm_r = float(np.sum(radial.w * radial.r ** 2 * y ** 2))
    assert abs(norm_r - 1.0) < 1e-10
