"""Quadrature grids and the radial transform against closed-form integrals."""

import math

import numpy as np
import pytest

from diracdiag.grids import (
    angular_momenta,
    bessel_transform_matrix,
    build_channel_grid,
    build_radial_grid,
    spherical_jn,
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


# ---------------------------------------------------------------------------
# spherical Bessel functions
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def jl_error_bound(l: int, x: np.ndarray, j: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A-priori bound on the error of ``spherical_jn(l, x)``, from exact j_l and y_l.

    - x < 1, power series: the prefactor x^l/(2l+1)!! takes 2l roundings;
      term k of the sum carries at most 4k of them but weighs at most 6^-k,
      and the 11 additions round once each: (2l + 14) eps |j_l|.
    - 1 <= x <= l, ratio recurrence: each of the l + 30 steps rounds at most
      4 times, and downward the recurrence damps (k > x) or keeps (k < x)
      the earlier errors; the anchor j_0 or j_1, the larger, is good to
      3 eps of its size, at least a third of the envelope 1/x; with the
      final product: 4 (l + 34) eps |j_l|.
    - x > l, upward recurrence: an error delta made at step k reaches l as
      delta x^2 (j_k y_l - y_k j_l), the Green's function of the recurrence
      (its Wronskian is j_(k+1) y_k - j_k y_(k+1) = 1/x^2), so at most
      2 x^2 M_k M_l delta with M_k = sqrt(j_k^2 + y_k^2), which grows with k.
      A step makes delta <= 5 eps M_k (|2k+1|/x < 2) and each start value
      at most 2 eps M_0: 12 (l + 1) eps x^2 M_l^3 in all.
    """
    m_l = np.where(x > l, np.hypot(j, y), 0.0)  # y_l overflows at small x and large l
    return np.where(x < 1.0, (2 * l + 14) * EPS * np.abs(j),
                    np.where(x <= l, 4 * (l + 34) * EPS * np.abs(j),
                             12 * (l + 1) * EPS * x ** 2 * m_l ** 3))


@pytest.mark.parametrize("l", range(11))
def test_spherical_jn_matches_scipy(l):
    # For x > l scipy runs the same upward recurrence, so it gets the same
    # bound; for 0 < x <= l it takes sqrt(pi/2x) J_(l+1/2)(x) from AMOS,
    # which is allowed the budget of the downward recurrence,
    # 4 (l + 34) eps |j_l|.  At x = 0 both are exact.
    from scipy.special import spherical_jn as scipy_jn, spherical_yn

    x = np.concatenate(([0.0], np.logspace(-6.0, 6.0, 2401)))
    ref = scipy_jn(l, x)
    y = np.zeros_like(x)
    y[1:] = spherical_yn(l, x[1:])
    scipy_bound = np.where(x > l, 12 * (l + 1) * EPS * x ** 2 * np.hypot(ref, y) ** 3,
                           4 * (l + 34) * EPS * np.abs(ref))
    got = spherical_jn(l, x)
    assert got[0] == ref[0] == (1.0 if l == 0 else 0.0)
    assert np.all(np.abs(got - ref) <= jl_error_bound(l, x, ref, y) + scipy_bound)


@pytest.mark.parametrize("l", [0, 1, 2, 7, 25, 60])
def test_spherical_jn_against_exact_values(l):
    # exact j_l and y_l from 40-digit arithmetic hold ours to its own bound,
    # also at orders far above the channels a grid has
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    x = np.unique(np.concatenate((np.logspace(-3.0, 3.0, 49), [1.0, max(l - 0.5, 1.0), l + 0.5])))
    half = mpmath.mpf(l) + 0.5

    def exact(bessel, v):
        return float(mpmath.sqrt(mpmath.pi / (2 * mpmath.mpf(v))) * bessel(half, mpmath.mpf(v)))

    j = np.array([exact(mpmath.besselj, v) for v in x])
    y = np.array([exact(mpmath.bessely, v) for v in x])
    assert np.all(np.abs(spherical_jn(l, x) - j) <= jl_error_bound(l, x, j, y))


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
