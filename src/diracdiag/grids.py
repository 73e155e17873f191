"""Momentum and radial quadrature grids.

The radial momentum half-line is discretized with Gauss-Legendre nodes
mapped from (0, 1) by p = s t / (1 - t), which places roughly half the
nodes below the scale s and stretches the rest toward infinity.  Functions
on the half-line are represented by their values at the nodes weighted by
the mapped quadrature weights, so plain vector dot products realize the
radial L^2 pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def angular_momenta(kappa: int) -> tuple[int, int]:
    """Orbital angular momenta (l_upper, l_lower) for a spin-orbit channel.

    kappa is the usual nonzero integer channel label; the lower spinor
    component carries the angular momentum of the sign-flipped channel.
    """
    if kappa == 0:
        raise ValueError("channel label must be a nonzero integer")
    l_up = kappa if kappa > 0 else -kappa - 1
    l_lo = -kappa if -kappa > 0 else kappa - 1
    return l_up, l_lo


@dataclass(frozen=True)
class ChannelGrid:
    """Quadrature grid for one spin-orbit channel.

    p, w are the mapped momentum nodes and weights (ascending, positive).
    Spinor components interleave in matrix indices: at node i the upper
    component sits at 2i and the lower at 2i + 1.
    """

    kappa: int
    n: int
    map_scale: float
    p: np.ndarray
    w: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def l_upper(self) -> int:
        return angular_momenta(self.kappa)[0]

    @property
    def l_lower(self) -> int:
        return angular_momenta(self.kappa)[1]


def build_channel_grid(n: int, map_scale: float = 1.0, kappa: int = -1) -> ChannelGrid:
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if map_scale <= 0:
        raise ValueError(f"map scale must be positive, got {map_scale}")
    angular_momenta(kappa)  # validates the label
    x, wx = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * wx
    p = map_scale * t / (1.0 - t)
    w = map_scale * wt / (1.0 - t) ** 2
    p.flags.writeable = False
    w.flags.writeable = False
    return ChannelGrid(kappa=kappa, n=n, map_scale=float(map_scale), p=p, w=w)


@dataclass(frozen=True)
class RadialGrid:
    """Gauss-Legendre grid on (0, r_max) for position-space sampling."""

    r: np.ndarray
    w: np.ndarray
    r_max: float


def build_radial_grid(n: int, r_max: float) -> RadialGrid:
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if r_max <= 0:
        raise ValueError(f"radial cutoff must be positive, got {r_max}")
    x, wx = np.polynomial.legendre.leggauss(n)
    r = 0.5 * r_max * (x + 1.0)
    w = 0.5 * r_max * wx
    r.flags.writeable = False
    w.flags.writeable = False
    return RadialGrid(r=r, w=w, r_max=float(r_max))


def bessel_transform_matrix(grid: ChannelGrid, radial: RadialGrid, l: int) -> np.ndarray:
    """Rows of the discretized radial Fourier-Bessel map.

    Entry (a, i) is sqrt(2/pi) * sqrt(w_i) * p_i * j_l(p_i r_a), so applying
    the matrix to weighted momentum samples evaluates the transform at the
    radial nodes.
    """
    if l < 0:
        raise ValueError(f"negative angular momentum {l}")
    from scipy.special import spherical_jn

    arg = np.outer(radial.r, grid.p)
    return np.sqrt(2.0 / np.pi) * spherical_jn(l, arg) * (np.sqrt(grid.w) * grid.p)[None, :]
