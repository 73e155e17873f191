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


def spherical_jn(l: int, x: np.ndarray) -> np.ndarray:
    """Spherical Bessel function j_l(x) for x >= 0 and any l >= 0, numpy only.

    Three regions, each evaluated where it is stable (DLMF sec. 10.51 for
    the recurrence, 10.53 for the series):
    - x < 1: the power series x^l/(2l+1)!! sum_k (-x^2/2)^k / (k! (2l+3)...
      (2l+2k+1)), which includes x = 0.  Its terms fall by at least 1/6
      per step, so there is no cancellation, and 11 terms leave a
      remainder below 1e-19 relative.
    - x > l (x >= 1): the upward recurrence j_(k+1) = (2k+1)/x j_k - j_(k-1)
      from j_0 = sin x / x and j_1 = (j_0 - cos x)/x.  For k < x both
      solutions of the recurrence oscillate with comparable size, so
      neither errors in the start values nor rounding grow.
    - 1 <= x <= l: Miller's downward recurrence, run on the ratios
      r_k = j_k/j_(k-1) = x / (2k+1 - x r_(k+1)) from r_(l+31) = 0.  There
      j_k is the minimal solution, and the start error is damped by at
      least (x/(2k+1))^2 <= 1/4 per step, so 30 steps above l are exact to
      rounding.  j_l is j_1 r_2 ... r_l, or j_0 r_1 ... r_l where |j_0| is
      the larger, since j_0 and j_1 never vanish together; the ratios
      never overflow.
    """
    if l < 0:
        raise ValueError(f"negative angular momentum {l}")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 1.0
    up = ~small & (x > l)
    mid = ~small & ~up
    out[small] = _jn_series(l, x[small])
    out[up] = _jn_upward(l, x[up])
    out[mid] = _jn_downward(l, x[mid])
    return out


def _j0_j1(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    j0 = np.sin(x) / x
    return j0, (j0 - np.cos(x)) / x


def _jn_series(l: int, x: np.ndarray) -> np.ndarray:
    pre = np.ones_like(x)
    for k in range(1, l + 1):
        pre *= x / (2 * k + 1)
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for k in range(1, 12):
        term *= -0.5 * x * x / (k * (2 * l + 2 * k + 1))
        acc += term
    return pre * acc


def _jn_upward(l: int, x: np.ndarray) -> np.ndarray:
    prev, cur = _j0_j1(x)
    if l == 0:
        return prev
    for k in range(1, l):
        prev, cur = cur, (2 * k + 1) / x * cur - prev
    return cur


def _jn_downward(l: int, x: np.ndarray) -> np.ndarray:
    j0, j1 = _j0_j1(x)
    r = np.zeros_like(x)
    tail = np.ones_like(x)
    for k in range(l + 30, 1, -1):
        r = x / (2 * k + 1 - x * r)  # r_k
        if k <= l:
            tail *= r
    return np.where(np.abs(j1) >= np.abs(j0), j1, j0 * (x / (3.0 - x * r))) * tail


def bessel_transform_matrix(grid: ChannelGrid, radial: RadialGrid, l: int) -> np.ndarray:
    """Rows of the discretized radial Fourier-Bessel map.

    Entry (a, i) is sqrt(2/pi) * sqrt(w_i) * p_i * j_l(p_i r_a), so applying
    the matrix to weighted momentum samples evaluates the transform at the
    radial nodes.
    """
    arg = np.outer(radial.r, grid.p)
    return np.sqrt(2.0 / np.pi) * spherical_jn(l, arg) * (np.sqrt(grid.w) * grid.p)[None, :]
