"""One-particle radial Dirac operator with attractive Coulomb coupling.

Matrices live on a single spin-orbit channel discretized by a ChannelGrid.
Spinor components interleave: index 2i is the upper component at node i,
index 2i + 1 the lower.  In this layout the free operator is exactly
block-diagonal over nodes, so its spectral data (projectors, |D_0|^s, the
free-basis rotation) are closed-form and free of discretization error; only
the potential couples nodes.

The interleaving is kept for the eigensolver.  In this order D_0 is
tridiagonal (its 2x2 node blocks sit on the diagonal), so ``eigh``'s
tridiagonal reduction of D_gamma is exact at gamma = 0.  The blocked order,
the FW frame's own row order with every upper component first, was tried:
the FW-frame data came out bitwise identical and the n=500 one-particle
run took about 3% less time, but the gamma = 0 intertwining residual rose
from 1.8e-16 to 5.7e-12 at n=200 and to 1.4e-12 at n=100, and the
three-particle levels moved by up to 7.0e-12.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import GapError, gate
from .grids import ChannelGrid, angular_momenta

GAMMA_MAX = math.sqrt(3.0) / 2.0
TOL_GAP = 1e-6  # slack of the soft gap check ``gap_floor``
GAP_FLOOR = 1e-8  # smallest |eigenvalue| ``assemble_system`` accepts


# ---------------------------------------------------------------------------
# Legendre functions of the second kind
# ---------------------------------------------------------------------------

def legendre_q(l: int, y) -> np.ndarray:
    """Q_l(y) for y > 1, vectorized and stable over the whole half-line.

    Near the singular point (y < 2) closed forms plus upward recursion are
    accurate; for y >= 2 the closed form for l >= 1 cancels badly, so the
    descending hypergeometric series in 1/y^2 is used instead.  Arguments
    are clamped to 1 + 1e-14 so that coincident-node roundoff cannot
    produce infinities.
    """
    if l < 0:
        raise ValueError(f"negative degree {l}")
    y = np.maximum(np.asarray(y, dtype=float), 1.0 + 1e-14)
    out = np.empty_like(y)
    near = y < 2.0
    if np.any(near):
        out[near] = _legendre_q_recursive(l, y[near])
    if np.any(~near):
        out[~near] = _legendre_q_series(l, y[~near])
    return out


def _legendre_q_recursive(l: int, y: np.ndarray) -> np.ndarray:
    q0 = np.arctanh(1.0 / y)
    if l == 0:
        return q0
    q1 = y * q0 - 1.0
    if l == 1:
        return q1
    qm, qc = q0, q1
    for m in range(1, l):
        qm, qc = qc, ((2 * m + 1) * y * qc - m * qm) / (m + 1)
    return qc


def _legendre_q_series(l: int, y: np.ndarray) -> np.ndarray:
    # Q_l(y) = c_l / y^(l+1) * sum_k a_k y^(-2k), a_0 = 1
    c = math.sqrt(math.pi) * math.gamma(l + 1.0) / (math.gamma(l + 1.5) * 2.0 ** (l + 1))
    t = y ** -2.0
    term = np.ones_like(y)
    acc = np.ones_like(y)
    for k in range(120):
        ratio = ((l + 2 * k + 1) * (l + 2 * k + 2)) / ((2 * k + 2) * (2 * l + 2 * k + 3))
        term = term * ratio * t
        acc += term
        if np.max(np.abs(term)) < 1e-18 * np.max(acc):
            break
    return c * y ** -(l + 1.0) * acc


def subtraction_constant(l: int) -> float:
    """c_l = 2 * integral of Q_l(cosh t) over t in (0, inf), in closed form.

    Used by the diagonal subtraction of the Coulomb kernel.  The value is
    c_l = (pi/2) [Gamma((l+1)/2) / Gamma(l/2 + 1)]^2, evaluated by
    c_0 = pi^2/2, c_1 = 2 and c_(l+2) = c_l ((l+1)/(l+2))^2: rational for
    odd l, a rational times pi^2 for even l.  Integrating the series
    Q_l(cosh t) = sqrt(pi) l!/Gamma(l+3/2) sum_k (1/2)_k (l+1)_k /
    ((l+3/2)_k k!) e^(-(l+1+2k)t) (DLMF ch. 14) term by term leaves a
    well-poised 3F2 at unit argument, summed by Dixon's theorem (DLMF
    sec. 16.4(ii)).
    """
    if l < 0:
        raise ValueError(f"negative degree {l}")
    c = 2.0 if l % 2 else math.pi ** 2 / 2.0
    for m in range(l % 2, l, 2):
        c *= ((m + 1) / (m + 2)) ** 2
    return c


# ---------------------------------------------------------------------------
# Channel matrices
# ---------------------------------------------------------------------------

def coulomb_channel_matrix(p: np.ndarray, w: np.ndarray, l: int) -> np.ndarray:
    """Attractive -1/|x| kernel for one orbital channel, weight-symmetrized.

    Off-diagonal entries are -(1/pi) sqrt(w_i w_j) Q_l((p_i^2+p_j^2)/(2 p_i p_j)).
    The diagonal is the subtracted form that cancels the logarithmic
    singularity of Q_l at coincident momenta, so the matrix converges to the
    operator instead of diverging with the grid.
    """
    y = (p[:, None] ** 2 + p[None, :] ** 2) / (2.0 * np.outer(p, p))
    q = legendre_q(l, y)
    m = -(1.0 / math.pi) * np.sqrt(np.outer(w, w)) * q
    ratio = w / p
    offsum = q @ ratio - np.diag(q) * ratio
    np.fill_diagonal(m, -(p / math.pi) * (subtraction_constant(l) - offsum))
    return m


def build_free_dirac(grid: ChannelGrid) -> np.ndarray:
    """Free Dirac matrix: per momentum node the 2x2 block [[1, p], [p, -1]]."""
    n = grid.n
    d0 = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    d0[2 * idx, 2 * idx] = 1.0
    d0[2 * idx + 1, 2 * idx + 1] = -1.0
    d0[2 * idx, 2 * idx + 1] = grid.p
    d0[2 * idx + 1, 2 * idx] = grid.p
    return d0


_COULOMB: dict[int, np.ndarray] = {}


def build_coulomb(grid: ChannelGrid) -> np.ndarray:
    """Coulomb coupling V as its two spinor-component blocks, shape (2, n, n).

    V does not couple the spinor components, so only its blocks are held:
    v[0] acts on the upper components (rows and columns 0::2 of the
    interleaved layout), v[1] on the lower ones (1::2); the cross blocks
    are exactly zero.  ``dense_potential`` forms the dim x dim matrix.
    V does not depend on the coupling, so it is built once per grid object
    and shared read-only by every assembly, Kato margin and series bundle
    on that grid; it is dropped with the grid.
    """
    v = _COULOMB.get(id(grid))
    if v is None:
        v = np.empty((2, grid.n, grid.n))
        v[0] = coulomb_channel_matrix(grid.p, grid.w, grid.l_upper)
        v[1] = coulomb_channel_matrix(grid.p, grid.w, grid.l_lower)
        v.flags.writeable = False
        _COULOMB[id(grid)] = v
        weakref.finalize(grid, _COULOMB.pop, id(grid), None)
    return v


def dense_potential(v: np.ndarray) -> np.ndarray:
    """The Coulomb coupling as a dim x dim matrix in the interleaved layout,
    from its (2, n, n) spinor blocks (``build_coulomb``)."""
    n = v.shape[1]
    out = np.zeros((2 * n, 2 * n))
    out[0::2, 0::2] = v[0]
    out[1::2, 1::2] = v[1]
    return out


def free_energies(grid: ChannelGrid) -> np.ndarray:
    """Relativistic free energies sqrt(1 + p^2) per node."""
    return np.sqrt(1.0 + grid.p ** 2)


def free_positive_projector(grid: ChannelGrid) -> np.ndarray:
    """Closed-form projector onto positive free states, (I + D_0/E)/2."""
    n = grid.n
    e = free_energies(grid)
    pr = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    pr[2 * idx, 2 * idx] = 0.5 * (1.0 + 1.0 / e)
    pr[2 * idx + 1, 2 * idx + 1] = 0.5 * (1.0 - 1.0 / e)
    pr[2 * idx, 2 * idx + 1] = 0.5 * grid.p / e
    pr[2 * idx + 1, 2 * idx] = 0.5 * grid.p / e
    return pr


def foldy_wouthuysen(grid: ChannelGrid) -> np.ndarray:
    """Per-node rotations [[c, s], [-s, c]], shape (n, 2, 2), with tan(2 theta) = p.

    Each block sends the node's 2x2 block of D_0 to diag(E, -E), so
    positive free states go to pure upper components and the upper/lower
    splitting after conjugation is the free energy-sign splitting.  The
    entries are c = sqrt((E+1)/(2E)) and s = p/sqrt(2E(E+1)), which involve
    no cancellation; the textbook s = sqrt((1 - 1/E)/2) loses up to 1e-7
    relative accuracy at small p.
    """
    e = free_energies(grid)
    c = np.sqrt((e + 1.0) / (2.0 * e))
    s = grid.p / np.sqrt(2.0 * e * (e + 1.0))
    return np.stack((np.stack((c, s), axis=-1), np.stack((-s, c), axis=-1)), axis=1)


# ---------------------------------------------------------------------------
# Foldy-Wouthuysen frame
# ---------------------------------------------------------------------------
# The FW frame used for the decoupling is R = Pi B: the per-node rotation B
# of ``foldy_wouthuysen``, held as its node blocks only, followed by the
# permutation Pi that puts the upper components of all nodes first.  There
# the free projector is diag(1, ..., 1, 0, ..., 0) with n ones.  Every
# entry into or exit from the frame goes through ``fw_rows`` or
# ``fw_conjugate``, at O(n) per column.

def fw_rows(blocks: np.ndarray, x: np.ndarray, back: bool = False) -> np.ndarray:
    """R x for R = Pi B given by the node blocks of B, or R^T x with back.

    Each half of the result is written into one preallocated output as a
    product, with the second product added from one half-height scratch,
    so no other temporary of x's size is formed.  R x keeps x's memory
    order and R^T x is C-ordered: the BLAS products that read the results
    (U_gamma's among them) round differently in another layout.
    """
    n = blocks.shape[0]
    x2 = x.reshape(x.shape[0], -1)
    a, b = blocks[:, 0, 0, None], blocks[:, 0, 1, None]
    c, d = blocks[:, 1, 0, None], blocks[:, 1, 1, None]
    out = np.empty(x2.shape) if back else np.empty_like(x2)
    scratch = np.empty_like(x2[:n])
    if back:
        top, bot = x2[:n], x2[n:]
        halves = ((out[0::2], a, top, c, bot), (out[1::2], b, top, d, bot))
    else:
        up, lo = x2[0::2], x2[1::2]
        halves = ((out[:n], a, up, b, lo), (out[n:], c, up, d, lo))
    for half, f, y, g, z in halves:
        np.multiply(f, y, out=half)
        half += np.multiply(g, z, out=scratch)
    return out.reshape(x.shape)


def fw_conjugate(blocks: np.ndarray, x: np.ndarray, back: bool = False) -> np.ndarray:
    """R x R^T (into the FW frame), or R^T x R with back (out of it).

    x is dropped after the first pass, so when the caller holds no other
    reference to it, the second pass runs beside one array of x's size.
    """
    y = fw_rows(blocks, x, back).T
    del x
    return fw_rows(blocks, y, back).T


# ---------------------------------------------------------------------------
# Exact decoupling unitary
# ---------------------------------------------------------------------------

def exact_u_gamma(pg: np.ndarray) -> np.ndarray:
    """Unitary U with U pg = P0 U, pg in the FW frame, where the free
    projector P0 is the row mask of the first half of the states.

    The Kato-Nagy transform U = (P0 pg + Q0 Qg) S^(-1/2) with Q = 1 - P and
    S = 1 - (P0 - pg)^2 (Kato, Perturbation Theory for Linear Operators,
    I sec. 4.6; the direct rotation of Davis & Kahan, SIAM J. Numer. Anal.
    7, 1970).  The identity S = P0 pg P0 + Q0 Qg Q0 makes S block-diagonal:
    pg's block on the first half and 1 - pg's block on the second, so two
    half-size eigensolves give S^(-1/2).  The projectors must be
    closer than distance 1, which makes S positive definite; the smaller
    lowest eigenvalue of the two blocks is exactly 1 - ||P0 - pg||^2, so
    no separate norm is taken.
    pg is overwritten: it is turned into M = P0 pg + Q0 Qg in place, so
    besides U no array of its size is formed.  Pass a copy to keep it.
    """
    dim = pg.shape[0]
    k = dim // 2
    # M = P0 pg + Q0 Qg = (P0 - Q0) pg + Q0, and S is M's block-diagonal part
    m = pg
    m[k:] *= -1.0
    m[k:, k:] += np.eye(dim - k)
    halves = [np.linalg.eigh(0.5 * (b + b.T)) for b in (m[:k, :k], m[k:, k:])]
    low = min(float(ew[0]) for ew, _ in halves)
    gate(-low, -math.ulp(0.0), "projectors too far apart: ||p0 - pg|| = {gap:.6f} >= 1",
         gap=math.sqrt(max(0.0, 1.0 - low)))
    u = np.empty_like(m)
    for cols, (ew, uw) in zip((slice(0, k), slice(k, dim)), halves):
        u[:, cols] = m[:, cols] @ ((uw * ew ** -0.5) @ uw.T)
    return u


# ---------------------------------------------------------------------------
# Assembled system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneParticleSystem:
    """The matrices of one channel at one coupling, plus spectral data.

    A system holds only what depends on the coupling and cannot be rebuilt
    from the rest at the cost of one product: dgamma, u_gamma and the
    eigenpairs, three dim x dim arrays.  The positive spectral projector
    P_gamma is formed from the eigenpairs when it is needed
    (``positive_projector``).  What depends on the grid alone is read from
    the grid: the free operator D_0 and its positive projector as
    closed-form node blocks (``free_energies``, ``free_positive_projector``),
    the Foldy-Wouthuysen rotation as its node blocks (``foldy_wouthuysen``,
    O(n)), and the Coulomb matrix, which ``build_coulomb`` keeps once per
    grid.
    evals are the raw ``eigh`` values, ascending, with evecs columns
    matching.  They carry the eigensolver's backward error eps*||D_gamma||,
    which moves with the BLAS thread count, so the levels a run reports,
    and its gap, come from ``rayleigh_levels`` instead.
    """

    grid: ChannelGrid
    gamma: float
    dgamma: np.ndarray
    u_gamma: np.ndarray
    evals: np.ndarray
    evecs: np.ndarray

    @property
    def dim(self) -> int:
        return self.grid.dim


def positive_projector(evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """P_gamma = X_+ X_+^T, X_+ the eigenvector columns of the positive eigenvalues."""
    pos = evecs[:, evals > 0.0]
    return pos @ pos.T


def _freeze(*mats: np.ndarray) -> None:
    for m in mats:
        m.flags.writeable = False


def assemble_system(grid: ChannelGrid, gamma: float) -> OneParticleSystem:
    """Build and spectrally decompose D_0 + gamma V on the channel grid.

    The returned system holds only the coupling's arrays
    (``OneParticleSystem``); V comes from ``build_coulomb``'s per-grid
    cache and the FW rotation from ``foldy_wouthuysen``.
    Raises GapError when an eigenvalue sits within GAP_FLOOR of zero, since
    then the positive spectral projector is not numerically well defined.
    P_gamma is formed only to be conjugated into the FW frame and is then
    dropped; ``exact_u_gamma`` turns that conjugate into its M in place.
    The system keeps three dim x dim arrays.  While U_gamma is built, at
    most 3.25 more are alive beside D_gamma, its eigenvectors and V: M, U,
    the two half-size eigenbases, a column half of their product and one
    quarter-size factor.  A conjugation, which drops its input after the
    first pass, needs 2.5: first pass, output and half-height scratch.
    """
    if not 0.0 <= gamma < GAMMA_MAX:
        raise ValueError(f"coupling {gamma} outside [0, sqrt(3)/2)")
    v = build_coulomb(grid)
    dgamma = build_free_dirac(grid)
    for c in (0, 1):
        dgamma[c::2, c::2] += gamma * v[c]
    evals, evecs = np.linalg.eigh(dgamma)
    gap = float(np.min(np.abs(evals)))
    gate(-gap, -GAP_FLOOR, "no spectral gap: eigenvalue {gap:.3e} within {floor:.1e} of zero",
         GapError, gap=gap, floor=GAP_FLOOR)
    if gamma == 0.0:
        u_gamma = np.eye(grid.dim)
    else:
        blocks = foldy_wouthuysen(grid)
        u_gamma = fw_conjugate(blocks, exact_u_gamma(
            fw_conjugate(blocks, positive_projector(evals, evecs))), back=True)
    _freeze(dgamma, u_gamma, evals, evecs)
    return OneParticleSystem(grid=grid, gamma=float(gamma), dgamma=dgamma, u_gamma=u_gamma,
                             evals=evals, evecs=evecs)


def rayleigh_quotients(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x_i^T m x_i / x_i^T x_i for every column x_i of x, m symmetric.

    The quotient of a computed eigenvector differs from the eigenvalue only
    at second order in the vector's error (Parlett, The Symmetric Eigenvalue
    Problem, ch. 4), so it does not carry the first-order backward error
    eps*||m|| of the raw eigenvalue and agrees across thread counts.  The
    division matters at the outer levels: there ``eigh``'s vectors are unit
    only to about 10 eps, which times |level| ~ ||m|| exceeds the
    eigenvalue's own error.
    """
    return np.einsum("ij,ij->j", x, m @ x) / np.einsum("ij,ij->j", x, x)


def rayleigh_levels(sys: OneParticleSystem) -> np.ndarray:
    """Every level as a ``rayleigh_quotients`` value of D_gamma, in eigh's order."""
    return rayleigh_quotients(sys.dgamma, sys.evecs)


def positive_levels(sys: OneParticleSystem, count: int | None = None) -> np.ndarray:
    """Positive levels (``rayleigh_levels``) ascending; the lowest is the ground level."""
    levels = rayleigh_levels(sys)
    pos = levels[levels > 0.0]
    return pos if count is None else pos[:count]


def positive_states(sys: OneParticleSystem, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest positive eigenpairs: (energies, column matrix of states).

    The states are picked by the raw eigenvalues; the energies are their
    ``rayleigh_quotients`` of D_gamma, free of the eigensolver's backward
    error, like the levels a run reports.
    """
    mask = sys.evals > 0.0
    vals = sys.evals[mask]
    vecs = sys.evecs[:, mask]
    order = np.argsort(vals)[:count]
    if count > vals.size:
        raise ValueError(f"requested {count} positive states, only {vals.size} available")
    vecs = vecs[:, order]
    return rayleigh_quotients(sys.dgamma, vecs), vecs


# ---------------------------------------------------------------------------
# Closed-form constants and oracles
# ---------------------------------------------------------------------------

def c_gamma(gamma: float) -> float:
    if not 0.0 <= gamma < GAMMA_MAX:
        raise ValueError(f"coupling {gamma} outside [0, sqrt(3)/2)")
    return (math.sqrt(4.0 * gamma ** 2 + 9.0) - 4.0 * gamma) / 3.0


def d_gamma(gamma: float) -> float:
    """Constant in the kinetic comparison |D_gamma|^2 >= d^2 |D_0|^2."""
    c2 = c_gamma(gamma) ** 2
    return 0.5 * (1.0 + c2 - math.sqrt((1.0 - c2) ** 2 + 4.0 * gamma ** 2 * c2))


def sommerfeld_energy(gamma: float, n_pr: int, kappa: int) -> float:
    """Closed-form relativistic Coulomb level; the discretization oracle.

    Channel kappa's k-th bound level (k = 0, 1, ...) has n_pr = k + l_upper + 1;
    for those the effective quantum number n_pr - |kappa| + sqrt(kappa^2 - gamma^2)
    is positive.
    """
    lowest = angular_momenta(kappa)[0] + 1
    if n_pr < lowest:
        raise ValueError(f"principal number {n_pr} below the lowest, {lowest}, of kappa {kappa}")
    if not 0.0 <= gamma < abs(kappa):
        raise ValueError(f"coupling {gamma} outside [0, |kappa|)")
    denom = n_pr - abs(kappa) + math.sqrt(kappa ** 2 - gamma ** 2)
    return (1.0 + (gamma / denom) ** 2) ** -0.5


def lowest_eigenvector(m: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the lowest eigenvalue of the real symmetric m.

    m is shifted in place by lam0 = ``eigvalsh(m)[0]``, and two
    inverse-iteration steps (m - lam0) y_(k+1) = y_k are taken from
    y_0 = 1/sqrt(d), each followed by normalization (Parlett, The Symmetric
    Eigenvalue Problem, ch. 4).  Why two: the eigensolver is backward
    stable, so delta = |lam_min - lam0| is at most about eps*||m||, and
    each step multiplies the weight of an eigenvector with eigenvalue lam_j,
    relative to the lowest one's, by delta / |lam_j - lam0|.  A Rayleigh
    quotient's error is quadratic in those weights, so with g the gap above
    lam_min and c0 the start vector's weight on the lowest eigenvector the
    quotient lies within delta^2 / (g c0^2) of lam_min after one step and
    within delta^4 / (g^3 c0^2) after two.  For the D_gamma^2 margin at
    n=500, gamma 0.05 (eps*||m|| = 2.4e-6, g = 7.5e-3, c0 = 0.44) that is
    4e-9 after one step and 4e-16 after two.
    The quotient of y must lie within 10*eps*||m||_F of lam0.  That gate
    fails when y has not converged to the lowest eigenvector, because the
    start vector has too little weight on it or the shift is not the lowest
    eigenvalue; an exactly singular shifted matrix fails it too.
    """
    tol = 10.0 * np.finfo(float).eps * float(np.linalg.norm(m))
    lam0 = float(np.linalg.eigvalsh(m)[0])
    m[np.diag_indices_from(m)] -= lam0
    y = np.full(m.shape[0], m.shape[0] ** -0.5)
    try:
        for _ in range(2):
            y = np.linalg.solve(m, y)
            y /= np.linalg.norm(y)
    except np.linalg.LinAlgError:
        offset = math.nan
    else:
        offset = abs(float(y @ (m @ y)))
    gate(offset, tol, "lowest eigenvector not found: Rayleigh quotient {value:.3e} "
         "from the lowest eigenvalue > {tol:.1e}")
    return y


def check_kato(grid: ChannelGrid) -> float:
    """Smallest eigenvalue of (pi/2)|D_0| + V; nonnegative in the continuum.

    Neither term depends on the coupling, so the margin is one number per
    grid, with V shared through ``build_coulomb``.
    |D_0| is diagonal and V does not couple the spinor components, so the
    matrix is block-diagonal over them and its smallest eigenvalue is the
    smaller of the two blocks' lowest.  Each is returned as the
    ``rayleigh_quotients`` value of the block's ``lowest_eigenvector``: the
    blocks have norm ~p_max, so the raw eigenvalue's backward error moved
    with the thread count (4.1e-14 at n=500).  The quotient is taken of the
    whole block: summing the kinetic and Coulomb parts apart, each about
    20 times the margin, lost up to 4e-15 to cancellation.
    """
    e = np.diag((math.pi / 2.0) * free_energies(grid))
    v = build_coulomb(grid)
    lows = []
    for c in (0, 1):
        m = e + v[c]
        y = lowest_eigenvector(m.copy())
        lows.append(float(rayleigh_quotients(m, y[:, None])[0]))
    return float(np.min(lows))


def check_dgamma_bound(sys: OneParticleSystem) -> float:
    """Lowest eigenvalue of M = D_gamma^2 - d^2 D_0^2; nonnegative in the continuum.

    D_0^2 is diag(E^2) on both components.  The margin is returned as the
    Rayleigh quotient ||D_gamma y||^2 - d^2 ||E y||^2 of the lowest
    eigenvector y (``lowest_eigenvector``).  M has entries of size p_max^2,
    so its raw eigenvalue carries a backward error eps*||M|| (1e-7 at
    n=200) that swamps a margin of order one and moves with the LAPACK
    driver and the thread count.  The quotient differs from the lowest
    eigenvalue only at second order in the vector's error and is never
    below it, so the margin keeps its meaning and its gate its strictness.
    D_gamma is exactly symmetric, so M is formed as D D^T, which BLAS
    computes as one symmetric rank-k update with an exactly symmetric
    result.
    """
    d2 = d_gamma(sys.gamma) ** 2
    e2 = np.repeat(1.0 + sys.grid.p ** 2, 2)
    m = sys.dgamma @ sys.dgamma.T
    m[np.diag_indices_from(m)] -= d2 * e2
    y = lowest_eigenvector(m)
    return float(np.sum((sys.dgamma @ y) ** 2) - d2 * np.sum(e2 * y ** 2))


def gap_floor(gamma: float) -> float:
    """Lower bound of the soft gap check: the continuum gap sqrt(1-gamma^2)
    less the slack TOL_GAP."""
    return (1.0 - gamma ** 2) ** 0.5 - TOL_GAP


def _norm2(x: np.ndarray) -> float:
    """Spectral norm as sqrt(lambda_max(x^T x)), from a symmetric eigensolve.

    The package's one spectral norm of a general matrix; a symmetric one is
    measured as its largest eigenvalue in magnitude instead.
    ||x||_2^2 is the largest eigenvalue of x^T x (Golub & Van Loan, Matrix
    Computations, sec. 2.5).  At dim 1000 ``eigvalsh`` of that product takes
    under half the time of an SVD and agrees with it to 1e-15 relative.
    The product squares the condition number, which only blurs the small
    singular values; the largest keeps its full relative accuracy.  A non-finite entry gives NaN, which every
    gate fails, and roundoff below zero gives 0.0.
    """
    xtx = x.T @ x
    if not np.isfinite(xtx).all():
        return math.nan
    top = float(np.linalg.eigvalsh(xtx)[-1])
    return math.sqrt(top) if top > 0.0 else 0.0


def decoupling_residuals(sys: OneParticleSystem) -> tuple[float, float]:
    """Unitarity ||U U^T - 1|| and intertwining ||U P_gamma - P_0 U|| of the exact unitary.

    U U^T - 1 is symmetric, so its norm is its largest eigenvalue in
    magnitude, with no further product.  The intertwining defect is taken
    in the FW frame R (``fw_rows``), where P_0 is a row mask, and in the
    eigenbasis X = [X_-, X_+] of D_gamma, which is orthogonal and has
    P_gamma X = [0, X_+].  So (R U P_gamma - P0 R U) X is
    [[-(RU)[:n] X_-, 0], [0, (RU)[n:] X_+]] in rows (:n, n:), and its
    norm is max(||(RU)[:n] X_-||, ||(RU)[n:] X_+||): two half-size
    products and norms in place of a dim-2n product and norm.
    """
    u, n = sys.u_gamma, sys.grid.n
    uu = u @ u.T
    uu[np.diag_indices_from(uu)] -= 1.0
    uni = float(np.max(np.abs(np.linalg.eigvalsh(uu))))
    del uu
    ru = fw_rows(foldy_wouthuysen(sys.grid), u)
    k = int(np.searchsorted(sys.evals, 0.0))  # evals ascend, none is zero
    inter = float(np.maximum(_norm2(ru[:n] @ sys.evecs[:, :k]), _norm2(ru[n:] @ sys.evecs[:, k:])))
    return uni, inter


def measure_coupling(grid: ChannelGrid, gamma: float, kato: float) -> tuple[dict, np.ndarray]:
    """The record of one coupling, and its ``rayleigh_levels``.

    The record holds the ground level and its relative error against the
    channel's lowest Sommerfeld level (principal number l_upper + 1), the
    ``decoupling_residuals``, the grid's Kato margin kato (``check_kato``),
    the ``check_dgamma_bound`` margin and the gap min |level|; at zero
    coupling the Sommerfeld error and the D_gamma^2 margin are 0.  The
    system is assembled here and released on return.
    """
    sys = assemble_system(grid, gamma)
    levels = rayleigh_levels(sys)
    uni, inter = decoupling_residuals(sys)
    dg = check_dgamma_bound(sys) if gamma > 0 else 0.0
    ground = float(levels[levels > 0.0][0])
    if gamma > 0:
        e_ref = sommerfeld_energy(gamma, grid.l_upper + 1, grid.kappa)
        s_rel = abs(ground - e_ref) / e_ref
    else:
        s_rel = 0.0
    return {
        "gamma": gamma, "ground_energy": ground, "sommerfeld_rel_error": s_rel,
        "unitarity_residual": uni, "intertwining_residual": inter,
        "kato_margin": kato, "dgamma_margin": dg, "gap": float(np.min(np.abs(levels))),
    }, levels
