"""Power-series expansions of the spectral projector, the decoupling
unitary, and the block-diagonalized one-particle Hamiltonian.

Everything is computed in the Foldy-Wouthuysen (FW) frame with the
positive free states first (``oneparticle.fw_rows``), where the free
projector is a row mask.  Coefficients are defined by the Riesz integral
of the resolvent expansion around the positive branch.  The integral does not depend on the contour
as long as it separates the two branches, so it is evaluated exactly by
residues in the frame that diagonalizes the free operator, with the
enclosed block being the positive eigenvalues.  The recursion obtains
cross-gap coefficients from the commutator equation, where denominators
are bounded below by the spectral gap, and same-sign blocks from the
idempotency constraint, so no division by the tiny spacings inside the
discretized continuum ever occurs.  The projector series is real
symmetric and is held as its three blocks P_(++), P_(+-) and P_(--), each
symmetric product of its recursion formed once.  The unitary series is
the Kato-Nagy transform of the projector series, which in this frame needs
two half-size square roots.  F = U P = P0 U has nonzero rows on the positive
states only, U's upper rows, which are read straight from P's blocks, so
the bundle forms no U and the Hamiltonian series F D F^T is formed as its
upper block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import gate
from .grids import ChannelGrid
from .oneparticle import (
    OneParticleSystem,
    _norm2,
    build_coulomb,
    dense_potential,
    foldy_wouthuysen,
    free_energies,
    free_positive_projector,
    fw_conjugate,
    fw_rows,
    positive_projector,
)
from .series import (
    MatrixSeries,
    make_series,
    sqrt_coefficients,
)


# ---------------------------------------------------------------------------
# Projector series
# ---------------------------------------------------------------------------

def fw_frame(grid: ChannelGrid) -> tuple[np.ndarray, np.ndarray]:
    """Free eigenvalues lam and the Coulomb potential vfw in the FW frame.

    Both depend on the grid alone.  The frame is R = Pi B
    (``oneparticle.fw_rows``, B from ``oneparticle.foldy_wouthuysen``), the
    positive free states first, so the free eigenvalues are +E then -E
    (``oneparticle.free_energies``).  The grid's Coulomb matrix
    (``oneparticle.build_coulomb``) is conjugated as a dense matrix
    (``oneparticle.dense_potential``) and returned as
    0.5 (x + x^T), exactly symmetric: the two passes of the conjugation
    round the two triangles differently (by up to 1.8e-12 at n=200), and
    ``h_diag_series`` reads one triangle for the other.
    """
    e = free_energies(grid)
    vfw = fw_conjugate(foldy_wouthuysen(grid), dense_potential(build_coulomb(grid)))
    return np.concatenate((e, -e)), 0.5 * (vfw + vfw.T)


def riesz_projection_series(lam: np.ndarray, vfw: np.ndarray, order: int) -> tuple:
    """Series of the positive spectral projector of D_0 + g V, in the FW
    frame, as its three blocks (A, B, C) = (P_(++), P_(+-), P_(--)).

    lam are the free eigenvalues, the positive ones first, and vfw the
    exactly symmetric potential in that frame (``fw_frame``).  The enclosed
    block is the positive eigenvalues of D_0, the first half of the FW
    frame.  P is real symmetric, so P_(-+) is B^T and is not stored.
    Cross-block entries follow from [D_0, C_n] = [V, C_(n-1)] restricted
    across the gap, formed once per order; the within-block entries are
    fixed by idempotency of the projector series:
    A_k = -sum_(m=1)^(k-1) (A_m A_(k-m) + B_m B_(k-m)^T) and
    C_k = sum (B_m^T B_(k-m) + C_m C_(k-m)).  Terms m and k - m are
    transposes of each other, so each pair is formed once as t + t^T and
    the middle term as X X^T, and every coefficient is exactly symmetric.
    A_0 = 1, B_0 = C_0 = 0, and A_1 = C_1 = 0, B_1 = V_(+-) / gap exactly,
    so no product is formed with them.  Each block is a tuple of the
    order + 1 read-only coefficients; ``projector_series`` assembles the
    full P.
    """
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    n = lam.size // 2
    pos, neg = slice(0, n), slice(n, None)
    v11, v12, v22 = vfw[pos, pos], vfw[pos, neg], vfw[neg, neg]
    gap = lam[pos, None] - lam[None, neg]
    zero = np.zeros((n, n))
    a, b, c = [np.eye(n), zero], [zero, v12 / gap], [zero, zero]
    for k in range(2, order + 1):
        x = v11 @ b[k - 1] - b[k - 1] @ v22
        if k > 2:  # A_1 = C_1 = 0
            x += v12 @ c[k - 1] - a[k - 1] @ v12
        x /= -gap
        b.append(x)
        s_pos = np.zeros((n, n))
        s_neg = np.zeros((n, n))
        for m in range(1, (k + 1) // 2):
            tp = b[m] @ b[k - m].T
            tn = b[m].T @ b[k - m]
            if m > 1:  # A_1 = C_1 = 0
                tp += a[m] @ a[k - m]
                tn += c[m] @ c[k - m]
            tp += tp.T
            tn += tn.T
            s_pos += tp
            s_neg += tn
        if k % 2 == 0:
            h = k // 2
            s_pos += b[h] @ b[h].T
            s_neg += b[h].T @ b[h]
            if h > 1:
                s_pos += a[h] @ a[h].T
                s_neg += c[h] @ c[h].T
        a.append(-s_pos)
        c.append(s_neg)
    for x in a + b + c:
        x.flags.writeable = False
    return tuple(a), tuple(b), tuple(c)


def projector_coefficient(p, n: int) -> np.ndarray:
    """Coefficient n of the full projector series from its blocks p = (A, B, C)
    (``riesz_projection_series``)."""
    a, b, c = (x[n] for x in p)
    return np.block([[a, b], [b.T, c]])


def projector_series(p) -> MatrixSeries:
    """The full projector series, assembled from its blocks p = (A, B, C)."""
    return make_series([projector_coefficient(p, n) for n in range(len(p[0]))])


# ---------------------------------------------------------------------------
# Unitary and Hamiltonian series
# ---------------------------------------------------------------------------

def _nonzero(mats) -> list[bool]:
    """Whether each matrix has a nonzero entry, so products with exact zeros are skipped."""
    return [bool(x.any()) for x in mats]


def kato_nagy_rows(p, lower: bool = False) -> list:
    """Rows of the Kato-Nagy unitary U = M S^(-1/2), M = P0 P + Q0 Q,
    S = 1 - (P0 - P)^2 (``oneparticle.exact_u_gamma``), from the projector
    blocks p = (A, B, C) = (P_(++), P_(+-), P_(--)) in the FW frame
    (``riesz_projection_series``), where P0 is the row mask of the first
    half of the states.

    S = blockdiag(A, 1 - C), so the upper rows are [A^(1/2), G] with G R = B,
    also F's only nonzero rows (F = U P = P0 U), and the lower rows,
    returned with lower, [-X, R] with X A^(1/2) = B^T, where
    R = (1 - C)^(1/2) (Kato, Perturbation Theory, I sec. 4.6).  Each root
    is a half-size series (``series.sqrt_coefficients``), one alive at a
    time without lower, and each division by it the forward substitution
    Y_n = Z_n - sum_{j=1}^{n} Y_(n-j) R_j of Y R = Z, skipping the roots'
    exactly zero coefficients (R_1 = A^(1/2)_1 = 0, since A_1 = C_1 = 0).
    G is formed from R first, then A^(1/2), and only then each row as
    their concatenation, releasing both halves as it is formed, so beside
    P at most G and one root (a quarter series each) are alive.
    """
    pa, pb, pc = p
    k = pa[0].shape[0]
    r = sqrt_coefficients((np.eye(k) if n == 0 else 0.0) - c for n, c in enumerate(pc))
    g = _right_divide(pb, r)
    if not lower:
        del r
    a = sqrt_coefficients(pa)
    if lower:
        x = _right_divide([-c.T for c in pb], a)
    rows = []
    for n in range(len(pa)):
        rows.append(np.block([[a[n], g[n]], [x[n], r[n]]]) if lower else np.hstack((a[n], g[n])))
        a[n] = g[n] = None  # each half released as its row is formed
    return rows


def _right_divide(z, r) -> list:
    """Y with Y R = Z for series Z and R, R_0 = 1, by forward substitution."""
    nonzero = _nonzero(r)
    y = []
    for n, zn in enumerate(z):
        y.append(zn - sum(y[n - j] @ r[j] for j in range(1, n + 1) if nonzero[j]))
    return y


def u_gamma_series(p) -> MatrixSeries:
    """Decoupling-unitary series ``kato_nagy_rows`` in the FW frame from the
    projector blocks p, gated unitary order by order (``_gram_defects``)."""
    u = kato_nagy_rows(p, lower=True)
    gate_norm2(_gram_defects(u), 1e-9,
               "unitarity defect of the U series: coefficient residual {value:.3e} > {tol:.1e}")
    return make_series(u)


def _gram_defects(u, p=None):
    """Yield the coefficients of U^T U - 1, or of U^T U - P from the
    projector blocks p = (A, B, C), each product paired with its transpose.

    The one routine of the series' Gram gates: U^T U - 1 of the U series,
    F F^T - 1 (U = F^T) and F^T F - P (U = F, with p).  U_0 is the leading
    block of the identity, exactly (``kato_nagy_rows``): columns for U and
    F^T, so U_0^T U_n is U_n's leading rows, and rows for F = [1, 0], so
    U_0^T U_n is U_n over zero rows.  U_0^T U_0 is 1, or P_0 =
    blockdiag(1, 0) exactly (``riesz_projection_series``), so order 0 is
    zero.  Each product and its transpose are added to the accumulator in
    place, and P_n is subtracted by blocks, so beside the accumulator one
    product is alive.
    """
    rows, k = u[0].shape
    yield np.zeros((k, k))
    for n in range(1, len(u)):
        acc = np.zeros((k, k))
        acc[:rows] = u[n][:k]
        acc[:, :rows] += u[n][:k].T
        for m in range(1, (n + 1) // 2):
            t = u[m].T @ u[n - m]
            acc += t
            acc += t.T
            del t
        if n % 2 == 0:
            acc += u[n // 2].T @ u[n // 2]
        if p is not None:
            a, b, c = (x[n] for x in p)
            acc[:rows, :rows] -= a
            acc[:rows, rows:] -= b
            acc[rows:, :rows] -= b.T
            acc[rows:, rows:] -= c
        yield acc


def gate_decoupled_frame(f: list, p) -> None:
    """Gate F's rows order by order: F F^T = 1 at 1e-9, then F^T F = P.

    f are F's upper rows (``kato_nagy_rows``) and p the projector blocks
    (``riesz_projection_series``); both Gram sums pair term m with term
    n - m, its transpose (``_gram_defects``).  F^T F = P makes F D F^T the
    compression of D onto P's range.  The second gate's tolerance is
    1e-9 / s - o, with o the value the first gate returns and
    s = 1 + sum_(a>=1) ||F_a||_F >= sum_a ||F_a||_2 (||F_0||_2 = 1), so
    that, coefficient by coefficient,
    F P - F = -F (F^T F - P) + (F F^T - 1) F gives ||(F P - F)_n|| <= 1e-9.
    Each gate names the coefficient farthest over its tolerance.
    """
    if len(f) != len(p[0]):
        raise ValueError(f"order mismatch: {len(f) - 1} vs {len(p[0]) - 1}")
    o = gate_norm2(_gram_defects([c.T for c in f]), 1e-9,
                   "decoupled frame rows not orthonormal: coefficient {index} of F F^H - 1 "
                   "is {value:.3e} > {tol:.1e}")
    s = 1.0 + sum(np.linalg.norm(c) for c in f[1:])
    gate_norm2(_gram_defects(f, p), 1e-9 / s - o,
               "decoupled frame leaves the projector's range: coefficient {index} of F^H F - P "
               "is {value:.3e} > {tol:.1e}")


def h_diag_series(f_rows, lam: np.ndarray, vfw: np.ndarray) -> MatrixSeries:
    """Upper block of the block-diagonalized one-particle Hamiltonian series.

    H = F D F^T with D = diag(lam) + g vfw, everything in the FW frame and
    real; f_rows are F's rows on the positive free states, so the product
    is H's upper block, the only nonzero one.  In
    H_n = sum_(a+b=n) F_a Lambda F_b^T + sum_(a+b=n-1) F_a vfw F_b^T
    terms (a, b) and (b, a) are transposes of each other (vfw is exactly
    symmetric, ``fw_frame``), so H_n = S_n + S_n^T with S_n the terms
    a > b and half of each middle term a = b: each product is formed once,
    and since IEEE addition commutes every coefficient is exactly
    symmetric.  Terms with F_0 = [1, 0] are read off: F_n Lambda F_0^T is
    F_n's left block times Lambda_+, and F_n vfw F_0^T is the left block of
    F_n vfw, which is kept for the other terms; F_a Lambda is formed where
    it is used.  Products with F_1's zero left block are formed on the
    right blocks only.
    """
    k = f_rows[0].shape[0]
    left_nz = _nonzero(f[:, :k] for f in f_rows)

    def times(x, b):  # x F_b^T, on the right blocks only where F_b's left block is zero
        return x @ f_rows[b].T if left_nz[b] else x[:, k:] @ f_rows[b][:, k:].T

    fv = [None] + [f @ vfw if nz else f[:, k:] @ vfw[k:]
                   for f, nz in zip(f_rows[1:-1], left_nz[1:-1])]
    coeffs = []
    for n, fn in enumerate(f_rows):
        s = fn[:, :k] * lam[:k] if n else np.diag(0.5 * lam[:k])
        for a in range(n - 1, n // 2, -1):  # a > b = n - a >= 1
            s += times(f_rows[a] * lam, n - a)
        if n > 1 and n % 2 == 0:
            s += 0.5 * times(f_rows[n // 2] * lam, n // 2)
        if n == 1:
            s += 0.5 * vfw[:k, :k]
        elif n:
            s += fv[n - 1][:, :k]
        for a in range(n - 2, (n - 1) // 2, -1):  # a > b = n - 1 - a >= 1
            s += times(fv[a], n - 1 - a)
        if n > 1 and n % 2 == 1:
            s += 0.5 * times(fv[n // 2], n // 2)
        s += s.T
        coeffs.append(s)
    return make_series(coeffs)


# ---------------------------------------------------------------------------
# Bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecouplingBundle:
    """The decoupled frame and the block-diagonalized Hamiltonian, as series
    sharing one truncation order.

    F = U P, with P the projector and U the unitary series, is stored as
    f_upper: its rows on the positive free states (F's only nonzero rows in
    the FW frame R = Pi B, ``oneparticle.fw_rows``), with columns in the
    original frame; it feeds the dressed N-particle frames.  h_upper is the
    upper block of R H R^T, the block-diagonalized Hamiltonian's only
    nonzero block.  P and U themselves are not kept (``riesz_projection_series``
    and ``u_gamma_series`` give them).  The bundle is built from the grid
    alone (``build_decoupling_bundle``), so no coupling enters it.
    """

    f_upper: tuple
    h_upper: MatrixSeries

    @property
    def order(self) -> int:
        return self.h_upper.order


def build_decoupling_bundle(grid: ChannelGrid, order: int) -> DecouplingBundle:
    """Build every series of the grid's channel in the FW frame, where P0 is
    a row mask, and store them as ``DecouplingBundle`` describes.

    The coefficients are fixed by the free operator and the potential
    (``fw_frame``), so the grid and the order are the only inputs.

    F's upper rows come straight from P (``kato_nagy_rows``), so no
    coefficient of U or Cauchy product U P is formed.
    Memory, in series of order K with 2n x 2n coefficients: P's three
    blocks (three quarters of a series) and F's rows (half a series),
    beside the Gram gates' accumulator and one product (two coefficients,
    ``_gram_defects``); that is the floor.  While the rows are formed, G
    and one half-size square root (a quarter series each) stand where they
    will be.  The FW potential is formed for P and again for H once P is
    gone, so it is not alive while the rows are formed and gated.
    """
    blocks = foldy_wouthuysen(grid)
    p = riesz_projection_series(*fw_frame(grid), order)
    gate_norm2([projector_coefficient(p, 0) - fw_conjugate(blocks, free_positive_projector(grid))],
               1e-11, "projector series constant term drifted from P_+^0")
    f = kato_nagy_rows(p)
    gate_decoupled_frame(f, p)
    del p
    h = h_diag_series(f, *fw_frame(grid))
    f_upper = tuple(fw_rows(blocks, c.T, back=True).T for c in f)
    for c in f_upper:
        c.flags.writeable = False
    return DecouplingBundle(f_upper=f_upper, h_upper=h)


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def gate_norm2(mats, tol: float, message: str) -> float:
    """Gate the spectral norms of mats (any iterable) at tol through
    ``gate``; return the gated value.

    Each matrix is measured by ``_norm2_against`` and dropped before the
    next is drawn, so a generator forms one at a time; ``enumerate`` would
    hold it on in its reused result tuple while the next is formed.  One is
    gated, with its position as the field index: the first failing one
    farthest over tol, or else the first one nearest it.
    """
    worst, i = None, 0
    for m in mats:
        measured = (*_norm2_against(m, tol), i)
        del m
        if worst is None or measured[:2] > worst[:2]:
            worst = measured
        i += 1
    *_, value, i = worst
    return float(gate(value, tol, message, index=i))


def _norm2_against(m: np.ndarray, tol: float) -> tuple:
    """(failed, value) of ||m||_2 against tol.

    The Frobenius norm bounds the spectral norm from above, so a matrix
    that passes on it passes the spectral test; the spectral norm
    (``oneparticle._norm2``) is taken only when it cannot decide.  value
    is the spectral norm or the Frobenius bound that decided.  A NaN fails.
    """
    value = np.linalg.norm(m)
    if value > tol:
        value = _norm2(m)
    return not value <= tol, value


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def hermitian_frame(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors q of a symmetric m and the moduli 1/|lam + i| of (m+i)^(-1).

    (m+i)^(-1) = q diag(1/(lam+i)) q^T, and 1/(lam+i) is (lam^2+1)^(-1/2)
    times a unit phase.  A complex m raises ValueError: the eigensolve
    would read it as Hermitian.  Symmetry is not gated: every caller passes
    a matrix that is exactly symmetric as formed (``h_diag_exact``,
    ``h_diag_series``, ``manybody.sector_blocks``) or an elementwise
    partial sum of such.
    The eigensolve reads the upper triangle, so the tridiagonal reduction
    starts from the last row: on the one-particle upper block, whose rows
    run up in momentum to entries of size p_max, that is the largest
    entries first.  Started from the first row, the order-0 distances at
    n=200 (a near-diagonal truncation) moved by up to 5.8e-14 from LU
    resolvents and by 1.8e-13 between one and two BLAS threads; started
    from the last, by at most 2.5e-16 and 2.5e-15.
    """
    if np.iscomplexobj(m):
        raise ValueError("hermitian_frame takes a real symmetric matrix, got a complex one")
    lam, q = np.linalg.eigh(m, UPLO="U")
    return q, 1.0 / np.hypot(lam, 1.0)


def resolvent_distance(a: np.ndarray, b: np.ndarray, frame_a, frame_b) -> float:
    """||(a+i)^(-1) - (b+i)^(-1)||, the norm-resolvent metric at spectral shift i.

    By the second resolvent identity the difference is
    (a+i)^(-1) (b - a) (b+i)^(-1) (Kato, Perturbation Theory for Linear
    Operators, I sec. 5).  In the eigenbases of a and b both resolvents
    are diagonal, moduli times unit phases, and diagonal unitaries do not
    change the spectral norm, so the distance is that of
    W_a Q_a^T (b - a) Q_b W_b, a real matrix formed from b - a, not as the
    difference of two resolvents.  a and b must be exactly symmetric, and
    frame_a and frame_b are their ``hermitian_frame``.
    """
    (qa, wa), (qb, wb) = frame_a, frame_b
    return _norm2(wa[:, None] * (qa.T @ (b - a) @ qb) * wb)


def h_diag_exact(sys: OneParticleSystem) -> np.ndarray:
    """Upper block E D_gamma E^T of the exact block-diagonalized Hamiltonian.

    E = (R U_gamma P_gamma)[:n] are the rows of the exact decoupled frame on
    the positive free states, R the FW frame of ``oneparticle.fw_rows``.
    The lower rows of R U_gamma P_gamma = P0 R U_gamma vanish, so this is
    the operator's only nonzero block.  E is real, and the block H is
    returned as (H + H^T)/2, exactly symmetric since IEEE addition commutes.
    """
    pg = positive_projector(sys.evals, sys.evecs)
    e = fw_rows(foldy_wouthuysen(sys.grid), sys.u_gamma @ pg)[:sys.grid.n]
    h = e @ sys.dgamma @ e.T
    h += h.T
    h *= 0.5
    return h
