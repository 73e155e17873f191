"""Power-series expansions of the spectral projector, the decoupling
unitary, and the block-diagonalized one-particle Hamiltonian.

Coefficients are defined by the Riesz integral of the resolvent expansion
around the positive branch.  The integral does not depend on the contour
as long as it separates the two branches, so it is evaluated exactly by
residues in the frame that diagonalizes the free operator, with the
enclosed block being the positive eigenvalues.  The recursion obtains
cross-gap coefficients from the commutator equation, where denominators
are bounded below by the spectral gap, and same-sign blocks from the
idempotency constraint, so no division by the tiny spacings inside the
discretized continuum ever occurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .oneparticle import OneParticleSystem
from .series import (
    MatrixSeries,
    coefficient_norms,
    make_series,
    series_adjoint,
    series_constant,
    series_identity,
    series_inv_sqrt,
    series_mul,
    series_sub,
)


# ---------------------------------------------------------------------------
# Projector series
# ---------------------------------------------------------------------------

def _fw_frame(sys: OneParticleSystem) -> tuple[np.ndarray, np.ndarray]:
    """Free eigenvalues (interleaved +E, -E) and the potential in that frame.

    Read off the rotated free operator itself rather than the grid, so any
    system whose u_fw diagonalizes its d0 works, not only grid-built ones.
    """
    dfw = sys.u_fw @ sys.d0 @ sys.u_fw.T
    lam = np.diag(dfw).copy()
    vfw = sys.u_fw @ sys.v @ sys.u_fw.T
    return lam, vfw


def riesz_projection_series(sys: OneParticleSystem, order: int) -> MatrixSeries:
    """Series of the positive spectral projector of D_0 + g V.

    The enclosed block is the positive eigenvalues of D_0 in the
    Foldy-Wouthuysen frame.  Cross-block entries follow from
    [D_0, C_n] = [V, C_(n-1)] restricted across the gap; the within-block
    entries are fixed by idempotency of the projector series.
    """
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    lam, vfw = _fw_frame(sys)
    chi = lam > 0
    pos = np.where(chi)[0]
    neg = np.where(~chi)[0]
    denom = lam[:, None] - lam[None, :]
    coeffs = [np.diag(chi.astype(float))]
    for n in range(1, order + 1):
        a = vfw @ coeffs[n - 1] - coeffs[n - 1] @ vfw
        x = np.zeros_like(a)
        x[np.ix_(pos, neg)] = -a[np.ix_(pos, neg)] / denom[np.ix_(pos, neg)]
        x[np.ix_(neg, pos)] = -a[np.ix_(neg, pos)] / denom[np.ix_(neg, pos)]
        if n > 1:
            s = np.zeros_like(a)
            for m in range(1, n):
                s += coeffs[m] @ coeffs[n - m]
            x[np.ix_(pos, pos)] = -s[np.ix_(pos, pos)]
            x[np.ix_(neg, neg)] = s[np.ix_(neg, neg)]
        coeffs.append(x)
    q = sys.u_fw
    return make_series([q.T @ c @ q for c in coeffs])


def u_gamma_series(p_series: MatrixSeries, p0: np.ndarray, order: int) -> MatrixSeries:
    """Decoupling-unitary series from the projector series.

    U = (P0 p + (1-P0)(1-p)) (1 - (P0 - p)^2)^(-1/2), all truncated at the
    common order.  Unitarity and the intertwining relation hold order by
    order; both are verified and enforced here.
    """
    if p_series.order != order:
        raise ValueError(f"order mismatch: series has {p_series.order}, requested {order}")
    if np.linalg.norm(p_series[0] - p0, 2) > 1e-11:
        raise ValueError("projector series constant term differs from the free projector")
    dim = p_series.dim
    ident = series_identity(dim, order)
    p0s = series_constant(p0, order)
    q0s = series_constant(np.eye(dim) - p0, order)
    a = series_mul(p0s, p_series)
    b = series_mul(q0s, series_sub(ident, p_series))
    aligned = make_series([x + y for x, y in zip(a.coeffs, b.coeffs)])
    diff = series_sub(p0s, p_series)
    s = series_sub(ident, series_mul(diff, diff))
    u = series_mul(aligned, series_inv_sqrt(s))
    _check_series_residual(series_sub(series_mul(series_adjoint(u), u), ident),
                           "unitarity defect of the U series")
    _check_series_residual(series_sub(series_mul(u, p_series), series_mul(p0s, u)),
                           "intertwining defect of the U series")
    return u


def _worst_norm2(mats, tol: float) -> float:
    """Largest spectral norm among mats whenever that exceeds tol.

    The Frobenius norm bounds the spectral norm from above, so only the
    matrices whose Frobenius norm exceeds tol pay for an SVD.  When every
    spectral norm is at most tol the result is too (0.0 if no SVD ran),
    so `_worst_norm2(mats, tol) > tol` decides exactly as the maximum of
    all spectral norms would.
    """
    return max((np.linalg.norm(m, 2) for m in mats if np.linalg.norm(m) > tol), default=0.0)


def _check_series_residual(residual: MatrixSeries, label: str, tol: float = 1e-9) -> None:
    worst = _worst_norm2(residual.coeffs, tol)
    if worst > tol:
        raise ConsistencyError(f"{label}: coefficient residual {worst:.3e} > {tol:.1e}")


def h_diag_series(sys: OneParticleSystem, f_series: MatrixSeries) -> MatrixSeries:
    """Series of the block-diagonalized one-particle Hamiltonian.

    Conjugates the two-term operator series (D_0, V) by F = U P and then by
    the free-basis rotation; every coefficient is supported on the upper
    block.
    """
    order = f_series.order
    d = make_series([sys.d0, sys.v] + [np.zeros_like(sys.d0)] * (order - 1))
    core = series_mul(series_mul(f_series, d), series_adjoint(f_series))
    q = sys.u_fw
    return make_series([q @ c @ q.T for c in core.coeffs])


# ---------------------------------------------------------------------------
# Bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecouplingBundle:
    """Projector, unitary, and Hamiltonian series sharing one truncation order.

    f_series is the product U P of the unitary and projector series, built
    once here for the one-particle Hamiltonian series and the dressed
    N-particle frames.  The series coefficients do not depend on the
    coupling of the generating system; weight_neg_half is the |D_0|^(-1/2)
    factor of the weighted remainder norms.
    """

    p_series: MatrixSeries
    u_series: MatrixSeries
    f_series: MatrixSeries
    h_series: MatrixSeries
    weight_neg_half: np.ndarray
    system: OneParticleSystem

    @property
    def order(self) -> int:
        return self.p_series.order


def build_decoupling_bundle(sys: OneParticleSystem, order: int = 12) -> DecouplingBundle:
    p = riesz_projection_series(sys, order)
    if np.linalg.norm(p[0] - sys.p_plus_0, 2) > 1e-11:
        raise ConsistencyError("projector series constant term drifted from P_+^0")
    _check_projector_hermitian(p)
    u = u_gamma_series(p, sys.p_plus_0, order)
    f = series_mul(u, p)
    h = h_diag_series(sys, f)
    _check_h_block_structure(h)
    return DecouplingBundle(p_series=p, u_series=u, f_series=f, h_series=h,
                            weight_neg_half=sys.abs_d0_neg_half, system=sys)


def _check_projector_hermitian(p: MatrixSeries) -> None:
    hermit = _worst_norm2([c - c.conj().T for c in p.coeffs], 1e-10)
    if hermit > 1e-10:
        raise ConsistencyError(f"projector coefficients not Hermitian: {hermit:.3e}")


def _check_h_block_structure(h: MatrixSeries) -> None:
    """Hermitian coefficients supported on the upper (even-index) block.

    Both tolerances scale with max(1, ||c||_2).  The Frobenius norms of the
    defects bound their spectral norms from above and ||c||_F / sqrt(dim)
    bounds ||c||_2 from below, so a coefficient that passes on these cheap
    bounds passes the spectral test; SVDs run only when they cannot decide.
    """
    for k, c in enumerate(h.coeffs):
        scale_lo = max(1.0, np.linalg.norm(c) / math.sqrt(c.shape[0]))
        herm = c - c.conj().T
        if (np.linalg.norm(herm) > 1e-10 * scale_lo
                and np.linalg.norm(herm, 2) > 1e-10 * max(1.0, np.linalg.norm(c, 2))):
            raise ConsistencyError(f"Hamiltonian coefficient {k} not Hermitian")
        rows, cols = c[1::2, :], c[:, 1::2]
        if np.linalg.norm(rows) + np.linalg.norm(cols) > 1e-9 * scale_lo:
            lower = np.linalg.norm(rows, 2) + np.linalg.norm(cols, 2)
            if lower > 1e-9 * max(1.0, np.linalg.norm(c, 2)):
                raise ConsistencyError(
                    f"Hamiltonian coefficient {k} leaks out of the upper block: {lower:.3e}")


def upper_block(mat: np.ndarray) -> np.ndarray:
    """Restriction to the upper spinor components (even indices)."""
    return mat[0::2, :][:, 0::2]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def resolvent(m: np.ndarray, name: str = "first") -> np.ndarray:
    """(m+i)^(-1) of a Hermitian matrix, by an LU inverse.

    An eigendecomposition would give the same operator more cheaply but
    less accurately: on the one-particle upper block (||m|| ~ p_max) it
    raises the floor of the resolvent distances by more than an order of
    magnitude.  name ("first"/"second") labels m in the Hermiticity error.
    """
    tol = 1e-10 * max(1.0, float(np.linalg.norm(m, np.inf)))
    if _worst_norm2([m - m.conj().T], tol) > tol:
        raise ValueError(f"{name} argument is not Hermitian within tolerance")
    return np.linalg.inv(m + 1j * np.eye(m.shape[0]))


def resolvent_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||(a+i)^(-1) - (b+i)^(-1)||, the norm-resolvent metric at spectral shift i."""
    return float(np.linalg.norm(resolvent(a, "first") - resolvent(b, "second"), 2))


def h_diag_exact(sys: OneParticleSystem) -> np.ndarray:
    """Exact block-diagonalized Hamiltonian from the exact unitaries."""
    e = sys.u_fw @ sys.u_gamma @ sys.p_plus_gamma
    return e @ sys.dgamma @ e.conj().T


def coefficient_ratio_radius(series: MatrixSeries, tail: int = 6) -> tuple[np.ndarray, float]:
    """Stepwise norm ratios and the fitted convergence radius.

    Fits log ||C_n|| against n over the last `tail` coefficients; the slope
    is -log(radius).  Ratios oscillate between even and odd orders, so the
    fit is more stable than any single quotient.
    """
    norms = coefficient_norms(series)
    ratios = norms[1:] / norms[:-1]
    use = np.arange(len(norms))[-tail:]
    slope = np.polyfit(use, np.log(norms[use]), 1)[0]
    return ratios, float(np.exp(-slope))
