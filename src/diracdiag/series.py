"""Truncated matrix power series in a single real coupling.

A series of order K is the tuple (A_0, ..., A_K) of square matrices, all of
the same dimension, standing for sum_k g^k A_k with the tail discarded.
Binary operations require matching dimension and order so that truncation
errors stay where the caller put them.  All products are Cauchy products
truncated at the common order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ORDER_CAP = 64
INV_COND_CAP = 1e12
INV_SQRT_BASE_TOL = 1e-10


@dataclass(frozen=True)
class MatrixSeries:
    """Immutable truncated power series of square matrices.

    coeffs[k] is the order-k coefficient.  Order is len(coeffs) - 1.
    """

    coeffs: tuple = field()

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def dim(self) -> int:
        return self.coeffs[0].shape[0]

    def __getitem__(self, k: int) -> np.ndarray:
        return self.coeffs[k]


def make_series(coeffs) -> MatrixSeries:
    """Validate and freeze a list of coefficient matrices into a series."""
    mats = [np.asarray(c) for c in coeffs]
    if not mats:
        raise ValueError("series needs at least the order-0 coefficient")
    if len(mats) - 1 > ORDER_CAP:
        raise ValueError(f"order {len(mats) - 1} exceeds cap {ORDER_CAP}")
    d = mats[0].shape
    if len(d) != 2 or d[0] != d[1]:
        raise ValueError(f"coefficients must be square, got shape {d}")
    out = []
    for k, m in enumerate(mats):
        if m.shape != d:
            raise ValueError(f"coefficient {k} has shape {m.shape}, expected {d}")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"coefficient {k} has non-finite entries")
        m = m.copy()
        m.flags.writeable = False
        out.append(m)
    return MatrixSeries(coeffs=tuple(out))


def series_zero(dim: int, order: int) -> MatrixSeries:
    return make_series([np.zeros((dim, dim))] * (order + 1))


def series_identity(dim: int, order: int) -> MatrixSeries:
    coeffs = [np.eye(dim)] + [np.zeros((dim, dim))] * order
    return make_series(coeffs)


def series_constant(mat: np.ndarray, order: int) -> MatrixSeries:
    """Series whose only nonzero coefficient is mat at order 0."""
    mat = np.asarray(mat)
    coeffs = [mat] + [np.zeros_like(mat)] * order
    return make_series(coeffs)


def _check_binary(a: MatrixSeries, b: MatrixSeries) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")


def series_add(a: MatrixSeries, b: MatrixSeries) -> MatrixSeries:
    _check_binary(a, b)
    return make_series([x + y for x, y in zip(a.coeffs, b.coeffs)])


def series_sub(a: MatrixSeries, b: MatrixSeries) -> MatrixSeries:
    _check_binary(a, b)
    return make_series([x - y for x, y in zip(a.coeffs, b.coeffs)])


def series_scale(a: MatrixSeries, c: float) -> MatrixSeries:
    return make_series([c * x for x in a.coeffs])


def series_mul(a: MatrixSeries, b: MatrixSeries) -> MatrixSeries:
    """Cauchy product truncated at the common order."""
    _check_binary(a, b)
    K = a.order
    # skip products with exactly-zero factors; high orders are often sparse
    a_nz = [np.count_nonzero(c) > 0 for c in a.coeffs]
    b_nz = [np.count_nonzero(c) > 0 for c in b.coeffs]
    out = []
    for n in range(K + 1):
        acc = np.zeros((a.dim, a.dim), dtype=np.result_type(a.coeffs[0], b.coeffs[0]))
        for m in range(n + 1):
            if a_nz[m] and b_nz[n - m]:
                acc = acc + a.coeffs[m] @ b.coeffs[n - m]
        out.append(acc)
    return make_series(out)


def series_adjoint(a: MatrixSeries) -> MatrixSeries:
    return make_series([c.conj().T for c in a.coeffs])


def series_partial_sums(a: MatrixSeries, g: float):
    """Yield the partial sums S_k = S_(k-1) + g^k A_k at coupling g, k = 0..order.

    Each truncation costs one addition, where evaluating every truncation
    afresh would cost k.
    """
    acc = np.array(a.coeffs[0])
    yield acc
    gk = 1.0
    for c in a.coeffs[1:]:
        gk *= g
        acc = acc + gk * c
        yield acc


def series_eval(a: MatrixSeries, g: float) -> np.ndarray:
    """Evaluate the partial sum at coupling g by Horner's rule."""
    acc = np.array(a.coeffs[-1])
    for k in range(a.order - 1, -1, -1):
        acc = a.coeffs[k] + g * acc
    return acc


def series_inv(a: MatrixSeries) -> MatrixSeries:
    """Multiplicative inverse: B_0 = A_0^-1, B_n = -A_0^-1 sum_{m>=1} A_m B_{n-m}.

    Refuses serieses whose constant term is singular or ill-conditioned,
    since every higher coefficient multiplies by A_0^-1 once per order.
    """
    s = np.linalg.svd(a.coeffs[0], compute_uv=False)
    if s[-1] == 0.0 or s[0] / s[-1] > INV_COND_CAP:
        raise ValueError(
            f"constant term is not safely invertible: smallest singular value {s[-1]:.3e}"
        )
    a0_inv = np.linalg.inv(a.coeffs[0])
    inv = [a0_inv]
    for n in range(1, a.order + 1):
        acc = np.zeros_like(a0_inv)
        for m in range(1, n + 1):
            acc = acc + a.coeffs[m] @ inv[n - m]
        inv.append(-a0_inv @ acc)
    return make_series(inv)


def series_inv_sqrt(a: MatrixSeries) -> MatrixSeries:
    """Inverse square root by the coefficient recurrence of B^2 = A^-1.

    Requires the constant term to be the identity, so B_0 = I and matching
    order n of B B = T with T = A^-1 gives
    B_n = (T_n - sum_{m=1}^{n-1} B_m B_{n-m}) / 2 (Higham, Functions of
    Matrices, ch. 6).  That is O(K^2) products where the binomial series
    sum_m c_m (A - I)^m costs O(K^3); both give the unique series with
    B_0 = I.  The result commutes with A order by order and squares to the
    inverse of A.
    """
    if np.linalg.norm(a.coeffs[0] - np.eye(a.dim)) > INV_SQRT_BASE_TOL:
        raise ValueError("inverse square root requires an identity constant term")
    t = series_inv(a)
    b = [np.eye(a.dim)]
    for n in range(1, a.order + 1):
        acc = t.coeffs[n]
        for m in range(1, n):
            acc = acc - b[m] @ b[n - m]
        b.append(0.5 * acc)
    return make_series(b)


def series_kron(a: MatrixSeries, b: MatrixSeries) -> MatrixSeries:
    """Cauchy product in the Kronecker sense: C_n = sum_m A_m (x) B_{n-m}."""
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")
    K = a.order
    a_nz = [np.count_nonzero(c) > 0 for c in a.coeffs]
    b_nz = [np.count_nonzero(c) > 0 for c in b.coeffs]
    d = a.dim * b.dim
    out = []
    for n in range(K + 1):
        acc = np.zeros((d, d))
        for m in range(n + 1):
            if a_nz[m] and b_nz[n - m]:
                acc = acc + np.kron(a.coeffs[m], b.coeffs[n - m])
        out.append(acc)
    return make_series(out)


def coefficient_norms(a: MatrixSeries) -> np.ndarray:
    """Spectral norm of each coefficient, for radius diagnostics."""
    return np.array([np.linalg.norm(c, 2) for c in a.coeffs])
