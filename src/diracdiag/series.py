"""Truncated matrix power series in a single real coupling.

A series of order K is the tuple (A_0, ..., A_K) of square matrices, all of
the same dimension, standing for sum_k g^k A_k with the tail discarded.
``make_series`` validates and freezes such a tuple.  The algebra works on
plain coefficient sequences, so that blocks of a series can be multiplied
and only the series a caller keeps pay for validation.  Products are
Cauchy products truncated at the common order, formed by the callers on
the blocks they need (``decoupling``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ORDER_CAP
from .oneparticle import _norm2

SQRT_BASE_TOL = 1e-10


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
    """Validate a list of coefficient matrices and freeze them into a series.

    Coefficients must be square, finite and real: a complex one raises
    ValueError, since the norms of ``coefficient_norms`` read x^T x.
    The series takes the arrays it is given: each is frozen in place, not
    copied, so a series costs no memory beyond its coefficients.  A caller
    that still holds one of them can no longer write to it.
    """
    mats = [np.asarray(c) for c in coeffs]
    if not mats:
        raise ValueError("series needs at least the order-0 coefficient")
    if len(mats) - 1 > ORDER_CAP:
        raise ValueError(f"order {len(mats) - 1} exceeds cap {ORDER_CAP}")
    d = mats[0].shape
    if len(d) != 2 or d[0] != d[1]:
        raise ValueError(f"coefficients must be square, got shape {d}")
    for k, m in enumerate(mats):
        if m.shape != d:
            raise ValueError(f"coefficient {k} has shape {m.shape}, expected {d}")
        if np.iscomplexobj(m):
            raise ValueError(f"coefficient {k} is complex; series are real")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"coefficient {k} has non-finite entries")
    for m in mats:
        m.flags.writeable = False
    return MatrixSeries(coeffs=tuple(mats))


def series_partial_sums(coeffs, g: float):
    """Yield the partial sums S_k = S_(k-1) + g^k A_k at coupling g, k = 0, 1, ...

    coeffs is any iterable of the coefficients A_k of a block-diagonal
    operator, each a tuple of its blocks, and so is every partial sum:
    ``zip(a.coeffs)`` for one series a.  Each truncation costs one
    addition, where evaluating every truncation afresh would cost k.  The
    N-particle series is summed with this arithmetic on its site operators,
    in place and before any lift (``manybody.site_partial_sums``).
    """
    coeffs = iter(coeffs)
    acc = tuple(np.array(c) for c in next(coeffs))
    yield acc
    gk = 1.0
    for blocks in coeffs:
        gk *= g
        acc = tuple(s + gk * c for s, c in zip(acc, blocks))
        yield acc


def series_eval(a: MatrixSeries, g: float) -> np.ndarray:
    """Evaluate the partial sum at coupling g by Horner's rule."""
    acc = np.array(a.coeffs[-1])
    for k in range(a.order - 1, -1, -1):
        acc = a.coeffs[k] + g * acc
    return acc


def sqrt_coefficients(a) -> list[np.ndarray]:
    """Square root R of a real symmetric series A whose constant term is the identity.

    R_0 = I, and matching order n of R R = A gives
    R_n = (A_n - sum_{m=1}^{n-1} R_m R_{n-m}) / 2 (Higham, Functions of
    Matrices, ch. 6): O(K^2) products where the binomial series
    sum_m c_m (A - I)^m costs O(K^3); both give the unique series with
    R_0 = I, which commutes with A order by order.  Every R_m is
    symmetric, so the terms m and n - m are transposes of each other:
    each pair is formed once as t + t^T and the middle term as
    R_m R_m^T, so R_n is exactly symmetric when A_n is.  Terms with an
    exactly zero factor are skipped.  a is any iterable of A_0, A_1, ...;
    each A_n is read once, when R_n is formed, and not kept, so the
    caller can hand out blocks of a larger array one at a time.
    """
    a = iter(a)
    a0 = next(a)
    eye = np.eye(a0.shape[0])
    if np.linalg.norm(a0 - eye) > SQRT_BASE_TOL:
        raise ValueError("square root requires an identity constant term")
    r, nonzero = [eye], [True]
    for n, an in enumerate(a, 1):
        acc = np.array(an)
        for m in range(1, (n + 1) // 2):
            if nonzero[m] and nonzero[n - m]:
                t = r[m] @ r[n - m]
                t += t.T
                acc -= t
        if n % 2 == 0 and nonzero[n // 2]:
            acc -= r[n // 2] @ r[n // 2].T
        acc *= 0.5
        r.append(acc)
        nonzero.append(bool(acc.any()))
    return r


def coefficient_norms(a: MatrixSeries) -> np.ndarray:
    """Spectral norm (``oneparticle._norm2``) of each coefficient, for radius diagnostics."""
    return np.array([_norm2(c) for c in a.coeffs])
