"""Series algebra against polynomial oracles and algebraic identities."""

import numpy as np
import pytest

from conftest import (
    binomial_half_coefficients,
    cauchy_coefficients,
    series_add,
    series_adjoint,
    series_constant,
    series_identity,
    series_inv,
    series_inv_sqrt,
    series_kron,
    series_mul,
    series_scale,
    series_sub,
    series_truncate,
    series_zero,
)
from diracdiag.series import (
    ORDER_CAP,
    coefficient_norms,
    make_series,
    series_eval,
    series_partial_sums,
    sqrt_coefficients,
)

TOL = 1e-10


def random_series(dim, order, seed, hermitian=False, unit_constant=False):
    rng = np.random.default_rng(seed)
    coeffs = [rng.standard_normal((dim, dim)) for _ in range(order + 1)]
    if hermitian:
        coeffs = [0.5 * (c + c.T) for c in coeffs]
    if unit_constant:
        coeffs[0] = np.eye(dim)
    return make_series(coeffs)


def max_coeff_err(a, b):
    return max(np.linalg.norm(x - y, 2) for x, y in zip(a.coeffs, b.coeffs))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_make_series_rejects_empty():
    with pytest.raises(ValueError, match="at least"):
        make_series([])


def test_make_series_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        make_series([np.ones((2, 3))])


def test_make_series_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        make_series([np.eye(2), np.eye(3)])


def test_make_series_rejects_non_finite():
    bad = np.eye(2)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        make_series([np.eye(2), bad])


def test_make_series_rejects_order_beyond_cap():
    with pytest.raises(ValueError, match="cap"):
        make_series([np.eye(1)] * (ORDER_CAP + 2))


def test_coefficients_frozen():
    s = make_series([np.eye(2)])
    with pytest.raises(ValueError):
        s[0][0, 0] = 5.0


def test_structure_helpers():
    z = series_zero(3, 4)
    assert z.order == 4 and z.dim == 3
    assert all(np.all(c == 0.0) for c in z.coeffs)
    i = series_identity(3, 4)
    assert np.array_equal(i[0], np.eye(3))
    assert all(np.all(c == 0.0) for c in i.coeffs[1:])
    c = series_constant(np.full((2, 2), 7.0), 3)
    assert np.all(c[0] == 7.0)
    assert all(np.all(m == 0.0) for m in c.coeffs[1:])


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def test_add_sub_scale_linear():
    a = random_series(4, 6, 11)
    b = random_series(4, 6, 12)
    s = series_add(a, b)
    d = series_sub(a, b)
    for k in range(7):
        assert np.allclose(s[k], a[k] + b[k], atol=0.0)
        assert np.allclose(d[k], a[k] - b[k], atol=0.0)
    half = series_scale(a, 0.5)
    assert max_coeff_err(series_add(half, half), a) < 1e-14


def test_binary_ops_reject_mismatch():
    a = random_series(3, 4, 1)
    with pytest.raises(ValueError, match="dimension"):
        series_add(a, random_series(4, 4, 2))
    with pytest.raises(ValueError, match="order"):
        series_mul(a, random_series(3, 5, 3))


def test_mul_matches_polynomial_convolution():
    # diagonal coefficients commute, so the matrix product reduces to the
    # scalar polynomial product numpy computes independently
    rng = np.random.default_rng(7)
    pa = rng.standard_normal(7)
    pb = rng.standard_normal(7)
    a = make_series([np.diag([c, 2 * c]) for c in pa])
    b = make_series([np.diag([c, 3 * c]) for c in pb])
    prod = series_mul(a, b)
    ref1 = np.polynomial.polynomial.polymul(pa, pb)[:7]
    ref2 = np.polynomial.polynomial.polymul(2 * pa, 3 * pb)[:7]
    for k in range(7):
        assert abs(prod[k][0, 0] - ref1[k]) < 1e-12
        assert abs(prod[k][1, 1] - ref2[k]) < 1e-12


def test_mul_associative_distributive():
    a = random_series(4, 5, 21)
    b = random_series(4, 5, 22)
    c = random_series(4, 5, 23)
    assert max_coeff_err(series_mul(series_mul(a, b), c),
                         series_mul(a, series_mul(b, c))) < TOL
    assert max_coeff_err(series_mul(a, series_add(b, c)),
                         series_add(series_mul(a, b), series_mul(a, c))) < TOL


def test_cauchy_product_of_blocks():
    # row and column blocks of two series multiply to the blocks of the product
    a = random_series(6, 5, 24)
    b = random_series(6, 5, 25)
    full = series_mul(a, b)
    top = list(cauchy_coefficients([c[:2] for c in a.coeffs], b.coeffs))
    corner = list(cauchy_coefficients([c[2:] for c in a.coeffs], [c[:, :3] for c in b.coeffs]))
    for k in range(6):
        assert top[k].shape == (2, 6) and corner[k].shape == (4, 3)
        assert np.max(np.abs(top[k] - full[k][:2])) <= 1e-13
        assert np.max(np.abs(corner[k] - full[k][2:, :3])) <= 1e-13
    with pytest.raises(ValueError, match="order"):
        next(cauchy_coefficients(a.coeffs, b.coeffs[:3]))


def test_identity_neutral():
    a = random_series(5, 6, 31)
    i = series_identity(5, 6)
    assert max_coeff_err(series_mul(a, i), a) == 0.0
    assert max_coeff_err(series_mul(i, a), a) == 0.0


def test_adjoint_reverses_products():
    a = random_series(4, 5, 41)
    b = random_series(4, 5, 42)
    lhs = series_adjoint(series_mul(a, b))
    rhs = series_mul(series_adjoint(b), series_adjoint(a))
    assert max_coeff_err(lhs, rhs) < TOL


# ---------------------------------------------------------------------------
# inverse and inverse square root
# ---------------------------------------------------------------------------

def test_inverse_identity():
    a = random_series(5, 8, 51, unit_constant=True)
    inv = series_inv(a)
    assert max_coeff_err(series_mul(a, inv), series_identity(5, 8)) < TOL
    assert max_coeff_err(series_mul(inv, a), series_identity(5, 8)) < TOL


def test_inverse_rejects_singular_constant():
    a = make_series([np.diag([1.0, 0.0]), np.eye(2)])
    with pytest.raises(ValueError, match="invertible"):
        series_inv(a)


def test_inv_sqrt_squares_to_inverse():
    a = random_series(4, 8, 61, hermitian=True, unit_constant=True)
    r = series_inv_sqrt(a)
    assert max_coeff_err(series_mul(r, r), series_inv(a)) < TOL
    # commutes with a order by order
    assert max_coeff_err(series_mul(r, a), series_mul(a, r)) < TOL


def test_inv_sqrt_requires_identity_constant():
    a = make_series([2.0 * np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="identity"):
        series_inv_sqrt(a)


def test_inv_sqrt_scalar_matches_binomial():
    # (1 + g)^(-1/2) expanded through the matrix machinery on 1x1 blocks
    order = 10
    one = np.eye(1)
    a = make_series([one, one] + [np.zeros((1, 1))] * (order - 1))
    r = series_inv_sqrt(a)
    ref = binomial_half_coefficients(order)
    for k in range(order + 1):
        assert abs(r[k][0, 0] - ref[k]) < 1e-14


def test_inv_sqrt_recurrence_matches_binomial_sum():
    # the recurrence against the binomial sum over X = A - I, and B B A = I
    # order by order, on an order-12 series of dimension 16
    order, dim = 12, 16
    rng = np.random.default_rng(91)
    coeffs = [np.eye(dim)] + [0.4 ** k * rng.standard_normal((dim, dim)) / 4.0
                              for k in range(1, order + 1)]
    a = make_series(coeffs)
    r = series_inv_sqrt(a)
    x = make_series([np.zeros((dim, dim))] + coeffs[1:])
    c = binomial_half_coefficients(order)
    ref = series_identity(dim, order)
    xpow = series_identity(dim, order)
    for m in range(1, order + 1):
        xpow = series_mul(xpow, x)
        ref = series_add(ref, series_scale(xpow, c[m]))
    assert max_coeff_err(r, ref) < 1e-12
    assert max_coeff_err(series_mul(series_mul(r, r), a), series_identity(dim, order)) < 1e-12


def _scaled_symmetric_series(dim, order, seed):
    rng = np.random.default_rng(seed)
    coeffs = [0.4 ** k * rng.standard_normal((dim, dim)) / 4.0 for k in range(order + 1)]
    coeffs = [0.5 * (c + c.T) for c in coeffs]
    coeffs[0] = np.eye(dim)
    return coeffs


def test_sqrt_squares_back_order_by_order():
    a = _scaled_symmetric_series(16, 12, 93)
    r = make_series(sqrt_coefficients(a))
    assert np.array_equal(r[0], np.eye(16))
    for n, rr in enumerate(series_mul(r, r).coeffs):
        assert np.linalg.norm(rr - a[n], 2) <= 1e-13 * np.linalg.norm(a[n], 2)
    # R commutes with A order by order
    assert max_coeff_err(series_mul(r, make_series(a)), series_mul(make_series(a), r)) < 1e-13


def test_sqrt_scalar_matches_binomial():
    # (1 + g)^(1/2) expanded through the matrix machinery on 1x1 blocks
    order = 10
    one = np.eye(1)
    r = sqrt_coefficients([one, one] + [np.zeros((1, 1))] * (order - 1))
    ref = binomial_half_coefficients(order, 0.5)
    for k in range(order + 1):
        assert abs(r[k][0, 0] - ref[k]) < 1e-14


def test_sqrt_requires_identity_constant():
    with pytest.raises(ValueError, match="identity constant term"):
        sqrt_coefficients([2.0 * np.eye(2), np.eye(2)])


def test_sqrt_accepts_a_generator():
    # each A_n is read once, in order, so a generator gives the list's result
    a = _scaled_symmetric_series(6, 8, 95)
    read = []

    def stream():
        for n, c in enumerate(a):
            read.append(n)
            yield c

    got = sqrt_coefficients(stream())
    assert read == list(range(9))
    for x, y in zip(got, sqrt_coefficients(a)):
        assert np.array_equal(x, y)


def test_binomial_sequence():
    ref = np.array([1.0, -1.0 / 2.0, 3.0 / 8.0, -5.0 / 16.0, 35.0 / 128.0])
    got = binomial_half_coefficients(4)
    assert np.max(np.abs(got - ref)) < 1e-15


# ---------------------------------------------------------------------------
# kron, truncation, evaluation
# ---------------------------------------------------------------------------

def test_kron_with_constant_factor():
    a = series_constant(np.array([[0.0, 1.0], [2.0, 3.0]]), 5)
    b = random_series(3, 5, 71)
    k = series_kron(a, b)
    assert k.dim == 6
    for n in range(6):
        assert np.allclose(k[n], np.kron(a[0], b[n]), atol=1e-14)


def test_kron_scalar_convolution():
    rng = np.random.default_rng(8)
    pa = rng.standard_normal(6)
    pb = rng.standard_normal(6)
    a = make_series([np.array([[c]]) for c in pa])
    b = make_series([np.array([[c]]) for c in pb])
    k = series_kron(a, b)
    ref = np.polynomial.polynomial.polymul(pa, pb)[:6]
    for n in range(6):
        assert abs(k[n][0, 0] - ref[n]) < 1e-12


def test_truncate_and_eval():
    rng = np.random.default_rng(9)
    pa = rng.standard_normal(7)
    a = make_series([np.array([[c]]) for c in pa])
    t = series_truncate(a, 3)
    assert t.order == 3
    for g in (0.0, 0.3, -1.1):
        assert abs(series_eval(a, g)[0, 0]
                   - np.polynomial.polynomial.polyval(g, pa)) < 1e-12
        assert abs(series_eval(t, g)[0, 0]
                   - np.polynomial.polynomial.polyval(g, pa[:4])) < 1e-12


def test_partial_sums_match_truncated_evaluation():
    # two blocks of different sizes, summed block by block
    a, b = random_series(4, 6, 82), random_series(3, 6, 83)
    for g in (0.0, 0.3, -1.1):
        sums = list(series_partial_sums(zip(a.coeffs, b.coeffs), g))
        assert len(sums) == a.order + 1
        for k, blocks in enumerate(sums):
            assert len(blocks) == 2
            for s, series in zip(blocks, (a, b)):
                ref = series_eval(series_truncate(series, k), g)
                assert np.max(np.abs(s - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_truncate_rejects_bad_order():
    a = random_series(2, 3, 81)
    with pytest.raises(ValueError):
        series_truncate(a, 4)
    with pytest.raises(ValueError):
        series_truncate(a, -1)


def test_coefficient_norms():
    a = make_series([np.eye(2), 3.0 * np.eye(2), np.zeros((2, 2))])
    assert np.allclose(coefficient_norms(a), [1.0, 3.0, 0.0], atol=1e-14)
