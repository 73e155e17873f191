"""Projector/unitary/Hamiltonian series: toy closed forms and real grids."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from conftest import (
    binomial_half_coefficients,
    cauchy_coefficients,
    coefficient_ratio_radius,
    decoupled_rows,
    dense_h_diag_series,
    dense_u_gamma_series,
    forbid_svd,
    full_riesz_projection_series,
    fw_matrix,
    inv_sqrt_coefficients,
    lu_resolvent_distance,
    projector_blocks,
    pu_series,
    series_mul,
    series_truncate,
    toy_two_level,
    traced_peak,
)
from diracdiag import cli, decoupling, oneparticle
from diracdiag import manybody as mb
from diracdiag.decoupling import (
    DecouplingBundle,
    build_decoupling_bundle,
    fw_frame,
    gate_decoupled_frame,
    gate_norm2,
    h_diag_exact,
    h_diag_series,
    hermitian_frame,
    kato_nagy_rows,
    projector_coefficient,
    projector_series,
    resolvent_distance,
    riesz_projection_series,
    u_gamma_series,
)
from diracdiag.errors import ConsistencyError
from diracdiag.grids import build_channel_grid
from diracdiag.oneparticle import (
    exact_u_gamma,
    foldy_wouthuysen,
    free_energies,
    free_positive_projector,
    fw_conjugate,
    fw_rows,
    positive_levels,
    positive_projector,
)
from diracdiag.series import make_series, series_eval, series_partial_sums


# ---------------------------------------------------------------------------
# toy system: every coefficient in closed form
# ---------------------------------------------------------------------------

def trapezoidal_projector_coefficients(order):
    """Literal trapezoidal sum of the Riesz integral of the toy, order by order.

    Expanding (z - D_0 - gV)^(-1) in g gives coefficient n as the contour
    integral of ((z - D_0)^(-1) V)^n (z - D_0)^(-1) dz / (2 pi i).  The
    circle |z - 1| = 1 encloses the toy's positive level +1 and keeps its
    distance from -1, so the sum over 64 nodes is exact to roundoff.  On a
    momentum grid no circle stays clear of the discretized continuum.
    """
    m_nodes = 64
    lam, v = toy_two_level()
    d0 = np.diag(lam)
    eye = np.eye(d0.shape[0])
    acc = [np.zeros_like(eye, dtype=complex) for _ in range(order + 1)]
    for theta in 2.0 * np.pi * np.arange(m_nodes) / m_nodes:
        z = 1.0 + np.exp(1j * theta)
        weight = np.exp(1j * theta) / m_nodes  # dz / (2 pi i)
        r0 = np.linalg.inv(z * eye - d0)
        term = r0
        for n in range(order + 1):
            acc[n] += weight * term
            term = r0 @ v @ term
    return acc


def toy_projector_coefficients(order):
    """Taylor coefficients of (I + (D_0 + gV)/sqrt(1+g^2))/2 for the toy."""
    d0 = np.diag([1.0, -1.0])
    v = np.array([[0.0, 1.0], [1.0, 0.0]])
    c = binomial_half_coefficients(order // 2 + 1)
    coeffs = [np.diag([1.0, 0.0])]
    for k in range(1, order + 1):
        m = c[k // 2] * (v if k % 2 else d0)
        coeffs.append(0.5 * m)
    return coeffs


@pytest.mark.parametrize("method", ["residue", "quadrature"])
def test_toy_projector_coefficients(method):
    lam, v = toy_two_level()
    if method == "residue":
        p = projector_series(riesz_projection_series(lam, v, 6))
    else:
        p = trapezoidal_projector_coefficients(6)
    ref = toy_projector_coefficients(6)
    for k in range(7):
        assert np.linalg.norm(p[k] - ref[k], 2) < 1e-12
    # the two named low orders explicitly
    assert np.linalg.norm(p[1] - v / 2.0, 2) < 1e-12
    assert np.linalg.norm(p[2] + np.diag(lam) / 4.0, 2) < 1e-12


def test_toy_series_evaluates_to_exact():
    lam, v = toy_two_level()
    p = riesz_projection_series(lam, v, 20)
    u = u_gamma_series(p)
    p = projector_series(p)
    g = 0.3
    h = np.diag(lam) + g * v
    ev, evec = np.linalg.eigh(h)
    pos = evec[:, ev > 0.0]
    pg = pos @ pos.T
    assert np.linalg.norm(series_eval(p, g) - pg, 2) < 1e-11
    assert np.linalg.norm(series_eval(u, g) - exact_u_gamma(pg), 2) < 1e-11


def test_toy_bundle_both_methods_agree():
    # the bundle's chain on the residue projector series (F's rows read from
    # P and gated, then H) against the same unitary and Hamiltonian chain fed
    # by the trapezoidal projector coefficients (real up to roundoff); the
    # toy's FW frame is the identity, so F's rows need no rotation back
    lam, v = toy_two_level()
    p = riesz_projection_series(lam, v, 6)
    f = kato_nagy_rows(p)
    gate_decoupled_frame(f, p)
    h = h_diag_series(f, lam, v)
    pq = make_series([c.real for c in trapezoidal_projector_coefficients(6)])
    fq = decoupled_rows(list(u_gamma_series(projector_blocks(pq)).coeffs), list(pq.coeffs), 1)
    hq = h_diag_series(fq, lam, v)
    assert h.order == hq.order == 6
    for cr, cq in zip(h.coeffs, hq.coeffs):
        assert np.linalg.norm(cr - cq, 2) < 1e-12


def test_bundle_matches_dense_oracle():
    # the FW-frame bundle against the full-size chain in the original frame,
    # fed by the same projector series, rotated back with the dense frame R
    grid = build_channel_grid(64)
    bundle = build_decoupling_bundle(grid, 6)
    p_fw, u_fw = pu_series(grid, 6)
    q = fw_matrix(foldy_wouthuysen(grid))
    p = make_series([q.T @ c @ q for c in p_fw.coeffs])
    u = dense_u_gamma_series(p, free_positive_projector(grid))
    f = series_mul(u, p)
    h = dense_h_diag_series(grid, make_series([q @ c @ q.T for c in f.coeffs]))

    def rel(x, ref):
        return np.linalg.norm(x - ref) / np.linalg.norm(ref)

    for k in range(7):
        assert rel(u_fw[k], q @ u[k] @ q.T) <= 1e-12
        assert rel(bundle.f_upper[k], (q @ f[k])[:64]) <= 1e-12
        assert rel(bundle.h_upper[k], h[k][:64, :64]) <= 1e-12


@pytest.mark.parametrize("n", [100, 200])
def test_bundle_matches_the_product_route(n, request):
    # F's rows read from P against the upper rows of the Cauchy product U P
    # of the same P and U, and H = F D F^H formed from each
    bundle = request.getfixturevalue(f"bundle{n}")
    p, u = request.getfixturevalue(f"pu{n}")
    grid = request.getfixturevalue(f"grid{n}")
    lam, vfw = fw_frame(grid)
    rows = decoupled_rows(u.coeffs, p.coeffs, n)
    h = h_diag_series(rows, lam, vfw)
    assert bundle.order == h.order
    for k, row in enumerate(rows):
        f = fw_rows(foldy_wouthuysen(grid), row.T, back=True).T
        assert np.linalg.norm(bundle.f_upper[k] - f) <= 1e-14 * np.linalg.norm(f)
        assert np.linalg.norm(bundle.h_upper[k] - h[k]) <= 1e-14 * np.linalg.norm(h[k])


class _NoProduct(np.ndarray):
    """An array that refuses to enter a matrix product."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            raise AssertionError("dense product with a frame matrix")
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _NoProduct) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_bundle_takes_no_product_with_the_frame_matrices(monkeypatch):
    # the bundle reads the FW rotation's node blocks from foldy_wouthuysen;
    # handed blocks that refuse every matrix product, it builds the same
    # series, so it applies the frame only node by node
    grid = build_channel_grid(32)
    ref = build_decoupling_bundle(grid, 4)

    def guarded(g):
        return foldy_wouthuysen(g).view(_NoProduct)

    with pytest.raises(AssertionError, match="dense product"):
        guarded(grid) @ np.eye(2)
    monkeypatch.setattr(decoupling, "foldy_wouthuysen", guarded)
    bundle = build_decoupling_bundle(grid, 4)
    for a, b in zip(bundle.h_upper.coeffs + bundle.f_upper, ref.h_upper.coeffs + ref.f_upper):
        assert np.array_equal(a, b)


def test_riesz_rejects_bad_arguments():
    with pytest.raises(ValueError, match="order"):
        riesz_projection_series(*toy_two_level(), 0)


def test_u_series_rejects_mismatched_projector():
    toy = toy_two_level()
    p = riesz_projection_series(*toy, 4)
    with pytest.raises(ValueError, match="order"):
        gate_decoupled_frame([c[:1] for c in u_gamma_series(p).coeffs],
                             riesz_projection_series(*toy, 5))


def inv_sqrt_route_u(p, k):
    """U = M S^(-1/2) by each column half of M times the inverse square root
    of its diagonal block, a Cauchy product: the route ``u_gamma_series``
    replaced by right division by S^(1/2)."""
    dim = p.dim
    sign = np.where(np.arange(dim) < k, 1.0, -1.0)[:, None]
    u = [np.empty((dim, dim)) for _ in p.coeffs]
    for cols in (slice(0, k), slice(k, dim)):
        m = [sign * c[:, cols] for c in p.coeffs]
        m[0] = m[0] + (np.eye(dim) - np.diag(np.arange(dim) < k))[:, cols]
        for un, x in zip(u, cauchy_coefficients(m, inv_sqrt_coefficients([c[cols] for c in m]))):
            un[:, cols] = x
    return u


@pytest.mark.parametrize("case", ["toy", "sys100"])
def test_u_series_matches_inverse_square_root_route(case, pu100):
    if case == "toy":
        blocks = riesz_projection_series(*toy_two_level(), 12)
        p, u = projector_series(blocks), u_gamma_series(blocks)
    else:
        p, u = pu100
    k = p.dim // 2
    for got, ref in zip(u.coeffs, inv_sqrt_route_u(p, k)):
        assert np.linalg.norm(got - ref, 2) <= 1e-13 * max(1.0, np.linalg.norm(ref, 2))


def test_u_series_leaves_the_projector_series_unchanged(grid100):
    p = riesz_projection_series(*fw_frame(grid100), 4)
    before = [[c.copy() for c in block] for block in p]
    u_gamma_series(p)
    for block, ref_block in zip(p, before):
        for c, ref in zip(block, ref_block):
            assert np.array_equal(c, ref) and not c.flags.writeable


@pytest.mark.parametrize("n,order", [(64, 4), (64, 12), (100, 4), (100, 12)])
def test_projector_blocks_match_the_full_recursion(n, order):
    # the three-block recursion against the full-matrix recursion, and P_(-+)
    # as the transpose of P_(+-)
    lam, vfw = fw_frame(build_channel_grid(n))
    blocks = riesz_projection_series(lam, vfw, order)
    ref = full_riesz_projection_series(lam, vfw, order)
    got = projector_series(blocks)
    scale = max(np.max(np.abs(c)) for c in ref.coeffs)
    assert got.order == order
    for c, r in zip(got.coeffs, ref.coeffs):
        assert np.max(np.abs(c - r)) <= 1e-14 * scale


@pytest.mark.parametrize("n,order", [(64, 4), (100, 8)])
def test_potential_and_hamiltonian_coefficients_are_exactly_symmetric(n, order):
    # the FW potential is taken as 0.5 (x + x^T), and each H_n as S + S^T
    # with every pair of transposed terms once in S, so both are symmetric
    # bit for bit: a Hermiticity gate on H would read exactly 0
    grid = build_channel_grid(n)
    vfw = fw_frame(grid)[1]
    assert np.array_equal(vfw, vfw.T)
    h = build_decoupling_bundle(grid, order).h_upper
    assert h.order == order
    for c in h.coeffs:
        assert np.array_equal(c, c.T)


def test_projector_coefficients_are_exactly_symmetric(grid100):
    # each pair of transposed terms is added as t + t^T and the middle term
    # is X X^T, so every coefficient, and the assembled P, is symmetric bit
    # for bit: a Hermiticity gate on P would read exactly 0
    a, b, c = riesz_projection_series(*fw_frame(grid100), 8)
    for x in a + c:
        assert np.array_equal(x, x.T)
    assert not (a[1].any() or c[1].any())
    for x in projector_series((a, b, c)).coeffs:
        assert np.array_equal(x, x.T)


def _turned_fw_rotation(angle):
    """``foldy_wouthuysen`` with every node block turned by a further angle."""
    turn = np.array([[math.cos(angle), math.sin(angle)], [-math.sin(angle), math.cos(angle)]])
    return lambda grid: turn @ foldy_wouthuysen(grid)


DRIFT = r"projector series constant term drifted from P_\+\^0"


def test_projector_constant_term_drift_gate_trips(monkeypatch, tmp_path, capsys):
    # a FW rotation 1e-9 rad off sends the free projector 1e-9 away from the
    # row mask that is the projector series' constant term; the rotation is
    # turned where the bundle and the one-particle layer read it, for the
    # direct build and for a run
    for module in (decoupling, oneparticle):
        monkeypatch.setattr(module, "foldy_wouthuysen", _turned_fw_rotation(1e-9))
    with pytest.raises(ConsistencyError, match=f"^{DRIFT}$"):
        build_decoupling_bundle(build_channel_grid(16), 2)
    doc = {"grid": {"n": 16}, "gamma_list": [0.2], "series_order": 2,
           "nbody": {"n_particles": 1, "n_plus": 2}}
    (tmp_path / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["converge", "--config", str(tmp_path / "cfg.json"),
                     "--output", str(tmp_path / "o")]) == 3
    assert re.search(f"^numerical failure: {DRIFT}$", capsys.readouterr().err, re.M)


# ---------------------------------------------------------------------------
# real grid series against exactly assembled operators
# ---------------------------------------------------------------------------

def test_projector_series_matches_exact(pu100, sys100):
    # the bundle's series is in the FW frame; the spectral norm is invariant
    s = sys100(0.2)
    pg = positive_projector(s.evals, s.evecs)
    err = np.linalg.norm(series_eval(pu100[0], 0.2) - fw_conjugate(foldy_wouthuysen(s.grid), pg), 2)
    assert err < 1e-7


def test_unitary_series_matches_exact(pu100, sys100):
    s = sys100(0.2)
    err = np.linalg.norm(
        series_eval(pu100[1], 0.2) - fw_conjugate(foldy_wouthuysen(s.grid), s.u_gamma), 2)
    assert err < 1e-7


def test_hamiltonian_series_matches_exact(bundle100, sys100):
    s = sys100(0.2)
    err = np.linalg.norm(
        series_eval(bundle100.h_upper, 0.2) - h_diag_exact(s), 2)
    assert err < 1e-5


def test_hamiltonian_constant_term_is_free_branch(bundle100, grid100):
    h0 = bundle100.h_upper[0]
    assert np.linalg.norm(h0 - np.diag(free_energies(grid100)), 2) < 1e-11


def test_hamiltonian_coefficients_upper_supported(pu100, grid100):
    # the full Hamiltonian series, rebuilt at full size from the bundle's
    # projector and unitary series, lives on the upper block alone
    p, u = pu100
    h = dense_h_diag_series(grid100, series_mul(u, p))
    for c in h.coeffs:
        scale = max(1.0, np.linalg.norm(c, 2))
        assert np.linalg.norm(c[100:, :], 2) < 1e-9 * scale
        assert np.linalg.norm(c[:, 100:], 2) < 1e-9 * scale


def test_h_diag_exact_spectrum(sys100):
    s = sys100(0.3)
    e = fw_rows(foldy_wouthuysen(s.grid), s.u_gamma @ positive_projector(s.evals, s.evecs))
    hd = e @ s.dgamma @ e.T
    # lower block empty, upper block carries exactly the positive spectrum
    assert np.linalg.norm(hd[100:, :], 2) < 1e-9
    got = np.sort(np.linalg.eigvalsh(hd[:100, :100]))
    want = positive_levels(s)
    assert got.size == want.size
    assert np.max(np.abs(got - want)) < 1e-9
    # h_diag_exact is that upper block
    assert np.max(np.abs(h_diag_exact(s) - hd[:100, :100])) <= 1e-14 * np.max(np.abs(hd))


def test_order_accuracy_scaling(bundle100, sys100):
    # truncating at k leaves an O(gamma^(k+1)) defect: quartering the
    # coupling should shrink the k=3 remainder by about 4^4
    errs = {}
    for gamma in (0.08, 0.32):
        s = sys100(gamma)
        approx = series_eval(series_truncate(bundle100.h_upper, 3), gamma)
        errs[gamma] = np.linalg.norm(approx - h_diag_exact(s), 2)
    ratio = errs[0.32] / errs[0.08]
    assert 4.0 ** 4 / 6.0 < ratio < 4.0 ** 4 * 6.0


def test_weighted_remainder_decreases(bundle100, sys100):
    rs = [r["weighted_remainder_norm"]
          for r in mb.convergence_rows(bundle100, sys100(0.2))]
    assert all(a > b for a, b in zip(rs, rs[1:]))
    assert rs[8] < 1e-4 * rs[2]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_resolvent_distance_scalar_oracle():
    # (0+i)^-1 = -i and (1+i)^-1 = (1-i)/2 differ by 1/sqrt(2)
    a, b = np.array([[0.0]]), np.array([[1.0]])
    d = resolvent_distance(a, b, hermitian_frame(a), hermitian_frame(b))
    assert abs(d - 1.0 / np.sqrt(2.0)) < 1e-14


def test_resolvent_distance_zero_on_equal(sys100):
    h = h_diag_exact(sys100(0.1))
    assert resolvent_distance(h, h, hermitian_frame(h), hermitian_frame(h)) == 0.0


@pytest.mark.parametrize("gamma", [0.1, 0.3])
def test_resolvent_distance_matches_lu_oracle_one_particle(sys100, bundle100, gamma):
    # the exact upper block (norm ~p_max) against every truncation, from the
    # order-0 free energies, a near-diagonal matrix, to the roundoff floor
    exact = h_diag_exact(sys100(gamma))
    for k, (approx,) in enumerate(series_partial_sums(zip(bundle100.h_upper.coeffs), gamma)):
        a = 0.5 * (approx + approx.T)
        ref = lu_resolvent_distance(exact, a)
        got = resolvent_distance(exact, a, hermitian_frame(exact), hermitian_frame(a))
        assert abs(got - ref) <= 1e-11 * ref + 1e-15, k


def test_coefficient_ratio_radius_geometric():
    base = np.eye(3)
    series = make_series([(0.5 ** k) * base for k in range(12)])
    ratios, radius = coefficient_ratio_radius(series)
    assert np.allclose(ratios, 0.5, atol=1e-12)
    assert abs(radius - 2.0) < 1e-6


def test_bundle_keeps_only_f_rows_and_h():
    assert [f.name for f in dataclasses.fields(DecouplingBundle)] == ["f_upper", "h_upper"]


def test_bundle_build_peak():
    # memory model of the build at n=100, order 8, in series of nine 200 x 200
    # coefficients: P's three blocks (three quarters of a series) and F's
    # upper rows (half a series), and at most two and a quarter working
    # coefficients while F^H F = P is gated: the Gram accumulator, one
    # product and the buffers of the in-place adds.  The FW potential is not
    # alive then; it was, beside a gate of F P = F with one and a quarter
    # working coefficients (a peak of 13.15 coefficients, against 12.73
    # without it).  The grid is fresh, as in a run, which builds the bundle
    # before it assembles any system: the build also forms the grid's
    # Coulomb matrix (``oneparticle.build_coulomb``, half a coefficient),
    # which stays cached with the grid, so this traces 13.24 coefficients,
    # against 12.74 with the matrix built beforehand.
    # While the rows are formed, G and one root (a quarter series each)
    # stand where the rows will be.  P as full coefficients held 9 of the 15
    # bound before; allocating the rows before the second root held a
    # quarter series more (17.53 coefficients), and forming the whole U
    # series and F = U P from it held 23.24
    coeff = 200 * 200 * 8
    bundle, peak = traced_peak(build_decoupling_bundle, build_channel_grid(100), 8)
    assert bundle.order == 8
    assert peak < (9 * 3 / 4 + 9 / 2 + 1 + 1.25) * coeff


def test_bundle_shapes(bundle100, pu100, grid100):
    assert bundle100.order == 8
    p0 = fw_conjugate(foldy_wouthuysen(grid100), free_positive_projector(grid100))
    p, u = pu100
    assert np.linalg.norm(p[0] - p0, 2) < 1e-12
    assert u.dim == 200 and bundle100.h_upper.dim == 100
    assert len(bundle100.f_upper) == 9
    assert all(f.shape == (100, 200) for f in bundle100.f_upper)


# ---------------------------------------------------------------------------
# structural gates: Frobenius pre-test, spectral decision
# ---------------------------------------------------------------------------
# Each gate gets a defect x with ||x||_F > tol >= ||x||_2, which must pass
# through the spectral-norm branch, and one just above tol, which must
# raise.  That branch takes no SVD (``forbid_svd``).  The messages are the
# templates of the gate sites in decoupling.py.

UNITARITY = "unitarity defect of the U series: coefficient residual {value:.3e} > {tol:.1e}"
FRAME_ROWS = ("decoupled frame rows not orthonormal: coefficient {index} of F F^H - 1 "
              "is {value:.3e} > {tol:.1e}")


def _needs_spectral_norm(x, tol):
    return np.linalg.norm(x) > tol >= np.linalg.norm(x, 2)


def test_series_residual_gate(monkeypatch):
    ok = 0.9e-9 * np.eye(4)
    assert _needs_spectral_norm(ok, 1e-9)
    forbid_svd(monkeypatch)
    assert gate_norm2([np.zeros((4, 4)), ok], 1e-9, UNITARITY) == pytest.approx(0.9e-9)
    bad = [np.zeros((4, 4)), 1.1e-9 * np.eye(4)]
    with pytest.raises(ConsistencyError,
                       match=r"^unitarity defect of the U series: coefficient residual 1\.100e-09 > 1\.0e-09$"):
        gate_norm2(bad, 1e-9, UNITARITY)


def test_gate_norm2_reports_the_worst_failure_and_fails_on_nan():
    mats = [2e-9 * np.eye(2), 5e-9 * np.eye(2), 3e-9 * np.eye(2)]
    with pytest.raises(ConsistencyError, match=r"residual 5\.000e-09 > 1\.0e-09$"):
        gate_norm2(mats, 1e-9, UNITARITY)
    with pytest.raises(ConsistencyError,
                       match=r"^decoupled frame rows not orthonormal: coefficient 1 of F F\^H - 1 "
                             r"is nan > 1\.0e-09$"):
        gate_norm2([np.zeros((2, 2)), np.full((2, 2), np.nan)], 1e-9, FRAME_ROWS)


def _gate_frame(*entries, order=3):
    """Run ``gate_decoupled_frame`` on F = [1, 0] and P = P0, 4 positive
    states of 8, up to the entries (n, row, col, value) set in F_n.

    An entry in F_n's left block is a defect of F F^H = 1 at order n (of
    norm |value| off the diagonal), one in its right block a defect of
    F^H F = P; products of two entries are far below both.
    """
    dim, k = 8, 4
    f = [np.eye(k, dim)] + [np.zeros((k, dim)) for _ in range(order)]
    zero = [np.zeros((k, k))] * (order + 1)
    p = ([np.eye(k)] + zero[1:], zero, zero)
    for n, row, col, value in entries:
        f[n][row, col] = value
    gate_decoupled_frame(f, p)


def test_frame_orthonormality_gate(monkeypatch):
    # F_1 = x [1, 0] makes F F^H - 1 = 2x at order 1, and F^H F - P =
    # blockdiag(2x, 0): at 2x = 0.9e-9 the first gate passes, and leaves the
    # second 1e-9 / s - 0.9e-9 = 1.0e-10 (``gate_decoupled_frame``)
    ok = 0.9e-9 * np.eye(4)
    assert _needs_spectral_norm(ok, 1e-9)
    forbid_svd(monkeypatch)
    with pytest.raises(ConsistencyError,
                       match=r"^decoupled frame leaves the projector's range: coefficient 1 of "
                             r"F\^H F - P is 9\.000e-10 > 1\.0e-10$"):
        _gate_frame(*((1, i, i, 0.45e-9) for i in range(4)), order=1)
    with pytest.raises(ConsistencyError,
                       match=r"^decoupled frame rows not orthonormal: coefficient 1 of F F\^H - 1 "
                             r"is 1\.100e-09 > 1\.0e-09$"):
        _gate_frame(*((1, i, i, 0.55e-9) for i in range(4)), order=1)


def test_frame_range_gate(monkeypatch):
    # F_1 = [0, x] makes F^H F - P = [[0, x], [x, 0]] at order 1, and
    # F_1 F_0^H = 0
    x = 0.9e-9 * np.eye(4)
    ok = np.block([[np.zeros((4, 4)), x], [x, np.zeros((4, 4))]])
    assert _needs_spectral_norm(ok, 1e-9)
    forbid_svd(monkeypatch)
    _gate_frame(*((1, i, 4 + i, 0.9e-9) for i in range(4)), order=1)
    with pytest.raises(ConsistencyError,
                       match=r"^decoupled frame leaves the projector's range: coefficient 1 of "
                             r"F\^H F - P is 1\.100e-09 > 1\.0e-09$"):
        _gate_frame(*((1, i, 4 + i, 1.1e-9) for i in range(4)), order=1)


def test_frame_gates_name_the_worst_coefficient():
    # each gate names the coefficient farthest over its tolerance, here
    # coefficient 2, neither the first failing one nor the last
    _gate_frame()
    with pytest.raises(ConsistencyError,
                       match=r"^decoupled frame rows not orthonormal: coefficient 2 of F F\^H - 1 "
                             r"is 3\.000e-06 > 1\.0e-09$"):
        _gate_frame((1, 0, 1, 2e-9), (2, 1, 2, 3e-6), (3, 2, 3, 1e-6))
    with pytest.raises(ConsistencyError,
                       match=r"^decoupled frame leaves the projector's range: coefficient 2 of "
                             r"F\^H F - P is 3\.000e-06 > 1\.0e-09$"):
        _gate_frame((1, 0, 4, 2e-9), (2, 1, 5, 3e-6), (3, 2, 6, 1e-6))


def _range_defects_dense(f, p):
    """Spectral norms of the coefficients of F P - F, by the Cauchy product
    of F's rows with the assembled P: the quantity the range gate bounds."""
    full = [projector_coefficient(p, n) for n in range(len(f))]
    return [np.linalg.norm(sum(f[m] @ full[n - m] for m in range(n + 1)) - f[n], 2)
            for n in range(len(f))]


def test_frame_gates_bound_the_range_defect():
    # F P - F = -F (F^H F - P) + (F F^H - 1) F coefficient by coefficient,
    # so the gates (F F^H - 1 at 1e-9 reading o, F^H F - P at 1e-9 / s - o)
    # pass only when every ||(F P - F)_n||_2 <= 1e-9; seeded perturbations
    # of F's coefficients, on one block or both, of norm 1e-10 to 1e-8
    p = riesz_projection_series(*fw_frame(build_channel_grid(32)), 4)
    f0 = kato_nagy_rows(p)
    k = f0[0].shape[0]
    assert max(_range_defects_dense(f0, p)) < 1e-13
    rng = np.random.default_rng(33)
    fired_on = {"rows": 0, "range": 0, None: 0}
    for _ in range(60):
        f = [c.copy() for c in f0]
        for n in rng.choice(np.arange(1, 5), size=rng.integers(1, 3), replace=False):
            e = rng.standard_normal(f[n].shape)
            e[:, [slice(0, k), slice(k, None), slice(0, 0)][rng.integers(3)]] = 0.0
            f[n] += 10.0 ** rng.uniform(-10, -8) * e / np.linalg.norm(e, 2)
        try:
            gate_decoupled_frame(f, p)
            fired = None
        except ConsistencyError as err:
            fired = "rows" if "not orthonormal" in str(err) else "range"
        assert fired or max(_range_defects_dense(f, p)) <= 1e-9
        fired_on[fired] += 1
    assert min(fired_on.values()) >= 5, fired_on

