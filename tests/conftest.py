"""Shared fixtures.

Heavy objects (assembled systems, series bundles, pair interactions) are
session scoped and built lazily, so module tests at n=100 never pay for the
acceptance-scale n=200 machinery and vice versa.
"""

import itertools
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diracdiag.decoupling import (
    build_decoupling_bundle,
    fw_frame,
    projector_series,
    riesz_projection_series,
    u_gamma_series,
)
from diracdiag.grids import ChannelGrid, build_channel_grid
from diracdiag.manybody import (
    _density_stack,
    _site_series,
    build_pair_interaction,
    sector_blocks,
    site_partial_sums,
)
from diracdiag.oneparticle import (
    OneParticleSystem,
    assemble_system,
    build_coulomb,
    build_free_dirac,
    coulomb_channel_matrix,
    dense_potential,
    foldy_wouthuysen,
    free_energies,
    fw_rows,
    positive_projector,
    positive_states,
)
from diracdiag.report import REPORT_COLUMNS
from diracdiag.series import (
    MatrixSeries,
    coefficient_norms,
    make_series,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """Environment for a `python -m diracdiag` subprocess.

    Puts the absolute src path first on PYTHONPATH, so the child imports
    this checkout from any working directory, also when the parent was
    started with a relative PYTHONPATH.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def traced_peak(fn, *args):
    """Call fn(*args) under tracemalloc; return its result and the peak, in
    bytes, of the Python and numpy memory allocated during the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def forbid_svd(monkeypatch) -> None:
    """From here on in the test, ``np.linalg.svd`` and ``np.linalg.norm(x, 2)``
    raise, so a code path that passes takes its spectral norms without an SVD."""
    norm = np.linalg.norm

    def no_svd(*args, **kwargs):
        raise AssertionError("dense SVD taken")

    def norm_without_ord2(x, ord=None, *args, **kwargs):
        if ord == 2:
            no_svd()
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg, "norm", norm_without_ord2)


def read_report_csv(path: str) -> list[dict]:
    """Parse a convergence table back; inverse of ``report.write_report_csv``."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = tuple(lines[0].split(","))
    if header != REPORT_COLUMNS:
        raise ValueError(f"unexpected report header {header}")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(REPORT_COLUMNS):
            raise ValueError(f"malformed report line: {ln!r}")
        row = {"gamma": float(cells[0]), "k": int(cells[1])}
        for col, cell in zip(REPORT_COLUMNS[2:], cells[2:]):
            row[col] = float(cell)
        rows.append(row)
    return rows


@pytest.fixture(scope="session")
def grid100():
    return build_channel_grid(100)


@pytest.fixture(scope="session")
def grid200():
    return build_channel_grid(200)


def _system_getter(grid):
    cache = {}

    def get(gamma: float) -> OneParticleSystem:
        if gamma not in cache:
            cache[gamma] = assemble_system(grid, gamma)
        return cache[gamma]

    return get


@pytest.fixture(scope="session")
def sys100(grid100):
    """Factory: sys100(gamma) -> assembled system on the n=100 grid, cached."""
    return _system_getter(grid100)


@pytest.fixture(scope="session")
def sys200(grid200):
    """Factory: sys200(gamma) -> assembled system on the n=200 grid, cached."""
    return _system_getter(grid200)


@pytest.fixture(scope="session")
def bundle100(grid100):
    return build_decoupling_bundle(grid100, 8)


@pytest.fixture(scope="session")
def bundle200(grid200):
    return build_decoupling_bundle(grid200, 12)


def pu_series(grid: ChannelGrid, order: int) -> tuple[MatrixSeries, MatrixSeries]:
    """The projector and unitary series P and U that ``build_decoupling_bundle(grid,
    order)`` forms in the FW frame and does not keep, from the same functions,
    with P assembled from its blocks."""
    p = riesz_projection_series(*fw_frame(grid), order)
    return projector_series(p), u_gamma_series(p)


def full_riesz_projection_series(lam: np.ndarray, vfw: np.ndarray, order: int) -> MatrixSeries:
    """The projector series by the recursion on full 2n x 2n coefficients:
    the oracle of ``decoupling.riesz_projection_series``, which runs on
    three blocks and forms each symmetric product once.

    Cross-block entries from [D_0, C_n] = [V, C_(n-1)] across the gap, both
    off-diagonal blocks formed, and the same-sign blocks from idempotency,
    every ordered product of the Cauchy sum formed.
    """
    n = lam.size // 2
    pos, neg = slice(0, n), slice(n, None)
    gap = lam[pos, None] - lam[None, neg]
    coeffs = [np.diag((lam > 0.0).astype(float))]
    for k in range(1, order + 1):
        prev = coeffs[k - 1]
        x = np.empty_like(prev)
        x[pos, neg] = -(vfw[pos] @ prev[:, neg] - prev[pos] @ vfw[:, neg]) / gap
        x[neg, pos] = (vfw[neg] @ prev[:, pos] - prev[neg] @ vfw[:, pos]) / gap.T
        s_pos = np.zeros((n, n))
        s_neg = np.zeros((n, n))
        for m in range(1, k):
            s_pos += coeffs[m][pos] @ coeffs[k - m][:, pos]
            s_neg += coeffs[m][neg] @ coeffs[k - m][:, neg]
        x[pos, pos] = -s_pos
        x[neg, neg] = s_neg
        coeffs.append(x)
    return make_series(coeffs)


def projector_blocks(p: MatrixSeries) -> tuple:
    """The blocks (P_(++), P_(+-), P_(--)) of a full projector series, the
    layout ``decoupling.riesz_projection_series`` returns."""
    k = p.dim // 2
    return tuple(tuple(c[rows, cols] for c in p.coeffs)
                 for rows, cols in ((slice(0, k), slice(0, k)), (slice(0, k), slice(k, None)),
                                    (slice(k, None), slice(k, None))))


@pytest.fixture(scope="session")
def pu100(grid100):
    """P and U of ``bundle100``."""
    return pu_series(grid100, 8)


@pytest.fixture(scope="session")
def pu200(grid200):
    """P and U of ``bundle200``."""
    return pu_series(grid200, 12)


@pytest.fixture(scope="session")
def pair100(grid100):
    return build_pair_interaction(grid100)


@pytest.fixture(scope="session")
def pair200(grid200):
    return build_pair_interaction(grid200)


def binomial_half_coefficients(order: int, power: float = -0.5) -> np.ndarray:
    """Taylor coefficients of (1+x)^power, by default (1+x)^(-1/2): 1, -1/2, 3/8, ...

    The binomial-series oracle for the square-root and inverse-square-root
    recurrences.
    """
    c = np.empty(order + 1)
    c[0] = 1.0
    for m in range(1, order + 1):
        c[m] = c[m - 1] * ((power - (m - 1)) / m)
    return c


def abs_free_dirac_power(grid, power: float) -> np.ndarray:
    """|D_0|^power; diagonal because |D_0| is E_p times the identity per node."""
    return np.diag(np.repeat(free_energies(grid) ** power, 2))


def evr_lowest_vector(m: np.ndarray) -> np.ndarray:
    """Lowest eigenvector of the real symmetric m by scipy's one-vector ``evr``
    solver, refined by one LU inverse-iteration step shifted by its eigenvalue
    and normalized; the oracle of ``oneparticle.lowest_eigenvector``."""
    from scipy.linalg import eigh, lu_factor, lu_solve

    lam, x = eigh(m, subset_by_index=[0, 0], driver="evr")
    y = lu_solve(lu_factor(m - lam[0] * np.eye(m.shape[0])), x[:, 0])
    return y / np.linalg.norm(y)


def resolvent(m: np.ndarray) -> np.ndarray:
    """(m+i)^(-1) by an LU inverse; the oracle of ``decoupling.resolvent_distance``."""
    return np.linalg.inv(m + 1j * np.eye(m.shape[0]))


def lu_resolvent_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||(a+i)^(-1) - (b+i)^(-1)|| as the SVD norm of the difference of two LU resolvents."""
    return float(np.linalg.norm(resolvent(a) - resolvent(b), 2))


def dense_coulomb(grid: ChannelGrid) -> np.ndarray:
    """V as one dim x dim matrix, each channel matrix written into its
    spinor block of the interleaved layout: the dense form that
    ``oneparticle.build_coulomb`` holds as two blocks."""
    v = np.zeros((grid.dim, grid.dim))
    v[0::2, 0::2] = coulomb_channel_matrix(grid.p, grid.w, grid.l_upper)
    v[1::2, 1::2] = coulomb_channel_matrix(grid.p, grid.w, grid.l_lower)
    return v


def toy_two_level() -> tuple[np.ndarray, np.ndarray]:
    """Hand-built 2x2 system as its FW-frame data (lam, V): D_0 = diag(1, -1),
    V swaps the levels.

    It stands for one momentum node at p = 0, whose FW rotation is the
    identity, so (lam, V) enter ``decoupling.riesz_projection_series`` and
    ``decoupling.h_diag_series`` as they are; the Coulomb kernel is 0/0
    there, so no grid gives them.  Closed forms for everything make it the
    sharpest series oracle: the positive projector of D_0 + gV is
    (I + (D_0 + gV)/sqrt(1+g^2))/2.
    """
    return np.array([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])


def series_truncate(a: MatrixSeries, order: int) -> MatrixSeries:
    if order < 0 or order > a.order:
        raise ValueError(f"cannot truncate order-{a.order} series to {order}")
    return make_series(list(a.coeffs[: order + 1]))


# ---------------------------------------------------------------------------
# MatrixSeries algebra over the coefficient-sequence operations of
# diracdiag.series; the program itself multiplies plain coefficient lists
# ---------------------------------------------------------------------------

def _check_binary(a: MatrixSeries, b: MatrixSeries) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")


def cauchy_coefficients(a, b):
    """Yield the coefficients C_0, ..., C_K of the truncated Cauchy product.

    The full products that ``decoupling`` forms by blocks, with its exact
    terms read off.  Each C_n is computed when it is asked for.  Shapes need
    only be compatible for the matrix product, so blocks and
    row slices of square series multiply too.  Products with an
    exactly-zero factor are skipped; high orders are often sparse.
    """
    if len(a) != len(b):
        raise ValueError(f"order mismatch: {len(a) - 1} vs {len(b) - 1}")
    a_nz = [np.count_nonzero(c) > 0 for c in a]
    b_nz = [np.count_nonzero(c) > 0 for c in b]
    shape = (a[0].shape[0], b[0].shape[1])
    dtype = np.result_type(*a, *b)
    for n in range(len(a)):
        acc = np.zeros(shape, dtype=dtype)
        for m in range(n + 1):
            if a_nz[m] and b_nz[n - m]:
                acc += a[m] @ b[n - m]
        yield acc


def series_zero(dim: int, order: int) -> MatrixSeries:
    return make_series([np.zeros((dim, dim))] * (order + 1))


def series_identity(dim: int, order: int) -> MatrixSeries:
    return make_series([np.eye(dim)] + [np.zeros((dim, dim))] * order)


def series_constant(mat: np.ndarray, order: int) -> MatrixSeries:
    """Series whose only nonzero coefficient is mat at order 0."""
    mat = np.asarray(mat)
    return make_series([mat] + [np.zeros_like(mat)] * order)


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
    return make_series(cauchy_coefficients(a.coeffs, b.coeffs))


def series_adjoint(a: MatrixSeries) -> MatrixSeries:
    return make_series([c.conj().T for c in a.coeffs])


INV_COND_CAP = 1e12


def inverse_coefficients(a) -> list[np.ndarray]:
    """Multiplicative inverse: B_0 = A_0^-1, B_n = -A_0^-1 sum_{m>=1} A_m B_{n-m}.

    Refuses serieses whose constant term is singular or ill-conditioned,
    since every higher coefficient multiplies by A_0^-1 once per order.
    """
    s = np.linalg.svd(a[0], compute_uv=False)
    if s[-1] == 0.0 or s[0] / s[-1] > INV_COND_CAP:
        raise ValueError(
            f"constant term is not safely invertible: smallest singular value {s[-1]:.3e}"
        )
    a0_inv = np.linalg.inv(a[0])
    inv = [a0_inv]
    for n in range(1, len(a)):
        acc = np.zeros_like(a0_inv)
        for m in range(1, n + 1):
            acc = acc + a[m] @ inv[n - m]
        inv.append(-a0_inv @ acc)
    return inv


def series_inv(a: MatrixSeries) -> MatrixSeries:
    return make_series(inverse_coefficients(a.coeffs))


INV_SQRT_BASE_TOL = 1e-10


def inv_sqrt_coefficients(a) -> list[np.ndarray]:
    """Inverse square root by the coefficient recurrence of B^2 = A^-1.

    The oracle of ``decoupling.u_gamma_series``, which right-divides by the
    square root (``series.sqrt_coefficients``) instead.  Requires the
    constant term to be the identity, so B_0 = I and matching order n of
    B B = T with T = A^-1 gives B_n = (T_n - sum_{m=1}^{n-1} B_m B_{n-m}) / 2
    (Higham, Functions of Matrices, ch. 6).  The result commutes with A
    order by order and squares to the inverse of A.  With A_0 = I, T starts
    at T_0 = I and follows T_n = -sum_{m>=1} A_m T_(n-m), so no inverse of
    A_0 is taken.
    """
    dim = a[0].shape[0]
    if np.linalg.norm(a[0] - np.eye(dim)) > INV_SQRT_BASE_TOL:
        raise ValueError("inverse square root requires an identity constant term")
    t = [np.eye(dim)]
    for n in range(1, len(a)):
        t.append(-sum(a[m] @ t[n - m] for m in range(1, n + 1)))
    b = [np.eye(dim)]
    for n in range(1, len(a)):
        acc = t[n]
        for m in range(1, n):
            acc = acc - b[m] @ b[n - m]
        b.append(0.5 * acc)
    return b


def series_inv_sqrt(a: MatrixSeries) -> MatrixSeries:
    return make_series(inv_sqrt_coefficients(a.coeffs))


def series_kron(a: MatrixSeries, b: MatrixSeries) -> MatrixSeries:
    """Cauchy product in the Kronecker sense: C_n = sum_m A_m (x) B_{n-m}."""
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")
    a_nz = [np.count_nonzero(c) > 0 for c in a.coeffs]
    b_nz = [np.count_nonzero(c) > 0 for c in b.coeffs]
    d = a.dim * b.dim
    out = []
    for n in range(a.order + 1):
        acc = np.zeros((d, d))
        for m in range(n + 1):
            if a_nz[m] and b_nz[n - m]:
                acc = acc + np.kron(a.coeffs[m], b.coeffs[n - m])
        out.append(acc)
    return make_series(out)


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


# ---------------------------------------------------------------------------
# Dense one-particle oracle: the decoupling in the original frame with
# full-size products, as the program computed it before it moved to the
# Foldy-Wouthuysen frame
# ---------------------------------------------------------------------------

def fw_matrix(blocks: np.ndarray) -> np.ndarray:
    """The FW frame R = Pi B as a dense 2n x 2n matrix, from B's node blocks.

    Row i < n is the upper row of node i's block, row n + i its lower row,
    each placed on the node's two columns 2i, 2i + 1: what
    ``oneparticle.fw_rows`` applies, as one matrix for dense oracles.
    """
    n = blocks.shape[0]
    r = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    for row in (0, 1):
        for col in (0, 1):
            r[row * n + idx, 2 * idx + col] = blocks[:, row, col]
    return r


def dense_exact_u_gamma(p0: np.ndarray, pg: np.ndarray) -> np.ndarray:
    """U = (P0 Pg + (1-P0)(1-Pg)) (1 - (P0-Pg)^2)^(-1/2) by one full-size eigensolve."""
    eye = np.eye(p0.shape[0])
    a = p0 @ pg + (eye - p0) @ (eye - pg)
    s = eye - (p0 - pg) @ (p0 - pg)
    ew, uw = np.linalg.eigh(0.5 * (s + s.conj().T))
    return a @ (uw * ew ** -0.5) @ uw.conj().T


def dense_u_gamma_series(p_series: MatrixSeries, p0: np.ndarray) -> MatrixSeries:
    """U = (P0 p + (1-P0)(1-p)) (1 - (P0 - p)^2)^(-1/2) with full-size series products."""
    dim, order = p_series.dim, p_series.order
    ident = series_identity(dim, order)
    p0s = series_constant(p0, order)
    q0s = series_constant(np.eye(dim) - p0, order)
    aligned = series_add(series_mul(p0s, p_series),
                         series_mul(q0s, series_sub(ident, p_series)))
    diff = series_sub(p0s, p_series)
    return series_mul(aligned, series_inv_sqrt(series_sub(ident, series_mul(diff, diff))))


def decoupled_rows(u, p, n_plus: int) -> list[np.ndarray]:
    """Rows of F = U P on the positive free states, by the full Cauchy
    product of the coefficient lists u and p: the oracle of
    ``decoupling.kato_nagy_rows``, which reads F's rows from P alone."""
    return [c[:n_plus] for c in cauchy_coefficients(u, p)]


def dense_h_diag_series(grid: ChannelGrid, f_series: MatrixSeries) -> MatrixSeries:
    """F (R D R^T) F^H for F in the FW frame and the operator series
    D = D_0 + g V, full size; R = ``fw_matrix`` of the grid's blocks."""
    q = fw_matrix(foldy_wouthuysen(grid))
    v = dense_potential(build_coulomb(grid))
    d = make_series([q @ build_free_dirac(grid) @ q.T, q @ v @ q.T]
                    + [np.zeros_like(v)] * (f_series.order - 1))
    return series_mul(series_mul(f_series, d), series_adjoint(f_series))


# ---------------------------------------------------------------------------
# Dense N-particle oracle: Kronecker lifts on the full product space
# ---------------------------------------------------------------------------

def kron_chain(mats: list[np.ndarray]) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def lift_single(site_op: np.ndarray, single: np.ndarray, n_sites: int, j: int) -> np.ndarray:
    return kron_chain([site_op if s == j else single for s in range(n_sites)])


def lift_pair(two_site: np.ndarray, single: np.ndarray, n_sites: int, a: int, b: int,
              m: int) -> np.ndarray:
    """Embed a two-site operator at slots (a, b) with `single` elsewhere."""
    if n_sites == 2:
        return two_site
    t = two_site.reshape(m, m, m, m)
    rows = {a: 0, b: 1}
    cols = {a: 2, b: 3}
    nxt = 4
    for s in range(n_sites):
        if s in (a, b):
            continue
        t = np.multiply.outer(t, single)
        rows[s], cols[s] = nxt, nxt + 1
        nxt += 2
    perm = [rows[s] for s in range(n_sites)] + [cols[s] for s in range(n_sites)]
    dim = m ** n_sites
    return np.ascontiguousarray(t.transpose(perm)).reshape(dim, dim)


def dense_two_site_assemble(z1: np.ndarray, kernel: np.ndarray, z2: np.ndarray,
                            m: int) -> np.ndarray:
    """Contraction [(i,j),(k,l)] of two density stacks on every column,
    reindexed to [(i,k),(j,l)] as one dense transpose: the oracle of the
    packed contraction and gather of ``manybody.PairInteraction.project``."""
    x = z1.T @ kernel @ z2
    return np.ascontiguousarray(
        x.reshape(m, m, m, m).transpose(0, 2, 1, 3)).reshape(m * m, m * m)


def full_pair_series(bundle, pair, upper: np.ndarray, z_charge: float) -> list[np.ndarray]:
    """The two-site coefficients of ``manybody._pair_series`` with every
    density column (i, j) stored and contracted: the oracle of the route on
    the columns i <= j.  The terms mu < nu and half the middle term are
    contracted, and the site swap is added while reindexing."""
    m = upper.shape[1]
    factors = [pair.frame_factors(fc.conj().T @ upper) for fc in bundle.f_upper]
    zhat, out = [], []
    for n in range(1, bundle.order + 1):
        zhat.append(sum(_density_stack(factors[a][s], factors[n - 1 - a][s])
                        for a in range(n) for s in (0, 1)))
        x = sum((zhat[mu].T @ pair.kernel @ zhat[n - 1 - mu] for mu in range(n // 2)),
                np.zeros((m * m, m * m)))
        if n % 2:
            x += 0.5 * (zhat[n // 2].T @ pair.kernel @ zhat[n // 2])
        x4 = x.reshape(m, m, m, m)
        out.append((x4.transpose(0, 2, 1, 3) + x4.transpose(2, 0, 3, 1)).reshape(m * m, m * m) / z_charge)
    return out


def dense_conjugated_compression(fs) -> np.ndarray:
    """Y^H H_2 Y with H_2 = kron(D, 1) + kron(1, D) + (gamma/Z) W and
    Y = kron(E^H psi, E^H psi), every product-space matrix stored: the
    oracle of ``manybody._conjugated_compression``."""
    sys, pair = fs.one_particle, fs.pair
    d = sys.grid.dim
    eye = np.eye(d)
    z = pair.densities(eye)
    w = dense_two_site_assemble(z, pair.kernel, z, d)
    h2 = np.kron(sys.dgamma, eye) + np.kron(eye, sys.dgamma) + (sys.gamma / fs.config.z_charge) * w
    e = fw_rows(foldy_wouthuysen(sys.grid), sys.u_gamma @ positive_projector(sys.evals, sys.evecs))
    e_psi = e.conj().T @ fs.psi
    y = np.kron(e_psi, e_psi)
    return y.conj().T @ h2 @ y


def all_sites_sector_blocks(sector, one_site=None, two_site=None) -> np.ndarray:
    """Sector block of sum_j A_j + sum_{a<b} W_ab with every site and pair lifted.

    The oracle of ``manybody.sector_blocks``, which lifts one site and one
    pair per symmetry orbit: here each term acts on its own axes of V
    reshaped as an m x ... x m x width tensor, with no symmetry used.
    """
    n_sites = sector.occupation.shape[1]
    m = one_site.shape[-1] if one_site is not None else math.isqrt(two_site.shape[-1])
    t = sector.iso.reshape((m,) * n_sites + (sector.width,))
    ops = [x for x in (one_site, two_site) if x is not None]
    y = np.zeros(t.shape, dtype=np.result_type(t, *ops))
    if one_site is not None:
        for j in range(n_sites):
            y += np.moveaxis(np.tensordot(one_site, t, axes=(1, j)), 0, j)
    if two_site is not None:
        w4 = two_site.reshape(m, m, m, m)
        for a, b in itertools.combinations(range(n_sites), 2):
            y += np.moveaxis(np.tensordot(w4, t, axes=((2, 3), (a, b))), (0, 1), (a, b))
    return sector.compress(y.reshape(m ** n_sites, sector.width))


def antisymmetrizer_isometry(m: int, n_sites: int) -> np.ndarray:
    """Alternating basis built from permutation signs, independently of the sectors."""
    combos = list(itertools.combinations(range(m), n_sites))
    a = np.zeros((m ** n_sites, len(combos)))
    scale = 1.0 / math.sqrt(math.factorial(n_sites))
    for col, combo in enumerate(combos):
        for perm in itertools.permutations(range(n_sites)):
            inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n_sites), 2))
            idx = 0
            for site in range(n_sites):
                idx = idx * m + combo[perm[site]]
            a[idx, col] += (-1.0) ** inversions * scale
    return a


def collect_series_N(bundle, fs) -> tuple[MatrixSeries, ...]:
    """The N-particle series on the frame fs.psi, every order collected into
    one MatrixSeries per sector: the site operators of
    ``manybody._site_series`` lifted onto every sector, order by order."""
    return tuple(make_series(c) for c in zip(*(tuple(sector_blocks(s, c, w) for s in fs.sectors)
                                               for c, w in _site_series(bundle, fs))))


def full_series_ground_energies(bundle, fs) -> np.ndarray:
    """Lowest level of every partial sum of ``manybody.site_partial_sums``,
    at fs's own coupling, with every sector block of the partial sum lifted
    and diagonalized at every order: the oracle of
    ``manybody.series_ground_energies``, which lifts only the blocks that
    can hold it."""
    return np.array([min(float(np.linalg.eigvalsh(sector_blocks(s, c, w))[0]) for s in fs.sectors)
                     for c, w, _ in site_partial_sums(bundle, fs)])


def dense_furry(fs, bundle=None) -> dict:
    """Product-space matrices of an assembled FurrySystem, by Kronecker lifts.

    Rebuilds kinetic, w_proj, h_furry, h_diag, the |D_0| sums on the
    retained eigenstates (abs_d0) and on the transported frame (abs_d0_psi)
    and, given the bundle, every series coefficient from the system's
    one-particle pieces, m^N x m^N each, with no compression to the
    alternating subspace.  The one-particle Hamiltonian series and F = U P
    are rebuilt at full size from the projector and unitary series of the
    bundle's order (``pu_series``), which are in the FW frame and are built
    from the system's grid alone.  abs_d0_psi is formed on U_gamma phi
    in the original frame: |D_0| commutes with the FW rotation, so it needs
    no row order of psi.
    """
    sys, cfg, pair = fs.one_particle, fs.config, fs.pair
    n, m = cfg.n_particles, cfg.n_plus
    scale = sys.gamma / cfg.z_charge
    pairs = list(itertools.combinations(range(n), 2))

    def one_site_sum(op, single):
        return sum(lift_single(op, single, n, j) for j in range(n))

    def pair_sum(op, single):
        return sum(lift_pair(op, single, n, a, b, m) for a, b in pairs)

    phi, psi = fs.phi, fs.psi
    eps = positive_states(sys, m)[0]
    eps_sum = eps
    for _ in range(n - 1):
        eps_sum = np.add.outer(eps_sum, eps).ravel()
    out = {"kinetic": np.diag(eps_sum)}
    s_phi = phi.T @ phi
    absd = abs_free_dirac_power(sys.grid, 1.0)
    out["abs_d0"] = one_site_sum(phi.T @ absd @ phi, s_phi)
    u_phi = sys.u_gamma @ phi
    out["abs_d0_psi"] = one_site_sum(u_phi.T @ absd @ u_phi, psi.T @ psi)
    q = fw_matrix(foldy_wouthuysen(sys.grid))
    pp = positive_projector(sys.evals, sys.evecs) @ sys.u_gamma.T @ q.T @ psi
    s1 = pp.T @ pp
    out["h_diag"] = one_site_sum(pp.T @ sys.dgamma @ pp, s1)
    out["h_furry"] = out["kinetic"]
    if n >= 2:
        out["w_proj"] = pair_sum(pair.project(phi), s_phi)
        out["h_furry"] = out["kinetic"] + scale * out["w_proj"]
        out["h_diag"] = out["h_diag"] + scale * pair_sum(pair.project(pp), s1)
    if bundle is not None:
        s_f = psi.T @ psi
        p_series, u_series = pu_series(sys.grid, bundle.order)
        f_series = series_mul(u_series, p_series)
        h_series = dense_h_diag_series(sys.grid, f_series)
        coeffs = [one_site_sum(psi.T @ h @ psi, s_f) for h in h_series.coeffs]
        if n >= 2:
            dressed = [q.T @ fc.T @ psi for fc in f_series.coeffs]
            for k in range(1, bundle.order + 1):
                two = sum(_pair_product(pair, dressed, mu, k - 1 - mu) for mu in range(k))
                coeffs[k] = coeffs[k] + pair_sum(two, s_f) / cfg.z_charge
        out["series"] = coeffs
    return out


def _pair_product(pair, dressed, left: int, right: int) -> np.ndarray:
    """Two-site pair matrix between the dressed-frame density of order `left`
    and that of order `right`; a density of order mu sums the frame products
    of orders a and mu - a."""
    factors = [pair.frame_factors(d) for d in dressed]

    def density(mu):
        return sum(_density_stack(factors[a][c], factors[mu - a][c])
                   for a in range(mu + 1) for c in (0, 1))

    return dense_two_site_assemble(density(left), pair.kernel, density(right), dressed[0].shape[1])
