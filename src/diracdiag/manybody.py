"""N-particle positive-subspace Hamiltonians and their block-diagonalization.

The N-body operator is represented on the span of products of the lowest
n_plus positive one-particle eigenstates.  The block-diagonalized exact
operator and the truncated series are both expressed on the transported
frame (the unitary image of that span), where the comparison of the main
convergence theorem is a plain matrix computation.  The pair interaction
is kept in separable radial form: a nonnegative radial kernel sampled on a
quadrature grid conjugated by spherical Bessel transforms, so projections
onto any frame cost a few small matrix products instead of a dense
two-particle matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .decoupling import DecouplingBundle, h_diag_exact, resolvent, upper_block
from .errors import ConsistencyError, ResolutionError
from .grids import ChannelGrid, RadialGrid, bessel_transform_matrix, build_channel_grid, build_radial_grid
from .oneparticle import (
    OneParticleSystem,
    abs_free_dirac_power,
    assemble_system,
    d_gamma,
    positive_states,
)
from .series import (
    MatrixSeries,
    make_series,
    series_eval,
    series_truncate,
)

DIMENSION_CAP = 20000


@dataclass(frozen=True)
class FurryConfig:
    """Shape of the N-particle computation."""

    n_particles: int
    z_charge: float
    n_plus: int
    antisymmetrize: bool = False

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError(f"need at least one particle, got {self.n_particles}")
        if self.z_charge <= 0:
            raise ValueError(f"charge must be positive, got {self.z_charge}")
        if self.n_plus < 1:
            raise ValueError(f"need at least one retained state, got {self.n_plus}")
        if self.n_plus ** self.n_particles > DIMENSION_CAP:
            raise ValueError(
                f"retained dimension {self.n_plus}^{self.n_particles} exceeds cap {DIMENSION_CAP}")
        if self.antisymmetrize and self.n_particles > self.n_plus:
            raise ValueError("alternating subspace is empty: more particles than retained states")


# ---------------------------------------------------------------------------
# Pair interaction in separable radial form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairInteraction:
    """Monopole electron-electron repulsion 1/max(r_1, r_2), factored.

    b_upper/b_lower map weighted momentum components to pointwise radial
    samples per spinor component; kernel is the full quadrature form of the
    monopole kernel between sampled densities (weights and r^2 factors
    absorbed), built from an exact polynomial antiderivative so the kink at
    r_1 = r_2 costs no accuracy.  The kernel matrix is positive
    semidefinite to roundoff, hence so is every projection.
    """

    grid: ChannelGrid
    radial: RadialGrid
    b_upper: np.ndarray
    b_lower: np.ndarray
    kernel: np.ndarray

    def frame_factors(self, frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Radial samples of the frame columns, per spinor component."""
        return self.b_upper @ frame[0::2, :].conj(), self.b_lower @ frame[1::2, :].conj()

    def project(self, frame: np.ndarray) -> np.ndarray:
        """Matrix of the pair operator between products of frame columns.

        Entry [(i,k),(j,l)] couples the product of columns i,k on the left
        with j,l on the right.
        """
        gup, glo = self.frame_factors(frame)
        zhat = _density_stack(gup, gup) + _density_stack(glo, glo)
        return _two_site_assemble(zhat, self.kernel, zhat, frame.shape[1])

    def round_trip_defect(self, frame: np.ndarray) -> float:
        """Gram defect of momentum -> radial -> momentum on the frame span.

        Measures how much of the frame's norm the radial representation
        loses (domain truncation) or distorts (under-sampling); states
        confined well inside r_max should come back essentially exactly.
        """
        rw = self.radial.w * self.radial.r ** 2
        up = self.b_upper @ frame[0::2, :]
        lo = self.b_lower @ frame[1::2, :]
        gram = up.conj().T @ (rw[:, None] * up) + lo.conj().T @ (rw[:, None] * lo)
        return float(np.linalg.norm(gram - frame.conj().T @ frame, 2))


def _density_stack(ga: np.ndarray, gc: np.ndarray) -> np.ndarray:
    """Per radial node the rank-1 density G_a[al,:] (x) conj(G_c[al,:]), vectorized."""
    n_r, m = ga.shape
    return np.einsum("ai,aj->aij", ga, gc.conj()).reshape(n_r, m * m)


def _two_site_assemble(z1: np.ndarray, kernel: np.ndarray, z2: np.ndarray, m: int) -> np.ndarray:
    """Contract two density stacks with the radial kernel and reindex.

    The contraction produces indices [(i,j),(k,l)] (bra/ket per site); the
    two-particle matrix needs [(i,k),(j,l)].
    """
    x = z1.T @ kernel @ z2
    return np.ascontiguousarray(
        x.reshape(m, m, m, m).transpose(0, 2, 1, 3)).reshape(m * m, m * m)


def monopole_kernel_form(radial: RadialGrid) -> np.ndarray:
    """Quadrature form of 1/max(r_1, r_2) between sampled densities.

    The inner integral up to r_1 is done by expanding the sampled density
    in Legendre polynomials and integrating the expansion exactly, which
    restores spectral accuracy despite the kernel's derivative jump on the
    diagonal.  Input densities are plain function values psi*psi at the
    nodes; all weights and r^2 volume factors live inside the form.
    """
    n = radial.r.size
    xi = 2.0 * radial.r / radial.r_max - 1.0
    pv = np.polynomial.legendre.legvander(xi, n)
    w_ref = 2.0 * radial.w / radial.r_max
    proj = ((2.0 * np.arange(n) + 1.0) / 2.0)[:, None] * (pv[:, :n].T * w_ref[None, :])
    anti = np.empty((n, n))
    anti[:, 0] = xi + 1.0
    for k in range(1, n):
        anti[:, k] = (pv[:, k + 1] - pv[:, k - 1]) / (2 * k + 1)
    cum = (radial.r_max / 2.0) * anti @ proj
    r, w = radial.r, radial.w
    raw = (w * r)[:, None] * cum * (r ** 2)[None, :] \
        + (w * r ** 2)[:, None] * ((w * r)[None, :] - cum * r[None, :])
    return 0.5 * (raw + raw.T)


def _gaussian_probe(grid: ChannelGrid, l: int, sigma: float) -> np.ndarray:
    """Band-limited confined probe: both its momentum content and its
    position extent stay inside what the grids can represent."""
    v = grid.p ** (l + 1) * np.exp(-grid.p ** 2 / (2.0 * sigma ** 2))
    x = np.sqrt(grid.w) * v
    return x / np.linalg.norm(x)


def build_pair_interaction(grid: ChannelGrid, n_radial: int = 160, r_max: float = 16.0,
                           gate: bool = True) -> PairInteraction:
    """Assemble the factored monopole interaction and gate on resolution.

    The radial grid must reproduce the norms of band-limited confined
    states through the Bessel transforms to 1e-6; otherwise projections
    would silently lose weight.  r_max cannot be made large at will: the
    momentum quadrature stops resolving the transform's oscillation beyond
    a radius set by the node count, so states extending past r_max (high
    Rydberg-like levels) keep only their inner part, consistently on every
    code path that projects the interaction.  gate=False skips the probe
    check for instances used purely as cross-validation fixtures.
    """
    radial = build_radial_grid(n_radial, r_max)
    b_up = bessel_transform_matrix(grid, radial, grid.l_upper)
    b_lo = bessel_transform_matrix(grid, radial, grid.l_lower)
    kernel = monopole_kernel_form(radial)
    pair = PairInteraction(grid=grid, radial=radial, b_upper=b_up, b_lower=b_lo, kernel=kernel)
    if gate:
        probes = np.zeros((grid.dim, 4))
        for col, sigma in enumerate((0.35, 0.7)):
            probes[0::2, col] = _gaussian_probe(grid, grid.l_upper, sigma)
            probes[1::2, 2 + col] = _gaussian_probe(grid, grid.l_lower, sigma)
        defect = pair.round_trip_defect(probes)
        if defect > 1e-6:
            raise ResolutionError(
                f"radial transform round-trip defect {defect:.3e} > 1e-6; "
                f"adjust n_radial or r_max to the momentum grid")
    return pair


def hydrogenic_momentum_ground(grid: ChannelGrid, q: float) -> np.ndarray:
    """Weighted reduced momentum samples of the 1s state with charge q."""
    phi = 4.0 * math.sqrt(2.0 / math.pi) * q ** 2.5 / (q ** 2 + grid.p ** 2) ** 2
    x = np.sqrt(grid.w) * grid.p * phi
    return x / np.linalg.norm(x)


def slater_monopole_value(pair: PairInteraction, q: float) -> float:
    """Self-repulsion of the hydrogenic ground state; closed form is 5q/8."""
    frame = np.zeros((pair.grid.dim, 1))
    frame[0::2, 0] = hydrogenic_momentum_ground(pair.grid, q)
    return float(pair.project(frame)[0, 0].real)


# ---------------------------------------------------------------------------
# Kronecker lifting
# ---------------------------------------------------------------------------

def _kron_chain(mats: list[np.ndarray]) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _lift_single(site_op: np.ndarray, single: np.ndarray, n_sites: int, j: int) -> np.ndarray:
    return _kron_chain([site_op if s == j else single for s in range(n_sites)])


def _lift_pair(two_site: np.ndarray, single: np.ndarray, n_sites: int, a: int, b: int,
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


def antisymmetrizer_isometry(m: int, n_sites: int) -> np.ndarray:
    """Orthonormal basis of the alternating subspace as columns in the product space."""
    combos = list(itertools.combinations(range(m), n_sites))
    a = np.zeros((m ** n_sites, len(combos)))
    scale = 1.0 / math.sqrt(math.factorial(n_sites))
    for col, combo in enumerate(combos):
        for perm in itertools.permutations(range(n_sites)):
            sign = _perm_sign(perm)
            idx = 0
            for site in range(n_sites):
                idx = idx * m + combo[perm[site]]
            a[idx, col] += sign * scale
    return a


def _perm_sign(perm: tuple[int, ...]) -> float:
    sign = 1.0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FurrySystem:
    """N-particle bundle on the retained positive subspace at one coupling.

    h_furry_exact is expressed on products of the retained eigenstates;
    h_diag_exact and h_diag_series_N on the transported frame (their
    unitary image), so the two spectra must coincide.  With
    antisymmetrize set, all operators are compressed to the alternating
    subspace.  d0_sum is the lifted sum of |D_0| on the transported frame,
    kept raw: ``converge_main_theorem`` takes its inverse square root as the
    remainder weight, and no other caller needs it.
    """

    one_particle: OneParticleSystem
    config: FurryConfig
    pair: PairInteraction | None
    bundle: DecouplingBundle | None
    eps: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    kinetic: np.ndarray
    w_proj: np.ndarray | None
    h_furry_exact: np.ndarray
    h_diag_exact: np.ndarray
    h_diag_series_N: MatrixSeries | None
    d0_sum: np.ndarray

    @property
    def dim(self) -> int:
        return self.h_furry_exact.shape[0]


def assemble_furry_exact(sys: OneParticleSystem, cfg: FurryConfig,
                         pair: PairInteraction | None = None,
                         bundle: DecouplingBundle | None = None) -> FurrySystem:
    """Build the projected Hamiltonian, its diagonalized image, and the series.

    The diagonalized image is computed through the assembled unitaries and
    projectors (not copied from the direct matrix), so its agreement with
    h_furry_exact is a real consistency statement about those matrices.
    """
    n_sites = cfg.n_particles
    if n_sites >= 2 and pair is None:
        raise ValueError("pair interaction required for more than one particle")
    eps, phi = positive_states(sys, cfg.n_plus)
    psi = sys.u_fw @ sys.u_gamma @ phi
    leak = np.linalg.norm(psi[1::2, :], 2)
    if leak > 1e-9:
        raise ConsistencyError(f"transported frame leaks into the lower block: {leak:.3e}")

    m = cfg.n_plus
    scale = sys.gamma / cfg.z_charge

    # direct path, products of retained eigenstates
    eps_sum = eps.copy()
    for _ in range(n_sites - 1):
        eps_sum = np.add.outer(eps_sum, eps).ravel()
    kinetic = np.diag(eps_sum)
    w_proj = None
    h_furry = kinetic.copy()
    if n_sites >= 2:
        w2 = pair.project(phi)
        _require_psd(w2)
        w_proj = sum(_lift_pair(w2, phi.conj().T @ phi, n_sites, a, b, m)
                     for a, b in itertools.combinations(range(n_sites), 2))
        h_furry = h_furry + scale * w_proj

    # conjugated path, through the assembled unitaries
    phi_rt = sys.u_gamma.conj().T @ sys.u_fw.T @ psi
    pp = sys.p_plus_gamma @ phi_rt
    k1 = pp.conj().T @ sys.dgamma @ pp
    s1 = pp.conj().T @ pp
    h_diag = sum(_lift_single(k1, s1, n_sites, j) for j in range(n_sites))
    if n_sites >= 2:
        w2_rt = pair.project(pp)
        h_diag = h_diag + scale * sum(
            _lift_pair(w2_rt, s1, n_sites, a, b, m)
            for a, b in itertools.combinations(range(n_sites), 2))

    # weight for remainder norms, in the transported frame
    abs_d0 = abs_free_dirac_power(sys.grid, 1.0)
    ce = psi.conj().T @ abs_d0 @ psi
    s_psi = psi.conj().T @ psi
    d0_sum = sum(_lift_single(ce, s_psi, n_sites, j) for j in range(n_sites))

    series = None
    if bundle is not None:
        series = assemble_h_diag_series_N(bundle, cfg, pair, psi)

    if cfg.antisymmetrize:
        a_iso = antisymmetrizer_isometry(m, n_sites)
        kinetic = a_iso.T @ kinetic @ a_iso
        h_furry = a_iso.T @ h_furry @ a_iso
        h_diag = a_iso.T @ h_diag @ a_iso
        d0_sum = a_iso.T @ d0_sum @ a_iso
        if w_proj is not None:
            w_proj = a_iso.T @ w_proj @ a_iso
        if series is not None:
            series = make_series([a_iso.T @ c @ a_iso for c in series.coeffs])

    return FurrySystem(
        one_particle=sys, config=cfg, pair=pair, bundle=bundle,
        eps=eps, phi=phi, psi=psi, kinetic=kinetic, w_proj=w_proj,
        h_furry_exact=h_furry, h_diag_exact=h_diag,
        h_diag_series_N=series, d0_sum=d0_sum)


def _require_psd(mat: np.ndarray, tol: float = 1e-9) -> None:
    low = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0])
    if low < -tol * max(1.0, np.linalg.norm(mat, 2)):
        raise ConsistencyError(f"pair projection not positive semidefinite: lowest eigenvalue {low:.3e}")


def _inv_sqrt_psd(mat: np.ndarray) -> np.ndarray:
    ew, uw = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    if ew[0] <= 0:
        raise ConsistencyError(f"weight matrix not positive definite: eigenvalue {ew[0]:.3e}")
    return (uw * ew ** -0.5) @ uw.conj().T


def assemble_h_diag_series_N(bundle: DecouplingBundle, cfg: FurryConfig,
                             pair: PairInteraction | None, frame: np.ndarray) -> MatrixSeries:
    """N-particle Hamiltonian series compressed onto the given frame.

    Kinetic coefficients are compressions of the one-particle series lifted
    to every slot.  The interaction is the pair operator sandwiched by the
    dressed-frame series (rotation times unitary series times projector
    series), assembled through the separable radial form, then shifted up
    one order by the coupling prefactor and scaled by 1/Z.  Coefficient n
    carries the pair products of total order n - 1, so the shift drops the
    interaction coefficient of the truncation order: its products would land
    at order + 1, beyond the series.
    """
    n_sites = cfg.n_particles
    if n_sites >= 2 and pair is None:
        raise ValueError("pair interaction required for more than one particle")
    order = bundle.order
    m = frame.shape[1]
    s_f = frame.conj().T @ frame
    c_kin = [frame.conj().T @ h @ frame for h in bundle.h_series.coeffs]
    coeffs = [sum(_lift_single(c_kin[a], s_f, n_sites, j) for j in range(n_sites))
              for a in range(order + 1)]

    if n_sites >= 2:
        q = bundle.system.u_fw
        dressed = [(q @ fc).conj().T @ frame for fc in bundle.f_series.coeffs]
        factors = [pair.frame_factors(d) for d in dressed]
        zhat = []
        for mu in range(order + 1):
            z = np.zeros((pair.radial.r.size, m * m))
            for a in range(mu + 1):
                c = mu - a
                z += _density_stack(factors[a][0], factors[c][0])
                z += _density_stack(factors[a][1], factors[c][1])
            zhat.append(z)
        for n in range(1, order + 1):
            acc = np.zeros((m * m, m * m))
            for mu in range(n):
                acc += _two_site_assemble(zhat[mu], pair.kernel, zhat[n - 1 - mu], m)
            pair_term = sum(_lift_pair(acc, s_f, n_sites, a, b, m)
                            for a, b in itertools.combinations(range(n_sites), 2))
            coeffs[n] = coeffs[n] + pair_term / cfg.z_charge
    return make_series(coeffs)


# ---------------------------------------------------------------------------
# Inequality diagnostics
# ---------------------------------------------------------------------------

def check_form_bound(fs: FurrySystem) -> float:
    """Largest eigenvalue of T^(-1/2) W T^(-1/2) on the retained subspace.

    The continuum bound is gamma pi N(N-1) / (4 Z d_gamma); the kinetic
    part T is the projected sum of one-particle operators, positive by the
    spectral gap.  T is diagonal (sums of one-particle levels on products
    of eigenstates, and the alternating basis vectors have disjoint
    supports), so T^(-1/2) scales rows and columns.
    """
    if fs.w_proj is None:
        return 0.0
    t = np.diag(fs.kinetic)
    if t.min() <= 0:
        raise ConsistencyError(f"weight matrix not positive definite: eigenvalue {t.min():.3e}")
    t_inv_half = t ** -0.5
    scale = fs.one_particle.gamma / fs.config.z_charge
    m = t_inv_half[:, None] * (scale * fs.w_proj) * t_inv_half[None, :]
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1])


def form_bound_limit(fs: FurrySystem) -> float:
    n, z = fs.config.n_particles, fs.config.z_charge
    return fs.one_particle.gamma * math.pi * n * (n - 1) / (4.0 * z * d_gamma(fs.one_particle.gamma))


def check_kinetic_weight_bound(fs: FurrySystem) -> float:
    """Largest eigenvalue of H^(-1/2) (sum |D_0|) H^(-1/2); bounded by 1/d_gamma.

    Taken as the top eigenvalue of the generalized problem L x = lambda H x
    (L the lifted |D_0| sum, H the Furry Hamiltonian), which has the same
    spectrum and needs only H's Cholesky factor, not its eigendecomposition.
    """
    from scipy.linalg import eigh

    sys = fs.one_particle
    cfg = fs.config
    abs_d0 = abs_free_dirac_power(sys.grid, 1.0)
    ce = fs.phi.conj().T @ abs_d0 @ fs.phi
    s_phi = fs.phi.conj().T @ fs.phi
    lifted = sum(_lift_single(ce, s_phi, cfg.n_particles, j) for j in range(cfg.n_particles))
    if cfg.antisymmetrize:
        a_iso = antisymmetrizer_isometry(cfg.n_plus, cfg.n_particles)
        lifted = a_iso.T @ lifted @ a_iso
    n = lifted.shape[0]
    try:
        top = eigh(lifted, fs.h_furry_exact, eigvals_only=True, subset_by_index=[n - 1, n - 1])
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(f"weight matrix not positive definite: {exc}") from exc
    return float(top[0])


def kinetic_weight_limit(fs: FurrySystem) -> float:
    return 1.0 / d_gamma(fs.one_particle.gamma)


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------

def fit_geometric_ratio(values: np.ndarray, floor: float = 1e-14) -> float:
    """Least-squares ratio of an eventually geometric positive sequence."""
    v = np.asarray(values, dtype=float)
    keep = np.where(v > floor)[0]
    if keep.size < 3:
        return 0.0
    slope = np.polyfit(keep, np.log(v[keep]), 1)[0]
    return float(np.exp(slope))


def converge_main_theorem(fs: FurrySystem, gammas: list[float], k_max: int) -> list[dict]:
    """Resolvent distances, weighted remainders, and eigenvalue errors per (gamma, k).

    For one particle the comparison runs on the full upper block; for more
    particles each coupling gets its own transported frame, on which both
    the exact diagonalized operator and the compressed series live.  The
    exact operator's resolvent and low eigenvalues are computed once per
    coupling and shared by every truncation order.
    """
    bundle = fs.bundle
    if bundle is None:
        raise ValueError("convergence study needs the series bundle")
    if k_max > bundle.order:
        raise ValueError(f"requested k_max {k_max} beyond series order {bundle.order}")
    grid = fs.one_particle.grid
    cfg = fs.config
    n_sites = cfg.n_particles
    rows = []
    if n_sites == 1:
        series_u = make_series([upper_block(c) for c in bundle.h_series.coeffs])
        weight_u = upper_block(bundle.weight_neg_half)
    for gamma in gammas:
        sys_g = fs.one_particle if gamma == fs.one_particle.gamma else assemble_system(grid, gamma)
        if n_sites == 1:
            exact = upper_block(h_diag_exact(sys_g))
            series, weight = series_u, weight_u
        else:
            fs_g = fs if gamma == fs.one_particle.gamma else assemble_furry_exact(
                sys_g, cfg, fs.pair, bundle)
            exact = fs_g.h_diag_exact
            series, weight = fs_g.h_diag_series_N, _inv_sqrt_psd(fs_g.d0_sum)
        exact_low = np.sort(np.linalg.eigvalsh(exact))[:10]
        exact_res = resolvent(exact, "first")
        dists = np.empty(k_max + 1)
        remainders = np.empty(k_max + 1)
        eig_errors = np.empty(k_max + 1)
        for k in range(k_max + 1):
            approx = series_eval(series_truncate(series, k), gamma)
            approx_h = 0.5 * (approx + approx.conj().T)
            dists[k] = float(np.linalg.norm(exact_res - resolvent(approx_h, "second"), 2))
            remainders[k] = float(np.linalg.norm(weight @ (exact - approx) @ weight, 2))
            approx_low = np.sort(np.linalg.eigvalsh(approx_h))[:10]
            eig_errors[k] = float(np.max(np.abs(approx_low - exact_low)))
        ratio = fit_geometric_ratio(dists)
        for k in range(k_max + 1):
            rows.append({
                "gamma": gamma, "k": k,
                "resolvent_distance": float(dists[k]),
                "weighted_remainder_norm": float(remainders[k]),
                "max_eigval_error": float(eig_errors[k]),
                "fitted_ratio": ratio,
            })
    return rows


# ---------------------------------------------------------------------------
# Cross-validation of restriction against full-space conjugation
# ---------------------------------------------------------------------------

def full_pair_matrix(pair: PairInteraction) -> np.ndarray:
    """Dense pair operator on the full two-particle product space (small grids)."""
    return pair.project(np.eye(pair.grid.dim))


def check_restriction_consistency(gamma: float, cfg: FurryConfig, n_small: int = 24,
                                  kappa: int = -1, map_scale: float = 1.0,
                                  n_radial: int = 96, r_max: float = 10.0) -> float:
    """Compare conjugate-then-restrict against restrict-then-conjugate.

    Runs a two-particle instance on a small grid where the full product
    space is affordable, and returns the spectral-norm difference between
    the full-space conjugated Hamiltonian compressed to the transported
    frame and the factored assembly used at scale.  The full-space
    conjugation is kron(E, E) H_2 kron(E, E)^H with E = u_fw U_gamma
    P_+^gamma, where H_2 holds both one-particle operators and the full
    pair matrix.
    """
    if cfg.n_particles < 2:
        return 0.0
    grid = build_channel_grid(n_small, map_scale, kappa)
    sys = assemble_system(grid, gamma)
    pair = build_pair_interaction(grid, n_radial=n_radial, r_max=r_max, gate=False)
    small_cfg = FurryConfig(n_particles=2, z_charge=cfg.z_charge,
                            n_plus=min(cfg.n_plus, 6), antisymmetrize=False)
    fs = assemble_furry_exact(sys, small_cfg, pair)

    scale = gamma / small_cfg.z_charge
    eye = np.eye(grid.dim)
    h2 = np.kron(sys.dgamma, eye) + np.kron(eye, sys.dgamma) + scale * full_pair_matrix(pair)
    e = sys.u_fw @ sys.u_gamma @ sys.p_plus_gamma
    e2 = np.kron(e, e)
    h_diag_full = e2 @ h2 @ e2.conj().T
    xi = np.kron(fs.psi, fs.psi)
    compressed = xi.conj().T @ h_diag_full @ xi
    return float(np.linalg.norm(compressed - fs.h_diag_exact, 2))
