"""N-particle positive-subspace Hamiltonians and their block-diagonalization.

The N-body operator is represented on the span of products of the lowest
n_plus positive one-particle eigenstates, split into site-permutation
sectors: it commutes with every permutation of the sites, so it is stored
as one block per partition of N and no product-space matrix is formed.
The block-diagonalized exact
operator and the truncated series are both expressed on the transported
frame (the unitary image of that span), where the comparison of the main
convergence theorem is a plain matrix computation.  The pair interaction
is kept in separable radial form: a nonnegative radial kernel sampled on a
quadrature grid conjugated by spherical Bessel transforms, so projections
onto any frame cost a few small matrix products instead of a dense
two-particle matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import NbodyConfig
from .decoupling import (
    DecouplingBundle,
    gate_norm2,
    h_diag_exact,
    hermitian_frame,
    resolvent_distance,
)
from .errors import ResolutionError, gate
from .grids import ChannelGrid, RadialGrid, bessel_transform_matrix, build_channel_grid, build_radial_grid
from .oneparticle import (
    OneParticleSystem,
    _norm2,
    assemble_system,
    d_gamma,
    foldy_wouthuysen,
    free_energies,
    fw_rows,
    positive_projector,
    positive_states,
    rayleigh_quotients,
)
from .series import series_partial_sums


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
        """Radial samples of the frame columns, per spinor component; frames are real."""
        return self.b_upper @ frame[0::2, :], self.b_lower @ frame[1::2, :]

    def project(self, frame: np.ndarray) -> np.ndarray:
        """Matrix of the pair operator between products of real frame columns.

        Entry [(i,k),(j,l)] couples the product of columns i,k on the left
        with j,l on the right.  Only the density columns i <= j enter the
        contraction X, and X/2 + X^T/2 is expanded by ``_packed_pairs``, so
        the result is exactly symmetric and exactly site-swap invariant.
        """
        m = frame.shape[1]
        keep, gather = _packed_pairs(m)
        z = self.densities(frame)[:, keep]
        x = 0.5 * ((self.kernel @ z).T @ z)
        x += x.T
        return x.ravel().take(gather).reshape(m * m, m * m)

    def densities(self, frame: np.ndarray) -> np.ndarray:
        """Radial density stack of every product of two real frame columns, both
        spinor components summed, one column (i,j) per pair (``_density_stack``)."""
        gup, glo = self.frame_factors(frame)
        return _density_stack(gup, gup) + _density_stack(glo, glo)

    def round_trip_defect(self, frame: np.ndarray) -> float:
        """Gram defect of momentum -> radial -> momentum on the frame span.

        Measures how much of the frame's norm the radial representation
        loses (domain truncation) or distorts (under-sampling); states
        confined well inside r_max should come back essentially exactly.
        """
        rw = self.radial.w * self.radial.r ** 2
        up, lo = self.frame_factors(frame)
        gram = up.T @ (rw[:, None] * up) + lo.T @ (rw[:, None] * lo)
        return _norm2(gram - frame.T @ frame)


def _density_stack(ga: np.ndarray, gc: np.ndarray) -> np.ndarray:
    """Per radial node the rank-1 density G_a[al,:] (x) G_c[al,:] of real
    radial samples, vectorized."""
    n_r, m = ga.shape
    return np.einsum("ai,aj->aij", ga, gc).reshape(n_r, m * m)


def _packed_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(keep, gather) for the index pairs i <= j of m states: the columns (i, j)
    of an m*m density stack to keep, and the gather that expands a contraction
    x[(i,j),(k,l)] on them, flattened, onto c[(i,k),(j,l)] (either order)."""
    iu, ju = np.triu_indices(m)
    packed = np.empty((m, m), dtype=np.intp)  # column of the pair (i, j) among i <= j
    packed[iu, ju] = packed[ju, iu] = np.arange(iu.size)
    gather = (packed[:, None, :, None] * iu.size + packed[None, :, None, :]).reshape(-1)
    return iu * m + ju, gather


def _pair_rows(slab: np.ndarray, m: int) -> np.ndarray:
    """Rows (i,k), k < m, of a two-site matrix [(i,k),(j,l)], from row slab i of
    its contraction [(i,j),(k,l)]: an (m, m*m) array indexed [j, (k,l)],
    returned indexed [k, (j,l)]."""
    return slab.reshape(m, m, m).swapaxes(0, 1).reshape(m, m * m)


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
                           probe: bool = True) -> PairInteraction:
    """Assemble the factored monopole interaction and gate on resolution.

    The radial grid must reproduce the norms of band-limited confined
    states through the Bessel transforms to 1e-6; otherwise projections
    would silently lose weight.  r_max cannot be made large at will: the
    momentum quadrature stops resolving the transform's oscillation beyond
    a radius set by the node count, so states extending past r_max (high
    Rydberg-like levels) keep only their inner part, consistently on every
    code path that projects the interaction.  probe=False skips that
    check, for instances used purely as cross-validation fixtures (the
    small instance of ``check_restriction_consistency``), which may be too
    coarse to pass it.
    """
    radial = build_radial_grid(n_radial, r_max)
    b_up = bessel_transform_matrix(grid, radial, grid.l_upper)
    b_lo = bessel_transform_matrix(grid, radial, grid.l_lower)
    kernel = monopole_kernel_form(radial)
    pair = PairInteraction(grid=grid, radial=radial, b_upper=b_up, b_lower=b_lo, kernel=kernel)
    if probe:
        probes = np.zeros((grid.dim, 4))
        for col, sigma in enumerate((0.35, 0.7)):
            probes[0::2, col] = _gaussian_probe(grid, grid.l_upper, sigma)
            probes[1::2, 2 + col] = _gaussian_probe(grid, grid.l_lower, sigma)
        gate(pair.round_trip_defect(probes), 1e-6,
             "radial transform round-trip defect {value:.3e} > 1e-6; "
             "the momentum grid is too coarse: raise grid.n", ResolutionError)
    return pair


def hydrogenic_momentum_ground(grid: ChannelGrid, q: float) -> np.ndarray:
    """Weighted reduced momentum samples of the lowest nodeless hydrogenic
    state of the upper channel, r^l exp(-zeta r) with zeta = q (l + 1): the
    1s state of charge q at l = 0.

    Its momentum function is p^l / (p^2 + zeta^2)^(l+2) (Podolsky & Pauling,
    Phys. Rev. 34, 1929), here with the 1s prefactor; the samples are
    normalized on the grid.
    """
    l = grid.l_upper
    zeta = q * (l + 1)
    prefactor = 4.0 * math.sqrt(2.0 / math.pi) * zeta ** 2.5
    phi = prefactor * grid.p ** l / (zeta ** 2 + grid.p ** 2) ** (l + 2)
    x = np.sqrt(grid.w) * grid.p * phi
    return x / np.linalg.norm(x)


def slater_monopole_value(pair: PairInteraction, q: float) -> float:
    """Self-repulsion of ``hydrogenic_momentum_ground`` through the pair
    interaction; its closed form is ``slater_monopole_reference``."""
    frame = np.zeros((pair.grid.dim, 1))
    frame[0::2, 0] = hydrogenic_momentum_ground(pair.grid, q)
    return float(pair.project(frame)[0, 0])


def slater_monopole_reference(l: int, q: float) -> float:
    """Monopole Slater integral F^0 of the normalized density
    r^m exp(-a r) (volume factor included), m = 2l + 2 and a = 2 zeta,
    zeta = q (l + 1) (``hydrogenic_momentum_ground``):
    F^0 = a [2/m - 2 sum_(j=0)^m (m+j-1)! / (j! m! 2^(m+j))], which is
    5 zeta / 8 at l = 0 and 93 zeta / 256 at l = 1.  The rational factor is
    summed exactly.
    """
    m = 2 * l + 2
    tail = sum(Fraction(math.comb(m + j - 1, j), 2 ** (m + j)) for j in range(m + 1))
    return q * (l + 1) * float(Fraction(4, m) * (1 - tail))


# ---------------------------------------------------------------------------
# Site-permutation sectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sector:
    """One copy of a symmetry type of the site permutations on N sites of m states.

    The columns of the isometry span the image of the Young symmetrizer of
    the row-reading tableau of the partition ``shape`` (Fulton & Harris,
    Representation Theory, sec. 4.1): the multiplicity space of that
    irreducible representation, whose dimension is ``multiplicity``
    (hook-length formula).  An operator that commutes with every site
    permutation maps this span into itself, and its spectrum on the product
    space is the union of its sector blocks, each repeated
    ``multiplicity`` times.  Every column lives on one occupation orbit
    (the arrangements of one multiset of one-particle indices), so it has at
    most N! nonzeros: ``rows``/``vals`` list them, zero-padded to the
    largest orbit, and ``occupation`` holds the sorted multiset.
    ``site_orbits`` and ``pair_orbits`` list one representative site, and
    one representative site pair a < b, per orbit of ``_site_orbits``, each
    with the orbit's size: ``sector_blocks`` lifts a term only onto those.
    """

    shape: tuple[int, ...]
    multiplicity: int
    iso: np.ndarray
    rows: np.ndarray
    vals: np.ndarray
    occupation: np.ndarray
    site_orbits: tuple[tuple[int, int], ...]
    pair_orbits: tuple[tuple[tuple[int, int], int], ...]

    @property
    def width(self) -> int:
        return self.iso.shape[1]

    def compress(self, y: np.ndarray) -> np.ndarray:
        """V^T y for y with one row per product state, read off V's nonzeros.

        Row c is sum_a vals[c, a] y[rows[c, a]], accumulated over the N!
        nonzero positions a, so each step gathers width rows of y and no
        width x N! x width array is formed.
        """
        out = np.zeros((self.width, y.shape[1]))
        for v, r in zip(self.vals.T, self.rows.T):
            rows = y[r]
            rows *= v[:, None]
            out += rows
            del rows  # before the next gather
        return out


def _partitions(n: int, largest: int | None = None):
    """Partitions of n, largest part first, in decreasing lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _hook_dimension(shape: tuple[int, ...]) -> int:
    """Dimension of the irreducible representation of S_N labelled by shape."""
    col_len = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    hooks = math.prod(shape[i] - j + col_len[j] - i - 1
                      for i in range(len(shape)) for j in range(shape[i]))
    return math.factorial(sum(shape)) // hooks


def _site_orbits(shape: tuple[int, ...]):
    """Orbits of the sites and of the site pairs a < b under the symmetry of a sector.

    The group is the row group of the row-reading tableau, whose
    permutations P fix the image of the Young symmetrizer a_lambda b_lambda
    pointwise (P a_lambda = a_lambda), or all of S_N for the
    one-dimensional sectors (N) and (1^N), whose image P maps to +-itself.
    Either way P V = +-V, so a term on site j and its image P A_j P^T =
    A_{P j} have the same compression V^T A_j V, and likewise for a pair.
    The rows are consecutive sites, so an orbit of sites is a row and an
    orbit of pairs a < b is every pair with a in one row and b in another
    (or the same) one.  Returns (site, size) per orbit of sites and
    ((a, b), size) per orbit of pairs; the representatives are the last
    site of a row and the closest, latest pair, so that the lifts act on
    adjacent, trailing axes where the orbit allows.
    """
    n = sum(shape)
    if len(shape) == 1 or shape[0] == 1:
        row = [0] * n
    else:
        row = [r for r, length in enumerate(shape) for _ in range(length)]
    sites: dict[int, list[int]] = {}
    pairs: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for s in range(n):
        sites.setdefault(row[s], []).append(s)
    for a, b in itertools.combinations(range(n), 2):
        pairs.setdefault((row[a], row[b]), []).append((a, b))
    return (tuple((max(orbit), len(orbit)) for orbit in sites.values()),
            tuple((min(orbit, key=lambda p: (p[1] - p[0], -p[0])), len(orbit))
                  for orbit in pairs.values()))


def _young_symmetrizer(shape: tuple[int, ...], arrangements: list[tuple[int, ...]]) -> np.ndarray:
    """Row symmetrizer times column antisymmetrizer on the span of one orbit.

    Column a of the result is the symmetrizer applied to arrangement a.
    Each group sum is applied as a product of transposition factors,
    sum_{S_(j+1)} = (e +- sum_{i<j} (i j)) sum_{S_j}, so the cost grows with
    N^2 and not with the group order.
    """
    index = {t: i for i, t in enumerate(arrangements)}

    def group_sum(x: np.ndarray, sites: list[int], sign: float) -> np.ndarray:
        for j in range(1, len(sites)):
            acc = x
            for i in range(j):
                a, b = sites[i], sites[j]
                swap = [index[t[:a] + (t[b],) + t[a + 1:b] + (t[a],) + t[b + 1:]]
                        for t in arrangements]
                acc = acc + sign * x[swap]
            x = acc
        return x

    starts = [sum(shape[:r]) for r in range(len(shape))]
    x = np.eye(len(arrangements))
    for c in range(shape[0]):
        x = group_sum(x, [starts[r] + c for r in range(len(shape)) if shape[r] > c], -1.0)
    for r, length in enumerate(shape):
        x = group_sum(x, list(range(starts[r], starts[r] + length)), 1.0)
    return x


def _symmetrizer_image(shape: tuple[int, ...], arrangements: list[tuple[int, ...]]) -> np.ndarray:
    """Orthonormal basis of the image of the Young symmetrizer of shape on
    the span of one orbit's arrangements, by an SVD (``site_sectors``)."""
    u, sv, _ = np.linalg.svd(_young_symmetrizer(shape, arrangements))
    return u[:, :int(np.count_nonzero(sv > 1e-8 * max(sv[0], 1.0)))]


@functools.lru_cache(maxsize=None)
def site_sectors(m: int, n_sites: int) -> tuple[Sector, ...]:
    """Isometries of every nonempty sector of N sites with m states each, cached.

    Orbit by orbit, the image of each partition's Young symmetrizer is
    orthonormalized by an SVD of at most N! x N! entries.  The symmetrizer
    is N!/d_lambda times an idempotent, and the nonzero singular values of
    an idempotent are at least 1, so the rank cut is unambiguous.  Orbits
    whose sorted multisets have the same pattern of equal indices, such as
    (0, 0, 1) and (2, 2, 5), list their arrangements in the same order, so
    their symmetrizers are the same matrix: one SVD serves each pattern.
    The widths satisfy sum multiplicity * width = m^N.
    """
    orbits = []
    for occ in itertools.combinations_with_replacement(range(m), n_sites):
        arrangements = sorted(set(itertools.permutations(occ)))
        idx = [sum(t[s] * m ** (n_sites - 1 - s) for s in range(n_sites)) for t in arrangements]
        pattern = tuple(sorted(set(occ)).index(i) for i in occ)
        orbits.append((occ, pattern, arrangements, idx))
    sectors = []
    for shape in _partitions(n_sites):
        cols, occs, images = [], [], {}
        for occ, pattern, arrangements, idx in orbits:
            if pattern not in images:
                images[pattern] = _symmetrizer_image(shape, arrangements)
            basis = images[pattern]
            cols += [(idx, basis[:, r]) for r in range(basis.shape[1])]
            occs += [occ] * basis.shape[1]
        if not cols:
            continue
        k = max(len(idx) for idx, _ in cols)
        iso = np.zeros((m ** n_sites, len(cols)))
        rows = np.zeros((len(cols), k), dtype=np.intp)
        vals = np.zeros((len(cols), k))
        for c, (idx, v) in enumerate(cols):
            iso[idx, c] = v
            rows[c, :len(idx)] = idx
            vals[c, :len(idx)] = v
        arrays = (iso, rows, vals, np.array(occs, dtype=np.intp))
        for a in arrays:
            a.flags.writeable = False
        sectors.append(Sector(shape, _hook_dimension(shape), *arrays, *_site_orbits(shape)))
    return tuple(sectors)


def furry_sectors(cfg: NbodyConfig) -> tuple[Sector, ...]:
    """The sectors an N-particle operator is stored on: all of them, or only
    the alternating one (1^N) when the configuration antisymmetrizes."""
    sectors = site_sectors(cfg.n_plus, cfg.n_particles)
    if cfg.antisymmetrize:
        return tuple(s for s in sectors if s.shape == (1,) * cfg.n_particles)
    return sectors


def sector_blocks(sector: Sector, one_site: np.ndarray | None = None,
                  two_site: np.ndarray | None = None) -> np.ndarray:
    """Sector block V^T X V of the operator X = sum_j A_j + sum_{a<b} W_ab.

    X has A = one_site on site j and W = two_site on sites (a, b), indexed
    [(i,k),(j,l)] with i, j on site a, and the identity on every other
    site: the one-site frames are orthonormal (``assemble_furry_exact``
    gates that), so no Gram factor enters.  A and W are symmetric, as every
    caller's are, and the block B is returned as (B + B^T)/2, exactly
    symmetric since IEEE addition commutes.  All terms of one orbit of
    ``_site_orbits`` have the same compression, so each orbit's
    representative is lifted once, with its small factor scaled by the
    orbit's size.  Each lift is one matmul on the isometry V reshaped
    around its sites, and V^T compresses the sum.  No product-space
    operator is formed.  All lifts write into one product buffer, and the
    sum and that buffer are one allocation: as two arrays freed together,
    or with a fresh product per term, glibc trimmed and re-faulted them on
    nearly every call of an order-by-order caller (it trims a free heap top
    beyond twice the largest block it has unmapped).
    """
    n_sites = sector.occupation.shape[1]
    m = one_site.shape[-1] if one_site is not None else math.isqrt(two_site.shape[-1])
    terms = [(size, one_site, (j,)) for j, size in sector.site_orbits if one_site is not None]
    terms += [(size, two_site, pair) for pair, size in sector.pair_orbits if two_site is not None]
    work = np.empty((2, m ** n_sites, sector.width))
    y, buf = work
    y[...] = 0.0
    for size, op, sites in terms:
        t, shape = _site_axes(sector.iso, sites, m)
        x = np.matmul(op if size == 1 else size * op, t, out=buf.reshape(t.shape))
        x = x.reshape(shape).swapaxes(2, 3)
        y.reshape(x.shape)[...] += x
    out = sector.compress(y)
    out += out.T
    out *= 0.5
    return out


def _site_axes(iso: np.ndarray, sites: tuple[int, ...], m: int):
    """iso with the states of one site (a,) or a pair (a, b) as its middle axis.

    Returns the view (m^a, m^s, rest) for s sites, on which an operator on
    those sites acts by one matmul, and the shape that maps the product
    back onto iso's layout once its axes 2 and 3 are swapped: the q states
    of the sites between a and b lie between the pair's two axes.  Making
    the pair adjacent copies iso only when q > 1.
    """
    a, s = sites[0], len(sites)
    q = m ** (sites[-1] - a - 1) if s == 2 else 1
    t = iso.reshape(m ** a, m, q, m ** (s - 1), -1).swapaxes(2, 3)
    return t.reshape(m ** a, m ** s, -1), (m ** a, m, m ** (s - 1), q, -1)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FurrySystem:
    """N-particle operators on the retained positive subspace at one coupling.

    Every N-particle operator is a sum of the same one-site and two-site
    terms over all sites, so it commutes with the site permutations and is
    stored as a tuple of blocks, one per entry of ``sectors`` (see
    ``Sector``): block b is V_b^T X V_b for the sector isometry V_b, and X
    acts on the product space as the direct sum of block b repeated
    ``sectors[b].multiplicity`` times.  Without antisymmetrize, ``sectors``
    holds every partition of N with a nonempty sector, and ``dim`` = sum of
    multiplicity * width = n_plus^N, the product-space dimension; with it,
    only the alternating sector (1^N), multiplicity 1, so ``dim`` is
    C(n_plus, N).  ``levels`` returns the product-space spectrum of such a
    tuple, sorted with multiplicity.

    h_furry_exact, kinetic and w_proj are expressed on products of the
    retained eigenstates phi; h_diag_exact, like the series partial sums
    of ``site_partial_sums``, on the transported frame psi = R U_gamma phi
    (its unitary image), so the two spectra must coincide.  psi is in the
    row order of the FW frame R (``oneparticle.fw_rows``): the positive
    free states first, where its rows are supported.  Both frames are
    orthonormal, phi from the eigensolver and psi by the gate of
    ``assemble_furry_exact``, so every block is a plain compression and is
    compared with plain ``eigvalsh``.
    kinetic is exactly diagonal, so it holds one vector per sector: each
    column of an isometry lives on one occupation orbit, whose level sum is
    its entry.  config is the run's ``config.NbodyConfig``, checked when it
    was built.
    """

    one_particle: OneParticleSystem
    config: NbodyConfig
    pair: PairInteraction | None
    sectors: tuple[Sector, ...]
    phi: np.ndarray
    psi: np.ndarray
    kinetic: tuple[np.ndarray, ...]
    w_proj: tuple[np.ndarray, ...] | None
    h_furry_exact: tuple[np.ndarray, ...]
    h_diag_exact: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return sum(s.multiplicity * s.width for s in self.sectors)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(s.multiplicity for s in self.sectors)

    def levels(self, blocks) -> np.ndarray:
        """Product-space spectrum of an operator stored as sector blocks, sorted,
        with each block's eigenvalues repeated by its sector's multiplicity."""
        return self.merge([np.linalg.eigvalsh(b) for b in blocks])

    def merge(self, spectra) -> np.ndarray:
        """The product-space spectrum ``levels`` from the blocks' spectra."""
        return np.sort(np.concatenate([np.repeat(e, d) for e, d in zip(spectra, self.multiplicities)]))


def assemble_furry_exact(sys: OneParticleSystem, cfg: NbodyConfig,
                         pair: PairInteraction | None = None) -> FurrySystem:
    """Build the projected Hamiltonian and its diagonalized image.

    The diagonalized image is computed through the assembled unitaries and
    projectors (not copied from the direct matrix), so its agreement with
    h_furry_exact is a real consistency statement about those matrices.
    The transported frame psi = R U_gamma phi is gated twice before any
    block is built: its lower rows must vanish (the decoupling keeps the
    retained states positive) and ||psi^T psi - 1||_2 must stay below 1e-9
    (U_gamma is unitary on the retained span).  A frame failing either
    raises ConsistencyError; a passing one needs no Gram factor on the
    spectator sites of ``sector_blocks``.  The pair matrix W is gated
    positive semidefinite, to 1e-9 max(1, ||W||), on its blocks in the two
    site-swap sectors of ``site_sectors(n_plus, 2)``: W is exactly
    swap-invariant (``PairInteraction.project``), so its spectrum is the
    union of theirs, and for two particles those blocks are the stored
    w_proj.  A non-finite W reads NaN at the gate, which the eigensolver
    would not.  cfg is the run's ``config.NbodyConfig``, which checked its
    shape when it was built.
    """
    n_sites = cfg.n_particles
    if n_sites >= 2 and pair is None:
        raise ValueError("pair interaction required for more than one particle")
    eps, phi = positive_states(sys, cfg.n_plus)
    blocks = foldy_wouthuysen(sys.grid)
    psi = fw_rows(blocks, sys.u_gamma @ phi)
    gate_norm2([psi[sys.grid.n:]], 1e-9,
               "transported frame leaks into the lower block: {value:.3e}")
    gate_norm2([psi.T @ psi - np.eye(cfg.n_plus)], 1e-9,
               "transported frame is not orthonormal: {value:.3e}")

    sectors = furry_sectors(cfg)
    scale = sys.gamma / cfg.z_charge

    # direct path, products of retained eigenstates
    kinetic = tuple(eps[s.occupation].sum(axis=1) for s in sectors)
    h_furry = tuple(np.diag(t) for t in kinetic)
    w_proj = None
    if n_sites >= 2:
        w2 = pair.project(phi)
        two = {s.shape: sector_blocks(s, two_site=w2)
               for s in site_sectors(cfg.n_plus, 2)} if np.isfinite(w2).all() else {}
        spectra = [np.linalg.eigvalsh(b) for b in two.values()] or [[math.nan]]
        low = min(float(e[0]) for e in spectra)
        gate(-low, 1e-9 * max(1.0, -low, max(float(e[-1]) for e in spectra)),
             "pair projection not positive semidefinite: lowest eigenvalue {low:.3e}", low=low)
        w_proj = tuple(two[s.shape] if n_sites == 2 else sector_blocks(s, two_site=w2)
                       for s in sectors)
        del w2, two  # one pair matrix alive at a time
        for h, w in zip(h_furry, w_proj):
            h += scale * w

    # conjugated path, through the assembled unitaries
    phi_rt = sys.u_gamma.T @ fw_rows(blocks, psi, back=True)
    pp = positive_projector(sys.evals, sys.evecs) @ phi_rt
    k1 = pp.T @ sys.dgamma @ pp
    w2_rt = None
    if n_sites >= 2:
        w2_rt = pair.project(pp)
        w2_rt *= scale
    h_diag = tuple(sector_blocks(s, k1, w2_rt) for s in sectors)

    return FurrySystem(
        one_particle=sys, config=cfg, pair=pair, sectors=sectors,
        phi=phi, psi=psi, kinetic=kinetic, w_proj=w_proj,
        h_furry_exact=h_furry, h_diag_exact=h_diag)


def _abs_d0_sum(abs_d0: np.ndarray, sectors: tuple[Sector, ...],
                frame: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sector blocks of the sum of |D_0| over the sites, on products of frame columns.

    |D_0| is diagonal in the original frame and in the FW frame alike, E_p
    on both components of node p; abs_d0 is that diagonal in the row order
    of frame: np.repeat(E, 2) for the original frame, np.tile(E, 2) for
    the FW frame.
    """
    ce = (frame.T * abs_d0) @ frame
    return tuple(sector_blocks(s, ce) for s in sectors)


def _gate_positive_weight(low: float, what: str = "eigenvalue") -> None:
    """A weight matrix's lowest eigenvalue, or the smallest pivot of its
    Cholesky factor (what names which), must be positive; a NaN fails."""
    gate(-low, -math.ulp(0.0), "weight matrix not positive definite: {what} {low:.3e}",
         what=what, low=low)


def _inv_sqrt_psd(mat: np.ndarray) -> np.ndarray:
    ew, uw = np.linalg.eigh(mat)
    _gate_positive_weight(ew[0])
    return (uw * ew ** -0.5) @ uw.T


def _pair_series(bundle: DecouplingBundle, pair: PairInteraction, upper: np.ndarray,
                 z_charge: float):
    """Yield the two-site coefficients n = 1..order of the interaction series
    on the frame rows upper, one at a time.

    The pair operator is sandwiched by the dressed-frame series (F^T R frame
    in the original frame, with F the unitary series times the projector
    series) through the separable radial form, shifted up one order by the
    coupling prefactor and scaled by 1/Z.  Coefficient n carries the pair
    products of total order n - 1, so it needs only the density stacks of
    orders below n, and there is no coefficient 0.  The shift drops the
    interaction coefficient of the truncation order: its products would land
    at order + 1, beyond the series.  The frames are real, so the density
    z_nu[r, (i,j)] = sum_a g_a[r,i] g_(nu-a)[r,j] is symmetric in i and j
    (the terms a and nu - a swap), and only its m(m+1)/2 columns i <= j are
    kept, with the kernel applied once per density order.  The term of
    densities nu, mu is the site swap S X S of the term of mu, nu (the
    kernel is symmetric), so only mu < nu and half the middle term are
    contracted, and the swapped copy is added as the transpose of their sum;
    the gather of ``_packed_pairs`` then expands the sum onto [(i,k),(j,l)].
    """
    m, order = upper.shape[1], bundle.order
    keep, gather = _packed_pairs(m)
    # radial samples g[r, a, s, i] of the dressed frame of order a < order, spinor component s
    g = np.stack([np.stack(pair.frame_factors(fc.T @ upper), axis=1)
                  for fc in bundle.f_upper[:order]], axis=1)
    n_r = g.shape[0]
    zhat, kzhat = [], []
    for n in range(1, order + 1):
        # density of order n - 1: per node, sum over a and s of g_a[:, i] g_(n-1-a)[:, j]
        left = g[:, :n].reshape(n_r, 2 * n, m)
        right = g[:, n - 1::-1].reshape(n_r, 2 * n, m)
        zhat.append(np.matmul(left.transpose(0, 2, 1), right).reshape(n_r, m * m)[:, keep])
        del left, right
        if 2 * (n - 1) < order:  # a left factor of some later order
            kzhat.append(pair.kernel @ zhat[-1])
        # contraction order [(i,j),(k,l)] on the pairs i <= j, k <= l
        x = np.zeros((keep.size, keep.size))
        for mu in range(n // 2):
            x += kzhat[mu].T @ zhat[n - 1 - mu]
        if n % 2:
            x += 0.5 * (kzhat[n // 2].T @ zhat[n // 2])
        x += x.T
        x /= z_charge
        c = x.ravel().take(gather).reshape(m * m, m * m)
        del x
        yield c
        del c  # one coefficient alive at a time


def _site_series(bundle: DecouplingBundle, fs: FurrySystem):
    """Yield the site operators (c_k, w_k) of the N-particle Hamiltonian
    series on the frame fs.psi, k = 0..bundle.order, one order at a time.

    c_k = upper^T h_k upper is the compression of the one-particle
    coefficient (the one-particle series live on the rows of psi on the
    positive free states, ``DecouplingBundle``), acting on every site; w_k
    is the pair coefficient of ``_pair_series``, acting on every pair, and
    None at order 0 or for one particle.  Both are fresh: the reader may
    overwrite them.
    """
    upper = fs.psi[:bundle.h_upper.dim]
    pairs = None
    if fs.config.n_particles >= 2:
        pairs = _pair_series(bundle, fs.pair, upper, fs.config.z_charge)
    for k, h in enumerate(bundle.h_upper.coeffs):
        c = upper.T @ h @ upper
        w = next(pairs) if k and pairs is not None else None
        yield c, w
        del w  # before the next pair coefficient is computed


def site_partial_sums(bundle: DecouplingBundle, fs: FurrySystem):
    """Yield (C_k, W_k, growth_k), k = 0..bundle.order: the partial sums of
    the N-particle Hamiltonian series on the frame fs.psi at fs's own
    coupling gamma, summed on the site operators of ``_site_series``.

    Every order is a site sum, so the partial sum S_k is the operator with
    C_k = sum_(j<=k) gamma^j c_j on every site and W_k = sum_(j<=k)
    gamma^j w_j on every site pair, and its block on a sector is
    ``sector_blocks(sector, C_k, W_k)``.  The sums take the arithmetic of
    ``series.series_partial_sums``, S_k = S_(k-1) + gamma^k A_k with gamma^k
    formed by repeated multiplication; W_k is None while there is no pair
    term (order 0, and one particle).  Each fresh term is scaled and added
    in place, so C_k and W_k are overwritten by the next item.  growth_k =
    gamma^k (N ||c_k||_F + C(N,2) ||w_k||_F), 0 at order 0, bounds every
    sector block of S_k - S_(k-1) in spectral norm (``_LazyBlock``).
    """
    n, gamma = fs.config.n_particles, fs.one_particle.gamma
    weights = (n, math.comb(n, 2))
    gk, sums = 1.0, [None, None]
    for k, terms in enumerate(_site_series(bundle, fs)):
        growth = 0.0
        if k:
            gk *= gamma
            growth = gk * sum(a * np.linalg.norm(x) for a, x in zip(weights, terms) if x is not None)
        for i, x in enumerate(terms):
            if x is not None:
                x *= gk
                if sums[i] is None:
                    sums[i] = x
                else:
                    sums[i] += x
        yield (*sums, growth)
        del terms, x  # before the next pair coefficient is computed


def series_ground_energies(bundle: DecouplingBundle, fs: FurrySystem, lows) -> np.ndarray:
    """Lowest level of each partial sum S_k = sum_(j<=k) gamma^j H_j,
    k = 0..bundle.order, of the N-particle series at fs's own coupling
    gamma (``site_partial_sums``), lifting and diagonalizing only the
    sector blocks that can hold it.

    lows[b] is the lowest eigenvalue of the exact block fs.h_diag_exact[b],
    as ``np.linalg.eigvalsh`` returns it.  The level of S_k is the minimum
    over its blocks.  At each order the sectors are visited in ascending
    order of lows, and best is the lowest level found so far at that
    order.  By Weyl's inequality (H. Weyl, Math. Ann. 71, 1912) block b of
    S_k has no level below lows[b] - ||S_k^(b) - E_b||_2, with E_b the
    exact block, so a sector whose bound lies above best cannot hold the
    minimum and is skipped (``_LazyBlock``).  The first sector is lifted
    and diagonalized at every order, as is any sector not certified.
    Every block that is diagonalized is the one lift of its partial sum, so
    each level is bit for bit that of the route that lifts and
    diagonalizes every block.
    """
    blocks = [_LazyBlock(s, e, float(low))
              for s, e, low in zip(fs.sectors, fs.h_diag_exact, lows)]
    visit = [blocks[b] for b in np.argsort(lows, kind="stable")]
    energies = np.empty(bundle.order + 1)
    for k, (c, w, growth) in enumerate(site_partial_sums(bundle, fs)):
        best = np.inf
        for block in visit:
            best = min(best, block.step(k, c, w, growth, best))
        energies[k] = best
    return energies


class _LazyBlock:
    """The Weyl certificate of one sector block of the partial sums, which
    is lifted only when the certificate cannot place its lowest level above
    the best level found so far (``series_ground_energies``).

    When the distance is taken after a lift at order k0, the block stores
    dist = ||S_k0 - E||_F; before that, dist is inf and nothing is
    certified.  At order k > k0,
        B = dist + sum_(j=k0+1..k) gamma^j (N ||c_j||_F + C(N,2) ||w_j||_F)
    bounds ||S_k - E||_2, since S_k - S_k0 is the lift of
    sum_(k0<j<=k) gamma^j (c_j, w_j): the order-j term of block b is the
    compression V^T X_j V by the orthonormal sector isometry V of X_j, the
    sum of c_j over the N sites and w_j over the C(N,2) pairs, so
    ||V^T X_j V||_2 <= ||X_j||_2 <= N ||c_j||_2 + C(N,2) ||w_j||_2, and
    ||.||_2 <= ||.||_F (V is orthonormal to roundoff, which ``margin``
    covers).  pending is the sum over j.  S and E are exactly symmetric
    (``sector_blocks``), so by Weyl the block's lowest level is at least
    lows[b] - B up to the roundoff that ``margin`` bounds.  The block is
    skipped when low - B > best + margin: it is neither lifted nor
    diagonalized.  Otherwise S_k is lifted, and with best < inf its
    distance is taken, after which low - dist > best + margin skips the
    eigensolve as well.  With best = inf (the first sector visited)
    nothing is certified and no distance is taken.
    """

    def __init__(self, sector: Sector, exact: np.ndarray, low: float):
        self.sector, self.exact, self.low = sector, exact, low
        self.exact_norm = float(np.linalg.norm(exact))
        m_n, n_sites = sector.iso.shape[0], sector.occupation.shape[1]
        self.rounding = m_n * math.factorial(n_sites) + sector.width ** 2
        self.dist, self.pending, self.size = np.inf, 0.0, 0.0

    def margin(self, k: int) -> float:
        """Roundoff allowance of the certificate at order k.

        The certificate must hold for the level the full route would
        compute, lam = eigvalsh(S)[0] with S its floating-point partial
        sum, and lows[b] is itself a computed eigenvalue.  Each
        rounding step is bounded in the standard first-order model:
        a step whose sums have at most p terms is off by at most
        p eps ||x||_2 (eps = machine epsilon), with p the block width w
        for a backward-stable Hermitian eigensolver (LAPACK Users' Guide
        sec. 4.7, |lam_hat - lam| <= p(w) eps ||A||_2 by Weyl), at most
        m^N N! for forming one lifted term (products of length m or m^2,
        orbit sums, N! gathered positions per column) and w^2 for a
        Frobenius norm.  p = m^N N! + w^2 bounds all of them.  Every matrix
        involved has spectral norm at most ||E||_F + M, with M = size =
        ||S_0||_F + sum_(j=1..k) gamma^j (N ||c_j||_F + C(N,2) ||w_j||_F)
        bounding every partial sum and lifted term.  The formula counts
        2k + 1 steps forming S (k + 1 lifts, k additions), two eigensolves
        (E and S) and one distance: at most 2(k + 2) steps, so
            margin = 2 (k + 2) p eps (||E||_F + M).
        S_k is one lift of the site sums (``site_partial_sums``), whose k
        additions act on the site operators: fewer rounding steps than
        the 2k + 1 counted, so the margin still bounds them.
        """
        eps = np.finfo(float).eps
        return 2 * (k + 2) * self.rounding * eps * (self.exact_norm + self.size)

    def step(self, k: int, c: np.ndarray, w: np.ndarray | None, growth: float,
             best: float) -> float:
        """Advance to order k and return the block's lowest level, or inf
        when it is certified above best.  (c, w, growth) is order k of
        ``site_partial_sums``."""
        self.size += growth
        self.pending += growth
        if self.low - (self.dist + self.pending) > best + self.margin(k):
            return np.inf
        s = sector_blocks(self.sector, c, w)
        if k == 0:
            self.size = float(np.linalg.norm(s))
        if best < np.inf:
            self.dist, self.pending = float(np.linalg.norm(s - self.exact)), 0.0
            if self.low - self.dist > best + self.margin(k):
                return np.inf
        return float(np.linalg.eigvalsh(s)[0])


# ---------------------------------------------------------------------------
# Inequality diagnostics
# ---------------------------------------------------------------------------

def check_form_bound(fs: FurrySystem) -> float:
    """Largest eigenvalue of T^(-1/2) W T^(-1/2) on the retained subspace.

    The continuum bound is gamma pi N(N-1) / (4 Z d_gamma); the kinetic
    part T is the projected sum of one-particle operators, positive by the
    spectral gap.  Both commute with the site permutations, so the largest
    eigenvalue is the maximum over the sector blocks.  Each T block is
    diagonal (``FurrySystem.kinetic`` holds its diagonal t), so a block is
    W times d d^T entry by entry, d = t^(-1/2): exactly symmetric, as W is.
    """
    if fs.w_proj is None:
        return 0.0
    scale = fs.one_particle.gamma / fs.config.z_charge
    top = -np.inf
    for t, w in zip(fs.kinetic, fs.w_proj):
        _gate_positive_weight(t.min())
        d = t ** -0.5
        m = (scale * w) * np.outer(d, d)
        top = float(np.maximum(top, np.linalg.eigvalsh(m)[-1]))
    return top


def form_bound_limit(fs: FurrySystem) -> float:
    n, z = fs.config.n_particles, fs.config.z_charge
    return fs.one_particle.gamma * math.pi * n * (n - 1) / (4.0 * z * d_gamma(fs.one_particle.gamma))


def check_kinetic_weight_bound(fs: FurrySystem) -> float:
    """Largest eigenvalue of H^(-1/2) (sum |D_0|) H^(-1/2); bounded by 1/d_gamma.

    Taken per sector block from the Cholesky factor H = C C^T as the top
    eigenvalue of C^-1 L C^-T (L the |D_0| sum over the sites, H the Furry
    Hamiltonian), which is similar to the matrix above and needs no
    eigendecomposition of H; the result is the maximum over the sectors.
    H must be positive definite: the smallest pivot of C is gated on every
    block (``_gate_positive_weight``), and a factorization that stops at a
    nonpositive pivot reads NaN and fails the same gate.
    """
    top = -np.inf
    abs_d0 = np.repeat(free_energies(fs.one_particle.grid), 2)
    for lifted, h in zip(_abs_d0_sum(abs_d0, fs.sectors, fs.phi), fs.h_furry_exact):
        try:
            c = np.linalg.cholesky(h)
            pivot = float(np.diag(c).min())
        except np.linalg.LinAlgError:
            pivot = math.nan
        _gate_positive_weight(pivot, "smallest Cholesky pivot")
        c_inv = np.linalg.inv(c)
        m = c_inv @ lifted @ c_inv.T
        top = float(np.maximum(top, np.linalg.eigvalsh(0.5 * (m + m.T))[-1]))
    return top


def kinetic_weight_limit(fs: FurrySystem) -> float:
    return 1.0 / d_gamma(fs.one_particle.gamma)


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------

def fit_geometric_ratio(values: np.ndarray) -> float:
    """Least-squares ratio of an eventually geometric positive sequence.

    Only points that still decay enter the log-linear fit.  Left out are
    the points at or below 1e-14 and a roundoff plateau: the longest run of
    two or more final values that all lie within a factor 1.05 of the
    run's smallest.  A geometric tail with ratio below 1/1.05 never forms
    such a run, and the fit does not move when the plateau moves at
    roundoff.
    """
    v = np.asarray(values, dtype=float)
    start = v.size - 1  # the final run is v[start:]
    while start > 0 and v[start - 1:].max() <= 1.05 * v[start - 1:].min():
        start -= 1
    if start < v.size - 1:
        v = v[:start]
    keep = np.where(v > 1e-14)[0]
    if keep.size < 3:
        return 0.0
    slope = np.polyfit(keep, np.log(v[keep]), 1)[0]
    return float(np.exp(slope))


def _low_levels(blocks, frames, multiplicities, count: int = 10) -> np.ndarray:
    """The count lowest levels of a sector-split operator, with multiplicity.

    Each block contributes the ``rayleigh_quotients`` of its count lowest
    eigenvectors (frames from ``hermitian_frame``), repeated by the
    block's multiplicity; the quotients lack the raw eigenvalues' backward
    error eps*||block||.
    """
    levels = [np.repeat(rayleigh_quotients(b, q[:, :count]), d)
              for b, (q, _), d in zip(blocks, frames, multiplicities)]
    return np.sort(np.concatenate(levels))[:count]


def convergence_rows(bundle: DecouplingBundle,
                     system: OneParticleSystem | FurrySystem) -> list[dict]:
    """Resolvent distances, weighted remainders and eigenvalue errors of the
    rows (gamma, k), k = 0..``bundle.order``, at system's own coupling gamma.

    For one particle, system is a OneParticleSystem and the comparison runs
    on the full upper block.  For more particles, system is a FurrySystem:
    its transported frame carries both the exact diagonalized operator and
    the series, split into sector blocks.  Norms and resolvent distances
    of a block-diagonal operator are the maxima over its blocks;
    the low eigenvalues come from the merged block spectra.  Every block,
    exact or truncated, takes one eigendecomposition (``hermitian_frame``),
    which serves both its resolvent distance and its low levels; the exact
    operator's is computed once and shared by every truncation order, and
    the truncations are accumulated partial sums: for N particles the site
    sums of ``site_partial_sums``, each lifted once per sector.  Every
    block is exactly symmetric as formed (``h_diag_exact``,
    ``sector_blocks``), and so is every elementwise partial sum of such
    blocks.  No inverse and no SVD is taken.  The remainders are weighted
    by W = |D_0|^(-1/2) on the frame; for one particle W is diagonal and
    scales rows and columns, which gives the products with diag(W) bit for
    bit, since those add only exact zeros.
    """
    nbody = isinstance(system, FurrySystem)
    sys1 = system.one_particle if nbody else system
    gamma = sys1.gamma
    energies = free_energies(sys1.grid)
    if nbody:
        exact, mult = system.h_diag_exact, system.multiplicities
        weight = tuple(_inv_sqrt_psd(d) for d in
                       _abs_d0_sum(np.tile(energies, 2), system.sectors, system.psi))
        partial = (tuple(sector_blocks(s, c, w) for s in system.sectors)
                   for c, w, _ in site_partial_sums(bundle, system))
    else:
        exact, mult = (h_diag_exact(system),), (1,)
        weight = (energies ** -0.5,)
        partial = series_partial_sums(zip(bundle.h_upper.coeffs), gamma)
    exact_frames = [hermitian_frame(e) for e in exact]
    exact_low = _low_levels(exact, exact_frames, mult)
    dists, remainders, eig_errors = np.empty((3, bundle.order + 1))
    for k, approx in enumerate(partial):
        frames = [hermitian_frame(a) for a in approx]
        dists[k] = np.max([resolvent_distance(e, a, fe, fa)
                           for e, a, fe, fa in zip(exact, approx, exact_frames, frames)])
        remainders[k] = np.max([_norm2(w @ (e - a) @ w if nbody else w[:, None] * (e - a) * w)
                                for w, e, a in zip(weight, exact, approx)])
        eig_errors[k] = float(np.max(np.abs(_low_levels(approx, frames, mult) - exact_low)))
    ratio = fit_geometric_ratio(dists)
    return [{"gamma": gamma, "k": k,
             "resolvent_distance": float(dists[k]),
             "weighted_remainder_norm": float(remainders[k]),
             "max_eigval_error": float(eig_errors[k]),
             "fitted_ratio": ratio} for k in range(bundle.order + 1)]


# ---------------------------------------------------------------------------
# Cross-validation of restriction against full-space conjugation
# ---------------------------------------------------------------------------

def check_restriction_consistency(gamma: float, cfg: NbodyConfig) -> float:
    """Compare conjugate-then-restrict against restrict-then-conjugate.

    Runs a two-particle instance on a 24-node grid (``_restriction_instance``),
    where the full product space is affordable, and returns the largest
    spectral-norm difference, over the sector blocks, between the full-space
    conjugated Hamiltonian compressed to the transported frame
    (``_conjugated_compression``) and the factored assembly used at scale,
    after gating it at 1e-8 (ConsistencyError).  Only cfg's charge and
    n_plus are read; the instance always has two particles.
    """
    fs = _restriction_instance(gamma, cfg)
    compressed = _conjugated_compression(fs)
    return gate(float(np.max([_norm2(s.iso.T @ compressed @ s.iso - block)
                              for s, block in zip(fs.sectors, fs.h_diag_exact)])), 1e-8,
                "restriction/conjugation order disagreement {value:.3e} > 1e-8 "
                "on the small cross-check instance")


def _restriction_instance(gamma: float, cfg: NbodyConfig) -> FurrySystem:
    """The two-particle system of ``check_restriction_consistency``: a 24-node
    grid, the charge of cfg and min(n_plus, 6) retained states, without
    antisymmetrization."""
    grid = build_channel_grid(24)
    pair = build_pair_interaction(grid, n_radial=96, r_max=10.0, probe=False)
    small_cfg = NbodyConfig(n_particles=2, z_charge=cfg.z_charge,
                            n_plus=min(cfg.n_plus, 6), antisymmetrize=False)
    return assemble_furry_exact(assemble_system(grid, gamma), small_cfg, pair)


def _conjugated_compression(fs: FurrySystem) -> np.ndarray:
    """Full-space conjugated two-particle Hamiltonian on the frame kron(psi, psi).

    The conjugation is kron(E, E) H_2 kron(E, E)^T with
    E = R U_gamma P_+^gamma and R the FW frame of ``oneparticle.fw_rows``,
    where H_2 = D (x) 1 + 1 (x) D + (gamma/Z) W holds both one-particle
    operators D and the full pair matrix W.  Compressed to the frame it is
    Y^T H_2 Y with Y = kron(E^T psi, E^T psi), so only the frame's columns
    are conjugated, and H_2 is applied to Y without being stored: the
    one-site terms act on Y viewed as (d, d, columns), one matmul per site,
    and W is formed one row slab at a time (``_pair_rows``), each slab
    applied to Y as soon as it is formed.  Every entry of W is formed in
    full space before it is conjugated, but no d^2 x d^2 array is: besides
    Y and H_2 Y, only the density stack of the unit frame, its kernel image
    (n_r x d^2 each) and one d x d^2 slab are alive.
    """
    sys, pair = fs.one_particle, fs.pair
    d = sys.grid.dim
    e = fw_rows(foldy_wouthuysen(sys.grid), sys.u_gamma @ positive_projector(sys.evals, sys.evecs))
    e_psi = e.T @ fs.psi
    y = np.kron(e_psi, e_psi)
    y3 = y.reshape(d, d, -1)
    hy = (sys.dgamma @ y.reshape(d, -1)).reshape(y3.shape)
    hy += np.matmul(sys.dgamma, y3)
    scale = sys.gamma / fs.config.z_charge
    z = pair.densities(np.eye(d))
    zk = z.T @ pair.kernel
    for i in range(d):
        hy[i] += scale * (_pair_rows(zk[i * d:(i + 1) * d] @ z, d) @ y)
    return y.T @ hy.reshape(y.shape)
