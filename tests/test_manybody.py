"""Pair interaction, site-permutation sectors, N-particle assembly, convergence."""

import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (
    _pair_product,
    all_sites_sector_blocks,
    antisymmetrizer_isometry,
    collect_series_N,
    dense_conjugated_compression,
    dense_furry,
    dense_two_site_assemble,
    forbid_svd,
    full_pair_series,
    full_series_ground_energies,
    lift_pair,
    lift_single,
    lu_resolvent_distance,
    series_truncate,
    traced_peak,
)
from diracdiag import cli
from diracdiag import manybody as mb
from diracdiag.config import NbodyConfig
from diracdiag.decoupling import (
    build_decoupling_bundle,
    h_diag_exact,
    hermitian_frame,
    resolvent_distance,
)
from diracdiag.errors import ConfigError, ConsistencyError, ResolutionError
from diracdiag.grids import build_channel_grid, build_radial_grid
from diracdiag.oneparticle import assemble_system, positive_states
from diracdiag.series import make_series, series_eval, series_partial_sums


# ---------------------------------------------------------------------------
# configuration guardrails
# ---------------------------------------------------------------------------

def test_furry_config_validation():
    # the N-body shape is a config.NbodyConfig, which checks itself when built
    with pytest.raises(ConfigError, match="n_particles"):
        NbodyConfig(n_particles=0, z_charge=2.0, n_plus=4)
    with pytest.raises(ConfigError, match="z_charge"):
        NbodyConfig(n_particles=2, z_charge=0.0, n_plus=4)
    with pytest.raises(ConfigError, match="n_plus"):
        NbodyConfig(n_particles=2, z_charge=2.0, n_plus=0)
    with pytest.raises(ConfigError, match="cap"):
        NbodyConfig(n_particles=3, z_charge=3.0, n_plus=30)
    with pytest.raises(ConfigError, match="antisymmetrize"):
        NbodyConfig(n_particles=3, z_charge=3.0, n_plus=2, antisymmetrize=True)


def test_assemble_requires_pair_for_two_particles(sys100):
    cfg = NbodyConfig(n_particles=2, z_charge=2.0, n_plus=4)
    with pytest.raises(ValueError, match="pair"):
        mb.assemble_furry_exact(sys100(0.3), cfg, None)


# ---------------------------------------------------------------------------
# monopole kernel
# ---------------------------------------------------------------------------

def hydrogenic_radial_density(r, q):
    # |psi_1s|^2 with the reduced convention: psi = u/r, u = 2 q^(3/2) r e^(-qr)
    return 4.0 * q ** 3 * np.exp(-2.0 * q * r)


def test_kernel_symmetric_psd():
    radial = build_radial_grid(120, 14.0)
    k = mb.monopole_kernel_form(radial)
    assert np.linalg.norm(k - k.T, 2) < 1e-12
    low = float(np.linalg.eigvalsh(k)[0])
    assert low > -1e-8 * np.linalg.norm(k, 2)


@pytest.mark.parametrize("q", [0.8, 1.0, 1.3])
def test_kernel_slater_closed_form(q):
    # self-repulsion of the hydrogenic ground state is 5q/8
    radial = build_radial_grid(160, 16.0)
    k = mb.monopole_kernel_form(radial)
    z = hydrogenic_radial_density(radial.r, q)
    got = float(z @ k @ z)
    ref = 5.0 * q / 8.0
    assert abs(got - ref) / ref < 1e-8


def test_kernel_cross_charge_against_quadrature():
    radial = build_radial_grid(160, 16.0)
    k = mb.monopole_kernel_form(radial)
    a, b = 0.9, 1.4
    za = hydrogenic_radial_density(radial.r, a)
    zb = hydrogenic_radial_density(radial.r, b)

    def inner(r2):
        lo = quad(lambda r1: 4 * a ** 3 * r1 ** 2 * np.exp(-2 * a * r1),
                  0.0, r2, limit=200)[0] / r2
        hi = quad(lambda r1: 4 * a ** 3 * r1 * np.exp(-2 * a * r1),
                  r2, 60.0, limit=200)[0]
        return lo + hi

    ref = quad(lambda r2: 4 * b ** 3 * r2 ** 2 * np.exp(-2 * b * r2) * inner(r2),
               0.0, 60.0, limit=200)[0]
    assert abs(float(za @ k @ zb) - ref) < 1e-9


# ---------------------------------------------------------------------------
# pair interaction through the momentum grid
# ---------------------------------------------------------------------------

def test_pair_round_trip_gate(grid100, pair100):
    probes = np.zeros((grid100.dim, 2))
    probes[0::2, 0] = mb._gaussian_probe(grid100, 0, 0.5)
    probes[1::2, 1] = mb._gaussian_probe(grid100, 1, 0.5)
    assert pair100.round_trip_defect(probes) < 1e-6


def test_pair_gate_raises_on_coarse_grid():
    with pytest.raises(ResolutionError,
                       match=r"^radial transform round-trip defect \d\.\d{3}e[+-]\d\d > 1e-6; "
                             r"the momentum grid is too coarse: raise grid\.n$"):
        mb.build_pair_interaction(build_channel_grid(8))


def test_slater_through_pipeline(pair100):
    # momentum-side tails limit the transform accuracy at this node count;
    # the 1e-4 contract is enforced at n=200 by the validation suite
    for q in (0.5, 1.0):
        ref = 5.0 * q / 8.0
        assert abs(mb.slater_monopole_value(pair100, q) - ref) / ref < 2e-3


def test_slater_through_pipeline_tight(pair200):
    for q in (0.5, 1.0):
        ref = 5.0 * q / 8.0
        assert abs(mb.slater_monopole_value(pair200, q) - ref) / ref < 1e-4


def test_slater_reference_closed_form():
    # F^0 of the nodeless state r^l exp(-zeta r) at zeta = 1: 5/8 for l = 0
    # (q = 1) and 93/256 for l = 1 (q = 1/2), bit for bit
    assert mb.slater_monopole_reference(0, 1.0) == 5 / 8
    assert mb.slater_monopole_reference(1, 0.5) == 93 / 256
    for q in (0.5, 1.0):
        assert mb.slater_monopole_reference(0, q) == 5.0 * q / 8.0


@pytest.mark.parametrize("m", [5, 7])
def test_pair_projection_matches_dense_reindex(pair100, m):
    # the packed contraction and index gather against every density column
    # contracted and reindexed by one dense transpose, on a real frame
    rng = np.random.default_rng(m)
    dim = pair100.grid.dim
    frame = rng.standard_normal((dim, m))
    gup, glo = pair100.frame_factors(frame)
    z = mb._density_stack(gup, gup) + mb._density_stack(glo, glo)
    ref = dense_two_site_assemble(z, pair100.kernel, z, m)
    got = pair100.project(frame)
    assert got.shape == (m * m, m * m)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_pair_projection_properties(sys100, pair100):
    _, phi = positive_states(sys100(0.3), 5)
    w2 = pair100.project(phi)
    m = 5
    # exactly symmetric, and exactly invariant under swapping both particles,
    # [(i,k),(j,l)] == [(k,i),(l,j)]
    assert np.array_equal(w2, w2.T)
    t = w2.reshape(m, m, m, m)
    assert np.array_equal(t, t.transpose(1, 0, 3, 2))
    # positive semidefinite and positive diagonal
    low = float(np.linalg.eigvalsh(w2)[0])
    assert low > -1e-9 * np.linalg.norm(w2, 2)
    assert np.all(np.diag(w2) > -1e-12)


# ---------------------------------------------------------------------------
# Kronecker lifting (the dense oracle) and site-permutation sectors
# ---------------------------------------------------------------------------

def test_lift_single_places_operator():
    rng = np.random.default_rng(5)
    op = rng.standard_normal((3, 3))
    eye = np.eye(3)
    lifted = lift_single(op, eye, 3, 1)
    assert np.allclose(lifted, np.kron(np.kron(eye, op), eye), atol=1e-14)


def test_lift_pair_matches_kron_embedding():
    rng = np.random.default_rng(6)
    m = 3
    a1 = rng.standard_normal((m, m))
    a2 = rng.standard_normal((m, m))
    eye = np.eye(m)
    two_site = np.kron(a1, a2)
    # slots (0, 2) of three sites: a1 on 0, identity on 1, a2 on 2
    lifted = lift_pair(two_site, eye, 3, 0, 2, m)
    ref = np.kron(np.kron(a1, eye), a2)
    assert np.allclose(lifted, ref, atol=1e-13)


def test_antisymmetrizer_isometry_properties():
    for m, n in ((4, 2), (5, 3)):
        (sector,) = mb.furry_sectors(NbodyConfig(n, 2.0, m, antisymmetrize=True))
        a = sector.iso
        assert a.shape == (m ** n, math.comb(m, n))
        assert np.linalg.norm(a.T @ a - np.eye(a.shape[1]), 2) < 1e-12
        # columns change sign under site swap
        t = a.reshape((m,) * n + (a.shape[1],))
        swapped = np.swapaxes(t, 0, 1).reshape(m ** n, a.shape[1])
        assert np.linalg.norm(swapped + a, 2) < 1e-12


SECTOR_CASES = [(2, 8, False), (2, 8, True), (3, 5, False), (3, 5, True)]


@pytest.fixture(scope="module")
def system64():
    """Coupling-0.25 system, pair interaction and order-4 bundle on the n=64 grid."""
    grid = build_channel_grid(64)
    bundle = build_decoupling_bundle(grid, 4)
    return assemble_system(grid, 0.25), mb.build_pair_interaction(grid), bundle


def _sector_system(system64, n_particles, n_plus, antisymmetrize):
    sys64, pair64, _ = system64
    cfg = NbodyConfig(n_particles, 2.0, n_plus, antisymmetrize=antisymmetrize)
    return mb.assemble_furry_exact(sys64, cfg, pair64)


@pytest.mark.parametrize("n_particles,n_plus,antisymmetrize", SECTOR_CASES)
def test_sector_spectra_match_dense_oracle(system64, n_particles, n_plus, antisymmetrize):
    bundle64 = system64[2]
    fs = _sector_system(system64, n_particles, n_plus, antisymmetrize)
    dense = dense_furry(fs, bundle64)
    a_iso = antisymmetrizer_isometry(n_plus, n_particles) if antisymmetrize else None
    series = collect_series_N(bundle64, fs)
    cases = (("h_furry", fs.h_furry_exact, dense["h_furry"]),
             ("h_diag", fs.h_diag_exact, dense["h_diag"]),
             ("series_2", tuple(s.coeffs[2] for s in series), dense["series"][2]))
    for name, blocks, full in cases:
        # every block is the operator restricted to an invariant subspace
        for sector, block in zip(fs.sectors, blocks):
            defect = np.linalg.norm(full @ sector.iso - sector.iso @ block, 2)
            assert defect <= 1e-12 * np.linalg.norm(full, 2), name
        if a_iso is not None:
            full = a_iso.T @ full @ a_iso
        ref = np.linalg.eigvalsh(0.5 * (full + full.T))
        got = fs.levels([0.5 * (b + b.T) for b in blocks])
        assert got.size == ref.size == fs.dim
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("n_particles,n_plus,antisymmetrize", SECTOR_CASES)
def test_sector_isometries(system64, n_particles, n_plus, antisymmetrize):
    fs = _sector_system(system64, n_particles, n_plus, antisymmetrize)
    for sector in fs.sectors:
        v = sector.iso
        assert np.linalg.norm(v.T @ v - np.eye(sector.width), 2) <= 1e-14
        assert np.count_nonzero(v, axis=0).max() <= math.factorial(n_particles)
        # the nonzero list reproduces the dense columns
        y = np.arange(v.shape[0] * 3, dtype=float).reshape(v.shape[0], 3)
        assert np.max(np.abs(sector.compress(y) - v.T @ y)) <= 1e-14 * np.max(np.abs(y))
    widths = sum(s.multiplicity * s.width for s in fs.sectors)
    assert widths == fs.dim == (math.comb(n_plus, n_particles) if antisymmetrize
                                else n_plus ** n_particles)
    if antisymmetrize:
        assert [s.shape for s in fs.sectors] == [(1,) * n_particles]


def test_sector_multiplicities_follow_hook_lengths():
    # d_lambda for S_3 and S_4, and sum d_lambda^2 = N!
    dims = {s.shape: s.multiplicity for s in mb.site_sectors(4, 4)}
    assert dims == {(4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1}
    assert sum(d * d for d in dims.values()) == 24
    assert [(s.shape, s.multiplicity, s.width) for s in mb.site_sectors(10, 3)] == \
        [((3,), 1, 220), ((2, 1), 2, 330), ((1, 1, 1), 1, 120)]


def per_orbit_sector_arrays(m: int, n_sites: int, shape: tuple[int, ...]) -> tuple:
    """iso, rows and vals of a sector with one SVD of the Young symmetrizer
    per occupation orbit: the route ``manybody.site_sectors`` replaced by one
    SVD per pattern of equal indices."""
    cols = []
    for occ in itertools.combinations_with_replacement(range(m), n_sites):
        arrangements = sorted(set(itertools.permutations(occ)))
        idx = [sum(t[s] * m ** (n_sites - 1 - s) for s in range(n_sites)) for t in arrangements]
        u, sv, _ = np.linalg.svd(mb._young_symmetrizer(shape, arrangements))
        rank = int(np.count_nonzero(sv > 1e-8 * max(sv[0], 1.0)))
        cols += [(idx, u[:, r]) for r in range(rank)]
    k = max(len(idx) for idx, _ in cols)
    iso = np.zeros((m ** n_sites, len(cols)))
    rows = np.zeros((len(cols), k), dtype=np.intp)
    vals = np.zeros((len(cols), k))
    for c, (idx, v) in enumerate(cols):
        iso[idx, c] = v
        rows[c, :len(idx)] = idx
        vals[c, :len(idx)] = v
    return iso, rows, vals


@pytest.mark.parametrize("m,n_sites", [(10, 3), (20, 2), (4, 4), (3, 5), (6, 2)])
def test_sectors_match_one_svd_per_orbit(m, n_sites):
    # orbits with one pattern of equal indices share their symmetrizer, so
    # one SVD per pattern gives every column bit for bit
    for sector in mb.site_sectors(m, n_sites):
        for got, ref in zip((sector.iso, sector.rows, sector.vals),
                            per_orbit_sector_arrays(m, n_sites, sector.shape)):
            assert np.array_equal(got, ref), sector.shape


@pytest.mark.parametrize("m,n_sites", [(6, 2), (5, 3), (4, 4), (3, 5)])
def test_orbit_lift_matches_all_sites_lift(m, n_sites):
    # random symmetric one-site and two-site operators, as sector_blocks
    # requires, with no site-swap symmetry: the orbit reduction rests on the
    # isometry alone
    rng = np.random.default_rng(m * 10 + n_sites)
    for _ in range(3):
        one = rng.standard_normal((m, m))
        one += one.T
        two = rng.standard_normal((m * m, m * m))
        two += two.T
        for sector in mb.site_sectors(m, n_sites):
            for args in ((one, None), (None, two), (one, two)):
                got = mb.sector_blocks(sector, *args)
                ref = all_sites_sector_blocks(sector, *args)
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), \
                    (sector.shape, [a is not None for a in args])


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
def test_orbit_sizes_cover_every_site_and_pair(n_sites):
    sectors = mb.site_sectors(n_sites, n_sites)  # m >= N: every partition has a sector
    assert {s.shape for s in sectors} == set(mb._partitions(n_sites))
    for sector in sectors:
        assert sum(size for _, size in sector.site_orbits) == n_sites
        assert sum(size for _, size in sector.pair_orbits) == math.comb(n_sites, 2)
        assert all(a < b for (a, b), _ in sector.pair_orbits)
    if n_sites == 3:  # sectors (3), (2,1), (1,1,1): 1, 2 and 1 lifts of each kind
        assert [s.site_orbits for s in sectors] == [((2, 3),), ((1, 2), (2, 1)), ((2, 3),)]
        assert [s.pair_orbits for s in sectors] == [(((1, 2), 3),), (((0, 1), 1), ((1, 2), 2)),
                                                    (((1, 2), 3),)]


# ---------------------------------------------------------------------------
# assembled N-particle systems
# ---------------------------------------------------------------------------

def test_one_particle_assembly(sys100):
    s = sys100(0.3)
    fs = mb.assemble_furry_exact(s, NbodyConfig(n_particles=1, z_charge=2.0, n_plus=8))
    eps = positive_states(s, 8)[0]
    assert fs.dim == 8
    assert np.allclose(fs.kinetic[0], eps, atol=1e-14)
    # furry and diagonalized spectra coincide
    ef = fs.levels(fs.h_furry_exact)
    ed = fs.levels(fs.h_diag_exact)
    assert np.max(np.abs(ef - ed)) < 1e-9
    assert np.max(np.abs(ef - eps)) < 1e-9


def test_two_particle_assembly(sys100, pair100):
    s = sys100(0.3)
    cfg = NbodyConfig(n_particles=2, z_charge=2.0, n_plus=6)
    fs = mb.assemble_furry_exact(s, cfg, pair100)
    assert fs.dim == 36
    ef = fs.levels(fs.h_furry_exact)
    ed = fs.levels(fs.h_diag_exact)
    assert np.max(np.abs(ef - ed)) < 1e-9
    # repulsion raises every level above the sum of one-particle energies
    eps = positive_states(s, 6)[0]
    free_sum = np.sort(np.add.outer(eps, eps).ravel())
    assert np.all(ef >= free_sum - 1e-10)
    assert ef[0] > free_sum[0]


def test_transported_frame_orthonormality_gate(sys100):
    s = sys100(0.2)
    cfg = NbodyConfig(n_particles=1, z_charge=2.0, n_plus=8)
    fs = mb.assemble_furry_exact(s, cfg)
    assert np.linalg.norm(fs.psi.conj().T @ fs.psi - np.eye(8), 2) <= 1e-13
    # a scaled U_gamma keeps the frame positive but stretches it
    scaled = dataclasses.replace(s, u_gamma=(1 + 1e-6) * s.u_gamma)
    with pytest.raises(ConsistencyError,
                       match=r"^transported frame is not orthonormal: 2\.000e-06$"):
        mb.assemble_furry_exact(scaled, cfg)


def test_transported_frame_leak_gate(sys100):
    # U_gamma turned by 1e-8 rad in the plane of the lowest positive and the
    # highest negative eigenvector carries the first retained state into the
    # lower block by 1e-8, with the frame orthonormal to 1e-16
    s = sys100(0.2)
    k = int(np.searchsorted(s.evals, 0.0))
    x_m, x_p = s.evecs[:, k - 1], s.evecs[:, k]
    turn = np.eye(s.dim) + 1e-8 * (np.outer(x_m, x_p) - np.outer(x_p, x_m))
    turned = dataclasses.replace(s, u_gamma=s.u_gamma @ turn)
    cfg = NbodyConfig(n_particles=1, z_charge=2.0, n_plus=8)
    with pytest.raises(ConsistencyError,
                       match=r"^transported frame leaks into the lower block: 1\.000e-08$"):
        mb.assemble_furry_exact(turned, cfg)


def test_pair_projection_gate_rejects_an_indefinite_projection(sys100, pair100):
    # the tolerance is 1e-9 max(1, ||W||) = 2e-9, the norm read off W's eigenvalues
    cfg = NbodyConfig(n_particles=2, z_charge=2.0, n_plus=3)
    indefinite = dataclasses.replace(pair100)
    object.__setattr__(indefinite, "project", lambda frame: np.diag([2.0] + [1.0] * 7 + [-3e-9]))
    with pytest.raises(ConsistencyError, match=r"^pair projection not positive semidefinite: "
                                               r"lowest eigenvalue -3\.000e-09$"):
        mb.assemble_furry_exact(sys100(0.3), cfg, indefinite)
    object.__setattr__(indefinite, "project", lambda frame: np.diag([2.0] + [1.0] * 7 + [-1.5e-9]))
    mb.assemble_furry_exact(sys100(0.3), cfg, indefinite)


def test_pair_projection_gate_rejects_a_non_finite_projection(sys100, pair100):
    # a NaN in the kernel reaches every entry of the pair matrix, which the
    # eigensolver would refuse with an untyped error; the gate reads NaN
    cfg = NbodyConfig(n_particles=2, z_charge=2.0, n_plus=3)
    kernel = pair100.kernel.copy()
    kernel[3, 5] = np.nan
    broken = dataclasses.replace(pair100, kernel=kernel)
    with pytest.raises(ConsistencyError, match=r"^pair projection not positive semidefinite: "
                                               r"lowest eigenvalue nan$"):
        mb.assemble_furry_exact(sys100(0.3), cfg, broken)


@pytest.mark.parametrize("antisymmetrize", [False, True])
@pytest.mark.parametrize("n_particles,n_plus", [(2, 6), (3, 4)])
def test_operators_are_exactly_symmetric_as_formed(sys100, pair100, bundle100, n_particles,
                                                   n_plus, antisymmetrize):
    # every operator that is diagonalized or gated is exactly symmetric where
    # it is formed, so nothing downstream symmetrizes it
    s = sys100(0.3)
    fs = mb.assemble_furry_exact(s, NbodyConfig(n_particles, 2.0, n_plus, antisymmetrize), pair100)
    _, phi = positive_states(s, n_plus)
    named = [("project", pair100.project(phi)), ("h_diag_exact", h_diag_exact(s))]
    for field in ("w_proj", "h_furry_exact", "h_diag_exact"):
        named += [(f"{field}[{b}]", x) for b, x in enumerate(getattr(fs, field))]
    for k, (c, w, _) in enumerate(mb.site_partial_sums(bundle100, fs)):
        named += [(f"S_{k}[{b}]", mb.sector_blocks(sector, c, w)) for b, sector in enumerate(fs.sectors)]
    assert [name for name, x in named if not np.array_equal(x, x.T)] == []


def _held_arrays(obj, path="obj"):
    """(path, array) for every numpy array held by obj, through dataclass
    fields and tuples."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _held_arrays(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, tuple):
        for i, x in enumerate(obj):
            yield from _held_arrays(x, f"{path}[{i}]")


@pytest.fixture(scope="module")
def real_run64():
    grid = build_channel_grid(64)
    return build_decoupling_bundle(grid, 4), assemble_system(grid, 0.3), mb.build_pair_interaction(grid)


@pytest.mark.parametrize("antisymmetrize", [False, True])
@pytest.mark.parametrize("n_particles,n_plus", [(2, 6), (3, 4)])
def test_every_held_array_is_real(real_run64, n_particles, n_plus, antisymmetrize):
    # the numerical core is real: a bundle, a system and a FurrySystem hold
    # float64 arrays, apart from the sectors' integer index arrays, and the
    # entries of caller-supplied matrices refuse a complex input
    bundle, s, pair = real_run64
    fs = mb.assemble_furry_exact(s, NbodyConfig(n_particles, 2.0, n_plus, antisymmetrize), pair)
    held = [*_held_arrays(bundle, "bundle"), *_held_arrays(fs, "fs")]
    index = {f"fs.sectors[{b}].{name}" for b in range(len(fs.sectors))
             for name in ("rows", "occupation")}
    assert [p for p, x in held if x.dtype != (np.intp if p in index else np.float64)] == []
    assert {p for p, x in held if x.dtype == np.intp} == index
    assert any(p.startswith("fs.one_particle.") for p, _ in held)
    z = np.eye(3) + 1j * np.diag([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="complex"):
        make_series([np.eye(3), z])
    with pytest.raises(ValueError, match="complex"):
        hermitian_frame(z)


def test_two_particle_ground_above_positivity_floor(sys100, pair100):
    s = sys100(0.3)
    fs = mb.assemble_furry_exact(s, NbodyConfig(n_particles=2, z_charge=2.0, n_plus=6), pair100)
    ground = float(fs.levels(fs.h_furry_exact)[0])
    assert ground > 2.0 * math.sqrt(1.0 - 0.09)


def test_antisymmetric_spectrum_sub_multiset(sys100, pair100):
    s = sys100(0.3)
    full = mb.assemble_furry_exact(s, NbodyConfig(2, 2.0, 6), pair100)
    anti = mb.assemble_furry_exact(s, NbodyConfig(2, 2.0, 6, antisymmetrize=True), pair100)
    assert anti.dim == 15
    ef = full.levels(full.h_furry_exact)
    ea = anti.levels(anti.h_furry_exact)
    used = np.zeros(ef.size, dtype=bool)
    for x in ea:
        gaps = np.where(used, np.inf, np.abs(ef - x))
        i = int(np.argmin(gaps))
        assert gaps[i] < 1e-9
        used[i] = True


def test_two_particle_series_matches_exact(sys100, pair100, bundle100):
    # the compressed interaction series against the exactly conjugated
    # operator on the same frame: full-order agreement at the working
    # coupling validates every Cauchy block of the assembly
    s = sys100(0.3)
    fs = mb.assemble_furry_exact(s, NbodyConfig(2, 2.0, 6), pair100)
    dist = 0.0
    for exact, series in zip(fs.h_diag_exact, collect_series_N(bundle100, fs)):
        hk = series_eval(series, 0.3)
        a = 0.5 * (hk + hk.conj().T)
        dist = max(dist, resolvent_distance(exact, a, hermitian_frame(exact), hermitian_frame(a)))
    assert dist < 1e-7


def test_resolvent_distance_matches_lu_oracle_two_particle(sys100, pair100, bundle100):
    fs = mb.assemble_furry_exact(sys100(0.3), NbodyConfig(2, 2.0, 6), pair100)
    for exact, series in zip(fs.h_diag_exact, collect_series_N(bundle100, fs)):
        for k, (approx,) in enumerate(series_partial_sums(zip(series.coeffs), 0.3)):
            a = 0.5 * (approx + approx.T)
            ref = lu_resolvent_distance(exact, a)
            got = resolvent_distance(exact, a, hermitian_frame(exact), hermitian_frame(a))
            assert abs(got - ref) <= 1e-11 * ref + 1e-15, k


@pytest.mark.parametrize("n_particles,n_plus", [(1, 6), (2, 6), (3, 4)])
def test_streamed_partial_sums_match_the_collected_series(sys100, pair100, bundle100,
                                                          n_particles, n_plus):
    # the stream computes each order when it is asked for and adds it in
    # place; collecting the site operators first and summing them afresh
    # must not move a single bit.  Lifted, each partial sum is the sum of
    # the lifted coefficients up to roundoff
    fs = mb.assemble_furry_exact(sys100(0.3), NbodyConfig(n_particles, 2.0, n_plus),
                                 pair100 if n_particles > 1 else None)
    collected = collect_series_N(bundle100, fs)
    assert len(collected) == len(fs.sectors)
    assert all(s.order == bundle100.order for s in collected)
    sites = list(mb._site_series(bundle100, fs))
    zero = np.zeros((n_plus ** 2,) * 2)  # adds exact zeros where there is no pair term
    refs = series_partial_sums(((c, zero if w is None else w) for c, w in sites), 0.3)
    lifted = zip(*(series_partial_sums(zip(series.coeffs), 0.3) for series in collected))
    for k, ((c, w, _), (c_ref, w_ref), blocks) in enumerate(
            zip(mb.site_partial_sums(bundle100, fs), refs, lifted, strict=True)):
        assert np.array_equal(c, c_ref), k
        assert (w is None) if k == 0 or n_particles == 1 else np.array_equal(w, w_ref), k
        for b, ((ref,), sector) in enumerate(zip(blocks, fs.sectors)):
            got = mb.sector_blocks(sector, c, w)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), (b, k)


# ---------------------------------------------------------------------------
# series ground energies: the Weyl certificate
# ---------------------------------------------------------------------------

def _exact_lows(fs) -> list[float]:
    return [float(np.linalg.eigvalsh(b)[0]) for b in fs.h_diag_exact]


@pytest.mark.parametrize("antisymmetrize", [False, True])
@pytest.mark.parametrize("n_particles,n_plus", [(1, 6), (2, 6), (3, 4)])
@pytest.mark.parametrize("gamma", [0.05, 0.2, 0.35])
def test_series_ground_energies_match_the_full_route(sys100, pair100, bundle100, gamma,
                                                     n_particles, n_plus, antisymmetrize):
    # the certified route skips only blocks that cannot hold the minimum, and
    # every block it does diagonalize is the full route's lift of the same
    # partial sum
    cfg = NbodyConfig(n_particles, 2.0, n_plus, antisymmetrize)
    fs = mb.assemble_furry_exact(sys100(gamma), cfg, pair100)
    got = mb.series_ground_energies(bundle100, fs, _exact_lows(fs))
    assert got.shape == (bundle100.order + 1,)
    assert np.array_equal(got, full_series_ground_energies(bundle100, fs))


def _count_calls(monkeypatch) -> dict:
    """Count ``manybody.sector_blocks`` and ``np.linalg.eigvalsh`` calls from here on."""
    counts = {"lifts": 0, "eigvalsh": 0}
    lift, eigvalsh = mb.sector_blocks, np.linalg.eigvalsh

    def counted_lift(*args):
        counts["lifts"] += 1
        return lift(*args)

    def counted_eigvalsh(*args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(mb, "sector_blocks", counted_lift)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    return counts


def test_a_block_inside_the_margin_is_lifted_and_diagonalized(monkeypatch):
    # the exact block E is the order-0 sum itself, so ||S - E||_F = 0 after
    # the order-0 lift and only the margin separates low from best there;
    # at order 1 the bound is the term's growth and the margin
    (sector, _) = mb.site_sectors(3, 2)
    c0, c1 = np.diag([1.0, 2.0, 3.0]), np.diag([1e-3, 0.0, -2e-3])
    exact = mb.sector_blocks(sector, c0)
    low = float(np.linalg.eigvalsh(exact)[0])
    growth = 0.1 * 2 * np.linalg.norm(c1)
    # the margins at orders 0 and 1, read off a block that has seen order 0
    probe = mb._LazyBlock(sector, exact, low)
    probe.step(0, c0, None, 0.0, np.inf)
    margin0 = probe.margin(0)
    probe.size += growth
    margin1 = probe.margin(1)
    assert 0.0 < margin0 < margin1 < 1e-10

    def run(best0: float, best1: float) -> tuple[float, float, dict]:
        block = mb._LazyBlock(sector, exact, low)
        counts = _count_calls(monkeypatch)
        level0 = block.step(0, c0, None, 0.0, best0)
        level1 = block.step(1, c0 + 0.1 * c1, None, growth, best1)
        monkeypatch.undo()
        return level0, level1, counts

    # inside: low - bound lies above best, but by less than the margin
    level0, level1, counts = run(low - 0.5 * margin0, low - growth - 0.5 * margin1)
    assert counts == {"lifts": 2, "eigvalsh": 2}
    assert level0 == pytest.approx(low, abs=1e-14)
    ref = np.linalg.eigvalsh(exact + 0.1 * mb.sector_blocks(sector, c1))[0]
    assert level1 == pytest.approx(ref, abs=1e-14)
    # outside: certified above best by more than the margin, neither
    # diagonalized at order 0 nor lifted at order 1
    level0, level1, counts = run(low - 2 * margin0, low - growth - 2 * margin1)
    assert counts == {"lifts": 1, "eigvalsh": 0}
    assert level0 == level1 == np.inf


def test_a_skipped_block_resumes_bit_for_bit(monkeypatch, sys100, pair100, bundle100):
    # best = -inf certifies every block whose distance is known, best = inf
    # none: the widest block of three particles is lifted and diagonalized
    # at order 0, skipped at orders 1-3 with no lift, and resumes at order 4
    # with the level of the route that lifts every partial sum
    gamma = 0.2
    fs = mb.assemble_furry_exact(sys100(gamma), NbodyConfig(3, 2.0, 4), pair100)
    b = int(np.argmax([s.width for s in fs.sectors]))
    sector = fs.sectors[b]
    eager = [float(np.linalg.eigvalsh(mb.sector_blocks(sector, c, w))[0])
             for c, w, _ in mb.site_partial_sums(bundle100, fs)]
    low = _exact_lows(fs)[b]
    block = mb._LazyBlock(sector, fs.h_diag_exact[b], low)
    for k, (c, w, growth) in enumerate(mb.site_partial_sums(bundle100, fs)):
        best = low + 1.0 if k == 0 else -np.inf if k <= 3 else np.inf
        counts = _count_calls(monkeypatch)
        level = block.step(k, c, w, growth, best)
        monkeypatch.undo()
        if 1 <= k <= 3:
            assert level == np.inf and counts == {"lifts": 0, "eigvalsh": 0}, k
        else:
            assert level == eager[k] and counts == {"lifts": 1, "eigvalsh": 1}, k


def test_series_ground_energies_skip_most_blocks(monkeypatch, sys100, pair100, bundle100):
    # three sectors at N=3, n_plus=4 and nine orders: the full route lifts and
    # diagonalizes 27 blocks.  The certified route lifts every block at
    # orders 0 and 1 and diagonalizes every block at order 0; after that it
    # lifts and diagonalizes only the sector of the exact ground level
    gamma = 0.2
    fs = mb.assemble_furry_exact(sys100(gamma), NbodyConfig(3, 2.0, 4), pair100)
    assert len(fs.sectors) == 3
    lows = _exact_lows(fs)
    counts = _count_calls(monkeypatch)
    mb.series_ground_energies(bundle100, fs, lows)
    assert counts == {"lifts": 13, "eigvalsh": 11}


def test_pair_series_matches_the_full_sum(sys100, pair100, bundle100):
    # only the terms with mu < nu are contracted; the reference sums every
    # ordered pair of densities
    fs = mb.assemble_furry_exact(sys100(0.2), NbodyConfig(2, 2.0, 6), pair100)
    upper = fs.psi[:bundle100.h_upper.dim]
    got = list(mb._pair_series(bundle100, pair100, upper, 2.0))
    assert len(got) == bundle100.order  # orders 1..K, and no order-0 coefficient
    dressed = [fc.conj().T @ upper for fc in bundle100.f_upper]
    ref = [sum(_pair_product(pair100, dressed, mu, n - 1 - mu) for mu in range(n)) / 2.0
           for n in range(1, bundle100.order + 1)]
    scale = max(np.max(np.abs(r)) for r in ref)
    assert max(np.max(np.abs(g - r)) for g, r in zip(got, ref)) <= 1e-14 * scale


@pytest.mark.parametrize("n_plus", [6, 20])
def test_pair_series_matches_every_density_column(sys100, pair100, bundle100, n_plus):
    # densities on the columns i <= j, one kernel image per order and one
    # gather, against the route that stores every column (i, j)
    fs = mb.assemble_furry_exact(sys100(0.2), NbodyConfig(2, 2.0, n_plus), pair100)
    upper = fs.psi[:bundle100.h_upper.dim]
    got = list(mb._pair_series(bundle100, pair100, upper, 2.0))
    ref = full_pair_series(bundle100, pair100, upper, 2.0)
    scale = max(np.max(np.abs(r)) for r in ref)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) <= 1e-14 * scale


def test_series_order_accuracy_two_particle(sys100, pair100, bundle100):
    # truncation at k leaves O(gamma^(k+1)), so doubling gamma must scale the
    # k=2 defect by at least ~2^3.  No upper bound: the retained-state frame
    # itself tightens with gamma, so the defect may shrink faster than the
    # nominal order.  An order-bookkeeping slip would instead leave a
    # gamma^2-sized defect and a ratio near 4.
    errs = {}
    for gamma in (0.1, 0.2):
        fs = mb.assemble_furry_exact(sys100(gamma), NbodyConfig(2, 2.0, 5), pair100)
        errs[gamma] = 0.0
        for exact, series in zip(fs.h_diag_exact, collect_series_N(bundle100, fs)):
            hk = series_eval(series_truncate(series, 2), gamma)
            errs[gamma] = max(errs[gamma], np.linalg.norm(exact - 0.5 * (hk + hk.conj().T), 2))
    assert 1e-12 < errs[0.1] < 1e-6
    ratio = errs[0.2] / errs[0.1]
    assert ratio > 2.0 ** 3 / 2.0


# ---------------------------------------------------------------------------
# inequality diagnostics
# ---------------------------------------------------------------------------

def test_form_bound_two_particles(sys100, pair100):
    fs = mb.assemble_furry_exact(sys100(0.3), NbodyConfig(2, 2.0, 6), pair100)
    value = mb.check_form_bound(fs)
    limit = mb.form_bound_limit(fs)
    assert 0.0 < value < limit + 1e-4


def test_form_bound_single_particle_zero(sys100):
    fs = mb.assemble_furry_exact(sys100(0.3), NbodyConfig(1, 2.0, 6))
    assert mb.check_form_bound(fs) == 0.0


def test_kinetic_weight_bound(sys100, pair100):
    fs = mb.assemble_furry_exact(sys100(0.3), NbodyConfig(2, 2.0, 6), pair100)
    value = mb.check_kinetic_weight_bound(fs)
    assert value <= mb.kinetic_weight_limit(fs) + 1e-4
    assert value >= 1.0 - 1e-10


def _inv_sqrt_oracle(mat):
    ew, uw = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    assert ew[0] > 0
    return (uw * ew ** -0.5) @ uw.conj().T


def _top_eig_conjugated(inv_half, mat):
    m = inv_half @ mat @ inv_half
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1])


@pytest.mark.parametrize("n_particles,n_plus", [(2, 6), (3, 5)])
@pytest.mark.parametrize("antisymmetrize", [False, True])
def test_bounds_match_inverse_square_root_formulas(sys100, pair100, n_particles, n_plus,
                                                   antisymmetrize):
    # references from the dense Kronecker oracle on the product space (or
    # its alternating subspace): no sector splitting on that side
    cfg = NbodyConfig(n_particles, 3.0, n_plus, antisymmetrize=antisymmetrize)
    fs = mb.assemble_furry_exact(sys100(0.3), cfg, pair100)
    dense = dense_furry(fs)
    for sector, kin in zip(fs.sectors, fs.kinetic):
        # the level sums are the whole compressed kinetic operator
        block = sector.iso.T @ dense["kinetic"] @ sector.iso
        assert np.max(np.abs(block - np.diag(kin))) <= 1e-14 * np.max(np.abs(kin))
    if antisymmetrize:
        a_iso = antisymmetrizer_isometry(n_plus, n_particles)
        dense = {k: a_iso.T @ v @ a_iso for k, v in dense.items()}
    scale = fs.one_particle.gamma / cfg.z_charge
    form_ref = _top_eig_conjugated(_inv_sqrt_oracle(dense["kinetic"]), scale * dense["w_proj"])
    kin_ref = _top_eig_conjugated(_inv_sqrt_oracle(dense["h_furry"]), dense["abs_d0"])
    assert abs(mb.check_form_bound(fs) - form_ref) <= 1e-12 * abs(form_ref)
    assert abs(mb.check_kinetic_weight_bound(fs) - kin_ref) <= 1e-12 * abs(kin_ref)


def test_bounds_reject_indefinite_weights(sys100, pair100):
    fs = mb.assemble_furry_exact(sys100(0.3), NbodyConfig(2, 2.0, 6), pair100)
    negated = tuple(-h for h in fs.h_furry_exact)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(negated[0])
    with pytest.raises(ConsistencyError,
                       match=r"^weight matrix not positive definite: smallest Cholesky pivot nan$"):
        mb.check_kinetic_weight_bound(dataclasses.replace(fs, h_furry_exact=negated))
    with pytest.raises(ConsistencyError, match=r"^weight matrix not positive definite: "
                                               r"eigenvalue -\d\.\d{3}e[+-]\d\d$"):
        mb.check_form_bound(dataclasses.replace(fs, kinetic=tuple(-t for t in fs.kinetic)))


def test_kinetic_weight_free_case(sys100):
    # at zero coupling the retained states are free eigenstates, so the
    # weighted kinetic operator is exactly the identity on them
    fs = mb.assemble_furry_exact(sys100(0.0), NbodyConfig(1, 2.0, 10))
    assert abs(mb.check_kinetic_weight_bound(fs) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# convergence study plumbing
# ---------------------------------------------------------------------------

def test_fit_geometric_ratio_exact_sequence():
    values = 3.0 * 0.25 ** np.arange(8)
    assert abs(mb.fit_geometric_ratio(values) - 0.25) < 1e-10


def test_fit_geometric_ratio_ignores_roundoff_plateau():
    # decay to 3.4e-14, then the flat roundoff floor of a resolvent distance
    values = 0.04 * 0.08 ** np.arange(12)
    clean = mb.fit_geometric_ratio(values)
    assert abs(clean - 0.08) <= 1e-12
    plateau = np.array([1.1539, 1.1542, 1.1540, 1.1541]) * 1e-14
    tail = np.concatenate((values, plateau))
    with_plateau = mb.fit_geometric_ratio(tail)
    assert abs(with_plateau - clean) <= 1e-10 * clean
    shifted = tail + np.r_[np.zeros(12), 1e-16, -1e-16, 1e-16, 0.0]
    assert abs(mb.fit_geometric_ratio(shifted) - with_plateau) <= 1e-10 * with_plateau


def test_fit_geometric_ratio_short_sequence():
    assert mb.fit_geometric_ratio(np.array([1.0, 1e-16, 1e-17])) == 0.0


def test_converge_rows_one_particle(sys100, bundle100):
    rows = [r for g in (0.1, 0.2) for r in mb.convergence_rows(bundle100, sys100(g))]
    assert len(rows) == 2 * 9
    for row in rows:
        assert set(row) == {"gamma", "k", "resolvent_distance",
                            "weighted_remainder_norm", "max_eigval_error",
                            "fitted_ratio"}
        assert row["resolvent_distance"] >= 0.0
    by_gamma = {g: [r for r in rows if r["gamma"] == g] for g in (0.1, 0.2)}
    for g, rs in by_gamma.items():
        dists = [r["resolvent_distance"] for r in sorted(rs, key=lambda r: r["k"])]
        assert dists[8] < dists[1]
        assert dists[8] < 1e-6
        assert 0.0 < rs[0]["fitted_ratio"] < 1.0


def test_converge_zero_coupling_is_exact(sys100, bundle100):
    rows = mb.convergence_rows(bundle100, sys100(0.0))
    for row in rows:
        assert row["resolvent_distance"] < 5e-12
        assert row["weighted_remainder_norm"] < 5e-12


@pytest.mark.parametrize("n_particles", [1, 2])
def test_converge_takes_no_inverse_and_no_svd(monkeypatch, sys100, pair100, bundle100,
                                              n_particles):
    import sys

    def system(gamma):
        s = sys100(gamma)
        if n_particles > 1:
            return mb.assemble_furry_exact(s, NbodyConfig(n_particles, 2.0, 4), pair100)
        return s

    def refuse(*args, **kwargs):
        raise AssertionError("the convergence study called inv or svd")

    impl = sys.modules.get("numpy.linalg._linalg") or sys.modules.get("numpy.linalg.linalg")
    for mod in (np.linalg, impl):
        monkeypatch.setattr(mod, "inv", refuse)
        monkeypatch.setattr(mod, "svd", refuse)
    rows = [r for g in (0.1, 0.2) for r in mb.convergence_rows(bundle100, system(g))]
    assert len(rows) == 2 * 9


@pytest.mark.parametrize("n_particles,n_plus", [(2, 6), (3, 4)])
def test_weighted_remainder_matches_dense_oracle(sys100, pair100, bundle100, n_particles,
                                                 n_plus):
    # ||W (E - A_k) W|| on the full product space, W the inverse square root
    # of the |D_0| sum on the transported frame, E the block-diagonalized
    # operator and A_k the truncated series, all from the Kronecker oracle.
    # E - A_k is formed from entries of size ~3, so its roundoff is ~1e-15
    # absolute: 1e-9 relative holds where the remainder exceeds 1e-6
    gamma = 0.3
    fs = mb.assemble_furry_exact(sys100(gamma), NbodyConfig(n_particles, 2.0, n_plus), pair100)
    rows = mb.convergence_rows(bundle100, fs)
    dense = dense_furry(fs, bundle100)
    w = _inv_sqrt_oracle(dense["abs_d0_psi"])
    approx = np.zeros_like(dense["h_diag"])
    checked = 0
    for k, c in enumerate(dense["series"]):
        approx = approx + gamma ** k * c
        ref = np.linalg.norm(w @ (dense["h_diag"] - approx) @ w, 2)
        if ref > 1e-6:
            assert abs(rows[k]["weighted_remainder_norm"] - ref) <= 1e-9 * ref
            checked += 1
    assert checked >= 4


def test_restriction_consistency_gate(monkeypatch):
    cfg = NbodyConfig(n_particles=2, z_charge=2.0, n_plus=6)
    mb.site_sectors(6, 2)  # cached; its N! x N! SVDs build the basis, not a norm
    forbid_svd(monkeypatch)
    gate = mb.check_restriction_consistency(0.3, cfg)
    assert gate < 1e-8


RESTRICTION = (r"restriction/conjugation order disagreement 1\.000e-07 > 1e-8 "
               r"on the small cross-check instance")


def test_restriction_consistency_gate_trips(monkeypatch, tmp_path, capsys):
    # 1e-7 times the identity added to the full-space conjugated compression
    # moves every sector block of it by exactly 1e-7
    compression = mb._conjugated_compression
    monkeypatch.setattr(mb, "_conjugated_compression",
                        lambda fs: compression(fs) + 1e-7 * np.eye(fs.psi.shape[1] ** 2))
    cfg = NbodyConfig(n_particles=2, z_charge=2.0, n_plus=4)
    with pytest.raises(ConsistencyError, match=f"^{RESTRICTION}$"):
        mb.check_restriction_consistency(0.1, cfg)
    doc = {"grid": {"n": 64}, "gamma_list": [0.1], "series_order": 2,
           "nbody": {"n_particles": 2, "n_plus": 4}}
    (tmp_path / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["converge", "--config", str(tmp_path / "cfg.json"),
                     "--output", str(tmp_path / "o")]) == 3
    assert re.search(f"^numerical failure: {RESTRICTION}$", capsys.readouterr().err, re.M)


@pytest.mark.parametrize("n_plus", [4, 6])
@pytest.mark.parametrize("gamma", [0.1, 0.3])
def test_conjugated_compression_matches_dense_oracle(gamma, n_plus):
    # H_2 applied to Y slab by slab against the stored Kronecker conjugation
    fs = mb._restriction_instance(gamma, NbodyConfig(n_particles=2, z_charge=2.0, n_plus=n_plus))
    ref = dense_conjugated_compression(fs)
    got = mb._conjugated_compression(fs)
    assert got.shape == (n_plus ** 2, n_plus ** 2)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_furry_assembly_holds_one_pair_matrix(sys100, pair100):
    # one pair matrix is m^4 doubles, 6.5 MB at n_plus=30.  The assembly holds
    # one at a time (two for a moment at the PSD gate, w2 and its
    # symmetrization, before any sector block exists).  Next to it, the
    # sector data of N=2 (widths m(m +- 1)/2) add about 2.75 pair matrices
    # while the last block is built: h_furry and w_proj (sum width^2 ~ m^4/2
    # each), h_diag's first block (~m^4/4), the lift workspace of
    # sector_blocks (two m^2 x width arrays, ~m^4/2 each) and the result and
    # one gathered slice of the compression (~m^4/4 each).  That is 3.75 in
    # all; a second pair matrix alive at that point breaks 4.  The
    # isometries are cached by site_sectors and built before the trace.
    m = 30
    cfg = NbodyConfig(n_particles=2, z_charge=2.0, n_plus=m)
    mb.furry_sectors(cfg)
    fs, peak = traced_peak(mb.assemble_furry_exact, sys100(0.3), cfg, pair100)
    assert fs.dim == m * m
    assert peak < 4 * m ** 4 * 8


def test_compress_gathers_one_position_at_a_time():
    # the (3) sector at m=10: width 220, N! = 6 nonzeros per column.  The
    # result and one gathered width x width slice are alive at once; the
    # whole gather y[rows] would be six such slices
    (sector,) = [s for s in mb.site_sectors(10, 3) if s.shape == (3,)]
    y = np.ones((1000, sector.width))
    got, peak = traced_peak(sector.compress, y)
    assert np.max(np.abs(got - sector.iso.T @ y)) <= 1e-14 * sector.width
    assert peak < 3 * sector.width * sector.width * 8


def test_restriction_check_stores_no_product_space_matrix():
    # one product-space matrix of the 24-node instance is 2304^2 doubles, 40.5 MiB
    cfg = NbodyConfig(n_particles=2, z_charge=2.0, n_plus=6)
    gate, peak = traced_peak(mb.check_restriction_consistency, 0.3, cfg)
    assert gate < 1e-8
    assert peak < 2304 ** 2 * 8

