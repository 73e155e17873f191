"""One-particle operator stack: special functions, matrices, oracles, bounds."""

import csv
import dataclasses
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (
    abs_free_dirac_power,
    dense_coulomb,
    dense_exact_u_gamma,
    evr_lowest_vector,
    forbid_svd,
    fw_matrix,
)
from diracdiag import cli, oneparticle
from diracdiag.errors import ConsistencyError, GapError, gate
from diracdiag.grids import angular_momenta, build_channel_grid
from diracdiag.oneparticle import (
    GAMMA_MAX,
    OneParticleSystem,
    _norm2,
    assemble_system,
    build_coulomb,
    build_free_dirac,
    c_gamma,
    check_dgamma_bound,
    check_kato,
    coulomb_channel_matrix,
    d_gamma,
    decoupling_residuals,
    dense_potential,
    exact_u_gamma,
    foldy_wouthuysen,
    free_energies,
    free_positive_projector,
    fw_conjugate,
    fw_rows,
    gap_floor,
    legendre_q,
    lowest_eigenvector,
    positive_levels,
    positive_projector,
    positive_states,
    rayleigh_levels,
    rayleigh_quotients,
    sommerfeld_energy,
    subtraction_constant,
)


def kato_block(grid, c: int) -> np.ndarray:
    """(pi/2)|D_0| + V on spinor component c, one of the two Kato blocks."""
    return (math.pi / 2.0) * np.diag(free_energies(grid)) + build_coulomb(grid)[c]


def weighted_unitary_norm(sys) -> float:
    """||  |D_0|^(1/2) U_gamma |D_0|^(-1/2) ||, the weighted boundedness number."""
    return _norm2(abs_free_dirac_power(sys.grid, 0.5) @ sys.u_gamma
                  @ abs_free_dirac_power(sys.grid, -0.5))


# ---------------------------------------------------------------------------
# Legendre functions and the kernel subtraction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("l,y", [(0, 1.3), (1, 2.5), (2, 1.05), (3, 3.7), (5, 1.8)])
def test_legendre_q_integral_representation(l, y):
    # Q_l(y) = integral of (y + sqrt(y^2-1) cosh t)^-(l+1) over t > 0
    ref = quad(lambda t: (y + math.sqrt(y * y - 1.0) * math.cosh(t)) ** -(l + 1),
               0.0, 60.0, limit=300)[0]
    assert abs(float(legendre_q(l, y)) - ref) < 1e-12


def test_legendre_q_closed_forms():
    y = np.array([1.01, 1.7, 4.0, 30.0])
    q0 = 0.5 * np.log((y + 1.0) / (y - 1.0))
    assert np.max(np.abs(legendre_q(0, y) - q0)) < 1e-13
    assert np.max(np.abs(legendre_q(1, y) - (y * q0 - 1.0))) < 1e-12


def test_legendre_q_clamps_at_singularity():
    assert np.isfinite(legendre_q(0, 1.0))
    assert np.isfinite(legendre_q(3, 0.999))


def test_legendre_q_rejects_negative_degree():
    with pytest.raises(ValueError):
        legendre_q(-1, 2.0)


def test_subtraction_constants():
    assert subtraction_constant(0) == math.pi ** 2 / 2.0
    assert subtraction_constant(1) == 2.0
    assert abs(subtraction_constant(2) - math.pi ** 2 / 8.0) < 1e-15
    assert abs(subtraction_constant(3) - 8.0 / 9.0) < 1e-15
    with pytest.raises(ValueError):
        subtraction_constant(-1)


@pytest.mark.parametrize("l", range(8))
def test_subtraction_constant_against_quadrature(l):
    # the closed form (pi/2) [Gamma((l+1)/2) / Gamma(l/2 + 1)]^2 against
    # 2 * integral of Q_l(cosh t) over t > 0 by adaptive quadrature
    def integrand(t):
        return legendre_q(l, np.cosh(t))

    ref = 2.0 * (quad(integrand, 0.0, 2.0, limit=200)[0] + quad(integrand, 2.0, 80.0, limit=200)[0])
    gamma_form = 0.5 * math.pi * (math.gamma((l + 1) / 2) / math.gamma(l / 2 + 1)) ** 2
    assert abs(subtraction_constant(l) - gamma_form) <= 1e-15 * gamma_form
    assert abs(subtraction_constant(l) - ref) <= 1e-10 * ref


def test_coulomb_channel_hydrogen_ground(grid100):
    # nonrelativistic limit: p^2/2 - 1/|x| ground level is -1/(2(l+1)^2)
    for l in (0, 1):
        h = np.diag(grid100.p ** 2 / 2.0) + coulomb_channel_matrix(grid100.p, grid100.w, l)
        ground = float(np.linalg.eigvalsh(h)[0])
        ref = -0.5 / (l + 1) ** 2
        assert abs(ground - ref) / abs(ref) < 1e-4


def test_coulomb_channel_symmetric(grid100):
    m = coulomb_channel_matrix(grid100.p, grid100.w, 0)
    assert np.linalg.norm(m - m.T, 2) < 1e-14


def test_spinor_block_coulomb_matches_the_dense_assembly():
    # V held as its two spinor blocks gives D_gamma and the Kato margin
    # bit for bit as the dense interleaved V did
    grid = build_channel_grid(32)
    v = build_coulomb(grid)
    dense = dense_coulomb(grid)
    assert v.shape == (2, 32, 32)
    assert np.array_equal(dense_potential(v), dense)
    for gamma in (0.0, 0.3):
        ref = build_free_dirac(grid)
        ref += gamma * dense
        assert np.array_equal(assemble_system(grid, gamma).dgamma, ref)
    e = np.diag((math.pi / 2.0) * free_energies(grid))
    lows = []
    for c in (0, 1):
        m = e + dense[c::2, c::2]
        y = lowest_eigenvector(m.copy())
        lows.append(float(rayleigh_quotients(m, y[:, None])[0]))
    assert check_kato(grid) == float(np.min(lows))


def test_assemble_system_memory_model():
    # with V built beforehand, a system keeps three dim^2 arrays (D_gamma,
    # its eigenvectors, U_gamma), and P_gamma, its FW-frame conjugate, M and
    # U are never alive together; a system that also kept P_gamma and built
    # U_gamma from a copy of M held 4.02 and peaked at 7.52, and one whose
    # FW conjugations held their input through both passes peaked at 6.13
    grid = build_channel_grid(100)
    build_coulomb(grid)
    unit = grid.dim ** 2 * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        s = assemble_system(grid, 0.3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.u_gamma.shape == (grid.dim, grid.dim)
    assert 3.0 <= held / unit < 3.1
    assert peak / unit <= 5.4


def test_system_keeps_only_per_coupling_arrays():
    # what depends on the grid alone (V, the FW rotation, D_0) is read from
    # the grid, not held per system
    assert [f.name for f in dataclasses.fields(OneParticleSystem)] == [
        "grid", "gamma", "dgamma", "u_gamma", "evals", "evecs"]


def test_coulomb_matrix_is_built_once_per_grid():
    # one read-only array per grid object, also across assemblies, a fresh
    # one for a new grid, and none left once the grid is gone
    grid = build_channel_grid(16)
    a = build_coulomb(grid)
    assemble_system(grid, 0.1)
    assert build_coulomb(grid) is a and not a.flags.writeable
    assert build_coulomb(build_channel_grid(16)) is not a
    v = weakref.ref(a)
    del grid, a
    assert v() is None


# ---------------------------------------------------------------------------
# free operator closed forms
# ---------------------------------------------------------------------------

def test_free_dirac_squares_to_energy(grid100):
    d0 = build_free_dirac(grid100)
    e2 = np.repeat(1.0 + grid100.p ** 2, 2)
    assert np.linalg.norm(d0 @ d0 - np.diag(e2), 2) < 1e-12


def test_abs_power_consistency(grid100):
    half = abs_free_dirac_power(grid100, 0.5)
    neg_half = abs_free_dirac_power(grid100, -0.5)
    one = abs_free_dirac_power(grid100, 1.0)
    assert np.linalg.norm(half @ half - one, 2) < 1e-9
    n = np.linalg.norm(half @ neg_half - np.eye(grid100.dim), 2)
    assert n < 1e-12


def test_free_projector_properties(grid100):
    pr = free_positive_projector(grid100)
    d0 = build_free_dirac(grid100)
    absd = abs_free_dirac_power(grid100, 1.0)
    assert np.linalg.norm(pr @ pr - pr, 2) < 1e-13
    assert np.linalg.norm(pr - pr.T, 2) < 1e-14
    # on the positive subspace D_0 acts as |D_0|
    assert np.linalg.norm(d0 @ pr - absd @ pr, 2) < 1e-11


def test_foldy_wouthuysen_diagonalizes(grid100):
    blocks = foldy_wouthuysen(grid100)
    assert blocks.shape == (100, 2, 2)
    q = fw_matrix(blocks)
    d0 = build_free_dirac(grid100)
    e = free_energies(grid100)
    target = np.diag(np.concatenate([e, -e]))
    assert np.linalg.norm(q @ q.T - np.eye(grid100.dim), 2) < 1e-13
    assert np.linalg.norm(q @ d0 @ q.T - target, 2) < 1e-12
    # positive free states land on the upper components
    pr = free_positive_projector(grid100)
    rotated = q @ pr @ q.T
    assert np.linalg.norm(rotated[100:, :], 2) < 1e-12


# ---------------------------------------------------------------------------
# assembled systems
# ---------------------------------------------------------------------------

def test_assemble_rejects_coupling_range(grid100):
    with pytest.raises(ValueError):
        assemble_system(grid100, -0.1)
    with pytest.raises(ValueError):
        assemble_system(grid100, GAMMA_MAX)


def test_assemble_gap_floor_raises(grid100, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("diracdiag.oneparticle.GAP_FLOOR", 2.0)
    template = r"no spectral gap: eigenvalue \d\.\d{3}e[+-]\d\d within 2\.0e\+00 of zero"
    with pytest.raises(GapError, match=f"^{template}$"):
        assemble_system(grid100, 0.1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"n": 16}, "gamma_list": [0.1]}), encoding="utf-8")
    assert cli.main(["one-particle", "--config", str(cfg), "--output", str(tmp_path)]) == 3
    assert re.search(template, capsys.readouterr().err)


def test_ground_state_against_sommerfeld(sys100):
    for gamma in (0.1, 0.3, 0.3775):
        ref = sommerfeld_energy(gamma, 1, -1)
        ground = positive_levels(sys100(gamma), 1)[0]
        assert abs(ground - ref) / ref < 1e-5


def test_positive_states_orthonormal(sys100):
    vals, vecs = positive_states(sys100(0.3), 8)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.linalg.norm(vecs.T @ vecs - np.eye(8), 2) < 1e-12
    with pytest.raises(ValueError):
        positive_states(sys100(0.3), 10 ** 6)


def test_positive_state_energies_are_rayleigh_quotients(sys200):
    # the N-body kinetic diagonal: at n=200 the raw eigenvalues of these
    # states are up to 2.6e-13 away from their quotients
    s = sys200(0.3)
    vals, vecs = positive_states(s, 20)
    ref = np.sum(vecs * (s.dgamma @ vecs), axis=0) / np.sum(vecs * vecs, axis=0)
    assert np.max(np.abs(vals - ref)) <= 1e-14


def test_unitarity_and_intertwining(sys100):
    for gamma in (0.1, 0.3):
        uni, inter = decoupling_residuals(sys100(gamma))
        assert uni < 1e-10
        assert inter < 1e-10


FAR_APART = "projectors too far apart: ||p0 - pg|| = 1.000000 >= 1"


def test_exact_u_gamma_rejects_far_projectors():
    # orthogonal rank-1 projectors: both blocks of S are exactly 0
    pg = np.diag([0.0, 1.0])
    with pytest.raises(ConsistencyError, match=f"^{re.escape(FAR_APART)}$"):
        exact_u_gamma(pg)


def test_exact_u_gamma_near_the_distance_limit():
    # rank-1 projectors at angle theta are sin(theta) ~ 0.93 apart
    theta = 1.2
    v = np.array([math.cos(theta), math.sin(theta)])
    p0 = np.diag([1.0, 0.0])
    pg = np.outer(v, v)
    assert abs(np.linalg.norm(p0 - pg, 2) - math.sin(theta)) < 1e-15
    u = exact_u_gamma(pg.copy())
    assert np.linalg.norm(u @ u.T - np.eye(2), 2) < 1e-14
    assert np.linalg.norm(u @ pg - p0 @ u, 2) < 1e-14


def test_exact_u_gamma_rejects_rank_mismatch():
    # projectors of different rank are at distance exactly 1
    pg = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(ConsistencyError, match=f"^{re.escape(FAR_APART)}$"):
        exact_u_gamma(pg)


def test_exact_u_gamma_takes_half_size_eigensolves(monkeypatch, sys100):
    s = sys100(0.3)
    blocks = foldy_wouthuysen(s.grid)
    sizes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    u = exact_u_gamma(fw_conjugate(blocks, positive_projector(s.evals, s.evecs)))
    assert sizes == [100, 100]
    assert np.max(np.abs(fw_conjugate(blocks, u, back=True) - s.u_gamma)) == 0.0


def test_exact_u_gamma_matches_dense_formula(sys100):
    # the half-size Kato-Nagy transform in the FW frame against the full-size
    # formula in the original frame
    for gamma in (0.1, 0.3):
        s = sys100(gamma)
        pg = positive_projector(s.evals, s.evecs)
        ref = dense_exact_u_gamma(free_positive_projector(s.grid), pg)
        assert np.max(np.abs(s.u_gamma - ref)) <= 1e-13


def test_fw_rotation_is_accurate_at_small_momentum():
    # q D_0 q^T = diag(E, -E) and q P_0 q^T = diag(1, 0) per node, to roundoff
    grid = build_channel_grid(500)
    q = fw_matrix(foldy_wouthuysen(grid))
    e = np.tile(free_energies(grid), 2)
    dfw = q @ build_free_dirac(grid) @ q.T
    off = dfw - np.diag(np.diag(dfw))
    assert np.max(np.abs(off) / e[:, None]) <= 1e-15
    assert np.max(np.abs(np.diag(dfw) - e * np.repeat([1.0, -1.0], grid.n))) <= 1e-15 * e.max()
    p0 = q @ free_positive_projector(grid) @ q.T
    assert np.max(np.abs(p0 - np.diag(np.repeat([1.0, 0.0], grid.n)))) <= 1e-15


def test_fw_frame_rotation_matches_dense_products():
    grid = build_channel_grid(32)
    blocks = foldy_wouthuysen(grid)
    q = fw_matrix(blocks)
    x = np.random.default_rng(3).standard_normal((64, 5))
    assert np.max(np.abs(fw_rows(blocks, x) - q @ x)) <= 1e-15
    assert np.max(np.abs(fw_rows(blocks, fw_rows(blocks, x), back=True) - x)) <= 1e-15
    y = np.random.default_rng(4).standard_normal((64, 64))
    assert np.max(np.abs(fw_conjugate(blocks, y) - q @ y @ q.T)) <= 1e-14


def test_fw_rows_are_the_two_product_sums_bitwise():
    # each half of R x is one product plus another, rounded as the plain
    # expressions round them, for a matrix and a vector x and both directions
    grid = build_channel_grid(16)
    blocks = foldy_wouthuysen(grid)
    a, b = blocks[:, 0, 0, None], blocks[:, 0, 1, None]
    c, d = blocks[:, 1, 0, None], blocks[:, 1, 1, None]
    rng = np.random.default_rng(5)
    real = rng.standard_normal((32, 7))
    for x in (real, real[:, 0]):
        x2 = x.reshape(32, -1)
        up, lo, top, bot = x2[0::2], x2[1::2], x2[:16], x2[16:]
        fwd = np.concatenate((a * up + b * lo, c * up + d * lo)).reshape(x.shape)
        back = np.stack((a * top + c * bot, b * top + d * bot), axis=1).reshape(x.shape)
        assert np.array_equal(fw_rows(blocks, x), fwd)
        assert np.array_equal(fw_rows(blocks, x, back=True), back)


def test_norm2_matches_svd_norm():
    rng = np.random.default_rng(7)
    real = rng.standard_normal((40, 40))
    for x in (real, real + real.T):
        ref = np.linalg.norm(x, 2)
        assert abs(_norm2(x) - ref) <= 1e-13 * ref
    assert _norm2(np.zeros((5, 5))) == 0.0


def test_norm2_keeps_nan(monkeypatch):
    # a NaN entry must not read as a zero norm, nor escape as an untyped
    # LinAlgError, so that every gate on the norm raises ConsistencyError
    for x in (np.diag([1.0, np.nan]), np.full((2, 2), np.nan)):
        value = _norm2(x)
        assert math.isnan(value)
        with pytest.raises(ConsistencyError):
            gate(value, 1e-10, "residual {value:.3e}")
    # an eigenvalue at or below zero gives +0.0, so finite outputs keep their bytes
    for low in (-0.0, -1e-300):
        monkeypatch.setattr(oneparticle.np.linalg, "eigvalsh", lambda a, low=low: np.array([low]))
        assert math.copysign(1.0, _norm2(np.eye(2))) == 1.0 and _norm2(np.eye(2)) == 0.0


def test_one_particle_path_takes_no_svd(monkeypatch, tmp_path):
    forbid_svd(monkeypatch)
    s = assemble_system(build_channel_grid(64), 0.3)
    uni, inter = decoupling_residuals(s)
    assert uni < 1e-10 and inter < 1e-10
    assert math.isfinite(weighted_unitary_norm(s))
    # validate, Kato floor included; 64 nodes fail its hydrogen check
    # (exit 1) after every check ran
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"n": 64}, "gamma_list": [0.1, 0.2]}), encoding="utf-8")
    assert cli.main(["validate", "--config", str(cfg), "--output", str(tmp_path)]) == 1


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------

def test_sommerfeld_ground_closed_form():
    # kappa = -1, n_pr = 1 reduces to sqrt(1 - gamma^2)
    for gamma in (0.1, 0.3, 0.3775, 0.5):
        assert abs(sommerfeld_energy(gamma, 1, -1)
                   - math.sqrt(1.0 - gamma ** 2)) < 1e-15


def test_sommerfeld_nonrelativistic_limit():
    # E - 1 -> -gamma^2 / (2 n^2) with an O(gamma^4) defect
    g = 1e-3
    for n_pr in (1, 2, 3):
        e = sommerfeld_energy(g, n_pr, -1)
        assert abs((e - 1.0) + g ** 2 / (2.0 * n_pr ** 2)) < g ** 4


def test_sommerfeld_ordering():
    levels = [sommerfeld_energy(0.3, n, -1) for n in range(1, 6)]
    assert all(a < b for a, b in zip(levels, levels[1:]))
    assert all(0.0 < e < 1.0 for e in levels)


def test_sommerfeld_rejects_bad_input():
    with pytest.raises(ValueError):
        sommerfeld_energy(0.3, 1, 0)
    with pytest.raises(ValueError):
        sommerfeld_energy(0.3, 0, -1)
    with pytest.raises(ValueError):
        sommerfeld_energy(1.5, 1, -1)


@pytest.mark.parametrize("kappa", [1, -2, 2])
def test_sommerfeld_references_follow_the_channel(tmp_path, kappa):
    # channel kappa's k-th bound level has principal number k + l_upper + 1;
    # at 100 nodes and gamma 0.3 its ground level is then within 8.6e-7 of
    # the reference and every one of the 12 within 8.6e-5, where numbering
    # the levels k + 1 puts the ground level 3-4% off
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"n": 100, "kappa": kappa}, "gamma_list": [0.3]}),
                   encoding="utf-8")
    assert cli.main(["one-particle", "--config", str(cfg), "--output", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "one_particle.json").read_text())["results"]["per_gamma"][0]
    assert record["sommerfeld_rel_error"] < 1e-6
    with open(tmp_path / "one_particle_gamma_0p3000.csv", newline="", encoding="utf-8") as fh:
        errors = [float(r["rel_error"]) for r in csv.DictReader(fh) if r["rel_error"]]
    assert len(errors) == 12 and max(errors) < 1e-4
    lowest = angular_momenta(kappa)[0] + 1
    assert sommerfeld_energy(0.3, lowest, kappa) == pytest.approx(record["ground_energy"], rel=1e-6)
    with pytest.raises(ValueError, match=f"^principal number {lowest - 1} below the lowest"):
        sommerfeld_energy(0.3, lowest - 1, kappa)


def test_constants_at_zero_coupling():
    assert c_gamma(0.0) == 1.0
    assert abs(d_gamma(0.0) - 1.0) < 1e-15


def test_constants_reference_values():
    # frozen from the closed forms; the inverse at 0.3 matches the known
    # rounded value 3.0087
    assert abs(d_gamma(0.3) - 0.3323704923965469) < 1e-12
    assert abs(1.0 / d_gamma(0.3) - 3.008690671634331) < 1e-12
    assert abs(1.0 / d_gamma(0.3) - 3.0087) < 5e-5
    assert abs(c_gamma(0.3775) - 0.52785) < 5e-5
    assert abs(d_gamma(0.3775) - 0.22724) < 5e-5


def test_constants_monotone_decreasing():
    gs = np.linspace(0.0, 0.55, 12)
    cs = [c_gamma(g) for g in gs]
    ds = [d_gamma(g) for g in gs]
    assert all(a > b for a, b in zip(cs, cs[1:]))
    assert all(a > b for a, b in zip(ds, ds[1:]))
    assert all(d > 0.0 for d in ds)


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------

def test_kato_bound(sys100):
    s = sys100(0.3)
    floor = -1e-4 * float(np.linalg.norm(dense_coulomb(s.grid), 2))
    assert check_kato(s.grid) >= floor


def test_kato_blocks_match_the_full_matrix(sys100):
    s = sys100(0.3)
    m = (math.pi / 2.0) * np.diag(np.repeat(free_energies(s.grid), 2)) + dense_coulomb(s.grid)
    full = float(np.linalg.eigvalsh(m)[0])
    assert abs(check_kato(s.grid) - full) <= 10.0 * np.finfo(float).eps * np.linalg.norm(m, 2)


def test_kato_margin_does_not_depend_on_the_eigensolver():
    # at n=500 the lowest eigenvalues of the upper-component block from
    # scipy's evr and numpy's eigh (evd) differ by 1.3e-12; the Rayleigh
    # quotient of the eigvalsh-shifted inverse-iteration vector agrees with
    # that of the evr vector refined by one LU step to roundoff
    grid = build_channel_grid(500)
    blocks = [kato_block(grid, c) for c in (0, 1)]
    ref = min(float(rayleigh_quotients(m, evr_lowest_vector(m)[:, None])[0]) for m in blocks)
    margin = check_kato(grid)
    assert abs(margin - ref) <= 1e-14 * max(1.0, abs(ref))


def test_unitarity_residual_is_the_spectral_norm(sys100):
    s = sys100(0.3)
    uni, _ = decoupling_residuals(s)
    ref = np.linalg.norm(s.u_gamma @ s.u_gamma.T - np.eye(s.dim), 2)
    assert abs(uni - ref) <= 1e-15


@pytest.mark.parametrize("theta", [1e-6, 1e-3, 0.3])
def test_intertwining_residual_matches_the_dense_norm(sys100, theta):
    # rotating a negative and a positive eigenvector of D_gamma into each
    # other by theta turns U into U G with ||U G P_gamma - P_0 U G|| =
    # ||G P_gamma - P_gamma G|| = sin(theta), up to U's own roundoff
    s = sys100(0.3)
    k = int(np.searchsorted(s.evals, 0.0))
    a, b = s.evecs[:, k - 1], s.evecs[:, k]
    g = (np.eye(s.dim) + (math.cos(theta) - 1.0) * (np.outer(a, a) + np.outer(b, b))
         + math.sin(theta) * (np.outer(b, a) - np.outer(a, b)))
    rotated = dataclasses.replace(s, u_gamma=s.u_gamma @ g)
    ru = fw_rows(foldy_wouthuysen(s.grid), rotated.u_gamma)
    p0_ru = ru.copy()
    p0_ru[s.grid.n:] = 0.0
    ref = np.linalg.norm(ru @ positive_projector(s.evals, s.evecs) - p0_ru, 2)
    assert abs(decoupling_residuals(rotated)[1] - ref) <= 1e-14
    assert abs(ref - math.sin(theta)) <= 1e-12


def test_dgamma_bound(sys100):
    for gamma in (0.1, 0.3):
        assert check_dgamma_bound(sys100(gamma)) >= -1e-4


@pytest.mark.parametrize("gamma", [0.1, 0.3])
def test_reported_levels_and_dgamma_margin_are_rayleigh_quotients(sys200, gamma):
    s = sys200(gamma)
    eps = np.finfo(float).eps
    levels = rayleigh_levels(s)
    assert np.all(np.diff(levels) > 0.0)
    assert np.max(np.abs(levels - s.evals)) <= 10.0 * eps * np.linalg.norm(s.dgamma, 2)
    d2 = d_gamma(gamma) ** 2
    d0 = build_free_dirac(s.grid)
    m = s.dgamma @ s.dgamma - d2 * (d0 @ d0)
    m = 0.5 * (m + m.T)
    lam, vecs = np.linalg.eigh(m)
    x = vecs[:, 0]
    quotient = np.sum((s.dgamma @ x) ** 2) - d2 * np.sum((d0 @ x) ** 2)
    margin = check_dgamma_bound(s)
    assert abs(margin - quotient) <= 1e-12
    assert abs(margin - lam[0]) <= 10.0 * eps * np.linalg.norm(m, 2)


@pytest.mark.parametrize("gamma", [0.1, 0.3])
def test_refined_dgamma_margin_does_not_depend_on_the_eigensolver(gamma):
    # at n=500 the quotients of the lowest vectors from numpy's eigh (evd)
    # and scipy's evr differ by up to 1.7e-12 before refinement; the margin
    # from the eigvalsh shift and two inverse-iteration steps agrees with
    # the evr vector refined by one LU step to roundoff
    s = assemble_system(build_channel_grid(500), gamma)
    d2 = d_gamma(gamma) ** 2
    e2 = np.repeat(1.0 + s.grid.p ** 2, 2)
    m = s.dgamma @ s.dgamma
    m[np.diag_indices_from(m)] -= d2 * e2
    y = evr_lowest_vector(0.5 * (m + m.T))
    ref = float(np.sum((s.dgamma @ y) ** 2) - d2 * np.sum(e2 * y ** 2))
    margin = check_dgamma_bound(s)
    assert abs(margin - ref) <= 1e-14 * max(1.0, abs(ref))


def test_lowest_eigenvector_matches_the_eigh_vector(grid100):
    # the upper-component Kato block at n=100: norm 2e3, gap 0.65 above the
    # lowest eigenvalue, so eigh's vector is accurate to about 1e-12
    m = kato_block(grid100, 0)
    ref = np.linalg.eigh(m)[1][:, 0]
    y = lowest_eigenvector(m.copy())
    assert abs(np.linalg.norm(y) - 1.0) <= 1e-15
    assert np.linalg.norm(y - np.copysign(1.0, y @ ref) * ref) <= 1e-10


def test_lowest_eigenvector_gate_rejects_a_shift_in_mid_spectrum(monkeypatch, grid100):
    # a shift a quarter of the way between two middle eigenvalues makes the
    # inverse iteration converge to the eigenvector below it, whose quotient
    # is far from the shift
    m = kato_block(grid100, 0)
    ev = np.linalg.eigvalsh(m)
    j = ev.size // 2
    shift = 0.75 * ev[j] + 0.25 * ev[j + 1]
    monkeypatch.setattr(oneparticle.np.linalg, "eigvalsh", lambda a: np.array([shift]))
    with pytest.raises(ConsistencyError, match=r"^lowest eigenvector not found: Rayleigh quotient "
                       r"\d\.\d{3}e[+-]\d\d from the lowest eigenvalue > \d\.\de[+-]\d\d$"):
        lowest_eigenvector(m)


def test_gap_bound(sys100):
    # the gap a run reports is min |level| of the Rayleigh levels
    for gamma in (0.0, 0.3):
        assert np.min(np.abs(rayleigh_levels(sys100(gamma)))) >= gap_floor(gamma)


def test_weighted_unitary_norm_finite(sys100):
    n = weighted_unitary_norm(sys100(0.3))
    assert np.isfinite(n)
    assert n >= 1.0 - 1e-12
