"""Acceptance gate: the nine shipped claims at the default desk scale.

Scale: kappa=-1, n=200 momentum nodes, series order 12, two particles with
20 retained states.  Criterion 2 additionally checks an n=400 grid.  One
test per criterion; the pytest -v line is the pass/fail record and each
test prints its measured numbers.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    binomial_half_coefficients,
    child_env,
    dense_coulomb,
    series_adjoint,
    series_identity,
    series_inv,
    series_inv_sqrt,
    series_kron,
    series_mul,
    toy_two_level,
)
from diracdiag import manybody as mb
from diracdiag.config import NbodyConfig
from diracdiag.decoupling import projector_series, riesz_projection_series
from diracdiag.grids import build_channel_grid
from diracdiag.oneparticle import (
    assemble_system,
    check_dgamma_bound,
    check_kato,
    d_gamma,
    decoupling_residuals,
    foldy_wouthuysen,
    fw_conjugate,
    positive_levels,
    positive_projector,
    sommerfeld_energy,
)
from diracdiag.series import make_series, series_eval

GAMMAS_MAIN = (0.1, 0.2, 0.3)
ROUNDOFF_FLOOR = 1e-13


def first_monotone_index(values):
    """Smallest k0 from which the sequence never rises above the roundoff floor."""
    n = len(values)
    for k0 in range(n):
        if all(values[k + 1] <= values[k] or values[k + 1] <= ROUNDOFF_FLOOR
               for k in range(k0, n - 1)):
            return k0
    return n


CFG_N2 = NbodyConfig(n_particles=2, z_charge=2.0, n_plus=20)


@pytest.fixture(scope="module")
def fs2(sys200, pair200):
    return mb.assemble_furry_exact(sys200(0.3), CFG_N2, pair200)


@pytest.fixture(scope="module")
def rows_n1(sys200, bundle200):
    return [r for g in GAMMAS_MAIN for r in mb.convergence_rows(bundle200, sys200(g))]


@pytest.fixture(scope="module")
def rows_n2(sys200, pair200, bundle200):
    # one coupling's two-particle system alive at a time
    return [r for g in GAMMAS_MAIN for r in
            mb.convergence_rows(bundle200, mb.assemble_furry_exact(sys200(g), CFG_N2, pair200))]


def column(rows, gamma, name):
    sub = sorted((r for r in rows if r["gamma"] == gamma), key=lambda r: r["k"])
    return [r[name] for r in sub]


def test_criterion_1_unitarity_and_intertwining(sys200):
    worst_u = worst_i = 0.0
    for gamma in (0.1, 0.2, 0.3, 0.37):
        uni, inter = decoupling_residuals(sys200(gamma))
        worst_u, worst_i = max(worst_u, uni), max(worst_i, inter)
    print(f"criterion 1: unitarity {worst_u:.3e}, intertwining {worst_i:.3e}")
    assert worst_u <= 1e-10
    assert worst_i <= 1e-10


def test_criterion_2_discretization_fidelity(sys200):
    grid400 = build_channel_grid(400)
    worst = {200: 0.0, 400: 0.0}
    for gamma in (0.1, 0.3, 0.3775):
        ref = sommerfeld_energy(gamma, 1, -1)
        e200 = positive_levels(sys200(gamma), 1)[0]
        e400 = positive_levels(assemble_system(grid400, gamma), 1)[0]
        worst[200] = max(worst[200], abs(e200 - ref) / ref)
        worst[400] = max(worst[400], abs(e400 - ref) / ref)
    print(f"criterion 2: ground rel error {worst[200]:.3e} (n=200), "
          f"{worst[400]:.3e} (n=400)")
    assert worst[200] <= 1e-3
    assert worst[400] <= 2.5e-4


def test_criterion_3_unitary_equivalence(sys200, fs2):
    cfg = NbodyConfig(n_particles=1, z_charge=2.0, n_plus=20)
    fs1_exact = mb.assemble_furry_exact(sys200(0.3), cfg)
    worst = 0.0
    for fs in (fs1_exact, fs2):
        ef = fs.levels(fs.h_furry_exact)
        ed = fs.levels(fs.h_diag_exact)
        worst = max(worst, float(np.max(np.abs(ef - ed))))
    print(f"criterion 3: spectrum agreement {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_4_series_correctness(sys200, pu200):
    # the bundle's series are in the FW frame, the exact operators are
    # conjugated into it; the spectral norm is invariant
    s = sys200(0.2)
    p_series, u_series = pu200
    blocks = foldy_wouthuysen(s.grid)
    p_err = np.linalg.norm(series_eval(p_series, 0.2)
                           - fw_conjugate(blocks, positive_projector(s.evals, s.evecs)), 2)
    u_err = np.linalg.norm(series_eval(u_series, 0.2) - fw_conjugate(blocks, s.u_gamma), 2)
    lam, v = toy_two_level()
    p_toy = projector_series(riesz_projection_series(lam, v, 4))
    toy_err = max(
        np.linalg.norm(p_toy.coeffs[1] - v / 2.0, 2),
        np.linalg.norm(p_toy.coeffs[2] + np.diag(lam) / 4.0, 2))
    print(f"criterion 4: projector {p_err:.3e}, unitary {u_err:.3e}, "
          f"toy coefficients {toy_err:.3e}")
    assert p_err <= 1e-6
    assert u_err <= 1e-6
    assert toy_err <= 1e-12


@pytest.mark.parametrize("label,limit_k10", [("n1", 1e-5), ("n2", 1e-4)])
def test_criterion_5_norm_resolvent_convergence(label, limit_k10, rows_n1, rows_n2):
    rows = rows_n1 if label == "n1" else rows_n2
    for gamma in GAMMAS_MAIN:
        dists = column(rows, gamma, "resolvent_distance")
        k0 = first_monotone_index(dists)
        ratio = column(rows, gamma, "fitted_ratio")[0]
        rho = gamma / ratio
        print(f"criterion 5 [{label}] gamma={gamma}: k0={k0}, "
              f"dist(k=10)={dists[10]:.3e}, ratio={ratio:.4f}, rho={rho:.2f}")
        assert k0 <= 3
        assert dists[10] <= limit_k10
        assert 0.0 < ratio < 1.0
        assert rho > 0.3


def test_criterion_6_weighted_remainder(rows_n1):
    rems = column(rows_n1, 0.3, "weighted_remainder_norm")
    k0 = first_monotone_index(rems)
    assert k0 <= 3
    decay = [r for r in rems[k0:] if r > ROUNDOFF_FLOOR]
    ratio = mb.fit_geometric_ratio(np.array(decay))
    print(f"criterion 6: k0={k0}, final remainder {rems[12]:.3e}, ratio {ratio:.4f}")
    assert 0.0 < ratio < 1.0
    assert all(a > b or b <= ROUNDOFF_FLOOR for a, b in zip(decay, decay[1:]))
    assert rems[12] <= 1e-5


def test_criterion_7_inequality_diagnostics(sys200, fs2):
    s = sys200(0.3)
    kato = check_kato(s.grid)
    kato_floor = -1e-4 * float(np.linalg.norm(dense_coulomb(s.grid), 2))
    dg_margins = {g: check_dgamma_bound(sys200(g)) for g in GAMMAS_MAIN}
    form_value = mb.check_form_bound(fs2)
    form_limit = mb.form_bound_limit(fs2)
    kin_value = mb.check_kinetic_weight_bound(fs2)
    kin_limit = mb.kinetic_weight_limit(fs2)
    print(f"criterion 7: kato {kato:.3e} (floor {kato_floor:.3e}), "
          f"dgamma min {min(dg_margins.values()):.3e}, "
          f"form {form_value:.4f} <= {form_limit:.4f}, "
          f"kinetic weight {kin_value:.4f} <= {kin_limit:.4f}")
    assert kato >= kato_floor
    for margin in dg_margins.values():
        assert margin >= -1e-4
    assert form_value <= form_limit + 1e-4
    assert kin_value <= kin_limit + 1e-4
    assert kin_limit == 1.0 / d_gamma(0.3)


def test_criterion_8_series_algebra_suite():
    # coefficients decay like a convergent series (radius 2.5); the
    # tolerance bounds implementation error at natural operator scale, not
    # roundoff amplification from adversarially large inputs
    rng = np.random.default_rng(1234)
    order, dim = 12, 8
    coeffs = [0.4 ** k * rng.standard_normal((dim, dim)) / math.sqrt(dim)
              for k in range(order + 1)]
    coeffs = [0.5 * (c + c.T) for c in coeffs]
    coeffs[0] = np.eye(dim)
    a = make_series(coeffs)
    ident = series_identity(dim, order)

    def defect(series_val, target):
        return max(np.linalg.norm(x - y, 2) for x, y in zip(series_val.coeffs, target.coeffs))

    inv_def = defect(series_mul(a, series_inv(a)), ident)
    r = series_inv_sqrt(a)
    sqrt_def = defect(series_mul(r, r), series_inv(a))
    b = make_series([0.4 ** k * rng.standard_normal((dim, dim)) / math.sqrt(dim)
                     for k in range(order + 1)])
    adj_def = defect(series_adjoint(series_mul(a, b)),
                     series_mul(series_adjoint(b), series_adjoint(a)))
    small = make_series([c[:3, :3] for c in b.coeffs])
    kron_def = defect(series_kron(series_identity(3, order), small),
                      make_series([np.kron(np.eye(3), c) for c in small.coeffs]))
    binom = binomial_half_coefficients(4)
    binom_ref = np.array([1.0, -0.5, 0.375, -0.3125, 0.2734375])
    binom_def = float(np.max(np.abs(binom - binom_ref)))
    worst = max(inv_def, sqrt_def, adj_def, binom_def)
    print(f"criterion 8: inverse {inv_def:.3e}, inv-sqrt {sqrt_def:.3e}, "
          f"adjoint {adj_def:.3e}, kron {kron_def:.3e}, binomial {binom_def:.3e}")
    assert worst <= 1e-10
    assert kron_def <= 1e-10


def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grid": {"n": 200}, "gamma_list": [0.1, 0.3]}),
                        encoding="utf-8")
    outs = {}
    for name, threads in (("a", 1), ("b", 1), ("c", 2)):
        out_dir = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "diracdiag", "one-particle",
             "--config", str(cfg_path), "--output", str(out_dir),
             "--threads", str(threads)],
            env=child_env(), capture_output=True, text=True, timeout=600)
        assert res.returncode == 0, res.stderr
        outs[name] = out_dir
    names = ("one_particle_gamma_0p1000.csv", "one_particle_gamma_0p3000.csv",
             "one_particle_summary.csv")
    for name in names:
        assert (outs["a"] / name).read_bytes() == (outs["b"] / name).read_bytes()
    worst = 0.0
    for name in names:
        rows_a = (outs["a"] / name).read_text(encoding="utf-8").splitlines()[1:]
        rows_c = (outs["c"] / name).read_text(encoding="utf-8").splitlines()[1:]
        for ra, rc in zip(rows_a, rows_c):
            for ca, cc in zip(ra.split(","), rc.split(",")):
                if ca == "" and cc == "":
                    continue
                va, vc = float(ca), float(cc)
                scale = max(1.0, abs(va), abs(vc))
                worst = max(worst, abs(va - vc) / scale)
    print(f"criterion 9: single-thread byte-identical, "
          f"thread-2 relative deviation {worst:.3e}")
    assert worst <= 1e-13
