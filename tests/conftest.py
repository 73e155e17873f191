"""Shared fixtures.

Heavy objects (assembled systems, series bundles, pair interactions) are
session scoped and built lazily, so module tests at n=100 never pay for the
acceptance-scale n=200 machinery and vice versa.
"""

import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

from diracdiag.decoupling import build_decoupling_bundle
from diracdiag.grids import build_channel_grid
from diracdiag.manybody import _density_stack, _two_site_assemble, build_pair_interaction
from diracdiag.oneparticle import OneParticleSystem, abs_free_dirac_power, assemble_system
from diracdiag.series import MatrixSeries, make_series


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
def bundle100(sys100):
    return build_decoupling_bundle(sys100(0.0), order=8)


@pytest.fixture(scope="session")
def bundle200(sys200):
    return build_decoupling_bundle(sys200(0.0), order=12)


@pytest.fixture(scope="session")
def pair100(grid100):
    return build_pair_interaction(grid100)


@pytest.fixture(scope="session")
def pair200(grid200):
    return build_pair_interaction(grid200)


def binomial_half_coefficients(order: int) -> np.ndarray:
    """Taylor coefficients of (1+x)^(-1/2): 1, -1/2, 3/8, -5/16, ...

    The binomial-series oracle for the inverse-square-root recurrence.
    """
    c = np.empty(order + 1)
    c[0] = 1.0
    for m in range(1, order + 1):
        c[m] = c[m - 1] * (-(0.5 + (m - 1)) / m)
    return c


def toy_two_level() -> OneParticleSystem:
    """Hand-built 2x2 system: D_0 = diag(1, -1), V swaps the levels.

    Closed forms for everything make it the sharpest series oracle: the
    positive projector of D_0 + gV is (I + (D_0 + gV)/sqrt(1+g^2))/2.
    """
    eye = np.eye(2)
    d0 = np.diag([1.0, -1.0])
    v = np.array([[0.0, 1.0], [1.0, 0.0]])
    return OneParticleSystem(
        grid=None, gamma=0.0, d0=d0, v=v, dgamma=d0,
        abs_d0_half=eye, abs_d0_neg_half=eye,
        p_plus_0=np.diag([1.0, 0.0]), p_plus_gamma=np.diag([1.0, 0.0]),
        u_fw=eye, u_gamma=eye, gap=1.0,
        evals=np.array([-1.0, 1.0]), evecs=np.eye(2)[:, ::-1].copy(),
    )


def series_truncate(a: MatrixSeries, order: int) -> MatrixSeries:
    if order < 0 or order > a.order:
        raise ValueError(f"cannot truncate order-{a.order} series to {order}")
    return make_series(list(a.coeffs[: order + 1]))


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


def dense_furry(fs) -> dict:
    """Product-space matrices of an assembled FurrySystem, by Kronecker lifts.

    Rebuilds kinetic, w_proj, h_furry, h_diag, the |D_0| sum on the retained
    eigenstates and every series coefficient from the system's one-particle
    pieces, m^N x m^N each, with no compression to the alternating subspace.
    """
    sys, cfg, pair, bundle = fs.one_particle, fs.config, fs.pair, fs.bundle
    n, m = cfg.n_particles, cfg.n_plus
    scale = sys.gamma / cfg.z_charge
    pairs = list(itertools.combinations(range(n), 2))

    def one_site_sum(op, single):
        return sum(lift_single(op, single, n, j) for j in range(n))

    def pair_sum(op, single):
        return sum(lift_pair(op, single, n, a, b, m) for a, b in pairs)

    phi, psi = fs.phi, fs.psi
    eps_sum = fs.eps
    for _ in range(n - 1):
        eps_sum = np.add.outer(eps_sum, fs.eps).ravel()
    out = {"kinetic": np.diag(eps_sum)}
    s_phi = phi.T @ phi
    out["abs_d0"] = one_site_sum(phi.T @ abs_free_dirac_power(sys.grid, 1.0) @ phi, s_phi)
    pp = sys.p_plus_gamma @ sys.u_gamma.T @ sys.u_fw.T @ psi
    s1 = pp.T @ pp
    out["h_diag"] = one_site_sum(pp.T @ sys.dgamma @ pp, s1)
    out["h_furry"] = out["kinetic"]
    if n >= 2:
        out["w_proj"] = pair_sum(pair.project(phi), s_phi)
        out["h_furry"] = out["kinetic"] + scale * out["w_proj"]
        out["h_diag"] = out["h_diag"] + scale * pair_sum(pair.project(pp), s1)
    if bundle is not None:
        s_f = psi.T @ psi
        coeffs = [one_site_sum(psi.T @ h @ psi, s_f) for h in bundle.h_series.coeffs]
        if n >= 2:
            dressed = [(bundle.system.u_fw @ fc).T @ psi for fc in bundle.f_series.coeffs]
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

    return _two_site_assemble(density(left), pair.kernel, density(right), dressed[0].shape[1])
