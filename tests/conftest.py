"""Shared fixtures.

Heavy objects (assembled systems, series bundles, pair interactions) are
session scoped and built lazily, so module tests at n=100 never pay for the
acceptance-scale n=200 machinery and vice versa.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from diracdiag.decoupling import build_decoupling_bundle
from diracdiag.grids import build_channel_grid
from diracdiag.manybody import build_pair_interaction
from diracdiag.oneparticle import OneParticleSystem, assemble_system


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
