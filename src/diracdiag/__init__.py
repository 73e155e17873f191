"""Finite-matrix block-diagonalization of projected Coulomb-Dirac operators.

Every matrix is real: the Coulomb-Dirac operator, its spectral projectors,
the decoupling unitary, their coupling series and the N-particle blocks are
float64 arrays, and where a docstring says Hermitian it means real
symmetric.  Transposes stand for adjoints, and no array is conjugated.
Where caller-supplied matrices enter (``series.make_series``,
``decoupling.hermitian_frame``), a complex array raises ValueError.

Submodules load lazily so that the command line front end can configure
BLAS threading before numpy is imported.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "cli",
    "config",
    "decoupling",
    "errors",
    "grids",
    "manybody",
    "oneparticle",
    "report",
    "series",
)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
