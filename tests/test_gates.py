"""The gate primitive, the inventory of gates a run passes, and who raises."""

import importlib
import json
import math
import re
import sys
from pathlib import Path

import pytest

from diracdiag import cli, errors
from diracdiag.errors import ConsistencyError, GapError, ResolutionError, gate

SRC = Path(__file__).resolve().parent.parent / "src" / "diracdiag"


def test_gate_returns_the_value_within_tolerance():
    assert gate(0.5, 1.0, "unused") == 0.5
    assert gate(1.0, 1.0, "unused") == 1.0
    assert gate(-3, 0, "unused") == -3


def test_gate_raises_the_given_type_with_the_formatted_message():
    with pytest.raises(ConsistencyError, match=r"^residual 2\.000e\+00 > 1\.0e\+00$"):
        gate(2.0, 1.0, "residual {value:.3e} > {tol:.1e}")
    with pytest.raises(ResolutionError, match=r"^node 7 of grid fine: 3\.5 over 3$"):
        gate(3.5, 3, "node {node} of grid {name}: {value} over {tol}", ResolutionError,
             node=7, name="fine")
    with pytest.raises(GapError, match=r"^gap 1\.0e-09$"):
        gate(-1e-9, -1e-8, "gap {gap:.1e}", error=GapError, gap=1e-9)


def test_gate_fails_on_nan():
    with pytest.raises(ConsistencyError, match=r"^got nan$"):
        gate(float("nan"), 1.0, "got {value}")


def test_gate_strict_lower_bound():
    # gate(-x, -ulp(0)) passes exactly when x > 0
    assert gate(-math.ulp(0.0), -math.ulp(0.0), "unused") == -math.ulp(0.0)
    with pytest.raises(ConsistencyError):
        gate(-0.0, -math.ulp(0.0), "zero is not positive")


def test_only_errors_module_raises_numerical_failures():
    pattern = re.compile(r"raise\s+(NumericalError|GapError|ResolutionError|ConsistencyError)\b")
    offenders = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
                 for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if pattern.search(line)]
    assert offenders == []


# Every gate a converge and an nbody run pass, by message template.
PASSED_TEMPLATES = {
    # decoupling
    "projector series constant term drifted from P_+^0",
    "decoupled frame rows not orthonormal: coefficient {index} of F F^H - 1 "
    "is {value:.3e} > {tol:.1e}",
    "decoupled frame leaves the projector's range: coefficient {index} of F^H F - P "
    "is {value:.3e} > {tol:.1e}",
    # oneparticle
    "projectors too far apart: ||p0 - pg|| = {gap:.6f} >= 1",
    "no spectral gap: eigenvalue {gap:.3e} within {floor:.1e} of zero",
    # manybody
    "radial transform round-trip defect {value:.3e} > 1e-6; "
    "the momentum grid is too coarse: raise grid.n",
    "transported frame leaks into the lower block: {value:.3e}",
    "transported frame is not orthonormal: {value:.3e}",
    "pair projection not positive semidefinite: lowest eigenvalue {low:.3e}",
    "weight matrix not positive definite: {what} {low:.3e}",
    "restriction/conjugation order disagreement {value:.3e} > 1e-8 "
    "on the small cross-check instance",
}


# Every gate a one-particle run passes, by message template.
ONE_PARTICLE_TEMPLATES = {
    "projectors too far apart: ||p0 - pg|| = {gap:.6f} >= 1",
    "no spectral gap: eigenvalue {gap:.3e} within {floor:.1e} of zero",
    "lowest eigenvector not found: Rayleigh quotient {value:.3e} "
    "from the lowest eigenvalue > {tol:.1e}",
}


# Every gate that only a direct call passes: no command forms the U series.
DIRECT_CALL_TEMPLATES = {
    "unitarity defect of the U series: coefficient residual {value:.3e} > {tol:.1e}",
}


# The test that trips each gate, as file::name; each asserts the typed error
# and the rendered template.
TRIP_TESTS = {
    "projector series constant term drifted from P_+^0":
        "test_decoupling.py::test_projector_constant_term_drift_gate_trips",
    "unitarity defect of the U series: coefficient residual {value:.3e} > {tol:.1e}":
        "test_decoupling.py::test_series_residual_gate",
    "decoupled frame rows not orthonormal: coefficient {index} of F F^H - 1 "
    "is {value:.3e} > {tol:.1e}":
        "test_decoupling.py::test_frame_orthonormality_gate",
    "decoupled frame leaves the projector's range: coefficient {index} of F^H F - P "
    "is {value:.3e} > {tol:.1e}":
        "test_decoupling.py::test_frame_range_gate",
    "projectors too far apart: ||p0 - pg|| = {gap:.6f} >= 1":
        "test_oneparticle.py::test_exact_u_gamma_rejects_far_projectors",
    "no spectral gap: eigenvalue {gap:.3e} within {floor:.1e} of zero":
        "test_oneparticle.py::test_assemble_gap_floor_raises",
    "lowest eigenvector not found: Rayleigh quotient {value:.3e} "
    "from the lowest eigenvalue > {tol:.1e}":
        "test_oneparticle.py::test_lowest_eigenvector_gate_rejects_a_shift_in_mid_spectrum",
    "radial transform round-trip defect {value:.3e} > 1e-6; "
    "the momentum grid is too coarse: raise grid.n":
        "test_manybody.py::test_pair_gate_raises_on_coarse_grid",
    "transported frame leaks into the lower block: {value:.3e}":
        "test_manybody.py::test_transported_frame_leak_gate",
    "transported frame is not orthonormal: {value:.3e}":
        "test_manybody.py::test_transported_frame_orthonormality_gate",
    "pair projection not positive semidefinite: lowest eigenvalue {low:.3e}":
        "test_manybody.py::test_pair_projection_gate_rejects_an_indefinite_projection",
    "weight matrix not positive definite: {what} {low:.3e}":
        "test_manybody.py::test_bounds_reject_indefinite_weights",
    "restriction/conjugation order disagreement {value:.3e} > 1e-8 "
    "on the small cross-check instance":
        "test_manybody.py::test_restriction_consistency_gate_trips",
}


def test_every_passed_gate_has_a_trip_test():
    assert set(TRIP_TESTS) == PASSED_TEMPLATES | ONE_PARTICLE_TEMPLATES | DIRECT_CALL_TEMPLATES
    tests = Path(__file__).resolve().parent
    for where in set(TRIP_TESTS.values()):
        path, name = where.split("::")
        assert re.search(rf"^def {name}\(", (tests / path).read_text(encoding="utf-8"), re.M), where


def _run_recording_gates(tmp_path, monkeypatch, commands):
    """Run the commands on a small config; return, by template, the values
    measured by the gates they passed."""
    measured = {}

    def recording_gate(value, tol, message, *args, **fields):
        out = errors.gate(value, tol, message, *args, **fields)
        measured.setdefault(message, []).append(float(value))
        return out

    modules = [importlib.import_module(f"diracdiag.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if not path.stem.startswith("__")]
    users = [mod.__name__ for mod in modules
             if mod is not errors and getattr(mod, "gate", None) is errors.gate]
    assert users == ["diracdiag.decoupling", "diracdiag.manybody", "diracdiag.oneparticle"]
    for name in users:
        monkeypatch.setattr(sys.modules[name], "gate", recording_gate)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"n": 64}, "gamma_list": [0.1, 0.2], "series_order": 4,
        "nbody": {"n_particles": 2, "n_plus": 4},
    }), encoding="utf-8")
    for command in commands:
        assert cli.main([command, "--config", str(cfg), "--output", str(tmp_path / command)]) == 0
    return measured


def test_gate_inventory_of_converge_and_nbody(tmp_path, monkeypatch):
    assert set(_run_recording_gates(tmp_path, monkeypatch, ("converge", "nbody"))) == PASSED_TEMPLATES


def test_gate_inventory_of_one_particle(tmp_path, monkeypatch):
    assert set(_run_recording_gates(tmp_path, monkeypatch, ("one-particle",))) == ONE_PARTICLE_TEMPLATES


def test_every_pipeline_gate_reads_nonzero(tmp_path, monkeypatch):
    # a gate whose measured value is exactly 0 on every call cannot fire
    measured = _run_recording_gates(tmp_path, monkeypatch, ("converge", "nbody", "one-particle"))
    assert [message for message, values in measured.items() if not any(values)] == []
