"""Benchmark workloads: seeded configs for one CLI subcommand each, and the
output checks every run must pass.

The seed only picks the couplings.  They are drawn uniformly from
[0.05, 0.35], below the critical coupling 0.3775, rounded to 4 decimals and
sorted.  The program sees nothing but the generated config file.  The check
bounds are the repository's own acceptance bounds.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

COUPLING_RANGE = (0.05, 0.35)


def draw_couplings(seed: int, count: int) -> list[float]:
    rng = random.Random(seed)
    picked: set[float] = set()
    while len(picked) < count:
        picked.add(round(rng.uniform(*COUPLING_RANGE), 4))
    return sorted(picked)


def _same(a: float, b: float) -> bool:
    return round(a, 4) == round(b, 4)


def _per_gamma(out: Path, name: str, couplings: list[float]) -> list[dict]:
    entries = json.loads((out / name).read_text())["results"]["per_gamma"]
    got = [e["gamma"] for e in entries]
    if len(got) != len(couplings) or not all(map(_same, got, couplings)):
        raise ValueError(f"{name} lists couplings {got}, expected {couplings}")
    return entries


def check_one_particle(out: Path, couplings: list[float], cfg: dict) -> list[str]:
    errors = []
    for e in _per_gamma(out, "one_particle.json", couplings):
        g = e["gamma"]
        if not e["unitarity_residual"] <= 1e-10:
            errors.append(f"gamma {g}: unitarity residual {e['unitarity_residual']:.3e} > 1e-10")
        if not e["intertwining_residual"] <= 1e-10:
            errors.append(f"gamma {g}: intertwining residual {e['intertwining_residual']:.3e} > 1e-10")
        if not e["sommerfeld_rel_error"] <= 1e-3:
            errors.append(f"gamma {g}: Sommerfeld relative error {e['sommerfeld_rel_error']:.3e} > 1e-3")
    return errors


def check_converge(out: Path, couplings: list[float], cfg: dict) -> list[str]:
    errors = []
    order = cfg["series_order"]
    for table in ("converge_n1.csv", f"converge_n{cfg['nbody']['n_particles']}.csv"):
        with open(out / table, newline="") as fh:
            last = [r for r in csv.DictReader(fh) if int(r["k"]) == order]
        got = [float(r["gamma"]) for r in last]
        if len(got) != len(couplings) or not all(map(_same, got, couplings)):
            errors.append(f"{table}: rows at k={order} cover couplings {got}, expected {couplings}")
            continue
        for r in last:
            dist, ratio = float(r["resolvent_distance"]), float(r["fitted_ratio"])
            if not dist <= 1e-6:
                errors.append(f"{table} gamma {r['gamma']}: resolvent distance {dist:.3e} > 1e-6")
            if not ratio < 1.0:
                errors.append(f"{table} gamma {r['gamma']}: fitted ratio {ratio:.3f} >= 1")
    return errors


def check_nbody(out: Path, couplings: list[float], cfg: dict) -> list[str]:
    return [f"gamma {e['gamma']}: spectrum agreement {e['spectrum_agreement']:.3e} > 1e-9"
            for e in _per_gamma(out, "nbody.json", couplings)
            if not e["spectrum_agreement"] <= 1e-9]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n_couplings: int
    check: Callable[[Path, list[float], dict], list[str]]
    grid_n: int = 200
    series_order: int = 12
    n_particles: int = 2
    n_plus: int = 20

    def config(self, couplings: list[float], tiny: bool = False) -> dict:
        """Config for the CLI; tiny shrinks every size for the harness self-test."""
        return {
            "grid": {"n": 64 if tiny else self.grid_n},
            "series_order": 4 if tiny else self.series_order,
            "nbody": {"n_particles": self.n_particles, "n_plus": 4 if tiny else self.n_plus},
            "gamma_list": couplings,
        }


WORKLOADS = {w.name: w for w in (
    # desk scale of the acceptance criteria: bundle build, resolvent distances,
    # spectral-norm remainders and the restriction cross-check
    Workload("converge-desk", "converge", 3, check_converge),
    # three-site product space of dimension 1000: Kronecker lifts and size-1000
    # eigensolves, no resolvent distances
    Workload("nbody-three", "nbody", 3, check_nbody, series_order=8, n_particles=3, n_plus=10),
    # one-particle only, dim 1000: eigh, exact unitary, residual norms; no series
    Workload("spectrum-fine", "one-particle", 6, check_one_particle, grid_n=500),
)}
