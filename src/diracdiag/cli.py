"""Command line driver: validate | one-particle | converge | nbody.

Only standard-library modules are imported at module scope, and the config
parser is pure standard library too.  ``main`` parses the arguments and
translates --threads into BLAS environment variables before it calls a
command body, and numpy and the numerical modules load only inside the
command bodies, so the flag controls the thread pool of the linear algebra
backend.  In a process that has loaded numpy already, it comes too late.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import (
    GAMMA_CRITICAL,
    RunConfig,
    config_digest,
    load_config,
    require_convergence_window,
)
from .errors import ConfigError, NumericalError

_THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def set_thread_env(n_threads: int) -> None:
    for var in _THREAD_ENV:
        os.environ[var] = str(n_threads)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracdiag",
        description="Block-diagonalization of projected Coulomb-Dirac operators "
                    "and its perturbative expansion, at finite matrix scale.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("validate", cmd_validate, "run the oracle suite and report pass/fail"),
        ("one-particle", cmd_one_particle, "eigenvalues and residuals per coupling"),
        ("converge", cmd_converge, "norm-resolvent convergence tables"),
        ("nbody", cmd_nbody, "N-particle spectra and inequality diagnostics"),
    )
    for name, func, help_text in commands:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", default=None,
                        help="JSON config file (defaults used when omitted)")
        sp.add_argument("--output", metavar="DIR", default=None,
                        help="output directory (overrides config)")
        sp.add_argument("--threads", metavar="N", type=int, default=None,
                        help="BLAS thread count (default: leave environment alone)")
        sp.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None:
            if args.threads <= 0:
                raise ConfigError(f"--threads must be positive, got {args.threads}")
            set_thread_env(args.threads)
        cfg = load_config(args.config)
        if args.output is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.output)
        return args.func(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(cfg: RunConfig) -> int:
    import numpy as np

    from . import manybody as mb
    from . import oneparticle as op
    from .grids import build_channel_grid
    from .report import write_json_summary, write_text_report

    grid = build_channel_grid(cfg.grid.n, cfg.grid.map_scale, cfg.grid.kappa)
    checks: list[dict] = []

    def record(name: str, value: float, threshold: float, hard: bool = True, lower: bool = False):
        # threshold bounds value from above, or from below when lower; a NaN fails both
        passed = value >= threshold if lower else value <= threshold
        checks.append({"name": name, "value": float(value), "threshold": float(threshold),
                       "passed": bool(passed), "hard": hard})

    # nonrelativistic limit of the Coulomb kernel: lowest hydrogen level in
    # the upper channel, -1/(2(l+1)^2); v[0] is that channel's block of V
    v = op.build_coulomb(grid)
    t_kin = np.diag(grid.p ** 2 / 2.0)
    ground = float(np.linalg.eigvalsh(t_kin + v[0])[0])
    ref = -0.5 / (grid.l_upper + 1) ** 2
    rel = abs(ground - ref) / abs(ref)
    record("hydrogen_momentum_ground", rel, 1e-6)

    # one coupling's system at a time; the checks are emitted by kind
    kato = op.check_kato(grid)
    per_gamma = [op.measure_coupling(grid, gamma, kato)[0] for gamma in cfg.gamma_list]
    coupled = [r for r in per_gamma if r["gamma"] != 0.0]
    for r in coupled:
        record(f"sommerfeld_ground_gamma_{r['gamma']:.4f}", r["sommerfeld_rel_error"], 1e-3)

    # ||V||_2 from V's two symmetric spinor-component blocks, with no SVD
    kato_floor = -1e-4 * max(float(np.max(np.abs(np.linalg.eigvalsh(b)))) for b in v)
    record("kato_lower_bound", kato, kato_floor, lower=True)

    for r in coupled:
        record(f"dgamma_bound_gamma_{r['gamma']:.4f}", r["dgamma_margin"], -1e-4, lower=True)

    try:
        pair = mb.build_pair_interaction(grid)
        for q in (0.5, 1.0):
            val = mb.slater_monopole_value(pair, q)
            ref = mb.slater_monopole_reference(grid.l_upper, q)
            rel = abs(val - ref) / ref
            record(f"slater_monopole_q_{q:g}", rel, 1e-4)
    except NumericalError as exc:
        record("pair_round_trip", float("inf"), 1e-6)
        print(f"pair interaction unavailable: {exc}", file=sys.stderr)

    for r in per_gamma:
        record(f"unitarity_gamma_{r['gamma']:.4f}", r["unitarity_residual"], 1e-10)
        record(f"intertwining_gamma_{r['gamma']:.4f}", r["intertwining_residual"], 1e-10)

    for r in per_gamma:
        record(f"gap_bound_gamma_{r['gamma']:.4f}", r["gap"], op.gap_floor(r["gamma"]),
               hard=False, lower=True)

    lines = []
    for c in checks:
        status = "PASS" if c["passed"] else ("FAIL" if c["hard"] else "WARN")
        lines.append(f"{c['name']:<34} value={c['value']: .6e}  "
                     f"threshold={c['threshold']: .2e}  {status}")
    failed = [c for c in checks if c["hard"] and not c["passed"]]
    lines.append(f"{len(checks)} checks, {len(failed)} hard failures")
    for ln in lines:
        print(ln)
    out = cfg.output_dir
    write_text_report(os.path.join(out, "validation_report.txt"), lines)
    write_json_summary(os.path.join(out, "validation.json"), "validate",
                       cfg.to_dict(), config_digest(cfg), {"checks": checks})
    if failed:
        print(f"validation failed: {failed[0]['name']} "
              f"(value {failed[0]['value']:.3e}, threshold {failed[0]['threshold']:.1e})",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# one-particle
# ---------------------------------------------------------------------------

def cmd_one_particle(cfg: RunConfig) -> int:
    import numpy as np

    from . import oneparticle as op
    from .grids import build_channel_grid
    from .report import gamma_tag, write_json_summary, write_table_csv

    grid = build_channel_grid(cfg.grid.n, cfg.grid.map_scale, cfg.grid.kappa)
    out = cfg.output_dir
    per_gamma = []
    kato = op.check_kato(grid)  # does not depend on the coupling
    for gamma in cfg.gamma_list:
        record, levels = op.measure_coupling(grid, gamma, kato)
        bound = grid.n + np.flatnonzero(levels[grid.n:] < 1.0)[:12]
        refs = {int(i): op.sommerfeld_energy(gamma, k + grid.l_upper + 1, grid.kappa)
                for k, i in enumerate(bound)}
        rows = [(i, float(e), refs[i], abs(e - refs[i]) / refs[i]) if i in refs
                else (i, float(e), "", "") for i, e in enumerate(levels)]
        write_table_csv(os.path.join(out, f"one_particle_gamma_{gamma_tag(gamma)}.csv"),
                        ("index", "eigenvalue", "sommerfeld_reference", "rel_error"), rows)
        per_gamma.append(record)
    write_table_csv(os.path.join(out, "one_particle_summary.csv"), tuple(per_gamma[0]),
                    [tuple(r.values()) for r in per_gamma])
    write_json_summary(os.path.join(out, "one_particle.json"), "one-particle",
                       cfg.to_dict(), config_digest(cfg), {"per_gamma": per_gamma})
    return 0


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def _build_shared(cfg: RunConfig):
    """The grid and its decoupling bundle, shared by every coupling of
    converge and nbody; the bundle is built before any system is assembled."""
    from .decoupling import build_decoupling_bundle
    from .grids import build_channel_grid

    grid = build_channel_grid(cfg.grid.n, cfg.grid.map_scale, cfg.grid.kappa)
    return grid, build_decoupling_bundle(grid, cfg.series_order)


def cmd_converge(cfg: RunConfig) -> int:
    from . import manybody as mb
    from .oneparticle import assemble_system
    from .report import write_json_summary, write_report_csv

    require_convergence_window(cfg)
    grid, bundle = _build_shared(cfg)
    out = cfg.output_dir
    gammas = list(cfg.gamma_list)
    results = {}

    n_particles = cfg.nbody.n_particles
    pair = restriction = None
    if n_particles >= 2:
        pair = mb.build_pair_interaction(grid)
        restriction = mb.check_restriction_consistency(gammas[0] or GAMMA_CRITICAL / 2,
                                                       cfg.nbody)
    # couplings outermost: both tables read one system per coupling
    rows1, rows_n = [], []
    for gamma in gammas:
        sys_g = assemble_system(grid, gamma)
        rows1 += mb.convergence_rows(bundle, sys_g)
        if pair is not None:
            fs_g = mb.assemble_furry_exact(sys_g, cfg.nbody, pair)
            rows_n += mb.convergence_rows(bundle, fs_g)
            del fs_g
        del sys_g  # before the next coupling's systems are assembled
    write_report_csv(os.path.join(out, "converge_n1.csv"), rows1)
    results["n1"] = {"rows": rows1}
    if pair is not None:
        write_report_csv(os.path.join(out, f"converge_n{n_particles}.csv"), rows_n)
        results[f"n{n_particles}"] = {"rows": rows_n, "restriction_gate": restriction}

    write_json_summary(os.path.join(out, "converge.json"), "converge",
                       cfg.to_dict(), config_digest(cfg), results)
    return 0


# ---------------------------------------------------------------------------
# nbody
# ---------------------------------------------------------------------------

def cmd_nbody(cfg: RunConfig) -> int:
    import numpy as np

    from . import manybody as mb
    from .oneparticle import assemble_system
    from .report import gamma_tag, write_json_summary, write_table_csv

    require_convergence_window(cfg)
    grid, bundle = _build_shared(cfg)
    out = cfg.output_dir
    n_particles = cfg.nbody.n_particles
    pair = mb.build_pair_interaction(grid) if n_particles >= 2 else None
    per_gamma = []
    for gamma in cfg.gamma_list:
        sys_g = assemble_system(grid, gamma)
        fs = mb.assemble_furry_exact(sys_g, cfg.nbody, pair)
        e_furry = fs.levels(fs.h_furry_exact)
        spectra = [np.linalg.eigvalsh(b) for b in fs.h_diag_exact]
        e_diag = fs.merge(spectra)
        rows = [(i, float(a), float(b), float(abs(a - b)))
                for i, (a, b) in enumerate(zip(e_furry, e_diag))]
        write_table_csv(os.path.join(out, f"nbody_levels_gamma_{gamma_tag(gamma)}.csv"),
                        ("index", "furry_eigenvalue", "diag_eigenvalue", "abs_diff"), rows)

        ground_exact = float(e_diag[0])
        series = mb.series_ground_energies(bundle, fs, [e[0] for e in spectra])
        series_rows = [(k, gk, abs(gk - ground_exact)) for k, gk in enumerate(series.tolist())]
        write_table_csv(os.path.join(out, f"nbody_series_gamma_{gamma_tag(gamma)}.csv"),
                        ("k", "series_ground_energy", "ground_error"), series_rows)

        diag = {
            "gamma": gamma,
            "dim": fs.dim,
            "ground_furry": float(e_furry[0]),
            "ground_diag": ground_exact,
            "spectrum_agreement": float(np.max(np.abs(e_furry - e_diag))),
            "positivity_floor": n_particles * float(np.sqrt(1.0 - gamma ** 2)),
            "kinetic_weight_value": mb.check_kinetic_weight_bound(fs),
            "kinetic_weight_limit": mb.kinetic_weight_limit(fs),
        }
        if n_particles >= 2:
            diag["form_bound_value"] = mb.check_form_bound(fs)
            diag["form_bound_limit"] = mb.form_bound_limit(fs)
        per_gamma.append(diag)
        del fs, sys_g  # before the next coupling's systems are assembled
    write_json_summary(os.path.join(out, "nbody.json"), "nbody",
                       cfg.to_dict(), config_digest(cfg), {"per_gamma": per_gamma})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
