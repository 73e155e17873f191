"""Command line front end, exercised through real subprocesses."""

import csv
import json
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest

from conftest import child_env, read_report_csv
from diracdiag import cli
from diracdiag import manybody as mb
from diracdiag import oneparticle as op
from diracdiag.report import write_report_csv

CLI = [sys.executable, "-m", "diracdiag"]


def run_cli(args, cwd):
    return subprocess.run(CLI + list(args), cwd=str(cwd), env=child_env(),
                          capture_output=True, text=True, timeout=600)


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_csv_cells(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# surface and error paths
# ---------------------------------------------------------------------------

def test_help_lists_subcommands(tmp_path):
    out = run_cli(["--help"], tmp_path)
    assert out.returncode == 0
    for sub in ("validate", "one-particle", "converge", "nbody"):
        assert sub in out.stdout


def test_unknown_config_key_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, {"gird": {"n": 20}})
    out = run_cli(["validate", "--config", cfg, "--output", str(tmp_path / "o")], tmp_path)
    assert out.returncode == 2
    assert "config error:" in out.stderr
    assert "gird" in out.stderr


def test_gamma_outside_window_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, {"gamma_list": [0.7]})
    out = run_cli(["converge", "--config", cfg], tmp_path)
    assert out.returncode == 2
    assert "window" in out.stderr


def test_empty_gamma_list_nothing_to_do(tmp_path):
    cfg = write_cfg(tmp_path, {"gamma_list": []})
    out = run_cli(["converge", "--config", cfg], tmp_path)
    assert out.returncode == 2
    assert "nothing to do" in out.stderr


def test_threads_zero_exit_2(tmp_path):
    out = run_cli(["validate", "--threads", "0"], tmp_path)
    assert out.returncode == 2
    assert "--threads" in out.stderr


def test_gamma_at_critical_rejected_for_converge(tmp_path):
    cfg = write_cfg(tmp_path, {"grid": {"n": 40}, "gamma_list": [0.3775],
                               "series_order": 3})
    out = run_cli(["converge", "--config", cfg, "--output", str(tmp_path / "o")], tmp_path)
    assert out.returncode == 2
    assert "critical" in out.stderr


@pytest.mark.parametrize("command", ["converge", "nbody"])
def test_oversize_nbody_config_exit_2(tmp_path, command):
    # 28^3 = 21952 retained product states exceed the cap: rejected with the
    # config, before any numerics and before any output is written
    cfg = write_cfg(tmp_path, {"grid": {"n": 16}, "gamma_list": [0.1], "series_order": 2,
                               "nbody": {"n_particles": 3, "n_plus": 28}})
    out_dir = tmp_path / "o"
    out = run_cli([command, "--config", cfg, "--output", str(out_dir)], tmp_path)
    assert out.returncode == 2
    assert "config error:" in out.stderr
    assert "exceeds the cap" in out.stderr
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["converge", "nbody"])
def test_more_retained_states_than_nodes_exit_2(tmp_path, command):
    # 16 nodes carry 16 positive states, fewer than the default n_plus of 20:
    # rejected with the config, before any numerics and any output
    cfg = write_cfg(tmp_path, {"grid": {"n": 16}, "gamma_list": [0.3]})
    out_dir = tmp_path / "o"
    out = run_cli([command, "--config", cfg, "--output", str(out_dir)], tmp_path)
    assert out.returncode == 2
    assert "config error:" in out.stderr
    assert "nbody.n_plus 20 exceeds the 16 positive states" in out.stderr
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["one-particle", "nbody"])
def test_colliding_coupling_tags_exit_2(tmp_path, command):
    # per-coupling files are named by the 4-decimal tag, so 0.10004 would
    # overwrite the files of 0.1: rejected with the config, nothing written
    cfg = write_cfg(tmp_path, {"grid": {"n": 16}, "gamma_list": [0.1, 0.10004]})
    out_dir = tmp_path / "o"
    out = run_cli([command, "--config", cfg, "--output", str(out_dir)], tmp_path)
    assert out.returncode == 2
    assert "config error:" in out.stderr
    assert "0p1000" in out.stderr
    assert not out_dir.exists()


def test_front_end_loads_no_numpy(tmp_path):
    # --threads takes effect only because the CLI and the config parser load
    # no numpy; an invalid config is rejected before numpy loads
    code = textwrap.dedent("""
        import sys
        import diracdiag.cli
        from diracdiag.config import config_from_dict
        from diracdiag.errors import ConfigError
        config_from_dict({"grid": {"n": 16}, "gamma_list": [0.1]})
        try:
            config_from_dict({"nbody": {"n_particles": 3, "n_plus": 28}})
        except ConfigError:
            pass
        else:
            raise SystemExit("oversize config accepted")
        if "numpy" in sys.modules:
            raise SystemExit("numpy loaded")
    """)
    out = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path), env=child_env(),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("doc,field", [
    (lambda x: {"grid": {"map_scale": x}}, "grid.map_scale"),
    (lambda x: {"nbody": {"z_charge": x}}, "nbody.z_charge"),
    (lambda x: {"gamma_list": [0.1, x]}, "gamma"),
], ids=["map_scale", "z_charge", "gamma_list"])
def test_non_finite_config_float_exit_2(tmp_path, doc, field, value):
    # json.load parses NaN and Infinity; the range checks reject both, so
    # the command exits 2 naming the field before numpy loads
    cfg = write_cfg(tmp_path, doc(value))
    code = textwrap.dedent(f"""
        import sys
        from diracdiag import cli
        rc = cli.main(["one-particle", "--config", {cfg!r}, "--output", {str(tmp_path / "o")!r}])
        if "numpy" in sys.modules:
            raise SystemExit("numpy loaded")
        raise SystemExit(rc)
    """)
    out = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path), env=child_env(),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("config error: ") and field in out.stderr


def test_series_order_above_the_cap_exit_2(tmp_path):
    # series_order 65 is rejected with the config, before numpy loads and
    # before any series is formed; make_series holds the same cap
    cfg = write_cfg(tmp_path, {"grid": {"n": 8}, "gamma_list": [0.1], "series_order": 65,
                               "nbody": {"n_plus": 4}})
    code = textwrap.dedent(f"""
        import sys
        from diracdiag import cli
        rc = cli.main(["converge", "--config", {cfg!r}, "--output", {str(tmp_path / "o")!r}])
        if "numpy" in sys.modules:
            raise SystemExit("numpy loaded")
        raise SystemExit(rc)
    """)
    out = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path), env=child_env(),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stderr == "config error: series_order must lie in [1, 64], got 65\n"
    assert not (tmp_path / "o").exists()


def test_threads_flag_set_before_numpy_loads(tmp_path):
    # main translates --threads into the BLAS variables after parsing and
    # before the command body loads numpy, so the flag reaches the backend
    cfg = write_cfg(tmp_path, {"grid": {"n": 16}, "gamma_list": [0.1]})
    code = textwrap.dedent(f"""
        import os
        import sys
        from diracdiag import cli

        calls = []
        set_thread_env = cli.set_thread_env

        def spy(n):
            calls.append((n, "numpy" in sys.modules))
            set_thread_env(n)

        cli.set_thread_env = spy
        rc = cli.main(["one-particle", "--config", {cfg!r}, "--output", {str(tmp_path / "o")!r},
                       "--threads", "3"])
        if rc:
            raise SystemExit(f"one-particle failed: {{rc}}")
        if calls != [(3, False)]:
            raise SystemExit(f"set_thread_env calls (threads, numpy loaded): {{calls}}")
        if os.environ["OPENBLAS_NUM_THREADS"] != "3":
            raise SystemExit("OPENBLAS_NUM_THREADS = " + os.environ["OPENBLAS_NUM_THREADS"])
    """)
    out = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path), env=child_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_commands_load_no_quadrature(tmp_path):
    # the kernel's subtraction constant is closed-form, so neither command
    # loads scipy.integrate
    cfg = write_cfg(tmp_path, {
        "grid": {"n": 64}, "gamma_list": [0.1, 0.2], "series_order": 4,
        "nbody": {"n_particles": 2, "n_plus": 4},
    })
    code = textwrap.dedent(f"""
        import sys
        from diracdiag import cli
        for command in ("one-particle", "nbody"):
            if cli.main([command, "--config", {cfg!r}, "--output", {str(tmp_path / "o")!r}]):
                raise SystemExit(command + " failed")
            if "scipy.integrate" in sys.modules:
                raise SystemExit("scipy.integrate loaded by " + command)
    """)
    out = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path), env=child_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_series_commands_load_no_scipy(tmp_path):
    # the Bessel transform, the kinetic-weight bound and the lowest
    # eigenvectors of the Kato and D_gamma^2 margins are numpy-only, so no
    # command loads any scipy module
    cfg = write_cfg(tmp_path, {
        "grid": {"n": 64}, "gamma_list": [0.1, 0.2], "series_order": 4,
        "nbody": {"n_particles": 2, "n_plus": 4},
    })
    code = textwrap.dedent(f"""
        import sys
        from diracdiag import cli

        for command in ("converge", "nbody", "validate", "one-particle"):
            # 64 nodes fail validate's hydrogen check (exit 1) after every check ran
            rc = cli.main([command, "--config", {cfg!r}, "--output", {str(tmp_path / "o")!r}])
            if rc > (command == "validate"):
                raise SystemExit(command + " failed")
            scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
            if scipy:
                raise SystemExit(command + " loaded " + ", ".join(scipy))
    """)
    out = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path), env=child_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_kato_margin_evaluated_once_per_run(tmp_path, monkeypatch):
    # the margin reads only |D_0| and V, so no command repeats it per coupling
    calls = []
    check_kato = op.check_kato
    monkeypatch.setattr(op, "check_kato", lambda grid: calls.append(grid) or check_kato(grid))
    cfg = write_cfg(tmp_path, {"grid": {"n": 32}, "gamma_list": [0.1, 0.2, 0.3]})
    for command in ("one-particle", "validate"):
        calls.clear()
        cli.main([command, "--config", cfg, "--output", str(tmp_path / command)])
        assert len(calls) == 1, command


@pytest.mark.parametrize("command,module,name,doc,expected", [
    ("one-particle", op, "assemble_system", {"grid": {"n": 32}}, [0, 0, 0]),
    ("validate", op, "assemble_system", {"grid": {"n": 32}}, [0, 0, 0]),
    ("nbody", mb, "assemble_furry_exact",
     {"grid": {"n": 64}, "series_order": 4, "nbody": {"n_particles": 2, "n_plus": 4}},
     [0, 0, 0]),
    # the restriction check's instance, then one per coupling, each released
    # before the next
    ("converge", mb, "assemble_furry_exact",
     {"grid": {"n": 64}, "series_order": 4, "nbody": {"n_particles": 2, "n_plus": 4}},
     [0, 0, 0, 0]),
], ids=["one-particle", "validate", "nbody", "converge"])
def test_one_particle_holds_one_system_at_a_time(tmp_path, monkeypatch, command, module, name,
                                                 doc, expected):
    # each coupling's system is released before the next one is assembled
    assemble = getattr(module, name)
    systems = []
    alive_at_entry = []

    def tracked(*args):
        alive_at_entry.append(sum(ref() is not None for ref in systems))
        s = assemble(*args)
        systems.append(weakref.ref(s))
        return s

    monkeypatch.setattr(module, name, tracked)
    cfg = write_cfg(tmp_path, {"gamma_list": [0.1, 0.2, 0.3], **doc})
    # 32 nodes fail validate's hydrogen check (exit 1) after every check ran
    assert cli.main([command, "--config", cfg, "--output", str(tmp_path / "o")]) == (
        command == "validate")
    assert alive_at_entry == expected


def test_converge_assembles_each_coupling_once(tmp_path, monkeypatch):
    # the one- and two-particle tables read one system per coupling; the
    # restriction check's 24-node instance is its own
    assembled = []
    for module in (op, mb):
        assemble = module.assemble_system
        monkeypatch.setattr(module, "assemble_system",
                            lambda grid, gamma, assemble=assemble:
                            assembled.append((grid.n, gamma)) or assemble(grid, gamma))
    cfg = write_cfg(tmp_path, {"grid": {"n": 64}, "gamma_list": [0.1, 0.2, 0.3], "series_order": 4,
                               "nbody": {"n_particles": 2, "n_plus": 4}})
    assert cli.main(["converge", "--config", cfg, "--output", str(tmp_path / "o")]) == 0
    assert [gamma for n, gamma in assembled if n == 64] == [0.1, 0.2, 0.3]


@pytest.mark.parametrize("command", ["converge", "nbody"])
def test_bundle_is_built_before_any_system(tmp_path, monkeypatch, command):
    # the bundle is built from the grid alone, so a run builds it first and
    # then assembles each coupling once, in the loop that reads it; no system
    # is alive while the bundle build sets the run's peak memory.  The
    # restriction check's own 24-node grid is not the run's
    from diracdiag import decoupling

    calls = []
    build, assemble = decoupling.build_decoupling_bundle, op.assemble_system

    def tracked_build(grid, order):
        calls.append((grid.n, "bundle"))
        return build(grid, order)

    def tracked_assemble(grid, gamma):
        calls.append((grid.n, gamma))
        return assemble(grid, gamma)

    monkeypatch.setattr(decoupling, "build_decoupling_bundle", tracked_build)
    monkeypatch.setattr(op, "assemble_system", tracked_assemble)
    cfg = write_cfg(tmp_path, {"grid": {"n": 64}, "gamma_list": [0.1, 0.2], "series_order": 4,
                               "nbody": {"n_particles": 2, "n_plus": 4}})
    assert cli.main([command, "--config", cfg, "--output", str(tmp_path / "o")]) == 0
    assert [what for n, what in calls if n == 64] == ["bundle", 0.1, 0.2]


def test_resolution_failure_exit_3(tmp_path):
    # 24 momentum nodes cannot carry the radial transform of the pair gate
    cfg = write_cfg(tmp_path, {
        "grid": {"n": 24}, "gamma_list": [0.1], "series_order": 3,
        "nbody": {"n_particles": 2, "n_plus": 4},
    })
    out = run_cli(["nbody", "--config", cfg, "--output", str(tmp_path / "o")], tmp_path)
    assert out.returncode == 3
    assert "numerical failure:" in out.stderr
    assert "round-trip defect" in out.stderr


def test_weight_gate_fires_in_a_run_exit_3(tmp_path):
    # at Z = 1e-30 the pair term, scaled by gamma / Z, swamps the kinetic
    # term: every earlier gate passes, and the Cholesky factorization of the
    # Furry Hamiltonian stops, so the weight gate can fire in a run
    cfg = write_cfg(tmp_path, {
        "grid": {"n": 64}, "gamma_list": [0.2], "series_order": 4,
        "nbody": {"n_particles": 2, "n_plus": 4, "z_charge": 1e-30},
    })
    out = run_cli(["nbody", "--config", cfg, "--output", str(tmp_path / "o")], tmp_path)
    assert out.returncode == 3
    assert out.stderr.splitlines()[-1] == ("numerical failure: weight matrix not positive "
                                           "definite: smallest Cholesky pivot nan")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_underresolved_grid_fails(tmp_path):
    cfg = write_cfg(tmp_path, {"grid": {"n": 8}, "gamma_list": [0.1]})
    out_dir = tmp_path / "o"
    out = run_cli(["validate", "--config", cfg, "--output", str(out_dir)], tmp_path)
    assert out.returncode == 1
    assert "validation failed:" in out.stderr
    assert "hydrogen_momentum_ground" in out.stderr
    report = (out_dir / "validation_report.txt").read_text(encoding="utf-8")
    ground = [ln for ln in report.splitlines()
              if ln.startswith("hydrogen_momentum_ground")]
    assert ground and "FAIL" in ground[0]
    # 8 nodes cannot carry the radial transform either
    pair = [ln for ln in report.splitlines() if ln.startswith("pair_round_trip")]
    assert pair and "FAIL" in pair[0]


def test_validate_reads_the_one_particle_record(tmp_path):
    # validate's per-coupling checks are one-particle's record, value for
    # value; at zero coupling it skips the Sommerfeld and D_gamma^2 checks
    cfg = write_cfg(tmp_path, {"grid": {"n": 32}, "gamma_list": [0.0, 0.1, 0.2]})
    # 32 nodes fail validate's hydrogen check (exit 1) after every check ran
    assert cli.main(["validate", "--config", cfg, "--output", str(tmp_path)]) == 1
    assert cli.main(["one-particle", "--config", cfg, "--output", str(tmp_path)]) == 0
    checks = {c["name"]: c["value"] for c in
              json.loads((tmp_path / "validation.json").read_text())["results"]["checks"]}
    per_gamma = json.loads((tmp_path / "one_particle.json").read_text())["results"]["per_gamma"]
    compared = 0
    for r in per_gamma:
        keys = {"unitarity": "unitarity_residual", "intertwining": "intertwining_residual",
                "gap_bound": "gap", "sommerfeld_ground": "sommerfeld_rel_error",
                "dgamma_bound": "dgamma_margin"}
        for check, key in keys.items():
            name = f"{check}_gamma_{r['gamma']:.4f}"
            if r["gamma"] == 0.0 and check in ("sommerfeld_ground", "dgamma_bound"):
                assert name not in checks
                continue
            assert checks[name] == r[key], name
            compared += 1
    assert compared == 13


def test_validate_default_scale_passes(tmp_path):
    # the full oracle suite on the shipped defaults: n=200, three couplings
    out_dir = tmp_path / "o"
    out = run_cli(["validate", "--output", str(out_dir)], tmp_path)
    assert out.returncode == 0, out.stderr
    doc = json.loads((out_dir / "validation.json").read_text(encoding="utf-8"))
    checks = doc["results"]["checks"]
    assert all(c["passed"] for c in checks if c["hard"])
    names = {c["name"] for c in checks}
    assert "hydrogen_momentum_ground" in names
    assert "kato_lower_bound" in names
    assert "slater_monopole_q_0.5" in names
    assert "unitarity_gamma_0.3000" in names


@pytest.mark.parametrize("kappa", [-2, 1])
def test_validate_passes_in_the_l1_channels(tmp_path, kappa):
    # l_upper = 1: the Slater oracle is the channel's nodeless 2p-like state,
    # and the hydrogen check meets its 1e-6 bound from about n = 260
    cfg = write_cfg(tmp_path, {"grid": {"kappa": kappa, "n": 260}})
    assert cli.main(["validate", "--config", cfg, "--output", str(tmp_path / "o")]) == 0
    checks = json.loads((tmp_path / "o" / "validation.json").read_text())["results"]["checks"]
    assert {"slater_monopole_q_0.5", "slater_monopole_q_1"} <= {c["name"] for c in checks}
    assert all(c["passed"] for c in checks if c["hard"])


# ---------------------------------------------------------------------------
# one-particle
# ---------------------------------------------------------------------------

def test_one_particle_outputs(tmp_path):
    cfg = write_cfg(tmp_path, {"grid": {"n": 100}, "gamma_list": [0.0, 0.3]})
    out_dir = tmp_path / "o"
    out = run_cli(["one-particle", "--config", cfg, "--output", str(out_dir)], tmp_path)
    assert out.returncode == 0, out.stderr
    for tag in ("0p0000", "0p3000"):
        cells = read_csv_cells(out_dir / f"one_particle_gamma_{tag}.csv")
        assert cells[0] == ["index", "eigenvalue", "sommerfeld_reference", "rel_error"]
        evals = [float(row[1]) for row in cells[1:]]
        assert evals == sorted(evals)
        assert len(evals) == 200
    # the coupled run labels bound rows with references
    cells = read_csv_cells(out_dir / "one_particle_gamma_0p3000.csv")
    labeled = [row for row in cells[1:] if row[2] != ""]
    assert labeled
    assert float(labeled[0][3]) < 1e-4
    # at zero coupling the decoupling unitary is exactly the identity
    summary = read_csv_cells(out_dir / "one_particle_summary.csv")
    row0 = dict(zip(summary[0], summary[1]))
    assert float(row0["gamma"]) == 0.0
    assert float(row0["unitarity_residual"]) < 1e-12
    assert float(row0["intertwining_residual"]) < 1e-12


def test_output_flag_recorded(tmp_path):
    cfg = write_cfg(tmp_path, {"grid": {"n": 16}, "gamma_list": [0.1]})
    out_dir = tmp_path / "results"
    out = run_cli(["one-particle", "--config", cfg, "--output", str(out_dir)], tmp_path)
    assert out.returncode == 0, out.stderr
    doc = json.loads((out_dir / "one_particle.json").read_text(encoding="utf-8"))
    assert doc["config"]["output_dir"] == str(out_dir)


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def test_converge_single_particle_round_trip(tmp_path):
    cfg = write_cfg(tmp_path, {
        "grid": {"n": 64}, "gamma_list": [0.1, 0.2], "series_order": 6,
        "nbody": {"n_particles": 1, "n_plus": 6},
    })
    out_dir = tmp_path / "o"
    out = run_cli(["converge", "--config", cfg, "--output", str(out_dir)], tmp_path)
    assert out.returncode == 0, out.stderr
    rows = read_report_csv(str(out_dir / "converge_n1.csv"))
    assert len(rows) == 2 * 7
    for gamma in (0.1, 0.2):
        sub = sorted((r for r in rows if r["gamma"] == gamma), key=lambda r: r["k"])
        dists = [r["resolvent_distance"] for r in sub]
        assert min(dists) == dists[-1]  # the full order is the best truncation
        assert 0.0 < sub[0]["fitted_ratio"] < 1.0
    # writing the parsed rows back reproduces the file byte for byte
    copy = tmp_path / "copy.csv"
    write_report_csv(str(copy), rows)
    assert copy.read_bytes() == (out_dir / "converge_n1.csv").read_bytes()
    doc = json.loads((out_dir / "converge.json").read_text(encoding="utf-8"))
    assert len(doc["results"]["n1"]["rows"]) == len(rows)


def test_converge_two_particle(tmp_path):
    cfg = write_cfg(tmp_path, {
        "grid": {"n": 100}, "gamma_list": [0.1, 0.3], "series_order": 6,
        "nbody": {"n_particles": 2, "z_charge": 2.0, "n_plus": 6},
    })
    out_dir = tmp_path / "o"
    out = run_cli(["converge", "--config", cfg, "--output", str(out_dir)], tmp_path)
    assert out.returncode == 0, out.stderr
    rows = read_report_csv(str(out_dir / "converge_n2.csv"))
    for gamma in (0.1, 0.3):
        sub = sorted((r for r in rows if r["gamma"] == gamma), key=lambda r: r["k"])
        assert sub[-1]["resolvent_distance"] < 1e-6
        assert sub[-1]["resolvent_distance"] < sub[1]["resolvent_distance"]
    doc = json.loads((out_dir / "converge.json").read_text(encoding="utf-8"))
    assert doc["results"]["n2"]["restriction_gate"] < 1e-8


# ---------------------------------------------------------------------------
# nbody
# ---------------------------------------------------------------------------

def test_nbody_single_particle_matches_one_particle(tmp_path):
    doc = {
        "grid": {"n": 100}, "gamma_list": [0.3], "series_order": 4,
        "nbody": {"n_particles": 1, "n_plus": 8},
    }
    cfg = write_cfg(tmp_path, doc)
    op_dir, nb_dir = tmp_path / "op", tmp_path / "nb"
    assert run_cli(["one-particle", "--config", cfg, "--output", str(op_dir)],
                   tmp_path).returncode == 0
    assert run_cli(["nbody", "--config", cfg, "--output", str(nb_dir)],
                   tmp_path).returncode == 0
    op_cells = read_csv_cells(op_dir / "one_particle_gamma_0p3000.csv")
    positive = sorted(float(r[1]) for r in op_cells[1:] if float(r[1]) > 0.0)[:8]
    nb_cells = read_csv_cells(nb_dir / "nbody_levels_gamma_0p3000.csv")
    furry = [float(r[1]) for r in nb_cells[1:]]
    assert np.max(np.abs(np.array(furry) - np.array(positive))) < 1e-10


def test_nbody_two_particle_outputs(tmp_path):
    cfg = write_cfg(tmp_path, {
        "grid": {"n": 100}, "gamma_list": [0.3], "series_order": 6,
        "nbody": {"n_particles": 2, "z_charge": 2.0, "n_plus": 6},
    })
    out_dir = tmp_path / "o"
    out = run_cli(["nbody", "--config", cfg, "--output", str(out_dir)], tmp_path)
    assert out.returncode == 0, out.stderr
    levels = read_csv_cells(out_dir / "nbody_levels_gamma_0p3000.csv")
    assert levels[0] == ["index", "furry_eigenvalue", "diag_eigenvalue", "abs_diff"]
    assert len(levels) == 1 + 36
    assert max(float(r[3]) for r in levels[1:]) < 1e-9
    series = read_csv_cells(out_dir / "nbody_series_gamma_0p3000.csv")
    ground_errors = [float(r[2]) for r in series[1:]]
    assert ground_errors[-1] < 1e-6
    doc = json.loads((out_dir / "nbody.json").read_text(encoding="utf-8"))
    diag = doc["results"]["per_gamma"][0]
    assert diag["spectrum_agreement"] < 1e-9
    assert diag["ground_furry"] > diag["positivity_floor"]
    assert diag["form_bound_value"] < diag["form_bound_limit"] + 1e-4
    assert diag["kinetic_weight_value"] < diag["kinetic_weight_limit"] + 1e-4


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def determinism_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("determinism")
    cfg = write_cfg(base, {"grid": {"n": 100}, "gamma_list": [0.1, 0.3]})
    dirs = {}
    for name, threads in (("a", 1), ("b", 1), ("c", 2)):
        out_dir = base / name
        res = run_cli(["one-particle", "--config", cfg, "--output", str(out_dir),
                       "--threads", str(threads)], base)
        assert res.returncode == 0, res.stderr
        dirs[name] = out_dir
    return dirs


CSV_NAMES = ("one_particle_gamma_0p1000.csv", "one_particle_gamma_0p3000.csv",
             "one_particle_summary.csv")


def test_single_thread_runs_byte_identical(determinism_runs):
    for name in CSV_NAMES:
        a = (determinism_runs["a"] / name).read_bytes()
        b = (determinism_runs["b"] / name).read_bytes()
        assert a == b
    doc_a = json.loads((determinism_runs["a"] / "one_particle.json").read_text())
    doc_b = json.loads((determinism_runs["b"] / "one_particle.json").read_text())
    for doc in (doc_a, doc_b):
        doc.pop("generated_at")
        doc["config"].pop("output_dir")  # the one legitimate difference
    assert doc_a == doc_b


def test_multi_thread_run_matches_closely(determinism_runs):
    for name in CSV_NAMES:
        a = read_csv_cells(determinism_runs["a"] / name)
        c = read_csv_cells(determinism_runs["c"] / name)
        assert a[0] == c[0] and len(a) == len(c)
        for row_a, row_c in zip(a[1:], c[1:]):
            for cell_a, cell_c in zip(row_a, row_c):
                if cell_a == "" or cell_c == "":
                    assert cell_a == cell_c
                    continue
                assert np.isclose(float(cell_a), float(cell_c),
                                  rtol=1e-13, atol=1e-13)


def test_config_digest_consistent_across_commands(tmp_path):
    cfg = write_cfg(tmp_path, {
        "grid": {"n": 64}, "gamma_list": [0.1], "series_order": 4,
        "nbody": {"n_particles": 1, "n_plus": 6},
    })
    op_dir, cv_dir = tmp_path / "op", tmp_path / "cv"
    assert run_cli(["one-particle", "--config", cfg, "--output", str(op_dir)],
                   tmp_path).returncode == 0
    assert run_cli(["converge", "--config", cfg, "--output", str(cv_dir)],
                   tmp_path).returncode == 0
    op_doc = json.loads((op_dir / "one_particle.json").read_text(encoding="utf-8"))
    cv_doc = json.loads((cv_dir / "converge.json").read_text(encoding="utf-8"))
    assert op_doc["config_sha256"] == cv_doc["config_sha256"]
