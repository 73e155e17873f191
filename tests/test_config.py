"""Config parsing: strict keys, typed values, window checks, stable digest."""

import json

import pytest

from diracdiag.config import (
    DIMENSION_CAP,
    GAMMA_CRITICAL,
    GAMMA_WINDOW,
    ORDER_CAP,
    GridConfig,
    NbodyConfig,
    RunConfig,
    config_digest,
    config_from_dict,
    load_config,
    require_convergence_window,
)
from diracdiag.errors import ConfigError


def test_defaults_valid():
    cfg = RunConfig()
    assert cfg.grid.n == 200
    assert cfg.series_order == 12
    assert cfg.nbody.n_particles == 2
    assert cfg.gamma_list == (0.1, 0.2, 0.3)


def test_from_dict_overrides():
    cfg = config_from_dict({
        "grid": {"n": 64, "kappa": -2},
        "gamma_list": [0.05, 0.25],
        "series_order": 6,
        "nbody": {"n_plus": 5, "antisymmetrize": True},
        "output_dir": "elsewhere",
    })
    assert cfg.grid.n == 64 and cfg.grid.kappa == -2
    assert cfg.grid.map_scale == 1.0
    assert cfg.gamma_list == (0.05, 0.25)
    assert cfg.nbody.antisymmetrize is True
    assert cfg.output_dir == "elsewhere"


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown config key 'tolerance'"):
        config_from_dict({"tolerance": {}})
    for key in ("seed", "contour", "tolerances"):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            config_from_dict({key: {}})


def test_unknown_nested_key():
    # the gap slack is a constant of the program, not a config value
    with pytest.raises(ConfigError, match="unknown config key 'tolerances'"):
        config_from_dict({"tolerances": {"tol_gap": 1e-6}})
    with pytest.raises(ConfigError, match="grid.nodes"):
        config_from_dict({"grid": {"nodes": 100}})
    with pytest.raises(ConfigError, match="nbody.n_plu"):
        config_from_dict({"nbody": {"n_plu": 5}})


def test_type_errors():
    with pytest.raises(ConfigError, match="integer"):
        config_from_dict({"grid": {"n": 100.5}})
    with pytest.raises(ConfigError, match="integer"):
        config_from_dict({"grid": {"n": True}})
    with pytest.raises(ConfigError, match="boolean"):
        config_from_dict({"nbody": {"antisymmetrize": 1}})
    with pytest.raises(ConfigError, match="number"):
        config_from_dict({"gamma_list": ["0.1"]})
    # ints are acceptable where floats are wanted
    cfg = config_from_dict({"nbody": {"z_charge": 2}})
    assert cfg.nbody.z_charge == 2.0


def test_gamma_window_enforced():
    with pytest.raises(ConfigError, match="window"):
        config_from_dict({"gamma_list": [0.7]})
    with pytest.raises(ConfigError, match="window"):
        config_from_dict({"gamma_list": [-0.1]})
    cfg = config_from_dict({"gamma_list": [GAMMA_WINDOW - 1e-6]})
    assert cfg.gamma_list[0] < GAMMA_WINDOW


def test_empty_gamma_list_message():
    with pytest.raises(ConfigError, match="nothing to do"):
        config_from_dict({"gamma_list": []})


def test_validate_rejects_bad_fields():
    import dataclasses
    base = RunConfig()
    with pytest.raises(ConfigError, match="kappa"):
        dataclasses.replace(base, grid=dataclasses.replace(base.grid, kappa=0))
    with pytest.raises(ConfigError, match="series_order"):
        dataclasses.replace(base, series_order=0)
    assert dataclasses.replace(base, series_order=ORDER_CAP).series_order == ORDER_CAP
    with pytest.raises(ConfigError, match=r"^series_order must lie in \[1, 64\], got 65$"):
        dataclasses.replace(base, series_order=ORDER_CAP + 1)


def test_colliding_coupling_tags():
    # per-coupling output files are named by the 4-decimal tag
    with pytest.raises(ConfigError, match="0.1 and gamma 0.10004 share the output file tag 0p1000"):
        config_from_dict({"gamma_list": [0.1, 0.10004]})
    with pytest.raises(ConfigError, match="file tag 0p2000"):
        RunConfig(gamma_list=(0.2, 0.3, 0.2))
    assert RunConfig(gamma_list=(0.1, 0.1001)).gamma_list == (0.1, 0.1001)


def test_retained_dimension_cap():
    # n_plus ** n_particles may not exceed DIMENSION_CAP = 20000: 27^3 = 19683
    # passes, 28^3 = 21952 does not
    assert DIMENSION_CAP == 20000
    assert config_from_dict({"nbody": {"n_particles": 3, "n_plus": 27}}).nbody.n_plus == 27
    with pytest.raises(ConfigError, match=r"28\^3 exceeds the cap 20000"):
        config_from_dict({"nbody": {"n_particles": 3, "n_plus": 28}})


def test_convergence_window_gate():
    require_convergence_window(config_from_dict({"gamma_list": [0.3]}))
    with pytest.raises(ConfigError, match="critical"):
        require_convergence_window(config_from_dict({"gamma_list": [GAMMA_CRITICAL]}))
    with pytest.raises(ConfigError, match="critical"):
        require_convergence_window(config_from_dict({"gamma_list": [0.1, 0.5]}))


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"grid": {"n": 40}}), encoding="utf-8")
    assert load_config(str(good)).grid.n == 40
    assert load_config(None) == RunConfig()


def test_config_echo_reloads():
    # every output JSON records cfg.to_dict(); reading it back must give the
    # same config, for the defaults and for a config that sets every field
    full = RunConfig(grid=GridConfig(kappa=2, n=48, map_scale=0.5), gamma_list=(0.05, 0.25),
                     series_order=5, nbody=NbodyConfig(n_particles=3, z_charge=3.0, n_plus=6,
                                                       antisymmetrize=True),
                     output_dir="elsewhere")
    for cfg in (RunConfig(), full):
        assert config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_digest_stability():
    a = config_from_dict({"grid": {"n": 100}, "gamma_list": [0.1]})
    b = config_from_dict({"gamma_list": [0.1], "grid": {"n": 100}})
    assert config_digest(a) == config_digest(b)
    assert len(config_digest(a)) == 64
    c = config_from_dict({"grid": {"n": 101}, "gamma_list": [0.1]})
    assert config_digest(a) != config_digest(c)
    # destination is plumbing, not physics
    d = config_from_dict({"grid": {"n": 100}, "gamma_list": [0.1],
                          "output_dir": "elsewhere"})
    assert config_digest(a) == config_digest(d)
