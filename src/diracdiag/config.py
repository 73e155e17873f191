"""Run configuration: defaults, strict parsing, canonical serialization.

Every config object checks its fields when it is built, so one that exists
is valid, whether it comes from JSON, a library caller or
``dataclasses.replace``.  Pure standard library on purpose: the command
line front end imports this before numpy, so thread environment variables
can take effect first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field

from .errors import ConfigError
from .report import gamma_tag

GAMMA_WINDOW = 0.6
GAMMA_CRITICAL = 0.3775
DIMENSION_CAP = 20000  # largest retained product dimension n_plus ** n_particles
ORDER_CAP = 64  # largest series order, of series_order and of ``series.make_series``


@dataclass(frozen=True)
class GridConfig:
    kappa: int = -1
    n: int = 200
    map_scale: float = 1.0

    def __post_init__(self):
        if self.kappa == 0:
            raise ConfigError("grid.kappa must be a nonzero integer")
        if self.n < 4:
            raise ConfigError(f"grid.n must be at least 4, got {self.n}")
        if not 0 < self.map_scale < math.inf:  # NaN and infinities fail too
            raise ConfigError(f"grid.map_scale must be positive, got {self.map_scale}")


@dataclass(frozen=True)
class NbodyConfig:
    """Shape of the N-particle computation."""

    n_particles: int = 2
    z_charge: float = 2.0
    n_plus: int = 20
    antisymmetrize: bool = False

    def __post_init__(self):
        if self.n_particles < 1:
            raise ConfigError(f"nbody.n_particles must be at least 1, got {self.n_particles}")
        if not 0 < self.z_charge < math.inf:
            raise ConfigError(f"nbody.z_charge must be positive, got {self.z_charge}")
        if self.n_plus < 1:
            raise ConfigError(f"nbody.n_plus must be at least 1, got {self.n_plus}")
        if self.n_plus ** self.n_particles > DIMENSION_CAP:
            raise ConfigError(f"retained dimension nbody.n_plus ** nbody.n_particles = "
                              f"{self.n_plus}^{self.n_particles} exceeds the cap {DIMENSION_CAP}")
        if self.antisymmetrize and self.n_particles > self.n_plus:
            raise ConfigError("nbody.antisymmetrize needs n_plus >= n_particles")


@dataclass(frozen=True)
class RunConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    gamma_list: tuple[float, ...] = (0.1, 0.2, 0.3)
    series_order: int = 12
    nbody: NbodyConfig = field(default_factory=NbodyConfig)
    output_dir: str = "out"

    def __post_init__(self):
        if not self.gamma_list:
            raise ConfigError("gamma_list is empty: nothing to do")
        seen = {}  # per-coupling output files are named by the tag
        for gamma in self.gamma_list:
            if not 0.0 <= gamma < GAMMA_WINDOW:
                raise ConfigError(
                    f"gamma {gamma} outside the supported window [0, {GAMMA_WINDOW})")
            tag = gamma_tag(gamma)
            if tag in seen:
                raise ConfigError(f"gamma {seen[tag]} and gamma {gamma} share the output "
                                  f"file tag {tag}")
            seen[tag] = gamma
        if not 1 <= self.series_order <= ORDER_CAP:
            raise ConfigError(f"series_order must lie in [1, {ORDER_CAP}], got {self.series_order}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _coerce(key: str, value, want):
    if want is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"key '{key}' must be a boolean, got {value!r}")
        return value
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"key '{key}' must be an integer, got {value!r}")
        return value
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key '{key}' must be a number, got {value!r}")
        return float(value)
    if want is str:
        if not isinstance(value, str):
            raise ConfigError(f"key '{key}' must be a string, got {value!r}")
        return value
    raise AssertionError(want)


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from parsed JSON, rejecting unknown or mistyped keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config document must be an object, got {type(raw).__name__}")
    return _from_dict(RunConfig, raw, "")


def _from_dict(cls, raw: dict, prefix: str):
    """Build the config dataclass cls from raw, its fields being the schema.

    A nested dataclass is read from a JSON object, ``tuple[float, ...]``
    from a list of numbers, and every other field by ``_coerce``.  prefix
    names the enclosing group in error messages ("grid." or "").
    """
    hints = typing.get_type_hints(cls)
    for key in raw:
        if key not in hints:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
    kwargs = {}
    for key, want in hints.items():
        if key not in raw:
            continue
        name, value = prefix + key, raw[key]
        if dataclasses.is_dataclass(want):
            if not isinstance(value, dict):
                raise ConfigError(f"key '{name}' must be an object")
            kwargs[key] = _from_dict(want, value, f"{name}.")
        elif want == tuple[float, ...]:
            if not isinstance(value, list):
                raise ConfigError(f"key '{name}' must be a list of numbers")
            kwargs[key] = tuple(_coerce(name, v, float) for v in value)
        else:
            kwargs[key] = _coerce(name, value, want)
    return cls(**kwargs)


def load_config(path: str | None) -> RunConfig:
    """Read a JSON config file; no path means all defaults."""
    if path is None:
        return RunConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def require_convergence_window(cfg: RunConfig) -> None:
    """Rules of the series commands (converge, nbody), checked before any output.

    Convergence claims need couplings strictly below the critical value,
    and the nbody.n_plus retained states must exist: a grid of n nodes has
    exactly n positive states.  The other commands never read n_plus.
    """
    if cfg.nbody.n_plus > cfg.grid.n:
        raise ConfigError(f"nbody.n_plus {cfg.nbody.n_plus} exceeds the {cfg.grid.n} positive "
                          f"states of a grid with grid.n = {cfg.grid.n}")
    for gamma in cfg.gamma_list:
        if gamma >= GAMMA_CRITICAL:
            raise ConfigError(
                f"gamma {gamma} is not below the critical coupling {GAMMA_CRITICAL}; "
                f"the expansion is not guaranteed to converge there")


def config_digest(cfg: RunConfig) -> str:
    """Stable hash of the canonical JSON form, recorded in every output.

    The output directory is excluded: runs that differ only in where they
    write are the same computation and share a digest.
    """
    canon = cfg.to_dict()
    canon.pop("output_dir", None)
    payload = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
