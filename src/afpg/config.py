"""Flat key=value run configuration.

One ``section.key=value`` per line; ``#`` starts a comment and blank
lines are ignored.  ``parse_config`` fills defaults, validates ranges
and returns a RunConfig; ``serialize_config`` writes the normalized
form (every key, sorted), which round-trips through the parser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from afpg.timestep import SCHEMES

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config", "serialize_config"]


# Most steps a run may ask for: a larger t_end / dt would not finish in
# any useful time, so it is rejected instead of run.  A fixed time.dt is
# checked here; a CFL step depends on the wave speed and is checked by
# the harness on the initial state.
MAX_STEPS = 10**8


class ConfigError(ValueError):
    pass


def _parse_int(s):
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}") from None


def _parse_float(s):
    try:
        value = float(s)
    except ValueError:
        raise ConfigError(f"expected a number, got {s!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {s!r}")
    return value


def _parse_matrix(s):
    if not s.strip():
        return ()
    return tuple(tuple(_parse_float(x) for x in row.split(",")) for row in s.split(";"))


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):  # model.matrix
        return ";".join(",".join(repr(float(x)) for x in row) for row in value)
    return str(value)


@dataclass
class RunConfig:
    dimension: int = 1
    degree: int = 2
    grid_n: int = 40
    grid_nx: int = 20
    grid_ny: int = 20
    grid_x_min: float = 0.0
    grid_x_max: float = 1.0
    grid_y_min: float = 0.0
    grid_y_max: float = 1.0
    model_name: str = "advection"
    model_a: float = 1.0
    model_ax: float = 1.0
    model_ay: float = 1.0
    model_matrix: tuple = field(default=(), metadata={"parser": _parse_matrix})
    model_point_update: str = "split"
    ic_name: str = "sine"
    ic_mean: float = 0.0
    ic_amplitude: float = 1.0
    ic_cycles: int = 1
    ic_center: float = 0.5
    ic_width: float = 0.1
    ic_slope: float = 1.0
    upwind_mode: str = "adaptive"
    time_scheme: str = "ssprk3"
    time_cfl: float = 0.2
    time_dt: float = 0.0
    time_t_end: float = 1.0
    output_dir: str = ""
    output_snapshot_every: int = 0


_PARSERS = {int: _parse_int, float: _parse_float, str: str}

# key in the file -> (attribute, parser).  The key is the attribute with
# its first "_" made "." (degree is "k"); the parser follows the type of
# the default, unless the field names its own.
_SCHEMA = {
    "k" if f.name == "degree" else f.name.replace("_", ".", 1):
        (f.name, f.metadata.get("parser") or _PARSERS[type(f.default)])
    for f in fields(RunConfig)
}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in _SCHEMA.items()}

_CHOICES = {
    "dimension": (1, 2),
    "model_name": ("advection", "burgers", "linear_system"),
    "model_point_update": ("split", "exact"),
    "ic_name": ("sine", "gaussian", "linear"),
    # one value: every interface weight follows the sign of the wave
    # speed; the key stays so that configs which name it still parse
    "upwind_mode": ("adaptive",),
    "time_scheme": SCHEMES,
}


# Per choice key, the keys that only some of its values read.  Under a
# value that does not list it, such a key is never read, so only its
# default is accepted there.
_READ_UNDER = {
    "dimension": {
        1: ("grid_n", "model_a", "model_matrix", "model_point_update"),
        2: ("grid_nx", "grid_ny", "grid_y_min", "grid_y_max", "model_ax", "model_ay"),
    },
    "model_name": {
        "advection": ("model_a", "model_ax", "model_ay"),
        "burgers": ("model_point_update",),
        "linear_system": ("model_matrix",),
    },
    "ic_name": {
        "sine": ("ic_mean", "ic_amplitude", "ic_cycles"),
        "gaussian": ("ic_mean", "ic_amplitude", "ic_center", "ic_width"),
        "linear": ("ic_mean", "ic_slope"),
    },
}


def _check_read(cfg: RunConfig):
    """Reject a non-default value of a key that the run never reads."""
    defaults = RunConfig()
    for choice, read_under in _READ_UNDER.items():
        value = getattr(cfg, choice)
        for attr in dict.fromkeys(a for attrs in read_under.values() for a in attrs):
            key, default = _ATTR_TO_KEY[attr], getattr(defaults, attr)
            if attr not in read_under.get(value, ()) and getattr(cfg, attr) != default:
                raise ConfigError(f"{key} is not read with {_ATTR_TO_KEY[choice]}={value}:"
                                  f" leave it out (default {key}={_fmt(default)})")
    # a positive time.dt fixes every step, so time.cfl is never read
    if cfg.time_dt > 0 and cfg.time_cfl != defaults.time_cfl:
        raise ConfigError(f"time.cfl is not read with time.dt={_fmt(cfg.time_dt)} > 0:"
                          f" leave it out (default time.cfl={_fmt(defaults.time_cfl)})")


def _finite_phase(cycles: int, width: float) -> bool:
    """Whether the sine phase 2 pi cycles (x - x_min) stays finite up to
    x - x_min = width, in the order models.SineIC forms it."""
    try:
        return math.isfinite(2.0 * math.pi * cycles * width)
    except OverflowError:  # cycles too large for a float
        return False


def _validate(cfg: RunConfig) -> RunConfig:
    for attr, choices in _CHOICES.items():
        if getattr(cfg, attr) not in choices:
            raise ConfigError(
                f"{_ATTR_TO_KEY[attr]} must be one of {choices}, got {getattr(cfg, attr)!r}"
            )
    if cfg.degree < 2 or cfg.degree > 6:
        raise ConfigError("k must lie in 2..6")
    if cfg.dimension == 2 and cfg.degree != 2:
        raise ConfigError("2-d runs support k = 2 only")
    for attr in ("grid_n", "grid_nx", "grid_ny"):
        if getattr(cfg, attr) < 3:
            raise ConfigError(f"{_ATTR_TO_KEY[attr]} must be >= 3")
    for axis in ("x", "y"):
        width = getattr(cfg, f"grid_{axis}_max") - getattr(cfg, f"grid_{axis}_min")
        if not width > 0:
            raise ConfigError(f"grid.{axis}_max must exceed grid.{axis}_min")
        if not math.isfinite(width):
            raise ConfigError(f"grid.{axis}_max - grid.{axis}_min must be finite")
        if cfg.ic_name == "sine" and not _finite_phase(cfg.ic_cycles, width):
            raise ConfigError(
                f"2 pi ic.cycles (grid.{axis}_max - grid.{axis}_min) must be finite"
            )
    if cfg.ic_name == "gaussian" and not cfg.ic_width > 0:
        raise ConfigError("ic.width must be > 0 for ic.name=gaussian")
    if cfg.time_dt < 0:
        raise ConfigError("time.dt must be >= 0 (0: use time.cfl)")
    if cfg.time_cfl <= 0 and cfg.time_dt <= 0:
        raise ConfigError("set a positive time.cfl or time.dt")
    if cfg.time_t_end < 0:
        raise ConfigError("time.t_end must be >= 0")
    if cfg.time_dt > 0 and cfg.time_t_end / cfg.time_dt > MAX_STEPS:
        raise ConfigError(f"time.t_end / time.dt must not exceed {MAX_STEPS} steps")
    if cfg.output_snapshot_every < 0:
        raise ConfigError("output.snapshot_every must be >= 0")
    if cfg.model_name == "linear_system":
        m = cfg.model_matrix
        if not m or any(len(row) != len(m) for row in m):
            raise ConfigError("model.matrix must be a square matrix (rows ; separated)")
        if len(m) < 2:
            raise ConfigError("model.matrix must be at least 2x2 (use model.name=advection)")
    if cfg.dimension == 2 and cfg.model_name != "advection":
        raise ConfigError(f"model.name={cfg.model_name} is one-dimensional:"
                          " 2-d runs support model.name=advection")
    if cfg.model_name == "burgers" and cfg.ic_name == "linear" and cfg.ic_slope != 0:
        raise ConfigError("model.name=burgers needs ic.slope=0 with ic.name=linear: the"
                          " periodic ramp jumps at the wrap, a shock or fan at t = 0")
    _check_read(cfg)
    if cfg.model_point_update == "exact" and cfg.degree != 2:
        raise ConfigError("model.point_update=exact needs k = 2")
    return cfg


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, parser = _SCHEMA[key]
        setattr(cfg, attr, parser(value.strip()))
    return _validate(cfg)


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_config(text)


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(cfg):
        key = _ATTR_TO_KEY[f.name]
        lines.append(f"{key}={_fmt(getattr(cfg, f.name))}")
    return "\n".join(sorted(lines)) + "\n"
