"""Run configuration: parsing, validation, serialization and initial data.

The format is line-based ``key = value`` under ``[section]`` headers. Unknown
sections or keys are rejected. Defaults are the standard smooth 1D fixture
("std1d"): n=128 on the 2 pi torus, R0 = 1 + 0.2 sin x, Q0 = 1 + 0.2 cos x,
u0 = 0.1 sin x, gamma_plus = 3/2, gamma_minus = 3, mu = 0.1, lambda = 0,
T = 0.5, cfl = 0.4. An empty file therefore parses to std1d.

Fourier modes are ``amplitude k_1 .. k_dim phase`` giving
amplitude * sin(2 pi (k . x) / L + phase). When any ``mode`` key appears in
a section it replaces that field's default mode list instead of extending it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closure import ClosureParams
from .dynamics import SimParams, State
from .errors import ConfigError, DomainError
from .grids import PeriodicGrid
from .twin import Perturbation

_COMPONENTS = ("x", "y", "z")


@dataclass(frozen=True)
class FourierMode:
    amplitude: float
    wavevector: tuple[int, ...]
    phase: float


@dataclass(frozen=True)
class FieldSpec:
    constant: float
    modes: tuple[FourierMode, ...] = ()


@dataclass(frozen=True)
class RunConfig:
    grid: PeriodicGrid
    params: SimParams
    initial_R: FieldSpec
    initial_Q: FieldSpec
    initial_u: tuple[FieldSpec, ...]
    perturbation: Perturbation
    fields: bool  # write the initial and final field dumps


def _fmt(x: float) -> str:
    return f"{x:.17g}"


_DEFAULT_TEXT = f"""\
[grid]
dim = 1
n = 128
length = {_fmt(2.0 * math.pi)}

[physics]
gamma_plus = 1.5
gamma_minus = 3
mu = 0.1
lambda = 0

[time]
t_end = 0.5
cfl = 0.4
density_floor = 1e-10

[initial_R]
constant = 1
mode = 0.2 1 0

[initial_Q]
constant = 1
mode = 0.2 1 {_fmt(0.5 * math.pi)}

[initial_u]
constant_x = 0
mode_x = 0.1 1 0

[perturbation]
delta = 0.001
wavevector = 2
phase = 0

[output]
fields = false
"""


def _to_float(section, key, value) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {value!r} as a number")
    if not math.isfinite(out):
        raise ConfigError(f"[{section}] {key}: value must be finite")
    return out


def _to_int(section, key, value) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {value!r} as an integer")


def _to_bool(section, key, value) -> bool:
    v = value.lower()
    if v in ("true", "yes", "1", "false", "no", "0"):
        return v in ("true", "yes", "1")
    raise ConfigError(f"[{section}] {key}: expected true/false, got {value!r}")


def _to_mode(section, key, value, dim) -> FourierMode:
    parts = value.split()
    if len(parts) != dim + 2:
        raise ConfigError(
            f"[{section}] {key}: expected 'amplitude k_1..k_{dim} phase', got {value!r}"
        )
    amplitude = _to_float(section, key, parts[0])
    wavevector = tuple(_to_int(section, key, p) for p in parts[1 : 1 + dim])
    phase = _to_float(section, key, parts[-1])
    return FourierMode(amplitude=amplitude, wavevector=wavevector, phase=phase)


# Each scalar key with the parser of its value.
_SCALAR_KEYS = {
    "grid": {"dim": _to_int, "n": _to_int, "length": _to_float},
    "physics": dict.fromkeys(("gamma_plus", "gamma_minus", "mu", "lambda"), _to_float),
    "time": dict.fromkeys(("t_end", "cfl", "density_floor"), _to_float),
    "initial_R": {"constant": _to_float},
    "initial_Q": {"constant": _to_float},
    "initial_u": dict.fromkeys((f"constant_{c}" for c in _COMPONENTS), _to_float),
    "perturbation": {
        "delta": _to_float,
        "wavevector": _to_int,
        "phase": _to_float,
    },
    "output": {"fields": _to_bool},
}
_MODE_KEYS = {
    "initial_R": ("mode",),
    "initial_Q": ("mode",),
    "initial_u": tuple(f"mode_{c}" for c in _COMPONENTS),
}
# Keys whose field has another name.
_FIELD_NAMES = {"lambda": "lam"}


def _check_key(where: str, section: str, key: str | None = None) -> None:
    """Reject an unknown section, or an unknown key of a known section.

    ``where`` opens the message: a config-file line or an override.
    """
    if section not in _SCALAR_KEYS:
        raise ConfigError(f"{where} unknown section [{section}]")
    if key is not None and key not in (*_SCALAR_KEYS[section], *_MODE_KEYS.get(section, ())):
        raise ConfigError(f"{where} unknown key {key!r} in [{section}]")


def _parse_raw(text: str) -> dict[str, dict[str, list[str]]]:
    """Text to {section: {key: [values...]}} with line-number errors."""
    raw: dict[str, dict[str, list[str]]] = {}
    section: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            _check_key(f"line {lineno}:", section)
            raw.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = stripped.partition("=")
        key = key.strip()
        _check_key(f"line {lineno}:", section, key)
        bucket = raw[section].setdefault(key, [])
        if bucket and key in _SCALAR_KEYS[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        bucket.append(value.strip())
    return raw


def _merged_raw(text: str) -> dict[str, dict[str, list[str]]]:
    """User raw values on top of the std1d defaults.

    Scalar keys override individually; the presence of any mode key in a
    section drops that section's default modes. The std1d default modes are
    one-dimensional, so changing the grid dimension drops every default mode
    the user did not replace.
    """
    merged = _parse_raw(_DEFAULT_TEXT)
    user = _parse_raw(text)
    dim_changed = user.get("grid", {}).get("dim", ["1"])[0] != "1"
    for section, mode_keys in _MODE_KEYS.items():
        if dim_changed or any(k in user.get(section, {}) for k in mode_keys):
            for k in mode_keys:
                merged[section].pop(k, None)
    for section, entries in user.items():
        merged[section].update(entries)
    return merged


def _scalars(raw, section) -> dict:
    """A section's scalar keys, parsed, keyed by the name of the field they fill."""
    return {
        _FIELD_NAMES.get(key, key): parse(section, key, raw[section][key][0])
        for key, parse in _SCALAR_KEYS[section].items()
    }


def _field_spec(raw, section, suffix, dim) -> FieldSpec:
    """R or Q (suffix ""), or one velocity component (suffix "_x", "_y", "_z")."""
    entries = raw[section]
    key = f"constant{suffix}"
    return FieldSpec(
        constant=_to_float(section, key, entries.get(key, ["0"])[0]),
        modes=tuple(
            _to_mode(section, f"mode{suffix}", v, dim)
            for v in entries.get(f"mode{suffix}", [])
        ),
    )


def _checked(build, *args, **kwargs):
    """Construct a grid or parameter type, whose range checks raise ConfigError."""
    try:
        return build(*args, **kwargs)
    except DomainError as err:
        raise ConfigError(str(err)) from err


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config, applying std1d defaults.

    Value ranges are checked once, by ``PeriodicGrid``, ``ClosureParams``
    and ``SimParams``; this function checks only what they cannot see.
    """
    raw = _merged_raw(text)
    grid = _checked(PeriodicGrid, **_scalars(raw, "grid"))
    dim = grid.dim
    initial_R = _field_spec(raw, "initial_R", "", dim)
    initial_Q = _field_spec(raw, "initial_Q", "", dim)
    initial_u = tuple(_field_spec(raw, "initial_u", f"_{c}", dim) for c in _COMPONENTS[:dim])
    for c in _COMPONENTS[dim:]:
        if f"constant_{c}" in raw["initial_u"] or f"mode_{c}" in raw["initial_u"]:
            raise ConfigError(f"velocity component {c!r} exceeds grid dimension {dim}")
    physics = _scalars(raw, "physics")
    closure = _checked(ClosureParams, physics.pop("gamma_plus"), physics.pop("gamma_minus"))
    cfg = RunConfig(
        grid=grid,
        params=_checked(SimParams, closure, **physics, **_scalars(raw, "time")),
        initial_R=initial_R,
        initial_Q=initial_Q,
        initial_u=initial_u,
        perturbation=Perturbation(**_scalars(raw, "perturbation")),
        **_scalars(raw, "output"),
    )
    _validate_positivity(cfg)
    return cfg


def _validate_positivity(cfg: RunConfig):
    """Densities must be provably positive: constant - sum |amplitudes| > 0."""
    for name, spec in (("initial_R", cfg.initial_R), ("initial_Q", cfg.initial_Q)):
        budget = spec.constant - sum(abs(m.amplitude) for m in spec.modes)
        if budget <= 0.0:
            raise ConfigError(
                f"{name} is not positive everywhere: constant minus mode "
                f"amplitudes is {budget}"
            )


def default_config() -> RunConfig:
    """The std1d fixture."""
    return parse_config("")


def apply_overrides(text: str, overrides) -> str:
    """Write ``--set section.key=value`` pairs into a config text.

    Each pair acts as the line ``key = value`` under ``[section]`` would:
    it replaces the value (for a mode key, every value) the text gives that
    key, or adds the key. The result holds only the user's own entries, so
    ``parse_config`` merges the defaults once, and a changed ``grid.dim``
    drops the 1D default modes just as it does in a config file.
    """
    raw = _parse_raw(text)
    for item in overrides:
        if len(item.splitlines()) > 1:
            raise ConfigError(f"override {item!r} must be one line")
        dotted, eq, value = item.partition("=")
        section, dot, key = dotted.strip().partition(".")
        if not (eq and dot):
            raise ConfigError(f"override {item!r} must look like section.key=value")
        _check_key("override names", section, key)
        raw.setdefault(section, {})[key] = [value.strip()]
    return _serialize_raw(raw)


def _serialize_raw(raw) -> str:
    lines = []
    for section, scalar_keys in _SCALAR_KEYS.items():
        if section not in raw:
            continue
        lines.append(f"[{section}]")
        for key in (*scalar_keys, *_MODE_KEYS.get(section, ())):
            lines.extend(f"{key} = {value}" for value in raw[section].get(key, []))
        lines.append("")
    return "\n".join(lines)


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _field_raw(spec: FieldSpec, suffix: str) -> dict[str, list[str]]:
    """Inverse of ``_field_spec``."""
    modes = [
        f"{_fmt(m.amplitude)} {' '.join(map(str, m.wavevector))} {_fmt(m.phase)}"
        for m in spec.modes
    ]
    return {f"constant{suffix}": [_fmt(spec.constant)], f"mode{suffix}": modes}


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) reproduces cfg exactly."""
    # The scalar keys of these sections name distinct fields of these objects.
    values = {}
    for owner in (cfg.grid, cfg.params, cfg.params.closure, cfg.perturbation, cfg):
        values.update(vars(owner))
    raw = {
        section: {
            key: [_text(values[_FIELD_NAMES.get(key, key)])] for key in _SCALAR_KEYS[section]
        }
        for section in ("grid", "physics", "time", "perturbation", "output")
    }
    raw["initial_R"] = _field_raw(cfg.initial_R, "")
    raw["initial_Q"] = _field_raw(cfg.initial_Q, "")
    raw["initial_u"] = {}
    for c, spec in zip(_COMPONENTS, cfg.initial_u):
        raw["initial_u"].update(_field_raw(spec, f"_{c}"))
    return _serialize_raw(raw)


def evaluate_field_spec(grid: PeriodicGrid, spec: FieldSpec) -> np.ndarray:
    """Constant plus Fourier modes sampled on the grid."""
    coords = grid.coordinates()
    out = np.full(grid.shape, float(spec.constant))
    for m in spec.modes:
        arg = sum(k * x for k, x in zip(m.wavevector, coords))
        out += m.amplitude * np.sin((2.0 * math.pi / grid.length) * arg + m.phase)
    return out


def build_initial_state(cfg: RunConfig) -> State:
    """Sample the configured initial data; momentum is (R+Q) u.

    Sampled data past the float range is a ConfigError naming its section.
    """
    g = cfg.grid
    with np.errstate(over="ignore", invalid="ignore"):
        R = evaluate_field_spec(g, cfg.initial_R)
        Q = evaluate_field_spec(g, cfg.initial_Q)
        rho = R + Q
        m = rho * np.stack([evaluate_field_spec(g, s) for s in cfg.initial_u])
    for what, values in (
        ("[initial_R] + [initial_Q]: the density R+Q", rho),
        ("[initial_u]: the momentum (R+Q) u", m),
    ):
        if not np.isfinite(values).all():
            raise ConfigError(f"{what} overflows the float range on the grid")
    return State(g, R, Q, m, t=0.0)
