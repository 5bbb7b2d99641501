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
from .twin import PERTURBATION_TARGETS

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
class PerturbationSpec:
    target: str = "velocity"
    delta: float = 1e-3
    wavevector: int = 2
    phase: float = 0.0


@dataclass(frozen=True)
class EmitFlags:
    fields: bool = False
    diagnostics: bool = True
    energy: bool = True
    comparison: bool = True


@dataclass(frozen=True)
class RunConfig:
    grid: PeriodicGrid
    gamma_plus: float
    gamma_minus: float
    mu: float
    lam: float
    t_end: float
    cfl: float
    density_floor: float
    output_interval: float
    initial_R: FieldSpec
    initial_Q: FieldSpec
    initial_u: tuple[FieldSpec, ...]
    perturbation: PerturbationSpec
    emit: EmitFlags

    def closure_params(self) -> ClosureParams:
        return ClosureParams(self.gamma_plus, self.gamma_minus)

    def sim_params(self) -> SimParams:
        return SimParams(
            closure=self.closure_params(),
            mu=self.mu,
            lam=self.lam,
            cfl=self.cfl,
            density_floor=self.density_floor,
            t_end=self.t_end,
            output_interval=self.output_interval,
        )


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
output_interval = 0

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
target = velocity
delta = 0.001
wavevector = 2
phase = 0

[output]
fields = false
diagnostics = true
energy = true
comparison = true
"""

_SCALAR_KEYS = {
    "grid": ("dim", "n", "length"),
    "physics": ("gamma_plus", "gamma_minus", "mu", "lambda"),
    "time": ("t_end", "cfl", "density_floor", "output_interval"),
    "initial_R": ("constant",),
    "initial_Q": ("constant",),
    "initial_u": tuple(f"constant_{c}" for c in _COMPONENTS),
    "perturbation": ("target", "delta", "wavevector", "phase"),
    "output": ("fields", "diagnostics", "energy", "comparison"),
}
_MODE_KEYS = {
    "initial_R": ("mode",),
    "initial_Q": ("mode",),
    "initial_u": tuple(f"mode_{c}" for c in _COMPONENTS),
}


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
            if section not in _SCALAR_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            raw.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        scalar = key in _SCALAR_KEYS[section]
        modal = key in _MODE_KEYS.get(section, ())
        if not scalar and not modal:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        bucket = raw[section].setdefault(key, [])
        if scalar and bucket:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        bucket.append(value)
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
    for section, entries in user.items():
        mode_keys = _MODE_KEYS.get(section, ())
        if any(k in mode_keys for k in entries):
            for k in mode_keys:
                merged[section].pop(k, None)
        for key, values in entries.items():
            merged[section][key] = list(values)
    dim_value = merged["grid"]["dim"][0].strip()
    if dim_value != "1":
        for section, mode_keys in _MODE_KEYS.items():
            user_keys = user.get(section, {})
            for k in mode_keys:
                if k not in user_keys:
                    merged[section].pop(k, None)
    return merged


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
    v = value.strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
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


def _field_spec(raw, section, dim, constant_key="constant", mode_key="mode") -> FieldSpec:
    entries = raw[section]
    constant = _to_float(section, constant_key, entries[constant_key][0])
    modes = tuple(
        _to_mode(section, mode_key, v, dim) for v in entries.get(mode_key, [])
    )
    return FieldSpec(constant=constant, modes=modes)


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

    dim = _to_int("grid", "dim", raw["grid"]["dim"][0])
    n = _to_int("grid", "n", raw["grid"]["n"][0])
    length = _to_float("grid", "length", raw["grid"]["length"][0])
    grid = _checked(PeriodicGrid, dim=dim, n=n, length=length)
    num = {
        key: _to_float(section, key, raw[section][key][0])
        for section in ("physics", "time")
        for key in _SCALAR_KEYS[section]
    }

    initial_R = _field_spec(raw, "initial_R", dim)
    initial_Q = _field_spec(raw, "initial_Q", dim)

    u_entries = raw["initial_u"]
    components: list[FieldSpec] = []
    for c in _COMPONENTS[:dim]:
        constant = _to_float(
            "initial_u", f"constant_{c}", u_entries.get(f"constant_{c}", ["0"])[0]
        )
        modes = tuple(
            _to_mode("initial_u", f"mode_{c}", v, dim)
            for v in u_entries.get(f"mode_{c}", [])
        )
        components.append(FieldSpec(constant=constant, modes=modes))
    for c in _COMPONENTS[dim:]:
        if f"constant_{c}" in u_entries or f"mode_{c}" in u_entries:
            raise ConfigError(f"velocity component {c!r} exceeds grid dimension {dim}")

    pt = raw["perturbation"]
    perturbation = PerturbationSpec(
        target=pt["target"][0].strip(),
        delta=_to_float("perturbation", "delta", pt["delta"][0]),
        wavevector=_to_int("perturbation", "wavevector", pt["wavevector"][0]),
        phase=_to_float("perturbation", "phase", pt["phase"][0]),
    )
    if perturbation.target not in PERTURBATION_TARGETS:
        raise ConfigError(
            "perturbation target must be velocity, densities or all, "
            f"got {perturbation.target!r}"
        )

    out = raw["output"]
    emit = EmitFlags(
        fields=_to_bool("output", "fields", out["fields"][0]),
        diagnostics=_to_bool("output", "diagnostics", out["diagnostics"][0]),
        energy=_to_bool("output", "energy", out["energy"][0]),
        comparison=_to_bool("output", "comparison", out["comparison"][0]),
    )

    cfg = RunConfig(
        grid=grid,
        gamma_plus=num["gamma_plus"],
        gamma_minus=num["gamma_minus"],
        mu=num["mu"],
        lam=num["lambda"],
        t_end=num["t_end"],
        cfl=num["cfl"],
        density_floor=num["density_floor"],
        output_interval=num["output_interval"],
        initial_R=initial_R,
        initial_Q=initial_Q,
        initial_u=tuple(components),
        perturbation=perturbation,
        emit=emit,
    )
    _checked(cfg.sim_params)
    _validate_positivity(cfg)
    return cfg


def _validate_positivity(cfg: RunConfig):
    """Densities must be provably positive: constant - sum |amplitudes| > 0.

    When the perturbation targets densities the perturbation size counts
    against the budget as well.
    """
    extra = (
        abs(cfg.perturbation.delta)
        if cfg.perturbation.target in ("densities", "all")
        else 0.0
    )
    for name, spec in (("initial_R", cfg.initial_R), ("initial_Q", cfg.initial_Q)):
        budget = spec.constant - sum(abs(m.amplitude) for m in spec.modes) - extra
        if budget <= 0.0:
            raise ConfigError(
                f"{name} is not positive everywhere: constant minus mode "
                f"amplitudes (and density perturbation) is {budget}"
            )


def default_config() -> RunConfig:
    """The std1d fixture."""
    return parse_config("")


def apply_overrides(text: str, overrides) -> str:
    """Append ``--set section.key=value`` pairs to a config text.

    Later lines win for scalar keys by replacing the earlier value, so the
    override is implemented by re-serializing the merged raw mapping.
    """
    raw = _merged_raw(text)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        dotted, _, value = item.partition("=")
        if "." not in dotted:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        section, _, key = dotted.strip().partition(".")
        value = value.strip()
        if section not in _SCALAR_KEYS:
            raise ConfigError(f"override names unknown section [{section}]")
        if key in _SCALAR_KEYS[section]:
            raw[section][key] = [value]
        elif key in _MODE_KEYS.get(section, ()):
            raw[section][key] = [value]
        else:
            raise ConfigError(f"override names unknown key {key!r} in [{section}]")
    return _serialize_raw(raw)


def _serialize_raw(raw) -> str:
    lines = []
    for section in _SCALAR_KEYS:
        lines.append(f"[{section}]")
        for key in _SCALAR_KEYS[section]:
            if key in raw[section]:
                lines.append(f"{key} = {raw[section][key][0]}")
        for key in _MODE_KEYS.get(section, ()):
            for value in raw[section].get(key, []):
                lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) reproduces cfg exactly."""

    def mode_str(m: FourierMode) -> str:
        ks = " ".join(str(k) for k in m.wavevector)
        return f"{_fmt(m.amplitude)} {ks} {_fmt(m.phase)}"

    raw = {
        "grid": {
            "dim": [str(cfg.grid.dim)],
            "n": [str(cfg.grid.n)],
            "length": [_fmt(cfg.grid.length)],
        },
        "physics": {
            "gamma_plus": [_fmt(cfg.gamma_plus)],
            "gamma_minus": [_fmt(cfg.gamma_minus)],
            "mu": [_fmt(cfg.mu)],
            "lambda": [_fmt(cfg.lam)],
        },
        "time": {
            "t_end": [_fmt(cfg.t_end)],
            "cfl": [_fmt(cfg.cfl)],
            "density_floor": [_fmt(cfg.density_floor)],
            "output_interval": [_fmt(cfg.output_interval)],
        },
        "initial_R": {
            "constant": [_fmt(cfg.initial_R.constant)],
            "mode": [mode_str(m) for m in cfg.initial_R.modes],
        },
        "initial_Q": {
            "constant": [_fmt(cfg.initial_Q.constant)],
            "mode": [mode_str(m) for m in cfg.initial_Q.modes],
        },
        "initial_u": {},
        "perturbation": {
            "target": [cfg.perturbation.target],
            "delta": [_fmt(cfg.perturbation.delta)],
            "wavevector": [str(cfg.perturbation.wavevector)],
            "phase": [_fmt(cfg.perturbation.phase)],
        },
        "output": {
            "fields": ["true" if cfg.emit.fields else "false"],
            "diagnostics": ["true" if cfg.emit.diagnostics else "false"],
            "energy": ["true" if cfg.emit.energy else "false"],
            "comparison": ["true" if cfg.emit.comparison else "false"],
        },
    }
    for i, c in enumerate(_COMPONENTS[: cfg.grid.dim]):
        raw["initial_u"][f"constant_{c}"] = [_fmt(cfg.initial_u[i].constant)]
        raw["initial_u"][f"mode_{c}"] = [mode_str(m) for m in cfg.initial_u[i].modes]
    return _serialize_raw(raw)


def evaluate_field_spec(grid: PeriodicGrid, spec: FieldSpec) -> np.ndarray:
    """Constant plus Fourier modes sampled on the grid."""
    coords = grid.coordinates()
    out = np.full(grid.shape, float(spec.constant))
    for m in spec.modes:
        arg = np.zeros(grid.shape)
        for d in range(grid.dim):
            arg += m.wavevector[d] * coords[d]
        out += m.amplitude * np.sin((2.0 * math.pi / grid.length) * arg + m.phase)
    return out


def build_initial_state(cfg: RunConfig) -> State:
    """Sample the configured initial data; momentum is (R+Q) u."""
    g = cfg.grid
    R = evaluate_field_spec(g, cfg.initial_R)
    Q = evaluate_field_spec(g, cfg.initial_Q)
    u = np.stack([evaluate_field_spec(g, s) for s in cfg.initial_u])
    m = (R + Q) * u
    return State(g, R, Q, m, t=0.0)
