"""The benchmark's workloads: the commands each runs and how they are checked.

Each workload is a fixed sequence of ``twofluid`` commands. The seed only
moves the inputs: the initial data is translated by a random offset, which
sets every Fourier-mode phase while keeping the physics (and so the number
of time steps) the same; the twin perturbation gets a random phase, which
cannot change the work because the weak runs replay the strong schedule;
and the closure table's R and Q ranges are stretched by under one percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import checks
from .checks import Mode, SimulationSpec

TWO_PI = 2.0 * math.pi
# A quarter of the std1d horizon: each round then takes about two seconds,
# so a run holds a dozen rounds and its median is steady on a shared machine.
T_END = 0.125
GAMMA_PLUS = 1.5
GAMMA_MINUS = 3.0
DENSITY_FLOOR = 1e-10
SWEEP_DELTAS = (1e-2, 1e-3, 1e-4)
TABLE_RANGE = 10.0
TABLE_JITTER = 0.01

# name -> (why, full size, size used by the benchmark's own tests)
WORKLOADS = {
    "std1d-n512": (
        "simulate std1d at n=512 to t=0.125: many tiny steps, so per-call overhead of closure, stencils and diagnostics dominates",
        512,
        32,
    ),
    "mix2d-n128": (
        "simulate a 2D mix at n=128 to t=0.125: per-point closure arithmetic and snapshot storage dominate, not per-call overhead",
        128,
        16,
    ),
    "twin-n256": (
        "compare, 3-delta sweep and gronwall-check at n=256 to t=0.125: the twin layer, reference recomputation and CSV reads",
        256,
        32,
    ),
    "closure-table-61": (
        "closure-table on 61x61 points: the scalar closure API and bulk CSV writing, with no dynamics",
        61,
        9,
    ),
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its arguments and the check of what it wrote."""

    label: str
    argv: list[str]
    check: Callable[[str], None]
    integrates: bool


@dataclass(frozen=True)
class Plan:
    """Everything one round of a workload runs, with its inputs generated."""

    config_text: str
    overrides: list[str]
    commands: list[Command]
    work: Callable[[], float]


def _translated(modes, offset) -> tuple[Mode, ...]:
    """Shift sin(k.x + phase) modes by x -> x + offset (in radians per unit k)."""
    return tuple(
        Mode(a, k, float((phase + sum(ki * oi for ki, oi in zip(k, offset))) % TWO_PI))
        for a, k, phase in modes
    )


def _mode_line(key: str, m: Mode) -> str:
    ks = " ".join(str(k) for k in m.wavevector)
    return f"{key} = {m.amplitude!r} {ks} {m.phase!r}"


def _std1d_fields(offset):
    """The std1d data: R0 = 1 + 0.2 sin x, Q0 = 1 + 0.2 cos x, u0 = 0.1 sin x."""
    R = _translated([(0.2, (1,), 0.0)], offset)
    Q = _translated([(0.2, (1,), 0.5 * math.pi)], offset)
    u = (_translated([(0.1, (1,), 0.0)], offset),)
    return R, Q, u


def _mix2d_fields(offset):
    """One x-mode and one y-mode in each of R, Q, u_x and u_y."""
    R = _translated([(0.15, (1, 0), 0.0), (0.1, (0, 1), math.pi / 3)], offset)
    Q = _translated([(0.1, (1, 0), 0.5 * math.pi), (0.15, (0, 1), 0.0)], offset)
    u = (
        _translated([(0.1, (1, 0), 0.0), (0.05, (0, 1), math.pi / 4)], offset),
        _translated([(0.05, (1, 0), math.pi / 3), (0.1, (0, 1), 0.0)], offset),
    )
    return R, Q, u


def _config_text(dim: int, R, Q, u, perturbation_phase: float) -> str:
    lines = ["[grid]", f"dim = {dim}", "", "[time]", f"t_end = {T_END!r}", "", "[initial_R]", "constant = 1"]
    lines += [_mode_line("mode", m) for m in R]
    lines += ["", "[initial_Q]", "constant = 1"]
    lines += [_mode_line("mode", m) for m in Q]
    lines += ["", "[initial_u]"]
    for comp, modes in zip("xyz", u):
        lines += [f"constant_{comp} = 0"] + [_mode_line(f"mode_{comp}", m) for m in modes]
    lines += ["", "[perturbation]", f"phase = {perturbation_phase!r}", ""]
    return "\n".join(lines)


def plan(name: str, seed: int, root: Path, full: bool = True) -> Plan:
    """Generate the inputs of one workload round under ``root``."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    size = WORKLOADS[name][1] if full else WORKLOADS[name][2]
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    out = {}

    def outdir(label: str) -> Path:
        out[label] = root / label
        return out[label]

    if name == "closure-table-61":
        r_max, q_max = TABLE_RANGE * (1.0 + TABLE_JITTER * rng.random(2))
        r_values = np.linspace(0.0, r_max, size)
        q_values = np.linspace(0.0, q_max, size)
        argv = [
            "closure-table", "--out", str(outdir("table")),
            "--r-max", repr(float(r_max)), "--r-count", str(size),
            "--q-max", repr(float(q_max)), "--q-count", str(size),
        ]
        cmd = Command(
            "closure-table",
            argv,
            lambda stdout: checks.check_closure_table(out["table"], r_values, q_values, GAMMA_PLUS, GAMMA_MINUS),
            integrates=True,
        )
        return Plan("", [], [cmd], work=lambda: float(size * size))

    dim = 2 if name == "mix2d-n128" else 1
    offset = tuple(rng.uniform(0.0, TWO_PI, dim))
    R, Q, u = (_mix2d_fields if dim == 2 else _std1d_fields)(offset)
    text = _config_text(dim, R, Q, u, float(rng.uniform(0.0, TWO_PI)))
    config_path = root / "config.ini"
    config_path.write_text(text, encoding="utf-8")
    overrides = [f"grid.n={size}"]
    common = ["--config", str(config_path)] + [a for o in overrides for a in ("--set", o)]
    points = size**dim

    if name in ("std1d-n512", "mix2d-n128"):
        spec = SimulationSpec(
            dim=dim, n=size, length=TWO_PI, t_end=T_END,
            gamma_plus=GAMMA_PLUS, gamma_minus=GAMMA_MINUS, density_floor=DENSITY_FLOOR,
            R_constant=1.0, R_modes=R, Q_constant=1.0, Q_modes=Q,
        )
        stdout_of = {}

        def check_simulate(stdout: str) -> None:
            stdout_of["simulate"] = stdout
            checks.check_simulate(out["simulate"], stdout, spec)

        argv = ["simulate", "--out", str(outdir("simulate"))] + common + ["--set", "output.fields=true"]
        cmd = Command("simulate", argv, check_simulate, integrates=True)
        return Plan(text, overrides + ["output.fields=true"], [cmd],
                    work=lambda: float(points * checks.simulate_steps(stdout_of["simulate"])))

    deltas = ",".join(repr(d) for d in SWEEP_DELTAS)
    compare = Command(
        "compare",
        ["compare", "--out", str(outdir("compare"))] + common,
        lambda stdout: checks.check_compare(out["compare"], T_END),
        integrates=True,
    )
    sweep = Command(
        "sweep",
        ["sweep", "--out", str(outdir("sweep")), "--deltas", deltas] + common,
        lambda stdout: checks.check_sweep(out["sweep"], SWEEP_DELTAS),
        integrates=True,
    )
    gronwall = Command(
        "gronwall-check",
        ["gronwall-check", "--out", str(outdir("gronwall")), "--trace", str(out["compare"] / "trace.csv")],
        lambda stdout: None,
        integrates=False,
    )

    def twin_work() -> float:
        # compare integrates the strong and one weak run, sweep the strong
        # run and one weak run per delta, each over the same schedule
        steps = len(checks.read_csv(out["compare"] / "compare.csv")["t"]) - 1
        return float(points * steps * (2 + 1 + len(SWEEP_DELTAS)))

    return Plan(text, overrides, [compare, sweep, gronwall], work=twin_work)
