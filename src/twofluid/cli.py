"""Command-line entry point.

Subcommands: simulate, compare, sweep, closure-table, gronwall-check,
energy-audit. Exit codes: 0 success, 1 verdict failure, 2 configuration
error, 3 runtime/convergence error. CSV output goes to files under --out;
human-readable status goes to stdout and errors to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import closure, config, dynamics, energy, gronwall, iofmt, twin
from .errors import ConfigError, ConsistencyError, ConvergenceError, DomainError


def _load(args) -> config.RunConfig:
    text = ""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise ConfigError(f"cannot read config {args.config}: {err}") from err
    if args.set:
        text = config.apply_overrides(text, args.set)
    return config.parse_config(text)


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".writable"
        probe.touch()
        probe.unlink()
    except OSError as err:
        raise ConfigError(f"output directory {out} is not writable: {err}") from err
    return out


def _emit_fields(out: Path, state, tag: str) -> None:
    iofmt.write_field(out / f"{tag}_R.dat", state.grid, state.R, state.t, "R")
    iofmt.write_field(out / f"{tag}_Q.dat", state.grid, state.Q, state.t, "Q")
    iofmt.write_field(out / f"{tag}_m.dat", state.grid, state.m, state.t, "m")


def cmd_simulate(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    # Only the initial and final states are written, so no other is kept.
    traj = dynamics.run(
        config.build_initial_state(cfg), cfg.sim_params(), every_state=False
    )
    iofmt.write_diagnostics_csv(out / "diagnostics.csv", traj)
    iofmt.write_energy_csv(
        out / "energy.csv",
        energy.audit_energy(traj),
        kinetic=traj.diagnostics.kinetic,
        internal=traj.diagnostics.internal,
    )
    if cfg.fields:
        _emit_fields(out, traj.initial, "initial")
        _emit_fields(out, traj.final, "final")
    print(
        f"simulate: {len(traj.dts)} steps to t={traj.final.t:g}, "
        f"outputs in {out}"
    )
    return 0


def cmd_compare(args) -> int:
    cfg = _load(args)
    p = cfg.perturbation
    out = _outdir(args)
    result = twin.run_twin(
        config.build_initial_state(cfg),
        cfg.sim_params(),
        delta=p.delta,
        wavevector=p.wavevector,
        phase=p.phase,
    )
    iofmt.write_compare_csv(out / "compare.csv", result.diag)
    stability = twin.check_density_stability(result.diag)
    meanvel = twin.check_mean_velocity(result.weak, result.strong, result.diag)
    C = max(
        stability.fitted_C,
        twin.fit_gronwall_constant(result.diag, result.ref, cfg.sim_params()),
    )
    trace = twin.build_gronwall_trace(result.diag, result.ref, cfg.sim_params(), C=C)
    iofmt.write_trace_csv(out / "trace.csv", trace)
    conclusion = gronwall.check_conclusion(trace)
    print(f"density stability: fitted_C={stability.fitted_C:.6g} verdict={stability.verdict}")
    print(f"gronwall constant: C={C:.6g}")
    print(f"mean velocity identity: max residual={np.max(meanvel.residual):.3e} verdict={meanvel.verdict}")
    print(f"gronwall conclusion: max margin={conclusion.max_margin:.3e} verdict={conclusion.verdict}")
    ok = stability.verdict and meanvel.verdict and conclusion.verdict
    return 0 if ok else 1


def _parse_deltas(text: str) -> list[float]:
    try:
        deltas = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as err:
        raise ConfigError(f"cannot parse --deltas {text!r}: {err}") from err
    if not deltas:
        raise ConfigError("--deltas must name at least one perturbation size")
    if not all(math.isfinite(d) for d in deltas):
        raise ConfigError(f"--deltas must be finite, got {text!r}")
    return deltas


def cmd_sweep(args) -> int:
    cfg = _load(args)
    deltas = _parse_deltas(args.deltas)
    p = cfg.perturbation
    out = _outdir(args)
    rows = twin.stability_sweep(
        config.build_initial_state(cfg),
        cfg.sim_params(),
        deltas,
        wavevector=p.wavevector,
        phase=p.phase,
    )
    iofmt.write_sweep_csv(out / "sweep.csv", rows)
    for row in rows:
        print(
            f"delta={row.delta:g} sup_distance={row.sup_distance:.6e} "
            f"ratio={row.ratio:.6g} fitted_C={row.fitted_C:.6g}"
        )
    return 0 if all(row.verdict for row in rows) else 1


def _table_axis(args, axis: str) -> np.ndarray:
    """The --{axis}-min/max/count sample points of the closure table."""
    lo, hi, count = (getattr(args, f"{axis}_{k}") for k in ("min", "max", "count"))
    if count < 1:
        raise ConfigError(f"--{axis}-count must be at least 1, got {count}")
    for bound, value in (("min", lo), ("max", hi)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ConfigError(
                f"--{axis}-{bound} must be finite and nonnegative, got {value!r}"
            )
    return np.linspace(lo, hi, count)


def cmd_closure_table(args) -> int:
    cfg = _load(args)
    r_values = _table_axis(args, "r")
    q_values = _table_axis(args, "q")
    out = _outdir(args)
    params = cfg.closure_params()
    R, Q = (a.ravel() for a in np.meshgrid(r_values, q_values, indexing="ij"))
    Z, alpha = closure.solve_Z_field(R, Q, params)
    dzr = np.full_like(Z, math.nan)
    dzq = np.full_like(Z, math.nan)
    pos = Z > 0.0
    dzr[pos], dzq[pos] = closure.derivative_arrays(R[pos], Z[pos], params.gamma)
    columns = [
        R,
        Q,
        np.full_like(Z, params.gamma_plus),
        np.full_like(Z, params.gamma_minus),
        Z,
        alpha,
        closure.pressure(Z, params),
        dzr,
        dzq,
        closure.closure_residual(R, Q, Z, params),
    ]
    iofmt.write_closure_table(out / "closure_table.csv", columns)
    print(f"closure-table: {Z.size} rows in {out / 'closure_table.csv'}")
    return 0


def cmd_gronwall_check(args) -> int:
    trace = iofmt.read_trace_csv(args.trace)
    hypothesis = gronwall.check_hypothesis(trace)
    conclusion = gronwall.check_conclusion(trace)
    iofmt.write_hypothesis_csv(_outdir(args) / "hypothesis.csv", hypothesis)
    print(
        f"hypothesis: {'ok' if hypothesis.ok else 'violated'} "
        f"({hypothesis.violations.size} interval(s) flagged)"
    )
    print(
        f"conclusion: max margin={conclusion.max_margin:.6e} "
        f"verdict={conclusion.verdict}"
    )
    return 0 if (hypothesis.ok and conclusion.verdict) else 1


def cmd_energy_audit(args) -> int:
    tol = args.defect_tol
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"--defect-tol must be finite and nonnegative, got {tol!r}")
    path = args.diagnostics
    cols = iofmt.read_diagnostics_csv(path)
    used = ("t", "energy", "dissipation")
    if not cols.keys() >= set(used):
        raise ConfigError(f"{path}: need t with energy/dissipation columns")
    for name in used:
        if not np.all(np.isfinite(cols[name])):
            raise ConfigError(f"{path}: column {name} has a non-finite cell")
    out = _outdir(args)
    audit = energy.audit_series(*(cols[name] for name in used))
    iofmt.write_energy_csv(out / "energy_audit.csv", audit)
    print(f"energy-audit: max defect={audit.max_defect:.6e}")
    # Written so that a NaN defect fails the gate instead of passing it.
    if tol is not None and not audit.max_defect <= tol:
        return 1
    return 0


def _add_out(parser) -> None:
    parser.add_argument("--out", default="out", help="output directory")


def _add_common(parser) -> None:
    parser.add_argument("--config", help="config file path (defaults to std1d)")
    _add_out(parser)
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config value (repeatable)",
    )


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a one-line configuration error (exit 2)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twofluid",
        description="Two-fluid flow laboratory: simulation and stability diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trajectory")
    _add_common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="twin experiment with verdicts")
    _add_common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep", help="perturbation-size stability sweep")
    _add_common(p)
    p.add_argument("--deltas", default="1e-2,1e-3,1e-4", help="comma-separated sizes")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("closure-table", help="tabulate the pressure closure")
    _add_common(p)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=10.0)
    p.add_argument("--r-count", type=int, default=11)
    p.add_argument("--q-min", type=float, default=0.0)
    p.add_argument("--q-max", type=float, default=10.0)
    p.add_argument("--q-count", type=int, default=11)
    p.set_defaults(fn=cmd_closure_table)

    p = sub.add_parser("gronwall-check", help="verify a trace CSV")
    _add_out(p)
    p.add_argument("--trace", required=True, help="trace CSV path")
    p.set_defaults(fn=cmd_gronwall_check)

    p = sub.add_parser("energy-audit", help="recompute defects from a diagnostics CSV")
    _add_out(p)
    p.add_argument("--diagnostics", required=True, help="diagnostics CSV path")
    p.add_argument("--defect-tol", type=float, default=None)
    p.set_defaults(fn=cmd_energy_audit)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (ConvergenceError, ConsistencyError, DomainError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
