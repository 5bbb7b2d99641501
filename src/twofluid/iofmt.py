"""File emission and ingestion: CSV tables and field dumps.

Every float is written with 17 significant digits, which round-trips 64-bit
values exactly. Column names and order are part of the interface contract.
"""

from __future__ import annotations

import numpy as np

from .dynamics import DiagnosticSeries, Trajectory
from .energy import EnergyAudit
from .errors import ConfigError, DomainError
from .grids import PeriodicGrid
from .gronwall import GronwallTrace
from .twin import PairDiagnostics, SweepReport

DIAGNOSTICS_HEADER = "t,dt,mass_R,mass_Q,energy,dissipation,min_R,min_Q,max_u,floor_hits"
ENERGY_HEADER = "t,kinetic,internal,dissipation_rate,cumulative_dissipation,defect"
COMPARE_HEADER = ",".join(PairDiagnostics.COLUMNS)
TRACE_HEADER = "t,f,gprime,alpha,beta"
SWEEP_HEADER = "delta,sup_distance,ratio,fitted_C"
CLOSURE_TABLE_HEADER = "R,Q,gamma_plus,gamma_minus,Z,alpha,p,dZdR,dZdQ,residual"


def fmt(x) -> str:
    """One value, 17 significant digits for floats."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_rows(path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _float_table(path, data) -> np.ndarray:
    """Rows of CSV cells as a float array; a non-numeric cell is a ConfigError."""
    try:
        return np.asarray(data, dtype=float)
    except ValueError as err:
        raise ConfigError(f"{path}: non-numeric cell: {err}") from err


def write_diagnostics_csv(path, traj: Trajectory) -> None:
    d = traj.diagnostics
    cols = [getattr(d, name) for name in DiagnosticSeries.COLUMNS]
    _write_rows(path, DIAGNOSTICS_HEADER, zip(*cols))


def read_diagnostics_csv(path) -> dict[str, np.ndarray]:
    """Columns of a diagnostics CSV, keyed by header name."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        names = header.split(",")
        data = [line.strip().split(",") for line in fh if line.strip()]
    if not data:
        raise ConfigError(f"{path}: no data rows")
    if any(len(row) != len(names) for row in data):
        raise ConfigError(f"{path}: ragged rows")
    arr = _float_table(path, data)
    return {name: arr[:, j] for j, name in enumerate(names)}


def write_energy_csv(path, audit: EnergyAudit, kinetic=None, internal=None) -> None:
    """Energy series; the kinetic/internal split is NaN when not supplied."""
    n = len(audit.t)
    kin = np.full(n, np.nan) if kinetic is None else np.asarray(kinetic)
    inte = np.full(n, np.nan) if internal is None else np.asarray(internal)
    rows = zip(
        audit.t,
        kin,
        inte,
        audit.dissipation_rate,
        audit.cumulative_dissipation,
        audit.defect,
    )
    _write_rows(path, ENERGY_HEADER, rows)


def write_compare_csv(path, diag: PairDiagnostics) -> None:
    cols = [getattr(diag, name) for name in PairDiagnostics.COLUMNS]
    _write_rows(path, COMPARE_HEADER, zip(*cols))


def write_trace_csv(path, trace: GronwallTrace) -> None:
    _write_rows(
        path, TRACE_HEADER, zip(trace.t, trace.f, trace.gprime, trace.alpha, trace.beta)
    )


def read_trace_csv(path) -> GronwallTrace:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ConfigError(
                f"{path}: expected header {TRACE_HEADER!r}, got {header!r}"
            )
        data = [line.strip().split(",") for line in fh if line.strip()]
    if not data:
        raise ConfigError(f"{path}: no data rows")
    if any(len(row) != 5 for row in data):
        raise ConfigError(f"{path}: ragged rows")
    arr = _float_table(path, data)
    try:
        return GronwallTrace(
            t=arr[:, 0], f=arr[:, 1], gprime=arr[:, 2], alpha=arr[:, 3], beta=arr[:, 4]
        )
    except DomainError as err:
        raise ConfigError(f"{path}: {err}") from err


def write_sweep_csv(path, report: SweepReport) -> None:
    rows = [
        (r.delta, r.sup_distance, r.ratio, r.fitted_C) for r in report.rows
    ]
    _write_rows(path, SWEEP_HEADER, rows)


def write_closure_table(path, rows) -> None:
    """Rows of (R, Q, gamma_plus, gamma_minus, Z, alpha, p, dZdR, dZdQ, residual)."""
    _write_rows(path, CLOSURE_TABLE_HEADER, rows)


def write_field(path, grid: PeriodicGrid, values: np.ndarray, t: float, name: str) -> None:
    """Dump one field: header '# dim n L t name', then row-major values."""
    flat = np.asarray(values).ravel(order="C")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {grid.dim} {grid.n} {fmt(grid.length)} {fmt(t)} {name}\n")
        for v in flat:
            fh.write(fmt(v) + "\n")


def read_field(path) -> tuple[PeriodicGrid, np.ndarray, float, str]:
    """Inverse of write_field; vector fields come back with the leading axis."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise ConfigError(f"{path}: missing field header")
        parts = header[2:].split()
        if len(parts) != 5:
            raise ConfigError(f"{path}: malformed field header {header!r}")
        try:
            dim, n = int(parts[0]), int(parts[1])
            length, t, name = float(parts[2]), float(parts[3]), parts[4]
            values = np.asarray([float(line) for line in fh if line.strip()])
            grid = PeriodicGrid(dim=dim, n=n, length=length)
        except (ValueError, DomainError) as err:
            raise ConfigError(f"{path}: malformed field dump: {err}") from err
    if values.size == grid.npoints:
        shaped = values.reshape(grid.shape)
    elif values.size == dim * grid.npoints:
        shaped = values.reshape((dim, *grid.shape))
    else:
        raise ConfigError(
            f"{path}: {values.size} values do not fill a {dim}D grid of {n} points"
        )
    return grid, shaped, t, name
