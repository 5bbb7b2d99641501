"""File emission and ingestion: CSV tables and field dumps.

Every float is written with 17 significant digits, which round-trips 64-bit
values exactly. Column names and order are part of the interface contract.
Every writer passes its columns to ``_write_columns``, which formats up to
``CHUNK`` values with one ``%`` operation: the bytes of one ``fmt`` call per
value at about half the cost.
"""

from __future__ import annotations

import numpy as np

from .dynamics import DiagnosticSeries
from .energy import EnergyAudit
from .errors import ConfigError, DomainError
from .grids import PeriodicGrid
from .gronwall import GronwallTrace, HypothesisReport
from .twin import PairDiagnostics, SweepRow

DIAGNOSTICS_HEADER = "t,dt,mass_R,mass_Q,energy,dissipation,min_R,min_Q,max_u,floor_hits"
ENERGY_HEADER = "t,kinetic,internal,dissipation_rate,cumulative_dissipation,defect"
COMPARE_HEADER = (
    "t,norm_frakR,norm_calQ,norm_wU,norm_gradU,norm_divU,norm_U6,mean_U,int_gradU,M_bound,sup_R,sup_Q"
)
TRACE_HEADER = "t,f,gprime,alpha,beta"
HYPOTHESIS_HEADER = "t,lhs,rhs,tolerance,flagged"
SWEEP_HEADER = "delta,sup_distance,ratio,fitted_C"
CLOSURE_TABLE_HEADER = "R,Q,gamma_plus,gamma_minus,Z,alpha,p,dZdR,dZdQ,residual"

CHUNK = 4096  # values per % operation, which bounds the text held in memory
_INTS = (int, np.integer)


def fmt(x) -> str:
    """One value, 17 significant digits for floats."""
    if isinstance(x, _INTS):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_columns(path, first_line: str, columns) -> None:
    """``first_line``, then the rows of equal-length columns, comma-separated.

    An integer column prints with ``%d`` and any other with ``%.17g``, the
    bytes of ``fmt``. Each chunk of rows is formatted from one flat list.
    """
    columns = [np.asarray(c) for c in columns]
    width, n = len(columns), len(columns[0])
    line = ",".join("%d" if c.dtype.kind in "biu" else "%.17g" for c in columns) + "\n"
    per_chunk = max(1, CHUNK // width)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(first_line + "\n")
        for start in range(0, n, per_chunk):
            stop = min(start + per_chunk, n)
            cells = [None] * (width * (stop - start))
            for j, c in enumerate(columns):
                cells[j::width] = c[start:stop].tolist()
            fh.write(line * (stop - start) % tuple(cells))


def _read_table(path, header: str | None = None) -> tuple[list[str], np.ndarray]:
    """Column names and float rows of a CSV; ``header``, if given, must match.

    Every defect of the file's content is a ConfigError naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline().strip()
            if header is not None and first != header:
                raise ConfigError(f"{path}: expected header {header!r}, got {first!r}")
            data = [line.strip().split(",") for line in fh if line.strip()]
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err}") from err
    names = first.split(",")
    if not data:
        raise ConfigError(f"{path}: no data rows")
    if any(len(row) != len(names) for row in data):
        raise ConfigError(f"{path}: ragged rows")
    try:
        return names, np.asarray(data, dtype=float)
    except ValueError as err:
        raise ConfigError(f"{path}: non-numeric cell: {err}") from err


def write_diagnostics_csv(path, diag: DiagnosticSeries, dts: np.ndarray) -> None:
    """One row per state; the dt column is the run's steps ``dts`` and a trailing 0."""
    dt = np.append(dts, 0.0)
    names = DIAGNOSTICS_HEADER.split(",")
    columns = [dt if name == "dt" else getattr(diag, name) for name in names]
    _write_columns(path, DIAGNOSTICS_HEADER, columns)


def read_diagnostics_csv(path) -> dict[str, np.ndarray]:
    """Columns of a diagnostics CSV, keyed by header name."""
    names, arr = _read_table(path)
    return {name: arr[:, j] for j, name in enumerate(names)}


def write_energy_csv(path, audit: EnergyAudit, kinetic=None, internal=None) -> None:
    """Energy series; the kinetic/internal split is NaN when not supplied."""
    n = len(audit.t)
    kin = np.full(n, np.nan) if kinetic is None else kinetic
    inte = np.full(n, np.nan) if internal is None else internal
    rates = [audit.dissipation_rate, audit.cumulative_dissipation, audit.defect]
    _write_columns(path, ENERGY_HEADER, [audit.t, kin, inte, *rates])


def write_compare_csv(path, diag: PairDiagnostics) -> None:
    names = COMPARE_HEADER.split(",")
    _write_columns(path, COMPARE_HEADER, [getattr(diag, name) for name in names])


def write_trace_csv(path, trace: GronwallTrace) -> None:
    _write_columns(path, TRACE_HEADER, [trace.t, trace.f, trace.gprime, trace.alpha, trace.beta])


def read_trace_csv(path) -> GronwallTrace:
    _, arr = _read_table(path, TRACE_HEADER)
    try:
        return GronwallTrace(
            t=arr[:, 0], f=arr[:, 1], gprime=arr[:, 2], alpha=arr[:, 3], beta=arr[:, 4]
        )
    except DomainError as err:
        raise ConfigError(f"{path}: {err}") from err


def write_hypothesis_csv(path, report: HypothesisReport) -> None:
    """One row per checked interval; flagged is 1 where it is a violation."""
    flagged = np.zeros(len(report.t), dtype=int)
    flagged[report.violations] = 1
    columns = [report.t, report.lhs, report.rhs, report.tolerance, flagged]
    _write_columns(path, HYPOTHESIS_HEADER, columns)


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    names = SWEEP_HEADER.split(",")
    _write_columns(path, SWEEP_HEADER, [[getattr(r, name) for r in rows] for name in names])


def write_closure_table(path, columns) -> None:
    """Columns R, Q, gamma_plus, gamma_minus, Z, alpha, p, dZdR, dZdQ, residual."""
    _write_columns(path, CLOSURE_TABLE_HEADER, columns)


def write_field(path, grid: PeriodicGrid, values: np.ndarray, t: float, name: str) -> None:
    """Dump one field: header '# dim n L t name', then row-major values."""
    header = f"# {grid.dim} {grid.n} {fmt(grid.length)} {fmt(t)} {name}"
    _write_columns(path, header, [np.asarray(values).ravel(order="C")])


def read_field(path) -> tuple[PeriodicGrid, np.ndarray, float, str]:
    """Inverse of write_field; vector fields come back with the leading axis.

    Every defect of the file's content is a ConfigError naming the file.
    """
    names, table = _read_table(path)  # one column, named by the header line
    header = ",".join(names)
    if not header.startswith("# "):
        raise ConfigError(f"{path}: missing field header")
    parts = header[2:].split()
    if len(names) != 1 or len(parts) != 5:
        raise ConfigError(f"{path}: malformed field header {header!r}")
    try:
        dim, n = int(parts[0]), int(parts[1])
        length, t, name = float(parts[2]), float(parts[3]), parts[4]
        grid = PeriodicGrid(dim=dim, n=n, length=length)
    except (ValueError, DomainError) as err:
        raise ConfigError(f"{path}: malformed field header: {err}") from err
    values = table[:, 0]
    if values.size == grid.npoints:
        shaped = values.reshape(grid.shape)
    elif values.size == dim * grid.npoints:
        shaped = values.reshape((dim, *grid.shape))
    else:
        raise ConfigError(
            f"{path}: {values.size} values do not fill a {dim}D grid of {n} points"
        )
    return grid, shaped, t, name
