"""File emission and ingestion: CSV tables and field dumps.

Every float is written with 17 significant digits, which round-trips 64-bit
values exactly. Column names and order are part of the interface contract.
Writers format up to ``CHUNK`` values with one ``%`` operation, which
prints the bytes of one ``fmt`` call per value at about half the cost.
"""

from __future__ import annotations

from itertools import chain, islice

import numpy as np

from .dynamics import DiagnosticSeries, Trajectory
from .energy import EnergyAudit
from .errors import ConfigError, DomainError
from .grids import PeriodicGrid
from .gronwall import GronwallTrace, HypothesisReport
from .twin import PairDiagnostics, SweepRow

DIAGNOSTICS_HEADER = ",".join(DiagnosticSeries.COLUMNS)
ENERGY_HEADER = "t,kinetic,internal,dissipation_rate,cumulative_dissipation,defect"
COMPARE_HEADER = ",".join(PairDiagnostics.COLUMNS)
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


def _spec(x) -> str:
    """The ``%`` conversion that prints x exactly as ``fmt`` does."""
    return "%d" if isinstance(x, _INTS) else "%.17g"


def _format_rows(rows: list[tuple]) -> str:
    """The lines ``",".join(fmt(v) for v in row)`` of all rows, from one ``%``."""
    specs = []
    for column in zip(*rows):
        ints = {issubclass(t, _INTS) for t in set(map(type, column))}
        if len(ints) > 1:  # ints and floats in one column: a spec per cell
            template = "".join(",".join(map(_spec, row)) + "\n" for row in rows)
            break
        specs.append("%d" if ints.pop() else "%.17g")
    else:
        template = (",".join(specs) + "\n") * len(rows)
    return template % tuple(chain.from_iterable(rows))


def _write_rows(path, header: str, rows) -> None:
    rows = iter(rows)
    per_chunk = max(1, CHUNK // (header.count(",") + 1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        while chunk := [tuple(row) for row in islice(rows, per_chunk)]:
            fh.write(_format_rows(chunk))


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


def write_diagnostics_csv(path, traj: Trajectory) -> None:
    d = traj.diagnostics
    cols = [getattr(d, name) for name in DiagnosticSeries.COLUMNS]
    _write_rows(path, DIAGNOSTICS_HEADER, zip(*cols))


def read_diagnostics_csv(path) -> dict[str, np.ndarray]:
    """Columns of a diagnostics CSV, keyed by header name."""
    names, arr = _read_table(path)
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
    rows = zip(report.t, report.lhs, report.rhs, report.tolerance, flagged)
    _write_rows(path, HYPOTHESIS_HEADER, rows)


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    _write_rows(
        path, SWEEP_HEADER, [(r.delta, r.sup_distance, r.ratio, r.fitted_C) for r in rows]
    )


def write_closure_table(path, rows) -> None:
    """Rows of (R, Q, gamma_plus, gamma_minus, Z, alpha, p, dZdR, dZdQ, residual)."""
    _write_rows(path, CLOSURE_TABLE_HEADER, rows)


def write_field(path, grid: PeriodicGrid, values: np.ndarray, t: float, name: str) -> None:
    """Dump one field: header '# dim n L t name', then row-major values."""
    flat = np.asarray(values).ravel(order="C")
    line = "%d\n" if flat.dtype.kind in "biu" else "%.17g\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {grid.dim} {grid.n} {fmt(grid.length)} {fmt(t)} {name}\n")
        for start in range(0, flat.size, CHUNK):
            chunk = flat[start : start + CHUNK].tolist()
            fh.write(line * len(chunk) % tuple(chunk))


def read_field(path) -> tuple[PeriodicGrid, np.ndarray, float, str]:
    """Inverse of write_field; vector fields come back with the leading axis.

    Every defect of the file's content is a ConfigError naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = fh.readline().strip()
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: not UTF-8 text: {err}") from err
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
        except (ValueError, DomainError) as err:  # UnicodeDecodeError included
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
