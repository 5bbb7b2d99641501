"""Independent checks of the files each command writes.

Every check compares an output with a computation of the benchmark's own
(``reference``) or with a property the method must have; none compares with
a stored copy of earlier output. A failed check raises ``CheckError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reference

EPS = np.finfo(float).eps
MASS_RTOL = 1e-12
ENERGY_RTOL = 1e-10
QUADRATURE_RTOL = 1e-12
# The audited energy defect measures advection, pressure and time-stepping
# error; on the smooth benchmark data it stays near 1e-8 of E(0).
DEFECT_FRACTION = 1e-6
RESIDUAL_RTOL = 1e-12
DERIVATIVE_RTOL = 1e-6
DERIVATIVE_MIN_DENSITY = 1e-2
RATIO_SPREAD = 2.0

CLOSURE_TABLE_HEADER = ["R", "Q", "gamma_plus", "gamma_minus", "Z", "alpha", "p", "dZdR", "dZdQ", "residual"]


class CheckError(Exception):
    """An output broke a property it must have."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_csv(path) -> dict[str, np.ndarray]:
    """Columns of a CSV file keyed by header name."""
    with open(path, "r", encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    _require(rows, f"{path}: no data rows")
    _require(all(len(r) == len(names) for r in rows), f"{path}: ragged rows")
    data = np.asarray(rows, dtype=float)
    return {name: data[:, j] for j, name in enumerate(names)}


def read_field(path) -> tuple[dict, np.ndarray]:
    """A field dump: its header values and its flat values."""
    with open(path, "r", encoding="utf-8") as fh:
        parts = fh.readline().split()
        values = np.asarray([float(line) for line in fh if line.strip()])
    _require(len(parts) == 6 and parts[0] == "#", f"{path}: malformed header")
    header = {"dim": int(parts[1]), "n": int(parts[2]), "length": float(parts[3]), "t": float(parts[4])}
    return header, values


def _close(a, b, rtol: float, scale=None) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if scale is None:
        scale = np.maximum(np.abs(a), np.abs(b))
    return bool(np.all(np.abs(a - b) <= rtol * scale + 1e-300))


@dataclass(frozen=True)
class Mode:
    amplitude: float
    wavevector: tuple[int, ...]
    phase: float


@dataclass(frozen=True)
class SimulationSpec:
    """The inputs a simulate run was given, as the benchmark generated them."""

    dim: int
    n: int
    length: float
    t_end: float
    gamma_plus: float
    gamma_minus: float
    density_floor: float
    R_constant: float
    R_modes: tuple[Mode, ...]
    Q_constant: float
    Q_modes: tuple[Mode, ...]

    @property
    def cell_volume(self) -> float:
        return (self.length / self.n) ** self.dim

    def sample(self, constant: float, modes) -> np.ndarray:
        """constant + sum of amplitude sin(2 pi k.x / L + phase), C order."""
        axis = np.arange(self.n) * (self.length / self.n)
        coords = np.meshgrid(*([axis] * self.dim), indexing="ij")
        out = np.full(coords[0].shape, float(constant))
        for m in modes:
            arg = sum(k * c for k, c in zip(m.wavevector, coords))
            out += m.amplitude * np.sin((2.0 * math.pi / self.length) * arg + m.phase)
        return out.ravel()


def simulate_steps(stdout: str) -> int:
    """The step count from simulate's status line 'simulate: N steps to t=...'."""
    return int(stdout.split("simulate:", 1)[1].split()[0])


def check_simulate(out: Path, stdout: str, spec: SimulationSpec) -> None:
    """Conservation, positivity, energy bookkeeping and final-state energies."""
    steps = simulate_steps(stdout)
    diag = read_csv(out / "diagnostics.csv")
    t = diag["t"]
    _require(len(t) == steps + 1, f"diagnostics has {len(t)} rows for {steps} steps")
    _require(t[-1] == spec.t_end, f"run stopped at t={t[-1]!r}, not t_end={spec.t_end!r}")
    _require(np.all(np.diff(t) > 0.0), "diagnostics times do not increase")
    for name in ("mass_R", "mass_Q"):
        m = diag[name]
        _require(_close(m, m[0], MASS_RTOL, abs(m[0])), f"{name} drifts beyond {MASS_RTOL} relative")
    _require(np.min(diag["min_R"]) > 0.0 and np.min(diag["min_Q"]) > 0.0, "a density went nonpositive")
    _require(np.all(diag["floor_hits"] == 0), "the density floor was hit")

    fields = {}
    for tag in ("initial", "final"):
        for name in ("R", "Q", "m"):
            header, values = read_field(out / f"{tag}_{name}.dat")
            _require((header["dim"], header["n"]) == (spec.dim, spec.n), f"{tag}_{name}: wrong grid")
            fields[tag, name] = (header, values)
    _require(fields["final", "R"][0]["t"] == spec.t_end, "final field dump is not at t_end")
    npts = spec.n**spec.dim
    for name, const, modes in (("R", spec.R_constant, spec.R_modes), ("Q", spec.Q_constant, spec.Q_modes)):
        expected = spec.sample(const, modes)
        _require(np.max(np.abs(fields["initial", name][1] - expected)) <= 1e-14, f"initial {name} is not the generated data")

    R = fields["final", "R"][1]
    Q = fields["final", "Q"][1]
    m = fields["final", "m"][1].reshape(spec.dim, npts)
    dv = spec.cell_volume
    _require(_close(np.sum(R) * dv, diag["mass_R"][-1], MASS_RTOL), "final R does not carry the logged mass")
    _require(_close(np.sum(Q) * dv, diag["mass_Q"][-1], MASS_RTOL), "final Q does not carry the logged mass")

    en = read_csv(out / "energy.csv")
    _require(np.array_equal(en["t"], t), "energy and diagnostics times differ")
    cum = reference.cumulative_trapezoid(en["t"], en["dissipation_rate"])
    _require(
        _close(en["cumulative_dissipation"], cum, QUADRATURE_RTOL, max(abs(cum[-1]), 1e-300)),
        "cumulative_dissipation is not the trapezoid of dissipation_rate",
    )
    rho = np.maximum(R + Q, spec.density_floor)
    kinetic = 0.5 * np.sum(np.sum(m * m, axis=0) / rho) * dv
    Z = reference.closure_root(R, Q, spec.gamma_plus, spec.gamma_minus)
    internal = np.sum(reference.internal_energy_density(R, Q, Z, spec.gamma_plus, spec.gamma_minus)) * dv
    _require(_close(kinetic, en["kinetic"][-1], ENERGY_RTOL), f"final kinetic energy {en['kinetic'][-1]!r} != {kinetic!r}")
    _require(_close(internal, en["internal"][-1], ENERGY_RTOL), f"final internal energy {en['internal'][-1]!r} != {internal!r}")

    energy = en["kinetic"] + en["internal"]
    _require(_close(energy, diag["energy"], 4 * EPS), "energy.csv and diagnostics.csv disagree on E")
    e0 = energy[0]
    defect = np.maximum(0.0, energy + cum - e0)
    _require(_close(en["defect"], defect, QUADRATURE_RTOL, abs(e0)), "defect column is not E + int D - E(0)")
    _require(np.max(defect) <= DEFECT_FRACTION * e0, f"energy defect exceeds {DEFECT_FRACTION} of E(0)")


def check_compare(out: Path, t_end: float) -> None:
    """Initial density match, the int_gradU quadrature and the trace's f."""
    cmp = read_csv(out / "compare.csv")
    t = cmp["t"]
    _require(t[0] == 0.0 and t[-1] == t_end, "compare.csv does not span [0, t_end]")
    _require(cmp["norm_frakR"][0] == 0.0 and cmp["norm_calQ"][0] == 0.0, "twin densities differ at t=0")
    grad = cmp["norm_gradU"]
    expect = reference.cumulative_trapezoid(t, grad)
    _require(
        _close(cmp["int_gradU"], expect, QUADRATURE_RTOL, max(abs(expect[-1]), 1e-300)),
        "int_gradU is not the trapezoid of norm_gradU",
    )
    trace = read_csv(out / "trace.csv")
    _require(np.array_equal(trace["t"], t), "trace and compare sample different times")
    _require(np.array_equal(trace["gprime"], grad), "trace gprime is not norm_gradU")
    f = 0.5 * cmp["norm_wU"] ** 2 + 0.5 * reference.cumulative_trapezoid(t, grad**2)
    _require(_close(trace["f"], f, QUADRATURE_RTOL, np.max(np.abs(f))), "trace f is not 1/2 |wU|^2 + 1/2 int |gradU|^2")


def check_sweep(out: Path, deltas) -> None:
    """Linear stability across perturbation sizes and the ratio column."""
    sw = read_csv(out / "sweep.csv")
    _require(np.array_equal(sw["delta"], np.asarray(deltas, dtype=float)), "sweep rows do not match the deltas")
    _require(np.all(sw["sup_distance"] > 0.0), "a perturbed run did not move")
    _require(_close(sw["ratio"], sw["sup_distance"] / sw["delta"], 2 * EPS), "ratio is not sup_distance/delta")
    r = sw["ratio"]
    _require(np.max(r) <= RATIO_SPREAD * np.min(r), f"sup_distance/delta varies beyond a factor {RATIO_SPREAD}")


def check_closure_table(out: Path, r_values, q_values, gamma_plus: float, gamma_minus: float) -> None:
    """Residual, bracket, degenerate rows, pressure and derivatives."""
    with open(out / "closure_table.csv", "r", encoding="utf-8") as fh:
        _require(fh.readline().strip().split(",") == CLOSURE_TABLE_HEADER, "unexpected table header")
    tab = read_csv(out / "closure_table.csv")
    R, Q, Z, alpha = tab["R"], tab["Q"], tab["Z"], tab["alpha"]
    nr, nq = len(r_values), len(q_values)
    _require(len(R) == nr * nq, f"table has {len(R)} rows, expected {nr * nq}")
    _require(np.array_equal(R, np.repeat(r_values, nq)), "R column is not the requested range")
    _require(np.array_equal(Q, np.tile(q_values, nr)), "Q column is not the requested range")
    _require(np.all(tab["gamma_plus"] == gamma_plus) and np.all(tab["gamma_minus"] == gamma_minus), "wrong exponents")
    gamma = gamma_plus / gamma_minus

    pos = Z > 0.0
    zp = Z[pos]
    resid = (1.0 - R[pos] / zp) * zp**gamma - Q[pos]
    scale = np.maximum(1.0, Q)
    _require(np.all(np.abs(resid) <= RESIDUAL_RTOL * scale[pos]), "closure residual exceeds 1e-12 max(1, Q)")
    _require(np.all(np.abs(tab["residual"]) <= RESIDUAL_RTOL * scale), "residual column exceeds 1e-12 max(1, Q)")
    upper = np.maximum(2.0 * R, np.power(2.0 * Q, 1.0 / gamma))
    _require(np.all(R <= Z) and np.all(Z <= upper * (1.0 + 4 * EPS)), "Z leaves [R, max(2R, (2Q)^(1/gamma))]")

    q0 = (Q == 0.0) & (R > 0.0)
    r0 = (R == 0.0) & (Q > 0.0)
    vac = (R == 0.0) & (Q == 0.0)
    _require(q0.any() and r0.any() and vac.any(), "table lacks the degenerate rows")
    _require(np.array_equal(Z[q0], R[q0]), "Q = 0 rows do not have Z = R")
    _require(np.array_equal(Z[r0], np.power(Q[r0], 1.0 / gamma)), "R = 0 rows do not have Z = Q^(1/gamma)")
    _require(np.all(Z[vac] == 0.0) and np.all(np.isnan(alpha[vac])), "vacuum rows do not have Z = 0, alpha = NaN")
    _require(np.array_equal(alpha[pos], R[pos] / zp), "alpha is not R/Z")
    _require(_close(tab["p"], np.power(Z, gamma_plus), 4 * EPS), "p is not Z^gamma_plus")

    inner = (R >= DERIVATIVE_MIN_DENSITY) & (Q >= DERIVATIVE_MIN_DENSITY)
    r, q = R[inner], Q[inner]
    hr, hq = 1e-5 * r, 1e-5 * q
    root = reference.closure_root
    dzr = (root(r + hr, q, gamma_plus, gamma_minus) - root(r - hr, q, gamma_plus, gamma_minus)) / (2.0 * hr)
    dzq = (root(r, q + hq, gamma_plus, gamma_minus) - root(r, q - hq, gamma_plus, gamma_minus)) / (2.0 * hq)
    _require(_close(tab["dZdR"][inner], dzr, DERIVATIVE_RTOL, np.abs(dzr)), "dZdR disagrees with central differences")
    _require(_close(tab["dZdQ"][inner], dzq, DERIVATIVE_RTOL, np.abs(dzq)), "dZdQ disagrees with central differences")
