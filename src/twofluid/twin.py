"""Twin-experiment machinery: reference vs perturbed runs and their distance.

A "strong" reference trajectory and a "weak" perturbed trajectory run on a
shared time-step schedule; the difference fields frakR = R - R~, calQ = Q - Q~
and U = u - u~ are reduced to the norm series that drive the stability
estimates, the mean-velocity identity and the Gronwall trace assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dynamics, grids
from .dynamics import SimParams, State, Trajectory
from .errors import ConfigError, ConsistencyError, DomainError
from .grids import PeriodicGrid
from .gronwall import GronwallTrace, check_hypothesis, cumulative_trapezoid

EPS_DIV = 1e-14

# The reducers below stack this many grid points of samples at most, so a
# block's arrays stay small; a 2D or 3D grid usually gives one-sample blocks.
BLOCK_POINTS = 2048


@dataclass
class PairDiagnostics:
    """Difference-norm series between a weak and a strong trajectory."""

    t: np.ndarray
    norm_frakR: np.ndarray  # ||R - R~||_2
    norm_calQ: np.ndarray  # ||Q - Q~||_2
    norm_wU: np.ndarray  # ||sqrt(R+Q) U||_2 weighted by the weak densities
    norm_gradU: np.ndarray  # ||grad U||_2 (Frobenius)
    norm_divU: np.ndarray  # ||div U||_2
    norm_U6: np.ndarray  # ||U||_6
    mean_U: np.ndarray  # |integral of U|
    int_gradU: np.ndarray  # cumulative integral of ||grad U||_2
    M_bound: np.ndarray  # running max of all four density sup-norms
    sup_R: np.ndarray  # ||R||_inf of the weak run
    sup_Q: np.ndarray  # ||Q||_inf of the weak run

    COLUMNS = (
        "t",
        "norm_frakR",
        "norm_calQ",
        "norm_wU",
        "norm_gradU",
        "norm_divU",
        "norm_U6",
        "mean_U",
        "int_gradU",
        "M_bound",
        "sup_R",
        "sup_Q",
    )

    @property
    def sup_distance(self) -> float:
        """sup over t of ||R - R~|| + ||Q - Q~|| + ||sqrt(R+Q) U||."""
        return float(np.max(self.norm_frakR + self.norm_calQ + self.norm_wU))


@dataclass
class ReferenceSeries:
    """Norms of the reference (strong) run entering the right-hand sides."""

    t: np.ndarray
    grad_u_2: np.ndarray
    grad_u_inf: np.ndarray
    material_3: np.ndarray  # ||du/dt + (u.grad)u||_3


def perturb_state(
    state: State,
    delta: float,
    wavevector: int = 2,
    phase: float = 0.0,
) -> State:
    """Add a single Fourier mode of size delta to the velocity.

    The mode is sin(wavevector * 2 pi x_0 / L + phase) along the first grid
    axis, added to every velocity component. The densities stay as they are,
    so the twin starts from the same initial densities. delta = 0 returns
    an untouched copy, so zero-perturbation twins stay bit-identical.
    """
    if delta == 0.0:
        return state.copy()
    g = state.grid
    x0 = g.coordinates()[0]
    bump = delta * np.sin(wavevector * (2.0 * math.pi / g.length) * x0 + phase)
    m = state.m + (state.R + state.Q) * bump
    return State(g, state.R.copy(), state.Q.copy(), m, state.t)


def _blocks(snapshots: Sequence[State]):
    """(slice, batched State) over consecutive samples, BLOCK_POINTS at most.

    The batch axis sits after the component axis, as ``State`` allows, so
    every pointwise and stencil operation of a member is the one it gets on
    its own.
    """
    size = max(1, BLOCK_POINTS // snapshots[0].grid.npoints)
    for start in range(0, len(snapshots), size):
        block = snapshots[start : start + size]
        yield slice(start, start + len(block)), State(
            block[0].grid,
            np.stack([s.R for s in block]),
            np.stack([s.Q for s in block]),
            np.stack([s.m for s in block], axis=1),
            block[0].t,
        )


# Per-member reductions of a batched field. The batch axis counts as a point
# axis of the magnitude, each member's points are summed as grids.integrate
# sums one sample, and roots are taken with Python float ** as grids.lp_norm
# takes them (numpy's array ** can differ by an ulp). So every value equals
# the per-sample grids function's bit for bit.


def _lp_norms(g: PeriodicGrid, values: np.ndarray, p: float) -> list[float]:
    """grids.lp_norm of each member, for p >= 1 or p = inf."""
    mag = grids._magnitude(values, g.dim + 1)
    if p == math.inf:
        return np.max(mag, axis=tuple(range(1, mag.ndim))).tolist()
    p = float(p)
    return [s ** (1.0 / p) for s in grids.integrate(g, mag**p).tolist()]


def _weighted_l2s(g: PeriodicGrid, weight: np.ndarray, v: np.ndarray) -> list[float]:
    """grids.weighted_l2 of each member."""
    if np.any(weight < 0.0):
        raise DomainError("weighted_l2 requires a nonnegative weight")
    mag = grids._magnitude(v, g.dim + 1)
    return [math.sqrt(s) for s in grids.integrate(g, weight * mag * mag).tolist()]


def _vector_norms(ints: np.ndarray) -> list[float]:
    """np.linalg.norm of each member of a (dim, B) array of integrals."""
    return [float(np.linalg.norm(col)) for col in ints.T]


def compare(weak: Trajectory, strong: Trajectory) -> PairDiagnostics:
    """Difference norms of two trajectories on matched grids and samples.

    The samples are reduced in blocks of at most BLOCK_POINTS grid points;
    every value equals that of a per-sample loop over the grids reducers.
    """
    if weak.grid != strong.grid:
        raise ConfigError("twin runs live on different grids")
    if weak.params != strong.params:
        raise ConfigError("twin runs use different parameters")
    if not np.array_equal(weak.snapshot_times, strong.snapshot_times):
        raise ConfigError("twin runs sampled different times; share a dt schedule")

    g = weak.grid
    floor = weak.params.density_floor
    n = len(weak.snapshots)
    cols = {name: np.zeros(n) for name in PairDiagnostics.COLUMNS}
    cols["t"] = weak.snapshot_times
    space = tuple(range(2, g.dim + 2))  # grid axes of the 4 stacked densities
    for (k, w), (_, s) in zip(_blocks(weak.snapshots), _blocks(strong.snapshots)):
        U = w.velocity(floor)[0] - s.velocity(floor)[0]
        jac = grids.gradient(g, U)
        cols["norm_frakR"][k] = _lp_norms(g, w.R - s.R, 2)
        cols["norm_calQ"][k] = _lp_norms(g, w.Q - s.Q, 2)
        cols["norm_wU"][k] = _weighted_l2s(g, w.R + w.Q, U)
        cols["norm_gradU"][k] = _lp_norms(g, jac, 2)
        # the trace summed in axis order equals grids.divergence bit for bit
        div = sum((jac[i, i] for i in range(1, g.dim)), jac[0, 0])
        cols["norm_divU"][k] = _lp_norms(g, div, 2)
        cols["norm_U6"][k] = _lp_norms(g, U, 6)
        cols["mean_U"][k] = _vector_norms(grids.integrate(g, U))
        sups = np.max(np.abs([w.R, w.Q, s.R, s.Q]), axis=space)
        cols["sup_R"][k], cols["sup_Q"][k] = sups[0], sups[1]
        cols["M_bound"][k] = np.max(sups, axis=0)
    cols["int_gradU"] = cumulative_trapezoid(cols["t"], cols["norm_gradU"])
    cols["M_bound"] = np.maximum.accumulate(cols["M_bound"])
    return PairDiagnostics(**cols)


def reference_series(traj: Trajectory, params: SimParams) -> ReferenceSeries:
    """Reference-run norms, with the material derivative from an rhs call.

    Each block of samples takes one cold closure solve and one ``rhs`` call.
    """
    g = traj.grid
    floor = params.density_floor
    n = len(traj.snapshots)
    out = {name: np.zeros(n) for name in ("grad_u_2", "grad_u_inf", "material_3")}
    for k, s in _blocks(traj.snapshots):
        ev = s.evaluate(params)
        ten = dynamics.rhs(s, params, ev)
        u = ev.u
        rho = np.maximum(s.R + s.Q, floor)
        dtu = (ten.dm - u * (ten.dR + ten.dQ)) / rho
        jac = grids.gradient(g, u)
        conv = np.einsum("i...,ij...->j...", u, jac)
        out["material_3"][k] = _lp_norms(g, dtu + conv, 3)
        out["grad_u_2"][k] = _lp_norms(g, jac, 2)
        out["grad_u_inf"][k] = _lp_norms(g, jac, math.inf)
    return ReferenceSeries(t=traj.snapshot_times, **out)


@dataclass
class DensityStabilityReport:
    """Fitted constant for ||frakR|| + ||calQ|| <= C * int ||grad U||."""

    t: np.ndarray
    C_of_t: np.ndarray
    fitted_C: float
    median_C: float
    verdict: bool


def _median(values: np.ndarray) -> float:
    """np.median of a 1-D array, without the numpy.ma import its first call costs."""
    s = np.sort(values)  # NaNs sort last, and np.median returns NaN if any
    mid = len(s) // 2
    if np.isnan(s[-1]):
        return math.nan
    return float(s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2)


def check_density_stability(diag: PairDiagnostics) -> DensityStabilityReport:
    """Fit the density-stability constant and test its stability in time.

    The verdict is true when every ratio is finite and the supremum stays
    within twice the median over the sampled window.
    """
    if diag.norm_frakR[0] != 0.0 or diag.norm_calQ[0] != 0.0:
        raise DomainError(
            "density stability requires identical initial densities in the twin"
        )
    num = diag.norm_frakR + diag.norm_calQ
    C_of_t = num / np.maximum(EPS_DIV, diag.int_gradU)
    fitted = float(np.max(C_of_t))
    median = _median(C_of_t)
    verdict = bool(np.all(np.isfinite(C_of_t)) and fitted <= 2.0 * median)
    return DensityStabilityReport(
        t=diag.t.copy(),
        C_of_t=C_of_t,
        fitted_C=fitted,
        median_C=median,
        verdict=verdict,
    )


@dataclass
class MeanVelocityReport:
    """Residuals of the exact mean-velocity identity plus the fitted bound."""

    t: np.ndarray
    residual: np.ndarray
    scale: np.ndarray
    rtol: float
    verdict: bool
    fitted_C: float  # constant in the mean-velocity estimate


def check_mean_velocity(
    weak: Trajectory,
    strong: Trajectory,
    diag: PairDiagnostics,
    rtol: float = 1e-12,
) -> MeanVelocityReport:
    """Verify integral (R+Q) U dx = -integral (frakR+calQ)(u~ - mean u~) dx.

    The identity needs matched total masses (it encodes conservation), so a
    relative initial-mass mismatch beyond 1e-10 is a precondition error.
    The residual is compared against rtol times the summed magnitudes of the
    integrals entering both sides, which is the honest rounding scale for a
    difference of near-cancelling quantities.
    """
    g = weak.grid
    floor = weak.params.density_floor
    m0_w = grids.integrate(g, weak.snapshots[0].R + weak.snapshots[0].Q)
    m0_s = grids.integrate(g, strong.snapshots[0].R + strong.snapshots[0].Q)
    if abs(m0_w - m0_s) > 1e-10 * max(abs(m0_w), abs(m0_s)):
        raise DomainError(
            f"twin initial masses differ beyond 1e-10 relative: {m0_w} vs {m0_s}"
        )

    n = len(weak.snapshots)
    residual = np.zeros(n)
    scale = np.zeros(n)
    grad_us = np.zeros(n)
    for (k, w), (_, s) in zip(_blocks(weak.snapshots), _blocks(strong.snapshots)):
        u_w = w.velocity(floor)[0]
        u_s = s.velocity(floor)[0]
        U = u_w - u_s
        rho_w = w.R + w.Q
        diff = (w.R - s.R) + (w.Q - s.Q)
        mean_us = grids.integrate(g, u_s) / g.volume
        centered = u_s - mean_us.reshape(mean_us.shape + (1,) * g.dim)
        lhs = grids.integrate(g, rho_w * U)
        rhs = -grids.integrate(g, diff * centered)
        residual[k] = _vector_norms(lhs - rhs)
        mag_w = grids._magnitude(u_w, g.dim + 1)
        mag_s = grids._magnitude(u_s, g.dim + 1)
        mag_c = grids._magnitude(centered, g.dim + 1)
        scale[k] = grids.integrate(g, rho_w * (mag_w + mag_s)) + grids.integrate(
            g, np.abs(diff) * mag_c
        )
        grad_us[k] = _lp_norms(g, grids.gradient(g, u_s), 2)
    bracket = (diag.sup_R + diag.sup_Q) * diag.norm_gradU + grad_us * (
        diag.norm_frakR + diag.norm_calQ
    )
    ok = bracket > EPS_DIV
    # Python's max, not np.max: a NaN ratio is skipped, not propagated.
    fitted = max([0.0, *(diag.mean_U[ok] * m0_s / bracket[ok]).tolist()])
    verdict = bool(np.all(residual <= rtol * np.maximum(scale, 1e-300)))
    return MeanVelocityReport(
        t=weak.snapshot_times,
        residual=residual,
        scale=scale,
        rtol=rtol,
        verdict=verdict,
        fitted_C=fitted,
    )


def fit_gronwall_constant(
    diag: PairDiagnostics, ref: ReferenceSeries, params: SimParams
) -> float:
    """Smallest C for which the trace satisfies the Gronwall hypothesis.

    The paper's constant is existential and absorbs the viscosity
    normalization, so it cannot be taken from any single estimate; this fit
    returns the max of lhs / rhs, (f' + (g')^2) / (alpha f + beta g g'), of
    ``check_hypothesis`` on the C = 1 trace, over the intervals with
    rhs > EPS_DIV and lhs > 0. Identically zero traces fit C = 0.
    """
    report = check_hypothesis(build_gronwall_trace(diag, ref, params, C=1.0))
    valid = (report.rhs > EPS_DIV) & (report.lhs > 0.0)
    if not valid.any():
        return 0.0
    return float(np.max(report.lhs[valid] / report.rhs[valid]))


def build_gronwall_trace(
    diag: PairDiagnostics,
    ref: ReferenceSeries,
    params: SimParams,
    C: float,
) -> GronwallTrace:
    """Assemble the Gronwall trace of the difference system.

    f = 1/2 ||sqrt(R+Q) U||^2 + 1/2 int (g')^2, g' = ||grad U||_2,
    alpha = C (t ||Du~||_3 ||grad u~||_2 + ||grad u~||_inf) and
    beta = C (||Du~||_3 + 1), with Du~ the material derivative of the
    reference velocity. ``compare`` passes the larger of the fitted
    density-stability constant and ``fit_gronwall_constant``.
    """
    if C < 0.0:
        raise DomainError("Gronwall constant C must be nonnegative")
    gprime = diag.norm_gradU
    f = 0.5 * diag.norm_wU**2 + 0.5 * cumulative_trapezoid(diag.t, gprime**2)
    alpha = C * (diag.t * ref.material_3 * ref.grad_u_2 + ref.grad_u_inf)
    beta = C * (ref.material_3 + 1.0)
    return GronwallTrace(t=diag.t.copy(), f=f, gprime=gprime, alpha=alpha, beta=beta)


@dataclass
class TwinResult:
    """Everything one twin experiment produced."""

    strong: Trajectory
    weak: Trajectory
    diag: PairDiagnostics
    ref: ReferenceSeries


def _weak_member(initial, strong, params, delta, wavevector, phase):
    """Perturb the initial state, replay the strong run's schedule, compare.

    The replayed steps were sized for the strong run; a weak run whose own
    realised CFL number exceeds 1 left the stable regime the twin relies on.
    """
    weak_initial = perturb_state(initial, delta, wavevector, phase)
    weak = dynamics.run(
        weak_initial, params, dt_schedule=strong.dts, energy_rows=False
    )
    cfl = weak.diagnostics.realised_cfl
    k = int(np.argmax(cfl))
    if cfl[k] > 1.0:
        raise ConsistencyError(
            f"weak run at delta={delta:g} exceeds its own step limit at "
            f"t={weak.diagnostics.t[k]:g}: realised CFL number {cfl[k]:.4g} > 1"
        )
    return weak, compare(weak, strong)


def run_twin(
    initial: State,
    params: SimParams,
    delta: float,
    wavevector: int = 2,
    phase: float = 0.0,
) -> TwinResult:
    """Run the reference and its delta-perturbed twin on a shared schedule.

    No twin output reads an energy row, so neither run computes them.
    """
    strong = dynamics.run(initial, params, energy_rows=False)
    weak, diag = _weak_member(initial, strong, params, delta, wavevector, phase)
    return TwinResult(
        strong=strong, weak=weak, diag=diag, ref=reference_series(strong, params)
    )


@dataclass
class SweepRow:
    delta: float
    sup_distance: float
    ratio: float
    fitted_C: float
    verdict: bool  # the density-stability verdict of this member


def _sweep_row(delta, diag: PairDiagnostics) -> SweepRow:
    """One sweep row; ratio is sup_distance / |delta|, NaN at delta = 0."""
    stability = check_density_stability(diag)
    sup = diag.sup_distance
    return SweepRow(
        delta=float(delta),
        sup_distance=sup,
        ratio=sup / abs(delta) if delta != 0.0 else math.nan,
        fitted_C=stability.fitted_C,
        verdict=stability.verdict,
    )


def stability_sweep(
    initial: State,
    params: SimParams,
    deltas: Sequence[float],
    wavevector: int = 2,
    phase: float = 0.0,
) -> list[SweepRow]:
    """Twin experiments over a perturbation-size sweep, sharing the reference.

    A row needs no reference-run norms, so none are computed, and each
    member's weak trajectory is dropped once its row is built.
    """
    strong = dynamics.run(initial, params, energy_rows=False)
    return [
        _sweep_row(delta, _weak_member(initial, strong, params, delta, wavevector, phase)[1])
        for delta in deltas
    ]
