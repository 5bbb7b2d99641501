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
from .errors import ConfigError, DomainError
from .gronwall import GronwallTrace, cumulative_trapezoid

PERTURBATION_TARGETS = ("velocity", "densities", "all")
EPS_DIV = 1e-14


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
    target: str = "velocity",
    wavevector: int = 2,
    phase: float = 0.0,
) -> State:
    """Add a single Fourier mode of size delta to the targeted fields.

    The mode is sin(wavevector * 2 pi x_0 / L + phase) along the first grid
    axis. delta = 0 returns an untouched copy, so zero-perturbation twins
    stay bit-identical.
    """
    if target not in PERTURBATION_TARGETS:
        raise DomainError(f"unknown perturbation target {target!r}")
    if delta == 0.0:
        return state.copy()
    g = state.grid
    x0 = g.coordinates()[0]
    shape = np.sin(wavevector * (2.0 * math.pi / g.length) * x0 + phase)
    bump = delta * shape

    R, Q, m = state.R.copy(), state.Q.copy(), state.m.copy()
    rho = R + Q
    if target == "velocity":
        m = m + rho * bump
    else:
        u = m / rho
        R = R + bump
        Q = Q + bump
        if np.min(R) <= 0.0 or np.min(Q) <= 0.0:
            raise DomainError(
                "density perturbation drives a phase density nonpositive"
            )
        if target == "all":
            u = u + bump
        m = (R + Q) * u
    return State(g, R, Q, m, state.t)


def compare(weak: Trajectory, strong: Trajectory) -> PairDiagnostics:
    """Difference norms of two trajectories on matched grids and samples."""
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
    for k, (w, s) in enumerate(zip(weak.snapshots, strong.snapshots)):
        U = w.velocity(floor)[0] - s.velocity(floor)[0]
        frakR = w.R - s.R
        calQ = w.Q - s.Q
        jac = grids.vector_gradient(g, U)
        cols["norm_frakR"][k] = grids.lp_norm(g, frakR, 2)
        cols["norm_calQ"][k] = grids.lp_norm(g, calQ, 2)
        cols["norm_wU"][k] = grids.weighted_l2(g, w.R + w.Q, U)
        cols["norm_gradU"][k] = grids.lp_norm(g, jac, 2)
        cols["norm_divU"][k] = grids.lp_norm(g, grids.divergence(g, U), 2)
        cols["norm_U6"][k] = grids.lp_norm(g, U, 6)
        cols["mean_U"][k] = float(np.linalg.norm(grids.integrate(g, U)))
        cols["sup_R"][k] = float(np.max(np.abs(w.R)))
        cols["sup_Q"][k] = float(np.max(np.abs(w.Q)))
        cols["M_bound"][k] = max(
            cols["sup_R"][k],
            cols["sup_Q"][k],
            float(np.max(np.abs(s.R))),
            float(np.max(np.abs(s.Q))),
        )
    cols["int_gradU"] = cumulative_trapezoid(cols["t"], cols["norm_gradU"])
    cols["M_bound"] = np.maximum.accumulate(cols["M_bound"])
    return PairDiagnostics(**cols)


def reference_series(traj: Trajectory, params: SimParams) -> ReferenceSeries:
    """Reference-run norms, with the material derivative from an rhs call."""
    g = traj.grid
    floor = params.density_floor
    n = len(traj.snapshots)
    out = {name: np.zeros(n) for name in ("grad_u_2", "grad_u_inf", "material_3")}
    for k, s in enumerate(traj.snapshots):
        ten = dynamics.rhs(s, params)
        u = ten.u
        rho = np.maximum(s.R + s.Q, floor)
        dtu = (ten.dm - u * (ten.dR + ten.dQ)) / rho
        jac = grids.vector_gradient(g, u)
        conv = np.einsum("i...,ij...->j...", u, jac)
        out["material_3"][k] = grids.lp_norm(g, dtu + conv, 3)
        out["grad_u_2"][k] = grids.lp_norm(g, jac, 2)
        out["grad_u_inf"][k] = grids.lp_norm(g, jac, math.inf)
    return ReferenceSeries(t=traj.snapshot_times, **out)


@dataclass
class DensityStabilityReport:
    """Fitted constant for ||frakR|| + ||calQ|| <= C * int ||grad U||."""

    t: np.ndarray
    C_of_t: np.ndarray
    fitted_C: float
    median_C: float
    verdict: bool


def check_density_stability(
    diag: PairDiagnostics, eps_div: float = EPS_DIV
) -> DensityStabilityReport:
    """Fit the density-stability constant and test its stability in time.

    The verdict is true when every ratio is finite and the supremum stays
    within twice the median over the sampled window.
    """
    if diag.norm_frakR[0] != 0.0 or diag.norm_calQ[0] != 0.0:
        raise DomainError(
            "density stability requires identical initial densities in the twin"
        )
    num = diag.norm_frakR + diag.norm_calQ
    C_of_t = num / np.maximum(eps_div, diag.int_gradU)
    fitted = float(np.max(C_of_t))
    median = float(np.median(C_of_t))
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
    fitted = 0.0
    for k, (w, s) in enumerate(zip(weak.snapshots, strong.snapshots)):
        u_w = w.velocity(floor)[0]
        u_s = s.velocity(floor)[0]
        U = u_w - u_s
        rho_w = w.R + w.Q
        diff = (w.R - s.R) + (w.Q - s.Q)
        mean_us = grids.integrate(g, u_s) / g.volume
        centered = u_s - mean_us.reshape((g.dim,) + (1,) * g.dim)
        lhs = grids.integrate(g, rho_w * U)
        rhs = -grids.integrate(g, diff * centered)
        residual[k] = float(np.linalg.norm(lhs - rhs))
        mag_w = grids.pointwise_magnitude(g, u_w)
        mag_s = grids.pointwise_magnitude(g, u_s)
        mag_c = grids.pointwise_magnitude(g, centered)
        scale[k] = grids.integrate(g, rho_w * (mag_w + mag_s)) + grids.integrate(
            g, np.abs(diff) * mag_c
        )
        bracket = (diag.sup_R[k] + diag.sup_Q[k]) * diag.norm_gradU[k] + (
            grids.lp_norm(g, grids.vector_gradient(g, u_s), 2)
            * (diag.norm_frakR[k] + diag.norm_calQ[k])
        )
        if bracket > EPS_DIV:
            fitted = max(fitted, diag.mean_U[k] * m0_s / bracket)
    verdict = bool(np.all(residual <= rtol * np.maximum(scale, 1e-300)))
    return MeanVelocityReport(
        t=weak.snapshot_times,
        residual=residual,
        scale=scale,
        rtol=rtol,
        verdict=verdict,
        fitted_C=fitted,
    )


def _trace_ingredients(diag, ref, params, mu_weighted):
    if mu_weighted:
        d = params.mu * diag.norm_gradU**2 + (params.mu + params.lam) * diag.norm_divU**2
        gprime = np.sqrt(d)
    else:
        d = diag.norm_gradU**2
        gprime = diag.norm_gradU
    f = 0.5 * diag.norm_wU**2 + 0.5 * cumulative_trapezoid(diag.t, d)
    alpha1 = diag.t * ref.material_3 * ref.grad_u_2 + ref.grad_u_inf
    beta1 = ref.material_3 + 1.0
    return f, gprime, alpha1, beta1


def fit_gronwall_constant(
    diag: PairDiagnostics,
    ref: ReferenceSeries,
    params: SimParams,
    mu_weighted: bool = False,
) -> float:
    """Smallest C for which the trace satisfies the Gronwall hypothesis.

    The paper's constant is existential and absorbs the viscosity
    normalization, so it cannot be taken from any single estimate; this fit
    returns max over intervals of (f' + (g')^2) / (alpha_1 f + beta_1 g g'),
    with f' a forward difference and alpha_1, beta_1 the C = 1 coefficient
    shapes. Identically zero traces fit C = 0.
    """
    f, gprime, alpha1, beta1 = _trace_ingredients(diag, ref, params, mu_weighted)
    g = cumulative_trapezoid(diag.t, gprime)
    lhs = np.diff(f) / np.diff(diag.t) + gprime[:-1] ** 2
    den = (alpha1 * f + beta1 * g * gprime)[:-1]
    valid = (den > EPS_DIV) & (lhs > 0.0)
    if not valid.any():
        return 0.0
    return float(np.max(lhs[valid] / den[valid]))


def build_gronwall_trace(
    diag: PairDiagnostics,
    ref: ReferenceSeries,
    params: SimParams,
    C: float | None = None,
    mu_weighted: bool = False,
) -> GronwallTrace:
    """Assemble the Gronwall trace of the difference system.

    f = 1/2 ||sqrt(R+Q) U||^2 + 1/2 int (g')^2, g' = ||grad U||_2,
    alpha = C (t ||Du~||_3 ||grad u~||_2 + ||grad u~||_inf) and
    beta = C (||Du~||_3 + 1), with Du~ the material derivative of the
    reference velocity. C defaults to the fitted density-stability constant.

    With mu_weighted=True, (g')^2 is the viscous dissipation quadratic form
    mu ||grad U||^2 + (mu+lam) ||div U||^2 instead of the plain gradient
    norm, which accounts for the viscosity otherwise absorbed into C.
    """
    if C is None:
        C = check_density_stability(diag).fitted_C
    if C < 0.0:
        raise DomainError("Gronwall constant C must be nonnegative")
    f, gprime, alpha1, beta1 = _trace_ingredients(diag, ref, params, mu_weighted)
    return GronwallTrace(
        t=diag.t.copy(), f=f, gprime=gprime, alpha=C * alpha1, beta=C * beta1
    )


@dataclass
class TwinResult:
    """Everything one twin experiment produced."""

    strong: Trajectory
    weak: Trajectory
    diag: PairDiagnostics
    ref: ReferenceSeries

    @property
    def sup_distance(self) -> float:
        return float(np.max(self.diag.norm_frakR + self.diag.norm_calQ + self.diag.norm_wU))


def _weak_member(initial, strong, ref, params, delta, target, wavevector, phase):
    """Perturb the initial state, replay the strong run's schedule, compare."""
    weak_initial = perturb_state(initial, delta, target, wavevector, phase)
    weak = dynamics.run(weak_initial, params, dt_schedule=strong.dts)
    return TwinResult(strong=strong, weak=weak, diag=compare(weak, strong), ref=ref)


def run_twin(
    initial: State,
    params: SimParams,
    delta: float,
    target: str = "velocity",
    wavevector: int = 2,
    phase: float = 0.0,
) -> TwinResult:
    """Run the reference and its delta-perturbed twin on a shared schedule."""
    strong = dynamics.run(initial, params)
    ref = reference_series(strong, params)
    return _weak_member(initial, strong, ref, params, delta, target, wavevector, phase)


@dataclass
class SweepRow:
    delta: float
    sup_distance: float
    ratio: float
    fitted_C: float
    verdict: bool  # the density-stability verdict of this member


@dataclass
class SweepReport:
    rows: list[SweepRow]


def _sweep_row(delta, result: TwinResult) -> SweepRow:
    """One sweep row; ratio is sup_distance / |delta|, NaN at delta = 0."""
    stability = check_density_stability(result.diag)
    sup = result.sup_distance
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
    target: str = "velocity",
    wavevector: int = 2,
    phase: float = 0.0,
) -> SweepReport:
    """Twin experiments over a perturbation-size sweep, sharing the reference.

    Each member's weak trajectory is dropped once its row is built.
    """
    strong = dynamics.run(initial, params)
    ref = reference_series(strong, params)
    return SweepReport(
        rows=[
            _sweep_row(
                delta,
                _weak_member(initial, strong, ref, params, delta, target, wavevector, phase),
            )
            for delta in deltas
        ]
    )
