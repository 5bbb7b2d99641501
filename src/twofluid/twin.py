"""Twin-experiment machinery: reference vs perturbed runs and their distance.

A "strong" reference trajectory and "weak" ones, whose initial velocities
each carry one ``Perturbation``, run on one time-step schedule; the
difference fields frakR = R - R~, calQ = Q - Q~ and U = u - u~ are reduced
to the norm series that drive the stability estimates, the mean-velocity
identity and the Gronwall trace assembly. The strong run keeps its states,
which every member pairs with; a weak run keeps none, since its observer
hands each block of states to ``compare`` as the run reaches it. The trace
also needs the strong run's own norms, which an observer of that run
reduces from each state's evaluation and stage-1 tendencies, so no state is
evaluated twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import dynamics, grids
from .dynamics import Evaluation, SimParams, State, Tendencies, Trajectory
from .errors import ConfigError, ConsistencyError, ConvergenceError, DomainError
from .grids import PeriodicGrid
from .gronwall import GronwallTrace, check_hypothesis, cumulative_trapezoid

EPS_DIV = 1e-14
# Relative tolerance of the mean-velocity identity, against its rounding scale.
MEANVEL_RTOL = 1e-12

# compare stacks this many grid points of samples at most, so a block's
# arrays stay small, and a weak run buffers one such block of its states;
# a 2D or 3D grid usually gives one-sample blocks.
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
    # the mean-velocity identity, kept for check_mean_velocity
    meanvel_residual: np.ndarray  # |lhs - rhs|
    meanvel_scale: np.ndarray  # summed magnitudes of the integrals on both sides

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


@dataclass(frozen=True)
class Perturbation:
    """The weak run's velocity perturbation, [perturbation] of the config."""

    delta: float
    wavevector: int
    phase: float


def perturb_state(state: State, perturbation: Perturbation) -> State:
    """Add a single Fourier mode of size delta to the velocity.

    The mode is delta * sin(wavevector * 2 pi x_0 / L + phase) along the
    first grid axis, added to every velocity component. The densities stay
    as they are, so the twin starts from the same initial densities.
    delta = 0 returns an untouched copy, so zero-perturbation twins stay
    bit-identical. A delta whose momentum overflows is a DomainError
    naming it.
    """
    delta = perturbation.delta
    if delta == 0.0:
        return state.copy()
    g = state.grid
    x0 = g.coordinates()[0]
    k = perturbation.wavevector * (2.0 * math.pi / g.length)
    bump = delta * np.sin(k * x0 + perturbation.phase)
    with np.errstate(over="ignore"):
        m = state.m + (state.R + state.Q) * bump
    if not np.isfinite(m).all():
        raise DomainError(f"perturbation delta={delta:g} overflows the weak momentum")
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
    """grids.lp_norm of each member, for finite p >= 1."""
    mag = grids._magnitude(values, g.dim + 1)
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


def compare(weak: Sequence[State], strong: Sequence[State], params: SimParams) -> PairDiagnostics:
    """Difference norms of two runs' states on matched grids and samples.

    ``weak`` and ``strong`` are the states of each run at the same samples,
    in order, and ``params`` the runs' parameters. The twins must also
    start from the same total mass, within 1e-10 relative: the
    mean-velocity identity, whose two sides the same pass reduces for
    ``check_mean_velocity``, encodes conservation. Samples are reduced in
    blocks of at most BLOCK_POINTS grid points; every value equals that of
    a per-sample loop over the grids reducers. A twin hands it one block of
    its weak run at a time, and ``_Pair`` joins those into ``compare`` of
    the whole runs bit for bit.
    """
    if weak[0].grid != strong[0].grid:
        raise ConfigError("twin runs live on different grids")
    t = np.asarray([s.t for s in weak])
    if not np.array_equal(t, [s.t for s in strong]):
        raise ConfigError("twin runs sampled different times; share a dt schedule")
    g = weak[0].grid
    m0_w, m0_s = (grids.integrate(g, states[0].R + states[0].Q) for states in (weak, strong))
    if abs(m0_w - m0_s) > 1e-10 * max(abs(m0_w), abs(m0_s)):
        raise DomainError(
            f"twin initial masses differ beyond 1e-10 relative: {m0_w} vs {m0_s}"
        )
    floor = params.density_floor
    cols = {f.name: np.zeros(len(t)) for f in fields(PairDiagnostics)}
    cols["t"] = t
    space = tuple(range(2, g.dim + 2))  # grid axes of the 4 stacked densities
    for (k, w), (_, s) in zip(_blocks(weak), _blocks(strong)):
        u_w, u_s = w.velocity(floor)[0], s.velocity(floor)[0]
        U = u_w - u_s
        jac = grids.gradient(g, U)
        frakR, calQ, rho_w = w.R - s.R, w.Q - s.Q, w.R + w.Q
        cols["norm_frakR"][k] = _lp_norms(g, frakR, 2)
        cols["norm_calQ"][k] = _lp_norms(g, calQ, 2)
        cols["norm_wU"][k] = _weighted_l2s(g, rho_w, U)
        cols["norm_gradU"][k] = _lp_norms(g, jac, 2)
        # the trace summed in axis order equals grids.divergence bit for bit
        div = sum((jac[i, i] for i in range(1, g.dim)), jac[0, 0])
        cols["norm_divU"][k] = _lp_norms(g, div, 2)
        cols["norm_U6"][k] = _lp_norms(g, U, 6)
        cols["mean_U"][k] = _vector_norms(grids.integrate(g, U))
        sups = np.max(np.abs([w.R, w.Q, s.R, s.Q]), axis=space)
        cols["sup_R"][k], cols["sup_Q"][k] = sups[0], sups[1]
        cols["M_bound"][k] = np.max(sups, axis=0)
        # integral (R+Q) U dx = -integral (frakR+calQ)(u~ - mean u~) dx
        diff = frakR + calQ
        mean_us = grids.integrate(g, u_s) / g.volume
        centered = u_s - mean_us.reshape(mean_us.shape + (1,) * g.dim)
        lhs = grids.integrate(g, rho_w * U)
        rhs = -grids.integrate(g, diff * centered)
        cols["meanvel_residual"][k] = _vector_norms(lhs - rhs)
        mag_w, mag_s, mag_c = (grids._magnitude(v, g.dim + 1) for v in (u_w, u_s, centered))
        cols["meanvel_scale"][k] = grids.integrate(g, rho_w * (mag_w + mag_s)) + grids.integrate(
            g, np.abs(diff) * mag_c
        )
    return _finish(cols)


def _finish(cols: dict[str, np.ndarray]) -> PairDiagnostics:
    """The diagnostics of per-sample columns, with the two series that run over all samples."""
    cols["int_gradU"] = cumulative_trapezoid(cols["t"], cols["norm_gradU"])
    cols["M_bound"] = np.maximum.accumulate(cols["M_bound"])
    return PairDiagnostics(**cols)


class _Reference:
    """Observer of the strong run that reduces each state to its reference norms.

    The material derivative du/dt + (u.grad)u takes du/dt from the state's
    stage-1 tendencies k1, ``rhs(state, params, ev)``, and u from ``ev``.
    Each call keeps only the three norms, since ``step`` overwrites k1.
    """

    def __init__(self, params: SimParams):
        self.floor = params.density_floor
        self._rows: list[tuple[float, float, float, float]] = []

    def __call__(self, state: State, ev: Evaluation, k1: Tendencies, p, density) -> None:
        g, u = state.grid, ev.u
        rho = np.maximum(state.R + state.Q, self.floor)
        dtu = (k1.dm - u * (k1.dR + k1.dQ)) / rho
        jac = grids.gradient(g, u)
        conv = np.einsum("i...,ij...->j...", u, jac)
        grad_2, grad_inf = (grids.lp_norm(g, jac, q) for q in (2, math.inf))
        self._rows.append((state.t, grad_2, grad_inf, grids.lp_norm(g, dtu + conv, 3)))

    def series(self) -> ReferenceSeries:
        """The norms of the states observed so far."""
        return ReferenceSeries(*map(np.asarray, zip(*self._rows)))


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
    """Residuals of the exact mean-velocity identity at every sample."""

    residual: np.ndarray
    scale: np.ndarray
    rtol: float
    verdict: bool


def check_mean_velocity(diag: PairDiagnostics) -> MeanVelocityReport:
    """Verify integral (R+Q) U dx = -integral (frakR+calQ)(u~ - mean u~) dx.

    Both sides come from ``diag``, which ``compare`` reduces in its own pass
    after checking the matched initial masses the identity needs. The
    residual is compared against MEANVEL_RTOL times the summed magnitudes of
    the integrals entering both sides, which is the honest rounding scale for
    a difference of near-cancelling quantities. Unequal total momenta, the
    residual at every sample, fail at sample 0 as a DomainError.
    """
    residual, scale = diag.meanvel_residual, diag.meanvel_scale
    tol = MEANVEL_RTOL * np.maximum(scale, 1e-300)
    if residual[0] > tol[0]:
        raise DomainError(f"twin initial momenta differ by {residual[0]:.3e} > {tol[0]:.3e}")
    verdict = bool(np.all(residual <= tol))
    return MeanVelocityReport(residual=residual, scale=scale, rtol=MEANVEL_RTOL, verdict=verdict)


@dataclass
class GronwallFit:
    """The fitted Gronwall constant and the intervals no constant can satisfy."""

    C: float
    unfittable: np.ndarray  # left ends of the intervals with lhs > 0, rhs <= EPS_DIV


def fit_gronwall_constant(diag: PairDiagnostics, ref: ReferenceSeries) -> GronwallFit:
    """Smallest C for which the trace satisfies the Gronwall hypothesis, and where none does.

    The paper's constant is existential and absorbs the viscosity
    normalization, so it cannot be taken from any single estimate; this fit
    takes the max of lhs / rhs, (f' + (g')^2) / (alpha f + beta g g'), of
    ``check_hypothesis`` on the C = 1 trace, over the intervals with
    rhs > EPS_DIV and lhs > 0; identically zero traces fit C = 0. rhs scales
    with C, so no C covers an interval with lhs > 0 and rhs <= EPS_DIV:
    ``unfittable`` holds their left ends, one at t = 0 for a constant reference.
    """
    report = check_hypothesis(build_gronwall_trace(diag, ref, C=1.0))
    positive = report.lhs > 0.0
    valid = positive & (report.rhs > EPS_DIV)
    C = float(np.max(report.lhs[valid] / report.rhs[valid])) if valid.any() else 0.0
    return GronwallFit(C, report.t[positive & (report.rhs <= EPS_DIV)])


def build_gronwall_trace(diag: PairDiagnostics, ref: ReferenceSeries, C: float) -> GronwallTrace:
    """Assemble the Gronwall trace of the difference system.

    f = 1/2 ||sqrt(R+Q) U||^2 + 1/2 int (g')^2, g' = ||grad U||_2,
    alpha = C (t ||Du~||_3 ||grad u~||_2 + ||grad u~||_inf) and
    beta = C (||Du~||_3 + 1), with Du~ the material derivative of the
    reference velocity. ``compare`` passes the larger of the fitted
    density-stability constant and ``fit_gronwall_constant``'s C.
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
    """What one twin experiment produced: its pair's ``compare`` and reference norms."""

    diag: PairDiagnostics
    ref: ReferenceSeries


def _check_floor(run: str, params: SimParams, state: State, ev: Evaluation) -> None:
    """Fail ``run`` at a state whose density falls below the floor, which ``State.evaluate`` counts.

    Its velocity is m/floor, not m/(R+Q), so the twin would leave the
    bounded densities the uniqueness result assumes.
    """
    if ev.floor_hits:
        raise DomainError(
            f"{run} run: density R+Q falls below time.density_floor="
            f"{params.density_floor:g} at t={state.t:g} ({ev.floor_hits} points)"
        )


def _kept_run(
    initial: State, params: SimParams, run: str, *observers, **kwargs
) -> tuple[Trajectory, list[State]]:
    """``dynamics.run`` and every state it passes through, in order, which ``observers`` see too.

    Each state passes ``_check_floor`` first.
    """
    states: list[State] = []

    def keep(state: State, ev: Evaluation, *_) -> None:
        _check_floor(run, params, state, ev)
        states.append(state)

    return dynamics.run(initial, params, observers=(keep, *observers), **kwargs), states


class _Pair:
    """Observer of a weak run that reduces it against the strong run's kept states.

    Each state passes ``_check_floor`` and joins a buffer of at most
    ``max(1, BLOCK_POINTS // npoints)`` states, the block ``compare``
    stacks; a full buffer goes to ``compare`` with the strong states of the
    same samples, and is then dropped, so no weak state outlives its block.
    ``diagnostics`` reduces the last, partial block. Blocks start at sample
    0, as ``compare``'s own do, so the joined series equals ``compare`` of
    the whole runs bit for bit.
    """

    def __init__(self, strong: Sequence[State], params: SimParams, run: str):
        self.strong, self.params, self.run = strong, params, run
        self.size = max(1, BLOCK_POINTS // strong[0].grid.npoints)
        self.seen = 0  # states handed to the observer
        self._block: list[State] = []
        self._parts: list[PairDiagnostics] = []

    def __call__(self, state: State, ev: Evaluation, *_) -> None:
        _check_floor(self.run, self.params, state, ev)
        self._block.append(state)
        self.seen += 1
        if len(self._block) == self.size:
            self._reduce()

    def _reduce(self) -> None:
        block, self._block = self._block, []
        strong = self.strong[self.seen - len(block) : self.seen]
        self._parts.append(compare(block, strong, self.params))

    def diagnostics(self) -> PairDiagnostics:
        """``compare`` of every state observed against the strong states of the same samples.

        It joins the blocks' series. A running max of the blocks' running
        maxes is that of the samples, so only ``int_gradU`` takes new
        arithmetic, the trapezoid over every ``t``.
        """
        if self._block:
            self._reduce()
        names = [f.name for f in fields(PairDiagnostics)]
        return _finish({n: np.concatenate([getattr(d, n) for d in self._parts]) for n in names})


def _members(initial: State, params: SimParams, members: Sequence[Perturbation], *observers):
    """Yield each member's pair diagnostics against one strong run, which ``observers`` see.

    Every member is perturbed before the strong run, which keeps its
    states. Each weak run replays its steps under a ``_Pair`` observer,
    which reduces the run block by block as it steps, so at most one
    block of its states is alive. A weak run whose own realised CFL number
    exceeds 1 left the stable regime; one whose own step limit vanishes,
    or any of whose closure solves stalls, fails naming its member and the
    time. A run whose density falls below the floor fails as it steps.
    """
    weak_initials = [perturb_state(initial, p) for p in members]
    strong, strong_states = _kept_run(initial, params, "reference", *observers)
    for p, weak_initial in zip(members, weak_initials):
        pair = _Pair(strong_states, params, f"delta={p.delta:g}")
        try:
            weak = dynamics.run(weak_initial, params, dt_schedule=strong.dts, observers=(pair,))
        except ConvergenceError as err:
            # the failing state, or the stage stepping to it, follows the last one observed
            t = strong_states[pair.seen].t
            raise ConvergenceError(
                f"weak run at delta={p.delta:g} fails at t={t:g}: {err}", err.bracket, err.index
            ) from err
        cfl = weak.realised_cfl
        if cfl.size and cfl.max() > 1.0:
            k = int(np.argmax(cfl))
            raise ConsistencyError(
                f"weak run at delta={p.delta:g} exceeds its own step limit at "
                f"t={strong_states[k].t:g}: realised CFL number {cfl[k]:.4g} > 1"
            )
        diag = pair.diagnostics()
        del weak, pair  # else they outlive the yield into the next member's run
        yield diag


def run_twin(initial: State, params: SimParams, perturbation: Perturbation) -> TwinResult:
    """Run the reference and its perturbed twin: the sweep's member loop, one member.

    No twin output reads a diagnostics row, so neither run records them.
    The reference norms come from an observer of the strong run, so each
    run of N steps solves the closure 2N + 1 times and nothing else does.
    The strong run's states are kept; the weak run's are reduced and
    dropped block by block as it steps.
    """
    reference = _Reference(params)
    (diag,) = _members(initial, params, [perturbation], reference)
    return TwinResult(diag=diag, ref=reference.series())


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
    initial: State, params: SimParams, members: Sequence[Perturbation]
) -> list[SweepRow]:
    """Twin experiments, one per perturbation of ``members``, sharing the reference.

    A row needs no reference-run norms, so none are computed. The strong
    run's states are kept for every member; each weak run's are reduced
    and dropped block by block as it steps.
    """
    return [_sweep_row(p.delta, d) for p, d in zip(members, _members(initial, params, members))]
