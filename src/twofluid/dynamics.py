"""Conservative time integration of the two-fluid system.

State variables are the conserved (R, Q, m) with m = (R+Q)u, advanced by a
two-stage strong-stability-preserving Runge-Kutta (Heun) step. All flux
divergences use the centered conservative form, so the discrete masses and
total momentum telescope exactly on the periodic grid.

The pointwise work on a state -- its velocity with the floor hits, and the
implicit closure solve for Z and alpha -- is an ``Evaluation``. ``run``
evaluates each state once and shares the result between the diagnostics
row, ``stable_dt`` and stage 1 of the next step, so a free-stepping step
solves the closure twice (stage 2 and the new state) instead of four times.
Both solves start Newton from the Z of the state the step began at, which
moves Z by a few ulp against a cold solve and saves residual evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import closure, energy, grids
from .closure import ClosureParams
from .errors import ConsistencyError, ConvergenceError, DomainError
from .grids import PeriodicGrid

DT_MIN = 1e-12


@dataclass(frozen=True)
class SimParams:
    """Physical and numerical parameters of one run."""

    closure: ClosureParams
    mu: float
    lam: float = 0.0
    cfl: float = 0.4
    density_floor: float = 1e-10
    t_end: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise DomainError(f"mu must be positive, got {self.mu}")
        if not (math.isfinite(self.lam) and self.mu + self.lam >= 0.0):
            raise DomainError(f"mu + lambda must be nonnegative, got {self.mu + self.lam}")
        if not (0.0 < self.cfl <= 1.0):
            raise DomainError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.density_floor < 0.0:
            raise DomainError("density_floor must be nonnegative")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise DomainError(f"t_end must be nonnegative, got {self.t_end}")


@dataclass
class State:
    """Solution snapshot in conserved variables."""

    grid: PeriodicGrid
    R: np.ndarray
    Q: np.ndarray
    m: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if self.R.shape != self.grid.shape or self.Q.shape != self.grid.shape:
            raise DomainError("density shape does not match grid")
        if self.m.shape != (self.grid.dim, *self.grid.shape):
            raise DomainError("momentum shape does not match grid")

    def velocity(self, floor: float) -> tuple[np.ndarray, int]:
        """u = m / (R+Q) with the density floor; returns (u, floor hits)."""
        rho = self.R + self.Q
        hits = int(np.count_nonzero(rho < floor))
        return self.m / np.maximum(rho, floor), hits

    def evaluate(self, params: SimParams, guess: np.ndarray | None = None) -> "Evaluation":
        """Velocity, floor hits and closure solve of this state.

        ``guess`` (the Z of a nearby state) warm-starts the closure solve.
        """
        u, hits = self.velocity(params.density_floor)
        Z, alpha = closure.solve_Z_field(self.R, self.Q, params.closure, guess=guess)
        return Evaluation(u, hits, Z, alpha)

    def copy(self) -> "State":
        return State(self.grid, self.R.copy(), self.Q.copy(), self.m.copy(), self.t)


@dataclass(frozen=True)
class Evaluation:
    """Pointwise quantities of one state, shared by everything that reads it.

    Functions taking an optional ``ev`` use it in place of evaluating the
    state themselves; it must be ``state.evaluate(params, guess)`` of that
    state, for any guess.
    """

    u: np.ndarray
    floor_hits: int
    Z: np.ndarray
    alpha: np.ndarray


@dataclass
class Tendencies:
    """Time derivatives of (R, Q, m) and the velocity they were built from."""

    dR: np.ndarray
    dQ: np.ndarray
    dm: np.ndarray
    u: np.ndarray


SourceFn = Callable[[State], tuple[np.ndarray, np.ndarray, np.ndarray]]


def rhs(
    state: State,
    params: SimParams,
    source: SourceFn | None = None,
    ev: Evaluation | None = None,
) -> Tendencies:
    """Conservative right-hand side of the two-fluid system.

    dR/dt = -div(R u), dQ/dt = -div(Q u) and
    dm/dt = -div(m x u) - grad p(Z) + mu div(grad u) + (mu+lam) grad(div u),
    with Z from the pointwise closure solve and p = Z**gamma_plus.

    The viscous terms use the wide div(grad) composition rather than the
    compact Laplacian: paired with the centered stencils of the energy
    audit, the discrete viscous energy exchange is then exact, so the
    audited defect measures only advection, pressure and time-integration
    errors.

    Each axis i takes one centred difference of each operand stack: the
    fluxes (R u_i, Q u_i, m u_i), u (row i of the Jacobian) and that row
    again (the wide Laplacian); then p and div u take one per axis, 5*dim
    passes in all. Axes are summed in order and dm is assembled left to
    right as written above, so the tendencies equal bit for bit those
    composed from ``grids.divergence`` and ``grids.gradient``.

    ``ev`` is the state's evaluation when the caller already has it.
    """
    g = state.grid
    if ev is None:
        ev = state.evaluate(params)
    u = ev.u

    # Fluxes, then Jacobian rows, then p: one kind of operand stack is alive
    # at a time, which keeps the peak memory of a 2D or 3D call down.
    for i in range(g.dim):
        flux = np.empty((2 + g.dim, *g.shape))
        np.multiply(state.R, u[i], out=flux[0])
        np.multiply(state.Q, u[i], out=flux[1])
        np.multiply(state.m, u[i], out=flux[2:])
        if i == 0:
            div_flux = grids._centered(g, flux, 0)
        else:
            div_flux += grids._centered(g, flux, i)
    del flux
    for i in range(g.dim):
        jac_row = grids._centered(g, u, i)
        if i == 0:
            wide, div_u = grids._centered(g, jac_row, 0), jac_row[0]
        else:
            wide += grids._centered(g, jac_row, i)
            div_u += jac_row[i]  # writes into the axis-0 row, no longer read
    del jac_row
    np.negative(div_flux, out=div_flux)
    dR, dQ, dm = div_flux[0], div_flux[1], div_flux[2:]
    p = closure.pressure(ev.Z, params.closure)
    for i in range(g.dim):
        dm[i] -= grids._centered(g, p, i)
    wide *= params.mu
    dm += wide
    for i in range(g.dim):
        grad_div = grids._centered(g, div_u, i)
        grad_div *= params.mu + params.lam
        dm[i] += grad_div
    if source is not None:
        sR, sQ, sm = source(state)
        dR = dR + sR
        dQ = dQ + sQ
        dm = dm + sm
    for name, arr in (("dR", dR), ("dQ", dQ), ("dm", dm)):
        if not np.all(np.isfinite(arr)):
            loc = tuple(int(k) for k in np.argwhere(~np.isfinite(arr))[0])
            raise ConsistencyError(
                f"non-finite tendency {name} at index {loc}, t={state.t}"
            )
    return Tendencies(dR, dQ, dm, u)


def stable_dt(state: State, params: SimParams, ev: Evaluation | None = None) -> float:
    """Explicit-scheme time step limit.

    dt = cfl * min(dx/(max|u| + c_max), dx^2/(2 dim nu_max)) with the
    sound-speed proxy c_max = max sqrt(gamma_plus Z^(gamma_plus-1)
    max(|dZ/dR|, |dZ/dQ|)) taken pointwise over the grid.

    ``ev`` is the state's evaluation when the caller already has it.
    """
    g = state.grid
    if ev is None:
        ev = state.evaluate(params)
    umax = float(np.max(grids.pointwise_magnitude(g, ev.u)))

    Z = ev.Z
    pos = Z > 0.0
    c_max = 0.0
    if pos.any():
        zp = Z[pos]
        dzr, dzq = closure.derivative_arrays(state.R[pos], zp, params.closure.gamma)
        stiff = (
            params.closure.gamma_plus
            * np.power(zp, params.closure.gamma_plus - 1.0)
            * np.maximum(np.abs(dzr), np.abs(dzq))
        )
        c_max = float(np.sqrt(np.max(stiff)))

    rho_min = float(np.min(state.R + state.Q))
    nu_max = (2.0 * params.mu + params.lam) / max(params.density_floor, rho_min)
    advective = g.dx / (umax + c_max) if umax + c_max > 0.0 else math.inf
    viscous = g.dx**2 / (2.0 * g.dim * nu_max) if nu_max > 0.0 else math.inf
    dt = params.cfl * min(advective, viscous)
    if dt < DT_MIN:
        raise ConvergenceError(f"vanishing time step: dt={dt} below {DT_MIN}")
    return dt


def step(
    state: State,
    params: SimParams,
    dt: float,
    source: SourceFn | None = None,
    ev: Evaluation | None = None,
) -> State:
    """One SSP-RK2 (Heun) update; the caller guarantees dt <= stable_dt.

    Stage 1 uses ``ev`` when given, so a state already evaluated for its
    step size is not solved again, and stage 2 then starts its closure solve
    from ``ev.Z``.
    """
    g = state.grid
    k1 = rhs(state, params, source, ev)
    s1 = State(
        g,
        state.R + dt * k1.dR,
        state.Q + dt * k1.dQ,
        state.m + dt * k1.dm,
        state.t + dt,
    )
    ev1 = None if ev is None else s1.evaluate(params, guess=ev.Z)
    k2 = rhs(s1, params, source, ev1)
    return State(
        g,
        0.5 * state.R + 0.5 * (s1.R + dt * k2.dR),
        0.5 * state.Q + 0.5 * (s1.Q + dt * k2.dQ),
        0.5 * state.m + 0.5 * (s1.m + dt * k2.dm),
        state.t + dt,
    )


@dataclass
class DiagnosticSeries:
    """Per-step scalar diagnostics; one row per recorded state.

    ``kinetic`` and ``internal`` are kept for the energy emission and
    ``realised_cfl`` for the twin layer's step-limit check; none of them is
    part of the diagnostics CSV contract (``energy`` is kinetic + internal).
    """

    t: np.ndarray
    dt: np.ndarray
    realised_cfl: np.ndarray  # dt * cfl / stable_dt of the state; 0 on the last row
    mass_R: np.ndarray
    mass_Q: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    min_R: np.ndarray
    min_Q: np.ndarray
    max_u: np.ndarray
    floor_hits: np.ndarray
    kinetic: np.ndarray
    internal: np.ndarray

    COLUMNS = (
        "t",
        "dt",
        "mass_R",
        "mass_Q",
        "energy",
        "dissipation",
        "min_R",
        "min_Q",
        "max_u",
        "floor_hits",
    )


@dataclass
class Trajectory:
    """Everything one run produced: its diagnostics rows and sampled states."""

    params: SimParams
    diagnostics: DiagnosticSeries
    snapshots: list[State]

    @property
    def grid(self) -> PeriodicGrid:
        return self.snapshots[0].grid

    @property
    def snapshot_times(self) -> np.ndarray:
        return np.asarray([s.t for s in self.snapshots])

    @property
    def dts(self) -> np.ndarray:
        """The step sizes taken; the diagnostics' dt column ends with a 0."""
        return self.diagnostics.dt[:-1]

    @property
    def initial(self) -> State:
        return self.snapshots[0]

    @property
    def final(self) -> State:
        return self.snapshots[-1]


def _record_diagnostics(
    cols: dict[str, list], state: State, params: SimParams, ev: Evaluation
) -> None:
    """Append the DiagnosticSeries fields other than dt for one evaluated state."""
    g = state.grid
    report = energy.total_energy(state, params, ev)
    row = dict(
        t=state.t,
        mass_R=grids.integrate(g, state.R),
        mass_Q=grids.integrate(g, state.Q),
        energy=report.kinetic + report.internal,
        dissipation=report.dissipation_rate,
        min_R=float(np.min(state.R)),
        min_Q=float(np.min(state.Q)),
        max_u=float(np.max(grids.pointwise_magnitude(g, ev.u))),
        floor_hits=ev.floor_hits,
        kinetic=report.kinetic,
        internal=report.internal,
    )
    for name, value in row.items():
        cols.setdefault(name, []).append(value)


def run(
    initial: State,
    params: SimParams,
    *,
    dt_schedule: Sequence[float] | None = None,
    source: SourceFn | None = None,
    every_state: bool = True,
) -> Trajectory:
    """Advance the state to t_end, collecting diagnostics and snapshots.

    ``dt_schedule`` imposes an explicit step sequence (used to force twin
    runs onto a shared schedule); otherwise each step takes the stability
    limit clamped to land exactly on t_end. Time accumulation snaps onto
    t_end through the same code path either way, so replaying a recorded
    schedule reproduces the recorded sample times bit for bit. A schedule
    that runs out before t_end raises ConsistencyError. Every step records
    its realised CFL number, dt * cfl / ``stable_dt``, which exceeds 1 when
    a replayed step is longer than the state's own step limit.

    Each state is evaluated once: the one velocity and closure solve serve
    its diagnostics row, its ``stable_dt`` and stage 1 of its step. Each
    state after the first starts its closure solve from the previous
    state's Z, as does the stage-2 solve of every step. Every
    state gets a diagnostics row; ``snapshots`` keeps every state, or with
    ``every_state=False`` only the initial and the final state.

    Identical inputs produce bit-identical trajectories. The floor-hit count
    reflects the velocity reconstruction of each recorded state.
    """
    eps_t = max(DT_MIN, 4.0 * np.finfo(float).eps * params.t_end)
    state = initial.copy()
    snapshots = []
    dts: list[float] = []
    realised_cfl: list[float] = []
    cols: dict[str, list] = {}
    ev = None
    while True:
        ev = state.evaluate(params, guess=None if ev is None else ev.Z)
        _record_diagnostics(cols, state, params, ev)
        remaining = params.t_end - state.t
        if remaining <= eps_t:
            break
        if every_state or not snapshots:
            snapshots.append(state)
        limit = stable_dt(state, params, ev)
        if dt_schedule is not None:
            if len(dts) >= len(dt_schedule):
                raise ConsistencyError(
                    f"dt schedule of {len(dt_schedule)} steps ends at t={state.t} "
                    f"before t_end={params.t_end}"
                )
            dt = float(dt_schedule[len(dts)])
        else:
            dt = min(limit, remaining)
        dts.append(dt)
        realised_cfl.append(dt * params.cfl / limit)
        state = step(state, params, dt, source, ev)
        if abs(params.t_end - state.t) <= eps_t:
            state.t = params.t_end
    snapshots.append(state)
    diag = DiagnosticSeries(
        dt=np.asarray(dts + [0.0]),
        realised_cfl=np.asarray(realised_cfl + [0.0]),
        **{name: np.asarray(values) for name, values in cols.items()},
    )
    return Trajectory(params=params, diagnostics=diag, snapshots=snapshots)
