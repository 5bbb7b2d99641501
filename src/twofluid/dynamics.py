"""Conservative time integration of the two-fluid system.

State variables are the conserved (R, Q, m) with m = (R+Q)u, advanced by a
two-stage strong-stability-preserving Runge-Kutta (Heun) step. All flux
divergences use the centered conservative form, so the discrete masses and
total momentum telescope exactly on the periodic grid.

The pointwise work on a state -- its velocity with the floor hits, and the
implicit closure solve for Z and alpha -- is an ``Evaluation``, which only
``State.evaluate`` makes and ``rhs``, ``stable_dt`` and ``step`` require.
``run`` evaluates each state once and then works on it in one order: the
volume-fraction check, ``stable_dt``, stage 1 of the step, the observers,
and ``step``, which turns stage 1's tendencies k1 into the Euler stage in
place. An observer gets the state, its evaluation, k1 and stage 1's
pressure and dissipation density, and keeps none of k1's arrays; the
diagnostics row is the observer ``Rows``, which also reads the speed
``stable_dt`` took, so no pointwise field is computed twice for a state.
A run of N steps solves the closure 2N + 1 times: each state and each
stage 2. Both solves of a step start Newton from the Z of the state the
step began at, which moves Z by a few ulp against a cold solve and saves
residual evaluations. At gamma = 1/2 and gamma = 2 the closure's closed
form is the root, so there the warm start no longer moves Z. In-process,
a std1d step at n = 512 takes about 330 us and a step of the benchmark's
2D mix at n = 128 about 4.0 ms, the fastest of 42 runs on a shared host
(2 vCPUs, Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
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
    # a forcing (sR, sQ, sm) of the state, added to every tendency; the
    # manufactured solutions of the convergence tests need it
    source: SourceFn | None = None

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise DomainError(f"mu must be positive, got {self.mu}")
        if not (math.isfinite(self.lam) and self.mu + self.lam >= 0.0):
            raise DomainError(f"mu + lambda must be nonnegative, got {self.mu + self.lam}")
        if not (0.0 < self.cfl <= 1.0):
            raise DomainError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not (math.isfinite(self.density_floor) and self.density_floor >= 0.0):
            raise DomainError("density_floor must be nonnegative")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise DomainError(f"t_end must be nonnegative, got {self.t_end}")
        if 0.0 < self.t_end <= DT_MIN:
            # run snaps onto t_end within DT_MIN, so it would take no step
            raise DomainError(f"t_end must be 0 or exceed DT_MIN={DT_MIN}, got {self.t_end}")


@dataclass
class State:
    """Solution snapshot in conserved variables.

    R and Q have the grid's shape and m has (dim, *grid.shape). A batch of
    B states stacks them on an axis after the component axis: R and Q then
    have (B, *grid.shape) and m has (dim, B, *grid.shape), and the
    pointwise work and ``rhs`` act on every member as on its own state.
    """

    grid: PeriodicGrid
    R: np.ndarray
    Q: np.ndarray
    m: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        shape = self.R.shape
        g = self.grid
        if shape[-g.dim :] != g.shape or len(shape) > g.dim + 1 or self.Q.shape != shape:
            raise DomainError("density shape does not match grid")
        if self.m.shape != (g.dim, *shape):
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

    Every function that needs the velocity or the closure of a state takes
    its ``ev``, which must be ``state.evaluate(params, guess)`` of that
    state, for any guess; none of them solves the closure itself.
    """

    u: np.ndarray
    floor_hits: int
    Z: np.ndarray
    alpha: np.ndarray

    @cached_property
    def speed(self) -> np.ndarray:
        """Pointwise |u|, taken once on first use.

        ``stable_dt`` and ``Rows`` read it; stage 2 of a step
        never does, so its evaluation never takes it.
        """
        return grids._magnitude(self.u, self.u.ndim - 1)


@dataclass
class Tendencies:
    """Time derivatives of (R, Q, m): dR, dQ and dm are rows of one array."""

    stack: np.ndarray
    dR = property(lambda self: self.stack[0])
    dQ = property(lambda self: self.stack[1])
    dm = property(lambda self: self.stack[2:])


SourceFn = Callable[[State], tuple[np.ndarray, np.ndarray, np.ndarray]]


def rhs(state: State, params: SimParams, ev: Evaluation) -> Tendencies:
    """Conservative right-hand side of the two-fluid system.

    dR/dt = -div(R u), dQ/dt = -div(Q u) and
    dm/dt = -div(m x u) - grad p(Z) + mu div(grad u) + (mu+lam) grad(div u),
    with Z from the pointwise closure solve and p = Z**gamma_plus, plus
    ``params.source(state)`` if the parameters carry a source.

    The viscous terms use the wide div(grad) composition rather than the
    compact Laplacian: paired with the centered stencils of the energy
    audit, the discrete viscous energy exchange is then exact, so the
    audited defect measures only advection, pressure and time-integration
    errors.

    Each axis i takes one centred difference of each operand stack: the
    fluxes (R u_i, Q u_i, m u_i), u (row i of the Jacobian) and that row
    again (the wide Laplacian); then p and div u take one per axis, 5*dim
    passes in all. In 1D div u is the Jacobian's one row, so grad div u is
    the wide Laplacian's one row and is not taken again: 4 passes. Axes
    are summed in order and dm is assembled left to right as written
    above, so the tendencies equal bit for bit those composed from
    ``grids.divergence`` and ``grids.gradient``.

    A batched state gives each member the tendencies of its own call.
    ``run`` takes stage 1 of each state through the same pass, which then
    also hands back p and, if an observer needs it, the dissipation density.
    """
    return _rhs(state, params, ev, with_density=False)[0]


def _rhs(state, params, ev, with_density):
    """``rhs``, with the pressure field and, if asked, the dissipation density.

    Returns (tendencies, p, density). The density
    mu*sum_ij (d_i u_j)**2 + (mu+lam)*(div u)**2 is accumulated from the
    Jacobian rows as they are taken, in ``energy.total_energy``'s order (i
    outer, j inner), so it equals that oracle's bit for bit; without
    ``with_density`` it is None and no square is taken.

    Only the tendencies (axis 0's flux difference), p and the density are
    fresh arrays. Every other operand and result lives in two work stacks,
    allocated together once per call: ``work`` holds the flux stack,
    rewritten for each axis, then axis 0's Jacobian row and wide-Laplacian
    term; ``scratch`` holds each later axis's flux difference, then its
    Jacobian row and wide-Laplacian term, and its rows then serve the
    density's squares, grad p and grad div u, each added in place.
    """
    g, dim = state.grid, state.grid.dim
    u = ev.u
    mu, mu_lam = params.mu, params.mu + params.lam

    work, scratch = np.empty((2, max(2 + dim, 2 * dim), *state.R.shape))
    flux = work[: 2 + dim]
    for i in range(dim):
        np.multiply(state.R, u[i], out=flux[0])
        np.multiply(state.Q, u[i], out=flux[1])
        np.multiply(state.m, u[i], out=flux[2:])
        if i == 0:
            div_flux = grids._centered(g, flux, 0)
        else:
            div_flux += grids._centered(g, flux, i, out=scratch[: 2 + dim])
    density = None
    square, row = scratch[dim], scratch[0]
    for i in range(dim):
        stack = work if i == 0 else scratch
        jac_row = grids._centered(g, u, i, out=stack[:dim])
        lap = grids._centered(g, jac_row, i, out=stack[dim : 2 * dim])
        if i == 0:
            wide, div_u = lap, jac_row[0]
        else:
            wide += lap
            div_u += jac_row[i]  # writes into the axis-0 row, no longer read
        if with_density:
            for j in range(dim):
                if i == j == 0:
                    density = np.square(jac_row[0])
                else:
                    density += np.square(jac_row[j], out=square)
    if with_density:
        density *= mu
        np.square(div_u, out=square)
        square *= mu_lam
        density += square
    np.negative(div_flux, out=div_flux)
    dm = div_flux[2:]
    p = closure.pressure(ev.Z, params.closure)
    for i in range(dim):
        dm[i] -= grids._centered(g, p, i, out=row)
    if dim == 1:
        # div u is the Jacobian's one row, so grad div u is the wide
        # Laplacian's one row.
        np.multiply(wide[0], mu_lam, out=row)
    wide *= mu
    dm += wide
    for i in range(dim):
        if dim > 1:
            grids._centered(g, div_u, i, out=row)
            row *= mu_lam
        dm[i] += row
    if params.source is not None:
        sR, sQ, sm = params.source(state)
        div_flux[0] += sR
        div_flux[1] += sQ
        dm += sm
    # dR, dQ and dm share one buffer, so one test covers all three; the
    # field-by-field scan runs only to name a failing field.
    if not np.isfinite(div_flux).all():
        for name, arr in (("dR", div_flux[0]), ("dQ", div_flux[1]), ("dm", dm)):
            if not np.all(np.isfinite(arr)):
                loc = tuple(int(k) for k in np.argwhere(~np.isfinite(arr))[0])
                raise ConsistencyError(
                    f"non-finite tendency {name} at index {loc}, t={state.t}"
                )
    return Tendencies(div_flux), p, density


def stable_dt(state: State, params: SimParams, ev: Evaluation) -> float:
    """Explicit-scheme time step limit.

    dt = cfl * min(dx/(max|u| + c_max), dx^2/(2 dim nu_max)) with the
    sound-speed proxy c_max = max sqrt(gamma_plus Z^(gamma_plus-1)
    max(dZ/dR, dZ/dQ)) taken pointwise over the grid; both derivatives
    are positive. |u| is ``ev.speed``, which a ``Rows`` observer reads
    again. Vacuum points (Z = 0) carry the derivatives' NaN, which the
    ``fmax`` reduction skips, so an all-vacuum state has c_max = 0.
    """
    g = state.grid
    umax = float(ev.speed.max())

    dzr, dzq = closure.derivative_arrays(state.R, ev.Z, params.closure.gamma)
    stiff = np.power(ev.Z, params.closure.gamma_plus - 1.0)
    stiff *= params.closure.gamma_plus
    stiff *= np.maximum(dzr, dzq, out=dzr)
    c_max = math.sqrt(np.fmax.reduce(stiff, axis=None, initial=0.0))

    rho_min = float((state.R + state.Q).min())
    nu_max = (2.0 * params.mu + params.lam) / max(params.density_floor, rho_min)
    advective = g.dx / (umax + c_max) if umax + c_max > 0.0 else math.inf
    viscous = g.dx**2 / (2.0 * g.dim * nu_max) if nu_max > 0.0 else math.inf
    dt = params.cfl * min(advective, viscous)
    if dt < DT_MIN:
        raise ConvergenceError(f"vanishing time step: dt={dt} below {DT_MIN}")
    return dt


def step(state: State, params: SimParams, dt: float, Z: np.ndarray, k1: Tendencies) -> State:
    """One SSP-RK2 (Heun) update; the caller guarantees dt <= stable_dt.

    ``Z`` is the closure solve of the state's ``Evaluation`` ``ev`` and
    ``k1`` its stage-1 tendencies, ``rhs(state, params, ev)``. The
    Euler stage s1 = state + dt*k1 is formed in k1's array, which the
    caller gives up, and the result 0.5*state + 0.5*(s1 + dt*k2) in stage
    2's, whose rows are the returned R, Q and m. IEEE sums and products
    commute, so every bit is the formula's. Stage 2 evaluates s1, its
    closure solve started from ``Z``.
    """
    g, fields = state.grid, (state.R, state.Q, state.m)
    k1.stack *= dt
    for k, y in zip((k1.dR, k1.dQ, k1.dm), fields):
        k += y
    s1 = State(g, k1.dR, k1.dQ, k1.dm, state.t + dt)
    k2 = rhs(s1, params, s1.evaluate(params, guess=Z))
    k2.stack *= dt
    k2.stack += k1.stack
    k2.stack *= 0.5
    for k, y in zip((k2.dR, k2.dQ, k2.dm), fields):
        k += 0.5 * y
    return State(g, k2.dR, k2.dQ, k2.dm, state.t + dt)


@dataclass
class DiagnosticSeries:
    """Per-state scalar diagnostics; one row per recorded state.

    ``kinetic`` and ``internal`` are kept for the energy emission
    (``energy`` is kinetic + internal).
    """

    t: np.ndarray
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


@dataclass
class Trajectory:
    """The steps of one run and its two end states.

    ``snapshots`` holds the initial and the final state, or the one state
    of a run that takes no step; an observer keeps any state between.
    """

    snapshots: list[State]
    dts: np.ndarray  # the step sizes taken
    realised_cfl: np.ndarray  # dt * cfl / stable_dt of each step's state

    @property
    def initial(self) -> State:
        return self.snapshots[0]

    @property
    def final(self) -> State:
        return self.snapshots[-1]


Observer = Callable[[State, Evaluation, Tendencies, np.ndarray, "np.ndarray | None"], None]


class Rows:
    """Observer that records one ``DiagnosticSeries`` row per state.

    ``run`` calls it as ``rows(state, ev, k1, p, density)``, and it does
    not read k1. The row is ``energy.total_energy``'s, taken from stage 1's
    pressure and dissipation density and ``ev.speed``, and equals it bit for
    bit; ``run`` has checked the state's volume fraction. ``run`` takes the
    density only when a ``Rows`` is among its observers.
    """

    def __init__(self, params: SimParams):
        self.params = params
        self._columns: list[list] = [[] for _ in dataclasses.fields(DiagnosticSeries)]

    def __call__(self, state: State, ev: Evaluation, k1: Tendencies, p, density) -> None:
        g = state.grid
        report = energy._report(state, self.params, ev, p, density)
        row = (  # in DiagnosticSeries field order
            state.t,
            grids.integrate(g, state.R),
            grids.integrate(g, state.Q),
            report.kinetic + report.internal,
            report.dissipation_rate,
            float(state.R.min()),
            float(state.Q.min()),
            float(ev.speed.max()),
            ev.floor_hits,
            report.kinetic,
            report.internal,
        )
        for column, value in zip(self._columns, row):
            column.append(value)

    def series(self) -> DiagnosticSeries:
        """The rows recorded so far."""
        return DiagnosticSeries(*map(np.asarray, self._columns))


def run(
    initial: State,
    params: SimParams,
    *,
    dt_schedule: Sequence[float] | None = None,
    observers: Sequence[Observer] = (),
) -> Trajectory:
    """Advance the state to t_end, handing each state to the observers.

    ``dt_schedule`` imposes an explicit step sequence (used to force twin
    runs onto a shared schedule); otherwise each step takes the stability
    limit clamped to land exactly on t_end. Time accumulation snaps onto
    t_end through the same code path either way, so replaying a recorded
    schedule reproduces the recorded sample times bit for bit. A schedule
    that runs out before t_end raises ConsistencyError. Every step records
    its realised CFL number, dt * cfl / ``stable_dt``, which exceeds 1 when
    a replayed step is longer than the state's own step limit.

    Each state is evaluated once, and the one velocity and closure solve
    serve, in this order, the volume-fraction check of
    ``energy.total_energy``, ``stable_dt``, stage 1 of the state's step,
    the observers and the rest of the step. Each observer is called as
    ``observer(state, ev, k1, p, density)`` once per state, in order, the
    final state included, whose stage 1 is taken only for them (so its
    tendencies must be finite too). k1 is stage 1's tendencies,
    ``rhs(state, params, ev)`` bit for bit, which ``step`` then
    overwrites, so an observer keeps none of its arrays. p is stage 1's
    pressure. The density is
    its dissipation density if a ``Rows`` is among the observers, and None
    otherwise, so no stage squares the Jacobian for nothing. A state is the
    object ``step`` returned (the first is a copy of ``initial``), which no
    later step writes. ``ev``, p and the density are freed before stage 2,
    and k1 before the next state is evaluated. Each
    state after the first starts its closure solve from the previous
    state's Z, as does the stage-2 solve of every step.

    Identical inputs produce bit-identical trajectories.
    """
    eps_t = max(DT_MIN, 4.0 * np.finfo(float).eps * params.t_end)
    with_density = any(isinstance(obs, Rows) for obs in observers)
    state = first = initial.copy()
    dts: list[float] = []
    realised_cfl: list[float] = []
    ev = state.evaluate(params)
    while True:
        energy.check_volume_fraction(state, ev)
        remaining = params.t_end - state.t
        last = remaining <= eps_t
        if not last:
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
        k1, p, density = _rhs(state, params, ev, with_density)
        for observe in observers:
            observe(state, ev, k1, p, density)
        if last:
            break
        # Only Z is read from here on: u, alpha, |u|, p and the density are
        # freed before stage 2, and k1's arrays, which held the Euler stage,
        # before the next state is evaluated.
        Z = ev.Z
        del ev, p, density
        state = step(state, params, dt, Z, k1)
        del k1
        if abs(params.t_end - state.t) <= eps_t:
            state.t = params.t_end
        ev = state.evaluate(params, guess=Z)
    return Trajectory(
        snapshots=[first, state] if dts else [state],
        dts=np.asarray(dts, dtype=float),
        realised_cfl=np.asarray(realised_cfl, dtype=float),
    )
