import copy
import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import cfg_at, keep, recorded_run
from twofluid import closure, config, dynamics, energy, grids
from twofluid.closure import ClosureParams
from twofluid.dynamics import SimParams, State
from twofluid.errors import ConsistencyError, ConvergenceError, DomainError
from twofluid.grids import PeriodicGrid


def uniform_state(grid, R=1.0, Q=2.0, u=0.0):
    return State(
        grid,
        np.full(grid.shape, R),
        np.full(grid.shape, Q),
        np.full((grid.dim, *grid.shape), (R + Q) * u),
        0.0,
    )


# Manufactured solution: gamma = 1 so Z = R + Q and p = (R+Q)^2 stay in
# closed form. Fields R* = 1 + A sin(x-t), Q* = 1 + A cos(x-t),
# u* = B sin(x-t); the sources below are the residuals of the governing
# equations on these fields.
MMS_A, MMS_B, MMS_MU, MMS_LAM = 0.15, 0.1, 0.05, 0.02


def mms_exact(grid, t):
    x = grid.axis_coords()
    s, c = np.sin(x - t), np.cos(x - t)
    R = 1 + MMS_A * s
    Q = 1 + MMS_A * c
    u = (MMS_B * s)[None, :]
    return R, Q, u


def mms_sources(state):
    A, B = MMS_A, MMS_B
    x = state.grid.axis_coords()
    s, c = np.sin(x - state.t), np.cos(x - state.t)
    rho = 2 + A * (s + c)
    sR = (B - A) * c + 2 * A * B * s * c
    sQ = A * s + B * c + A * B * (c * c - s * s)
    sm = (
        A * B * s * (s - c)
        - rho * B * c
        + A * B * B * s * s * (c - s)
        + 2 * rho * B * B * s * c
        + 2 * A * rho * (c - s)
        + (2 * MMS_MU + MMS_LAM) * B * s
    )
    return sR, sQ, sm[None, :]


def mms_params(t_end):
    """The manufactured problem's parameters, its sources included."""
    return SimParams(
        closure=ClosureParams(2.0, 2.0), mu=MMS_MU, lam=MMS_LAM, t_end=t_end, source=mms_sources
    )


def mms_initial(grid):
    R0, Q0, u0 = mms_exact(grid, 0.0)
    return State(grid, R0, Q0, (R0 + Q0) * u0, 0.0)


class TestParams:
    def test_viscosity_constraints(self):
        with pytest.raises(DomainError):
            SimParams(closure=ClosureParams(1.5, 3.0), mu=0.0)
        with pytest.raises(DomainError):
            SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, lam=-0.2)
        with pytest.raises(DomainError):
            SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, cfl=1.5)

    @pytest.mark.parametrize("floor", [math.inf, math.nan])
    def test_density_floor_must_be_finite(self, floor):
        # an infinite floor would stall u = m/max(R+Q, floor) at zero
        with pytest.raises(DomainError, match="density_floor must be nonnegative"):
            SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, density_floor=floor)


class TestRhs:
    def test_uniform_state_is_equilibrium(self, std1d_params):
        g = PeriodicGrid(1, 32)
        state = uniform_state(g)
        ten = dynamics.rhs(state, std1d_params, state.evaluate(std1d_params))
        assert np.all(ten.dR == 0.0)
        assert np.all(ten.dQ == 0.0)
        assert np.all(ten.dm == 0.0)

    def test_momentum_tendency_is_pressure_gradient_at_rest(self):
        # R = Q = 1 + 0.1 sin x at rest with gamma = 1: dm/dt = -grad((2R)^2)
        g = PeriodicGrid(1, 64)
        x = g.axis_coords()
        R = 1 + 0.1 * np.sin(x)
        state = State(g, R.copy(), R.copy(), np.zeros((1, g.n)), 0.0)
        params = SimParams(closure=ClosureParams(2.0, 2.0), mu=0.1)
        ten = dynamics.rhs(state, params, state.evaluate(params))
        p = (2 * R) ** 2
        expected = -(np.roll(p, -1) - np.roll(p, 1)) / (2 * g.dx)
        assert np.allclose(ten.dm[0], expected, rtol=0, atol=1e-13)
        assert np.all(ten.dR == 0.0)

    def test_manufactured_rhs_consistency_order(self):
        errs = []
        for n in (32, 64, 128):
            g = PeriodicGrid(1, n)
            state = mms_initial(g)
            params = mms_params(1.0)
            ten = dynamics.rhs(state, params, state.evaluate(params))
            x = g.axis_coords()
            s, c = np.sin(x), np.cos(x)
            rho = 2 + MMS_A * (s + c)
            dR_exact = -MMS_A * c
            dQ_exact = MMS_A * s
            dm_exact = MMS_A * MMS_B * s * (s - c) - rho * MMS_B * c
            errs.append(
                grids.lp_norm(g, ten.dR - dR_exact, 2)
                + grids.lp_norm(g, ten.dQ - dQ_exact, 2)
                + grids.lp_norm(g, ten.dm[0] - dm_exact, 2)
            )
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_mass_tendency_sums_to_zero(self, std1d_initial, std1d_params):
        ten = dynamics.rhs(std1d_initial, std1d_params, std1d_initial.evaluate(std1d_params))
        g = std1d_initial.grid
        assert abs(grids.integrate(g, ten.dR)) <= 1e-13
        assert abs(grids.integrate(g, ten.dQ)) <= 1e-13


class TestStableDt:
    def test_formula_at_rest(self):
        g = PeriodicGrid(1, 32)
        params = SimParams(closure=ClosureParams(2.0, 2.0), mu=0.05, lam=0.01)
        state = uniform_state(g, R=1.0, Q=0.0, u=0.0)  # Z = 1, c = sqrt(2)
        nu = (2 * params.mu + params.lam) / 1.0
        expected = params.cfl * min(
            g.dx / math.sqrt(2.0), g.dx**2 / (2 * 1 * nu)
        )
        dt = dynamics.stable_dt(state, params, state.evaluate(params))
        assert dt == pytest.approx(expected, rel=1e-12)

    def test_refinement_scaling(self):
        def limit(n, params):
            state = uniform_state(PeriodicGrid(1, n))
            return dynamics.stable_dt(state, params, state.evaluate(params))

        params = SimParams(closure=ClosureParams(2.0, 2.0), mu=1e-6)
        advective = [limit(n, params) for n in (32, 64)]
        assert advective[0] / advective[1] == pytest.approx(2.0, rel=1e-12)

        params_visc = SimParams(closure=ClosureParams(2.0, 2.0), mu=10.0, lam=0.0)
        viscous = [limit(n, params_visc) for n in (32, 64)]
        assert viscous[0] / viscous[1] == pytest.approx(4.0, rel=1e-12)

    def test_std1d_is_viscous_limited_at_128(self, std1d_initial, std1d_params):
        g = std1d_initial.grid
        u, _ = std1d_initial.velocity(std1d_params.density_floor)
        umax = float(np.max(np.abs(u)))
        from twofluid import closure as cl

        Z, _ = cl.solve_Z_field(std1d_initial.R, std1d_initial.Q, std1d_params.closure)
        dzr, dzq = cl.derivative_arrays(std1d_initial.R, Z, std1d_params.closure.gamma)
        stiff = (
            std1d_params.closure.gamma_plus
            * Z ** (std1d_params.closure.gamma_plus - 1.0)
            * np.maximum(np.abs(dzr), np.abs(dzq))
        )
        c_max = math.sqrt(float(np.max(stiff)))
        advective = g.dx / (umax + c_max)
        rho_min = float(np.min(std1d_initial.R + std1d_initial.Q))
        viscous = g.dx**2 / (2 * (2 * std1d_params.mu + std1d_params.lam) / rho_min)
        assert viscous < advective
        ev = std1d_initial.evaluate(std1d_params)
        assert dynamics.stable_dt(std1d_initial, std1d_params, ev) == pytest.approx(
            std1d_params.cfl * viscous, rel=1e-12
        )

    @pytest.mark.parametrize("pair", [(1.5, 3.0), (1.5, 2.0), (3.0, 1.5)], ids=["1/2", "3/4", "2"])
    def test_vacuum_lanes_give_the_gathered_limit(self, pair):
        g = PeriodicGrid(1, 32)
        # a floor of 1 keeps the vacuum from binding the viscous limit
        params = SimParams(closure=ClosureParams(*pair), mu=0.01, lam=0.01, density_floor=1.0)
        x = g.axis_coords()
        R, Q = 1.0 + 0.5 * np.sin(x), 2.0 + 0.5 * np.cos(x)
        R[[3, 4, 9]] = 0.0
        Q[[4, 9, 20]] = 0.0  # vacuum at 4 and 9
        state = State(g, R, Q, ((R + Q) * 0.3 * np.sin(2 * x))[None, :], 0.0)
        ev = state.evaluate(params)
        # the formula of stable_dt on the gathered Z > 0 lanes
        pos = ev.Z > 0.0
        assert 0 < pos.sum() < pos.size
        Z, gp = ev.Z[pos], params.closure.gamma_plus
        dzr, dzq = closure.derivative_arrays(R[pos], Z, params.closure.gamma)
        c_max = math.sqrt((np.power(Z, gp - 1.0) * gp * np.maximum(dzr, dzq)).max())
        umax = float(ev.speed.max())
        nu_max = (2.0 * params.mu + params.lam) / max(params.density_floor, float((R + Q).min()))
        advective, viscous = g.dx / (umax + c_max), g.dx**2 / (2.0 * nu_max)
        assert advective < viscous
        assert dynamics.stable_dt(state, params, ev) == params.cfl * advective

    def test_all_vacuum_state_has_no_sound_speed(self):
        # u = m / floor = 0.5 everywhere, so only c_max = 0 gives dt = cfl dx / 0.5
        g = PeriodicGrid(1, 32)
        params = SimParams(closure=ClosureParams(1.5, 2.0), mu=1e-6, density_floor=1.0)
        state = uniform_state(g, R=0.0, Q=0.0)
        state.m[:] = 0.5
        dt = dynamics.stable_dt(state, params, state.evaluate(params))
        assert dt == params.cfl * (g.dx / 0.5)

    def test_vanishing_dt_aborts(self):
        # dx = 3e-8 makes the viscous limit dx^2 / (2 nu) about 1e-14
        g = PeriodicGrid(1, 32, length=1e-6)
        params = SimParams(closure=ClosureParams(2.0, 2.0), mu=0.1)
        state = uniform_state(g)
        with pytest.raises(ConvergenceError, match="vanishing time step"):
            dynamics.stable_dt(state, params, state.evaluate(params))


class TestStep:
    def test_equilibrium_is_bitwise_fixed_point(self, std1d_params):
        g = PeriodicGrid(1, 32)
        state = uniform_state(g)
        ev = state.evaluate(std1d_params)
        k1 = dynamics.rhs(state, std1d_params, ev)
        stepped = dynamics.step(state, std1d_params, 1e-3, ev.Z, k1)
        assert np.array_equal(stepped.R, state.R)
        assert np.array_equal(stepped.Q, state.Q)
        assert np.array_equal(stepped.m, state.m)

    def test_two_zero_tendency_steps_equal_one(self, std1d_params):
        g = PeriodicGrid(1, 32)
        state = uniform_state(g)

        def step(s, dt):
            ev = s.evaluate(std1d_params)
            return dynamics.step(s, std1d_params, dt, ev.Z, dynamics.rhs(s, std1d_params, ev))

        once = step(state, 2e-3)
        twice = step(step(state, 1e-3), 1e-3)
        assert np.array_equal(once.R, twice.R)
        assert np.array_equal(once.m, twice.m)

    def test_temporal_order_against_fine_reference(self):
        # fixed grid; dt-refinement against a dt/8 reference isolates the
        # time error, which should shrink at 2nd order
        g = PeriodicGrid(1, 64)
        initial = mms_initial(g)
        T = 0.1

        def advance(steps):
            params = mms_params(T)
            dt = T / steps
            traj = dynamics.run(initial, params, dt_schedule=[dt] * steps)
            return traj.final

        ref = advance(320)
        errs = []
        for steps in (40, 80):
            fin = advance(steps)
            errs.append(
                grids.lp_norm(g, fin.R - ref.R, 2)
                + grids.lp_norm(g, fin.Q - ref.Q, 2)
                + grids.lp_norm(g, fin.m - ref.m, 2)
            )
        assert math.log2(errs[0] / errs[1]) >= 2.0


class TestRun:
    def test_zero_horizon_returns_initial_only(self, std1d_initial):
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=0.0)
        traj = dynamics.run(std1d_initial, params)
        assert len(traj.snapshots) == 1
        assert len(traj.dts) == 0
        assert np.array_equal(traj.final.R, std1d_initial.R)

    def test_equilibrium_run_is_identity(self):
        g = PeriodicGrid(1, 32)
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=1.0)
        state = uniform_state(g)
        traj = dynamics.run(state, params)
        assert np.array_equal(traj.final.R, state.R)
        assert np.array_equal(traj.final.m, state.m)
        assert traj.final.t == 1.0

    def test_mass_conservation_std1d(self, run128):
        d = run128.rows
        assert np.max(np.abs(d.mass_R - d.mass_R[0])) <= 1e-12 * abs(d.mass_R[0])
        assert np.max(np.abs(d.mass_Q - d.mass_Q[0])) <= 1e-12 * abs(d.mass_Q[0])

    def test_determinism(self, std1d_initial, std1d_params, run128):
        again = recorded_run(std1d_initial, std1d_params)
        assert np.array_equal(again.traj.final.R, run128.traj.final.R)
        assert np.array_equal(again.traj.final.Q, run128.traj.final.Q)
        assert np.array_equal(again.traj.final.m, run128.traj.final.m)
        assert np.array_equal(again.rows.energy, run128.rows.energy)

    def test_monotone_time_and_steps(self, run128):
        d = run128.rows
        assert np.all(np.diff(d.t) > 0)
        assert len(run128.traj.dts) == len(run128.traj.realised_cfl) == len(d.t) - 1
        assert np.allclose(run128.traj.dts, np.diff(d.t), rtol=0, atol=1e-15)

    def test_snapshots_are_the_initial_and_final_state(self, std1d_initial):
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=0.1)
        full = recorded_run(std1d_initial, params)
        rows = dynamics.Rows(params)
        ends = dynamics.run(std1d_initial, params, observers=(rows,))
        assert len(full.states) == len(full.rows.t) > 2
        assert len(full.traj.snapshots) == 2
        assert full.traj.initial is full.states[0] and full.traj.final is full.states[-1]
        assert [s.t for s in ends.snapshots] == [0.0, 0.1]
        for name, column in vars(rows.series()).items():
            assert column.tobytes() == getattr(full.rows, name).tobytes(), name
        for field in ("R", "Q", "m"):
            assert getattr(ends.final, field).tobytes() == getattr(full.traj.final, field).tobytes()
            assert getattr(ends.initial, field).tobytes() == getattr(std1d_initial, field).tobytes()

    def test_a_run_without_rows_keeps_steps_and_states(self, std1d_initial):
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=0.1)
        full = recorded_run(std1d_initial, params)
        states = []
        lean = dynamics.run(std1d_initial, params, observers=(keep(states),))
        assert lean.dts.tobytes() == full.traj.dts.tobytes()
        assert lean.realised_cfl.tobytes() == full.traj.realised_cfl.tobytes()
        assert len(states) == len(full.states) > 2
        for mine, theirs in zip(states, full.states):
            assert mine.t == theirs.t
            for field in ("R", "Q", "m"):
                assert getattr(mine, field).tobytes() == getattr(theirs, field).tobytes()

    def test_a_run_without_rows_keeps_the_volume_fraction_check(self, std1d_initial, monkeypatch):
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=0.1)
        t2 = recorded_run(std1d_initial, params).rows.t[2]
        solve = closure.solve_Z_field
        calls = []

        def leaky(R, Q, cp, **kwargs):
            # solves 1, 3 and 5 are the first three states' own, 2 and 4 stage 2
            Z, alpha = solve(R, Q, cp, **kwargs)
            calls.append(1)
            if len(calls) == 5:
                alpha = alpha.copy()
                alpha[3] = 1.0 + 1e-9
            return Z, alpha

        monkeypatch.setattr(closure, "solve_Z_field", leaky)
        messages = []
        for observers in ((dynamics.Rows(params),), ()):
            calls.clear()
            with pytest.raises(ConsistencyError, match="volume fraction left") as err:
                dynamics.run(std1d_initial, params, observers=observers)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == (
            f"volume fraction left [0,1] beyond {energy.ALPHA_TOL} at t={t2}"
        )

    @pytest.mark.parametrize("rows", [True, False], ids=["rows", "no-rows"])
    def test_every_step_goes_through_the_public_step(self, std1d_initial, rows, monkeypatch):
        # a tracer that wraps dynamics.step then sees every step of a run
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=0.1)
        step = dynamics.step
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(dynamics, "step", spy)
        observers = (dynamics.Rows(params),) if rows else ()
        traj = dynamics.run(std1d_initial, params, observers=observers)
        assert len(calls) == len(traj.dts) > 2

    def test_floor_hits_counted(self):
        g = PeriodicGrid(1, 32)
        state = State(
            g,
            np.full(g.shape, 1e-12),
            np.full(g.shape, 1e-12),
            np.full((1, g.n), 1e-13),
            0.0,
        )
        u, hits = state.velocity(1e-10)
        assert hits == g.n
        assert np.all(np.abs(u) <= 1e-13 / 1e-10 + 1e-30)


def cold_step(state, params, dt):
    """dynamics.step with a cold closure solve in each stage."""
    k1 = dynamics.rhs(state, params, state.evaluate(params))
    s1 = State(
        state.grid,
        state.R + dt * k1.dR,
        state.Q + dt * k1.dQ,
        state.m + dt * k1.dm,
        state.t + dt,
    )
    k2 = dynamics.rhs(s1, params, s1.evaluate(params))
    return State(
        state.grid,
        0.5 * state.R + 0.5 * (s1.R + dt * k2.dR),
        0.5 * state.Q + 0.5 * (s1.Q + dt * k2.dQ),
        0.5 * state.m + 0.5 * (s1.m + dt * k2.dm),
        state.t + dt,
    )


def reference_run(initial, params, warm=True):
    """run() without shared evaluations: each public call solves for itself.

    With ``warm`` each call gets its own evaluation started from the guess
    run() uses (the previous state's Z, and the step's own Z for stage 2);
    without it every solve is cold, stage 2 of each step included.
    """
    eps_t = max(dynamics.DT_MIN, 4.0 * np.finfo(float).eps * params.t_end)

    def evaluation(s, guess):
        return s.evaluate(params, guess=guess if warm else None)

    states = [initial.copy()]
    guesses = [None]
    dts = []
    while params.t_end - states[-1].t > eps_t:
        state, guess = states[-1], guesses[-1]
        dt = min(
            dynamics.stable_dt(state, params, evaluation(state, guess)),
            params.t_end - state.t,
        )
        ev = evaluation(state, guess)
        if warm:
            state = dynamics.step(state, params, dt, ev.Z, dynamics.rhs(state, params, ev))
        else:
            state = cold_step(state, params, dt)
        if abs(params.t_end - state.t) <= eps_t:
            state.t = params.t_end
        dts.append(dt)
        states.append(state)
        guesses.append(ev.Z)
    cols = expected_rows(params, states, (evaluation(s, g) for s, g in zip(states, guesses)))
    return cols, np.asarray(dts), states[-1]


def expected_rows(params, states, evs):
    """DiagnosticSeries columns of the states, from the public oracles."""
    cols = {f.name: [] for f in dataclasses.fields(dynamics.DiagnosticSeries)}
    for s, ev in zip(states, evs):
        report = energy.total_energy(s, params, ev)
        u, hits = s.velocity(params.density_floor)
        row = dict(
            t=s.t,
            mass_R=grids.integrate(s.grid, s.R),
            mass_Q=grids.integrate(s.grid, s.Q),
            energy=report.kinetic + report.internal,
            dissipation=report.dissipation_rate,
            min_R=float(np.min(s.R)),
            min_Q=float(np.min(s.Q)),
            max_u=float(np.max(grids.pointwise_magnitude(s.grid, u))),
            floor_hits=hits,
            kinetic=report.kinetic,
            internal=report.internal,
        )
        for name, value in row.items():
            cols[name].append(value)
    return {name: np.asarray(v) for name, v in cols.items()}


def smooth_state(g):
    x = g.coordinates()
    R = 1 + 0.2 * np.sin(x[0]) * np.cos(x[-1])
    Q = 1 + 0.15 * np.cos(x[0] + x[-1])
    u = np.stack([0.1 * np.sin(x[(i + 1) % g.dim] + i) for i in range(g.dim)])
    return State(g, R, Q, (R + Q) * u, 0.0)


def shared_evaluation_case(case):
    """(initial state, params) of the std1d-n64, 2d-n16 and 3d-n8 runs."""
    if case == "std1d-n64":
        cfg = cfg_at(64)
        return config.build_initial_state(cfg), cfg.params
    dim, n = (2, 16) if case == "2d-n16" else (3, 8)
    params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=1.0)
    return smooth_state(PeriodicGrid(dim, n)), params


CASES = ["std1d-n64", "2d-n16", "3d-n8"]

# Warm-started closure solves move Z by a few ulp; over these runs the
# diagnostics and final states drift by at most 6e-15 relative.
WARM_COLD_RTOL = 1e-13


class TestSharedEvaluation:
    """Sharing one evaluation per state changes no bit of a trajectory."""

    @pytest.mark.parametrize("case", CASES)
    def test_run_matches_unshared_reference_loop(self, case):
        initial, params = shared_evaluation_case(case)
        rec = recorded_run(initial, params)
        traj = rec.traj
        cols, dts, final = reference_run(initial, params)
        assert len(traj.dts) > 3
        assert traj.dts.dtype == dts.dtype and traj.dts.tobytes() == dts.tobytes()
        for name, ref in cols.items():
            got = getattr(rec.rows, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
        for name in ("R", "Q", "m"):
            assert getattr(traj.final, name).tobytes() == getattr(final, name).tobytes()
        assert traj.final.t == final.t

    @pytest.mark.parametrize("case", CASES)
    def test_warm_started_run_stays_within_rtol_of_cold_loop(self, case):
        initial, params = shared_evaluation_case(case)
        rec = recorded_run(initial, params)
        traj = rec.traj
        cols, dts, final = reference_run(initial, params, warm=False)
        assert np.array_equal(rec.rows.floor_hits, cols["floor_hits"])
        got = {name: getattr(rec.rows, name) for name in cols}
        got.update((name, getattr(traj.final, name)) for name in ("R", "Q", "m"))
        cols.update((name, getattr(final, name)) for name in ("R", "Q", "m"))
        got["dts"], cols["dts"] = traj.dts, dts
        for name, ref in cols.items():
            assert got[name].shape == ref.shape, name
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got[name] - ref)) <= WARM_COLD_RTOL * scale, name

    def test_short_schedule_is_an_error(self, std1d_initial, std1d_params, run128):
        with pytest.raises(ConsistencyError, match="10 steps"):
            dynamics.run(std1d_initial, std1d_params, dt_schedule=run128.traj.dts[:10])


FUSED_PARAMS = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, lam=0.05, t_end=1.0)
FUSED_GRIDS = [(1, 32), (2, 16), (3, 8)]
# Centred differences of one rhs call: five per axis, but in 1D grad div u is
# the wide Laplacian's one row and is not taken again.
RHS_CENTERED = {1: 4, 2: 10, 3: 15}


def composed_rhs(state, params):
    """(dR, dQ, dm) composed term by term from the public grid operators."""
    g = state.grid
    ev = state.evaluate(params)
    u = ev.u
    p = closure.pressure(ev.Z, params.closure)
    dR = -grids.divergence(g, state.R * u)
    dQ = -grids.divergence(g, state.Q * u)
    adv = np.stack([grids.divergence(g, state.m[i] * u) for i in range(g.dim)])
    wide = np.stack([grids.divergence(g, grids.gradient(g, u[j])) for j in range(g.dim)])
    dm = (
        -adv
        - grids.gradient(g, p)
        + params.mu * wide
        + (params.mu + params.lam) * grids.gradient(g, grids.divergence(g, u))
    )
    if params.source is not None:
        sR, sQ, sm = params.source(state)
        dR, dQ, dm = dR + sR, dQ + sQ, dm + sm
    return dR, dQ, dm


def rough_state(g, seed=5):
    """Random fields: every term of the tendencies takes part in the rounding."""
    rng = np.random.default_rng(seed)
    R, Q = rng.uniform(0.5, 1.5, (2, *g.shape))
    return State(g, R, Q, rng.normal(0.0, 0.5, (g.dim, *g.shape)), 0.0)


def wavy_source(state):
    x = state.grid.coordinates()
    s = np.sin(x[0] + state.t)
    return 0.1 * s, -0.2 * s * state.Q, 0.3 * np.cos(x) * state.R


class TestFusedRhs:
    """rhs takes RHS_CENTERED centred differences and still equals the composition."""

    # At rest every tendency is a signed zero, so tobytes() sees a flipped sign.
    @pytest.mark.parametrize("make", [rough_state, uniform_state], ids=["rough", "at-rest"])
    @pytest.mark.parametrize("source", [None, wavy_source])
    @pytest.mark.parametrize("dim,n", FUSED_GRIDS)
    def test_equals_composed_public_operators_bit_for_bit(self, dim, n, source, make):
        state = make(PeriodicGrid(dim, n))
        params = dataclasses.replace(FUSED_PARAMS, source=source)
        ten = dynamics.rhs(state, params, state.evaluate(params))
        for got, want in zip((ten.dR, ten.dQ, ten.dm), composed_rhs(state, params)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim,n", FUSED_GRIDS)
    def test_one_centred_difference_per_operand_stack_and_axis(self, dim, n, monkeypatch):
        calls = []
        centered = grids._centered

        def counted(*args, **kwargs):
            calls.append(1)
            return centered(*args, **kwargs)

        monkeypatch.setattr(grids, "_centered", counted)
        state = rough_state(PeriodicGrid(dim, n))
        ev = state.evaluate(FUSED_PARAMS)
        dynamics.rhs(state, FUSED_PARAMS, ev)
        assert len(calls) == RHS_CENTERED[dim]
        calls.clear()
        composed_rhs(state, FUSED_PARAMS)
        assert len(calls) == {1: 8, 2: 22, 3: 42}[dim]

    @pytest.mark.parametrize("name", ["dR", "dQ", "dm"])
    def test_non_finite_tendency_names_its_field(self, name):
        state = rough_state(PeriodicGrid(2, 8))

        def source(s):
            terms = [np.zeros(s.grid.shape), np.zeros(s.grid.shape), np.zeros(s.m.shape)]
            terms[("dR", "dQ", "dm").index(name)][..., 3, 5] = np.nan
            return tuple(terms)

        loc = r"\(0, 3, 5\)" if name == "dm" else r"\(3, 5\)"
        params = dataclasses.replace(FUSED_PARAMS, source=source)
        ev = state.evaluate(params)
        with pytest.raises(ConsistencyError, match=f"non-finite tendency {name} at index {loc}"):
            dynamics.rhs(state, params, ev)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_infinite_pressure_is_reported_in_dm_alone(self):
        # at rest the mass fluxes vanish, so only grad p sees the overflow
        state = uniform_state(PeriodicGrid(1, 16))
        state.R[7] = 1e300
        ev = state.evaluate(FUSED_PARAMS)
        with pytest.raises(ConsistencyError, match=r"non-finite tendency dm at index \(0, 6\)"):
            dynamics.rhs(state, FUSED_PARAMS, ev)


def rough_params(initial, steps):
    """FUSED_PARAMS with t_end at ``steps`` times the initial step limit."""
    limit = dynamics.stable_dt(initial, FUSED_PARAMS, initial.evaluate(FUSED_PARAMS))
    return dataclasses.replace(FUSED_PARAMS, t_end=steps * limit)


def rough_run(dim, n, seed, source):
    """A few steps of run() from random fields, recorded by ``recorded_run``."""
    initial = rough_state(PeriodicGrid(dim, n), seed)
    params = dataclasses.replace(rough_params(initial, 2.5), source=source)
    return recorded_run(initial, params), params


class TestRowFromStageOne:
    """A state's row reads stage 1's pressure and dissipation density."""

    @settings(max_examples=12, deadline=None)
    @given(
        grid=st.sampled_from(FUSED_GRIDS),
        seed=st.integers(0, 2**32 - 1),
        source=st.sampled_from([None, wavy_source]),
    )
    @example(grid=(3, 8), seed=0, source=wavy_source)
    def test_rows_equal_total_energy_and_integrate_bit_for_bit(self, grid, seed, source):
        rec, params = rough_run(*grid, seed, source)
        assert len(rec.traj.dts) >= 3
        evs, guess = [], None
        for s in rec.states:
            evs.append(s.evaluate(params, guess=guess))  # run's warm start
            guess = evs[-1].Z
        for name, ref in expected_rows(params, rec.states, evs).items():
            got = getattr(rec.rows, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("dim,n", FUSED_GRIDS)
    def test_a_recorded_state_takes_no_gradient_and_stage_two_no_density(self, dim, n, monkeypatch):
        calls = {"gradient": 0, "centered": 0}
        densities = []
        gradient, centered, private_rhs = grids.gradient, grids._centered, dynamics._rhs

        def counted_gradient(*args):
            calls["gradient"] += 1
            return gradient(*args)

        def counted_centered(*args, **kwargs):
            calls["centered"] += 1
            return centered(*args, **kwargs)

        def spied_rhs(*args, **kwargs):
            out = private_rhs(*args, **kwargs)
            densities.append(out[2] is not None)
            return out

        monkeypatch.setattr(grids, "gradient", counted_gradient)
        monkeypatch.setattr(grids, "_centered", counted_centered)
        monkeypatch.setattr(dynamics, "_rhs", spied_rhs)
        rec, params = rough_run(dim, n, 1, None)
        steps = len(rec.traj.dts)
        # each step's stage 1 and stage 2, and the final state's stage 1
        assert calls == {"gradient": 0, "centered": (2 * steps + 1) * RHS_CENTERED[dim]}
        assert densities == [True, False] * steps + [True]
        densities.clear()
        traj = dynamics.run(rec.traj.initial, params, observers=(keep([]),))
        assert densities == [False] * (2 * len(traj.dts) + 1)


class Spy:
    """An observer that keeps what it is handed, and weak references to it."""

    def __init__(self):
        self.seen = []
        self.refs = []

    def __call__(self, state, ev, k1, p, density):
        copies = (k1.stack.copy(), p.copy(), None if density is None else density.copy())
        self.seen.append((state, ev.Z, *copies))
        self.refs.append([weakref.ref(a) for a in (ev, p, density) if a is not None])


class TestObservers:
    """run hands each state, its evaluation, k1, p and the density to every observer."""

    @pytest.mark.parametrize("dim,n", FUSED_GRIDS)
    def test_each_state_once_in_order_as_step_returned_it(self, dim, n, monkeypatch):
        initial = rough_state(PeriodicGrid(dim, n), 3)
        params = rough_params(initial, 3.5)
        step, returned = dynamics.step, []

        def spy_step(*args, **kwargs):
            returned.append(step(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(dynamics, "step", spy_step)
        first, second = [], []
        traj = dynamics.run(initial, params, observers=(keep(first), keep(second)))
        assert len(first) == len(traj.dts) + 1 == 5
        assert all(a is b for a, b in zip(first, second)) and len(second) == len(first)
        assert all(a is b for a, b in zip(first[1:], returned)) and len(returned) == 4
        assert first[0] is traj.initial and first[-1] is traj.final
        assert first[0] is not initial and first[-1].t == params.t_end
        assert np.all(np.diff([s.t for s in first]) > 0.0)

    def test_a_zero_step_run_shows_its_only_state(self, std1d_initial):
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=0.0)
        seen = []
        traj = dynamics.run(std1d_initial, params, observers=(keep(seen),))
        assert len(traj.dts) == 0 and len(traj.snapshots) == len(seen) == 1
        assert seen[0] is traj.final and seen[0] is not std1d_initial

    @pytest.mark.parametrize("rows", [True, False], ids=["rows", "no-rows"])
    @pytest.mark.parametrize("dim,n", FUSED_GRIDS)
    def test_k1_p_and_density_equal_the_oracles_bit_for_bit(self, dim, n, rows, monkeypatch):
        initial = rough_state(PeriodicGrid(dim, n), 4)
        params = rough_params(initial, 2.5)
        spy = Spy()
        dynamics.run(initial, params, observers=(spy, dynamics.Rows(params)) if rows else (spy,))
        densities = []
        report = energy._report

        def spy_report(state, params, ev, p, density):
            densities.append(density)
            return report(state, params, ev, p, density)

        monkeypatch.setattr(energy, "_report", spy_report)
        assert len(spy.seen) >= 3
        guess = None
        for state, Z, k1, p, density in spy.seen:
            ev = state.evaluate(params, guess=guess)  # run's warm start
            assert ev.Z.tobytes() == Z.tobytes()
            assert k1.tobytes() == dynamics.rhs(state, params, ev).stack.tobytes()
            assert p.tobytes() == closure.pressure(ev.Z, params.closure).tobytes()
            energy.total_energy(state, params, ev)
            if rows:
                assert density.tobytes() == densities[-1].tobytes()
            else:
                assert density is None
            guess = ev.Z

    @pytest.mark.parametrize("rows", [True, False], ids=["rows", "no-rows"])
    def test_the_evaluation_is_freed_before_step(self, std1d_initial, rows, monkeypatch):
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=0.1)
        spy = Spy()
        step, alive = dynamics.step, []

        def spy_step(*args, **kwargs):
            alive.append([ref() is not None for ref in spy.refs[-1]])
            return step(*args, **kwargs)

        monkeypatch.setattr(dynamics, "step", spy_step)
        observers = (spy, dynamics.Rows(params)) if rows else (spy,)
        traj = dynamics.run(std1d_initial, params, observers=observers)
        # ev and p, and with rows the density, of every state that takes a step
        assert alive == [[False] * (3 if rows else 2)] * len(traj.dts)
        assert len(traj.dts) > 2


class TestBatchedState:
    """Members stacked on an axis after the component axis act as their own."""

    @settings(max_examples=30, deadline=None)
    @given(
        grid=st.sampled_from(FUSED_GRIDS),
        members=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(grid=(3, 8), members=3, seed=0)
    def test_batched_rhs_equals_each_members_own_call(self, grid, members, seed):
        g = PeriodicGrid(*grid)
        rng = np.random.default_rng(seed)
        R, Q = rng.uniform(0.5, 1.5, (2, members, *g.shape))
        m = rng.normal(0.0, 0.5, (g.dim, members, *g.shape))
        batch = State(g, R, Q, m, 0.0)
        ev = batch.evaluate(FUSED_PARAMS)
        ten = dynamics.rhs(batch, FUSED_PARAMS, ev)
        for b in range(members):
            member = State(g, R[b].copy(), Q[b].copy(), m[:, b].copy(), 0.0)
            own_ev = member.evaluate(FUSED_PARAMS)
            own = dynamics.rhs(member, FUSED_PARAMS, own_ev)
            for name, got, want in (
                ("dR", ten.dR, own.dR),
                ("dQ", ten.dQ, own.dQ),
                ("u", ev.u, own_ev.u),
                ("dm", ten.dm, own.dm),
            ):
                got = got[..., b, *(slice(None),) * g.dim]
                assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize(
        "R,m",
        [((8,), (2, 8)), ((3, 8), (2, 3, 8)), ((2, 3, 8, 8), (2, 2, 3, 8, 8)), ((8, 8), (1, 8, 8))],
    )
    def test_shape_check(self, R, m):
        g = PeriodicGrid(2, 8)
        with pytest.raises(DomainError):
            State(g, np.ones(R), np.ones(R), np.ones(m), 0.0)

    def test_batched_shapes_are_accepted(self):
        g = PeriodicGrid(2, 8)
        State(g, np.ones((3, 8, 8)), np.ones((3, 8, 8)), np.ones((2, 3, 8, 8)), 0.0)


def batch_source(state):
    """A source that reads every field, for states with or without a batch axis."""
    return 0.1 * np.sin(state.R), -0.2 * state.Q * state.R, 0.3 * np.cos(state.m)


class TestHeunBuffer:
    """step forms the Heun update in the tendency arrays, bit for bit."""

    @pytest.mark.parametrize("source", [None, batch_source], ids=["no-source", "source"])
    @pytest.mark.parametrize("members", [None, 3], ids=["single", "batch"])
    @pytest.mark.parametrize("dim,n", FUSED_GRIDS)
    def test_step_equals_the_per_field_formula(self, dim, n, members, source):
        g = PeriodicGrid(dim, n)
        rng = np.random.default_rng(dim)
        batch = () if members is None else (members,)
        R, Q = rng.uniform(0.5, 1.5, (2, *batch, *g.shape))
        state = State(g, R, Q, rng.normal(0.0, 0.5, (g.dim, *batch, *g.shape)), 0.25)
        params = dataclasses.replace(FUSED_PARAMS, source=source)
        ev = state.evaluate(params)
        dt = 0.5 * dynamics.stable_dt(state, params, ev)
        k1 = dynamics.rhs(state, params, ev)
        s1 = State(
            g, state.R + dt * k1.dR, state.Q + dt * k1.dQ, state.m + dt * k1.dm, state.t + dt
        )
        k2 = dynamics.rhs(s1, params, s1.evaluate(params, guess=ev.Z))
        want = [
            0.5 * y + 0.5 * (s + dt * k)
            for y, s, k in ((R, s1.R, k2.dR), (Q, s1.Q, k2.dQ), (state.m, s1.m, k2.dm))
        ]
        got = dynamics.step(state, params, dt, ev.Z, dynamics.rhs(state, params, ev))
        assert got.t == state.t + dt
        for name, w in zip("RQm", want):
            a = getattr(got, name)
            assert a.shape == w.shape and a.tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("dim,n", FUSED_GRIDS)
    def test_kept_states_are_not_written_by_later_steps(self, dim, n, monkeypatch):
        # an observer keeps each state step returns; a run whose steps take
        # and return deep copies shares no array with any other step
        initial = rough_state(PeriodicGrid(dim, n), 2)
        params = dataclasses.replace(rough_params(initial, 4.5), source=batch_source)
        states, copies = [], []
        dynamics.run(initial, params, observers=(keep(states),))
        step = dynamics.step
        monkeypatch.setattr(
            dynamics, "step", lambda state, *rest: copy.deepcopy(step(copy.deepcopy(state), *rest))
        )
        dynamics.run(initial, params, observers=(keep(copies),))
        assert len(states) == len(copies) > 4
        for kept, own in zip(states, copies):
            assert kept.t == own.t
            for name in "RQm":
                assert getattr(kept, name).tobytes() == getattr(own, name).tobytes(), name


class Test3DSmoke:
    def test_equilibrium_run_16cubed(self):
        g = PeriodicGrid(3, 16)
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=0.05)
        state = uniform_state(g)
        traj = dynamics.run(state, params)
        assert np.array_equal(traj.final.R, state.R)
        assert np.array_equal(traj.final.m, state.m)

    def test_smooth_3d_short_run_conserves_mass(self):
        g = PeriodicGrid(3, 16)
        x = g.coordinates()
        R = 1 + 0.1 * np.sin(x[0]) * np.cos(x[1])
        Q = 1 + 0.1 * np.cos(x[2])
        u = np.stack([0.05 * np.sin(x[1]), np.zeros(g.shape), np.zeros(g.shape)])
        state = State(g, R, Q, (R + Q) * u, 0.0)
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=0.02)
        rec = recorded_run(state, params)
        d = rec.rows
        assert np.max(np.abs(d.mass_R - d.mass_R[0])) <= 1e-12 * abs(d.mass_R[0])
        assert np.max(np.abs(d.mass_Q - d.mass_Q[0])) <= 1e-12 * abs(d.mass_Q[0])
        assert np.all(np.isfinite(rec.traj.final.m))


class TestGalilean:
    def test_uniform_boost_is_exact(self):
        g = PeriodicGrid(1, 32)
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=0.5)
        state = uniform_state(g, u=0.7)
        traj = dynamics.run(state, params)
        assert np.array_equal(traj.final.R, state.R)
        assert np.array_equal(traj.final.m, state.m)

    def test_boosted_run_translates_at_second_order(self, std1d_cfg):
        from twofluid import config as cfgmod

        U0 = 0.5
        T = math.pi / 4.0  # U0*T = pi/8 = L/16, an integer cell count
        errs = []
        for n in (64, 128):
            cfg = cfgmod.parse_config(f"[grid]\nn = {n}\n[time]\nt_end = {T!r}\n")
            base = cfgmod.build_initial_state(cfg)
            params = cfg.params
            boosted = base.copy()
            boosted.m = boosted.m + (boosted.R + boosted.Q) * U0

            dt = 0.5 * min(
                dynamics.stable_dt(s, params, s.evaluate(params)) for s in (base, boosted)
            )
            steps = math.ceil(T / dt)
            schedule = [T / steps] * steps
            tA = dynamics.run(base, params, dt_schedule=schedule)
            tB = dynamics.run(boosted, params, dt_schedule=schedule)

            shift = n // 16
            uA = tA.final.m / (tA.final.R + tA.final.Q)
            uB = tB.final.m / (tB.final.R + tB.final.Q)
            errs.append(
                grids.lp_norm(cfg.grid, tB.final.R - np.roll(tA.final.R, shift), 2)
                + grids.lp_norm(cfg.grid, uB[0] - (np.roll(uA[0], shift) + U0), 2)
            )
        assert math.log2(errs[0] / errs[1]) >= 1.5
