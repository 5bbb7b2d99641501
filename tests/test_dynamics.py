import math

import numpy as np
import pytest

from conftest import cfg_at
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
    return SimParams(
        closure=ClosureParams(2.0, 2.0), mu=MMS_MU, lam=MMS_LAM, t_end=t_end
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


class TestRhs:
    def test_uniform_state_is_equilibrium(self, std1d_params):
        g = PeriodicGrid(1, 32)
        ten = dynamics.rhs(uniform_state(g), std1d_params)
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
        ten = dynamics.rhs(state, params)
        p = (2 * R) ** 2
        expected = -(np.roll(p, -1) - np.roll(p, 1)) / (2 * g.dx)
        assert np.allclose(ten.dm[0], expected, rtol=0, atol=1e-13)
        assert np.all(ten.dR == 0.0)

    def test_manufactured_rhs_consistency_order(self):
        errs = []
        for n in (32, 64, 128):
            g = PeriodicGrid(1, n)
            state = mms_initial(g)
            ten = dynamics.rhs(state, mms_params(1.0), source=mms_sources)
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
        ten = dynamics.rhs(std1d_initial, std1d_params)
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
        assert dynamics.stable_dt(state, params) == pytest.approx(expected, rel=1e-12)

    def test_refinement_scaling(self):
        params = SimParams(closure=ClosureParams(2.0, 2.0), mu=1e-6)
        advective = []
        for n in (32, 64):
            advective.append(dynamics.stable_dt(uniform_state(PeriodicGrid(1, n)), params))
        assert advective[0] / advective[1] == pytest.approx(2.0, rel=1e-12)

        params_visc = SimParams(closure=ClosureParams(2.0, 2.0), mu=10.0, lam=0.0)
        viscous = []
        for n in (32, 64):
            viscous.append(dynamics.stable_dt(uniform_state(PeriodicGrid(1, n)), params_visc))
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
        assert dynamics.stable_dt(std1d_initial, std1d_params) == pytest.approx(
            std1d_params.cfl * viscous, rel=1e-12
        )

    def test_vanishing_dt_aborts(self):
        # dx = 3e-8 makes the viscous limit dx^2 / (2 nu) about 1e-14
        g = PeriodicGrid(1, 32, length=1e-6)
        params = SimParams(closure=ClosureParams(2.0, 2.0), mu=0.1)
        with pytest.raises(ConvergenceError, match="vanishing time step"):
            dynamics.stable_dt(uniform_state(g), params)


class TestStep:
    def test_equilibrium_is_bitwise_fixed_point(self, std1d_params):
        g = PeriodicGrid(1, 32)
        state = uniform_state(g)
        stepped = dynamics.step(state, std1d_params, 1e-3)
        assert np.array_equal(stepped.R, state.R)
        assert np.array_equal(stepped.Q, state.Q)
        assert np.array_equal(stepped.m, state.m)

    def test_two_zero_tendency_steps_equal_one(self, std1d_params):
        g = PeriodicGrid(1, 32)
        state = uniform_state(g)
        once = dynamics.step(state, std1d_params, 2e-3)
        twice = dynamics.step(dynamics.step(state, std1d_params, 1e-3), std1d_params, 1e-3)
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
            traj = dynamics.run(
                initial, params, dt_schedule=[dt] * steps, source=mms_sources
            )
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

    def test_mass_conservation_std1d(self, traj128):
        d = traj128.diagnostics
        assert np.max(np.abs(d.mass_R - d.mass_R[0])) <= 1e-12 * abs(d.mass_R[0])
        assert np.max(np.abs(d.mass_Q - d.mass_Q[0])) <= 1e-12 * abs(d.mass_Q[0])

    def test_determinism(self, std1d_initial, std1d_params, traj128):
        again = dynamics.run(std1d_initial, std1d_params)
        assert np.array_equal(again.final.R, traj128.final.R)
        assert np.array_equal(again.final.Q, traj128.final.Q)
        assert np.array_equal(again.final.m, traj128.final.m)
        assert np.array_equal(again.diagnostics.energy, traj128.diagnostics.energy)

    def test_monotone_time_and_dt_column(self, traj128):
        d = traj128.diagnostics
        assert np.all(np.diff(d.t) > 0)
        assert np.allclose(d.dt[:-1], np.diff(d.t), rtol=0, atol=1e-15)
        assert d.dt[-1] == 0.0

    def test_every_state_false_keeps_initial_and_final(self, std1d_initial):
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=0.1)
        full = dynamics.run(std1d_initial, params)
        ends = dynamics.run(std1d_initial, params, every_state=False)
        assert len(full.snapshots) == len(full.diagnostics.t) > 2
        assert ends.snapshot_times.tolist() == [0.0, 0.1]
        for name, column in vars(ends.diagnostics).items():
            assert column.tobytes() == getattr(full.diagnostics, name).tobytes(), name
        for field in ("R", "Q", "m"):
            assert getattr(ends.final, field).tobytes() == getattr(full.final, field).tobytes()
            assert getattr(ends.initial, field).tobytes() == getattr(std1d_initial, field).tobytes()

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


def reference_run(initial, params, warm=True):
    """run() without shared evaluations: each public call solves for itself.

    With ``warm`` each call gets its own evaluation started from the guess
    run() uses (the previous state's Z, and the step's own Z for stage 2);
    without it every solve is cold.
    """
    eps_t = max(dynamics.DT_MIN, 4.0 * np.finfo(float).eps * params.t_end)

    def evaluation(s, guess):
        return s.evaluate(params, guess=guess) if warm else None

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
        state = dynamics.step(state, params, dt, ev=ev)
        if abs(params.t_end - state.t) <= eps_t:
            state.t = params.t_end
        dts.append(dt)
        states.append(state)
        guesses.append(None if ev is None else ev.Z)
    cols = {name: [] for name in dynamics.DiagnosticSeries.COLUMNS}
    cols.update(kinetic=[], internal=[])
    for s, guess in zip(states, guesses):
        report = energy.total_energy(s, params, evaluation(s, guess))
        u, hits = s.velocity(params.density_floor)
        row = dict(
            t=s.t,
            dt=0.0,
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
    cols["dt"] = dts + [0.0]
    return {name: np.asarray(v) for name, v in cols.items()}, states[-1]


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
        return config.build_initial_state(cfg), cfg.sim_params()
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
        traj = dynamics.run(initial, params)
        cols, final = reference_run(initial, params)
        assert len(traj.dts) > 3
        for name, ref in cols.items():
            got = getattr(traj.diagnostics, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
        for name in ("R", "Q", "m"):
            assert getattr(traj.final, name).tobytes() == getattr(final, name).tobytes()
        assert traj.final.t == final.t

    @pytest.mark.parametrize("case", CASES)
    def test_warm_started_run_stays_within_rtol_of_cold_loop(self, case):
        initial, params = shared_evaluation_case(case)
        traj = dynamics.run(initial, params)
        cols, final = reference_run(initial, params, warm=False)
        assert np.array_equal(traj.diagnostics.floor_hits, cols["floor_hits"])
        got = {name: getattr(traj.diagnostics, name) for name in cols}
        got.update((name, getattr(traj.final, name)) for name in ("R", "Q", "m"))
        cols.update((name, getattr(final, name)) for name in ("R", "Q", "m"))
        for name, ref in cols.items():
            assert got[name].shape == ref.shape, name
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got[name] - ref)) <= WARM_COLD_RTOL * scale, name

    def test_evaluation_feeds_rhs_stable_dt_and_energy(self, std1d_initial, std1d_params):
        ev = std1d_initial.evaluate(std1d_params)
        assert dynamics.stable_dt(std1d_initial, std1d_params, ev) == dynamics.stable_dt(
            std1d_initial, std1d_params
        )
        shared = dynamics.rhs(std1d_initial, std1d_params, ev=ev)
        own = dynamics.rhs(std1d_initial, std1d_params)
        for name in ("dR", "dQ", "dm", "u"):
            assert np.array_equal(getattr(shared, name), getattr(own, name))
        assert energy.total_energy(std1d_initial, std1d_params, ev) == energy.total_energy(
            std1d_initial, std1d_params
        )

    def test_short_schedule_is_an_error(self, std1d_initial, std1d_params, traj128):
        with pytest.raises(ConsistencyError, match="10 steps"):
            dynamics.run(std1d_initial, std1d_params, dt_schedule=traj128.dts[:10])


FUSED_PARAMS = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, lam=0.05, t_end=1.0)
FUSED_GRIDS = [(1, 32), (2, 16), (3, 8)]


def composed_rhs(state, params, source=None):
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
    if source is not None:
        sR, sQ, sm = source(state)
        dR, dQ, dm = dR + sR, dQ + sQ, dm + sm
    return dR, dQ, dm


def rough_state(g):
    """Random fields: every term of the tendencies takes part in the rounding."""
    rng = np.random.default_rng(5)
    R, Q = rng.uniform(0.5, 1.5, (2, *g.shape))
    return State(g, R, Q, rng.normal(0.0, 0.5, (g.dim, *g.shape)), 0.0)


def wavy_source(state):
    x = state.grid.coordinates()
    s = np.sin(x[0] + state.t)
    return 0.1 * s, -0.2 * s * state.Q, 0.3 * np.cos(x) * state.R


class TestFusedRhs:
    """rhs takes 5*dim centred differences and still equals the composition."""

    @pytest.mark.parametrize("source", [None, wavy_source])
    @pytest.mark.parametrize("dim,n", FUSED_GRIDS)
    def test_equals_composed_public_operators_bit_for_bit(self, dim, n, source):
        state = rough_state(PeriodicGrid(dim, n))
        ten = dynamics.rhs(state, FUSED_PARAMS, source)
        for got, want in zip((ten.dR, ten.dQ, ten.dm), composed_rhs(state, FUSED_PARAMS, source)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim,n", FUSED_GRIDS)
    def test_one_centred_difference_per_operand_stack_and_axis(self, dim, n, monkeypatch):
        calls = []
        centered = grids._centered

        def counted(*args):
            calls.append(1)
            return centered(*args)

        monkeypatch.setattr(grids, "_centered", counted)
        state = rough_state(PeriodicGrid(dim, n))
        ev = state.evaluate(FUSED_PARAMS)
        dynamics.rhs(state, FUSED_PARAMS, ev=ev)
        assert len(calls) == 5 * dim
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
        with pytest.raises(ConsistencyError, match=f"non-finite tendency {name} at index {loc}"):
            dynamics.rhs(state, FUSED_PARAMS, source)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_infinite_pressure_is_reported_in_dm_alone(self):
        # at rest the mass fluxes vanish, so only grad p sees the overflow
        state = uniform_state(PeriodicGrid(1, 16))
        state.R[7] = 1e300
        with pytest.raises(ConsistencyError, match=r"non-finite tendency dm at index \(0, 6\)"):
            dynamics.rhs(state, FUSED_PARAMS)


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
        traj = dynamics.run(state, params)
        d = traj.diagnostics
        assert np.max(np.abs(d.mass_R - d.mass_R[0])) <= 1e-12 * abs(d.mass_R[0])
        assert np.max(np.abs(d.mass_Q - d.mass_Q[0])) <= 1e-12 * abs(d.mass_Q[0])
        assert np.all(np.isfinite(traj.final.m))


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
            params = cfg.sim_params()
            boosted = base.copy()
            boosted.m = boosted.m + (boosted.R + boosted.Q) * U0

            dt = 0.5 * min(
                dynamics.stable_dt(base, params), dynamics.stable_dt(boosted, params)
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
