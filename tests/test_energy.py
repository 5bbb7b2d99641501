import dataclasses
import math

import numpy as np
import pytest

from twofluid import dynamics, energy, grids
from twofluid.closure import ClosureParams
from twofluid.dynamics import SimParams, State
from twofluid.grids import PeriodicGrid


def unit_volume_grid():
    return PeriodicGrid(1, 8, length=1.0)


def state_of(grid, R, Q, u=0.0):
    Ra = np.full(grid.shape, float(R))
    Qa = np.full(grid.shape, float(Q))
    m = (Ra + Qa) * np.full((grid.dim, *grid.shape), float(u))
    return State(grid, Ra, Qa, m, 0.0)


class TestTotalEnergy:
    def test_symmetric_exponent_example(self):
        # Z = 3, alpha = 1/3, integrand 9*(1/3 + 2/3) = 9 on unit volume
        g = unit_volume_grid()
        params = SimParams(closure=ClosureParams(2.0, 2.0), mu=0.1)
        state = state_of(g, 1.0, 2.0)
        report = energy.total_energy(state, params, state.evaluate(params))
        assert report.kinetic == 0.0
        assert report.internal == pytest.approx(9.0, rel=1e-13)

    def test_vacuum_state_has_zero_energy(self):
        g = unit_volume_grid()
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1)
        state = state_of(g, 0.0, 0.0)
        report = energy.total_energy(state, params, state.evaluate(params))
        assert report.kinetic == 0.0
        assert report.internal == 0.0

    def test_single_phase_raw_equals_simplified(self):
        # R = 0, Q = 4: raw form Q^3/2 = 32 equals 16^{3/2}/2 = 32
        g = unit_volume_grid()
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1)
        state = state_of(g, 0.0, 4.0)
        report = energy.total_energy(state, params, state.evaluate(params))
        raw = energy.internal_energy_raw(state, params)
        assert report.internal == pytest.approx(32.0, rel=1e-13)
        assert raw == pytest.approx(32.0, rel=1e-13)

    def test_raw_and_simplified_agree_on_random_fields(self):
        g = PeriodicGrid(1, 64)
        rng = np.random.default_rng(5)
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1)
        R = rng.uniform(0.1, 3.0, g.shape)
        Q = rng.uniform(0.1, 3.0, g.shape)
        state = State(g, R, Q, np.zeros((1, *g.shape)), 0.0)
        report = energy.total_energy(state, params, state.evaluate(params))
        raw = energy.internal_energy_raw(state, params)
        assert raw == pytest.approx(report.internal, rel=1e-12)

    def test_kinetic_part(self):
        g = unit_volume_grid()
        params = SimParams(closure=ClosureParams(2.0, 2.0), mu=0.1)
        state = state_of(g, 1.0, 1.0, u=3.0)
        report = energy.total_energy(state, params, state.evaluate(params))
        assert report.kinetic == pytest.approx(0.5 * 2.0 * 9.0, rel=1e-13)

    def test_nonnegative_components(self, traj128, std1d_params):
        for s in traj128.snapshots[:: max(1, len(traj128.snapshots) // 8)]:
            report = energy.total_energy(s, std1d_params, s.evaluate(std1d_params))
            assert report.kinetic >= 0.0
            assert report.internal >= 0.0
            assert report.dissipation_rate >= 0.0


class TestDissipation:
    def test_constant_velocity_dissipates_nothing(self):
        g = PeriodicGrid(1, 32)
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=1.0)
        state = state_of(g, 1.0, 1.0, u=2.5)
        assert energy.dissipation(state, params, state.evaluate(params)) == 0.0

    def test_sine_velocity_matches_stencil_symbol(self):
        # mu |grad u|^2 + (mu+lam)(div u)^2 with u = sin: both terms carry
        # the centered symbol, giving 2 pi (sin(dx)/dx)^2 for mu=1, lam=0
        g = PeriodicGrid(1, 64)
        x = g.axis_coords()
        rho = np.ones(g.shape)
        state = State(g, rho, rho, (2 * np.sin(x))[None, :], 0.0)
        params = SimParams(closure=ClosureParams(2.0, 2.0), mu=1.0, lam=0.0)
        expected = 2 * math.pi * (math.sin(g.dx) / g.dx) ** 2
        rate = energy.dissipation(state, params, state.evaluate(params))
        assert rate == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
    def test_equals_the_divergence_form_bit_for_bit(self, dim, n):
        # div u from the Jacobian's diagonal, against a separate divergence;
        # a change of summation order shows in a few of the 3D seeds
        g = PeriodicGrid(dim, n)
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.3, lam=0.2)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rho = 1.0 + rng.random(g.shape)
            state = State(g, rho, rho.copy(), rng.standard_normal((dim, *g.shape)), 0.0)
            ev = state.evaluate(params)
            u = state.velocity(params.density_floor)[0]
            jac = grids.gradient(g, u)
            div = grids.divergence(g, u)
            quad = params.mu * np.sum(jac * jac, axis=(0, 1)) + (params.mu + params.lam) * div**2
            assert energy.dissipation(state, params, ev).hex() == grids.integrate(g, quad).hex(), seed

    def test_quadratic_scaling(self, std1d_initial, std1d_params):
        def rate(state):
            return energy.dissipation(state, std1d_params, state.evaluate(std1d_params))

        doubled = std1d_initial.copy()
        doubled.m = doubled.m * 2.0
        assert rate(doubled) == pytest.approx(4.0 * rate(std1d_initial), rel=1e-12)


class TestAudit:
    def test_equilibrium_run_has_zero_defect(self):
        g = PeriodicGrid(1, 32)
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=0.3)
        state = state_of(g, 1.0, 2.0)
        traj = dynamics.run(state, params)
        audit = energy.audit_energy(traj)
        assert np.all(audit.defect == 0.0)
        assert np.all(audit.cumulative_dissipation == 0.0)

    def test_smooth_run_defect_small_and_refining(self, traj128):
        audit = energy.audit_energy(traj128)
        assert audit.max_defect <= 1e-5

    def test_injected_energy_is_flagged(self, std1d_initial, std1d_params, traj128):
        # leg 1 replays the first 40 steps; leg 2 restarts from that state
        # with its momentum bumped 1 %, and the audit sees the joined series
        t40 = traj128.diagnostics.t[40]
        leg1 = dynamics.run(
            std1d_initial,
            dataclasses.replace(std1d_params, t_end=t40),
            dt_schedule=traj128.dts[:40],
        )
        s = leg1.final
        assert s.t == t40
        bumped = State(s.grid, s.R, s.Q, 1.01 * s.m, s.t)
        leg2 = dynamics.run(bumped, std1d_params).diagnostics
        d1 = leg1.diagnostics
        audit = energy.audit_series(
            np.concatenate((d1.t[:-1], leg2.t)),
            np.concatenate((d1.energy[:-1], leg2.energy)),
            np.concatenate((d1.dissipation[:-1], leg2.dissipation)),
        )
        assert audit.max_defect > 1e-5

    def test_audit_series_matches_trapezoid(self):
        t = np.linspace(0.0, 1.0, 11)
        e = np.ones(11)
        d = np.full(11, 2.0)
        audit = energy.audit_series(t, e, d)
        assert audit.cumulative_dissipation[-1] == pytest.approx(2.0, rel=1e-14)
        assert audit.defect[-1] == pytest.approx(2.0, rel=1e-14)
        assert audit.defect[0] == 0.0
