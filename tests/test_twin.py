import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import cfg_at, perturbation
from twofluid import closure, config, dynamics, grids, gronwall, twin
from twofluid.closure import ClosureParams
from twofluid.dynamics import SimParams, State
from twofluid.errors import ConfigError, ConsistencyError, DomainError
from twofluid.grids import PeriodicGrid


class TestPerturbState:
    def test_zero_delta_is_bit_identical(self, std1d_initial):
        out = twin.perturb_state(std1d_initial, perturbation(0.0))
        assert np.array_equal(out.R, std1d_initial.R)
        assert np.array_equal(out.m, std1d_initial.m)

    def test_velocity_target_leaves_densities_alone(self, std1d_initial):
        out = twin.perturb_state(std1d_initial, perturbation(1e-3))
        assert np.array_equal(out.R, std1d_initial.R)
        assert np.array_equal(out.Q, std1d_initial.Q)
        assert not np.array_equal(out.m, std1d_initial.m)


class TestCompare:
    def test_identical_runs_give_zero_diagnostics(self, std1d_initial, std1d_params):
        result = twin.run_twin(std1d_initial, std1d_params, perturbation(0.0))
        d = result.diag
        for name in ("norm_frakR", "norm_calQ", "norm_wU", "norm_gradU", "norm_U6", "mean_U"):
            assert np.all(getattr(d, name) == 0.0), name
        assert result.diag.sup_distance == 0.0

    def test_velocity_offset_norm_at_t0(self):
        # unit-volume grid so ||eps * const||_6 = eps * |const| exactly
        g = PeriodicGrid(1, 16, length=1.0)
        rho = np.ones(g.shape)
        params = SimParams(closure=ClosureParams(2.0, 2.0), mu=0.1, t_end=0.0)
        eps = 1e-4
        base = State(g, rho.copy(), rho.copy(), np.zeros((1, *g.shape)), 0.0)
        shifted = State(g, rho.copy(), rho.copy(), np.full((1, *g.shape), 2.0 * eps), 0.0)
        d = twin.compare([shifted], [base], params)
        assert d.norm_frakR[0] == 0.0
        assert d.norm_U6[0] == pytest.approx(eps, rel=1e-13)
        assert d.mean_U[0] == pytest.approx(eps, rel=1e-13)

    def test_mismatched_grids_rejected(self, std1d_params):
        g1, g2 = PeriodicGrid(1, 16), PeriodicGrid(1, 32)
        p = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=0.0)
        mk = lambda g: [State(g, np.ones(g.shape), np.ones(g.shape), np.zeros((1, *g.shape)), 0.0)]
        with pytest.raises(ConfigError, match="different grids"):
            twin.compare(mk(g1), mk(g2), p)

    def test_m_bound_is_running_max(self, twin128):
        assert np.all(np.diff(twin128.diag.M_bound) >= 0.0)
        assert twin128.diag.M_bound[0] >= 1.2 - 1e-12  # sup of 1 + 0.2 sin x


class TestDensityStability:
    def test_identical_runs_fit_zero(self, std1d_initial, std1d_params):
        result = twin.run_twin(std1d_initial, std1d_params, perturbation(0.0))
        report = twin.check_density_stability(result.diag)
        assert report.fitted_C == 0.0
        assert report.verdict

    def test_std1d_constant_is_finite_and_stable(self, twin128):
        report = twin.check_density_stability(twin128.diag)
        assert np.all(np.isfinite(report.C_of_t))
        assert report.verdict
        assert report.fitted_C <= 2.0 * report.median_C

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0) | st.sampled_from([math.inf, math.nan]),
            min_size=1,
            max_size=40,
        )
    )
    def test_median_equals_numpy_median(self, values):
        # the ratios C(t) are nonnegative, infinite or NaN; two middle values
        # whose sum passes the float range overflow to inf in both
        a = np.array(values)
        with np.errstate(over="ignore"):
            ours, theirs = twin._median(a), float(np.median(a))
        assert ours == theirs or (math.isnan(ours) and math.isnan(theirs))

    def test_requires_matched_initial_densities(self, std1d_initial, std1d_params):
        g = std1d_initial.grid
        bump = 1e-3 * np.sin(2 * g.coordinates()[0])
        shifted = State(g, std1d_initial.R + bump, std1d_initial.Q + bump, std1d_initial.m, 0.0)
        params = SimParams(closure=std1d_params.closure, mu=std1d_params.mu, t_end=0.05)
        strong, strong_states = twin._kept_run(std1d_initial, params, "reference")
        weak_states = twin._kept_run(shifted, params, "shifted", dt_schedule=strong.dts)[1]
        diag = twin.compare(weak_states, strong_states, params)
        with pytest.raises(DomainError, match="identical initial densities"):
            twin.check_density_stability(diag)

    def test_constant_stable_across_perturbation_sizes(self, sweep128):
        fits = [row.fitted_C for row in sweep128.rows]
        assert max(fits) / min(fits) <= 2.0


class TestMeanVelocity:
    def test_identity_on_twin(self, twin128):
        report = twin.check_mean_velocity(twin128.diag)
        assert report.verdict
        assert np.all(report.residual <= 1e-12 * np.maximum(report.scale, 1e-300))

    def test_constant_reference_velocity_zeroes_rhs(self):
        # u~ constant makes (u~ - mean) vanish, so both sides reduce to the
        # weak-run momentum integral; with equal momenta both sides are 0
        g = PeriodicGrid(1, 16)
        x = g.coordinates()[0]
        params = SimParams(closure=ClosureParams(2.0, 2.0), mu=0.1, t_end=0.0)
        bump = 0.1 * np.sin(x)
        R = np.ones(g.shape)
        u0 = 0.3
        strong = State(g, R + bump, R - bump, (2 * R) * u0 * np.ones((1, *g.shape)), 0.0)
        weak = State(g, R - bump, R + bump, (2 * R) * u0 * np.ones((1, *g.shape)), 0.0)
        d = twin.compare([weak], [strong], params)
        report = twin.check_mean_velocity(d)
        assert report.verdict
        assert np.all(report.residual <= 1e-14)

    def test_takes_no_jacobian(self, twin128, monkeypatch):
        calls = []
        gradient = grids.gradient

        def counted(*args, **kwargs):
            calls.append(1)
            return gradient(*args, **kwargs)

        monkeypatch.setattr(grids, "gradient", counted)
        report = twin.check_mean_velocity(twin128.diag)
        assert report.verdict
        assert calls == []

    def test_reads_the_identity_from_diag(self, twin128, monkeypatch):
        # compare reduced the identity; the check stacks no block and takes
        # no velocity of its own
        calls = []
        blocks, velocity = twin._blocks, State.velocity

        def counted_blocks(*args):
            calls.append("_blocks")
            return blocks(*args)

        def counted_velocity(*args):
            calls.append("velocity")
            return velocity(*args)

        monkeypatch.setattr(twin, "_blocks", counted_blocks)
        monkeypatch.setattr(State, "velocity", counted_velocity)
        report = twin.check_mean_velocity(twin128.diag)
        assert calls == []
        assert report.residual is twin128.diag.meanvel_residual
        assert report.scale is twin128.diag.meanvel_scale

    def test_mass_mismatch_is_precondition_error(self, std1d_initial, std1d_params):
        other = std1d_initial.copy()
        other.R = other.R * 1.01
        with pytest.raises(DomainError, match="initial masses differ"):
            twin.compare([other], [std1d_initial], std1d_params)



    def test_frozen_velocity_transport_constant_stable_under_dt(self):
        # difference transport with U = 0: d/dt ||frakR|| <= C ||grad u~||_inf ||frakR||
        g = PeriodicGrid(1, 128)
        x = g.axis_coords()
        u_tilde = (0.3 + 0.1 * np.sin(x))[None, :]
        grad_inf = grids.lp_norm(g, grids.gradient(g, u_tilde), math.inf)
        frakR0 = 0.01 * np.sin(2 * x)

        def fitted(steps):
            dt = 0.5 / steps
            r = frakR0.copy()
            norms = [grids.lp_norm(g, r, 2)]
            for _ in range(steps):
                k1 = -grids.divergence(g, r * u_tilde)
                r1 = r + dt * k1
                k2 = -grids.divergence(g, r1 * u_tilde)
                r = 0.5 * r + 0.5 * (r1 + dt * k2)
                norms.append(grids.lp_norm(g, r, 2))
            norms = np.asarray(norms)
            t = dt * np.arange(steps + 1)
            dnorm = np.gradient(norms, t)
            return float(np.max(dnorm / (grad_inf * norms)))

        c1, c2 = fitted(400), fitted(800)
        assert np.isfinite(c1) and np.isfinite(c2)
        assert abs(c2 - c1) <= 0.05 * max(abs(c1), 1e-30)


class TestGronwallPipeline:
    def test_identical_runs_trace_is_trivial(self, std1d_initial, std1d_params):
        result = twin.run_twin(std1d_initial, std1d_params, perturbation(0.0))
        C = max(
            twin.check_density_stability(result.diag).fitted_C,
            twin.fit_gronwall_constant(result.diag, result.ref),
        )
        assert C == 0.0
        trace = twin.build_gronwall_trace(result.diag, result.ref, C=C)
        assert np.all(trace.f == 0.0)
        assert np.all(trace.gprime == 0.0)
        report = gronwall.check_conclusion(trace)
        assert report.verdict
        assert report.max_margin == 0.0

    def test_zero_constant_flags_hypothesis(self, twin128):
        trace = twin.build_gronwall_trace(twin128.diag, twin128.ref, C=0.0)
        report = gronwall.check_hypothesis(trace)
        assert not report.ok

    def test_fitted_constant_passes_conclusion(self, twin128):
        C = twin.fit_gronwall_constant(twin128.diag, twin128.ref)
        assert np.isfinite(C) and C > 0.0
        trace = twin.build_gronwall_trace(twin128.diag, twin128.ref, C=C)
        assert gronwall.check_hypothesis(trace).ok
        assert gronwall.check_conclusion(trace).verdict

    def test_negative_constant_rejected(self, twin128):
        with pytest.raises(DomainError):
            twin.build_gronwall_trace(twin128.diag, twin128.ref, C=-1.0)


class TestHorizonMonotonicity:
    def test_doubling_horizon_does_not_decrease_fitted_constant(self):
        # the fitted constant is a running supremum, so a longer window can
        # only enlarge it (up to the end-of-run step clamp)
        g = PeriodicGrid(1, 64)
        x = g.axis_coords()
        R = 1 + 0.2 * np.sin(x)
        Q = 1 + 0.2 * np.cos(x)
        u = (0.1 * np.sin(x))[None, :]
        initial = State(g, R, Q, (R + Q) * u, 0.0)

        fits = []
        for t_end in (0.25, 0.5):
            params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=t_end)
            result = twin.run_twin(initial, params, perturbation(1e-3))
            fits.append(twin.check_density_stability(result.diag).fitted_C)
        assert fits[1] >= fits[0] * (1.0 - 1e-9)


class TestRestrictedReference:
    def test_fine_reference_agrees_at_final_time(self, std1d_cfg, run128):
        # a higher-resolution run restricted to the coarse grid points (every
        # other fine point) is a valid reference at t_end: the coarse run
        # must approach it at the discretization order
        from twofluid import config as cfgmod

        errs = []
        for n in (128, 256):
            cfg = cfgmod.parse_config(f"[grid]\nn = {2 * n}\n")
            fine = dynamics.run(cfgmod.build_initial_state(cfg), cfg.params)
            coarse_cfg = cfgmod.parse_config(f"[grid]\nn = {n}\n")
            coarse = dynamics.run(
                cfgmod.build_initial_state(coarse_cfg), coarse_cfg.params
            )
            assert fine.final.t == coarse.final.t == 0.5
            errs.append(
                grids.lp_norm(coarse_cfg.grid, coarse.final.R - fine.final.R[::2], 2)
                + grids.lp_norm(coarse_cfg.grid, coarse.final.Q - fine.final.Q[::2], 2)
            )
        assert math.log2(errs[0] / errs[1]) >= 1.5


class TestSweep:
    def test_small_sweep_ratios_and_zero_delta(self):
        # coarse, short-horizon sweep: the scaling law still shows
        g = PeriodicGrid(1, 32)
        x = g.axis_coords()
        R = 1 + 0.2 * np.sin(x)
        Q = 1 + 0.2 * np.cos(x)
        u = (0.1 * np.sin(x))[None, :]
        initial = State(g, R, Q, (R + Q) * u, 0.0)
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=0.1)
        members = [perturbation(delta) for delta in (0.0, 1e-2, 1e-3)]
        rows = twin.stability_sweep(initial, params, members)
        assert rows[0].sup_distance == 0.0
        assert math.isnan(rows[0].ratio)
        r1, r2 = rows[1].ratio, rows[2].ratio
        assert max(r1, r2) / min(r1, r2) <= 2.0

    def test_rows_carry_the_density_stability_verdict(self, sweep128, twin128):
        report = twin.check_density_stability(twin128.diag)
        row = sweep128.rows[1]
        assert (row.fitted_C, row.verdict) == (report.fitted_C, report.verdict)

    def test_run_twin_equals_the_sweep_member(self, sweep128, twin128):
        report = twin.check_density_stability(twin128.diag)
        sup = twin128.diag.sup_distance
        expected = twin.SweepRow(1e-3, sup, sup / 1e-3, report.fitted_C, report.verdict)
        assert sweep128.rows[1] == expected

    def test_ratio_divides_by_the_size_of_delta(self):
        g = PeriodicGrid(1, 32)
        x = g.axis_coords()
        R = 1 + 0.2 * np.sin(x)
        Q = 1 + 0.2 * np.cos(x)
        initial = State(g, R, Q, (R + Q) * (0.1 * np.sin(x))[None, :], 0.0)
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=0.05)
        members = [perturbation(-1e-3), perturbation(1e-3)]
        for row in twin.stability_sweep(initial, params, members):
            assert row.ratio == row.sup_distance / 1e-3 > 0.0

    def test_sweep_computes_no_reference_series(self, std1d_initial, std1d_params, monkeypatch):
        params = SimParams(closure=std1d_params.closure, mu=std1d_params.mu, t_end=0.05)
        expected = [
            twin._sweep_row(delta, twin.run_twin(std1d_initial, params, perturbation(delta)).diag)
            for delta in (0.0, 1e-3)
        ]

        def unused(*args, **kwargs):
            raise AssertionError("a sweep row reads no reference-run norms")

        monkeypatch.setattr(twin._Reference, "__call__", unused)
        rows = twin.stability_sweep(std1d_initial, params, [perturbation(0.0), perturbation(1e-3)])
        assert [row.delta for row in rows] == [0.0, 1e-3]
        assert rows[1:] == expected[1:]
        assert rows[0].sup_distance == expected[0].sup_distance == 0.0
        assert rows[0].fitted_C == expected[0].fitted_C

    def test_twin_runs_record_no_diagnostics(self, monkeypatch):
        g = PeriodicGrid(1, 32)
        x = g.axis_coords()
        R = 1 + 0.2 * np.sin(x)
        Q = 1 + 0.2 * np.cos(x)
        initial = State(g, R, Q, (R + Q) * (0.1 * np.sin(x))[None, :], 0.0)
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, t_end=0.05)
        runs, stages = [], []
        run, private_rhs = dynamics.run, dynamics._rhs

        def capture(*args, **kwargs):
            runs.append(run(*args, **kwargs))
            return runs[-1]

        def spied_rhs(state, params, ev, with_density):
            stages.append(with_density)
            return private_rhs(state, params, ev, with_density)

        monkeypatch.setattr(dynamics, "run", capture)
        monkeypatch.setattr(dynamics, "_rhs", spied_rhs)
        twin.run_twin(initial, params, perturbation(1e-3))
        twin.stability_sweep(initial, params, [perturbation(0.0), perturbation(1e-3)])
        assert len(runs) == 5
        assert all(len(traj.dts) == len(runs[0].dts) > 0 for traj in runs)
        # both stages of every step and each final state's stage 1; the
        # reference norms take no rhs of their own
        assert len(stages) == 5 * (2 * len(runs[0].dts) + 1) and not any(stages)

    def test_weak_run_beyond_its_own_step_limit_raises(self):
        g = PeriodicGrid(1, 64)
        x = g.axis_coords()
        R = 1 + 0.2 * np.sin(x)
        Q = 1 + 0.2 * np.cos(x)
        initial = State(g, R, Q, (R + Q) * (0.1 * np.sin(x))[None, :], 0.0)
        params = SimParams(closure=ClosureParams(1.5, 3.0), mu=0.1, cfl=1.0, t_end=0.1)
        # at delta = 0 the weak run replays its own steps, each at its limit
        strong = dynamics.run(initial, params)
        assert dynamics.run(initial, params, dt_schedule=strong.dts).realised_cfl.max() == 1.0
        twin.run_twin(initial, params, perturbation(0.0))
        with pytest.raises(ConsistencyError, match="realised CFL number"):
            twin.run_twin(initial, params, perturbation(1.0))



def per_sample_compare(weak, strong, params):
    """compare as a loop over samples and the grids reducers, the oracle."""
    g, floor = weak[0].grid, params.density_floor
    rows = []
    for w, s in zip(weak, strong):
        U = w.velocity(floor)[0] - s.velocity(floor)[0]
        sups = [float(np.max(np.abs(a))) for a in (w.R, w.Q, s.R, s.Q)]
        rows.append([
            grids.lp_norm(g, w.R - s.R, 2),
            grids.lp_norm(g, w.Q - s.Q, 2),
            grids.weighted_l2(g, w.R + w.Q, U),
            grids.lp_norm(g, grids.gradient(g, U), 2),
            grids.lp_norm(g, grids.divergence(g, U), 2),
            grids.lp_norm(g, U, 6),
            float(np.linalg.norm(grids.integrate(g, U))),
            max(sups),
            sups[0],
            sups[1],
        ])
    cols = dict(zip(
        ("norm_frakR", "norm_calQ", "norm_wU", "norm_gradU", "norm_divU", "norm_U6",
         "mean_U", "M_bound", "sup_R", "sup_Q"),
        np.asarray(rows).T,
    ))
    cols["M_bound"] = np.maximum.accumulate(cols["M_bound"])
    return cols


def per_sample_reference(states, params):
    g = states[0].grid
    rows = []
    for s in states:
        ev = s.evaluate(params)
        ten = dynamics.rhs(s, params, ev)
        u = ev.u
        dtu = (ten.dm - u * (ten.dR + ten.dQ)) / np.maximum(s.R + s.Q, params.density_floor)
        jac = grids.gradient(g, u)
        conv = np.einsum("i...,ij...->j...", u, jac)
        rows.append([grids.lp_norm(g, jac, 2), grids.lp_norm(g, jac, math.inf),
                     grids.lp_norm(g, dtu + conv, 3)])
    return dict(zip(("grad_u_2", "grad_u_inf", "material_3"), np.asarray(rows).T))


def per_sample_mean_velocity(weak, strong, params):
    g, floor = weak[0].grid, params.density_floor
    residual, scale = [], []
    for w, s in zip(weak, strong):
        u_w, u_s = w.velocity(floor)[0], s.velocity(floor)[0]
        diff = (w.R - s.R) + (w.Q - s.Q)
        centered = u_s - (grids.integrate(g, u_s) / g.volume).reshape((g.dim,) + (1,) * g.dim)
        lhs = grids.integrate(g, (w.R + w.Q) * (u_w - u_s))
        rhs = -grids.integrate(g, diff * centered)
        residual.append(float(np.linalg.norm(lhs - rhs)))
        mag = [grids.pointwise_magnitude(g, v) for v in (u_w, u_s, centered)]
        scale.append(grids.integrate(g, (w.R + w.Q) * (mag[0] + mag[1]))
                     + grids.integrate(g, np.abs(diff) * mag[2]))
    return np.asarray(residual), np.asarray(scale)


def random_pair(g, samples, seed, closure_params=ClosureParams(1.5, 3.0)):
    """Weak and strong states, random, and their params; the weak densities
    are the strong ones shifted by one point, so the masses match."""
    rng = np.random.default_rng(seed)
    params = SimParams(closure=closure_params, mu=0.1, lam=0.05, t_end=1.0)
    strong, weak = [], []
    times = [k / samples for k in range(samples)]
    for t in times:
        R, Q = rng.uniform(0.5, 1.5, (2, *g.shape))
        m_s, m_w = rng.normal(0.0, 0.5, (2, g.dim, *g.shape))
        strong.append(State(g, R, Q, m_s, t))
        weak.append(State(g, np.roll(R, 1), np.roll(Q, 1), m_w, t))
    return weak, strong, params


class TestBlockReducers:
    """The block-wise reducers equal a per-sample loop bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.sampled_from([(1, 8), (1, 16), (2, 8), (3, 8)]),
        samples=st.integers(1, 9),
        members=st.integers(1, 4),
        slack=st.floats(0.0, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(grid=(1, 16), samples=7, members=3, slack=0.5, seed=1)  # blocks 3, 3, 1
    @example(grid=(3, 8), samples=5, members=2, slack=0.0, seed=2)  # blocks 2, 2, 1
    def test_equal_to_per_sample_loops(self, grid, samples, members, slack, seed):
        g = PeriodicGrid(*grid)
        weak, strong, params = random_pair(g, samples, seed)
        # any block size between members and members + 1 samples holds members
        block_points = members * g.npoints + int(slack * g.npoints)
        with mock.patch.object(twin, "BLOCK_POINTS", block_points):
            diag = twin.compare(weak, strong, params)
        for name, want in per_sample_compare(weak, strong, params).items():
            assert getattr(diag, name).tobytes() == want.tobytes(), name
        residual, scale = per_sample_mean_velocity(weak, strong, params)
        assert diag.meanvel_residual.tobytes() == residual.tobytes()
        assert diag.meanvel_scale.tobytes() == scale.tobytes()

    def test_block_sizes(self):
        snaps = random_pair(PeriodicGrid(1, 16), 7, 0)[1]
        with mock.patch.object(twin, "BLOCK_POINTS", 40):
            blocks = list(twin._blocks(snaps))
        assert [k for k, _ in blocks] == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 7)]
        assert [b.m.shape for _, b in blocks] == [(1, 2, 16)] * 3 + [(1, 1, 16)]
        with mock.patch.object(twin, "BLOCK_POINTS", 8):
            assert len(list(twin._blocks(snaps))) == 7


def observed_reference(states, params):
    """The reference observer handed ``states`` as ``run`` hands them: each
    evaluated from the previous state's Z, with its stage-1 tendencies."""
    observer, guess = twin._Reference(params), None
    for s in states:
        ev = s.evaluate(params, guess=guess)
        observer(s, ev, dynamics.rhs(s, params, ev), None, None)  # it reads no p or density
        guess = ev.Z
    return observer.series()


def ulps(a, b):
    """Distance of two arrays of nonnegative floats in units in the last place."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


REFERENCE_GRIDS = [(1, 16), (2, 8), (3, 8)]


class TestReferenceObserver:
    """The strong run's observer reduces its own evaluations and stage 1."""

    @pytest.mark.parametrize("gammas", [(1.5, 3.0), (3.0, 1.5)], ids=["gamma=1/2", "gamma=2"])
    @pytest.mark.parametrize("grid", REFERENCE_GRIDS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_equal_to_cold_per_sample_norms_where_the_root_is_closed_form(self, gammas, grid, seed):
        # the closed-form root ignores the warm start, so the norms are the
        # cold per-sample ones bit for bit
        strong, params = random_pair(PeriodicGrid(*grid), 7, seed, ClosureParams(*gammas))[1:]
        ref = observed_reference(strong, params)
        assert ref.t.tobytes() == np.asarray([s.t for s in strong]).tobytes()
        for name, want in per_sample_reference(strong, params).items():
            assert getattr(ref, name).tobytes() == want.tobytes(), name

    def test_warm_started_norms_move_by_few_ulps_at_gamma_three_quarters(self):
        # Newton from the previous sample's Z stops a few ulp off the cold
        # root; only the pressure gradient in du/dt reads Z
        worst = {}
        for grid in REFERENCE_GRIDS:
            for seed in (1, 2):
                g = PeriodicGrid(*grid)
                strong, params = random_pair(g, 7, seed, ClosureParams(1.5, 2.0))[1:]
                ref = observed_reference(strong, params)
                for name, want in per_sample_reference(strong, params).items():
                    worst[name] = max(worst.get(name, 0), int(ulps(getattr(ref, name), want).max()))
        assert worst == {"grad_u_2": 0, "grad_u_inf": 0, "material_3": 2}

    def test_a_twin_reference_equals_the_per_sample_norms_of_its_strong_run(self, std1d_params):
        # std1d is at gamma = 1/2: run's stage 1 is each state's own rhs
        initial = config.build_initial_state(cfg_at(32))
        params = SimParams(closure=std1d_params.closure, mu=std1d_params.mu, t_end=0.2)
        result = twin.run_twin(initial, params, perturbation(1e-3))
        strong, states = twin._kept_run(initial, params, "reference")
        assert len(result.ref.t) == len(states) == len(strong.dts) + 1 > 3
        for name, want in per_sample_reference(states, params).items():
            assert getattr(result.ref, name).tobytes() == want.tobytes(), name


class TestClosureSolves:
    """Every closure solve of a twin is counted."""

    def test_each_run_solves_each_state_and_stage_and_the_reference_none(self, monkeypatch):
        cfg = cfg_at(64)
        initial, params = config.build_initial_state(cfg), cfg.params
        steps = len(dynamics.run(initial, params).dts)
        solve = closure.solve_Z_field
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(closure, "solve_Z_field", counted)
        result = twin.run_twin(initial, params, perturbation(1e-3))
        assert steps > 3 and len(result.ref.t) == steps + 1
        # the strong and the weak run, 2N + 1 each
        assert len(calls) == 2 * (2 * steps + 1)
