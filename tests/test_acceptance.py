"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from twofluid import closure, config, dynamics, grids, gronwall, twin
from twofluid.closure import ClosureParams

from conftest import audit_rows, cfg_at, perturbation, recorded_run
from test_dynamics import mms_exact, mms_initial, mms_params

SAMPLES_BULK = 10**6
SAMPLES_SMALL = 10**4
GAMMA_TRIPLET = [(1.5, 4.5), (1.5, 3.0), (2.0, 2.0)]  # gamma = 1/3, 1/2, 1


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {status}: {desc}  {detail}")
    assert ok, f"criterion {num}: {desc} {detail}"


@pytest.fixture(scope="module")
def bulk_samples():
    rng = np.random.default_rng(20260809)
    R = rng.uniform(0.0, 10.0, SAMPLES_BULK)
    Q = rng.uniform(0.0, 10.0, SAMPLES_BULK)
    return R, Q


def test_criterion_01_closure_correctness(bulk_samples):
    R, Q = bulk_samples
    elapsed = 0.0
    worst = 0.0
    ok = True
    for pair in GAMMA_TRIPLET:
        params = ClosureParams(*pair)
        t0 = time.perf_counter()
        Z, _ = closure.solve_Z_field(R, Q, params)
        res = np.abs(closure.closure_residual(R, Q, Z, params))
        elapsed += time.perf_counter() - t0
        tol = 1e-12 * np.maximum(1.0, Q)
        worst = max(worst, float(np.max(res / tol)))
        ok &= bool(np.all(res <= tol))
        ok &= bool(np.all(R <= Z))
        ok &= bool(np.all(Z <= closure.z_upper_bound(R, Q, params)))
    ok &= elapsed <= 5.0
    report(
        1,
        "closure residual/bracket/bound on 3x10^6 samples",
        ok,
        f"worst res/tol={worst:.3e}, solve time={elapsed:.2f}s",
    )


def test_criterion_02_derivative_bounds_and_fd(bulk_samples):
    R, Q = bulk_samples
    ok = True
    worst_fd = 0.0
    h = 1e-6
    sub = slice(0, 200_000)
    for pair in GAMMA_TRIPLET:
        params = ClosureParams(*pair)
        gamma = params.gamma
        Z, _ = closure.solve_Z_field(R, Q, params)
        pos = Z > 0.0
        dzr, dzq = closure.derivative_arrays(R[pos], Z[pos], gamma)
        ok &= bool(np.all(np.abs(dzr) <= 1.0 / gamma))
        ok &= bool(np.all(np.abs(dzq) <= np.power(Z[pos], 1.0 - gamma) / gamma))

        # central differences away from R = 0 (and Q = 0 for the Q slot)
        Rs = np.clip(R[sub], 1e-2, None)
        Qs = np.clip(Q[sub], 1e-2, None)
        Zs, _ = closure.solve_Z_field(Rs, Qs, params)
        dzr_s, dzq_s = closure.derivative_arrays(Rs, Zs, gamma)
        fd_r = (
            closure.solve_Z_field(Rs + h, Qs, params)[0]
            - closure.solve_Z_field(Rs - h, Qs, params)[0]
        ) / (2 * h)
        fd_q = (
            closure.solve_Z_field(Rs, Qs + h, params)[0]
            - closure.solve_Z_field(Rs, Qs - h, params)[0]
        ) / (2 * h)
        err_r = float(np.max(np.abs(fd_r - dzr_s) / np.abs(dzr_s)))
        err_q = float(np.max(np.abs(fd_q - dzq_s) / np.abs(dzq_s)))
        worst_fd = max(worst_fd, err_r, err_q)
        ok &= err_r <= 1e-6 and err_q <= 1e-6
    report(
        2,
        "derivative bounds on all samples, FD agreement <= 1e-6",
        ok,
        f"worst FD rel err={worst_fd:.3e}",
    )


def test_criterion_03_swap_identity():
    rng = np.random.default_rng(3)
    R = rng.uniform(0.0, 10.0, SAMPLES_SMALL)
    Q = rng.uniform(0.0, 10.0, SAMPLES_SMALL)
    worst = 0.0
    for pair in GAMMA_TRIPLET:
        params = ClosureParams(*pair)
        Z, _ = closure.solve_Z_field(R, Q, params)
        Rs, Qs, swapped = closure.phase_swap_transform(R, Q, params)
        Z_swapped, _ = closure.solve_Z_field(Rs, Qs, swapped)
        expected = Z**params.gamma
        denom = np.maximum(np.abs(expected), 1e-300)
        worst = max(worst, float(np.max(np.abs(Z_swapped - expected) / denom)))
    report(3, "swap identity to 1e-10 relative on 10^4 samples", worst <= 1e-10,
           f"worst rel err={worst:.3e}")


def test_criterion_04_gamma_one_closed_form():
    rng = np.random.default_rng(4)
    R = rng.uniform(0.0, 10.0, SAMPLES_SMALL)
    Q = rng.uniform(0.0, 10.0, SAMPLES_SMALL)
    Z, _ = closure.solve_Z_field(R, Q, ClosureParams(2.0, 2.0))
    err = float(np.max(np.abs(Z - (R + Q)) / np.maximum(1.0, R + Q)))
    report(4, "gamma = 1 closed form Z = R + Q to 1e-12", err <= 1e-12,
           f"worst err={err:.3e}")


def test_criterion_05_mass_conservation(run128):
    d = run128.rows
    drift_R = float(np.max(np.abs(d.mass_R - d.mass_R[0])) / abs(d.mass_R[0]))
    drift_Q = float(np.max(np.abs(d.mass_Q - d.mass_Q[0])) / abs(d.mass_Q[0]))
    ok = drift_R <= 1e-12 and drift_Q <= 1e-12 and run128.traj.final.t == 0.5
    report(5, "std1d mass conservation to 1e-12 relative", ok,
           f"drift R={drift_R:.3e}, Q={drift_Q:.3e}")


def test_criterion_06_equilibrium_and_determinism(
    std1d_initial, std1d_params, run128
):
    g = grids.PeriodicGrid(1, 32)
    eq = dynamics.State(
        g, np.full(g.shape, 1.0), np.full(g.shape, 2.0), np.zeros((1, *g.shape)), 0.0
    )
    params_eq = dynamics.SimParams(closure=std1d_params.closure, mu=0.1, t_end=0.3)
    eq_run = dynamics.run(eq, params_eq)
    fixed_point = np.array_equal(eq_run.final.R, eq.R) and np.array_equal(
        eq_run.final.m, eq.m
    )

    rerun = recorded_run(std1d_initial, std1d_params)
    bit_identical = (
        np.array_equal(rerun.traj.final.R, run128.traj.final.R)
        and np.array_equal(rerun.traj.final.Q, run128.traj.final.Q)
        and np.array_equal(rerun.traj.final.m, run128.traj.final.m)
        and np.array_equal(rerun.rows.energy, run128.rows.energy)
    )

    zero_twin = twin.run_twin(std1d_initial, std1d_params, perturbation(0.0))
    d = zero_twin.diag
    all_zero = all(
        np.all(getattr(d, name) == 0.0)
        for name in ("norm_frakR", "norm_calQ", "norm_wU", "norm_gradU", "norm_U6", "mean_U")
    )
    report(6, "equilibrium fixed point, bit-identical reruns, zero twin",
           fixed_point and bit_identical and all_zero,
           f"fixed_point={fixed_point}, rerun={bit_identical}, zero_twin={all_zero}")


def test_criterion_07_energy_defect_refinement():
    defects = []
    times = []
    for n in (128, 256, 512):
        cfg = cfg_at(n)
        t0 = time.perf_counter()
        rows = recorded_run(config.build_initial_state(cfg), cfg.params).rows
        times.append(time.perf_counter() - t0)
        defects.append(audit_rows(rows).max_defect)
    orders = [math.log2(defects[i] / defects[i + 1]) for i in range(2)]
    ok = (
        defects[0] > defects[1] > defects[2] > 0.0
        and min(orders) >= 1.0
        and max(times) <= 60.0
    )
    report(
        7,
        "energy defect strictly decreasing at order >= 1 over n=128,256,512",
        ok,
        f"defects={['%.3e' % d for d in defects]}, orders={['%.2f' % o for o in orders]}, "
        f"max wall={max(times):.1f}s",
    )


def test_criterion_08_mean_velocity_identity(twin128):
    rep = twin.check_mean_velocity(twin128.diag)
    worst = float(np.max(rep.residual / np.maximum(rep.scale, 1e-300)))
    report(8, "mean-velocity identity residual <= 1e-12*scale at every sample",
           rep.verdict and rep.rtol == 1e-12, f"worst residual/scale={worst:.3e}")


def test_criterion_09_stability_scaling(sweep128):
    ratios = [row.ratio for row in sweep128.rows]
    spread = max(ratios) / min(ratios)
    report(9, "sup distance / delta within factor 2 over delta=1e-2,1e-3,1e-4",
           spread <= 2.0, f"ratios={['%.3f' % r for r in ratios]}, spread={spread:.3f}")


def test_criterion_10_density_stability_constant(sweep128, std1d_params):
    fits = [row.fitted_C for row in sweep128.rows]
    finite = all(np.isfinite(fits)) and all(f > 0 for f in fits)

    cfg256 = cfg_at(256)
    twin256 = twin.run_twin(config.build_initial_state(cfg256), cfg256.params, perturbation(1e-3))
    c256 = twin.check_density_stability(twin256.diag).fitted_C
    c128 = sweep128.rows[1].fitted_C
    variation = abs(c256 - c128) / c128
    report(10, "fitted density-stability constant finite, refinement variation < 25%",
           finite and variation < 0.25,
           f"C(128)={c128:.4f}, C(256)={c256:.4f}, variation={variation:.2%}")


def test_criterion_11_gronwall_checker_fixtures():
    t = np.linspace(0.0, 1.0, 1001)
    zeros = np.zeros_like(t)

    const = gronwall.GronwallTrace(t=t, f=np.full_like(t, 2.5), gprime=zeros,
                                   alpha=zeros, beta=zeros)
    c_hyp = gronwall.check_hypothesis(const)
    c_con = gronwall.check_conclusion(const)
    const_ok = c_hyp.ok and np.all(c_hyp.lhs == 0.0) and c_con.verdict and c_con.max_margin == 0.0

    expo = gronwall.GronwallTrace(t=t, f=1.5 * np.exp(t), gprime=zeros,
                                  alpha=np.ones_like(t), beta=zeros)
    e_hyp = gronwall.check_hypothesis(expo)
    e_con = gronwall.check_conclusion(expo)
    expo_ok = e_hyp.ok and e_con.verdict

    violation = gronwall.GronwallTrace(t=t, f=1.0 + t, gprime=zeros,
                                       alpha=zeros, beta=zeros)
    v_hyp = gronwall.check_hypothesis(violation)
    violation_ok = (not v_hyp.ok) and v_hyp.violations.size == len(t) - 1

    tq = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    bound = gronwall.classical_gronwall_bound(tq, np.ones_like(tq), np.ones_like(tq))
    exact = np.expm1(tq)
    rel = float(np.max(np.abs(bound[1:] - exact[1:]) / exact[1:]))
    classical_ok = rel <= 1e-6

    report(11, "generalized checker fixtures and classical bound",
           const_ok and expo_ok and violation_ok and classical_ok,
           f"classical rel err={rel:.3e}")


def test_criterion_12_end_to_end_gronwall(twin128):
    stability = twin.check_density_stability(twin128.diag)
    C = max(
        stability.fitted_C,
        twin.fit_gronwall_constant(twin128.diag, twin128.ref),
    )
    trace = twin.build_gronwall_trace(twin128.diag, twin128.ref, C=C)
    rep = gronwall.check_conclusion(trace)
    worst = float(np.max(rep.margin - rep.tolerance))
    report(12, "std1d twin (delta=1e-3) trace passes the Gronwall conclusion",
           rep.verdict, f"fitted C={C:.2f}, max margin={rep.max_margin:.3e}, "
           f"max(margin - tol)={worst:.3e}")


def test_criterion_13_operator_and_solution_order():
    stencil_orders = []
    for op_name in ("gradient", "divergence", "laplacian"):
        errs = []
        for n in (32, 64, 128):
            g = grids.PeriodicGrid(1, n)
            x = g.axis_coords()
            f = np.sin(2 * x)
            if op_name == "gradient":
                err = np.max(np.abs(grids.gradient(g, f)[0] - 2 * np.cos(2 * x)))
            elif op_name == "divergence":
                err = np.max(np.abs(grids.divergence(g, f[None, :]) - 2 * np.cos(2 * x)))
            else:
                err = np.max(np.abs(grids.laplacian(g, f) + 4 * np.sin(2 * x)))
            errs.append(float(err))
        stencil_orders += [math.log2(errs[i] / errs[i + 1]) for i in range(2)]

    # manufactured run under joint refinement dt = dx/2 to T = 0.5
    T = 0.5
    errs = []
    for n in (32, 64, 128):
        g = grids.PeriodicGrid(1, n)
        steps = math.ceil(T / (0.5 * g.dx))
        dt = T / steps
        traj = dynamics.run(mms_initial(g), mms_params(T), dt_schedule=[dt] * steps)
        Re, Qe, ue = mms_exact(g, traj.final.t)
        uf = traj.final.m / (traj.final.R + traj.final.Q)
        errs.append(
            grids.lp_norm(g, traj.final.R - Re, 2)
            + grids.lp_norm(g, traj.final.Q - Qe, 2)
            + grids.lp_norm(g, uf - ue, 2)
        )
    run_orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = min(stencil_orders) >= 1.9 and min(run_orders) >= 2.0
    report(13, "operators converge at order >= 1.9; manufactured run at order >= 2",
           ok, f"stencil min={min(stencil_orders):.3f}, run orders="
           f"{['%.3f' % o for o in run_orders]}")
