import math
import warnings
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from twofluid import cli, config, dynamics, gronwall, iofmt, twin
from twofluid.errors import ConfigError
from twofluid.grids import PeriodicGrid

FAST = [
    "--set", "grid.n=32",
    "--set", "time.t_end=0.05",
]


def read_lines(path):
    return path.read_text().strip().splitlines()


def assert_one_line_config_error(capsys, message):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: {message}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestSimulate:
    def test_writes_diagnostics_and_energy(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["simulate", "--out", str(out), *FAST])
        assert code == 0
        lines = read_lines(out / "diagnostics.csv")
        assert lines[0] == iofmt.DIAGNOSTICS_HEADER
        t = np.array([float(l.split(",")[0]) for l in lines[1:]])
        assert np.all(np.diff(t) > 0)
        energy_lines = read_lines(out / "energy.csv")
        assert energy_lines[0] == iofmt.ENERGY_HEADER

    def test_field_dumps_round_trip(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main(
            ["simulate", "--out", str(out), *FAST, "--set", "output.fields=true"]
        )
        assert code == 0
        grid, values, t, name = iofmt.read_field(out / "final_R.dat")
        assert grid == PeriodicGrid(1, 32)
        assert name == "R"
        assert values.shape == grid.shape
        assert t == pytest.approx(0.05)

    def test_config_file_and_override(self, tmp_path):
        cfg_path = tmp_path / "case.cfg"
        cfg_path.write_text("[grid]\nn = 32\n[time]\nt_end = 0.02\n")
        out = tmp_path / "run"
        code = cli.main(
            ["simulate", "--config", str(cfg_path), "--out", str(out),
             "--set", "grid.n=16", "--set", "output.fields=true"]
        )
        assert code == 0
        assert (out / "diagnostics.csv").exists() and (out / "energy.csv").exists()
        grid, _, t, _ = iofmt.read_field(out / "final_R.dat")
        assert grid == PeriodicGrid(1, 16)
        assert t == 0.02

    def test_dimension_override_acts_like_the_config_line(self, tmp_path):
        lines = ["grid.dim=2", "grid.n=16", "time.t_end=0.01"]
        cfg_path = tmp_path / "case.cfg"
        cfg_path.write_text("[grid]\ndim = 2\nn = 16\n[time]\nt_end = 0.01\n")
        by_file, by_set = tmp_path / "file", tmp_path / "set"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(by_file)]) == 0
        sets = [arg for line in lines for arg in ("--set", line)]
        assert cli.main(["simulate", "--out", str(by_set), *sets]) == 0
        for name in ("diagnostics.csv", "energy.csv"):
            assert (by_set / name).read_bytes() == (by_file / name).read_bytes()


    def test_keeps_only_the_initial_and_final_states(self, tmp_path, monkeypatch):
        kept = []
        run = dynamics.run

        def capture(*args, **kwargs):
            kept.append((run(*args, **kwargs), kwargs["observers"]))
            return kept[-1][0]

        monkeypatch.setattr(dynamics, "run", capture)
        assert cli.main(["simulate", "--out", str(tmp_path), *FAST]) == 0
        ((traj, observers),) = kept
        (rows,) = observers
        assert isinstance(rows, dynamics.Rows)
        assert len(traj.snapshots) == 2 < len(rows.series().t)
        assert traj.initial.t == 0.0 and traj.final.t == 0.05


class TestCompare:
    def test_zero_delta_all_zero_columns(self, tmp_path):
        out = tmp_path / "cmp"
        code = cli.main(
            ["compare", "--out", str(out), *FAST, "--set", "perturbation.delta=0"]
        )
        assert code == 0
        lines = read_lines(out / "compare.csv")
        assert lines[0] == iofmt.COMPARE_HEADER
        cols = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        names = iofmt.COMPARE_HEADER.split(",")
        for zero_col in ("norm_frakR", "norm_calQ", "norm_wU", "norm_gradU", "norm_U6"):
            assert np.all(cols[:, names.index(zero_col)] == 0.0), zero_col

    def test_perturbed_compare_verdicts_pass(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = cli.main(["compare", "--out", str(out), *FAST])
        assert code == 0
        assert capsys.readouterr().err == ""  # every interval was fitted
        assert (out / "trace.csv").exists()
        trace = iofmt.read_trace_csv(out / "trace.csv")
        assert gronwall.check_conclusion(trace).verdict

    def test_zero_t_end_exits_2_before_the_output_directory(self, tmp_path, capsys):
        # the Gronwall trace needs at least one step
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--out", str(out), *FAST, "--set", "time.t_end=0"]) == 2
        assert_one_line_config_error(capsys, "compare needs time.t_end > 0")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_simulate_and_sweep_accept_zero_t_end(self, tmp_path, command):
        assert cli.main([command, "--out", str(tmp_path / "o"), *FAST, "--set", "time.t_end=0"]) == 0

    # The bump at wavevector 2 meets the density's own wavevector-2 mode, and
    # a phase of 1e300 rounds it to a constant: either gives the twins
    # unequal total momenta, which the mean-velocity identity assumes equal.
    @pytest.mark.parametrize("setting", ["initial_R.mode=0.2 2 0", "perturbation.phase=1e300"])
    def test_momentum_gap_exits_3_and_writes_no_csv(self, tmp_path, capsys, setting):
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--out", str(out), *FAST, "--set", setting]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("runtime error: twin initial momenta differ by ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert list(out.iterdir()) == []

    # every velocity is m/1e300, so each member would pass at distance 0
    @pytest.mark.parametrize(
        "argv",
        [["compare"], ["sweep", "--deltas", "1e-2,1e-3"]],
        ids=["compare", "sweep"],
    )
    def test_floored_reference_exits_3_and_writes_no_csv(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        code = cli.main([*argv, "--out", str(out), "--set", "grid.n=16", "--set", "time.density_floor=1e300"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "runtime error: reference run: density R+Q falls below "
            "time.density_floor=1e+300 at t=0 (16 points)\n"
        )
        assert list(out.iterdir()) == []

    def test_floored_weak_member_is_named(self, tmp_path, capsys):
        # the reference's density stays above 1.717, and the delta = 0.5
        # member's dips to 1.690 by t = 0.05
        out = tmp_path / "o"
        argv = ["sweep", "--out", str(out), *FAST, "--set", "time.density_floor=1.7"]
        assert cli.main([*argv, "--deltas", "1e-3,0.5"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "runtime error: delta=0.5 run: density R+Q falls below time.density_floor=1.7 at t="
        )
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert list(out.iterdir()) == []
        assert cli.main([*argv, "--deltas", "1e-3"]) == 0

    def test_one_hypothesis_check_per_compare(self, tmp_path, monkeypatch):
        # the fit reads C and the unfittable intervals from one report
        calls = []

        def counted(trace):
            calls.append(len(trace.t))
            return check(trace)

        check = gronwall.check_hypothesis
        monkeypatch.setattr(gronwall, "check_hypothesis", counted)
        monkeypatch.setattr(twin, "check_hypothesis", counted)
        assert cli.main(["compare", "--out", str(tmp_path / "o"), *FAST]) == 0
        assert len(calls) == 1

    def test_constant_reference_names_its_unfittable_interval(self, tmp_path, capsys):
        # the 2D default drops the 1D modes, so the reference stays constant
        # and the first interval's right side is 0 at any C
        out = tmp_path / "o"
        assert cli.main(["compare", "--out", str(out), "--set", "grid.dim=2", "--set", "grid.n=16"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 4
        assert "gronwall conclusion: max margin=4.052e-06 verdict=False" in captured.out
        assert captured.err == (
            "gronwall constant: no C satisfies 1 interval(s), the first at t=0: "
            "lhs > 0 where rhs <= 1e-14 at C = 1\n"
        )
        assert sorted(p.name for p in out.iterdir()) == ["compare.csv", "trace.csv"]


class TestSweep:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep"
        code = cli.main(
            ["sweep", "--out", str(out), *FAST, "--deltas", "1e-2,1e-3"]
        )
        assert code == 0
        lines = read_lines(out / "sweep.csv")
        assert lines[0] == iofmt.SWEEP_HEADER
        assert len(lines) == 3
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 1e-2

    @pytest.mark.parametrize("deltas", ["nan", "inf", "1e-3,-inf"])
    def test_non_finite_deltas_exit_2(self, tmp_path, capsys, deltas):
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--out", str(out), *FAST, "--deltas", deltas]) == 2
        assert_one_line_config_error(capsys, "--deltas must be finite")
        assert not out.exists()

    def test_overflowing_member_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("integrated a run before every member was perturbed")

        monkeypatch.setattr(dynamics, "run", no_run)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--out", str(out), *FAST, "--deltas", "1e-3,1e-2,1e308"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "runtime error: perturbation delta=1e+308 overflows the weak momentum\n"
        assert list(out.iterdir()) == []

    def test_verdicts_come_from_the_sweep_rows(self, tmp_path, monkeypatch):
        real = twin.stability_sweep

        def failing(*args, **kwargs):
            rows = real(*args, **kwargs)
            rows[-1].verdict = False
            return rows

        monkeypatch.setattr(twin, "stability_sweep", failing)
        code = cli.main(["sweep", "--out", str(tmp_path / "s"), *FAST, "--deltas", "1e-2,1e-3"])
        assert code == 1

    def test_negative_delta_ratio_uses_its_size(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--out", str(out), *FAST, "--deltas=-1e-3,1e-3"]) == 0
        assert "ratio=-" not in capsys.readouterr().out
        rows = [[float(v) for v in line.split(",")] for line in read_lines(out / "sweep.csv")[1:]]
        for delta, sup, ratio, _ in rows:
            assert ratio == sup / abs(delta) > 0.0


class TestDensityTargets:
    # The twin perturbs only the velocity: the density-stability check needs
    # identical initial densities, so the config has no perturbation target.
    @pytest.mark.parametrize("target", ["densities", "all", "velocity"])
    @pytest.mark.parametrize(
        "command,extra",
        [("compare", []), ("sweep", ["--deltas", "0,1e-3"])],
    )
    def test_density_perturbation_rejected_before_integrating(
        self, tmp_path, capsys, monkeypatch, command, extra, target
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("integrated a run the check rejects")

        monkeypatch.setattr(dynamics, "run", no_run)
        out = tmp_path / "o"
        argv = [command, "--out", str(out), *FAST, "--set", f"perturbation.target={target}"]
        assert cli.main(argv + extra) == 2
        assert_one_line_config_error(capsys, "override names unknown key 'target' in [perturbation]")
        assert not out.exists()

    def test_weak_run_beyond_its_own_step_limit_exits_3(self, tmp_path, capsys):
        # at cfl = 1 the replayed steps of a delta = 1 twin reach a realised
        # CFL number of about 1.17 in the weak run
        out = tmp_path / "o"
        argv = ["compare", "--out", str(out), "--set", "grid.n=128", "--set", "time.t_end=0.125",
                "--set", "time.cfl=1", "--set", "perturbation.delta=1"]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: weak run at delta=1 exceeds its own step limit at t=")
        assert "realised CFL number 1.1" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, extra",
        [("sweep", ["--deltas", "1e-3,1e300"]), ("compare", ["--set", "perturbation.delta=1e300"])],
    )
    def test_weak_run_whose_own_step_limit_vanishes_exits_3(self, tmp_path, capsys, command, extra):
        # a velocity of 1e300 puts the weak run's own step limit at 1.6e-301,
        # below DT_MIN, at its first state; the strong run steps as usual
        out = tmp_path / "o"
        assert cli.main([command, "--out", str(out), "--set", "grid.n=16", *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "runtime error: weak run at delta=1e+300 fails at t=0: vanishing time step: dt=1.5"
        )
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not any(out.iterdir())


class TestClosureTable:
    def test_golden_gamma_one_table(self, tmp_path):
        out = tmp_path / "tab"
        code = cli.main(
            [
                "closure-table", "--out", str(out),
                "--set", "physics.gamma_plus=2", "--set", "physics.gamma_minus=2",
                "--r-min", "0", "--r-max", "1", "--r-count", "2",
                "--q-min", "0", "--q-max", "2", "--q-count", "2",
            ]
        )
        assert code == 0
        lines = read_lines(out / "closure_table.csv")
        assert lines[0] == iofmt.CLOSURE_TABLE_HEADER
        # (R=0, Q=0) row: vacuum sentinel derivatives
        assert lines[1].split(",")[:6] == ["0", "0", "2", "2", "0", "nan"]
        # (R=1, Q=2) row: Z = 3, alpha = 1/3, p = 9
        row = lines[4].split(",")
        assert float(row[4]) == pytest.approx(3.0, abs=1e-12)
        assert float(row[6]) == pytest.approx(9.0, rel=1e-12)

    def test_17_digit_round_trip(self, tmp_path):
        out = tmp_path / "tab"
        cli.main(
            ["closure-table", "--out", str(out), "--r-min", "0.1", "--r-max", "0.7",
             "--r-count", "3", "--q-min", "0.3", "--q-max", "0.9", "--q-count", "3"]
        )
        lines = read_lines(out / "closure_table.csv")
        value = lines[1].split(",")[4]
        assert float(iofmt.fmt(float(value))) == float(value)

    def test_large_gamma_ratio_at_moderate_density_exits_0(self, tmp_path):
        # gamma = 2: at R = 100, Q = 0.6 the residual rounds above its tolerance
        out = tmp_path / "tab"
        code = cli.main(
            ["closure-table", "--out", str(out),
             "--set", "physics.gamma_plus=3", "--set", "physics.gamma_minus=1.5",
             "--r-max", "1000", "--q-max", "1"]
        )
        assert code == 0
        assert len(read_lines(out / "closure_table.csv")) > 1

    def test_large_gamma_ratio_cold_start_exits_0(self, tmp_path, capsys):
        # gamma = 300/1.001: a cold start at half the root climbed by about
        # 1 + 1/gamma per sweep and ran out of sweeps at R = Q = 0.1
        out = tmp_path / "tab"
        argv = ["closure-table", "--out", str(out), "--r-max", "1", "--q-max", "1"]
        argv += ["--set", "physics.gamma_plus=300", "--set", "physics.gamma_minus=1.001"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in read_lines(out / "closure_table.csv")[1:]]
        assert len(rows) == 121
        for row in rows:
            assert abs(float(row[9])) <= 1e-12 * max(1.0, float(row[1]))

    def test_gamma_ratio_beyond_2_53_exits_3_without_a_warning(self, tmp_path, capsys):
        # fl(gamma - 1) = gamma, so the Q = 0 row's derivatives divide by zero
        out = tmp_path / "tab"
        argv = ["closure-table", "--out", str(out), "--r-min", "1", "--r-max", "1"]
        argv += ["--r-count", "1", "--q-max", "0", "--q-count", "1"]
        argv += ["--set", "physics.gamma_plus=1e17", "--set", "physics.gamma_minus=1.5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "runtime error: closure derivative overflows at R=1.0, Z=1.0\n"

    def test_small_density_root_is_within_ulps_of_the_oracle(self, tmp_path):
        # gamma = 3/4 has no closed-form start; an absolute residual tolerance
        # accepted Z = 1.0752743912400353e-20 here, 2.5 % off, with a
        # residual of 26 % of Q
        out = tmp_path / "tab"
        argv = ["closure-table", "--out", str(out), "--set", "physics.gamma_minus=2"]
        argv += ["--r-min", "1e-20", "--r-max", "1e-20", "--r-count", "1"]
        argv += ["--q-min", "1e-16", "--q-max", "1e-16", "--q-count", "1"]
        assert cli.main(argv) == 0
        row = read_lines(out / "closure_table.csv")[1].split(",")
        Z, residual = float(row[4]), float(row[9])
        oracle = 1.1024687822859552e-20  # 50-digit decimal Newton, rounded once
        assert abs(Z - oracle) <= 4 * math.ulp(oracle)
        assert abs(residual) <= 1e-12 * 1e-16

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--r-count", "-1", "--r-count must be at least 1"),
            ("--r-count", "0", "--r-count must be at least 1"),
            ("--q-count", "0", "--q-count must be at least 1"),
            ("--r-min", "-1", "--r-min must be finite and nonnegative"),
            ("--r-max", "inf", "--r-max must be finite and nonnegative"),
            ("--r-max", "nan", "--r-max must be finite and nonnegative"),
            ("--q-min", "-0.5", "--q-min must be finite and nonnegative"),
            ("--q-max", "-inf", "--q-max must be finite and nonnegative"),
            ("--q-max", "nan", "--q-max must be finite and nonnegative"),
        ],
    )
    def test_bad_axis_exits_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "tab"
        assert cli.main(["closure-table", "--out", str(out), f"{flag}={value}"]) == 2
        assert_one_line_config_error(capsys, message)
        assert not out.exists()


class TestGronwallCheck:
    def test_constant_trace_passes(self, tmp_path):
        t = np.linspace(0.0, 1.0, 21)
        trace = gronwall.GronwallTrace(
            t=t, f=np.full_like(t, 2.0), gprime=np.zeros_like(t),
            alpha=np.zeros_like(t), beta=np.zeros_like(t),
        )
        path = tmp_path / "trace.csv"
        iofmt.write_trace_csv(path, trace)
        assert cli.main(["gronwall-check", "--trace", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_violating_trace_fails(self, tmp_path):
        t = np.linspace(0.0, 1.0, 21)
        trace = gronwall.GronwallTrace(
            t=t, f=1.0 + t, gprime=np.zeros_like(t),
            alpha=np.zeros_like(t), beta=np.zeros_like(t),
        )
        path = tmp_path / "trace.csv"
        iofmt.write_trace_csv(path, trace)
        assert cli.main(["gronwall-check", "--trace", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_writes_the_hypothesis_report(self, tmp_path, capsys):
        t = np.linspace(0.0, 1.0, 11)
        trace = gronwall.GronwallTrace(
            t=t, f=1.0 + np.maximum(0.0, t - 0.45), gprime=np.zeros_like(t),
            alpha=np.zeros_like(t), beta=np.zeros_like(t),
        )
        path, out = tmp_path / "trace.csv", tmp_path / "o"
        iofmt.write_trace_csv(path, trace)
        assert cli.main(["gronwall-check", "--trace", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().out.startswith("hypothesis: violated (5 interval(s) flagged)")
        lines = read_lines(out / "hypothesis.csv")
        assert lines[0] == "t,lhs,rhs,tolerance,flagged"
        rows = [line.split(",") for line in lines[1:]]
        report = gronwall.check_hypothesis(trace)
        for name, k in (("t", 0), ("lhs", 1), ("rhs", 2), ("tolerance", 3)):
            assert [float(row[k]) for row in rows] == getattr(report, name).tolist(), name
        # f grows from t = 0.45 on: the last five intervals are flagged
        assert [row[4] for row in rows] == ["0"] * 5 + ["1"] * 5

    def test_malformed_trace_is_config_error(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("nope\n")
        assert cli.main(["gronwall-check", "--trace", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "rows,message",
        [
            ("0,1,0,0,0\n", "trace needs at least two samples"),
            ("0,1,0,0,0\n0.5,-1,0,0,0\n", "trace field f must be nonnegative"),
            ("0.1,1,0,0,0\n0.5,1,0,0,0\n", "trace time must start at 0"),
            ("0,1,0,0,0\n0.5,1,0,0,0\n0.5,1,0,0,0\n", "trace times must be strictly increasing"),
            ("0,1,0,0,0\nnan,1,0,0,0\n1,1,0,0,0\n", "trace times must be strictly increasing"),
        ],
    )
    def test_trace_rejected_by_the_trace_type_exits_2(self, tmp_path, capsys, rows, message):
        path = tmp_path / "trace.csv"
        path.write_text(f"{iofmt.TRACE_HEADER}\n{rows}")
        assert cli.main(["gronwall-check", "--trace", str(path), "--out", str(tmp_path / "o")]) == 2
        assert_one_line_config_error(capsys, f"{path}: {message}")

    def test_non_numeric_cell_exits_2_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        path.write_text(f"{iofmt.TRACE_HEADER}\n0,1,0,0,0\n0.5,abc,0,0,0\n")
        assert cli.main(["gronwall-check", "--trace", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(path) in err
        assert "Traceback" not in err


class TestEnergyAudit:
    def test_audit_of_simulated_diagnostics(self, tmp_path):
        run_dir = tmp_path / "run"
        assert cli.main(["simulate", "--out", str(run_dir), *FAST]) == 0
        out = tmp_path / "audit"
        code = cli.main(
            ["energy-audit", "--diagnostics", str(run_dir / "diagnostics.csv"),
             "--out", str(out)]
        )
        assert code == 0
        lines = read_lines(out / "energy_audit.csv")
        assert lines[0] == iofmt.ENERGY_HEADER
        defects = [float(l.split(",")[-1]) for l in lines[1:]]
        assert all(np.isfinite(defects))

    def test_defect_tolerance_gate(self, tmp_path):
        run_dir = tmp_path / "run"
        cli.main(["simulate", "--out", str(run_dir), *FAST])
        code = cli.main(
            ["energy-audit", "--diagnostics", str(run_dir / "diagnostics.csv"),
             "--out", str(tmp_path / "a"), "--defect-tol", "0"]
        )
        assert code == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_unusable_defect_tolerance_exits_2(self, tmp_path, capsys, tol):
        run_dir = tmp_path / "run"
        assert cli.main(["simulate", "--out", str(run_dir), *FAST]) == 0
        capsys.readouterr()
        out = tmp_path / "a"
        code = cli.main(
            ["energy-audit", "--diagnostics", str(run_dir / "diagnostics.csv"),
             "--out", str(out), f"--defect-tol={tol}"]
        )
        assert code == 2
        assert_one_line_config_error(capsys, "--defect-tol must be finite and nonnegative")
        assert not out.exists()

    def test_non_numeric_cell_exits_2_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "diagnostics.csv"
        path.write_text(f"{iofmt.DIAGNOSTICS_HEADER}\n0,0.1,1,1,2,0,1,1,0,0\n0.1,0,1,1,nan?,0,1,1,0,0\n")
        code = cli.main(["energy-audit", "--diagnostics", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("t,kinetic,internal\n0,1,1\n0.1,1,1\n", "need t with energy/dissipation"),
            (f"{iofmt.ENERGY_HEADER}\n0,1,1,0,0,0\n0.1,1,1,0,0,0\n",
             "need t with energy/dissipation columns"),
            ("t,energy,dissipation\n0,1,0\n0.1,nan,0\n0.2,5,0\n", "column energy has a non-finite"),
            ("t,energy,dissipation\n0,1,0\n0.1,1,inf\n", "column dissipation has a non-finite"),
            ("t,energy,dissipation\n1,1,0\n0,1,3\n", "column t must be strictly increasing"),
            ("t,energy,dissipation\n0,1,0\n0.1,1,0\n0.1,1,0\n", "column t must be strictly increasing"),
        ],
    )
    def test_unusable_columns_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "diagnostics.csv"
        path.write_text(text)
        out = tmp_path / "o"
        args = ["energy-audit", "--diagnostics", str(path), "--out", str(out), "--defect-tol", "1e-6"]
        assert cli.main(args) == 2
        assert_one_line_config_error(capsys, f"{path}: {message}")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_nan_defect_fails_the_gate(self, tmp_path):
        # an increment 1e308 * 10 overflows to inf, a later one to -inf: nan
        path = tmp_path / "diagnostics.csv"
        path.write_text(
            "t,energy,dissipation\n0,1,1e308\n10,1,1e308\n20,1,-1e308\n30,1,-1e308\n"
        )
        args = ["energy-audit", "--diagnostics", str(path), "--out", str(tmp_path / "o")]
        assert cli.main([*args, "--defect-tol", "1e-6"]) == 1

    def test_finite_integral_of_huge_rates_stays_finite(self, tmp_path, capsys):
        # the midpoint of 1e308 and 1e308 is formed from halves: 1e308 * 0.1
        path = tmp_path / "diagnostics.csv"
        path.write_text("t,energy,dissipation\n0,1,1e308\n0.1,1,1e308\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["energy-audit", "--diagnostics", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == "energy-audit: max defect=1.000000e+307\n"
        defect = iofmt.read_diagnostics_csv(out / "energy_audit.csv")["defect"]
        assert np.isfinite(defect).all() and defect[-1] == 1e308 * 0.1


class TestFieldDumpErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "# 1 8 6.28 0 R\n" + "1\n" * 7 + "x\n",  # bad value line
            "# 1 eight 6.28 0 R\n" + "1\n" * 8,  # bad header number
            "# 1 7 6.28 0 R\n" + "1\n" * 7,  # header names no valid grid
            "# 1 8 6.28 0 R\n",  # no values
            "# 1 8 6.28 0 R\n" + "1\n" * 7 + "1,2\n",  # two cells on a value line
            "# 1 8 6.28 0 R,x\n" + "1,2\n" * 4,  # two columns under a comma header
        ],
    )
    def test_malformed_dump_is_config_error(self, tmp_path, text):
        path = tmp_path / "f.dat"
        path.write_text(text)
        with pytest.raises(ConfigError, match="f.dat"):
            iofmt.read_field(path)

    @pytest.mark.parametrize("payload", [b"# 1 8 6.28 0 R\n\xff", b"\xff# 1 8 6.28 0 R\n" + b"1\n" * 8])
    def test_non_utf8_dump_is_config_error(self, tmp_path, payload):
        path = tmp_path / "f.dat"
        path.write_bytes(payload)
        with pytest.raises(ConfigError, match="f.dat"):
            iofmt.read_field(path)


class TestErrorPaths:
    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[physics]\ngamma_plus = 0.5\n")
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_out_of_range_override_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["simulate", "--out", str(out), "--set", "time.cfl=0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cfl must lie in (0, 1]")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_multi_line_override_exits_2(self, tmp_path, capsys):
        value = "physics.mu=0.2\n[grid]\nn = 16"
        code = cli.main(["simulate", "--out", str(tmp_path), "--set", value])
        assert code == 2
        assert_one_line_config_error(capsys, f"override {value!r} must be one line")

    @pytest.mark.parametrize(
        "grid",
        [
            ["grid.length=1e300"],
            ["grid.dim=2", "grid.length=1e200"],
            # dx**2 underflows to a subnormal or 0, or 2 pi / length overflows
            ["grid.length=1e-170"],
            ["grid.length=1e-300"],
            ["grid.length=1e-320"],
            ["grid.length=5e-324"],
            # dx**2 is normal but the cell volume dx**3 is not
            ["grid.dim=3", "grid.n=8", "grid.length=1e-103"],
        ],
    )
    def test_grid_length_whose_sizes_overflow_or_underflow_exits_2(self, tmp_path, capsys, grid):
        sets = ["grid.n=16", "time.t_end=0.01", *grid]
        out = tmp_path / "o"
        argv = ["simulate", "--out", str(out), *(a for s in sets for a in ("--set", s))]
        assert cli.main(argv) == 2
        assert_one_line_config_error(capsys, "length must keep dx**2 and the cell and grid volumes finite")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["closure-table", "--r-max", "1e308", "--r-count", "3", "--q-count", "2"],
            ["simulate", "--set", "grid.n=16", "--set", "time.t_end=0.01",
             "--set", "physics.gamma_minus=1e10"],
        ],
    )
    def test_overflowing_closure_bracket_exits_3(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert cli.main([*argv, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "runtime error: closure upper bracket max(2R, (2Q)**(1/gamma)) overflows at R="
        )
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not any(out.iterdir())

    def test_overflowing_residual_power_exits_3(self, tmp_path, capsys):
        # at gamma = 2 the bracket [1e200, 2e200] is finite, but z**2 is not
        argv = ["closure-table", "--r-min", "1e200", "--r-max", "1e200", "--r-count", "1"]
        argv += ["--q-min", "1", "--q-max", "1", "--q-count", "1"]
        argv += ["--set", "physics.gamma_plus=3", "--set", "physics.gamma_minus=1.5"]
        out = tmp_path / "o"
        assert cli.main([*argv, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "runtime error: closure residual z**gamma at the upper bracket overflows "
            "at R=1e+200, Q=1.0\n"
        )
        assert not any(out.iterdir())

    def test_overflowing_r_zero_root_exits_3(self, tmp_path, capsys):
        # at R = 0 the root is Q**(1/gamma), which overflows for gamma = 1/2
        argv = ["closure-table", "--r-max", "0", "--r-count", "1"]
        argv += ["--q-max", "1e308", "--q-count", "3"]
        out = tmp_path / "o"
        assert cli.main([*argv, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "runtime error: closure root Q**(1/gamma) overflows at R=0.0, Q=5e+307\n"
        )
        assert not any(out.iterdir())

    def test_underflowing_r_zero_root_exits_3(self, tmp_path, capsys):
        # at R = 0 and gamma = 3/4 the root Q**(4/3) of Q = 1e-170 underflows
        # to 0, which would read as vacuum
        argv = ["closure-table", "--r-min", "0", "--r-max", "0", "--r-count", "1"]
        argv += ["--q-min", "1e-170", "--q-max", "1e-170", "--q-count", "1"]
        out = tmp_path / "o"
        assert cli.main([*argv, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "runtime error: closure root Q**(1/gamma) underflows to 0 at R=0.0, Q=1e-170\n"
        )
        assert not any(out.iterdir())

    def test_overflowing_closure_derivative_exits_3(self, tmp_path, capsys):
        # at gamma = 2 and a subnormal Z, dZ/dQ = Z**(1-gamma) = 2e323
        argv = ["closure-table", "--r-min", "5e-324", "--r-max", "5e-324", "--r-count", "1"]
        argv += ["--q-max", "0", "--q-count", "1"]
        argv += ["--set", "physics.gamma_plus=3", "--set", "physics.gamma_minus=1.5"]
        out = tmp_path / "o"
        assert cli.main([*argv, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "runtime error: closure derivative overflows at R=5e-324, Z=5e-324\n"
        )
        assert not any(out.iterdir())

    def test_huge_gamma_ratio_ends_in_the_derivative_error(self, tmp_path, capsys):
        # gamma = 1000/1.001: every Newton solve converges, but at Q = 0 the
        # derivative dZ/dQ = Z**(1-gamma) of Z = R = 0.1 overflows
        argv = ["closure-table", "--r-max", "1", "--q-max", "1"]
        argv += ["--set", "physics.gamma_plus=1000", "--set", "physics.gamma_minus=1.001"]
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "runtime error: closure derivative overflows at R=0.1, Z=0.1\n"
        assert not any(out.iterdir())

    def test_overflowing_newton_slope_is_a_zero_step(self, tmp_path, capsys):
        # gamma = 7e299/1.0000001: gamma * Q/z**gamma overflows in the Newton
        # slope, where the step is already zero; Z = Q**(1/gamma) rounds to 1
        argv = ["closure-table", "--r-min", "5e-324", "--r-max", "5e-324", "--r-count", "1"]
        argv += ["--q-min", "1e16", "--q-max", "1e16", "--q-count", "1"]
        argv += ["--set", "physics.gamma_plus=7e299", "--set", "physics.gamma_minus=1.0000001"]
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, row = read_lines(out / "closure_table.csv")
        assert float(row.split(",")[header.split(",").index("Z")]) == 1.0

    @pytest.mark.parametrize(
        "argv",
        [["compare", "--set", "perturbation.delta=1e308"], ["sweep", "--deltas", "1e-3,1e308"]],
        ids=["compare", "sweep"],
    )
    def test_overflowing_perturbation_exits_3_naming_delta(self, tmp_path, capsys, argv):
        # (R + Q) * delta overflows the weak member's initial momentum
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, *FAST, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "runtime error: perturbation delta=1e+308 overflows the weak momentum\n"
        assert not out.exists() or not any(out.iterdir())

    def test_subnormal_densities_at_large_gamma_end_before_iterating(self, tmp_path, capsys):
        # gamma = 30/1.000000001: at R = Q = 5e-321 the cold start's
        # lo**(1-gamma) overflows, although Q/lo**gamma is about 2 there
        argv = ["closure-table", "--r-min", "0", "--r-max", "1e-320", "--r-count", "3"]
        argv += ["--q-min", "0", "--q-max", "1e-320", "--q-count", "3"]
        argv += ["--set", "physics.gamma_plus=30", "--set", "physics.gamma_minus=1.000000001"]
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "runtime error: closure residual z**(1-gamma) at the lower bracket "
            "overflows at R=5e-321, Q=5e-321\n"
        )
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "argv,where",
        [
            # gamma = 1/2: the root 1e300 is finite, its power 3/2 is not
            (["--r-min", "1e300", "--r-max", "1e300", "--q-min", "1", "--q-max", "1"], "R=1e+300, Q=1.0"),
            # gamma = 2 with Q = 0: Z = R needs no Newton, but Z**3 overflows
            # and the residual (1 - R/Z)*Z**2 is 0*inf
            (["--r-min", "1e200", "--r-max", "1e200", "--q-min", "0", "--q-max", "0",
              "--set", "physics.gamma_plus=3", "--set", "physics.gamma_minus=1.5"], "R=1e+200, Q=0.0"),
        ],
    )
    def test_overflowing_pressure_or_residual_exits_3(self, tmp_path, capsys, argv, where):
        out = tmp_path / "o"
        argv = ["closure-table", "--out", str(out), "--r-count", "1", "--q-count", "1", *argv]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"runtime error: closure pressure or residual overflows at {where}\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "command,sets,section",
        [
            ("simulate", ["initial_u.constant_x=1.7e308"], "[initial_u]"),
            ("simulate", ["initial_u.mode_x=1e308 1 0", "initial_u.constant_x=1e308"], "[initial_u]"),
            ("compare", ["physics.mu=1e12", "initial_u.mode_x=1.7e308 1 0"], "[initial_u]"),
            ("sweep", ["initial_u.constant_x=1.7e308"], "[initial_u]"),
            # the sum of two finite densities, then one density itself, overflows
            ("simulate", ["initial_R.constant=1e308", "initial_Q.constant=1e308"], "[initial_R] + [initial_Q]"),
            ("simulate", ["initial_R.constant=1.7e308", "initial_R.mode=1e307 1 0"], "[initial_R] + [initial_Q]"),
        ],
    )
    def test_initial_data_that_overflows_exits_2(self, tmp_path, capsys, command, sets, section):
        out = tmp_path / "o"
        sets = ["grid.n=16", "time.t_end=0.01", *sets]
        argv = [command, "--out", str(out), *(a for s in sets for a in ("--set", s))]
        assert cli.main(argv + (["--deltas", "1e-3"] if command == "sweep" else [])) == 2
        assert_one_line_config_error(capsys, section)
        assert not out.exists()

    @pytest.mark.parametrize("t_end", ["1e-12", "5e-13"])
    @pytest.mark.parametrize("command", ["simulate", "compare", "sweep"])
    def test_t_end_within_dt_min_exits_2(self, tmp_path, capsys, command, t_end):
        out = tmp_path / "o"
        argv = [command, "--out", str(out), "--set", "grid.n=16", "--set", f"time.t_end={t_end}"]
        assert cli.main(argv + (["--deltas", "1e-3"] if command == "sweep" else [])) == 2
        assert_one_line_config_error(capsys, "t_end must be 0 or exceed DT_MIN=1e-12")
        assert not out.exists()

    def test_t_end_just_past_dt_min_takes_one_step(self, tmp_path, capsys):
        argv = ["simulate", "--out", str(tmp_path), "--set", "grid.n=16", "--set", "time.t_end=1.5e-12"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith("simulate: 1 steps to t=1.5e-12,")

    @pytest.mark.parametrize("setting", ["initial_u.constant_x=1e200", "grid.length=1e-100"])
    def test_vanishing_time_step_before_any_row_exits_3(self, tmp_path, capsys, setting):
        # a speed of 1e200 is not squared, and at dx = 6e-102 the viscous
        # step limit vanishes before any row is taken
        out = tmp_path / "o"
        sets = ["grid.n=16", "time.t_end=0.01", setting]
        argv = ["simulate", "--out", str(out), *(a for s in sets for a in ("--set", s))]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("runtime error: vanishing time step: dt=")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not any(out.iterdir())

    def test_bad_override_exits_2(self, tmp_path):
        assert cli.main(["simulate", "--out", str(tmp_path / "o"), "--set", "x=1"]) == 2

    def test_missing_input_exits_3(self, tmp_path):
        code = cli.main(
            ["energy-audit", "--diagnostics", str(tmp_path / "nope.csv"),
             "--out", str(tmp_path / "o")]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("gronwall-check", "--config", "x.cfg"),
            ("gronwall-check", "--set", "grid.n=8"),
            ("energy-audit", "--config", "/nonexistent"),
            ("energy-audit", "--set", "wat.x=1"),
        ],
    )
    def test_flags_a_subcommand_does_not_read_exit_2(self, tmp_path, capsys, command, flag, value):
        path = tmp_path / "in.csv"
        path.write_text("")
        argv = [command, "--trace" if command == "gronwall-check" else "--diagnostics", str(path)]
        out = tmp_path / "o"
        assert cli.main([*argv, "--out", str(out), flag, value]) == 2
        assert_one_line_config_error(capsys, f"twofluid: unrecognized arguments: {flag} {value}")
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        code = cli.main(
            ["simulate", "--config", str(tmp_path / "nope.cfg"),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2


# Each example rewrites the same files under tmp_path.
SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

TINY = np.finfo(float).tiny
HUGE = np.finfo(float).max
EDGES = [0.0, -0.0, 5e-324, -5e-324, TINY, np.nextafter(TINY, 0.0), HUGE, -HUGE, 1e-300, 1e300, 0.1]
finite = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
nonnegative = st.one_of(
    st.sampled_from([e for e in EDGES if not e < 0.0]),
    st.floats(min_value=0.0, allow_infinity=False),
)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRoundTrips:
    @settings(max_examples=40, **SETTINGS)
    @given(rows=st.lists(st.lists(finite, min_size=10, max_size=10), min_size=1, max_size=6))
    def test_csv_rows(self, tmp_path, rows):
        path = tmp_path / "table.csv"
        iofmt.write_closure_table(path, np.array(rows).T)
        cols = iofmt.read_diagnostics_csv(path)
        assert list(cols) == iofmt.CLOSURE_TABLE_HEADER.split(",")
        assert same_bits(np.column_stack(list(cols.values())), rows)

    @settings(max_examples=40, **SETTINGS)
    @given(
        times=st.lists(
            st.floats(min_value=5e-324, max_value=HUGE), min_size=1, max_size=6, unique=True
        ),
        data=st.data(),
    )
    def test_trace(self, tmp_path, times, data):
        t = np.array([0.0, *sorted(times)])
        cols = [data.draw(st.lists(nonnegative, min_size=len(t), max_size=len(t))) for _ in range(4)]
        trace = gronwall.GronwallTrace(t, *map(np.array, cols))
        path = tmp_path / "trace.csv"
        iofmt.write_trace_csv(path, trace)
        back = iofmt.read_trace_csv(path)
        for name in ("t", "f", "gprime", "alpha", "beta"):
            assert same_bits(getattr(back, name), getattr(trace, name))

    @settings(max_examples=30, **SETTINGS)
    @given(
        dim=st.integers(1, 3),
        vector=st.booleans(),
        length=st.one_of(st.sampled_from([1e-100, 1e100]), st.floats(1e-3, 1e3)),
        t=finite,
        name=st.sampled_from(["R", "Q", "m"]),
        data=st.data(),
    )
    def test_field(self, tmp_path, dim, vector, length, t, name, data):
        grid = PeriodicGrid(dim, 8, length)
        shape = (dim, *grid.shape) if vector and dim > 1 else grid.shape
        values = data.draw(arrays(np.float64, shape, elements=finite))
        path = tmp_path / "field.dat"
        iofmt.write_field(path, grid, values, t, name)
        back_grid, back, back_t, back_name = iofmt.read_field(path)
        assert back_grid == grid and back_name == name
        assert same_bits(back, values) and same_bits(back_t, t)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, np.nextafter(TINY, 0.0), np.inf, -np.inf, np.nan]
float_cells = st.sampled_from(SPECIAL) | st.floats()


def per_value(header, rows) -> str:
    """What the writers printed before bulk formatting: one fmt call per value."""
    return header + "\n" + "".join(",".join(iofmt.fmt(v) for v in row) + "\n" for row in rows)


class TestBulkWriter:
    """Formatting a chunk with one % writes the bytes of one fmt call per value."""

    @settings(max_examples=30, **SETTINGS)
    @given(
        n=st.integers(1, 8),
        dtypes=st.lists(st.sampled_from([np.float64, np.int64]), min_size=10, max_size=10),
        repeat=st.sampled_from([1, 600]),  # 600 rows span two chunks
        data=st.data(),
    )
    def test_rows(self, tmp_path, n, dtypes, repeat, data):
        elements = {np.float64: float_cells, np.int64: None}  # None: every int64
        drawn = [data.draw(arrays(dtype, n, elements=elements[dtype])) for dtype in dtypes]
        columns = [np.tile(column, repeat) for column in drawn]
        path = tmp_path / "table.csv"
        iofmt.write_closure_table(path, columns)
        rows = zip(*columns)
        assert path.read_bytes() == per_value(iofmt.CLOSURE_TABLE_HEADER, rows).encode()

    @settings(max_examples=30, **SETTINGS)
    @given(
        values=st.one_of(
            arrays(np.float64, st.integers(1, 64), elements=float_cells),
            arrays(np.int64, st.integers(1, 64)),
        ),
        repeat=st.sampled_from([1, 130]),  # 130 copies span two chunks
    )
    def test_field(self, tmp_path, values, repeat):
        values = np.tile(values, repeat)
        path = tmp_path / "field.dat"
        iofmt.write_field(path, PeriodicGrid(1, 8), values, 0.5, "R")
        expected = per_value("# 1 8 6.2831853071795862 0.5 R", [[v] for v in values])
        assert path.read_bytes() == expected.encode()


TRACE_TEXT = f"{iofmt.TRACE_HEADER}\n0,1,0.5,0.25,0\n0.5,1.5,0.5,0.25,0\n1,2,0.5,0.25,0\n"
DIAGNOSTICS_TEXT = (
    f"{iofmt.DIAGNOSTICS_HEADER}\n"
    "0,0.5,1,2,3,0.25,0.5,0.5,0.1,0\n"
    "0.5,0.5,1,2,2.9,0.25,0.5,0.5,0.1,0\n"
    "1,0,1,2,2.8,0.25,0.5,0.5,0.1,0\n"
)


def run_on(tmp_path, capsys, command, payload: bytes):
    """Exit code of gronwall-check or energy-audit on a file holding ``payload``."""
    capsys.readouterr()  # drop what earlier examples printed
    path = tmp_path / "input.csv"
    path.write_bytes(payload)
    if command == "gronwall-check":
        return cli.main(["gronwall-check", "--trace", str(path), "--out", str(tmp_path / "o")])
    return cli.main(["energy-audit", "--diagnostics", str(path), "--out", str(tmp_path / "o")])


inputs = st.sampled_from([("gronwall-check", TRACE_TEXT), ("energy-audit", DIAGNOSTICS_TEXT)])


@st.composite
def mangled(draw, text: str) -> bytes:
    """The text with random bytes cut out, overwritten or inserted."""
    data = bytearray(text.encode())
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 8)))
        data[i:j] = draw(st.binary(max_size=8))
    return bytes(data)


@st.composite
def invalid(draw, text: str) -> bytes:
    """The text with a defect no reader may accept."""
    lines = text.splitlines()
    row = draw(st.integers(1, len(lines) - 1))
    cells = lines[row].split(",")
    col = draw(st.integers(0, len(cells) - 1))
    kind = draw(st.sampled_from(["bad cell", "extra cell", "lost cell", "not utf-8"]))
    if kind == "bad cell":
        cells[col] = draw(st.sampled_from(["", "abc", "1e", "--1", "0x10", "1.2.3", "\x00"]))
    elif kind == "extra cell":
        cells.insert(col, "1")
    elif kind == "lost cell":
        del cells[col]
    lines[row] = ",".join(cells)
    data = ("\n".join(lines) + "\n").encode()
    if kind == "not utf-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"])) + data[at:]
    return data


class TestFuzzedInputs:
    @settings(max_examples=60, **SETTINGS)
    @given(case=inputs, data=st.data())
    def test_mangled_file_exits_cleanly(self, tmp_path, capsys, case, data):
        command, text = case
        code = run_on(tmp_path, capsys, command, data.draw(mangled(text)))
        assert code in (0, 1, 2)
        if code == 2:
            assert_one_line_config_error(capsys, "")

    @settings(max_examples=40, **SETTINGS)
    @given(case=inputs, data=st.data())
    def test_invalid_file_exits_2_with_one_line(self, tmp_path, capsys, case, data):
        command, text = case
        assert run_on(tmp_path, capsys, command, data.draw(invalid(text))) == 2
        assert_one_line_config_error(capsys, "")

    @settings(max_examples=20, **SETTINGS)
    @given(case=inputs, payload=st.binary(min_size=1, max_size=64))
    def test_binary_file_exits_2_with_one_line(self, tmp_path, capsys, case, payload):
        assert run_on(tmp_path, capsys, case[0], b"\xff" + payload) == 2
        assert_one_line_config_error(capsys, "")
