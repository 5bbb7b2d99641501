"""Tests of the benchmark itself: tiny workloads pass, corrupted outputs fail."""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from perfbench import reference, run, tracing, workloads
from perfbench.checks import CheckError

REPO = Path(__file__).resolve().parent.parent


def _round(name: str, root: Path, trace: bool = False):
    plan = workloads.plan(name, seed=7, root=root, full=False)
    tally = run.Tally()
    spans = root / "spans" if trace else None
    run.run_round(plan, run.child_env(REPO), root, tally, spans)
    return plan, tally


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One tiny round of every workload, with the stdout of each command."""
    done = {}
    for name in workloads.WORKLOADS:
        root = tmp_path_factory.mktemp(name)
        plan, tally = _round(name, root)
        stdouts = {c.label: (root / f"{c.label}.out").read_text() for c in plan.commands}
        done[name] = (plan, tally, root, stdouts)
    return done


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(outputs, name):
    plan, tally, _, _ = outputs[name]
    assert tally.problems == []
    assert (tally.attempted, tally.failed, tally.correct) == (len(plan.commands), 0, True)
    assert plan.work() > 0


def _edit_csv(path: Path, column: str, row: int, change) -> None:
    lines = path.read_text().splitlines()
    j = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[j] = f"{change(float(cells[j])):.17g}"
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = [
    ("closure-table-61", "closure-table", "table/closure_table.csv", "Z", 20, lambda z: z * (1 + 1e-9)),
    ("closure-table-61", "closure-table", "table/closure_table.csv", "dZdQ", 30, lambda d: d * (1 + 1e-5)),
    ("closure-table-61", "closure-table", "table/closure_table.csv", "p", 40, lambda p: p * (1 + 1e-12)),
    ("std1d-n512", "simulate", "simulate/diagnostics.csv", "mass_R", -1, lambda m: m * (1 + 1e-10)),
    ("std1d-n512", "simulate", "simulate/diagnostics.csv", "min_Q", 3, lambda m: -m),
    ("mix2d-n128", "simulate", "simulate/energy.csv", "internal", -1, lambda e: e * (1 + 1e-8)),
    ("mix2d-n128", "simulate", "simulate/energy.csv", "cumulative_dissipation", 5, lambda c: c * (1 + 1e-8)),
    ("twin-n256", "sweep", "sweep/sweep.csv", "ratio", 1, lambda r: 2 * r),
    ("twin-n256", "compare", "compare/compare.csv", "int_gradU", 4, lambda v: v * (1 + 1e-9)),
    ("twin-n256", "compare", "compare/trace.csv", "f", 4, lambda v: v * (1 + 1e-9)),
]


@pytest.mark.parametrize("name,label,rel,column,row,change", CORRUPTIONS)
def test_checks_reject_corrupted_output(outputs, tmp_path, name, label, rel, column, row, change):
    plan, _, root, stdouts = outputs[name]
    cmd = next(c for c in plan.commands if c.label == label)
    cmd.check(stdouts[label])  # the untouched output passes
    saved = tmp_path / "saved"
    shutil.copyfile(root / rel, saved)
    try:
        path = root / rel
        data_rows = len(path.read_text().splitlines()) - 1
        _edit_csv(path, column, row % data_rows, change)
        with pytest.raises(CheckError):
            cmd.check(stdouts[label])
    finally:
        shutil.copyfile(saved, root / rel)


def test_false_verdict_fails_the_run(outputs, tmp_path):
    """gronwall-check exits 1 on a trace whose f jumps; the run is then incorrect."""
    plan, _, root, _ = outputs["twin-n256"]
    trace = root / "compare" / "trace.csv"
    saved = tmp_path / "saved"
    shutil.copyfile(trace, saved)
    try:
        _edit_csv(trace, "f", 3, lambda f: 1e3 * (f + 1.0))
        only = workloads.Plan(plan.config_text, plan.overrides, [plan.commands[-1]], work=lambda: 1.0)
        tally = run.Tally()
        run.run_round(only, run.child_env(REPO), root, tally, None)
    finally:
        shutil.copyfile(saved, trace)
    assert only.commands[0].label == "gronwall-check"
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)
    assert tally.problems[0].startswith("gronwall-check: exited 1")


def test_traced_counts_repeat(tmp_path):
    tables = []
    for k in range(2):
        plan, tally = _round("twin-n256", tmp_path / str(k), trace=True)
        assert tally.failed == 0
        table = tracing.SpanTable()
        for i in range(len(plan.commands)):
            table.add(tmp_path / str(k) / f"spans{i}.npz")
        tables.append(tracing.layer_metrics(table))
    counts = {k: v for k, (v, unit) in tables[0].items() if unit in tracing.EXACT_UNITS}
    assert counts == {k: v for k, (v, unit) in tables[1].items() if unit in tracing.EXACT_UNITS}
    assert counts["dynamics.trajectories"] == 6 and counts["twin.weak_runs"] == 4
    assert counts["twin.reference_runs"] == 2 and counts["closure.field_calls"] > 0


def test_bisection_and_trapezoid_are_exact_where_closed_forms_exist():
    R = np.array([0.5, 1.0, 3.0, 0.0, 2.0, 0.0])
    Q = np.array([0.25, 2.0, 1e-3, 4.0, 0.0, 0.0])
    # equal exponents make the closure linear: (1 - R/Z) Z = Q gives Z = R + Q
    Z = reference.closure_root(R, Q, 2.0, 2.0)
    assert np.all(np.abs(Z - (R + Q)) <= 2 * np.finfo(float).eps * (R + Q))
    t = np.array([0.0, 0.5, 1.5, 2.0])
    assert np.allclose(reference.cumulative_trapezoid(t, 3 * t + 1), 1.5 * t**2 + t, rtol=0, atol=1e-15)


def test_internal_energy_matches_the_simplified_form_away_from_degenerate_points():
    R, Q = np.array([0.7, 1.3]), np.array([1.1, 0.4])
    Z = reference.closure_root(R, Q, 1.5, 3.0)
    a = R / Z
    simplified = Z**1.5 * (a / 0.5 + (1 - a) / 2.0)
    assert np.allclose(reference.internal_energy_density(R, Q, Z, 1.5, 3.0), simplified, rtol=1e-13)


def test_benchmark_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "std1d-n512", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_setup_probe_reports_setup_and_calibration_seconds(tmp_path):
    plan = workloads.plan("std1d-n512", seed=3, root=tmp_path / "round", full=False)
    setup_s, calibration_s = run.run_setup(plan, run.child_env(REPO), tmp_path)
    assert 0.0 < setup_s < 60.0 and 0.0 < calibration_s < 60.0
