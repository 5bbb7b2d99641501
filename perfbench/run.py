"""Benchmark the twofluid command line end to end, or per layer with --trace 1.

    python3 perfbench/run.py --workload std1d-n512 --seed 1 --seconds 25 --trace 0

Run from the repository root. Each command of a workload runs in a fresh
single-threaded Python process through ``twofluid.cli.main``, one after
another (a closed loop with one client). A run repeats whole rounds of the
workload's commands for about ``--seconds`` and reports the median over
rounds; every command's outputs are checked after it exits, outside the
timed region. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` rounds alternate between untraced and traced, and the
metrics are the per-layer ones derived from the spans of the traced rounds,
plus the tracing overhead. ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import tracing, workloads  # noqa: E402
from perfbench.checks import CheckError  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
SCRATCH = ".perfbench"
SETUP_MIN = 9
# setup_s is reported in seconds of a machine on which one run of the
# calibration kernel (child.calibrate) takes this long: each set-up is timed
# in the same process as a calibration, so the ratio cancels the drift of a
# shared host's speed, which raw seconds follow.
REFERENCE_CALIBRATION_S = 0.3
# A command that runs this long is killed and counts as failed, so a run
# still ends within its time limit.
CHILD_TIMEOUT_S = 120.0
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Outcome:
    """One finished child process."""

    code: int
    seconds: float
    rss_mb: float | None
    stdout: str
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list[str] = field(default_factory=list)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in SINGLE_THREAD:
        env[var] = "1"
    return env


def run_child(args: list[str], env: dict[str, str], logs: Path) -> Outcome:
    """Run child.py with ``args`` and wait for it, at most CHILD_TIMEOUT_S.

    The peak RSS is the one the child wrote to ``logs`` with suffix .peak,
    or None if it wrote none.
    """
    out_path, err_path, peak = (logs.with_suffix(s) for s in (".out", ".err", ".peak"))
    peak.unlink(missing_ok=True)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        try:
            code = subprocess.run([sys.executable, str(CHILD), *args], stdout=out, stderr=err, env=env,
                                  timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = -signal.SIGKILL  # run() killed and reaped it
        seconds = time.perf_counter() - t0
    return Outcome(
        code=code,
        seconds=seconds,
        rss_mb=int(peak.read_text()) / 1024.0 if peak.exists() else None,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_setup(plan: workloads.Plan, env: dict[str, str], logs: Path) -> tuple[float, float]:
    """One fresh process: seconds to import, parse and build the initial state,
    then seconds of the fixed calibration kernel."""
    config_arg = str(logs / "round" / "config.ini") if plan.config_text else ""
    res = run_child(["setup", config_arg, *plan.overrides], env, logs / "setup")
    if res.code != 0:
        raise RuntimeError(f"set-up failed: {res.stderr.strip()[-500:]}")
    setup_s, calibration_s = res.stdout.split()
    return float(setup_s), float(calibration_s)


def run_round(plan: workloads.Plan, env: dict[str, str], logs: Path, tally: Tally, spans: Path | None):
    """Run every command of one round once; returns (wall, work/s, peak RSS, per-command s).

    A command fails, and the run is marked incorrect, when it exits non-zero,
    leaves no peak RSS or span file behind, or its outputs fail their check.
    With ``spans``, command i writes its spans to ``spans`` + f"{i}.npz".
    """
    wall = integrating = 0.0
    rss = 0.0
    per_command = {}
    for i, cmd in enumerate(plan.commands):
        log = logs / cmd.label
        mode = ["cli", str(log.with_suffix(".peak"))]
        if spans is not None:
            span_file = spans.with_name(f"{spans.name}{i}.npz")
            span_file.unlink(missing_ok=True)
            mode = ["trace", mode[1], str(span_file)]
        res = run_child(mode + cmd.argv, env, log)
        tally.attempted += 1
        wall += res.seconds
        per_command[cmd.label] = res.seconds
        if cmd.integrates:
            integrating += res.seconds
        if res.code != 0:
            problem = f"exited {res.code}: {res.stderr.strip()[-300:]}"
        elif res.rss_mb is None:
            problem = "wrote no peak RSS"
        elif spans is not None and not span_file.exists():
            problem = "wrote no spans"
        else:
            rss = max(rss, res.rss_mb)
            try:
                cmd.check(res.stdout)
                continue
            except (CheckError, OSError, ValueError, IndexError) as err:
                problem = f"{type(err).__name__}: {err}"
        tally.failed += 1
        tally.correct = False
        tally.problems.append(f"{cmd.label}: {problem}")
    work = plan.work() if tally.failed == 0 else 0.0
    return wall, work / integrating if integrating > 0 else 0.0, rss, per_command


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    env = child_env(root)
    work = root / SCRATCH / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    try:
        setups = []
        if not trace:
            run_setup(workloads.plan(name, seed, work / "round"), env, work)  # fills caches, untimed
        walls, rates, rsss, traced_walls, calibrations = [], [], [], [], []
        commands: dict[str, list[float]] = {}
        tables = []
        start = time.perf_counter()
        while True:
            plan = workloads.plan(name, seed, work / "round")
            if not trace:
                setup_s, calibration_s = run_setup(plan, env, work)
                setups.append(setup_s)
                calibrations.append(calibration_s)
            wall, rate, rss, per_command = run_round(plan, env, work / "round", tally, None)
            walls.append(wall)
            rates.append(rate)
            rsss.append(rss)
            for label, s in per_command.items():
                commands.setdefault(label, []).append(s)
            if trace:
                plan = workloads.plan(name, seed, work / "round")
                failed = tally.failed
                traced_wall, _, _, _ = run_round(plan, env, work / "round", tally, work / "spans")
                traced_walls.append(traced_wall)
                if tally.failed == failed:  # else this round left no complete set of spans
                    table = tracing.SpanTable()
                    for i in range(len(plan.commands)):
                        table.add(work / f"spans{i}.npz")
                    tables.append(tracing.layer_metrics(table))
            shutil.rmtree(work / "round", ignore_errors=True)
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(walls) >= seconds:
                break
        # One more set-up after the last round, so that every round has a
        # calibration on either side, and at least SETUP_MIN in all.
        while not trace and len(setups) < max(SETUP_MIN, len(walls) + 1):
            setup_s, calibration_s = run_setup(workloads.plan(name, seed, work / "round"), env, work)
            setups.append(setup_s)
            calibrations.append(calibration_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = len(walls)
    for label, values in commands.items():
        print(f"{name}: {label} median {statistics.median(values):.4f} s over {rounds} round(s)")
    if trace:
        metrics = {}
        for key, (_, unit) in (tables[0] if tables else {}).items():
            values = [t[key][0] for t in tables]
            metrics[key] = (values[0] if unit in tracing.EXACT_UNITS else statistics.median(values), unit)
            if unit in tracing.EXACT_UNITS and len(set(values)) > 1:
                tally.correct = False
                tally.problems.append(f"{key} differs between traced rounds: {values}")
        untraced, traced = statistics.median(walls), statistics.median(traced_walls)
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
        for label in ("compare", "sweep"):
            metrics[f"{label}_s"] = (statistics.median(commands.get(label, [0.0])), "s")
    else:
        # The reference unit of a round is the mean calibration time just
        # before and just after it.
        refs = [0.5 * (a + b) for a, b in zip(calibrations, calibrations[1:])]
        print(f"{name}: set-up median {statistics.median(setups):.4f} s, wall_s median {statistics.median(walls):.4f} s, "
              f"work_per_s median "
              f"{statistics.median(rates):.6g} 1/s, calibration median {statistics.median(calibrations):.4f} s")
        metrics = {
            "setup_s": (REFERENCE_CALIBRATION_S * statistics.median(s / c for s, c in zip(setups, calibrations)), "s"),
            "wall_ref": (statistics.median(w / r for w, r in zip(walls, refs)), "ref"),
            "work_per_ref": (statistics.median(w * r for w, r in zip(rates, refs)), "1/ref"),
            "peak_rss_mb": (statistics.median(rsss), "MB"),
        }
    for key, (value, unit) in metrics.items():
        print(f"{name}: {key} = {value:.6g} {unit}")
    for problem in tally.problems:
        print(f"{name}: FAILED {problem}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(workloads.WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "twofluid" / "cli.py").is_file():
        print(f"perfbench: no twofluid sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2

    results = {n: measure(n, args.seed, args.seconds, bool(args.trace), root) for n in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}:{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # Turn SIGTERM into an exception so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
