"""Time two source trees in alternating pairs, end to end or in-process.

    python3 tools/run_pairs.py BASE CHANGE --perfbench std1d-n512 --perfbench mix2d-n128
    python3 tools/run_pairs.py BASE CHANGE --set grid.n=512 --set time.t_end=0.125
    python3 tools/run_pairs.py BASE CHANGE --config mix2d.ini --pairs 12 --json pairs.json

BASE and CHANGE are source trees, each holding ``src/twofluid``. Every
measurement runs in a fresh Python process on one tree. Pair k runs BASE
first when k is even and CHANGE first when it is odd, so a drift of the
host's speed falls on both sides alike.

With ``--perfbench`` a measurement is one ``perfbench/run.py --workload W
--seed S --seconds T --trace 0`` run in the tree's root (S = ``--seed`` + k),
and each workload's pair runs back to back, one workload after another. This is the
benchmark's own end-to-end measurement, so its pairs are the ones a speed
claim rests on. Each workload's summary gives, per end-to-end metric of
BASE's ``BENCHMARK.json``, the median of each side, BASE's quartiles, the
relative change of the medians and the pairs CHANGE won in the metric's
better direction, with the failed and attempted operations of each side.

Without it a measurement times in-process ``dynamics.run(initial, params,
observers=(dynamics.Rows(params),))``, the call that ``simulate`` makes,
on a config (std1d if none is given, then the ``--set`` overrides, as the
command line does), ``--repeat`` times, keeping the fastest; set-up,
imports and process start-up fall outside the timed region. That is one
layer's time, which locates a gain but cannot stand for the end-to-end
metric. Nor can it rank a change that only moves when arrays are freed:
the child times from a cold allocator, so the C library's heap trimming
decides the sign. Freeing a state's evaluation before stage 2 of a 2D
step won 8 of 12 pairs at ``--repeat 1`` and 0 of 10 at ``--repeat 4``.
Only ``--perfbench`` pairs, or the peak of ``tracemalloc``, rank such a
change. A tree without ``dynamics.Rows`` has no such call (its
``simulate`` and its ``run``'s defaults did different work), so the child
refuses it; pair such a tree with ``--perfbench``.

It prints one line per measurement pair and a summary. ``--json`` also
writes every pair and the summary to a file. The script needs only the
standard library; the trees need numpy.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = """\
import json, sys, time
from twofluid import config, dynamics
if not hasattr(dynamics, "Rows"):
    sys.exit("this tree has no dynamics.Rows, so simulate's in-process run is unknown; use --perfbench")
text, overrides, repeat = json.loads(sys.argv[1])
cfg = config.parse_config(config.apply_overrides(text, overrides))
initial = config.build_initial_state(cfg)
best = None
for _ in range(repeat):
    t0 = time.perf_counter()
    traj = dynamics.run(initial, cfg.params, observers=(dynamics.Rows(cfg.params),))
    seconds = time.perf_counter() - t0
    best = seconds if best is None else min(best, seconds)
print(json.dumps({"seconds": best, "steps": len(traj.dts)}))
"""


def last_json_line(tree: Path, argv: list[str], **kwargs) -> dict:
    """Run ``argv`` on ``tree`` and parse the last line of its standard output."""
    done = subprocess.run(argv, capture_output=True, text=True, **kwargs)
    if done.returncode != 0:
        raise SystemExit(f"run on {tree} failed (exit {done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(tree: Path, text: str, overrides: list[str], repeat: int) -> dict:
    """The fastest of ``repeat`` timed in-process runs in one fresh process on ``tree``."""
    env = dict(os.environ)
    src = str(tree.resolve() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, "-c", CHILD, json.dumps([text, overrides, repeat])]
    return last_json_line(tree, argv, env=env)


def measure_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end ``perfbench/run.py`` result of ``workload`` on ``tree``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    return last_json_line(tree, argv + ["--seconds", str(seconds), "--trace", "0"], cwd=tree)


def sides(base: Path, change: Path, k: int) -> list[tuple[str, Path]]:
    """The (side, tree) order of pair k: BASE first when k is even."""
    order = [("base", base), ("change", change)]
    return order[::-1] if k % 2 else order


def run_pairs(base: Path, change: Path, text: str, overrides: list[str], pairs: int, repeat: int):
    """Measure and print ``pairs`` in-process pairs; return the pairs and the summary."""
    rows = [{"pair": k, "first": "change" if k % 2 else "base"} for k in range(pairs)]
    for k, row in enumerate(rows):
        for side, tree in sides(base, change, k):
            row[side] = measure(tree, text, overrides, repeat)
        if row["base"]["steps"] != row["change"]["steps"]:
            steps = (row["base"]["steps"], row["change"]["steps"])
            raise SystemExit(f"pair {k}: the trees take {steps[0]} and {steps[1]} steps")
        row["ratio"] = row["change"]["seconds"] / row["base"]["seconds"]
        print(
            f"pair {k} ({row['first']} first): base {row['base']['seconds']:.4f} s, "
            f"change {row['change']['seconds']:.4f} s, ratio {row['ratio']:.4f}"
        )
    summary = {
        "steps": rows[0]["base"]["steps"],
        "base_median_s": statistics.median(r["base"]["seconds"] for r in rows),
        "change_median_s": statistics.median(r["change"]["seconds"] for r in rows),
        "median_ratio": statistics.median(r["ratio"] for r in rows),
        "wins": sum(r["change"]["seconds"] < r["base"]["seconds"] for r in rows),
        "pairs": pairs,
    }
    print(
        f"{summary['steps']} steps; median base {summary['base_median_s']:.4f} s, "
        f"change {summary['change_median_s']:.4f} s; median ratio {summary['median_ratio']:.4f}; "
        f"change won {summary['wins']} of {pairs} pairs"
    )
    return rows, summary


def summarize_perfbench(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: operation counts and, per end-to-end metric, medians, quartiles and wins."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides = {
            side: {r["pair"]: r["result"] for r in runs if (r["workload"], r["side"]) == (workload, side)}
            for side in ("base", "change")
        }
        paired = sorted(set(sides["base"]) & set(sides["change"]))
        entry = {"pairs": len(paired)}
        for side, results in sides.items():
            entry[f"{side}_failed"] = sum(res["failed"] for res in results.values())
            entry[f"{side}_attempted"] = sum(res["attempted"] for res in results.values())
            entry[f"{side}_correct"] = all(res["correct"] for res in results.values())
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            a = [sides["base"][k]["metrics"][name]["value"] for k in paired]
            b = [sides["change"][k]["metrics"][name]["value"] for k in paired]
            q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else a * 3
            entry[name] = {
                "base_median": statistics.median(a),
                "change_median": statistics.median(b),
                "base_q1": q1,
                "base_q3": q3,
                "change_pct": 100.0 * (statistics.median(b) / statistics.median(a) - 1.0),
                "wins": sum((y < x) if lower else (y > x) for x, y in zip(a, b)),
            }
        summary[workload] = entry
    return summary


def perfbench_pairs(base: Path, change: Path, workloads: list[str], pairs: int, seed: int, seconds: float):
    """Run and print the end-to-end pairs; return every run and the summary."""
    metrics = json.loads((base / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    runs = []
    for k in range(pairs):
        for workload, (side, tree) in itertools.product(workloads, sides(base, change, k)):
            result = measure_perfbench(tree, workload, seed + k, seconds)
            runs.append({"pair": k, "side": side, "workload": workload, "seed": seed + k, "result": result})
            values = ", ".join(f"{m['name']} {result['metrics'][m['name']]['value']:.4g}" for m in metrics)
            print(f"pair {k} {side} {workload}: {values}; failed {result['failed']} of {result['attempted']}")
    summary = summarize_perfbench(runs, metrics)
    for workload, entry in summary.items():
        print(
            f"{workload}: {entry['pairs']} pairs; failed base {entry['base_failed']} of "
            f"{entry['base_attempted']}, change {entry['change_failed']} of {entry['change_attempted']}"
        )
        for m in metrics:
            e = entry[m["name"]]
            print(
                f"  {m['name']}: median base {e['base_median']:.4g} [q1 {e['base_q1']:.4g}, "
                f"q3 {e['base_q3']:.4g}], change {e['change_median']:.4g} ({e['change_pct']:+.1f} %); "
                f"change won {e['wins']} of {entry['pairs']} pairs"
            )
    return runs, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="source tree of the base side")
    parser.add_argument("change", type=Path, help="source tree of the change side")
    parser.add_argument("--perfbench", action="append", metavar="WORKLOAD", help="run perfbench end to end")
    parser.add_argument("--seed", type=int, default=1, help="perfbench seed of pair 0; pair k adds k")
    parser.add_argument("--seconds", type=float, default=25.0, help="length of one perfbench run")
    parser.add_argument("--config", type=Path, help="config file (defaults to std1d)")
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=3, help="timed runs per process")
    parser.add_argument("--json", type=Path, help="also write the pairs and summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.repeat < 1:
        parser.error("--pairs and --repeat must be at least 1")
    if args.perfbench:
        if args.config or args.set:
            parser.error("--config and --set apply to in-process runs only")
        runs, summary = perfbench_pairs(
            args.base, args.change, args.perfbench, args.pairs, args.seed, args.seconds
        )
        record = {"workloads": args.perfbench, "seed": args.seed, "seconds": args.seconds}
        record.update(runs=runs, summary=summary)
    else:
        text = args.config.read_text(encoding="utf-8") if args.config else ""
        rows, summary = run_pairs(args.base, args.change, text, args.set, args.pairs, args.repeat)
        record = {"config": text, "overrides": args.set, "repeat": args.repeat}
        record.update(pairs=rows, summary=summary)
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
