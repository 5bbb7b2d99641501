import difflib
import importlib.util
import itertools
import json
import platform
import shutil
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
# The --n 16 digest of every command, after a first line naming the versions
# that made it. A change that moves output bytes on purpose regenerates it:
#   (echo "# python X.Y.Z, numpy A.B.C"; PYTHONPATH=src python3 tools/output_digest.py --n 16) \
#       > tests/data/output_digest_n16.txt
GOLDEN = Path(__file__).resolve().parent / "data" / "output_digest_n16.txt"
# Every option of the package, one a line, then the subtotals. A change that
# adds or removes an option on purpose regenerates it:
#   PYTHONPATH=src python3 tools/option_count.py > tests/data/option_count.txt
OPTIONS = GOLDEN.with_name("option_count.txt")


def load_tool(name="output_digest"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_repeats_bit_for_bit():
    tool = load_tool()
    fresh = tool.digest(16)
    made_with, *golden = GOLDEN.read_text().splitlines()
    differing = [
        f"line {i}: {GOLDEN.name} has {want!r}, this tree gives {got!r}"
        for i, (want, got) in enumerate(itertools.zip_longest(golden, fresh), start=2)
        if want != got
    ]
    running = f"python {platform.python_version()}, numpy {np.__version__}"
    assert not differing, "\n".join(
        [f"golden digest made with {made_with.lstrip('# ')}; this run: {running}", *differing]
    )
    status = [line for line in fresh[1:] if ": exit " in line]
    assert [line.split(":")[0] for line in status] == [label for label, _ in tool.commands(16)]
    assert all(": exit 0 " in line for line in status)
    assert len(fresh) - 1 - len(status) == 47  # files written


def max_ulps(lines):
    return max(float(line.split("max_ulp=")[1].split()[0]) for line in lines)


def test_ulp_drift_reads_kept_digests(tmp_path):
    digest, drift = load_tool(), load_tool("ulp_drift")
    a, b, nudged = tmp_path / "a", tmp_path / "b", tmp_path / "nudged"
    assert digest.digest(16, keep=a)[1:] == digest.digest(16, keep=b)[1:]
    lines, ok = drift.compare(a, b)
    assert ok and len(lines) > 50 and max_ulps(lines) == 0

    shutil.copytree(a, nudged)
    path = nudged / "simulate-std1d" / "diagnostics.csv"
    text = path.read_text().splitlines()
    cells = text[2].split(",")
    cells[4] = repr(float(np.nextafter(float(cells[4]), np.inf)))
    text[2] = ",".join(cells)
    path.write_text("\n".join(text) + "\n")
    lines, ok = drift.compare(a, nudged)
    assert ok and max_ulps(lines) == 1
    assert [line for line in lines if "max_ulp=1 " in line] == [
        line for line in lines if line.startswith("simulate-std1d/diagnostics.csv energy:")
    ]
    assert drift.main([str(a), str(tmp_path / "missing")]) == 1


def test_option_count_lists_every_kind(capsys):
    tool = load_tool("option_count")
    assert tool.main([]) == 0
    *entries, api, cfg, flags, total = capsys.readouterr().out.splitlines()
    counted = tool.options()
    assert entries == [f"{kind} {name}" for kind, names in counted.items() for name in names]
    assert [api, cfg, flags] == [f"{kind}: {len(names)}" for kind, names in counted.items()]
    assert total == f"total: {len(entries)}"
    assert "dynamics.run(observers)" in counted["api"]
    assert "time.t_end" in counted["config"] and "initial_u.mode_x" in counted["config"]
    assert "closure-table --r-count" in counted["cli"] and "simulate --help" not in counted["cli"]


def test_option_list_matches_the_pinned_list(capsys):
    assert load_tool("option_count").main([]) == 0
    fresh = capsys.readouterr().out.splitlines()
    pinned = OPTIONS.read_text().splitlines()
    # an added or removed option names itself, not every line after it
    differing = [
        f"only in {'this tree' if line[0] == '+' else OPTIONS.name}: {line[2:]!r}"
        for line in difflib.ndiff(pinned, fresh)
        if line[0] in "+-"
    ]
    assert not differing, "\n".join(differing)


def test_run_pairs_times_a_tree_against_itself(tmp_path, capsys):
    tool = load_tool("run_pairs")
    root, path = str(TOOLS.parent), tmp_path / "pairs.json"
    argv = [root, root, "--set", "grid.n=16", "--set", "time.t_end=0.05"]
    assert tool.main(argv + ["--pairs", "2", "--repeat", "1", "--json", str(path)]) == 0
    record = json.loads(path.read_text())
    rows, wins = record["pairs"], record["summary"]["wins"]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[-1].endswith(f"change won {wins} of 2 pairs")
    assert [row["first"] for row in rows] == ["base", "change"]
    assert all(row["base"]["steps"] == row["change"]["steps"] > 0 for row in rows)
    assert all(row["ratio"] == row["change"]["seconds"] / row["base"]["seconds"] for row in rows)


# A tree from before the observers API: no dynamics.Rows, and a run that
# takes no observers.
STUB_TREE = {
    "__init__.py": "",
    "config.py": "",
    "dynamics.py": "def run(initial, params):\n    raise AssertionError('never timed')\n",
}


def test_run_pairs_refuses_a_tree_without_rows(tmp_path):
    tool = load_tool("run_pairs")
    package = tmp_path / "src" / "twofluid"
    package.mkdir(parents=True)
    for name, text in STUB_TREE.items():
        (package / name).write_text(text)
    with pytest.raises(SystemExit) as refused:
        tool.main([str(tmp_path), str(tmp_path), "--pairs", "2"])
    message = str(refused.value).splitlines()
    assert message[0] == f"run on {tmp_path} failed (exit 1):"
    assert message[1:] == [
        "this tree has no dynamics.Rows, so simulate's in-process run is unknown; use --perfbench"
    ]


STUB_PERFBENCH = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open("order.txt", "a") as log:
    log.write(args["--workload"] + " " + args["--seed"] + "\\n")
wall = {WALL} + int(args["--seed"])
metrics = {{"wall_ref": {{"value": wall}}, "work_per_ref": {{"value": 1.0 / wall}}}}
print("log line")
print(json.dumps({{"correct": True, "attempted": 4, "failed": {FAILED}, "metrics": metrics}}))
"""


def test_run_pairs_alternates_perfbench_runs_of_two_trees(tmp_path, capsys):
    tool = load_tool("run_pairs")
    metrics = [{"name": "wall_ref", "better": "lower"}, {"name": "work_per_ref", "better": "higher"}]
    trees = {}
    for side, wall, failed in (("base", 10, 0), ("change", 5, 1)):
        tree = trees[side] = tmp_path / side
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text(STUB_PERFBENCH.format(WALL=wall, FAILED=failed))
        (tree / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    path = tmp_path / "pairs.json"
    argv = [str(trees["base"]), str(trees["change"]), "--perfbench", "w1", "--perfbench", "w2"]
    assert tool.main(argv + ["--pairs", "3", "--seed", "100", "--json", str(path)]) == 0
    runs = json.loads(path.read_text())["runs"]
    sides = [(r["pair"], r["side"]) for r in runs if r["workload"] == "w1"]
    assert sides == [(0, "base"), (0, "change"), (1, "change"), (1, "base"), (2, "base"), (2, "change")]
    assert (trees["base"] / "order.txt").read_text().split() == "w1 100 w2 100 w1 101 w2 101 w1 102 w2 102".split()
    summary = json.loads(path.read_text())["summary"]
    assert list(summary) == ["w1", "w2"]
    entry = summary["w2"]
    assert (entry["pairs"], entry["base_failed"], entry["change_failed"], entry["change_attempted"]) == (3, 0, 3, 12)
    assert entry["wall_ref"]["base_median"] == 111 and entry["wall_ref"]["change_median"] == 106
    assert entry["wall_ref"]["wins"] == entry["work_per_ref"]["wins"] == 3
    assert capsys.readouterr().out.count("change won 3 of 3 pairs") == 4
