import importlib.util
import shutil
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name="output_digest"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_repeats_bit_for_bit():
    tool = load_tool()
    first = tool.digest(16)
    assert first == tool.digest(16)
    status = [line for line in first[1:] if ": exit " in line]
    assert [line.split(":")[0] for line in status] == [label for label, _ in tool.commands(16)]
    assert all(": exit 0 " in line for line in status)
    assert len(first) - 1 - len(status) == 31  # files written


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
