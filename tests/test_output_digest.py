import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
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
    assert len(first) - 1 - len(status) == 23  # files written
