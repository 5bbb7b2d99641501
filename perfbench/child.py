"""Child process of the benchmark: one twofluid command, one set-up, or one traced command.

    python3 perfbench/child.py cli PEAK ARGS...          twofluid.cli.main(ARGS)
    python3 perfbench/child.py trace PEAK SPANS ARGS...  the same, traced; spans go to SPANS
    python3 perfbench/child.py setup CONFIG [OVERRIDE...]

``cli`` and ``trace`` write the process's peak resident set (kB) to PEAK.
It is read from VmHWM, the high-water mark of this program's own memory:
``ru_maxrss`` as its parent sees it also counts the parent's pages at the
moment of exec.

``setup`` prints the seconds taken to import twofluid, parse CONFIG (empty
for the defaults) with the overrides and build the initial state. Nothing
but the standard library is imported before its clock starts.
"""

import sys
import time


def setup(config_path: str, overrides: list[str]) -> float:
    t0 = time.perf_counter()
    import twofluid.cli  # noqa: F401  (every layer, as a command imports them)
    from twofluid import config

    text = ""
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    if overrides:
        text = config.apply_overrides(text, overrides)
    config.build_initial_state(config.parse_config(text))
    return time.perf_counter() - t0


CALIBRATION_LOOPS = 5000


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work and numpy calls on small arrays.

    The mix resembles a twofluid step, and none of it is twofluid code, so
    its time follows the speed of the machine and not that of the program.
    """
    import numpy as np

    small = np.linspace(0.5, 1.5, 512)
    large = np.linspace(0.5, 1.5, 16384)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        x = large if i % 8 == 0 else small
        y = np.roll(x, 1) - np.roll(x, -1)
        acc += float(np.sum(np.power(np.abs(y) + x, 1.5)))
        acc += sum(k * 0.5 for k in range(32))
    return time.perf_counter() - t0


def write_peak_rss(path: str) -> None:
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{kb}\n")


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        print(repr(setup(rest[0], rest[1:])), repr(calibrate()))
        return 0
    if mode == "cli":
        import twofluid.cli

        code = twofluid.cli.main(rest[1:])
        write_peak_rss(rest[0])
        return code
    if mode == "trace":
        import os

        sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        import twofluid.cli
        from perfbench import tracing

        recorder = tracing.install()
        code = twofluid.cli.main(rest[2:])
        write_peak_rss(rest[0])
        recorder.dump(rest[1])
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
