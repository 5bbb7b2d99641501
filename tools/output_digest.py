"""Print a digest of what a fixed set of twofluid commands write.

    PYTHONPATH=src python3 tools/output_digest.py --n 128 > digest.txt
    PYTHONPATH=src python3 tools/output_digest.py --n 128 --keep out-128

Each command runs through ``twofluid.cli.main`` in one fresh temporary
directory, or in the new or empty directory ``--keep`` names, which then
keeps the outputs, with relative output paths, so the digest does not
depend on where it ran. For each command it prints the exit code and the sha256 of
what it printed on stdout and stderr, then ``sha256  path`` for every file
the command created or changed. Two source trees with equal digests give
the same exit codes, the same printed lines and the same file bytes. The
script needs only the standard library and the ``twofluid`` package.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from twofluid import cli

# One mode per field, each along a different axis, so the 2D run is not uniform.
MODES_2D = [
    "initial_R.mode=0.2 1 0 0",
    "initial_Q.mode=0.2 0 1 1.5707963267948966",
    "initial_u.mode_x=0.1 0 1 0",
    "initial_u.mode_y=0.1 1 0 0",
]

# The 3D run covers the third stencil axis; it keeps this grid size whatever
# --n is, since n**3 points grow too fast.
N_3D = 12
# The 2D and 3D twins keep these sizes whatever --n is. They reduce their
# samples over 2 and 3 grid axes, several samples to a block.
N_COMPARE_2D = 16
N_COMPARE_3D = 8
# The 2D sweep's grid: 48**2 points pass twin.BLOCK_POINTS, so each weak
# member is reduced one sample to a block, over several blocks.
N_SWEEP_2D = 48
MODES_3D = [
    "initial_R.mode=0.2 1 0 1 0",
    "initial_Q.mode=0.2 0 1 0 1.5707963267948966",
    "initial_u.mode_x=0.1 0 1 0 0",
    "initial_u.mode_y=0.1 0 0 1 0",
    "initial_u.mode_z=0.1 1 0 0 0",
]


def commands(n: int) -> list[tuple[str, list[str]]]:
    """(label, argv) of every command, in the order they run."""
    grid = ["--set", f"grid.n={n}"]
    fields = ["--set", "output.fields=true"]
    mix2d = ["--set", "grid.dim=2", "--set", "time.t_end=0.05"]
    for mode in MODES_2D:
        mix2d += ["--set", mode]
    dim3 = ["--set", "grid.dim=3"]
    for mode in MODES_3D:
        dim3 += ["--set", mode]
    mix3d = ["--set", f"grid.n={N_3D}", "--set", "time.t_end=0.5", *dim3]
    twin2d = ["--set", f"grid.n={N_COMPARE_2D}", *mix2d]
    twin3d = ["--set", f"grid.n={N_COMPARE_3D}", "--set", "time.t_end=0.05", *dim3]
    return [
        ("simulate-std1d", ["simulate", "--out", "simulate-std1d", *grid, *fields]),
        # gamma = 1.5/2 has no closed-form start, so this run keeps the
        # warm-started Newton path under the digest
        (
            "simulate-gamma34",
            ["simulate", "--out", "simulate-gamma34", *grid, "--set", "physics.gamma_minus=2", *fields],
        ),
        ("simulate-2d", ["simulate", "--out", "simulate-2d", *grid, *mix2d, *fields]),
        ("simulate-3d", ["simulate", "--out", "simulate-3d", *mix3d, *fields]),
        ("compare-1e-3", ["compare", "--out", "compare-1e-3", *grid, "--set", "perturbation.delta=1e-3"]),
        ("compare-0", ["compare", "--out", "compare-0", *grid, "--set", "perturbation.delta=0"]),
        ("compare-2d", ["compare", "--out", "compare-2d", *twin2d]),
        ("compare-3d", ["compare", "--out", "compare-3d", *twin3d]),
        ("sweep", ["sweep", "--out", "sweep", *grid, "--deltas", "0,1e-2,1e-3,1e-4"]),
        (
            "sweep-2d",
            ["sweep", "--out", "sweep-2d", "--set", f"grid.n={N_SWEEP_2D}", *mix2d, "--deltas", "1e-2,1e-3"],
        ),
        ("closure-table", ["closure-table", "--out", "closure-table"]),
        # gamma = 3/4 at small densities, where the general-ratio solve is
        # accurate only with a relative stop
        (
            "closure-table-gamma34",
            [
                "closure-table", "--out", "closure-table-gamma34", "--set", "physics.gamma_minus=2",
                "--r-max", "1e-15", "--q-max", "1e-15",
            ],
        ),
        # gamma = 3/2: a general ratio above 1, whose cold start
        # max(1/2, (1/2)**(1/gamma)) * Q**(1/gamma) differs from gamma < 1's
        (
            "closure-table-gamma32",
            [
                "closure-table", "--out", "closure-table-gamma32",
                "--set", "physics.gamma_plus=3", "--set", "physics.gamma_minus=2",
            ],
        ),
        (
            "gronwall-check",
            ["gronwall-check", "--trace", "compare-1e-3/trace.csv", "--out", "gronwall-check"],
        ),
        (
            "energy-audit",
            ["energy-audit", "--diagnostics", "simulate-std1d/diagnostics.csv", "--out", "energy-audit"],
        ),
    ]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files() -> dict[str, str]:
    """sha256 of every file under the working directory, by relative path."""
    return {
        path.as_posix(): _sha(path.read_bytes())
        for path in sorted(Path(".").rglob("*"))
        if path.is_file()
    }


def digest(n: int, keep: Path | None = None) -> list[str]:
    """The digest lines of every command at grid size ``n``.

    The commands write into ``keep`` when given (created if missing, and it
    must be empty), else into a temporary directory deleted afterwards.
    """
    lines = [f"twofluid output digest, n={n}"]
    home = os.getcwd()
    if keep is not None:
        keep.mkdir(parents=True, exist_ok=True)
        if any(keep.iterdir()):
            raise FileExistsError(f"--keep directory {keep} is not empty")
    with contextlib.nullcontext(keep) if keep else tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for label, argv in commands(n):
                before = _files()
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                lines.append(
                    f"{label}: exit {code} stdout {_sha(out.getvalue().encode())} "
                    f"stderr {_sha(err.getvalue().encode())}"
                )
                lines += [
                    f"{sha}  {path}"
                    for path, sha in _files().items()
                    if before.get(path) != sha
                ]
        finally:
            os.chdir(home)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=128, help="grid points per axis")
    parser.add_argument("--keep", type=Path, help="new or empty directory that keeps the outputs")
    args = parser.parse_args(argv)
    print("\n".join(digest(args.n, args.keep)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
