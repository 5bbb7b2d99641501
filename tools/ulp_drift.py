"""Print how far the numbers two output directories hold drift apart.

    python3 tools/ulp_drift.py A B

For every CSV that A and B both hold, by relative path, it prints one line
per column with the largest distance in ulp (the count of doubles between
two values) and the largest relative difference |a - b| / max(|a|, |b|).
For every field dump (``*.dat``) it prints one such line for the whole
dump. Equal values, NaN against NaN and 0.0 against -0.0 included, drift 0;
NaN against a number drifts ``inf``. A file that only one side holds, or
one whose header or shape differs, gets a line saying so and makes the exit
status 1; otherwise it is 0. The script needs only the
standard library and numpy, so it can compare the outputs of any two
source trees, e.g. the directories ``tools/output_digest.py --keep`` leaves.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header names and the float cells of a CSV, one row per line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    return names, np.asarray(rows, dtype=float).reshape(len(rows), len(names))


def read_dump(path: Path) -> np.ndarray:
    """The values of a field dump, after its '# dim n L t name' header."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return np.asarray([float(line) for line in lines[1:] if line])


def ordered(x: np.ndarray) -> np.ndarray:
    """Integers that count the doubles from 0.0 to each value, signed; -0.0 maps to 0."""
    bits = x.view(np.int64)
    return np.where(bits < 0, np.iinfo(np.int64).min - bits, bits)


def ulp_drift(a: np.ndarray, b: np.ndarray) -> int | float:
    """Largest number of doubles between matching cells; inf for NaN against a number."""
    a, b = (np.asarray(x, dtype=np.float64) for x in (a, b))
    nan = np.isnan(a)
    if np.any(nan != np.isnan(b)):
        return float("inf")
    if nan.all():
        return 0
    oa, ob = ordered(a[~nan]), ordered(b[~nan])
    # the difference of two ordered values fits in uint64 but may not in int64
    hi, lo = np.maximum(oa, ob).view(np.uint64), np.minimum(oa, ob).view(np.uint64)
    return int(np.max(hi - lo))


def rel_drift(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| / max(|a|, |b|) over matching cells; equal cells give 0."""
    a, b = (np.asarray(x, dtype=np.float64) for x in (a, b))
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if same.all():
        return 0.0
    a, b = a[~same], b[~same]
    with np.errstate(invalid="ignore", over="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.where(np.isnan(rel), np.inf, rel)))


def compare(root_a: Path, root_b: Path) -> tuple[list[str], bool]:
    """Report lines for every CSV and dump under either root; True if all compared."""
    paths = sorted(
        {p.relative_to(root).as_posix() for root in (root_a, root_b) for p in root.rglob("*")
         if p.is_file() and p.suffix in (".csv", ".dat")}
    )
    lines, ok = [], True
    for rel in paths:
        pa, pb = root_a / rel, root_b / rel
        if not (pa.is_file() and pb.is_file()):
            lines.append(f"{rel}: only in {root_a if pa.is_file() else root_b}")
            ok = False
            continue
        if pa.suffix == ".dat":
            columns = [("values", read_dump(pa), read_dump(pb))]
        else:
            (names_a, a), (names_b, b) = read_csv(pa), read_csv(pb)
            if names_a != names_b:
                lines.append(f"{rel}: headers differ")
                ok = False
                continue
            columns = [(name, a[:, j], b[:, j]) for j, name in enumerate(names_a)]
        for name, a, b in columns:
            if a.shape != b.shape:
                lines.append(f"{rel} {name}: shapes differ, {a.shape} vs {b.shape}")
                ok = False
            else:
                lines.append(f"{rel} {name}: max_ulp={ulp_drift(a, b)} max_rel={rel_drift(a, b):.3g}")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first output directory")
    parser.add_argument("b", type=Path, help="second output directory")
    args = parser.parse_args(argv)
    lines, ok = compare(args.a, args.b)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
