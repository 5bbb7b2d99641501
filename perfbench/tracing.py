"""Outside-in tracing of the twofluid layers, and the metrics derived from it.

``install`` replaces the public functions of each layer module with wrappers
that record one span per call: name, start, end, the enclosing span, and up
to four work counters. Modules call each other, and themselves, through
module attributes, so replacing the attributes sees every call. Spans stay
in memory and ``Recorder.dump`` writes them out once the command has ended.
``layer_metrics`` turns the spans of one or more commands into per-layer
counts and self times (span duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

LAYERS = ("closure", "grids", "dynamics", "energy", "twin", "gronwall", "iofmt", "config", "cli")

# iofmt.fmt formats a single value and runs once per number written; a span
# per value would mostly time the tracer, so the writers' spans cover it.
UNWRAPPED = {"iofmt.fmt"}

STENCILS = ("gradient", "divergence", "laplacian", "vector_gradient", "grad_div", "wide_laplacian")
REDUCTIONS = ("integrate", "pointwise_magnitude", "lp_norm", "weighted_l2")
TWIN_CHECKS = (
    "check_density_stability",
    "check_mean_velocity",
    "check_transport_rates",
    "fit_gronwall_constant",
    "build_gronwall_trace",
)
CONFIG_PARSE = ("apply_overrides", "parse_config", "serialize_config", "default_config", "load_config")
CONFIG_INITIAL = ("build_initial_state", "evaluate_field_spec")
FLOAT_BYTES = 8
# Units of metrics that must repeat exactly from run to run.
EXACT_UNITS = ("count", "bytes")


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()), None)


def _closure_counts(args, kwargs, result):
    # points, 1 when called on a single value (the scalar API)
    first = _first(args, kwargs)
    return np.size(first), int(np.ndim(first) == 0)


def _divergence_counts(args, kwargs, result):
    # centred differences taken, and bytes read plus written (computed)
    v = np.asarray(args[1])
    return v.size, FLOAT_BYTES * (v.size + np.size(result))


def _gradient_counts(args, kwargs, result):
    grid, f = args[0], np.asarray(args[1])
    return f.size * grid.dim, FLOAT_BYTES * (f.size + np.size(result))


def _run_counts(args, kwargs, result):
    # steps, snapshots, snapshot bytes (computed), 1 when replaying a schedule
    snap_bytes = sum(s.R.nbytes + s.Q.nbytes + s.m.nbytes for s in result.snapshots)
    return len(result.dts), len(result.snapshots), snap_bytes, int(kwargs.get("dt_schedule") is not None)


def _samples_of_result(args, kwargs, result):
    return (len(result.t),)


def _samples_of_trace(args, kwargs, result):
    return (len(args[0].t),)


def _written(args, kwargs, result):
    # rows (lines after the header) and bytes of the file just written
    path = args[0]
    with open(path, "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return lines - 1, os.path.getsize(path)


def _counter_for(layer: str, name: str):
    if layer == "closure":
        return _closure_counts
    if layer == "grids" and name == "divergence":
        return _divergence_counts
    if layer == "grids" and name in ("gradient", "laplacian"):
        return _gradient_counts
    if layer == "dynamics" and name == "run":
        return _run_counts
    if layer == "twin" and name in ("compare", "reference_series"):
        return _samples_of_result
    if layer == "gronwall" and name in ("check_hypothesis", "check_conclusion"):
        return _samples_of_trace
    if layer == "iofmt" and name.startswith("write_"):
        return _written
    return None


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]

    def wrap(self, qualname: str, fn, counter):
        nid = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, parent, t0, t1)
            if counter is not None:
                spans[idx] = (nid, parent, t0, t1, *counter(args, kwargs, result))
            return result

        return traced

    def dump(self, path) -> None:
        n = len(self.spans)
        counts = np.zeros((n, 4), dtype=np.int64)
        for i, s in enumerate(self.spans):
            if len(s) > 4:
                counts[i, : len(s) - 4] = s[4:]
        np.savez(
            path,
            names=np.asarray(self.names),
            nid=np.fromiter((s[0] for s in self.spans), dtype=np.int64, count=n),
            parent=np.fromiter((s[1] for s in self.spans), dtype=np.int64, count=n),
            start=np.fromiter((s[2] for s in self.spans), dtype=float, count=n),
            end=np.fromiter((s[3] for s in self.spans), dtype=float, count=n),
            counts=counts,
        )


def install() -> Recorder:
    """Wrap the public functions of every layer module in this process."""
    rec = Recorder()
    modules = [importlib.import_module(f"twofluid.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, mod in zip(LAYERS, modules):
        for name, obj in list(vars(mod).items()):
            qual = f"{layer}.{name}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
                and qual not in UNWRAPPED
            ):
                wrappers[obj] = rec.wrap(qual, obj, _counter_for(layer, name))
    # A function imported by name into another module (twin imports
    # gronwall.cumulative_trapezoid) is rebound there as well.
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
    return rec


class SpanTable:
    """Per-name totals over the spans of one or more commands."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.counts: dict[str, np.ndarray] = {}
        self.scalar_calls = 0
        self.scalar_s = 0.0
        self.reference_runs = 0
        self.spans = 0

    def add(self, path) -> None:
        with np.load(path) as data:
            names = [str(n) for n in data["names"]]
            nid, parent = data["nid"], data["parent"]
            dur = data["end"] - data["start"]
            counts = data["counts"]
        n = len(nid)
        self.spans += n
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - child
        for i, name in enumerate(names):
            sel = nid == i
            if not sel.any():
                continue
            self.calls[name] = self.calls.get(name, 0) + int(sel.sum())
            self.self_s[name] = self.self_s.get(name, 0.0) + float(own[sel].sum())
            self.incl_s[name] = self.incl_s.get(name, 0.0) + float(dur[sel].sum())
            self.counts[name] = self.counts.get(name, np.zeros(4, dtype=np.int64)) + counts[sel].sum(axis=0)
            if name.startswith("closure."):
                scalar = sel & (counts[:, 1] == 1)
                self.scalar_calls += int(scalar.sum())
                self.scalar_s += float(own[scalar].sum())
        if "dynamics.run" in names:
            runs = (nid == names.index("dynamics.run")) & (counts[:, 3] == 0) & nested
            twin_ids = [i for i, nm in enumerate(names) if nm.startswith("twin.")]
            self.reference_runs += int(np.isin(nid[parent[runs]], twin_ids).sum())

    def total(self, table: dict, layer: str, names=None) -> float:
        if names is None:
            return sum(v for k, v in table.items() if k.startswith(layer + "."))
        return sum(table.get(f"{layer}.{n}", 0) for n in names)

    def count(self, qual: str, column: int) -> int:
        return int(self.counts.get(qual, np.zeros(4, dtype=np.int64))[column])


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(table: SpanTable) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit)."""
    t = table
    steps = t.count("dynamics.run", 0)
    field_points = t.count("closure.solve_Z_field", 0)
    field_s = t.self_s.get("closure.solve_Z_field", 0.0)
    stencil_s = t.total(t.self_s, "grids", STENCILS)
    stencil_points = sum(t.count(f"grids.{n}", 0) for n in ("gradient", "divergence", "laplacian"))
    stencil_bytes = sum(t.count(f"grids.{n}", 1) for n in ("gradient", "divergence", "laplacian"))
    run_incl = t.incl_s.get("dynamics.run", 0.0)
    cmp_incl = t.incl_s.get("twin.compare", 0.0)
    ref_incl = t.incl_s.get("twin.reference_series", 0.0)
    solve_z = t.calls.get("closure.solve_Z", 0)
    m = {
        "closure.field_calls": (t.calls.get("closure.solve_Z_field", 0), "count"),
        "closure.field_points": (field_points, "count"),
        "closure.field_s": (field_s, "s"),
        "closure.field_ns_per_point": (_ratio(field_s, field_points, 1e9), "ns"),
        "closure.solves_per_step": (_ratio(t.calls.get("closure.solve_Z_field", 0), steps), "1/step"),
        "closure.scalar_calls": (t.scalar_calls, "count"),
        "closure.scalar_s": (t.scalar_s, "s"),
        "closure.scalar_us_per_row": (_ratio(t.scalar_s, solve_z, 1e6), "us"),
        "grids.stencil_calls": (t.total(t.calls, "grids", STENCILS), "count"),
        "grids.stencil_s": (stencil_s, "s"),
        "grids.stencil_ns_per_point": (_ratio(stencil_s, stencil_points, 1e9), "ns"),
        "grids.stencil_mb_computed": (stencil_bytes / 1e6, "MB"),
        "grids.reduce_calls": (t.total(t.calls, "grids", REDUCTIONS), "count"),
        "grids.reduce_s": (t.total(t.self_s, "grids", REDUCTIONS), "s"),
        "dynamics.steps": (steps, "count"),
        "dynamics.trajectories": (t.calls.get("dynamics.run", 0), "count"),
        "dynamics.rhs_calls": (t.calls.get("dynamics.rhs", 0), "count"),
        "dynamics.rhs_per_step": (_ratio(t.calls.get("dynamics.rhs", 0), steps), "1/step"),
        "dynamics.rhs_s": (t.self_s.get("dynamics.rhs", 0.0), "s"),
        "dynamics.stable_dt_s": (t.self_s.get("dynamics.stable_dt", 0.0), "s"),
        "dynamics.step_s": (t.self_s.get("dynamics.step", 0.0), "s"),
        "dynamics.run_s": (t.self_s.get("dynamics.run", 0.0), "s"),
        "dynamics.us_per_step": (_ratio(run_incl, steps, 1e6), "us"),
        "dynamics.snapshots": (t.count("dynamics.run", 1), "count"),
        "dynamics.snapshot_mb_computed": (t.count("dynamics.run", 2) / 1e6, "MB"),
        "energy.total_energy_calls": (t.calls.get("energy.total_energy", 0), "count"),
        "energy.total_energy_s": (t.self_s.get("energy.total_energy", 0.0), "s"),
        "energy.dissipation_s": (t.self_s.get("energy.dissipation", 0.0), "s"),
        "energy.audit_s": (t.total(t.self_s, "energy", ("audit_energy", "audit_series")), "s"),
        "twin.reference_runs": (t.reference_runs, "count"),
        "twin.weak_runs": (t.count("dynamics.run", 3), "count"),
        "twin.compare_s": (t.self_s.get("twin.compare", 0.0), "s"),
        "twin.compare_incl_s": (cmp_incl, "s"),
        "twin.compare_us_per_sample": (_ratio(cmp_incl, t.count("twin.compare", 0), 1e6), "us"),
        "twin.reference_series_s": (t.self_s.get("twin.reference_series", 0.0), "s"),
        "twin.reference_series_incl_s": (ref_incl, "s"),
        "twin.reference_us_per_sample": (_ratio(ref_incl, t.count("twin.reference_series", 0), 1e6), "us"),
        "twin.checks_s": (t.total(t.self_s, "twin", TWIN_CHECKS), "s"),
        "gronwall.samples": (t.count("gronwall.check_hypothesis", 0) + t.count("gronwall.check_conclusion", 0), "count"),
        "gronwall.check_s": (t.total(t.self_s, "gronwall"), "s"),
        "iofmt.write_s": (sum(v for k, v in t.self_s.items() if k.startswith("iofmt.write_")), "s"),
        "iofmt.rows_written": (sum(int(c[0]) for k, c in t.counts.items() if k.startswith("iofmt.write_")), "count"),
        "iofmt.bytes_written": (sum(int(c[1]) for k, c in t.counts.items() if k.startswith("iofmt.write_")), "bytes"),
        "iofmt.read_s": (sum(v for k, v in t.self_s.items() if k.startswith("iofmt.read_")), "s"),
        "config.parse_s": (t.total(t.self_s, "config", CONFIG_PARSE), "s"),
        "config.initial_state_s": (t.total(t.self_s, "config", CONFIG_INITIAL), "s"),
        "cli.self_s": (t.total(t.self_s, "cli"), "s"),
        "trace.spans": (t.spans, "count"),
    }
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = (t.total(t.self_s, layer), "s")
    return {k: (int(v) if unit in EXACT_UNITS else float(v), unit) for k, (v, unit) in m.items()}
