"""Span tracing of the library's layers, installed from the benchmark's side.

The library carries no instrumentation.  For a traced pass, ``installed``
replaces each traced name with a wrapper at the place its caller looks it
up (module attribute or class attribute) and puts the originals back when
the block ends.  ``waves`` imports ``validate_kernel`` by name, so the
wrapper goes on ``waves.validate_kernel``, not on ``kernels``.

A span is ``[name, start, end, parent, op]``: perf_counter seconds, the
index of the enclosing span (-1 for a root) and the id of the op it ran
under.  Spans stay in memory and are written out when the run ends.
Counts come from plan sizes and return values at the same boundaries.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

#: units whose values must repeat exactly across two traced passes
COUNT_UNITS = ("count", "B")


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: int = 1):
        self.counts[key] += int(amount)

    @contextmanager
    def root(self, name: str, op):
        """Span covering one op (or the set-up, or the CLI op)."""
        self.op = op
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)
            self.op = None


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_length(children.get(i, ()), start, end)
            for i, (name, start, end, parent, op) in enumerate(spans)]


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def odd_apply_bytes(n: int, refine: int, nfft: int) -> int:
    """Bytes of the float64/complex128 arrays one ``apply_values`` call
    creates: the fine deviation and its weighted copy, the forward
    spectrum, two spectral products, two inverse transforms and the
    coarse output.  Computed from sizes, so it ignores cache behaviour."""
    m = n * refine
    half = nfft // 2 + 1
    return 8 * (2 * (m + 1) + 2 * nfft + (n + 1)) + 16 * 3 * half


def _count_odd_apply(tracer, args, result):
    plan = args[0]
    nfft = getattr(plan, "_nfft", 0)
    tracer.add("convolve.odd_apply.fft_points", nfft)
    tracer.add("convolve.odd_apply.bytes_computed",
               odd_apply_bytes(plan.grid.n, plan.refine, nfft))


def _count_full_apply(tracer, args, result):
    tracer.add("convolve.full_apply.fft_points", getattr(args[0], "_nfft", 0))


def _count_solve(tracer, args, result):
    profile, _ = result
    tracer.add("waves.sweeps", profile.iterations)
    tracer.add("waves.converged", int(profile.converged))


def _count_subsolution(tracer, args, result):
    tracer.add("waves.subsolution.halvings", result.halvings)


def _count_step(tracer, args, result):
    tracer.add("cauchy.cell_steps", result.u.size)


def _wrap(tracer, name, fn, on_result):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if on_result is not None:
            on_result(tracer, args, result)
        return result
    return traced


@contextmanager
def installed(tracer, lib):
    """Every traced name wrapped for the duration of the block; ``lib`` is
    the imported ``nlburgers`` package, ``nlburgers.cli`` included."""
    cauchy, cli, convolve, kernels, waves = (
        lib.cauchy, lib.cli, lib.convolve, lib.kernels, lib.waves)
    targets = [
        (kernels, "build_kernel", "kernels.build", None),
        (waves, "validate_kernel", "kernels.validate", None),
        (convolve.OddConvolver, "__init__", "convolve.odd_plan", None),
        (convolve.OddConvolver, "apply_values", "convolve.odd_apply", _count_odd_apply),
        (convolve.FullLineConvolver, "__init__", "convolve.full_plan", None),
        (convolve.FullLineConvolver, "apply", "convolve.full_apply", _count_full_apply),
        (waves, "solve_wave", "waves.solve", _count_solve),
        (waves, "iterate_once", "waves.iterate", None),
        (waves, "_advance", "waves.advance", None),
        (waves, "subsolution", "waves.subsolution", _count_subsolution),
        (waves, "classify_shock", "waves.classify", None),
        (waves, "pointwise_residual", "waves.residual.pointwise", None),
        (waves, "weak_residual", "waves.residual.weak", None),
        (waves, "flux_balance", "waves.residual.flux", None),
        (cauchy, "simulate", "cauchy.simulate", None),
        (cauchy, "step", "cauchy.step", _count_step),
        (cauchy, "measure_speed", "cauchy.diagnostics", None),
        (cauchy, "l1_distance_to_translate", "cauchy.diagnostics", None),
        (cauchy.Trajectory, "slope_growth", "cauchy.diagnostics", None),
        (cli, "main", "cli.main", None),
        (cli, "_write_json", "cli.write", None),
        (waves, "write_profile_csv", "cli.write", None),
        (waves, "write_trace_csv", "cli.write", None),
        (cauchy, "write_snapshots_csv", "cli.write", None),
    ]
    originals = []
    try:
        for owner, attr, name, on_result in targets:
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, name, fn, on_result))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


def layer_metrics(spans, counts) -> dict:
    """Per-layer totals over every span of one traced pass.

    ``*.s`` is total wall time inside the layer's spans, ``*.self_s`` the
    same minus time in traced callees, ``*.calls`` the span count.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for (name, start, end, _, _), s in zip(spans, selfs):
        calls[name] += 1
        total[name] += end - start
        own[name] += s
    solves = calls["waves.solve"]
    rows = [
        ("kernels.validate.calls", calls["kernels.validate"], "count"),
        ("kernels.validate.s", total["kernels.validate"], "s"),
        ("kernels.build.s", total["kernels.build"], "s"),
        ("convolve.odd_plan.calls", calls["convolve.odd_plan"], "count"),
        ("convolve.odd_plan.s", total["convolve.odd_plan"], "s"),
        ("convolve.odd_apply.calls", calls["convolve.odd_apply"], "count"),
        ("convolve.odd_apply.s", total["convolve.odd_apply"], "s"),
        ("convolve.odd_apply.fft_points", counts["convolve.odd_apply.fft_points"], "count"),
        ("convolve.odd_apply.bytes_computed",
         counts["convolve.odd_apply.bytes_computed"], "B"),
        ("convolve.full_plan.s", total["convolve.full_plan"], "s"),
        ("convolve.full_apply.calls", calls["convolve.full_apply"], "count"),
        ("convolve.full_apply.s", total["convolve.full_apply"], "s"),
        ("convolve.full_apply.fft_points", counts["convolve.full_apply.fft_points"], "count"),
        ("waves.sweeps", counts["waves.sweeps"], "count"),
        ("waves.sweeps_per_solve", counts["waves.sweeps"] / solves if solves else 0.0,
         "count"),
        ("waves.iterate.self_s", own["waves.iterate"], "s"),
        ("waves.solve.self_s", own["waves.solve"], "s"),
        ("waves.advance.s", total["waves.advance"], "s"),
        ("waves.subsolution.calls", calls["waves.subsolution"], "count"),
        ("waves.subsolution.s", total["waves.subsolution"], "s"),
        ("waves.subsolution.halvings", counts["waves.subsolution.halvings"], "count"),
        ("waves.classify.calls", calls["waves.classify"], "count"),
        ("waves.classify.s", total["waves.classify"], "s"),
        ("waves.residual.pointwise_s", total["waves.residual.pointwise"], "s"),
        ("waves.residual.weak_s", total["waves.residual.weak"], "s"),
        ("waves.residual.flux_s", total["waves.residual.flux"], "s"),
        ("waves.converged_ratio", counts["waves.converged"] / solves if solves else 0.0,
         "ratio"),
        ("cauchy.simulate.s", total["cauchy.simulate"], "s"),
        ("cauchy.step.calls", calls["cauchy.step"], "count"),
        ("cauchy.step.self_s", own["cauchy.step"], "s"),
        ("cauchy.cell_steps", counts["cauchy.cell_steps"], "count"),
        ("cauchy.diagnostics.s", total["cauchy.diagnostics"], "s"),
        ("cli.main.s", total["cli.main"], "s"),
        ("cli.write.s", total["cli.write"], "s"),
        ("cli.bytes_written", counts["cli.bytes_written"], "B"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}


def op_self_sums(spans) -> dict:
    """Sum of self times of all spans under each op id."""
    sums = defaultdict(float)
    for (_, _, _, _, op), s in zip(spans, self_times(spans)):
        sums[op] += s
    return dict(sums)
