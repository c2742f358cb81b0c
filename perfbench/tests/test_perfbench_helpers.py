"""Tests of the benchmark's own helpers: seeded inputs, the percentile rule,
self-time arithmetic, failure counting and the tracer's wrappers."""

import json
import random

import pytest

from nlburgers import kernels, waves
from perfbench import run, stats, tracing, workloads

# ----------------------------------------------------------------------
# seeded generator
# ----------------------------------------------------------------------


@pytest.mark.parametrize("plan", [workloads.solve_plan, workloads.sweep_plan,
                                  workloads.simulate_plan])
def test_plans_are_deterministic_per_seed(plan):
    assert plan(7) == plan(7)
    assert any(plan(7) != plan(s) for s in range(8, 12))


@pytest.mark.parametrize("strata", [workloads.SOLVE_RHO, workloads.SWEEP_RHO,
                                    workloads.SIM_UC])
def test_draw_is_antithetic_within_each_stratum(strata):
    for seed in range(20):
        idx = strata.draw(random.Random(seed))
        assert len(idx) == 2 * strata.bins
        for j in range(strata.bins):
            lo, hi = idx[2 * j], idx[2 * j + 1]
            assert lo // strata.offsets == hi // strata.offsets == j
            assert lo % strata.offsets + hi % strata.offsets == strata.offsets - 1


def test_grid_values_span_the_stated_range():
    s = workloads.SOLVE_RHO
    values = [s.value(i) for i in range(s.size)]
    assert values == sorted(values)
    assert s.lo < values[0] and values[-1] < s.hi
    lin = workloads.SIM_UC
    assert lin.value(0) - lin.lo == pytest.approx(lin.hi - lin.value(lin.size - 1))


def test_reference_covers_every_grid_point():
    ref = workloads.load_reference(run.REFERENCE)
    for key, specs, strata in (("solve", workloads.SOLVE_SPECS, workloads.SOLVE_RHO),
                               ("sweep", workloads.SWEEP_SPECS, workloads.SWEEP_RHO),
                               ("simulate", workloads.SIM_SPECS, workloads.SIM_UC)):
        assert sorted(ref[key]) == sorted(specs)
        assert all(len(rows) == strata.size for rows in ref[key].values())


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------


def test_nearest_rank_percentile():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 75) == 75
    assert stats.percentile(xs, 100) == 100
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.beyond(48, 75) == 12
    assert stats.beyond(40, 75) == 10
    assert stats.tail_percentile(40) == 75
    assert stats.tail_percentile(39) is None
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(10_000) == 99.9
    assert stats.tail_percentile(workloads.MIN_OPS) is not None


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],      # grandchild: charged to a, not to op
        ["c", 5.0, 7.0, 0, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    assert tracing.op_self_sums(spans)[0] == pytest.approx(10.0)


def test_covered_length_merges_overlaps_and_clips():
    assert tracing.covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert tracing.covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert tracing.covered_length([], 0, 10) == 0


# ----------------------------------------------------------------------
# failure counting
# ----------------------------------------------------------------------


def test_failed_check_and_raising_op_count_without_raising():
    def boom():
        raise RuntimeError("scheme collapsed")

    tally = run.Tally()
    run.run_op(workloads.Op("ok", lambda: []), tally)
    run.run_op(workloads.Op("bad", lambda: ["bad: residual too large"]), tally)
    run.run_op(workloads.Op("boom", boom), tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert any("RuntimeError" in m for m in tally.messages)


def test_wave_beyond_the_solve_range_fails_its_residual_check():
    """rho = 3 for exp:k=1 is outside SOLVE_RHO: at n = 4096 its weak and
    flux residuals exceed the acceptance tolerances, and the op says so."""
    kernel = workloads.build_kernel("exp:k=1")
    params = workloads.wave_params(kernel, 3.0, 0.0)
    tally = run.Tally()
    run.run_op(workloads._solve_op("exp rho=3", kernel, params, None), tally)
    assert tally.failed == 1
    assert any("weak residual" in m for m in tally.messages)


def test_wrong_jump_fails_the_reference_check():
    assert workloads.check_jump("x", 1.0, 1.0, 1.0 + 1e-6) == []
    assert workloads.check_jump("x", 1.0, 1.0, 1.001)
    assert workloads.check_jump("x", 1.0, 1.0, None)


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------


def test_tracer_wraps_and_restores_library_names():
    import nlburgers.cli
    original = waves.solve_wave
    tracer = tracing.Tracer()
    kernel = kernels.exponential_kernel(1.0)
    with tracing.installed(tracer, nlburgers), tracer.root("op", 0):
        profile, _ = waves.solve_wave(kernel, waves.WaveParams(1.0, -1.0), n=256)
    assert waves.solve_wave is original
    layers = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert layers["waves.sweeps"]["value"] == profile.iterations
    assert layers["convolve.odd_apply.calls"]["value"] == profile.iterations
    assert layers["kernels.validate.calls"]["value"] == 1
    assert layers["convolve.odd_apply.fft_points"]["value"] > 0
    wall = tracer.spans[0][2] - tracer.spans[0][1]
    assert tracing.op_self_sums(tracer.spans)[0] == pytest.approx(wall)


def test_benchmark_json_names_only_reported_metrics():
    spec = json.loads(run.SPEC.read_text())
    layers = tracing.layer_metrics([], tracing.Tracer().counts)
    for metric in spec["per_layer"]:
        assert layers[metric["name"]]["unit"] == metric["unit"]
