"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one line so a `pytest -s tests/test_acceptance.py` run
reads as a checklist.  Heavy artifacts (the 16-case solve suite and its
classifications) are shared through module-scoped fixtures; their wall
time is charged to the criteria that own them.
"""

import time

import numpy as np
import pytest

from nlburgers import cauchy as cy
from nlburgers import convolve as cv
from nlburgers import kernels as kk
from nlburgers import waves as wv

EXP1 = kk.exponential_kernel(1.0)

SUITE_KERNELS = [
    ("exp-k1", kk.exponential_kernel(1.0)),
    ("gauss-s1", kk.gaussian_kernel(1.0)),
    ("uniform-a1", kk.uniform_kernel(1.0)),
    ("tri-a1", kk.triangular_kernel(1.0)),
]
SUITE_AMPLITUDES = (0.5, 1.0, 2.0, 5.0)
EXTRA_KERNELS = [
    ("exp-k05", kk.exponential_kernel(0.5)),
    ("exp-k2", kk.exponential_kernel(2.0)),
]


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def suite():
    """Criterion 3's sixteen solves at defaults (tol 1e-8, N 4096)."""
    t0 = time.perf_counter()
    runs = {}
    for name, kernel in SUITE_KERNELS:
        for amp in SUITE_AMPLITUDES:
            params = wv.WaveParams(0.5 * amp, -0.5 * amp)
            profile, trace = wv.solve_wave(kernel, params)
            runs[(name, amp)] = (kernel, profile, trace)
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def classifications(suite):
    """Refinement-ratio verdicts for the suite, tags attached to profiles."""
    runs, _ = suite
    out = {}
    for (name, amp), (kernel, profile, _) in runs.items():
        record = wv.classify_shock(kernel, profile.params, n=512)
        profile.classification = record.measured
        out[(name, amp)] = record
    return out


class TestCriterion1:
    def test_first_iterate_oracle(self):
        t0 = time.perf_counter()
        params = wv.WaveParams(1.0, -1.0)
        errors = {}
        for n in (2048, 4096):
            grid = cv.HalfLineGrid(30.0, n)
            u1 = wv.iterate_once(wv.supersolution(params, grid), params,
                                 cv.OddConvolver(EXP1, grid))
            exact = 1.0 - 0.5 * np.exp(grid.nodes())
            errors[n] = float(np.max(np.abs(u1 - exact)))
        order = np.log2(errors[2048] / errors[4096])
        elapsed = time.perf_counter() - t0
        report(1, errors[4096] <= 5e-4 and order >= 1.8 and elapsed < 2.0,
               f"first iterate sup err {errors[4096]:.2e} <= 5e-4, "
               f"order {order:.2f} >= 1.8, {elapsed:.2f}s < 2s")


class TestCriterion2:
    def test_convolution_oracle(self):
        t0 = time.perf_counter()
        grid = cv.HalfLineGrid(30.0, 4096)
        field = np.ones(grid.n + 1)
        out = cv.OddConvolver(EXP1, grid).apply_values(field, 1.0)
        x = grid.nodes()
        sup = float(np.max(np.abs(out - (1.0 - np.exp(x)))))

        rng = np.random.default_rng(2024)
        nodes = rng.integers(1, grid.n, 50)
        worst = 0.0
        for i in nodes:
            oracle = cv.brute_force_convolve(EXP1, grid, field, 1.0, float(x[i]))
            worst = max(worst, abs(out[i] - oracle))
        elapsed = time.perf_counter() - t0
        report(2, sup <= 5e-4 and worst <= 1e-6 and elapsed < 2.0,
               f"step-field sup err {sup:.2e} <= 5e-4, oracle agreement "
               f"{worst:.2e} <= 1e-6 at 50 nodes, {elapsed:.2f}s < 2s")


class TestCriterion3:
    def test_monotone_scheme_suite(self, suite):
        runs, elapsed = suite
        worst_iters = 0
        violations = 0
        all_converged = True
        for (kernel, profile, trace) in runs.values():
            all_converged &= profile.converged and profile.final_sup_diff <= 1e-8
            worst_iters = max(worst_iters, profile.iterations)
            violations += sum(trace.monotone_violations)
            violations += sum(trace.ordering_violations)
        report(3, all_converged and violations == 0 and worst_iters <= 5000
               and elapsed < 60.0,
               f"16/16 converged to 1e-8 (max {worst_iters} of 5000 sweeps), "
               f"{violations} invariant violations above 1e-10, "
               f"{elapsed:.1f}s < 60s")


class TestCriterion4:
    def test_fixed_point_residuals(self, suite, classifications):
        runs, _ = suite
        worst = dict(pointwise=0.0, weak=0.0, flux=0.0, jump_id=0.0)
        continuous = 0
        for key, (kernel, profile, _) in runs.items():
            pw, _ = wv.pointwise_residual(profile, kernel)
            worst["pointwise"] = max(worst["pointwise"], pw)
            worst["weak"] = max(worst["weak"], wv.weak_residual(profile, kernel))
            worst["flux"] = max(worst["flux"], wv.flux_balance(profile, kernel))
            if classifications[key].measured == "continuous":
                continuous += 1
                worst["jump_id"] = max(worst["jump_id"],
                                       wv.jump_identity(profile, kernel))
        ok = (worst["pointwise"] <= 1e-3 and worst["weak"] <= 1e-4
              and worst["flux"] <= 1e-4 and worst["jump_id"] <= 1e-3
              and continuous >= 4)
        report(4, ok,
               f"pointwise {worst['pointwise']:.2e} <= 1e-3, weak "
               f"{worst['weak']:.2e} <= 1e-4, flux {worst['flux']:.2e} <= 1e-4, "
               f"jump identity {worst['jump_id']:.2e} <= 1e-3 on "
               f"{continuous} continuous profiles")


class TestCriterion5:
    def test_sharp_threshold(self):
        t0 = time.perf_counter()
        low = wv.classify_shock(EXP1, wv.WaveParams(0.6, -0.6), n=1024)
        high = wv.classify_shock(EXP1, wv.WaveParams(0.85, -0.85), n=1024)
        elapsed = time.perf_counter() - t0
        report(5, low.measured == "continuous"
               and high.measured == "discontinuous" and elapsed < 30.0,
               f"amplitude 1.2 -> {low.measured}, amplitude 1.7 -> "
               f"{high.measured} (jumps {['%.1e' % j for j in high.jumps]}), "
               f"{elapsed:.1f}s < 30s")


class TestCriterion6:
    def test_theorem_consistency(self, classifications):
        verdicts = dict(classifications)
        for name, kernel in EXTRA_KERNELS:
            for amp in SUITE_AMPLITUDES:
                if amp > 1.1 * 4.0 * kernel.m1:
                    params = wv.WaveParams(0.5 * amp, -0.5 * amp)
                    verdicts[(name, amp)] = wv.classify_shock(kernel, params,
                                                              n=1024)
        qualifying = []
        bad = []
        for (name, amp), record in verdicts.items():
            if record.amplitude > 1.1 * record.threshold:
                qualifying.append((name, amp, record.measured))
                if record.measured == "continuous":
                    bad.append((name, amp))
        report(6, len(bad) == 0 and len(qualifying) >= 6,
               f"{len(qualifying)} cases above 1.1 x 4 M1, none measured "
               f"continuous ({sorted(set(v for _, _, v in qualifying))})")


class TestCriterion7:
    def test_rankine_hugoniot_propagation(self):
        t0 = time.perf_counter()
        profile, _ = wv.solve_wave(EXP1, wv.WaveParams(2.5, 0.0))
        results = {}
        for m in (2000, 4000):
            cfg = cy.SimConfig(a=-40.0, b=40.0, m=m, t_end=5.0,
                               u_left=2.5, u_right=0.0, snapshot_interval=0.25)
            traj = cy.simulate(cy.state_from_profile(profile, cfg), EXP1, cfg)
            fit = cy.measure_speed(traj, 1.25)
            l1 = cy.l1_distance_to_translate(traj.final, profile)
            results[m] = (fit.speed, l1)
        elapsed = time.perf_counter() - t0
        speed, l1 = results[2000]
        ok = (abs(speed - 1.25) <= 0.02 * 1.25 and l1 <= 0.2
              and results[4000][1] < l1 and elapsed < 60.0)
        report(7, ok,
               f"speed {speed:.4f} within 2% of 1.25, L1 {l1:.3f} <= 0.2 "
               f"and decreasing to {results[4000][1]:.3f} at M=4000, "
               f"{elapsed:.1f}s < 60s")


class TestCriterion8:
    def test_constant_steady_states(self):
        worst = 0.0
        for name, kernel in SUITE_KERNELS:
            cfg = cy.SimConfig(a=-40.0, b=40.0, m=256, t_end=1.0,
                               u_left=3.0, u_right=3.0)
            state = cy.initial_state(cfg, 3.0)
            conv = cv.FullLineConvolver(kernel, state.x)
            for _ in range(100):
                state = cy.step(state, cfg, conv, cy.stable_dt(state.u, cfg))
            worst = max(worst, float(np.max(np.abs(state.u - 3.0))))
        report(8, worst <= 1e-12,
               f"constant state deviation {worst:.2e} <= 1e-12 after 100 "
               f"steps, all suite kernels")


class TestCriterion9:
    def test_finite_time_steepening_proxy(self):
        factors = {}
        for m in (2000, 4000):
            cfg = cy.SimConfig(a=-40.0, b=40.0, m=m, t_end=5.0,
                               u_left=2.0, u_right=-2.0, snapshot_interval=0.25)
            state = cy.initial_state(cfg, lambda x: -2.0 * np.tanh(3.0 * x))
            traj = cy.simulate(state, EXP1, cfg)
            factors[m] = traj.slope_growth()
        report(9, factors[2000] >= 3.0 and factors[4000] >= factors[2000],
               f"max-slope growth {factors[2000]:.2f} >= 3 at M=2000, "
               f"{factors[4000]:.2f} at M=4000 (not decreasing)")


class TestCriterion10:
    def test_centering_invariance(self, suite):
        runs, _ = suite
        _, base_profile, _ = runs[("exp-k1", 2.0)]  # params (1, -1)
        shifted, _ = wv.solve_wave(EXP1, wv.WaveParams(1.5, -0.5))
        diff = float(np.max(np.abs(base_profile.values - shifted.values)))
        speed_gap = shifted.params.s - base_profile.params.s
        report(10, diff <= 1e-12 and speed_gap == 0.5,
               f"half-line components differ by {diff:.2e} <= 1e-12, "
               f"speeds differ by exactly {speed_gap}")
