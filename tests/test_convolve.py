"""Half-line and full-line convolutions against closed forms and the oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlburgers import convolve as cv
from nlburgers import kernels as kk


def step_field(grid, u_c=1.0):
    return np.full(grid.n + 1, u_c)


def iterate_like_field(grid, u_c=1.0):
    """u = u_c (1 - e^x / 2): admissible, curved, matches u_c at -L."""
    x = grid.nodes()
    return u_c * (1.0 - 0.5 * np.exp(x))


def curved_closed_form(x, u_c=1.0):
    """K*u for the odd extension of u_c (1 - e^x / 2) under exp(k=1).

    Derived from the resolvent identity q - q'' = u with odd matching:
    q = u_c (1 - e^x) + (u_c / 4) x e^x on x <= 0.
    """
    return u_c * (1.0 - np.exp(x)) + 0.25 * u_c * x * np.exp(x)


class TestGrid:
    def test_node_endpoints_exact(self):
        grid = cv.HalfLineGrid(30.0, 4096)
        x = grid.nodes()
        assert x[-1] == 0.0
        assert x[0] == -30.0
        assert np.max(np.abs(np.diff(x) - grid.h)) <= 1e-14 * grid.length

    def test_minimum_cells(self):
        with pytest.raises(ValueError):
            cv.HalfLineGrid(10.0, 32)

    def test_snap_length_aligns_breakpoint(self):
        ker = kk.uniform_kernel(1.0)
        n, refine = 1024, 8
        length = cv.snap_length(ker, 25.0, n, refine)
        assert length >= 25.0
        ratio = 1.0 / (length / (n * refine))
        assert abs(ratio - round(ratio)) <= 1e-9
        assert int(round(ratio)) % 2 == 1  # off the coarse grid at N, 2N, 4N

    @pytest.mark.parametrize("a", [1.0, 0.7])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_snap_length_stable_under_refinement(self, a, n):
        # the classifier solves at n, 2n, 4n with one L: re-snapping at the
        # finer sizes must not move it
        ker = kk.uniform_kernel(a)
        length = cv.snap_length(ker, 25.0, n, 8)
        assert cv.snap_length(ker, length, 2 * n, 8) == pytest.approx(length, rel=1e-14)
        assert cv.snap_length(ker, length, 4 * n, 8) == pytest.approx(length, rel=1e-14)


class TestOddConvolve:
    def test_zero_at_origin_exact(self):
        grid = cv.HalfLineGrid(30.0, 256)
        for ker in (kk.exponential_kernel(1.0), kk.gaussian_kernel(1.0)):
            out = cv.OddConvolver(ker, grid).apply_values(iterate_like_field(grid), 1.0)
            assert out[-1] == 0.0

    def test_step_matches_closed_form(self):
        ker = kk.exponential_kernel(1.0)
        grid = cv.HalfLineGrid(30.0, 4096)
        out = cv.OddConvolver(ker, grid).apply_values(step_field(grid), 1.0)
        exact = 1.0 - np.exp(grid.nodes())
        assert np.max(np.abs(out - exact)) <= 5e-4

    def test_far_left_reaches_far_value(self):
        ker = kk.exponential_kernel(1.0)
        for length in (30.0, 40.0):
            grid = cv.HalfLineGrid(length, 2048)
            out = cv.OddConvolver(ker, grid).apply_values(
                iterate_like_field(grid, 0.7), 0.7)
            assert abs(out[0] - 0.7) <= 1e-10

    def test_bounded_by_far_value(self):
        grid = cv.HalfLineGrid(35.0, 1024)
        for ker in (kk.exponential_kernel(1.0), kk.gaussian_kernel(1.0),
                    kk.triangular_kernel(1.0)):
            out = cv.OddConvolver(ker, grid).apply_values(
                iterate_like_field(grid, 2.5), 2.5)
            assert np.max(out) <= 2.5 + 1e-12
            assert np.min(out) >= 0.0

    def test_convergence_order_on_curved_field(self):
        ker = kk.exponential_kernel(1.0)
        errs = {}
        for n in (2048, 4096):
            grid = cv.HalfLineGrid(30.0, n)
            out = cv.OddConvolver(ker, grid).apply_values(iterate_like_field(grid), 1.0)
            errs[n] = np.max(np.abs(out - curved_closed_form(grid.nodes())))
        order = np.log2(errs[2048] / errs[4096])
        assert order >= 1.8

    def test_tail_precondition(self):
        with pytest.raises(cv.GridKernelError):
            cv.OddConvolver(kk.exponential_kernel(1.0), cv.HalfLineGrid(20.0, 256))


class TestFastVsDirect:
    @pytest.mark.parametrize("ker", [
        kk.exponential_kernel(1.0),
        kk.gaussian_kernel(1.0),
        kk.uniform_kernel(1.0),
        kk.triangular_kernel(1.0),
    ], ids=lambda k: k.family)
    def test_agreement(self, ker):
        n, refine = 512, 4
        length = cv.snap_length(ker, 30.0, n, refine)
        grid = cv.HalfLineGrid(length, n)
        plan = cv.OddConvolver(ker, grid, refine)
        rng = np.random.default_rng(7)
        for _ in range(3):
            drops = rng.uniform(0.0, 1.0, grid.n + 1)
            vals = 1.0 + np.concatenate(([0.0], np.cumsum(-drops[1:])))
            vals = 2.5 * (vals - vals[-1] + 0.01) / (vals[0] - vals[-1] + 0.01)
            fast = plan.apply_values(vals, vals[0])
            direct = plan.apply_direct(vals, vals[0])
            assert np.max(np.abs(fast - direct)) <= 1e-10


class TestSignAndComparison:
    def test_weight_sign_property(self):
        grid = cv.HalfLineGrid(30.0, 256)
        x = grid.nodes()[::8]
        for ker in (kk.exponential_kernel(1.0), kk.gaussian_kernel(1.0),
                    kk.uniform_kernel(1.0), kk.triangular_kernel(1.0)):
            diff = ker.density(x[:, None] - x[None, :]) - ker.density(x[:, None] + x[None, :])
            assert float(np.min(diff)) >= -1e-14

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_monotone_comparison(self, seed):
        ker = kk.exponential_kernel(1.0)
        grid = cv.HalfLineGrid(30.0, 256)
        plan = cv.OddConvolver(ker, grid, 2)
        rng = np.random.default_rng(seed)
        base = np.sort(rng.uniform(0.05, 1.0, grid.n + 1))[::-1]
        gap = np.sort(rng.uniform(0.0, 0.5, grid.n + 1))[::-1]
        # same far value for both: comparison is about the samples
        far = float(base[0] + gap[0])
        out_lo = plan.apply_values(base, far)
        out_hi = plan.apply_values(base + gap, far)
        assert np.max(out_lo - out_hi) <= 1e-12


class TestBruteForce:
    def test_zero_at_origin(self):
        grid = cv.HalfLineGrid(30.0, 256)
        val = cv.brute_force_convolve(kk.exponential_kernel(1.0), grid,
                                      iterate_like_field(grid), 1.0, 0.0)
        assert abs(val) <= 1e-13

    def test_step_closed_form(self):
        grid = cv.HalfLineGrid(30.0, 512)
        val = cv.brute_force_convolve(kk.exponential_kernel(1.0), grid,
                                      step_field(grid), 1.0, -2.0)
        assert val == pytest.approx(1.0 - np.exp(-2.0), abs=1e-10)

    def test_agreement_with_grid_path(self):
        ker = kk.exponential_kernel(1.0)
        grid = cv.HalfLineGrid(30.0, 1024)
        field = iterate_like_field(grid, 1.3)
        out = cv.OddConvolver(ker, grid, 8).apply_values(field, 1.3)
        rng = np.random.default_rng(3)
        x = grid.nodes()
        for i in rng.integers(1, grid.n, 12):
            oracle = cv.brute_force_convolve(ker, grid, field, 1.3, float(x[i]))
            assert abs(out[i] - oracle) <= 1e-6

    def test_agreement_on_random_admissible_fields(self):
        ker = kk.exponential_kernel(1.0)
        grid = cv.HalfLineGrid(30.0, 1024)
        plan = cv.OddConvolver(ker, grid, 8)
        rng = np.random.default_rng(11)
        x = grid.nodes()
        for _ in range(10):
            drops = rng.uniform(0.0, 1.0, grid.n)
            vals = np.concatenate(([1.0], 1.0 - np.cumsum(drops) / np.sum(drops)))
            vals = 0.98 * vals + 0.01
            out = plan.apply_values(vals, vals[0])
            for i in rng.integers(1, grid.n, 3):
                oracle = cv.brute_force_convolve(ker, grid, vals, vals[0], float(x[i]))
                assert abs(out[i] - oracle) <= 1e-6

    def test_uniform_kernel_breakpoints_handled(self):
        ker = kk.uniform_kernel(1.0)
        n, refine = 512, 8
        length = cv.snap_length(ker, 30.0, n, refine)
        grid = cv.HalfLineGrid(length, n)
        field = iterate_like_field(grid, 1.0)
        out = cv.OddConvolver(ker, grid, refine).apply_values(field, 1.0)
        x = grid.nodes()
        for i in (50, 256, 430, 505):
            oracle = cv.brute_force_convolve(ker, grid, field, 1.0, float(x[i]))
            assert abs(out[i] - oracle) <= 1e-6


class TestFullLine:
    def test_constants_are_exact(self):
        x = np.linspace(-40.0, 40.0, 2000)
        out = cv.FullLineConvolver(kk.exponential_kernel(1.0), x).apply(
            np.full(x.size, 3.0), 3.0, 3.0)
        assert np.max(np.abs(out - 3.0)) <= 1e-12

    def test_step_closed_form_at_node(self):
        # grid chosen so x = -1 is a node and the step sits at x = 0
        x = np.linspace(-40.0, 40.0, 2001)
        u = np.where(x < 0.0, 1.0, -1.0)
        u[np.abs(x) < 1e-12] = 0.0
        out = cv.FullLineConvolver(kk.exponential_kernel(1.0), x).apply(u, 1.0, -1.0)
        i = np.argmin(np.abs(x + 1.0))
        assert out[i] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-4)

    def test_odd_data_vanishes_at_origin(self):
        x = np.linspace(-40.0, 40.0, 2001)
        u = np.clip(x, -40.0, 40.0)
        out = cv.FullLineConvolver(kk.gaussian_kernel(1.0), x).apply(u, -40.0, 40.0)
        i = np.argmin(np.abs(x))
        assert abs(out[i]) <= 1e-11

    def test_domain_too_short(self):
        x = np.linspace(-3.0, 3.0, 200)
        with pytest.raises(cv.GridKernelError):
            cv.FullLineConvolver(kk.exponential_kernel(1.0), x)
