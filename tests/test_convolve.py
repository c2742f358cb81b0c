"""Half-line and full-line convolutions against closed forms and the oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.linalg import hankel, toeplitz

from nlburgers import convolve as cv
from nlburgers import kernels as kk
from nlburgers import waves as wv
from nlburgers.convolve import trapezoid_weights
from oracles import full_line_apply, full_line_correlation, odd_plan_parts, refine_segments


def triangle_table_kernel():
    """tri:a=1 as a 21-row table, kinks on the nodes."""
    y = np.linspace(-1.0, 1.0, 21)
    return kk.tabulated_kernel(y, np.maximum(1.0 - np.abs(y), 0.0))


def exponential_table_kernel():
    """exp:k=1 sampled every 0.1 on [-8, 8], renormalized."""
    y = np.linspace(-8.0, 8.0, 161)
    return kk.tabulated_kernel(y, 0.5 * np.exp(-np.abs(y)), renormalize=True)


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


def fine_values(values, refine):
    """Linear interpolation onto the refine-times finer grid."""
    w = np.arange(refine) / refine
    base = values[:-1, None] * (1.0 - w) + values[1:, None] * w
    return np.append(base.ravel(), values[-1])


def apply_direct(plan, values, far_value):
    """The plan's fine-grid trapezoid sums by direct summation, with the
    exact far-field row 1 - 2 Phi(x_i); apply_values must match this."""
    grid, kernel = plan.grid, plan.kernel
    n, r = grid.n, plan.refine
    m = n * r
    hf = grid.h / r
    p = np.arange(2 * m + 1)
    kt = kernel.density((p - m) * hf)   # K(x_i - y_q) at p = m + i r - q
    khr = kernel.density(-2.0 * grid.length + p * hf)[::-1]
    g = trapezoid_weights(m, hf) * fine_values(values - far_value, r)
    q = np.arange(m + 1)
    out = np.empty(n + 1)
    chunk = 64
    for i0 in range(0, n + 1, chunk):
        i = np.arange(i0, min(i0 + chunk, n + 1))
        t = kt[i[:, None] * r - q[None, :] + m]
        h = khr[2 * m - i[:, None] * r - q[None, :]]
        out[i] = (t - h) @ g
    out += far_value * (1.0 - 2.0 * kernel.cdf(grid.nodes()))
    out[-1] = 0.0
    return np.maximum(out, 0.0)


def brute_force_convolve(kernel, grid, values, far_value, x):
    """Adaptive quadrature of the same odd-reflection integrand at one point.

    An oracle independent of the plan: the integrand (kernel difference
    times the linearly interpolated field) is integrated over every grid
    cell by repeated interval halving until two successive refinements
    agree to 1e-11, with kernel breakpoints (every node of a table)
    inserted as extra segment edges.  The far-field tail is the same exact
    CDF term the grid path uses.
    """
    length = grid.length
    if not (-length <= x <= 0.0):
        raise ValueError("evaluation point must lie in [-L, 0]")
    nodes = grid.nodes()
    edges = set(nodes.tolist())
    for bp in kernel.breakpoints():
        for y_star in (x - bp, x + bp, -bp - x, bp - x):
            if -length < y_star < 0.0:
                edges.add(float(y_star))
    edges = np.array(sorted(edges))

    def integrand(y):
        u = np.interp(y, nodes, values)
        return (kernel.density(x - y) - kernel.density(x + y)) * u

    integral = refine_segments(integrand, edges, rtol=0.0, atol=1e-11)
    tail = 1.0 - kernel.cdf(x + length) - kernel.cdf(x - length)
    return float(integral + far_value * tail)


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

    def test_cell_count_must_be_an_integer(self):
        # 100.5 cells would give 102 nodes whose last is not 0
        for n in (100.5, 128.0):
            with pytest.raises(ValueError, match="integer"):
                cv.HalfLineGrid(30.0, n)
        grid = cv.HalfLineGrid(30.0, np.int64(128))
        assert grid.nodes().size == 129 and grid.nodes()[-1] == 0.0

    def test_refine_must_be_an_integer(self):
        # refine 2.5 would build a refine-2 plan on a grid snapped for 2.5,
        # which puts a density jump between fine nodes
        ker = kk.uniform_kernel(1.0)
        grid = cv.HalfLineGrid(cv.snap_length(ker, 30.0, 128, 2), 128)
        for refine in (2.5, 2.0):
            with pytest.raises(ValueError, match="integer"):
                cv.OddConvolver(ker, grid, refine)
        assert cv.OddConvolver(ker, grid, np.int64(2)).refine == 2

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

    def test_warm_apply_memory(self):
        # a warm apply holds only coarse arrays: no fine-grid field or FFT
        grid = cv.HalfLineGrid(30.0, 4096)
        plan = cv.OddConvolver(kk.exponential_kernel(1.0), grid, 8)
        vals = iterate_like_field(grid)
        plan.apply_values(vals, 1.0)
        tracemalloc.start()
        try:
            plan.apply_values(vals, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20

    def test_far_value_changes_on_one_plan(self):
        # far values A, B, A, 0.0, -0.0 on one plan give what fresh plans
        # give, to the bit, and the returned arrays are independent
        grid = cv.HalfLineGrid(30.0, 512)
        ker = kk.gaussian_kernel(1.0)
        field = iterate_like_field(grid, 1.3)
        plan = cv.OddConvolver(ker, grid)
        fars = [1.3, 0.9, 1.3, 0.0, -0.0]
        got = [plan.apply_values(field, far) for far in fars]
        for far, out in zip(fars, got):
            fresh = cv.OddConvolver(ker, grid).apply_values(field, far)
            assert np.array_equal(out.view(np.int64), fresh.view(np.int64))
        assert not np.shares_memory(got[0], got[2])

    def test_triangle_table_is_the_triangular_family(self):
        # the table's exact CDF enters the far-field row, so the two plans
        # agree to rounding
        grid = cv.HalfLineGrid(30.0, 512)
        field = iterate_like_field(grid, 1.3)
        table = cv.OddConvolver(triangle_table_kernel(), grid).apply_values(field, 1.3)
        family = cv.OddConvolver(kk.triangular_kernel(1.0), grid).apply_values(field, 1.3)
        np.testing.assert_allclose(table, family, rtol=0, atol=1e-14)

    def test_tail_precondition(self):
        with pytest.raises(cv.GridKernelError):
            cv.OddConvolver(kk.exponential_kernel(1.0), cv.HalfLineGrid(20.0, 256))

    @pytest.mark.parametrize("size", [553, 510, 512, 514])
    def test_sample_count_must_match_the_grid(self, size):
        # the FFT would pad or truncate other lengths without a word
        grid = cv.HalfLineGrid(30.0, 512)
        plan = cv.OddConvolver(kk.exponential_kernel(1.0), grid)
        field = 1.0 - 0.5 * np.exp(np.linspace(-30.0, 0.0, size))
        with pytest.raises(cv.FieldError, match="one sample per grid node"):
            plan.apply_values(field, 1.0)
        with pytest.raises(cv.FieldError, match="one sample per grid node"):
            plan.apply_values(iterate_like_field(grid)[:, None], 1.0)


class TestFastVsDirect:
    @pytest.mark.parametrize("ker", [
        kk.exponential_kernel(1.0),
        kk.gaussian_kernel(1.0),
        kk.uniform_kernel(1.0),
        kk.triangular_kernel(1.0),
        triangle_table_kernel(),
        exponential_table_kernel(),
    ], ids=["exponential", "gaussian", "uniform", "triangular", "table-tri",
            "table-exp"])
    def test_agreement(self, ker):
        for n, refine in ((512, 4), (1024, 8), (96, 8), (243, 3)):
            length = cv.snap_length(ker, 30.0, n, refine)
            grid = cv.HalfLineGrid(length, n)
            plan = cv.OddConvolver(ker, grid, refine)
            rng = np.random.default_rng(7)
            for _ in range(3):
                drops = rng.uniform(0.0, 1.0, grid.n + 1)
                vals = 1.0 + np.concatenate(([0.0], np.cumsum(-drops[1:])))
                vals = 2.5 * (vals - vals[-1] + 0.01) / (vals[0] - vals[-1] + 0.01)
                fast = plan.apply_values(vals, vals[0])
                direct = apply_direct(plan, vals, vals[0])
                assert np.max(np.abs(fast - direct)) <= 1e-10
            # a far value above the first sample gives the node at -L a
            # nonzero deviation, so its half-hat column carries weight
            fast = plan.apply_values(vals, vals[0] + 0.75)
            direct = apply_direct(plan, vals, vals[0] + 0.75)
            assert np.max(np.abs(fast - direct)) <= 1e-10


def generators(plan):
    """The plan's Toeplitz and Hankel generators, back from their spectra."""
    n, nfft, corr = plan.grid.n, plan._nfft, plan._correlation
    toeplitz = np.fft.irfft(corr._ft, nfft)[:2 * n - 1]
    hankel = np.roll(np.fft.irfft(corr._fh, nfft), 2 - n)[:2 * n - 1]
    return toeplitz, hankel


def apply_parts(parts, values, far_value):
    """apply_values on generators, end columns and exact row given as
    arrays, through the same spectral product."""
    toeplitz, hankel, end0, endn, exact_row = parts
    n = values.size - 1
    corr = cv._Toeplitz(toeplitz, n - 1, window=(n - 2, 2 * n - 1), hankel=hankel)
    d = values - far_value
    out = corr(d[1:-1]) + d[0] * end0 + d[-1] * endn + far_value * exact_row
    out[-1] = 0.0
    return np.maximum(out, 0.0)


BANDED_KERNELS = [
    kk.exponential_kernel(1.0),
    kk.gaussian_kernel(1.0),
    kk.uniform_kernel(1.0),
    kk.triangular_kernel(1.0),
    triangle_table_kernel(),
    exponential_table_kernel(),
]
BANDED_IDS = ["exponential", "gaussian", "uniform", "triangular", "table-tri", "table-exp"]


class TestBandedPlan:
    """The plan samples K on |y| <= B h only, B = ceil(R / h) with R the
    ROUNDING_TAIL radius; the unbanded build in the oracles samples every
    fine offset."""

    @pytest.mark.parametrize("ker", BANDED_KERNELS, ids=BANDED_IDS)
    @pytest.mark.parametrize("span", ["short", "long"])
    def test_matches_the_unbanded_build(self, ker, span):
        # short: the shortest L the tail check allows, where the band
        # covers most of the domain; long: L = 200, where it covers little
        n, refine = 256, 4
        length = 2.01 * ker.radius(cv.TAIL_TOL) if span == "short" else 200.0
        grid = cv.HalfLineGrid(cv.snap_length(ker, length, n, refine), n)
        plan = cv.OddConvolver(ker, grid, refine)
        parts = odd_plan_parts(ker, grid, refine)
        eps = np.finfo(float).eps
        # each sample feeds at most two windows, so a column moves by at
        # most twice the mass the band drops, plus the rounding of its sums
        # and of the FFT round trip that recovers the generators
        for got, want in zip((*generators(plan), plan._end0, plan._endn), parts):
            tol = 2.0 * cv.ROUNDING_TAIL + 8.0 * eps * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= tol
        assert np.array_equal(plan._exact_row.view(np.int64), parts[4].view(np.int64))
        x = grid.nodes()
        for far, field in ((1.0, iterate_like_field(grid)),
                           (2.5, 2.5 * np.exp(-((x + 0.3 * grid.length) / 4.0) ** 2)),
                           (0.75, 0.75 * (1.0 - np.exp(x / 3.0)))):
            got = plan.apply_values(field, far)
            want = apply_parts(parts, field, far)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(field))

    @pytest.mark.parametrize("ker", BANDED_KERNELS, ids=BANDED_IDS)
    def test_band_and_dropped_mass(self, ker):
        grid = cv.HalfLineGrid(cv.snap_length(ker, 200.0, 256, 8), 256)
        plan = cv.OddConvolver(ker, grid)
        band = int(np.ceil(ker.radius(cv.ROUNDING_TAIL) / grid.h))
        assert plan.band == band < 2 * grid.n
        assert plan.dropped_mass == ker.tail_mass(band * grid.h)
        assert 0.0 <= plan.dropped_mass <= cv.ROUNDING_TAIL
        if ker.family in ("uniform", "triangular", "tabulated"):
            assert plan.dropped_mass == 0.0

    @pytest.mark.parametrize("u_c", [1.5815, 3.2693])
    @pytest.mark.parametrize("n", [512, 1024, 2048])
    def test_uniform_jump_samples_keep_their_bits(self, u_c, n):
        # on these grids (default L at n = 512) the Toeplitz sample at the
        # jump lands on (+/-)0.9999999999999999 and reads 0.5, and the
        # Hankel one on -1.0 and reads 0.25, the mean of the one-sided
        # limits.  Taking the Hankel samples from the Toeplitz row (the
        # same offsets in exact arithmetic) reads 0.5 there, and moves the
        # plan far beyond rounding
        ker = kk.uniform_kernel(1.0)
        length = wv.default_length(ker, wv.WaveParams(u_c, -u_c), 512)
        grid = cv.HalfLineGrid(length, n)
        m, hf = 8 * n, grid.h / 8
        jump = round(1.0 / hf)
        assert ker.density(jump * hf) == 0.5
        assert ker.density(-2.0 * grid.length + (2 * m - jump) * hf) == 0.25
        plan = cv.OddConvolver(ker, grid)
        field = iterate_like_field(grid, u_c)
        got = plan.apply_values(field, u_c)
        parent = apply_parts(odd_plan_parts(ker, grid, 8), field, u_c)
        mirror = apply_parts(odd_plan_parts(ker, grid, 8, mirror=True), field, u_c)
        tol = 1e-15 * u_c
        assert np.max(np.abs(got - parent)) <= tol
        assert np.max(np.abs(mirror - parent)) > 1e6 * tol


class TestToeplitz:
    @pytest.mark.parametrize("m", [1, 64, 257])
    def test_matches_dense_product(self, m):
        # a generator that does not decay: any wrap-around would show
        rng = np.random.default_rng(m)
        c = rng.uniform(-1.0, 1.0, 2 * m + 1)
        v = rng.uniform(-1.0, 1.0, m + 1)
        dense = toeplitz(c[m:], c[m::-1]) @ v   # entry (i, j) is c[m + i - j]
        plan = cv._Toeplitz(c, m + 1, window=(m, 2 * m + 1))
        np.testing.assert_allclose(plan(v), dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("g, v", [(3, 1), (4, 2), (63, 32), (64, 33),
                                      (129, 7), (200, 101)])
    def test_valid_toeplitz_minus_reversed_hankel(self, g, v):
        # G - V + 1 outputs; non-decaying generators, so any wrap-around
        # of the circular product into the kept outputs would show
        rng = np.random.default_rng(g * 1000 + v)
        c = rng.uniform(-1.0, 1.0, g)
        b = rng.uniform(-1.0, 1.0, g)
        x = rng.uniform(-1.0, 1.0, v)
        t = toeplitz(c[v - 1:], c[v - 1::-1])     # entry (i, j) is c[i + V - 1 - j]
        hk = hankel(b[:g - v + 1], b[g - v:])     # entry (i, j) is b[i + j]
        plan = cv._Toeplitz(c, v, window=(v - 1, g), hankel=b)
        assert plan.nfft == next_fast_len(g, real=True)
        got = plan(x)
        assert got.shape == (g - v + 1,)
        np.testing.assert_allclose(got, t @ x - hk @ x, rtol=0, atol=1e-12)
        # the Hankel term is the second generator's Toeplitz product with
        # the reversed input
        t_rev = toeplitz(b[v - 1:], b[v - 1::-1]) @ x[::-1]
        np.testing.assert_allclose(got, t @ x - t_rev, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("g, v, lo, hi", [(5, 9, 2, 11), (7, 40, 3, 43),
                                              (129, 64, 0, 192), (64, 129, 100, 150),
                                              (31, 31, 30, 31)])
    def test_any_window_of_the_full_product(self, g, v, lo, hi):
        # non-decaying generators again: the FFT length max(hi, G + V - 1 - lo)
        # is the least that keeps the window free of wrap-around
        rng = np.random.default_rng(g * 1000 + v)
        c = rng.uniform(-1.0, 1.0, g)
        b = rng.uniform(-1.0, 1.0, g)
        x = rng.uniform(-1.0, 1.0, v)
        plan = cv._Toeplitz(c, v, window=(lo, hi), hankel=b)
        assert plan.nfft == next_fast_len(max(hi, g + v - 1 - lo), real=True)
        full = np.convolve(c, x) - np.convolve(b, x[::-1])
        np.testing.assert_allclose(plan(x), full[lo:hi], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [64, 97, 512, 4096])
    def test_odd_plan_size(self, n):
        # the end nodes are dropped, so the odd plan's FFT spans 2N - 1
        # points: 8192 at n = 4096
        grid = cv.HalfLineGrid(30.0, n)
        plan = cv.OddConvolver(kk.exponential_kernel(1.0), grid, 8)
        assert plan._nfft == next_fast_len(2 * n - 1, real=True)

    def test_fast_length_matches_scipy(self):
        # the library's 5-smooth length search against SciPy's
        got = [cv._fast_length(n) for n in range(1, 20001)]
        assert got == [next_fast_len(n, real=True) for n in range(1, 20001)]


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
        val = brute_force_convolve(kk.exponential_kernel(1.0), grid,
                                   iterate_like_field(grid), 1.0, 0.0)
        assert abs(val) <= 1e-13

    def test_step_closed_form(self):
        grid = cv.HalfLineGrid(30.0, 512)
        val = brute_force_convolve(kk.exponential_kernel(1.0), grid,
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
            oracle = brute_force_convolve(ker, grid, field, 1.3, float(x[i]))
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
                oracle = brute_force_convolve(ker, grid, vals, vals[0], float(x[i]))
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
            oracle = brute_force_convolve(ker, grid, field, 1.0, float(x[i]))
            assert abs(out[i] - oracle) <= 1e-6

    @pytest.mark.parametrize("ker", [triangle_table_kernel(),
                                     exponential_table_kernel()],
                             ids=["table-tri", "table-exp"])
    def test_table_kernel_nodes_handled(self, ker):
        # L = 25.6 puts every table node on the fine grid; the grid path's
        # O(h^2) trapezoid error is about 1e-6 at n = 512, so take 1024
        grid = cv.HalfLineGrid(25.6, 1024)
        field = iterate_like_field(grid, 1.0)
        out = cv.OddConvolver(ker, grid, 8).apply_values(field, 1.0)
        x = grid.nodes()
        for i in (100, 512, 860, 1010):
            oracle = brute_force_convolve(ker, grid, field, 1.0, float(x[i]))
            assert abs(out[i] - oracle) <= 1e-6


FULL_LINE_KERNELS = [kk.exponential_kernel(1.0), kk.gaussian_kernel(1.0),
                     kk.uniform_kernel(1.0), kk.triangular_kernel(1.0),
                     exponential_table_kernel()]


class TestFullLine:
    def test_constants_are_exact(self):
        x = np.linspace(-40.0, 40.0, 2000)
        for ker in FULL_LINE_KERNELS:
            out = cv.FullLineConvolver(ker, x, 3.0, 3.0).apply(np.full(x.size, 3.0))
            assert np.max(np.abs(out - 3.0)) <= 1e-12

    def test_step_closed_form_at_node(self):
        # grid chosen so x = -1 is a node and the step sits at x = 0
        x = np.linspace(-40.0, 40.0, 2001)
        u = np.where(x < 0.0, 1.0, -1.0)
        u[np.abs(x) < 1e-12] = 0.0
        out = cv.FullLineConvolver(kk.exponential_kernel(1.0), x, 1.0, -1.0).apply(u)
        i = np.argmin(np.abs(x + 1.0))
        assert out[i] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-4)

    def test_odd_data_vanishes_at_origin(self):
        x = np.linspace(-40.0, 40.0, 2001)
        u = np.clip(x, -40.0, 40.0)
        out = cv.FullLineConvolver(kk.gaussian_kernel(1.0), x, -40.0, 40.0).apply(u)
        i = np.argmin(np.abs(x))
        assert abs(out[i]) <= 1e-11

    @pytest.mark.parametrize("ker", FULL_LINE_KERNELS, ids=lambda k: k.family)
    def test_matches_direct_sum(self, ker):
        # the plan sums over the kernel's band only; the dense rows take
        # every offset, and the mass between them is below rounding.  Each
        # call returns a new array
        x = np.linspace(-40.0, 40.0, 1201)
        dx = x[1] - x[0]
        w = np.full(x.size, dx)
        w[0] = w[-1] = 0.5 * dx
        # kernel samples at integer offsets (i - j) dx, as the plan takes them
        idx = np.arange(x.size)
        dens = ker.density(np.subtract.outer(idx, idx) * dx) * w
        tail_left = 1.0 - ker.cdf(x - x[0])
        tail_right = ker.cdf(x - x[-1])
        for u_left, u_right in [(-0.8, 1.2), (1.5, -2.0)]:
            u = (0.5 * (u_left + u_right) - 0.5 * (u_left - u_right) * np.tanh(x)
                 + 0.3 * np.sin(x))
            direct = ((dens @ u + u_left * tail_left + u_right * tail_right)
                      / (dens.sum(axis=1) + tail_left + tail_right))
            plan = cv.FullLineConvolver(ker, x, u_left, u_right)
            assert plan.band < x.size - 1
            out = plan.apply(u)
            assert np.max(np.abs(out - direct)) <= 1e-14 * np.max(np.abs(u))
            assert not np.shares_memory(out, plan.apply(u))

    @pytest.mark.parametrize("cells", [1000, 2000, 4000])
    @pytest.mark.parametrize("ker", FULL_LINE_KERNELS, ids=lambda k: k.family)
    def test_band_sizes_the_plan(self, ker, cells):
        # the band's outside mass is below ROUNDING_TAIL, and its FFT is
        # the wrap-free m + 1 + B points, never more than the 2m + 1 of a
        # generator over the whole domain
        x = -40.0 + np.arange(cells + 1) * (80.0 / cells)
        plan = cv.FullLineConvolver(ker, x, 0.0, 0.0)
        dx = x[1] - x[0]
        assert plan.band == min(cells, int(np.ceil(ker.radius(cv.ROUNDING_TAIL) / dx)))
        assert plan.band < cells
        assert ker.tail_mass(plan.band * dx) <= cv.ROUNDING_TAIL
        if ker.family == "exponential":
            # the recursion runs no FFT and sums every offset; the band
            # sizes its overflow hand-over only
            assert (plan.method, plan._nfft, plan.dropped_mass) == ("geometric", 0, 0.0)
            return
        assert plan.method == "fft"
        assert plan._nfft == cv._fast_length(cells + 1 + plan.band)
        assert plan._nfft <= cv._fast_length(2 * cells + 1)
        assert plan.dropped_mass == ker.tail_mass(plan.band * dx)

    def test_benchmark_grid_lengths(self):
        # 4000 cells on [-40, 40]: no FFT for exp, whose hand-over would
        # take 6000 points, and 4500 for gauss, against 8000 for a
        # generator over the whole domain
        x = -40.0 + (np.arange(4000) + 0.5) * 0.02
        exp = cv.FullLineConvolver(kk.exponential_kernel(1.0), x, 1.0, -1.0)
        gauss = cv.FullLineConvolver(kk.gaussian_kernel(1.0), x, 1.0, -1.0)
        assert (exp.method, exp.band, exp._nfft, exp._toeplitz.nfft) == (
            "geometric", 1941, 0, 6000)
        assert (gauss.method, gauss.band, gauss._nfft) == ("fft", 427, 4500)

    @pytest.mark.parametrize("ker", FULL_LINE_KERNELS[:2], ids=lambda k: k.family)
    def test_band_over_the_whole_domain_is_the_full_plan(self, ker, monkeypatch):
        # a span shorter than R: the band covers it, and the FFT plan and
        # apply are bitwise those of a generator over all 2m + 1 offsets;
        # exp's recursion sums the same offsets to rounding.  The span
        # guard of 4 x radius(TAIL_TOL) exceeds R for every family kernel,
        # so it is widened here to admit such a span
        monkeypatch.setattr(cv, "TAIL_TOL", 0.5)
        x = np.linspace(-0.4 * ker.radius(cv.ROUNDING_TAIL),
                        0.4 * ker.radius(cv.ROUNDING_TAIL), 301)
        m, dx = x.size - 1, x[1] - x[0]
        plan = cv.FullLineConvolver(ker, x, -0.3, 0.2)
        assert (plan.band, plan.dropped_mass) == (m, 0.0)
        nfft = cv._fast_length(2 * m + 1)
        ft = np.fft.rfft(ker.density((np.arange(2 * m + 1) - m) * dx), nfft)
        geometric = ker.family == "exponential"
        assert plan._nfft == (0 if geometric else nfft)
        assert np.array_equal(plan._toeplitz._ft.view(np.int64), ft.view(np.int64))

        def old_correlation(v):
            spec = np.fft.rfft(v, nfft)
            spec *= ft
            return np.fft.irfft(spec, nfft)[m:2 * m + 1]

        weights = trapezoid_weights(m, dx)
        tail_left, tail_right = 1.0 - ker.cdf(x - x[0]), ker.cdf(x - x[-1])
        row = old_correlation(weights) + tail_left + tail_right
        u = np.sin(x)
        old = old_correlation(weights * u)
        old += -0.3 * tail_left + 0.2 * tail_right
        old /= row
        got = plan.apply(u)
        if geometric:
            assert np.max(np.abs(got - old)) <= 1e-14 * np.max(np.abs(u))
        else:
            assert np.array_equal(got.view(np.int64), old.view(np.int64))

    def test_domain_too_short(self):
        x = np.linspace(-3.0, 3.0, 200)
        with pytest.raises(cv.GridKernelError):
            cv.FullLineConvolver(kk.exponential_kernel(1.0), x, 0.0, 0.0)


class TestGeometric:
    """The exponential family's full-line sum as two first-order
    recursions on precomputed powers."""

    @staticmethod
    def _grid(span, cells):
        return -0.5 * span + np.arange(cells + 1) * (span / cells)

    @pytest.mark.parametrize("cells, span", [(1000, 120.0), (2500, 160.0), (4000, 240.0)])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_samples_are_geometric(self, k, cells, span):
        # the recursion replaces the FFT sum only because the kernel
        # samples at offsets D dx are K(0) rho^|D|: a quadrature that
        # samples otherwise breaks the plan's powers and fails here
        ker = kk.exponential_kernel(k)
        x = self._grid(span, cells)
        plan = cv.FullLineConvolver(ker, x, 0.0, 0.0)
        assert plan.method == "geometric"
        up = plan._powers[0]
        offsets = np.arange(1 - up.size, up.size)
        samples = ker.density(offsets * (x[1] - x[0]))
        want = ker.density(0.0) * up[np.abs(offsets)]
        assert np.max(np.abs(samples / want - 1.0)) <= 1e-12

    @pytest.mark.parametrize("cells, span", [(1000, 120.0), (2500, 160.0), (6001, 300.0)])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_matches_the_fft_oracle(self, k, cells, span):
        # against an FFT over every offset of the kernel's samples; k = 2
        # on the longest span runs two blocks.  Constants are reproduced
        # to a few roundings: K*c = c
        ker = kk.exponential_kernel(k)
        x = self._grid(span, cells)
        for u_left, u_right in [(1.0, -1.0), (-0.5, 2.5), (3.0, 3.0), (0.0, 0.0)]:
            u = (0.5 * (u_left + u_right) - 0.5 * (u_left - u_right) * np.tanh(x)
                 + 0.3 * np.sin(x))
            plan = cv.FullLineConvolver(ker, x, u_left, u_right)
            want = full_line_apply(plan, ker, u, u_left, u_right,
                                   lambda s: full_line_correlation(ker, x, s, cells))
            assert np.max(np.abs(plan.apply(u) - want)) <= 1e-14 * np.max(np.abs(u))
            constant = plan.apply(np.full(x.size, u_left))
            if u_left == u_right:
                assert np.max(np.abs(constant - u_left)) <= 4 * np.finfo(float).eps * abs(u_left)

    @pytest.mark.parametrize("span", [399.8, 400.2, 1000.0])
    def test_blocks_at_the_decay_bound(self, span):
        # k span just below GEOMETRIC_DECAY takes one block of powers, just
        # above it two (the second holds one sample), far above it five
        ker = kk.exponential_kernel(1.0)
        cells = round(span / 0.2)
        x = self._grid(span, cells)
        dx = x[1] - x[0]
        plan = cv.FullLineConvolver(ker, x, 0.0, 0.0)
        block = plan._powers[0].size
        assert (block - 1) * dx <= cv.GEOMETRIC_DECAY < block * dx or block == cells + 1
        assert (block == cells + 1) == (span < cv.GEOMETRIC_DECAY)
        assert plan._nfft == 0
        u = np.cos(x) + 0.5
        want = full_line_apply(plan, ker, u, 0.0, 0.0,
                               lambda s: full_line_correlation(ker, x, s, cells))
        assert np.max(np.abs(plan.apply(u) - want)) <= 1e-14
        # samples near 1e200 overflow the running sums of a block of this
        # decay: that apply hands over to the FFT, finite and without a
        # RuntimeWarning (the suite makes them errors)
        fft, handed = plan._toeplitz, []
        plan._toeplitz = lambda s: handed.append(s.size) or fft(s)
        assert np.array_equal(plan.apply(u), plan.apply(u)) and handed == []
        huge = plan.apply(1e200 * u)
        assert handed == [cells + 1]
        assert np.all(np.isfinite(huge))
        assert np.max(np.abs(huge / 1e200 - want)) <= 1e-14
