"""The monotone iteration: oracles, invariants, classification, residuals."""

import csv
import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlburgers import convolve as cv
from nlburgers import kernels as kk
from nlburgers import waves as wv

EXP1 = kk.exponential_kernel(1.0)

# a bimodal table: triangular peaks at +-2 of half-width 0.5
_Y = np.linspace(-3.0, 3.0, 61)
BIMODAL = kk.tabulated_kernel(
    _Y, np.maximum(1.0 - np.abs(np.abs(_Y) - 2.0) / 0.5, 0.0), renormalize=True)


def dense_g_profile(kernel, u_c, eps, probes):
    """g on the probes and its x -> 0 limit by the dense z-sum: 8193
    trapezoid nodes on [-r, r], each increment formed for every probe.
    The oracle for waves._g_profile."""
    r = kernel.radius(1e-13)
    z = np.linspace(-r, r, 8193)
    kz = kernel.density(z) * (z[1] - z[0])
    kz[[0, -1]] *= 0.5
    num = np.empty(probes.size)
    for i0 in range(0, probes.size, 256):
        x = probes[i0:i0 + 256, None]
        diff = np.arctan(eps * (x - z[None, :])) - np.arctan(eps * x)
        num[i0:i0 + 256] = -(diff @ kz)
    den = (2.0 * u_c / np.pi) * np.arctan(eps * probes) * eps / (1.0 + (eps * probes) ** 2)
    limit = (np.pi * eps / (2.0 * u_c)) * float(np.sum(z * z * kz / (1.0 + (eps * z) ** 2)))
    return num / den, limit


def dense_jump_identity(profile, kernel):
    """| int y K(y) int_0^1 u(y t) dt dy + u_c^2 / 2 | by the dense double
    trapezoid sum on 8193 y nodes x 257 t nodes.  The oracle for
    waves.jump_identity."""
    grid = profile.grid
    u_c = profile.params.u_c
    r = min(kernel.radius(1e-13), grid.length)
    y = np.linspace(-r, r, 8193)
    t = np.linspace(0.0, 1.0, 257)
    wy = np.full(y.size, y[1] - y[0])
    wt = np.full(t.size, t[1] - t[0])
    wy[[0, -1]] *= 0.5
    wt[[0, -1]] *= 0.5
    z = y[:, None] * t[None, :]
    u_z = np.interp(z.ravel(), grid.full_nodes(), profile.odd_component(),
                    left=u_c, right=-u_c)
    inner = (u_z.reshape(z.shape) * wt).sum(axis=1)
    return abs(float(np.sum(wy * y * kernel.density(y) * inner)) + 0.5 * u_c ** 2)


def exact_recurrence(r, b, x0):
    """x_{i+1} = r_i x_i + b_i in exact arithmetic on the float inputs,
    each node within an ulp of its exact value.  Every float is an integer
    times a power of two, so the running value is one integer and one
    exponent: the exact Fraction recurrence without its gcd reductions."""
    def dyadic(v):
        mantissa, exponent = math.frexp(v)
        return int(mantissa * 2.0 ** 53), exponent - 53

    num, exp = dyadic(x0)
    out = [x0]
    for ri, bi in zip(r.tolist(), b.tolist()):
        rn, re = dyadic(ri)
        bn, be = dyadic(bi)
        num, exp = num * rn, exp + re
        if be >= exp:
            num += bn << (be - exp)
        else:
            num, exp = (num << (exp - be)) + bn, be
        # the 64 leading bits, rounded to a float
        shift = max(0, num.bit_length() - 64)
        out.append(math.ldexp(num >> shift, exp + shift))
    return np.array(out)


def scalar_recurrence(r, b, x0):
    want = np.empty(r.size + 1)
    want[0] = x0
    for i in range(r.size):
        want[i + 1] = r[i] * want[i] + b[i]
    return want


def overlap_taps(quad):
    """Q = ceil((2m + 1)/p): the probe spacings one z window spans."""
    _, z, _, p = quad
    return -(-(z.size - 2) // p)


def certificate_inputs(kernel, rho, n):
    """(u_c, eps_0, probes, g, g_limit) on the grid solve_wave would use
    for amplitude rho 4 M1 at n nodes, at the starting candidate eps."""
    amplitude = rho * 4.0 * kernel.m1
    params = wv.WaveParams(0.5 * amplitude, -0.5 * amplitude)
    quad = wv._z_quadrature(kernel, wv.default_length(kernel, params, n))
    eps = params.u_c / (np.pi * kernel.m2)
    g, g_limit = wv._g_profile(quad, params.u_c, eps)
    return params.u_c, eps, quad[0], g, g_limit


class TestParams:
    def test_speed_and_amplitude(self):
        p = wv.WaveParams(2.0, 0.0)
        assert p.s == 1.0
        assert p.u_c == 1.0
        assert p.amplitude == 2.0

    @given(u_minus=st.floats(-10, 10), gap=st.floats(1e-6, 20))
    @settings(max_examples=50, deadline=None)
    def test_states_reconstruct_from_speed_and_amplitude(self, u_minus, gap):
        p = wv.WaveParams(u_minus, u_minus - gap)
        scale = max(1.0, abs(p.s) + p.u_c)
        assert p.s + p.u_c == pytest.approx(p.u_minus, abs=4e-16 * scale)
        assert p.s - p.u_c == pytest.approx(p.u_plus, abs=4e-16 * scale)

    def test_rejects_flat_and_increasing(self):
        with pytest.raises(wv.ParamsError):
            wv.WaveParams(1.0, 1.0)
        with pytest.raises(wv.ParamsError):
            wv.WaveParams(-1.0, 1.0)
        with pytest.raises(wv.ParamsError):
            wv.WaveParams(float("nan"), 0.0)


class TestSupersolution:
    @pytest.mark.parametrize("u_c", [1.0, 2.5])
    def test_constant_at_half_amplitude(self, u_c):
        grid = cv.HalfLineGrid(30.0, 256)
        field = wv.supersolution(wv.WaveParams(u_c, -u_c), grid)
        assert field.shape == (grid.n + 1,)
        assert np.all(field == u_c)

    def test_convolved_supersolution_closed_form(self):
        # L and N chosen so x = -1 is a node
        grid = cv.HalfLineGrid(32.0, 4096)
        params = wv.WaveParams(1.0, -1.0)
        out = cv.OddConvolver(EXP1, grid).apply_values(
            wv.supersolution(params, grid), params.u_c)
        i = np.argmin(np.abs(grid.nodes() + 1.0))
        assert abs(grid.nodes()[i] + 1.0) <= 1e-12
        assert out[i] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-10)


class TestSubsolution:
    def test_initial_epsilon_freeze(self):
        grid = cv.HalfLineGrid(46.0, 1024)
        spec = wv.subsolution(wv.WaveParams(1.0, -1.0), EXP1, grid)
        # candidate u_c / (pi M2) = 1/(2 pi) already satisfies g <= 1 here
        assert spec.halvings == 0
        assert spec.epsilon == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)
        assert spec.g_sup <= 1.0
        assert spec.g_limit <= 1.0

    def test_anchors(self):
        grid = cv.HalfLineGrid(46.0, 1024)
        params = wv.WaveParams(1.0, -1.0)
        spec = wv.subsolution(params, EXP1, grid)
        samples = spec.samples(grid)
        assert samples[-1] == 0.0          # s_sub(0) = 0
        assert np.all(np.diff(samples) <= 0.0)
        assert np.all(samples <= params.u_c)
        # arctan tail: |s_sub(x) - u_c| <= 2 u_c / (pi eps |x|)
        x_far = -1e6
        val = (2.0 * params.u_c / np.pi) * np.arctan(-spec.epsilon * x_far)
        assert abs(val - params.u_c) <= 2.0 * params.u_c / (np.pi * spec.epsilon * 1e6)

    @pytest.mark.parametrize("n", [512, 2048])
    @pytest.mark.parametrize("rho", [0.25, 1.1, 1.5, 4.0])
    def test_uniform_matches_closed_form(self, rho, n):
        # int K(z) arctan(eps (x - z)) dz = (F(eps (x + a)) - F(eps (x - a)))
        # / (2 a eps), F(u) = u arctan u - log1p(u^2)/2; the density jumps
        # at +-a, where the end cells must carry its full mass
        a = 1.0
        u_c, eps, x, g, _ = certificate_inputs(kk.uniform_kernel(a), rho, n)

        def big_f(u):
            return u * np.arctan(u) - 0.5 * np.log1p(u * u)

        conv = (big_f(eps * (x + a)) - big_f(eps * (x - a))) / (2.0 * a * eps)
        den = (2.0 * u_c / np.pi) * np.arctan(eps * x) * eps / (1.0 + (eps * x) ** 2)
        assert np.max(np.abs(g - (np.arctan(eps * x) - conv) / den)) <= 1e-7

    @pytest.mark.parametrize("rho", [1.1, 4.0])
    @pytest.mark.parametrize(
        "kernel",
        [EXP1, kk.exponential_kernel(0.5), kk.gaussian_kernel(1.0),
         kk.triangular_kernel(1.0)],
        ids=["exp:k=1", "exp:k=0.5", "gauss:sigma=1", "tri:a=1"])
    def test_matches_dense_oracle(self, kernel, rho):
        u_c, eps, x, g, g_limit = certificate_inputs(kernel, rho, 512)
        g_dense, limit_dense = dense_g_profile(kernel, u_c, eps, x)
        assert abs(float(np.max(g)) - float(np.max(g_dense))) <= 1e-9
        assert abs(g_limit - limit_dense) <= 1e-9

    @pytest.mark.parametrize("amplitude", [1e-3, 4e-3])
    def test_small_amplitude_keeps_the_limit(self, amplitude):
        # eps L is a few 1e-3: near x = 0 the increment is a ~1e-14
        # difference of arctans, and g must still reach its closed-form limit
        params = wv.WaveParams(0.5 * amplitude, -0.5 * amplitude)
        grid = cv.HalfLineGrid(wv.default_length(EXP1, params, 4096), 4096)
        spec = wv.subsolution(params, EXP1, grid)
        assert abs(spec.g_sup - spec.g_limit) <= 1e-7

    def test_large_amplitude_matches_dense_oracle(self):
        # u_c = 1000: eps L ~ 4e6, arctan saturates over most of the domain
        u_c, eps, x, g, _ = certificate_inputs(EXP1, 500.0, 1024)
        assert u_c == pytest.approx(1000.0)
        g_dense, _ = dense_g_profile(EXP1, u_c, eps, x)
        assert float(np.max(g)) == pytest.approx(float(np.max(g_dense)), rel=1e-6)

    @pytest.mark.parametrize(
        "case", ["bimodal_table", "uniform_u_c_1000", "uniform_polyphase_widest"])
    def test_memory_bounded_on_long_domains(self, case):
        if case == "bimodal_table":
            # L = 25 u_c = 1250, and the probe spacing holds ~1667 z steps
            kernel, params, n = BIMODAL, wv.WaveParams(50.0, -50.0), 512
        elif case == "uniform_u_c_1000":
            # L = 25000: the probe windows [x - 1, x + 1] do not overlap
            kernel = kk.uniform_kernel(1.0)
            params, n = wv.WaveParams(1000.0, -1000.0), 1024
        else:
            # the polyphase path at its most phases: p = 206, Q = 40
            kernel = kk.uniform_kernel(1.0)
            params, n = wv.WaveParams(2.05, -2.05), 4096
            quad = wv._z_quadrature(kernel, wv.default_length(kernel, params, n))
            assert overlap_taps(quad) >= wv.POLYPHASE_MIN_TAPS
        grid = cv.HalfLineGrid(wv.default_length(kernel, params, n), n)
        tracemalloc.start()
        try:
            wv.subsolution(params, kernel, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize(
        "kernel, u_c, n",
        [(EXP1, 0.5, 512),                           # p = 7
         (kk.gaussian_kernel(1.0), 4.0 * np.sqrt(8.0 / np.pi), 512),  # p = 86
         (kk.uniform_kernel(1.0), 1.1, 512),         # p = 112
         (kk.uniform_kernel(1.0), 1.9, 4096),        # p = 191
         (kk.uniform_kernel(1.0), 4.0, 512),         # p = 421
         (kk.triangular_kernel(1.0), 8.0 / 3.0, 512),  # p = 269
         (BIMODAL, 50.0, 512),                       # p = 1667
         (kk.uniform_kernel(1.0), 1000.0, 1024)],    # p = 100000, Q = 1
        ids=["exp:k=1", "gauss", "uniform-1.1", "uniform-1.9", "uniform-4",
             "tri", "bimodal", "uniform-1000"])
    def test_polyphase_and_strided_paths_agree(self, monkeypatch, kernel, u_c, n):
        params = wv.WaveParams(u_c, -u_c)
        quad = wv._z_quadrature(kernel, wv.default_length(kernel, params, n))
        eps = u_c / (np.pi * kernel.m2)
        monkeypatch.setattr(wv, "POLYPHASE_MIN_TAPS", 1)
        g_fft, limit_fft = wv._g_profile(quad, u_c, eps)
        monkeypatch.setattr(wv, "POLYPHASE_MIN_TAPS", 2**62)
        g_strided, limit_strided = wv._g_profile(quad, u_c, eps)
        assert limit_fft == limit_strided
        # g = num/den, and num is a difference of sums of terms below pi/2,
        # so either path carries up to ~1e-14 of absolute rounding in num;
        # that term decides only where den is tiny: at u_c = 1000 the far
        # probes' g sits 3e-7 from a long-double sum on both paths
        x = quad[0]
        den = (2.0 * u_c / np.pi) * np.arctan(eps * x) * eps / (1.0 + (eps * x) ** 2)
        tol = (1e-10 * np.maximum(1.0, np.abs(g_strided))
               + 256 * np.finfo(float).eps / np.abs(den))
        assert np.all(np.abs(g_fft - g_strided) <= tol)

    @pytest.mark.parametrize("failing", [1, 3])
    @pytest.mark.parametrize("part", ["probes", "limit"])
    def test_halves_eps_while_g_exceeds_one(self, monkeypatch, failing, part):
        # no scanned shape needs a halving: force g above 1, on the probes
        # or in the x -> 0 limit, for the first `failing` candidates
        evaluate, seen = wv._g_profile, []

        def g_profile(quad, u_c, eps):
            seen.append(eps)
            g, limit = evaluate(quad, u_c, eps)
            if len(seen) <= failing:
                return (g + 1.0, limit) if part == "probes" else (g, limit + 1.0)
            return g, limit

        monkeypatch.setattr(wv, "_g_profile", g_profile)
        params = wv.WaveParams(1.0, -1.0)
        grid = cv.HalfLineGrid(46.0, 1024)
        spec = wv.subsolution(params, EXP1, grid)
        eps0 = params.u_c / (np.pi * EXP1.m2)
        assert spec.halvings == failing
        assert spec.epsilon == eps0 / 2**failing
        assert seen == [eps0 / 2**j for j in range(failing + 1)]
        assert max(spec.g_sup, spec.g_limit) <= 1.0

    def test_small_amplitude_failure_names_both_causes(self):
        # at u_c = 1e-8 the numerator of g is at the rounding level of its
        # sums, and halving eps only makes it worse; 1e-7 still certifies
        grid = cv.HalfLineGrid(wv.default_length(EXP1, wv.WaveParams(1e-8, -1e-8), 1024),
                               1024)
        with pytest.raises(wv.SubsolutionError) as info:
            wv.subsolution(wv.WaveParams(1e-8, -1e-8), EXP1, grid)
        message = str(info.value)
        eps_last = 1e-8 / (np.pi * EXP1.m2) / 2**wv.SUBSOLUTION_MAX_HALVINGS
        assert "u_c = 1.000e-08" in message
        assert f"last eps = {eps_last:.3e}" in message
        assert "g_sup = " in message
        assert "kernel tail" in message and "rounding level" in message
        assert wv.subsolution(wv.WaveParams(1e-7, -1e-7), EXP1, grid).halvings == 0

    def test_raises_after_the_last_halving(self, monkeypatch):
        seen = []

        def g_profile(quad, u_c, eps):
            seen.append(eps)
            return np.full(quad[0].size, 2.0), 0.5

        monkeypatch.setattr(wv, "_g_profile", g_profile)
        with pytest.raises(wv.SubsolutionError):
            wv.subsolution(wv.WaveParams(1.0, -1.0), EXP1, cv.HalfLineGrid(46.0, 1024))
        assert len(seen) == wv.SUBSOLUTION_MAX_HALVINGS + 1


def products_allowed(decay):
    """Whether _advance would run this march on running products."""
    return decay.size >= 2 and np.sum(decay[:-1]) <= wv.PRODUCT_DECAY


def march_spies(monkeypatch):
    """Record (path, r, b, x0) for every scan _advance runs."""
    calls = []
    for name in ("_scan", "_product_scan"):
        def spy(r, b, x0, name=name, scan=getattr(wv, name)):
            calls.append((name, r.copy(), b.copy(), x0))
            return scan(r, b, x0)
        monkeypatch.setattr(wv, name, spy)
    return calls


def decay_at(u, target):
    """The cell width h at which the interior decay of u is target: each
    theta is h times a function of u alone."""
    u0, u1 = u[:-2], u[1:-1]
    du = u0 - u1
    per_h = np.sum(np.log1p(du / u1) / du)
    return target / per_h


class TestMarchInternals:
    def test_scan_matches_scalar_recurrence(self):
        # sizes below, at and just past a power of two
        rng = np.random.default_rng(5)
        for n in (400, 1, 2, 3, 4097):
            decay = rng.uniform(0.0, 3.0, n)
            if n > 200:
                decay[50] = 500.0     # r ~ 7e-218: the cell all but forgets its past
                decay[200] = 2e6      # exp underflows, r = 0 cuts off the past
            r = np.exp(-decay)
            b = rng.uniform(0.0, 0.1, n)
            want = scalar_recurrence(r, b, 0.8)
            scans = [wv._scan] + ([wv._product_scan] if products_allowed(decay) else [])
            for scan in scans:
                np.testing.assert_allclose(scan(r, b, 0.8), want, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("max_decay", [2.5, 40.0])
    def test_scan_matches_exact_recurrence(self, max_decay):
        # the recurrence in exact rational arithmetic on the float inputs;
        # the doubling rounds keep the relative error at a few ulps, and so
        # do the running products where the decay (358 at 2.5) allows them
        rng = np.random.default_rng(11)
        decay = rng.uniform(0.0, max_decay, 300)
        r = np.exp(-decay)
        b = rng.uniform(0.0, 0.1, 300)
        x = Fraction(0.8)
        want = [x]
        for ri, bi in zip(r, b):
            x = Fraction(float(ri)) * x + Fraction(float(bi))
            want.append(x)
        want = np.array([float(v) for v in want])
        scans = [wv._scan] + ([wv._product_scan] if products_allowed(decay) else [])
        assert len(scans) == (2 if max_decay == 2.5 else 1)
        for scan in scans:
            got = scan(r, b, 0.8)
            assert np.max(np.abs(got - want) / want) <= 4e-15

    def test_product_scan_matches_exact_recurrence(self):
        # a march's decay: theta ~ U[0.005, 0.04] (sum 92) and an origin
        # cell with r = 0, as on a continuous wave
        rng = np.random.default_rng(7)
        n = 4096
        r = np.exp(-rng.uniform(0.005, 0.04, n))
        r[-1] = 0.0
        b = rng.uniform(0.0, 0.1, n)
        want = exact_recurrence(r, b, 0.8)
        got = wv._product_scan(r, b, 0.8)
        assert np.max(np.abs(got - want) / want) <= 4e-15

    @pytest.mark.parametrize("side", [-1, 1])
    def test_march_path_at_the_decay_bound(self, monkeypatch, side):
        # the interior decay just below the bound runs on products, just
        # above it by the doubling, bit for bit; both match the recurrence
        rng = np.random.default_rng(13)
        n = 512
        u = np.sort(rng.uniform(0.05, 1.0, n + 1))[::-1].copy()
        u[-1] = 0.0
        g = rng.uniform(0.0, 1.0, n + 1)
        h = decay_at(u, wv.PRODUCT_DECAY * (1.0 + side * 1e-6))
        calls = march_spies(monkeypatch)
        got = wv._advance(u, g, h, 1.0)
        [(path, r, b, x0)] = calls
        assert path == ("_scan" if side > 0 else "_product_scan")
        np.testing.assert_allclose(got, scalar_recurrence(r, b, x0), rtol=1e-12)
        if side > 0:
            np.testing.assert_array_equal(got, wv._scan(r, b, x0))

    def test_product_scan_huge_sources_stay_finite(self, monkeypatch):
        # b / p reaches 1e200 e^400, beyond the float range: the products
        # path hands the march to the doubling without a RuntimeWarning
        rng = np.random.default_rng(17)
        n = 512
        u = np.sort(rng.uniform(0.05, 1.0, n + 1))[::-1].copy()
        u[-1] = 0.0
        h = decay_at(u, 0.999 * wv.PRODUCT_DECAY)
        calls = march_spies(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = wv._advance(u, np.full(n + 1, 1e200), h, 1e200)
        assert [c[0] for c in calls] == ["_product_scan", "_scan"]
        _, r, b, x0 = calls[0]
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, scalar_recurrence(r, b, x0), rtol=1e-12)

    @pytest.mark.parametrize("amplitude, n, unused", [
        (0.5, 4096, "_scan"),            # decay 92-128 per march
        (0.005, 1024, "_product_scan"),  # decay in the thousands
    ])
    def test_march_path_by_amplitude(self, monkeypatch, amplitude, n, unused):
        def refuse(r, b, x0):
            raise AssertionError(f"{unused} entered")

        monkeypatch.setattr(wv, unused, refuse)
        profile, _ = wv.solve_wave(EXP1, wv.WaveParams(amplitude, -amplitude), n=n)
        assert profile.converged

    def test_advance_matches_ode_integration(self):
        # the product rule is exact for piecewise-linear u and g; a tight
        # ODE integration of the same interpolants is an independent check
        from scipy.integrate import solve_ivp

        def ode_march(x, u_n, g, left_value):
            def rhs(t, w):
                return [(np.interp(t, x, g) - w[0]) / np.interp(t, x, u_n)]

            # one integration per cell, so every interpolation kink falls on
            # a step boundary and the integrand is smooth inside each solve
            want = [left_value]
            for a, b in zip(x[:-1], x[1:]):
                sol = solve_ivp(rhs, [a, b], [want[-1]], rtol=1e-13,
                                atol=1e-15, method="DOP853")
                want.append(sol.y[0, -1])
            return want

        grid = cv.HalfLineGrid(30.0, 256)
        x = grid.nodes()
        u_n = 1.0 - 0.45 * np.exp(x)
        g = cv.OddConvolver(EXP1, grid, 4).apply_values(u_n, 1.0)
        np.testing.assert_allclose(wv._advance(u_n, g, grid.h, 1.0),
                                   ode_march(x, u_n, g, 1.0), rtol=0, atol=1e-12)

        # two cells at slope -1 +- 3e-7, a near-flat cell and a flat one:
        # the weights have no special regime there
        h = 0.01
        x = h * np.arange(6)
        u_n = np.array([0.05, 0.04 - 3e-9, 0.03 - 6e-9, 0.03 - 6.2e-9,
                        0.02, 0.02])
        g = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.3])
        np.testing.assert_allclose(wv._advance(u_n, g, h, 0.04),
                                   ode_march(x, u_n, g, 0.04), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("origin", [0.0, 5e-324, 1e-310])
    def test_advance_origin_limit(self, origin):
        # the origin sample may underflow to zero or to a denormal; the cell
        # then takes its analytic limit w_{i+1} = g_{i+1}
        u_n = np.array([1.0, 0.5, 0.02, origin])
        g = np.array([0.9, 0.6, 0.3, 0.25])
        out = wv._advance(u_n, g, 0.01, 1.0)
        assert np.all(np.isfinite(out))
        assert abs(out[-1] - g[-1]) <= 1e-15


class TestIterateOnce:
    def test_first_iterate_closed_form(self):
        grid = cv.HalfLineGrid(30.0, 4096)
        params = wv.WaveParams(1.0, -1.0)
        u1 = wv.iterate_once(wv.supersolution(params, grid), params,
                             cv.OddConvolver(EXP1, grid))
        exact = 1.0 - 0.5 * np.exp(grid.nodes())
        assert np.max(np.abs(u1 - exact)) <= 5e-4
        assert u1[-1] == pytest.approx(0.5, abs=5e-4)
        assert u1[0] == params.u_c  # imposed boundary value

    def test_first_iterate_descends(self):
        grid = cv.HalfLineGrid(30.0, 1024)
        for ker in (EXP1, kk.gaussian_kernel(1.0), kk.triangular_kernel(1.0)):
            params = wv.WaveParams(1.25, -1.25)
            u0 = wv.supersolution(params, grid)
            u1 = wv.iterate_once(u0, params, cv.OddConvolver(ker, grid))
            assert np.all(u1 <= u0 + 1e-12)
            assert np.all(np.diff(u1) <= 1e-12)

    def test_interior_floor_guard(self):
        grid = cv.HalfLineGrid(30.0, 256)
        vals = np.full(grid.n + 1, 1.0)
        vals[100:] = 1e-13  # interior collapse
        with pytest.raises(wv.IterateCollapseError):
            wv.iterate_once(vals, wv.WaveParams(1.0, -1.0), cv.OddConvolver(EXP1, grid))

    def test_zero_origin_sample_is_tolerated(self):
        grid = cv.HalfLineGrid(30.0, 256)
        vals = 1.0 - 0.5 * np.exp(grid.nodes())
        vals[-1] = 0.0
        out = wv.iterate_once(vals, wv.WaveParams(1.0, -1.0),
                              cv.OddConvolver(EXP1, grid))
        assert np.all(np.isfinite(out))
        assert out[-1] >= 0.0

    def test_rejects_inadmissible_fields(self):
        # every sample check runs before the sweep, against the plan's grid
        # and the far value u_c = 1
        grid = cv.HalfLineGrid(30.0, 256)
        plan = cv.OddConvolver(EXP1, grid)
        params = wv.WaveParams(1.0, -1.0)
        good = 1.0 - 0.5 * np.exp(grid.nodes())
        non_finite = good.copy()
        non_finite[7] = np.nan
        non_positive = good.copy()
        non_positive[7:] = 0.0
        cases = {
            "one sample per grid node": good[1:],
            "finite": non_finite,
            "positive": non_positive,
            "do not exceed u_c": np.full(grid.n + 1, 1.0 + 2e-10),
            "nonincreasing": np.linspace(0.1, 1.0, grid.n + 1),
        }
        for message, vals in cases.items():
            with pytest.raises(cv.FieldError, match=message):
                wv.iterate_once(vals, params, plan)

    def test_negative_origin_sample_is_refused(self):
        grid = cv.HalfLineGrid(30.0, 256)
        vals = 1.0 - 0.5 * np.exp(grid.nodes())
        vals[-1] = -5e-324
        with pytest.raises(cv.FieldError, match="admissible fields are positive"):
            wv.iterate_once(vals, wv.WaveParams(1.0, -1.0), cv.OddConvolver(EXP1, grid))

    def test_field_breaking_two_rules_names_the_first(self):
        # increasing and above u_c: _check tests monotonicity first
        grid = cv.HalfLineGrid(30.0, 256)
        vals = np.linspace(0.5, 2.0, grid.n + 1)
        with pytest.raises(cv.FieldError, match="admissible fields are nonincreasing"):
            wv.iterate_once(vals, wv.WaveParams(1.0, -1.0), cv.OddConvolver(EXP1, grid))


@st.composite
def check_inputs(draw):
    """(w, above, floor, ceiling): a clean iterate w with up to three
    samples moved to, or one ulp either side of, a threshold of the
    iterate check, or to NaN or +-inf."""
    size = draw(st.integers(2, 9))
    unit = st.floats(0.0, 1.0)
    above = np.sort(draw(st.lists(st.floats(0.5, 1.0), min_size=size,
                                  max_size=size)))[::-1]
    w = above * (1.0 - 1e-3 * draw(unit))
    slack = st.one_of(st.sampled_from([0.0, 1.0]), unit)
    floor = w * (1.0 - np.array(draw(st.lists(slack, min_size=size, max_size=size))))
    ceiling = float(w[0]) + draw(st.sampled_from([0.0, 0.25, 1.0, 5e9])) * wv.INVARIANT_TOL
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, size - 1))
        prev = w[i - 1] if i else w[0]
        # a rise under the tolerance moves the max off the first sample
        level = draw(st.sampled_from([
            above[i] + wv.INVARIANT_TOL, prev + wv.INVARIANT_TOL,
            prev + 0.5 * wv.INVARIANT_TOL, wv.INVARIANT_TOL, wv.FLOOR_DELTA,
            floor[i], ceiling, 0.0, -0.0, np.nan, np.inf, -np.inf]))
        if np.isfinite(level):
            level = np.nextafter(level, draw(st.sampled_from([-np.inf, level, np.inf])))
        w[i] = level
    return w, above, floor, ceiling


def first_broken_rule(w, above, floor, ceiling):
    """The rule _check names, by scalar loops in _check's order, or None."""
    tol = wv.INVARIANT_TOL
    rules = [
        (wv.RULE_FINITE, all(math.isfinite(float(x) - float(a))
                             for x, a in zip(w, above))),
        (wv.RULE_NONINCREASING, all(float(b) - float(a) <= tol
                                    for a, b in zip(w[:-1], w[1:]))),
        (wv.RULE_CEILING, all(float(x) <= ceiling for x in w)),
        (wv.RULE_POSITIVE, all(x >= wv.FLOOR_DELTA for x in w[:-1]) and w[-1] >= 0.0),
        (wv.RULE_FLOOR, all(float(x) >= float(f) for x, f in zip(w, floor))),
        (wv.RULE_DESCENT, all(float(x) <= float(a) + tol for x, a in zip(w, above))),
    ]
    return next((rule for rule, kept in rules if not kept), None)


def assert_check_agrees(w, above, floor, ceiling):
    """_check names the rule first_broken_rule names, and its sup-diff is
    max |w - above|; returns the rule."""
    rule, sup_diff = wv._check(w, above, floor, ceiling)
    assert rule == first_broken_rule(w, above, floor, ceiling)
    want = float(np.max(np.abs(w - above)))
    assert sup_diff == want or (np.isnan(sup_diff) and np.isnan(want))
    return rule


TOL = wv.INVARIANT_TOL


class TestIterateCheck:
    @given(check_inputs())
    @settings(max_examples=1000, deadline=None)
    def test_short_circuit_pass_agrees_with_the_scalar_rules(self, inputs):
        assert_check_agrees(*inputs)

    @pytest.mark.parametrize("w, floor, ceiling, clean", [
        ([0.5, TOL, 2.0 * TOL], 0.0, 1.0, True),              # a step of exactly TOL
        ([0.5, wv.FLOOR_DELTA, 0.0], 0.0, 1.0, True),
        ([0.5, 0.25, 0.0], [0.5, 0.25, 0.0], 0.5, True),     # on the floor and the ceiling
        ([1.0 + TOL] * 3, 0.0, 2.0, True),                   # a rise of TOL over above
        # a rise under TOL moves the max off the first sample (past the
        # ceiling), and the interior min off the last interior one (below
        # the positivity floor)
        ([0.5, 0.5 + 0.5 * TOL, 0.1], 0.0, 0.5, False),
        ([0.5, 0.5 * wv.FLOOR_DELTA, 0.5 * wv.FLOOR_DELTA + 0.5 * TOL, 0.0], 0.0, 1.0,
         False),
    ])
    def test_exact_thresholds(self, w, floor, ceiling, clean):
        w = np.array(w)
        floor = np.broadcast_to(np.asarray(floor, dtype=float), w.shape)
        rule = assert_check_agrees(w, np.ones_like(w), floor, ceiling)
        assert rule == (None if clean else
                        wv.RULE_CEILING if ceiling == 0.5 else wv.RULE_POSITIVE)

    @pytest.mark.parametrize("w, above, floor, rule", [
        ([0.5, np.inf, 0.1], 1.0, 0.0, wv.RULE_FINITE),            # and increasing
        ([0.5, 2.0, 0.1], 1.0, 0.0, wv.RULE_NONINCREASING),        # and above u_c
        ([2.0, 0.5, 1e-13, 0.0], 2.0, 0.0, wv.RULE_CEILING),       # and collapsed
        ([0.5, 0.4, 1e-13, 0.0], 1.0, 0.3, wv.RULE_POSITIVE),      # and below the floor
        ([0.5, 0.4, 0.1], 0.4, [0.0, 0.0, 0.2], wv.RULE_FLOOR),    # and risen
        ([0.5, 0.4, 0.1], 0.4, 0.0, wv.RULE_DESCENT),
    ])
    def test_first_broken_rule_is_named(self, w, above, floor, rule):
        w = np.array(w)
        above, floor = (np.broadcast_to(np.asarray(a, dtype=float), w.shape)
                        for a in (above, floor))
        assert assert_check_agrees(w, above, floor, 1.0) == rule

    @pytest.mark.parametrize("tamper, rule", [
        # one sample above u_c: also a rise over the input, and a step up
        (lambda out: out.__setitem__(5, 2.0), wv.RULE_NONINCREASING),
        # all samples scaled up: past u_c at the far end, and a rise there
        (lambda out: out.__imul__(1.001), wv.RULE_CEILING),
    ], ids=["step-ceiling-descent", "ceiling-descent"])
    def test_sweep_breaking_two_rules_names_the_first(self, monkeypatch, tamper, rule):
        plain = wv._sweep

        def tampered(values, u_c, convolver):
            out = plain(values, u_c, convolver)
            tamper(out)
            return out

        monkeypatch.setattr(wv, "_sweep", tampered)
        with pytest.raises(wv.SchemeInvariantError,
                           match=f"sweep 1 breaks the iterate rule: samples {rule}$"):
            wv.solve_wave(EXP1, wv.WaveParams(1.0, -1.0), n=256)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sweep_output_is_refused(self, monkeypatch, bad):
        # the sup-diff carries the finiteness check the sweep no longer makes
        plain = wv._sweep

        def tampered(values, u_c, convolver):
            out = plain(values, u_c, convolver)
            out[7:9] = bad
            return out

        monkeypatch.setattr(wv, "_sweep", tampered)
        with pytest.raises(wv.SchemeInvariantError, match="non-finite intermediate"):
            wv.solve_wave(EXP1, wv.WaveParams(1.0, -1.0), n=256)


class TestSolve:
    def test_small_discontinuous_wave(self):
        params = wv.WaveParams(1.0, -1.0)
        profile, trace = wv.solve_wave(EXP1, params, n=512)
        assert profile.converged
        assert profile.final_sup_diff <= 1e-8
        assert sum(trace.monotone_violations) == 0
        assert sum(trace.ordering_violations) == 0
        assert profile.jump > 0.0
        # slope bound u' = K*u/u - 1 in [-1, 0]
        du = np.diff(profile.values) / profile.grid.h
        assert np.min(du) >= -1.0 - 1e-6
        assert np.max(du) <= 1e-6

    def test_full_line_reflection_identity(self):
        params = wv.WaveParams(2.0, 0.0)
        profile, _ = wv.solve_wave(EXP1, params, n=512)
        x, big_u = profile.full_line()
        mirror = big_u + big_u[::-1] - 2.0 * params.s
        assert np.max(np.abs(mirror)) <= 4e-16 * max(1.0, abs(params.s))
        assert big_u[x.size // 2] == params.s

    def test_rankine_hugoniot_shift(self):
        profile, _ = wv.solve_wave(EXP1, wv.WaveParams(2.0, 0.0), n=512)
        assert profile.params.s == 1.0
        x, big_u = profile.full_line()
        u_comp = profile.odd_component()
        np.testing.assert_allclose(big_u, 1.0 + u_comp, rtol=0, atol=0)

    def test_max_iter_returns_indeterminate(self):
        profile, trace = wv.solve_wave(EXP1, wv.WaveParams(1.0, -1.0),
                                       n=512, max_iter=3)
        assert not profile.converged
        assert profile.classification == "indeterminate"
        assert trace.iterations == 3

    def test_centering_invariance(self):
        a, c = 1.0, 0.5
        p1, _ = wv.solve_wave(EXP1, wv.WaveParams(a, -a), n=512)
        p2, _ = wv.solve_wave(EXP1, wv.WaveParams(a + c, -a + c), n=512)
        assert np.max(np.abs(p1.values - p2.values)) <= 1e-12
        assert (p2.params.s - p1.params.s) == c

    def test_iterate_below_subsolution_is_fatal(self, monkeypatch):
        # the per-sweep ordering check is the only consumer of the
        # subsolution samples; a barrier at u_c must trip it on sweep 1
        def barrier_at_u_c(spec, grid):
            return np.full(grid.n + 1, spec.u_c)

        monkeypatch.setattr(wv.SubsolutionSpec, "samples", barrier_at_u_c)
        with pytest.raises(wv.SchemeInvariantError,
                           match=f"sweep 1 breaks the iterate rule: samples {wv.RULE_FLOOR}"):
            wv.solve_wave(EXP1, wv.WaveParams(1.0, -1.0), n=256)

    def test_sweep_output_below_the_floor_raises_at_that_sweep(self, monkeypatch):
        # sweep 2's output gets one interior sample at 1e-13 and origin 0:
        # still below its input, nonincreasing and above a zero barrier, so
        # only the positivity floor catches it, before any further sweep
        monkeypatch.setattr(wv.SubsolutionSpec, "samples",
                            lambda spec, grid: np.zeros(grid.n + 1))
        plain, outputs = wv._sweep, []

        def tampered(values, u_c, convolver):
            outputs.append(plain(values, u_c, convolver))
            if len(outputs) == 2:
                outputs[-1][-2:] = 1e-13, 0.0
            return outputs[-1]

        monkeypatch.setattr(wv, "_sweep", tampered)
        with pytest.raises(wv.IterateCollapseError,
                           match=r"floor 1e-12 \(min interior sample 1\.000e-13"):
            wv.solve_wave(EXP1, wv.WaveParams(1.0, -1.0), n=256)
        assert len(outputs) == 2

    @pytest.mark.parametrize("u_c, sweep, rule", [
        (0.25, 1, wv.RULE_FLOOR),
        (1.0, 2, wv.RULE_DESCENT),
    ], ids=["0.25-floor", "1.0-descent"])
    def test_monotone_decay_is_load_bearing(self, u_c, sweep, rule,
                                            monkeypatch):
        # peaks at +-2: the kernel fails monotone_decay alone.  A validation
        # forced to pass lets the solver run on it, and an iterate rule breaks
        y = np.arange(-6, 7) * 0.5
        kernel = kk.tabulated_kernel(y, (np.abs(y) == 2.0).astype(float))
        report = kk.validate_kernel(kernel)
        assert [k for k, c in report.checks.items() if not c.passed] == ["monotone_decay"]
        forced = dataclasses.replace(report, checks={
            **report.checks, "monotone_decay": kk.CheckResult(True, 0.0)})
        monkeypatch.setattr(wv, "validate_kernel", lambda k: forced)
        with pytest.raises(wv.SchemeInvariantError,
                           match=f"sweep {sweep} breaks the iterate rule: samples {rule}"):
            wv.solve_wave(kernel, wv.WaveParams(u_c, -u_c), n=1024)

    def test_table_solve_reads_no_breakpoints(self, monkeypatch):
        # a table keeps its length, so snapping must not build the tuple of
        # its kinks first
        y = np.linspace(-1.0, 1.0, 21)
        kernel = kk.tabulated_kernel(y, 1.0 - np.abs(y))

        def refuse(self):
            raise AssertionError("breakpoints read for a table")

        monkeypatch.setattr(kk.Kernel, "breakpoints", refuse)
        profile, _ = wv.solve_wave(kernel, wv.WaveParams(1.0, -1.0), n=256)
        assert profile.converged

    def test_sup_diffs_are_nonincreasing(self):
        _, trace = wv.solve_wave(EXP1, wv.WaveParams(1.0, -1.0), n=512)
        assert np.all(np.diff(trace.sup_diffs[1:]) <= 1e-12)

    @pytest.mark.parametrize("solver", [wv.solve_wave, wv.classify_shock],
                             ids=lambda f: f.__name__)
    def test_invalid_kernel_rejected(self, solver):
        y = np.linspace(-6.0, 6.0, 601)
        vals = 0.5 * np.exp(-np.abs(y))
        vals[300] = -1e-3
        bad = kk.Kernel("tabulated", 0.0, 1.0, 2.0, table_y=y, table_k=vals)
        with pytest.raises(kk.KernelError):
            solver(bad, wv.WaveParams(1.0, -1.0), n=512)

    @pytest.mark.parametrize("solver", [wv.solve_wave, wv.classify_shock],
                             ids=lambda f: f.__name__)
    def test_zero_max_iter_rejected(self, solver):
        # no sweep would leave final_sup_diff at inf
        with pytest.raises(ValueError, match="max_iter"):
            solver(EXP1, wv.WaveParams(1.0, -1.0), n=64, max_iter=0)

    @pytest.mark.parametrize("solver", [wv.solve_wave, wv.classify_shock],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("tol", [np.inf, np.nan, -1e-8])
    def test_unusable_tolerance_rejected(self, solver, tol):
        # inf would report convergence after one sweep; NaN or a negative
        # tolerance would run every sweep and never converge
        with pytest.raises(ValueError, match="tol_iter"):
            solver(EXP1, wv.WaveParams(1.0, -1.0), n=64, tol_iter=tol, max_iter=20)

    @pytest.mark.parametrize("solver", [wv.solve_wave, wv.classify_shock],
                             ids=lambda f: f.__name__)
    def test_fractional_refine_rejected(self, solver):
        # L would be snapped for refine 2.5 and the plan built at refine 2
        with pytest.raises(ValueError, match="refine must be a positive integer"):
            solver(kk.uniform_kernel(1.0), wv.WaveParams(1.0, -1.0), n=512, refine=2.5)


def captured_sweeps(monkeypatch):
    """Wrap the solver's unchecked sweep _sweep so each call's (input,
    output) is appended to the returned list."""
    calls = []
    plain = wv._sweep

    def capture(values, u_c, convolver):
        out = plain(values, u_c, convolver)
        calls.append((np.array(values), out))
        return out

    monkeypatch.setattr(wv, "_sweep", capture)
    return calls


def candidate_steps(calls, trace):
    """(sweep index, share of the plain rule's step, the plain rule's step)
    for every swept candidate, from captured_sweeps' calls and the trace.

    A candidate is formed right after the accepted sweep j - 1, which made v
    from back; its rho is that sweep's sup change over the one of the
    accepted sweep before it.  The share is fitted outside the origin,
    where the candidate is never clamped."""
    kinds, diffs = trace.kinds, trace.sup_diffs
    accepted = [i for i, kind in enumerate(kinds) if kind != wv.DISCARDED_CANDIDATE]
    steps = []
    for j, kind in enumerate(kinds):
        if kind == wv.PLAIN_SWEEP:
            continue
        assert kinds[j - 1] == wv.PLAIN_SWEEP
        before = max(i for i in accepted if i < j - 1)
        rho = diffs[j - 1] / diffs[before]
        back, v = calls[j - 1]
        plain = (wv.EXTRAPOLATION_THETA * rho / (1.0 - rho)) * (back - v)
        step = (v - calls[j][0])[:-1]
        steps.append((j, np.dot(step, plain[:-1]) / np.dot(plain[:-1], plain[:-1]),
                      plain))
    return steps


class TestExtrapolation:
    # (kernel, u_c): n=4096 sweep counts at the parent commit, which swept
    # plainly from the supersolution, and the counts with extrapolation
    PINNED = [
        (kk.exponential_kernel(1.0), 0.5, 206, 63),
        (kk.gaussian_kernel(1.0), 0.5, 116, 47),
        (kk.uniform_kernel(1.0), 0.5, 51, 23),
    ]
    # (kernel, u_c, plain error): sup distance of the plain tol 1e-8 solve
    # at n=4096 from a tol 1e-14 solve, at the parent commit
    PLAIN_ERRORS = [
        (kk.exponential_kernel(1.0), 0.5, 1.65e-7),
        (kk.gaussian_kernel(1.0), 0.5, 8.42e-8),
    ]

    def test_accepted_iterates_descend_inside_the_bracket(self, monkeypatch):
        # u_c = 0.25 has both accepted and discarded candidates
        calls = captured_sweeps(monkeypatch)
        profile, trace = wv.solve_wave(EXP1, wv.WaveParams(0.25, -0.25), n=512)
        assert profile.converged
        assert {wv.CANDIDATE_SWEEP, wv.DISCARDED_CANDIDATE} <= set(trace.kinds)
        assert len(calls) == trace.iterations
        iterates = [a for (start, out), kind in zip(calls, trace.kinds)
                    if kind != wv.DISCARDED_CANDIDATE for a in (start, out)]
        np.testing.assert_array_equal(iterates[-1], profile.values)
        sub = profile.subsolution.samples(profile.grid)
        for before, after in zip(iterates, iterates[1:]):
            assert np.all(after <= before + 1e-10)
        for v in iterates:
            assert np.all(v >= sub - 1e-10)
            assert np.all(v <= 0.25 + 1e-10)

    def test_discarded_candidates_are_marked(self, monkeypatch):
        calls = captured_sweeps(monkeypatch)
        profile, trace = wv.solve_wave(kk.gaussian_kernel(1.0),
                                       wv.WaveParams(0.25, -0.25), n=512)
        assert profile.converged
        assert sum(trace.monotone_violations) + sum(trace.ordering_violations) == 0
        kinds = trace.kinds
        discarded = [i for i, kind in enumerate(kinds) if kind == wv.DISCARDED_CANDIDATE]
        assert discarded
        for i in discarded:
            # the sweep after a discard runs plainly from the last accepted
            # output, which the discarded sweep did not replace
            last = max(j for j in range(i) if kinds[j] != wv.DISCARDED_CANDIDATE)
            assert kinds[i + 1] == wv.PLAIN_SWEEP
            np.testing.assert_array_equal(calls[i + 1][0], calls[last][1])
            assert not np.array_equal(calls[i][0], calls[last][1])

    @pytest.mark.parametrize("kernel, u_c, plain, pinned", PINNED,
                             ids=["exp", "gauss", "uniform"])
    def test_sweep_count_pinned(self, kernel, u_c, plain, pinned):
        profile, _ = wv.solve_wave(kernel, wv.WaveParams(u_c, -u_c))
        assert profile.converged
        assert profile.iterations == pinned <= 0.6 * plain

    def test_candidate_failing_the_check_is_not_swept(self, monkeypatch):
        # theta = 1e9 throws every candidate, at each of its halvings, far
        # below the bracket: each is refused before its sweep, and the solve
        # takes the plain sweeps
        kernel, u_c, plain, _ = self.PINNED[0]
        monkeypatch.setattr(wv, "EXTRAPOLATION_THETA", 1e9)
        checked, check = [], wv._check

        def record(*args):
            checked.append(check(*args))
            return checked[-1]

        monkeypatch.setattr(wv, "_check", record)
        calls = captured_sweeps(monkeypatch)
        profile, trace = wv.solve_wave(kernel, wv.WaveParams(u_c, -u_c))
        assert profile.converged
        assert profile.iterations == len(calls) == plain
        assert set(trace.kinds) == {wv.PLAIN_SWEEP}
        # one check per sweep output, all clean; every other check refused
        # a candidate
        candidates = len(checked) - plain
        assert candidates > 0
        assert sum(rule is not None for rule, _ in checked) == candidates

    def test_solver_never_enters_the_checked_sweep(self, monkeypatch):
        # every array the solver sweeps is already checked, so it never
        # enters iterate_once's entry checks; the sweep counts are pinned
        def refuse(*args):
            raise AssertionError("the solver called iterate_once")

        monkeypatch.setattr(wv, "iterate_once", refuse)
        calls = captured_sweeps(monkeypatch)
        profile, _ = wv.solve_wave(EXP1, wv.WaveParams(0.25, -0.25), n=512)
        assert profile.converged
        assert profile.iterations == len(calls) == 204
        rec = wv.classify_shock(kk.uniform_kernel(1.0), wv.WaveParams(1.0, -1.0),
                                n=128)
        assert rec.profile.converged
        assert rec.profile.iterations == 15
        assert len(calls) == 204 + 45

    def test_candidate_clamped_at_the_origin_is_swept(self, monkeypatch):
        # at u_c = 0.369 the extrapolated origin sample drops below 0 while
        # every other sample passes the check; clamped at 0, it is swept
        calls = captured_sweeps(monkeypatch)
        profile, trace = wv.solve_wave(EXP1, wv.WaveParams(0.369, -0.369), n=512)
        assert profile.converged
        clamped = 0
        for j, share, plain in candidate_steps(calls, trace):
            v = calls[j - 1][1]
            if calls[j][0][-1] == 0.0 < v[-1]:
                assert v[-1] - share * plain[-1] < 0.0
                clamped += 1
        assert clamped > 0

    def test_refused_and_discarded_candidates_take_halved_steps(self, monkeypatch):
        # the rule replayed from the trace: a candidate starts at theta
        # halved `lowered` times and, refused there, is retried at each
        # further halving down to theta/4; a discard sets `lowered` one
        # below the discarded candidate, an accepted candidate resets it
        calls = captured_sweeps(monkeypatch)
        profile, trace = wv.solve_wave(kk.triangular_kernel(1.0),
                                       wv.WaveParams(0.246, -0.246), n=4096)
        assert profile.converged
        lowered, halved = 0, False
        retried = halved_after_discard = restored = 0
        for j, share, _ in candidate_steps(calls, trace):
            halvings = round(-np.log2(share))
            assert abs(share - 0.5**halvings) <= 1e-3
            assert lowered <= halvings <= wv.EXTRAPOLATION_HALVINGS
            retried += halvings > lowered
            halved_after_discard += lowered == halvings == 1
            restored += halved and lowered == halvings == 0
            halved = halvings > 0
            if trace.kinds[j] == wv.DISCARDED_CANDIDATE:
                lowered = min(halvings + 1, wv.EXTRAPOLATION_HALVINGS)
            else:
                lowered = 0
        assert retried > 0 and halved_after_discard > 0 and restored > 0

    @pytest.mark.parametrize("kernel, u_c, plain_error", PLAIN_ERRORS,
                             ids=["exp", "gauss"])
    def test_error_no_worse_than_plain(self, kernel, u_c, plain_error):
        params = wv.WaveParams(u_c, -u_c)
        profile, _ = wv.solve_wave(kernel, params)
        tight, _ = wv.solve_wave(kernel, params, tol_iter=1e-14)
        assert tight.converged
        error = profile.values - tight.values
        assert np.max(np.abs(error)) <= 1.5 * plain_error
        # the tight solve descends further from the stopped iterate
        assert np.min(error) >= -1e-14


class TestClassification:
    def test_strong_shock(self):
        rec = wv.classify_shock(EXP1, wv.WaveParams(2.5, -2.5), n=256)
        assert rec.measured == "discontinuous"
        assert rec.predicted_by_theorem
        assert rec.consistent
        assert rec.profile.classification == "discontinuous"

    def test_weak_wave_continuous(self):
        rec = wv.classify_shock(EXP1, wv.WaveParams(0.4, -0.4), n=256)
        assert rec.measured == "continuous"
        assert not rec.predicted_by_theorem

    def test_unconverged_is_indeterminate(self):
        rec = wv.classify_shock(EXP1, wv.WaveParams(1.0, -1.0), n=256, max_iter=3)
        assert rec.measured == "indeterminate"

    def test_refinement_study_keeps_one_snapped_length(self):
        # the N solve snaps L; the 2N and 4N solves and the record reuse it
        ker = kk.uniform_kernel(1.0)
        snapped = cv.snap_length(ker, 30.0, 256, 8)
        assert snapped != 30.0
        rec = wv.classify_shock(ker, wv.WaveParams(0.5, -0.5), n=256,
                                length=30.0)
        assert rec.length == rec.profile.grid.length == snapped


@pytest.fixture
def built(monkeypatch):
    """Plans and subsolution certificates built while the test runs."""
    counts = {"plans": 0, "certificates": 0}
    plan_init = cv.OddConvolver.__init__
    certify = wv.subsolution

    def counted_init(self, *args, **kwargs):
        counts["plans"] += 1
        plan_init(self, *args, **kwargs)

    def counted_certify(*args, **kwargs):
        counts["certificates"] += 1
        return certify(*args, **kwargs)

    monkeypatch.setattr(cv.OddConvolver, "__init__", counted_init)
    monkeypatch.setattr(wv, "subsolution", counted_certify)
    return counts


@pytest.fixture
def validations(monkeypatch):
    """Kernels passed to waves.validate_kernel while the test runs."""
    seen = []
    validate = wv.validate_kernel

    def counted(kernel, *args, **kwargs):
        seen.append(kernel)
        return validate(kernel, *args, **kwargs)

    monkeypatch.setattr(wv, "validate_kernel", counted)
    return seen


def residual_trio(profile, kernel, refine=cv.REFINE_DEFAULT):
    return (wv.pointwise_residual(profile, kernel, refine),
            wv.weak_residual(profile, kernel, refine),
            wv.flux_balance(profile, kernel, refine))


class TestReuse:
    def test_classify_certifies_once(self, built):
        params = wv.WaveParams(1.0, -1.0)
        rec = wv.classify_shock(EXP1, params, n=128)
        assert built == {"plans": 3, "certificates": 1}
        # the reused certificate is the one a fresh search finds on the
        # finest grid, samples included
        grid = rec.profile.grid
        fresh = wv.subsolution(params, EXP1, grid)
        reused = rec.profile.subsolution
        assert reused.samples(grid).shape == (grid.n + 1,)
        np.testing.assert_array_equal(reused.samples(grid), fresh.samples(grid))
        assert ((reused.epsilon, reused.g_sup, reused.g_limit, reused.halvings)
                == (fresh.epsilon, fresh.g_sup, fresh.g_limit, fresh.halvings))

    def test_classify_validates_every_solve(self, validations):
        # the certificate reused by the 2N and 4N solves carries no kernel
        # check, so each solve runs its own
        wv.classify_shock(EXP1, wv.WaveParams(1.0, -1.0), n=128)
        assert len(validations) == 3 and all(k is EXP1 for k in validations)

    def test_residuals_reuse_the_solve_plan(self, built, monkeypatch):
        profile, _ = wv.solve_wave(EXP1, wv.WaveParams(1.0, -1.0), n=512)
        assert built == {"plans": 1, "certificates": 1}
        applies = []
        apply_values = cv.OddConvolver.apply_values

        def counted_apply(self, *args):
            applies.append(self)
            return apply_values(self, *args)

        monkeypatch.setattr(cv.OddConvolver, "apply_values", counted_apply)
        reused = residual_trio(profile, EXP1)
        # one K*u per residual, each on the solve's own plan
        assert built["plans"] == 1
        assert len(applies) == 3 and all(p is profile.convolver for p in applies)
        fresh = residual_trio(dataclasses.replace(profile, convolver=None), EXP1)
        assert built["plans"] == 4
        assert reused == fresh

    @pytest.mark.parametrize("change", ["refine", "kernel", "grid"])
    def test_other_inputs_build_their_own_plan(self, built, change):
        profile, _ = wv.solve_wave(EXP1, wv.WaveParams(1.0, -1.0), n=256)
        kernel, refine = EXP1, cv.REFINE_DEFAULT
        if change == "refine":
            refine = 4
        elif change == "kernel":
            kernel = kk.exponential_kernel(1.0)   # equal, but another object
        else:
            profile = dataclasses.replace(
                profile, grid=cv.HalfLineGrid(2.0 * profile.grid.length, 256))
        before = built["plans"]
        got = residual_trio(profile, kernel, refine)
        assert built["plans"] == before + 3
        bare = dataclasses.replace(profile, convolver=None)
        assert got == residual_trio(bare, kernel, refine)

    @pytest.mark.parametrize("change", ["kernel", "u_c", "length"])
    def test_certificate_for_another_problem_refused(self, change):
        params = wv.WaveParams(1.0, -1.0)
        first, _ = wv.solve_wave(EXP1, params, n=128)
        kernel, length = EXP1, first.grid.length
        if change == "kernel":
            kernel = kk.gaussian_kernel(1.0)
        elif change == "u_c":
            params = wv.WaveParams(2.0, -2.0)
        else:
            length = 2.0 * length
        with pytest.raises(ValueError, match="certificate was made for"):
            wv.solve_wave(kernel, params, n=256, length=length,
                          certificate=first.subsolution)


@pytest.fixture(scope="module")
def converged():
    profile, _ = wv.solve_wave(EXP1, wv.WaveParams(1.0, -1.0))
    return profile


class TestResiduals:
    def test_pointwise_residual_small(self, converged):
        res, h = wv.pointwise_residual(converged, EXP1)
        assert res <= 1e-3
        assert h == converged.grid.h

    def test_supersolution_is_rejected(self):
        # a non-solution shows residual on the scale of u_c
        params = wv.WaveParams(1.0, -1.0)
        grid = cv.HalfLineGrid(30.0, 2048)
        fake = wv.WaveProfile(grid=grid, values=np.full(grid.n + 1, 1.0),
                              params=params, converged=False, iterations=0,
                              final_sup_diff=np.inf)
        res, _ = wv.pointwise_residual(fake, EXP1)
        assert 0.8 <= res <= 1.0
        defect = wv.flux_balance(fake, EXP1)
        assert defect == pytest.approx(1.0 - np.exp(-30.0), abs=1e-3)

    def test_weak_residual_small(self, converged):
        assert wv.weak_residual(converged, EXP1) <= 1e-4

    def test_weak_residual_flat_state_machine_zero(self):
        # U identically s: zero wave component, vanishing amplitude
        params = wv.WaveParams(2.0 + 1e-13, 2.0 - 1e-13)
        grid = cv.HalfLineGrid(30.0, 512)
        flat = wv.WaveProfile(grid=grid, values=np.zeros(grid.n + 1),
                              params=params, converged=True, iterations=0,
                              final_sup_diff=0.0)
        assert wv.weak_residual(flat, EXP1) <= 1e-15

    def test_weak_residual_rejects_escaping_bumps(self):
        # the bump (4, 3) reaches x = 7, outside a domain of half-length 6
        grid = cv.HalfLineGrid(6.0, 64)
        short = wv.WaveProfile(grid=grid, values=np.full(grid.n + 1, 0.5),
                               params=wv.WaveParams(1.0, -1.0), converged=False,
                               iterations=0, final_sup_diff=np.inf)
        with pytest.raises(ValueError, match="not supported"):
            wv.weak_residual(short, EXP1)

    def test_flux_balance_small(self, converged):
        assert wv.flux_balance(converged, EXP1) <= 1e-4

    def test_jump_identity_continuous_wave(self):
        rec = wv.classify_shock(EXP1, wv.WaveParams(0.5, -0.5), n=512)
        assert rec.measured == "continuous"
        defect = wv.jump_identity(rec.profile, EXP1)
        assert defect <= 1e-3
        assert defect == pytest.approx(dense_jump_identity(rec.profile, EXP1), abs=1e-6)
        # consistency bound: |int y K int u| = u_c^2/2 <= u_c M1
        assert 0.5 * rec.profile.params.u_c ** 2 <= rec.profile.params.u_c * EXP1.m1

    def test_jump_identity_contract(self, converged):
        converged.classification = "discontinuous"
        with pytest.raises(ValueError):
            wv.jump_identity(converged, EXP1)
        converged.classification = "indeterminate"

    def test_table_edge_jump_gets_a_collar(self):
        # end rows 1/7: the density drops to 0 at y = +-1, so the profile
        # loses a derivative at x = -1, next to the sub-shock's image
        y = np.linspace(-1.0, 1.0, 21)
        kernel = kk.tabulated_kernel(y, (1.2 - np.abs(y)) / 1.4)
        assert kernel.density_jumps() == (1.0,)
        u_c = 2.5 * 4.0 * kernel.m1 / 2.0
        profile, _ = wv.solve_wave(kernel, wv.WaveParams(u_c, -u_c), n=4096)
        assert profile.converged
        res, h = wv.pointwise_residual(profile, kernel)
        # 1.31e-3 at x = -0.9998 without the collar; the triangle table
        # with zero end rows gives 1.44e-4
        assert res <= 2e-4

    def test_residuals_below_threshold_wave(self):
        # amplitude 1.2 sits below the exp(k=1) continuity threshold
        rec = wv.classify_shock(EXP1, wv.WaveParams(0.6, -0.6), n=512)
        assert rec.measured == "continuous"
        profile, _ = wv.solve_wave(EXP1, wv.WaveParams(0.6, -0.6))
        profile.classification = rec.measured
        assert wv.weak_residual(profile, EXP1) <= 1e-5
        assert wv.flux_balance(profile, EXP1) <= 1e-4
        defect = wv.jump_identity(profile, EXP1)
        assert defect <= 1e-3
        assert defect == pytest.approx(dense_jump_identity(profile, EXP1), abs=1e-6)
        assert wv.jump_identity(rec.profile, EXP1) == pytest.approx(
            dense_jump_identity(rec.profile, EXP1), abs=1e-6)


def csv_module_bytes(path, header, rows):
    """The bytes of a per-row csv.writer loop over preformatted cells, as
    the writers produced them before waves.write_columns: the oracle for
    the CSV files."""
    with open(path, "w", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


class TestSerialization:
    def test_profile_csv(self, tmp_path):
        profile, trace = wv.solve_wave(EXP1, wv.WaveParams(1.0, -1.0), n=512)
        path = tmp_path / "profile.csv"
        wv.write_profile_csv(profile, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,U"
        assert len(lines) == 2 * profile.grid.n + 2
        x, big_u = profile.full_line()
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table, np.column_stack([x, big_u]))
        assert path.read_bytes() == csv_module_bytes(
            tmp_path / "profile_ref.csv", ["x", "U"],
            ([repr(float(xi)), repr(float(ui))] for xi, ui in zip(x, big_u)))

        path = tmp_path / "trace.csv"
        wv.write_trace_csv(trace, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("n,sup_diff,u_at_zero")
        floats = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
        np.testing.assert_array_equal(floats[:, 0], trace.sup_diffs)
        np.testing.assert_array_equal(floats[:, 1], trace.u_at_zero)
        ints = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 3, 4, 5),
                          dtype=int, ndmin=2)
        np.testing.assert_array_equal(ints, np.column_stack([
            np.arange(1, trace.iterations + 1), trace.monotone_violations,
            trace.ordering_violations, trace.kinds]))
        assert path.read_bytes() == csv_module_bytes(
            tmp_path / "trace_ref.csv",
            ["n", "sup_diff", "u_at_zero", "monotone_violations", "ordering_violations",
             "kind"],
            ([i + 1, repr(trace.sup_diffs[i]), repr(trace.u_at_zero[i]),
              trace.monotone_violations[i], trace.ordering_violations[i], trace.kinds[i]]
             for i in range(trace.iterations)))
