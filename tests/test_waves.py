"""The monotone iteration: oracles, invariants, classification, residuals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlburgers import convolve as cv
from nlburgers import kernels as kk
from nlburgers import waves as wv

EXP1 = kk.exponential_kernel(1.0)


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
        assert spec.samples[-1] == 0.0          # s_sub(0) = 0
        assert np.all(np.diff(spec.samples) <= 0.0)
        assert np.all(spec.samples <= params.u_c)
        # arctan tail: |s_sub(x) - u_c| <= 2 u_c / (pi eps |x|)
        x_far = -1e6
        val = (2.0 * params.u_c / np.pi) * np.arctan(-spec.epsilon * x_far)
        assert abs(val - params.u_c) <= 2.0 * params.u_c / (np.pi * spec.epsilon * 1e6)


class TestMarchInternals:
    def test_scan_matches_scalar_recurrence(self):
        rng = np.random.default_rng(5)
        decay = rng.uniform(0.0, 3.0, 400)
        decay[50] = 500.0     # forces a block split
        decay[200] = 2e6      # single-cell scalar branch, exp underflows
        r = np.exp(-decay)
        b = rng.uniform(0.0, 0.1, 400)
        got = wv._scan(r, b, decay, 0.8)
        want = np.empty(401)
        want[0] = 0.8
        for i in range(400):
            want[i + 1] = r[i] * want[i] + b[i]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    def test_longdouble_wider_than_double(self):
        # _scan keeps its running sum of cell decays in np.longdouble so the
        # sum's rounding stays out of the block exponents; that only helps
        # where longdouble carries more mantissa bits than float64
        assert np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant

    def test_advance_matches_ode_integration(self):
        # the product rule is exact for piecewise-linear u and g; a tight
        # ODE integration of the same interpolants is an independent check
        from scipy.integrate import solve_ivp

        grid = cv.HalfLineGrid(30.0, 256)
        x = grid.nodes()
        u_n = 1.0 - 0.45 * np.exp(x)
        g = cv.OddConvolver(EXP1, grid, 4).apply_values(u_n, 1.0)

        got = wv._advance(u_n, g, grid.h, 1.0)

        def rhs(t, w):
            ut = np.interp(t, x, u_n)
            gt = np.interp(t, x, g)
            return [(gt - w[0]) / ut]

        # DOP853 loses a little accuracy stepping across the interpolation
        # kinks; 1e-8 is far below the h^2 scale the march is used at
        sol = solve_ivp(rhs, [x[0], 0.0], [1.0], t_eval=x, rtol=1e-12,
                        atol=1e-13, method="DOP853", max_step=grid.h)
        np.testing.assert_allclose(got, sol.y[0], rtol=0, atol=1e-8)


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

    def test_sup_diffs_are_nonincreasing(self):
        _, trace = wv.solve_wave(EXP1, wv.WaveParams(1.0, -1.0), n=512)
        assert trace.sup_diffs_nonincreasing()

    @pytest.mark.parametrize("solver", [wv.solve_wave, wv.classify_shock],
                             ids=lambda f: f.__name__)
    def test_invalid_kernel_rejected(self, solver):
        y = np.linspace(-6.0, 6.0, 601)
        vals = 0.5 * np.exp(-np.abs(y))
        vals[300] = -1e-3
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(y))))
        bad = kk.Kernel("tabulated", 0.0, 1.0, 2.0, table_y=y, table_k=vals,
                        table_cdf=cdf)
        with pytest.raises(kk.KernelError):
            solver(bad, wv.WaveParams(1.0, -1.0), n=512)

    @pytest.mark.parametrize("solver", [wv.solve_wave, wv.classify_shock],
                             ids=lambda f: f.__name__)
    def test_zero_max_iter_rejected(self, solver):
        # no sweep would leave final_sup_diff at inf
        with pytest.raises(ValueError, match="max_iter"):
            solver(EXP1, wv.WaveParams(1.0, -1.0), n=64, max_iter=0)


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
        # consistency bound: |int y K int u| = u_c^2/2 <= u_c M1
        assert 0.5 * rec.profile.params.u_c ** 2 <= rec.profile.params.u_c * EXP1.m1

    def test_jump_identity_contract(self, converged):
        converged.classification = "discontinuous"
        with pytest.raises(ValueError):
            wv.jump_identity(converged, EXP1)
        converged.classification = "indeterminate"

    def test_residuals_below_threshold_wave(self):
        # amplitude 1.2 sits below the exp(k=1) continuity threshold
        rec = wv.classify_shock(EXP1, wv.WaveParams(0.6, -0.6), n=512)
        assert rec.measured == "continuous"
        profile, _ = wv.solve_wave(EXP1, wv.WaveParams(0.6, -0.6))
        profile.classification = rec.measured
        assert wv.weak_residual(profile, EXP1) <= 1e-5
        assert wv.flux_balance(profile, EXP1) <= 1e-4
        assert wv.jump_identity(profile, EXP1) <= 1e-3


class TestSerialization:
    def test_profile_csv(self, tmp_path):
        profile, trace = wv.solve_wave(EXP1, wv.WaveParams(1.0, -1.0), n=512)
        path = tmp_path / "profile.csv"
        wv.write_profile_csv(profile, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,U"
        assert len(lines) == 2 * profile.grid.n + 2
        wv.write_trace_csv(trace, tmp_path / "trace.csv")
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header.startswith("n,sup_diff,u_at_zero")
