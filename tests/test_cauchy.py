"""Finite-volume validator: steady states, hand-checked step, speed fits."""

import csv
import dataclasses
import warnings

import numpy as np
import pytest

from nlburgers import cauchy as cy
from nlburgers import kernels as kk
from nlburgers import waves as wv
from nlburgers.cauchy import _explicit_update, _rusanov_flux_diff
from nlburgers.convolve import FullLineConvolver
from oracles import explicit_step

EXP1 = kk.exponential_kernel(1.0)
GAUSS1 = kk.gaussian_kernel(1.0)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            cy.SimConfig(a=1.0, b=-1.0, m=200, t_end=1.0, u_left=0, u_right=0)
        with pytest.raises(ValueError):
            cy.SimConfig(a=-1.0, b=1.0, m=64, t_end=1.0, u_left=0, u_right=0)
        with pytest.raises(ValueError):
            cy.SimConfig(a=-1.0, b=1.0, m=200, t_end=1.0, u_left=0, u_right=0,
                         cfl=1.5)
        with pytest.raises(ValueError):
            cy.SimConfig(a=-1.0, b=1.0, m=200, t_end=0.0, u_left=0, u_right=0)

    @pytest.mark.parametrize("field, value", [
        ("a", -np.inf), ("b", np.inf), ("t_end", np.inf), ("t_end", np.nan),
        ("a", np.nan)])
    def test_non_finite_domain_or_end_time_rejected(self, field, value):
        # an infinite t_end would make simulate step forever
        kwargs = dict(a=-1.0, b=1.0, m=200, t_end=1.0, u_left=0, u_right=0)
        kwargs[field] = value
        with pytest.raises(ValueError, match="finite"):
            cy.SimConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("u_left", np.nan), ("u_right", np.nan), ("u_right", -np.inf)])
    def test_non_finite_far_state_rejected(self, field, value):
        # a NaN far state passes the far-field check, whose comparisons are
        # all false, and would fail the run steps later
        kwargs = dict(a=-1.0, b=1.0, m=200, t_end=1.0, u_left=0, u_right=0)
        kwargs[field] = value
        with pytest.raises(ValueError, match="far states must be finite"):
            cy.SimConfig(**kwargs)

    def test_cell_count_must_be_an_integer(self):
        # 200.5 cells would simulate 201, the last center on b
        kwargs = dict(a=-1.0, b=1.0, t_end=1.0, u_left=0, u_right=0)
        for m in (200.5, 200.0):
            with pytest.raises(ValueError, match="integer"):
                cy.SimConfig(m=m, **kwargs)
        cfg = cy.SimConfig(m=np.int64(200), **kwargs)
        assert cfg.centers().size == 200
        assert cfg.centers()[-1] == pytest.approx(1.0 - cfg.dx / 2)

    def test_centers(self):
        cfg = cy.SimConfig(a=0.0, b=1.0, m=128, t_end=1.0, u_left=0, u_right=0)
        x = cfg.centers()
        assert x[0] == pytest.approx(cfg.dx / 2)
        assert x[-1] == pytest.approx(1.0 - cfg.dx / 2)


class TestStep:
    def test_constant_steady_state(self):
        cfg = cy.SimConfig(a=-40.0, b=40.0, m=256, t_end=1.0,
                           u_left=3.0, u_right=3.0)
        state = cy.initial_state(cfg, 3.0)
        conv = FullLineConvolver(EXP1, state.x, cfg.u_left, cfg.u_right)
        for _ in range(100):
            state = cy.step(state, cfg, conv, cy.stable_dt(state, cfg))
        assert np.max(np.abs(state.u - 3.0)) <= 1e-12

    def test_five_cell_hand_computation(self):
        # independent scalar re-derivation of one forward-Euler/Rusanov step
        u = np.array([1.0, 0.8, 0.5, 0.1, -0.2])
        conv = np.array([0.9, 0.7, 0.45, 0.15, -0.1])
        u_left, u_right, dt, dx = 1.0, -0.2, 0.01, 0.1

        ext = [u_left, *u, u_right]
        flux = []
        for a, b in zip(ext[:-1], ext[1:]):
            flux.append(0.5 * (0.5 * a * a + 0.5 * b * b)
                        - 0.5 * max(abs(a), abs(b)) * (b - a))
        expected = [
            u[j] - dt / dx * (flux[j + 1] - flux[j]) + dt * (conv[j] - u[j])
            for j in range(5)
        ]
        got = _explicit_update(u, conv, dt, dx, u_left, u_right)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)

    @staticmethod
    def _oracle_steps(kernel, init):
        """Three steps of the package and of the expression oracle, from
        random data with signed zeros or from a Riemann jump."""
        cfg = cy.SimConfig(a=-40.0, b=40.0, m=400, t_end=1.0,
                           u_left=1.5, u_right=-0.75)
        x = cfg.centers()
        rng = np.random.default_rng(7)
        if init == "random":
            u = rng.uniform(-2.0, 2.0, cfg.m)
            u[::37] = 0.0
            u[::41] = -0.0
            u[0], u[-1] = cfg.u_left, cfg.u_right
        else:
            u = np.where(x < 0.0, cfg.u_left, cfg.u_right)
        state = cy.SimState(x, u, 0.5)
        conv = FullLineConvolver(kernel, x, cfg.u_left, cfg.u_right)
        for _ in range(3):
            dt = cy.stable_dt(state, cfg)
            want = explicit_step(state.u, conv, kernel, dt, cfg.dx, cfg.u_left, cfg.u_right)
            got = cy.step(state, cfg, conv, dt)
            assert got.t == state.t + dt
            yield got.u, want
            state = got

    @pytest.mark.parametrize("init", ["random", "riemann"])
    def test_step_is_bitwise_the_expression_oracle(self, init):
        # the in-place step evaluates the oracle's expressions in their
        # order, on the FFT sum the oracle builds from the kernel's samples;
        # int64 views tell -0.0 from 0.0
        for got, want in self._oracle_steps(GAUSS1, init):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("init", ["random", "riemann"])
    def test_exp_step_is_the_recursion_oracle(self, init):
        # the exponential sum runs as cumsums on powers; the oracle runs
        # its two recursions one sample at a time, which rounds otherwise
        for got, want in self._oracle_steps(EXP1, init):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_non_finite_update_names_the_time(self):
        # the state check alone refuses a NaN or infinite update, naming
        # the new time; numpy warns about nothing on the way
        cfg = cy.SimConfig(a=-40.0, b=40.0, m=256, t_end=1.0,
                           u_left=1.0, u_right=1.0)
        state = cy.SimState(cfg.centers(), np.ones(cfg.m), 0.25)

        class BadConvolver:
            def __init__(self, bad):
                self.bad = bad

            def apply(self, values):
                out = np.ones_like(values)
                out[100] = self.bad
                return out

        for bad in (np.nan, np.inf, -np.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(cy.SimulationError,
                                   match=r"non-finite cell averages at t = 0\.26"):
                    cy.step(state, cfg, BadConvolver(bad), 0.01)

    def test_state_range_is_read_once(self):
        # u_min and u_max are the array's own reductions, -0.0 included
        rng = np.random.default_rng(3)
        x = np.linspace(-1.0, 1.0, 200)
        for u in (rng.normal(size=200), np.full(200, -0.0), -np.abs(rng.normal(size=200))):
            state = cy.SimState(x, u, 0.5)
            for got, want in ((state.u_min, u.min()), (state.u_max, u.max())):
                assert np.array_equal(np.float64(got).view(np.int64),
                                      np.float64(want).view(np.int64))

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        # a NaN time would come back from simulate as a one-snapshot run
        x = np.linspace(-1.0, 1.0, 200)
        with pytest.raises(cy.SimulationError, match="non-finite time"):
            cy.SimState(x, np.zeros(200), t)

    def test_cfl_dt(self):
        cfg = cy.SimConfig(a=-10.0, b=10.0, m=200, t_end=1.0,
                           u_left=2.0, u_right=0.0)
        state = cy.initial_state(
            cfg, lambda x: np.where(x < 0, 2.0, 0.0))
        assert cy.stable_dt(state, cfg) == pytest.approx(0.4 * cfg.dx / 2.0)
        tiny = cy.SimConfig(a=-10.0, b=10.0, m=200, t_end=1.0,
                            u_left=1e-12, u_right=1e-12, cfl=0.9)
        flat = cy.initial_state(tiny, 1e-12)
        assert cy.stable_dt(flat, tiny) == cy.DT_CAP

    def test_cfl_speed_from_the_minimum(self):
        # a dip below -max u and both far states: max(u_max, -u_min) is
        # max |u| exactly, so the step is the max-of-abs formula's bit for bit
        cfg = cy.SimConfig(a=-10.0, b=10.0, m=200, t_end=1.0,
                           u_left=0.5, u_right=-0.25)
        state = cy.initial_state(
            cfg, lambda x: 0.125 - 0.375 * np.tanh(x) - 2.7 * np.exp(-x * x))
        assert -state.u_min > max(state.u_max, 0.5)
        speed = max(float(np.max(np.abs(state.u))), abs(cfg.u_left),
                    abs(cfg.u_right), 1e-9)
        assert cy.stable_dt(state, cfg) == min(cfg.cfl * cfg.dx / speed, cy.DT_CAP)

    def test_far_field_mismatch_rejected(self):
        cfg = cy.SimConfig(a=-10.0, b=10.0, m=200, t_end=1.0,
                           u_left=1.0, u_right=0.0)
        with pytest.raises(cy.SimulationError):
            cy.initial_state(cfg, 0.5)

    def test_initial_data_is_a_callable_or_a_constant(self):
        cfg = cy.SimConfig(a=-10.0, b=10.0, m=200, t_end=1.0,
                           u_left=1.0, u_right=1.0)
        with pytest.raises(TypeError):
            cy.initial_state(cfg, np.ones(cfg.m))


class TestSimulate:
    def test_riemann_front_speed(self):
        cfg = cy.SimConfig(a=-30.0, b=30.0, m=600, t_end=3.0,
                           u_left=2.0, u_right=0.0, snapshot_interval=0.25)
        state = cy.initial_state(cfg, lambda x: np.where(x < 0, 2.0, 0.0))
        traj = cy.simulate(state, EXP1, cfg)
        fit = cy.measure_speed(traj, 1.0)
        assert fit.speed == pytest.approx(1.0, abs=0.05)

    def test_odd_symmetry_preserved(self):
        cfg = cy.SimConfig(a=-30.0, b=30.0, m=512, t_end=1.0,
                           u_left=1.0, u_right=-1.0)
        state = cy.initial_state(cfg, lambda x: -np.tanh(x))
        traj = cy.simulate(state, EXP1, cfg)
        u = traj.final.u
        assert np.max(np.abs(u + u[::-1])) <= 1e-10

    def test_conservation_window(self):
        cfg = cy.SimConfig(a=-30.0, b=30.0, m=512, t_end=1.0,
                           u_left=2.0, u_right=0.0)
        state = cy.initial_state(cfg, lambda x: 1.0 - np.tanh(x))
        conv = FullLineConvolver(EXP1, state.x, cfg.u_left, cfg.u_right)
        for _ in range(3):
            dt = cy.stable_dt(state, cfg)
            kstar = conv.apply(state.u)
            flux_diff = _rusanov_flux_diff(state.u, cfg.u_left, cfg.u_right)
            predicted = (-dt / cfg.dx * np.sum(flux_diff)
                         + dt * np.sum(kstar - state.u)) * cfg.dx
            new = cy.step(state, cfg, conv, dt)
            change = np.sum(new.u - state.u) * cfg.dx
            assert abs(change - predicted) <= 10.0 * cfg.dx
            state = new

    def test_steps_by_stable_dt(self):
        # simulate steps by stable_dt of each new state: a loop of step
        # and stable_dt gives its snapshots to the bit.  The bumps exceed
        # both far fields, on each side of zero
        cfg = cy.SimConfig(a=-30.0, b=30.0, m=300, t_end=0.6, u_left=1.0,
                           u_right=-1.0, snapshot_interval=0.2)
        for bump in (2.5, -3.0):
            init = cy.initial_state(
                cfg, lambda x: -np.tanh(x) + bump * np.exp(-(x - 5.0) ** 2))
            traj = cy.simulate(init, EXP1, cfg)
            conv = FullLineConvolver(EXP1, init.x, cfg.u_left, cfg.u_right)
            state, want = init, [init.u]
            for target in (0.2, 0.4, 0.6):
                while state.t < target - 1e-12:
                    dt = min(cy.stable_dt(state, cfg), target - state.t)
                    state = cy.step(state, cfg, conv, dt)
                want.append(state.u)
            assert len(traj.snapshots) == len(want)
            for got, ref in zip(traj.snapshots, want):
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("interval", [0.25, 0.1])
    def test_resumed_run_is_the_single_run(self, interval):
        # a run resumed from another's final state keeps its snapshot clock
        # from that state's time: the two legs are the 0 -> 2 run, bit for bit
        cfg = cy.SimConfig(a=-40.0, b=40.0, m=400, t_end=2.0, u_left=1.0,
                           u_right=-1.0, snapshot_interval=interval)
        init = cy.initial_state(cfg, lambda x: -np.tanh(x))
        whole = cy.simulate(init, EXP1, cfg)
        first = cy.simulate(init, EXP1, dataclasses.replace(cfg, t_end=1.0))
        second = cy.simulate(first.final, EXP1, cfg)
        times = first.times + second.times[1:]
        assert np.all(np.diff(second.times) > 0.0)
        assert times == whole.times
        for got, want in zip(first.snapshots + second.snapshots[1:], whole.snapshots,
                             strict=True):
            assert np.array_equal(got, want)

    def test_mass_and_band_reported_per_snapshot(self):
        # the inflow (u_left^2 - u_right^2) / 2 accounts for the mass change;
        # the band starts BAND_SLACK away from the data
        cfg = cy.SimConfig(a=-40.0, b=40.0, m=1000, t_end=2.0, u_left=2.0,
                           u_right=-0.5, snapshot_interval=0.25)
        init = cy.initial_state(cfg, lambda x: 0.75 - 1.25 * np.tanh(3.0 * x))
        traj = cy.simulate(init, EXP1, cfg)
        assert len(traj.mass_drifts) == len(traj.band_margins) == len(traj.times) == 9
        assert traj.mass_drifts[0] == 0.0
        assert max(map(abs, traj.mass_drifts)) <= 1e-9
        assert traj.band_margins[0] == pytest.approx(cy.BAND_SLACK, abs=1e-12)
        assert all(0.0 < m <= cy.BAND_SLACK + 1e-12 for m in traj.band_margins)

    @pytest.mark.parametrize("change, message", [
        ({"m": 2000}, "1000 cells, the config 2000"),
        ({"a": -20.0, "b": 60.0}, "off the config's cell centers")],
        ids=["cell_count", "domain"])
    def test_initial_cells_must_be_the_config_cells(self, change, message):
        # a state built for 1000 cells would step at the 2000-cell dx; one
        # on [-40, 40] would run on [-20, 60] and report its data there
        base = cy.SimConfig(a=-40.0, b=40.0, m=1000, t_end=0.5,
                            u_left=1.0, u_right=-1.0)
        init = cy.initial_state(base, lambda x: -np.tanh(x))
        with pytest.raises(cy.SimulationError, match=message):
            cy.simulate(init, EXP1, dataclasses.replace(base, **change))
        # the same centers computed another way are accepted
        moved = cy.SimState(np.linspace(-39.96, 39.96, 1000), init.u)
        assert cy.simulate(moved, EXP1, base).times[-1] == 0.5

    @pytest.mark.parametrize("t0", [1.0, 3.0])
    def test_initial_time_must_lie_before_the_end(self, t0):
        # a state at or past t_end would come back as a one-snapshot
        # trajectory, and only a later speed fit would fail
        cfg = cy.SimConfig(a=-40.0, b=40.0, m=400, t_end=1.0,
                           u_left=1.0, u_right=-1.0)
        init = cy.initial_state(cfg, lambda x: -np.tanh(x))
        with pytest.raises(cy.SimulationError,
                           match=rf"t = {t0:g} leaves no step before the end time t_end = 1$"):
            cy.simulate(cy.SimState(init.x, init.u, t0), EXP1, cfg)

    def test_flat_data_stays_flat(self):
        cfg = cy.SimConfig(a=-30.0, b=30.0, m=256, t_end=1.0,
                           u_left=0.0, u_right=0.0)
        traj = cy.simulate(cy.initial_state(cfg, 0.0), EXP1, cfg)
        assert max(traj.max_slopes) == 0.0

    def test_update_magnitude_within_cfl_bound(self):
        cfg = cy.SimConfig(a=-30.0, b=30.0, m=400, t_end=0.5,
                           u_left=2.0, u_right=-2.0)
        state = cy.initial_state(cfg, lambda x: -2.0 * np.tanh(2.0 * x))
        conv = FullLineConvolver(EXP1, state.x, cfg.u_left, cfg.u_right)
        for _ in range(5):
            dt = cy.stable_dt(state, cfg)
            new = cy.step(state, cfg, conv, dt)
            biggest = np.max(np.abs(new.u - state.u))
            cap = cfg.cfl * np.max(np.abs(state.u)) + dt * 2.0 * np.max(np.abs(state.u))
            assert biggest <= cap + 1e-12
            state = new

    def test_band_checked_between_snapshots(self, monkeypatch):
        # one step between snapshots pushes a cell far outside the band and
        # the next step takes the spike back out
        cfg = cy.SimConfig(a=-40.0, b=40.0, m=256, t_end=1.0, u_left=1.0,
                           u_right=-1.0, snapshot_interval=0.5)
        real_step = cy.step
        calls = []

        def spiking_step(state, cfg, convolver, dt):
            calls.append(state.t)
            if len(calls) == 3:
                u = state.u.copy()
                u[128] -= 5.0
                state = cy.SimState(state.x, u, state.t)
            new = real_step(state, cfg, convolver, dt)
            if len(calls) == 2:
                u = new.u.copy()
                u[128] += 5.0
                new = cy.SimState(new.x, u, new.t)
            return new

        monkeypatch.setattr(cy, "step", spiking_step)
        state = cy.initial_state(cfg, lambda x: np.where(x < 0.0, 1.0, -1.0))
        with pytest.raises(cy.SimulationError, match="sanity band"):
            cy.simulate(state, EXP1, cfg)
        assert len(calls) == 2 and calls[1] < 0.5 - 1e-12


class TestMeasureSpeed:
    def make_ramp_trajectory(self, speed):
        cfg = cy.SimConfig(a=-20.0, b=20.0, m=400, t_end=2.0,
                           u_left=1.0, u_right=-1.0, snapshot_interval=0.25)
        x = cfg.centers()
        traj = cy.Trajectory(cfg)
        for t in np.arange(0.0, 2.0 + 1e-12, 0.25):
            u = np.clip(-(x - speed * t), -1.0, 1.0)
            traj.times.append(float(t))
            traj.snapshots.append(u)
            traj.max_slopes.append(1.0)
            traj.total_variations.append(2.0)
        return traj

    def test_exact_linear_motion(self):
        traj = self.make_ramp_trajectory(0.7)
        fit = cy.measure_speed(traj, 0.0)
        assert fit.speed == pytest.approx(0.7, abs=1e-10)
        assert fit.residual_rms <= 1e-10

    def test_stationary_symmetric_wave(self):
        cfg = cy.SimConfig(a=-30.0, b=30.0, m=512, t_end=2.0,
                           u_left=1.0, u_right=-1.0, snapshot_interval=0.25)
        state = cy.initial_state(cfg, lambda x: -np.tanh(x))
        traj = cy.simulate(state, EXP1, cfg)
        fit = cy.measure_speed(traj, 0.0)
        assert abs(fit.speed) <= 0.01

    def test_level_validation(self):
        traj = self.make_ramp_trajectory(0.5)
        with pytest.raises(ValueError):
            cy.measure_speed(traj, 2.0)

    def test_missing_crossing(self):
        traj = self.make_ramp_trajectory(0.5)
        traj.snapshots[3] = np.full_like(traj.snapshots[3], 0.9)
        with pytest.raises(cy.SimulationError):
            cy.measure_speed(traj, 0.0)


class TestProfileCoupling:
    def test_wave_translates_at_rankine_hugoniot_speed(self):
        profile, _ = wv.solve_wave(EXP1, wv.WaveParams(2.0, 0.0), n=1024)
        cfg = cy.SimConfig(a=-30.0, b=30.0, m=800, t_end=2.0,
                           u_left=2.0, u_right=0.0, snapshot_interval=0.25)
        state = cy.state_from_profile(profile, cfg)
        traj = cy.simulate(state, EXP1, cfg)
        fit = cy.measure_speed(traj, 1.0)
        assert fit.speed == pytest.approx(1.0, rel=0.02)
        l1 = cy.l1_distance_to_translate(traj.final, profile)
        assert l1 <= 0.2

    def test_snapshot_csv(self, tmp_path):
        cfg = cy.SimConfig(a=-30.0, b=30.0, m=128, t_end=0.5,
                           u_left=0.0, u_right=0.0, snapshot_interval=0.25)
        traj = cy.simulate(cy.initial_state(cfg, 0.0), EXP1, cfg)
        path = tmp_path / "snapshots.csv"
        cy.write_snapshots_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,u"
        assert len(lines) == 1 + len(traj.times) * cfg.m

        # a bump on a nonzero floor, so the cells carry full-length digits
        cfg = dataclasses.replace(cfg, u_left=0.25, u_right=0.25)
        traj = cy.simulate(cy.initial_state(cfg, lambda x: 0.25 + 0.5 * np.exp(-x * x)),
                           EXP1, cfg)
        cy.write_snapshots_csv(traj, path)
        x = cfg.centers()
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 0], np.repeat(traj.times, cfg.m))
        np.testing.assert_array_equal(table[:, 1], np.tile(x, len(traj.times)))
        np.testing.assert_array_equal(table[:, 2].reshape(-1, cfg.m), traj.snapshots)
        # the per-row csv.writer loop the writer replaced, as the byte oracle
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="\n") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["t", "x", "u"])
            for t, u in zip(traj.times, traj.snapshots):
                for xi, ui in zip(x, u):
                    writer.writerow([repr(float(t)), repr(float(xi)), repr(float(ui))])
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("count", [0, 1, 4])
    def test_snapshot_csv_is_the_long_table(self, tmp_path, count):
        # the streaming writer against write_columns on the repeated and
        # tiled columns, with values whose repr is long, signed or subnormal
        cfg = cy.SimConfig(a=-1.0, b=1.0, m=128, t_end=1.0,
                           u_left=0.0, u_right=0.0)
        x = cfg.centers()
        special = [-0.0, 5e-324, 1e16, 0.1 + 0.2]
        traj = cy.Trajectory(cfg)
        for k in range(count):
            traj.times.append(special[k])
            u = np.sin(x * (k + 1.0))
            u[:4] = special
            traj.snapshots.append(u)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        cy.write_snapshots_csv(traj, got)
        snapshots = np.concatenate(traj.snapshots) if count else []
        wv.write_columns(want, ["t", "x", "u"],
                         [np.repeat(traj.times, cfg.m), np.tile(x, count), snapshots])
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_text().splitlines()) == 1 + count * cfg.m
