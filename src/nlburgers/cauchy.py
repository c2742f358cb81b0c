"""Finite-volume time integrator for u_t + u u_x + u - K*u = 0.

First-order Rusanov flux with unsplit forward-Euler source: validation
runs need monotone shock capture and exact constant states, not high
accuracy.  Constants are exact steady states because the convolution rows
are normalized to unit mass; the time step obeys both the advective CFL
condition and a fixed cap for the relaxation term.

The simulator's job in this package is to confirm that computed wave
profiles actually translate at the Rankine-Hugoniot speed and to exhibit
the finite-time gradient steepening of generic smooth data.

The step's floating-point operations and their order are fixed for a
given convolution plan.  The flux difference and the update work in place
on fresh arrays, but each evaluates exactly the expression kept in
``tests/oracles.py``, and a test holds the step to it bit for bit.  That
keeps every run's snapshots, and the CLI files written from them,
byte-identical when the step is made faster; reordering a sum or a
product would move them by rounding.  A plan of another FFT length (the
full-line band sizes it) moves them by rounding too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .convolve import FullLineConvolver
from .kernels import Kernel
from .waves import WaveProfile, format_cells, write_rows

#: hard cap on the explicit step for the stiff-free relaxation term
DT_CAP = 0.5

#: slack of the discrete maximum-principle sanity band
BAND_SLACK = 0.1


class SimulationError(RuntimeError):
    """Scheme blow-up or invalid simulation input."""


@dataclass(frozen=True)
class SimConfig:
    """Domain, resolution and far fields of one simulation run."""

    a: float
    b: float
    m: int
    t_end: float
    u_left: float
    u_right: float
    cfl: float = 0.4
    snapshot_interval: float = 0.25

    def __post_init__(self):
        # a NaN far state would pass the far-field check, whose comparisons
        # are then all false, and fail the run steps later
        if not np.all(np.isfinite((self.a, self.b, self.t_end, self.u_left,
                                   self.u_right))):
            raise ValueError("domain ends, end time and far states must be finite")
        if not self.a < self.b:
            raise ValueError("need a < b")
        if not isinstance(self.m, (int, np.integer)):
            raise ValueError(f"cell count must be an integer, got {self.m!r}")
        if self.m < 128:
            raise ValueError("need at least 128 cells")
        if not 0.0 < self.cfl <= 0.9:
            raise ValueError("CFL number must lie in (0, 0.9]")
        if not self.t_end > 0.0:
            raise ValueError("end time must be positive")
        if not self.snapshot_interval > 0.0:
            raise ValueError("snapshot interval must be positive")

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.m

    def centers(self) -> np.ndarray:
        return self.a + (np.arange(self.m) + 0.5) * self.dx


@dataclass
class SimState:
    """Cell averages at the centers, at time t, and their range u_min..u_max,
    read once for the finiteness, band and CFL checks; do not change the arrays."""

    x: np.ndarray
    u: np.ndarray
    t: float = 0.0
    u_min: float = field(init=False, repr=False)
    u_max: float = field(init=False, repr=False)

    def __post_init__(self):
        # NaN fails every comparison, so these chains refuse it with +-inf
        if not -np.inf < self.t < np.inf:
            raise SimulationError(f"non-finite time t = {self.t!r}")
        self.u = np.asarray(self.u, dtype=float)
        if self.u.shape != self.x.shape or self.u.size == 0:
            raise SimulationError("need one average per cell")
        self.u_min, self.u_max = float(self.u.min()), float(self.u.max())
        if not -np.inf < self.u_min <= self.u_max < np.inf:
            raise SimulationError(f"non-finite cell averages at t = {self.t:.6g}")


def initial_state(cfg: SimConfig, init) -> SimState:
    """State from a callable u0(x) or a constant."""
    x = cfg.centers()
    u = init(x) if callable(init) else np.full(cfg.m, float(init))
    state = SimState(x, np.array(u, dtype=float), 0.0)
    _check_far_fields(state, cfg)
    return state


def state_from_profile(profile: WaveProfile, cfg: SimConfig) -> SimState:
    """Sample a solved wave profile onto the cells."""
    return initial_state(cfg, profile.interp_full)


def _check_far_fields(state: SimState, cfg: SimConfig):
    if abs(state.u[0] - cfg.u_left) > 1e-6 or abs(state.u[-1] - cfg.u_right) > 1e-6:
        raise SimulationError(
            f"initial data mismatches the far fields near the boundary "
            f"(|{state.u[0]:.6g} - {cfg.u_left:.6g}|, "
            f"|{state.u[-1]:.6g} - {cfg.u_right:.6g}| > 1e-06)"
        )


# ----------------------------------------------------------------------
# one explicit step
# ----------------------------------------------------------------------


def _rusanov_flux_diff(u: np.ndarray, u_left: float, u_right: float) -> np.ndarray:
    """F_{j+1/2} - F_{j-1/2} with constant ghost states, where
    F = 0.25 (a^2 + b^2) - 0.5 max(|a|, |b|) (b - a) at each face."""
    ext = np.empty(u.size + 2)
    ext[0], ext[1:-1], ext[-1] = u_left, u, u_right
    size = np.abs(ext)
    speed = np.maximum(size[:-1], size[1:])
    square = np.multiply(ext, ext, out=size)
    jump = ext[1:] - ext[:-1]
    speed *= 0.5
    speed *= jump
    flux = np.add(square[:-1], square[1:], out=jump)
    flux *= 0.25
    flux -= speed
    return flux[1:] - flux[:-1]


def _explicit_update(u, conv, dt, dx, u_left, u_right):
    """Forward Euler: advection by Rusanov fluxes plus unsplit relaxation,
    u - (dt / dx) (F_{j+1/2} - F_{j-1/2}) + dt (conv - u).  Overwrites
    ``conv``."""
    out = _rusanov_flux_diff(u, u_left, u_right)
    out *= dt / dx
    np.subtract(u, out, out=out)
    conv -= u
    conv *= dt
    out += conv
    return out


def stable_dt(state: SimState, cfg: SimConfig) -> float:
    """The CFL-limited step; max |u| = max(u_max, -u_min) exactly."""
    speed = max(state.u_max, -state.u_min, abs(cfg.u_left), abs(cfg.u_right), 1e-9)
    return min(cfg.cfl * cfg.dx / speed, DT_CAP)


def step(state: SimState, cfg: SimConfig, convolver: FullLineConvolver,
         dt: float) -> SimState:
    """Advance one explicit step of size dt; ``convolver`` is the plan for
    the cells and far states, and ``stable_dt`` gives the CFL-limited step."""
    conv = convolver.apply(state.u)
    u_new = _explicit_update(state.u, conv, dt, cfg.dx, cfg.u_left, cfg.u_right)
    return SimState(state.x, u_new, state.t + dt)


# ----------------------------------------------------------------------
# trajectories
# ----------------------------------------------------------------------


@dataclass
class Trajectory:
    """Snapshots plus per-snapshot slope, variation, mass and band
    diagnostics.

    ``mass_drifts`` is dx sum u(t) - dx sum u(t0) - (t - t0) (u_left^2 -
    u_right^2) / 2, with t0 the first snapshot's time: the mass gained beyond
    the net inflow of the far-field fluxes.
    ``band_margins`` is the distance of the cell averages from the edge of
    the band that ``simulate`` enforces, min(min u - lo, hi - max u).
    ``convolution`` describes the full-line plan: its FFT length, its band
    in cells and the kernel mass beyond the band.
    """

    config: SimConfig
    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    max_slopes: list = field(default_factory=list)
    total_variations: list = field(default_factory=list)
    mass_drifts: list = field(default_factory=list)
    band_margins: list = field(default_factory=list)
    convolution: dict = field(default_factory=dict)

    def add(self, state: SimState, band_margin: float):
        cfg = self.config
        self.times.append(float(state.t))
        self.snapshots.append(state.u.copy())
        du = np.abs(np.diff(state.u))
        self.max_slopes.append(float(np.max(du) / cfg.dx))
        self.total_variations.append(float(np.sum(du)))
        mass0 = cfg.dx * float(np.sum(self.snapshots[0]))
        flux_in = 0.5 * (cfg.u_left ** 2 - cfg.u_right ** 2)
        inflow = (self.times[-1] - self.times[0]) * flux_in
        self.mass_drifts.append(cfg.dx * float(np.sum(state.u)) - mass0 - inflow)
        self.band_margins.append(band_margin)

    @property
    def final(self) -> SimState:
        return SimState(self.config.centers(), self.snapshots[-1], self.times[-1])

    def slope_growth(self) -> float:
        """Largest max-slope over the run relative to the initial slope."""
        base = max(self.max_slopes[0], 1e-300)
        return max(self.max_slopes) / base


def simulate(init: SimState, kernel: Kernel, cfg: SimConfig) -> Trajectory:
    """Step from init.t to t_end, landing exactly on t_end and on the times
    init.t + k snapshot_interval; every step must stay in the max-principle
    band, widened by BAND_SLACK."""
    # a state sampled for another grid would step at the wrong dx, or
    # report its data at the config's centers
    x = cfg.centers()
    if init.x.shape != x.shape:
        raise SimulationError(f"initial state has {init.x.size} cells, the config {cfg.m}")
    offset = float(np.max(np.abs(init.x - x)))
    if offset > 1e-12 * (cfg.b - cfg.a):
        raise SimulationError(
            f"initial cells are off the config's cell centers by up to {offset:.6g}")
    _check_far_fields(init, cfg)
    convolver = FullLineConvolver(kernel, init.x, cfg.u_left, cfg.u_right)
    lo = min(cfg.u_left, cfg.u_right, init.u_min) - BAND_SLACK
    hi = max(cfg.u_left, cfg.u_right, init.u_max) + BAND_SLACK

    traj = Trajectory(cfg, convolution={"fft_length": convolver._nfft,
                                        "band_cells": convolver.band,
                                        "dropped_mass": convolver.dropped_mass})
    traj.add(init, min(init.u_min - lo, hi - init.u_max))
    state = init
    next_snap = init.t + cfg.snapshot_interval
    while state.t < cfg.t_end - 1e-12:
        target = min(next_snap, cfg.t_end)
        dt = min(stable_dt(state, cfg), target - state.t)
        state = step(state, cfg, convolver, dt)
        if state.u_min < lo or state.u_max > hi:
            raise SimulationError(
                f"cell averages left the sanity band [{lo:.6g}, {hi:.6g}] "
                f"at t = {state.t:.6g}"
            )
        if state.t >= target - 1e-12:
            traj.add(state, min(state.u_min - lo, hi - state.u_max))
            next_snap = target + cfg.snapshot_interval
    return traj


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------


@dataclass
class SpeedFit:
    speed: float
    residual_rms: float


def measure_speed(traj: Trajectory, level: float) -> SpeedFit:
    """Least-squares speed of the level crossing across snapshots.

    The crossing is located by linear interpolation between the bracketing
    cells of each snapshot; decreasing fronts are assumed.
    """
    lo, hi = sorted((traj.config.u_left, traj.config.u_right))
    if not lo < level < hi:
        raise ValueError("level must lie strictly between the far fields")
    if len(traj.snapshots) < 5:
        raise ValueError("need at least 5 snapshots to fit a speed")
    x = traj.config.centers()
    positions = []
    for t, u in zip(traj.times, traj.snapshots):
        sign = np.sign(u - level)
        flips = np.nonzero(sign[:-1] * sign[1:] <= 0.0)[0]
        if flips.size == 0:
            raise SimulationError(f"snapshot at t = {t:.6g} does not cross the level")
        j = flips[0]
        frac = (level - u[j]) / (u[j + 1] - u[j])
        positions.append(float(x[j] + frac * (x[j + 1] - x[j])))
    times = np.asarray(traj.times)
    positions = np.asarray(positions)
    design = np.vstack([times, np.ones_like(times)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, positions, rcond=None)
    fitted = design @ np.array([slope, intercept])
    rms = float(np.sqrt(np.mean((positions - fitted) ** 2)))
    return SpeedFit(float(slope), rms)


def l1_distance_to_translate(state: SimState, profile: WaveProfile) -> float:
    """L1 distance between the state and the profile shifted by s t."""
    dx = float(state.x[1] - state.x[0])
    shifted = profile.interp_full(state.x - profile.params.s * state.t)
    return float(np.sum(np.abs(state.u - shifted)) * dx)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def write_snapshots_csv(traj: Trajectory, path):
    """Long-format CSV 't,x,u', one row per (snapshot, cell), as
    ``write_columns`` writes it.  Each time and each cell center is
    formatted once, and one snapshot at a time is held as text."""
    x = format_cells(traj.config.centers())
    with open(path, "w", newline="\n") as handle:
        handle.write("t,x,u\n")
        for t, u in zip(format_cells(traj.times), traj.snapshots, strict=True):
            write_rows(handle, [repeat(t, len(x)), x, format_cells(u)])
