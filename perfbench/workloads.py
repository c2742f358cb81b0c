"""The benchmark's three seeded workloads: inputs, the timed op, its checks.

Load model: closed loop, one client.  One process and one Python thread
run one op at a time and wait for its result.  The library receives only
kernels, ``WaveParams`` and ``SimConfig``s generated here from the seed.

Every workload draws its inputs by stratified, antithetic sampling on a
fixed grid of ``Strata.size`` points: each stratum contributes the two
positions ``u`` and ``1 - u`` with ``u`` taken from the seed.  The cost of
an op is a smooth function of its input, so a pass over the drawn inputs
costs nearly the same for every seed, while every input lies on a grid
point for which ``reference.json`` stores the expected jump and verdict.
Parameters that leave the cost alone (the wave's centre, the simulation's
left state within a narrow band) are drawn continuously.

See README.md for why each workload exists and which layer it loads.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from nlburgers import cauchy, kernels, waves

# acceptance tolerances (criteria 4, 7 and 9 of the acceptance suite)
POINTWISE_TOL = 1e-3
WEAK_TOL = 1e-4
FLUX_TOL = 1e-4
SPEED_RTOL = 0.02
L1_TOL = 0.2
SLOPE_GROWTH_MIN = 3.0

#: a jump must match its stored reference to this fraction of u_c
JUMP_RTOL = 1e-5

#: ops per run, at least; 40 leaves 10 ops beyond the 75th percentile
MIN_OPS = 40

#: kernel spec as the CLI spells it -> builder arguments
KERNELS = {
    "exp:k=0.5": ("exponential", {"k": 0.5}),
    "exp:k=1": ("exponential", {"k": 1.0}),
    "exp:k=2": ("exponential", {"k": 2.0}),
    "gauss:sigma=1": ("gaussian", {"sigma": 1.0}),
    "uniform:a=1": ("uniform", {"a": 1.0}),
    "tri:a=1": ("triangular", {"a": 1.0}),
}

@dataclass(frozen=True)
class Strata:
    """``bins`` equal strata of [lo, hi], ``offsets`` grid points in each."""

    lo: float
    hi: float
    bins: int
    offsets: int = 4
    log: bool = True

    @property
    def size(self) -> int:
        return self.bins * self.offsets

    def value(self, index: int) -> float:
        t = (index + 0.5) / self.size
        if self.log:
            return self.lo * (self.hi / self.lo) ** t
        return self.lo + (self.hi - self.lo) * t

    def draw(self, rng: random.Random) -> list:
        """Grid indices of one antithetic draw: offsets i and offsets-1-i
        in every stratum, i taken from the seed."""
        i = int(rng.random() * (self.offsets // 2))
        return [j * self.offsets + k for j in range(self.bins)
                for k in (i, self.offsets - 1 - i)]


# amplitude ratio rho = (u_- - u_+) / (4 M1); above 1 the theorem predicts
# a sub-shock.  The solve range stops at 2 because exp and gauss waves
# above rho ~ 2.2 exceed the weak and flux tolerances at n = 4096.
SOLVE_SPECS = ("exp:k=1", "gauss:sigma=1", "uniform:a=1", "tri:a=1")
SOLVE_RHO = Strata(0.25, 2.0, bins=6)
SWEEP_SPECS = tuple(KERNELS)
SWEEP_RHO = Strata(1.1, 4.0, bins=4)
# simulate: half-amplitude u_c on a grid, u_left in a narrow band (the
# step count scales with max |u| = u_left), u_right = u_left - 2 u_c
SIM_SPECS = ("exp:k=1", "gauss:sigma=1")
SIM_UC = Strata(0.9, 1.4, bins=1, offsets=8, log=False)
SIM_U_LEFT = (2.0, 2.1)

# the CLI op of solve and sweep sits on a fixed grid point (only its centre
# is seeded) so that cli_s does not move with the seed
CLI_SPEC = "exp:k=1"
CLI_SOLVE_INDEX = 12
CLI_SWEEP_INDEX = 8

SOLVE_N = 4096
SWEEP_N = 512
REFINE = 8
TOL_ITER = 1e-8
MAX_ITER = 5000
SIM_CELLS = 4000
SIM_T_END = 5.0
SIM_CFL = 0.4
SIM_DOMAIN = (-40.0, 40.0)
SIM_SNAPSHOT = 0.25
TANH_STEEPNESS = 3.0


# ----------------------------------------------------------------------
# seeded plans (plain data, no library calls)
# ----------------------------------------------------------------------


def solve_plan(seed: int):
    """[(spec, grid index, rho, centre)] of one solve pass, and the CLI
    op's centre."""
    rng = random.Random(seed)
    plan = [(spec, i, SOLVE_RHO.value(i), rng.uniform(-1.0, 1.0))
            for spec in SOLVE_SPECS for i in SOLVE_RHO.draw(rng)]
    return plan, rng.uniform(-1.0, 1.0)


def sweep_plan(seed: int):
    """[(spec, grid index, rho, centre)] of one sweep pass, and the CLI
    op's centre."""
    rng = random.Random(seed)
    plan = [(spec, i, SWEEP_RHO.value(i), rng.uniform(-1.0, 1.0))
            for spec in SWEEP_SPECS for i in SWEEP_RHO.draw(rng)]
    return plan, rng.uniform(-1.0, 1.0)


def simulate_plan(seed: int):
    """[(spec, grid index, u_left, u_right)]; each entry is simulated once
    from its solved profile and once from tanh data."""
    rng = random.Random(seed)
    plan = []
    for spec in SIM_SPECS:
        for i in SIM_UC.draw(rng):
            u_left = rng.uniform(*SIM_U_LEFT)
            plan.append((spec, i, u_left, u_left - 2.0 * SIM_UC.value(i)))
    return plan


# ----------------------------------------------------------------------
# library calls shared by the ops and by make_reference.py
# ----------------------------------------------------------------------


def build_kernel(spec: str):
    family, params = KERNELS[spec]
    return kernels.build_kernel(family, **params)


def wave_params(kernel, rho: float, centre: float):
    """Far fields with amplitude rho 4 M1 about ``centre``, the way
    ``nlburgers sweep`` forms them."""
    amplitude = rho * 4.0 * kernel.m1
    return waves.WaveParams(centre + 0.5 * amplitude, centre - 0.5 * amplitude)


def solve(kernel, params):
    return waves.solve_wave(kernel, params, n=SOLVE_N, refine=REFINE,
                            tol_iter=TOL_ITER, max_iter=MAX_ITER)


def classify(kernel, params):
    return waves.classify_shock(kernel, params, n=SWEEP_N, refine=REFINE,
                                tol_iter=TOL_ITER, max_iter=MAX_ITER)


def residuals(profile, kernel):
    pointwise, _ = waves.pointwise_residual(profile, kernel, refine=REFINE)
    return (pointwise, waves.weak_residual(profile, kernel, refine=REFINE),
            waves.flux_balance(profile, kernel, refine=REFINE))


def sim_config(u_left: float, u_right: float):
    return cauchy.SimConfig(a=SIM_DOMAIN[0], b=SIM_DOMAIN[1], m=SIM_CELLS,
                            t_end=SIM_T_END, u_left=u_left, u_right=u_right,
                            cfl=SIM_CFL, snapshot_interval=SIM_SNAPSHOT)


# ----------------------------------------------------------------------
# checks: each returns a list of failure messages, empty when all pass
# ----------------------------------------------------------------------


def check_jump(label, jump, u_c, expected):
    if expected is None:
        return [f"{label}: no reference jump"]
    if not abs(jump - expected) <= JUMP_RTOL * u_c:
        return [f"{label}: jump {jump!r} differs from reference {expected!r} "
                f"by more than {JUMP_RTOL:g} u_c"]
    return []


def check_wave(label, profile, trace, kernel, expected_jump):
    """Converged, no invariant violations, acceptance residuals, and the
    reference jump."""
    failures = []
    if not profile.converged:
        failures.append(f"{label}: not converged after {profile.iterations} sweeps")
    violations = sum(trace.monotone_violations) + sum(trace.ordering_violations)
    if violations:
        failures.append(f"{label}: {violations} monotone/ordering violations")
    pointwise, weak, flux = residuals(profile, kernel)
    for name, value, tol in (("pointwise", pointwise, POINTWISE_TOL),
                             ("weak", weak, WEAK_TOL), ("flux", flux, FLUX_TOL)):
        if not value <= tol:
            failures.append(f"{label}: {name} residual {value:.3e} > {tol:g}")
    failures += check_jump(label, profile.jump, profile.params.u_c, expected_jump)
    return failures


def check_cell(label, record, kernel, expected):
    """Theorem consistency, finite residuals, reference verdict and jumps.

    The acceptance residual tolerances hold at n = 4096; the finest sweep
    grid is 2048 and strong shocks exceed them there, so only finiteness
    is required of a sweep cell's residuals.
    """
    failures = []
    if not record.consistent:
        failures.append(f"{label}: theorem predicts a sub-shock, measured continuous")
    if not all(math.isfinite(r) for r in residuals(record.profile, kernel)):
        failures.append(f"{label}: non-finite residual")
    if expected is None:
        return failures + [f"{label}: no reference cell"]
    if record.measured != expected["verdict"]:
        failures.append(f"{label}: verdict {record.measured!r}, reference "
                        f"{expected['verdict']!r}")
    u_c = record.profile.params.u_c
    for size, jump, ref in zip(record.grid_sizes, record.jumps, expected["jumps"]):
        failures += check_jump(f"{label} N={size}", jump, u_c, ref)
    return failures


def check_translate(label, traj, profile):
    s = profile.params.s
    fit = cauchy.measure_speed(traj, s)
    l1 = cauchy.l1_distance_to_translate(traj.final, profile)
    failures = []
    if not abs(fit.speed - s) <= SPEED_RTOL * abs(s):
        failures.append(f"{label}: speed {fit.speed:.5f} not within "
                        f"{SPEED_RTOL:.0%} of {s:.5f}")
    if not l1 <= L1_TOL:
        failures.append(f"{label}: L1 distance to translate {l1:.4f} > {L1_TOL}")
    return failures


def check_steepening(label, traj):
    growth = traj.slope_growth()
    if not growth >= SLOPE_GROWTH_MIN:
        return [f"{label}: slope growth {growth:.3f} < {SLOPE_GROWTH_MIN}"]
    return []


# ----------------------------------------------------------------------
# reference
# ----------------------------------------------------------------------


def load_reference(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _lookup(table, spec, index):
    rows = table.get(spec, [])
    return rows[index] if 0 <= index < len(rows) else None


# ----------------------------------------------------------------------
# ops and workloads
# ----------------------------------------------------------------------


@dataclass
class Op:
    """One unit of timed work; ``run`` returns its failure messages."""

    label: str
    run: Callable[[], list]


@dataclass
class CliOp:
    """One representative op through the ``nlburgers`` entry point."""

    argv: Callable[[Path], list]     # output directory -> arguments
    check: Callable[[Path], list]    # output directory -> failures


@dataclass
class Workload:
    ops: list
    warmup: Op
    cli: CliOp


def _solve_op(label, kernel, params, expected):
    def run():
        profile, trace = solve(kernel, params)
        return check_wave(label, profile, trace, kernel, expected)
    return Op(label, run)


def _sweep_op(label, kernel, params, expected):
    def run():
        return check_cell(label, classify(kernel, params), kernel, expected)
    return Op(label, run)


def _translate_op(label, kernel, init, cfg, profile, pre_failures):
    def run():
        traj = cauchy.simulate(init, kernel, cfg)
        return pre_failures + check_translate(label, traj, profile)
    return Op(label, run)


def _steepen_op(label, kernel, init, cfg):
    def run():
        return check_steepening(label, cauchy.simulate(init, kernel, cfg))
    return Op(label, run)


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def _solve_cli(kernel, params, expected) -> CliOp:
    def argv(out):
        return ["solve", "--kernel", CLI_SPEC, "--u-minus", repr(params.u_minus),
                "--u-plus", repr(params.u_plus), "--grid-n", str(SOLVE_N),
                "--refine", str(REFINE), "--tol-iter", repr(TOL_ITER),
                "--max-iter", str(MAX_ITER), "--out-dir", str(out)]

    def check(out):
        meta = _read_json(out / "profile.meta.json")
        failures = [] if meta["converged"] else ["cli solve: not converged"]
        res = meta["residuals"]
        for name, tol in (("pointwise", POINTWISE_TOL), ("weak", WEAK_TOL),
                          ("flux_balance", FLUX_TOL)):
            if not res[name] <= tol:
                failures.append(f"cli solve: {name} residual {res[name]:.3e} > {tol:g}")
        failures += check_jump("cli solve", meta["jump"], params.u_c, expected)
        if _count_lines(out / "profile.csv") != 2 * SOLVE_N + 2:
            failures.append("cli solve: profile.csv row count")
        if _count_lines(out / "trace.csv") != meta["iterations"] + 1:
            failures.append("cli solve: trace.csv row count")
        return failures
    return CliOp(argv, check)


def _sweep_cli(amplitude, centre, u_c, expected) -> CliOp:
    def argv(out):
        return ["sweep", "--kernels", CLI_SPEC, "--amplitudes", repr(amplitude),
                "--center", repr(centre), "--grid-n", str(SWEEP_N),
                "--refine", str(REFINE), "--tol-iter", repr(TOL_ITER),
                "--max-iter", str(MAX_ITER), "--workers", "1", "--out-dir", str(out)]

    def check(out):
        with open(out / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != 1 or rows[0]["status"] != "ok":
            return [f"cli sweep: rows {rows!r}"]
        failures = []
        if rows[0]["classification"] != expected["verdict"]:
            failures.append(f"cli sweep: verdict {rows[0]['classification']!r}")
        return failures + check_jump("cli sweep", float(rows[0]["jump"]), u_c,
                                     expected["jumps"][-1])
    return CliOp(argv, check)


def _simulate_cli(profile_csv: Path, u_left, u_right) -> CliOp:
    def argv(out):
        return ["simulate", "--kernel", CLI_SPEC, "--u-left", repr(u_left),
                "--u-right", repr(u_right), "--init-from", str(profile_csv),
                "--cells", str(SIM_CELLS), "--t-end", repr(SIM_T_END),
                "--cfl", repr(SIM_CFL), "--snapshot-interval", repr(SIM_SNAPSHOT),
                "--domain-a", repr(SIM_DOMAIN[0]), "--domain-b", repr(SIM_DOMAIN[1]),
                "--out-dir", str(out)]

    def check(out):
        diag = _read_json(out / "diagnostics.json")
        s = diag["translate_speed"]
        failures = []
        if not abs(diag.get("measured_speed", math.nan) - s) <= SPEED_RTOL * abs(s):
            failures.append(f"cli simulate: speed {diag.get('measured_speed')!r} vs {s!r}")
        if not diag["L1_error_vs_translate"] <= L1_TOL:
            failures.append(f"cli simulate: L1 {diag['L1_error_vs_translate']:.4f}")
        snapshots = round(SIM_T_END / SIM_SNAPSHOT) + 1
        if _count_lines(out / "snapshots.csv") != SIM_CELLS * snapshots + 1:
            failures.append("cli simulate: snapshots.csv row count")
        return failures
    return CliOp(argv, check)


def _write_profile(profile, path: Path):
    """Full-line profile as 'x,U' in the layout ``nlburgers solve`` writes."""
    x, big_u = profile.full_line()
    np.savetxt(path, np.column_stack([x, big_u]), fmt="%.17g", delimiter=",",
               header="x,U", comments="")


def setup_solve(seed: int, reference: dict, workdir: Path) -> Workload:
    plan, cli_centre = solve_plan(seed)
    built = {spec: build_kernel(spec) for spec in SOLVE_SPECS}
    ops = [_solve_op(f"solve {spec} rho={rho:.4f}", built[spec],
                     wave_params(built[spec], rho, centre),
                     _lookup(reference["solve"], spec, i))
           for spec, i, rho, centre in plan]
    kernel = built[CLI_SPEC]
    params = wave_params(kernel, SOLVE_RHO.value(CLI_SOLVE_INDEX), cli_centre)
    cli = _solve_cli(kernel, params, _lookup(reference["solve"], CLI_SPEC, CLI_SOLVE_INDEX))
    return Workload(ops, ops[len(ops) // 2], cli)


def setup_sweep(seed: int, reference: dict, workdir: Path) -> Workload:
    plan, cli_centre = sweep_plan(seed)
    built = {spec: build_kernel(spec) for spec in SWEEP_SPECS}
    ops = [_sweep_op(f"sweep {spec} rho={rho:.4f}", built[spec],
                     wave_params(built[spec], rho, centre),
                     _lookup(reference["sweep"], spec, i))
           for spec, i, rho, centre in plan]
    kernel = built[CLI_SPEC]
    params = wave_params(kernel, SWEEP_RHO.value(CLI_SWEEP_INDEX), cli_centre)
    cli = _sweep_cli(params.amplitude, cli_centre, params.u_c,
                     _lookup(reference["sweep"], CLI_SPEC, CLI_SWEEP_INDEX))
    return Workload(ops, ops[0], cli)


def setup_simulate(seed: int, reference: dict, workdir: Path) -> Workload:
    """Solves and checks the starting profiles, builds the initial states."""
    built = {spec: build_kernel(spec) for spec in SIM_SPECS}
    ops = []
    cli = None
    for spec, i, u_left, u_right in simulate_plan(seed):
        kernel = built[spec]
        params = waves.WaveParams(u_left, u_right)
        label = f"simulate {spec} u=({u_left:.4f}, {u_right:.4f})"
        profile, trace = solve(kernel, params)
        pre = check_wave(f"{label} profile", profile, trace, kernel,
                         _lookup(reference["simulate"], spec, i))
        cfg = sim_config(u_left, u_right)
        ops.append(_translate_op(f"{label} from profile", kernel,
                                 cauchy.state_from_profile(profile, cfg), cfg,
                                 profile, pre))
        mid, half = params.s, params.u_c
        ops.append(_steepen_op(
            f"{label} from tanh", kernel,
            cauchy.initial_state(cfg, lambda x: mid - half * np.tanh(TANH_STEEPNESS * x)),
            cfg))
        if cli is None and spec == CLI_SPEC:
            path = workdir / "profile.csv"
            _write_profile(profile, path)
            cli = _simulate_cli(path, u_left, u_right)
    return Workload(ops, ops[0], cli)


SETUPS = {"solve": setup_solve, "sweep": setup_sweep, "simulate": setup_simulate}
