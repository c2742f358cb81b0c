"""Command-line front end: solve, classify, sweep, simulate, kernel-validate.

Runs are reproducible: a JSON config file supplies any subset of options,
explicit flags win over the file, and every output meta JSON embeds the
fully resolved configuration.  Identical configs produce byte-identical
output files.  Exit codes: 0 success, 1 error (usage errors too), 2
indeterminate (solver hit max_iter, or the classifier could not decide);
errors also end stderr with a JSON object, so scripts can parse failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import cauchy, kernels, waves

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INDETERMINATE = 2


# ----------------------------------------------------------------------
# kernel spec strings
# ----------------------------------------------------------------------


def parse_kernel_spec(spec: str) -> kernels.Kernel:
    """Build a kernel from 'exp:k=1', 'gauss:sigma=1', 'uniform:a=1',
    'tri:a=1' or 'table:path.csv[:renorm]'; kernels.SPELLINGS and
    kernels.TABLE_SPELLINGS hold every family spelling."""
    family, sep, rest = spec.partition(":")
    family = family.strip().lower()
    if not sep:
        raise kernels.KernelError(f"kernel spec {spec!r} lacks parameters")
    if family in kernels.TABLE_SPELLINGS:
        renorm = rest.endswith(":renorm")
        path = rest[: -len(":renorm")] if renorm else rest
        y, k = kernels.read_kernel_table(path)
        return kernels.tabulated_kernel(y, k, renormalize=renorm)
    name, sep2, value = rest.partition("=")
    if not sep2:
        raise kernels.KernelError(f"kernel spec {spec!r}: expected name=value")
    try:
        param = float(value)
    except ValueError as exc:
        raise kernels.KernelError(f"kernel spec {spec!r}: bad number {value!r}") from exc
    return kernels.build_kernel(family, **{name.strip(): param})


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------


def _load_config(path):
    if path is None:
        return {}
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _flag_type(key: str, default):
    return _NONE_TYPES.get(key, type(default))


def _coerce(key: str, value, kind):
    """A config-file value as its flag's type.  A value the conversion
    would change (256.7 for an int key) is refused, and so is a JSON
    boolean, which no key takes (float(true) == true)."""
    try:
        coerced = kind(value)
    except (TypeError, ValueError):
        coerced = None
    if isinstance(value, bool) or coerced != value:
        raise ValueError(f"config key {key!r}: {value!r} is not a {kind.__name__}")
    return coerced


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags; a null in the file, like
    an unset flag, leaves the key as it was.  A non-finite float is
    refused: the meta JSON that embeds the config could not hold it."""
    from_file = _load_config(args.config)
    unknown = set(from_file) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(defaults)
    for key, value in from_file.items():
        if value is not None:
            merged[key] = _coerce(key, value, _flag_type(key, defaults[key]))
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    for key, value in merged.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"config key {key!r}: {value!r} is not finite")
    return merged


def _write_json(payload: dict, path: Path):
    # encode first: a non-finite number raises before the file is opened
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")


def _error_json(exc: BaseException):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    json.dump(payload, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")


def _solver_options(cfg: dict) -> dict:
    """The grid and iteration keywords of solve_wave and classify_shock."""
    return {"n": cfg["grid_n"], "refine": cfg["refine"],
            "tol_iter": cfg["tol_iter"], "max_iter": cfg["max_iter"]}


def _residuals(profile, kernel, refine: int) -> dict:
    pointwise, _ = waves.pointwise_residual(profile, kernel, refine=refine)
    return {
        "pointwise": pointwise,
        "weak": waves.weak_residual(profile, kernel, refine=refine),
        "flux_balance": waves.flux_balance(profile, kernel, refine=refine),
    }


def _subsolution_report(profile) -> dict:
    """The certificate the profile's solve used."""
    spec = profile.subsolution
    return {"epsilon": spec.epsilon, "halvings": spec.halvings,
            "g_sup": spec.g_sup, "g_limit": spec.g_limit}


def _convolution_report(profile) -> dict:
    """The half-line plan of the profile's grid: diagnostics.json's keys,
    and the kernel mass beyond L/2."""
    plan = profile.convolver
    return {"fft_length": plan._nfft, "band_cells": plan.band,
            "dropped_mass": plan.dropped_mass, "tail_mass": plan.tail_mass}


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

SOLVE_DEFAULTS = {
    "kernel": "exp:k=1",
    "u_minus": 1.0,
    "u_plus": -1.0,
    "length": None,
    "grid_n": 4096,
    "refine": 8,
    "tol_iter": 1e-8,
    "max_iter": 5000,
    "out_dir": ".",
}


def cmd_solve(cfg: dict, out: Path) -> int:
    kernel = parse_kernel_spec(cfg["kernel"])
    params = waves.WaveParams(cfg["u_minus"], cfg["u_plus"])
    profile, trace = waves.solve_wave(kernel, params, length=cfg["length"],
                                      **_solver_options(cfg))
    meta = {
        "config": cfg,
        "kernel": cfg["kernel"],
        "u_minus": params.u_minus,
        "u_plus": params.u_plus,
        "s": params.s,
        "u_c": params.u_c,
        "length": profile.grid.length,
        "grid_n": profile.grid.n,
        "iterations": profile.iterations,
        "sweeps": {name: trace.kinds.count(kind) for name, kind in (
            ("plain", waves.PLAIN_SWEEP), ("candidate", waves.CANDIDATE_SWEEP),
            ("discarded", waves.DISCARDED_CANDIDATE))},
        "final_sup_diff": profile.final_sup_diff,
        "jump": profile.jump,
        "converged": profile.converged,
        "residuals": _residuals(profile, kernel, cfg["refine"]),
        "subsolution": _subsolution_report(profile),
        "convolution": _convolution_report(profile),
    }
    # the JSON first: a non-finite value then leaves no file behind
    _write_json(meta, out / "profile.meta.json")
    waves.write_profile_csv(profile, out / "profile.csv")
    waves.write_trace_csv(trace, out / "trace.csv")
    return EXIT_OK if profile.converged else EXIT_INDETERMINATE


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------

CLASSIFY_DEFAULTS = {**SOLVE_DEFAULTS, "grid_n": 1024}


def cmd_classify(cfg: dict, out: Path) -> int:
    kernel = parse_kernel_spec(cfg["kernel"])
    params = waves.WaveParams(cfg["u_minus"], cfg["u_plus"])
    record = waves.classify_shock(kernel, params, length=cfg["length"],
                                  **_solver_options(cfg))
    payload = {
        "config": cfg,
        "predicted_by_theorem": record.predicted_by_theorem,
        "measured": record.measured,
        "jumps": list(record.jumps),
        "ratios": list(record.ratios),
        "grid_sizes": list(record.grid_sizes),
        "length": record.length,
        "amplitude": record.amplitude,
        "threshold": record.threshold,
        "consistent": record.consistent,
        # the identity holds only across a continuous profile
        "jump_identity": (waves.jump_identity(record.profile, kernel)
                          if record.measured == "continuous" else None),
        "subsolution": _subsolution_report(record.profile),
        "convolution": _convolution_report(record.profile),
    }
    _write_json(payload, out / "classification.json")
    return EXIT_OK if record.measured != "indeterminate" else EXIT_INDETERMINATE


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

SWEEP_DEFAULTS = {
    "kernels": "exp:k=1",
    "amplitudes": "",
    "amp_log": None,       # "lo:hi:count" log-spaced alternative
    "center": 0.0,
    "grid_n": 512,
    "refine": 8,
    "tol_iter": 1e-8,
    "max_iter": 5000,
    "workers": 1,
    "out_dir": ".",
}

SWEEP_COLUMNS = ["kernel", "amplitude", "status", "classification",
                 "predicted_by_theorem", "jump", "iterations",
                 "pointwise_residual", "weak_residual", "flux_balance"]


def _sweep_cell(task):
    spec, amplitude, cfg = task
    row = {"kernel": spec, "amplitude": repr(amplitude)}
    try:
        kernel = parse_kernel_spec(spec)
        center = cfg["center"]
        params = waves.WaveParams(center + 0.5 * amplitude, center - 0.5 * amplitude)
        record = waves.classify_shock(kernel, params, **_solver_options(cfg))
        profile = record.profile
        res = _residuals(profile, kernel, cfg["refine"])
        row.update({
            "status": "ok",
            "classification": record.measured,
            "predicted_by_theorem": str(record.predicted_by_theorem).lower(),
            "jump": repr(profile.jump),
            "iterations": str(profile.iterations),
            "pointwise_residual": repr(res["pointwise"]),
            "weak_residual": repr(res["weak"]),
            "flux_balance": repr(res["flux_balance"]),
        })
    except (waves.SchemeInvariantError, waves.IterateCollapseError):
        raise  # a discretization bug, not a property of the cell
    except Exception as exc:  # per-row isolation: failures become row status
        # the other columns stay blank (DictWriter's restval)
        row["status"] = f"error: {type(exc).__name__}: {exc}"
    return row


def cmd_sweep(cfg: dict, out: Path) -> int:
    workers = cfg["workers"]
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    specs = [s.strip() for s in cfg["kernels"].split(";") if s.strip()]
    if cfg["amp_log"]:
        lo, hi, count = cfg["amp_log"].split(":")
        amplitudes = [float(a) for a in np.geomspace(float(lo), float(hi), int(count))]
    else:
        amplitudes = [float(t) for t in cfg["amplitudes"].split(",") if t.strip()]
    if not specs or not amplitudes:
        raise ValueError("sweep needs at least one kernel and one amplitude")
    if len(specs) * len(amplitudes) > 10_000:
        raise ValueError("sweep grid exceeds 10000 cells")

    tasks = [(spec, amp, cfg) for spec in specs for amp in amplitudes]
    # a pool forks all its workers at once: never more than cells or cores
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here, so that runs without a pool skip its ~30 ms import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, tasks))
    else:
        rows = [_sweep_cell(t) for t in tasks]

    with open(out / "sweep.csv", "w", newline="\n") as handle:
        writer = csv.DictWriter(handle, fieldnames=SWEEP_COLUMNS,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    all_failed = all(r["status"] != "ok" for r in rows)
    return EXIT_ERROR if all_failed else EXIT_OK


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

SIMULATE_DEFAULTS = {
    "kernel": "exp:k=1",
    "u_left": 1.0,
    "u_right": -1.0,
    "domain_a": -40.0,
    "domain_b": 40.0,
    "cells": 2000,
    "cfl": 0.4,
    "t_end": 5.0,
    "snapshot_interval": 0.25,
    "level": None,
    "init": "riemann",      # riemann | tanh | constant
    "tanh_steepness": 3.0,
    "init_from": None,      # profile.csv written by the solve command
    "out_dir": ".",
}


def load_profile_csv(path):
    """(x, U) columns of a profile.csv; np.interp over them holds the end
    values constant beyond the table, and needs x strictly increasing."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns 'x,U'")
    if data.shape[0] < 2:
        raise ValueError(f"{path}: need at least two rows")
    if not np.all(np.diff(data[:, 0]) > 0.0):
        raise ValueError(f"{path}: x must be strictly increasing")
    return data[:, 0], data[:, 1]


def cmd_simulate(cfg: dict, out: Path) -> int:
    kernel = parse_kernel_spec(cfg["kernel"])
    sim_cfg = cauchy.SimConfig(
        a=cfg["domain_a"], b=cfg["domain_b"], m=cfg["cells"],
        t_end=cfg["t_end"], u_left=cfg["u_left"], u_right=cfg["u_right"],
        cfl=cfg["cfl"], snapshot_interval=cfg["snapshot_interval"],
    )

    table = None
    if cfg["init_from"]:
        table = load_profile_csv(cfg["init_from"])
        state = cauchy.initial_state(sim_cfg, lambda x: np.interp(x, *table))
    elif cfg["init"] == "riemann":
        state = cauchy.initial_state(
            sim_cfg, lambda x: np.where(x < 0.0, sim_cfg.u_left, sim_cfg.u_right))
    elif cfg["init"] == "tanh":
        mid = 0.5 * (sim_cfg.u_left + sim_cfg.u_right)
        half = 0.5 * (sim_cfg.u_left - sim_cfg.u_right)
        steep = cfg["tanh_steepness"]
        state = cauchy.initial_state(
            sim_cfg, lambda x: mid - half * np.tanh(steep * x))
    elif cfg["init"] == "constant":
        state = cauchy.initial_state(sim_cfg, sim_cfg.u_left)
    else:
        raise ValueError(f"unknown init {cfg['init']!r}")

    traj = cauchy.simulate(state, kernel, sim_cfg)

    diagnostics = {
        "config": cfg,
        "times": traj.times,
        "max_slope": traj.max_slopes,
        "total_variation": traj.total_variations,
        "mass_drift": traj.mass_drifts,
        "band_margin": traj.band_margins,
        "slope_growth": traj.slope_growth(),
        "convolution": traj.convolution,
    }
    if sim_cfg.u_left != sim_cfg.u_right:
        level = cfg["level"]
        if level is None:
            level = 0.5 * (sim_cfg.u_left + sim_cfg.u_right)
        try:
            fit = cauchy.measure_speed(traj, level)
            diagnostics["measured_speed"] = fit.speed
            diagnostics["speed_fit_rms"] = fit.residual_rms
        except (cauchy.SimulationError, ValueError) as exc:
            diagnostics["measured_speed_error"] = str(exc)
    if table is not None:
        xs, big_u = table
        speed = 0.5 * (float(big_u[0]) + float(big_u[-1]))
        shifted = np.interp(traj.final.x - speed * traj.final.t, xs, big_u)
        l1 = float(np.sum(np.abs(traj.final.u - shifted)) * sim_cfg.dx)
        diagnostics["L1_error_vs_translate"] = l1
        diagnostics["translate_speed"] = speed
    # the JSON first: a non-finite value then leaves no file behind
    _write_json(diagnostics, out / "diagnostics.json")
    cauchy.write_snapshots_csv(traj, out / "snapshots.csv")
    return EXIT_OK


# ----------------------------------------------------------------------
# kernel-validate
# ----------------------------------------------------------------------

VALIDATE_DEFAULTS = {
    "kernel": "exp:k=1",
    "probes": 256,
    "out_dir": ".",
}


def cmd_kernel_validate(cfg: dict, out: Path) -> int:
    kernel = parse_kernel_spec(cfg["kernel"])
    report = kernels.validate_kernel(kernel, cfg["probes"])
    payload = {
        "config": cfg,
        "checks": {name: {"passed": c.passed, "worst": c.worst}
                   for name, c in report.checks.items()},
        "density_continuous": report.density_continuous,
        "total_variation": report.total_variation,
        "probe_count": report.probe_count,
        "m1": kernel.m1,
        "m2": kernel.m2,
        "all_passed": report.all_passed,
    }
    _write_json(payload, out / "kernel_validation.json")
    return EXIT_OK if report.all_passed else EXIT_ERROR


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


COMMANDS = {
    "solve": (SOLVE_DEFAULTS, cmd_solve, "compute one traveling-wave profile"),
    "classify": (CLASSIFY_DEFAULTS, cmd_classify,
                 "continuous / discontinuous verdict"),
    "sweep": (SWEEP_DEFAULTS, cmd_sweep, "classification over kernels x amplitudes"),
    "simulate": (SIMULATE_DEFAULTS, cmd_simulate, "finite-volume run of the PDE"),
    "kernel-validate": (VALIDATE_DEFAULTS, cmd_kernel_validate,
                        "check the theory hypotheses"),
}

# flag types of the options whose default is None; the rest take type(default)
_NONE_TYPES = {"length": float, "amp_log": str, "level": float, "init_from": str}

_FLAG_EXTRAS = {
    "kernel": {"help": "kernel spec, e.g. exp:k=1"},
    "kernels": {"help": "semicolon-separated kernel specs"},
    "amplitudes": {"help": "comma-separated amplitudes"},
    "amp_log": {"help": "lo:hi:count, log-spaced"},
    "init": {"choices": ["riemann", "tanh", "constant"]},
    "init_from": {"help": "profile.csv from the solve command"},
}


class UsageError(Exception):
    """The command line does not parse."""


class _Parser(argparse.ArgumentParser):
    """Usage errors raise UsageError; argparse's exit 2 means indeterminate here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """One flag --foo-bar per defaults key foo_bar, plus --config."""
    parser = _Parser(
        prog="nlburgers",
        description="Traveling waves of u_t + u u_x + u - K*u = 0: solver, "
                    "shock classifier, parameter sweeps and a finite-volume "
                    "validator.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (defaults, _, text) in COMMANDS.items():
        p = subs.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key, default in defaults.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=_flag_type(key, default),
                           **_FLAG_EXTRAS.get(key, {}))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        defaults, handler, _ = COMMANDS[args.command]
        cfg = _resolve(args, defaults)
        out = Path(cfg["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        return handler(cfg, out)
    except Exception as exc:  # contract: machine-readable error, exit 1
        _error_json(exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
