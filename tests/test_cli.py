"""CLI contract: files, exit codes, determinism, config handling."""

import argparse
import concurrent.futures
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlburgers import cauchy as cy
from nlburgers import cli
from nlburgers import convolve as cv
from nlburgers import kernels as kk
from nlburgers import waves as wv


def run(argv):
    return cli.main(argv)


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_each_option_declared_once(tmp_path, name):
    # the defaults table is the only declaration: flags and config keys
    defaults = cli.COMMANDS[name][0]
    parser = cli.build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in subs.choices[name]._actions
             if a.option_strings and a.dest != "help"}
    assert dests == {"config"} | set(defaults)

    config = tmp_path / "all.json"
    config.write_text(json.dumps(defaults))
    args = parser.parse_args([name, "--config", str(config)])
    assert cli._resolve(args, defaults) == defaults


def test_write_json_refuses_non_finite(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(ValueError):
        cli._write_json({"x": float("inf")}, path)
    assert not path.exists()


def test_import_loads_no_scipy_and_no_pool():
    # a fresh interpreter: this one already holds the test oracles' scipy
    probe = ("import sys, nlburgers, nlburgers.cli; print(' '.join(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy'"
             " or m == 'concurrent.futures.process')))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


@pytest.mark.parametrize("argv", [["solve", "--grid-n", "abc"], ["solve", "--bogus", "1"],
                                  ["simulate", "--init", "nope"], []],
                         ids=["bad_int", "unknown_flag", "bad_choice", "no_command"])
def test_usage_error_exit_one_with_json(capsys, argv):
    # argparse alone would exit 2, the code of an indeterminate run
    assert run(argv) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert json.loads(last)["error"] == "UsageError"


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as done:
        run(argv)
    assert done.value.code == 0
    assert "usage: nlburgers" in capsys.readouterr().out


class TestKernelSpecs:
    def test_families(self):
        assert cli.parse_kernel_spec("exp:k=2").family == "exponential"
        assert cli.parse_kernel_spec("gauss:sigma=1.5").param == 1.5
        assert cli.parse_kernel_spec("uniform:a=1").family == "uniform"
        assert cli.parse_kernel_spec("tri:a=0.5").family == "triangular"

    def test_table_spec(self, tmp_path):
        y = np.linspace(-8.0, 8.0, 801)
        vals = 0.5 * np.exp(-np.abs(y))
        path = tmp_path / "table.csv"
        np.savetxt(path, np.column_stack([y, vals]), delimiter=",")
        ker = cli.parse_kernel_spec(f"table:{path}:renorm")
        assert ker.family == "tabulated"
        with pytest.raises(kk.KernelError):
            cli.parse_kernel_spec(f"table:{path}")  # mass off by the tail

    def test_bad_specs(self):
        for spec in ("exp", "exp:q=1", "wat:a=1", "exp:k=abc"):
            with pytest.raises(kk.KernelError):
                cli.parse_kernel_spec(spec)

    @pytest.mark.parametrize("spelling", list(kk.SPELLINGS))
    def test_every_spelling_builds_one_family(self, spelling):
        builder, name = kk.SPELLINGS[spelling]
        parsed = cli.parse_kernel_spec(f"{spelling.upper()}:{name}=0.7")
        built = kk.build_kernel(spelling, **{name: 0.7})
        assert parsed.family == built.family == builder(0.7).family
        assert parsed.param == built.param == 0.7

    @pytest.mark.parametrize("spelling", kk.TABLE_SPELLINGS)
    def test_every_table_spelling_builds_a_table(self, tmp_path, spelling):
        y = np.linspace(-1.0, 1.0, 201)
        vals = np.maximum(1.0 - np.abs(y), 0.0)
        path = tmp_path / "tri.csv"
        np.savetxt(path, np.column_stack([y, vals]), delimiter=",")
        parsed = cli.parse_kernel_spec(f"{spelling}:{path}")
        built = kk.build_kernel(spelling, y=y, k=vals)
        assert parsed.family == built.family == "tabulated"
        np.testing.assert_array_equal(parsed.table_k, built.table_k)

    @pytest.mark.parametrize("spec, message", [
        ("exp", "kernel spec 'exp' lacks parameters"),
        ("exp:k", "kernel spec 'exp:k': expected name=value"),
        ("exp:k=x", "kernel spec 'exp:k=x': bad number 'x'"),
        ("foo:k=1", "unknown kernel family 'foo'"),
        ("exp:a=1", "family 'exp' takes parameter 'k', got ['a']"),
    ])
    def test_error_texts(self, spec, message):
        # sweep rows and the CLI's JSON errors carry these texts verbatim
        with pytest.raises(kk.KernelError) as info:
            cli.parse_kernel_spec(spec)
        assert str(info.value) == message


class TestSolveCommand:
    def test_files_and_exit_code(self, tmp_path):
        out = tmp_path / "run"
        code = run(["solve", "--kernel", "exp:k=1", "--u-minus", "1",
                    "--u-plus", "-1", "--grid-n", "256",
                    "--out-dir", str(out)])
        assert code == 0
        meta = json.loads((out / "profile.meta.json").read_text())
        assert meta["converged"] is True
        assert meta["s"] == 0.0 and meta["u_c"] == 1.0
        assert meta["config"]["grid_n"] == 256
        assert "seed" not in meta["config"]
        # exp:k=1 at u_c = 1 certifies the first candidate u_c / (pi M2)
        sub = meta["subsolution"]
        assert set(sub) == {"epsilon", "halvings", "g_sup", "g_limit"}
        assert sub["epsilon"] == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)
        assert sub["halvings"] == 0
        assert max(sub["g_sup"], sub["g_limit"]) <= 1.0
        assert (out / "profile.csv").exists()
        assert (out / "trace.csv").exists()

    def test_meta_carries_no_classification(self, tmp_path):
        # solve never classifies, so the meta would say 'indeterminate' for
        # a converged wave; classify and sweep report the verdict
        for max_iter, code in (("400", 0), ("1", 2)):
            out = tmp_path / max_iter
            assert run(["solve", "--grid-n", "128", "--max-iter", max_iter,
                        "--out-dir", str(out)]) == code
            meta = json.loads((out / "profile.meta.json").read_text())
            assert meta["converged"] is (code == 0)
            assert "classification" not in meta

    @pytest.mark.parametrize("spec, dropped", [("exp:k=1", True), ("uniform:a=1", False)])
    def test_convolution_plan_reported(self, tmp_path, spec, dropped):
        # the half-line FFT spans 2N points; the band is ceil(R / h) cells,
        # beyond which exp drops under 2^-56 of the kernel mass and uniform
        # drops none
        code = run(["solve", "--kernel", spec, "--grid-n", "256",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "profile.meta.json").read_text())
        conv = meta["convolution"]
        assert sorted(conv) == ["band_cells", "dropped_mass", "fft_length", "tail_mass"]
        assert conv["fft_length"] == 512
        kernel = cli.parse_kernel_spec(spec)
        h = meta["length"] / 256
        assert conv["band_cells"] == int(np.ceil(kernel.radius(2.0 ** -56) / h))
        assert (0.0 < conv["dropped_mass"] <= 2.0 ** -56) if dropped else (
            conv["dropped_mass"] == 0.0)
        # the default L keeps the kernel mass beyond L/2 under 1e-10
        assert conv["tail_mass"] == kernel.tail_mass(0.5 * meta["length"])
        assert 0.0 <= conv["tail_mass"] <= cv.SOLVER_TAIL_TOL

    def test_sweep_counts_add_up(self, tmp_path):
        # u_c = 0.25 has plain, accepted and discarded candidate sweeps
        code = run(["solve", "--kernel", "exp:k=1", "--u-minus", "0.25",
                    "--u-plus", "-0.25", "--grid-n", "512",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "profile.meta.json").read_text())
        sweeps = meta["sweeps"]
        assert sum(sweeps.values()) == meta["iterations"]
        with open(tmp_path / "trace.csv") as handle:
            kinds = [row["kind"] for row in csv.DictReader(handle)]
        counts = [sweeps[name] for name in ("plain", "candidate", "discarded")]
        assert counts == [kinds.count(kind) for kind in "012"]
        assert min(counts) > 0

    def test_invalid_params_error_json(self, tmp_path, capsys):
        code = run(["solve", "--kernel", "exp:k=1", "--u-minus", "1",
                    "--u-plus", "1", "--out-dir", str(tmp_path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParamsError"
        assert "u_minus" in err["message"]

    def test_max_iter_exit_two(self, tmp_path):
        code = run(["solve", "--kernel", "exp:k=1", "--u-minus", "1",
                    "--u-plus", "-1", "--grid-n", "256", "--max-iter", "2",
                    "--out-dir", str(tmp_path)])
        assert code == 2

    def test_zero_max_iter_error_json(self, tmp_path, capsys):
        code = run(["solve", "--kernel", "exp:k=1", "--grid-n", "64",
                    "--max-iter", "0", "--out-dir", str(tmp_path)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        assert not (tmp_path / "profile.meta.json").exists()

    @pytest.mark.parametrize("tol, made_out_dir", [
        ("nan", False), ("inf", False), ("-1e-8", True)], ids=["nan", "inf", "-1e-8"])
    def test_unusable_tolerance_error_json(self, tmp_path, capsys, tol,
                                           made_out_dir):
        # a non-finite tolerance is refused with the config, before the
        # output directory is made; a negative one by solve_wave
        out = tmp_path / "out"
        code = run(["solve", "--kernel", "exp:k=1", "--grid-n", "64",
                    "--max-iter", "20", f"--tol-iter={tol}", "--out-dir", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "tol_iter" in err["message"]
        assert out.exists() == made_out_dir
        assert not made_out_dir or list(out.iterdir()) == []

    def test_non_finite_meta_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wv, "flux_balance", lambda *args, **kw: float("inf"))
        out = tmp_path / "out"
        code = run(["solve", "--kernel", "exp:k=1", "--grid-n", "256",
                    "--out-dir", str(out)])
        assert code == 1
        assert list(out.iterdir()) == []

    def test_determinism_and_config_equivalence(self, tmp_path):
        out = tmp_path / "out"
        flags = ["solve", "--kernel", "exp:k=1", "--u-minus", "1",
                 "--u-plus", "-1", "--grid-n", "256", "--out-dir", str(out)]
        assert run(flags) == 0
        first = {name: (out / name).read_bytes()
                 for name in ("profile.csv", "profile.meta.json", "trace.csv")}
        assert run(flags) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob

        # an int-valued float key is recorded as the float its flag gives
        config = tmp_path / "run.json"
        for u_minus in (1.0, 1):
            config.write_text(json.dumps({
                "kernel": "exp:k=1", "u_minus": u_minus, "u_plus": -1.0,
                "grid_n": 256, "out_dir": str(out)}))
            assert run(["solve", "--config", str(config)]) == 0
            for name, blob in first.items():
                assert (out / name).read_bytes() == blob

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "kernel": "exp:k=1", "u_minus": 1.0, "u_plus": -1.0,
            "grid_n": 256, "out_dir": str(tmp_path / "a")}))
        code = run(["solve", "--config", str(config),
                    "--out-dir", str(tmp_path / "b")])
        assert code == 0
        assert (tmp_path / "b" / "profile.csv").exists()
        assert not (tmp_path / "a").exists()

    def test_config_value_changed_by_flag_type_rejected(self, tmp_path, capsys):
        # JSON booleans pass float() and int() unchanged (float(True) == True)
        cases = [("grid_n", 256.7), ("tol_iter", False), ("u_minus", True)]
        for i, (key, value) in enumerate(cases):
            config = tmp_path / f"run{i}.json"
            config.write_text(json.dumps({key: value,
                                          "out_dir": str(tmp_path / "out")}))
            assert run(["solve", "--config", str(config)]) == 1
            assert key in json.loads(capsys.readouterr().err)["message"]
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["kernel", "u_minus", "max_iter", "length"])
    def test_null_config_value_leaves_the_default(self, tmp_path, key):
        # str, float, int and None-default keys: null is an unset key
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: None, "grid_n": 256,
                                      "out_dir": str(tmp_path / "out")}))
        assert run(["solve", "--config", str(config)]) == 0
        meta = json.loads((tmp_path / "out" / "profile.meta.json").read_text())
        assert meta["config"][key] == cli.SOLVE_DEFAULTS[key]

    @pytest.mark.parametrize("key", ["bogus", "seed"])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, key):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"kernel": "exp:k=1", key: 1}))
        assert run(["solve", "--config", str(config)]) == 1
        assert key in json.loads(capsys.readouterr().err)["message"]


class TestClassifyCommand:
    @pytest.mark.parametrize("spec", ["exp:k=1", "gauss:sigma=1"])
    def test_discontinuous(self, tmp_path, spec):
        code = run(["classify", "--kernel", spec, "--u-minus", "2.5",
                    "--u-plus", "-2.5", "--grid-n", "256",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "classification.json").read_text())
        assert payload["measured"] == "discontinuous"
        assert payload["predicted_by_theorem"] is True
        assert len(payload["jumps"]) == 3
        sub = payload["subsolution"]
        assert set(sub) == {"epsilon", "halvings", "g_sup", "g_limit"}
        assert max(sub["g_sup"], sub["g_limit"]) <= 1.0
        # the finest grid's plan: 4 x 256 cells
        conv = payload["convolution"]
        assert conv["fft_length"] == 2048
        h = payload["length"] / 1024
        radius = cli.parse_kernel_spec(spec).radius(2.0 ** -56)
        assert conv["band_cells"] == int(np.ceil(radius / h))
        assert 0.0 < conv["dropped_mass"] <= 2.0 ** -56
        assert 0.0 <= conv["tail_mass"] <= cv.SOLVER_TAIL_TOL
        # the jump identity holds only across a continuous profile
        assert payload["jump_identity"] is None

    def test_continuous_reports_jump_identity(self, tmp_path):
        code = run(["classify", "--kernel", "exp:k=1", "--u-minus", "0.4",
                    "--u-plus", "-0.4", "--grid-n", "256", "--out-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "classification.json").read_text())
        assert payload["measured"] == "continuous"
        kernel = cli.parse_kernel_spec("exp:k=1")
        record = wv.classify_shock(kernel, wv.WaveParams(0.4, -0.4), n=256)
        assert payload["jump_identity"] == wv.jump_identity(record.profile, kernel)
        assert 0.0 <= payload["jump_identity"] <= 1e-4

    def test_indeterminate_exit_two(self, tmp_path):
        code = run(["classify", "--kernel", "exp:k=1", "--u-minus", "1",
                    "--u-plus", "-1", "--grid-n", "256", "--max-iter", "2",
                    "--out-dir", str(tmp_path)])
        assert code == 2


class TestSweepCommand:
    def test_rows_and_determinism(self, tmp_path):
        out = tmp_path / "sweep"
        argv = ["sweep", "--kernels", "exp:k=1;exp:k=2",
                "--amplitudes", "0.6,2.4", "--grid-n", "128",
                "--out-dir", str(out)]
        assert run(argv) == 0
        blob = (out / "sweep.csv").read_bytes()
        lines = blob.decode().splitlines()
        assert lines[0].startswith("kernel,amplitude,status")
        assert len(lines) == 5
        assert lines[1].startswith("exp:k=1,0.6,ok")
        assert lines[4].startswith("exp:k=2,2.4,ok")
        assert run(argv) == 0
        assert (out / "sweep.csv").read_bytes() == blob

    def test_empty_amplitudes_error(self, tmp_path, capsys):
        assert run(["sweep", "--kernels", "exp:k=1", "--amplitudes", "",
                    "--out-dir", str(tmp_path)]) == 1
        assert "amplitude" in json.loads(capsys.readouterr().err)["message"]

    def test_worker_pool_matches_serial(self, tmp_path):
        base = ["sweep", "--kernels", "exp:k=1", "--amplitudes", "0.6,2.4",
                "--grid-n", "128"]
        assert run(base + ["--out-dir", str(tmp_path / "serial")]) == 0
        assert run(base + ["--workers", "2",
                           "--out-dir", str(tmp_path / "pool")]) == 0
        assert ((tmp_path / "serial" / "sweep.csv").read_bytes()
                == (tmp_path / "pool" / "sweep.csv").read_bytes())

    def test_pool_never_wider_than_the_sweep(self, tmp_path, monkeypatch):
        # an in-process stand-in: a real pool forks all its workers at once
        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert run(["sweep", "--kernels", "exp:k=1", "--amplitudes", "0.6,2.4",
                    "--grid-n", "64", "--workers", "64",
                    "--out-dir", str(tmp_path)]) == 0
        assert asked == [2]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_rejected(self, tmp_path, capsys, workers):
        assert run(["sweep", "--kernels", "exp:k=1", "--amplitudes", "0.6",
                    "--grid-n", "64", "--workers", workers,
                    "--out-dir", str(tmp_path)]) == 1
        assert "workers" in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "sweep.csv").exists()

    def test_bad_rows_reported_not_fatal(self, tmp_path):
        assert run(["sweep", "--kernels", "exp:k=1;exp:k=-1",
                    "--amplitudes", "0.6", "--grid-n", "128",
                    "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1].split(",")[2] == "ok"
        assert "error" in lines[2]

    @pytest.mark.parametrize("bug", [wv.SchemeInvariantError, wv.IterateCollapseError])
    def test_discretization_bug_is_fatal(self, tmp_path, capsys, monkeypatch, bug):
        # a bug in one cell must not become a row next to a good one
        classify = wv.classify_shock

        def flaky(kernel, params, **kwargs):
            if params.amplitude > 1.0:
                raise bug("injected")
            return classify(kernel, params, **kwargs)

        monkeypatch.setattr(wv, "classify_shock", flaky)
        assert run(["sweep", "--kernels", "exp:k=1", "--amplitudes", "0.6,2.4",
                    "--grid-n", "64", "--out-dir", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == bug.__name__
        assert not (tmp_path / "sweep.csv").exists()

    def test_all_rows_failing_exit_one(self, tmp_path):
        assert run(["sweep", "--kernels", "exp:k=-1",
                    "--amplitudes", "0.6", "--grid-n", "128",
                    "--out-dir", str(tmp_path)]) == 1

    def test_log_spaced_sweep_respects_theorem(self, tmp_path):
        # rates 0.5/1/2, log-spaced amplitudes across [0.2, 10]: no row
        # above 1.1 x 4/k may come out continuous
        assert run(["sweep", "--kernels", "exp:k=0.5;exp:k=1;exp:k=2",
                    "--amp-log", "0.2:10:8", "--grid-n", "64",
                    "--workers", "2", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 24
        rates = {"exp:k=0.5": 0.5, "exp:k=1": 1.0, "exp:k=2": 2.0}
        for line in lines[1:]:
            parts = line.split(",")
            spec, amp, status, verdict = parts[0], float(parts[1]), parts[2], parts[3]
            assert status == "ok"
            if amp > 1.1 * 4.0 / rates[spec]:
                assert verdict in ("discontinuous", "indeterminate")


class TestSimulateCommand:
    def test_constant_run(self, tmp_path):
        code = run(["simulate", "--kernel", "exp:k=1", "--u-left", "2",
                    "--u-right", "2", "--cells", "256", "--t-end", "1",
                    "--init", "constant", "--out-dir", str(tmp_path)])
        assert code == 0
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert max(diag["max_slope"]) == 0.0
        # a constant state gains no mass and keeps its band margin
        assert diag["mass_drift"] == [0.0] * len(diag["times"])
        assert diag["band_margin"] == pytest.approx([cy.BAND_SLACK] * len(diag["times"]),
                                                    abs=1e-15)
        lines = (tmp_path / "snapshots.csv").read_text().splitlines()
        assert lines[0] == "t,x,u"

    def test_convolution_plan_reported(self, tmp_path):
        # exp:k=1 at 4000 cells on [-40, 40]: a band of 1941 cells beyond
        # which the kernel mass is below 2^-56, so 6000 FFT points
        code = run(["simulate", "--kernel", "exp:k=1", "--cells", "4000",
                    "--t-end", "0.25", "--out-dir", str(tmp_path)])
        assert code == 0
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        conv = diag["convolution"]
        assert sorted(conv) == ["band_cells", "dropped_mass", "fft_length"]
        assert conv["fft_length"] == 6000
        assert conv["band_cells"] == 1941
        assert 0.0 < conv["dropped_mass"] <= 2.0 ** -56

    def test_tanh_init_and_level(self, tmp_path):
        code = run(["simulate", "--kernel", "exp:k=1", "--u-left", "2",
                    "--u-right", "0", "--cells", "256", "--t-end", "1",
                    "--init", "tanh", "--tanh-steepness", "1.5", "--level", "1.5",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        # the front between u = 2 and u = 0 moves at about their mean
        assert diag["measured_speed"] == pytest.approx(1.0, abs=0.2)
        assert "measured_speed_error" not in diag
        t, x, u = np.loadtxt(tmp_path / "snapshots.csv", delimiter=",",
                             skiprows=1, unpack=True)
        start = t == 0.0
        np.testing.assert_allclose(u[start], 1.0 - np.tanh(1.5 * x[start]),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("level", ["2", "-0.5"])
    def test_level_outside_far_fields_is_reported(self, tmp_path, level):
        code = run(["simulate", "--kernel", "exp:k=1", "--u-left", "2",
                    "--u-right", "0", "--cells", "256", "--t-end", "0.5",
                    "--level", level, "--out-dir", str(tmp_path)])
        assert code == 0
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert "strictly between the far fields" in diag["measured_speed_error"]
        assert "measured_speed" not in diag

    def test_non_finite_diagnostics_leave_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cy.Trajectory, "slope_growth", lambda self: float("inf"))
        out = tmp_path / "out"
        code = run(["simulate", "--kernel", "exp:k=1", "--cells", "256",
                    "--t-end", "0.5", "--out-dir", str(out)])
        assert code == 1
        assert list(out.iterdir()) == []

    def test_init_from_profile(self, tmp_path):
        solve_dir = tmp_path / "wave"
        assert run(["solve", "--kernel", "exp:k=1", "--u-minus", "2",
                    "--u-plus", "0", "--grid-n", "512",
                    "--out-dir", str(solve_dir)]) == 0
        sim_dir = tmp_path / "sim"
        code = run(["simulate", "--kernel", "exp:k=1", "--u-left", "2",
                    "--u-right", "0", "--cells", "600", "--t-end", "2",
                    "--domain-a", "-30", "--domain-b", "30",
                    "--init-from", str(solve_dir / "profile.csv"),
                    "--out-dir", str(sim_dir)])
        assert code == 0
        diag = json.loads((sim_dir / "diagnostics.json").read_text())
        assert diag["measured_speed"] == pytest.approx(1.0, rel=0.05)
        assert diag["L1_error_vs_translate"] <= 0.5
        assert diag["translate_speed"] == 1.0

    def test_incompatible_profile_rejected(self, tmp_path, capsys):
        bad = tmp_path / "profile.csv"
        bad.write_text("x,U\n-1.0,5.0\n1.0,4.0\n")
        code = run(["simulate", "--kernel", "exp:k=1", "--u-left", "2",
                    "--u-right", "0", "--cells", "256", "--t-end", "1",
                    "--init-from", str(bad), "--out-dir", str(tmp_path)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SimulationError"

    def test_non_finite_far_state_refused(self, tmp_path, capsys):
        # a table whose ends match no far state: a NaN far state is refused
        # with the config, before the table is read or any step runs
        table = tmp_path / "profile.csv"
        table.write_text("x,U\n-1,1\n1,-1\n")
        code = run(["simulate", "--init-from", str(table), "--u-left", "nan",
                    "--u-right", "-1", "--cells", "256", "--t-end", "1",
                    "--out-dir", str(tmp_path / "sim")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "'u_left'" in err["message"]
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("key, value, in_file", [
        ("snapshot_interval", "inf", False), ("tanh_steepness", "inf", False),
        ("level", "inf", False), ("t_end", "-inf", False),
        ("cfl", "Infinity", True), ("cfl", "-Infinity", True), ("cfl", "NaN", True)])
    def test_non_finite_value_refused_before_the_run(self, tmp_path, capsys,
                                                     monkeypatch, key, value,
                                                     in_file):
        # every meta JSON embeds the config, which could not hold the value:
        # it is refused before the simulation runs, not after
        entered = []
        monkeypatch.setattr(cy, "simulate", lambda *a, **kw: entered.append(a))
        if in_file:
            config = tmp_path / "run.json"
            config.write_text(f'{{"{key}": {value}}}')
            flags = ["--config", str(config)]
        else:
            flags = [f"--{key.replace('_', '-')}={value}"]
        out = tmp_path / "sim"
        code = run(["simulate", "--init", "tanh", "--cells", "128",
                    "--t-end", "0.5", *flags, "--out-dir", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert repr(key) in err["message"]
        assert entered == [] and not out.exists()

    @pytest.mark.parametrize("rows", ["1,1\n0,0.5\n-1,-1\n", "0,1\n0,1\n",
                                      "0,1\n"], ids=["decreasing", "repeated", "one_row"])
    def test_unordered_profile_table_rejected(self, tmp_path, capsys, rows):
        # np.interp silently misreads a table whose x column is not increasing
        table = tmp_path / "profile.csv"
        table.write_text("x,U\n" + rows)
        code = run(["simulate", "--kernel", "exp:k=1", "--u-left", "1",
                    "--u-right", "-1", "--cells", "256", "--t-end", "1",
                    "--init-from", str(table), "--out-dir", str(tmp_path / "sim")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        assert not (tmp_path / "sim" / "diagnostics.json").exists()


class TestKernelValidateCommand:
    def test_pass_and_report(self, tmp_path):
        code = run(["kernel-validate", "--kernel", "uniform:a=1",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "kernel_validation.json").read_text())
        assert payload["all_passed"] is True
        assert payload["density_continuous"] is False
        assert set(payload["checks"]) >= {"evenness", "nonnegativity",
                                          "unit_mass", "monotone_decay",
                                          "finite_m2"}

    def test_failed_check_is_written(self, tmp_path):
        # peaks at +-2: the report still says which check failed, and by
        # what (the density's rise of 2 over one probe step of 3/255)
        y = np.arange(-6, 7) * 0.5
        table = tmp_path / "bimodal.csv"
        table.write_text("".join(f"{v:g},{float(abs(v) == 2.0):g}\n" for v in y))
        code = run(["kernel-validate", "--kernel", f"table:{table}",
                    "--out-dir", str(tmp_path)])
        assert code == 1
        payload = json.loads((tmp_path / "kernel_validation.json").read_text())
        failed = {name for name, c in payload["checks"].items() if not c["passed"]}
        assert failed == {"monotone_decay"}
        assert payload["checks"]["monotone_decay"]["worst"] == pytest.approx(
            6.0 / 255.0, rel=1e-12)

    def test_bad_spec_exit_one(self, tmp_path, capsys):
        assert run(["kernel-validate", "--kernel", "exp:k=-1",
                    "--out-dir", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "KernelError"
