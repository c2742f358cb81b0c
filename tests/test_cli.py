"""CLI contract: files, exit codes, determinism, config handling."""

import argparse
import json

import numpy as np
import pytest

from nlburgers import cli
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
        assert (out / "profile.csv").exists()
        assert (out / "trace.csv").exists()

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

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
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
        lines = (tmp_path / "snapshots.csv").read_text().splitlines()
        assert lines[0] == "t,x,u"

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

    def test_failed_finite_m2_is_written(self, tmp_path):
        # m1 = m2 = 0: the report still says which check failed, and by what
        table = tmp_path / "t.csv"
        table.write_text("-1,0\n0,1\n1,0\n")
        code = run(["kernel-validate", "--kernel", f"table:{table}:renorm",
                    "--out-dir", str(tmp_path)])
        assert code == 1
        payload = json.loads((tmp_path / "kernel_validation.json").read_text())
        assert payload["checks"]["finite_m2"] == {"passed": False, "worst": 0.0}

    def test_bad_spec_exit_one(self, tmp_path, capsys):
        assert run(["kernel-validate", "--kernel", "exp:k=-1",
                    "--out-dir", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "KernelError"
