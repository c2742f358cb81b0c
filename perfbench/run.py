"""Benchmark launcher.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Runs one workload (solve, sweep or simulate) against the library in this
checkout's ``src/``.  ``--trace 0`` measures the end-to-end metrics with
no instrumentation; ``--trace 1`` runs the traced passes and reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
record (sample counts, machine facts, and the spans of a traced run) goes
to ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.  README.md in
this directory explains the workloads and how to read the report.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

# One BLAS/OpenMP thread, identical for every commit: the single client
# then owns one of the two cores, and subsolution's matrix-vector products
# do not time-share the other core with whatever else the machine runs.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

SETUP_REPEATS = 3
CLI_REPEATS = 5
CLI_TIMEOUT_S = 120

#: a traced op's span self times must sum to its wall time within this share
SELF_SUM_TOL = 0.03


@dataclass
class Tally:
    """Checked ops of one run: counts and the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, failures: list):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures[:2])


@dataclass
class Measurement:
    times: list      # raw wall time of each op
    scaled: list     # the same at nominal machine speed (see probe.py)
    probes: list
    failed: int
    passes: int

    @property
    def passed(self) -> int:
        return len(self.times) - self.failed


def run_op(op, tally: Tally) -> float:
    """Run one op and its checks; an op that raises counts as failed."""
    t0 = time.perf_counter()
    try:
        failures = op.run()
    except Exception as exc:  # the run goes on; the op is a failure
        failures = [f"{op.label}: {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    tally.record(failures)
    return elapsed


def measure(ops, seconds: float, min_ops: int, tally: Tally, probe,
            between=None) -> Measurement:
    """Whole passes over ``ops`` until at least ``min_ops`` ops ran and the
    op time is nearer to ``seconds`` than one more pass would bring it.
    The probe runs before every op; each pass is scaled by its probe
    median.  ``between(op time so far)`` runs after every op, untimed."""
    from perfbench import stats
    from perfbench.probe import PROBE_REF_S

    m = Measurement([], [], [], 0, 0)
    failed_before = tally.failed
    done = 0.0
    while True:
        raw, probes = [], []
        for op in ops:
            probes.append(probe())
            raw.append(run_op(op, tally))
            done += raw[-1]
            if between is not None:
                between(done)
        factor = PROBE_REF_S / stats.median(probes)
        m.times += raw
        m.scaled += [t * factor for t in raw]
        m.probes += probes
        m.passes += 1
        if len(m.times) >= min_ops and done + 0.5 * sum(raw) >= seconds:
            m.failed = tally.failed - failed_before
            return m


def _checked(check, out: Path) -> list:
    try:
        return check(out)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"cli outputs unreadable: {type(exc).__name__}: {exc}"]


def run_cli_child(cli_op, out: Path, tally: Tally) -> float:
    """One op through ``python -m nlburgers.cli``, interpreter start and
    output files included in the time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "nlburgers.cli", *cli_op.argv(out)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        tally.record([f"cli exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"])
    else:
        tally.record(_checked(cli_op.check, out))
    return elapsed


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# untraced run: end-to-end metrics
# ----------------------------------------------------------------------


def run_untraced(args, setup, reference, tmp: Path, import_s: float):
    from perfbench import stats
    from perfbench.probe import PROBE_REF_S, Probe
    from perfbench.workloads import MIN_OPS

    tally = Tally()
    probe = Probe()
    setup_probes = [probe() for _ in range(5)]
    builds = []
    for r in range(SETUP_REPEATS):
        workdir = _fresh_dir(tmp / f"setup{r}")
        t0 = time.perf_counter()
        workload = setup(args.seed, reference, workdir)
        builds.append(time.perf_counter() - t0)
    warmup_s = run_op(workload.warmup, tally)
    build_s = stats.median(builds)
    setup_raw = import_s + build_s + warmup_s

    cli_times, cli_probes = [], []

    def cli_run():
        cli_probes.append(probe())
        out = _fresh_dir(tmp / f"cli{len(cli_times)}")
        cli_times.append(run_cli_child(workload.cli, out, tally))

    interval = args.seconds / CLI_REPEATS

    def between(op_time):
        # CLI runs spread evenly over the timed ops, so that they meet the
        # same machine phases as the probes that scale them
        if len(cli_times) < CLI_REPEATS and op_time >= (len(cli_times) + 0.5) * interval:
            cli_run()

    m = measure(workload.ops, args.seconds, MIN_OPS, tally, probe, between)
    while len(cli_times) < CLI_REPEATS:
        cli_run()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # set-up and CLI runs are few and short, so they are scaled by the
    # median of every probe of the run rather than by their own few
    run_factor = PROBE_REF_S / stats.median(setup_probes + m.probes + cli_probes)
    n = len(m.times)
    tail_p = stats.tail_percentile(MIN_OPS)
    busy, raw_busy = sum(m.scaled), sum(m.times)
    rows = [
        ("ops_per_s", m.passed / busy, "1/s",
         f"{m.passed} passed ops / {busy:.3f} s of op time, {m.passes} passes; "
         f"raw {m.passed / raw_busy:.4g}"),
        ("op_p50_s", stats.median(m.scaled), "s",
         f"n={n} ops; raw {stats.median(m.times):.4g}"),
        ("op_tail_s", stats.percentile(m.scaled, tail_p), "s",
         f"p{tail_p:g} of n={n} ops, {stats.beyond(n, tail_p)} beyond; "
         f"raw {stats.percentile(m.times, tail_p):.4g}"),
        ("setup_s", setup_raw * run_factor, "s",
         f"raw {setup_raw:.4g} = import {import_s:.3f} + median of {SETUP_REPEATS} "
         f"set-ups {build_s:.3f} + warm-up op {warmup_s:.3f}"),
        ("peak_rss_mb", peak_rss_mb, "MB", "1 process, set-up included"),
        ("cli_s", stats.median(cli_times) * run_factor, "s",
         f"median of {len(cli_times)} child runs; raw {stats.median(cli_times):.4g}"),
    ]
    report = [f"  {name:<13} {value:14.6g} {unit:<4} ({note})"
              for name, value, unit, note in rows]
    report.append(f"  {'failed_ratio':<13} {m.failed / n:14.6g} {'':<4} "
                  f"({m.failed} of {n} timed ops; every checked op: "
                  f"{tally.failed} of {tally.attempted})")
    report.append(f"  times are at nominal machine speed: x {PROBE_REF_S} s / probe median "
                  f"(each pass for op times; whole run {PROBE_REF_S / run_factor:.4g} s "
                  f"for set-up and CLI)")
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    detail = {"metrics": {name: {"value": value, "unit": unit, "samples": note}
                          for name, value, unit, note in rows},
              "failed_ratio": m.failed / n, "op_times_s": m.times,
              "op_times_scaled_s": m.scaled, "probe_s": m.probes,
              "setup_probe_s": setup_probes, "cli_probe_s": cli_probes,
              "cli_times_s": cli_times, "setup_builds_s": builds}
    return tally, metrics, report, detail


# ----------------------------------------------------------------------
# traced run: per-layer metrics
# ----------------------------------------------------------------------


def run_cli_inprocess(cli, cli_op, out: Path, tally: Tally):
    code = cli.main(cli_op.argv(out))
    if code != 0:
        tally.record([f"cli exit code {code}"])
    else:
        tally.record(_checked(cli_op.check, out))


def traced_pass(args, setup, reference, tmp: Path, lib, tally: Tally, rep: int):
    """Set-up, one pass and the CLI op under the tracer.  In the first pass
    each op also runs untraced right before its traced run, so that the
    overhead estimate compares neighbouring runs of the same op."""
    from perfbench import tracing

    tracer = tracing.Tracer()
    walls, plain = {}, {}
    with tracing.installed(tracer, lib), tracer.root("setup", "setup"):
        workload = setup(args.seed, reference, _fresh_dir(tmp / f"trace{rep}"))
    for k, op in enumerate(workload.ops):
        if rep == 0:
            plain[k] = run_op(op, tally)
        with tracing.installed(tracer, lib):
            t0 = time.perf_counter()
            with tracer.root("op", k):
                run_op(op, tally)
            walls[k] = time.perf_counter() - t0
    out = _fresh_dir(tmp / f"trace{rep}-cli")
    with tracing.installed(tracer, lib), tracer.root("cli", "cli"):
        run_cli_inprocess(lib.cli, workload.cli, out, tally)
    tracer.add("cli.bytes_written", dir_bytes(out))
    return tracer, walls, sum(plain.values())


def run_traced(args, setup, reference, tmp: Path, lib, per_layer):
    from perfbench import tracing

    tally = Tally()
    workload = setup(args.seed, reference, _fresh_dir(tmp / "setup"))
    run_op(workload.warmup, tally)

    tracer, walls, plain_s = traced_pass(args, setup, reference, tmp, lib, tally, 0)
    tracer_b, _, _ = traced_pass(args, setup, reference, tmp, lib, tally, 1)
    layers = tracing.layer_metrics(tracer.spans, tracer.counts)
    layers_b = tracing.layer_metrics(tracer_b.spans, tracer_b.counts)
    for name, entry in layers.items():
        if entry["unit"] in tracing.COUNT_UNITS and entry["value"] != layers_b[name]["value"]:
            tally.record([f"count {name} differs between traced passes: "
                          f"{entry['value']} vs {layers_b[name]['value']}"])

    sums = tracing.op_self_sums(tracer.spans)
    wall = sum(walls.values())
    self_sum = sum(sums[k] for k in walls)
    root_self = sum(s for (name, *_), s in zip(tracer.spans, tracing.self_times(tracer.spans))
                    if name == "op")
    if not abs(self_sum / wall - 1.0) <= SELF_SUM_TOL:
        tally.record([f"span self times sum to {self_sum:.4f} s over {wall:.4f} s of ops"])
    n_ops = len(walls)
    overhead = wall / plain_s - 1.0

    report = [f"  {name:<36} {entry['value']:14.6g} {entry['unit']}"
              for name, entry in layers.items()]
    report += [
        f"  {n_ops} ops run untraced then traced: {n_ops / plain_s:.4g} vs "
        f"{n_ops / wall:.4g} ops/s, tracing overhead {overhead:+.2%}",
        f"  sum of op span self times / op wall time = {self_sum / wall:.5f}; "
        f"unattributed (op root self) share {root_self / wall:.2%}; "
        f"{len(tracer.spans)} spans",
    ]
    metrics = {name: {"value": layers[name]["value"], "unit": layers[name]["unit"]}
               for name in per_layer}
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    detail = {
        "layers": layers,
        "tracing_overhead": overhead,
        "untraced_ops_per_s": n_ops / plain_s,
        "traced_ops_per_s": n_ops / wall,
        "self_sum_over_wall": self_sum / wall,
        "unattributed_share": root_self / wall,
        "span_fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": [[n, s - origin, e - origin, p, o] for n, s, e, p, o in tracer.spans],
    }
    return tally, metrics, report, detail


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "sweep", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_PINS)  # before numpy loads OpenBLAS
    sys.path[:0] = [str(SRC), str(ROOT)]

    t0 = time.perf_counter()
    try:
        import nlburgers
        import nlburgers.cli  # the package does not import its CLI itself
    except ImportError as exc:
        print(f"perfbench: cannot import nlburgers from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if SRC not in Path(nlburgers.__file__).resolve().parents:
        print(f"perfbench: nlburgers imported from {nlburgers.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    for path in (REFERENCE, SPEC):
        if not path.is_file():
            print(f"perfbench: missing {path}", file=sys.stderr)
            return 2

    from perfbench import machine, workloads

    reference = workloads.load_reference(REFERENCE)
    setup = workloads.SETUPS[args.workload]
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            per_layer = [m["name"] for m in json.loads(SPEC.read_text())["per_layer"]]
            tally, metrics, report, detail = run_traced(args, setup, reference, tmp,
                                                        nlburgers, per_layer)
        else:
            tally, metrics, report, detail = run_untraced(args, setup, reference, tmp,
                                                          import_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    facts = machine.machine_facts(ROOT, args.seed, THREAD_PINS)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "failures": tally.messages,
              **detail, "result": result}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"({tally.attempted} checked ops, {tally.failed} failed; record in {path})")
    for message in tally.messages[:10]:
        print(f"  FAILED {message}")
    print("\n".join(report))
    print("machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
