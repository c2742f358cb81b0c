"""Regenerate reference.json: the jump (and, for sweep cells, the verdict
and all three jumps) at every grid point a seeded workload can draw.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when the fixed point itself is meant to change; the benchmark
fails any op whose jump strays from this file by more than JUMP_RTOL u_c.
Centres are 0 here: a wave's half-line component depends on u_c alone.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent))
    from perfbench.run import THREAD_PINS
    os.environ.update(THREAD_PINS)  # before numpy loads OpenBLAS
    from perfbench import workloads as w

    solve = {}
    for spec in w.SOLVE_SPECS:
        kernel = w.build_kernel(spec)
        rows = []
        for i in range(w.SOLVE_RHO.size):
            profile, _ = w.solve(kernel, w.wave_params(kernel, w.SOLVE_RHO.value(i), 0.0))
            rows.append(profile.jump)
        solve[spec] = rows
        print("solve", spec, flush=True)

    sweep = {}
    for spec in w.SWEEP_SPECS:
        kernel = w.build_kernel(spec)
        rows = []
        for i in range(w.SWEEP_RHO.size):
            record = w.classify(kernel, w.wave_params(kernel, w.SWEEP_RHO.value(i), 0.0))
            rows.append({"verdict": record.measured, "jumps": list(record.jumps)})
        sweep[spec] = rows
        print("sweep", spec, flush=True)

    simulate = {}
    for spec in w.SIM_SPECS:
        kernel = w.build_kernel(spec)
        rows = []
        for i in range(w.SIM_UC.size):
            u_c = w.SIM_UC.value(i)
            profile, _ = w.solve(kernel, w.waves.WaveParams(u_c, -u_c))
            rows.append(profile.jump)
        simulate[spec] = rows
        print("simulate", spec, flush=True)

    payload = {"jump_rtol_of_u_c": w.JUMP_RTOL, "solve": solve, "sweep": sweep,
               "simulate": simulate}
    with open(HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
