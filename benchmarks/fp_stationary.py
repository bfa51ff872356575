"""Fokker-Planck fixed point against the grid thermal fields, on one or more
checkouts.

    python benchmarks/fp_stationary.py --src after=src \\
        --src before=../parent/src --points 151,301,601,1201 \\
        --pairs 3 --repeats 5 --out BENCH_fp_stationary.json

Every (pair, checkout, size) runs in a fresh Python process with BLAS
threads fixed at one; checkouts alternate within every pair.  On the
bundled parameters (scenarios/fokker_planck.json, its x_max, gamma and
kappa_th) with the given number of grid points, each process builds
FokkerPlanckEvolution with its checkout's default stencil, calls
stationary_populations --repeats times and reports the median call and the
largest distance of the fixed point from thermal_fields(), as a fraction
of the peak of thermal_fields().  The JSON holds, per checkout and size,
the median and quartiles of the times over processes, the largest error,
and the machine, Python, numpy and BLAS-thread settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = r"""
import json, statistics, sys, time, warnings
import numpy as np
sys.path.insert(0, sys.argv[1])
from hybridtherm.continuum import ContinuumParams, FokkerPlanckEvolution
scenario = json.load(open(sys.argv[2]))
fp = scenario["fokker_planck"]
points, repeats = int(sys.argv[3]), int(sys.argv[4])
params = ContinuumParams(
    beta=scenario["beta"], omega_0=fp["omega_0"], delta_omega=fp["delta_omega"],
    delta_e=fp["delta_e"], delta_x=fp["delta_x"],
)
x = np.linspace(-fp["x_max"], fp["x_max"], points)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    evo = FokkerPlanckEvolution(params, x, gamma=fp["gamma"], kappa_th=fp["kappa_th"])
times = []
for _ in range(repeats):
    t0 = time.perf_counter()
    pp, pm = evo.stationary_populations()
    times.append(time.perf_counter() - t0)
target = evo.thermal_fields()
peak = max(target.p_plus.max(), target.p_minus.max())
error = max(np.max(np.abs(pp - target.p_plus)), np.max(np.abs(pm - target.p_minus)))
print(json.dumps({"stationary_s": statistics.median(times), "error": float(error / peak)}))
"""


def run_child(src: str, points: int, repeats: int) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    out = subprocess.run(
        [
            sys.executable, "-c", CHILD, src,
            str(ROOT / "scenarios" / "fokker_planck.json"), str(points), str(repeats),
        ],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def summarize(runs: list[dict]) -> dict:
    """Quartiles of the time over processes and the worst error, per size."""
    table = {}
    for points in runs[0]:
        values = np.array([run[points]["stationary_s"] for run in runs])
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        table[str(points)] = {
            "stationary_s": {
                "median": float(f"{med:.6g}"),
                "q1": float(f"{q1:.6g}"),
                "q3": float(f"{q3:.6g}"),
            },
            "fixed_point_error": float(f"{max(run[points]['error'] for run in runs):.3g}"),
        }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", action="append", required=True, help="label=path to a src directory"
    )
    parser.add_argument("--points", default="151,301,601,1201")
    parser.add_argument("--pairs", type=int, default=3, help="fresh processes per checkout")
    parser.add_argument("--repeats", type=int, default=5, help="calls per process")
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    checkouts = dict(item.split("=", 1) for item in args.src)
    sizes = [int(p) for p in args.points.split(",")]
    runs = {label: [] for label in checkouts}
    for pair in range(args.pairs):
        # alternate which checkout goes first
        order = list(checkouts.items())[:: 1 if pair % 2 == 0 else -1]
        for label, src in order:
            runs[label].append({p: run_child(src, p, args.repeats) for p in sizes})
    report = {
        "method": (
            f"{args.pairs} alternating fresh processes per checkout and size; each "
            f"reports the median of {args.repeats} stationary_populations calls and "
            "the fixed point's largest distance from thermal_fields() over its "
            "peak; figures are the median and quartiles over processes and the "
            "largest error"
        ),
        "points": sizes,
        "machine": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {var: "1" for var in THREAD_VARS},
        },
        "results": {label: summarize(r) for label, r in runs.items()},
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
