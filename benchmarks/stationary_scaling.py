"""Time stationary_state against the lattice size L on one or more checkouts.

    python benchmarks/stationary_scaling.py --src after=src \\
        --src before=../parent/src --half-widths 18,34,50,68,70,100,150 \\
        --pairs 5 --repeats 3 --out BENCH_stationary.json

Each (pair, checkout) runs in a fresh Python process with BLAS threads
fixed at one; checkouts alternate within every pair so drift in machine
speed hits them alike.  In each process the lattice is built once per size
on the bundled parameters (scenarios/lattice.json) and stationary_state is
called --repeats times; the process reports the median call.  The JSON
holds, per checkout and L, the median and quartiles of those per-process
medians, whether the result matched the closed-form weights to 1e-8, and
the machine, Python, numpy and BLAS-thread settings.
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
from hybridtherm.generator import stationary_state
from hybridtherm.models import LatticeScenario, build_lattice, lattice_weights
from hybridtherm.state import classical_marginal
lattice = json.load(open(sys.argv[2]))["lattice"]
repeats = int(sys.argv[4])
rows = {}
for half in map(int, sys.argv[3].split(",")):
    s = LatticeScenario(beta=1.0, **{**lattice, "half_width": half})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        h, gen = build_lattice(s)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            try:
                got = classical_marginal(stationary_state(gen))
            except RuntimeError:
                got = None
            times.append(time.perf_counter() - t0)
    want = lattice_weights(s, half)
    normal = want > 1e-300
    ok = got is not None and bool(
        np.max(np.abs(got[normal] - want[normal]) / want[normal]) < 1e-8
    )
    rows[h.num_labels] = {"s": statistics.median(times), "correct": ok}
print(json.dumps(rows))
"""


def run_child(src: str, half_widths: str, repeats: int) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            CHILD,
            src,
            str(ROOT / "scenarios" / "lattice.json"),
            half_widths,
            str(repeats),
        ],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout)


def summarize(runs: list[dict]) -> dict:
    table = {}
    for size in runs[0]:
        times = np.array([run[size]["s"] for run in runs])
        q1, med, q3 = np.percentile(times, [25, 50, 75])
        table[f"L{size}"] = {
            "median_s": float(f"{med:.6g}"),
            "q1_s": float(f"{q1:.6g}"),
            "q3_s": float(f"{q3:.6g}"),
            "correct": all(run[size]["correct"] for run in runs),
        }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", action="append", required=True, help="label=path to a src directory"
    )
    parser.add_argument("--half-widths", default="18,34,50,68,70,100,150")
    parser.add_argument("--pairs", type=int, default=5, help="fresh processes per checkout")
    parser.add_argument("--repeats", type=int, default=3, help="calls per process")
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    checkouts = dict(item.split("=", 1) for item in args.src)
    runs = {label: [] for label in checkouts}
    for _ in range(args.pairs):
        for label, src in checkouts.items():
            runs[label].append(run_child(src, args.half_widths, args.repeats))
    report = {
        "method": (
            f"{args.pairs} alternating fresh processes per checkout; each builds the "
            f"lattice once per size and reports the median of {args.repeats} "
            "stationary_state calls; figures are the median and quartiles over processes"
        ),
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
