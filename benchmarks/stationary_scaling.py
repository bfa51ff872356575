"""Time the lattice core against the lattice size L on one or more checkouts.

    python benchmarks/stationary_scaling.py --src after=src \\
        --src before=../parent/src --half-widths 18,34,70,150,500,1000 \\
        --pairs 5 --repeats 3 --out BENCH_core.json

Every (pair, checkout, size) runs in a fresh Python process with BLAS
threads fixed at one, so its peak RSS belongs to that size alone; checkouts
alternate within every pair so drift in machine speed hits them alike.  On
the bundled parameters (scenarios/lattice.json) each process builds the
lattice --repeats times (build_lattice), applies the generator to the
thermal state 10 * --repeats times (apply), calls stationary_state
--repeats times, evaluates the operator-form oracle on one seeded random
state 10 * --repeats times (collisional_apply) and runs the invariant
suite behind `hybridtherm verify` --repeats times (verification_report,
20 random states, seed 0); it reports the median call of each, whether the
stationary marginal matched the closed-form weights to 1e-8 and every
verify check passed, and its peak RSS.  The JSON holds, per checkout and
L, the median and quartiles of those per-process figures, and the machine,
Python, numpy and BLAS-thread settings.
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
TIMED = (
    "build_lattice_s", "apply_s", "stationary_s", "collisional_apply_s", "verify_s",
    "peak_rss_mb",
)

CHILD = r"""
import json, resource, statistics, sys, time, warnings
import numpy as np
sys.path.insert(0, sys.argv[1])
from hybridtherm.generator import apply, collisional_apply, stationary_state
from hybridtherm.models import LatticeScenario, build_lattice, lattice_weights
from hybridtherm.state import classical_marginal
from hybridtherm.thermal import hybrid_thermal
from hybridtherm.verify import random_hybrid_state, verification_report
lattice = json.load(open(sys.argv[2]))["lattice"]
half, repeats = int(sys.argv[3]), int(sys.argv[4])
s = LatticeScenario(beta=1.0, **{**lattice, "half_width": half})

def timed(call, count):
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out

def marginal():
    try:
        return classical_marginal(stationary_state(gen))
    except RuntimeError:
        return None

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    build_s, (h, gen) = timed(lambda: build_lattice(s), repeats)
    thermal = hybrid_thermal(h, s.beta)
    apply_s, _ = timed(lambda: apply(gen, thermal), 10 * repeats)
    stationary_s, got = timed(marginal, repeats)
    probe = random_hybrid_state(np.random.default_rng(0), h.num_labels, h.dim_s)
    collisional_s, _ = timed(lambda: collisional_apply(gen, probe), 10 * repeats)
    verify_s, report = timed(
        lambda: verification_report(gen, np.random.default_rng(0)), repeats
    )
want = lattice_weights(s, half)
normal = want > 1e-300
ok = report["all_passed"] and got is not None and bool(
    np.max(np.abs(got[normal] - want[normal]) / want[normal]) < 1e-8
)
print(json.dumps({
    "L": h.num_labels,
    "build_lattice_s": build_s,
    "apply_s": apply_s,
    "stationary_s": stationary_s,
    "collisional_apply_s": collisional_s,
    "verify_s": verify_s,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "correct": ok,
}))
"""


def run_child(src: str, half_width: int, repeats: int) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            CHILD,
            src,
            str(ROOT / "scenarios" / "lattice.json"),
            str(half_width),
            str(repeats),
        ],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout)


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles over processes, per size and figure."""
    table = {}
    for size in runs[0]:
        row = {}
        for key in TIMED:
            values = np.array([run[size][key] for run in runs])
            q1, med, q3 = np.percentile(values, [25, 50, 75])
            row[key] = {
                "median": float(f"{med:.6g}"),
                "q1": float(f"{q1:.6g}"),
                "q3": float(f"{q3:.6g}"),
            }
        row["correct"] = all(run[size]["correct"] for run in runs)
        table[f"L{runs[0][size]['L']}"] = row
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", action="append", required=True, help="label=path to a src directory"
    )
    parser.add_argument("--half-widths", default="18,34,70,150,500,1000")
    parser.add_argument("--pairs", type=int, default=5, help="fresh processes per checkout")
    parser.add_argument("--repeats", type=int, default=3, help="calls per process")
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    checkouts = dict(item.split("=", 1) for item in args.src)
    half_widths = [int(h) for h in args.half_widths.split(",")]
    runs = {label: [] for label in checkouts}
    for pair in range(args.pairs):
        # alternate which checkout goes first
        order = list(checkouts.items())[:: 1 if pair % 2 == 0 else -1]
        for label, src in order:
            runs[label].append(
                {half: run_child(src, half, args.repeats) for half in half_widths}
            )
    report = {
        "method": (
            f"{args.pairs} alternating fresh processes per checkout and size; each "
            f"reports the median of {args.repeats} build_lattice calls, "
            f"{10 * args.repeats} apply calls on the thermal state, "
            f"{args.repeats} stationary_state calls, {10 * args.repeats} "
            f"collisional_apply calls on one random state and {args.repeats} "
            "verification_report calls (20 states, seed 0), and its peak RSS; "
            "figures are the median and quartiles over processes"
        ),
        "half_widths": half_widths,
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
