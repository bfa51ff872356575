"""Time per sample of warm propagation runs on the bundled scenarios.

    python benchmarks/sample_cost.py --src change=src --src parent=../parent/src \\
        --pairs 9 --repeats 20 --out sample_cost.json

Each (pair, checkout, scenario) runs in a fresh Python process with BLAS
threads fixed at one; checkouts alternate within every pair, so drift in
machine speed hits them alike.  A process builds the scenario's model the
way `hybridtherm evolve` does (tls and lattice with the thermal target,
Fokker-Planck from the polarized start), runs one untimed integrate so every
cache a model keeps is warm, then times --repeats integrate calls on the
same model.  It reports the median call divided by the sample intervals of
the run, in microseconds.  The JSON holds the median and quartiles over
processes, and the machine, Python, numpy and BLAS-thread settings.
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
SCENARIOS = ("tls", "lattice", "fokker_planck")

CHILD = r"""
import json, statistics, sys, time, warnings
sys.path.insert(0, sys.argv[1])
from hybridtherm import cli, evolve
from hybridtherm.thermal import hybrid_thermal
name, repeats = sys.argv[2], int(sys.argv[3])
scenario = cli.load_scenario(sys.argv[4])
cfg = evolve.IntegratorConfig(**scenario["integrator"])
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    if name == "fokker_planck":
        _, evo = cli.build_continuum(scenario)
        start = evo.polarized_fields()
        run = lambda: evo.integrate(start, cfg)
    else:
        h, gen = cli.build_discrete(scenario)
        start = cli._initial_discrete(scenario, h, gen, scenario["beta"], None)
        target = hybrid_thermal(h, scenario["beta"])
        run = lambda: evolve.integrate(gen, start, cfg, target=target)
    intervals = len(run().times) - 1
    seconds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        seconds.append(time.perf_counter() - t0)
print(json.dumps({"intervals": intervals, "us_per_sample": 1e6 * statistics.median(seconds) / intervals}))
"""


def run_child(src: str, name: str, repeats: int) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    out = subprocess.run(
        [sys.executable, "-c", CHILD, src, name, str(repeats),
         str(ROOT / "scenarios" / f"{name}.json")],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/sample_cost.py")
    parser.add_argument("--src", action="append", required=True, help="label=path to a src tree")
    parser.add_argument("--pairs", type=int, default=9)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    checkouts = [tuple(item.split("=", 1)) for item in args.src]
    runs: dict = {label: {name: [] for name in SCENARIOS} for label, _ in checkouts}
    intervals: dict = {label: {} for label, _ in checkouts}
    for pair in range(args.pairs):
        order = checkouts if pair % 2 == 0 else checkouts[::-1]
        for name in SCENARIOS:
            for label, src in order:
                result = run_child(src, name, args.repeats)
                runs[label][name].append(result["us_per_sample"])
                intervals[label][name] = result["intervals"]
    report = {
        "method": (
            f"{args.pairs} alternating fresh processes per checkout and scenario; each "
            f"times {args.repeats} warm integrate calls on one model and reports the "
            "median call over the run's sample intervals"
        ),
        "machine": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {var: "1" for var in THREAD_VARS},
        },
        "us_per_sample": {
            label: {
                name: {"intervals": intervals[label][name], **quartiles(values)}
                for name, values in by_name.items()
            }
            for label, by_name in runs.items()
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
