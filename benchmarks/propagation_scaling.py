"""Time sample-interval propagation against system size on one or more checkouts.

    python benchmarks/propagation_scaling.py --src after=src \\
        --src before=../parent/src --half-widths 18,70,150,500,1000 \\
        --points 151,301,601,1201 --pairs 3 --cli-repeats 3 --tier1 \\
        --perfbench-dir ../pairs --out BENCH_propagate.json

Each checkout propagates with its own default integrator method.  Every
(pair, checkout, size) runs in a fresh Python process with BLAS threads
fixed at one; checkouts alternate within every pair so drift in machine
speed hits them alike.

- Lattice: the bundled parameters (scenarios/lattice.json) at each
  half_width, from the uniform start, --samples intervals of sample_dt 1.
- Fokker-Planck: the bundled scenario (scenarios/fokker_planck.json) at each
  number of grid points, from the polarized start, --samples intervals of
  sample_dt 2.

Each process reports the wall time per sample interval, its peak RSS and,
where the checkout has ExactPropagator, the uniformization mean Lambda*dt,
the substeps and the scatter terms per interval.  --cli-repeats times
`hybridtherm evolve` on each checkout's bundled scenarios as whole processes;
--tier1 times one run of each checkout's test suite.  --perfbench-dir
summarizes perfbench runs saved as <workload>-<label>-<pair>.json, the
standard output of `python3 perfbench/run.py --workload W --seed 300+pair
--seconds 20 --trace 0` run in each checkout with the order alternating
between pairs.  The JSON holds medians and quartiles, and the machine,
Python, numpy and BLAS-thread settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SCENARIOS = ("tls", "lattice", "fokker_planck")

CHILD = r"""
import inspect, json, resource, sys, time, warnings
import numpy as np
sys.path.insert(0, sys.argv[1])
from hybridtherm import evolve
from hybridtherm.continuum import ContinuumParams, FokkerPlanckEvolution
from hybridtherm.models import LatticeScenario, build_lattice
from hybridtherm.state import HybridState
kind, size, samples = sys.argv[3], int(sys.argv[4]), int(sys.argv[5])
scenario = json.load(open(sys.argv[2]))
exact = getattr(evolve, "ExactPropagator", None)
def propagator(src, tgt, rate, n, multiplier):
    # older checkouts take the outflow of every state in place of n
    if "outflow" in inspect.signature(exact).parameters:
        n = np.bincount(src, rate, minlength=n)
    return exact(src, tgt, rate, n, multiplier)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    if kind == "lattice":
        s = LatticeScenario(beta=scenario["beta"], **{**scenario["lattice"], "half_width": size})
        h, gen = build_lattice(s)
        L, d = h.num_labels, h.dim_s
        start = HybridState(np.tile(np.eye(d, dtype=complex) / (L * d), (L, 1, 1)))
        dt = 1.0
        cfg = evolve.IntegratorConfig(t_max=samples * dt, sample_dt=dt, convergence_tol=0.0)
        run = lambda: evolve.integrate(gen, start, cfg)
        n = L * d
        if exact:
            prop = propagator(gen._src, gen._tgt, gen._rate, n, gen._multiplier)
    else:
        fp = scenario["fokker_planck"]
        p = ContinuumParams(beta=scenario["beta"], omega_0=fp["omega_0"],
                            delta_omega=fp["delta_omega"], delta_e=fp["delta_e"],
                            delta_x=fp["delta_x"])
        x = np.linspace(-fp["x_max"], fp["x_max"], size)
        evo = FokkerPlanckEvolution(p, x, gamma=fp["gamma"], kappa_th=fp["kappa_th"],
                                    drift_scheme=fp["drift_scheme"])
        start = evo.polarized_fields()
        dt = scenario["integrator"]["sample_dt"]
        cfg = evolve.IntegratorConfig(t_max=samples * dt, sample_dt=dt, convergence_tol=0.0)
        run = lambda: evo.integrate(start, cfg)
        n = 2 * size
        if exact:
            src, tgt, rate = evo.population_edges()
            prop = propagator(src, tgt, rate, n, np.zeros(n))
    t0 = time.perf_counter()
    run()
    seconds = time.perf_counter() - t0
out = {"n": n, "per_sample_s": seconds / samples,
       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
if exact:
    steps, weights, _ = prop._plan(dt)
    out.update(lambda_dt=prop._lam * dt, substeps=steps, terms=steps * (len(weights) - 1))
print(json.dumps(out))
"""


def child_env(src: str) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = src
    return env


def run_child(src: str, kind: str, size: int, samples: int) -> dict:
    name = "lattice" if kind == "lattice" else "fokker_planck"
    out = subprocess.run(
        [sys.executable, "-c", CHILD, src, str(ROOT / "scenarios" / f"{name}.json"),
         kind, str(size), str(samples)],
        env=child_env(src), check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def quartiles(values) -> dict:
    q1, med, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": float(f"{med:.6g}"), "q1": float(f"{q1:.6g}"), "q3": float(f"{q3:.6g}")}


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles over processes of every timed figure; counts as is."""
    row = {"n": runs[0]["n"]}
    for key in ("per_sample_s", "peak_rss_mb"):
        row[key] = quartiles([run[key] for run in runs])
    for key in ("lambda_dt", "substeps", "terms"):
        if key in runs[0]:
            row[key] = runs[0][key]
    return row


def cli_evolve(src: str, scenario: str) -> float:
    checkout = Path(src).resolve().parent
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "hybridtherm.cli", "evolve", "--scenario",
             str(checkout / "scenarios" / f"{scenario}.json"), "--out", out],
            env=child_env(src), check=True, capture_output=True,
        )
        return time.perf_counter() - t0


def tier1(src: str) -> dict:
    checkout = Path(src).resolve().parent
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=checkout, env=child_env(str(checkout / "src")), capture_output=True, text=True,
    )
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    return {"wall_s": round(time.perf_counter() - t0, 2), "summary": summary}


def perfbench_summary(directory: Path, labels: list[str]) -> dict:
    """Per workload and metric: each side's median and quartiles, and the
    pairs the first label won (lower is better for every metric)."""
    raw: dict = {}
    for path in sorted(directory.glob("*.json")):
        match = re.fullmatch(r"(\w+)-(\w+)-(\d+)\.json", path.name)
        if not match or match.group(2) not in labels or not path.read_text().strip():
            continue
        workload, label, pair = match.group(1), match.group(2), int(match.group(3))
        raw.setdefault(workload, {}).setdefault(label, {})[pair] = json.loads(path.read_text())
    table = {}
    first, second = labels
    for workload, sides in sorted(raw.items()):
        pairs = sorted(set(sides.get(first, {})) & set(sides.get(second, {})))
        row = {"pairs": len(pairs)}
        for label in labels:
            runs = [sides[label][p] for p in pairs]
            row[label] = {"failed": sum(r["failed"] for r in runs),
                          "attempted": sum(r["attempted"] for r in runs),
                          "all_correct": all(r["correct"] for r in runs)}
            for metric in ("setup_s", "run_s", "peak_rss_mb"):
                row[label][metric] = quartiles([r["metrics"][metric]["value"] for r in runs])
        for metric in ("setup_s", "run_s", "peak_rss_mb"):
            a = [sides[first][p]["metrics"][metric]["value"] for p in pairs]
            b = [sides[second][p]["metrics"][metric]["value"] for p in pairs]
            row[f"{metric}_{first}_wins"] = sum(x < y for x, y in zip(a, b))
        table[workload] = row
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True,
                        help="label=path to a src directory")
    parser.add_argument("--half-widths", default="18,70,150,500,1000")
    parser.add_argument("--points", default="151,301,601,1201")
    parser.add_argument("--samples", type=int, default=3, help="intervals per process")
    parser.add_argument("--pairs", type=int, default=3, help="fresh processes per checkout")
    parser.add_argument("--cli-repeats", type=int, default=0)
    parser.add_argument("--tier1", action="store_true")
    parser.add_argument("--perfbench-dir", help="directory of saved perfbench runs")
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    checkouts = dict(item.split("=", 1) for item in args.src)
    sizes = [("lattice", int(h)) for h in args.half_widths.split(",") if h]
    sizes += [("fp", int(p)) for p in args.points.split(",") if p]

    def alternating(pair):
        return list(checkouts.items())[:: 1 if pair % 2 == 0 else -1]

    runs: dict = {label: {} for label in checkouts}
    for pair in range(args.pairs):
        for label, src in alternating(pair):
            for kind, size in sizes:
                key = f"{kind}_{size}"
                runs[label].setdefault(key, []).append(run_child(src, kind, size, args.samples))
    report = {
        "method": (
            f"{args.pairs} alternating fresh processes per checkout and size, each "
            f"timing one integrate call over {args.samples} sample intervals with the "
            "checkout's default method; figures are the median and quartiles over "
            "processes"
        ),
        "machine": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {var: "1" for var in THREAD_VARS},
        },
        "per_sample": {
            label: {key: summarize(r) for key, r in table.items()}
            for label, table in runs.items()
        },
    }
    if args.cli_repeats:
        walls: dict = {label: {s: [] for s in SCENARIOS} for label in checkouts}
        for pair in range(args.cli_repeats):
            for label, src in alternating(pair):
                for scenario in SCENARIOS:
                    walls[label][scenario].append(cli_evolve(src, scenario))
        report["cli_evolve_wall_s"] = {
            label: {s: quartiles(v) for s, v in table.items()} for label, table in walls.items()
        }
    if args.tier1:
        report["tier1"] = {label: tier1(src) for label, src in checkouts.items()}
    if args.perfbench_dir:
        report["perfbench"] = perfbench_summary(Path(args.perfbench_dir), list(checkouts))
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
