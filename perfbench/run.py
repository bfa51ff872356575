"""Benchmark of hybridtherm: time to a thermal state of stated accuracy.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tls_relax --seed 1 --seconds 15 --trace 0

The workload runs in one child Python process (perfbench/worker.py) with
BLAS threads fixed at one.  This process starts it, so setup_s covers the
child's interpreter start, imports, scenario loading and model build up to
its first timed operation.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics named in BENCHMARK.json,
the end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hybridtherm" / "__init__.py").is_file():
        print(f"error: no hybridtherm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = dict(os.environ, **{name: "1" for name in SINGLE_THREAD})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    # CLOCK_MONOTONIC is system-wide on Linux: the child's reading compares to this one
    started = time.monotonic()
    child = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if child.returncode != 0:
        print(f"error: worker exited with {child.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(child.stdout.strip().splitlines()[-1])

    if args.trace:
        values, section = raw["layers"], spec["per_layer"]
    else:
        values = {
            "setup_s": raw["first_op_monotonic"] - started,
            "run_s": raw["run_s"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        section = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    print(
        json.dumps(
            {
                "correct": raw["correct"],
                "attempted": raw["attempted"],
                "failed": raw["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
