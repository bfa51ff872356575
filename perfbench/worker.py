"""Run one benchmark workload in this process and print its raw figures.

run.py starts this module as ``python3 -m perfbench.worker`` from the root
of the checkout, with BLAS threads fixed at one and ``src`` on the path.
The workload's set-up runs once; then whole rounds of the same operations
repeat until the requested seconds have passed.  Only calls into
hybridtherm are timed; every output is checked after its call, outside the
timed span.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from hybridtherm import cli, continuum, evolve, generator, linalg, models, state, thermal, verify

from . import checks
from .spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
WORK = ROOT / "perfbench" / ".work"
TRACES = ROOT / "perfbench" / "traces"

TLS_STARTS = 20
# Lattice sizes solved by lattice_stationary: L = 37 ... 301.  From
# half_width 70 on, stationary_state returns NaN (see README).
HALF_WIDTHS = (18, 34, 50, 68, 70, 100, 150)


def random_starts(rng: np.random.Generator, count: int, labels: int, dim: int):
    """Seeded initial states: full-rank mixtures, every fourth a pure state on one label."""
    starts = []
    for k in range(count):
        blocks = np.zeros((labels, dim, dim), dtype=complex)
        if k % 4 == 3:
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            blocks[k % labels] = np.outer(psi, psi.conj())
        else:
            weights = rng.random(labels) + 0.1
            weights /= weights.sum()
            for c in range(labels):
                g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                rho = g @ g.conj().T
                blocks[c] = weights[c] * rho / np.trace(rho).real
        starts.append(state.HybridState(blocks))
    return starts


class TlsRelax:
    """Canonical two-level system relaxed from seeded random starts."""

    def __init__(self, seed: int, tracer: Tracer, workdir: Path):
        scenario = cli.load_scenario(str(SCENARIOS / "tls.json"))
        h, self.gen = cli.build_discrete(scenario)
        self.cfg = evolve.IntegratorConfig(**scenario["integrator"])
        self.target = thermal.hybrid_thermal(h, scenario["beta"])
        self.reference = checks.tls_thermal_blocks(scenario["tls"], scenario["beta"])
        rng = np.random.default_rng(seed)
        self.starts = random_starts(rng, TLS_STARTS, h.num_labels, h.dim_s)

    def run_round(self):
        outcomes = []
        for start in self.starts:
            t0 = time.perf_counter()
            traj = evolve.integrate(self.gen, start, self.cfg, target=self.target)
            seconds = time.perf_counter() - t0
            problems = checks.check_relaxation(
                traj.converged,
                traj.total_trace,
                traj.min_eigenvalue,
                traj.final_state.blocks,
                self.reference,
            )
            outcomes.append((seconds, False, problems))
        return outcomes


class LatticeCli:
    """thermal, verify --seed and evolve on the bundled lattice, in-process."""

    def __init__(self, seed: int, tracer: Tracer, workdir: Path):
        self.tracer = tracer
        self.seed = seed
        self.scenario = str(SCENARIOS / "lattice.json")
        with open(self.scenario, encoding="utf-8") as fh:
            raw = json.load(fh)
        lattice = raw["lattice"]
        self.weights = checks.lattice_site_weights(lattice, raw["beta"], lattice["half_width"])
        self.out = workdir

    def _read(self, name: str) -> str:
        return (self.out / name).read_text(encoding="utf-8")

    def _check(self, command: str) -> list[str]:
        if command == "thermal":
            return checks.check_thermal_json(json.loads(self._read("thermal.json")), self.weights)
        if command == "verify":
            return checks.check_verify_json(json.loads(self._read("verify.json")))
        return checks.check_final_state_json(
            json.loads(self._read("final_state.json")), self.weights
        ) + checks.check_trajectory_csv(self._read("trajectory.csv"))

    def run_round(self):
        outcomes = []
        for command in ("thermal", "verify", "evolve"):
            argv = [command, "--scenario", self.scenario, "--out", str(self.out),
                    "--seed", str(self.seed)]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                code = cli.main(argv)
                seconds = time.perf_counter() - t0
            if code == 0:
                problems = self._check(command)
            else:
                problems = [f"{command} exited {code}: {sink.getvalue()!r}"]
            outcomes.append((seconds, False, problems))
        self.tracer.counters["cli.output.bytes"] += sum(
            p.stat().st_size for p in self.out.iterdir()
        )
        return outcomes


class LatticeStationary:
    """build_lattice and stationary_state on the bundled parameters against L."""

    def __init__(self, seed: int, tracer: Tracer, workdir: Path):
        scenario = cli.load_scenario(str(SCENARIOS / "lattice.json"))
        self.beta = scenario["beta"]
        self.lattice = scenario["lattice"]

    def run_round(self):
        outcomes = []
        for half_width in HALF_WIDTHS:
            s = models.LatticeScenario(
                beta=self.beta, **{**self.lattice, "half_width": half_width}
            )
            t0 = time.perf_counter()
            try:
                _, gen = models.build_lattice(s)
                blocks = generator.stationary_state(gen).blocks
            except RuntimeError:
                blocks = None
            seconds = time.perf_counter() - t0
            if blocks is None or not np.all(np.isfinite(blocks)):
                # the fault of README's "Failed operations": NaN or a raised guard
                outcomes.append((seconds, True, []))
                continue
            half = (blocks.shape[0] - 1) // 2
            problems = checks.check_lattice_stationary(blocks, self.lattice, self.beta, half)
            outcomes.append((seconds, False, problems))
        return outcomes


class FpRelax:
    """Fokker-Planck fields of the bundled scenario from the polarized start to t_max."""

    def __init__(self, seed: int, tracer: Tracer, workdir: Path):
        scenario = cli.load_scenario(str(SCENARIOS / "fokker_planck.json"))
        _, self.evo = cli.build_continuum(scenario)
        self.cfg = evolve.IntegratorConfig(**scenario["integrator"])
        self.start = self.evo.polarized_fields()
        self.reference = checks.fp_reference_density(
            scenario["fokker_planck"], scenario["beta"], self.evo.x
        )
        self.matrix = None

    def run_round(self):
        t0 = time.perf_counter()
        traj = self.evo.integrate(self.start, self.cfg)
        seconds = time.perf_counter() - t0
        if self.matrix is None:
            self.matrix = self.evo.population_matrix()
        f = traj.final
        problems = [] if traj.converged else ["not converged by t_max"]
        problems += checks.check_fp_relaxation(
            traj.total_mass, f.p_plus, f.p_minus, f.c_plus, f.c_minus,
            self.reference, self.matrix,
        )
        return [(seconds, False, problems)]


WORKLOADS = {
    "tls_relax": TlsRelax,
    "lattice_cli": LatticeCli,
    "lattice_stationary": LatticeStationary,
    "fp_relax": FpRelax,
}


def install_tracing(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are read from."""

    def samples(key):
        def count(tr, traj, seconds):
            tr.counters[key] += traj.times.shape[0]
            tr.counters[key + ".intervals"] += traj.times.shape[0] - 1
        return count

    def per_size(tr, result, seconds):
        tr.counters[f"generator.stationary_state.L{result.num_labels}.s"] += seconds

    def gain_bytes(tr, gen, seconds):
        n = gen.num_labels * gen.dim_s
        key = "generator.gain_matrix.bytes"
        tr.counters[key] = max(tr.counters[key], 8.0 * n * n)

    fp = continuum.FokkerPlanckEvolution
    tracer.patch_function(generator, "apply", "generator.apply")
    tracer.patch_function(evolve, "integrate", "evolve.integrate", samples("evolve.samples"))
    tracer.patch_function(state, "hybrid_trace_distance", "state.hybrid_trace_distance")
    tracer.patch_function(linalg, "trace_distance", "linalg.trace_distance")
    tracer.patch_function(generator, "stationary_state", "generator.stationary_state", per_size)
    tracer.patch_function(generator, "build_generator", "generator.build_generator", gain_bytes)
    tracer.patch_function(models, "build_lattice", "models.build_lattice")
    tracer.patch_function(generator, "collisional_apply", "generator.collisional_apply")
    tracer.patch_function(verify, "verification_report", "verify.verification_report")
    tracer.patch_function(thermal, "thermal_decomposition", "thermal.thermal_decomposition")
    tracer.patch_method(fp, "rhs", "continuum.rhs")
    tracer.patch_method(fp, "integrate", "continuum.integrate", samples("continuum.samples"))
    tracer.patch_function(cli, "load_scenario", "cli.load_scenario")
    tracer.patch_function(cli, "cmd_thermal", "cli.thermal")
    tracer.patch_function(cli, "cmd_verify", "cli.verify")
    tracer.patch_function(cli, "cmd_evolve", "cli.evolve")
    tracer.patch_function(evolve, "trajectory_csv", "evolve.trajectory_csv")


def layer_metrics(tracer: Tracer, rounds: int, round_s: float) -> dict:
    """Per-round layer figures; a layer the workload never enters reads 0."""
    calls, total, own, counters = tracer.calls, tracer.total, tracer.self_time, tracer.counters
    out = {"trace.round_s": round_s}
    for span in (
        "generator.apply", "state.hybrid_trace_distance", "linalg.trace_distance",
        "continuum.rhs",
    ):
        out[span + ".calls"] = calls[span] / rounds
    for span in (
        "generator.apply", "evolve.integrate", "state.hybrid_trace_distance",
        "generator.stationary_state", "generator.build_generator", "models.build_lattice",
        "generator.collisional_apply", "verify.verification_report",
        "thermal.thermal_decomposition", "continuum.rhs", "continuum.integrate",
        "cli.load_scenario", "cli.thermal", "cli.verify", "cli.evolve",
        "evolve.trajectory_csv",
    ):
        out[span + ".s"] = total[span] / rounds
    for span in ("evolve.integrate", "verify.verification_report", "continuum.integrate"):
        out[span + ".self_s"] = own[span] / rounds
    for half_width in HALF_WIDTHS:
        key = f"generator.stationary_state.L{2 * half_width + 1}.s"
        out[key] = counters[key] / rounds
    out["generator.apply.us_per_call"] = (
        1e6 * total["generator.apply"] / calls["generator.apply"]
        if calls["generator.apply"] else 0.0
    )
    out["evolve.samples"] = counters["evolve.samples"] / rounds
    intervals = counters["evolve.samples.intervals"]
    inner = tracer.child_calls[("evolve.integrate", "generator.apply")]
    out["evolve.rhs_per_sample"] = inner / intervals if intervals else 0.0
    out["continuum.samples"] = counters["continuum.samples"] / rounds
    out["generator.gain_matrix.bytes"] = counters["generator.gain_matrix.bytes"]
    out["cli.output.bytes"] = counters["cli.output.bytes"] / rounds
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    tracer = Tracer()
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        workload = WORKLOADS[args.workload](args.seed, tracer, Path(workdir))
        if args.trace:
            install_tracing(tracer)
        first_op = time.monotonic()
        start = time.perf_counter()
        op_times = []
        attempted = failed = 0
        problems = []
        while True:
            outcomes = workload.run_round()
            tracer.keep_records = False
            op_times.append([seconds for seconds, _, _ in outcomes])
            for _, op_failed, op_problems in outcomes:
                attempted += 1
                failed += op_failed
                problems += op_problems
            if time.perf_counter() - start >= args.seconds:
                break

    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    # a round's time from each operation's median over the rounds, so a
    # stall that hits one call in one round does not move the figure
    run_s = float(np.sum(np.median(np.array(op_times), axis=0)))
    result = {
        "first_op_monotonic": first_op,
        "rounds": len(op_times),
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, len(op_times), run_s)
        TRACES.mkdir(parents=True, exist_ok=True)
        tracer.write(TRACES / f"{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
