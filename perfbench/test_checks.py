"""Each benchmark check passes on a real output and fails on a corrupted one."""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from hybridtherm import IntegratorConfig, cli, integrate, stationary_state
from hybridtherm.models import LatticeScenario, build_lattice

from perfbench import checks
from perfbench.spans import Tracer
from perfbench.worker import random_starts

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def _load(name: str) -> dict:
    return json.loads((SCENARIOS / name).read_text(encoding="utf-8"))


def _flags(problems: list[str], word: str) -> bool:
    """The corruption was caught by the check whose message holds word."""
    return any(word in p for p in problems)


# ---------------------------------------------------------------------------
# tls_relax

@pytest.fixture(scope="module")
def tls_run():
    scenario = cli.load_scenario(str(SCENARIOS / "tls.json"))
    h, gen = cli.build_discrete(scenario)
    start = random_starts(np.random.default_rng(5), 1, h.num_labels, h.dim_s)[0]
    traj = integrate(gen, start, IntegratorConfig(**scenario["integrator"]))
    reference = checks.tls_thermal_blocks(scenario["tls"], scenario["beta"])
    return traj, reference


def _relaxation(traj, reference, **override):
    fields = dict(
        converged=traj.converged,
        total_trace=traj.total_trace.copy(),
        min_eigenvalue=traj.min_eigenvalue.copy(),
        final_blocks=traj.final_state.blocks.copy(),
        reference=reference,
    )
    fields.update(override)
    return checks.check_relaxation(**fields)


def test_relaxation_passes_on_program_output(tls_run):
    assert _relaxation(*tls_run) == []


def test_relaxation_fails_on_corruption(tls_run):
    traj, reference = tls_run
    nan_blocks = traj.final_state.blocks.copy()
    nan_blocks[1] = np.nan
    shifted = traj.final_state.blocks.copy()
    shifted[0, 0, 0] += 1e-7
    shifted[0, 1, 1] -= 1e-7
    drift = traj.total_trace * (1.0 + 1e-9 * np.arange(traj.total_trace.size))
    negative = traj.min_eigenvalue.copy()
    negative[3] = -1e-6
    assert _flags(_relaxation(traj, reference, final_blocks=nan_blocks), "final trace distance")
    assert _flags(_relaxation(traj, reference, final_blocks=shifted), "final trace distance")
    assert _flags(_relaxation(traj, reference, total_trace=drift), "total trace drifts")
    assert _flags(_relaxation(traj, reference, min_eigenvalue=negative), "eigenvalue")
    assert _flags(_relaxation(traj, reference, converged=False), "converge")


# ---------------------------------------------------------------------------
# lattice_cli

@pytest.fixture(scope="module")
def lattice_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("lattice_cli")
    scenario = str(SCENARIOS / "lattice.json")
    for command in ("thermal", "verify", "evolve"):
        with redirect_stdout(io.StringIO()):
            code = cli.main([command, "--scenario", scenario, "--out", str(out), "--seed", "3"])
        assert code == 0
    raw = _load("lattice.json")
    lattice = raw["lattice"]
    weights = checks.lattice_site_weights(lattice, raw["beta"], lattice["half_width"])
    return out, weights


def test_thermal_json_check(lattice_outputs):
    out, weights = lattice_outputs
    data = json.loads((out / "thermal.json").read_text())
    assert checks.check_thermal_json(data, weights) == []
    data["weights"][5] *= 1.0 + 1e-6
    assert _flags(checks.check_thermal_json(data, weights), "thermal weights miss")


def test_final_state_json_check(lattice_outputs):
    out, weights = lattice_outputs
    data = json.loads((out / "final_state.json").read_text())
    assert checks.check_final_state_json(data, weights) == []
    off = json.loads(json.dumps(data))
    off["conditionals"][18][0][0][0] *= 1.0 + 1e-6
    assert _flags(checks.check_final_state_json(off, weights), "evolved marginal")
    nan_block = json.loads(json.dumps(data))
    nan_block["conditionals"][3][1][1][0] = float("nan")
    assert _flags(checks.check_final_state_json(nan_block, weights), "evolved marginal")
    data["converged"] = False
    assert _flags(checks.check_final_state_json(data, weights), "not converged")


def test_trajectory_csv_check(lattice_outputs):
    out, _ = lattice_outputs
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert checks.check_trajectory_csv("\n".join(lines) + "\n") == []
    col = lines[0].split(",").index("total_trace")
    drifting = [lines[0]]
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        cells[col] = repr(float(cells[col]) + 1e-11 * k)
        drifting.append(",".join(cells))
    assert _flags(checks.check_trajectory_csv("\n".join(drifting) + "\n"), "trace drifts")


def test_verify_json_check(lattice_outputs):
    out, _ = lattice_outputs
    text = (out / "verify.json").read_text()
    assert checks.check_verify_json(json.loads(text)) == []
    data = json.loads(text)
    data["checks"][-1]["residual"] = float("nan")
    assert _flags(checks.check_verify_json(data), data["checks"][-1]["name"])
    data = json.loads(text)
    data["all_passed"] = False
    assert _flags(checks.check_verify_json(data), "failed invariant")


# ---------------------------------------------------------------------------
# lattice_stationary

@pytest.fixture(scope="module")
def lattice_stationary():
    raw = _load("lattice.json")
    lattice = raw["lattice"]
    _, gen = build_lattice(LatticeScenario(beta=raw["beta"], **lattice))
    return stationary_state(gen).blocks, lattice, raw["beta"], lattice["half_width"]


def test_lattice_stationary_check(lattice_stationary):
    blocks, lattice, beta, half_width = lattice_stationary
    assert checks.check_lattice_stationary(blocks, lattice, beta, half_width) == []
    nan = blocks.copy()
    nan[half_width] = np.nan
    assert _flags(checks.check_lattice_stationary(nan, lattice, beta, half_width), "marginal")
    heavy = blocks.copy()
    heavy[2] *= 1.0 + 1e-6
    assert _flags(checks.check_lattice_stationary(heavy, lattice, beta, half_width), "marginal")
    tilted = blocks.copy()
    tilted[half_width, 0, 0] += 1e-8
    tilted[half_width, 1, 1] -= 1e-8
    problems = checks.check_lattice_stationary(tilted, lattice, beta, half_width)
    assert _flags(problems, "local Gibbs") and not _flags(problems, "marginal")


# ---------------------------------------------------------------------------
# fp_relax

@pytest.fixture(scope="module")
def fp_stationary():
    scenario = cli.load_scenario(str(SCENARIOS / "fokker_planck.json"))
    _, evo = cli.build_continuum(scenario)
    p_plus, p_minus = evo.stationary_populations()
    reference = checks.fp_reference_density(scenario["fokker_planck"], scenario["beta"], evo.x)
    zero = np.zeros_like(evo.x, dtype=complex)
    fields = dict(
        total_mass=np.ones(50),
        p_plus=p_plus,
        p_minus=p_minus,
        c_plus=zero,
        c_minus=zero,
        reference=reference,
        population_matrix=evo.population_matrix(),
    )
    return fields, evo.x


def test_fp_check(fp_stationary):
    fields, x = fp_stationary
    assert checks.check_fp_relaxation(**fields) == []
    mass = fields["total_mass"].copy()
    mass[-1] += 1e-6
    assert _flags(checks.check_fp_relaxation(**{**fields, "total_mass": mass}), "mass drifts")
    bump = fields["p_plus"].copy()
    bump[40] += 1e-6
    problems = checks.check_fp_relaxation(**{**fields, "p_plus": bump})
    assert _flags(problems, "population operator") and not _flags(problems, "continuum form")
    coherent = fields["c_plus"] + 1e-6
    assert _flags(checks.check_fp_relaxation(**{**fields, "c_plus": coherent}), "coherence")
    gaussian = np.exp(-0.01 * x**2)
    gaussian /= gaussian.sum() * (x[1] - x[0])
    problems = checks.check_fp_relaxation(
        **{**fields, "p_plus": gaussian, "p_minus": np.zeros_like(gaussian)}
    )
    assert _flags(problems, "continuum form")


# ---------------------------------------------------------------------------
# the harness itself

def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert tracer.calls["inner"] == 3
    assert tracer.child_calls[("outer", "inner")] == 3
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.total["outer"] - tracer.total["inner"], abs=1e-12
    )
    assert [r[1] for r in tracer.records] == [-1, 0, 0, 0]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "traces"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tls_relax", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
