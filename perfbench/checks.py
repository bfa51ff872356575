"""Reference values and output checks for the benchmark workloads.

Every reference here is computed from the scenario parameters with plain
numpy, never with hybridtherm, so a fault in the package cannot hide in its
own reference.  Each check returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import csv
import io

import numpy as np

# positivity band the package clips block eigenvalues to (state.EIG_CLIP)
EIG_CLIP = 1e-10
TRACE_TOL = 1e-10
TLS_FINAL_DISTANCE_TOL = 1e-8
THERMAL_WEIGHT_RTOL = 1e-12
EVOLVED_MARGINAL_RTOL = 1e-8
STATIONARY_MARGINAL_RTOL = 1e-8
STATIONARY_CONDITIONAL_TOL = 1e-9
FP_MASS_TOL = 1e-9
FP_COHERENCE_TOL = 1e-10
# The upwind scheme on the bundled 151-point grid lands 6.3e-3 of the peak
# away from the continuum density and the central scheme 6.4e-5; a
# consistent scheme on this grid stays inside one percent of the peak.
FP_DENSITY_TOL = 1e-2
FP_STATIONARY_TOL = 1e-8

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
TINY = np.finfo(float).tiny


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference of two Hermitian matrices."""
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def gibbs(h: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta h) for a Hermitian matrix, unnormalized."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-beta * w)) @ v.conj().T


def tls_thermal_blocks(tls: dict, beta: float) -> np.ndarray:
    """Canonical thermal state of the two-level scenario.

    Label a carries (omega_a / 2) sigma_z, label b (omega_b / 2) sigma_x; the
    state is exp(-beta (E_c I + H_c)) normalized over both labels.
    """
    h = [
        tls["energy_a"] * np.eye(2) + 0.5 * tls["omega_a"] * SIGMA_Z,
        tls["energy_b"] * np.eye(2) + 0.5 * tls["omega_b"] * SIGMA_X,
    ]
    blocks = np.stack([gibbs(hc, beta) for hc in h])
    return blocks / np.einsum("cii->", blocks).real


def lattice_site_weights(lattice: dict, beta: float, half_width: int) -> np.ndarray:
    """exp(-beta (E_0 + delta_e n^2)) cosh(beta omega_n / 2), normalized."""
    n = np.arange(-half_width, half_width + 1, dtype=float)
    omega = lattice["omega_0"] + lattice["delta_omega"] * np.abs(n)
    x = np.abs(0.5 * beta * omega)
    # log(2 cosh x); the constant log 2 drops out in the normalization
    log_cosh = x + np.log1p(np.exp(-2.0 * x))
    log_w = -beta * (lattice.get("energy_0", 0.0) + lattice["delta_e"] * n**2) + log_cosh
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def lattice_local_gibbs(lattice: dict, beta: float, half_width: int) -> np.ndarray:
    """Normalized Gibbs state of (omega_n / 2) sigma_z on every site."""
    n = np.arange(-half_width, half_width + 1, dtype=float)
    omega = lattice["omega_0"] + lattice["delta_omega"] * np.abs(n)
    up = 1.0 / (1.0 + np.exp(beta * omega))
    out = np.zeros((n.size, 2, 2), dtype=complex)
    out[:, 0, 0] = up
    out[:, 1, 1] = 1.0 - up
    return out


def fp_reference_density(fp: dict, beta: float, x: np.ndarray) -> np.ndarray:
    """Continuum density Gaussian(x) * cosh(beta omega(x) / 2) on the grid."""
    dx = fp["delta_x"]
    omega = fp["omega_0"] + fp["delta_omega"] * np.abs(x) / dx
    w = np.exp(-beta * fp["delta_e"] * x**2 / dx**2) * np.cosh(0.5 * beta * omega)
    return w / (w.sum() * (x[1] - x[0]))


def _relative_miss(values: np.ndarray, reference: np.ndarray) -> float:
    """Largest relative error; entries below the normal range count absolutely."""
    return float(np.max(np.abs(values - reference) / np.maximum(reference, TINY)))


def check_relaxation(
    converged: bool,
    total_trace: np.ndarray,
    min_eigenvalue: np.ndarray,
    final_blocks: np.ndarray,
    reference: np.ndarray,
) -> list[str]:
    """A relaxed trajectory: converged, trace kept, positive, at the target."""
    problems = []
    if not converged:
        problems.append("did not converge")
    drift = float(np.max(np.abs(np.asarray(total_trace) - 1.0)))
    if not drift <= TRACE_TOL:
        problems.append(f"total trace drifts by {drift:.3e} > {TRACE_TOL:.0e}")
    low = float(np.min(min_eigenvalue))
    if not low >= -EIG_CLIP:
        problems.append(f"block eigenvalue {low:.3e} below -{EIG_CLIP:.0e}")
    dist = sum(trace_distance(a, b) for a, b in zip(final_blocks, reference))
    if not dist <= TLS_FINAL_DISTANCE_TOL:
        problems.append(
            f"final trace distance to the thermal state {dist:.3e} "
            f"> {TLS_FINAL_DISTANCE_TOL:.0e}"
        )
    return problems


def check_thermal_json(data: dict, weights: np.ndarray) -> list[str]:
    """thermal.json weights against the closed-form site weights."""
    got = np.asarray(data["weights"], dtype=float)
    if got.shape != weights.shape:
        return [f"thermal.json has {got.size} weights, expected {weights.size}"]
    miss = _relative_miss(got, weights)
    if not miss <= THERMAL_WEIGHT_RTOL:
        return [f"thermal weights miss by {miss:.3e} relative > {THERMAL_WEIGHT_RTOL:.0e}"]
    return []


def blocks_from_json(data: dict) -> np.ndarray:
    """Blocks of a state written with the row-major [re, im] encoding."""
    arr = np.asarray(data["conditionals"], dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def check_final_state_json(data: dict, weights: np.ndarray) -> list[str]:
    """final_state.json: converged, classical marginal at the closed form."""
    problems = [] if data.get("converged") is True else ["final_state.json not converged"]
    blocks = blocks_from_json(data)
    marginal = np.einsum("cii->c", blocks).real
    if marginal.shape != weights.shape:
        return problems + [f"final state has {marginal.size} labels, expected {weights.size}"]
    miss = _relative_miss(marginal, weights)
    if not miss <= EVOLVED_MARGINAL_RTOL:
        problems.append(
            f"evolved marginal misses by {miss:.3e} relative > {EVOLVED_MARGINAL_RTOL:.0e}"
        )
    return problems


def check_trajectory_csv(text: str) -> list[str]:
    """trajectory.csv: total trace and block positivity at every sample."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return ["trajectory.csv has no samples"]
    trace = np.array([float(r["total_trace"]) for r in rows])
    low = np.array([float(r["min_eig"]) for r in rows])
    problems = []
    drift = float(np.max(np.abs(trace - 1.0)))
    if not drift <= TRACE_TOL:
        problems.append(f"trajectory trace drifts by {drift:.3e} > {TRACE_TOL:.0e}")
    if not float(np.min(low)) >= -EIG_CLIP:
        problems.append(f"trajectory block eigenvalue {np.min(low):.3e} below -{EIG_CLIP:.0e}")
    return problems


def check_verify_json(data: dict) -> list[str]:
    """verify.json: every invariant passed with a finite residual."""
    problems = [] if data.get("all_passed") is True else ["verify.json reports a failed invariant"]
    for check in data.get("checks", []):
        if check["skipped"]:
            continue
        if not (check["passed"] and np.isfinite(check["residual"])):
            problems.append(f"invariant {check['name']} residual {check['residual']}")
    return problems


def check_lattice_stationary(
    blocks: np.ndarray, lattice: dict, beta: float, half_width: int
) -> list[str]:
    """Stationary lattice state: closed-form marginal and local Gibbs blocks.

    Sites whose closed-form weight underflows the normal double range have
    no meaningful conditional state; their marginal is still compared.
    """
    weights = lattice_site_weights(lattice, beta, half_width)
    if blocks.shape != (weights.size, 2, 2):
        return [f"stationary state has shape {blocks.shape}, expected ({weights.size}, 2, 2)"]
    marginal = np.einsum("cii->c", blocks).real
    problems = []
    miss = _relative_miss(marginal, weights)
    if not miss <= STATIONARY_MARGINAL_RTOL:
        problems.append(
            f"stationary marginal misses by {miss:.3e} relative > {STATIONARY_MARGINAL_RTOL:.0e}"
        )
    local = lattice_local_gibbs(lattice, beta, half_width)
    worst = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        for c in np.flatnonzero(weights >= TINY):
            worst = max(worst, trace_distance(blocks[c] / marginal[c], local[c]))
    if not worst <= STATIONARY_CONDITIONAL_TOL:
        problems.append(
            f"conditional block misses its local Gibbs state by {worst:.3e} "
            f"> {STATIONARY_CONDITIONAL_TOL:.0e}"
        )
    return problems


def check_fp_relaxation(
    total_mass: np.ndarray,
    p_plus: np.ndarray,
    p_minus: np.ndarray,
    c_plus: np.ndarray,
    c_minus: np.ndarray,
    reference: np.ndarray,
    population_matrix: np.ndarray,
) -> list[str]:
    """Relaxed Fokker-Planck fields: mass kept, coherences gone, stationary."""
    problems = []
    drift = float(np.max(np.abs(np.asarray(total_mass) - 1.0)))
    if not drift <= FP_MASS_TOL:
        problems.append(f"mass drifts by {drift:.3e} > {FP_MASS_TOL:.0e}")
    coh = float(max(np.max(np.abs(c_plus)), np.max(np.abs(c_minus))))
    if not coh <= FP_COHERENCE_TOL:
        problems.append(f"coherence fields at {coh:.3e} > {FP_COHERENCE_TOL:.0e}")
    gap = float(np.max(np.abs(p_plus + p_minus - reference)) / np.max(reference))
    if not gap <= FP_DENSITY_TOL:
        problems.append(
            f"density misses the continuum form by {gap:.3e} of the peak > {FP_DENSITY_TOL:.0e}"
        )
    resid = float(np.max(np.abs(population_matrix @ np.concatenate([p_plus, p_minus]))))
    if not resid <= FP_STATIONARY_TOL:
        problems.append(
            f"population operator leaves {resid:.3e} > {FP_STATIONARY_TOL:.0e} on the final fields"
        )
    return problems
