"""Invariant suite run by the command line and by the fault-injection tests.

Each check returns its measured residual next to the tolerance it was held
to, so a report stays useful when something fails.
"""

from __future__ import annotations

import math

import numpy as np

from .generator import (
    DegenerateStationaryError,
    HybridGenerator,
    apply,
    bipartite_superoperator,
    classical_offdiagonal_norm,
    collisional_apply,
    embed_state,
    stationary_state,
    superoperator_apply,
)
from .linalg import block_norms
from .state import HybridState, hybrid_trace_distance
from .thermal import hybrid_thermal

BIPARTITE_CHECK_CAP = 24


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return random_hermitian_blocks(rng, 1, dim).blocks[0]


def random_hybrid_state(
    rng: np.random.Generator, num_labels: int, dim_s: int
) -> HybridState:
    """Random valid hybrid state with full-rank blocks."""
    weights = rng.random(num_labels) + 0.1
    weights /= weights.sum()
    # one draw per stack, in the order of a block-by-block draw (real part first)
    z = rng.normal(size=(num_labels, 2, dim_s, dim_s))
    g = z[:, 0] + 1j * z[:, 1]
    rho = g @ g.conj().transpose(0, 2, 1) + 1e-6 * np.eye(dim_s)
    traces = np.trace(rho, axis1=1, axis2=2).real
    return HybridState(weights[:, None, None] * rho / traces[:, None, None])


def random_hermitian_blocks(
    rng: np.random.Generator, num_labels: int, dim_s: int
) -> HybridState:
    """Hermitian but not necessarily positive block array."""
    z = rng.normal(size=(num_labels, 2, dim_s, dim_s))
    g = z[:, 0] + 1j * z[:, 1]
    return HybridState(0.5 * (g + g.conj().transpose(0, 2, 1)))


def _check(name, residual, tolerance, detail=""):
    """One check; a non-finite residual fails and is written as null."""
    finite = math.isfinite(residual)
    return {
        "name": name,
        "passed": finite and bool(residual <= tolerance),
        "skipped": False,
        "residual": float(residual) if finite else None,
        "tolerance": float(tolerance),
        "detail": detail,
    }


def _worst(values) -> float:
    """Largest of non-negative residuals; NaN if any is NaN (max() can drop it)."""
    return float(np.max(values, initial=0.0))


def _skip(name, detail):
    return {
        "name": name,
        "passed": True,
        "skipped": True,
        "residual": None,
        "tolerance": None,
        "detail": detail,
    }


def verification_report(
    gen: HybridGenerator,
    rng: np.random.Generator,
    num_states: int = 20,
) -> dict:
    """Run every generator invariant and collect a machine-readable report."""
    h = gen.hamiltonian
    checks = []
    rate_scale = max(1.0, gen.max_rate())

    checks.append(
        _check(
            "detailed_balance",
            gen.detailed_balance_residual(),
            1e-15,
            "uphill rates against the balance formula, relative",
        )
    )

    thermal = hybrid_thermal(h, gen.beta)
    resid = _worst(block_norms(apply(gen, thermal).blocks))
    checks.append(
        _check(
            "thermal_stationarity",
            resid,
            1e-12 * rate_scale,
            "largest block Frobenius norm of the thermal derivative",
        )
    )

    pair_gaps, traces, herm_gaps = [], [], []
    for _ in range(num_states):
        state = random_hybrid_state(rng, gen.num_labels, gen.dim_s)
        fast = apply(gen, state)
        slow = collisional_apply(gen, state)
        pair_gaps.append(np.max(block_norms(fast.blocks - slow.blocks)))
        traces.append(abs(fast.total_trace()))
        herm = random_hermitian_blocks(rng, gen.num_labels, gen.dim_s)
        out = apply(gen, herm).blocks
        herm_gaps.append(np.max(np.abs(out - out.conj().transpose(0, 2, 1))))
    checks.append(
        _check(
            "collisional_equivalence",
            _worst(pair_gaps),
            1e-12 * rate_scale,
            f"block routes compared on {num_states} random states",
        )
    )
    checks.append(
        _check(
            "trace_preservation",
            _worst(traces),
            1e-12 * rate_scale,
            "total trace of the derivative",
        )
    )
    checks.append(
        _check(
            "hermiticity_preservation",
            _worst(herm_gaps),
            1e-12 * rate_scale,
            "derivative of Hermitian non-positive inputs",
        )
    )

    dim = gen.num_labels * gen.dim_s
    if dim <= BIPARTITE_CHECK_CAP:
        sup = bipartite_superoperator(gen)
        sup_gaps, off_norms = [], []
        for _ in range(num_states):
            state = random_hybrid_state(rng, gen.num_labels, gen.dim_s)
            fast = apply(gen, state)
            full = superoperator_apply(sup, embed_state(state))
            off_norms.append(classical_offdiagonal_norm(full, gen.num_labels))
            sup_gaps.append(embed_state(fast) - full)
        checks.append(
            _check(
                "bipartite_equivalence",
                _worst(block_norms(np.stack(sup_gaps))),
                1e-12 * rate_scale,
                f"embedded superoperator on {num_states} random states",
            )
        )
        checks.append(
            _check(
                "classical_closure",
                _worst(off_norms),
                1e-14 * rate_scale,
                "off-diagonal classical blocks after one application",
            )
        )
    else:
        checks.append(
            _skip(
                "bipartite_equivalence",
                f"embedded dimension {dim} above cap {BIPARTITE_CHECK_CAP}",
            )
        )
        checks.append(
            _skip("classical_closure", "see bipartite_equivalence")
        )

    try:
        stat = stationary_state(gen)
        checks.append(
            _check(
                "stationary_matches_thermal",
                hybrid_trace_distance(stat, thermal),
                1e-10,
                "trace distance between the fixed point and the thermal state",
            )
        )
    except DegenerateStationaryError as err:
        checks.append(
            _skip("stationary_matches_thermal", f"degenerate: {err}")
        )
    except RuntimeError as err:
        checks.append(
            _check("stationary_matches_thermal", math.nan, 1e-10, f"failed: {err}")
        )

    return {
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
