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
# bound on one edge-stacked intermediate of collisional_apply (S * E * d**2
# complex entries for S probe states and E directed transitions): the
# bundled L = 37 lattice (E = 218) takes all 20 default probes at once,
# while at large L the stacks shrink to one state and memory stays that of
# a single-state call
PROBE_CHUNK_BYTES = 2**20


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


def _probe_stacks(gen: HybridGenerator, num_states: int, draw):
    """Call draw() num_states times in order and yield its arrays stacked,
    in chunks whose edge intermediates stay within PROBE_CHUNK_BYTES."""
    per_state = max(1, gen._rate.size) * gen.dim_s**2 * 16
    size = max(1, PROBE_CHUNK_BYTES // per_state)
    for start in range(0, num_states, size):
        draws = [draw() for _ in range(min(size, num_states - start))]
        yield tuple(np.stack(parts) for parts in zip(*draws))


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
    """Run every generator invariant and collect a machine-readable report.

    The probe states are drawn in a fixed order (each random state, then
    its Hermitian probe; then the states of the bipartite check) and
    evaluated as stacks of at most PROBE_CHUNK_BYTES of edge intermediates.
    """
    if num_states < 1:
        raise ValueError(f"num_states must be positive, got {num_states}")
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

    L, d = gen.num_labels, gen.dim_s

    def state_and_probe():
        return random_hybrid_state(rng, L, d).blocks, random_hermitian_blocks(rng, L, d).blocks

    pair_gaps, traces, herm_gaps = [], [], []
    for states, herms in _probe_stacks(gen, num_states, state_and_probe):
        fast = apply(gen, states)
        slow = collisional_apply(gen, states)
        pair_gaps.append(np.max(block_norms(fast - slow), axis=-1))
        traces.append(np.abs(np.einsum("scii->s", fast).real))
        out = apply(gen, herms)
        skew = out - out.conj().swapaxes(-1, -2)
        herm_gaps.append(np.max(np.abs(skew), axis=(-3, -2, -1)))
    checks.append(
        _check(
            "collisional_equivalence",
            _worst(np.concatenate(pair_gaps)),
            1e-12 * rate_scale,
            f"block routes compared on {num_states} random states",
        )
    )
    checks.append(
        _check(
            "trace_preservation",
            _worst(np.concatenate(traces)),
            1e-12 * rate_scale,
            "total trace of the derivative",
        )
    )
    checks.append(
        _check(
            "hermiticity_preservation",
            _worst(np.concatenate(herm_gaps)),
            1e-12 * rate_scale,
            "derivative of Hermitian non-positive inputs",
        )
    )

    dim = L * d
    if dim <= BIPARTITE_CHECK_CAP:
        sup = bipartite_superoperator(gen)
        sup_gaps, off_norms = [], []
        for (states,) in _probe_stacks(
            gen, num_states, lambda: (random_hybrid_state(rng, L, d).blocks,)
        ):
            for state, fast in zip(states, apply(gen, states)):
                full = superoperator_apply(sup, embed_state(HybridState(state)))
                off_norms.append(classical_offdiagonal_norm(full, L))
                sup_gaps.append(embed_state(HybridState(fast)) - full)
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
