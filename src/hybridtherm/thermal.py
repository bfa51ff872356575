"""Exact canonical thermal states of hybrid Hamiltonians.

The thermal state exp(-beta H) / Tr factorizes into classical weights times
conditional Gibbs states because the Hamiltonian is block diagonal.  All
partition sums are evaluated in log space after a max shift, so large
classical energy ranges do not overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import eigh, logsumexp, shifted_softmax
from .state import HybridHamiltonian, HybridState


@dataclass(frozen=True)
class ThermalDecomposition:
    """Weights, conditional Gibbs states, and the associated potentials.

    free_energies[c] is the conditional Helmholtz potential
    -(1/beta) ln Tr exp(-beta (H_s + coupling * Hbar_c)); it deliberately
    excludes the classical energy shift E_c.  log_z is ln sum_c exp(-beta E_c)
    and log_z_th the log of the full hybrid partition sum.
    """

    beta: float
    weights: np.ndarray
    conditionals: np.ndarray
    free_energies: np.ndarray
    log_z: float
    log_z_th: float

    @property
    def z(self) -> float:
        return float(np.exp(self.log_z))

    @property
    def z_th(self) -> float:
        return float(np.exp(self.log_z_th))

    def state(self) -> HybridState:
        return HybridState(self.weights[:, None, None] * self.conditionals)


def helmholtz(h_quantum: np.ndarray, beta: float) -> float:
    """Conditional Helmholtz potential of one quantum block."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    es = eigh(h_quantum, "conditional Hamiltonian")
    return -logsumexp(-beta * es.eigenvalues) / beta


def thermal_decomposition(h: HybridHamiltonian, beta: float) -> ThermalDecomposition:
    """Decompose the canonical state of h at inverse temperature beta.

    Conditional states depend only on the quantum part of each block; the
    classical energies enter the weights alone.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    es = eigh(h.conditionals(), "conditional Hamiltonian")
    # w_c = Tr exp(-beta H_c) / sum_c' Tr exp(-beta H_c'), in log space,
    # one max-shifted log-sum-exp per row
    args = -beta * es.eigenvalues
    shift = np.max(args, axis=1)
    e = np.exp(args - shift[:, None])
    total = np.sum(e, axis=1)
    log_tr = shift + np.log(total)
    free = -log_tr / beta - h.energies
    # the E_c shift drops out of the normalized Gibbs block
    v = es.eigenvectors
    conds = (v * (e / total[:, None])[:, None, :]) @ v.conj().transpose(0, 2, 1)
    weights = shifted_softmax(log_tr)
    log_z = logsumexp(-beta * h.energies)
    log_z_th = logsumexp(log_tr)
    return ThermalDecomposition(
        beta=beta,
        weights=weights,
        conditionals=conds,
        free_energies=free,
        log_z=log_z,
        log_z_th=log_z_th,
    )


def hybrid_thermal(h: HybridHamiltonian, beta: float) -> HybridState:
    """Canonical thermal state exp(-beta H) / Tr as a hybrid state."""
    return thermal_decomposition(h, beta).state()


def weights_via_free_energy(h: HybridHamiltonian, beta: float) -> np.ndarray:
    """Classical weights from exp(-beta (E_c + A_c)) / Z_th.

    Algebraically identical to the trace-ratio weights in
    thermal_decomposition; kept as a separate route so tests can compare
    the two formulas.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    free = np.array([helmholtz(h.quantum_part(c), beta) for c in range(h.num_labels)])
    return shifted_softmax(-beta * (h.energies + free))
