"""Hybrid quantum-classical states and Hamiltonians.

A hybrid state couples a finite quantum system to a finite set of classical
labels.  It is stored as one quantum block per label; coherences between
different labels never appear.  Labels are plain indices 0..L-1; model
builders attach physical meaning (site index, configuration name) externally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import check_hermitian

EIG_CLIP = 1e-10


class UnphysicalStateError(ValueError):
    """State has a negative eigenvalue beyond the clipping band."""


@dataclass
class HybridState:
    """Block form sum_c rho_c (x) |c><c|.

    blocks has shape (L, dim_s, dim_s); blocks[c] carries probability
    weight p_c = Tr rho_c, so the classical marginal is just the trace of
    each block and the total trace of a normalized state is 1.
    """

    blocks: np.ndarray

    def __post_init__(self) -> None:
        self.blocks = np.asarray(self.blocks, dtype=complex)
        if self.blocks.ndim != 3 or self.blocks.shape[1] != self.blocks.shape[2]:
            raise ValueError(f"blocks must be (L, d, d), got {self.blocks.shape}")

    @property
    def num_labels(self) -> int:
        return self.blocks.shape[0]

    @property
    def dim_s(self) -> int:
        return self.blocks.shape[1]

    def total_trace(self) -> float:
        return float(np.einsum("cii->", self.blocks).real)

    def copy(self) -> "HybridState":
        return HybridState(self.blocks.copy())

    def normalized(self) -> "HybridState":
        tr = self.total_trace()
        if tr <= 0:
            raise UnphysicalStateError(f"total trace {tr:.3e} is not positive")
        return HybridState(self.blocks / tr)


def validate_state(state: HybridState, normalized: bool = True) -> None:
    """Check finiteness, Hermiticity, positivity up to the clipping band, and trace."""
    # eigvalsh can return finite values for a block holding NaN
    if not np.all(np.isfinite(state.blocks)):
        raise UnphysicalStateError("state has non-finite entries")
    check_hermitian(state.blocks, "block")
    scale = max(state.total_trace(), 1.0)
    low = float(np.min(np.linalg.eigvalsh(state.blocks)))
    if not low >= -EIG_CLIP * scale:
        raise UnphysicalStateError(
            f"minimum block eigenvalue {low:.3e} below -{EIG_CLIP:.0e} * {scale:.3e}"
        )
    if normalized and not abs(state.total_trace() - 1.0) <= 1e-10:
        raise UnphysicalStateError(
            f"total trace {state.total_trace()!r} != 1 within 1e-10"
        )


def classical_marginal(state: HybridState) -> np.ndarray:
    """Probability of each label: p_c = Tr rho_c."""
    return np.einsum("cii->c", state.blocks).real


def quantum_marginal(state: HybridState) -> np.ndarray:
    """Reduced quantum state sum_c rho_c."""
    return state.blocks.sum(axis=0)


def entropy(state: HybridState) -> float:
    """Von Neumann entropy -Tr[Xi ln Xi] of the full hybrid state.

    Block-diagonal structure makes this the sum of per-block terms, added in
    block order; the convention 0 ln 0 = 0 applies.  Eigenvalues in
    [-1e-10, 0] are clipped to zero, anything lower is rejected.
    """
    scale = max(state.total_trace(), 1.0)
    w = np.linalg.eigvalsh(state.blocks)
    low = float(np.min(w, initial=np.inf))
    if not low >= -EIG_CLIP * scale:
        raise UnphysicalStateError(
            f"eigenvalue {low:.3e} below the -{EIG_CLIP:.0e} clipping band"
        )
    terms = np.log(w, out=np.zeros_like(w), where=w > 0.0) * w
    return sum((-np.sum(terms, axis=1)).tolist())


def hybrid_trace_distance(a: HybridState, b: HybridState) -> float:
    """Trace distance between two hybrid states (per-block terms summed in order)."""
    if a.blocks.shape != b.blocks.shape:
        raise ValueError(f"shape mismatch {a.blocks.shape} vs {b.blocks.shape}")
    check_hermitian(a.blocks, "first argument")
    check_hermitian(b.blocks, "second argument")
    w = np.linalg.eigvalsh(a.blocks - b.blocks)
    return sum((0.5 * np.sum(np.abs(w), axis=1)).tolist())


@dataclass
class HybridHamiltonian:
    """H_c = E_c * I + H_s + coupling * Hbar_c, one conditional per label."""

    energies: np.ndarray
    h_system: np.ndarray
    coupling: float
    h_bar: np.ndarray

    def __post_init__(self) -> None:
        self.energies = np.asarray(self.energies, dtype=float)
        self.h_system = np.asarray(self.h_system, dtype=complex)
        self.h_bar = np.asarray(self.h_bar, dtype=complex)
        if self.energies.ndim != 1:
            raise ValueError("energies must be a 1-d array")
        d = self.h_system.shape[0]
        if self.h_system.shape != (d, d):
            raise ValueError(f"h_system must be square, got {self.h_system.shape}")
        if self.h_bar.shape != (self.num_labels, d, d):
            raise ValueError(
                f"h_bar must be ({self.num_labels}, {d}, {d}), got {self.h_bar.shape}"
            )
        check_hermitian(self.h_system, "h_system")
        check_hermitian(self.h_bar, "h_bar")

    @property
    def num_labels(self) -> int:
        return self.energies.shape[0]

    @property
    def dim_s(self) -> int:
        return self.h_system.shape[0]

    def quantum_part(self, c: int) -> np.ndarray:
        """H_s + coupling * Hbar_c, without the classical energy shift."""
        return self.h_system + self.coupling * self.h_bar[c]

    def conditional(self, c: int) -> np.ndarray:
        return self.energies[c] * np.eye(self.dim_s) + self.quantum_part(c)

    def conditionals(self) -> np.ndarray:
        # the same sums as conditional(c), so the two agree bit for bit
        eye = np.eye(self.dim_s)
        return self.energies[:, None, None] * eye + (
            self.h_system + self.coupling * self.h_bar
        )

    def mean_energy(self, state: HybridState) -> float:
        return float(
            np.einsum("cij,cji->", self.conditionals(), state.blocks).real
        )


def state_to_json_dict(state: HybridState) -> dict:
    """Row-major [re, im] pair encoding used for checkpoints."""
    return {
        "dim_s": state.dim_s,
        "labels": list(range(state.num_labels)),
        "conditionals": [
            [[[float(z.real), float(z.imag)] for z in row] for row in state.blocks[c]]
            for c in range(state.num_labels)
        ],
    }


def state_from_json_dict(data: dict) -> HybridState:
    d = int(data["dim_s"])
    labels = data["labels"]
    if list(labels) != list(range(len(labels))):
        raise ValueError("labels must be the contiguous range 0..L-1")
    blocks = np.empty((len(labels), d, d), dtype=complex)
    for c, mat in enumerate(data["conditionals"]):
        arr = np.asarray(mat, dtype=float)
        if arr.shape != (d, d, 2):
            raise ValueError(f"block {c} has shape {arr.shape}, expected ({d},{d},2)")
        blocks[c] = arr[..., 0] + 1j * arr[..., 1]
    return HybridState(blocks)


def save_state(state: HybridState, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json_dict(state), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_state(path: str) -> HybridState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json_dict(json.load(fh))
