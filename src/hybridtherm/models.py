"""Concrete model builders: dichotomic two-level system and spin lattice.

The two-level models couple a qubit to two classical configurations; the
lattice couples it to a chain of positions with harmonically growing
classical energy and a splitting that grows linearly in |site|.  Both only
name their transition pairs and downhill rates as TransitionSpecs (the
lattice as arrays over its sites); build_generator resolves them into one
rate table, so detailed balance and thermal stationarity come from the
generator layer, not from anything model specific.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .generator import HybridGenerator, TransitionSpec, build_generator
from .linalg import log_cosh
from .state import HybridHamiltonian

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

TAIL_WEIGHT = 1e-12
# required_half_width scans spans of at most this many sites
MAX_SCAN_SITES = 10_000_000

MECHANISMS = ("a", "b", "c", "d", "e")
# cross-label mechanisms as (eigenstate index in label 0, index in label 1);
# index 1 is the upper conditional eigenstate
_CROSS_PAIRS = {"b": (1, 0), "c": (0, 1), "d": (1, 1), "e": (0, 0)}


class DegenerateMechanismWarning(UserWarning):
    """No classical transition enabled; stationary state is not unique."""


@dataclass(frozen=True)
class TlsScenario:
    """Qubit over two classical configurations.

    Default conditional Hamiltonians are (omega_a/2) sigma_z and
    (omega_b/2) sigma_x; pass h_a / h_b to override with arbitrary
    Hermitian blocks.  rates maps mechanism name to its downhill rate.
    """

    beta: float
    energy_a: float = 0.0
    energy_b: float = 0.0
    omega_a: float = 1.0
    omega_b: float = 1.0
    mechanisms: tuple[str, ...] = MECHANISMS
    rates: dict = field(default_factory=dict)
    h_a: np.ndarray | None = None
    h_b: np.ndarray | None = None

    def rate(self, mech: str) -> float:
        return float(self.rates.get(mech, 1.0))


def tls_hamiltonian(s: TlsScenario) -> HybridHamiltonian:
    h_a = s.h_a if s.h_a is not None else 0.5 * s.omega_a * SIGMA_Z
    h_b = s.h_b if s.h_b is not None else 0.5 * s.omega_b * SIGMA_X
    return HybridHamiltonian(
        energies=np.array([s.energy_a, s.energy_b]),
        h_system=np.zeros((2, 2), dtype=complex),
        coupling=1.0,
        h_bar=np.stack([np.asarray(h_a, dtype=complex), np.asarray(h_b, dtype=complex)]),
    )


def tls_transitions(s: TlsScenario) -> list[TransitionSpec]:
    unknown = set(s.mechanisms) - set(MECHANISMS)
    if unknown:
        raise ValueError(f"unknown mechanisms {sorted(unknown)}")
    specs = []
    if "a" in s.mechanisms:
        for label in (0, 1):
            specs.append(TransitionSpec.within(label, 0, 1, s.rate("a")))
    for mech, (ia, ib) in _CROSS_PAIRS.items():
        if mech in s.mechanisms:
            specs.append(TransitionSpec.between(0, ia, 1, ib, s.rate(mech)))
    if not any(m in s.mechanisms for m in _CROSS_PAIRS):
        warnings.warn(
            "no classical transition mechanism enabled; the stationary "
            "state is degenerate",
            DegenerateMechanismWarning,
            stacklevel=2,
        )
    return specs


def build_tls(s: TlsScenario) -> tuple[HybridHamiltonian, HybridGenerator]:
    h = tls_hamiltonian(s)
    return h, build_generator(h, tls_transitions(s), s.beta)


# ---------------------------------------------------------------------------
# lattice

@dataclass(frozen=True)
class LatticeScenario:
    """Qubit on sites n = -N..N.

    Classical energy E_0 + delta_e * n**2, splitting omega_0 + delta_omega
    * |n| along sigma_z.  kappa_th drives the on-site thermal transitions,
    kappa_plus / kappa_minus the dephasing hops between neighbors in the
    upper / lower eigenstate.
    """

    beta: float
    half_width: int
    omega_0: float = 0.0
    delta_omega: float = 0.0
    energy_0: float = 0.0
    delta_e: float = 0.1
    delta_x: float = 1.0
    kappa_th: float = 1.0
    kappa_plus: float = 1.0
    kappa_minus: float = 1.0

    def splitting(self, n) -> np.ndarray:
        return self.omega_0 + self.delta_omega * np.abs(n)

    def classical_energy(self, n) -> np.ndarray:
        return self.energy_0 + self.delta_e * np.asarray(n, dtype=float) ** 2


def site_log_weight(s: LatticeScenario, n) -> np.ndarray:
    """Unnormalized log of exp(-beta E_n) cosh(beta omega_n / 2)."""
    n = np.asarray(n, dtype=float)
    return -s.beta * s.classical_energy(n) + log_cosh(
        0.5 * s.beta * s.splitting(n)
    )


def required_half_width(s: LatticeScenario) -> int:
    """Smallest N whose omitted tail stays below the truncation budget.

    The scan doubles its span from max(half_width, 8) up to MAX_SCAN_SITES
    and stops at the first span whose edge decrement of the log weight
    exceeds 0.05 and whose geometric tail bound meets a tenth of the budget.
    The decrement at every span the scan can reach is evaluated first, so
    weights that cannot decay within the cap are refused without a scan.
    """
    if not s.half_width <= MAX_SCAN_SITES:
        raise ValueError(f"half_width exceeds {MAX_SCAN_SITES:,}")
    spans = [max(s.half_width, 8)]
    while 2 * spans[-1] <= MAX_SCAN_SITES:
        spans.append(2 * spans[-1])
    edge = np.array(spans, dtype=float)
    # decrement of the log weight at the edge; positive once the quadratic
    # energy dominates the cosh growth, which is at most beta |delta_omega| / 2
    # per site; an overflowing energy gives a NaN decrement, which is skipped
    with np.errstate(over="ignore", invalid="ignore"):
        decrement = site_log_weight(s, edge - 1.0) - site_log_weight(s, edge)
    for span in (span for span, dec in zip(spans, decrement) if dec > 0.05):
        lw = site_log_weight(s, np.arange(-span, span + 1))
        dec = lw[-2] - lw[-1]
        edge_ratio = np.exp(lw[-1] - lw.max())
        if dec > 0.05 and edge_ratio * np.exp(-dec) / (1 - np.exp(-dec)) < 0.1 * TAIL_WEIGHT:
            break
    else:
        raise ValueError(
            f"site weights do not decay within {MAX_SCAN_SITES:,} sites: the "
            f"edge decrement of the log weight reaches {np.max(decrement):.3g} "
            "and must exceed 0.05; check delta_e > 0"
        )
    w = np.exp(lw - lw.max())
    total = w.sum()
    # tails[j]: weight beyond half width span - j, each side summed inward
    # from its own edge; beyond the scan span lies under a tenth of the budget
    left = np.cumsum(w[: span - 1])
    right = np.cumsum(w[: -span : -1])
    tails = np.concatenate([[0.0], left + right])
    over = np.flatnonzero(tails / total >= 0.9 * TAIL_WEIGHT)
    half = span - int(over[0]) if over.size else 0
    return half + 1


def lattice_hamiltonian(s: LatticeScenario, half_width: int) -> HybridHamiltonian:
    sites = np.arange(-half_width, half_width + 1)
    h_bar = 0.5 * s.splitting(sites)[:, None, None] * SIGMA_Z
    return HybridHamiltonian(
        energies=s.classical_energy(sites),
        h_system=np.zeros((2, 2), dtype=complex),
        coupling=1.0,
        h_bar=h_bar,
    )


def _effective_half_width(s: LatticeScenario) -> int:
    needed = required_half_width(s)
    if needed > s.half_width:
        warnings.warn(
            f"half_width raised from {s.half_width} to {needed} to meet the "
            f"truncation budget {TAIL_WEIGHT:.0e}",
            stacklevel=3,
        )
        return needed
    return s.half_width


def lattice_transitions(
    s: LatticeScenario, half_width: int, dephasing: bool
) -> list[TransitionSpec]:
    """On-site thermal pairs plus nearest-neighbor hops.

    dephasing=True hops conserve the local eigenstate (upper-upper and
    lower-lower neighbor pairs); dephasing=False couples upper states to
    neighboring lower states in both directions instead.  Both graphs are
    connected, so both share the thermal fixed point.
    """
    num_sites = 2 * half_width + 1
    sites = np.arange(num_sites)
    # every bond twice, its upper-state (kappa_plus) hop before its lower one
    left = np.repeat(sites[:-1], 2)
    upper = np.tile([1, 0], num_sites - 1)
    return [
        TransitionSpec.within(sites, 0, 1, s.kappa_th),
        TransitionSpec(
            left, upper, left + 1, upper if dephasing else 1 - upper,
            np.tile([s.kappa_plus, s.kappa_minus], num_sites - 1),
        ),
    ]


def build_lattice(s: LatticeScenario) -> tuple[HybridHamiltonian, HybridGenerator]:
    """Lattice with eigenstate-preserving (dephasing) neighbor hops."""
    half = _effective_half_width(s)
    h = lattice_hamiltonian(s, half)
    return h, build_generator(h, lattice_transitions(s, half, dephasing=True), s.beta)


def build_alt_lattice(s: LatticeScenario) -> tuple[HybridHamiltonian, HybridGenerator]:
    """Lattice variant with eigenstate-flipping neighbor hops."""
    half = _effective_half_width(s)
    h = lattice_hamiltonian(s, half)
    return h, build_generator(h, lattice_transitions(s, half, dephasing=False), s.beta)


def lattice_sites(h: HybridHamiltonian) -> np.ndarray:
    half = (h.num_labels - 1) // 2
    return np.arange(-half, half + 1)


def lattice_weights(s: LatticeScenario, half_width: int) -> np.ndarray:
    """Closed-form stationary site weights on the truncated chain."""
    n = np.arange(-half_width, half_width + 1)
    lw = site_log_weight(s, n)
    w = np.exp(lw - lw.max())
    return w / w.sum()
