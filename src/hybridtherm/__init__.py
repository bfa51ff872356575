"""Hybrid quantum-classical thermal states and thermalizing dynamics."""

from .continuum import (
    ContinuumParams,
    ContinuumProfile,
    FieldState,
    FokkerPlanckEvolution,
    continuum_profile,
)
from .evolve import (
    IntegratorConfig,
    NonConvergedError,
    StiffIntegrationError,
    Trajectory,
    converged_state,
    integrate,
)
from .generator import (
    DegenerateStationaryError,
    HybridGenerator,
    TransitionSpec,
    apply,
    bipartite_superoperator,
    build_generator,
    collisional_apply,
    stationary_state,
)
from .linalg import HermitianEigensystem, eigh, herm_exp, trace_distance
from .models import (
    LatticeScenario,
    TlsScenario,
    build_alt_lattice,
    build_lattice,
    build_tls,
    lattice_weights,
)
from .state import (
    HybridHamiltonian,
    HybridState,
    UnphysicalStateError,
    hybrid_trace_distance,
    load_state,
    save_state,
)
from .thermal import (
    ThermalDecomposition,
    helmholtz,
    hybrid_thermal,
    thermal_decomposition,
    weights_via_free_energy,
)
from .verify import verification_report

__all__ = [
    "ContinuumParams",
    "ContinuumProfile",
    "DegenerateStationaryError",
    "FieldState",
    "FokkerPlanckEvolution",
    "HermitianEigensystem",
    "HybridGenerator",
    "HybridHamiltonian",
    "HybridState",
    "IntegratorConfig",
    "LatticeScenario",
    "NonConvergedError",
    "StiffIntegrationError",
    "ThermalDecomposition",
    "TlsScenario",
    "Trajectory",
    "TransitionSpec",
    "UnphysicalStateError",
    "apply",
    "bipartite_superoperator",
    "build_alt_lattice",
    "build_generator",
    "build_lattice",
    "build_tls",
    "collisional_apply",
    "continuum_profile",
    "converged_state",
    "eigh",
    "helmholtz",
    "herm_exp",
    "hybrid_thermal",
    "hybrid_trace_distance",
    "integrate",
    "lattice_weights",
    "load_state",
    "save_state",
    "stationary_state",
    "thermal_decomposition",
    "trace_distance",
    "verification_report",
    "weights_via_free_energy",
]

__version__ = "0.1.0"
