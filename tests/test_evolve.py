import numpy as np
import pytest

from hybridtherm.evolve import (
    IntegratorConfig,
    NonConvergedError,
    StiffIntegrationError,
    converged_state,
    integrate,
    trajectory_csv,
)
from hybridtherm.models import LatticeScenario, TlsScenario, build_lattice, build_tls
from hybridtherm.state import HybridState, hybrid_trace_distance
from hybridtherm.thermal import hybrid_thermal
from hybridtherm.verify import random_hybrid_state


def coherent_start(gen):
    """Pure superposition of the label-0 eigenstates, all mass in label 0."""
    d = gen.dim_s
    psi = gen.eigenvectors[0].sum(axis=1) / np.sqrt(d)
    blocks = np.zeros((gen.num_labels, d, d), dtype=complex)
    blocks[0] = np.outer(psi, psi.conj())
    return HybridState(blocks)


def outflow(gen, label, index):
    return sum(
        rate
        for src, _, rate in gen.directed_transitions()
        if src == (label, index)
    )


class TestCoherenceDecay:
    def test_envelope_and_frequency(self):
        # each eigenbasis coherence decays at half the summed outflow and
        # rotates at the conditional gap, independent of the populations
        s = TlsScenario(beta=1.0, energy_b=0.5, omega_a=2.0, omega_b=1.0)
        _, gen = build_tls(s)
        k0 = outflow(gen, 0, 0)
        k1 = outflow(gen, 0, 1)
        gamma = 0.5 * (k0 + k1)
        omega = float(gen.eigenvalues[0, 1] - gen.eigenvalues[0, 0])

        t_max = 5.0 / gamma
        cfg = IntegratorConfig(
            t_max=t_max,
            sample_dt=t_max / 100.0,
            record_eigenbasis=True,
            convergence_tol=0.0,
        )
        traj = integrate(gen, coherent_start(gen), cfg)
        assert traj.coherence_pairs == [(0, 1)]
        coh = traj.eig_coherences[:, 0, 0]
        # stored element is <1|rho|0>, starting at 1/2
        want = 0.5 * np.exp((-1j * omega - gamma) * traj.times)
        assert np.max(np.abs(coh - want)) < 1e-6

    def test_fitted_decay_rate(self):
        s = TlsScenario(beta=1.0, omega_a=1.5, omega_b=0.7)
        _, gen = build_tls(s)
        gamma = 0.5 * (outflow(gen, 0, 0) + outflow(gen, 0, 1))
        t_max = 2.0 / gamma
        cfg = IntegratorConfig(
            t_max=t_max,
            sample_dt=t_max / 200.0,
            record_eigenbasis=True,
            convergence_tol=0.0,
        )
        traj = integrate(gen, coherent_start(gen), cfg)
        mags = np.abs(traj.eig_coherences[:, 0, 0])
        slope = np.polyfit(traj.times, np.log(mags), 1)[0]
        assert abs(slope + gamma) < 1e-6 * max(1.0, gamma)


class TestRelaxation:
    def test_distance_decreases_monotonically(self, rng):
        s = TlsScenario(beta=1.2, energy_b=0.3, omega_a=2.0, omega_b=1.0)
        h, gen = build_tls(s)
        thermal = hybrid_thermal(h, s.beta)
        cfg = IntegratorConfig(t_max=30.0, sample_dt=0.25)
        traj = integrate(gen, random_hybrid_state(rng, 2, 2), cfg, target=thermal)
        diffs = np.diff(traj.dist_to_target)
        assert np.all(diffs <= 1e-9)

    def test_tls_converges_to_thermal(self, rng):
        s = TlsScenario(beta=0.8, energy_b=0.6, omega_a=2.0, omega_b=1.0)
        h, gen = build_tls(s)
        thermal = hybrid_thermal(h, s.beta)
        cfg = IntegratorConfig(t_max=300.0)
        traj = integrate(gen, random_hybrid_state(rng, 2, 2), cfg, target=thermal)
        assert traj.converged
        assert traj.converged_time is not None
        final = converged_state(traj)
        assert hybrid_trace_distance(final, thermal) < 1e-8

    def test_lattice_relaxes_to_closed_form(self):
        s = LatticeScenario(
            beta=1.0,
            half_width=9,
            omega_0=1.0,
            delta_omega=0.5,
            delta_e=0.5,
        )
        h, gen = build_lattice(s)
        thermal = hybrid_thermal(h, s.beta)
        L, d = h.num_labels, h.dim_s
        uniform = HybridState(
            np.tile(np.eye(d, dtype=complex) / (L * d), (L, 1, 1))
        )
        cfg = IntegratorConfig(t_max=200.0)
        traj = integrate(gen, uniform, cfg, target=thermal)
        assert traj.converged
        assert hybrid_trace_distance(converged_state(traj), thermal) < 1e-6

    def test_entropy_grows_from_pure_start(self):
        s = TlsScenario(beta=1.0, omega_a=2.0, omega_b=1.0)
        _, gen = build_tls(s)
        cfg = IntegratorConfig(t_max=50.0)
        traj = integrate(gen, coherent_start(gen), cfg)
        assert traj.entropy[0] < 1e-10
        assert traj.entropy[-1] > 0.5

    def test_trace_conserved_along_trajectory(self, rng):
        s = TlsScenario(beta=1.0, energy_b=0.2, omega_a=2.0, omega_b=1.0)
        _, gen = build_tls(s)
        cfg = IntegratorConfig(t_max=40.0, sample_dt=0.5)
        traj = integrate(gen, random_hybrid_state(rng, 2, 2), cfg)
        assert np.max(np.abs(traj.total_trace - 1.0)) < 1e-8

    def test_rk4_matches_rk45(self, rng):
        s = TlsScenario(beta=1.0, omega_a=2.0, omega_b=1.0)
        _, gen = build_tls(s)
        start = random_hybrid_state(rng, 2, 2)
        cfg45 = IntegratorConfig(t_max=5.0, sample_dt=1.0, convergence_tol=0.0)
        cfg4 = IntegratorConfig(
            t_max=5.0, method="rk4", dt=0.002, sample_dt=1.0, convergence_tol=0.0
        )
        a = integrate(gen, start, cfg45).final_state
        b = integrate(gen, start, cfg4).final_state
        assert hybrid_trace_distance(a, b) < 1e-8


class TestFailureModes:
    def test_converged_state_requires_convergence(self, rng):
        s = TlsScenario(beta=1.0, omega_a=2.0, omega_b=1.0)
        _, gen = build_tls(s)
        cfg = IntegratorConfig(t_max=0.5, sample_dt=0.1)
        traj = integrate(gen, random_hybrid_state(rng, 2, 2), cfg)
        assert not traj.converged
        with pytest.raises(NonConvergedError):
            converged_state(traj)

    def test_nan_dynamics_raise_stiff_error(self, rng):
        s = TlsScenario(beta=1.0, omega_a=2.0, omega_b=1.0)
        _, gen = build_tls(s)
        gen._multiplier[0, 0, 0] = np.nan
        cfg = IntegratorConfig(t_max=1.0)
        with pytest.raises(StiffIntegrationError):
            integrate(gen, random_hybrid_state(rng, 2, 2), cfg)

    def test_shape_mismatch_rejected(self, rng):
        s = TlsScenario(beta=1.0, omega_a=2.0, omega_b=1.0)
        _, gen = build_tls(s)
        with pytest.raises(ValueError):
            integrate(
                gen, random_hybrid_state(rng, 3, 2), IntegratorConfig(t_max=1.0)
            )


class TestTrajectoryCsv:
    def test_round_trip_precision(self, rng):
        s = TlsScenario(beta=1.0, energy_b=0.4, omega_a=2.0, omega_b=1.0)
        h, gen = build_tls(s)
        thermal = hybrid_thermal(h, s.beta)
        cfg = IntegratorConfig(t_max=5.0, sample_dt=1.0, convergence_tol=0.0)
        traj = integrate(gen, random_hybrid_state(rng, 2, 2), cfg, target=thermal)
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,total_trace,entropy,dist_to_thermal,p[0],p[1],min_eig"
        assert len(lines) == traj.times.shape[0] + 1
        row = lines[3].split(",")
        assert float(row[0]) == traj.times[2]
        assert float(row[1]) == traj.total_trace[2]
        assert float(row[3]) == traj.dist_to_target[2]

    def test_missing_target_leaves_column_empty(self, rng):
        s = TlsScenario(beta=1.0, omega_a=2.0, omega_b=1.0)
        _, gen = build_tls(s)
        cfg = IntegratorConfig(t_max=2.0, sample_dt=1.0, convergence_tol=0.0)
        traj = integrate(gen, random_hybrid_state(rng, 2, 2), cfg)
        row = trajectory_csv(traj).strip().split("\n")[1].split(",")
        assert row[3] == ""
