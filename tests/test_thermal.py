import numpy as np
import pytest

from hybridtherm.linalg import eigh, herm_exp, logsumexp, shifted_softmax
from hybridtherm.state import HybridHamiltonian, classical_marginal
from hybridtherm.thermal import (
    helmholtz,
    hybrid_thermal,
    thermal_decomposition,
    weights_via_free_energy,
)
from hybridtherm.verify import random_hermitian

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def two_level_pair(beta, energy_a, energy_b, omega_a, omega_b):
    return HybridHamiltonian(
        energies=np.array([energy_a, energy_b]),
        h_system=np.zeros((2, 2), dtype=complex),
        coupling=1.0,
        h_bar=np.stack([0.5 * omega_a * SIGMA_Z, 0.5 * omega_b * SIGMA_X]),
    )


def random_hamiltonian(rng, num_labels, dim):
    return HybridHamiltonian(
        energies=rng.normal(size=num_labels),
        h_system=random_hermitian(rng, dim),
        coupling=rng.uniform(0.2, 1.5),
        h_bar=np.stack([random_hermitian(rng, dim) for _ in range(num_labels)]),
    )


class TestWeights:
    def test_two_routes_agree(self, rng):
        for _ in range(10):
            h = random_hamiltonian(rng, 3, 4)
            beta = rng.uniform(0.1, 4.0)
            dec = thermal_decomposition(h, beta)
            other = weights_via_free_energy(h, beta)
            assert np.max(np.abs(dec.weights - other)) < 1e-12

    def test_dichotomic_closed_form(self):
        # weights proportional to exp(-beta E_c) * 2 cosh(beta omega_c / 2)
        beta = 1.0
        h = two_level_pair(beta, 0.0, 0.5, 2.0, 1.0)
        dec = thermal_decomposition(h, beta)
        raw = np.array(
            [
                np.exp(-0.0) * 2.0 * np.cosh(1.0),
                np.exp(-0.5) * 2.0 * np.cosh(0.5),
            ]
        )
        want = raw / raw.sum()
        assert np.max(np.abs(dec.weights - want)) < 1e-14

    def test_population_inversion(self):
        # a large splitting outweighs a higher classical energy
        beta = 1.0
        h = two_level_pair(beta, 0.0, 0.2, 0.1, 4.0)
        dec = thermal_decomposition(h, beta)
        assert dec.weights[1] > dec.weights[0]

    def test_high_temperature_limit(self):
        h = two_level_pair(1.0, 0.0, 0.3, 2.0, 1.0)
        dec = thermal_decomposition(h, 1e-9)
        assert np.max(np.abs(dec.weights - 0.5)) < 1e-8

    def test_weights_independent_of_energy_shift(self, rng):
        # adding a constant to every classical energy changes nothing
        h = random_hamiltonian(rng, 3, 3)
        shifted = HybridHamiltonian(
            energies=h.energies + 7.3,
            h_system=h.h_system,
            coupling=h.coupling,
            h_bar=h.h_bar,
        )
        a = thermal_decomposition(h, 0.8).weights
        b = thermal_decomposition(shifted, 0.8).weights
        assert np.max(np.abs(a - b)) < 1e-13

    def test_extreme_energies_stay_finite(self):
        h = HybridHamiltonian(
            energies=np.array([0.0, 900.0, 1800.0]),
            h_system=np.zeros((2, 2), dtype=complex),
            coupling=1.0,
            h_bar=np.stack([0.5 * SIGMA_Z] * 3),
        )
        dec = thermal_decomposition(h, 2.0)
        assert np.all(np.isfinite(dec.weights))
        assert abs(dec.weights.sum() - 1.0) < 1e-12
        assert dec.weights[0] > 1.0 - 1e-12


class TestConditionals:
    def test_sigma_z_conditional(self):
        beta, omega_a = 1.0, 2.0
        h = two_level_pair(beta, 0.0, 0.5, omega_a, 1.0)
        dec = thermal_decomposition(h, beta)
        z = 2.0 * np.cosh(beta * omega_a / 2.0)
        want = np.diag(
            [np.exp(-beta * omega_a / 2.0), np.exp(beta * omega_a / 2.0)]
        ) / z
        assert np.max(np.abs(dec.conditionals[0] - want)) < 1e-14

    def test_sigma_x_conditional(self):
        beta, omega_b = 1.0, 1.0
        h = two_level_pair(beta, 0.0, 0.5, 2.0, omega_b)
        dec = thermal_decomposition(h, beta)
        want = 0.5 * (np.eye(2) - np.tanh(beta * omega_b / 2.0) * SIGMA_X)
        assert np.max(np.abs(dec.conditionals[1] - want)) < 1e-14

    def test_conditionals_ignore_classical_energy(self, rng):
        h = random_hamiltonian(rng, 2, 3)
        shifted = HybridHamiltonian(
            energies=h.energies + np.array([3.0, -2.0]),
            h_system=h.h_system,
            coupling=h.coupling,
            h_bar=h.h_bar,
        )
        a = thermal_decomposition(h, 1.1)
        b = thermal_decomposition(shifted, 1.1)
        assert np.max(np.abs(a.conditionals - b.conditionals)) < 1e-13

    def test_conditional_matches_gibbs_oracle(self, rng):
        h = random_hamiltonian(rng, 2, 4)
        beta = 0.9
        dec = thermal_decomposition(h, beta)
        for c in range(2):
            raw = herm_exp(h.quantum_part(c), -beta)
            want = raw / np.trace(raw).real
            assert np.max(np.abs(dec.conditionals[c] - want)) < 1e-12


    @pytest.mark.parametrize("dim", [1, 2, 3, 6])
    def test_bit_equal_to_per_block_formula(self, rng, dim):
        h = random_hamiltonian(rng, 30, dim)
        h.energies[0] = 800.0
        beta = 1.7
        dec = thermal_decomposition(h, beta)
        log_tr = np.empty(h.num_labels)
        for c in range(h.num_labels):
            es = eigh(h.conditional(c))
            log_tr[c] = logsumexp(-beta * es.eigenvalues)
            v = es.eigenvectors
            gibbs = (v * shifted_softmax(-beta * es.eigenvalues)) @ v.conj().T
            assert np.array_equal(dec.conditionals[c], gibbs)
            assert dec.free_energies[c] == -log_tr[c] / beta - h.energies[c]
        assert np.array_equal(dec.weights, shifted_softmax(log_tr))
        assert dec.log_z_th == logsumexp(log_tr)


class TestPartitionFunctions:
    def test_z_th_matches_direct_trace(self, rng):
        h = random_hamiltonian(rng, 3, 3)
        beta = 1.3
        dec = thermal_decomposition(h, beta)
        direct = sum(
            np.trace(herm_exp(h.conditional(c), -beta)).real for c in range(3)
        )
        assert abs(dec.z_th - direct) < 1e-10 * direct

    def test_free_energy_definition(self, rng):
        # A_c = -ln Tr exp(-beta (H_s + lambda Hbar_c)) / beta, no E_c term
        h = random_hamiltonian(rng, 2, 3)
        beta = 0.7
        dec = thermal_decomposition(h, beta)
        for c in range(2):
            want = helmholtz(h.quantum_part(c), beta)
            assert abs(dec.free_energies[c] - want) < 1e-10


class TestHelmholtz:
    def test_diagonal_closed_form(self):
        lam = np.array([-1.0, 0.5, 2.0])
        beta = 1.7
        want = -np.log(np.sum(np.exp(-beta * lam))) / beta
        assert abs(helmholtz(np.diag(lam).astype(complex), beta) - want) < 1e-12

    def test_bounded_by_ground_state(self, rng):
        m = random_hermitian(rng, 5)
        beta = 2.0
        ground = float(np.linalg.eigvalsh(m)[0])
        a = helmholtz(m, beta)
        assert a <= ground + 1e-12
        assert a >= ground - np.log(5.0) / beta - 1e-12


class TestHybridThermal:
    def test_state_is_normalized(self, rng):
        h = random_hamiltonian(rng, 3, 3)
        state = hybrid_thermal(h, 1.2)
        assert abs(state.total_trace() - 1.0) < 1e-12

    def test_marginal_equals_weights(self, rng):
        h = random_hamiltonian(rng, 3, 2)
        beta = 0.6
        dec = thermal_decomposition(h, beta)
        state = hybrid_thermal(h, beta)
        assert np.max(np.abs(classical_marginal(state) - dec.weights)) < 1e-13

    def test_uncoupled_product_form(self, rng):
        # lambda = 0: every conditional is the bare Gibbs state
        h = HybridHamiltonian(
            energies=np.array([0.0, 1.0, -0.5]),
            h_system=random_hermitian(rng, 3),
            coupling=0.0,
            h_bar=np.stack([random_hermitian(rng, 3) for _ in range(3)]),
        )
        beta = 1.4
        dec = thermal_decomposition(h, beta)
        raw = herm_exp(h.h_system, -beta)
        gibbs = raw / np.trace(raw).real
        for c in range(3):
            assert np.max(np.abs(dec.conditionals[c] - gibbs)) < 1e-12
        raw_w = np.exp(-beta * h.energies)
        assert np.max(np.abs(dec.weights - raw_w / raw_w.sum())) < 1e-13

    def test_rejects_nonpositive_beta(self, rng):
        h = random_hamiltonian(rng, 2, 2)
        with pytest.raises(ValueError):
            thermal_decomposition(h, 0.0)
