import json

import numpy as np
import pytest

from hybridtherm.linalg import NonHermitianError, trace_distance
from hybridtherm.state import (
    HybridHamiltonian,
    HybridState,
    UnphysicalStateError,
    classical_marginal,
    entropy,
    hybrid_trace_distance,
    load_state,
    quantum_marginal,
    save_state,
    state_from_json_dict,
    state_to_json_dict,
    validate_state,
)
from hybridtherm.verify import random_hermitian, random_hybrid_state


class TestHybridState:
    def test_trace_and_marginals(self, rng):
        state = random_hybrid_state(rng, 3, 4)
        assert abs(state.total_trace() - 1.0) < 1e-12
        marg = classical_marginal(state)
        assert abs(marg.sum() - 1.0) < 1e-12
        qm = quantum_marginal(state)
        assert abs(np.trace(qm).real - 1.0) < 1e-12
        assert np.max(np.abs(qm - qm.conj().T)) < 1e-14

    def test_validate_accepts_random_state(self, rng):
        validate_state(random_hybrid_state(rng, 2, 3))

    def test_validate_rejects_negative_block(self):
        blocks = np.zeros((1, 2, 2), dtype=complex)
        blocks[0] = np.diag([1.5, -0.5])
        with pytest.raises(UnphysicalStateError):
            validate_state(HybridState(blocks))

    def test_validate_rejects_bad_trace(self, rng):
        state = random_hybrid_state(rng, 2, 2)
        with pytest.raises(UnphysicalStateError):
            validate_state(HybridState(state.blocks * 0.7))

    def test_validate_rejects_non_hermitian(self):
        blocks = np.zeros((1, 2, 2), dtype=complex)
        blocks[0] = [[0.5, 0.3], [0.1, 0.5]]
        with pytest.raises(NonHermitianError):
            validate_state(HybridState(blocks))

    def test_normalized(self, rng):
        state = random_hybrid_state(rng, 2, 2)
        scaled = HybridState(state.blocks * 3.0)
        assert abs(scaled.normalized().total_trace() - 1.0) < 1e-12


class TestTraceDistance:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_bit_equal_to_per_block_sum(self, rng, dim):
        for _ in range(50):
            a = random_hybrid_state(rng, 4, dim)
            b = random_hybrid_state(rng, 4, dim)
            want = sum(trace_distance(x, y) for x, y in zip(a.blocks, b.blocks))
            assert hybrid_trace_distance(a, b) == want

    def test_rejects_nan(self, rng):
        a = random_hybrid_state(rng, 3, 2)
        b = a.copy()
        b.blocks[2, 0, 1] = np.nan
        with pytest.raises(NonHermitianError):
            hybrid_trace_distance(a, b)


class TestEntropy:
    def test_pure_state_zero(self):
        blocks = np.zeros((1, 2, 2), dtype=complex)
        blocks[0, 0, 0] = 1.0
        assert entropy(HybridState(blocks)) == 0.0

    def test_uniform_state(self):
        # maximally mixed over L * d states
        L, d = 3, 2
        blocks = np.tile(np.eye(d, dtype=complex) / (L * d), (L, 1, 1))
        assert abs(entropy(HybridState(blocks)) - np.log(L * d)) < 1e-12

    def test_mixture_identity(self, rng):
        # S(sum_c w_c rho_c x |c><c|) = H(w) + sum_c w_c S(rho_c)
        w = np.array([0.3, 0.7])
        rhos = []
        for _ in range(2):
            g = random_hermitian(rng, 3)
            r = g @ g.conj().T + 0.1 * np.eye(3)
            rhos.append(r / np.trace(r).real)
        blocks = np.stack([w[c] * rhos[c] for c in range(2)])
        total = entropy(HybridState(blocks))
        mixing = -np.sum(w * np.log(w))
        conditional = 0.0
        for c in range(2):
            ev = np.linalg.eigvalsh(rhos[c])
            conditional += w[c] * float(-np.sum(ev * np.log(ev)))
        assert abs(total - (mixing + conditional)) < 1e-10

    def test_rejects_significantly_negative(self):
        blocks = np.zeros((1, 2, 2), dtype=complex)
        blocks[0] = np.diag([1.2, -0.2])
        with pytest.raises(UnphysicalStateError):
            entropy(HybridState(blocks))


class TestSerialization:
    def test_round_trip(self, rng, tmp_path):
        state = random_hybrid_state(rng, 3, 2)
        path = tmp_path / "state.json"
        save_state(state, path)
        back = load_state(path)
        assert hybrid_trace_distance(state, back) < 1e-14

    def test_json_dict_is_plain_data(self, rng):
        state = random_hybrid_state(rng, 2, 2)
        d = state_to_json_dict(state)
        json.dumps(d)
        assert d["dim_s"] == 2
        assert d["labels"] == [0, 1]
        assert len(d["conditionals"]) == 2

    def test_rejects_wrong_shape(self, rng):
        d = state_to_json_dict(random_hybrid_state(rng, 2, 2))
        d["conditionals"][0][0].append([0.0, 0.0])
        with pytest.raises(ValueError):
            state_from_json_dict(d)

    def test_rejects_label_gap(self, rng):
        d = state_to_json_dict(random_hybrid_state(rng, 2, 2))
        d["labels"][1] = 5
        with pytest.raises(ValueError):
            state_from_json_dict(d)


class TestHybridHamiltonian:
    def test_conditional_assembly(self):
        h = HybridHamiltonian(
            energies=np.array([0.0, 2.0]),
            h_system=np.array([[0.0, 0.1], [0.1, 0.0]], dtype=complex),
            coupling=0.5,
            h_bar=np.stack([np.diag([1.0, -1.0]), np.diag([2.0, 0.0])]).astype(complex),
        )
        c0 = h.conditional(0)
        assert np.allclose(c0, [[0.5, 0.1], [0.1, -0.5]])
        c1 = h.conditional(1)
        assert np.allclose(c1, [[3.0, 0.1], [0.1, 2.0]])
        both = h.conditionals()
        assert np.allclose(both[0], c0)
        assert np.allclose(both[1], c1)

    def test_mean_energy_matches_direct_sum(self, rng):
        L, d = 2, 3
        h = HybridHamiltonian(
            energies=rng.normal(size=L),
            h_system=random_hermitian(rng, d),
            coupling=0.7,
            h_bar=np.stack([random_hermitian(rng, d) for _ in range(L)]),
        )
        state = random_hybrid_state(rng, L, d)
        direct = sum(
            np.trace(h.conditional(c) @ state.blocks[c]).real for c in range(L)
        )
        assert abs(h.mean_energy(state) - direct) < 1e-12

    def test_rejects_non_hermitian_system(self):
        with pytest.raises(ValueError):
            HybridHamiltonian(
                energies=np.array([0.0]),
                h_system=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                coupling=1.0,
                h_bar=np.zeros((1, 2, 2), dtype=complex),
            )
