import json
import math
from pathlib import Path

import numpy as np
import pytest

from hybridtherm.generator import (
    DegenerateStationaryError,
    TransitionSpec,
    _build_caches,
    _gth_stationary,
    apply,
    basis_change_unitary,
    bipartite_superoperator,
    build_generator,
    classical_offdiagonal_norm,
    collisional_apply,
    embed_state,
    extract_state,
    stationary_state,
    superoperator_apply,
)
from hybridtherm.models import (
    LatticeScenario,
    TlsScenario,
    build_alt_lattice,
    build_lattice,
    build_tls,
    tls_transitions,
)
from hybridtherm.state import HybridHamiltonian, hybrid_trace_distance
from hybridtherm.thermal import hybrid_thermal
from hybridtherm.verify import (
    random_hermitian,
    random_hermitian_blocks,
    random_hybrid_state,
    verification_report,
)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def random_generator(rng, num_labels=2, dim=3, num_pairs=5, beta=None):
    h = HybridHamiltonian(
        energies=rng.normal(size=num_labels),
        h_system=random_hermitian(rng, dim),
        coupling=rng.uniform(0.3, 1.2),
        h_bar=np.stack([random_hermitian(rng, dim) for _ in range(num_labels)]),
    )
    if beta is None:
        beta = rng.uniform(0.2, 3.0)
    return h, build_generator(h, random_specs(rng, num_labels, dim, num_pairs), beta)


def random_specs(rng, num_labels, dim, num_pairs):
    states = [(c, i) for c in range(num_labels) for i in range(dim)]
    specs = []
    for _ in range(num_pairs):
        idx = rng.choice(len(states), size=2, replace=False)
        (ca, ia), (cb, ib) = states[idx[0]], states[idx[1]]
        specs.append(
            TransitionSpec(
                label_a=ca,
                index_a=ia,
                label_b=cb,
                index_b=ib,
                base_rate=float(rng.uniform(0.1, 5.0)),
            )
        )
    return specs


class TestDetailedBalance:
    def test_rate_identity(self, rng):
        # gamma_down * exp(-beta e_hi) == gamma_up * exp(-beta e_lo),
        # with the full conditional eigenvalues including the offsets
        for _ in range(10):
            _, gen = random_generator(rng)
            e_hi = gen.eigenvalues[gen.hi[:, 0], gen.hi[:, 1]]
            e_lo = gen.eigenvalues[gen.lo[:, 0], gen.lo[:, 1]]
            lhs = gen.gamma_down * np.exp(-gen.beta * e_hi)
            rhs = gen.gamma_up * np.exp(-gen.beta * e_lo)
            assert np.all(np.abs(lhs - rhs) <= 1e-14 * np.maximum(lhs, rhs))

    def test_uphill_never_exceeds_downhill(self, rng):
        for _ in range(10):
            _, gen = random_generator(rng)
            assert np.all(gen.gamma_up <= gen.gamma_down + 1e-15)

    def test_offsets_enter_the_gap(self):
        # bare labels: conditional spectra are just the classical energies
        h = HybridHamiltonian(
            energies=np.array([0.0, 1.5]),
            h_system=np.zeros((2, 2), dtype=complex),
            coupling=1.0,
            h_bar=np.zeros((2, 2, 2), dtype=complex),
        )
        beta = 0.8
        spec = TransitionSpec.between(0, 0, 1, 0, 2.0)
        gen = build_generator(h, [spec], beta)
        assert gen.gamma_down.size == 1
        assert gen.hi[0].tolist() == [1, 0]
        assert abs(gen.delta[0] - 1.5) < 1e-15
        assert abs(gen.gamma_up[0] - 2.0 * math.exp(-beta * 1.5)) < 1e-15

    def test_degenerate_pair_ratio_one(self):
        h = HybridHamiltonian(
            energies=np.array([0.3, 0.3]),
            h_system=np.diag([0.0, 1.0]).astype(complex),
            coupling=0.0,
            h_bar=np.zeros((2, 2, 2), dtype=complex),
        )
        gen = build_generator(h, [TransitionSpec.between(0, 1, 1, 1, 1.7)], 2.0)
        assert gen.gamma_down.size == 1
        assert gen.delta[0] == 0.0
        assert gen.gamma_up[0] == gen.gamma_down[0]

    def test_residual_zero_for_clean_build(self, rng):
        for _ in range(5):
            _, gen = random_generator(rng)
            assert gen.detailed_balance_residual() <= 1e-15

    def test_rate_extremes_match_directed_transitions(self, rng):
        gens = [random_generator(rng)[1] for _ in range(5)]
        gens.append(build_tls(TlsScenario(beta=1.0, omega_a=2.0, omega_b=1.0))[1])
        for gen in gens:
            _, _, rates = gen.directed_transitions()
            assert gen.max_rate() == rates.max()
            assert gen.min_rate() == rates.min()
        bare = HybridHamiltonian(
            energies=np.zeros(2),
            h_system=np.zeros((2, 2), dtype=complex),
            coupling=0.0,
            h_bar=np.zeros((2, 2, 2), dtype=complex),
        )
        empty = build_generator(bare, [], 1.0)
        assert empty.max_rate() == 0.0 and empty.min_rate() == 0.0


def loop_collisional_apply(gen, state):
    """The operator-form derivative, one transition at a time: the
    reference for the stacked collisional_apply."""
    out = np.zeros_like(state.blocks)
    for c in range(gen.num_labels):
        hc = gen.hamiltonian.conditional(c)
        out[c] += -1j * (hc @ state.blocks[c] - state.blocks[c] @ hc)
    vecs = gen.eigenvectors
    for (cs, ks), (ct, kt), rate in zip(*gen.directed_transitions()):
        src_vec = vecs[cs][:, ks]
        proj_src = np.outer(src_vec, src_vec.conj())
        rho_s = state.blocks[cs]
        out[cs] -= 0.5 * rate * (proj_src @ rho_s + rho_s @ proj_src)
        if cs == ct:
            a_op = np.outer(vecs[ct][:, kt], src_vec.conj())
            out[ct] += rate * (a_op @ rho_s @ a_op.conj().T)
        else:
            u_tilde = vecs[cs] @ vecs[ct].conj().T
            a_op = np.outer(vecs[ct][:, kt], vecs[ct][:, ks].conj())
            moved = u_tilde.conj().T @ rho_s @ u_tilde
            out[ct] += rate * (a_op @ moved @ a_op.conj().T)
    return out


class TestRouteEquivalence:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_collisional_matches_per_transition_loop(self, rng, dim):
        for _ in range(4):
            h, _ = random_generator(rng, num_labels=3, dim=dim)
            specs = [
                TransitionSpec.within(c, 0, dim - 1, rng.uniform(0.1, 5.0))
                for c in range(3)
            ] + [
                TransitionSpec.between(
                    c, int(rng.integers(dim)), c + 1, int(rng.integers(dim)),
                    rng.uniform(0.1, 5.0),
                )
                for c in range(2)
            ]
            gen = build_generator(h, specs, rng.uniform(0.2, 3.0))
            state = random_hybrid_state(rng, gen.num_labels, gen.dim_s)
            got = collisional_apply(gen, state).blocks
            want = loop_collisional_apply(gen, state)
            assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, gen.max_rate())

    def test_collisional_without_transitions_is_the_commutator(self, rng):
        h, _ = random_generator(rng, dim=3)
        gen = build_generator(h, [], 1.0)
        state = random_hybrid_state(rng, gen.num_labels, gen.dim_s)
        got = collisional_apply(gen, state).blocks
        assert np.max(np.abs(got - loop_collisional_apply(gen, state))) <= 1e-14
        assert np.max(np.abs(got - apply(gen, state).blocks)) <= 1e-13

    def test_apply_matches_collisional(self, rng):
        for _ in range(8):
            _, gen = random_generator(rng)
            state = random_hybrid_state(rng, gen.num_labels, gen.dim_s)
            fast = apply(gen, state)
            slow = collisional_apply(gen, state)
            worst = max(
                float(np.max(np.abs(a - b)))
                for a, b in zip(fast.blocks, slow.blocks)
            )
            assert worst <= 1e-12 * max(1.0, gen.max_rate())

    def test_apply_matches_bipartite(self, rng):
        for _ in range(8):
            _, gen = random_generator(rng)
            sup = bipartite_superoperator(gen)
            state = random_hybrid_state(rng, gen.num_labels, gen.dim_s)
            fast = embed_state(apply(gen, state))
            full = superoperator_apply(sup, embed_state(state))
            assert np.max(np.abs(fast - full)) <= 1e-12 * max(1.0, gen.max_rate())

    def test_classical_closure(self, rng):
        _, gen = random_generator(rng, num_labels=3, dim=2, num_pairs=6)
        sup = bipartite_superoperator(gen)
        for _ in range(5):
            state = random_hybrid_state(rng, 3, 2)
            full = superoperator_apply(sup, embed_state(state))
            assert classical_offdiagonal_norm(full, 3) <= 1e-14 * max(
                1.0, gen.max_rate()
            )

    def test_offdiagonal_norm_propagates_nan(self):
        full = np.zeros((4, 4), dtype=complex)
        full[0, 2] = 5.0
        assert classical_offdiagonal_norm(full, 2) == 5.0
        full[2, 0] = np.nan
        assert math.isnan(classical_offdiagonal_norm(full, 2))

    def test_offdiagonal_norm_ignores_diagonal_blocks(self, rng):
        full = np.zeros((6, 6), dtype=complex)
        full[:2, :2] = 9.0
        full[4:, 2:4] = random_hermitian(rng, 2)
        want = np.linalg.norm(full[4:, 2:4])
        assert classical_offdiagonal_norm(full, 3) == pytest.approx(want, rel=1e-15)

    def test_apply_is_linear(self, rng):
        _, gen = random_generator(rng)
        x = random_hybrid_state(rng, gen.num_labels, gen.dim_s)
        y = random_hybrid_state(rng, gen.num_labels, gen.dim_s)
        lhs = apply(
            gen,
            type(x)(0.3 * x.blocks + 0.7 * y.blocks),
        )
        rhs = 0.3 * apply(gen, x).blocks + 0.7 * apply(gen, y).blocks
        assert np.max(np.abs(lhs.blocks - rhs)) < 1e-13

    def test_superoperator_cap(self, rng):
        h = HybridHamiltonian(
            energies=np.zeros(9),
            h_system=random_hermitian(rng, 2),
            coupling=0.0,
            h_bar=np.zeros((9, 2, 2), dtype=complex),
        )
        gen = build_generator(h, [TransitionSpec.within(0, 0, 1, 1.0)], 1.0)
        with pytest.raises(ValueError):
            bipartite_superoperator(gen, max_dim=16)

    def test_embed_extract_round_trip(self, rng):
        state = random_hybrid_state(rng, 3, 2)
        back = extract_state(embed_state(state), 3)
        assert hybrid_trace_distance(state, back) < 1e-15


class TestConservation:
    def test_trace_preserved_on_hermitian_inputs(self, rng):
        for _ in range(5):
            _, gen = random_generator(rng)
            state = random_hermitian_blocks(rng, gen.num_labels, gen.dim_s)
            out = apply(gen, state)
            assert abs(out.total_trace()) <= 1e-12 * max(1.0, gen.max_rate())

    def test_hermiticity_preserved(self, rng):
        for _ in range(5):
            _, gen = random_generator(rng)
            state = random_hermitian_blocks(rng, gen.num_labels, gen.dim_s)
            out = apply(gen, state)
            for b in out.blocks:
                assert np.max(np.abs(b - b.conj().T)) <= 1e-13 * max(
                    1.0, gen.max_rate()
                )


class TestThermalStationarity:
    def test_thermal_state_is_annihilated(self, rng):
        for _ in range(10):
            h, gen = random_generator(rng)
            thermal = hybrid_thermal(h, gen.beta)
            out = apply(gen, thermal)
            worst = max(float(np.max(np.abs(b))) for b in out.blocks)
            assert worst <= 1e-13 * max(1.0, gen.max_rate())


class TestBasisChange:
    def test_sigma_z_to_sigma_x_is_hadamard(self):
        s = TlsScenario(beta=1.0, omega_a=2.0, omega_b=1.0)
        _, gen = build_tls(s)
        u = basis_change_unitary(gen.eigenvectors[0], gen.eigenvectors[1])
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert np.max(np.abs(u - hadamard)) < 1e-14

    def test_unitarity(self, rng):
        _, gen = random_generator(rng)
        u = basis_change_unitary(gen.eigenvectors[0], gen.eigenvectors[1])
        assert np.max(np.abs(u @ u.conj().T - np.eye(gen.dim_s))) < 1e-13


class TestStationaryState:
    def test_tls_matches_thermal(self, rng):
        s = TlsScenario(beta=1.3, energy_a=0.0, energy_b=0.4, omega_a=2.0, omega_b=1.0)
        h, gen = build_tls(s)
        stat = stationary_state(gen)
        thermal = hybrid_thermal(h, s.beta)
        assert hybrid_trace_distance(stat, thermal) < 1e-12

    def test_matches_dense_nullspace(self):
        # independent route: singular vector of the bipartite matrix
        s = TlsScenario(beta=0.9, energy_b=0.3, omega_a=1.7, omega_b=0.8)
        _, gen = build_tls(s)
        stat = stationary_state(gen)
        sup = bipartite_superoperator(gen)
        _, _, vh = np.linalg.svd(sup)
        vec = vh[-1].conj()
        full = vec.reshape(4, 4)
        full = 0.5 * (full + full.conj().T)
        full = full / np.trace(full).real
        dense = extract_state(full, 2)
        assert hybrid_trace_distance(stat, dense) < 1e-8

    def test_mechanism_a_alone_is_degenerate(self):
        s = TlsScenario(beta=1.0, mechanisms=("a",))
        with pytest.warns(UserWarning):
            _, gen = build_tls(s)
        with pytest.raises(DegenerateStationaryError) as err:
            stationary_state(gen)
        assert err.value.dimension == 2

    def test_no_transitions_all_frozen(self):
        # distinct eigenvalues: the two populations are separate closed
        # classes and the rotating coherence supports no stationary part
        h = HybridHamiltonian(
            energies=np.array([0.0]),
            h_system=np.diag([0.0, 1.0]).astype(complex),
            coupling=0.0,
            h_bar=np.zeros((1, 2, 2), dtype=complex),
        )
        gen = build_generator(h, [], 1.0)
        with pytest.raises(DegenerateStationaryError) as err:
            stationary_state(gen)
        assert err.value.dimension == 2

    def test_degenerate_conditional_freezes_coherence(self):
        h = HybridHamiltonian(
            energies=np.array([0.0]),
            h_system=np.zeros((2, 2), dtype=complex),
            coupling=0.0,
            h_bar=np.zeros((1, 2, 2), dtype=complex),
        )
        gen = build_generator(h, [], 1.0)
        with pytest.raises(DegenerateStationaryError) as err:
            stationary_state(gen)
        assert err.value.dimension == 4

    def test_relative_accuracy_on_tiny_weights(self):
        # two labels far apart in classical energy: the lighter weight is
        # exp(-beta * 30) ~ 1e-14 and must still come out clean
        h = HybridHamiltonian(
            energies=np.array([0.0, 30.0]),
            h_system=np.zeros((2, 2), dtype=complex),
            coupling=0.0,
            h_bar=np.zeros((2, 2, 2), dtype=complex),
        )
        beta = 1.0
        specs = [
            TransitionSpec.within(0, 0, 1, 1.0),
            TransitionSpec.within(1, 0, 1, 1.0),
            TransitionSpec.between(0, 0, 1, 0, 1.0),
        ]
        gen = build_generator(h, specs, beta)
        stat = stationary_state(gen)
        thermal = hybrid_thermal(h, beta)
        from hybridtherm.state import classical_marginal

        got = classical_marginal(stat)
        want = classical_marginal(thermal)
        assert np.max(np.abs(got - want) / want) < 1e-12

    def _chain(self, energies):
        n = energies.size
        h = HybridHamiltonian(
            energies=energies,
            h_system=np.zeros((1, 1), dtype=complex),
            coupling=0.0,
            h_bar=np.zeros((n, 1, 1), dtype=complex),
        )
        specs = [TransitionSpec.between(c, 0, c + 1, 0, 1.0) for c in range(n - 1)]
        return build_generator(h, specs, 1.0)

    def test_chain_of_258_states_is_one_class(self):
        # 258 states is where counting paths in uint8 would wrap to zero
        gen = self._chain(np.zeros(258))
        stat = stationary_state(gen)
        assert np.max(np.abs(stat.blocks[:, 0, 0] - 1 / 258)) < 1e-15

    def test_reducible_chain_of_258_states_has_two_closed_ends(self):
        # energies fall towards both ends so steeply that every uphill rate
        # underflows to zero: each end absorbs, and the closure must count
        # two classes however many states lie between them
        gen = self._chain(-1e3 * np.abs(np.arange(258) - 128.5))
        assert gen.min_rate() == 1.0
        with pytest.raises(DegenerateStationaryError) as err:
            stationary_state(gen)
        assert err.value.dimension == 2

    def test_nan_gain_is_not_returned(self):
        s = TlsScenario(beta=1.0, omega_a=2.0, omega_b=1.0)
        _, gen = build_tls(s)
        gen._multiplier[0, 0, 0] = np.nan
        with pytest.raises(RuntimeError, match="stationary residual nan"):
            stationary_state(gen)


class TestSparseGth:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_matches_null_space_off_detailed_balance(self, rng, n):
        # random rates on a random graph plus a directed cycle, so the chain
        # is irreducible but in general not reversible
        linalg = pytest.importorskip("scipy.linalg")
        for _ in range(10):
            q = np.where(rng.random((n, n)) < 0.4, rng.uniform(0.05, 5.0, (n, n)), 0.0)
            cycle = np.arange(n)
            q[cycle, np.roll(cycle, -1)] += rng.uniform(0.05, 5.0, n)
            np.fill_diagonal(q, 0.0)
            src, tgt = np.nonzero(q)
            got = _gth_stationary(n, src, tgt, q[src, tgt])
            ker = linalg.null_space((q - np.diag(q.sum(axis=1))).T)
            assert ker.shape[1] == 1
            want = ker[:, 0] / ker[:, 0].sum()
            assert np.max(np.abs(got - want)) < 1e-12

    def test_law_spanning_beyond_double_range(self):
        # birth-death chain with ratio 2**-600 per step: the far end sits
        # 2**-2400 below the peak, so only the rescaled substitution works
        n = 5
        src = np.array([0, 1, 2, 3, 1, 2, 3, 4])
        tgt = np.array([1, 2, 3, 4, 0, 1, 2, 3])
        rate = np.array([1.0] * 4 + [2.0**-600] * 4)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = _gth_stationary(n, src, tgt, rate)
        assert got[4] == 1.0
        assert got[3] == 2.0**-600
        assert np.all(got[:3] == 0.0)


class TestFaultInjection:
    def test_corrupted_uphill_rate_is_detected(self, rng):
        s = TlsScenario(beta=1.1, energy_b=0.4, omega_a=2.0, omega_b=1.0)
        _, gen = build_tls(s)
        gen.gamma_up[0] *= 1.01
        _build_caches(gen)
        assert gen.detailed_balance_residual() > 5e-3
        report = verification_report(gen, np.random.default_rng(3), num_states=3)
        assert not report["all_passed"]
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "detailed_balance" in failed
        assert "thermal_stationarity" in failed

    def test_nan_rate_fails_detailed_balance(self):
        s = TlsScenario(beta=1.1, energy_b=0.4, omega_a=2.0, omega_b=1.0)
        _, gen = build_tls(s)
        gen.gamma_up[0] = math.nan
        assert math.isnan(gen.detailed_balance_residual())
        report = verification_report(gen, np.random.default_rng(3), num_states=3)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["detailed_balance"]["passed"] is False
        assert by_name["detailed_balance"]["residual"] is None

    def test_nan_gain_fails_verification_in_strict_json(self):
        s = TlsScenario(beta=1.1, energy_b=0.4, omega_a=2.0, omega_b=1.0)
        _, gen = build_tls(s)
        gen._multiplier[0, 0, 0] = np.nan
        report = verification_report(gen, np.random.default_rng(3), num_states=3)
        assert not report["all_passed"]
        by_name = {c["name"]: c for c in report["checks"]}
        for name in ("thermal_stationarity", "stationary_matches_thermal"):
            assert by_name[name]["passed"] is False
            assert by_name[name]["residual"] is None
        json.dumps(report, allow_nan=False)

    def test_edge_list_corruption_fails_collisional_equivalence(self):
        # collisional_apply reads the RatePairs, not the edge list apply uses
        s = TlsScenario(beta=1.1, energy_b=0.4, omega_a=2.0, omega_b=1.0)
        _, gen = build_tls(s)
        gen._rate[0] *= 1.01
        report = verification_report(gen, np.random.default_rng(3), num_states=3)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["collisional_equivalence"]["passed"] is False
        assert not report["all_passed"]

    def test_bookkeeping_corruption_without_rebuild(self, rng):
        _, gen = random_generator(rng)
        gen.gamma_up[0] *= 1.01
        assert gen.detailed_balance_residual() > 5e-3


class TestBuildValidation:
    def _plain_h(self):
        return HybridHamiltonian(
            energies=np.array([0.0, 1.0]),
            h_system=np.diag([0.0, 1.0]).astype(complex),
            coupling=0.0,
            h_bar=np.zeros((2, 2, 2), dtype=complex),
        )

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            build_generator(
                self._plain_h(), [TransitionSpec.between(0, 0, 5, 0, 1.0)], 1.0
            )

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            build_generator(
                self._plain_h(), [TransitionSpec.within(0, 0, 7, 1.0)], 1.0
            )

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            build_generator(
                self._plain_h(), [TransitionSpec.within(0, 0, 1, -2.0)], 1.0
            )

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_rejects_non_finite_rate(self, rate):
        specs = [TransitionSpec.within(0, 0, 1, 1.0), TransitionSpec.between(0, 0, 1, 0, rate)]
        with pytest.raises(ValueError) as err:
            build_generator(self._plain_h(), specs, 1.0)
        assert str(err.value) == f"base rate must be finite and >= 0, got {rate!r}"

    def test_rejects_identical_endpoints(self):
        with pytest.raises(ValueError):
            build_generator(
                self._plain_h(),
                [TransitionSpec(label_a=0, index_a=1, label_b=0, index_b=1, base_rate=1.0)],
                1.0,
            )

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            build_generator(
                self._plain_h(), [TransitionSpec.within(0, 0, 1, 1.0)], -1.0
            )

    def test_zero_rate_specs_are_dropped(self):
        gen = build_generator(
            self._plain_h(),
            [
                TransitionSpec.within(0, 0, 1, 0.0),
                TransitionSpec.within(1, 0, 1, 1.0),
            ],
            1.0,
        )
        assert gen.gamma_down.size == 1


def spec_pairs(specs):
    """(label_a, index_a, label_b, index_b, base_rate) of every pair the
    specs name, array fields broadcast, in order."""
    for s in specs:
        cols = np.broadcast_arrays(s.label_a, s.index_a, s.label_b, s.index_b, s.base_rate)
        yield from zip(*(c.ravel().tolist() for c in cols))


def reference_lattice_pairs(s, half_width, dephasing):
    """The lattice pairs one at a time: the on-site pairs by site, then per
    bond its kappa_plus hop before its kappa_minus hop."""
    num_sites = 2 * half_width + 1
    upper, lower = (1, 0) if dephasing else (0, 1)
    pairs = [(c, 0, c, 1, s.kappa_th) for c in range(num_sites)]
    for c in range(num_sites - 1):
        pairs += [(c, 1, c + 1, upper, s.kappa_plus), (c, 0, c + 1, lower, s.kappa_minus)]
    return pairs


def reference_rate_table(eigenvalues, beta, pairs):
    """Rate table rows (hi, lo, gamma_down, gamma_up, delta) and directed
    edges (source, target, rate), resolved one pair at a time with math.exp:
    zero base rates skipped, each pair's down edge before its up edge, zero
    uphill rates dropped."""
    table, edges = [], []
    for la, ia, lb, ib, kappa in pairs:
        if kappa == 0.0:
            continue
        ea, eb = eigenvalues[la, ia], eigenvalues[lb, ib]
        if ea >= eb:
            hi, lo, delta = (la, ia), (lb, ib), float(ea - eb)
        else:
            hi, lo, delta = (lb, ib), (la, ia), float(eb - ea)
        up = kappa * math.exp(-beta * delta)
        table.append((hi, lo, kappa, up, delta))
        edges.append((hi, lo, kappa))
        if up > 0.0:
            edges.append((lo, hi, up))
    return table, edges


def assert_table_matches(gen, pairs):
    table, edges = reference_rate_table(gen.eigenvalues, gen.beta, pairs)
    hi, lo, down, up, delta = (list(col) for col in zip(*table))
    assert gen.hi.tolist() == [list(e) for e in hi]
    assert gen.lo.tolist() == [list(e) for e in lo]
    assert gen.gamma_down.tolist() == down
    assert gen.delta.tolist() == delta
    # np.exp and math.exp may round differently in the last bit
    np.testing.assert_array_max_ulp(gen.gamma_up, np.array(up, dtype=float), maxulp=1)
    src, tgt, rate = gen.directed_transitions()
    assert src.tolist() == [list(e[0]) for e in edges]
    assert tgt.tolist() == [list(e[1]) for e in edges]
    want = np.array([e[2] for e in edges], dtype=float)
    np.testing.assert_array_max_ulp(rate, want, maxulp=1)
    d = gen.dim_s
    assert np.array_equal(gen._src, src[:, 0] * d + src[:, 1])
    assert np.array_equal(gen._tgt, tgt[:, 0] * d + tgt[:, 1])
    assert np.array_equal(gen._rate, rate)
    return table, edges


def bundled(name):
    data = json.loads((SCENARIOS / f"{name}.json").read_text())
    return data["beta"], data[name]


class TestRateTable:
    @pytest.mark.parametrize("num_labels,dim", [(1, 3), (2, 2), (3, 3), (4, 4)])
    def test_random_generators_match_the_reference(self, rng, num_labels, dim):
        for _ in range(5):
            h, _ = random_generator(rng, num_labels=num_labels, dim=dim)
            specs = random_specs(rng, num_labels, dim, num_pairs=8)
            specs.append(TransitionSpec.within(0, 0, 1, 0.0))
            gen = build_generator(h, specs, rng.uniform(0.2, 3.0))
            assert_table_matches(gen, list(spec_pairs(specs)))

    def test_bundled_tls_matches_the_reference(self):
        beta, opts = bundled("tls")
        s = TlsScenario(beta=beta, **{**opts, "mechanisms": tuple(opts["mechanisms"])})
        specs = tls_transitions(s)
        _, gen = build_tls(s)
        table, _ = assert_table_matches(gen, list(spec_pairs(specs)))
        assert len(table) == 6

    @pytest.mark.parametrize("build, dephasing", [(build_lattice, True), (build_alt_lattice, False)])
    def test_bundled_lattice_matches_the_reference(self, build, dephasing):
        beta, opts = bundled("lattice")
        s = LatticeScenario(beta=beta, **opts)
        _, gen = build(s)
        half = (gen.num_labels - 1) // 2
        table, _ = assert_table_matches(gen, reference_lattice_pairs(s, half, dephasing))
        assert len(table) == 3 * gen.num_labels - 2

    def test_underflowed_uphill_rates_are_dropped(self):
        # on the bundled parameters the far uphill rates turn subnormal from
        # half_width 2367 and underflow to zero from about 2490; zero rates
        # must leave the edge list, or the tails would join the closed class
        beta, opts = bundled("lattice")
        s = LatticeScenario(beta=beta, **{**opts, "half_width": 2600})
        _, gen = build_lattice(s)
        table, edges = assert_table_matches(gen, reference_lattice_pairs(s, 2600, True))
        zero_up = sum(row[3] == 0.0 for row in table)
        assert zero_up > 0 and len(edges) == 2 * len(table) - zero_up
        assert np.count_nonzero(gen.gamma_up == 0.0) == zero_up
        assert gen.min_rate() > 0.0


class TestRandomDraws:
    @pytest.mark.parametrize("num_labels,dim", [(2, 2), (37, 2), (5, 3), (4, 4)])
    def test_stacked_draws_keep_the_per_block_stream(self, num_labels, dim):
        def complex_normal(rng):
            return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))

        ref = np.random.default_rng(11)
        weights = ref.random(num_labels) + 0.1
        weights /= weights.sum()
        want = np.empty((num_labels, dim, dim), dtype=complex)
        for c in range(num_labels):
            g = complex_normal(ref)
            rho = g @ g.conj().T + 1e-6 * np.eye(dim)
            want[c] = weights[c] * rho / np.trace(rho).real
        got = random_hybrid_state(np.random.default_rng(11), num_labels, dim)
        assert np.array_equal(got.blocks, want)

        ref = np.random.default_rng(12)
        gs = [complex_normal(ref) for _ in range(num_labels)]
        want = np.stack([0.5 * (g + g.conj().T) for g in gs])
        got = random_hermitian_blocks(np.random.default_rng(12), num_labels, dim)
        assert np.array_equal(got.blocks, want)
