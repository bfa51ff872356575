import math
import warnings

import numpy as np
import pytest

from hybridtherm.generator import stationary_state
from hybridtherm.models import (
    DegenerateMechanismWarning,
    TAIL_WEIGHT,
    LatticeScenario,
    TlsScenario,
    build_alt_lattice,
    build_lattice,
    build_tls,
    lattice_sites,
    lattice_weights,
    required_half_width,
    site_log_weight,
    tls_transitions,
)
from hybridtherm.state import classical_marginal, hybrid_trace_distance
from hybridtherm.thermal import hybrid_thermal, thermal_decomposition


class TestTlsMechanisms:
    def test_default_transition_set(self):
        specs = tls_transitions(TlsScenario(beta=1.0))
        # two on-site pairs plus four cross pairs
        assert len(specs) == 6
        cross = {
            (sp.label_a, sp.index_a, sp.label_b, sp.index_b)
            for sp in specs
            if sp.label_a != sp.label_b
        }
        assert cross == {(0, 1, 1, 0), (0, 0, 1, 1), (0, 1, 1, 1), (0, 0, 1, 0)}

    def test_mechanism_a_alone_warns(self):
        with pytest.warns(DegenerateMechanismWarning):
            tls_transitions(TlsScenario(beta=1.0, mechanisms=("a",)))

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            tls_transitions(TlsScenario(beta=1.0, mechanisms=("a", "q")))

    def test_each_cross_mechanism_restores_uniqueness(self):
        s_base = TlsScenario(beta=1.1, energy_b=0.4, omega_a=2.0, omega_b=1.0)
        h, _ = build_tls(s_base)
        thermal = hybrid_thermal(h, s_base.beta)
        for mech in ("b", "c", "d", "e"):
            s = TlsScenario(
                beta=1.1,
                energy_b=0.4,
                omega_a=2.0,
                omega_b=1.0,
                mechanisms=("a", mech),
            )
            _, gen = build_tls(s)
            stat = stationary_state(gen)
            assert hybrid_trace_distance(stat, thermal) < 1e-10

    def test_per_mechanism_rates_apply(self):
        s = TlsScenario(beta=1.0, rates={"a": 2.5, "b": 0.3})
        specs = tls_transitions(s)
        by_kind = {}
        for sp in specs:
            key = "a" if sp.label_a == sp.label_b else (sp.index_a, sp.index_b)
            by_kind[key] = sp.base_rate
        assert by_kind["a"] == 2.5
        assert by_kind[(1, 0)] == 0.3

    def test_custom_conditionals_override(self, rng):
        from hybridtherm.verify import random_hermitian

        h_a = random_hermitian(rng, 2)
        s = TlsScenario(beta=1.0, h_a=h_a)
        h, _ = build_tls(s)
        assert np.allclose(h.h_bar[0], h_a)


class TestLatticeWeights:
    def test_matches_thermal_decomposition(self):
        s = LatticeScenario(
            beta=1.0, half_width=12, omega_0=1.0, delta_omega=0.3, delta_e=0.4
        )
        h, _ = build_lattice(s)
        half = (h.num_labels - 1) // 2
        dec = thermal_decomposition(h, s.beta)
        w = lattice_weights(s, half)
        assert np.max(np.abs(dec.weights - w)) < 1e-13

    def test_log_weight_formula(self):
        s = LatticeScenario(
            beta=2.0, half_width=5, omega_0=0.7, delta_omega=0.2, delta_e=0.3
        )
        for n in (-3, 0, 4):
            direct = -s.beta * (s.delta_e * n**2) + math.log(
                math.cosh(0.5 * s.beta * (s.omega_0 + s.delta_omega * abs(n)))
            )
            assert abs(float(site_log_weight(s, n)) - direct) < 1e-12

    def test_symmetric_in_site_sign(self):
        s = LatticeScenario(
            beta=1.0, half_width=10, omega_0=0.5, delta_omega=0.4, delta_e=0.2
        )
        w = lattice_weights(s, 10)
        assert np.max(np.abs(w - w[::-1])) < 1e-15


class TestTruncation:
    def test_required_half_width_meets_budget(self):
        s = LatticeScenario(beta=1.0, half_width=4, delta_e=0.05, delta_omega=0.1)
        need = required_half_width(s)
        wide = np.arange(-4 * need, 4 * need + 1)
        w = np.exp(site_log_weight(s, wide) - site_log_weight(s, 0))
        w = w / w.sum()
        tail = w[np.abs(wide) > need].sum()
        assert tail < 1e-12

    def test_not_wastefully_large(self):
        s = LatticeScenario(beta=1.0, half_width=4, delta_e=0.05, delta_omega=0.1)
        need = required_half_width(s)
        wide = np.arange(-4 * need, 4 * need + 1)
        w = np.exp(site_log_weight(s, wide) - site_log_weight(s, 0))
        w = w / w.sum()
        tail_smaller = w[np.abs(wide) > need - 2].sum()
        assert tail_smaller > 1e-14

    @pytest.mark.parametrize(
        "params",
        [
            dict(delta_e=0.05, delta_omega=0.1),
            dict(delta_e=0.01, delta_omega=0.5, omega_0=1.0),
            dict(delta_e=0.3, delta_omega=0.0, omega_0=2.0),
        ],
    )
    def test_required_half_width_is_the_narrowest_within_budget(self, params):
        s = LatticeScenario(beta=1.0, half_width=4, **params)
        need = required_half_width(s)
        wide = np.arange(-4 * need, 4 * need + 1)
        w = np.exp(site_log_weight(s, wide) - site_log_weight(s, 0))

        def tail(half):
            return math.fsum(w[np.abs(wide) > half]) / math.fsum(w)

        assert tail(need) < 0.9 * TAIL_WEIGHT
        assert not tail(need - 1) < 0.9 * TAIL_WEIGHT

    def test_build_raises_half_width_with_warning(self):
        s = LatticeScenario(beta=1.0, half_width=3, delta_e=0.05, delta_omega=0.1)
        with pytest.warns(UserWarning, match="half_width raised"):
            h, _ = build_lattice(s)
        assert h.num_labels == 2 * required_half_width(s) + 1

    def test_flat_energies_rejected(self):
        s = LatticeScenario(beta=1.0, half_width=4, delta_e=1e-12, delta_omega=0.5)
        with pytest.raises(ValueError):
            required_half_width(s)

    @pytest.mark.parametrize(
        "params",
        [dict(delta_e=1e-12, delta_omega=0.5), dict(omega_0=1e300), dict(delta_e=0.0)],
    )
    def test_non_decay_refused_without_a_scan(self, params, monkeypatch):
        import hybridtherm.models as models

        scanned = []
        real = models.site_log_weight
        monkeypatch.setattr(
            models, "site_log_weight", lambda s, n: scanned.append(np.size(n)) or real(s, n)
        )
        s = LatticeScenario(beta=1.0, half_width=18, **{"delta_e": 0.15, **params})
        with pytest.raises(ValueError, match="do not decay within 10,000,000 sites"):
            required_half_width(s)
        # only the edge pair of each reachable span, 18 * 2**k for k = 0 .. 19
        assert scanned == [20, 20]

    def test_half_width_above_the_scan_cap_refused(self):
        s = LatticeScenario(beta=1.0, half_width=10**300, delta_e=0.15)
        with pytest.raises(ValueError, match="half_width exceeds 10,000,000"):
            required_half_width(s)

    @staticmethod
    def doubling_scan(s):
        """The scan that doubles its span until the edge decays, checked
        span by span."""
        span = max(s.half_width, 8)
        while True:
            lw = site_log_weight(s, np.arange(-span, span + 1))
            dec = lw[-2] - lw[-1]
            edge_ratio = np.exp(lw[-1] - lw.max())
            if dec > 0.05 and edge_ratio * np.exp(-dec) / (1 - np.exp(-dec)) < 0.1 * TAIL_WEIGHT:
                break
            span *= 2
        w = np.exp(lw - lw.max())
        left = np.cumsum(w[: span - 1])
        right = np.cumsum(w[: -span : -1])
        tails = np.concatenate([[0.0], left + right])
        over = np.flatnonzero(tails / w.sum() >= 0.9 * TAIL_WEIGHT)
        return (span - int(over[0]) if over.size else 0) + 1

    def test_same_half_width_as_the_doubling_scan(self):
        bundled = LatticeScenario(
            beta=1.0, half_width=18, omega_0=1.0, delta_omega=0.15, delta_e=0.15
        )
        assert required_half_width(bundled) == self.doubling_scan(bundled) == 13
        grid = [
            LatticeScenario(
                beta=beta, half_width=half, omega_0=omega_0, delta_omega=dw, delta_e=de
            )
            for beta in (0.3, 1.0, 3.0)
            for de in (1e-3, 0.02, 0.15, 1.0)
            for dw in (0.0, 0.15, -0.5, 2.0)
            for omega_0 in (0.0, -3.0)
            for half in (4, 18, 100)
        ]
        for s in grid:
            assert required_half_width(s) == self.doubling_scan(s), s


class TestLatticeStationary:
    def test_marginal_matches_closed_form(self):
        s = LatticeScenario(
            beta=1.0, half_width=14, omega_0=0.8, delta_omega=0.25, delta_e=0.3
        )
        h, gen = build_lattice(s)
        half = (h.num_labels - 1) // 2
        stat = stationary_state(gen)
        got = classical_marginal(stat)
        want = lattice_weights(s, half)
        assert np.max(np.abs(got - want) / want) < 1e-11

    def test_variants_share_the_fixed_point(self):
        s = LatticeScenario(
            beta=1.0, half_width=10, omega_0=0.6, delta_omega=0.3, delta_e=0.35
        )
        _, gen_a = build_lattice(s)
        _, gen_b = build_alt_lattice(s)
        a = stationary_state(gen_a)
        b = stationary_state(gen_b)
        assert hybrid_trace_distance(a, b) < 1e-9

    @pytest.mark.parametrize("half_width", [70, 150, 1000, 2500, 5000])
    def test_bundled_parameters_at_large_sizes(self, half_width):
        # the centre-to-edge weight ratio exp(0.15 N**2) leaves double range
        # from N = 70 on; tail weights may underflow, nothing may overflow
        s = LatticeScenario(
            beta=1.0, half_width=half_width, omega_0=1.0, delta_omega=0.15,
            delta_e=0.15,
        )
        with warnings.catch_warnings(), np.errstate(
            over="raise", invalid="raise", divide="raise"
        ):
            warnings.simplefilter("error")
            h, gen = build_lattice(s)
            got = classical_marginal(stationary_state(gen))
            want = lattice_weights(s, half_width)
        assert h.num_labels == 2 * half_width + 1
        normal = want > 1e-300
        assert np.max(np.abs(got[normal] - want[normal]) / want[normal]) < 1e-8
        assert np.max(got[~normal], initial=0.0) <= 1e-300

    def test_sites_axis(self):
        s = LatticeScenario(beta=1.0, half_width=7, delta_e=0.5, omega_0=1.0)
        h, _ = build_lattice(s)
        sites = lattice_sites(h)
        assert sites[0] == -(h.num_labels - 1) // 2
        assert sites[-1] == (h.num_labels - 1) // 2
        assert np.all(np.diff(sites) == 1)


class TestRateSplit:
    def test_hop_asymmetry_tracks_drift_force(self):
        # net right-minus-left escape rate approximates kappa * beta * f *
        # delta_x on each branch, up to the discreteness corrections
        from hybridtherm.continuum import ContinuumParams, drift_forces

        s = LatticeScenario(
            beta=1.0,
            half_width=12,
            omega_0=1.0,
            delta_omega=0.1,
            delta_e=0.02,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            h, gen = build_lattice(s)
        half = (h.num_labels - 1) // 2
        src, tgt, rate = (a.tolist() for a in gen.directed_transitions())
        rates = {(tuple(s), tuple(t)): r for s, t, r in zip(src, tgt, rate)}
        p = ContinuumParams(
            beta=s.beta,
            omega_0=s.omega_0,
            delta_omega=s.delta_omega,
            delta_e=s.delta_e,
            delta_x=s.delta_x,
        )
        kappa = s.kappa_plus
        for n in range(1, min(half - 1, 8)):
            c = n + half
            x = n * s.delta_x
            f_plus, f_minus = drift_forces(p, np.array([x]))
            for index, f in ((1, float(f_plus[0])), (0, float(f_minus[0]))):
                right = rates[((c, index), (c + 1, index))]
                left = rates[((c, index), (c - 1, index))]
                drift = kappa * s.beta * f * s.delta_x
                gap = (
                    s.delta_e * (2 * n + 1)
                    + (0.5 if index == 1 else -0.5) * s.delta_omega
                )
                bound = kappa * (
                    s.beta * s.delta_e + 0.5 * (s.beta * gap) ** 2
                )
                assert abs((right - left) - drift) <= bound + 1e-12
