import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from hybridtherm import cli, continuum, evolve
from hybridtherm.continuum import FieldState
from hybridtherm.evolve import (
    ExactPropagator,
    IntegratorConfig,
    NonConvergedError,
    StiffIntegrationError,
    _poisson_weights,
    converged_state,
    integrate,
    run_samples,
    trajectory_csv,
)
from hybridtherm.linalg import NonHermitianError
from hybridtherm.models import LatticeScenario, TlsScenario, build_lattice, build_tls
from hybridtherm.state import HybridState, hybrid_trace_distance
from hybridtherm.thermal import hybrid_thermal
from hybridtherm.verify import random_hybrid_state
from test_generator import random_generator

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def coherent_start(gen):
    """Pure superposition of the label-0 eigenstates, all mass in label 0."""
    d = gen.dim_s
    psi = gen.eigenvectors[0].sum(axis=1) / np.sqrt(d)
    blocks = np.zeros((gen.num_labels, d, d), dtype=complex)
    blocks[0] = np.outer(psi, psi.conj())
    return HybridState(blocks)


def outflow(gen, label, index):
    src, _, rate = gen.directed_transitions()
    return rate[(src == (label, index)).all(axis=1)].sum()


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

    def test_non_finite_sample_stops_the_run(self):
        seen = []

        def exact(y, interval, count):
            return np.full((count, *y.shape), np.nan)

        with pytest.raises(StiffIntegrationError, match="non-finite sample at t = 0.25"):
            run_samples(
                np.ones(3), IntegratorConfig(t_max=1.0), exact=exact, rhs=None,
                dt=0.1, sample_dt=0.25, stride=1, gap=lambda new, old: np.zeros(len(new)),
                record=seen.append,
            )
        assert len(seen) == 1

    def test_sample_grid_above_the_cap_is_refused(self):
        cap = evolve.MAX_SAMPLE_INTERVALS

        def exact(y, interval, count):
            raise AssertionError("stepped a refused grid")

        with pytest.raises(ValueError) as err:
            run_samples(
                np.ones(3), IntegratorConfig(t_max=2.0 * cap), exact=exact, rhs=None,
                dt=0.1, sample_dt=1.0, stride=1, gap=lambda new, old: np.zeros(len(new)),
                record=None,
            )
        assert str(err.value) == "sample grid of 2e+06 intervals exceeds the cap of 1,000,000"
        assert cap >= 5000  # the longest default grid

    def test_non_hermitian_start_rejected(self, rng):
        _, gen = build_tls(TlsScenario(beta=1.0, omega_a=2.0, omega_b=1.0))
        start = random_hybrid_state(rng, 2, 2)
        start.blocks[0, 0, 1] += 0.1
        for target in (None, hybrid_thermal(gen.hamiltonian, gen.beta)):
            with pytest.raises(NonHermitianError, match="initial state"):
                integrate(gen, start, IntegratorConfig(t_max=1.0), target=target)

    def test_shape_mismatch_rejected(self, rng):
        s = TlsScenario(beta=1.0, omega_a=2.0, omega_b=1.0)
        _, gen = build_tls(s)
        with pytest.raises(ValueError):
            integrate(
                gen, random_hybrid_state(rng, 3, 2), IntegratorConfig(t_max=1.0)
            )


def random_chain(rng, n, scale):
    """Edges (src, tgt, rate) of a random irreducible chain on n states."""
    src = np.concatenate([np.arange(n), np.arange(n)])
    tgt = np.concatenate([(np.arange(n) + 1) % n, rng.integers(0, n - 1, n)])
    tgt[n:] += tgt[n:] >= src[n:]  # no self-edges
    return src, tgt, scale * rng.random(2 * n)


def rate_matrix(src, tgt, rate, n):
    q = np.zeros((n, n))
    np.add.at(q, (tgt, src), rate)
    q[np.arange(n), np.arange(n)] -= np.bincount(src, rate, minlength=n)
    return q


class TestExactPropagator:
    def test_default_method_is_exact(self):
        assert IntegratorConfig(t_max=1.0).method == "exact"

    @pytest.mark.parametrize("field", ["t_max", "dt", "sample_dt"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_config_rejects_bad_intervals(self, field, value):
        with pytest.raises(ValueError, match=field):
            IntegratorConfig(**{"t_max": 1.0, field: value})

    def test_matches_dense_exponential(self, rng):
        n = 7
        src, tgt, rate = random_chain(rng, n, 3.0)
        outflow = np.bincount(src, rate, minlength=n)
        mult = -rng.random(n) - 1j * rng.normal(size=n)
        prop = ExactPropagator(src, tgt, rate, n, mult)
        p = rng.random(n)
        p /= p.sum()
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        for dt in (0.3, 2.0, 0.3):
            got_p, got_c = prop(p, c, dt)
            want = expm(dt * rate_matrix(src, tgt, rate, n)) @ p
            assert np.max(np.abs(got_p - want)) < 1e-14
            assert np.array_equal(got_c, c * np.exp(dt * mult))
        # one plan per distinct interval
        assert sorted(prop._plans) == [0.3, 2.0]

    def test_integrate_builds_at_most_two_plans(self, rng, monkeypatch):
        # 0.3 is not dyadic: t + 0.3 - t wanders in its last bits, but only
        # the full interval and the shorter last one get weights
        intervals = set()
        plan = ExactPropagator._plan

        def spy(self, dt):
            intervals.add(dt)
            return plan(self, dt)

        monkeypatch.setattr(ExactPropagator, "_plan", spy)
        _, gen = build_tls(TlsScenario(beta=1.0, omega_a=2.0, omega_b=1.0))
        cfg = IntegratorConfig(t_max=31.0, sample_dt=0.3, convergence_tol=0.0)
        integrate(gen, random_hybrid_state(rng, 2, 2), cfg)
        assert len(intervals) == 2 and 0.3 in intervals

    def test_interval_past_weight_underflow(self, rng):
        # Lambda * dt = 3000: exp(-3000) is 0, so one unsplit Poisson series
        # would have all-zero weights; the interval is split instead
        n = 6
        src, tgt, rate = random_chain(rng, n, 1.0)
        rate[np.argmax(rate)] = 300.0
        outflow = np.bincount(src, rate, minlength=n)
        dt = 3000.0 / outflow.max()
        assert math.exp(-outflow.max() * dt) == 0.0
        prop = ExactPropagator(src, tgt, rate, n, np.zeros(n))
        p = np.full(n, 1.0 / n)
        got, _ = prop(p, np.zeros(n), dt)
        want = expm(dt * rate_matrix(src, tgt, rate, n)) @ p
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) < 1e-13
        assert abs(got.sum() - 1.0) < 1e-13

    def test_poisson_weights(self):
        for mean in (0.0, 0.5, 30.0, 400.0):
            w = _poisson_weights(mean)
            assert abs(w.sum() - 1.0) < 1e-15
            assert np.all(w >= 0.0)
            # the dropped tail is below the tolerance: the last kept weight
            # sits past the mean
            assert w.size - 1 >= mean
        assert _poisson_weights(0.0).tolist() == [1.0]
        with pytest.raises(ValueError):
            _poisson_weights(np.nan)
        # a norm above one keeps more terms
        assert _poisson_weights(5.0, 1.4).size > _poisson_weights(5.0).size

    def test_non_finite_propagator_is_named(self, rng):
        s = TlsScenario(beta=1.0, omega_a=2.0, omega_b=1.0)
        _, gen = build_tls(s)
        gen._multiplier[0, 0, 0] = np.nan
        with pytest.raises(StiffIntegrationError, match="non-finite exact propagator"):
            integrate(gen, random_hybrid_state(rng, 2, 2), IntegratorConfig(t_max=1.0))
        start = random_hybrid_state(rng, 2, 2)
        start.blocks[1, 0, 1] = np.inf
        _, gen = build_tls(s)
        for method in ("exact", "rk45"):
            with pytest.raises(StiffIntegrationError, match="non-finite initial state"):
                integrate(gen, start, IntegratorConfig(t_max=1.0, method=method))
        src, tgt, rate = random_chain(rng, 4, 1.0)
        rate[0] = np.inf
        with pytest.raises(StiffIntegrationError, match="non-finite exact propagator"):
            ExactPropagator(src, tgt, rate, 4, np.zeros(4))

    def test_rk_oracles_agree(self, rng):
        # test_rk4_matches_rk45 runs the default method, now exact, against
        # rk4; the two RK oracles are also held to each other
        _, gen = build_tls(TlsScenario(beta=1.0, omega_a=2.0, omega_b=1.0))
        start = random_hybrid_state(rng, 2, 2)
        finals = [
            integrate(
                gen, start,
                IntegratorConfig(t_max=5.0, method=method, dt=0.002, sample_dt=1.0,
                                 convergence_tol=0.0),
            ).final_state
            for method in ("rk45", "rk4")
        ]
        assert hybrid_trace_distance(*finals) < 1e-8

    def test_matches_rk45_sample_by_sample(self, rng):
        s = LatticeScenario(beta=1.0, half_width=9, omega_0=1.0, delta_omega=0.5, delta_e=0.5)
        h, gen = build_lattice(s)
        start = random_hybrid_state(rng, h.num_labels, h.dim_s)
        runs = {
            method: integrate(
                gen,
                start,
                IntegratorConfig(
                    t_max=20.0, method=method, sample_dt=1.0, rel_tol=1e-12,
                    abs_tol=1e-15, convergence_tol=0.0, record_eigenbasis=True,
                ),
            )
            for method in ("exact", "rk45")
        }
        a, b = runs["exact"], runs["rk45"]
        assert np.array_equal(a.times, b.times)
        assert np.max(np.abs(a.eig_populations - b.eig_populations)) < 1e-10
        assert np.max(np.abs(a.eig_coherences - b.eig_coherences)) < 1e-10
        assert hybrid_trace_distance(a.final_state, b.final_state) < 1e-10


class TestDenseRoute:
    """The cached dense exp(dt Q) against the edge-list series."""

    def test_both_routes_match_dense_exponential(self, rng):
        # one chain: a short interval keeps the series (few terms), a long
        # one takes the dense build (many terms)
        n = 400
        src, tgt, rate = random_chain(rng, n, 1.0)
        prop = ExactPropagator(src, tgt, rate, n, np.zeros(n))
        q = rate_matrix(src, tgt, rate, n)
        p = rng.random(n)
        p /= p.sum()
        for dt, route in ((0.02, "series"), (30.0, "dense")):
            got, _ = prop(p, np.zeros(n), dt)
            assert isinstance(prop._plans[dt][0], np.ndarray) == (route == "dense")
            assert np.max(np.abs(got - expm(dt * q) @ p)) < 1e-14
        # above the size cap only the series runs
        n = evolve._DENSE_MAX_STATES + 1
        src, tgt, rate = random_chain(rng, n, 1.0)
        prop = ExactPropagator(src, tgt, rate, n, np.zeros(n))
        assert prop._plan(30.0)[0] is None

    @staticmethod
    def run_bundled(name, monkeypatch=None):
        if monkeypatch is not None:  # series only
            monkeypatch.setattr(evolve, "_DENSE_MAX_STATES", 0)
        scenario = cli.load_scenario(str(SCENARIOS / f"{name}.json"))
        cfg = IntegratorConfig(**scenario["integrator"])
        if name == "fokker_planck":
            _, evo = cli.build_continuum(scenario)
            return evo.integrate(evo.polarized_fields(), cfg)
        h, gen = cli.build_discrete(scenario)
        start = cli._initial_discrete(scenario, h, gen, scenario["beta"], None)
        cfg = dataclasses.replace(cfg, record_eigenbasis=True)
        return integrate(gen, start, cfg, target=hybrid_thermal(h, scenario["beta"]))

    def test_bundled_runs_take_the_dense_route(self):
        for name, dt in (("lattice", 1.0), ("fokker_planck", 2.0), ("tls", 0.5)):
            scenario = cli.load_scenario(str(SCENARIOS / f"{name}.json"))
            if name == "fokker_planck":
                _, evo = cli.build_continuum(scenario)
                src, tgt, rate = evo.population_edges()
                n = 2 * evo.x.size
            else:
                _, gen = cli.build_discrete(scenario)
                src, tgt, rate = gen._src, gen._tgt, gen._rate
                n = gen.num_labels * gen.dim_s
            plan = ExactPropagator(src, tgt, rate, n, np.zeros(n))._plan(dt)
            assert isinstance(plan[0], np.ndarray)

    def test_lattice_dense_matches_series_sample_by_sample(self, monkeypatch):
        dense = self.run_bundled("lattice")
        series = self.run_bundled("lattice", monkeypatch)
        assert np.array_equal(dense.times, series.times) and dense.times[-1] == 140.0
        for name in ("eig_populations", "eig_coherences", "classical", "entropy",
                     "dist_to_target", "min_eigenvalue", "total_trace"):
            assert np.max(np.abs(getattr(dense, name) - getattr(series, name))) < 1e-12

    def test_fokker_planck_dense_matches_series_sample_by_sample(self, monkeypatch):
        dense = self.run_bundled("fokker_planck")
        series = self.run_bundled("fokker_planck", monkeypatch)
        assert np.array_equal(dense.times, series.times) and dense.times[-1] == 1064.0
        for name in ("total_mass", "min_conditional_eig"):
            assert np.max(np.abs(getattr(dense, name) - getattr(series, name))) < 1e-12
        for name in ("p_plus", "p_minus", "c_plus", "c_minus"):
            got, want = getattr(dense.final, name), getattr(series.final, name)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_fokker_planck_keeps_mass_to_rounding(self):
        # the series drifts to 8.7e-13 over the run; the renormalized
        # dense columns hold the mass at every sample
        traj = self.run_bundled("fokker_planck")
        assert np.max(np.abs(traj.total_mass - 1.0)) < 1e-13


def spy_records(monkeypatch, module=evolve):
    """Copies of the stacks that integrate's run_samples hands to record."""
    stacks = []
    real = module.run_samples

    def spy(y, cfg, *, record, **kwargs):
        def keep(stack):
            stacks.append(stack.copy())
            record(stack)

        return real(y, cfg, record=keep, **kwargs)

    monkeypatch.setattr(module, "run_samples", spy)
    return stacks


class TestEigenbasisRecords:
    """Records taken in the eigenbases, against eigvalsh in the original basis."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_records_match_eigvalsh(self, rng, monkeypatch, dim):
        h, gen = random_generator(rng, num_labels=3, dim=dim, num_pairs=8)
        target = hybrid_thermal(h, gen.beta)
        stacks = spy_records(monkeypatch)
        cfg = IntegratorConfig(
            t_max=6.0, sample_dt=0.25, convergence_tol=0.0, record_eigenbasis=True
        )
        traj = integrate(gen, random_hybrid_state(rng, 3, dim), cfg, target=target)
        s = np.concatenate(stacks)
        v = gen.eigenvectors
        y = v @ s @ v.conj().transpose(0, 2, 1)
        assert y.shape == (traj.times.size, 3, dim, dim)
        w = np.linalg.eigvalsh(y)
        wlogw = np.where(w > 0.0, w * np.log(np.where(w > 0.0, w, 1.0)), 0.0)
        want = {
            "total_trace": np.einsum("kcii->k", y).real,
            "classical": np.einsum("kcii->kc", y).real,
            "entropy": -wlogw.sum(axis=(1, 2)),
            "min_eigenvalue": w.min(axis=(1, 2)),
            "dist_to_target": [hybrid_trace_distance(HybridState(b), target) for b in y],
            "eig_populations": np.einsum("kcii->kci", s).real,
        }
        for name, value in want.items():
            assert np.max(np.abs(getattr(traj, name) - value)) < 1e-12, name
        upper, lower = np.triu_indices(dim, 1)
        assert np.array_equal(traj.eig_coherences, s[:, :, lower, upper])
        assert np.max(np.abs(traj.final_state.blocks - y[-1])) < 1e-15
        assert np.min(w) > -1e-12 and np.max(np.abs(want["total_trace"] - 1.0)) < 1e-12


class TestRecordBlocks:
    """Runs that end at, one sample before and one after a block boundary
    record exactly what one record call over the whole run records."""

    FIELDS = ("times", "total_trace", "entropy", "classical", "min_eigenvalue",
              "dist_to_target")

    def run(self, monkeypatch, block, cfg):
        _, gen = cli.build_discrete(cli.load_scenario(str(SCENARIOS / "tls.json")))
        start = coherent_start(gen)
        monkeypatch.setattr(evolve, "_RECORD_BYTES", block * start.blocks.nbytes)
        with monkeypatch.context() as patch:
            stacks = spy_records(patch)
            traj = integrate(gen, start, cfg, target=hybrid_thermal(gen.hamiltonian, gen.beta))
        return traj, [len(stack) for stack in stacks]

    def assert_same(self, traj, whole):
        for name in self.FIELDS:
            assert np.array_equal(getattr(traj, name), getattr(whole, name)), name
        assert np.array_equal(traj.final_state.blocks, whole.final_state.blocks)
        assert traj.converged_time == whole.converged_time

    @pytest.mark.parametrize("intervals, sizes", [(7, [4, 4]), (6, [4, 3]), (8, [4, 4, 1])])
    def test_stop_at_t_max(self, monkeypatch, intervals, sizes):
        cfg = IntegratorConfig(t_max=0.5 * intervals, sample_dt=0.5, convergence_tol=0.0)
        whole, one = self.run(monkeypatch, 10**6, cfg)
        assert one == [intervals + 1] and not whole.converged
        traj, got = self.run(monkeypatch, 4, cfg)
        assert got == sizes
        self.assert_same(traj, whole)

    @pytest.mark.parametrize("block, sizes", [(55, [55]), (56, [55]), (54, [54, 1])])
    def test_monitor_stop(self, monkeypatch, block, sizes):
        cfg = IntegratorConfig(t_max=200.0, sample_dt=0.5, convergence_tol=1e-10)
        whole, one = self.run(monkeypatch, 10**6, cfg)
        assert whole.converged and whole.converged_time == 27.0 and one == [55]
        traj, got = self.run(monkeypatch, block, cfg)
        assert got == sizes
        self.assert_same(traj, whole)

    @pytest.mark.parametrize("block, sizes", [(533, [533]), (534, [533]), (532, [532, 1])])
    def test_fokker_planck_monitor_stop(self, monkeypatch, block, sizes):
        scenario = cli.load_scenario(str(SCENARIOS / "fokker_planck.json"))
        _, evo = cli.build_continuum(scenario)
        cfg = IntegratorConfig(**scenario["integrator"])
        start = evo.polarized_fields()
        whole = evo.integrate(start, cfg)
        assert whole.converged and whole.times.size == 533
        monkeypatch.setattr(evolve, "_RECORD_BYTES", block * start.pack().nbytes)
        stacks = spy_records(monkeypatch, continuum)
        traj = evo.integrate(start, cfg)
        assert [len(stack) for stack in stacks] == sizes
        for name in ("times", "total_mass", "min_conditional_eig"):
            assert np.array_equal(getattr(traj, name), getattr(whole, name)), name
        # the stacked records are the per-sample methods
        fields = [FieldState.unpack(y) for y in stacks[0]]
        k = len(fields)
        mass = [(f.p_plus + f.p_minus).sum() * evo.h for f in fields]
        assert np.array_equal(traj.total_mass[:k], mass)
        assert np.array_equal(traj.min_conditional_eig[:k], [evo.min_conditional_eig(f) for f in fields])

    def test_non_finite_sample_flushes_what_came_before(self, monkeypatch):
        monkeypatch.setattr(evolve, "_RECORD_BYTES", 4 * 24)
        seen = []

        def exact(y, interval, count):
            stack = y + np.arange(1.0, count + 1.0)[:, None]
            stack[stack[:, 0] > 5.0] = np.inf
            return stack

        with pytest.raises(StiffIntegrationError, match="non-finite sample at t = 6"):
            run_samples(
                np.zeros(3), IntegratorConfig(t_max=10.0), exact=exact, rhs=None,
                dt=0.1, sample_dt=1.0, stride=1, gap=lambda new, old: np.ones(len(new)),
                record=seen.append,
            )
        assert [stack[:, 0].tolist() for stack in seen] == [[0, 1, 2, 3], [4, 5]]

    def test_one_sample_per_block_past_the_byte_cap(self):
        seen = []
        y = np.zeros(evolve._RECORD_BYTES // 8 + 1)
        run_samples(
            y, IntegratorConfig(t_max=2.0), exact=lambda y, dt, count: np.stack([y] * count),
            rhs=None, dt=0.1, sample_dt=1.0, stride=1, gap=lambda new, old: np.ones(len(new)),
            record=seen.append,
        )
        assert [stack.shape for stack in seen] == [(1, y.size)] * 3


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


def per_sample_loop(y, cfg, *, exact, rhs, dt, sample_dt, stride, gap, record):
    """run_samples for the exact method one sample at a time (stacks of one),
    the reference the stacked loop must reproduce."""
    samples = [y]
    passes, last_gap = 0, math.inf
    k = 0
    while k * sample_dt < cfg.t_max - 1e-12 * cfg.t_max:
        y = exact(y, min(sample_dt, cfg.t_max - k * sample_dt), 1)[0]
        k += 1
        assert np.isfinite(y).all()
        samples.append(y)
        if k >= stride:
            last_gap = float(gap(y[None], samples[k - stride][None])[0])
            passes = passes + 1 if last_gap < cfg.convergence_tol else 0
            if passes >= cfg.convergence_window:
                break
    record(np.stack(samples))
    times = np.minimum(np.arange(k + 1) * sample_dt, cfg.t_max)
    return y, times, passes >= cfg.convergence_window, last_gap


class TestSampleStacks:
    """The stacked sample loop against the per-sample reference and at the
    edges of its stacks."""

    @pytest.mark.parametrize("name", ["tls", "lattice", "fokker_planck"])
    def test_bundled_runs_match_the_per_sample_loop(self, monkeypatch, name):
        module = continuum if name == "fokker_planck" else evolve
        stacked = TestDenseRoute.run_bundled(name)
        monkeypatch.setattr(module, "run_samples", per_sample_loop)
        single = TestDenseRoute.run_bundled(name)
        assert stacked.converged and single.converged
        assert np.array_equal(stacked.times, single.times)
        if name == "fokker_planck":
            columns = ("total_mass", "min_conditional_eig")
            finals = [(getattr(stacked.final, f), getattr(single.final, f))
                      for f in ("p_plus", "p_minus", "c_plus", "c_minus")]
            assert stacked.last_population_change == single.last_population_change
        else:
            columns = ("total_trace", "entropy", "classical", "min_eigenvalue",
                       "dist_to_target", "eig_populations", "eig_coherences")
            finals = [(stacked.final_state.blocks, single.final_state.blocks)]
            assert stacked.converged_time == single.converged_time
        for column in columns:
            got, want = getattr(stacked, column), getattr(single, column)
            assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-15, column
        for got, want in finals:
            assert np.max(np.abs(got - want)) <= 1e-15

    @staticmethod
    def counting_run(seen, fire, stride=1, bad=None, window=3):
        """Samples 0, 1, 2, ... whose gaps sit below tolerance exactly on the
        window samples ending at `fire`; sample `bad` is NaN."""

        def exact(y, interval, count):
            stack = y + np.arange(1.0, count + 1.0)[:, None]
            stack[stack[:, 0] == bad] = np.nan
            return stack

        def gap(new, old):
            assert np.all(np.isfinite(new)) and np.all(new - old == stride)
            j = new[:, 0]
            return np.where((fire - window < j) & (j <= fire), 0.5, 2.0)

        cfg = IntegratorConfig(t_max=100.0, convergence_tol=1.0, convergence_window=window)
        return run_samples(
            np.zeros(1), cfg, exact=exact, rhs=None, dt=0.1, sample_dt=1.0,
            stride=stride, gap=gap, record=seen.append,
        )

    # stacks of 4, 8, 16, ... samples after the start: 1-4, 5-12, 13-28;
    # with stride 3 they hold 6, 12, ...: 1-6, 7-18
    @pytest.mark.parametrize("fire, stride", [
        (3, 1),    # the earliest sample the monitor can fire on
        (4, 1),    # the last sample of the first stack
        (5, 1),    # the first sample of a stack, its window across the boundary
        (6, 1),    # a window across the boundary
        (8, 1),    # the middle of a stack
        (12, 1),   # the last sample of a stack
        (13, 1),
        (7, 3),    # first of a stack, compared with samples of the stack before
        (9, 3),
    ])
    def test_monitor_fires_on_its_sample(self, fire, stride):
        seen = []
        y, times, converged, last_gap = self.counting_run(seen, fire, stride)
        assert converged and y[0] == fire and last_gap == 0.5
        assert np.array_equal(times, np.arange(fire + 1.0))
        assert len(seen) == 1 and seen[0][:, 0].tolist() == list(range(fire + 1))

    def test_monitor_that_never_fires_runs_to_t_max(self):
        seen = []
        y, times, converged, last_gap = self.counting_run(seen, fire=1000)
        assert not converged and y[0] == 100.0 and last_gap == 2.0
        assert np.array_equal(times, np.arange(101.0))
        assert np.concatenate(seen)[:, 0].tolist() == list(range(101))

    @pytest.mark.parametrize("bad", [1, 4, 5, 7, 12])
    def test_non_finite_sample_flushes_the_samples_before(self, bad):
        # 7 sits in the middle of the stack 5-12, 5 and 12 at its ends
        seen = []
        with pytest.raises(StiffIntegrationError, match=f"non-finite sample at t = {bad}$"):
            self.counting_run(seen, fire=1000, bad=bad)
        assert len(seen) == 1 and seen[0][:, 0].tolist() == list(range(bad))

    def test_exact_sample_times(self, rng):
        _, gen = build_tls(TlsScenario(beta=1.0, omega_a=2.0, omega_b=1.0))
        for t_max, count in ((7.25, 73), (1.0, 10)):
            cfg = IntegratorConfig(t_max=t_max, sample_dt=0.1, convergence_tol=0.0)
            traj = integrate(gen, random_hybrid_state(rng, 2, 2), cfg)
            assert np.array_equal(traj.times, np.minimum(np.arange(count + 1) * 0.1, t_max))
        # repeated addition would have ended at 0.9999999999999999
        assert traj.times[-1] == 1.0

    def test_rk45_makes_as_many_rhs_calls_as_one_sample_per_call(self, monkeypatch):
        calls = []
        real = evolve.apply
        monkeypatch.setattr(evolve, "apply", lambda *args: calls.append(1) or real(*args))
        scenario = cli.load_scenario(str(SCENARIOS / "tls.json"))
        h, gen = cli.build_discrete(scenario)
        start = cli._initial_discrete(scenario, h, gen, scenario["beta"], None)
        cfg = IntegratorConfig(**{**scenario["integrator"], "method": "rk45"})
        traj = integrate(gen, start, cfg)
        # the count of the loop that stepped one sample per call
        assert traj.converged and traj.times.size == 55 and len(calls) == 3437

    def test_models_hold_their_propagator(self, monkeypatch):
        builds = []
        dense = ExactPropagator._dense
        monkeypatch.setattr(
            ExactPropagator, "_dense", lambda self, *a: builds.append(1) or dense(self, *a)
        )
        _, gen = cli.build_discrete(cli.load_scenario(str(SCENARIOS / "tls.json")))
        scenario = cli.load_scenario(str(SCENARIOS / "fokker_planck.json"))
        _, evo = cli.build_continuum(scenario)
        cfg = IntegratorConfig(**scenario["integrator"])
        for _ in range(2):
            integrate(gen, coherent_start(gen), IntegratorConfig(t_max=40.0, sample_dt=0.5))
            evo.integrate(evo.polarized_fields(), cfg)
        assert len(builds) == 2
