import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from hybridtherm import cli
from hybridtherm.continuum import (
    ContinuumParams,
    FieldState,
    FokkerPlanckEvolution,
    _bernoulli,
    closed_form_normalization,
    continuum_profile,
    drift_forces,
    expected_peak_offset,
    find_peaks,
    gaussian_envelope,
    shifted_potentials,
    weight_density,
)
from hybridtherm.evolve import IntegratorConfig, StiffIntegrationError
from hybridtherm.generator import DegenerateStationaryError
from hybridtherm.models import LatticeScenario


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def make_params(ratio, beta_de=0.01, beta_w0=0.0):
    return ContinuumParams(
        beta=1.0,
        omega_0=beta_w0,
        delta_omega=ratio * beta_de,
        delta_e=beta_de,
        delta_x=1.0,
    )


class TestNormalization:
    def test_closed_form_against_quadrature(self):
        for ratio in (0.5, 5.0, 20.0, 40.0):
            for beta_w0 in (0.0, 0.3):
                p = make_params(ratio, beta_w0=beta_w0)
                z = closed_form_normalization(p)

                def integrand(x, p=p):
                    return gaussian_envelope(p, np.array([x]))[0] * np.cosh(
                        0.5 * p.beta * p.splitting(np.array([x]))[0]
                    )

                cut = expected_peak_offset(p) + 8.0 / np.sqrt(
                    p.beta * p.delta_e
                )
                # the splitting has a kink at the origin, tell quad about it
                direct, err = quad(
                    integrand,
                    -cut,
                    cut,
                    limit=400,
                    points=[0.0],
                    epsabs=1e-12,
                    epsrel=1e-12,
                )
                assert err < 1e-9 * direct
                assert abs(z - direct) < 1e-8 * direct

    def test_weight_density_normalized(self):
        p = make_params(40.0)

        def w(x):
            return weight_density(p, np.array([x]))[0]

        cut = expected_peak_offset(p) + 8.0 / np.sqrt(p.beta * p.delta_e)
        total, _ = quad(w, -cut, cut, limit=400)
        assert abs(total - 1.0) < 1e-8

    def test_no_splitting_reduces_to_gaussian(self):
        p = ContinuumParams(
            beta=1.0, omega_0=0.0, delta_omega=0.0, delta_e=0.02, delta_x=1.0
        )
        x = np.linspace(-20, 20, 401)
        assert np.max(np.abs(weight_density(p, x) - gaussian_envelope(p, x))) < 1e-14


class TestProfileShape:
    def test_modality_by_ratio(self):
        assert continuum_profile(make_params(0.5)).modality == "unimodal"
        assert continuum_profile(make_params(5.0)).modality == "unimodal"
        assert continuum_profile(make_params(40.0)).modality == "bimodal"

    def test_threshold_crossing(self):
        # curvature at the origin flips sign at (beta dw)^2 = 8 beta dE;
        # at beta dE = 0.01 that is a ratio just above 28
        assert continuum_profile(make_params(28.0)).modality == "unimodal"
        assert continuum_profile(make_params(29.0)).modality == "bimodal"

    def test_bimodal_peaks_near_expected_offset(self):
        p = make_params(40.0)
        prof = continuum_profile(p, num_points=8001)
        want = expected_peak_offset(p)
        assert len(prof.peaks) == 2
        for peak, sign in zip(sorted(prof.peaks), (-1, 1)):
            assert abs(peak - sign * want) < 0.05 * want

    def test_weight_splits_into_shifted_potentials(self):
        # w(x) is proportional to exp(-beta V+) + exp(-beta V-) pointwise
        p = make_params(40.0)
        x = np.linspace(-30, 30, 501)
        vp, vm = shifted_potentials(p, x)
        split = np.exp(-p.beta * vp) + np.exp(-p.beta * vm)
        w = weight_density(p, x)
        ratio = w / split
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-12

    def test_forces_are_potential_gradients(self):
        p = make_params(20.0)
        x = np.linspace(0.5, 25.0, 200)  # stay off the kink at the origin
        fp, fm = drift_forces(p, x)
        eps = 1e-6
        vp_hi, vm_hi = shifted_potentials(p, x + eps)
        vp_lo, vm_lo = shifted_potentials(p, x - eps)
        assert np.max(np.abs(fp + (vp_hi - vp_lo) / (2 * eps))) < 1e-6
        assert np.max(np.abs(fm + (vm_hi - vm_lo) / (2 * eps))) < 1e-6

    def test_kink_average_at_origin(self):
        # sign(0) = 0 makes the origin force the mean of the side limits
        p = make_params(20.0)
        fp0, _ = drift_forces(p, np.array([0.0]))
        left, _ = drift_forces(p, np.array([-1e-9]))
        right, _ = drift_forces(p, np.array([1e-9]))
        assert abs(fp0[0] - 0.5 * (left[0] + right[0])) < 1e-6

    def test_find_peaks_refines_with_parabola(self):
        x = np.linspace(-1, 1, 41)
        y = -((x - 0.013) ** 2)
        (peak,) = find_peaks(x, y)
        assert abs(peak - 0.013) < 1e-12

    def test_smooth_regime_warning(self):
        p = ContinuumParams(
            beta=1.0, omega_0=0.0, delta_omega=0.1, delta_e=0.5, delta_x=1.0
        )
        with pytest.warns(UserWarning):
            p.check_smooth()

    def test_from_lattice(self):
        s = LatticeScenario(
            beta=2.0, half_width=5, omega_0=0.7, delta_omega=0.2, delta_e=0.05
        )
        p = ContinuumParams.from_lattice(s)
        assert p.beta == 2.0
        assert p.delta_e == 0.05
        assert p.delta_omega == 0.2
        assert p.delta_x == s.delta_x


class TestFokkerPlanck:
    def test_mass_conserved(self):
        p = make_params(40.0)
        x = np.linspace(-25, 25, 201)
        evo = FokkerPlanckEvolution(p, x, gamma=1.0, kappa_th=1.0)
        cfg = IntegratorConfig(t_max=30.0, sample_dt=3.0, convergence_tol=0.0)
        traj = evo.integrate(evo.polarized_fields(), cfg)
        assert np.max(np.abs(traj.total_mass - traj.total_mass[0])) < 1e-12

    def test_ou_stationary_is_thermal(self):
        # with no splitting the stationary density is the plain Gaussian,
        # and the fitted stencil's fixed point is it to rounding
        p = ContinuumParams(
            beta=1.0, omega_0=0.0, delta_omega=0.0, delta_e=0.05, delta_x=1.0
        )
        for points in (101, 201):
            x = np.linspace(-16, 16, points)
            evo = FokkerPlanckEvolution(p, x, gamma=1.0, kappa_th=1.0)
            pp, pm = evo.stationary_populations()
            exact = gaussian_envelope(p, x)
            exact = exact / (exact.sum() * evo.h)
            assert np.max(np.abs((pp + pm) - exact)) < 1e-12 * exact.max()

    @pytest.mark.parametrize("points", [151, 301, 601])
    def test_fixed_point_is_thermal_fields(self, points):
        # each channel's fitted hops balance exp(-beta V) and the flips
        # balance the local thermal populations, so the grid fixed point is
        # thermal_fields() whatever the spacing
        p = ContinuumParams(beta=1.0, delta_omega=0.4, delta_e=0.01, delta_x=1.0)
        evo = FokkerPlanckEvolution(p, np.linspace(-20, 20, points), gamma=1.0)
        pp, pm = evo.stationary_populations()
        target = evo.thermal_fields()
        peak = max(target.p_plus.max(), target.p_minus.max())
        assert np.max(np.abs(pp - target.p_plus)) < 1e-12 * peak
        assert np.max(np.abs(pm - target.p_minus)) < 1e-12 * peak
        assert abs((pp + pm).sum() * evo.h - 1.0) < 1e-14

    def test_no_flips_has_no_unique_fixed_point(self):
        # kappa_th = 0 leaves the two channels as separate closed classes
        p = make_params(40.0)
        evo = FokkerPlanckEvolution(p, np.linspace(-25, 25, 101), gamma=1.0, kappa_th=0.0)
        with pytest.raises(DegenerateStationaryError):
            evo.stationary_populations()

    def test_fitted_rates_are_non_negative_and_balanced(self):
        p = make_params(40.0)
        x = np.linspace(-25, 25, 101)
        evo = FokkerPlanckEvolution(p, x, gamma=0.7)
        src, tgt, rate = evo.population_edges()
        assert np.all(rate >= 0.0)
        m = x.size
        vp, vm = shifted_potentials(p, x)
        v = np.concatenate([vp, vm])
        hop = (src < m) == (tgt < m)
        fwd = hop & (tgt == src + 1)
        bwd = np.flatnonzero(hop & (tgt == src - 1))
        # the rate of i -> i+1 over that of i+1 -> i is exp(-beta dV)
        ratio = rate[fwd] / rate[bwd]
        want = np.exp(-p.beta * (v[tgt[fwd]] - v[src[fwd]]))
        assert np.max(np.abs(ratio / want - 1.0)) < 1e-13

    def test_bernoulli_past_the_float_range(self):
        z = np.array([-1e300, -800.0, -1e-20, 0.0, 1e-20, 1.0, 800.0, 1e300, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _bernoulli(z)
        want = [1e300, 800.0, 1.0, 1.0, 1.0, 1.0 / (math.e - 1.0), 800.0 * math.exp(-800.0), 0.0]
        assert got[:-1] == pytest.approx(want, rel=1e-15, abs=0.0)
        assert math.isnan(got[-1])
        # B(-z) = B(z) + z
        w = np.linspace(-30, 30, 61)
        assert np.max(np.abs(_bernoulli(-w) - _bernoulli(w) - w)) < 1e-13

    def test_bimodal_stationary_peaks(self):
        p = make_params(40.0)
        x = np.linspace(-30, 30, 401)
        evo = FokkerPlanckEvolution(p, x, gamma=1.0, kappa_th=1.0)
        pp, pm = evo.stationary_populations()
        total = pp + pm
        peaks = find_peaks(x, total)
        want = continuum_profile(p, x_max=30.0, num_points=401).peaks
        assert len(peaks) == 2
        h = x[1] - x[0]
        for got, ref in zip(sorted(peaks), sorted(want)):
            assert abs(got - ref) < h

    def test_integration_reaches_stationary(self):
        p = make_params(40.0, beta_de=0.05)
        x = np.linspace(-12, 12, 121)
        evo = FokkerPlanckEvolution(p, x, gamma=1.0, kappa_th=1.0)
        pp, pm = evo.stationary_populations()
        cfg = IntegratorConfig(t_max=400.0, sample_dt=5.0, convergence_tol=1e-10)
        traj = evo.integrate(evo.polarized_fields(), cfg)
        assert traj.converged
        assert np.max(np.abs(traj.final.p_plus.real - pp)) < 1e-7
        assert np.max(np.abs(traj.final.p_minus.real - pm)) < 1e-7

    def test_thermal_fields_near_stationary(self):
        # continuum thermal target differs from the grid fixed point by
        # the discretization error only
        p = make_params(40.0)
        x = np.linspace(-25, 25, 201)
        evo = FokkerPlanckEvolution(p, x, gamma=1.0, kappa_th=1.0)
        pp, pm = evo.stationary_populations()
        target = evo.thermal_fields()
        h = x[1] - x[0]
        assert np.max(np.abs(pp - target.p_plus)) < 0.05 * h**2
        assert np.max(np.abs(pm - target.p_minus)) < 0.05 * h**2

    def test_coherence_literal_decay_rate(self):
        # each point decays at (gamma_down + gamma_up + gamma) / 2 and
        # rotates at the local splitting, with no spatial coupling
        p = make_params(10.0, beta_de=0.05, beta_w0=0.4)
        x = np.linspace(-10, 10, 101)
        evo = FokkerPlanckEvolution(p, x, gamma=0.7, kappa_th=0.9)
        f0 = evo.coherent_fields()
        t_max = 2.0
        cfg = IntegratorConfig(t_max=t_max, sample_dt=t_max, convergence_tol=0.0)
        traj = evo.integrate(f0, cfg)
        omega = p.splitting(x)
        decay = 0.5 * (evo.gamma_down + evo.gamma_up + evo.gamma)
        want_plus = f0.c_plus * np.exp((-1j * omega - decay) * t_max)
        want_minus = f0.c_minus * np.exp((+1j * omega - decay) * t_max)
        assert np.max(np.abs(traj.final.c_plus - want_plus)) < 1e-6
        assert np.max(np.abs(traj.final.c_minus - want_minus)) < 1e-6

    def test_negativity_is_recorded_not_rejected(self):
        # the field equations do not protect positivity; the monitor must
        # report a locally non-positive state and keep integrating
        p = make_params(10.0, beta_de=0.05)
        x = np.linspace(-10, 10, 101)
        evo = FokkerPlanckEvolution(p, x, gamma=1.0, kappa_th=1.0)
        f = evo.coherent_fields()
        f.c_plus = f.c_plus * 1.5  # push |c| past sqrt(p+ p-)
        assert evo.min_conditional_eig(f) < -1e-6
        cfg = IntegratorConfig(t_max=1.0, sample_dt=0.1, convergence_tol=0.0)
        traj = evo.integrate(f, cfg)
        assert traj.min_conditional_eig[0] < -1e-6
        assert np.all(np.isfinite(traj.total_mass))

    def test_cfl_rejects_oversized_fixed_step(self):
        p = make_params(10.0)
        x = np.linspace(-20, 20, 161)
        evo = FokkerPlanckEvolution(p, x, gamma=1.0, kappa_th=1.0)
        cfg = IntegratorConfig(
            t_max=1.0, method="rk4", dt=10.0 * evo.cfl_limit()
        )
        with pytest.raises(ValueError):
            evo.integrate(evo.thermal_fields(), cfg)

    def test_population_matrix_matches_rhs_probes(self):
        # the edge-list matrix against the flux form, probed column by column
        p = make_params(10.0, beta_de=0.05, beta_w0=0.4)
        x = np.linspace(-15, 15, 121)
        evo = FokkerPlanckEvolution(p, x, gamma=0.8, kappa_th=1.3)
        m = x.size
        probes = np.zeros((2 * m, 2 * m))
        for j in range(2 * m):
            y = np.zeros(4 * m, dtype=complex)
            y[j] = 1.0
            probes[:, j] = evo.rhs(y)[: 2 * m].real
        assert np.max(np.abs(evo.population_matrix() - probes)) <= 1e-14

    def test_exact_matches_rk45_on_a_steep_coarse_grid(self):
        # cell Peclet number up to 4.1 on this coarse, steep grid, where a
        # central stencil would have negative rates
        p = ContinuumParams(beta=1.0, omega_0=0.0, delta_omega=0.4, delta_e=0.1, delta_x=1.0)
        x = np.linspace(-20, 20, 41)
        evo = FokkerPlanckEvolution(p, x, gamma=1.0)
        runs = {
            method: evo.integrate(
                evo.coherent_fields(),
                IntegratorConfig(
                    t_max=40.0, method=method, sample_dt=20.0, rel_tol=1e-12,
                    abs_tol=1e-15, convergence_tol=0.0,
                ),
            )
            for method in ("exact", "rk45")
        }
        a, b = runs["exact"].final, runs["rk45"].final
        for name in ("p_plus", "p_minus", "c_plus", "c_minus"):
            assert np.max(np.abs(getattr(a, name) - getattr(b, name))) < 1e-12
        assert np.max(np.abs(runs["exact"].total_mass - 1.0)) < 1e-12

    def test_bundled_run_stops_on_shared_monitor(self):
        # the per-sample population change first drops below 1e-9 at sample
        # 528; a window of five such samples ends the run at sample 532
        scenario = cli.load_scenario(str(SCENARIOS / "fokker_planck.json"))
        _, evo = cli.build_continuum(scenario)
        cfg = IntegratorConfig(**scenario["integrator"])
        start = evo.polarized_fields()
        traj = evo.integrate(start, cfg)
        full = evo.integrate(start, dataclasses.replace(cfg, convergence_tol=0.0))
        assert traj.converged and not full.converged
        assert traj.times[-1] == 1064.0 and full.times[-1] == cfg.t_max
        assert traj.last_population_change < cfg.convergence_tol
        k = traj.times.size
        assert np.array_equal(traj.total_mass, full.total_mass[:k])
        assert np.array_equal(traj.min_conditional_eig, full.min_conditional_eig[:k])
        # the unstopped run's fields at t = 1064
        at_stop = evo.integrate(
            start, dataclasses.replace(cfg, t_max=1064.0, convergence_tol=0.0)
        )
        assert np.array_equal(at_stop.total_mass, full.total_mass[:k])
        for name in ("p_plus", "p_minus", "c_plus", "c_minus"):
            got, want = getattr(traj.final, name), getattr(at_stop.final, name)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_non_finite_start_raises(self):
        p = make_params(10.0)
        evo = FokkerPlanckEvolution(p, np.linspace(-10, 10, 41), gamma=1.0)
        f = evo.polarized_fields()
        f.p_plus[3] = np.nan
        for method in ("exact", "rk45"):
            with pytest.raises(StiffIntegrationError, match="non-finite initial state"):
                evo.integrate(f, IntegratorConfig(t_max=1.0, method=method))

    def test_grid_coarser_than_delta_x_rejected(self):
        p = make_params(10.0)
        x = np.linspace(-20, 20, 11)
        with pytest.raises(ValueError):
            FokkerPlanckEvolution(p, x, gamma=1.0)


class TestFieldState:
    def test_pack_unpack_round_trip(self):
        m = 17
        rng = np.random.default_rng(5)
        f = FieldState(
            p_plus=rng.random(m),
            p_minus=rng.random(m),
            c_plus=rng.random(m) + 1j * rng.random(m),
            c_minus=rng.random(m) + 1j * rng.random(m),
        )
        g = FieldState.unpack(f.pack())
        assert np.allclose(g.p_plus, f.p_plus, atol=1e-15)
        assert np.allclose(g.p_minus, f.p_minus, atol=1e-15)
        assert np.allclose(g.c_plus, f.c_plus, atol=1e-15)
        assert np.allclose(g.c_minus, f.c_minus, atol=1e-15)
