"""Acceptance suite: one test per headline guarantee of the package.

Each test enforces the stated tolerance and runtime budget and prints a
single summary line (visible with -s).  The physicality test at the end
re-checks every trajectory produced by the earlier convergence and
lattice tests, so run the module as a whole for full coverage.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from hybridtherm import (
    ContinuumParams,
    DegenerateStationaryError,
    FokkerPlanckEvolution,
    IntegratorConfig,
    LatticeScenario,
    TlsScenario,
    apply,
    bipartite_superoperator,
    build_alt_lattice,
    build_generator,
    build_lattice,
    build_tls,
    collisional_apply,
    continuum_profile,
    hybrid_thermal,
    hybrid_trace_distance,
    integrate,
    lattice_weights,
    stationary_state,
)
from hybridtherm.continuum import (
    closed_form_normalization,
    expected_peak_offset,
    gaussian_envelope,
    weight_density,
)
from hybridtherm.generator import (
    TransitionSpec,
    embed_state,
    superoperator_apply,
)
from hybridtherm.linalg import frobenius, trace_distance
from hybridtherm.models import (
    DegenerateMechanismWarning,
    lattice_sites,
    required_half_width,
)
from hybridtherm.state import (
    HybridState,
    classical_marginal,
    entropy,
)
from hybridtherm.verify import random_hermitian, random_hybrid_state

# canonical two-level instance: sigma_z / sigma_x conditional Hamiltonians,
# beta omega_a = 2, beta omega_b = 1, E_a = 0, beta E_b = 0.5
CANONICAL_TLS = dict(
    beta=1.0, energy_a=0.0, energy_b=0.5, omega_a=2.0, omega_b=1.0
)

# trajectories produced by the convergence and lattice tests, re-checked
# for positivity and trace by test_criterion_10
_TRAJECTORIES = []


def _report(num, elapsed, detail):
    print(f"[criterion {num:02d}] PASS ({elapsed:.2f}s) {detail}")


def _random_tls_generator(rng):
    beta = float(rng.uniform(0.1, 5.0))
    rates = {m: float(rng.uniform(0.1, 10.0)) for m in "abcde"}
    s = TlsScenario(
        beta=beta,
        energy_a=0.0,
        energy_b=0.5 / beta,
        rates=rates,
        h_a=random_hermitian(rng, 2),
        h_b=random_hermitian(rng, 2),
    )
    return build_tls(s)


def test_criterion_01_thermal_state_is_stationary():
    t0 = time.time()
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(50):
        h, gen = _random_tls_generator(rng)
        deriv = apply(gen, hybrid_thermal(h, gen.beta))
        worst = max(worst, max(frobenius(b) for b in deriv.blocks))
    elapsed = time.time() - t0
    assert worst <= 1e-11
    assert elapsed < 5.0
    _report(1, elapsed, f"50 random generators, worst block norm {worst:.2e}")


def test_criterion_02_three_route_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(20240802)
    generators = [build_tls(TlsScenario(**CANONICAL_TLS))]
    for num_labels, dim in ((3, 2), (2, 3)):
        from hybridtherm.state import HybridHamiltonian

        h = HybridHamiltonian(
            energies=rng.uniform(-1.0, 1.0, size=num_labels),
            h_system=random_hermitian(rng, dim),
            coupling=0.7,
            h_bar=np.stack(
                [random_hermitian(rng, dim) for _ in range(num_labels)]
            ),
        )
        specs = []
        for c in range(num_labels):
            specs.append(TransitionSpec.within(c, 0, dim - 1, 1.2))
        for c in range(num_labels - 1):
            specs.append(TransitionSpec.between(c, 0, c + 1, 1, 0.8))
        generators.append((h, build_generator(h, specs, 1.0)))

    worst = 0.0
    checked = 0
    for h, gen in generators:
        sup = bipartite_superoperator(gen)
        for _ in range(17):
            if checked >= 50:
                break
            state = random_hybrid_state(rng, gen.num_labels, gen.dim_s)
            fast = apply(gen, state)
            slow = collisional_apply(gen, state)
            full = superoperator_apply(sup, embed_state(state))
            pair_ab = max(
                frobenius(a - b) for a, b in zip(fast.blocks, slow.blocks)
            )
            pair_ac = frobenius(embed_state(fast) - full)
            pair_bc = frobenius(embed_state(slow) - full)
            worst = max(worst, pair_ab, pair_ac, pair_bc)
            checked += 1
    elapsed = time.time() - t0
    assert checked == 50
    assert worst <= 1e-12
    assert elapsed < 5.0
    _report(2, elapsed, f"50 states, worst pairwise deviation {worst:.2e}")


def test_criterion_03_convergence_from_random_states():
    t0 = time.time()
    rng = np.random.default_rng(20240803)
    h, gen = build_tls(TlsScenario(**CANONICAL_TLS))
    target = hybrid_thermal(h, 1.0)
    cfg = IntegratorConfig(t_max=200.0, sample_dt=2.0)
    worst = 0.0
    for k in range(20):
        if k % 4 == 3:
            # pure start concentrated on one label
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            blocks = np.zeros((2, 2, 2), dtype=complex)
            blocks[k % 2] = np.outer(psi, psi.conj())
            state = HybridState(blocks)
        else:
            state = random_hybrid_state(rng, 2, 2)
        traj = integrate(gen, state, cfg, target=target)
        _TRAJECTORIES.append(traj)
        assert float(traj.times[-1]) <= 200.0 + 1e-9
        worst = max(worst, float(traj.dist_to_target[-1]))
    elapsed = time.time() - t0
    assert worst < 1e-8
    assert elapsed < 10.0
    _report(3, elapsed, f"20 starts, worst final distance {worst:.2e}")


def test_criterion_04_minimal_mechanism_sets():
    t0 = time.time()
    full_h, full_gen = build_tls(
        TlsScenario(**CANONICAL_TLS, mechanisms=("a", "b", "c", "d", "e"))
    )
    reference = stationary_state(full_gen)
    worst = 0.0
    for extra in "bcde":
        _, gen = build_tls(
            TlsScenario(**CANONICAL_TLS, mechanisms=("a", extra))
        )
        worst = max(
            worst, hybrid_trace_distance(stationary_state(gen), reference)
        )
    assert worst <= 1e-9

    with pytest.warns(DegenerateMechanismWarning):
        _, lone = build_tls(TlsScenario(**CANONICAL_TLS, mechanisms=("a",)))
    with pytest.raises(DegenerateStationaryError) as exc_info:
        stationary_state(lone)
    assert exc_info.value.dimension == 2
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(
        4,
        elapsed,
        f"two-mechanism deviation {worst:.2e}, "
        "single-mechanism degeneracy flagged with dimension 2",
    )


def test_criterion_05_lattice_stationary_weights():
    t0 = time.time()
    s = LatticeScenario(
        beta=1.0, half_width=1, omega_0=0.0, delta_omega=0.05, delta_e=0.01
    )
    with pytest.warns(UserWarning, match="half_width raised"):
        h, gen = build_lattice(s)
    half = (h.num_labels - 1) // 2
    assert half == required_half_width(s)

    stat = stationary_state(gen)
    marginal = classical_marginal(stat)
    exact = lattice_weights(s, half)
    site_rel = np.max(np.abs(marginal - exact) / exact)
    assert site_rel <= 1e-8

    worst_cond = 0.0
    for k, n in enumerate(lattice_sites(h)):
        om = s.splitting(n)
        ref = np.diag(
            [np.exp(-0.5 * om), np.exp(0.5 * om)]
        ) / (2.0 * np.cosh(0.5 * om))
        worst_cond = max(
            worst_cond, trace_distance(stat.blocks[k] / marginal[k], ref)
        )
    assert worst_cond <= 1e-9

    s_alt = LatticeScenario(
        beta=1.0,
        half_width=half,
        omega_0=0.0,
        delta_omega=0.05,
        delta_e=0.01,
    )
    _, gen_alt = build_alt_lattice(s_alt)
    variant_gap = hybrid_trace_distance(stationary_state(gen_alt), stat)
    assert variant_gap <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(
        5,
        elapsed,
        f"auto-truncated to N={half}, site error {site_rel:.2e}, "
        f"conditional error {worst_cond:.2e}, variant gap {variant_gap:.2e}",
    )


def _fig_params(ratio):
    delta_e = 0.01
    return ContinuumParams(
        beta=1.0,
        omega_0=0.0,
        delta_omega=ratio * delta_e,
        delta_e=delta_e,
        delta_x=1.0,
    )


def _quadrature_normalization(p):
    def integrand(x):
        return gaussian_envelope(p, np.array([x]))[0] * np.cosh(
            0.5 * p.beta * p.splitting(np.array([x]))[0]
        )

    cut = expected_peak_offset(p) + 8.0 / np.sqrt(p.beta * p.delta_e)
    value, _ = quad(
        integrand, -cut, cut, limit=400, points=[0.0], epsabs=1e-12,
        epsrel=1e-12,
    )
    return value


def test_criterion_06_weight_profile_regimes():
    t0 = time.time()
    low = continuum_profile(_fig_params(0.5))
    assert low.modality == "unimodal"
    gap = np.max(np.abs(low.density - low.gaussian)) / np.max(low.density)
    assert gap < 0.02

    high = continuum_profile(_fig_params(40.0))
    assert high.modality == "bimodal"
    offset = expected_peak_offset(high.params)
    assert len(high.peaks) == 2
    assert high.peaks[0] == pytest.approx(-offset, rel=0.05)
    assert high.peaks[1] == pytest.approx(offset, rel=0.05)

    worst_z = 0.0
    for ratio in (0.5, 5.0, 20.0, 40.0):
        p = _fig_params(ratio)
        z = closed_form_normalization(p)
        direct = _quadrature_normalization(p)
        worst_z = max(worst_z, abs(z - direct) / direct)
    assert worst_z <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(
        6,
        elapsed,
        f"unimodal gap {gap:.2e}, bimodal peaks at ±{high.peaks[1]:.2f} "
        f"(expected ±{offset:.1f}), normalization error {worst_z:.2e}; "
        "ratio-20 bimodality covered by the expected-failure test below",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the ratio-20 profile is unimodal in fact: two peaks require "
        "(beta*delta_omega)**2 > 8*beta*delta_e, which at "
        "beta*delta_e = 0.01 means a ratio above 2*sqrt(2)/0.1 ~ 28.3"
    ),
)
def test_criterion_06_ratio20_bimodality_as_stated():
    profile = continuum_profile(_fig_params(20.0))
    assert profile.modality == "bimodal"
    offset = expected_peak_offset(profile.params)
    assert len(profile.peaks) == 2
    assert profile.peaks[1] == pytest.approx(offset, rel=0.05)


def test_criterion_07_discrete_continuum_consistency():
    t0 = time.time()
    worst = 0.0
    for ratio in (0.5, 5.0, 20.0, 40.0):
        delta_e = 0.01
        s = LatticeScenario(
            beta=1.0,
            half_width=8,
            omega_0=0.0,
            delta_omega=ratio * delta_e,
            delta_e=delta_e,
        )
        half = required_half_width(s)
        discrete = lattice_weights(s, half)
        sites = np.arange(-half, half + 1, dtype=float)
        continuum = weight_density(_fig_params(ratio), sites) * s.delta_x
        worst = max(worst, np.max(np.abs(discrete - continuum) / discrete))
    elapsed = time.time() - t0
    assert worst < 1e-3
    assert elapsed < 5.0
    _report(
        7, elapsed, f"worst per-site relative deviation {worst:.2e}"
    )


def test_criterion_08_coherence_decay_and_frequency():
    t0 = time.time()
    h, gen = build_tls(TlsScenario(**CANONICAL_TLS))
    # equal superposition of the label-0 eigenstates carries one coherence
    psi = gen.eigenvectors[0].sum(axis=1) / np.sqrt(2.0)
    blocks = np.zeros((2, 2, 2), dtype=complex)
    blocks[0] = np.outer(psi, psi.conj())
    state = HybridState(blocks)

    src, _, rate = gen.directed_transitions()
    outflow = {s: rate[(src == s).all(axis=1)].sum() for s in [(0, 0), (0, 1)]}
    decay = 0.5 * (outflow[(0, 0)] + outflow[(0, 1)])
    t_five = 5.0 / decay
    cfg = IntegratorConfig(
        t_max=t_five, sample_dt=t_five / 512.0, record_eigenbasis=True
    )
    traj = integrate(gen, state, cfg)
    idx = traj.coherence_pairs.index((0, 1))
    coh = traj.eig_coherences[:, 0, idx]
    t = np.asarray(traj.times)

    envelope = np.abs(coh)
    expected = envelope[0] * np.exp(-decay * t)
    env_err = np.max(np.abs(envelope - expected))
    assert env_err <= 1e-6

    phase = np.unwrap(np.angle(coh))
    slope = np.polyfit(t, phase, 1)[0]
    gap = gen.eigenvalues[0][1] - gen.eigenvalues[0][0]
    freq_rel = abs(abs(slope) - gap) / gap
    assert freq_rel <= 1e-6
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(
        8,
        elapsed,
        f"envelope error {env_err:.2e}, frequency error {freq_rel:.2e} "
        f"relative over five decay times",
    )


def test_criterion_09_entropy_properties():
    t0 = time.time()
    rng = np.random.default_rng(20240809)

    # additivity on uncorrelated states: same conditional under every label
    worst_add = 0.0
    for _ in range(10):
        w = rng.uniform(0.2, 1.0, size=3)
        w /= w.sum()
        a = random_hermitian(rng, 3)
        rho = a @ a.conj().T + 0.1 * np.eye(3)
        rho /= np.trace(rho).real
        blocks = np.stack([wc * rho for wc in w])
        s_rho = -np.sum(
            np.linalg.eigvalsh(rho) * np.log(np.linalg.eigvalsh(rho))
        )
        s_cls = -np.sum(w * np.log(w))
        worst_add = max(
            worst_add, abs(entropy(HybridState(blocks)) - (s_cls + s_rho))
        )
    assert worst_add <= 1e-10

    # mixture identity on random correlated states
    worst_mix = 0.0
    for _ in range(100):
        state = random_hybrid_state(rng, 3, 3)
        w = classical_marginal(state)
        total = -np.sum(w * np.log(w))
        for c in range(3):
            lam = np.linalg.eigvalsh(state.blocks[c] / w[c])
            lam = lam[lam > 1e-300]
            total += w[c] * float(-np.sum(lam * np.log(lam)))
        worst_mix = max(worst_mix, abs(entropy(state) - total))
    assert worst_mix <= 1e-10

    # thermal state maximizes entropy at fixed mean energy
    h, gen = build_tls(TlsScenario(**CANONICAL_TLS))
    thermal = hybrid_thermal(h, 1.0)
    s_th = entropy(thermal)
    e_th = h.mean_energy(thermal)
    flat = np.concatenate([ev for ev in gen.eigenvalues])
    lo_label, lo_index = divmod(int(np.argmin(flat)), 2)
    hi_label, hi_index = divmod(int(np.argmax(flat)), 2)

    def eigen_state(label, index):
        v = gen.eigenvectors[label][:, index]
        blocks = np.zeros((2, 2, 2), dtype=complex)
        blocks[label] = np.outer(v, v.conj())
        return HybridState(blocks)

    ground = eigen_state(lo_label, lo_index)
    top = eigen_state(hi_label, hi_index)
    margin = -np.inf
    for _ in range(100):
        probe = random_hybrid_state(rng, 2, 2)
        e_probe = h.mean_energy(probe)
        anchor = ground if e_probe > e_th else top
        e_anchor = h.mean_energy(anchor)
        # mean energy is linear in the state, so one mixing weight lands
        # the probe exactly on the thermal energy shell
        lam = (e_probe - e_th) / (e_probe - e_anchor)
        assert 0.0 <= lam <= 1.0
        mixed = HybridState(
            (1.0 - lam) * probe.blocks + lam * anchor.blocks
        )
        assert abs(h.mean_energy(mixed) - e_th) <= 1e-10 * max(1.0, abs(e_th))
        margin = max(margin, entropy(mixed) - s_th)
    assert margin <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(
        9,
        elapsed,
        f"additivity {worst_add:.2e}, mixture {worst_mix:.2e}, "
        f"max entropy excess over thermal {margin:.2e}",
    )


def test_criterion_10_physicality_along_trajectories():
    t0 = time.time()
    if not _TRAJECTORIES:
        # module run out of order: regenerate one trajectory to check
        h, gen = build_tls(TlsScenario(**CANONICAL_TLS))
        rng = np.random.default_rng(20240810)
        state = random_hybrid_state(rng, 2, 2)
        _TRAJECTORIES.append(
            integrate(gen, state, IntegratorConfig(t_max=200.0, sample_dt=2.0))
        )

    # one lattice trajectory joins the two-level ones
    s = LatticeScenario(
        beta=1.0, half_width=51, omega_0=0.0, delta_omega=0.05, delta_e=0.01
    )
    h, gen = build_lattice(s)
    blocks = np.tile(
        np.eye(2, dtype=complex) / (2 * h.num_labels), (h.num_labels, 1, 1)
    )
    traj = integrate(
        gen,
        HybridState(blocks),
        IntegratorConfig(t_max=50.0, sample_dt=1.0),
    )
    _TRAJECTORIES.append(traj)

    worst_eig = 0.0
    worst_trace = 0.0
    samples = 0
    for traj in _TRAJECTORIES:
        worst_eig = min(worst_eig, float(np.min(traj.min_eigenvalue)))
        worst_trace = max(
            worst_trace, float(np.max(np.abs(traj.total_trace - 1.0)))
        )
        samples += len(traj.times)
    assert worst_eig >= -1e-8
    assert worst_trace <= 1e-8

    # the field solver records transient local negativity instead of
    # rejecting it: scale up the coherence of a smooth start and watch the
    # monitor column go negative, then recover as the coherence damps
    p = ContinuumParams(
        beta=1.0, omega_0=0.0, delta_omega=0.4, delta_e=0.01, delta_x=1.0
    )
    x = np.linspace(-25.0, 25.0, 201)
    evo = FokkerPlanckEvolution(p, x, gamma=1.0)
    start = evo.coherent_fields()
    start.c_plus = 1.5 * start.c_plus
    start.c_minus = 1.5 * start.c_minus
    field_traj = evo.integrate(
        start,
        IntegratorConfig(t_max=2.0, sample_dt=0.1, rel_tol=1e-8,
                         abs_tol=1e-10),
    )
    recorded = np.asarray(field_traj.min_conditional_eig)
    assert np.min(recorded) < -1e-6
    assert np.all(np.isfinite(field_traj.total_mass))
    assert abs(field_traj.total_mass[-1] - 1.0) <= 1e-8
    assert recorded[-1] > recorded[0]
    elapsed = time.time() - t0
    _report(
        10,
        elapsed,
        f"{samples} samples over {len(_TRAJECTORIES)} trajectories, "
        f"min eigenvalue {worst_eig:.2e}, trace error {worst_trace:.2e}, "
        f"field negativity reached {np.min(recorded):.2e} and recovered",
    )
