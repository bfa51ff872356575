"""Continuum limit of the lattice: weight density and Fokker-Planck fields.

The classical marginal of the lattice thermal state tends to a Gaussian
envelope times a cosh of the position-dependent splitting; for strong
splitting growth it splits into two lobes.  The corresponding dynamics is a
pair of drift-diffusion equations for the eigenstate-resolved position
densities, coupled by local thermal flips, plus decoupled decaying
coherence fields.

The fields split like the discrete generators: the populations are an edge
list and the coherences decay by fixed multipliers.  So
FokkerPlanckEvolution.integrate runs the one sample loop of
evolve.run_samples, and a run stops on its shared convergence monitor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .evolve import ExactPropagator, IntegratorConfig, run_samples
from .linalg import eigvalsh_2x2

SMOOTH_REGIME_LIMIT = 0.1


@dataclass(frozen=True)
class ContinuumParams:
    """Continuum counterparts of the lattice constants (positions in x)."""

    beta: float
    omega_0: float = 0.0
    delta_omega: float = 0.0
    delta_e: float = 0.1
    delta_x: float = 1.0

    @classmethod
    def from_lattice(cls, s) -> "ContinuumParams":
        return cls(
            beta=s.beta,
            omega_0=s.omega_0,
            delta_omega=s.delta_omega,
            delta_e=s.delta_e,
            delta_x=s.delta_x,
        )

    def splitting(self, x) -> np.ndarray:
        return self.omega_0 + self.delta_omega * np.abs(x) / self.delta_x

    def check_smooth(self) -> None:
        if self.beta * self.delta_e > SMOOTH_REGIME_LIMIT:
            warnings.warn(
                f"beta * delta_e = {self.beta * self.delta_e:.3g} is outside "
                "the smooth-weight regime (< 0.1); the density formulas "
                "become coarse",
                stacklevel=3,
            )


def gaussian_envelope(p: ContinuumParams, x) -> np.ndarray:
    """Normalized Gaussian the density reduces to at zero splitting growth."""
    a = p.beta * p.delta_e
    x = np.asarray(x, dtype=float)
    return np.sqrt(a / (math.pi * p.delta_x**2)) * np.exp(-a * x**2 / p.delta_x**2)


def closed_form_normalization(p: ContinuumParams) -> float:
    """Integral of gaussian_envelope * cosh(beta * splitting / 2).

    Closed form: exp(beta dw^2 / (16 dE)) * [cosh(a) + erf(g) sinh(a)]
    with a = beta w0 / 2 and g = beta dw / (4 sqrt(beta dE)).
    """
    a = 0.5 * p.beta * p.omega_0
    g = p.beta * p.delta_omega / (4.0 * math.sqrt(p.beta * p.delta_e))
    return math.exp(p.beta * p.delta_omega**2 / (16.0 * p.delta_e)) * (
        math.cosh(a) + math.erf(g) * math.sinh(a)
    )


def weight_density(p: ContinuumParams, x) -> np.ndarray:
    """Classical position density of the thermal state, unit integral."""
    p.check_smooth()
    x = np.asarray(x, dtype=float)
    return (
        gaussian_envelope(p, x)
        * np.cosh(0.5 * p.beta * p.splitting(x))
        / closed_form_normalization(p)
    )


def shifted_potentials(p: ContinuumParams, x) -> tuple[np.ndarray, np.ndarray]:
    """Effective potentials felt by the upper (+) and lower (-) densities."""
    x = np.asarray(x, dtype=float)
    shift = p.delta_omega / (4.0 * p.delta_e)
    # |x| keeps both potentials continuous through the kink at the origin
    base = np.abs(x) / p.delta_x
    vp = p.delta_e * (base + shift) ** 2
    vm = p.delta_e * (base - shift) ** 2
    return vp, vm


def drift_forces(p: ContinuumParams, x) -> tuple[np.ndarray, np.ndarray]:
    """Forces -dV/dx; the sign convention of the kink at 0 averages out."""
    x = np.asarray(x, dtype=float)
    core = p.delta_e * x / p.delta_x**2
    tilt = np.sign(x) * p.delta_omega / (4.0 * p.delta_x)
    return -2.0 * (core + tilt), -2.0 * (core - tilt)


def expected_peak_offset(p: ContinuumParams) -> float:
    """Leading-order peak position delta_omega / (4 delta_e) * delta_x."""
    return p.delta_omega / (4.0 * p.delta_e) * p.delta_x


def find_peaks(x: np.ndarray, w: np.ndarray) -> list[float]:
    """Interior local maxima with parabolic refinement."""
    peaks = []
    for i in range(1, len(x) - 1):
        if w[i] > w[i - 1] and w[i] > w[i + 1]:
            denom = w[i - 1] - 2.0 * w[i] + w[i + 1]
            offset = 0.0 if denom == 0 else 0.5 * (w[i - 1] - w[i + 1]) / denom
            peaks.append(float(x[i] + offset * (x[1] - x[0])))
    return peaks


@dataclass(frozen=True)
class ContinuumProfile:
    params: ContinuumParams
    x: np.ndarray
    density: np.ndarray
    gaussian: np.ndarray
    v_plus: np.ndarray
    v_minus: np.ndarray
    z_th: float
    peaks: list[float]

    @property
    def modality(self) -> str:
        return "bimodal" if len(self.peaks) >= 2 else "unimodal"


def continuum_profile(
    p: ContinuumParams, x_max: float | None = None, num_points: int = 4001
) -> ContinuumProfile:
    """Tabulate the density and potentials on a symmetric grid."""
    if x_max is None:
        sigma = p.delta_x / math.sqrt(2.0 * p.beta * p.delta_e)
        x_max = expected_peak_offset(p) + 6.0 * sigma
    x = np.linspace(-x_max, x_max, num_points)
    w = weight_density(p, x)
    vp, vm = shifted_potentials(p, x)
    return ContinuumProfile(
        params=p,
        x=x,
        density=w,
        gaussian=gaussian_envelope(p, x),
        v_plus=vp,
        v_minus=vm,
        z_th=closed_form_normalization(p),
        peaks=find_peaks(x, w),
    )


# ---------------------------------------------------------------------------
# Fokker-Planck fields

@dataclass
class FieldState:
    """Eigenstate-resolved densities and coherences on the grid."""

    p_plus: np.ndarray
    p_minus: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray

    def pack(self) -> np.ndarray:
        fields = (self.p_plus, self.p_minus, self.c_plus, self.c_minus)
        return np.concatenate(fields, dtype=complex)

    @classmethod
    def unpack(cls, y: np.ndarray) -> "FieldState":
        m = y.shape[0] // 4
        return cls(
            p_plus=y[:m].real.copy(),
            p_minus=y[m : 2 * m].real.copy(),
            c_plus=y[2 * m : 3 * m].copy(),
            c_minus=y[3 * m :].copy(),
        )


@dataclass
class FieldTrajectory:
    times: np.ndarray
    total_mass: np.ndarray
    min_conditional_eig: np.ndarray
    final: FieldState
    # the shared monitor fired: a run whose population change drops below
    # tolerance only in its last few (< convergence_window) samples is False
    converged: bool
    # integrated |change| of the populations over the last sample interval,
    # the monitor's last gap
    last_population_change: float = 0.0


class FokkerPlanckEvolution:
    """Drift-diffusion evolution of the eigenstate-resolved densities.

    Populations move under tilted-potential Fokker-Planck operators with
    zero-flux boundaries and exchange locally at detailed-balance thermal
    rates; coherences decay in place at half the total outflow rate.  The
    published matrix-element form is implemented as is, including its
    coherence damping (gamma_down + gamma_up + gamma) / 2.
    """

    def __init__(
        self,
        params: ContinuumParams,
        x: np.ndarray,
        gamma: float = 1.0,
        kappa_th: float = 1.0,
        drift_scheme: str = "central",
    ):
        params.check_smooth()
        x = np.asarray(x, dtype=float)
        h = float(x[1] - x[0])
        if not np.allclose(np.diff(x), h, rtol=1e-12, atol=1e-12):
            raise ValueError("grid must be uniform")
        if h > params.delta_x * (1 + 1e-12):
            raise ValueError(
                f"grid spacing {h:.3g} exceeds delta_x = {params.delta_x:.3g}"
            )
        # the stencil rates scale as delta_x**2 / h**2, and in floats h**2
        # can underflow to zero and delta_x**2 overflow
        hh, dx2 = h * h, params.delta_x * params.delta_x
        if not (hh > 0.0 and dx2 / hh < math.inf):
            raise ValueError(
                f"grid spacing {h:.3g} and delta_x = {params.delta_x:.3g} "
                "give no finite diffusion rate"
            )
        if drift_scheme not in ("central", "upwind"):
            raise ValueError(f"unknown drift scheme {drift_scheme!r}")
        self.params = params
        self.x = x
        self.h = h
        self.gamma = float(gamma)
        self.kappa_th = float(kappa_th)
        self.drift_scheme = drift_scheme

        # rates past the float range are refused by name below
        with np.errstate(over="ignore", invalid="ignore"):
            omega = params.splitting(x)
            self.gamma_down = np.full_like(x, self.kappa_th)
            self.gamma_up = self.kappa_th * np.exp(-params.beta * omega)
            self.omega = omega
            # face-centered forces for the flux stencils
            x_face = 0.5 * (x[:-1] + x[1:])
            fp, fm = drift_forces(params, x_face)
            diff = 0.5 * params.delta_x**2
            self.face_drift = (
                params.beta * diff * fp,
                params.beta * diff * fm,
            )
            self.diff = diff
            self.coh_decay = 0.5 * (self.gamma_down + self.gamma_up + self.gamma)
            src, tgt, rate = self.population_edges()
            multiplier = np.concatenate(
                [-1j * self.omega - self.coh_decay, 1j * self.omega - self.coh_decay]
            )
        if not (np.isfinite(rate).all() and np.isfinite(multiplier).all()):
            raise ValueError(
                "drift, flip or coherence rates overflow the float range "
                "(beta, delta_omega, delta_e, gamma or kappa_th too large)"
            )
        # held, so every integrate on this model reuses its per-interval plans
        self._propagator = ExactPropagator(src, tgt, rate, 2 * x.size, multiplier)

    def _fp_operator(self, u: np.ndarray, which: int) -> np.ndarray:
        """Flux-form divergence with zero-flux boundaries."""
        drift = self.face_drift[which]
        if self.drift_scheme == "central":
            u_face = 0.5 * (u[:-1] + u[1:])
        else:
            u_face = np.where(drift > 0, u[:-1], u[1:])
        flux = drift * u_face - self.diff * (u[1:] - u[:-1]) / self.h
        # du_i = -(J_{i+1/2} - J_{i-1/2}) / h, missing faces carry no flux
        div = np.zeros_like(u)
        div[:-1] -= flux / self.h
        div[1:] += flux / self.h
        return div

    def rhs(self, y: np.ndarray) -> np.ndarray:
        m = self.x.shape[0]
        pp, pm = y[:m], y[m : 2 * m]
        cp, cm = y[2 * m : 3 * m], y[3 * m :]
        flip = self.gamma_down * pp - self.gamma_up * pm
        dpp = -flip + self.gamma * self._fp_operator(pp, 0)
        dpm = flip + self.gamma * self._fp_operator(pm, 1)
        dcp = (-1j * self.omega - self.coh_decay) * cp
        dcm = (+1j * self.omega - self.coh_decay) * cm
        return np.concatenate([dpp, dpm, dcp, dcm])

    def population_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Population generator as directed edges (src, tgt, rate) on the
        stacked (P+, P-) vector of 2 * points nodes.

        Sites i and i+1 exchange at the flux-stencil rates, gamma times
        D/h**2 +- a/(2h) (central) or D/h**2 plus the downwind |a|/h
        (upwind), with a the face drift; central rates turn negative where
        the cell Peclet number |a| h / D exceeds 2.  Each site flips + -> -
        at gamma_down and - -> + at gamma_up.
        """
        m = self.x.shape[0]
        ddh = self.diff / self.h**2
        left = np.arange(m - 1)
        src, tgt, rate = [], [], []
        for which in (0, 1):
            a = self.face_drift[which] / self.h
            if self.drift_scheme == "central":
                fwd, bwd = ddh + 0.5 * a, ddh - 0.5 * a
            else:
                fwd, bwd = ddh + np.maximum(a, 0.0), ddh - np.minimum(a, 0.0)
            off = which * m
            src += [off + left, off + left + 1]
            tgt += [off + left + 1, off + left]
            rate += [self.gamma * fwd, self.gamma * bwd]
        site = np.arange(m)
        src += [site, m + site]
        tgt += [m + site, site]
        rate += [self.gamma_down, self.gamma_up]
        return np.concatenate(src), np.concatenate(tgt), np.concatenate(rate)

    def cfl_limit(self) -> float:
        """Largest stable explicit step: diffusion and advection bounds."""
        d_eff = self.gamma * self.diff
        dt_diff = self.h**2 / (2.0 * d_eff) if d_eff > 0 else math.inf
        v_max = self.gamma * max(
            float(np.max(np.abs(self.face_drift[0]))),
            float(np.max(np.abs(self.face_drift[1]))),
            1e-300,
        )
        dt_adv = self.h / v_max
        rate = float(np.max(self.gamma_down + self.gamma_up))
        dt_rate = 2.0 / rate if rate > 0 else math.inf
        return min(dt_diff, dt_adv, dt_rate)

    def min_conditional_eig(self, fields: FieldState) -> float:
        """Most negative eigenvalue of the pointwise 2x2 conditional blocks."""
        low, _ = eigvalsh_2x2(fields.p_plus, fields.p_minus, fields.c_plus)
        return float(np.min(low))

    def integrate(
        self, initial: FieldState, cfg: IntegratorConfig
    ) -> FieldTrajectory:
        """Evolve the fields by evolve.run_samples.  The monitor's gap is the
        integrated population change over one sample interval,
        h * sum |P(t) - P(t - sample_dt)|."""
        dt = cfg.dt if cfg.dt is not None else 0.5 * self.cfl_limit()
        if cfg.method == "rk4" and dt > self.cfl_limit():
            raise ValueError(
                f"fixed step {dt:.3g} violates the stability limit "
                f"{self.cfl_limit():.3g}"
            )
        sample_dt = cfg.sample_dt if cfg.sample_dt is not None else cfg.t_max / 200.0
        m = self.x.shape[0]
        masses: list[np.ndarray] = []
        lows: list[np.ndarray] = []

        def record(stack: np.ndarray) -> None:
            pp, pm = stack[:, :m].real, stack[:, m : 2 * m].real
            masses.append((pp + pm).sum(axis=1) * self.h)
            low, _ = eigvalsh_2x2(pp, pm, stack[:, 2 * m : 3 * m])
            lows.append(low.min(axis=1))

        def exact(y: np.ndarray, interval: float, count: int) -> np.ndarray:
            pops, cohs = self._propagator.advance(y[: 2 * m].real, y[2 * m :], interval, count)
            return np.concatenate([pops, cohs], axis=1)

        def gap(new: np.ndarray, old: np.ndarray) -> np.ndarray:
            change = np.abs(new[:, : 2 * m].real - old[:, : 2 * m].real)
            return np.sum(change, axis=1) * self.h

        y, times, converged, change = run_samples(
            initial.pack(), cfg, exact=exact, rhs=self.rhs, dt=dt,
            sample_dt=sample_dt, stride=1, gap=gap, record=record,
        )
        return FieldTrajectory(
            times=times,
            total_mass=np.concatenate(masses),
            min_conditional_eig=np.concatenate(lows),
            final=FieldState.unpack(y),
            converged=converged,
            last_population_change=change,
        )

    def population_matrix(self) -> np.ndarray:
        """Dense linear operator on the stacked (P+, P-) vector, assembled
        from population_edges."""
        src, tgt, rate = self.population_edges()
        n = 2 * self.x.shape[0]
        mat = np.zeros((n, n))
        np.add.at(mat, (tgt, src), rate)
        mat[np.arange(n), np.arange(n)] -= np.bincount(src, rate, minlength=n)
        return mat

    def stationary_populations(self) -> tuple[np.ndarray, np.ndarray]:
        """Stationary (P+, P-) with unit total mass."""
        m = self.x.shape[0]
        mat = self.population_matrix()
        sys = np.array(mat)
        sys[0, :] = self.h
        rhs_vec = np.zeros(2 * m)
        rhs_vec[0] = 1.0
        sol = np.linalg.solve(sys, rhs_vec)
        return sol[:m], sol[m:]

    def thermal_fields(self) -> FieldState:
        """Product of the weight density and local thermal populations.

        Renormalized on the grid so the monitored mass starts at exactly
        one; the continuous density loses a little tail past the edges.
        """
        w = weight_density(self.params, self.x)
        w = w / (w.sum() * self.h)
        up = np.exp(-0.5 * self.params.beta * self.omega)
        dn = np.exp(+0.5 * self.params.beta * self.omega)
        norm = up + dn
        zero = np.zeros_like(w, dtype=complex)
        return FieldState(
            p_plus=w * up / norm, p_minus=w * dn / norm,
            c_plus=zero.copy(), c_minus=zero.copy(),
        )

    def _grid_gaussian(self) -> np.ndarray:
        g = gaussian_envelope(self.params, self.x)
        return g / (g.sum() * self.h)

    def coherent_fields(self) -> FieldState:
        """Gaussian envelope in an equal superposition of the eigenstates."""
        g = self._grid_gaussian()
        return FieldState(
            p_plus=0.5 * g,
            p_minus=0.5 * g,
            c_plus=(0.5 * g).astype(complex),
            c_minus=(0.5 * g).astype(complex),
        )

    def polarized_fields(self) -> FieldState:
        """Gaussian envelope fully in the upper eigenstate."""
        g = self._grid_gaussian()
        zero = np.zeros_like(g, dtype=complex)
        return FieldState(
            p_plus=g,
            p_minus=np.zeros_like(g),
            c_plus=zero.copy(),
            c_minus=zero.copy(),
        )
