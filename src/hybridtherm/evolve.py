"""Time propagation of hybrid master equations.

In the conditional eigenbases the generator splits exactly: coherences decay
in place with fixed complex multipliers and populations follow a classical
rate matrix.  The default method, "exact", propagates each sample interval in
closed form with ExactPropagator: coherences are multiplied by
exp(multiplier * dt) and populations advance by exp(dt Q).  Below a size and
work crossover that map is built once per distinct interval as a dense matrix
by scaling and squaring, its columns renormalized to unit sum, so each
interval is one matvec; above it populations advance by uniformization along
the edge list, which also serves as the oracle.  The steppers "rk45"
(adaptive embedded Dormand-Prince) and "rk4" (fixed-step classic) integrate
apply instead; they stay as independent oracles.

run_samples is the one sample loop of both model families, the discrete
generators here and the Fokker-Planck fields in continuum.  Its convergence
monitor compares states a family-chosen stride of samples apart and stops
the run once a full window of gaps sits below tolerance; integrate compares
states one relaxation interval apart by trace distance.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .generator import HybridGenerator, apply
from .linalg import check_hermitian
from .state import HybridState, block_trace_distance


class StiffIntegrationError(RuntimeError):
    """Propagation broke down: the adaptive step size collapsed, or the
    exact propagator, the initial state or a sample is not finite."""

    def __init__(self, time: float, reason: str = "step size underflow"):
        self.time = time
        super().__init__(f"{reason} at t = {time:.6g}")


class NonConvergedError(RuntimeError):
    """Trajectory ended before meeting the convergence criterion."""


@dataclass
class IntegratorConfig:
    t_max: float
    method: str = "exact"
    dt: float | None = None          # rk4 step; default 0.01 / max rate
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    sample_dt: float | None = None   # observable grid; default one relaxation interval
    # the monitor tolerance must sit above the integrator noise floor
    convergence_tol: float = 1e-9
    convergence_window: int = 5
    record_eigenbasis: bool = False

    def __post_init__(self) -> None:
        # a NaN interval would never end the exact propagator's weight loop
        for name in ("t_max", "dt", "sample_dt"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.method not in ("exact", "rk45", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class Trajectory:
    times: np.ndarray
    total_trace: np.ndarray
    entropy: np.ndarray
    classical: np.ndarray
    min_eigenvalue: np.ndarray
    dist_to_target: np.ndarray | None
    final_state: HybridState
    converged: bool
    converged_time: float | None
    eig_populations: np.ndarray | None = None
    eig_coherences: np.ndarray | None = None
    coherence_pairs: list[tuple[int, int]] = field(default_factory=list)


# Dormand-Prince 5(4) tableau
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _rk4_segment(rhs, y: np.ndarray, t0: float, t1: float, dt: float) -> np.ndarray:
    t = t0
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        h = min(dt, t1 - t)
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def _rk45_segment(
    rhs, y: np.ndarray, t0: float, t1: float, h: float, rtol: float, atol: float
) -> tuple[np.ndarray, float]:
    t = t0
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        h = min(h, t1 - t)
        if h < 1e-13 * max(1.0, abs(t)):
            raise StiffIntegrationError(t)
        k = []
        for stage in range(7):
            yi = y
            if stage:
                acc = sum(a * ki for a, ki in zip(_DP_A[stage], k))
                yi = y + h * acc
            k.append(rhs(yi))
        y5 = y + h * sum(b * ki for b, ki in zip(_DP_B5, k))
        y4 = y + h * sum(b * ki for b, ki in zip(_DP_B4, k))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean((np.abs(y5 - y4) / scale) ** 2)))
        if err <= 1.0:
            t += h
            y = y5
            h *= min(5.0, max(0.2, 0.9 * (max(err, 1e-16)) ** -0.2))
        else:
            h *= max(0.2, 0.9 * err**-0.2)
    return y, h


# exp(-mean) of the first Poisson weight underflows past mean 745; longer
# intervals are split into equal substeps below this mean
_MAX_POISSON_MEAN = 400.0
_POISSON_TAIL = 1e-17
# ExactPropagator's dense route: at most this many states, and a build of at
# most this many multiply-adds per scattered element of one series interval
_DENSE_MAX_STATES = 512
_DENSE_WORK_RATIO = 2**14


def _poisson_weights(mean: float, norm: float = 1.0) -> np.ndarray:
    """Poisson(k; mean) for k = 0 .. K, normalized to sum to one.

    K is the first index at which the bound sum_{k > K} w_k norm**k on the
    dropped terms of sum_k w_k B**k p falls below _POISSON_TAIL * |p|_1,
    given norm >= |B|_1.  The terms fall geometrically once
    mean * norm < k + 1, which bounds the tail by its first term.
    """
    if not 0.0 <= mean < math.inf:
        raise ValueError(f"Poisson mean must be finite and >= 0, got {mean!r}")
    weights = [math.exp(-mean)]
    term = weights[0]  # w_k * norm**k of the next candidate term
    k = 0
    while True:
        k += 1
        term *= mean * norm / k
        ratio = mean * norm / (k + 1)
        if ratio < 1.0 and term <= _POISSON_TAIL * (1.0 - ratio):
            break
        weights.append(weights[-1] * mean / k)
    w = np.array(weights)
    return w / w.sum()


class ExactPropagator:
    """exp(dt * G) for a generator that splits into a rate matrix Q on the
    populations and fixed complex multipliers on the coherences.

    Q is given as directed edges (src, tgt, rate) over n states, and the
    outflow of each state is summed from its edges.  Coherences are
    multiplied by exp(dt * multiplier).  Populations advance by one of two
    routes, both built from the Poisson series of uniformization (Jensen
    1953), exp(dt Q) = sum_k Poisson(k; Lambda dt) B**k with
    B = I + Q / Lambda and Lambda the largest outflow:

    - series: the sum is applied to the populations along the edge list,
      one scatter per term, so memory stays linear in n and the cost per
      interval grows with Lambda dt.
    - dense: exp(dt Q) is built once as an n x n matrix by scaling and
      squaring (Moler & Van Loan 2003).  dt is split into 2**j substeps of
      Poisson mean at most one, whose series is summed by Horner in dense
      BLAS on B, and the result is squared j times.  Each interval is then
      one matvec.  Every column of exp(t Q) sums to exactly one, so after
      each squaring the columns are divided by their sums; without that the
      squarings amplify rounding like 2**j.

    The plan of each distinct dt (substeps, weights and coherence factors,
    plus the dense matrix on that route) is built once and kept in _plans.
    Route rule: dense when n <= _DENSE_MAX_STATES, which keeps the build's
    three n x n float64 arrays within 6.3 MB, and the build's
    (j + Horner terms) * n**3 multiply-adds are at most _DENSE_WORK_RATIO
    times one series interval's terms * (edges + n) scattered elements.  A
    BLAS multiply-add costs about 1/140 of a scattered element (45 ps
    against 6.5 ns at n = 200 to 600, one BLAS thread), so the ratio 2**14
    lets the build cost up to about 120 series intervals; the bundled runs
    take 140 (lattice) to 532 (Fokker-Planck) intervals.  On the whole-run
    curve of BENCH_dense.json (benchmarks/propagation_scaling.py) the
    lattice, at Lambda dt 2.6, breaks even near n = 300 and the rule turns
    to the series from n = 402; the Fokker-Planck fields, whose Lambda dt
    grows with points**2, run 4 to 8 times faster on the dense route up to
    the cap.

    Negative rates (a central drift stencil past cell Peclet number 2) make
    |I + Q / Lambda|_1 exceed one; the truncation bound carries that norm,
    and intervals and substeps are split so that it cannot amplify rounding
    by more than a factor e.
    """

    def __init__(self, src, tgt, rate, n, multiplier):
        outflow = np.bincount(src, rate, minlength=n)
        lam = float(np.max(np.abs(outflow), initial=0.0))
        if not (
            math.isfinite(lam)
            and np.all(np.isfinite(rate))
            and np.all(np.isfinite(multiplier))
        ):
            raise StiffIntegrationError(0.0, "non-finite exact propagator")
        inv = 1.0 / lam if lam > 0.0 else 0.0
        # I + Q / Lambda as one edge list: the diagonal rides as self-edges
        self._src = np.concatenate([src, np.arange(n)])
        self._tgt = np.concatenate([tgt, np.arange(n)])
        self._hop = np.concatenate([rate * inv, 1.0 - outflow * inv])
        self._norm = float(
            np.max(np.bincount(self._src, np.abs(self._hop), minlength=n), initial=1.0)
        )
        self._n = n
        self._lam = lam
        self._multiplier = multiplier
        # dt -> (dense exp(dt Q) or None, substeps, weights, coherence factors)
        self._plans: dict[float, tuple[np.ndarray | None, int, list[float], np.ndarray]] = {}

    def _plan(self, dt: float) -> tuple[np.ndarray | None, int, list[float], np.ndarray]:
        plan = self._plans.get(dt)
        if plan is None:
            mean = self._lam * dt
            steps = max(
                1,
                math.ceil(mean / _MAX_POISSON_MEAN),
                math.ceil(mean * (self._norm - 1.0)),
            )
            weights = _poisson_weights(mean / steps, self._norm).tolist()
            scaled = mean * max(1.0, self._norm - 1.0)
            squarings = math.ceil(math.log2(scaled)) if scaled > 1.0 else 0
            horner = _poisson_weights(math.ldexp(mean, -squarings), self._norm)
            n = self._n
            dense = n <= _DENSE_MAX_STATES and (squarings + horner.size - 1) * n**3 <= (
                _DENSE_WORK_RATIO * steps * (len(weights) - 1) * self._src.size
            )
            matrix = self._dense(horner, squarings) if dense else None
            plan = self._plans[dt] = (matrix, steps, weights, np.exp(dt * self._multiplier))
        return plan

    def _dense(self, weights: np.ndarray, squarings: int) -> np.ndarray:
        """sum_k weights[k] B**k by Horner, then squared `squarings` times."""
        n = self._n
        b = np.bincount(self._tgt * n + self._src, self._hop, minlength=n * n)
        b = b.reshape(n, n)
        p = np.diag(np.full(n, weights[-1]))
        for w in weights[-2::-1]:
            p = b @ p
            p.flat[:: n + 1] += w
        for _ in range(squarings):
            p = p @ p
            p /= p.sum(axis=0)
        return p

    def __call__(
        self, pops: np.ndarray, cohs: np.ndarray, dt: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Populations and coherences one interval dt later."""
        matrix, steps, weights, factor = self._plan(dt)
        if matrix is not None:
            return matrix @ pops, cohs * factor
        src, tgt, hop, n = self._src, self._tgt, self._hop, pops.size
        for _ in range(steps):
            v = pops
            pops = weights[0] * v
            for w in weights[1:]:
                v = np.bincount(tgt, hop * v[src], minlength=n)
                pops += w * v
        return pops, cohs * factor


def _default_steps(gen: HybridGenerator, cfg: IntegratorConfig) -> tuple[float, float]:
    """Fixed step and sample spacing derived from the rate table."""
    max_rate = gen.max_rate()
    min_rate = gen.min_rate()
    # fastest coherent frequency: largest spread inside one block
    freq_scale = float(np.max(gen.eigenvalues[:, -1] - gen.eigenvalues[:, 0]))
    dt = cfg.dt if cfg.dt is not None else 0.01 / max(max_rate, freq_scale, 1e-12)
    if cfg.sample_dt is not None:
        sample_dt = cfg.sample_dt
    else:
        spacing = 1.0 / min_rate if min_rate > 0 else cfg.t_max / 50.0
        # keep at least a convergence window inside t_max
        spacing = min(spacing, cfg.t_max / (cfg.convergence_window + 2.0))
        sample_dt = max(spacing, cfg.t_max / 5000.0)
    return dt, sample_dt


def _entropy_clipped(blocks: np.ndarray) -> tuple[float, float]:
    """(entropy with negatives clipped, most negative eigenvalue)."""
    w = np.linalg.eigvalsh(blocks).reshape(-1)
    low = float(np.min(w))
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w))), low


def run_samples(
    y: np.ndarray, cfg: IntegratorConfig, *, exact, rhs, dt: float,
    sample_dt: float, stride: int, gap, record,
) -> tuple[np.ndarray, list[float], bool, float]:
    """The sample loop of both model families.

    Steps the packed state y from t = 0 to cfg.t_max on a uniform grid of
    spacing sample_dt, by the family's closed-form exact(y, interval), or by
    RK4 (fixed step dt) or RK45 (first trial step dt) on rhs.  record(y)
    sees every sample, the start included.  The monitor compares each sample
    with the one stride samples earlier by gap(new, old) and stops the run
    once cfg.convergence_window consecutive gaps fall below
    cfg.convergence_tol.  A non-finite sample raises StiffIntegrationError.

    Returns (final state, sample times, whether the monitor fired, the last
    gap, inf before the first comparison).
    """
    if not np.all(np.isfinite(y)):
        raise StiffIntegrationError(0.0, "non-finite initial state")
    record(y)
    times = [0.0]
    recent: deque[np.ndarray] = deque([y], maxlen=stride + 1)
    last_gap = math.inf
    passes = 0
    h_adapt = dt
    t = 0.0
    while t < cfg.t_max - 1e-12 * cfg.t_max:
        t_next = min(t + sample_dt, cfg.t_max)
        if cfg.method == "exact":
            # sample_dt itself, so rounding in t adds no distinct interval
            y = exact(y, min(sample_dt, cfg.t_max - t))
        elif cfg.method == "rk4":
            y = _rk4_segment(rhs, y, t, t_next, dt)
        else:
            y, h_adapt = _rk45_segment(
                rhs, y, t, t_next, h_adapt, cfg.rel_tol, cfg.abs_tol
            )
        t = t_next
        if not np.all(np.isfinite(y)):
            raise StiffIntegrationError(t, "non-finite sample")
        times.append(t)
        record(y)
        recent.append(y)
        if len(recent) == stride + 1:
            last_gap = gap(recent[-1], recent[0])
            passes = passes + 1 if last_gap < cfg.convergence_tol else 0
            if passes >= cfg.convergence_window:
                return y, times, True, last_gap
    return y, times, False, last_gap


def integrate(
    gen: HybridGenerator,
    initial: HybridState,
    cfg: IntegratorConfig,
    target: HybridState | None = None,
) -> Trajectory:
    """Evolve a hybrid state, sampling observables as the run proceeds.

    When a target state is supplied the trace distance to it is recorded at
    every sample.  The run stops early once the convergence monitor fires.
    """
    if initial.num_labels != gen.num_labels or initial.dim_s != gen.dim_s:
        raise ValueError("initial state shape does not match generator")
    start = np.array(initial.blocks, dtype=complex)
    if np.all(np.isfinite(start)):  # run_samples names a non-finite start
        check_hermitian(start, "initial state")
    if target is not None:
        if target.blocks.shape != start.shape:
            raise ValueError("target shape does not match generator")
        check_hermitian(target.blocks, "target")
    dt, sample_dt = _default_steps(gen, cfg)
    stride_t = 1.0 / gen.min_rate() if gen.min_rate() > 0 else sample_dt
    # the comparison interval must fit a full window inside t_max
    stride_t = min(stride_t, cfg.t_max / (cfg.convergence_window + 2.0))
    stride = max(1, round(stride_t / sample_dt))

    L, d = gen.num_labels, gen.dim_s
    v = gen.eigenvectors
    vh = v.conj().transpose(0, 2, 1)
    pair_list = [(a, b) for a in range(d) for b in range(a + 1, d)]
    records: dict[str, list] = {k: [] for k in ("trace", "entropy", "classical", "low")}
    dists: list[float] = []
    pops: list[np.ndarray] = []
    cohs: list[np.ndarray] = []

    def record(arr: np.ndarray) -> None:
        records["trace"].append(float(np.einsum("cii->", arr).real))
        ent, low = _entropy_clipped(arr)
        records["entropy"].append(ent)
        records["low"].append(low)
        records["classical"].append(np.einsum("cii->c", arr).real.copy())
        if target is not None:
            dists.append(block_trace_distance(arr, target.blocks))
        if cfg.record_eigenbasis:
            s = vh @ arr @ v
            pops.append(np.einsum("cii->ci", s).real.copy())
            cohs.append(np.array([[s[c, b, a] for (a, b) in pair_list] for c in range(L)]))

    propagate = ExactPropagator(gen._src, gen._tgt, gen._rate, L * d, gen._multiplier)
    diag = np.arange(d)

    def exact(y: np.ndarray, interval: float) -> np.ndarray:
        s = vh @ y @ v
        p, s = propagate(np.einsum("cii->ci", s).real.reshape(-1), s, interval)
        s[:, diag, diag] = p.reshape(L, d)
        return v @ s @ vh

    def rhs(arr: np.ndarray) -> np.ndarray:
        return apply(gen, HybridState(arr)).blocks

    y, times, converged, _ = run_samples(
        start, cfg, exact=exact, rhs=rhs, dt=dt, sample_dt=sample_dt,
        stride=stride, gap=block_trace_distance, record=record,
    )
    return Trajectory(
        times=np.array(times),
        total_trace=np.array(records["trace"]),
        entropy=np.array(records["entropy"]),
        classical=np.array(records["classical"]),
        min_eigenvalue=np.array(records["low"]),
        dist_to_target=np.array(dists) if target is not None else None,
        final_state=HybridState(y),
        converged=converged,
        converged_time=times[-1] if converged else None,
        eig_populations=np.array(pops) if cfg.record_eigenbasis else None,
        eig_coherences=np.array(cohs) if cfg.record_eigenbasis else None,
        coherence_pairs=pair_list if cfg.record_eigenbasis else [],
    )


def converged_state(traj: Trajectory) -> HybridState:
    """Final state of a converged run, renormalized."""
    if not traj.converged:
        raise NonConvergedError(
            f"trajectory did not converge by t = {traj.times[-1]:.6g}"
        )
    return traj.final_state.normalized()


def trajectory_csv(traj: Trajectory) -> str:
    """Deterministic CSV dump; floats keep full round-trip precision."""
    num_labels = traj.classical.shape[1]
    cols = ["t", "total_trace", "entropy", "dist_to_thermal"]
    cols += [f"p[{c}]" for c in range(num_labels)]
    cols += ["min_eig"]
    lines = [",".join(cols)]
    for i in range(traj.times.shape[0]):
        row = [repr(float(traj.times[i]))]
        row.append(repr(float(traj.total_trace[i])))
        row.append(repr(float(traj.entropy[i])))
        if traj.dist_to_target is not None:
            row.append(repr(float(traj.dist_to_target[i])))
        else:
            row.append("")
        row += [repr(float(x)) for x in traj.classical[i]]
        row.append(repr(float(traj.min_eigenvalue[i])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
