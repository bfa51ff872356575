"""Time propagation of hybrid master equations.

In the conditional eigenbases the generator splits exactly: coherences decay
in place with fixed complex multipliers and populations follow a classical
rate matrix.  The default method, "exact", propagates each sample interval in
closed form with ExactPropagator: coherences are multiplied by
exp(multiplier * dt) and populations advance by exp(dt Q).  Below a size and
work crossover that map is built once per distinct interval as a dense matrix
by scaling and squaring, its columns renormalized to unit sum, and kept by
the model for all its runs, so each interval is one matvec; above it populations advance by uniformization along
the edge list, which also serves as the oracle.  The steppers "rk45"
(adaptive embedded Dormand-Prince) and "rk4" (fixed-step classic) integrate
apply instead; they stay as independent oracles.

run_samples is the one sample loop of both model families, the discrete
generators here and the Fokker-Planck fields in continuum.  It works on
stacks of consecutive samples: the family's exact stepper returns the next
stack in one call, and the finiteness check, the convergence monitor and
the family's record are array expressions over the stack.  The monitor
compares states a family-chosen stride of samples apart and stops the run
at the sample that completes a full window of gaps below tolerance;
integrate compares states one relaxation interval apart by trace distance.

integrate keeps its state in the conditional eigenbases: it rotates the
start once and the final state back once, and every sample in between reads
and writes only eigenbasis blocks.  Spectra, entropy and trace distances are
invariant under that rotation, traces and classical marginals are sums of
its diagonal, and the 2 x 2 spectra of every bundled model are taken in
closed form (linalg.eigvalsh_2x2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .generator import HybridGenerator, apply
from .linalg import check_hermitian, eigvalsh_stack, trace_norm_stack
from .state import HybridState


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
    plus the dense matrix on that route) is built once and kept in _plans;
    a plan that is not finite raises StiffIntegrationError.  Each model
    holds one propagator, so its runs share the plans.
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
            # rates far past the float range overflow the squarings; the
            # check below names that instead of numpy warnings
            with np.errstate(all="ignore"):
                matrix = self._dense(horner, squarings) if dense else None
                factor = np.exp(dt * self._multiplier)
            if not (np.isfinite(factor).all() and (matrix is None or np.isfinite(matrix).all())):
                raise StiffIntegrationError(0.0, "non-finite exact propagator")
            plan = self._plans[dt] = (matrix, steps, weights, factor)
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
            if not np.isfinite(p[0]).all():
                break  # a non-finite entry spreads; _plan names the failure
        return p

    def advance(
        self, pops: np.ndarray, cohs: np.ndarray, dt: float, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Populations and coherences at the next count intervals of length
        dt, stacked as (count, n) and (count, *cohs.shape).

        Each interval is one matvec on the dense route and one series sum
        on the other, and one multiplication of the coherences by their
        factors.  That keeps the rounding of stepping one interval at a
        time: np.cumprod of complex factors rounds differently from
        repeated multiplication.
        """
        matrix, steps, weights, factor = self._plan(dt)
        p = np.empty((count + 1, pops.size))
        p[0] = pops
        c = np.empty((count + 1, *cohs.shape), np.result_type(cohs, factor))
        c[0] = cohs
        for k in range(count):
            np.multiply(c[k], factor, out=c[k + 1])
            if matrix is not None:
                np.dot(matrix, p[k], out=p[k + 1])
            else:
                p[k + 1] = self._series(p[k], steps, weights)
        return p[1:], c[1:]

    def _series(self, pops: np.ndarray, steps: int, weights: list[float]) -> np.ndarray:
        """steps times sum_k weights[k] B**k pops, along the edge list."""
        src, tgt, hop, n = self._src, self._tgt, self._hop, pops.size
        for _ in range(steps):
            v = pops
            pops = weights[0] * v
            for w in weights[1:]:
                v = np.bincount(tgt, hop * v[src], minlength=n)
                pops += w * v
        return pops

    def __call__(
        self, pops: np.ndarray, cohs: np.ndarray, dt: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Populations and coherences one interval dt later."""
        p, c = self.advance(pops, cohs, dt, 1)
        return p[0], c[0]


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


# record sees stacks of at most this many bytes and at least one sample, and
# run_samples steps stacks of at most that many samples:
# 2048 samples of the bundled two-level system, 110 of the lattice, 27 of
# the Fokker-Planck fields, one from lattice half_width 1024.  That bounds
# the record's arrays at every size; the bundled runs take as long at 2**16
# and 2**20 bytes, and 1.25x to 3.4x as long at one sample per stack.
_RECORD_BYTES = 2**18

# The default grids have at most 5,000 intervals (integrate) and 200 (the
# Fokker-Planck fields); the bundled scenarios ask for 400 (tls and lattice)
# and 600 (Fokker-Planck).  A million samples already take minutes at tens of
# microseconds each; far beyond it a run never ends (sample_dt 1e-300 asks
# for 1e302 intervals) and the monitor's history of stride samples
# overflows its length.
MAX_SAMPLE_INTERVALS = 10**6


def run_samples(
    y: np.ndarray, cfg: IntegratorConfig, *, exact, rhs, dt: float,
    sample_dt: float, stride: int, gap, record,
) -> tuple[np.ndarray, np.ndarray, bool, float]:
    """The sample loop of both model families.

    Steps the packed state y from t = 0 to cfg.t_max on the grid
    t_k = min(k * sample_dt, cfg.t_max), ending at the first t_k within
    1e-12 cfg.t_max of cfg.t_max, and works on stacks of consecutive
    samples.  exact(y, interval, count) returns the family's closed-form
    next count samples as a (count, *y.shape) stack; RK4 (fixed step dt) or
    RK45 (first trial step dt) on rhs step one sample per stack.  The first
    stack holds stride + cfg.convergence_window samples, the earliest the
    monitor can fire; later ones double, up to the record stack below.

    Each stack is checked as a whole.  A non-finite sample raises
    StiffIntegrationError with its time.  The monitor compares each sample
    with the one stride samples earlier by gap(new, old), which maps two
    (k, *y.shape) stacks to k gaps, and the run ends at the first sample
    that completes cfg.convergence_window consecutive gaps below
    cfg.convergence_tol; samples computed past it are dropped.
    record(stack) sees every kept sample, the start included, as a
    (k, *y.shape) stack of consecutive samples, flushed when it holds
    _RECORD_BYTES, when the monitor fires, at t_max and before a non-finite
    sample raises.  A grid of more than MAX_SAMPLE_INTERVALS intervals
    raises ValueError before any step.

    Returns (final state, sample times, whether the monitor fired, the last
    gap, inf before the first comparison).
    """
    intervals = cfg.t_max / sample_dt
    if not intervals <= MAX_SAMPLE_INTERVALS:
        raise ValueError(
            f"sample grid of {intervals:.3g} intervals exceeds the cap of "
            f"{MAX_SAMPLE_INTERVALS:,}"
        )
    if not np.isfinite(y).all():
        raise StiffIntegrationError(0.0, "non-finite initial state")
    # the last sample's index: the first k with k * sample_dt >= end
    end = cfg.t_max - 1e-12 * cfg.t_max
    total = max(1, math.ceil(end / sample_dt))
    while total * sample_dt < end:
        total += 1
    while total > 1 and (total - 1) * sample_dt >= end:
        total -= 1
    # sample_dt itself up to the last interval, so rounding adds no plan
    last = min(sample_dt, cfg.t_max - (total - 1) * sample_dt)
    uniform = total if last == sample_dt else total - 1
    block = max(1, _RECORD_BYTES // max(y.nbytes, 1))
    limit = block if cfg.method == "exact" else 1
    size = min(stride + cfg.convergence_window, limit)
    pending: list[np.ndarray] = []
    held = 0

    def flush() -> None:
        nonlocal held
        if pending:
            record(pending[0] if len(pending) == 1 else np.concatenate(pending))
            pending.clear()
            held = 0

    def keep(samples: np.ndarray) -> None:
        nonlocal held
        while samples.shape[0]:
            take = block - held
            pending.append(samples[:take])
            held += pending[-1].shape[0]
            samples = samples[take:]
            if held == block:
                flush()

    def time(k: int) -> float:
        return min(k * sample_dt, cfg.t_max)

    keep(y[None])
    history = y[None]  # the last `stride` samples
    done = 0  # samples after the start
    last_gap = math.inf
    passes = 0
    converged = False
    h_adapt = dt
    while done < total:
        if done < uniform:
            count, interval = min(size, uniform - done), sample_dt
        else:
            count, interval = 1, last
        # a step that overflows is named by the finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.method == "exact":
                stack = exact(y, interval, count)
            elif cfg.method == "rk4":
                stack = _rk4_segment(rhs, y, time(done), time(done + 1), dt)[None]
            else:
                step, h_adapt = _rk45_segment(
                    rhs, y, time(done), time(done + 1), h_adapt, cfg.rel_tol, cfg.abs_tol
                )
                stack = step[None]
        finite = np.isfinite(stack.reshape(count, -1)).all(axis=1)
        good = count if finite.all() else int(np.argmin(finite))
        # gaps of the last gaps.size good samples of the stack
        gaps, history = _compare(history, stack[:good], stride, gap)
        index = np.arange(1, gaps.size + 1)
        reset = np.maximum.accumulate(np.where(gaps < cfg.convergence_tol, 0, index))
        run = index - reset + np.where(reset == 0, passes, 0)  # consecutive passes
        fired = np.flatnonzero(run >= cfg.convergence_window)
        if fired.size:
            good = count = good - gaps.size + fired[0] + 1
            last_gap, converged = float(gaps[fired[0]]), True
        elif gaps.size:
            last_gap, passes = float(gaps[-1]), int(run[-1])
        keep(stack[:good])
        if good < count:
            flush()
            raise StiffIntegrationError(time(done + good + 1), "non-finite sample")
        done += count
        y = stack[count - 1]
        if converged:
            break
        size = min(2 * size, limit)
    flush()
    times = np.minimum(np.arange(done + 1) * sample_dt, cfg.t_max)
    return y, times, converged, last_gap


def _compare(
    history: np.ndarray, new: np.ndarray, stride: int, gap
) -> tuple[np.ndarray, np.ndarray]:
    """gap of each sample of history + new stride samples after another,
    and the last stride samples, copied so the stack can be freed."""
    both = np.concatenate([history, new])
    gaps = gap(both[stride:], both[:-stride]) if both.shape[0] > stride else np.empty(0)
    return gaps, both[-stride:].copy()


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
    # The loop state is the stack of eigenbasis blocks vh @ y @ v: the exact
    # route never leaves it, and every record either reads its diagonals or
    # is invariant under the rotation (spectra, trace distance).
    v = gen.eigenvectors
    vh = v.conj().transpose(0, 2, 1)
    start = np.array(initial.blocks, dtype=complex)
    if np.all(np.isfinite(start)):  # run_samples names a non-finite start
        check_hermitian(start, "initial state")
        start = vh @ start @ v
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
    diag = np.arange(d)
    upper, lower = np.triu_indices(d, 1)
    pair_list = list(zip(upper.tolist(), lower.tolist()))
    goal = None if target is None else vh @ target.blocks @ v
    parts: dict[str, list[np.ndarray]] = {
        k: [] for k in ("trace", "entropy", "classical", "low", "dist", "pops", "cohs")
    }

    def record(stack: np.ndarray) -> None:
        pops = np.einsum("kcii->kci", stack).real
        parts["trace"].append(pops.sum(axis=(1, 2)))
        parts["classical"].append(pops.sum(axis=2))
        w = eigvalsh_stack(stack)
        parts["low"].append(w.min(axis=(1, 2)))
        wlogw = np.log(w, out=np.zeros_like(w), where=w > 0.0) * w
        parts["entropy"].append(-wlogw.sum(axis=(1, 2)))
        if goal is not None:
            parts["dist"].append(0.5 * trace_norm_stack(stack - goal).sum(axis=1))
        if cfg.record_eigenbasis:
            parts["pops"].append(pops.copy())
            parts["cohs"].append(stack[:, :, lower, upper])

    if gen._propagator is None:  # built once, so every run reuses its plans
        gen._propagator = ExactPropagator(gen._src, gen._tgt, gen._rate, L * d, gen._multiplier)
    propagate = gen._propagator

    def exact(s: np.ndarray, interval: float, count: int) -> np.ndarray:
        pops = np.einsum("cii->ci", s).real.reshape(-1)
        p, stack = propagate.advance(pops, s, interval, count)
        stack[:, :, diag, diag] = p.reshape(count, L, d)
        return stack

    def rhs(s: np.ndarray) -> np.ndarray:
        # the RK oracles step apply in the original basis
        return vh @ apply(gen, HybridState(v @ s @ vh)).blocks @ v

    def gap(new: np.ndarray, old: np.ndarray) -> np.ndarray:
        return 0.5 * trace_norm_stack(new - old).sum(axis=1)

    s, times, converged, _ = run_samples(
        start, cfg, exact=exact, rhs=rhs, dt=dt, sample_dt=sample_dt,
        stride=stride, gap=gap, record=record,
    )
    series = {k: np.concatenate(blocks) if blocks else None for k, blocks in parts.items()}
    return Trajectory(
        times=times,
        total_trace=series["trace"],
        entropy=series["entropy"],
        classical=series["classical"],
        min_eigenvalue=series["low"],
        dist_to_target=series["dist"],
        final_state=HybridState(v @ s @ vh),
        converged=converged,
        converged_time=float(times[-1]) if converged else None,
        eig_populations=series["pops"],
        eig_coherences=series["cohs"],
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
