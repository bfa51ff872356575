"""Detailed-balance Lindblad generators on hybrid states.

Jump operators are rank-one flips between conditional eigenstates, either
within one classical label or between eigenstates of two different labels.
Each enabled transition carries a user-chosen downhill rate; the uphill
partner rate is fixed by detailed balance against the full conditional
eigenvalues (classical energy shifts included), which pins the canonical
thermal state as a fixed point.

Three equivalent evaluation routes are provided: apply (fast, works in the
local eigenbases), collisional_apply (direct operator products with explicit
basis-change unitaries), and bipartite_superoperator (a dense Lindblad
matrix on the embedded bipartite system).  Tests hold them together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import eigh
from .state import HybridHamiltonian, HybridState

DEGENERACY_RTOL = 1e-10


class DegenerateStationaryError(RuntimeError):
    """Stationary subspace has dimension > 1; no unique fixed point."""

    def __init__(self, dimension: int, detail: str = ""):
        self.dimension = dimension
        msg = f"stationary subspace has dimension {dimension}"
        super().__init__(msg + (f" ({detail})" if detail else ""))


@dataclass(frozen=True)
class TransitionSpec:
    """Enabled transition pairs with their downhill base rates.

    Endpoints are (label, eigenstate index) pairs; equal labels give a
    thermal transition inside one block, distinct labels a classical jump.
    The fields are scalars for one pair or arrays, broadcast against each
    other, for many.
    """

    label_a: int | np.ndarray
    index_a: int | np.ndarray
    label_b: int | np.ndarray
    index_b: int | np.ndarray
    base_rate: float | np.ndarray

    @classmethod
    def within(cls, label: int, i: int, j: int, rate: float) -> "TransitionSpec":
        return cls(label, i, label, j, rate)

    @classmethod
    def between(
        cls, label_a: int, i: int, label_b: int, j: int, rate: float
    ) -> "TransitionSpec":
        return cls(label_a, i, label_b, j, rate)


@dataclass
class HybridGenerator:
    """Conditional eigenbases stacked as (L, d) eigenvalues and (L, d, d)
    eigenvectors, and the rate table of the enabled pairs.

    The rate table holds, per pair, the (label, index) endpoints hi and lo
    as (E, 2) arrays ordered by full conditional eigenvalue, the downhill
    rate gamma_down (hi -> lo), the uphill rate gamma_up = gamma_down *
    exp(-beta * delta) (lo -> hi) and the gap delta, as (E,) arrays.

    The caches filled by _build_caches are the linear-block core: the
    directed transitions as one flat edge list (_src, _tgt, _rate) over
    states label * d + index, the total outflow of every state, and the
    complex multiplier of every eigenbasis coherence.
    """

    hamiltonian: HybridHamiltonian
    beta: float
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    lo: np.ndarray = field(repr=False)
    gamma_down: np.ndarray = field(repr=False)
    gamma_up: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)
    _src: np.ndarray = field(repr=False, default=None)
    _tgt: np.ndarray = field(repr=False, default=None)
    _rate: np.ndarray = field(repr=False, default=None)
    _outflow: np.ndarray = field(repr=False, default=None)
    _multiplier: np.ndarray = field(repr=False, default=None)

    @property
    def num_labels(self) -> int:
        return self.hamiltonian.num_labels

    @property
    def dim_s(self) -> int:
        return self.hamiltonian.dim_s

    def directed_transitions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed edges read from the rate table: (M, 2) (label, index)
        sources and targets and (M,) rates, each pair's down edge before its
        up edge, zero rates dropped."""
        src = np.stack([self.hi, self.lo], axis=1).reshape(-1, 2)
        tgt = np.stack([self.lo, self.hi], axis=1).reshape(-1, 2)
        rate = np.stack([self.gamma_down, self.gamma_up], axis=1).reshape(-1)
        keep = rate > 0.0
        return src[keep], tgt[keep], rate[keep]

    def max_rate(self) -> float:
        return float(self._rate.max()) if self._rate.size else 0.0

    def min_rate(self) -> float:
        return float(self._rate.min()) if self._rate.size else 0.0

    def detailed_balance_residual(self) -> float:
        """Worst relative defect of gamma_up against the balance formula.

        Recomputed from the stored eigenvalues, so a corrupted rate table
        shows up directly.  A NaN rate gives NaN.
        """
        e = self.eigenvalues
        delta = e[self.hi[:, 0], self.hi[:, 1]] - e[self.lo[:, 0], self.lo[:, 1]]
        expected = self.gamma_down * np.exp(-self.beta * delta)
        defects = np.abs(self.gamma_up - expected) / np.maximum(
            expected, np.finfo(float).tiny
        )
        return float(np.max(defects, initial=0.0))


def build_generator(
    h: HybridHamiltonian, specs: list[TransitionSpec], beta: float
) -> HybridGenerator:
    """Diagonalize the conditionals and resolve the rate table."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    L, d = h.num_labels, h.dim_s
    es = eigh(h.conditionals(), "conditional")
    eps = es.eigenvalues

    parts = [
        np.broadcast_arrays(s.label_a, s.index_a, s.label_b, s.index_b, s.base_rate)
        for s in specs
    ]
    la, ia, lb, ib = (
        np.concatenate([np.zeros(0, np.intp)] + [p[k].ravel() for p in parts])
        for k in range(4)
    )
    kappa = np.concatenate([np.zeros(0)] + [p[4].ravel() for p in parts]).astype(float)
    labels, indices = np.stack([la, lb], axis=1), np.stack([ia, ib], axis=1)
    bad = labels[(labels < 0) | (labels >= L)]
    if bad.size:
        raise ValueError(f"label {bad[0]} outside 0..{L - 1}")
    bad = indices[(indices < 0) | (indices >= d)]
    if bad.size:
        raise ValueError(f"eigenstate index {bad[0]} outside 0..{d - 1}")
    bad = kappa[~(np.isfinite(kappa) & (kappa >= 0))]
    if bad.size:
        raise ValueError(f"base rate must be finite and >= 0, got {float(bad[0])!r}")
    if np.any((la == lb) & (ia == ib)):
        raise ValueError("transition endpoints must differ")

    keep = kappa != 0.0
    a, b = np.stack([la, ia], axis=1)[keep], np.stack([lb, ib], axis=1)[keep]
    kappa = kappa[keep]
    ea, eb = eps[a[:, 0], a[:, 1]], eps[b[:, 0], b[:, 1]]
    a_hi = (ea >= eb)[:, None]
    delta = np.abs(ea - eb)
    gen = HybridGenerator(
        hamiltonian=h,
        beta=beta,
        eigenvalues=eps,
        eigenvectors=es.eigenvectors,
        hi=np.where(a_hi, a, b),
        lo=np.where(a_hi, b, a),
        gamma_down=kappa,
        gamma_up=kappa * np.exp(-beta * delta),
        delta=delta,
    )
    _build_caches(gen)
    return gen


def _build_caches(gen: HybridGenerator) -> None:
    L, d = gen.num_labels, gen.dim_s
    src, tgt, gen._rate = gen.directed_transitions()
    gen._src, gen._tgt = src[:, 0] * d + src[:, 1], tgt[:, 0] * d + tgt[:, 1]
    outflow = np.bincount(gen._src, gen._rate, minlength=L * d).reshape(L, d)
    freq = gen.eigenvalues[:, :, None] - gen.eigenvalues[:, None, :]
    decay = 0.5 * (outflow[:, :, None] + outflow[:, None, :])
    gen._multiplier = -1j * freq - decay
    gen._outflow = outflow


def apply(gen: HybridGenerator, state: HybridState) -> HybridState:
    """Time derivative of a hybrid state under the generator.

    Evaluated in the local eigenbases, where the commutator and every
    anticommutator are elementwise multipliers and the jump gains, scattered
    along the edge list, feed the diagonal; algebraically identical to the
    operator form used by collisional_apply.  The basis changes are batched
    matmuls, not einsum(optimize=True), whose path planning would cost more
    than the 2x2 contraction itself.
    """
    if state.num_labels != gen.num_labels or state.dim_s != gen.dim_s:
        raise ValueError("state shape does not match generator")
    v = gen.eigenvectors
    vh = v.conj().transpose(0, 2, 1)
    s = vh @ state.blocks @ v
    ds = gen._multiplier * s
    pops = np.einsum("cii->ci", s).real.reshape(-1)
    gains = np.bincount(gen._tgt, gen._rate * pops[gen._src], minlength=pops.size)
    idx = np.arange(gen.dim_s)
    ds[:, idx, idx] += gains.reshape(gen.num_labels, gen.dim_s)
    out = v @ ds @ vh
    out = 0.5 * (out + out.conj().transpose(0, 2, 1))
    return HybridState(out)


def basis_change_unitary(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unitary sending the k-th column of eigenvector matrix a to the k-th of b
    (for stacks of a and b, one unitary per pair)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return b @ a.conj().swapaxes(-1, -2)


def collisional_apply(gen: HybridGenerator, state: HybridState) -> HybridState:
    """Same derivative via explicit operator products, for equivalence checks.

    The transitions come from the rate table, not from apply's edge list.
    Every jump acts on its source block moved into the target label's basis
    by the basis-change unitary (the identity within one label).  All
    transitions are stacked and their losses and gains scattered at once.
    """
    if state.num_labels != gen.num_labels or state.dim_s != gen.dim_s:
        raise ValueError("state shape does not match generator")
    rho = state.blocks
    h = gen.hamiltonian.conditionals()
    out = -1j * (h @ rho - rho @ h)
    src, tgt, rate = gen.directed_transitions()
    (cs, ks), (ct, kt) = src.T, tgt.T
    rate = rate[:, None, None]
    vecs = gen.eigenvectors
    src_vec = vecs[cs, :, ks]
    proj_src = src_vec[:, :, None] * src_vec.conj()[:, None, :]
    rho_s = rho[cs]
    loss = 0.5 * rate * (proj_src @ rho_s + rho_s @ proj_src)
    u_tilde = basis_change_unitary(vecs[ct], vecs[cs])
    moved = u_tilde.conj().transpose(0, 2, 1) @ rho_s @ u_tilde
    a_op = vecs[ct, :, kt][:, :, None] * vecs[ct, :, ks].conj()[:, None, :]
    gain = rate * (a_op @ moved @ a_op.conj().transpose(0, 2, 1))
    np.add.at(out, np.concatenate([cs, ct]), np.concatenate([-loss, gain]))
    return HybridState(out)


# ---------------------------------------------------------------------------
# bipartite embedding

def embed_state(state: HybridState) -> np.ndarray:
    """Full (d*L, d*L) matrix with the blocks on the classical diagonal."""
    L, d = state.num_labels, state.dim_s
    full = np.zeros((L * d, L * d), dtype=complex)
    for c in range(L):
        full[c * d : (c + 1) * d, c * d : (c + 1) * d] = state.blocks[c]
    return full


def extract_state(full: np.ndarray, num_labels: int) -> HybridState:
    d = full.shape[0] // num_labels
    blocks = np.stack(
        [full[c * d : (c + 1) * d, c * d : (c + 1) * d] for c in range(num_labels)]
    )
    return HybridState(blocks)


def classical_offdiagonal_norm(full: np.ndarray, num_labels: int) -> float:
    """Largest Frobenius norm among off-diagonal classical blocks; NaN if any is NaN."""
    d = full.shape[0] // num_labels
    blocks = full.reshape(num_labels, d, num_labels, d).transpose(0, 2, 1, 3)
    norms = np.linalg.norm(blocks, axis=(2, 3))
    return float(np.max(norms[~np.eye(num_labels, dtype=bool)], initial=0.0))


def bipartite_superoperator(gen: HybridGenerator, max_dim: int = 256) -> np.ndarray:
    """Dense Lindblad matrix on row-major vec of the embedded state.

    Every jump operator becomes |target><source| between embedded
    eigenvectors.  Quadratic memory in (d*L)^2 keeps this to small systems;
    it exists as an oracle for the block routes, not as a production path.
    """
    L, d = gen.num_labels, gen.dim_s
    dim = L * d
    if dim > max_dim:
        raise ValueError(f"embedded dimension {dim} exceeds cap {max_dim}")
    eye = np.eye(dim)
    h_full = embed_state(HybridState(gen.hamiltonian.conditionals()))
    sup = -1j * (np.kron(h_full, eye) - np.kron(eye, h_full.T))
    for (cs, ks), (ct, kt), rate in zip(*gen.directed_transitions()):
        u_src = np.zeros(dim, dtype=complex)
        u_src[cs * d : (cs + 1) * d] = gen.eigenvectors[cs][:, ks]
        u_tgt = np.zeros(dim, dtype=complex)
        u_tgt[ct * d : (ct + 1) * d] = gen.eigenvectors[ct][:, kt]
        jump = np.outer(u_tgt, u_src.conj())
        jj = jump.conj().T @ jump
        sup += rate * (
            np.kron(jump, jump.conj())
            - 0.5 * (np.kron(jj, eye) + np.kron(eye, jj.T))
        )
    return sup


def superoperator_apply(sup: np.ndarray, full: np.ndarray) -> np.ndarray:
    dim = full.shape[0]
    return (sup @ full.reshape(-1)).reshape(dim, dim)


# ---------------------------------------------------------------------------
# stationary state

def _closed_classes(n: int, src: np.ndarray, tgt: np.ndarray) -> list[np.ndarray]:
    """Closed classes of the jump graph on n nodes, ordered by first member.

    An iterative Tarjan pass finds the strongly connected components in
    O(n + m); a component is closed when no edge leaves it.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in zip(src.tolist(), tgt.tolist()):
        adj[i].append(j)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # a visited node stays on the stack until it gets one
    stack: list[int] = []
    counter = num_comps = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, todo = work[-1]
            for w in todo:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if comp[w] < 0:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while comp[v] < 0:
                        comp[stack.pop()] = num_comps
                    num_comps += 1
    comp = np.array(comp, dtype=np.intp)
    leaves = np.zeros(num_comps, dtype=bool)
    leaves[comp[src[comp[src] != comp[tgt]]]] = True
    classes = [np.flatnonzero(comp == c) for c in np.flatnonzero(~leaves)]
    return sorted(classes, key=lambda members: members[0])


_RESCALE_ABOVE = 2.0**256


def _gth_stationary(
    n: int, src: np.ndarray, tgt: np.ndarray, rate: np.ndarray
) -> np.ndarray:
    """Stationary law of an irreducible chain given as edges (src -> tgt).

    Grassmann-Taksar-Heyman elimination over sparse rows: eliminating a
    state touches only its remaining in- and out-neighbours, so a banded
    chain costs O(n * bandwidth**2).  It is subtraction-free, so entries
    keep full relative accuracy even when the law spans many orders of
    magnitude.  The back-substitution rescales the running law by a power
    of two whenever it grows past 2**256, so it never overflows; weights
    far below the peak underflow to zero instead.
    """
    out: list[dict[int, float]] = [{} for _ in range(n)]
    into: list[dict[int, float]] = [{} for _ in range(n)]
    for i, j, r in zip(src.tolist(), tgt.tolist(), rate.tolist()):
        out[i][j] = into[j][i] = out[i].get(j, 0.0) + r
    back: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for k in range(n - 1, 0, -1):
        row = out[k]
        total = sum(row.values())
        if not total > 0.0:
            raise DegenerateStationaryError(2, "rate matrix is reducible")
        for j in row:
            del into[j][k]
        for i, r in into[k].items():
            w = r / total
            back[k].append((i, w))
            row_i = out[i]
            del row_i[k]
            for j, rj in row.items():
                if j != i:
                    row_i[j] = into[j][i] = row_i.get(j, 0.0) + w * rj
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = sum(pi[i] * w for i, w in back[k])
        if pi[k] > _RESCALE_ABOVE:
            pi[: k + 1] = np.ldexp(pi[: k + 1], -math.frexp(pi[k])[1])
    return pi / np.sum(pi)


def _frozen_coherence_pairs(gen: HybridGenerator) -> int:
    """Count coherence components with exactly zero damping and frequency."""
    scale = max(1.0, float(np.max(np.abs(gen.eigenvalues))))
    a, b = np.triu_indices(gen.dim_s, 1)
    damp = gen._outflow[:, a] + gen._outflow[:, b]
    freq = np.abs(gen.eigenvalues[:, a] - gen.eigenvalues[:, b])
    return 2 * int(np.count_nonzero((damp == 0.0) & (freq <= DEGENERACY_RTOL * scale)))


def stationary_state(gen: HybridGenerator) -> HybridState:
    """Unique stationary hybrid state of the generator.

    Coherences in the local eigenbases damp out, so the fixed point is
    diagonal there and is the stationary law of the population jump
    process.  Raises DegenerateStationaryError when that law is not
    unique (frozen labels, disconnected transition graph, undamped
    degenerate coherences).
    """
    L, d = gen.num_labels, gen.dim_s
    n = L * d
    src, tgt, rate = gen._src, gen._tgt, gen._rate
    classes = _closed_classes(n, src, tgt)
    frozen = _frozen_coherence_pairs(gen)
    null_dim = len(classes) + frozen
    if null_dim != 1:
        raise DegenerateStationaryError(
            null_dim,
            f"{len(classes)} closed population classes, "
            f"{frozen} frozen coherence components",
        )
    # eliminating from the top of the spectrum down removes the least likely
    # state left each time; under detailed balance every ratio r / total in
    # the elimination is then at most one, however far the weights spread
    members = classes[0]
    members = members[np.argsort(gen.eigenvalues.reshape(-1)[members], kind="stable")]
    local = np.full(n, -1, dtype=np.intp)
    local[members] = np.arange(members.size)
    inside = (local[src] >= 0) & (local[tgt] >= 0)
    pi = np.zeros(n)
    pi[members] = _gth_stationary(
        members.size, local[src[inside]], local[tgt[inside]], rate[inside]
    )
    pops = pi.reshape(L, d)
    v = gen.eigenvectors
    result = HybridState(np.einsum("cki,ci,cli->ckl", v, pops, v.conj()))
    residual = float(np.max(np.linalg.norm(apply(gen, result).blocks, axis=(1, 2))))
    tol = 1e-10 * max(1.0, gen.max_rate())
    if not residual <= tol:
        raise RuntimeError(
            f"stationary residual {residual:.3e} exceeds {tol:.1e}"
        )
    return result
