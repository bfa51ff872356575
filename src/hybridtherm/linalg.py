"""Hermitian linear algebra primitives shared by the rest of the package.

All matrices are dense complex numpy arrays.  Eigenvector phases follow a
fixed convention so that repeated runs produce identical bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_RTOL = 1e-12
EXP_ARG_LIMIT = 700.0


class NonHermitianError(ValueError):
    """Input matrix fails the Hermiticity check."""


class ExpRangeError(ValueError):
    """Requested scaled exponential would leave double-precision range."""


def check_hermitian(mat: np.ndarray, name: str = "matrix") -> None:
    """Reject non-square, non-finite or non-Hermitian input with a located diagnostic.

    A stack of shape (..., d, d) is checked block by block, each against its
    own scale, and the first failing block is named by its flat index.
    """
    mat = np.asarray(mat)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise NonHermitianError(f"{name} must be square, got shape {mat.shape}")
    d = mat.shape[-1]
    flat = mat.reshape(-1, d, d)
    diff = np.abs(flat - flat.conj().transpose(0, 2, 1)).reshape(-1, d * d)
    defect = np.max(diff, axis=1)
    scale = np.maximum(np.max(np.abs(flat).reshape(-1, d * d), axis=1), 1.0)
    # written so that a NaN defect or scale fails
    bad = np.flatnonzero(~(defect <= HERMITICITY_RTOL * scale))
    if bad.size:
        b = int(bad[0])
        idx = np.unravel_index(np.argmax(diff[b]), (d, d))
        label = name if mat.ndim == 2 else f"{name}[{b}]"
        raise NonHermitianError(
            f"{label} is not Hermitian: |M - M^dag| = {defect[b]:.3e} at "
            f"{(int(idx[0]), int(idx[1]))} "
            f"(tolerance {HERMITICITY_RTOL:.1e} * {scale[b]:.3e})"
        )


@dataclass(frozen=True)
class HermitianEigensystem:
    """Spectral decomposition H = V diag(w) V^dag.

    eigenvalues are real and ascending; eigenvectors are the columns of an
    orthonormal matrix with deterministic phases: in each column the
    largest-magnitude component (lowest index on ties) is real positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    # argmax picks the lowest index among exact ties; eigenvector columns
    # have unit norm, so the pivot is never zero
    pivot = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    ref = np.take_along_axis(vectors, pivot, axis=-2)
    out = vectors * (np.abs(ref) / ref)
    # force the pivot exactly real
    np.put_along_axis(out, pivot, np.take_along_axis(out, pivot, axis=-2).real, axis=-2)
    return out


def eigh(mat: np.ndarray, name: str = "matrix") -> HermitianEigensystem:
    """Eigendecompose a Hermitian matrix, or a (..., d, d) stack of them,
    with the package phase convention."""
    check_hermitian(mat, name)
    w, v = np.linalg.eigh(mat)
    return HermitianEigensystem(eigenvalues=w, eigenvectors=_fix_phases(v))


def herm_exp(mat: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(scale * H) for Hermitian H via the spectral decomposition."""
    es = eigh(mat)
    args = scale * es.eigenvalues
    amax = float(np.max(np.abs(args))) if args.size else 0.0
    if amax > EXP_ARG_LIMIT:
        raise ExpRangeError(
            f"scaled spectrum reaches |{amax:.3e}| > {EXP_ARG_LIMIT:.0f}; "
            "exp would leave double range"
        )
    v = es.eigenvectors
    return (v * np.exp(args)) @ v.conj().T


def frobenius(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat))


def block_norms(blocks: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (..., d, d) stack; one whose squared
    entries overflow is retaken on the matrix scaled by a power of two."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(blocks, axis=(-2, -1))
        over = np.isinf(norms)
        if over.any():
            big = np.asarray(blocks)[over]
            scale = np.ldexp(1.0, np.minimum(np.frexp(abs(big).max(axis=(1, 2)))[1], 1023))
            norms[over] = np.linalg.norm(big / scale[:, None, None], axis=(1, 2)) * scale
    return norms


def matmul_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b on (..., d, d) stacks, leading axes broadcast, as d broadcast
    multiply-adds.

    On the 2x2 blocks of the bundled models this is about three times as
    fast as `@`, which pays a BLAS call per matrix; from d = 4 on long
    stacks `@` is faster.  The sum over k runs in index order and without
    fused multiply-adds, so it can differ from `@` in the last bits.
    """
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k, None] * b[..., None, k, :]
    return out


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of (a - b); both arguments must be Hermitian."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    check_hermitian(a, "first argument")
    check_hermitian(b, "second argument")
    w = np.linalg.eigvalsh(a - b)
    return 0.5 * float(np.sum(np.abs(w)))


def logsumexp(args: np.ndarray) -> float:
    """log(sum(exp(args))) with max-shift stabilization."""
    args = np.asarray(args, dtype=float)
    m = float(np.max(args))
    return m + float(np.log(np.sum(np.exp(args - m))))


def shifted_softmax(args: np.ndarray) -> np.ndarray:
    """exp(args) normalized to unit sum, computed after a max shift."""
    args = np.asarray(args, dtype=float)
    e = np.exp(args - np.max(args))
    return e / np.sum(e)


def log_cosh(x):
    """ln cosh(x) elementwise, safe for large |x|."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0)


def center_radius_2x2(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """(m, r) of the Hermitian 2x2 blocks [[a, conj(c)], [c, b]], elementwise.

    The eigenvalues are m - r and m + r, with m = (a + b) / 2 and
    r = sqrt(((a - b) / 2)**2 + |c|**2), so the trace norm is 2 max(|m|, r).
    """
    return 0.5 * (a + b), np.hypot(0.5 * (a - b), np.abs(c))


def eigvalsh_2x2(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (low, high) of the blocks of center_radius_2x2.

    The root of larger magnitude is m + sign(m) r.  The other is taken as
    det / (m + sign(m) r), which keeps its relative digits where m - r
    would cancel; a zero block gives two zeros.  Past about 1e154, where
    det overflows, the other root is m - sign(m) r.
    """
    m, r = center_radius_2x2(a, b, c)
    big = m + np.copysign(r, m)
    with np.errstate(over="ignore", invalid="ignore"):
        det = a * b - (c.real**2 + c.imag**2)
    small = np.divide(det, big, out=np.zeros_like(big), where=big != 0.0)
    small = np.where(np.isfinite(det), small, m - np.copysign(r, m))
    return np.minimum(small, big), np.maximum(small, big)


def eigvalsh_stack(blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (..., d, d) Hermitian stack, read from the
    lower triangle as np.linalg.eigvalsh does; in closed form at d = 2."""
    if blocks.shape[-1] != 2:
        return np.linalg.eigvalsh(blocks)
    low, high = eigvalsh_2x2(blocks[..., 0, 0].real, blocks[..., 1, 1].real, blocks[..., 1, 0])
    return np.stack([low, high], axis=-1)


def trace_norm_stack(blocks: np.ndarray) -> np.ndarray:
    """Trace norm of each block of a (..., d, d) Hermitian stack."""
    if blocks.shape[-1] != 2:
        return np.sum(np.abs(np.linalg.eigvalsh(blocks)), axis=-1)
    m, r = center_radius_2x2(blocks[..., 0, 0].real, blocks[..., 1, 1].real, blocks[..., 1, 0])
    return 2.0 * np.maximum(np.abs(m), r)
