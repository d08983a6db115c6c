"""Dense complex-matrix kernel: square roots, fidelity, trace norm, tensor
products, partial traces and entropies.

All operators are plain ``numpy`` arrays of ``complex128``.  Density matrices
are Hermitian, positive semidefinite, unit-trace square matrices; the helpers
here validate those properties rather than wrapping arrays in a class.
Kronecker ordering is fixed once: in ``tensor(A, B)`` the first argument is
the slow (major) index, i.e. ``tensor(A, B)[i*dB + k, j*dB + l] = A[i, j] *
B[k, l]``.

Every helper takes a stack of matrices, shape ``(..., n, n)``, as well as
one matrix, and treats every matrix of the stack on its own: a stacked call
gives, bit for bit, the values of one call per matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

HERMITICITY_TOL = 1e-8
STATE_TOL = 1e-10
PSD_REJECT = -1e-8
ENTROPY_EIGVAL_CUTOFF = 1e-14


def hermiticity_defect(a: np.ndarray):
    """Largest entrywise deviation from Hermiticity, max |A - A†|, per matrix
    of a stack (a float for one matrix)."""
    a = np.asarray(a)
    return np.max(np.abs(a - np.swapaxes(a.conj(), -1, -2)), axis=(-2, -1), initial=0.0)


def check_hermitian(a: np.ndarray, tol: float, what: str = "matrix") -> None:
    """Raise ValueError naming what and the largest measured asymmetry if
    any matrix of a stack deviates from Hermiticity by more than tol."""
    defect = np.max(hermiticity_defect(a), initial=0.0)
    if defect > tol:
        raise ValueError(f"{what} is not Hermitian: max |A - A†| = {defect:.3e}")


def check_square(a: np.ndarray) -> np.ndarray:
    """a as a complex square matrix or stack of them, shape (..., n, n)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of a state, or of
    every state of a stack, each within ``STATE_TOL``.

    Raises ValueError naming the violated property; returns the validated
    array on success.
    """
    rho = check_square(rho)
    check_hermitian(rho, STATE_TOL, "state")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    off = tr[np.abs(tr - 1.0) > STATE_TOL]
    if off.size:
        raise ValueError(f"state trace is {complex(off[0]):.12g}, not 1 within {STATE_TOL:g}")
    lo = float(np.min(np.linalg.eigvalsh(rho), initial=np.inf))
    if lo < -STATE_TOL:
        raise ValueError(f"state has negative eigenvalue {lo:.3e}")
    return rho


def psd_sqrt(rho: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix or stack.

    Rejects an input whose Hermiticity defect exceeds ``HERMITICITY_TOL``,
    reporting the largest measured asymmetry.  Eigenvalues above
    ``PSD_REJECT`` but below zero are treated as rounding noise and clamped
    to zero; anything more negative is rejected.
    """
    rho = check_square(rho)
    check_hermitian(rho, HERMITICITY_TOL)
    w, v = np.linalg.eigh(rho)  # eigenvalues ascending
    lo = float(np.min(w[..., 0], initial=np.inf))
    if lo < PSD_REJECT:
        raise ValueError(f"matrix is not PSD: eigenvalue {lo:.3e} < {PSD_REJECT:g}")
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def trace_norm(a: np.ndarray):
    """Sum of |eigenvalues| of a Hermitian matrix, per matrix of a stack (a
    float for one matrix).

    Rejects an input whose Hermiticity defect exceeds ``STATE_TOL``,
    reporting the largest measured asymmetry; the one trace norm of a
    non-Hermitian product, in ``fidelity``, takes its own SVD.
    """
    a = check_square(a)
    check_hermitian(a, STATE_TOL)
    return np.sum(np.abs(np.linalg.eigvalsh(a)), axis=-1)[()]


def fidelity(rho: np.ndarray, sigma: np.ndarray):
    """State fidelity ||sqrt(rho) sqrt(sigma)||_1, in [0, 1], per pair of
    matching stacks (a float for one pair).

    Equals 1 iff the states coincide and 0 iff their supports are
    orthogonal; symmetric in its arguments.
    """
    rho = check_square(rho)
    sigma = check_square(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    root_rho, root_sigma = psd_sqrt(np.stack([rho, sigma]))
    prod = root_rho @ root_sigma
    val = np.sum(np.linalg.svd(prod, compute_uv=False), axis=-1)
    return np.where(val < 1.0 + 1e-9, np.clip(val, 0.0, 1.0), val)[()]


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of the last two axes, first argument major; leading
    axes broadcast, so stacks give one product per entry."""
    # a copy, so the product is always a fresh array its caller may write to
    out = np.array(factors[0], dtype=complex)
    for f in factors[1:]:
        f = np.asarray(f, dtype=complex)
        # the products a_ij b_kl in the order np.kron takes them
        prod = out[..., :, None, :, None] * f[..., None, :, None, :]
        out = prod.reshape(prod.shape[:-4] + (out.shape[-2] * f.shape[-2], out.shape[-1] * f.shape[-1]))
    return out


def partial_trace(
    rho: np.ndarray, factor_dims: Sequence[int], keep: Sequence[int]
) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``, per matrix of a
    stack.

    ``factor_dims`` are the dimensions of the factors in major-to-minor
    order (matching ``tensor``); their product must equal the matrix
    dimension.  ``keep`` lists factor indices to retain, at least one.
    """
    rho = check_square(rho)
    dims = [int(d) for d in factor_dims]
    if int(np.prod(dims)) != rho.shape[-1]:
        raise ValueError(
            f"factor dims {dims} do not multiply to matrix dim {rho.shape[-1]}"
        )
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("must keep at least one factor")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")

    lead = rho.shape[:-2]
    work = rho.reshape(lead + tuple(dims + dims))
    # trace highest index first so lower positions stay valid
    for idx in sorted((i for i in range(len(dims)) if i not in keep), reverse=True):
        axis = len(lead) + idx
        work = np.trace(work, axis1=axis, axis2=axis + (work.ndim - len(lead)) // 2)
    d_keep = int(np.prod([dims[k] for k in keep]))
    return np.ascontiguousarray(work.reshape(lead + (d_keep, d_keep)))


def entropy_bits(p: np.ndarray, cutoff: float):
    """-sum p log2 p in bits over the entries of each row of p above cutoff
    (0 log 0 = 0); a float for one row, and +0.0 for a row that keeps none.

    A dropped entry adds 1 log2 1 = +0.0, which leaves a sum of kept terms
    (never -0.0) as it was, so a row of fewer than 8 entries, which numpy
    adds in order, gives the bits of the sum over its kept entries alone.
    """
    p = np.asarray(p, dtype=float)
    keep = p > cutoff
    kept = np.where(keep, p, 1.0)
    return np.where(np.any(keep, axis=-1), -np.sum(kept * np.log2(kept), axis=-1), 0.0)[()]


def von_neumann_entropy(rho: np.ndarray):
    """Von Neumann entropy in bits, -sum(w log2 w) over eigenvalues, per
    matrix of a stack (a float for one matrix).

    Eigenvalues below ``ENTROPY_EIGVAL_CUTOFF`` are skipped (0 log 0 = 0).
    """
    return entropy_bits(np.linalg.eigvalsh(check_square(rho)), ENTROPY_EIGVAL_CUTOFF)
