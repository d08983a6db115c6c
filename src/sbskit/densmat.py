"""Dense complex-matrix kernel: eigensystems, fidelity, trace norm, tensor
products, partial traces and entropies.

All operators are plain ``numpy`` arrays of ``complex128``.  Density matrices
are Hermitian, positive semidefinite, unit-trace square matrices; the helpers
here validate those properties rather than wrapping arrays in a class.
Kronecker ordering is fixed once: in ``tensor(A, B)`` the first argument is
the slow (major) index, i.e. ``tensor(A, B)[i*dB + k, j*dB + l] = A[i, j] *
B[k, l]``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

HERMITICITY_TOL = 1e-8
STATE_TOL = 1e-10
PSD_CLAMP = -1e-10
PSD_REJECT = -1e-8
ENTROPY_EIGVAL_CUTOFF = 1e-14


class Spectrum(NamedTuple):
    """Eigendecomposition with eigenvalues sorted descending.

    ``eigenvectors[:, k]`` is the unit eigenvector for ``eigenvalues[k]``;
    the input is recovered as ``V @ diag(w) @ V†``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation from Hermiticity, max |A - A†|."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_density_matrix(rho: np.ndarray, tol: float = STATE_TOL) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of a state.

    Raises ValueError naming the violated property; returns the validated
    array on success.
    """
    rho = check_square(rho)
    defect = hermiticity_defect(rho)
    if defect > tol:
        raise ValueError(f"state is not Hermitian: max |A - A†| = {defect:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol:
        raise ValueError(f"state trace is {tr:.12g}, not 1 within {tol:g}")
    lo = float(np.min(np.linalg.eigvalsh(rho)))
    if lo < -tol:
        raise ValueError(f"state has negative eigenvalue {lo:.3e}")
    return rho


def hermitian_eigensystem(h: np.ndarray, tol: float = HERMITICITY_TOL) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Rejects inputs whose Hermiticity defect exceeds ``tol``, reporting the
    measured asymmetry.
    """
    h = check_square(h)
    defect = hermiticity_defect(h)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: max |A - A†| = {defect:.3e}")
    w, v = np.linalg.eigh(h)
    order = np.argsort(w)[::-1]
    return Spectrum(np.ascontiguousarray(w[order]), np.ascontiguousarray(v[:, order]))


def psd_sqrt(rho: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues above ``PSD_REJECT`` but below zero are treated as rounding
    noise and clamped to zero; anything more negative is rejected.
    """
    w, v = hermitian_eigensystem(rho)
    lo = float(w[-1])
    if lo < PSD_REJECT:
        raise ValueError(f"matrix is not PSD: eigenvalue {lo:.3e} < {PSD_REJECT:g}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|."""
    a = check_square(a)
    if hermiticity_defect(a) <= STATE_TOL:
        return float(np.sum(np.abs(np.linalg.eigvalsh(a))))
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """State fidelity ||sqrt(rho) sqrt(sigma)||_1, in [0, 1].

    Equals 1 iff the states coincide and 0 iff their supports are
    orthogonal; symmetric in its arguments.
    """
    rho = check_square(rho)
    sigma = check_square(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    prod = psd_sqrt(rho) @ psd_sqrt(sigma)
    val = float(np.sum(np.linalg.svd(prod, compute_uv=False)))
    return min(max(val, 0.0), 1.0) if val < 1.0 + 1e-9 else val


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product, first argument major."""
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def partial_trace(
    rho: np.ndarray, factor_dims: Sequence[int], keep: Sequence[int]
) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``factor_dims`` are the dimensions of the factors in major-to-minor
    order (matching ``tensor``); their product must equal the matrix
    dimension.  ``keep`` lists factor indices to retain, at least one.
    """
    rho = check_square(rho)
    dims = [int(d) for d in factor_dims]
    if int(np.prod(dims)) != rho.shape[0]:
        raise ValueError(
            f"factor dims {dims} do not multiply to matrix dim {rho.shape[0]}"
        )
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("must keep at least one factor")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")

    n = len(dims)
    work = rho.reshape(dims + dims)
    # trace highest index first so lower positions stay valid
    for idx in sorted((i for i in range(n) if i not in keep), reverse=True):
        work = np.trace(work, axis1=idx, axis2=idx + work.ndim // 2)
    d_keep = int(np.prod([dims[k] for k in keep]))
    return np.ascontiguousarray(work.reshape(d_keep, d_keep))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, -sum(w log2 w) over eigenvalues.

    Eigenvalues below ``ENTROPY_EIGVAL_CUTOFF`` are skipped (0 log 0 = 0).
    """
    w = np.linalg.eigvalsh(check_square(rho))
    w = w[w > ENTROPY_EIGVAL_CUTOFF]
    return float(-np.sum(w * np.log2(w))) if w.size else 0.0
