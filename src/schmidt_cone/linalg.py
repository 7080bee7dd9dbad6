"""Dense Hermitian linear algebra: PSD tests, Schmidt coefficients, pairings, Haar QR.

All operations are pure functions on numpy arrays and are safe for concurrent
use.  Matrices at desk scale (side <= 64) only, so everything goes through
dense Hermitian solvers for deterministic results.
"""

from __future__ import annotations

import numpy as np

from .geometry import _check_counts, _check_tolerances, _finite_array

__all__ = [
    "as_hermitian",
    "is_psd",
    "schmidt_spectrum",
    "pairing",
    "max_entangled",
    "flip",
]


def as_hermitian(X) -> np.ndarray:
    """Validate that X is a finite square Hermitian matrix and return it as complex ndarray.

    Hermiticity is checked against an absolute tolerance of ``1e-12 * max(1, frobenius_norm)``.
    A violation, a bool or text X, or a NaN or infinite entry raises ValueError.
    """
    X = _finite_array(X, complex)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {X.shape}")
    scale = max(1.0, float(np.linalg.norm(X)))
    dev = float(np.max(np.abs(X - X.conj().T)))
    if dev > 1e-12 * scale:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e})")
    return X


def _as_bipartite_hermitian(X) -> tuple[np.ndarray, int]:
    """``as_hermitian(X)`` and its d, for X on C^d x C^d with d >= 2."""
    X = as_hermitian(X)
    d2 = X.shape[0]
    d = round(np.sqrt(d2))
    if d * d != d2 or d < 2:
        raise ValueError(f"side {d2} is not d^2 for some d >= 2")
    return X, d


def _haar_qr(g: np.ndarray) -> np.ndarray:
    """Q of each (d, k) Gaussian g, with diag(R) > 0: the Haar QR factor (Mezzadri 2007).

    Batched classical Gram-Schmidt, each projection taken twice ("twice is
    enough": Giraud, Langou and Rozloznik 2005).  Column j reads only columns
    1..j of g, and a real g gives a real Q.
    """
    q = g.swapaxes(-1, -2).copy()  # row j of q is column j of g
    for j in range(q.shape[-2]):
        v, P = q[..., j, :], q[..., :j, :]
        if j:
            for _ in range(2):
                v -= np.einsum("...ji,...j->...i", P, np.einsum("...ji,...i->...j", P.conj(), v))
        v /= np.sqrt(np.einsum("...i,...i->...", v.conj(), v).real)[..., None]
    return np.ascontiguousarray(q.swapaxes(-1, -2))


def is_psd(H, tol: float = 1e-9) -> bool:
    """Whether a Hermitian matrix is positive semidefinite.

    True iff the minimal eigenvalue is >= -tol * max(1, spectral norm).  The
    tolerance is relative to the spectral norm so the test is scale-free;
    points on region boundaries produce zero eigenvalues up to rounding.  A
    NaN, infinite, negative or bool tol is refused.
    """
    _check_tolerances(tol)
    H = as_hermitian(H)
    w = np.linalg.eigvalsh(H)
    scale = max(1.0, float(np.max(np.abs(w))))
    return bool(w[0] >= -tol * scale)


def schmidt_spectrum(vec, dim_a: int, dim_b: int, tol: float = 1e-12) -> np.ndarray:
    """Schmidt coefficients of a bipartite vector, nonincreasing.

    The vector of length ``dim_a * dim_b`` is reshaped row-major to a
    dim_a x dim_b matrix (index (i, j) -> i * dim_b + j, matching ``np.kron``)
    and its singular values above ``tol``, as many as the Schmidt rank, are
    returned (none for a zero vector).  A NaN, inf, bool or text entry is
    refused, as is a NaN, infinite, negative or bool ``tol``.
    """
    _check_tolerances(tol)
    vec = _finite_array(vec, complex).reshape(-1)
    _check_counts(1, dim_a=dim_a, dim_b=dim_b)
    if vec.size != dim_a * dim_b:
        raise ValueError(f"vector length {vec.size} != {dim_a}*{dim_b}")
    sv = np.linalg.svd(vec.reshape(dim_a, dim_b), compute_uv=False)
    return sv[sv > tol]


def pairing(X, Y) -> float:
    """Trace inner product Tr(XY) of two Hermitian matrices (a real number)."""
    X = as_hermitian(X)
    Y = as_hermitian(Y)
    if X.shape != Y.shape:
        raise ValueError(f"dimension mismatch: {X.shape} vs {Y.shape}")
    # Tr(XY) = sum_ij X_ij Y_ji
    return float(np.sum(X * Y.T).real)


def max_entangled(d: int) -> np.ndarray:
    """The maximally entangled unit vector (1/sqrt(d)) sum_j |jj> in C^d x C^d."""
    _check_counts(1, d=d)
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def flip(d: int) -> np.ndarray:
    """The flip (swap) operator F = sum_ij |ij><ji| on C^d x C^d."""
    _check_counts(1, d=d)
    # row (i, j) of F is row (j, i) of the identity
    return np.eye(d * d).reshape(d, d, d * d).swapaxes(0, 1).reshape(d * d, d * d)
