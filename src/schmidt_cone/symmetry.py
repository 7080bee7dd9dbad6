"""Orthogonally covariant maps, invariant states, and twirling.

The two-parameter families

    map(Z)  = (1 - p - q) Tr(Z)/d I + p Z + q Z^T
    state   = (1 - a - b)/d^2 I + a |Omega><Omega| + (b/d) F

are linked by the Choi correspondence: ``CovariantMap(d, a, b).choi()`` equals
``InvariantState(d, a, b).matrix()``.  Twirling over the orthogonal group is
implemented exactly as a 3-dimensional Gram projection onto the commutant
span(I, d|Omega><Omega|, F), and approximately by Haar Monte-Carlo averaging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _check_counts, _check_finite, _finite_array, region_case
from .linalg import _as_bipartite_hermitian, _haar_qr, flip, max_entangled

__all__ = [
    "CovariantMap",
    "InvariantState",
    "InvariantCoordinates",
    "commutant_basis",
    "commutant_gram",
    "twirl_exact",
    "haar_orthogonal_batch",
    "twirl_monte_carlo",
    "apply_channel_right",
]

MC_CHUNK = 1024  # fixed Monte-Carlo chunk size; part of the determinism contract


@dataclass(frozen=True)
class CovariantMap:
    """The orthogonally covariant map Z -> (1-p-q) Tr(Z)/d I + p Z + q Z^T.

    p and q may be floats or exact rationals; matrix operations coerce to
    float, and ``apply`` refuses a NaN, infinite, bool or text entry.  The map
    is Hermitian-preserving for real p, q and trace-preserving by construction.
    """

    d: int
    p: object
    q: object

    def __post_init__(self):
        region_case(self.d, 1)  # refuses d < 2 and a d that is not an integer
        _check_finite(self.p, self.q)

    def apply(self, Z) -> np.ndarray:
        Z = _finite_array(Z, complex)
        if Z.shape != (self.d, self.d):
            raise ValueError(f"expected a {self.d}x{self.d} matrix, got {Z.shape}")
        p, q = float(self.p), float(self.q)
        out = p * Z + q * Z.T
        out += (1.0 - p - q) * (np.trace(Z) / self.d) * np.eye(self.d)
        return out

    def choi(self) -> np.ndarray:
        """Normalized Choi matrix (id x map)(|Omega><Omega|) = (1/d) sum_ij |i><j| x map(|i><j|)."""
        omega = max_entangled(self.d)
        return apply_channel_right(self, np.outer(omega, omega.conj()))


@dataclass(frozen=True)
class InvariantState:
    """The orthogonally invariant operator (1-a-b)/d^2 I + a |Omega><Omega| + (b/d) F."""

    d: int
    a: object
    b: object

    def __post_init__(self):
        region_case(self.d, 1)
        _check_finite(self.a, self.b)

    def matrix(self) -> np.ndarray:
        d = self.d
        a, b = float(self.a), float(self.b)
        omega = max_entangled(d)
        rho = ((1.0 - a - b) / d**2) * np.eye(d * d, dtype=complex)
        rho += a * np.outer(omega, omega.conj())
        rho += (b / d) * flip(d)
        return rho


def commutant_basis(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ordered basis (I, d|Omega><Omega|, F) of the O x O commutant, d as region_case takes."""
    region_case(d, 1)
    omega = max_entangled(d)
    return (
        np.eye(d * d, dtype=complex),
        d * np.outer(omega, omega.conj()),
        flip(d).astype(complex),
    )


def commutant_gram(d: int) -> np.ndarray:
    """Gram matrix Tr(G_i G_j) of the commutant basis.

    Closed form fixed after brute-force trace computation at d = 2..5 (see
    tests): diagonal d^2, off-diagonal d.  Refuses the d that region_case refuses.
    """
    region_case(d, 1)
    G = np.full((3, 3), float(d))
    np.fill_diagonal(G, float(d * d))
    return G


@dataclass(frozen=True)
class InvariantCoordinates:
    """Coefficients of an invariant operator in the basis (I, d|Omega><Omega|, F)."""

    d: int
    c1: float
    c2: float
    c3: float

    def matrix(self) -> np.ndarray:
        g1, g2, g3 = commutant_basis(self.d)
        return self.c1 * g1 + self.c2 * g2 + self.c3 * g3

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)


def twirl_exact(X) -> InvariantCoordinates:
    """Orthogonal (trace inner product) projection of X onto the commutant.

    Solves the 3x3 Gram system with right-hand side Tr(G_i X); this equals the
    Haar average of (O x O) X (O x O)^T.
    """
    X, d = _as_bipartite_hermitian(X)
    gram = commutant_gram(d)
    # det = (d^2-d)^2 (d^2+2d) > 0 for d >= 2
    if not np.linalg.det(gram) > 0.0:
        raise ArithmeticError(f"commutant Gram matrix of d={d} is not positive definite")
    basis = commutant_basis(d)
    rhs = np.array([np.sum(g * X.T).real for g in basis])
    c = np.linalg.solve(gram, rhs)
    return InvariantCoordinates(d, float(c[0]), float(c[1]), float(c[2]))


def haar_orthogonal_batch(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random real orthogonal d x d matrices, (n, d, d): _haar_qr of a Gaussian stack."""
    _check_counts(1, d=d)
    _check_counts(0, n=n)
    return _haar_qr(rng.standard_normal((n, d, d)))


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(chunk_index))


def twirl_monte_carlo(X, n_samples: int, seed: int = 0) -> np.ndarray:
    """Monte-Carlo twirl (1/N) sum_i (O_i x O_i) X (O_i x O_i)^T over Haar samples.

    Deterministic given (seed, n_samples): sampling is split into fixed-size
    chunks, each driven by an independent counter-based Philox stream keyed by
    (seed, chunk index), and partial sums are accumulated in chunk order.  The
    result therefore does not depend on how chunks might be scheduled.

    A chunk's sum is two real GEMMs, in a fixed order, over the stacked
    K_i = O_i x O_i with [Re X; Im X] as one operand: first X K_i^T for every
    i side by side, then the sum over i and the inner index as one
    contraction of length m d^2.
    """
    _check_counts(1, n_samples=n_samples)
    _check_counts(0, seed=seed)
    X, d = _as_bipartite_hermitian(X)
    d2 = d * d
    parts = np.concatenate([X.real, X.imag])  # (2 d^2, d^2)
    total = np.zeros((2, d2, d2))
    done = 0
    chunk_index = 0
    while done < n_samples:
        m = min(MC_CHUNK, n_samples - done)
        O = haar_orthogonal_batch(d, m, _chunk_rng(seed, chunk_index))
        # K[i, (a, b), (c, e)] = O_i[a, c] O_i[b, e], and L is K with the sample index i last
        K = (O[:, :, None, :, None] * O[:, None, :, None, :]).reshape(m * d2, d2)
        L = np.ascontiguousarray(K.reshape(m, d2, d2).transpose(1, 2, 0)).reshape(d2, d2 * m)
        XKt = parts @ K.T  # [(part, row), (i, col)] = (X_part K_i^T)[row, col]
        total += np.matmul(L, XKt.reshape(2, d2 * m, d2))
        done += m
        chunk_index += 1
    return (total[0] + 1j * total[1]) / n_samples


def apply_channel_right(m: CovariantMap, X) -> np.ndarray:
    """(id_n x map)(X) for a finite numeric X on C^n x C^d, block by block: the Choi matrix at n = d."""
    X = _finite_array(X, complex)
    d = m.d
    if X.ndim != 2 or X.shape[0] != X.shape[1] or X.shape[0] % d or not X.size:
        raise ValueError(f"expected an nd x nd matrix with d={d}, got {X.shape}")
    n = X.shape[0] // d
    blocks = X.reshape(n, d, n, d).swapaxes(1, 2)  # blocks[i, j] is the (i, j) block of X
    return np.block([[m.apply(b) for b in row] for row in blocks])
