"""Independent numerical verification of classifier decisions.

Every closed-form decision has an independent check here: frame-compression
PSD tests, the block-condition re-derivation, frame-overlap optimization
against the known minimum, extreme witness pairing and search, Monte-Carlo
twirl consistency, and small-dimension cone-duality sanity sampling.

The frame-compression matrices A I + p kP + q Fv of a stack of frames have one
assembly, _compressions, for one point or a row of points; tomiyama_check,
the grid's explicit-frame rows and its per-point random frames all use it, and
tomiyama_matrix is its literal reference.  The grid tests a row's explicit
frames one at a time, in the order of explicit_frames: an exterior point
stops at its first violating frame, an interior point sees them all.  The
protocols are embarrassingly parallel over grid points; each point draws its
own frames from a counter-derived seed, so results are independent of
scheduling and worker count.

A report is violated exactly when it carries a witness: each suite names
what it found against the closed forms, and a consistent run names nothing.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .classify import _BLOCK, is_k_positive, kpos_margin_grid, schmidt_margin_grid
from .geometry import _check_counts, _check_finite, _check_tolerances, _finite_array, _is_exact
from .geometry import _witness_points, region_case, state_region_vertices
from .linalg import _as_bipartite_hermitian, _haar_qr
from .symmetry import CovariantMap, InvariantState, apply_channel_right, twirl_exact, twirl_monte_carlo

__all__ = [
    "Frame",
    "OracleReport",
    "standard_frame",
    "fourier_frame",
    "pair_frame",
    "random_frames",
    "explicit_frames",
    "tomiyama_matrix",
    "tomiyama_check",
    "frame_overlap",
    "fourier_overlap_exact",
    "explicit_overlap_minimum",
    "frame_overlap_minimize",
    "block_conditions",
    "block_conditions_grid",
    "witness_pairing",
    "witness_points",
    "witness_violation_search",
    "block_positivity_falsifier",
    "duality_sanity",
    "grid_agreement",
    "witness_grid_check",
    "frame_minima_check",
    "twirl_consistency",
    "default_workers",
]


def default_workers() -> int:
    """Pool worker count: the CPUs this process may run on, capped by SCHMIDT_CONE_THREADS.

    A set, non-empty cap that is not an integer >= 1 is refused.
    """
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    cap = os.environ.get("SCHMIDT_CONE_THREADS")
    if cap:
        try:
            limit = int(cap)
        except ValueError:
            limit = 0
        if limit < 1:
            raise ValueError(f"SCHMIDT_CONE_THREADS must be an integer >= 1, got {cap!r}")
        n = min(n, limit)
    return n


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """Ordered orthonormal k-tuple of complex d-vectors (columns of ``vectors``).

    A (d, k) that region_case refuses, a wrong shape, a NaN, infinite, bool or text
    entry, or columns that are not orthonormal within 1e-10 raise ``ValueError``.
    """

    d: int
    k: int
    vectors: np.ndarray

    def __post_init__(self):
        region_case(self.d, self.k)
        v = _finite_array(self.vectors, complex)  # a NaN Gram deviation would pass the test below
        if v.shape != (self.d, self.k):
            raise ValueError(f"expected shape ({self.d}, {self.k}), got {v.shape}")
        gram = v.conj().T @ v
        if np.max(np.abs(gram - np.eye(self.k))) > 1e-10:
            raise ValueError("frame vectors are not orthonormal")
        object.__setattr__(self, "vectors", v)


def standard_frame(d: int, k: int) -> Frame:
    """The first k standard basis vectors (a real frame); refuses what region_case refuses."""
    region_case(d, k)
    return Frame(d, k, np.eye(d, k, dtype=complex))


def fourier_frame(d: int, k: int) -> Frame:
    """v_j = (1/sqrt(d)) sum_l omega^{l(j-1)} e_l with omega = exp(2 pi i / d).

    Refuses what region_case refuses.
    """
    region_case(d, k)
    l = np.arange(1, d + 1)[:, None]
    j = np.arange(k)[None, :]
    return Frame(d, k, np.exp(2j * np.pi * l * j / d) / np.sqrt(d))


def pair_frame(d: int, k: int) -> Frame:
    """v_j = (e_{2j-1} + i e_{2j}) / sqrt(2); requires 2k <= d, region_case 1 or 2."""
    if region_case(d, k) > 2:
        raise ValueError("pair frame needs 2k <= d")
    v = np.zeros((d, k), dtype=complex)
    for j in range(k):
        v[2 * j, j] = 1 / np.sqrt(2)
        v[2 * j + 1, j] = 1j / np.sqrt(2)
    return Frame(d, k, v)


def explicit_frames(d: int, k: int) -> list[tuple[str, Frame]]:
    """The named frames used before any random search: standard, fourier, pair."""
    out = [("standard", standard_frame(d, k)), ("fourier", fourier_frame(d, k))]
    if 2 * k <= d:
        out.append(("pair", pair_frame(d, k)))
    return out


def random_frames(d: int, k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random frames as an (n, d, k) array (first k columns of unitaries).

    Draws the (n, d, d) complex Gaussian of a Haar unitary (Mezzadri 2007) but
    forms and orthonormalises only its first k columns: in the Gram-Schmidt
    kernel (linalg._haar_qr) column j reads only columns 1..j, so these are
    the first k columns of that unitary.
    """
    region_case(d, k)
    _check_counts(0, n=n)
    a = rng.standard_normal((n, d, d))
    b = rng.standard_normal((n, d, d))
    g = np.empty((n, d, k), dtype=complex)
    g.real = a[..., :k]
    g.imag = b[..., :k]
    return _haar_qr(g)


# ---------------------------------------------------------------------------
# Frame-compression criterion
# ---------------------------------------------------------------------------


def tomiyama_matrix(m: CovariantMap, fr: Frame) -> np.ndarray:
    """The compression sum_{i,j<=k} |i><j| x map(|v_i><v_j|) = (id_k x map)(|v><v|), kd x kd.

    The map is k-positive iff this is PSD for every orthonormal k-frame (Tomiyama 1985).
    """
    if fr.d != m.d:
        raise ValueError(f"dimension mismatch: frame d={fr.d}, map d={m.d}")
    v = fr.vectors.T.reshape(-1)  # entry (i, a) is v_i[a]
    return apply_channel_right(m, np.outer(v, v.conj()))


def _compressions(M: np.ndarray, F: np.ndarray, V: np.ndarray, p, q, d: int) -> np.ndarray:
    """The compressions A I + p kP + q Fv, A = (1-p-q)/d, of the frames V (n, d, k), into M.

    With v the kd-vector of entries V[a, i] at index (i, a), kP = |v><v| and
    Fv[(i, a), (j, b)] = kP[(i, b), (j, a)] is its partial transpose over the
    d index (Peres 1996).  p and q are floats for one point, M and F then of
    shape (n, kd, kd), or equal-length arrays for a row of points, whose axis
    goes in front of the frames'.  F is scratch, left holding q Fv.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n, _, k = V.shape
    v = V.transpose(0, 2, 1).reshape(n, k * d)
    np.multiply(v[:, :, None], v[:, None, :].conj(), out=M)  # kP, for every point
    blocks = M.shape[:-2] + (k, d, k, d)
    Fv = M.reshape(blocks).swapaxes(-3, -1)  # a view of kP
    np.multiply(q.reshape(q.shape + (1,) * 5), Fv, out=F.reshape(blocks))
    M *= p.reshape(p.shape + (1, 1, 1))
    diag = np.einsum("...ii->...i", M)
    diag += ((1.0 - p - q) / d).reshape(p.shape + (1, 1))
    M += F
    return M


def _relative_min_eig(Ms: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(Ms)
    scale = np.maximum(1.0, np.max(np.abs(w), axis=-1))
    return w[..., 0] / scale


def _all_psd_fast(
    M: np.ndarray, F: np.ndarray, V: np.ndarray, p: float, q: float, d: int, tol: float
) -> bool:
    """Whether the compressions of all frames V at (p, q) are PSD, to tolerance tol.

    The grid's one PSD test of a point's random frames, interior or exterior.
    One batched Cholesky of the matrices shifted by tol >= 0 on the diagonal:
    the eigenvalue test passes when lambda_min >= -tol max(1, max|lambda|), a
    bound at most -tol, so a success implies it, up to Cholesky's rounding.
    The matrices are built in the workspace M (F is scratch, see
    _compressions) and shifted in place, so when Cholesky fails they are
    built again and the eigenvalue test decides.
    """
    _compressions(M, F, V, p, q, d)
    diag = np.einsum("...ii->...i", M)
    diag += tol
    try:
        np.linalg.cholesky(M)
        return True
    except np.linalg.LinAlgError:
        return bool(np.all(_relative_min_eig(_compressions(M, F, V, p, q, d)) >= -tol))


def tomiyama_check(
    d: int,
    p: float,
    q: float,
    k: int,
    n_random: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
) -> "OracleReport":
    """PSD check of the frame compression at (p, q): explicit frames, then random ones.

    The n_random Haar frames are seeded by (seed, d, k); all frames go through
    one _compressions stack and one eigvalsh call.  A violated verdict names
    the first violating frame: an explicit one by name, counting the frames up
    to it as ``samples``, or a random one by index, counting all.
    ``worst_margin`` is the smallest relative minimal eigenvalue over the
    counted frames.  A NaN, infinite or negative tol is refused, as are a
    negative n_random and a k outside 1..d; n_random = 0 tests the explicit
    frames alone.  p and q follow the classifier's scalar rule: a NaN,
    infinite or bool one raises ``ValueError``, text ``TypeError``.
    """
    _check_tolerances(tol)
    _check_counts(0, n_random=n_random, seed=seed)
    m = CovariantMap(d, p, q)  # refuses a NaN, infinite, bool or text point
    expl = explicit_frames(d, k)  # refuses a k outside 1..d
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(d, k)))
    V = np.concatenate([[fr.vectors for _, fr in expl], random_frames(d, k, n_random, rng)])
    M = np.empty((len(V), k * d, k * d), dtype=complex)
    margins = _relative_min_eig(_compressions(M, np.empty_like(M), V, m.p, m.q, d))
    bad = np.flatnonzero(margins < -tol)
    if not bad.size:
        return OracleReport(samples=len(V), worst_margin=float(np.min(margins)))
    i = int(bad[0])
    if i < len(expl):
        witness, tried = {"frame": expl[i][0]}, i + 1
    else:
        witness, tried = {"frame": "random", "index": i - len(expl)}, len(V)
    witness["min_eig"] = float(margins[i])
    worst = float(np.min(margins[:tried]))
    return OracleReport(witness, samples=tried, worst_margin=worst)


# ---------------------------------------------------------------------------
# Frame overlap and its minimization
# ---------------------------------------------------------------------------


def frame_overlap(fr: Frame) -> float:
    """sum_{j,j'} |<v_j | conj(v_j')>|^2, the conjugate-overlap functional."""
    return float(_overlaps(fr.vectors[None])[0])


def fourier_overlap_exact(d: int, k: int) -> int:
    """Exact overlap of the fourier frame: #{(j, j') in [1,k]^2 : d | j+j'-2}."""
    region_case(d, k)
    return sum(
        1 for j in range(1, k + 1) for jp in range(1, k + 1) if (j + jp - 2) % d == 0
    )


def explicit_overlap_minimum(d: int, k: int) -> int:
    """Best exact overlap among the explicit frames (attains max(2k-d, 0))."""
    vals = [k, fourier_overlap_exact(d, k)]  # standard, fourier
    if 2 * k <= d:
        vals.append(0)  # pair frame overlaps vanish identically
    return min(vals)


def _overlaps(V: np.ndarray) -> np.ndarray:
    """||V_r^T V_r||_F^2 for each frame V_r of a (restarts, d, k) stack."""
    return np.sum(np.abs(V.swapaxes(-1, -2) @ V) ** 2, axis=(1, 2))


def _overlap_gradient(V: np.ndarray) -> np.ndarray:
    # f(V) = ||V^T V||_F^2; euclidean gradient is 4 conj(V) (V^T V), frame by frame
    return 4.0 * V.conj() @ (V.swapaxes(-1, -2) @ V)


def frame_overlap_minimize(
    d: int,
    k: int,
    restarts: int = 50,
    iters: int = 150,
    seed: int = 0,
) -> tuple[float, Frame]:
    """Minimum of the overlap functional over orthonormal k-frames.

    Takes the best of the explicit frames and of projected-gradient descents
    (re-orthonormalization after each step) from random starts.  The result
    is always <= the explicit-frame value and cannot drop below the known
    floor max(2k - d, 0) up to rounding.

    The restarts run as one (restarts, d, k) stack: each iteration takes one
    batched gradient and QR over the restarts still descending, and each
    restart keeps its own step, accept test and stop at a step below 1e-12.
    Every restart follows the same path as it would alone, and ties go to
    the explicit frames, then to the earliest restart.
    """
    _check_counts(0, restarts=restarts, iters=iters, seed=seed)
    best_val, best_frame = None, None
    for _, fr in explicit_frames(d, k):
        val = frame_overlap(fr)
        if best_val is None or val < best_val:
            best_val, best_frame = val, fr
    if restarts == 0:
        return best_val, best_frame
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(d, k)))
    g = rng.standard_normal((restarts, 2, d, k))  # restart by restart: real, then imaginary
    V = np.linalg.qr(g[:, 0] + 1j * g[:, 1])[0]
    val = _overlaps(V)
    step = np.full(restarts, 0.05)
    live = np.arange(restarts)
    for _ in range(iters):
        if live.size == 0:
            break
        W, s = V[live], step[live]
        cand = np.linalg.qr(W - s[:, None, None] * _overlap_gradient(W))[0]
        cand_val = _overlaps(cand)
        better = cand_val < val[live]
        V[live[better]] = cand[better]
        val[live[better]] = cand_val[better]
        s = np.where(better, s * 1.2, s * 0.5)
        step[live] = s
        live = live[better | (s >= 1e-12)]
    r = int(np.argmin(val))
    if val[r] < best_val:
        best_val, best_frame = float(val[r]), Frame(d, k, np.linalg.qr(V[r])[0])
    return best_val, best_frame


# ---------------------------------------------------------------------------
# Block conditions from the PSD decomposition of the compression matrix
# ---------------------------------------------------------------------------


def block_conditions(d: int, p, q, k: int, xi1sq) -> bool:
    """The six PSD conditions of the compression block decomposition.

    With A = (1-p-q)/d, requires A-q >= 0, A+q >= 0, A >= 0,
    A+q+pk*s >= 0, A+pk-pk*s >= 0 and (A+q)(A+pk) - pkq*s >= 0 at the overlap
    value s = xi1sq.  k-positivity (1 < k < d) is equivalent to these holding
    at s in {1, max(2k-d, 0)/k}.  A bool or non-finite p, q is refused.
    """
    _check_finite(p, q)
    return all(c >= 0 for c in _block_checks(d, p, q, k, xi1sq))


def block_conditions_grid(d: int, P, Q, k: int, xi1sq: float) -> np.ndarray:
    """Vectorized block_conditions over real arrays (strict >= 0), refusing a NaN, inf, bool or text entry."""
    P, Q = _finite_array(P), _finite_array(Q)
    return np.logical_and.reduce([c >= 0 for c in _block_checks(d, P, Q, k, xi1sq)])


def _block_checks(d: int, p, q, k: int, xi1sq) -> tuple:
    """The six block-condition values; exact for int/Fraction, elementwise on arrays."""
    region_case(d, k)
    _check_finite(xi1sq)
    if not 0 <= xi1sq <= 1:
        raise ValueError("xi1sq must lie in [0, 1]")
    A = Fraction(1 - p - q, d) if _is_exact(p, q, xi1sq) else (1 - p - q) / d
    pk = p * k
    return (
        A - q,
        A + q,
        A,
        A + q + pk * xi1sq,
        A + pk - pk * xi1sq,
        (A + q) * (A + pk) - pk * q * xi1sq,
    )


# ---------------------------------------------------------------------------
# Witness pairing and search
# ---------------------------------------------------------------------------


def _witness_form(d: int, a, b, p, q):
    """The extreme-witness form a c1 + b c2 + 1/(d-1), c1 = (d+1)p + q, c2 = p + (d+1)q.

    Exact for int/Fraction inputs; on arrays it is elementwise, broadcasting
    state points (a, b) against witness points (p, q).
    """
    c1 = (d + 1) * p + q
    c2 = p + (d + 1) * q
    return a * c1 + b * c2 + (Fraction(1, d - 1) if _is_exact(a, b, p, q) else 1.0 / (d - 1))


def witness_pairing(s: InvariantState, m: CovariantMap):
    """Closed-form witness value (p q) [[d+1, 1], [1, d+1]] (a b)^T + 1/(d-1).

    Its sign matches the sign of <Omega|(id x map)(state)|Omega>; the trace
    pairing equals (d-1)/d^2 times this value (measured, see tests).
    """
    if s.d != m.d:
        raise ValueError(f"dimension mismatch: state d={s.d}, map d={m.d}")
    return _witness_form(s.d, s.a, s.b, m.p, m.q)


def witness_points(d: int, k: int, arc_samples: int = 256) -> np.ndarray:
    """Extreme points of the k-positivity region: vertices plus arc samples (>= 2).

    A float (n, 2) array of the map boundary's traversal: its vertices, then the
    arc's samples between its ends (none in the cases without an arc).  Built
    once per (d, k, arc_samples) among the last 64, as the boundaries are, and
    shared: the array is read-only, and a repeated call returns the same one.
    """
    _check_counts(2, arc_samples=arc_samples)  # before the cache hashes it
    return _witness_points(d, k, arc_samples)


def witness_violation_search(
    s: InvariantState,
    k: int,
    arc_samples: int = 256,
    threshold: float = -1e-12,
) -> tuple[float, float, float] | None:
    """Most negative extreme-witness pairing below threshold, or None.

    A returned (p, q, value) certifies Schmidt number > k; absence of a
    violation is evidence of membership at the sampled resolution.  A NaN,
    infinite or bool threshold is refused, as is one above 0, where a
    pairing >= 0 would certify nothing.
    """
    _check_finite(threshold)
    if threshold > 0:
        raise ValueError(f"threshold must be <= 0, got {threshold!r}")
    pts = witness_points(s.d, k, arc_samples)
    vals = _witness_form(s.d, float(s.a), float(s.b), pts[:, 0], pts[:, 1])
    i = int(np.argmin(vals))
    if vals[i] < threshold:
        return (float(pts[i, 0]), float(pts[i, 1]), float(vals[i]))
    return None


# ---------------------------------------------------------------------------
# Heuristic block-positivity falsifier
# ---------------------------------------------------------------------------


def _half_step(X4: np.ndarray, F: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Least <xi|X|xi> over unit xi = G Q^T, Q = F made orthonormal (thin SVD, all k columns).

    As ||G Q^T|| = ||G||, that is the least eigenpair of (I_d x Q)^H X (I_d x Q),
    indexed (i, a); returns its value, the d x k factor G, and Q.
    """
    d, k = F.shape
    Q = np.linalg.svd(F, full_matrices=False)[0]
    w, U = np.linalg.eigh(np.einsum("abce,bi,ej->iajc", X4, Q.conj(), Q).reshape(k * d, k * d))
    return float(w[0]), U[:, 0].reshape(k, d).T, Q


def block_positivity_falsifier(
    X,
    k: int,
    iters: int = 200,
    seed: int = 0,
    tol: float = 1e-10,
) -> np.ndarray | None:
    """Search for a Schmidt-rank-<=k unit vector xi with <xi|X|xi> < 0.

    Alternating minimization over xi = A B^T (a d x d matrix) from a seeded
    Gaussian B: each half-step fixes one factor, makes it orthonormal and
    takes the other as the least eigenvector of X compressed to its span
    (_half_step; the second runs on X with its tensor factors swapped), until
    the value is below -tol * max(1, ||X||_2) or iters rounds are done.
    Heuristic: only a returned violator is load-bearing; None proves nothing.
    X must be Hermitian on C^d x C^d with d >= 2, k in 1..d, iters >= 1 and
    tol finite and >= 0.
    """
    _check_tolerances(tol)
    _check_counts(0, seed=seed)
    _check_counts(1, iters=iters)
    X, d = _as_bipartite_hermitian(X)
    region_case(d, k)
    scale = max(1.0, float(np.linalg.norm(X, 2)))
    X4 = X.reshape(d, d, d, d)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(97,)))
    B = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    for _ in range(iters):
        val, A, B = _half_step(X4, B)
        val, B, A = _half_step(X4.transpose(1, 0, 3, 2), A)
        if val < -tol * scale:
            xi = np.einsum("ai,bi->ab", A, B).reshape(d * d)
            return xi / np.linalg.norm(xi)
    return None


# ---------------------------------------------------------------------------
# Reports and suite drivers
# ---------------------------------------------------------------------------


@dataclass
class OracleReport:
    """Outcome of a verification run: violated exactly when it carries a witness."""

    witness: object = None
    samples: int = 0
    worst_margin: float = float("inf")
    details: dict = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return self.witness is None

    @property
    def verdict(self) -> str:
        return "consistent" if self.witness is None else "violated"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": self.witness,
            "samples": self.samples,
            # strict JSON has no Infinity or NaN: a run that measured no margin says null
            "worst_margin": self.worst_margin if np.isfinite(self.worst_margin) else None,
            "details": self.details,
        }


def duality_sanity(d: int, samples: int = 1000, seed: int = 0) -> OracleReport:
    """Dual-cone pairing sanity at desk scale (d <= 4).

    Random entanglement-breaking Choi matrices (convex mixtures of product
    projectors) paired against classifier-certified positive maps, and random
    CP Choi matrices against classifier-certified CP maps, must pair >= 0.
    """
    region_case(d, 1)  # refuses d < 2 and a d that is not an integer
    if d > 4:
        raise ValueError("duality sanity is desk-scale only (d <= 4)")
    _check_counts(2, samples=samples)  # one sample of each pairing
    _check_counts(0, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(11, d)))
    worst = np.inf
    lo = -1.0 / (d - 1) - 0.3
    half = samples // 2

    def _sample_region(k: int) -> tuple[float, float]:
        while True:
            p = rng.uniform(lo, 1.3)
            q = rng.uniform(lo, 1.3)
            if is_k_positive(d, p, q, k).member:
                return p, q

    witness = None
    for i in range(samples):
        if i < half:
            w = rng.dirichlet(np.ones(4))
            X = np.zeros((d * d, d * d), dtype=complex)
            for t in range(4):
                u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                uv = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v)).ravel()
                X += w[t] * np.outer(uv, uv.conj())
            pair, k = "EB-vs-positive", 1
        else:
            g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
            X = g @ g.conj().T
            X /= np.trace(X).real
            pair, k = "CP-vs-CP", d
        p, q = _sample_region(k)
        val = float(np.sum(X * InvariantState(d, p, q).matrix().T).real)
        if val < worst:
            worst, witness = val, {"pair": pair, "p": p, "q": q, "value": val}
    return OracleReport(witness if worst < -1e-10 else None, samples=samples, worst_margin=float(worst))


# --- classifier <-> frame-compression grid agreement -----------------------


def _grid_task(args) -> dict:
    (d, k, grid_n, box, rows, n_random, seed, band, tol) = args
    axis = np.linspace(box[0], box[1], grid_n)
    expl = np.stack([fr.vectors for _, fr in explicit_frames(d, k)])
    # per-task workspaces, reused on every row and at every point: R for a
    # row's explicit-frame compressions, M and F for a point's random frames
    R = np.empty((2, grid_n, 1, k * d, k * d), dtype=complex)
    M = np.empty((n_random, k * d, k * d), dtype=complex)
    F = np.empty_like(M)
    disagreements = []
    random_only = 0
    checked = 0
    worst_inside = np.inf
    for ix in rows:
        P = np.full(grid_n, axis[ix])
        margins = kpos_margin_grid(d, k, P, axis)
        cols = np.nonzero(np.abs(margins) > band)[0]
        checked += cols.size
        inside = margins > 0
        violated = np.zeros(grid_n, dtype=bool)
        live = cols  # the points the next explicit frame tests
        # one explicit frame at a time, one eigvalsh call each: every interior
        # point sees every frame, an exterior point stops at its first violating one
        for frame in expl[:, None]:
            if not live.size:
                break
            frame_margins = _relative_min_eig(
                _compressions(*R[:, :live.size], frame, P[live], axis[live], d)
            )[:, 0]
            worst_inside = min(worst_inside, float(frame_margins[inside[live]].min(initial=np.inf)))
            violated[live] |= frame_margins < -tol
            live = live[inside[live] | ~violated[live]]
        for iy, expl_violated in zip(live.tolist(), violated[live].tolist()):
            p, q = float(axis[ix]), float(axis[iy])
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(d, k, ix, iy))
            )
            V = random_frames(d, k, n_random, rng)
            # an exterior point gets here only when no explicit frame violated it
            ok = not expl_violated and _all_psd_fast(M, F, V, p, q, d, tol)
            if inside[iy] != ok:
                side = "inside" if inside[iy] else "outside"
                verdict = "consistent" if ok else "violated"
                disagreements.append({"p": p, "q": q, "k": k, "classifier": side, "oracle": verdict})
            elif not ok:
                random_only += 1  # a finding: violation missed by explicit frames
    return {
        "checked": checked,
        "disagreements": disagreements,
        "random_only": random_only,
        "worst_inside": worst_inside,
    }


def grid_agreement(
    d: int,
    grid_n: int = 200,
    n_random: int = 200,
    seed: int = 0,
    band: float = 1e-6,
    box: tuple[float, float] = (-0.6, 1.1),
    tol: float = 1e-9,
    workers: int | None = None,
) -> OracleReport:
    """Classifier vs frame-compression agreement on a (p, q) grid, all k.

    Protocol per non-band point: the explicit frames are tested first; an
    exterior point certified violated by them is done.  Otherwise n_random
    fresh Haar frames (seeded per point) are tested.  A point disagrees when
    the classifier's inside differs from the oracle's consistent; exterior
    violations found only by random frames are findings.  The explicit frames
    run one at a time over a row's points, each as one stack: an exterior
    point leaves the row at its first violating frame.  Each task (one k, ten
    rows) builds every stack with _compressions in workspaces allocated once,
    and tasks run heaviest (largest k) first, merged in (k, row) order.
    grid_n, n_random and workers must be at least 1; band and tol finite and
    >= 0; box exactly two finite reals.  d must be an integer >= 2.  The pool
    starts no more workers than there are tasks.
    """
    region_case(d, 1)
    _check_counts(0, seed=seed)
    if workers is None:
        workers = default_workers()
    _check_counts(1, grid_n=grid_n, n_random=n_random, workers=workers)
    _check_tolerances(band, tol)
    if len(box) != 2:  # each end keeps the scalar rule, which an array would hide a bool from
        raise ValueError(f"box must be two numbers (low, high), got {box!r}")
    _check_finite(*box)
    chunk = 10
    # The tasks in merge order, (k, row) ascending.  The pool takes them in
    # reverse, heaviest (largest k) first, so that no worker is left alone
    # with one at the end.
    tasks = [
        (d, k, grid_n, box, range(start, min(start + chunk, grid_n)), n_random, seed, band, tol)
        for k in range(1, d + 1)
        for start in range(0, grid_n, chunk)
    ]
    workers = min(workers, len(tasks))  # under fork, the pool starts all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_grid_task, tasks[::-1]))[::-1]
    else:
        results = [_grid_task(t) for t in tasks]
    disagreements = [x for r in results for x in r["disagreements"]]
    checked = sum(r["checked"] for r in results)
    random_only = sum(r["random_only"] for r in results)
    worst = min((r["worst_inside"] for r in results), default=np.inf)
    return OracleReport(
        disagreements[:5] or None,
        samples=checked,
        worst_margin=float(worst),
        details={
            "d": d,
            "grid": grid_n,
            "frames_per_point": n_random,
            "disagreements": len(disagreements),
            "random_only_violations": random_only,
        },
    )


# --- Schmidt classifier <-> witness-search agreement ------------------------


def witness_grid_check(
    d: int,
    grid_n: int = 100,
    arc_samples: int = 256,
    band: float = 1e-6,
) -> OracleReport:
    """Witness search finds a violation iff the classifier says SN > k.

    Runs over a grid inside the PSD triangle, all k, excluding a band around
    each region boundary.  grid_n must be at least 1, and band finite and >= 0;
    a grid that leaves no point to check (grid_n 1 or 2) is refused.  No margin
    is measured, so worst_margin stays null.

    The (points x witness points) pairing table is evaluated in blocks of rows
    of at most ``_BLOCK`` entries, as the margin grids are: a whole table and
    its temporaries grew as grid_n^2 (122 MB at d=6, grid_n=200), while a
    block stays in cache and on the heap.
    """
    _check_counts(1, grid_n=grid_n)
    _check_tolerances(band)
    verts = np.asarray(state_region_vertices(d, d, exact=False))
    a_axis = np.linspace(verts[:, 0].min(), verts[:, 0].max(), grid_n)
    b_axis = np.linspace(verts[:, 1].min(), verts[:, 1].max(), grid_n)
    A, B = np.meshgrid(a_axis, b_axis, indexing="ij")
    m_state = schmidt_margin_grid(d, d, A, B)
    mismatches = []
    checked = 0
    for k in range(1, d + 1):
        mk = schmidt_margin_grid(d, k, A, B)
        sel = (m_state > band) & (np.abs(mk) > band)
        pts_a, pts_b, expect = A[sel], B[sel], (mk[sel] < 0)
        p, q = witness_points(d, k, arc_samples).T
        found = np.empty(expect.size, dtype=bool)
        rows = max(1, _BLOCK // p.size)  # table rows per block
        for r in range(0, found.size, rows):
            vals = _witness_form(d, pts_a[r : r + rows, None], pts_b[r : r + rows, None], p, q)
            found[r : r + rows] = (vals < -1e-12).any(axis=1)
        checked += int(sel.sum())
        bad = np.nonzero(found != expect)[0]
        for i in bad[:5]:
            mismatches.append(
                {"a": float(pts_a[i]), "b": float(pts_b[i]), "k": k, "expected_violation": bool(expect[i])}
            )
        if bad.size > 5:
            mismatches.append({"k": k, "more": int(bad.size - 5)})
    if checked == 0:
        raise ValueError(f"grid_n={grid_n} leaves no point to check")
    return OracleReport(mismatches or None, samples=checked,
                        details={"d": d, "grid": grid_n, "arc_samples": arc_samples})


# --- Frame overlap minima ----------------------------------------------------


def frame_minima_check(d: int, restarts: int = 50, iters: int = 150, seed: int = 0) -> OracleReport:
    """Explicit frames attain max(2k-d, 0); optimization never beats the floor; no margin is measured."""
    region_case(d, 1)
    _check_counts(0, seed=seed)
    failures = []
    minima = {}
    for k in range(1, d + 1):
        target = max(2 * k - d, 0)
        if explicit_overlap_minimum(d, k) != target:
            failures.append({"k": k, "explicit": explicit_overlap_minimum(d, k), "target": target})
        val, _ = frame_overlap_minimize(d, k, restarts=restarts, iters=iters, seed=seed)
        minima[k] = val
        if val < target - 1e-9 or val > target + 1e-6:
            failures.append({"k": k, "optimized": val, "target": target})
    return OracleReport(failures or None, samples=d, details={"d": d, "minima": minima})


# --- Twirl consistency -------------------------------------------------------


def twirl_consistency(
    d: int,
    n_ops: int = 20,
    n_samples: int = 100_000,
    seed: int = 0,
) -> OracleReport:
    """Monte-Carlo twirl vs exact projection on random unit-norm Hermitian inputs.

    Violated at a Frobenius error above sqrt(10 / n_samples), 1e-2 at the default count.
    """
    region_case(d, 1)
    _check_counts(0, seed=seed)
    _check_counts(1, n_ops=n_ops, n_samples=n_samples)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7, d)))
    worst = 0.0
    worst_op = None
    for i in range(n_ops):
        g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        X = (g + g.conj().T) / 2
        X /= np.linalg.norm(X)
        exact = twirl_exact(X).matrix()
        mc = twirl_monte_carlo(X, n_samples, seed=seed * 1000 + i)
        err = float(np.linalg.norm(mc - exact))
        if err > worst:
            worst, worst_op = err, i
    return OracleReport(
        {"operator_index": worst_op, "frobenius_error": worst} if worst > np.sqrt(10 / n_samples) else None,
        samples=n_ops,
        worst_margin=float(worst),
        details={"d": d, "n_samples": n_samples, "max_frobenius_error": worst},
    )
