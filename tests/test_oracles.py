import hashlib
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from schmidt_cone import oracles
from schmidt_cone.classify import is_k_positive, kpos_margin_grid, schmidt_margin_grid
from schmidt_cone.geometry import kpos_conic, map_region_boundary, map_region_vertices
from schmidt_cone.geometry import pairing_map, pairing_map_inv, witness_halfplane
from schmidt_cone.linalg import _haar_qr, as_hermitian, is_psd, max_entangled, pairing, schmidt_spectrum
from schmidt_cone.oracles import (
    Frame,
    OracleReport,
    block_conditions,
    block_conditions_grid,
    block_positivity_falsifier,
    duality_sanity,
    explicit_frames,
    explicit_overlap_minimum,
    fourier_frame,
    fourier_overlap_exact,
    frame_minima_check,
    frame_overlap,
    frame_overlap_minimize,
    grid_agreement,
    pair_frame,
    random_frames,
    standard_frame,
    tomiyama_check,
    tomiyama_matrix,
    twirl_consistency,
    witness_grid_check,
    witness_pairing,
    witness_points,
    witness_violation_search,
    _all_psd_fast,
    _compressions,
    _grid_task,
    _half_step,
    _overlap_gradient,
    _relative_min_eig,
)
from schmidt_cone.symmetry import CovariantMap, InvariantState, apply_channel_right, twirl_monte_carlo
from schmidt_cone.symmetry import commutant_basis, commutant_gram
from schmidt_cone.classify import schmidt_number


def test_frames_are_orthonormal():
    rng = np.random.default_rng(0)
    for d, k in [(3, 2), (5, 3), (6, 6), (7, 1)]:
        for _, fr in explicit_frames(d, k):
            gram = fr.vectors.conj().T @ fr.vectors
            assert np.max(np.abs(gram - np.eye(k))) < 1e-10
        V = random_frames(d, k, 8, rng)
        for i in range(8):
            Frame(d, k, V[i])  # constructor validates the Gram identity


def test_frame_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Frame(3, 2, np.ones((3, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan), complex(-np.inf, 0)])
def test_frame_refuses_a_non_finite_vector(bad):
    # a NaN Gram deviation used to pass the orthonormality test
    v = np.eye(3, 2, dtype=complex)
    for entry in ((0, 0), (2, 1)):
        w = v.copy()
        w[entry] = bad
        with pytest.raises(ValueError, match="finite"):
            Frame(3, 2, w)
    with pytest.raises(ValueError, match="finite"):
        Frame(3, 2, np.full((3, 2), bad))


def test_tomiyama_matrix_depolarizing_any_frame():
    rng = np.random.default_rng(1)
    d, k = 4, 3
    fr = Frame(d, k, random_frames(d, k, 1, rng)[0])
    M = tomiyama_matrix(CovariantMap(d, 0, 0), fr)
    assert np.allclose(M, np.eye(k * d) / d, atol=1e-12)


def test_tomiyama_matrix_identity_map_is_psd():
    d, k = 4, 2
    M = tomiyama_matrix(CovariantMap(d, 1, 0), standard_frame(d, k))
    assert is_psd(M)


def test_tomiyama_matrix_transpose_k2_not_psd():
    M = tomiyama_matrix(CovariantMap(3, 0, 1), standard_frame(3, 2))
    assert not is_psd(M)
    assert np.linalg.eigvalsh(M)[0] < -0.1


def test_tomiyama_matrix_decomposition_identity():
    # the one assembly equals the literal A I + p k|W><W| + q F(v) for any
    # frame, at every k; a row of points in front of the frames gives the same
    # bytes as one point at a time into reused workspace, and the inputs are
    # left as they were
    rng = np.random.default_rng(2)
    P, Q = np.array([0.4, -0.1, 0.3]), np.array([-0.2, 0.5, 0.3])
    P0, Q0 = P.copy(), Q.copy()
    for d in (3, 4, 5):
        for k in range(1, d + 1):
            V = random_frames(d, k, 3, rng)
            V0 = V.copy()
            shape = (len(P), len(V), k * d, k * d)
            M_row = np.empty(shape, complex)
            row = _compressions(M_row, np.empty(shape, complex), V, P, Q, d)
            assert row is M_row and row.shape == (len(P), len(V), k * d, k * d)
            M = np.full(shape[1:], np.nan, dtype=complex)
            F = np.full_like(M, np.nan)
            for j, (p, q) in enumerate(zip(P, Q)):
                point = _compressions(M, F, V, float(p), float(q), d)
                assert point is M
                assert point.tobytes() == row[j].tobytes()
                for i in range(len(V)):
                    lit = tomiyama_matrix(CovariantMap(d, p, q), Frame(d, k, V[i]))
                    assert np.max(np.abs(lit - point[i])) < 1e-12
            assert np.array_equal(V, V0)
            assert np.array_equal(P, P0) and np.array_equal(Q, Q0)


def test_random_frames_are_leading_columns_of_haar_unitaries():
    # thin QR of the first k columns of the full Gaussian draw, same stream
    for d in (3, 4, 6):
        for k in range(1, d + 1):
            V = random_frames(d, k, 5, np.random.default_rng(d * 10 + k))
            rng = np.random.default_rng(d * 10 + k)
            g = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
            U, r = np.linalg.qr(g)
            diag = np.einsum("nii->ni", r)
            U = U * (diag / np.abs(diag)).conj()[:, None, :]
            assert V.shape == (5, d, k)
            assert np.max(np.abs(V - U[:, :, :k])) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_random_frames_keep_the_bits_of_the_full_draw(d):
    # only the k kept columns of the Gaussian are formed, from the same draws
    for k in range(1, d + 1):
        V = random_frames(d, k, 7, np.random.default_rng(d + 100 * k))
        rng = np.random.default_rng(d + 100 * k)
        a, b = rng.standard_normal((7, d, d)), rng.standard_normal((7, d, d))
        assert np.array_equal(V, _haar_qr((a + 1j * b)[:, :, :k]))


def test_tomiyama_check_interior_point():
    rep = tomiyama_check(3, 0.2, 0.1, 2, n_random=500, seed=3)
    assert rep.consistent
    assert rep.worst_margin > 0


def test_compression_psd_at_random_interior_points():
    # classifier-sampled interior points of the k=2 region at d=3 give PSD
    # compression matrices for random frames
    rng = np.random.default_rng(12)
    d, k = 3, 2
    found = 0
    while found < 10:
        p, q = rng.uniform(-0.3, 0.8, size=2)
        v = is_k_positive(d, p, q, k)
        if v.status != "inside" or float(v.margin) < 1e-3:
            continue
        found += 1
        fr = Frame(d, k, random_frames(d, k, 1, rng)[0])
        assert is_psd(tomiyama_matrix(CovariantMap(d, p, q), fr))


def test_tomiyama_check_exterior_point_violated_by_explicit_frame():
    # just outside the k=2 region at d=3
    v = is_k_positive(3, 0.0, 0.9, 2)
    assert v.status == "outside"
    rep = tomiyama_check(3, 0.0, 0.9, 2, n_random=200, seed=4)
    assert rep.verdict == "violated"
    assert rep.witness["frame"] in ("standard", "fourier", "pair")


def test_tomiyama_check_transpose_counterexample():
    for d in (3, 4):
        assert tomiyama_check(d, 0, 1, 2, n_random=20, seed=5).verdict == "violated"


def _literal_tomiyama_check(d, p, q, k, n_random, seed, tol=1e-9):
    """tomiyama_check's protocol by the literal route, frame by frame.

    The explicit frames, then the frames seeded by (seed, d, k), each through
    eigvalsh and is_psd of tomiyama_matrix.  Returns (verdict, witness frame
    or random index, samples, worst margin over the counted frames, the
    witness's min_eig).
    """
    m = CovariantMap(d, p, q)
    frames = oracles.explicit_frames(d, k)
    n_expl = len(frames)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(d, k)))
    frames += [("random", Frame(d, k, v)) for v in random_frames(d, k, n_random, rng)]
    margins = []
    for _, fr in frames:
        lit = tomiyama_matrix(m, fr)
        w = np.linalg.eigvalsh(lit)
        margins.append(w[0] / max(1.0, np.max(np.abs(w))))
        assert is_psd(lit, tol) == (margins[-1] >= -tol)
    bad = [i for i, margin in enumerate(margins) if margin < -tol]
    if not bad:
        return "consistent", None, len(frames), min(margins), None
    i = bad[0]
    if i < n_expl:
        return "violated", frames[i][0], i + 1, min(margins[: i + 1]), margins[i]
    return "violated", i - n_expl, len(frames), min(margins), margins[i]


def _probe_points(d, k):
    """Interior, exterior and near-boundary points of the (d, k) map region.

    Rays from the centroid of the corners through two corners and through
    the middle of the conic arc, if any, scaled by 0 (the centroid), just
    inside and just outside the boundary, and well outside.
    """
    rb = map_region_boundary(d, k, arc_samples=5)
    cx = sum(x for x, _ in rb.vertices) / len(rb.vertices)
    cy = sum(y for _, y in rb.vertices) / len(rb.vertices)
    ends = list(rb.vertices[:2]) + [arc.samples[2] for arc in rb.arcs]
    return [(cx, cy)] + [
        (cx + t * (x - cx), cy + t * (y - cy)) for x, y in ends for t in (0.9999, 1.0001, 1.3)
    ]


def _assert_same_as_literal(d, p, q, k, n_random, seed):
    rep = tomiyama_check(d, p, q, k, n_random=n_random, seed=seed)
    verdict, frame, samples, worst, min_eig = _literal_tomiyama_check(d, p, q, k, n_random, seed)
    assert (rep.verdict, rep.samples) == (verdict, samples)
    assert abs(rep.worst_margin - worst) < 1e-12
    if verdict == "consistent":
        assert rep.witness is None
    elif isinstance(frame, str):
        assert sorted(rep.witness) == ["frame", "min_eig"] and rep.witness["frame"] == frame
    else:
        assert rep.witness["frame"] == "random" and rep.witness["index"] == frame
    if rep.witness:
        assert abs(rep.witness["min_eig"] - min_eig) < 1e-12
    return rep


@pytest.mark.parametrize("d", [3, 4, 5])
def test_tomiyama_check_matches_the_literal_route(d):
    # verdict, witness and samples exactly, margins to 1e-12, at every k
    seen = set()
    for k in range(1, d + 1):
        for i, (p, q) in enumerate(_probe_points(d, k)):
            rep = _assert_same_as_literal(d, p, q, k, n_random=12, seed=10 * d + i)
            seen.add(rep.verdict)
    assert seen == {"consistent", "violated"}


def test_tomiyama_check_matches_the_literal_route_on_random_witnesses(monkeypatch):
    # With the standard frame alone, points just outside a conic arc are
    # violated by random frames only, so the witness is a random index.
    monkeypatch.setattr(oracles, "explicit_frames", lambda d, k: [("standard", standard_frame(d, k))])
    found = 0
    for d, k in [(3, 2), (4, 3), (5, 4)]:
        for p, q in _probe_points(d, k)[-3:-1]:  # the arc's middle, inside then outside
            rep = _assert_same_as_literal(d, p, q, k, n_random=40, seed=d)
            found += rep.witness is not None and rep.witness["frame"] == "random"
    assert found


def test_frame_overlap_values():
    assert frame_overlap(standard_frame(5, 3)) == pytest.approx(3.0, abs=1e-12)
    assert frame_overlap(pair_frame(6, 3)) == pytest.approx(0.0, abs=1e-12)
    # fourier frame for 2k > d attains 2k - d
    assert frame_overlap(fourier_frame(5, 4)) == pytest.approx(3.0, abs=1e-9)
    assert frame_overlap(fourier_frame(7, 5)) == pytest.approx(3.0, abs=1e-9)


def test_fourier_overlap_combinatorial_identity():
    # the inner products are 1 exactly when j + j' - 2 = 0 mod d
    for d in range(2, 9):
        for k in range(1, d + 1):
            assert frame_overlap(fourier_frame(d, k)) == pytest.approx(
                fourier_overlap_exact(d, k), abs=1e-9
            )


def test_explicit_overlap_minimum_attains_bound():
    for d in range(2, 9):
        for k in range(1, d + 1):
            assert explicit_overlap_minimum(d, k) == max(2 * k - d, 0)


def test_overlap_gradient_finite_differences():
    rng = np.random.default_rng(6)
    V = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    G = _overlap_gradient(V)
    f0 = float(np.sum(np.abs(V.T @ V) ** 2))
    eps = 1e-7
    for a, b in [(0, 0), (2, 1), (3, 0)]:
        for direction in (1.0, 1.0j):
            W = V.copy()
            W[a, b] += eps * direction
            f1 = float(np.sum(np.abs(W.T @ W) ** 2))
            num = (f1 - f0) / eps
            ana = (G[a, b] * np.conj(direction)).real
            assert num == pytest.approx(ana, rel=1e-4, abs=1e-4)


def test_frame_overlap_minimize_examples():
    val, _ = frame_overlap_minimize(6, 3, restarts=5, iters=80, seed=7)
    assert val == pytest.approx(0.0, abs=1e-9)
    val, _ = frame_overlap_minimize(5, 4, restarts=5, iters=80, seed=7)
    assert val == pytest.approx(3.0, abs=1e-9)
    val, fr = frame_overlap_minimize(7, 5, restarts=50, iters=150, seed=7)
    assert val <= 3.0 + 1e-9
    assert val >= 3.0 - 1e-9
    assert frame_overlap(fr) == pytest.approx(val, abs=1e-9)


def _descent_cases():
    """Criterion 4's (d, k) cases, the bench's two frame_minima_check calls
    at three seeds, and the edge cases of no restart and no iteration."""
    for d in range(2, 9):
        for k in range(1, d + 1):
            yield d, k, 50, 150, 4
    for seed in (0, 1, 2):
        for k in range(1, 5):
            yield 4, k, 10, 150, seed
        for k in range(1, 7):
            yield 6, k, 5, 150, seed
    yield 5, 3, 0, 150, 0
    yield 5, 3, 3, 0, 0


def test_frame_overlap_minimize_matches_the_pinned_digest():
    """Every descent result hashes to a digest pinned before the restarts ran batched.

    The digest was computed on the sequential descent, one restart after the
    other.  It pins that running them as one stack moved no value and no bit
    of any returned frame, ties included.
    """
    h = hashlib.sha256()
    n = 0
    for d, k, restarts, iters, seed in _descent_cases():
        val, fr = frame_overlap_minimize(d, k, restarts=restarts, iters=iters, seed=seed)
        h.update(repr(val).encode())
        h.update(fr.vectors.tobytes())
        n += 1
    assert n == 67
    assert h.hexdigest() == "12cdee00cccdaab3e7928903dd3c8fc26c6e98565702f006e847fe34efb62876"


@pytest.mark.parametrize(
    "kwargs",
    [{"restarts": -3}, {"iters": -1}]
    + [{name: bad} for name in ("restarts", "iters") for bad in (True, False, 2.0)],
)
def test_frame_overlap_minimize_refuses_negative_counts(kwargs):
    with pytest.raises(ValueError):
        frame_overlap_minimize(5, 3, **kwargs)


@pytest.mark.parametrize("d, k", [(5, 3), (4, 4), (6, 2)])
def test_frame_overlap_minimize_without_restarts_returns_the_best_explicit_frame(d, k):
    vals = [(frame_overlap(fr), fr) for _, fr in explicit_frames(d, k)]
    best_val, best_fr = min(vals, key=lambda t: t[0])
    val, fr = frame_overlap_minimize(d, k, restarts=0, seed=1)
    assert val == best_val
    assert fr is best_fr or np.array_equal(fr.vectors, best_fr.vectors)


def test_block_conditions_trivial_cases():
    for xi in (0.0, 0.3, 1.0):
        assert block_conditions(4, 0, 0, 2, xi)
    assert not block_conditions(4, 0, 1, 3, Fraction(2, 3))


def test_block_conditions_grid_equivalence_spot():
    # proof-level consistency at d=5, k=3 over a 300x300 grid
    from schmidt_cone.classify import kpos_margin_grid

    d, k = 5, 3
    axis = np.linspace(-0.5, 1.0, 300)
    P, Q = np.meshgrid(axis, axis, indexing="ij")
    margins = kpos_margin_grid(d, k, P, Q)
    ok = block_conditions_grid(d, P, Q, k, 1.0) & block_conditions_grid(
        d, P, Q, k, max(2 * k - d, 0) / k
    )
    sel = np.abs(margins) > 1e-9
    assert np.array_equal(ok[sel], margins[sel] > 0)


def test_witness_pairing_values():
    d = 5
    for p, q in [(1, 0), (0, 1), (-0.3, 0.2)]:
        val = witness_pairing(InvariantState(d, 0, 0), CovariantMap(d, p, q))
        assert float(val) == pytest.approx(1 / (d - 1), abs=1e-12)
    val = witness_pairing(InvariantState(d, 1, 0), CovariantMap(d, 0, 1))
    assert float(val) == pytest.approx(1 + 1 / (d - 1), abs=1e-12)
    with pytest.raises(ValueError):
        witness_pairing(InvariantState(3, 0, 0), CovariantMap(4, 0, 0))


def test_witness_pairing_proportional_to_trace_pairing():
    # proportionality constant measured as (d-1)/d^2, constant across samples
    rng = np.random.default_rng(8)
    for d in (3, 4):
        ratios = []
        for _ in range(50):
            a, b, p, q = rng.uniform(-0.7, 0.7, size=4)
            closed = witness_pairing(InvariantState(d, a, b), CovariantMap(d, p, q))
            trace = pairing(InvariantState(d, p, q).matrix(), InvariantState(d, a, b).matrix())
            ratios.append(trace / closed)
        ratios = np.asarray(ratios)
        assert np.max(np.abs(ratios - (d - 1) / d**2)) < 1e-9
        assert (np.max(ratios) - np.min(ratios)) / np.mean(ratios) < 1e-9


def test_witness_search_separable_state_clean():
    for d in (3, 5):
        for k in range(1, d + 1):
            assert witness_violation_search(InvariantState(d, 0, 0), k) is None


def test_witness_search_max_entangled_found():
    for d in (4, 5, 6):
        hit = witness_violation_search(InvariantState(d, 1, 0), d - 1)
        assert hit is not None
        p, q, val = hit
        assert val < -1e-12
        # re-check the reported witness value
        re = witness_pairing(InvariantState(d, 1, 0), CovariantMap(d, p, q))
        assert float(re) == pytest.approx(val, abs=1e-12)


def test_witness_search_boundary_saturation():
    # on a region vertex the most negative pairing stays above -1e-9
    d, k = 4, 2
    a, b = 9 / 18, -3 / 18
    hit = witness_violation_search(InvariantState(d, a, b), k, arc_samples=256, threshold=-1e-9)
    assert hit is None


def test_witness_points_counts():
    assert len(witness_points(4, 2, arc_samples=64)) == 4  # no arc in case 2
    assert len(witness_points(4, 3, arc_samples=64)) == 4 + 62


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("arc_samples", [-1, 0, 1])
def test_witness_points_refuse_fewer_than_two_arc_samples(k, arc_samples):
    # refused at every k, with or without an arc to sample
    with pytest.raises(ValueError):
        witness_points(4, k, arc_samples=arc_samples)
    with pytest.raises(ValueError):
        witness_violation_search(InvariantState(4, 0.3, 0.0), k, arc_samples=arc_samples)


@pytest.mark.parametrize(
    "arc_samples",
    [np.array(64), np.array([64]), True, np.bool_(True), 2.5, np.float64(64.0), "64", None],
    ids=["0-d-array", "1-d-array", "bool", "numpy-bool", "float", "numpy-float", "str", "None"],
)
def test_witness_points_refuse_a_sample_count_that_is_not_an_integer(arc_samples):
    # refused with ValueError before the cache lookup, which would hash an array
    with pytest.raises(ValueError, match="arc_samples must be >= 2"):
        witness_points(4, 3, arc_samples=arc_samples)
    with pytest.raises(ValueError, match="arc_samples must be >= 2"):
        witness_violation_search(InvariantState(4, 0.3, 0.0), 3, arc_samples=arc_samples)


def test_witness_search_and_grid_check_read_the_shared_points_as_they_are():
    # both read the one cached array of each k; none is copied, changed or replaced
    kept = {k: witness_points(4, k) for k in range(1, 5)}
    before = {k: pts.copy() for k, pts in kept.items()}
    for k in range(1, 5):
        witness_violation_search(InvariantState(4, 0.3, -0.2), k)
    assert witness_grid_check(4, grid_n=20).verdict == "consistent"
    for k, pts in kept.items():
        assert witness_points(4, k) is pts and not pts.flags.writeable
        assert np.array_equal(pts, before[k])


def test_falsifier_on_identity_finds_nothing():
    assert block_positivity_falsifier(np.eye(9), 2, iters=30, seed=0) is None


def test_falsifier_finds_violator_outside_p2():
    # state parameters just outside the k=2 region in the (a, b) plane at d=3
    d, k = 3, 2
    X = InvariantState(d, 0.0, 1.0).matrix()  # flip/d, not 2-block positive
    found = 0
    for seed in range(20):
        xi = block_positivity_falsifier(X, k, iters=200, seed=seed)
        if xi is None:
            continue
        val = float((xi.conj() @ X @ xi).real)
        assert val < 0
        M = xi.reshape(d, d)
        assert np.linalg.matrix_rank(M, tol=1e-8) <= k
        found += 1
    assert found >= 19  # >= 95% success over seeds


@pytest.mark.parametrize("rank_deficient", [False, True])
def test_half_step_matches_the_literal_compression(rank_deficient):
    # the einsum compression is (I_d x Q)^H X (I_d x Q) with its index (a, i)
    # read as (i, a); on X with its factors swapped it is (Q x I_d)^H X (Q x I_d)
    rng = np.random.default_rng(23)
    for d in (2, 3, 4):
        for k in range(1, d + 1):
            for _ in range(5):
                g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
                X = g + g.conj().T
                F = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
                if rank_deficient and k > 1:
                    F[:, -1] = F[:, 0]  # a repeated column: F has rank k - 1
                X4 = X.reshape(d, d, d, d)
                for swap in (False, True):
                    val, A, Q = _half_step(X4.transpose(1, 0, 3, 2) if swap else X4, F)
                    assert np.allclose(Q.conj().T @ Q, np.eye(k), atol=1e-12)
                    assert np.linalg.matrix_rank(np.hstack([Q, F]), tol=1e-8) == k  # Q spans F
                    W = np.kron(Q, np.eye(d)) if swap else np.kron(np.eye(d), Q)
                    w, U = np.linalg.eigh(W.conj().T @ X @ W)
                    ref_A = U[:, 0].reshape(k, d).T if swap else U[:, 0].reshape(d, k)
                    assert abs(val - w[0]) <= 1e-10
                    # the same factor, up to one global phase
                    overlap = np.vdot(ref_A, A)
                    assert abs(abs(overlap) - 1) <= 1e-10
                    assert np.max(np.abs(A - ref_A * overlap)) <= 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_falsifier_finds_the_rank_collapse_violator_at_d5(seed):
    # a k x k metric whitening dropped the null directions of a rank-deficient
    # factor and returned None here at every seed
    d, k = 5, 3
    X = CovariantMap(d, -0.07298, 0.1755).choi()
    xi = block_positivity_falsifier(X, k, seed=seed)
    assert xi is not None
    assert abs(np.linalg.norm(xi) - 1) <= 1e-12
    assert np.linalg.matrix_rank(xi.reshape(d, d), tol=1e-8) <= k
    assert float(np.vdot(xi, X @ xi).real) < 0


def test_falsifier_interior_point_clean():
    d, k = 3, 2
    pt = (0.2, 0.1)
    assert is_k_positive(d, pt[0], pt[1], k).member
    X = InvariantState(d, pt[0], pt[1]).matrix()
    for seed in range(10):
        assert block_positivity_falsifier(X, k, iters=60, seed=seed) is None


def test_duality_sanity_d3():
    rep = duality_sanity(3, samples=1000, seed=9)
    assert rep.consistent
    assert rep.worst_margin >= -1e-10
    with pytest.raises(ValueError):
        duality_sanity(5)


@pytest.mark.parametrize("samples", [0, 1, True, False, 2.0])
def test_duality_sanity_refuses_fewer_than_two_samples(samples):
    # samples=0 reported consistent over nothing; samples=1 drew no EB sample
    with pytest.raises(ValueError):
        duality_sanity(3, samples=samples)


@pytest.mark.parametrize("n_ops", [0, True, False, 2.0])
def test_twirl_consistency_refuses_no_operators(n_ops):
    with pytest.raises(ValueError):
        twirl_consistency(3, n_ops=n_ops, n_samples=10)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_twirl_consistency_threshold_follows_the_sample_count(d):
    # a fixed 1e-2 read Monte-Carlo noise at 10,000 samples as a violation
    rep = twirl_consistency(d, n_samples=10_000)
    assert rep.consistent, rep.worst_margin
    assert rep.worst_margin > 1e-2


_SEEDED = {
    "grid_agreement": lambda seed: grid_agreement(3, grid_n=2, n_random=1, seed=seed, workers=1),
    "tomiyama_check": lambda seed: tomiyama_check(3, 0.1, 0.1, 2, n_random=1, seed=seed),
    "frame_overlap_minimize": lambda seed: frame_overlap_minimize(3, 2, restarts=1, iters=1, seed=seed),
    "frame_minima_check": lambda seed: frame_minima_check(3, restarts=1, iters=1, seed=seed),
    "duality_sanity": lambda seed: duality_sanity(2, samples=2, seed=seed),
    "twirl_consistency": lambda seed: twirl_consistency(2, n_ops=1, n_samples=10, seed=seed),
    "twirl_monte_carlo": lambda seed: twirl_monte_carlo(np.eye(4), 2, seed=seed),
    "block_positivity_falsifier": lambda seed: block_positivity_falsifier(np.eye(4), 1, iters=1, seed=seed),
}


@pytest.mark.parametrize("seed", [-1, True, 1.5])
@pytest.mark.parametrize("entry", list(_SEEDED))
def test_every_seeded_entry_point_refuses_a_seed_that_is_not_a_count(entry, seed):
    # -1 ran the grid and failed elsewhere with numpy's unnamed "expected
    # non-negative integer"; True ran as seed 1, and 1.5 ran the Monte-Carlo twirl
    with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed!r}"):
        _SEEDED[entry](seed)


@pytest.mark.parametrize("band", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-12, True])
def test_witness_grid_check_refuses_a_bad_band(band):
    # a NaN band used to drop every point and read consistent with 0 samples,
    # and a negative one kept the boundary points
    with pytest.raises(ValueError):
        witness_grid_check(4, grid_n=20, band=band)


def _witness_grid_violated(monkeypatch):
    monkeypatch.setattr(oracles, "witness_points", lambda d, k, arc_samples=256: np.array([(1.0, 0.0)]))
    return witness_grid_check(4, grid_n=20)


def _frame_minima_violated(monkeypatch):
    monkeypatch.setattr(oracles, "explicit_overlap_minimum", lambda d, k: 99)
    monkeypatch.setattr(oracles, "frame_overlap_minimize", lambda d, k, **kwargs: (-1.0, None))
    return frame_minima_check(3, restarts=1, iters=1)


@pytest.mark.parametrize(
    "run, verdict",
    [
        (lambda mp: witness_grid_check(3, grid_n=20), "consistent"),
        (lambda mp: frame_minima_check(3, restarts=1, iters=1), "consistent"),
        (_witness_grid_violated, "violated"),
        (_frame_minima_violated, "violated"),
    ],
    ids=["witness", "frame-minima", "witness-violated", "frame-minima-violated"],
)
def test_suites_that_measure_no_margin_report_it_as_null(monkeypatch, run, verdict):
    # both suites used to report a worst_margin of 0.0 that measured nothing
    rep = run(monkeypatch)
    assert rep.verdict == verdict
    assert rep.to_dict()["worst_margin"] is None


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("grid_n", [1, 2])
def test_witness_grid_check_refuses_a_grid_that_checks_no_point(d, grid_n):
    # grids 1 and 2 lie on the state triangle's bounding box and used to
    # report a consistent run of 0 samples; grid 3 checks d points
    with pytest.raises(ValueError, match=f"grid_n={grid_n} leaves no point to check"):
        witness_grid_check(d, grid_n=grid_n)
    assert witness_grid_check(d, grid_n=3).samples == d


@pytest.mark.parametrize(
    "call, err",
    [
        (lambda: explicit_overlap_minimum(3, -1), "k=-1 out of range"),
        (lambda: explicit_overlap_minimum(3, 5), "k=5 out of range"),
        (lambda: explicit_overlap_minimum(2.5, 1), "d must be an integer"),
        (lambda: fourier_overlap_exact(3, 7), "k=7 out of range"),
        (lambda: fourier_overlap_exact(1, 1), "d must be >= 2"),
        (lambda: frame_overlap_minimize(3, 0), "k=0 out of range"),
        (lambda: frame_overlap_minimize(3, 5), "k=5 out of range"),
        (lambda: explicit_frames(3, 4), "k=4 out of range"),
        (lambda: explicit_frames(True, 1), "integer"),
    ],
    ids=["min-k-negative", "min-k-above-d", "min-float-d", "fourier-k-above-d", "fourier-d1",
         "minimize-k0", "minimize-k-above-d", "frames-k-above-d", "frames-bool-d"],
)
def test_frame_overlap_closed_forms_refuse_what_region_case_refuses(call, err):
    # these returned -1, 5, 0 and 17, or failed inside numpy or the Frame check
    with pytest.raises(ValueError, match=err):
        call()


def test_report_dict_writes_a_non_finite_margin_as_null():
    assert OracleReport().to_dict()["worst_margin"] is None
    assert OracleReport(worst_margin=float("nan")).to_dict()["worst_margin"] is None
    assert OracleReport(worst_margin=-0.25).to_dict()["worst_margin"] == -0.25


def test_duality_spot_values():
    from schmidt_cone.linalg import flip

    d = 3
    om = max_entangled(d)
    # CP Choi paired with the transpose-map Choi: a CP-vs-block-positive spot value
    assert pairing(np.outer(om, om.conj()), flip(d) / d) == pytest.approx(1 / d, abs=1e-12)
    # EB Choi I/d^2 against any positive map pairs to Tr(C_L)/d^2 = 1/d^2
    X = np.eye(d * d) / d**2
    assert pairing(X, InvariantState(d, 0.3, 0.1).matrix()) == pytest.approx(1 / d**2, abs=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [dict(n_random=0), dict(n_random=-5), dict(workers=0), dict(workers=-1), dict(grid_n=0), dict(grid_n=-1)]
    + [{name: bad} for name in ("n_random", "workers", "grid_n") for bad in (True, False, 2.0)],
)
def test_grid_agreement_refuses_a_vacuous_run(kwargs):
    # no random frame leaves interior points untested; no worker or no grid
    # point checks nothing
    with pytest.raises(ValueError):
        grid_agreement(3, **{"grid_n": 5, "n_random": 5, "workers": 1, **kwargs})


@pytest.mark.parametrize("d", [0, -3, 2.5, 3.0, True, False])
@pytest.mark.parametrize(
    "suite",
    [
        lambda d: grid_agreement(d, grid_n=3, n_random=2, workers=1),
        lambda d: duality_sanity(d, samples=2),
        lambda d: frame_minima_check(d, restarts=1, iters=1),
        lambda d: twirl_consistency(d, n_ops=1, n_samples=10),
    ],
    ids=["grid", "duality", "frame-minima", "twirl"],
)
def test_a_suite_refuses_every_d_that_region_case_refuses(suite, d):
    # the grid used to run no k at all for d <= 0 and report a consistent
    # run of 0 samples; a float d used to raise TypeError, and the twirl
    # named numpy's failure for d <= 0
    with pytest.raises(ValueError, match="d must be|integer"):
        suite(d)


@pytest.mark.parametrize("grid_n", [0, -1, True, False, 2.0])
def test_witness_grid_check_refuses_an_empty_grid(grid_n):
    with pytest.raises(ValueError):
        witness_grid_check(3, grid_n=grid_n)


def test_grid_agreement_small_scale():
    rep = grid_agreement(3, grid_n=25, n_random=25, seed=10, workers=1)
    assert rep.consistent
    assert rep.details["disagreements"] == 0
    assert rep.details["random_only_violations"] == 0


@pytest.mark.parametrize(
    "d, seed, tol",
    [
        pytest.param(3, 0, 1e-9, id="0"),
        pytest.param(3, 7, 1e-9, id="7"),
        # a loose tolerance lets some exterior points pass every frame, so they
        # disagree at several k and the witnesses show the order the results
        # were merged in
        pytest.param(4, 0, 3e-3, id="d4-all-k"),
    ],
)
def test_grid_agreement_same_report_at_one_and_two_workers(d, seed, tol):
    # frames are seeded per point, so scheduling cannot change the report
    serial = grid_agreement(d, grid_n=20, n_random=20, seed=seed, tol=tol, workers=1).to_dict()
    pooled = grid_agreement(d, grid_n=20, n_random=20, seed=seed, tol=tol, workers=2).to_dict()
    assert serial == pooled
    assert serial["samples"] > 0
    # the largest k runs first, but the report lists tasks in (k, row) order
    witness = serial["witness"] or []
    assert witness == sorted(witness, key=lambda w: (w["k"], w["p"], w["q"]))
    if d == 4:
        assert len({w["k"] for w in witness}) > 1


def test_grid_agreement_matches_the_pinned_digest():
    """Small grid reports at d = 3..6 hash to a digest pinned before the
    explicit frames ran one at a time, when every frame saw every point."""
    h = hashlib.sha256()
    for d in range(3, 7):
        for seed in (0, 1):
            rep = grid_agreement(d, grid_n=16, n_random=20, seed=seed, workers=1)
            h.update(repr(rep.to_dict()).encode())
    assert h.hexdigest() == "4bbe04563c5b510bf21739266d10576c52801b3c55036165582a60d206f799b6"


def test_grid_task_matches_the_pinned_digest(monkeypatch):
    """Raw task outputs hash to a digest pinned under the same conditions.

    At tol = 1e-2 some exterior points pass every frame ("outside" against
    "consistent"); at tol = -1e-2 interior points near the boundary fail
    ("inside" against "violated").  The explicit frames are optimal, so a
    violation that only a random frame finds shows up once the standard
    frame is dropped from them: the second pass covers the random_only count.
    """
    full = explicit_frames
    h = hashlib.sha256()
    counts = {"outside": 0, "inside": 0, "random_only": 0}
    for drop_standard in (False, True):
        if drop_standard:
            monkeypatch.setattr(oracles, "explicit_frames", lambda d, k: full(d, k)[1:])
        for tol in (1e-2, -1e-2):
            for d in (3, 4):
                for k in range(1, d + 1):
                    out = _grid_task((d, k, 16, (-0.6, 1.1), range(16), 20, 0, 1e-6, tol))
                    h.update(repr(out).encode())
                    counts["random_only"] += out["random_only"]
                    for x in out["disagreements"]:
                        counts[x["classifier"]] += 1
    assert counts == {"outside": 26, "inside": 40, "random_only": 3}
    assert h.hexdigest() == "6e7fdb3a741026f84d5324ce118fd5d412afbc67848033ce8080c2a5d0ecd12b"


@pytest.mark.parametrize("d, grid_n, matrices", [(4, 50, 14143), (6, 34, 8713)])
def test_grid_explicit_frames_stop_at_an_exterior_points_first_violation(
    monkeypatch, d, grid_n, matrices
):
    # The explicit frames of a row run one at a time, as (points, 1) stacks;
    # an exterior point that one of them certifies is tested by no later one.
    # Which points each frame sees depends on the grid alone, not the seed.
    relative_min_eig, compressions = oracles._relative_min_eig, oracles._compressions
    calls = []  # [k, p, the row's q values, their margins] per explicit frame

    def recording_compressions(M, F, V, p, q, d):
        if np.ndim(p):  # a row of points against one explicit frame
            assert len(V) == 1
            calls.append([V.shape[2], float(p[0]), np.array(q)])
        return compressions(M, F, V, p, q, d)

    def recording_min_eig(Ms):
        out = relative_min_eig(Ms)
        if Ms.ndim == 4:
            calls[-1].append(out[:, 0])
        return out

    monkeypatch.setattr(oracles, "_compressions", recording_compressions)
    monkeypatch.setattr(oracles, "_relative_min_eig", recording_min_eig)
    tol = 1e-9
    grid_agreement(d, grid_n=grid_n, n_random=1, seed=grid_n, tol=tol, workers=1)
    assert sum(len(q) for _, _, q, _ in calls) == matrices
    rows = {}
    for k, p, q, frame_margins in calls:
        rows.setdefault((k, p), []).append((q, frame_margins))
    stopped = 0
    for (k, p), frames in rows.items():
        assert 1 <= len(frames) <= len(explicit_frames(d, k))
        certified = set()
        for q, frame_margins in frames:
            assert certified.isdisjoint(q.tolist())
            outside = kpos_margin_grid(d, k, np.full_like(q, p), q) < 0
            certified.update(q[outside & (frame_margins < -tol)].tolist())
        stopped += len(certified)
    assert stopped > 0


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("tol", [-1e-2, 1e-9])
def test_grid_agreement_cholesky_fallback_gives_the_same_report(monkeypatch, seed, tol):
    # With every Cholesky failing, each interior point is decided by the
    # eigenvalue test; test_all_psd_fast_fallback_sees_the_unshifted_compressions
    # shows that test sees the compressions without the Cholesky shift.
    kwargs = dict(grid_n=20, n_random=20, seed=seed, tol=tol, workers=1)

    def report():
        if tol >= 0:
            return grid_agreement(3, **kwargs).to_dict()
        # grid_agreement refuses a negative tol, but its tasks read one as a
        # demanded margin: interior points near the boundary then fail the
        # Cholesky test, so a fallback that tested the shifted matrices
        # would change their results
        return [_grid_task((3, k, 20, (-0.6, 1.1), range(20), 20, seed, 1e-6, tol))
                for k in range(1, 4)]

    expected = report()
    calls = []

    def failing_cholesky(a):
        calls.append(a.shape)
        raise np.linalg.LinAlgError("forced failure")

    monkeypatch.setattr(oracles.np.linalg, "cholesky", failing_cholesky)
    assert report() == expected
    assert calls


def test_all_psd_fast_fallback_sees_the_unshifted_compressions(monkeypatch):
    # The Cholesky test shifts the workspace's diagonal by tol.  When it
    # fails, the eigenvalue test must see the compressions without that
    # shift: near the boundary, outside it, the shifted matrices would pass
    # where the compressions themselves fail.
    def failing_cholesky(a):
        raise np.linalg.LinAlgError("forced failure")

    monkeypatch.setattr(oracles.np.linalg, "cholesky", failing_cholesky)
    tol, shifted_differs = 1e-2, 0
    for d, k in [(3, 2), (4, 2), (4, 3)]:
        V = random_frames(d, k, 20, np.random.default_rng(d + k))
        M = np.empty((20, k * d, k * d), dtype=complex)
        F = np.empty_like(M)
        points = _probe_points(d, k) + ([_JUST_OUTSIDE] if (d, k) == (3, 2) else [])
        for p, q in points:
            fresh = _compressions(np.empty_like(M), np.empty_like(M), V, p, q, d)
            expected = bool(np.all(_relative_min_eig(fresh) >= -tol))
            fresh[:, np.arange(k * d), np.arange(k * d)] += tol
            shifted_differs += bool(np.all(_relative_min_eig(fresh) >= -tol)) != expected
            assert _all_psd_fast(M, F, V, p, q, d, tol) == expected
    assert shifted_differs


# At d = 3, k = 2 and tol = 1e-2 the seed-5 frames' smallest relative
# eigenvalue here is -0.0108: just past the rule, inside the tolerance that
# a shift by tol times the Frobenius norm used to grant.
_JUST_OUTSIDE = (-0.003, -0.509)


def _psd_rule(V, p, q, d, tol):
    """The eigenvalue rule that _all_psd_fast stands in for, on fresh compressions."""
    shape = (len(V), V.shape[2] * d, V.shape[2] * d)
    fresh = _compressions(np.empty(shape, complex), np.empty(shape, complex), V, p, q, d)
    return bool(np.all(_relative_min_eig(fresh) >= -tol))


def test_all_psd_fast_refuses_what_the_eigenvalue_rule_refuses():
    V = random_frames(3, 2, 20, np.random.default_rng(5))
    M = np.empty((20, 6, 6), dtype=complex)
    p, q = _JUST_OUTSIDE
    assert not _psd_rule(V, p, q, 3, 1e-2)
    assert _all_psd_fast(M, np.empty_like(M), V, p, q, 3, 1e-2) is False


@pytest.mark.parametrize("tol", [1e-2, 1e-3])
@pytest.mark.parametrize("d, k", [(3, 2), (4, 2), (4, 3)])
def test_all_psd_fast_is_the_eigenvalue_rule_across_the_boundary(d, k, tol):
    # rays from the centroid of the corners through each corner, from the
    # corner to 20% past it, where the compressions cross -tol
    V = random_frames(d, k, 20, np.random.default_rng(d + k))
    M = np.empty((20, k * d, k * d), dtype=complex)
    F = np.empty_like(M)
    corners = map_region_vertices(d, k)
    cx = sum(x for x, _ in corners) / len(corners)
    cy = sum(y for _, y in corners) / len(corners)
    differs = []
    for x, y in corners:
        for t in np.linspace(1.0, 1.2, 81).tolist():
            p, q = cx + t * (x - cx), cy + t * (y - cy)
            if _all_psd_fast(M, F, V, p, q, d, tol) != _psd_rule(V, p, q, d, tol):
                differs.append((p, q))
    assert differs == []


@pytest.mark.parametrize("name", ["tol", "band"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-12, True])
def test_grid_agreement_refuses_a_bad_tolerance(name, value):
    # a NaN band used to drop every point and report (consistent, 0 samples); a
    # NaN or negative tol used to turn points into spurious disagreements
    with pytest.raises(ValueError):
        grid_agreement(3, grid_n=6, n_random=4, workers=1, **{name: value})


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-12, True])
def test_tomiyama_check_refuses_a_bad_tolerance(tol):
    # with tol = nan the exterior point (0, 0.9) at d = 3, k = 2 used to read consistent
    with pytest.raises(ValueError):
        tomiyama_check(3, 0.0, 0.9, 2, tol=tol)


@pytest.mark.parametrize("n_random", [-1, -3, True, False, 2.0])
def test_tomiyama_check_refuses_a_negative_frame_count(n_random):
    # n_random = -3 used to read consistent with samples 2, the explicit frames alone
    with pytest.raises(ValueError, match="n_random must be >= 0"):
        tomiyama_check(3, 0.2, 0.1, 2, n_random=n_random)


def test_tomiyama_check_with_no_random_frames_tests_the_explicit_ones():
    rep = tomiyama_check(3, 0.2, 0.1, 2, n_random=0)
    assert rep.consistent and rep.samples == len(explicit_frames(3, 2))
    rep = tomiyama_check(3, 0.0, 0.9, 2, n_random=0)
    assert rep.verdict == "violated" and rep.witness["frame"] in ("standard", "fourier", "pair")


def test_witness_grid_check_small():
    rep = witness_grid_check(4, grid_n=40)
    assert rep.consistent


def test_witness_grid_check_pairs_its_table_in_blocks():
    # the whole (points x witness points) table of a d=6, grid_n=200 check peaked at 122 MB
    witness_grid_check(6, grid_n=20)  # the boundaries are traced before tracing memory
    tracemalloc.start()
    try:
        rep = witness_grid_check(6, grid_n=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.consistent and peak < 8e6, peak


def test_witness_search_matches_classifier_spotwise():
    # cross-duality spot check: 100 random states, witnesses = vertices + 64
    # arc samples; members pair >= -1e-9 against every witness, non-members
    # are caught by at least one strictly negative witness
    rng = np.random.default_rng(11)
    d = 5
    for _ in range(100):
        a, b = rng.uniform(-0.2, 0.9), rng.uniform(-0.3, 0.3)
        cls = schmidt_number(d, a, b)
        if cls.schmidt_number is None:
            continue
        state = InvariantState(d, a, b)
        for k in range(1, d):
            margin = float(cls.per_k[k - 1].margin)
            if abs(margin) < 1e-6:
                continue
            hit = witness_violation_search(state, k, arc_samples=64, threshold=-1e-9)
            assert (hit is not None) == (margin < 0)


@pytest.mark.parametrize(
    "call, err",
    [
        (lambda: grid_agreement(3, grid_n=3, n_random=1, box=(float("nan"), 1.0), workers=1), "non-finite"),
        (lambda: grid_agreement(3, grid_n=3, n_random=1, box=(-0.5, np.inf), workers=1), "non-finite"),
        (lambda: tomiyama_check(3, float("nan"), 0.1, 2), "non-finite"),
        (lambda: tomiyama_check(3, 0.2, 0.1, 0), "k=0"),
        (lambda: tomiyama_check(3, 0.2, 0.1, 4), "k=4"),
        (lambda: block_positivity_falsifier(np.eye(9), 0), "k=0"),
        (lambda: block_positivity_falsifier(np.eye(9), 4), "k=4"),
        (lambda: tomiyama_check(3, True, 0.0, 2), "boolean"),
        (lambda: tomiyama_check(3, 0.2, np.bool_(False), 2), "boolean"),
        (lambda: grid_agreement(3, grid_n=3, n_random=1, box=(0.1,), workers=1), "two numbers"),
        (lambda: grid_agreement(3, grid_n=3, n_random=1, box=(0.1, 0.2, 0.3), workers=1), "two numbers"),
        (lambda: grid_agreement(3, grid_n=3, n_random=1, box=(True, 1.0), workers=1), "boolean"),
    ],
    ids=["box-nan", "box-inf", "tomiyama-nan", "tomiyama-k0", "tomiyama-k4", "falsifier-k0", "falsifier-k4",
         "tomiyama-bool-p", "tomiyama-bool-q", "box-one", "box-three", "box-bool"],
)
def test_an_oracle_refuses_a_non_finite_box_or_point_and_a_k_outside_1_to_d(call, err):
    # a NaN box used to give a consistent report, and k = 0 an IndexError
    with pytest.raises(ValueError, match=err):
        call()


_GRID = np.array([0.1, 0.2])
# each entry point that takes a numeric array, with an array it accepts
_ARRAY_INPUTS = {
    "kpos_margin_grid": (lambda X: kpos_margin_grid(3, 2, X, _GRID), _GRID),
    "schmidt_margin_grid": (lambda X: schmidt_margin_grid(3, 2, _GRID, X), _GRID),
    "block_conditions_grid": (lambda X: block_conditions_grid(3, X, _GRID, 2, 1.0), _GRID),
    "as_hermitian": (as_hermitian, np.eye(4)),
    "is_psd": (is_psd, np.eye(4)),
    "schmidt_spectrum": (lambda X: schmidt_spectrum(X, 2, 2), np.array([1.0, 0.0, 0.0, 0.0])),
    "Frame": (lambda X: Frame(3, 2, X), np.eye(3, 2)),
    "CovariantMap.apply": (lambda X: CovariantMap(3, 0.1, 0.1).apply(X), np.eye(3)),
    "apply_channel_right": (lambda X: apply_channel_right(CovariantMap(3, 0.1, 0.1), X), np.eye(9)),
}
_REAL_GRIDS = ("kpos_margin_grid", "schmidt_margin_grid", "block_conditions_grid")


def _spoiled(X, how):
    if how == "bool":
        return X.astype(bool)
    if how == "text":
        return X.astype(str)
    if how == "complex":
        return X + 0.5j
    if how == "bool in a list":
        X = X.astype(object)
        X.flat[0] = True
        return X.tolist()
    X = X.copy()
    X.flat[-1] = {"nan": np.nan, "inf": -np.inf}[how]
    return X


@pytest.mark.parametrize(
    "name, how",
    [(name, how) for name in _ARRAY_INPUTS for how in ("nan", "inf", "bool", "bool in a list")]
    + [(name, how) for name in _REAL_GRIDS for how in ("text", "complex")],
)
def test_every_array_entry_point_refuses_a_non_finite_bool_or_text_array(name, how):
    # a NaN grid point used to give a NaN margin, a NaN matrix a NaN image,
    # a bool matrix a PSD verdict, and a text or complex grid a block verdict
    call, valid = _ARRAY_INPUTS[name]
    call(valid)
    message = {"nan": "non-finite entry", "inf": "non-finite entry", "bool": "bool array",
               "text": "<U32 array", "complex": "complex128 array",
               "bool in a list": "bool entry"}[how]
    with pytest.raises(ValueError, match=message):
        call(_spoiled(valid, how))


def test_tomiyama_check_refuses_a_text_point_as_the_classifier_does():
    # "0.2" used to be read as 0.2 and the point reported consistent
    with pytest.raises(TypeError):
        tomiyama_check(3, "0.2", "0.1", 2)
    with pytest.raises(TypeError):
        is_k_positive(3, "0.2", "0.1", 2)
    with pytest.raises(TypeError):
        grid_agreement(3, grid_n=3, n_random=1, box=("-0.5", "1"), workers=1)


def test_grid_agreement_starts_no_more_workers_than_it_has_tasks(monkeypatch):
    # under fork, a pool starts all max_workers at its first submit
    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(oracles, "ProcessPoolExecutor", SerialPool)
    serial = grid_agreement(2, grid_n=5, n_random=2, workers=1).to_dict()
    assert opened == []
    assert grid_agreement(2, grid_n=5, n_random=2, workers=64).to_dict() == serial  # 2 tasks
    grid_agreement(3, grid_n=12, n_random=2, workers=4)  # 6 tasks
    assert opened == [2, 4]


@pytest.mark.parametrize(
    "call, err",
    [
        (lambda: block_positivity_falsifier(np.eye(8), 1), "side 8 is not d\\^2"),
        (lambda: Frame(3, 2, np.eye(3)), r"expected shape \(3, 2\), got \(3, 3\)"),
        (lambda: pair_frame(3, 2), "pair frame needs 2k <= d"),
        (lambda: tomiyama_matrix(CovariantMap(4, 0.1, 0.1), standard_frame(3, 2)), "frame d=3, map d=4"),
    ],
    ids=["falsifier-side", "frame-shape", "pair-frame", "tomiyama-dims"],
)
def test_a_frame_or_operator_of_the_wrong_shape_is_refused(call, err):
    with pytest.raises(ValueError, match=err):
        call()


_BAD_D = [(2.0, "d must be an integer"), (True, "d must be an integer"), (1, "d must be >= 2"),
          (np.array(4), "d must be an integer")]
_BAD_K = [(0, "k=0 out of range 1..4"), (5, "k=5 out of range 1..4"), (True, "k must be an integer"),
          (2.0, "k must be an integer")]
_TAKES_D = {
    "pairing_map": lambda d: pairing_map(d, (0.1, 0.2)),
    "pairing_map_inv": lambda d: pairing_map_inv(d, (0.1, 0.2)),
    "witness_halfplane": lambda d: witness_halfplane(d, 0.1, 0.2),
    "commutant_basis": commutant_basis,
    "commutant_gram": commutant_gram,
}
_TAKES_D_K = {
    "standard_frame": standard_frame,
    "fourier_frame": fourier_frame,
    "pair_frame": pair_frame,
    "kpos_conic": kpos_conic,
    "Frame": lambda d, k: Frame(d, k, np.eye(4, 1)),
}


@pytest.mark.parametrize(
    "call, err",
    [pytest.param(lambda f=f, d=d: f(d), err, id=f"{name}-d={d!r}")
     for name, f in _TAKES_D.items() for d, err in _BAD_D]
    + [pytest.param(lambda f=f, d=d: f(d, 1), err, id=f"{name}-d={d!r}")
       for name, f in _TAKES_D_K.items() for d, err in _BAD_D]
    + [pytest.param(lambda f=f, k=k: f(4, k), err, id=f"{name}-k={k!r}")
       for name, f in _TAKES_D_K.items() for k, err in _BAD_K],
)
def test_every_public_d_and_k_goes_through_region_case(call, err):
    # fourier_frame(2.0, 1) and commutant_gram(2.0) used to answer, pairing_map(True, ...)
    # returned (0.0, 0.0), pairing_map_inv(1, ...) raised ZeroDivisionError and
    # standard_frame(4, 0) numpy's zero-size reduction error
    with pytest.raises(ValueError, match=re.escape(err)):
        call()


def test_witness_grid_check_names_its_first_mismatches_and_counts_the_rest(monkeypatch):
    # One witness point (1, 0) misses most violations: each k lists five
    # mismatched points, then {"k": k, "more": n} for the ones left unlisted.
    monkeypatch.setattr(oracles, "witness_points", lambda d, k, arc_samples=256: np.array([(1.0, 0.0)]))
    rep = witness_grid_check(4, grid_n=20)
    assert rep.verdict == "violated" and len(rep.witness) == 18
    assert rep.witness[-1] == {"k": 3, "more": 5}
    for entry in rep.witness:
        if "more" not in entry:
            assert set(entry) == {"a", "b", "k", "expected_violation"}
            assert entry["expected_violation"] is True
            assert schmidt_number(4, entry["a"], entry["b"]).schmidt_number > entry["k"]


def test_frame_minima_check_names_each_failure(monkeypatch):
    monkeypatch.setattr(oracles, "explicit_overlap_minimum", lambda d, k: 99)
    monkeypatch.setattr(oracles, "frame_overlap_minimize", lambda d, k, **kwargs: (-1.0, None))
    rep = frame_minima_check(3, restarts=1, iters=1)
    assert rep.verdict == "violated"
    expected = []
    for k, target in ((1, 0), (2, 1), (3, 3)):
        expected.append({"k": k, "explicit": 99, "target": target})
        expected.append({"k": k, "optimized": -1.0, "target": target})
    assert rep.witness == expected


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-12, True])
def test_block_positivity_falsifier_refuses_a_bad_tolerance(tol):
    # a NaN or negative tol used to return a "violator" of the PSD identity
    with pytest.raises(ValueError):
        block_positivity_falsifier(np.eye(9), 1, iters=2, tol=tol)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf"), 0.5, 1e-12, True, False])
def test_witness_violation_search_refuses_a_bad_threshold(threshold):
    # a threshold above 0 used to "certify" the maximally mixed state, and a
    # NaN one to hide the violation the default threshold finds
    for a in (0.0, 0.9):
        with pytest.raises(ValueError):
            witness_violation_search(InvariantState(4, a, 0.0), 1, threshold=threshold)


def test_witness_violation_search_takes_a_zero_threshold():
    hit = witness_violation_search(InvariantState(4, 0.9, 0.0), 1, threshold=0.0)
    assert hit == witness_violation_search(InvariantState(4, 0.9, 0.0), 1)


@pytest.mark.parametrize("xi1sq", [-0.1, 1.5, 2.0, float("nan"), float("inf"), True, False])
@pytest.mark.parametrize("conditions", [block_conditions, block_conditions_grid])
def test_block_conditions_refuse_an_overlap_outside_0_to_1(conditions, xi1sq):
    # the grid form used to answer [True] at xi1sq = 2.0
    with pytest.raises(ValueError):
        conditions(4, [0.0] if conditions is block_conditions_grid else 0.0, 0.0, 2, xi1sq)


@pytest.mark.parametrize(
    "d, p, q, k",
    [(4, float("nan"), 0.0, 2), (4, 0.1, float("inf"), 2), (4, True, 0, 2), (4, 0.1, False, 2),
     (4, 0.1, 0.0, 7), (4, 0.1, 0.0, 0), (2.5, 0.1, 0.0, 2), (True, 0.1, 0.0, 1), (1, 0.1, 0.0, 1)],
)
@pytest.mark.parametrize("grid", [False, True])
def test_block_conditions_refuse_a_bad_point_d_or_k(grid, d, p, q, k):
    # a NaN p used to read as a violated point, and a bool p, a float d or a
    # k > d as a satisfied one
    if grid:
        with pytest.raises(ValueError):
            block_conditions_grid(d, [p, p], [q, q], k, 1.0)
    else:
        with pytest.raises(ValueError):
            block_conditions(d, p, q, k, 1.0)


def test_default_workers_counts_the_cpus_in_the_affinity_mask(monkeypatch):
    # os.cpu_count() counts the machine's CPUs, not those this process may use
    monkeypatch.setattr(oracles.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(oracles.os, "cpu_count", lambda: 8)
    monkeypatch.delenv("SCHMIDT_CONE_THREADS", raising=False)
    assert oracles.default_workers() == 1


@pytest.mark.parametrize("cap", ["abc", "1.5", "0", "-2"])
def test_default_workers_refuses_a_cap_that_is_not_a_count(monkeypatch, cap):
    # the cap used to fail with int()'s message, which does not name the
    # variable, or, at 0 and below, to run with one worker
    monkeypatch.setenv("SCHMIDT_CONE_THREADS", cap)
    message = f"SCHMIDT_CONE_THREADS must be an integer >= 1, got '{cap}'"
    with pytest.raises(ValueError, match=re.escape(message)):
        oracles.default_workers()


def test_default_workers_takes_the_cap_below_the_cpu_count(monkeypatch):
    monkeypatch.setattr(oracles.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(oracles.os, "cpu_count", lambda: 8)
    monkeypatch.setenv("SCHMIDT_CONE_THREADS", "3")
    assert oracles.default_workers() == 3
