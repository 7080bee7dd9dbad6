import hashlib
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from schmidt_cone.classify import (
    _BLOCK,
    is_k_positive,
    k_block_positivity_max,
    k_positivity_max,
    k_superpositivity_max,
    kpos_margin_grid,
    schmidt_margin_grid,
    schmidt_membership,
    schmidt_number,
)
from schmidt_cone.geometry import (
    HalfPlane,
    RegionBoundary,
    kpos_conic,
    map_region_boundary,
    map_region_vertices,
    region_margin,
    state_region_boundary,
    state_region_vertices,
)
from schmidt_cone.linalg import is_psd
from schmidt_cone.symmetry import InvariantState


def test_identity_map_is_cp():
    for d in (2, 4, 6):
        assert is_k_positive(d, 1, 0, d).member


def test_transpose_is_positive_not_2_positive():
    for d in (3, 4, 5):
        assert is_k_positive(d, 0, 1, 1).member
        v = is_k_positive(d, 0, 1, 2)
        assert v.status == "outside"


def test_shared_vertex_is_boundary_exact():
    # (-2/(d^2+d-2), d/(d^2+d-2)) is shared by the k=3 and k=4 regions at d=4
    pt = (Fraction(-2, 18), Fraction(4, 18))
    assert is_k_positive(4, pt[0], pt[1], 3).status == "boundary"
    assert is_k_positive(4, pt[0], pt[1], 4).status == "boundary"


def test_k_positivity_max_examples():
    assert k_positivity_max(4, 0.0, 0.0).max_k == 4
    assert k_positivity_max(4, 1.0, 0.0).max_k == 4
    assert k_positivity_max(4, 0.0, 1.0).max_k == 1
    prof = k_positivity_max(4, Fraction(-1, 11), 0)
    assert prof.max_k == 3
    assert prof.per_k[2].status == "boundary"


def test_k_positivity_profile_monotone():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        p, q = rng.uniform(-1, 1, size=2)
        prof = k_positivity_max(d, p, q)
        members = [v.member for v in prof.per_k]
        assert members == sorted(members, reverse=True)


def test_schmidt_number_examples():
    for d in (2, 4, 6):
        assert schmidt_number(d, 0, 0).schmidt_number == 1
        assert schmidt_number(d, 1, 0).schmidt_number == d


def test_schmidt_number_case2_vertex_boundary():
    # trapezoid vertex ((kd+k-1)/(d^2+d-2), -(k+1)/(d^2+d-2)) at d=4, k=2
    cls = schmidt_number(4, Fraction(9, 18), Fraction(-3, 18))
    assert cls.schmidt_number == 2
    assert cls.boundary


def test_isotropic_threshold():
    # known isotropic-state law: SN <= k iff a <= (kd-1)/(d^2-1)
    for d in range(2, 9):
        for k in range(1, d + 1):
            thr = Fraction(k * d - 1, d * d - 1)
            eps = Fraction(1, 10**6)
            assert schmidt_membership(d, thr, 0, k).status == "boundary"
            assert schmidt_membership(d, thr - eps, 0, k).status == "inside"
            if k < d:
                assert schmidt_membership(d, thr + eps, 0, k).status == "outside"


def test_werner_line_schmidt_numbers():
    # Werner states have Schmidt number 1 or 2 over the whole PSD range
    for d in range(2, 9):
        lo, hi = Fraction(-1, d - 1), Fraction(1, d + 1)
        for t in range(21):
            b = lo + (hi - lo) * Fraction(t, 20)
            cls = schmidt_number(d, 0, b)
            assert cls.schmidt_number in (1, 2)


def test_not_a_state():
    cls = schmidt_number(4, 2.0, 0.0)
    assert not cls.is_state
    assert cls.schmidt_number is None


def test_not_a_state_agrees_with_psd_check():
    rng = np.random.default_rng(1)
    d = 3
    for _ in range(60):
        a, b = rng.uniform(-0.8, 1.2, size=2)
        margin = schmidt_margin_grid(d, d, np.array(a), np.array(b))
        if abs(float(margin)) < 1e-6:
            continue
        member = schmidt_number(d, a, b).is_state
        assert member == is_psd(InvariantState(d, a, b).matrix())


def test_schmidt_chain_monotone_on_grid():
    axis = np.linspace(-1, 1, 20)
    for d in (3, 5):
        for a in axis:
            for b in axis:
                per = [schmidt_membership(d, a, b, k).member for k in range(1, d + 1)]
                assert per == sorted(per)


def test_nan_rejected():
    with pytest.raises(ValueError):
        schmidt_number(3, float("nan"), 0.0)
    with pytest.raises(ValueError):
        is_k_positive(3, float("inf"), 0.0, 1)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.array])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_numpy_values_rejected(dtype, bad):
    v = dtype(float(bad))
    with pytest.raises(ValueError):
        is_k_positive(4, v, 0.1, 2)
    with pytest.raises(ValueError):
        is_k_positive(4, 0.1, v, 2)
    with pytest.raises(ValueError):
        schmidt_membership(4, v, 0.0, 2)
    with pytest.raises(ValueError):
        schmidt_number(4, 0.0, v)


@pytest.mark.parametrize("flag", [True, False, np.bool_(True)])
def test_bools_rejected(flag):
    with pytest.raises(ValueError):
        is_k_positive(4, flag, 0, 2)
    with pytest.raises(ValueError):
        k_positivity_max(4, 0, flag)
    with pytest.raises(ValueError):
        schmidt_membership(4, flag, 0, 2)


def test_finite_numpy_scalars_still_accepted():
    assert is_k_positive(4, np.float32(0.1), np.float16(0.1), 2).member
    assert schmidt_number(4, np.float64(0.0), np.int64(0)).schmidt_number == 1


@pytest.mark.parametrize(
    "call, args",
    [
        pytest.param(is_k_positive, (3.0, Fraction(1, 3), 0, 1), id="float-d-exact"),
        pytest.param(is_k_positive, (4.5, 0.1, 0.1, 2), id="fractional-d"),
        pytest.param(is_k_positive, (4, 0, 0, True), id="bool-k"),
        pytest.param(is_k_positive, (4, 0.1, 0.1, 2.0), id="float-k"),
        pytest.param(schmidt_membership, (np.float64(4), Fraction(1, 5), 0, 2), id="numpy-float-d"),
        pytest.param(schmidt_number, (4.0, Fraction(1, 5), 0), id="float-d-profile"),
        pytest.param(k_positivity_max, (True, 0.1, 0.1), id="bool-d-profile"),
        pytest.param(k_superpositivity_max, (Fraction(4), 0, 0), id="fraction-d-profile"),
        pytest.param(schmidt_number, (0, 0.1, 0.1), id="zero-d-profile"),
        pytest.param(k_positivity_max, (-3, 0, 0), id="negative-d-profile"),
    ],
)
def test_non_integer_or_too_small_d_and_k_rejected(call, args):
    with pytest.raises(ValueError):
        call(*args)


@pytest.mark.parametrize(
    "tol",
    [float("nan"), float("inf"), -float("inf"), -100.0, -1e-12, np.float64("nan"), True, np.bool_(False)],
)
@pytest.mark.parametrize("x, y", [(0.25, 0.1), (Fraction(1, 4), 0)])
def test_bad_tolerance_rejected(tol, x, y):
    # NaN or inf would read every point as boundary, a negative tol as inside
    for call, args in (
        (is_k_positive, (4, x, y, 2)),
        (schmidt_membership, (4, x, y, 3)),
        (k_positivity_max, (4, x, y)),
        (schmidt_number, (4, x, y)),
        (k_superpositivity_max, (4, x, y)),
    ):
        with pytest.raises(ValueError):
            call(*args, tol=tol)


def test_zero_and_exact_tolerances_accepted():
    assert k_positivity_max(4, 0.0, 1.0, tol=0).max_k == 1
    assert schmidt_number(4, 0.0, 0.0, tol=Fraction(1, 10)).schmidt_number == 1
    assert is_k_positive(4, 1.0, 0.0, 4, tol=0.0).status == "boundary"


def test_numpy_integer_d_and_k_give_the_python_int_answer():
    # margins past the int64 range: a numpy d must not reach the integer path
    x, y = Fraction(-1, 2**61 - 1), Fraction(2**40, 2**62 - 57)
    for d in (5, 6):
        for k in range(1, d + 1):
            for member in (is_k_positive, schmidt_membership):
                want = member(d, x, y, k)
                got = member(np.int64(d), x, y, np.int32(k))
                assert got == want and type(got.margin) is Fraction
        assert schmidt_number(np.int64(d), x, y).per_k == schmidt_number(d, x, y).per_k
    # the cached case-3 conic and corners used to be built in int64, which
    # overflows from d = 32 on: the float query raised and the corners drifted
    for a, b in [(0.01, 0.0), (Fraction(1, 100), Fraction(0))]:
        got = schmidt_membership(np.int64(40), a, b, np.int64(30))
        assert got == schmidt_membership(40, a, b, 30)
    d, k = 10**4, 10**4 - 1
    got = state_region_vertices(np.int64(d), np.int64(k), exact=True)
    assert got == state_region_vertices(d, k, exact=True)


def _exact_verdict_lines():
    """One line per exact single-k verdict: the call, status, margin repr and type.

    d = 2..12, every k, both kinds, at every exact corner of every region of
    d, 150 seeded rationals (denominators up to 60 and up to 10^6), 20 small
    int points and 10 mixed int/Fraction points.
    """
    for d in range(2, 13):
        corners = sorted(
            {
                v
                for vertices in (map_region_vertices, state_region_vertices)
                for k in range(1, d + 1)
                for v in vertices(d, k, exact=True)
            }
        )
        for k in range(1, d + 1):
            rng = random.Random(100 * d + k)
            pts = list(corners)
            for i in range(150):
                den = rng.randint(1, 60 if i % 2 else 10**6)
                pts.append(tuple(Fraction(rng.randint(-den, 3 * den // 2), den) for _ in "xy"))
            pts += [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(20)]
            for _ in range(5):
                den = rng.randint(2, 1000)
                f = Fraction(rng.randint(-den, den), den)
                n = rng.randint(-1, 1)
                pts += [(n, f), (f, n)]
            for member in (is_k_positive, schmidt_membership):
                for x, y in pts:
                    v = member(d, x, y, k)
                    yield (
                        f"{member.__name__} {d} {k} {x!r} {y!r} "
                        f"{v.status} {v.margin!r} {type(v.margin).__name__}\n"
                    )


def test_exact_verdicts_match_the_pinned_digest():
    """32,832 exact verdicts hash to the digest of the Fraction-slack evaluator.

    The digest was computed with the earlier exact evaluator, which ran every
    slack and the conic in Fraction arithmetic, before exact margins moved to
    integer numerators over one common denominator.  It pins that the move
    changed no status, no margin value or repr and no margin type (int inputs
    keep int margins).
    """
    h = hashlib.sha256()
    n = 0
    for line in _exact_verdict_lines():
        h.update(line.encode())
        n += 1
    assert n == 32832
    assert h.hexdigest() == "8d4effb8264d93ce61ab2a34d93a1868ca5080b35a91fa60434eb3f6449e4dfe"


_PROFILES = (k_positivity_max, schmidt_number, k_superpositivity_max)


def _profile_lines():
    """One line per profile call: the call, its headline answer, and for every
    k the status, margin repr and margin type.

    d = 2..12, the three profile functions, at every exact corner of every
    region of d, 40 seeded rationals, 10 small int points, 10 mixed
    int/Fraction points, each exact (as drawn), as Python floats and as numpy
    float64 scalars; and in float mode the four signed zeros and four points
    whose slacks overflow to inf or nan, where the order of each min matters.
    """
    extremes = [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)]
    extremes += [(1e308, 1e308), (-1e308, 1e308), (1e300, -1e300), (-1.7e308, -1.7e308)]
    for d in range(2, 13):
        pts = sorted(
            {
                v
                for vertices in (map_region_vertices, state_region_vertices)
                for k in range(1, d + 1)
                for v in vertices(d, k, exact=True)
            }
        )
        rng = random.Random(d)
        for i in range(40):
            den = rng.randint(1, 60 if i % 2 else 10**6)
            pts.append(tuple(Fraction(rng.randint(-den, 3 * den // 2), den) for _ in "xy"))
        pts += [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(10)]
        for _ in range(5):
            f = Fraction(rng.randint(-50, 50), rng.randint(2, 50))
            n = rng.randint(-1, 1)
            pts += [(n, f), (f, n)]
        runs = [pts, [(float(x), float(y)) for x, y in pts] + extremes]
        runs.append([(np.float64(x), np.float64(y)) for x, y in runs[1]])
        for func in _PROFILES:
            for run in runs:
                for x, y in run:
                    res = func(d, x, y)
                    head = res.schmidt_number if func is schmidt_number else res.max_k
                    per_k = " ".join(
                        f"{v.status} {v.margin!r} {type(v.margin).__name__}" for v in res.per_k
                    )
                    yield f"{func.__name__} {d} {x!r} {y!r} {head} {per_k}\n"


def test_profiles_match_the_pinned_digest():
    """Every profile result hashes to a digest pinned before the change.

    The digest was computed on the code before the tolerance checks and the
    cheaper verdict construction, with each profile making one single-k call
    per k.  It pins that no later change to how a profile is evaluated moves
    a status, a margin value or repr, a margin type or a headline answer, in
    exact and float mode alike.
    """
    h = hashlib.sha256()
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):  # the overflowing points
        for line in _profile_lines():
            h.update(line.encode())
            n += 1
    assert n == 9195
    assert h.hexdigest() == "2ee020852eb61259a1cbb8578d8b8b7ea50cebfef272131b5daf811259c557e1"


def test_block_positivity_wrappers():
    assert k_block_positivity_max(4, 1, 0).max_k == 4
    assert k_block_positivity_max(4, 0, 1).max_k == 1


def test_superpositivity_profile():
    prof = k_superpositivity_max(4, 0, 0)
    assert prof.max_k == 4  # depolarizing map is CP, hence d-superpositive
    assert prof.min_k == 1  # and entanglement breaking
    prof = k_superpositivity_max(4, 1, 0)
    assert prof.max_k == 4 and prof.min_k == 4
    prof = k_superpositivity_max(4, 2.0, 0.0)
    assert prof.max_k == 0 and prof.min_k is None


def test_exact_and_float_modes_agree():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        num = rng.integers(-50, 51, size=2)
        p, q = Fraction(int(num[0]), 64), Fraction(int(num[1]), 64)
        for k in range(1, d + 1):
            ve = is_k_positive(d, p, q, k)
            vf = is_k_positive(d, float(p), float(q), k)
            if ve.status != "boundary":
                assert ve.status == vf.status
            se = schmidt_membership(d, p, q, k)
            sf = schmidt_membership(d, float(p), float(q), k)
            if se.status != "boundary":
                assert se.status == sf.status


def test_margin_grids_match_scalar_path():
    # one evaluator serves both paths, so the margins agree to the bit
    rng = np.random.default_rng(3)
    d = 5
    A = rng.uniform(-0.6, 1.1, size=12)
    B = rng.uniform(-0.6, 1.1, size=12)
    for k in range(1, d + 1):
        gm = kpos_margin_grid(d, k, A, B)
        gs = schmidt_margin_grid(d, k, A, B)
        for i in range(len(A)):
            assert gm[i] == float(is_k_positive(d, A[i], B[i], k).margin)
            assert gs[i] == float(schmidt_membership(d, A[i], B[i], k).margin)


def _grid_inputs():
    # points off and across every block edge, then layouts that are not one C-contiguous run
    rng = np.random.default_rng(28)
    for n in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17):
        yield f"n={n}", *rng.uniform(-0.7, 1.2, size=(2, n))
    axis = np.linspace(-0.7, 1.2, 131)
    P, Q = np.meshgrid(axis, axis[::-1])
    yield "meshgrid", P, Q
    yield "(n, 1) x (1, m)", axis[:, None], axis[None, ::2]
    yield "Fortran order", np.asfortranarray(P), Q
    yield "list", list(axis), list(axis[::-1])


def test_blocked_margin_grids_equal_the_whole_array_evaluation_bit_for_bit():
    # the margin grid runs the table on _BLOCK points at a time, reduced in place;
    # region_margin on the whole arrays, reduced by stacking, is the reference
    inputs = list(_grid_inputs())
    for d in range(2, 9):
        for k in range(1, d + 1):
            for kind, grid in (("map", kpos_margin_grid), ("state", schmidt_margin_grid)):
                for name, X, Y in inputs:
                    X0, Y0 = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
                    ref = region_margin(kind, d, k, X0, Y0, np.minimum.reduce, np.maximum)
                    got = grid(d, k, X, Y)
                    assert (got.shape, got.dtype) == (ref.shape, ref.dtype), (kind, d, k, name)
                    assert got.tobytes() == ref.tobytes(), (kind, d, k, name)
                got = grid(d, k, np.float64(0.15), 0.05)
                assert type(got) is np.float64
                assert got == region_margin(kind, d, k, np.asarray(0.15), np.asarray(0.05),
                                            np.minimum.reduce, np.maximum)


def test_a_margin_grid_peaks_below_twice_its_output():
    # stacking every slack of a 90,000-point case-3 grid peaked at 12 times the output
    axis = np.linspace(-0.6, 1.1, 300)
    A, B = np.meshgrid(axis, axis, indexing="ij")
    schmidt_margin_grid(4, 3, A, B)  # the region's records are built before tracing
    tracemalloc.start()
    try:
        m = schmidt_margin_grid(4, 3, A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.shape == (300, 300) and peak <= 2 * m.nbytes, peak / m.nbytes


def _inside_polyline(rb, x, y, tol):
    """Whether each point (x, y) is no further than tol outside the traced polyline of rb.

    The polyline runs through the vertices, then the arcs' inner samples; its
    edges are traced once, and the points are tested against them in blocks.
    """
    pts = np.array([*rb.vertices, *(p for arc in rb.arcs for p in arc.samples[1:-1])], dtype=float)
    (x0, y0), (x1, y1) = pts.T, np.roll(pts, -1, axis=0).T
    orient = 1.0 if np.sum(x0 * y1 - x1 * y0) >= 0 else -1.0  # the shoelace sum
    dx, dy = x1 - x0, y1 - y0
    length = np.hypot(dx, dy)
    x0, y0, dx, dy, length = (v[length > 0] for v in (x0, y0, orient * dx, orient * dy, length))
    inside = np.empty(x.size, dtype=bool)
    for r in range(0, x.size, 256):
        cross = dx * (y[r : r + 256, None] - y0) - dy * (x[r : r + 256, None] - x0)
        inside[r : r + 256] = ~(cross < -tol * length).any(axis=1)
    return inside


def _inside_reference(rb, pt, tol):
    # the per-edge loop over the same traversal, one point at a time
    pts = [(float(x), float(y)) for x, y in rb.vertices]
    for arc in rb.arcs:
        pts.extend((float(x), float(y)) for x, y in arc.samples[1:-1])
    n = len(pts)
    area2 = sum(pts[i][0] * pts[(i + 1) % n][1] - pts[(i + 1) % n][0] * pts[i][1] for i in range(n))
    orient = 1.0 if area2 >= 0 else -1.0
    x, y = float(pt[0]), float(pt[1])
    for i in range(n):
        (x0, y0), (x1, y1) = pts[i], pts[(i + 1) % n]
        cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
        edge = math.hypot(x1 - x0, y1 - y0)
        if edge > 0 and orient * cross < -tol * edge:
            return False
    return True


@pytest.mark.parametrize("d,k", [(3, 2), (4, 3), (5, 1), (6, 4)])
def test_inside_polyline_matches_the_per_edge_loop(d, k):
    # the figure test's containment helper, checked against the loop it vectorises
    rng = np.random.default_rng(d * 10 + k)
    pts = rng.uniform(-0.7, 1.2, size=(300, 2))
    for rb in (map_region_boundary(d, k, arc_samples=33), state_region_boundary(d, k, arc_samples=33),
               RegionBoundary(vertices=((0, 0), (0, 0), (1, 0), (1, 1)))):
        # the corners, which lie on the boundary, and the traversal reversed
        cases = np.array([*pts, *rb.vertices], dtype=float)
        traversal = [*rb.vertices, *(p for arc in rb.arcs for p in arc.samples[1:-1])]
        flipped = RegionBoundary(vertices=tuple(reversed(traversal)))
        for tol in (0.0, 1e-9, 0.05):
            for b in (rb, flipped):
                expected = [_inside_reference(b, pt, tol) for pt in cases]
                assert _inside_polyline(b, cases[:, 0], cases[:, 1], tol).tolist() == expected


def test_figure_concordance_d4():
    # classifier and boundary generator agree pixel-by-pixel off the boundary
    d = 4
    axis = np.linspace(-0.65, 1.15, 300)
    P, Q = np.meshgrid(axis, axis, indexing="ij")
    for k in range(1, d + 1):
        for rb, margins in ((map_region_boundary(d, k, arc_samples=2048), kpos_margin_grid(d, k, P, Q)),
                            (state_region_boundary(d, k, arc_samples=2048), schmidt_margin_grid(d, k, P, Q))):
            sel = np.nonzero(np.abs(margins) > 1e-4)
            sel = (sel[0][::7], sel[1][::7])
            assert np.array_equal(margins[sel] > 0, _inside_polyline(rb, P[sel], Q[sel], tol=1e-7))


def test_result_types_are_immutable_picklable_named_tuples():
    conic = kpos_conic(5, 3, exact=True)
    assert repr(conic) == "Conic(A=14, B=-32, C=4, D=-13, E=-3, F=-1)"
    assert conic == (14, -32, 4, -13, -3, -1) == conic.coefficients()
    rb = state_region_boundary(5, 3, arc_samples=8)
    cls = schmidt_number(5, Fraction(3, 10), Fraction(-1, 10))
    results = [conic, HalfPlane(1, 2, 3), rb, rb.arcs[0], cls, cls.per_k[0]]
    results += [k_positivity_max(5, 0.1, 0.2), k_superpositivity_max(5, 0.1, 0.2)]
    for obj in results:
        with pytest.raises(AttributeError):
            setattr(obj, obj._fields[0], None)
        with pytest.raises(AttributeError):
            obj.extra = None
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and type(back) is type(obj) and repr(back) == repr(obj)
    assert pickle.loads(pickle.dumps(cls)).is_state and cls.schmidt_number == 2
    with pytest.raises(ValueError):
        HalfPlane(0, 0, 1)
