import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from schmidt_cone.geometry import (
    Conic,
    HalfPlane,
    conic_through_five_points,
    dual_conic,
    dual_tangency_points,
    dual_tangent_lines,
    kpos_conic,
    map_region_boundary,
    map_region_vertices,
    pairing_map,
    pairing_map_inv,
    pole_of_tangent,
    region_case,
    region_csv,
    region_payload,
    region_svg,
    state_region_boundary,
    state_region_vertices,
    tangency_discriminant,
    witness_halfplane,
)
from schmidt_cone import geometry
from schmidt_cone.classify import (
    is_k_positive,
    kpos_margin_grid,
    schmidt_margin_grid,
    schmidt_membership,
)


def test_kpos_conic_d4_k3_coefficients():
    # frozen from substituting d=4, k=3 into the coefficient formulas
    assert kpos_conic(4, 3, exact=True).coefficients() == (11, -2, 3, -10, -2, -1)


@pytest.mark.parametrize("d,k", [(4.0, 3), (4, 3.0), (True, 1), (4, True)])
def test_cached_builders_refuse_a_non_integer_d_or_k(d, k):
    # the (4, 3) entries exist first, so an equal float or bool key must not hit them
    kpos_conic(4, 3, exact=True), dual_conic(4, 3), map_region_vertices(4, 3, exact=True)
    builders = (kpos_conic, dual_conic, dual_tangent_lines, dual_tangency_points, map_region_vertices,
                state_region_vertices)
    for build in builders:
        with pytest.raises(ValueError):
            build(d, k)


@pytest.mark.parametrize("d,k", [(np.array(4), 3), (np.array(5), 3), (5, np.array(3))])
@pytest.mark.parametrize(
    "build",
    [kpos_conic, map_region_vertices, state_region_vertices, dual_conic, dual_tangency_points,
     dual_tangent_lines],
)
def test_cached_builders_refuse_an_unhashable_d_or_k_as_region_case_does(build, d, k):
    # a 0-d array used to reach the cache, which raised TypeError on hashing it
    with pytest.raises(ValueError, match="must be an integer"):
        build(d, k)


def test_a_numpy_integer_d_or_k_shares_the_cache_entry_of_the_python_int():
    # a typed cache used to build and keep one more copy per integer type
    cases = [
        (kpos_conic, (5, 3, True), [(np.int64(5), 3, True), (np.int32(5), np.int64(3), True)]),
        (geometry._vertices, (5, 3, "map", True), [(np.int64(5), np.int64(3), "map", True)]),
        (dual_conic, (7, 5), [(np.int64(7), np.int64(5)), (7, np.int32(5))]),
    ]
    for build, args, numpy_args in cases:
        first = build(*args)
        size = build.__wrapped__.cache_info().currsize
        for other in numpy_args:
            assert build(*other) is first
        assert build.__wrapped__.cache_info().currsize == size


def test_a_record_has_one_cache_entry_however_its_arguments_are_spelled():
    # the table passes exact by position, the CLI and the bench by keyword,
    # and each spelling used to build and keep its own copy
    kpos_conic.cache_clear()
    first = kpos_conic(5, 3, exact=True)
    for same in (kpos_conic(5, 3, True), kpos_conic(d=5, k=3, exact=True)):
        assert same is first is kpos_conic.__wrapped__(5, 3, True)  # the table's positional lookup
    assert kpos_conic(5, 3) is kpos_conic(5, 3, False) is kpos_conic(5, 3, exact=False)
    assert kpos_conic.__wrapped__.cache_info().currsize == 2
    dual_conic.cache_clear()
    assert dual_conic(7, 5) is dual_conic(7, 5, True) is dual_conic(7, 5, exact=True)
    assert dual_conic.__wrapped__.cache_info().currsize == 1
    for wrong in ({"exac": True}, {"exact": True, "d": 5}):
        with pytest.raises(TypeError):
            kpos_conic(5, 3, **wrong)
    with pytest.raises(TypeError):
        kpos_conic(5, 3, True, exact=True)
    with pytest.raises(TypeError):
        geometry._vertices(5, 3, exact=True)
    assert kpos_conic.__wrapped__.cache_info().currsize == 2


def test_every_cached_record_is_bounded():
    # more (d, k, exact) records than the bound, and more boundaries than theirs
    for d in range(2, 131):
        for k in range(1, d + 1):
            for exact in (False, True):
                kpos_conic(d, k, exact=exact)
                map_region_vertices(d, k, exact)
    for d in range(2, 13):
        for k in range(1, d + 1):
            map_region_boundary(d, k, arc_samples=3)
    kept = {kpos_conic: 8192, geometry._dual: 8192, dual_conic: 8192, geometry._vertices: 8192,
            geometry._boundary: 64}
    for build, maxsize in kept.items():
        info = build.__wrapped__.cache_info()
        assert info.maxsize == maxsize and info.currsize <= maxsize
    for build, full in ((kpos_conic, 8192), (geometry._vertices, 8192), (geometry._boundary, 64)):
        assert build.__wrapped__.cache_info().currsize == full


@pytest.mark.parametrize("k", [0, 5])
@pytest.mark.parametrize("exact", [False, True])
def test_kpos_conic_refuses_a_k_outside_1_to_d(k, exact):
    # kpos_conic(4, -3) used to build a conic, as every k did
    with pytest.raises(ValueError, match=f"k={k} out of range 1..4"):
        kpos_conic(4, k, exact=exact)


def test_kpos_conic_d5_matches_display():
    for k in (3, 4):
        expected = (5 * k - 1, -(122 - 30 * k), 4, -(5 * k - 2), -3, -1)
        assert kpos_conic(5, k, exact=True).coefficients() == expected


def test_kpos_conic_contains_one_zero():
    # algebraic identity: A + D + F = 0, so (1, 0) always lies on the conic
    for d in range(2, 9):
        for k in range(1, d + 1):
            assert kpos_conic(d, k, exact=True)(1, 0) == 0


def test_classify_conic_examples():
    assert kpos_conic(5, 3, exact=True).classify() == "hyperbola"
    assert kpos_conic(5, 4, exact=True).classify() == "ellipse"
    assert Conic(1, 0, 1, 0, 0, -1).classify() == "ellipse"  # unit circle
    assert Conic(1, 0, 0, 0, -1, 0).classify() == "parabola"  # y = x^2
    assert Conic(1, 0, -1, 0, 0, 0).classify() == "degenerate"  # pair of lines


def test_classify_conic_float_path():
    assert kpos_conic(5, 3).classify() == "hyperbola"
    assert kpos_conic(5, 4).classify() == "ellipse"
    assert Conic(1.0, 0.0, 1.0, 0.0, 0.0, -1.0).classify() == "ellipse"


def test_float_classification_agrees_with_exact_on_every_region_conic():
    # the tolerance branch of classify: read as exact Fractions, the float
    # forms of the degenerate kpos conics (k = d, and case 2) are hyperbolas
    conics = [kpos_conic(d, k, exact=True) for d in range(2, 41) for k in range(1, d + 1)]
    conics += [dual_conic(d, k, exact=True) for d, k in _case3_pairs(40)]
    assert len(conics) == 1199
    assert [c.as_float().classify() for c in conics] == [c.classify() for c in conics]
    assert {c.classify() for c in conics} == {"degenerate", "ellipse", "hyperbola"}


def test_float_case3_conics_are_shared_and_unchanged():
    # built once per (d, k) and shared, equal to a fresh float conversion of
    # the exact conic, so float margins keep every bit
    for d in range(3, 13):
        for k in range(1, d + 1):
            if region_case(d, k) != 3:
                continue
            fresh = Conic(*(float(c) for c in kpos_conic(d, k, exact=True).coefficients()))
            assert kpos_conic(d, k) is kpos_conic(d, k) == fresh
            fresh = dual_conic(d, k, exact=True).as_float()
            assert dual_conic(d, k, exact=False) is dual_conic(d, k, exact=False) == fresh
    # margins where the conic binds, as read before the conics were cached
    assert is_k_positive(5, -0.064, 0.089, 4).margin == -0.005900000000000016
    assert is_k_positive(6, -0.048, 0.075, 4).margin == 0.004483000000000015
    assert is_k_positive(6, -0.047, 0.073, 4).margin == 0.029584000000000055
    assert is_k_positive(8, -0.026, 0.057, 6).margin == -0.018182999999999838
    assert schmidt_membership(5, 0.78, -0.048, 4).margin == -0.00016396383363472076
    assert schmidt_membership(6, 0.65, -0.063, 4).margin == -6.887261146497131e-05
    assert schmidt_membership(6, 0.64, -0.062, 4).margin == 0.0003035668789808919
    assert schmidt_membership(8, 0.73, -0.034, 6).margin == -6.093847799446114e-05


def test_pairing_map_values_and_round_trip():
    assert pairing_map(3, (0, 0)) == (0, 0)
    # frozen matrix multiply: -(d-1) [[d+1, 1], [1, d+1]] (1, 0)^T at d = 4
    assert pairing_map(4, (1, 0)) == (-15, -3)
    pt = (Fraction(3, 7), Fraction(-2, 5))
    assert pairing_map_inv(5, pairing_map(5, pt)) == pt
    x, y = pairing_map_inv(5, pairing_map(5, (0.3, -0.4)))
    assert abs(x - 0.3) < 1e-12 and abs(y + 0.4) < 1e-12


def test_witness_halfplane_matches_pairing_sign():
    # alpha(p, q).x <= 1 is the same constraint as the closed-form pairing >= -1/(d-1)
    rng = np.random.default_rng(0)
    d = 4
    for _ in range(20):
        p, q, a, b = rng.uniform(-1, 1, size=4)
        slack = witness_halfplane(d, p, q).slack((a, b))
        pair = (d + 1) * (p * a + q * b) + p * b + q * a + 1 / (d - 1)
        assert abs(slack - (d - 1) * pair) < 1e-10


def test_pole_of_tangent_unit_circle():
    circle = Conic(1, 0, 1, 0, 0, -1)
    assert pole_of_tangent(circle, (1, 0)) == (1, 0)


def test_pole_of_tangent_errors():
    circle = Conic(1, 0, 1, 0, 0, -1)
    with pytest.raises(ValueError):
        pole_of_tangent(circle, (2, 0))
    parabola = Conic(1, 0, 0, 0, -1, 0)
    with pytest.raises(ValueError):
        pole_of_tangent(parabola, (0, 0))  # tangent y=0 passes through the origin


@pytest.mark.parametrize(
    "pt, tol, message",
    [
        ((2.0, 0.0), math.nan, "non-finite"),  # used to return (2.0, 0.0) off the circle
        ((5.0, 0.0), math.inf, "non-finite"),  # used to accept a point off the circle
        ((1.0, 0.0), True, "boolean"),  # used to be read as 1
        ((1.0, 0.0), -1e-9, "negative tolerance"),  # used to refuse a point on the circle
    ],
)
def test_pole_of_tangent_refuses_a_bad_tolerance(pt, tol, message):
    with pytest.raises(ValueError, match=message):
        pole_of_tangent(Conic(1, 0, 1, 0, 0, -1), pt, tol=tol)


_BAD = [math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf")]


@pytest.mark.parametrize("bad", [*_BAD, True, np.bool_(False)])
def test_pole_of_tangent_refuses_a_non_finite_or_bool_point(bad):
    conic = kpos_conic(5, 4, exact=True)
    for pt in ((bad, 0.0), (1.0, bad)):
        with pytest.raises(ValueError, match="non-finite|boolean"):
            pole_of_tangent(conic, pt)
    with pytest.raises(ValueError, match="non-finite|boolean"):
        pole_of_tangent(Conic(1, 0, 1, 0, 0, bad), (1.0, 0.0))


@pytest.mark.parametrize(
    "coeffs",
    [
        (math.nan, 0, 1, 0, 0, -1),  # classified as a parabola
        (1, 0, 1, 0, 0, math.nan),  # an ellipse
        (math.inf, 0, 1, 0, 0, -1),  # degenerate
        (1.0, 0.0, 1.0, 0.0, 0.0, -math.inf),
        (1, 0, 1, 0, np.float32("nan"), -1),
        (True, 0, 1, 0, 0, -1),  # read as 1
        (1, 0, 1, 0, 0, np.bool_(True)),
    ],
)
def test_conic_refuses_a_non_finite_or_bool_coefficient(coeffs):
    with pytest.raises(ValueError, match="non-finite|boolean"):
        Conic(*coeffs)
    with pytest.raises(ValueError, match="non-finite|boolean"):
        Conic(1, 0, 1, 0, 0, -1)._replace(**dict(zip("ABCDEF", coeffs)))
    with pytest.raises(ValueError, match="non-finite|boolean"):
        Conic._make(coeffs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, np.float64("-inf"), True])
def test_conic_arc_points_refuses_a_non_finite_end_or_anchor(bad):
    circle = Conic(1, 0, 1, 0, 0, -1)
    good = {"start": (1.0, 0.0), "end": (0.0, 1.0), "anchor": (-1.0, 0.0)}
    assert len(geometry.conic_arc_points(circle, n=5, **good)) == 5
    for name in good:
        for pt in ((bad, good[name][1]), (good[name][0], bad)):
            # an anchor of (nan, 0) used to give NaN samples
            with pytest.raises(ValueError, match="non-finite|boolean"):
                geometry.conic_arc_points(circle, n=5, **{**good, name: pt})


@pytest.mark.parametrize("bad", [*_BAD, True, np.bool_(False)])
def test_witness_halfplane_refuses_a_non_finite_witness(bad):
    # a bool used to be read as a number: HalfPlane(-15, -3, 1) at d = 4 for True
    for p, q in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(ValueError, match="non-finite|boolean"):
            witness_halfplane(4, p, q)


@pytest.mark.parametrize("bad", [*_BAD, True, np.bool_(True)])
def test_halfplane_refuses_a_non_finite_or_bool_entry(bad):
    for entries in ((bad, 1, 1), (1, bad, 1), (1, 1, bad)):
        with pytest.raises(ValueError, match="non-finite|boolean"):
            HalfPlane(*entries)
    with pytest.raises(ValueError, match="nonzero"):
        HalfPlane(0, 0.0, 1)
    with pytest.raises(ValueError, match="nonzero"):
        HalfPlane(1, 0, 1)._replace(nx=0)


@pytest.mark.parametrize("bad", [*_BAD, True, np.bool_(False)])
def test_conic_through_five_points_refuses_a_non_finite_or_bool_coordinate(bad):
    circle = [(1, 0), (0, 1), (-1, 0), (0, -1), (Fraction(3, 5), Fraction(4, 5))]
    for pts in (circle, [(float(x), float(y)) for x, y in circle]):
        for i in range(5):
            for j in range(2):
                moved = [list(pt) for pt in pts]
                moved[i][j] = bad
                with pytest.raises(ValueError, match="non-finite|boolean"):
                    conic_through_five_points(moved)
        for interior in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match="non-finite|boolean"):
                conic_through_five_points(pts, interior=interior)


def test_dual_tangency_points_are_the_exact_poles_of_the_map_conic_at_every_case3_pair_to_d60():
    # checks _dual's transcribed points and the state chord's corners against
    # the map conic, in exact arithmetic: the map corners (1, 0), (0, 1) and
    # (0, -1/(d-1)), then the arc's start and end, under pole and inverse pairing
    pairs = [(d, k) for d in range(2, 61) for k in range(1, d + 1) if region_case(d, k) == 3]
    assert len(pairs) == 870
    for d, k in pairs:
        conic = kpos_conic(d, k, exact=True)
        end, *_, start = map_region_vertices(d, k, exact=True)
        P = [(1, 0), (0, 1), (0, Fraction(-1, d - 1)), start, end]
        assert dual_tangency_points(d, k) == [pairing_map_inv(d, pole_of_tangent(conic, p)) for p in P]


@pytest.mark.parametrize("d,k", [(4, 3), (5, 3), (5, 4)])
def test_pole_consistency_with_dual_conic(d, k):
    conic = kpos_conic(d, k)
    rb = map_region_boundary(d, k, arc_samples=17)
    dual = dual_conic(d, k, exact=False)
    # fitted dual of the untransformed dual curve (poles of the five rational points)
    base_pts = [
        (1.0, 0.0),
        (0.0, 1.0),
        (0.0, -1.0 / (d - 1)),
        (-1.0 / (k * d - 1), 0.0),
        (-2.0 / (d * d + d - 2), d / (d * d + d - 2)),
    ]
    poles = [pole_of_tangent(conic, pt) for pt in base_pts]
    polar_curve = conic_through_five_points(poles)
    for pt in rb.arcs[0].samples[1:-1]:
        pole = pole_of_tangent(conic, pt, tol=1e-7)
        assert abs(polar_curve(*pole)) < 1e-9
        sx, sy = pairing_map_inv(d, pole)
        assert abs(dual(sx, sy)) < 1e-8


def test_conic_five_points_recovers_circle():
    pts = [(1, 0), (0, 1), (-1, 0), (0, -1), (Fraction(3, 5), Fraction(4, 5))]
    conic = conic_through_five_points(pts, interior=(0, 0))
    A, B, C, D, E, F = conic.coefficients()
    assert (B, D, E) == (0, 0, 0)
    assert A == C and F == -A and A > 0


def test_conic_five_points_degenerate_configuration():
    collinear = [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1)]
    with pytest.raises(ValueError):
        conic_through_five_points(collinear)
    with pytest.raises(ValueError):
        conic_through_five_points([(float(x), float(y)) for x, y in collinear])


def test_conic_five_points_random_refit_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        cx, cy = rng.uniform(-1, 1, size=2)
        ra, rb_ = rng.uniform(0.3, 2.0, size=2)
        th = rng.uniform(0, np.pi)
        ct, st = np.cos(th), np.sin(th)
        # implicit coefficients of ((x')/ra)^2 + ((y')/rb)^2 = 1 in rotated frame
        a11 = (ct / ra) ** 2 + (st / rb_) ** 2
        a22 = (st / ra) ** 2 + (ct / rb_) ** 2
        a12 = ct * st * (1 / ra**2 - 1 / rb_**2)
        A, B, C = a11, 2 * a12, a22
        D = -2 * a11 * cx - 2 * a12 * cy
        E = -2 * a22 * cy - 2 * a12 * cx
        F = a11 * cx**2 + 2 * a12 * cx * cy + a22 * cy**2 - 1
        ref = np.array([A, B, C, D, E, F])
        angles = rng.uniform(0, 2 * np.pi, size=5)
        pts = [
            (cx + ra * math.cos(t) * ct - rb_ * math.sin(t) * st,
             cy + ra * math.cos(t) * st + rb_ * math.sin(t) * ct)
            for t in angles
        ]
        fitted = np.array(conic_through_five_points(pts, interior=(cx, cy)).coefficients())
        cos_sim = abs(ref @ fitted) / (np.linalg.norm(ref) * np.linalg.norm(fitted))
        assert cos_sim >= 1 - 1e-9


_UNIT_CIRCLE = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.6, 0.8)]


def test_float_fit_of_a_circle_far_from_the_origin():
    # an unscaled SVD read these points as a degenerate configuration
    conic = conic_through_five_points([(x + 1e4, y) for x, y in _UNIT_CIRCLE], interior=(1e4, 0.0))
    assert all(type(c) is float for c in conic)
    assert abs(conic.B / conic.A) < 1e-9
    assert abs(conic.C / conic.A - 1) < 1e-9
    assert conic(1e4, 0.0) < 0


@pytest.mark.parametrize("real", [float, np.float32, np.float64])
def test_float_fit_accepts_python_and_numpy_floats(real):
    pts = [(real(x), real(y)) for x, y in _UNIT_CIRCLE]
    conic = conic_through_five_points(pts, interior=(real(0), real(0)))
    assert all(type(c) is float for c in conic)
    assert max(abs(c) for c in conic) == 1.0
    assert conic.A == pytest.approx(1.0) and conic.C == pytest.approx(1.0) and conic.F == -1.0
    assert abs(conic.B) < 1e-6 and conic.D == conic.E == 0.0


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_float_fit_of_points_at_extreme_scales(scale):
    # the integer fit is scaled down exactly, so no float overflows on the way
    conic = conic_through_five_points([(x * scale, y * scale) for x, y in _UNIT_CIRCLE], interior=(0.0, 0.0))
    assert all(type(c) is float and math.isfinite(c) for c in conic)
    assert max(abs(c) for c in conic) == 1.0
    assert conic.A == pytest.approx(conic.C) and conic.A * conic.F < 0
    assert conic.F / conic.A == pytest.approx(-scale * scale)


def _exact_fit_lines():
    """One line per exact five-point fit: the inputs and the conic's repr or the error.

    4,000 seeded sets of ints and Fractions n/m with |n| <= 12 and m <= 12.  Of
    every five sets one repeats a point and one puts four points on a line; a
    random half pass an interior point.  Then ``dual_conic(d, k)`` for every
    case-3 pair with d <= 40.
    """
    rng = random.Random(11)

    def coord():
        v = Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 5, 7, 12)))
        return int(v) if v.denominator == 1 and rng.random() < 0.5 else v

    for i in range(4000):
        pts = [(coord(), coord()) for _ in range(5)]
        if i % 5 == 1:
            src, dst = rng.sample(range(5), 2)
            pts[dst] = pts[src]
        elif i % 5 == 2:
            (x0, y0), (u, v) = pts[0], (coord(), coord())
            if u == v == 0:
                u = 1
            ts = rng.sample(range(-6, 7), 4)
            for j, t in zip(rng.sample(range(5), 4), ts):
                pts[j] = (x0 + Fraction(t, 3) * u, y0 + Fraction(t, 3) * v)
        interior = (coord(), coord()) if rng.random() < 0.5 else None
        try:
            res = repr(conic_through_five_points(pts, interior))
        except ValueError as e:
            res = f"ValueError: {e}"
        yield f"fit {pts!r} {interior!r} {res}\n"
    for d, k in _case3_pairs(40):
        yield f"dual {d} {k} {dual_conic(d, k)!r}\n"


def test_exact_fits_match_the_pinned_digest():
    """Every exact fit hashes to a digest pinned on the Fraction Gauss-Jordan fit.

    The digest was computed before the fit moved to fraction-free integer
    elimination.  It pins that the move changed no coefficient, no sign, no
    coefficient type and no refusal.
    """
    h = hashlib.sha256()
    lines = list(_exact_fit_lines())
    for line in lines:
        h.update(line.encode())
    assert len(lines) == 4000 + len(_case3_pairs(40))
    assert sum("ValueError" in line for line in lines) == 1607  # every repeat and four-on-a-line set
    assert h.hexdigest() == "a94c80911bd57238b54e77d0f4329662edf7fe23d1b9dc32ff55f22435c73527"


def _predicate_lines():
    """One line per call of the three conic predicates: its inputs and outcome.

    A value is written as its repr and type, an exception as its type and
    message.  ``Conic.classify`` runs on every region conic for d <= 40, exact
    and float, and on 20,000 seeded conics: ints, Fractions, floats, numpy
    float64 and float32, mixes of these, huge ints (some with a float among
    them), line pairs and near-parabolas.
    ``pole_of_tangent`` runs on 8,000 seeded conics through a point (exact
    on them, rounded or pushed off), with four tolerances, and
    ``tangency_discriminant`` on 8,000 seeded conics and lines.
    """
    rng = random.Random(22)

    def outcome(fn, *args):
        try:
            v = fn(*args)
        except Exception as e:
            return f"{type(e).__name__}: {e}"
        types = [type(c).__name__ for c in v] if isinstance(v, tuple) else type(v).__name__
        return f"{v!r} {types}"

    def scalar(kind):
        if kind == "mixed":
            kind = rng.choice(("int", "frac", "float", "f64"))
        if kind == "int":
            return rng.randint(-3, 3)
        if kind == "frac":
            return Fraction(rng.randint(-6, 6), rng.randint(1, 7))
        if kind == "huge":
            return rng.randint(-(10**40), 10**40) * rng.choice((1, 10**360))
        v = float(rng.randint(-3, 3)) if rng.random() < 0.3 else rng.uniform(-3, 3)
        return {"float": v, "f64": np.float64(v), "f32": np.float32(v)}[kind]

    kinds = ("int", "frac", "float", "f64", "f32", "mixed", "huge")
    conics = [kpos_conic(d, k, exact=True) for d in range(2, 41) for k in range(1, d + 1)]
    conics += [dual_conic(d, k, exact=True) for d, k in _case3_pairs(40)]
    conics += [c.as_float() for c in conics]
    for i in range(20000):
        if i % 10 == 9:  # B^2 - 4AC within a few ulps of zero, or exactly zero
            a, c = rng.uniform(0.5, 2), rng.uniform(0.5, 2)
            eps = rng.choice((0.0, 1e-15, -1e-15, 1e-13, -1e-13, 1e-11, -1e-11, 1e-9))
            rest = [rng.uniform(-2, 2) for _ in range(3)]
            conics.append(Conic(a, 2 * math.sqrt(a * c) * (1 + eps), c, *rest))
        elif i % 10 == 8:  # a pair of lines, exact or rounded
            kind = rng.choice(("int", "frac", "float"))
            (a, b, c), (u, v, w) = ([scalar(kind) for _ in range(3)] for _ in range(2))
            conics.append(Conic(a * u, a * v + b * u, b * v, a * w + c * u, b * w + c * v, c * w))
        else:
            kind = kinds[i % 7]
            coeffs = [scalar(kind) for _ in range(6)]
            if kind == "huge" and i % 2:  # floats in, and an int too large for one
                coeffs[5] = rng.uniform(-3, 3)
            conics.append(Conic(*coeffs))
    for conic in conics:
        yield f"classify {conic!r} {outcome(Conic.classify, conic)}\n"
    pole_kinds = ("int", "frac", "float", "f64", "f32", "mixed")
    for i in range(8000):
        kind = pole_kinds[i % 6]
        x, y = scalar(kind), scalar(kind)
        A, B, C, D, E = (scalar(kind) for _ in range(5))
        F = -(A * x * x + B * x * y + C * y * y + D * x + E * y)
        F += rng.choice((0, 0, 0, 1e-13, 1e-10, 1e-7, 1e-4, 1))
        if rng.random() < 0.02:
            x = rng.choice((math.nan, math.inf, True))
        conic, tol = Conic(A, B, C, D, E, F), rng.choice((1e-9, 1e-9, 1e-6, 0.0, 1e-13))
        yield f"pole {conic!r} {(x, y)!r} {tol!r} {outcome(pole_of_tangent, conic, (x, y), tol)}\n"
    for i in range(8000):
        kind = pole_kinds[i % 6]
        conic = Conic(*(scalar(kind) for _ in range(6)))
        nx, ny, c = (scalar(rng.choice(pole_kinds)) for _ in range(3))
        if rng.random() < 0.25:
            ny = 0
        if nx == 0 and ny == 0:
            nx = 1
        line = HalfPlane(nx, ny, c)
        yield f"tangency {conic!r} {line!r} {outcome(tangency_discriminant, conic, line)}\n"


def test_conic_predicates_match_the_pinned_digest():
    """Every predicate outcome hashes to a digest pinned on the two-branch predicates.

    The digest was computed while ``classify``, ``pole_of_tangent`` and
    ``tangency_discriminant`` stated each decision twice, once exactly and once
    in floats.  It pins that one rule, run at tolerance zero on exact input,
    changed no answer, no value type and no error message.
    """
    h = hashlib.sha256()
    lines = list(_predicate_lines())
    for line in lines:
        h.update(line.encode())
    assert len(lines) == 2 * 1199 + 20000 + 8000 + 8000
    assert h.hexdigest() == "afc151e38614d9c4e93ff57265e02d24adfb54b573006dc4ba3dd6b78fdce653"


def _case3_pairs(dmax):
    return [(d, k) for d in range(2, dmax + 1) for k in range(1, d + 1) if region_case(d, k) == 3]


def test_dual_conic_is_the_polar_dual_of_the_kpos_conic():
    """The dual ellipse is the kpos conic's dual, carried to state coordinates.

    With Q the symmetric matrix of ``kpos_conic``, adj(Q) is its dual conic in
    line coordinates.  J = diag(1, 1, -1) turns that into the polar curve with
    respect to the unit circle, and T (the pairing map, extended by w -> w)
    moves it to state coordinates: T^t J adj(Q) J T, made primitive with A > 0.
    """

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(3)) for j in range(3)] for i in range(3)]

    def adj(m):
        return [
            [m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
             - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3] for j in range(3)]
            for i in range(3)
        ]

    J = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    for d, k in _case3_pairs(40):
        A, B, C, D, E, F = kpos_conic(d, k, exact=True).coefficients()
        Q = [[2 * A, B, D], [B, 2 * C, E], [D, E, 2 * F]]
        T = [[-(d - 1) * (d + 1), -(d - 1), 0], [-(d - 1), -(d - 1) * (d + 1), 0], [0, 0, 1]]
        Tt = [list(col) for col in zip(*T)]
        M = mul(mul(mul(mul(Tt, J), adj(Q)), J), T)
        coeffs = [M[0][0], 2 * M[0][1], M[1][1], 2 * M[0][2], 2 * M[1][2], M[2][2]]
        g = math.gcd(*coeffs) * (1 if coeffs[0] > 0 else -1)
        assert dual_conic(d, k, exact=True).coefficients() == tuple(c // g for c in coeffs)
        chord = geometry._REGIONS["state", 3].slacks
        for x, y in dual_tangency_points(d, k, exact=True)[-2:]:
            assert chord(d, k, x, y)[-1] == 0  # the arc's ends lie on the state chord


def _primitive(nx, ny, c):
    """A line n.x <= c as its primitive integer triple, the side kept."""
    den = math.lcm(*(Fraction(v).denominator for v in (nx, ny, c)))
    ints = [int(v * den) for v in (nx, ny, c)]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def test_the_map_and_state_tables_are_exact_polar_duals():
    """Each table's lines are the witness half-planes of the other's corners.

    The pairing is symmetric, so a state corner (a, b) cuts the maps by
    witness_halfplane(d, a, b) as a map corner cuts the states.  The state
    chord of case 3 is no such line: the dual ellipse replaces it.  The
    ellipse's five tangency points are the poles of the kpos conic's tangents
    at (1, 0), (0, 1), (0, -1/(d-1)) and the map arc's ends, carried back by
    the inverse pairing map.
    """
    n_state = n_map = 0
    for d in range(2, 41):
        for k in range(1, d + 1):
            case = region_case(d, k)
            map_corners = map_region_vertices(d, k, exact=True)
            state_corners = state_region_vertices(d, k, exact=True)
            from_maps = {_primitive(*witness_halfplane(d, p, q)) for p, q in map_corners}
            from_states = {_primitive(*witness_halfplane(d, a, b)) for a, b in state_corners}
            state_lines = geometry._halfplanes(geometry._REGIONS["state", case].slacks, d, k)
            if case == 3:
                state_lines = state_lines[:-1]  # the chord
            map_lines = geometry._halfplanes(geometry._REGIONS["map", case].slacks, d, k)
            assert {_primitive(*h) for h in state_lines} <= from_maps, (d, k)
            assert {_primitive(*h) for h in map_lines} <= from_states, (d, k)
            n_state += len(state_lines)
            n_map += len(map_lines)
            if case == 3:
                start, end = geometry._REGIONS["map", 3].ends(d, k)
                conic = kpos_conic(d, k, exact=True)
                touch = [(1, 0), (0, 1), (0, Fraction(-1, d - 1)), start, end]
                poles = [pairing_map_inv(d, pole_of_tangent(conic, pt)) for pt in touch]
                assert poles == dual_tangency_points(d, k, exact=True), (d, k)
    assert (n_state, n_map) == (3237, 2857)


def test_dual_conic_five_point_zeros_exact():
    for d, k in _case3_pairs(10):
        conic = dual_conic(d, k, exact=True)
        for x, y in dual_tangency_points(d, k, exact=True):
            assert conic(x, y) == 0


def test_dual_conic_tangent_to_all_five_lines_exactly():
    for d, k in _case3_pairs(10):
        conic = dual_conic(d, k, exact=True)
        for line in dual_tangent_lines(d, k):
            assert tangency_discriminant(conic, line) == 0


def test_dual_conic_is_ellipse():
    for d, k in _case3_pairs(10):
        assert dual_conic(d, k, exact=True).classify() == "ellipse"


def test_dual_tangency_points_sit_on_their_lines():
    for d, k in _case3_pairs(8):
        pts = dual_tangency_points(d, k, exact=True)
        lines = dual_tangent_lines(d, k)
        for i, (pt, line) in enumerate(zip(pts, lines)):
            assert line.slack(pt) == 0
            for j, other in enumerate(lines):
                if j != i:
                    assert other.slack(pt) > 0  # inscribed in the pentagon


def test_map_region_vertices_examples():
    # quadrilateral case, d=4, k=2
    assert map_region_vertices(4, 2, exact=True) == [
        (1, 0),
        (0, Fraction(-1, 3)),
        (Fraction(-1, 7), 0),
        (Fraction(-1, 9), Fraction(2, 9)),
    ]
    # triangle case, d=4, k=4
    assert map_region_vertices(4, 4, exact=True) == [
        (1, 0),
        (0, Fraction(-1, 3)),
        (Fraction(-1, 9), Fraction(2, 9)),
    ]
    with pytest.raises(ValueError):
        map_region_vertices(4, 5)
    with pytest.raises(ValueError):
        map_region_vertices(4, 0)


def test_state_region_vertices_examples():
    # rhombus, d=4, k=1
    assert state_region_vertices(4, 1, exact=True) == [
        (Fraction(-1, 9), Fraction(2, 9)),
        (Fraction(1, 6), Fraction(1, 6)),
        (Fraction(2, 9), Fraction(-1, 9)),
        (Fraction(-1, 18), Fraction(-1, 18)),
    ]
    # PSD triangle, d=4, k=4
    assert state_region_vertices(4, 4, exact=True) == [
        (1, 0),
        (0, Fraction(-1, 3)),
        (Fraction(-1, 9), Fraction(2, 9)),
    ]


@pytest.mark.parametrize("kind", ["map", "state"])
def test_exact_corners_sit_on_their_two_boundary_pieces(kind):
    vertices = map_region_vertices if kind == "map" else state_region_vertices
    member = is_k_positive if kind == "map" else schmidt_membership
    for d in range(2, 13):
        for k in range(1, d + 1):
            row = geometry._REGIONS[kind, region_case(d, k)]
            verts = vertices(d, k, exact=True)
            n = len(row.slacks(d, k, 0, 0))
            conic = row.conic(d, k, True) if row.conic else None
            for i, (x, y) in enumerate(verts):
                assert type(x) is Fraction and type(y) is Fraction
                slacks = row.slacks(d, k, x, y)
                if row.ends is None:
                    on = {(i - 1) % n, i}  # corner i joins lines i-1 and i
                else:  # an open chain from the arc's end back to its start
                    on = {i - 1, i} & set(range(n))
                assert all(slacks[j] == 0 for j in on), (kind, d, k, i)
                assert all(s >= 0 for s in slacks), (kind, d, k, i)
                if conic is not None and i in (0, len(verts) - 1):
                    assert conic(x, y) == 0  # an end of the arc
                elif conic is not None and not row.union:
                    assert conic(x, y) <= 0
                assert member(d, x, y, k).status == "boundary"


@pytest.mark.parametrize("kind", ["map", "state"])
def test_the_region_table_is_homogeneous(kind):
    # exact margins evaluate a row at the numerators (X, Y) of a point over
    # their common denominator D, which must give D times each line slack and
    # D^2 times the conic
    pts = [(x, y, w) for x in (-3, 0, 2, 7) for y in (-5, 1, 4) for w in (-3, 0, 1, 2, 9)]
    for d in range(2, 13):
        for k in range(1, d + 1):
            row = geometry._REGIONS[kind, region_case(d, k)]
            conic = row.conic(d, k, True) if row.conic else None
            for x, y, w in pts:
                slacks = row.slacks(d, k, x, y, w)
                for t in (-3, 2, 5):
                    assert row.slacks(d, k, t * x, t * y, t * w) == [t * s for s in slacks]
                    if conic is not None:
                        assert conic(t * x, t * y, t * w) == t * t * conic(x, y, w)


@pytest.mark.parametrize("d,k", [(3, 2), (4, 3), (5, 4), (6, 5)])
def test_map_arc_samples(d, k):
    rb = map_region_boundary(d, k, arc_samples=64)
    assert len(rb.arcs) == 1
    arc = rb.arcs[0]
    conic = kpos_conic(d, k)
    assert arc.start == rb.vertices[-1] and arc.end == rb.vertices[0]
    for x, y in arc.samples:
        assert abs(conic(x, y)) <= 1e-10
        assert x <= 1e-12 and y >= -1e-12  # second quadrant


@pytest.mark.parametrize("d,k", [(3, 2), (4, 3), (5, 3), (6, 4)])
def test_state_arc_samples(d, k):
    rb = state_region_boundary(d, k, arc_samples=64)
    arc = rb.arcs[0]
    conic = dual_conic(d, k, exact=False)
    for x, y in arc.samples:
        assert abs(conic(x, y)) <= 1e-10
    # arc endpoints meet the adjacent line segments
    assert arc.start == rb.vertices[-1] and arc.end == rb.vertices[0]


def test_boundary_piece_counts():
    for d in (3, 4, 5, 6):
        for k in range(1, d + 1):
            expect_arc = region_case(d, k) == 3
            assert bool(map_region_boundary(d, k).arcs) == expect_arc
            assert bool(state_region_boundary(d, k).arcs) == expect_arc


def test_strict_convexity_of_dual_arc():
    # discrete surrogate: every dual-arc point is strictly on the origin side
    # of the tangent line of every well-separated witness sample
    d, k = 4, 3
    rb = state_region_boundary(d, k, arc_samples=64)
    arc_pts = rb.arcs[0].samples
    witness_rb = map_region_boundary(d, k, arc_samples=64)
    witness_arc = witness_rb.arcs[0].samples
    for i, (p, q) in enumerate(witness_arc):
        for j, (x, y) in enumerate(arc_pts):
            val = witness_halfplane(d, p, q).slack((x, y))
            assert val >= -1e-10
            if abs(i - j) >= 5:
                assert val > 1e-12


@pytest.mark.parametrize("d,k", [(3, 2), (4, 2), (4, 3), (5, 3)])
def test_halfplane_containment_and_saturation(d, k):
    # containment in every witness half-plane (200 extreme-point samples)
    from schmidt_cone.oracles import witness_points

    rb = state_region_boundary(d, k, arc_samples=64)
    boundary_pts = list(rb.vertices)
    for arc in rb.arcs:
        boundary_pts.extend(arc.samples[1:-1])
    witnesses = witness_points(d, k, arc_samples=196)[:200]
    for x, y in boundary_pts:
        slacks = [witness_halfplane(d, p, q).slack((x, y)) for p, q in witnesses]
        assert min(slacks) >= -1e-10
    # each boundary point saturates some extreme constraint (dense sampling)
    dense = witness_points(d, k, arc_samples=4096)
    pts_arr = np.asarray(dense)
    for x, y in boundary_pts:
        nx = -(d - 1) * ((d + 1) * pts_arr[:, 0] + pts_arr[:, 1])
        ny = -(d - 1) * (pts_arr[:, 0] + (d + 1) * pts_arr[:, 1])
        slack = 1 - nx * x - ny * y
        assert np.min(np.abs(slack)) <= 1e-8


def test_nesting_of_regions_on_grid():
    axis = np.linspace(-0.7, 1.2, 200)
    P, Q = np.meshgrid(axis, axis, indexing="ij")
    for d in (3, 4, 6):
        prev = None
        for k in range(1, d + 1):
            member = kpos_margin_grid(d, k, P, Q) > 1e-9
            if prev is not None:
                assert not np.any(member & ~prev)  # P_k shrinks with k
            prev = member
        prev = None
        for k in range(1, d + 1):
            member = schmidt_margin_grid(d, k, P, Q) > 1e-9
            if prev is not None:
                assert not np.any(prev & ~member)  # S_k grows with k
            prev = member


def test_first_order_continuity_at_state_arc_junctions():
    # the adjacent straight edges lie on lines exactly tangent to the ellipse
    # at the junction points, so slope continuity holds exactly; the contact
    # order beyond first is reported, not asserted
    for d, k in [(3, 2), (4, 3), (6, 5)]:
        conic = dual_conic(d, k, exact=True)
        pts = dual_tangency_points(d, k, exact=True)
        lines = dual_tangent_lines(d, k)
        for idx in (3, 4):  # the two junction points
            assert lines[idx].slack(pts[idx]) == 0
            assert tangency_discriminant(conic, lines[idx]) == 0
        gx, gy = conic.gradient(float(pts[3][0]), float(pts[3][1]))
        curvature_gap = float(np.hypot(float(gx), float(gy)))
        print(f"d={d} k={k}: junction tangency exact; ellipse gradient magnitude {curvature_gap:.3e} (line curvature 0)")


def test_region_payload_and_csv():
    rb = map_region_boundary(4, 3, arc_samples=8)
    payload = region_payload(rb, kind="map", d=4, k=3)
    assert payload["kind"] == "map" and len(payload["vertices"]) == 4
    assert len(payload["arcs"]) == 1 and len(payload["arcs"][0]["samples"]) == 8
    csv = region_csv(rb)
    lines = csv.strip().splitlines()
    assert lines[0] == "kind,index,x,y"
    assert sum(1 for ln in lines if ln.startswith("vertex")) == 4
    assert sum(1 for ln in lines if ln.startswith("arc0")) == 8


def test_region_svg_is_valid_xml_with_expected_pieces():
    import xml.etree.ElementTree as ET

    rb = state_region_boundary(4, 3, arc_samples=16)
    svg = region_svg(rb)
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    paths = root.findall(f"{ns}path")
    edges = [p for p in paths if p.get("class") == "edge"]
    arcs = [p for p in paths if p.get("class") == "arc"]
    assert len(edges) == 4 and len(arcs) == 1  # 5 vertices -> 4 segments, 1 arc
    assert len(root.findall(f"{ns}line")) == 2  # axes
    assert len(root.findall(f"{ns}circle")) == 5


def test_region_svg_escapes_style_values_and_refuses_unknown_keys():
    rb = map_region_boundary(3, 2, arc_samples=8)
    svg = region_svg(rb, {"edge.stroke": '" onload="alert(1)', "vertex.fill": "<&>"})
    assert 'onload="' not in svg and "<&>" not in svg
    assert 'stroke="&quot; onload=&quot;alert(1)"' in svg and 'fill="&lt;&amp;&gt;"' in svg
    assert region_svg(rb, {"edge.stroke": "#00ff00"}) == region_svg(rb).replace("#1f77b4", "#00ff00")
    for style in ({"edge.strok": "#f00"}, {"edge.stroke": "#f00", "": "x"}):
        with pytest.raises(ValueError, match="unknown style key"):
            region_svg(rb, style)


@pytest.mark.parametrize("boundary", [map_region_boundary, state_region_boundary])
@pytest.mark.parametrize(
    "args,message",
    [
        ((np.array(4), 3, 64), "d must be an integer"),
        ((4, np.array(3), 64), "k must be an integer"),
        ((4, 3, np.array(64)), "arc_samples must be >= 2"),
        ((4, 3, True), "arc_samples must be >= 2"),
        ((4, 3, 64.0), "arc_samples must be >= 2"),
    ],
)
def test_boundary_cache_keeps_the_refusals(boundary, args, message):
    # the arguments are checked before the cache hashes them
    boundary(4, 3, 64)  # an entry with the equal key exists
    with pytest.raises(ValueError, match=message):
        boundary(*args)


def test_a_cached_boundary_equals_a_fresh_build():
    for kind, boundary in (("map", map_region_boundary), ("state", state_region_boundary)):
        for d in range(2, 9):
            for k in range(1, d + 1):
                for n in (2, 3, 64, 257):
                    rb = boundary(d, k, arc_samples=n)
                    fresh = geometry._boundary.__wrapped__.__wrapped__(d, k, kind, n)
                    assert rb == fresh and repr(rb) == repr(fresh)
                    assert boundary(d, k, arc_samples=np.int64(n)) is rb
    assert map_region_boundary(np.int64(4), np.int64(3)) is map_region_boundary(4, 3)


def test_each_boundary_samples_its_arc_once_per_process(monkeypatch, capsys):
    from schmidt_cone import cli
    from schmidt_cone.oracles import witness_points

    calls, sample = [], geometry.conic_arc_points

    def counted(*args, **kwargs):
        calls.append(args[3])
        return sample(*args, **kwargs)

    monkeypatch.setattr(geometry, "conic_arc_points", counted)
    geometry._boundary.cache_clear()
    geometry._witness_points.cache_clear()
    for n in (64, 256):
        rb = map_region_boundary(4, 3, arc_samples=n)
        traversal = [*rb.vertices, *rb.arcs[0].samples[1:-1]]
        assert witness_points(4, 3, arc_samples=n).tolist() == [[*p] for p in traversal]
        for kind in ("map", "state", "map", "state"):
            argv = ["region", kind, "--d", "4", "--k", "3", "--samples", str(n), "--format", "json"]
            assert cli.main(argv) == 0
        assert state_region_boundary(4, 3, arc_samples=n) is state_region_boundary(4, 3, arc_samples=n)
    capsys.readouterr()
    assert calls == [64, 64, 256, 256]  # map then state, once each per sample count


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Conic(0, 0, 0, 0, 0, 0).as_float(), "zero conic"),
        (lambda: kpos_conic(1, 1), "d must be >= 2"),
        (lambda: conic_through_five_points([(0, 0), (1, 0), (0, 1), (1, 1)]), "exactly five points"),
        # the out-of-range message the README promises for the dual ellipse
        (lambda: dual_conic(4, 2), r"k=2 out of range d/2 < k < d for d=4"),
        (lambda: dual_tangency_points(4, 4), r"k=4 out of range d/2 < k < d for d=4"),
        (lambda: dual_tangent_lines(5, 2), r"k=2 out of range d/2 < k < d for d=5"),
        (
            lambda: geometry.conic_arc_points(
                Conic(0, 1, 0, 0, 0, -1), (2.0, 0.0), (2.0, 2.0), 3, anchor=(1.0, 1.0)
            ),
            "chord direction is asymptotic",
        ),
    ],
    ids=["zero-conic", "kpos-d1", "four-points", "dual-k-low", "tangency-k-d", "lines-k-low", "asymptotic"],
)
def test_a_geometry_builder_refuses_a_degenerate_or_out_of_range_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
