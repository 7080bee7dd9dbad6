"""Property-based checks of the classifier, alongside the fixed grids."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidt_cone import geometry
from schmidt_cone.classify import (
    BOUNDARY_TOL,
    is_k_positive,
    k_positivity_max,
    k_superpositivity_max,
    schmidt_membership,
    schmidt_number,
)
from schmidt_cone.geometry import (
    map_region_boundary,
    map_region_vertices,
    region_case,
    region_margin,
    state_region_vertices,
)
from schmidt_cone.oracles import grid_agreement, witness_pairing, witness_points
from schmidt_cone.symmetry import CovariantMap, InvariantState

# rationals over the box that holds every region for d >= 2, small
# denominators included so that corners and boundary lines get hit
coords = st.fractions(min_value=-1, max_value=Fraction(3, 2), max_denominator=120)
dims = st.integers(min_value=2, max_value=8)
fast = settings(deadline=None, max_examples=150)
# exact inputs of every shape: small and large denominators, ints, and mixes
exact_coords = st.one_of(
    coords,
    st.fractions(min_value=-1, max_value=Fraction(3, 2), max_denominator=10**6),
    st.integers(min_value=-3, max_value=3),
)
all_dims = st.integers(min_value=2, max_value=12)
kinds = st.sampled_from(["map", "state"])


@fast
@given(dims, st.data(), coords, coords)
def test_exact_and_float_verdicts_agree_outside_the_band(d, data, x, y):
    k = data.draw(st.integers(min_value=1, max_value=d))
    for member in (is_k_positive, schmidt_membership):
        exact = member(d, x, y, k)
        approx = member(d, float(x), float(y), k)
        if abs(approx.margin) > BOUNDARY_TOL:
            assert approx.status == exact.status


@fast
@given(dims, coords, coords)
def test_map_membership_is_downward_closed_in_k(d, p, q):
    members = [v.member for v in k_positivity_max(d, p, q).per_k]
    assert members == sorted(members, reverse=True)


@fast
@given(dims, coords, coords)
def test_state_membership_is_upward_closed_in_k(d, a, b):
    members = [v.member for v in schmidt_number(d, a, b).per_k]
    assert members == sorted(members)


@fast
@given(dims, coords, coords)
def test_superpositivity_min_k_is_the_schmidt_number(d, p, q):
    assert k_superpositivity_max(d, p, q).min_k == schmidt_number(d, p, q).schmidt_number


def _table_margin(kind, d, k, x, y):
    """The region row evaluated in the inputs' own arithmetic: its slacks and
    the exact conic called on ints and Fractions, reduced with min and max."""
    row = geometry._REGIONS[kind, region_case(d, k)]
    slacks = row.slacks(d, k, x, y)
    if row.conic is None:
        return min(slacks)
    inner = -row.conic(d, k, True)(x, y)
    return max(min(slacks), inner) if row.union else min(*slacks, inner)


@settings(deadline=None, max_examples=400)
@given(kinds, all_dims, st.data(), exact_coords, exact_coords)
def test_integer_margin_equals_the_table_on_fractions(kind, d, data, x, y):
    k = data.draw(st.integers(min_value=1, max_value=d))
    got = region_margin(kind, d, k, x, y, exact=True)
    want = _table_margin(kind, d, k, x, y)
    assert got == want
    assert type(got) is type(want)
    assert type(got) is (int if type(x) is int and type(y) is int else Fraction)


# float inputs of every shape: Python floats with both signed zeros, and
# numpy float scalars of two widths
float_coords = st.one_of(
    st.floats(min_value=-1, max_value=1.5, allow_subnormal=False),
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1, max_value=1.5).map(np.float64),
    st.floats(min_value=-1, max_value=1.5, width=32).map(np.float32),
)
_SINGLE_K = {k_positivity_max: is_k_positive, schmidt_number: schmidt_membership,
             k_superpositivity_max: schmidt_membership}


@settings(deadline=None, max_examples=300)
@given(
    st.sampled_from(list(_SINGLE_K)),
    st.one_of(all_dims, all_dims.map(np.int64)),
    st.one_of(
        st.tuples(exact_coords, exact_coords),
        st.tuples(float_coords, float_coords),
        st.tuples(exact_coords, float_coords),
    ),
)
def test_profiles_equal_their_single_k_verdicts(profile, d, point):
    # each verdict of a profile must be the single-k verdict, to the
    # margin's repr and type
    x, y = point
    per_k = profile(d, x, y).per_k
    assert len(per_k) == d
    for k, got in enumerate(per_k, start=1):
        want = _SINGLE_K[profile](d, x, y, k)
        assert got.status == want.status
        assert repr(got.margin) == repr(want.margin)
        assert type(got.margin) is type(want.margin)


def test_every_exact_corner_reads_boundary_with_margin_zero():
    for kind, vertices, member in (
        ("map", map_region_vertices, is_k_positive),
        ("state", state_region_vertices, schmidt_membership),
    ):
        for d in range(2, 13):
            for k in range(1, d + 1):
                for x, y in vertices(d, k, exact=True):
                    v = member(d, x, y, k)
                    assert v.status == "boundary", (kind, d, k, x, y)
                    assert v.margin == 0 and type(v.margin) is Fraction


def _convex_combination(data, corners):
    weights = data.draw(
        st.lists(st.integers(min_value=0, max_value=30), min_size=len(corners), max_size=len(corners))
        .filter(any)
    )
    total = sum(weights)
    return tuple(sum(w * c[i] for w, c in zip(weights, corners)) / total for i in (0, 1))


@fast
@given(all_dims, st.data())
def test_choi_duality_on_convex_combinations_of_corners(d, data):
    # both regions are convex, so a mix of exact corners is an exact member
    k = data.draw(st.integers(min_value=1, max_value=d))
    p, q = _convex_combination(data, map_region_vertices(d, k, exact=True))
    a, b = _convex_combination(data, state_region_vertices(d, k, exact=True))
    assert is_k_positive(d, p, q, k).member
    assert schmidt_membership(d, a, b, k).member
    w = witness_pairing(InvariantState(d, a, b), CovariantMap(d, p, q))
    assert type(w) is Fraction and w >= 0


@settings(deadline=None, max_examples=12)
@given(
    st.sampled_from([3, 4]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_grid_agreement_report_does_not_depend_on_the_worker_count(d, grid_n, n_random, seed):
    kwargs = dict(grid_n=grid_n, n_random=n_random, seed=seed)
    assert grid_agreement(d, workers=1, **kwargs).to_dict() == grid_agreement(d, workers=2, **kwargs).to_dict()


@fast
@given(all_dims, st.data(), st.integers(min_value=2, max_value=300))
def test_witness_points_are_the_map_boundary_as_one_shared_read_only_array(d, data, arc_samples):
    k = data.draw(st.integers(min_value=1, max_value=d))
    pts = witness_points(d, k, arc_samples)
    assert isinstance(pts, np.ndarray) and pts.dtype == float and pts.ndim == 2 and pts.shape[1] == 2
    assert not pts.flags.writeable
    rb = map_region_boundary(d, k, arc_samples)
    traversal = [*rb.vertices, *(rb.arcs[0].samples[1:-1] if rb.arcs else ())]
    assert pts.tolist() == [[*p] for p in traversal]
    assert witness_points(d, k, arc_samples) is pts
    assert witness_points(np.int64(d), np.int32(k), np.int64(arc_samples)) is pts
    with pytest.raises(ValueError, match="arc_samples must be >= 2"):
        witness_points(d, k, np.array(arc_samples))  # unhashable, refused before the cache
