"""Property-based checks of the classifier, alongside the fixed grids."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from schmidt_cone.classify import (
    BOUNDARY_TOL,
    is_k_positive,
    k_positivity_max,
    k_superpositivity_max,
    schmidt_membership,
    schmidt_number,
)

# rationals over the box that holds every region for d >= 2, small
# denominators included so that corners and boundary lines get hit
coords = st.fractions(min_value=-1, max_value=Fraction(3, 2), max_denominator=120)
dims = st.integers(min_value=2, max_value=8)
fast = settings(deadline=None, max_examples=150)


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
