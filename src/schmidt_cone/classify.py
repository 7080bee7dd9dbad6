"""Exact membership decisions for the covariant-map and invariant-state families.

Decides the maximal k-positivity index of the map family and the Schmidt
number of the state family from the closed-form inequality systems, in two
evaluation modes:

* exact: int/Fraction inputs make every decision exact (boundary = exact
  equality, tolerance ignored).  The region's homogeneous table row, at the
  point's integer numerators over their common denominator D, gives every
  line slack (times D) and the conic slack (times D^2) as a plain integer;
  only the chosen margin becomes a Fraction, one per single-k verdict (an
  int when both inputs are ints);
* float: each constraint slack is compared against a boundary tolerance
  (default 1e-9), which must be finite and non-negative.

A profile (``k_positivity_max``, ``schmidt_number``) is d single-k verdicts,
each checking its own inputs.

Margins are signed slack surrogates: the minimum slack across the active
constraint system, positive inside.  For the union-shaped region (filled
ellipse OR the five-line system) the margin is the max of the two parts.

The constraint systems themselves are not written here: they live in the
region table of ``geometry``, and ``geometry.region_margin`` evaluates them
for the scalar decisions and the vectorized margin grids alike.
"""

from __future__ import annotations

from collections import namedtuple

from .geometry import _check_finite, _is_exact, region_case, region_margin

__all__ = [
    "MembershipVerdict",
    "KPositivityProfile",
    "StateClassification",
    "SuperpositivityProfile",
    "is_k_positive",
    "k_positivity_max",
    "schmidt_membership",
    "schmidt_number",
    "k_block_positivity_max",
    "k_superpositivity_max",
    "kpos_margin_grid",
    "schmidt_margin_grid",
]

BOUNDARY_TOL = 1e-9


class MembershipVerdict(namedtuple("MembershipVerdict", "status margin")):
    """Result of a single region-membership test.

    status is 'inside' | 'boundary' | 'outside'; margin is the minimum
    constraint slack (exact Fraction in exact mode).
    """

    __slots__ = ()

    @property
    def member(self) -> bool:
        return self.status != "outside"


def _verdict(kind: str, d: int, k: int, x, y, tol) -> MembershipVerdict:
    """The verdict on (x, y) in the (kind, d, k) region.

    A NaN, infinite, negative or bool ``tol`` is refused: it would read
    every point as boundary, or as inside.
    """
    _check_finite(x, y, tol)
    if tol < 0:
        raise ValueError(f"negative tolerance {tol!r}")
    exact = _is_exact(x, y)
    margin = region_margin(kind, d, k, x, y, exact=exact)
    if exact:
        sign = margin.numerator  # an int, cheaper to compare than a Fraction
        if sign > 0:
            return MembershipVerdict("inside", margin)
        if sign < 0:
            return MembershipVerdict("outside", margin)
        return MembershipVerdict("boundary", margin)
    m = float(margin)
    if m > tol:
        return MembershipVerdict("inside", m)
    if m < -tol:
        return MembershipVerdict("outside", m)
    return MembershipVerdict("boundary", m)


# ---------------------------------------------------------------------------
# k-positivity of the map family
# ---------------------------------------------------------------------------


def is_k_positive(d: int, p, q, k: int, tol: float = BOUNDARY_TOL) -> MembershipVerdict:
    """Membership of (p, q) in the k-positivity region.

    Case k=1 uses the four-line trapezoid with the second constraint read as
    q - (d-1)p <= 1 (the p <-> q transpose symmetry of the family); this
    reading is cross-checked by the frame-compression oracle suite.
    """
    return _verdict("map", d, k, p, q, tol)


class KPositivityProfile(namedtuple("KPositivityProfile", "d p q max_k per_k")):
    """The k-positivity verdicts of (p, q) for k = 1..d; max_k 0 means not even positive."""

    __slots__ = ()


def k_positivity_max(d: int, p, q, tol: float = BOUNDARY_TOL) -> KPositivityProfile:
    """Largest k for which the map is k-positive (boundary counts as member)."""
    if type(d) is not int or d < 2:
        region_case(d, 1)  # refuses a float or bool d and d < 2
    per_k = tuple([is_k_positive(d, p, q, k, tol) for k in range(1, d + 1)])
    max_k = 0
    for k, v in enumerate(per_k, start=1):
        if v.member:
            max_k = k
    return KPositivityProfile(d, p, q, max_k, per_k)


# ---------------------------------------------------------------------------
# Schmidt number of the state family
# ---------------------------------------------------------------------------


def schmidt_membership(d: int, a, b, k: int, tol: float = BOUNDARY_TOL) -> MembershipVerdict:
    """Membership of (a, b) in the Schmidt-number-<=k region.

    For d/2 < k < d the region is the filled dual ellipse united with the
    five-line system, so the margin is the max of the two sub-margins.
    """
    return _verdict("state", d, k, a, b, tol)


class StateClassification(namedtuple("StateClassification", "d a b schmidt_number per_k")):
    """Schmidt-number verdicts of (a, b), k = 1..d; schmidt_number is None for a non-state."""

    __slots__ = ()

    @property
    def is_state(self) -> bool:
        return self.schmidt_number is not None

    @property
    def boundary(self) -> bool:
        return self.is_state and self.per_k[self.schmidt_number - 1].status == "boundary"


def schmidt_number(d: int, a, b, tol: float = BOUNDARY_TOL) -> StateClassification:
    """Smallest k with (a, b) in the Schmidt-<=k region; None if not a state.

    State-ness is decided by membership in the k=d region (the PSD triangle),
    which is exact, rather than by an eigenvalue computation.
    """
    if type(d) is not int or d < 2:
        region_case(d, 1)  # refuses a float or bool d and d < 2
    per_k = tuple([schmidt_membership(d, a, b, k, tol) for k in range(1, d + 1)])
    if not per_k[-1].member:
        return StateClassification(d, a, b, None, per_k)
    sn = next(k for k, v in enumerate(per_k, start=1) if v.member)
    return StateClassification(d, a, b, sn, per_k)


# ---------------------------------------------------------------------------
# Choi-dual wrappers
# ---------------------------------------------------------------------------


def k_block_positivity_max(d: int, a, b, tol: float = BOUNDARY_TOL) -> KPositivityProfile:
    """Largest k for which the invariant operator is k-block positive.

    Via the Choi correspondence this is k-positivity membership of (a, b).
    """
    return k_positivity_max(d, a, b, tol)


class SuperpositivityProfile(namedtuple("SuperpositivityProfile", "d p q max_k min_k per_k")):
    """The k-superpositivity verdicts of (p, q), k = 1..d.

    max_k is d when the Choi matrix is PSD, else 0; min_k, the smallest k with
    membership, is its Schmidt number (None when it is not PSD).
    """

    __slots__ = ()


def k_superpositivity_max(d: int, p, q, tol: float = BOUNDARY_TOL) -> SuperpositivityProfile:
    """Superpositivity profile of the map: membership is upward closed in k.

    max_k is the largest k with membership (d whenever the map is completely
    positive at all); the companion min_k is the smallest such k, i.e. the
    Schmidt number of the Choi matrix.
    """
    cls = schmidt_number(d, p, q, tol)
    max_k = d if cls.is_state else 0
    return SuperpositivityProfile(d, p, q, max_k, cls.schmidt_number, cls.per_k)


# ---------------------------------------------------------------------------
# Vectorized float-grid margins (shared by oracle protocols and plots)
# ---------------------------------------------------------------------------


def kpos_margin_grid(d: int, k: int, P, Q):
    """Elementwise k-positivity margin over float arrays P, Q."""
    return _margin_grid("map", d, k, P, Q)


def schmidt_margin_grid(d: int, k: int, A, B):
    """Elementwise Schmidt-<=k membership margin over float arrays A, B."""
    return _margin_grid("state", d, k, A, B)


def _margin_grid(kind: str, d: int, k: int, X, Y):
    import numpy as np

    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return region_margin(kind, d, k, X, Y, np.minimum.reduce, np.maximum)
