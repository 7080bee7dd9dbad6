"""Plane geometry of the positivity and Schmidt-number regions.

The region facts live in one table (section "The region table"): for each
(kind, case) the boundary lines in traversal order, each written once as its
slack homogeneous in (x, y, w), plus the case-3 conic and state chord.
Everything else is derived from it: the membership margins of ``classify``
(exact, float and grid alike, through ``region_margin``), the corners (exact
intersections of consecutive lines; only the ends of the map's case-3 arc are
data), the boundaries and the five tangents of the dual ellipse.

Also implements the boundary conic of the k-positivity region, conic
classification, the pairing-induced linear isomorphism between witness and
state coordinates, pole-polar duality, five-point conic fitting (exact
rational or floating point), and arc sampling for plots.

Exact mode: corners and the pairing map are evaluated in rational arithmetic
whenever the inputs are rationals.  The five-point fit and exact margins work
on the integer numerators of each point over its common denominator (as w):
the fit by fraction-free integer elimination, the margins by the same table
rows, so boundary classification never depends on rounding.  Arc sampling is
always floating point.  The record types are immutable named tuples.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Conic",
    "HalfPlane",
    "Arc",
    "RegionBoundary",
    "kpos_conic",
    "pairing_map",
    "pairing_map_inv",
    "witness_halfplane",
    "pole_of_tangent",
    "conic_through_five_points",
    "dual_tangency_points",
    "dual_tangent_lines",
    "dual_conic",
    "tangency_discriminant",
    "region_case",
    "region_margin",
    "map_region_vertices",
    "state_region_vertices",
    "map_region_boundary",
    "state_region_boundary",
    "conic_arc_points",
    "region_contains",
    "region_payload",
    "region_csv",
    "region_svg",
]


def _is_exact(*vals) -> bool:
    """Whether every value is an int or a Fraction, so arithmetic on them is exact.

    A plain loop rather than ``all`` over a generator: every scalar
    classification calls it, and the loop costs about half as much.  A
    Python float is turned away before ``isinstance``, whose test against
    Fraction (an ABC) costs more than the rest of the loop.
    """
    for v in vals:
        if type(v) is float or not isinstance(v, (int, Fraction)):
            return False
    return True


def _check_finite(*vals):
    """Reject bools (an int subclass, else read as exact 0 or 1) and non-finite reals.

    Anything other than int and Fraction, which are always finite, goes
    through ``math.isfinite``: numpy scalars of every float width and 0-d
    arrays included.  Python floats take the first branch, which keeps the
    per-query float path as cheap as a bare finiteness test.
    """
    for v in vals:
        if isinstance(v, float):
            if not math.isfinite(v):
                raise ValueError(f"non-finite input {v!r}")
        elif type(v) not in (int, Fraction):
            import numpy as np

            if isinstance(v, (bool, np.bool_)):
                raise ValueError(f"boolean input {v!r}")
            if not math.isfinite(v):
                raise ValueError(f"non-finite input {v!r}")


def _check_integer(v, name: str):
    if type(v) is int:
        return
    import numpy as np

    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {v!r}")


# ---------------------------------------------------------------------------
# Conics
# ---------------------------------------------------------------------------


class Conic(namedtuple("Conic", "A B C D E F")):
    """Quadratic plane curve A x^2 + B xy + C y^2 + D x + E y + F = 0.

    Coefficients may be ints/Fractions (exact) or floats.
    """

    __slots__ = ()

    def coefficients(self) -> tuple:
        return tuple(self)

    def __call__(self, x, y, w=1):
        """The form at (x, y), or homogenized: w^2 times its value at (x/w, y/w)."""
        return (
            self.A * x * x
            + self.B * x * y
            + self.C * y * y
            + self.D * w * x
            + self.E * w * y
            + self.F * w * w
        )

    def gradient(self, x, y) -> tuple:
        return (2 * self.A * x + self.B * y + self.D, self.B * x + 2 * self.C * y + self.E)

    def discriminant(self):
        return self.B * self.B - 4 * self.A * self.C

    def as_float(self) -> "Conic":
        coeffs = [float(v) for v in self]
        scale = max(abs(v) for v in coeffs)
        if scale == 0.0:
            raise ValueError("zero conic")
        return Conic(*(v / scale for v in coeffs))

    def classify(self) -> str:
        """One of 'ellipse' | 'parabola' | 'hyperbola' | 'degenerate'.

        Classified by the sign of B^2 - 4AC, with degeneracy decided by the
        determinant of the full 3x3 matrix of the quadratic form.
        """
        tol = 1e-12  # for float coefficients, relative to the largest one
        A, B, C, D, E, F = self
        disc = self.discriminant()
        # determinant of [[2A, B, D], [B, 2C, E], [D, E, 2F]]
        det3 = (
            2 * A * (4 * C * F - E * E)
            - B * (2 * B * F - D * E)
            + D * (B * E - 2 * C * D)
        )
        if _is_exact(*self):
            if (A == 0 and B == 0 and C == 0) or det3 == 0:
                return "degenerate"
            if disc < 0:
                return "ellipse"
            if disc > 0:
                return "hyperbola"
            return "parabola"
        scale = max(abs(float(v)) for v in self)
        if scale == 0.0:
            return "degenerate"
        if max(abs(float(A)), abs(float(B)), abs(float(C))) <= tol * scale:
            return "degenerate"
        if abs(float(det3)) <= tol * scale**3:
            return "degenerate"
        if float(disc) < -tol * scale**2:
            return "ellipse"
        if float(disc) > tol * scale**2:
            return "hyperbola"
        return "parabola"


@lru_cache(maxsize=None, typed=True)
def kpos_conic(d: int, k: int, exact: bool = False) -> Conic:
    """The boundary conic of the k-positivity region (integer coefficients).

    A = kd-1, B = -(d^3 - kd^2 - kd - d + 2), C = d-1, D = -(kd-2),
    E = -(d-2), F = -1.  Constructible for any k; geometrically relevant for
    d/2 < k < d.  Built once per (d, k, exact): every float classification in
    case 3 evaluates it, and a Conic is frozen, so callers share it.
    """
    _check_integer(d, "d")
    _check_integer(k, "k")
    if d < 2:
        raise ValueError("d must be >= 2")
    coeffs = (
        k * d - 1,
        -(d**3 - k * d**2 - k * d - d + 2),
        d - 1,
        -(k * d - 2),
        -(d - 2),
        -1,
    )
    return Conic(*coeffs) if exact else Conic(*(float(v) for v in coeffs))


# ---------------------------------------------------------------------------
# Pairing map and pole-polar duality
# ---------------------------------------------------------------------------


def pairing_map(d: int, pt: tuple) -> tuple:
    """Linear isomorphism sending a witness point to its state half-plane normal.

    (x, y) -> -(d-1) * ((d+1)x + y, x + (d+1)y).  Exact when the input is.
    """
    x, y = pt
    return (-(d - 1) * ((d + 1) * x + y), -(d - 1) * (x + (d + 1) * y))


def pairing_map_inv(d: int, pt: tuple) -> tuple:
    """Exact inverse of pairing_map; determinant (d-1)^2 (d^2 + 2d) != 0."""
    u, v = pt
    den = (d - 1) * (d * d + 2 * d)
    if _is_exact(u, v):
        return (Fraction(v - (d + 1) * u, den), Fraction(u - (d + 1) * v, den))
    return ((v - (d + 1) * u) / den, (u - (d + 1) * v) / den)


class HalfPlane(namedtuple("HalfPlane", "nx ny c")):
    """Constraint nx * x + ny * y <= c with finite entries and (nx, ny) != (0, 0)."""

    __slots__ = ()

    def __new__(cls, nx, ny, c):
        _check_finite(nx, ny, c)
        if nx == 0 and ny == 0:
            raise ValueError("half-plane normal must be nonzero")
        return super().__new__(cls, nx, ny, c)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def slack(self, pt):
        return self.c - self.nx * pt[0] - self.ny * pt[1]


def witness_halfplane(d: int, p, q) -> HalfPlane:
    """Half-plane constraint on states induced by the extreme witness (p, q)."""
    nx, ny = pairing_map(d, (p, q))
    return HalfPlane(nx, ny, 1)


def pole_of_tangent(conic: Conic, pt: tuple, tol: float = 1e-9) -> tuple:
    """Pole (w.r.t. the unit circle) of the tangent line to the conic at pt.

    pt must lie on the conic, and it and the conic must be finite.  Raises if
    the tangent passes through the origin (zero denominator).
    """
    x, y = pt
    _check_finite(x, y, *conic)
    val = conic(x, y)
    exact = _is_exact(x, y, *conic)
    if exact:
        if val != 0:
            raise ValueError("point does not lie on the conic")
    else:
        scale = max(abs(float(c)) for c in conic)
        if abs(float(val)) > tol * max(1.0, scale):
            raise ValueError(f"point not on conic (residual {float(val):.3e})")
    den = conic.D * x + conic.E * y + 2 * conic.F
    if (exact and den == 0) or (not exact and abs(float(den)) < 1e-14):
        raise ValueError("tangent line passes through the origin; pole undefined")
    num_x = 2 * conic.A * x + conic.B * y + conic.D
    num_y = 2 * conic.C * y + conic.B * x + conic.E
    if exact:
        return (-Fraction(num_x, 1) / den, -Fraction(num_y, 1) / den)
    return (-num_x / den, -num_y / den)


# ---------------------------------------------------------------------------
# Five-point conic fit
# ---------------------------------------------------------------------------


def _integer_fit(pts) -> list[int]:
    """Primitive integer null vector of the five monomial rows of rational points.

    A point over its common denominator w, (X/w, Y/w), gives the integer row
    (X^2, XY, Y^2, Xw, Yw, w^2): its monomial row times w^2, so the nullspace
    is the same.  Gauss-Jordan elimination runs on those integers, each
    updated row divided by the gcd of its entries.  The last nonzero
    coefficient comes out positive.
    """
    rows = []
    for x, y in pts:
        w = math.lcm(x.denominator, y.denominator)
        X, Y = x.numerator * (w // x.denominator), y.numerator * (w // y.denominator)
        rows.append([X * X, X * Y, Y * Y, X * w, Y * w, w * w])
    pivot_cols: list[int] = []
    for c in range(6):
        r = len(pivot_cols)
        piv = next((i for i in range(r, 5) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        for i in range(5):
            f = rows[i][c]
            if i != r and f:
                row = [top[c] * a - f * b for a, b in zip(rows[i], top)]
                g = math.gcd(*row)  # 0 when the row vanishes, as a repeated point's does
                rows[i] = [v // g for v in row] if g else row
        pivot_cols.append(c)
    if len(pivot_cols) < 5:
        raise ValueError("degenerate configuration: points do not determine a unique conic")
    free = next(c for c in range(6) if c not in pivot_cols)
    scale = math.lcm(*(row[c] for row, c in zip(rows, pivot_cols)))
    sol = [0] * 6
    sol[free] = scale
    for row, c in zip(rows, pivot_cols):
        sol[c] = -row[free] * (scale // row[c])
    g = math.gcd(*sol)
    return [v // g for v in sol]


def conic_through_five_points(points, interior=None) -> Conic:
    """Conic through five points in general position.

    Solves the homogeneous 5x6 system in the monomials (x^2, xy, y^2, x, y, 1).
    With exact rational points the nullspace is computed exactly, by
    fraction-free integer elimination, as primitive integer coefficients
    whose last nonzero one is positive; otherwise an SVD nullvector is used.
    If ``interior`` is given, the sign is normalized so the conic evaluates
    <= 0 there.  Raises on rank-deficient configurations and on a NaN,
    infinite or bool coordinate.
    """
    pts = [tuple(p) for p in points]
    if len(pts) != 5:
        raise ValueError("exactly five points required")
    _check_finite(*(v for pt in pts for v in pt), *(() if interior is None else interior))
    exact = all(_is_exact(x, y) for x, y in pts)
    if exact:
        conic = Conic(*_integer_fit(pts))
    else:
        import numpy as np

        M = np.array([[x * x, x * y, y * y, x, y, 1.0] for x, y in pts], dtype=float)
        _, s, vh = np.linalg.svd(M)
        if s[4] <= 1e-10 * s[0]:
            raise ValueError("degenerate configuration: points do not determine a unique conic")
        vec = vh[-1]
        vec = vec / np.max(np.abs(vec))
        conic = Conic(*(float(v) for v in vec))
    if interior is not None:
        val = conic(interior[0], interior[1])
        if (exact and val > 0) or (not exact and float(val) > 0.0):
            conic = Conic(*(-v for v in conic))
    return conic


# ---------------------------------------------------------------------------
# Dual conic of the k-positivity arc
# ---------------------------------------------------------------------------


def _check_case3(d: int, k: int):
    if not (2 <= d and 2 * k > d and k < d):
        raise ValueError(f"k={k} out of range d/2 < k < d for d={d}")


def dual_tangency_points(d: int, k: int, exact: bool = True) -> list[tuple]:
    """The five tangency points of the dual conic in state coordinates.

    They are the images of the five rational points of the positivity conic
    (in witness coordinates) under pole-of-tangent followed by the inverse
    pairing map.  The last two are the ends of the state arc, corners of the
    region.
    """
    _check_case3(d, k)
    D2 = d * d + d - 2
    corners = _vertices("state", d, k, True)
    pts = [
        (Fraction(-d, k * D2), Fraction(d * d - k * d + d - 2 * k, k * D2)),
        (Fraction(d * d - k * d + d - k - 1, D2), Fraction(-(d - k + 1), D2)),
        (Fraction(2 * k * d - d * d + 2 * k - d - 2, D2), Fraction(2 * d - 2 * k, D2)),
        corners[-1],
        corners[0],
    ]
    if exact:
        return pts
    return [(float(x), float(y)) for x, y in pts]


def dual_tangent_lines(d: int, k: int) -> list[HalfPlane]:
    """The five lines (as n.x <= c half-planes) tangent to the dual conic.

    Listed in the same order as dual_tangency_points; the state region lies on
    the <= side of each.
    """
    _check_case3(d, k)
    return _halfplanes(_DUAL_TANGENTS, d, k)


@lru_cache(maxsize=None, typed=True)
def _dual_conic(d: int, k: int, exact: bool) -> Conic:
    if not exact:
        return _dual_conic(d, k, True).as_float()
    pts = dual_tangency_points(d, k, exact=True)
    cx = sum(p[0] for p in pts) / 5
    cy = sum(p[1] for p in pts) / 5
    return conic_through_five_points(pts, interior=(cx, cy))


def dual_conic(d: int, k: int, exact: bool = True) -> Conic:
    """The conic through the five dual tangency points (an ellipse).

    Fitted exactly in rational arithmetic and reduced to primitive integer
    coefficients, sign-normalized so the centroid of the tangency points
    evaluates <= 0 (the filled ellipse is the <= 0 side).
    """
    _check_case3(d, k)
    return _dual_conic(d, k, exact)


def tangency_discriminant(conic: Conic, line: HalfPlane):
    """Discriminant of the conic restricted to the boundary line of a half-plane.

    Zero iff the line n.x = c is tangent to the conic.  Exact for exact
    inputs.  Raises if the restriction is not genuinely quadratic.
    """
    nx, ny, c = line.nx, line.ny, line.c
    exact = _is_exact(nx, ny, c, *conic)
    # rational point on the line plus direction (ny, -nx)
    if ny != 0:
        x0, y0 = 0, Fraction(c, ny) if exact else c / ny
    else:
        x0, y0 = Fraction(c, nx) if exact else c / nx, 0
    ux, uy = ny, -nx
    A, B, C = conic.A, conic.B, conic.C
    a = A * ux * ux + B * ux * uy + C * uy * uy
    gx, gy = conic.gradient(x0, y0)
    b = gx * ux + gy * uy
    c0 = conic(x0, y0)
    if (exact and a == 0) or (not exact and abs(float(a)) < 1e-300):
        raise ValueError("line direction is asymptotic for this conic")
    return b * b - 4 * a * c0


# ---------------------------------------------------------------------------
# The region table
# ---------------------------------------------------------------------------


def region_case(d: int, k: int) -> int:
    """Which of the four geometric cases (k, d) falls in: 1, 2, 3 or 4.

    d and k must be Python or numpy integers: a float or bool raises
    ``ValueError``, as a d or k out of range does.
    """
    if type(d) is not int or type(k) is not int:
        _check_integer(d, "d")
        _check_integer(k, "k")
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 1 <= k <= d:
        raise ValueError(f"k={k} out of range 1..{d}")
    if k == 1:
        return 1
    if 2 * k <= d:
        return 2
    if k < d:
        return 3
    return 4


# Every boundary line of every region, once, as its slack s(d, k, x, y, w) >= 0
# in cleared-denominator form, homogeneous of degree one in (x, y, w): w = 1 at
# a point (x, y), which is (p, q) for maps and (a, b) for states, and
# s(X, Y, D) = D * s(X/D, Y/D).  Only + - * appear, so a slack is exact on
# int/Fraction, rounds the same on floats and works elementwise on arrays.
_L1 = "w - x + (d - 1) * y"  # x - (d-1)y <= 1
_L2 = "w - y + (d - 1) * x"  # y - (d-1)x <= 1
_L3 = "w - x - y"  # x + y <= 1
_L4 = "(d - 1) * (x + y) + w"  # (d-1)(x + y) >= -1
_L5 = "w - x - (d + 1) * y"  # x + (d+1)y <= 1
_L6 = "(k * d - 1) * x + (d - 1) * y + w"  # (kd-1)x + (d-1)y >= -1
_L7 = "w - y + (k * d - 1) * x"  # y - (kd-1)x <= 1
_L8 = "(d - 1) * ((d + 1) * x + y) + w"  # (d-1)((d+1)x + y) >= -1
_L9 = "w - (d + 1) * x - y"  # (d+1)x + y <= 1
_L10 = "(d - 1) * (x + (d + 1) * y) + w"  # (d-1)(x + (d+1)y) >= -1
_L11 = "(k * d - 1) * w - (d - 1) * ((d + 1) * x + y)"  # (d-1)((d+1)x + y) <= kd-1
# (d-1)((d-k+1)x - (kd+k-1)y) <= kd+k-1
_L12 = "(d - 1) * ((k * d + k - 1) * y - (d - k + 1) * x) + (k * d + k - 1) * w"
# (d-1)((3d-k+3)x - (kd+k-3)y) <= d^2+kd+k-3, the chord between the state arc's ends
_CHORD = "(d * d + k * d + k - 3) * w - (d - 1) * ((3 * d - k + 3) * x - (k * d + k - 3) * y)"


def _slacks(*lines):
    """One function (d, k, x, y, w=1) -> [the slack of each line, in order].

    Compiled from the table so that evaluating a region costs one call, not
    one per line.
    """
    return eval(f"lambda d, k, x, y, w=1: [{', '.join(lines)}]")


def _halfplanes(slacks, d: int, k: int) -> list[HalfPlane]:
    """The lines of ``slacks`` as n.x <= c, read off at (0, 0), (1, 0) and (0, 1)."""
    at = zip(slacks(d, k, 0, 0), slacks(d, k, 1, 0), slacks(d, k, 0, 1))
    return [HalfPlane(c - cx, c - cy, c) for c, cx, cy in at]


# the five tangents of the dual ellipse, in the order of dual_tangency_points
_DUAL_TANGENTS = _slacks(_L8, _L10, _L5, _L11, _L1)


class _Region(
    namedtuple("_Region", "slacks conic union ends anchor", defaults=(None, False, None, None))
):
    """One (kind, case) row: corner i is where lines i-1 and i meet (cyclically).

    A ``conic`` (``(d, k, exact) -> Conic``) adds the slack -conic(x, y, w).  It
    cuts the map region, whose lines then run as an open chain from the arc's
    ``end`` to its ``start`` (both data).  The state region is the polygon
    united with the filled ellipse (``union``); its arc replaces the last
    line, the chord.  ``anchor`` is a point on the conic away from the arc.
    """

    __slots__ = ()


def _region(*lines, **conic) -> _Region:
    return _Region(_slacks(*lines), **conic)


_TRIANGLE = _region(_L1, _L8, _L5)  # k = d: the map and state regions coincide
_REGIONS = {
    ("map", 1): _region(_L1, _L4, _L2, _L3),
    ("map", 2): _region(_L1, _L6, _L7, _L5),
    ("map", 3): _region(
        _L5,
        _L1,
        _L6,
        conic=kpos_conic,
        ends=lambda d, k: (
            (Fraction(-1, k * d - 1), Fraction(0)),
            (Fraction(-2, d * d + d - 2), Fraction(d, d * d + d - 2)),
        ),
        anchor=lambda d, k: (1.0, 0.0),
    ),
    ("map", 4): _TRIANGLE,
    ("state", 1): _region(_L5, _L9, _L10, _L8),
    ("state", 2): _region(_L5, _L11, _L12, _L8),
    ("state", 3): _region(
        _L1,
        _L8,
        _L5,
        _L11,
        _CHORD,
        conic=_dual_conic,
        union=True,
        anchor=lambda d, k: dual_tangency_points(d, k, exact=False)[0],
    ),
    ("state", 4): _TRIANGLE,
}


def region_margin(kind: str, d: int, k: int, x, y, lowest=min, highest=max, exact=False):
    """Signed margin of (x, y) in the (kind, d, k) region, >= 0 on members.

    The smallest line slack, cut by the conic slack for maps and united with
    it for states.  ``lowest`` reduces a list and ``highest`` a pair: min and
    max for scalars, np.minimum.reduce and np.maximum for arrays.

    Without ``exact`` the case-3 conic is the float one, for floats and
    arrays.  ``exact`` requires int/Fraction inputs and gives the margin in
    exact arithmetic.  The point is put over one common denominator D, and
    the same homogeneous row is evaluated on the integers (X, Y, D): the line
    slacks come out times D and the integer conic times D^2.  The chosen one
    becomes a single Fraction: the same value as the table evaluated on
    Fractions, and an int when x and y both are.
    """
    row = _REGIONS[kind, region_case(d, k)]
    if exact:
        d, k = int(d), int(k)  # a numpy integer would overflow
        X, D = x.numerator, x.denominator
        Y, DY = y.numerator, y.denominator
        if DY != D:
            g = math.gcd(D, DY)
            X *= DY // g
            Y *= D // g
            D *= DY // g
        m = min(row.slacks(d, k, X, Y, D))
        if row.conic is not None:
            inner = -row.conic(d, k, True)(X, Y, D)
            m = max(m * D, inner) if row.union else min(m * D, inner)
            D *= D
        if isinstance(x, int) and isinstance(y, int):
            return m
        return Fraction(m, D)
    slacks = row.slacks(d, k, x, y)
    if row.conic is None:
        return lowest(slacks)
    inner = -row.conic(d, k, False)(x, y)
    if row.union:
        return highest(lowest(slacks), inner)
    slacks.append(inner)
    return lowest(slacks)


def _meet(g: HalfPlane, h: HalfPlane) -> tuple:
    """Exact intersection of the boundary lines of two half-planes."""
    det = g.nx * h.ny - h.nx * g.ny
    return (Fraction(g.c * h.ny - h.c * g.ny, det), Fraction(g.nx * h.c - h.nx * g.c, det))


@lru_cache(maxsize=None, typed=True)
def _vertices(kind: str, d: int, k: int, exact: bool) -> tuple:
    row = _REGIONS[kind, region_case(d, k)]
    lines = _halfplanes(row.slacks, d, k)
    if row.ends is None:
        pts = [_meet(lines[i - 1], lines[i]) for i in range(len(lines))]
    else:
        start, end = row.ends(d, k)
        pts = [end, *(_meet(g, h) for g, h in zip(lines, lines[1:])), start]
    return tuple(pts) if exact else tuple((float(x), float(y)) for x, y in pts)


def map_region_vertices(d: int, k: int, exact: bool = False) -> list[tuple]:
    """Corner points of the k-positivity region, in traversal order."""
    return list(_vertices("map", d, k, exact))


def state_region_vertices(d: int, k: int, exact: bool = False) -> list[tuple]:
    """Corner points of the Schmidt-number-<=k region, in traversal order."""
    return list(_vertices("state", d, k, exact))


# ---------------------------------------------------------------------------
# Region boundaries
# ---------------------------------------------------------------------------


class Arc(namedtuple("Arc", "conic start end samples")):
    """A conic arc from start to end with sampled points (endpoints included)."""

    __slots__ = ()


class RegionBoundary(namedtuple("RegionBoundary", "vertices arcs", defaults=((),))):
    """Closed region boundary: straight segments through vertices, then arcs.

    The traversal runs vertices[0] -> ... -> vertices[-1]; if arcs are present
    they continue the traversal back to vertices[0], otherwise the polygon
    closes with a final straight segment.
    """

    __slots__ = ()


def conic_arc_points(conic: Conic, start, end, n: int, anchor) -> list[tuple]:
    """n points on the conic arc from start to end (endpoints exact).

    Parameterized by the pencil of chords through ``anchor``, a point on the
    conic away from the arc: each chord meets the conic in exactly one other
    point, and the chord angle varies monotonically along a convex arc.  This
    avoids vertical-branch issues of solving for y over an x grid.
    """
    if n < 2:
        raise ValueError("need at least the two endpoints")
    ax, ay = float(anchor[0]), float(anchor[1])
    A, B, C = float(conic.A), float(conic.B), float(conic.C)
    c0 = float(conic(ax, ay))
    th0 = math.atan2(float(start[1]) - ay, float(start[0]) - ax)
    th1 = math.atan2(float(end[1]) - ay, float(end[0]) - ax)
    delta = math.remainder(th1 - th0, 2 * math.pi)
    pts = [(float(start[0]), float(start[1]))]
    gx, gy = conic.gradient(ax, ay)
    gx, gy = float(gx), float(gy)
    for i in range(1, n - 1):
        th = th0 + delta * (i / (n - 1))
        ux, uy = math.cos(th), math.sin(th)
        a = A * ux * ux + B * ux * uy + C * uy * uy
        b = gx * ux + gy * uy
        if abs(a) < 1e-300:
            raise ValueError("chord direction is asymptotic for this conic")
        disc = max(b * b - 4 * a * c0, 0.0)
        qq = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
        roots = [qq / a]
        if qq != 0.0:
            roots.append(c0 / qq)
        t = max(roots, key=abs)  # the non-anchor intersection
        pts.append((ax + t * ux, ay + t * uy))
    pts.append((float(end[0]), float(end[1])))
    return pts


def _region_boundary(kind: str, d: int, k: int, arc_samples: int) -> RegionBoundary:
    row = _REGIONS[kind, region_case(d, k)]
    if arc_samples < 2:  # refused in every case, with or without an arc to sample
        raise ValueError(f"arc_samples must be >= 2, got {arc_samples}")
    verts = _vertices(kind, d, k, False)
    if row.conic is None:
        return RegionBoundary(vertices=verts)
    conic = row.conic(d, k, False)
    samples = conic_arc_points(conic, verts[-1], verts[0], arc_samples, anchor=row.anchor(d, k))
    arc = Arc(conic=conic, start=verts[-1], end=verts[0], samples=tuple(samples))
    return RegionBoundary(vertices=verts, arcs=(arc,))


def map_region_boundary(d: int, k: int, arc_samples: int = 64) -> RegionBoundary:
    """Boundary of the k-positivity region with the conic arc sampled."""
    return _region_boundary("map", d, k, arc_samples)


def state_region_boundary(d: int, k: int, arc_samples: int = 64) -> RegionBoundary:
    """Boundary of the Schmidt-number-<=k region with the elliptic arc sampled."""
    return _region_boundary("state", d, k, arc_samples)


def _traversal_points(rb: RegionBoundary) -> list[tuple]:
    pts = [(float(x), float(y)) for x, y in rb.vertices]
    for arc in rb.arcs:
        pts.extend((float(x), float(y)) for x, y in arc.samples[1:-1])
    return pts


def region_contains(rb: RegionBoundary, pt, tol: float = 1e-9) -> bool:
    """Convex containment test against the polyline (vertices + arc samples)."""
    pts = _traversal_points(rb)
    n = len(pts)
    x, y = float(pt[0]), float(pt[1])
    # orientation via the shoelace sum
    area2 = sum(
        pts[i][0] * pts[(i + 1) % n][1] - pts[(i + 1) % n][0] * pts[i][1] for i in range(n)
    )
    orient = 1.0 if area2 >= 0 else -1.0
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
        # normalize to a signed distance so tol is edge-length independent
        edge = math.hypot(x1 - x0, y1 - y0)
        if edge > 0 and orient * cross < -tol * edge:
            return False
    return True


# ---------------------------------------------------------------------------
# Serialization: JSON payload, CSV, SVG
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return format(float(v) + 0.0, ".9g")


def region_payload(rb: RegionBoundary, **meta) -> dict:
    """JSON-serializable dict for a region boundary."""
    payload = dict(meta)
    payload["closed"] = True
    payload["vertices"] = [[float(x), float(y)] for x, y in rb.vertices]
    payload["arcs"] = [
        {
            "conic": [float(c) for c in arc.conic],
            "start": [float(arc.start[0]), float(arc.start[1])],
            "end": [float(arc.end[0]), float(arc.end[1])],
            "samples": [[float(x), float(y)] for x, y in arc.samples],
        }
        for arc in rb.arcs
    ]
    return payload


def region_csv(rb: RegionBoundary) -> str:
    """Labeled boundary points: kind,index,x,y."""
    lines = ["kind,index,x,y"]
    for i, (x, y) in enumerate(rb.vertices):
        lines.append(f"vertex,{i},{_fmt(x)},{_fmt(y)}")
    for j, arc in enumerate(rb.arcs):
        for i, (x, y) in enumerate(arc.samples):
            lines.append(f"arc{j},{i},{_fmt(x)},{_fmt(y)}")
    return "\n".join(lines) + "\n"


DEFAULT_SVG_STYLE = {
    "axis.stroke": "#999999",
    "axis.width": "0.006",
    "edge.stroke": "#1f77b4",
    "edge.width": "0.012",
    "arc.stroke": "#d62728",
    "arc.width": "0.012",
    "vertex.fill": "#000000",
    "vertex.radius": "0.02",
}

# math coordinates, y axis flipped at write time
_VIEW = (-0.7, -0.7, 1.2, 1.2)


def region_svg(rb: RegionBoundary, style: dict | None = None) -> str:
    """SVG document: one path per straight segment, one per sampled arc."""
    st = dict(DEFAULT_SVG_STYLE)
    if style:
        st.update(style)
    x0, y0, x1, y1 = _VIEW
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(-y1)} '
        f'{_fmt(x1 - x0)} {_fmt(y1 - y0)}">',
        f'<line class="axis" x1="{_fmt(x0)}" y1="0" x2="{_fmt(x1)}" y2="0" '
        f'stroke="{st["axis.stroke"]}" stroke-width="{st["axis.width"]}"/>',
        f'<line class="axis" x1="0" y1="{_fmt(-y1)}" x2="0" y2="{_fmt(-y0)}" '
        f'stroke="{st["axis.stroke"]}" stroke-width="{st["axis.width"]}"/>',
    ]
    verts = [(float(x), float(y)) for x, y in rb.vertices]
    segments = list(zip(verts[:-1], verts[1:]))
    if not rb.arcs:
        segments.append((verts[-1], verts[0]))
    for (ax, ay), (bx, by) in segments:
        parts.append(
            f'<path class="edge" d="M {_fmt(ax)} {_fmt(-ay)} L {_fmt(bx)} {_fmt(-by)}" '
            f'stroke="{st["edge.stroke"]}" stroke-width="{st["edge.width"]}" fill="none"/>'
        )
    for arc in rb.arcs:
        d_attr = " L ".join(f"{_fmt(x)} {_fmt(-y)}" for x, y in arc.samples)
        parts.append(
            f'<path class="arc" d="M {d_attr}" '
            f'stroke="{st["arc.stroke"]}" stroke-width="{st["arc.width"]}" fill="none"/>'
        )
    for x, y in verts:
        parts.append(
            f'<circle class="vertex" cx="{_fmt(x)}" cy="{_fmt(-y)}" '
            f'r="{st["vertex.radius"]}" fill="{st["vertex.fill"]}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
