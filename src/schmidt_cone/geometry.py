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
state coordinates, pole-polar duality, exact five-point conic fitting (a
float read as its binary value), and arc sampling for plots.

Exact mode: corners and the pairing map are evaluated in rational arithmetic
whenever the inputs are rationals.  The five-point fit and exact margins work
on the integer numerators of each point over its common denominator (as w):
the fit by fraction-free integer elimination, the margins by the same table
rows, so boundary classification never depends on rounding.  Arc sampling is
always floating point.  The record types are immutable named tuples, built once
and shared through one bounded LRU (``_cached``): the last 8,192 records of each
per-(d, k) builder, and the last 64 boundaries and witness point arrays, are kept per process.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial, wraps

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


def _finite_array(X, dtype=float):
    """X as an array of ``dtype``, float or complex: the one rule for numeric array input.

    Refuses a bool or text dtype, a complex one for float, and a NaN or infinite entry;
    input that is not yet an array is read entry by entry, so a bool in a list is refused.
    """
    import numpy as np

    if not isinstance(X, np.ndarray):
        if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(X, dtype=object).flat):
            raise ValueError(f"bool entry where {dtype.__name__} entries are expected")
    X = np.asarray(X)
    if X.dtype.kind not in ("iufcO" if dtype is complex else "iufO"):
        raise ValueError(f"{X.dtype} array where {dtype.__name__} entries are expected")
    X = X.astype(dtype, copy=False)  # object arrays of Fractions convert; no copy if of dtype
    if not np.isfinite(X).all():
        raise ValueError("non-finite entry")
    return X


def _cached(fn, kept=8192):
    """fn under an LRU of its last ``kept`` records, region_case run on its leading (d, k) first.

    The cache hashes its arguments before fn runs, so without the check an
    unhashable d or k, such as a 0-d numpy array, raised ``TypeError`` there;
    no builder answers a d or k that region_case refuses.  A numpy-integer d
    or k shares the entry of the equal Python int.  Keyword and default arguments
    are put in position first, so ``kpos_conic(5, 3, exact=True)`` is
    ``kpos_conic(5, 3, True)``.  8,192 hold a profile's case-3 records to d ~ 16,000.
    """
    cached = lru_cache(maxsize=kept)(fn)
    names = fn.__code__.co_varnames[2 : fn.__code__.co_argcount]
    defaults = dict(zip(reversed(names), reversed(fn.__defaults__ or ())))

    @wraps(cached)
    def checked(d, k, *args, **kwargs):
        region_case(d, k)
        for name in names[len(args) :]:
            if name not in kwargs and name not in defaults:
                break  # a missing argument: the call below raises TypeError, as fn would
            args += (kwargs.pop(name, defaults.get(name)),)
        return cached(d, k, *args, **kwargs)

    checked.cache_clear = cached.cache_clear
    return checked


def _check_counts(least: int, **counts):
    """Refuse a count that is a bool, not a Python or numpy integer, or below ``least``."""
    for name, v in counts.items():
        if type(v) is int and v >= least:
            continue
        import numpy as np

        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
            raise ValueError(f"{name} must be >= {least}, got {v!r}")


def _check_tolerances(*tols):
    """Refuse a NaN, infinite, negative or bool tolerance, as the classifier does."""
    _check_finite(*tols)
    if min(tols) < 0:
        raise ValueError(f"negative tolerance {min(tols)!r}")


# ---------------------------------------------------------------------------
# Conics
# ---------------------------------------------------------------------------


class Conic(namedtuple("Conic", "A B C D E F")):
    """Quadratic plane curve A x^2 + B xy + C y^2 + D x + E y + F = 0.

    Coefficients may be ints/Fractions (exact) or floats; a NaN, infinite or
    bool one is refused with ``ValueError``, as in ``HalfPlane``.
    """

    __slots__ = ()

    def __new__(cls, A, B, C, D, E, F):
        _check_finite(A, B, C, D, E, F)
        return super().__new__(cls, A, B, C, D, E, F)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

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

    def as_float(self) -> "Conic":
        coeffs = [float(v) for v in self]
        scale = max(abs(v) for v in coeffs)
        if scale == 0.0:
            raise ValueError("zero conic")
        return Conic(*(v / scale for v in coeffs))

    def classify(self) -> str:
        """One of 'ellipse' | 'parabola' | 'hyperbola' | 'degenerate'.

        Classified by the sign of B^2 - 4AC, with degeneracy decided by the
        determinant of the full 3x3 matrix of the quadratic form, each compared
        within 1e-12 on float coefficients scaled to a largest magnitude of 1,
        as ``as_float`` scales them, so no power of a large coefficient
        overflows; int/Fraction coefficients take the same comparisons
        unscaled at tolerance 0.
        """
        A, B, C, D, E, F = self
        tol = 0
        if not _is_exact(*self):
            tol, coeffs = 1e-12, [float(v) for v in self]
            scale = max(abs(v) for v in coeffs) or 1.0  # an all-zero conic stays degenerate
            A, B, C, D, E, F = (v / scale for v in coeffs)
        disc = B * B - 4 * A * C
        # determinant of [[2A, B, D], [B, 2C, E], [D, E, 2F]]
        det3 = (
            2 * A * (4 * C * F - E * E)
            - B * (2 * B * F - D * E)
            + D * (B * E - 2 * C * D)
        )
        if max(abs(A), abs(B), abs(C)) <= tol or abs(det3) <= tol:
            return "degenerate"
        if disc < -tol:
            return "ellipse"
        if disc > tol:
            return "hyperbola"
        return "parabola"


@_cached
def kpos_conic(d: int, k: int, exact: bool = False) -> Conic:
    """The boundary conic of the k-positivity region (integer coefficients).

    A = kd-1, B = -(d^3 - kd^2 - kd - d + 2), C = d-1, D = -(kd-2),
    E = -(d-2), F = -1.  Built for the (d, k) region_case accepts, relevant for
    d/2 < k < d.  Built once per (d, k, exact) among the last 8,192: every float
    classification in case 3 evaluates it, and a Conic is frozen, so callers share it.
    """
    d, k = int(d), int(k)  # a numpy integer would overflow
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
    region_case(d, 1)
    x, y = pt
    return (-(d - 1) * ((d + 1) * x + y), -(d - 1) * (x + (d + 1) * y))


def pairing_map_inv(d: int, pt: tuple) -> tuple:
    """Exact inverse of pairing_map; determinant (d-1)^2 (d^2 + 2d) != 0."""
    region_case(d, 1)
    u, v = pt
    inv = Fraction(1, (d - 1) * (d * d + 2 * d))  # a float times it is a float
    return ((v - (d + 1) * u) * inv, (u - (d + 1) * v) * inv)


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
    _check_finite(p, q)  # before pairing_map turns a bool into a number
    nx, ny = pairing_map(d, (p, q))
    return HalfPlane(nx, ny, 1)


def pole_of_tangent(conic: Conic, pt: tuple, tol: float = 1e-9) -> tuple:
    """Pole (w.r.t. the unit circle) of the tangent line to the conic at pt.

    pt must be finite and lie on the conic, within tol times max(1, largest
    |coefficient|), and the tangent must miss the origin (denominator 1e-14 or
    more).  On int/Fraction input both tests run at tolerance 0, exactly.  A
    NaN, infinite, negative or bool tol is refused, as the classifier does.
    """
    x, y = pt
    _check_finite(x, y)
    _check_tolerances(tol)
    val = conic(x, y)
    exact = _is_exact(x, y, *conic)
    num, tiny = (Fraction, 0) if exact else (float, 1e-14)
    bound = 0 if exact else tol * max(1.0, *(abs(float(c)) for c in conic))
    if abs(num(val)) > bound:
        raise ValueError("point does not lie on the conic" if exact
                         else f"point not on conic (residual {float(val):.3e})")
    den = conic.D * x + conic.E * y + 2 * conic.F
    if den == 0 or abs(num(den)) < tiny:
        raise ValueError("tangent line passes through the origin; pole undefined")
    num_x, num_y = conic.gradient(x, y)
    den = Fraction(den) if exact else den
    return (-num_x / den, -num_y / den)


# ---------------------------------------------------------------------------
# Five-point conic fit
# ---------------------------------------------------------------------------


def _integer_fit(pts) -> list[int]:
    """Primitive integer null vector, last nonzero entry positive, of five rational points.

    A point over its common denominator w, (X/w, Y/w), gives the integer row
    (X^2, XY, Y^2, Xw, Yw, w^2): its monomial row times w^2, same nullspace.
    Gauss-Jordan elimination runs on those rows, each update divided by its gcd.
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


def _rational(v):
    """The exact rational a finite coordinate denotes: a float as its binary value."""
    return v if isinstance(v, (int, Fraction)) else Fraction(float(v))


def conic_through_five_points(points, interior=None) -> Conic:
    """Conic through five points in general position, fitted exactly (_integer_fit).

    A float coordinate is read as its binary value; if there is one, the
    coefficients are divided by the largest in magnitude and rounded to
    floats.  ``interior``, if given, is put on the <= 0 side.  Raises on
    rank-deficient configurations and on a NaN, infinite or bool coordinate.
    """
    pts = [tuple(p) for p in points]
    if len(pts) != 5:
        raise ValueError("exactly five points required")
    _check_finite(*(v for pt in pts for v in pt), *(() if interior is None else interior))
    coeffs = _integer_fit([(_rational(x), _rational(y)) for x, y in pts])
    if interior is not None and Conic(*coeffs)(_rational(interior[0]), _rational(interior[1])) > 0:
        coeffs = [-v for v in coeffs]
    if all(_is_exact(x, y) for x, y in pts):
        return Conic(*coeffs)
    scale = max(map(abs, coeffs))
    return Conic(*(float(Fraction(v, scale)) for v in coeffs))


# ---------------------------------------------------------------------------
# Dual conic of the k-positivity arc
# ---------------------------------------------------------------------------


_Dual = namedtuple("_Dual", "points lines conic")


@_cached
def _dual(d: int, k: int) -> _Dual:
    """The case-3 dual ellipse, built once per (d, k).

    ``points``: the positivity conic's five rational points under
    pole-of-tangent and the inverse pairing map; the last two end the state
    arc.  ``lines``: the tangents there, as half-planes holding the state
    region.  ``conic``: the exact fit through the points, whose filled
    ellipse (holding their centroid) is its <= 0 side.
    """
    if region_case(d, k) != 3:
        raise ValueError(f"k={k} out of range d/2 < k < d for d={d}")
    d, k = int(d), int(k)  # a numpy integer would overflow
    D2 = d * d + d - 2
    corners = _vertices(d, k, "state", True)
    pts = (
        (Fraction(-d, k * D2), Fraction(d * d - k * d + d - 2 * k, k * D2)),
        (Fraction(d * d - k * d + d - k - 1, D2), Fraction(-(d - k + 1), D2)),
        (Fraction(2 * k * d - d * d + 2 * k - d - 2, D2), Fraction(2 * d - 2 * k, D2)),
        corners[-1],
        corners[0],
    )
    centroid = (sum(x for x, _ in pts) / 5, sum(y for _, y in pts) / 5)
    # the fit is looked up as a module global, so a wrapper installed on it sees the call
    conic = conic_through_five_points(pts, interior=centroid)
    return _Dual(pts, tuple(_halfplanes(_DUAL_TANGENTS, d, k)), conic)


def dual_tangency_points(d: int, k: int, exact: bool = True) -> list[tuple]:
    """The five tangency points of the dual ellipse in state coordinates (see ``_dual``)."""
    pts = _dual(d, k).points
    return list(pts) if exact else [(float(x), float(y)) for x, y in pts]


def dual_tangent_lines(d: int, k: int) -> list[HalfPlane]:
    """The dual ellipse's tangents at its tangency points, in their order, as n.x <= c."""
    return list(_dual(d, k).lines)


@_cached
def dual_conic(d: int, k: int, exact: bool = True) -> Conic:
    """The dual ellipse: primitive integer coefficients, or floats scaled to max 1."""
    conic = _dual(d, k).conic
    return conic if exact else conic.as_float()


def tangency_discriminant(conic: Conic, line: HalfPlane):
    """Discriminant of the conic restricted to the boundary line of a half-plane.

    Zero iff the line n.x = c is tangent to the conic; exact on int/Fraction
    input.  Raises if the restriction is not genuinely quadratic: its leading
    coefficient is below 1e-300 (at tolerance 0 on exact input).
    """
    nx, ny, c = line
    exact = _is_exact(nx, ny, c, *conic)
    num, tiny = (Fraction, 0) if exact else (float, 1e-300)
    c = Fraction(c) if exact else c
    # a point on the line, and the line's direction (ny, -nx)
    x0, y0 = (0, c / ny) if ny != 0 else (c / nx, 0)
    ux, uy = ny, -nx
    a = conic.A * ux * ux + conic.B * ux * uy + conic.C * uy * uy
    gx, gy = conic.gradient(x0, y0)
    b = gx * ux + gy * uy
    c0 = conic(x0, y0)
    if a == 0 or abs(num(a)) < tiny:
        raise ValueError("line direction is asymptotic for this conic")
    return b * b - 4 * a * c0


# ---------------------------------------------------------------------------
# The region table
# ---------------------------------------------------------------------------


def region_case(d: int, k: int) -> int:
    """Which of the four geometric cases (k, d) falls in: 1, 2, 3 or 4.

    The one rule for (d, k): a d or k that is not a Python or numpy integer (a
    float, bool or 0-d array), d < 2 or k outside 1..d raises ``ValueError``.
    """
    if type(d) is not int or type(k) is not int:
        import numpy as np

        for name, v in (("d", d), ("k", k)):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
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
# every reader of the table has run region_case, so the conics are its caches
# themselves (__wrapped__), without the region_case check in front of them
_REGIONS = {
    ("map", 1): _region(_L1, _L4, _L2, _L3),
    ("map", 2): _region(_L1, _L6, _L7, _L5),
    ("map", 3): _region(
        _L5,
        _L1,
        _L6,
        conic=kpos_conic.__wrapped__,
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
        conic=dual_conic.__wrapped__,
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


@_cached
def _vertices(d: int, k: int, kind: str, exact: bool) -> tuple:
    row = _REGIONS[kind, region_case(d, k)]
    d, k = int(d), int(k)  # a numpy integer would overflow
    lines = _halfplanes(row.slacks, d, k)
    if row.ends is None:
        pts = [_meet(lines[i - 1], lines[i]) for i in range(len(lines))]
    else:
        start, end = row.ends(d, k)
        pts = [end, *(_meet(g, h) for g, h in zip(lines, lines[1:])), start]
    return tuple(pts) if exact else tuple((float(x), float(y)) for x, y in pts)


def map_region_vertices(d: int, k: int, exact: bool = False) -> list[tuple]:
    """Corner points of the k-positivity region, in traversal order."""
    return list(_vertices(d, k, "map", exact))


def state_region_vertices(d: int, k: int, exact: bool = False) -> list[tuple]:
    """Corner points of the Schmidt-number-<=k region, in traversal order."""
    return list(_vertices(d, k, "state", exact))


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
    avoids vertical-branch issues of solving for y over an x grid.  A NaN,
    infinite or bool coordinate of start, end or anchor raises ``ValueError``.
    """
    _check_counts(2, n=n)
    _check_finite(*start, *end, *anchor)
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


# Region boundaries kept per process, and witness point arrays traced from the
# map's: the 54 (kind, d, k) of d <= 7 at one sample count fit, as do the query
# mix's 36.
_KEPT = 64


@partial(_cached, kept=_KEPT)
def _boundary(d: int, k: int, kind: str, arc_samples: int) -> RegionBoundary:
    row = _REGIONS[kind, region_case(d, k)]
    verts = _vertices(d, k, kind, False)
    if row.conic is None:
        return RegionBoundary(vertices=verts)
    conic = row.conic(d, k, False)
    samples = conic_arc_points(conic, verts[-1], verts[0], arc_samples, anchor=row.anchor(d, k))
    arc = Arc(conic=conic, start=verts[-1], end=verts[0], samples=tuple(samples))
    return RegionBoundary(vertices=verts, arcs=(arc,))


def map_region_boundary(d: int, k: int, arc_samples: int = 64) -> RegionBoundary:
    """Boundary of the k-positivity region with the conic arc sampled.

    Built once per (d, k, arc_samples) and shared: the last ``_KEPT`` are
    kept, and a call with the same arguments returns the same object.
    """
    _check_counts(2, arc_samples=arc_samples)  # in every case, with or without an arc to sample
    return _boundary(d, k, "map", arc_samples)


def state_region_boundary(d: int, k: int, arc_samples: int = 64) -> RegionBoundary:
    """Boundary of the Schmidt-number-<=k region with the elliptic arc sampled.

    Built once per (d, k, arc_samples) and shared, as ``map_region_boundary``.
    """
    _check_counts(2, arc_samples=arc_samples)
    return _boundary(d, k, "state", arc_samples)


@partial(_cached, kept=_KEPT)
def _witness_points(d: int, k: int, arc_samples: int):
    """The map boundary's traversal, read-only float (n, 2): vertices, then the arc's inner samples."""
    import numpy as np

    rb = _boundary(d, k, "map", arc_samples)
    pts = np.array([*rb.vertices, *(p for arc in rb.arcs for p in arc.samples[1:-1])], dtype=float)
    pts.flags.writeable = False
    return pts


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

# the characters that could end an XML attribute value or open markup, as entities
_XML_ATTR = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


def region_svg(rb: RegionBoundary, style: dict | None = None) -> str:
    """SVG document: one path per straight segment, one per sampled arc.

    ``style`` overrides values of ``DEFAULT_SVG_STYLE``; a key not there raises
    ``ValueError``.  Each override is escaped for an XML attribute, once per
    call, so a quote or bracket in it cannot leave its attribute.
    """
    st = dict(DEFAULT_SVG_STYLE)
    if style:
        unknown = sorted(style.keys() - st.keys())
        if unknown:
            raise ValueError(f"unknown style key(s) {', '.join(map(repr, unknown))}")
        st.update((key, str(value).translate(_XML_ATTR)) for key, value in style.items())
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
