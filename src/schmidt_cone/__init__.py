"""k-positivity and Schmidt numbers under standard orthogonal symmetry.

The top level exports the decision engine only: the closed-form classification
of the covariant-map and invariant-state families and their region geometry,
which load without numpy.  The numerical oracles that cross-validate every
decision are the submodules ``oracles``, ``symmetry`` and ``linalg``.
"""

from .classify import (
    KPositivityProfile,
    MembershipVerdict,
    StateClassification,
    is_k_positive,
    k_positivity_max,
    schmidt_membership,
    schmidt_number,
)
from .geometry import (
    Conic,
    HalfPlane,
    RegionBoundary,
    dual_conic,
    dual_tangency_points,
    dual_tangent_lines,
    kpos_conic,
    map_region_boundary,
    map_region_vertices,
    pairing_map,
    pairing_map_inv,
    pole_of_tangent,
    state_region_boundary,
    state_region_vertices,
)

__version__ = "0.1.0"
