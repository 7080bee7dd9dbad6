"""k-positivity and Schmidt numbers under standard orthogonal symmetry.

Closed-form region classification for the two-parameter covariant-map and
invariant-state families, conic boundary geometry via projective duality, and
independent numerical oracles cross-validating every decision.
"""

from .classify import (
    KPositivityProfile,
    MembershipVerdict,
    StateClassification,
    SuperpositivityProfile,
    is_k_positive,
    k_block_positivity_max,
    k_positivity_max,
    k_superpositivity_max,
    schmidt_membership,
    schmidt_number,
)
from .geometry import (
    Conic,
    HalfPlane,
    RegionBoundary,
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
    state_region_boundary,
    state_region_vertices,
)
from .linalg import flip, is_psd, kron, max_entangled, pairing, schmidt_spectrum
from .oracles import (
    Frame,
    OracleReport,
    block_conditions,
    block_positivity_falsifier,
    duality_sanity,
    frame_overlap,
    frame_overlap_minimize,
    tomiyama_check,
    tomiyama_matrix,
    witness_pairing,
    witness_violation_search,
)
from .symmetry import (
    CovariantMap,
    InvariantCoordinates,
    InvariantState,
    twirl_exact,
    twirl_monte_carlo,
)

__version__ = "0.1.0"
