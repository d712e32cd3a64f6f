"""meshcide: containment, avoidance, and coincidence of mesh patterns."""

from .perm import (
    Perm,
    Occurrence,
    ParseError,
    SYMMETRIES,
    all_perms,
    apply_symmetry_perm,
    classical_occurrences,
    direct_sum,
    is_sum_decomposable,
    make_perm,
    parse_perm,
    perm_text,
)
from .mesh import (
    MeshPattern,
    OpenBox,
    avoiders,
    contains,
    corresponding_region,
    fingerprints_many,
    first_separation,
    mesh_occurrences,
    mesh_pattern_from_json,
    mesh_pattern_to_json,
    parse_mesh_pattern,
)
from .diagonals import (
    EnclosedDiagonal,
    apply_symmetry_mesh,
    enc_witness,
    enclosed_diagonals,
    is_coincident_with_classical,
    same_enc,
)
from .shading import (
    Assignment,
    ProofTrace,
    ShadeMove,
    TraceStep,
    shadeable_pairs,
    shadeable_singles,
    ssl_closure,
    ssl_moves,
    ssl_repair_occurrence,
)
from .coincidence import (
    GAMMA_1,
    GAMMA_2,
    CoincidenceVerdict,
    FamilyTags,
    classify_family,
    contains_gamma_oracle,
    decide_coincidence,
    gamma_rule,
    partition_meshes,
    verify_trace,
)

__version__ = "0.1.0"
