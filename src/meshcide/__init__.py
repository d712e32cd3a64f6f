"""meshcide: containment, avoidance, and coincidence of mesh patterns."""

from .perm import (
    Perm,
    Occurrence,
    ParseError,
    SYMMETRIES,
    all_perms,
    apply_symmetry_perm,
    classical_occurrences,
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
from .certify import (
    GAMMA_1,
    GAMMA_2,
    ProofTrace,
    TraceStep,
    gamma_rule,
    verify_trace,
)
from .shading import (
    Assignment,
    ShadeMove,
    shadeable_pairs,
    shadeable_singles,
    ssl_closure,
    ssl_moves,
    ssl_repair_occurrence,
)
from .coincidence import (
    CoincidenceVerdict,
    FamilyTags,
    classify_family,
    decide_coincidence,
    partition_meshes,
)

__version__ = "0.1.0"
