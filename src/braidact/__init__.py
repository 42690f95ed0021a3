"""Exact computation with local braid-group actions on free groups.

The toolkit verifies and classifies the braid-compatible local actions
on free groups, reconstructs their successor graph, applies braid words
through the induced automorphisms, and computes group-valued invariants
of the closure links with desk-scale verification (Markov moves, finite
quotients, abelianizations).
"""

from .autf2 import AutF2, aut_sort_key, commutator, is_basis, nielsen_reduce
from .braid import (
    BraidWord,
    Endo,
    check_pair_via_braid,
    endo_of_braid,
    free_reduce_braid,
    local_endo,
    parse_braid,
    verify_braid_relations,
)
from .groups import (
    DEFAULT_FINGERPRINT_GROUPS,
    FiniteGroupTable,
    builtin_group,
    cyclic_group,
    dihedral_group,
    group_from_table,
    load_group_table,
    symmetric_group,
)
from .invariant import (
    Fingerprint,
    GroupPresentation,
    S1Report,
    abelian_invariants,
    abelianization,
    check_S1,
    count_homs,
    count_homs_by_action,
    fingerprint,
    fingerprint_report,
    markov_conjugate,
    markov_stabilize,
    pair_action,
    presentation,
    tietze_simplify,
)
from .localrep import (
    ARTIN_CORE,
    COMPONENT_KINDS,
    FAMILY_TAGS,
    FamilyId,
    GammaEdge,
    GammaGraph,
    LocalRep,
    PathError,
    Quad,
    QuadReport,
    backward_dual,
    base_quad,
    build_gamma,
    can_extend,
    canonicalize,
    catalog,
    check_quad,
    classify_search,
    component_vertices,
    constant_rep,
    identify_quad,
    inverse_rep,
    outgoing_cores,
    quad_sort_key,
    rep_from_cores,
    rep_from_path,
    swap_dual,
    symmetry_orbit,
)
from .snf import smith_normal_form
from .words import Word, word_sort_key

__version__ = "0.1.0"
