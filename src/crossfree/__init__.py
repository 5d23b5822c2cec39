"""Toolkit for k-cross-free set families at desk scale.

Exact witness search, Dilworth decompositions, extremal-family generators,
the chain/tree proof machinery, and an exact maximum-subfamily search, all
over ground sets of at most 64 elements.
"""

from .chains import (
    Chain,
    ChainCollection,
    NotCrossFreeError,
    Ordering,
    check_conditions,
    extract_disjoint_chains,
    parse_chain_collection,
    parse_ordering,
    select_conditioned_chains,
    serialize_chain_collection,
    serialize_ordering,
    successor_graph,
    weak_reduce,
)
from .constructions import (
    gen_cyclic_intervals,
    gen_laminar_max,
    gen_random_cross_free,
)
from .crossing import (
    ChainDecomposition,
    CrossingGraph,
    Witness,
    crossing_graph,
    dilworth_partition,
    find_pairwise_crossing_witness,
    greedy_independent_set,
    turan_floor,
    uniform_bound_report,
)
from .families import (
    Family,
    FamilyFormatError,
    GroundSet,
    PairRelation,
    classify_pair,
    complement_closure,
    elements_of,
    family_predicates,
    format_set,
    mask_of,
    parse_family,
    serialize_family,
)
from .kernel import IMPLEMENTATION as KERNEL_IMPLEMENTATION
from .search import (
    SearchInfeasibleError,
    SearchResult,
    bound_table,
    format_table_csv,
    format_table_text,
    max_cross_free,
)
from .tree import (
    CrossSupportTree,
    ExtractionError,
    MalformedTreeError,
    TreeNode,
    build_tree,
    extract_k_crossing_from_tree,
    gen_synthetic_tree,
    prune_root_children,
    tree_from_json,
    tree_to_json,
    validate_tree,
)

__version__ = "0.1.0"
