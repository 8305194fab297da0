"""rolemine: structural role discovery in graphs.

Recursive neighborhood features with redundancy pruning, low-rank role
assignment with automatic rank selection, exact node-equivalence oracles,
and role transfer across graphs and time.
"""

from .equivalences import (
    AUTOMORPHISM_NODE_LIMIT,
    automorphic_orbits,
    regular_refinement,
    structural_classes,
)
from .features import (
    DEFAULT_OPERATORS,
    DEFAULT_PRIMITIVES,
    OPERATOR_KINDS,
    PRIMITIVE_KINDS,
    FeatureDescriptor,
    FeatureLearnConfig,
    FeatureMatrix,
    compute_primitive,
    descriptors_from_json,
    descriptors_to_json,
    features_from_csv,
    features_to_csv,
    learn_features,
    recompute,
)
from .graph import (
    Graph,
    NodePartition,
    apply_permutation,
    load_edge_list,
    write_edge_list,
)
from .roles import (
    RankSweep,
    RoleModel,
    hard_assignment,
    model_cost,
    model_from_json,
    model_to_json,
    nmf_factorize,
    normalize_columns,
    select_rank,
    soft_memberships,
    svd_factorize,
)
from .synth import erdos_renyi, planted_role_graph
from .transfer import (
    NnlsReport,
    estimate_transition_model,
    memberships_for_matrix,
    series_to_csv,
    transfer_memberships,
    transition_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "AUTOMORPHISM_NODE_LIMIT",
    "DEFAULT_OPERATORS",
    "DEFAULT_PRIMITIVES",
    "FeatureDescriptor",
    "FeatureLearnConfig",
    "FeatureMatrix",
    "Graph",
    "NnlsReport",
    "NodePartition",
    "OPERATOR_KINDS",
    "PRIMITIVE_KINDS",
    "RankSweep",
    "RoleModel",
    "apply_permutation",
    "automorphic_orbits",
    "compute_primitive",
    "descriptors_from_json",
    "descriptors_to_json",
    "erdos_renyi",
    "estimate_transition_model",
    "features_from_csv",
    "features_to_csv",
    "hard_assignment",
    "learn_features",
    "load_edge_list",
    "memberships_for_matrix",
    "model_cost",
    "model_from_json",
    "model_to_json",
    "nmf_factorize",
    "normalize_columns",
    "planted_role_graph",
    "recompute",
    "regular_refinement",
    "select_rank",
    "series_to_csv",
    "soft_memberships",
    "structural_classes",
    "svd_factorize",
    "transfer_memberships",
    "transition_to_json",
    "write_edge_list",
]
