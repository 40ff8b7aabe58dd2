"""Data-flow graph substrate: DFG model, orderings, paths, classification, IO."""

from .analysis import GraphProfile, op_histogram, parallelism_profile, profile
from .classify import (
    common_nodes,
    duplication_count,
    expansion_sizes,
    is_in_forest,
    is_out_forest,
    is_out_tree,
    is_simple_path,
    multi_parent_nodes,
)
from .dag import (
    ancestors,
    depth_map,
    descendants,
    height_map,
    require_acyclic,
    reverse_topological_order,
    topological_order,
)
from .dfg import DFG, Edge, Node
from .io import from_dict, from_json, to_dict, to_dot, to_json
from .paths import (
    all_critical_paths,
    count_root_leaf_paths,
    critical_path,
    enumerate_root_leaf_paths,
    longest_path_time,
    min_path_to_leaf,
    path_time,
)

__all__ = [
    "GraphProfile",
    "profile",
    "op_histogram",
    "parallelism_profile",
    "DFG",
    "Node",
    "Edge",
    "topological_order",
    "reverse_topological_order",
    "require_acyclic",
    "descendants",
    "ancestors",
    "depth_map",
    "height_map",
    "path_time",
    "longest_path_time",
    "critical_path",
    "all_critical_paths",
    "min_path_to_leaf",
    "enumerate_root_leaf_paths",
    "count_root_leaf_paths",
    "is_simple_path",
    "is_out_forest",
    "is_out_tree",
    "is_in_forest",
    "common_nodes",
    "multi_parent_nodes",
    "duplication_count",
    "expansion_sizes",
    "to_dict",
    "from_dict",
    "to_json",
    "from_json",
    "to_dot",
]
