"""Tregex-like substrate: ordered labelled trees and structural pattern matching."""

from .matcher import (
    ArityConstraint,
    NodePattern,
    StructuralConstraint,
    TreePattern,
    all_assignments,
    find_assignments,
    has_assignment,
    node_candidates,
)
from .relations import (
    ANCESTOR,
    CHILD,
    DESCENDANT,
    FOLLOWING_SIBLING,
    PARENT,
    RELATIONS,
    SIBLING,
    Relation,
    get_relation,
)
from .tree import TreeNode, build_tree, parent_child_pairs, preorder_shape

__all__ = [
    "ANCESTOR",
    "ArityConstraint",
    "CHILD",
    "DESCENDANT",
    "FOLLOWING_SIBLING",
    "NodePattern",
    "PARENT",
    "RELATIONS",
    "Relation",
    "SIBLING",
    "StructuralConstraint",
    "TreeNode",
    "TreePattern",
    "all_assignments",
    "build_tree",
    "find_assignments",
    "get_relation",
    "has_assignment",
    "node_candidates",
    "parent_child_pairs",
    "preorder_shape",
]
