"""LDX verification engine (Algorithm 1 of the paper).

Given an exploration session tree whose node labels are
:class:`~repro.explore.operations.Operation` objects and an
:class:`~repro.ldx.ast.LdxQuery`, the engine decides whether at least one
*assignment* exists: a mapping of the query's named nodes to session nodes
and of its continuity variables to concrete values such that every
structural clause and every operation pattern is satisfied.

Besides the boolean check the module exposes:

* :func:`find_assignment` — returns one witnessing assignment,
* :func:`verify_structure` / :func:`structural_assignments` — checks only
  ``struct(QX)``, used by the graded compliance reward (Algorithm 2),
* :func:`operational_match_ratio` — the fraction of specified operational
  parameters satisfied under the best structural assignment,
* :func:`best_partial_structural_assignment` — the relaxed structural match
  (named nodes may stay unassigned) behind the graded reward and the
  specification-aware guidance.

The relaxed match is memoised process-wide.  Its assign-or-skip search reads
only the tree structure, which node is the root, whether each node carries a
``ROOT`` label, and the ``struct(QX)`` clauses in declaration order; it never
reads operation labels.  So the memo key is the tuple of (name, ``is_root``,
per-clause relation, named children and ``min_related()``) per spec, plus
the whole tree's pre-order parent positions (see
:func:`~repro.tregex.tree.preorder_shape`), the position of the node searched
from, and per-node ``ROOT``-label flags, and the result is exact for every
tree of that shape.  The value is immutable: the (spec name, pre-order
position) pairs of the best assignment in the order the search inserted
them, and the two counts.  A hit rebuilds the :class:`Assignment` against
the caller's own nodes.  The memo is cleared wholesale once it holds
``_STRUCTURAL_MEMO_MAX`` entries.  Sessions built step by step keep
revisiting the same few shapes, so most calls are hits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.tregex.relations import get_relation
from repro.tregex.tree import TreeNode, preorder_shape

from .ast import REL_CHILDREN, LdxQuery, NodeSpec
from .errors import LdxVerificationError


@dataclass
class Assignment:
    """A (possibly partial) LDX assignment ``⟨φ_V, φ_C⟩`` (Definition 4.2)."""

    nodes: dict[str, TreeNode] = field(default_factory=dict)
    continuity: dict[str, str] = field(default_factory=dict)

    def copy(self) -> "Assignment":
        return Assignment(nodes=dict(self.nodes), continuity=dict(self.continuity))


def _signature(node: TreeNode) -> tuple[str, ...]:
    label = node.label
    if label is None:
        return ("*",)
    if hasattr(label, "signature"):
        return tuple(str(part) for part in label.signature())
    if isinstance(label, (tuple, list)):
        return tuple(str(part) for part in label)
    return (str(label),)


def _is_root_label(node: TreeNode) -> bool:
    return _signature(node)[0].upper() == "ROOT"


def _is_blank(node: TreeNode) -> bool:
    """Blank nodes are placeholders used by the partial (look-ahead) verifier."""
    return _signature(node)[0] == "*"


def _min_children(spec: NodeSpec) -> int:
    return sum(
        clause.min_related() for clause in spec.structure if clause.relation == REL_CHILDREN
    )


def _candidates(
    tree_root: TreeNode,
    query: LdxQuery,
    spec: NodeSpec,
    assignment: Assignment,
    structural_only: bool,
    ignore_arity: bool = False,
) -> list[TreeNode]:
    """``GetTregexNodeMatches``: candidate session nodes for *spec* given *assignment*."""
    name = spec.name
    if name in assignment.nodes:
        pool: list[TreeNode] = [assignment.nodes[name]]
    else:
        pool = None
        # Restrict to nodes related to already-assigned anchors.
        for other in query.specs:
            if other.name not in assignment.nodes:
                continue
            anchor_node = assignment.nodes[other.name]
            for clause in other.structure:
                if name in clause.named:
                    relation = get_relation(clause.relation)
                    related = relation.candidates(anchor_node)
                    pool = related if pool is None else [n for n in pool if n in related]
        if pool is None:
            pool = list(tree_root.preorder())

    used = {id(node) for key, node in assignment.nodes.items() if key != name}
    result: list[TreeNode] = []
    for node in pool:
        if id(node) in used:
            continue
        if spec.is_root:
            if node is not tree_root:
                continue
        elif _is_root_label(node):
            continue
        # Arity: enough children/descendants for the declared structure.
        if not ignore_arity and not _arity_ok(node, spec):
            continue
        # Reverse structural check: node must be properly related to assigned children.
        if not _assigned_children_ok(node, spec, assignment):
            continue
        if not structural_only and spec.operation is not None and not _is_blank(node):
            pattern = spec.operation.substitute(assignment.continuity)
            if not pattern.matches(_signature(node), assignment.continuity):
                continue
        result.append(node)
    return result


def _arity_ok(node: TreeNode, spec: NodeSpec) -> bool:
    for clause in spec.structure:
        relation = get_relation(clause.relation)
        if len(relation.candidates(node)) < clause.min_related():
            return False
    return True


def _assigned_children_ok(node: TreeNode, spec: NodeSpec, assignment: Assignment) -> bool:
    for clause in spec.structure:
        relation = get_relation(clause.relation)
        for child_name in clause.named:
            if child_name in assignment.nodes:
                if not relation.holds(node, assignment.nodes[child_name]):
                    return False
    return True


def _ordered_specs(query: LdxQuery) -> list[NodeSpec]:
    """Root spec first, then declaration order (parents precede children in LDX text)."""
    root = [spec for spec in query.specs if spec.is_root]
    rest = [spec for spec in query.specs if not spec.is_root]
    return root + rest


def _search(
    tree_root: TreeNode,
    query: LdxQuery,
    pending: list[NodeSpec],
    assignment: Assignment,
    structural_only: bool,
    collect: Optional[list[Assignment]] = None,
) -> Optional[Assignment]:
    """Recursive core of Algorithm 1.

    When *collect* is given, every complete assignment is appended and the
    search continues; otherwise the first complete assignment is returned.
    """
    if not pending:
        if collect is not None:
            collect.append(assignment.copy())
            return None
        return assignment.copy()
    spec, rest = pending[0], pending[1:]
    for node in _candidates(tree_root, query, spec, assignment, structural_only):
        branch = assignment.copy()
        branch.nodes[spec.name] = node
        if not structural_only and spec.operation is not None and not _is_blank(node):
            pattern = spec.operation.substitute(assignment.continuity)
            branch.continuity.update(pattern.capture(_signature(node), assignment.continuity))
        found = _search(tree_root, query, rest, branch, structural_only, collect)
        if found is not None and collect is None:
            return found
    return None


def find_assignment(tree_root: TreeNode, query: LdxQuery) -> Optional[Assignment]:
    """Return a full assignment of *query* over the session tree, or ``None``."""
    if tree_root is None:
        raise LdxVerificationError("tree_root must not be None")
    initial = Assignment(nodes={query.root_name(): tree_root})
    return _search(tree_root, query, _ordered_specs(query), initial, structural_only=False)


def verify(tree_root: TreeNode, query: LdxQuery) -> bool:
    """``VerifyLDX``: True when the session complies with the full query."""
    return find_assignment(tree_root, query) is not None


def verify_structure(tree_root: TreeNode, query: LdxQuery) -> bool:
    """True when the session complies with the structural subset ``struct(QX)``."""
    return bool(structural_assignments(tree_root, query, first_only=True))


def structural_assignments(
    tree_root: TreeNode, query: LdxQuery, first_only: bool = False
) -> list[Assignment]:
    """All assignments satisfying ``struct(QX)`` (``GetTregexNodeAssg`` in Alg. 2)."""
    struct_query = query.structural_subset()
    initial = Assignment(nodes={struct_query.root_name(): tree_root})
    if first_only:
        found = _search(
            tree_root, struct_query, _ordered_specs(struct_query), initial, structural_only=True
        )
        return [found] if found is not None else []
    collected: list[Assignment] = []
    _search(
        tree_root,
        struct_query,
        _ordered_specs(struct_query),
        initial,
        structural_only=True,
        collect=collected,
    )
    return collected


def operational_match_ratio(tree_root: TreeNode, query: LdxQuery) -> float:
    """Best-assignment fraction of satisfied operational parameters.

    Implements ``GetOprReward`` (Algorithm 2, lines 9-12): for every
    structural assignment, each operational specification contributes the
    ratio of its satisfied specified parameters; the maximum over assignments
    is returned, normalised to [0, 1] by the number of operational specs.
    """
    opr_specs = query.operational_specs()
    if not opr_specs:
        return 1.0
    assignments = structural_assignments(tree_root, query)
    if not assignments:
        return 0.0
    best = 0.0
    for assignment in assignments:
        total = 0.0
        for spec in opr_specs:
            node = assignment.nodes.get(spec.name)
            if node is None or spec.operation is None:
                continue
            specified = spec.operation.specified_field_count()
            if specified == 0:
                total += 1.0
                continue
            matched = spec.operation.matched_field_count(_signature(node), {})
            total += matched / specified
        best = max(best, total / len(opr_specs))
    return best


#: Process-wide memo of :func:`best_partial_structural_assignment`:
#: structural key -> ((spec name, pre-order position), ...), assigned, named.
_STRUCTURAL_MEMO: dict[tuple, tuple[tuple[tuple[str, int], ...], int, int]] = {}

#: Bound on the memo; cleared wholesale when exceeded.
_STRUCTURAL_MEMO_MAX = 4096


def _structural_key(
    query: LdxQuery, nodes: list[TreeNode], parents: tuple[int, ...], root: int
) -> tuple:
    """Everything the relaxed structural search reads, and nothing else.

    Specs appear in declaration order, which also fixes ``_ordered_specs``
    order; the tree appears as its pre-order shape, the position of the
    node searched from, and the ``ROOT``-label flag of each node.
    Operation patterns and labels are left out.
    """
    specs = tuple(
        (
            spec.name,
            spec.is_root,
            tuple(
                (clause.relation, clause.named, clause.min_related())
                for clause in spec.structure
            ),
        )
        for spec in query.specs
    )
    return specs, parents, root, tuple(_is_root_label(node) for node in nodes)


def best_partial_structural_assignment(
    tree_root: TreeNode, query: LdxQuery
) -> tuple[Assignment, int, int]:
    """The structural assignment covering the most named nodes.

    Relaxes ``struct(QX)`` verification by allowing named nodes to stay
    unassigned.  Returns ``(assignment, assigned_count, named_count)``; the
    graded compliance reward and the specification-aware structure guide both
    build on it.  Results are memoised per (structural spec, tree shape) and
    rebuilt against *tree_root*'s own nodes (see the module docstring).
    """
    # Keyed on the whole tree, so a subtree root whose relations reach
    # above it is still exact.
    nodes, parents = preorder_shape(tree_root.root())
    key = _structural_key(query, nodes, parents, nodes.index(tree_root))
    cached = _STRUCTURAL_MEMO.get(key)
    if cached is None:
        assignment, assigned, named = _best_partial_search(tree_root, query)
        position = {id(node): index for index, node in enumerate(nodes)}
        cached = (
            tuple((name, position[id(node)]) for name, node in assignment.nodes.items()),
            assigned,
            named,
        )
        if len(_STRUCTURAL_MEMO) >= _STRUCTURAL_MEMO_MAX:
            _STRUCTURAL_MEMO.clear()
        _STRUCTURAL_MEMO[key] = cached
    placed, assigned, named = cached
    return Assignment(nodes={name: nodes[index] for name, index in placed}), assigned, named


def _best_partial_search(tree_root: TreeNode, query: LdxQuery) -> tuple[Assignment, int, int]:
    """The assign-or-skip search behind :func:`best_partial_structural_assignment`."""
    struct_query = query.structural_subset()
    specs = _ordered_specs(struct_query)
    named = [spec for spec in specs if not spec.is_root]
    initial = Assignment(nodes={struct_query.root_name(): tree_root})
    if not named:
        return initial, 0, 0

    best_assignment = initial
    best_count = 0

    def explore(pending: list[NodeSpec], assignment: Assignment, assigned: int) -> None:
        nonlocal best_assignment, best_count
        if assigned > best_count:
            best_count = assigned
            best_assignment = assignment.copy()
        if not pending or assigned + len(pending) <= best_count:
            return
        spec, rest = pending[0], pending[1:]
        for node in _candidates(
            tree_root, struct_query, spec, assignment, True, ignore_arity=True
        ):
            branch = assignment.copy()
            branch.nodes[spec.name] = node
            explore(rest, branch, assigned + 1)
        # Also consider skipping this spec entirely.
        explore(rest, assignment, assigned)

    explore(named, initial, 0)
    return best_assignment, best_count, len(named)


def partial_structural_ratio(tree_root: TreeNode, query: LdxQuery) -> float:
    """Fraction of named nodes assignable while respecting structural clauses.

    Used by the graded compliance reward to provide a smooth signal toward
    structural compliance: a session whose tree already realises most of the
    required structure scores close to 1 even if no complete structural
    assignment exists yet.
    """
    _, assigned, named = best_partial_structural_assignment(tree_root, query)
    if named == 0:
        return 1.0
    return assigned / named


def count_assignments(tree_root: TreeNode, query: LdxQuery) -> int:
    """Number of full (structural + operational) assignments; useful for testing."""
    collected: list[Assignment] = []
    initial = Assignment(nodes={query.root_name(): tree_root})
    _search(
        tree_root, query, _ordered_specs(query), initial, structural_only=False, collect=collected
    )
    return len(collected)
