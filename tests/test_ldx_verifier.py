"""Tests for the LDX verification engine and the partial/look-ahead variants."""

from __future__ import annotations

import itertools
import json
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import ExploreRequest, LinxEngine
from repro.explore import (
    BackOperation,
    FilterOperation,
    GroupAggOperation,
    session_from_operations,
)
from repro.ldx import (
    can_still_comply,
    catalan_number,
    count_completions,
    enumerate_completions,
    find_assignment,
    operational_match_ratio,
    parse_ldx,
    partial_structural_ratio,
    structural_assignments,
    verify,
    verify_structure,
)
from repro.ldx import verifier
from repro.ldx.ast import LdxQuery, NodeSpec, StructureClause
from repro.ldx.verifier import _best_partial_search, best_partial_structural_assignment
from repro.tregex import TreeNode, preorder_shape


class TestFullVerification:
    def test_compliant_session_verifies(self, compliant_session, comparison_query):
        assert verify(compliant_session.to_tree(), comparison_query)

    def test_noncompliant_structure_fails(self, noncompliant_session, comparison_query):
        assert not verify(noncompliant_session.to_tree(), comparison_query)

    def test_continuity_violation_fails(self, small_table, comparison_query):
        # Both branches must filter on the same country value (variable X).
        session = session_from_operations(
            small_table,
            [
                FilterOperation("country", "eq", "India"),
                GroupAggOperation("type", "count", "type"),
                BackOperation(2),
                FilterOperation("country", "neq", "US"),  # different term: X mismatch
                GroupAggOperation("type", "count", "type"),
            ],
        )
        assert verify_structure(session.to_tree(), comparison_query)
        assert not verify(session.to_tree(), comparison_query)

    def test_group_continuity_violation_fails(self, small_table, comparison_query):
        # Both group-bys must use the same column (variable Y).
        session = session_from_operations(
            small_table,
            [
                FilterOperation("country", "eq", "India"),
                GroupAggOperation("type", "count", "type"),
                BackOperation(2),
                FilterOperation("country", "neq", "India"),
                GroupAggOperation("rating", "count", "rating"),
            ],
        )
        assert not verify(session.to_tree(), comparison_query)

    def test_extra_operations_still_comply(self, small_table, comparison_query):
        session = session_from_operations(
            small_table,
            [
                FilterOperation("country", "eq", "India"),
                GroupAggOperation("type", "count", "type"),
                BackOperation(2),
                FilterOperation("country", "neq", "India"),
                GroupAggOperation("type", "count", "type"),
                BackOperation(1),
                GroupAggOperation("rating", "count", "rating"),  # extra unnamed node
            ],
        )
        assert verify(session.to_tree(), comparison_query)

    def test_find_assignment_binds_continuity(self, compliant_session, comparison_query):
        assignment = find_assignment(compliant_session.to_tree(), comparison_query)
        assert assignment is not None
        assert assignment.continuity["X"] == "India"
        assert assignment.continuity["Y"] == "type"
        assert set(assignment.nodes) == {"ROOT", "B1", "C1", "B2", "C2"}

    def test_wrong_operation_kind_fails(self, small_table):
        query = parse_ldx("ROOT CHILDREN <A>\nA LIKE [G,country,count,.*]")
        session = session_from_operations(
            small_table, [FilterOperation("country", "eq", "India")]
        )
        assert not verify(session.to_tree(), query)

    def test_descendants_allows_deep_match(self, small_table):
        query = parse_ldx("ROOT DESCENDANTS <A>\nA LIKE [G,type,count,.*]")
        session = session_from_operations(
            small_table,
            [FilterOperation("country", "eq", "US"), GroupAggOperation("type", "count", "type")],
        )
        assert verify(session.to_tree(), query)

    def test_children_requires_direct_child(self, small_table):
        query = parse_ldx("ROOT CHILDREN <A>\nA LIKE [G,type,count,.*]")
        session = session_from_operations(
            small_table,
            [FilterOperation("country", "eq", "US"), GroupAggOperation("type", "count", "type")],
        )
        assert not verify(session.to_tree(), query)


class TestStructuralVerification:
    def test_structural_assignments_found(self, compliant_session, comparison_query):
        assignments = structural_assignments(compliant_session.to_tree(), comparison_query)
        assert len(assignments) >= 1

    def test_operational_ratio_full(self, compliant_session, comparison_query):
        assert operational_match_ratio(compliant_session.to_tree(), comparison_query) == 1.0

    def test_operational_ratio_partial(self, small_table, comparison_query):
        # Right structure but the filters target the wrong attribute.
        session = session_from_operations(
            small_table,
            [
                FilterOperation("type", "eq", "Movie"),
                GroupAggOperation("rating", "count", "rating"),
                BackOperation(2),
                FilterOperation("type", "neq", "Movie"),
                GroupAggOperation("rating", "count", "rating"),
            ],
        )
        ratio = operational_match_ratio(session.to_tree(), comparison_query)
        assert 0.0 < ratio < 1.0

    def test_partial_structural_ratio_monotone(self, small_table, comparison_query):
        empty = session_from_operations(small_table, [])
        one_branch = session_from_operations(
            small_table,
            [FilterOperation("country", "eq", "India"), GroupAggOperation("type", "count", "type")],
        )
        full = session_from_operations(
            small_table,
            [
                FilterOperation("country", "eq", "India"),
                GroupAggOperation("type", "count", "type"),
                BackOperation(2),
                FilterOperation("country", "neq", "India"),
                GroupAggOperation("type", "count", "type"),
            ],
        )
        r_empty = partial_structural_ratio(empty.to_tree(), comparison_query)
        r_half = partial_structural_ratio(one_branch.to_tree(), comparison_query)
        r_full = partial_structural_ratio(full.to_tree(), comparison_query)
        assert r_empty <= r_half <= r_full
        assert r_full == 1.0


class TestPartialLookahead:
    def test_catalan_numbers(self):
        assert [catalan_number(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_catalan_negative_raises(self):
        with pytest.raises(ValueError):
            catalan_number(-1)

    def test_completion_counts_follow_catalan_growth(self, small_table):
        session = session_from_operations(
            small_table, [FilterOperation("country", "eq", "India")]
        )
        tree = session.to_tree()
        counts = [count_completions(tree, k) for k in range(4)]
        assert counts == [1, 2, 5, 14]
        assert all(
            count <= catalan_number(k + 2) for k, count in enumerate(counts)
        )

    def test_completions_preserve_original(self, small_table):
        session = session_from_operations(
            small_table, [FilterOperation("country", "eq", "India")]
        )
        tree = session.to_tree()
        size_before = tree.size()
        list(enumerate_completions(tree, 2))
        assert tree.size() == size_before

    def test_can_still_comply_true_with_enough_steps(self, small_table, comparison_query):
        session = session_from_operations(
            small_table, [FilterOperation("country", "eq", "India")]
        )
        assert can_still_comply(session.to_tree(), comparison_query, remaining_steps=3)

    def test_cannot_comply_with_too_few_steps(self, small_table, comparison_query):
        session = session_from_operations(
            small_table, [FilterOperation("country", "eq", "India")]
        )
        # Needs at least three more nodes (C1, B2, C2); one is not enough.
        assert not can_still_comply(session.to_tree(), comparison_query, remaining_steps=1)

    def test_already_compliant_session_trivially_complies(
        self, compliant_session, comparison_query
    ):
        assert can_still_comply(compliant_session.to_tree(), comparison_query, 0)


# -- the shape-keyed memo of the relaxed structural search ----------------------------------


def _chain_ldx(length: int) -> str:
    lines = ["ROOT CHILDREN <A1>"]
    for i in range(1, length + 1):
        child = f" and CHILDREN <A{i + 1}>" if i < length else ""
        lines.append(f"A{i} LIKE [F,.*]{child}")
    return "\n".join(lines)


def _fan_ldx(branches: int, depth: int) -> str:
    lines = ["ROOT CHILDREN <" + ",".join(f"A{b}" for b in range(1, branches + 1)) + ">"]
    for branch in range(1, branches + 1):
        names = [f"{letter}{branch}" for letter in "ABCDE"[:depth]]
        for level, name in enumerate(names):
            kind = "F" if level % 2 == 0 else "G"
            child = f" and CHILDREN <{names[level + 1]}>" if level + 1 < depth else ""
            lines.append(f"{name} LIKE [{kind},.*]{child}")
    return "\n".join(lines)


MEMO_QUERIES = [
    parse_ldx(_chain_ldx(4)),
    # Same named nodes as the chain; only the root's relation differs.
    parse_ldx(_chain_ldx(4).replace("ROOT CHILDREN", "ROOT DESCENDANTS")),
    parse_ldx(_fan_ldx(2, 2)),
    parse_ldx(_fan_ldx(3, 2)),
    parse_ldx(
        "ROOT DESCENDANTS <A,B>\nA LIKE [F,.*] and CHILDREN <C,+>\n"
        "B LIKE [G,.*] and DESCENDANTS <D>\nC LIKE [F,.*]\nD LIKE [G,.*]"
    ),
    # Built directly: an ANCESTOR clause reaches above a subtree's root.
    LdxQuery(
        specs=[
            NodeSpec("ROOT", structure=[StructureClause("descendants", ("A",))]),
            NodeSpec("A", structure=[StructureClause("ancestor", ("B",))]),
            NodeSpec("B"),
        ]
    ),
]

#: Node labels for random trees; a non-root ``ROOT`` label and a blank
#: (``None``) label exercise the per-node root-label flag of the memo key.
MEMO_LABELS = [
    ("F", "country", "eq", "India"),
    ("G", "type", "count", "type"),
    ("F", "rating", "neq", "R"),
    ("ROOT",),
    None,
]


def _tree(parents: list[int], labels: list) -> TreeNode:
    """Node i+1 hangs under node ``parents[i] % (i + 1)``; node 0 is the root."""
    nodes = [TreeNode(("ROOT",))]
    for index, (parent, label) in enumerate(zip(parents, labels)):
        nodes.append(nodes[parent % (index + 1)].new_child(label))
    return nodes[0]


def _placed(tree: TreeNode, result) -> tuple:
    """A result as ((name, pre-order index), ...), assigned, named."""
    assignment, assigned, named = result
    nodes = preorder_shape(tree)[0]
    index = {id(node): position for position, node in enumerate(nodes)}
    return tuple((name, index[id(node)]) for name, node in assignment.nodes.items()), assigned, named


@pytest.fixture
def clean_memo(monkeypatch):
    """An empty process-wide memo for the test, the original one restored after."""
    memo: dict = {}
    monkeypatch.setattr(verifier, "_STRUCTURAL_MEMO", memo)
    return memo


@pytest.fixture
def counted_search(monkeypatch):
    """Counts runs of the uncached search behind the memo."""
    calls = []

    def counting(tree_root, query):
        calls.append(tree_root)
        return _best_partial_search(tree_root, query)

    monkeypatch.setattr(verifier, "_best_partial_search", counting)
    return calls


class TestStructuralMemo:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        shape=st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, len(MEMO_LABELS) - 1)), max_size=9
        ),
    )
    def test_memoised_equals_direct_search(self, shape):
        parents = [parent for parent, _ in shape]
        labels = [MEMO_LABELS[label] for _, label in shape]
        # Search from the root and from the subtrees at the next pre-order positions.
        for query, start in itertools.product(MEMO_QUERIES, range(min(3, len(shape)) + 1)):
            # A fresh tree per call: the second call on the same shape is a hit.
            direct_tree, first_tree, second_tree = (_tree(parents, labels) for _ in range(3))
            direct_start = preorder_shape(direct_tree)[0][start]
            expected = _placed(direct_tree, _best_partial_search(direct_start, query))
            for tree in (first_tree, second_tree):
                tree_start = preorder_shape(tree)[0][start]
                got = _placed(tree, best_partial_structural_assignment(tree_start, query))
                assert got == expected

    def test_one_shape_reused_across_labels(self, clean_memo, counted_search):
        query = MEMO_QUERIES[2]
        filters = _tree([0, 1, 0], [MEMO_LABELS[0]] * 3)
        groups = _tree([0, 1, 0], [MEMO_LABELS[1], MEMO_LABELS[2], MEMO_LABELS[1]])
        first = best_partial_structural_assignment(filters, query)
        second = best_partial_structural_assignment(groups, query)
        assert len(counted_search) == 1
        assert len(clean_memo) == 1
        assert _placed(groups, second) == _placed(filters, first)
        assert _placed(groups, second) == _placed(groups, _best_partial_search(groups, query))

    def test_root_label_flag_is_part_of_the_key(self, clean_memo, counted_search):
        query = MEMO_QUERIES[0]
        plain = _tree([0, 1], [MEMO_LABELS[0], MEMO_LABELS[0]])
        rooted = _tree([0, 1], [MEMO_LABELS[0], MEMO_LABELS[3]])
        _, plain_assigned, _ = best_partial_structural_assignment(plain, query)
        _, rooted_assigned, _ = best_partial_structural_assignment(rooted, query)
        assert len(counted_search) == 2
        assert (plain_assigned, rooted_assigned) == (2, 1)

    def test_root_clause_is_part_of_the_key(self, clean_memo, counted_search):
        # Under a ROOT-labelled child, CHILDREN cannot place A1 but
        # DESCENDANTS can; the named nodes differ, not just the count.
        children, descendants = MEMO_QUERIES[0], MEMO_QUERIES[1]
        trees = [_tree([0, 1], [MEMO_LABELS[3], MEMO_LABELS[0]]) for _ in range(2)]
        by_children = best_partial_structural_assignment(trees[0], children)
        by_descendants = best_partial_structural_assignment(trees[1], descendants)
        assert len(counted_search) == 2
        assert _placed(trees[0], by_children) == ((("ROOT", 0), ("A2", 2)), 1, 4)
        assert _placed(trees[1], by_descendants) == ((("ROOT", 0), ("A1", 2)), 1, 4)

    def test_hit_returns_nodes_of_the_current_tree(self, clean_memo, counted_search):
        query = MEMO_QUERIES[0]
        earlier = _tree([0, 1, 2], [MEMO_LABELS[0]] * 3)
        current = _tree([0, 1, 2], [MEMO_LABELS[1]] * 3)
        best_partial_structural_assignment(earlier, query)
        assignment, assigned, _ = best_partial_structural_assignment(current, query)
        assert len(counted_search) == 1 and assigned == 3
        current_nodes = preorder_shape(current)[0]
        earlier_nodes = preorder_shape(earlier)[0]
        for node in assignment.nodes.values():
            assert any(node is member for member in current_nodes)
            assert not any(node is member for member in earlier_nodes)

    def test_size_bound_clears_the_memo(self, clean_memo, monkeypatch):
        monkeypatch.setattr(verifier, "_STRUCTURAL_MEMO_MAX", 2)
        query = MEMO_QUERIES[0]
        for size in (1, 2):
            best_partial_structural_assignment(_tree([0] * size, [None] * size), query)
        assert len(clean_memo) == 2
        best_partial_structural_assignment(_tree([0] * 3, [None] * 3), query)
        assert len(clean_memo) == 1

    def test_concurrent_callers_agree(self, clean_memo):
        shapes = [[0, 1, 2, 0, 4], [0, 0, 1, 1, 2], [0, 1, 0, 3], [0, 1, 2, 3, 4, 5]]
        cases = [(shape, query) for shape in shapes for query in MEMO_QUERIES]
        expected = [
            _placed(tree, _best_partial_search(tree, query))
            for tree, query in ((_tree(shape, [None] * len(shape)), query) for shape, query in cases)
        ]
        barrier = threading.Barrier(2)
        results: list[list] = [[], []]

        def worker(slot: int) -> None:
            barrier.wait()
            for _ in range(5):
                for shape, query in cases:
                    tree = _tree(shape, [MEMO_LABELS[slot]] * len(shape))
                    results[slot].append(
                        _placed(tree, best_partial_structural_assignment(tree, query))
                    )

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert results[0] == results[1] == expected * 5


class _ColdMemo(dict):
    """A memo that forgets everything before each lookup."""

    def get(self, key, default=None):
        self.clear()
        return default


def _deep_payloads() -> list[str]:
    """Payload bytes (timings and cache counters dropped) of a few deep-spec requests."""
    engine = LinxEngine()
    payloads = []
    for index, (dataset, ldx_text) in enumerate(
        [("netflix", _chain_ldx(8)), ("flights", _fan_ldx(3, 3)), ("netflix", _fan_ldx(4, 2))]
    ):
        request = ExploreRequest(
            goal=f"Explore the {dataset} data along deep analysis steps",
            dataset=dataset,
            ldx_text=ldx_text,
            episodes=2,
            num_rows=300,
            seed=100 + index,
        )
        payload = engine.explore(request).to_dict()
        payload.pop("cache_stats")
        for stage in payload["stages"]:
            stage.pop("seconds")
        payloads.append(json.dumps(payload, sort_keys=True))
    return payloads


def test_engine_payloads_identical_cold_and_warm(monkeypatch):
    monkeypatch.setattr(verifier, "_STRUCTURAL_MEMO", _ColdMemo())
    cold = _deep_payloads()
    warm_memo: dict = {}
    monkeypatch.setattr(verifier, "_STRUCTURAL_MEMO", warm_memo)
    first = _deep_payloads()
    entries = len(warm_memo)
    second = _deep_payloads()
    assert entries > 0 and len(warm_memo) == entries  # the second pass only hits
    assert cold == first == second
