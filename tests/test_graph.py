"""Graph layer tests.

Core claims checked here:
  * construction rejects bad edges and cycles, and graphs are immutable
  * the reachability d-separation agrees with literal trail enumeration
  * skeleton, colliders, triangles and patterns match hand-counted cases
  * pattern equality is exactly d-separation-set equality (small p)
  * ordering enumeration and the fixed order are consistent and complete
  * the labeled-DAG enumerator hits the known counts and the brute set
  * text parsing round-trips and reports errors with line numbers
  * a graph built from edges in any order or from its edge mask is one graph
"""

from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdag import assumptions, graph
from spdag.baselines import orient_v_structures, sgs_skeleton
from spdag.exceptions import CapacityError, DagTextError
from spdag.graph import (
    GRAPH_TEXT_CAP,
    CycleError,
    Dag,
    d_separated,
    enumerate_all_dags,
    format_dag_text,
    markov_equivalent,
    parse_dag_text,
    pattern_of,
    skeleton,
    topological_orders,
    triangles,
    unshielded_triples,
    v_structures,
)
from spdag.oracle import dsep_backend

from reference import (
    all_dags_brute,
    d_separated_by_trails,
    d_separation_set_brute,
    linear_extensions_brute,
)

FOUR_CYCLE = Dag(4, [(0, 1), (0, 3), (1, 2), (2, 3)])
CHAIN4 = Dag(4, [(0, 1), (1, 2), (2, 3)])


def random_dag(rng, p, q=0.5):
    edges = [(j, k) for j, k in combinations(range(p), 2) if rng.random() < q]
    return Dag(p, edges)


def all_triples(p):
    for j, k in combinations(range(p), 2):
        rest = [v for v in range(p) if v not in (j, k)]
        for size in range(len(rest) + 1):
            for s in combinations(rest, size):
                yield j, k, s


class TestConstruction:
    def test_basic_accessors(self):
        g = FOUR_CYCLE
        assert g.p == 4
        assert g.num_edges == 4
        assert g.parents(3) == {0, 2}
        assert g.children(0) == {1, 3}
        assert g.parents(0) == frozenset()
        assert g.adjacent(0, 1) and g.adjacent(1, 0)
        assert not g.adjacent(0, 2)
        assert g.ancestors(3) == {0, 1, 2}
        assert g.descendants(0) == {1, 2, 3}

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            Dag(3, [(0, 3)])
        with pytest.raises(ValueError):
            Dag(3, [(-1, 0)])
        with pytest.raises(ValueError):
            Dag(3, [(1, 1)])

    def test_cycles_rejected(self):
        with pytest.raises(CycleError):
            Dag(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(CycleError):
            Dag(2, [(0, 1), (1, 0)])
        with pytest.raises(CycleError, match="self loop at vertex 1"):
            Dag(3, [(1, 1)])
        with pytest.raises(CycleError, match=r"^edge \(2, 0\) closes a directed cycle$"):
            Dag(3, [(0, 1), (1, 2), (2, 0)])

    @given(
        p=st.integers(1, 6),
        pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
    )
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    def test_cycle_check_agrees_with_networkx_in_any_edge_order(self, p, pairs):
        edges = [(j % p, k % p) for j, k in pairs if j % p != k % p]
        nxg = nx.DiGraph(edges)
        if nx.is_directed_acyclic_graph(nxg):
            assert Dag(p, edges).edges == set(edges)
        else:
            with pytest.raises(CycleError):
                Dag(p, edges)

    def test_equality_and_hash(self):
        a = Dag(3, [(0, 1)])
        b = Dag(3, [(0, 1)])
        c = Dag(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != Dag(4, [(0, 1)])

    def test_with_and_without_edge(self):
        g = CHAIN4.with_edge(0, 3)
        assert g.has_edge(0, 3) and not CHAIN4.has_edge(0, 3)
        assert g.without_edge(0, 3) == CHAIN4
        with pytest.raises(ValueError):
            CHAIN4.without_edge(3, 0)


@st.composite
def dag_edge_lists(draw, max_p=7):
    """(p, edges, the same edges reordered) for a random DAG, p <= max_p."""
    p = draw(st.integers(0, max_p))
    order = draw(st.permutations(range(p)))
    pairs = [(order[a], order[b]) for a, b in combinations(range(p), 2)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, kept in zip(pairs, keep) if kept]
    return p, edges, draw(st.permutations(edges))


class TestMaskStorage:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(case=dag_edge_lists())
    def test_edges_and_mask_build_one_graph(self, case):
        p, edges, shuffled = case
        g = Dag(p, edges)
        mask = sum(1 << (j * p + k) for j, k in edges)
        nxg = nx.DiGraph(edges)
        nxg.add_nodes_from(range(p))
        for h in (g, Dag(p, shuffled), Dag._from_mask(p, mask)):
            assert h == g and hash(h) == hash(g)
            assert h.edges == frozenset(edges) and h.num_edges == len(edges)
            for v in range(p):
                assert h.parents(v) == {j for j, k in edges if k == v}
                assert h.children(v) == {k for j, k in edges if j == v}
                assert h.ancestors(v) == nx.ancestors(nxg, v)
                assert h.descendants(v) == nx.descendants(nxg, v)
            for j in range(-1, p + 1):
                for k in range(-1, p + 1):
                    assert h.has_edge(j, k) is ((j, k) in edges)
                    assert h.adjacent(j, k) is ((j, k) in edges or (k, j) in edges)
        for e in edges:
            assert g.without_edge(*e) == Dag(p, [f for f in edges if f != e])
        assert next(topological_orders(g)) == min(topological_orders(g))
        assert parse_dag_text(format_dag_text(g)).dag == g
        sgs = orient_v_structures(*sgs_skeleton(dsep_backend(g)))
        assert sgs.v_structures == v_structures(g)


class TestDSeparation:
    def test_four_cycle_known_queries(self):
        assert d_separated(FOUR_CYCLE, 0, 2, {1})
        assert not d_separated(FOUR_CYCLE, 1, 3, {0})
        assert d_separated(FOUR_CYCLE, 1, 3, {0, 2})
        assert not d_separated(FOUR_CYCLE, 0, 2, ())

    def test_four_cycle_full_separation_set(self):
        got = {
            (j, k, frozenset(s))
            for j, k, s in all_triples(4)
            if d_separated(FOUR_CYCLE, j, k, s)
        }
        assert got == {(0, 2, frozenset({1})), (1, 3, frozenset({0, 2}))}

    def test_chain_full_separation_set(self):
        got = {
            (j, k, frozenset(s))
            for j, k, s in all_triples(4)
            if d_separated(CHAIN4, j, k, s)
        }
        expected = {
            (0, 2, frozenset({1})),
            (0, 2, frozenset({1, 3})),
            (0, 3, frozenset({1})),
            (0, 3, frozenset({2})),
            (0, 3, frozenset({1, 2})),
            (1, 3, frozenset({2})),
            (1, 3, frozenset({0, 2})),
        }
        assert got == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            d_separated(CHAIN4, 0, 0, ())
        with pytest.raises(ValueError):
            d_separated(CHAIN4, 0, 1, {1})
        with pytest.raises(ValueError):
            d_separated(CHAIN4, 0, 4, ())
        with pytest.raises(ValueError):
            d_separated(CHAIN4, 0, 1, {9})

    def test_agrees_with_trail_enumeration(self):
        # The reachability implementation must match the definition
        # applied literally, over every query on many random graphs.
        rng = np.random.default_rng(20240817)
        for trial in range(200):
            p = int(rng.integers(2, 7))
            g = random_dag(rng, p, q=float(rng.uniform(0.2, 0.9)))
            for j, k, s in all_triples(p):
                assert d_separated(g, j, k, s) == d_separated_by_trails(g, j, k, s), (
                    g,
                    (j, k, s),
                )

    def test_symmetric_in_the_pair(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_dag(rng, 5)
            for j, k, s in all_triples(5):
                assert d_separated(g, j, k, s) == d_separated(g, k, j, s)

    def test_adjacent_pairs_never_separated(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = random_dag(rng, 5)
            for j, k in skeleton(g):
                rest = [v for v in range(5) if v not in (j, k)]
                for size in range(len(rest) + 1):
                    for s in combinations(rest, size):
                        assert not d_separated(g, j, k, s)


class TestPatterns:
    def test_four_cycle_structure(self):
        assert skeleton(FOUR_CYCLE) == {(0, 1), (0, 3), (1, 2), (2, 3)}
        assert v_structures(FOUR_CYCLE) == {(0, 3, 2)}
        assert unshielded_triples(FOUR_CYCLE) == {
            (0, 1, 2),
            (0, 3, 2),
            (1, 0, 3),
            (1, 2, 3),
        }
        assert triangles(FOUR_CYCLE) == frozenset()

    def test_triangle_counting(self):
        g = Dag(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert triangles(g) == {(0, 1, 2), (1, 2, 3)}
        # shielded collider at 2 is not a v-structure
        assert (0, 2, 1) not in v_structures(g)

    def test_chain_reversal_equivalent(self):
        fwd = Dag(3, [(0, 1), (1, 2)])
        rev = Dag(3, [(2, 1), (1, 0)])
        fork = Dag(3, [(1, 0), (1, 2)])
        collider = Dag(3, [(0, 1), (2, 1)])
        assert markov_equivalent(fwd, rev)
        assert markov_equivalent(fwd, fork)
        assert not markov_equivalent(fwd, collider)

    def test_mismatched_p_raises(self):
        with pytest.raises(ValueError):
            markov_equivalent(Dag(3), Dag(4))

    def test_four_cycle_class_members(self):
        # Frozen from enumeration: exactly three graphs share the
        # 4-cycle's skeleton and its single collider.
        target = pattern_of(FOUR_CYCLE)
        members = sorted(
            tuple(sorted(g.edges))
            for g in enumerate_all_dags(4)
            if pattern_of(g) == target
        )
        assert members == [
            ((0, 1), (0, 3), (1, 2), (2, 3)),
            ((0, 3), (1, 0), (1, 2), (2, 3)),
            ((0, 3), (1, 0), (2, 1), (2, 3)),
        ]

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_pattern_equality_is_separation_equality(self, p):
        # Two graphs have equal patterns exactly when they encode the
        # same d-separations. Exhaustive over all labeled DAGs.
        dags = list(enumerate_all_dags(p))
        by_pattern = {}
        by_dsep = {}
        for i, g in enumerate(dags):
            by_pattern.setdefault(pattern_of(g).sort_key(), set()).add(i)
            by_dsep.setdefault(d_separation_set_brute(g), set()).add(i)
        assert sorted(by_pattern.values(), key=sorted) == sorted(
            by_dsep.values(), key=sorted
        )


class TestOrders:
    def test_four_cycle_single_extension(self):
        # Frozen from brute force: the edge constraints pin the order.
        assert list(topological_orders(FOUR_CYCLE)) == [(0, 1, 2, 3)]

    def test_empty_graph_all_orders(self):
        orders = list(topological_orders(Dag(3)))
        assert len(orders) == 6
        assert orders == sorted(orders)

    def test_orders_are_tuples(self):
        for order in topological_orders(Dag(3, [(2, 0)])):
            assert type(order) is tuple
            assert all(type(v) is int for v in order)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            g = random_dag(rng, 5, q=0.4)
            assert list(topological_orders(g)) == linear_extensions_brute(g)

    def test_orders_respect_edges(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            g = random_dag(rng, 6, q=0.5)
            order = next(topological_orders(g))
            for j, k in g.edges:
                assert order.index(j) < order.index(k)

    def test_order_reconstructs_graph(self):
        # Orienting the skeleton by any consistent order gives the
        # graph back.
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = random_dag(rng, 5, q=0.6)
            for order in topological_orders(g):
                rebuilt = Dag(
                    g.p,
                    [
                        (a, b) if order.index(a) < order.index(b) else (b, a)
                        for a, b in skeleton(g)
                    ],
                )
                assert rebuilt == g


class TestEnumeration:
    def test_known_counts(self):
        # 1, 3, 25, 543, 29281 labeled DAGs on 1..5 vertices.
        counts = [sum(1 for _ in enumerate_all_dags(p)) for p in range(1, 6)]
        assert counts == [1, 3, 25, 543, 29281]

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_brute_force_set(self, p):
        got = {g.edges for g in enumerate_all_dags(p)}
        assert got == all_dags_brute(p)

    def test_all_distinct(self):
        seen = set()
        for g in enumerate_all_dags(4):
            assert g.edges not in seen
            seen.add(g.edges)

    def test_cap(self):
        with pytest.raises(CapacityError):
            next(enumerate_all_dags(7))

    def test_six_vertices_are_refused_before_the_first_graph(self):
        # the SMR and P-minimality checkers stop at the same cap of 5
        dags = enumerate_all_dags(6)
        with pytest.raises(CapacityError, match=r"p=6 vertices exceeds the cap \(5\)"):
            next(dags)
        assert graph.ENUMERATION_CAP is assumptions.ENUMERATION_CAP == 5


class TestTextFormat:
    def test_round_trip_zero_based(self):
        text = format_dag_text(FOUR_CYCLE)
        doc = parse_dag_text(text)
        assert doc.dag == FOUR_CYCLE
        assert doc.label_base == 0

    def test_one_based_detection(self):
        doc = parse_dag_text("p=4\n1 -> 2\n1 -> 4\n2 -> 3\n3 -> 4\n")
        assert doc.dag == FOUR_CYCLE
        assert doc.label_base == 1
        assert format_dag_text(doc.dag, doc.label_base).splitlines()[1] == "1 -> 2"

    def test_ambiguous_defaults_to_zero_based(self):
        doc = parse_dag_text("p=4\n1 -> 2\n")
        assert doc.label_base == 0
        assert doc.dag.edges == {(1, 2)}

    def test_whitespace_tolerant(self):
        doc = parse_dag_text("  p = 3 \n\n 0->1 \n 1  ->   2\n")
        assert doc.dag.edges == {(0, 1), (1, 2)}

    def test_missing_header(self):
        with pytest.raises(DagTextError):
            parse_dag_text("0 -> 1\n")
        with pytest.raises(DagTextError):
            parse_dag_text("")

    def test_header_over_the_cap_is_refused_before_the_edges(self):
        assert parse_dag_text("p=64\n").dag.p == GRAPH_TEXT_CAP == 64
        # the edge lines after it are malformed and never read
        with pytest.raises(DagTextError, match=r"^line 2: p=65 exceeds the graph file cap") as err:
            parse_dag_text("\np=65\nnot an edge\n")
        assert err.value.line_no == 2

    def test_bad_edge_line(self):
        with pytest.raises(DagTextError) as err:
            parse_dag_text("p=3\n0 -> 1\n0 => 2\n")
        assert err.value.line_no == 3

    def test_out_of_range_label(self):
        with pytest.raises(DagTextError) as err:
            parse_dag_text("p=3\n0 -> 5\n")
        assert err.value.line_no == 2

    def test_self_loop(self):
        with pytest.raises(DagTextError) as err:
            parse_dag_text("p=3\n1 -> 1\n")
        assert err.value.line_no == 2

    def test_duplicate_edge(self):
        with pytest.raises(DagTextError) as err:
            parse_dag_text("p=3\n0 -> 1\n0 -> 1\n")
        assert err.value.line_no == 3

    def test_cycle_reported_at_closing_line(self):
        with pytest.raises(DagTextError) as err:
            parse_dag_text("p=3\n0 -> 1\n1 -> 2\n2 -> 0\n")
        assert err.value.line_no == 4
        assert "cycle" in str(err.value)
