import itertools
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chip_diffusion import (
    EdgeListParseError,
    Graph,
    VertexSet,
    complete,
    complete_bipartite,
    complete_multipartite,
    components_within,
    cycle,
    degree_into,
    is_connected,
    is_dominating,
    is_efficient_dominating,
    is_independent,
    is_minimal_dominating,
    parse_edge_list,
    parse_graph_spec,
    path,
    perturb,
)
from chip_diffusion.graphs import _read_graph_spec, format_edge_list

import naive
from conftest import RIGID_SIX_EDGES
from strategies import graphs, graphs_with_subset


def vs(g, *members):
    return VertexSet.from_indices(g.n, members)


# (edge-list text, line number, message) of each parse error.
EDGE_LIST_ERRORS = [
    ("", 1, "empty input, expected header 'n m'"),
    ("2\n", 1, "expected header 'n m', got '2'"),
    ("2 1\n0 x\n", 2, "expected integer endpoints, got '0 x'"),
    ("2 1\n0 0\n", 2, "self-loop at vertex 0"),
    ("2 1\n0 5\n", 2, "edge (0, 5) has an endpoint outside [0, 2)"),
    ("2 2\n0 1\n", 2, "header promises 2 edges but 1 edge lines found"),
    ("2 1\n0 1\n1 0\n", 3, "header promises 1 edges but 2 edge lines found"),
    ("2 2\n0 1\n1 0\n", 3, "edge (1, 0) is listed twice"),
    ("a 1\n", 1, "expected integer header 'n m', got 'a 1'"),
    ("2 -1\n", 1, "negative counts in header '2 -1'"),
    ("2 1\n0\n", 2, "expected edge 'u v', got '0'"),
    ("2 1\n0 1 1\n", 2, "expected edge 'u v', got '0 1 1'"),
]


class TestConstruction:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_rigid_six_shape(self):
        g = Graph(6, RIGID_SIX_EDGES)
        assert g.m == 8
        assert [g.degree(v) for v in range(6)] == [2, 4, 2, 3, 4, 1]

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (0, 1)])
        assert g.edges == ((0, 1),)

    def test_reversed_duplicate_collapses(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert g.m == 1

    @pytest.mark.parametrize("pairs", [[(0, 3)], [(-1, 0)], [(3, 1)]])
    def test_out_of_range_rejected(self, pairs):
        with pytest.raises(ValueError, match="outside"):
            Graph(3, pairs)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError) as err:
            Graph(-1)
        assert str(err.value) == "vertex count must be >= 0, got -1"

    def test_adjacency_symmetric(self):
        g = Graph(6, RIGID_SIX_EDGES)
        for u in range(g.n):
            for v in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    @pytest.mark.parametrize("bad", [-1, 3])
    @pytest.mark.parametrize(
        "query",
        [lambda g, v: g.degree(v), lambda g, v: g.has_edge(v, 1), lambda g, v: g.has_edge(0, v)],
        ids=["degree", "has_edge-u", "has_edge-v"],
    )
    def test_vertex_outside_range_rejected(self, query, bad):
        with pytest.raises(ValueError, match=rf"vertex {bad} outside \[0, 3\)"):
            query(path(3), bad)


class TestGenerators:
    def test_path(self):
        g = path(5)
        assert g.n == 5
        assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_complete_bipartite(self):
        assert complete_bipartite(3, 3).m == 9

    def test_complete_multipartite_balanced(self):
        # All cross-part pairs: C(6,2) minus the 3 same-part pairs.
        assert comb(6, 2) - 3 == 12
        assert complete_multipartite([2, 2, 2]).m == 12

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_cycle(self, n):
        assert cycle(n).m == n

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_path_needs_vertex(self):
        with pytest.raises(ValueError):
            path(0)

    @pytest.mark.parametrize(
        "make,args,message",
        [
            (complete, (0,), "complete graph needs n >= 1, got 0"),
            (complete_bipartite, (0, 3), "part sizes must be >= 1, got (0, 3)"),
            (complete_multipartite, ([],), "need at least one part"),
            (complete_multipartite, ([2, 0],), "part sizes must be >= 1, got [2, 0]"),
        ],
        ids=["complete-0", "kbip-0-3", "kpartite-none", "kpartite-2-0"],
    )
    def test_empty_part_refused(self, make, args, message):
        with pytest.raises(ValueError) as err:
            make(*args)
        assert str(err.value) == message

    @given(st.integers(min_value=1, max_value=30))
    def test_edge_count_closed_forms(self, n):
        assert path(n).m == n - 1
        assert complete(n).m == comb(n, 2)
        if n >= 3:
            assert cycle(n).m == n

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
    def test_bipartite_edge_count(self, a, b):
        assert complete_bipartite(a, b).m == a * b

    def test_parse_graph_spec(self):
        assert parse_graph_spec("path:5") == path(5)
        assert parse_graph_spec("cycle:4") == cycle(4)
        assert parse_graph_spec("complete:3") == complete(3)
        assert parse_graph_spec("kbip:2,3") == complete_bipartite(2, 3)
        assert parse_graph_spec("kpartite:2,2,2") == complete_multipartite([2, 2, 2])

    @pytest.mark.parametrize(
        "spec", ["path:5", "cycle:4", "complete:3", "kbip:2,3", "kpartite:2,1,3", "kpartite:4"]
    )
    def test_spec_order_read_without_building(self, spec):
        n, build = _read_graph_spec(spec)
        g = build()
        assert n == g.n
        assert g == parse_graph_spec(spec)

    @pytest.mark.parametrize("spec", ["path", "path:", "path:x", "kbip:1", "blob:3", "path:1,2"])
    def test_bad_graph_spec(self, spec):
        with pytest.raises(ValueError):
            parse_graph_spec(spec)


class TestEdgeListFormat:
    def test_round_trip(self):
        g = Graph(6, RIGID_SIX_EDGES)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_parse(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g == path(3)

    @pytest.mark.parametrize(
        "text,line,message",
        EDGE_LIST_ERRORS,
        ids=[f"{text}-{line}" for text, line, _ in EDGE_LIST_ERRORS],
    )
    def test_errors_carry_line_numbers(self, text, line, message):
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list(text)
        assert err.value.line_no == line
        assert str(err.value) == f"line {line}: {message}"


class TestVertexSet:
    def test_members_round_trip(self):
        s = VertexSet.from_indices(6, [4, 0, 3])
        assert s.members == (0, 3, 4)
        assert 3 in s and 1 not in s
        assert len(s) == 3

    def test_complement_involution(self):
        s = VertexSet.from_indices(5, [1, 2])
        assert s.complement().complement() == s
        assert s.complement().members == (0, 3, 4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            VertexSet.from_indices(3, [3])
        with pytest.raises(ValueError):
            VertexSet(3, 1 << 3)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError) as err:
            VertexSet(-1, 0)
        assert str(err.value) == "vertex count must be >= 0, got -1"

    def test_mismatched_graph_rejected(self):
        with pytest.raises(ValueError):
            is_dominating(path(3), VertexSet.from_indices(4, [0]))


class TestDomination:
    def test_rigid_six_pair_dominates(self):
        g = Graph(6, RIGID_SIX_EDGES)
        assert is_dominating(g, vs(g, 1, 4))

    def test_empty_set_does_not_dominate(self):
        assert not is_dominating(path(3), vs(path(3)))

    def test_path6_pair(self):
        g = path(6)
        assert is_dominating(g, vs(g, 1, 4))

    def test_minimal_path6(self):
        g = path(6)
        # Removing either vertex uncovers a leaf.
        assert is_minimal_dominating(g, vs(g, 1, 4))

    def test_full_p3_not_minimal(self):
        g = path(3)
        assert not is_minimal_dominating(g, vs(g, 0, 1, 2))

    def test_k33_side_minimal(self):
        g = complete_bipartite(3, 3)
        assert is_minimal_dominating(g, vs(g, 0, 1, 2))

    def test_efficient_path6(self):
        g = path(6)
        assert is_efficient_dominating(g, vs(g, 1, 4))

    def test_efficient_path4_leaves(self):
        g = path(4)
        assert is_efficient_dominating(g, vs(g, 0, 3))

    def test_not_independent_not_efficient(self):
        g = complete(3)
        assert not is_efficient_dominating(g, vs(g, 0, 1))

    def test_independent_endpoints(self):
        g = path(3)
        assert is_independent(g, vs(g, 0, 2))

    @given(graphs_with_subset())
    def test_efficient_implies_dominating(self, gs):
        g, s = gs
        if is_efficient_dominating(g, s):
            assert is_dominating(g, s)


class TestNeighbourhoodCounts:
    def test_degree_into_across_boundary(self):
        g = path(6)
        others = vs(g, 0, 1, 3, 4).complement()
        assert degree_into(g, 1, others) == 1  # only neighbour 2 is outside

    def test_degree_into_rejects_bad_vertex(self):
        g = path(3)
        with pytest.raises(ValueError):
            degree_into(g, 3, vs(g, 0))

    @given(graphs_with_subset())
    def test_degree_split(self, gs):
        g, s = gs
        for v in range(g.n):
            assert degree_into(g, v, s) + degree_into(g, v, s.complement()) == g.degree(v)


class TestComponents:
    def test_two_runs_on_path(self):
        g = path(6)
        comps = components_within(g, vs(g, 0, 1, 3, 4))
        assert [c.members for c in comps] == [(0, 1), (3, 4)]

    def test_empty(self):
        assert components_within(path(4), vs(path(4))) == []

    @given(graphs_with_subset())
    def test_partitions_subset(self, gs):
        g, s = gs
        comps = components_within(g, s)
        union = 0
        for c in comps:
            assert c.mask & union == 0
            union |= c.mask
        assert union == s.mask


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(path(7))

    def test_disjoint_edges_not_connected(self):
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    @given(graphs(max_n=6))
    def test_single_component_iff_connected(self, g):
        full = VertexSet(g.n, g.full_mask)
        assert is_connected(g) == (len(components_within(g, full)) <= 1)


@pytest.mark.parametrize("n", range(6))
def test_every_small_graph_matches_naive_oracle(n):
    # components_within and is_connected share one search, so each is checked
    # against the dict-based oracle rather than against the other.
    pairs = list(itertools.combinations(range(n), 2))
    for edge_mask in range(1 << len(pairs)):
        chosen = [p for i, p in enumerate(pairs) if edge_mask >> i & 1]
        g = Graph(n, chosen)
        adj = naive.adjacency(n, chosen)
        assert [g.degree(v) for v in range(n)] == [len(adj[v]) for v in range(n)]
        assert is_connected(g) == (len(naive.components(adj, range(n))) <= 1), edge_mask
        for h in range(1 << n):
            subset = {v for v in range(n) if h >> v & 1}
            s = VertexSet(n, h)
            want = [sum(1 << v for v in piece) for piece in naive.components(adj, subset)]
            assert [c.mask for c in components_within(g, s)] == want, (edge_mask, h)
            config = naive.perturb(adj, subset)
            assert perturb(g, s) == tuple(config[v] for v in range(n)), (edge_mask, h)
