import functools
import itertools
import multiprocessing
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chip_diffusion import (
    DEFAULT_MAX_STEPS,
    Graph,
    SearchStatus,
    SearchWitness,
    VertexSet,
    ZeroStatus,
    all_graphs,
    complete,
    complete_bipartite,
    count_zero2_subsets,
    cycle,
    domination_number,
    find_zero_not_zero2,
    graph_from_edge_mask,
    is_ccd,
    is_connected,
    is_zero2_invoking,
    is_zero_invoking,
    parse_graph_spec,
    path,
    search_all_graphs,
)
from chip_diffusion import cli, enumeration, quiescence
from chip_diffusion.enumeration import (
    SearchProgress,
    all_edge_pairs,
    canonical_edge_mask,
)
from chip_diffusion.quiescence import _ccd_mask, _zero2_mask

import naive
from strategies import graphs

# Labelled connected graph counts (OEIS A001187) for n = 0..6;
# test_connected_counts re-derives them by a brute-force connectivity scan.
CONNECTED_COUNTS = {0: 1, 1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26_704}


def four_block_graph():
    """A random graph (seed 2, p = 0.12) on 17 vertices: n - 1 = 16 >
    CCD_BLOCK_BITS, so the lower half of its masks spans four blocks."""
    rng = random.Random(2)
    n = 17
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.12])
    assert n - 1 > quiescence.CCD_BLOCK_BITS
    return g


class TestCount:
    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 4), (3, 4), (5, 8)])
    def test_path_counts(self, n, expected):
        assert count_zero2_subsets(path(n), include_trivial=True) == expected

    def test_rigid_six_has_only_trivial(self, rigid_six):
        assert count_zero2_subsets(rigid_six, include_trivial=False) == 0
        assert count_zero2_subsets(rigid_six, include_trivial=True) == 2

    def test_exclude_trivial_drops_two(self):
        g = path(5)
        assert count_zero2_subsets(g, include_trivial=False) == 6

    @given(graphs(max_n=7))
    @settings(max_examples=150)
    def test_matches_per_subset_predicates(self, g):
        # The halved CCD count against both independent predicates.
        by_ccd = sum(1 for m in range(1 << g.n) if is_ccd(g, VertexSet(g.n, m)))
        by_dynamic = sum(
            1 for m in range(1 << g.n) if is_zero2_invoking(g, VertexSet(g.n, m))
        )
        assert count_zero2_subsets(g) == by_ccd == by_dynamic

    @pytest.mark.parametrize("n", range(1, 16))
    def test_path_oracle_agreement(self, n):
        # Structural count vs the two-firing definition, full agreement.
        g = path(n)
        dynamic = sum(
            1 for m in range(1 << n) if is_zero2_invoking(g, VertexSet(n, m))
        )
        assert count_zero2_subsets(g) == dynamic

    @pytest.mark.parametrize("n", range(6))
    def test_ccd_complement_rule(self, n):
        # The lemma behind halving: CCD holds for H exactly when it holds for V-H.
        full = (1 << n) - 1
        for edge_mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_edge_mask(n, edge_mask)
            for h in range(1 << n):
                assert _ccd_mask(g, h) == _ccd_mask(g, full ^ h), (edge_mask, h)

    @pytest.mark.parametrize("n", range(6))
    def test_halved_count_matches_unhalved_naive(self, n):
        full = (1 << n) - 1
        for edge_mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_edge_mask(n, edge_mask)
            adj = naive.adjacency(n, g.edges)
            passes = [naive.ccd(adj, {v for v in range(n) if m >> v & 1}) for m in range(full + 1)]
            for include in (True, False):
                want = sum(
                    ok for m, ok in enumerate(passes) if include or m not in (0, full)
                )
                assert count_zero2_subsets(g, include_trivial=include) == want, edge_mask

    def test_empty_graph(self):
        # The empty set is its own complement, so halving must not double it.
        assert count_zero2_subsets(Graph(0), include_trivial=True) == 1
        assert count_zero2_subsets(Graph(0), include_trivial=False) == 0

    @given(graphs(min_n=1, max_n=7))
    def test_count_is_even(self, g):
        # Complement closure pairs the subsets; h never equals its complement.
        assert count_zero2_subsets(g) % 2 == 0

    def test_refuses_oversize(self):
        with pytest.raises(ValueError, match="exhaustive"):
            count_zero2_subsets(Graph(27))

    def test_several_blocks_match_per_mask_firing(self):
        # The lower-half CCD subsets of this random graph fall 288, 224, 224
        # and 288 to a block, so every block counts.
        g = four_block_graph()
        by_firing = sum(_zero2_mask(g, m) for m in range(1 << g.n))
        assert count_zero2_subsets(g) == by_firing == 2048

    def test_planes_built_once_per_count(self, monkeypatch):
        # The count planes depend only on the graph and k, not on the block,
        # so the count builds one kernel, which holds them, for all blocks.
        calls = []
        real = quiescence._ccd_kernel

        def counted(g, k):
            calls.append(k)
            return real(g, k)

        monkeypatch.setattr(quiescence, "_ccd_kernel", counted)
        assert count_zero2_subsets(four_block_graph()) == 2048
        assert calls == [quiescence.CCD_BLOCK_BITS]

    def test_complete_graphs_pass_every_subset(self):
        # On K_n every subset is CCD. From n = 16 on the lower half spans
        # several blocks, and every vertex has neighbours among the low ones.
        for n in range(1, 21):
            assert count_zero2_subsets(complete(n)) == 2**n, n

    @pytest.mark.parametrize("spec,expected", [("cycle:20", 15_128), ("kbip:10,10", 184_758)])
    def test_benchmark_graphs(self, spec, expected):
        assert count_zero2_subsets(parse_graph_spec(spec)) == expected


class TestDominationNumber:
    def test_path6(self):
        assert domination_number(path(6)) == 2

    def test_rigid_six(self, rigid_six):
        assert domination_number(rigid_six) == 2

    def test_complete(self):
        assert domination_number(complete(5)) == 1

    @pytest.mark.parametrize("n", range(1, 19))
    def test_paths_match_ceiling_third(self, n):
        assert domination_number(path(n)) == -(-n // 3)

    def test_empty_graph(self):
        assert domination_number(Graph(0)) == 0

    @given(graphs(max_n=7))
    def test_matches_naive_scan(self, g):
        adj = naive.adjacency(g.n, g.edges)
        best = min(
            (bin(m).count("1") for m in range(1 << g.n)
             if naive.dominating(adj, {v for v in range(g.n) if m >> v & 1})),
            default=0,
        )
        assert domination_number(g) == best


def reverify_witness(w: SearchWitness) -> None:
    """Independent re-simulation of a claimed witness."""
    adj = naive.adjacency(w.graph.n, w.graph.edges)
    subset = set(w.subset.members)
    kind, detail = naive.zero_invoking_outcome(adj, subset)
    assert kind == "reached_zero" and detail == w.zero_step
    assert w.zero_step >= 3
    assert not naive.zero2_invoking(adj, subset)


class TestFindZeroNotZero2:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_paths_internally_consistent(self, n):
        result = find_zero_not_zero2(path(n))
        assert result is not SearchStatus.INCONCLUSIVE
        if isinstance(result, SearchWitness):
            reverify_witness(result)

    def test_trivial_subsets_never_qualify(self):
        g = complete(4)
        for h in (VertexSet(4, 0), VertexSet(4, g.full_mask)):
            out = is_zero_invoking(g, h)
            assert out.reached_zero and out.step == 0
            assert is_zero2_invoking(g, h)

    def test_inconclusive_under_tiny_cap(self):
        assert find_zero_not_zero2(path(4), max_steps=1) is SearchStatus.INCONCLUSIVE

    def test_components_do_not_decide_a_not_found(self):
        # P3 + K2 is INCONCLUSIVE at cap 3, though P3 and K2 are each
        # NOT_FOUND there. On the capped subset {0, 3}, the P3 part confirms
        # its cycle and the K2 part reaches zero within the cap, but the
        # whole walk confirms its cycle only after every part has, past the
        # cap. So a graph whose components are all NOT_FOUND need not be.
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert find_zero_not_zero2(g, max_steps=3) is SearchStatus.INCONCLUSIVE
        assert find_zero_not_zero2(path(3), max_steps=3) is SearchStatus.NOT_FOUND
        assert find_zero_not_zero2(path(2), max_steps=3) is SearchStatus.NOT_FOUND
        statuses = [
            is_zero_invoking(g, VertexSet(5, 0b01001), 3).status,
            is_zero_invoking(path(3), VertexSet(3, 0b001), 3).status,
            is_zero_invoking(path(2), VertexSet(2, 0b01), 3).status,
        ]
        assert statuses == [
            ZeroStatus.CAP_EXCEEDED, ZeroStatus.PERIOD_WITHOUT_ZERO, ZeroStatus.REACHED_ZERO
        ]

    def test_zero_cap_refused(self):
        with pytest.raises(ValueError) as err:
            find_zero_not_zero2(path(4), max_steps=0)
        assert str(err.value) == "max_steps must be >= 1, got 0"

    def test_witness_recheck_does_not_trust_the_walker(self, monkeypatch):
        # {1} on P3 is CCD (no edge lies inside H or V-H), so it is zero at
        # step 2. A lane kernel that claims a first zero at step 3 for it,
        # and a cap for any shorter walk, must trip the re-check.
        real = quiescence._lane_walk

        def lying_kernel(g, planes, masks, max_steps, b):
            if 0b010 not in masks:
                return real(g, planes, masks, max_steps, b)
            if max_steps < 3:
                return None, 1
            return (0b010, 3), 0

        assert _ccd_mask(path(3), 0b010)
        monkeypatch.setattr(quiescence, "_lane_walk", lying_kernel)
        with pytest.raises(AssertionError, match="CCD"):
            find_zero_not_zero2(path(3))

    def test_witness_reports_graph_subset_step_and_note(self, monkeypatch):
        # No small graph has a known witness, so this lane kernel reports a
        # first zero at step 3 for {0} on P4. {0} is not CCD (nonzero at
        # step 2), so it passes the re-check. Every other lane walks for real.
        real = quiescence._lane_walk

        def late_zero_kernel(g, planes, masks, max_steps, b):
            witness, live = real(g, planes, masks, max_steps, b)
            assert witness is None and not live
            return ((0b0001, 3), 0) if 0b0001 in masks else (None, live)

        g = path(4)
        assert not _ccd_mask(g, 0b0001)
        monkeypatch.setattr(quiescence, "_lane_walk", late_zero_kernel)
        w = find_zero_not_zero2(g)
        assert isinstance(w, SearchWitness)
        assert w.graph is g
        assert w.subset == VertexSet(4, 0b0001)
        assert w.zero_step == 3
        assert w.note == "zero restored at step 3, nonzero at step 2"

    @given(graphs(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_any_witness_reverifies(self, g):
        result = find_zero_not_zero2(g, max_steps=2000)
        if isinstance(result, SearchWitness):
            reverify_witness(result)


ORACLE_CAPS = (1, 2, 3, DEFAULT_MAX_STEPS)


@functools.lru_cache(maxsize=None)
def oracle_outcomes(n, edge_mask, cap):
    """naive.zero_invoking_outcome for every subset mask of one labelled graph."""
    g = graph_from_edge_mask(n, edge_mask)
    adj = naive.adjacency(n, g.edges)
    return tuple(
        naive.zero_invoking_outcome(adj, {v for v in range(n) if m >> v & 1}, cap)
        for m in range(1 << n)
    )


def oracle_find(n, edge_mask, cap):
    """Unpruned full-range scan: first witness mask, else the status value."""
    capped = False
    for mask, (kind, detail) in enumerate(oracle_outcomes(n, edge_mask, cap)):
        if kind == "cap_exceeded":
            capped = True
        elif kind == "reached_zero" and detail >= 3:
            return mask
    return "inconclusive" if capped else "not_found"


class TestComplementPruning:
    """find_zero_not_zero2 walks only masks below 2^(n-1); this is exact
    because H and its complement share their outcome (enumeration docstring)."""

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("cap", ORACLE_CAPS)
    def test_complement_has_same_outcome(self, n, cap):
        full = (1 << n) - 1
        for edge_mask in range(1 << (n * (n - 1) // 2)):
            outcomes = oracle_outcomes(n, edge_mask, cap)
            for h in range(1 << n):
                assert outcomes[h] == outcomes[full ^ h], (edge_mask, h)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("cap", ORACLE_CAPS)
    def test_pruned_scan_matches_unpruned_oracle(self, n, cap):
        for edge_mask in range(1 << (n * (n - 1) // 2)):
            res = find_zero_not_zero2(graph_from_edge_mask(n, edge_mask), max_steps=cap)
            got = res.subset.mask if isinstance(res, SearchWitness) else res.value
            assert got == oracle_find(n, edge_mask, cap), edge_mask

    @pytest.mark.parametrize("n", [4, 5])
    def test_scan_over_several_lane_blocks_matches_unpruned_oracle(self, monkeypatch, n):
        # At 2 block bits the masks below 2^(n-1) span 2 or 4 lane blocks.
        monkeypatch.setattr(quiescence, "CCD_BLOCK_BITS", 2)
        for cap in ORACLE_CAPS:
            for edge_mask in range(1 << (n * (n - 1) // 2)):
                res = find_zero_not_zero2(graph_from_edge_mask(n, edge_mask), max_steps=cap)
                got = res.subset.mask if isinstance(res, SearchWitness) else res.value
                assert got == oracle_find(n, edge_mask, cap), edge_mask


class TestIsomorphismCache:
    """search_all_graphs decides each isomorphism class once per search;
    exact because the kind of verdict is an isomorphism invariant
    (enumeration docstring)."""

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("cap", ORACLE_CAPS)
    @pytest.mark.parametrize("connected_only", [False, True])
    def test_cached_scan_matches_per_graph_loop(self, tmp_path, n, cap, connected_only):
        # Every report, and every position a resume accepts, carries the
        # per-graph loop's counts of the masks below its position.
        total = 1 << (n * (n - 1) // 2)
        want, found, undecided = [], [0] * total, [0] * total
        for mask, g in all_graphs(n, connected_only):
            res = find_zero_not_zero2(g, cap)
            if isinstance(res, SearchWitness):
                want.append(res)
                found[mask] = 1
            elif res is SearchStatus.INCONCLUSIVE:
                undecided[mask] = 1
        below = [(0, 0), *zip(itertools.accumulate(found), itertools.accumulate(undecided))]
        events = []
        got = list(search_all_graphs(n, cap, events.append, connected_only=connected_only))
        assert got == want
        assert events[-1].scanned == total
        assert [(p.witnesses, p.inconclusive) for p in events] == [below[p.scanned] for p in events]
        ckpt = tmp_path / "scan.ckpt"
        for pos in sorted({1, total // 3, total // 2, total} - {0}):
            w, i = below[pos]
            ckpt.write_text(f"search {n} {cap} {int(connected_only)} {w} {i}\n{n} {pos - 1}\n")
            resumed = []
            assert list(
                search_all_graphs(
                    n, cap, resumed.append, connected_only=connected_only,
                    checkpoint=ckpt, resume=True,
                )
            ) == want[w:]
            assert resumed[-1] == events[-1]

    def test_one_search_per_class_per_search(self, tmp_path, monkeypatch):
        # Every class is decided in the calling process, whatever workers is,
        # so the stub sees each search, and no child process is alive at any
        # report. A resumed run with nothing left decides every class again:
        # its record's counts are checked against them.
        calls = []

        def counting_find(g, max_steps):
            calls.append(canonical_edge_mask(g))
            return find_zero_not_zero2(g, max_steps)

        def report(p: SearchProgress):
            assert multiprocessing.active_children() == []
            events.append(p)

        monkeypatch.setattr(enumeration, "find_zero_not_zero2", counting_find)
        list(search_all_graphs(5, connected_only=True))
        assert len(calls) == len(set(calls)) == 21  # connected classes at n = 5 (OEIS A001349)
        ckpt = tmp_path / "scan.ckpt"
        runs = []
        for workers in (1, 2, 4):
            calls.clear()
            events = []
            found = list(search_all_graphs(5, 2, report, checkpoint=ckpt, workers=workers))
            runs.append((found, events))
            assert len(calls) == len(set(calls)) == 34, workers  # OEIS A000088
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][1] == [SearchProgress(5, 1024, 1024, 0, 972)]  # no witness: one report
        calls.clear()
        events = []
        assert list(search_all_graphs(5, 2, report, checkpoint=ckpt, resume=True)) == []
        assert len(calls) == len(set(calls)) == 34
        assert events == runs[0][1]

    @pytest.mark.parametrize(
        "argv,want",
        [
            (["--connected-only", "--max-steps", "1"], SearchProgress(6, 32768, 32768, 0, 26704)),
            (["--max-steps", "2"], SearchProgress(6, 32768, 32768, 0, 32565)),
        ],
        ids=["connected-cap-1", "all-cap-2"],
    )
    def test_inconclusive_classes_at_order_six(self, capsys, argv, want):
        # Every connected graph is INCONCLUSIVE at cap 1, so every connected
        # class is expanded; the totals were measured by labelling every graph.
        events = []
        cap = int(argv[-1])
        list(search_all_graphs(6, cap, events.append, connected_only="--connected-only" in argv))
        assert events[-1] == want
        assert cli.main(["search", "--n", "6", *argv]) == 1
        done = f"search done: 0 witnesses, {want.inconclusive} inconclusive\n"
        assert capsys.readouterr() == ("", done)


class TestGraphCensus:
    def test_edge_pair_order(self):
        assert all_edge_pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_mask_bit_maps_to_pair(self):
        g = graph_from_edge_mask(4, 0b000101)
        assert g.edges == ((0, 1), (0, 3))

    @pytest.mark.parametrize("n,mask", [(3, 1 << 3), (3, 1 << 10), (3, -1), (0, 1), (1, 1)])
    def test_refuses_mask_outside_pairs(self, n, mask):
        # A stray bit used to be dropped (1 << 10 gave the edgeless graph) and
        # -1 gave K3.
        with pytest.raises(ValueError, match=r"^edge mask .* has bits outside \[0, \d+\)$"):
            graph_from_edge_mask(n, mask)
        assert graph_from_edge_mask(3, 0b111).edges == ((0, 1), (0, 2), (1, 2))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_total_counts(self, n):
        assert sum(1 for _ in all_graphs(n)) == 1 << (n * (n - 1) // 2)

    @pytest.mark.parametrize("n", sorted(CONNECTED_COUNTS))
    def test_connected_counts(self, n):
        got = sum(1 for _ in all_graphs(n, connected_only=True))
        assert got == CONNECTED_COUNTS[n]

    def test_connected_classes_of_order_four(self):
        # 38 labelled connected graphs collapse to 6 isomorphism classes.
        canon = {canonical_edge_mask(g) for _, g in all_graphs(4, connected_only=True)}
        assert len(canon) == 6

    def test_canonical_invariant_under_relabelling(self):
        g = path(4)
        relabelled = Graph(4, [(3, 2), (2, 0), (0, 1)])
        assert canonical_edge_mask(g) == canonical_edge_mask(relabelled)
        assert canonical_edge_mask(g) != canonical_edge_mask(complete(4))


# Unlabelled graphs (OEIS A000088) and connected ones (A001349), n = 0..7.
GRAPH_CLASSES = (1, 1, 2, 4, 11, 34, 156, 1044)
CONNECTED_CLASSES = (1, 1, 1, 2, 6, 21, 112, 853)


class TestCanonicalForm:
    @pytest.mark.parametrize("n", range(6))
    def test_classes_match_naive_oracle(self, n):
        # Both forms split the labelled graphs into the same classes: the pairs
        # (refined form, n! form) are as many as either form's distinct values.
        pairs = {
            (canonical_edge_mask(g), naive.canonical_form(n, g.edges)) for _, g in all_graphs(n)
        }
        assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})

    @pytest.mark.parametrize("n", range(7))
    def test_class_counts_match_oeis(self, n):
        classes = {canonical_edge_mask(g) for _, g in all_graphs(n)}
        connected = {canonical_edge_mask(g) for _, g in all_graphs(n, connected_only=True)}
        assert (len(classes), len(connected)) == (GRAPH_CLASSES[n], CONNECTED_CLASSES[n])
        # The class source, degree test and all, gives the same forms.
        assert enumeration._classes(n, False) == sorted(classes)
        assert enumeration._classes(n, True) == sorted(connected)

    def test_tries_every_vertex_of_a_tied_cell(self):
        # C3 + C4 is 2-regular, so refinement leaves all seven vertices in one
        # cell, though they lie in two orbits: the form must split off a
        # triangle vertex and a square vertex alike.
        triangle_first = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
        square_first = Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)])
        assert canonical_edge_mask(triangle_first) == canonical_edge_mask(square_first)
        assert canonical_edge_mask(triangle_first) != canonical_edge_mask(cycle(7))

    @given(graphs(max_n=9), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_invariant_under_random_relabelling(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        relabelled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        form = canonical_edge_mask(g)
        assert canonical_edge_mask(relabelled) == form
        # The form is the edge mask of a relabelling of g, so it is its own form.
        assert canonical_edge_mask(graph_from_edge_mask(g.n, form)) == form
        assert bin(form).count("1") == g.m


def _generate_counting(monkeypatch, n, connected_only):
    """The number of classes _classes(n, connected_only) returns, and the
    number of canonical_edge_mask calls it makes."""
    calls = []
    label = enumeration.canonical_edge_mask

    def counting(g):
        calls.append(g)
        return label(g)

    monkeypatch.setattr(enumeration, "canonical_edge_mask", counting)
    return len(enumeration._classes(n, connected_only)), len(calls)


class TestClassSource:
    """The census generates isomorphism classes by vertex extension and
    expands them by relabelling (enumeration._classes, _relabellings)."""

    @pytest.mark.parametrize("n", range(8))
    def test_class_counts_match_oeis(self, n):
        got = (len(enumeration._classes(n, False)), len(enumeration._classes(n, True)))
        assert got == (GRAPH_CLASSES[n], CONNECTED_CLASSES[n])

    def test_connected_class_count_at_order_8(self, monkeypatch):
        # The labellings are every order's: the all-graph classes up to 7,
        # then the connected children at 8.
        assert _generate_counting(monkeypatch, 8, True) == (11_117, 28_911)  # OEIS A001349

    def test_graph_class_count_at_order_8(self, monkeypatch):
        assert _generate_counting(monkeypatch, 8, False) == (12_346, 32_886)  # OEIS A000088

    @pytest.mark.parametrize("connected_only", [False, True])
    def test_degree_test_loses_no_class_at_order_7(self, connected_only):
        # Against the vertex extension without the degree test.
        unfiltered = naive.vertex_extension_classes(
            7, connected_only, lambda n, edges: canonical_edge_mask(Graph(n, edges))
        )
        assert enumeration._classes(7, connected_only) == sorted(unfiltered)

    def test_keeps_the_classes_a_wrong_degree_test_would_lose(self):
        # Cut vertices are not exempt: the star K_{1,3} is reached from the
        # edgeless graph on 3 vertices, its centre the new vertex of degree
        # 3, not from a path by a leaf. The bowtie's only vertex of largest
        # degree is a cut vertex, and deleting it leaves two components, so
        # it is reached only from a disconnected parent. In a regular graph
        # (C4, K4, two disjoint edges) every vertex ties with the new one.
        bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        for g in (complete_bipartite(1, 3), cycle(4), complete(4), bowtie):
            assert canonical_edge_mask(g) in enumeration._classes(g.n, True)
        matching = Graph(4, [(0, 1), (2, 3)])
        assert canonical_edge_mask(matching) in enumeration._classes(4, False)

    @pytest.mark.parametrize(
        "n,connected_only,labellings",
        [(6, True, 319), (7, True, 2_529), (6, False, 441), (7, False, 3_131)],
    )
    def test_degree_test_prunes_labellings(self, monkeypatch, n, connected_only, labellings):
        # Without the degree test, 1,028, 9,616, 1,306 and 11,290 children
        # are labelled.
        assert _generate_counting(monkeypatch, n, connected_only)[1] == labellings

    @pytest.mark.parametrize("n", range(7))
    def test_relabellings_cover_every_labelled_graph_once(self, n):
        everything = list(enumeration._relabellings(n, enumeration._classes(n, False)))
        assert len(everything) == len(set(everything)) == 1 << (n * (n - 1) // 2)
        connected = list(enumeration._relabellings(n, enumeration._classes(n, True)))
        assert len(connected) == len(set(connected)) == CONNECTED_COUNTS[n]
        pairs = all_edge_pairs(n)
        assert all(is_connected(graph_from_edge_mask(n, m, pairs)) for m in connected)


class _Interrupt(Exception):
    pass


class TestSearchAllGraphs:
    def test_n2_finds_nothing(self):
        assert list(search_all_graphs(2)) == []

    def test_n4_connected_golden(self):
        # Frozen by the independent dict-based scan: no witnesses exist.
        witnesses = list(search_all_graphs(4, connected_only=True))
        assert witnesses == []

    def test_reporter_progress_is_monotone(self):
        events: list[SearchProgress] = []
        list(search_all_graphs(3, reporter=events.append))
        assert events
        assert events[-1].scanned == events[-1].total == 8
        assert all(a.scanned < b.scanned for a, b in zip(events, events[1:]))

    def test_refuses_oversize(self):
        with pytest.raises(ValueError, match=r"^refusing n=8 > 7: at a low cap every class"):
            next(iter(search_all_graphs(8)))

    def test_refuses_negative_order(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            next(iter(search_all_graphs(-1)))

    def test_refuses_zero_workers(self):
        # The CLI refuses --threads 0 itself, so only a library call reaches this.
        with pytest.raises(ValueError, match=r"^workers must be >= 1, got 0$"):
            next(iter(search_all_graphs(3, workers=0)))

    def test_checkpoint_interrupt_and_resume(self, tmp_path, monkeypatch):
        # The fabricated witnesses at n = 4 are the masks with two edges:
        # 3, 5, 6, 9, ... The reporter stops the run at its third report,
        # the one after the witness at mask 6.
        monkeypatch.setattr(enumeration, "find_zero_not_zero2", _fake_find)
        full = list(search_all_graphs(4))
        ckpt = tmp_path / "scan.ckpt"
        seen = []
        partial = []

        def stop_after_three(p: SearchProgress):
            seen.append(p.scanned)
            if len(seen) == 3:
                raise _Interrupt

        with pytest.raises(_Interrupt):
            for w in search_all_graphs(4, reporter=stop_after_three, checkpoint=ckpt):
                partial.append(w)
        assert seen == [4, 6, 7]
        assert ckpt.read_text().strip().splitlines()[-1] == "4 6"

        resumed_events = []
        resumed = list(
            search_all_graphs(4, reporter=resumed_events.append, checkpoint=ckpt, resume=True)
        )
        assert partial == full[:3]
        assert resumed == full[3:]
        assert resumed_events[0].scanned == 10  # picked up at mask 7; next witness is 9
        assert resumed_events[-1].scanned == 64
        assert ckpt.read_text().strip().splitlines()[-1] == "4 63"

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError):
            next(iter(search_all_graphs(3, resume=True)))

    def test_resume_rejects_missing_checkpoint(self, tmp_path):
        ckpt = tmp_path / "missing.ckpt"
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {ckpt} does not exist")):
            next(iter(search_all_graphs(3, checkpoint=ckpt, resume=True)))
        assert list(tmp_path.iterdir()) == []

    def test_resume_rejects_other_order(self, tmp_path):
        ckpt = tmp_path / "scan.ckpt"
        ckpt.write_text("search 5 50 0 0 0\n5 100\n")
        with pytest.raises(ValueError, match="search 5 50 0 0 0"):
            next(iter(search_all_graphs(4, max_steps=50, checkpoint=ckpt, resume=True)))

    @pytest.mark.parametrize(
        "record,match",
        [
            ("search 4 2 0 0 0\n4 10\n", "search 4 2 0 0 0"),
            ("search 4 50 1 0 0\n4 10\n", "search 4 50 1 0 0"),
        ],
        ids=["max-steps", "connected-only"],
    )
    def test_resume_rejects_other_parameters(self, tmp_path, record, match):
        ckpt = tmp_path / "scan.ckpt"
        ckpt.write_text(record)
        with pytest.raises(ValueError, match=match):
            next(iter(search_all_graphs(4, max_steps=50, checkpoint=ckpt, resume=True)))

    def test_resume_rejects_garbage(self, tmp_path):
        ckpt = tmp_path / "scan.ckpt"
        for text in [
            "4 23\n",  # the old append-only log
            "4 15\n4 31\n",
            "search 4 50 0 0 0\n4 not-a-mask\n",
            "search 4 50 0 0 0\n4 2\n4 3\n",
            "search 4 50 0 0 0\n4 3",  # torn: no final newline
            "search 4 50 0 0 0\n5 3\n",
            "search 4 50 0 0 0\n4 64\n",  # beyond the last edge mask
            "search 4 50 0 99 99\n4 3\n",  # more graphs counted than masks covered
            "search 4 50 0 1 0\n4 10\n",  # not the search's counts below mask 11
            "",
        ]:
            ckpt.write_text(text)
            with pytest.raises(ValueError, match="checkpoint"):
                next(iter(search_all_graphs(4, max_steps=50, checkpoint=ckpt, resume=True)))

    def test_resume_accepts_only_the_bytes_save_writes(self, tmp_path, monkeypatch):
        # Each of the 16 records of the fabricated n = 4 run, its final one
        # included, resumes at exactly its position. One-character variants
        # of a record are refused, and the file is left as it was.
        monkeypatch.setattr(enumeration, "find_zero_not_zero2", _fake_find)
        ckpt = tmp_path / "scan.ckpt"
        records = []  # (record, SearchProgress) at each report

        def read_record(p: SearchProgress):
            records.append((ckpt.read_bytes(), p))

        full = list(search_all_graphs(4, reporter=read_record, checkpoint=ckpt))
        assert len(records) == 16
        assert records[-1][0] == f"search 4 {DEFAULT_MAX_STEPS} 0 15 6\n4 63\n".encode()
        starts = []
        real = enumeration._read_checkpoint

        def recording(*args):
            starts.append(real(*args))
            return starts[-1]

        monkeypatch.setattr(enumeration, "_read_checkpoint", recording)
        for record, p in records:
            ckpt.write_bytes(record)
            resumed = list(search_all_graphs(4, checkpoint=ckpt, resume=True))
            assert starts[-1] == p.scanned
            assert resumed == full[p.witnesses:]
            assert ckpt.read_bytes() == records[-1][0]
        record = records[2][0].decode()
        assert record == f"search 4 {DEFAULT_MAX_STEPS} 0 3 3\n4 6\n"
        for variant in [
            record.replace("search 4", "search 04"),
            record.replace("\n4 ", "\n04 "),
            record.replace(" 6\n", " 06\n"),
            record.replace("\n", " \n", 1),
            record + " ",
            record + "\n",
            record.replace("\n", "\r\n"),
        ]:
            ckpt.write_bytes(variant.encode())
            with pytest.raises(ValueError, match=f"^checkpoint {re.escape(str(ckpt))}"):
                next(iter(search_all_graphs(4, checkpoint=ckpt, resume=True)))
            assert ckpt.read_bytes() == variant.encode()

    @pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
    @pytest.mark.parametrize(
        "name,why",
        [("missing/scan.ckpt", ": {dir} is not a directory"), ("ckdir", " is a directory")],
        ids=["missing-directory", "names-a-directory"],
    )
    def test_checkpoint_misuse_refused_before_any_work(
        self, tmp_path, monkeypatch, name, why, resume
    ):
        def no_classes(n, connected_only):
            raise AssertionError("classes generated before the checkpoint was checked")

        monkeypatch.setattr(enumeration, "_classes", no_classes)
        (tmp_path / "ckdir").mkdir()
        ckpt = tmp_path / name
        message = f"checkpoint {ckpt}" + why.format(dir=ckpt.parent)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            next(iter(search_all_graphs(7, checkpoint=str(ckpt), resume=resume)))
        assert [p.name for p in tmp_path.rglob("*")] == ["ckdir"]

    @pytest.mark.parametrize("call", ["fsync", "replace"])
    def test_failed_save_removes_its_tmp(self, tmp_path, monkeypatch, call):
        def fail(*args):
            raise OSError(f"{call} failed")

        monkeypatch.setattr(enumeration.os, call, fail)
        with pytest.raises(OSError, match=f"{call} failed"):
            list(search_all_graphs(3, checkpoint=tmp_path / "scan.ckpt"))
        assert list(tmp_path.iterdir()) == []

    def test_each_report_finds_its_record(self, tmp_path, monkeypatch):
        # Each report finds the checkpoint holding the record of its position:
        # 15 fabricated witnesses at n = 4, then the end.
        monkeypatch.setattr(enumeration, "find_zero_not_zero2", _fake_find)
        ckpt = tmp_path / "scan.ckpt"
        seen = []

        def read_record(p: SearchProgress):
            seen.append(ckpt.read_text())
            assert seen[-1] == (
                f"search 4 2 0 {p.witnesses} {p.inconclusive}\n4 {p.scanned - 1}\n"
            )

        list(search_all_graphs(4, max_steps=2, reporter=read_record, checkpoint=ckpt))
        assert len(seen) == 16
        assert ckpt.read_text() == seen[-1] == "search 4 2 0 15 6\n4 63\n"
        assert [p.name for p in tmp_path.iterdir()] == ["scan.ckpt"]

    @pytest.mark.parametrize(
        "n,fake,writes", [(6, False, 1), (4, True, 16)], ids=["witness-free", "fabricated"]
    )
    def test_checkpoint_written_at_each_witness_and_the_end(
        self, tmp_path, monkeypatch, n, fake, writes
    ):
        replaced = []

        def counting_replace(src, dst):
            replaced.append(dst)
            real_replace(src, dst)

        real_replace = enumeration.os.replace
        if fake:
            monkeypatch.setattr(enumeration, "find_zero_not_zero2", _fake_find)
        monkeypatch.setattr(enumeration.os, "replace", counting_replace)
        ckpt = tmp_path / "scan.ckpt"
        list(search_all_graphs(n, connected_only=not fake, checkpoint=ckpt))
        assert replaced == [ckpt] * writes

    def test_workers_match_sequential(self, monkeypatch):
        # workers does not change the witnesses or the reports.
        monkeypatch.setattr(enumeration, "find_zero_not_zero2", _fake_find)
        runs = []
        for workers in (1, 2):
            events = []
            runs.append((list(search_all_graphs(4, 2, events.append, workers=workers)), events))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) == 15 and len(runs[0][1]) == 16

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_at_every_report(self, tmp_path, monkeypatch, capsys, workers):
        # The 45 fabricated witnesses at n = 5 and the end make 46 reports.
        # Each leg is interrupted from the reporter at report k, then resumed
        # through the library and through the CLI; k = 46 resumes a finished
        # checkpoint.
        monkeypatch.setattr(enumeration, "find_zero_not_zero2", _fake_find)
        argv = ["search", "--n", "5", "--max-steps", "2", "--threads", str(workers)]
        events = []
        full = list(search_all_graphs(5, 2, events.append, workers=workers))
        want = events[-1]
        assert want == SearchProgress(5, 1024, 1024, 45, 10)
        assert len(events) == 46
        assert cli.main(argv) == 1
        want_out, want_err = capsys.readouterr()
        want_out = want_out.splitlines(keepends=True)
        assert len(want_out) == 45
        assert want_err == "search done: 45 witnesses, 10 inconclusive\n"

        for k in range(1, 47):
            ckpt = tmp_path / f"stop{k}.ckpt"
            reports = []

            def stop_at_k(p: SearchProgress):
                reports.append(p)
                if len(reports) == k:
                    raise _Interrupt

            partial = []
            with pytest.raises(_Interrupt):
                for w in search_all_graphs(5, 2, stop_at_k, checkpoint=ckpt, workers=workers):
                    partial.append(w)
            copy = tmp_path / f"stop{k}.cli.ckpt"
            copy.write_text(ckpt.read_text())

            events = []
            resumed = list(
                search_all_graphs(
                    5, 2, events.append, checkpoint=ckpt, resume=True, workers=workers
                )
            )
            assert partial + resumed == full
            assert len(events) == max(46 - k, 1)  # a finished checkpoint reports once
            assert events[-1] == want
            assert cli.main([*argv, "--checkpoint", str(copy), "--resume"]) == 1
            assert capsys.readouterr() == ("".join(want_out[min(k, 45):]), want_err)

    def test_witness_pipeline(self, monkeypatch):
        # No real witness is known (that existence is the open question), so
        # fake the per-graph search to exercise emission and ordering.
        monkeypatch.setattr(enumeration, "find_zero_not_zero2", _fake_find)
        got = list(search_all_graphs(3))
        assert [(w.subset.mask, w.zero_step) for w in got] == [(1, 4), (2, 5), (4, 6)]

    def test_witness_at_the_last_mask_reports_the_end_once(self, tmp_path, monkeypatch):
        # A witness on K3, mask 7 = total - 1, already stops the run at total.
        def complete_only(g, max_steps=0):
            if g.m == 3:
                return SearchWitness(g, VertexSet(3, 1), 4, "fabricated")
            return SearchStatus.NOT_FOUND

        monkeypatch.setattr(enumeration, "find_zero_not_zero2", complete_only)
        events = []
        got = list(search_all_graphs(3, reporter=events.append, checkpoint=tmp_path / "c"))
        assert [w.graph.m for w in got] == [3]
        assert events == [SearchProgress(3, 8, 8, 1, 0)]

    def test_witness_through_worker_pool(self, monkeypatch):
        # workers = 2 gives the fabricated verdicts, the witnesses and the
        # reports, one per witness and one at the end, of workers = 1.
        monkeypatch.setattr(enumeration, "find_zero_not_zero2", _fake_find)
        runs = []
        for workers in (1, 2):
            events = []
            found = list(search_all_graphs(3, reporter=events.append, workers=workers))
            runs.append((found, events))
        (seq, seq_events), (par, par_events) = runs
        assert [(w.subset.mask, w.zero_step) for w in seq] == [(1, 4), (2, 5), (4, 6)]
        assert par == seq
        assert [w.graph.nbr_masks for w in par] == [w.graph.nbr_masks for w in seq]
        assert par_events == seq_events == [
            SearchProgress(3, 4, 8, 1, 2),
            SearchProgress(3, 6, 8, 2, 3),
            SearchProgress(3, 7, 8, 3, 3),
            SearchProgress(3, 8, 8, 3, 3),
        ]

    def test_close_after_a_witness_and_resume(self, tmp_path, monkeypatch):
        monkeypatch.setattr(enumeration, "find_zero_not_zero2", _fake_find)
        events = []
        full = list(search_all_graphs(3, reporter=events.append))
        want = events[-1]
        assert (want.witnesses, want.inconclusive) == (3, 3)

        ckpt = tmp_path / "scan.ckpt"
        stream = search_all_graphs(3, checkpoint=ckpt)
        partial = [next(stream)]
        stream.close()
        assert ckpt.read_text() == f"search 3 {DEFAULT_MAX_STEPS} 0 1 2\n3 3\n"

        events = []
        resumed = list(search_all_graphs(3, reporter=events.append, checkpoint=ckpt, resume=True))
        assert partial + resumed == full
        assert events[-1] == want

    @pytest.mark.parametrize("chunk", [1, 8, 4096])
    def test_close_after_each_witness_counts_only_masks_below(self, tmp_path, monkeypatch, chunk):
        # n = 4 has 64 edge masks: the 15 with two edges are witnesses and
        # the 6 with one are inconclusive. Each report counts the masks below
        # its position, one past its witness. A close right after a witness
        # records the witnesses up to it and the inconclusive masks below it,
        # and a resume then ends as a full run. So does a resume from each
        # record that a writer checkpointing every `chunk` masks left at a
        # chunk's end, wherever the witnesses fall: in chunks of eight, the
        # first holds the witness at mask 3 with the inconclusive masks 1
        # and 2 below it and 4 above, and the inconclusive masks 4 and 8 lie
        # on either side of a chunk edge.
        monkeypatch.setattr(enumeration, "find_zero_not_zero2", _fake_find)
        events = []
        full = list(search_all_graphs(4, reporter=events.append))
        want = events[-1]
        masks = [m for m in range(64) if bin(m).count("1") == 2]
        assert [w.graph for w in full] == [graph_from_edge_mask(4, m) for m in masks]
        assert want == SearchProgress(4, 64, 64, 15, 6)

        def below(p):
            return sum(m < p for m in masks), sum(1 << i < p for i in range(6))

        assert [p.scanned for p in events] == [m + 1 for m in masks] + [64]
        assert [(p.witnesses, p.inconclusive) for p in events] == [below(p.scanned) for p in events]
        for k, witness in enumerate(masks, 1):
            ckpt = tmp_path / f"after{k}.ckpt"
            stream = search_all_graphs(4, checkpoint=ckpt)
            partial = [next(stream) for _ in range(k)]
            stream.close()
            assert ckpt.read_text() == (
                f"search 4 {DEFAULT_MAX_STEPS} 0 {k} {below(witness)[1]}\n4 {witness}\n"
            )
            events = []
            resumed = list(
                search_all_graphs(4, reporter=events.append, checkpoint=ckpt, resume=True)
            )
            assert partial + resumed == full
            assert events[-1] == want
        for end in range(chunk, 64 + chunk, chunk):
            end = min(end, 64)
            ckpt = tmp_path / f"chunk{end}.ckpt"
            w, i = below(end)
            ckpt.write_text(f"search 4 {DEFAULT_MAX_STEPS} 0 {w} {i}\n4 {end - 1}\n")
            events = []
            resumed = list(
                search_all_graphs(4, reporter=events.append, checkpoint=ckpt, resume=True)
            )
            assert resumed == full[w:]
            assert events[-1] == want


def _fake_find(g, max_steps=0):
    """find_zero_not_zero2 with fabricated verdicts that, like the real ones,
    depend only on the isomorphism class: a witness on every graph with two
    edges, INCONCLUSIVE on every graph with one. The witness subset is the
    vertex of highest degree, so it depends on the labels, as a real first
    witness may. At n = 3 the witnesses are the paths at edge masks 3, 5 and 6
    (centres 0, 1 and 2) and the inconclusive graphs are masks 1, 2 and 4."""
    if g.m == 2:
        centre = max(range(g.n), key=g.degree)
        return SearchWitness(g, VertexSet(g.n, 1 << centre), 4 + centre, "fabricated")
    return SearchStatus.INCONCLUSIVE if g.m == 1 else SearchStatus.NOT_FOUND
